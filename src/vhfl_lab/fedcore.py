"""Training engines: vertical-horizontal FL, FedAvg-style HFL, and cloud baselines.

Every mode runs one round loop: each global epoch is one training phase,
then evaluation and a trace row. The federated phase runs
select -> broadcast centrally processed features -> local updates (which
also record gradients with respect to the central features) -> optional
lossy-channel filtering -> weight aggregation -> one central model step.
HFL is that round on a center without the global model w0: nothing is
broadcast and no central step runs. The cloud modes instead run one pooled
phase, mini-batch SGD on all clients' training rows, through w0 as well
when the center has it (``cloud``) and on local features alone
(``cloud_local``).

All randomness flows through named substreams of (seed, tag, ...), so a
trace is a pure function of (config, dataset): client updates may run in
any order without changing results.

A net is its layer shapes plus one ``(P,)`` parameter vector (see
``nnet``), and every phase acts on whole vectors. Validate at the edges,
run unchecked kernels inside the loop. Data is checked where it enters
(``ClientShard``, ``GlobalStore``, config parsing).

A run stacks its train and test shards once, grouped by size, with their
global rows when the center has w0 (:func:`build_split`). A round's cohort
is client ids of the train split: the broadcast sends wbar's inputs for
the train split, u0 = w0(x0) beside the local rows as the combine mode puts
them (:func:`center_broadcast`); each cohort client trains on its rows of
them (:func:`client_update`); aggregation adds the delivered uploads in
upload order; and w0 steps once on their rows in id order
(:func:`central_update`). A federated run selects client ids from
0..N-1, and rejects training shards with other ids. :func:`plan_run`
writes the keys of every round's streams and seeds them before round 0;
behind a finite deadline it also takes the channel's ``(T, K)`` delivery
mask there, from one ``netqueue.apply_channel`` call: a delay does not
depend on training, so a round keeps the uploads its row of the mask
delivers. A client's sample order in round t_g is the permutation of the
substream (seed, "batches", client_id, t_g) (``datagen.permutations``).

The stacked kernels issue one BLAS call and one reduction per client
slice, with the slice's own shape, so a client gets the bits it would get
alone, and so does a shard's u0 and its evaluation, which adds the shards
up in their original order. Pooling the rows of different clients into
one matrix would not: a BLAS kernel rounds the tail rows of an ``(M, 16)
@ (16, 1)`` product differently as M changes.

Each phase checks its results once, when it ends, with one ``isfinite``
pass over its vectors. The local phase names the first diverged client in
cohort order. The other phases build a net, whose finite check is the
guard: ``_guard`` turns the build's ``nnet.NonFiniteError`` into an error
naming the phase, the global epoch and the clients (the pooled phase
trains no client and names none). A value that turns inf or nan stays
non-finite under later steps, so this catches what per-step checks would.
Evaluation is guarded on its losses, so the loop runs with numpy's
overflow and invalid-value warnings off.
Vertical gradients travel as one ``(n_j, u0_dim)`` array per client in
shard order.

``FederationConfig`` is the one home of the round settings (K, E_L, B, the
eta and eta0 schedules, the aggregator, the combine mode, the seed), and
it validates them once. Every training phase takes the config as its
first argument and the global epoch ``t_g`` last, and reads its settings
from it; no phase takes a setting as an argument or re-checks one.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import nnet
from .datagen import ClientShard, FederationDataset, GlobalStore, batches, permutations
from .netqueue import ChannelModel, apply_channel
from .rng import generators, seed_states, substream

COMBINES = ("concat", "additive")
AGGREGATORS = ("renormalized", "paper_unbiased")


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule: constant c, or c / (t + t0) decaying in the slot t."""

    kind: str
    c: float
    t0: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "inverse"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # written so that NaN fails the checks
        if not self.c >= 0.0:
            raise ValueError(f"schedule coefficient must be >= 0, got {self.c}")
        if self.kind == "inverse" and not self.t0 > 0.0:
            raise ValueError(f"inverse schedule needs t0 > 0, got {self.t0}")

    def value(self, t: int) -> float:
        if self.kind == "constant":
            return self.c
        return self.c / (t + self.t0)

    def max_value(self) -> float:
        if self.kind == "constant":
            return self.c
        return self.c / self.t0


@dataclass(frozen=True)
class FederationConfig:
    n_clients: int
    k: int
    local_epochs: int
    batch_size: int
    global_epochs: int
    eta: Schedule
    eta0: Schedule
    seed: int
    combine: str = "concat"
    aggregator: str = "renormalized"
    w0_hidden: tuple[int, ...] = (16,)
    u0_dim: int = 4
    local_hidden: tuple[int, ...] = (16,)
    activation: str = "tanh"
    l_est: float = 1.0
    deadline_channel: ChannelModel | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n_clients:
            raise ValueError(f"need 1 <= k <= n_clients, got k={self.k}, n={self.n_clients}")
        if self.local_epochs < 1 or self.global_epochs < 1:
            raise ValueError("local_epochs and global_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.combine not in COMBINES:
            raise ValueError(f"unknown combine mode {self.combine!r}")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.activation not in nnet.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.u0_dim < 1:
            raise ValueError(f"u0_dim must be >= 1, got {self.u0_dim}")
        if not self.l_est > 0.0:
            raise ValueError(f"l_est must be positive, got {self.l_est}")
        for name, sched in (("eta", self.eta), ("eta0", self.eta0)):
            top = sched.max_value()
            if not 0.0 < top <= 1.0 / self.l_est:
                raise ValueError(
                    f"{name} values must lie in (0, {1.0 / self.l_est:g}], peak is {top:g}"
                )
        for name in ("w0_hidden", "local_hidden"):
            widths = tuple(int(h) for h in getattr(self, name))
            if any(h < 1 for h in widths):
                raise ValueError(f"{name} widths must be >= 1, got {list(widths)}")
            object.__setattr__(self, name, widths)

    def local_etas(self, t_g: int) -> list[float]:
        """The learning rate of each local epoch e of round ``t_g``, read at the
        schedule slot t_g * local_epochs + e."""
        return [self.eta.value(t_g * self.local_epochs + e) for e in range(self.local_epochs)]


@dataclass
class CenterState:
    """Center-side state: global model w0 (None for local-only modes) and federal model."""

    w0: nnet.DenseNet | None
    wbar: nnet.DenseNet


@dataclass(frozen=True)
class Upload:
    shard: ClientShard
    params: np.ndarray  # the trained (P,) vector, a view of the client's row of its group's buffer
    vgrads: np.ndarray | None  # (n_j, u0_dim) in shard order; None without a global model


@dataclass(frozen=True)
class SizeGroup:
    """The shards of one size in a :class:`Split`: their positions, and their
    rows stacked as ``(G, n, d)`` arrays in that order."""

    positions: list[int]
    x_global: np.ndarray | None  # None when the split was built without a store
    x_local: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Split:
    """Shards grouped by size and stacked once per run; a round's cohort is
    a selection of the train split's shards (:func:`client_update`)."""

    shards: tuple[ClientShard, ...]
    groups: tuple[SizeGroup, ...]
    q: np.ndarray  # the shards' weights and sample counts, in shard order
    n: np.ndarray

    @functools.cached_property
    def _slots(self) -> dict[int, tuple[int, int, int]]:
        """Client id -> the shard's position, its size group and its row there."""
        return {
            self.shards[pos].client_id: (pos, g, row)
            for g, group in enumerate(self.groups)
            for row, pos in enumerate(group.positions)
        }

    @functools.cached_property
    def _pools(self) -> list[tuple[dict, dict]]:
        """Per size group, the buffer pools of w0's and wbar's inputs and
        passes in :func:`evaluate` and :func:`weighted_train_loss`: a split
        stacked once per run is evaluated in the same buffers every round."""
        return [({}, {}) for _ in self.groups]

    @functools.cached_property
    def _inputs(self) -> list:
        """The last w0 and combine mode that :func:`_wbar_inputs` ran on this
        split, and its stacks."""
        return [None, None, None]


# A local phase's round function for one size-group shape: (the train
# group's input, side and label stacks, the rows of its clients that train,
# their streams, wbar, t_g) -> the trained (G, P) buffer and the vertical
# gradients, or None without u0; quoted, so that importing this module does
# not import numpy.random
_TrainGroup = Callable[
    [tuple, np.ndarray, "Sequence[np.random.Generator]", nnet.DenseNet, int],
    "tuple[np.ndarray, np.ndarray | None]",
]


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    train_mse: float
    test_mse: float
    test_error_ratio: float
    k_received: int


def select_clients(config: FederationConfig, rng: np.random.Generator) -> tuple[int, ...]:
    """K distinct client ids, uniform without replacement, drawn from the
    round's stream (seed, "select", t_g)."""
    picks = rng.choice(config.n_clients, size=config.k, replace=False)
    return tuple(sorted(int(i) for i in picks))


class RunPlan(NamedTuple):
    """Each round's cohort, the ``rng.seed_states`` words of its clients' batch
    streams, ``(T, K, 4)``, and the channel's ``(T, K)`` delivery mask of their
    uploads, in cohort order."""

    cohorts: tuple[tuple[int, ...], ...]
    batch_states: np.ndarray
    delivered: np.ndarray

    def streams(self, t_g: int) -> list[np.random.Generator]:
        """Round ``t_g``'s fresh batch generators, in cohort order."""
        return generators(self.batch_states[t_g])


def plan_run(config: FederationConfig, pooled: bool) -> RunPlan:
    """A run's cohorts, from :func:`select_clients` or the pooled shard 0 of a
    cloud mode, with the streams of all its rounds seeded in one pass per kind
    from the keys written here, and behind a finite deadline the channel's
    delivery of every upload, decided before round 0 by
    :func:`netqueue.apply_channel` from the seed words of the delay streams.
    A cloud mode uploads nothing and ignores the channel."""
    rounds = range(config.global_epochs)
    if pooled:
        cohorts = ((0,),) * len(rounds)
    else:
        select = generators(seed_states([(config.seed, "select", t_g) for t_g in rounds]))
        cohorts = tuple(select_clients(config, rng) for rng in select)
    uploads = [(t_g, client_id) for t_g, cohort in enumerate(cohorts) for client_id in cohort]
    batch_states = seed_states([(config.seed, "batches", c, t_g) for t_g, c in uploads]).reshape(len(cohorts), -1, 4)
    delivered = np.ones(batch_states.shape[:2], dtype=bool)
    channel = None if pooled else config.deadline_channel
    if channel is not None and np.isfinite(channel.t_p):
        delay_states = seed_states([(channel.seed, "channel", t_g, c) for t_g, c in uploads])
        delivered = apply_channel(channel, delay_states).reshape(delivered.shape)
    return RunPlan(cohorts, batch_states, delivered)


def _diverged(phase: str, global_epoch: int, clients: Sequence[int] = ()) -> ValueError:
    """The error of a phase whose results are not finite, naming the phase,
    the global epoch and the clients; a phase of no client names none."""
    message = f"non-finite values after {phase} at global epoch {global_epoch}"
    if len(clients) == 1:
        message += f", client {clients[0]}"
    elif clients:
        message += f", clients {list(clients)}"
    return ValueError(message)


@contextlib.contextmanager
def _guard(phase: str, global_epoch: int, clients: Sequence[int] = ()) -> Iterator[None]:
    """The phase-edge guard around building a phase's results: a net built from
    non-finite parameters fails its finite check, and that error becomes
    :func:`_diverged`."""
    try:
        yield
    except nnet.NonFiniteError as err:
        raise _diverged(phase, global_epoch, clients) from err


def _size_groups(shards: Sequence[ClientShard]) -> list[list[int]]:
    """Positions in ``shards`` grouped by shard size: groups in the order of
    their first member, positions ascending within a group."""
    groups: dict[int, list[int]] = {}
    for pos, shard in enumerate(shards):
        groups.setdefault(shard.n, []).append(pos)
    return list(groups.values())


def build_split(shards: Sequence[ClientShard], store: GlobalStore | None) -> Split:
    """Stack the shards by size, for training and for :func:`evaluate` and
    :func:`weighted_train_loss`, with each shard's global rows read from
    ``store``; it is None for a center without w0, and the split holds none.
    A size group reads its global rows in one ``store.rows`` call."""
    groups = []
    for positions in _size_groups(shards):
        members = [shards[pos] for pos in positions]
        # the explicit shape holds for 0-row shards too, where -1 is ambiguous
        shape = (len(members), members[0].n, None if store is None else store.dim)
        groups.append(
            SizeGroup(
                positions=positions,
                x_global=None if store is None else store.rows(np.concatenate([s.ids for s in members])).reshape(shape),
                x_local=np.stack([shard.x_local for shard in members]),
                y=np.stack([shard.y for shard in members]),
            )
        )
    q, n = np.array([s.q for s in shards], dtype=np.float64), np.array([s.n for s in shards], dtype=np.int64)
    return Split(shards=tuple(shards), groups=tuple(groups), q=q, n=n)


def _wbar_inputs(
    config: FederationConfig, center: CenterState, split: Split
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The combine rule: per size group of the split, wbar's input stack,
    with its ones column, and the side stack added to its output. With w0,
    u0 = w0(x0) of the group's global rows, computed once per w0; under
    concat the input is ``[u0 | x_local | 1]``, whose first columns w0's
    last product writes, and the side None, under additive the input is
    ``[x_local | 1]`` and the side u0. Without w0 the input is ``[x_local |
    1]`` and the side None. The inputs and w0's ``[x0 | 1]`` live in the
    group's pools, their rows and ones written once per split. Nets are
    immutable, so the stacks stay valid until the split meets another w0."""
    if split._inputs[0] is not center.w0 or split._inputs[1] != config.combine:
        width = 0 if center.w0 is None or config.combine == "additive" else center.w0.layers[-1].out_dim
        stacks = []
        for group, (pool0, pool) in zip(split.groups, split._pools):
            inp, side = nnet.with_ones(group.x_local, pool, width), None
            if center.w0 is not None:
                x0 = nnet.with_ones(group.x_global, pool0)
                u0 = nnet._output(center.w0, x0, pool0, inp[..., :width] if width else None)
                side = None if width else u0
            stacks.append((inp, side))
        split._inputs[:] = center.w0, config.combine, stacks
    return split._inputs[2]


def center_broadcast(
    config: FederationConfig, center: CenterState, train: Split
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The centrally processed rows u0 = w0(x0) of the train split, combined
    with its local rows into wbar's inputs (:func:`_wbar_inputs`); a round's
    cohort trains on its rows of them. The center must hold w0 and ``train``
    the global rows."""
    return _wbar_inputs(config, center, train)


def _step_ops(
    layers: Sequence[nnet.Layer],
    grads: nnet.Grads,
    inp: np.ndarray,
    side: np.ndarray | None,
    y: np.ndarray,
    width: int,
    ops: nnet.Ops,
    pool: dict,
) -> np.ndarray | None:
    """Append one step of the local model on the input rows ``inp = [... |
    1]`` to ``ops``: its forward pass, ``+ side`` under additive, the
    residual out - y and its backward pass from it, which writes the
    gradients into ``grads``. The residual is the MSE gradient without its
    factor 2/b, which the step's rate takes (see ``nnet``). Under concat
    ``inp`` holds the side rows in its first ``width`` columns and ``side``
    is None; otherwise ``width`` is 0. Returns the buffer of the residual's
    gradient with respect to the side (centrally processed) rows, None
    without them. The arrays may carry a leading stack axis (see
    ``nnet``)."""
    out, trace = nnet._forward_ops(layers, inp, ops, pool)
    lgrad = nnet._buffer(pool, ("loss",), out.shape)
    if side is not None:
        ops.append((np.add, (side, out, lgrad)))
        out = lgrad
    ops.append((np.subtract, (out, y, lgrad)))
    input_grad = nnet._backward_ops(layers, grads, trace, lgrad, ops, pool, width > 0)
    if width:
        return input_grad[..., :width]
    return None if side is None else lgrad


def _group_phase(
    config: FederationConfig, wbar: nnet.DenseNet, g_count: int, group: SizeGroup, fields: tuple
) -> _TrainGroup:
    """Build the local phase of one size-group shape, G clients of n rows
    each, once per run, and return its round function: local SGD of G
    clients of the train split's size group ``group`` as one stack, on their
    rows of its input, side and label stacks ``fields`` (wbar's inputs from
    :func:`_wbar_inputs`, and ``group.y``), shuffled by their streams, which
    returns the ``(G, P)`` buffer of trained parameter vectors and the
    ``(G, n, u0_dim)`` vertical gradients, both run-long. The shape is
    checked once, here: the public ``nnet`` functions step ``wbar`` on the
    first batch of rows of the stacks and their results are dropped; a step
    that is not finite is left to the phase guard. Each batch's list
    (:func:`_step_ops`) is emitted here and ends by writing its side
    gradients times 2/n into its slice of an epoch buffer in shuffled order;
    the batch steps at the epoch's rate times its 2/b. The shuffled input
    stack takes the input's ones with its rows. A round's epochs share one
    order, so the epoch buffers are added up in it and the sum is put in
    shard order once per round."""
    n, width = group.y.shape[1], fields[0].shape[-1] - 1 - group.x_local.shape[-1]
    data = np.empty((g_count, wbar.params.size))
    grad, scaled = np.empty_like(data), np.empty_like(data)
    layers, grads = wbar.kernel_layers(data), wbar.views(grad)
    shuffled = [None if f is None else np.empty((g_count, n, f.shape[-1])) for f in fields]
    u0_dim = width or (0 if fields[1] is None else fields[1].shape[-1])
    epoch_rows, total, vgrads = (np.empty((g_count, n, u0_dim)) if u0_dim else None for _ in range(3))
    clients = np.arange(g_count)[:, None]
    # the lists share one pool, as a list runs whole before the next one
    # starts; each is kept with its batch's 2/b
    steps: list[tuple[nnet.Ops, float]] = []
    pool: dict = {}
    for start in range(0, n, config.batch_size):
        stop = min(start + config.batch_size, n)
        ops: nnet.Ops = []
        batch = [None if f is None else f[:, start:stop] for f in shuffled]
        side_grad = _step_ops(layers, grads, *batch, width, ops, pool)
        if side_grad is not None:
            # 2/n, the factor from the residual's gradient to client-mean
            # loss units, as a 0-d array like nnet._ONE
            ops.append((np.multiply, (side_grad, np.array(2.0 / n), epoch_rows[:, start:stop])))
        steps.append((ops, 2.0 / (stop - start)))
    scales = {scale for _, scale in steps}
    # the shape's check, after the buffers: run before them, its temporaries
    # raised vhfl_dense's peak RSS by about 1%. Emitting computes nothing, so
    # no shape error comes before the check's
    first = [None if f is None else f[:g_count, : config.batch_size] for f in fields]
    with contextlib.suppress(nnet.NonFiniteError):
        out, trace = nnet.forward(wbar, first[0][..., :-1])
        _, lgrad = nnet.mse_loss(out if first[1] is None else first[1] + out, first[2])
        nnet.backward(wbar, trace, lgrad, width > 0)

    def train(
        fields: tuple,
        rows: np.ndarray,
        rngs: Sequence[np.random.Generator],
        wbar: nnet.DenseNet,
        t_g: int,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        data[...] = wbar.params
        order = np.hstack([index for index, _ in batches(rngs, fields, config.batch_size, shuffled, rows)])
        for epoch, eta_t in enumerate(config.local_etas(t_g)):
            # each batch's rate eta_t * 2/b as a 0-d array, as nnet._ONE
            rates = {scale: np.array(eta_t * scale) for scale in scales}
            for ops, scale in steps:
                nnet._run(ops)
                nnet._sgd(data, grad, rates[scale], scaled)
            # every epoch visits each sample once, in the round's one order, so
            # a sample's rows add up in the order of the epochs, as they would
            # in shard order
            if epoch_rows is not None and epoch == 0:
                np.copyto(total, epoch_rows)
            elif epoch_rows is not None:
                np.add(total, epoch_rows, out=total)
        if vgrads is not None:
            vgrads[clients, order] = total
            np.divide(vgrads, config.local_epochs, out=vgrads)
        return data, vgrads

    return train


def client_update(
    config: FederationConfig,
    train: Split,
    cohort: Sequence[int],
    wbar: nnet.DenseNet,
    inputs: Sequence[tuple[np.ndarray, np.ndarray | None]],
    rngs: Sequence[np.random.Generator],
    t_g: int,
    phase: dict[tuple[int, ...], _TrainGroup] | None = None,
) -> list[Upload]:
    """Local training of a round's cohort, client ids of the ``train``
    split, from the downloaded federal weights.

    Each client initializes at ``wbar``, splits its samples (with its fixed
    centrally processed rows, one per sample) into batches once, shuffled by
    its stream ``rngs[i]`` (seed, "batches", client_id, t_g), then runs
    ``local_epochs`` passes of mini-batch SGD at the learning rates of round
    ``t_g``. ``inputs`` holds wbar's input and side stacks per size group of
    ``train``, as :func:`center_broadcast` sends them (:func:`_wbar_inputs`).
    For every sample the gradient of the client loss with respect to its
    central row is recorded each epoch and averaged over epochs; the result,
    an ``(n_j, u0_dim)`` array in shard order (None without u0), is uploaded
    alongside the updated parameter vector. The cohort's clients of each
    size group train as one stack, in the round function that ``phase``
    holds for its shape ``(G, n)``: a run keeps one local phase, and this
    builds a shape's round function (:func:`_group_phase`) the first time
    the shape trains, in a fresh phase when ``phase`` is None. The cohort
    names distinct clients of ``train``, one stream each. Each upload
    holds views of its client's rows of the shape's buffers, which it
    rewrites when the shape trains again.
    The uploads come in cohort order; the guard scans each group's stacks
    once and names the first client, in cohort order, whose results are not
    finite.
    """
    ids = set(cohort)
    if not ids <= train._slots.keys():
        raise ValueError(f"cohort ids {sorted(ids - train._slots.keys())} are not in the train split")
    if len(ids) != len(cohort):
        repeated = sorted({c for c in cohort if cohort.count(c) > 1})
        raise ValueError(f"cohort names ids {repeated} more than once")
    if len(rngs) != len(cohort):
        raise ValueError(f"{len(cohort)} cohort clients need as many batch streams, got {len(rngs)}")
    slots = [train._slots[client_id] for client_id in cohort]
    sizes = train.n[[pos for pos, _, _ in slots]]
    if not sizes.all():
        raise ValueError(f"client {cohort[int(np.argmin(sizes))]} has no samples")
    # the phase reads its rows of these stacks through a clipped index
    shapes = [(inp.shape, None if side is None else side.shape) for inp, side in inputs]
    labels = [group.y.shape for group in train.groups]
    if len(shapes) != len(labels) or any(i[:2] != y[:2] or s not in (None, y) for (i, s), y in zip(shapes, labels)):
        raise ValueError(f"input stacks have shapes {shapes}, the train split's labels {labels}")
    phase = {} if phase is None else phase
    uploads: list[Upload] = [None] * len(cohort)
    finite = np.empty(len(cohort), dtype=bool)
    # the size groups in the order of their first client in the cohort
    for g in dict.fromkeys(g for _, g, _ in slots):
        positions = [k for k, (_, h, _) in enumerate(slots) if h == g]
        group, fields = train.groups[g], (*inputs[g], train.groups[g].y)
        shape = (len(positions), group.y.shape[1])
        if shape not in phase:
            phase[shape] = _group_phase(config, wbar, len(positions), group, fields)
        rows = np.array([slots[k][2] for k in positions])
        data, vgrads = phase[shape](fields, rows, [rngs[k] for k in positions], wbar, t_g)
        finite[positions] = np.isfinite(data).all(axis=1)
        if vgrads is not None:
            finite[positions] &= np.isfinite(vgrads).all(axis=(1, 2))
        for j, k in enumerate(positions):
            uploads[k] = Upload(train.shards[slots[k][0]], data[j], None if vgrads is None else vgrads[j])
    if not finite.all():
        raise _diverged("client_update", t_g, (cohort[int(np.argmin(finite))],))
    return uploads


def aggregate_weights(
    config: FederationConfig, wbar: nnet.DenseNet, uploads: Sequence[Upload], t_g: int
) -> nnet.DenseNet:
    """Weighted sum of the received parameter vectors, a net of ``wbar``'s layers.

    The vectors times their coefficients fill a ``(k, P)`` buffer; a
    reduction over the leading axis of rows of two or more parameters starts
    from +0.0 and adds the rows one by one, so each parameter sees the adds
    of a loop from +0.0 in upload order, as a per-layer loop would give it.

    ``renormalized`` rescales the received coefficients to sum to 1 (a
    convex combination even when uploads were lost); ``paper_unbiased``
    uses (n_clients / k_received) * q_j over the k_received delivered
    uploads, the unbiased estimator, which is (n_clients / K) * q_j when
    every upload arrives and does not shrink wbar when some are lost.
    """
    if not uploads:
        raise ValueError("cannot aggregate an empty upload set")
    if any(u.params.shape != wbar.params.shape for u in uploads):
        raise ValueError("uploaded nets have mismatched shapes")
    if config.aggregator == "renormalized":
        total = sum(u.shard.q for u in uploads)
        coeffs = [u.shard.q / total for u in uploads]
    else:
        coeffs = [(config.n_clients / len(uploads)) * u.shard.q for u in uploads]
    terms = np.empty((len(uploads), wbar.params.size))
    np.multiply(np.array(coeffs)[:, None], [u.params for u in uploads], out=terms)
    with _guard("aggregate_weights", t_g, [u.shard.client_id for u in uploads]):
        return nnet.DenseNet(wbar.layers, np.add.reduce(terms, axis=0))


# The central step's round function: (w0, the delivered uploads, t_g) -> the stepped w0
_StepCenter = Callable[[nnet.DenseNet, Sequence[Upload], int], nnet.DenseNet]


def _central_phase(
    config: FederationConfig, w0: nnet.DenseNet, shards: Sequence[ClientShard], store: GlobalStore, most: int
) -> _StepCenter:
    """Build the central step over ``shards``, of distinct ids, once per run
    and return its round function for up to ``most`` uploads a round: w0's
    step through ``nnet.sgd_step`` on their vertical gradients in ascending
    id order, the order in which w0's backward pass sums the rows. The ids
    are sorted and the global rows read here, with buffers for the rows of
    the ``most`` largest shards; each delivered row count's list is emitted
    when it first runs, over row slices of those buffers and of the largest
    count's pool."""
    ids = np.concatenate([shard.ids for shard in shards])
    order = np.argsort(ids, kind="stable")
    repeated = ids[order][1:][np.diff(ids[order]) == 0]
    if repeated.size:
        raise ValueError(f"duplicate vertical-gradient row for id {int(repeated[0])}")
    slots = {shard.client_id: pos for pos, shard in enumerate(shards)}
    starts = np.cumsum([0, *(shard.n for shard in shards)])
    owner = np.repeat(np.arange(len(shards)), np.diff(starts))[order]
    x0_all, vg_all = nnet.with_ones(store.rows(ids)), np.empty((len(ids), w0.layers[-1].out_dim))
    capacity = sum(sorted((shard.n for shard in shards), reverse=True)[:most])
    x0, vg = np.empty((capacity, x0_all.shape[1])), np.empty((capacity, vg_all.shape[1]))
    data, grad = np.empty(w0.params.size), np.empty(w0.params.size)
    layers, grads = w0.kernel_layers(data), w0.views(grad)

    def emit(count: int, pool: dict) -> nnet.Ops:
        ops: nnet.Ops = []
        _, trace = nnet._forward_ops(layers, x0[:count], ops, pool)
        nnet._backward_ops(layers, grads, trace, vg[:count], ops, pool, False)
        return ops

    pool: dict = {}
    steps = {capacity: emit(capacity, pool)}

    def step(w0: nnet.DenseNet, uploads: Sequence[Upload], t_g: int) -> nnet.DenseNet:
        at = [slots[u.shard.client_id] for u in uploads]
        live = np.zeros(len(shards), dtype=bool)
        live[at] = True
        rows = order[live[owner]]
        for u, pos in zip(uploads, at):
            vg_all[starts[pos] : starts[pos + 1]] = u.vgrads
        count = len(rows)
        np.take(x0_all, rows, 0, x0[:count], "clip")
        np.take(vg_all, rows, 0, vg[:count], "clip")
        if count not in steps:
            # every buffer a row slice of the largest count's
            steps[count] = emit(count, {(r, (count, *shape[1:])): buf[:count] for (r, shape), buf in pool.items()})
        data[...] = w0.params
        nnet._run(steps[count])
        with _guard("central_update", t_g, [u.shard.client_id for u in uploads]):
            return nnet.sgd_step(w0, grad, config.eta0.value(t_g))

    return step


def central_update(
    config: FederationConfig,
    w0: nnet.DenseNet,
    uploads: Sequence[Upload],
    global_store: GlobalStore,
    t_g: int,
    phase: _StepCenter | None = None,
) -> nnet.DenseNet:
    """One SGD step on the global model from the returned vertical gradients.

    Each delivered upload carries its shard and the ``(n_j, u0_dim)``
    gradient rows in shard order. The rows of all clients are ordered by
    sample id and back-propagated through w0 as the output gradient, which
    sums the chain rule over every received sample. A run passes its one
    central step (:func:`_central_phase`) as ``phase``; without one, this
    checks the uploads, where they enter the center, and builds a step over
    their shards and the global rows of ``global_store``.
    """
    if uploads and phase is None:
        for u in uploads:
            if u.vgrads.shape != (u.shard.n, w0.layers[-1].out_dim):
                raise ValueError(
                    f"vertical gradients of client {u.shard.client_id} have shape {u.vgrads.shape}, "
                    f"expected {(u.shard.n, w0.layers[-1].out_dim)}"
                )
        phase = _central_phase(config, w0, [u.shard for u in uploads], global_store, len(uploads))
    return phase(w0, uploads, t_g) if uploads else w0


def _residuals(config: FederationConfig, center: CenterState, split: Split) -> Iterator[tuple[SizeGroup, np.ndarray]]:
    """Each size group of the split and its ``y_hat - y`` stack, from the
    unchecked forward passes in the group's pools on wbar's inputs
    (:func:`_wbar_inputs`)."""
    for group, (inp, side), (_, pool) in zip(split.groups, _wbar_inputs(config, center, split), split._pools):
        pred = nnet._output(center.wbar, inp, pool)
        yield group, (pred if side is None else side + pred) - group.y


def evaluate(config: FederationConfig, center: CenterState, split: Split) -> tuple[float, float]:
    """Pooled (mse, error_ratio) of the center's predictor over the split's
    shards; the per-shard sums are added up in shard order."""
    count = int(split.n.sum())
    if count == 0:
        raise ValueError("no samples to evaluate")
    sq = np.empty(len(split.shards))
    ratios = np.empty(len(split.shards))
    for group, diff in _residuals(config, center, split):
        sq[group.positions] = np.sum(diff * diff, axis=(1, 2))
        scales = np.maximum(np.linalg.norm(group.y, axis=2), 1e-8)
        ratios[group.positions] = np.sum(np.linalg.norm(diff, axis=2) / scales, axis=1)
    # added one by one in shard order, as a loop adds; np.sum adds pairwise
    return float(np.add.accumulate(sq)[-1]) / count, float(np.add.accumulate(ratios)[-1]) / count


def weighted_train_loss(config: FederationConfig, center: CenterState, split: Split) -> float:
    """Global objective: q-weighted sum of per-client mean losses, in shard
    order. Its inputs of wbar are the ones the next round's broadcast sends."""
    sq = np.empty(len(split.shards))
    for group, diff in _residuals(config, center, split):
        sq[group.positions] = np.sum(diff * diff, axis=(1, 2))
    return float(np.add.accumulate(split.q * sq / split.n)[-1])


def _new_center(config: FederationConfig, dataset: FederationDataset, use_global: bool) -> CenterState:
    """The initial nets, drawn from the config seed: w0 (built first) only with
    ``use_global``, and a wbar that also takes w0's output under concat."""

    def net(dims: list[int], name: str) -> nnet.DenseNet:
        acts = [config.activation] * (len(dims) - 2) + ["identity"]
        return nnet.random_net(dims, acts, substream(config.seed, "init", name))

    w0 = net([dataset.d_global, *config.w0_hidden, config.u0_dim], "w0") if use_global else None
    local_in = dataset.d_local + (config.u0_dim if use_global and config.combine == "concat" else 0)
    wbar = net([local_in, *config.local_hidden, dataset.d_label], "wbar")
    return CenterState(w0=w0, wbar=wbar)


def _federated_round(
    config: FederationConfig,
    center: CenterState,
    train: Split,
    store: GlobalStore,
    plan: RunPlan,
    phase: dict[tuple[int, ...], _TrainGroup],
    central: _StepCenter | None,
    t_g: int,
) -> int:
    """The planned cohort's broadcast (with w0), local updates in the run's
    local ``phase`` (see :func:`client_update`), the uploads the plan
    delivers, aggregation and the run's ``central`` step (with w0); returns
    the number of delivered uploads."""
    cohort = plan.cohorts[t_g]
    inputs = _wbar_inputs(config, center, train) if center.w0 is None else center_broadcast(config, center, train)
    uploads = client_update(config, train, cohort, center.wbar, inputs, plan.streams(t_g), t_g, phase)
    # the uploads come in cohort order, the order of the planned deliveries
    uploads = list(itertools.compress(uploads, plan.delivered[t_g]))
    if uploads:
        center.wbar = aggregate_weights(config, center.wbar, uploads, t_g)
        if center.w0 is not None:
            center.w0 = central_update(config, center.w0, uploads, store, t_g, central)
    return len(uploads)


def _cloud_phase(
    config: FederationConfig,
    center: CenterState,
    pooled: SizeGroup,
    plan: RunPlan,
) -> Callable[[int], int]:
    """Build the pooled phase once per run and return its round function:
    ``local_epochs`` passes of mini-batch SGD on the pooled shard's one-shard
    stacks ``pooled``, through w0 too when the center has it.

    The shard is fixed, so every round cuts batches of the same sizes. This
    allocates the parameter, gradient and scaled-gradient buffers, the
    local and global rows with their ones columns, one run-long stack per
    field, whose row slices are each batch's input, label and global rows,
    and both nets' pools, and emits each batch's step once as a list over
    them: w0's forward pass, which under concat writes u0 into the input's
    first columns, wbar's step on its u0 (:func:`_step_ops`) and w0's
    backward pass from the returned side gradient.

    A round copies the center's vectors in, draws the pooled order from its
    stream (``datagen.permutations``) and takes each field's rows once, in
    that order and with their ones, into its stack with ``np.take``, then
    replays the lists every local epoch, each followed by an SGD update of
    both nets at the epoch's rate times the batch's 2/b. It
    hands the center nets built from copies of the buffer's slices, so no
    round rewrites a net an earlier round handed out. Nothing is uploaded: a
    round returns 0."""
    split = center.wbar.params.size
    data = np.empty(split + (0 if center.w0 is None else center.w0.params.size))
    grad, scaled = np.empty_like(data), np.empty_like(data)
    wbar, wbar_grads = center.wbar.kernel_layers(data[:split]), center.wbar.views(grad[:split])
    if center.w0 is not None:
        w0, w0_grads = center.w0.kernel_layers(data[split:]), center.w0.views(grad[split:])
    width = config.u0_dim if center.w0 is not None and config.combine == "concat" else 0
    # the 2-d views [0]: on these shapes a stacked matmul or tanh costs more
    # per call than a 2-d one, and a 2-d product goes through np.dot but for
    # w0's on the strided side gradient and, under concat, its last one, into
    # the input's first columns (nnet._product); np.dot writes np.matmul's
    # bits under every OpenBLAS kernel tests/test_nnet.py forces
    x_local, x_global, y = (None if f is None else f[0] for f in (pooled.x_local, pooled.x_global, pooled.y))
    fields = [nnet.with_ones(x_local), None if x_global is None else nnet.with_ones(x_global), y]
    n = len(y)
    # under concat u0 fills the input's first columns, the local rows and
    # their ones the rest; a batch's rows are C-contiguous row slices of these
    inputs = np.empty((n, width + fields[0].shape[1]))
    x0s, ys = (None if f is None else np.empty(f.shape) for f in fields[1:])
    stacks = [inputs[:, width:], x0s, ys]
    # each net's buffers, shared by the batches of one size: a list runs whole
    # before the next one starts
    pool, pool0 = {}, {}
    batch_ops: list[tuple[nnet.Ops, float]] = []
    for start in range(0, n, config.batch_size):
        cut = slice(start, start + config.batch_size)
        inp = inputs[cut]
        ops: nnet.Ops = []
        u0 = None
        if center.w0 is not None:
            u0, trace0 = nnet._forward_ops(w0, x0s[cut], ops, pool0, inp[:, :width] if width else None)
        side_grad = _step_ops(wbar, wbar_grads, inp, None if width else u0, ys[cut], width, ops, pool)
        if center.w0 is not None:
            nnet._backward_ops(w0, w0_grads, trace0, side_grad, ops, pool0, False)
        batch_ops.append((ops, 2.0 / len(inp)))
    scales = {scale for _, scale in batch_ops}

    def train_round(t_g: int) -> int:
        np.concatenate([net.params for net in (center.wbar, center.w0) if net is not None], out=data)
        order = permutations(plan.streams(t_g), n)[0]
        for field, stack in zip(fields, stacks):
            if stack is not None:
                np.take(field, order, 0, stack, "clip")
        for eta_t in config.local_etas(t_g):
            # each batch's rate eta_t * 2/b as a 0-d array, as nnet._ONE
            rates = {scale: np.array(eta_t * scale) for scale in scales}
            for ops, scale in batch_ops:
                nnet._run(ops)
                nnet._sgd(data, grad, rates[scale], scaled)
        with _guard("run_cloud", t_g):
            # both nets are built before either is assigned
            wbar_net = nnet.DenseNet(center.wbar.layers, data[:split].copy())
            w0_net = None if center.w0 is None else nnet.DenseNet(center.w0.layers, data[split:].copy())
        center.wbar, center.w0 = wbar_net, w0_net
        return 0

    return train_round


def _run(
    config: FederationConfig,
    dataset: FederationDataset,
    center: CenterState,
    pooled: bool,
) -> tuple[CenterState, list[TraceRow]]:
    """The round loop of every mode: one training phase per global epoch, then
    evaluation and a trace row. The cloud modes train on the ``pooled`` shard,
    the others run federated rounds."""
    if dataset.n_clients != config.n_clients:
        raise ValueError(
            f"config expects {config.n_clients} clients, dataset has {dataset.n_clients}"
        )
    outside = sorted(shard.client_id for shard in dataset.clients if not 0 <= shard.client_id < config.n_clients)
    if outside and not pooled:
        # a federated round selects its cohort from range(n_clients)
        raise ValueError(f"federated training needs client ids 0..{config.n_clients - 1}, the dataset has {outside}")
    if center.w0 is not None and config.combine == "additive" and config.u0_dim != dataset.d_label:
        raise ValueError(
            f"additive combining needs u0_dim == d_label, got {config.u0_dim} != {dataset.d_label}"
        )
    store = dataset.global_store
    # the shards are fixed: their global rows are gathered and stacked once per run
    eval_store = None if center.w0 is None else store
    train_split = build_split(dataset.clients, eval_store)
    test_split = build_split(dataset.test_clients, eval_store)
    plan = plan_run(config, pooled)
    if pooled:
        (pooled,) = build_split([_pooled(dataset)], eval_store).groups
        train_round = _cloud_phase(config, center, pooled, plan)
    else:
        # the local phase, filled as size-group shapes first train, and the central step
        central = None if center.w0 is None else _central_phase(config, center.w0, dataset.clients, store, config.k)
        train_round = functools.partial(_federated_round, config, center, train_split, store, plan, {}, central)
    trace: list[TraceRow] = []
    for t_g in range(config.global_epochs):
        # a diverging phase ends in its guard, not in numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            k_received = train_round(t_g)
            train = weighted_train_loss(config, center, train_split)
            test_mse, err = evaluate(config, center, test_split)
        if not (np.isfinite(train) and np.isfinite(test_mse)):
            raise _diverged("evaluate", t_g)
        trace.append(TraceRow(t_g, train, test_mse, err, k_received))
    return center, trace


def _pooled(dataset: FederationDataset) -> ClientShard:
    ids = np.concatenate([shard.ids for shard in dataset.clients])
    x = np.vstack([shard.x_local for shard in dataset.clients])
    y = np.vstack([shard.y for shard in dataset.clients])
    return ClientShard(client_id=0, ids=ids, x_local=x, y=y, q=1.0)


def run_vhfl(config: FederationConfig, dataset: FederationDataset) -> tuple[CenterState, list[TraceRow]]:
    """Train with vertical gradient exchange for ``global_epochs`` rounds."""
    return _run(config, dataset, _new_center(config, dataset, use_global=True), pooled=False)


def run_hfl(config: FederationConfig, dataset: FederationDataset) -> tuple[CenterState, list[TraceRow]]:
    """FedAvg baseline: the vertical-horizontal round without a global model."""
    return _run(config, dataset, _new_center(config, dataset, use_global=False), pooled=False)


def run_cloud(
    config: FederationConfig,
    dataset: FederationDataset,
    use_global: bool,
) -> tuple[CenterState, list[TraceRow]]:
    """Centralized SGD on the pooled training split.

    With ``use_global`` the composed model (global net feeding the local
    net) is trained end-to-end; otherwise only local features are used.
    """
    return _run(config, dataset, _new_center(config, dataset, use_global), pooled=True)
