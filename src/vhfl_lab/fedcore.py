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

Each round gathers its cohort once from the run's train split
(``Split.gather``): the selected shards grouped by size, each group of G
clients with n rows apiece as ``(G, n, d)`` stacks, taken with one fancy
index per field from the train split's group of that size, with their
global rows when the center has w0. The broadcast sends u0 as one
``(G, n, u0_dim)`` stack per group, from one forward pass of w0. The local
phase trains each group as one stack: the rows of one ``(G, P)`` buffer,
each filled with ``wbar.params``. Every step runs on ``(G, b, in)``
batches, writes the gradients into the group's ``(G, P)`` gradient buffer,
and updates the stack with one in-place SGD step. Every step but the first
runs its batch's op list, which :func:`_step_ops` emits the first time the
list runs and later local epochs replay, so a batch that runs once is
never emitted. Equal sizes give every client the same batch sizes, so the
stack needs no padding or mask, and a group of one is a client trained
alone.
``datagen.batches`` cuts every phase's batches: each client's sample order
is the permutation of the substream (seed, "batches", client_id, t_g), and
each batch gathers every field once from the stacks. :func:`plan_run`
writes the keys of every round's streams and seeds them before round 0;
behind a finite deadline it also takes the channel's ``(T, K)`` delivery
mask there: a delay does not depend on training, so a round keeps the
uploads its row of the mask delivers. One step per group validates: the
group's first step, which every client takes from ``wbar``, runs through
the public ``nnet`` API on the whole ``(G, b, ·)`` stack, with ``wbar``'s
weights broadcast over it. It checks the shapes that every step of the
group reuses, as all its clients share n and the batch sizes.
The stacked kernels issue one BLAS call and one reduction per client
slice, with the slice's own shape, so a client gets the bits it would get
alone, whether its weights are its row of the buffer or ``wbar``'s own.
Pooling the rows of different clients into one matrix would not: a BLAS
kernel rounds the tail rows of an ``(M, 16) @ (16, 1)`` product
differently as M changes. An upload's ``params`` is its client's row.

Aggregation adds each upload's ``coeff * params`` into one ``(P,)``
accumulator, in upload order; the central step is a single step and runs
through the public API, where the uploads enter the center, stepping w0
with its ``(P,)`` gradient vector. The shards are fixed, so ``_run``
gathers their global rows, when the center has w0, and stacks the train
and test splits once per run; each evaluation then runs one stacked
forward pass per group and sums each shard over its own slice, adding the
shards up in their original order.

The pooled phase cuts its batches from the pooled shard's one-shard
stacks and steps on their 2-d views, unchecked, as it trains nets it
built itself from the config. Each round it concatenates ``wbar.params``
and, when the center has it, ``w0.params`` into one fresh buffer, since
both step at the same rate. It then emits each batch's step once, as a
list of numpy operations over buffers the round allocates once (see
``nnet``): w0's forward pass, whose u0 fills the first columns of the
batch's input buffer under concat (its local columns are copied in once);
wbar's step from :func:`_step_ops`, which the local phase uses too and
which adds u0 to wbar's output under additive; and w0's backward pass from
the side gradient it returns. Every local epoch replays the lists in batch
order, and after each list one SGD update steps both nets' slices of the
buffer at the epoch's rate. The round's nets are built from the buffer's
two slices, and the next round concatenates a new one, so no round
rewrites a net an earlier round handed to the center.

Each phase checks its results once, when it ends, with one ``isfinite``
pass over its vectors. The local phase scans each size group's buffer and
its vertical gradients, and names the first diverged client in cohort
order; a group whose public first step meets non-finite values takes that
step on its batch's op list, unchecked, so its clients are named the same
way. The other phases
build a net, whose finite check is the guard: ``_guard`` turns the build's
``nnet.NonFiniteError`` into an error naming the phase, the global epoch
and the clients (the pooled phase trains no client and names none). A
value that turns inf or nan stays non-finite under later steps, so this
catches what per-step checks would. Evaluation is guarded on its losses,
so the loop runs with numpy's overflow and invalid-value warnings off.
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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import nnet
from .datagen import ClientShard, FederationDataset, GlobalStore, batches
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
        object.__setattr__(self, "w0_hidden", tuple(int(h) for h in self.w0_hidden))
        object.__setattr__(self, "local_hidden", tuple(int(h) for h in self.local_hidden))

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
    gathered from the train split's stacks (:meth:`gather`)."""

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

    def gather(self, client_ids: Sequence[int]) -> Split:
        """The split of the shards of ``client_ids``, in that order, bit for bit
        :func:`build_split` of those shards and the store this split was built
        from: each size group takes its rows from this split's group of its
        size, with one fancy index per field. The client ids must be distinct
        here, as they are in a dataset's training shards."""
        slots = [self._slots[client_id] for client_id in client_ids]
        at = [pos for pos, _, _ in slots]
        shards = [self.shards[pos] for pos in at]
        groups = []
        for positions in _size_groups(shards):
            source = self.groups[slots[positions[0]][1]]
            rows = [slots[pos][2] for pos in positions]
            x_global = None if source.x_global is None else source.x_global[rows]
            groups.append(SizeGroup(positions, x_global, source.x_local[rows], source.y[rows]))
        return Split(shards=tuple(shards), groups=tuple(groups), q=self.q[at], n=self.n[at])


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


# the most uploads one apply_channel call draws delays for, in whole rounds:
# a call holds the generators of all its uploads at once
_CHANNEL_BLOCK = 128


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
    delivery of every upload, decided before round 0."""
    rounds = range(config.global_epochs)
    if pooled:
        cohorts = ((0,),) * len(rounds)
    else:
        select = generators(seed_states([(config.seed, "select", t_g) for t_g in rounds]))
        cohorts = tuple(select_clients(config, rng) for rng in select)
    uploads = [(t_g, client_id) for t_g, cohort in enumerate(cohorts) for client_id in cohort]
    batch_states = seed_states([(config.seed, "batches", c, t_g) for t_g, c in uploads]).reshape(len(cohorts), -1, 4)
    channel = None if pooled else config.deadline_channel
    if channel is None or not np.isfinite(channel.t_p):
        return RunPlan(cohorts, batch_states, np.ones(batch_states.shape[:2], dtype=bool))
    delay_states = seed_states([(channel.seed, "channel", t_g, c) for t_g, c in uploads])
    return RunPlan(cohorts, batch_states, _plan_channel(channel, delay_states.reshape(batch_states.shape)))


def _plan_channel(channel: ChannelModel, states: np.ndarray) -> np.ndarray:
    """The ``(T, K)`` delivery mask of a run's uploads, from the ``(T, K, 4)``
    seed words of their delay streams: :func:`apply_channel`'s masks over
    blocks of whole rounds of at most ``_CHANNEL_BLOCK`` uploads (or one
    round), concatenated."""
    rounds, k = states.shape[:2]
    step = max(1, _CHANNEL_BLOCK // k)
    masks = [apply_channel(channel, generators(states[t : t + step].reshape(-1, 4))) for t in range(0, rounds, step)]
    return np.concatenate(masks).reshape(rounds, k)


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
    ``store``; it is None for a center without w0, and the split holds none."""
    groups = []
    for positions in _size_groups(shards):
        members = [shards[pos] for pos in positions]
        groups.append(
            SizeGroup(
                positions=positions,
                x_global=None if store is None else np.stack([store.rows(s.ids) for s in members]),
                x_local=np.stack([shard.x_local for shard in members]),
                y=np.stack([shard.y for shard in members]),
            )
        )
    q, n = np.array([s.q for s in shards], dtype=np.float64), np.array([s.n for s in shards], dtype=np.int64)
    return Split(shards=tuple(shards), groups=tuple(groups), q=q, n=n)


def center_broadcast(center: CenterState, cohort: Split) -> list[np.ndarray]:
    """Per size group of the cohort, the centrally processed rows u0 = w0(x0)
    as one ``(G, n, u0_dim)`` stack, from one stacked forward pass; the
    cohort holds its global rows, and the center must hold w0."""
    return [nnet._output(center.w0, group.x_global) for group in cohort.groups]


def _step_ops(
    layers: Sequence[nnet.Layer],
    grads: nnet.Grads,
    inp: np.ndarray,
    side: np.ndarray | None,
    y: np.ndarray,
    concat: bool,
    ops: nnet.Ops,
    pool: dict,
) -> np.ndarray | None:
    """Append one step of the local model on the input rows ``inp`` to
    ``ops``: its forward pass, ``+ side`` under additive, the MSE gradient
    (2/b)(out - y) and its backward pass, which writes the gradients into
    ``grads``. Under concat ``inp`` holds the side rows in its first
    columns. Returns the buffer of the gradient of the batch-mean loss with
    respect to the side (centrally processed) rows, None without them. The
    arrays may carry a leading stack axis (see ``nnet``)."""
    out, trace = nnet._forward_ops(layers, inp, ops, pool)
    lgrad = nnet._buffer(pool, ("loss",), out.shape)
    if side is not None and not concat:
        ops.append((np.add, (side, out, lgrad)))
        out = lgrad
    # (2/b)(out - y), as nnet.mse_loss; the factor as a 0-d array, as nnet._ONE
    ops += ((np.subtract, (out, y, lgrad)), (np.multiply, (np.array(2.0 / y.shape[-2]), lgrad, lgrad)))
    input_grad = nnet._backward_ops(layers, grads, trace, lgrad, ops, pool, concat)
    if concat:
        return input_grad[..., : side.shape[-1]]
    return None if side is None else lgrad


def _first_step(
    wbar: nnet.DenseNet,
    grad: np.ndarray,
    batch_x: np.ndarray,
    batch_side: np.ndarray | None,
    batch_y: np.ndarray,
    concat: bool,
) -> np.ndarray | None:
    """A size group's first step from ``wbar`` through the validating public
    ``nnet`` API, on the whole stack and with ``wbar``'s weights, which checks
    the shapes every step of the group reuses, writing the gradient vectors
    into ``grad``. Returns the ``(G, b, u0_dim)`` side-row gradients; raises
    ``nnet.NonFiniteError`` if the step is not finite, before writing
    ``grad``."""
    out, trace = nnet.forward(wbar, np.concatenate([batch_side, batch_x], axis=-1) if concat else batch_x)
    _, lgrad = nnet.mse_loss(out if batch_side is None or concat else batch_side + out, batch_y)
    grad[...], input_grad = nnet.backward(wbar, trace, lgrad, concat)
    if concat:
        return input_grad[..., : batch_side.shape[-1]]
    return None if batch_side is None else lgrad


def _train_group(
    config: FederationConfig,
    group: SizeGroup,
    rngs: Sequence[np.random.Generator],
    wbar: nnet.DenseNet,
    side: np.ndarray | None,
    t_g: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Local SGD of a size group's G clients as one stack, beside their rows
    ``side`` of u0 (None without w0), shuffled by their streams ``rngs``: the
    ``(G, P)`` buffer of the trained parameter vectors, and the
    ``(G, n, u0_dim)`` vertical gradients. The group's first step is
    :func:`_first_step`, one validating step for the whole group. Every other
    step runs its batch's op list (:func:`_step_ops`) over the stacked layers
    and one pool of buffers: the list is emitted the first time it runs and
    replayed in later local epochs. A stack whose first step is not finite
    takes it on its batch's list instead, so that its results stay non-finite
    and the phase guard names the first diverged client in cohort order."""
    n = group.x_local.shape[1]
    data = np.empty((len(rngs), wbar.params.size))
    data[...] = wbar.params
    grad = np.empty_like(data)
    layers, grads = wbar.kernel_layers(data), wbar.views(grad)
    concat = side is not None and config.combine == "concat"
    vgrad_sum = None if side is None else np.empty(side.shape)
    clients = np.arange(len(rngs))[:, None]
    plan = batches(rngs, (group.x_local, side, group.y), config.batch_size)
    # each batch's (ops, side-gradient buffer); the lists share one pool, as a
    # list runs whole before the next one starts
    steps: dict[int, tuple[nnet.Ops, np.ndarray | None]] = {}
    pool: dict = {}

    def replay(i: int, x: np.ndarray, batch_side: np.ndarray | None, batch_y: np.ndarray) -> np.ndarray | None:
        if i not in steps:
            ops: nnet.Ops = []
            inp = np.concatenate([batch_side, x], axis=-1) if concat else x
            steps[i] = ops, _step_ops(layers, grads, inp, batch_side, batch_y, concat, ops, pool)
        ops, side_grad = steps[i]
        nnet._run(ops)
        return side_grad

    for epoch, eta_t in enumerate(config.local_etas(t_g)):
        for i, (index, (x, batch_side, batch_y)) in enumerate(plan):
            if epoch == 0 and i == 0:
                try:
                    side_grad = _first_step(wbar, grad, x, batch_side, batch_y, concat)
                except nnet.NonFiniteError:
                    side_grad = replay(i, x, batch_side, batch_y)
            else:
                side_grad = replay(i, x, batch_side, batch_y)
            if side_grad is not None:
                # rescale batch-mean rows to client-mean units; each epoch
                # visits every sample once, so epoch 0 writes every row
                rows = side_grad * (index.shape[1] / n)
                if epoch == 0:
                    vgrad_sum[clients, index] = rows
                else:
                    vgrad_sum[clients, index] += rows
            nnet._sgd(data, grad, eta_t)
    return data, None if vgrad_sum is None else vgrad_sum / config.local_epochs


def client_update(
    config: FederationConfig,
    cohort: Split,
    wbar: nnet.DenseNet,
    u0: Sequence[np.ndarray] | None,
    rngs: Sequence[np.random.Generator],
    t_g: int,
) -> list[Upload]:
    """Local training of a round's cohort from the downloaded federal weights.

    Each client initializes at ``wbar``, splits its samples (with its fixed
    centrally processed rows, one per sample) into batches once, shuffled by
    its stream ``rngs[i]`` (seed, "batches", client_id, t_g), then runs
    ``local_epochs`` passes of mini-batch SGD at the learning rates of round
    ``t_g``. ``u0`` holds those rows as :func:`center_broadcast` sends them
    (None without w0), one ``(G, n, u0_dim)`` stack per size group. For every
    sample the gradient of the client loss with respect to its central row
    is recorded each epoch and averaged over epochs; the result, an
    ``(n_j, u0_dim)`` array in shard order (None without ``u0``), is
    uploaded alongside the updated parameter vector. Each size group trains
    as one stack, and each upload holds views of its client's row. The
    uploads come in cohort order; the guard scans each group's stacks once
    and names the first client, in cohort order, whose results are not
    finite.
    """
    shards = cohort.shards
    for shard in shards:
        if shard.n == 0:
            raise ValueError(f"client {shard.client_id} has no samples")
    expected = [(len(group.positions), group.x_local.shape[1], config.u0_dim) for group in cohort.groups]
    if u0 is not None and [rows.shape for rows in u0] != expected:
        raise ValueError(f"u0 stacks have shapes {[rows.shape for rows in u0]}, the cohort needs {expected}")
    uploads: dict[int, Upload] = {}
    finite = np.empty(len(shards), dtype=bool)
    for g, group in enumerate(cohort.groups):
        side = None if u0 is None else u0[g]
        data, vgrads = _train_group(config, group, [rngs[pos] for pos in group.positions], wbar, side, t_g)
        finite[group.positions] = np.isfinite(data).all(axis=1)
        if vgrads is not None:
            finite[group.positions] &= np.isfinite(vgrads).all(axis=(1, 2))
        for k, pos in enumerate(group.positions):
            uploads[pos] = Upload(shards[pos], data[k], None if vgrads is None else vgrads[k])
    if not finite.all():
        raise _diverged("client_update", t_g, (shards[int(np.argmin(finite))].client_id,))
    return [uploads[pos] for pos in range(len(shards))]


def aggregate_weights(
    config: FederationConfig, wbar: nnet.DenseNet, uploads: Sequence[Upload], t_g: int
) -> nnet.DenseNet:
    """Weighted sum of the received parameter vectors, a net of ``wbar``'s layers.

    The coefficient times each upload's vector is added into one ``(P,)``
    accumulator, one upload at a time in upload order; the sum is
    elementwise, so each parameter sees the operations a per-layer sum
    would give it.

    ``renormalized`` rescales the received coefficients to sum to 1 (a
    convex combination even when uploads were lost); ``paper_unbiased``
    uses (n_clients / k_received) * q_j over the k_received delivered
    uploads, the unbiased estimator, which is (n_clients / K) * q_j when
    every upload arrives and does not shrink wbar when some are lost.
    """
    if not uploads:
        raise ValueError("cannot aggregate an empty upload set")
    if config.aggregator == "renormalized":
        total = sum(u.shard.q for u in uploads)
        coeffs = [u.shard.q / total for u in uploads]
    else:
        coeffs = [(config.n_clients / len(uploads)) * u.shard.q for u in uploads]
    total = np.zeros_like(wbar.params)
    for coeff, upload in zip(coeffs, uploads):
        if upload.params.shape != total.shape:
            raise ValueError("uploaded nets have mismatched shapes")
        total += coeff * upload.params
    with _guard("aggregate_weights", t_g, [u.shard.client_id for u in uploads]):
        return nnet.DenseNet(wbar.layers, total)


def central_update(
    config: FederationConfig,
    w0: nnet.DenseNet,
    uploads: Sequence[Upload],
    global_store: GlobalStore,
    t_g: int,
) -> nnet.DenseNet:
    """One SGD step on the global model from the returned vertical gradients.

    Each delivered upload carries its shard and the ``(n_j, u0_dim)``
    gradient rows in shard order. The rows of all clients are
    ordered by sample id and back-propagated through w0 as the output
    gradient, which sums the chain rule over every received sample. The
    step runs through the validating public ``nnet`` API, as the uploads
    enter the center here.
    """
    for u in uploads:
        if u.vgrads.ndim != 2 or u.vgrads.shape[0] != u.shard.n:
            raise ValueError(
                f"vertical gradients of client {u.shard.client_id} have shape {u.vgrads.shape}, "
                f"expected {u.shard.n} rows"
            )
    if not uploads:
        return w0
    ids = np.concatenate([u.shard.ids for u in uploads])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise ValueError(f"duplicate vertical-gradient row for id {int(repeated[0])}")
    rows = np.concatenate([u.vgrads for u in uploads])[order]
    x_global = global_store.rows(ids)
    out, trace = nnet.forward(w0, x_global)
    if rows.shape != out.shape:
        raise ValueError(f"vertical gradients have shape {rows.shape}, expected {out.shape}")
    grad, _ = nnet.backward(w0, trace, rows)
    # backward fixed the shape, so only the stepped net's finite check can fail
    with _guard("central_update", t_g, [u.shard.client_id for u in uploads]):
        return nnet.sgd_step(w0, grad, config.eta0.value(t_g))


def _predict(
    config: FederationConfig,
    center: CenterState,
    x_global: np.ndarray | None,
    x_local: np.ndarray,
) -> np.ndarray:
    """Model output y_hat for validated rows, with the unchecked forward pass;
    ``x_global`` is used iff the center has w0. The rows may carry a leading
    stack axis."""
    if center.w0 is None:
        return nnet._output(center.wbar, x_local)
    u0 = nnet._output(center.w0, x_global)
    if config.combine == "concat":
        return nnet._output(center.wbar, np.concatenate([u0, x_local], axis=-1))
    return u0 + nnet._output(center.wbar, x_local)


def evaluate(config: FederationConfig, center: CenterState, split: Split) -> tuple[float, float]:
    """Pooled (mse, error_ratio) of the center's predictor over the split's
    shards; the per-shard sums are added up in shard order."""
    count = int(split.n.sum())
    if count == 0:
        raise ValueError("no samples to evaluate")
    sq = np.empty(len(split.shards))
    ratios = np.empty(len(split.shards))
    for group in split.groups:
        diff = _predict(config, center, group.x_global, group.x_local) - group.y
        sq[group.positions] = np.sum(diff * diff, axis=(1, 2))
        scales = np.maximum(np.linalg.norm(group.y, axis=2), 1e-8)
        ratios[group.positions] = np.sum(np.linalg.norm(diff, axis=2) / scales, axis=1)
    # added one by one in shard order, as a loop adds; np.sum adds pairwise
    return float(np.add.accumulate(sq)[-1]) / count, float(np.add.accumulate(ratios)[-1]) / count


def weighted_train_loss(config: FederationConfig, center: CenterState, split: Split) -> float:
    """Global objective: q-weighted sum of per-client mean losses, in shard order."""
    sq = np.empty(len(split.shards))
    for group in split.groups:
        diff = _predict(config, center, group.x_global, group.x_local) - group.y
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
    t_g: int,
) -> int:
    """The planned cohort's broadcast (with w0), local updates, the uploads the
    plan delivers, aggregation and the central step (with w0);
    returns the number of delivered uploads."""
    # the cohort is gathered once: the broadcast and the local phase share it
    cohort = train.gather(plan.cohorts[t_g])
    u0 = None if center.w0 is None else center_broadcast(center, cohort)
    uploads = client_update(config, cohort, center.wbar, u0, plan.streams(t_g), t_g)
    # the uploads come in cohort order, the order of the planned deliveries
    uploads = list(itertools.compress(uploads, plan.delivered[t_g]))
    if uploads:
        center.wbar = aggregate_weights(config, center.wbar, uploads, t_g)
        if center.w0 is not None:
            center.w0 = central_update(config, center.w0, uploads, store, t_g)
    return len(uploads)


def _cloud_round(
    config: FederationConfig,
    center: CenterState,
    pooled: SizeGroup,
    plan: RunPlan,
    t_g: int,
) -> int:
    """``local_epochs`` passes of mini-batch SGD on the pooled shard's
    one-shard stacks ``pooled``, through w0 too when it exists, on one buffer
    of both nets' parameter vectors. Each batch's step is emitted once per
    round, over buffers the round allocates once, and replayed every local
    epoch: w0's forward pass (``nnet._forward_ops``), wbar's step on its u0
    (:func:`_step_ops`, which the local phase builds its steps with too) and
    w0's backward pass from the returned side gradient
    (``nnet._backward_ops``). Only the SGD update, at the epoch's rate, runs
    outside the list. Nothing is uploaded: returns 0."""
    # a fresh buffer every round: the nets of the last round hold views of theirs
    data = np.concatenate([net.params for net in (center.wbar, center.w0) if net is not None])
    grad, scaled = np.empty_like(data), np.empty_like(data)
    split, k = center.wbar.params.size, config.u0_dim
    wbar, wbar_grads = center.wbar.kernel_layers(data[:split]), center.wbar.views(grad[:split])
    if center.w0 is not None:
        w0, w0_grads = center.w0.kernel_layers(data[split:]), center.w0.views(grad[split:])
    concat = center.w0 is not None and config.combine == "concat"
    # each net's buffers, shared by the batches of one size: a list runs whole
    # before the next one starts
    pool, pool0 = {}, {}
    batch_ops: list[nnet.Ops] = []
    fields = (pooled.x_local, pooled.x_global, pooled.y)
    for _, batch in batches(plan.streams(t_g), fields, config.batch_size):
        # the 2-d views [0]: on these shapes a stacked matmul or tanh costs
        # more per call than a 2-d one
        x, x0, y = (None if f is None else f[0] for f in batch)
        ops: nnet.Ops = []
        u0 = None
        if center.w0 is not None:
            u0, trace0 = nnet._forward_ops(w0, x0, ops, pool0)
        inp = x
        if concat:
            # the batch's rows are copied in once; every replay writes u0 beside them
            inp = np.concatenate([np.empty((len(x), k)), x], axis=1)
            ops.append((np.copyto, (inp[:, :k], u0)))
        side_grad = _step_ops(wbar, wbar_grads, inp, u0, y, concat, ops, pool)
        if center.w0 is not None:
            nnet._backward_ops(w0, w0_grads, trace0, side_grad, ops, pool0, False)
        batch_ops.append(ops)
    # each rate as a 0-d array, as 2/b in _step_ops and nnet._ONE
    for eta_t in map(np.array, config.local_etas(t_g)):
        for ops in batch_ops:
            nnet._run(ops)
            nnet._sgd(data, grad, eta_t, scaled)
    with _guard("run_cloud", t_g):
        # both nets are built before either is assigned
        wbar_net = nnet.DenseNet(center.wbar.layers, data[:split])
        w0_net = None if center.w0 is None else nnet.DenseNet(center.w0.layers, data[split:])
    center.wbar, center.w0 = wbar_net, w0_net
    return 0


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
        train_round = functools.partial(_cloud_round, config, center, pooled, plan)
    else:
        train_round = functools.partial(_federated_round, config, center, train_split, store, plan)
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
