"""Training engines: vertical-horizontal FL, FedAvg-style HFL, and cloud baselines.

One global epoch of the vertical-horizontal mode runs
select -> broadcast centrally processed features -> parallel local
updates (which also record gradients with respect to the central
features) -> optional lossy-channel filtering -> weight aggregation ->
one central model step -> evaluation. The HFL baseline is the same loop
without the central model; the cloud baselines train on pooled data,
with or without the global features.

All randomness flows through named substreams of (seed, tag, ...), so a
trace is a pure function of (config, dataset): client updates may run in
any order without changing results.

Validate at the edges, run unchecked kernels inside the loop, build nets
once per phase. Data is checked where it enters (``ClientShard``,
``GlobalStore``, config parsing, checkpoint loading). A client update
copies its net's arrays once, runs its first step through the validating
public ``nnet`` API, which checks the shapes every later step reuses, and
its later steps through the unchecked ``nnet`` kernels, which update the
copies in place. A cloud round does the same with every step on the
kernels, as it trains nets it built itself from the config. The central
step is a single step and runs through the public API, where the uploads
enter the center. When a phase ends, a guard raises if any
parameter or vertical gradient is non-finite, naming the phase, global
epoch and client; a value that turns inf or nan stays non-finite under
later steps, so this catches what per-step checks would. Then one
validated net is built. Vertical gradients travel as one ``(n_j,
u0_dim)`` array per client in shard order.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import nnet
from .datagen import ClientShard, FederationDataset, GlobalStore, batches
from .netqueue import ChannelModel, apply_channel
from .rng import substream

MODES = ("vhfl", "hfl", "cloud", "cloud_local")
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
        if self.c < 0.0:
            raise ValueError(f"schedule coefficient must be >= 0, got {self.c}")
        if self.kind == "inverse" and self.t0 <= 0.0:
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
    selection: str = "uniform_without_replacement"
    combine: str = "concat"
    aggregator: str = "renormalized"
    w0_hidden: tuple[int, ...] = (16,)
    u0_dim: int = 4
    local_hidden: tuple[int, ...] = (16,)
    activation: str = "tanh"
    l_est: float = 1.0
    center_frozen: bool = False
    deadline_channel: ChannelModel | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n_clients:
            raise ValueError(f"need 1 <= k <= n_clients, got k={self.k}, n={self.n_clients}")
        if self.local_epochs < 1 or self.global_epochs < 1:
            raise ValueError("local_epochs and global_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.selection != "uniform_without_replacement":
            raise ValueError(f"unknown selection rule {self.selection!r}")
        if self.combine not in COMBINES:
            raise ValueError(f"unknown combine mode {self.combine!r}")
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.activation not in nnet.ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.u0_dim < 1:
            raise ValueError(f"u0_dim must be >= 1, got {self.u0_dim}")
        if self.l_est <= 0.0:
            raise ValueError(f"l_est must be positive, got {self.l_est}")
        for name, sched in (("eta", self.eta), ("eta0", self.eta0)):
            top = sched.max_value()
            if not 0.0 < top <= 1.0 / self.l_est:
                raise ValueError(
                    f"{name} values must lie in (0, {1.0 / self.l_est:g}], peak is {top:g}"
                )
        object.__setattr__(self, "w0_hidden", tuple(int(h) for h in self.w0_hidden))
        object.__setattr__(self, "local_hidden", tuple(int(h) for h in self.local_hidden))


@dataclass
class CenterState:
    """Center-side state: global model w0 (None for local-only modes) and federal model."""

    w0: nnet.DenseNet | None
    wbar: nnet.DenseNet
    combine: str = "concat"
    epoch: int = 0
    central_updates: int = 0


@dataclass(frozen=True)
class Upload:
    client_id: int
    q: float
    net: nnet.DenseNet
    vgrads: np.ndarray | None  # (n_j, u0_dim) in shard order; None without a global model


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    train_mse: float
    test_mse: float
    test_error_ratio: float
    k_received: int
    wall_clock: float


@dataclass
class TrainingTrace:
    mode: str
    seed: int
    rows: list[TraceRow] = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        if not (np.isfinite(row.train_mse) and np.isfinite(row.test_mse)):
            raise ValueError(f"non-finite loss at epoch {row.epoch}")
        self.rows.append(row)

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]

    def column(self, name: str) -> list[float]:
        return [getattr(row, name) for row in self.rows]

    def to_csv(self, path: str | Path, config_hash: str | None = None) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            if config_hash is not None:
                fh.write(f"# config_hash={config_hash}\n")
            writer = csv.writer(fh)
            writer.writerow(
                ["epoch", "mode", "train_mse", "test_mse", "test_error_ratio", "k_received", "seed"]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        row.epoch,
                        self.mode,
                        repr(row.train_mse),
                        repr(row.test_mse),
                        repr(row.test_error_ratio),
                        row.k_received,
                        self.seed,
                    ]
                )


def select_clients(n_clients: int, k: int, seed: int, t_g: int) -> tuple[int, ...]:
    """K distinct client ids, uniform without replacement, keyed by (seed, t_g)."""
    if not 1 <= k <= n_clients:
        raise ValueError(f"need 1 <= k <= n_clients, got k={k}, n={n_clients}")
    rng = substream(seed, "select", t_g)
    picks = rng.choice(n_clients, size=k, replace=False)
    return tuple(sorted(int(i) for i in picks))


def _check_finite(
    arrays: Iterable[np.ndarray],
    phase: str,
    global_epoch: int,
    clients: Sequence[int],
) -> None:
    """The phase-edge guard: raise if any of the phase's results is inf or nan."""
    if not all(np.all(np.isfinite(arr)) for arr in arrays):
        raise ValueError(_non_finite(phase, global_epoch, clients))


def _non_finite(phase: str, global_epoch: int, clients: Sequence[int]) -> str:
    who = f"client {clients[0]}" if len(clients) == 1 else f"clients {list(clients)}"
    return f"non-finite values after {phase} at global epoch {global_epoch}, {who}"


def _arrays(params: nnet.Params) -> list[np.ndarray]:
    return [arr for w, b, _ in params for arr in (w, b)]


def _global_rows(
    center: CenterState,
    shards: Sequence[ClientShard],
    global_store: GlobalStore | None,
) -> list[np.ndarray | None]:
    """Each shard's global rows in shard order, gathered with one store lookup;
    all None for a center without a global model."""
    if center.w0 is None:
        return [None] * len(shards)
    if global_store is None:
        raise ValueError("global store required in a global-aware mode")
    if not shards:
        return []
    rows = global_store.rows(np.concatenate([shard.ids for shard in shards]))
    ends = np.cumsum([shard.n for shard in shards])
    return [rows[end - shard.n : end] for shard, end in zip(shards, ends)]


def center_broadcast(
    center: CenterState,
    global_store: GlobalStore,
    clients: Sequence[ClientShard],
) -> dict[int, np.ndarray]:
    """Per client, the centrally processed rows u0 = w0(x0) in shard order."""
    if center.w0 is None:
        raise ValueError("center has no global model to broadcast from")
    return {
        shard.client_id: nnet._output(center.w0, rows)
        for shard, rows in zip(clients, _global_rows(center, clients, global_store))
    }


def _combined_step(
    net: nnet.DenseNet,
    batch_x: np.ndarray,
    batch_side: np.ndarray | None,
    batch_y: np.ndarray,
    combine: str,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray | None]:
    """One forward/backward through the validating public API; returns the
    local model's weight and bias grads, and the gradient of the batch-mean
    loss with respect to the side (centrally processed) rows."""
    if batch_side is None:
        out, trace = nnet.forward(net, batch_x)
        _, lgrad = nnet.mse_loss(out, batch_y)
        grads = nnet.backward(net, trace, lgrad)
        return grads.weights, grads.biases, None
    if combine == "concat":
        inp = np.hstack([batch_side, batch_x])
        out, trace = nnet.forward(net, inp)
        _, lgrad = nnet.mse_loss(out, batch_y)
        grads = nnet.backward(net, trace, lgrad, want_input_grad=True)
        return grads.weights, grads.biases, grads.input_grad[:, : batch_side.shape[1]]
    out, trace = nnet.forward(net, batch_x)
    _, lgrad = nnet.mse_loss(batch_side + out, batch_y)
    grads = nnet.backward(net, trace, lgrad)
    return grads.weights, grads.biases, lgrad


def _kernel_step(
    params: nnet.Params,
    batch_x: np.ndarray,
    batch_side: np.ndarray | None,
    batch_y: np.ndarray,
    combine: str,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray | None]:
    """:func:`_combined_step` on raw per-layer arrays, with nothing checked."""
    concat = batch_side is not None and combine == "concat"
    inp = np.hstack([batch_side, batch_x]) if concat else batch_x
    pre, post = nnet._forward(params, inp)
    out = post[-1] if batch_side is None or concat else batch_side + post[-1]
    lgrad = nnet._mse_grad(out, batch_y)
    wgrads, bgrads, input_grad = nnet._backward(params, inp, pre, post, lgrad, concat)
    if concat:
        return wgrads, bgrads, input_grad[:, : batch_side.shape[1]]
    return wgrads, bgrads, None if batch_side is None else lgrad


def client_update(
    shard: ClientShard,
    wbar: nnet.DenseNet,
    u0: np.ndarray | None,
    local_epochs: int,
    batch_size: int,
    eta: Schedule,
    *,
    combine: str = "concat",
    batch_rng: np.random.Generator | int = 0,
    global_epoch: int = 0,
) -> tuple[nnet.DenseNet, np.ndarray | None]:
    """Local training from the downloaded federal weights.

    The client initializes at ``wbar``, splits its samples (with the
    fixed centrally processed rows ``u0``, one per sample in shard order)
    into batches once, then runs ``local_epochs`` passes of mini-batch SGD
    at the learning-rate slots of ``global_epoch``. For every sample the
    gradient of the client loss with respect to its central row is
    recorded each epoch and averaged over epochs; the result, an
    ``(n_j, u0_dim)`` array in shard order (None without ``u0``), is
    returned alongside the updated weights.
    """
    if shard.n == 0:
        raise ValueError(f"client {shard.client_id} has no samples")
    if local_epochs < 1:
        raise ValueError("local_epochs must be >= 1")
    params = nnet._params(wbar)
    batch_list = batches(shard, u0, batch_size, batch_rng)
    vgrad_sum = None if u0 is None else np.empty((shard.n, u0.shape[1]))
    for epoch in range(local_epochs):
        eta_t = eta.value(global_epoch * local_epochs + epoch)
        for i, b in enumerate(batch_list):
            if epoch == 0 and i == 0:
                wgrads, bgrads, side_grad = _combined_step(wbar, b.x_local, b.x_side, b.y, combine)
            else:
                wgrads, bgrads, side_grad = _kernel_step(params, b.x_local, b.x_side, b.y, combine)
            if side_grad is not None:
                # rescale batch-mean rows to client-mean units; each epoch
                # visits every sample once, so epoch 0 writes every row
                rows = side_grad * (b.ids.shape[0] / shard.n)
                if epoch == 0:
                    vgrad_sum[b.index] = rows
                else:
                    vgrad_sum[b.index] += rows
            if eta_t > 0.0:
                nnet._sgd(params, wgrads, bgrads, eta_t)
    vgrads = None if vgrad_sum is None else vgrad_sum / local_epochs
    checked = _arrays(params) + ([] if vgrads is None else [vgrads])
    _check_finite(checked, "client_update", global_epoch, (shard.client_id,))
    return nnet._net(params), vgrads


def aggregate_weights(
    uploads: Sequence[tuple[float, nnet.DenseNet]],
    k: int,
    n_clients: int | None = None,
    aggregator: str = "renormalized",
    *,
    global_epoch: int = 0,
    client_ids: Sequence[int] = (),
) -> nnet.DenseNet:
    """Layer-wise weighted sum of the received nets.

    ``renormalized`` rescales the received coefficients to sum to 1 (a
    convex combination even when uploads were lost); ``paper_unbiased``
    uses (n_clients / k) * q_j, the unbiased estimator. ``global_epoch``
    and ``client_ids`` name the round in the error for a non-finite sum.
    """
    if not uploads:
        raise ValueError("cannot aggregate an empty upload set")
    if aggregator == "renormalized":
        total = sum(q for q, _ in uploads)
        coeffs = [q / total for q, _ in uploads]
    elif aggregator == "paper_unbiased":
        if n_clients is None:
            raise ValueError("paper_unbiased aggregation needs n_clients")
        coeffs = [(n_clients / k) * q for q, _ in uploads]
    else:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    reference = uploads[0][1]
    params = []
    for idx, ref_layer in enumerate(reference.layers):
        w = np.zeros_like(ref_layer.weights)
        b = np.zeros_like(ref_layer.bias)
        for coeff, (_, net) in zip(coeffs, uploads):
            layer = net.layers[idx]
            if layer.weights.shape != ref_layer.weights.shape:
                raise ValueError("uploaded nets have mismatched shapes")
            w += coeff * layer.weights
            b += coeff * layer.bias
        params.append((w, b, ref_layer.activation))
    _check_finite(_arrays(params), "aggregate_weights", global_epoch, client_ids)
    return nnet._net(params)


def central_update(
    w0: nnet.DenseNet,
    vgrads: Sequence[tuple[ClientShard, np.ndarray]],
    global_store: GlobalStore,
    eta0: float,
    *,
    global_epoch: int = 0,
) -> nnet.DenseNet:
    """One SGD step on the global model from the returned vertical gradients.

    ``vgrads`` pairs each delivered client's shard with its ``(n_j,
    u0_dim)`` gradient rows in shard order. The rows of all clients are
    ordered by sample id and back-propagated through w0 as the output
    gradient, which sums the chain rule over every received sample. The
    step runs through the validating public ``nnet`` API, as the uploads
    enter the center here.
    """
    for shard, rows in vgrads:
        if rows.ndim != 2 or rows.shape[0] != shard.n:
            raise ValueError(
                f"vertical gradients of client {shard.client_id} have shape {rows.shape}, "
                f"expected {shard.n} rows"
            )
    if not vgrads:
        return w0
    ids = np.concatenate([shard.ids for shard, _ in vgrads])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise ValueError(f"duplicate vertical-gradient row for id {int(repeated[0])}")
    rows = np.concatenate([r for _, r in vgrads])[order]
    x_global = global_store.rows(ids)
    out, trace = nnet.forward(w0, x_global)
    if rows.shape != out.shape:
        raise ValueError(f"vertical gradients have shape {rows.shape}, expected {out.shape}")
    grads = nnet.backward(w0, trace, rows)
    if eta0 <= 0.0:
        return w0
    try:
        return nnet.sgd_step(w0, grads, eta0)
    except ValueError as err:
        # backward fixed the shapes, so the stepped net failed its finite check
        clients = [shard.client_id for shard, _ in vgrads]
        raise ValueError(_non_finite("central_update", global_epoch, clients)) from err


def predict(
    center: CenterState,
    x_global: np.ndarray | None,
    x_local: np.ndarray,
) -> np.ndarray:
    """Model output y_hat for a batch; global features are required iff w0 exists."""
    x_local = nnet._as_batch(x_local, "batch")
    local_in = x_local.shape[1]
    if center.w0 is not None:
        if x_global is None:
            raise ValueError("global features required for a center with a global model")
        x_global = nnet._as_batch(x_global, "batch")
        if x_global.shape[1] != center.w0.in_dim:
            raise ValueError(f"batch has {x_global.shape[1]} columns, net expects {center.w0.in_dim}")
        if center.combine == "concat":
            local_in += center.w0.out_dim
    if local_in != center.wbar.in_dim:
        raise ValueError(f"batch has {local_in} columns, net expects {center.wbar.in_dim}")
    return _predict(center, x_global, x_local)


def _predict(
    center: CenterState,
    x_global: np.ndarray | None,
    x_local: np.ndarray,
) -> np.ndarray:
    """:func:`predict` on validated rows, with the unchecked forward pass."""
    if center.w0 is None:
        return nnet._output(center.wbar, x_local)
    u0 = nnet._output(center.w0, x_global)
    if center.combine == "concat":
        return nnet._output(center.wbar, np.hstack([u0, x_local]))
    return u0 + nnet._output(center.wbar, x_local)


def evaluate(
    center: CenterState,
    shards: Sequence[ClientShard],
    global_store: GlobalStore | None,
) -> tuple[float, float]:
    """Pooled (mse, error_ratio) of the center's predictor over the given shards."""
    sq_sum = 0.0
    ratio_sum = 0.0
    count = 0
    for shard, x_global in zip(shards, _global_rows(center, shards, global_store)):
        pred = _predict(center, x_global, shard.x_local)
        diff = pred - shard.y
        sq_sum += float(np.sum(diff * diff))
        norms = np.linalg.norm(diff, axis=1)
        scales = np.maximum(np.linalg.norm(shard.y, axis=1), 1e-8)
        ratio_sum += float(np.sum(norms / scales))
        count += shard.n
    if count == 0:
        raise ValueError("no samples to evaluate")
    return sq_sum / count, ratio_sum / count


def weighted_train_loss(
    center: CenterState,
    shards: Sequence[ClientShard],
    global_store: GlobalStore | None,
) -> float:
    """Global objective: q-weighted sum of per-client mean losses."""
    total = 0.0
    for shard, x_global in zip(shards, _global_rows(center, shards, global_store)):
        pred = _predict(center, x_global, shard.x_local)
        diff = pred - shard.y
        total += shard.q * float(np.sum(diff * diff)) / shard.n
    return total


def _build_wbar(config: FederationConfig, d_local: int, d_label: int) -> nnet.DenseNet:
    local_in = config.u0_dim + d_local if config.combine == "concat" else d_local
    dims = [local_in, *config.local_hidden, d_label]
    acts = [config.activation] * len(config.local_hidden) + ["identity"]
    return nnet.random_net(dims, acts, substream(config.seed, "init", "wbar"))


def _build_w0(config: FederationConfig, d_global: int) -> nnet.DenseNet:
    dims = [d_global, *config.w0_hidden, config.u0_dim]
    acts = [config.activation] * len(config.w0_hidden) + ["identity"]
    return nnet.random_net(dims, acts, substream(config.seed, "init", "w0"))


def _check_dims(config: FederationConfig, dataset: FederationDataset) -> None:
    if dataset.n_clients != config.n_clients:
        raise ValueError(
            f"config expects {config.n_clients} clients, dataset has {dataset.n_clients}"
        )
    if config.combine == "additive" and config.u0_dim != dataset.d_label:
        raise ValueError(
            f"additive combining needs u0_dim == d_label, got {config.u0_dim} != {dataset.d_label}"
        )


def run_vhfl(
    config: FederationConfig,
    dataset: FederationDataset,
    center: CenterState | None = None,
) -> tuple[CenterState, TrainingTrace]:
    """Train with vertical gradient exchange for ``global_epochs`` rounds."""
    _check_dims(config, dataset)
    store = dataset.global_store
    if center is None:
        center = CenterState(
            w0=_build_w0(config, dataset.d_global),
            wbar=_build_wbar(config, dataset.d_local, dataset.d_label),
            combine=config.combine,
        )
    if center.w0 is None:
        raise ValueError("vertical-horizontal training needs a global model")
    shards = {shard.client_id: shard for shard in dataset.clients}
    trace = TrainingTrace(mode="vhfl", seed=config.seed)
    for t_g in range(config.global_epochs):
        started = time.perf_counter()
        selected = select_clients(config.n_clients, config.k, config.seed, t_g)
        u0 = center_broadcast(center, store, [shards[j] for j in selected])
        uploads = []
        for j in selected:
            net_j, vgrads = client_update(
                shards[j],
                center.wbar,
                u0[j],
                config.local_epochs,
                config.batch_size,
                config.eta,
                combine=config.combine,
                batch_rng=substream(config.seed, "batches", j, t_g),
                global_epoch=t_g,
            )
            uploads.append(Upload(client_id=j, q=shards[j].q, net=net_j, vgrads=vgrads))
        delivered = _deliver(config.deadline_channel, uploads, t_g)
        if delivered:
            center.wbar = aggregate_weights(
                [(u.q, u.net) for u in delivered],
                config.k,
                config.n_clients,
                config.aggregator,
                global_epoch=t_g,
                client_ids=[u.client_id for u in delivered],
            )
            if not config.center_frozen:
                center.w0 = central_update(
                    center.w0,
                    [(shards[u.client_id], u.vgrads) for u in delivered],
                    store,
                    config.eta0.value(t_g),
                    global_epoch=t_g,
                )
                center.central_updates += 1
        center.epoch += 1
        train = weighted_train_loss(center, dataset.clients, store)
        test_mse, err = evaluate(center, dataset.test_clients, store)
        trace.append(
            TraceRow(t_g, train, test_mse, err, len(delivered), time.perf_counter() - started)
        )
    return center, trace


def _deliver(
    channel: ChannelModel | None,
    uploads: list[Upload],
    t_g: int,
) -> list[Upload]:
    if channel is None:
        return uploads
    delivered_ids = set(apply_channel(channel, [u.client_id for u in uploads], epoch=t_g))
    return [u for u in uploads if u.client_id in delivered_ids]


def run_hfl(
    config: FederationConfig,
    dataset: FederationDataset,
    center: CenterState | None = None,
) -> tuple[CenterState, TrainingTrace]:
    """FedAvg baseline: local SGD on local features plus periodic aggregation."""
    _check_dims_hfl(config, dataset)
    if center is None:
        dims = [dataset.d_local, *config.local_hidden, dataset.d_label]
        acts = [config.activation] * len(config.local_hidden) + ["identity"]
        wbar = nnet.random_net(dims, acts, substream(config.seed, "init", "wbar"))
        center = CenterState(w0=None, wbar=wbar, combine=config.combine)
    shards = {shard.client_id: shard for shard in dataset.clients}
    trace = TrainingTrace(mode="hfl", seed=config.seed)
    for t_g in range(config.global_epochs):
        started = time.perf_counter()
        selected = select_clients(config.n_clients, config.k, config.seed, t_g)
        uploads = []
        for j in selected:
            net_j, _ = client_update(
                shards[j],
                center.wbar,
                None,
                config.local_epochs,
                config.batch_size,
                config.eta,
                combine=config.combine,
                batch_rng=substream(config.seed, "batches", j, t_g),
                global_epoch=t_g,
            )
            uploads.append(Upload(client_id=j, q=shards[j].q, net=net_j, vgrads=None))
        delivered = _deliver(config.deadline_channel, uploads, t_g)
        if delivered:
            center.wbar = aggregate_weights(
                [(u.q, u.net) for u in delivered],
                config.k,
                config.n_clients,
                config.aggregator,
                global_epoch=t_g,
                client_ids=[u.client_id for u in delivered],
            )
        center.epoch += 1
        train = weighted_train_loss(center, dataset.clients, None)
        test_mse, err = evaluate(center, dataset.test_clients, None)
        trace.append(
            TraceRow(t_g, train, test_mse, err, len(delivered), time.perf_counter() - started)
        )
    return center, trace


def _check_dims_hfl(config: FederationConfig, dataset: FederationDataset) -> None:
    if dataset.n_clients != config.n_clients:
        raise ValueError(
            f"config expects {config.n_clients} clients, dataset has {dataset.n_clients}"
        )


def _pooled(dataset: FederationDataset) -> ClientShard:
    ids = np.concatenate([shard.ids for shard in dataset.clients])
    x = np.vstack([shard.x_local for shard in dataset.clients])
    y = np.vstack([shard.y for shard in dataset.clients])
    return ClientShard(client_id=0, ids=ids, x_local=x, y=y, q=1.0)


def run_cloud(
    config: FederationConfig,
    dataset: FederationDataset,
    use_global: bool,
) -> tuple[CenterState, TrainingTrace]:
    """Centralized SGD on the pooled training split.

    With ``use_global`` the composed model (global net feeding the local
    net) is trained end-to-end; otherwise only local features are used.
    Each round is one phase: it steps copies of the center's nets with the
    unchecked kernels and builds them once at its end.
    """
    _check_dims_hfl(config, dataset)
    store = dataset.global_store
    pooled = _pooled(dataset)
    if use_global:
        _check_dims(config, dataset)
        center = CenterState(
            w0=_build_w0(config, dataset.d_global),
            wbar=_build_wbar(config, dataset.d_local, dataset.d_label),
            combine=config.combine,
        )
    else:
        dims = [dataset.d_local, *config.local_hidden, dataset.d_label]
        acts = [config.activation] * len(config.local_hidden) + ["identity"]
        center = CenterState(
            w0=None,
            wbar=nnet.random_net(dims, acts, substream(config.seed, "init", "wbar")),
            combine=config.combine,
        )
    x0_pooled = store.rows(pooled.ids) if use_global else None
    mode = "cloud" if use_global else "cloud_local"
    trace = TrainingTrace(mode=mode, seed=config.seed)
    for t_g in range(config.global_epochs):
        started = time.perf_counter()
        batch_rng = substream(config.seed, "batches", 0, t_g)
        batch_list = batches(pooled, x0_pooled, config.batch_size, batch_rng)
        wbar = nnet._params(center.wbar)
        w0 = nnet._params(center.w0) if use_global else []
        for epoch in range(config.local_epochs):
            eta_t = config.eta.value(t_g * config.local_epochs + epoch)
            for b in batch_list:
                if use_global:
                    pre0, post0 = nnet._forward(w0, b.x_side)
                    gw, gb, side_grad = _kernel_step(wbar, b.x_local, post0[-1], b.y, config.combine)
                    g0w, g0b, _ = nnet._backward(w0, b.x_side, pre0, post0, side_grad, False)
                else:
                    gw, gb, _ = _kernel_step(wbar, b.x_local, None, b.y, config.combine)
                if eta_t > 0.0:
                    nnet._sgd(wbar, gw, gb, eta_t)
                    if use_global:
                        nnet._sgd(w0, g0w, g0b, eta_t)
        _check_finite(_arrays(wbar) + _arrays(w0), "run_cloud", t_g, (0,))
        center.wbar = nnet._net(wbar)
        if use_global:
            center.w0 = nnet._net(w0)
        center.epoch += 1
        train = weighted_train_loss(center, dataset.clients, store)
        test_mse, err = evaluate(center, dataset.test_clients, store)
        trace.append(TraceRow(t_g, train, test_mse, err, 0, time.perf_counter() - started))
    return center, trace
