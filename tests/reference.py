"""A plain reference of the dataset generator and the training engines, for the tests.

``reference_generate`` is ``datagen.generate`` as a loop that builds each
client alone, from its own ``substream``, and ``dataset_bits`` lists what
two datasets must share to hold the same bits.

``reference_run`` trains any of the four modes the way the paper
describes a round, one client at a time and one 2-d step at a time
through the public ``nnet`` functions. vhfl and hfl run federated rounds:

- the cohort is K distinct client ids drawn from the stream (seed,
  "select", t), in ascending order;
- each client trains from wbar on its rows shuffled by its stream (seed,
  "batches", client_id, t), beside its u0 rows, w0's output on its own
  global rows; a step backpropagates the unscaled residual ``out - y``
  and steps at the epoch's rate times 2/b, the factor of the MSE
  gradient (2/b)(out - y), and a sample's vertical gradient is its
  residual's times 2/n;
- behind a finite deadline an upload arrives when its one sojourn draw,
  from the stream (channel seed, "channel", t, client_id), is at most t_p;
- aggregation is a loop that adds coefficient times vector, upload by
  upload, from zeros;
- w0 steps once on the delivered vertical-gradient rows sorted by sample
  id, through ``forward``, ``backward`` and ``sgd_step``;
- evaluation runs each shard alone and adds the shards up in order.

cloud and cloud_local train the pooled shard, every client's training
rows in client order, as client 0: each local epoch takes one 2-d step a
batch in the order of the stream (seed, "batches", 0, t), through w0 and
wbar end to end under cloud, where w0 steps on the side gradient, both
nets at the epoch's rate times 2/b. They upload nothing, so no channel
draws.

Every stream is a fresh ``rng.substream``, never a seeded plan, and
nothing is stacked, gathered or kept between rounds, so the engine pins
the composition of the rewritten round: the planned cohorts and the
delivery mask, aggregation in upload order, the central step's row order
and the broadcast's u0.

Kernel scope: the engine steps each client alone with 2-d products, where
``fedcore`` stacks clients and shards. The two agree bit for bit where a
stacked product rounds each slice as the slice alone, which holds under
the SkylakeX and Haswell OpenBLAS kernels and not under Katmai (forced by
``OPENBLAS_CORETYPE=Prescott``); there the comparison fails as the
stacked-against-alone property of ``tests/test_hot_path.py`` does.
"""

from __future__ import annotations

import math

import numpy as np

from vhfl_lab import netqueue, nnet
from vhfl_lab.datagen import ClientShard, FederationDataset, GlobalStore, SynthConfig, truth_maps
from vhfl_lab.fedcore import CenterState, TraceRow
from vhfl_lab.rng import substream


def reference_generate(config: SynthConfig) -> FederationDataset:
    """Generate a seeded federation dataset with an 80/20 train/test split by id."""
    g_map, h_map = truth_maps(config)
    n = config.samples_per_client

    all_ids: list[np.ndarray] = []
    all_global: list[np.ndarray] = []
    clients: list[ClientShard] = []
    test_clients: list[ClientShard] = []
    # every client trains on the same number of rows, so each weighs 1/N
    q = 1.0 / config.n_clients
    for j in range(config.n_clients):
        ids = np.arange(j * n, (j + 1) * n, dtype=np.int64)

        rng = substream(config.seed, "client", j)
        x_local = rng.standard_normal((n, config.d_local))
        if config.noniid_shift > 0.0:
            direction = rng.standard_normal(config.d_local)
            direction /= np.linalg.norm(direction)
            x_local += config.noniid_shift * direction
        x_global = rng.standard_normal((n, config.d_global))
        noise = rng.standard_normal((n, config.d_label)) * config.noise_std
        y = g_map(x_local) + config.global_strength * h_map(x_global) + noise

        n_train = int(round(0.8 * n))
        perm = rng.permutation(n)
        for split, idx in ((clients, perm[:n_train]), (test_clients, perm[n_train:])):
            idx = np.sort(idx)
            split.append(ClientShard(client_id=j, ids=ids[idx], x_local=x_local[idx], y=y[idx], q=q))
        all_ids.append(ids)
        all_global.append(x_global)

    store = GlobalStore(np.concatenate(all_ids), np.vstack(all_global))
    return FederationDataset(clients=tuple(clients), test_clients=tuple(test_clients), global_store=store)


def dataset_bits(dataset: FederationDataset) -> list:
    """Each training shard's, then each test shard's client id, weight, ids,
    local features and labels, then the store's ids and rows; every array as
    its dtype, shape and bytes. Two datasets with equal lists hold the same
    bits in the same order."""

    def bits(a: np.ndarray) -> tuple:
        return a.dtype.str, a.shape, a.tobytes()

    store = dataset.global_store
    shards = [
        (s.client_id, s.q, bits(s.ids), bits(s.x_local), bits(s.y)) for s in (*dataset.clients, *dataset.test_clients)
    ]
    return [len(dataset.clients), *shards, bits(store.ids), bits(store.rows(store.ids))]


def shuffled_batches(seed, client_id, t_g, n, batch_size):
    """The row positions of each mini-batch of an n-row shard in round t_g:
    the permutation of the substream (seed, "batches", client_id, t_g), cut
    into batches with the short tail kept."""
    order = substream(seed, "batches", client_id, t_g).permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


def local_step(fed, net, x, side, y):
    """One 2-d step's gradient of the local model on rows ``x`` beside the
    ``side`` rows of w0's output, or None, and the gradient with respect to
    the side rows (None without them), both from the unscaled residual
    ``out - y``: the caller steps at ``eta * (2 / b)``, where the MSE
    gradient is ``(2 / b)(out - y)``."""
    if side is None:
        out, trace = nnet.forward(net, x)
        grad, _ = nnet.backward(net, trace, out - y)
        return grad, None
    if fed.combine == "concat":
        out, trace = nnet.forward(net, np.hstack([side, x]))
        grad, input_grad = nnet.backward(net, trace, out - y, want_input_grad=True)
        return grad, input_grad[:, : side.shape[1]]
    out, trace = nnet.forward(net, x)
    residual = (side + out) - y
    grad, _ = nnet.backward(net, trace, residual)
    return grad, residual


def reference_client_update(fed, shard, wbar, u0, global_epoch):
    """One client's local SGD as a plain loop over the public nnet functions,
    with the vertical gradients accumulated per sample in an id-keyed dict."""
    table = None if u0 is None else {int(i): u0[k] for k, i in enumerate(shard.ids)}
    net = wbar
    batch_list = shuffled_batches(fed.seed, shard.client_id, global_epoch, shard.n, fed.batch_size)
    vgrad_sum: dict[int, np.ndarray] = {}
    for epoch in range(fed.local_epochs):
        for idx in batch_list:
            ids, x, y = shard.ids[idx], shard.x_local[idx], shard.y[idx]
            side = None if table is None else np.vstack([table[int(i)] for i in ids])
            grad, side_grad = local_step(fed, net, x, side, y)
            if side_grad is not None:
                scale = 2.0 / shard.n
                for k, sample_id in enumerate(ids):
                    key = int(sample_id)
                    row = side_grad[k] * scale
                    vgrad_sum[key] = vgrad_sum[key] + row if key in vgrad_sum else row
            net = nnet.sgd_step(net, grad, fed.eta.value(global_epoch * fed.local_epochs + epoch) * (2.0 / len(idx)))
    vgrads = {key: row / fed.local_epochs for key, row in vgrad_sum.items()}
    return net, vgrads


def reference_pooled_round(fed, pooled, store, w0, wbar, global_epoch):
    """One round of a cloud mode on the pooled shard: every local epoch steps
    w0 (when given) and wbar once a batch, both at the epoch's rate times
    the batch's 2/b."""
    batch_list = shuffled_batches(fed.seed, 0, global_epoch, pooled.n, fed.batch_size)
    for epoch in range(fed.local_epochs):
        for idx in batch_list:
            eta = fed.eta.value(global_epoch * fed.local_epochs + epoch) * (2.0 / len(idx))
            x, y = pooled.x_local[idx], pooled.y[idx]
            if w0 is None:
                grad, _ = local_step(fed, wbar, x, None, y)
            else:
                u0, w0_trace = nnet.forward(w0, store.rows(pooled.ids[idx]))
                grad, side_grad = local_step(fed, wbar, x, u0, y)
                grad0, _ = nnet.backward(w0, w0_trace, side_grad)
                w0 = nnet.sgd_step(w0, grad0, eta)
            wbar = nnet.sgd_step(wbar, grad, eta)
    return w0, wbar


def interleaved_dataset(sizes, test_sizes, d_local, d_global, d_label, seed) -> FederationDataset:
    """Shards of the given sizes whose ids interleave: client j holds ids j,
    j + N, j + 2N, ..., its training rows first, so the id order of a
    cohort's rows is not its cohort order."""
    rng = substream(seed, "interleaved-dataset")
    count = len(sizes)
    train, test, ids = [], [], []
    for j, (n, n_test) in enumerate(zip(sizes, test_sizes, strict=True)):
        own = j + count * np.arange(n + n_test)
        ids.append(own)
        for shards, rows in ((train, own[:n]), (test, own[n:])):
            x_local, y = rng.standard_normal((len(rows), d_local)), rng.standard_normal((len(rows), d_label))
            shards.append(ClientShard(j, rows, x_local, y, n / sum(sizes)))
    ids = np.concatenate(ids)
    return FederationDataset(tuple(train), tuple(test), GlobalStore(ids, rng.standard_normal((len(ids), d_global))))


def _output(net, x):
    out, _ = nnet.forward(net, x)
    return out


def _residuals(fed, w0, wbar, shard, store):
    """One shard's y_hat - y, from its own forward passes."""
    if w0 is None:
        return _output(wbar, shard.x_local) - shard.y
    u0 = _output(w0, store.rows(shard.ids))
    if fed.combine == "concat":
        return _output(wbar, np.hstack([u0, shard.x_local])) - shard.y
    return u0 + _output(wbar, shard.x_local) - shard.y


def _delivered(channel, t_g, client_id) -> bool:
    if channel is None or math.isinf(channel.t_p):
        return True
    (delay,) = netqueue.sample_sojourn(netqueue.analyze(channel), [substream(channel.seed, "channel", t_g, client_id)])
    return bool(delay <= channel.t_p)


def reference_run(fed, dataset, mode) -> tuple[CenterState, list[TraceRow]]:
    """A run of ``mode``, one of vhfl, hfl, cloud and cloud_local, written out plainly."""
    use_global = mode in ("vhfl", "cloud")

    def net(dims, name):
        acts = [fed.activation] * (len(dims) - 2) + ["identity"]
        return nnet.random_net(dims, acts, substream(fed.seed, "init", name))

    store = dataset.global_store
    w0 = net([dataset.d_global, *fed.w0_hidden, fed.u0_dim], "w0") if use_global else None
    local_in = dataset.d_local + (fed.u0_dim if use_global and fed.combine == "concat" else 0)
    wbar = net([local_in, *fed.local_hidden, dataset.d_label], "wbar")
    shards = {shard.client_id: shard for shard in dataset.clients}
    pooled = ClientShard(
        0, *(np.concatenate([getattr(s, name) for s in dataset.clients]) for name in ("ids", "x_local", "y")), 1.0
    )
    trace = []
    for t_g in range(fed.global_epochs):
        if mode.startswith("cloud"):
            w0, wbar = reference_pooled_round(fed, pooled, store, w0, wbar, t_g)
            trace.append(_trace_row(fed, dataset, w0, wbar, t_g, 0))
            continue
        picks = substream(fed.seed, "select", t_g).choice(fed.n_clients, size=fed.k, replace=False)
        uploads = []
        for client_id in sorted(int(c) for c in picks):
            shard = shards[client_id]
            u0 = None if w0 is None else _output(w0, store.rows(shard.ids))
            trained, vgrads = reference_client_update(fed, shard, wbar, u0, t_g)
            if _delivered(fed.deadline_channel, t_g, client_id):
                uploads.append((shard, trained, vgrads))
        if uploads:
            if fed.aggregator == "renormalized":
                coeffs = [shard.q / sum(s.q for s, _, _ in uploads) for shard, _, _ in uploads]
            else:
                coeffs = [(fed.n_clients / len(uploads)) * shard.q for shard, _, _ in uploads]
            total = np.zeros_like(wbar.params)
            for coeff, (_, trained, _) in zip(coeffs, uploads):
                total += coeff * trained.params
            wbar = nnet.DenseNet(wbar.layers, total)
            if w0 is not None:
                rows = sorted((row for _, _, vgrads in uploads for row in vgrads.items()), key=lambda row: row[0])
                out, w0_trace = nnet.forward(w0, store.rows([sample_id for sample_id, _ in rows]))
                grad, _ = nnet.backward(w0, w0_trace, np.vstack([row for _, row in rows]))
                w0 = nnet.sgd_step(w0, grad, fed.eta0.value(t_g))
        trace.append(_trace_row(fed, dataset, w0, wbar, t_g, len(uploads)))
    return CenterState(w0, wbar), trace


def _trace_row(fed, dataset, w0, wbar, t_g, k_received) -> TraceRow:
    """Round t_g's trace row: the train loss and test errors, each shard run
    alone and the shards added up in order."""
    store = dataset.global_store
    train = 0.0
    for shard in dataset.clients:
        diff = _residuals(fed, w0, wbar, shard, store)
        train += shard.q * float(np.sum(diff * diff)) / shard.n
    sq = ratio = 0.0
    for shard in dataset.test_clients:
        diff = _residuals(fed, w0, wbar, shard, store)
        sq += float(np.sum(diff * diff))
        ratio += float(np.sum(np.linalg.norm(diff, axis=1) / np.maximum(np.linalg.norm(shard.y, axis=1), 1e-8)))
    count = sum(shard.n for shard in dataset.test_clients)
    if not (math.isfinite(train) and math.isfinite(sq)):
        raise ValueError(f"non-finite losses at global epoch {t_g}")
    return TraceRow(t_g, train, sq / count, ratio / count, k_received)
