from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from vhfl_lab import fedcore, netqueue, nnet
from vhfl_lab.datagen import ClientShard, FederationDataset, GlobalStore, SynthConfig, generate
from vhfl_lab.fedcore import (
    CenterState,
    FederationConfig,
    Schedule,
    aggregate_weights,
    center_broadcast,
    central_update,
    client_update,
    evaluate,
    predict,
    select_clients,
)
from vhfl_lab.rng import substream

SYNTH = SynthConfig(
    n_clients=5,
    samples_per_client=40,
    d_local=4,
    d_global=3,
    d_label=2,
    noise_std=0.1,
    global_strength=0.5,
    noniid_shift=0.3,
    seed=21,
)

FED = FederationConfig(
    n_clients=5,
    k=3,
    local_epochs=3,
    batch_size=8,
    global_epochs=10,
    eta=Schedule("constant", 0.05),
    eta0=Schedule("constant", 0.02),
    seed=13,
    u0_dim=3,
    w0_hidden=(8,),
    local_hidden=(12,),
    activation="tanh",
)


def nets_equal(a: nnet.DenseNet, b: nnet.DenseNet, atol: float = 0.0) -> bool:
    if a.n_layers != b.n_layers:
        return False
    for la, lb in zip(a.layers, b.layers):
        if atol == 0.0:
            if not (np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)):
                return False
        else:
            if not (
                np.allclose(la.weights, lb.weights, atol=atol, rtol=0.0)
                and np.allclose(la.bias, lb.bias, atol=atol, rtol=0.0)
            ):
                return False
    return True


def traces_equal(a: fedcore.TrainingTrace, b: fedcore.TrainingTrace, tol: float = 0.0) -> bool:
    if len(a.rows) != len(b.rows):
        return False
    for ra, rb in zip(a.rows, b.rows):
        metrics = (
            (ra.train_mse, rb.train_mse),
            (ra.test_mse, rb.test_mse),
            (ra.test_error_ratio, rb.test_error_ratio),
        )
        if any(abs(x - y) > tol for x, y in metrics):
            return False
        if ra.k_received != rb.k_received:
            return False
    return True


# ---------------------------------------------------------------- selection


def test_select_all_when_k_equals_n():
    assert select_clients(6, 6, seed=0, t_g=3) == tuple(range(6))


def test_select_deterministic():
    first = select_clients(5, 1, seed=4, t_g=9)
    assert all(select_clients(5, 1, seed=4, t_g=9) == first for _ in range(5))
    assert select_clients(5, 1, seed=4, t_g=10) != first or True  # other epochs may differ


def test_select_uniform_frequencies():
    counts = np.zeros(5)
    draws = 100_000
    for t in range(draws):
        for j in select_clients(5, 2, seed=1, t_g=t):
            counts[j] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.4) < 0.01)


def test_select_rejects_bad_k():
    with pytest.raises(ValueError):
        select_clients(5, 6, seed=0, t_g=0)
    with pytest.raises(ValueError):
        select_clients(5, 0, seed=0, t_g=0)


# ---------------------------------------------------------------- broadcast


def test_broadcast_identity_center():
    ds = generate(SYNTH)
    center = CenterState(
        w0=nnet.DenseNet((nnet.DenseLayer(np.eye(3), np.zeros(3)),)),
        wbar=nnet.zeros_net([7, 2], ["identity"]),
    )
    tables = center_broadcast(center, ds.global_store, ds.clients[:2])
    for shard in ds.clients[:2]:
        table = tables[shard.client_id]
        for k, sample_id in enumerate(shard.ids):
            assert np.array_equal(table[k], ds.global_store.get(int(sample_id)))


def test_broadcast_matches_per_sample_forward():
    ds = generate(SYNTH)
    rng = substream(2, "bc")
    center = CenterState(
        w0=nnet.random_net([3, 6, 3], ["tanh", "identity"], rng),
        wbar=nnet.zeros_net([7, 2], ["identity"]),
    )
    tables = center_broadcast(center, ds.global_store, ds.clients)
    assert set(tables) == {shard.client_id for shard in ds.clients}
    for shard in ds.clients:
        assert tables[shard.client_id].shape == (shard.n, 3)
        for k, sample_id in enumerate(shard.ids):
            row = ds.global_store.get(int(sample_id))[None, :]
            single, _ = nnet.forward(center.w0, row)
            assert np.allclose(tables[shard.client_id][k], single[0], atol=1e-12)
    # disjoint clients receive disjoint id sets, one row per sample in shard order
    seen: set[int] = set()
    for shard in ds.clients:
        table_ids = set(int(i) for i in shard.ids)
        assert tables[shard.client_id].shape[0] == len(table_ids)
        assert not (seen & table_ids)
        seen |= table_ids


# ------------------------------------------------------------ client update


def manual_full_batch_vgrads(net, shard, u0, u0_dim):
    """Gradient of the client's mean loss wrt each sample's central row, in shard order."""
    inp = np.hstack([u0, shard.x_local])
    out, trace = nnet.forward(net, inp)
    _, lgrad = nnet.mse_loss(out, shard.y)
    grads = nnet.backward(net, trace, lgrad, want_input_grad=True)
    return grads.input_grad[:, :u0_dim]


def test_client_update_zero_eta_keeps_weights_and_initial_vgrad():
    ds = generate(SYNTH)
    shard = ds.clients[0]
    rng = substream(3, "cu")
    wbar = nnet.random_net([3 + 4, 12, 2], ["tanh", "identity"], rng)
    u0 = np.vstack([rng.standard_normal(3) for _ in shard.ids])
    net, vgrads = client_update(
        shard,
        wbar,
        u0,
        local_epochs=4,
        batch_size=8,
        eta=Schedule("constant", 0.0),
        combine="concat",
        batch_rng=substream(3, "b"),
    )
    assert nets_equal(net, wbar)
    expected = manual_full_batch_vgrads(wbar, shard, u0, u0_dim=3)
    for k, row in enumerate(expected):
        assert np.allclose(vgrads[k], row, atol=1e-12)


def test_client_update_perfect_fit_returns_zero_vgrads():
    ds = generate(SYNTH)
    shard = ds.clients[1]
    rng = substream(4, "cu2")
    wbar = nnet.random_net([3 + 4, 12, 2], ["tanh", "identity"], rng)
    u0 = np.vstack([rng.standard_normal(3) for _ in shard.ids])
    fitted_y, _ = nnet.forward(wbar, np.hstack([u0, shard.x_local]))
    fitted = ClientShard(
        client_id=shard.client_id, ids=shard.ids, x_local=shard.x_local, y=fitted_y, q=shard.q
    )
    net, vgrads = client_update(
        fitted,
        wbar,
        u0,
        local_epochs=3,
        batch_size=16,
        eta=Schedule("constant", 0.05),
        combine="concat",
        batch_rng=substream(4, "b"),
    )
    assert nets_equal(net, wbar)
    for row in vgrads:
        assert np.array_equal(row, np.zeros_like(row))


def test_client_vertical_gradient_matches_finite_differences():
    ds = generate(SYNTH)
    shard = ds.clients[2]
    rng = substream(5, "cu3")
    wbar = nnet.random_net([3 + 4, 10, 2], ["tanh", "identity"], rng)
    u0 = np.vstack([rng.standard_normal(3) for _ in shard.ids])
    _, vgrads = client_update(
        shard,
        wbar,
        u0,
        local_epochs=1,
        batch_size=10_000,
        eta=Schedule("constant", 0.05),
        combine="concat",
        batch_rng=substream(5, "b"),
    )

    def client_loss(rows):
        out, _ = nnet.forward(wbar, np.hstack([rows, shard.x_local]))
        return nnet.mse_loss(out, shard.y)[0]

    step = 1e-5
    probe = 3
    fd = np.zeros(3)
    for d in range(3):
        for sign in (+1.0, -1.0):
            bumped = u0.copy()
            bumped[probe, d] += sign * step
            fd[d] += sign * client_loss(bumped)
    fd /= 2.0 * step
    rel = np.abs(fd - vgrads[probe]) / np.maximum(np.abs(fd), 1e-6)
    assert np.max(rel) < 1e-4


# ------------------------------------------------------------- aggregation


def test_aggregate_identical_uploads():
    rng = substream(6, "agg")
    net = nnet.random_net([4, 3], ["identity"], rng)
    out = aggregate_weights([(0.2, net), (0.5, net), (0.3, net)], k=3)
    assert nets_equal(out, net, atol=1e-15)


def test_aggregate_opposite_uploads_cancel():
    rng = substream(7, "agg2")
    net = nnet.random_net([4, 3], ["identity"], rng)
    negated = nnet.DenseNet(
        tuple(
            nnet.DenseLayer(-l.weights, -l.bias, l.activation) for l in net.layers
        )
    )
    out = aggregate_weights([(0.5, net), (0.5, negated)], k=2)
    for layer in out.layers:
        assert np.allclose(layer.weights, 0.0, atol=1e-15)
        assert np.allclose(layer.bias, 0.0, atol=1e-15)


def test_aggregate_uniform_weights_is_plain_mean():
    rng = substream(8, "agg3")
    n = 5
    nets = [nnet.random_net([3, 2], ["identity"], rng) for _ in range(n)]
    received = nets[:3]
    out = aggregate_weights([(1.0 / n, net) for net in received], k=3)
    mean_w = sum(net.layers[0].weights for net in received) / 3
    assert np.allclose(out.layers[0].weights, mean_w, atol=1e-12, rtol=0.0)
    # the unbiased variant keeps the (n/k) q_j scaling instead
    unbiased = aggregate_weights(
        [(1.0 / n, net) for net in received], k=3, n_clients=n, aggregator="paper_unbiased"
    )
    scaled = sum(net.layers[0].weights for net in received) * (n / 3) * (1 / n)
    assert np.allclose(unbiased.layers[0].weights, scaled, atol=1e-12, rtol=0.0)


def test_aggregate_empty_set_rejected():
    with pytest.raises(ValueError):
        aggregate_weights([], k=3)


def test_aggregate_multiset_permutation_invariance():
    rng = substream(9, "agg4")
    nets = [nnet.random_net([4, 4, 2], ["tanh", "identity"], rng) for _ in range(4)]
    qs = [0.1, 0.2, 0.3, 0.4]
    a = aggregate_weights(list(zip(qs, nets)), k=4)
    order = [2, 0, 3, 1]
    b = aggregate_weights([(qs[i], nets[i]) for i in order], k=4)
    assert nets_equal(a, b, atol=1e-12)


# ----------------------------------------------------------- central update


def test_central_update_zero_vgrads_no_change():
    rng = substream(10, "cen")
    w0 = nnet.random_net([3, 5, 3], ["tanh", "identity"], rng)
    ds = generate(SYNTH)
    shard = ds.clients[0]
    out = central_update(w0, [(shard, np.zeros((shard.n, 3)))], ds.global_store, eta0=0.05)
    assert nets_equal(out, w0)


def test_central_update_identity_layer_outer_product():
    w0 = nnet.DenseNet((nnet.DenseLayer(np.eye(3), np.zeros(3)),))
    ids = np.array([11])
    x0 = np.array([[0.5, -1.0, 2.0]])
    store = GlobalStore(ids, x0)
    shard = ClientShard(0, ids, np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
    vrow = np.array([1.0, -2.0, 0.25])
    eta0 = 0.1
    out = central_update(w0, [(shard, vrow[None, :])], store, eta0=eta0)
    expected_grad = np.outer(vrow, x0[0])
    assert np.allclose(out.layers[0].weights, np.eye(3) - eta0 * expected_grad, atol=1e-14)
    assert np.allclose(out.layers[0].bias, -eta0 * vrow, atol=1e-14)


def test_central_update_matches_finite_differences_of_composed_loss():
    synth = dataclasses.replace(SYNTH, n_clients=2, samples_per_client=12)
    ds = generate(synth)
    rng = substream(11, "cen2")
    w0 = nnet.random_net([3, 4, 3], ["tanh", "identity"], rng)
    wbar = nnet.random_net([3 + 4, 8, 2], ["tanh", "identity"], rng)
    center = CenterState(w0=w0, wbar=wbar)
    tables = center_broadcast(center, ds.global_store, ds.clients)
    vgrad_tables = []
    for shard in ds.clients:
        _, vg = client_update(
            shard,
            wbar,
            tables[shard.client_id],
            local_epochs=1,
            batch_size=10_000,
            eta=Schedule("constant", 0.05),
            combine="concat",
            batch_rng=substream(11, "b", shard.client_id),
        )
        vgrad_tables.append((shard, vg))

    eta0 = 1e-2
    stepped = central_update(w0, vgrad_tables, ds.global_store, eta0=eta0)

    def composed_loss(w0_variant):
        total = 0.0
        for shard in ds.clients:
            u0, _ = nnet.forward(w0_variant, ds.global_store.rows(shard.ids))
            out, _ = nnet.forward(wbar, np.hstack([u0, shard.x_local]))
            total += nnet.mse_loss(out, shard.y)[0]
        return total

    step = 1e-5
    for li, layer in enumerate(w0.layers):
        analytic = (layer.weights - stepped.layers[li].weights) / eta0
        fd = np.zeros_like(layer.weights)
        for (r, c), _ in np.ndenumerate(layer.weights):
            for sign in (+1.0, -1.0):
                w = layer.weights.copy()
                w[r, c] += sign * step
                layers = list(w0.layers)
                layers[li] = nnet.DenseLayer(w, layer.bias, layer.activation)
                fd[r, c] += sign * composed_loss(nnet.DenseNet(tuple(layers)))
        fd /= 2.0 * step
        rel = np.abs(fd - analytic) / np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-3)
        assert np.max(rel) < 1e-3


def test_central_update_rejects_duplicate_ids():
    w0 = nnet.DenseNet((nnet.DenseLayer(np.eye(2), np.zeros(2)),))
    store = GlobalStore(np.array([1]), np.ones((1, 2)))
    row = (ClientShard(0, np.array([1]), np.zeros((1, 1)), np.zeros((1, 1)), 1.0), np.ones((1, 2)))
    with pytest.raises(ValueError, match="duplicate vertical-gradient row for id 1"):
        central_update(w0, [row, row], store, eta0=0.1)


# ------------------------------------------------------------------ engines


def test_run_vhfl_deterministic():
    ds = generate(SYNTH)
    _, a = fedcore.run_vhfl(FED, ds)
    _, b = fedcore.run_vhfl(FED, ds)
    assert traces_equal(a, b, tol=0.0)
    assert len(a.rows) == FED.global_epochs


def test_run_vhfl_one_central_update_per_epoch():
    ds = generate(SYNTH)
    center, trace = fedcore.run_vhfl(FED, ds)
    assert center.epoch == FED.global_epochs
    assert center.central_updates == FED.global_epochs
    assert all(row.k_received == FED.k for row in trace.rows)


def test_run_vhfl_collapses_to_hfl_with_frozen_zero_center():
    synth = dataclasses.replace(SYNTH, global_strength=0.0)
    ds = generate(synth)
    fed = dataclasses.replace(
        FED, combine="additive", u0_dim=2, center_frozen=True, k=4, global_epochs=8
    )
    w0 = nnet.zeros_net([3, 8, 2], ["tanh", "identity"])
    wbar = nnet.random_net([4, 12, 2], ["tanh", "identity"], substream(FED.seed, "init", "wbar"))
    center = CenterState(w0=w0, wbar=wbar, combine="additive")
    _, vhfl_trace = fedcore.run_vhfl(fed, ds, center=center)
    _, hfl_trace = fedcore.run_hfl(fed, ds)
    assert traces_equal(vhfl_trace, hfl_trace, tol=1e-10)


def test_run_vhfl_loss_trend_over_seeds():
    synth = dataclasses.replace(
        SYNTH, n_clients=5, d_global=4, d_label=1, global_strength=0.8, noniid_shift=0.0, seed=50
    )
    fed = dataclasses.replace(
        FED,
        n_clients=5,
        k=5,
        local_epochs=3,
        batch_size=16,
        global_epochs=30,
        u0_dim=4,
        w0_hidden=(16,),
        local_hidden=(16,),
    )
    curves = []
    for seed in (1, 2, 3, 4, 5):
        ds = generate(dataclasses.replace(synth, seed=synth.seed + seed))
        _, trace = fedcore.run_vhfl(dataclasses.replace(fed, seed=seed), ds)
        losses = trace.column("train_mse")
        assert all(np.isfinite(losses))
        curves.append(losses)
    mean_curve = np.mean(curves, axis=0)
    moving = np.convolve(mean_curve, np.ones(5) / 5.0, mode="valid")
    assert np.all(np.diff(moving) <= 1e-9)


def test_run_hfl_deterministic_and_single_client_matches_cloud():
    synth = dataclasses.replace(SYNTH, n_clients=1, noniid_shift=0.0)
    ds = generate(synth)
    fed = dataclasses.replace(FED, n_clients=1, k=1, global_epochs=8)
    _, a = fedcore.run_hfl(fed, ds)
    _, b = fedcore.run_hfl(fed, ds)
    assert traces_equal(a, b, tol=0.0)
    _, cloud = fedcore.run_cloud(fed, ds, use_global=False)
    for ra, rc in zip(a.rows, cloud.rows):
        assert ra.train_mse == rc.train_mse
        assert ra.test_mse == rc.test_mse
        assert ra.test_error_ratio == rc.test_error_ratio


def test_run_hfl_single_step_equals_pooled_sgd():
    ds = generate(SYNTH)
    fed = dataclasses.replace(FED, k=5, local_epochs=1, batch_size=10_000, global_epochs=1)
    center, _ = fedcore.run_hfl(fed, ds)

    start = nnet.random_net(
        [4, *fed.local_hidden, 2],
        [fed.activation] * len(fed.local_hidden) + ["identity"],
        substream(fed.seed, "init", "wbar"),
    )
    gw = [np.zeros_like(l.weights) for l in start.layers]
    gb = [np.zeros_like(l.bias) for l in start.layers]
    for shard in ds.clients:
        out, trace = nnet.forward(start, shard.x_local)
        _, lgrad = nnet.mse_loss(out, shard.y)
        grads = nnet.backward(start, trace, lgrad)
        for i in range(len(gw)):
            gw[i] += shard.q * grads.weights[i]
            gb[i] += shard.q * grads.biases[i]
    manual = nnet.sgd_step(start, nnet.Gradients(tuple(gw), tuple(gb)), fed.eta.value(0))
    assert nets_equal(center.wbar, manual, atol=1e-10)


def test_run_cloud_global_fits_linear_realizable_task():
    rng = substream(0, "linear-task")
    n, d_l, d_g = 80, 2, 2
    a_true = rng.standard_normal((1, d_g))
    b_true = rng.standard_normal((1, d_l))
    ids = np.arange(n)
    x0 = rng.standard_normal((n, d_g))
    xl = rng.standard_normal((n, d_l))
    y = x0 @ a_true.T + xl @ b_true.T
    tids = np.arange(1000, 1010)
    ds = FederationDataset(
        clients=(ClientShard(0, ids, xl, y, 1.0),),
        test_clients=(ClientShard(0, tids, xl[:10], y[:10], 1.0),),
        global_store=GlobalStore(np.concatenate([ids, tids]), np.vstack([x0, x0[:10]])),
    )
    fed = FederationConfig(
        n_clients=1, k=1, local_epochs=5, batch_size=16, global_epochs=60,
        eta=Schedule("constant", 0.05), eta0=Schedule("constant", 0.05), seed=3,
        u0_dim=2, w0_hidden=(), local_hidden=(), activation="identity",
    )
    center, trace = fedcore.run_cloud(fed, ds, use_global=True)
    assert trace.final.train_mse < 1e-3

    # vertical gradients vanish at the converged fit
    u0 = nnet.forward(center.w0, x0)[0]
    _, vgrads = client_update(
        ds.clients[0],
        center.wbar,
        u0,
        local_epochs=1,
        batch_size=10_000,
        eta=Schedule("constant", 0.0),
        combine="concat",
        batch_rng=substream(3, "post"),
    )
    assert max(float(np.linalg.norm(v)) for v in vgrads) < 1e-4


def test_run_cloud_deterministic():
    ds = generate(SYNTH)
    fed = dataclasses.replace(FED, global_epochs=4)
    _, a = fedcore.run_cloud(fed, ds, use_global=True)
    _, b = fedcore.run_cloud(fed, ds, use_global=True)
    assert traces_equal(a, b, tol=0.0)


def test_channel_zero_deadline_keeps_previous_weights():
    ds = generate(SYNTH)
    channel = netqueue.ChannelModel(
        params=netqueue.He2Params(2.0, 0.5, 0.5, 8.0, 2.0), t_p=0.0, seed=2
    )
    fed = dataclasses.replace(FED, deadline_channel=channel, global_epochs=4)
    center, trace = fedcore.run_vhfl(fed, ds)
    assert all(row.k_received == 0 for row in trace.rows)
    assert center.central_updates == 0
    initial = nnet.random_net(
        [3 + 4, *FED.local_hidden, 2],
        [FED.activation] * len(FED.local_hidden) + ["identity"],
        substream(FED.seed, "init", "wbar"),
    )
    assert nets_equal(center.wbar, initial)


def test_channel_partial_delivery_counts():
    ds = generate(SYNTH)
    params = netqueue.He2Params(2.0, 0.5, 0.5, 8.0, 2.0)
    analysis = netqueue.analyze(params)
    t_p = netqueue.required_deadline(analysis, 0.7)
    channel = netqueue.ChannelModel(params=params, t_p=t_p, seed=3)
    fed = dataclasses.replace(FED, k=5, deadline_channel=channel, global_epochs=30)
    _, trace = fedcore.run_vhfl(fed, ds)
    ks = [row.k_received for row in trace.rows]
    assert all(0 <= k <= 5 for k in ks)
    assert 0.4 < float(np.mean(ks)) / 5.0 < 0.95


# ------------------------------------------------------------- evaluation


def test_predict_and_evaluate_perfect_model():
    ids = np.arange(6)
    x0 = substream(12, "ev").standard_normal((6, 2))
    xl = substream(13, "ev").standard_normal((6, 3))
    w0 = nnet.DenseNet((nnet.DenseLayer(np.eye(2), np.zeros(2)),))
    wbar = nnet.random_net([5, 2], ["identity"], substream(14, "ev"))
    center = CenterState(w0=w0, wbar=wbar, combine="concat")
    y = predict(center, x0, xl)
    shard = ClientShard(0, ids, xl, y, 1.0)
    store = GlobalStore(ids, x0)
    mse, ratio = evaluate(center, [shard], store)
    assert mse == 0.0
    assert ratio == 0.0


def test_evaluate_constant_zero_predictor_unit_labels():
    ids = np.arange(8)
    xl = substream(15, "ev2").standard_normal((8, 3))
    y = substream(16, "ev2").standard_normal((8, 2))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    center = CenterState(w0=None, wbar=nnet.zeros_net([3, 2], ["identity"]))
    shard = ClientShard(0, ids, xl, y, 1.0)
    mse, ratio = evaluate(center, [shard], None)
    assert abs(ratio - 1.0) < 1e-12
    assert abs(mse - 1.0) < 1e-12


def test_evaluate_equals_mean_of_per_sample_losses():
    ds = generate(SYNTH)
    rng = substream(17, "ev3")
    center = CenterState(
        w0=nnet.random_net([3, 5, 3], ["tanh", "identity"], rng),
        wbar=nnet.random_net([7, 9, 2], ["tanh", "identity"], rng),
        combine="concat",
    )
    mse, _ = evaluate(center, ds.test_clients, ds.global_store)
    losses = []
    for shard in ds.test_clients:
        for k, sample_id in enumerate(shard.ids):
            pred = predict(
                center,
                ds.global_store.get(int(sample_id))[None, :],
                shard.x_local[k : k + 1],
            )
            losses.append(float(np.sum((pred[0] - shard.y[k]) ** 2)))
    assert abs(mse - float(np.mean(losses))) < 1e-12


def test_predict_requires_global_features_when_center_has_w0():
    center = CenterState(
        w0=nnet.DenseNet((nnet.DenseLayer(np.eye(2), np.zeros(2)),)),
        wbar=nnet.zeros_net([5, 1], ["identity"]),
    )
    with pytest.raises(ValueError):
        predict(center, None, np.zeros((1, 3)))


@pytest.mark.parametrize("combine", ["concat", "additive"])
def test_predict_checks_its_inputs(combine):
    w0 = nnet.DenseNet((nnet.DenseLayer(np.eye(2), np.zeros(2)),))
    wbar = nnet.zeros_net([5 if combine == "concat" else 3, 2], ["identity"])
    for center in (CenterState(w0=w0, wbar=wbar, combine=combine), CenterState(w0=None, wbar=wbar)):
        x_global = np.zeros((1, 2)) if center.w0 is not None else None
        local_in = wbar.in_dim - (2 if center.w0 is not None and combine == "concat" else 0)
        assert predict(center, x_global, np.zeros((1, local_in))).shape == (1, 2)
        with pytest.raises(ValueError, match="columns"):
            predict(center, x_global, np.zeros((1, local_in + 1)))
        with pytest.raises(ValueError, match="non-finite"):
            predict(center, x_global, np.full((1, local_in), np.nan))
    center = CenterState(w0=w0, wbar=wbar, combine=combine)
    local_in = 3
    with pytest.raises(ValueError, match="columns"):
        predict(center, np.zeros((1, 3)), np.zeros((1, local_in)))
    with pytest.raises(ValueError, match="non-finite"):
        predict(center, np.full((1, 2), np.inf), np.zeros((1, local_in)))


# ----------------------------------------------------------- configuration


def test_schedule_values():
    constant = Schedule("constant", 0.05)
    assert constant.value(0) == constant.value(99) == 0.05
    inverse = Schedule("inverse", 1.0, t0=10.0)
    assert inverse.value(0) == 0.1
    assert inverse.value(10) == 0.05
    assert inverse.max_value() == 0.1
    with pytest.raises(ValueError):
        Schedule("linear", 0.1)
    with pytest.raises(ValueError):
        Schedule("inverse", 1.0, t0=0.0)


def test_federation_config_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(FED, k=6)
    with pytest.raises(ValueError):
        dataclasses.replace(FED, eta=Schedule("constant", 1.5))
    with pytest.raises(ValueError):
        dataclasses.replace(FED, eta=Schedule("constant", 0.0))
    with pytest.raises(ValueError):
        dataclasses.replace(FED, aggregator="mean")
    with pytest.raises(ValueError):
        dataclasses.replace(FED, combine="stack")
    # additive combining must match the label width
    ds = generate(SYNTH)
    bad = dataclasses.replace(FED, combine="additive", u0_dim=3)
    with pytest.raises(ValueError):
        fedcore.run_vhfl(bad, ds)


def test_trace_csv_roundtrip(tmp_path):
    ds = generate(SYNTH)
    fed = dataclasses.replace(FED, global_epochs=3)
    _, trace = fedcore.run_vhfl(fed, ds)
    path = tmp_path / "trace.csv"
    trace.to_csv(path, config_hash="deadbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef"
    assert lines[1] == "epoch,mode,train_mse,test_mse,test_error_ratio,k_received,seed"
    assert len(lines) == 2 + 3
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "vhfl" and first[6] == str(fed.seed)
    assert float(first[2]) == trace.rows[0].train_mse
