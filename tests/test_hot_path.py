"""The unchecked training loop against the validating public API.

``client_update``, ``central_update`` and ``run_cloud`` step private copies
of their nets with the ``nnet`` kernels. These tests pin that this gives
the same bits as stepping with the public functions, that the caller's
arrays are never written, and that a diverging phase is reported by name.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vhfl_lab import fedcore, nnet
from vhfl_lab.datagen import ClientShard, GlobalStore, SynthConfig, batches, generate
from vhfl_lab.fedcore import (
    CenterState,
    FederationConfig,
    Schedule,
    aggregate_weights,
    center_broadcast,
    central_update,
    client_update,
)
from vhfl_lab.rng import substream

SYNTH = SynthConfig(
    n_clients=4,
    samples_per_client=25,
    d_local=3,
    d_global=2,
    d_label=2,
    noise_std=0.1,
    global_strength=0.5,
    noniid_shift=0.3,
    seed=31,
)

FED = FederationConfig(
    n_clients=4,
    k=3,
    local_epochs=2,
    batch_size=6,
    global_epochs=3,
    eta=Schedule("constant", 0.05),
    eta0=Schedule("constant", 0.02),
    seed=5,
    u0_dim=3,
    w0_hidden=(5,),
    local_hidden=(6,),
    activation="tanh",
)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and identical bytes, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def nets_same_bits(a: nnet.DenseNet, b: nnet.DenseNet) -> bool:
    return a.n_layers == b.n_layers and all(
        la.activation == lb.activation
        and same_bits(la.weights, lb.weights)
        and same_bits(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


def snapshot(net: nnet.DenseNet) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(layer.weights.copy(), layer.bias.copy()) for layer in net.layers]


def unchanged(net: nnet.DenseNet, snap: list[tuple[np.ndarray, np.ndarray]]) -> bool:
    return all(
        same_bits(layer.weights, w) and same_bits(layer.bias, b)
        for layer, (w, b) in zip(net.layers, snap)
    )


# ------------------------------------------------- bit-exact client update


def reference_client_update(shard, wbar, u0, local_epochs, batch_size, eta, combine, seed, global_epoch):
    """Local SGD as a plain loop over the public nnet functions, with the
    vertical gradients accumulated per sample in an id-keyed dict."""
    table = None if u0 is None else {int(i): u0[k] for k, i in enumerate(shard.ids)}
    net = wbar
    batch_list = batches(shard, None, batch_size, substream(seed, "prop-batches"))
    vgrad_sum: dict[int, np.ndarray] = {}
    for epoch in range(local_epochs):
        for b in batch_list:
            side = None if table is None else np.vstack([table[int(i)] for i in b.ids])
            if side is None:
                out, trace = nnet.forward(net, b.x_local)
                _, lgrad = nnet.mse_loss(out, b.y)
                grads = nnet.backward(net, trace, lgrad)
                side_grad = None
            elif combine == "concat":
                out, trace = nnet.forward(net, np.hstack([side, b.x_local]))
                _, lgrad = nnet.mse_loss(out, b.y)
                grads = nnet.backward(net, trace, lgrad, want_input_grad=True)
                side_grad = grads.input_grad[:, : side.shape[1]]
            else:
                out, trace = nnet.forward(net, b.x_local)
                _, lgrad = nnet.mse_loss(side + out, b.y)
                grads = nnet.backward(net, trace, lgrad)
                side_grad = lgrad
            if side_grad is not None:
                scale = b.ids.shape[0] / shard.n
                for k, sample_id in enumerate(b.ids):
                    key = int(sample_id)
                    row = side_grad[k] * scale
                    vgrad_sum[key] = vgrad_sum[key] + row if key in vgrad_sum else row
            eta_t = eta.value(global_epoch * local_epochs + epoch)
            if eta_t > 0.0:
                net = nnet.sgd_step(net, grads, eta_t)
    vgrads = {key: row / local_epochs for key, row in vgrad_sum.items()}
    return net, vgrads


@st.composite
def local_problems(draw):
    hidden_act = draw(st.sampled_from(nnet.ACTIVATIONS))
    out_act = draw(st.sampled_from(nnet.ACTIVATIONS))
    combine = draw(st.sampled_from(("concat", "additive", None)))
    hidden = draw(st.lists(st.integers(1, 5), max_size=2))
    batch_size = draw(st.integers(2, 6))
    # full batches, then a short last one
    n = batch_size * draw(st.integers(0, 3)) + draw(st.integers(1, batch_size - 1))
    d_local = draw(st.integers(1, 3))
    d_label = draw(st.integers(1, 3))
    u0_dim = d_label if combine == "additive" else draw(st.integers(1, 3))
    eta = draw(
        st.sampled_from(
            (Schedule("constant", 0.05), Schedule("constant", 0.3), Schedule("inverse", 0.5, t0=2.0))
        )
    )
    return {
        "acts": [hidden_act] * len(hidden) + [out_act],
        "hidden": hidden,
        "combine": combine,
        "batch_size": batch_size,
        "n": n,
        "d_local": d_local,
        "d_label": d_label,
        "u0_dim": u0_dim,
        "eta": eta,
        "local_epochs": draw(st.integers(2, 4)),
        "global_epoch": draw(st.integers(0, 3)),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=80, deadline=None)
@given(local_problems())
def test_client_update_matches_public_api_loop_bit_for_bit(problem):
    rng = substream(problem["seed"], "prop")
    n, combine = problem["n"], problem["combine"]
    ids = rng.permutation(1000)[:n]
    shard = ClientShard(
        client_id=7,
        ids=ids,
        x_local=rng.standard_normal((n, problem["d_local"])),
        y=rng.standard_normal((n, problem["d_label"])),
        q=1.0,
    )
    u0 = None if combine is None else rng.standard_normal((n, problem["u0_dim"]))
    in_dim = problem["d_local"] + (problem["u0_dim"] if combine == "concat" else 0)
    dims = [in_dim, *problem["hidden"], problem["d_label"]]
    wbar = nnet.random_net(dims, problem["acts"], rng)
    args = (shard, wbar, u0, problem["local_epochs"], problem["batch_size"], problem["eta"])
    kwargs = dict(
        combine=combine or "concat",
        batch_rng=substream(problem["seed"], "prop-batches"),
        global_epoch=problem["global_epoch"],
    )
    with np.errstate(all="ignore"):
        try:
            ref_net, ref_vgrads = reference_client_update(
                *args, combine, problem["seed"], problem["global_epoch"]
            )
        except ValueError:  # a public step met non-finite values: the run diverged
            ref_net, ref_vgrads = None, {}
        if ref_net is None or not all(np.all(np.isfinite(row)) for row in ref_vgrads.values()):
            with pytest.raises(ValueError, match="^non-finite values after client_update"):
                client_update(*args, **kwargs)
            return
    net, vgrads = client_update(*args, **kwargs)
    assert nets_same_bits(net, ref_net)
    if u0 is None:
        assert vgrads is None and ref_vgrads == {}
    else:
        assert same_bits(vgrads, np.vstack([ref_vgrads[int(i)] for i in shard.ids]))


# --------------------------------------------------------------- no aliasing


def test_client_and_central_update_leave_caller_arrays_unchanged():
    ds = generate(SYNTH)
    rng = substream(8, "alias")
    w0 = nnet.random_net([2, 5, 3], ["tanh", "identity"], rng)
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    center = CenterState(w0=w0, wbar=wbar)
    w0_snap, wbar_snap = snapshot(w0), snapshot(wbar)
    u0 = center_broadcast(center, ds.global_store, ds.clients)
    u0_snap = {j: rows.copy() for j, rows in u0.items()}
    uploads = []
    for shard in ds.clients:
        net, vgrads = client_update(
            shard, wbar, u0[shard.client_id], 3, 6, Schedule("constant", 0.1),
            batch_rng=substream(8, "b", shard.client_id),
        )
        assert not any(np.shares_memory(a.weights, b.weights) for a, b in zip(net.layers, wbar.layers))
        uploads.append((shard, vgrads))
    assert unchanged(wbar, wbar_snap)
    assert all(same_bits(u0[j], u0_snap[j]) for j in u0)
    stepped = central_update(w0, uploads, ds.global_store, eta0=0.1)
    assert not nets_same_bits(stepped, w0)
    assert unchanged(w0, w0_snap)


@pytest.mark.parametrize("use_global", [True, False])
def test_run_cloud_leaves_its_initial_nets_unchanged(use_global, monkeypatch):
    ds = generate(SYNTH)
    built = []
    random_net = nnet.random_net

    def recording_random_net(dims, activations, rng):
        net = random_net(dims, activations, rng)
        built.append((net, snapshot(net)))
        return net

    monkeypatch.setattr(nnet, "random_net", recording_random_net)
    out, _ = fedcore.run_cloud(FED, ds, use_global)
    assert len(built) == (2 if use_global else 1)  # w0 is built before wbar
    assert all(unchanged(net, snap) for net, snap in built)
    assert not nets_same_bits(out.wbar, built[-1][0])
    if use_global:
        assert not nets_same_bits(out.w0, built[0][0])


def test_run_vhfl_leaves_caller_arrays_unchanged():
    ds = generate(SYNTH)
    rng = substream(10, "alias-vhfl")
    w0 = nnet.random_net([2, 5, 3], ["tanh", "identity"], rng)
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    w0_snap, wbar_snap = snapshot(w0), snapshot(wbar)
    fedcore.run_vhfl(FED, ds, center=CenterState(w0=w0, wbar=wbar))
    assert unchanged(w0, w0_snap) and unchanged(wbar, wbar_snap)


# ------------------------------------------------------------- phase guards


DIVERGING = dataclasses.replace(
    FED, activation="identity", l_est=0.001, eta=Schedule("constant", 900.0)
)


def test_guard_names_client_update_epoch_and_client():
    ds = generate(SYNTH)
    shard = ds.clients[2]
    wbar = nnet.random_net([3 + 3, 6, 2], ["identity", "identity"], substream(11, "guard"))
    u0 = substream(11, "u0").standard_normal((shard.n, 3))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"non-finite values after client_update at global epoch 7, client 2$"):
            client_update(
                shard, wbar, u0, 3, 4, DIVERGING.eta, batch_rng=0, global_epoch=7
            )


def test_guard_stops_a_diverging_run_at_its_first_client():
    ds = generate(SYNTH)
    first = fedcore.select_clients(FED.n_clients, FED.k, FED.seed, 0)[0]
    for run in (fedcore.run_vhfl, fedcore.run_hfl):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=rf"client_update at global epoch 0, client {first}$"):
                run(DIVERGING, ds)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"non-finite values after run_cloud at global epoch 0, client 0$"):
            fedcore.run_cloud(DIVERGING, ds, use_global=True)


def test_guard_names_aggregation_and_central_step():
    big = nnet.DenseNet((nnet.DenseLayer(np.full((2, 2), 1e308), np.zeros(2)),))
    with pytest.raises(ValueError, match=r"after aggregate_weights at global epoch 4, clients \[1, 3\]$"):
        with np.errstate(all="ignore"):
            aggregate_weights(
                [(0.5, big), (0.5, big)], k=1, n_clients=4, aggregator="paper_unbiased",
                global_epoch=4, client_ids=[1, 3],
            )
    store = GlobalStore(np.array([5]), np.ones((1, 2)))
    shard = ClientShard(3, np.array([5]), np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
    with pytest.raises(ValueError, match=r"after central_update at global epoch 2, client 3$"):
        with np.errstate(all="ignore"):
            central_update(big, [(shard, np.full((1, 2), -1e308))], store, eta0=1.0, global_epoch=2)
