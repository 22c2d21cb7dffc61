"""The unchecked training loop against the validating public API.

``client_update`` and ``run_cloud`` step private copies of their nets with
lists of numpy operations over reused buffers, each batch's step emitted
by one function, ``fedcore._step_ops``. ``client_update`` steps a cohort's
clients of equal shard size as one stack: a size group takes its first
step through the public functions, and every later step runs its batch's
list, emitted the first time it runs and replayed in later local epochs.
``run_cloud`` emits each pooled batch's list once a round and replays it
every local epoch. These tests pin that this gives each client, and the
pooled nets, the same bits as stepping alone with the public functions,
for every layer form and batch cut the op lists are built from; that a
list is emitted only where it runs; that the caller's arrays are never
written; and that a diverging phase is reported by name, the reused
buffers carrying its non-finite values to the guard.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohorts import cohort_of, update
from nets import net_of
from vhfl_lab import fedcore, nnet
from vhfl_lab.datagen import ClientShard, GlobalStore, SynthConfig, generate
from vhfl_lab.fedcore import (
    CenterState,
    FederationConfig,
    Schedule,
    Upload,
    aggregate_weights,
    center_broadcast,
    central_update,
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
    return a.layers == b.layers and same_bits(a.params, b.params)


def snapshot(net: nnet.DenseNet) -> np.ndarray:
    return net.params.copy()


def unchanged(net: nnet.DenseNet, snap: np.ndarray) -> bool:
    return same_bits(net.params, snap)


# ------------------------------------------------- bit-exact client update


def shuffled_batches(seed, client_id, t_g, n, batch_size):
    """The row positions of each mini-batch of an n-row shard in round t_g:
    the permutation of the substream (seed, "batches", client_id, t_g), cut
    into batches with the short tail kept."""
    order = substream(seed, "batches", client_id, t_g).permutation(n)
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


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
            if side is None:
                out, trace = nnet.forward(net, x)
                _, lgrad = nnet.mse_loss(out, y)
                grad, _ = nnet.backward(net, trace, lgrad)
                side_grad = None
            elif fed.combine == "concat":
                out, trace = nnet.forward(net, np.hstack([side, x]))
                _, lgrad = nnet.mse_loss(out, y)
                grad, input_grad = nnet.backward(net, trace, lgrad, want_input_grad=True)
                side_grad = input_grad[:, : side.shape[1]]
            else:
                out, trace = nnet.forward(net, x)
                _, lgrad = nnet.mse_loss(side + out, y)
                grad, _ = nnet.backward(net, trace, lgrad)
                side_grad = lgrad
            if side_grad is not None:
                scale = ids.shape[0] / shard.n
                for k, sample_id in enumerate(ids):
                    key = int(sample_id)
                    row = side_grad[k] * scale
                    vgrad_sum[key] = vgrad_sum[key] + row if key in vgrad_sum else row
            net = nnet.sgd_step(net, grad, fed.eta.value(global_epoch * fed.local_epochs + epoch))
    vgrads = {key: row / fed.local_epochs for key, row in vgrad_sum.items()}
    return net, vgrads


@st.composite
def local_problems(draw):
    hidden_act = draw(st.sampled_from(nnet.ACTIVATIONS))
    out_act = draw(st.sampled_from(nnet.ACTIVATIONS))
    combine = draw(st.sampled_from(("concat", "additive", None)))
    hidden = draw(st.lists(st.integers(1, 5), max_size=2))
    batch_size = draw(st.integers(2, 6))
    # a cohort whose sizes repeat, so it trains as stacks and singletons:
    # full batches then a short last one, one full batch, or one short batch
    short = batch_size * draw(st.integers(0, 3)) + draw(st.integers(1, batch_size - 1))
    sizes = draw(st.lists(st.sampled_from((short, batch_size, 1)), min_size=1, max_size=5))
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
        "sizes": sizes,
        "d_local": d_local,
        "d_label": d_label,
        "u0_dim": u0_dim,
        "eta": eta,
        "local_epochs": draw(st.integers(1, 4)),
        "global_epoch": draw(st.integers(0, 3)),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=80, deadline=None)
@given(local_problems())
def test_client_update_matches_public_api_loop_bit_for_bit(problem):
    """Each upload of a cohort equals its client trained alone by the
    reference; where some client diverges, the first in cohort order is named."""
    rng = substream(problem["seed"], "prop")
    combine, sizes = problem["combine"], problem["sizes"]
    ids = rng.permutation(1000)
    ends = np.cumsum(sizes)
    # client ids out of order, so cohort order is not sorted order
    client_ids = rng.permutation(20)[: len(sizes)]
    shards = [
        ClientShard(
            client_id=int(j),
            ids=ids[end - n : end],
            x_local=rng.standard_normal((n, problem["d_local"])),
            y=rng.standard_normal((n, problem["d_label"])),
            q=1.0 / len(sizes),
        )
        for j, n, end in zip(client_ids, sizes, ends)
    ]
    u0 = None if combine is None else {
        shard.client_id: rng.standard_normal((shard.n, problem["u0_dim"])) for shard in shards
    }
    in_dim = problem["d_local"] + (problem["u0_dim"] if combine == "concat" else 0)
    dims = [in_dim, *problem["hidden"], problem["d_label"]]
    wbar = nnet.random_net(dims, problem["acts"], rng)
    fed = FederationConfig(
        n_clients=20,
        k=1,
        local_epochs=problem["local_epochs"],
        batch_size=problem["batch_size"],
        global_epochs=4,
        eta=problem["eta"],
        eta0=Schedule("constant", 0.02),
        seed=problem["seed"],
        combine=combine or "concat",
        u0_dim=problem["u0_dim"],
    )
    global_epoch = problem["global_epoch"]
    with np.errstate(all="ignore"):
        refs = [
            reference_or_none(fed, shard, wbar, None if u0 is None else u0[shard.client_id], global_epoch)
            for shard in shards
        ]
        diverged = [shard.client_id for shard, ref in zip(shards, refs) if ref is None]
        cohort, stacks = cohort_of(shards, u0)
        if diverged:
            named = rf"after client_update at global epoch {global_epoch}, client {diverged[0]}$"
            with pytest.raises(ValueError, match=named):
                update(fed, cohort, wbar, stacks, global_epoch)
            return
    uploads = update(fed, cohort, wbar, stacks, global_epoch)
    assert [upload.shard for upload in uploads] == shards
    for upload, (ref_net, ref_vgrads) in zip(uploads, refs):
        assert nets_same_bits(nnet.DenseNet(wbar.layers, upload.params), ref_net)
        if u0 is None:
            assert upload.vgrads is None and ref_vgrads == {}
        else:
            rows = np.vstack([ref_vgrads[int(i)] for i in upload.shard.ids])
            assert same_bits(upload.vgrads, rows)


def test_client_update_takes_one_public_step_per_size_group(monkeypatch):
    """Only the first client of each size group takes a step through the
    validating public API, and the local phase cuts one set of batches per
    size group."""
    ds = generate(SYNTH)
    shards = list(ds.clients[:3])
    cut = shards[1]
    shards[1] = ClientShard(cut.client_id, cut.ids[:13], cut.x_local[:13], cut.y[:13], cut.q)
    assert fedcore._size_groups(shards) == [[0, 2], [1]]
    rng = substream(13, "counts")
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    cohort, u0 = cohort_of(shards, {shard.client_id: rng.standard_normal((shard.n, 3)) for shard in shards})
    calls = {"mse_loss": 0, "batches": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(fedcore.nnet, "mse_loss", counting("mse_loss", nnet.mse_loss))
    monkeypatch.setattr(fedcore, "batches", counting("batches", fedcore.batches))
    update(FED, cohort, wbar, u0, 0)
    assert calls == {"mse_loss": 2, "batches": 2}


@pytest.mark.parametrize(
    "n, local_epochs, lists", [(13, 2, 3), (13, 3, 3), (13, 1, 2), (6, 2, 1), (6, 1, 0)]
)
def test_local_phase_emits_a_batch_list_once_and_only_where_it_runs(n, local_epochs, lists, monkeypatch):
    """A size group of B batches emits each batch's op list the first time it
    runs and replays it after: B lists at E_L >= 2, B - 1 at E_L = 1, whose
    first batch runs once, as the public first step, and none for one batch
    at E_L = 1."""
    ds = generate(SYNTH)
    shards = [ClientShard(s.client_id, s.ids[:n], s.x_local[:n], s.y[:n], s.q) for s in ds.clients[:2]]
    rng = substream(14, "emits", n)
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    cohort, u0 = cohort_of(shards, {shard.client_id: rng.standard_normal((n, 3)) for shard in shards})
    assert len(cohort.groups) == 1
    calls = []
    step_ops = fedcore._step_ops

    def counted(layers, grads, inp, *rest):
        calls.append(inp.shape)
        return step_ops(layers, grads, inp, *rest)

    monkeypatch.setattr(fedcore, "_step_ops", counted)
    update(dataclasses.replace(FED, local_epochs=local_epochs), cohort, wbar, u0, 0)
    assert len(calls) == lists


def reference_or_none(fed, shard, wbar, u0, global_epoch):
    """The reference update, or None where it diverges: a public step met
    non-finite values, or a vertical gradient is not finite."""
    try:
        net, vgrads = reference_client_update(fed, shard, wbar, u0, global_epoch)
    except ValueError:
        return None
    if not all(np.all(np.isfinite(row)) for row in vgrads.values()):
        return None
    return net, vgrads


# ---------------------------------------------------- bit-exact pooled phase


def reference_run_cloud(fed, ds, use_global):
    """The pooled phase as a plain loop over the public nnet functions: every
    training row in client order, batches shuffled by the substream
    (seed, "batches", 0, t_g), the global rows looked up by id per batch, and
    both nets stepped at the rate of the local epoch."""
    center = fedcore._new_center(fed, ds, use_global)
    wbar, w0 = center.wbar, center.w0
    pooled = ClientShard(
        client_id=0,
        ids=np.concatenate([shard.ids for shard in ds.clients]),
        x_local=np.vstack([shard.x_local for shard in ds.clients]),
        y=np.vstack([shard.y for shard in ds.clients]),
        q=1.0,
    )
    for t_g in range(fed.global_epochs):
        batch_list = shuffled_batches(fed.seed, 0, t_g, pooled.n, fed.batch_size)
        for epoch in range(fed.local_epochs):
            eta = fed.eta.value(t_g * fed.local_epochs + epoch)
            for idx in batch_list:
                x, y = pooled.x_local[idx], pooled.y[idx]
                if w0 is None:
                    out, trace = nnet.forward(wbar, x)
                    _, lgrad = nnet.mse_loss(out, y)
                    wbar = nnet.sgd_step(wbar, nnet.backward(wbar, trace, lgrad)[0], eta)
                    continue
                u0, trace0 = nnet.forward(w0, ds.global_store.rows(pooled.ids[idx]))
                if fed.combine == "concat":
                    out, trace = nnet.forward(wbar, np.hstack([u0, x]))
                    _, lgrad = nnet.mse_loss(out, y)
                    grad, input_grad = nnet.backward(wbar, trace, lgrad, want_input_grad=True)
                    side_grad = input_grad[:, : u0.shape[1]]
                else:
                    out, trace = nnet.forward(wbar, x)
                    _, lgrad = nnet.mse_loss(u0 + out, y)
                    grad, _ = nnet.backward(wbar, trace, lgrad)
                    side_grad = lgrad
                grad0, _ = nnet.backward(w0, trace0, side_grad)
                wbar = nnet.sgd_step(wbar, grad, eta)
                w0 = nnet.sgd_step(w0, grad0, eta)
    return wbar, w0


# every layer form the pooled step's op lists are built from: one hidden layer
# per net (FED's), none, or two; batches of 6 rows with a short tail of 2 (the
# 80 pooled rows), of 8 rows with no tail, or one batch of all 80 rows
FORMS = {
    "one_hidden": {},
    "no_hidden": {"w0_hidden": (), "local_hidden": ()},
    "two_hidden": {"w0_hidden": (6, 4), "local_hidden": (6, 4)},
    "batch_8": {"batch_size": 8},
    "one_batch": {"batch_size": 100},
}
CLOUD_CASES = [
    # FED's own form adds nothing to the case id
    pytest.param(*case, id="-".join(map(str, case if FORMS[case[-1]] else case[:-1])))
    for case in itertools.product([True, False], ["concat", "additive"], ["tanh", "relu", "identity"], FORMS)
]


@pytest.mark.parametrize("use_global, combine, activation, form", CLOUD_CASES)
def test_run_cloud_matches_public_api_loop_bit_for_bit(use_global, combine, activation, form):
    ds = generate(SYNTH)
    assert sum(shard.n for shard in ds.clients) == 80
    # additive combining needs u0_dim == d_label
    fed = dataclasses.replace(
        FED,
        combine=combine,
        activation=activation,
        u0_dim=SYNTH.d_label if combine == "additive" else 3,
        **FORMS[form],
    )
    center, _ = fedcore.run_cloud(fed, ds, use_global)
    wbar, w0 = reference_run_cloud(fed, ds, use_global)
    assert nets_same_bits(center.wbar, wbar)
    if use_global:
        assert nets_same_bits(center.w0, w0)
    else:
        assert center.w0 is None and w0 is None


# --------------------------------------------------------------- no aliasing


def test_client_and_central_update_leave_caller_arrays_unchanged():
    ds = generate(SYNTH)
    rng = substream(8, "alias")
    w0 = nnet.random_net([2, 5, 3], ["tanh", "identity"], rng)
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    center = CenterState(w0=w0, wbar=wbar)
    w0_snap, wbar_snap = snapshot(w0), snapshot(wbar)
    cohort = fedcore.build_split(ds.clients, ds.global_store)
    u0 = center_broadcast(center, cohort)
    u0_snap = [rows.copy() for rows in u0]
    cohort_snap = [(group.x_local.copy(), group.y.copy()) for group in cohort.groups]
    fed = dataclasses.replace(
        FED, local_epochs=3, eta=Schedule("constant", 0.1), eta0=Schedule("constant", 0.1)
    )
    uploads = update(fed, cohort, wbar, u0, 0)
    for upload in uploads:
        assert not np.shares_memory(upload.params, wbar.params)
    assert unchanged(wbar, wbar_snap)
    assert all(same_bits(rows, snap) for rows, snap in zip(u0, u0_snap))
    for group, (x_local, y) in zip(cohort.groups, cohort_snap):
        assert same_bits(group.x_local, x_local) and same_bits(group.y, y)
    stepped = central_update(fed, w0, uploads, ds.global_store, 0)
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


@pytest.mark.parametrize("mode", ["cloud", "cloud_local", "vhfl", "hfl"])
def test_no_round_rewrites_a_net_an_earlier_round_handed_to_the_center(mode, monkeypatch):
    """The nets of a round hold views of that round's buffers, so a later
    round must train on fresh ones."""
    ds = generate(SYNTH)
    handed = []
    weighted_train_loss = fedcore.weighted_train_loss

    def snapshotting_loss(config, center, split):
        handed.extend((net, snapshot(net)) for net in (center.wbar, center.w0) if net is not None)
        return weighted_train_loss(config, center, split)

    started = []
    client_update = fedcore.client_update

    def recording_update(config, cohort, wbar, u0, rngs, t_g):
        uploads = client_update(config, cohort, wbar, u0, rngs, t_g)
        started.append((wbar, uploads))
        return uploads

    monkeypatch.setattr(fedcore, "weighted_train_loss", snapshotting_loss)
    monkeypatch.setattr(fedcore, "client_update", recording_update)
    runs = {
        "cloud": lambda: fedcore.run_cloud(FED, ds, use_global=True),
        "cloud_local": lambda: fedcore.run_cloud(FED, ds, use_global=False),
        "vhfl": lambda: fedcore.run_vhfl(FED, ds),
        "hfl": lambda: fedcore.run_hfl(FED, ds),
    }
    runs[mode]()
    with_w0 = mode in ("cloud", "vhfl")
    assert len(handed) == FED.global_epochs * (2 if with_w0 else 1)
    assert all(unchanged(net, snap) for net, snap in handed)
    assert len(started) == (0 if mode.startswith("cloud") else FED.global_epochs)
    for wbar, uploads in started:
        for upload in uploads:
            assert not np.shares_memory(upload.params, wbar.params)


def test_run_vhfl_leaves_caller_arrays_unchanged():
    ds = generate(SYNTH)
    rng = substream(10, "alias-vhfl")
    w0 = nnet.random_net([2, 5, 3], ["tanh", "identity"], rng)
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    w0_snap, wbar_snap = snapshot(w0), snapshot(wbar)
    fedcore._run(FED, ds, CenterState(w0=w0, wbar=wbar), pooled=False)
    assert unchanged(w0, w0_snap) and unchanged(wbar, wbar_snap)


# ------------------------------------------------------------- phase guards


DIVERGING = dataclasses.replace(
    FED, activation="identity", l_est=0.001, eta=Schedule("constant", 900.0)
)


def test_guard_names_client_update_epoch_and_client():
    ds = generate(SYNTH)
    shard = ds.clients[2]
    wbar = nnet.random_net([3 + 3, 6, 2], ["identity", "identity"], substream(11, "guard"))
    cohort, u0 = cohort_of([shard], {2: substream(11, "u0").standard_normal((shard.n, 3))})
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"non-finite values after client_update at global epoch 7, client 2$"):
            fed = dataclasses.replace(DIVERGING, local_epochs=3, batch_size=4)
            update(fed, cohort, wbar, u0, 7)


def test_guard_names_the_first_diverging_client_in_cohort_order():
    # clients 5 and 9 share a size and train as one stack; client 4 trains
    # alone, after them. Huge features make clients 4 and 9 diverge, and
    # client 5, first in the cohort, must stay finite beside client 9
    rng = substream(12, "cohort-guard")

    def shard(client_id, ids, scale):
        x = scale * rng.standard_normal((len(ids), 2))
        return ClientShard(client_id, np.array(ids), x, rng.standard_normal((len(ids), 1)), 0.25)

    shards = [shard(5, [0, 1, 2, 3], 1.0), shard(4, [4, 5, 6], 1e6), shard(9, [7, 8, 9, 10], 1e6)]
    assert fedcore._size_groups(shards) == [[0, 2], [1]]
    wbar = nnet.random_net([2, 3, 1], ["identity", "identity"], rng)
    fed = dataclasses.replace(FED, activation="identity", batch_size=2, local_epochs=3)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"after client_update at global epoch 1, client 4$"):
            update(fed, fedcore.build_split(shards, None), wbar, None, 1)


@pytest.mark.parametrize("diverged_first", [True, False], ids=["diverged_first", "diverged_second"])
def test_guard_names_a_diverged_client_in_either_place_of_its_size_group(diverged_first):
    # a 2 -> 1 identity net of ones sums each row's features, so rows of 1e308
    # overflow on the first step. The two 2-row shards train as one stack,
    # whose first client takes that step through the validating public API
    wbar = net_of((np.ones((1, 2)), np.ones(1)))
    diverging = ClientShard(7, np.array([0, 1]), np.full((2, 2), 1e308), np.zeros((2, 1)), 0.5)
    finite = ClientShard(3, np.array([2, 3]), np.ones((2, 2)), np.zeros((2, 1)), 0.5)
    shards = [diverging, finite] if diverged_first else [finite, diverging]
    fed = dataclasses.replace(FED, activation="identity", batch_size=2)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"^non-finite values after client_update at global epoch 0, client 7$"):
            update(fed, fedcore.build_split(shards, None), wbar, None, 0)


def test_client_update_keeps_the_first_steps_shape_errors():
    wbar = net_of((np.ones((1, 3)), np.ones(1)))
    shards = [ClientShard(j, np.array([2 * j, 2 * j + 1]), np.ones((2, 2)), np.zeros((2, 1)), 0.5) for j in (0, 1)]
    with pytest.raises(ValueError, match=r"^batch has 2 columns, net expects 3$"):
        update(dataclasses.replace(FED, batch_size=2), fedcore.build_split(shards, None), wbar, None, 0)


def test_guard_stops_a_diverging_run_at_its_first_client():
    ds = generate(SYNTH)
    first = fedcore.select_clients(FED, substream(FED.seed, "select", 0))[0]
    for run in (fedcore.run_vhfl, fedcore.run_hfl):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=rf"client_update at global epoch 0, client {first}$"):
                run(DIVERGING, ds)
    # the pooled phase reuses its buffers every step, and they must carry the
    # non-finite values to the guard, with w0 and without it
    for use_global in (True, False):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=r"non-finite values after run_cloud at global epoch 0$"):
                fedcore.run_cloud(DIVERGING, ds, use_global=use_global)


def test_guard_names_aggregation_and_central_step():
    big = net_of((np.full((2, 2), 1e308), np.zeros(2)))
    unbiased = dataclasses.replace(FED, k=1, aggregator="paper_unbiased")
    uploads = [
        Upload(ClientShard(j, np.array([j]), np.zeros((1, 1)), np.zeros((1, 1)), 0.5), big.params, None)
        for j in (1, 3)
    ]
    with pytest.raises(ValueError, match=r"after aggregate_weights at global epoch 4, clients \[1, 3\]$"):
        with np.errstate(all="ignore"):
            aggregate_weights(unbiased, big, uploads, 4)
    store = GlobalStore(np.array([5]), np.ones((1, 2)))
    shard = ClientShard(3, np.array([5]), np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
    fed = dataclasses.replace(FED, eta0=Schedule("constant", 1.0))
    with pytest.raises(ValueError, match=r"after central_update at global epoch 2, client 3$"):
        with np.errstate(all="ignore"):
            central_update(fed, big, [Upload(shard, big.params, np.full((1, 2), -1e308))], store, 2)
