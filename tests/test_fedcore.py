from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohorts import by_client, deliver, split_of, streams, update
from nets import arrays, net_of, ones_column
from vhfl_lab import fedcore, netqueue, nnet
from vhfl_lab.datagen import ClientShard, FederationDataset, GlobalStore, SynthConfig, generate
from vhfl_lab.fedcore import (
    CenterState,
    FederationConfig,
    Schedule,
    Upload,
    aggregate_weights,
    center_broadcast,
    central_update,
    evaluate,
    select_clients,
)
from vhfl_lab.rng import generators, substream

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


def zero_layer(in_dim: int, out_dim: int, activation: str = "identity") -> tuple:
    return np.zeros((out_dim, in_dim)), np.zeros(out_dim), activation


def one_row_shard(client_id: int, q: float = 1.0) -> ClientShard:
    return ClientShard(client_id, np.array([client_id]), np.zeros((1, 1)), np.zeros((1, 1)), q)


def weight_uploads(qs, nets) -> list[Upload]:
    """Uploads of the given nets from one-row shards weighted by ``qs``."""
    return [Upload(one_row_shard(j, q), net.params, None) for j, (q, net) in enumerate(zip(qs, nets))]


# central_update reads only an upload's shard and vertical gradients
STUB_PARAMS = np.zeros(2)


def nets_equal(a: nnet.DenseNet, b: nnet.DenseNet, atol: float = 0.0) -> bool:
    if a.layers != b.layers:
        return False
    if atol == 0.0:
        return np.array_equal(a.params, b.params)
    return np.allclose(a.params, b.params, atol=atol, rtol=0.0)


def traces_equal(a: list[fedcore.TraceRow], b: list[fedcore.TraceRow], tol: float = 0.0) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
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


def selected(config, t_g):
    """Round ``t_g``'s cohort, drawn from a fresh stream (seed, "select", t_g)."""
    return select_clients(config, substream(config.seed, "select", t_g))


def test_select_all_when_k_equals_n():
    assert selected(dataclasses.replace(FED, n_clients=6, k=6, seed=0), t_g=3) == tuple(range(6))


def test_select_deterministic():
    fed = dataclasses.replace(FED, k=1, seed=4)
    first = selected(fed, t_g=9)
    assert all(selected(fed, t_g=9) == first for _ in range(5))
    # the selection is keyed by the round, so rounds differ
    assert len({selected(fed, t_g=t) for t in range(20)}) >= 2


def test_select_uniform_frequencies():
    fed = dataclasses.replace(FED, k=2, seed=1)
    counts = np.zeros(5)
    draws, chunk = 100_000, 10_000
    for start in range(0, draws, chunk):
        # the streams of `chunk` rounds, seeded in one pass as a run seeds them
        for rng in streams([(fed.seed, "select", t) for t in range(start, start + chunk)]):
            for j in select_clients(fed, rng):
                counts[j] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.4) < 0.01)


# ---------------------------------------------------------------- run plan


def unequal_dataset(sizes, seed) -> FederationDataset:
    """Hand-built shards of the given sizes, test shards of the same sizes."""
    rng = substream(seed, "unequal-dataset")
    ids = rng.permutation(10 * sum(sizes))[: 2 * sum(sizes)]
    ends = np.cumsum((*sizes, *sizes))
    shards = [
        ClientShard(
            j % len(sizes), ids[end - n : end], rng.standard_normal((n, 4)), rng.standard_normal((n, 2)), n / sum(sizes)
        )
        for j, (n, end) in enumerate(zip((*sizes, *sizes), ends))
    ]
    store = GlobalStore(ids, rng.standard_normal((len(ids), 3)))
    return FederationDataset(tuple(shards[: len(sizes)]), tuple(shards[len(sizes) :]), store)


LOSSY = netqueue.ChannelModel(2.0, 0.5, 0.5, 8.0, 2.0, t_p=0.4, seed=6)
# shards of four sizes, so that most cohorts span several size groups
UNEQUAL = unequal_dataset((5, 9, 2, 5, 17, 9, 9, 1), 23)


def same_state(got, key) -> bool:
    return got.bit_generator.state == substream(*key).bit_generator.state


def recording(monkeypatch, name, record):
    """Patch ``fedcore.<name>`` with a wrapper that hands its arguments to
    ``record`` and then calls the original."""
    original = getattr(fedcore, name)

    def wrapper(*args):
        record(*args)
        return original(*args)

    monkeypatch.setattr(fedcore, name, wrapper)


def reference_delivered(channel, cohorts) -> np.ndarray:
    """Each round's deliveries, one ``apply_channel`` call per round over the
    cohort's client ids, with the delay streams of that round."""
    rows = []
    for t_g, cohort in enumerate(cohorts):
        kept = set(deliver(channel, list(cohort), t_g))
        rows.append([client_id in kept for client_id in cohort])
    return np.array(rows, dtype=bool)


def test_plan_seeds_every_rounds_streams_as_substream(monkeypatch):
    k = 5
    # more uploads than two channel blocks hold
    rounds = 2 * netqueue._CHANNEL_BLOCK // k + 1
    fed = dataclasses.replace(FED, n_clients=8, k=k, global_epochs=rounds, deadline_channel=LOSSY)
    select_states, channels, calls = [], [], []
    recording(monkeypatch, "select_clients", lambda config, rng: select_states.append(rng.bit_generator.state))
    recording(monkeypatch, "apply_channel", lambda channel, states: channels.append(states.shape))
    sample_sojourn = netqueue.sample_sojourn

    def recorded_sojourn(analysis, rngs):
        calls.append([r.bit_generator.state for r in rngs])
        return sample_sojourn(analysis, rngs)

    monkeypatch.setattr(netqueue, "sample_sojourn", recorded_sojourn)
    plan = fedcore.plan_run(fed, pooled=False)
    # every round selects from its fresh stream (seed, "select", t_g), in round order
    assert select_states == [substream(fed.seed, "select", t_g).bit_generator.state for t_g in range(rounds)]
    assert plan.batch_states.shape == (rounds, k, 4) and plan.delivered.shape == (rounds, k)
    for t_g, cohort in enumerate(plan.cohorts):
        assert cohort == selected(fed, t_g)
        batch_rngs = plan.streams(t_g)
        for client_id, batch_rng in zip(cohort, batch_rngs, strict=True):
            assert same_state(batch_rng, (fed.seed, "batches", client_id, t_g))
    # a generator holds state: each round's are built afresh from its rows
    assert plan.streams(2)[0].random() == plan.streams(2)[0].random()
    # the delays are drawn before round 0 by one apply_channel call, each
    # upload (t_g, client_id) from a fresh stream (seed, "channel", t_g,
    # client_id); its generators are built a block at a time, in upload order
    assert channels == [(rounds * k, 4)]
    block = netqueue._CHANNEL_BLOCK
    assert [len(rngs) for rngs in calls] == [block, block, rounds * k - 2 * block]
    uploads = [(t_g, client_id) for t_g, cohort in enumerate(plan.cohorts) for client_id in cohort]
    states = [state for rngs in calls for state in rngs]
    assert states == [substream(LOSSY.seed, "channel", *upload).bit_generator.state for upload in uploads]
    assert np.array_equal(plan.delivered, reference_delivered(LOSSY, plan.cohorts))
    assert 0 < plan.delivered.sum() < plan.delivered.size
    channels.clear()
    pooled = fedcore.plan_run(fed, pooled=True)
    assert pooled.cohorts == ((0,),) * rounds and pooled.delivered.shape == (rounds, 1) and pooled.delivered.all()
    assert len(select_states) == rounds  # the pooled shard is not selected
    assert all(same_state(pooled.streams(t_g)[0], (fed.seed, "batches", 0, t_g)) for t_g in range(rounds))
    lossless = dataclasses.replace(fed, deadline_channel=dataclasses.replace(LOSSY, t_p=math.inf))
    assert fedcore.plan_run(lossless, pooled=False).delivered.all()
    assert fedcore.plan_run(dataclasses.replace(fed, deadline_channel=None), pooled=False).delivered.all()
    # no delay is drawn without a lossy channel or for a cloud mode
    assert channels == []


def test_rounds_hand_each_client_its_planned_streams(monkeypatch):
    """Shards of unequal sizes train in size groups, out of cohort order; each
    still draws from its own (round, client) streams, fresh at the round's
    start, and a round keeps the uploads its plan delivers."""
    ds = UNEQUAL
    fed = dataclasses.replace(FED, n_clients=8, k=5, global_epochs=4, batch_size=4, deadline_channel=LOSSY)
    # a plan is a pure function of the config: this is the one the run makes
    plan = fedcore.plan_run(fed, pooled=False)
    seen, aggregated = [], []

    def record_update(config, train, cohort, wbar, inputs, rngs, t_g, phase):
        assert len({train._slots[client_id][1] for client_id in cohort}) > 1
        assert tuple(cohort) == selected(config, t_g)
        seen.extend(same_state(r, (config.seed, "batches", c, t_g)) for c, r in zip(cohort, rngs, strict=True))

    # the run decides every delivery in one call, in round and then cohort order
    uploads = [(t_g, client_id) for t_g, cohort in enumerate(plan.cohorts) for client_id in cohort]

    def record_channel(channel, states):
        rngs = generators(states)
        seen.extend(same_state(r, (channel.seed, "channel", *upload)) for upload, r in zip(uploads, rngs, strict=True))

    recording(monkeypatch, "client_update", record_update)
    recording(monkeypatch, "apply_channel", record_channel)
    recording(
        monkeypatch,
        "aggregate_weights",
        lambda config, wbar, uploads, t_g: aggregated.append((t_g, [u.shard.client_id for u in uploads])),
    )
    _, trace = fedcore.run_vhfl(fed, ds)
    assert len(seen) == 2 * fed.k * fed.global_epochs and all(seen)
    assert [row.k_received for row in trace] == plan.delivered.sum(axis=1).tolist()
    assert any(row.k_received < fed.k for row in trace)
    kept = [(t_g, [c for c, d in zip(cohort, plan.delivered[t_g]) if d]) for t_g, cohort in enumerate(plan.cohorts)]
    assert aggregated == [(t_g, ids) for t_g, ids in kept if ids]


# ---------------------------------------------------------------- broadcast


def test_broadcast_identity_center():
    ds = generate(SYNTH)
    center = CenterState(
        w0=net_of((np.eye(3), np.zeros(3))),
        wbar=net_of(zero_layer(7, 2)),
    )
    split = fedcore.build_split(ds.clients[:2], ds.global_store)
    tables = by_client(split, [inp[..., :3] for inp, _ in center_broadcast(FED, center, split)])
    for shard in ds.clients[:2]:
        assert np.array_equal(tables[shard.client_id], ds.global_store.rows(shard.ids))


def test_broadcast_matches_per_sample_forward():
    ds = generate(SYNTH)
    rng = substream(2, "bc")
    center = CenterState(
        w0=nnet.random_net([3, 6, 3], ["tanh", "identity"], rng),
        wbar=net_of(zero_layer(7, 2)),
    )
    split = fedcore.build_split(ds.clients, ds.global_store)
    inputs = center_broadcast(FED, center, split)
    # under concat, one (G, n, u0_dim + d_local + 1) input stack [u0 | x_local | 1] per size group
    assert [(inp.shape, side) for inp, side in inputs] == [
        ((len(group.positions), group.x_local.shape[1], 3 + 4 + 1), None) for group in split.groups
    ]
    assert all(np.array_equal(inp[..., 3:-1], group.x_local) for (inp, _), group in zip(inputs, split.groups))
    assert all(np.all(inp[..., -1] == 1.0) for inp, _ in inputs)
    tables = by_client(split, [inp[..., :3] for inp, _ in inputs])
    assert set(tables) == {shard.client_id for shard in ds.clients}
    for shard in ds.clients:
        assert tables[shard.client_id].shape == (shard.n, 3)
        for k, sample_id in enumerate(shard.ids):
            row = ds.global_store.rows([sample_id])
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
    _, input_grad = nnet.backward(net, trace, lgrad, want_input_grad=True)
    return input_grad[:, :u0_dim]


def test_client_update_one_full_batch_steps_once_from_the_initial_vgrads():
    ds = generate(SYNTH)
    shard = ds.clients[0]
    rng = substream(3, "cu")
    wbar = nnet.random_net([3 + 4, 12, 2], ["tanh", "identity"], rng)
    u0 = np.vstack([rng.standard_normal(3) for _ in shard.ids])
    fed = dataclasses.replace(FED, local_epochs=1, batch_size=10_000)
    train, inputs = split_of(fed, [shard], {shard.client_id: u0})
    (upload,) = update(fed, train, wbar, inputs, 0)
    assert upload.shard is shard
    expected = manual_full_batch_vgrads(wbar, shard, u0, u0_dim=3)
    for k, row in enumerate(expected):
        assert np.allclose(upload.vgrads[k], row, atol=1e-12)
    out, trace = nnet.forward(wbar, np.hstack([u0, shard.x_local]))
    grad, _ = nnet.backward(wbar, trace, nnet.mse_loss(out, shard.y)[1])
    assert nets_equal(nnet.DenseNet(wbar.layers, upload.params), nnet.sgd_step(wbar, grad, FED.eta.value(0)), atol=1e-12)


@pytest.mark.parametrize("extra", [-1, 1])
def test_client_update_rejects_u0_with_the_wrong_row_count(extra):
    """Input or side stacks whose row count is not the train split's would
    be read through a clipped index: they are rejected up front."""
    ds = generate(SYNTH)
    shards = list(ds.clients[:2])
    rng = substream(3, "cu-rows")
    wbar = nnet.random_net([3 + 4, 12, 2], ["tanh", "identity"], rng)
    n = shards[0].n
    train, _ = split_of(FED, shards)
    concat = [(rng.standard_normal((2, n + extra, 7)), None)]
    labels = rf"the train split's labels \[\(2, {n}, 2\)\]$"
    named = rf"^input stacks have shapes \[\(\(2, {n + extra}, 7\), None\)\], {labels}"
    with pytest.raises(ValueError, match=named):
        update(FED, train, wbar, concat, 0)
    additive = dataclasses.replace(FED, combine="additive", u0_dim=2)
    _, inputs = split_of(additive, shards, {shard.client_id: rng.standard_normal((n + extra, 2)) for shard in shards})
    with pytest.raises(ValueError, match=rf"\(\(2, {n}, 5\), \(2, {n + extra}, 2\)\)\], the train split's labels"):
        update(additive, train, net_of(zero_layer(4, 2)), inputs, 0)


def test_client_update_rejects_u0_stacks_that_do_not_match_the_cohort():
    """A side stack must have the labels' shape, and the stacks must be one
    pair per size group of the train split."""
    ds = generate(SYNTH)
    shards = list(ds.clients[:2])
    rng = substream(3, "cu-stacks")
    wbar = net_of(zero_layer(4, 2))
    n = shards[0].n
    fed = dataclasses.replace(FED, combine="additive", u0_dim=2)
    train, inputs = split_of(fed, shards, {shard.client_id: rng.standard_normal((n, 3)) for shard in shards})
    labels = rf"the train split's labels \[\(2, {n}, 2\)\]$"
    with pytest.raises(ValueError, match=rf"^input stacks have shapes \[\(\(2, {n}, 5\), \(2, {n}, 3\)\)\], {labels}"):
        update(fed, train, wbar, inputs, 0)
    x_local = inputs[0][0]
    with pytest.raises(ValueError, match=rf"shapes \[\(\(2, {n}, 5\), None\), \(\(2, {n}, 5\), None\)\], {labels}"):
        update(fed, train, wbar, [(x_local, None)] * 2, 0)
    with pytest.raises(ValueError, match=rf"^input stacks have shapes \[\], {labels}"):
        update(fed, train, wbar, [], 0)


def cohort_case():
    """FED for a train split of four 10-row clients, ids 0 to 3, the split,
    wbar's inputs without u0 and a wbar of their shapes."""
    ds = generate(SynthConfig(4, 10, 2, 2, 1, seed=1))
    fed = dataclasses.replace(FED, n_clients=4, k=2)
    train, inputs = split_of(fed, ds.clients)
    return fed, train, inputs, net_of(zero_layer(2, 1))


def test_client_update_rejects_a_cohort_id_outside_the_train_split():
    fed, train, inputs, wbar = cohort_case()
    with pytest.raises(ValueError, match=r"^cohort ids \[7, 9\] are not in the train split$"):
        update(fed, train, wbar, inputs, 0, [9, 1, 7])


def test_client_update_rejects_a_cohort_that_names_a_client_twice():
    # trained twice, a client would upload twice, and aggregation and the
    # run-long central step would count both uploads
    fed, train, inputs, wbar = cohort_case()
    with pytest.raises(ValueError, match=r"^cohort names ids \[1\] more than once$"):
        update(fed, train, wbar, inputs, 0, [1, 1])
    with pytest.raises(ValueError, match=r"^cohort names ids \[0, 3\] more than once$"):
        update(fed, train, wbar, inputs, 0, [3, 0, 2, 3, 0])


@pytest.mark.parametrize("count", [1, 3])
def test_client_update_needs_one_stream_per_cohort_client(count):
    fed, train, inputs, wbar = cohort_case()
    rngs = streams([(fed.seed, "batches", client_id, 0) for client_id in range(count)])
    with pytest.raises(ValueError, match=rf"^2 cohort clients need as many batch streams, got {count}$"):
        fedcore.client_update(fed, train, [0, 1], wbar, inputs, rngs, 0)


def test_client_update_rejects_a_client_without_samples():
    # the batcher cuts no batch from 0 rows, so only this check stops the
    # client from uploading wbar unchanged
    wbar = net_of(zero_layer(2, 1))
    empty = ClientShard(3, np.array([], dtype=np.int64), np.zeros((0, 2)), np.zeros((0, 1)), 1.0)
    with pytest.raises(ValueError, match="^client 3 has no samples$"):
        train, inputs = split_of(FED, [empty])
        update(FED, train, wbar, inputs, 0)


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
    fed = dataclasses.replace(FED, batch_size=16)
    train, inputs = split_of(fed, [fitted], {fitted.client_id: u0})
    (upload,) = update(fed, train, wbar, inputs, 0)
    assert nets_equal(nnet.DenseNet(wbar.layers, upload.params), wbar)
    for row in upload.vgrads:
        assert np.array_equal(row, np.zeros_like(row))


def test_client_vertical_gradient_matches_finite_differences():
    ds = generate(SYNTH)
    shard = ds.clients[2]
    rng = substream(5, "cu3")
    wbar = nnet.random_net([3 + 4, 10, 2], ["tanh", "identity"], rng)
    u0 = np.vstack([rng.standard_normal(3) for _ in shard.ids])
    fed = dataclasses.replace(FED, local_epochs=1, batch_size=10_000)
    train, inputs = split_of(fed, [shard], {shard.client_id: u0})
    vgrads = update(fed, train, wbar, inputs, 0)[0].vgrads

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
    out = aggregate_weights(FED, net, weight_uploads([0.2, 0.5, 0.3], [net] * 3), 0)
    assert nets_equal(out, net, atol=1e-15)


def test_aggregate_opposite_uploads_cancel():
    rng = substream(7, "agg2")
    net = nnet.random_net([4, 3], ["identity"], rng)
    negated = net_of(*((-w, -b, layer.activation) for layer, (w, b) in zip(net.layers, arrays(net))))
    out = aggregate_weights(FED, net, weight_uploads([0.5, 0.5], [net, negated]), 0)
    for w, b in arrays(out):
        assert np.allclose(w, 0.0, atol=1e-15)
        assert np.allclose(b, 0.0, atol=1e-15)


def test_aggregate_uniform_weights_is_plain_mean():
    rng = substream(8, "agg3")
    n = 5
    nets = [nnet.random_net([3, 2], ["identity"], rng) for _ in range(n)]
    received = nets[:3]
    uploads = weight_uploads([1.0 / n] * 3, received)
    out = aggregate_weights(FED, nets[0], uploads, 0)
    mean_w = sum(arrays(net)[0][0] for net in received) / 3
    assert np.allclose(arrays(out)[0][0], mean_w, atol=1e-12, rtol=0.0)
    # the unbiased variant keeps the (n/k) q_j scaling instead, with FED's n = 5, k = 3
    unbiased = aggregate_weights(dataclasses.replace(FED, aggregator="paper_unbiased"), nets[0], uploads, 0)
    scaled = sum(arrays(net)[0][0] for net in received) * (n / 3) * (1 / n)
    assert np.allclose(arrays(unbiased)[0][0], scaled, atol=1e-12, rtol=0.0)


def test_aggregate_unbiased_keeps_scale_when_uploads_are_lost():
    # of N = 5 clients of equal weight, K = 3 trained the same net and one was delivered
    net = nnet.random_net([3, 4, 2], ["tanh", "identity"], substream(8, "agg-lost"))
    fed = dataclasses.replace(FED, aggregator="paper_unbiased")
    out = aggregate_weights(fed, net, weight_uploads([1.0 / FED.n_clients], [net]), 0)
    assert nets_equal(out, net)


def test_aggregate_empty_set_rejected():
    with pytest.raises(ValueError):
        aggregate_weights(FED, net_of(zero_layer(1, 1)), [], 0)


def test_aggregate_multiset_permutation_invariance():
    rng = substream(9, "agg4")
    nets = [nnet.random_net([4, 4, 2], ["tanh", "identity"], rng) for _ in range(4)]
    qs = [0.1, 0.2, 0.3, 0.4]
    uploads = weight_uploads(qs, nets)
    a = aggregate_weights(FED, nets[0], uploads, 0)
    b = aggregate_weights(FED, nets[0], [uploads[i] for i in (2, 0, 3, 1)], 0)
    assert nets_equal(a, b, atol=1e-12)


@st.composite
def upload_sets(draw):
    """Two to six uploads of random nets of one shape, with random weights q,
    a permutation of them, and one of the nets."""
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    count = draw(st.integers(2, 6))
    qs = draw(st.lists(st.floats(0.01, 1.0), min_size=count, max_size=count))
    rng = substream(draw(st.integers(0, 2**16)), "agg-prop")
    nets = [
        net_of(*((rng.normal(0.0, 3.0, (o, i)), rng.normal(0.0, 3.0, o), "tanh") for i, o in zip(dims, dims[1:])))
        for _ in range(count)
    ]
    return weight_uploads(qs, nets), draw(st.permutations(range(count))), nets[0]


@settings(max_examples=60, deadline=None)
@given(upload_sets())
def test_renormalized_aggregate_is_a_convex_combination(problem):
    uploads, _, net = problem
    out = aggregate_weights(FED, net, uploads, 0)
    total = sum(u.shard.q for u in uploads)
    stacked = np.stack([u.params for u in uploads])
    combined = sum((u.shard.q / total) * p for u, p in zip(uploads, stacked))
    assert np.allclose(out.params, combined, atol=1e-12, rtol=0.0)
    assert np.all(stacked.min(axis=0) - 1e-12 <= out.params)
    assert np.all(out.params <= stacked.max(axis=0) + 1e-12)


@settings(max_examples=60, deadline=None)
@given(upload_sets(), st.sampled_from(fedcore.AGGREGATORS))
def test_aggregate_is_permutation_invariant(problem, aggregator):
    uploads, order, net = problem
    fed = dataclasses.replace(FED, aggregator=aggregator)
    a = aggregate_weights(fed, net, uploads, 0)
    b = aggregate_weights(fed, net, [uploads[i] for i in order], 0)
    assert nets_equal(a, b, atol=1e-12)


def scaled_uploads(fed, uploads) -> list[np.ndarray]:
    """Each upload's vector times its aggregation coefficient."""
    qs = [u.shard.q for u in uploads]
    if fed.aggregator == "renormalized":
        coeffs = [q / sum(qs) for q in qs]
    else:
        coeffs = [fed.n_clients / len(qs) * q for q in qs]
    return [coeff * u.params for coeff, u in zip(coeffs, uploads)]


@pytest.mark.parametrize("dims", [(1, 1), (3, 4, 2)], ids=["two_params", "wide"])
@pytest.mark.parametrize("aggregator", fedcore.AGGREGATORS)
def test_aggregate_adds_the_uploads_in_upload_order(dims, aggregator):
    """Eleven uploads whose vectors span eight orders of magnitude, on the
    smallest net and a wider one: the aggregate has the bits of a loop that
    adds them into zeros in upload order, and the data tells that loop from
    a pairwise sum."""
    rng = substream(24, "agg-order")
    nets = [
        net_of(*((scale * rng.standard_normal((o, i)), scale * rng.standard_normal(o)) for i, o in zip(dims, dims[1:])))
        for scale in 10.0 ** rng.uniform(-4.0, 4.0, size=11)
    ]
    uploads = weight_uploads(rng.uniform(0.1, 1.0, size=11), nets)
    fed = dataclasses.replace(FED, aggregator=aggregator)
    terms = scaled_uploads(fed, uploads)
    loop = np.zeros_like(nets[0].params)
    for term in terms:
        loop += term
    assert aggregate_weights(fed, nets[0], uploads, 0).params.tobytes() == loop.tobytes()
    # np.add.reduce over one contiguous row of terms adds pairwise
    pairwise = np.add.reduce(np.array(terms).T.copy(), axis=1)
    assert pairwise.tobytes() != loop.tobytes()


def test_aggregate_starts_from_plus_zero():
    """Every upload holds -0.0 in its first parameter: a sum from +0.0, as
    the loop's, gives +0.0 there, where a sum of the terms alone keeps
    -0.0; one upload too."""
    for k in (1, 3, 9):
        nets = [net_of((np.array([[-0.0]]), np.array([1.0 + j]))) for j in range(k)]
        out = aggregate_weights(FED, nets[0], weight_uploads([1.0 / k] * k, nets), 0)
        assert out.params[0] == 0.0 and not np.signbit(out.params[0]), k


# ----------------------------------------------------------- central update


def test_central_update_zero_vgrads_no_change():
    rng = substream(10, "cen")
    w0 = nnet.random_net([3, 5, 3], ["tanh", "identity"], rng)
    ds = generate(SYNTH)
    shard = ds.clients[0]
    fed = dataclasses.replace(FED, eta0=Schedule("constant", 0.05))
    out = central_update(fed, w0, [Upload(shard, STUB_PARAMS, np.zeros((shard.n, 3)))], ds.global_store, 0)
    assert nets_equal(out, w0)


def test_central_update_identity_layer_outer_product():
    w0 = net_of((np.eye(3), np.zeros(3)))
    ids = np.array([11])
    x0 = np.array([[0.5, -1.0, 2.0]])
    store = GlobalStore(ids, x0)
    shard = ClientShard(0, ids, np.zeros((1, 1)), np.zeros((1, 1)), 1.0)
    vrow = np.array([1.0, -2.0, 0.25])
    eta0 = 0.1
    fed = dataclasses.replace(FED, eta0=Schedule("constant", eta0))
    out = central_update(fed, w0, [Upload(shard, STUB_PARAMS, vrow[None, :])], store, 0)
    expected_grad = np.outer(vrow, x0[0])
    ((w, b),) = arrays(out)
    assert np.allclose(w, np.eye(3) - eta0 * expected_grad, atol=1e-14)
    assert np.allclose(b, -eta0 * vrow, atol=1e-14)


def test_central_update_matches_finite_differences_of_composed_loss():
    synth = dataclasses.replace(SYNTH, n_clients=2, samples_per_client=12)
    ds = generate(synth)
    rng = substream(11, "cen2")
    w0 = nnet.random_net([3, 4, 3], ["tanh", "identity"], rng)
    wbar = nnet.random_net([3 + 4, 8, 2], ["tanh", "identity"], rng)
    center = CenterState(w0=w0, wbar=wbar)
    train = fedcore.build_split(ds.clients, ds.global_store)
    eta0 = 1e-2
    fed = dataclasses.replace(
        FED, n_clients=2, k=2, local_epochs=1, batch_size=10_000, eta0=Schedule("constant", eta0)
    )
    uploads = update(fed, train, wbar, center_broadcast(fed, center, train), 0)
    stepped = central_update(fed, w0, uploads, ds.global_store, 0)

    def composed_loss(w0_variant):
        total = 0.0
        for shard in ds.clients:
            u0, _ = nnet.forward(w0_variant, ds.global_store.rows(shard.ids))
            out, _ = nnet.forward(wbar, np.hstack([u0, shard.x_local]))
            total += nnet.mse_loss(out, shard.y)[0]
        return total

    step = 1e-5
    analytic_grads = w0.views((w0.params - stepped.params) / eta0)
    for li, (block, analytic) in enumerate(zip(w0.views(w0.params), analytic_grads)):
        # every weight and bias of the layer's block
        fd = np.zeros_like(block)
        for (r, c), _ in np.ndenumerate(block):
            for sign in (+1.0, -1.0):
                params = w0.params.copy()
                w0.views(params)[li][r, c] += sign * step
                fd[r, c] += sign * composed_loss(nnet.DenseNet(w0.layers, params))
        fd /= 2.0 * step
        rel = np.abs(fd - analytic) / np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-3)
        assert np.max(rel) < 1e-3


@pytest.mark.parametrize("rows, cols", [(2, 3), (1, 2)], ids=["rows", "columns"])
def test_central_update_rejects_vertical_gradients_of_another_shape(rows, cols):
    """A fresh central step checks each upload's rows against its shard and
    w0's output width, naming the client."""
    w0 = net_of((np.eye(3), np.zeros(3)))
    store = GlobalStore(np.array([1]), np.ones((1, 3)))
    upload = Upload(one_row_shard(1), STUB_PARAMS, np.ones((rows, cols)))
    named = rf"^vertical gradients of client 1 have shape \({rows}, {cols}\), expected \(1, 3\)$"
    with pytest.raises(ValueError, match=named):
        central_update(FED, w0, [upload], store, 0)


def test_central_update_rejects_duplicate_ids():
    w0 = net_of((np.eye(2), np.zeros(2)))
    store = GlobalStore(np.array([1]), np.ones((1, 2)))
    row = Upload(one_row_shard(1), STUB_PARAMS, np.ones((1, 2)))
    with pytest.raises(ValueError, match="duplicate vertical-gradient row for id 1"):
        central_update(FED, w0, [row, row], store, 0)


# ------------------------------------------------------------------ engines


def test_run_vhfl_deterministic():
    ds = generate(SYNTH)
    _, a = fedcore.run_vhfl(FED, ds)
    _, b = fedcore.run_vhfl(FED, ds)
    assert traces_equal(a, b, tol=0.0)
    assert len(a) == FED.global_epochs


def central_steps(monkeypatch) -> list[int]:
    """The global epochs of the central steps the rounds take from now on."""
    epochs: list[int] = []
    step = fedcore.central_update

    def counted(config, w0, uploads, store, t_g, phase):
        epochs.append(t_g)
        return step(config, w0, uploads, store, t_g, phase)

    monkeypatch.setattr(fedcore, "central_update", counted)
    return epochs


def test_run_vhfl_one_central_update_per_epoch(monkeypatch):
    steps = central_steps(monkeypatch)
    _, trace = fedcore.run_vhfl(FED, generate(SYNTH))
    assert steps == list(range(FED.global_epochs))
    assert [row.epoch for row in trace] == steps
    assert all(row.k_received == FED.k for row in trace)


def test_run_vhfl_collapses_to_hfl_with_frozen_zero_center(monkeypatch):
    synth = dataclasses.replace(SYNTH, global_strength=0.0)
    ds = generate(synth)
    fed = dataclasses.replace(FED, combine="additive", u0_dim=2, k=4, global_epochs=8)
    # a frozen center: the central step hands w0 back unchanged
    monkeypatch.setattr(fedcore, "central_update", lambda config, w0, uploads, store, t_g, phase: w0)
    w0 = net_of(zero_layer(3, 8, "tanh"), zero_layer(8, 2))
    wbar = nnet.random_net([4, 12, 2], ["tanh", "identity"], substream(FED.seed, "init", "wbar"))
    _, vhfl_trace = fedcore._run(fed, ds, CenterState(w0=w0, wbar=wbar), pooled=False)
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
        losses = [row.train_mse for row in trace]
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
    for ra, rc in zip(a, cloud):
        assert ra.train_mse == rc.train_mse
        assert ra.test_mse == rc.test_mse
        assert ra.test_error_ratio == rc.test_error_ratio


def test_federated_runs_need_client_ids_0_to_n_minus_1():
    """A round selects its cohort from range(N), so a federated run rejects
    other training client ids by name before it trains; the same ids in
    another order run, and so do the cloud modes, which pool the shards."""
    ds = generate(SynthConfig(3, 10, 2, 2, 1, seed=1))
    fed = dataclasses.replace(FED, n_clients=3, k=2, global_epochs=2)

    def relabelled(ids):
        clients = tuple(dataclasses.replace(shard, client_id=c) for shard, c in zip(ds.clients, ids))
        return dataclasses.replace(ds, clients=clients)

    shifted = relabelled([10, 11, 12])
    named = r"^federated training needs client ids 0\.\.2, the dataset has \[10, 11, 12\]$"
    for run in (fedcore.run_vhfl, fedcore.run_hfl):
        with pytest.raises(ValueError, match=named):
            run(fed, shifted)
    assert len(fedcore.run_cloud(fed, shifted, use_global=True)[1]) == 2
    for run in (fedcore.run_vhfl, fedcore.run_hfl):
        assert len(run(fed, relabelled([2, 1, 0]))[1]) == 2


def test_run_hfl_single_step_equals_pooled_sgd():
    ds = generate(SYNTH)
    fed = dataclasses.replace(FED, k=5, local_epochs=1, batch_size=10_000, global_epochs=1)
    center, _ = fedcore.run_hfl(fed, ds)

    start = nnet.random_net(
        [4, *fed.local_hidden, 2],
        [fed.activation] * len(fed.local_hidden) + ["identity"],
        substream(fed.seed, "init", "wbar"),
    )
    total = np.zeros_like(start.params)
    for shard in ds.clients:
        out, trace = nnet.forward(start, shard.x_local)
        _, lgrad = nnet.mse_loss(out, shard.y)
        total += shard.q * nnet.backward(start, trace, lgrad)[0]
    manual = nnet.sgd_step(start, total, fed.eta.value(0))
    assert nets_equal(center.wbar, manual, atol=1e-10)


@pytest.mark.parametrize("use_global", [True, False])
def test_full_batch_round_with_every_client_equals_pooled_step(use_global):
    # K=N, one local epoch of full batches, no channel, renormalized weights
    # and equal shards: the aggregated wbar takes the pooled gradient step
    ds = generate(SYNTH)
    assert len({shard.n for shard in ds.clients}) == 1
    fed = dataclasses.replace(FED, k=FED.n_clients, local_epochs=1, batch_size=10_000, global_epochs=1)
    run = fedcore.run_vhfl if use_global else fedcore.run_hfl
    federated, _ = run(fed, ds)
    cloud, _ = fedcore.run_cloud(fed, ds, use_global=use_global)
    assert nets_equal(federated.wbar, cloud.wbar, atol=1e-12)
    assert not nets_equal(federated.wbar, fedcore._new_center(fed, ds, use_global).wbar, atol=1e-6)


def test_evaluation_guard_names_the_epoch():
    # client updates stay finite, but the aggregated net's predictions overflow
    synth = SynthConfig(n_clients=3, samples_per_client=20, d_local=3, d_global=2, d_label=1, seed=6)
    fed = FederationConfig(
        n_clients=3, k=3, local_epochs=2, batch_size=8, global_epochs=30,
        eta=Schedule("constant", 900.0), eta0=Schedule("constant", 0.02), seed=1,
        u0_dim=3, w0_hidden=(8,), local_hidden=(8,), activation="identity", l_est=0.001,
    )
    with pytest.raises(ValueError, match=r"^non-finite values after evaluate at global epoch 0$"):
        fedcore.run_vhfl(fed, generate(synth))


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
    assert trace[-1].train_mse < 1e-3

    # vertical gradients vanish at the converged fit
    # one full batch: the gradients are taken before the step
    u0 = nnet.forward(center.w0, x0)[0]
    fed = dataclasses.replace(fed, local_epochs=1, batch_size=10_000)
    train, inputs = split_of(fed, ds.clients[:1], {0: u0})
    vgrads = update(fed, train, center.wbar, inputs, 0)[0].vgrads
    assert max(float(np.linalg.norm(v)) for v in vgrads) < 1e-4


def test_run_cloud_deterministic():
    ds = generate(SYNTH)
    fed = dataclasses.replace(FED, global_epochs=4)
    _, a = fedcore.run_cloud(fed, ds, use_global=True)
    _, b = fedcore.run_cloud(fed, ds, use_global=True)
    assert traces_equal(a, b, tol=0.0)


def test_channel_zero_deadline_keeps_previous_weights(monkeypatch):
    ds = generate(SYNTH)
    channel = netqueue.ChannelModel(2.0, 0.5, 0.5, 8.0, 2.0, t_p=0.0, seed=2)
    fed = dataclasses.replace(FED, deadline_channel=channel, global_epochs=4)
    steps = central_steps(monkeypatch)
    center, trace = fedcore.run_vhfl(fed, ds)
    assert all(row.k_received == 0 for row in trace)
    assert steps == []
    initial = nnet.random_net(
        [3 + 4, *FED.local_hidden, 2],
        [FED.activation] * len(FED.local_hidden) + ["identity"],
        substream(FED.seed, "init", "wbar"),
    )
    assert nets_equal(center.wbar, initial)


def test_channel_partial_delivery_counts():
    ds = generate(SYNTH)
    analysis = netqueue.analyze(netqueue.He2Params(2.0, 0.5, 0.5, 8.0, 2.0))
    t_p = netqueue.required_deadline(analysis, 0.7)
    channel = netqueue.ChannelModel(2.0, 0.5, 0.5, 8.0, 2.0, t_p=t_p, seed=3)
    fed = dataclasses.replace(FED, k=5, deadline_channel=channel, global_epochs=30)
    _, trace = fedcore.run_vhfl(fed, ds)
    ks = [row.k_received for row in trace]
    assert all(0 <= k <= 5 for k in ks)
    assert 0.4 < float(np.mean(ks)) / 5.0 < 0.95


# ------------------------------------------------------------- evaluation


def test_predict_and_evaluate_perfect_model():
    ids = np.arange(6)
    x0 = substream(12, "ev").standard_normal((6, 2))
    xl = substream(13, "ev").standard_normal((6, 3))
    w0 = net_of((np.eye(2), np.zeros(2)))
    wbar = nnet.random_net([5, 2], ["identity"], substream(14, "ev"))
    center = CenterState(w0=w0, wbar=wbar)
    store = GlobalStore(ids, x0)
    # the predictions, as residuals against zero labels
    zero_labels = fedcore.build_split([ClientShard(0, ids, xl, np.zeros((6, 2)), 1.0)], store)
    ((_, y),) = fedcore._residuals(FED, center, zero_labels)
    shard = ClientShard(0, ids, xl, y[0], 1.0)
    mse, ratio = evaluate(FED, center, fedcore.build_split([shard], store))
    assert mse == 0.0
    assert ratio == 0.0


def test_evaluate_constant_zero_predictor_unit_labels():
    ids = np.arange(8)
    xl = substream(15, "ev2").standard_normal((8, 3))
    y = substream(16, "ev2").standard_normal((8, 2))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    center = CenterState(w0=None, wbar=net_of(zero_layer(3, 2)))
    shard = ClientShard(0, ids, xl, y, 1.0)
    mse, ratio = evaluate(FED, center, fedcore.build_split([shard], None))
    assert abs(ratio - 1.0) < 1e-12
    assert abs(mse - 1.0) < 1e-12


def test_evaluate_equals_mean_of_per_sample_losses():
    ds = generate(SYNTH)
    rng = substream(17, "ev3")
    center = CenterState(
        w0=nnet.random_net([3, 5, 3], ["tanh", "identity"], rng),
        wbar=nnet.random_net([7, 9, 2], ["tanh", "identity"], rng),
    )
    split = fedcore.build_split(ds.test_clients, ds.global_store)
    mse, _ = evaluate(FED, center, split)
    losses = []
    for shard in ds.test_clients:
        for k in range(shard.n):
            one = slice(k, k + 1)
            row = ClientShard(shard.client_id, shard.ids[one], shard.x_local[one], shard.y[one], 1.0)
            losses.append(float(np.sum(reference_residuals(FED, center, row, ds.global_store) ** 2)))
    assert abs(mse - float(np.mean(losses))) < 1e-12


def plain_output(net: nnet.DenseNet, x: np.ndarray) -> np.ndarray:
    """A net's output on 2-d rows, layer by layer on fresh arrays, each
    layer's rows with a ones column times its block [Wᵀ; b], as a reference."""
    a = x
    for layer, block in zip(net.layers, net.views(net.params)):
        z = ones_column(a) @ block
        if layer.activation == "tanh":
            a = np.tanh(z)
        elif layer.activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = z
    return a


def reference_residuals(fed, center, shard, store) -> np.ndarray:
    """One shard's y_hat - y from its own forward pass."""
    if center.w0 is None:
        return plain_output(center.wbar, shard.x_local) - shard.y
    u0 = plain_output(center.w0, store.rows(shard.ids))
    if fed.combine == "concat":
        return plain_output(center.wbar, np.hstack([u0, shard.x_local])) - shard.y
    return u0 + plain_output(center.wbar, shard.x_local) - shard.y


def reference_evaluate(fed, center, shards, store) -> tuple[float, float]:
    sq_sum = ratio_sum = 0.0
    count = 0
    for shard in shards:
        diff = reference_residuals(fed, center, shard, store)
        sq_sum += float(np.sum(diff * diff))
        scales = np.maximum(np.linalg.norm(shard.y, axis=1), 1e-8)
        ratio_sum += float(np.sum(np.linalg.norm(diff, axis=1) / scales))
        count += shard.n
    return sq_sum / count, ratio_sum / count


def reference_train_loss(fed, center, shards, store) -> float:
    total = 0.0
    for shard in shards:
        diff = reference_residuals(fed, center, shard, store)
        total += shard.q * float(np.sum(diff * diff)) / shard.n
    return total


# sizes repeat out of order, so groups interleave in shard order
UNEQUAL_SIZES = (5, 9, 2, 5, 17, 9, 9, 1)


@pytest.mark.parametrize("combine", ["concat", "additive", None])
def test_grouped_evaluation_matches_per_shard_reference(combine):
    rng = substream(18, "grouped-eval")
    ids = rng.permutation(500)[: sum(UNEQUAL_SIZES)]
    store = GlobalStore(ids, rng.standard_normal((len(ids), 3)))
    ends = np.cumsum(UNEQUAL_SIZES)
    shards = [
        ClientShard(j, ids[end - n : end], rng.standard_normal((n, 4)), rng.standard_normal((n, 1)), 0.1 + j)
        for j, (n, end) in enumerate(zip(UNEQUAL_SIZES, ends))
    ]
    u0_dim = 1 if combine == "additive" else 3
    fed = dataclasses.replace(FED, combine=combine or "concat", u0_dim=u0_dim)
    w0 = None if combine is None else nnet.random_net([3, 16, u0_dim], ["tanh", "identity"], rng)
    in_dim = 4 + (u0_dim if combine == "concat" else 0)
    # a one-column output over 16 hidden units: one pooled (M, 16) @ (16, 1)
    # pass over all shards' rows would round some rows differently
    center = CenterState(w0=w0, wbar=nnet.random_net([in_dim, 16, 1], ["relu", "identity"], rng))
    split = fedcore.build_split(shards, store)
    mse, ratio = evaluate(fed, center, split)
    assert (mse, ratio) == reference_evaluate(fed, center, shards, store)
    loss = fedcore.weighted_train_loss(fed, center, split)
    assert loss == reference_train_loss(fed, center, shards, store)
    if combine is not None:
        inputs = center_broadcast(fed, center, split)
        assert len(inputs) == len(split.groups)
        u0 = by_client(split, [inp[..., :u0_dim] if side is None else side for inp, side in inputs])
        for shard in shards:
            assert u0[shard.client_id].tobytes() == plain_output(w0, store.rows(shard.ids)).tobytes()
    with pytest.raises(ValueError, match="^no samples to evaluate$"):
        evaluate(fed, center, fedcore.build_split([], store))


def test_evaluation_sums_shards_in_order_as_a_loop_does():
    """Forty shards of unequal sizes whose terms span four orders of magnitude,
    so the order of the additions shows in the last bits: both functions
    must give the bits of a loop over the shards."""
    # a seed whose data tells sequential from pairwise sums apart in all three
    rng = substream(21, "sum-order")
    sizes = [int(n) for n in rng.integers(1, 8, size=40)]
    ends = np.cumsum(sizes)
    scales = 10.0 ** rng.uniform(-2.0, 2.0, size=len(sizes))
    shards = [
        ClientShard(
            j, np.arange(end - n, end), rng.standard_normal((n, 2)), scale * rng.standard_normal((n, 1)), (j + 1) / 820
        )
        for j, (n, end, scale) in enumerate(zip(sizes, ends, scales))
    ]
    center = CenterState(w0=None, wbar=nnet.random_net([2, 1], ["identity"], rng))
    split = fedcore.build_split(shards, None)
    assert len(split.groups) > 1
    sq, ratios, terms = [], [], []
    for shard in shards:
        diff = reference_residuals(FED, center, shard, None)
        sq.append(float(np.sum(diff * diff)))
        ratios.append(float(np.sum(np.linalg.norm(diff, axis=1) / np.maximum(np.linalg.norm(shard.y, axis=1), 1e-8))))
        terms.append(shard.q * sq[-1] / shard.n)
    sums = []
    for values in (sq, ratios, terms):
        total = 0.0
        for value in values:
            total += value
        # the data tells the orders apart: a pairwise sum rounds differently
        assert float(np.sum(values)) != total
        sums.append(total)
    count = sum(sizes)
    assert evaluate(FED, center, split) == (sums[0] / count, sums[1] / count)
    assert fedcore.weighted_train_loss(FED, center, split) == sums[2]


def test_build_split_reads_each_shards_global_rows():
    rng = substream(19, "rows-by-client")
    sizes = (*UNEQUAL_SIZES, 0)
    ids = rng.permutation(500)[: sum(sizes)]
    store = GlobalStore(ids, rng.standard_normal((len(ids), 3)))
    shards = [
        ClientShard(j, ids[end - n : end], np.zeros((n, 1)), np.zeros((n, 1)), 1.0)
        for j, (n, end) in enumerate(zip(sizes, np.cumsum(sizes)))
    ]
    split = fedcore.build_split(shards, store)
    stacked = [(pos, rows) for group in split.groups for pos, rows in zip(group.positions, group.x_global, strict=True)]
    assert sorted(pos for pos, _ in stacked) == list(range(len(shards)))
    for pos, rows in stacked:
        assert np.array_equal(rows, store.rows(shards[pos].ids))
    assert fedcore.build_split([], store).groups == ()
    assert all(group.x_global is None for group in fedcore.build_split(shards, None).groups)


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


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: Schedule("constant", math.nan), "schedule coefficient must be >= 0, got nan"),
        (lambda: Schedule("inverse", math.nan, t0=1.0), "schedule coefficient must be >= 0, got nan"),
        (lambda: Schedule("inverse", 0.1, t0=math.nan), "inverse schedule needs t0 > 0, got nan"),
        (lambda: dataclasses.replace(FED, l_est=math.nan), "l_est must be positive, got nan"),
    ],
    ids=["constant_c", "inverse_c", "inverse_t0", "l_est"],
)
def test_nan_learning_rate_settings_are_rejected_by_name(build, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        build()


def test_federation_config_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(FED, k=6)
    with pytest.raises(ValueError):
        dataclasses.replace(FED, k=0)
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
