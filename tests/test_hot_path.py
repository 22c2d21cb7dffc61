"""The unchecked training loop against the validating public API.

``client_update`` and ``run_cloud`` step private copies of their nets with
lists of numpy operations over reused buffers, each batch's step emitted
by one function, ``fedcore._step_ops``. ``client_update`` steps a cohort's
clients of equal shard size as one stack, in a local phase that a run
builds once and keeps one state in per size-group shape: a shape is
checked once, when it is built, by a step through the public functions
whose results are dropped, and every step runs its batch's list, emitted
then and replayed every local epoch and round. ``run_cloud`` emits each
pooled batch's list once a run and replays it every local epoch of every
round. These tests pin that this gives each client, and the pooled nets,
the same bits as stepping alone with the public functions, from the
residual out - y at the epoch's rate times 2/b, for every layer form,
batch cut and rate schedule the op lists are built from, and the same
bits as a fresh local phase every round; that a 2-d product enters numpy
through np.dot where its operands and output are contiguous, and through
np.matmul on stacks, on the side gradient's strided view and into the
first columns of a wider buffer, with the bits of a reference written
with ``@``; that each batch's list is emitted once
a run; that the broadcast's u0, taken from the train split, and the
run-long central step, on rows in id order in buffers shared by every
delivered count, get the bits of fresh public passes; that the caller's
arrays are never written; and that a diverging phase is reported by name,
the reused buffers carrying its non-finite values to the guard.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohorts import split_of, update
from nets import allocating_backward, allocating_forward, net_of
from reference import interleaved_dataset, reference_client_update, reference_run, shuffled_batches
from vhfl_lab import fedcore, netqueue, nnet
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
    """Each upload of a cohort, some of the train split's clients in an order
    of their own, equals its client trained alone by the reference; where
    some client diverges, the first in cohort order is named."""
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
    picked = [shards[k] for k in rng.permutation(len(shards))[: rng.integers(1, len(shards) + 1)]]
    cohort = [shard.client_id for shard in picked]
    with np.errstate(all="ignore"):
        refs = [
            reference_or_none(fed, shard, wbar, None if u0 is None else u0[shard.client_id], global_epoch)
            for shard in picked
        ]
        diverged = [shard.client_id for shard, ref in zip(picked, refs) if ref is None]
        train, inputs = split_of(fed, shards, u0)
        if diverged:
            named = rf"after client_update at global epoch {global_epoch}, client {diverged[0]}$"
            with pytest.raises(ValueError, match=named):
                update(fed, train, wbar, inputs, global_epoch, cohort)
            return
    uploads = update(fed, train, wbar, inputs, global_epoch, cohort)
    assert [upload.shard for upload in uploads] == picked
    for upload, (ref_net, ref_vgrads) in zip(uploads, refs):
        assert nets_same_bits(nnet.DenseNet(wbar.layers, upload.params), ref_net)
        if u0 is None:
            assert upload.vgrads is None and ref_vgrads == {}
        else:
            rows = np.vstack([ref_vgrads[int(i)] for i in upload.shard.ids])
            assert same_bits(upload.vgrads, rows)


def test_client_update_takes_one_public_step_per_size_group(monkeypatch):
    """Each size group's shape is checked once, by one step through the
    validating public API, and the local phase cuts one set of batches per
    size group."""
    ds = generate(SYNTH)
    shards = list(ds.clients[:3])
    cut = shards[1]
    shards[1] = ClientShard(cut.client_id, cut.ids[:13], cut.x_local[:13], cut.y[:13], cut.q)
    assert fedcore._size_groups(shards) == [[0, 2], [1]]
    rng = substream(13, "counts")
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    train, inputs = split_of(FED, shards, {shard.client_id: rng.standard_normal((shard.n, 3)) for shard in shards})
    calls = {"mse_loss": 0, "batches": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(fedcore.nnet, "mse_loss", counting("mse_loss", nnet.mse_loss))
    monkeypatch.setattr(fedcore, "batches", counting("batches", fedcore.batches))
    update(FED, train, wbar, inputs, 0)
    assert calls == {"mse_loss": 2, "batches": 2}


@pytest.mark.parametrize(
    "n, local_epochs, lists", [(13, 2, 3), (13, 3, 3), (13, 1, 3), (6, 2, 1), (6, 1, 1)]
)
def test_local_phase_emits_a_batch_list_once_and_only_where_it_runs(n, local_epochs, lists, monkeypatch):
    """A size group of B batches emits each batch's op list once, when its
    shape is built, and replays it every local epoch: B lists at every E_L,
    and none for the public check."""
    ds = generate(SYNTH)
    shards = [ClientShard(s.client_id, s.ids[:n], s.x_local[:n], s.y[:n], s.q) for s in ds.clients[:2]]
    rng = substream(14, "emits", n)
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    train, inputs = split_of(FED, shards, {shard.client_id: rng.standard_normal((n, 3)) for shard in shards})
    assert len(train.groups) == 1
    calls = []
    step_ops = fedcore._step_ops

    def counted(layers, grads, inp, *rest):
        calls.append(inp.shape)
        return step_ops(layers, grads, inp, *rest)

    monkeypatch.setattr(fedcore, "_step_ops", counted)
    update(dataclasses.replace(FED, local_epochs=local_epochs), train, wbar, inputs, 0)
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


# every layer form the pooled step's op lists are built from: one hidden layer
# per net (FED's), none, or two; batches of 6 rows with a short tail of 2 (the
# 80 pooled rows), of 8 rows with no tail, or one batch of all 80 rows; and
# FED's constant rate, or one that changes every local epoch and round while
# the run-long lists replay
FORMS = {
    "one_hidden": {},
    "no_hidden": {"w0_hidden": (), "local_hidden": ()},
    "two_hidden": {"w0_hidden": (6, 4), "local_hidden": (6, 4)},
    "batch_8": {"batch_size": 8},
    "one_batch": {"batch_size": 100},
    "inverse_eta": {"eta": Schedule("inverse", 0.15, 2.0), "local_epochs": 3, "global_epochs": 4},
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
    # the pooled phase as a plain loop over the public nnet functions
    reference, _ = reference_run(fed, ds, "cloud" if use_global else "cloud_local")
    wbar, w0 = reference.wbar, reference.w0
    assert nets_same_bits(center.wbar, wbar)
    if use_global:
        assert nets_same_bits(center.w0, w0)
    else:
        assert center.w0 is None and w0 is None


@pytest.mark.parametrize("use_global", [True, False])
def test_pooled_phase_emits_each_batch_list_once_per_run(use_global, monkeypatch):
    """The pooled shard is fixed, so its batches have the same sizes every
    round: each batch's op list is emitted once per run and replayed every
    local epoch of every round, 14 lists (80 pooled rows at B = 6) over
    FED's 3 rounds."""
    ds = generate(SYNTH)
    calls = []
    step_ops = fedcore._step_ops

    def counted(layers, grads, inp, *rest):
        calls.append(inp.shape)
        return step_ops(layers, grads, inp, *rest)

    monkeypatch.setattr(fedcore, "_step_ops", counted)
    fedcore.run_cloud(FED, ds, use_global)
    assert len(calls) == 14
    assert [rows for rows, _ in calls] == [6] * 13 + [2]


def allocating_run_cloud(fed, ds):
    """``run_cloud`` with w0 under concat, written with ``@`` on fresh
    arrays over each layer's block: each product's entry point is
    np.matmul, whatever its operands' layout, so w0's backward takes the
    transposed side gradient view ``input_grad[:, :u0_dim]`` through
    np.matmul. Both nets step on the residual's gradients at the epoch's
    rate times 2/b."""
    center = fedcore._new_center(fed, ds, True)
    nets = [[(block, layer.activation) for layer, block in zip(net.layers, net.views(net.params))] for net in (center.wbar, center.w0)]
    ids = np.concatenate([shard.ids for shard in ds.clients])
    x_local, y = (np.vstack([getattr(shard, f) for shard in ds.clients]) for f in ("x_local", "y"))
    x_global = ds.global_store.rows(ids)
    for t_g in range(fed.global_epochs):
        for epoch in range(fed.local_epochs):
            for idx in shuffled_batches(fed.seed, 0, t_g, len(ids), fed.batch_size):
                eta = fed.eta.value(t_g * fed.local_epochs + epoch) * (2.0 / len(idx))
                wbar, w0 = nets
                inputs0, pre0, post0 = allocating_forward(w0, x_global[idx])
                inputs, pre, post = allocating_forward(wbar, np.hstack([post0[-1], x_local[idx]]))
                grads, input_grad = allocating_backward(wbar, inputs, pre, post, post[-1] - y[idx])
                side_grad = input_grad[:, : fed.u0_dim]
                grads0, _ = allocating_backward(w0, inputs0, pre0, post0, side_grad)
                nets = [
                    [(block - eta * gblock, act) for (block, act), gblock in zip(net, net_grads)]
                    for net, net_grads in zip(nets, (grads, grads0))
                ]
    shapes = [net.layers for net in (center.wbar, center.w0)]
    return [nnet.DenseNet(layers, np.concatenate([block.ravel() for block, _ in net])) for layers, net in zip(shapes, nets)]


def test_run_cloud_matches_a_reference_written_with_matmul_on_a_wide_side_gradient():
    """With batches of 16 rows through a hidden layer of 4, w0's weight
    gradient from the side gradient's strided view was a product that np.dot
    rounded differently from np.matmul under SkylakeX while it took the
    view's transpose: the pooled phase keeps the view's products on
    np.matmul, and every contiguous product it sends to np.dot must get
    np.matmul's bits."""
    ds = generate(SYNTH)
    fed = dataclasses.replace(FED, u0_dim=16, w0_hidden=(4,), batch_size=16)
    center, _ = fedcore.run_cloud(fed, ds, True)
    wbar, w0 = allocating_run_cloud(fed, ds)
    assert nets_same_bits(center.wbar, wbar) and nets_same_bits(center.w0, w0)


@pytest.mark.parametrize("combine", ["concat", "additive"])
def test_products_name_dot_where_contiguous_and_matmul_on_stacks_and_the_side_view(combine, monkeypatch):
    """The pooled phase's 2-d lists issue every product through np.dot but,
    under concat, w0's two products on the side gradient's strided view and
    its last forward product, which writes u0 into the input's first
    columns; the local phase's lists, on stacks, issue every product through
    np.matmul."""
    ds = generate(SYNTH)
    fed = dataclasses.replace(FED, combine=combine, u0_dim=3 if combine == "concat" else SYNTH.d_label)
    emitted = []
    step_ops = fedcore._step_ops

    def kept(*args):
        side_grad = step_ops(*args)
        emitted.append((args[2].ndim, args[-2], side_grad))
        return side_grad

    monkeypatch.setattr(fedcore, "_step_ops", kept)
    fedcore.run_cloud(fed, ds, True)
    fedcore.run_vhfl(fed, ds)
    assert {ndim for ndim, _, _ in emitted} == {2, 3}
    for ndim, ops, side_grad in emitted:
        products = [(op, args) for op, args in ops if op in (np.dot, np.matmul)]
        # per layer of one hidden layer's net, a forward product and two
        # backward ones, but the first layer's input gradient: wbar's only
        # under concat, and w0's, which the pooled lists step too, never
        assert len(products) == (6 if combine == "concat" else 5) + (5 if ndim == 2 else 0)
        if ndim == 3:
            assert all(op is np.matmul for op, _ in products)
            continue
        on_side = [
            any(np.shares_memory(x, side_grad) and not x.flags.forc for x in (a, b)) for _, (a, b, _) in products
        ]
        into_input = [not out.flags.c_contiguous for _, (_, _, out) in products]
        assert sum(on_side) == (2 if combine == "concat" else 0)
        assert sum(into_input) == (1 if combine == "concat" else 0)
        assert [op for op, _ in products] == [np.matmul if s or i else np.dot for s, i in zip(on_side, into_input)]


# ------------------------------------------------------ run-long local phase


def unequal_run(**changes):
    """SYNTH's shards cut to 20, 13, 20 and 7 training rows, and FED over 6
    rounds with ``changes``. Its cohorts of 3 of the 4 clients form size
    groups whose shapes change from round to round, and repeat."""
    ds = generate(SYNTH)
    sizes = (20, 13, 20, 7)
    shards = tuple(
        ClientShard(s.client_id, s.ids[:n], s.x_local[:n], s.y[:n], n / sum(sizes)) for s, n in zip(ds.clients, sizes)
    )
    fed = dataclasses.replace(FED, global_epochs=6, **changes)
    shapes = [
        [(len(group), sizes[cohort[group[0]]]) for group in fedcore._size_groups([shards[c] for c in cohort])]
        for cohort in fedcore.plan_run(fed, pooled=False).cohorts
    ]
    assert len({tuple(round_shapes) for round_shapes in shapes}) > 1
    assert sum(len(round_shapes) for round_shapes in shapes) > len({s for r in shapes for s in r})
    return fed, dataclasses.replace(ds, clients=shards), shapes


@pytest.mark.parametrize("local_epochs", [1, 2, 3])
@pytest.mark.parametrize("batch_size", [5, 20])
@pytest.mark.parametrize("mode, combine", [("vhfl", "concat"), ("vhfl", "additive"), ("hfl", "concat")])
def test_run_long_local_phase_matches_a_fresh_phase_every_round(mode, combine, batch_size, local_epochs, monkeypatch):
    """A run keeps one local phase, whose state per size-group shape outlives
    the round; every trace row and both final nets equal those of a run that
    trains each round in a fresh phase, bit for bit."""
    fed, ds, _ = unequal_run(
        local_epochs=local_epochs,
        batch_size=batch_size,
        combine=combine,
        u0_dim=SYNTH.d_label if combine == "additive" else 3,
    )
    run = fedcore.run_vhfl if mode == "vhfl" else fedcore.run_hfl
    kept, kept_trace = run(fed, ds)
    client_update = fedcore.client_update

    def fresh_phase(config, train, cohort, wbar, inputs, rngs, t_g, phase):
        return client_update(config, train, cohort, wbar, inputs, rngs, t_g)

    monkeypatch.setattr(fedcore, "client_update", fresh_phase)
    fresh, fresh_trace = run(fed, ds)
    assert kept_trace == fresh_trace
    assert nets_same_bits(kept.wbar, fresh.wbar)
    if mode == "vhfl":
        assert nets_same_bits(kept.w0, fresh.w0)
    else:
        assert kept.w0 is None and fresh.w0 is None


@pytest.mark.parametrize("local_epochs", [1, 2])
def test_run_long_local_phase_builds_each_shape_once_per_run(local_epochs, monkeypatch):
    """Over a run, each (G, n, batch) list is emitted once, when its shape is
    built; the public check runs once per shape, and the batches are cut
    once per group and round."""
    fed, ds, shapes = unequal_run(local_epochs=local_epochs)
    emitted, calls = [], {"mse_loss": 0, "batches": 0}
    step_ops = fedcore._step_ops

    def recorded(layers, grads, inp, *rest):
        # each shape's batch views a buffer of its own shuffled stack
        emitted.append(inp.__array_interface__["data"][0])
        return step_ops(layers, grads, inp, *rest)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(fedcore, "_step_ops", recorded)
    monkeypatch.setattr(fedcore.nnet, "mse_loss", counting("mse_loss", nnet.mse_loss))
    monkeypatch.setattr(fedcore, "batches", counting("batches", fedcore.batches))
    fedcore.run_vhfl(fed, ds)
    built = {s for r in shapes for s in r}
    assert len(emitted) == len(set(emitted)) == sum(-(-n // fed.batch_size) for _, n in built)
    assert calls == {"mse_loss": len(built), "batches": sum(len(r) for r in shapes)}


# --------------------------------------------- broadcast and central step

# shards of five sizes whose ids interleave, so a cohort's rows in cohort
# order are not in id order and most cohorts span several size groups
INTERLEAVED = interleaved_dataset((5, 9, 2, 5, 7, 9, 3), (2,) * 7, 3, 2, 2, 4)
LOSSY = netqueue.ChannelModel(2.0, 0.5, 0.5, 8.0, 2.0, t_p=0.5, seed=2)


@pytest.mark.parametrize("combine", fedcore.COMBINES)
def test_a_round_takes_its_cohorts_rows_from_the_train_split(combine, monkeypatch):
    """A run stacks its train and test splits and no other split: a round's
    cohort is rows of the train split. Each round's local phase shuffles
    each client's rows through the order of its stream (seed, "batches",
    client_id, t_g), so its shuffled stacks hold the shard's local rows,
    labels and u0 rows of the round's w0 in that order."""
    ds = INTERLEAVED
    fed = dataclasses.replace(FED, n_clients=7, k=3, global_epochs=6, combine=combine, u0_dim=2)
    built, rounds = [], []
    split, broadcast, batches = fedcore.Split, fedcore.center_broadcast, fedcore.batches

    def counted(*args, **kwargs):
        built.append(kwargs["shards"])
        return split(*args, **kwargs)

    def recorded_broadcast(config, center, train):
        rounds.append((center.w0, []))
        return broadcast(config, center, train)

    def recorded_batches(rngs, fields, batch_size, out, rows):
        cut = batches(rngs, fields, batch_size, out, rows)
        rounds[-1][1].append((rows.tolist(), [None if f is None else f.copy() for f in out]))
        return cut

    monkeypatch.setattr(fedcore, "Split", counted)
    monkeypatch.setattr(fedcore, "center_broadcast", recorded_broadcast)
    monkeypatch.setattr(fedcore, "batches", recorded_batches)
    fedcore.run_vhfl(fed, ds)
    assert built == [ds.clients, ds.test_clients]
    groups = fedcore.build_split(ds.clients, ds.global_store).groups
    width = 2 if combine == "concat" else 0
    assert len(rounds) == fed.global_epochs
    # some cohort takes rows of a size group other than its first ones
    assert any(rows != list(range(len(rows))) for _, stacks in rounds for rows, _ in stacks)
    for t_g, (cohort, (w0, stacks)) in enumerate(zip(fedcore.plan_run(fed, pooled=False).cohorts, rounds)):
        assert len(stacks) == len({ds.clients[c].n for c in cohort})
        for _, (inp, side, y) in stacks:
            members = [c for c in cohort if ds.clients[c].n == y.shape[1]]
            assert len(members) == len(y)
            for k, c in enumerate(members):
                shard = ds.clients[c]
                order = substream(fed.seed, "batches", c, t_g).permutation(shard.n)
                group = next(group for group in groups if c in group.positions)
                u0 = nnet.forward(w0, group.x_global)[0][group.positions.index(c)]
                assert same_bits(y[k], shard.y[order]) and same_bits(inp[k, :, width:-1], shard.x_local[order])
                assert np.all(inp[k, :, -1] == 1.0)
                assert same_bits(inp[k, :, :width] if side is None else side[k], u0[order])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=6),
    st.sampled_from(fedcore.COMBINES),
    st.sampled_from((0.02, 0.5, math.inf)),
    st.integers(0, 2**16),
)
def test_broadcast_u0_is_a_fresh_pass_over_the_cohorts_global_rows(sizes, combine, t_p, seed):
    """Every round's broadcast, whether it computes the train split's u0 or
    takes the one the last train loss left, equals w0's pass over the
    shards' own global rows, stacked per size group, beside their local rows
    as the combine mode puts them; a short deadline makes rounds that
    deliver nothing, after which w0 and its u0 are unchanged."""
    ds = interleaved_dataset(sizes, (1,) * len(sizes), 2, 3, 2, seed)
    fed = dataclasses.replace(
        FED,
        n_clients=len(sizes),
        k=1 + seed % len(sizes),
        global_epochs=4,
        combine=combine,
        u0_dim=2,
        deadline_channel=dataclasses.replace(LOSSY, t_p=t_p, seed=seed),
    )
    calls = []
    broadcast = fedcore.center_broadcast

    def recorded(config, center, train):
        inputs = broadcast(config, center, train)
        calls.append((center.w0, [(inp.copy(), None if side is None else side.copy()) for inp, side in inputs]))
        return inputs

    with mock.patch.object(fedcore, "center_broadcast", recorded):
        fedcore.run_vhfl(fed, ds)
    assert len(calls) == fed.global_epochs
    groups = fedcore.build_split(ds.clients, ds.global_store).groups
    for w0, inputs in calls:
        assert len(inputs) == len(groups)
        for (inp, side), group in zip(inputs, groups):
            want, _ = nnet.forward(w0, group.x_global)
            if combine == "concat":
                assert side is None and same_bits(inp, nnet.with_ones(np.concatenate([want, group.x_local], axis=-1)))
            else:
                assert same_bits(side, want) and same_bits(inp, nnet.with_ones(group.x_local))


def public_central_step(fed, w0, uploads, store, t_g):
    """The central step through the public API on the uploads' rows sorted by id."""
    rows = sorted(((int(i), row) for u in uploads for i, row in zip(u.shard.ids, u.vgrads)), key=lambda r: r[0])
    _, trace = nnet.forward(w0, store.rows([i for i, _ in rows]))
    grad, _ = nnet.backward(w0, trace, np.vstack([row for _, row in rows]))
    return nnet.sgd_step(w0, grad, fed.eta0.value(t_g))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.booleans(), min_size=7, max_size=7).filter(any), min_size=1, max_size=5),
    st.sampled_from(((), (5,), (5, 3))),
    st.sampled_from(nnet.ACTIVATIONS),
    st.integers(0, 2**16),
)
def test_run_long_central_step_matches_the_public_step_bit_for_bit(rounds, hidden, act, seed):
    """One central step per run, over the train split, steps w0 as the public
    forward/backward/sgd_step do on the delivered rows sorted by id, round
    after round with different delivered counts, on shards whose ids
    interleave; so does a fresh step built from the uploads."""
    rng = substream(seed, "central")
    ds = INTERLEAVED
    fed = dataclasses.replace(FED, n_clients=7, k=7, u0_dim=2, eta0=Schedule("inverse", 0.5, t0=1.0))
    w0 = nnet.random_net([2, *hidden, 2], [act] * len(hidden) + ["identity"], rng)
    phase = fedcore._central_phase(fed, w0, ds.clients, ds.global_store, fed.k)
    for t_g, delivered in enumerate(rounds):
        uploads = [
            Upload(shard, w0.params, rng.standard_normal((shard.n, 2)))
            for shard, kept in zip(ds.clients, delivered)
            if kept
        ]
        want = public_central_step(fed, w0, uploads, ds.global_store, t_g)
        assert nets_same_bits(central_update(fed, w0, uploads, ds.global_store, t_g, phase), want)
        assert nets_same_bits(central_update(fed, w0, uploads, ds.global_store, t_g), want)
        w0 = want


def test_central_step_allocates_its_buffers_once_per_run():
    """A run builds one central step, and no step of any delivered count
    allocates a buffer: every count's lists run on row slices of the
    buffers the step allocated for the largest count."""
    fed = dataclasses.replace(FED, n_clients=7, k=4, u0_dim=2, global_epochs=12, deadline_channel=LOSSY)
    allocated, built, counts = [], [], []
    buffer, phase = nnet._buffer, fedcore._central_phase

    def counting_buffer(pool, role, shape):
        if (role, shape) not in pool:
            allocated.append((role, shape))
        return buffer(pool, role, shape)

    def recording_phase(*args):
        step = phase(*args)
        built.append(args)

        def recorded(w0, uploads, t_g):
            before = len(allocated)
            stepped = step(w0, uploads, t_g)
            assert len(allocated) == before
            counts.append(sum(u.shard.n for u in uploads))
            return stepped

        return recorded

    with mock.patch.object(nnet, "_buffer", counting_buffer):
        with mock.patch.object(fedcore, "_central_phase", recording_phase):
            fedcore.run_vhfl(fed, INTERLEAVED)
    assert len(built) == 1
    assert len(set(counts)) >= 3


# --------------------------------------------------------------- no aliasing


def test_client_and_central_update_leave_caller_arrays_unchanged():
    ds = generate(SYNTH)
    rng = substream(8, "alias")
    w0 = nnet.random_net([2, 5, 3], ["tanh", "identity"], rng)
    wbar = nnet.random_net([3 + 3, 6, 2], ["tanh", "identity"], rng)
    center = CenterState(w0=w0, wbar=wbar)
    w0_snap, wbar_snap = snapshot(w0), snapshot(wbar)
    train = fedcore.build_split(ds.clients, ds.global_store)
    fed = dataclasses.replace(
        FED, local_epochs=3, eta=Schedule("constant", 0.1), eta0=Schedule("constant", 0.1)
    )
    inputs = center_broadcast(fed, center, train)
    inputs_snap = [inp.copy() for inp, _ in inputs]
    train_snap = [(group.x_local.copy(), group.y.copy()) for group in train.groups]
    uploads = update(fed, train, wbar, inputs, 0)
    for upload in uploads:
        assert not np.shares_memory(upload.params, wbar.params)
    assert unchanged(wbar, wbar_snap)
    assert all(side is None and same_bits(inp, snap) for (inp, side), snap in zip(inputs, inputs_snap))
    for group, (x_local, y) in zip(train.groups, train_snap):
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
    """Every phase keeps its buffers for the run, so no net it hands the
    center may view them: the pooled phase builds the center's nets from
    copies, and the local phase's uploads, views of its run-long buffers,
    are used up within their round by aggregation and the central step,
    which build the center's nets from fresh arrays."""
    ds = generate(SYNTH)
    handed = []
    weighted_train_loss = fedcore.weighted_train_loss

    def snapshotting_loss(config, center, split):
        handed.extend((net, snapshot(net)) for net in (center.wbar, center.w0) if net is not None)
        return weighted_train_loss(config, center, split)

    started = []
    client_update = fedcore.client_update

    def recording_update(config, train, cohort, wbar, inputs, rngs, t_g, phase):
        uploads = client_update(config, train, cohort, wbar, inputs, rngs, t_g, phase)
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
    fed = dataclasses.replace(DIVERGING, local_epochs=3, batch_size=4)
    train, inputs = split_of(fed, [shard], {2: substream(11, "u0").standard_normal((shard.n, 3))})
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"non-finite values after client_update at global epoch 7, client 2$"):
            update(fed, train, wbar, inputs, 7)


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
    train, inputs = split_of(fed, shards)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"after client_update at global epoch 1, client 4$"):
            update(fed, train, wbar, inputs, 1)
        # the cohort's order names the client, not the train split's
        with pytest.raises(ValueError, match=r"after client_update at global epoch 1, client 9$"):
            update(fed, train, wbar, inputs, 1, [9, 4, 5])


@pytest.mark.parametrize("diverged_first", [True, False], ids=["diverged_first", "diverged_second"])
def test_guard_names_a_diverged_client_in_either_place_of_its_size_group(diverged_first):
    # a 2 -> 1 identity net of ones sums each row's features, so rows of 1e308
    # overflow on the first step. The two 2-row shards train as one stack
    wbar = net_of((np.ones((1, 2)), np.ones(1)))
    diverging = ClientShard(7, np.array([0, 1]), np.full((2, 2), 1e308), np.zeros((2, 1)), 0.5)
    finite = ClientShard(3, np.array([2, 3]), np.ones((2, 2)), np.zeros((2, 1)), 0.5)
    shards = [diverging, finite] if diverged_first else [finite, diverging]
    fed = dataclasses.replace(FED, activation="identity", batch_size=2)
    train, inputs = split_of(fed, shards)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"^non-finite values after client_update at global epoch 0, client 7$"):
            update(fed, train, wbar, inputs, 0)


def test_client_update_keeps_the_first_steps_shape_errors():
    wbar = net_of((np.ones((1, 3)), np.ones(1)))
    shards = [ClientShard(j, np.array([2 * j, 2 * j + 1]), np.ones((2, 2)), np.zeros((2, 1)), 0.5) for j in (0, 1)]
    fed = dataclasses.replace(FED, batch_size=2)
    train, inputs = split_of(fed, shards)
    with pytest.raises(ValueError, match=r"^batch has 2 columns, net expects 3$"):
        update(fed, train, wbar, inputs, 0)


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
