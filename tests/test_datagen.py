from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dataset_bits, reference_generate
from vhfl_lab import datagen
from vhfl_lab.datagen import SynthConfig, batches, estimate_lambda, generate, permutations, truth_maps
from vhfl_lab.rng import substream

SMALL = SynthConfig(
    n_clients=4,
    samples_per_client=30,
    d_local=3,
    d_global=2,
    d_label=2,
    noise_std=0.1,
    global_strength=0.5,
    noniid_shift=0.0,
    seed=7,
)


def dataset_equal(a, b) -> bool:
    if len(a.clients) != len(b.clients) or len(a.test_clients) != len(b.test_clients):
        return False
    for x, y in zip((*a.clients, *a.test_clients), (*b.clients, *b.test_clients)):
        if x.client_id != y.client_id or x.q != y.q:
            return False
        if not (
            np.array_equal(x.ids, y.ids)
            and np.array_equal(x.x_local, y.x_local)
            and np.array_equal(x.y, y.y)
        ):
            return False
    return np.array_equal(
        a.global_store.rows(a.global_store.ids), b.global_store.rows(b.global_store.ids)
    )


def test_generate_is_deterministic():
    assert dataset_equal(generate(SMALL), generate(SMALL))
    other = generate(dataclasses.replace(SMALL, seed=8))
    assert not dataset_equal(generate(SMALL), other)


def test_generate_structure_invariants():
    ds = generate(SMALL)
    assert ds.n_clients == 4
    assert abs(sum(s.q for s in ds.clients) - 1.0) <= 1e-12
    # equal shards, so q is 1/N for every client
    assert all(s.q == 0.25 for s in ds.clients)
    seen = set()
    for shard in (*ds.clients, *ds.test_clients):
        ids = {int(i) for i in shard.ids}
        assert not (seen & ids)
        seen |= ids
        assert ds.global_store.has(shard.ids).all()
    # 80/20 split by id
    for train, test in zip(ds.clients, ds.test_clients):
        assert train.n == 24 and test.n == 6


@settings(max_examples=80, deadline=None)
@given(
    n_clients=st.integers(1, 12),
    samples_per_client=st.integers(3, 40),
    d_local=st.integers(1, 5),
    d_global=st.integers(1, 5),
    d_label=st.integers(1, 3),
    noise_std=st.sampled_from((0.0, 0.1)),
    noniid_shift=st.sampled_from((0.0, 1.0)),
    seed=st.integers(0, 2**64 - 1),
)
def test_generate_matches_the_per_client_loop_bit_for_bit(**fields):
    """The whole-array generator draws each client's fields in the loop's
    stream order and splits them as the loop does: every shard's ids,
    features, labels and weight, the shard order and the store's ids and
    rows are the loop's bits."""
    config = SynthConfig(**fields)
    assert dataset_bits(generate(config)) == dataset_bits(reference_generate(config))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 40), st.integers(0, 2**16))
def test_permutations_are_each_streams_own_permutation(count, n, seed):
    orders = permutations([substream(seed, "orders", g) for g in range(count)], n)
    want = np.stack([substream(seed, "orders", g).permutation(n) for g in range(count)])
    assert orders.dtype == want.dtype and orders.shape == want.shape == (count, n)
    assert orders.tobytes() == want.tobytes()


def test_zero_global_strength_decorrelates_labels():
    config = dataclasses.replace(
        SMALL,
        n_clients=5,
        samples_per_client=2400,
        d_label=1,
        global_strength=0.0,
    )
    ds = generate(config)
    _, h_map = truth_maps(config)
    ys, hs = [], []
    for shard in (*ds.clients, *ds.test_clients):
        ys.append(shard.y[:, 0])
        hs.append(h_map(ds.global_store.rows(shard.ids))[:, 0])
    y = np.concatenate(ys)
    h = np.concatenate(hs)
    assert y.size >= 10_000
    corr = np.corrcoef(y, h)[0, 1]
    assert abs(corr) < 0.05


def test_zero_shift_gives_equal_client_means():
    config = dataclasses.replace(SMALL, samples_per_client=2000, noniid_shift=0.0)
    ds = generate(config)
    pooled = np.vstack([s.x_local for s in ds.clients])
    pooled_mean = pooled.mean(axis=0)
    pooled_sd = pooled.std(axis=0)
    for shard in ds.clients:
        gap = np.abs(shard.x_local.mean(axis=0) - pooled_mean)
        se = pooled_sd * np.sqrt(1.0 / shard.n + 1.0 / pooled.shape[0])
        assert np.all(gap < 5.0 * se)


def test_shift_moves_client_means():
    config = dataclasses.replace(SMALL, samples_per_client=2000, noniid_shift=2.0)
    ds = generate(config)
    deltas = [
        np.linalg.norm(shard.x_local.mean(axis=0)) for shard in ds.clients
    ]
    assert all(d > 1.0 for d in deltas)


def test_lambda_identical_gradients_is_one():
    g = np.array([1.0, -2.0, 3.0])
    value = estimate_lambda([g, g, g, g], [0.25, 0.25, 0.25, 0.25])
    assert value is not None
    assert abs(value - 1.0) <= 1e-12


def test_lambda_orthogonal_equal_norm_is_n():
    # hand expansion: numerator = ||g||^2, denominator = ||g||^2 / n
    for n in (2, 4, 8):
        grads = [np.eye(n)[i] * 3.0 for i in range(n)]
        value = estimate_lambda(grads, [1.0 / n] * n)
        assert value is not None
        assert abs(value - n) <= 1e-9


def test_lambda_unbounded_sentinel():
    g = np.array([1.0, 2.0])
    assert estimate_lambda([g, -g], [0.5, 0.5]) is None


def test_lambda_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        grads = [rng.standard_normal(6) for _ in range(4)]
        q = rng.uniform(0.1, 1.0, size=4)
        q = list(q / q.sum())
        base = estimate_lambda(grads, q)
        for c in (-3.0, 0.25, 10.0):
            scaled = estimate_lambda([c * g for g in grads], q)
            assert scaled is not None and base is not None
            assert abs(scaled - base) <= 1e-9 * max(1.0, base)


def test_lambda_at_least_one():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        grads = [rng.standard_normal(5) for _ in range(n)]
        q = rng.uniform(0.1, 1.0, size=n)
        value = estimate_lambda(grads, list(q / q.sum()))
        if value is not None:
            assert value >= 1.0 - 1e-9


def test_lambda_validation():
    g = np.ones(3)
    with pytest.raises(ValueError):
        estimate_lambda([g, g], [0.5])
    with pytest.raises(ValueError):
        estimate_lambda([g, g], [0.7, 0.7])
    with pytest.raises(ValueError):
        estimate_lambda([g, np.ones(4)], [0.5, 0.5])


def one_shard(shard, side=None):
    """The shard's (x_local, side, y) as the one-shard stacks ``batches`` takes."""
    return [shard.x_local[None], None if side is None else side[None], shard.y[None]]


def test_batches_single_batch_when_large():
    ds = generate(SMALL)
    shard = ds.clients[0]
    fields = one_shard(shard, ds.global_store.rows(shard.ids))
    out = batches([substream(3, "batches")], fields, batch_size=1000)
    assert len(out) == 1
    index, _ = out[0]
    assert set(int(i) for i in shard.ids[index[0]]) == set(int(i) for i in shard.ids)


def test_batches_alignment_by_id():
    ds = generate(SMALL)
    shard = ds.clients[1]
    fields = one_shard(shard, ds.global_store.rows(shard.ids))
    for index, (x_local, x_side, y) in batches([substream(3, "batches")], fields, batch_size=7):
        for row, k in enumerate(index[0]):
            assert np.array_equal(x_local[0, row], shard.x_local[k])
            assert np.array_equal(y[0, row], shard.y[k])
            assert np.array_equal(x_side[0, row], ds.global_store.rows([shard.ids[k]])[0])


def test_batches_deterministic_and_keeps_short_tail():
    ds = generate(SMALL)
    shard = ds.clients[0]
    a = batches([substream(11, "batches")], one_shard(shard), batch_size=7)
    b = batches([substream(11, "batches")], one_shard(shard), batch_size=7)
    assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(a, b))
    assert [index.shape[1] for index, _ in a] == [7, 7, 7, 3]
    assert a[0][1][1] is None


def test_batches_missing_global_entry():
    ds = generate(SMALL)
    shard = ds.clients[0]
    store = datagen.GlobalStore(shard.ids[:-1], np.zeros((shard.n - 1, 2)))
    with pytest.raises(KeyError, match=f"no global features for id {shard.ids[-1]}"):
        store.rows(shard.ids)
    with pytest.raises(ValueError, match=r"^a field has \(1, 23\) shards x rows, expected \(1, 24\)$"):
        batches([substream(0, "batches")], one_shard(shard, np.zeros((shard.n - 1, 2))), batch_size=8)
    # the rows are read through a clipped index, so they are checked first
    for rows in ([1], [-1], [0, 0]):
        with pytest.raises(ValueError, match=rf"^1 streams need as many rows of 1 shards, got \{rows}$"):
            batches([substream(0, "batches")], one_shard(shard), batch_size=8, rows=np.array(rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**16))
def test_batches_of_a_stack_match_each_shard_alone(size, n, batch_size, seed):
    """Each shard of a stack gets the index and rows of a one-shard call with
    its own generator seed, bit for bit: no order is shared across shards.
    So does each of some of the stack's shards, picked by ``rows`` in an
    order of their own."""
    rng = substream(seed, "stack")
    x, y = rng.standard_normal((size, n, 3)), rng.standard_normal((size, n, 1))
    picked = rng.permutation(size)[: rng.integers(1, size + 1)]
    for rows in (None, picked):
        shards = range(size) if rows is None else picked
        stacked = batches([substream(seed, "batches", j) for j in shards], [x, None, y], batch_size, rows=rows)
        for k, j in enumerate(shards):
            alone = batches([substream(seed, "batches", j)], [x[j : j + 1], None, y[j : j + 1]], batch_size)
            assert len(alone) == len(stacked)
            for (index, fields), (index_alone, fields_alone) in zip(stacked, alone):
                assert index[k].tobytes() == index_alone[0].tobytes()
                assert fields[1] is None and fields_alone[1] is None
                for field, field_alone in ((fields[0], fields_alone[0]), (fields[2], fields_alone[2])):
                    assert field[k].shape == field_alone[0].shape
                    assert field[k].tobytes() == field_alone[0].tobytes()


def test_global_store_rows_gather_by_id():
    features = np.arange(12.0).reshape(4, 3)
    store = datagen.GlobalStore([30, 10, 40, 20], features)
    wanted = [20, 30, 20, 40]
    assert np.array_equal(store.rows(wanted), features[[3, 0, 3, 2]])
    assert store.has([20, 25, 40, 0]).tolist() == [True, False, True, False]
    assert np.array_equal(store.rows(iter(np.array(wanted))), store.rows(wanted))
    assert store.rows(np.array([], dtype=np.int64)).shape == (0, 3)
    for ids, first_missing in (([10, 25, 5], 25), ([50], 50), ([0, 10], 0)):
        with pytest.raises(KeyError, match=f"no global features for id {first_missing}"):
            store.rows(ids)
    empty = datagen.GlobalStore([], np.zeros((0, 3)))
    with pytest.raises(KeyError, match="no global features for id 7"):
        empty.rows([7])
    assert empty.has([7]).tolist() == [False]


def test_id_checks_of_store_shard_and_dataset():
    with pytest.raises(ValueError, match="duplicate ids in global store"):
        datagen.GlobalStore([3, 1, 3], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="duplicate ids within client 0"):
        datagen.ClientShard(0, np.array([2, 0, 2]), np.zeros((3, 2)), np.zeros((3, 1)), 1.0)

    def shard(j: int, ids: list[int]) -> datagen.ClientShard:
        n = len(ids)
        return datagen.ClientShard(j, np.array(ids), np.zeros((n, 2)), np.zeros((n, 1)), 0.5)

    store = datagen.GlobalStore(np.arange(6), np.zeros((6, 2)))
    datagen.FederationDataset((shard(0, [0, 1]), shard(1, [2, 3])), (shard(0, [4]),), store)
    with pytest.raises(ValueError, match="overlap"):
        datagen.FederationDataset((shard(0, [0, 1]), shard(1, [2, 3])), (shard(0, [1]),), store)
    with pytest.raises(ValueError, match=r"global store misses 2 ids, e\.g\. \[6, 7\]"):
        datagen.FederationDataset((shard(0, [7, 0]), shard(1, [6, 3])), (), store)
    for train, test in (([0, 0], [1]), ([0, 1], [1, 1])):
        with pytest.raises(ValueError, match="client ids repeat within the training or the test shards"):
            datagen.FederationDataset(
                (shard(train[0], [0, 1]), shard(train[1], [2, 3])),
                tuple(shard(j, [4 + k]) for k, j in enumerate(test)),
                store,
            )


def test_ids_must_be_1d_in_a_shard_and_in_the_store():
    """A column of ids is rejected, not read: sorted along its last axis it
    would hide a repeat in a shard and invent one in the store."""
    with pytest.raises(ValueError, match=r"^client 5 has ids of shape \(3, 1\); ids must be 1-d$"):
        datagen.ClientShard(5, np.array([[1], [2], [1]]), np.zeros((3, 2)), np.zeros((3, 1)), 1.0)
    with pytest.raises(ValueError, match=r"^client 5 has ids of shape \(3, 1\); ids must be 1-d$"):
        datagen.ClientShard(5, np.array([[1], [2], [3]]), np.zeros((3, 2)), np.zeros((3, 1)), 1.0)
    with pytest.raises(ValueError, match=r"^global store ids must be 1-d, got shape \(3, 1\)$"):
        datagen.GlobalStore(np.array([[1], [2], [3]]), np.zeros((3, 2)))
    # ids out of order still meet the repeat check's sort
    with pytest.raises(ValueError, match="duplicate ids within client 0"):
        datagen.ClientShard(0, np.array([1, 3, 2, 1]), np.zeros((4, 2)), np.zeros((4, 1)), 1.0)
    assert datagen.ClientShard(0, np.array([3, 1, 2]), np.zeros((3, 2)), np.zeros((3, 1)), 1.0).n == 3


def test_dataset_rejects_shards_of_other_widths():
    """Training stacks the shards, so a dataset whose shards differ in their
    feature or label widths, or are not 2-d, is rejected naming the client."""

    def shard(j: int, ids: list[int], x_shape=(2,), y_shape=(1,)) -> datagen.ClientShard:
        n = len(ids)
        return datagen.ClientShard(j, np.array(ids), np.zeros((n, *x_shape)), np.zeros((n, *y_shape)), 0.5)

    store = datagen.GlobalStore(np.arange(6), np.zeros((6, 2)))
    for other in ({"x_shape": (3,)}, {"y_shape": (2,)}, {"x_shape": ()}, {"y_shape": ()}, {"y_shape": (1, 1)}):
        with pytest.raises(ValueError, match="client 1 has features"):
            datagen.FederationDataset((shard(0, [0, 1]), shard(1, [2, 3], **other)), (), store)
        with pytest.raises(ValueError, match="client 5 has features"):
            datagen.FederationDataset((shard(0, [0, 1]), shard(1, [2, 3])), (shard(5, [4], **other),), store)
    with pytest.raises(ValueError, match=r"client 0 has features \(2,\) and labels \(2, 1\)"):
        datagen.FederationDataset((shard(0, [0, 1], x_shape=()), shard(1, [2, 3], x_shape=())), (), store)


@pytest.mark.parametrize("name", ["ids", "x_local", "y"])
def test_shard_rejects_a_0d_array_naming_the_client(name):
    """A shard's arrays align on their first axis, so a 0-d one is rejected
    naming the client; 1-d features or labels are the dataset's check."""
    rows = {"ids": np.arange(2), "x_local": np.zeros(2), "y": np.zeros(2)}
    datagen.ClientShard(7, q=1.0, **rows)
    flat = {"ids": np.array(0), "x_local": np.zeros(()), "y": np.zeros(())}
    with pytest.raises(ValueError, match=f"^client 7 has 0-d {name}, which holds no rows$"):
        datagen.ClientShard(7, q=1.0, **{**rows, name: flat[name]})


def test_shard_rejects_misaligned_rows_naming_the_client():
    with pytest.raises(ValueError, match="^client 3 has ids, features and labels of unequal row counts$"):
        datagen.ClientShard(3, np.arange(2), np.zeros((3, 1)), np.zeros((2, 1)), 1.0)


def test_shard_rejects_non_finite_rows():
    ids = np.arange(3)
    good = np.zeros((3, 2))
    datagen.ClientShard(0, ids, good, good, 1.0)
    bad_x = good.copy()
    bad_x[1, 0] = np.nan
    with pytest.raises(ValueError, match="client 4 has non-finite"):
        datagen.ClientShard(4, ids, bad_x, good, 1.0)
    bad_y = good.copy()
    bad_y[2, 1] = -np.inf
    with pytest.raises(ValueError, match="non-finite"):
        datagen.ClientShard(0, ids, good, bad_y, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, noise_std=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, global_strength=1.5)
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, d_local=0)
    # fewer than 3 samples leave a client without a test sample
    with pytest.raises(ValueError, match="samples_per_client"):
        dataclasses.replace(SMALL, samples_per_client=2)
