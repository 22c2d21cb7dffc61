from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from vhfl_lab import datagen
from vhfl_lab.datagen import SynthConfig, batches, estimate_lambda, generate, truth_maps

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
    seen = set()
    for shard in (*ds.clients, *ds.test_clients):
        ids = {int(i) for i in shard.ids}
        assert not (seen & ids)
        seen |= ids
        assert ds.global_store.has(shard.ids).all()
    # 80/20 split by id
    for train, test in zip(ds.clients, ds.test_clients):
        assert train.n == 24 and test.n == 6


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


def test_public_fraction_keeps_a_common_block():
    config = dataclasses.replace(
        SMALL, samples_per_client=1000, noniid_shift=3.0, public_fraction=0.5
    )
    ds = generate(config)
    # with half the samples unshifted the overall mean shrinks roughly in half
    full = generate(dataclasses.replace(config, public_fraction=0.0))
    for a, b in zip(ds.clients, full.clients):
        assert np.linalg.norm(a.x_local.mean(axis=0)) < np.linalg.norm(b.x_local.mean(axis=0))


def test_uniform_q_mode():
    ds = generate(dataclasses.replace(SMALL, q_mode="uniform"))
    assert all(s.q == 0.25 for s in ds.clients)


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


def test_batches_single_batch_when_large():
    ds = generate(SMALL)
    shard = ds.clients[0]
    out = batches(shard, ds.global_store.rows(shard.ids), batch_size=1000, seed=3)
    assert len(out) == 1
    assert set(int(i) for i in out[0].ids) == set(int(i) for i in shard.ids)


def test_batches_alignment_by_id():
    ds = generate(SMALL)
    shard = ds.clients[1]
    by_id = {int(i): k for k, i in enumerate(shard.ids)}
    for batch in batches(shard, ds.global_store.rows(shard.ids), batch_size=7, seed=3):
        for row, sample_id in enumerate(batch.ids):
            k = by_id[int(sample_id)]
            assert np.array_equal(batch.x_local[row], shard.x_local[k])
            assert np.array_equal(batch.y[row], shard.y[k])
            assert np.array_equal(batch.x_side[row], ds.global_store.rows([sample_id])[0])


def test_batches_deterministic_and_keeps_short_tail():
    ds = generate(SMALL)
    shard = ds.clients[0]
    a = batches(shard, None, batch_size=7, seed=11)
    b = batches(shard, None, batch_size=7, seed=11)
    assert all(np.array_equal(x.ids, y.ids) for x, y in zip(a, b))
    assert [batch.ids.shape[0] for batch in a] == [7, 7, 7, 3]
    assert a[0].x_side is None


def test_batches_missing_global_entry():
    ds = generate(SMALL)
    shard = ds.clients[0]
    store = datagen.GlobalStore(shard.ids[:-1], np.zeros((shard.n - 1, 2)))
    with pytest.raises(KeyError, match=f"no global features for id {shard.ids[-1]}"):
        store.rows(shard.ids)
    with pytest.raises(ValueError, match="side has"):
        batches(shard, np.zeros((shard.n - 1, 2)), batch_size=8, seed=0)


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
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, q_mode="sizes")
    # fewer than 3 samples leave a client without a test sample
    with pytest.raises(ValueError, match="samples_per_client"):
        dataclasses.replace(SMALL, samples_per_client=2)
