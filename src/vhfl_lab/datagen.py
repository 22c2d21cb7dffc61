"""Synthetic vertically+horizontally partitioned federation datasets.

Clients hold disjoint sample ids with local features and labels; the
center holds a global feature vector per id. Labels mix a fixed random
smooth map of the local features with a strength-weighted map of the
global features plus Gaussian noise, so the usefulness of the central
observation is a controllable knob. Client feature distributions can be
mean-shifted to control how non-identical the shards are, and the
divergence of client gradients is measured by ``estimate_lambda``.

``generate`` builds a dataset in whole-array passes: one seeding pass for
all client streams, each client's draws in its stream order into
``(N, n, d)`` stacks, one pass of the truth maps over the stacks and one
gather per field for the splits. Its bits are those of a loop that builds
each client alone, as ``tests/test_datagen.py`` checks; the stacked map
products give them under every OpenBLAS kernel ``tests/test_nnet.py``
forces (SkylakeX, Haswell, Katmai).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rng import check_seed, generators, seed_states, substream

TRUTH_HIDDEN = 16


@dataclass(frozen=True)
class SynthConfig:
    n_clients: int
    samples_per_client: int
    d_local: int
    d_global: int
    d_label: int
    noise_std: float = 0.1
    global_strength: float = 0.8
    noniid_shift: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.samples_per_client < 3:
            # fewer leave the 80/20 split without a test sample
            raise ValueError(f"samples_per_client must be >= 3, got {self.samples_per_client}")
        if min(self.d_local, self.d_global, self.d_label) < 1:
            raise ValueError("feature and label dimensions must be >= 1")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not 0.0 <= self.global_strength <= 1.0:
            raise ValueError(f"global_strength must lie in [0, 1], got {self.global_strength}")
        if not (math.isfinite(self.noniid_shift) and self.noniid_shift >= 0.0):
            raise ValueError(f"noniid_shift must be finite and >= 0, got {self.noniid_shift}")
        check_seed(self.seed, "seed")


def _has_repeats(ids: np.ndarray) -> bool:
    """Whether the 1-d ``ids`` hold a value twice; strictly increasing ids,
    as generated shards hold, need no sort."""
    if (ids[1:] > ids[:-1]).all():
        return False
    ids = np.sort(ids, kind="stable")
    return bool((ids[1:] == ids[:-1]).any())


class GlobalStore:
    """Mapping id -> global feature row, with vectorized row gathering."""

    def __init__(self, ids: Sequence[int], features: np.ndarray) -> None:
        self._ids = np.asarray(ids, dtype=np.int64)
        self._features = np.asarray(features, dtype=np.float64)
        if self._ids.ndim != 1:
            raise ValueError(f"global store ids must be 1-d, got shape {self._ids.shape}")
        if self._features.ndim != 2 or self._features.shape[0] != self._ids.shape[0]:
            raise ValueError("features must be one row per id")
        if not np.isfinite(self._features).all():
            raise ValueError("global features must be finite")
        # sorted ids and their row positions, for lookups with one searchsorted
        self._order = np.argsort(self._ids, kind="stable")
        self._sorted = self._ids[self._order]
        if _has_repeats(self._sorted):
            raise ValueError("duplicate ids in global store")

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def dim(self) -> int:
        return self._features.shape[1]

    def _find(self, ids: Iterable[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``ids`` as an array, their positions in the sorted ids, and which are held."""
        wanted = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64)
        pos = np.searchsorted(self._sorted, wanted)
        hit = pos < len(self._sorted)
        hit[hit] = self._sorted[pos[hit]] == wanted[hit]
        return wanted, pos, hit

    def has(self, ids: Iterable[int]) -> np.ndarray:
        """Whether the store holds a row for each of ``ids``."""
        return self._find(ids)[2]

    def rows(self, ids: Iterable[int]) -> np.ndarray:
        wanted, pos, hit = self._find(ids)
        if not hit.all():
            raise KeyError(f"no global features for id {int(wanted[~hit][0])}")
        return self._features[self._order[pos]]


@dataclass(frozen=True)
class ClientShard:
    """One client's slice: aligned ids, local features, and labels."""

    client_id: int
    ids: np.ndarray
    x_local: np.ndarray
    y: np.ndarray
    q: float

    def __post_init__(self) -> None:
        # the rows align on each array's first axis; FederationDataset checks
        # the widths that training's stacks need
        for name in ("ids", "x_local", "y"):
            if np.ndim(getattr(self, name)) == 0:
                raise ValueError(f"client {self.client_id} has 0-d {name}, which holds no rows")
        if np.ndim(self.ids) != 1:
            raise ValueError(f"client {self.client_id} has ids of shape {np.shape(self.ids)}; ids must be 1-d")
        if not (len(self.ids) == self.x_local.shape[0] == self.y.shape[0]):
            raise ValueError(f"client {self.client_id} has ids, features and labels of unequal row counts")
        if _has_repeats(self.ids):
            raise ValueError(f"duplicate ids within client {self.client_id}")
        # training reads these rows unchecked, so they are checked here, once
        if not (np.isfinite(self.x_local).all() and np.isfinite(self.y).all()):
            raise ValueError(f"client {self.client_id} has non-finite features or labels")

    @property
    def n(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class FederationDataset:
    clients: tuple[ClientShard, ...]
    test_clients: tuple[ClientShard, ...]
    global_store: GlobalStore

    def __post_init__(self) -> None:
        weights = [shard.q for shard in self.clients]
        if any(q <= 0.0 for q in weights):
            raise ValueError("client weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"client weights must sum to 1, got {sum(weights)}")
        # training stacks the shards, so each is 2-d with the first one's widths
        widths = (self.clients[0].x_local.shape[-1], self.clients[0].y.shape[-1])
        for shard in (*self.clients, *self.test_clients):
            if shard.x_local.ndim != 2 or shard.y.ndim != 2 or (shard.x_local.shape[1], shard.y.shape[1]) != widths:
                raise ValueError(
                    f"client {shard.client_id} has features {shard.x_local.shape} and labels {shard.y.shape};"
                    f" every shard needs 2-d features of {widths[0]} columns and labels of {widths[1]}"
                )
        if any(len({s.client_id for s in split}) != len(split) for split in (self.clients, self.test_clients)):
            raise ValueError("client ids repeat within the training or the test shards")
        # ids are distinct within each shard, so a repeat is an overlap across shards
        ids = np.concatenate([shard.ids for shard in (*self.clients, *self.test_clients)])
        if _has_repeats(ids):
            raise ValueError("sample id spaces overlap across shards")
        missing = np.sort(ids[~self.global_store.has(ids)])
        if missing.size:
            raise ValueError(f"global store misses {missing.size} ids, e.g. {missing[:3].tolist()}")

    @property
    def d_local(self) -> int:
        return self.clients[0].x_local.shape[1]

    @property
    def d_global(self) -> int:
        return self.global_store.dim

    @property
    def d_label(self) -> int:
        return self.clients[0].y.shape[1]

    @property
    def n_clients(self) -> int:
        return len(self.clients)


@dataclass(frozen=True)
class FeatureMap:
    """Fixed one-hidden-layer tanh map used as ground truth."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(np.asarray(x, dtype=np.float64) @ self.w1.T + self.b1) @ self.w2.T


def _draw_map(rng: np.random.Generator, d_in: int, d_out: int) -> FeatureMap:
    w1 = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(TRUTH_HIDDEN, d_in))
    b1 = rng.normal(0.0, 0.5, size=TRUTH_HIDDEN)
    w2 = rng.normal(0.0, 1.6 / math.sqrt(TRUTH_HIDDEN), size=(d_out, TRUTH_HIDDEN))
    return FeatureMap(w1=w1, b1=b1, w2=w2)


def truth_maps(config: SynthConfig) -> tuple[FeatureMap, FeatureMap]:
    """The (local, global) ground-truth maps implied by the config seed."""
    rng = substream(config.seed, "truth")
    g = _draw_map(rng, config.d_local, config.d_label)
    h = _draw_map(rng, config.d_global, config.d_label)
    return g, h


def generate(config: SynthConfig) -> FederationDataset:
    """Generate a seeded federation dataset with an 80/20 train/test split by id.

    Client j holds ids j*n to (j+1)*n - 1 and draws from its stream (seed,
    "client", j), in this order: its ``(n, d_local)`` local features; under
    a non-iid shift, a direction, scaled to unit ``np.linalg.norm``, whose
    ``noniid_shift`` multiple moves them; its ``(n, d_global)`` global
    features; its ``(n, d_label)`` noise, scaled by ``noise_std``; and the
    permutation of its rows whose first ``round(0.8 n)`` train. Each split
    holds its rows in id order, and its shards are views of the split's
    ``(N, rows, d)`` stacks.
    """
    g_map, h_map = truth_maps(config)
    count, n = config.n_clients, config.samples_per_client
    rngs = generators(seed_states([(config.seed, "client", j) for j in range(count)]))
    x_local, x_global, noise = (np.empty((count, n, d)) for d in (config.d_local, config.d_global, config.d_label))
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=x_local[j])
        if config.noniid_shift > 0.0:
            direction = rng.standard_normal(config.d_local)
            direction /= np.linalg.norm(direction)
            x_local[j] += config.noniid_shift * direction
        rng.standard_normal(out=x_global[j])
        rng.standard_normal(out=noise[j])
    order = permutations(rngs, n)
    y = g_map(x_local) + config.global_strength * h_map(x_global) + noise * config.noise_std

    # each split's rows in id order
    n_train = int(round(0.8 * n))
    order[:, :n_train].sort()
    order[:, n_train:].sort()
    ids = order + n * np.arange(count)[:, None]
    x_local, y = (np.take_along_axis(f, order[..., None], axis=1) for f in (x_local, y))
    # every client trains on the same number of rows, so each weighs 1/N
    q = 1.0 / count
    clients, test_clients = (
        tuple(ClientShard(j, ids[j, rows], x_local[j, rows], y[j, rows], q) for j in range(count))
        for rows in (slice(n_train), slice(n_train, n))
    )
    store = GlobalStore(np.arange(count * n), x_global.reshape(count * n, config.d_global))
    return FederationDataset(clients=clients, test_clients=test_clients, global_store=store)


def estimate_lambda(
    gradients: Sequence[np.ndarray],
    q: Sequence[float],
) -> float | None:
    """Gradient-divergence ratio sum_j q_j ||g_j||^2 / ||sum_j q_j g_j||^2.

    Returns None (the unbounded sentinel) when the aggregated gradient
    vanishes; otherwise the ratio, which is always >= 1.
    """
    if len(gradients) != len(q):
        raise ValueError("gradients and weights must have equal length")
    if len(gradients) == 0:
        raise ValueError("need at least one gradient")
    weights = np.asarray(q, dtype=np.float64)
    if np.any(weights <= 0.0):
        raise ValueError("weights must be positive")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {weights.sum()}")
    flats = [np.asarray(g, dtype=np.float64).ravel() for g in gradients]
    dim = flats[0].shape[0]
    if any(f.shape[0] != dim for f in flats):
        raise ValueError("gradients must share a common shape")
    numerator = float(sum(w * float(f @ f) for w, f in zip(weights, flats)))
    mean = np.zeros(dim)
    for w, f in zip(weights, flats):
        mean += w * f
    denominator = float(mean @ mean)
    if denominator == 0.0:
        return None
    return numerator / denominator


def permutations(rngs: Sequence[np.random.Generator], n: int) -> np.ndarray:
    """The ``(G, n)`` index of G shuffled orders of n rows: row g is generator
    g's permutation of the rows, ``arange(n)`` shuffled in place, as
    ``Generator.permutation(n)`` draws it. Every training phase shuffles here."""
    orders = np.repeat(np.arange(n)[None], len(rngs), axis=0)
    for rng, row in zip(rngs, orders):
        rng.shuffle(row)
    return orders


def batches(
    rngs: Sequence[np.random.Generator],
    fields: Sequence[np.ndarray | None],
    batch_size: int,
    out: Sequence[np.ndarray | None] | None = None,
    rows: np.ndarray | None = None,
) -> list[tuple[np.ndarray, list[np.ndarray | None]]]:
    """Seeded shuffled mini-batches of G stacked shards of n rows each.

    Each field is an ``(S, n, d)`` stack of shards, or None (no side rows).
    ``rows`` holds the positions in the stacks of the G shards that train,
    one per stream; when None, every shard trains, in stack order. The
    shards' orders are the :func:`permutations` of their streams, one
    ``(G, n)`` index. Every field is taken once through ``rows * n + order``
    with one ``np.take``, into its ``(G, n, d)`` buffer of ``out`` or a fresh
    array. Each batch is the index's slice and the ``(G, b, d)`` views of the
    shuffled fields, aligned by id. The final short batch is kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    present = [f for f in fields if f is not None]
    shards, n = present[0].shape[:2]
    for f in present:
        if f.shape[:2] != (shards, n):
            raise ValueError(f"a field has {f.shape[:2]} shards x rows, expected {(shards, n)}")
    rows = np.arange(shards) if rows is None else np.asarray(rows)
    if rows.shape != (len(rngs),) or (rows.size and not 0 <= rows.min() <= rows.max() < shards):
        raise ValueError(f"{len(rngs)} streams need as many rows of {shards} shards, got {rows.tolist()}")
    orders = permutations(rngs, n)
    # each shard's order as rows of the fields' (S * n, d) forms; in range by
    # the checks above, so "clip" spares the copy of ``out`` that "raise" makes
    index = orders + n * rows[:, None]
    shuffled = [
        None if f is None else np.take(f.reshape(-1, f.shape[-1]), index, 0, None if out is None else out[k], "clip")
        for k, f in enumerate(fields)
    ]
    cuts = [slice(start, start + batch_size) for start in range(0, n, batch_size)]
    return [(orders[:, cut], [None if f is None else f[:, cut] for f in shuffled]) for cut in cuts]
