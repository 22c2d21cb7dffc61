"""Synthetic vertically+horizontally partitioned federation datasets.

Clients hold disjoint sample ids with local features and labels; the
center holds a global feature vector per id. Labels mix a fixed random
smooth map of the local features with a strength-weighted map of the
global features plus Gaussian noise, so the usefulness of the central
observation is a controllable knob. Client feature distributions can be
mean-shifted to control how non-identical the shards are, and the
divergence of client gradients is measured by ``estimate_lambda``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rng import substream

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
    public_fraction: float = 0.0
    q_mode: str = "proportional"

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.samples_per_client < 3:
            # fewer leave the 80/20 split without a test sample
            raise ValueError(f"samples_per_client must be >= 3, got {self.samples_per_client}")
        if min(self.d_local, self.d_global, self.d_label) < 1:
            raise ValueError("feature and label dimensions must be >= 1")
        if self.noise_std < 0.0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.global_strength <= 1.0:
            raise ValueError(f"global_strength must lie in [0, 1], got {self.global_strength}")
        if self.noniid_shift < 0.0:
            raise ValueError(f"noniid_shift must be >= 0, got {self.noniid_shift}")
        if not 0.0 <= self.public_fraction <= 1.0:
            raise ValueError(f"public_fraction must lie in [0, 1], got {self.public_fraction}")
        if self.q_mode not in ("proportional", "uniform"):
            raise ValueError(f"unknown q_mode {self.q_mode!r}")


def _has_repeats(ids: np.ndarray) -> bool:
    ids = np.sort(ids, kind="stable")
    return bool(np.any(ids[1:] == ids[:-1]))


class GlobalStore:
    """Mapping id -> global feature row, with vectorized row gathering."""

    def __init__(self, ids: Sequence[int], features: np.ndarray) -> None:
        self._ids = np.asarray(ids, dtype=np.int64)
        self._features = np.asarray(features, dtype=np.float64)
        if self._features.ndim != 2 or self._features.shape[0] != self._ids.shape[0]:
            raise ValueError("features must be one row per id")
        if not np.all(np.isfinite(self._features)):
            raise ValueError("global features must be finite")
        # sorted ids and their row positions, for lookups with one searchsorted
        self._order = np.argsort(self._ids, kind="stable")
        self._sorted = self._ids[self._order]
        if _has_repeats(self._sorted):
            raise ValueError("duplicate ids in global store")

    def __len__(self) -> int:
        return len(self._ids)

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
        if not (len(self.ids) == self.x_local.shape[0] == self.y.shape[0]):
            raise ValueError("ids, features and labels must align")
        if _has_repeats(self.ids):
            raise ValueError(f"duplicate ids within client {self.client_id}")
        # training reads these rows unchecked, so they are checked here, once
        if not (np.all(np.isfinite(self.x_local)) and np.all(np.isfinite(self.y))):
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
    """Generate a seeded federation dataset with an 80/20 train/test split by id."""
    g_map, h_map = truth_maps(config)
    n = config.samples_per_client
    n_public = int(round(config.public_fraction * n))

    all_ids: list[np.ndarray] = []
    all_global: list[np.ndarray] = []
    train_shards: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    test_shards: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    next_id = 0
    for j in range(config.n_clients):
        ids = np.arange(next_id, next_id + n, dtype=np.int64)
        next_id += n

        rng = substream(config.seed, "client", j)
        x_local = rng.standard_normal((n, config.d_local))
        if config.noniid_shift > 0.0:
            direction = rng.standard_normal(config.d_local)
            direction /= np.linalg.norm(direction)
            shift = config.noniid_shift * direction
            # public samples stay on the common distribution
            x_local[n_public:] += shift
        x_global = rng.standard_normal((n, config.d_global))
        noise = rng.standard_normal((n, config.d_label)) * config.noise_std
        y = g_map(x_local) + config.global_strength * h_map(x_global) + noise

        n_train = int(round(0.8 * n))
        perm = rng.permutation(n)
        train_idx = np.sort(perm[:n_train])
        test_idx = np.sort(perm[n_train:])

        all_ids.append(ids)
        all_global.append(x_global)
        train_shards.append((j, ids[train_idx], x_local[train_idx], y[train_idx]))
        test_shards.append((j, ids[test_idx], x_local[test_idx], y[test_idx]))

    counts = np.array([shard[1].shape[0] for shard in train_shards], dtype=np.float64)
    if config.q_mode == "proportional":
        weights = counts / counts.sum()
    else:
        weights = np.full(config.n_clients, 1.0 / config.n_clients)

    clients = tuple(
        ClientShard(client_id=j, ids=i, x_local=x, y=y, q=float(weights[j]))
        for (j, i, x, y) in train_shards
    )
    test_clients = tuple(
        ClientShard(client_id=j, ids=i, x_local=x, y=y, q=float(weights[j]))
        for (j, i, x, y) in test_shards
    )
    store = GlobalStore(np.concatenate(all_ids), np.vstack(all_global))
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


@dataclass(frozen=True)
class Batch:
    ids: np.ndarray
    x_local: np.ndarray
    x_side: np.ndarray | None
    y: np.ndarray
    index: np.ndarray  # positions of the batch's samples within the shard


def batches(
    shard: ClientShard,
    side: np.ndarray | None,
    batch_size: int,
    seed: int | np.random.Generator,
) -> list[Batch]:
    """Seeded shuffled mini-batches with id-aligned local/side/label rows.

    ``side`` gives each sample's side row (global features or centrally
    processed features), one row per shard sample in shard order. Pass None
    when the client trains on local features alone. The final short batch
    is kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if side is not None and side.shape[0] != shard.n:
        raise ValueError(f"side has {side.shape[0]} rows, shard has {shard.n} samples")
    rng = seed if isinstance(seed, np.random.Generator) else substream(int(seed), "batches")
    order = rng.permutation(shard.n)
    out = []
    for start in range(0, shard.n, batch_size):
        idx = order[start : start + batch_size]
        x_side = None if side is None else side[idx]
        out.append(
            Batch(ids=shard.ids[idx], x_local=shard.x_local[idx], x_side=x_side, y=shard.y[idx], index=idx)
        )
    return out

