"""Named deterministic random streams.

Every stochastic component draws from its own substream keyed by
(seed, *tags), so results do not depend on scheduling or on how many
draws other components consume.

Each entry of a key becomes a 64-bit word: the seed and an int tag modulo
2**64, any other tag the first 8 bytes of the sha256 of its ``str`` (cached
per str). So a configured seed must lie in 0..2**64 - 1, where no two
seeds share a word (:func:`check_seed`). The words enter ``SeedSequence``
as one ``uint32`` array of their little-endian 32-bit halves, where a word
below 2**32, zero too, gives one half. That is the array numpy itself
builds from a list of the 64-bit words, so the streams are the same as
from such a list. But numpy takes a ``uint32`` array as it is, and
converts a list int by int in Python.

``seed_states`` seeds many keys bit for bit as ``substream``, its reference
and the single-key API. It builds the halves one key position at a time, a
position of ints or of strs with one numpy conversion, and runs
``SeedSequence``, O'Neill's ``seed_seq_fe`` hash, as ``uint32`` array
operations, once per entropy length for all the keys a run knows ahead. On
1,500 keys of four entries it takes about 1.1 us a key on a 2-core x86 host,
where building each key's halves in Python took 2.4 to 3.0 us, and a
``substream`` call about 20 us. ``generators`` builds fresh generators from
its rows where they draw.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
from typing import Callable, Sequence

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def check_seed(seed: int, name: str) -> None:
    """Reject a seed outside 0..2**64 - 1, as ``ValueError`` naming it: a key
    takes its seed modulo 2**64, so it would draw the streams of a seed in
    range."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must lie in 0..2**64 - 1, got {seed}")


def _words(value: int) -> tuple[int, ...]:
    """The 32-bit words of a 64-bit value, least significant first."""
    high = value >> 32
    return (value & _MASK32, high) if high else (value,)


@functools.lru_cache(maxsize=1024)
def _str_value(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def _seed_value(seed: object) -> int:
    return int(seed) & _MASK64


def _tag_value(tag: object) -> int:
    """A tag's 64-bit word: an int modulo 2**64, any other tag the hash of its ``str``."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return _str_value(str(tag))


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Return an independent generator for the stream named by ``tags``."""
    entropy = list(_words(_seed_value(seed)))
    for tag in tags:
        entropy += _words(_tag_value(tag))
    return np.random.default_rng(np.random.SeedSequence(np.array(entropy, dtype=np.uint32)))


# numpy's SeedSequence: a pool of 4 words, filled by hashmix and mix
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.lru_cache(maxsize=32)
def _chain(start: int, mult: int, calls: int) -> np.ndarray:
    """``start * mult**i`` mod 2**32, i = 0..calls: the hash constant around each call."""
    consts = [start * pow(mult, i, 1 << 32) & _MASK32 for i in range(calls + 1)]
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of the k rows of ``values`` by k calls; uint32 arrays wrap, scalars warn."""
    mixed = (values ^ consts[:-1]) * consts[1:]
    return mixed ^ (mixed >> 16)


def _hash_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, np.uint64)`` of each column of an
    ``(L, keys)`` uint32 array, L >= 4 (it pools shorter ones zero-padded)."""
    consts = _chain(_INIT_A, _MULT_A, _POOL * entropy.shape[0])
    pool = _hashmix(entropy[:_POOL], consts[: _POOL + 1])
    at = _POOL
    # each pool word mixes into the other three, each further word into all four
    for src in range(entropy.shape[0]):
        dst = [d for d in range(_POOL) if d != src]
        word = pool[src] if src < _POOL else entropy[src]
        mixed = pool[dst] * _MIX_MULT_L - _hashmix(word, consts[at : at + len(dst) + 1]) * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
        at += len(dst)
    state = _hashmix(np.concatenate([pool, pool]), _chain(_INIT_B, _MULT_B, 2 * _POOL))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_state_type() -> type:
    """The seed sequence class of :func:`generators`, made on first use:
    deriving it needs ``numpy.random``, whose import takes about 10 ms."""

    class _SeedState(np.random.bit_generator.ISeedSequence):
        """The ``generate_state(4, np.uint64)`` words, all ``PCG64`` asks of its
        seed sequence, precomputed; it cannot spawn."""

        def __init__(self, state: np.ndarray) -> None:
            self._state = state

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            if n_words != _POOL or np.dtype(dtype) != np.uint64:
                raise ValueError(f"only generate_state(4, uint64) is precomputed, not ({n_words}, {dtype})")
            return self._state

    return _SeedState


def _column_values(column: tuple[object, ...], value: Callable[[object], int]) -> np.ndarray:
    """The 64-bit words of one key position, ``value`` of each entry, as a
    ``uint64`` array: a column of ints within int64 converts in one numpy
    call, any other column entry by entry."""
    kinds = set(map(type, column))
    if kinds <= {int, bool}:
        with contextlib.suppress(OverflowError):
            return np.array(column, dtype=np.int64).view(np.uint64)
    elif kinds == {str} and value is _tag_value:
        # str tags go straight to the hash cache, without a type test each
        value = _str_value
    return np.fromiter(map(value, column), dtype=np.uint64, count=len(column))


def seed_states(keys: Sequence[tuple[object, ...]]) -> np.ndarray:
    """The ``(len(keys), 4)`` uint64 words that ``substream(*key)`` seeds its
    ``PCG64`` with, for each key, in one hash pass per entropy length.

    The keys of each tag count are read one position at a time: each
    position's words split into their low and high halves, the high half kept
    where it is not zero. Each key's kept halves, packed in order and padded
    with zeros to the pool size, are the entropy that ``SeedSequence`` hashes.
    """
    sizes = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    halves = np.zeros((2 * sizes.max(initial=0), len(keys)), dtype=np.uint64)
    for size in set(sizes.tolist()):
        members = np.flatnonzero(sizes == size)
        seeds, *tags = zip(*[keys[i] for i in members])
        words = np.stack([_column_values(seeds, _seed_value), *(_column_values(tag, _tag_value) for tag in tags)])
        halves[0 : 2 * size : 2, members] = words & _MASK32
        halves[1 : 2 * size : 2, members] = words >> 32
    # the low half at each of a key's positions, the high half where it is not zero
    kept = halves != 0
    kept[::2] = np.arange(len(halves) // 2)[:, None] < sizes
    rows = np.cumsum(kept, axis=0) - 1
    lengths = np.maximum(kept.sum(axis=0), _POOL)
    entropy = np.zeros((lengths.max(initial=_POOL), len(keys)), dtype=np.uint32)
    entropy[rows[kept], np.nonzero(kept)[1]] = halves[kept]
    states = np.empty((len(keys), _POOL), dtype=np.uint64)
    for length in set(lengths.tolist()):
        members = np.flatnonzero(lengths == length)
        states[members] = _hash_states(entropy[:length, members])
    return states


def generators(states: np.ndarray) -> list[np.random.Generator]:
    """A fresh generator per row of :func:`seed_states`, bit for bit
    ``substream(*key)``; it cannot ``spawn``."""
    seed_state = _seed_state_type()
    return [np.random.Generator(np.random.PCG64(seed_state(state))) for state in states]
