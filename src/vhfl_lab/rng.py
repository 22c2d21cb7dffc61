"""Named deterministic random streams.

Every stochastic component draws from its own substream keyed by
(seed, *tags), so results do not depend on scheduling or on how many
draws other components consume.

Each key becomes a 64-bit word: an int tag modulo 2**64, any other tag the
first 8 bytes of the sha256 of its ``str`` (cached per str). The words
enter ``SeedSequence`` as one ``uint32`` array of their little-endian
32-bit halves, where a word below 2**32, zero too, gives one half. That is
the array numpy itself builds from a list of the 64-bit words, so the
streams are the same as from such a list. But numpy takes a ``uint32``
array as it is, and converts a list int by int in Python. That conversion,
with the sha256 of each str tag, took about a third of a call: 25 against
16 us on a 2-core x86 host.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _words(value: int) -> tuple[int, ...]:
    """The 32-bit words of a 64-bit value, least significant first."""
    high = value >> 32
    return (value & _MASK32, high) if high else (value,)


@functools.lru_cache(maxsize=1024)
def _str_words(tag: str) -> tuple[int, ...]:
    return _words(int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big"))


def _tag_words(tag: object) -> tuple[int, ...]:
    if isinstance(tag, (int, np.integer)):
        return _words(int(tag) & _MASK64)
    return _str_words(str(tag))


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Return an independent generator for the stream named by ``tags``."""
    entropy = list(_words(int(seed) & _MASK64))
    for tag in tags:
        entropy += _tag_words(tag)
    return np.random.default_rng(np.random.SeedSequence(np.array(entropy, dtype=np.uint32)))
