"""``rng.substream`` against the construction it replaced, written out here."""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vhfl_lab.rng import substream

MASK64 = (1 << 64) - 1


def reference_word(tag: object) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & MASK64
    return int.from_bytes(hashlib.sha256(str(tag).encode("utf-8")).digest()[:8], "big")


def reference_substream(seed: int, *tags: object) -> np.random.Generator:
    """A SeedSequence over a list of Python ints, one 64-bit word per key."""
    entropy = [int(seed) & MASK64] + [reference_word(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


int_keys = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from((0, -1, 2**32 - 1, 2**32, 2**64 - 1, 2**64)),
    st.integers(2**32, 2**64 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
)
keys = st.one_of(int_keys, st.text(max_size=12), st.sampled_from(("batches", "channel", "select", "7", "")))


@settings(max_examples=400, deadline=None)
@given(int_keys, st.lists(keys, max_size=4))
def test_substream_gives_the_bits_of_a_list_of_64_bit_words(seed, tags):
    got, want = substream(seed, *tags), reference_substream(seed, *tags)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**63, size=3).tolist() == want.integers(0, 2**63, size=3).tolist()
