"""``rng.substream`` against the construction it replaced, written out here,
and the generators of ``rng.seed_states`` against ``substream``."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vhfl_lab
from vhfl_lab.rng import generators, seed_states, substream

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


def same_streams(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.bit_generator.state == b.bit_generator.state
        assert a.integers(0, 2**63, size=3).tolist() == b.integers(0, 2**63, size=3).tolist()


# keys of one to nine entropy words, mixed within a call
key_tuples = st.builds(lambda seed, tags: (seed, *tags), int_keys, st.lists(keys, max_size=4))


def seeded(keys):
    return generators(seed_states(keys))


@settings(max_examples=300, deadline=None)
@given(st.lists(key_tuples, max_size=30))
def test_seeded_generators_give_the_bits_of_substream(calls):
    same_streams(seeded(calls), [substream(*key) for key in calls])


@settings(max_examples=200, deadline=None)
@given(key_tuples, st.lists(key_tuples, max_size=15), st.lists(key_tuples, max_size=15))
def test_a_keys_stream_does_not_depend_on_the_keys_sharing_its_call(key, before, others):
    same_streams(seeded([*before, key])[-1:], seeded([key, *others])[:1])


def test_seed_states_of_no_keys():
    assert seed_states([]).shape == (0, 4)
    assert generators(seed_states([])) == []


def test_batched_seed_words_serve_only_pcg64s_request():
    (gen,) = seeded([(7, "batches", 0, 3)])
    seed_seq = gen.bit_generator.seed_seq
    # derived from ISeedSequence, not registered with it: numpy's isinstance test is faster
    assert np.random.bit_generator.ISeedSequence in type(seed_seq).__mro__
    assert seed_seq.generate_state(4, np.uint64).shape == (4,)
    for request in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="only generate_state"):
            seed_seq.generate_state(*request)


def test_importing_the_harness_leaves_numpy_random_unimported():
    """The seed sequence class is made on first use, so a process that imports
    the lab does not pay for importing ``numpy.random``."""
    src = str(Path(vhfl_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, vhfl_lab.harness; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# the kinds of entry one key position may hold across the keys of a call:
# seed_states converts a position of plain ints or of strs in one pass, and
# any other position entry by entry
edge_ints = st.sampled_from((0, 1, -1, -(2**31), 2**32 - 1, 2**32, 2**63 - 1, -(2**63), 2**64 - 1, 2**64, -(2**70)))
seed_kinds = (
    st.integers(-(2**63), 2**63 - 1),
    edge_ints,
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans(),
    int_keys,
)
tag_kinds = (
    *seed_kinds,
    st.text(max_size=12),
    st.sampled_from(("batches", "channel", "select", "7", "")),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e6, 1e6).map(np.float64),
    st.one_of(keys, st.floats(), st.none(), st.tuples(st.integers(0, 9), st.integers(0, 9))),
)


@st.composite
def key_columns(draw) -> list[tuple]:
    """Keys of one tag count, each position drawn from one kind."""
    n_tags, n_keys = draw(st.integers(0, 4)), draw(st.integers(1, 8))
    kinds = [draw(st.sampled_from(seed_kinds))] + [draw(st.sampled_from(tag_kinds)) for _ in range(n_tags)]
    columns = [draw(st.lists(kind, min_size=n_keys, max_size=n_keys)) for kind in kinds]
    return list(zip(*columns))


@settings(max_examples=300, deadline=None)
@given(st.lists(key_columns(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_seed_states_seeds_a_mixed_call_as_substream(groups, random):
    """One call over keys of several tag counts and word counts, interleaved,
    each position of each tag count of one kind: ints at the 32- and 64-bit
    edges and negative, ``np.int64``, bools, strs, and floats, ``None`` and
    tuples, which take the ``str`` path."""
    calls = [key for group in groups for key in group]
    random.shuffle(calls)
    same_streams(seeded(calls), [substream(*key) for key in calls])


def test_seed_states_seeds_each_kind_of_tag_as_substream():
    calls = [
        (0, "batches", 0, 0),
        (2**32 - 1, "batches", 2**32, 2**64 - 1),
        (-1, "channel", -5, -(2**63)),
        (np.int64(7), np.int64(-3), True, False),
        (2**64 + 3, 1.5, float("nan"), -0.0),
        (3,),
        (4, "select"),
        (5, 2**70, -(2**70), np.uint64(2**64 - 1), "x", (1, 2), None),
    ]
    same_streams(seeded(calls), [substream(*key) for key in calls])
