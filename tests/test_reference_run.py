"""Whole runs of the four modes against the plain reference engine of
``tests/reference.py``, bit for bit, over drawn small configs.

The rewritten round stacks clients and shards, plans every stream and the
channel before round 0, takes the broadcast's u0 from the train split and
replays run-long op lists; the pooled phase replays op lists over the
pooled rows gathered in each round's order; the reference does none of
that. The bits agree where a stacked product rounds each slice as the
slice alone: under the SkylakeX and Haswell OpenBLAS kernels, not under
Katmai (see the reference module).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reference import interleaved_dataset, reference_run
from vhfl_lab import fedcore, netqueue
from vhfl_lab.fedcore import FederationConfig, Schedule

# gamma(t_p) is about 0.13 at t_p = 0.1 and 0.64 at t_p = 1.0
CHANNEL = netqueue.ChannelModel(2.0, 0.5, 0.5, 8.0, 2.0, t_p=math.inf, seed=3)
# the engine of each mode
ENGINES = {
    "vhfl": fedcore.run_vhfl,
    "hfl": fedcore.run_hfl,
    "cloud": lambda fed, dataset: fedcore.run_cloud(fed, dataset, use_global=True),
    "cloud_local": lambda fed, dataset: fedcore.run_cloud(fed, dataset, use_global=False),
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def runs(draw):
    """A small dataset of unequal shards with interleaved ids, and a config
    over every K, 1 to 3 local epochs, both combines and aggregators, the
    three activations, three hidden forms and finite and infinite
    deadlines, for one of the four modes."""
    count = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    test_sizes = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
    d_label = draw(st.integers(1, 2))
    combine = draw(st.sampled_from(fedcore.COMBINES))
    d_local, d_global = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dataset = interleaved_dataset(sizes, test_sizes, d_local, d_global, d_label, draw(st.integers(0, 2**16)))
    t_p = draw(st.sampled_from((math.inf, 0.1, 1.0)))
    fed = FederationConfig(
        n_clients=count,
        k=draw(st.integers(1, count)),
        local_epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 5)),
        global_epochs=3,
        eta=draw(st.sampled_from((Schedule("constant", 0.05), Schedule("inverse", 0.2, t0=2.0)))),
        eta0=Schedule("constant", 0.05),
        seed=draw(st.integers(0, 2**16)),
        combine=combine,
        aggregator=draw(st.sampled_from(fedcore.AGGREGATORS)),
        w0_hidden=draw(st.sampled_from(((), (6,), (6, 4)))),
        u0_dim=d_label if combine == "additive" else draw(st.integers(1, 3)),
        local_hidden=draw(st.sampled_from(((), (6,), (6, 4)))),
        activation=draw(st.sampled_from(("identity", "relu", "tanh"))),
        deadline_channel=dataclasses.replace(CHANNEL, t_p=t_p),
    )
    return fed, dataset, draw(st.sampled_from(tuple(ENGINES)))


@settings(max_examples=150, deadline=None)
@given(runs())
def test_runs_match_the_plain_reference_engine_bit_for_bit(run):
    fed, dataset, mode = run
    engine, use_global = ENGINES[mode], mode in ("vhfl", "cloud")
    event(mode)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want_center, want = reference_run(fed, dataset, mode)
    except ValueError:
        event("diverged")
        # the reference diverged: a public step met non-finite values
        with pytest.raises(ValueError, match="^non-finite values after"):
            engine(fed, dataset)
        return
    got_center, got = engine(fed, dataset)
    assert [row.epoch for row in got] == [row.epoch for row in want]
    assert [row.k_received for row in got] == [row.k_received for row in want]
    for field in ("train_mse", "test_mse", "test_error_ratio"):
        assert [getattr(row, field) for row in got] == [getattr(row, field) for row in want], field
    assert same_bits(got_center.wbar.params, want_center.wbar.params)
    assert (got_center.w0 is None) == (want_center.w0 is None) == (not use_global)
    if use_global:
        assert same_bits(got_center.w0.params, want_center.w0.params)
