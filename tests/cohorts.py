"""A round's cohort and streams for the tests.

``client_update`` takes the cohort as a ``fedcore.Split`` and the centrally
processed rows u0 as one ``(G, n, u0_dim)`` stack per size group; a test
writes u0 down per client, and reads stacks back the same way. A run seeds
every round's streams before its first round and hands each phase its
round's generators, or the channel its delay streams' seed words;
``update`` and ``deliver`` seed them from the same keys that
``fedcore.plan_run`` writes, for a phase called alone.
"""

from __future__ import annotations

import numpy as np

from vhfl_lab import fedcore, netqueue, rng


def streams(keys):
    """Fresh generators for ``keys``, seeded in one pass as a run seeds them."""
    return rng.generators(rng.seed_states(keys))


def update(config, cohort, wbar, u0, t_g):
    """``fedcore.client_update`` with the cohort's batch streams of round ``t_g``."""
    keys = [(config.seed, "batches", shard.client_id, t_g) for shard in cohort.shards]
    return fedcore.client_update(config, cohort, wbar, u0, streams(keys), t_g)


def deliver(channel, uploads, epoch):
    """The upload keys ``netqueue.apply_channel`` delivers, each upload drawn
    from its delay stream (channel seed, "channel", epoch, key)."""
    mask = netqueue.apply_channel(channel, rng.seed_states([(channel.seed, "channel", epoch, key) for key in uploads]))
    return [key for key, kept in zip(uploads, mask, strict=True) if kept]


def cohort_of(shards, u0=None):
    """The cohort of ``shards``, and ``u0`` (client id -> rows in shard order,
    or None) stacked per size group."""
    cohort = fedcore.build_split(shards, None)
    if u0 is None:
        return cohort, None
    return cohort, [np.stack([u0[shards[pos].client_id] for pos in group.positions]) for group in cohort.groups]


def by_client(cohort, stacks):
    """Per-group stacks read back per client: client id -> its rows."""
    return {
        cohort.shards[pos].client_id: rows
        for group, stack in zip(cohort.groups, stacks)
        for pos, rows in zip(group.positions, stack)
    }
