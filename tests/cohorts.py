"""A round's cohort for the tests.

``client_update`` takes the cohort as a ``fedcore.Split`` and the centrally
processed rows u0 as one ``(G, n, u0_dim)`` stack per size group; a test
writes u0 down per client, and reads stacks back the same way.
"""

from __future__ import annotations

import numpy as np

from vhfl_lab import fedcore


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
