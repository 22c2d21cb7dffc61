"""A round's cohort and streams for the tests.

``client_update`` takes the run's train split, the round's cohort as client
ids of that split, and wbar's input and side stacks per size group of the
split, as ``fedcore.center_broadcast`` sends them, each input with its
ones column. A test writes u0 down per client and combines it with the
local rows here (``split_of``), and reads stacks back per client the same
way (``by_client``). A run seeds
every round's streams before its first round and hands each phase its
round's generators, or the channel its delay streams' seed words;
``update`` and ``deliver`` seed them from the same keys that
``fedcore.plan_run`` writes, for a phase called alone.
"""

from __future__ import annotations

import numpy as np

from vhfl_lab import fedcore, netqueue, nnet, rng


def streams(keys):
    """Fresh generators for ``keys``, seeded in one pass as a run seeds them."""
    return rng.generators(rng.seed_states(keys))


def update(config, train, wbar, inputs, t_g, cohort=None):
    """``fedcore.client_update`` of ``cohort``, client ids of ``train`` (all
    its shards in split order when None), with their batch streams of round
    ``t_g``."""
    cohort = [shard.client_id for shard in train.shards] if cohort is None else cohort
    keys = [(config.seed, "batches", client_id, t_g) for client_id in cohort]
    return fedcore.client_update(config, train, cohort, wbar, inputs, streams(keys), t_g)


def deliver(channel, uploads, epoch):
    """The upload keys ``netqueue.apply_channel`` delivers, each upload drawn
    from its delay stream (channel seed, "channel", epoch, key)."""
    mask = netqueue.apply_channel(channel, rng.seed_states([(channel.seed, "channel", epoch, key) for key in uploads]))
    return [key for key, kept in zip(uploads, mask, strict=True) if kept]


def split_of(config, shards, u0=None):
    """The train split of ``shards``, and wbar's input and side stacks per
    size group: ``u0`` (client id -> rows in shard order, or None) combined
    with the local rows under ``config.combine``, each input with its ones
    column, as ``nnet`` takes a layer input."""
    train = fedcore.build_split(shards, None)
    if u0 is None:
        return train, [(nnet.with_ones(group.x_local), None) for group in train.groups]
    sides = [np.stack([u0[shards[pos].client_id] for pos in group.positions]) for group in train.groups]
    if config.combine == "concat":
        return train, [
            (nnet.with_ones(np.concatenate([side, g.x_local], axis=-1)), None) for side, g in zip(sides, train.groups)
        ]
    return train, [(nnet.with_ones(group.x_local), side) for group, side in zip(train.groups, sides)]


def by_client(split, stacks):
    """Per-group stacks read back per client: client id -> its rows."""
    return {
        split.shards[pos].client_id: rows
        for group, stack in zip(split.groups, stacks)
        for pos, rows in zip(group.positions, stack)
    }
