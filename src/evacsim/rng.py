"""Deterministic random-stream derivation.

One master seed fans out into named, independent substreams so that
toggling or reordering one consumer (say, CA conflict lotteries) cannot
shift the draws seen by another (say, population spawning).  Streams are
derived with ``numpy.random.SeedSequence(entropy=seed, spawn_key=(k,))``,
which is stable across platforms and numpy versions.
"""
from __future__ import annotations

import numpy as np

# Stream name -> spawn key.  Append only; renumbering breaks reproducibility.
STREAM_KEYS = {
    "spawn_attrs": 0,   # agent attribute sampling
    "spawn_pos": 1,     # agent placement
    "reaction": 2,      # pre-movement delay draws
    "decisions": 3,     # replan lotteries and message delivery
    "ca_conflicts": 4,  # CA proposal noise and conflict lotteries
    "bodies": 5,        # social-force body radii
}


def substream(seed: int, name: str) -> np.random.Generator:
    key = STREAM_KEYS[name]
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seq))


class RngStreams:
    """The named substreams of one master seed, one attribute each.

    Each stream seeds from its own spawn key, so building all six draws
    nothing from any of them."""

    def __init__(self, seed: int):
        self.spawn_attrs = substream(seed, "spawn_attrs")
        self.spawn_pos = substream(seed, "spawn_pos")
        self.reaction = substream(seed, "reaction")
        self.decisions = substream(seed, "decisions")
        self.ca_conflicts = substream(seed, "ca_conflicts")
        self.bodies = substream(seed, "bodies")
