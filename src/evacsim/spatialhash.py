"""Uniform spatial hash for the neighbour pairs of a point set.

Positions are binned into square buckets of side ``cell``, the cell-list
method of molecular dynamics.  :meth:`SpatialHash.query_pairs` counts the
points of every bucket of the points' bounding box, padded by one empty
column on each side and one empty row on top, in one dense start table.
Each point then takes the later points of its own bucket and the whole
of the four buckets of its forward half-neighbourhood, in one ragged
expansion, so every unordered pair among the points is produced exactly
once.  A query radius may not exceed ``cell``: the stencil would miss
points, so the query raises instead.  The query is deterministic: the
same points give the same pairs, sorted by (i, j).
"""
from __future__ import annotations

import numpy as np


class SpatialHash:
    def __init__(self, positions: np.ndarray, cell: float):
        """``positions``: (N, 2) metres."""
        self.positions = np.asarray(positions, dtype=np.float64)
        self.cell = float(cell)

    def query_pairs(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """All unordered index pairs (i < j by row) within ``radius``."""
        if radius > self.cell:
            raise ValueError(f"query radius {radius} exceeds the bucket size {self.cell}")
        n = len(self.positions)
        if n < 2:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        # each point's bucket as one row-major key, the lowest occupied
        # column at 1, so no forward bucket wraps onto an occupied one
        bucket = np.floor(self.positions / self.cell).astype(np.int64)
        bucket -= bucket.min(axis=0) - (1, 0)
        width = int(bucket[:, 0].max()) + 2
        key = bucket[:, 0] + width * bucket[:, 1]
        order = np.argsort(key, kind="stable")
        keys = key.take(order)
        end = np.cumsum(np.bincount(keys, minlength=keys[-1] + width + 2))
        start = np.concatenate(([0], end[:-1]))
        # per slot in bucket order: its own bucket's later slots, then the
        # buckets (1, 0), (-1, 1), (0, 1) and (1, 1) away, each a run of slots
        target = keys[:, None] + (0, 1, width - 1, width, width + 1)
        first = start.take(target)
        first[:, 0] = np.arange(1, n + 1)
        counts = end.take(target) - first
        owner = np.repeat(np.arange(n), counts.sum(axis=1))
        counts = counts.ravel()
        member = np.arange(len(owner)) + np.repeat(first.ravel() - (np.cumsum(counts) - counts), counts)
        xy = self.positions.T.take(order, axis=1)             # (2, n) in bucket order
        sq = np.square(xy.take(owner, axis=1) - xy.take(member, axis=1))
        keep = (sq[0] + sq[1] <= radius * radius).nonzero()[0]
        i, j = order.take(owner.take(keep)), order.take(member.take(keep))
        # one key per unordered pair, sorted, gives the pairs in (i, j) order
        return np.divmod(np.sort(np.minimum(i, j) * n + np.maximum(i, j)), n)
