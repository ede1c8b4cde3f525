"""Uniform spatial hash for the neighbour pairs of a point set.

Positions are binned into square buckets of side ``cell``, the cell-list
method of molecular dynamics.  :meth:`SpatialHash.query_pairs` scans each
occupied bucket against its forward half-neighbourhood in one set of
array operations, so every unordered pair among the points is produced
exactly once.  A query radius may not exceed ``cell``: the stencil would
miss points, so the query raises instead.  The query is deterministic:
the same points give the same pairs, sorted by (i, j).
"""
from __future__ import annotations

import numpy as np

# bucket offsets (dx, dy): the forward half of the 3x3 neighbourhood,
# the bucket itself handled separately
_FORWARD = np.array(((1, 0), (-1, 1), (0, 1), (1, 1)))


def _ragged_ranges(owners: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Expand per-owner slices into flat (owner, member) index pairs.

    For each k, emits (owners[k], starts[k] + 0..counts[k]-1).
    """
    counts = np.maximum(counts, 0)
    members = np.arange(int(counts.sum())) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.repeat(owners, counts), members


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
        # each point's bucket, counted from the lowest, as one row-major key
        bucket = np.floor(self.positions / self.cell).astype(np.int64)
        bucket -= bucket.min(axis=0)
        nx = int(bucket[:, 0].max()) + 1
        key = bucket[:, 0] + nx * bucket[:, 1]
        order = np.argsort(key, kind="stable")
        keys = key[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are sorted and non-negative
        uniq = keys[starts]
        ends = np.append(starts[1:], n)
        slots = np.arange(n)
        # within-bucket: each point pairs with the later points of its bucket
        bucket_end = ends[np.searchsorted(uniq, keys)]
        same_l, same_r = _ragged_ranges(slots, slots + 1, bucket_end - slots - 1)
        # forward half-neighbourhood: each point against whole buckets
        bx = (keys % nx)[:, None] + _FORWARD[:, 0]
        flat = bx + nx * ((keys // nx)[:, None] + _FORWARD[:, 1])
        hit = np.minimum(np.searchsorted(uniq, flat), len(uniq) - 1)
        ok = (bx >= 0) & (bx < nx) & (uniq[hit] == flat)
        first = np.where(ok, starts[hit], 0)
        counts = np.where(ok, ends[hit] - first, 0)
        near_l, near_r = _ragged_ranges(np.repeat(slots, len(_FORWARD)), first.ravel(), counts.ravel())

        i = order[np.concatenate([same_l, near_l])]
        j = order[np.concatenate([same_r, near_r])]
        d = self.positions.take(i, axis=0) - self.positions.take(j, axis=0)
        keep = (d[:, 0] ** 2 + d[:, 1] ** 2) <= radius * radius
        i, j = i[keep], j[keep]
        # one key per unordered pair, sorted, gives the pairs in (i, j) order
        return np.divmod(np.sort(np.minimum(i, j) * n + np.maximum(i, j)), n)
