"""Uniform spatial hash for neighbour queries on point sets.

Positions are binned into square buckets of a fixed size, the cell-list
method of molecular dynamics.  Every query looks up a stencil of
buckets around each query point in one set of array operations:

* :meth:`SpatialHash.query_pairs` scans each occupied bucket against its
  forward half-neighbourhood, so every unordered pair among the hashed
  points is produced exactly once;
* :meth:`SpatialHash.query_points` scans the full 3x3 neighbourhood of
  arbitrary query points, so only the pairs of those points are
  enumerated.

A query radius may not exceed the bucket size: the stencil would miss
points, so the query raises instead.  All outputs are sorted, which
keeps downstream float accumulation order deterministic.
"""
from __future__ import annotations

import numpy as np

# bucket offsets (dx, dy): the forward half of the 3x3 neighbourhood
# (the bucket itself handled separately), and the whole of it
_FORWARD = np.array(((1, 0), (-1, 1), (0, 1), (1, 1)))
_STENCIL = np.array([(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)])


def _ragged_ranges(owners: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Expand per-owner slices into flat (owner, member) index pairs.

    For each k, emits (owners[k], starts[k] + 0..counts[k]-1).
    """
    counts = np.maximum(counts, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    reps = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return owners[reps], starts[reps] + offsets


class SpatialHash:
    def __init__(self, positions: np.ndarray, cell: float, ids: np.ndarray | None = None):
        """``positions``: (N, 2) metres.  ``ids``: labels for the rows
        queries return (defaults to row indices)."""
        self.positions = np.asarray(positions, dtype=np.float64)
        self.cell = float(cell)
        n = len(self.positions)
        self.ids = np.arange(n) if ids is None else np.asarray(ids)
        if n:
            keys = np.floor(self.positions / self.cell).astype(np.int64)
            self._min = keys.min(axis=0)
            span = keys.max(axis=0) - self._min + 1
            self._nx = int(span[0])
            flat = (keys[:, 0] - self._min[0]) + self._nx * (keys[:, 1] - self._min[1])
            self._order = np.argsort(flat, kind="stable")
            self._sorted_keys = flat[self._order]
            self._uniq, self._starts = np.unique(self._sorted_keys, return_index=True)
            self._ends = np.append(self._starts[1:], n)

    def _check(self, radius: float) -> None:
        if radius > self.cell:
            raise ValueError(f"query radius {radius} exceeds the bucket size {self.cell}")

    def _stencil(self, kx: np.ndarray, ky: np.ndarray, offsets: np.ndarray):
        """(owner, slot): slot, a position in bucket order, lies in a bucket
        at one of ``offsets`` from bucket (kx, ky)[owner]; owners ascend."""
        bx = kx[:, None] + offsets[:, 0]
        flat = bx + self._nx * (ky[:, None] + offsets[:, 1])
        hit = np.minimum(np.searchsorted(self._uniq, flat), len(self._uniq) - 1)
        ok = (bx >= 0) & (bx < self._nx) & (self._uniq[hit] == flat)
        starts = np.where(ok, self._starts[hit], 0)
        counts = np.where(ok, self._ends[hit] - starts, 0)
        owners = np.repeat(np.arange(len(kx)), len(offsets))
        return _ragged_ranges(owners, starts.ravel(), counts.ravel())

    def query_pairs(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """All unordered index pairs (i < j by row) within ``radius``."""
        self._check(radius)
        n = len(self.positions)
        if n < 2:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        keys = self._sorted_keys
        slots = np.arange(n)
        # within-bucket: each point pairs with the later points of its bucket
        bucket_end = self._ends[np.searchsorted(self._uniq, keys)]
        same_l, same_r = _ragged_ranges(slots, slots + 1, bucket_end - slots - 1)
        # forward half-neighbourhood: each point against whole buckets
        near_l, near_r = self._stencil(keys % self._nx, keys // self._nx, _FORWARD)

        i = self._order[np.concatenate([same_l, near_l])]
        j = self._order[np.concatenate([same_r, near_r])]
        d = self.positions[i] - self.positions[j]
        keep = (d[:, 0] ** 2 + d[:, 1] ** 2) <= radius * radius
        i, j = i[keep], j[keep]
        swap = i > j
        i2 = np.where(swap, j, i)
        j2 = np.where(swap, i, j)
        order = np.argsort(i2 * n + j2)  # keys are unique, so any sort gives (i, j) order
        return i2[order], j2[order]

    def query_points(self, points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (k, row, d2) with hashed row ``row`` within ``radius`` of
        ``points[k]``, d2 their squared distance, sorted by (k, row)."""
        self._check(radius)
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if len(self.positions) == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0)
        keys = np.floor(points / self.cell).astype(np.int64) - self._min
        k, slot = self._stencil(keys[:, 0], keys[:, 1], _STENCIL)
        rows = self._order[slot]
        d = self.positions[rows] - points[k]
        d2 = d[:, 0] ** 2 + d[:, 1] ** 2
        keep = d2 <= radius * radius
        k, rows, d2 = k[keep], rows[keep], d2[keep]
        order = np.argsort(k * len(self.positions) + rows)  # unique keys, as above
        return k[order], rows[order], d2[order]
