"""Uniform spatial hash for neighbour queries on point sets.

Positions are binned into square buckets, the cell-list method of
molecular dynamics, and every query looks up a stencil of buckets
around each query point in one set of array operations:

* :meth:`SpatialHash.query_pairs` buckets the points at ``cell`` and
  scans each occupied bucket against its forward half-neighbourhood, so
  every unordered pair among the hashed points is produced exactly once;
* :meth:`SpatialHash.query_points` buckets the points at half of
  ``cell`` and scans the 5x5 buckets around arbitrary query points, so
  only the pairs of those points are enumerated.  In row-major bucket
  order each of the five stencil rows is one contiguous run of points.

A query radius may not exceed ``cell``: the stencil would miss points,
so the query raises instead.  Both queries are deterministic: the same
points give the same arrays in the same order.  ``query_pairs`` sorts
its pairs by (i, j); ``query_points`` groups its pairs by query point
and leaves them in stencil order within a group, so a caller that sums
floats over a group in a set order sorts that group itself.
"""
from __future__ import annotations

from functools import cached_property

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
    def __init__(self, positions: np.ndarray, cell: float, ids: np.ndarray | None = None):
        """``positions``: (N, 2) metres.  ``ids``: labels for the rows
        queries return (defaults to row indices)."""
        self.positions = np.asarray(positions, dtype=np.float64)
        self.cell = float(cell)
        self.ids = np.arange(len(self.positions)) if ids is None else np.asarray(ids)

    def _check(self, radius: float) -> None:
        if radius > self.cell:
            raise ValueError(f"query radius {radius} exceeds the bucket size {self.cell}")

    def _bucket(self, size: float):
        """The points in buckets of ``size``: the lowest bucket (x, y), the
        buckets per row, the point rows in row-major bucket order and each
        one's flat bucket key, ascending."""
        keys = np.floor(self.positions / size).astype(np.int64)
        low = keys.min(axis=0)
        nx = int(keys[:, 0].max() - low[0]) + 1
        flat = (keys[:, 0] - low[0]) + nx * (keys[:, 1] - low[1])
        order = np.argsort(flat, kind="stable")
        return low, nx, order, flat[order]

    @cached_property
    def _points_index(self):
        """The lowest bucket, buckets per row and keys of ``_bucket`` at
        half the cell, plus the points' x, y and ids in bucket order."""
        low, nx, order, keys = self._bucket(self.cell / 2)
        pos = self.positions.take(order, axis=0)
        return low, nx, keys, pos[:, 0].copy(), pos[:, 1].copy(), self.ids.take(order)

    def query_pairs(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """All unordered index pairs (i < j by row) within ``radius``."""
        self._check(radius)
        n = len(self.positions)
        if n < 2:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        _, nx, order, keys = self._bucket(self.cell)
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

    def query_points(
        self, points: np.ndarray, radius: float | np.ndarray, exclude: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (k, id, d2) with the hashed point labelled ``id`` within
        ``radius`` of ``points[k]``, d2 their squared distance.

        The triples come grouped by ascending k.  Within a group they run
        in stencil order: the five bucket rows from low y to high, each
        row's buckets from low x to high, and within a bucket the hashed
        rows ascending.  So the order is fixed by the inputs, but it is
        not id order.

        ``radius`` is one scalar or one value per point.  ``exclude``, one
        id per point, leaves out the point labelled ``exclude[k]`` (the
        query point's own) however close it is; other points at the same
        spot stay.
        """
        self._check(float(np.max(radius, initial=0.0)))
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        m, n = len(points), len(self.positions)
        if m == 0 or n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, np.zeros(0)
        low, nx, keys, xs, ys, ids = self._points_index
        b = np.floor(points / (self.cell / 2)).astype(np.int64) - low
        lo = np.maximum(b[:, 0] - 2, 0)[:, None]
        hi = np.minimum(b[:, 0] + 3, nx)[:, None]
        by = b[:, 1:] + np.arange(-2, 3)  # the five stencil rows
        # keys by * nx + [lo, hi) stay within bucket row by, empty off the extent
        first = np.searchsorted(keys, by * nx + lo)
        counts = np.maximum(np.searchsorted(keys, by * nx + hi) - first, 0)
        per_point = counts.sum(axis=1)
        k, slot = _ragged_ranges(np.repeat(np.arange(m), 5), first.ravel(), counts.ravel())

        d2 = (xs[slot] - np.repeat(points[:, 0], per_point)) ** 2 + (ys[slot] - np.repeat(points[:, 1], per_point)) ** 2
        keep = d2 <= np.repeat(np.broadcast_to(np.asarray(radius, dtype=np.float64) ** 2, m), per_point)
        seen = ids.take(slot)
        if exclude is not None:
            keep &= seen != np.repeat(exclude, per_point)
        return k[keep], seen[keep], d2[keep]
