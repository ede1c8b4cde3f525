"""Neighbor queries against a quadratic brute-force reference."""

from __future__ import annotations

import numpy as np
import pytest

from evacsim.spatialhash import SpatialHash

from conftest import brute_force_pairs

N_TRIALS = 20


def test_query_pairs_matches_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(N_TRIALS):
        n = int(rng.integers(2, 120))
        pos = rng.uniform(0, 12, size=(n, 2))
        radius = float(rng.uniform(0.2, 3.0))
        cell = float(rng.uniform(radius, 2 * radius))
        h = SpatialHash(pos, cell)
        pi, pj = h.query_pairs(radius)
        got = sorted(zip(pi.tolist(), pj.tolist()))
        want = brute_force_pairs(pos, radius)
        assert got == want, f"trial {trial}"


def test_query_pairs_output_is_sorted_and_oriented():
    rng = np.random.default_rng(1)
    pos = rng.uniform(0, 5, size=(80, 2))
    h = SpatialHash(pos, 1.0)
    pi, pj = h.query_pairs(1.0)
    assert (pi < pj).all()
    order = np.lexsort((pj, pi))
    assert (order == np.arange(len(pi))).all()


def test_queries_reject_a_radius_larger_than_the_bucket():
    # the stencil covers one bucket each way, so a wider query would miss
    # points; it raises instead of quietly building another hash
    rng = np.random.default_rng(2)
    pos = rng.uniform(0, 8, size=(60, 2))
    h = SpatialHash(pos, 0.5)
    with pytest.raises(ValueError, match="exceeds the bucket size"):
        h.query_pairs(2.5)
    with pytest.raises(ValueError, match="exceeds the bucket size"):
        h.query_points(pos[:3], 2.5)


def test_identical_points_pair_up():
    pos = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
    h = SpatialHash(pos, 1.0)
    pi, pj = h.query_pairs(0.5)
    assert list(zip(pi.tolist(), pj.tolist())) == [(0, 1)]


def test_empty_and_singleton_clouds():
    h0 = SpatialHash(np.zeros((0, 2)), 1.0)
    pi, pj = h0.query_pairs(1.0)
    assert len(pi) == 0
    h1 = SpatialHash(np.array([[2.0, 2.0]]), 1.0)
    pi, pj = h1.query_pairs(1.0)
    assert len(pi) == 0


def _by_point(h, points, radius, exclude=None):
    """``query_points`` as (k, id, d2) triples in (k, id) order, after
    checking its own order: grouped by ascending k, and the same arrays
    from a repeated query."""
    k, ids, d2 = h.query_points(points, radius, exclude=exclude)
    assert (np.diff(k) >= 0).all()
    for first, again in zip((k, ids, d2), h.query_points(points, radius, exclude=exclude)):
        assert first.dtype == again.dtype and np.array_equal(first, again)
    order = np.lexsort((ids, k))
    return list(zip(k[order].tolist(), ids[order].tolist(), d2[order].tolist()))


def test_query_points_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(N_TRIALS):
        n = int(rng.integers(1, 100))
        pos = rng.uniform(0, 10, size=(n, 2))
        radius = float(rng.uniform(0.1, 2.5))
        h = SpatialHash(pos, float(rng.uniform(radius, 2 * radius)))
        points = rng.uniform(-1, 11, size=(int(rng.integers(1, 8)), 2))
        want = []
        for q, point in enumerate(points):
            d = pos - point
            dist2 = d[:, 0] ** 2 + d[:, 1] ** 2
            want.extend((q, int(r), float(dist2[r])) for r in np.nonzero(dist2 <= radius * radius)[0])
        assert _by_point(h, points, radius) == want, f"trial {trial}"
    k, rows, d2 = SpatialHash(np.zeros((0, 2)), 1.0).query_points(points, 1.0)
    assert len(k) == len(rows) == len(d2) == 0


def test_query_points_respects_custom_ids():
    pos = np.array([[0.5, 0.5], [1.5, 0.5], [9.0, 9.0]])
    ids = np.array([10, 20, 30])
    h = SpatialHash(pos, 1.0, ids=ids)
    k, seen, _ = h.query_points(np.array([[1.0, 0.5], [9.5, 9.0], [5.0, 5.0]]), 1.0)
    assert list(zip(k.tolist(), seen.tolist())) == [(0, 10), (0, 20), (1, 30)]


def test_negative_coordinates_hash_correctly():
    pos = np.array([[-3.2, -1.1], [-3.0, -1.0], [4.0, 4.0]])
    h = SpatialHash(pos, 1.0)
    pi, pj = h.query_pairs(0.5)
    assert list(zip(pi.tolist(), pj.tolist())) == [(0, 1)]


def _brute_points(pos, ids, points, radii, exclude=None):
    """Every (k, id, d2) of ``query_points``, one query point at a time,
    in (k, id) order."""
    want = []
    for q, point in enumerate(points):
        d = pos - point
        dist2 = d[:, 0] ** 2 + d[:, 1] ** 2
        hit = dist2 <= radii[q] ** 2
        if exclude is not None:
            hit &= ids != exclude[q]
        want.extend(sorted((q, int(ids[r]), float(dist2[r])) for r in np.nonzero(hit)[0]))
    return want


def test_query_points_with_per_point_radii_and_exclusion_match_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(N_TRIALS):
        n = int(rng.integers(1, 150))
        pos = rng.uniform(-6, 6, size=(n, 2))
        pos[: n // 4] = np.round(pos[: n // 4])  # some points on bucket edges
        ids = rng.permutation(1000)[:n]
        cell = float(rng.uniform(0.3, 3.0))
        h = SpatialHash(pos, cell, ids=ids)
        m = int(rng.integers(1, 40))
        # query points over the extent and well off it, hashed points among them
        points = np.concatenate([pos[rng.integers(0, n, size=m)], rng.uniform(-12, 12, size=(m, 2))])
        radii = rng.uniform(0, cell, size=2 * m)
        radii[::5], radii[1::5] = 0.0, cell
        exclude = np.concatenate([ids[rng.integers(0, n, size=m)], rng.integers(0, 1000, size=m)])
        for excl in (None, exclude):
            want = _brute_points(pos, ids, points, radii, excl)
            assert _by_point(h, points, radii, excl) == want, f"trial {trial}"
        assert _by_point(h, points, cell) == _brute_points(pos, ids, points, np.full(2 * m, cell)), f"trial {trial}"


def test_query_points_excludes_only_the_named_row_at_a_shared_spot():
    pos = np.array([[2.0, 2.0], [2.0, 2.0], [2.5, 2.0], [-3.0, -3.0]])
    h = SpatialHash(pos, 1.0, ids=np.array([7, 8, 9, 10]))
    k, seen, d2 = h.query_points(pos[[0, 1, 3]], np.array([0.0, 1.0, 0.0]), exclude=np.array([7, 8, 10]))
    assert list(zip(k.tolist(), seen.tolist(), d2.tolist())) == [(0, 8, 0.0), (1, 7, 0.0), (1, 9, 0.25)]


def test_query_points_lists_a_points_pairs_in_stencil_order():
    # bucket rows from low y to high, then buckets from low x to high: not id order
    pos = np.array([[1.2, 1.9], [1.2, 1.1], [0.6, 1.1], [1.3, 1.15]])
    h = SpatialHash(pos, 1.0)
    k, seen, _ = h.query_points(np.array([[1.0, 1.5], [9.0, 9.0], [1.0, 1.5]]), np.array([1.0, 1.0, 0.5]))
    assert list(zip(k.tolist(), seen.tolist())) == [(0, 2), (0, 1), (0, 3), (0, 0), (2, 1), (2, 3), (2, 0)]


def test_query_points_with_a_radius_over_the_bucket_or_nothing_to_query():
    h = SpatialHash(np.array([[0.5, 0.5], [1.0, 0.5]]), 1.0)
    with pytest.raises(ValueError, match="exceeds the bucket size"):
        h.query_points(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 1.5]))
    for k, rows, d2 in (
        h.query_points(np.zeros((0, 2)), np.zeros(0)),
        h.query_points(np.zeros((0, 2)), 1.0, exclude=np.zeros(0, dtype=np.int64)),
        SpatialHash(np.zeros((0, 2)), 1.0).query_points(np.array([[0.5, 0.5]]), np.array([1.0]), np.array([0])),
    ):
        assert len(k) == len(rows) == len(d2) == 0 and k.dtype == rows.dtype == np.int64
