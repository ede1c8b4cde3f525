"""Neighbor queries against a quadratic brute-force reference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def _clouds(draw):
    """Points on a lattice of 1/64 of a power-of-two bucket, so every
    bucket and distance is exact and many points sit on bucket edges: all
    in one bucket, in one bucket row, in one bucket column or spread out,
    at negative and positive coordinates, some repeated; the bucket size
    and a query radius of at most one bucket."""
    cell = draw(st.sampled_from([0.5, 1.0, 2.0]))
    radius = cell * draw(st.sampled_from([1.0, 0.75, 0.5, 0.25]))
    layout = draw(st.sampled_from(["bucket", "row", "column", "spread"]))
    low_x, low_y = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    wide = 1 if layout in ("bucket", "column") else draw(st.integers(1, 8))
    tall = 1 if layout in ("bucket", "row") else draw(st.integers(1, 8))
    bucket = st.tuples(st.integers(low_x, low_x + wide - 1), st.integers(low_y, low_y + tall - 1))
    offset = st.one_of(st.just(0), st.integers(0, 63))      # 0: on the bucket's low edge
    points = draw(st.lists(st.tuples(bucket, offset, offset), max_size=40))
    pos = np.array([(64 * bx + ox, 64 * by + oy) for (bx, by), ox, oy in points], dtype=float).reshape(-1, 2)
    repeats = draw(st.lists(st.integers(0, len(pos) - 1), max_size=5)) if len(pos) else []
    return np.concatenate([pos, pos[repeats]]) * (cell / 64), cell, radius


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_clouds())
def test_query_pairs_equals_the_brute_force_pairs_in_order(cloud):
    pos, cell, radius = cloud
    pi, pj = SpatialHash(pos, cell).query_pairs(radius)
    assert pi.dtype == pj.dtype == np.int64
    assert list(zip(pi.tolist(), pj.tolist())) == brute_force_pairs(pos, radius)


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


def test_negative_coordinates_hash_correctly():
    pos = np.array([[-3.2, -1.1], [-3.0, -1.0], [4.0, 4.0]])
    h = SpatialHash(pos, 1.0)
    pi, pj = h.query_pairs(0.5)
    assert list(zip(pi.tolist(), pj.tolist())) == [(0, 1)]
