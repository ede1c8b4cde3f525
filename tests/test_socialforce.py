"""Continuous backend: forces, integration, contacts, and jam detection."""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacsim import SimulationError, run
from evacsim.agents import NO_TARGET
from evacsim.config import PARAM_DEFAULTS
from evacsim.engine import _Simulation
from evacsim.metrics import clog_fraction
from evacsim.scenario import derive_network, distance_field, load_scenario
from evacsim.socialforce import (
    MAX_DT,
    SfState,
    apply_contact_friction,
    arch_band_count,
    detect_arch,
    driving_force,
    exposed_wall_cells,
    pair_forces,
    sf_step,
    wall_forces,
    wall_table,
)
from evacsim.spatialhash import SpatialHash

from conftest import SCENARIOS, grid_rows, make_scenario, room_doc, route_to_destination

TAU = PARAM_DEFAULTS["sf_tau"]
CUTOFF = PARAM_DEFAULTS["sf_cutoff"]
NO_WALLS = np.zeros((0, 2), dtype=np.int64)


def _open_floor(width_m=20.0, height_m=20.0):
    cells = int(width_m * 2)
    rows = grid_rows(cells + 2, int(height_m * 2) + 2, exits=[(cells + 1, 3)])
    doc = room_doc(rows, count=1, spawn=[1, 1, 1, 1])
    return make_scenario(doc).geometry


def _free_state(pos, vel=None, radius=0.3):
    n = len(pos)
    return SfState(
        pos=np.asarray(pos, dtype=np.float64),
        vel=np.zeros((n, 2)) if vel is None else np.asarray(vel, dtype=np.float64),
        radius=np.full(n, radius),
        mass=PARAM_DEFAULTS["sf_mass"],
    )


def _walls(geo, cells=None, cutoff=CUTOFF):
    """Wall candidate table of ``geo``'s exposed wall cells, or of ``cells``."""
    cells = exposed_wall_cells(geo) if cells is None else cells
    return wall_table(cells, geo, cutoff)


def _pairs(pos):
    """Every pair of bodies within the interaction cutoff."""
    return SpatialHash(pos, CUTOFF).query_pairs(CUTOFF)


def _pair_forces(pos, radius, params, pairs):
    """``pair_forces`` with each pair's radius sum taken from ``radius``."""
    i, j = pairs
    return pair_forces(pos, params, pairs, radius.take(i) + radius.take(j))


# -- single-body kinematics ------------------------------------------------------


def test_speed_relaxes_exponentially_toward_desired():
    """v(t) = v_des (1 - exp(-t/tau)) within 2% at tau, 2 tau, 3 tau."""
    geo = _open_floor()
    walls = _walls(geo, NO_WALLS)  # far from any wall
    state = _free_state([[10.0, 10.0]])
    dt = 0.01
    v_des = np.array([1.5])
    waypoint = np.array([[1000.0, 10.0]])
    checkpoints = {round(k * TAU / dt): k * TAU for k in (1, 2, 3)}
    for tick in range(1, max(checkpoints) + 1):
        sf_step(state, geo, walls, np.arange(1), v_des, waypoint, dt, tick - 1, PARAM_DEFAULTS)
        if tick in checkpoints:
            t = checkpoints[tick]
            want = 1.5 * (1.0 - math.exp(-t / TAU))
            got = float(np.linalg.norm(state.vel[0]))
            assert abs(got - want) / want < 0.02, (t, got, want)


def test_relaxation_is_straight_toward_the_waypoint():
    geo = _open_floor()
    state = _free_state([[10.0, 10.0]])
    waypoint = np.array([[17.0, 3.0]])
    for tick in range(200):
        sf_step(state, geo, _walls(geo, NO_WALLS), np.arange(1), np.array([1.34]), waypoint, 0.02, tick, PARAM_DEFAULTS)
    d = state.pos[0] - np.array([10.0, 10.0])
    want_dir = (waypoint[0] - np.array([10.0, 10.0]))
    cos = d @ want_dir / (np.linalg.norm(d) * np.linalg.norm(want_dir))
    assert cos > 0.9999


def test_speed_clamp_keeps_bodies_subsonic():
    geo = _open_floor()
    state = _free_state([[10.0, 10.0]])
    state.vel[0] = [50.0, 0.0]
    cap = PARAM_DEFAULTS["sf_speed_slack"] * PARAM_DEFAULTS["speed_cap"]
    sf_step(state, geo, _walls(geo, NO_WALLS), np.arange(1), np.array([1.34]),
            np.array([[1000.0, 10.0]]), 0.05, 0, PARAM_DEFAULTS)
    assert np.linalg.norm(state.vel[0]) <= cap + 1e-9


def test_driving_force_closed_form():
    pos = np.array([[0.0, 0.0]])
    vel = np.array([[0.5, 0.0]])
    f = driving_force(pos, vel, 80.0, np.array([1.5]), np.array([[10.0, 0.0]]), PARAM_DEFAULTS)
    want = 80.0 * (1.5 - 0.5) / TAU
    assert np.allclose(f, [[want, 0.0]])


# -- pair forces ------------------------------------------------------------------


def test_pair_forces_obey_newtons_third_law():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        pos = rng.uniform(0, 4, size=(n, 2))
        radius = rng.uniform(0.25, 0.35, size=n)
        force, _ = _pair_forces(pos, radius, PARAM_DEFAULTS, _pairs(pos))
        assert np.allclose(force.sum(axis=0), 0.0, atol=1e-8)


def test_pair_force_is_repulsive_and_decays():
    radius = np.array([0.3, 0.3])

    def push(gap):
        pos = np.array([[0.0, 0.0], [0.6 + gap, 0.0]])
        force, _ = _pair_forces(pos, radius, PARAM_DEFAULTS, _pairs(pos))
        return force[0, 0]

    near, far = push(0.05), push(0.5)
    assert near < 0  # pushes body 0 away from body 1
    assert abs(near) > abs(far)
    # closed form at the surface distance
    a, b = PARAM_DEFAULTS["sf_a"], PARAM_DEFAULTS["sf_b"]
    assert math.isclose(abs(push(0.05)), a * math.exp(-0.05 / b), rel_tol=1e-9)


def test_pair_contact_adds_body_compression():
    radius = np.array([0.3, 0.3])
    overlap = 0.1
    pos = np.array([[0.0, 0.0], [0.6 - overlap, 0.0]])
    force, contacts = _pair_forces(pos, radius, PARAM_DEFAULTS, _pairs(pos))
    a, b, k = PARAM_DEFAULTS["sf_a"], PARAM_DEFAULTS["sf_b"], PARAM_DEFAULTS["sf_k"]
    want = a * math.exp(overlap / b) + k * overlap
    assert math.isclose(abs(force[0, 0]), want, rel_tol=1e-9)
    rows_i, rows_j, *_ = contacts
    assert len(rows_i) == 1


def test_pairs_beyond_cutoff_exert_nothing():
    radius = np.array([0.3, 0.3])
    pos = np.array([[0.0, 0.0], [PARAM_DEFAULTS["sf_cutoff"] + 1.0, 0.0]])
    force, _ = _pair_forces(pos, radius, PARAM_DEFAULTS, (np.array([0]), np.array([1])))
    assert np.allclose(force, 0.0)


# -- wall forces -------------------------------------------------------------------


def _nearest_wall_reference(p, radius, boxes, params):
    """Scalar reference: repulsion from the closest point of the closest box."""
    best, best_d2 = None, np.inf
    for lo, hi in boxes:
        q = np.minimum(np.maximum(p, lo), hi)
        d2 = ((p - q) ** 2).sum()
        if d2 < best_d2:
            best_d2, best = d2, q
    if best is None or best_d2 > params["sf_cutoff"] ** 2:
        return np.zeros(2)
    d = math.sqrt(best_d2)
    if d < 1e-12:
        return np.zeros(2)
    normal = (p - best) / d
    gap = d - radius
    mag = params["sf_a"] * math.exp(-gap / params["sf_b"])
    if gap < 0:
        mag += params["sf_k"] * (-gap)
    return mag * normal


def test_wall_force_matches_nearest_point_reference():
    geo = _open_floor(6.0, 5.0)
    wall_cells = exposed_wall_cells(geo)
    cs = geo.cell_size
    boxes = [
        (np.array([x * cs, y * cs]), np.array([(x + 1) * cs, (y + 1) * cs]))
        for x, y in wall_cells
    ]
    rng = np.random.default_rng(17)
    pos = rng.uniform(0.6, 4.4, size=(60, 2))
    radius = np.full(60, 0.3)
    force, _ = wall_forces(pos, radius, _walls(geo), geo, PARAM_DEFAULTS)
    for i in range(60):
        want = _nearest_wall_reference(pos[i], radius[i], boxes, PARAM_DEFAULTS)
        assert np.allclose(force[i], want, rtol=1e-9, atol=1e-9), i


def test_wall_force_counts_a_flat_wall_once():
    # a long flat wall is one surface: the push must equal the single
    # nearest-point force, not a sum over every wall cell
    geo = _open_floor(10.0, 5.0)
    pos = np.array([[5.0, 0.8]])  # 0.3 m above the bottom wall, mid-run
    radius = np.array([0.3])
    force, _ = wall_forces(pos, radius, _walls(geo), geo, PARAM_DEFAULTS)
    gap = 0.3 - 0.3  # at surface contact distance
    want = PARAM_DEFAULTS["sf_a"] * math.exp(-gap / PARAM_DEFAULTS["sf_b"])
    assert math.isclose(force[0, 1], want, rel_tol=1e-6)
    assert abs(force[0, 0]) < 1e-9


def test_exposed_wall_cells_face_open_space():
    geo = _open_floor(4.0, 3.0)
    cells = exposed_wall_cells(geo)
    open_mask = geo.open_mask
    for x, y in cells:
        assert not open_mask[y, x]
        neighbours = [
            (x + dx, y + dy)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if (dx or dy) and geo.in_bounds(x + dx, y + dy)
        ]
        assert any(open_mask[ny, nx] for nx, ny in neighbours), (x, y)
    # interior wall cells of the solid border are not listed
    all_blocked = np.argwhere(geo.blocked_mask)
    assert len(cells) <= len(all_blocked)


def _dense_wall_forces(pos, radius, wall_cells, cell_size, params):
    """The all-walls pass the candidate table replaced: every body clips
    against every exposed wall cell.  Also returns the (n, M) squared
    distances, for counting ties."""
    a, b, k, cutoff = (float(params[key]) for key in ("sf_a", "sf_b", "sf_k", "sf_cutoff"))
    lo = wall_cells.astype(np.float64) * cell_size
    hi = lo + cell_size
    diff = pos[:, None, :] - np.clip(pos[:, None, :], lo[None, :, :], hi[None, :, :])
    d2 = diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2
    col = np.argmin(d2, axis=1)
    best_d2 = d2[np.arange(len(pos)), col]
    rel = np.nonzero(best_d2 < cutoff * cutoff)[0]
    dist = np.maximum(np.sqrt(best_d2[rel]), 1e-9)
    normal = diff[rel, col[rel]] / dist[:, None]
    r = radius[rel]
    overlap = np.maximum(r - dist, 0.0)
    force = np.zeros((len(pos), 2))
    force[rel] = (a * np.exp((r - dist) / b) + k * overlap)[:, None] * normal
    touch = overlap > 0.0
    tangent = np.stack([-normal[touch, 1], normal[touch, 0]], axis=1)
    return force, (rel[touch], tangent, overlap[touch]), d2


def _pillared_room(rng, cell_size, cutoff):
    """Bordered room with random one-cell pillars, kept clear within
    ``reach`` cells (Chebyshev) of its centre cell, which lies out of
    every wall's reach, and on the spawn cell in front of the exit;
    returns the geometry and the centre cell."""
    reach = math.ceil(cutoff / cell_size) + 1
    side = 2 * reach + int(rng.integers(5, 12))
    centre = side // 2
    pillars = [
        (x, y)
        for y in range(1, side - 1)
        for x in range(1, side - 1)
        if max(abs(x - centre), abs(y - centre)) > reach and (x, y) != (side - 2, centre) and rng.random() < 0.15
    ]
    spawn = [side - 2, centre] * 2
    doc = room_doc(grid_rows(side, side, exits=[(side - 1, centre)], walls=pillars), count=1, spawn=spawn)
    doc["geometry"]["cell_size"] = cell_size
    return make_scenario(doc).geometry, centre


@pytest.mark.parametrize("cutoff", [0.5, 1.0, 3.0, 5.0])
@pytest.mark.parametrize("cell_size", [0.4, 0.5, 1.0])
def test_wall_table_matches_the_dense_pass_exactly(cell_size, cutoff):
    params = dict(PARAM_DEFAULTS, sf_cutoff=cutoff)
    rng = np.random.default_rng(round(100 * cell_size + cutoff))
    for _ in range(3):
        geo, centre = _pillared_room(rng, cell_size, cutoff)
        cells = exposed_wall_cells(geo)
        ys, xs = np.nonzero(geo.open_mask)
        open_cells = np.stack([xs, ys], axis=1).astype(np.float64)
        # cell centres, edge midpoints and corners, random points, and the
        # midpoints between nearby wall cells (exact ties on 0.5 and 1 m grids)
        pairs = cells[rng.integers(0, len(cells), size=(400, 2))]
        close = np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1) <= 3
        mid = (pairs[close].sum(axis=1) + 1.0) * (cell_size / 2)
        pos = np.concatenate([
            (open_cells + 0.5) * cell_size,
            (open_cells + [0.0, 0.5]) * cell_size,
            (open_cells + [0.5, 0.0]) * cell_size,
            open_cells * cell_size,
            rng.uniform(cell_size, (geo.width - 1) * cell_size, size=(300, 2)),
            mid,
        ])
        radius = rng.uniform(0.25, 0.35, size=len(pos))
        force, contacts = wall_forces(pos, radius, _walls(geo, cutoff=cutoff), geo, params)
        want_force, want_contacts, d2 = _dense_wall_forces(pos, radius, cells, cell_size, params)
        assert np.array_equal(force, want_force)
        for got, want in zip(contacts, want_contacts):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # coverage: contacts, two-wall ties within the cutoff, and bodies
        # out of every wall's reach (the room's centre cell among them)
        best = d2.min(axis=1)
        assert len(contacts[0]) > 0
        assert ((d2 == best[:, None]).sum(axis=1)[best < cutoff * cutoff] >= 2).any()
        far = best >= cutoff * cutoff
        assert far[: len(open_cells)][(xs == centre) & (ys == centre)].all()
        assert (force[far] == 0.0).all()
        # a table misses the walls beyond its own cutoff, so it refuses a wider one
        with pytest.raises(ValueError, match="exceeds the wall table's"):
            wall_forces(pos, radius, _walls(geo, cutoff=cutoff), geo, dict(params, sf_cutoff=cutoff + 0.5))


@pytest.mark.parametrize("cutoff", [0.5, 1.0, 3.0, 5.0])
@pytest.mark.parametrize("cell_size", [0.4, 0.5, 1.0])
def test_wall_table_row_holds_every_wall_within_the_cutoff(cell_size, cutoff):
    # every wall within the cutoff that can be the nearest to some point
    # of the cell: no farther from the cell's box than the smallest
    # farthest-point distance (the reach) of those walls
    geo, _ = _pillared_room(np.random.default_rng(7), cell_size, cutoff)
    cells = exposed_wall_cells(geo)
    table = _walls(geo, cutoff=cutoff)
    m = len(cells)
    pruned = 0
    for flat in range(geo.height * geo.width):
        x, y = flat % geo.width, flat // geo.width
        # per axis, in cells: the gap between the boxes and the reach
        reach_x, reach_y = np.abs(x - cells[:, 0]), np.abs(y - cells[:, 1])
        gap_x, gap_y = np.maximum(reach_x - 1, 0), np.maximum(reach_y - 1, 0)
        within = np.hypot(gap_x, gap_y) * cell_size <= cutoff
        reach2 = (reach_x ** 2 + reach_y ** 2)[within]
        can_be_nearest = within & (gap_x ** 2 + gap_y ** 2 <= reach2.min(initial=np.iinfo(np.int64).max))
        row = table.rows[flat]
        listed = row[: table.count[flat]]
        assert (np.diff(listed) > 0).all() and (row[table.count[flat]:] == m).all()
        assert np.array_equal(listed, np.nonzero(can_be_nearest)[0]), (x, y)
        # and nothing beyond the cutoff
        assert (np.hypot(gap_x, gap_y)[listed] * cell_size <= cutoff + 1e-6).all(), (x, y)
        pruned += int(within.sum()) - len(listed)
    # a cutoff under a cell reaches only the walls touching the cell
    assert pruned > 0 or cutoff < cell_size


@st.composite
def _pillar_rooms(draw):
    """A bordered room of random size with random one-cell pillars, its
    exit and spawn cell in the north-east corner; a cell size, a cutoff
    and a seed for points."""
    width, height = draw(st.integers(4, 14)), draw(st.integers(4, 14))
    interior = [(x, y) for y in range(1, height - 1) for x in range(1, width - 1) if (x, y) != (width - 2, 1)]
    pillars = draw(st.lists(st.sampled_from(interior), unique=True, max_size=len(interior) // 3))
    doc = room_doc(grid_rows(width, height, exits=[(width - 1, 1)], walls=pillars), count=1,
                   spawn=[width - 2, 1, width - 2, 1])
    doc["geometry"]["cell_size"] = draw(st.sampled_from([0.4, 0.5, 1.0]))
    return make_scenario(doc).geometry, draw(st.floats(0.5, 5.0)), draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(_pillar_rooms())
def test_wall_table_row_holds_the_nearest_walls_within_the_cutoff(room):
    # at the corners, the centre and random points of each open cell's
    # closed box: when the dense pass's nearest wall lies within the
    # cutoff, it and every wall tied with it are in that cell's row
    geo, cutoff, seed = room
    cells = exposed_wall_cells(geo)
    table = _walls(geo, cells, cutoff)
    ys, xs = np.nonzero(geo.open_mask)
    frac = np.concatenate([[[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]],
                           np.random.default_rng(seed).uniform(size=(4, 2))])
    owner = np.repeat(np.arange(len(xs)), len(frac))
    pos = (np.stack([xs, ys], axis=1)[owner] + np.tile(frac, (len(xs), 1))) * geo.cell_size
    params = dict(PARAM_DEFAULTS, sf_cutoff=cutoff)
    *_, d2 = _dense_wall_forces(pos, np.full(len(pos), 0.3), cells, geo.cell_size, params)
    best = d2.min(axis=1)
    nearest = (d2 == best[:, None]) & (best < cutoff * cutoff)[:, None]
    listed = np.zeros((geo.height * geo.width, len(cells) + 1), dtype=bool)
    listed[np.arange(len(listed))[:, None], table.rows] = True
    assert not (nearest & ~listed[ys * geo.width + xs][owner, : len(cells)]).any()


# -- contact friction ---------------------------------------------------------------


def _no_wall_contacts(pos, radius):
    geo = _open_floor()
    _, contacts = wall_forces(pos, radius, _walls(geo, NO_WALLS), geo, PARAM_DEFAULTS)
    return contacts


def test_friction_damps_tangential_slip_between_touching_bodies():
    radius = np.array([0.3, 0.3])
    pos = np.array([[0.0, 0.0], [0.55, 0.0]])  # overlapping by 0.05
    vel = np.array([[0.0, 1.0], [0.0, -1.0]])  # pure tangential shear
    state_vel = vel.copy()
    _, contacts = _pair_forces(pos, radius, PARAM_DEFAULTS, _pairs(pos))
    new_vel = apply_contact_friction(
        state_vel, 80.0, contacts, _no_wall_contacts(pos, radius), 0.05, PARAM_DEFAULTS
    )
    slip_before = abs(vel[0, 1] - vel[1, 1])
    slip_after = abs(new_vel[0, 1] - new_vel[1, 1])
    assert slip_after < slip_before
    # momentum along the tangent is conserved by the pairwise impulses
    assert math.isclose(new_vel[:, 1].sum(), 0.0, abs_tol=1e-9)
    # no normal component is introduced
    assert np.allclose(new_vel[:, 0], 0.0)


def test_separated_bodies_feel_no_friction():
    radius = np.array([0.3, 0.3])
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    vel = np.array([[0.0, 1.0], [0.0, -1.0]])
    _, contacts = _pair_forces(pos, radius, PARAM_DEFAULTS, _pairs(pos))
    new_vel = apply_contact_friction(
        vel.copy(), 80.0, contacts, _no_wall_contacts(pos, radius), 0.05, PARAM_DEFAULTS
    )
    assert np.allclose(new_vel, vel)


# -- reference kernels ----------------------------------------------------------------
# The force and friction kernels as they stood before they moved to row
# ``take``s, masked pair sums and one scalar mass.  The references keep a
# per-body mass array, so matching them bit for bit, contacts included,
# proves the scalar path too.


def _ref_scatter_add(out, idx, vec):
    n = len(out)
    out[:, 0] += np.bincount(idx, weights=vec[:, 0], minlength=n)
    out[:, 1] += np.bincount(idx, weights=vec[:, 1], minlength=n)


def _ref_pair_forces(pos, radius, params, pairs):
    a, b, k, cutoff = (float(params[key]) for key in ("sf_a", "sf_b", "sf_k", "sf_cutoff"))
    n = len(pos)
    force = np.zeros((n, 2))
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros(0))
    i, j = pairs
    if n < 2 or len(i) == 0:
        return force, empty
    diff = pos[i] - pos[j]
    d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
    near = d2 <= cutoff * cutoff
    if not near.all():
        i, j, diff, d2 = i[near], j[near], diff[near], d2[near]
    if len(i) == 0:
        return force, empty
    dist = np.sqrt(d2)
    degenerate = dist < 1e-9
    dist = np.maximum(dist, 1e-9)
    normal = diff / dist[:, None]
    normal[degenerate] = (1.0, 0.0)
    r_sum = radius[i] + radius[j]
    social = a * np.exp((r_sum - dist) / b)
    overlap = np.maximum(r_sum - dist, 0.0)
    f_on_i = (social + k * overlap)[:, None] * normal
    _ref_scatter_add(force, i, f_on_i)
    _ref_scatter_add(force, j, -f_on_i)
    touch = overlap > 0.0
    tangent = np.stack([-normal[touch, 1], normal[touch, 0]], axis=1)
    return force, (i[touch], j[touch], tangent, overlap[touch])


def _ref_wall_forces(pos, radius, walls, geometry, params):
    cutoff = float(params["sf_cutoff"])
    n = len(pos)
    force = np.zeros((n, 2))
    cs = geometry.cell_size
    cells = np.clip((pos / cs).astype(np.int64), 0, [geometry.width - 1, geometry.height - 1])
    flat = cells[:, 1] * geometry.width + cells[:, 0]
    count = walls.count[flat]
    body = np.nonzero(count)[0]
    if len(body) == 0:
        return force, (np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros(0))
    a, b, k = (float(params[key]) for key in ("sf_a", "sf_b", "sf_k"))
    cand = walls.rows[flat[body], : count.max()]
    px = pos[body, :1]
    py = pos[body, 1:]
    lo_x = walls.lo[0][cand]
    lo_y = walls.lo[1][cand]
    dx = px - np.minimum(np.maximum(px, lo_x), lo_x + cs)
    dy = py - np.minimum(np.maximum(py, lo_y), lo_y + cs)
    d2 = dx ** 2 + dy ** 2
    col = np.argmin(d2, axis=1)
    best_d2 = d2[np.arange(len(body)), col]
    rel = np.nonzero(best_d2 < cutoff * cutoff)[0]
    dist = np.maximum(np.sqrt(best_d2[rel]), 1e-9)
    normal = np.stack([dx[rel, col[rel]], dy[rel, col[rel]]], axis=1) / dist[:, None]
    rows = body[rel]
    r = radius[rows]
    overlap = np.maximum(r - dist, 0.0)
    force[rows] = (a * np.exp((r - dist) / b) + k * overlap)[:, None] * normal
    touch = overlap > 0.0
    tangent = np.stack([-normal[touch, 1], normal[touch, 0]], axis=1)
    return force, (rows[touch], tangent, overlap[touch])


def _ref_friction(vel, mass, pair_contacts, wall_contacts, dt, params):
    kappa = float(params["sf_kappa"])
    i, j, tan_p, gap_p = pair_contacts
    rows, tan_w, gap_w = wall_contacts
    if len(i) == 0 and len(rows) == 0:
        return vel
    n = len(vel)
    counts = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + np.bincount(rows, minlength=n)
    if len(i):
        m_red = 1.0 / (1.0 / mass[i] + 1.0 / mass[j])
        damp = 1.0 - 1.0 / (1.0 + kappa * gap_p * dt / m_red)
        gain_p = m_red * damp / np.maximum(np.maximum(counts[i], counts[j]), 1)
    if len(rows):
        m_w = mass[rows]
        damp_w = 1.0 - 1.0 / (1.0 + kappa * gap_w * dt / m_w)
        gain_w = m_w * damp_w / np.maximum(counts[rows], 1)
    for _ in range(8):
        delta = np.zeros_like(vel)
        if len(i):
            impulse = gain_p * ((vel[j] - vel[i]) * tan_p).sum(axis=1)
            _ref_scatter_add(delta, i, (impulse / mass[i])[:, None] * tan_p)
            _ref_scatter_add(delta, j, -(impulse / mass[j])[:, None] * tan_p)
        if len(rows):
            v_t = (vel[rows] * tan_w).sum(axis=1)
            _ref_scatter_add(delta, rows, -(gain_w * v_t / m_w)[:, None] * tan_w)
        vel += delta
    return vel


def _assert_same(got, want):
    """Force arrays, then every array of the contact tuples, bit for bit."""
    assert np.array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for g, w in zip(got[1], want[1]):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def _packed_crowd(rng, geo):
    """Bodies pressed into the south-west corner, a packed clump in the
    open middle, a loose scatter, one pair at the same point and one a
    fraction of a nanometre apart (both with the degenerate normal)."""
    top = geo.width * geo.cell_size
    corner = rng.uniform(0.55, 2.2, size=(60, 2))
    middle = top / 2 + rng.uniform(-0.8, 0.8, size=(40, 2))
    loose = rng.uniform(0.6, top - 0.6, size=(30, 2))
    pos = np.concatenate([corner, middle, loose, middle[:1], middle[1:2] + 3e-10])
    return pos, rng.uniform(0.25, 0.35, size=len(pos))


# a cutoff shorter than two radii leaves touching pairs beyond it
@pytest.mark.parametrize("cutoff", [CUTOFF, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_kernels_match_the_reference_bit_for_bit(seed, cutoff):
    params = dict(PARAM_DEFAULTS, sf_cutoff=cutoff)
    geo = _open_floor(14.0, 14.0)
    walls = _walls(geo)
    rng = np.random.default_rng(seed)
    pos, radius = _packed_crowd(rng, geo)
    mass = rng.uniform(60.0, 90.0)
    vel = rng.uniform(-1.5, 1.5, size=(len(pos), 2))
    # the candidate list as sf_step enumerates it, wider than the cutoff
    reach = cutoff + 0.4
    pairs = SpatialHash(pos, reach).query_pairs(reach)

    got_pair = _pair_forces(pos, radius, params, pairs)
    want_pair = _ref_pair_forces(pos, radius, params, pairs)
    _assert_same(got_pair, want_pair)
    got_wall = wall_forces(pos, radius, walls, geo, params)
    want_wall = _ref_wall_forces(pos, radius, walls, geo, params)
    _assert_same(got_wall, want_wall)
    for dt in (0.02, 0.05):
        got_vel = apply_contact_friction(vel.copy(), mass, got_pair[1], got_wall[1], dt, params)
        want_vel = _ref_friction(vel.copy(), np.full(len(pos), mass), want_pair[1], want_wall[1], dt, params)
        assert np.array_equal(got_vel, want_vel)

    # coverage: pairs beyond the cutoff, the two degenerate pairs, touching
    # body-body and body-wall contacts, and bodies in cells without a
    # wall candidate
    i, j = pairs
    d2 = ((pos[i] - pos[j]) ** 2).sum(axis=1)
    assert (d2 > cutoff * cutoff).any()
    assert (d2 == 0.0).sum() == 1 and (d2 < 1e-18).sum() == 2
    assert len(want_pair[1][0]) > 0 and len(want_wall[1][0]) > 0
    if cutoff < 2 * radius.min():
        assert ((d2 > cutoff * cutoff) & (d2 < (radius[i] + radius[j]) ** 2)).any()
    cells = geo.cells_of(pos)
    assert (walls.count[cells[:, 1] * geo.width + cells[:, 0]] == 0).any()


def test_kernels_match_the_reference_without_pairs():
    geo = _open_floor(14.0, 14.0)
    pos, radius = _packed_crowd(np.random.default_rng(9), geo)
    none = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    got = _pair_forces(pos, radius, PARAM_DEFAULTS, none)
    _assert_same(got, _ref_pair_forces(pos, radius, PARAM_DEFAULTS, none))
    # only far pairs: every candidate lies beyond the cutoff
    far = np.array([[1.0, 1.0], [1.0 + CUTOFF + 0.1, 1.0], [1.0, 1.0 + CUTOFF + 0.2]])
    far_pairs = (np.array([0, 0, 1]), np.array([1, 2, 2]))
    got = _pair_forces(far, radius[:3], PARAM_DEFAULTS, far_pairs)
    _assert_same(got, _ref_pair_forces(far, radius[:3], PARAM_DEFAULTS, far_pairs))
    # and friction with no contact at all leaves the velocities alone
    vel = np.random.default_rng(9).uniform(-1, 1, size=(len(pos), 2))
    wall_none = (np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros(0))
    empty = (*none, np.zeros((0, 2)), np.zeros(0))
    got_vel = apply_contact_friction(vel.copy(), 80.0, empty, wall_none, 0.02, PARAM_DEFAULTS)
    assert np.array_equal(got_vel, vel)


def _ref_driving(pos, vel, mass, desired_speed, waypoint, params):
    heading = waypoint - pos
    has_goal = np.isfinite(heading).all(axis=1)
    norm = np.sqrt(heading[:, 0] * heading[:, 0] + heading[:, 1] * heading[:, 1])
    e = np.where(has_goal[:, None], heading / np.maximum(norm, 1e-12)[:, None], 0.0)
    return mass[:, None] * (desired_speed[:, None] * e - vel) / float(params["sf_tau"])


def _ref_penetration(geo, old_pos, new_pos, vel):
    """Bodies that stepped (or tunnelled) into a blocked cell go back into
    their previous cell, less the into-wall velocity."""
    cs = geo.cell_size
    h, w = geo.blocked_mask.shape

    def blocked_at(points):
        cx = (points[:, 0] / cs).astype(np.int64)
        cy = (points[:, 1] / cs).astype(np.int64)
        inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        return ~inside | geo.blocked_mask[np.where(inside, cy, 0), np.where(inside, cx, 0)]

    bad = blocked_at(new_pos)
    step = new_pos - old_pos
    if (step[:, 0] ** 2 + step[:, 1] ** 2).max(initial=0.0) >= (cs / 2) ** 2:
        bad |= blocked_at(0.5 * (old_pos + new_pos))
    rows = np.nonzero(bad)[0]
    if len(rows) == 0:
        return new_pos, vel, 0
    old_cell = np.floor(old_pos[rows] / cs)
    proj = np.clip(new_pos[rows], old_cell * cs + 1e-6, (old_cell + 1) * cs - 1e-6)
    push = proj - new_pos[rows]
    push_len = np.linalg.norm(push, axis=1)
    normal = np.zeros_like(push)
    normal[push_len > 1e-12] = push[push_len > 1e-12] / push_len[push_len > 1e-12][:, None]
    v = vel[rows]
    v += normal * np.maximum((v * -normal).sum(axis=1), 0.0)[:, None]
    new_pos, vel = new_pos.copy(), vel.copy()
    new_pos[rows], vel[rows] = proj, v
    return new_pos, vel, len(rows)


def _ref_sf_step(state, geo, wall_cells, present, desired_speed, waypoint, dt, params):
    """One step from the reference kernels: every pair and every exposed
    wall cell, with no neighbour list, wall table or cached constant."""
    pos, vel = state.pos[present], state.vel[present]
    mass, radius = np.full(len(present), state.mass), state.radius[present]
    drive = _ref_driving(pos, vel, mass, desired_speed[present], waypoint[present], params)
    pair, pair_contacts = _ref_pair_forces(pos, radius, params, np.triu_indices(len(present), 1))
    wall, wall_contacts, _ = _dense_wall_forces(pos, radius, wall_cells, geo.cell_size, params)
    vel = vel + (drive + pair + wall) / mass[:, None] * dt
    vel = _ref_friction(vel, mass, pair_contacts, wall_contacts, dt, params)
    cap = float(params["sf_speed_slack"]) * float(params["speed_cap"])
    speed = np.sqrt(vel[:, 0] * vel[:, 0] + vel[:, 1] * vel[:, 1])
    vel[speed > cap] *= (cap / speed[speed > cap])[:, None]
    new_pos, vel, projected = _ref_penetration(geo, pos, pos + vel * dt, vel)
    cells = geo.cells_of(new_pos)
    assert geo.open_mask[cells[:, 1], cells[:, 0]].all()
    state.pos[present], state.vel[present] = new_pos, vel
    state.projected += projected
    return new_pos, cells, (len(pair_contacts[0]), len(wall_contacts[0]))


# at 0.05 s the packed crowd is stiff past stability: bodies step a half
# cell, so the tunnelling test and the speed clamp run too
@pytest.mark.parametrize("dt", [0.02, 0.05])
def test_sf_step_matches_the_reference_step_bit_for_bit(dt):
    # a crowd closing on a corner of a room with pillars, some bodies
    # without a goal or standing still, one pair starting at the same
    # point, a small body thrown into the south wall every 25 steps and
    # the present set thinning out: positions, velocities, cells and
    # projections agree after every step
    pillars = [(5, 5), (6, 5), (10, 8), (11, 3)]
    geo = make_scenario(room_doc(grid_rows(18, 14, exits=[(17, 3)], walls=pillars), count=1, spawn=[1, 1, 1, 1])).geometry
    walls = _walls(geo)
    rng = np.random.default_rng(1)
    xs, ys = np.meshgrid(np.arange(0.85, 8.0, 0.75), np.arange(0.85, 6.0, 0.75))
    pos = np.stack([xs.ravel(), ys.ravel()], axis=1) + rng.uniform(-0.05, 0.05, size=(xs.size, 2))
    pos = pos[geo.open_mask[(pos[:, 1] / 0.5).astype(int), (pos[:, 0] / 0.5).astype(int)]]
    pos = np.concatenate([pos, pos[:1]])
    n = len(pos)
    radius = np.where(np.arange(n) == 1, 0.05, rng.uniform(0.25, 0.35, size=n))
    state = SfState(pos=pos, vel=np.zeros((n, 2)), radius=radius, mass=rng.uniform(60.0, 90.0))
    ref = replace(state, pos=state.pos.copy(), vel=state.vel.copy())
    desired = rng.uniform(0.5, 2.0, size=n)
    desired[::9] = 0.0
    waypoint = np.where(rng.random(n)[:, None] < 0.6, [1.0, 1.0], rng.uniform(1.0, 8.0, size=(n, 2)))
    waypoint[::11] = np.nan
    present = np.arange(n)
    wall_cells = exposed_wall_cells(geo)
    pair_contacts = wall_contacts = 0
    for step in range(300):
        if step % 25 == 10:
            state.pos[1, 1] = ref.pos[1, 1] = 0.56
            state.vel[1] = ref.vel[1] = [0.0, -9.0]
        if step % 60 == 59:
            present = np.delete(present, int(rng.integers(2, len(present))))
        got_pos, got_cells = sf_step(state, geo, walls, present, desired, waypoint, dt, step, PARAM_DEFAULTS)
        want_pos, want_cells, contacts = _ref_sf_step(ref, geo, wall_cells, present, desired, waypoint, dt,
                                                      PARAM_DEFAULTS)
        assert np.array_equal(got_pos, want_pos), step
        assert got_cells.dtype == want_cells.dtype and np.array_equal(got_cells, want_cells), step
        assert np.array_equal(state.pos, ref.pos) and np.array_equal(state.vel, ref.vel), step
        assert state.projected == ref.projected, step
        pair_contacts += contacts[0]
        wall_contacts += contacts[1]
    assert pair_contacts > 0 and wall_contacts > 0 and ref.projected > 0


# -- whole-step properties ------------------------------------------------------------


def test_bodies_never_end_a_step_inside_walls():
    geo = _open_floor(8.0, 6.0)
    walls = _walls(geo)
    rng = np.random.default_rng(5)
    n = 40
    state = _free_state(rng.uniform(1.0, 5.0, size=(n, 2)))
    state.vel = rng.uniform(-3, 3, size=(n, 2))
    v_des = np.full(n, 1.34)
    waypoint = np.tile([7.5, 1.75], (n, 1))
    open_mask = geo.open_mask
    for tick in range(200):
        sf_step(state, geo, walls, np.arange(n), v_des, waypoint, 0.05, tick, PARAM_DEFAULTS)
        cx = (state.pos[:, 0] / geo.cell_size).astype(int)
        cy = (state.pos[:, 1] / geo.cell_size).astype(int)
        assert open_mask[cy, cx].all()


def test_cornered_body_settles_instead_of_tunnelling():
    # regression: a body shot into a corner must come to rest near its
    # waypoint side, not get wedged or pushed through the boundary
    geo = _open_floor(8.0, 6.0)
    walls = _walls(geo)
    state = _free_state([[0.796, 0.796]])
    state.vel[0] = [0.0, -8.0]
    waypoint = np.array([[1.0, 1.0]])
    for tick in range(200):
        sf_step(state, geo, walls, np.arange(1), np.array([1.0]), waypoint, 0.05, tick, PARAM_DEFAULTS)
    assert np.linalg.norm(state.pos[0] - waypoint[0]) < 0.2
    assert np.linalg.norm(state.vel[0]) < 0.5
    assert not state.warnings


def test_projections_on_many_ticks_make_one_warning():
    # a small body thrown at the south wall from the same spot every step
    # is projected back every step: one line holds the total and names
    # only the first few ticks
    geo = _open_floor(8.0, 6.0)
    walls = _walls(geo)
    state = _free_state([[2.0, 0.8]], radius=0.05)
    for tick in range(12):
        state.pos[0], state.vel[0] = [2.0, 0.8], [0.0, -8.0]
        sf_step(state, geo, walls, np.arange(1), np.array([1.0]), np.array([[2.0, 0.0]]), 0.05, tick, PARAM_DEFAULTS)
    assert state.projected == 12
    assert state.warnings == ["projected 12 bodies out of walls, first on ticks 0, 1, 2"]


def test_a_body_that_starts_inside_a_wall_is_an_error():
    # spawning puts every body on an open cell and each step keeps it on
    # one, so a body inside a wall is a broken invariant, not a state to
    # repair by moving it
    walls = [(x, y) for x in range(6, 13) for y in range(6, 13)]
    geo = make_scenario(room_doc(grid_rows(20, 20, exits=[(19, 3)], walls=walls), count=1, spawn=[1, 1, 1, 1])).geometry
    state = _free_state([[4.75, 4.75]])  # centre of the 7 x 7 block of 0.5 m cells
    with pytest.raises(SimulationError, match=r"^tick 5: agents \[0\] ended the step inside a wall$"):
        sf_step(state, geo, _walls(geo), np.arange(1), np.array([1.34]), np.array([[1.0, 1.0]]), 0.05, 5, PARAM_DEFAULTS)


def test_neighbor_cache_survives_drift_without_missing_pairs():
    geo = _open_floor(10.0, 10.0)
    rng = np.random.default_rng(11)
    n = 60
    state = _free_state(rng.uniform(2.0, 8.0, size=(n, 2)))
    v_des = np.full(n, 1.34)
    for step in range(60):
        waypoint = state.pos + rng.uniform(-2, 2, size=(n, 2))
        sf_step(state, geo, _walls(geo, NO_WALLS), np.arange(n), v_des, waypoint, 0.05, step, PARAM_DEFAULTS)
        force, _ = _pair_forces(state.pos, state.radius, PARAM_DEFAULTS, _pairs(state.pos))
        cached, _ = _pair_forces(state.pos, state.radius, PARAM_DEFAULTS, state._nbr.pairs)
        assert np.allclose(force, cached, atol=1e-9), step


# -- jam detection -----------------------------------------------------------------


def test_arch_band_counts_bodies_upstream_of_the_door():
    door = (10.0, 5.0)
    upstream = (-1.0, 0.0)
    inner = PARAM_DEFAULTS["clog_band_inner"]
    outer = PARAM_DEFAULTS["clog_band_outer"]
    mid = (inner + outer) / 2.0
    in_band = np.array([[10.0 - mid, 5.0], [10.0 - mid, 5.3], [10.0 - mid, 4.7]])
    too_close = np.array([[10.0 - 0.5 * inner, 5.0]])
    downstream = np.array([[10.0 + mid, 5.0]])
    pos = np.vstack([in_band, too_close, downstream])
    assert arch_band_count(pos, door, upstream, PARAM_DEFAULTS) == 3


def test_detect_arch_requires_starved_flow_and_a_crowd():
    door = (10.0, 5.0)
    upstream = (-1.0, 0.0)
    crowd = np.array([[9.0, 4.6 + 0.2 * i] for i in range(8)])
    jammed, count = detect_arch(crowd, door, upstream, flow_rate=0.0, params=PARAM_DEFAULTS)
    assert jammed and count == 8
    flowing, _ = detect_arch(crowd, door, upstream, flow_rate=2.0, params=PARAM_DEFAULTS)
    assert not flowing
    sparse = crowd[:2]
    starved_but_empty, _ = detect_arch(sparse, door, upstream, flow_rate=0.0, params=PARAM_DEFAULTS)
    assert not starved_but_empty


def test_a_clogging_exit_opens_and_closes_episodes_to_the_end_of_the_run():
    """24 walkers at a one-cell exit 0.6 m wide, about one body across:
    arches form and break, and the last one still stands when the run
    stops at 60 s.  The detector asks for 4 bodies in its band here, as
    bodies of 0.25-0.35 m radius seldom fit 6 in it against a wall."""
    doc = room_doc(
        grid_rows(14, 11, exits=[(13, 5)]),
        count=24,
        backend="sf",
        spawn=[4, 1, 12, 9],
        attributes=[{"attr": "reaction_time", "dist": "uniform", "lo": 0.0, "hi": 1.0}],
        cell_size=0.6,
        max_sim_time=60.0,
        overrides={"clog_min_bodies": 4},
    )
    result = run(make_scenario(doc))
    clogs = [e for e in result.events if e.kind in ("clog_start", "clog_end")]
    assert len(clogs) >= 4 and {e.subject for e in clogs} == {"exit:0"}
    assert [e.kind for e in clogs] == ["clog_start", "clog_end"] * (len(clogs) // 2)
    *during, last = clogs
    for event in during:
        assert set(event.payload) == {"band", "flow"}
        if event.kind == "clog_start":
            assert event.payload["flow"] < PARAM_DEFAULTS["clog_flow"] and event.payload["band"] >= 4
    assert result.timeout and (last.t, last.payload) == (result.t_end, {"end_of_run": True})
    clogged = sum(end.t - start.t for start, end in zip(clogs[::2], clogs[1::2]))
    assert 0 < clog_fraction(result) <= 1
    assert clog_fraction(result) == pytest.approx(clogged / result.t_end)


def test_max_dt_guard_is_the_documented_bound():
    assert MAX_DT == 0.05


# -- steering ---------------------------------------------------------------------

READING_ORDER = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def _field_hop(geo, field, cx, cy):
    """Scalar steepest descent: the centre of the first lowest admissible
    neighbour below the current cell, or None at a minimum."""
    here = field[cy, cx]
    best = None
    best_val = here if math.isfinite(here) else math.inf
    for dx, dy in READING_ORDER:
        nx, ny = cx + dx, cy + dy
        if not geo.is_open(nx, ny):
            continue
        if dx and dy and not (geo.is_open(nx, cy) and geo.is_open(cx, ny)):
            continue
        if field[ny, nx] < best_val:
            best_val = field[ny, nx]
            best = (nx, ny)
    return None if best is None else ((best[0] + 0.5) * geo.cell_size, (best[1] + 0.5) * geo.cell_size)


def _push_point(geo, labels, n_rooms, arc, door):
    """Just beyond the door centre on the arc's destination side."""
    cs = geo.cell_size
    center = np.array([sum(x + 0.5 for x, _ in door.cells), sum(y + 0.5 for _, y in door.cells)])
    center = center / len(door.cells) * cs
    if arc.dst >= n_rooms:
        labels, label = geo.zone_grid, arc.dst - n_rooms
    else:
        label = arc.dst
    acc = np.zeros(2)
    count = 0
    for (x, y) in door.cells:
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if geo.in_bounds(nx, ny) and int(labels[ny, nx]) == label:
                acc += ((nx + 0.5) * geo.cell_size, (ny + 0.5) * geo.cell_size)
                count += 1
    if count:
        direction = acc / count - center
        norm = float(np.linalg.norm(direction))
        if norm > 1e-9:
            return center + direction / norm * (0.9 * cs)
    return center


class _ScalarSteering:
    """One agent at a time: the next route arc's door, the nearest exit
    cell for a doorless arc, else (and once the aim is within reach) a hop
    down the target's field; the all-exits field without a target."""

    def __init__(self, geo, params):
        self.geo = geo
        self.reach = float(params["waypoint_reach"])
        network = derive_network(geo, params)
        self.labels = geo.room_labels
        n_rooms = int(self.labels.max()) + 1
        self.fields = [distance_field(geo, zone.cells) for zone in geo.exit_zones]
        self.routes = [route_to_destination(network, n_rooms + zone.id) for zone in geo.exit_zones]
        doors = {door.id: door for door in geo.doors}
        self.push = [
            None if arc.door_id not in doors else _push_point(geo, self.labels, n_rooms, arc, doors[arc.door_id])
            for arc in network.arcs
        ]

    def waypoint(self, pos, zone):
        geo = self.geo
        cx = min(geo.width - 1, max(0, int(pos[0] / geo.cell_size)))
        cy = min(geo.height - 1, max(0, int(pos[1] / geo.cell_size)))
        if zone == NO_TARGET:
            wp = _field_hop(geo, geo.exit_distance, cx, cy)
        else:
            wp = self._route_waypoint(pos, zone, cx, cy)
        return (math.nan, math.nan) if wp is None else wp

    def _route_waypoint(self, pos, zone, cx, cy):
        geo = self.geo
        wp = None
        room = int(self.labels[cy, cx])
        if room >= 0 and self.routes[zone].get(room) is not None:
            wp = self.push[self.routes[zone][room]]
            if wp is None:
                centers = (np.asarray(geo.exit_zones[zone].cells) + 0.5) * geo.cell_size
                wp = centers[int(np.argmin(((centers - pos) ** 2).sum(axis=1)))]
        if wp is None:
            wp = _field_hop(geo, self.fields[zone], cx, cy)
        if wp is not None and math.hypot(float(wp[0]) - pos[0], float(wp[1]) - pos[1]) < self.reach:
            hop = _field_hop(geo, self.fields[zone], cx, cy)
            if hop is not None:
                wp = hop
        return wp


def _exit_door_room():
    """A room whose east exit opening is a declared door, so one route arc
    passes a door into an exit zone; the west exit has no door."""
    rows = grid_rows(12, 8, exits=[(11, 3), (11, 4), (0, 3)])
    return make_scenario(room_doc(rows, backend="sf", doors=[{"id": "east", "cells": [[11, 3], [11, 4]]}]))


@pytest.mark.parametrize("name", ["two_rooms", "herding_two_exit", "exit_door"])
def test_bulk_steering_matches_the_scalar_reference(name):
    # every open cell's centre and one jittered point in it, toward every
    # exit and toward none: reaches the doorless arcs, the doors into an
    # exit zone, the cells outside any room, the minima and the agents
    # without a target
    if name == "exit_door":
        scenario = _exit_door_room()
    else:
        scenario = load_scenario(os.path.join(SCENARIOS, f"{name}.json"))
    sim = _Simulation(scenario, replace(scenario.config, backend="sf"))
    geo = sim.geometry
    reference = _ScalarSteering(geo, sim.params)
    cells = np.argwhere(geo.open_mask)[:, ::-1].astype(np.float64)
    jitter = np.random.default_rng(17).uniform(0.0, 1.0, size=cells.shape)
    points = np.concatenate([cells + 0.5, cells + jitter]) * geo.cell_size
    targets = [NO_TARGET] + [zone.id for zone in geo.exit_zones]
    pos = np.repeat(points, len(targets), axis=0)
    zone = np.tile(targets, len(points))
    want = np.array([reference.waypoint(p, z) for p, z in zip(pos, zone.tolist())], dtype=np.float64)
    got = np.empty_like(want)
    batch = len(sim.pop)
    for start in range(0, len(pos), batch):
        stop = min(len(pos), start + batch)
        ids = np.arange(stop - start)
        sim.pop.pos[ids] = pos[start:stop]
        sim.pop.target[ids] = zone[start:stop]
        sim.mover.steer(ids)
        got[start:stop] = sim.mover.waypoint[ids]
    assert np.isnan(want[:, 0]).any() and not np.isnan(want[:, 0]).all()
    np.testing.assert_array_equal(got, want)
