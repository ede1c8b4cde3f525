"""Continuous backend: bodies driven by goal attraction, interpersonal
repulsion and physical contact.

Force terms per body: a driving term relaxing velocity toward the
desired speed along the waypoint direction, an exponential
psychological repulsion from nearby bodies, and -- once bodies touch --
normal compression plus tangential sliding friction.  Walls act through
the same three terms, computed against each body's nearest wall point.
This combination is what produces arch formation and the
faster-is-slower effect at doorways.

The nearest wall point comes from a per-cell candidate table, built once
per run.  A cell's candidates are the exposed wall cells within the
cutoff that can be the nearest wall to some point of the cell.  A wall's
gap is the distance between its box and the cell's, its reach the
distance from the cell's farthest point; a wall stays only if its gap is
at most the smallest reach over the cell's walls.  That reach bounds the
distance from every point of the cell to its nearest wall, and gap and
reach are whole numbers of cells once squared, so a wall dropped is
farther than the nearest by at least cs / (2U + 1), U that reach in
cells: never the nearest, nor tied with it.  The table keeps every
cell's candidate boxes in one unpadded run, so a step gathers each
body's own cell's few candidates in one call, neither every wall cell
nor a row padded to the longest.

Integration is semi-implicit Euler with a speed clamp and a positional
backstop that keeps body centres out of wall cells even when contact
forces spike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import SF_MAX_DT as MAX_DT
from .errors import SimulationError
from .scenario import Geometry
from .spatialhash import SpatialHash

# Jacobi sweeps for the sliding-friction impulse pass.  Each sweep damps
# every touching contact's relative tangential velocity by the implicit
# viscous factor split across that body's contacts; a handful of sweeps
# recovers near-full friction even for bodies wedged against 6+ others.
FRICTION_SWEEPS = 8

# extra search margin (m) on the neighbour list; the list stays valid
# until some body has moved half this far, so slow, packed crowds reuse
# one enumeration for many steps without missing a single pair
NEIGHBOR_SKIN = 0.4

# ticks of wall projection listed by name in the run's one summary warning
PROJECTION_EXAMPLES = 3

# the contact lists of a step without contact, shared: an empty array has no entry to write
_NO_PAIR_CONTACTS = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros(0))
_NO_WALL_CONTACTS = (np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros(0))


def _xy_slots(rows: np.ndarray) -> np.ndarray:
    """Flat indices of the x, y entries of ``rows`` in an (N, 2) array."""
    return (2 * rows[:, None] + (0, 1)).ravel()


class _Neighbors(NamedTuple):
    """A candidate pair list and what stays fixed until its rebuild."""

    rows: np.ndarray       # (n,) present ids it was built over
    ref: np.ndarray        # (n, 2) their positions at the build
    pairs: tuple           # candidate rows (i, j), ascending
    radius: np.ndarray     # (n,) radius of each present row
    r_sum: np.ndarray      # radius[i] + radius[j] per candidate pair
    slots: np.ndarray      # _xy_slots(rows)


@dataclass
class SfState:
    """Positions, velocities and body radii, indexed by agent id, and
    the run's one body mass.

    Which bodies are in the building and which tick it is are not
    recorded here: ``sf_step`` takes both per step, and the rows of everyone else stay put.
    People only ever leave, so a step's present set is a subset of the last one's.
    Built by ``from_bodies``, ``pos`` and ``radius`` are the population's
    own arrays, not copies, and every body has the mass ``sf_mass``.  The
    neighbour list caches the present rows' radius and each candidate
    pair's radius sum; they are read again only on a rebuild, so
    ``radius`` must not change while it is kept.
    """

    pos: np.ndarray                        # (N, 2) m
    vel: np.ndarray                        # (N, 2) m/s
    radius: np.ndarray                     # (N,)
    mass: float                            # kg, of every body
    projected: int = 0                     # bodies projected out of walls, over all ticks
    projection_ticks: list[int] = field(default_factory=list)  # the first PROJECTION_EXAMPLES of them

    # cached neighbour list: pairs found within cutoff + NEIGHBOR_SKIN of
    # the reference positions stay a superset of the true within-cutoff
    # pairs until some body drifts NEIGHBOR_SKIN/2 from its reference
    _nbr: _Neighbors | None = field(default=None, repr=False)

    @classmethod
    def from_bodies(cls, pos: np.ndarray, radius: np.ndarray, params: dict) -> "SfState":
        """State over the population's own ``pos`` and ``radius`` arrays;
        sf_step moves ``pos`` in place."""
        return cls(pos=pos, vel=np.zeros((len(pos), 2)), radius=radius, mass=float(params["sf_mass"]))

    @property
    def warnings(self) -> list[str]:
        """The one summary line of the wall projections so far, if any."""
        if not self.projected:
            return []
        ticks = ", ".join(map(str, self.projection_ticks))
        return [f"projected {self.projected} bodies out of walls, first on ticks {ticks}"]


@dataclass(frozen=True)
class WallTable:
    """Per grid cell, by ascending wall index, the exposed walls within the
    cutoff of its box whose gap is at most the smallest farthest-point
    reach of those walls, a bound on every point's nearest-wall distance.

    On a grid W cells wide, cell c = y * W + x has ``count[c]``
    candidates.  ``box`` holds them without padding, cell after cell,
    from column ``start[c]``: the x and y of each box's low corner, then
    of its high corner.  ``rows[c]`` lists their wall indices, padded
    with the index M of ``lo``'s sentinel column, whose box lies at +inf.
    """

    lo: np.ndarray           # (2, M + 1) m, x and y of each wall box's low corner
    rows: np.ndarray         # (H * W, K) int32 wall indices
    count: np.ndarray        # (H * W,) candidates per cell
    start: np.ndarray        # (H * W,) each cell's first column of box
    box: np.ndarray          # (4, count.sum()) m, low x, low y, high x, high y per candidate
    cutoff: float


def exposed_wall_cells(geometry: Geometry) -> np.ndarray:
    """Blocked cells with at least one open 8-neighbour, as (M, 2) coords.

    Interior wall cells buried behind the surface never face an agent,
    so only the exposed shell enters the force computation.
    """
    h, w = geometry.open_mask.shape
    padded = np.pad(geometry.open_mask, 1)
    near_open = np.zeros((h, w), dtype=bool)                 # open in the 3x3 block
    for dy in range(3):
        for dx in range(3):
            near_open |= padded[dy: dy + h, dx: dx + w]
    ys, xs = np.nonzero(geometry.blocked_mask & near_open)
    return np.stack([xs, ys], axis=1).astype(np.int64)


def driving_force(pos: np.ndarray, vel: np.ndarray, mass: float, desired_speed: np.ndarray, waypoint: np.ndarray,
                  params: dict) -> np.ndarray:
    """m (v_des e - v) / tau toward each body's waypoint, every body of
    mass ``mass``.

    Rows with a NaN waypoint (nothing to head for) relax to rest.
    """
    heading = waypoint - pos
    sq = np.square(heading)                  # x * x, the same bits, in one call
    norm = np.sqrt(sq[:, 0] + sq[:, 1])
    e = heading / np.maximum(norm, 1e-12)[:, None]
    # a NaN heading stays NaN through the unit vector, and the where drops
    # it; a finite sum of norms means every row has a goal
    if not math.isfinite(norm.sum()):
        e = np.where((np.isfinite(heading[:, 0]) & np.isfinite(heading[:, 1]))[:, None], e, 0.0)
    return mass * (desired_speed[:, None] * e - vel) / float(params["sf_tau"])


def pair_forces(pos: np.ndarray, params: dict, pairs: tuple[np.ndarray, np.ndarray],
                r_sum: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Body-body psychological repulsion plus normal compression.

    ``pairs`` are candidate rows ``(i, j)``, ascending, for example from
    ``SpatialHash.query_pairs``; those beyond the cutoff exert nothing.
    ``r_sum`` is ``radius[i] + radius[j]`` per pair.
    Returns the per-body force array and the touching-contact list
    ``(i, j, tangent, overlap)`` consumed by the sliding-friction pass.
    Accumulation order is fixed (pairs ascending), keeping float sums
    bit-stable for any worker count.
    """
    a, b, k, cutoff = (float(params[key]) for key in ("sf_a", "sf_b", "sf_k", "sf_cutoff"))
    n = len(pos)
    i, j = pairs
    # a row take is ~11x faster than pos[i] (5 vs 55 us on 2868 rows,
    # numpy 2.4), so every (n, 2) row gather of a step is a take
    diff = pos.take(i, axis=0) - pos.take(j, axis=0)
    sq = np.square(diff)
    d2 = sq[:, 0] + sq[:, 1]
    dx, dy = diff.T
    # far pairs are masked, not dropped: set infinitely far, they exert
    # +0.0 along a +-0.0 normal, and as a bin starts at +0.0 their terms
    # leave every partial sum as it was
    dist = np.sqrt(np.where(d2 <= cutoff * cutoff, d2, np.inf))
    if dist.min(initial=np.inf) < 1e-9:
        degenerate = dist < 1e-9
        dist = np.maximum(dist, 1e-9)
        nx = np.where(degenerate, 1.0, dx / dist)
        ny = np.where(degenerate, 0.0, dy / dist)
    else:
        nx, ny = dx / dist, dy / dist
    gap = r_sum - dist
    f = a * np.exp(gap / b)
    # without an overlap the compression term is +0.0 and moves no force bit
    touching = gap.max(initial=-np.inf) > 0.0
    if touching:
        overlap = np.maximum(gap, 0.0)
        f = f + k * overlap
    fx, fy = f * nx, f * ny
    force = np.empty((n, 2))
    # x + bincount(j, -fx) and x - bincount(j, fx) are the same bits:
    # rounding is sign-symmetric, and an exact zero sum is +0.0 either way
    force[:, 0] = np.bincount(i, fx, n) - np.bincount(j, fx, n)
    force[:, 1] = np.bincount(i, fy, n) - np.bincount(j, fy, n)
    if not touching:
        return force, _NO_PAIR_CONTACTS
    touch = (overlap > 0.0).nonzero()[0]
    tangent = np.stack([-ny.take(touch), nx.take(touch)], axis=1)
    return force, (i.take(touch), j.take(touch), tangent, overlap.take(touch))


def wall_table(wall_cells: np.ndarray, geometry: Geometry, cutoff: float) -> WallTable:
    """Candidate table of the (M, 2) ``wall_cells`` on ``geometry``'s grid,
    built over a wall-cell x offset stencil in O(M x stencil)."""
    h, w, cell_size = geometry.height, geometry.width, geometry.cell_size
    m = len(wall_cells)
    span = np.arange(-int(cutoff / cell_size) - 2, int(cutoff / cell_size) + 3)
    dx, dy = (d.ravel() for d in np.meshgrid(span, span))
    # box-to-box gaps in cells; the cutoff test has slack so rounding only adds candidates
    gap_x, gap_y = np.maximum(np.abs(dx) - 1, 0), np.maximum(np.abs(dy) - 1, 0)
    near = np.hypot(gap_x, gap_y) * cell_size <= cutoff + 1e-6
    cx = wall_cells[:, :1] + dx[near]                      # (M, stencil)
    cy = wall_cells[:, 1:] + dy[near]
    inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
    cell = (cy * w + cx)[inside]
    wall = np.broadcast_to(np.arange(m)[:, None], cx.shape)[inside]
    # keep the walls whose squared gap is at most the cell's smallest
    # squared reach (module docstring), both exact in cells squared
    gap2 = np.broadcast_to((gap_x * gap_x + gap_y * gap_y)[near], cx.shape)[inside]
    reach2 = np.broadcast_to((dx * dx + dy * dy)[near], cx.shape)[inside]
    closest = np.full(h * w, np.iinfo(np.int64).max)
    np.minimum.at(closest, cell, reach2)
    keep = gap2 <= closest.take(cell)
    cell, wall = cell[keep], wall[keep]
    order = np.argsort(cell, kind="stable")                # keeps wall ids ascending per cell
    cell, wall = cell[order], wall[order]
    count = np.bincount(cell, minlength=h * w)
    start = np.cumsum(count) - count
    rows = np.full((h * w, max(int(count.max(initial=0)), 1)), m, dtype=np.int32)
    rows[cell, np.arange(len(cell)) - np.repeat(start, count)] = wall
    lo = np.hstack([np.asarray(wall_cells, dtype=np.float64).T * cell_size, [[np.inf], [np.inf]]])
    box = np.concatenate([lo, lo + cell_size]).take(wall, axis=1)
    return WallTable(lo=lo, rows=rows, count=count, start=start, box=box, cutoff=cutoff)


def wall_forces(pos: np.ndarray, radius: np.ndarray, walls: WallTable, geometry: Geometry,
                params: dict) -> tuple[np.ndarray, tuple]:
    """Repulsion and normal compression against the closest wall point.

    The wall surface is a continuum, so each body interacts with its
    single nearest boundary point; summing a separate force from every
    wall cell would triple-count flat runs of wall and stall slow
    walkers half a metre short of a doorway.  Each body (on the grid)
    clips against only its own cell's candidates in ``walls``, a table
    of ``geometry``'s grid.  When the nearest wall point lies within the
    cutoff, it and every tie with it are among them, in global order, so
    the argmin picks the wall cell a scan of all wall cells would;
    otherwise neither applies a force.

    Returns the per-body force array and the touching-contact list
    ``(rows, tangent, overlap)`` consumed by the sliding-friction pass.
    """
    cutoff = float(params["sf_cutoff"])
    if cutoff > walls.cutoff:
        raise ValueError(f"cutoff {cutoff} exceeds the wall table's {walls.cutoff}")
    n = len(pos)
    force = np.zeros((n, 2))
    cs = geometry.cell_size
    # the flat index of geometry.cells_of(pos), in one call
    cells = (pos / cs).astype(np.int64)
    flat = np.ravel_multi_index((cells[:, 1], cells[:, 0]), (geometry.height, geometry.width), mode="clip")
    count = walls.count.take(flat)
    body = count.nonzero()[0]                                 # bodies with a candidate
    if len(body) == 0:
        return force, _NO_WALL_CONTACTS
    a, b, k = (float(params[key]) for key in ("sf_a", "sf_b", "sf_k"))
    # each body's candidates as one run of columns, every run in one gather
    n_cand = count.take(body)
    end = np.cumsum(n_cand)
    first = end - n_cand                                      # each body's first column
    slot = np.arange(end[-1])
    box = walls.box.take(np.repeat(walls.start.take(flat.take(body)) - first, n_cand) + slot, axis=1)
    p = pos.T.take(np.repeat(body, n_cand), axis=1)
    d = p - np.minimum(np.maximum(p, box[:2]), box[2:])       # offset from the nearest box point
    sq = np.square(d)
    d2 = sq[0] + sq[1]
    best_d2 = np.minimum.reduceat(d2, first)
    # each body's first candidate at its minimum: the argmin in wall order
    at = np.minimum.reduceat(np.where(d2 == np.repeat(best_d2, n_cand), slot, len(slot)), first)
    rel = (best_d2 < cutoff * cutoff).nonzero()[0]
    dist = np.maximum(np.sqrt(best_d2.take(rel)), 1e-9)
    at = at.take(rel)
    nx, ny = d[0].take(at) / dist, d[1].take(at) / dist
    rows = body.take(rel)
    gap = radius.take(rows) - dist
    magnitude = a * np.exp(gap / b)
    touching = gap.max(initial=-np.inf) > 0.0                 # as in pair_forces
    if touching:
        overlap = np.maximum(gap, 0.0)
        magnitude = magnitude + k * overlap
    force[rows, 0] = magnitude * nx
    force[rows, 1] = magnitude * ny
    if not touching:
        return force, _NO_WALL_CONTACTS
    touch = (overlap > 0.0).nonzero()[0]
    tangent = np.stack([-ny.take(touch), nx.take(touch)], axis=1)
    return force, (rows.take(touch), tangent, overlap.take(touch))


def apply_contact_friction(vel: np.ndarray, mass: float, pair_contacts: tuple, wall_contacts: tuple, dt: float,
                           params: dict) -> np.ndarray:
    """Damp tangential sliding at touching contacts between bodies of
    mass ``mass``, in place.

    Viscous sliding friction (rate = kappa x overlap) is far stiffer
    than the step size whenever bodies are pressed together, so adding
    it to the force sum overshoots and pumps energy instead of
    dissipating it.  Instead each contact damps its relative tangential
    velocity by the implicit factor for its rate, split 1/n over the
    bodies' touching contacts, and the pass is swept a fixed number of
    times so heavily-wedged bodies still reach near-full damping.
    Impulses are equal and opposite, so momentum is conserved.  A sweep
    sums each kind of impulse with one bincount over the x, y slots.  A
    body has at most one wall contact (``wall_forces`` gives each its
    nearest wall point), so without pair contacts a sweep adds each wall
    impulse straight to its row.
    """
    kappa = float(params["sf_kappa"])
    i, j, tan_p, gap_p = pair_contacts
    rows, tan_w, gap_w = wall_contacts
    if len(i) == 0 and len(rows) == 0:
        return vel
    if len(i) == 0:
        # a bincount adds +0.0 to every slot it does not kick, turning
        # -0.0 into +0.0 once; with no -0.0 left, a row plus its kick is
        # the row plus (0.0 + kick)
        gain_w = mass * (1.0 - 1.0 / (1.0 + kappa * gap_w * dt / mass))
        vel += 0.0
        for _ in range(FRICTION_SWEEPS):
            v = vel.take(rows, axis=0)
            vel[rows] = v + -(gain_w * (v * tan_w).sum(axis=1) / mass)[:, None] * tan_w
        return vel

    n = len(vel)
    counts = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + np.bincount(rows, minlength=n)
    m_red = 1.0 / (1.0 / mass + 1.0 / mass)
    damp = 1.0 - 1.0 / (1.0 + kappa * gap_p * dt / m_red)
    gain_p = m_red * damp / np.maximum(np.maximum(counts.take(i), counts.take(j)), 1)
    slot_i, slot_j = _xy_slots(i), _xy_slots(j)
    if len(rows):
        damp_w = 1.0 - 1.0 / (1.0 + kappa * gap_w * dt / mass)
        gain_w = mass * damp_w / np.maximum(counts[rows], 1)
        slot_w = _xy_slots(rows)

    for _ in range(FRICTION_SWEEPS):
        # the sum of per-kind bincounts, in the order i, j, walls, keeps
        # each slot's additions in the order of a scatter per kind; j's
        # kick is i's negated, and negation is exact
        dv_t = ((vel.take(j, axis=0) - vel.take(i, axis=0)) * tan_p).sum(axis=1)
        kick = ((gain_p * dv_t / mass)[:, None] * tan_p).ravel()
        delta = np.bincount(slot_i, kick, 2 * n) + np.bincount(slot_j, -kick, 2 * n)
        if len(rows):
            v_t = (vel.take(rows, axis=0) * tan_w).sum(axis=1)
            delta = delta + np.bincount(slot_w, (-(gain_w * v_t / mass)[:, None] * tan_w).ravel(), 2 * n)
        vel += delta.reshape(n, 2)
    return vel


def _neighbor_list(state: SfState, idx: np.ndarray, pos: np.ndarray, cutoff: float) -> _Neighbors:
    """Candidate pair list over the present rows, reused across steps.

    Enumerated at cutoff + NEIGHBOR_SKIN and kept until a body drifts
    half the skin from its reference position (or someone leaves),
    which guarantees the list still contains every pair truly within
    the cutoff.  People only ever leave, so a present set as long as the
    list's is the list's own.
    """
    nbr = state._nbr
    fresh = nbr is not None and len(nbr.rows) == len(idx)
    if fresh:
        # a squared drift is at most twice its larger squared component:
        # the first test only saves the second
        sq = np.square(pos - nbr.ref)
        fresh = sq.max() * 2 < (NEIGHBOR_SKIN / 2) ** 2 or (sq[:, 0] + sq[:, 1]).max() < (NEIGHBOR_SKIN / 2) ** 2
    if not fresh:
        reach = cutoff + NEIGHBOR_SKIN
        i, j = SpatialHash(pos, reach).query_pairs(reach)
        radius = state.radius.take(idx)
        r_sum = radius.take(i) + radius.take(j)
        nbr = _Neighbors(idx.copy(), pos.copy(), (i, j), radius, r_sum, _xy_slots(idx))
        state._nbr = nbr
    return nbr


def sf_step(state: SfState, geometry: Geometry, walls: WallTable, present: np.ndarray, desired_speed: np.ndarray,
            waypoint: np.ndarray, dt: float, tick: int, params: dict) -> tuple[np.ndarray, np.ndarray]:
    """One semi-implicit Euler step, the step of tick ``tick``, over the
    bodies ``present`` (ascending ids of the people in the building).
    Returns their (n, 2) new positions and the (n, 2) cells holding them.

    Velocity updates first and is clamped to slack x the global speed
    cap (contact impulses may briefly exceed walking speeds); the
    position update follows.  Bodies whose centre would land in a wall
    cell (or off the grid) are projected back into the cell they came
    from, with the into-wall velocity component removed.
    """
    if not 0 < dt <= MAX_DT:
        raise SimulationError(f"tick {tick}: integration step {dt} outside (0, {MAX_DT}]")

    if len(present) == 0:
        return np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64)

    pos = state.pos.take(present, axis=0)
    vel = state.vel.take(present, axis=0)
    nbr = _neighbor_list(state, present, pos, float(params["sf_cutoff"]))
    mass = state.mass

    total = driving_force(pos, vel, mass, desired_speed.take(present), waypoint.take(present, axis=0), params)
    pair, pair_contacts = pair_forces(pos, params, nbr.pairs, nbr.r_sum)
    wall, wall_contacts = wall_forces(pos, nbr.radius, walls, geometry, params)
    force = total + pair + wall

    vel = vel + force / mass * dt
    vel = apply_contact_friction(vel, mass, pair_contacts, wall_contacts, dt, params)
    v_cap = float(params["sf_speed_slack"]) * float(params["speed_cap"])
    # a speed is below 1.5 x its largest component, so none is clamped below
    if np.abs(vel).max() * 1.5 > v_cap:
        speed = np.sqrt(vel[:, 0] * vel[:, 0] + vel[:, 1] * vel[:, 1])
        too_fast = speed > v_cap
        vel[too_fast] *= (v_cap / speed[too_fast])[:, None]

    new_pos, vel, n_projected, cells = _resolve_wall_penetration(geometry, pos, pos + vel * dt, vel)
    if n_projected:
        state.projected += n_projected
        if len(state.projection_ticks) < PROJECTION_EXAMPLES:
            state.projection_ticks.append(tick)
        # unprojected, every body lands in an open cell on the grid
        cells = geometry.cells_of(new_pos)
        in_wall = geometry.blocked_mask[cells[:, 1], cells[:, 0]]
        if in_wall.any():
            raise SimulationError(f"tick {tick}: agents {present[in_wall].tolist()} ended the step inside a wall")

    state.pos.put(nbr.slots, new_pos)
    state.vel.put(nbr.slots, vel)
    return new_pos, cells


def _resolve_wall_penetration(geometry: Geometry, old_pos, new_pos, vel):
    """Project bodies that stepped into blocked cells (or tunnelled through
    one) back into their previous cell.  Returns the positions, velocities,
    number projected and, if that is 0, the (n, 2) cells of the positions."""
    cs = geometry.cell_size
    h, w = geometry.blocked_mask.shape

    def blocked_at(cells):
        try:
            return geometry.blocked_mask.take(np.ravel_multi_index((cells[:, 1], cells[:, 0]), (h, w)))
        except ValueError:                                    # some cell off the grid
            inside = ((cells >= 0) & (cells < (w, h))).all(axis=1)
            return ~inside | geometry.blocked_mask.take(np.where(inside, cells[:, 1] * w + cells[:, 0], 0))

    cells = (new_pos / cs).astype(np.int64)
    bad = blocked_at(cells)
    # catch tunnelling through a thin wall, possible only when some body covers at least
    # a cell's width in a step; a step is below 1.5 x its largest component
    step = new_pos - old_pos
    if np.abs(step).max(initial=0.0) * 1.5 >= cs / 2 and (step[:, 0] ** 2 + step[:, 1] ** 2).max() >= (cs / 2) ** 2:
        bad |= blocked_at((0.5 * (old_pos + new_pos) / cs).astype(np.int64))

    n_bad = int(bad.sum())
    if n_bad == 0:
        return new_pos, vel, 0, cells

    rows = np.nonzero(bad)[0]
    old_cell = np.floor(old_pos[rows] / cs)
    proj = np.clip(new_pos[rows], old_cell * cs + 1e-6, (old_cell + 1) * cs - 1e-6)
    push = proj - new_pos[rows]
    push_len = np.linalg.norm(push, axis=1)[:, None]
    normal = np.divide(push, push_len, out=np.zeros_like(push), where=push_len > 1e-12)
    v = vel[rows]
    v += normal * np.maximum((v * -normal).sum(axis=1), 0.0)[:, None]
    new_pos, vel = new_pos.copy(), vel.copy()
    new_pos[rows], vel[rows] = proj, v
    return new_pos, vel, n_bad, None


# ---------------------------------------------------------------------------
# arch / clog detection
# ---------------------------------------------------------------------------


def arch_band_count(positions: np.ndarray, door_center: np.ndarray, upstream_normal: np.ndarray, params: dict) -> int:
    """Bodies inside the semicircular band upstream of a door."""
    inner, outer = float(params["clog_band_inner"]), float(params["clog_band_outer"])
    if len(positions) == 0:
        return 0
    diff = positions - np.asarray(door_center)
    dist = np.linalg.norm(diff, axis=1)
    side = diff @ np.asarray(upstream_normal)
    return int(((dist >= inner) & (dist <= outer) & (side > 0)).sum())


def detect_arch(positions: np.ndarray, door_center: np.ndarray, upstream_normal: np.ndarray, flow_rate: float,
                params: dict) -> tuple[bool, int]:
    """Clog test for one door: stalled flow plus a packed upstream band.

    ``flow_rate`` is the door's measured crossings per second over the
    trailing window; returns (clogged?, band occupancy).
    """
    count = arch_band_count(positions, door_center, upstream_normal, params)
    clogged = flow_rate < float(params["clog_flow"]) and count >= int(params["clog_min_bodies"])
    return clogged, count
