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
per run: for each grid cell, the exposed wall cells within the cutoff of
it.  A step clips each body against its own cell's few candidates, not
against every wall cell.

Integration is semi-implicit Euler with a speed clamp and a positional
backstop that keeps body centres out of wall cells even when contact
forces spike.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PARAM_DEFAULTS
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

def _scatter_add(out: np.ndarray, idx: np.ndarray, vec: np.ndarray) -> None:
    """out[idx] += vec with repeated indices accumulated (bincount form)."""
    n = len(out)
    out[:, 0] += np.bincount(idx, weights=vec[:, 0], minlength=n)
    out[:, 1] += np.bincount(idx, weights=vec[:, 1], minlength=n)


@dataclass
class SfState:
    """Positions, velocities and body parameters, indexed by agent id.

    Which bodies are in the building is not recorded here: ``sf_step``
    takes their ids per step, and the rows of everyone else stay put.
    """

    pos: np.ndarray                        # (N, 2) m
    vel: np.ndarray                        # (N, 2) m/s
    radius: np.ndarray                     # (N,)
    mass: np.ndarray                       # (N,)
    tick: int = 0
    projected: int = 0                     # bodies projected out of walls, over all ticks
    projection_ticks: list[int] = field(default_factory=list)  # the first PROJECTION_EXAMPLES of them

    # cached neighbour list: pairs found within cutoff + NEIGHBOR_SKIN of
    # the reference positions stay a superset of the true within-cutoff
    # pairs until some body drifts NEIGHBOR_SKIN/2 from its reference
    _nbr_rows: np.ndarray | None = field(default=None, repr=False)
    _nbr_ref: np.ndarray | None = field(default=None, repr=False)
    _nbr_pairs: tuple | None = field(default=None, repr=False)

    @classmethod
    def from_bodies(cls, pos: np.ndarray, radius: np.ndarray, params: dict | None = None) -> "SfState":
        """State over the population's own ``pos`` array, which sf_step
        then moves in place; a zero radius takes the smallest body size."""
        p = params or PARAM_DEFAULTS
        n = len(pos)
        return cls(
            pos=pos,
            vel=np.zeros((n, 2)),
            radius=np.where(radius > 0, radius, float(p["sf_radius_lo"])),
            mass=np.full(n, float(p["sf_mass"])),
        )

    @property
    def warnings(self) -> list[str]:
        """The one summary line of the wall projections so far, if any."""
        if not self.projected:
            return []
        ticks = ", ".join(map(str, self.projection_ticks))
        return [f"projected {self.projected} bodies out of walls, first on ticks {ticks}"]


@dataclass(frozen=True)
class WallTable:
    """Per grid cell, the exposed wall cells whose box lies within the
    cutoff of that cell's box, by ascending wall index.

    On a grid W cells wide, cell (x, y)'s candidates are the first
    ``count[y * W + x]`` entries of ``rows[y * W + x]``; the rest is
    padding with the index M of the sentinel column of ``lo``, whose box
    lies at +inf.
    """

    lo: np.ndarray           # (2, M + 1) m, x and y of each wall box's low corner
    rows: np.ndarray         # (H * W, K) int32 wall indices
    count: np.ndarray        # (H * W,) candidates per cell
    cutoff: float


def exposed_wall_cells(geometry: Geometry) -> np.ndarray:
    """Blocked cells with at least one open 8-neighbour, as (M, 2) coords.

    Interior wall cells buried behind the surface never face an agent,
    so only the exposed shell enters the force computation.
    """
    blocked = geometry.blocked_mask
    open_m = geometry.open_mask
    near_open = np.zeros_like(open_m)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            src = open_m[
                max(0, dy): open_m.shape[0] + min(0, dy),
                max(0, dx): open_m.shape[1] + min(0, dx),
            ]
            near_open[
                max(0, -dy): open_m.shape[0] + min(0, -dy),
                max(0, -dx): open_m.shape[1] + min(0, -dx),
            ] |= src
    ys, xs = np.nonzero(blocked & near_open)
    return np.stack([xs, ys], axis=1).astype(np.int64)


def driving_force(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    desired_speed: np.ndarray,
    waypoint: np.ndarray,
    params: dict,
) -> np.ndarray:
    """m (v_des e - v) / tau toward each body's waypoint.

    Rows with a NaN waypoint (nothing to head for) relax to rest.
    """
    tau = float(params["sf_tau"])
    heading = waypoint - pos
    has_goal = np.isfinite(heading).all(axis=1)
    # a NaN heading stays NaN through the unit vector, and the where drops it
    norm = np.sqrt(heading[:, 0] * heading[:, 0] + heading[:, 1] * heading[:, 1])
    e = np.where(has_goal[:, None], heading / np.maximum(norm, 1e-12)[:, None], 0.0)
    v_target = desired_speed[:, None] * e
    return mass[:, None] * (v_target - vel) / tau


def pair_forces(
    pos: np.ndarray,
    radius: np.ndarray,
    params: dict,
    pairs: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, tuple]:
    """Body-body psychological repulsion plus normal compression.

    ``pairs`` are candidate rows ``(i, j)``, ascending, for example from
    ``SpatialHash.query_pairs``; those beyond the cutoff exert nothing.
    Returns the per-body force array and the touching-contact list
    ``(i, j, tangent, overlap)`` consumed by the sliding-friction pass.
    Accumulation order is fixed (pairs ascending), keeping float sums
    bit-stable for any worker count.
    """
    a = float(params["sf_a"])
    b = float(params["sf_b"])
    k = float(params["sf_k"])
    cutoff = float(params["sf_cutoff"])

    n = len(pos)
    i, j = pairs
    # a row take is ~11x faster than pos[i] (5 vs 55 us on 2868 rows,
    # numpy 2.4), so every (n, 2) row gather of a step is a take
    dx, dy = (pos.take(i, axis=0) - pos.take(j, axis=0)).T
    d2 = dx * dx + dy * dy
    near = d2 <= cutoff * cutoff
    dist = np.sqrt(d2)
    degenerate = dist < 1e-9
    dist = np.maximum(dist, 1e-9)
    nx = np.where(degenerate, 1.0, dx / dist)
    ny = np.where(degenerate, 0.0, dy / dist)
    gap = radius.take(i) + radius.take(j) - dist

    social = a * np.exp(gap / b)
    overlap = np.maximum(gap, 0.0)

    # far pairs are masked, not dropped: a bin starts at +0.0, so their
    # +-0.0 terms leave every partial sum as it was
    f = np.where(near, social + k * overlap, 0.0)
    fx, fy = f * nx, f * ny
    force = np.empty((n, 2))
    force[:, 0] = np.bincount(i, fx, n) + np.bincount(j, -fx, n)
    force[:, 1] = np.bincount(i, fy, n) + np.bincount(j, -fy, n)

    touch = np.nonzero((overlap > 0.0) & near)[0]
    tangent = np.stack([-ny.take(touch), nx.take(touch)], axis=1)
    return force, (i.take(touch), j.take(touch), tangent, overlap.take(touch))


def wall_table(wall_cells: np.ndarray, geometry: Geometry, cutoff: float) -> WallTable:
    """Candidate table of the (M, 2) ``wall_cells`` on ``geometry``'s grid,
    built over a wall-cell x offset stencil in O(M x stencil)."""
    h, w = geometry.height, geometry.width
    cell_size = geometry.cell_size
    m = len(wall_cells)
    span = np.arange(-int(cutoff / cell_size) - 2, int(cutoff / cell_size) + 3)
    dx, dy = (d.ravel() for d in np.meshgrid(span, span))
    # box-to-box gap, with slack so rounding can only add candidates
    gap = np.hypot(np.maximum(np.abs(dx) - 1, 0), np.maximum(np.abs(dy) - 1, 0)) * cell_size
    near = gap <= cutoff + 1e-6
    cx = wall_cells[:, :1] + dx[near]                      # (M, stencil)
    cy = wall_cells[:, 1:] + dy[near]
    inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
    cell = (cy * w + cx)[inside]
    wall = np.broadcast_to(np.arange(m)[:, None], cx.shape)[inside]
    order = np.argsort(cell, kind="stable")                # keeps wall ids ascending per cell
    cell, wall = cell[order], wall[order]
    count = np.bincount(cell, minlength=h * w)
    rows = np.full((h * w, max(int(count.max(initial=0)), 1)), m, dtype=np.int32)
    rows[cell, np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)] = wall
    lo = np.hstack([np.asarray(wall_cells, dtype=np.float64).T * cell_size, [[np.inf], [np.inf]]])
    return WallTable(lo=lo, rows=rows, count=count, cutoff=cutoff)


def wall_forces(
    pos: np.ndarray,
    radius: np.ndarray,
    walls: WallTable,
    geometry: Geometry,
    params: dict,
) -> tuple[np.ndarray, tuple]:
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
    cells = geometry.cells_of(pos)
    flat = cells[:, 1] * geometry.width + cells[:, 0]
    count = walls.count.take(flat)
    body = np.nonzero(count)[0]                               # bodies with a candidate
    if len(body) == 0:
        return force, (np.zeros(0, np.int64), np.zeros((0, 2)), np.zeros(0))
    a = float(params["sf_a"])
    b = float(params["sf_b"])
    k = float(params["sf_k"])

    cand = walls.rows[:, : count.max()].take(flat.take(body), axis=0)  # (n', K)
    body_pos = pos.take(body, axis=0)
    px = body_pos[:, :1]
    py = body_pos[:, 1:]
    lo_x = walls.lo[0].take(cand)
    lo_y = walls.lo[1].take(cand)
    dx = px - np.minimum(np.maximum(px, lo_x), lo_x + cs)    # offset from the nearest box point
    dy = py - np.minimum(np.maximum(py, lo_y), lo_y + cs)
    d2 = dx ** 2 + dy ** 2
    col = np.argmin(d2, axis=1)                               # nearest cell per body
    at = np.arange(len(body)) * d2.shape[1] + col             # its flat index in d2
    best_d2 = d2.take(at)
    rel = np.nonzero(best_d2 < cutoff * cutoff)[0]
    dist = np.maximum(np.sqrt(best_d2.take(rel)), 1e-9)
    at = at.take(rel)
    nx = dx.take(at) / dist
    ny = dy.take(at) / dist
    rows = body.take(rel)
    gap = radius.take(rows) - dist
    overlap = np.maximum(gap, 0.0)
    magnitude = a * np.exp(gap / b) + k * overlap
    force[rows, 0] = magnitude * nx
    force[rows, 1] = magnitude * ny

    touch = np.nonzero(overlap > 0.0)[0]
    tangent = np.stack([-ny.take(touch), nx.take(touch)], axis=1)
    return force, (rows.take(touch), tangent, overlap.take(touch))


def apply_contact_friction(
    vel: np.ndarray,
    mass: np.ndarray,
    pair_contacts: tuple,
    wall_contacts: tuple,
    dt: float,
    params: dict,
) -> np.ndarray:
    """Damp tangential sliding at touching contacts, in place.

    Viscous sliding friction (rate = kappa x overlap) is far stiffer
    than the step size whenever bodies are pressed together, so adding
    it to the force sum overshoots and pumps energy instead of
    dissipating it.  Instead each contact damps its relative tangential
    velocity by the implicit factor for its rate, split 1/n over the
    bodies' touching contacts, and the pass is swept a fixed number of
    times so heavily-wedged bodies still reach near-full damping.
    Impulses are equal and opposite, so momentum is conserved.
    """
    kappa = float(params["sf_kappa"])
    i, j, tan_p, gap_p = pair_contacts
    rows, tan_w, gap_w = wall_contacts
    if len(i) == 0 and len(rows) == 0:
        return vel

    n = len(vel)
    counts = (
        np.bincount(i, minlength=n)
        + np.bincount(j, minlength=n)
        + np.bincount(rows, minlength=n)
    )

    if len(i):
        m_i, m_j = mass.take(i), mass.take(j)
        m_red = 1.0 / (1.0 / m_i + 1.0 / m_j)
        damp = 1.0 - 1.0 / (1.0 + kappa * gap_p * dt / m_red)
        share = np.maximum(np.maximum(counts.take(i), counts.take(j)), 1)
        gain_p = m_red * damp / share
    if len(rows):
        m_w = mass.take(rows)
        damp_w = 1.0 - 1.0 / (1.0 + kappa * gap_w * dt / m_w)
        gain_w = m_w * damp_w / np.maximum(counts[rows], 1)

    for _ in range(FRICTION_SWEEPS):
        delta = np.zeros_like(vel)
        if len(i):
            dv_t = ((vel.take(j, axis=0) - vel.take(i, axis=0)) * tan_p).sum(axis=1)
            impulse = gain_p * dv_t
            _scatter_add(delta, i, (impulse / m_i)[:, None] * tan_p)
            _scatter_add(delta, j, -(impulse / m_j)[:, None] * tan_p)
        if len(rows):
            v_t = (vel.take(rows, axis=0) * tan_w).sum(axis=1)
            _scatter_add(delta, rows, -(gain_w * v_t / m_w)[:, None] * tan_w)
        vel += delta
    return vel


def _neighbor_list(state: SfState, idx: np.ndarray, pos: np.ndarray, cutoff: float) -> tuple:
    """Candidate pair list over the present rows, reused across steps.

    Enumerated at cutoff + NEIGHBOR_SKIN and kept until a body drifts
    half the skin from its reference position (or the present set
    changes), which guarantees the list still contains every pair
    truly within the cutoff.
    """
    fresh = (
        state._nbr_rows is not None
        and len(state._nbr_rows) == len(idx)
        and np.array_equal(state._nbr_rows, idx)
    )
    if fresh:
        drift = pos - state._nbr_ref
        fresh = (drift[:, 0] ** 2 + drift[:, 1] ** 2).max() < (NEIGHBOR_SKIN / 2) ** 2
    if not fresh:
        reach = cutoff + NEIGHBOR_SKIN
        state._nbr_pairs = SpatialHash(pos, reach).query_pairs(reach)
        state._nbr_rows = idx.copy()
        state._nbr_ref = pos.copy()
    return state._nbr_pairs


def sf_step(
    state: SfState,
    geometry: Geometry,
    walls: WallTable,
    present: np.ndarray,
    desired_speed: np.ndarray,
    waypoint: np.ndarray,
    dt: float,
    params: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One semi-implicit Euler step over the bodies ``present`` (ascending
    ids of the people in the building).  Returns their (n, 2) new
    positions and the (n, 2) cells holding them.

    Velocity updates first and is clamped to slack x the global speed
    cap (contact impulses may briefly exceed walking speeds); the
    position update follows.  Bodies whose centre would land in a wall
    cell (or off the grid) are projected back into the cell they came
    from, with the into-wall velocity component removed.
    """
    p = params or PARAM_DEFAULTS
    if not 0 < dt <= MAX_DT:
        raise SimulationError(f"integration step {dt} outside (0, {MAX_DT}]")

    if len(present) == 0:
        state.tick += 1
        return np.zeros((0, 2)), np.zeros((0, 2), dtype=np.int64)

    pos = state.pos.take(present, axis=0)
    vel = state.vel.take(present, axis=0)
    mass = state.mass.take(present)
    radius = state.radius.take(present)
    pairs = _neighbor_list(state, present, pos, float(p["sf_cutoff"]))

    total = driving_force(pos, vel, mass, desired_speed.take(present), waypoint.take(present, axis=0), p)
    pair, pair_contacts = pair_forces(pos, radius, p, pairs=pairs)
    wall, wall_contacts = wall_forces(pos, radius, walls, geometry, p)
    force = total + pair + wall

    vel = vel + force / mass[:, None] * dt
    vel = apply_contact_friction(vel, mass, pair_contacts, wall_contacts, dt, p)
    v_cap = float(p["sf_speed_slack"]) * float(p["speed_cap"])
    speed = np.sqrt(vel[:, 0] * vel[:, 0] + vel[:, 1] * vel[:, 1])
    too_fast = speed > v_cap
    if too_fast.any():
        vel[too_fast] *= (v_cap / speed[too_fast])[:, None]

    new_pos = pos + vel * dt
    new_pos, vel, n_projected = _resolve_wall_penetration(geometry, pos, new_pos, vel)
    if n_projected:
        state.projected += n_projected
        if len(state.projection_ticks) < PROJECTION_EXAMPLES:
            state.projection_ticks.append(state.tick)

    cells = geometry.cells_of(new_pos)
    in_wall = geometry.blocked_mask[cells[:, 1], cells[:, 0]]
    if in_wall.any():
        raise SimulationError(f"tick {state.tick}: agents {present[in_wall].tolist()} ended the step inside a wall")

    state.pos[present] = new_pos
    state.vel[present] = vel
    state.tick += 1
    return new_pos, cells


def _resolve_wall_penetration(geometry: Geometry, old_pos, new_pos, vel):
    """Project bodies that stepped into blocked cells (or tunnelled
    through one) back into their previous cell."""
    cs = geometry.cell_size
    h, w = geometry.blocked_mask.shape

    def blocked_at(points):
        cx = (points[:, 0] / cs).astype(np.int64)
        cy = (points[:, 1] / cs).astype(np.int64)
        inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        return ~inside | geometry.blocked_mask.take(np.where(inside, cy * w + cx, 0))

    bad = blocked_at(new_pos)
    # catch tunnelling through a thin wall, possible only when some body
    # covers at least a cell's width in a single step
    step = new_pos - old_pos
    if (step[:, 0] ** 2 + step[:, 1] ** 2).max(initial=0.0) >= (cs / 2) ** 2:
        midpoint = 0.5 * (old_pos + new_pos)
        bad |= blocked_at(midpoint)

    n_bad = int(bad.sum())
    if n_bad == 0:
        return new_pos, vel, 0

    rows = np.nonzero(bad)[0]
    eps = 1e-6
    old_cx = np.floor(old_pos[rows, 0] / cs)
    old_cy = np.floor(old_pos[rows, 1] / cs)
    lo_x = old_cx * cs + eps
    hi_x = (old_cx + 1) * cs - eps
    lo_y = old_cy * cs + eps
    hi_y = (old_cy + 1) * cs - eps
    proj = new_pos[rows].copy()
    proj[:, 0] = np.clip(proj[:, 0], lo_x, hi_x)
    proj[:, 1] = np.clip(proj[:, 1], lo_y, hi_y)

    push = proj - new_pos[rows]
    push_len = np.linalg.norm(push, axis=1)
    nonzero = push_len > 1e-12
    normal = np.zeros_like(push)
    normal[nonzero] = push[nonzero] / push_len[nonzero][:, None]
    v = vel[rows]
    into_wall = (v * -normal).sum(axis=1)
    v += normal * np.maximum(into_wall, 0.0)[:, None]

    new_pos = new_pos.copy()
    vel = vel.copy()
    new_pos[rows] = proj
    vel[rows] = v
    return new_pos, vel, n_bad


# ---------------------------------------------------------------------------
# arch / clog detection
# ---------------------------------------------------------------------------


def arch_band_count(
    positions: np.ndarray,
    door_center: tuple[float, float],
    upstream_normal: tuple[float, float],
    params: dict,
) -> int:
    """Bodies inside the semicircular band upstream of a door."""
    inner = float(params["clog_band_inner"])
    outer = float(params["clog_band_outer"])
    if len(positions) == 0:
        return 0
    diff = positions - np.asarray(door_center)
    dist = np.linalg.norm(diff, axis=1)
    side = diff @ np.asarray(upstream_normal)
    return int(((dist >= inner) & (dist <= outer) & (side > 0)).sum())


def detect_arch(
    positions: np.ndarray,
    door_center: tuple[float, float],
    upstream_normal: tuple[float, float],
    flow_rate: float,
    params: dict | None = None,
) -> tuple[bool, int]:
    """Clog test for one door: stalled flow plus a packed upstream band.

    ``flow_rate`` is the door's measured crossings per second over the
    trailing window; returns (clogged?, band occupancy).
    """
    p = params or PARAM_DEFAULTS
    count = arch_band_count(positions, door_center, upstream_normal, p)
    clogged = flow_rate < float(p["clog_flow"]) and count >= int(p["clog_min_bodies"])
    return clogged, count
