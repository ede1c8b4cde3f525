"""Agent state, perception and decision making.

The whole population lives in one :class:`Population`: parallel arrays
indexed by agent id, holding each agent's physical state (position,
body radius, health, mobility, sight range), its behavioural profile
(speed preference, reaction time, collaboration, insistence,
knowledge, experience, nervousness, gender, age, role) and its current
status and target exit.  The simulation loop, the movement backends
and the state digest all read and write these arrays; nothing keeps a
second copy.

Each decision round an agent perceives its surroundings (limited by
sight range and walls), scores candidate exits, and emits an
:class:`Intention`: target exit, desired speed, and any messages to
announce.  The decision functions take the population and the agent's
row and update its nervousness, insistence and target in place.  How
the body gets to the target exit (a social-force waypoint, a lattice
step down the exit's distance field, a queue on the route network) is
the movement backend's business, not the decision layer's.

Nothing in a percept reaches beyond the agent's sight range plus its
own belief store, so decisions stay local by construction.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .config import PARAM_DEFAULTS
from .errors import SemanticViolation, SimulationError
from .hazard import HazardSample, visibility_range_bulk
from .scenario import FLOAT01, CellKind, DistSpec, Geometry, PopulationSpec, los_pairs
from .spatialhash import SpatialHash


class AgentStatus(IntEnum):
    PREMOVEMENT = 0
    MOVING = 1
    EXITED = 2
    DEAD = 3


STATUS_TOKENS = {
    AgentStatus.PREMOVEMENT: "premovement",
    AgentStatus.MOVING: "moving",
    AgentStatus.EXITED: "exited",
    AgentStatus.DEAD: "dead",
}

NO_TARGET = -1


@dataclass
class Population:
    """Every agent's state, one array row per agent id."""

    pos: np.ndarray            # (N, 2) m
    radius: np.ndarray         # m, body radius (social-force backend only)
    health: np.ndarray         # [0, 1]; 0 means dead
    mobility: np.ndarray       # 0 immobile, 1 walking, 2 panic run
    speed_pref: np.ndarray     # m/s at mobility 1
    vision: np.ndarray         # m, refreshed from local smoke each tick
    reaction_time: np.ndarray  # s of pre-movement delay after the alarm
    collaboration: np.ndarray  # [0, 1]
    insistence: np.ndarray     # [0, 1], probability of keeping the current plan
    knowledge: np.ndarray      # [0, 1], building familiarity
    experience: np.ndarray     # [0, 1]
    nervousness: np.ndarray    # [0, 1]
    gender: np.ndarray         # "F" | "M"
    age: np.ndarray
    role: np.ndarray           # 0 none, 1 top leader, 2 second level, ...
    status: np.ndarray         # AgentStatus codes
    target: np.ndarray         # current goal exit zone id, or NO_TARGET

    def __len__(self) -> int:
        return len(self.pos)


# ---------------------------------------------------------------------------
# attribute sampling
# ---------------------------------------------------------------------------

INT_ATTRS = ("mobility", "age", "role")


def _sample_attr(attr: str, spec: DistSpec, count: int, rng: np.random.Generator):
    if spec.kind == "constant":
        if attr == "gender":
            return [spec.value] * count
        if attr in INT_ATTRS:
            return np.full(count, int(spec.value), dtype=np.int64)
        return np.full(count, float(spec.value))
    if spec.kind == "uniform":
        if attr in INT_ATTRS:
            return rng.integers(int(spec.lo), int(spec.hi) + 1, size=count)
        return rng.uniform(float(spec.lo), float(spec.hi), size=count)
    weights = spec.weights
    if weights is None:
        p = None
    else:
        total = float(sum(weights))
        p = np.asarray(weights, dtype=np.float64) / total
    idx = rng.choice(len(spec.values), size=count, p=p)
    values = [spec.values[i] for i in idx]
    if attr == "gender":
        return values
    if attr in INT_ATTRS:
        return np.array([int(v) for v in values], dtype=np.int64)
    return np.array([float(v) for v in values])


def effective_speed(health: np.ndarray, mobility: np.ndarray, speed_pref: np.ndarray, params: dict) -> np.ndarray:
    """Walking speed after health and mobility: health times the mobility
    base (0, speed_pref, or the panic speed), clamped to the global cap."""
    base = np.where(mobility == 1, speed_pref, np.where(mobility == 2, float(params["v_panic"]), 0.0))
    return np.clip(health * base, 0.0, float(params["speed_cap"]))


def spawn_population(
    spec: PopulationSpec,
    geometry: Geometry,
    streams,
    params: dict | None = None,
    backend: str = "ca",
    room_labels: np.ndarray | None = None,
) -> Population:
    """Create the initial population: attributes from the per-attribute
    distributions, positions packed without overlap inside the spawn
    region.  Fully reproducible from the seed streams.

    Sampled values of the fractional attributes (health, collaboration,
    insistence, knowledge, experience, nervousness) are clamped to
    [0, 1]; non-finite or boolean values of them are rejected.  Every
    other attribute is still rejected when its support is out of range,
    and unknown attributes are a schema violation.
    """
    p = params or PARAM_DEFAULTS
    count = spec.count
    merged = spec.attribute_specs(p)

    rng_attrs = streams.spawn_attrs
    sampled: dict[str, object] = {}
    for attr in sorted(merged):
        if attr == "reaction_time":
            continue  # handled after experience/role are known
        values = _sample_attr(attr, merged[attr], count, rng_attrs)
        sampled[attr] = np.clip(values, 0.0, 1.0) if attr in FLOAT01 else values

    speed_pref = np.asarray(sampled["speed_pref"], dtype=np.float64).copy()
    ages = np.asarray(sampled["age"])
    speed_pref[ages >= int(p["age_slow_at"])] *= float(p["age_slow_factor"])

    rng_rt = streams.reaction
    if "reaction_time" in spec.attributes:
        reaction = np.asarray(_sample_attr("reaction_time", merged["reaction_time"], count, rng_rt), dtype=np.float64)
    else:
        draws = rng_rt.lognormal(mean=math.log(float(p["rt_median"])), sigma=float(p["rt_sigma"]), size=count)
        factor = np.where(np.asarray(sampled["role"]) == 1, float(p["rt_leader_factor"]), 1.0)
        rt = draws * (1.0 - 0.5 * np.asarray(sampled["experience"])) * factor
        reaction = np.clip(rt, float(p["rt_min"]), float(p["rt_max"]))

    cells = _spawn_cells(spec, geometry, room_labels)
    if backend == "sf":
        radii = streams.bodies.uniform(float(p["sf_radius_lo"]), float(p["sf_radius_hi"]), size=count)
        positions = _continuous_positions(cells, radii, geometry, streams.spawn_pos)
    else:
        radii = np.zeros(count)
        if count > len(cells):
            raise SimulationError(
                f"spawn region has {len(cells)} free cells for {count} agents"
            )
        picks = streams.spawn_pos.choice(len(cells), size=count, replace=False) if count else []
        positions = [geometry.cell_center(*cells[int(k)]) for k in picks]

    vision0 = visibility_range_bulk(np.zeros(count), sampled["health"], p)

    return Population(
        pos=np.array(positions, dtype=np.float64).reshape(count, 2),
        radius=radii,
        health=sampled["health"],
        mobility=np.asarray(sampled["mobility"], dtype=np.int64),
        speed_pref=speed_pref,
        vision=vision0,
        reaction_time=reaction,
        collaboration=sampled["collaboration"],
        insistence=sampled["insistence"],
        knowledge=sampled["knowledge"],
        experience=sampled["experience"],
        nervousness=sampled["nervousness"],
        gender=np.asarray(sampled["gender"], dtype=str),
        age=np.asarray(sampled["age"], dtype=np.int64),
        role=np.asarray(sampled["role"], dtype=np.int64),
        status=np.full(count, int(AgentStatus.PREMOVEMENT), dtype=np.uint8),
        target=np.full(count, NO_TARGET, dtype=np.int32),
    )


def _spawn_cells(spec: PopulationSpec, geometry: Geometry, room_labels: np.ndarray | None) -> list[tuple[int, int]]:
    empty = geometry.kinds == CellKind.EMPTY
    if spec.spawn_rect is not None:
        x0, y0, x1, y1 = spec.spawn_rect
        cells = [
            (x, y)
            for y in range(y0, y1 + 1)
            for x in range(x0, x1 + 1)
            if empty[y, x]
        ]
    elif spec.spawn_node is not None:
        if room_labels is None:
            raise SimulationError("spawn-by-node requires a derived network")
        ys, xs = np.nonzero(room_labels == spec.spawn_node)
        cells = sorted(zip(xs.tolist(), ys.tolist()), key=lambda c: (c[1], c[0]))
        if not cells:
            raise SemanticViolation("population.spawn.node", f"node {spec.spawn_node} has no cells")
    else:
        ys, xs = np.nonzero(empty)
        cells = sorted(zip(xs.tolist(), ys.tolist()), key=lambda c: (c[1], c[0]))
    if not cells and spec.count > 0:
        raise SimulationError("spawn region contains no free cells")
    return cells


def _continuous_positions(
    cells: list[tuple[int, int]],
    radii: np.ndarray,
    geometry: Geometry,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Rejection-sample non-overlapping body centres inside the spawn cells."""
    count = len(radii)
    if count == 0:
        return []
    cs = geometry.cell_size
    cell_set = set(cells)
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    x_lo, x_hi = min(xs) * cs, (max(xs) + 1) * cs
    y_lo, y_hi = min(ys) * cs, (max(ys) + 1) * cs
    blocked = geometry.blocked_mask
    placed: list[tuple[float, float]] = []
    placed_r: list[float] = []
    max_attempts = 2000 * count + 2000
    attempts = 0
    for i in range(count):
        r = float(radii[i])
        while True:
            attempts += 1
            if attempts > max_attempts:
                raise SimulationError(
                    f"could not place {count} bodies in the spawn region ({i} placed)"
                )
            px = rng.uniform(x_lo, x_hi)
            py = rng.uniform(y_lo, y_hi)
            cell = (int(px / cs), int(py / cs))
            if cell not in cell_set:
                continue
            if _touches_blocked(px, py, r, blocked, cs):
                continue
            ok = True
            for (qx, qy), qr in zip(placed, placed_r):
                if (px - qx) ** 2 + (py - qy) ** 2 < (r + qr) ** 2:
                    ok = False
                    break
            if ok:
                placed.append((px, py))
                placed_r.append(r)
                break
    return placed


def _touches_blocked(px: float, py: float, r: float, blocked: np.ndarray, cs: float) -> bool:
    h, w = blocked.shape
    x0 = max(0, int((px - r) / cs))
    x1 = min(w - 1, int((px + r) / cs))
    y0 = max(0, int((py - r) / cs))
    y1 = min(h - 1, int((py + r) / cs))
    for cy in range(y0, y1 + 1):
        for cx in range(x0, x1 + 1):
            if not blocked[cy, cx]:
                continue
            nx = min(max(px, cx * cs), (cx + 1) * cs)
            ny = min(max(py, cy * cs), (cy + 1) * cs)
            if (px - nx) ** 2 + (py - ny) ** 2 < r * r:
                return True
    return False


# ---------------------------------------------------------------------------
# beliefs
# ---------------------------------------------------------------------------


@dataclass
class BeliefStore:
    """What one agent holds to be true about the building."""

    known: dict[int, bool] = field(default_factory=dict)      # exit id -> familiar at spawn
    blocked: dict[int, float] = field(default_factory=dict)   # exit id -> time observed/heard
    progress: deque = field(default_factory=deque)            # (t, x, y) samples
    next_progress_check: float | None = None
    lost: bool = False

    def learn_exit(self, exit_id: int) -> None:
        self.known.setdefault(exit_id, False)

    def block_exit(self, exit_id: int, t: float) -> None:
        self.blocked.setdefault(exit_id, t)
        self.learn_exit(exit_id)

    def apply_message(self, message: tuple) -> None:
        kind = message[0]
        if kind == "exit_blocked":
            self.block_exit(int(message[1]), float(message[2]))

    def record_position(self, t: float, pos: tuple[float, float], window: float) -> None:
        self.progress.append((t, pos[0], pos[1]))
        horizon = t - window
        while self.progress and self.progress[0][0] < horizon - 1e-9:
            self.progress.popleft()


def init_beliefs(knowledge: np.ndarray, n_exits: int, rng: np.random.Generator) -> list[BeliefStore]:
    """Seed each agent's known exits: every exit is familiar independently
    with probability equal to the agent's building knowledge."""
    familiar = rng.random((len(knowledge), n_exits)) < knowledge[:, None]
    return [BeliefStore(known={z: True for z, hit in enumerate(row) if hit}) for row in familiar.tolist()]


# ---------------------------------------------------------------------------
# perception
# ---------------------------------------------------------------------------


@dataclass
class ExitSight:
    exit_id: int
    distance: float       # m, walking distance to the exit
    congestion: float     # persons seen heading there
    hazard: float         # smoke/heat score along the sight line
    od_at_exit: float = 0.0


@dataclass
class WorldView:
    """What the perception/decision layer reads in one round: the
    population plus this tick's hazard exposure and the exit geometry."""

    geometry: Geometry
    params: dict
    t: float
    pop: Population
    local_temp: np.ndarray         # (N,)
    local_od: np.ndarray
    local_tox: np.ndarray
    od_frame: np.ndarray           # (H, W) current optical density
    temp_frame: np.ndarray
    tox_frame: np.ndarray
    exit_fields: list[np.ndarray]  # per exit zone, distances in cells
    zone_centers: np.ndarray       # (E, 2) m
    zone_cells: list[np.ndarray]   # per zone, (K, 2) cell coords
    has_interior_blockers: bool = False
    ambient_air: bool = False      # hazard frames are all-clear this round
    hash: SpatialHash | None = None
    hash_wide: SpatialHash | None = None

    def present(self) -> np.ndarray:
        """Indices of agents physically in the building (not exited/dead)."""
        status = self.pop.status
        return np.nonzero((status == AgentStatus.PREMOVEMENT) | (status == AgentStatus.MOVING))[0]

    def ensure_hash(self) -> SpatialHash:
        if self.hash is None:
            present = self.present()
            self.hash = SpatialHash(self.pop.pos[present], max(float(self.params["sf_cutoff"]), 3.0), ids=present)
        return self.hash

    def ensure_wide_hash(self, radius: float) -> SpatialHash:
        """Hash whose buckets cover ``radius``, so queries at that radius
        never trigger a rebuild.  Cached for the round like ensure_hash."""
        if self.hash_wide is None or self.hash_wide.cell < radius:
            present = self.present()
            self.hash_wide = SpatialHash(self.pop.pos[present], radius, ids=present)
        return self.hash_wide

    def cell_of(self, i: int) -> tuple[int, int]:
        return self.geometry.cell_of((self.pop.pos[i][0], self.pop.pos[i][1]))

    def exit_distance_m(self, i: int, zone_id: int) -> float:
        x, y = self.cell_of(i)
        return float(self.exit_fields[zone_id][y, x]) * self.geometry.cell_size

    def query_visible(self, i: int) -> np.ndarray:
        """Agent indices within sight of agent i (range + line of sight)."""
        h = self.ensure_hash()
        rows = h.query_radius(self.pop.pos[i], float(self.pop.vision[i]))
        ids = h.ids[rows]
        ids = ids[ids != i]
        if len(ids) and self.has_interior_blockers:
            me = np.array(self.cell_of(i), dtype=np.float64)
            cs = self.geometry.cell_size
            theirs = np.floor(self.pop.pos[ids] / cs)
            clear = los_pairs(self.geometry.blocked_mask, np.tile(me, (len(ids), 1)), theirs)
            ids = ids[clear]
        return ids


def _hazard_score_along(world: WorldView, from_cell, to_cell, max_cells: float) -> float:
    """Mean hazard over samples along the sight line, clipped at the
    perceiver's sight range."""
    p = world.params
    fx, fy = from_cell
    tx, ty = to_cell
    dx, dy = tx - fx, ty - fy
    length = math.hypot(dx, dy)
    if length > max_cells > 0:
        scale = max_cells / length
        tx, ty = fx + dx * scale, fy + dy * scale
    n = 8
    xs = np.clip(np.linspace(fx, tx, n).astype(np.int64), 0, world.geometry.width - 1)
    ys = np.clip(np.linspace(fy, ty, n).astype(np.int64), 0, world.geometry.height - 1)
    od = world.od_frame[ys, xs]
    temp = world.temp_frame[ys, xs]
    tox = world.tox_frame[ys, xs]
    heat = np.maximum(0.0, temp - float(p["temp_crit"])) / float(p["temp_scale"])
    return float(np.mean(od + heat + tox))


@dataclass
class Percept:
    """Everything one agent senses this round."""

    t: float
    local_hazard: HazardSample
    speed: float                     # m/s, own walking speed after health and mobility
    visible_exits: list[ExitSight]
    herd_votes: dict[int, float]     # exit id -> leader-weighted count of neighbours heading there
    herd_total: float                # weighted count of all visible neighbours
    congestion_by_exit: dict[int, int]
    follow_distance: dict[int, float]  # exit id -> distance to nearest neighbour heading there
    _world: WorldView | None = None


def _neighbour_stats(world: WorldView, indices: np.ndarray):
    """Per-agent herd votes, totals, congestion counts and follow distances,
    estimated over neighbours within sight (capped at the congestion
    radius).  Returns dense (len(indices), n_zones) arrays."""
    p = world.params
    pop = world.pop
    n_zones = len(world.zone_centers)
    n = len(indices)
    votes = np.zeros((n, n_zones))
    totals = np.zeros(n)
    congestion = np.zeros((n, n_zones), dtype=np.int64)
    follow = np.full((n, n_zones), np.inf)
    if n == 0:
        return votes, totals, congestion, follow

    r_cap = float(p["congestion_radius"])
    h = world.ensure_wide_hash(r_cap)
    if len(h.positions) < 2:
        return votes, totals, congestion, follow
    if len(indices) * 8 < len(h.positions):
        # few observers (e.g. agents that just started moving): query
        # each one's disc instead of enumerating every pair in the crowd
        obs_parts: list[np.ndarray] = []
        seen_parts: list[np.ndarray] = []
        for i in indices:
            rows = h.query_radius(pop.pos[int(i)], r_cap)
            ids = h.ids[rows]
            ids = ids[ids != int(i)]
            if len(ids):
                obs_parts.append(np.full(len(ids), int(i), dtype=np.int64))
                seen_parts.append(ids)
        if not obs_parts:
            return votes, totals, congestion, follow
        obs = np.concatenate(obs_parts)
        seen = np.concatenate(seen_parts)
    else:
        pi, pj = h.query_pairs(r_cap)
        if len(pi) == 0:
            return votes, totals, congestion, follow
        gi = h.ids[pi]
        gj = h.ids[pj]
        # both directions: observer -> observed
        obs = np.concatenate([gi, gj])
        seen = np.concatenate([gj, gi])
    d = np.linalg.norm(pop.pos[obs] - pop.pos[seen], axis=1)
    keep = d <= np.minimum(pop.vision[obs], r_cap)
    obs, seen, d = obs[keep], seen[keep], d[keep]

    # restrict observers to the requested indices
    pos_in = np.full(len(pop), -1, dtype=np.int64)
    pos_in[indices] = np.arange(n)
    keep = pos_in[obs] >= 0
    obs, seen, d = obs[keep], seen[keep], d[keep]

    if len(obs) and world.has_interior_blockers:
        cs = world.geometry.cell_size
        a = np.floor(pop.pos[obs] / cs)
        b = np.floor(pop.pos[seen] / cs)
        clear = los_pairs(world.geometry.blocked_mask, a, b)
        obs, seen, d = obs[clear], seen[clear], d[clear]
    if len(obs) == 0:
        return votes, totals, congestion, follow

    rows = pos_in[obs]
    roles_seen = pop.role[seen]
    rank_obs = np.where(pop.role[obs] > 0, pop.role[obs], np.iinfo(np.int64).max)
    leader = (roles_seen > 0) & (roles_seen < rank_obs)
    weight = np.where(leader, 1.0 + pop.collaboration[obs], 1.0)

    np.add.at(totals, rows, weight)
    tgt = pop.target[seen]
    moving = pop.status[seen] == AgentStatus.MOVING
    has_target = (tgt >= 0) & moving
    np.add.at(votes, (rows[has_target], tgt[has_target]), weight[has_target])
    np.add.at(congestion, (rows[has_target], tgt[has_target]), 1)
    np.minimum.at(follow, (rows[has_target], tgt[has_target]), d[has_target])
    return votes, totals, congestion, follow


def build_percepts(world: WorldView, indices: np.ndarray) -> list[Percept]:
    """Percepts for the given agent indices, sharing one round of
    vectorised visibility, neighbour statistics and walking speeds."""
    p = world.params
    pop = world.pop
    geometry = world.geometry
    cs = geometry.cell_size
    n = len(indices)
    votes, totals, congestion, follow = _neighbour_stats(world, indices)
    speeds = effective_speed(pop.health[indices], pop.mobility[indices], pop.speed_pref[indices], p).tolist()

    pos = pop.pos[indices]
    cells = np.floor(pos / cs).astype(np.int64)
    cells[:, 0] = np.clip(cells[:, 0], 0, geometry.width - 1)
    cells[:, 1] = np.clip(cells[:, 1], 0, geometry.height - 1)

    # visibility of each exit zone: distance to its nearest cell + sight line
    n_zones = len(world.zone_centers)
    sights: list[list[tuple]] = [[] for _ in range(n)]
    for z in range(n_zones):
        zc = world.zone_cells[z]
        centers = (zc + 0.5) * cs
        d2 = ((pos[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        dmin = np.sqrt(d2[np.arange(n), nearest])
        vis = dmin <= pop.vision[indices]
        if vis.any() and world.has_interior_blockers:
            rows = np.nonzero(vis)[0]
            clear = los_pairs(geometry.blocked_mask, cells[rows], zc[nearest[rows]])
            vis[rows] = clear
        for row in np.nonzero(vis)[0]:
            sights[row].append((z, int(nearest[row])))

    percepts = []
    for row in range(n):
        i = int(indices[row])
        visible_exits = []
        for (z, ncell) in sights[row]:
            field_d = world.exit_fields[z][cells[row][1], cells[row][0]]
            if not np.isfinite(field_d):
                continue  # visible through an opening but not walkable from here
            if world.ambient_air:
                hz = 0.0
                od_exit = 0.0
            else:
                zc = world.zone_cells[z][ncell]
                max_cells = pop.vision[i] / cs
                hz = _hazard_score_along(world, (cells[row][0], cells[row][1]), (zc[0], zc[1]), max_cells)
                center_cell = world.zone_cells[z][len(world.zone_cells[z]) // 2]
                od_exit = float(world.od_frame[center_cell[1], center_cell[0]])
            visible_exits.append(
                ExitSight(
                    exit_id=z,
                    distance=float(field_d) * cs,
                    congestion=float(congestion[row, z]),
                    hazard=hz,
                    od_at_exit=od_exit,
                )
            )
        percepts.append(
            Percept(
                t=world.t,
                local_hazard=HazardSample(
                    float(world.local_temp[i]), float(world.local_od[i]), float(world.local_tox[i])
                ),
                speed=speeds[row],
                visible_exits=visible_exits,
                herd_votes={z: float(votes[row, z]) for z in range(n_zones) if votes[row, z] > 0},
                herd_total=float(totals[row]),
                congestion_by_exit={z: int(congestion[row, z]) for z in range(n_zones) if congestion[row, z]},
                follow_distance={z: float(follow[row, z]) for z in range(n_zones) if np.isfinite(follow[row, z])},
                _world=world,
            )
        )
    return percepts


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


@dataclass
class Intention:
    target_exit: int                       # exit zone id, or NO_TARGET when lost
    desired_speed: float                   # m/s, <= speed_cap
    announce: list[tuple] = field(default_factory=list)
    replanned: bool = False


def choose_exit(pop: Population, i: int, percept: Percept, beliefs: BeliefStore, params: dict | None = None) -> int | None:
    """Pick agent ``i``'s best exit by expected cost, blended with the crowd.

    Utility trades off travel time, visible congestion, hazard along the
    way and familiarity; the herding term follows where visible
    neighbours (leaders amplified) are heading, weighted by the agent's
    nervousness.  Ties on score break on utility, then on the smallest
    id.  Returns None when no candidate exit exists.
    """
    p = params or PARAM_DEFAULTS
    candidates: dict[int, ExitSight] = {}
    for sight in percept.visible_exits:
        candidates[sight.exit_id] = sight
    world = percept._world
    if world is not None:
        for z in beliefs.known:
            if z not in candidates:
                d = world.exit_distance_m(i, z)
                if math.isfinite(d):
                    candidates[z] = ExitSight(exit_id=z, distance=d, congestion=0.0, hazard=0.0)
    for z, d_follow in percept.follow_distance.items():
        if z not in candidates:
            candidates[z] = ExitSight(
                exit_id=z,
                distance=d_follow + float(p["follow_penalty"]),
                congestion=float(percept.congestion_by_exit.get(z, 0)),
                hazard=0.0,
            )
    for z in beliefs.blocked:
        candidates.pop(z, None)
    if not candidates:
        return None

    v = max(percept.speed, 0.1)
    n = float(pop.nervousness[i])
    best_z = None
    best_key = (-math.inf, -math.inf)
    for z in sorted(candidates):
        sight = candidates[z]
        utility = (
            -float(p["w_distance"]) * sight.distance / v
            - float(p["w_congestion"]) * sight.congestion
            - float(p["w_hazard"]) * sight.hazard
            + float(p["w_familiar"]) * (1.0 if beliefs.known.get(z) else 0.0)
        )
        herd = percept.herd_votes.get(z, 0.0) / percept.herd_total if percept.herd_total > 0 else 0.0
        score = (1.0 - n) * utility + n * herd
        # a fully nervous agent whose crowd term ties falls back on its own judgement
        key = (score, utility)
        if key > best_key:
            best_key = key
            best_z = z
    return best_z


def update_insistence(pop: Population, i: int, speed: float, beliefs: BeliefStore, dt_window: float, params: dict | None = None) -> None:
    """Decay agent ``i``'s insistence when its displacement over the
    progress window falls short of a fraction of what it could have
    walked at ``speed``."""
    p = params or PARAM_DEFAULTS
    if len(beliefs.progress) < 2:
        return
    t1, x1, y1 = beliefs.progress[-1]
    t0, x0, y0 = beliefs.progress[0]
    if t1 - t0 < dt_window * 0.5:
        return
    displacement = math.hypot(x1 - x0, y1 - y0)
    threshold = float(p["progress_eta"]) * speed * (t1 - t0)
    if displacement < threshold:
        pop.insistence[i] = max(float(p["insistence_floor"]), float(pop.insistence[i]) * float(p["insistence_decay"]))


def inform_neighbors(i: int, messages: list[tuple], world: WorldView, beliefs_all: list[BeliefStore], rng: np.random.Generator) -> list[int]:
    """Deliver agent ``i``'s belief messages to visible neighbours, each
    with probability equal to the sender's collaboration.  One hop per
    tick: receivers do not relay until their own next decision round.
    Returns receiver ids."""
    if not messages:
        return []
    collaboration = float(world.pop.collaboration[i])
    receivers = []
    for j in world.query_visible(i).tolist():
        if rng.random() < collaboration:
            for message in messages:
                beliefs_all[j].apply_message(message)
            receivers.append(j)
    return receivers


def decide(pop: Population, i: int, percept: Percept, beliefs: BeliefStore, rng: np.random.Generator, params: dict | None = None) -> Intention:
    """One decision round for agent ``i``, past its pre-movement delay.

    Marks freshly observed blocked exits (and queues announcements),
    decays insistence when progress stalls, rolls the replan lottery,
    picks an exit if needed, and derives the desired speed.
    Nervousness grows with replans and dense smoke, damped by
    experience; desired speed is effective speed scaled by (1 +
    nervousness), capped globally.  The agent's nervousness,
    insistence and target are updated in ``pop``.
    """
    p = params or PARAM_DEFAULTS
    announce: list[tuple] = []
    grew_nervous = 0.0
    target = int(pop.target[i])

    # blocked-exit discovery
    newly_blocked = False
    for sight in percept.visible_exits:
        if sight.od_at_exit > float(p["od_blocked"]) and sight.exit_id not in beliefs.blocked:
            beliefs.block_exit(sight.exit_id, percept.t)
            announce.append(("exit_blocked", sight.exit_id, percept.t))
            if sight.exit_id == target:
                newly_blocked = True

    # newly seen exits become known (learned, not familiar)
    for sight in percept.visible_exits:
        beliefs.learn_exit(sight.exit_id)

    # progress bookkeeping at the configured window
    window = float(p["progress_window"])
    beliefs.record_position(percept.t, pop.pos[i].tolist(), window)
    if beliefs.next_progress_check is None:
        beliefs.next_progress_check = percept.t + window
    elif percept.t >= beliefs.next_progress_check:
        update_insistence(pop, i, percept.speed, beliefs, window, p)
        beliefs.next_progress_check = percept.t + window

    replanned = False
    need_choice = (
        target == NO_TARGET
        or target in beliefs.blocked
        or newly_blocked
        or beliefs.lost
    )
    if not need_choice and rng.random() < 1.0 - float(pop.insistence[i]):
        need_choice = True

    if need_choice:
        choice = choose_exit(pop, i, percept, beliefs, p)
        if choice is None:
            beliefs.lost = True
            new_target = NO_TARGET
        else:
            beliefs.lost = False
            new_target = choice
        if new_target != target and target != NO_TARGET:
            replanned = True
            grew_nervous += float(p["dn_replan"])
        target = new_target

    if percept.local_hazard.optical_density > float(p["od_nervous"]):
        grew_nervous += float(p["dn_smoke"])

    nervousness = float(pop.nervousness[i])
    if grew_nervous:
        scale = float(p["nervousness_growth"]) * (1.0 - 0.5 * float(pop.experience[i]))
        nervousness = min(1.0, max(0.0, nervousness + grew_nervous * scale))
        pop.nervousness[i] = nervousness

    desired = min(percept.speed * (1.0 + nervousness), float(p["speed_cap"]))
    pop.target[i] = target
    return Intention(target_exit=target, desired_speed=desired, announce=announce, replanned=replanned)
