"""Agent state, perception and decision making, in arrays.

The whole population lives in one :class:`Population`: parallel arrays
indexed by agent id, holding each agent's physical state (position,
body radius, health, mobility, sight range), its behavioural profile
(speed preference, reaction time, collaboration, insistence,
knowledge, experience, nervousness, gender, age, role) and its current
status, target exit (``NO_TARGET`` when it found none) and desired speed
(``Population.desired``).  The two status rules every phase of a tick
asks are its methods: :meth:`Population.inside` (waiting or moving, so
still in the building) and :meth:`Population.walking` (moving on its own
feet).  What the agents believe lives in one :class:`Beliefs` record
beside it: (N, E) flags for the exits each agent knows, knew before the
alarm and holds to be blocked, and a ring of its recent positions for
the progress check.  The run's one :class:`WorldView` holds the time,
the hazard frames and the exit fields.  Nothing keeps a second copy.

A decision round works on the round's decider rows at once.
:func:`build_percepts` senses for all of them together and returns one
:class:`Percepts` record of (n,) and (n, E) arrays: walking speed, local
smoke (read off the view's smoke frame), which exits are in sight,
walking distances and the hazard along every sight line.
:func:`decide` then updates beliefs, insistence, nervousness, targets
and desired speeds for every row, drawing the replan lottery in
ascending id order, and calls :func:`choose_exit` once for the rows that
need an exit; only those rows count the herd off the sight test's
blocks, and only rows that may follow a neighbour to an exit they do
not know find follow distances.  After the round every agent that saw
an exit blocked tells its visible neighbours, all the round's senders
in one call (:func:`inform_neighbors`).  Both ask who sees whom through
one test, :meth:`WorldView.in_sight`.  Sight spans a room, so a cell
hash would skip few people: each block of observers is tested against
everyone in the building, by squared distance and then by sight line.

How the body gets to the target exit (a social-force waypoint, a lattice
step down the exit's distance field, a queue on the route network) is
the movement backend's business, not the decision layer's.

Nothing in a percept reaches beyond the agent's sight range plus its
own beliefs, so decisions stay local by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import SimulationError
from .hazard import heat, visibility_range_bulk
from .scenario import FLOAT01, DistSpec, Geometry, PopulationSpec, los_pairs


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

# plain-int codes: numpy compares a status array against an int in under
# half the time it takes against an IntEnum member
_MOVING = int(AgentStatus.MOVING)


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
    end_t: np.ndarray          # s, exit or death time; NaN while inside
    path_len: np.ndarray       # m walked
    replans: np.ndarray        # times the agent changed an existing target
    target: np.ndarray         # current goal exit zone id, or NO_TARGET
    desired: np.ndarray        # m/s chosen in the last decision round; 0 before the first

    def __len__(self) -> int:
        return len(self.pos)

    def inside(self) -> np.ndarray:
        """Ascending ids of the people in the building, waiting or moving
        (the two lowest status codes)."""
        return np.flatnonzero(self.status <= _MOVING)

    def walking(self) -> np.ndarray:
        """(N,) mask of the people moving on their own feet."""
        return (self.status == _MOVING) & (self.mobility > 0)


# ---------------------------------------------------------------------------
# attribute sampling
# ---------------------------------------------------------------------------

#: each attribute's array type; every attribute not named here is float64
ATTR_DTYPES = {"mobility": np.int64, "age": np.int64, "role": np.int64, "gender": str}


def _sample_attr(attr: str, spec: DistSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of one attribute, in its type from ``ATTR_DTYPES``."""
    dtype = ATTR_DTYPES.get(attr, np.float64)
    if spec.kind == "constant":
        return np.full(count, spec.value, dtype)
    if spec.kind == "uniform":
        if dtype is np.int64:
            return rng.integers(int(spec.lo), int(spec.hi) + 1, size=count)
        return rng.uniform(float(spec.lo), float(spec.hi), size=count)
    weights = spec.weights
    if weights is None:
        p = None
    else:
        total = float(sum(weights))
        p = np.asarray(weights, dtype=np.float64) / total
    idx = rng.choice(len(spec.values), size=count, p=p)
    return np.asarray(spec.values, dtype)[idx]


def effective_speed(health: np.ndarray, mobility: np.ndarray, speed_pref: np.ndarray, params: dict) -> np.ndarray:
    """Walking speed after health and mobility: health times the mobility
    base (0, speed_pref, or the panic speed), clamped to the global cap."""
    base = np.where(mobility == 1, speed_pref, np.where(mobility == 2, float(params["v_panic"]), 0.0))
    return np.clip(health * base, 0.0, float(params["speed_cap"]))


def spawn_population(
    spec: PopulationSpec,
    geometry: Geometry,
    streams,
    params: dict,
    bodies: bool,
) -> Population:
    """Create the initial population: attributes from the per-attribute
    distributions, positions packed without overlap inside the spawn
    region (a cell rectangle, a room of ``Geometry.room_labels``, or every
    empty cell).  Fully reproducible from the seed streams.

    With ``bodies``, each agent is a disc with a sampled radius at a
    continuous position; otherwise each takes its own cell's centre.
    ``PopulationSpec.validate`` has checked the region against the run's
    config: it is not empty, and on the grid it holds everyone.

    Sampled values of the fractional attributes (health, collaboration,
    insistence, knowledge, experience, nervousness) are clamped to
    [0, 1]; non-finite or boolean values of them are rejected.  Every
    other attribute is still rejected when its support is out of range,
    and unknown attributes are a schema violation.
    """
    count = spec.count
    merged = spec.attribute_specs(params)

    rng_attrs = streams.spawn_attrs
    sampled: dict[str, np.ndarray] = {}
    for attr in sorted(merged):
        if attr == "reaction_time":
            continue  # handled after experience/role are known
        values = _sample_attr(attr, merged[attr], count, rng_attrs)
        sampled[attr] = np.clip(values, 0.0, 1.0) if attr in FLOAT01 else values

    sampled["speed_pref"][sampled["age"] >= int(params["age_slow_at"])] *= float(params["age_slow_factor"])

    rng_rt = streams.reaction
    if "reaction_time" in spec.attributes:
        reaction = _sample_attr("reaction_time", merged["reaction_time"], count, rng_rt)
    else:
        draws = rng_rt.lognormal(mean=math.log(float(params["rt_median"])), sigma=float(params["rt_sigma"]), size=count)
        factor = np.where(sampled["role"] == 1, float(params["rt_leader_factor"]), 1.0)
        rt = draws * (1.0 - 0.5 * sampled["experience"]) * factor
        reaction = np.clip(rt, float(params["rt_min"]), float(params["rt_max"]))

    cells = spec.spawn_cells(geometry)
    if bodies:
        radii = streams.bodies.uniform(float(params["sf_radius_lo"]), float(params["sf_radius_hi"]), size=count)
        positions = _continuous_positions(cells, radii, geometry, streams.spawn_pos)
    else:
        radii = np.zeros(count)
        picks = streams.spawn_pos.choice(len(cells), size=count, replace=False) if count else []
        positions = geometry.centres(cells[picks])

    vision0 = visibility_range_bulk(np.zeros(count), sampled["health"], params)

    return Population(
        **sampled,
        pos=np.array(positions, dtype=np.float64).reshape(count, 2),
        radius=radii,
        vision=vision0,
        reaction_time=reaction,
        status=np.full(count, int(AgentStatus.PREMOVEMENT), dtype=np.uint8),
        end_t=np.full(count, np.nan),
        path_len=np.zeros(count),
        replans=np.zeros(count, dtype=np.int64),
        target=np.full(count, NO_TARGET, dtype=np.int32),
        desired=np.zeros(count),
    )


def _continuous_positions(
    cells: np.ndarray,
    radii: np.ndarray,
    geometry: Geometry,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rejection-sample non-overlapping body centres inside the spawn cells.

    Each body takes the first (x, y) draw over the cells' bounding box
    that lands in a spawn cell, clear of every blocked cell and of every
    body placed before it.  Draws are taken and screened for cell and
    wall clearance in batches, tested against placed bodies in growing
    blocks through a bucket grid, and the stream is left just past the
    last draw tested, as if the draws were taken one by one.
    """
    count = len(radii)
    if count == 0:
        return np.zeros((0, 2))
    cs = geometry.cell_size
    blocked = geometry.blocked_mask
    h, w = blocked.shape
    xy = np.asarray(cells, dtype=np.int64)
    spawn = np.zeros((h + 1, w + 1), dtype=bool)     # a draw on the box's far edge lands one past it
    spawn[xy[:, 1], xy[:, 0]] = True
    lo = xy.min(axis=0) * cs
    hi = (xy.max(axis=0) + 1) * cs
    r_max = float(radii.max())
    # placed bodies by bucket, padded with the sentinel row ``count`` at
    # +inf; buckets are wider than any overlap, so only neighbours overlap
    side = 2 * r_max + cs
    nb = ((hi - lo) / side).astype(np.int64) + 3
    stencil = (np.arange(-1, 2)[:, None] * nb[0] + np.arange(-1, 2)).ravel()
    members = np.full((nb[0] * nb[1], 4), count)
    filled = np.zeros(nb[0] * nb[1], dtype=np.int64)
    placed = np.full((count + 1, 2), np.inf)
    placed_r = np.zeros(count + 1)
    limit = 2000 * count + 2000
    draws = np.zeros((0, 2))
    used = tested = 0                                # draws tested, of ``draws`` and in all
    for i, r in enumerate(radii.tolist()):
        size = 16
        while True:
            if used == len(draws):
                if tested == limit:
                    raise SimulationError(f"could not place {count} bodies in the spawn region ({i} placed)")
                state = rng.bit_generator.state
                draws = rng.uniform(lo, hi, size=(min(4096, max(256, tested), limit - tested), 2))
                used = 0
                cell = (draws / cs).astype(np.int64)
                usable = spawn[cell[:, 1], cell[:, 0]]
                # the widest disc covers the cells under every body's own disc
                clearance = _wall_clearance(draws, r_max, blocked, cs)
                key = ((draws - lo) / side).astype(np.int64) + 1
                bucket = key[:, 1] * nb[0] + key[:, 0]
            stop = min(used + size, len(draws))
            cand = used + np.flatnonzero(usable[used:stop] & (clearance[used:stop] >= r * r))
            width = max(int(filled.max()), 1)
            near = members[bucket[cand, None] + stencil, :width].reshape(len(cand), 9 * width)
            q = placed[near]
            hit = (draws[cand, :1] - q[..., 0]) ** 2 + (draws[cand, 1:] - q[..., 1]) ** 2 < (r + placed_r[near]) ** 2
            free = cand[~hit.any(axis=1)]
            end = int(free[0]) + 1 if len(free) else stop
            tested += end - used
            used = end
            if len(free):
                b = bucket[end - 1]
                placed[i], placed_r[i] = draws[end - 1], r
                if filled[b] == members.shape[1]:
                    members = np.hstack([members, np.full_like(members, count)])
                members[b, filled[b]] = i
                filled[b] += 1
                break
            size *= 2
    rng.bit_generator.state = state
    rng.uniform(lo, hi, size=(used, 2))
    return placed[:count]


def _wall_clearance(points: np.ndarray, r: float, blocked: np.ndarray, cs: float) -> np.ndarray:
    """Squared distance from each point to the nearest blocked cell under
    the bounding square of its disc of radius ``r`` (inf where none)."""
    h, w = blocked.shape
    first = np.maximum(((points - r) / cs).astype(np.int64), 0)
    last = np.minimum(((points + r) / cs).astype(np.int64), [w - 1, h - 1])
    reach = np.arange(int((last - first).max()) + 1)
    cell = first[:, None, :] + np.stack(np.meshgrid(reach, reach), axis=-1).reshape(-1, 2)
    gap = points[:, None, :] - np.minimum(np.maximum(points[:, None, :], cell * cs), (cell + 1) * cs)
    wall = (cell <= last[:, None, :]).all(axis=2)
    wall &= blocked[np.minimum(cell[..., 1], h - 1), np.minimum(cell[..., 0], w - 1)]
    return np.where(wall, gap[..., 0] ** 2 + gap[..., 1] ** 2, np.inf).min(axis=1)



# ---------------------------------------------------------------------------
# beliefs
# ---------------------------------------------------------------------------


@dataclass
class Beliefs:
    """What every agent holds to be true about the building: one row per
    agent id and, in the (N, E) arrays, one column per exit zone."""

    known: np.ndarray       # (N, E) bool: familiar, seen or heard of
    familiar: np.ndarray    # (N, E) bool: known before the alarm
    blocked: np.ndarray     # (N, E) bool: seen or heard to be blocked
    next_check: np.ndarray  # (N,) s, time of the next progress check; NaN before the first round
    progress: np.ndarray    # (N, R, 3) ring of (t, x, y) samples, one per round; NaN where unused
    head: np.ndarray        # (N,) ring slot the next sample goes to

    def record_position(self, rows: np.ndarray, t: float, pos: np.ndarray) -> None:
        slot = self.head[rows]
        self.progress[rows, slot, 0] = t
        self.progress[rows, slot, 1:] = pos
        self.head[rows] = (slot + 1) % self.progress.shape[1]


def init_beliefs(
    knowledge: np.ndarray, n_exits: int, rng: np.random.Generator, window: float, round_interval: float
) -> Beliefs:
    """Seed each agent's known exits: every exit is familiar independently
    with probability equal to the agent's building knowledge.

    The progress ring holds every round within ``window`` seconds at one
    round per ``round_interval`` seconds, plus the off-cadence round an
    agent makes when it starts moving and one slot of rounding slack.
    """
    n = len(knowledge)
    familiar = rng.random((n, n_exits)) < knowledge[:, None]
    samples = max(0, int(window / round_interval)) + 3
    return Beliefs(
        known=familiar.copy(),
        familiar=familiar,
        blocked=np.zeros_like(familiar),
        next_check=np.full(n, np.nan),
        progress=np.full((n, samples, 3), np.nan),
        head=np.zeros(n, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# perception
# ---------------------------------------------------------------------------


PAIR_BLOCK = 1 << 15  # observer x person elements in one block of the sight test


@dataclass
class WorldView:
    """What the perception/decision layer reads: the population, the
    current time and hazard frames, and the exit geometry.  A run keeps
    one, brought up to date by the engine's hazard and decision phases.
    The herd statistics and the exit-blocked messages find who sees whom
    through :meth:`in_sight`."""

    geometry: Geometry
    params: dict
    t: float
    pop: Population
    od_frame: np.ndarray           # (H, W) current optical density
    temp_frame: np.ndarray
    tox_frame: np.ndarray
    exit_fields: np.ndarray        # (E + 1, H, W): in a run, the geometry's own exit_fields
    zone_cells: list[np.ndarray]   # per zone, (K, 2) cell coords
    has_interior_blockers: bool = False
    ambient_air: bool = False      # every hazard frame of the run is clear air

    def nearest_exit_cell(self, zone: int, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each of the (n, 2) positions ``pos``, the row of
        ``zone_cells[zone]`` whose centre is nearest (the first on a tie)
        and the squared distance to that centre."""
        centres = self.geometry.centres(self.zone_cells[zone])
        d2 = ((pos[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        return nearest, d2[np.arange(len(pos)), nearest]

    def in_sight(self, observers: np.ndarray, radius: np.ndarray):
        """Whom each observer sees, in blocks of at most ``PAIR_BLOCK``
        observer x person elements.  Yields ``(rows, near, d2)`` per block:
        ``rows`` slices ``observers`` (and ``radius``, one per observer),
        and ``near[k, j]`` holds when the j-th person in the building
        (``pop.inside()``, ascending) is not observer k itself, lies within
        its radius (``d2`` the squared distances) and, where interior
        blockers stand, is on a clear sight line from it.
        """
        pop, geometry = self.pop, self.geometry
        people = pop.inside()
        px, py = pop.pos[people, 0], pop.pos[people, 1]
        if self.has_interior_blockers:
            cells = geometry.cells_of(pop.pos.take(people, axis=0))
        step = max(1, PAIR_BLOCK // max(len(people), 1))
        for lo in range(0, len(observers), step):
            rows = slice(lo, lo + step)
            block = observers[rows]
            # (x - px) ** 2 + (y - py) ** 2, in place
            d2 = pop.pos[block, 0][:, None] - px
            d2 *= d2
            dy = pop.pos[block, 1][:, None] - py
            dy *= dy
            d2 += dy
            near = d2 <= radius[rows][:, None] ** 2
            col = np.searchsorted(people, block)  # each observer's own column, if it is inside
            own = np.flatnonzero(col < len(people))
            own = own[people[col[own]] == block[own]]
            near[own, col[own]] = False
            if self.has_interior_blockers:
                k, j = np.nonzero(near)
                origin = geometry.cells_of(pop.pos.take(block, axis=0))
                blind = ~los_pairs(geometry.blocked_mask, origin.take(k, axis=0), cells.take(j, axis=0))
                near[k[blind], j[blind]] = False
            yield rows, near, d2


SIGHT_SAMPLES = 8  # points sampled along each sight line


def sight_line_hazard(
    od_frame: np.ndarray,
    temp_frame: np.ndarray,
    tox_frame: np.ndarray,
    start: np.ndarray,
    stop: np.ndarray,
    max_cells: np.ndarray,
    params: dict,
) -> np.ndarray:
    """Mean hazard (optical density + heat dose + toxicity)
    over evenly spaced points from each (P, 2) start cell toward its stop
    cell, the line clipped at ``max_cells``, the perceiver's sight range."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(stop, dtype=np.float64).copy()
    delta = end - start
    length = np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])
    clip = (length > max_cells) & (max_cells > 0)
    scale = max_cells[clip] / length[clip]
    end[clip] = start[clip] + delta[clip] * scale[:, None]
    # the points np.linspace(start, end, SIGHT_SAMPLES) makes for one line;
    # a batched np.linspace rounds every line differently once any has a zero step
    step = (end - start) / (SIGHT_SAMPLES - 1)
    points = np.arange(SIGHT_SAMPLES, dtype=np.float64)[None, :, None] * step[:, None, :] + start[:, None, :]
    points[:, -1] = end
    height, width = od_frame.shape
    xs = np.clip(points[:, :, 0].astype(np.int64), 0, width - 1)
    ys = np.clip(points[:, :, 1].astype(np.int64), 0, height - 1)
    return (od_frame[ys, xs] + heat(temp_frame[ys, xs], params) + tox_frame[ys, xs]).mean(axis=1)


@dataclass
class Percepts:
    """Everything the deciders of one round sense: row r describes the
    agent in row r of the round, and (n, E) arrays have one column per
    exit zone.  The herd statistics stay None until :func:`decide` senses
    them for the rows that re-choose."""

    speed: np.ndarray       # (n,) m/s, own walking speed after health and mobility
    local_od: np.ndarray    # (n,) optical density where the agent stands
    visible: np.ndarray     # (n, E) bool: exit in sight and walkable from here
    distance: np.ndarray    # (n, E) m, walking distance to each exit; inf where unreachable
    hazard: np.ndarray      # (n, E) smoke/heat score along the sight line; 0 where not visible
    exit_od: np.ndarray     # (n, E) optical density at each visible exit; 0 elsewhere
    congestion: np.ndarray | None = None  # (n, E) persons seen heading to each exit
    votes: np.ndarray | None = None       # (n, E) leader-weighted count of neighbours heading to each exit
    totals: np.ndarray | None = None      # (n,) weighted count of all visible neighbours
    follow: np.ndarray | None = None      # (n, E) m, to the nearest neighbour heading to each exit; inf if none or where not asked for

    def take(self, sel: np.ndarray) -> "Percepts":
        """The percepts of rows ``sel`` of this round."""
        return replace(self, **{k: v[sel] for k, v in vars(self).items() if isinstance(v, np.ndarray)})


def _neighbour_stats(world: WorldView, indices: np.ndarray, follow_rows: np.ndarray):
    """Per-agent herd votes, totals, congestion counts and follow distances
    over the neighbours each row sees within its sight capped at the
    congestion radius, read off each block of :meth:`WorldView.in_sight`:
    its sight mask times a one-hot of each person's exit, plus a column of
    ones, counts congestion and neighbours exactly (the votes and totals
    where every weight is 1).  A row that sees a leader sums its weights
    along the row in ascending seen id.  Follow distances are found only
    for the rows flagged in ``follow_rows``, inf in the others.  Each row
    is the same whichever other rows are asked for."""
    pop = world.pop
    n_zones = len(world.zone_cells)
    people = pop.inside()
    heading = np.where(pop.status[people] == _MOVING, pop.target[people], -1)
    columns = [np.flatnonzero(heading == e) for e in range(n_zones)]  # who heads to each exit
    onehot = np.column_stack([heading[:, None] == np.arange(n_zones), np.ones(len(people))]).astype(np.float32)
    role = pop.role[people]
    leaders = np.flatnonzero(role > 0)
    rank = np.where(pop.role[indices] > 0, pop.role[indices], np.iinfo(np.int64).max)
    stats = np.zeros((len(indices), n_zones + 1))  # votes, then totals
    congestion = np.zeros((len(indices), n_zones), dtype=np.int64)
    near2 = np.full((len(indices), n_zones), np.inf)
    radius = np.minimum(pop.vision[indices], float(world.params["congestion_radius"]))
    for rows, near, d2 in world.in_sight(indices, radius):
        counts = near.astype(np.float32) @ onehot
        congestion[rows] = counts[:, :n_zones]
        stats[rows] = counts
        if len(leaders):
            led = near[:, leaders] & (role[leaders] < rank[rows, None])
            weighed = np.flatnonzero(led.any(axis=1))
            weight = near[weighed].astype(np.float64)
            weight[:, leaders] += led[weighed] * pop.collaboration[indices[rows][weighed], None]
            # cumsum adds along a row in order, and adding 0.0 for the unseen is exact
            for e, cols in enumerate(columns):
                stats[rows.start + weighed, e] = np.cumsum(weight[:, cols], axis=1)[:, -1] if len(cols) else 0.0
            stats[rows.start + weighed, n_zones] = np.cumsum(weight, axis=1)[:, -1]
        asked = np.flatnonzero(follow_rows[rows])
        if len(asked):
            gap = np.where(near[asked], d2[asked], np.inf)
            for e, cols in enumerate(columns):
                near2[rows.start + asked, e] = gap[:, cols].min(axis=1, initial=np.inf)
    # sqrt is monotone and correctly rounded: the root of the least d2 is the least distance
    return stats[:, :n_zones], stats[:, n_zones], congestion, np.sqrt(near2)


def build_percepts(world: WorldView, indices: np.ndarray) -> Percepts:
    """Percepts for the given agent indices, from one round of vectorised
    visibility, sight-line hazard and walking speeds; :func:`decide` senses the herd."""
    p = world.params
    pop = world.pop
    geometry = world.geometry
    cs = geometry.cell_size
    n = len(indices)
    n_zones = len(world.zone_cells)

    pos = pop.pos[indices]
    vision = pop.vision[indices]
    cells = geometry.cells_of(pos)

    # each exit zone: walking distance, and whether its nearest cell is in sight
    distance = np.empty((n, n_zones))
    visible = np.zeros((n, n_zones), dtype=bool)
    nearest = np.zeros((n, n_zones), dtype=np.int64)
    for z, zc in enumerate(world.zone_cells):
        nearest[:, z], d2 = world.nearest_exit_cell(z, pos)
        vis = np.sqrt(d2) <= vision
        if vis.any() and world.has_interior_blockers:
            rows = np.nonzero(vis)[0]
            vis[rows] = los_pairs(geometry.blocked_mask, cells[rows], zc[nearest[rows, z]])
        visible[:, z] = vis
        distance[:, z] = world.exit_fields[z][cells[:, 1], cells[:, 0]] * cs
    visible &= np.isfinite(distance)  # in sight through an opening is not walkable from here

    hazard = np.zeros((n, n_zones))
    exit_od = np.zeros((n, n_zones))
    if not world.ambient_air:
        rows, zones = np.nonzero(visible)
        first_cell = np.cumsum([0] + [len(zc) for zc in world.zone_cells])
        stop = np.concatenate(world.zone_cells)[first_cell[zones] + nearest[rows, zones]]
        hazard[rows, zones] = sight_line_hazard(
            world.od_frame, world.temp_frame, world.tox_frame, cells[rows], stop, vision[rows] / cs, p
        )
        middle = np.array([zc[len(zc) // 2] for zc in world.zone_cells])
        exit_od[rows, zones] = world.od_frame[middle[zones, 1], middle[zones, 0]]

    return Percepts(
        speed=effective_speed(pop.health[indices], pop.mobility[indices], pop.speed_pref[indices], p),
        local_od=world.od_frame[cells[:, 1], cells[:, 0]],
        visible=visible,
        distance=distance,
        hazard=hazard,
        exit_od=exit_od,
    )


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------


def choose_exit(
    pop: Population, rows: np.ndarray, percepts: Percepts, beliefs: Beliefs, params: dict
) -> np.ndarray:
    """Pick each row's best exit by expected cost, blended with the crowd.

    Candidates are the exits in sight, then the known exits walkable from
    here, then the exits a visible neighbour is heading to (at the
    follow distance plus a catch-up penalty), less every exit believed
    blocked.  Utility trades off travel time, visible congestion, hazard
    along the way and familiarity; the herding term follows where visible
    neighbours (leaders amplified) are heading, weighted by the agent's
    nervousness.  Ties on score break on utility, then on the smallest
    id.  Rows with no candidate exit get NO_TARGET.
    """
    visible = percepts.visible
    known = beliefs.known[rows] & ~visible & np.isfinite(percepts.distance)
    follow = ~visible & ~known & np.isfinite(percepts.follow)
    candidate = (visible | known | follow) & ~beliefs.blocked[rows]

    distance = np.where(follow, percepts.follow + float(params["follow_penalty"]), percepts.distance)
    distance = np.where(candidate, distance, 0.0)  # finite off the candidates, which are masked below
    congestion = np.where(known, 0, percepts.congestion)
    hazard = np.where(visible, percepts.hazard, 0.0)
    v = np.maximum(percepts.speed, 0.1)[:, None]
    n = pop.nervousness[rows][:, None]
    utility = (
        -float(params["w_distance"]) * distance / v
        - float(params["w_congestion"]) * congestion
        - float(params["w_hazard"]) * hazard
        + float(params["w_familiar"]) * beliefs.familiar[rows]
    )
    totals = percepts.totals[:, None]
    herd = np.divide(percepts.votes, totals, out=np.zeros_like(percepts.votes), where=totals > 0)
    score = np.where(candidate, (1.0 - n) * utility + n * herd, -np.inf)

    # a fully nervous agent whose crowd term ties falls back on its own judgement
    best = candidate & (score == score.max(axis=1, keepdims=True))
    utility = np.where(best, utility, -np.inf)
    best &= utility == utility.max(axis=1, keepdims=True)
    return np.where(candidate.any(axis=1), best.argmax(axis=1), NO_TARGET)


def update_insistence(
    pop: Population, rows: np.ndarray, speed: np.ndarray, beliefs: Beliefs, dt_window: float, params: dict
) -> None:
    """Decay each row's insistence when its displacement over the progress
    window (oldest to newest sample within it) falls short of a fraction
    of what it could have walked at ``speed``."""
    ring = beliefs.progress[rows]
    ts = np.where(np.isnan(ring[:, :, 0]), -np.inf, ring[:, :, 0])
    k = np.arange(len(rows))
    last = ts.argmax(axis=1)
    t1 = ts[k, last]
    held = ts >= (t1 - dt_window)[:, None] - 1e-9
    first = np.where(held, ts, np.inf).argmin(axis=1)
    span = t1 - ts[k, first]
    dx = ring[k, last, 1] - ring[k, first, 1]
    dy = ring[k, last, 2] - ring[k, first, 2]
    displacement = np.sqrt(dx * dx + dy * dy)
    stalled = rows[(span >= dt_window * 0.5) & (displacement < float(params["progress_eta"]) * speed * span)]
    pop.insistence[stalled] = np.maximum(
        float(params["insistence_floor"]), pop.insistence[stalled] * float(params["insistence_decay"])
    )


def inform_neighbors(
    senders: np.ndarray, exits: np.ndarray, world: WorldView, beliefs: Beliefs, rng: np.random.Generator
) -> np.ndarray:
    """Tell each sender's visible neighbours that the exits flagged in its
    row of the (S, E) mask ``exits`` are blocked, each neighbour with
    probability equal to the sender's collaboration.  One hop per tick:
    receivers do not relay until their own next decision round.

    ``senders`` are ascending ids, and each sees as far as its sight
    range (:meth:`WorldView.in_sight`).  The round draws one number per
    (sender, neighbour) pair, senders in turn and each one's neighbours
    in id order, so the stream moves as if the senders spoke one by one.
    Returns the (R, 2) (sender, receiver) id rows of the deliveries in
    that order."""
    pop = world.pop
    people = pop.inside()
    told = np.zeros((exits.shape[1], len(people)), dtype=bool)  # who heard of each exit
    blocks = []  # (senders, (senders, people) mask of whom each one told)
    for rows, near, _ in world.in_sight(senders, pop.vision[senders]):
        block = senders[rows]
        drawn = np.ones(near.shape)
        drawn[near] = rng.random(np.count_nonzero(near))  # row-major: senders in turn, people by id
        heard = near & (drawn < pop.collaboration[block][:, None])
        for e, flags in enumerate(exits[rows].T):
            told[e] |= heard[flags].any(axis=0)
        blocks.append((block, heard))
    for e, heard in enumerate(told):
        beliefs.blocked[people[heard], e] = True
        beliefs.known[people[heard], e] = True

    delivered = np.empty((sum(np.count_nonzero(heard) for _, heard in blocks), 2), dtype=np.int64)
    end = 0
    for block, heard in blocks:
        k, j = np.divmod(np.flatnonzero(heard), len(people))
        delivered[end:end + len(k), 0] = block.take(k)
        delivered[end:end + len(k), 1] = people.take(j)
        end += len(k)
    return delivered


def decide(
    world: WorldView,
    rows: np.ndarray,
    percepts: Percepts,
    beliefs: Beliefs,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One decision round at ``world.t`` for the agents ``rows``
    (ascending ids), all past their pre-movement delay.

    Marks freshly seen blocked exits, learns the exits in sight, decays
    insistence when progress stalls, rolls the replan lottery (one draw
    per row that has no reason to choose anyway, in row order), and
    picks an exit for every row that needs one, sensing the herd through
    ``world`` for those rows only.  Nervousness grows with replans and
    dense smoke, damped by experience; desired speed is effective speed
    scaled by (1 + nervousness), capped globally.  The rows'
    nervousness, insistence, target and desired speed are updated in
    ``world.pop``.

    Returns whether each row replanned, and the (k, E) exits it newly
    saw blocked, which it is to announce.
    """
    pop, params, t = world.pop, world.params, world.t
    target = pop.target[rows]

    announce = percepts.visible & (percepts.exit_od > float(params["od_blocked"])) & ~beliefs.blocked[rows]
    beliefs.blocked[rows] |= announce
    beliefs.known[rows] |= percepts.visible

    window = float(params["progress_window"])
    beliefs.record_position(rows, t, pop.pos[rows])
    check = beliefs.next_check[rows]
    due = t >= check
    update_insistence(pop, rows[due], percepts.speed[due], beliefs, window, params)
    beliefs.next_check[rows[due | np.isnan(check)]] = t + window

    has_target = target != NO_TARGET
    need = ~has_target
    need[has_target] |= beliefs.blocked[rows[has_target], target[has_target]]
    free = np.nonzero(~need)[0]
    need[free] = rng.random(len(free)) < 1.0 - pop.insistence[rows[free]]

    new_target = target.copy()
    chosen = np.nonzero(need)[0]
    if len(chosen):
        herd = percepts.take(chosen)
        # choose_exit reads follow only off the exits neither in sight nor known and walkable
        unsure = (~herd.visible & ~(beliefs.known[rows[chosen]] & np.isfinite(herd.distance))).any(axis=1)
        votes, totals, congestion, follow = _neighbour_stats(world, rows[chosen], unsure)
        herd = replace(herd, congestion=congestion, votes=votes, totals=totals, follow=follow)
        new_target[chosen] = choose_exit(pop, rows[chosen], herd, beliefs, params)
    replanned = has_target & (new_target != target)

    grew = np.where(replanned, float(params["dn_replan"]), 0.0) + np.where(
        percepts.local_od > float(params["od_nervous"]), float(params["dn_smoke"]), 0.0
    )
    nervousness = pop.nervousness[rows]
    scale = float(params["nervousness_growth"]) * (1.0 - 0.5 * pop.experience[rows])
    nervousness = np.where(grew != 0.0, np.minimum(1.0, np.maximum(0.0, nervousness + grew * scale)), nervousness)
    pop.nervousness[rows] = nervousness
    pop.target[rows] = new_target
    pop.desired[rows] = np.minimum(percepts.speed * (1.0 + nervousness), float(params["speed_cap"]))
    return replanned, announce
