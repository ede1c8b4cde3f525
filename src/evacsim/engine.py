"""Simulation driver: one loop stepping hazard, minds and bodies.

Each tick advances the clock from t to t + dt through a fixed phase
order: hazard exposure and deaths, pre-movement transitions, decision
rounds (with message delivery after every agent has decided), then one
step of the movement backend.  Every event raised while advancing
t -> t + dt is stamped exactly t; trajectory samples are taken at the
top of the loop, so a sample at time s reflects precisely the events
stamped strictly before s.

The first three phases, exits, deaths and result assembly are shared.
The backend is one mover from ``MOVERS``, picked by ``config.backend``;
the shared phases call only its ``steer(ids)`` (after a decision round),
``step(k, t)`` (one movement tick with its arrivals and door crossings),
``remove(i)`` (agent i died), ``finish(t_end)`` (the run is over) and
``warnings``.  Class constants on each mover give its default decision
and trajectory cadence and whether it decides at all; a mover that moves
or steers on the route network derives the network itself.  Whoever
stands on an exit cell leaves by one rule, ``_Simulation._leave``; the
clog episodes at the doors are the social-force mover's own.

Each fact has one owner.  ``Population`` holds every agent's state,
desired speed (``Population.desired``) included, and no mover keeps a
copy: the social-force state holds its ``pos`` array, and the lattice
mover builds its occupancy grid from ``pos`` at each step, refusing two
people on one cell with an error naming the tick ``k``.  The run's one
``WorldView`` (``_Simulation.world``) holds the air, whose frames the
hazard phase brings to each tick, and the geometry's own ``exit_fields``
(a layer per exit zone, then the all-exits field) for the lattice, the
social-force steering and the decisions.  The hazard phase returns who
senses the hazard.  Sensing starts a waiting agent before its delay is
up; otherwise the pre-movement phase sleeps until the earliest delay is
up.  ``Geometry.moves`` says which ``scenario.STEPS`` are allowed from a
cell, ``Geometry.cells_of`` maps positions to cells and
``Geometry.centres`` cells to their centres.
Social-force steering runs over all of a round's deciders at once: the
room columns of ``EgressNetwork.routes``, the table ``flow`` routes by,
give each its next route arc, an arc table gives the point beyond that
arc's door, and one steepest-descent hop on the target's layer covers
agents off the route, within reach of their aim or without a target.

Determinism is load-bearing throughout: agents are always iterated in
ascending id order, random substreams are dedicated per concern, and
float accumulation happens over sorted index arrays.
"""
from __future__ import annotations

import hashlib
import math
import os
import struct
import weakref
from dataclasses import dataclass

import numpy as np

from .agents import (
    AgentStatus,
    WorldView,
    build_percepts,
    decide,
    inform_neighbors,
    init_beliefs,
    spawn_population,
)
from .ca import ca_step, lattice, speed_ticks
from .config import RunConfig, half_up
from .errors import SimulationError
from .flow import FlowState, flow_step
from .hazard import (
    AMBIENT_TEMP,
    HazardField,
    builtin_smoke,
    health_decrement,
    load_hazard_series,
    visibility_range_bulk,
)
from .metrics import EventRecord, PerAgentRecord, RunResult
from .rng import RngStreams
from .scenario import (
    CellKind,
    Geometry,
    Scenario,
    cells_center,
    derive_network,
    distance_field,  # not called here; perfbench/tracing.py wraps it by this name
    parse_scenario,
)
from .socialforce import SfState, detect_arch, exposed_wall_cells, sf_step, wall_table

CA_DECISION_INTERVAL = 1.0   # s between decision rounds on the grid backend
SF_DECISION_INTERVAL = 0.25  # s between decision rounds on the social-force backend
SF_TRAJECTORY_INTERVAL = 0.25  # s between social-force trajectory samples
ARCH_CHECK_INTERVAL = 1.0    # s between clog checks at doors
SENSE_EPS = 1e-9             # anything above ambient by this much is noticed
CROSS_SLACK = 0.4            # m of tangential tolerance for plane crossings


def state_digest(
    t: float,
    xs,
    ys,
    statuses,
    health,
    nervousness,
    insistence,
    targets,
) -> str:
    """64-bit fingerprint of the dynamic simulation state.

    Arrays enter in agent-id order with fixed-width little-endian
    encoding, so equal states produce equal digests across runs,
    platforms and worker counts.
    """
    h = hashlib.blake2b(digest_size=8)
    xs = np.asarray(xs, dtype=np.float64)
    h.update(struct.pack("<dQ", float(t), len(xs)))
    h.update(np.ascontiguousarray(np.asarray(statuses, dtype=np.uint8)).tobytes())
    h.update(np.ascontiguousarray(np.asarray(targets, dtype=np.int32)).tobytes())
    for arr in (xs, ys, health, nervousness, insistence):
        h.update(np.ascontiguousarray(np.asarray(arr, dtype=np.float64)).tobytes())
    return h.hexdigest()


#: digest of the agentless state at t = 0; pinned by tests/test_golden.py
EMPTY_STATE_DIGEST = state_digest(0.0, (), (), (), (), (), (), ())


def load_hazard_field(scenario: Scenario, horizon: float = math.inf) -> HazardField:
    """Materialise the scenario's hazard source into a sampled field.

    A built-in generator integrates only as far as ``horizon`` s (see
    ``builtin_smoke``); a run passes its time limit, while ``evacsim
    validate`` passes none and so builds the whole ``duration``.  A
    hazard file is read whole either way."""
    source = scenario.hazard_source
    geometry = scenario.geometry
    if source.kind == "ambient":
        return HazardField.ambient(geometry.height, geometry.width)
    if source.kind == "file":
        path = source.path
        if not os.path.isabs(path):
            path = os.path.join(source.base_dir, path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SimulationError(f"cannot read hazard series {path!r}: {exc}") from exc
        return load_hazard_series(text, geometry.height, geometry.width)
    if source.kind == "builtin":
        spec = dict(source.builtin)
        origin = spec.pop("source")
        return builtin_smoke(geometry, (int(origin[0]), int(origin[1])), spec, horizon)
    raise SimulationError(f"unknown hazard source kind {source.kind!r}")


@dataclass
class DoorSite:
    """A doorway (or bare exit span) instrumented for flow counting."""

    door_id: str
    cells: list[tuple[int, int]]
    center: np.ndarray        # (2,) m
    upstream: np.ndarray      # (2,) unit normal toward the side farther from every exit
    half_span: float          # m along the opening
    covers_exit: bool = False  # opening lies on exit cells (bodies vanish here)


def _make_door_site(geometry: Geometry, door_id: str, cells: list[tuple[int, int]]) -> DoorSite:
    cs = geometry.cell_size
    arr = np.asarray(cells, dtype=np.int64)
    center = np.array(cells_center(cells, cs))
    ext = arr.max(axis=0) - arr.min(axis=0)
    if ext[0] > ext[1]:
        normal_axis = 1          # span runs along x, passage along y
    elif ext[1] > ext[0]:
        normal_axis = 0
    else:
        # single cell (or square cluster): passage direction is the axis
        # with more open neighbours
        counts = [0, 0]
        for (x, y) in cells:
            for nx, ny in geometry.orthogonal(x, y):
                if geometry.open_mask[ny, nx]:
                    counts[0 if nx != x else 1] += 1
        normal_axis = 0 if counts[0] >= counts[1] else 1
    step = np.zeros(2, dtype=np.int64)
    step[normal_axis] = 1
    # the crowd comes from the side farther from every exit
    farthest = {1: -math.inf, -1: -math.inf}
    for (x, y) in cells:
        for sign in (1, -1):
            nx, ny = x + sign * step[0], y + sign * step[1]
            if geometry.in_bounds(nx, ny) and math.isfinite(geometry.exit_fields[-1, ny, nx]):
                farthest[sign] = max(farthest[sign], float(geometry.exit_fields[-1, ny, nx]))
    upstream = np.zeros(2)
    upstream[normal_axis] = 1.0 if farthest[1] >= farthest[-1] else -1.0
    tangent_axis = 1 - normal_axis
    half_span = (int(ext[tangent_axis]) + 1) * cs / 2.0
    covers_exit = any(geometry.kinds[y, x] == CellKind.EXIT for (x, y) in cells)
    return DoorSite(
        door_id=door_id,
        cells=list(cells),
        center=center,
        upstream=upstream,
        half_span=half_span,
        covers_exit=covers_exit,
    )


def door_sites(geometry: Geometry) -> list[DoorSite]:
    """Instrumented openings: every declared door, then each exit zone
    that the doors do not wholly cover (synthetic id ``exit:<zone>``)."""
    sites = []
    covered: set[tuple[int, int]] = set()
    for door in geometry.doors:
        sites.append(_make_door_site(geometry, door.id, door.cells))
        covered.update(door.cells)
    for zone in geometry.exit_zones:
        if any(c not in covered for c in zone.cells):
            sites.append(_make_door_site(geometry, f"exit:{zone.id}", zone.cells))
    return sites


class _Simulation:
    """Run state and the phases every backend shares; one per run() call."""

    def __init__(self, scenario: Scenario, config: RunConfig | None = None):
        self.scenario = scenario
        self.geometry = scenario.geometry
        self.config = config if config is not None else scenario.config
        self.config.validate()
        # the run's config may spawn differently from the scenario's own
        scenario.population.validate(self.geometry, self.config)
        mover_cls = MOVERS[self.config.backend]
        self.params = self.config.params()
        self.dt = self.config.resolved_dt(self.geometry.cell_size)
        self.streams = RngStreams(self.config.seed)
        self.events: list[EventRecord] = []
        self.trajectory: list[tuple] = []
        self.crossings: list[tuple[float, str, int]] = []

        geometry = self.geometry
        zones = geometry.exit_zones
        self.hazard = hazard = load_hazard_field(scenario, self.config.max_sim_time)

        # population: the one copy of every agent's state
        self.pop = spawn_population(scenario.population, geometry, self.streams, self.params, self.config.bodies)
        self.ids = np.arange(len(self.pop), dtype=np.int64)
        # when each pre-movement delay is up (never before the alarm), and
        # the earliest such time among the people still waiting
        alarm = self.config.alarm_time
        self.due_t = np.maximum(alarm, alarm + self.pop.reaction_time)
        self.wake_t = float(self.due_t.min(initial=math.inf))

        # the run's one view of the air and the exits; the hazard phase
        # keeps its frames current and the decision phase its time
        temp_frame, od_frame, tox_frame = hazard.frame_at(0.0)
        self.world = WorldView(
            geometry=geometry,
            params=self.params,
            t=0.0,
            pop=self.pop,
            od_frame=od_frame,
            temp_frame=temp_frame,
            tox_frame=tox_frame,
            exit_fields=geometry.exit_fields,
            zone_cells=[np.asarray(z.cells, dtype=np.int64) for z in zones],
            has_interior_blockers=bool(geometry.blocked_mask[1:-1, 1:-1].any()),
            ambient_air=bool(
                hazard.optical_density.max() <= 0.0
                and hazard.toxicity.max() <= 0.0
                and hazard.temperature.max() <= AMBIENT_TEMP + SENSE_EPS
            ),
        )

        # cadences; an interval parameter <= 0 takes the mover's default
        def every(key: str, default: float) -> int:
            seconds = float(self.params[key])
            return self.ticks(seconds if seconds > 0 else default)

        self.decide_every = every("decision_interval", mover_cls.decision_interval)
        self.sample_every = every("trajectory_interval", mover_cls.trajectory_interval or self.dt)
        self.beliefs = init_beliefs(
            self.pop.knowledge,
            len(zones),
            self.streams.spawn_attrs,
            float(self.params["progress_window"]),
            self.decide_every * self.dt,
        )

        self.sites = door_sites(geometry)
        self.site_of_cell = np.full((geometry.height, geometry.width), -1, dtype=np.int32)
        # the exit:<z> sites first, so that declared doors keep their own cells
        n_doors = len(geometry.doors)
        for si in [*range(n_doors, len(self.sites)), *range(n_doors)]:
            for (x, y) in self.sites[si].cells:
                self.site_of_cell[y, x] = si

        self.mover = mover_cls(self)

    def ticks(self, seconds: float) -> int:
        """``seconds`` in whole ticks, rounded half up, at least one."""
        return max(1, half_up(seconds / self.dt))

    # -- per-tick phases -----------------------------------------------------

    def _hazard_phase(self, t: float) -> np.ndarray:
        """Bring the view's frames to time t, hurt and kill the people
        inside and refresh their sight; returns the ascending ids of those
        whose air differs from ambient (none in clean air)."""
        world = self.world
        if world.ambient_air:
            return np.zeros(0, dtype=np.int64)
        world.temp_frame, world.od_frame, world.tox_frame = self.hazard.frame_at(t)
        inside = self.pop.inside()
        cx, cy = self.geometry.cells_of(self.pop.pos.take(inside, axis=0)).T
        temp = world.temp_frame[cy, cx]
        od = world.od_frame[cy, cx]
        tox = world.tox_frame[cy, cx]
        sensed = inside[(od > SENSE_EPS) | (temp > AMBIENT_TEMP + SENSE_EPS) | (tox > SENSE_EPS)]

        dec = health_decrement(temp, tox, self.dt, self.params)
        hurt = dec > 0
        if hurt.any():
            rows = inside[hurt]
            self.pop.health[rows] = np.maximum(0.0, self.pop.health[rows] - dec[hurt])
            dead = rows[self.pop.health[rows] <= 0.0]
            for i in dead:
                self._kill(int(i), t)
        self.pop.vision[inside] = visibility_range_bulk(od, self.pop.health[inside], self.params)
        return sensed

    def _kill(self, i: int, t: float) -> None:
        self.pop.status[i] = int(AgentStatus.DEAD)
        self.pop.end_t[i] = t
        self.events.append(EventRecord(t, "died", i, {}))
        self.mover.remove(i)

    def _premovement_phase(self, t: float, sensed: np.ndarray) -> np.ndarray:
        """Start everyone whose delay has elapsed or who is among the ids
        ``sensed``, those who sense the hazard directly; returns the newly
        moving indices.  The phase sleeps until the earliest pending delay
        is up, unless someone in the building senses the hazard."""
        if t + SENSE_EPS < self.wake_t and len(sensed) == 0:
            return np.zeros(0, dtype=np.int64)
        waiting = self.pop.status == int(AgentStatus.PREMOVEMENT)
        go = t + SENSE_EPS >= self.due_t
        go[sensed] = True
        start = np.flatnonzero(waiting & go)
        self.pop.status[start] = int(AgentStatus.MOVING)
        waiting[start] = False
        self.wake_t = float(self.due_t[waiting].min(initial=math.inf))
        return start

    def _decision_phase(self, k: int, t: float, newly_moving: np.ndarray) -> None:
        if not self.mover.decides:
            return
        if k % self.decide_every == 0:
            deciders = np.flatnonzero(self.pop.walking())
        else:
            deciders = newly_moving[self.pop.mobility[newly_moving] > 0]
        if len(deciders) == 0:
            return
        world = self.world
        world.t = t
        percepts = build_percepts(world, deciders)
        rng = self.streams.decisions
        replanned, announce = decide(world, deciders, percepts, self.beliefs, rng)
        replanners = deciders[replanned]
        self.pop.replans[replanners] += 1
        for i in replanners.tolist():
            self.events.append(EventRecord(t, "replanned", i, {"to": int(self.pop.target[i])}))
        self.mover.steer(deciders)
        # message barrier: deliveries land after every decision this round
        speaks = announce.any(axis=1)
        if not speaks.any():
            return
        delivered = inform_neighbors(deciders[speaks], announce[speaks], world, self.beliefs, rng)
        # one event per sender with a receiver, in ascending sender id,
        # holding how many it told; Beliefs records who heard what
        senders, counts = np.unique(delivered[:, 0], return_counts=True)
        for i, n in zip(senders.tolist(), counts.tolist()):
            self.events.append(EventRecord(t, "informed", i, {"receivers": n}))

    def _exit_agent(self, i: int, t: float, zone_id: int, door_id: str | None) -> None:
        self.pop.status[i] = int(AgentStatus.EXITED)
        self.pop.end_t[i] = t
        payload: dict = {"exit": int(zone_id)}
        if door_id is not None:
            payload["door"] = door_id
        self.events.append(EventRecord(t, "exited", i, payload))

    def _leave(self, t: float, ids: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Everyone of the ascending ``ids`` whose cell in the (n, 2)
        ``cells`` is an exit cell leaves the building, in id order; returns
        the (n,) mask of who left and the door-site index of each leaver
        (-1 where no site covers the cell).  Only the movers that walk
        people onto exit cells call it, and they keep no one to remove."""
        cx, cy = cells.T
        zone = self.geometry.zone_grid[cy, cx]
        left = zone >= 0
        site_index = self.site_of_cell[cy[left], cx[left]]
        for i, z, si in zip(ids[left].tolist(), zone[left].tolist(), site_index.tolist()):
            self._exit_agent(i, t, z, self.sites[si].door_id if si >= 0 else None)
        return left, site_index

    def field_layer(self, target: np.ndarray) -> np.ndarray:
        """The layer of ``world.exit_fields`` that people heading for the
        exit zones ``target`` walk down: each zone's own, or the all-exits
        layer after them for NO_TARGET."""
        return np.where(target >= 0, target, len(self.world.zone_cells)).astype(np.int64)

    # -- sampling and assembly ---------------------------------------------

    def _sample(self, t: float) -> None:
        self.trajectory.append(
            (
                t,
                self.ids,
                self.pop.pos[:, 0].astype(np.float32),
                self.pop.pos[:, 1].astype(np.float32),
                self.pop.health.astype(np.float32),
                self.pop.status.copy(),
            )
        )

    def run(self) -> RunResult:
        max_ticks = max(1, int(math.ceil(self.config.max_sim_time / self.dt - 1e-9)))
        k = 0
        while k < max_ticks:
            t = k * self.dt
            if k % self.sample_every == 0:
                self._sample(t)
            if len(self.pop.inside()) == 0:
                break
            sensed = self._hazard_phase(t)
            newly_moving = self._premovement_phase(t, sensed)
            self._decision_phase(k, t, newly_moving)
            self.mover.step(k, t)
            k += 1
        t_end = k * self.dt
        inside = len(self.pop.inside())
        timeout = inside > 0
        self.mover.finish(t_end)
        if not self.trajectory or self.trajectory[-1][0] != t_end:
            self._sample(t_end)

        pop = self.pop
        digest = state_digest(
            t_end, pop.pos[:, 0], pop.pos[:, 1], pop.status, pop.health, pop.nervousness, pop.insistence, pop.target
        )

        exited = int((pop.status == int(AgentStatus.EXITED)).sum())
        fatalities = int((pop.status == int(AgentStatus.DEAD)).sum())
        if exited + fatalities + inside != len(pop):
            raise SimulationError(f"tick {k}: {exited} exited + {fatalities} dead + {inside} inside != {len(pop)} people")

        outcomes = {int(AgentStatus.EXITED): "exited", int(AgentStatus.DEAD): "dead"}
        per_agent = [
            PerAgentRecord(
                id=i,
                spawn_t=0.0,
                end_t=None if math.isnan(end_t) else end_t,
                outcome=outcomes.get(status, "inside"),
                path_length=path_length,
                replan_count=replans,
            )
            for i, (status, end_t, path_length, replans) in enumerate(
                zip(pop.status.tolist(), pop.end_t.tolist(), pop.path_len.tolist(), pop.replans.tolist())
            )
        ]

        config_echo = {
            "backend": self.config.backend,
            "dt": self.dt,
            "seed": self.config.seed,
            "alarm_time": self.config.alarm_time,
            "max_sim_time": self.config.max_sim_time,
            "population": len(pop),
            "cell_size": self.geometry.cell_size,
            "params": {key: self.params[key] for key in sorted(self.params)},
        }

        return RunResult(
            backend=self.config.backend,
            dt=self.dt,
            seed=self.config.seed,
            population=len(pop),
            t_end=t_end,
            timeout=timeout,
            exited=exited,
            fatalities=fatalities,
            per_agent=per_agent,
            events=self.events,
            crossings=self.crossings,
            config_echo=config_echo,
            digest=digest,
            trajectory=self.trajectory,
            warnings=self.scenario.warnings + self.mover.warnings,
        )


class _Mover:
    """A movement backend as the shared phases see it (module docstring);
    each hook does nothing by default.

    The class constants give its cadence and whether it decides; a mover
    that uses the route network derives it itself.  ``remove`` is called
    only for a death; exits leave through ``_Simulation._leave`` or the
    mover's own bookkeeping, so only ``flow``, whose queues hold the dead,
    overrides it.  ``finish(t_end)`` is called once, when the run stops."""

    decision_interval = CA_DECISION_INTERVAL  # s between decision rounds by default
    trajectory_interval = 0.0  # s between samples by default; 0 = every tick
    decides = True             # runs decision rounds at all

    def __init__(self, sim: _Simulation):
        self.sim = weakref.proxy(sim)  # a cycle would keep finished runs alive until gc

    @property
    def warnings(self) -> list[str]:
        return []

    def steer(self, ids: np.ndarray) -> None:
        pass

    def remove(self, i: int) -> None:
        pass

    def finish(self, t_end: float) -> None:
        pass


class _CaMover(_Mover):
    """Synchronous steps on the occupancy lattice down the target's field.

    The mover keeps no state: each step reads the cells off ``pop.pos``
    and builds the lattice of those still inside after arrivals."""

    def __init__(self, sim: _Simulation):
        super().__init__(sim)
        self.v_grid = sim.geometry.cell_size / sim.dt

    def step(self, k: int, t: float) -> None:
        sim = self.sim
        pop = sim.pop
        geometry = sim.geometry
        # arrival check first: anyone standing on an exit cell leaves
        present = pop.inside()
        cells = geometry.cells_of(pop.pos.take(present, axis=0))
        left, _ = sim._leave(t, present, cells)
        occupancy = lattice(cells[~left], present[~left], geometry, k)

        # every walker has decided by now: it decides in the tick it starts
        move_ids = np.flatnonzero(pop.walking())
        ticks = speed_ticks(pop.desired[move_ids], self.v_grid)
        move_ids = move_ids[(ticks > 0) & (k % np.maximum(ticks, 1) == 0)]
        moved = ca_step(
            pop.pos,
            geometry,
            sim.world.exit_fields,
            sim.field_layer(pop.target),
            move_ids,
            occupancy,
            sim.streams.ca_conflicts,
            float(sim.params["ca_noise"]),
        )
        if len(moved) == 0:
            return
        cs = geometry.cell_size
        # everyone who moves was present, so their old cells were read above
        ox, oy = cells[np.searchsorted(present, moved)].T
        nx, ny = geometry.cells_of(pop.pos.take(moved, axis=0)).T
        pop.path_len[moved] += np.hypot((nx - ox) * cs, (ny - oy) * cs)
        # crossings: stepping onto an instrumented span from outside it
        site_new = sim.site_of_cell[ny, nx]
        site_old = sim.site_of_cell[oy, ox]
        entered = (site_new >= 0) & (site_new != site_old)
        if entered.any():
            counts = np.bincount(site_new[entered])
            for site_index in np.flatnonzero(counts).tolist():
                sim.crossings.append((t, sim.sites[site_index].door_id, int(counts[site_index])))


class _SfMover(_Mover):
    """Social-force bodies heading for waypoints along the route network,
    and the clog episodes at the doors they pass."""

    decision_interval = SF_DECISION_INTERVAL
    trajectory_interval = SF_TRAJECTORY_INTERVAL

    def __init__(self, sim: _Simulation):
        super().__init__(sim)
        self.state = SfState.from_bodies(sim.pop.pos, sim.pop.radius, sim.params)
        self.walls = wall_table(exposed_wall_cells(sim.geometry), sim.geometry, float(sim.params["sf_cutoff"]))
        self.waypoint = np.full((len(sim.pop), 2), np.nan)
        self.arch_every = sim.ticks(ARCH_CHECK_INTERVAL)
        # per site, its first crossing time and whether a clog episode is open
        self.first_cross_t: list[float | None] = [None] * len(sim.sites)
        self.clogged = [False] * len(sim.sites)
        # per target layer (exit zones, as the route table's rows, then no
        # target) and room (then no room), the next route arc, -1 for none;
        # per arc (then none), the point beyond its door, NaN without a door
        self.network = network = derive_network(sim.geometry, sim.params)
        self.n_rooms = sim.geometry.topology.n_rooms
        self.next_arc = np.pad(network.routes[2][:, : self.n_rooms], ((0, 1), (0, 1)), constant_values=-1)
        # the declared doors' sites come first; the exit:<z> arcs get no aim
        doors = {site.door_id: site for site in sim.sites[: len(sim.geometry.doors)]}
        self.door_aim = np.full((len(network.arcs) + 1, 2), np.nan)
        for arc_index, arc in enumerate(network.arcs):
            if arc.door_id in doors:
                self.door_aim[arc_index] = self._push_point(arc, doors[arc.door_id])

    @property
    def warnings(self) -> list[str]:
        return self.network.warnings + self.state.warnings

    # -- steering ------------------------------------------------------------

    def steer(self, ids: np.ndarray) -> None:
        """Aim each decider through the door of the next route arc toward
        its target exit, or at the nearest exit cell when that arc has no
        door.  Off the route (outside any room), or once the aim is within
        ``waypoint_reach``, hop down the target's field instead; an agent
        without a target hops down the all-exits field.  NaN marks a
        decider with nowhere lower to go."""
        sim = self.sim
        pos = sim.pop.pos.take(ids, axis=0)
        cx, cy = sim.geometry.cells_of(pos).T
        layer = sim.field_layer(sim.pop.target[ids])
        hop = self._hop(layer, cx, cy)
        arc = self.next_arc[layer, sim.geometry.room_labels[cy, cx]]
        aim = self.door_aim[arc]
        doorless = (arc >= 0) & np.isnan(aim[:, 0])
        for z, cells in enumerate(sim.world.zone_cells):
            rows = np.nonzero(doorless & (layer == z))[0]
            nearest, _ = sim.world.nearest_exit_cell(z, pos[rows])
            aim[rows] = sim.geometry.centres(cells[nearest])
        aim = np.where(np.isnan(aim), hop, aim)
        reached = np.hypot(aim[:, 0] - pos[:, 0], aim[:, 1] - pos[:, 1]) < float(sim.params["waypoint_reach"])
        self.waypoint[ids] = np.where((reached & ~np.isnan(hop[:, 0]))[:, None], hop, aim)

    def _hop(self, layer: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """(n, 2) centre of the steepest-descent neighbour of each cell on
        its field layer, NaN where no allowed step leads lower."""
        sim = self.sim
        nx, ny, allowed = sim.geometry.neighbourhood(cx, cy)
        # step 0 stays put and wins ties, so only a strictly lower step is taken
        pick = np.argmin(np.where(allowed, sim.world.exit_fields[layer[:, None], ny, nx], np.inf), axis=1)
        rows = np.arange(len(pick))
        out = sim.geometry.centres(np.stack([nx[rows, pick], ny[rows, pick]], axis=1))
        out[pick == 0] = np.nan
        return out

    def _push_point(self, arc, site: DoorSite) -> np.ndarray:
        """Where to aim when taking this arc through this door site: just
        beyond the door centre on the destination side."""
        geometry = self.sim.geometry
        center = site.center
        # destination-side cells adjacent to the span; an exit zone's own
        # cells are the zeros of its distance field
        if arc.dst >= self.n_rooms:
            labels, label = self.sim.world.exit_fields[arc.dst - self.n_rooms], 0.0
        else:
            labels, label = geometry.room_labels, arc.dst
        acc = np.zeros(2)
        count = 0
        for (x, y) in site.cells:
            for nx, ny in geometry.orthogonal(x, y):
                if labels[ny, nx] == label:
                    acc += geometry.centres((nx, ny))
                    count += 1
        if count:
            direction = acc / count - center
            norm = float(np.linalg.norm(direction))
            if norm > 1e-9:
                return center + direction / norm * (0.9 * geometry.cell_size)
        return center

    # -- movement ------------------------------------------------------------

    def step(self, k: int, t: float) -> None:
        self._move(k, t)
        if k % self.arch_every == 0:
            self._clog_phase(t)

    def _move(self, k: int, t: float) -> None:
        sim = self.sim
        pop = sim.pop
        state = self.state
        # only walkers have decided, so everyone else inside wants speed 0
        present = pop.inside()
        old_pos = pop.pos.take(present, axis=0)
        new_pos, cells = sf_step(state, sim.geometry, self.walls, present, pop.desired, self.waypoint, sim.dt, k, sim.params)
        delta = new_pos - old_pos
        pop.path_len[present] += np.hypot(delta[:, 0], delta[:, 1])

        # plane crossings through interior openings; openings lying on
        # exit cells swallow bodies before their centre reaches the
        # plane, so those are counted at removal below instead
        for site_index, site in enumerate(sim.sites):
            if site.covers_exit:
                continue
            rel_old = old_pos - site.center
            rel_new = new_pos - site.center
            s_old = rel_old @ site.upstream
            s_new = rel_new @ site.upstream
            tangent = np.array([-site.upstream[1], site.upstream[0]])
            offset = np.abs(rel_new @ tangent)
            crossed = (s_old > 0) & (s_new <= 0) & (offset <= site.half_span + CROSS_SLACK)
            count = int(crossed.sum())
            if count:
                self._crossed(t, site_index, count)

        # arrivals: a body whose centre reaches an exit cell is out; each
        # site's leavers count as one crossing, in order of its first leaver
        _, site_index = sim._leave(t, present, cells)
        through = site_index[site_index >= 0]
        counts = np.bincount(through)
        for si in dict.fromkeys(through.tolist()):
            self._crossed(t, si, int(counts[si]))

    def _crossed(self, t: float, site_index: int, count: int) -> None:
        sim = self.sim
        sim.crossings.append((t, sim.sites[site_index].door_id, count))
        if self.first_cross_t[site_index] is None:
            self.first_cross_t[site_index] = t

    def _clog_phase(self, t: float) -> None:
        sim = self.sim
        window = float(sim.params["clog_window"])
        positions = sim.pop.pos.take(sim.pop.inside(), axis=0)
        # persons through each door in (t - window, t]; crossings come in time order
        through = dict.fromkeys((site.door_id for site in sim.sites), 0)
        for et, door_id, n in reversed(sim.crossings):
            if et <= t - window:
                break
            through[door_id] += n
        for site_index, site in enumerate(sim.sites):
            first = self.first_cross_t[site_index]
            if first is None or t < first + window:
                continue
            rate = through[site.door_id] / window
            clogged, band = detect_arch(positions, site.center, site.upstream, rate, sim.params)
            if clogged != self.clogged[site_index]:
                self.clogged[site_index] = clogged
                kind = "clog_start" if clogged else "clog_end"
                sim.events.append(EventRecord(t, kind, site.door_id, {"band": band, "flow": rate}))

    def finish(self, t_end: float) -> None:
        """Close the clog episodes still open, so their durations are defined."""
        sim = self.sim
        for site, clogged in zip(sim.sites, self.clogged):
            if clogged:
                sim.events.append(EventRecord(t_end, "clog_end", site.door_id, {"end_of_run": True}))


class _FlowMover(_Mover):
    """Cohorts queueing along the coarse route network; routes are static,
    so there are no decision rounds."""

    decides = False

    def __init__(self, sim: _Simulation):
        super().__init__(sim)
        network = derive_network(sim.geometry, sim.params)
        self.n_rooms = sim.geometry.topology.n_rooms
        room_labels = sim.geometry.room_labels
        spawn_node = sim.scenario.population.spawn_node
        assignment: dict[int, int] = {}
        for i, (cx, cy) in enumerate(sim.geometry.cells_of(sim.pop.pos).tolist()):
            label = spawn_node if spawn_node is not None else int(room_labels[cy, cx])
            assignment[i] = label if label >= 0 else self._nearest_room_label(cx, cy)
        self.state = FlowState.from_assignment(network, assignment)

        # display/health positions for the coarse model: a room at its
        # cells' mean, a destination at its representative cell
        self.node_points: dict[int, np.ndarray] = {}
        for node in network.nodes:
            if node.kind == "room":
                ys, xs = np.nonzero(room_labels == node.id)
                point = cells_center(list(zip(xs.tolist(), ys.tolist())), sim.geometry.cell_size)
            else:
                point = sim.geometry.centres(node.cell)
            self.node_points[node.id] = np.array(point)
        # a declared door's arcs sit at its site's centre, the others midway
        doors = {site.door_id: site for site in sim.sites[: len(sim.geometry.doors)]}
        self.arc_points = [
            doors[arc.door_id].center
            if arc.door_id in doors
            else 0.5 * (self.node_points[arc.src] + self.node_points[arc.dst])
            for arc in network.arcs
        ]

    def _nearest_room_label(self, cx: int, cy: int) -> int:
        """Room of the closest labelled cell (nearest Chebyshev ring, then
        squared distance, then the lower label); for agents spawned on
        door-span cells that belong to no room region."""
        labels = self.sim.geometry.room_labels
        ys, xs = np.nonzero(labels >= 0)
        if len(xs) == 0:
            raise SimulationError(f"no room region near cell ({cx}, {cy})")
        dx, dy, rooms = xs - cx, ys - cy, labels[ys, xs]
        return int(rooms[np.lexsort((rooms, dx * dx + dy * dy, np.maximum(abs(dx), abs(dy))))[0]])

    @property
    def warnings(self) -> list[str]:
        return self.state.network.warnings

    def remove(self, i: int) -> None:
        self.state.remove(i)

    def step(self, k: int, t: float) -> None:
        sim, pop = self.sim, self.sim.pop
        for cohort in flow_step(self.state, pop.walking(), k):
            arc = self.state.network.arcs[cohort.arc_index]
            if arc.door_id:
                sim.crossings.append((t, arc.door_id, len(cohort.ids)))
            dst_pt = self.node_points[arc.dst]
            pop.path_len[cohort.ids] += float(np.linalg.norm(dst_pt - self.node_points[arc.src]))
            pop.pos[cohort.ids] = dst_pt
            if arc.dst >= self.n_rooms:
                for agent_id in cohort.ids:
                    sim._exit_agent(agent_id, t, arc.dst - self.n_rooms, arc.door_id)
        for cohort in self.state.in_transit:
            pop.pos[cohort.ids] = self.arc_points[cohort.arc_index]
        self.state.check_conservation(k, pop.inside())


MOVERS = {"ca": _CaMover, "sf": _SfMover, "flow": _FlowMover}


def run(scenario: Scenario | str, config: RunConfig | None = None) -> RunResult:
    """Simulate a scenario to completion (or the time limit).

    ``scenario`` is either a parsed ``Scenario`` or raw JSON text.
    ``config`` overrides the scenario's embedded run configuration when
    given.  Identical scenario + config + seed always produces an
    identical result, including its state digest.
    """
    if isinstance(scenario, str):
        scenario = parse_scenario(scenario)
    return _Simulation(scenario, config).run()
