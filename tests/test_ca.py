"""Lattice backend: movement rule, conflicts, and a scalar reference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evacsim import run
from evacsim.agents import AgentStatus
from evacsim.ca import EMPTY_CELL, ca_step, conflict_winners, lattice, speed_ticks
from evacsim.engine import _Simulation
from evacsim.errors import SimulationError
from evacsim.scenario import STEPS

from conftest import grid_rows, instant_reaction, make_scenario, room_doc

BIG_STAY_COST = 1e30


def _geometry(rows):
    doc = room_doc(rows, count=1, spawn=[1, 1, 1, 1])
    return make_scenario(doc).geometry


def _positions(geo, cells):
    """Agent i at the centre of ``cells[i]``."""
    return np.array([((x + 0.5) * geo.cell_size, (y + 0.5) * geo.cell_size) for x, y in cells])


def _lattice(geo, pos):
    """The occupancy grid of everyone at ``pos``, built at tick 0."""
    return lattice(geo.cells_of(pos), np.arange(len(pos)), geo, 0)


def _cell(geo, pos, i):
    """The cell agent i's position lies in."""
    return tuple(geo.cells_of(pos[i:i + 1])[0].tolist())


def _step_once(geo, cells, seed=0, noise=0.0, fields=None):
    pos = _positions(geo, cells)
    occupancy = _lattice(geo, pos)
    before = occupancy.copy()
    if fields is None:
        fields = geo.exit_fields[-1:]
    idx = np.zeros(len(cells), dtype=np.int64)
    ids = np.arange(len(cells), dtype=np.int64)
    rng = np.random.default_rng(seed)
    moved = ca_step(pos, geo, fields, idx, ids, occupancy, rng, noise)
    assert np.array_equal(occupancy, before)  # a step writes positions only
    return pos, moved


# -- speed quantisation -------------------------------------------------------


def test_speed_ticks_rounds_to_nearest_divisor():
    v_grid = 1.34
    assert speed_ticks(v_grid, v_grid) == 1
    assert speed_ticks(v_grid / 2, v_grid) == 2
    assert speed_ticks(v_grid / 3, v_grid) == 3
    # the knee sits at 2/3 of the lattice speed: 1.5 rounds up to 2
    assert speed_ticks(v_grid / 1.5, v_grid) == 2
    assert speed_ticks(v_grid / 1.49, v_grid) == 1
    assert speed_ticks(10 * v_grid, v_grid) == 1
    assert speed_ticks(0.0, v_grid) == 0
    assert speed_ticks(-1.0, v_grid) == 0
    speeds = np.array([v_grid, v_grid / 2, v_grid / 1.5, 10 * v_grid, 0.0, -1.0])
    assert speed_ticks(speeds, v_grid).tolist() == [1, 2, 2, 1, 0, 0]


def test_zero_speed_agent_never_steps():
    # moving from t = 0 but with no health left: speed 0 must mean no
    # step at all, not one step on the tick where k % skip == 0
    doc = room_doc(
        grid_rows(8, 5, exits=[(7, 2)]),
        count=1,
        spawn=[2, 2, 2, 2],
        attributes=[
            {"attr": "health", "dist": "constant", "value": 0.0},
            {"attr": "reaction_time", "dist": "constant", "value": 0.0},
        ],
        alarm_time=0.0,
        max_sim_time=10.0,
    )
    result = run(make_scenario(doc))
    assert result.timeout
    assert result.per_agent[0].path_length == 0.0


# -- single-step mechanics -----------------------------------------------------


def test_agent_descends_the_distance_field():
    geo = _geometry(["######", "#...E#", "######"])
    pos, moved = _step_once(geo, [(1, 1)])
    assert moved.tolist() == [0]
    assert _cell(geo, pos, 0) == (2, 1)
    # the winner stands at its new cell's centre, its old cell is free
    assert pos[0].tolist() == [2.5 * geo.cell_size, 1.5 * geo.cell_size]
    occupancy = _lattice(geo, pos)
    assert occupancy[1, 1] == EMPTY_CELL and occupancy[1, 2] == 0


def test_agent_on_flat_field_stays_put():
    geo = _geometry(["######", "#...E#", "######"])
    flat = np.zeros((3, 6))[None]
    pos, moved = _step_once(geo, [(2, 1)], fields=flat)
    assert len(moved) == 0
    assert _cell(geo, pos, 0) == (2, 1)


def test_blocked_agent_waits_in_line():
    geo = _geometry(["######", "#...E#", "######"])
    pos, moved = _step_once(geo, [(1, 1), (2, 1)])
    # the leader advances, the follower may not enter its old cell yet
    assert _cell(geo, pos, 1) == (3, 1)
    assert _cell(geo, pos, 0) == (1, 1)
    assert moved.tolist() == [1]


def test_diagonal_may_not_cut_a_blocked_corner():
    rows = [
        "#####",
        "#..E#",
        "#.###",
        "#...#",
        "#####",
    ]
    geo = _geometry(rows)
    # from (1, 2) the diagonal to (2, 1) squeezes past the wall at (2, 2)
    pos, moved = _step_once(geo, [(1, 2)])
    assert _cell(geo, pos, 0) == (1, 1)


def test_conflict_lottery_admits_exactly_one():
    rows = [
        "#####",
        "#.#.#",
        "#.E.#",
        "#.#.#",
        "#####",
    ]
    geo = _geometry(rows)
    wins = {1: 0, 3: 0}
    for seed in range(200):
        pos, moved = _step_once(geo, [(1, 2), (3, 2)], seed=seed)
        assert len(moved) == 1
        _lattice(geo, pos)  # still one person per cell
        winner = int(moved[0])
        winner_x = _cell(geo, pos, winner)[0]
        wins[winner_x] = wins.get(winner_x, 0) + 1
        # the loser kept its cell
        loser = 1 - winner
        assert _cell(geo, pos, loser) in [(1, 2), (3, 2)]
    # both contenders win a fair share across seeds
    assert wins[2] == 200
    assert min(w for x, w in wins.items() if x == 2) >= 0


def test_conflict_lottery_is_roughly_fair():
    rows = [
        "#####",
        "#.#.#",
        "#.E.#",
        "#.#.#",
        "#####",
    ]
    geo = _geometry(rows)
    first_wins = 0
    for seed in range(300):
        pos, moved = _step_once(geo, [(1, 2), (3, 2)], seed=seed)
        if int(moved[0]) == 0:
            first_wins += 1
    assert 90 <= first_wins <= 210


def _conflict_winners_one_cell_at_a_time(flat, rng):
    """Reference: split the proposals by target cell and settle each
    contested cell with its own scalar draw."""
    order = np.argsort(flat, kind="stable")
    groups = np.split(order, np.nonzero(np.diff(flat[order]))[0] + 1)
    winners = []
    for group in groups:
        if len(group) == 1:
            winners.append(group[0])
        else:
            u = rng.random()
            winners.append(group[min(int(u * len(group)), len(group) - 1)])
    return np.array(winners, dtype=np.int64)


def test_conflict_winners_match_one_cell_at_a_time():
    sets = np.random.default_rng(11)
    for trial in range(200):
        n = int(sets.integers(1, 60))
        flat = sets.integers(0, int(sets.integers(1, 2 * n + 1)), size=n)  # few cells: many conflicts
        rng, reference = np.random.default_rng(trial), np.random.default_rng(trial)
        got = conflict_winners(flat, rng)
        want = _conflict_winners_one_cell_at_a_time(flat, reference)
        assert got.dtype == want.dtype and np.array_equal(got, want), trial
        assert rng.bit_generator.state == reference.bit_generator.state, trial


def test_the_lattice_holds_each_person_on_their_cell_and_refuses_two_on_one():
    geo = _geometry(["######", "#...E#", "######"])
    occupancy = _lattice(geo, _positions(geo, [(3, 1), (1, 1)]))
    assert occupancy.dtype == np.int32 and occupancy.shape == (3, 6)
    assert occupancy[1, 3] == 0 and occupancy[1, 1] == 1
    assert (occupancy == EMPTY_CELL).sum() == occupancy.size - 2
    # agent 2 on agent 0's cell
    pos = _positions(geo, [(2, 1), (1, 1), (2, 1)])
    with pytest.raises(SimulationError, match=r"^tick 0: agents \[0, 2\] stand on one cell \(2, 1\)$"):
        _lattice(geo, pos)


# -- the lattice inside a run -----------------------------------------------------


def _simulation(backend):
    doc = room_doc(grid_rows(10, 6, exits=[(9, 3)]), count=8, backend=backend, spawn=[1, 1, 4, 4])
    scenario = make_scenario(doc)
    return _Simulation(scenario, scenario.config)


@pytest.mark.parametrize("backend", ["sf"])
def test_the_mover_state_moves_the_population_positions(backend):
    sim = _simulation(backend)
    assert sim.mover.state.pos is sim.pop.pos


def test_a_lattice_fault_names_the_tick_being_stepped():
    def corrupted():
        # agent 1 put on agent 0's cell
        sim = _simulation("ca")
        sim.pop.pos[1] = sim.pop.pos[0]
        x, y = sim.geometry.cells_of(sim.pop.pos[:1])[0].tolist()
        return sim, rf"agents \[0, 1\] stand on one cell \({x}, {y}\)$"

    # at the first tick nobody walks yet: the check still runs
    sim, message = corrupted()
    with pytest.raises(SimulationError, match=rf"^tick 0: {message}"):
        sim.run()
    sim, message = corrupted()
    sim.pop.status[:] = int(AgentStatus.MOVING)
    with pytest.raises(SimulationError, match=rf"^tick 7: {message}"):
        sim.mover.step(7, 7 * sim.dt)


# -- scalar reference over whole runs -------------------------------------------


def enumerate_corridor(geo, dt, starts, reaction, max_ticks=500):
    """Exhaustive scalar replay of the synchronous lattice rule.

    ``starts`` maps id -> cell.  Returns (exit tick per id, positions per
    tick).  Only valid while proposals never contest a cell, which holds
    in single-file corridors with one exit; asserted below.
    """
    field = geo.exit_fields[-1]
    exit_cells = {cell for zone in geo.exit_zones for cell in zone.cells}
    pos = dict(starts)
    eligible = {i: math.ceil(reaction / dt - 1e-9) for i in pos}
    exit_ticks = {}
    frames = [dict(pos)]
    for k in range(max_ticks):
        for i in sorted(pos):
            if pos[i] in exit_cells and k >= eligible[i]:
                exit_ticks[i] = k
                del pos[i]
        occupied = set(pos.values())
        proposals = {}
        for i in sorted(pos):
            if k < eligible[i]:
                continue
            x, y = pos[i]
            best_idx, best_cost = 0, None
            for idx, (dx, dy) in enumerate(STEPS):
                nx, ny = x + dx, y + dy
                if not geo.is_open(nx, ny):
                    cost = BIG_STAY_COST if idx == 0 else math.inf
                elif idx and (nx, ny) in occupied:
                    cost = math.inf
                elif dx and dy and not (geo.is_open(nx, y) and geo.is_open(x, ny)):
                    cost = math.inf
                else:
                    cost = float(field[ny, nx])
                if best_cost is None or cost < best_cost:
                    best_cost, best_idx = cost, idx
            if best_idx != 0:
                dx, dy = STEPS[best_idx]
                proposals[i] = (x + dx, y + dy)
        targets = list(proposals.values())
        assert len(set(targets)) == len(targets), "corridor rule must be conflict-free"
        pos.update(proposals)
        frames.append(dict(pos))
        if not pos:
            break
    return exit_ticks, frames


def test_corridor_runs_match_the_scalar_reference():
    rng = np.random.default_rng(23)
    for trial in range(12):
        length = int(rng.integers(3, 7))
        count = int(rng.integers(1, min(3, length - 1) + 1))
        rows = grid_rows(length + 3, 3, exits=[(length + 1, 1)])
        doc = room_doc(
            rows,
            count=count,
            backend="ca",
            seed=int(rng.integers(0, 1000)),
            spawn=[1, 1, length, 1],
            attributes=instant_reaction(),
            overrides={"ca_noise": 0.0},
            max_sim_time=60.0,
        )
        result = run(make_scenario(doc))
        assert result.exited == count, f"trial {trial}"

        cell = 0.5
        t0, ids0, xs0, ys0, _, _ = result.trajectory[0]
        starts = {
            int(i): (int(x / cell), int(y / cell))
            for i, x, y in zip(ids0, xs0, ys0)
        }
        exit_ticks, frames = enumerate_corridor(geo := make_scenario(doc).geometry, result.dt, starts, 1.0)

        got_exit_ticks = {
            e.subject: round(e.t / result.dt) for e in result.events if e.kind == "exited"
        }
        assert got_exit_ticks == exit_ticks, f"trial {trial}"

        for frame in result.trajectory:
            t, ids, xs, ys, _, statuses = frame
            k = round(t / result.dt)
            if k >= len(frames):
                break
            want = frames[k]
            for i, x, y, status in zip(ids, xs, ys, statuses):
                if int(i) not in want:
                    continue  # already exited in the reference
                wx, wy = want[int(i)]
                assert (int(x / cell), int(y / cell)) == (wx, wy), (trial, k, i)
