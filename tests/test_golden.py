"""Golden state digests of the bundled scenarios.

Each case runs a shipped scenario (optionally cut at a simulated time
limit or moved to another backend) and compares the run's 64-bit state
digest, and the outcome the digest does not see (exits, deaths, end
time, events by kind and crossings per door), with the values the
simulator has always produced for it.  A few runs also pin a fingerprint
of the per-agent records.  Any change to spawning, the
decision layer, a movement backend or the hazard coupling moves a
digest, so a refactor that is meant to keep behaviour must keep all of
them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
from collections import Counter

import numpy as np
import pytest

import evacsim.socialforce as sf_mod
from evacsim import EMPTY_STATE_DIGEST, export_trajectories, parse_scenario, run, serialize_scenario
from evacsim.agents import AgentStatus
from evacsim.engine import MOVERS, SENSE_EPS, _Simulation

from conftest import ROOT, SCENARIOS, grid_rows, instant_reaction, make_scenario, room_doc, run_module


def _scenario_text(name, max_sim_time=None, backend=None, smoke=None):
    with open(os.path.join(SCENARIOS, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if max_sim_time is not None:
        doc["config"]["max_sim_time"] = max_sim_time
    if backend is not None:
        doc["config"]["backend"] = backend
    if smoke is not None:
        doc["hazard"]["builtin"].update(smoke)
    return json.dumps(doc)


def _outcome(result):
    """What a run ends with beyond its digest: exit and death counts,
    end time, events by kind and people through each instrumented door."""
    crossings = Counter()
    for _t, door_id, count in result.crossings:
        crossings[door_id] += count
    return {
        "exited": result.exited,
        "fatalities": result.fatalities,
        "t_end": result.t_end,
        "events": dict(Counter(event.kind for event in result.events)),
        "crossings": dict(crossings),
    }


def _outcome_of(exited, t_end, events, crossings, fatalities=0):
    return {"exited": exited, "fatalities": fatalities, "t_end": t_end, "events": events, "crossings": crossings}


def _shipped(name, max_sim_time, digest, outcome, backend=None):
    key = [name] + ([backend] if backend else []) + [str(max_sim_time), digest]
    return pytest.param(name, max_sim_time, backend, digest, outcome, id="-".join(key))


@pytest.mark.parametrize(
    "name, max_sim_time, backend, digest, outcome",
    [
        _shipped("corridor", None, "ce7b1e609c6b9641", _outcome_of(40, 192.0, {"exited": 40}, {"exit:0": 40})),
        _shipped(
            "herding_two_exit",
            None,
            "533cf7fd54476ea3",
            _outcome_of(80, 10.74074074074074, {"exited": 80, "replanned": 14}, {"exit:0": 40, "exit:1": 40}),
        ),
        _shipped("minimal_room", None, "d6eeecd0427097f3", _outcome_of(10, 120.14925373134328, {"exited": 10}, {"exit:0": 10})),
        _shipped(
            "two_rooms",
            None,
            "225cb0f5cde75f80",
            _outcome_of(60, 202.61194029850745, {"exited": 60}, {"exit:0": 60, "mid": 60}),
        ),
        _shipped(
            "big_hall_ca",
            10.0,
            "a7eb833e0113b126",
            _outcome_of(6, 10.074626865671641, {"exited": 6}, {"exit:0": 1, "exit:1": 2, "exit:2": 3, "exit:3": 2}),
        ),
        _shipped("benchmark_room_sf", 5.0, "d3d223ef8496227b", _outcome_of(0, 5.0, {}, {})),
        # two_rooms has the only interior door of the shipped scenarios, so
        # these two are the goldens that reach flow door crossings and
        # social-force plane crossings
        _shipped(
            "two_rooms", None, "42eeeee20db2d113", _outcome_of(60, 194.0, {"exited": 60}, {"exit:0": 60, "mid": 60}), "flow"
        ),
        _shipped(
            "two_rooms", 40.0, "ee083f0c37d5130a", _outcome_of(11, 40.0, {"exited": 11}, {"exit:0": 11, "mid": 19}), "sf"
        ),
        # every other shipped scenario under every backend it runs on
        _shipped("minimal_room", 10.0, "dba7aa1fe30ce229", _outcome_of(1, 10.0, {"exited": 1}, {"exit:0": 1}), "sf"),
        _shipped("minimal_room", None, "53d48ecfddcb4813", _outcome_of(10, 120.0, {"exited": 10}, {"exit:0": 10}), "flow"),
        _shipped(
            "corridor", None, "cc106ed0655a26b4", _outcome_of(40, 204.4776119402985, {"exited": 40}, {"exit:0": 40}), "ca"
        ),
        _shipped(
            "herding_two_exit",
            10.0,
            "ecc1c880ad2bc063",
            _outcome_of(27, 10.0, {"replanned": 82, "exited": 27}, {"exit:0": 15, "exit:1": 12}),
            "sf",
        ),
        _shipped("herding_two_exit", None, "00ee2df3cbb3b948", _outcome_of(80, 42.0, {"exited": 80}, {"exit:0": 80}), "flow"),
        _shipped("big_hall_ca", 5.0, "50ff8f7fe08b0ff3", _outcome_of(1, 5.0, {"exited": 1}, {"exit:0": 1}), "sf"),
        _shipped("big_hall_ca", 10.0, "f28e889fea5d7094", _outcome_of(7, 10.0, {"exited": 7}, {"exit:0": 7}), "flow"),
        # one person on the exit span when the clock stops: two crossings, one exit
        _shipped(
            "benchmark_room_sf", 10.0, "1f7a1d8e0ba236dd", _outcome_of(1, 10.074626865671641, {"exited": 1}, {"exit:0": 2}), "ca"
        ),
        _shipped("benchmark_room_sf", 10.0, "9f43eef10cef1e57", _outcome_of(3, 10.0, {"exited": 3}, {"exit:0": 3}), "flow"),
    ],
)
def test_shipped_scenario_digest(name, max_sim_time, backend, digest, outcome):
    result = run(_scenario_text(name, max_sim_time, backend))
    assert result.digest == digest
    assert _outcome(result) == outcome


def test_benchmark_room_sf_through_first_contacts(monkeypatch):
    # the benchmark room until its bodies first touch: a wall at tick
    # 1173 and a pair at tick 1223, so friction on that room runs here
    contacts = Counter()
    for name in ("pair_forces", "wall_forces"):
        kernel = getattr(sf_mod, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            out = _kernel(*args, **kwargs)
            contacts[_name] += len(out[1][0])
            return out

        monkeypatch.setattr(sf_mod, name, counted)
    result = run(_scenario_text("benchmark_room_sf", 25.0))
    assert result.digest == "ab595d31669a7d2e"
    assert _outcome(result) == _outcome_of(12, 25.0, {"exited": 12}, {"exit:0": 12})
    assert contacts == {"pair_forces": 1, "wall_forces": 3}


# thick, hot and toxic smoke from the room centre: people die on the
# backends that move slowly enough to stay exposed
LETHAL_SMOKE = {"rate": 5.0, "tox_per_od": 0.05, "temp_per_od": 40.0, "duration": 60.0}


@pytest.mark.parametrize(
    "backend, digest, dead, outcome",
    [
        pytest.param(
            "sf",
            "f8db001c5883694e",
            2,
            _outcome_of(
                78, 26.35, {"died": 2, "exited": 78, "replanned": 102}, {"exit:0": 38, "exit:1": 40}, fatalities=2
            ),
            id="sf-f8db001c5883694e-2",
        ),
        pytest.param(
            "flow",
            "2b885fc0610a06d5",
            13,
            _outcome_of(56, 30.0, {"died": 13, "exited": 56}, {"exit:0": 56}, fatalities=13),
            id="flow-2b885fc0610a06d5-13",
        ),
    ],
)
def test_lethal_smoke_digest(backend, digest, dead, outcome):
    result = run(_scenario_text("herding_two_exit", 30.0, backend, LETHAL_SMOKE))
    assert result.fatalities == dead
    assert result.digest == digest
    assert _outcome(result) == outcome


# smoke beside the west exit: the goldens that reach hazard-scored sight
# lines, blocked-exit discovery and messaging under a decision backend
SMOKE_BESIDE_EXIT = {"source": [4, 21], "rate": 3.0}


@pytest.mark.parametrize(
    "backend, max_sim_time, digest, outcome, receivers",
    [
        pytest.param(
            "ca",
            None,
            "9ce7b98121e43d01",
            _outcome_of(
                80, 17.59259259259259, {"exited": 80, "replanned": 14, "informed": 11}, {"exit:0": 36, "exit:1": 44}
            ),
            65,
            id="ca-9ce7b98121e43d01",
        ),
        pytest.param(
            "sf",
            10.0,
            "18c1103aac244c83",
            _outcome_of(22, 10.0, {"exited": 22, "replanned": 104, "informed": 60}, {"exit:0": 12, "exit:1": 10}),
            1485,
            id="sf-10.0-18c1103aac244c83",
        ),
    ],
)
def test_smoke_beside_an_exit_digest(backend, max_sim_time, digest, outcome, receivers):
    result = run(_scenario_text("herding_two_exit", max_sim_time, backend, SMOKE_BESIDE_EXIT))
    assert result.digest == digest
    assert _outcome(result) == outcome
    assert sum(e.payload["receivers"] for e in result.events if e.kind == "informed") == receivers


# a measured-hazard series read from a CSV file: smoke by the west exit
# and a haze over the middle of the room (tests/hazard_west_exit.csv);
# the goldens that run the file branch of the hazard source
HAZARD_FILE_DIR = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize(
    "backend, max_sim_time, digest, outcome, receivers",
    [
        pytest.param(
            "ca",
            None,
            "e70d43646611e64b",
            _outcome_of(
                80, 14.259259259259258, {"exited": 80, "replanned": 29, "informed": 50}, {"exit:0": 14, "exit:1": 66}
            ),
            1158,
            id="ca-e70d43646611e64b",
        ),
        pytest.param(
            "sf",
            10.0,
            "d8ba0129f3a87174",
            _outcome_of(16, 10.0, {"exited": 16, "replanned": 50, "informed": 75}, {"exit:0": 4, "exit:1": 12}),
            2478,
            id="sf-10.0-d8ba0129f3a87174",
        ),
        pytest.param(
            "flow", None, "074afdea452e0f09", _outcome_of(80, 41.0, {"exited": 80}, {"exit:0": 80}), 0, id="flow-074afdea452e0f09"
        ),
    ],
)
def test_hazard_file_digest(backend, max_sim_time, digest, outcome, receivers):
    doc = json.loads(_scenario_text("herding_two_exit", max_sim_time, backend))
    doc["hazard"] = {"file": "hazard_west_exit.csv"}
    scenario = parse_scenario(json.dumps(doc), HAZARD_FILE_DIR)
    assert scenario.hazard_source.kind == "file"
    result = run(scenario)
    assert result.digest == digest
    assert _outcome(result) == outcome
    assert sum(e.payload["receivers"] for e in result.events if e.kind == "informed") == receivers


# one person in ten a top leader and one in ten a second-level leader, with
# spread-out collaboration: the goldens whose herd weights are not all 1.0,
# so the float sums of votes and totals depend on their summation order
LEADERS = [
    {"attr": "role", "dist": "categorical", "values": [0, 1, 2], "weights": [0.8, 0.1, 0.1]},
    {"attr": "collaboration", "dist": "uniform", "lo": 0.0, "hi": 1.0},
]


@pytest.mark.parametrize(
    "backend, max_sim_time, smoke, digest, outcome, receivers",
    [
        pytest.param(
            "ca",
            None,
            None,
            "6059a43af65f2287",
            _outcome_of(80, 10.925925925925926, {"exited": 80, "replanned": 23}, {"exit:0": 41, "exit:1": 39}),
            0,
            id="ca-6059a43af65f2287",
        ),
        pytest.param(
            "sf",
            10.0,
            None,
            "36d7216ebce29e0b",
            _outcome_of(19, 10.0, {"exited": 19, "replanned": 74}, {"exit:0": 10, "exit:1": 9}),
            0,
            id="sf-10.0-36d7216ebce29e0b",
        ),
        pytest.param(
            "ca",
            None,
            SMOKE_BESIDE_EXIT,
            "8d3d57145300e343",
            _outcome_of(
                80, 17.77777777777778, {"exited": 80, "replanned": 16, "informed": 10}, {"exit:0": 34, "exit:1": 46}
            ),
            92,
            id="ca-smoke-8d3d57145300e343",
        ),
    ],
)
def test_leaders_digest(backend, max_sim_time, smoke, digest, outcome, receivers):
    doc = json.loads(_scenario_text("herding_two_exit", max_sim_time, backend, smoke))
    doc["population"]["attributes"] += LEADERS
    result = run(json.dumps(doc))
    assert result.digest == digest
    assert _outcome(result) == outcome
    assert sum(e.payload["receivers"] for e in result.events if e.kind == "informed") == receivers


@pytest.mark.parametrize(
    "backend, max_sim_time, smoke, leaders",
    [
        pytest.param("ca", None, SMOKE_BESIDE_EXIT, False, id="smoke-ca"),
        pytest.param("sf", 10.0, SMOKE_BESIDE_EXIT, False, id="smoke-sf"),
        pytest.param("ca", None, None, True, id="leaders-ca"),
        pytest.param("sf", 10.0, None, True, id="leaders-sf"),
        pytest.param("ca", None, SMOKE_BESIDE_EXIT, True, id="leaders-smoke-ca"),
    ],
)
def test_every_walker_has_decided_before_the_mover_steps(monkeypatch, backend, max_sim_time, smoke, leaders):
    # the movers read Population.desired as decide left it: only walkers
    # decide, each in the tick it starts, before the mover steps
    walked = []
    for mover in (MOVERS["ca"], MOVERS["sf"]):

        def step(self, k, t, _step=mover.step):
            pop = self.sim.pop
            walking = pop.walking()
            inside = pop.inside()
            assert (pop.desired[inside[~walking[inside]]] == 0.0).all(), k
            assert (pop.desired[walking] > 0.0).all(), k
            walked.append(int(walking.sum()))
            _step(self, k, t)

        monkeypatch.setattr(mover, "step", step)
    doc = json.loads(_scenario_text("herding_two_exit", max_sim_time, backend, smoke))
    if leaders:
        doc["population"]["attributes"] += LEADERS
    run(json.dumps(doc))
    assert max(walked) > 0 and 0 in walked  # some steps before the first start, many after


# everyone spawned in room 0 of the derived network: the goldens that
# reach spawn-by-node, under every backend
@pytest.mark.parametrize(
    "backend, digest, outcome",
    [
        pytest.param(
            "flow",
            "ceab33d6a94a7797",
            _outcome_of(44, 60.0, {"exited": 44}, {"exit:0": 44, "mid": 45}),
            id="flow-ceab33d6a94a7797",
        ),
        pytest.param(
            "ca",
            "1dde314bbe6bfb56",
            _outcome_of(39, 60.07462686567164, {"exited": 39}, {"exit:0": 39, "mid": 45}),
            id="ca-1dde314bbe6bfb56",
        ),
        pytest.param(
            "sf",
            "e8b294801adcc1bd",
            _outcome_of(23, 60.0, {"exited": 23}, {"exit:0": 23, "mid": 33}),
            id="sf-e8b294801adcc1bd",
        ),
    ],
)
def test_spawn_by_node_digest(backend, digest, outcome):
    doc = json.loads(_scenario_text("two_rooms", 60.0, backend))
    doc["population"]["spawn"] = {"node": 0}
    scenario = parse_scenario(json.dumps(doc))
    text = serialize_scenario(scenario)
    assert json.loads(text)["population"]["spawn"] == {"node": 0}
    assert serialize_scenario(parse_scenario(text)) == text
    result = run(scenario)
    assert result.digest == digest
    assert _outcome(result) == outcome
    _t, _ids, xs, ys, _health, _status = result.trajectory[0]
    cx, cy = scenario.geometry.cells_of(np.stack([xs, ys], axis=1)).T
    assert (scenario.geometry.room_labels[cy, cx] == 0).all()


def test_flow_starts_people_on_door_cells_in_the_nearest_room():
    # door-span cells belong to no room region, so the flow backend starts
    # the people standing there in the closest room (the lower label on a
    # tie): both go through the door and out
    doc = json.loads(_scenario_text("two_rooms", None, "flow"))
    doc["population"] = {"count": 2, "spawn": {"rect": [17, 8, 17, 9]}}
    result = run(json.dumps(doc))
    assert result.digest == "135030a0f96c2e29"
    assert _outcome(result) == _outcome_of(2, 100.0, {"exited": 2}, {"mid": 2, "exit:0": 2})


@pytest.mark.parametrize("backend", ["ca", "sf"])
def test_a_door_over_part_of_an_exit_keeps_its_own_cells(backend):
    # door main covers two of the exit's three cells, so the rest of the
    # zone is the doorless opening exit:0; whoever leaves from a door cell
    # leaves through main, as on the route network that flow walks
    door_cells = [(9, 2), (9, 3)]
    doc = room_doc(
        grid_rows(10, 6, exits=door_cells + [(9, 4)]),
        count=8,
        backend=backend,
        max_sim_time=60.0,
        doors=[{"id": "main", "cells": [list(c) for c in door_cells]}],
        attributes=instant_reaction(),
    )
    sim = _Simulation(make_scenario(doc))
    result = sim.run()
    assert result.exited == 8
    cells = sim.geometry.cells_of(sim.pop.pos)
    doors = {event.subject: event.payload["door"] for event in result.events if event.kind == "exited"}
    assert doors == {i: "main" if tuple(cells[i]) in door_cells else "exit:0" for i in doors}
    assert "main" in doors.values() and "main" in {door_id for _t, door_id, _n in result.crossings}


# an L-shaped exit zone, and a room whose mean cell row lies just below a
# power of two, so that the last bit of its centre depends on how the mean
# is rounded: the goldens for an opening and a flow room that are not
# straight spans
L_EXIT = [(x, 0) for x in range(16, 22)] + [(21, 1)]


@pytest.mark.parametrize(
    "backend, max_sim_time, digest, outcome",
    [
        pytest.param(
            "flow",
            30.0,
            "f8dbe574b98446a6",
            _outcome_of(15, 30.0, {"exited": 15}, {"exit:0": 15}),
            id="flow-30.0-f8dbe574b98446a6",
        ),
        pytest.param(
            "sf",
            20.0,
            "e37d1235b51ae647",
            _outcome_of(12, 20.0, {"exited": 12}, {"exit:0": 12}),
            id="sf-20.0-e37d1235b51ae647",
        ),
    ],
)
def test_irregular_room_and_exit_digest(backend, max_sim_time, digest, outcome):
    rows = grid_rows(22, 9, exits=L_EXIT, obstacles=[(7, 7), (14, 7), (17, 7)])
    result = run(json.dumps(room_doc(rows, count=30, backend=backend, seed=3, max_sim_time=max_sim_time)))
    assert result.digest == digest
    assert _outcome(result) == outcome


@functools.cache
def _run_once(text):
    """One run per scenario text for the record and trajectory pins, which
    only read the result."""
    return run(text)


def _per_agent_fingerprint(result):
    """64-bit hash of every agent's (outcome, end time, path length,
    replans), in id order, with floats written at full precision."""
    h = hashlib.blake2b(digest_size=8)
    for rec in result.per_agent:
        h.update(f"{rec.outcome},{rec.end_t!r},{rec.path_length!r},{rec.replan_count}\n".encode())
    return h.hexdigest()


# the per-agent records the state digest does not see: who left or died
# when, how far each walked and how often each replanned
@pytest.mark.parametrize(
    "name, max_sim_time, backend, smoke, fingerprint, outcomes",
    [
        pytest.param("two_rooms", None, "ca", None, "e84b53c10276d5c2", {"exited": 60}, id="two_rooms-ca"),
        pytest.param("two_rooms", None, "flow", None, "05fac21dc1877b56", {"exited": 60}, id="two_rooms-flow"),
        pytest.param(
            "two_rooms", 40.0, "sf", None, "056c99e2f9056dfb", {"exited": 11, "inside": 49}, id="two_rooms-sf-40.0"
        ),
        pytest.param(
            "herding_two_exit",
            30.0,
            "sf",
            LETHAL_SMOKE,
            "dedb4147ae8dbcdc",
            {"exited": 78, "dead": 2},
            id="lethal-sf-30.0",
        ),
        pytest.param(
            "herding_two_exit",
            30.0,
            "flow",
            LETHAL_SMOKE,
            "d06ec618bf77e076",
            {"exited": 56, "dead": 13, "inside": 11},
            id="lethal-flow-30.0",
        ),
    ],
)
def test_per_agent_records(name, max_sim_time, backend, smoke, fingerprint, outcomes):
    result = _run_once(_scenario_text(name, max_sim_time, backend, smoke))
    assert dict(Counter(rec.outcome for rec in result.per_agent)) == outcomes
    assert [rec.id for rec in result.per_agent] == list(range(result.population))
    assert _per_agent_fingerprint(result) == fingerprint


# the bytes of trajectory.csv, written as `evacsim run` writes it: every
# status token appears, `dead` in the lethal runs
@pytest.mark.parametrize(
    "name, max_sim_time, backend, smoke, sha256",
    [
        pytest.param(
            "two_rooms",
            None,
            "ca",
            None,
            "e747a5231fc8f3f2b36010c38356f5f46f02894500757c14a1c20659b2727e3b",
            id="two_rooms-ca",
        ),
        pytest.param(
            "two_rooms",
            None,
            "flow",
            None,
            "1c24385dd9b6cab65b14cc20e37ffebc0933beec17a4def967da25b53bb63e71",
            id="two_rooms-flow",
        ),
        pytest.param(
            "two_rooms",
            40.0,
            "sf",
            None,
            "fc073e32df0db3e52d858a1232f9229cc81ed230024c7bed8efa0c8813fb0b4c",
            id="two_rooms-sf-40.0",
        ),
        pytest.param(
            "herding_two_exit",
            30.0,
            "sf",
            LETHAL_SMOKE,
            "3630d0e1fb69ca91e7347b59761c94aff04c11f35f757f6397666c8114e768a3",
            id="lethal-sf-30.0",
        ),
        pytest.param(
            "herding_two_exit",
            30.0,
            "flow",
            LETHAL_SMOKE,
            "55749cacd410e6282818a654ff055c1e485ce6c76e772825109af645b180446a",
            id="lethal-flow-30.0",
        ),
    ],
)
def test_trajectory_csv_bytes(tmp_path, name, max_sim_time, backend, smoke, sha256):
    result = _run_once(_scenario_text(name, max_sim_time, backend, smoke))
    path = tmp_path / "trajectory.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        export_trajectories(result, fh)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_wall_projections_of_a_run_end_in_one_warning():
    # the lethal sf run projects one body out of a wall on each of 7 ticks
    result = _run_once(_scenario_text("herding_two_exit", 30.0, "sf", LETHAL_SMOKE))
    projections = [w for w in result.warnings if "out of walls" in w]
    assert projections == ["projected 7 bodies out of walls, first on ticks 146, 203, 213"]


def test_cli_run_writes_the_same_digest(tmp_path):
    proc = run_module("run", os.path.join(SCENARIOS, "two_rooms.json"), "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "metrics.json", encoding="utf-8") as fh:
        assert json.load(fh)["digest"] == "225cb0f5cde75f80"


def test_empty_state_digest_is_pinned():
    assert EMPTY_STATE_DIGEST == "5250a507f994740e"


class _EveryTickPremovement(_Simulation):
    """Reference: the pre-movement rule tested on every tick, with no
    sleep until the earliest pending delay."""

    def _premovement_phase(self, t, sensed):
        waiting = self.pop.status == int(AgentStatus.PREMOVEMENT)
        go = np.zeros(len(self.pop), dtype=bool)
        go[sensed] = True
        if t + SENSE_EPS >= self.config.alarm_time:
            go = go | (t + SENSE_EPS >= self.config.alarm_time + self.pop.reaction_time)
        start = np.flatnonzero(waiting & go)
        self.pop.status[start] = int(AgentStatus.MOVING)
        return start


@pytest.mark.parametrize(
    "name, max_sim_time, backend, smoke, alarm_time",
    [
        pytest.param("herding_two_exit", 10.0, "ca", SMOKE_BESIDE_EXIT, 0.0, id="smoke-ca"),
        pytest.param("herding_two_exit", 30.0, "flow", LETHAL_SMOKE, 2.5, id="lethal-flow-alarm"),
        pytest.param("two_rooms", 20.0, "sf", None, 3.0, id="two_rooms-sf-alarm"),
    ],
)
def test_premovement_starts_everyone_on_the_tick_an_every_tick_check_does(
    name, max_sim_time, backend, smoke, alarm_time
):
    doc = json.loads(_scenario_text(name, max_sim_time, backend, smoke))
    doc["config"]["alarm_time"] = alarm_time
    doc["config"].setdefault("overrides", {})["trajectory_interval"] = 1e-6  # a sample every tick
    scenario = parse_scenario(json.dumps(doc))
    got = _Simulation(scenario, scenario.config).run()
    want = _EveryTickPremovement(scenario, scenario.config).run()
    started = [np.flatnonzero(sample[5] != int(AgentStatus.PREMOVEMENT)) for sample in want.trajectory]
    assert len(started[0]) < len(started[-1])  # people start during the run, not all at once
    assert len(got.trajectory) == len(want.trajectory)
    for g, w in zip(got.trajectory, want.trajectory):
        assert g[0] == w[0] and np.array_equal(g[5], w[5])
    assert got.digest == want.digest


# the benchmark's correctness rule: each workload, run by perfbench/harness.py
# as `evacsim run` runs it, ends at population seed 0 with the outcome (digest,
# end time, exits, deaths, events by kind) that perfbench/baseline.json holds
with open(os.path.join(ROOT, "perfbench", "baseline.json"), encoding="utf-8") as _fh:
    BASELINE_WORKLOADS = json.load(_fh)["workloads"]


@pytest.mark.parametrize("name", sorted(BASELINE_WORKLOADS))
def test_each_benchmark_workload_keeps_its_baseline_outcome_at_seed_0(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    harness = importlib.import_module("harness")
    text, base_dir = harness.WORKLOADS[name].load()
    rep = harness.full_run(text, base_dir, 0, str(tmp_path))
    assert rep.outcome == BASELINE_WORKLOADS[name]["outcomes_at_seed_0"]["0"]
