"""Command-line behaviour: exit codes and error reporting."""

from __future__ import annotations

import json
import os

import pytest

from conftest import SCENARIOS, grid_rows, run_cli


def _bad_attribute(attr, value):
    return {"attributes": [{"attr": attr, "dist": "constant", "value": value}]}


def _sealed_west_room(spawn=None):
    """A 12 x 7 plan whose west room (node 0, cells x 1-4), where everyone
    spawns, has no way out."""
    rows = grid_rows(12, 7, exits=[(11, 3)], walls=[(5, y) for y in range(1, 6)])
    return {"geometry": {"cell_size": 0.5, "cells": rows}, "population": {"count": 5, "spawn": spawn or {"node": 0}}}


@pytest.mark.parametrize(
    "name, update, where, backends",
    [
        pytest.param(
            "minimal_room",
            {"population": _bad_attribute("mobility", 3)},
            "population.attributes.mobility",
            (None,),
            id="mobility-3",
        ),
        pytest.param(
            "minimal_room",
            {"population": _bad_attribute("health", float("nan"))},
            "population.attributes.health",
            (None,),
            id="health-nan",
        ),
        # two_rooms has room nodes 0 and 1 and destination 2
        pytest.param(
            "two_rooms", {"population": {"spawn": {"node": 7}}}, "population.spawn.node", (None,), id="spawn-node-7"
        ),
        pytest.param(
            "two_rooms", {"population": {"spawn": {"node": 2}}}, "population.spawn.node", (None,), id="spawn-node-2"
        ),
        pytest.param(
            "two_rooms", {"population": {"spawn": {"node": -1}}}, "population.spawn.node", (None,), id="spawn-node--1"
        ),
        # the route network is always derived from the floor plan
        pytest.param(
            "two_rooms",
            {"network": {"nodes": [], "arcs": []}},
            "$.network: unknown field",
            (None,),
            id="network-section",
        ),
        # a room that cannot reach an exit is dropped from the network
        pytest.param(
            "minimal_room",
            _sealed_west_room(),
            "population.spawn.node: room 0 cannot reach an exit",
            ("ca", "flow", "sf"),
            id="sealed-spawn-room",
        ),
        pytest.param(
            "minimal_room",
            _sealed_west_room({"rect": [1, 1, 4, 5]}),
            "population.spawn: 20 open cell(s) in the rect cannot reach an exit",
            ("ca", "flow", "sf"),
            id="sealed-spawn-rect",
        ),
        # people spawn on empty cells only: not on walls, not on exits
        pytest.param(
            "minimal_room",
            _sealed_west_room({"rect": [5, 1, 5, 5]}),
            "population.spawn: rect holds no empty cell to spawn on",
            ("ca", "flow", "sf"),
            id="wall-spawn-rect",
        ),
        pytest.param(
            "minimal_room",
            _sealed_west_room({"rect": [11, 3, 11, 3]}),
            "population.spawn: rect holds no empty cell to spawn on",
            ("ca", "flow", "sf"),
            id="exit-spawn-rect",
        ),
        # ca and flow stand each person on a cell of their own
        pytest.param(
            "minimal_room",
            {"population": {"count": 50, "spawn": {"rect": [1, 1, 3, 3]}}},
            "population.spawn: region has 9 free cells for 50 agents",
            ("ca", "flow"),
            id="crowded-spawn-rect",
        ),
        pytest.param(
            "minimal_room",
            {"population": {"count": 200, "spawn": {"node": 0}}, "config": {"backend": "flow"}},
            "population.spawn: region has 192 free cells for 200 agents",
            ("ca", "flow"),
            id="crowded-spawn-room",
        ),
        # tick lengths and arc times divide by these; bodies need a size
        pytest.param(
            "minimal_room",
            {"config": {"overrides": {"v_ref": 0}}},
            "config.overrides.v_ref: must be > 0",
            ("ca", "flow", "sf"),
            id="v_ref-0",
        ),
        pytest.param(
            "minimal_room",
            {"config": {"overrides": {"flow_tick": 0}}},
            "config.overrides.flow_tick: must be > 0",
            ("flow", "sf"),
            id="flow_tick-0",
        ),
        pytest.param(
            "minimal_room",
            {"config": {"overrides": {"sf_radius_lo": -0.3, "sf_radius_hi": -0.2}}},
            "config.overrides.sf_radius_lo: must be > 0",
            ("sf",),
            id="negative-radii",
        ),
        pytest.param(
            "minimal_room",
            {"config": {"overrides": {"sf_radius_lo": 0.4, "sf_radius_hi": 0.3}}},
            "config.overrides.sf_radius_hi: must be >= sf_radius_lo",
            ("sf",),
            id="radii-swapped",
        ),
    ],
)
def test_validate_rejects_what_run_rejects(tmp_path, name, update, where, backends):
    with open(os.path.join(SCENARIOS, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for section, fields in update.items():
        doc.setdefault(section, {}).update(fields)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    runs = [("run", path, "--out", tmp_path / "out") + (("--backend", b) if b else ()) for b in backends]
    for args in [("validate", path), *runs]:
        proc = run_cli(*args)
        assert proc.returncode == 1, (args, proc.stdout)
        assert proc.stderr.startswith(f"evacsim:error: {where}"), proc.stderr


def test_compare_reports_the_backends_that_ran_when_one_fails(tmp_path):
    # the corridor's spawn rectangle holds 40 people on the grid but not
    # 40 social-force bodies
    proc = run_cli("compare", os.path.join(SCENARIOS, "corridor.json"), "--out", tmp_path)
    assert proc.returncode == 2, proc.stderr
    rows = {line.split()[0]: line for line in proc.stdout.splitlines()[1:]}
    assert sorted(rows) == ["ca", "flow", "sf"]
    assert rows["flow"].split()[4] == "40" and rows["ca"].split()[4] == "40"
    assert proc.stderr == "evacsim:error: sf: could not place 40 bodies in the spawn region (16 placed)\n"
    with open(tmp_path / "compare.json", encoding="utf-8") as fh:
        written = {row["backend"]: row for row in json.load(fh)}
    assert written["flow"]["error"] is None and written["flow"]["exited"] == 40
    assert written["sf"]["error"].startswith("could not place 40 bodies")
    assert all(value is None for key, value in written["sf"].items() if key not in ("backend", "error"))
    assert set(written["sf"]) == set(written["ca"]) == set(written["flow"])


def test_run_reports_a_spawn_region_too_small_for_its_bodies(tmp_path):
    # 40 bodies of radius 0.25-0.35 m do not fit the corridor's 6 x 2 m
    # spawn rectangle; the sampler gives up after its 82 000 draws
    proc = run_cli("run", os.path.join(SCENARIOS, "corridor.json"), "--backend", "sf", "--out", tmp_path)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == "evacsim:error: could not place 40 bodies in the spawn region (16 placed)\n"


def test_a_missing_hazard_file_is_a_runtime_error_without_a_traceback(tmp_path):
    with open(os.path.join(SCENARIOS, "minimal_room.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["hazard"] = {"file": "no_such_series.csv"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    missing = str(tmp_path / "no_such_series.csv")
    for args in [("validate", path), ("run", path, "--out", tmp_path / "out")]:
        proc = run_cli(*args)
        assert proc.returncode == 2, (args, proc.stdout)
        assert proc.stderr == (
            f"evacsim:error: cannot read hazard series {missing!r}: [Errno 2] No such file or directory: {missing!r}\n"
        ), args


def test_a_crowded_spawn_region_is_refused_when_the_run_needs_cells(tmp_path):
    # sf bodies are not one per cell, so an sf scenario passes validation;
    # run on the lattice, it is refused when the people are spawned
    with open(os.path.join(SCENARIOS, "minimal_room.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["population"].update(count=50, spawn={"rect": [1, 1, 3, 3]})
    doc["config"]["backend"] = "sf"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", path).returncode == 0
    proc = run_cli("run", path, "--backend", "ca", "--out", tmp_path / "out")
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == "evacsim:error: spawn region has 9 free cells for 50 agents\n"


def test_every_simulating_command_exits_3_on_timeout(tmp_path):
    minimal = os.path.join(SCENARIOS, "minimal_room.json")
    with open(minimal, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["config"]["max_sim_time"] = 1.0
    cut = tmp_path / "minimal_1s.json"
    cut.write_text(json.dumps(doc))
    runs = {
        "run": run_cli("run", minimal, "--max-time", 1, "--out", tmp_path / "run"),
        "sweep": run_cli(
            "sweep", cut, "--param", "params.v_panic", "--values", "1.5", "--seeds", "0", "--workers", 1,
            "--out", tmp_path / "sweep",
        ),
        "compare": run_cli("compare", cut),
    }
    for command, proc in runs.items():
        assert proc.returncode == 3, (command, proc.stdout, proc.stderr)
        assert proc.stderr == "", command
    assert "with 12 still inside" in runs["run"].stdout
    assert "(0/1 finished, 1 timeouts)" in runs["sweep"].stdout


def test_sweep_rejects_a_negative_worker_count(tmp_path):
    proc = run_cli(
        "sweep", os.path.join(SCENARIOS, "minimal_room.json"), "--param", "params.v_panic", "--values", "1.5",
        "--seeds", "0", "--workers", -1, "--out", tmp_path / "sweep",
    )
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr == "evacsim:error: sweep.workers: must be >= 0\n"
    assert not (tmp_path / "sweep").exists()


def test_sweep_refuses_a_zero_divisor_before_any_run(tmp_path):
    proc = run_cli(
        "sweep", os.path.join(SCENARIOS, "minimal_room.json"), "--param", "params.v_ref", "--values", "1.34,0",
        "--seeds", "0", "--workers", 1, "--out", tmp_path / "sweep",
    )
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr == "evacsim:error: config.overrides.v_ref: must be > 0\n"
    assert proc.stdout == "" and not (tmp_path / "sweep").exists()
