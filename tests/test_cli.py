"""Command-line behaviour: exit codes and error reporting."""

from __future__ import annotations

import json
import os

import pytest

from conftest import SCENARIOS, grid_rows, room_doc, run_cli, run_module


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
        pytest.param(
            "minimal_room",
            {
                "geometry": {"cell_size": 0.5, "cells": grid_rows(10, 5, exits=[(9, 2)], walls=[(4, 1), (4, 2), (4, 3)])},
                "population": {"count": 6, "spawn": None},
            },
            "population.spawn: 9 open cell(s) in the grid cannot reach an exit",
            ("ca", "flow", "sf"),
            id="sealed-spawn-grid",
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
        # with no spawn region people stand on any empty cell of the grid
        pytest.param(
            "minimal_room",
            {
                "geometry": {"cell_size": 0.5, "cells": ["#####", "#EEE#", "#####"]},
                "population": {"count": 2, "spawn": None},
                "config": {"backend": "sf"},
            },
            "population.spawn: grid holds no empty cell to spawn on",
            ("ca", "flow", "sf"),
            id="no-empty-cell",
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
        # a door named like the site of a doorless exit would share its crossings
        pytest.param(
            "minimal_room",
            {
                "geometry": {
                    "cell_size": 0.5,
                    "cells": grid_rows(10, 6, exits=[(9, 3)]),
                    "doors": [{"id": "exit:0", "cells": [[4, 3]]}],
                },
                "population": {"count": 6, "spawn": {"rect": [1, 1, 3, 4]}},
            },
            "geometry.doors: door id 'exit:0' takes the prefix 'exit:' of doorless exits",
            ("ca", "flow", "sf"),
            id="door-named-exit",
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
    flags = [("--backend", b) if b else () for b in backends]
    validates = [("validate", path)] + [("validate", path, *flag) for flag in flags if flag]
    runs = [("run", path, "--out", tmp_path / "out", *flag) for flag in flags]
    for args in validates + runs:
        proc = run_cli(*args)
        assert proc.returncode == 1, (args, proc.stdout)
        assert proc.stderr.count("evacsim:error:") == 1, proc.stderr
        assert proc.stderr.startswith(f"evacsim:error: {where}"), proc.stderr
    assert not (tmp_path / "out").exists()


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
    proc = run_cli("run", os.path.join(SCENARIOS, "corridor.json"), "--backend", "sf", "--out", tmp_path / "out")
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == "evacsim:error: could not place 40 bodies in the spawn region (16 placed)\n"
    assert not (tmp_path / "out").exists()


def test_validate_places_sf_bodies_the_way_run_does(tmp_path):
    # 80 bodies do not fit rect [1, 1, 9, 18] of a 20 x 20 room at 0.5 m
    # cells; validate runs the run's seeded placement and refuses them
    doc = room_doc(grid_rows(20, 20, exits=[(19, 10)]), count=80, backend="sf", spawn=[1, 1, 9, 18])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr == "evacsim:error: population.spawn: could not place 80 bodies in the spawn region (74 placed)\n"
    proc = run_cli("run", path, "--out", tmp_path / "out")
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == "evacsim:error: could not place 80 bodies in the spawn region (74 placed)\n"
    assert not (tmp_path / "out").exists()


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
    assert not (tmp_path / "out").exists()


NAN, INF = float("nan"), float("inf")
SMOKE = {"source": [5, 5]}
CSV_HEADER = "t,x,y,temp,od,tox\n0,1,1,20,0,0\n"
CSV_ROW = {"t": "1", "x": "1", "y": "1", "temp": "20", "od": "0", "tox": "0"}
SWEEP = ("sweep", "--param", "params.v_ref", "--seeds", "0", "--values")


def _number_case(case_id, update, message, command=("validate",), csv=None):
    """``update`` merges into the sections of minimal_room (a section
    given as a non-object replaces it, and a non-object ``update`` the
    whole document); ``csv`` is written beside the scenario as
    ``series.csv``."""
    return pytest.param(update, command, csv, message, id=case_id)


def _attribute(**spec):
    return {"population": {"attributes": [spec]}}


@pytest.mark.parametrize(
    "update, command, csv, message",
    [
        _number_case("cell_size-inf", {"geometry": {"cell_size": INF}}, "geometry.cell_size: must be a number"),
        _number_case(
            "door-width-nan",
            {"geometry": {"doors": [{"cells": [[17, 6], [17, 7]], "width": NAN}]}},
            "geometry.doors[0].width: must be a number",
        ),
        _number_case("max_sim_time-inf", {"config": {"max_sim_time": INF}}, "config.max_sim_time: must be a number"),
        _number_case("alarm_time-nan", {"config": {"alarm_time": NAN}}, "config.alarm_time: must be a number"),
        _number_case(
            "c_door-nan", {"config": {"overrides": {"c_door": NAN}}}, "config.overrides.c_door: must be a number"
        ),
        _number_case(
            "v_ref-inf", {"config": {"overrides": {"v_ref": INF}}}, "config.overrides.v_ref: must be a number"
        ),
        _number_case("overrides-null", {"config": {"overrides": None}}, "config.overrides: must be a mapping"),
        _number_case("config-list", {"config": [1]}, "config: must be an object"),
        _number_case(
            "smoke-duration-inf",
            {"hazard": {"builtin": {**SMOKE, "duration": INF}}},
            "hazard.builtin.duration: must be a number",
        ),
        _number_case(
            "smoke-rate-nan", {"hazard": {"builtin": {**SMOKE, "rate": NAN}}}, "hazard.builtin.rate: must be a number"
        ),
        _number_case(
            "uniform-lo-string",
            _attribute(attr="age", dist="uniform", lo="a", hi=60),
            "population.attributes.age.lo: must be a number",
        ),
        _number_case(
            "weights-string",
            _attribute(attr="gender", dist="categorical", values=["F", "M"], weights=["x", 1]),
            "population.attributes.gender.weights[0]: must be a number",
        ),
        _number_case(
            "weights-nan",
            _attribute(attr="gender", dist="categorical", values=["F", "M"], weights=[NAN, 1]),
            "population.attributes.gender.weights[0]: must be a number",
        ),
        _number_case(
            "weights-number",
            _attribute(attr="gender", dist="categorical", values=["F", "M"], weights=3),
            "population.attributes.gender: weights must be a list as long as values",
        ),
        _number_case(
            "values-number",
            _attribute(attr="gender", dist="categorical", values=5),
            "population.attributes.gender: categorical distribution needs a list of values",
        ),
        *[
            _number_case(
                f"csv-{column}-{value}",
                {"hazard": {"file": "series.csv"}},
                "row 3: t, temp, od and tox must be finite",
                csv=CSV_HEADER + ",".join({**CSV_ROW, column: value}.values()) + "\n",
            )
            for column, value in (("t", "nan"), ("temp", "inf"), ("od", "nan"), ("tox", "-inf"))
        ],
        _number_case(
            "run-max-time-inf", {}, "config.max_sim_time: must be a number", command=("run", "--max-time", "inf")
        ),
        _number_case("sweep-values-nan", {}, "sweep.values: not numbers: '1.3,nan'", command=(*SWEEP, "1.3,nan")),
        _number_case("sweep-values-inf", {}, "sweep.values: not numbers: 'inf'", command=(*SWEEP, "inf")),
        _number_case("sweep-values-word", {}, "sweep.values: not numbers: '1.3,fast'", command=(*SWEEP, "1.3,fast")),
        # the refusals of a document, one row per check
        _number_case("document-list", [1], "$: scenario document must be a JSON object"),
        _number_case("config-dt-0", {"config": {"dt": 0}}, "config.dt: time step must be > 0"),
        _number_case(
            "config-sf-dt", {"config": {"backend": "sf", "dt": 0.1}}, "config.dt: continuous backend is unstable above"
        ),
        _number_case("max_sim_time-0", {"config": {"max_sim_time": 0}}, "config.max_sim_time: must be > 0"),
        _number_case("seed-float", {"config": {"seed": 1.5}}, "config.seed: must be an integer"),
        _number_case("seed-negative", {"config": {"seed": -1}}, "config.seed: must fit in an unsigned 64-bit integer"),
        _number_case("alarm_time-negative", {"config": {"alarm_time": -1}}, "config.alarm_time: must be >= 0"),
        _number_case("config-unknown-field", {"config": {"speed": 1}}, "config.speed: unknown field"),
        _number_case("cell_size-0", {"geometry": {"cell_size": 0}}, "geometry.cell_size: must be > 0"),
        _number_case("cells-numbers", {"geometry": {"cells": [1, 2]}}, "geometry.cells: must be a non-empty list of strings"),
        _number_case("cells-empty-row", {"geometry": {"cells": [""]}}, "geometry.cells: rows must not be empty"),
        _number_case("door-number", {"geometry": {"doors": [5]}}, "geometry.doors[0]: must be an object"),
        _number_case(
            "door-id-number",
            {"geometry": {"doors": [{"id": 3, "cells": [[17, 6]]}]}},
            "geometry.doors[0].id: must be a string",
        ),
        _number_case(
            "door-cell-short",
            {"geometry": {"doors": [{"cells": [[17]]}]}},
            "geometry.doors[0].cells: expected [x, y] integers, got [17]",
        ),
        _number_case("count-negative", {"population": {"count": -1}}, "population.count: must be a non-negative integer"),
        _number_case("count-true", {"population": {"count": True}}, "population.count: expected an integer"),
        _number_case("count-string", {"population": {"count": "5"}}, "population.count: expected int"),
        _number_case("spawn-list", {"population": {"spawn": [1]}}, "population.spawn: must be an object"),
        _number_case(
            "spawn-rect-and-node",
            {"population": {"spawn": {"rect": [1, 1, 2, 2], "node": 0}}},
            "population.spawn: give either a rect or a node, not both",
        ),
        _number_case(
            "spawn-rect-inverted",
            {"population": {"spawn": {"rect": [5, 5, 1, 1]}}},
            "population.spawn: rect corners are inverted",
        ),
        _number_case(
            "spawn-rect-short",
            {"population": {"spawn": {"rect": [1, 1, 2]}}},
            "population.spawn.rect: expected [x0, y0, x1, y1] integers",
        ),
        _number_case(
            "spawn-node-string",
            {"population": {"spawn": {"node": "a"}}},
            "population.spawn.node: must be an integer node id",
        ),
        _number_case(
            "attributes-object",
            {"population": {"attributes": {"age": 30}}},
            "population.attributes: must be a list of {attr, dist, ...} objects",
        ),
        _number_case(
            "attribute-number", {"population": {"attributes": [5]}}, "population.attributes[0]: must be an object"
        ),
        _number_case(
            "attribute-twice",
            {"population": {"attributes": [{"attr": "age", "dist": "constant", "value": 30}] * 2}},
            "population.attributes[1]: duplicate spec for 'age'",
        ),
        _number_case(
            "dist-unknown",
            _attribute(attr="age", dist="gauss"),
            "population.attributes.age: unknown distribution 'gauss'",
        ),
        _number_case(
            "constant-no-value",
            _attribute(attr="age", dist="constant"),
            "population.attributes.age: constant distribution needs a value",
        ),
        _number_case(
            "uniform-no-hi",
            _attribute(attr="age", dist="uniform", lo=20),
            "population.attributes.age: uniform distribution needs lo and hi",
        ),
        _number_case(
            "uniform-lo-above-hi",
            _attribute(attr="age", dist="uniform", lo=60, hi=20),
            "population.attributes.age: uniform lo must be <= hi",
        ),
        _number_case(
            "weights-negative",
            _attribute(attr="gender", dist="categorical", values=["F", "M"], weights=[-1, 2]),
            "population.attributes.gender: weights must be non-negative and sum > 0",
        ),
        _number_case(
            "gender-x",
            _attribute(attr="gender", dist="constant", value="X"),
            "population.attributes.gender: gender must be 'F' or 'M'",
        ),
        _number_case(
            "age-negative",
            _attribute(attr="age", dist="constant", value=-1),
            "population.attributes.age: must be a non-negative integer",
        ),
        _number_case("hazard-list", {"hazard": [1]}, "hazard: must be an object"),
        _number_case("hazard-file-number", {"hazard": {"file": 5}}, "hazard.file: must be a path string"),
        _number_case("builtin-number", {"hazard": {"builtin": 5}}, "hazard.builtin: must be an object"),
        _number_case(
            "builtin-no-source", {"hazard": {"builtin": {"rate": 1}}}, "hazard.builtin.source: missing required field"
        ),
        _number_case(
            "builtin-rate-negative", {"hazard": {"builtin": {**SMOKE, "rate": -1}}}, "hazard.builtin.rate: must be >= 0"
        ),
        _number_case(
            "builtin-step-0",
            {"hazard": {"builtin": {**SMOKE, "step": 0}}},
            "hazard.builtin: step, frame_interval and duration must be > 0",
        ),
        _number_case(
            "csv-x-1.5",
            {"hazard": {"file": "series.csv"}},
            "row 3: invalid literal for int() with base 10: '1.5'",
            csv=CSV_HEADER + ",".join({**CSV_ROW, "x": "1.5"}.values()) + "\n",
        ),
    ],
)
def test_a_non_finite_or_mistyped_number_is_one_error_line(tmp_path, update, command, csv, message):
    with open(os.path.join(SCENARIOS, "minimal_room.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(update, dict):
        doc, update = update, {}
    for section, fields in update.items():
        if isinstance(fields, dict):
            doc.setdefault(section, {}).update(fields)
        else:
            doc[section] = fields
    if csv is not None:
        (tmp_path / "series.csv").write_text(csv)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = ("--out", tmp_path / "out") if command[0] != "validate" else ()
    proc = run_cli(command[0], path, *command[1:], *out)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.count("evacsim:error:") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(f"evacsim:error: {message}"), proc.stderr
    assert not (tmp_path / "out").exists()


def _sweep(param="params.v_ref", values="1.3", seeds="0"):
    """A sweep of minimal_room: the command, the scenario file, its flags."""
    return ("sweep", "minimal_room.json", "--param", param, "--values", values, "--seeds", seeds)


@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param(("validate", "no_such_scenario.json"), "scenario: cannot read", id="unreadable-file"),
        pytest.param(_sweep(seeds="0,x"), "sweep.seeds: bad seed token 'x'", id="seeds-bad-token"),
        pytest.param(_sweep(seeds="5:5"), "sweep.seeds: need at least one seed", id="seeds-empty-range"),
        pytest.param(_sweep(values=","), "sweep.values: need at least one value", id="values-empty"),
        pytest.param(
            _sweep(param="config.seed"), "sweep.param: config field 'seed' cannot be swept", id="param-config-seed"
        ),
        pytest.param(
            _sweep(param="geometry.cell_size"),
            "sweep.param: unknown parameter path 'geometry.cell_size'",
            id="param-unknown",
        ),
        pytest.param(
            _sweep(param="population.count", values="2.5"),
            "sweep.param: population.count needs a non-negative integer",
            id="count-2.5",
        ),
        pytest.param(
            ("run", "minimal_room.json", "--backend", "warp"),
            "argument --backend: invalid choice: 'warp'",
            id="backend-unknown",
        ),
        pytest.param(("run", "minimal_room.json", "--seed", "x"), "argument --seed: invalid int value: 'x'", id="seed-x"),
        pytest.param(
            ("run", "minimal_room.json", "--seed", "-1"),
            "config.seed: must fit in an unsigned 64-bit integer",
            id="seed-negative",
        ),
        pytest.param(("run", "minimal_room.json", "--max-time", "0"), "config.max_sim_time: must be > 0", id="max-time-0"),
        # corridor.json runs under flow; 40 social-force bodies do not fit its spawn rect
        pytest.param(
            ("validate", "corridor.json", "--backend", "sf"),
            "population.spawn: could not place 40 bodies in the spawn region (16 placed)",
            id="validate-backend-sf-unplaceable",
        ),
    ],
)
def test_a_refused_command_line_is_one_error_line(tmp_path, command, message):
    name, scenario, *flags = command
    out = ("--out", tmp_path / "out") if name != "validate" else ()
    proc = run_cli(name, os.path.join(SCENARIOS, scenario), *flags, *out)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.count("evacsim:error:") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(f"evacsim:error: {message}"), proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("max_sim_time", "10"), ("alarm_time", None)])
def test_a_mistyped_run_config_field_is_one_error_line_without_a_traceback(tmp_path, key, value):
    with open(os.path.join(SCENARIOS, "minimal_room.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["config"][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", path)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr == f"evacsim:error: config.{key}: must be a number\n"


def test_a_crowded_spawn_region_is_refused_when_the_run_needs_cells(tmp_path):
    # sf bodies are not one per cell: 50 discs of 5-6 cm radius fit nine
    # cells, so the sf scenario passes validation; run on the lattice, the
    # run's config is checked again and refused
    with open(os.path.join(SCENARIOS, "minimal_room.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["population"].update(count=50, spawn={"rect": [1, 1, 3, 3]})
    doc["config"].update(backend="sf", overrides={"sf_radius_lo": 0.05, "sf_radius_hi": 0.06})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", path).returncode == 0
    for args in [("validate", path, "--backend", "ca"), ("run", path, "--backend", "ca", "--out", tmp_path / "out")]:
        proc = run_cli(*args)
        assert proc.returncode == 1, proc.stdout
        assert proc.stderr == "evacsim:error: population.spawn: region has 9 free cells for 50 agents\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(name[:-5] for name in os.listdir(SCENARIOS) if name.endswith(".json")))
def test_validate_under_the_scenarios_own_backend_prints_what_plain_validate_prints(name):
    path = os.path.join(SCENARIOS, f"{name}.json")
    plain = run_cli("validate", path)
    with open(path, encoding="utf-8") as fh:
        own = json.load(fh)["config"]["backend"]
    assert plain.returncode == 0 and f"backend: {own}  seed:" in plain.stdout
    proc = run_cli("validate", path, "--backend", own)
    assert (proc.returncode, proc.stdout, proc.stderr) == (plain.returncode, plain.stdout, plain.stderr)


def test_every_simulating_command_exits_3_on_timeout(tmp_path):
    minimal = os.path.join(SCENARIOS, "minimal_room.json")
    with open(minimal, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["config"]["max_sim_time"] = 1.0
    cut = tmp_path / "minimal_1s.json"
    cut.write_text(json.dumps(doc))
    runs = {
        "run": run_module("run", minimal, "--max-time", 1, "--out", tmp_path / "run"),
        "sweep": run_module(
            "sweep", cut, "--param", "params.v_panic", "--values", "1.5", "--seeds", "0", "--workers", 1,
            "--out", tmp_path / "sweep",
        ),
        "compare": run_module("compare", cut),
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


@pytest.mark.parametrize(
    "args, code, stderr",
    [
        pytest.param(("--help",), 0, "", id="help"),
        pytest.param(
            ("run", "minimal_room.json", "--backend", "warp"),
            1,
            "evacsim:error: argument --backend: invalid choice: 'warp'",
            id="usage",
        ),
        pytest.param(("validate", "no_such_scenario.json"), 1, "evacsim:error: scenario: cannot read", id="invalid"),
        pytest.param(
            ("run", "corridor.json", "--backend", "sf"),
            2,
            "evacsim:error: could not place 40 bodies in the spawn region (16 placed)\n",
            id="runtime",
        ),
    ],
)
def test_python_m_evacsim_exits_with_the_code_of_main(tmp_path, args, code, stderr):
    """The other CLI tests call ``cli.main`` in-process; these go through
    a real interpreter, so argparse's own exit and ``sys.exit`` of the
    returned code are covered."""
    command, *rest = args
    rest = [os.path.join(SCENARIOS, a) if a.endswith(".json") else a for a in rest]
    out = ("--out", tmp_path / "out") if command == "run" else ()
    proc = run_module(command, *rest, *out)
    assert proc.returncode == code, (proc.stdout, proc.stderr)
    assert proc.stderr.startswith(stderr) and proc.stderr.count("evacsim:error:") == (1 if code else 0), proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()
    if command == "--help":
        assert proc.stdout.startswith("usage: evacsim")


def test_validate_reports_the_whole_generated_smoke_field():
    """A run generates smoke only up to its time limit; ``validate``
    builds and counts the scenario's whole 240 s ``duration``."""
    proc = run_cli("validate", os.path.join(SCENARIOS, "herding_two_exit.json"))
    assert proc.returncode == 0, proc.stderr
    assert "hazard: builtin (241 frames)" in proc.stdout.splitlines()
