"""Package hygiene: no code that only the tests reach, and no dependency
beyond numpy and the standard library."""

from __future__ import annotations

import ast
import glob
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

import evacsim
from evacsim.agents import Beliefs, Percepts, WorldView
from evacsim.engine import MOVERS, DoorSite, _Simulation

from conftest import ROOT

PACKAGE = os.path.dirname(os.path.abspath(evacsim.__file__))


def _trees():
    """Module name -> parsed source, for every module of the package."""
    return {
        os.path.basename(path)[:-3]: ast.parse(open(path, encoding="utf-8").read())
        for path in glob.glob(os.path.join(PACKAGE, "*.py"))
    }


def _names(node) -> Counter:
    """How often each identifier is named (as a variable or an attribute)
    anywhere under ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_module_level_definition_is_used_in_the_package():
    # a function or class that nothing in the package names (outside its
    # own definition) and that the package does not export is a twin of
    # code that is used, or dead
    trees = _trees()
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] == _names(node)[node.name]
        and node.name not in evacsim.__all__
    ]
    assert unused == []


def test_every_method_is_used_in_the_package():
    # a method that nothing in the package names outside its own body is
    # dead, unless it is a dunder or overrides a base class's method (the
    # base class's callers reach it)
    trees = _trees()
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = getattr(importlib.import_module(f"evacsim.{module}"), cls.name).__mro__[1:]
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__") or any(hasattr(base, name) for base in bases):
                    continue
                if used[name] == _names(node)[name]:
                    unused.append(f"{module}:{cls.name}.{name}")
    assert unused == []


def test_the_package_imports_only_numpy_and_the_standard_library():
    # evacsim depends on numpy alone (pyproject.toml); scipy and hypothesis
    # are installed for the tests, so a stray import of either would
    # still run here
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imported = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(module, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((module, node.module.split(".")[0]))
    assert {name for _, name in imported} >= {"numpy", "math"}
    assert sorted(f"{module}:{name}" for module, name in imported if name not in allowed) == []


def _unit_step(node):
    """(dx, dy) when ``node`` is a pair literal of unit steps -- each item
    an integer, or a name plus or minus 1 (a bare name steps 0) -- else None."""
    if not isinstance(node, (ast.Tuple, ast.List)) or len(node.elts) != 2:
        return None
    step = []
    for item in node.elts:
        if isinstance(item, ast.Name):
            step.append(0)
        elif isinstance(item, ast.BinOp) and isinstance(item.op, (ast.Add, ast.Sub)):
            if not (isinstance(item.right, ast.Constant) and item.right.value == 1):
                return None
            step.append(1 if isinstance(item.op, ast.Add) else -1)
        else:
            try:
                step.append(ast.literal_eval(item))
            except ValueError:
                return None
    return tuple(step) if all(s in (-1, 0, 1) for s in step) else None


def test_the_four_neighbour_offsets_are_written_once():
    # the orthogonal neighbourhood is one rule (Geometry.orthogonal): a
    # literal listing the four unit steps, directly or one level down as
    # in ((axis, (dx, dy)), ...), appears in exactly one place
    four = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    places = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Tuple, ast.List)):
                continue
            items = list(node.elts) + [sub for item in node.elts if isinstance(item, ast.Tuple) for sub in item.elts]
            if {_unit_step(item) for item in items} - {None} == four:
                places.append(f"{module}:{node.lineno}")
    assert len(places) == 1, places


def test_the_route_search_is_written_once():
    # shortest routes over the egress network are one table
    # (EgressNetwork.routes); the one cell search left is the distance
    # field, which walks two sorted queues, not a heap: no module imports
    # heapq, and distance_field alone reads the per-cell step lists
    trees = _trees()
    importers = sorted(
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "heapq" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "heapq"
    )
    assert importers == []
    readers = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _names(node)["step_offsets"]
    ]
    assert readers == ["scenario:distance_field"]


def test_the_sight_test_is_written_once():
    # who sees whom within a radius is one test (WorldView.in_sight), read
    # by the herd statistics and the exit-blocked messages alike; the cell
    # hash serves only the social-force neighbour list, and the one other
    # sight line in agents runs from a person to an exit
    trees = _trees()
    importers = sorted(
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and ((node.module or "").endswith("spatialhash") or any(alias.name == "SpatialHash" for alias in node.names))
    )
    assert importers == ["socialforce"]
    users = sorted(
        node.name
        for node in ast.walk(trees["agents"])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _names(node)["los_pairs"]
    )
    assert users == ["build_percepts", "in_sight"]


def test_the_lattice_is_read_off_the_positions():
    # the lattice backend keeps no record of who stands where: ca defines
    # functions only, and its mover holds no state and removes no one
    trees = _trees()
    assert [node.name for node in ast.walk(trees["ca"]) if isinstance(node, ast.ClassDef)] == []
    classes = {node.name: node for node in ast.walk(trees["engine"]) if isinstance(node, ast.ClassDef)}
    methods = [node.name for node in classes["_CaMover"].body if isinstance(node, ast.FunctionDef)]
    assert methods == ["__init__", "step"]


def test_each_agent_fact_has_one_record():
    # Population holds every fact about an agent, desired speed included,
    # and the run's one WorldView the air and the exit fields: the engine
    # keeps only the ids it samples and when each pre-movement delay is up
    with open(os.path.join(ROOT, "scenarios", "two_rooms.json"), encoding="utf-8") as fh:
        scenario = evacsim.parse_scenario(fh.read())
    for backend in ("ca", "sf", "flow"):
        sim = _Simulation(scenario, replace(scenario.config, backend=backend))
        n = len(sim.pop)
        per_agent = sorted(k for k, v in vars(sim).items() if isinstance(v, np.ndarray) and v.shape == (n,))
        assert per_agent == ["due_t", "ids"], backend
        assert sim.pop.desired.shape == (n,)
    fields = {cls: set(cls.__dataclass_fields__) for cls in (Beliefs, Percepts, WorldView)}
    assert "lost" not in fields[Beliefs] and "world" not in fields[Percepts] and "local_od" not in fields[WorldView]
    builders = [
        f"{cls.name}.{func.name}"
        for cls in ast.walk(_trees()["engine"])
        if isinstance(cls, ast.ClassDef)
        for func in cls.body
        if isinstance(func, ast.FunctionDef) and _names(func)["WorldView"]
    ]
    assert builders == ["_Simulation.__init__"]


def test_each_rule_the_movers_share_has_one_implementation():
    # the clog episodes are the social-force mover's, counted off the one
    # crossings list; the heat dose is hazard.heat's, and the exit-arrival
    # rule _Simulation._leave's, so no mover reads the exit-zone grid
    with open(os.path.join(ROOT, "scenarios", "two_rooms.json"), encoding="utf-8") as fh:
        scenario = evacsim.parse_scenario(fh.read())
    assert "clogged" not in DoorSite.__dataclass_fields__
    assert not hasattr(_Simulation(scenario, replace(scenario.config, backend="sf")).mover, "recent")
    trees = _trees()
    classes = {node.name: node for node in ast.walk(trees["engine"]) if isinstance(node, ast.ClassDef)}
    run_method = next(f for f in classes["_Simulation"].body if isinstance(f, ast.FunctionDef) and f.name == "run")
    assert not _names(run_method)["sites"] and not _names(run_method)["clogged"]
    crit_readers = [
        f"{module}.{func.name}"
        for module, tree in trees.items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(isinstance(c, ast.Constant) and c.value == "temp_crit" for c in ast.walk(func))
    ]
    assert crit_readers == ["hazard.heat"]
    movers = [cls.__name__ for cls in MOVERS.values()]
    assert [name for name in movers if _names(classes[name])["zone_grid"]] == []


def test_each_kind_of_default_is_resolved_in_one_module():
    # RunConfig.params() is the one merge of the model parameters, and the
    # scenario parser the one merge of the smoke generator's; every other
    # layer takes the resolved table, so no parameter called params has
    # a default to fall back on
    trees = _trees()
    imported = {
        module: {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        for module, tree in trees.items()
    }
    naming = {
        table: sorted(module for module, tree in trees.items() if _names(tree)[table] or table in imported[module])
        for table in ("PARAM_DEFAULTS", "BUILTIN_SMOKE_DEFAULTS")
    }
    assert naming == {"PARAM_DEFAULTS": ["__init__", "config"], "BUILTIN_SMOKE_DEFAULTS": ["scenario"]}
    defaulted = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                optional = positional[len(positional) - len(args.defaults):]
                optional += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                defaulted += [f"{module}:{node.name}" for arg in optional if arg.arg == "params"]
    assert defaulted == []


def test_a_mistyped_marker_fails_collection(tmp_path):
    test = tmp_path / "test_typo.py"
    test.write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    config = os.path.join(ROOT, "pyproject.toml")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", config, "--rootdir", tmp_path, test],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 2, proc.stdout
    assert "'slwo' not found in `markers` configuration option" in proc.stdout


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/tracing.py wraps the engine's calls by module attribute
    # name, so a rename in the package would break a traced benchmark run
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    with open(os.path.join(ROOT, "scenarios", "minimal_room.json"), encoding="utf-8") as fh:
        scenario = evacsim.parse_scenario(fh.read())
    names = set()
    for backend in ("ca", "sf"):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for owner, attr, name, _ in tracing.WRAPPED:
                assert getattr(owner.__dict__[attr], "__wrapped__", None) is not None, (attr, name)
            evacsim.run(scenario, evacsim.RunConfig(backend=backend, max_sim_time=10.0, seed=1))
        finally:
            tracer.uninstall()
        names |= set(tracer.names)
    for owner, attr, _, _ in tracing.WRAPPED:
        assert not hasattr(owner.__dict__[attr], "__wrapped__"), attr
    assert {"agents.percepts", "agents.decide", "agents.choose_exit", "sf.step"} <= names


def test_the_traced_receiver_count_is_the_informed_events_receivers(monkeypatch):
    # perfbench/tracing.py counts agents.receivers as the length of what
    # each inform_neighbors call returns: one row per delivery
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    with open(os.path.join(ROOT, "scenarios", "herding_two_exit.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["hazard"]["builtin"].update(source=[4, 21], rate=3.0)
    scenario = evacsim.parse_scenario(json.dumps(doc))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = evacsim.run(scenario, replace(scenario.config, max_sim_time=10.0))
    finally:
        tracer.uninstall()
    informed = [e for e in result.events if e.kind == "informed"]
    # each event counts its sender's receivers, and holds nothing else
    assert all(e.payload.keys() == {"receivers"} and type(e.payload["receivers"]) is int for e in informed)
    receivers = sum(e.payload["receivers"] for e in informed)
    assert receivers > 0
    assert tracer.counts["agents.receivers"] == receivers
    # one call per decision round with a sender, not one per sender
    assert 0 < tracer.names.count("agents.inform") < len(informed)


def _starts_with_the_tick(message) -> bool:
    """Whether ``message`` is an f-string that begins ``tick {tick}:``."""
    parts = message.values if isinstance(message, ast.JoinedStr) else []
    return (
        len(parts) >= 3
        and isinstance(parts[0], ast.Constant) and parts[0].value == "tick "
        and isinstance(parts[1], ast.FormattedValue)
        and isinstance(parts[1].value, ast.Name) and parts[1].value.id == "tick"
        and isinstance(parts[2], ast.Constant) and parts[2].value.startswith(":")
    )


def test_a_stepping_error_names_its_tick():
    # a function that takes the tick it steps through says which tick
    # failed: every SimulationError it raises starts "tick {tick}:"
    checked, unnamed = 0, []
    for module, tree in _trees().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if "tick" not in {arg.arg for arg in func.args.args + func.args.kwonlyargs}:
                continue
            for node in ast.walk(func):
                call = node.exc if isinstance(node, ast.Raise) else None
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "SimulationError"):
                    continue
                checked += 1
                if not (call.args and _starts_with_the_tick(call.args[0])):
                    unnamed.append(f"{module}:{node.lineno}")
    assert unnamed == []
    assert checked >= 4
