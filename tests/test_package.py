"""Package hygiene: no code that only the tests reach, and no dependency
beyond numpy and the standard library."""

from __future__ import annotations

import ast
import glob
import importlib
import os
import subprocess
import sys
from collections import Counter

import evacsim

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
    assert {name for _, name in imported} >= {"numpy", "heapq"}
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
    # (EgressNetwork.routes); the one priority-queue search left is the
    # cell distance field, so one module imports heapq and only
    # distance_field uses it
    trees = _trees()
    importers = sorted(
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "heapq" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "heapq"
    )
    assert importers == ["scenario"]
    users = [
        node.name
        for node in ast.walk(trees["scenario"])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _names(node)["heapq"]
    ]
    assert users == ["distance_field"]


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
