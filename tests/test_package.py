"""Package hygiene: no code that only the tests reach."""

from __future__ import annotations

import ast
import glob
import os

import evacsim

PACKAGE = os.path.dirname(os.path.abspath(evacsim.__file__))


def test_every_module_level_definition_is_used_in_the_package():
    # a function or class that nothing in the package names (outside its
    # own definition) and that the package does not export is a twin of
    # code that is used, or dead
    trees = {path: ast.parse(open(path, encoding="utf-8").read()) for path in glob.glob(os.path.join(PACKAGE, "*.py"))}
    defined = []
    used: dict[str, int] = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((os.path.basename(path), node))
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                used[name] = used.get(name, 0) + 1
    unused = []
    for module, node in defined:
        inside = sum(
            1
            for sub in ast.walk(node)
            if (isinstance(sub, ast.Name) and sub.id == node.name)
            or (isinstance(sub, ast.Attribute) and sub.attr == node.name)
        )
        if used.get(node.name, 0) == inside and node.name not in evacsim.__all__:
            unused.append(f"{module}:{node.name}")
    assert unused == []
