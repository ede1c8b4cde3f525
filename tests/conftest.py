"""Shared builders for the test suite.

Scenario documents are assembled as plain dicts and serialised with
``json.dumps`` so individual tests can tweak any field before parsing.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import os
import subprocess
import sys

import numpy as np

from evacsim import parse_scenario
from evacsim.agents import NO_TARGET, AgentStatus, Population
from evacsim.cli import main


def grid_rows(width, height, exits=(), obstacles=(), walls=()):
    """Bordered rectangular room as glyph rows.

    ``width`` x ``height`` is the full grid including the one-cell wall
    border; ``exits``, ``obstacles`` and extra ``walls`` are (x, y)
    cells punched into it afterwards.
    """
    rows = []
    for y in range(height):
        row = []
        for x in range(width):
            border = x in (0, width - 1) or y in (0, height - 1)
            row.append("#" if border else ".")
        rows.append(row)
    for x, y in walls:
        rows[y][x] = "#"
    for x, y in obstacles:
        rows[y][x] = "o"
    for x, y in exits:
        rows[y][x] = "E"
    return ["".join(r) for r in rows]


def room_doc(
    rows,
    count=5,
    backend="ca",
    seed=0,
    spawn=None,
    attributes=None,
    cell_size=0.5,
    max_sim_time=120.0,
    overrides=None,
    doors=None,
    hazard=None,
    dt=None,
    alarm_time=None,
):
    """Scenario document for a single-room drill."""
    width = len(rows[0])
    height = len(rows)
    if spawn is None:
        spawn = [1, 1, width - 2, height - 2]
    config = {"backend": backend, "seed": seed, "max_sim_time": max_sim_time}
    if overrides:
        config["overrides"] = overrides
    if dt is not None:
        config["dt"] = dt
    if alarm_time is not None:
        config["alarm_time"] = alarm_time
    geometry = {"cell_size": cell_size, "cells": list(rows)}
    if doors:
        geometry["doors"] = doors
    population = {"count": count, "spawn": {"rect": list(spawn)}}
    if attributes is not None:
        population["attributes"] = attributes
    doc = {"geometry": geometry, "population": population, "config": config}
    if hazard is not None:
        doc["hazard"] = hazard
    return doc


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(ROOT, "scenarios")


def run_cli(*args):
    """``evacsim ARGS`` in this process: ``cli.main`` with stdout and
    stderr captured, returned as a ``CompletedProcess`` with its exit
    code.  ``run_module`` is the same through a real interpreter."""
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_module(*args):
    """``python -m evacsim ARGS`` against this checkout's sources, so the
    exit code passes through ``sys.exit`` and the interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "evacsim", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def make_scenario(doc):
    return parse_scenario(json.dumps(doc))


def doc_text(doc):
    return json.dumps(doc)


def instant_reaction():
    """Attribute list pinning reaction time to its 1 s floor."""
    return [{"attr": "reaction_time", "dist": "constant", "value": 1.0}]


def brute_force_pairs(positions, radius):
    """All index pairs (i < j) within ``radius``, lexicographically sorted."""
    n = len(positions)
    out = []
    r2 = radius * radius
    for i in range(n):
        d = positions[i + 1 :] - positions[i]
        hit = np.nonzero((d * d).sum(axis=1) <= r2)[0]
        out.extend((i, i + 1 + int(j)) for j in hit)
    return sorted(out)


def one_agent(**attrs):
    """One-row Population for decision-layer tests: a healthy, calm,
    walking agent that is already moving; keyword arguments override
    any attribute by its Population field name."""
    row = dict(
        pos=(1.0, 1.0),
        radius=0.0,
        health=1.0,
        mobility=1,
        speed_pref=1.34,
        vision=30.0,
        reaction_time=1.0,
        collaboration=0.5,
        insistence=0.8,
        knowledge=1.0,
        experience=0.0,
        nervousness=0.0,
        gender="F",
        age=35,
        role=0,
        status=int(AgentStatus.MOVING),
        end_t=np.nan,
        path_len=0.0,
        replans=0,
        target=NO_TARGET,
        desired=0.0,
    )
    row.update(attrs)
    return Population(**{name: np.array([value]) for name, value in row.items()})


def distances_to(network, dest_id):
    """Reference router, part one: node id -> fewest traversal ticks to
    ``dest_id``, by Dijkstra over the reversed arcs; nodes that cannot
    reach it are left out."""
    rev = {n.id: [] for n in network.nodes}
    for i, arc in enumerate(network.arcs):
        rev[arc.dst].append((i, arc.src))
    dist = {dest_id: 0}
    heap = [(0, dest_id)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for arc_index, src in rev[node]:
            nd = d + network.arcs[arc_index].traversal_time
            if src not in dist or nd < dist[src]:
                dist[src] = nd
                heapq.heappush(heap, (nd, src))
    return dist


def route_to_destination(network, dest_id):
    """Reference router, part two: node id -> index of the outgoing arc
    that starts a shortest path to ``dest_id`` (ties broken by smallest
    arc index), or None when the node is the destination itself or
    cannot reach it."""
    dist = distances_to(network, dest_id)
    table = {}
    for node in network.nodes:
        if node.id == dest_id or node.id not in dist:
            table[node.id] = None
            continue
        best_arc = None
        best_time = None
        for arc_index, arc in enumerate(network.arcs):
            if arc.src != node.id or arc.dst not in dist:
                continue
            t = arc.traversal_time + dist[arc.dst]
            if best_time is None or t < best_time:
                best_time = t
                best_arc = arc_index
        table[node.id] = best_arc
    return table
