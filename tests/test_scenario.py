"""Scenario parsing, geometry derivations, and the network builder."""

from __future__ import annotations

import heapq
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evacsim
import evacsim.cli
import evacsim.engine
import evacsim.scenario
from evacsim import (
    PARAM_DEFAULTS,
    ScenarioSyntaxError,
    SchemaViolation,
    SemanticViolation,
    derive_network,
    load_scenario,
    parse_scenario,
    run,
    serialize_scenario,
)
from evacsim.engine import _Simulation, door_sites
from evacsim.scenario import (
    STEP_COSTS,
    STEPS,
    CellKind,
    Geometry,
    cells_center,
    distance_field,
    half_up,
    los_pairs,
    unreachable_nodes,
)
from evacsim.sweep import compare_backends

from conftest import SCENARIOS, doc_text, grid_rows, make_scenario, room_doc, run_cli

SQRT2 = math.sqrt(2.0)


# -- parsing ----------------------------------------------------------------


def test_glyphs_map_to_cell_kinds():
    doc = room_doc(["#E##", "#.o#", "####"], count=1, spawn=[1, 1, 1, 1])
    geo = make_scenario(doc).geometry
    assert geo.kinds[0, 1] == CellKind.EXIT
    assert geo.kinds[1, 1] == CellKind.EMPTY
    assert geo.kinds[1, 2] == CellKind.OBSTACLE
    assert geo.kinds[0, 0] == CellKind.WALL
    assert [zone.cells for zone in geo.exit_zones] == [[(1, 0)]]


def test_bad_json_is_a_syntax_error():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("{not json")


def test_unknown_top_level_key_rejected():
    doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]))
    doc["extra"] = 1
    with pytest.raises(SchemaViolation):
        make_scenario(doc)


def test_exit_list_is_rejected_as_an_unknown_field():
    # exits are the grid's E cells; a separate list would be ignored
    doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]))
    doc["geometry"]["exits"] = [[5, 2]]
    with pytest.raises(SchemaViolation, match=r"geometry\.exits: unknown field"):
        make_scenario(doc)


def test_unknown_glyph_rejected():
    doc = room_doc(["####", "#?E#", "####"], count=1, spawn=[1, 1, 1, 1])
    with pytest.raises(SchemaViolation):
        make_scenario(doc)


def test_ragged_rows_rejected():
    doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]))
    doc["geometry"]["cells"][2] = doc["geometry"]["cells"][2][:-1]
    with pytest.raises(SemanticViolation):
        make_scenario(doc)


def test_missing_population_count_rejected():
    doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]))
    del doc["population"]["count"]
    with pytest.raises(SchemaViolation):
        make_scenario(doc)


def test_scenario_without_exit_rejected():
    doc = room_doc(grid_rows(6, 5))
    with pytest.raises(SemanticViolation):
        make_scenario(doc)


def test_spawn_rect_outside_grid_rejected():
    doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]), spawn=[1, 1, 9, 3])
    with pytest.raises(SemanticViolation):
        make_scenario(doc)


def test_unreachable_pocket_is_a_warning_not_an_error(tmp_path):
    # a sealed-off pocket parses fine (partial buildings are inspectable)
    # but validation flags the cells that cannot reach an exit, and so do
    # `evacsim validate` and the run's warnings; only spawning people in
    # the pocket is an error
    rows = grid_rows(8, 5, exits=[(7, 2)], walls=[(3, 1), (3, 2), (3, 3)])
    with pytest.raises(SemanticViolation, match="6 open cell"):
        make_scenario(room_doc(rows, spawn=[1, 1, 2, 3]))
    doc = room_doc(rows, spawn=[4, 1, 6, 3], max_sim_time=5.0)
    scn = make_scenario(doc)
    warnings = scn.geometry.validate()
    assert any("reach" in w for w in warnings)
    assert "6 open cell(s) cannot reach any exit" in run(scn).warnings
    path = tmp_path / "pocket.json"
    path.write_text(doc_text(doc), encoding="utf-8")
    proc = run_cli("validate", path)
    assert proc.returncode == 0, proc.stderr
    assert "warning: 6 open cell(s) cannot reach any exit" in proc.stdout.splitlines()


@pytest.mark.parametrize("backend", ["ca", "sf", "flow"])
def test_a_run_reports_the_scenario_warnings_before_the_network_ones(backend):
    # the west room (x 1-4) is sealed; everyone spawns in the east room.
    # The movers that route on the network also report the room it drops.
    rows = grid_rows(12, 7, exits=[(11, 3)], walls=[(5, y) for y in range(1, 6)])
    scn = make_scenario(room_doc(rows, backend=backend, spawn=[6, 1, 10, 5], max_sim_time=5.0))
    want = ["20 open cell(s) cannot reach any exit"]
    if backend != "ca":
        want.append("dropped unreachable room nodes [0]")
    assert run(scn).warnings == want


def test_every_shipped_scenario_is_named_in_the_readme():
    with open(os.path.join(SCENARIOS, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    shipped = sorted(name for name in os.listdir(SCENARIOS) if name.endswith(".json"))
    assert shipped and [name for name in shipped if f"`{name}`" not in readme] == []


def test_unknown_override_key_rejected():
    for key in ("no_such_knob", "ambient_temp"):
        doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]), overrides={key: 1.0})
        with pytest.raises(SchemaViolation):
            make_scenario(doc)


def test_every_parameter_is_read_outside_the_registry():
    # an override of a parameter nothing reads would silently do nothing
    package = os.path.dirname(evacsim.__file__)
    sources = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "config.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                sources.append(fh.read())
    text = "\n".join(sources)
    unread = [key for key in PARAM_DEFAULTS if f'"{key}"' not in text and f"'{key}'" not in text]
    assert unread == []


def test_bad_backend_rejected():
    doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]), backend="quantum")
    with pytest.raises(SchemaViolation):
        make_scenario(doc)


@pytest.mark.parametrize(
    "key, value",
    [("max_sim_time", "10"), ("max_sim_time", True), ("alarm_time", "5"), ("alarm_time", None),
     ("alarm_time", False), ("dt", "0.05"), ("dt", True)],
)
def test_run_config_times_must_be_numbers(key, value):
    doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]))
    doc["config"][key] = value
    with pytest.raises(SchemaViolation, match=rf"^config\.{key}: must be a number$"):
        make_scenario(doc)


def test_declared_door_on_wall_cell_rejected():
    doc = room_doc(
        grid_rows(8, 6, exits=[(7, 2)]),
        doors=[{"id": "d0", "cells": [[0, 0]], "width": 0.5}],
    )
    with pytest.raises(SemanticViolation):
        make_scenario(doc)


@pytest.mark.parametrize(
    "doors, message",
    [
        pytest.param(
            [{"id": "d", "cells": [[3, 2]]}, {"id": "d", "cells": [[3, 3]]}], "duplicate door id 'd'", id="duplicate-id"
        ),
        pytest.param([{"id": "d", "cells": []}], "door 'd' has an empty span", id="empty-span"),
        pytest.param([{"id": "d", "cells": [[20, 2]]}], "door 'd' cell (20, 2) outside the grid", id="outside-grid"),
        pytest.param([{"id": "d", "cells": [[2, 2], [3, 3]]}], "door 'd' span is not a straight run", id="not-straight"),
        pytest.param([{"id": "d", "cells": [[2, 2], [4, 2]]}], "door 'd' span is not contiguous", id="not-contiguous"),
        pytest.param([{"id": "d", "cells": [[3, 2]], "width": 0}], "door 'd' width must be > 0", id="width-0"),
        pytest.param(
            [{"id": "exit:1", "cells": [[3, 2]]}],
            "door id 'exit:1' takes the prefix 'exit:' of doorless exits",
            id="exit-prefix",
        ),
        pytest.param(
            [{"id": "a", "cells": [[3, 2], [3, 3]]}, {"id": "b", "cells": [[2, 3], [3, 3], [4, 3]]}],
            "doors 'a' and 'b' share cell (3, 3)",
            id="overlapping-spans",
        ),
    ],
)
def test_a_bad_door_span_is_refused_with_its_reason(doors, message):
    doc = room_doc(grid_rows(8, 6, exits=[(7, 2)]), doors=doors)
    with pytest.raises(SemanticViolation) as refused:
        make_scenario(doc)
    assert str(refused.value) == f"geometry.doors: {message}"


def test_hazard_requires_exactly_one_source():
    rows = grid_rows(6, 5, exits=[(5, 2)])
    doc = room_doc(rows, hazard={"file": "x.csv", "builtin": {"source": [1, 1]}})
    with pytest.raises(SchemaViolation):
        make_scenario(doc)


def test_builtin_smoke_diffusion_bound_enforced():
    rows = grid_rows(6, 5, exits=[(5, 2)])
    doc = room_doc(rows, hazard={"builtin": {"source": [2, 2], "diffusion": 0.3}})
    with pytest.raises(SemanticViolation):
        make_scenario(doc)


def test_serialize_round_trip_is_stable():
    doc = room_doc(
        grid_rows(10, 8, exits=[(9, 3), (9, 4)], obstacles=[(4, 4)]),
        count=7,
        attributes=[
            {"attr": "age", "dist": "uniform", "lo": 20, "hi": 60},
            {"attr": "gender", "dist": "categorical", "values": ["F", "M"], "weights": [0.5, 0.5]},
        ],
        doors=[{"id": "main", "cells": [[9, 3], [9, 4]], "width": 1.0}],
        overrides={"v_ref": 1.5},
    )
    scn = make_scenario(doc)
    text = serialize_scenario(scn)
    again = parse_scenario(text)
    assert serialize_scenario(again) == text
    assert np.array_equal(again.geometry.kinds, scn.geometry.kinds)
    assert again.population.count == scn.population.count
    assert again.config.overrides == scn.config.overrides


def test_load_scenario_reads_files(tmp_path):
    doc = room_doc(grid_rows(6, 5, exits=[(5, 2)]))
    path = tmp_path / "s.json"
    path.write_text(doc_text(doc))
    scn = load_scenario(str(path))
    assert scn.geometry.width == 6


def test_shipped_scenarios_parse():
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    paths = sorted(glob.glob(os.path.join(root, "*.json")))
    assert len(paths) >= 4
    for path in paths:
        scn = load_scenario(path)
        assert scn.geometry.exit_zones, path
        # the derived network needs no run-time check: unique ids, arcs
        # between known nodes, capacity >= 1, traversal >= 0, and every
        # node reaches a destination
        net = derive_network(scn.geometry, scn.config.params())
        ids = [n.id for n in net.nodes]
        assert len(set(ids)) == len(ids), path
        assert any(n.kind == "destination" for n in net.nodes), path
        for arc in net.arcs:
            assert arc.src in ids and arc.dst in ids, path
            assert arc.capacity >= 1 and arc.traversal_time >= 0, path
        assert unreachable_nodes(net.nodes, net.arcs) == set(), path


# -- rounding ---------------------------------------------------------------


def test_half_up_rounds_halves_upward():
    assert half_up(0.5) == 1
    assert half_up(1.5) == 2
    assert half_up(2.5) == 3
    assert half_up(2.4999) == 2
    assert half_up(3.0) == 3


# -- distance field ----------------------------------------------------------


def _bellman_distances(geo, sources):
    """Plain iterate-to-fixpoint relaxation, the slow reference."""
    open_mask = geo.open_mask
    h, w = open_mask.shape
    dist = np.full((h, w), np.inf)
    for (x, y) in sources:
        if open_mask[y, x]:
            dist[y, x] = 0.0
    moves = [(-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
             (-1, -1, SQRT2), (1, -1, SQRT2), (-1, 1, SQRT2), (1, 1, SQRT2)]
    changed = True
    while changed:
        changed = False
        for y in range(h):
            for x in range(w):
                if not open_mask[y, x]:
                    continue
                for dx, dy, cost in moves:
                    nx, ny = x + dx, y + dy
                    if not (0 <= nx < w and 0 <= ny < h) or not open_mask[ny, nx]:
                        continue
                    if dx and dy and not (open_mask[y, nx] and open_mask[ny, x]):
                        continue
                    if dist[ny, nx] + cost < dist[y, x] - 1e-12:
                        dist[y, x] = dist[ny, nx] + cost
                        changed = True
    return dist


def test_distance_field_matches_relaxation_reference():
    rng = np.random.default_rng(7)
    for trial in range(6):
        w, h = int(rng.integers(6, 12)), int(rng.integers(5, 10))
        rows = [list(r) for r in grid_rows(w, h)]
        for _ in range(int(rng.integers(0, 6))):
            x, y = int(rng.integers(1, w - 1)), int(rng.integers(1, h - 1))
            rows[y][x] = "#"
        ex, ey = int(rng.integers(1, w - 1)), 0
        rows[ey][ex] = "E"
        rows[1][ex] = "."  # keep the exit approachable
        doc = room_doc(["".join(r) for r in rows], count=1, spawn=[ex, 1, ex, 1])
        geo = make_scenario(doc).geometry
        got = geo.exit_fields[-1]
        want = _bellman_distances(geo, [cell for zone in geo.exit_zones for cell in zone.cells])
        assert np.allclose(got, want, equal_nan=True), f"trial {trial}"


def test_distance_field_blocks_diagonal_corner_cuts():
    # exit reachable only around an L-shaped wall: the diagonal squeeze
    # between two blocked cells must not shortcut the path
    rows = [
        "#####",
        "#..E#",
        "#.###",
        "#...#",
        "#####",
    ]
    doc = room_doc(rows, count=1, spawn=[1, 1, 1, 1])
    geo = make_scenario(doc).geometry
    d = geo.exit_fields[-1]
    # every diagonal here squeezes past the blocked (2, 2) corner, so the
    # legal path is all straight steps: (1,3) -> (1,2) -> (1,1) -> (2,1) -> exit
    assert np.isclose(d[3, 1], 4.0)
    assert np.isclose(d[3, 2], 5.0)


def test_distance_field_unreachable_cells_are_infinite():
    rows = [
        "#####",
        "#.#E#",
        "#####",
    ]
    # nobody can spawn here: the one empty cell is sealed off, and people
    # do not spawn on exits
    doc = room_doc(rows, count=0, spawn=[3, 1, 3, 1])
    geo = make_scenario(doc).geometry
    d = geo.exit_fields[-1]
    assert np.isinf(d[1, 1])
    assert d[1, 3] == 0.0


def _heap_distances(geometry, sources=None):
    """The reference: the distance field as it was first written, over
    (d, x, y) heap entries and a 2-D distance table, relaxing all nine
    steps of ``Geometry.moves`` (the stay step never improves)."""
    moves = geometry.moves.tolist()
    dist = [[math.inf] * geometry.width for _ in range(geometry.height)]
    if sources is None:
        ys, xs = np.nonzero(geometry.kinds == CellKind.EXIT)
        sources = list(zip(xs.tolist(), ys.tolist()))
    heap = []
    for (x, y) in sources:
        if geometry.is_open(x, y):
            dist[y][x] = 0.0
            heap.append((0.0, x, y))
    heapq.heapify(heap)
    while heap:
        d, x, y = heapq.heappop(heap)
        if d > dist[y][x]:
            continue
        for (dx, dy), cost, allowed in zip(STEPS, STEP_COSTS, moves[y][x]):
            nd = d + cost
            if allowed and nd < dist[y + dy][x + dx]:
                dist[y + dy][x + dx] = nd
                heapq.heappush(heap, (nd, x + dx, y + dy))
    return np.array(dist, dtype=np.float64)


def _decoded_moves(geo):
    """(H, W, 8) bool read back from ``Geometry.step_offsets``: the step k
    of ``STEPS[1:]`` of each listed offset, of the listed kind, whose
    target lies on the grid."""
    out = np.zeros((geo.height, geo.width, 8), dtype=bool)
    for u, pair in enumerate(geo.step_offsets):
        y, x = divmod(u, geo.width)
        for straight, offsets in zip((True, False), pair):
            for off in offsets:
                (k,) = [
                    k for k, ((dx, dy), cost) in enumerate(zip(STEPS[1:], STEP_COSTS[1:]))
                    if dy * geo.width + dx == off and (cost == 1.0) == straight and geo.in_bounds(x + dx, y + dy)
                ]
                out[y, x, k] = True
    return out


# mostly open cells; walls and obstacles leave diagonal corners to squeeze
# past and pockets cut off from every exit
CELL_DRAWS = [CellKind.EMPTY] * 6 + [CellKind.WALL, CellKind.WALL, CellKind.OBSTACLE, CellKind.EXIT]


@st.composite
def plans(draw):
    """A 1-12 x 1-10 grid of random cells, built without the parser, so
    a plan with no exit at all is drawn too, and sometimes a walled ring
    that seals a pocket.  Returns the geometry and either None (the exit
    cells) or a few source cells, open or not."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    cells = draw(st.lists(st.sampled_from(CELL_DRAWS), min_size=width * height, max_size=width * height))
    kinds = np.array(cells, dtype=np.int8).reshape(height, width)
    if draw(st.booleans()):
        x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        x1, y1 = draw(st.integers(x0, width - 1)), draw(st.integers(y0, height - 1))
        kinds[y0:y1 + 1, [x0, x1]] = kinds[[y0, y1], x0:x1 + 1] = CellKind.WALL
    cell = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    sources = draw(st.none() | st.lists(cell, max_size=4))
    return Geometry(width=width, height=height, cell_size=0.5, kinds=kinds, doors=[]), sources


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(plans())
def test_distance_field_matches_the_two_dimensional_heap_bit_for_bit(plan):
    geo, sources = plan
    got = geo.exit_fields[-1] if sources is None else distance_field(geo, sources)
    want = _heap_distances(geo, sources)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(_decoded_moves(geo), geo.moves[:, :, 1:])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(plans())
def test_the_all_exits_field_is_the_least_of_the_zone_fields_bit_for_bit(plan):
    # each field is the least float sum over a set of paths, and the
    # exits' paths are the union of the zones' paths: so a search from
    # every exit cell gives the last layer of the geometry's exit fields
    geo, _ = plan
    zone_fields = [distance_field(geo, zone.cells) for zone in geo.exit_zones]
    want = np.minimum.reduce(zone_fields) if zone_fields else np.full(geo.kinds.shape, np.inf)
    every_exit = distance_field(geo, [cell for zone in geo.exit_zones for cell in zone.cells])
    assert every_exit.tobytes() == want.tobytes()
    assert geo.exit_fields.tobytes() == np.stack([*zone_fields, want]).tobytes()


def _serpentine_rows(width=26, lanes=10):
    """One corridor folded into ``lanes`` rows joined at alternate ends,
    the exit at the start of the first row: the far end of the last row
    is more than 200 steps away."""
    rows = ["#" * width]
    for lane in range(lanes):
        rows.append("#" + "." * (width - 2) + "#")
        if lane < lanes - 1:
            gap = width - 2 if lane % 2 == 0 else 1
            rows.append("".join("." if x == gap else "#" for x in range(width)))
    rows.append("#" * width)
    rows[1] = "E" + rows[1][1:]
    return rows


def _smoke_exit_ca_doc():
    """herding_two_exit as the smoke_exit_ca benchmark edits it: 800
    people over the room, the smoke source beside the west exit."""
    with open(os.path.join(SCENARIOS, "herding_two_exit.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["population"]["count"] = 800
    doc["population"]["spawn"]["rect"] = [1, 1, 40, 40]
    doc["hazard"]["builtin"].update(source=[4, 21], rate=3.0)
    return doc


SHIPPED = sorted(name[:-5] for name in os.listdir(SCENARIOS) if name.endswith(".json"))


def _named_plan(name):
    if name == "serpentine":
        return make_scenario(room_doc(_serpentine_rows(), count=0)).geometry
    if name == "smoke_exit_ca":
        return make_scenario(_smoke_exit_ca_doc()).geometry
    return load_scenario(os.path.join(SCENARIOS, f"{name}.json")).geometry


@pytest.mark.parametrize("name", SHIPPED + ["smoke_exit_ca", "serpentine"])
def test_every_field_of_a_run_matches_the_heap_bit_for_bit(name):
    # the geometry's exit fields, a layer per zone and the all-exits
    # field, on each shipped plan, the benchmark's edit and one long
    # winding corridor
    geo = _named_plan(name)
    got = list(geo.exit_fields)
    want = [_heap_distances(geo, zone.cells) for zone in geo.exit_zones] + [_heap_distances(geo)]
    assert [field.tobytes() for field in got] == [field.tobytes() for field in want]
    if name == "serpentine":
        assert got[-1][np.isfinite(got[-1])].max() >= 200


@pytest.mark.parametrize("name", SHIPPED + ["serpentine"])
def test_the_step_lists_are_read_only_and_decode_to_the_moves(name):
    geo = _named_plan(name)
    steps = geo.step_offsets
    assert type(steps) is tuple and len(steps) == geo.width * geo.height
    for pair in set(steps):
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(offsets) is tuple and all(type(off) is int for off in offsets) for offsets in pair)
    assert np.array_equal(_decoded_moves(geo), geo.moves[:, :, 1:])


def test_the_step_lists_are_built_once_per_geometry(monkeypatch):
    # the four zone searches of big_hall_ca share one table
    kinds = load_scenario(os.path.join(SCENARIOS, "big_hall_ca.json")).geometry.kinds
    geo = Geometry(width=kinds.shape[1], height=kinds.shape[0], cell_size=0.4, kinds=kinds, doors=[])
    packs = []
    packbits = np.packbits
    monkeypatch.setattr(np, "packbits", lambda *a, **k: packs.append(1) or packbits(*a, **k))
    fields = geo.exit_fields
    assert len(fields) == 5 and len(packs) == 1
    assert geo.step_offsets is geo.step_offsets and len(packs) == 1


def test_each_exit_field_is_searched_once_per_scenario(monkeypatch):
    # herding_two_exit has two exit zones: its parse finds both fields,
    # and the runs that share the parsed scenario search no more
    calls = []
    search = distance_field

    def counted(geometry, sources):
        calls.append(len(sources))
        return search(geometry, sources)

    for module in (evacsim.scenario, evacsim.engine):
        monkeypatch.setattr(module, "distance_field", counted)
    with open(os.path.join(SCENARIOS, "herding_two_exit.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["config"]["max_sim_time"] = 1.0
    scenario = parse_scenario(json.dumps(doc), SCENARIOS)
    sim = _Simulation(scenario)
    sim.run()
    assert len(calls) == len(scenario.geometry.exit_zones) == 2
    assert sim.world.exit_fields is scenario.geometry.exit_fields
    assert not sim.world.exit_fields.flags.writeable
    calls.clear()
    compare_backends(json.dumps(doc), SCENARIOS)
    assert len(calls) == 2


# -- line of sight ------------------------------------------------------------


def _blocked_chord(geo, a, b):
    """Longest run of the centre-to-centre segment inside any blocked cell.

    Measured in cell units by clipping the segment against each blocked
    cell's open box, so it is exact where the sampled implementation is
    approximate.
    """
    ax, ay = a[0] + 0.5, a[1] + 0.5
    dx, dy = b[0] - a[0], b[1] - a[1]
    length = math.hypot(dx, dy)
    if length == 0:
        return 0.0
    worst = 0.0
    for (cy, cx) in np.argwhere(geo.blocked_mask):
        t0, t1 = 0.0, 1.0
        for origin, delta, lo, hi in ((ax, dx, cx, cx + 1), (ay, dy, cy, cy + 1)):
            if delta == 0:
                if not (lo < origin < hi):
                    t0, t1 = 1.0, 0.0
                    break
            else:
                ta, tb = (lo - origin) / delta, (hi - origin) / delta
                t0 = max(t0, min(ta, tb))
                t1 = min(t1, max(ta, tb))
        if t1 > t0:
            worst = max(worst, (t1 - t0) * length)
    return worst


def _touches_lattice_corner(a, b):
    """True when the segment passes (numerically) through a grid corner.

    Those rays sit exactly on the documented tie between seeing past a
    corner and not, so the oracle makes no claim about them.
    """
    ax, ay = a[0] + 0.5, a[1] + 0.5
    dx, dy = b[0] - a[0], b[1] - a[1]
    cheb = max(abs(dx), abs(dy))
    for k in range(2 * cheb + 1):
        f = k / (2 * cheb) if cheb else 0.0
        x, y = ax + dx * f, ay + dy * f
        if abs(x - round(x)) < 1e-9 and abs(y - round(y)) < 1e-9:
            return True
    return False


def _in_sight(geo, a, b):
    """Line of sight between two cells: one pair through ``los_pairs``."""
    return bool(los_pairs(geo.blocked_mask, np.array([a]), np.array([b]))[0])


def test_line_of_sight_agrees_with_exact_clipping():
    # one-sided oracle: a ray that never enters a blocked cell must be
    # visible; a ray spending more than the sampling interval inside one
    # must be blocked.  Shorter clips are the sampler's documented slack,
    # and corner-grazing rays are documented ties.
    rng = np.random.default_rng(11)
    rows = grid_rows(12, 9, exits=[(11, 4)], obstacles=[(4, 3), (5, 3), (6, 6), (7, 2)])
    doc = room_doc(rows, count=1, spawn=[1, 1, 1, 1])
    geo = make_scenario(doc).geometry
    open_cells = np.argwhere(geo.open_mask)  # (y, x)
    checked_clear = checked_blocked = 0
    for _ in range(300):
        ai, bi = rng.integers(0, len(open_cells), size=2)
        a = (int(open_cells[ai][1]), int(open_cells[ai][0]))
        b = (int(open_cells[bi][1]), int(open_cells[bi][0]))
        if _touches_lattice_corner(a, b):
            continue
        chord = _blocked_chord(geo, a, b)
        if chord == 0.0:
            assert _in_sight(geo, a, b), (a, b)
            checked_clear += 1
        elif chord >= 0.75:
            assert not _in_sight(geo, a, b), (a, b, chord)
            checked_blocked += 1
    assert checked_clear >= 50
    assert checked_blocked >= 50


def test_line_of_sight_is_symmetric():
    rows = grid_rows(10, 8, exits=[(9, 3)], obstacles=[(4, 3), (5, 4)])
    doc = room_doc(rows, count=1, spawn=[1, 1, 1, 1])
    geo = make_scenario(doc).geometry
    rng = np.random.default_rng(3)
    open_cells = np.argwhere(geo.open_mask)
    for _ in range(100):
        ai, bi = rng.integers(0, len(open_cells), size=2)
        a = (int(open_cells[ai][1]), int(open_cells[ai][0]))
        b = (int(open_cells[bi][1]), int(open_cells[bi][0]))
        assert _in_sight(geo, a, b) == _in_sight(geo, b, a)


def test_los_pairs_blocked_by_wall():
    rows = [
        "#####",
        "#.#.#",
        "#.#E#",
        "#...#",
        "#####",
    ]
    doc = room_doc(rows, count=1, spawn=[1, 1, 1, 1])
    geo = make_scenario(doc).geometry
    a = np.array([[1, 1], [1, 3]])
    b = np.array([[3, 1], [3, 3]])
    vis = los_pairs(geo.blocked_mask, a, b)
    assert not vis[0]  # straight through the dividing wall
    assert vis[1]  # along the open corridor


def test_los_pairs_answers_each_line_as_if_alone():
    # a line's verdict may not depend on the other lines of the same call:
    # short lines in a batch with one long line see what they see alone
    rng = np.random.default_rng(21)
    blocked = rng.random((40, 40)) < 0.08
    a = rng.integers(0, 40, size=(2000, 2))
    b = np.clip(a + rng.integers(-4, 5, size=(2000, 2)), 0, 39)
    alone = np.array([los_pairs(blocked, a[i : i + 1], b[i : i + 1])[0] for i in range(len(a))])
    short = los_pairs(blocked, a, b)
    with_long = los_pairs(blocked, np.vstack([a, [[0, 0]]]), np.vstack([b, [[39, 39]]]))[:-1]
    assert short.tolist() == alone.tolist()
    assert with_long.tolist() == alone.tolist()
    assert 0 < alone.sum() < len(alone)


# -- rooms and the derived network --------------------------------------------


def test_room_regions_separates_rooms():
    rows = [
        "#######",
        "#..#..#",
        "#..#..E",
        "#..#..#",
        "#######",
    ]
    doc = room_doc(rows, count=1, spawn=[5, 2, 5, 2])
    geo = make_scenario(doc).geometry
    labels = geo.room_labels
    assert labels[1, 1] != labels[1, 4]
    assert labels[1, 4] == labels[3, 5]
    assert labels[0, 0] < 0  # walls carry no room label
    assert not labels.flags.writeable and geo.room_labels is labels


def test_derive_network_two_rooms_one_door():
    rows = [
        "########",
        "#..#...#",
        "#......E",
        "#..#...#",
        "########",
    ]
    doc = room_doc(
        rows,
        count=1,
        spawn=[1, 1, 2, 3],
        doors=[{"id": "mid", "cells": [[3, 2]], "width": 0.5}],
    )
    geo = make_scenario(doc).geometry
    net = derive_network(geo, PARAM_DEFAULTS)
    kinds = sorted(n.kind for n in net.nodes)
    assert kinds.count("destination") == 1
    assert kinds.count("room") == 2
    # rooms connect through the declared door and on to the exit
    dests = {n.id for n in net.nodes if n.kind == "destination"}
    srcs = {a.src for a in net.arcs}
    assert all(n.id in srcs for n in net.nodes if n.kind == "room")
    assert any(a.dst in dests for a in net.arcs)
    assert any(a.door_id == "mid" for a in net.arcs)
    for arc in net.arcs:
        assert arc.capacity >= 1
        assert arc.traversal_time >= 0
    assert not geo.room_labels.flags.writeable and geo.room_labels is geo.room_labels


def test_two_rooms_door_sites():
    # the interior door mid, which bodies cross by plane, and the doorless
    # exit span, which swallows them; the crowd comes from the west room
    geometry = load_scenario(os.path.join(SCENARIOS, "two_rooms.json")).geometry
    sites = {site.door_id: site for site in door_sites(geometry)}
    assert list(sites) == ["mid", "exit:0"]
    mid = sites["mid"]
    assert not mid.covers_exit and sites["exit:0"].covers_exit
    assert mid.half_span == len(mid.cells) * geometry.cell_size / 2
    # upstream is -x, and the room there lies wholly west of the door
    assert mid.upstream.tolist() == [-1.0, 0.0]
    door_x = min(x for x, _y in mid.cells)
    for x, y in mid.cells:
        room = geometry.room_labels[y, x - 1]
        assert room >= 0 and (np.nonzero(geometry.room_labels == room)[1] < door_x).all()
    for site in sites.values():
        assert site.center.tolist() == list(cells_center(site.cells, geometry.cell_size))


def test_undeclared_gap_joins_rooms_into_one():
    # without a declared door the gap keeps the open space 4-connected,
    # so segmentation sees a single room
    rows = [
        "########",
        "#..#...#",
        "#......E",
        "#..#...#",
        "########",
    ]
    doc = room_doc(rows, count=1, spawn=[1, 1, 2, 3])
    geo = make_scenario(doc).geometry
    net = derive_network(geo, PARAM_DEFAULTS)
    assert sorted(n.kind for n in net.nodes).count("room") == 1


def test_derive_network_declared_door_capacity_scales_with_width():
    base = {
        "geometry": {
            "cell_size": 0.5,
            "cells": [
                "########",
                "#..#...#",
                "#..d...E",
                "#..#...#",
                "########",
            ],
        },
        "population": {"count": 1, "spawn": {"rect": [1, 1, 2, 3]}},
        "config": {"backend": "flow", "seed": 0},
    }

    def with_width(width):
        doc = json.loads(json.dumps(base))
        doc["geometry"]["cells"] = [r.replace("d", ".") for r in doc["geometry"]["cells"]]
        doc["geometry"]["doors"] = [{"id": "mid", "cells": [[3, 2]], "width": width}]
        geo = make_scenario(doc).geometry
        net = derive_network(geo, PARAM_DEFAULTS)
        assert not geo.room_labels.flags.writeable and geo.room_labels is geo.room_labels
        return next(a.capacity for a in net.arcs if a.door_id == "mid")

    assert with_width(2.0) > with_width(0.5)


def test_spawn_node_derives_the_network_at_most_once(monkeypatch, tmp_path):
    # validation reads the cached topology; a run derives the network only
    # for a mover that moves or steers on it, and `validate` counts the
    # topology's rooms and links without deriving it
    calls = []
    for module in (evacsim.scenario, evacsim.engine):

        def counted(*args, _derive=module.derive_network, **kwargs):
            calls.append(1)
            return _derive(*args, **kwargs)

        monkeypatch.setattr(module, "derive_network", counted)
    with open(os.path.join(SCENARIOS, "two_rooms.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["population"]["spawn"] = {"node": 0}
    doc["config"]["max_sim_time"] = 5.0
    for backend, want in (("flow", 1), ("ca", 0)):
        doc["config"]["backend"] = backend
        calls.clear()
        run(parse_scenario(json.dumps(doc)))
        assert len(calls) == want, backend
    path = tmp_path / "two_rooms_node.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls.clear()
    assert evacsim.cli.main(["validate", str(path)]) == 0
    assert len(calls) == 0


def test_cells_of_clamps_to_the_grid_like_clip():
    geo = make_scenario(room_doc(grid_rows(7, 5, exits=[(6, 2)]), count=1)).geometry
    cs, w, h = geo.cell_size, geo.width, geo.height
    xs = np.array([-7.3, -cs, -1e-9, 0.0, cs, 2 * cs, (w - 1) * cs, w * cs - 1e-9, w * cs, w * cs + 4.2])
    ys = np.array([-5.1, -cs, -1e-9, 0.0, cs, 3 * cs, (h - 1) * cs, h * cs - 1e-9, h * cs, h * cs + 2.7])
    gx, gy = np.meshgrid(xs, ys)
    # every combination of below, on, inside and beyond both axes, and the top corner
    pos = np.concatenate([np.stack([gx.ravel(), gy.ravel()], axis=1), [[w * cs, h * cs]]])
    want = np.clip((pos / cs).astype(np.int64), 0, [w - 1, h - 1])
    got = geo.cells_of(pos)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got[-1].tolist() == [w - 1, h - 1]
    # each bound is reached on each axis
    assert {0, w - 1} <= set(got[:, 0].tolist()) and {0, h - 1} <= set(got[:, 1].tolist())
