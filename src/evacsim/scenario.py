"""Scenario model: floor-plan geometry, egress network, population.

A scenario document is JSON with three sections -- ``geometry``,
``population`` and optional ``hazard`` -- plus a ``config`` block; the
egress network is always derived from the geometry.  The grid is
encoded as strings, one character per cell: ``.`` walkable, ``#`` wall,
``o`` obstacle, ``E`` exit.  Cell (x, y) is column x of row y; positions
in metres put the origin at the top-left corner of cell (0, 0).

``Geometry`` owns what the floor plan implies, each part built once on
first use and kept read-only: the step rules and the per-cell step lists
the distance fields walk, the exit zones and ``exit_fields``, the room
labels, and the parameter-free ``topology`` of room and destination
nodes and the links between them.
``derive_network`` only prices those links under the run parameters.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import RunConfig, half_up, is_number, require_number
from .errors import ScenarioSyntaxError, SchemaViolation, SemanticViolation

DEFAULT_CELL_SIZE = 0.4  # m


class CellKind(IntEnum):
    EMPTY = 0
    WALL = 1
    OBSTACLE = 2
    EXIT = 3


GLYPH_TO_KIND = {".": CellKind.EMPTY, "#": CellKind.WALL, "o": CellKind.OBSTACLE, "E": CellKind.EXIT}
KIND_TO_GLYPH = {int(v): k for k, v in GLYPH_TO_KIND.items()}

# One move on the grid: stay first, then the 8-neighbourhood in reading
# order.  Ties on equal score resolve to the earliest step, so this order
# is part of the movement rule, not an implementation accident.
STEPS = ((0, 0), (-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
STEP_DX, STEP_DY = np.array(STEPS, dtype=np.int64).T
STEP_COSTS = tuple(math.hypot(dx, dy) for dx, dy in STEPS)  # 0, 1 or sqrt(2) cells


def cells_center(cells: list[tuple[int, int]], cell_size: float) -> tuple[float, float]:
    """Mean of the cells' centres, in metres."""
    xs = [c[0] + 0.5 for c in cells]
    ys = [c[1] + 0.5 for c in cells]
    return (sum(xs) / len(xs) * cell_size, sum(ys) / len(ys) * cell_size)


@dataclass
class Door:
    """A straight run of walkable cells that connects two spaces."""

    id: str
    cells: list[tuple[int, int]]
    width: float  # m, clear width used for capacity derivation


@dataclass
class ExitZone:
    """A connected cluster of exit cells, addressed by a small integer id."""

    id: int
    cells: list[tuple[int, int]]


@dataclass(eq=False)
class Geometry:
    width: int
    height: int
    cell_size: float
    kinds: np.ndarray          # int8 [height, width] of CellKind codes
    doors: list[Door]

    def __post_init__(self):
        self.kinds = np.asarray(self.kinds, dtype=np.int8)
        # derived tables (these masks, the cached properties) are built once
        # and read-only: arrays not writeable, step lists made of tuples
        self.open_mask = (self.kinds == CellKind.EMPTY) | (self.kinds == CellKind.EXIT)
        self.blocked_mask = ~self.open_mask
        self.open_mask.flags.writeable = self.blocked_mask.flags.writeable = False

    @cached_property
    def moves(self) -> np.ndarray:
        """(H, W, 9) bool: whether step k of ``STEPS`` is allowed from each
        cell.  A step starts and ends on open cells of the grid, and a
        diagonal may not cut past a blocked corner (both orthogonal
        neighbours of the move must be open).  Staying is allowed on
        every open cell."""
        h, w = self.open_mask.shape
        padded = np.zeros((h + 2, w + 2), dtype=bool)
        padded[1:-1, 1:-1] = self.open_mask

        def open_at(dx: int, dy: int) -> np.ndarray:
            return padded[1 + dy:h + 1 + dy, 1 + dx:w + 1 + dx]

        moves = np.stack(
            [self.open_mask & open_at(dx, dy) & open_at(dx, 0) & open_at(0, dy) for dx, dy in STEPS], axis=2
        )
        moves.flags.writeable = False
        return moves

    @cached_property
    def step_offsets(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The allowed ``moves`` of each flat cell u = y * width + x as a
        pair (straight, diagonal) of tuples of flat offsets to the steps'
        targets, each in ``STEPS`` order, the stay step left out.  Cells
        with the same allowed steps share one pair."""
        w = self.width
        offsets = [dy * w + dx for dx, dy in STEPS[1:]]
        straight = [cost == 1.0 for cost in STEP_COSTS[1:]]

        def pair(mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
            allowed = [k for k in range(8) if mask >> k & 1]
            return (tuple(offsets[k] for k in allowed if straight[k]),
                    tuple(offsets[k] for k in allowed if not straight[k]))

        masks = np.packbits(self.moves[:, :, 1:], axis=2, bitorder="little").ravel().tolist()
        pairs = {m: pair(m) for m in set(masks)}
        return tuple(map(pairs.__getitem__, masks))

    def neighbourhood(self, cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(n, 9) x and y of the ``STEPS`` targets from cells (cx, cy),
        clamped to the grid, and the (n, 9) ``moves`` allowed there."""
        nx = np.clip(cx[:, None] + STEP_DX, 0, self.width - 1)
        ny = np.clip(cy[:, None] + STEP_DY, 0, self.height - 1)
        return nx, ny, self.moves[cy, cx]

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def orthogonal(self, x: int, y: int) -> list[tuple[int, int]]:
        """The in-bounds 4-neighbours of (x, y), in the order +x, -x, +y, -y."""
        return [
            (x + dx, y + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= x + dx < self.width and 0 <= y + dy < self.height
        ]

    def _components(self, mask: np.ndarray) -> list[list[tuple[int, int]]]:
        """The 4-connected components of ``mask``, in scan order of their
        first cell."""
        inside = mask.tolist()
        seen = [[False] * self.width for _ in range(self.height)]
        components = []
        for y, x in np.argwhere(mask).tolist():
            if seen[y][x]:
                continue
            seen[y][x] = True
            stack = [(x, y)]
            cells = []
            while stack:
                cx, cy = stack.pop()
                cells.append((cx, cy))
                for nx, ny in self.orthogonal(cx, cy):
                    if inside[ny][nx] and not seen[ny][nx]:
                        seen[ny][nx] = True
                        stack.append((nx, ny))
            components.append(cells)
        return components

    def is_open(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and bool(self.open_mask[y, x])

    # -- coordinate helpers --------------------------------------------
    def centres(self, cells) -> np.ndarray:
        """Centres in metres of the cells (x, y) along the last axis of
        ``cells``; the inverse of :meth:`cells_of`."""
        return (np.asarray(cells) + 0.5) * self.cell_size

    def cells_of(self, pos: np.ndarray) -> np.ndarray:
        """(n, 2) int64 cells (x, y) holding the (n, 2) positions ``pos``
        in metres; positions off the grid map to the nearest edge cell."""
        cells = (np.asarray(pos, dtype=np.float64) / self.cell_size).astype(np.int64)
        return np.minimum(np.maximum(cells, 0), (self.width - 1, self.height - 1))

    # -- exits -----------------------------------------------------------
    @cached_property
    def exit_zones(self) -> list[ExitZone]:
        """Exit cells grouped into 4-connected clusters, in scan order."""
        return [
            ExitZone(id=i, cells=sorted(cells, key=lambda c: (c[1], c[0])))
            for i, cells in enumerate(self._components(self.kinds == CellKind.EXIT))
        ]

    @cached_property
    def zone_grid(self) -> np.ndarray:
        """int32 grid mapping exit cells to their zone id, -1 elsewhere."""
        out = np.full((self.height, self.width), -1, dtype=np.int32)
        for zone in self.exit_zones:
            for (x, y) in zone.cells:
                out[y, x] = zone.id
        out.flags.writeable = False
        return out

    @cached_property
    def exit_fields(self) -> np.ndarray:
        """(E + 1, H, W) distance fields in cells: to each exit zone in
        order, then to the nearest exit, their least (the bits a search
        from every exit cell gives, as its paths are the union of the
        zones'); with no exit zone the one layer is all inf."""
        fields = np.full((len(self.exit_zones) + 1, self.height, self.width), np.inf)
        for layer, zone in zip(fields, self.exit_zones):
            layer[:] = distance_field(self, zone.cells)
        np.minimum.reduce(fields[:-1], out=fields[-1], initial=np.inf)
        fields.flags.writeable = False
        return fields

    # -- rooms and links -------------------------------------------------
    @cached_property
    def room_labels(self) -> np.ndarray:
        """int32 grid of room ids: the 4-connected regions of empty cells
        that door spans separate, numbered in scan order; -1 on walls,
        obstacles, exit cells and door cells."""
        fillable = self.kinds == CellKind.EMPTY
        for door in self.doors:
            for (x, y) in door.cells:
                fillable[y, x] = False
        labels = np.full((self.height, self.width), -1, dtype=np.int32)
        for room, cells in enumerate(self._components(fillable)):
            xs, ys = zip(*cells)
            labels[ys, xs] = room
        labels.flags.writeable = False
        return labels

    @cached_property
    def topology(self) -> Topology:
        """The route network before pricing.  Every room is a node, and so
        is every exit zone (a destination, id ``n_rooms`` + zone id).  A
        door links each pair of rooms it touches both ways, and each of
        them one way into each exit zone it touches; a room that touches
        an exit zone without a door gets a one-way link one cell deep,
        as wide as the room cells along the contact.  Rooms with no path
        to a destination are dropped, with a warning."""
        labels = self.room_labels
        zone_grid = self.zone_grid
        cs = self.cell_size
        n_rooms = int(labels.max()) + 1
        nodes = []
        for room in range(n_rooms):
            ys, xs = np.nonzero(labels == room)
            nodes.append(Node(room, "room", _region_centroid_cell(list(zip(xs.tolist(), ys.tolist())))))
        nodes += [Node(n_rooms + z.id, "destination", _region_centroid_cell(z.cells)) for z in self.exit_zones]

        links: list[Link] = []
        for door in self.doors:
            cells = door.cells + [n for (x, y) in door.cells for n in self.orthogonal(x, y)]
            rooms = sorted({int(labels[y, x]) for (x, y) in cells} - {-1})
            zones = sorted({int(zone_grid[y, x]) for (x, y) in cells} - {-1})
            span, width = len(door.cells) * cs, door.width
            for i, r1 in enumerate(rooms):
                for r2 in rooms[i + 1:]:
                    links += [Link(r1, r2, door.id, span, width), Link(r2, r1, door.id, span, width)]
            links += [Link(r, n_rooms + z, door.id, span, width) for r in rooms for z in zones]
        doored = {(link.src, link.dst) for link in links}
        contact = Counter(
            (int(labels[ny, nx]), zone.id)
            for zone in self.exit_zones
            for (x, y) in zone.cells
            for nx, ny in self.orthogonal(x, y)
            if labels[ny, nx] >= 0
        )
        for (r, z), n_cells in sorted(contact.items()):
            if (r, n_rooms + z) not in doored:
                links.append(Link(r, n_rooms + z, f"exit:{z}", cs, n_cells * cs))

        unreachable = unreachable_nodes(nodes, links)
        return Topology(
            n_rooms,
            tuple(n for n in nodes if n.id not in unreachable),
            tuple(link for link in links if link.src not in unreachable and link.dst not in unreachable),
            (f"dropped unreachable room nodes {sorted(unreachable)}",) if unreachable else (),
        )

    # -- validation ------------------------------------------------------
    def validate(self) -> list[str]:
        """Raise on invariant violations; return a list of warnings."""
        if self.width < 1 or self.height < 1:
            raise SemanticViolation("geometry.size", "grid must be at least 1x1")
        if self.kinds.shape != (self.height, self.width):
            raise SemanticViolation("geometry.cells", "cell grid does not match declared size")
        if not self.cell_size > 0:
            raise SemanticViolation("geometry.cell_size", "must be > 0")
        if not (self.kinds == CellKind.EXIT).any():
            raise SemanticViolation("geometry.cells", "grid contains no exit cell")
        seen_door_ids: set[str] = set()
        door_of_cell: dict[tuple[int, int], str] = {}
        for door in self.doors:
            if door.id in seen_door_ids:
                raise SemanticViolation("geometry.doors", f"duplicate door id {door.id!r}")
            if door.id.startswith("exit:"):
                # the door sites name each exit no door covers exit:<zone>
                raise SemanticViolation("geometry.doors", f"door id {door.id!r} takes the prefix 'exit:' of doorless exits")
            seen_door_ids.add(door.id)
            _check_door_span(self, door)
            # one door per cell: the backends would each credit a shared
            # cell's crossings to a different door
            for (x, y) in door.cells:
                other = door_of_cell.setdefault((x, y), door.id)
                if other != door.id:
                    raise SemanticViolation("geometry.doors", f"doors {other!r} and {door.id!r} share cell ({x}, {y})")
        warnings = []
        unreachable = int((self.open_mask & ~np.isfinite(self.exit_fields[-1])).sum())
        if unreachable:
            warnings.append(f"{unreachable} open cell(s) cannot reach any exit")
        return warnings


def _check_door_span(geometry: Geometry, door: Door) -> None:
    cells = door.cells
    if not cells:
        raise SemanticViolation("geometry.doors", f"door {door.id!r} has an empty span")
    for (x, y) in cells:
        if not geometry.in_bounds(x, y):
            raise SemanticViolation("geometry.doors", f"door {door.id!r} cell ({x}, {y}) outside the grid")
        if geometry.kinds[y, x] == CellKind.WALL:
            raise SemanticViolation("geometry.doors", f"door {door.id!r} spans a wall cell ({x}, {y})")
    xs = {c[0] for c in cells}
    ys = {c[1] for c in cells}
    if len(xs) > 1 and len(ys) > 1:
        raise SemanticViolation("geometry.doors", f"door {door.id!r} span is not a straight run")
    ordered = sorted(cells)
    for a, b in zip(ordered, ordered[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
            raise SemanticViolation("geometry.doors", f"door {door.id!r} span is not contiguous")
    if door.width <= 0:
        raise SemanticViolation("geometry.doors", f"door {door.id!r} width must be > 0")


# ---------------------------------------------------------------------------
# distance fields
# ---------------------------------------------------------------------------

def distance_field(geometry: Geometry, sources: list[tuple[int, int]]) -> np.ndarray:
    """Geodesic distance (in cells) from every open cell to the nearest source.

    The field spreads along the allowed ``Geometry.moves``; straight
    steps cost 1, diagonal steps sqrt(2).  Each cell's value is the least
    float sum over the paths that reach it, taken step by step from the
    source.  Adding a non-negative cost never makes a float smaller, so
    that least sum does not depend on the order in which tied entries
    are taken, nor on the order of ``sources``.

    The search is Dijkstra's, its priority queue two first-in-first-out
    queues, one per step cost.  Cells are taken in non-decreasing
    distance, and ``d + cost`` rounded is monotone in ``d``, so what is
    pushed onto each queue is non-decreasing: each queue stays sorted,
    and the lower of the two heads is the least entry left.  The sources
    seed the straight queue at 0, ahead of every entry of 1 or more.
    """
    w = geometry.width
    steps = geometry.step_offsets
    diagonal_cost = STEP_COSTS[1]  # sqrt(2)
    dist = [math.inf] * (w * geometry.height)
    # each queue is a list of distances beside a list of flat cells
    # y * w + x, read from the head index on
    straight_d: list[float] = []
    straight_u: list[int] = []
    diagonal_d: list[float] = []
    diagonal_u: list[int] = []
    for (x, y) in sources:
        if geometry.is_open(x, y):
            dist[y * w + x] = 0.0
            straight_d.append(0.0)
            straight_u.append(y * w + x)
    i = j = 0
    while True:
        if i < len(straight_d) and (j == len(diagonal_d) or straight_d[i] <= diagonal_d[j]):
            d, u = straight_d[i], straight_u[i]
            i += 1
        elif j < len(diagonal_d):
            d, u = diagonal_d[j], diagonal_u[j]
            j += 1
        else:
            break
        if d > dist[u]:
            continue
        straight, diagonal = steps[u]
        nd = d + 1.0
        for v in straight:
            v += u
            if nd < dist[v]:
                dist[v] = nd
                straight_d.append(nd)
                straight_u.append(v)
        nd = d + diagonal_cost
        for v in diagonal:
            v += u
            if nd < dist[v]:
                dist[v] = nd
                diagonal_d.append(nd)
                diagonal_u.append(v)
    return np.array(dist, dtype=np.float64).reshape(geometry.height, w)


def los_pairs(blocked: np.ndarray, a_cells: np.ndarray, b_cells: np.ndarray) -> np.ndarray:
    """Vectorised line-of-sight over cell pairs; True where sight is clear.

    Each line is sampled at its own ``2 * cheb + 1`` evenly spaced points
    (cheb its Chebyshev length in cells), the end point repeated to fill
    the batch's widest row, so a pair's answer does not depend on the
    other pairs in the call.  A line is blocked when any sample falls in
    a wall or obstacle cell; sight may pass diagonally between two
    blocked corners (movement may not).
    """
    a_cells = np.asarray(a_cells, dtype=np.float64)
    b_cells = np.asarray(b_cells, dtype=np.float64)
    n_pairs = len(a_cells)
    if n_pairs == 0:
        return np.zeros(0, dtype=bool)
    h, w = blocked.shape
    delta = b_cells - a_cells
    cheb = np.abs(delta).max(axis=1)
    max_cheb = int(cheb.max()) if n_pairs else 0
    n_samples = 2 * max_cheb + 1
    out = np.ones(n_pairs, dtype=bool)
    # chunk to bound memory at ~4M samples
    chunk = max(1, int(4_000_000 // max(1, n_samples)))
    k = np.arange(n_samples)
    for start in range(0, n_pairs, chunk):
        end = min(n_pairs, start + chunk)
        a = a_cells[start:end] + 0.5
        d = delta[start:end]
        div = 2 * cheb[start:end, None]
        s = np.where(k >= div, 1.0, k * (1.0 / np.maximum(div, 1)))  # np.linspace(0, 1, div + 1), padded
        pts = a[:, None, :] + d[:, None, :] * s[:, :, None]
        cx = np.clip(pts[:, :, 0].astype(np.int64), 0, w - 1)
        cy = np.clip(pts[:, :, 1].astype(np.int64), 0, h - 1)
        out[start:end] = ~blocked[cy, cx].any(axis=1)
    return out


# ---------------------------------------------------------------------------
# egress network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    id: int
    kind: str                 # "room" | "destination"
    cell: tuple[int, int]     # representative cell


class Link(NamedTuple):
    """A way from node ``src`` to node ``dst``: through a declared door,
    or across a room's doorless contact with an exit zone (door id
    ``exit:<zone>``)."""

    src: int
    dst: int
    door_id: str
    span: float               # m walked through the opening
    width: float              # m of clear width


@dataclass(frozen=True)
class Topology:
    n_rooms: int              # room labels before pruning; destination ids follow them
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    warnings: tuple[str, ...]


@dataclass
class Arc:
    src: int
    dst: int
    traversal_time: int       # ticks, >= 0
    capacity: int             # persons per tick, >= 1
    door_id: str | None = None


@dataclass(eq=False)
class EgressNetwork:
    nodes: list[Node]
    arcs: list[Arc]
    warnings: list[str] = field(default_factory=list)

    @cached_property
    def routes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shortest routes, found once and kept read-only: the destination
        ids in ascending order; a (destinations, node ids) table of the
        fewest traversal ticks to each, inf where there is no path; and the
        index of the arc that starts such a path, the smallest on a tie, -1
        at the destination itself and where there is no path.  One
        Bellman-Ford relaxation serves all destinations."""
        dests = np.array(sorted(n.id for n in self.nodes if n.kind == "destination"), dtype=np.int64)
        src, dst, ticks = np.array([(a.src, a.dst, a.traversal_time) for a in self.arcs], dtype=int).reshape(-1, 3).T
        rows = np.arange(len(dests))
        dist = np.full((len(dests), max((n.id for n in self.nodes), default=-1) + 1), np.inf)
        dist[rows, dests] = 0.0
        for _ in self.nodes:  # no shortest path has more arcs than there are nodes
            before = dist.copy()
            np.minimum.at(dist.T, src, dist.T[dst] + ticks[:, None])
            if np.array_equal(dist, before):
                break
        on_path = np.isfinite(dist[:, src]) & (dist[:, dst] + ticks == dist[:, src])
        first = np.full(dist.shape, -1, dtype=np.int64)
        for i in reversed(range(len(self.arcs))):  # so the smallest index on a tie is written last
            first[on_path[:, i], src[i]] = i
        first[rows, dests] = -1
        for table in (dests, dist, first):
            table.flags.writeable = False
        return dests, dist, first


def unreachable_nodes(nodes, edges) -> set[int]:
    """Ids of the ``nodes`` with no path along ``edges`` (links or arcs)
    to a destination."""
    reachable = {n.id for n in nodes if n.kind == "destination"}
    changed = True
    while changed:
        changed = False
        for edge in edges:
            if edge.dst in reachable and edge.src not in reachable:
                reachable.add(edge.src)
                changed = True
    return {n.id for n in nodes} - reachable


def _region_centroid_cell(cells: list[tuple[int, int]]) -> tuple[int, int]:
    cx = sum(c[0] for c in cells) / len(cells)
    cy = sum(c[1] for c in cells) / len(cells)
    return min(cells, key=lambda c: ((c[0] - cx) ** 2 + (c[1] - cy) ** 2, c[1], c[0]))


def derive_network(geometry: Geometry, params: dict) -> EgressNetwork:
    """The egress network of ``geometry.topology`` under ``params``: each
    link becomes an arc taking ``ceil(span / (v_ref * flow_tick))`` ticks
    and passing ``max(1, half_up(width * c_door))`` persons per tick."""
    metres_per_tick = float(params["v_ref"]) * float(params["flow_tick"])
    c_door = float(params["c_door"])
    topology = geometry.topology
    arcs = [
        Arc(src, dst, math.ceil(span / metres_per_tick), max(1, half_up(width * c_door)), door_id)
        for src, dst, door_id, span, width in topology.links
    ]
    return EgressNetwork(nodes=list(topology.nodes), arcs=arcs, warnings=list(topology.warnings))


# ---------------------------------------------------------------------------
# population
# ---------------------------------------------------------------------------

DIST_KINDS = ("constant", "uniform", "categorical")


@dataclass
class DistSpec:
    """Sampling spec for one agent attribute."""

    kind: str
    value: object = None                     # constant
    lo: float | None = None                  # uniform
    hi: float | None = None
    values: list | None = None               # categorical
    weights: list[float] | None = None

    def validate(self, attr: str) -> None:
        where = f"population.attributes.{attr}"
        if self.kind not in DIST_KINDS:
            raise SchemaViolation(where, f"unknown distribution {self.kind!r}")
        if self.kind == "constant" and self.value is None:
            raise SchemaViolation(where, "constant distribution needs a value")
        if self.kind == "uniform":
            if self.lo is None or self.hi is None:
                raise SchemaViolation(where, "uniform distribution needs lo and hi")
            require_number(f"{where}.lo", self.lo)
            require_number(f"{where}.hi", self.hi)
            if self.lo > self.hi:
                raise SemanticViolation(where, "uniform lo must be <= hi")
        if self.kind == "categorical":
            if not isinstance(self.values, list) or not self.values:
                raise SchemaViolation(where, "categorical distribution needs a list of values")
            if self.weights is not None:
                if not isinstance(self.weights, list) or len(self.weights) != len(self.values):
                    raise SchemaViolation(where, "weights must be a list as long as values")
                for k, w in enumerate(self.weights):
                    require_number(f"{where}.weights[{k}]", w)
                if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                    raise SemanticViolation(where, "weights must be non-negative and sum > 0")

    def support(self) -> list:
        if self.kind == "constant":
            return [self.value]
        if self.kind == "uniform":
            return [self.lo, self.hi]
        return list(self.values)

    def to_dict(self, attr: str) -> dict:
        doc: dict = {"attr": attr, "dist": self.kind}
        if self.kind == "constant":
            doc["value"] = self.value
        elif self.kind == "uniform":
            doc["lo"] = self.lo
            doc["hi"] = self.hi
        else:
            doc["values"] = list(self.values)
            if self.weights is not None:
                doc["weights"] = list(self.weights)
        return doc


FLOAT01 = ("health", "collaboration", "insistence", "knowledge", "experience", "nervousness")

DEFAULT_ATTRIBUTES: dict[str, DistSpec] = {
    "health": DistSpec(kind="constant", value=1.0),
    "mobility": DistSpec(kind="constant", value=1),
    "speed_pref": DistSpec(kind="constant", value=1.34),
    "collaboration": DistSpec(kind="constant", value=0.5),
    "insistence": DistSpec(kind="constant", value=0.8),
    "knowledge": DistSpec(kind="constant", value=1.0),
    "experience": DistSpec(kind="constant", value=0.0),
    "nervousness": DistSpec(kind="constant", value=0.0),
    "gender": DistSpec(kind="categorical", values=["F", "M"], weights=[0.5, 0.5]),
    "age": DistSpec(kind="constant", value=35),
    "role": DistSpec(kind="constant", value=0),
}


def _check_support(attr: str, spec: DistSpec, params: dict) -> None:
    where = f"population.attributes.{attr}"
    support = spec.support()
    if attr in FLOAT01:
        # out-of-range values are clamped at spawn; only non-numbers are errors
        if not all(is_number(v) for v in support):
            raise SemanticViolation(where, "values must be finite numbers (clamped to [0, 1])")
    elif attr == "mobility":
        if any(v not in (0, 1, 2) for v in support):
            raise SemanticViolation(where, "mobility must be 0, 1 or 2")
    elif attr == "speed_pref":
        cap = float(params["speed_cap"])
        if any(not is_number(v) or not 0 < v <= cap for v in support):
            raise SemanticViolation(where, f"speed_pref must lie in (0, {cap}]")
    elif attr == "gender":
        if any(v not in ("F", "M") for v in support):
            raise SemanticViolation(where, "gender must be 'F' or 'M'")
    elif attr in ("age", "role"):
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in support):
            raise SemanticViolation(where, "must be a non-negative integer")
    elif attr == "reaction_time":
        rt_max = float(params["rt_max"])
        if any(not is_number(v) or not 0 <= v <= rt_max for v in support):
            raise SemanticViolation(where, f"reaction_time must lie in [0, {rt_max}]")
    else:
        raise SchemaViolation(where, "unknown agent attribute")


@dataclass
class PopulationSpec:
    count: int
    spawn_rect: tuple[int, int, int, int] | None = None  # inclusive cell bounds x0,y0,x1,y1
    spawn_node: int | None = None
    attributes: dict[str, DistSpec] = field(default_factory=dict)

    def validate(self, geometry: Geometry, config: RunConfig) -> None:
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 0:
            raise SchemaViolation("population.count", "must be a non-negative integer")
        if self.spawn_rect is not None and self.spawn_node is not None:
            raise SchemaViolation("population.spawn", "give either a rect or a node, not both")
        if self.spawn_rect is not None:
            x0, y0, x1, y1 = self.spawn_rect
            if x0 > x1 or y0 > y1:
                raise SemanticViolation("population.spawn", "rect corners are inverted")
            if not (geometry.in_bounds(x0, y0) and geometry.in_bounds(x1, y1)):
                raise SemanticViolation("population.spawn", "rect extends outside the grid")
        if self.spawn_node is not None:
            topology = geometry.topology
            if self.spawn_node not in range(topology.n_rooms):
                raise SemanticViolation("population.spawn.node", f"node {self.spawn_node} has no cells")
            # the topology drops the rooms with no way out
            if all(n.id != self.spawn_node for n in topology.nodes):
                raise SemanticViolation("population.spawn.node", f"room {self.spawn_node} cannot reach an exit")
        mask, x0, y0 = self._spawn_mask(geometry)
        region = "rect" if self.spawn_rect is not None else "grid"  # a room with no way out is refused above
        height, width = mask.shape
        sealed = np.count_nonzero(mask & ~np.isfinite(geometry.exit_fields[-1, y0:y0 + height, x0:x0 + width]))
        if sealed:
            raise SemanticViolation("population.spawn", f"{sealed} open cell(s) in the {region} cannot reach an exit")
        free = np.count_nonzero(mask)
        if self.count > 0 and not free:
            raise SemanticViolation("population.spawn", f"{region} holds no empty cell to spawn on")
        # bodies are placed by a sampler that reports its own failure
        if not config.bodies and self.count > free:
            raise SemanticViolation("population.spawn", f"region has {free} free cells for {self.count} agents")
        self.attribute_specs(config.params())

    def _spawn_mask(self, geometry: Geometry) -> tuple[np.ndarray, int, int]:
        """The spawn cells as a mask over the part of the grid whose
        corner cell is the (x0, y0) returned with it."""
        if self.spawn_node is not None:
            return geometry.room_labels == self.spawn_node, 0, 0
        if self.spawn_rect is not None:
            x0, y0, x1, y1 = self.spawn_rect
            return geometry.kinds[y0:y1 + 1, x0:x1 + 1] == CellKind.EMPTY, x0, y0
        return geometry.kinds == CellKind.EMPTY, 0, 0

    def spawn_cells(self, geometry: Geometry) -> np.ndarray:
        """The (K, 2) cells (x, y) people spawn on, in reading order: the
        empty cells of the rect, the cells of the room, or every empty cell."""
        mask, x0, y0 = self._spawn_mask(geometry)
        ys, xs = np.nonzero(mask)
        return np.column_stack([xs + x0, ys + y0])

    def attribute_specs(self, params: dict) -> dict[str, DistSpec]:
        """Every agent attribute's distribution, defaults filled in, each
        checked for its shape and for values usable under ``params``."""
        merged = dict(DEFAULT_ATTRIBUTES)
        merged.update(self.attributes)
        for attr, dist in merged.items():
            dist.validate(attr)
            _check_support(attr, dist, params)
        return merged


# ---------------------------------------------------------------------------
# hazard source description (the field itself lives in evacsim.hazard)
# ---------------------------------------------------------------------------


@dataclass
class HazardSource:
    """Where hazard data comes from: a CSV file, the built-in smoke
    generator, or nothing (ambient conditions)."""

    kind: str                          # "ambient" | "file" | "builtin"
    path: str | None = None            # file: as written in the document
    base_dir: str = "."                # directory the path is relative to
    builtin: dict | None = None        # builtin generator parameters

    def to_dict(self) -> dict | None:
        if self.kind == "ambient":
            return None
        if self.kind == "file":
            return {"file": self.path}
        return {"builtin": dict(sorted(self.builtin.items()))}


BUILTIN_SMOKE_DEFAULTS = {
    "rate": 0.5,            # optical density added at the source per step
    "diffusion": 0.2,       # neighbour exchange coefficient (stable < 0.25)
    "step": 0.25,           # s, generator integration step
    "frame_interval": 1.0,  # s between emitted frames
    "duration": 120.0,      # s of generated field; validate builds all of it,
                            # a run only up to its max_sim_time
    "temp_per_od": 100.0,   # degC added per unit optical density
    "tox_per_od": 0.02,     # toxicity per unit optical density
}


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Scenario:
    geometry: Geometry
    population: PopulationSpec
    config: RunConfig
    hazard_source: HazardSource = field(default_factory=lambda: HazardSource(kind="ambient"))
    warnings: list[str] = field(default_factory=list)  # from geometry validation


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise SchemaViolation(f"{where}.{key}", "missing required field")
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise SchemaViolation(f"{where}.{key}", "expected an integer")
    if not isinstance(value, kind):
        raise SchemaViolation(f"{where}.{key}", f"expected {getattr(kind, '__name__', kind)}")
    return value


def _reject_unknown(doc: dict, known: set[str], where: str) -> None:
    for key in doc:
        if key not in known:
            raise SchemaViolation(f"{where}.{key}", "unknown field")


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`ScenarioSyntaxError` for malformed JSON (with the
    position), :class:`SchemaViolation` for missing/unknown/mistyped
    fields (naming the field), and :class:`SemanticViolation` for
    structurally valid input that breaks an invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict):
        raise SchemaViolation("$", "scenario document must be a JSON object")
    _reject_unknown(doc, {"geometry", "population", "hazard", "config"}, "$")

    geometry = _parse_geometry(_require(doc, "geometry", dict, "$"))
    warnings = geometry.validate()

    # the population's attribute ranges depend on the run parameters
    config_doc = doc.get("config")
    config = RunConfig.from_dict({} if config_doc is None else config_doc)
    population = _parse_population(_require(doc, "population", dict, "$"))
    population.validate(geometry, config)

    hazard_source = _parse_hazard_source(doc.get("hazard"), base_dir)

    return Scenario(
        geometry=geometry,
        population=population,
        config=config,
        hazard_source=hazard_source,
        warnings=warnings,
    )


def load_scenario(path: str) -> Scenario:
    import os

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _parse_geometry(doc: dict) -> Geometry:
    _reject_unknown(doc, {"cell_size", "cells", "doors"}, "geometry")
    rows = _require(doc, "cells", list, "geometry")
    if not rows or not all(isinstance(r, str) for r in rows):
        raise SchemaViolation("geometry.cells", "must be a non-empty list of strings")
    width = len(rows[0])
    if width == 0:
        raise SchemaViolation("geometry.cells", "rows must not be empty")
    kinds = np.zeros((len(rows), width), dtype=np.int8)
    for y, row in enumerate(rows):
        if len(row) != width:
            raise SemanticViolation("geometry.cells", f"row {y} length {len(row)} != {width}")
        for x, glyph in enumerate(row):
            if glyph not in GLYPH_TO_KIND:
                raise SchemaViolation("geometry.cells", f"unknown glyph {glyph!r} at ({x}, {y})")
            kinds[y, x] = GLYPH_TO_KIND[glyph]

    cell_size = doc.get("cell_size", DEFAULT_CELL_SIZE)
    require_number("geometry.cell_size", cell_size)

    doors = []
    for i, ddoc in enumerate(doc.get("doors", []) or []):
        if not isinstance(ddoc, dict):
            raise SchemaViolation(f"geometry.doors[{i}]", "must be an object")
        _reject_unknown(ddoc, {"id", "cells", "width"}, f"geometry.doors[{i}]")
        cells_doc = _require(ddoc, "cells", list, f"geometry.doors[{i}]")
        cells = [_parse_cell(c, f"geometry.doors[{i}].cells") for c in cells_doc]
        door_id = ddoc.get("id", f"d{i}")
        if not isinstance(door_id, str):
            raise SchemaViolation(f"geometry.doors[{i}].id", "must be a string")
        width_m = ddoc.get("width", len(cells) * float(cell_size))
        require_number(f"geometry.doors[{i}].width", width_m)
        doors.append(Door(id=door_id, cells=cells, width=float(width_m)))

    return Geometry(width=width, height=len(rows), cell_size=float(cell_size), kinds=kinds, doors=doors)


def _parse_cell(doc, where: str) -> tuple[int, int]:
    if (
        not isinstance(doc, (list, tuple))
        or len(doc) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in doc)
    ):
        raise SchemaViolation(where, f"expected [x, y] integers, got {doc!r}")
    return (int(doc[0]), int(doc[1]))


def _parse_population(doc: dict) -> PopulationSpec:
    _reject_unknown(doc, {"count", "spawn", "attributes"}, "population")
    count = _require(doc, "count", int, "population")
    spawn_rect = None
    spawn_node = None
    spawn = doc.get("spawn")
    if spawn is not None:
        if not isinstance(spawn, dict):
            raise SchemaViolation("population.spawn", "must be an object")
        _reject_unknown(spawn, {"rect", "node"}, "population.spawn")
        if "rect" in spawn:
            rect = spawn["rect"]
            if not isinstance(rect, list) or len(rect) != 4 or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in rect
            ):
                raise SchemaViolation("population.spawn.rect", "expected [x0, y0, x1, y1] integers")
            spawn_rect = tuple(rect)
        if "node" in spawn:
            node = spawn["node"]
            if not isinstance(node, int) or isinstance(node, bool):
                raise SchemaViolation("population.spawn.node", "must be an integer node id")
            spawn_node = node

    attributes: dict[str, DistSpec] = {}
    attrs_doc = doc.get("attributes", []) or []
    if isinstance(attrs_doc, dict):
        raise SchemaViolation("population.attributes", "must be a list of {attr, dist, ...} objects")
    for i, adoc in enumerate(attrs_doc):
        if not isinstance(adoc, dict):
            raise SchemaViolation(f"population.attributes[{i}]", "must be an object")
        _reject_unknown(adoc, {"attr", "dist", "value", "lo", "hi", "values", "weights"}, f"population.attributes[{i}]")
        attr = _require(adoc, "attr", str, f"population.attributes[{i}]")
        if attr in attributes:
            raise SchemaViolation(f"population.attributes[{i}]", f"duplicate spec for {attr!r}")
        dist = DistSpec(
            kind=_require(adoc, "dist", str, f"population.attributes[{i}]"),
            value=adoc.get("value"),
            lo=adoc.get("lo"),
            hi=adoc.get("hi"),
            values=adoc.get("values"),
            weights=adoc.get("weights"),
        )
        attributes[attr] = dist
    return PopulationSpec(count=count, spawn_rect=spawn_rect, spawn_node=spawn_node, attributes=attributes)


def _parse_hazard_source(doc, base_dir: str) -> HazardSource:
    if doc is None:
        return HazardSource(kind="ambient")
    if not isinstance(doc, dict):
        raise SchemaViolation("hazard", "must be an object")
    _reject_unknown(doc, {"file", "builtin"}, "hazard")
    if ("file" in doc) == ("builtin" in doc):
        raise SchemaViolation("hazard", "give exactly one of 'file' or 'builtin'")
    if "file" in doc:
        path = doc["file"]
        if not isinstance(path, str):
            raise SchemaViolation("hazard.file", "must be a path string")
        return HazardSource(kind="file", path=path, base_dir=base_dir)
    bdoc = doc["builtin"]
    if not isinstance(bdoc, dict):
        raise SchemaViolation("hazard.builtin", "must be an object")
    _reject_unknown(bdoc, set(BUILTIN_SMOKE_DEFAULTS) | {"source"}, "hazard.builtin")
    if "source" not in bdoc:
        raise SchemaViolation("hazard.builtin.source", "missing required field")
    source = _parse_cell(bdoc["source"], "hazard.builtin.source")
    builtin = dict(BUILTIN_SMOKE_DEFAULTS)
    for key, value in bdoc.items():
        if key == "source":
            continue
        require_number(f"hazard.builtin.{key}", value)
        builtin[key] = float(value)
    builtin["source"] = list(source)
    if builtin["rate"] < 0:
        raise SemanticViolation("hazard.builtin.rate", "must be >= 0")
    if not 0 <= builtin["diffusion"] <= 0.25:
        raise SemanticViolation("hazard.builtin.diffusion", "must lie in [0, 0.25] for stability")
    if builtin["step"] <= 0 or builtin["frame_interval"] <= 0 or builtin["duration"] <= 0:
        raise SemanticViolation("hazard.builtin", "step, frame_interval and duration must be > 0")
    return HazardSource(kind="builtin", builtin=builtin)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON for a scenario, with all defaults resolved.

    ``parse_scenario(serialize_scenario(s))`` reproduces ``s`` exactly.
    """
    g = scenario.geometry
    rows = ["".join(KIND_TO_GLYPH[int(k)] for k in g.kinds[y]) for y in range(g.height)]
    doc: dict = {
        "geometry": {
            "cell_size": g.cell_size,
            "cells": rows,
            "doors": [
                {"id": d.id, "cells": [list(c) for c in d.cells], "width": d.width} for d in g.doors
            ],
        },
        "population": {
            "count": scenario.population.count,
            "attributes": [
                spec.to_dict(attr) for attr, spec in sorted(scenario.population.attributes.items())
            ],
        },
        "config": scenario.config.to_dict(),
    }
    if scenario.population.spawn_rect is not None:
        doc["population"]["spawn"] = {"rect": list(scenario.population.spawn_rect)}
    elif scenario.population.spawn_node is not None:
        doc["population"]["spawn"] = {"node": scenario.population.spawn_node}
    hazard = scenario.hazard_source.to_dict()
    if hazard is not None:
        doc["hazard"] = hazard
    return json.dumps(doc, indent=2, sort_keys=True)
