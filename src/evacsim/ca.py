"""Grid-stepping backend: synchronous movement on the occupancy lattice.

Each mover examines the nine ``scenario.STEPS`` from its cell (stay,
then the 8-neighbourhood in reading order), keeps those that
``Geometry.moves`` allows and that lead to a free cell, scores each by
the chosen exit's distance field plus a small uniform noise, and
proposes the minimum, ties going to the earliest step.  Conflicting
proposals for one cell are settled by a single uniform lottery draw;
losers stay put.  All moves apply at a barrier, so the update is
synchronous and order-free.

Different walking speeds live on the fixed lattice by step skipping: a
slow agent simply sits out a fraction of the ticks.

The lattice keeps no record of its own.  Each agent stands at the
centre of its cell in the population's ``pos`` array, which is where its
cell is read and where a move writes the new centre; the occupancy grid
is built from those cells at the start of every step by ``lattice``.
"""
from __future__ import annotations

import numpy as np

from .errors import SimulationError
from .scenario import Geometry

EMPTY_CELL = -1


def lattice(cells: np.ndarray, ids: np.ndarray, geometry: Geometry, tick: int) -> np.ndarray:
    """(H, W) int32 occupancy grid holding each of ``ids`` on its cell in
    the (n, 2) ``cells``, EMPTY_CELL elsewhere.  Two people on one cell
    are a fault, reported at ``tick``."""
    occupancy = np.full((geometry.height, geometry.width), EMPTY_CELL, dtype=np.int32)
    cx, cy = cells.T
    occupancy[cy, cx] = ids
    shared = np.flatnonzero(occupancy[cy, cx] != ids)
    if len(shared):
        x, y = cells[shared[0]].tolist()
        agents = ids[(cx == x) & (cy == y)].tolist()
        raise SimulationError(f"tick {tick}: agents {agents} stand on one cell {(x, y)}")
    return occupancy


def speed_ticks(v_eff, v_grid: float) -> np.ndarray:
    """Number of lattice ticks per single-cell move for each walking speed.

    The lattice moves one cell per tick at most (v_grid = cell/dt), so a
    speed of v_grid/2 becomes one move every 2 ticks.  Speeds above the
    lattice rate saturate at one move per tick; a speed of zero or less
    gives 0, meaning the agent never moves.
    """
    v = np.asarray(v_eff, dtype=np.float64)
    k = np.maximum(1, np.floor(v_grid / np.maximum(v, 1e-9) + 0.5)).astype(np.int64)
    return np.where(v > 0, k, 0)


def conflict_winners(flat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One winner per target cell among the proposals ``flat``
    (non-negative cell keys, in ascending agent id), as indices into
    ``flat`` in cell order.

    A contested cell is settled by one uniform draw, the draws made in
    cell order and each picking among its contenders in id order.
    """
    order = np.argsort(flat, kind="stable")
    starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
    sizes = np.diff(starts, append=len(order))
    u = np.zeros(len(starts))
    u[sizes > 1] = rng.random(int((sizes > 1).sum()))
    return order[starts + np.minimum((u * sizes).astype(np.int64), sizes - 1)]


def ca_step(
    pos: np.ndarray,
    geometry: Geometry,
    fields: np.ndarray,
    field_index: np.ndarray,
    move_ids: np.ndarray,
    occupancy: np.ndarray,
    rng: np.random.Generator,
    noise: float,
) -> np.ndarray:
    """Advance the lattice one synchronous step.

    ``pos`` holds every agent at its cell's centre; ``occupancy`` is the
    ``lattice`` of the people in the building.  ``fields`` is a stack of
    distance fields (cells); ``field_index[i]`` picks the stack layer
    agent i descends.  ``move_ids`` lists, in ascending order, the ids
    attempting a move this tick (already filtered for status, mobility
    and step skipping).  A winner stands at its new cell's centre in
    ``pos``, the only array written.  Returns the ids that actually
    changed cell.
    """
    n = len(move_ids)
    if n == 0:
        return move_ids

    cells = geometry.cells_of(pos.take(move_ids, axis=0))
    cx, cy, admissible = geometry.neighbourhood(*cells.T)  # (n, 9) each
    free = occupancy[cy, cx] == EMPTY_CELL
    admissible[:, 1:] &= free[:, 1:]         # staying on one's own cell is always allowed

    layer = field_index[move_ids]
    cost = fields[layer[:, None], cy, cx]
    cost = cost + noise * rng.random((n, 9))
    cost = np.where(admissible, cost, np.inf)
    cost[:, 0] = np.where(np.isfinite(cost[:, 0]), cost[:, 0], 1e30)  # stay beats nothing at all

    pick = np.argmin(cost, axis=1)
    movers = np.nonzero(pick)[0]
    if len(movers) == 0:
        return move_ids[:0]

    tx = cx[movers, pick[movers]]
    ty = cy[movers, pick[movers]]
    winners = conflict_winners(ty * geometry.width + tx, rng)

    ids = move_ids[movers[winners]]
    pos[ids] = geometry.centres(np.column_stack([tx[winners], ty[winners]]))
    return ids
