"""Time-indexed environmental hazard fields.

A hazard field holds the air on the scenario grid as one stack of
frames, one per timestamp of a strictly increasing list.  Each frame is
a (3, H, W) array whose channels, in the order ``TEMP, OD, TOX``, are
the temperature (degC), the optical smoke density (1/m) and the
toxicity (dose rate, fraction of full health per second) of each cell;
``AMBIENT_AIR`` is clear air in that order.  Every other module indexes
a frame by these names.  Sampling interpolates linearly in time and
extrapolates by holding the first/last frame.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import HazardFormatError

TEMP, OD, TOX = range(3)  # the channels of a frame
AMBIENT_TEMP = 20.0  # degC everywhere unless a frame says otherwise
AMBIENT_AIR = (AMBIENT_TEMP, 0.0, 0.0)  # clear air, by channel


@dataclass(eq=False)
class HazardField:
    timestamps: np.ndarray  # (T,) float64, strictly increasing
    air: np.ndarray  # (T, 3, H, W) float64, channels TEMP, OD, TOX

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.timestamps.ndim != 1 or len(self.timestamps) == 0:
            raise HazardFormatError("field needs at least one frame")
        if np.any(np.diff(self.timestamps) <= 0):
            raise HazardFormatError("timestamps must be strictly increasing")
        if self.air.shape[0] != len(self.timestamps):
            raise HazardFormatError("frame count does not match timestamps")

    @classmethod
    def ambient(cls, height: int, width: int) -> "HazardField":
        air = np.tile(np.reshape(AMBIENT_AIR, (-1, 1, 1)), (1, 1, height, width))
        return cls(timestamps=np.array([0.0]), air=air)

    def frame_at(self, t: float) -> np.ndarray:
        """The (3, H, W) air at time ``t``."""
        ts = self.timestamps
        if t <= ts[0]:
            return self.air[0]
        if t >= ts[-1]:
            return self.air[-1]
        hi = int(np.searchsorted(ts, t, side="right"))
        lo = hi - 1
        alpha = float((t - ts[lo]) / (ts[hi] - ts[lo]))
        return (1.0 - alpha) * self.air[lo] + alpha * self.air[hi]


def load_hazard_series(text: str, height: int, width: int) -> HazardField:
    """Parse the CSV hazard format: ``t,x,y,temp,od,tox`` per row.

    Rows are grouped by timestamp in ascending order, each cell listed
    at most once per timestamp; ``#`` starts a comment line.  Cells
    absent from a frame stay at ambient (20 degC, no smoke, no
    toxicity).  A trailing ``pressure`` column is accepted and ignored.
    An empty document yields a single ambient frame at t = 0.
    """
    frames: list[tuple[float, dict[tuple[int, int], tuple[float, float, float]]]] = []
    current_t: float | None = None
    current: dict[tuple[int, int], tuple[float, float, float]] = {}

    for row_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) == 7:
            parts = parts[:6]  # optional pressure column, ignored
        if len(parts) != 6:
            raise HazardFormatError(f"expected 6 fields 't,x,y,temp,od,tox', got {len(parts)}", row=row_no)
        if parts[0].lower() == "t":
            continue  # header row
        try:
            t = float(parts[0])
            x = int(parts[1])
            y = int(parts[2])
            temp = float(parts[3])
            od = float(parts[4])
            tox = float(parts[5])
        except ValueError as exc:
            raise HazardFormatError(str(exc), row=row_no) from None
        if not all(map(math.isfinite, (t, temp, od, tox))):
            raise HazardFormatError("t, temp, od and tox must be finite", row=row_no)
        if not (0 <= x < width and 0 <= y < height):
            raise HazardFormatError(f"cell ({x}, {y}) outside the {width}x{height} grid", row=row_no)
        if od < 0:
            raise HazardFormatError("optical density must be >= 0", row=row_no)
        if tox < 0:
            raise HazardFormatError("toxicity must be >= 0", row=row_no)
        if current_t is None:
            current_t = t
        elif t != current_t:
            if t < current_t:
                raise HazardFormatError(
                    f"timestamp {t} after {current_t}: frames must be in ascending order", row=row_no
                )
            frames.append((current_t, current))
            current_t = t
            current = {}
        if (x, y) in current:
            raise HazardFormatError(f"cell ({x}, {y}) listed twice at t = {t:g}", row=row_no)
        current[(x, y)] = (temp, od, tox)
    if current_t is not None:
        frames.append((current_t, current))

    if not frames:
        return HazardField.ambient(height, width)

    air = np.repeat(HazardField.ambient(height, width).air, len(frames), axis=0)
    for i, (_, cells) in enumerate(frames):
        for (x, y), channels in cells.items():  # the columns come in channel order
            air[i, :, y, x] = channels
    return HazardField(timestamps=np.array([t for t, _ in frames]), air=air)


def builtin_smoke(
    geometry, source: tuple[int, int], params: dict, horizon: float = math.inf
) -> HazardField:
    """Generate a toy smoke field by discrete diffusion on open cells.

    ``params`` is the whole generator table that the scenario parser's
    ``_parse_hazard_source`` resolved, every default filled in.
    Each step adds ``rate`` at the source and exchanges a ``diffusion``
    fraction of the density difference with each open 4-neighbour, then
    clamps at zero.  Temperature and toxicity are affine in the local
    density.  While nothing clamps, total density is conserved up to the
    source injection, so the grid sum after time t equals
    ``rate * t / step``.

    Integration stops at the first emitted frame whose timestamp is at
    or past ``horizon``, or at ``duration`` if that comes first.  A run
    passes its time limit: every tick time lies below it, so each
    ``frame_at`` the run makes sees the same bracketing frames as in the
    whole field.  With no horizon the whole ``duration`` is generated.
    """
    rate = float(params["rate"])
    diffusion = float(params["diffusion"])
    step = float(params["step"])
    frame_interval = float(params["frame_interval"])
    duration = float(params["duration"])
    temp_per_od = float(params["temp_per_od"])
    tox_per_od = float(params["tox_per_od"])

    open_mask = geometry.open_mask
    sx, sy = source
    if not geometry.is_open(sx, sy):
        raise HazardFormatError(f"smoke source ({sx}, {sy}) is not an open cell")

    od = np.zeros(open_mask.shape)
    open_f = open_mask.astype(np.float64)
    pad = np.zeros((open_mask.shape[0] + 2, open_mask.shape[1] + 2))
    # per-cell count of open neighbours, for the conservative exchange term
    n_open = _neighbour_sum(pad, open_f)

    n_steps = int(round(duration / step))
    every = max(1, int(round(frame_interval / step)))
    # the steps that emit a frame: every ``every``-th and the last, up to
    # the first whose time is at or past the horizon
    emit = []
    for k in (*range(0, n_steps, every), n_steps):
        emit.append(k)
        if k * step >= horizon:
            break

    air = np.empty((len(emit), len(AMBIENT_AIR), *open_mask.shape))
    k = 0
    for frame, k_frame in zip(air, emit):
        while k < k_frame:
            k += 1
            nbr_sum = _neighbour_sum(pad, od)
            od = od + diffusion * (nbr_sum - n_open * od)
            od[sy, sx] += rate
            od *= open_f
            np.maximum(od, 0.0, out=od)
        # AMBIENT_TEMP + temp_per_od * od and tox_per_od * od, in place
        frame[OD] = od
        np.multiply(od, temp_per_od, out=frame[TEMP])
        frame[TEMP] += AMBIENT_TEMP
        np.multiply(od, tox_per_od, out=frame[TOX])
    return HazardField(timestamps=np.array([k * step for k in emit]), air=air)


def _neighbour_sum(pad: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Sum of each cell's four neighbours in ``a``, zero beyond the grid.

    ``a`` is written into the interior of ``pad``, an (H + 2, W + 2)
    buffer whose one-cell border stays zero.  The pairs are grouped as
    (right + left) + (down + up), so mirrored rooms give bitwise-mirrored
    sums.
    """
    pad[1:-1, 1:-1] = a
    return (pad[1:-1, 2:] + pad[1:-1, :-2]) + (pad[2:, 1:-1] + pad[:-2, 1:-1])


def visibility_range_bulk(od: np.ndarray, health: np.ndarray, params: dict) -> np.ndarray:
    """How far each agent can see, in metres.

    Sight shrinks inversely with optical density and degrades linearly
    with failing health down to half range at zero health.
    """
    r_max = float(params["vis_r_max"])
    k = float(params["vis_k"])
    eps = float(params["vis_eps"])
    base = np.minimum(r_max, k / np.maximum(od, eps))
    return base * (0.5 + 0.5 * health)


def heat(temp, params: dict):
    """The heat dose of air at ``temp``: degrees above ``temp_crit`` in
    units of ``temp_scale``, 0 at or below it."""
    return np.maximum(0.0, np.asarray(temp) - float(params["temp_crit"])) / float(params["temp_scale"])


def health_decrement(temp, tox, dt: float, params: dict):
    """Health lost over ``dt`` from the heat dose plus toxicity.  Smoke
    density harms only via visibility, not health, so it is not an
    argument."""
    return dt * (float(params["c_temp"]) * heat(temp, params) + float(params["c_tox"]) * np.asarray(tox))
