"""Time-indexed environmental hazard fields.

A hazard field holds per-cell temperature (degC), optical smoke density
(1/m) and toxicity (dose rate, fraction of full health per second) on
the scenario grid, at a strictly increasing list of timestamps.
Sampling interpolates linearly in time and extrapolates by holding the
first/last frame.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import HazardFormatError

AMBIENT_TEMP = 20.0  # degC everywhere unless a frame says otherwise


@dataclass(eq=False)
class HazardField:
    timestamps: np.ndarray  # (T,) float64, strictly increasing
    temperature: np.ndarray  # (T, H, W)
    optical_density: np.ndarray
    toxicity: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.timestamps.ndim != 1 or len(self.timestamps) == 0:
            raise HazardFormatError("field needs at least one frame")
        if np.any(np.diff(self.timestamps) <= 0):
            raise HazardFormatError("timestamps must be strictly increasing")
        shape = self.temperature.shape
        if self.optical_density.shape != shape or self.toxicity.shape != shape:
            raise HazardFormatError("frame stacks disagree in shape")
        if shape[0] != len(self.timestamps):
            raise HazardFormatError("frame count does not match timestamps")

    @classmethod
    def ambient(cls, height: int, width: int) -> "HazardField":
        shape = (1, height, width)
        return cls(
            timestamps=np.array([0.0]),
            temperature=np.full(shape, AMBIENT_TEMP),
            optical_density=np.zeros(shape),
            toxicity=np.zeros(shape),
        )

    def _bracket(self, t: float) -> tuple[int, int, float]:
        ts = self.timestamps
        if t <= ts[0]:
            return 0, 0, 0.0
        if t >= ts[-1]:
            last = len(ts) - 1
            return last, last, 0.0
        hi = int(np.searchsorted(ts, t, side="right"))
        lo = hi - 1
        alpha = (t - ts[lo]) / (ts[hi] - ts[lo])
        return lo, hi, float(alpha)

    def frame_at(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo, hi, alpha = self._bracket(t)
        if lo == hi:
            return self.temperature[lo], self.optical_density[lo], self.toxicity[lo]
        w0 = 1.0 - alpha
        return (
            w0 * self.temperature[lo] + alpha * self.temperature[hi],
            w0 * self.optical_density[lo] + alpha * self.optical_density[hi],
            w0 * self.toxicity[lo] + alpha * self.toxicity[hi],
        )


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

    n = len(frames)
    temp = np.full((n, height, width), AMBIENT_TEMP)
    od = np.zeros((n, height, width))
    tox = np.zeros((n, height, width))
    for i, (_, cells) in enumerate(frames):
        for (x, y), (tv, ov, xv) in cells.items():
            temp[i, y, x] = tv
            od[i, y, x] = ov
            tox[i, y, x] = xv
    return HazardField(
        timestamps=np.array([t for t, _ in frames]),
        temperature=temp,
        optical_density=od,
        toxicity=tox,
    )


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

    timestamps = [0.0]
    od_frames = [od.copy()]
    for k in range(1, n_steps + 1):
        if timestamps[-1] >= horizon:
            break
        nbr_sum = _neighbour_sum(pad, od)
        od = od + diffusion * (nbr_sum - n_open * od)
        od[sy, sx] += rate
        od *= open_f
        np.maximum(od, 0.0, out=od)
        if k % every == 0 or k == n_steps:
            timestamps.append(k * step)
            od_frames.append(od.copy())

    od_stack = np.stack(od_frames)
    return HazardField(
        timestamps=np.array(timestamps),
        temperature=AMBIENT_TEMP + temp_per_od * od_stack,
        optical_density=od_stack,
        toxicity=tox_per_od * od_stack,
    )


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
