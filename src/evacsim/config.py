"""Run configuration and the tunable-parameter registry.

Every named constant that shapes simulation behaviour lives in
``PARAM_DEFAULTS`` and can be overridden per run through
``RunConfig.overrides``.  Unknown override keys are rejected so typos
fail loudly instead of silently running with defaults.
``RunConfig.params()`` is the one merge of defaults and overrides:
every layer that reads a model parameter takes the table it returns
and has no fallback of its own.  The dataclass defaults of
``RunConfig`` are likewise the only copy of the run-config defaults.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import SchemaViolation, SemanticViolation

BACKENDS = ("flow", "ca", "sf")

MAX_SEED = 2**64 - 1

# One flat registry: name -> default.  Units noted inline.
PARAM_DEFAULTS: dict[str, float | int] = {
    # locomotion
    "v_ref": 1.34,            # m/s, unhurried walking reference speed
    "v_panic": 3.0,           # m/s, base speed at panic mobility
    "speed_cap": 7.0,         # m/s, hard ceiling on any desired speed
    # door/network derivation
    "c_door": 1.25,           # persons per metre of door width per flow tick
    "flow_tick": 1.0,         # s, tick length of the coarse flow backend
    # visibility
    "vis_r_max": 30.0,        # m, sight range in clear air
    "vis_k": 3.0,             # visibility = vis_k / optical_density
    "vis_eps": 1e-6,          # guards the division at zero optical density
    # health
    "temp_crit": 60.0,        # degC, heat below this is harmless
    "temp_scale": 60.0,       # degC, normalises the excess-heat dose term
    "c_temp": 0.01,           # health lost per second at temp_crit + temp_scale
    "c_tox": 1.0,             # health lost per second per unit toxicity
    # reaction time
    "rt_median": 30.0,        # s, median of the lognormal pre-movement delay
    "rt_sigma": 0.8,          # lognormal shape
    "rt_min": 1.0,            # s
    "rt_max": 300.0,          # s
    "rt_leader_factor": 0.5,  # multiplier for top-level (role == 1) agents
    # exit-choice utility weights
    "w_distance": 1.0,
    "w_congestion": 0.5,
    "w_hazard": 2.0,
    "w_familiar": 0.3,
    "follow_penalty": 10.0,   # m, distance surcharge for exits only inferred from neighbours
    # progress/insistence bookkeeping
    "progress_eta": 0.3,      # fraction of nominal displacement that counts as progress
    "progress_window": 5.0,   # s
    "insistence_decay": 0.8,  # multiplier applied when progress stalls
    "insistence_floor": 0.05,
    # nervousness dynamics
    "dn_replan": 0.05,        # added per replan
    "dn_smoke": 0.1,          # added per decision tick spent in dense smoke
    "od_nervous": 0.5,        # 1/m, optical density that counts as dense smoke
    "od_blocked": 1.0,        # 1/m, optical density at an exit that marks it blocked
    "nervousness_growth": 1.0,  # global scale on nervousness increments (0 freezes)
    # demographic speed table
    "age_slow_at": 65,        # years; at or above this age speed_pref is scaled
    "age_slow_factor": 0.7,
    # cellular automata
    "ca_noise": 0.1,          # cells, amplitude of the uniform tie-breaking noise
    # social forces
    "sf_tau": 0.5,            # s, velocity relaxation time
    "sf_a": 2000.0,           # N, social repulsion strength
    "sf_b": 0.08,             # m, social repulsion range
    "sf_k": 1.2e5,            # kg/s^2, body compression stiffness
    "sf_kappa": 2.4e5,        # kg/(m s), sliding friction coefficient
    "sf_cutoff": 3.0,         # m, neighbour interaction cutoff
    "sf_radius_lo": 0.25,     # m, smallest body radius
    "sf_radius_hi": 0.35,     # m, largest body radius
    "sf_mass": 80.0,          # kg
    "sf_speed_slack": 1.3,    # |v| is clamped at slack * speed_cap
    # clog detection
    "clog_flow": 0.3,         # persons/s, door flow below this can count as clogged
    "clog_window": 10.0,      # s, trailing window for the flow estimate; a
                              # real arch starves the door for this long,
                              # a lone slow walker does not
    "clog_min_bodies": 6,     # bodies required in the upstream band
    "clog_band_inner": 0.5,   # m
    "clog_band_outer": 1.5,   # m
    # perception / decision bookkeeping
    "congestion_radius": 10.0,  # m, neighbourhood used for congestion/herding estimates
    "waypoint_reach": 0.5,      # m, distance at which an intermediate waypoint is passed
    "decision_interval": 0.0,   # s between decision rounds; 0 = backend default
    "trajectory_interval": 0.0, # s between trajectory samples; 0 = backend default
}

SF_MAX_DT = 0.05  # s; contact stiffness makes larger social-force steps unstable


@dataclass
class RunConfig:
    """Everything needed to reproduce a run, besides the scenario itself.

    ``dt`` drives the continuous (social-force) backend only: the grid
    backend derives its tick from the cell size and reference walking
    speed, and the network-flow backend always ticks at ``flow_tick``.
    """

    backend: str = "ca"
    dt: float = 0.05                 # s, integration step of the continuous backend
    max_sim_time: float = 1800.0     # s
    seed: int = 0
    alarm_time: float = 0.0
    overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise SchemaViolation("config.backend", f"must be one of {BACKENDS}, got {self.backend!r}")
        require_number("config.dt", self.dt)
        if not self.dt > 0:
            raise SemanticViolation("config.dt", "time step must be > 0")
        if self.backend == "sf" and self.dt > SF_MAX_DT:
            raise SemanticViolation(
                "config.dt", f"continuous backend is unstable above {SF_MAX_DT} s"
            )
        require_number("config.max_sim_time", self.max_sim_time)
        if not self.max_sim_time > 0:
            raise SemanticViolation("config.max_sim_time", "must be > 0")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise SchemaViolation("config.seed", "must be an integer")
        if not 0 <= self.seed <= MAX_SEED:
            raise SemanticViolation("config.seed", "must fit in an unsigned 64-bit integer")
        require_number("config.alarm_time", self.alarm_time)
        if self.alarm_time < 0:
            raise SemanticViolation("config.alarm_time", "must be >= 0")
        if not isinstance(self.overrides, dict):
            raise SchemaViolation("config.overrides", "must be a mapping")
        for key, value in self.overrides.items():
            if key not in PARAM_DEFAULTS:
                raise SchemaViolation(f"config.overrides.{key}", "unknown parameter")
            require_number(f"config.overrides.{key}", value)
        # divisors of the tick and network derivations, and the smallest body
        params = self.params()
        for key in ("v_ref", "flow_tick", "sf_radius_lo"):
            if not params[key] > 0:
                raise SemanticViolation(f"config.overrides.{key}", "must be > 0")
        if not params["sf_radius_lo"] <= params["sf_radius_hi"]:
            raise SemanticViolation("config.overrides.sf_radius_hi", "must be >= sf_radius_lo")

    @property
    def bodies(self) -> bool:
        """Whether people spawn as discs at continuous positions (sf) rather
        than one to a cell (ca and flow)."""
        return self.backend == "sf"

    def params(self) -> dict[str, float]:
        """Resolved parameter table: defaults plus overrides."""
        merged = dict(PARAM_DEFAULTS)
        merged.update(self.overrides)
        return merged

    def resolved_dt(self, cell_size: float) -> float:
        """The tick length actually used by this config's backend."""
        if self.backend == "flow":
            return float(self.params()["flow_tick"])
        if self.backend == "ca":
            return cell_size / float(self.params()["v_ref"])
        return float(self.dt)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "dt": self.dt,
            "max_sim_time": self.max_sim_time,
            "seed": self.seed,
            "alarm_time": self.alarm_time,
            "overrides": dict(sorted(self.overrides.items())),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """The config a document gives, every absent field at its default."""
        if not isinstance(doc, dict):
            raise SchemaViolation("config", "must be an object")
        known = {f.name for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise SchemaViolation(f"config.{key}", "unknown field")
        cfg = cls(**doc)
        cfg.validate()
        return cfg


def is_number(value) -> bool:
    """A finite int or float; booleans, NaN and infinities are not quantities."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def require_number(field: str, value) -> None:
    """Reject anything ``is_number`` refuses, naming the field."""
    if not is_number(value):
        raise SchemaViolation(field, "must be a number")


def half_up(x: float) -> int:
    """Round half away from zero (3.5 -> 4), unlike banker's rounding."""
    return int(math.floor(x + 0.5))
