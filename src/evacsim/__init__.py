"""Deterministic building-evacuation simulator.

Three interchangeable movement models — a capacity-constrained network
flow, a floor-field cellular automaton, and a social-force integrator —
run over one shared scenario format, population model and hazard field,
so their predictions can be compared on equal footing.
"""
from .config import RunConfig, PARAM_DEFAULTS
from .engine import run, state_digest, EMPTY_STATE_DIGEST
from .errors import (
    EvacsimError,
    HazardFormatError,
    SchemaViolation,
    ScenarioSyntaxError,
    SemanticViolation,
    SimulationError,
    VALIDATION_ERRORS,
)
from .metrics import (
    RunResult,
    EventRecord,
    PerAgentRecord,
    clog_fraction,
    egress_stats,
    export_trajectories,
    metrics_summary,
)
from .scenario import (
    Geometry,
    Scenario,
    derive_network,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .sweep import compare_backends, run_sweep

__version__ = "0.1.0"

__all__ = [
    "EMPTY_STATE_DIGEST",
    "EvacsimError",
    "EventRecord",
    "Geometry",
    "HazardFormatError",
    "PARAM_DEFAULTS",
    "PerAgentRecord",
    "RunConfig",
    "RunResult",
    "Scenario",
    "SchemaViolation",
    "ScenarioSyntaxError",
    "SemanticViolation",
    "SimulationError",
    "VALIDATION_ERRORS",
    "clog_fraction",
    "compare_backends",
    "derive_network",
    "egress_stats",
    "export_trajectories",
    "load_scenario",
    "metrics_summary",
    "parse_scenario",
    "run",
    "run_sweep",
    "serialize_scenario",
    "state_digest",
    "__version__",
]
