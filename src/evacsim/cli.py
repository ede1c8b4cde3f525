"""Command-line interface: validate scenarios, run them, sweep a
parameter, or compare the movement backends.

Exit codes: 0 success, 1 invalid input (including bad flags), 2 runtime
failure inside a simulation, 3 the requested work finished but at least
one run hit its time limit with people still inside.  All error text
goes to stderr with an ``evacsim:error:`` prefix; result files are only
ever written under the directory given by ``--out``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .agents import spawn_population
from .config import BACKENDS
from .engine import load_hazard_field, run
from .errors import SimulationError, VALIDATION_ERRORS, SchemaViolation, SemanticViolation
from .metrics import egress_stats, export_trajectories, metrics_summary
from .rng import RngStreams
from .scenario import parse_scenario
from .sweep import compare_backends, run_sweep, sweep_summary, write_sweep_csv

ERROR_PREFIX = "evacsim:error:"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_TIMEOUT = 3


class _Parser(argparse.ArgumentParser):
    """argparse reports bad usage via exit code 1 and the error prefix,
    the error line first like every other refusal, then the usage."""

    def error(self, message: str):
        print(f"{ERROR_PREFIX} {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INVALID)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evacsim",
        description="Deterministic multi-model building-evacuation simulator.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p_validate = sub.add_parser(
        "validate",
        help="check a scenario file and report derived quantities",
        description="Parse and validate a scenario, its hazard source and its egress network.",
    )
    p_validate.add_argument("scenario", help="scenario JSON file")
    p_validate.add_argument("--backend", choices=BACKENDS, help="also check what a run under this backend checks at start")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser(
        "run",
        help="simulate one scenario and write trajectory.csv + metrics.json",
        description="Run a scenario to completion (or its time limit).",
    )
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p_run.add_argument("--backend", choices=BACKENDS, help="override the scenario's backend")
    p_run.add_argument("--seed", type=int, help="override the scenario's seed")
    p_run.add_argument("--max-time", type=float, metavar="S", help="override the simulated time limit")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a parameter sweep and write sweep.csv + summary.json",
        description="Full factorial of one parameter against a seed list.",
    )
    p_sweep.add_argument("scenario", help="scenario JSON file")
    p_sweep.add_argument("--param", required=True, help="dotted path, e.g. params.v_panic")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--seeds", required=True, help="comma list and/or a:b ranges, e.g. 0:20")
    p_sweep.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p_sweep.add_argument("--workers", type=int, default=0, help="worker processes (default: 0 = one per CPU)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_compare = sub.add_parser(
        "compare",
        help="run the same scenario under every backend",
        description="Same scenario, same population seed, all three movement models.",
    )
    p_compare.add_argument("scenario", help="scenario JSON file")
    p_compare.add_argument("--seed", type=int, help="override the scenario's seed")
    p_compare.add_argument("--out", metavar="DIR", help="also write compare.json here")
    p_compare.set_defaults(func=cmd_compare)

    return parser


def _read_scenario_file(path: str) -> tuple[str, str]:
    """(document text, base directory for relative hazard paths)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaViolation("scenario", f"cannot read {path!r}: {exc}") from exc
    return text, os.path.dirname(os.path.abspath(path))


def cmd_validate(args) -> int:
    text, base_dir = _read_scenario_file(args.scenario)
    scenario = parse_scenario(text, base_dir)
    geometry = scenario.geometry
    config = scenario.config
    if args.backend is not None:
        # the start-up checks of `run --backend`: the population under the run's config
        config = replace(config, backend=args.backend)
        config.validate()
        scenario.population.validate(geometry, config)
    hazard = load_hazard_field(scenario)
    if config.bodies:
        # bodies are placed by a seeded sampler: try the run's own placement
        try:
            spawn_population(scenario.population, geometry, RngStreams(config.seed), config.params(), config.bodies)
        except SimulationError as exc:
            raise SemanticViolation("population.spawn", str(exc)) from exc
    topology = geometry.topology
    zones = geometry.exit_zones
    print(f"ok: {geometry.width}x{geometry.height} cells at {geometry.cell_size} m")
    print(f"population: {scenario.population.count}")
    print(f"exits: {len(zones)}  doors: {len(geometry.doors)}")
    rooms = sum(1 for n in topology.nodes if n.kind == "room")
    print(f"network: {rooms} rooms, {len(topology.links)} arcs")
    print(f"hazard: {scenario.hazard_source.kind} ({len(hazard.timestamps)} frames)")
    print(f"backend: {config.backend}  seed: {config.seed}")
    for warning in [*scenario.warnings, *topology.warnings]:
        print(f"warning: {warning}")
    return EXIT_OK


def cmd_run(args) -> int:
    text, base_dir = _read_scenario_file(args.scenario)
    scenario = parse_scenario(text, base_dir)
    config = scenario.config
    # run() checks the overridden config before it starts
    config = replace(
        config,
        backend=args.backend or config.backend,
        max_sim_time=config.max_sim_time if args.max_time is None else args.max_time,
        seed=config.seed if args.seed is None else args.seed,
    )
    result = run(scenario, config)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "trajectory.csv"), "w", encoding="utf-8", newline="") as fh:
        export_trajectories(result, fh)
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(metrics_summary(result), fh, indent=2, sort_keys=True)
        fh.write("\n")

    t_total, t_50, t_95, fatalities = egress_stats(result)
    print(f"backend: {result.backend}  dt: {result.dt:g} s  seed: {result.seed}")
    print(f"population: {result.population}  exited: {result.exited}  fatalities: {fatalities}")
    if result.timeout:
        print(f"timed out at {result.t_end:g} s with {result.population - result.exited - fatalities} still inside")
    elif result.population:
        print(f"t_total: {t_total:g} s  t_50: {t_50:g} s  t_95: {t_95:g} s")
    print(f"digest: {result.digest}")
    for warning in result.warnings:
        print(f"warning: {warning}")
    return EXIT_TIMEOUT if result.timeout else EXIT_OK


def _parse_values(raw: str) -> list[float]:
    """Comma-separated finite numbers; nan and inf are not sweep values."""
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        values = None
    if values is None or not all(map(math.isfinite, values)):
        raise SchemaViolation("sweep.values", f"not numbers: {raw!r}")
    return values


def _parse_seeds(raw: str) -> list[int]:
    """Seed lists mix single values and half-open a:b ranges."""
    seeds: list[int] = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if ":" in tok:
                lo, hi = tok.split(":", 1)
                seeds.extend(range(int(lo), int(hi)))
            else:
                seeds.append(int(tok))
        except ValueError:
            raise SchemaViolation("sweep.seeds", f"bad seed token {tok!r}") from None
    return seeds


def cmd_sweep(args) -> int:
    text, base_dir = _read_scenario_file(args.scenario)
    values = _parse_values(args.values)
    seeds = _parse_seeds(args.seeds)
    rows = run_sweep(text, args.param, values, seeds, base_dir=base_dir, workers=args.workers)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(rows, fh)
    summary = sweep_summary(rows)
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"param": args.param, "cells": len(rows), "values": summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for entry in summary:
        median = entry["median_t_total"]
        shown = "-" if median is None else f"{median:.2f} s"
        print(
            f"{args.param}={entry['value']:g}: median t_total {shown} "
            f"({entry['finished']}/{entry['runs']} finished, {entry['timeouts']} timeouts)"
        )
    return EXIT_TIMEOUT if any(row.timeout for row in rows) else EXIT_OK


def cmd_compare(args) -> int:
    text, base_dir = _read_scenario_file(args.scenario)
    rows = compare_backends(text, base_dir=base_dir, seed=args.seed)

    def fmt(value, width):
        if value is None:
            return "-".rjust(width)
        if isinstance(value, float):
            return f"{value:.2f}".rjust(width)
        return str(value).rjust(width)

    print(f"{'backend':8} {'t_total':>9} {'t_50':>8} {'t_95':>8} {'exited':>7} {'dead':>5} {'clogged':>8}")
    for row in rows:
        print(
            f"{row['backend']:8}"
            f" {fmt(row['t_total'], 9)}"
            f" {fmt(row['t_50'], 8)}"
            f" {fmt(row['t_95'], 8)}"
            f" {fmt(row['exited'], 7)}"
            f" {fmt(row['fatalities'], 5)}"
            f" {fmt(row['clog_fraction'], 8)}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "compare.json"), "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for row in rows:
        if row["error"]:
            print(f"{ERROR_PREFIX} {row['backend']}: {row['error']}", file=sys.stderr)
    if any(row["error"] for row in rows):
        return EXIT_RUNTIME
    return EXIT_TIMEOUT if any(row["timeout"] for row in rows) else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SimulationError as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
