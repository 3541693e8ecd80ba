"""Command-line surface.

Every subcommand reads explicit input files, writes a result envelope (and
any data tables) under the requested output location, and exits nonzero with
a diagnostic on stderr for any error.  All randomness flows through explicit
seeds, so identical invocations reproduce identical data tables byte for
byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import logging
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis, geo_remap, heuristic, milp, scenario_gen, solver
from .fixtures import FIXTURE_NAMES, make_fixture
from .grid_model import load_network, save_network, validate
from .mitigation import (
    Budget,
    CostSchedule,
    load_plan,
    plan_cost,
    save_plan,
)
from .recourse import LossWeights, RecourseCounters, RecourseEvaluator
from .scenario_model import load_scenarios, save_scenarios
from .simplex import SimplexCounters
from .value_table import build

SCHEMA_VERSION = 1

log = logging.getLogger("floodmit.cli")


class CliError(Exception):
    """User-facing failure: message to stderr, nonzero exit."""


def _envelope(
    command: str, config: dict, result: dict, started: float,
    recourse: RecourseCounters | None = None,
    simplex: SimplexCounters | None = None,
    greedy: heuristic.GreedyCounters | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "floodmit", "version": __version__},
        "command": command,
        "config": config,
        "timing": {"seconds": round(time.monotonic() - started, 6)},
        "result": result,
    }
    counters = {
        name: dataclasses.asdict(value)
        for name, value in (("recourse", recourse), ("simplex", simplex), ("greedy", greedy))
        if value is not None
    }
    if counters:
        doc["counters"] = counters
    return doc


def _write_json(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_network(path):
    network = load_network(path)
    violations = validate(network)
    if violations:
        raise CliError("network invalid: " + "; ".join(violations))
    return network


def _load_inputs(args):
    """The network and scenarios of a command that plans under the cap ``--rhat``."""
    if args.rhat < 1:
        raise CliError("r_hat must be >= 1")
    network = _load_network(args.network)
    return network, load_scenarios(args.scenarios, network=network, normalize=args.normalize)


def _plan_dict(plan) -> dict:
    return {k: plan.levels[k] for k in sorted(plan.levels)}


# -- subcommands ---------------------------------------------------------


def cmd_validate(args) -> int:
    started = time.monotonic()
    network = load_network(args.network)
    violations = validate(network)
    result = {"violations": violations, "valid": not violations}
    if args.scenarios:
        scenarios = load_scenarios(args.scenarios, network=network, normalize=args.normalize)
        result["scenarios"] = {
            "count": len(scenarios.scenarios),
            "level_count": scenarios.level_count,
            "unattainable_level": scenarios.unattainable_level,
        }
    doc = _envelope("validate", {"network": args.network, "scenarios": args.scenarios}, result, started)
    if args.out:
        _write_json(doc, Path(args.out))
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0 if not violations else 1


def cmd_gen_scenarios(args) -> int:
    started = time.monotonic()
    network = _load_network(args.network)
    coastline = scenario_gen.load_coastline(args.coastline)
    mean_arc = args.mean_arc_km
    if mean_arc is None:
        mean_arc = coastline.total_length_km / 2.0
    dist = scenario_gen.LandfallDistribution(
        coastline=coastline, mean_arc_km=mean_arc, cone_radius_nmi=args.cone_nmi
    )
    kernel = scenario_gen.InundationKernel(
        peak_depth_m=args.peak_depth, decay_km=args.decay_km, track_bearing_deg=args.bearing
    )
    from .scenario_model import STANDARD_THRESHOLDS

    scen = scenario_gen.generate_scenarios(
        network, dist, kernel, STANDARD_THRESHOLDS, args.count, args.seed
    )
    save_scenarios(scen, args.out)
    doc = _envelope(
        "gen-scenarios",
        {
            "network": args.network,
            "coastline": args.coastline,
            "count": args.count,
            "seed": args.seed,
            "peak_depth": args.peak_depth,
            "decay_km": args.decay_km,
            "cone_nmi": args.cone_nmi,
            "bearing": args.bearing,
            "mean_arc_km": mean_arc,
        },
        {
            "out": args.out,
            "scenario_count": len(scen.scenarios),
            "flooded_substations": sorted(scen.substation_ids()),
        },
        started,
    )
    _write_json(doc, Path(args.out).with_suffix(".envelope.json"))
    return 0


def cmd_heuristic(args) -> int:
    started = time.monotonic()
    network, scenarios = _load_inputs(args)
    schedule = CostSchedule.for_network(network)
    budget = Budget(args.budget)
    weights = LossWeights(args.lambda_shed, args.lambda_over)
    evaluator = RecourseEvaluator(network, scenarios, weights)
    levels = heuristic.LevelMatrix(network, scenarios, schedule, args.rhat)

    out = Path(args.out)
    if args.portfolio:
        plans = heuristic.portfolio(budget, levels)
        evaluator.settle(np.concatenate([evaluator.survivors(p) for p in plans]))
        ranked = sorted((evaluator.evaluate(p).expected_loss, i, p) for i, p in enumerate(plans))
        out.mkdir(parents=True, exist_ok=True)
        listing = []
        for rank, (loss, _, plan) in enumerate(ranked):
            path = out / f"plan_{rank:02d}.json"
            save_plan(plan, path)
            listing.append(
                {
                    "rank": rank,
                    "file": path.name,
                    "expected_loss": loss,
                    "cost": plan_cost(plan, schedule),
                    "levels": _plan_dict(plan),
                }
            )
        result = {"plans": listing}
        doc = _envelope("heuristic", _ns_dict(args), result, started, evaluator.counters, greedy=levels.counters)
        _write_json(doc, out / "envelope.json")
        return 0

    eta = heuristic.AttributeWeights(args.eta_load, args.eta_gen, args.eta_flow)
    plan = heuristic.greedy(eta, budget, levels)
    save_plan(plan, out)
    result = {
        "levels": _plan_dict(plan),
        "cost": plan_cost(plan, schedule),
        "expected_loss": evaluator.evaluate(plan).expected_loss,
    }
    doc = _envelope("heuristic", _ns_dict(args), result, started, evaluator.counters, greedy=levels.counters)
    _write_json(doc, out.with_suffix(".envelope.json"))
    return 0


def _solve_one(args, check_unique: bool):
    network, scenarios = _load_inputs(args)
    schedule = CostSchedule.for_network(network)
    weights = LossWeights(args.lambda_shed, args.lambda_over)
    evaluator = RecourseEvaluator(network, scenarios, weights)
    ef = build(schedule, Budget(args.budget), args.rhat, evaluator)
    levels = heuristic.LevelMatrix(network, scenarios, schedule, args.rhat)
    warm = heuristic.portfolio(Budget(args.budget), levels)
    sol, plan, extras = analysis.solve_instance(
        ef, warm, evaluator, check_unique=check_unique
    )
    return network, schedule, ef, sol, plan, extras, (evaluator.counters, sol.counters, levels.counters)


def cmd_solve(args) -> int:
    started = time.monotonic()
    network, schedule, ef, sol, plan, extras, counters = _solve_one(args, args.check_unique)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_plan(plan, out_dir / "plan.json")
    if args.export_lp:
        milp.write_lp_file(ef.problem, out_dir / "problem.lp")
    result = {
        "objective": sol.objective,
        "bound": sol.bound,
        "status": sol.status,
        "nodes": sol.nodes_explored,
        "lp_iterations": sol.lp_iterations,
        "plan": _plan_dict(plan),
        "plan_cost": plan_cost(plan, schedule),
        "model": ef.stats,
    }
    if network.base_mva:
        result["objective_mw"] = sol.objective * network.base_mva
    if extras:
        result["unique"] = extras.get("unique")
        result["uniqueness_caveat"] = extras.get("caveat")
        witness = extras.get("witness")
        result["witness"] = None if witness is None else _plan_dict(witness)
    doc = _envelope("solve", _ns_dict(args), result, started, *counters)
    _write_json(doc, out_dir / "envelope.json")
    return 0


def cmd_check_unique(args) -> int:
    started = time.monotonic()
    _, _, _, sol, plan, extras, counters = _solve_one(args, True)
    result = {
        "objective": sol.objective,
        "plan": _plan_dict(plan),
        "unique": extras["unique"],
        "uniqueness_caveat": extras["caveat"],
        "witness": None if extras["witness"] is None else _plan_dict(extras["witness"]),
    }
    doc = _envelope("check-unique", _ns_dict(args), result, started, *counters)
    _write_json(doc, Path(args.out))
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_eval(args) -> int:
    started = time.monotonic()
    network, scenarios = _load_inputs(args)
    plan = load_plan(args.plan)
    unknown = set(plan.levels) - {s.id for s in network.substations}
    if unknown:
        raise CliError(f"plan names substations absent from the network: {sorted(unknown)}")
    beyond = sorted((k, v) for k, v in plan.levels.items() if v >= args.rhat)
    if beyond:
        raise CliError(
            f"plan levels must lie below --rhat {args.rhat}: "
            + ", ".join(f"substation {k} at level {v}" for k, v in beyond)
        )
    weights = LossWeights(args.lambda_shed, args.lambda_over)
    evaluator = RecourseEvaluator(network, scenarios, weights)
    evaluation = evaluator.evaluate(plan)
    result = {
        "expected_loss": evaluation.expected_loss,
        "plan": _plan_dict(plan),
        # Per-unit values throughout; the optional base converts to MW.
        **(
            {"expected_loss_mw": evaluation.expected_loss * network.base_mva}
            if network.base_mva
            else {}
        ),
        "scenarios": [
            {
                "id": o.scenario_id,
                "probability": o.probability,
                "loss": o.loss,
                "served_load": o.served_load,
                "shed_load": o.shed_load,
                "overgeneration": o.overgeneration,
                "dead_substations": list(o.dead_substations),
            }
            for o in evaluation.outcomes
        ],
    }
    doc = _envelope("eval", _ns_dict(args), result, started, evaluator.counters)
    _write_json(doc, Path(args.out))
    return 0


def cmd_sweep(args) -> int:
    started = time.monotonic()
    network, scenarios = _load_inputs(args)
    schedule = CostSchedule.for_network(network)
    weights = LossWeights(args.lambda_shed, args.lambda_over)
    f_max = None if args.max_budget == "auto" else int(args.max_budget)
    report = analysis.sweep(
        network,
        scenarios,
        schedule,
        r_hat=args.rhat,
        weights=weights,
        f_max=f_max,
        check_unique=args.check_unique,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    obj_header = [
        "budget", "status", "objective", "plan_cost",
        "heuristic_best", "heuristic_gap", "nodes", "lp_iterations",
    ]
    if args.check_unique:
        obj_header += ["unique", "uniqueness_caveat"]
    obj_rows = []
    for r in report.rows:
        row = [
            r.budget, r.status, _fmt(r.objective), _fmt(r.plan_cost),
            _fmt(r.heuristic_best), _fmt(r.heuristic_gap), r.nodes, r.lp_iterations,
        ]
        if args.check_unique:
            row.append("" if r.unique is None else str(r.unique).lower())
            row.append(str(r.uniqueness_caveat).lower())
        obj_rows.append(row)
    _write_csv(out / "objectives.csv", obj_header, obj_rows)

    _write_csv(
        out / "plans.csv",
        ["budget", "substation", "level"],
        [
            [r.budget, sub, r.plan.levels[sub]]
            for r in report.rows
            if r.plan is not None
            for sub in sorted(r.plan.levels)
        ],
    )
    _write_csv(
        out / "spared.csv",
        ["budget", "load_prop", "gen_prop", "flow_prop", "load_abs", "gen_abs", "flow_abs"],
        [
            [
                r.budget,
                _fmt(r.spared.load_proportion), _fmt(r.spared.gen_proportion),
                _fmt(r.spared.flow_proportion), _fmt(r.spared.load_abs),
                _fmt(r.spared.gen_abs), _fmt(r.spared.flow_abs),
            ]
            for r in report.rows
            if r.spared is not None
        ],
    )
    _write_csv(
        out / "transitions.csv",
        ["budget", "substation", "from_level", "to_level", "direction"],
        [[t.budget, t.substation, t.from_level, t.to_level, t.direction] for t in report.transitions],
    )

    nest = analysis.nestedness(report) if len(report.rows) >= 2 else None
    result = {
        "budgets": len(report.rows),
        "f_max": report.f_max,
        "objective_first": report.rows[0].objective,
        "objective_last": report.rows[-1].objective,
        "transitions": len(report.transitions),
        "nested": None if nest is None else nest.nested,
        "nestedness_violations": None if nest is None else len(nest.violations),
        "tables": ["objectives.csv", "plans.csv", "spared.csv", "transitions.csv"],
    }
    doc = _envelope(
        "sweep", _ns_dict(args), result, started,
        report.recourse_counters, report.simplex_counters, report.greedy_counters,
    )
    _write_json(doc, out / "envelope.json")
    return 0


def cmd_remap(args) -> int:
    started = time.monotonic()
    source = geo_remap.read_points_csv(args.src)
    targets = geo_remap.read_points_csv(args.dst)
    mapping, total = geo_remap.remap(source, targets)
    by_id = {p.id: p for p in source.points}
    tgt = {p.id: p for p in targets.points}
    costs = {
        a: geo_remap.distance((by_id[a].lon, by_id[a].lat), (tgt[b].lon, tgt[b].lat))
        for a, b in mapping.items()
    }
    geo_remap.write_mapping_csv(mapping, costs, args.out)
    doc = _envelope(
        "remap",
        {"from": args.src, "to": args.dst},
        {"pairs": len(mapping), "total_distance_km": total, "out": args.out},
        started,
    )
    _write_json(doc, Path(args.out).with_suffix(".envelope.json"))
    return 0


def cmd_make_fixture(args) -> int:
    started = time.monotonic()
    fixture = make_fixture(args.name)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_network(fixture.network, out / "network.json")
    save_scenarios(fixture.scenarios, out / "scenarios.json")
    files = ["network.json", "scenarios.json"]
    if fixture.coastline is not None:
        scenario_gen.save_coastline(fixture.coastline, out / "coastline.json")
        files.append("coastline.json")
    doc = _envelope(
        "make-fixture",
        {"name": args.name},
        {
            "files": files,
            "buses": len(fixture.network.buses),
            "branches": len(fixture.network.branches),
            "substations": len(fixture.network.substations),
            "scenarios": len(fixture.scenarios.scenarios),
        },
        started,
    )
    _write_json(doc, out / "envelope.json")
    return 0


# -- wiring ----------------------------------------------------------------


def _ns_dict(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _max_budget(text: str) -> str:
    """``text`` when it reads ``auto`` or a nonnegative integer."""
    if text != "auto" and not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f'expected "auto" or a nonnegative integer, got {text!r}')
    return text


def _add_common_model_args(p, budget=True):
    p.add_argument("--network", required=True, help="network JSON file")
    p.add_argument("--scenarios", required=True, help="scenario JSON file")
    p.add_argument("--normalize", action="store_true", help="rescale scenario probabilities to 1")
    p.add_argument("--rhat", type=int, default=3, help="first unattainable resilience level")
    p.add_argument("--lambda-shed", type=float, default=1.0, dest="lambda_shed")
    p.add_argument("--lambda-over", type=float, default=1.0, dest="lambda_over")
    if budget:
        p.add_argument("--budget", type=int, required=True, help="resource budget in segments")


@functools.cache  # built once per process: each build takes milliseconds
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodmit",
        description="Plan stackable flood-barrier deployment for grid substations.",
    )
    parser.add_argument("--version", action="version", version=f"floodmit {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network (and optional scenario) file")
    p.add_argument("--network", required=True)
    p.add_argument("--scenarios")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", help="write a result envelope here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-scenarios", help="sample landfall scenarios onto a network")
    p.add_argument("--network", required=True)
    p.add_argument("--coastline", required=True)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--peak-depth", type=float, required=True, dest="peak_depth", help="meters at the track")
    p.add_argument("--decay-km", type=float, required=True, dest="decay_km", help="distance that halves the depth")
    p.add_argument("--cone-nmi", type=float, default=89.0, dest="cone_nmi")
    p.add_argument("--bearing", type=float, default=0.0, help="storm track bearing, degrees")
    p.add_argument("--mean-arc-km", type=float, default=None, dest="mean_arc_km",
                   help="projected landfall arc position (default: coastline midpoint)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_scenarios)

    p = sub.add_parser("heuristic", help="greedy plan(s) by benefit-to-cost ratio")
    _add_common_model_args(p)
    p.add_argument("--eta-load", type=float, default=1.0, dest="eta_load")
    p.add_argument("--eta-gen", type=float, default=0.0, dest="eta_gen")
    p.add_argument("--eta-flow", type=float, default=0.0, dest="eta_flow")
    p.add_argument("--portfolio", action="store_true",
                   help="emit the whole flow-weight portfolio with a ranking report")
    p.add_argument("--out", required=True, help="plan file, or directory with --portfolio")
    p.set_defaults(func=cmd_heuristic)

    p = sub.add_parser("solve", help="solve the planning problem at one budget")
    _add_common_model_args(p)
    p.add_argument("--check-unique", action="store_true", dest="check_unique")
    p.add_argument("--export-lp", action="store_true", dest="export_lp",
                   help="also write the model in LP text format")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-unique", help="solve, then probe optimum uniqueness")
    _add_common_model_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_check_unique)

    p = sub.add_parser("eval", help="expected loss of an existing plan")
    _add_common_model_args(p, budget=False)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="solve every budget, emit report tables")
    _add_common_model_args(p, budget=False)
    p.add_argument("--max-budget", default="auto", dest="max_budget", type=_max_budget,
                   help='integer, or "auto" for the largest budget that can still help')
    p.add_argument("--check-unique", action="store_true", dest="check_unique")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("remap", help="min-distance assignment of points onto sites")
    p.add_argument("--from", required=True, dest="src", help="CSV id,lon,lat")
    p.add_argument("--to", required=True, dest="dst", help="CSV id,lon,lat")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_remap)

    p = sub.add_parser("make-fixture", help="write a bundled desk-scale instance")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_make_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")
    try:
        return args.func(args)
    except (CliError, OSError, ValueError, KeyError, solver.SolverError) as exc:
        print(f"floodmit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
