"""One benchmark child process; ``run.py`` starts it once per phase.

    worker.py prepare  --workload W --work DIR
    worker.py setup    --workload W --work DIR
    worker.py measure  --workload W --work DIR --seed N --seconds S [--trace] [--max-reps K]

``prepare`` writes the workload's input files and the environment record.
``setup`` imports floodmit, loads and validates the inputs, prints ``ready``
and exits; the parent times it from process start.  ``measure`` does the
same set-up, then repeats the workload's requests through
``floodmit.cli.main`` in process (closed loop, one request at a time) while
another repetition still fits in ``--seconds``, checks every repetition's
outputs (byte-identical outputs share one verdict), and writes
``measure.json``.  With ``--trace`` it records spans
around every layer instead of timing end to end.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import check
import workloads


def _setup(work: Path):
    """What a CLI user pays before the first request: importing the CLI and
    loading and validating the two input files."""
    from floodmit import cli, grid_model, scenario_model  # noqa: F401

    network = grid_model.load_network(work / "network.json")
    violations = grid_model.validate(network)
    if violations:
        raise SystemExit("network invalid: " + "; ".join(violations))
    scenarios = scenario_model.load_scenarios(work / "scenarios.json", network=network)
    return network, scenarios


def cmd_prepare(args) -> int:
    import numpy as np
    import scipy

    w = workloads.WORKLOADS[args.workload]
    net_doc, scen_doc = w.docs()
    workloads.write_inputs(net_doc, scen_doc, args.work)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "input_digest": workloads.input_digest(net_doc, scen_doc),
        "instance": workloads.describe(net_doc, scen_doc),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    (args.work / "prepare.json").write_text(json.dumps(env, indent=1, sort_keys=True))
    return 0


def cmd_setup(args) -> int:
    _setup(args.work)
    print("ready", flush=True)
    return 0


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes() if p.exists() else b"\0missing")
    return h.hexdigest()


def _envelope_result(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["result"]
    except (OSError, ValueError, KeyError):
        return None


def _operations(w, ref) -> dict[str, list[str]]:
    """Operations each request delivers, by request id."""
    if w.kind == "sweep":
        return {"sweep": [f"budget-{f}" for f in range(len(ref["objectives"]))]}
    return {
        f"portfolio-{b}": [f"portfolio-{b}/{k}" for k in range(len(ref["requests"][str(b)]["plans"]))]
        for b in w.budgets
    }


def _read_outputs(w, out: Path):
    """(digest of the repetition's output files, a function that gates them)."""
    if w.kind == "sweep":
        d = out / "sweep"
        tables = [d / n for n in ("objectives.csv", "plans.csv", "spared.csv", "transitions.csv")]

        def gate(ref, voltage, loss_of):
            try:
                with open(d / "objectives.csv", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                plans: dict[int, dict[str, int]] = {}
                with open(d / "plans.csv", encoding="utf-8") as fh:
                    for r in csv.DictReader(fh):
                        plans.setdefault(int(r["budget"]), {})[r["substation"]] = int(r["level"])
            except OSError:
                rows, plans = [], {}
            return check.check_sweep(rows, plans, ref, voltage, loss_of)

        return _digest(tables), gate

    results = {str(b): _envelope_result(out / f"portfolio-{b}" / "envelope.json") for b in w.budgets}

    def gate(ref, voltage, loss_of):
        failures = {}
        for b in w.budgets:
            req = dict(ref["requests"][str(b)], r_hat=ref["r_hat"])
            failures.update(check.check_portfolio(b, results[str(b)], req, voltage, loss_of))
        return failures

    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest(), gate


def cmd_measure(args) -> int:
    from floodmit import cli
    from floodmit.mitigation import MitigationPlan
    from floodmit.recourse import LossWeights, RecourseEvaluator

    w = workloads.WORKLOADS[args.workload]
    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
        ref_all = json.load(fh)
    ref = ref_all["workloads"][w.name]
    prepared = json.loads((args.work / "prepare.json").read_text())
    if prepared["input_digest"] != ref["input_digest"]:
        raise SystemExit(f"{w.name}: generated inputs differ from the referenced instance")

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    network, scenarios = _setup(args.work)
    voltage = {s.id: s.voltage_class for s in network.substations}
    evaluator = RecourseEvaluator(network, LossWeights())

    def loss_of(levels):
        return evaluator.evaluate(MitigationPlan(levels), scenarios).expected_loss

    ops = _operations(w, ref)
    attempted = sum(len(v) for v in ops.values())
    verdicts: dict[str, dict] = {}
    reps = []
    started = time.perf_counter()
    while True:
        out = args.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        requests = w.requests(args.work / "network.json", args.work / "scenarios.json", out, args.seed)
        codes = {}
        t0, c0 = time.perf_counter(), time.process_time()
        for rid, argv in requests:
            if tracer is not None:
                tracer.request = f"rep{len(reps)}/{rid}"
            try:
                codes[rid] = cli.main(argv)
            except Exception:  # an uncaught error is a failed request, as a CLI exit would be
                traceback.print_exc()
                codes[rid] = 1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        digest, gate = _read_outputs(w, out)
        if digest not in verdicts:  # identical output files get the identical verdict
            verdicts[digest] = gate(ref, voltage, loss_of)
        failures = {op: list(reasons) for op, reasons in verdicts[digest].items()}
        for rid, code in codes.items():  # a failed request fails everything it was to deliver
            if code != 0:
                for op in ops[rid]:
                    failures.setdefault(op, []).append(f"CLI exit code {code}")
        reps.append({"wall_s": wall, "cpu_s": cpu, "attempted": attempted,
                     "failures": failures, "digest": digest})
        elapsed = time.perf_counter() - started
        if len(reps) >= args.max_reps or tracer is not None or elapsed + wall > args.seconds:
            break

    doc = {"reps": reps, "peak_rss_mb": rss_mb}
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.work / "spans.jsonl")
    (args.work / "measure.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--max-reps", type=int, default=1000, dest="max_reps")
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    import floodmit

    if Path(floodmit.__file__).resolve().parent != (src / "floodmit").resolve():
        raise SystemExit(f"imported floodmit from {floodmit.__file__}, not from {src}")
    return {"prepare": cmd_prepare, "setup": cmd_setup, "measure": cmd_measure}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
