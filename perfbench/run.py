"""floodmit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a floodmit checkout; the program is imported from
``src/``.  Workloads: see ``workloads.py`` and ``README.md``.  Every child
process gets numeric thread pools capped at 1.

--trace 0  prints the end-to-end metrics: ``wall_s`` and ``cpu_s`` (median
           over the repetitions that fit in S seconds, set-up excluded),
           ``setup_s`` (median of several fresh processes from start to
           "CLI imported, inputs loaded and validated") and ``peak_rss_mb``.
--trace 1  prints the per-layer metrics from a traced repetition, plus
           ``trace.overhead_s``: its wall time minus that of an untraced
           repetition run just before it in another fresh process.

Every run checks each repetition against the HiGHS references in
``reference.json`` and writes a result record with provenance to
``.bench_work/results/``.  Repeated runs of the same code (same hash of
``src/floodmit`` and this directory) must give byte-identical outputs and,
when traced, identical exact counts; the first run of a code hash records
them under ``.bench_work/determinism/``, later runs compare.  Only
process-level measurement is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
THREAD_CAPS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Counts a traced run must reproduce exactly for the same code.
EXACT_COUNTS = (
    "solver.nodes", "simplex.iterations", "simplex.lu_factorizations", "recourse.dispatch_lps",
    "simplex.lp_solves", "simplex.lu_solves", "recourse.outcomes", "heuristic.greedy_calls",
)
MEASUREMENT_NOTE = (
    "process-level tools only: time.perf_counter, time.process_time and "
    "resource.getrusage in the benchmark's own processes; no system-wide "
    "tracing, no cache dropping, no changes to machine settings"
)


class BenchError(Exception):
    pass


def _child_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


class Runner:
    def __init__(self, root: Path, workload: str, work: Path, deadline: float):
        self.root = root
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = _child_env(root)

    def argv(self, mode: str, *extra: str) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), mode, "--workload", self.workload,
                "--work", str(self.work), *extra]

    def run(self, mode: str, *extra: str) -> None:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before {mode}")
        log = self.work / f"{mode}.log"
        try:
            with open(log, "a", encoding="utf-8") as fh:
                proc = subprocess.run(
                    self.argv(mode, *extra), cwd=self.root, env=self.env, timeout=timeout,
                    stdout=fh, stderr=subprocess.STDOUT,
                )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} did not finish in time") from exc
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip()[-2000:]
            raise BenchError(f"{mode} exited {proc.returncode}: {tail}")

    def setup_seconds(self) -> float:
        """Seconds from process start to the child's ``ready`` line."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            self.argv("setup"), cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError("set-up probe failed")
        return elapsed

    def measure(self, seed: int, seconds: float, trace: bool, max_reps: int) -> dict:
        extra = ["--seed", str(seed), "--seconds", str(seconds), "--max-reps", str(max_reps)]
        self.run("measure", *extra, *(["--trace"] if trace else []))
        return json.loads((self.work / "measure.json").read_text())


def _code_hash(root: Path) -> tuple[str, int]:
    """Hash of the program and benchmark sources, and the program's line count."""
    h = hashlib.sha256()
    lines = 0
    for base, pattern in ((root / "src" / "floodmit", "*.py"), (HERE, "*")):
        for p in sorted(base.glob(pattern)):
            if p.is_file():
                data = p.read_bytes()
                h.update(p.name.encode() + b"\0" + data)
                if base.name == "floodmit":
                    lines += data.count(b"\n")
    return h.hexdigest()[:16], lines


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def _determinism(root: Path, workload: str, code: str, record: dict) -> list[str]:
    """Compare against the first run of this code; record it if there is none."""
    path = root / ".bench_work" / "determinism" / f"{workload}-{code}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError):
        stored = {}
    problems = []
    for key, value in record.items():
        if key in stored and stored[key] != value:
            problems.append(f"{key}: {value!r} differs from an earlier run's {stored[key]!r}")
    merged = {**record, **stored}
    if merged != stored:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
        tmp.replace(path)
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_lp")):
        return "ratio"
    return "count"


def bench(args, root: Path) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    sys.path.insert(0, str(HERE))
    import selftest
    import workloads

    missed = selftest.run()
    if missed:
        raise BenchError(f"correctness gate self-test failed: {missed}")
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, args.workload, work, deadline)

    runner.run("prepare")
    prepared = json.loads((work / "prepare.json").read_text())
    code, src_lines = _code_hash(root)

    if args.trace:
        plain = runner.measure(args.seed, args.seconds, trace=False, max_reps=1)
        measured = runner.measure(args.seed, args.seconds, trace=True, max_reps=1)
        layers = measured["layers"]
        layers["trace.wall_s"] = measured["reps"][0]["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - plain["reps"][0]["wall_s"]
        reps = plain["reps"] + measured["reps"]
        metrics = {name: _metric(v, _layer_unit(name)) for name, v in sorted(layers.items())}
        record = {f"count.{k}": layers[k] for k in EXACT_COUNTS}
    else:
        setup = [runner.setup_seconds() for _ in range(SETUP_SAMPLES)]
        measured = runner.measure(args.seed, args.seconds, trace=False, max_reps=1000)
        reps = measured["reps"]
        metrics = {
            "wall_s": _metric(statistics.median(r["wall_s"] for r in reps), "s"),
            "cpu_s": _metric(statistics.median(r["cpu_s"] for r in reps), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(measured["peak_rss_mb"], "MB"),
        }
        record = {}

    failures = {}
    for i, rep in enumerate(reps):
        for op, reasons in rep["failures"].items():
            failures[f"rep{i}/{op}"] = reasons
    attempted = sum(r["attempted"] for r in reps)
    failed = min(attempted, sum(len(r["failures"]) for r in reps))
    digests = {r["digest"] for r in reps}
    record["outputs"] = reps[0]["digest"]
    problems = [] if len(digests) == 1 else [f"repetitions produced {len(digests)} different outputs"]
    problems += _determinism(root, args.workload, code, record)

    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    provenance = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": prepared["python"],
        "numpy": prepared["numpy"],
        "scipy": prepared["scipy"],
        "blas": prepared["blas"],
        "thread_caps": THREAD_CAPS,
        "git_commit": _git_commit(root),
        "code_hash": code,
        "src_floodmit_lines": src_lines,
        "measurement": MEASUREMENT_NOTE,
    }
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "instance": prepared["instance"],
        "repetitions": [{k: r[k] for k in ("wall_s", "cpu_s", "attempted")} for r in reps],
        "failed_ratio": result["failed"] / attempted if attempted else 1.0,
        "failures": failures,
        "determinism_problems": problems,
        "provenance": provenance,
        "result": result,
    }
    out = root / ".bench_work" / "results" / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "floodmit" / "cli.py").is_file():
        print(f"run.py: no floodmit sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    try:
        doc = bench(args, root)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result = doc["result"]
    reps = len(doc["repetitions"])
    samples = {"wall_s": reps, "cpu_s": reps, "setup_s": SETUP_SAMPLES}
    for name, m in result["metrics"].items():
        note = f" (median of {samples[name]})" if name in samples and not args.trace else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    prov = doc["provenance"]
    print(f"{args.workload} provenance: nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} scipy={prov['scipy']} blas={prov['blas']} "
          f"src_floodmit_lines={prov['src_floodmit_lines']} commit={prov['git_commit']}; "
          f"{prov['measurement']}")
    print(f"{args.workload} failed_ratio = {doc['failed_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for op, reasons in list(doc["failures"].items())[:20]:
        print(f"FAILED {op}: {'; '.join(reasons)}")
    for problem in doc["determinism_problems"]:
        print(f"NONDETERMINISTIC {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
