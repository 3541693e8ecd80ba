"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each layer's public entry points at the names
where callers look them up (module globals, class attributes, the ``spla``
module reference inside ``simplex``) with wrappers that record a span and
update counters; ``uninstall`` puts the originals back.  Nothing in
``src/`` is modified.  A span is (id, parent id, request id, name, start,
end); spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the time covered by its direct children (calls are nested and
single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = "setup"
        self.counts: Counter = Counter()
        self.model: dict[str, int] = {}
        self._restore: list[tuple] = []

    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, parent, self.request, name, t0, t1)

    def wrap(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, orig, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def install(self):
        from floodmit import (
            analysis, cli, grid_model, heuristic, milp, recourse, scenario_model, simplex, solver,
        )

        counts = self.counts

        def after_lp(res, args, kwargs):
            counts["lp_warm" if kwargs.get("warm") is not None else "lp_cold"] += 1
            counts["lp_iterations"] += res.iterations

        def after_milp(sol, args, kwargs):
            config = kwargs.get("config", args[1] if len(args) > 1 else None)
            counts["milp_nodes"] += sol.nodes_explored
            counts["milp_lp_iterations"] += sol.lp_iterations
            counts["milp_warm_starts"] += len(config.warm_starts) if config else 0

        def after_build(ef, args, kwargs):
            self.model = {k: ef.stats[k] for k in ("variables", "rows", "binaries")}

        self.wrap(simplex, "solve_linear_program", "simplex.lp", after_lp)
        self.wrap(simplex, "Workspace", "simplex.workspace")
        self._restore.append((simplex, "spla", simplex.spla))
        simplex.spla = _SplaProxy(simplex.spla, self)
        self.wrap(solver, "solve_milp", "solver.solve_milp", after_milp)
        for owner in (cli, analysis):
            self.wrap(owner, "build", "extensive_form.build", after_build)
        self.wrap(milp.MilpProblem, "with_rhs", "milp.with_rhs")
        self.wrap(milp.MilpProblem, "constraint_arrays", "milp.constraint_arrays")
        self.wrap(heuristic, "greedy", "heuristic.greedy")
        for owner in (heuristic, analysis):
            self.wrap(owner, "portfolio", "heuristic.portfolio")
        self.wrap(recourse.RecourseEvaluator, "evaluate", "recourse.evaluate")
        self.wrap(recourse.RecourseEvaluator, "scenario_outcome", "recourse.outcome")
        self.wrap(recourse, "solve_recourse_lp", "recourse.dispatch_lp")
        for owner in (recourse, heuristic, analysis):
            self.wrap(owner, "status_closure", "recourse.status_closure")
        for name in ("solve_instance", "spared_capacity", "sweep"):
            self.wrap(analysis, name, f"analysis.{name}")
        for owner in (cli, grid_model):
            self.wrap(owner, "load_network", "grid_model.load_network")
            self.wrap(owner, "validate", "grid_model.validate")
        for owner in (cli, scenario_model):
            self.wrap(owner, "load_scenarios", "scenario_model.load_scenarios")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, request, name, t0, t1]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics (name -> value) from the spans and counters."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, name, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for sid, parent, _, name, t0, t1 in self.spans:
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child_time[sid]
            calls[name] += 1
        c = self.counts
        lps = calls["simplex.lp"]
        outcomes = calls["recourse.outcome"]
        dispatch = calls["recourse.dispatch_lp"]
        return {
            "simplex.lp_solves": lps,
            "simplex.lp_solves_warm": c["lp_warm"],
            "simplex.lp_solves_cold": c["lp_cold"],
            "simplex.lp_s": total["simplex.lp"],
            "simplex.self_s": self_time["simplex.lp"],
            "simplex.iterations": c["lp_iterations"],
            "simplex.lu_factorizations": calls["simplex.lu_factorize"],
            "simplex.lu_factorize_s": total["simplex.lu_factorize"],
            "simplex.lu_factorizations_per_lp": calls["simplex.lu_factorize"] / lps if lps else 0.0,
            "simplex.lu_solves": calls["simplex.lu_solve"],
            "simplex.lu_solve_s": total["simplex.lu_solve"],
            "simplex.workspaces": calls["simplex.workspace"],
            "simplex.workspace_s": total["simplex.workspace"],
            "solver.solve_milp_calls": calls["solver.solve_milp"],
            "solver.solve_milp_s": total["solver.solve_milp"],
            "solver.self_s": self_time["solver.solve_milp"],
            "solver.nodes": c["milp_nodes"],
            "solver.lp_iterations": c["milp_lp_iterations"],
            "solver.warm_starts": c["milp_warm_starts"],
            "extensive_form.build_s": total["extensive_form.build"],
            "extensive_form.variables": self.model.get("variables", 0),
            "extensive_form.rows": self.model.get("rows", 0),
            "extensive_form.binaries": self.model.get("binaries", 0),
            "milp.with_rhs_s": total["milp.with_rhs"],
            "milp.constraint_arrays_s": total["milp.constraint_arrays"],
            "heuristic.portfolio_calls": calls["heuristic.portfolio"],
            "heuristic.greedy_calls": calls["heuristic.greedy"],
            "heuristic.portfolio_s": total["heuristic.portfolio"],
            "recourse.evaluate_calls": calls["recourse.evaluate"],
            "recourse.evaluate_s": total["recourse.evaluate"],
            "recourse.outcomes": outcomes,
            "recourse.dispatch_lps": dispatch,
            "recourse.dispatch_lp_s": total["recourse.dispatch_lp"],
            "recourse.cache_hit_ratio": 1.0 - dispatch / outcomes if outcomes else 0.0,
            "recourse.status_closure_calls": calls["recourse.status_closure"],
            "analysis.solve_instance_s": total["analysis.solve_instance"],
            "analysis.spared_capacity_s": total["analysis.spared_capacity"],
            "analysis.self_s": sum(
                self_time[f"analysis.{n}"] for n in ("solve_instance", "spared_capacity", "sweep")
            ),
            "grid_model.load_s": total["grid_model.load_network"] + total["grid_model.validate"],
            "scenario_model.load_s": total["scenario_model.load_scenarios"],
            "cli.self_s": self_time["cli.main"],
            "trace.spans": len(self.spans),
        }


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``simplex``: times ``splu``."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def splu(self, *args, **kwargs):
        lu = self._tracer.call("simplex.lu_factorize", self._module.splu, args, kwargs)
        return _LuProxy(lu, self._tracer)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _LuProxy:
    """Wraps a SuperLU factor so each ``solve`` is a span."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("simplex.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)
