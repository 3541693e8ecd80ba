"""Regenerate ``reference.json``: HiGHS reference values for every workload.

    PYTHONPATH=src python3 perfbench/make_reference.py

Objectives come from ``scipy.optimize.milp`` (HiGHS) on the extensive form,
one solve per sweep budget.  Portfolio plans
are the greedy portfolio's (deterministic), ranked and priced by this file's
own DC load-shed dispatch LP solved with ``scipy.optimize.linprog`` (HiGHS),
written from the model definition rather than from ``floodmit.recourse``.
Takes a few minutes; run it only when a workload or its instance changes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import workloads
from workloads import R_HAT

COMMAND = "PYTHONPATH=src python3 perfbench/make_reference.py"
REFERENCE = Path(__file__).with_name("reference.json")


def highs_objective(problem) -> float:
    A, senses, b = problem.constraint_arrays()
    lo = np.where([s in ("G", "E") for s in senses], b, -np.inf)
    hi = np.where([s in ("L", "E") for s in senses], b, np.inf)
    lb, ub = problem.bounds_arrays()
    integrality = np.zeros(problem.n_variables)
    integrality[problem.binary_indices()] = 1
    res = milp(
        c=problem.objective,
        constraints=LinearConstraint(A, lo, hi),
        bounds=Bounds(lb, ub),
        integrality=integrality,
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS MILP: {res.message}")
    return float(res.fun + problem.objective_offset)


class DispatchOracle:
    """Scenario loss of a plan via linprog on the fixed-status dispatch LP.

    Per bus: generation p in [a*gmin, a*gmax], overgeneration o in [0, a*inf)
    with o <= p when alive, served fraction d in [0, a], angle th in
    [-abs_max, abs_max] (0 at the reference bus); per live branch a flow f in
    [-lim, lim] with lim = min(flow_limit, |b| * diff_max) and Ohm's law
    f = -b * (th_from - th_to); dead branches carry no flow.  Balance at each
    bus: p - o - load * d + inflow - outflow = 0.  Loss: sum of load * (1 - d)
    plus sum of o (both weights 1).
    """

    def __init__(self, network: dict, scenarios: dict):
        self.net = network
        self.scenarios = scenarios["scenarios"]
        self.sub_of = {b["id"]: b["substation"] for b in network["buses"]}
        self.cache: dict[frozenset, float] = {}
        angles = network.get("angle_limits", {})
        self.abs_max = angles.get("abs_max_rad", np.pi / 2)
        self.diff_max = angles.get("diff_max_rad", np.pi / 6)

    def loss(self, dead: frozenset) -> float:
        if dead not in self.cache:
            self.cache[dead] = self._solve(dead)
        return self.cache[dead]

    def _solve(self, dead: frozenset) -> float:
        buses, branches = self.net["buses"], self.net["branches"]
        nb, ne = len(buses), len(branches)
        pos = {b["id"]: i for i, b in enumerate(buses)}
        alive = [0.0 if b["substation"] in dead else 1.0 for b in buses]
        P, O, D, TH, F = 0, nb, 2 * nb, 3 * nb, 4 * nb
        n = 4 * nb + ne
        lb, ub, c = np.zeros(n), np.zeros(n), np.zeros(n)
        for i, b in enumerate(buses):
            a = alive[i]
            lb[P + i], ub[P + i] = a * b.get("gen_min", 0.0), a * b.get("gen_max", 0.0)
            ub[O + i] = np.inf if a else 0.0
            ub[D + i] = a
            lb[TH + i], ub[TH + i] = (0.0, 0.0) if b.get("reference") else (-self.abs_max, self.abs_max)
            c[O + i] = 1.0
            c[D + i] = -b.get("load", 0.0)
        eq_rows, ub_rows = [], []
        for e, br in enumerate(branches):
            if alive[pos[br["from"]]] and alive[pos[br["to"]]]:
                lim = min(br["flow_limit"], abs(br["susceptance"]) * self.diff_max)
                lb[F + e], ub[F + e] = -lim, lim
                s = br["susceptance"]
                eq_rows.append({F + e: 1.0, TH + pos[br["from"]]: s, TH + pos[br["to"]]: -s})
        for i, b in enumerate(buses):
            row = {P + i: 1.0, O + i: -1.0, D + i: -b.get("load", 0.0)}
            for e, br in enumerate(branches):
                if br["to"] == b["id"]:
                    row[F + e] = row.get(F + e, 0.0) + 1.0
                if br["from"] == b["id"]:
                    row[F + e] = row.get(F + e, 0.0) - 1.0
            eq_rows.append(row)
            if alive[i]:
                ub_rows.append({O + i: 1.0, P + i: -1.0})

        def matrix(rows):
            data = [(k, j, v) for k, r in enumerate(rows) for j, v in r.items()]
            k, j, v = zip(*data)
            return sp.csr_matrix((v, (k, j)), shape=(len(rows), n))

        res = linprog(
            c,
            A_ub=matrix(ub_rows) if ub_rows else None,
            b_ub=np.zeros(len(ub_rows)) if ub_rows else None,
            A_eq=matrix(eq_rows),
            b_eq=np.zeros(len(eq_rows)),
            bounds=list(zip(lb, ub)),
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS LP: {res.message}")
        return float(res.fun + sum(b.get("load", 0.0) for b in buses))

    def expected_loss(self, levels: dict[str, int]) -> float:
        total = 0.0
        for s in self.scenarios:
            dead = frozenset(k for k, lvl in s["levels"].items() if levels.get(k, 0) < lvl)
            total += s["probability"] * self.loss(dead)
        return total


def main() -> int:
    from floodmit.extensive_form import build
    from floodmit.grid_model import network_from_dict
    from floodmit.heuristic import portfolio
    from floodmit.mitigation import Budget, CostSchedule
    from floodmit.scenario_model import scenario_set_from_dict

    out = {
        "command": COMMAND,
        "solvers": f"scipy {scipy.__version__} milp/linprog (HiGHS)",
        "r_hat": R_HAT,
        "workloads": {},
    }
    for w in workloads.WORKLOADS.values():
        t0 = time.perf_counter()
        net_doc, scen_doc = w.docs()
        network = network_from_dict(net_doc)
        scenarios = scenario_set_from_dict(scen_doc, network=network)
        schedule = CostSchedule.for_network(network)
        entry = {
            "input_digest": workloads.input_digest(net_doc, scen_doc),
            "instance": workloads.describe(net_doc, scen_doc),
            "r_hat": R_HAT,
        }
        budgets = range(w.budgets[0] + 1) if w.kind == "sweep" else w.budgets
        if w.kind == "sweep":
            objectives = []
            for f in budgets:
                ef = build(network, scenarios, schedule, Budget(f), R_HAT)
                objectives.append(highs_objective(ef.problem))
                print(f"{w.name} budget {f}: {objectives[-1]!r}", file=sys.stderr)
            entry["model"] = {k: ef.stats[k] for k in ("variables", "rows", "binaries")}
            entry["objectives"] = objectives
        else:
            oracle = DispatchOracle(net_doc, scen_doc)
            requests = {}
            for f in budgets:
                plans = portfolio(Budget(f), network, scenarios, schedule, R_HAT)
                ranked = sorted(
                    (oracle.expected_loss(p.levels), i, p) for i, p in enumerate(plans)
                )
                requests[str(f)] = {
                    "plans": [
                        {"levels": dict(sorted(p.levels.items())), "expected_loss": loss}
                        for loss, _, p in ranked
                    ]
                }
                print(f"{w.name} budget {f}: {len(plans)} plans", file=sys.stderr)
            entry["requests"] = requests
            entry["dispatch_lps"] = len(oracle.cache)
        entry["reference_seconds"] = round(time.perf_counter() - t0, 1)
        out["workloads"][w.name] = entry
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
