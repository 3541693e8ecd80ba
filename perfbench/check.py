"""Correctness gate: CLI outputs against stored HiGHS reference values.

Pure functions over parsed outputs, so ``selftest.py`` can feed them
doctored outputs.  Each returns ``{operation id: [reasons]}`` for the
operations that failed; an operation is a sweep budget row or one portfolio
plan.  Plan costs are recomputed here from the paper's cost
rule instead of trusting the program's ``plan_cost``.
"""

from __future__ import annotations

REL_TOL = 1e-6

# Segments per ring by substation voltage class; reaching level t costs
# base * t * (t + 1) / 2 segments.
BASE_UNITS = {"115_161": 1, "230": 2, "500": 3}


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def plan_cost(levels: dict[str, int], voltage: dict[str, str]) -> int:
    return sum(BASE_UNITS[voltage[s]] * t * (t + 1) // 2 for s, t in levels.items())


def _plan_failures(levels, budget, objective, voltage, r_hat, loss_of) -> list[str]:
    bad = []
    if any(s not in voltage for s in levels):
        return [f"plan names unknown substations {sorted(set(levels) - set(voltage))}"]
    if any(not 0 <= t < r_hat for t in levels.values()):
        bad.append(f"plan levels outside 0..{r_hat - 1}: {levels}")
    cost = plan_cost(levels, voltage)
    if cost > budget:
        bad.append(f"plan cost {cost} exceeds budget {budget}")
    loss = loss_of(levels)
    if not close(loss, objective):
        bad.append(f"eval expected loss {loss!r} != reported objective {objective!r}")
    return bad


def check_sweep(rows: list[dict], plans: dict[int, dict[str, int]], ref: dict, voltage, loss_of) -> dict:
    """``rows``: objectives.csv as dicts; ``plans``: plans.csv by budget."""
    failures: dict[str, list[str]] = {}
    by_budget = {}
    for row in rows:
        by_budget[int(row["budget"])] = row
    prev = None
    for budget, ref_obj in enumerate(ref["objectives"]):
        op = f"budget-{budget}"
        row = by_budget.get(budget)
        if row is None:
            failures[op] = ["row missing"]
            prev = None
            continue
        if row["status"] != "optimal" or row["objective"] == "":
            failures[op] = [f"status {row['status']!r}"]
            prev = None
            continue
        obj = float(row["objective"])
        bad = []
        if not close(obj, ref_obj):
            bad.append(f"objective {obj!r} != HiGHS {ref_obj!r}")
        if prev is not None and obj > prev + REL_TOL * max(1.0, abs(prev)):
            bad.append(f"objective {obj!r} above budget {budget - 1}'s {prev!r}")
        bad += _plan_failures(plans.get(budget, {}), budget, obj, voltage, ref["r_hat"], loss_of)
        if bad:
            failures[op] = bad
        prev = obj
    extra = sorted(set(by_budget) - set(range(len(ref["objectives"]))))
    if extra:
        failures["extra-rows"] = [f"unexpected budgets {extra}"]
    return failures


def check_portfolio(budget: int, result: dict | None, ref: dict, voltage, loss_of) -> dict:
    """One request: ``ref`` holds the reference plans in rank order with
    their linprog expected losses."""
    ref_plans = ref["plans"]
    ops = [f"portfolio-{budget}/{rank}" for rank in range(len(ref_plans))]
    if result is None:
        return {op: ["no result envelope"] for op in ops}
    listing = result["plans"]
    if len(listing) != len(ref_plans):
        return {op: [f"{len(listing)} plans, reference has {len(ref_plans)}"] for op in ops}
    failures = {}
    for op, got, want in zip(ops, listing, ref_plans):
        bad = []
        if got["levels"] != want["levels"]:
            bad.append(f"plan {got['levels']} != reference {want['levels']}")
        if not close(got["expected_loss"], want["expected_loss"]):
            bad.append(f"expected loss {got['expected_loss']!r} != linprog {want['expected_loss']!r}")
        bad += _plan_failures(
            got["levels"], budget, got["expected_loss"], voltage, ref["r_hat"], loss_of
        )
        if bad:
            failures[op] = bad
    return failures
