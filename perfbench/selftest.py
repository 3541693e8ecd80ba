"""Shows the correctness gate bites: doctored outputs must count as failures.

    python3 perfbench/selftest.py

``run.py`` also calls ``run()`` before every benchmark run and refuses to
measure if the gate lets a doctored output through.
"""

from __future__ import annotations

import copy
import sys

import check

VOLTAGE = {"A": "115_161", "B": "230", "C": "500"}
LOSSES = {(): 3.0, ("A",): 2.5, ("A", "B"): 2.0, ("B",): 2.6}
REF = {"r_hat": 3, "objectives": [3.0, 2.5, 2.5, 2.0]}


def _loss_of(levels):
    return LOSSES[tuple(sorted(k for k, v in levels.items() if v > 0))]


def _sweep_outputs():
    rows = [
        {"budget": "0", "status": "optimal", "objective": "3.0"},
        {"budget": "1", "status": "optimal", "objective": "2.5"},
        {"budget": "2", "status": "optimal", "objective": "2.5"},
        {"budget": "3", "status": "optimal", "objective": "2.0"},
    ]
    plans = {1: {"A": 1}, 2: {"A": 1}, 3: {"A": 1, "B": 1}}
    return rows, plans


def _cases():
    """(name, number of failed operations the gate must report)."""
    rows, plans = _sweep_outputs()
    yield "clean sweep", 0, check.check_sweep(rows, plans, REF, VOLTAGE, _loss_of)

    bad = copy.deepcopy(rows)
    bad[2]["objective"] = repr(2.5 * (1 + 1e-5))
    yield "perturbed sweep objective", 1, check.check_sweep(bad, plans, REF, VOLTAGE, _loss_of)

    yield "missing sweep row", 1, check.check_sweep(
        rows[:1] + rows[2:], plans, REF, VOLTAGE, _loss_of
    )

    over = {**plans, 2: {"A": 2}}  # level 2 at A costs 3 segments > budget 2
    yield "over-budget sweep plan", 1, check.check_sweep(rows, over, REF, VOLTAGE, _loss_of)

    rising = copy.deepcopy(rows)
    rising[3]["objective"] = "2.6"
    yield "non-monotone sweep", 1, check.check_sweep(
        rising, {**plans, 3: {"B": 1}}, dict(REF, objectives=[3.0, 2.5, 2.5, 2.6]),
        VOLTAGE, _loss_of,
    )

    ref_plans = {"r_hat": 3, "plans": [
        {"levels": {"A": 1}, "expected_loss": 2.5},
        {"levels": {"B": 1}, "expected_loss": 2.6},
    ]}
    listing = {"plans": [dict(p) for p in ref_plans["plans"]]}
    yield "clean portfolio", 0, check.check_portfolio(2, listing, ref_plans, VOLTAGE, _loss_of)
    moved = copy.deepcopy(listing)
    moved["plans"][1]["expected_loss"] = 2.7
    yield "perturbed portfolio loss", 1, check.check_portfolio(2, moved, ref_plans, VOLTAGE, _loss_of)
    yield "missing portfolio envelope", 2, check.check_portfolio(2, None, ref_plans, VOLTAGE, _loss_of)


def run() -> list[str]:
    """Names of the cases where the gate did not report what it must."""
    return [name for name, want, failures in _cases() if len(failures) != want]


if __name__ == "__main__":
    missed = run()
    for name in missed:
        print(f"gate self-test FAILED: {name}")
    if not missed:
        print("gate self-test passed")
    sys.exit(1 if missed else 0)
