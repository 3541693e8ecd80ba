import numpy as np
import pytest

from floodmit.milp import MilpProblem, ProblemBuilder, with_no_good_cut, write_lp_text
from floodmit.solver import (
    BnbConfig,
    SolverError,
    WarmStartPlan,
    check_uniqueness,
    solve_lp,
    solve_milp,
)


def knapsack_problem(capacity, values=(3.0, 5.0, 1.0), weights=(4.0, 8.0, 3.0)):
    """Maximize value within capacity, expressed as a minimization."""
    pb = ProblemBuilder(f"knapsack_{capacity}")
    idxs = []
    for i, v in enumerate(values):
        j = pb.add_variable(f"w{i + 1}", 0, 1, binary=True, meta=("w", i + 1))
        pb.add_objective_term(j, -v)
        idxs.append(j)
    pb.add_row("cap", [(j, weights[i]) for i, j in enumerate(idxs)], "L", capacity)
    return pb.build()


def _selection(sol, n=3):
    return tuple(int(round(sol.values[f"w{i + 1}"])) for i in range(n))


def test_knapsack_capacity_7():
    sol = solve_milp(knapsack_problem(7))
    assert sol.status == "optimal"
    assert _selection(sol) == (1, 0, 1)
    assert -sol.objective == pytest.approx(4.0, abs=1e-12)


def test_knapsack_capacity_8_every_decision_flips():
    sol = solve_milp(knapsack_problem(8))
    assert sol.status == "optimal"
    assert _selection(sol) == (0, 1, 0)
    assert -sol.objective == pytest.approx(5.0, abs=1e-12)


def test_bound_meets_incumbent_at_optimal():
    sol = solve_milp(knapsack_problem(7))
    assert sol.objective >= sol.bound - 1e-12


def test_lp_relaxation_of_milp():
    lp = solve_lp(knapsack_problem(7))
    assert lp.status == "optimal"
    assert lp.objective <= -4.0 + 1e-9  # relaxation bounds the integer optimum
    assert abs(lp.objective - lp.dual_objective) <= 1e-6


def test_infeasible_milp():
    pb = ProblemBuilder("inf")
    j = pb.add_variable("w", 0, 1, binary=True)
    pb.add_row("lo", [(j, 1.0)], "G", 2.0)
    sol = solve_milp(pb.build())
    assert sol.status == "infeasible"


def test_determinism_nodes_and_incumbent():
    runs = [solve_milp(knapsack_problem(7)) for _ in range(3)]
    assert len({r.nodes_explored for r in runs}) == 1
    assert len({r.objective for r in runs}) == 1
    assert len({tuple(sorted(r.values.items())) for r in runs}) == 1


def test_warm_start_seeds_incumbent():
    prob = knapsack_problem(7)
    ws = WarmStartPlan({"w1": 1, "w2": 0, "w3": 1}, objective=-4.0, label="known")
    sol = solve_milp(prob, BnbConfig(warm_starts=[ws]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-4.0, abs=1e-12)


def test_warm_start_completion_without_objective():
    prob = knapsack_problem(7)
    ws = WarmStartPlan({"w1": 1, "w2": 0, "w3": 0})
    sol = solve_milp(prob, BnbConfig(warm_starts=[ws]))
    assert sol.status == "optimal"
    assert _selection(sol) == (1, 0, 1)  # completion never blocks the optimum


def test_infeasible_warm_start_rejected():
    prob = knapsack_problem(7)
    ws = WarmStartPlan({"w1": 1, "w2": 1, "w3": 1}, objective=-9.0, label="liar")
    sol = solve_milp(prob, BnbConfig(warm_starts=[ws]))
    # The overweight assignment is dropped, not trusted.
    assert _selection(sol) == (1, 0, 1)
    assert -sol.objective == pytest.approx(4.0)


def test_node_limit_and_stop_reason():
    sol = solve_milp(knapsack_problem(7), BnbConfig(node_limit=0))
    assert sol.status in ("node-limit", "infeasible")
    assert sol.stop_reason == "nodes"


def test_gap_limit_status():
    prob = knapsack_problem(7)
    ws = WarmStartPlan({"w1": 1, "w2": 0, "w3": 1}, objective=-4.0)
    sol = solve_milp(prob, BnbConfig(abs_gap=10.0, warm_starts=[ws]))
    assert sol.status in ("gap-limit", "optimal")
    if sol.status == "gap-limit":
        assert sol.objective - sol.bound <= 10.0


def test_check_uniqueness_unique_case():
    prob = knapsack_problem(7)
    unique, witness = check_uniqueness(prob, {"w1": 1, "w2": 0, "w3": 1}, -4.0)
    assert unique and witness is None


def test_check_uniqueness_non_unique_case():
    # Two identical items, room for exactly one: either choice is optimal.
    prob = knapsack_problem(4, values=(2.0, 2.0), weights=(3.0, 3.0))
    sol = solve_milp(prob)
    pick = {name: int(round(sol.values[name])) for name in ("w1", "w2")}
    unique, witness = check_uniqueness(prob, pick, sol.objective)
    assert not unique
    assert witness is not None and witness != pick


def test_check_uniqueness_zero_budget_singleton():
    prob = knapsack_problem(0)
    sol = solve_milp(prob)
    assert sol.objective == pytest.approx(0.0)
    unique, witness = check_uniqueness(prob, {"w1": 0, "w2": 0, "w3": 0}, 0.0)
    assert unique and witness is None


def test_no_good_cut_of_zero_assignment_forbids_only_zero():
    prob = knapsack_problem(7)
    cut = with_no_good_cut(prob, {"w1": 0, "w2": 0, "w3": 0})
    sol = solve_milp(cut)
    assert sol.status == "optimal"
    assert sum(_selection(sol)) >= 1
    assert -sol.objective == pytest.approx(4.0)  # true optimum unaffected


def test_randomized_milp_against_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        values = np.round(rng.uniform(0.5, 5.0, n), 2)
        pb = ProblemBuilder("rand")
        for i in range(n):
            j = pb.add_variable(f"w{i + 1}", 0, 1, binary=True)
            pb.add_objective_term(j, -float(values[i]))
        W = np.round(rng.uniform(0.5, 4.0, (m, n)), 2)
        caps = np.round(rng.uniform(1.0, 0.6 * W.sum(axis=1)), 2)
        for r in range(m):
            pb.add_row(f"cap{r}", [(i, float(W[r, i])) for i in range(n)], "L", float(caps[r]))
        prob = pb.build()
        sol = solve_milp(prob)

        best = np.inf
        for mask in range(2**n):
            w = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
            if np.all(W @ w <= caps + 1e-12):
                best = min(best, float(-values @ w))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(best, abs=1e-9)


def test_milp_with_no_binaries_is_an_lp():
    pb = ProblemBuilder("cont")
    x = pb.add_variable("x", 0, 2.0)
    pb.add_objective_term(x, -1.0)
    pb.add_row("r", [(x, 1.0)], "L", 1.5)
    sol = solve_milp(pb.build())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.5)
    assert sol.nodes_explored == 1


def test_lp_export_is_deterministic_and_complete():
    prob = knapsack_problem(7)
    text = write_lp_text(prob)
    assert text == write_lp_text(knapsack_problem(7))
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text
    assert "cap:" in text and "w1" in text
