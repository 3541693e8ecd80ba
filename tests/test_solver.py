import itertools

import numpy as np
import pytest

from floodmit.milp import ProblemBuilder, sanitize_name, with_no_good_cut, write_lp_text
from floodmit.solver import (
    BnbConfig,
    SolverError,
    WarmStarts,
    _warm_starts_feasible,
    check_uniqueness,
    milp_workspace,
    solve_lp,
    solve_milp,
)

ALL3 = np.arange(3)


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


def _selection(sol):
    return tuple(int(v) for v in sol.x)


def _warm(*plans):
    """Warm starts over w1..w3 from (values, objective) pairs."""
    values, objectives = zip(*plans)
    return WarmStarts(ALL3, np.array(values, dtype=float), np.array(objectives))


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
    assert len({tuple(r.x) for r in runs}) == 1


def test_warm_start_seeds_incumbent():
    prob = knapsack_problem(7)
    sol = solve_milp(prob, BnbConfig(warm_starts=_warm(([1, 0, 1], -4.0))))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-4.0, abs=1e-12)
    assert _selection(sol) == (1, 0, 1)


def test_infeasible_warm_start_rejected():
    prob = knapsack_problem(7)
    sol = solve_milp(prob, BnbConfig(warm_starts=_warm(([1, 1, 1], -9.0))))
    # The overweight assignment is dropped, not trusted.
    assert _selection(sol) == (1, 0, 1)
    assert -sol.objective == pytest.approx(4.0)


@pytest.mark.parametrize(
    "plan, claimed, worth",
    [([1, 0, 1], -9.0, -4.0), ([1, 0, 0], -4.5, -3.0)],
    ids=["optimal-plan-overclaimed", "suboptimal-plan-overclaimed"],
)
def test_feasible_warm_start_with_understated_objective_is_refused(plan, claimed, worth):
    """A feasible plan claiming less than it is worth would prune the true
    optimum (-4 at (1, 0, 1)); rebuilding its values exposes the claim."""
    with pytest.raises(SolverError, match=f"claimed objective {claimed:g} .* worth at least {worth:g}"):
        solve_milp(knapsack_problem(7), BnbConfig(warm_starts=_warm((plan, claimed))))


def test_warm_start_pool_keeps_the_first_of_equal_objectives():
    """The pool is read in order: a later candidate replaces the incumbent
    only when it is lower by more than 1e-12."""
    prob = knapsack_problem(7)
    tie = _warm(([0, 0, 0], 0.0), ([1, 0, 1], -4.0), ([1, 0, 1], -4.0 - 1e-13))
    sol = solve_milp(prob, BnbConfig(warm_starts=tie))
    assert (_selection(sol), sol.objective) == ((1, 0, 1), -4.0)
    assert len(tie) == 3 and len(WarmStarts()) == 0


def test_node_limit_and_stop_reason():
    sol = solve_milp(knapsack_problem(7), BnbConfig(node_limit=0))
    assert sol.status in ("node-limit", "infeasible")
    assert sol.stop_reason == "nodes"


def test_check_uniqueness_unique_case():
    prob = knapsack_problem(7)
    unique, witness = check_uniqueness(prob, ALL3, [1, 0, 1], -4.0)
    assert unique and witness is None


def test_check_uniqueness_non_unique_case():
    # Two identical items, room for exactly one: either choice is optimal.
    prob = knapsack_problem(4, values=(2.0, 2.0), weights=(3.0, 3.0))
    sol = solve_milp(prob)
    unique, witness = check_uniqueness(prob, np.arange(2), sol.x, sol.objective)
    assert not unique
    assert witness is not None and sorted(witness) == [0.0, 1.0]
    assert tuple(witness) != tuple(sol.x)


def test_check_uniqueness_zero_budget_singleton():
    prob = knapsack_problem(0)
    sol = solve_milp(prob)
    assert sol.objective == pytest.approx(0.0)
    unique, witness = check_uniqueness(prob, ALL3, [0, 0, 0], 0.0)
    assert unique and witness is None


def test_no_good_cut_of_zero_assignment_forbids_only_zero():
    prob = knapsack_problem(7)
    cut = with_no_good_cut(prob, ALL3, [0, 0, 0])
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


def test_sanitized_ids_join_into_distinct_names():
    """Alphanumeric ids keep their text, distinct ids give distinct names, and
    so do pairs of ids joined with ``_`` as the model names them (an escape
    opens with two underscores, a separator is one)."""
    assert sanitize_name("S1") == "S1"
    ids = ["".join(p) for n in range(1, 4) for p in itertools.product("a2d-_", repeat=n)]
    assert len({sanitize_name(i) for i in ids}) == len(ids)
    joined = {f"z_{sanitize_name(t)}_{sanitize_name(u)}" for t in ids for u in ids}
    assert len(joined) == len(ids) ** 2


def test_transforms_leave_the_parent_unchanged():
    prob = knapsack_problem(7)
    A_before, b_before = prob.A.toarray(), prob.b.copy()
    loose = prob.with_rhs("cap", 8.0)
    cut = with_no_good_cut(prob, ALL3, [0, 1, 0])
    assert loose.A is prob.A
    assert (loose.b[0], prob.b[0]) == (8.0, 7.0)
    assert cut.n_rows == prob.n_rows + 1 == 2
    np.testing.assert_array_equal(cut.A[:-1].toarray(), A_before)
    np.testing.assert_array_equal(cut.A[-1].toarray(), [[1.0, 0.0, 1.0]])
    assert (cut.senses[-1], cut.b[-1]) == ("G", 1.0)
    for derived in (loose, cut):
        assert derived.lb is prob.lb and derived.ub is prob.ub
        assert derived.objective is prob.objective
    np.testing.assert_array_equal(prob.A.toarray(), A_before)
    np.testing.assert_array_equal(prob.b, b_before)
    assert prob.row_names == ("cap",) and prob.senses == ("L",)
    with pytest.raises(KeyError):
        prob.with_rhs("nope", 1.0)


def _reference_feasible(lb, ub, rows, assignment, tol=1e-9):
    """Row-by-row warm-start check over the rows as they were declared."""
    for i, val in assignment.items():
        if val < lb[i] - tol or val > ub[i] + tol:
            return False
    for terms, sense, rhs in rows:
        if not all(i in assignment for i, _ in terms):
            continue
        act = sum(assignment[i] * c for i, c in terms)
        if (
            (sense == "L" and act > rhs + tol)
            or (sense == "G" and act < rhs - tol)
            or (sense == "E" and abs(act - rhs) > tol)
        ):
            return False
    return True


def test_warm_start_check_matches_row_by_row_reference():
    """Pools of several candidates over one random column set get the
    verdicts of the row-by-row check, candidate by candidate."""
    rng = np.random.default_rng(17)
    outcomes, seen = set(), set()
    for _ in range(300):
        n = int(rng.integers(1, 7))
        pb = ProblemBuilder("rand")
        lb = rng.integers(-1, 1, n).astype(float)
        ub = lb + rng.integers(0, 3, n)
        for i in range(n):
            pb.add_variable(f"v{i}", lb[i], ub[i], binary=bool(rng.random() < 0.5))
        point = rng.integers(-1, 3, n)
        rows = []
        for r in range(int(rng.integers(1, 6))):
            cols = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            terms = [(int(i), float(rng.choice([-2, -1, 1, 3]))) for i in cols]
            sense = str(rng.choice(["L", "G", "E"]))
            rhs = sum(point[i] * c for i, c in terms) + float(rng.integers(-1, 2))
            pb.add_row(f"r{r}", terms, sense, rhs)
            rows.append((terms, sense, rhs))
            seen.add(sense if terms else "empty")
        prob = pb.build()
        columns = rng.permutation(np.flatnonzero(rng.random(n) < 0.7))
        if len(columns) < n:
            seen.add("partial")
        # The first candidate sits at the rows' anchor point, the others nearby.
        k = int(rng.integers(1, 5))
        values = point[columns] + np.vstack(
            [np.zeros(len(columns), int)] + [rng.integers(-1, 2, len(columns)) for _ in range(k - 1)]
        )
        expected = []
        for row in values:
            assignment = dict(zip(columns.tolist(), row.tolist()))
            if any(not lb[i] <= v <= ub[i] for i, v in assignment.items()):
                seen.add("bounds")
            expected.append(_reference_feasible(lb, ub, rows, assignment))
        starts = WarmStarts(columns, values.astype(float), np.zeros(k))
        assert _warm_starts_feasible(prob, starts).tolist() == expected, (rows, columns, values)
        outcomes.update(expected)
        if k > 1 and len(set(expected)) > 1:
            seen.add("mixed pool")
    assert outcomes == {True, False}  # both verdicts exercised
    assert seen == {"L", "G", "E", "empty", "bounds", "partial", "mixed pool"}


def test_shared_workspace_solves_budget_variants_like_their_own_and_refuses_other_matrices():
    """``with_rhs`` keeps the matrix, so one workspace serves every budget
    with the same answer, node count and pivots as a workspace of its own;
    a no-good cut makes another matrix, and a workspace of the same shape
    over different costs is refused too."""
    base = knapsack_problem(7)
    ws = milp_workspace(base)
    root_basis = None
    for cap in (7.0, 8.0, 11.0, 3.0):
        prob = base.with_rhs("cap", cap)
        shared = solve_milp(prob, BnbConfig(root_warm_basis=root_basis), workspace=ws)
        own = solve_milp(prob, BnbConfig(root_warm_basis=root_basis))
        for attr in ("status", "objective", "nodes_explored", "lp_iterations"):
            assert getattr(shared, attr) == getattr(own, attr), (cap, attr)
        np.testing.assert_array_equal(shared.x, own.x)
        assert (shared.counters.workspaces, own.counters.workspaces) == (0, 1)
        assert shared.counters.pivots == shared.lp_iterations
        root_basis = shared.root_basis
    with pytest.raises(ValueError, match="workspace"):
        solve_milp(with_no_good_cut(base, ALL3, [1, 0, 1]), None, workspace=ws)
    with pytest.raises(ValueError, match="workspace"):
        solve_milp(knapsack_problem(7, values=(3.0, 5.0, 2.0)), workspace=ws)
