"""LP engine checks against independent oracles.

scipy.optimize.linprog (HiGHS) serves as the cross-check oracle for the
randomized battery; the dispatch fixture is verified against direct vertex
enumeration instead.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from floodmit.simplex import BasisState, Workspace, _basis_matrix, solve_linear_program

DUAL_TOL = 1e-6


def _solve(c, A, senses, b, lb, ub, **kw):
    return solve_linear_program(np.asarray(c, float), sp.csc_matrix(np.atleast_2d(A)), senses, np.asarray(b, float), np.asarray(lb, float), np.asarray(ub, float), **kw)


def _scipy_solve(c, A, senses, b, lb, ub):
    A = np.atleast_2d(A)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(senses):
        if s == "L":
            A_ub.append(A[i]); b_ub.append(b[i])
        elif s == "G":
            A_ub.append(-A[i]); b_ub.append(-b[i])
        else:
            A_eq.append(A[i]); b_eq.append(b[i])
    return linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )


def test_simple_maximization_via_negation():
    # min -x s.t. x <= 1, x >= 0
    res = _solve([-1.0], [[1.0]], ["L"], [1.0], [0.0], [np.inf])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_pair():
    res = _solve([1.0], [[1.0], [1.0]], ["G", "L"], [1.0, 0.0], [-np.inf], [np.inf])
    assert res.status == "infeasible"
    assert res.infeasibility > 0


def test_unbounded():
    res = _solve([-1.0], [[0.0]], ["L"], [1.0], [0.0], [np.inf])
    assert res.status == "unbounded"


def test_duality_certificate_and_residual():
    res = _solve(
        [1.0, 2.0, -1.0],
        [[1, 1, 1], [1, -1, 0]],
        ["E", "L"],
        [2.0, 0.5],
        [0, 0, 0],
        [2, 2, 2],
    )
    assert res.status == "optimal"
    assert abs(res.objective - res.dual_objective) <= DUAL_TOL
    assert res.primal_residual < 1e-8


def test_degenerate_cycling_guard():
    # Classic cycling-prone instance; anti-cycling must still terminate.
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    senses = ["L", "L", "L"]
    b = [0.0, 0.0, 1.0]
    res = _solve(c, A, senses, b, [0.0] * 4, [np.inf] * 4)
    ref = _scipy_solve(c, A, senses, b, [0.0] * 4, [np.inf] * 4)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-8)


def _vertex_enumeration_optimum(c, A_eq, b_eq, lb, ub):
    """Brute-force LP oracle: scan basic solutions of [A | I-slacks] = b."""
    m, n = A_eq.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        B = A_eq[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        # Nonbasic variables pinned at each bound combination.
        nonbasic = [j for j in range(n) if j not in cols]
        for corners in itertools.product(*[(lb[j], ub[j]) for j in nonbasic]):
            if any(np.isinf(v) for v in corners):
                continue
            x = np.zeros(n)
            for j, v in zip(nonbasic, corners):
                x[j] = v
            rhs = b_eq - A_eq[:, nonbasic] @ np.array(corners)
            xb = np.linalg.solve(B, rhs)
            x[list(cols)] = xb
            if np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9):
                val = float(c @ x)
                if best is None or val < best - 1e-12:
                    best = val
    return best


def test_two_bus_dispatch_matches_vertex_enumeration():
    # Variables: generation, overgen, served fraction, angle, flow.
    # One generator (cap 2) feeds a unit load across a 1.5-capacity line.
    # Rows: node balances and Ohm's law with susceptance -10.
    c = np.array([0.0, 1.0, -1.0, 0.0, 0.0])
    A = np.array(
        [
            [1.0, -1.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, -1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 10.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 0.0])
    lb = np.array([0.0, 0.0, 0.0, -np.pi / 2, -1.5])
    ub = np.array([2.0, 2.0, 1.0, np.pi / 2, 1.5])
    oracle = _vertex_enumeration_optimum(c, A, b, lb, ub)
    res = _solve(c, A, ["E", "E", "E"], b, lb, ub)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(oracle, abs=1e-9)
    assert res.objective + 1.0 == pytest.approx(0.0, abs=1e-9)  # all load served


def test_randomized_battery_against_scipy():
    rng = np.random.default_rng(20240817)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(250):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 9))
        A = np.round(rng.normal(0, 1, (m, n)) * (rng.random((m, n)) < 0.7), 2)
        if np.abs(A).sum() == 0:
            A[0, 0] = 1.0
        c = np.round(rng.normal(0, 1, n), 2)
        b = np.round(rng.normal(0, 2, m), 2)
        senses = [str(s) for s in rng.choice(["L", "G", "E"], m)]
        lb = np.where(rng.random(n) < 0.85, np.round(rng.uniform(-3, 0, n), 2), -np.inf)
        ub = np.where(rng.random(n) < 0.85, np.round(rng.uniform(0, 3, n), 2), np.inf)
        ub = np.maximum(ub, lb)

        mine = _solve(c, A, senses, b, lb, ub)
        ref = _scipy_solve(c, A, senses, b, lb, ub)
        expect = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert mine.status == expect, (mine.status, expect)
        statuses[expect] += 1
        if expect == "optimal":
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
            assert abs(mine.objective - mine.dual_objective) <= DUAL_TOL
            assert mine.primal_residual < 1e-8
    # The battery must actually exercise all three outcomes.
    assert min(statuses.values()) > 5, statuses


def test_warm_restart_after_rhs_and_bound_changes():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(60):
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        A = np.round(rng.normal(0, 1, (m, n)), 2)
        c = np.round(rng.normal(0, 1, n), 2)
        b = np.round(rng.normal(0, 2, m), 2)
        senses = [str(s) for s in rng.choice(["L", "G"], m)]
        lb, ub = np.zeros(n), np.full(n, 4.0)
        ws = Workspace(c, sp.csc_matrix(A), senses, b, lb, ub)
        first = solve_linear_program(workspace=ws)
        if first.status != "optimal":
            continue
        hits += 1
        b2 = b + np.round(rng.normal(0, 0.6, m), 2)
        lb2, ub2 = lb.copy(), ub.copy()
        j = int(rng.integers(0, n))
        lb2[j] = ub2[j] = float(rng.integers(0, 2))
        # A fresh workspace with the new right-hand side: the carried LU is
        # not adopted across workspaces, so the basis is factorized again.
        ws = Workspace(c, sp.csc_matrix(A), senses, b2, lb, ub)
        ws.set_bounds(lb2, ub2)
        warm = solve_linear_program(workspace=ws, warm=first.basis_state)
        cold = _solve(c, A, senses, b2, lb2, ub2)
        assert warm.status == cold.status
        if cold.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            assert abs(warm.objective - warm.dual_objective) <= DUAL_TOL
    assert hits > 20


FLIPPED = {"L": "G", "G": "L", "E": "E"}
LINPROG_OUTCOME = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _degenerate_lp(rng):
    """A small LP built for degeneracy: integer data in -2..2 (so costs tie
    and vertices coincide), plus redundant rows, each a copy of a row scaled
    by 1, 1/2 or -1/2 (the sense flipped when negative)."""
    m, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
    A = (rng.integers(-2, 3, (m, n)) * (rng.random((m, n)) < 0.7)).astype(float)
    c = rng.integers(-2, 3, n).astype(float)
    b = rng.integers(-2, 3, m).astype(float)
    senses = [str(s) for s in rng.choice(["L", "G", "E"], m, p=[0.45, 0.35, 0.2])]
    rows, rhs = list(A), list(b)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, m))
        scale = float(rng.choice([1.0, 0.5, -0.5]))
        rows.append(A[i] * scale)
        rhs.append(b[i] * scale)
        senses.append(FLIPPED[senses[i]] if scale < 0 else senses[i])
    lb = np.where(rng.random(n) < 0.8, rng.integers(-2, 1, n), -np.inf)
    ub = np.where(rng.random(n) < 0.8, rng.integers(0, 3, n), np.inf)
    return c, np.array(rows), senses, np.array(rhs), lb, ub


def _assert_matches_linprog(mine, c, A, senses, b, lb, ub):
    ref = _scipy_solve(c, A, senses, b, lb, ub)
    expect = LINPROG_OUTCOME[ref.status]
    assert mine.status == expect, (mine.status, expect)
    if expect == "optimal":
        assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
        assert abs(mine.objective - mine.dual_objective) <= DUAL_TOL
        assert mine.primal_residual < 1e-8
    return expect


def test_degenerate_battery_against_scipy():
    """Cold solves of degenerate LPs, then warm re-solves of their children
    on one workspace, as branch and bound makes them: a variable fixed or
    branched on (a branch on an integral value crosses its bounds, which
    must read infeasible), or a right-hand side moved.  Every child starts
    from its parent's basis, and every optimal, infeasible and unbounded
    outcome must be HiGHS's."""
    rng = np.random.default_rng(2718)
    cold = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        lp = _degenerate_lp(rng)
        mine = _solve(*lp)
        cold[_assert_matches_linprog(mine, *lp)] += 1
    assert min(cold.values()) > 15, cold

    warm = {"optimal": 0, "infeasible": 0, "crossed": 0}
    for _ in range(120):
        c, A, senses, b, lb, ub = _degenerate_lp(rng)
        ws = Workspace(c, sp.csc_matrix(A), senses, b, lb, ub)
        parent = solve_linear_program(workspace=ws)
        if parent.status != "optimal":
            continue
        for _ in range(5):
            lb2, ub2, b2 = lb.copy(), ub.copy(), b.copy()
            j = int(rng.integers(0, len(c)))
            v = parent.x[j]
            kind = int(rng.integers(0, 3))
            if kind == 0:
                lb2[j] = ub2[j] = np.clip(np.round(v) + rng.integers(-1, 2), lb[j], ub[j])
            elif kind == 1 and rng.random() < 0.5:
                ub2[j] = np.ceil(v) - 1
            elif kind == 1:
                lb2[j] = np.floor(v) + 1
            else:
                b2[int(rng.integers(0, len(b)))] += float(rng.integers(-2, 3))
            ws.set_bounds(lb2, ub2)
            ws.set_rhs(b2)
            mine = solve_linear_program(workspace=ws, warm=parent.basis_state)
            warm[_assert_matches_linprog(mine, c, A, senses, b2, lb2, ub2)] += 1
            warm["crossed"] += int((lb2 > ub2).any())
        ws.set_bounds(lb, ub)
        ws.set_rhs(b)
    assert min(warm.values()) > 15, warm


def _warm_resolves(seed, count):
    """Warm re-solves of random LPs after a bound or right-hand-side change,
    most of them dual simplex runs: yields each solve's result."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(3, 9)), int(rng.integers(3, 10))
        A = np.round(rng.normal(0, 1, (m, n)), 2)
        c = np.round(rng.normal(0, 1, n), 2)
        b = np.round(rng.normal(0, 2, m), 2)
        senses = [str(s) for s in rng.choice(["L", "G", "E"], m, p=[0.45, 0.45, 0.1])]
        lb, ub = np.zeros(n), np.full(n, 4.0)
        ws = Workspace(c, sp.csc_matrix(A), senses, b, lb, ub)
        first = solve_linear_program(workspace=ws)
        if first.status != "optimal":
            continue
        for _ in range(3):
            lb2, ub2 = lb.copy(), ub.copy()
            j = int(rng.integers(0, n))
            lb2[j] = ub2[j] = float(np.clip(np.round(first.x[j]) + rng.choice([-1, 1]), 0, 4))
            ws.set_bounds(lb2, ub2)
            ws.set_rhs(b + np.round(rng.normal(0, 0.6, m), 2))
            yield solve_linear_program(workspace=ws, warm=first.basis_state)


def test_prices_updated_in_place_match_a_fresh_pricing(monkeypatch):
    """After every dual pivot, the prices the dual simplex updated in place
    (``y += theta*rho``, ``d -= theta*alpha``) equal the new basis's prices
    computed afresh within 1e-9."""
    from floodmit import simplex

    real_pivot = simplex._Solver._pivot
    checked = []

    def pivot(self, *args):
        real_pivot(self, *args)
        if self.priced is not None:  # updated in place, not refactorized
            costs, y, d = self.priced
            fresh = self.fact.btran(costs[self.basis].astype(float))
            assert np.abs(y - fresh).max() <= 1e-9
            assert np.abs(d - (costs - self.ws.At @ fresh)).max() <= 1e-9
            checked.append(self.iterations)

    monkeypatch.setattr(simplex._Solver, "_pivot", pivot)
    for _ in _warm_resolves(3, 150):
        pass
    assert len(checked) > 100


def test_the_gate_prices_the_final_basis_afresh(monkeypatch):
    """The reported row duals are a fresh ``btran`` of the final basis's
    costs, bit for bit, even after dual pivots that updated the prices in
    place."""
    from floodmit import simplex

    real_run = simplex._run
    solvers = []

    def run(solver, warm):
        solvers.append(solver)
        return real_run(solver, warm)

    monkeypatch.setattr(simplex, "_run", run)
    pivoted = 0
    for res in _warm_resolves(5, 150):
        if res.status != "optimal":
            continue
        final = solvers[-1]
        fresh = final.fact.btran(final.ws.c_ext[final.basis].astype(float))
        assert np.array_equal(res.row_duals, fresh)
        pivoted += res.iterations > 0
    assert pivoted > 50


def _forbidden_assignment_cases(count):
    """Assignment LPs (every basis highly degenerate) with bounds forbidding
    most of their optimal assignment, plus the optimal basis: a warm re-solve
    takes the dual path."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(count):
        k = int(rng.integers(4, 8))
        A = np.zeros((2 * k, k * k))
        for i in range(k):
            for j in range(k):
                A[i, i * k + j] = A[k + j, i * k + j] = 1.0
        c = rng.integers(0, 3, k * k).astype(float)
        b, senses = np.ones(2 * k), ["E"] * (2 * k)
        lb, ub = np.zeros(k * k), np.ones(k * k)
        first = _solve(c, A, senses, b, lb, ub)
        ub[np.flatnonzero(first.x > 0.5)[: k - 1]] = 0.0
        cases.append(((c, A, senses, b, lb, ub), first.basis_state))
    return cases


def test_dual_cycle_falls_back_to_cold_start(monkeypatch):
    # A dual pivot that leaves the basis as it was stands in for a cycle:
    # the repeated basis must end the warm run at once, and the cold start
    # must still reach the optimum.
    import sys

    import floodmit.simplex as simplex

    real_pivot = simplex._Solver._pivot
    stalled = []

    def pivot(self, *args):
        if sys._getframe(1).f_code.co_name == "run_dual":
            stalled.append(self.iterations)
            return
        real_pivot(self, *args)

    for lp, basis in _forbidden_assignment_cases(10):
        cold = _solve(*lp)
        with monkeypatch.context() as mp:
            mp.setattr(simplex._Solver, "_pivot", pivot)
            before = len(stalled)
            warm = _solve(*lp, warm=basis)
        assert len(stalled) - before <= 1
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert stalled


def test_tiny_dual_pivot_falls_back_to_cold_start(monkeypatch):
    # With every pivot element below the threshold the dual run stops before
    # its first pivot, so the re-solve is exactly the cold solve.
    import floodmit.simplex as simplex

    cases = _forbidden_assignment_cases(10)
    dual_pivots = sum(
        _solve(*lp, warm=basis).iterations != _solve(*lp).iterations for lp, basis in cases
    )
    assert dual_pivots > 0
    monkeypatch.setattr(simplex, "TOL_DUAL_PIVOT", np.inf)
    for lp, basis in cases:
        warm, cold = _solve(*lp, warm=basis), _solve(*lp)
        assert warm.status == cold.status == "optimal"
        assert (warm.objective, warm.iterations) == (cold.objective, cold.iterations)


def _count_cold_starts(mp):
    """Patch ``_Solver.cold_start`` to record each call; returns the record."""
    import floodmit.simplex as simplex

    real_cold_start = simplex._Solver.cold_start
    cold_starts = []

    def cold_start(self):
        cold_starts.append(self.iterations)
        return real_cold_start(self)

    mp.setattr(simplex._Solver, "cold_start", cold_start)
    return cold_starts


@pytest.mark.parametrize("y_max", [5.0, np.inf], ids=["boxed", "unboxed"])
def test_warm_basis_with_a_wrong_signed_reduced_cost_restarts_cold(monkeypatch, y_max):
    # min x - y  s.t.  x + y >= 1,  x + y <= 3,  x in [0, 1],  y in [0, y_max].
    # The warm basis holds both slacks with x and y at their lower bounds: it
    # violates row 1, and y's reduced cost -1 has the wrong sign at its lower
    # bound.  Boxed or not, the basis is neither primal nor dual feasible,
    # so the solve starts cold, once, and reaches the cold optimum.
    import floodmit.simplex as simplex

    lp = ([1.0, -1.0], [[1.0, 1.0], [1.0, 1.0]], ["G", "L"], [1.0, 3.0], [0.0, 0.0], [1.0, y_max])
    basis = BasisState(
        np.array([2, 3]),
        np.array([simplex.AT_LOWER, simplex.AT_LOWER, simplex.BASIC, simplex.BASIC,
                  simplex.AT_LOWER, simplex.AT_LOWER], dtype=np.int8),
    )
    cold = _solve(*lp)
    cold_starts = _count_cold_starts(monkeypatch)
    warm = _solve(*lp, warm=basis)
    assert cold.status == warm.status == "optimal"
    assert cold_starts == [0]
    assert (warm.objective, warm.iterations) == (cold.objective, cold.iterations)
    assert warm.objective == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize("y_max", [5.0, np.inf], ids=["boxed", "unboxed"])
def test_primal_feasible_warm_basis_runs_the_primal_simplex(monkeypatch, y_max):
    # The LP above, from both slacks basic with x at its upper bound: the
    # rows read 1 >= 1 and 1 <= 3, so the basis is primal feasible, while
    # y's reduced cost -1 at its lower bound makes it dual infeasible.  The
    # primal simplex runs from it, starts nothing cold and reaches the cold
    # optimum in no more pivots than the cold start takes.
    import floodmit.simplex as simplex

    lp = ([1.0, -1.0], [[1.0, 1.0], [1.0, 1.0]], ["G", "L"], [1.0, 3.0], [0.0, 0.0], [1.0, y_max])
    basis = BasisState(
        np.array([2, 3]),
        np.array([simplex.AT_UPPER, simplex.AT_LOWER, simplex.BASIC, simplex.BASIC,
                  simplex.AT_LOWER, simplex.AT_LOWER], dtype=np.int8),
    )
    cold = _solve(*lp)
    cold_starts = _count_cold_starts(monkeypatch)
    warm = _solve(*lp, warm=basis)
    assert cold.status == warm.status == "optimal"
    assert cold_starts == [] and not warm.cold_started and cold.cold_started
    assert warm.objective == cold.objective == pytest.approx(-3.0, abs=1e-12)
    assert warm.iterations <= cold.iterations


def test_cold_restart_gets_its_own_pivot_budget(monkeypatch):
    # A warm run that spends the whole max_iter budget must still leave the
    # cold restart a full budget: the LP reaches the cold optimum, and the
    # reported count covers both runs.
    import floodmit.simplex as simplex

    real_warm_start = simplex._Solver.warm_start

    def exhausting_warm_start(self, state):
        started = real_warm_start(self, state)
        self.iterations = self.max_iter
        return started

    for lp, basis in _forbidden_assignment_cases(5):
        cold = _solve(*lp)
        budget = cold.iterations + 5
        with monkeypatch.context() as mp:
            mp.setattr(simplex._Solver, "warm_start", exhausting_warm_start)
            warm = _solve(*lp, warm=basis, max_iter=budget)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == cold.objective
        assert warm.iterations == budget + cold.iterations


def test_slack_bounds_follow_row_senses():
    ws = Workspace([1.0, 1.0], sp.csc_matrix(np.ones((3, 2))), ["L", "G", "E"], [1.0, 1.0, 1.0],
                   [0.0, -1.0], [2.0, 3.0])
    ws.set_bounds(np.array([0.5, -2.0]), np.array([1.5, 4.0]))
    assert ws.lo.tolist() == [0.5, -2.0, 0.0, -np.inf, 0.0, 0.0, 0.0, 0.0]
    assert ws.hi.tolist() == [1.5, 4.0, np.inf, 0.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="unknown row sense 'N'"):
        Workspace([1.0], sp.csc_matrix(np.ones((2, 1))), ["L", "N"], [1.0, 1.0], [0.0], [1.0])


def test_fixed_variable_contributes_to_dual_objective():
    # Pinning x at 1 forces dual pricing of the pinned value.
    res = _solve([3.0, 1.0], [[1.0, 1.0]], ["G"], [2.0], [1.0, 0.0], [1.0, 5.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(4.0, abs=1e-9)
    assert abs(res.objective - res.dual_objective) <= DUAL_TOL


def test_row_dual_is_rhs_sensitivity():
    # min x : x >= b has optimum b, dual d(obj)/d(b) = 1.
    res = _solve([1.0], [[1.0]], ["G"], [2.0], [0.0], [np.inf])
    bumped = _solve([1.0], [[1.0]], ["G"], [2.5], [0.0], [np.inf])
    assert res.row_duals[0] == pytest.approx(
        (bumped.objective - res.objective) / 0.5, abs=1e-9
    )


def test_no_rows_edge_case():
    res = _solve(np.array([1.0, -2.0]), np.zeros((0, 2)), [], np.zeros(0), [0.0, 0.0], [3.0, 3.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-6.0)


@pytest.mark.parametrize("c, A", [([np.nan, 1], [[1, 1]]), ([1, 1], [[np.nan, 1]])], ids=["nan-cost", "nan-matrix"])
def test_gate_refuses_a_nan_objective_or_residual(c, A):
    """Every comparison with NaN is false, so a gate that fails only a gap or
    residual above its tolerance would report a NaN cost (objective NaN) or
    a NaN matrix entry (residual NaN) as optimal."""
    assert _solve(c, A, "G", [1], [0, 0], [1, 1]).status == "numerical-error"


@pytest.mark.parametrize("tol", ["DUALITY_TOL", "RESIDUAL_TOL"])
def test_gate_failure_surfaces_on_every_lp_path(monkeypatch, tol):
    """A claimed optimum that fails the one verification gate never passes silently."""
    from floodmit import geo_remap, simplex
    from floodmit.geo_remap import LabeledPoint, PointSet
    from floodmit.grid_model import Branch, Bus, GridNetwork, Substation
    from floodmit.milp import ProblemBuilder
    from floodmit.recourse import LossWeights, solve_recourse_lp
    from floodmit.solver import SolverError, solve_lp, solve_milp

    pb = ProblemBuilder("gate")
    for i, (value, weight) in enumerate(((3.0, 4.0), (5.0, 8.0), (1.0, 3.0))):
        pb.add_variable(f"w{i}", 0, 1, binary=True)
        pb.add_objective_term(i, -value)
    pb.add_row("cap", [(0, 4.0), (1, 8.0), (2, 3.0)], "L", 7.0)
    problem = pb.build()
    network = GridNetwork(
        buses=(
            Bus("A", "SA", p_gen_max=2.0, is_reference=True),
            Bus("B", "SB", p_load=1.0),
        ),
        branches=(Branch("AB", "A", "B", susceptance=-10.0, flow_limit=1.5),),
        substations=(Substation("SA", "115_161"), Substation("SB", "115_161")),
    )
    statuses = (np.ones(2, dtype=bool), np.ones(1, dtype=bool))  # all up
    points = PointSet((LabeledPoint("p0", -95.0, 29.0), LabeledPoint("p1", -94.0, 30.0)))

    # The same LP solves optimally with the gate at its real tolerance.
    assert _solve([1, 1], [[1, 1]], "G", [1], [0, 0], [1, 1]).status == "optimal"

    monkeypatch.setattr(simplex, tol, -1.0)
    assert _solve([1, 1], [[1, 1]], "G", [1], [0, 0], [1, 1]).status == "numerical-error"
    assert solve_lp(problem).status == "numerical-error"
    with pytest.raises(SolverError):
        solve_milp(problem)
    with pytest.raises(RuntimeError, match="numerical-error"):
        solve_recourse_lp(network, statuses, LossWeights())
    with pytest.raises(RuntimeError, match="numerical-error"):
        geo_remap.remap(points, points)


def test_basis_matrix_equals_scipy_column_indexing():
    """The basis matrix assembled from the index arrays is exactly
    ``A[:, basis]``, empty and repeated columns included."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        keep = np.ones(n)
        keep[rng.integers(0, n, size=2)] = 0.0  # some empty columns whatever the density
        A = sp.random(m, n, density=float(rng.uniform(0.0, 0.6)), format="csc", random_state=rng)
        A = (A @ sp.diags(keep)).tocsc()
        A.eliminate_zeros()
        basis = rng.integers(0, n, size=m).astype(np.int64)
        got, want = _basis_matrix(A, basis), A[:, basis].tocsc()
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))


# -- the LU a reported basis carries ------------------------------------------


def _assert_bitwise_same(a, b):
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert a.objective == b.objective
    for attr in ("x", "row_duals"):
        va, vb = getattr(a, attr), getattr(b, attr)
        assert (va is None) == (vb is None)
        assert va is None or np.array_equal(va, vb), attr


def _warm_with_and_without_lu(ws, state):
    """Warm-start ``ws`` from ``state`` as carried and from the same basis
    and statuses with the LU stripped; the two solves must agree bit for
    bit.  A state found on ``ws`` holds an LU after its first warm start
    there: the one it held, or else the one that start made; a warm start
    on another workspace leaves it as it was.  Returns the carried solve."""
    stored = state.lu
    carried = solve_linear_program(workspace=ws, warm=state)
    stripped = solve_linear_program(workspace=ws, warm=BasisState(state.basis, state.status))
    _assert_bitwise_same(carried, stripped)
    assert not stripped.lu_reused
    reusable = state.workspace is ws
    assert carried.lu_reused == (reusable and stored is not None)
    assert carried.lu_factorizations == stripped.lu_factorizations - int(carried.lu_reused)
    if reusable and stored is None:
        assert state.lu is not None
    else:
        assert state.lu is stored
    return carried


def test_warm_start_from_a_carried_lu_is_bitwise_the_factorized_one():
    """A reported basis gets its LU on its first warm start on the same
    workspace (here after a bound change, a branch-and-bound child); the
    next warm start there (after a right-hand-side change, the next budget
    of a sweep) adopts it, and each must give the same bits as factorizing
    the basis again.  A workspace over another matrix of the same shape
    must factorize afresh."""
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(80):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 8))
        A = np.round(rng.normal(0, 1, (m, n)), 2)
        c = np.round(rng.normal(0, 1, n), 2)
        b = np.round(rng.normal(0, 2, m), 2)
        senses = [str(s) for s in rng.choice(["L", "G", "E"], m, p=[0.45, 0.45, 0.1])]
        lb, ub = np.zeros(n), np.full(n, 4.0)
        ws = Workspace(c, sp.csc_matrix(A), senses, b, lb, ub)
        first = solve_linear_program(workspace=ws)
        if first.status != "optimal":
            continue
        hits += 1
        state = first.basis_state
        assert state.workspace is ws
        lb2, ub2 = lb.copy(), ub.copy()
        j = int(rng.integers(0, n))
        lb2[j] = ub2[j] = float(rng.integers(0, 2))
        ws.set_bounds(lb2, ub2)
        _warm_with_and_without_lu(ws, state)
        ws.set_bounds(lb, ub)
        ws.set_rhs(b + np.round(rng.normal(0, 0.6, m), 2))
        assert _warm_with_and_without_lu(ws, state).lu_reused
        other = Workspace(c, sp.csc_matrix(A + np.round(rng.normal(0, 0.3, (m, n)), 2)), senses, b, lb, ub)
        _warm_with_and_without_lu(other, state)
    assert hits > 25


@pytest.mark.parametrize("name, budget", [("star8", 6), ("ring12", 3), ("coastal40", 11)])
def test_branch_and_bound_children_reuse_their_parents_lu_exactly(request, name, budget):
    """In a breadth-first walk down the value-table model's tree, the first
    child of a parent factorizes the parent's basis and stores the LU, and
    its sibling adopts it; both give the same bits as from the refactorized
    basis, and so does the next budget's root."""
    from floodmit.mitigation import Budget, CostSchedule
    from floodmit.recourse import LossWeights, RecourseEvaluator
    from floodmit.solver import milp_workspace
    from floodmit.value_table import build

    fx = request.getfixturevalue(name)
    schedule = CostSchedule.for_network(fx.network)
    evaluator = RecourseEvaluator(fx.network, fx.scenarios, LossWeights())
    ef = build(schedule, Budget(budget), 3, evaluator)
    problem = ef.problem
    bin_idx = problem.binary_indices()
    ws = milp_workspace(problem)
    root = solve_linear_program(workspace=ws)
    assert root.status == "optimal"
    queue, children = [({}, root)], 0
    while queue and children < 30:
        fixings, parent = queue.pop(0)
        frac = np.abs(parent.x[bin_idx] - np.round(parent.x[bin_idx])) > 1e-6
        if not frac.any():
            continue
        j = int(bin_idx[np.flatnonzero(frac)[0]])
        for val in (0.0, 1.0):
            child = {**fixings, j: val}
            lo, hi = problem.lb.copy(), problem.ub.copy()
            for k, v in child.items():
                lo[k] = hi[k] = v
            ws.set_bounds(lo, hi)
            res = _warm_with_and_without_lu(ws, parent.basis_state)
            # The first sibling stores the parent's LU unless it had one;
            # the second adopts it.
            assert res.lu_reused or val == 0.0
            children += 1
            if res.status == "optimal":
                queue.append((child, res))
    assert children >= 8
    ws.set_bounds(problem.lb, problem.ub)
    ws.set_rhs(ef.with_budget(budget + 1).problem.b)
    _warm_with_and_without_lu(ws, root.basis_state)
