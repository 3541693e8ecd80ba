import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest

from floodmit import solver
from floodmit.milp import ProblemBuilder, sanitize_name, with_no_good_cut, write_lp_text
from floodmit.simplex import BasisState
from floodmit.solver import (
    BnbConfig,
    WarmStarts,
    check_uniqueness,
    solve_lp,
    solve_milp,
)

ALL3 = np.arange(3)


def knapsack_problem(capacity, values=(3.0, 5.0, 1.0), weights=(4.0, 8.0, 3.0)):
    """Maximize value within capacity, expressed as a minimization."""
    pb = ProblemBuilder(f"knapsack_{capacity}")
    idxs = []
    for i, v in enumerate(values):
        j = pb.add_variable(f"w{i + 1}", 0, 1, binary=True)
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
    "plan, claimed, fixings_lps",
    [([1, 0, 1], -9.0, 1), ([1, 0, 0], -4.5, 0)],
    ids=["optimal-plan-overclaimed", "suboptimal-plan-overclaimed"],
)
def test_feasible_warm_start_with_understated_objective_is_not_trusted(plan, claimed, fixings_lps):
    """A feasible plan claiming less than it is worth prunes the true optimum
    (-4 at (1, 0, 1)); a solution with the plan's values exposes the claim,
    and the search runs again without the pool.  The result counts the LPs
    of both searches.  Claiming -9, the optimal plan prunes the fractional
    root, so no node reaches the plan and its fixings' LP decides; claiming
    -4.5, the plan (1, 0, 0) is a pruned node's integral solution, worth -3,
    which decides without a fixings' LP."""
    plain = solve_milp(knapsack_problem(7))
    sol = solve_milp(knapsack_problem(7), BnbConfig(warm_starts=_warm((plan, claimed))))
    assert (sol.status, sol.objective, _selection(sol)) == ("optimal", -4.0, (1, 0, 1))
    abandoned_nodes = sol.nodes_explored - plain.nodes_explored
    assert abandoned_nodes >= 1
    # The abandoned search solved its nodes and, when no node decided, the
    # fixings' LP.
    assert sol.counters.lp_solves == plain.counters.lp_solves + abandoned_nodes + fixings_lps
    assert sol.lp_iterations == sol.counters.pivots


def test_a_true_claim_is_confirmed_by_a_node_in_the_first_pass(caplog):
    """Claiming each random knapsack's enumerated optimum at its exact
    worth, a pruned node confirms the claim: the search makes no second
    pass and no fixings' LP, and returns the claimed plan.  Only a node that
    sets every claim column to the claim's value may decide; a pruned
    integral node with other values is worth more in some of these trees,
    and letting it decide would reject a true claim."""
    for prob, points, worth in _random_knapsacks():
        best = int(np.argmin(worth))
        pool = WarmStarts(np.arange(points.shape[1]), points[[best]], worth[[best]])
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="floodmit.solver"):
            sol = solve_milp(prob, BnbConfig(warm_starts=pool))
        assert "not confirmed" not in caplog.text, points[best]
        assert sol.counters.lp_solves == sol.nodes_explored
        np.testing.assert_array_equal(sol.x, points[best])
        assert sol.objective == worth[best]


def test_warm_start_fixings_with_a_fractional_completion_are_not_rounded():
    """Pool column a (cost +1) at 0 claims -0.5; the fixings' LP sets b (cost
    -1, row 2b <= 1) to 0.5 and is worth the claim, but no binary b is.
    Rounding b away would report -0.5 for a plan worth 0."""
    pb = ProblemBuilder("fractional_completion")
    a = pb.add_variable("a", 0, 1, binary=True)
    b = pb.add_variable("b", 0, 1, binary=True)
    pb.add_objective_term(a, 1.0)
    pb.add_objective_term(b, -1.0)
    pb.add_row("half", [(b, 2.0)], "L", 1.0)
    pool = WarmStarts(np.array([a]), np.array([[0.0]]), np.array([-0.5]))
    sol = solve_milp(pb.build(), BnbConfig(warm_starts=pool))
    assert (sol.status, sol.objective) == ("optimal", 0.0)
    np.testing.assert_array_equal(sol.x, [0.0, 0.0])


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
    assert (sol.status, sol.stop_reason, sol.bound) == ("node-limit", "nodes", -np.inf)
    assert (sol.objective, sol.x, sol.nodes_explored) == (None, None, 0)


@pytest.mark.parametrize("k", range(4))
def test_time_limit_stops_like_the_node_limit_it_matches(monkeypatch, k):
    """A clock that ticks once per reading: the search reads it once at the
    start and once before each node, so a limit of k + 0.5 ticks lets k
    nodes through, just as ``node_limit=k`` does.  The search needs 3."""
    clock = itertools.count()
    monkeypatch.setattr(solver.time, "monotonic", lambda: float(next(clock)))
    timed = solve_milp(knapsack_problem(7), BnbConfig(time_limit=k + 0.5))
    counted = solve_milp(knapsack_problem(7), BnbConfig(node_limit=k))
    assert (timed.stop_reason, counted.stop_reason) == (("time", "nodes") if k < 3 else ("", ""))
    for attr in ("status", "objective", "bound", "nodes_explored", "lp_iterations"):
        assert getattr(timed, attr) == getattr(counted, attr), attr
    if k == 0:
        assert (timed.status, timed.bound, timed.nodes_explored) == ("node-limit", -np.inf, 0)


@pytest.mark.parametrize("k", range(1, 6))
def test_rejected_claim_reruns_on_what_is_left_of_the_node_limit(k):
    """The claim -9 prunes every child of the root (LP -4.875), so the first
    pass spends one node and its fixings' LP rejects the claim.  The second
    pass is the plain search on the k - 1 nodes that are left."""
    lying = solve_milp(knapsack_problem(7), BnbConfig(node_limit=k, warm_starts=_warm(([1, 0, 1], -9.0))))
    plain = solve_milp(knapsack_problem(7), BnbConfig(node_limit=k - 1))
    assert lying.nodes_explored == plain.nodes_explored + 1 <= k
    assert lying.counters.lp_solves == lying.nodes_explored + 1
    assert lying.lp_iterations == lying.counters.pivots
    for attr in ("status", "objective", "bound", "stop_reason"):
        assert getattr(lying, attr) == getattr(plain, attr), attr


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


def _random_knapsacks():
    """Forty random multi-row knapsacks as minimizations, each with its
    binary points and their values (inf where a row is broken)."""
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
        points = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
        worth = np.array([float(-values @ w) if np.all(W @ w <= caps + 1e-12) else np.inf for w in points])
        yield pb.build(), points, worth


def test_randomized_milp_against_enumeration():
    for prob, _, worth in _random_knapsacks():
        sol = solve_milp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(worth.min(), abs=1e-9)


def test_bound_stays_valid_under_node_limits():
    """Stopped or not, the bound never exceeds the enumerated optimum and the
    incumbent never falls below it, with no pool, with a pool claiming what
    a random feasible plan is worth, and with one claiming less.  Limits 1-4
    stop every search here (the smallest tree has 5 nodes); 8 lets some
    finish."""
    rng = np.random.default_rng(4)
    seen = set()
    for node_limit in (1, 2, 3, 4, 8):
        for prob, points, worth in _random_knapsacks():
            best = worth.min()
            plan = rng.choice(np.flatnonzero(np.isfinite(worth)))
            columns = np.arange(points.shape[1])
            pools = {
                "none": WarmStarts(),
                "honest": WarmStarts(columns, points[[plan]], worth[[plan]]),
                "lying": WarmStarts(columns, points[[plan]], worth[[plan]] - 1.0),
            }
            for name, pool in pools.items():
                sol = solve_milp(prob, BnbConfig(node_limit=node_limit, warm_starts=pool))
                case = (node_limit, name, points[plan], worth)
                seen.add((name, sol.status, sol.objective is not None))
                if sol.status == "optimal":
                    assert sol.objective == sol.bound == pytest.approx(best, abs=1e-9), case
                    continue
                assert (sol.status, sol.stop_reason) == ("node-limit", "nodes"), case
                assert sol.bound <= best + 1e-9, case
                if sol.objective is not None:
                    assert best <= sol.objective + 1e-9, case
                    assert sol.objective == pytest.approx(float(prob.objective @ sol.x), abs=1e-9), case
    # Every pool meets a binding limit with and without an incumbent (an
    # honest claim is always one) and a search that finishes.
    assert seen == {
        (name, status, found)
        for name in ("none", "honest", "lying")
        for status, found in (("node-limit", False), ("node-limit", True), ("optimal", True))
    } - {("honest", "node-limit", False)}


def test_warm_start_pools_against_enumeration():
    """Random pools over random column subsets, with claims equal to, below
    and above each candidate's true value and some values out of bounds,
    never change the enumerated optimum; the returned ``x`` is binary,
    feasible and worth the reported objective.  The last binary is never a
    pool column, so a candidate's fixings can leave it fractional."""
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        costs = -np.round(rng.uniform(0.5, 5.0, n + 1), 2)
        costs[n] *= rng.choice([-1.0, 1.0])  # the outside binary may cost
        W = np.round(rng.uniform(0.5, 4.0, (m, n + 1)), 2)
        caps = np.round(rng.uniform(1.0, 0.6 * W.sum(axis=1)), 2)
        offset = round(float(rng.uniform(-3.0, 3.0)), 2)
        pb = ProblemBuilder("rand_pool")
        for i in range(n + 1):
            j = pb.add_variable(f"w{i + 1}", 0, 1, binary=True)
            pb.add_objective_term(j, float(costs[i]))
        pb.add_objective_offset(offset)
        for r in range(m):
            pb.add_row(f"cap{r}", [(i, float(W[r, i])) for i in range(n + 1)], "L", float(caps[r]))
        prob = pb.build()

        points = np.array(list(itertools.product((0.0, 1.0), repeat=n + 1)))
        feasible = np.all(points @ W.T <= caps + 1e-12, axis=1)
        worth = np.where(feasible, points @ costs + offset, np.inf)
        best = worth.min()

        # Half the pools cover every column but the outside binary.
        columns = rng.permutation(n)[: int(rng.integers(1, n + 1)) if rng.random() < 0.5 else n]
        k = int(rng.integers(1, 5))
        values = rng.integers(0, 2, (k, len(columns))).astype(float)
        claims = np.empty(k)
        for c in range(k):
            if rng.random() < 0.25:
                # Out of bounds, claiming what its fixings would be worth if
                # the fixings' bounds were all that held them.
                values[c, rng.integers(len(columns))] = rng.choice([-1.0, 2.0])
                seen.add("out of bounds")
                shifted = points.copy()
                shifted[:, columns] = values[c]
                ok = np.all(shifted @ W.T <= caps + 1e-12, axis=1)
                claims[c] = (shifted @ costs + offset)[ok].min() if ok.any() else best - 1.0
                continue
            true = worth[np.all(points[:, columns] == values[c], axis=1)].min()
            kind = str(rng.choice(["equal", "below", "above"]))
            if not np.isfinite(true):
                kind, true = "infeasible", best
            seen.add(kind)
            delta = {"equal": 0.0, "below": -1.0, "above": 1.0, "infeasible": -1.0}[kind]
            claims[c] = true + delta * float(rng.uniform(0.01, 2.0))
        pool = WarmStarts(columns, values, claims)
        sol = solve_milp(prob, BnbConfig(warm_starts=pool))

        case = (columns, values, claims)
        assert sol.status == "optimal", case
        assert sol.objective == pytest.approx(best, abs=1e-9), case
        assert sol.objective == pytest.approx(costs @ sol.x + offset, abs=1e-9), case
        assert set(sol.x.tolist()) <= {0.0, 1.0}, case
        assert np.all(W @ sol.x <= caps + 1e-9), case
    assert seen == {"equal", "below", "above", "infeasible", "out of bounds"}


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


def test_root_basis_brings_its_workspace_across_budget_variants_and_no_further():
    """``with_rhs`` keeps the matrix, so a root basis chained from one budget
    to the next brings its workspace and LU, with the same answer, node
    count and pivots as a solve from that basis without them.  A no-good
    cut makes another matrix, and other costs another model: there the
    search builds a workspace of its own and finds the cold answer."""
    base = knapsack_problem(7)
    root_basis = None
    for cap in (7.0, 8.0, 11.0, 3.0):
        prob = base.with_rhs("cap", cap)
        chained = solve_milp(prob, BnbConfig(root_warm_basis=root_basis))
        bare = None if root_basis is None else BasisState(root_basis.basis, root_basis.status)
        own = solve_milp(prob, BnbConfig(root_warm_basis=bare))
        for attr in ("status", "objective", "nodes_explored", "lp_iterations"):
            assert getattr(chained, attr) == getattr(own, attr), (cap, attr)
        np.testing.assert_array_equal(chained.x, own.x)
        assert (chained.counters.workspaces, own.counters.workspaces) == (root_basis is None, 1)
        assert chained.counters.pivots == own.counters.pivots == chained.lp_iterations
        if root_basis is not None:
            assert chained.root_basis.workspace is root_basis.workspace
            assert chained.counters.lu_reused > own.counters.lu_reused
        root_basis = chained.root_basis
    other_costs = replace(base, objective=np.array([-3.0, -5.0, -2.0]))
    for other in (with_no_good_cut(base, ALL3, [1, 0, 1]), other_costs):
        warm = solve_milp(other, BnbConfig(root_warm_basis=root_basis))
        cold = solve_milp(other)
        assert warm.counters.workspaces == 1
        assert (warm.status, warm.objective) == (cold.status, cold.objective)
        np.testing.assert_array_equal(warm.x, cold.x)


# -- reduced-cost fixing ------------------------------------------------------


def _value_table_model(fx, units):
    from floodmit.mitigation import Budget, CostSchedule
    from floodmit.recourse import LossWeights, RecourseEvaluator
    from floodmit.value_table import build

    evaluator = RecourseEvaluator(fx.network, fx.scenarios, LossWeights())
    return build(CostSchedule.for_network(fx.network), Budget(units), 3, evaluator), evaluator


@pytest.mark.parametrize("name, budget", [("star8", 6), ("ring12", 3), ("coastal40", 11)])
def test_node_reduced_costs_vanish_on_basic_columns(request, name, budget):
    """``d = c - A^T y`` from a node LP's row duals is the reduced-cost
    vector it reports: zero on basic columns, non-negative at a lower bound
    and non-positive at an upper one.  A flipped dual sign breaks all three."""
    from floodmit.simplex import AT_LOWER, AT_UPPER, BASIC, solve_linear_program

    ef, _ = _value_table_model(request.getfixturevalue(name), budget)
    problem = ef.problem
    A, _, _ = problem.constraint_arrays()
    ws = solver.milp_workspace(problem)
    root = solve_linear_program(workspace=ws)
    bin_idx = problem.binary_indices()
    j = int(bin_idx[np.argmax(np.minimum(root.x[bin_idx], 1 - root.x[bin_idx]))])
    lo, hi = problem.lb.copy(), problem.ub.copy()
    lo[j] = hi[j] = 1.0
    ws.set_bounds(lo, hi)
    child = solve_linear_program(workspace=ws, warm=root.basis_state)
    for res in (root, child):
        assert res.status == "optimal"
        d = problem.objective - A.T @ res.row_duals
        np.testing.assert_allclose(res.reduced_costs, d, rtol=0, atol=1e-9)
        status = res.basis_state.status[: problem.n_variables]
        assert np.abs(d[status == BASIC]).max() <= 1e-9
        assert (d[status == AT_LOWER] >= -1e-7).all() and (d[status == AT_UPPER] <= 1e-7).all()


def test_reduced_cost_fixing_never_removes_a_plan_better_than_the_incumbent(monkeypatch):
    """Brute force at every useful budget of tiny3, star8 and ring12: a plan
    that the reduced-cost fixings at a node exclude, while the node's bounds
    admit it, is worth at least the incumbent (or claim) the node was fixed
    against.  So no fixing removes an optimal plan before the incumbent is
    one.  The search runs without a claim and with the median plan's."""
    from floodmit.fixtures import make_fixture
    from floodmit.mitigation import Budget, CostSchedule, enumerate_plans, max_useful_budget

    real = solver._fixed_by_reduced_cost
    nodes = []

    def fixed(res, bin_idx, gap):
        ws = res.basis_state.workspace
        out = real(res, bin_idx, gap)
        nodes.append((ws.lo[: ws.n].copy(), ws.hi[: ws.n].copy(), out, res.objective + gap))
        return out

    monkeypatch.setattr(solver, "_fixed_by_reduced_cost", fixed)
    removed = 0
    for name in ("tiny3", "star8", "ring12"):
        fx = make_fixture(name)
        schedule = CostSchedule.for_network(fx.network)
        for units in range(max_useful_budget(fx.scenarios, schedule, 3) + 1):
            ef, evaluator = _value_table_model(fx, units)
            plans = list(enumerate_plans(schedule, Budget(units), 3))
            losses = np.array([evaluator.evaluate(plan).expected_loss for plan in plans])
            cols = ef.x_cols.ravel()
            values = [
                (np.array([plan.level_of(s.id) for s in fx.network.substations])[:, None] >= np.arange(1, 4)).ravel()
                for plan in plans
            ]
            median = int(np.argsort(losses, kind="stable")[len(plans) // 2])
            claim = WarmStarts(ef.free_columns, ef.plan_assignment(plans[median])[None], losses[median : median + 1])
            for starts in (WarmStarts(), claim):
                nodes.clear()
                sol = solve_milp(ef.problem, BnbConfig(warm_starts=starts))
                assert sol.objective == pytest.approx(losses.min(), abs=1e-9)
                for lo, hi, out, bound in nodes:
                    incumbent = bound + ef.problem.objective_offset
                    for a, loss in zip(values, losses):
                        if (lo[cols] <= a).all() and (a <= hi[cols]).all():
                            value = dict(zip(cols.tolist(), a.astype(int).tolist()))
                            if any(value[j] != v for j, v in out.items()):
                                assert loss >= incumbent - 1e-9, (name, units, out)
                                removed += 1
    assert removed > 0
