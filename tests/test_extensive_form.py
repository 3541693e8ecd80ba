import itertools

import numpy as np
import pytest

from conftest import _loop_closure, random_plan
from floodmit.extensive_form import alpha_link_rows, build
from floodmit.grid_model import Bus, GridNetwork, Substation
from floodmit.milp import with_no_good_cut, write_lp_file
from floodmit.mitigation import Budget, CostSchedule, MitigationPlan, ZERO_PLAN, enumerate_plans
from floodmit.recourse import LossWeights, RecourseEvaluator
from floodmit.scenario_model import FloodScenario, FloodScenarioSet
from floodmit.solver import solve_lp, solve_milp

W = LossWeights()


def _single_bus_instance():
    net = GridNetwork(
        buses=(Bus("B", "K", p_load=1.0, is_reference=True),),
        branches=(),
        substations=(Substation("K", "115_161"),),
    )
    ss = FloodScenarioSet(
        (FloodScenario("w", 1.0, {"K": 1}),), level_count=3, unattainable_level=3
    )
    return net, ss


def test_first_stage_variable_count_and_pinning():
    net, ss = _single_bus_instance()
    ef = build(net, ss, CostSchedule.for_network(net), Budget(5), 3, W)
    x_vars = [i for i, name in enumerate(ef.problem.names) if name.startswith("x_")]
    assert x_vars == ef.x_cols.ravel().tolist()  # one binary per level
    assert ef.problem.is_binary[x_vars].all()
    top = ef.x_cols[0, -1]
    assert ef.problem.names[top] == "x_K_3"
    assert ef.problem.lb[top] == ef.problem.ub[top] == 0.0  # the unattainable level is pinned off


def test_dry_levels_fold_away():
    # A substation flooded to level 1 only links alpha to x_1; the dry levels
    # produce no rows.
    net, ss = _single_bus_instance()
    ef = build(net, ss, CostSchedule.for_network(net), Budget(5), 3, W)
    link_rows = [r for r in ef.problem.row_names if r.startswith(("a0_", "a1_", "a2_", "a3_"))]
    assert len(link_rows) == 2  # one upper row for the flooded level + the lower row


def test_alpha_link_rows_truth_table_r3():
    """Exhaustive equivalence of the linear rows with the product logic.

    For |R| = 3, over every indicator row (cumulative or not) and every binary
    first-stage assignment: the alpha values admitted by the rows are exactly
    the product  prod_r (1 - xi_r (1 - x_r)).
    """
    for xi in itertools.product((0, 1), repeat=3):
        link = alpha_link_rows(xi)
        for x in itertools.product((0, 1), repeat=3):
            product_value = 1
            for r in range(3):
                product_value *= 1 - xi[r] * (1 - x[r])
            admitted = set()
            for alpha in (0, 1):
                if link[0] == "const":
                    ok = alpha == link[1]
                else:
                    ok = True
                    for a_coef, x_coefs, sense, rhs in link[1]:
                        lhs = a_coef * alpha + sum(c * x[r - 1] for r, c in x_coefs.items())
                        if sense == "L" and lhs > rhs + 1e-12:
                            ok = False
                        if sense == "G" and lhs < rhs - 1e-12:
                            ok = False
                if ok:
                    admitted.add(alpha)
            assert admitted == {product_value}, (xi, x, admitted)


def test_beta_rows_truth_table():
    # beta >= a_f + a_t - 1, beta <= a_f, beta <= a_t  <=>  beta = a_f * a_t.
    for af, at in itertools.product((0, 1), repeat=2):
        admitted = {
            b for b in (0, 1) if b >= af + at - 1 and b <= af and b <= at
        }
        assert admitted == {af * at}


def test_big_m_deactivates_ohm_at_any_feasible_point():
    # With M = |b| * 2*theta_max + flow_limit, a dead branch's Ohm residual
    # can never violate the relaxed rows: |-(flow) - b*(spread)| is at most
    # flow_limit + |b| * 2*theta_max.
    rng = np.random.default_rng(8)
    for _ in range(500):
        b = float(rng.uniform(-12, 12))
        if abs(b) < 0.5:
            continue
        s_max = float(rng.uniform(0.2, 3.0))
        t_max = float(rng.uniform(0.3, np.pi / 2))
        M = abs(b) * 2 * t_max + s_max
        flow = float(rng.uniform(-s_max, s_max))
        th_n = float(rng.uniform(-t_max, t_max))
        th_m = float(rng.uniform(-t_max, t_max))
        resid = -flow - b * (th_n - th_m)
        assert -M - 1e-12 <= resid <= M + 1e-12


def test_folding_constants(star8):
    # w4 floods only S3: the other substations' statuses fold to constants.
    ef = build(star8.network, star8.scenarios, CostSchedule.for_network(star8.network),
               Budget(5), 3, W)
    # Fixture ids are alphanumeric, so variable names hold them unescaped.
    alpha_w4 = [n for n in ef.problem.names if n.startswith("alpha_w4_")]
    assert alpha_w4 == ["alpha_w4_S3"]
    # w2 floods S2 at level 3 (beyond the cap): pinned dead, no alpha variable.
    alpha_w2 = {n for n in ef.problem.names if n.startswith("alpha_w2_")}
    assert alpha_w2 == {"alpha_w2_S3"}


def _fixed_first_stage_bounds(ef, plan):
    """Variable bounds of ``ef`` with the free first-stage binaries pinned to ``plan``."""
    lb, ub = ef.problem.bounds_arrays()
    lb[ef.free_columns] = ub[ef.free_columns] = ef.plan_assignment(plan)
    return lb, ub


def test_fix_first_stage_matches_recourse_evaluation(star8):
    rng = np.random.default_rng(4)
    sched = CostSchedule.for_network(star8.network)
    ef = build(star8.network, star8.scenarios, sched, Budget(20), 3, W)
    evaluator = RecourseEvaluator(star8.network, star8.scenarios, W)
    for _ in range(6):
        plan = random_plan(rng, star8.network)
        lb, ub = _fixed_first_stage_bounds(ef, plan)
        lp = solve_lp(ef.problem, lb=lb, ub=ub)
        assert lp.status == "optimal"
        expected = evaluator.evaluate(plan).expected_loss
        assert lp.objective == pytest.approx(expected, abs=1e-6)


def test_fix_first_stage_zero_and_full(star8):
    sched = CostSchedule.for_network(star8.network)
    ef = build(star8.network, star8.scenarios, sched, Budget(50), 3, W)
    evaluator = RecourseEvaluator(star8.network, star8.scenarios, W)
    for plan in (ZERO_PLAN, MitigationPlan({s.id: 2 for s in star8.network.substations})):
        lb, ub = _fixed_first_stage_bounds(ef, plan)
        lp = solve_lp(ef.problem, lb=lb, ub=ub)
        expected = evaluator.evaluate(plan).expected_loss
        assert lp.objective == pytest.approx(expected, abs=1e-6)


def _cut_survivors(ef, cut, sched, budget):
    row = cut.A.tocsr()[-1]
    survivors = set()
    for plan in enumerate_plans(sched, budget, ef.r_hat):
        x = np.zeros(cut.n_variables)
        x[ef.free_columns] = ef.plan_assignment(plan)
        act = sum(x[i] * c for i, c in zip(row.indices, row.data))
        if act >= cut.b[-1] - 1e-9:
            survivors.add(plan.key())
    return survivors


def test_no_good_cut_of_zero_plan_forbids_only_it(tiny3):
    sched = CostSchedule.for_network(tiny3.network)
    budget = Budget(1)
    ef = build(tiny3.network, tiny3.scenarios, sched, budget, 3, W)
    all_plans = {p.key() for p in enumerate_plans(sched, budget, 3)}
    cut = with_no_good_cut(ef.problem, ef.free_columns, ef.plan_assignment(ZERO_PLAN))
    assert _cut_survivors(ef, cut, sched, budget) == all_plans - {ZERO_PLAN.key()}


def test_no_good_cut_removes_the_plan_and_its_interior(tiny3):
    # Survivors must deploy at least one unit the cut plan left out, so the
    # cut plan and every plan it dominates are removed together.
    sched = CostSchedule.for_network(tiny3.network)
    budget = Budget(1)
    ef = build(tiny3.network, tiny3.scenarios, sched, budget, 3, W)
    full = MitigationPlan({"S1": 1})  # exhausts the budget
    cut = with_no_good_cut(ef.problem, ef.free_columns, ef.plan_assignment(full))
    expected = {
        p.key() for p in enumerate_plans(sched, budget, 3)
        if any(full.level_of(k) < lvl for k, lvl in p.levels.items())
    }
    assert _cut_survivors(ef, cut, sched, budget) == expected
    assert ZERO_PLAN.key() not in expected  # dominated, removed with the plan


def test_no_good_cut_keeps_extensions(star8):
    # Plans that implement the cut plan plus more always survive the row.
    sched = CostSchedule.for_network(star8.network)
    budget = Budget(6)
    ef = build(star8.network, star8.scenarios, sched, budget, 3, W)
    small = MitigationPlan({"S2": 1})  # cost 1, far under budget
    cut = with_no_good_cut(ef.problem, ef.free_columns, ef.plan_assignment(small))
    survivors = _cut_survivors(ef, cut, sched, budget)
    for plan in enumerate_plans(sched, budget, 3):
        small_covers = all(small.level_of(k) >= lvl for k, lvl in plan.levels.items())
        assert (plan.key() in survivors) == (not small_covers), plan.levels
        if all(plan.level_of(k) >= lvl for k, lvl in small.levels.items()) and plan.key() != small.key():
            assert plan.key() in survivors


def test_solution_statuses_match_closure(star8):
    sched = CostSchedule.for_network(star8.network)
    ef = build(star8.network, star8.scenarios, sched, Budget(7), 3, W)
    sol = solve_milp(ef.problem)
    plan = ef.plan_from_x(sol.x)
    bus_pos = {b.id: i for i, b in enumerate(star8.network.buses)}
    branch_pos = {br.id: e for e, br in enumerate(star8.network.branches)}
    scenarios = {s.id: s for s in star8.scenarios.scenarios}
    checked = 0
    # Fixture ids are alphanumeric, so a status variable's name is
    # kind_scenario_component with the ids unescaped.
    for j, name in enumerate(ef.problem.names):
        kind, *rest = name.split("_")
        if kind not in ("alpha", "beta"):
            continue
        scen_id, component = rest
        scenario = scenarios[scen_id]
        dead = {k for k, lvl in scenario.levels.items() if plan.level_of(k) < lvl}
        bus_up, branch_up = _loop_closure(star8.network, dead)
        if kind == "alpha":
            bus = next(b.id for b in star8.network.buses if b.substation_id == component)
            assert sol.x[j] == bus_up[bus_pos[bus]], name
        else:
            assert sol.x[j] == branch_up[branch_pos[component]], name
        checked += 1
    assert checked  # star8 aliases every beta, so these are its alphas


def test_with_budget_changes_single_rhs(star8):
    sched = CostSchedule.for_network(star8.network)
    ef = build(star8.network, star8.scenarios, sched, Budget(5), 3, W)
    ef9 = ef.with_budget(9)
    k = ef.problem.row_names.index("budget")
    assert (ef.problem.b[k], ef9.problem.b[k]) == (5.0, 9.0)
    assert ef9.problem.n_rows == ef.problem.n_rows


def test_build_rejects_unknown_scenario_substation(tiny3):
    bad = FloodScenarioSet(
        (FloodScenario("w", 1.0, {"QQ": 1}),), level_count=3, unattainable_level=3
    )
    with pytest.raises(ValueError, match="unknown substations"):
        build(tiny3.network, bad, CostSchedule.for_network(tiny3.network), Budget(1), 3, W)


def test_lp_export_round_trip_stability(tmp_path, tiny3):
    sched = CostSchedule.for_network(tiny3.network)
    ef = build(tiny3.network, tiny3.scenarios, sched, Budget(2), 3, W)
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    write_lp_file(ef.problem, p1)
    write_lp_file(ef.problem, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text
    assert "budget:" in text
