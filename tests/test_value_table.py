"""The value-table model against the extensive form it replaces on the solve path.

Both models share the first stage, so an optimum of either reads out as a
plan through the same wrapper; the table model must reach the extensive
form's optimal objective, and the plan it picks must be worth exactly that
objective under the recourse evaluator.
"""

import json

import numpy as np
import pytest

from conftest import random_network, random_scenario_set
from floodmit import analysis, extensive_form, heuristic, value_table
from floodmit.cli import main
from floodmit.mitigation import Budget, CostSchedule, max_useful_budget
from floodmit.recourse import LossWeights, RecourseCounters, RecourseEvaluator
from floodmit.scenario_model import FloodScenario, FloodScenarioSet
from floodmit.solver import solve_milp

W = LossWeights()


def _solve(ef):
    sol = solve_milp(ef.problem)
    assert sol.status == "optimal"
    return sol


def _assert_models_agree(net, scen, sched, r_hat, budgets):
    evaluator = RecourseEvaluator(net, scen, W)
    ef = extensive_form.build(net, scen, sched, Budget(max(budgets)), r_hat, W)
    vt = value_table.build(sched, Budget(max(budgets)), r_hat, evaluator)
    np.testing.assert_array_equal(vt.x_cols, ef.x_cols)
    for f in budgets:
        ref = _solve(ef.with_budget(f))
        sol = _solve(vt.with_budget(f))
        assert sol.objective == pytest.approx(ref.objective, abs=1e-6), f
        plan = vt.plan_from_x(sol.x)
        assert evaluator.evaluate(plan).expected_loss == pytest.approx(
            sol.objective, abs=1e-9
        ), f
    return vt


def test_randomized_instances_match_extensive_form():
    rng = np.random.default_rng(1357)
    for _ in range(32):
        net = random_network(rng, n_subs=int(rng.integers(2, 6)))
        scen = random_scenario_set(rng, net, count=int(rng.integers(1, 5)), level_count=3)
        sched = CostSchedule.for_network(net)
        r_hat = int(rng.choice([3, 4]))
        fmax = max_useful_budget(scen, sched, r_hat)
        budgets = sorted({0, fmax // 3, (2 * fmax) // 3, fmax + 1})
        vt = _assert_models_agree(net, scen, sched, r_hat, budgets)
        assert vt.stats["dispatch_scenarios"] == 0
        assert vt.stats["table_scenarios"] == len(scen.scenarios)


def _mixed_instance():
    """Eight one-bus substations; scenario ``wide`` floods seven of them at
    preventable levels and the eighth beyond any barrier."""
    rng = np.random.default_rng(97)
    net = random_network(rng, n_subs=8, buses_per_sub=1)
    subs = [s.id for s in net.substations]
    assert len(subs) == 8
    wide = {s: 1 + i % 2 for i, s in enumerate(subs)}
    wide[subs[0]] = 3  # beyond any barrier: dead in every plan
    scen = FloodScenarioSet(
        (
            FloodScenario("wide", 0.5, wide),
            FloodScenario("narrow", 0.3, {subs[1]: 1, subs[2]: 2, subs[5]: 3}),
            FloodScenario("dry", 0.2, {subs[4]: 4}),
        ),
        level_count=4,
        unattainable_level=3,
    )
    return net, scen


def test_a_scenario_with_seven_uncertain_substations_gets_a_table():
    net, scen = _mixed_instance()
    sched = CostSchedule.for_network(net)
    fmax = max_useful_budget(scen, sched, 3)
    vt = _assert_models_agree(net, scen, sched, 3, [0, 2, 5, fmax // 2, fmax])
    # "wide" has seven uncertain substations, "narrow" two, "dry" none.
    assert vt.stats["dispatch_scenarios"] == 0
    assert vt.stats["table_scenarios"] == 3
    assert vt.stats["table_entries"] == 2**7 + 4 + 1
    assert vt.problem.n_binaries == vt.x_cols.size  # the first stage's only


def test_tables_share_the_evaluators_dead_set_cache(star8):
    sched = CostSchedule.for_network(star8.network)
    evaluator = RecourseEvaluator(star8.network, star8.scenarios, W)
    vt = value_table.build(sched, Budget(9), 3, evaluator)
    cached = len(evaluator._cache)
    assert 0 < cached <= vt.stats["table_entries"]
    # Every plan's outcome in every scenario is already a table entry.
    levels = heuristic.LevelMatrix(star8.network, star8.scenarios, sched, 3)
    for plan in heuristic.portfolio(Budget(9), levels):
        evaluator.evaluate(plan)
    assert len(evaluator._cache) == cached


# The corridor's optimal plans and objectives at budgets 30, 45 and 60, as
# the model with dispatch blocks for the scenarios of over six uncertain
# substations solved them.
CORRIDOR_OPTIMA = {
    30: (2.8124375000000077, {
        "C01": 1, "C02": 2, "C03": 1, "C04": 2, "C05": 1, "C06": 1, "C07": 1, "C08": 1, "C09": 1, "C10": 1,
        "C11": 1, "C12": 1, "C13": 1, "C14": 1, "C15": 1, "C16": 1, "C17": 1, "I01": 1,
    }),
    45: (2.316781250000006, {
        "C00": 1, "C01": 2, "C02": 2, "C03": 1, "C04": 2, "C05": 2, "C06": 1, "C07": 1, "C08": 1, "C09": 1,
        "C10": 1, "C11": 2, "C12": 2, "C13": 1, "C14": 1, "C15": 1, "C16": 1, "C17": 1, "I01": 1, "I03": 1, "I07": 1,
    }),
    60: (1.9096250000000041, {
        "C00": 1, "C01": 2, "C02": 2, "C03": 1, "C04": 2, "C05": 2, "C06": 2, "C07": 2, "C08": 2, "C09": 1,
        "C10": 1, "C11": 2, "C12": 2, "C13": 1, "C14": 1, "C15": 2, "C16": 2, "C17": 1, "I01": 1, "I05": 1,
        "I07": 1, "I10": 1,
    }),
}


def test_corridor_tables_reach_the_pinned_optima(corridor_dir):
    """The generated corridor, whose scenarios have up to 13 uncertain
    substations, gets a table for every scenario; solved at budgets 30, 45
    and 60 from one model with the greedy portfolio as warm starts, as
    ``solve`` does, it reaches the pinned plans and objectives, and no LP
    starts cold."""
    from floodmit.grid_model import load_network
    from floodmit.scenario_model import load_scenarios

    net = load_network(corridor_dir / "network.json")
    scen = load_scenarios(corridor_dir / "scenarios.json", network=net)
    sched = CostSchedule.for_network(net)
    evaluator = RecourseEvaluator(net, scen, W)
    vt = value_table.build(sched, Budget(60), 3, evaluator)
    assert vt.stats["dispatch_scenarios"] == 0
    assert vt.stats["table_scenarios"] == len(scen.scenarios) == 32
    assert vt.stats["table_entries"] == 22384
    levels = heuristic.LevelMatrix(net, scen, sched, 3)
    for budget, (objective, plan) in CORRIDOR_OPTIMA.items():
        warm = heuristic.portfolio(Budget(budget), levels)
        sol, got, _ = analysis.solve_instance(vt.with_budget(budget), warm, evaluator)
        assert got.levels == plan, budget
        assert sol.objective == pytest.approx(objective, abs=1e-9), budget
        assert sol.counters.cold_starts == 0, budget


def _reference_entries(network, scenario, r_hat):
    """A table's entry masks by enumeration over the scenario's levels: the
    uncertain substations in network order, and per entry m the substations
    that survive, the dry ones and uncertain[j] for each set bit j of m."""
    uncertain = [s.id for s in network.substations if 0 < scenario.level_of(s.id) < r_hat]
    entries = []
    for m in range(2 ** len(uncertain)):
        saved = {k for j, k in enumerate(uncertain) if m >> j & 1}
        entries.append([scenario.level_of(k) == 0 or k in saved for k in network.arrays.sub_ids])
    return uncertain, entries


def test_table_entries_are_the_survivor_subsets_of_each_scenario(monkeypatch):
    """Building the tables requests, for each scenario in scenario order,
    the outcome of every survivor subset of its uncertain set in mask order;
    on random instances at two caps and on the instance with a scenario of
    seven uncertain substations."""
    requests = []
    outcome = RecourseEvaluator.scenario_outcome

    def recorded(self, s, up):
        requests.append((s, up.tolist()))
        return outcome(self, s, up)

    monkeypatch.setattr(RecourseEvaluator, "scenario_outcome", recorded)
    rng = np.random.default_rng(2468)
    cases = [_mixed_instance()]
    for _ in range(24):
        net = random_network(rng, n_subs=int(rng.integers(2, 6)))
        cases.append((net, random_scenario_set(rng, net, count=int(rng.integers(1, 5)), level_count=3)))
    for net, scen in cases:
        for r_hat in (3, 4):
            requests.clear()
            evaluator = RecourseEvaluator(net, scen, W)
            vt = value_table.build(CostSchedule.for_network(net), Budget(0), r_hat, evaluator)
            expected = []
            for s, scenario in enumerate(scen.scenarios):
                expected += [(s, entry) for entry in _reference_entries(net, scenario, r_hat)[1]]
            assert requests == expected
            assert vt.stats["table_entries"] == len(expected)


def test_check_unique_matches_extensive_form(tiny3, tmp_path):
    net, scen = tiny3.network, tiny3.scenarios
    assert main(["make-fixture", "tiny3", "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "unique.json"
    rc = main([
        "check-unique", "--network", str(tmp_path / "network.json"),
        "--scenarios", str(tmp_path / "scenarios.json"), "--budget", "1", "--out", str(out),
    ])
    assert rc == 0
    got = json.loads(out.read_text())["result"]

    sched = CostSchedule.for_network(net)
    evaluator = RecourseEvaluator(net, scen, W)
    ef = extensive_form.build(net, scen, sched, Budget(1), 3, W)
    warm = heuristic.portfolio(Budget(1), heuristic.LevelMatrix(net, scen, sched, 3))
    sol, plan, uniqueness = analysis.solve_instance(ef, warm, evaluator, check_unique=True)
    assert got["unique"] is uniqueness["unique"] is False
    assert got["witness"] == uniqueness["witness"]
    assert got["plan"] == plan.levels
    assert got["objective"] == pytest.approx(sol.objective, abs=1e-9)
    assert got["uniqueness_caveat"] is uniqueness["uniqueness_caveat"]


def test_solve_envelope_reports_block_kinds(tmp_path):
    assert main(["make-fixture", "tiny3", "--out-dir", str(tmp_path)]) == 0
    rc = main([
        "solve", "--network", str(tmp_path / "network.json"),
        "--scenarios", str(tmp_path / "scenarios.json"), "--budget", "1",
        "--out-dir", str(tmp_path / "solve"),
    ])
    assert rc == 0
    model = json.loads((tmp_path / "solve" / "envelope.json").read_text())["result"]["model"]
    # tiny3: one scenario floods both substations at level 1, the other is dry.
    assert model["table_scenarios"] == 2
    assert model["table_entries"] == 4 + 1
    assert model["dispatch_scenarios"] == 0
    assert model["variables"] > 0 and model["rows"] > 0 and model["binaries"] > 0


# -- the zero plan's start basis ----------------------------------------------


def _start_basis_instances():
    """(name, network, scenarios) of the fixtures, the instance with a
    scenario of seven uncertain substations and random instances."""
    from floodmit.fixtures import make_fixture

    for name in ("tiny3", "star8", "ring12", "coastal40"):
        fx = make_fixture(name)
        yield name, fx.network, fx.scenarios
    yield "mixed", *_mixed_instance()
    rng = np.random.default_rng(2468)
    for i in range(8):
        net = random_network(rng, n_subs=int(rng.integers(2, 6)))
        yield f"random{i}", net, random_scenario_set(rng, net, count=int(rng.integers(1, 5)))


def _start_basis_model(net, scen):
    sched = CostSchedule.for_network(net)
    fmax = max_useful_budget(scen, sched, 3)
    evaluator = RecourseEvaluator(net, scen, W)
    ef = value_table.build(sched, Budget(fmax), 3, evaluator)
    assert ef.start_basis is not None
    return ef, evaluator, fmax


def test_start_basis_is_the_zero_plans_vertex_at_every_budget():
    """At every budget 0..f_max the start basis factorizes and is primal
    feasible, with every x at 0, and its vertex is worth the zero plan's
    expected loss: each table sits on its empty-survivor entry."""
    from floodmit import simplex, solver
    from floodmit.mitigation import MitigationPlan

    for name, net, scen in _start_basis_instances():
        ef, evaluator, fmax = _start_basis_model(net, scen)
        zero_loss = evaluator.evaluate(MitigationPlan({})).expected_loss
        ws = solver.milp_workspace(ef.problem)
        for f in range(fmax + 1):
            ws.set_rhs(ef.with_budget(f).problem.b)
            vertex = simplex._Solver(ws, max_iter=0)
            assert vertex.warm_start(ef.start_basis), (name, f)  # nonsingular
            assert vertex.primal_feasible(), (name, f)
            x = vertex.x[: ws.n]
            assert not x[ef.x_cols.ravel()].any(), (name, f)
            value = float(ef.problem.objective @ x) + ef.problem.objective_offset
            assert value == pytest.approx(zero_loss, abs=1e-9), (name, f)


def test_roots_through_the_start_basis_match_the_cold_roots():
    """The root LP at every budget, reached as ``solve_instance`` reaches it
    (from the start basis at budget 0, by one dual run from the budget-0
    LP's basis elsewhere), starts nothing cold and has the cold root's
    objective."""
    from floodmit import simplex, solver
    from floodmit.simplex import SimplexCounters, solve_linear_program

    for name, net, scen in _start_basis_instances():
        ef, _, fmax = _start_basis_model(net, scen)
        for f in range(fmax + 1):
            at_f = ef.with_budget(f)
            cold = solve_linear_program(workspace=solver.milp_workspace(at_f.problem))
            seed = SimplexCounters()
            if f == 0:
                basis, ws = ef.start_basis, solver.milp_workspace(at_f.problem)
            else:
                basis = analysis._budget_zero_basis(at_f, seed)
                ws = basis.workspace
                ws.set_rhs(at_f.problem.b)
            root = solve_linear_program(workspace=ws, warm=basis)
            assert cold.cold_started and seed.cold_starts == 0, (name, f)
            assert not root.cold_started, (name, f)
            assert root.status == cold.status == simplex.STATUS_OPTIMAL, (name, f)
            assert root.objective == pytest.approx(cold.objective, abs=1e-9), (name, f)


def test_a_start_basis_neither_primal_nor_dual_feasible_starts_cold(star8):
    """With a ``zsum`` row's slack basic in place of its empty-survivor
    entry, the slack must hold 1 in an equality row: the basis is neither
    primal nor dual feasible, so the LP starts cold and reaches the cold
    optimum."""
    from dataclasses import replace

    from floodmit import simplex, solver
    from floodmit.simplex import solve_linear_program

    ef, _, _ = _start_basis_model(star8.network, star8.scenarios)
    problem = ef.with_budget(0).problem
    row = problem.row_names.index(next(r for r in problem.row_names if r.startswith("zsum_")))
    basis = ef.start_basis.basis.copy()
    status = ef.start_basis.status.copy()
    status[basis[row]] = simplex.AT_LOWER
    basis[row] = problem.n_variables + row
    status[basis[row]] = simplex.BASIC
    ws = solver.milp_workspace(problem)
    vertex = simplex._Solver(ws, max_iter=0)
    hand = replace(ef.start_basis, basis=basis, status=status)
    assert vertex.warm_start(hand)
    assert not vertex.primal_feasible() and not vertex.dual_feasible(ws.c_ext)
    cold = solve_linear_program(workspace=solver.milp_workspace(problem))
    warm = solve_linear_program(workspace=ws, warm=hand)
    assert warm.cold_started
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert not solve_linear_program(workspace=ws, warm=ef.start_basis).cold_started


def test_a_model_over_the_table_limit_is_the_extensive_form_with_a_cold_root(monkeypatch):
    """Tables over ``MAX_TABLE_ENTRIES`` in all make the model the extensive
    form, chosen before any table entry is settled: every scenario has a
    dispatch block, the model has no start basis, and the root of
    ``solve_instance`` starts cold once; its children start warm from their
    parents.  The optimum is the value-table model's."""
    net, scen = _mixed_instance()
    sched = CostSchedule.for_network(net)
    tables = value_table.build(sched, Budget(5), 3, RecourseEvaluator(net, scen, W))
    monkeypatch.setattr(value_table, "MAX_TABLE_ENTRIES", tables.stats["table_entries"] - 1)
    evaluator = RecourseEvaluator(net, scen, W)
    ef = value_table.build(sched, Budget(5), 3, evaluator)
    assert evaluator.counters == RecourseCounters()
    assert not evaluator._cache
    assert ef.stats["table_scenarios"] == ef.stats["table_entries"] == 0
    assert ef.stats["dispatch_scenarios"] == len(scen.scenarios)
    assert ef.start_basis is None
    assert ef.problem.names == extensive_form.build(net, scen, sched, Budget(5), 3, W).problem.names
    sol, _, _ = analysis.solve_instance(ef, [], evaluator)
    assert sol.nodes_explored > 1
    assert sol.counters.cold_starts == 1
    assert sol.counters.workspaces == 1
    assert sol.objective == pytest.approx(_solve(tables).objective, abs=1e-9)


def test_both_builders_assemble_the_same_first_stage_and_size_stats(tiny3):
    """Both planning models come out of one assembly: the same plan columns
    and the size stats the benchmark's tracer reads, ahead of each
    builder's own."""
    sched = CostSchedule.for_network(tiny3.network)
    ef = extensive_form.build(tiny3.network, tiny3.scenarios, sched, Budget(2), 3, W)
    vt = value_table.build(sched, Budget(2), 3, RecourseEvaluator(tiny3.network, tiny3.scenarios, W))
    np.testing.assert_array_equal(vt.x_cols, ef.x_cols)
    size = ["variables", "rows", "binaries"]
    assert list(ef.stats)[:3] == list(vt.stats)[:3] == size
    for model in (ef, vt):
        assert [model.stats[k] for k in size] == [model.problem.n_variables, model.problem.n_rows, model.problem.n_binaries]
