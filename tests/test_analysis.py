import csv
from pathlib import Path

import numpy as np
import pytest

from conftest import _loop_closure
from floodmit.analysis import (
    NestednessReport,
    SweepReport,
    SweepRow,
    Transition,
    nestedness,
    spared_capacity,
    sweep,
)
from floodmit.heuristic import LevelMatrix
from floodmit.mitigation import (
    Budget,
    CostSchedule,
    MitigationPlan,
    ZERO_PLAN,
    max_useful_budget,
)
from floodmit.recourse import LossWeights, RecourseEvaluator
from floodmit.scenario_model import FloodScenario, FloodScenarioSet
from floodmit.value_table import build

W = LossWeights()


def _levels(network, scenario_set):
    """The instance's level matrix; spared capacity reads neither its cost
    schedule nor its r̂."""
    return LevelMatrix(
        network, scenario_set, CostSchedule.for_network(network), scenario_set.unattainable_level
    )


def _single_wet_set():
    return FloodScenarioSet(
        (FloodScenario("w", 1.0, {"S1": 1, "S2": 1}),), level_count=3, unattainable_level=3
    )


# -- spared capacity -------------------------------------------------------


def test_spared_zero_plan_is_zero(tiny3):
    sc = spared_capacity(ZERO_PLAN, _levels(tiny3.network, _single_wet_set()))
    assert (sc.load_proportion, sc.gen_proportion, sc.flow_proportion) == (0.0, 0.0, 0.0)
    assert (sc.load_abs, sc.gen_abs, sc.flow_abs) == (0.0, 0.0, 0.0)


def test_spared_full_mitigation_is_one(tiny3):
    sc = spared_capacity(MitigationPlan({"S1": 1, "S2": 1}), _levels(tiny3.network, _single_wet_set()))
    assert sc.load_proportion == pytest.approx(1.0)
    assert sc.gen_proportion == pytest.approx(1.0)
    assert sc.flow_proportion == pytest.approx(1.0)
    assert sc.load_abs == pytest.approx(2.0)   # both unit loads kept alive
    assert sc.gen_abs == pytest.approx(5.0)    # 3.0 + 2.0 of capacity
    assert sc.flow_abs == pytest.approx(3.0)   # both 1.5-limit branches


def test_spared_half_case_hand_computed(tiny3):
    # Protecting S1 alone spares B1 (load 1 of the 2 lost, generation 3 of
    # the 5 lost) but no branch: both lines touch the still-dead S2.
    sc = spared_capacity(MitigationPlan({"S1": 1}), _levels(tiny3.network, _single_wet_set()))
    assert sc.load_proportion == pytest.approx(0.5)
    assert sc.gen_proportion == pytest.approx(0.6)
    assert sc.flow_proportion == pytest.approx(0.0)
    assert sc.load_abs == pytest.approx(1.0)


def test_spared_zero_loss_scenario_contributes_zero(tiny3):
    # The bundled set has a dry scenario: nothing lost there, nothing spared,
    # and the term is defined as zero rather than 0/0.
    sc = spared_capacity(MitigationPlan({"S1": 1, "S2": 1}), _levels(tiny3.network, tiny3.scenarios))
    assert sc.load_proportion == pytest.approx(0.5)  # 1.0 in w1, 0.0 in dry w2
    assert sc.gen_proportion == pytest.approx(0.5)
    assert sc.flow_proportion == pytest.approx(0.5)


def test_spared_matches_brute_force_recomputation(star8):
    rng = np.random.default_rng(6)
    levels = _levels(star8.network, star8.scenarios)
    for _ in range(10):
        plan = MitigationPlan(
            {s.id: int(rng.integers(0, 3)) for s in star8.network.substations}
        )
        sc = spared_capacity(plan, levels)
        exp_load = 0.0
        for scenario in star8.scenarios.scenarios:
            base, _ = _loop_closure(star8.network, _dead(ZERO_PLAN, scenario))
            mit, _ = _loop_closure(star8.network, _dead(plan, scenario))
            buses = star8.network.buses
            num = sum((m - z) * b.p_load for b, m, z in zip(buses, mit, base))
            den = sum((1 - z) * b.p_load for b, z in zip(buses, base))
            if den > 0:
                exp_load += scenario.probability * num / den
        assert sc.load_proportion == pytest.approx(exp_load, abs=1e-12)


# -- the per-bus/per-branch loop spared_capacity replaced, kept as the reference --


def _dead(plan, scenario):
    """The substations a plan leaves dead in a scenario, as a plain loop."""
    return {k for k, lvl in scenario.levels.items() if plan.level_of(k) < lvl}


def _loop_spared_capacity(plan, network, scenario_set):
    from floodmit.analysis import SparedCapacity

    props = [0.0, 0.0, 0.0]
    absol = [0.0, 0.0, 0.0]
    for scenario in scenario_set.scenarios:
        base_bus, base_branch = _loop_closure(network, _dead(ZERO_PLAN, scenario))
        mit_bus, mit_branch = _loop_closure(network, _dead(plan, scenario))
        spared_load = lost_load = 0.0
        spared_gen = lost_gen = 0.0
        for bus, m, z in zip(network.buses, mit_bus, base_bus):
            gain = int(m) - int(z)
            lost = 1 - int(z)
            spared_load += gain * bus.p_load
            lost_load += lost * bus.p_load
            spared_gen += gain * bus.p_gen_max
            lost_gen += lost * bus.p_gen_max
        spared_flow = lost_flow = 0.0
        for br, m, z in zip(network.branches, mit_branch, base_branch):
            spared_flow += (int(m) - int(z)) * br.flow_limit
            lost_flow += (1 - int(z)) * br.flow_limit
        p = scenario.probability
        for slot, (num, den) in enumerate(
            ((spared_load, lost_load), (spared_gen, lost_gen), (spared_flow, lost_flow))
        ):
            if den > 0:
                props[slot] += p * num / den
            absol[slot] += p * num
    return SparedCapacity(*props, *absol)


@pytest.mark.parametrize("name", ["tiny3", "star8", "ring12", "coastal40"])
def test_spared_equals_the_loop_reference_bitwise(request, name):
    """Array spared capacity against the status-closure loop, compared with
    ``==``: every sum is a left fold in network order, so the floats match."""
    from conftest import random_plan

    fx = request.getfixturevalue(name)
    rng = np.random.default_rng(len(name))
    plans = [ZERO_PLAN, MitigationPlan({s.id: 2 for s in fx.network.substations})]
    plans += [random_plan(rng, fx.network) for _ in range(25)]
    levels = _levels(fx.network, fx.scenarios)
    for plan in plans:
        assert spared_capacity(plan, levels) == _loop_spared_capacity(
            plan, fx.network, fx.scenarios
        ), plan.levels


def test_spared_equals_the_loop_reference_on_random_instances():
    """Random loads, capacities and limits round differently when summed in
    another order (pairwise, say), so ``==`` here pins the order too."""
    from conftest import random_network, random_plan, random_scenario_set

    rng = np.random.default_rng(77)
    for _ in range(40):
        net = random_network(rng, n_subs=int(rng.integers(2, 14)))
        ss = random_scenario_set(rng, net, count=int(rng.integers(1, 24)))
        levels = _levels(net, ss)
        for _ in range(5):
            plan = random_plan(rng, net)
            assert spared_capacity(plan, levels) == _loop_spared_capacity(plan, net, ss)


def test_sweep_spared_rows_equal_the_loop_reference(coastal40):
    """Every row of a coastal40 sweep over budgets 0..11, whose spared
    capacity reads the sweep's shared level matrix."""
    report = sweep(coastal40.network, coastal40.scenarios,
                   CostSchedule.for_network(coastal40.network), r_hat=3, f_max=11)
    assert len(report.rows) == 12
    for row in report.rows:
        assert row.spared == _loop_spared_capacity(row.plan, coastal40.network, coastal40.scenarios)



def test_sweep_answers_match_the_pinned_reference(coastal40):
    """The objective, plan cost and plan of every budget of a coastal40 sweep
    over 0..11, against a reference written by an earlier version.  Node and
    pivot counts are not pinned: a stronger search may change them."""
    ref = Path(__file__).parent / "data" / "coastal40_sweep_budget11.csv"
    with open(ref, encoding="utf-8", newline="") as fh:
        expected = list(csv.DictReader(fh))
    report = sweep(coastal40.network, coastal40.scenarios,
                   CostSchedule.for_network(coastal40.network), r_hat=3, f_max=11)
    assert [row.budget for row in report.rows] == [int(e["budget"]) for e in expected]
    for row, e in zip(report.rows, expected):
        plan = " ".join(f"{k}:{v}" for k, v in sorted(row.plan.levels.items()))
        assert (row.status, plan, row.plan_cost) == ("optimal", e["plan"], int(e["plan_cost"])), e
        assert row.objective == pytest.approx(float(e["objective"]), abs=1e-12), e


# -- sweep -----------------------------------------------------------------


def test_sweep_zero_budget_single_row(tiny3):
    report = sweep(tiny3.network, tiny3.scenarios, CostSchedule.for_network(tiny3.network),
                   r_hat=3, f_max=0)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.plan == ZERO_PLAN
    no_mitigation = RecourseEvaluator(tiny3.network, tiny3.scenarios, W).evaluate(ZERO_PLAN).expected_loss
    assert row.objective == pytest.approx(no_mitigation, abs=1e-9)


def test_sweep_star8_monotone_and_endpoints(star8):
    sched = CostSchedule.for_network(star8.network)
    f_max = max_useful_budget(star8.scenarios, sched, 3)
    report = sweep(star8.network, star8.scenarios, sched, r_hat=3)
    assert report.f_max == f_max
    assert len(report.rows) == f_max + 1
    objs = [r.objective for r in report.rows]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-6
    assert report.rows[0].plan == ZERO_PLAN
    # At the top budget the optimum matches protecting every substation to
    # its worst preventable flood level.
    worst_preventable: dict[str, int] = {}
    for scenario in star8.scenarios.scenarios:
        for sub, lvl in scenario.levels.items():
            if lvl < 3:
                worst_preventable[sub] = max(worst_preventable.get(sub, 0), lvl)
    full = MitigationPlan(worst_preventable)
    best = RecourseEvaluator(star8.network, star8.scenarios, W).evaluate(full).expected_loss
    assert report.rows[-1].objective == pytest.approx(best, abs=1e-6)
    # Heuristic bookkeeping exists and the gap is finite everywhere.
    for row in report.rows:
        assert row.heuristic_best is not None
        assert row.heuristic_gap is not None and np.isfinite(row.heuristic_gap)
        assert row.heuristic_gap >= -1e-9


def test_sweep_evaluates_each_distinct_plan_once(star8, monkeypatch):
    # The greedy plans' best loss and every budget's warm pool (greedy plans
    # plus all earlier optima) read the evaluator, which keeps each plan's
    # evaluation: a plan's masks are built and its outcomes requested once.
    evaluated = []
    original = RecourseEvaluator.survivors

    def counting(self, plan):
        evaluated.append(plan.key())
        return original(self, plan)

    monkeypatch.setattr(RecourseEvaluator, "survivors", counting)
    sched = CostSchedule.for_network(star8.network)
    report = sweep(star8.network, star8.scenarios, sched, r_hat=3, f_max=8)
    assert all(r.status == "optimal" for r in report.rows)
    assert evaluated and len(evaluated) == len(set(evaluated))
    tables = build(sched, Budget(8), 3, RecourseEvaluator(star8.network, star8.scenarios, W))
    scenarios = len(star8.scenarios.scenarios)
    assert report.recourse_counters.outcomes == tables.stats["table_entries"] + scenarios * len(evaluated)


def test_sweep_uniqueness_probe(tiny3):
    report = sweep(tiny3.network, tiny3.scenarios, CostSchedule.for_network(tiny3.network),
                   r_hat=3, check_unique=True)
    by_budget = {r.budget: r for r in report.rows}
    assert by_budget[1].unique is False  # S1 and S2 tie at one segment
    assert by_budget[2].unique is True


def test_sweep_transitions_recorded(star8):
    sched = CostSchedule.for_network(star8.network)
    report = sweep(star8.network, star8.scenarios, sched, r_hat=3, f_max=6)
    assert report.transitions, "some plan change must occur over seven budgets"
    for t in report.transitions:
        assert t.from_level != t.to_level
        assert t.direction in ("up", "down")


# -- nestedness --------------------------------------------------------------


def _report_from_plans(plans):
    rows = [
        SweepRow(budget=f, status="optimal", objective=float(-f), plan=p, plan_cost=None,
                 spared=None, heuristic_best=None, heuristic_gap=None)
        for f, p in enumerate(plans)
    ]
    transitions = []
    for prev, cur in zip(rows, rows[1:]):
        for sub in sorted(set(prev.plan.levels) | set(cur.plan.levels)):
            a, b = prev.plan.level_of(sub), cur.plan.level_of(sub)
            if a != b:
                transitions.append(Transition(sub, cur.budget, a, b))
    return SweepReport(rows=rows, transitions=transitions, f_max=len(plans) - 1)


def test_nested_plans_have_no_violations():
    plans = [ZERO_PLAN, MitigationPlan({"A": 1}), MitigationPlan({"A": 1, "B": 1}),
             MitigationPlan({"A": 2, "B": 1})]
    diag = nestedness(_report_from_plans(plans))
    assert diag.nested
    assert diag.violations == []


def test_knapsack_budget_flip_detected_as_violation():
    # The classic flip: capacity 7 selects items 1 and 3, capacity 8 selects
    # item 2 alone; every decision changes, two of them downward.
    plan7 = MitigationPlan({"w1": 1, "w3": 1})
    plan8 = MitigationPlan({"w2": 1})
    diag = nestedness(_report_from_plans([plan7, plan8]))
    assert not diag.nested
    downs = {(t.substation, t.from_level, t.to_level) for t in diag.violations}
    assert downs == {("w1", 1, 0), ("w3", 1, 0)}


def test_nestedness_requires_two_budgets(tiny3):
    report = _report_from_plans([ZERO_PLAN])
    with pytest.raises(ValueError):
        nestedness(report)


def test_sweep_on_tiny3_is_nested(tiny3):
    report = sweep(tiny3.network, tiny3.scenarios, CostSchedule.for_network(tiny3.network), r_hat=3)
    diag = nestedness(report)
    assert isinstance(diag, NestednessReport)
    assert diag.nested  # two substations, one flood level: no reshuffling possible
