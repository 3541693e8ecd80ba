import numpy as np
import pytest

from floodmit.grid_model import Bus, GridNetwork, Substation
from floodmit.mitigation import (
    BASE_UNITS_BY_CLASS,
    Budget,
    CostSchedule,
    MitigationPlan,
    PlanFormatError,
    ZERO_PLAN,
    enumerate_plans,
    is_feasible,
    load_plan,
    max_useful_budget,
    plan_cost,
    plan_from_dict,
    save_plan,
)
from floodmit.scenario_model import FloodScenario, FloodScenarioSet


def _schedule(**subs):
    return CostSchedule(dict(subs))


def test_marginal_costs_by_class():
    # Segments per ring: small substations 1, medium 2, large 3; stacking
    # level r costs base * r more.
    assert BASE_UNITS_BY_CLASS == {"115_161": 1, "230": 2, "500": 3}
    s = _schedule(small=1, big=3)
    assert [s.marginal_cost("small", r) for r in (1, 2, 3)] == [1, 2, 3]
    assert [s.marginal_cost("big", r) for r in (1, 2, 3)] == [3, 6, 9]


def test_plan_cost_cases():
    s = _schedule(a=1, b=2)
    assert plan_cost(ZERO_PLAN, s) == 0
    assert plan_cost(MitigationPlan({"a": 2}), s) == 3  # 1 + 2
    assert plan_cost(MitigationPlan({"a": 1, "b": 1}), s) == 3  # 1 + 2


def test_500kv_level2_exceeds_budget_8():
    s = _schedule(big=3)
    plan = MitigationPlan({"big": 2})  # 3 + 6 = 9 segments
    assert plan_cost(plan, s) == 9
    assert not is_feasible(plan, s, Budget(8), r_hat=3)
    assert is_feasible(plan, s, Budget(9), r_hat=3)


def test_zero_plan_always_feasible():
    s = _schedule(a=1)
    assert is_feasible(ZERO_PLAN, s, Budget(0), r_hat=3)


def test_unattainable_level_infeasible():
    s = _schedule(a=1)
    assert not is_feasible(MitigationPlan({"a": 3}), s, Budget(100), r_hat=3)
    assert is_feasible(MitigationPlan({"a": 3}), s, Budget(100), r_hat=4)


def test_feasibility_monotone_in_budget():
    rng = np.random.default_rng(3)
    s = _schedule(a=1, b=2, c=3)
    for _ in range(200):
        plan = MitigationPlan({k: int(rng.integers(0, 3)) for k in "abc"})
        f = int(rng.integers(0, 15))
        if is_feasible(plan, s, Budget(f), 3):
            assert is_feasible(plan, s, Budget(f + 1), 3)


def _net_one_sub(cls="115_161"):
    return GridNetwork(
        buses=(Bus("B", "K", p_load=1.0, is_reference=True),),
        branches=(),
        substations=(Substation("K", cls),),
    )


def _scenario_set(levels_per_scenario, level_count=3):
    n = len(levels_per_scenario)
    return FloodScenarioSet(
        tuple(
            FloodScenario(f"w{i}", 1.0 / n, lv) for i, lv in enumerate(levels_per_scenario)
        ),
        level_count=level_count,
        unattainable_level=min(3, level_count),
    )


def test_max_useful_budget_nothing_floods():
    net = _net_one_sub()
    ss = _scenario_set([{}])
    assert max_useful_budget(ss, CostSchedule.for_network(net), 3) == 0


def test_max_useful_budget_counts_worst_preventable():
    # Worst preventable level 2 on a small substation: 1 + 2 segments.
    net = _net_one_sub()
    ss = _scenario_set([{"K": 1}, {"K": 2}])
    assert max_useful_budget(ss, CostSchedule.for_network(net), 3) == 3


def test_max_useful_budget_ignores_unpreventable():
    net = _net_one_sub()
    ss = _scenario_set([{"K": 3}])
    assert max_useful_budget(ss, CostSchedule.for_network(net), 3) == 0
    # With the cap raised the same flood becomes preventable (1+2+3 segments).
    assert max_useful_budget(ss, CostSchedule.for_network(net), 4) == 6


def test_enumerate_single_substation():
    s = _schedule(a=1)
    plans = list(enumerate_plans(s, Budget(3), r_hat=3))
    assert sorted(p.level_of("a") for p in plans) == [0, 1, 2]


def test_enumerate_two_substations_budget_one():
    s = _schedule(a=1, b=1)
    plans = {p.key() for p in enumerate_plans(s, Budget(1), r_hat=3)}
    assert plans == {(), (("a", 1),), (("b", 1),)}


def test_enumerate_zero_budget():
    s = _schedule(a=1, b=3)
    assert [p.key() for p in enumerate_plans(s, Budget(0), r_hat=3)] == [()]


def _recursive_count(schedule, subs, budget, r_hat):
    if not subs:
        return 1
    head, *rest = subs
    total = 0
    for lvl in range(0, r_hat):
        c = schedule.cumulative_cost(head, lvl)
        if c > budget:
            break
        total += _recursive_count(schedule, rest, budget - c, r_hat)
    return total


def test_enumerate_count_matches_recursive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        schedule = CostSchedule({f"s{i}": int(rng.integers(1, 4)) for i in range(n)})
        budget = Budget(int(rng.integers(0, 12)))
        r_hat = int(rng.choice([3, 4]))
        plans = list(enumerate_plans(schedule, budget, r_hat))
        assert len(plans) == _recursive_count(schedule, sorted(schedule.base_units), budget.units, r_hat)
        keys = {p.key() for p in plans}
        assert len(keys) == len(plans)  # each plan exactly once
        assert all(is_feasible(p, schedule, budget, r_hat) for p in plans)


def test_enumeration_guard():
    schedule = CostSchedule({f"s{i}": 1 for i in range(20)})
    with pytest.raises(ValueError, match="guard"):
        list(enumerate_plans(schedule, Budget(100), r_hat=4))


def test_plan_files_round_trip(tmp_path):
    plan = MitigationPlan({"S2": 2, "S1": 1, "S3": 0})
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    again = load_plan(path)
    assert again == plan
    assert again.levels == {"S1": 1, "S2": 2}  # level-0 entries dropped


def test_plan_file_errors():
    with pytest.raises(PlanFormatError):
        plan_from_dict({"levels": {"a": -1}})
    with pytest.raises(PlanFormatError):
        plan_from_dict({"level": {}})


def test_plan_levels_reject_fractions_and_booleans():
    assert plan_from_dict({"levels": {"S1": 2.0}}).levels == {"S1": 2}
    with pytest.raises(PlanFormatError, match="plan: level at S1 must be an integer, not 1.9"):
        plan_from_dict({"levels": {"S1": 1.9}})
    with pytest.raises(PlanFormatError, match="plan: level at S1 must be a number, not True"):
        plan_from_dict({"levels": {"S1": True}})


def test_plan_file_bytes_are_pinned(tmp_path):
    """Plan files go through the package's one JSON writer: indent 2, keys
    sorted, a final newline."""
    path = tmp_path / "plan.json"
    save_plan(MitigationPlan({"b": 2, "a": 1}), path)
    assert path.read_bytes() == b'{\n  "levels": {\n    "a": 1,\n    "b": 2\n  }\n}\n'
