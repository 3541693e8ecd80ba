import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_network, random_plan, random_scenario_set
from floodmit.grid_model import Branch, Bus, GridNetwork, Substation, load_network
from floodmit.heuristic import (
    ETA_FLOW_GRID,
    AttributeWeights,
    Candidates,
    LevelMatrix,
    _best_upgrade,
    greedy,
    portfolio,
)
from floodmit.mitigation import Budget, CostSchedule, MitigationPlan, ZERO_PLAN, is_feasible, max_useful_budget
from floodmit.recourse import status_closure
from floodmit.scenario_model import FloodScenario, FloodScenarioSet, load_scenarios

ROOT = Path(__file__).resolve().parents[1]


def benefit(plan, candidate, weights, network, scenario_set) -> float:
    """Expected newly-operational capacity gained by upgrading plan to
    candidate, from status-closure differences: the reference for every
    candidate's value.

    Requires candidate >= plan componentwise; statuses are monotone in the
    plan, so the value is always nonnegative.
    """
    if any(candidate.level_of(k) < lvl for k, lvl in plan.levels.items()):
        raise ValueError("candidate must dominate the current plan")
    a = network.arrays
    rho_load = rho_gen = rho_flow = 0.0
    for scenario in scenario_set.scenarios:
        base_bus, base_branch = status_closure(network, plan, scenario)
        lift_bus, lift_branch = status_closure(network, candidate, scenario)
        p = scenario.probability
        bus, branch = lift_bus & ~base_bus, lift_branch & ~base_branch
        # Running sums in network order, as a loop over the gains would add.
        rho_load = sum((p * a.load[bus]).tolist(), rho_load)
        rho_gen = sum((p * a.gen_max[bus]).tolist(), rho_gen)
        rho_flow = sum((p * a.flow_limit[branch]).tolist(), rho_flow)
    return rho_load * weights.eta_load + rho_gen * weights.eta_gen + rho_flow * weights.eta_flow


def test_weights_validation():
    with pytest.raises(ValueError):
        AttributeWeights(0, 0, 0)
    with pytest.raises(ValueError):
        AttributeWeights(-1, 0, 1)


def test_benefit_of_unchanged_plan_is_zero(star8):
    plan = MitigationPlan({"S1": 1})
    assert benefit(plan, plan, AttributeWeights(1, 1, 1), star8.network, star8.scenarios) == 0.0


def test_benefit_requires_domination(star8):
    with pytest.raises(ValueError, match="dominate"):
        benefit(MitigationPlan({"S1": 2}), MitigationPlan({"S1": 1}),
                AttributeWeights(), star8.network, star8.scenarios)


def test_benefit_of_never_flooded_substation_is_zero(star8):
    # S0 floods only in w3 at level 1; protecting S3 to level 2 in a dry
    # scenario set must yield zero.
    dry = FloodScenarioSet(
        (FloodScenario("dry", 1.0, {}),), level_count=3, unattainable_level=3
    )
    val = benefit(ZERO_PLAN, MitigationPlan({"S3": 2}), AttributeWeights(1, 1, 1),
                  star8.network, dry)
    assert val == 0.0


def test_benefit_hand_computed_load_case():
    # One substation with a unit load, flooded preventably in 2 of 4
    # equiprobable scenarios: expected newly served load is 0.5.
    net = GridNetwork(
        buses=(Bus("B", "K", p_load=1.0, is_reference=True),),
        branches=(),
        substations=(Substation("K", "115_161"),),
    )
    ss = FloodScenarioSet(
        (
            FloodScenario("w1", 0.25, {"K": 1}),
            FloodScenario("w2", 0.25, {"K": 1}),
            FloodScenario("w3", 0.25, {}),
            FloodScenario("w4", 0.25, {"K": 3}),  # unpreventable
        ),
        level_count=3,
        unattainable_level=3,
    )
    val = benefit(ZERO_PLAN, MitigationPlan({"K": 1}), AttributeWeights(1, 0, 0), net, ss)
    assert val == pytest.approx(0.5)


def test_benefit_nonnegative_property(star8):
    rng = np.random.default_rng(17)
    for _ in range(40):
        base = random_plan(rng, star8.network)
        lift = MitigationPlan(
            {
                k: min(2, base.level_of(k) + int(rng.integers(0, 3)))
                for k in [s.id for s in star8.network.substations]
            }
        )
        if any(lift.level_of(k) < lvl for k, lvl in base.levels.items()):
            continue
        val = benefit(base, lift, AttributeWeights(1, 0.5, 0.25), star8.network, star8.scenarios)
        assert val >= 0


def test_greedy_zero_budget(star8):
    sched = CostSchedule.for_network(star8.network)
    plan = greedy(AttributeWeights(), Budget(0), LevelMatrix(star8.network, star8.scenarios, sched, 3))
    assert plan == ZERO_PLAN


def test_greedy_no_preventable_flooding_stops(star8):
    hopeless = FloodScenarioSet(
        (FloodScenario("w", 1.0, {"S1": 3, "S2": 4}),), level_count=4, unattainable_level=3
    )
    sched = CostSchedule.for_network(star8.network)
    plan = greedy(AttributeWeights(), Budget(10), LevelMatrix(star8.network, hopeless, sched, 3))
    assert plan == ZERO_PLAN  # positive budget, but benefit is zero everywhere


def test_greedy_hand_trace_on_tiny3(tiny3):
    # Hand trace, eta = (load 1, gen 0, flow 0), budget 2, both substations
    # flooded at level 1 in the only wet scenario (p = 0.5):
    #   iteration 1 candidates: S1->1 ratio 0.5*1.0/1, S2->1 ratio 0.5*1.0/1;
    #     tie broken lexicographically -> S1 to level 1.
    #   iteration 2: S2->1 ratio 0.5; S1->2 adds nothing (flood level is 1).
    #   budget exhausted; plan protects both to level 1.
    sched = CostSchedule.for_network(tiny3.network)
    levels = LevelMatrix(tiny3.network, tiny3.scenarios, sched, 3)
    plan = greedy(AttributeWeights(1, 0, 0), Budget(2), levels)
    assert plan.levels == {"S1": 1, "S2": 1}
    one = greedy(AttributeWeights(1, 0, 0), Budget(1), levels)
    assert one.levels == {"S1": 1}  # the lexicographic tie-break


def test_greedy_respects_budget_and_feasibility(star8):
    sched = CostSchedule.for_network(star8.network)
    levels = LevelMatrix(star8.network, star8.scenarios, sched, 3)
    for f in range(0, 15):
        plan = greedy(AttributeWeights(1, 0, 0.05), Budget(f), levels)
        assert is_feasible(plan, sched, Budget(f), 3)


def test_greedy_multi_level_jump():
    # The only useful move is straight to level 2; a single-step-only search
    # would stall because level 1 alone has zero benefit.
    net = GridNetwork(
        buses=(Bus("B", "K", p_load=1.0, is_reference=True),),
        branches=(),
        substations=(Substation("K", "115_161"),),
    )
    ss = FloodScenarioSet(
        (FloodScenario("w", 1.0, {"K": 2}),), level_count=3, unattainable_level=3
    )
    sched = CostSchedule.for_network(net)
    plan = greedy(AttributeWeights(1, 0, 0), Budget(3), LevelMatrix(net, ss, sched, 3))
    assert plan.levels == {"K": 2}


def test_greedy_deterministic(star8):
    sched = CostSchedule.for_network(star8.network)
    plans = {
        greedy(AttributeWeights(1, 0, 0.1), Budget(7), LevelMatrix(star8.network, star8.scenarios, sched, 3)).key()
        for _ in range(3)
    }
    assert len(plans) == 1


def _walk_states_against_benefit(network, scenarios, eta, budget, r_hat=3) -> int:
    """Run a greedy pass on the level matrix's state function and, before
    every purchase, compare its value for every affordable candidate with
    the plain closure-diff benefit; return the number of purchases."""
    sched = CostSchedule.for_network(network)
    levels = LevelMatrix(network, scenarios, sched, r_hat)
    cur = np.zeros(len(levels.sub_ids), dtype=int)
    plan, remaining, steps = ZERO_PLAN, budget, 0
    while True:
        (cand,) = levels.candidates([(eta, cur)])
        best = None
        for j, sub in enumerate(levels.sub_ids):
            cur_level = plan.level_of(sub)
            assert cur[j] == cur_level
            for target in range(cur_level + 1, r_hat):
                cost = sched.cumulative_cost(sub, target) - sched.cumulative_cost(sub, cur_level)
                if cost > remaining:
                    break
                slow = benefit(plan, MitigationPlan({**plan.levels, sub: target}), eta, network, scenarios)
                k = j * r_hat + target
                assert cand.cost[k] == cost
                # An upgrade that gains nothing has ratio -inf: it is worth 0.
                value = cand.ratio[k] * cost if cand.ratio[k] > -np.inf else 0.0
                assert value == pytest.approx(slow, abs=1e-12), (plan.levels, sub, target)
                if slow > 0 and (best is None or slow / cost > best[0]):
                    best = (slow / cost, j, sub, target, cost)
        if best is None:
            return steps
        _, j, sub, target, cost = best
        plan = MitigationPlan({**plan.levels, sub: target})
        remaining -= cost
        cur[j] = target
        steps += 1


def test_greedy_matches_public_benefit_ranking(star8):
    # The level matrix's state function inside greedy must agree with the
    # plain closure-diff benefit on every affordable candidate of every
    # step, so each state's alive matrix must follow its current levels.
    eta = AttributeWeights(1.0, 0.3, 0.2)
    assert _walk_states_against_benefit(star8.network, star8.scenarios, eta, 12) >= 4
    rng = np.random.default_rng(23)
    steps = 0
    for _ in range(20):
        net = random_network(rng, n_subs=int(rng.integers(3, 6)))
        ss = random_scenario_set(rng, net, count=int(rng.integers(3, 6)))
        steps += _walk_states_against_benefit(net, ss, eta, int(rng.integers(6, 14)))
    assert steps >= 40


# -- the dict-based greedy the array scorer replaced, kept as the reference --


class _DictGreedyContext:
    """Static per-network aggregates reused across greedy iterations."""

    def __init__(self, network, scenario_set):
        self.scenario_set = scenario_set
        self.sub_ids = [s.id for s in network.substations]
        self.sub_load = {s.id: 0.0 for s in network.substations}
        self.sub_gen = {s.id: 0.0 for s in network.substations}
        for bus in network.buses:
            self.sub_load[bus.substation_id] += bus.p_load
            self.sub_gen[bus.substation_id] += bus.p_gen_max
        sub_of = {b.id: b.substation_id for b in network.buses}
        self.intra_flow = {s.id: 0.0 for s in network.substations}
        self.cross = {s.id: [] for s in network.substations}
        for br in network.branches:
            sf, st = sub_of[br.from_bus], sub_of[br.to_bus]
            if sf == st:
                self.intra_flow[sf] += br.flow_limit
            else:
                self.cross[sf].append((st, br.flow_limit))
                self.cross[st].append((sf, br.flow_limit))

    def alive_map(self, plan):
        return [
            {k: plan.level_of(k) >= s.level_of(k) for k in self.sub_ids}
            for s in self.scenario_set.scenarios
        ]

    def upgrade_benefit(self, plan, alive, sub, target, weights):
        cur = plan.level_of(sub)
        value = 0.0
        for scenario, alive_w in zip(self.scenario_set.scenarios, alive):
            level = scenario.level_of(sub)
            if not (cur < level <= target):
                continue
            gained = (
                self.sub_load[sub] * weights.eta_load
                + self.sub_gen[sub] * weights.eta_gen
                + self.intra_flow[sub] * weights.eta_flow
            )
            if weights.eta_flow:
                for other, cap in self.cross[sub]:
                    if alive_w[other]:
                        gained += cap * weights.eta_flow
            value += scenario.probability * gained
        return value


def _dict_greedy(weights, budget, network, scenario_set, schedule, r_hat):
    ctx = _DictGreedyContext(network, scenario_set)
    plan = ZERO_PLAN
    remaining = budget.units
    alive = ctx.alive_map(plan)
    while remaining > 0:
        best = None  # (ratio, sub, target, cost)
        for sub in ctx.sub_ids:
            cur = plan.level_of(sub)
            for target in range(cur + 1, r_hat):
                cost = schedule.cumulative_cost(sub, target) - schedule.cumulative_cost(sub, cur)
                if cost > remaining:
                    break
                value = ctx.upgrade_benefit(plan, alive, sub, target, weights)
                if value <= 0:
                    continue
                ratio = value / cost
                if best is None or ratio > best[0] + 1e-12:
                    best = (ratio, sub, target, cost)
                elif abs(ratio - best[0]) <= 1e-12 and (sub, target) < (best[1], best[2]):
                    best = (ratio, sub, target, cost)
        if best is None:
            break
        _, sub, target, cost = best
        plan = MitigationPlan({**plan.levels, sub: target})
        remaining -= cost
        for scenario, alive_w in zip(scenario_set.scenarios, alive):
            alive_w[sub] = target >= scenario.level_of(sub)
    return plan


def _tie_prone_instance(rng, r_hat):
    """A random greedy input built to tie: a few discrete loads, capacities
    and flow limits, equiprobable scenarios, parallel cross-substation
    branches, and substations listed out of id order so that the scan order
    and the (id, level) tie-break disagree."""
    n = int(rng.integers(2, 9))
    ids = [f"S{k}" for k in range(n)]
    classes = ("115_161", "230", "500")
    substations = tuple(Substation(ids[k], classes[int(rng.integers(0, 3))]) for k in rng.permutation(n))
    buses = [
        Bus(f"B{k}_{b}", ids[k], p_load=float(rng.choice([0.0, 0.5, 1.0])),
            p_gen_max=float(rng.choice([0.0, 0.0, 1.0])))
        for k in range(n)
        for b in range(int(rng.integers(1, 3)))
    ]
    branches = []
    for e in range(int(rng.integers(1, 2 * n + 1))):
        a, b = rng.choice(len(buses), size=2, replace=False)
        copies = 2 if rng.random() < 0.3 else 1  # parallel branches
        for c in range(copies):
            branches.append(Branch(f"L{e}_{c}", buses[a].id, buses[b].id, 5.0,
                                   float(rng.choice([0.5, 1.0]))))
    count = int(rng.integers(1, 7))
    scenarios = tuple(
        FloodScenario(f"w{i}", 1.0 / count,
                      {k: int(rng.integers(1, r_hat + 1)) for k in ids if rng.random() < 0.5})
        for i in range(count)
    )
    net = GridNetwork(buses=tuple(buses), branches=tuple(branches), substations=substations)
    return net, FloodScenarioSet(scenarios, level_count=r_hat, unattainable_level=r_hat)


def test_greedy_matches_dict_reference_on_random_ties():
    rng = np.random.default_rng(2024)
    cases = 0
    for i in range(360):
        r_hat = (2, 3, 4)[i % 3]
        net, ss = _tie_prone_instance(rng, r_hat)
        sched = CostSchedule.for_network(net)
        eta = AttributeWeights(1.0, float(rng.choice([0.0, 0.5])), float(rng.choice([0.0, 0.05, 0.15])))
        budget = Budget(int(rng.integers(0, 12)))
        fast = greedy(eta, budget, LevelMatrix(net, ss, sched, r_hat))
        slow = _dict_greedy(eta, budget, net, ss, sched, r_hat)
        assert fast.key() == slow.key(), (i, budget, eta)
        cases += bool(slow.levels)
    assert cases >= 200


def _shared_matrix_matches_dict_reference(net, ss, r_hat, budgets, monkeypatch):
    """Greedy passes over ``budgets`` x ``ETA_FLOW_GRID`` on one level
    matrix give the dict greedy's plans, and the matrix scores each state
    it is asked for exactly once.  Returns the number of state requests
    and of states scored."""
    sched = CostSchedule.for_network(net)
    levels = LevelMatrix(net, ss, sched, r_hat)
    requested = []
    real = LevelMatrix.candidates

    def candidates(self, states):
        requested.extend((weights, cur.tobytes()) for weights, cur in states)
        return real(self, states)

    monkeypatch.setattr(LevelMatrix, "candidates", candidates)
    for f in budgets:
        for eta_flow in ETA_FLOW_GRID:
            eta = AttributeWeights(1.0, 0.0, eta_flow)
            fast = greedy(eta, Budget(f), levels)
            assert fast.key() == _dict_greedy(eta, Budget(f), net, ss, sched, r_hat).key(), (f, eta_flow)
    assert levels.counters.passes == len(budgets) * len(ETA_FLOW_GRID)
    assert levels.counters.states_scored == len(set(requested))
    return len(requested), levels.counters.states_scored


@pytest.mark.parametrize("name", ["star8", "coastal40"])
def test_one_level_matrix_across_budgets_and_flow_weights(request, monkeypatch, name):
    fx = request.getfixturevalue(name)
    f_max = max_useful_budget(fx.scenarios, CostSchedule.for_network(fx.network), 3)
    requests, scored = _shared_matrix_matches_dict_reference(
        fx.network, fx.scenarios, 3, range(f_max + 1), monkeypatch
    )
    assert requests > 2 * scored  # states repeat across budgets and weights


def test_one_level_matrix_on_random_ties(monkeypatch):
    rng = np.random.default_rng(77)
    repeated = 0
    for i in range(60):
        r_hat = (2, 3, 4)[i % 3]
        net, ss = _tie_prone_instance(rng, r_hat)
        requests, scored = _shared_matrix_matches_dict_reference(net, ss, r_hat, range(12), monkeypatch)
        repeated += requests > scored
    assert repeated > 40


def _full_scan(cand, remaining, subs):
    """The greedy's candidate rule as a literal scan over every candidate
    of finite ratio, by substation in network order, then by target."""
    r_hat = len(cand.ratio) // len(subs)
    best = None
    for k, (cost, ratio) in enumerate(zip(cand.cost.tolist(), cand.ratio.tolist())):
        if ratio == -np.inf or cost > remaining:
            continue
        sub, t = subs[k // r_hat], k % r_hat
        if best is None or ratio > best[0] + 1e-12:
            best = (ratio, sub, t, k)
        elif abs(ratio - best[0]) <= 1e-12 and (sub, t) < (best[1], best[2]):
            best = (ratio, sub, t, k)
    return None if best is None else best[3]


def test_best_upgrade_equals_the_full_scan_on_chains_of_near_ties():
    """Ratios on rungs 0.85e-12 apart form chains of near ties, where the
    scan's pick depends on candidates several rungs below the largest ratio;
    skipping the ones that cannot win must not change the pick.  Keeping
    only the ratios within 2e-12 of the largest fails this.  Upgrades that
    are not candidates (ratio -inf) cost nothing here, so a scan that takes
    one fails too."""
    rng = np.random.default_rng(4242)
    picked_below_max = 0
    for _ in range(3000):
        n_subs = int(rng.integers(1, 8))
        subs = tuple(f"S{k}" for k in rng.permutation(n_subs))  # scan order differs from id order
        pairs = [(j, t) for j in range(n_subs) for t in (1, 2) if rng.random() < 0.8]
        if not pairs:
            continue
        # Rungs 0.85e-12 apart: neighbours tie, rungs two apart do not.
        rungs = rng.integers(0, 6, len(pairs)) * 0.85e-12 + (rng.random(len(pairs)) < 0.2) * 1e-9
        listed = float(rng.choice([0.5, 1.0, 37.0])) + rungs
        flat = np.array([j * 3 + t for j, t in pairs])  # r_hat 3: targets 1 and 2
        ratio = np.full(3 * n_subs, -np.inf)
        ratio[flat] = listed
        cost = np.zeros(3 * n_subs, dtype=np.int64)
        cost[flat] = rng.integers(1, 6, len(pairs))
        cand = Candidates(cost, ratio, np.argsort(-ratio, kind="stable"))
        remaining = int(rng.integers(0, 7))
        expected = _full_scan(cand, remaining, subs)
        assert _best_upgrade(cand, remaining, subs) == expected
        affordable = ratio[(cost <= remaining) & (ratio > -np.inf)]
        if expected is not None and ratio[expected] < affordable.max():
            picked_below_max += 1
    assert picked_below_max > 100


def test_portfolio_grid_and_dedupe(star8):
    sched = CostSchedule.for_network(star8.network)
    assert ETA_FLOW_GRID == (0.0, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15)
    plans = portfolio(Budget(9), LevelMatrix(star8.network, star8.scenarios, sched, 3))
    assert 1 <= len(plans) <= 7
    keys = [p.key() for p in plans]
    assert len(keys) == len(set(keys))
    for p in plans:
        assert is_feasible(p, sched, Budget(9), 3)


def test_portfolio_collapses_when_flow_weight_irrelevant():
    # No branches at all: flow weighting can never change the greedy path.
    net = GridNetwork(
        buses=(Bus("B", "K", p_load=1.0, is_reference=True),),
        branches=(),
        substations=(Substation("K", "115_161"),),
    )
    ss = FloodScenarioSet(
        (FloodScenario("w", 1.0, {"K": 1}),), level_count=3, unattainable_level=3
    )
    plans = portfolio(Budget(3), LevelMatrix(net, ss, CostSchedule.for_network(net), 3))
    assert len(plans) == 1


# -- the lockstep passes against one pass at a time --


@pytest.fixture(scope="module")
def corridor(tmp_path_factory):
    """The generated corridor instance of the benchmark's portfolio
    workload (30 substations, 32 scenarios)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    net_path, scen_path = workloads.write_inputs(
        *workloads.WORKLOADS["portfolio-gen"].docs(), tmp_path_factory.mktemp("corridor")
    )
    return load_network(net_path), load_scenarios(scen_path)


def _lockstep_matches_reference_passes(net, ss, r_hat, budgets, monkeypatch):
    """Per budget, ``portfolio`` gives the deduplicated plans of one
    ``greedy`` pass per flow weight, in grid order, and its matrix scores
    every state those passes visit exactly once."""
    sched = CostSchedule.for_network(net)
    lockstep, reference = LevelMatrix(net, ss, sched, r_hat), LevelMatrix(net, ss, sched, r_hat)
    visited, scored = set(), []
    real_candidates, real_score = LevelMatrix.candidates, LevelMatrix._score

    def candidates(self, states):
        if self is reference:
            visited.update((weights, cur.tobytes()) for weights, cur in states)
        return real_candidates(self, states)

    def score(self, states):
        if self is lockstep:
            scored.extend((weights, cur.tobytes()) for weights, cur in states)
        return real_score(self, states)

    monkeypatch.setattr(LevelMatrix, "candidates", candidates)
    monkeypatch.setattr(LevelMatrix, "_score", score)
    grid = [AttributeWeights(1.0, 0.0, eta_flow) for eta_flow in ETA_FLOW_GRID]
    for f in budgets:
        expected = []
        for weights in grid:
            key = greedy(weights, Budget(f), reference).key()
            if key not in expected:
                expected.append(key)
        assert [plan.key() for plan in portfolio(Budget(f), lockstep)] == expected, f
    assert lockstep.counters.passes == reference.counters.passes == len(budgets) * len(grid)
    assert len(scored) == len(set(scored)) == lockstep.counters.states_scored
    assert set(scored) == visited
    assert lockstep.counters.states_scored == reference.counters.states_scored
    return len(visited)


@pytest.mark.parametrize("name", ["star8", "coastal40"])
def test_portfolio_equals_one_greedy_pass_per_flow_weight(request, monkeypatch, name):
    fx = request.getfixturevalue(name)
    f_max = max_useful_budget(fx.scenarios, CostSchedule.for_network(fx.network), 3)
    assert _lockstep_matches_reference_passes(fx.network, fx.scenarios, 3, range(f_max + 1), monkeypatch) > 20


def test_portfolio_equals_one_greedy_pass_per_flow_weight_on_the_corridor(corridor, monkeypatch):
    net, ss = corridor
    assert _lockstep_matches_reference_passes(net, ss, 3, (15, 30, 60), monkeypatch) > 200


def test_portfolio_equals_one_greedy_pass_per_flow_weight_on_random_ties(monkeypatch):
    rng = np.random.default_rng(1905)
    states = 0
    for i in range(72):
        net, ss = _tie_prone_instance(rng, (2, 3, 4)[i % 3])
        states += _lockstep_matches_reference_passes(net, ss, ss.level_count, range(12), monkeypatch)
    assert states > 500


def _single_state_scores(levels, weights, cur):
    """One state's upgrades scored on their own, as arrays over the
    candidates that help (cost > 0 and value > 0, by substation, then
    target): cost, ratio, flat index ``column * r_hat + target`` and order
    by ratio; plus the cost of every upgrade, flat.  The reference for each
    row of the batched scoring."""
    own = levels.load * weights.eta_load + levels.gen * weights.eta_gen + levels.intra * weights.eta_flow
    gained = np.repeat(own[None, :], len(levels.p), axis=0)
    if weights.eta_flow:
        gained = gained + weights.eta_flow * ((levels.levels <= cur) @ levels.cross)
    table = np.einsum("lsj,sj->lj", levels.at_level, gained)
    values = np.cumsum(np.where(levels.level_rows > cur, table, 0.0), axis=0).T
    every_cost = levels.cumulative - levels.cumulative[levels.columns, cur][:, None]
    ok = (every_cost > 0) & (values > 0)
    cost = every_cost[ok]
    ratio = values[ok] / cost
    return cost, ratio, np.flatnonzero(ok), np.argsort(-ratio, kind="stable"), every_cost.ravel()


def _batches_equal_single_state_scoring(net, ss, r_hat, budgets, monkeypatch):
    """Every batch the lockstep passes score, row by row, bit for bit
    against :func:`_single_state_scores`; returns the number of rows in
    batches of more than one state."""
    levels = LevelMatrix(net, ss, CostSchedule.for_network(net), r_hat)
    real_score = LevelMatrix._score
    batches = []

    def score(self, states):
        rows = real_score(self, states)
        batches.append(([(weights, cur.copy()) for weights, cur in states], rows))
        return rows

    monkeypatch.setattr(LevelMatrix, "_score", score)
    for f in budgets:
        portfolio(Budget(f), levels)
    shared = 0
    for states, rows in batches:
        shared += len(states) if len(states) > 1 else 0
        for (weights, cur), row in zip(states, rows):
            cost, ratio, flat, rank, every_cost = _single_state_scores(levels, weights, cur)
            helps = row.ratio > -np.inf
            assert np.array_equal(np.flatnonzero(helps), flat)
            assert row.cost.tobytes() == every_cost.tobytes()
            assert row.ratio[helps].tobytes() == ratio.tobytes()
            # Candidates by ratio, then the rest in flat order.
            assert np.array_equal(row.rank, np.concatenate([flat[rank], np.flatnonzero(~helps)]))
    return shared


@pytest.mark.parametrize("name", ["star8", "coastal40"])
def test_batched_scores_equal_single_state_scores(request, monkeypatch, name):
    fx = request.getfixturevalue(name)
    f_max = max_useful_budget(fx.scenarios, CostSchedule.for_network(fx.network), 3)
    assert _batches_equal_single_state_scoring(fx.network, fx.scenarios, 3, range(f_max + 1), monkeypatch) > 30


def test_batched_scores_equal_single_state_scores_on_the_corridor(corridor, monkeypatch):
    net, ss = corridor
    assert _batches_equal_single_state_scoring(net, ss, 3, (15, 30, 60), monkeypatch) > 200


def test_batched_scores_equal_single_state_scores_on_random_ties(monkeypatch):
    rng = np.random.default_rng(8128)
    shared = 0
    for i in range(60):
        net, ss = _tie_prone_instance(rng, (2, 3, 4)[i % 3])
        shared += _batches_equal_single_state_scoring(net, ss, ss.level_count, range(12), monkeypatch)
    assert shared > 300
