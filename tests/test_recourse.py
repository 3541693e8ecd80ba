import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from floodmit import simplex
from conftest import (
    _loop_closure, random_network, random_plan, random_scenario_set, scaled_flow_limits, survival_masks,
)
from floodmit.grid_model import Branch, Bus, GridNetwork, Substation, validate
from floodmit.heuristic import LevelMatrix
from floodmit.mitigation import CostSchedule, MitigationPlan, ZERO_PLAN
from floodmit.recourse import (
    LossWeights,
    RecourseEvaluator,
    _island_basis,
    _islands,
    _plate,
    _witness,
    _recourse_arrays,
    solve_recourse_lp,
    status_closure,
)
from floodmit.scenario_model import FloodScenario, FloodScenarioSet


# The tests that request arbitrary dead sets serve an instance of one dry
# scenario: a request's loss depends on its survival mask alone.
DRY = FloodScenarioSet((FloodScenario("dry", 1.0, {}),), level_count=3, unattainable_level=3)


def _masks(network, dead):
    """Bus and branch masks of a dead set, from the arrays' closure."""
    return network.arrays.closure(survival_masks(network, [dead])[0])


def _outcome(evaluator, dead):
    """(loss, served, shed, overgeneration) of one dead set, requested as
    an outcome of the evaluator's first scenario."""
    o = evaluator.scenario_outcome(0, survival_masks(evaluator.network, [dead])[0])
    return o.loss, o.served_load, o.shed_load, o.overgeneration


def _island_bound(network, dead, weights):
    """The island copper-plate bound of one dead set: its islands' plates
    side by side, and the load of its dead buses shed."""
    served, over = _plate(_islands(network, survival_masks(network, [dead]))[1])
    shed = network.total_load - sum(served.tolist())
    return weights.lambda_shed * shed + weights.lambda_over * sum(over.tolist())


def two_bus_network():
    return GridNetwork(
        buses=(
            Bus("A", "SA", p_gen_min=0.0, p_gen_max=2.0, is_reference=True),
            Bus("B", "SB", p_load=1.0),
        ),
        branches=(Branch("AB", "A", "B", susceptance=-10.0, flow_limit=1.5),),
        substations=(Substation("SA", "115_161"), Substation("SB", "115_161")),
    )


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(0.0, 0.0)
    with pytest.raises(ValueError):
        LossWeights(-1.0, 1.0)


# -- status closure ----------------------------------------------------


def test_closure_unprotected_flood_kills_substation(tiny3):
    bus_up, branch_up = status_closure(tiny3.network, ZERO_PLAN, FloodScenario("w", 1.0, {"S2": 1}))
    assert [b.id for b in tiny3.network.buses] == ["B1", "B2", "B3"]
    assert [br.id for br in tiny3.network.branches] == ["L1", "L2"]
    assert bus_up.tolist() == [True, False, False]
    assert branch_up.tolist() == [False, False]  # incident branches go down too


def test_closure_sufficient_protection(tiny3):
    plan = MitigationPlan({"S2": 2})
    bus_up, branch_up = status_closure(tiny3.network, plan, FloodScenario("w", 1.0, {"S2": 2}))
    assert bus_up.tolist() == [True, True, True]
    assert branch_up.tolist() == [True, True]


def test_closure_flood_at_unattainable_level(tiny3):
    # Plans never reach level 3, so a level-3 flood always wins.
    plan = MitigationPlan({"S2": 2})
    bus_up, _ = status_closure(tiny3.network, plan, FloodScenario("w", 1.0, {"S2": 3}))
    assert not bus_up[1] and not bus_up[2]  # B2 and B3


def test_closure_statuses_consistent_within_substation(star8):
    rng = np.random.default_rng(0)
    pos = {b.id: i for i, b in enumerate(star8.network.buses)}
    for _ in range(20):
        plan = random_plan(rng, star8.network)
        scenario = star8.scenarios.scenarios[int(rng.integers(0, 4))]
        bus_up, branch_up = status_closure(star8.network, plan, scenario)
        for sub in star8.network.substations:
            vals = {bool(up) for b, up in zip(star8.network.buses, bus_up) if b.substation_id == sub.id}
            assert len(vals) == 1
        for e, br in enumerate(star8.network.branches):
            assert branch_up[e] == bus_up[pos[br.from_bus]] * bus_up[pos[br.to_bus]]


def test_every_status_consumer_follows_the_loop_closure():
    """The arrays' closure, ``status_closure``, ``LevelMatrix.statuses``
    (per scenario) and the islands of ``_islands`` (one stack of every
    scenario's dead set, its buses and live branches) all give the loop's
    statuses, on random
    networks with random, no and all substations dead.  A closure that keeps
    a branch with one dead end alive fails this."""
    rng = np.random.default_rng(1212)
    for _ in range(40):
        net = random_network(rng)
        subs = [s.id for s in net.substations]
        floods = [s.levels for s in random_scenario_set(rng, net, count=4).scenarios]
        floods += [{}, {k: 4 for k in subs}]  # none dead, then all dead
        scenarios = tuple(FloodScenario(f"s{i}", 1 / len(floods), f) for i, f in enumerate(floods))
        scenario_set = FloodScenarioSet(scenarios, level_count=3, unattainable_level=3)
        plan = random_plan(rng, net)
        levels = LevelMatrix(net, scenario_set, CostSchedule.for_network(net), 3)
        bus_rows, branch_rows = levels.statuses(plan)
        dead_sets = [tuple(k for k, lvl in sc.levels.items() if plan.level_of(k) < lvl) for sc in scenarios]
        row, stack = _islands(net, survival_masks(net, dead_sets))
        for s, (scenario, dead) in enumerate(zip(scenarios, dead_sets)):
            bus_ref, branch_ref = _loop_closure(net, set(dead))
            a = net.arrays
            bus_up, branch_up = a.closure(survival_masks(net, [dead])[0])
            assert bus_up.tolist() == bus_ref and branch_up.tolist() == branch_ref
            bus_mask, branch_mask = status_closure(net, plan, scenario)
            assert bus_mask.tolist() == bus_ref and branch_mask.tolist() == branch_ref
            assert bus_rows[s].tolist() == [float(up) for up in bus_ref]
            assert branch_rows[s].tolist() == [float(up) for up in branch_ref]
            assert stack.buses[row == s].any(axis=0).tolist() == bus_ref
            assert stack.live_branches[row == s].any(axis=0).tolist() == branch_ref
        assert not any(bus_rows[-1]) and not any(branch_rows[-1])
        assert all(bus_rows[-2]) and all(branch_rows[-2])


def test_survivors_are_the_masks_of_status_closure():
    """A plan's requests, the rows of ``evaluator.survivors(plan)``, close
    to the bus and branch masks of ``status_closure`` in every scenario and
    hold the loop's dead set, and each outcome lists that dead set sorted;
    on random instances with random plans, the zero plan and every
    substation at level 2."""
    rng = np.random.default_rng(3131)
    for _ in range(30):
        net = random_network(rng)
        drawn = random_scenario_set(rng, net, count=int(rng.integers(1, 6)))
        # Levels listed in reverse id order, so an unsorted dead list shows.
        scenario_set = dataclasses.replace(drawn, scenarios=tuple(
            dataclasses.replace(s, levels=dict(reversed(s.levels.items()))) for s in drawn.scenarios
        ))
        evaluator = RecourseEvaluator(net, scenario_set, LossWeights())
        top = MitigationPlan({s.id: 2 for s in net.substations})
        for plan in [random_plan(rng, net) for _ in range(3)] + [ZERO_PLAN, top]:
            up = evaluator.survivors(plan)
            assert up.dtype == bool and up.shape == (len(scenario_set.scenarios), len(net.substations))
            outcomes = evaluator.evaluate(plan).outcomes
            for s, scenario in enumerate(scenario_set.scenarios):
                bus_up, branch_up = status_closure(net, plan, scenario)
                bus_mask, branch_mask = net.arrays.closure(up[s])
                assert bus_mask.tolist() == bus_up.tolist() and branch_mask.tolist() == branch_up.tolist()
                dead = {k for k, lvl in scenario.levels.items() if plan.level_of(k) < lvl}
                assert up[s].tolist() == survival_masks(net, [dead])[0].tolist()
                assert outcomes[s].dead_substations == tuple(sorted(dead))


def test_closure_monotone_in_plan(star8):
    rng = np.random.default_rng(1)
    for _ in range(30):
        base = random_plan(rng, star8.network)
        bigger = MitigationPlan(
            {k: min(2, v + int(rng.integers(0, 2))) for k, v in base.levels.items()}
        )
        for scenario in star8.scenarios.scenarios:
            lo_bus, lo_branch = status_closure(star8.network, base, scenario)
            hi_bus, hi_branch = status_closure(star8.network, bigger, scenario)
            assert all(hi_bus >= lo_bus)
            assert all(hi_branch >= lo_branch)


# -- dispatch LP ---------------------------------------------------------


def test_two_bus_fully_operational():
    net = two_bus_network()
    st = status_closure(net, ZERO_PLAN, FloodScenario("dry", 1.0, {}))
    loss, disp = solve_recourse_lp(net, st, LossWeights())
    assert loss == pytest.approx(0.0, abs=1e-9)
    assert disp.p_flow[0] == pytest.approx(1.0, abs=1e-9)  # AB
    assert disp.delta[1] == pytest.approx(1.0, abs=1e-9)  # B


def test_flooded_load_bus_sheds_its_load():
    net = two_bus_network()
    st = status_closure(net, ZERO_PLAN, FloodScenario("w", 1.0, {"SB": 1}))
    loss, disp = solve_recourse_lp(net, st, LossWeights())
    assert loss >= 1.0 - 1e-9  # at least lambda_shed * p_load
    assert disp.delta[1] == 0.0  # B
    assert disp.p_flow[0] == 0.0  # AB: island consistency


def test_everything_down_total_shed(tiny3):
    st = status_closure(
        tiny3.network, ZERO_PLAN, FloodScenario("w", 1.0, {"S1": 1, "S2": 1})
    )
    loss, disp = solve_recourse_lp(tiny3.network, st, LossWeights())
    assert loss == pytest.approx(tiny3.network.total_load, abs=1e-9)
    assert all(v == 0.0 for v in disp.p_hat)
    assert all(v == 0.0 for v in disp.p_flow)


def test_forced_minimum_generation_pays_overgen():
    # Islanded generator with a positive lower bound and no load: the slack
    # absorbs the forced output at cost lambda_over per unit.
    net = GridNetwork(
        buses=(Bus("G", "SG", p_gen_min=0.5, p_gen_max=1.0, is_reference=True),),
        branches=(),
        substations=(Substation("SG", "115_161"),),
    )
    st = status_closure(net, ZERO_PLAN, FloodScenario("dry", 1.0, {}))
    loss, disp = solve_recourse_lp(net, st, LossWeights(lambda_shed=1.0, lambda_over=2.0))
    assert loss == pytest.approx(1.0, abs=1e-9)  # 2.0 * 0.5
    assert disp.p_hat[0] == pytest.approx(0.5)  # G
    assert disp.p_check[0] == pytest.approx(0.5)


def test_delta_zero_when_cut_off_from_generation():
    # Operational load bus with no path to any generator: balance forces
    # its served fraction to zero without any dedicated constraint.
    net = GridNetwork(
        buses=(
            Bus("A", "SA", p_gen_min=0.0, p_gen_max=2.0, is_reference=True),
            Bus("B", "SB", p_load=1.0),
        ),
        branches=(),
        substations=(Substation("SA", "115_161"), Substation("SB", "115_161")),
    )
    st = status_closure(net, ZERO_PLAN, FloodScenario("dry", 1.0, {}))
    loss, disp = solve_recourse_lp(net, st, LossWeights())
    assert disp.delta[1] == pytest.approx(0.0, abs=1e-9)  # B
    assert loss == pytest.approx(1.0, abs=1e-9)


def test_flow_limit_binds():
    net = GridNetwork(
        buses=(
            Bus("A", "SA", p_gen_min=0.0, p_gen_max=5.0, is_reference=True),
            Bus("B", "SB", p_load=2.0),
        ),
        branches=(Branch("AB", "A", "B", susceptance=-10.0, flow_limit=1.2),),
        substations=(Substation("SA", "115_161"), Substation("SB", "115_161")),
    )
    st = status_closure(net, ZERO_PLAN, FloodScenario("dry", 1.0, {}))
    loss, disp = solve_recourse_lp(net, st, LossWeights())
    assert disp.p_flow[0] == pytest.approx(1.2, abs=1e-9)  # AB
    assert loss == pytest.approx(0.8, abs=1e-9)  # 2.0 - 1.2 shed


def test_angle_difference_limits_flow():
    # |flow| = |b| * |angle spread| <= |b| * diff_max = 2 * 0.1 = 0.2.
    net = GridNetwork(
        buses=(
            Bus("A", "SA", p_gen_min=0.0, p_gen_max=5.0, is_reference=True),
            Bus("B", "SB", p_load=1.0),
        ),
        branches=(Branch("AB", "A", "B", susceptance=-2.0, flow_limit=5.0),),
        substations=(Substation("SA", "115_161"), Substation("SB", "115_161")),
        angle_abs_max=1.0,
        angle_diff_max=0.1,
    )
    st = status_closure(net, ZERO_PLAN, FloodScenario("dry", 1.0, {}))
    loss, disp = solve_recourse_lp(net, st, LossWeights())
    assert abs(disp.p_flow[0]) <= 0.2 + 1e-9  # AB
    assert loss == pytest.approx(0.8, abs=1e-9)


# -- plan evaluation ------------------------------------------------------


def test_evaluate_zero_flood_equals_intact_loss(tiny3):
    dry = FloodScenarioSet(
        (FloodScenario("dry", 1.0, {}),), level_count=3, unattainable_level=3
    )
    ev = RecourseEvaluator(tiny3.network, dry, LossWeights()).evaluate(ZERO_PLAN)
    st = status_closure(tiny3.network, ZERO_PLAN, dry.scenarios[0])
    loss, _ = solve_recourse_lp(tiny3.network, st, LossWeights())
    assert ev.expected_loss == pytest.approx(loss, abs=1e-12)


def test_evaluate_single_scenario_probability_one(tiny3):
    ss = FloodScenarioSet(
        (FloodScenario("w", 1.0, {"S1": 1}),), level_count=3, unattainable_level=3
    )
    ev = RecourseEvaluator(tiny3.network, ss, LossWeights()).evaluate(ZERO_PLAN)
    assert ev.expected_loss == pytest.approx(ev.outcomes[0].loss)


def test_full_mitigation_hits_positive_floor_with_inexorable_flood(star8):
    # Protect everything preventable; the level-3 floods still bite.
    full = MitigationPlan({s.id: 2 for s in star8.network.substations})
    evaluator = RecourseEvaluator(star8.network, star8.scenarios, LossWeights())
    ev = evaluator.evaluate(full)
    assert ev.expected_loss > 0
    worse = evaluator.evaluate(ZERO_PLAN)
    assert ev.expected_loss < worse.expected_loss


def test_loss_monotone_in_plan(star8):
    rng = np.random.default_rng(2)
    evaluator = RecourseEvaluator(star8.network, star8.scenarios, LossWeights())
    for _ in range(15):
        base = random_plan(rng, star8.network)
        bigger = MitigationPlan({k: min(2, v + 1) for k, v in base.levels.items()})
        lo = evaluator.evaluate(bigger).expected_loss
        hi = evaluator.evaluate(base).expected_loss
        assert lo <= hi + 1e-6


def test_loss_upper_bound(star8):
    rng = np.random.default_rng(3)
    w = LossWeights(1.0, 1.5)
    evaluator = RecourseEvaluator(star8.network, star8.scenarios, w)
    bound = w.lambda_shed * star8.network.total_load + w.lambda_over * sum(
        max(b.p_gen_min, 0.0) for b in star8.network.buses
    )
    for _ in range(10):
        plan = random_plan(rng, star8.network)
        ev = evaluator.evaluate(plan)
        for o in ev.outcomes:
            assert o.loss <= bound + 1e-9


def test_relatively_complete_recourse_randomized():
    # Dispatch stays feasible for every (network, scenario, plan) triple.
    rng = np.random.default_rng(20250101)
    for _ in range(120):
        net = random_network(rng)
        ss = random_scenario_set(rng, net)
        plan = random_plan(rng, net)
        for scenario in ss.scenarios:
            st = status_closure(net, plan, scenario)
            loss, _ = solve_recourse_lp(net, st, LossWeights())
            assert np.isfinite(loss) and loss >= -1e-9


def test_evaluator_cache_consistency(star8):
    evaluator = RecourseEvaluator(star8.network, star8.scenarios, LossWeights())
    plan = MitigationPlan({"S1": 2})
    evaluator.evaluate(ZERO_PLAN)
    a = evaluator.evaluate(plan).expected_loss
    b = RecourseEvaluator(star8.network, star8.scenarios, LossWeights()).evaluate(plan)
    assert a == pytest.approx(b.expected_loss, abs=1e-12)


# -- fixed-structure dispatch LP against independent formulations ---------


def _dropped_rows_loss(network, dead, weights):
    """Dispatch loss by HiGHS on the LP that leaves out the Ohm rows of dead
    branches and the overgeneration rows of dead buses, instead of relaxing
    them through bounds, with the statuses of ``_loop_closure``.  Layout:
    [p_hat | p_check | delta | theta | p_flow]."""
    bus_up, branch_up = _loop_closure(network, set(dead))
    buses, branches = network.buses, network.branches
    nb = len(buses)
    pos = {b.id: i for i, b in enumerate(buses)}
    n = 4 * nb + len(branches)
    c = np.zeros(n)
    bounds = [None] * n
    a_eq, a_ub = [], []
    for i, bus in enumerate(buses):
        a = int(bus_up[i])
        c[nb + i] = weights.lambda_over
        c[2 * nb + i] = -weights.lambda_shed * bus.p_load
        bounds[i] = (bus.p_gen_min * a, bus.p_gen_max * a)
        bounds[nb + i] = (0.0, None if a else 0.0)
        bounds[2 * nb + i] = (0.0, float(a))
        theta = 0.0 if bus.is_reference else network.angle_abs_max
        bounds[3 * nb + i] = (-theta, theta)
        row = np.zeros(n)
        row[i], row[nb + i], row[2 * nb + i] = 1.0, -1.0, -bus.p_load
        for e, br in enumerate(branches):
            row[4 * nb + e] += (br.to_bus == bus.id) - (br.from_bus == bus.id)
        a_eq.append(row)
        if a:
            row = np.zeros(n)
            row[nb + i], row[i] = 1.0, -1.0
            a_ub.append(row)
    for e, br in enumerate(branches):
        if branch_up[e]:
            limit = min(br.flow_limit, abs(br.susceptance) * network.angle_diff_max)
            bounds[4 * nb + e] = (-limit, limit)
            row = np.zeros(n)
            row[4 * nb + e] = 1.0
            row[3 * nb + pos[br.from_bus]] += br.susceptance
            row[3 * nb + pos[br.to_bus]] -= br.susceptance
            a_eq.append(row)
        else:
            bounds[4 * nb + e] = (0.0, 0.0)
    res = linprog(
        c, A_ub=np.array(a_ub) if a_ub else None, b_ub=np.zeros(len(a_ub)) if a_ub else None,
        A_eq=np.array(a_eq), b_eq=np.zeros(len(a_eq)), bounds=bounds, method="highs",
    )
    assert res.status == 0, res.message
    return res.fun + weights.lambda_shed * network.total_load


def bridged_network():
    """A and B are joined directly and through M; with M dead, the direct
    line must still carry B's load, which it cannot if the dead lines through
    M keep tying the three angles together."""
    return GridNetwork(
        buses=(
            Bus("A", "SA", p_gen_min=0.0, p_gen_max=2.0, is_reference=True),
            Bus("M", "SM"),
            Bus("B", "SB", p_load=1.0),
        ),
        branches=(
            Branch("AM", "A", "M", susceptance=-10.0, flow_limit=2.0),
            Branch("MB", "M", "B", susceptance=-10.0, flow_limit=2.0),
            Branch("AB", "A", "B", susceptance=-10.0, flow_limit=2.0),
        ),
        substations=(
            Substation("SA", "115_161"), Substation("SM", "115_161"), Substation("SB", "115_161"),
        ),
    )


def test_dead_bus_between_live_buses_does_not_tie_their_angles():
    net = bridged_network()
    loss, disp = solve_recourse_lp(net, _masks(net, ("SM",)), LossWeights())
    assert loss == pytest.approx(0.0, abs=1e-9)
    assert disp.p_flow[2] == pytest.approx(1.0, abs=1e-9)  # AB
    warm = _outcome(RecourseEvaluator(net, DRY, LossWeights()), ("SM",))
    assert warm[0] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("weights", [LossWeights(), LossWeights(1.0, 2.5)])
def test_fixed_structure_lp_matches_dropped_row_formulation(weights):
    rng = np.random.default_rng(515)
    cases = [(bridged_network(), [("SM",), ("SA",), ("SA", "SB", "SM")])]
    for _ in range(40):
        net = random_network(rng)
        subs = [s.id for s in net.substations]
        ref_sub = next(b.substation_id for b in net.buses if b.is_reference)
        dead_sets = [tuple(sorted(s for s in subs if rng.random() < 0.4)) for _ in range(3)]
        cases.append((net, dead_sets + [tuple(subs), (ref_sub,)]))
    for net, dead_sets in cases:
        evaluator = RecourseEvaluator(net, DRY, weights)
        for dead in dead_sets:
            expected = _dropped_rows_loss(net, dead, weights)
            cold, _ = solve_recourse_lp(net, _masks(net, dead), weights)
            assert cold == pytest.approx(expected, abs=1e-9)
            assert _outcome(evaluator, dead)[0] == pytest.approx(expected, abs=1e-9)


def _scenario_dead_sets(scenario_set, r_hat=3):
    """Every dead set some plan with levels below ``r_hat`` leaves in some scenario."""
    dead_sets = []
    for scenario in scenario_set.scenarios:
        always = [k for k, lvl in scenario.levels.items() if lvl >= r_hat]
        maybe = sorted(k for k, lvl in scenario.levels.items() if lvl < r_hat)
        for r in range(len(maybe) + 1):
            for extra in itertools.combinations(maybe, r):
                dead_sets.append(tuple(sorted(always + list(extra))))
    return list(dict.fromkeys(dead_sets))


def _record_cold_starts(monkeypatch):
    """Patch ``_Solver.cold_start`` to record each call; returns the record."""
    real_cold_start = simplex._Solver.cold_start
    cold_starts = []

    def cold_start(self):
        cold_starts.append(self.iterations)
        return real_cold_start(self)

    monkeypatch.setattr(simplex._Solver, "cold_start", cold_start)
    return cold_starts


# star8's flow limits are halved: at its own limits the island bound's
# witness settles every one of its dead sets, and no LP would run.
@pytest.mark.parametrize("name, flow_scale", [("star8", 0.5), ("coastal40", 1.0)], ids=["star8", "coastal40"])
def test_dispatch_losses_do_not_depend_on_request_order(monkeypatch, request, name, flow_scale):
    fx = request.getfixturevalue(name)
    network = scaled_flow_limits(fx.network, flow_scale)
    weights = LossWeights(1.0, 1.5)
    dead_sets = _scenario_dead_sets(fx.scenarios)
    assert len(dead_sets) > 5
    cold_starts = _record_cold_starts(monkeypatch)
    forward = RecourseEvaluator(network, DRY, weights)
    for dead in dead_sets:
        _outcome(forward, dead)
    # Both ways of settling an island take part.
    assert forward.counters.lp_solves > 1 and forward.counters.settled_without_lp > 0
    assert cold_starts == []  # each LP starts from its own island basis
    backward = RecourseEvaluator(network, DRY, weights)
    for dead in reversed(dead_sets):
        _outcome(backward, dead)
    assert cold_starts == []

    def bits(cache):
        return {dead: tuple(v.hex() for v in values) for dead, values in cache.items()}

    assert bits(forward._cache) == bits(backward._cache)
    assert bits(forward._island_cache) == bits(backward._island_cache)
    for loss, served, shed, over in forward._cache.values():
        assert served + shed == pytest.approx(network.total_load, abs=1e-9)
        assert loss == pytest.approx(
            weights.lambda_shed * shed + weights.lambda_over * over, abs=1e-9
        )


# -- island copper-plate bound and its witness dispatch --------------------


def _with_raised_gen_min(rng, network):
    """Half of the generators get a minimum output of 30-100% of their
    maximum, so that some islands must overgenerate."""
    buses = tuple(
        dataclasses.replace(b, p_gen_min=b.p_gen_max * float(rng.uniform(0.3, 1.0)))
        if b.p_gen_max > 0 and rng.random() < 0.5 else b
        for b in network.buses
    )
    return dataclasses.replace(network, buses=buses)


def _unlimited(network):
    """The network with flow and angle limits too wide to bind."""
    return dataclasses.replace(
        scaled_flow_limits(network, 1e4), angle_abs_max=1e3, angle_diff_max=2e3
    )


def _bound_cases(seed, count):
    """Random networks with raised minimum generation, some with the
    reference bus cut off from every branch, each with random dead sets, no
    dead substation, all dead, the reference substation dead, and every
    substation next to the reference bus dead."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        net = _with_raised_gen_min(rng, random_network(rng))
        ref = next(b for b in net.buses if b.is_reference)
        if k % 4 == 0:
            net = dataclasses.replace(
                net, branches=tuple(br for br in net.branches if ref.id not in (br.from_bus, br.to_bus))
            )
        subs = [s.id for s in net.substations]
        sub_of = {b.id: b.substation_id for b in net.buses}
        near = {
            sub_of[end]
            for br in net.branches if ref.id in (br.from_bus, br.to_bus)
            for end in (br.from_bus, br.to_bus)
        } - {ref.substation_id}
        dead_sets = [tuple(sorted(s for s in subs if rng.random() < 0.4)) for _ in range(3)]
        dead_sets += [(), tuple(subs), (ref.substation_id,), tuple(sorted(near))]
        yield net, list(dict.fromkeys(dead_sets))


BOUND_WEIGHTS = [LossWeights(), LossWeights(1.0, 2.5), LossWeights(2.0, 0.5), LossWeights(0.0, 1.0), LossWeights(1.0, 0.0)]


def test_island_bound_never_exceeds_the_lp_and_is_exact_without_limits():
    """The bound is valid under every flow and angle limit, and it is the
    dispatch loss itself once no limit binds: then each island is a copper
    plate.  A bound that left out the overgeneration term or merged the
    islands would still be valid, and fails the second check."""
    for net, dead_sets in _bound_cases(seed=606, count=40):
        loose = _unlimited(net)
        for dead in dead_sets:
            for weights in BOUND_WEIGHTS:
                bound = _island_bound(net, dead, weights)
                assert _island_bound(loose, dead, weights) == bound
                lp, _ = solve_recourse_lp(net, _masks(net, dead), weights)
                assert bound <= lp + 1e-9
                lp_loose, _ = solve_recourse_lp(loose, _masks(loose, dead), weights)
                assert bound == pytest.approx(lp_loose, abs=1e-9)


def _settled_without_lp(evaluator, dead):
    """Whether the witness settles every island of the dead set, and the
    evaluator's (loss, served, shed, overgeneration) of it."""
    _, stack = _islands(evaluator.network, survival_masks(evaluator.network, [dead]))
    return bool(_witness(evaluator.network, stack).all()), _outcome(evaluator, dead)


@pytest.mark.parametrize("weights", [LossWeights(), LossWeights(1.0, 2.5)])
def test_dispatch_settled_without_lp_equals_the_cold_lp(coastal40, weights):
    cases = list(_bound_cases(seed=707, count=60))
    cases.append((coastal40.network, _scenario_dead_sets(coastal40.scenarios)))
    settled = total = 0
    for net, dead_sets in cases:
        evaluator = RecourseEvaluator(net, DRY, weights)
        for dead in dead_sets:
            without_lp, (loss, served, shed, over) = _settled_without_lp(evaluator, dead)
            total += 1
            if not without_lp:
                continue
            settled += 1
            cold, _ = solve_recourse_lp(net, _masks(net, dead), weights)
            assert loss == pytest.approx(cold, abs=1e-9)
            assert loss == pytest.approx(_island_bound(net, dead, weights), abs=1e-12)
            assert served + shed == pytest.approx(net.total_load, abs=1e-9)
            assert loss == pytest.approx(
                weights.lambda_shed * shed + weights.lambda_over * over, abs=1e-12
            )
    assert settled > total // 2


def _every_mask_against_the_cold_lp(net, weights):
    """Settle every survival mask of ``net`` as one stack and check each
    loss against the cold dispatch LP's: within 1e-9, and within 1e-7
    relative (to at least 1).  Returns the evaluator's counters."""
    subs = [s.id for s in net.substations]
    dead_sets = [dead for k in range(len(subs) + 1) for dead in itertools.combinations(subs, k)]
    evaluator = RecourseEvaluator(net, DRY, weights)
    evaluator.settle(survival_masks(net, dead_sets))
    for dead in dead_sets:
        loss = _outcome(evaluator, dead)[0]
        cold, _ = solve_recourse_lp(net, _masks(net, dead), weights)
        assert abs(loss - cold) <= 1e-9, (dead, loss, cold)
        assert abs(loss - cold) <= 1e-7 * max(1.0, abs(cold)), (dead, loss, cold)
    return evaluator.counters


def test_island_sums_match_the_cold_lp_on_random_networks():
    """Every survival mask of plain ``random_network`` instances, settled
    island by island, has the cold dispatch LP's loss; some islands need
    their LP.  Dropping the dead buses' load from the shed, or caching an
    island under its load and generation instead of its bus set, fails
    this."""
    lp = 0
    for seed in range(60):
        rng = np.random.default_rng(4000 + seed)
        net = random_network(rng)
        lp += _every_mask_against_the_cold_lp(net, LossWeights(1.0, float(rng.choice([0.0, 1.0, 3.0])))).lp_solves
    assert lp > 0


def test_second_stage_matches_the_cold_lp_on_a_wider_valid_domain():
    """Random valid networks beyond ``random_network``'s: fixed generators
    (``gen_min = gen_max > 0``), dropped branches (disconnected networks),
    angle limits down to 0.05 rad absolute and 0.02 rad difference, and
    ``lambda_over`` of 0, 1 or 3.  For every survival mask, settled as one
    stack, the evaluator's loss is the cold dispatch LP's within 1e-9, and
    within 1e-7 relative (to at least 1).  Island LPs and witnesses both
    take part."""
    seen = {"fixed": 0, "disconnected": 0, "tight": 0, "lp": 0, "witness": 0}
    for seed in range(60):
        rng = np.random.default_rng(9000 + seed)
        net = random_network(rng)
        buses = tuple(
            dataclasses.replace(b, p_gen_min=b.p_gen_max) if b.p_gen_max > 0 and rng.random() < 0.4 else b
            for b in net.buses
        )
        branches = tuple(br for br in net.branches if rng.random() >= 0.3)
        angle_abs = float(rng.choice([0.05, 0.2, np.pi / 2]))
        angle_diff = min(float(rng.choice([0.02, 0.1, np.pi / 6])), 2 * angle_abs)
        net = dataclasses.replace(
            net, buses=buses, branches=branches, angle_abs_max=angle_abs, angle_diff_max=angle_diff
        )
        assert validate(net) == []
        seen["fixed"] += any(0 < b.p_gen_min == b.p_gen_max for b in net.buses)
        seen["disconnected"] += len(branches) < len(net.buses) - 1
        seen["tight"] += angle_abs == 0.05 or angle_diff == 0.02
        counters = _every_mask_against_the_cold_lp(net, LossWeights(1.0, float(rng.choice([0.0, 1.0, 3.0]))))
        seen["lp"] += counters.lp_solves
        seen["witness"] += counters.settled_without_lp
    assert min(seen.values()) > 0, seen


def _positive_susceptances(network):
    """The network with every susceptance made positive, so that no two
    parallel branches cancel and every grounded island's Laplacian is
    nonsingular."""
    branches = tuple(dataclasses.replace(br, susceptance=abs(br.susceptance)) for br in network.branches)
    return dataclasses.replace(network, branches=branches)


def cancelling_pair_network():
    """A - B - C with B and C joined by two branches of opposite
    susceptance, which cancel: with C live, the grounded Laplacian of the
    no-flood dead set is singular, so its witness is refused."""
    return GridNetwork(
        buses=(
            Bus("A", "SA", p_gen_max=3.0, is_reference=True),
            Bus("B", "SB", p_load=1.0),
            Bus("C", "SC", p_load=0.5),
        ),
        branches=(
            Branch("AB", "A", "B", susceptance=-10.0, flow_limit=5.0),
            Branch("BC1", "B", "C", susceptance=-5.0, flow_limit=5.0),
            Branch("BC2", "B", "C", susceptance=5.0, flow_limit=5.0),
        ),
        substations=(Substation("SA", "115_161"), Substation("SB", "115_161"), Substation("SC", "115_161")),
    )


def _loop_islands(network, dead):
    """Islands of one dead set by a literal search over the live branches:
    every bus's island (-1 when dead), numbered in the order of their first
    bus, and each island's load, minimum and maximum generation added bus
    by bus in bus order."""
    bus_up, branch_up = _loop_closure(network, set(dead))
    pos = {b.id: i for i, b in enumerate(network.buses)}
    neighbours = {i: [] for i in range(len(network.buses))}
    for br, up in zip(network.branches, branch_up):
        if up:
            neighbours[pos[br.from_bus]].append(pos[br.to_bus])
            neighbours[pos[br.to_bus]].append(pos[br.from_bus])
    labels = [-1] * len(network.buses)
    first = []
    for i, up in enumerate(bus_up):
        if up and labels[i] < 0:
            labels[i] = len(first)
            todo = [i]
            while todo:
                for k in neighbours[todo.pop()]:
                    if labels[k] < 0:
                        labels[k] = len(first)
                        todo.append(k)
            first.append(i)
    sums = [[0.0, 0.0, 0.0] for _ in first]
    for bus, label in zip(network.buses, labels):
        if label >= 0:
            sums[label][0] += bus.p_load
            sums[label][1] += bus.p_gen_min
            sums[label][2] += bus.p_gen_max
    return labels, first, sums


def test_stacked_islands_equal_the_loop_reference():
    """Every member of a stack gets the islands and island sums of a
    literal graph search on its own, bit for bit, in member order and then
    in the order of their first bus, and each island's live branches are
    those with both ends in it; on random networks with stacks of random, no
    and all substations dead."""
    rng = np.random.default_rng(2727)
    for _ in range(60):
        net = random_network(rng, n_subs=int(rng.integers(2, 7)))
        subs = [s.id for s in net.substations]
        stack = [tuple(sorted(s for s in subs if rng.random() < 0.4)) for _ in range(int(rng.integers(1, 9)))]
        stack += [(), tuple(subs)]
        row, islands = _islands(net, survival_masks(net, stack))
        assert (np.diff(row) >= 0).all()
        a = net.arrays
        assert (islands.live_branches == islands.buses[:, a.frm] & islands.buses[:, a.to]).all()
        for b, dead in enumerate(stack):
            labels, first, sums = _loop_islands(net, dead)
            own = np.flatnonzero(row == b)
            label = np.full(len(net.buses), -1)
            for k, buses in enumerate(islands.buses[own]):
                assert (label[buses] == -1).all()
                label[buses] = k
            assert label.tolist() == labels
            assert islands.first[own].tolist() == first
            sums_b = zip(islands.load[own].tolist(), islands.gen_min[own].tolist(), islands.gen_max[own].tolist())
            assert [list(v) for v in sums_b] == sums


def _settle_in_chunks(network, weights, dead_sets, sizes):
    """An evaluator that settled ``dead_sets`` in consecutive calls of the
    given sizes (cycled)."""
    evaluator = RecourseEvaluator(network, DRY, weights)
    masks = survival_masks(network, dead_sets)
    begin, k = 0, 0
    while begin < len(dead_sets):
        size = sizes[k % len(sizes)]
        evaluator.settle(masks[begin : begin + size])
        begin, k = begin + size, k + 1
    return evaluator


@pytest.mark.parametrize("weights", [LossWeights(), LossWeights(1.0, 2.5)])
def test_stacked_settlement_matches_the_cold_lp_and_ignores_stacking(weights):
    """Every dead set that one ``settle`` call settles gets the cold LP's
    loss within 1e-9, whether its stack's witness settled it or its LP did,
    on random networks with raised minimum generation, a cut-off or dead
    reference bus, all and no substations dead, and a network whose
    Laplacian is singular for one member of the stack.  With positive
    susceptances and no binding limit, the witness settles every member.
    Each distinct island is settled once.  Splitting the stack or reversing
    its order leaves every cached value the same to the bit.  Grounding a
    bus without its identity row, or numbering the buses of all members
    alike (so that islands merge across members), fails this."""

    def bits(cache):
        return {dead: tuple(v.hex() for v in values) for dead, values in cache.items()}

    cases = list(_bound_cases(seed=1414, count=30))
    cases.append((cancelling_pair_network(), [(), ("SC",), ("SB",), ("SA",), ("SB", "SC")]))
    for net, dead_sets in cases:
        for copy in (net, _unlimited(_positive_susceptances(net))):
            stack = dead_sets + dead_sets[:2]  # a stack may repeat a dead set
            evaluator = RecourseEvaluator(copy, DRY, weights)
            evaluator.settle(survival_masks(copy, stack))
            assert evaluator.counters.batches == 1
            islands = {bits.tobytes() for bits in _islands(copy, survival_masks(copy, stack))[1].buses}
            assert evaluator.counters.settled_without_lp + evaluator.counters.lp_solves == len(islands)
            if copy is not net:
                assert evaluator.counters.lp_solves == 0, dead_sets
            for dead in dead_sets:
                cold, _ = solve_recourse_lp(copy, _masks(copy, dead), weights)
                loss, served, shed, over = evaluator._cache[survival_masks(copy, [dead]).tobytes()]
                assert loss == pytest.approx(cold, abs=1e-9), dead
                assert served + shed == pytest.approx(copy.total_load, abs=1e-9)
            expected = bits(evaluator._cache), bits(evaluator._island_cache)
            for sizes in ([1], [2, 3]):
                for order in (stack, stack[::-1]):
                    chunked = _settle_in_chunks(copy, weights, order, sizes)
                    assert (bits(chunked._cache), bits(chunked._island_cache)) == expected
    # At its own susceptances the cancelling pair's no-flood island has a
    # singular Laplacian: the stack refuses its witness only.
    net = cancelling_pair_network()
    row, islands = _islands(net, survival_masks(net, [("SC",), (), ("SB",)]))
    assert row.tolist() == [0, 1, 2, 2]
    assert _witness(net, islands).tolist() == [True, False, True, True]


def overloaded_line_network():
    """Enough generation at A for B's load, but the line carries 1.2 of 2.0."""
    return GridNetwork(
        buses=(
            Bus("A", "SA", p_gen_min=0.0, p_gen_max=3.0, is_reference=True),
            Bus("B", "SB", p_load=2.0),
        ),
        branches=(Branch("AB", "A", "B", susceptance=-10.0, flow_limit=1.2),),
        substations=(Substation("SA", "115_161"), Substation("SB", "115_161")),
    )


def angle_bound_at_reference_network():
    """Y1 - R - Y2 with the reference in the middle: serving Y2's load of 2
    needs angle -0.2 at Y2, beyond the limit of 0.15, so Y2 gets 1.5.  The
    witness must hold the reference at angle 0; grounded at the island's
    first bus Y1 instead, its angles would span only -0.1..0.1."""
    return GridNetwork(
        buses=(
            Bus("Y1", "S1", p_load=1.0),
            Bus("R", "SR", p_gen_max=4.0, is_reference=True),
            Bus("Y2", "S2", p_load=2.0),
        ),
        branches=(
            Branch("RY1", "R", "Y1", susceptance=-10.0, flow_limit=5.0),
            Branch("RY2", "R", "Y2", susceptance=-10.0, flow_limit=5.0),
        ),
        substations=(Substation("S1", "115_161"), Substation("SR", "115_161"), Substation("S2", "115_161")),
        angle_abs_max=0.15,
        angle_diff_max=0.3,
    )


@pytest.mark.parametrize(
    "net, served",
    [(overloaded_line_network(), 1.2), (angle_bound_at_reference_network(), 2.5)],
    ids=["flow-limit", "angle-limit"],
)
def test_witness_that_breaks_a_limit_falls_back_to_the_lp(net, served):
    shed = net.total_load - served
    assert _island_bound(net, (), LossWeights()) == 0.0
    evaluator = RecourseEvaluator(net, DRY, LossWeights())
    without_lp, values = _settled_without_lp(evaluator, ())
    assert not without_lp
    assert evaluator.counters.lp_solves == 1
    assert values == pytest.approx((shed, served, shed, 0.0), abs=1e-9)
    cold, _ = solve_recourse_lp(net, _masks(net, ()), LossWeights())
    assert cold == pytest.approx(shed, abs=1e-9)


@pytest.mark.parametrize("weights", [LossWeights(0.0, 1.0), LossWeights(1.0, 0.0)])
def test_zero_weight_witness_reports_the_least_shed_and_overgeneration(weights):
    """With a zero weight the split of served, shed and overgenerated power
    is not unique: shedding costs nothing, or overgenerating does.  The
    witness reports the least shed and overgeneration any optimum has; the
    loss still equals the LP's and the weighted split."""
    shortfall = GridNetwork(  # load 2 and generation 0.5-1: shed >= 1, overgeneration optional
        buses=(
            Bus("A", "SA", p_gen_min=0.5, p_gen_max=1.0, is_reference=True),
            Bus("B", "SB", p_load=2.0),
        ),
        branches=(Branch("AB", "A", "B", susceptance=-10.0, flow_limit=5.0),),
        substations=(Substation("SA", "115_161"), Substation("SB", "115_161")),
    )
    surplus = dataclasses.replace(  # load 0.5 and generation 1-3: overgeneration >= 0.5
        shortfall,
        buses=(Bus("A", "SA", p_gen_min=1.0, p_gen_max=3.0, is_reference=True), Bus("B", "SB", p_load=0.5)),
    )
    cases = [(shortfall, [()]), (surplus, [()])] + list(_bound_cases(seed=808, count=30))
    for net, dead_sets in cases:
        evaluator = RecourseEvaluator(net, DRY, weights)
        for dead in dead_sets:
            without_lp, (loss, served, shed, over) = _settled_without_lp(evaluator, dead)
            if not without_lp:
                continue
            cold, dispatch = solve_recourse_lp(net, _masks(net, dead), weights)
            lp_served = sum(b.p_load * delta for b, delta in zip(net.buses, dispatch.delta))
            assert loss == pytest.approx(cold, abs=1e-9)
            assert loss == pytest.approx(
                weights.lambda_shed * shed + weights.lambda_over * over, abs=1e-12
            )
            assert served + shed == pytest.approx(net.total_load, abs=1e-9)
            assert served >= lp_served - 1e-9
            assert over <= sum(dispatch.p_check) + 1e-9


# -- the island copper-plate basis that starts every dispatch LP -----------


def _island_solves(net, dead, weights):
    """The evaluator's fallback solve of each island of one dead set, alone
    in the network, on a fresh workspace and started from its island basis.
    Yields per island the loss, the pivots, the workspace, the basis, its
    statuses, its copper-plate bound, and whether it floats: two or more
    buses without the reference bus, grounded at its first bus's lower
    angle bound."""
    _, stack = _islands(net, survival_masks(net, [dead]))
    reference = np.array([b.is_reference for b in net.buses])
    served, over = _plate(stack)
    for b in range(len(stack.first)):
        ws = simplex.Workspace(*_recourse_arrays(net, weights))
        state = _island_basis(net, stack, b)
        statuses = stack.buses[b], stack.live_branches[b]
        loss, dispatch = solve_recourse_lp(net, statuses, weights, workspace=ws, warm=state)
        bound = weights.lambda_shed * (net.total_load - served[b]) + weights.lambda_over * over[b]
        floats = stack.buses[b].sum() >= 2 and not reference[stack.buses[b]].any()
        yield loss, dispatch.pivots, ws, state, statuses, bound, floats


def test_island_basis_starts_every_dispatch_lp_warm_at_the_copper_plate_optimum(monkeypatch):
    """On random networks with raised minimum generation, a cut-off
    reference bus, all and no substations dead, for every island alone in
    the network: the island basis factorizes and is dual feasible, the LP
    reaches the cold LP's loss without a cold start, and with no limit
    binding it is the island's copper-plate bound itself.  Then the only
    pivot left grounds the angles of an island without the reference bus.
    A balanced island left serving nothing, an island with every angle
    basic, or a surplus bus that absorbs without giving up its
    overgeneration slack each fails this."""
    cold_starts = _record_cold_starts(monkeypatch)
    for net, dead_sets in _bound_cases(seed=909, count=40):
        loose = _unlimited(net)
        for dead in dead_sets:
            for weights in BOUND_WEIGHTS:
                solves = zip(_island_solves(net, dead, weights), _island_solves(loose, dead, weights))
                for (loss, _, ws, state, statuses, bound, _), (loose_loss, pivots, loose_ws, *_, floats) in solves:
                    assert cold_starts == []
                    simplex.spla.splu(simplex._basis_matrix(ws.A_ext, state.basis))  # raises if singular
                    start = simplex._Solver(loose_ws, max_iter=0)
                    assert start.warm_start(state)
                    assert start.dual_feasible(loose_ws.c_ext)
                    assert loose_loss == pytest.approx(bound, abs=1e-9)
                    assert pivots <= floats
                    cold, _ = solve_recourse_lp(net, statuses, weights)
                    assert loss == pytest.approx(cold, abs=1e-9)
                    cold_starts.clear()


def test_fallback_lp_restarts_cold_when_the_dual_run_fails(monkeypatch, coastal40):
    """A dual run that ends in ``numerical-error`` (as on a detected cycle or
    a tiny pivot) still gives a coastal40 dead set with one island whose
    witness fails the cold LP's loss, through one cold restart."""
    net = coastal40.network
    weights = LossWeights(1.0, 1.5)
    dead = next(
        d for d in _scenario_dead_sets(coastal40.scenarios)
        if (~_witness(net, _islands(net, survival_masks(net, [d]))[1])).sum() == 1
    )
    expected, _ = solve_recourse_lp(net, _masks(net, dead), weights)
    dual_runs = []

    def run_dual(self, costs):
        dual_runs.append(self.iterations)
        return simplex.STATUS_NUMERICAL

    monkeypatch.setattr(simplex._Solver, "run_dual", run_dual)
    cold_starts = _record_cold_starts(monkeypatch)
    evaluator = RecourseEvaluator(net, DRY, weights)
    loss, *_ = _outcome(evaluator, dead)
    assert len(dual_runs) == len(cold_starts) == 1
    assert evaluator.counters.lp_solves == 1
    assert evaluator.counters.lp_pivots > 0
    assert loss == pytest.approx(expected, abs=1e-9)
