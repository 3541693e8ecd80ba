"""Greedy barrier deployment guided by spared grid attributes.

Each iteration raises exactly one substation's resilience level, choosing the
upgrade with the best ratio of expected marginal benefit to marginal cost.
Benefit is the probability-weighted sum of newly operational load,
generation capacity, and branch flow capacity, mixed by the attribute
weights.  Candidate upgrades may jump several levels at once; the loop stops
when the budget is spent, no affordable upgrade remains, or no upgrade helps.

A portfolio of plans for warm starts comes from fixing the load weight at 1,
dropping the generation weight (capacity is rarely binding), and sweeping the
flow weight over a small grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid_model import GridNetwork
from .mitigation import Budget, CostSchedule, MitigationPlan, ZERO_PLAN
from .recourse import status_closure
from .scenario_model import FloodScenarioSet

ETA_FLOW_GRID = (0.0, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15)


@dataclass(frozen=True)
class AttributeWeights:
    eta_load: float = 1.0
    eta_gen: float = 0.0
    eta_flow: float = 0.0

    def __post_init__(self):
        if min(self.eta_load, self.eta_gen, self.eta_flow) < 0:
            raise ValueError("attribute weights must be nonnegative")
        if self.eta_load == self.eta_gen == self.eta_flow == 0:
            raise ValueError("at least one attribute weight must be positive")


def benefit(
    plan: MitigationPlan,
    candidate: MitigationPlan,
    weights: AttributeWeights,
    network: GridNetwork,
    scenario_set: FloodScenarioSet,
) -> float:
    """Expected newly-operational capacity gained by upgrading plan to candidate.

    Requires candidate >= plan componentwise; statuses are monotone in the
    plan, so the value is always nonnegative.
    """
    if not candidate.dominates(plan):
        raise ValueError("candidate must dominate the current plan")
    rho_load = rho_gen = rho_flow = 0.0
    for scenario in scenario_set.scenarios:
        base = status_closure(network, plan, scenario)
        lift = status_closure(network, candidate, scenario)
        p = scenario.probability
        for bus in network.buses:
            gain = lift.alpha[bus.id] - base.alpha[bus.id]
            if gain:
                rho_load += p * gain * bus.p_load
                rho_gen += p * gain * bus.p_gen_max
        for br in network.branches:
            gain = lift.beta[br.id] - base.beta[br.id]
            if gain:
                rho_flow += p * gain * br.flow_limit
    return rho_load * weights.eta_load + rho_gen * weights.eta_gen + rho_flow * weights.eta_flow


class _GreedyContext:
    """Static per-network aggregates reused across greedy iterations."""

    def __init__(self, network: GridNetwork, scenario_set: FloodScenarioSet):
        self.network = network
        self.scenario_set = scenario_set
        self.sub_ids = [s.id for s in network.substations]
        self.sub_load = {s.id: 0.0 for s in network.substations}
        self.sub_gen = {s.id: 0.0 for s in network.substations}
        for bus in network.buses:
            self.sub_load[bus.substation_id] += bus.p_load
            self.sub_gen[bus.substation_id] += bus.p_gen_max
        sub_of = {b.id: b.substation_id for b in network.buses}
        self.intra_flow = {s.id: 0.0 for s in network.substations}
        self.cross: dict[str, list[tuple[str, float]]] = {s.id: [] for s in network.substations}
        for br in network.branches:
            sf, st = sub_of[br.from_bus], sub_of[br.to_bus]
            if sf == st:
                self.intra_flow[sf] += br.flow_limit
            else:
                self.cross[sf].append((st, br.flow_limit))
                self.cross[st].append((sf, br.flow_limit))

    def alive_map(self, plan: MitigationPlan) -> list[dict[str, bool]]:
        return [
            {k: plan.level_of(k) >= s.level_of(k) for k in self.sub_ids}
            for s in self.scenario_set.scenarios
        ]

    def upgrade_benefit(
        self,
        plan: MitigationPlan,
        alive: list[dict[str, bool]],
        sub: str,
        target: int,
        weights: AttributeWeights,
    ) -> float:
        """Benefit of raising one substation, via per-scenario status flips."""
        cur = plan.level_of(sub)
        value = 0.0
        for scenario, alive_w in zip(self.scenario_set.scenarios, alive):
            level = scenario.level_of(sub)
            if not (cur < level <= target):
                continue  # the upgrade does not flip this scenario
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


def greedy(
    weights: AttributeWeights,
    budget: Budget,
    network: GridNetwork,
    scenario_set: FloodScenarioSet,
    schedule: CostSchedule,
    r_hat: int,
) -> MitigationPlan:
    """One greedy pass: repeatedly buy the best benefit-per-cost upgrade.

    Ties break by (substation id, level), so identical inputs yield the
    identical plan.
    """
    ctx = _GreedyContext(network, scenario_set)
    plan = ZERO_PLAN
    remaining = budget.units
    alive = ctx.alive_map(plan)
    while remaining > 0:
        best = None  # (ratio, sub, target, cost, value)
        for sub in ctx.sub_ids:
            cur = plan.level_of(sub)
            for target in range(cur + 1, r_hat):
                cost = schedule.upgrade_cost(sub, cur, target)
                if cost > remaining:
                    break  # costs grow with the target level
                value = ctx.upgrade_benefit(plan, alive, sub, target, weights)
                if value <= 0:
                    continue
                ratio = value / cost
                if best is None or ratio > best[0] + 1e-12:
                    best = (ratio, sub, target, cost, value)
                elif abs(ratio - best[0]) <= 1e-12 and (sub, target) < (best[1], best[2]):
                    best = (ratio, sub, target, cost, value)
        if best is None:
            break
        _, sub, target, cost, _ = best
        plan = plan.with_level(sub, target)
        remaining -= cost
        # Only the bought substation's status can change.
        for scenario, alive_w in zip(scenario_set.scenarios, alive):
            alive_w[sub] = target >= scenario.level_of(sub)
    return plan


def portfolio(
    budget: Budget,
    network: GridNetwork,
    scenario_set: FloodScenarioSet,
    schedule: CostSchedule,
    r_hat: int,
    eta_flow_grid: tuple[float, ...] = ETA_FLOW_GRID,
) -> list[MitigationPlan]:
    """Deduplicated greedy plans across the flow-weight grid."""
    plans: list[MitigationPlan] = []
    seen = set()
    for eta_flow in eta_flow_grid:
        plan = greedy(
            AttributeWeights(eta_load=1.0, eta_gen=0.0, eta_flow=eta_flow),
            budget,
            network,
            scenario_set,
            schedule,
            r_hat,
        )
        if plan.key() not in seen:
            seen.add(plan.key())
            plans.append(plan)
    return plans
