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

import numpy as np

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


class _UpgradeScorer:
    """Benefit of every single-substation upgrade, on a scenario x substation
    level matrix.

    Arrays are indexed by scenario (rows, in scenario-set order) and
    substation (columns, in network order).  Raising substation j from
    level cur_j to t revives it in exactly the scenarios flooded at a level
    in cur_j+1..t, so with the per-level table
    ``W[l, j] = sum_s p_s * gained[s, j] * [L[s, j] == l]`` the benefit is
    ``sum_{l=cur_j+1..t} W[l, j]``.  A revived substation gains its own load,
    generation and intra-substation flow, plus the capacity of its
    cross-substation branches whose far end is alive in that scenario.
    """

    def __init__(
        self,
        weights: AttributeWeights,
        network: GridNetwork,
        scenario_set: FloodScenarioSet,
        r_hat: int,
    ):
        self.sub_ids = [s.id for s in network.substations]
        col = {k: j for j, k in enumerate(self.sub_ids)}
        n = len(self.sub_ids)
        load, gen, intra = [0.0] * n, [0.0] * n, [0.0] * n
        for bus in network.buses:
            load[col[bus.substation_id]] += bus.p_load
            gen[col[bus.substation_id]] += bus.p_gen_max
        sub_of = {b.id: col[b.substation_id] for b in network.buses}
        self.cross = np.zeros((n, n))  # parallel branches summed
        for br in network.branches:
            jf, jt = sub_of[br.from_bus], sub_of[br.to_bus]
            if jf == jt:
                intra[jf] += br.flow_limit
            else:
                self.cross[jf, jt] += br.flow_limit
                self.cross[jt, jf] += br.flow_limit
        self.eta_flow = weights.eta_flow
        self.base = (
            np.array(load) * weights.eta_load
            + np.array(gen) * weights.eta_gen
            + np.array(intra) * weights.eta_flow
        )
        scenarios = scenario_set.scenarios
        self.p = np.array([s.probability for s in scenarios])[:, None]
        self.levels = np.array(
            [[s.levels.get(k, 0) for k in self.sub_ids] for s in scenarios], dtype=int
        )
        # Only levels below r_hat can ever flip; layer l marks level l.
        self.level_rows = np.arange(r_hat)[:, None]
        self.at_level = (self.levels == self.level_rows[:, :, None]).astype(float)
        self.cur = np.zeros(n, dtype=int)
        self.alive = (self.levels <= 0).astype(float)
        self._table = None

    def values(self) -> np.ndarray:
        """``V[t, j]``: benefit of raising substation j to level t (0 for t <= cur_j)."""
        if self._table is None:
            gained = self.base
            if self.eta_flow:
                gained = gained + self.eta_flow * (self.alive @ self.cross)
            self._table = np.einsum("lsj,sj->lj", self.at_level, self.p * gained)
        return np.cumsum(np.where(self.level_rows > self.cur, self._table, 0.0), axis=0)

    def raise_level(self, j: int, target: int) -> None:
        """Buy an upgrade: only substation j's alive column changes."""
        self.cur[j] = target
        self.alive[:, j] = self.levels[:, j] <= target
        if self.eta_flow:
            self._table = None


def greedy(
    weights: AttributeWeights,
    budget: Budget,
    network: GridNetwork,
    scenario_set: FloodScenarioSet,
    schedule: CostSchedule,
    r_hat: int,
) -> MitigationPlan:
    """One greedy pass: repeatedly buy the best benefit-per-cost upgrade.

    Candidates are scanned by substation in network order, then by target
    level ascending; a candidate replaces the best so far when its ratio is
    larger by more than 1e-12, and ratios within 1e-12 break by
    (substation id, level), so identical inputs yield the identical plan.
    """
    if r_hat < 2:
        return ZERO_PLAN  # no attainable level to buy
    scorer = _UpgradeScorer(weights, network, scenario_set, r_hat)
    subs = scorer.sub_ids
    cumulative = np.array(
        [[schedule.cumulative_cost(k, t) for k in subs] for t in range(r_hat)], dtype=np.int64
    )
    plan = ZERO_PLAN
    remaining = budget.units
    while remaining > 0:
        values = scorer.values()
        cost = cumulative - cumulative[scorer.cur, np.arange(len(subs))]
        # Costs grow with the target, so the affordable targets are those a
        # scan in ascending order meets before its first unaffordable one.
        ok = ((cost > 0) & (cost <= remaining) & (values > 0)).T
        js, ts = np.nonzero(ok)  # substations in network order, then targets
        ratios = (values.T[ok] / cost.T[ok]).tolist()
        best = None  # (ratio, sub, target, j)
        for j, t, ratio in zip(js.tolist(), ts.tolist(), ratios):
            sub = subs[j]
            if best is None or ratio > best[0] + 1e-12:
                best = (ratio, sub, t, j)
            elif abs(ratio - best[0]) <= 1e-12 and (sub, t) < (best[1], best[2]):
                best = (ratio, sub, t, j)
        if best is None:
            break
        _, sub, target, j = best
        plan = plan.with_level(sub, target)
        remaining -= int(cost[target, j])
        scorer.raise_level(j, target)
    return plan


def portfolio(
    budget: Budget,
    network: GridNetwork,
    scenario_set: FloodScenarioSet,
    schedule: CostSchedule,
    r_hat: int,
) -> list[MitigationPlan]:
    """Deduplicated greedy plans across the flow-weight grid."""
    plans: list[MitigationPlan] = []
    seen = set()
    for eta_flow in ETA_FLOW_GRID:
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
