"""Greedy barrier deployment guided by spared grid attributes.

Each iteration raises exactly one substation's resilience level, choosing the
upgrade with the best ratio of expected marginal benefit to marginal cost.
Benefit is the probability-weighted sum of newly operational load,
generation capacity, and branch flow capacity, mixed by the attribute
weights.  Candidate upgrades may jump several levels at once; the loop stops
when the budget is spent, no affordable upgrade remains, or no upgrade helps.

A portfolio of plans for warm starts comes from fixing the load weight at 1,
dropping the generation weight (capacity is rarely binding), and sweeping the
flow weight over a small grid.  Every pass reads one :class:`LevelMatrix`,
the instance as arrays, which a caller solving many budgets (a sweep) builds
once and passes in.
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


def left_sums(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sums along ``axis`` added one term at a time from 0.0, in order: the
    same floats as a Python ``total += term`` loop (``np.sum`` adds
    pairwise and may round differently)."""
    terms = np.moveaxis(terms, axis, -1)
    padded = np.concatenate([np.zeros(terms.shape[:-1] + (1,)), terms], axis=-1)
    return np.cumsum(padded, axis=-1)[..., -1]


class LevelMatrix:
    """One instance as arrays, built once and shared by every greedy pass
    and spared-capacity evaluation over it.

    Rows are scenarios (in scenario-set order) and columns substations (in
    the order of ``network.arrays``): ``levels[s, j]`` is substation j's
    flood level in scenario s (0 when dry), and ``p`` holds the scenario
    probabilities.  Per substation there are the load, generation capacity
    and intra-substation flow capacity, plus a symmetric cross-substation
    capacity matrix ``cross`` (parallel branches summed); per bus and per
    branch, ``arrays`` is the network's own.  For the greedy,
    ``at_level[l, s, j]`` marks ``levels[s, j] == l`` for ``l < r_hat`` and
    ``cumulative[t, j]`` is the cost of reaching level t.  ``zero_lost[s]``
    is the load, generation and flow capacity that scenario s loses with no
    mitigation.
    """

    def __init__(
        self,
        network: GridNetwork,
        scenario_set: FloodScenarioSet,
        schedule: CostSchedule,
        r_hat: int,
    ):
        a = self.arrays = network.arrays
        self.sub_ids = a.sub_ids
        n = len(self.sub_ids)
        # Every sum adds in bus or branch order from 0.0, as a loop would.
        self.load = np.bincount(a.bus_sub, a.load, n)
        self.gen = np.bincount(a.bus_sub, a.gen_max, n)
        jf, jt = a.bus_sub[a.frm], a.bus_sub[a.to]
        same = jf == jt
        self.intra = np.bincount(jf[same], a.flow_limit[same], n)
        self.cross = np.zeros((n, n))
        pairs = np.stack([jf, jt], axis=1)[~same]  # (from, to), then (to, from)
        np.add.at(self.cross, (pairs.ravel(), pairs[:, ::-1].ravel()), np.repeat(a.flow_limit[~same], 2))

        scenarios = scenario_set.scenarios
        self.p = np.array([s.probability for s in scenarios])
        self.levels = np.array(
            [[s.levels.get(k, 0) for k in self.sub_ids] for s in scenarios], dtype=int
        ).reshape(len(scenarios), n)
        # Only levels below r_hat can ever flip; layer l marks level l.
        self.r_hat = r_hat
        self.level_rows = np.arange(r_hat)[:, None]
        self.at_level = (self.levels == self.level_rows[:, :, None]).astype(float)
        self.cumulative = np.array(
            [[schedule.cumulative_cost(k, t) for k in self.sub_ids] for t in range(r_hat)],
            dtype=np.int64,
        ).reshape(r_hat, n)

        self.zero_bus, self.zero_branch = self.statuses(ZERO_PLAN)
        self.zero_lost = np.stack(
            [
                left_sums((1.0 - self.zero_bus) * a.load),
                left_sums((1.0 - self.zero_bus) * a.gen_max),
                left_sums((1.0 - self.zero_branch) * a.flow_limit),
            ],
            axis=1,
        )

    def statuses(self, plan: MitigationPlan) -> tuple[np.ndarray, np.ndarray]:
        """0/1 statuses per scenario and bus, and per scenario and branch,
        from :meth:`~floodmit.grid_model.GridArrays.closure`: a substation
        survives iff its flood level is at most the plan's level."""
        planned = np.array([plan.level_of(k) for k in self.sub_ids], dtype=int)
        bus, branch = self.arrays.closure(self.levels <= planned)
        return bus.astype(float), branch.astype(float)


class _UpgradeScorer:
    """Benefit of every single-substation upgrade, on the level matrix.

    Raising substation j from level cur_j to t revives it in exactly the
    scenarios flooded at a level in cur_j+1..t, so with the per-level table
    ``W[l, j] = sum_s p_s * gained[s, j] * [L[s, j] == l]`` the benefit is
    ``sum_{l=cur_j+1..t} W[l, j]``.  A revived substation gains its own load,
    generation and intra-substation flow, plus the capacity of its
    cross-substation branches whose far end is alive in that scenario.
    """

    def __init__(self, weights: AttributeWeights, levels: LevelMatrix):
        self.lm = levels
        self.sub_ids = levels.sub_ids
        self.eta_flow = weights.eta_flow
        self.base = (
            levels.load * weights.eta_load
            + levels.gen * weights.eta_gen
            + levels.intra * weights.eta_flow
        )
        self.cur = np.zeros(len(self.sub_ids), dtype=int)
        self.alive = (levels.levels <= 0).astype(float)
        self._table = None

    def values(self) -> np.ndarray:
        """``V[t, j]``: benefit of raising substation j to level t (0 for t <= cur_j)."""
        lm = self.lm
        if self._table is None:
            gained = self.base
            if self.eta_flow:
                gained = gained + self.eta_flow * (self.alive @ lm.cross)
            self._table = np.einsum("lsj,sj->lj", lm.at_level, lm.p[:, None] * gained)
        return np.cumsum(np.where(lm.level_rows > self.cur, self._table, 0.0), axis=0)

    def raise_level(self, j: int, target: int) -> None:
        """Buy an upgrade: only substation j's alive column changes."""
        self.cur[j] = target
        self.alive[:, j] = self.lm.levels[:, j] <= target
        if self.eta_flow:
            self._table = None


def greedy(
    weights: AttributeWeights,
    budget: Budget,
    network: GridNetwork,
    scenario_set: FloodScenarioSet,
    schedule: CostSchedule,
    r_hat: int,
    levels: LevelMatrix | None = None,
) -> MitigationPlan:
    """One greedy pass: repeatedly buy the best benefit-per-cost upgrade.

    Candidates are scanned by substation in network order, then by target
    level ascending; a candidate replaces the best so far when its ratio is
    larger by more than 1e-12, and ratios within 1e-12 break by
    (substation id, level), so identical inputs yield the identical plan.
    ``levels`` is the instance's :class:`LevelMatrix` when the caller keeps
    one; otherwise the pass builds its own.
    """
    if r_hat < 2:
        return ZERO_PLAN  # no attainable level to buy
    if levels is None:
        levels = LevelMatrix(network, scenario_set, schedule, r_hat)
    elif levels.r_hat != r_hat:
        raise ValueError(f"level matrix is for r_hat={levels.r_hat}, not {r_hat}")
    scorer = _UpgradeScorer(weights, levels)
    subs = levels.sub_ids
    cumulative = levels.cumulative
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
    levels: LevelMatrix | None = None,
) -> list[MitigationPlan]:
    """Deduplicated greedy plans across the flow-weight grid, all on one
    :class:`LevelMatrix` (the caller's, or one built here)."""
    if levels is None:
        levels = LevelMatrix(network, scenario_set, schedule, r_hat)
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
            levels,
        )
        if plan.key() not in seen:
            seen.add(plan.key())
            plans.append(plan)
    return plans
