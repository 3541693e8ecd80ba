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
the instance as arrays, which the caller builds once per instance (a sweep,
once for all its budgets) and passes in.  A step's scores depend only on
the attribute weights and the current levels, so the matrix scores each
such state once, however many passes and budgets reach it.  The portfolio's
passes run in lockstep: at each step the matrix scores the states of all
active passes that it has not scored yet in one batch, whose rows carry the
same bits as scoring each state alone, and each pass then takes its step.
A single ``greedy`` call is the one-pass case of the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid_model import GridNetwork
from .mitigation import Budget, CostSchedule, MitigationPlan, ZERO_PLAN
from .recourse import status_closure  # noqa: F401  (perfbench/tracing.py wraps this name)
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


def left_sums(terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sums along ``axis`` added one term at a time from 0.0, in order: the
    same floats as a Python ``total += term`` loop (``np.sum`` adds
    pairwise and may round differently)."""
    terms = np.moveaxis(terms, axis, -1)
    padded = np.concatenate([np.zeros(terms.shape[:-1] + (1,)), terms], axis=-1)
    return np.cumsum(padded, axis=-1)[..., -1]


@dataclass
class GreedyCounters:
    """What the greedy passes over one :class:`LevelMatrix` did: passes run
    and distinct states (attribute weights and current levels) scored."""

    passes: int = 0
    states_scored: int = 0


class Candidates(NamedTuple):
    """The upgrades from one greedy state, flat over substation x target:
    entry ``k`` raises substation column ``k // r_hat`` to level
    ``k % r_hat``.  ``cost`` and benefit-per-cost ``ratio`` of each (the
    ratio is -inf where the upgrade costs or gains nothing), and their
    order by ratio, largest first, then by ``k``."""

    cost: np.ndarray
    ratio: np.ndarray
    rank: np.ndarray


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
    ``at_level[l, s, j]`` is ``p[s]`` where ``levels[s, j] == l`` (for
    ``l < r_hat``) and 0 elsewhere, and ``cumulative[j, t]`` is the cost of
    raising substation j to level t.  ``zero_lost[s]``
    is the load, generation and flow capacity that scenario s loses with no
    mitigation.

    A greedy step's candidates depend only on the attribute weights and the
    current levels, so :meth:`candidates` scores each such state once, in
    one batch with the other states asked for at the same time, and keeps
    it for every later pass; ``counters`` counts passes and states.
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

        self.p = np.array(scenario_set.probabilities)
        self.levels = scenario_set.level_matrix(self.sub_ids)
        # Only levels below r_hat can ever flip; layer l marks level l.
        self.r_hat = r_hat
        self.level_rows = np.arange(r_hat)[:, None]
        self.at_level = (self.levels == self.level_rows[:, :, None]) * self.p[:, None]
        self.cumulative = np.array(
            [[schedule.cumulative_cost(k, t) for t in range(r_hat)] for k in self.sub_ids],
            dtype=np.int64,
        ).reshape(n, r_hat)
        self.columns = np.arange(n)

        self.zero_bus, self.zero_branch = self.statuses(ZERO_PLAN)
        self.zero_lost = np.stack(
            [
                left_sums((1.0 - self.zero_bus) * a.load),
                left_sums((1.0 - self.zero_bus) * a.gen_max),
                left_sums((1.0 - self.zero_branch) * a.flow_limit),
            ],
            axis=1,
        )
        self.counters = GreedyCounters()
        self._scored: dict[tuple[float, float, float, bytes], Candidates] = {}

    def candidates(self, states: list[tuple[AttributeWeights, np.ndarray]]) -> list[Candidates]:
        """The candidates of each greedy state ``(weights, cur)``, where
        ``cur`` holds the current level of each substation.  The states not
        scored before are scored together in one call of :meth:`_score`."""
        keys = [(w.eta_load, w.eta_gen, w.eta_flow, cur.tobytes()) for w, cur in states]
        new = {key: state for key, state in zip(keys, states) if key not in self._scored}
        if new:
            self.counters.states_scored += len(new)
            self._scored.update(zip(new, self._score(list(new.values()))))
        return [self._scored[key] for key in keys]

    def _score(self, states: list[tuple[AttributeWeights, np.ndarray]]) -> list[Candidates]:
        """Every upgrade's cost and ratio from each state, stacked over the
        states; each state's arrays are the ones it would get alone.

        Raising substation j from level cur_j to t revives it in exactly the
        scenarios flooded at a level in cur_j+1..t, so with the per-level
        table ``W[l, j] = sum_s p_s * [L[s, j] == l] * gained[s, j]`` the
        benefit is ``sum_{l=cur_j+1..t} W[l, j]``.  A revived substation
        gains its own load, generation and intra-substation flow, plus the
        capacity of its cross-substation branches whose far end is alive
        (``L[s, k] <= cur_k``) in that scenario.
        """
        eta = np.array([(w.eta_load, w.eta_gen, w.eta_flow) for w, _ in states]).T[:, :, None]
        cur = np.stack([c for _, c in states])
        own = self.load * eta[0] + self.gen * eta[1] + self.intra * eta[2]
        gained = np.repeat(own[:, None, :], len(self.p), axis=1)
        flow = np.flatnonzero(eta[2, :, 0])
        if flow.size:
            alive = self.levels <= cur[flow, None, :]
            gained[flow] += eta[2, flow, :, None] * (alive @ self.cross)
        table = np.einsum("lsj,psj->plj", self.at_level, gained)
        values = np.cumsum(np.where(self.level_rows > cur[:, None, :], table, 0.0), axis=1)
        values = values.transpose(0, 2, 1).reshape(len(states), -1)
        cost = (self.cumulative - self.cumulative[self.columns, cur][:, :, None]).reshape(len(states), -1)
        ratio = np.full(cost.shape, -np.inf)
        np.divide(values, cost, out=ratio, where=(cost > 0) & (values > 0))
        rank = np.argsort(-ratio, axis=1, kind="stable")
        return [Candidates(*row) for row in zip(cost, ratio, rank)]

    def statuses(self, plan: MitigationPlan) -> tuple[np.ndarray, np.ndarray]:
        """0/1 statuses per scenario and bus, and per scenario and branch,
        from :meth:`~floodmit.grid_model.GridArrays.closure`: a substation
        survives iff its flood level is at most the plan's level."""
        planned = np.array([plan.level_of(k) for k in self.sub_ids], dtype=int)
        bus, branch = self.arrays.closure(self.levels <= planned)
        return bus.astype(float), branch.astype(float)


def _best_upgrade(cand: Candidates, remaining: int, subs: tuple[str, ...]) -> int | None:
    """The affordable candidate that a scan by substation in network order,
    then by target, picks among the upgrades of finite ratio: one replaces
    the best so far when its ratio is larger by more than 1e-12, and ratios
    within 1e-12 break by (substation id, level).  None when no such
    candidate is affordable.

    Only the affordable ratios that chain down from the largest in steps of
    at most 2e-12 can win that scan: every other one lies more than 1e-12
    below each of them, so it neither replaces one nor holds one off, and
    the scan skips it.
    """
    costs, ratios = cand.cost.tolist(), cand.ratio.tolist()
    contenders, last = [], None
    for k in cand.rank.tolist():
        ratio = ratios[k]
        if ratio == -np.inf:
            break
        if costs[k] > remaining:
            continue
        if last is not None and last - ratio > 2e-12:
            break
        contenders.append(k)
        last = ratio
    if not contenders:
        return None
    r_hat = len(ratios) // len(subs)
    best = None  # (ratio, sub, target, k)
    for k in sorted(contenders):  # flat order is scan order
        ratio, sub, t = ratios[k], subs[k // r_hat], k % r_hat
        if best is None or ratio > best[0] + 1e-12:
            best = (ratio, sub, t, k)
        elif abs(ratio - best[0]) <= 1e-12 and (sub, t) < (best[1], best[2]):
            best = (ratio, sub, t, k)
    return best[3]


def _lockstep(grid: list[AttributeWeights], budget: Budget, levels: LevelMatrix) -> list[MitigationPlan]:
    """One greedy pass per attribute weights in ``grid``, run side by side:
    at each step the matrix scores the active passes' states in one batch,
    then each pass buys the upgrade that :func:`_best_upgrade` picks, so
    every plan is the one its pass would reach alone."""
    subs, r_hat = levels.sub_ids, levels.r_hat
    if r_hat < 2:
        return [ZERO_PLAN] * len(grid)  # no attainable level to buy
    levels.counters.passes += len(grid)
    cur = np.zeros((len(grid), len(subs)), dtype=int)
    remaining = [budget.units] * len(grid)
    active = [p for p in range(len(grid)) if remaining[p] > 0]
    while active:
        scored = levels.candidates([(grid[p], cur[p]) for p in active])
        stepped = []
        for p, cand in zip(active, scored):
            k = _best_upgrade(cand, remaining[p], subs)
            if k is not None:
                cur[p, k // r_hat] = k % r_hat
                remaining[p] -= int(cand.cost[k])
                if remaining[p] > 0:
                    stepped.append(p)
        active = stepped
    return [MitigationPlan(dict(zip(subs, row))) for row in cur.tolist()]


def greedy(weights: AttributeWeights, budget: Budget, levels: LevelMatrix) -> MitigationPlan:
    """One greedy pass over the instance's :class:`LevelMatrix`: repeatedly
    buy the best benefit-per-cost upgrade, the affordable one that
    :func:`_best_upgrade` picks, so identical inputs yield the identical
    plan.  Each step reads the scored candidates of its state from the
    matrix, which scores every state once.
    """
    return _lockstep([weights], budget, levels)[0]


def portfolio(budget: Budget, levels: LevelMatrix) -> list[MitigationPlan]:
    """Deduplicated greedy plans across the flow-weight grid, in grid order,
    from passes run in lockstep on the instance's :class:`LevelMatrix`."""
    grid = [AttributeWeights(eta_load=1.0, eta_gen=0.0, eta_flow=eta_flow) for eta_flow in ETA_FLOW_GRID]
    plans: list[MitigationPlan] = []
    seen = set()
    for plan in _lockstep(grid, budget, levels):
        if plan.key() not in seen:
            seen.add(plan.key())
            plans.append(plan)
    return plans
