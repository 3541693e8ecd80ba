"""Per-scenario grid response: status closure and the DC load-shed LP.

Given a barrier plan and a flooding realization, every component's
operational status is fully determined: a substation survives iff its plan
level covers its flood level, a bus inherits its substation's status, and a
branch needs both endpoints alive.  With statuses fixed, the remaining
dispatch problem is a linear program minimizing

    lambda_shed * sum(load * unserved fraction) + lambda_over * sum(overgen)

subject to nodal balance, Ohm's law on live branches, flow/angle limits, and
status-scaled generation bounds.  Overgeneration is the slack that lets a
generator effectively run below its lower bound, which is what makes the LP
feasible for every (plan, scenario) pair: shedding everything and generating
nothing always satisfies the constraints.

The statuses depend on the plan only through the set of dead substations, so
one function derives that set and one turns it into statuses; the cached
evaluator keys its dispatch solves on the same set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import simplex
from .grid_model import GridNetwork
from .mitigation import MitigationPlan
from .scenario_model import FloodScenario, FloodScenarioSet


@dataclass(frozen=True)
class LossWeights:
    lambda_shed: float = 1.0
    lambda_over: float = 1.0

    def __post_init__(self):
        if self.lambda_shed < 0 or self.lambda_over < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.lambda_shed == 0 and self.lambda_over == 0:
            raise ValueError("at least one loss weight must be positive")


@dataclass(frozen=True)
class StatusVector:
    """Operational 0/1 status per bus (alpha) and per branch (beta)."""

    alpha: dict[str, int]
    beta: dict[str, int]


@dataclass(frozen=True)
class DispatchState:
    p_hat: dict[str, float]
    p_check: dict[str, float]
    p_flow: dict[str, float]
    delta: dict[str, float]
    theta: dict[str, float]


@dataclass(frozen=True)
class ScenarioOutcome:
    scenario_id: str
    probability: float
    loss: float
    served_load: float
    shed_load: float
    overgeneration: float
    dead_substations: tuple[str, ...]


@dataclass(frozen=True)
class PlanEvaluation:
    expected_loss: float
    outcomes: tuple[ScenarioOutcome, ...]


def dead_substations(plan: MitigationPlan, scenario: FloodScenario) -> tuple[str, ...]:
    """Sorted ids of the substations whose flood level exceeds the plan's level.

    Floods beyond the top attainable level can never be covered.
    """
    return tuple(
        sorted(sub for sub, lvl in scenario.levels.items() if plan.level_of(sub) < lvl)
    )


def statuses_for_dead(network: GridNetwork, dead: tuple[str, ...]) -> StatusVector:
    """A bus is up iff its substation is not dead; a branch needs both ends up."""
    dead_set = set(dead)
    alpha = {b.id: 0 if b.substation_id in dead_set else 1 for b in network.buses}
    beta = {
        br.id: alpha[br.from_bus] * alpha[br.to_bus] for br in network.branches
    }
    return StatusVector(alpha=alpha, beta=beta)


def status_closure(
    network: GridNetwork, plan: MitigationPlan, scenario: FloodScenario
) -> StatusVector:
    """Statuses implied by a plan under one flooding realization."""
    return statuses_for_dead(network, dead_substations(plan, scenario))


def _recourse_arrays(network: GridNetwork, statuses: StatusVector, weights: LossWeights):
    """Assemble the fixed-status dispatch LP in raw array form.

    Variable layout: [p_hat | p_check | delta | theta | p_flow].
    When a branch is live, its angle-difference limit folds into the flow
    bound through Ohm's law: |flow| = |b| * |angle diff| <= |b| * diff_max.
    Dead components pin to zero through their bounds, so no big-M rows are
    needed here.
    """
    buses = network.buses
    branches = network.branches
    nb, ne = len(buses), len(branches)
    bus_pos = {b.id: i for i, b in enumerate(buses)}
    branch_pos = {br.id: e for e, br in enumerate(branches)}

    n_var = 4 * nb + ne
    i_hat = 0
    i_chk = nb
    i_del = 2 * nb
    i_the = 3 * nb
    i_flo = 4 * nb

    lb = np.zeros(n_var)
    ub = np.zeros(n_var)
    c = np.zeros(n_var)
    offset = 0.0

    for i, bus in enumerate(buses):
        a = statuses.alpha[bus.id]
        lb[i_hat + i], ub[i_hat + i] = bus.p_gen_min * a, bus.p_gen_max * a
        lb[i_chk + i], ub[i_chk + i] = 0.0, np.inf if a else 0.0
        lb[i_del + i], ub[i_del + i] = 0.0, float(a)
        lb[i_the + i], ub[i_the + i] = -network.angle_abs_max, network.angle_abs_max
        if bus.is_reference:
            lb[i_the + i] = ub[i_the + i] = 0.0
        c[i_chk + i] = weights.lambda_over
        c[i_del + i] = -weights.lambda_shed * bus.p_load
        offset += weights.lambda_shed * bus.p_load

    rows_i, rows_j, rows_v = [], [], []
    senses: list[str] = []
    rhs: list[float] = []

    def add_row(terms, sense, b):
        k = len(senses)
        for j, v in terms:
            rows_i.append(k)
            rows_j.append(j)
            rows_v.append(v)
        senses.append(sense)
        rhs.append(b)

    for e, br in enumerate(branches):
        live = statuses.beta[br.id]
        if live:
            limit = min(br.flow_limit, abs(br.susceptance) * network.angle_diff_max)
            lb[i_flo + e], ub[i_flo + e] = -limit, limit
            nf, nt = bus_pos[br.from_bus], bus_pos[br.to_bus]
            # Ohm's law, literal sign convention: flow = -b * (theta_n - theta_m).
            add_row(
                [(i_flo + e, 1.0), (i_the + nf, br.susceptance), (i_the + nt, -br.susceptance)],
                "E",
                0.0,
            )
        else:
            lb[i_flo + e] = ub[i_flo + e] = 0.0

    for i, bus in enumerate(buses):
        terms = [(i_hat + i, 1.0), (i_chk + i, -1.0), (i_del + i, -bus.p_load)]
        for br_id in network.branches_at_bus[bus.id]:
            br = network.branch_by_id[br_id]
            e = branch_pos[br_id]
            terms.append((i_flo + e, 1.0 if br.to_bus == bus.id else -1.0))
        add_row(terms, "E", 0.0)
        if statuses.alpha[bus.id]:
            # Overgeneration never exceeds generation.
            add_row([(i_chk + i, 1.0), (i_hat + i, -1.0)], "L", 0.0)

    A = sp.csc_matrix(
        (rows_v, (rows_i, rows_j)), shape=(len(senses), n_var)
    )
    return c, A, senses, np.array(rhs), lb, ub, offset, (i_hat, i_chk, i_del, i_the, i_flo)


def solve_recourse_lp(
    network: GridNetwork, statuses: StatusVector, weights: LossWeights
) -> tuple[float, DispatchState]:
    """Optimal dispatch loss under fixed statuses.

    The problem is feasible for any status vector, so anything but a verified
    optimum (including one that fails the simplex duality or residual gate)
    indicates a defect and raises instead of returning.
    """
    c, A, senses, b, lb, ub, offset, layout = _recourse_arrays(network, statuses, weights)
    res = simplex.solve_linear_program(c, A, senses, b, lb, ub)
    if res.status != simplex.STATUS_OPTIMAL:
        raise RuntimeError(f"recourse LP unexpectedly terminated {res.status}")

    i_hat, i_chk, i_del, i_the, i_flo = layout
    x = res.x
    dispatch = DispatchState(
        p_hat={b_.id: float(x[i_hat + i]) for i, b_ in enumerate(network.buses)},
        p_check={b_.id: float(x[i_chk + i]) for i, b_ in enumerate(network.buses)},
        delta={b_.id: float(x[i_del + i]) for i, b_ in enumerate(network.buses)},
        theta={b_.id: float(x[i_the + i]) for i, b_ in enumerate(network.buses)},
        p_flow={br.id: float(x[i_flo + e]) for e, br in enumerate(network.branches)},
    )
    return res.objective + offset, dispatch


class RecourseEvaluator:
    """Caches scenario losses keyed by the set of dead substations.

    Two plans that leave the same substations dead in a scenario face the
    identical dispatch LP, so sweeps and greedy searches reuse solves.
    """

    def __init__(self, network: GridNetwork, weights: LossWeights):
        self.network = network
        self.weights = weights
        self._cache: dict[tuple[str, ...], tuple[float, float, float, float]] = {}

    def _solve_for_dead(self, dead: tuple[str, ...]) -> tuple[float, float, float, float]:
        if dead not in self._cache:
            loss, dispatch = solve_recourse_lp(
                self.network, statuses_for_dead(self.network, dead), self.weights
            )
            served = sum(
                b.p_load * dispatch.delta[b.id] for b in self.network.buses
            )
            shed = self.network.total_load - served
            over = sum(dispatch.p_check.values())
            self._cache[dead] = (loss, served, shed, over)
        return self._cache[dead]

    def scenario_outcome(self, plan: MitigationPlan, scenario: FloodScenario) -> ScenarioOutcome:
        dead = dead_substations(plan, scenario)
        loss, served, shed, over = self._solve_for_dead(dead)
        return ScenarioOutcome(
            scenario_id=scenario.id,
            probability=scenario.probability,
            loss=loss,
            served_load=served,
            shed_load=shed,
            overgeneration=over,
            dead_substations=dead,
        )

    def evaluate(self, plan: MitigationPlan, scenario_set: FloodScenarioSet) -> PlanEvaluation:
        outcomes = tuple(
            self.scenario_outcome(plan, s) for s in scenario_set.scenarios
        )
        expected = sum(o.probability * o.loss for o in outcomes)
        return PlanEvaluation(expected_loss=expected, outcomes=outcomes)


def evaluate_plan(
    network: GridNetwork,
    plan: MitigationPlan,
    scenario_set: FloodScenarioSet,
    weights: LossWeights = LossWeights(),
    evaluator: RecourseEvaluator | None = None,
) -> PlanEvaluation:
    """Probability-weighted dispatch loss of a plan across all scenarios."""
    if evaluator is None:
        evaluator = RecourseEvaluator(network, weights)
    return evaluator.evaluate(plan, scenario_set)
