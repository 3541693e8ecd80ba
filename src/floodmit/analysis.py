"""Budget sweeps and solution diagnostics.

The sweep solves the planning problem at every integer budget in ascending
order.  The feasible first-stage space only grows with the budget, so prior
optima stay feasible and join the greedy portfolio as warm starts, and the
final simplex basis of one budget seeds the root relaxation of the next
(only the budget right-hand side changes).  Objectives are therefore
monotone nonincreasing across the sweep, while the plans themselves usually
are not nested; the diagnostics here quantify that.

Everything that depends only on the instance is built once per sweep: the
model, one :class:`~floodmit.heuristic.LevelMatrix` that every budget's
greedy portfolio and spared-capacity row read, and one
:class:`~floodmit.recourse.RecourseEvaluator`, the instance's second stage.
The evaluator builds the value tables and keeps each plan's evaluation, so a
plan that several budgets pool as a warm start is evaluated once.  Budget
0's search builds the simplex workspace over the model's matrix; its root
basis carries that workspace, and its LU, to the next budget, which only
resets the right-hand side.

A value-table model's start basis, the zero plan's vertex, is primal
feasible at every budget, and at budget 0 it is a few degenerate primal
pivots from optimal.  So a root with no carried basis goes through the
budget-0 LP: budget 0's root solves it from the start basis, and the root
at a budget B > 0 sets the budget to B and runs the dual simplex from that
LP's optimal basis, the sweep's own warm chain taken in one step.  (The
primal simplex from the start basis at B > 0 takes many more pivots.)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .extensive_form import ExtensiveForm
from .grid_model import GridNetwork
from .heuristic import GreedyCounters, LevelMatrix, left_sums, portfolio
from .mitigation import Budget, CostSchedule, MitigationPlan, max_useful_budget, plan_cost
from .recourse import LossWeights, RecourseCounters, RecourseEvaluator
from .recourse import status_closure  # noqa: F401  (perfbench/tracing.py wraps this name)
from .scenario_model import FloodScenarioSet
from .simplex import SimplexCounters
from .value_table import build
from . import simplex, solver

log = logging.getLogger("floodmit.analysis")


@dataclass(frozen=True)
class SparedCapacity:
    """Expected share (and per-unit amount) of lost capacity that a plan saves."""

    load_proportion: float
    gen_proportion: float
    flow_proportion: float
    load_abs: float
    gen_abs: float
    flow_abs: float


@dataclass
class SweepRow:
    budget: int
    status: str
    objective: float | None
    plan: MitigationPlan | None
    plan_cost: int | None
    spared: SparedCapacity | None
    heuristic_best: float | None
    heuristic_gap: float | None
    nodes: int = 0
    lp_iterations: int = 0
    unique: bool | None = None
    uniqueness_caveat: bool = False


@dataclass(frozen=True)
class Transition:
    substation: str
    budget: int  # the budget at which the new level first applies
    from_level: int
    to_level: int

    @property
    def direction(self) -> str:
        return "up" if self.to_level > self.from_level else "down"


@dataclass
class SweepReport:
    rows: list[SweepRow]
    transitions: list[Transition]
    f_max: int
    recourse_counters: RecourseCounters = field(default_factory=RecourseCounters)
    simplex_counters: SimplexCounters = field(default_factory=SimplexCounters)
    greedy_counters: GreedyCounters = field(default_factory=GreedyCounters)


@dataclass
class NestednessReport:
    violations: list[Transition]  # downward moves: larger budget protects less

    @property
    def nested(self) -> bool:
        return not self.violations


def spared_capacity(plan: MitigationPlan, levels: LevelMatrix) -> SparedCapacity:
    """Expected proportion of flood-lost capacity that the plan keeps running.

    Per scenario, the baseline statuses come from the zero plan; the ratio
    of spared to lost capacity is averaged over scenarios with a scenario
    contributing zero when it loses nothing (there is nothing to spare).
    ``levels`` is the instance's level matrix; it holds the zero plan's lost
    capacity, and its cost schedule and r̂ play no part here.  Every sum adds
    its terms in network (or scenario) order, one at a time from 0.0.
    """
    bus, branch = levels.statuses(plan)
    gain_bus, gain_branch = bus - levels.zero_bus, branch - levels.zero_branch
    spared = np.stack(
        [
            left_sums(gain_bus * levels.arrays.load),
            left_sums(gain_bus * levels.arrays.gen_max),
            left_sums(gain_branch * levels.arrays.flow_limit),
        ],
        axis=1,
    )
    lost = levels.zero_lost
    p = levels.p[:, None]
    has_loss = lost > 0
    props = left_sums(np.where(has_loss, p * spared / np.where(has_loss, lost, 1.0), 0.0), axis=0)
    absol = left_sums(p * spared, axis=0)
    return SparedCapacity(
        load_proportion=float(props[0]),
        gen_proportion=float(props[1]),
        flow_proportion=float(props[2]),
        load_abs=float(absol[0]),
        gen_abs=float(absol[1]),
        flow_abs=float(absol[2]),
    )


def _warm_pool(ef: ExtensiveForm, plans: list[MitigationPlan], evaluator: RecourseEvaluator) -> solver.WarmStarts:
    """The distinct plans as warm starts over the free first-stage columns."""
    pool = list({plan.key(): plan for plan in plans}.values())  # equal keys, equal plans
    cols = ef.free_columns
    return solver.WarmStarts(
        cols,
        np.array([ef.plan_assignment(plan) for plan in pool]).reshape(len(pool), len(cols)),
        np.array([evaluator.evaluate(plan).expected_loss for plan in pool]),
    )


def _budget_zero_basis(ef: ExtensiveForm, counters: SimplexCounters) -> simplex.BasisState | None:
    """The optimal basis of the model's budget-0 LP, solved from its start
    basis on a workspace the basis carries, or None if that LP fails; the
    LP and its workspace are counted in ``counters``."""
    ws = solver.milp_workspace(ef.with_budget(0).problem)
    res = simplex.solve_linear_program(workspace=ws, warm=ef.start_basis)
    counters.workspaces += 1
    counters.record(res)
    return res.basis_state if res.status == simplex.STATUS_OPTIMAL else None


def solve_instance(
    ef: ExtensiveForm,
    warm_plans: list[MitigationPlan],
    evaluator: RecourseEvaluator,
    root_basis=None,
    check_unique: bool = False,
) -> tuple[solver.MilpSolution, MitigationPlan, dict]:
    """Solve one budget instance with warm starts; optionally probe uniqueness.

    The warm plans' losses come from ``evaluator``, which keeps each plan's
    evaluation, so a sweep evaluates each plan once over all its budgets.
    ``root_basis`` carries the workspace of an earlier solve over this
    matrix, which the search then reuses.  Without one, the root starts from
    the model's start basis when it has one: directly at budget 0, through
    the budget-0 LP at any other budget.  The solution's ``counters`` and
    ``lp_iterations`` also count that LP, and the counters the uniqueness
    probe.
    """
    pool = _warm_pool(ef, warm_plans, evaluator)
    seed = SimplexCounters()
    if root_basis is None and ef.start_basis is not None:
        root_basis = ef.start_basis if ef.budget.units == 0 else _budget_zero_basis(ef, seed)
    config = solver.BnbConfig(warm_starts=pool, root_warm_basis=root_basis)
    sol = solver.solve_milp(ef.problem, config)
    sol.counters.add(seed)
    sol.lp_iterations += seed.pivots
    if sol.status != "optimal":
        raise solver.SolverError(f"budget {ef.budget.units}: solver stopped with {sol.status}")
    plan = ef.plan_from_x(sol.x)
    extras: dict = {}
    if check_unique:
        cols = ef.free_columns
        unique, witness = solver.check_uniqueness(
            ef.problem, cols, sol.x[cols], sol.objective, counters=sol.counters
        )
        extras["unique"] = unique
        extras["witness"] = None if witness is None else ef.plan_from_x(witness)
        extras["caveat"] = plan_cost(plan, ef.schedule) < ef.budget.units
    return sol, plan, extras


def sweep(
    network: GridNetwork,
    scenario_set: FloodScenarioSet,
    schedule: CostSchedule,
    r_hat: int,
    weights: LossWeights = LossWeights(),
    f_max: int | None = None,
    check_unique: bool = False,
) -> SweepReport:
    """Solve every budget 0..f_max ascending, chaining warm starts.

    A budget whose solve fails is recorded with an error status and the sweep
    continues.
    """
    if f_max is None:
        f_max = max_useful_budget(scenario_set, schedule, r_hat)
    evaluator = RecourseEvaluator(network, scenario_set, weights)
    base = build(schedule, Budget(f_max), r_hat, evaluator)
    counters = SimplexCounters()
    levels = LevelMatrix(network, scenario_set, schedule, r_hat)

    rows: list[SweepRow] = []
    prior_plans: list[MitigationPlan] = []
    root_basis = None
    for f in range(0, f_max + 1):
        ef = base.with_budget(f)
        greedy_plans = portfolio(Budget(f), levels)
        warm_plans = greedy_plans + prior_plans
        heur_best = min(evaluator.evaluate(p).expected_loss for p in greedy_plans)
        try:
            sol, plan, extras = solve_instance(
                ef, warm_plans, evaluator, root_basis=root_basis, check_unique=check_unique
            )
        except solver.SolverError as exc:
            log.error("budget %d failed: %s", f, exc)
            rows.append(
                SweepRow(
                    budget=f, status="error", objective=None, plan=None, plan_cost=None,
                    spared=None, heuristic_best=heur_best, heuristic_gap=None,
                )
            )
            continue
        counters.add(sol.counters)
        root_basis = sol.root_basis
        prior_plans.append(plan)
        gap = heur_best - sol.objective
        if sol.objective > 0:
            gap /= sol.objective
        rows.append(
            SweepRow(
                budget=f,
                status="optimal",
                objective=sol.objective,
                plan=plan,
                plan_cost=plan_cost(plan, schedule),
                spared=spared_capacity(plan, levels),
                heuristic_best=heur_best,
                heuristic_gap=gap,
                nodes=sol.nodes_explored,
                lp_iterations=sol.lp_iterations,
                unique=extras.get("unique"),
                uniqueness_caveat=extras.get("caveat", False),
            )
        )
        log.info("budget %d: objective %.6f plan %s", f, sol.objective, plan.levels)

    transitions = []
    for prev, cur in zip(rows, rows[1:]):
        if prev.plan is None or cur.plan is None:
            continue
        subs = sorted(set(prev.plan.levels) | set(cur.plan.levels))
        for sub in subs:
            a, b = prev.plan.level_of(sub), cur.plan.level_of(sub)
            if a != b:
                transitions.append(Transition(substation=sub, budget=cur.budget, from_level=a, to_level=b))

    return SweepReport(
        rows=rows,
        transitions=transitions,
        f_max=f_max,
        recourse_counters=evaluator.counters,
        simplex_counters=counters,
        greedy_counters=levels.counters,
    )


def nestedness(report: SweepReport) -> NestednessReport:
    """Where do larger budgets protect less?  Empirically they often do."""
    if len(report.rows) < 2:
        raise ValueError("nestedness needs at least two budgets")
    return NestednessReport(violations=[t for t in report.transitions if t.to_level < t.from_level])
