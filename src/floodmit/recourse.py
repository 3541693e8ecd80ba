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

The LP has one structure per network, and statuses change only its bounds.
Its variables are [p_hat | p_check | delta | theta | p_flow | u].  Every
branch keeps its Ohm row, which carries a relief column u_e: pinned to zero
while the branch is live, boxed in +-2 |b_e| angle_abs_max when it is dead.
Every angle lies within angle_abs_max, so a dead branch never ties the
angles of its endpoints.  Every bus keeps its overgeneration row, which for
a dead bus reads 0 <= 0.

The statuses depend on the plan only through the set of dead substations, so
one function derives that set and :meth:`GridArrays.closure
<floodmit.grid_model.GridArrays.closure>` turns it into statuses; the cached
evaluator keys its dispatch solves on the same set.

No row couples two islands (connected components of live buses over live
branches), so :func:`island_bound` gives a closed-form lower bound on the
loss: one copper plate per island.  The evaluator settles a new dead set
without an LP when a witness dispatch that attains the bound passes a DC
power-flow check of the flow and angle limits; a feasible point whose value
is a lower bound is optimal.  Only the dead sets that fail the check fall
back to the LP, on one simplex workspace per evaluator.  Each fallback
starts from the basis of its own island copper-plate dispatch, which is
dual feasible, so the dual simplex only repairs the flow and angle limits
that bind.  Each dead set is settled the same way whatever came before it,
so a cached loss does not depend on the order of requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Dispatch(NamedTuple):
    """An optimal dispatch in network order: generation, overgeneration,
    served fraction and angle per bus, flow per branch, and the simplex
    pivots the solve took."""

    p_hat: np.ndarray
    p_check: np.ndarray
    delta: np.ndarray
    theta: np.ndarray
    p_flow: np.ndarray
    pivots: int


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


def status_closure(
    network: GridNetwork, plan: MitigationPlan, scenario: FloodScenario
) -> tuple[np.ndarray, np.ndarray]:
    """Bus and branch masks, in network order, implied by a plan under one
    flooding realization."""
    a = network.arrays
    return a.closure(a.sub_up(dead_substations(plan, scenario)))


def _layout(network: GridNetwork) -> tuple[int, int, int, int, int, int]:
    """Column offsets of [p_hat | p_check | delta | theta | p_flow | u]."""
    nb, ne = len(network.buses), len(network.branches)
    return 0, nb, 2 * nb, 3 * nb, 4 * nb, 4 * nb + ne


def _row_layout(network: GridNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices of the Ohm rows (one per branch, first), then per bus its
    balance row and its overgeneration row, interleaved."""
    nb, ne = len(network.buses), len(network.branches)
    balance = ne + 2 * np.arange(nb)
    return np.arange(ne), balance, balance + 1


def _flow_bound(network: GridNetwork) -> np.ndarray:
    """Every branch's flow bound while it is live: its angle-difference
    limit folds in through Ohm's law (|flow| = |b| * |angle diff| <= |b| *
    diff_max)."""
    a = network.arrays
    return np.minimum(a.flow_limit, np.abs(a.susceptance) * network.angle_diff_max)


def _recourse_bounds(
    network: GridNetwork, bus_up: np.ndarray, branch_up: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Variable bounds of the dispatch LP, the only part statuses change.

    A live branch's flow is bounded by :func:`_flow_bound` and its relief
    column is pinned to zero.  A dead branch's flow is pinned to zero and its
    relief is boxed by 2 |b| angle_abs_max, which any pair of angles within
    their limits satisfies, so its Ohm row no longer couples its endpoints.
    """
    a = network.arrays
    zero = np.zeros(len(bus_up))
    limit = _flow_bound(network)
    relief = 2.0 * np.abs(a.susceptance) * network.angle_abs_max
    lb = np.concatenate([
        a.gen_min * bus_up, zero, zero,
        np.where(a.is_reference, 0.0, -network.angle_abs_max),
        np.where(branch_up, -limit, 0.0),
        np.where(branch_up, 0.0, -relief),
    ])
    ub = np.concatenate([
        a.gen_max * bus_up, np.where(bus_up, np.inf, 0.0), bus_up.astype(float),
        np.where(a.is_reference, 0.0, network.angle_abs_max),
        np.where(branch_up, limit, 0.0),
        np.where(branch_up, 0.0, relief),
    ])
    return lb, ub


def _recourse_arrays(network: GridNetwork, weights: LossWeights):
    """Assemble the dispatch LP in raw array form, with every component live.

    Variable layout: [p_hat | p_check | delta | theta | p_flow | u].  Every
    branch has an Ohm row  flow - b (theta_to - theta_from) + u = 0  and
    every bus a balance row and an overgeneration row, whatever the
    statuses: dead components pin to zero through their bounds (a dead bus's
    overgeneration row reads 0 <= 0), and a dead branch's relief column u
    absorbs its angle difference (see :func:`_recourse_bounds`).  So the
    objective, matrix, senses and right-hand side depend only on the network
    and the weights, and no big-M rows are needed.
    """
    a = network.arrays
    nb, ne = len(a.load), len(a.frm)
    i_hat, i_chk, i_del, i_the, i_flo, i_rel = _layout(network)
    bus, e = np.arange(nb), np.arange(ne)

    lb, ub = _recourse_bounds(network, np.ones(nb, dtype=bool), np.ones(ne, dtype=bool))
    c = np.zeros(len(lb))
    c[i_chk + bus] = weights.lambda_over
    c[i_del + bus] = -weights.lambda_shed * a.load

    ohm, balance, overgen = _row_layout(network)
    ones = np.ones(ne)
    # (row, column, value) blocks.  Ohm's law, literal sign convention:
    # flow = -b * (theta_n - theta_m).  A balance row takes a branch's flow
    # in at its to bus and out at its from bus.  Overgeneration never
    # exceeds generation.
    blocks = [
        (ohm, i_flo + e, ones),
        (ohm, i_the + a.frm, a.susceptance),
        (ohm, i_the + a.to, -a.susceptance),
        (ohm, i_rel + e, ones),
        (balance, i_hat + bus, np.ones(nb)),
        (balance, i_chk + bus, -np.ones(nb)),
        (balance, i_del + bus, -a.load),
        (balance[a.frm], i_flo + e, -ones),
        (balance[a.to], i_flo + e, ones),
        (overgen, i_chk + bus, np.ones(nb)),
        (overgen, i_hat + bus, -np.ones(nb)),
    ]
    rows_i, rows_j, rows_v = (np.concatenate(part) for part in zip(*blocks))
    senses = ["E"] * ne + ["E", "L"] * nb
    A = sp.csc_matrix((rows_v, (rows_i, rows_j)), shape=(len(senses), len(lb)))
    return c, A, senses, np.zeros(len(senses)), lb, ub


def _loss_offset(network: GridNetwork, weights: LossWeights) -> float:
    """Constant term of the loss: its value when all load is shed."""
    return sum((weights.lambda_shed * network.arrays.load).tolist())


def solve_recourse_lp(
    network: GridNetwork,
    statuses: tuple[np.ndarray, np.ndarray],
    weights: LossWeights,
    *,
    workspace: simplex.Workspace | None = None,
    warm: simplex.BasisState | None = None,
) -> tuple[float, Dispatch]:
    """Optimal dispatch loss under fixed statuses, the bus and branch masks
    ``(bus_up, branch_up)`` in network order.

    ``workspace`` is one built from :func:`_recourse_arrays` for the same
    network and weights; without one, it is built here.  The workspace gets
    this LP's bounds, and the solve starts from the ``warm`` basis, or cold
    without one.

    The problem is feasible for any statuses, so anything but a verified
    optimum (including one that fails the simplex duality or residual gate)
    indicates a defect and raises instead of returning.
    """
    if workspace is None:
        workspace = simplex.Workspace(*_recourse_arrays(network, weights))
    workspace.set_bounds(*_recourse_bounds(network, *statuses))
    res = simplex.solve_linear_program(workspace=workspace, warm=warm)
    if res.status != simplex.STATUS_OPTIMAL:
        raise RuntimeError(f"recourse LP unexpectedly terminated {res.status}")
    columns = np.split(res.x, _layout(network)[1:])[:5]  # all but the relief u
    return res.objective + _loss_offset(network, weights), Dispatch(*columns, res.iterations)


class _Islands(NamedTuple):
    """How a dead set splits the live buses: the island of every bus (-1 for
    a dead bus), the live-branch mask, the first bus of every island, and
    every island's load, minimum and maximum generation."""

    labels: np.ndarray
    live_branches: np.ndarray
    first: np.ndarray
    load: np.ndarray
    gen_min: np.ndarray
    gen_max: np.ndarray


class _CopperPlate:
    """The island copper-plate bound of a network and its witness dispatch,
    on the network's arrays."""

    def __init__(self, network: GridNetwork):
        a = network.arrays
        self.network = network
        self.arrays = a
        # Row e of the incidence matrix is +1 at the from bus, -1 at the to bus.
        self.incidence = np.eye(len(a.load))[a.frm] - np.eye(len(a.load))[a.to]
        self.flow_limit = _flow_bound(network)

    def islands(self, dead: tuple[str, ...]) -> _Islands:
        """Connected components of the live buses over the live branches,
        numbered in the order of their first bus."""
        a = self.arrays
        bus_up, branch_up = a.closure(a.sub_up(dead))
        up = bus_up.tolist()
        parent = list(range(len(up)))
        for u, v in zip(a.frm[branch_up].tolist(), a.to[branch_up].tolist()):
            while parent[u] != u:  # find the roots, halving the paths
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            parent[max(u, v)] = min(u, v)  # a root stays its island's first bus
        # So parent[i] <= i: a live bus in bus order is a new island's first
        # bus or joins its parent's island, which is already numbered.
        labels, first = [], []
        for i, p in enumerate(parent):
            if not up[i]:
                labels.append(-1)
            elif p == i:
                labels.append(len(first))
                first.append(i)
            else:
                labels.append(labels[p])
        labels = np.array(labels, dtype=int)
        # Dead buses sum into bin 0, which is dropped.
        load, gen_min, gen_max = (
            np.bincount(labels + 1, values, len(first) + 1)[1:] for values in (a.load, a.gen_min, a.gen_max)
        )
        return _Islands(labels, branch_up, np.array(first, dtype=int), load, gen_min, gen_max)

    def loss(self, isl: _Islands, weights: LossWeights) -> tuple[float, float, float, float]:
        """(loss, served, shed, overgeneration) with one copper plate per island.

        An island serves min(L, Gmax) and overgenerates max(0, Gmin - L):
        the least shed and the least overgeneration of any dispatch.  With a
        zero weight a dispatch LP may shed or overgenerate more at the same
        loss, so there the split is not unique; the loss is.
        """
        served = float(np.minimum(isl.load, isl.gen_max).sum())
        over = float(np.maximum(isl.gen_min - isl.load, 0.0).sum())
        shed = self.network.total_load - served
        return weights.lambda_shed * shed + weights.lambda_over * over, served, shed, over

    def witness_is_feasible(self, isl: _Islands) -> bool:
        """Does a dispatch whose loss is the island bound satisfy the dispatch LP?

        The witness, per island: with L > Gmax every generator runs at its
        maximum and every load is served at the fraction Gmax/L; with
        Gmin > L generators run at their minimum and p_check_i =
        gen_min_i (1 - L/Gmin) absorbs the excess; otherwise generation is
        gen_min + s (gen_max - gen_min) with one s per island, and every load
        is served in full.

        Its DC power flow is solved once on the Laplacian of the live
        branches, grounded at the reference bus and at the first bus of
        every island without it.  The balance residual must lie within
        ``RESIDUAL_TOL`` and the flow and angle limits hold within
        ``TOL_FEAS``, after each island without the reference bus is shifted
        to the middle of its angle range.  Dead buses keep angle 0, which
        every dead branch's relief column absorbs.
        """
        a = self.arrays
        live = isl.labels >= 0
        lab = isl.labels[live]
        load, gen_min, gen_max = isl.load, isl.gen_min, isl.gen_max
        with np.errstate(divide="ignore", invalid="ignore"):
            served = np.where(load > gen_max, gen_max / load, 1.0)
            absorbed = np.where(gen_min > load, 1.0 - load / gen_min, 0.0)
            step = np.where(gen_max > gen_min, (load - gen_min) / (gen_max - gen_min), 0.0)
        step = step.clip(0.0, 1.0)  # 1 when short of generation, 0 with a surplus
        gen = a.gen_min[live] + step[lab] * (a.gen_max[live] - a.gen_min[live])
        injection = np.zeros(len(live))
        injection[live] = gen - gen * absorbed[lab] - a.load[live] * served[lab]

        # A reference bus keeps angle 0; so does the first bus of an island
        # without one.  Should two reference buses share an island, the
        # balance residual at the grounded rows refuses the witness.
        grounded = live & a.is_reference
        anchored = np.zeros(len(load), dtype=bool)
        anchored[isl.labels[grounded]] = True
        grounded[isl.first[~anchored]] = True
        free = live & ~grounded
        on = isl.live_branches
        # Ohm's law: flow_e = -b_e (theta_from - theta_to).
        conductance = np.where(on, -a.susceptance, 0.0)
        theta = np.zeros(len(live))
        if free.any():
            cut = self.incidence[:, free]
            try:
                theta[free] = np.linalg.solve(cut.T @ (conductance[:, None] * cut), injection[free])
            except np.linalg.LinAlgError:  # susceptances of mixed sign can cancel
                return False
        flow = conductance * (self.incidence @ theta)
        residual = injection - self.incidence.T @ flow

        lo = np.full(len(load), np.inf)
        hi = np.full(len(load), -np.inf)
        np.minimum.at(lo, lab, theta[live])
        np.maximum.at(hi, lab, theta[live])
        middle = np.where(anchored, 0.0, (lo + hi) / 2.0)
        return bool(
            np.all(np.abs(residual[live]) <= simplex.RESIDUAL_TOL)
            and np.all(np.abs(flow[on]) <= self.flow_limit[on] + simplex.TOL_FEAS)
            and np.all(np.abs(theta[live] - middle[lab]) <= self.network.angle_abs_max + simplex.TOL_FEAS)
        )


def island_bound(network: GridNetwork, dead: tuple[str, ...], weights: LossWeights) -> float:
    """Closed-form lower bound on the dispatch loss of a dead set.

    No dispatch row couples two islands (connected components of live buses
    over live branches), and flows cancel within one, so an island with
    load L serves G - O <= Gmax and overgenerates O >= Gmin - L:

        loss >= lambda_shed * (dead load + sum max(0, L - Gmax))
              + lambda_over * sum max(0, Gmin - L)

    summed over the islands.  This is the loss with a copper plate per
    island, that is, without flow or angle limits.
    """
    plate = _CopperPlate(network)
    return plate.loss(plate.islands(dead), weights)[0]


def _fill(order: np.ndarray, size: np.ndarray, amount: float) -> tuple[np.ndarray, int]:
    """Spread ``amount`` over the buses of ``order`` in turn, each taking its
    ``size`` in full while more remains: (the buses filled in full, the
    marginal bus, which takes the rest)."""
    for n, i in enumerate(order[:-1]):
        if amount <= size[i]:
            return order[:n], int(i)
        amount -= size[i]
    return order[:-1], int(order[-1])


def _island_basis(network: GridNetwork, islands: _Islands) -> simplex.BasisState:
    """Basis of the island copper-plate optimum of a dead set: the vertex the
    dispatch LP reaches once flow and angle limits are dropped.

    Each Ohm row has its flow basic on a live branch and its relief column
    on a dead one, and each bus the slack of its overgeneration row.  A dead
    bus keeps p_check basic in its balance row.  In each island theta is
    basic at every bus but one grounded bus (the reference bus, or else the
    island's first bus, at its lower bound), and one marginal column sets
    the island's price:

    - balanced (Gmin <= L <= Gmax): every load is served; generators fill in
      bus order from gen_min, at their maximum up to the marginal p_hat;
    - short (L > Gmax): every generator runs at its maximum; loads are
      served in bus order up to the marginal delta;
    - surplus (Gmin > L): every generator runs at its minimum; buses absorb
      the excess in bus order with p_check, which replaces the overgeneration
      slack of a bus that absorbs its whole gen_min, up to the marginal
      p_check.

    Every basic column of a live island then prices at the island's one
    balance dual (0, lambda_shed or -lambda_over), so the basis is dual
    feasible and the dual simplex only repairs the limits that bind.
    """
    a = network.arrays
    i_hat, i_chk, i_del, i_the, i_flo, i_rel = _layout(network)
    n_var = i_rel + len(a.frm)
    ohm, balance, overgen = _row_layout(network)
    n_rows = len(ohm) + len(balance) + len(overgen)
    labels = islands.labels

    basis = np.empty(n_rows, dtype=np.int64)
    status = np.full(n_var + 2 * n_rows, simplex.AT_LOWER, dtype=np.int8)
    basis[ohm] = np.where(islands.live_branches, i_flo, i_rel) + ohm
    basis[overgen] = n_var + overgen  # the slack column of each row
    basis[balance] = np.where(labels >= 0, i_the, i_chk) + np.arange(len(labels))

    for k, first in enumerate(islands.first):
        island = np.flatnonzero(labels == k)
        refs = island[a.is_reference[island]]
        ground = refs[0] if refs.size else first
        flexible = island[a.gen_max[island] > a.gen_min[island]]
        if islands.load[k] > islands.gen_max[k]:
            status[i_hat + island] = simplex.AT_UPPER
            full, i = _fill(island[a.load[island] > 0], a.load, islands.gen_max[k])
            status[i_del + full] = simplex.AT_UPPER
            marginal = i_del + i
        elif islands.load[k] >= islands.gen_min[k] and flexible.size:
            status[i_del + island] = simplex.AT_UPPER
            full, i = _fill(flexible, a.gen_max - a.gen_min, islands.load[k] - islands.gen_min[k])
            status[i_hat + full] = simplex.AT_UPPER
            marginal = i_hat + i
        else:  # surplus, or a balanced island with no flexible generator
            status[i_del + island] = simplex.AT_UPPER
            absorbers = island[a.gen_min[island] > 0]
            if not absorbers.size:
                absorbers = island[:1]
            full, i = _fill(absorbers, a.gen_min, islands.gen_min[k] - islands.load[k])
            basis[overgen[full]] = i_chk + full
            marginal = i_chk + i
        basis[balance[ground]] = marginal
    status[basis] = simplex.BASIC
    return simplex.BasisState(basis, status)


@dataclass
class RecourseCounters:
    """What a :class:`RecourseEvaluator` did: scenario outcomes requested,
    dead sets found in the cache, dead sets settled by the island bound's
    witness without an LP, dispatch LPs solved and the simplex pivots those
    LPs took."""

    outcomes: int = 0
    cache_hits: int = 0
    settled_without_lp: int = 0
    lp_solves: int = 0
    lp_pivots: int = 0


class RecourseEvaluator:
    """Caches scenario losses keyed by the set of dead substations.

    Two plans that leave the same substations dead in a scenario face the
    identical dispatch LP, so sweeps and greedy searches reuse solves.  A new
    dead set is first settled without an LP when the witness dispatch of its
    island bound is feasible: a feasible point whose value is a lower bound
    is optimal.  Otherwise its dispatch LP is solved.  All dispatch LPs of the
    network share one simplex workspace, built on the first dead set that
    needs an LP; each LP only resets the bounds and warm-starts the dual
    simplex from :func:`_island_basis`, the vertex of its own island
    copper-plate dispatch.  Since each start depends only on the dead set, a
    cached value does not depend on the order of requests.
    """

    def __init__(self, network: GridNetwork, weights: LossWeights):
        self.network = network
        self.weights = weights
        self.counters = RecourseCounters()
        self._plate = _CopperPlate(network)
        self._cache: dict[tuple[str, ...], tuple[float, float, float, float]] = {}
        self._workspace: simplex.Workspace | None = None

    def _solve_lp(self, islands: _Islands) -> tuple[float, float, float, float]:
        if self._workspace is None:
            self._workspace = simplex.Workspace(*_recourse_arrays(self.network, self.weights))
        self.counters.lp_solves += 1
        loss, dispatch = solve_recourse_lp(
            self.network, (islands.labels >= 0, islands.live_branches), self.weights,
            workspace=self._workspace, warm=_island_basis(self.network, islands),
        )
        self.counters.lp_pivots += dispatch.pivots
        served = sum((self.network.arrays.load * dispatch.delta).tolist())
        over = sum(dispatch.p_check.tolist())
        return loss, served, self.network.total_load - served, over

    def _solve_for_dead(self, dead: tuple[str, ...]) -> tuple[float, float, float, float]:
        if dead in self._cache:
            self.counters.cache_hits += 1
            return self._cache[dead]
        islands = self._plate.islands(dead)
        if self._plate.witness_is_feasible(islands):
            self.counters.settled_without_lp += 1
            self._cache[dead] = self._plate.loss(islands, self.weights)
        else:
            self._cache[dead] = self._solve_lp(islands)
        return self._cache[dead]

    def scenario_outcome(self, plan: MitigationPlan, scenario: FloodScenario) -> ScenarioOutcome:
        self.counters.outcomes += 1
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
) -> PlanEvaluation:
    """Probability-weighted dispatch loss of a plan across all scenarios."""
    return RecourseEvaluator(network, weights).evaluate(plan, scenario_set)
