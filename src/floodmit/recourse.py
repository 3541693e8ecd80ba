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
one function derives that set and one turns it into statuses; the cached
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

from dataclasses import dataclass, field
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
    # Simplex pivots the solve took.
    pivots: int = field(default=0, repr=False, compare=False)


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


def _recourse_bounds(network: GridNetwork, statuses: StatusVector) -> tuple[np.ndarray, np.ndarray]:
    """Variable bounds of the dispatch LP, the only part statuses change.

    A live branch's angle-difference limit folds into its flow bound through
    Ohm's law (|flow| = |b| * |angle diff| <= |b| * diff_max) and its relief
    column is pinned to zero.  A dead branch's flow is pinned to zero and its
    relief is boxed by 2 |b| angle_abs_max, which any pair of angles within
    their limits satisfies, so its Ohm row no longer couples its endpoints.
    """
    i_hat, i_chk, i_del, i_the, i_flo, i_rel = _layout(network)
    n_var = i_rel + len(network.branches)
    lb = np.zeros(n_var)
    ub = np.zeros(n_var)
    for i, bus in enumerate(network.buses):
        a = statuses.alpha[bus.id]
        lb[i_hat + i], ub[i_hat + i] = bus.p_gen_min * a, bus.p_gen_max * a
        lb[i_chk + i], ub[i_chk + i] = 0.0, np.inf if a else 0.0
        lb[i_del + i], ub[i_del + i] = 0.0, float(a)
        lb[i_the + i], ub[i_the + i] = -network.angle_abs_max, network.angle_abs_max
        if bus.is_reference:
            lb[i_the + i] = ub[i_the + i] = 0.0
    for e, br in enumerate(network.branches):
        if statuses.beta[br.id]:
            limit = min(br.flow_limit, abs(br.susceptance) * network.angle_diff_max)
            lb[i_flo + e], ub[i_flo + e] = -limit, limit
        else:
            relief = 2.0 * abs(br.susceptance) * network.angle_abs_max
            lb[i_rel + e], ub[i_rel + e] = -relief, relief
    return lb, ub


def _recourse_arrays(network: GridNetwork, statuses: StatusVector, weights: LossWeights):
    """Assemble the fixed-status dispatch LP in raw array form.

    Variable layout: [p_hat | p_check | delta | theta | p_flow | u].  Every
    branch has an Ohm row  flow - b (theta_to - theta_from) + u = 0  and
    every bus a balance row and an overgeneration row, whatever the
    statuses: dead components pin to zero through their bounds (a dead bus's
    overgeneration row reads 0 <= 0), and a dead branch's relief column u
    absorbs its angle difference (see :func:`_recourse_bounds`).  So the
    objective, matrix, senses and right-hand side depend only on the network
    and the weights, and no big-M rows are needed.
    """
    buses = network.buses
    branches = network.branches
    bus_pos = {b.id: i for i, b in enumerate(buses)}
    branch_pos = {br.id: e for e, br in enumerate(branches)}
    layout = _layout(network)
    i_hat, i_chk, i_del, i_the, i_flo, i_rel = layout

    lb, ub = _recourse_bounds(network, statuses)
    n_var = len(lb)
    c = np.zeros(n_var)
    for i, bus in enumerate(buses):
        c[i_chk + i] = weights.lambda_over
        c[i_del + i] = -weights.lambda_shed * bus.p_load

    ohm, balance, overgen = _row_layout(network)
    n_rows = len(ohm) + len(balance) + len(overgen)
    rows_i, rows_j, rows_v = [], [], []
    senses = ["E"] * n_rows

    def add_row(k, terms):
        for j, v in terms:
            rows_i.append(k)
            rows_j.append(j)
            rows_v.append(v)

    for e, br in enumerate(branches):
        nf, nt = bus_pos[br.from_bus], bus_pos[br.to_bus]
        # Ohm's law, literal sign convention: flow = -b * (theta_n - theta_m).
        add_row(
            ohm[e],
            [
                (i_flo + e, 1.0),
                (i_the + nf, br.susceptance),
                (i_the + nt, -br.susceptance),
                (i_rel + e, 1.0),
            ],
        )

    for i, bus in enumerate(buses):
        terms = [(i_hat + i, 1.0), (i_chk + i, -1.0), (i_del + i, -bus.p_load)]
        for br_id in network.branches_at_bus[bus.id]:
            br = network.branch_by_id[br_id]
            e = branch_pos[br_id]
            terms.append((i_flo + e, 1.0 if br.to_bus == bus.id else -1.0))
        add_row(balance[i], terms)
        # Overgeneration never exceeds generation.
        add_row(overgen[i], [(i_chk + i, 1.0), (i_hat + i, -1.0)])
        senses[overgen[i]] = "L"

    A = sp.csc_matrix((rows_v, (rows_i, rows_j)), shape=(n_rows, n_var))
    return c, A, senses, np.zeros(n_rows), lb, ub, _loss_offset(network, weights), layout


def _loss_offset(network: GridNetwork, weights: LossWeights) -> float:
    """Constant term of the loss: its value when all load is shed."""
    return sum(weights.lambda_shed * bus.p_load for bus in network.buses)


def solve_recourse_lp(
    network: GridNetwork,
    statuses: StatusVector,
    weights: LossWeights,
    *,
    workspace: simplex.Workspace | None = None,
    warm: simplex.BasisState | None = None,
) -> tuple[float, DispatchState]:
    """Optimal dispatch loss under fixed statuses.

    Without ``workspace`` the LP is assembled and solved cold.  A workspace
    built from :func:`_recourse_arrays` for the same network and weights
    (under any statuses) only gets this LP's bounds, and the solve starts
    from the ``warm`` basis.

    The problem is feasible for any status vector, so anything but a verified
    optimum (including one that fails the simplex duality or residual gate)
    indicates a defect and raises instead of returning.
    """
    if workspace is None:
        c, A, senses, b, lb, ub, _, _ = _recourse_arrays(network, statuses, weights)
        res = simplex.solve_linear_program(c, A, senses, b, lb, ub)
    else:
        workspace.set_bounds(*_recourse_bounds(network, statuses))
        res = simplex.solve_linear_program(workspace=workspace, warm=warm)
    if res.status != simplex.STATUS_OPTIMAL:
        raise RuntimeError(f"recourse LP unexpectedly terminated {res.status}")

    i_hat, i_chk, i_del, i_the, i_flo, _ = _layout(network)
    x = res.x
    dispatch = DispatchState(
        p_hat={b_.id: float(x[i_hat + i]) for i, b_ in enumerate(network.buses)},
        p_check={b_.id: float(x[i_chk + i]) for i, b_ in enumerate(network.buses)},
        delta={b_.id: float(x[i_del + i]) for i, b_ in enumerate(network.buses)},
        theta={b_.id: float(x[i_the + i]) for i, b_ in enumerate(network.buses)},
        p_flow={br.id: float(x[i_flo + e]) for e, br in enumerate(network.branches)},
        pivots=res.iterations,
    )
    return res.objective + _loss_offset(network, weights), dispatch


class _Islands(NamedTuple):
    """How a dead set splits the live buses: the island of every bus (-1 for
    a dead bus), the first bus of every island, and every island's load,
    minimum and maximum generation."""

    labels: np.ndarray
    first: np.ndarray
    load: np.ndarray
    gen_min: np.ndarray
    gen_max: np.ndarray


class _CopperPlate:
    """The island copper-plate bound of a network and its witness dispatch,
    on arrays built once per network."""

    def __init__(self, network: GridNetwork):
        buses = network.buses
        pos = {b.id: i for i, b in enumerate(buses)}
        self.network = network
        self.substation = [b.substation_id for b in buses]
        self.load, self.gen_min, self.gen_max = (
            np.array([getattr(b, attr) for b in buses], dtype=float)
            for attr in ("p_load", "p_gen_min", "p_gen_max")
        )
        self.is_reference = np.array([b.is_reference for b in buses], dtype=bool)
        self.frm = np.array([pos[br.from_bus] for br in network.branches], dtype=int)
        self.to = np.array([pos[br.to_bus] for br in network.branches], dtype=int)
        self.ends = list(zip(self.frm.tolist(), self.to.tolist()))
        # Row e of the incidence matrix is +1 at the from bus, -1 at the to bus.
        self.incidence = np.zeros((len(self.ends), len(buses)))
        self.incidence[np.arange(len(self.ends)), self.frm] += 1.0
        self.incidence[np.arange(len(self.ends)), self.to] -= 1.0
        # Ohm's law: flow_e = -b_e (theta_from - theta_to).
        self.conductance = -np.array([br.susceptance for br in network.branches], dtype=float)
        self.flow_limit = np.array(
            [min(br.flow_limit, abs(br.susceptance) * network.angle_diff_max) for br in network.branches],
            dtype=float,
        )

    def islands(self, dead: tuple[str, ...]) -> _Islands:
        """Connected components of the live buses over the live branches,
        numbered in the order of their first bus."""
        dead_set = set(dead)
        parent = [-1 if sub in dead_set else i for i, sub in enumerate(self.substation)]

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in self.ends:
            if parent[a] >= 0 and parent[b] >= 0:
                ra, rb = root(a), root(b)
                parent[max(ra, rb)] = min(ra, rb)  # a root stays its island's first bus
        number: dict[int, int] = {}
        labels = np.array(
            [number.setdefault(root(i), len(number)) if p >= 0 else -1 for i, p in enumerate(parent)],
            dtype=int,
        )
        live = labels >= 0
        load, gen_min, gen_max = (
            np.bincount(labels[live], values[live], len(number))
            for values in (self.load, self.gen_min, self.gen_max)
        )
        return _Islands(labels, np.array(list(number), dtype=int), load, gen_min, gen_max)

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
        live = isl.labels >= 0
        lab = isl.labels[live]
        load, gen_min, gen_max = isl.load, isl.gen_min, isl.gen_max
        with np.errstate(divide="ignore", invalid="ignore"):
            served = np.where(load > gen_max, gen_max / load, 1.0)
            absorbed = np.where(gen_min > load, 1.0 - load / gen_min, 0.0)
            step = np.where(gen_max > gen_min, (load - gen_min) / (gen_max - gen_min), 0.0)
        step = step.clip(0.0, 1.0)  # 1 when short of generation, 0 with a surplus
        gen = self.gen_min[live] + step[lab] * (self.gen_max[live] - self.gen_min[live])
        injection = np.zeros(len(live))
        injection[live] = gen - gen * absorbed[lab] - self.load[live] * served[lab]

        # A reference bus keeps angle 0; so does the first bus of an island
        # without one.  Should two reference buses share an island, the
        # balance residual at the grounded rows refuses the witness.
        grounded = live & self.is_reference
        anchored = np.zeros(len(load), dtype=bool)
        anchored[isl.labels[grounded]] = True
        grounded[isl.first[~anchored]] = True
        free = live & ~grounded
        on = live[self.frm] & live[self.to]
        conductance = np.where(on, self.conductance, 0.0)
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
    buses = network.buses
    i_hat, i_chk, i_del, i_the, i_flo, i_rel = _layout(network)
    n_var = i_rel + len(network.branches)
    ohm, balance, overgen = _row_layout(network)
    n_rows = len(ohm) + len(balance) + len(overgen)
    labels = islands.labels
    pos = {b.id: i for i, b in enumerate(buses)}
    load, gen_min, gen_max = (
        np.array([getattr(b, attr) for b in buses], dtype=float)
        for attr in ("p_load", "p_gen_min", "p_gen_max")
    )
    is_reference = np.array([b.is_reference for b in buses], dtype=bool)

    basis = np.empty(n_rows, dtype=np.int64)
    status = np.full(n_var + 2 * n_rows, simplex.AT_LOWER, dtype=np.int8)
    for e, br in enumerate(network.branches):
        live = labels[pos[br.from_bus]] >= 0 and labels[pos[br.to_bus]] >= 0
        basis[ohm[e]] = (i_flo if live else i_rel) + e
    basis[overgen] = n_var + overgen  # the slack column of each row
    basis[balance] = np.where(labels >= 0, i_the, i_chk) + np.arange(len(buses))

    for k, first in enumerate(islands.first):
        island = np.flatnonzero(labels == k)
        refs = island[is_reference[island]]
        ground = refs[0] if refs.size else first
        flexible = island[gen_max[island] > gen_min[island]]
        if islands.load[k] > islands.gen_max[k]:
            status[i_hat + island] = simplex.AT_UPPER
            full, i = _fill(island[load[island] > 0], load, islands.gen_max[k])
            status[i_del + full] = simplex.AT_UPPER
            marginal = i_del + i
        elif islands.load[k] >= islands.gen_min[k] and flexible.size:
            status[i_del + island] = simplex.AT_UPPER
            full, i = _fill(flexible, gen_max - gen_min, islands.load[k] - islands.gen_min[k])
            status[i_hat + full] = simplex.AT_UPPER
            marginal = i_hat + i
        else:  # surplus, or a balanced island with no flexible generator
            status[i_del + island] = simplex.AT_UPPER
            absorbers = island[gen_min[island] > 0]
            if not absorbers.size:
                absorbers = island[:1]
            full, i = _fill(absorbers, gen_min, islands.gen_min[k] - islands.load[k])
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

    def _solve_lp(self, dead: tuple[str, ...], islands: _Islands) -> tuple[float, float, float, float]:
        if self._workspace is None:
            c, A, senses, b, lb, ub, _, _ = _recourse_arrays(
                self.network, statuses_for_dead(self.network, ()), self.weights
            )
            self._workspace = simplex.Workspace(c, A, senses, b, lb, ub)
        self.counters.lp_solves += 1
        loss, dispatch = solve_recourse_lp(
            self.network, statuses_for_dead(self.network, dead), self.weights,
            workspace=self._workspace, warm=_island_basis(self.network, islands),
        )
        self.counters.lp_pivots += dispatch.pivots
        served = sum(
            b.p_load * dispatch.delta[b.id] for b in self.network.buses
        )
        over = sum(dispatch.p_check.values())
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
            self._cache[dead] = self._solve_lp(dead, islands)
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
