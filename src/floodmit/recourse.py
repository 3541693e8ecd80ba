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

The statuses depend on the plan only through which substations survive: a
substation survives iff its flood level is at most the plan's level.  A
request to the second stage is therefore a survival mask, one bool per
substation in the order of ``network.arrays``; :meth:`GridArrays.closure
<floodmit.grid_model.GridArrays.closure>` turns a mask into statuses, and
the evaluator keys its dispatch solves on the mask's bytes.

No row couples two islands (connected components of live buses over live
branches), so one copper plate per island gives a closed-form lower bound on
the loss (:func:`_plate_loss`).  The evaluator settles a new mask
without an LP when a witness dispatch that attains the bound passes a DC
power-flow check of the flow and angle limits; a feasible point whose value
is a lower bound is optimal.  New masks are settled in stacks, the only
island structure: their islands, island sums and witness power flows are
array passes over the whole stack, a single request is a stack of one, and
the bound, the witness and the LP's start basis read each member's islands
from the stack.  Only the masks that fail the check fall back to the LP, on
one simplex workspace per evaluator.  Each fallback starts from the basis of
its own island copper-plate dispatch, which is dual feasible, so the dual
simplex only repairs the flow and angle limits that bind.  Each mask is
settled the same way whatever else shares its stack or came before it, so a
cached loss does not depend on the order of requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import simplex
from .grid_model import GridNetwork, checked_finite
from .mitigation import MitigationPlan
from .scenario_model import FloodScenario, FloodScenarioSet


@dataclass(frozen=True)
class LossWeights:
    lambda_shed: float = 1.0
    lambda_over: float = 1.0

    def __post_init__(self):
        for name in ("lambda_shed", "lambda_over"):
            checked_finite(getattr(self, name), f"loss weight {name}")
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


def status_closure(
    network: GridNetwork, plan: MitigationPlan, scenario: FloodScenario
) -> tuple[np.ndarray, np.ndarray]:
    """Bus and branch masks, in network order, implied by a plan under one
    flooding realization."""
    a = network.arrays
    return a.closure(np.array([scenario.level_of(k) <= plan.level_of(k) for k in a.sub_ids], dtype=bool))


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


class _Stack(NamedTuple):
    """The islands of a stack of survival masks, numbered across the stack in
    member order, then in the order of their first bus.

    Per member and bus, ``labels`` holds the island (-1 for a dead bus); per
    member and branch, ``live_branches`` the live mask.  Per island there is
    its ``member``, its ``first`` bus, its load and its minimum and maximum
    generation; member b owns the islands ``start[b]:start[b + 1]``.
    """

    labels: np.ndarray
    live_branches: np.ndarray
    member: np.ndarray
    first: np.ndarray
    start: np.ndarray
    load: np.ndarray
    gen_min: np.ndarray
    gen_max: np.ndarray


def _islands(network: GridNetwork, sub_up: np.ndarray) -> _Stack:
    """Connected components of the live buses over the live branches,
    for every survival mask (row) of the (K, J) stack ``sub_up`` at once.

    The stack's buses are numbered member by member.  Each component
    ends up pointing at its lowest-numbered bus: every live branch whose
    ends point at different buses points the higher of the two at the
    lower, then pointer jumping makes every bus point at the end of its
    chain, until no branch joins two chains.
    """
    a = network.arrays
    nb = len(a.load)
    bus_up, branch_up = a.closure(sub_up)
    offset = nb * np.arange(len(sub_up))[:, None]
    u, v = (a.frm + offset)[branch_up], (a.to + offset)[branch_up]
    root = np.arange(bus_up.size)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    live = bus_up.ravel()
    is_first = live & (root == np.arange(live.size))
    number = np.cumsum(is_first) - 1
    labels = np.where(live, number[root], -1)
    member, first = np.divmod(np.flatnonzero(is_first), nb)
    # Dead buses sum into bin 0, which is dropped; each island adds its
    # buses in bus order.
    load, gen_min, gen_max = (
        np.bincount(labels + 1, np.tile(values, len(sub_up)), len(member) + 1)[1:]
        for values in (a.load, a.gen_min, a.gen_max)
    )
    start = np.searchsorted(member, np.arange(len(sub_up) + 1))
    return _Stack(labels.reshape(bus_up.shape), branch_up, member, first, start, load, gen_min, gen_max)


def _plate_loss(
    network: GridNetwork, stack: _Stack, b: int, weights: LossWeights
) -> tuple[float, float, float, float]:
    """(loss, served, shed, overgeneration) of member b of the stack with
    one copper plate per island: a closed-form lower bound on its
    dispatch loss.

    No dispatch row couples two islands (connected components of live
    buses over live branches), and flows cancel within one, so an island
    with load L serves G - O <= Gmax and overgenerates O >= Gmin - L:

        loss >= lambda_shed * (dead load + sum max(0, L - Gmax))
              + lambda_over * sum max(0, Gmin - L)

    summed over the islands.  This is the loss without flow or angle
    limits.  An island serves min(L, Gmax) and overgenerates
    max(0, Gmin - L): the least shed and the least overgeneration of any
    dispatch.  With a zero weight a dispatch LP may shed or overgenerate
    more at the same loss, so there the split is not unique; the loss is.
    """
    isl = slice(stack.start[b], stack.start[b + 1])
    load = stack.load[isl]
    served = float(np.minimum(load, stack.gen_max[isl]).sum())
    over = float(np.maximum(stack.gen_min[isl] - load, 0.0).sum())
    shed = network.total_load - served
    return weights.lambda_shed * shed + weights.lambda_over * over, served, shed, over


def _witness(network: GridNetwork, stack: _Stack) -> np.ndarray:
    """For each member of the stack: does a dispatch whose loss is the
    island bound satisfy the dispatch LP?

    The witness, per island: with L > Gmax every generator runs at its
    maximum and every load is served at the fraction Gmax/L; with
    Gmin > L generators run at their minimum and p_check_i =
    gen_min_i (1 - L/Gmin) absorbs the excess; otherwise generation is
    gen_min + s (gen_max - gen_min) with one s per island, and every load
    is served in full.  This relies on ``gen_min >= 0`` at every bus, which
    the network reader and :func:`~floodmit.grid_model.validate` enforce:
    the dispatch LP allows no negative generation.

    Its DC power flow is one solve per member, all stacked: the
    Laplacian of the live branches, with an identity row and column at
    the reference bus, at the first bus of every island without it and
    at every dead bus, so those keep angle 0.  A member whose Laplacian
    is singular (susceptances of mixed sign can cancel) is refused.  The
    balance residual must lie within ``RESIDUAL_TOL`` and the flow and
    angle limits hold within ``TOL_FEAS``, after each island without the
    reference bus is shifted to the middle of its angle range.  A dead
    bus's angle 0 is absorbed by every dead branch's relief column.
    """
    a = network.arrays
    n_sets, nb = stack.labels.shape
    if not len(stack.load):  # no live bus anywhere: nothing to dispatch
        return np.ones(n_sets, dtype=bool)
    live = stack.labels >= 0
    lab = np.where(live, stack.labels, 0)
    load, gen_min, gen_max = stack.load, stack.gen_min, stack.gen_max
    with np.errstate(divide="ignore", invalid="ignore"):
        served = np.where(load > gen_max, gen_max / load, 1.0)
        absorbed = np.where(gen_min > load, 1.0 - load / gen_min, 0.0)
        step = np.where(gen_max > gen_min, (load - gen_min) / (gen_max - gen_min), 0.0)
    step = step.clip(0.0, 1.0)  # 1 when short of generation, 0 with a surplus
    gen = a.gen_min + step[lab] * (a.gen_max - a.gen_min)
    injection = np.where(live, gen - gen * absorbed[lab] - a.load * served[lab], 0.0)

    # A reference bus keeps angle 0; so does the first bus of an island
    # without one.  Should two reference buses share an island, the
    # balance residual at the grounded rows refuses the witness.
    grounded = live & a.is_reference
    anchored = np.zeros(len(load), dtype=bool)
    anchored[stack.labels[grounded]] = True
    grounded[stack.member[~anchored], stack.first[~anchored]] = True
    free = live & ~grounded
    on = stack.live_branches
    # Ohm's law: flow_e = -b_e (theta_from - theta_to).
    conductance = np.where(on, -a.susceptance, 0.0)
    cell = nb * nb * np.arange(n_sets)[:, None]
    ff, tt, ft, tf = (cell + nb * i + j for i, j in ((a.frm, a.frm), (a.to, a.to), (a.frm, a.to), (a.to, a.frm)))
    laplacian = np.bincount(
        np.concatenate([ff, tt, ft, tf], axis=1).ravel(),
        np.concatenate([conductance, conductance, -conductance, -conductance], axis=1).ravel(),
        n_sets * nb * nb,
    ).reshape(n_sets, nb, nb)
    laplacian *= free[:, :, None] & free[:, None, :]
    diagonal = laplacian.reshape(n_sets, nb * nb)[:, :: nb + 1]  # a view
    diagonal[~free] = 1.0
    rhs = np.where(free, injection, 0.0)
    solved = np.ones(n_sets, dtype=bool)
    try:
        theta = np.linalg.solve(laplacian, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # retry one member at a time
        theta = np.zeros((n_sets, nb))
        for b in range(n_sets):
            try:
                theta[b] = np.linalg.solve(laplacian[b], rhs[b])
            except np.linalg.LinAlgError:
                solved[b] = False
    flow = conductance * (theta[:, a.frm] - theta[:, a.to])
    rows = nb * np.arange(n_sets)[:, None]
    outflow = np.bincount((a.frm + rows).ravel(), flow.ravel(), n_sets * nb) - np.bincount(
        (a.to + rows).ravel(), flow.ravel(), n_sets * nb
    )
    residual = injection - outflow.reshape(n_sets, nb)

    lo = np.full(len(load), np.inf)
    hi = np.full(len(load), -np.inf)
    np.minimum.at(lo, stack.labels[live], theta[live])
    np.maximum.at(hi, stack.labels[live], theta[live])
    middle = np.where(anchored, 0.0, (lo + hi) / 2.0)
    swing = np.abs(theta - middle[lab])
    return (
        solved
        & np.all(~live | (np.abs(residual) <= simplex.RESIDUAL_TOL), axis=1)
        & np.all(~on | (np.abs(flow) <= _flow_bound(network) + simplex.TOL_FEAS), axis=1)
        & np.all(~live | (swing <= network.angle_abs_max + simplex.TOL_FEAS), axis=1)
    )


def _fill(order: np.ndarray, size: np.ndarray, amount: float) -> tuple[np.ndarray, int]:
    """Spread ``amount`` over the buses of ``order`` in turn, each taking its
    ``size`` in full while more remains: (the buses filled in full, the
    marginal bus, which takes the rest)."""
    for n, i in enumerate(order[:-1]):
        if amount <= size[i]:
            return order[:n], int(i)
        amount -= size[i]
    return order[:-1], int(order[-1])


def _island_basis(network: GridNetwork, stack: _Stack, b: int) -> simplex.BasisState:
    """Basis of the island copper-plate optimum of member b of the stack: the
    vertex the dispatch LP reaches once flow and angle limits are dropped.

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
    labels = stack.labels[b]

    basis = np.empty(n_rows, dtype=np.int64)
    status = np.full(n_var + 2 * n_rows, simplex.AT_LOWER, dtype=np.int8)
    basis[ohm] = np.where(stack.live_branches[b], i_flo, i_rel) + ohm
    basis[overgen] = n_var + overgen  # the slack column of each row
    basis[balance] = np.where(labels >= 0, i_the, i_chk) + np.arange(len(labels))

    for k in range(stack.start[b], stack.start[b + 1]):
        island = np.flatnonzero(labels == k)
        refs = island[a.is_reference[island]]
        ground = refs[0] if refs.size else stack.first[k]
        flexible = island[a.gen_max[island] > a.gen_min[island]]
        load, gen_min, gen_max = stack.load[k], stack.gen_min[k], stack.gen_max[k]
        if load > gen_max:
            status[i_hat + island] = simplex.AT_UPPER
            full, i = _fill(island[a.load[island] > 0], a.load, gen_max)
            status[i_del + full] = simplex.AT_UPPER
            marginal = i_del + i
        elif load >= gen_min and flexible.size:
            status[i_del + island] = simplex.AT_UPPER
            full, i = _fill(flexible, a.gen_max - a.gen_min, load - gen_min)
            status[i_hat + full] = simplex.AT_UPPER
            marginal = i_hat + i
        else:  # surplus, or a balanced island with no flexible generator
            status[i_del + island] = simplex.AT_UPPER
            absorbers = island[a.gen_min[island] > 0]
            if not absorbers.size:
                absorbers = island[:1]
            full, i = _fill(absorbers, a.gen_min, gen_min - load)
            basis[overgen[full]] = i_chk + full
            marginal = i_chk + i
        basis[balance[ground]] = marginal
    status[basis] = simplex.BASIC
    return simplex.BasisState(basis, status)


# Survival masks settled together at most; a stack's Laplacians take
# STACK_SIZE * buses^2 floats.  On the 60-bus corridor instance, stacks of
# 32 raised the peak resident memory of a portfolio run by 0.5 MB over
# settling one mask at a time, stacks of 16 by 0.1 MB at the same speed,
# and stacks of 8 took 13% longer.
STACK_SIZE = 16


@dataclass
class RecourseCounters:
    """What a :class:`RecourseEvaluator` did: scenario outcomes requested,
    survival masks found in the cache, masks settled by the island bound's
    witness without an LP, dispatch LPs solved, the simplex pivots those
    LPs took, and the stacks of new masks settled."""

    outcomes: int = 0
    cache_hits: int = 0
    settled_without_lp: int = 0
    lp_solves: int = 0
    lp_pivots: int = 0
    batches: int = 0


class RecourseEvaluator:
    """The second stage of one instance: a network, its scenario set and the
    loss weights, with ``levels``, the scenario set's flood-level matrix
    over the substations of ``network.arrays``.

    A request is a survival mask over those substations; :meth:`survivors`
    gives a plan's masks, one row per scenario.  Plans that leave the same
    substations alive in a scenario face the identical dispatch LP, so
    losses are cached under the mask's bytes.  New masks are settled in
    stacks of up to ``STACK_SIZE`` by array passes (a single request is a
    stack of one).  A mask whose island witness dispatch is feasible needs
    no LP; the others share one simplex workspace, built on the first such
    mask, and each LP warm-starts the dual simplex from
    :func:`_island_basis`.  Each verdict and start depends only on the mask,
    so a cached value does not depend on the order or stacking of requests.

    :meth:`evaluate` keeps each plan's evaluation under ``plan.key()``.  A
    caller about to request many outcomes passes their masks to
    :meth:`settle` first.  The counters count :meth:`scenario_outcome`
    calls: the first request of a mask counts as settled (with or without an
    LP), every later one as a cache hit, so ``outcomes == cache_hits +
    settled_without_lp + lp_solves`` once every settled mask is requested.

    ``RecourseEvaluator(network, weights)``, the older form that
    ``perfbench/worker.py`` calls, has no scenario set; its
    :meth:`evaluate` takes the set as a second argument.
    """

    def __init__(
        self, network: GridNetwork, scenario_set: FloodScenarioSet, weights: LossWeights | None = None
    ):
        if weights is None:  # the older form RecourseEvaluator(network, weights)
            scenario_set, weights = None, scenario_set
        self.network = network
        self.scenario_set = scenario_set
        self.weights = weights
        self.levels = None if scenario_set is None else scenario_set.level_matrix(network.arrays.sub_ids)
        self.counters = RecourseCounters()
        self._cache: dict[bytes, tuple[float, float, float, float]] = {}
        self._unclaimed: set[bytes] = set()  # settled, not yet requested
        self._evaluations: dict[tuple, PlanEvaluation] = {}
        self._workspace: simplex.Workspace | None = None

    def _solve_lp(self, stack: _Stack, b: int) -> tuple[float, float, float, float]:
        if self._workspace is None:
            self._workspace = simplex.Workspace(*_recourse_arrays(self.network, self.weights))
        self.counters.lp_solves += 1
        loss, dispatch = solve_recourse_lp(
            self.network, (stack.labels[b] >= 0, stack.live_branches[b]), self.weights,
            workspace=self._workspace, warm=_island_basis(self.network, stack, b),
        )
        self.counters.lp_pivots += dispatch.pivots
        served = sum((self.network.arrays.load * dispatch.delta).tolist())
        over = sum(dispatch.p_check.tolist())
        return loss, served, self.network.total_load - served, over

    def survivors(self, plan: MitigationPlan) -> np.ndarray:
        """The plan's survival masks, scenarios by substations: substation j
        survives scenario s iff ``levels[s, j]`` is at most its plan level."""
        return self.levels <= np.array([plan.level_of(k) for k in self.network.arrays.sub_ids], dtype=int)

    def settle(self, sub_up: np.ndarray) -> None:
        """Settle every survival mask (a row of the (K, J) bool array
        ``sub_up``) not cached yet, in stacks of up to ``STACK_SIZE``, for
        requests about to be made."""
        width, flat = sub_up.shape[1], sub_up.tobytes()
        new: dict[bytes, int] = {}  # mask bytes -> first row, in row order
        for i in range(len(sub_up)):
            key = flat[i * width : (i + 1) * width]
            if key not in self._cache:
                new.setdefault(key, i)
        keys, rows = list(new), list(new.values())
        for begin in range(0, len(keys), STACK_SIZE):
            self.counters.batches += 1
            stack = _islands(self.network, sub_up[rows[begin : begin + STACK_SIZE]])
            feasible = _witness(self.network, stack).tolist()
            for b, key in enumerate(keys[begin : begin + STACK_SIZE]):
                if feasible[b]:
                    self.counters.settled_without_lp += 1
                    self._cache[key] = _plate_loss(self.network, stack, b, self.weights)
                else:
                    self._cache[key] = self._solve_lp(stack, b)
        self._unclaimed.update(keys)

    def scenario_outcome(self, s: int, up: np.ndarray) -> ScenarioOutcome:
        """The outcome in scenario ``s`` (row s of ``levels``) of a plan
        whose substations survive where the mask ``up`` is true."""
        self.counters.outcomes += 1
        key = up.tobytes()
        if key not in self._cache:
            self.settle(up[None])
        if key in self._unclaimed:
            self._unclaimed.remove(key)
        else:
            self.counters.cache_hits += 1
        loss, served, shed, over = self._cache[key]
        scenario = self.scenario_set.scenarios[s]
        col = self.network.arrays.sub_col
        return ScenarioOutcome(
            scenario_id=scenario.id,
            probability=scenario.probability,
            loss=loss,
            served_load=served,
            shed_load=shed,
            overgeneration=over,
            dead_substations=tuple(sorted(k for k in scenario.levels if not up[col[k]])),
        )

    def evaluate(self, plan: MitigationPlan, scenario_set: FloodScenarioSet | None = None) -> PlanEvaluation:
        """The plan's outcome in every scenario and its expected loss,
        evaluated once per ``plan.key()``.  A ``scenario_set`` other than
        the evaluator's own (the older two-argument form) is evaluated by a
        fresh evaluator of that instance."""
        if scenario_set is not None and scenario_set is not self.scenario_set:
            return RecourseEvaluator(self.network, scenario_set, self.weights).evaluate(plan)
        key = plan.key()
        if key not in self._evaluations:
            up = self.survivors(plan)
            self.settle(up)
            outcomes = tuple(self.scenario_outcome(s, row) for s, row in enumerate(up))
            expected = sum(o.probability * o.loss for o in outcomes)
            self._evaluations[key] = PlanEvaluation(expected_loss=expected, outcomes=outcomes)
        return self._evaluations[key]
