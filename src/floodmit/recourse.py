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
branches), and a branch is live exactly when both its buses are, so an
island is fully described by its bus set.  A mask serves and overgenerates
what its islands do and sheds the rest of the load: its loss is
lambda_shed * (dead load) plus its islands' losses.  So the evaluator settles
islands, each once, cached under its bus set.  One copper plate per island
gives a closed-form lower bound on its loss (:func:`_plate`); the island
needs no LP when a witness dispatch that attains the bound passes a DC
power-flow check of the flow and angle limits (a feasible point whose value
is a lower bound is optimal).  Islands, their sums and witness power flows
are array passes over stacks, one island per member.  Only the islands that
fail the check fall back to the LP, on one simplex workspace per evaluator,
from the basis of the island's copper-plate dispatch, which is dual
feasible, so the dual simplex only repairs the limits that bind.  An island
is settled the same way whatever came before it, and a mask adds its islands
in the order of their first bus, so a cached loss does not depend on the
order of requests.
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
    """Islands, one per member: its ``buses`` and ``live_branches``, bool rows
    in network order, its ``first`` bus, and its load and minimum and maximum
    generation, each added bus by bus in bus order."""

    buses: np.ndarray
    live_branches: np.ndarray
    first: np.ndarray
    load: np.ndarray
    gen_min: np.ndarray
    gen_max: np.ndarray


def _islands(network: GridNetwork, sub_up: np.ndarray) -> tuple[np.ndarray, _Stack]:
    """Connected components of the live buses over the live branches,
    for every survival mask (row) of the (K, J) stack ``sub_up`` at once:
    each island's row of ``sub_up``, and the islands as a stack, in row
    order, then in the order of their first bus.

    The rows' buses are numbered row by row.  Each component ends up
    pointing at its lowest-numbered bus: every live branch whose ends point
    at different buses points the higher of the two at the lower, then
    pointer jumping makes every bus point at the end of its chain, until no
    branch joins two chains.
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
    live = np.flatnonzero(bus_up)
    first = live[root[live] == live]
    island = np.searchsorted(first, root[live])
    buses = np.zeros((len(first), nb), dtype=bool)
    buses[island, live % nb] = True
    # Each island adds its buses in bus order.
    load, gen_min, gen_max = (
        np.bincount(island, values[live % nb], len(first)) for values in (a.load, a.gen_min, a.gen_max)
    )
    row, first = np.divmod(first, nb)
    return row, _Stack(buses, buses[:, a.frm] & buses[:, a.to], first, load, gen_min, gen_max)


def _plate(stack: _Stack) -> tuple[np.ndarray, np.ndarray]:
    """(served, overgeneration) of each island of the stack as one copper
    plate: the dispatch that gives a closed-form lower bound on its loss.

    Flows cancel within an island, so an island with load L serves
    G - O <= Gmax and overgenerates O >= Gmin - L, and its loss is at least

        lambda_shed * max(0, L - Gmax) + lambda_over * max(0, Gmin - L).

    This is the loss without flow or angle limits.  An island serves
    min(L, Gmax) and overgenerates max(0, Gmin - L): the least shed and the
    least overgeneration of any dispatch.  With a zero weight a dispatch LP
    may shed or overgenerate more at the same loss, so there the split is
    not unique; the loss is.
    """
    return np.minimum(stack.load, stack.gen_max), np.maximum(stack.gen_min - stack.load, 0.0)


def _witness(network: GridNetwork, stack: _Stack) -> np.ndarray:
    """For each island of the stack: does a dispatch whose loss is its
    copper-plate bound satisfy the dispatch LP?

    The witness: with L > Gmax every generator runs at its
    maximum and every load is served at the fraction Gmax/L; with
    Gmin > L generators run at their minimum and p_check_i =
    gen_min_i (1 - L/Gmin) absorbs the excess; otherwise generation is
    gen_min + s (gen_max - gen_min) with one s for the island, and every load
    is served in full.  This relies on ``gen_min >= 0`` at every bus, which
    the network reader and :func:`~floodmit.grid_model.validate` enforce:
    the dispatch LP allows no negative generation.

    Its DC power flow is one solve per island, all stacked: the
    Laplacian of the live branches, with an identity row and column at
    the reference bus (or the first bus of an island without it) and at
    every bus outside the island, so those keep angle 0.  An island whose
    Laplacian is singular (susceptances of mixed sign can cancel) is
    refused.  The balance residual must lie within ``RESIDUAL_TOL`` and the
    flow and angle limits hold within ``TOL_FEAS``, after an island without
    the reference bus is shifted to the middle of its angle range.  A bus
    outside the island has angle 0, which every dead branch's relief column
    absorbs.
    """
    a = network.arrays
    n_sets, nb = stack.buses.shape
    live = stack.buses
    load, gen_min, gen_max = stack.load[:, None], stack.gen_min[:, None], stack.gen_max[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        served = np.where(load > gen_max, gen_max / load, 1.0)
        absorbed = np.where(gen_min > load, 1.0 - load / gen_min, 0.0)
        step = np.where(gen_max > gen_min, (load - gen_min) / (gen_max - gen_min), 0.0)
    step = step.clip(0.0, 1.0)  # 1 when short of generation, 0 with a surplus
    gen = a.gen_min + step * (a.gen_max - a.gen_min)
    injection = np.where(live, gen - gen * absorbed - a.load * served, 0.0)

    # A reference bus keeps angle 0; so does the first bus of an island
    # without one.  Should an island hold two reference buses, the
    # balance residual at the grounded rows refuses the witness.
    grounded = live & a.is_reference
    anchored = grounded.any(axis=1)
    grounded[np.flatnonzero(~anchored), stack.first[~anchored]] = True
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
    except np.linalg.LinAlgError:  # retry one island at a time
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

    lo = np.where(live, theta, np.inf).min(axis=1)
    hi = np.where(live, theta, -np.inf).max(axis=1)
    middle = np.where(anchored, 0.0, (lo + hi) / 2.0)
    swing = np.abs(theta - middle[:, None])
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
    """Basis of the copper-plate optimum of island b of the stack, alone in
    the network: the vertex the dispatch LP reaches once flow and angle
    limits are dropped.

    Each Ohm row has its flow basic on a live branch and its relief column
    on a dead one, and each bus the slack of its overgeneration row.  A bus
    outside the island keeps p_check basic in its balance row.  In the
    island theta is basic at every bus but one grounded bus (the reference
    bus, or else the island's first bus, at its lower bound), and one
    marginal column sets the island's price:

    - balanced (Gmin <= L <= Gmax): every load is served; generators fill in
      bus order from gen_min, at their maximum up to the marginal p_hat;
    - short (L > Gmax): every generator runs at its maximum; loads are
      served in bus order up to the marginal delta;
    - surplus (Gmin > L): every generator runs at its minimum; buses absorb
      the excess in bus order with p_check, which replaces the overgeneration
      slack of a bus that absorbs its whole gen_min, up to the marginal
      p_check.

    Every basic column of the island then prices at its one balance dual
    (0, lambda_shed or -lambda_over), so the basis is dual feasible and the
    dual simplex only repairs the limits that bind.
    """
    a = network.arrays
    i_hat, i_chk, i_del, i_the, i_flo, i_rel = _layout(network)
    n_var = i_rel + len(a.frm)
    ohm, balance, overgen = _row_layout(network)
    n_rows = len(ohm) + len(balance) + len(overgen)

    basis = np.empty(n_rows, dtype=np.int64)
    status = np.full(n_var + 2 * n_rows, simplex.AT_LOWER, dtype=np.int8)
    basis[ohm] = np.where(stack.live_branches[b], i_flo, i_rel) + ohm
    basis[overgen] = n_var + overgen  # the slack column of each row
    basis[balance] = np.where(stack.buses[b], i_the, i_chk) + np.arange(len(a.load))

    island = np.flatnonzero(stack.buses[b])
    refs = island[a.is_reference[island]]
    ground = refs[0] if refs.size else stack.first[b]
    flexible = island[a.gen_max[island] > a.gen_min[island]]
    load, gen_min, gen_max = stack.load[b], stack.gen_min[b], stack.gen_max[b]
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


# Masks split into islands together, and islands whose witnesses are solved
# together, at most; a witness stack's Laplacians take STACK_SIZE * buses^2
# floats.  Measured per mask on the 60-bus corridor: stacks of 32 raised a
# portfolio run's peak memory by 0.5 MB over stacks of one, 16 by 0.1 MB at
# the same speed, and 8 took 13% longer.
STACK_SIZE = 16


@dataclass
class RecourseCounters:
    """What a :class:`RecourseEvaluator` did: scenario outcomes requested,
    survival masks found in the cache, islands settled by the copper-plate
    witness without an LP, island dispatch LPs solved, the simplex pivots
    those LPs took, and the stacks of new masks settled."""

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
    losses are cached under the mask's bytes.  New masks are split into
    islands in stacks of up to ``STACK_SIZE`` (a single request is a stack of
    one), and each island is settled once, cached under its packed bus set:
    by its witness dispatch when that is feasible, else by an LP.  The LPs
    share one simplex workspace, built on the first such island, and each
    warm-starts the dual simplex from :func:`_island_basis`.  Each verdict
    and start depends only on the island, so a cached value does not depend
    on the order or stacking of requests.

    :meth:`evaluate` keeps each plan's evaluation under ``plan.key()``.  A
    caller about to request many outcomes passes their masks to
    :meth:`settle` first.  ``outcomes`` counts :meth:`scenario_outcome`
    calls, and ``cache_hits`` those after the first request of a mask;
    ``settled_without_lp`` and ``lp_solves`` count islands, each once.

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
        self._island_cache: dict[bytes, tuple[float, float]] = {}  # packed bus set -> (served, overgeneration)
        self._evaluations: dict[tuple, PlanEvaluation] = {}
        self._workspace: simplex.Workspace | None = None

    def _solve_lp(self, stack: _Stack, b: int) -> tuple[float, float]:
        if self._workspace is None:
            self._workspace = simplex.Workspace(*_recourse_arrays(self.network, self.weights))
        self.counters.lp_solves += 1
        _, dispatch = solve_recourse_lp(
            self.network, (stack.buses[b], stack.live_branches[b]), self.weights,
            workspace=self._workspace, warm=_island_basis(self.network, stack, b),
        )
        self.counters.lp_pivots += dispatch.pivots
        return sum((self.network.arrays.load * dispatch.delta).tolist()), sum(dispatch.p_check.tolist())

    def _settle_islands(self, unseen: dict[bytes, int], stack: _Stack) -> None:
        """Cache the (served, overgeneration) of the islands of the stack that
        ``unseen`` maps each packed bus set to, in witness stacks of up to
        ``STACK_SIZE``."""
        keys, at = list(unseen), list(unseen.values())
        for begin in range(0, len(keys), STACK_SIZE):
            part = _Stack(*(field[at[begin : begin + STACK_SIZE]] for field in stack))
            served, over = _plate(part)
            for b, feasible in enumerate(_witness(self.network, part).tolist()):
                if feasible:
                    self.counters.settled_without_lp += 1
                    value = float(served[b]), float(over[b])
                else:
                    value = self._solve_lp(part, b)
                self._island_cache[keys[begin + b]] = value

    def survivors(self, plan: MitigationPlan) -> np.ndarray:
        """The plan's survival masks, scenarios by substations: substation j
        survives scenario s iff ``levels[s, j]`` is at most its plan level."""
        return self.levels <= np.array([plan.level_of(k) for k in self.network.arrays.sub_ids], dtype=int)

    def settle(self, sub_up: np.ndarray) -> None:
        """Settle every survival mask (a row of the (K, J) bool array
        ``sub_up``) not cached yet, in stacks of up to ``STACK_SIZE``, for
        requests about to be made.  A mask serves and overgenerates what its
        islands do, added in island order, and sheds the rest of the load."""
        width, flat = sub_up.shape[1], sub_up.tobytes()
        new: dict[bytes, int] = {}  # mask bytes -> first row, in row order
        for i in range(len(sub_up)):
            key = flat[i * width : (i + 1) * width]
            if key not in self._cache:
                new.setdefault(key, i)
        keys, rows = list(new), list(new.values())
        for begin in range(0, len(keys), STACK_SIZE):
            self.counters.batches += 1
            masks = keys[begin : begin + STACK_SIZE]
            row, stack = _islands(self.network, sub_up[rows[begin : begin + STACK_SIZE]])
            island_keys = [bits.tobytes() for bits in np.packbits(stack.buses, axis=1)]
            unseen: dict[bytes, int] = {}  # island key -> first island, in stack order
            for i, key in enumerate(island_keys):
                if key not in self._island_cache:
                    unseen.setdefault(key, i)
            self._settle_islands(unseen, stack)
            sums = np.zeros((len(masks), 2))  # served and overgeneration, island by island
            np.add.at(sums, row, np.array([self._island_cache[key] for key in island_keys]).reshape(-1, 2))
            for key, (served, over) in zip(masks, sums.tolist()):
                shed = self.network.total_load - served
                self._cache[key] = self.weights.lambda_shed * shed + self.weights.lambda_over * over, served, shed, over
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
