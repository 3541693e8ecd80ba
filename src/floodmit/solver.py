"""LP and MILP solution: simplex-backed relaxations, branch and bound.

The MILP search is one loop.  It branches on fractional binaries, selects
nodes best-bound first, and warm-starts every child from its parent's basis
so re-solves are a handful of dual simplex pivots.  It runs while the best
open bound lies below the incumbent, so an empty heap or a bound that meets
the incumbent ends it; a node or time limit stops it early, and the best
open bound is then the reported bound.  Warm-start plans (binary
assignments with known objectives) seed the incumbent so budget sweeps
prune hard from the first node.  A caller passes them as one
:class:`WarmStarts` matrix of candidate values over one set of columns.  A
claim is a hint, not a fact: it only prunes, and when it is still the
incumbent at the end a solution of the problem must confirm it.  The first
node that the claim prunes and whose solution is integral and sets every
claim column to the claim's value decides: it confirms the claim when it is
worth no more than claimed.  If no node decided, the claim's fixings are
solved as one LP that decides instead.  A claim that is not confirmed makes
the loop run a second pass without the pool, with the same node count,
clock and counters, so every limit covers both passes.
Plans and solutions cross this boundary as column arrays; variable names
exist only for the LP-format export.  Without node or time limits the
returned incumbent is provably optimal.

A node that branches also fixes binaries by reduced cost in both children
(Nemhauser & Wolsey 1988; Achterberg 2007).  With the node LP value ``z``,
the incumbent or claim ``U`` and the reduced costs ``d`` that the node LP's
verification gate priced, a nonbasic binary at its lower bound with
``d_j > U - z``, or at its upper bound with ``-d_j > U - z``, stays at that
bound: moving it would cost more than the node can gain.  A claim that fails
its confirmation fixes only in the pass that is then thrown away.

A root basis carries the simplex workspace its search ran on.  A caller
that solves several problems over one constraint matrix (a budget sweep
changes only the right-hand side) passes each solve's root basis to the
next, which then reuses that workspace and the basis's LU.

Everything is single-threaded and tie-broken by index, so identical inputs
reproduce identical incumbents and node counts.
"""

from __future__ import annotations

import heapq
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .milp import MilpProblem, with_no_good_cut

log = logging.getLogger("floodmit.solver")

INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class WarmStarts:
    """Candidate values of ``columns``, one row of ``values`` per candidate,
    and the objective value each candidate claims.

    :func:`solve_milp` seeds its incumbent with the best claim among the
    candidates within their columns' bounds and trusts it only once an
    integral solution with the candidate's values, a node's or the
    candidate's fixings' LP's, is worth no more.
    A candidate that breaks a row, or a claim that its fixings do not back,
    never becomes the answer; it costs at most one search without the pool.
    """

    columns: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    objectives: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.objectives)


@dataclass
class BnbConfig:
    node_limit: int | None = None
    time_limit: float | None = None
    warm_starts: WarmStarts = field(default_factory=WarmStarts)
    root_warm_basis: simplex.BasisState | None = None


@dataclass
class MilpSolution:
    status: str  # optimal | node-limit | infeasible
    objective: float | None
    x: np.ndarray | None  # binaries rounded
    bound: float
    nodes_explored: int
    lp_iterations: int
    stop_reason: str = ""
    # Basis of the root relaxation: the right seed for a re-solve of the same
    # structure with a loosened right-hand side (budget sweeps).
    root_basis: simplex.BasisState | None = None
    # The node LPs and the workspace built for them (none when carried in).
    counters: simplex.SimplexCounters = field(default_factory=simplex.SimplexCounters)


class SolverError(RuntimeError):
    """A numerical failure that must not pass silently."""


def solve_lp(
    problem: MilpProblem,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
) -> simplex.SimplexResult:
    """Solve the problem with integrality relaxed.

    ``lb``/``ub`` override the problem's variable bounds for this solve only;
    an optimum's objective and dual objective include the objective offset.
    Every reported optimum has passed the verification gate of
    :func:`simplex.solve_linear_program` (|primal - dual| within 1e-6 scaled,
    primal residual within 1e-8); a failure surfaces as the explicit status
    "numerical-error", never silently.
    """
    res = simplex.solve_linear_program(
        problem.objective,
        problem.A,
        problem.senses,
        problem.b,
        problem.lb if lb is None else lb,
        problem.ub if ub is None else ub,
    )
    if res.status == simplex.STATUS_OPTIMAL:
        res.objective += problem.objective_offset
        res.dual_objective += problem.objective_offset
    return res


def milp_workspace(problem: MilpProblem) -> simplex.Workspace:
    """A simplex workspace over the problem's costs, matrix and row senses,
    which a root basis carries to every later solve sharing them."""
    A, senses, b = problem.constraint_arrays()
    return simplex.Workspace(problem.objective, A, senses, b, problem.lb, problem.ub)


@dataclass(order=True)
class _Node:
    bound: float  # parent LP value: a valid lower bound for the subtree
    seq: int
    fixings: dict[int, int] = field(compare=False)
    warm: simplex.BasisState | None = field(compare=False, default=None)


def _fixed_by_reduced_cost(res: simplex.SimplexResult, bin_idx: np.ndarray, gap: float) -> dict[int, int]:
    """The binaries among ``bin_idx`` that every solution of the node worth
    less than its LP value plus ``gap`` leaves at their bound: a nonbasic
    column at its lower bound with reduced cost ``d_j > gap``, or at its
    upper bound with ``-d_j > gap``, each fixed to its value."""
    status = res.basis_state.status[bin_idx]
    d = res.reduced_costs[bin_idx]
    keep = ((status == simplex.AT_LOWER) & (d > gap)) | ((status == simplex.AT_UPPER) & (-d > gap))
    cols = bin_idx[keep]
    return dict(zip(cols.tolist(), res.x[cols].astype(int).tolist()))


def solve_milp(problem: MilpProblem, config: BnbConfig | None = None) -> MilpSolution:
    """Branch and bound over the problem's binaries.

    The search reuses the workspace that ``config.root_warm_basis`` carries
    when it was built over the same matrix object, costs and row senses; it
    takes this problem's right-hand side.  Otherwise the search builds its
    own.

    Returns a provably optimal incumbent when no limit binds.  Raises
    :class:`SolverError` on unrecoverable numerical failure.
    """
    config = config or BnbConfig()
    counters = simplex.SimplexCounters()
    ws = None if config.root_warm_basis is None else config.root_warm_basis.workspace
    if ws is not None and ws.built_over(problem.objective, problem.A, problem.senses):
        ws.set_rhs(problem.b)
    else:
        ws = milp_workspace(problem)
        counters.workspaces = 1
    t_start = time.monotonic()
    offset = problem.objective_offset
    root_lb, root_ub = problem.bounds_arrays()
    bin_idx = problem.binary_indices()

    def solve_node(fixings: dict, warm: simplex.BasisState | None):
        lo, hi = root_lb.copy(), root_ub.copy()
        for idx, val in fixings.items():
            lo[idx] = hi[idx] = float(val)
        ws.set_bounds(lo, hi)
        res = simplex.solve_linear_program(workspace=ws, warm=warm)
        counters.record(res)
        if res.status == simplex.STATUS_NUMERICAL:
            raise SolverError(f"node LP numerical failure in {problem.name}")
        return res

    def pick_branch(x: np.ndarray) -> int | None:
        frac = np.abs(x[bin_idx] - np.round(x[bin_idx]))
        cand = np.flatnonzero(frac > INTEGRALITY_TOL)
        if cand.size == 0:
            return None
        # Most fractional: distance of the fractional part from an integer.
        k = cand[int(np.argmax(np.minimum(frac[cand], 1 - frac[cand])))]
        return int(bin_idx[k])

    nodes_explored = seq = 0
    for starts in (config.warm_starts, WarmStarts()):
        incumbent_obj = np.inf
        incumbent_x: np.ndarray | None = None
        claim_values = np.zeros(0)
        # Warm starts seed the incumbent with the best claim, the first of
        # equals, among the candidates within their columns' bounds: a fixing
        # overrides its column's bounds, so no LP would catch a value outside.
        lb, ub = problem.lb[starts.columns], problem.ub[starts.columns]
        vals = starts.values
        in_bounds = np.all((vals >= lb - 1e-9) & (vals <= ub + 1e-9), axis=1)
        for i in np.flatnonzero(in_bounds):
            if starts.objectives[i] < incumbent_obj - 1e-12:
                incumbent_obj = float(starts.objectives[i])
                claim_values = vals[i]
        # (worth, x) of the solution that decides the claim: an integral
        # solution with the claim's values, or inf worth for none.
        decided: tuple[float, np.ndarray | None] | None = None

        heap = [_Node(bound=-np.inf, seq=seq, fixings={}, warm=config.root_warm_basis)]
        stop_reason = ""
        last_popped_bound = -np.inf
        root_basis: simplex.BasisState | None = None
        # The search ends once the best open bound meets the incumbent.
        while heap and heap[0].bound < incumbent_obj - 1e-9:
            if config.node_limit is not None and nodes_explored >= config.node_limit:
                stop_reason = "nodes"
                break
            if config.time_limit is not None and time.monotonic() - t_start > config.time_limit:
                stop_reason = "time"
                break
            node = heapq.heappop(heap)
            # Best-bound order makes the global bound monotone; a regression
            # would mean the pruning logic is unsound.
            if node.bound < last_popped_bound - 1e-9:
                raise SolverError("search bound regressed; node ordering is broken")
            last_popped_bound = node.bound
            res = solve_node(node.fixings, node.warm)
            nodes_explored += 1
            if res.status == simplex.STATUS_INFEASIBLE:
                continue
            if res.status == simplex.STATUS_UNBOUNDED:
                raise SolverError(f"relaxation of {problem.name} is unbounded")
            if not node.fixings:
                root_basis = res.basis_state
            node_obj = res.objective + offset
            if node_obj >= incumbent_obj - 1e-9:
                if (
                    decided is None and incumbent_x is None and pick_branch(res.x) is None
                    and np.all(np.abs(res.x[starts.columns] - claim_values) <= INTEGRALITY_TOL)
                ):
                    decided = (node_obj, res.x.copy())
                continue
            j = pick_branch(res.x)
            if j is None:
                incumbent_obj = node_obj
                incumbent_x = res.x.copy()
                log.info("incumbent %.9g after %d nodes", incumbent_obj, nodes_explored)
                continue
            fixed = _fixed_by_reduced_cost(res, bin_idx, incumbent_obj - node_obj)
            for val in (0, 1):
                seq += 1
                child_fix = {**node.fixings, **fixed, j: val}
                heapq.heappush(
                    heap, _Node(bound=node_obj, seq=seq, fixings=child_fix, warm=res.basis_state)
                )

        # A claim only pruned: a node that beat it is an LP-verified incumbent
        # below every pruned bound.  A claim no node beat is the answer only if
        # an integral solution with its values, the deciding node's or else
        # its fixings' LP solved from the root basis, is worth no more than
        # claimed; otherwise the loop makes its pass without the pool.
        if incumbent_x is not None or incumbent_obj == np.inf:
            break
        if decided is None:
            res = solve_node(dict(zip(starts.columns.tolist(), claim_values.tolist())), root_basis)
            integral = res.status == simplex.STATUS_OPTIMAL and pick_branch(res.x) is None
            decided = (res.objective + offset, res.x) if integral else (np.inf, None)
        worth, x = decided
        if worth <= incumbent_obj + 1e-9 * max(1.0, abs(incumbent_obj)):
            incumbent_x = x
            incumbent_obj = min(incumbent_obj, worth)
            break
        log.info("warm start claim %.9g not confirmed; searching without it", incumbent_obj)

    bound = heap[0].bound if stop_reason else incumbent_obj
    status = "node-limit" if stop_reason else "infeasible" if incumbent_x is None else "optimal"
    x = None
    if incumbent_x is not None:
        x = incumbent_x.copy()
        x[bin_idx] = np.round(x[bin_idx])
    log.info(
        "milp %s: %s obj=%.9g bound=%.9g nodes=%d lp_iters=%d",
        problem.name, status, incumbent_obj, bound, nodes_explored, counters.pivots,
    )
    return MilpSolution(
        status=status,
        objective=None if x is None else incumbent_obj,
        x=x,
        bound=bound,
        nodes_explored=nodes_explored,
        lp_iterations=counters.pivots,
        stop_reason=stop_reason,
        root_basis=root_basis,
        counters=counters,
    )


def check_uniqueness(
    problem: MilpProblem,
    columns: np.ndarray,
    values: np.ndarray,
    optimal_objective: float,
    counters: simplex.SimplexCounters | None = None,
) -> tuple[bool, np.ndarray | None]:
    """Probe whether the optimum is unique over the binaries ``columns``,
    which it sets to ``values``.

    Re-solves with a cut forbidding the assignment; a strictly worse (or
    infeasible) result certifies no alternative optimum outside the cut set,
    otherwise the alternative optimum's ``x`` is returned as a witness.  The cut
    removes the assignment together with everything inside its support, so a
    "unique" verdict cannot see tie-optima that merely drop ineffective
    deployments; callers flag that caveat when the plan underuses its budget.
    The cut problem has a matrix of its own, so the probe builds its own
    workspace; its simplex counts are added to ``counters`` when given.
    """
    res = solve_milp(with_no_good_cut(problem, columns, values))
    if counters is not None:
        counters.add(res.counters)
    if res.status == "infeasible":
        return True, None
    if res.status != "optimal":
        raise SolverError("uniqueness probe did not solve to optimality")
    if res.objective > optimal_objective + 1e-6:
        return True, None
    return False, res.x
