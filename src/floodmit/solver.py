"""LP and MILP solution: simplex-backed relaxations, branch and bound.

The MILP search branches on fractional binaries, selects nodes best-bound
first, and warm-starts every child from its parent's basis so re-solves are
a handful of dual simplex pivots.  Warm-start plans seed the incumbent so
budget sweeps prune hard from the first node.  With zero gap tolerances and
no limits the returned incumbent is provably optimal.

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


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | numerical-error
    objective: float | None
    values: dict[str, float] | None
    row_duals: dict[str, float] | None
    dual_objective: float | None
    iterations: int
    primal_residual: float
    basis_state: simplex.BasisState | None = None


@dataclass
class WarmStartPlan:
    """A candidate assignment of the binaries, optionally with its objective.

    When the objective is absent it is derived by fixing the assignment and
    solving the remaining LP.
    """

    assignment: dict[str, int]
    objective: float | None = None
    label: str = ""


@dataclass
class BnbConfig:
    abs_gap: float = 0.0
    rel_gap: float = 0.0
    node_limit: int | None = None
    time_limit: float | None = None
    warm_starts: list[WarmStartPlan] = field(default_factory=list)
    root_warm_basis: simplex.BasisState | None = None

    def __post_init__(self):
        if self.abs_gap < 0 or self.rel_gap < 0:
            raise ValueError("gap tolerances must be nonnegative")


@dataclass
class MilpSolution:
    status: str  # optimal | gap-limit | node-limit | infeasible
    objective: float | None
    values: dict[str, float] | None
    bound: float
    nodes_explored: int
    lp_iterations: int
    stop_reason: str = ""
    warm_start_used: str = ""
    # Basis of the root relaxation: the right seed for a re-solve of the same
    # structure with a loosened right-hand side (budget sweeps).
    root_basis: simplex.BasisState | None = None


class SolverError(RuntimeError):
    """A numerical failure that must not pass silently."""


def solve_lp(
    problem: MilpProblem,
    warm: simplex.BasisState | None = None,
    workspace: simplex.Workspace | None = None,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
) -> LpSolution:
    """Solve the problem with integrality relaxed.

    ``lb``/``ub`` override the problem's variable bounds for this solve only.
    Every reported optimum has passed the verification gate of
    :func:`simplex.solve_linear_program` (|primal - dual| within 1e-6 scaled,
    primal residual within 1e-8); a failure surfaces as the explicit status
    "numerical-error", never silently.
    """
    if workspace is None:
        A, senses, b = problem.constraint_arrays()
        p_lb, p_ub = problem.bounds_arrays()
        workspace = simplex.Workspace(problem.objective, A, senses, b, p_lb, p_ub)
    if lb is not None or ub is not None:
        base_lb, base_ub = problem.bounds_arrays()
        workspace.set_bounds(lb if lb is not None else base_lb, ub if ub is not None else base_ub)

    res = simplex.solve_linear_program(workspace=workspace, warm=warm)
    if res.status != simplex.STATUS_OPTIMAL:
        return LpSolution(res.status, None, None, None, None, res.iterations, res.primal_residual)

    values = {v.name: float(res.x[i]) for i, v in enumerate(problem.variables)}
    duals = {row.name: float(res.row_duals[k]) for k, row in enumerate(problem.rows)}
    return LpSolution(
        status="optimal",
        objective=res.objective + problem.objective_offset,
        values=values,
        row_duals=duals,
        dual_objective=res.dual_objective + problem.objective_offset,
        iterations=res.iterations,
        primal_residual=res.primal_residual,
        basis_state=res.basis_state,
    )


def _assignment_feasible(problem: MilpProblem, assignment: dict[str, int], tol: float = 1e-9) -> bool:
    """Check rows whose variables are all covered by the assignment.

    Rows touching unassigned variables are the recourse blocks, which admit a
    feasible completion by construction of the model.
    """
    values = {}
    for name, val in assignment.items():
        if name not in problem.index_of:
            raise KeyError(f"warm start names unknown variable {name!r}")
        idx = problem.index_of[name]
        var = problem.variables[idx]
        if val < var.lb - tol or val > var.ub + tol:
            return False
        values[idx] = float(val)
    for row in problem.rows:
        if not all(int(i) in values for i in row.idx):
            continue
        act = sum(values[int(i)] * c for i, c in zip(row.idx, row.coef))
        if row.sense == "L" and act > row.rhs + tol:
            return False
        if row.sense == "G" and act < row.rhs - tol:
            return False
        if row.sense == "E" and abs(act - row.rhs) > tol:
            return False
    return True


def _complete_warm_start(
    problem: MilpProblem,
    workspace: simplex.Workspace,
    lb: np.ndarray,
    ub: np.ndarray,
    assignment: dict[str, int],
) -> float | None:
    """Objective of the best completion of a partial binary assignment."""
    node_lb, node_ub = lb.copy(), ub.copy()
    for name, val in assignment.items():
        idx = problem.index_of[name]
        node_lb[idx] = node_ub[idx] = float(val)
    workspace.set_bounds(node_lb, node_ub)
    res = simplex.solve_linear_program(workspace=workspace)
    if res.status != simplex.STATUS_OPTIMAL:
        return None
    return res.objective + problem.objective_offset


@dataclass(order=True)
class _Node:
    bound: float  # parent LP value: a valid lower bound for the subtree
    seq: int
    fixings: dict[int, int] = field(compare=False)
    warm: simplex.BasisState | None = field(compare=False, default=None)


def solve_milp(problem: MilpProblem, config: BnbConfig | None = None) -> MilpSolution:
    """Branch and bound over the problem's binaries.

    Returns a provably optimal incumbent when gaps are zero and no limits
    bind.  Raises :class:`SolverError` on unrecoverable numerical failure.
    """
    config = config or BnbConfig()
    t_start = time.monotonic()
    offset = problem.objective_offset

    A, senses, b = problem.constraint_arrays()
    root_lb, root_ub = problem.bounds_arrays()
    ws = simplex.Workspace(problem.objective, A, senses, b, root_lb, root_ub)
    bin_idx = problem.binary_indices()

    incumbent_obj = np.inf
    incumbent_x: np.ndarray | None = None
    warm_used = ""
    lp_iterations = 0

    # Warm starts: verify against the rows they fully cover, then seed the
    # incumbent with the best completed objective.
    for plan in config.warm_starts:
        if not _assignment_feasible(problem, plan.assignment):
            log.info("warm start %s rejected: infeasible", plan.label or "?")
            continue
        obj = plan.objective
        if obj is None:
            obj = _complete_warm_start(problem, ws, root_lb, root_ub, plan.assignment)
            if obj is None:
                continue
        if obj < incumbent_obj - 1e-12:
            incumbent_obj = obj
            warm_used = plan.label or "warm"
            incumbent_x = None  # values filled by a matching node or final fix
            incumbent_assignment = dict(plan.assignment)

    best_warm_assignment = None
    if incumbent_obj < np.inf:
        best_warm_assignment = incumbent_assignment

    def node_bounds(fixings: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = root_lb.copy(), root_ub.copy()
        for idx, val in fixings.items():
            lo[idx] = hi[idx] = float(val)
        return lo, hi

    def solve_node(node: _Node):
        nonlocal lp_iterations
        lo, hi = node_bounds(node.fixings)
        ws.set_bounds(lo, hi)
        ws.set_rhs(b)
        res = simplex.solve_linear_program(workspace=ws, warm=node.warm)
        lp_iterations += res.iterations
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

    seq = 0
    root = _Node(bound=-np.inf, seq=seq, fixings={}, warm=config.root_warm_basis)
    heap: list[_Node] = [root]
    nodes_explored = 0
    stop_reason = ""
    proven = False
    final_bound = -np.inf
    last_popped_bound = -np.inf
    root_basis: simplex.BasisState | None = None

    while heap:
        remaining_bound = heap[0].bound
        if incumbent_obj < np.inf:
            gap = incumbent_obj - remaining_bound
            if gap <= 1e-9:
                # The best open bound meets the incumbent: proven optimal.
                final_bound = incumbent_obj
                proven = True
                break
            if gap <= config.abs_gap or (
                config.rel_gap > 0 and gap <= config.rel_gap * max(1e-12, abs(incumbent_obj))
            ):
                stop_reason = "gap"
                final_bound = remaining_bound
                break
        if config.node_limit is not None and nodes_explored >= config.node_limit:
            stop_reason = "nodes"
            final_bound = remaining_bound
            break
        if config.time_limit is not None and time.monotonic() - t_start > config.time_limit:
            stop_reason = "time"
            final_bound = remaining_bound
            break

        node = heapq.heappop(heap)
        # Best-bound order makes the global bound monotone; a regression
        # would mean the pruning logic is unsound.
        if node.bound < last_popped_bound - 1e-9:
            raise SolverError("search bound regressed; node ordering is broken")
        last_popped_bound = node.bound
        if node.bound >= incumbent_obj - 1e-9:
            continue
        res = solve_node(node)
        nodes_explored += 1
        if res.status in (simplex.STATUS_INFEASIBLE,):
            continue
        if res.status == simplex.STATUS_UNBOUNDED:
            raise SolverError(f"relaxation of {problem.name} is unbounded")
        if not node.fixings:
            root_basis = res.basis_state
        node_obj = res.objective + offset
        if node_obj >= incumbent_obj - 1e-9:
            continue
        j = pick_branch(res.x)
        if j is None:
            incumbent_obj = node_obj
            incumbent_x = res.x.copy()
            log.info("incumbent %.9g after %d nodes", incumbent_obj, nodes_explored)
            continue
        for val in (0, 1):
            seq += 1
            child_fix = dict(node.fixings)
            child_fix[j] = val
            heapq.heappush(
                heap, _Node(bound=node_obj, seq=seq, fixings=child_fix, warm=res.basis_state)
            )
    else:
        # Heap exhausted: every node was pruned or explored.
        final_bound = incumbent_obj if incumbent_obj < np.inf else np.inf
        proven = True

    if incumbent_obj == np.inf:
        if proven:
            return MilpSolution("infeasible", None, None, np.inf, nodes_explored, lp_iterations, stop_reason)
        return MilpSolution("node-limit", None, None, final_bound, nodes_explored, lp_iterations, stop_reason)

    # A warm start may remain the incumbent without any node reproducing its
    # values; rebuild them by fixing the assignment and re-solving.
    if incumbent_x is None:
        lo, hi = root_lb.copy(), root_ub.copy()
        for name, val in best_warm_assignment.items():
            idx = problem.index_of[name]
            lo[idx] = hi[idx] = float(val)
        ws.set_bounds(lo, hi)
        ws.set_rhs(b)
        res = simplex.solve_linear_program(workspace=ws, warm=root_basis)
        lp_iterations += res.iterations
        if res.status != simplex.STATUS_OPTIMAL:
            raise SolverError("failed to rebuild warm-start incumbent values")
        incumbent_x = res.x.copy()
        incumbent_obj = min(incumbent_obj, res.objective + offset)

    values = {v.name: float(incumbent_x[i]) for i, v in enumerate(problem.variables)}
    for i in bin_idx:
        values[problem.variables[i].name] = float(round(incumbent_x[i]))

    if proven and not stop_reason:
        status = "optimal"
        final_bound = incumbent_obj
    elif stop_reason == "gap":
        status = "gap-limit"
    else:
        status = "node-limit"
    log.info(
        "milp %s: %s obj=%.9g bound=%.9g nodes=%d lp_iters=%d%s",
        problem.name, status, incumbent_obj, final_bound, nodes_explored, lp_iterations,
        f" warm={warm_used}" if warm_used else "",
    )
    return MilpSolution(
        status=status,
        objective=incumbent_obj,
        values=values,
        bound=final_bound,
        nodes_explored=nodes_explored,
        lp_iterations=lp_iterations,
        stop_reason=stop_reason,
        warm_start_used=warm_used,
        root_basis=root_basis,
    )


def check_uniqueness(
    problem: MilpProblem,
    optimal_assignment: dict[str, int],
    optimal_objective: float,
    tol: float = 1e-6,
) -> tuple[bool, dict[str, int] | None]:
    """Probe whether the optimum is unique over the given binary assignment.

    Re-solves with a cut forbidding the assignment; a strictly worse (or
    infeasible) result certifies no alternative optimum outside the cut set,
    otherwise the alternative assignment is returned as a witness.  The cut
    removes the assignment together with everything inside its support, so a
    "unique" verdict cannot see tie-optima that merely drop ineffective
    deployments; callers flag that caveat when the plan underuses its budget.
    """
    res = solve_milp(with_no_good_cut(problem, optimal_assignment))
    if res.status == "infeasible":
        return True, None
    if res.status != "optimal":
        raise SolverError("uniqueness probe did not solve to optimality")
    if res.objective > optimal_objective + tol:
        return True, None
    witness = {name: int(round(res.values[name])) for name in optimal_assignment}
    return False, witness
