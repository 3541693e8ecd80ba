"""Bounded-variable revised simplex over sparse constraint matrices.

Solves   min c.x   s.t.  A x {<=,=,>=} b,   lb <= x <= ub
with infinite bounds allowed.  Every row receives a slack column (bounded by
the row sense) plus an artificial column used only by the cold-start phase 1,
so the working problem is always   min c.x : [A | I | I] x = b.  The cold
start's crash basis gives a row its slack, else a structural that appears in
that row alone, and its artificial only when neither can take the row's
residual within bounds.

The basis inverse is never formed: the basis is factorized with a sparse LU
and updated between refactorizations by product-form eta vectors.  Pricing is
a full sparse mat-vec per iteration; the entering rule is a steepest-edge
flavored score d^2 / (1 + ||A_j||^2) with a Bland fallback that engages after
a streak of degenerate pivots.  A dual simplex over the same machinery
supports warm re-solves after bound or right-hand-side changes, which is how
branch-and-bound children and budget-sweep re-solves stay cheap.  A warm
start takes one of two paths: a dual-feasible basis runs the dual simplex,
then a primal polish; otherwise a primal-feasible basis, such as a model's
hand-built start basis, runs the primal simplex from where it stands.  Any
other basis, and a dual run that cycles or meets a tiny pivot, starts cold.

A reported basis carries the workspace it was found on, and an LU of exactly
that basis only once one exists: a solve that ends with no eta updates hands
over its LU, any other solve leaves it to be made.  The first warm start from
the basis on that workspace factorizes it and stores the LU in the state;
later warm starts (the sibling node, the next budget of a sweep) adopt it
instead of factorizing again.  Bound and right-hand-side changes leave the
basis matrix as it was, and the same LU over the same basis yields the same
bits.  The LU is only read, so warm starts share it; eta updates stay per
solve.  A basis nobody warm-starts from, such as a leaf's, is never
factorized.

The dual simplex updates its prices in place after each pivot: with row
``rho`` of the basis inverse and ``alpha = A^T rho``, ``y += theta*rho`` and
``d -= theta*alpha`` for ``theta = d_q/alpha_q``.  Prices are recomputed
afresh at every refactorization.

All tie-breaks resolve to the smallest column index, so a given input always
follows the identical pivot path.

Every claimed optimum passes one verification gate before it is reported:
the primal/dual objective gap must lie within ``DUALITY_TOL`` (scaled by
max(1, |objective|)) and the primal residual within ``RESIDUAL_TOL``.  An
optimum that fails either comes back as ``numerical-error``, so callers only
need to check the status.  Before the gate, a claimed optimum's values are
recomputed and its prices computed afresh from the current LU and its eta
updates, whose count ``REFACTOR_EVERY`` bounds, unless no pivot or bound
flip moved them since they last were; the gate never reads prices updated
in place.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Column statuses in the working problem.
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3

TOL_DUAL = 1e-9
TOL_PIVOT = 1e-10
TOL_FEAS = 1e-9
TOL_DUAL_PIVOT = 1e-7
REFACTOR_EVERY = 25
DEGENERATE_STREAK = 60
DUALITY_TOL = 1e-6
RESIDUAL_TOL = 1e-8

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_NUMERICAL = "numerical-error"


@dataclass
class BasisState:
    """Opaque warm-start token: basis column indices and column statuses.

    A state the simplex reports also carries the workspace it was found on,
    and the sparse LU of exactly this basis once a solve made one: the first
    warm start on that workspace stores its factorization here, later ones
    reuse it.  A hand-built state has neither.
    """

    basis: np.ndarray
    status: np.ndarray
    lu: object | None = field(default=None, repr=False, compare=False)
    workspace: "Workspace | None" = field(default=None, repr=False, compare=False)


@dataclass
class SimplexResult:
    status: str
    objective: float | None
    x: np.ndarray | None          # structural variables only
    row_duals: np.ndarray | None  # d(objective)/d(rhs) per input row
    dual_objective: float | None
    iterations: int
    primal_residual: float
    basis_state: BasisState | None
    infeasibility: float = 0.0
    lu_factorizations: int = 0  # sparse LU factorizations this solve ran
    lu_reused: bool = False     # whether the warm start adopted its state's stored LU
    cold_started: bool = False  # whether the solve ran the cold start, first or after a warm run
    reduced_costs: np.ndarray | None = None  # c - A^T row_duals per structural


@dataclass
class SimplexCounters:
    """What a series of LP solves did: solves, pivots, sparse LU
    factorizations, warm starts that reused their basis's LU, solves that
    ran the cold start, and workspaces built for them."""

    lp_solves: int = 0
    pivots: int = 0
    lu_factorizations: int = 0
    lu_reused: int = 0
    cold_starts: int = 0
    workspaces: int = 0

    def record(self, res: SimplexResult) -> None:
        self.lp_solves += 1
        self.pivots += res.iterations
        self.lu_factorizations += res.lu_factorizations
        self.lu_reused += int(res.lu_reused)
        self.cold_starts += int(res.cold_started)

    def add(self, other: "SimplexCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _failed(status: str, iterations: int, infeasibility: float = 0.0) -> SimplexResult:
    return SimplexResult(
        status=status,
        objective=None,
        x=None,
        row_duals=None,
        dual_objective=None,
        iterations=iterations,
        primal_residual=np.inf,
        basis_state=None,
        infeasibility=infeasibility,
    )


def _basis_matrix(A_csc: sp.csc_matrix, basis: np.ndarray) -> sp.csc_matrix:
    """The columns ``basis`` of ``A_csc``, copied slice by slice from its
    index arrays: the same matrix as ``A_csc[:, basis]``, without scipy's
    generic fancy indexing."""
    starts = A_csc.indptr[basis]
    counts = A_csc.indptr[basis + 1] - starts
    indptr = np.zeros(len(basis) + 1, dtype=A_csc.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
    return sp.csc_matrix(
        (A_csc.data[take], A_csc.indices[take], indptr), shape=(A_csc.shape[0], len(basis))
    )


def slack_basis(n: int, m: int, structurals: dict[int, int]) -> BasisState:
    """A start basis over ``n`` structurals and ``m`` rows: row i's slack is
    basic, or the structural ``structurals[i]`` when given, and every other
    column sits at its lower bound.  Whether the basis is nonsingular and
    feasible is the caller's to know; a warm start from a singular one
    starts cold."""
    basis = np.arange(n, n + m)
    rows = np.fromiter(structurals, dtype=np.int64, count=len(structurals))
    basis[rows] = np.fromiter(structurals.values(), dtype=np.int64, count=len(structurals))
    status = np.full(n + 2 * m, AT_LOWER, dtype=np.int8)
    status[basis] = BASIC
    return BasisState(basis, status)


def _row_singletons(A_csc: sp.csc_matrix, n: int) -> dict[int, list[tuple[int, float]]]:
    """Per row, the columns among the first ``n`` whose only nonzero entry
    lies in that row, in ascending order, each with that entry.  Explicitly
    stored zeros do not count as entries."""
    end = A_csc.indptr[n]
    values = A_csc.data[:end]
    nonzero = values != 0
    cols = np.repeat(np.arange(n), np.diff(A_csc.indptr[: n + 1]))
    sole = nonzero & (np.bincount(cols[nonzero], minlength=n)[cols] == 1)
    singletons: dict[int, list[tuple[int, float]]] = {}
    for i, j, a in zip(A_csc.indices[:end][sole].tolist(), cols[sole].tolist(), values[sole].tolist()):
        singletons.setdefault(i, []).append((j, a))
    return singletons


class _Factorization:
    """Sparse LU of the basis (only read, so solves may share it) plus
    product-form eta updates."""

    def __init__(self, lu):
        self.lu = lu
        self.etas: list[tuple[int, np.ndarray]] = []

    def ftran(self, v: np.ndarray) -> np.ndarray:
        x = self.lu.solve(v)
        for r, g in self.etas:
            # E = I - g e_r^T applied on the left.
            x = x - g * x[r]
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        x = v.copy()
        for r, g in reversed(self.etas):
            x[r] -= g @ x
        return self.lu.solve(x, trans="T")

    def push_eta(self, r: int, w: np.ndarray) -> None:
        g = w.copy()
        g[r] -= 1.0
        g /= w[r]
        self.etas.append((r, g))

    @property
    def age(self) -> int:
        return len(self.etas)


class Workspace:
    """One LP structure, reusable across bound and right-hand-side changes."""

    def __init__(self, c, A, senses, b, lb, ub):
        A_in, A = A, sp.csc_matrix(A)
        self.m, self.n = A.shape
        m = self.m
        eye = sp.identity(m, format="csc")
        self.A_ext = sp.hstack([A, eye, eye], format="csc")
        # Structurals and slacks: the original system the residual check uses.
        self.A_orig = self.A_ext[:, : self.n + m]
        self.At = self.A_ext.T.tocsr()
        self.c_ext = np.concatenate([np.asarray(c, dtype=float), np.zeros(2 * m)])
        self.b = np.asarray(b, dtype=float).copy()
        norms = np.asarray(self.A_ext.multiply(self.A_ext).sum(axis=0)).ravel()
        self.price_weight = 1.0 + norms
        # Slack bounds encode the row sense: row becomes  a.x + s = b.
        senses = np.asarray(senses, dtype=object).reshape(m)
        unknown = senses[~np.isin(senses, ("L", "G", "E"))]
        if unknown.size:
            raise ValueError(f"unknown row sense {unknown[0]!r}")
        self.slack_lo = np.where(senses == "G", -np.inf, 0.0)
        self.slack_hi = np.where(senses == "L", np.inf, 0.0)
        self.A_source, self.senses = A_in, senses
        self.set_bounds(lb, ub)

    def built_over(self, c, A, senses) -> bool:
        """Whether this workspace was built over the matrix object ``A``
        with equal costs and row senses."""
        return (
            A is self.A_source
            and np.array_equal(self.c_ext[: self.n], np.asarray(c, dtype=float))
            and np.array_equal(self.senses, np.asarray(senses, dtype=object).reshape(self.m))
        )

    def set_rhs(self, b) -> None:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.m,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({self.m},)")
        self.b = b.copy()

    def set_bounds(self, lb, ub) -> None:
        m, n = self.m, self.n
        lo = np.empty(n + 2 * m)
        hi = np.empty(n + 2 * m)
        lo[:n] = lb
        hi[:n] = ub
        lo[n : n + m] = self.slack_lo
        hi[n : n + m] = self.slack_hi
        # Artificials stay pinned until a cold start opens them.
        lo[n + m :] = 0.0
        hi[n + m :] = 0.0
        self.lo = lo
        self.hi = hi

    def column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        A = self.A_ext
        start, end = A.indptr[j], A.indptr[j + 1]
        col[A.indices[start:end]] = A.data[start:end]
        return col


class _Solver:
    def __init__(self, ws: Workspace, max_iter: int):
        self.ws = ws
        self.max_iter = max_iter
        self.iterations = 0
        self.basis: np.ndarray | None = None
        self.status_arr: np.ndarray | None = None
        self.x: np.ndarray | None = None
        self.fact: _Factorization | None = None
        self.degen_streak = 0
        self.infeasibility = 0.0
        self.lu_factorizations = 0
        self.lu_reused = False
        self.cold_started = False
        # (costs, y, d) of the current basis: computed afresh, or updated in
        # place by a dual pivot; None once stale.
        self.priced: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # True while x is what _refresh_x computed from the current LU and
        # its etas, and any prices were computed afresh from them: no pivot,
        # bound flip or hand edit of x since.
        self.x_fresh = False
        # Artificials stay pinned outside a cold start's phase 1.
        ws.lo[ws.n + ws.m :] = 0.0
        ws.hi[ws.n + ws.m :] = 0.0
        self._bounds_changed()

    # -- shared plumbing -------------------------------------------------

    def _bounds_changed(self) -> None:
        """Note the columns that can move between their bounds; the solver
        changes bounds only to open and pin artificials."""
        self.movable = (self.ws.hi - self.ws.lo) > TOL_PIVOT

    def _nonbasic_value(self, j: int) -> float:
        st = self.status_arr[j]
        if st == AT_LOWER:
            return self.ws.lo[j]
        if st == AT_UPPER:
            return self.ws.hi[j]
        return 0.0

    def _refresh_x(self) -> None:
        """Recompute all values from the factorization; clears drift."""
        ws = self.ws
        x = self.x
        low = self.status_arr == AT_LOWER
        up = self.status_arr == AT_UPPER
        free = self.status_arr == FREE
        x[low] = np.where(np.isfinite(ws.lo[low]), ws.lo[low], 0.0)
        x[up] = np.where(np.isfinite(ws.hi[up]), ws.hi[up], 0.0)
        x[free] = 0.0
        xn = x.copy()
        xn[self.basis] = 0.0
        x[self.basis] = self.fact.ftran(ws.b - ws.A_ext @ xn)
        self.x_fresh = True

    def _refactorize(self) -> bool:
        self.lu_factorizations += 1
        self.priced = None
        try:
            lu = spla.splu(_basis_matrix(self.ws.A_ext, self.basis))
        except (RuntimeError, ValueError):
            return False
        self.fact = _Factorization(lu)
        self._refresh_x()
        return True

    def _duals(self, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row duals and reduced costs of ``costs``, priced once per basis
        and LU; callers only read them."""
        if self.priced is None or self.priced[0] is not costs:
            y = self.fact.btran(costs[self.basis].astype(float))
            self.priced = (costs, y, costs - self.ws.At @ y)
        return self.priced[1], self.priced[2]

    def _pivot(self, q: int, r: int, w: np.ndarray, step: float, new_val: float, leave_to: int,
               priced: tuple | None = None) -> None:
        """Entering q moves by ``step``; basis position r leaves to a bound.
        ``priced`` holds the new basis's prices when the caller updated them."""
        ws = self.ws
        leaving = self.basis[r]
        self.x_fresh = False
        self.priced = priced
        self.x[self.basis] -= step * w
        self.x[leaving] = ws.lo[leaving] if leave_to == AT_LOWER else ws.hi[leaving]
        self.status_arr[leaving] = leave_to
        self.status_arr[q] = BASIC
        self.basis[r] = q
        self.x[q] = new_val
        self.fact.push_eta(r, w)
        if self.fact.age >= REFACTOR_EVERY:
            self._refactorize()

    def _improving(self, d: np.ndarray, tol: float) -> np.ndarray:
        """Mask of nonbasic columns whose reduced cost beats ``tol`` in the
        direction their bound status lets them move."""
        return (
            ((self.status_arr == AT_LOWER) & (d < -tol) & self.movable)
            | ((self.status_arr == AT_UPPER) & (d > tol) & self.movable)
            | ((self.status_arr == FREE) & (np.abs(d) > tol))
        )

    # -- primal simplex ----------------------------------------------------

    def _entering(self, d: np.ndarray, bland: bool) -> int | None:
        ws = self.ws
        elig = self._improving(d, TOL_DUAL)
        if not elig.any():
            return None
        idx = np.flatnonzero(elig)
        if bland:
            return int(idx[0])
        score = d[idx] ** 2 / ws.price_weight[idx]
        return int(idx[int(np.argmax(score))])

    def _ratio_test(self, q: int, sigma: float, w: np.ndarray):
        """Largest step t >= 0 along direction sigma for entering q.

        Returns (t, r, leave_to): r is None for a bound flip of q itself;
        t = inf means the LP is unbounded.  Basic values move as x_B - sigma*t*w.
        """
        ws = self.ws
        lo_b = ws.lo[self.basis]
        hi_b = ws.hi[self.basis]
        xb = self.x[self.basis]
        delta = sigma * w
        if self.status_arr[q] == FREE:
            t_flip = np.inf
        else:
            t_flip = ws.hi[q] - ws.lo[q]

        pos = delta > TOL_PIVOT
        neg = delta < -TOL_PIVOT
        t_lo = np.full(self.ws.m, np.inf)
        t_hi = np.full(self.ws.m, np.inf)
        fin_lo = pos & np.isfinite(lo_b)
        fin_hi = neg & np.isfinite(hi_b)
        t_lo[fin_lo] = np.maximum((xb[fin_lo] - lo_b[fin_lo]) / delta[fin_lo], 0.0)
        t_hi[fin_hi] = np.maximum((xb[fin_hi] - hi_b[fin_hi]) / delta[fin_hi], 0.0)
        t_rows = np.minimum(t_lo, t_hi)

        t_min = t_rows.min() if t_rows.size else np.inf
        if t_min < t_flip:
            ties = np.flatnonzero(t_rows <= t_min + 1e-12)
            r = int(ties[int(np.argmax(np.abs(delta[ties])))])
            leave_to = AT_LOWER if t_lo[r] <= t_hi[r] else AT_UPPER
            return t_min, r, leave_to
        return t_flip, None, None

    def run_primal(self, costs: np.ndarray) -> str:
        """Iterate to optimality for ``costs`` from the current feasible basis."""
        bland = False
        while True:
            if self.iterations >= self.max_iter:
                return STATUS_NUMERICAL
            _, d = self._duals(costs)
            q = self._entering(d, bland)
            if q is None:
                return STATUS_OPTIMAL
            sigma = 1.0 if d[q] < 0 else -1.0
            w = self.fact.ftran(self.ws.column(q))
            t, r, leave_to = self._ratio_test(q, sigma, w)
            self.iterations += 1
            if np.isinf(t):
                return STATUS_UNBOUNDED
            if r is None:
                # Bound flip: q jumps to its other bound, basis unchanged.
                self.x[self.basis] -= (sigma * t) * w
                self.status_arr[q] = AT_UPPER if self.status_arr[q] == AT_LOWER else AT_LOWER
                self.x[q] = self._nonbasic_value(q)
                self.x_fresh = False
                self.degen_streak = 0
                continue
            new_val = self._nonbasic_value(q) + sigma * t
            self._pivot(q, r, w, sigma * t, new_val, leave_to)
            if t <= TOL_PIVOT:
                self.degen_streak += 1
                if self.degen_streak > DEGENERATE_STREAK:
                    bland = True
            else:
                self.degen_streak = 0
                bland = False

    # -- dual simplex --------------------------------------------------------

    def primal_feasible(self) -> bool:
        """Whether every basic value lies within its bounds."""
        xb = self.x[self.basis]
        lo, hi = self.ws.lo[self.basis], self.ws.hi[self.basis]
        return bool(np.all((xb >= lo - TOL_FEAS) & (xb <= hi + TOL_FEAS)))

    def dual_feasible(self, costs: np.ndarray) -> bool:
        """Whether no nonbasic column's reduced cost has the wrong sign."""
        _, d = self._duals(costs)
        return not self._improving(d, 1e-7).any()

    def run_dual(self, costs: np.ndarray) -> str:
        """Dual simplex from a dual-feasible basis toward primal feasibility.

        The pivot rule is deterministic, so a basis (in position order, with
        the same bound statuses) that comes back means it cycles.  The run
        then stops with ``numerical-error``, as it does when the pivot
        element falls below ``TOL_DUAL_PIVOT``, and the caller cold-starts.
        """
        ws = self.ws
        seen: set[bytes] = set()
        while True:
            if self.iterations >= self.max_iter:
                return STATUS_NUMERICAL
            state = hashlib.blake2b(self.basis.tobytes() + self.status_arr.tobytes()).digest()
            if state in seen:
                return STATUS_NUMERICAL
            seen.add(state)
            xb = self.x[self.basis]
            below = ws.lo[self.basis] - xb
            above = xb - ws.hi[self.basis]
            viol = np.maximum(np.maximum(below, above), 0.0)
            r = int(np.argmax(viol))
            if viol[r] <= TOL_FEAS:
                return STATUS_OPTIMAL
            leaving_above = above[r] > below[r]

            rho = np.zeros(ws.m)
            rho[r] = 1.0
            rho = self.fact.btran(rho)
            alpha = ws.At @ rho
            # Leaving variable must travel to its violated bound; the entering
            # step is delta/alpha_q, and sign eligibility keeps it directionally
            # consistent with the entering variable's own bound status: the
            # columns that reduced costs -alpha_s would price as improving.
            s = 1.0 if leaving_above else -1.0
            alpha_s = s * alpha
            cand = self._improving(-alpha_s, TOL_PIVOT)
            if not cand.any():
                return STATUS_INFEASIBLE
            y, d = self._duals(costs)
            idx = np.flatnonzero(cand)
            ratios = d[idx] / alpha_s[idx]
            best = ratios.min()
            ties = idx[np.flatnonzero(ratios <= best + 1e-12)]
            q = int(ties[int(np.argmax(np.abs(alpha[ties])))])

            w = self.fact.ftran(ws.column(q))
            if abs(w[r]) < TOL_DUAL_PIVOT:
                # A pivot this small is rounding noise and would wreck the
                # basis; the caller restarts cold instead.
                return STATUS_NUMERICAL
            bound = ws.hi[self.basis[r]] if leaving_above else ws.lo[self.basis[r]]
            step = (xb[r] - bound) / w[r]
            new_val = self._nonbasic_value(q) + step
            theta = d[q] / alpha[q]
            priced = (costs, y + theta * rho, d - theta * alpha)
            self._pivot(q, r, w, step, new_val, AT_UPPER if leaving_above else AT_LOWER, priced)
            self.iterations += 1

    # -- start procedures ---------------------------------------------------

    def cold_start(self) -> str:
        """Crash basis of slacks, column singletons and artificials, then
        phase-1 infeasibility minimization.

        Each row takes its slack when the slack can hold the row's residual
        at the start point (every structural at its bound nearest zero).
        Otherwise the slack parks at its bound nearest the residual and the
        lowest-index structural whose only nonzero lies in that row takes
        the rest, if that keeps it within its bounds; failing that, the
        row's artificial does, and phase 1 drives the artificials to zero.
        """
        ws = self.ws
        m, n = ws.m, ws.n
        total = n + 2 * m
        self.cold_started = True
        self.status_arr = np.full(total, AT_LOWER, dtype=np.int8)
        self.x = np.zeros(total)
        lo, hi = ws.lo[:n], ws.hi[:n]
        free = np.isinf(lo) & np.isinf(hi)
        at_lo = ~free & (np.isinf(hi) | (np.isfinite(lo) & (np.abs(lo) <= np.abs(hi))))
        self.status_arr[:n] = np.where(free, FREE, np.where(at_lo, AT_LOWER, AT_UPPER))
        self.x[:n] = np.where(free, 0.0, np.where(at_lo, lo, hi))

        resid = ws.b - ws.A_ext[:, :n] @ self.x[:n]
        singletons = _row_singletons(ws.A_ext, n)
        basis = np.empty(m, dtype=np.int64)
        phase1_cost = np.zeros(total)
        needs_phase1 = False
        for i in range(m):
            slack, art = n + i, n + m + i
            if ws.lo[slack] - TOL_FEAS <= resid[i] <= ws.hi[slack] + TOL_FEAS:
                basis[i] = slack
                self.status_arr[slack] = BASIC
                self.x[slack] = resid[i]
                continue
            # Slack parks at the bound nearest the residual.  A structural
            # that appears in this row only absorbs the rest if it can
            # within its bounds; otherwise the artificial does, and phase 1
            # drives it to zero.
            sv = min(max(resid[i], ws.lo[slack]), ws.hi[slack])
            self.x[slack] = sv
            self.status_arr[slack] = AT_LOWER if sv == ws.lo[slack] else AT_UPPER
            for j, a in singletons.get(i, ()):
                value = self.x[j] + (resid[i] - sv) / a
                if ws.lo[j] <= value <= ws.hi[j]:
                    basis[i] = j
                    self.status_arr[j] = BASIC
                    self.x[j] = value
                    break
            else:
                basis[i] = art
                self.status_arr[art] = BASIC
                z = resid[i] - sv
                self.x[art] = z
                if z > 0:
                    ws.hi[art] = np.inf
                    phase1_cost[art] = 1.0
                else:
                    ws.lo[art] = -np.inf
                    phase1_cost[art] = -1.0
                needs_phase1 = True
        self.basis = basis
        self._bounds_changed()
        if not self._refactorize():
            return STATUS_NUMERICAL

        if needs_phase1:
            st = self.run_primal(phase1_cost)
            if st == STATUS_NUMERICAL:
                return st
            infeas = float(phase1_cost @ self.x)
            if infeas > 1e-7:
                self.infeasibility = infeas
                return STATUS_INFEASIBLE
            # Pin artificials for phase 2; basic ones idle at value ~zero.
            ws.lo[n + m :] = 0.0
            ws.hi[n + m :] = 0.0
            self._bounds_changed()
            idle = np.ones(total, dtype=bool)
            idle[: n + m] = False
            idle[self.basis] = False
            self.status_arr[idle] = AT_LOWER
            self.x[idle] = 0.0
            self.x_fresh = False
        return "feasible"

    def warm_start(self, state: BasisState) -> bool:
        """Adopt a previous basis; returns whether it could be adopted.

        The state's LU is adopted when it factors this workspace's matrix;
        otherwise the basis is factorized afresh, and the LU is stored in a
        state found on this workspace for the warm starts after this one.
        """
        ws = self.ws
        total = ws.n + 2 * ws.m
        if state.basis.shape != (ws.m,) or state.status.shape != (total,):
            return False
        self.basis = state.basis.copy()
        self.status_arr = state.status.copy()
        self.x = np.zeros(total)
        self.priced = None
        if state.lu is not None and state.workspace is ws:
            self.fact = _Factorization(state.lu)
            self.lu_reused = True
            self._refresh_x()
            return True
        if not self._refactorize():
            return False
        if state.workspace is ws:
            state.lu = self.fact.lu
        return True


def solve_linear_program(
    c=None,
    A=None,
    senses=None,
    b=None,
    lb=None,
    ub=None,
    warm: BasisState | None = None,
    max_iter: int | None = None,
    workspace: Workspace | None = None,
) -> SimplexResult:
    """Solve the LP; see the module docstring for conventions.

    Row duals follow the sensitivity convention: the reported dual of row i
    is d(objective)/d(b_i) at the optimum.  The dual objective is the weak
    duality certificate  y.b + sum of reduced costs priced at the bound they
    push against; at a true optimum it matches the primal objective.  An
    optimum that fails the duality or residual gate is reported as
    ``numerical-error``.
    """
    ws = workspace if workspace is not None else Workspace(c, A, senses, b, lb, ub)
    if (ws.lo > ws.hi).any():  # crossed bounds: no point satisfies them
        return _failed(STATUS_INFEASIBLE, 0)
    if max_iter is None:
        max_iter = 50 * (ws.m + ws.n) + 2000
    if ws.m == 0:
        return _solve_unconstrained(ws)
    solver = _Solver(ws, max_iter)
    res = _run(solver, warm)
    res.lu_factorizations = solver.lu_factorizations
    res.lu_reused = solver.lu_reused
    res.cold_started = solver.cold_started
    return res


def _run(solver: _Solver, warm: BasisState | None) -> SimplexResult:
    ws = solver.ws
    m, n = ws.m, ws.n
    max_iter = solver.max_iter

    status = None
    if warm is not None and solver.warm_start(warm):
        if solver.dual_feasible(ws.c_ext):
            status = solver.run_dual(ws.c_ext)
            if status == STATUS_OPTIMAL:
                # Dual termination is primal feasible; polish any dual noise.
                status = solver.run_primal(ws.c_ext)
        elif solver.primal_feasible():
            status = solver.run_primal(ws.c_ext)
    if status not in (STATUS_OPTIMAL, STATUS_UNBOUNDED, STATUS_INFEASIBLE):
        status = None

    if status is None:
        # The cold start gets a full pivot budget of its own; the reported
        # count still covers the failed warm run too.
        solver.max_iter = solver.iterations + max_iter
        st = solver.cold_start()
        if st == STATUS_NUMERICAL:
            return _failed(STATUS_NUMERICAL, solver.iterations)
        if st == STATUS_INFEASIBLE:
            return _failed(STATUS_INFEASIBLE, solver.iterations, solver.infeasibility)
        status = solver.run_primal(ws.c_ext)

    if status == STATUS_UNBOUNDED:
        return _failed(STATUS_UNBOUNDED, solver.iterations)
    if status == STATUS_INFEASIBLE:
        return _failed(STATUS_INFEASIBLE, solver.iterations)
    if status != STATUS_OPTIMAL:
        return _failed(STATUS_NUMERICAL, solver.iterations)

    # Claimed optimal: recompute values and prices afresh from the LU and its
    # etas, unless nothing moved since they were, and re-verify before
    # reporting.
    for _ in range(5):
        if not solver.x_fresh:
            solver._refresh_x()
            solver.priced = None
        if solver.dual_feasible(ws.c_ext):
            break
        status = solver.run_primal(ws.c_ext)
        if status != STATUS_OPTIMAL:
            return _failed(STATUS_NUMERICAL, solver.iterations)
    else:
        return _failed(STATUS_NUMERICAL, solver.iterations)
    y, d = solver._duals(ws.c_ext)  # priced by the check above

    x_full = solver.x
    objective = float(ws.c_ext @ x_full)
    # Residual of the original system: structurals plus slacks against b.
    resid_vec = ws.A_orig @ x_full[: n + m] - ws.b
    residual = float(np.abs(resid_vec).max()) if m else 0.0

    dual_obj = float(y @ ws.b)
    pos = d > TOL_DUAL
    neg = d < -TOL_DUAL
    fixed = ~solver.movable
    # Pinned columns (lb == ub) contribute their pinned value whatever the sign.
    lo_mask = (pos & np.isfinite(ws.lo) & ~fixed) | (fixed & (pos | neg))
    hi_mask = neg & np.isfinite(ws.hi) & ~fixed
    dual_obj += float(d[lo_mask] @ ws.lo[lo_mask]) + float(d[hi_mask] @ ws.hi[hi_mask])
    # The verification gate: an optimum off by more than either tolerance, or
    # with a gap or residual that is not a number, is a numerical failure,
    # never a reported optimum.
    if not (abs(objective - dual_obj) <= DUALITY_TOL * max(1.0, abs(objective)) and residual <= RESIDUAL_TOL):
        return _failed(STATUS_NUMERICAL, solver.iterations)

    return SimplexResult(
        status=STATUS_OPTIMAL,
        objective=objective,
        x=x_full[:n].copy(),
        row_duals=y.copy(),
        dual_objective=dual_obj,
        iterations=solver.iterations,
        primal_residual=residual,
        basis_state=BasisState(
            solver.basis.copy(), solver.status_arr.copy(),
            lu=solver.fact.lu if solver.fact.age == 0 else None, workspace=ws,
        ),
        reduced_costs=d[:n].copy(),
    )


def _solve_unconstrained(ws: Workspace) -> SimplexResult:
    n = ws.n
    x = np.zeros(n)
    for j in range(n):
        cj = ws.c_ext[j]
        if cj > 0:
            if np.isinf(ws.lo[j]):
                return _failed(STATUS_UNBOUNDED, 0)
            x[j] = ws.lo[j]
        elif cj < 0:
            if np.isinf(ws.hi[j]):
                return _failed(STATUS_UNBOUNDED, 0)
            x[j] = ws.hi[j]
        else:
            x[j] = ws.lo[j] if np.isfinite(ws.lo[j]) else (ws.hi[j] if np.isfinite(ws.hi[j]) else 0.0)
    obj = float(ws.c_ext[:n] @ x)
    return SimplexResult(STATUS_OPTIMAL, obj, x, np.zeros(0), obj, 0, 0.0, None)
