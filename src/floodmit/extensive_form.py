"""Assembly of the full planning MILP over all flooding scenarios.

One problem holds the first-stage barrier decisions (cumulative binaries per
substation and level, a budget row) plus, per scenario, the status binaries
and the dispatch block.  The status logic

    alpha = product over levels of (1 - xi * (1 - x)),    beta = alpha * alpha

is linearized exactly: at binary first-stage decisions the linear rows force
the statuses to the product values, so branching on the first stage alone
solves the whole problem.

This monolithic model is the reference the tests check the solve path
against.  The solve path builds :mod:`floodmit.value_table`, which reuses the
first stage (:func:`add_first_stage`) and, for scenarios too large for a
value table, the per-scenario block (:func:`add_dispatch_block`).

Constant folding keeps the model small: a substation dry in a scenario has
alpha pinned to 1, a substation flooded beyond the attainable level has alpha
pinned to 0, branches with a pinned-dead endpoint vanish, and a branch whose
other endpoint is pinned alive aliases its beta to the live endpoint's alpha
variable instead of spending a new binary and three link rows.  Live fixed
branches fold their angle-difference limit into the flow bound through Ohm's
law.  Out-of-service branches get the classic pair of big-M rows that free
the Ohm equality, with the per-branch constant |b| * 2*theta_max + flow_limit,
which is the smallest value that deactivates the equality at every feasible
angle/flow combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid_model import GridNetwork
from .milp import MilpProblem, ProblemBuilder, sanitize_name
from .mitigation import Budget, CostSchedule, MitigationPlan
from .recourse import LossWeights
from .scenario_model import FloodScenario, FloodScenarioSet, level_to_indicators
from .simplex import BasisState

BUDGET_ROW = "budget"


def alpha_link_rows(xi):
    """Linear rows tying a status variable to first-stage decisions.

    ``xi`` is the 0/1 flooding indicator row over levels 1..R.  Returns
    ('const', value) when no row is needed, else ('rows', rows) where each row
    is (alpha_coef, {level: x_coef}, sense, rhs).  Rows for dry levels are the
    vacuous alpha <= 1 and are omitted.  The construction is exact for any
    binary indicator row, cumulative or not.
    """
    flooded = []
    for pos, v in enumerate(xi, start=1):
        if v not in (0, 1):
            raise ValueError("indicator entries must be 0/1")
        if v == 1:
            flooded.append(pos)
    if not flooded:
        return ("const", 1)
    rows = []
    for r in flooded:
        rows.append((1.0, {r: -1.0}, "L", 0.0))
    rows.append((1.0, {r: -1.0 for r in flooded}, "G", 1.0 - len(flooded)))
    return ("rows", rows)


@dataclass
class ExtensiveForm:
    """Built problem plus the maps needed to read plans in and out."""

    problem: MilpProblem
    network: GridNetwork
    schedule: CostSchedule
    budget: Budget
    r_hat: int
    # Column of x[k, r]: substations in network order by levels 1..r_hat.
    x_cols: np.ndarray
    stats: dict = field(default_factory=dict)
    # A basis of the problem, primal feasible at every budget >= 0, that its
    # builder knows (the zero plan's vertex of a value-table model), or None.
    start_basis: BasisState | None = None

    @property
    def free_columns(self) -> np.ndarray:
        """Columns of the attainable levels 1..r_hat-1, substation by substation."""
        return self.x_cols[:, :-1].ravel()

    def plan_assignment(self, plan: MitigationPlan) -> np.ndarray:
        """The plan's values of the :attr:`free_columns`."""
        levels = np.array([plan.level_of(s.id) for s in self.network.substations])
        return (levels[:, None] >= np.arange(1, self.r_hat)).astype(float).ravel()

    def plan_from_x(self, x: np.ndarray) -> MitigationPlan:
        """The plan whose level at each substation is its highest level set in ``x``."""
        top = np.max(np.where(x[self.x_cols] > 0.5, np.arange(1, self.r_hat + 1), 0), axis=1)
        return MitigationPlan({s.id: int(t) for s, t in zip(self.network.substations, top)})

    def with_budget(self, units: int) -> "ExtensiveForm":
        return replace(
            self,
            problem=self.problem.with_rhs(BUDGET_ROW, float(units)),
            budget=Budget(units),
        )


def check_inputs(
    network: GridNetwork, scenario_set: FloodScenarioSet, schedule: CostSchedule, r_hat: int
) -> None:
    """Raise on dimension mismatches (scenario substations unknown to the
    network, schedule gaps) and on a cap below 1."""
    if r_hat < 1:
        raise ValueError("r_hat must be >= 1")
    known_subs = {s.id for s in network.substations}
    for s in scenario_set.scenarios:
        unknown = set(s.levels) - known_subs
        if unknown:
            raise ValueError(f"scenario {s.id} floods unknown substations {sorted(unknown)}")
    for sub in known_subs:
        if sub not in schedule.base_units:
            raise ValueError(f"cost schedule missing substation {sub}")


def add_first_stage(
    pb: ProblemBuilder,
    network: GridNetwork,
    schedule: CostSchedule,
    budget: Budget,
    r_hat: int,
) -> dict[tuple[str, int], int]:
    """Cumulative barrier binaries per substation and level plus the budget row.

    Returns the variable indices keyed by (substation, level).
    """
    x_idx: dict[tuple[str, int], int] = {}
    budget_terms = []
    for sub in network.substations:
        safe = sanitize_name(sub.id)
        for r in range(1, r_hat + 1):
            name = f"x_{safe}_{r}"
            ub = 0.0 if r == r_hat else 1.0  # the top level is unattainable
            idx = pb.add_variable(name, 0.0, ub, binary=True)
            x_idx[(sub.id, r)] = idx
            budget_terms.append((idx, float(schedule.marginal_cost(sub.id, r))))
        for r in range(1, r_hat):
            # Stacking is cumulative: level r+1 implies level r.
            pb.add_row(
                f"cum_{safe}_{r}",
                [(x_idx[(sub.id, r + 1)], 1.0), (x_idx[(sub.id, r)], -1.0)],
                "L",
                0.0,
            )
    pb.add_row(BUDGET_ROW, budget_terms, "L", float(budget.units))
    return x_idx


def add_dispatch_block(
    pb: ProblemBuilder,
    network: GridNetwork,
    scenario: FloodScenario,
    r_hat: int,
    weights: LossWeights,
    x_idx: dict[tuple[str, int], int],
) -> None:
    """Add one scenario's status variables and dispatch block to ``pb``.

    The block's objective terms are weighted by the scenario probability.
    The status variables are binary; the link rows also force them to 0/1
    at binary first-stage decisions.
    """
    sub_of_bus = {b.id: b.substation_id for b in network.buses}
    tag = sanitize_name(scenario.id)
    prob = scenario.probability

    # Substation statuses: fold constants, link variables.
    alpha_const: dict[str, int] = {}
    alpha_var: dict[str, int] = {}
    for sub in network.substations:
        level = scenario.level_of(sub.id)
        if level == 0:
            alpha_const[sub.id] = 1
        elif level >= r_hat:
            # Flooding at or beyond the unattainable level.
            alpha_const[sub.id] = 0
        else:
            name = f"alpha_{tag}_{sanitize_name(sub.id)}"
            idx = pb.add_variable(name, 0.0, 1.0, binary=True)
            alpha_var[sub.id] = idx
            _, rows = alpha_link_rows(level_to_indicators(level, r_hat))
            for rno, (a_coef, x_coefs, sense, rhs) in enumerate(rows):
                terms = [(idx, a_coef)] + [
                    (x_idx[(sub.id, r)], coef) for r, coef in x_coefs.items()
                ]
                pb.add_row(f"a{rno}_{tag}_{sanitize_name(sub.id)}", terms, sense, rhs)

    def bus_alpha(bus_id: str):
        """('const', v) or ('var', idx) for the bus's substation."""
        sub = sub_of_bus[bus_id]
        if sub in alpha_var:
            return ("var", alpha_var[sub])
        return ("const", alpha_const[sub])

    # Branch statuses.
    beta_const: dict[str, int] = {}
    beta_var: dict[str, int] = {}
    for br in network.branches:
        fa = bus_alpha(br.from_bus)
        ta = bus_alpha(br.to_bus)
        if fa[0] == "const" and fa[1] == 0 or ta[0] == "const" and ta[1] == 0:
            beta_const[br.id] = 0
        elif fa[0] == "const" and ta[0] == "const":
            beta_const[br.id] = 1
        elif fa[0] == "const":
            beta_var[br.id] = ta[1]  # beta == the other endpoint's alpha
        elif ta[0] == "const":
            beta_var[br.id] = fa[1]
        elif fa[1] == ta[1]:
            beta_var[br.id] = fa[1]  # both buses share one substation
        else:
            name = f"beta_{tag}_{sanitize_name(br.id)}"
            idx = pb.add_variable(name, 0.0, 1.0, binary=True)
            beta_var[br.id] = idx
            safe = sanitize_name(br.id)
            pb.add_row(f"bg_{tag}_{safe}", [(idx, 1.0), (fa[1], -1.0), (ta[1], -1.0)], "G", -1.0)
            pb.add_row(f"bf_{tag}_{safe}", [(idx, 1.0), (fa[1], -1.0)], "L", 0.0)
            pb.add_row(f"bt_{tag}_{safe}", [(idx, 1.0), (ta[1], -1.0)], "L", 0.0)

    # Dispatch variables.
    theta_idx: dict[str, int] = {}
    phat_idx: dict[str, int] = {}
    pchk_idx: dict[str, int] = {}
    delta_idx: dict[str, int] = {}
    for bus in network.buses:
        safe = sanitize_name(bus.id)
        a = bus_alpha(bus.id)
        dead = a[0] == "const" and a[1] == 0
        t_lo = -network.angle_abs_max
        t_hi = network.angle_abs_max
        if bus.is_reference:
            t_lo = t_hi = 0.0
        theta_idx[bus.id] = pb.add_variable(f"theta_{tag}_{safe}", t_lo, t_hi)
        if dead:
            # Every incident branch is pinned dead, so the balance row
            # would read 0 = 0; the whole block folds away.
            continue
        has_gen = bus.p_gen_max > 0 or bus.p_gen_min != 0
        if has_gen:
            if a[0] == "const":
                g_lo, g_hi = bus.p_gen_min, bus.p_gen_max
            else:
                g_lo, g_hi = min(bus.p_gen_min, 0.0), max(bus.p_gen_max, 0.0)
            phat_idx[bus.id] = pb.add_variable(f"phat_{tag}_{safe}", g_lo, g_hi)
            if a[0] == "var":
                if bus.p_gen_max != 0:
                    pb.add_row(
                        f"gu_{tag}_{safe}",
                        [(phat_idx[bus.id], 1.0), (a[1], -bus.p_gen_max)],
                        "L",
                        0.0,
                    )
                if bus.p_gen_min != 0:
                    pb.add_row(
                        f"gl_{tag}_{safe}",
                        [(phat_idx[bus.id], 1.0), (a[1], -bus.p_gen_min)],
                        "G",
                        0.0,
                    )
            if bus.p_gen_max > 0:
                pchk_idx[bus.id] = pb.add_variable(f"pchk_{tag}_{safe}", 0.0, max(bus.p_gen_max, 0.0))
                pb.add_objective_term(pchk_idx[bus.id], prob * weights.lambda_over)
                pb.add_row(
                    f"og_{tag}_{safe}",
                    [(pchk_idx[bus.id], 1.0), (phat_idx[bus.id], -1.0)],
                    "L",
                    0.0,
                )
        if bus.p_load > 0:
            delta_idx[bus.id] = pb.add_variable(f"delta_{tag}_{safe}", 0.0, 1.0)
            pb.add_objective_term(delta_idx[bus.id], -prob * weights.lambda_shed * bus.p_load)
            if a[0] == "var":
                # Load at a dead bus cannot be served.
                pb.add_row(
                    f"ds_{tag}_{safe}", [(delta_idx[bus.id], 1.0), (a[1], -1.0)], "L", 0.0
                )
    # Loads always enter the objective constant; served fractions subtract.
    pb.add_objective_offset(prob * weights.lambda_shed * network.total_load)

    # Branch flow variables and rows.
    flow_idx: dict[str, int] = {}
    for br in network.branches:
        safe = sanitize_name(br.id)
        nf, nt = theta_idx[br.from_bus], theta_idx[br.to_bus]
        if br.id in beta_const:
            if beta_const[br.id] == 0:
                continue  # pinned flow 0, angle rows vacuous within theta bounds
            limit = min(br.flow_limit, abs(br.susceptance) * network.angle_diff_max)
            f_idx = pb.add_variable(f"flow_{tag}_{safe}", -limit, limit)
            flow_idx[br.id] = f_idx
            pb.add_row(
                f"ohm_{tag}_{safe}",
                [(f_idx, 1.0), (nf, br.susceptance), (nt, -br.susceptance)],
                "E",
                0.0,
            )
            continue
        beta = beta_var[br.id]
        f_idx = pb.add_variable(f"flow_{tag}_{safe}", -br.flow_limit, br.flow_limit)
        flow_idx[br.id] = f_idx
        m_val = abs(br.susceptance) * 2 * network.angle_abs_max + br.flow_limit
        # -flow - b*(theta_f - theta_t) sits in [M*(beta-1), M*(1-beta)].
        pb.add_row(
            f"ohmlo_{tag}_{safe}",
            [(f_idx, -1.0), (nf, -br.susceptance), (nt, br.susceptance), (beta, -m_val)],
            "G",
            -m_val,
        )
        pb.add_row(
            f"ohmhi_{tag}_{safe}",
            [(f_idx, -1.0), (nf, -br.susceptance), (nt, br.susceptance), (beta, m_val)],
            "L",
            m_val,
        )
        spread = 2 * network.angle_abs_max - network.angle_diff_max
        if spread > 0:
            # Angle spread tightens from 2*abs_max to diff_max when live.
            pb.add_row(
                f"adhi_{tag}_{safe}",
                [(nf, 1.0), (nt, -1.0), (beta, spread)],
                "L",
                2 * network.angle_abs_max,
            )
            pb.add_row(
                f"adlo_{tag}_{safe}",
                [(nf, 1.0), (nt, -1.0), (beta, -spread)],
                "G",
                -2 * network.angle_abs_max,
            )
        pb.add_row(f"fhi_{tag}_{safe}", [(f_idx, 1.0), (beta, -br.flow_limit)], "L", 0.0)
        pb.add_row(f"flo_{tag}_{safe}", [(f_idx, 1.0), (beta, br.flow_limit)], "G", 0.0)

    # Nodal balance for buses that are not pinned dead: each live branch's
    # flow leaves its from bus and enters its to bus.
    branch_terms: dict[str, list[tuple[int, float]]] = {b.id: [] for b in network.buses}
    for br in network.branches:
        if br.id in flow_idx:
            branch_terms[br.from_bus].append((flow_idx[br.id], -1.0))
            branch_terms[br.to_bus].append((flow_idx[br.id], 1.0))
    for bus in network.buses:
        a = bus_alpha(bus.id)
        if a[0] == "const" and a[1] == 0:
            continue
        terms = []
        if bus.id in phat_idx:
            terms.append((phat_idx[bus.id], 1.0))
        if bus.id in pchk_idx:
            terms.append((pchk_idx[bus.id], -1.0))
        if bus.id in delta_idx:
            terms.append((delta_idx[bus.id], -bus.p_load))
        terms += branch_terms[bus.id]
        pb.add_row(f"kcl_{tag}_{sanitize_name(bus.id)}", terms, "E", 0.0)


def build(
    network: GridNetwork,
    scenario_set: FloodScenarioSet,
    schedule: CostSchedule,
    budget: Budget,
    r_hat: int,
    weights: LossWeights = LossWeights(),
) -> ExtensiveForm:
    """Assemble the deterministic-equivalent MILP: every scenario gets a
    dispatch block.  This monolithic model is the reference the solve path's
    value-table model (:mod:`floodmit.value_table`) is checked against.

    Raises on dimension mismatches (see :func:`check_inputs`).
    """
    check_inputs(network, scenario_set, schedule, r_hat)
    pb = ProblemBuilder("extensive_form")
    x_idx = add_first_stage(pb, network, schedule, budget, r_hat)
    for scenario in scenario_set.scenarios:
        add_dispatch_block(pb, network, scenario, r_hat, weights, x_idx)

    problem = pb.build()
    return ExtensiveForm(
        problem=problem,
        network=network,
        schedule=schedule,
        budget=budget,
        r_hat=r_hat,
        x_cols=np.array([[x_idx[(s.id, r)] for r in range(1, r_hat + 1)] for s in network.substations]),
        stats={
            "variables": problem.n_variables,
            "rows": problem.n_rows,
            "binaries": problem.n_binaries,
            "scenarios": len(scenario_set.scenarios),
        },
    )

