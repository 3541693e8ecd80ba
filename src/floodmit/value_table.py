"""The planning MILP with value-table scenario blocks: the solve path's model.

A scenario's recourse loss depends on the first stage only through which of
its *uncertain* substations survive: those flooded at a level in
``1..r_hat-1``, which a barrier stack of that level saves.  (A dry
substation always survives, one flooded at ``r_hat`` or above never does.)
So for a scenario s with uncertain set U_s the dispatch block can give way to
a table of recourse losses over the survivor subsets A of U_s:

    z[s, A] in [0, 1],   objective  p_s * loss(s, A)
    sum_A z[s, A] = 1
    sum_{A containing k} z[s, A] = x[k, level_s(k)]     for each k in U_s

At binary x the marginal rows force z onto the single subset of survivors,
so the model is exact and adds no binaries (Laporte & Louveaux's recourse
value-function view of binary first stages, Oper. Res. Lett. 13(3), 1993).
A scenario with no uncertain substation is a one-entry table folded into the
objective offset.  The model is built over one instance's
:class:`~floodmit.recourse.RecourseEvaluator`, which holds the network, the
scenario set, the loss weights and the flood-level matrix L.  The uncertain
columns of scenario s are ``(0 < L[s]) & (L[s] < r_hat)``, and entry m of its
table is a survival mask: the dry substations and the uncertain ones at the
set bits of m survive.  So tables, warm-start values and plan evaluations
share one request type and one recourse cache.

A table has 2^|U_s| entries.  The evaluator settles the entries of every
table in one call, in stacked array passes: most with no LP, by the island
copper-plate bound and its DC power-flow witness, and a dispatch LP for the
rest (fewer after cache hits).
A scenario with more than ``MAX_TABLE_UNCERTAIN`` uncertain substations keeps
the extensive form's dispatch block instead, built by the same helper
:func:`floodmit.extensive_form.add_dispatch_block`.  The first stage is the
extensive form's, so plans read in and out through the same
:class:`~floodmit.extensive_form.ExtensiveForm` wrapper.

When every scenario has a table, the model comes with a start basis, the
zero plan's vertex (a model-aware crash basis in the sense of Bixby, ORSA
J. Comput. 4(3), 1992): each table's empty-survivor entry z[s, {}] is basic
in its ``zsum`` row, where it is a column singleton; each single-survivor
entry z[s, {j}] is basic, at value 0, in its marginal row; and the slack is
basic in every first-stage row.  Ordered marginal rows first, the basis
matrix is triangular with a unit diagonal, so it is nonsingular, and with
every x at 0 it is primal feasible at every budget >= 0.  Its duals price
marginal row (s, j) at p_s * (loss(s, {j}) - loss(s, {})).
"""

from __future__ import annotations

import numpy as np

from .extensive_form import ExtensiveForm, add_dispatch_block, add_first_stage, assemble, check_inputs
from .milp import ProblemBuilder, sanitize_name
from .mitigation import Budget, CostSchedule
from .recourse import RecourseEvaluator
from .scenario_model import FloodScenario
from .simplex import slack_basis

# Largest uncertain set that gets a table (2^6 = 64 entries); larger ones
# keep a dispatch block, whose size does not grow with the set.  On a
# 30-substation corridor with sets of up to 13, caps of 4 and 5 left node LPs
# large enough to make deep trees slow, 7 only tied 6, and 10 spent 104 s
# building tables.
MAX_TABLE_UNCERTAIN = 6


def _add_table(
    pb: ProblemBuilder,
    scenario: FloodScenario,
    uncertain: list[str],
    losses: list[float],
    x_idx: dict[tuple[str, int], int],
) -> dict[int, int]:
    """Entry ``mask`` has the loss ``losses[mask]``: its survivors are
    ``uncertain[j]`` for every set bit j of ``mask``.

    Returns the table's part of the zero plan's basis, the column basic in
    each of its rows: the empty-survivor entry in the ``zsum`` row, and
    entry ``1 << j`` in the marginal row of ``uncertain[j]``."""
    prob = scenario.probability
    if not uncertain:
        pb.add_objective_offset(prob * losses[0])
        return {}
    tag = sanitize_name(scenario.id)
    z = []
    for mask, loss in enumerate(losses):
        idx = pb.add_variable(f"z_{tag}_{mask}", 0.0, 1.0)
        pb.add_objective_term(idx, prob * loss)
        z.append(idx)
    basic = {pb.add_row(f"zsum_{tag}", [(idx, 1.0) for idx in z], "E", 1.0): z[0]}
    for j, k in enumerate(uncertain):
        terms = [(idx, 1.0) for mask, idx in enumerate(z) if mask >> j & 1]
        terms.append((x_idx[(k, scenario.level_of(k))], -1.0))
        basic[pb.add_row(f"zm_{tag}_{sanitize_name(k)}", terms, "E", 0.0)] = z[1 << j]
    return basic


def build(
    schedule: CostSchedule,
    budget: Budget,
    r_hat: int,
    evaluator: RecourseEvaluator,
) -> ExtensiveForm:
    """Assemble the planning MILP with a value table per scenario.

    Same first stage and optimum as :func:`floodmit.extensive_form.build`
    over the network, scenario set and loss weights of ``evaluator``.
    Raises on the same input mismatches.  The model's ``start_basis`` is
    the zero plan's vertex when every scenario has a table, else None.
    """
    network, scenario_set, levels = evaluator.network, evaluator.scenario_set, evaluator.levels
    check_inputs(network, scenario_set, schedule, r_hat)
    pb = ProblemBuilder("value_table")
    x_idx = add_first_stage(pb, network, schedule, budget, r_hat)
    sub_ids = network.arrays.sub_ids
    # Entry m of a table: the dry substations and the uncertain ones at the
    # set bits of m survive; every other flooded substation is dead.
    tables = {}
    for s, row in enumerate(levels):
        uncertain = np.flatnonzero((0 < row) & (row < r_hat))
        if len(uncertain) <= MAX_TABLE_UNCERTAIN:
            entries = np.repeat([row == 0], 2 ** len(uncertain), axis=0)
            entries[:, uncertain] = np.arange(len(entries))[:, None] >> np.arange(len(uncertain)) & 1
            tables[s] = [sub_ids[j] for j in uncertain], entries
    evaluator.settle(np.concatenate([np.zeros((0, len(sub_ids)), dtype=bool)] + [e for _, e in tables.values()]))
    basic: dict[int, int] = {}
    for s, scenario in enumerate(scenario_set.scenarios):
        if s in tables:
            uncertain, entries = tables[s]
            losses = [evaluator.scenario_outcome(s, up).loss for up in entries]
            basic.update(_add_table(pb, scenario, uncertain, losses, x_idx))
        else:
            add_dispatch_block(pb, network, scenario, r_hat, evaluator.weights, x_idx)
    n_dispatch = len(scenario_set.scenarios) - len(tables)
    ef = assemble(
        pb, network, schedule, budget, r_hat, x_idx,
        scenarios=len(scenario_set.scenarios), table_scenarios=len(tables),
        table_entries=sum(len(entries) for _, entries in tables.values()), dispatch_scenarios=n_dispatch,
    )
    if not n_dispatch:
        ef.start_basis = slack_basis(ef.problem.n_variables, ef.problem.n_rows, basic)
    return ef
