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
table in one call, island by island: most with no LP, by the island
copper-plate bound and its DC power-flow witness, and a dispatch LP for the
rest; an island that many entries share is settled once.  Every scenario
gets a table while the model's tables hold at most ``MAX_TABLE_ENTRIES``
entries in all.  An instance over that limit is built whole as the extensive
form (:func:`floodmit.extensive_form.build`), before any table is filled.
The first stage is the extensive form's, so plans read in and out through
the same :class:`~floodmit.extensive_form.ExtensiveForm` wrapper.

The model comes with a start basis, the zero plan's vertex (a model-aware
crash basis in the sense of Bixby, ORSA J. Comput. 4(3), 1992): each
table's empty-survivor entry z[s, {}] is basic in its ``zsum`` row, where
it is a column singleton; each single-survivor entry z[s, {j}] is basic, at
value 0, in its marginal row; and the slack is basic in every first-stage
row.  Ordered marginal rows first, the basis matrix is triangular with a
unit diagonal, so it is nonsingular, and with every x at 0 it is primal
feasible at every budget >= 0.  Its duals price marginal row (s, j) at
p_s * (loss(s, {j}) - loss(s, {})).
"""

from __future__ import annotations

import numpy as np

from . import extensive_form
from .extensive_form import ExtensiveForm, add_first_stage, assemble, check_inputs
from .milp import ProblemBuilder, sanitize_name
from .mitigation import Budget, CostSchedule
from .recourse import RecourseEvaluator
from .scenario_model import FloodScenario
from .simplex import slack_basis

# Most table entries, the sum over scenarios of 2^|U_s|, that a model gets.
# The generated corridor (uncertain sets of up to 13) needs 22384, which fill
# in 1.3 s on a 2-CPU host: 21607 masks with 2397 distinct islands.
MAX_TABLE_ENTRIES = 2**16


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
    the zero plan's vertex.  Over ``MAX_TABLE_ENTRIES`` the model is the
    extensive form itself, with no start basis.
    """
    network, scenario_set, levels = evaluator.network, evaluator.scenario_set, evaluator.levels
    check_inputs(network, scenario_set, schedule, r_hat)
    uncertain = [np.flatnonzero((0 < row) & (row < r_hat)) for row in levels]
    n = len(scenario_set.scenarios)
    if sum(2 ** len(u) for u in uncertain) > MAX_TABLE_ENTRIES:
        ef = extensive_form.build(network, scenario_set, schedule, budget, r_hat, evaluator.weights)
        ef.stats.update(table_scenarios=0, table_entries=0, dispatch_scenarios=n)
        return ef
    pb = ProblemBuilder("value_table")
    x_idx = add_first_stage(pb, network, schedule, budget, r_hat)
    sub_ids = network.arrays.sub_ids
    # Entry m of a table: the dry substations and the uncertain ones at the
    # set bits of m survive; every other flooded substation is dead.
    tables = []
    for row, cols in zip(levels, uncertain):
        entries = np.repeat([row == 0], 2 ** len(cols), axis=0)
        entries[:, cols] = np.arange(len(entries))[:, None] >> np.arange(len(cols)) & 1
        tables.append(entries)
    evaluator.settle(np.concatenate(tables))
    basic: dict[int, int] = {}
    for s, (scenario, cols, entries) in enumerate(zip(scenario_set.scenarios, uncertain, tables)):
        losses = [evaluator.scenario_outcome(s, up).loss for up in entries]
        basic.update(_add_table(pb, scenario, [sub_ids[j] for j in cols], losses, x_idx))
    ef = assemble(
        pb, network, schedule, budget, r_hat, x_idx, scenarios=n, table_scenarios=n,
        table_entries=sum(len(entries) for entries in tables), dispatch_scenarios=0,
    )
    ef.start_basis = slack_basis(ef.problem.n_variables, ef.problem.n_rows, basic)
    return ef
