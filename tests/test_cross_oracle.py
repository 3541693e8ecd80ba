"""End-to-end cross-check of the assembled model against an external solver.

scipy's HiGHS-backed MILP solves the very same problem arrays; objectives
must agree to tight tolerance.  This is independent of both the in-repo
branch-and-bound and the brute-force enumeration used elsewhere.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from conftest import random_network, random_scenario_set
from floodmit.extensive_form import build
from floodmit.fixtures import make_fixture
from floodmit.mitigation import Budget, CostSchedule, max_useful_budget
from floodmit.recourse import LossWeights
from floodmit.solver import solve_milp

W = LossWeights()


def _scipy_milp_objective(problem):
    A, senses, b = problem.constraint_arrays()
    lo = np.where([s in ("G", "E") for s in senses], b, -np.inf)
    hi = np.where([s in ("L", "E") for s in senses], b, np.inf)
    lb, ub = problem.bounds_arrays()
    integrality = np.zeros(problem.n_variables)
    integrality[problem.binary_indices()] = 1
    res = milp(
        c=problem.objective,
        constraints=LinearConstraint(A, lo, hi),
        bounds=Bounds(lb, ub),
        integrality=integrality,
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return res.fun + problem.objective_offset


def test_fixture_budgets_match_external_solver():
    for name, budgets in (("star8", (0, 3, 7, 13)), ("ring12", (1, 4, 8))):
        fx = make_fixture(name)
        sched = CostSchedule.for_network(fx.network)
        for f in budgets:
            ef = build(fx.network, fx.scenarios, sched, Budget(f), 3, W)
            mine = solve_milp(ef.problem)
            ref = _scipy_milp_objective(ef.problem)
            assert mine.objective == pytest.approx(ref, abs=1e-6), (name, f)


def test_coastal40_spot_check_matches_external_solver():
    fx = make_fixture("coastal40")
    sched = CostSchedule.for_network(fx.network)
    for f in (0, 10, 25):
        ef = build(fx.network, fx.scenarios, sched, Budget(f), 3, W)
        mine = solve_milp(ef.problem)
        ref = _scipy_milp_objective(ef.problem)
        assert mine.objective == pytest.approx(ref, abs=1e-6), f


def test_randomized_instances_match_external_solver():
    rng = np.random.default_rng(2468)
    solved = 0
    for _ in range(15):
        net = random_network(rng, n_subs=int(rng.integers(2, 6)))
        scen = random_scenario_set(rng, net, count=int(rng.integers(1, 4)), level_count=3)
        sched = CostSchedule.for_network(net)
        r_hat = int(rng.choice([3, 4]))
        fmax = max_useful_budget(scen, sched, r_hat)
        f = int(rng.integers(0, fmax + 2))
        ef = build(net, scen, sched, Budget(f), r_hat, W)
        mine = solve_milp(ef.problem)
        assert mine.status == "optimal"
        ref = _scipy_milp_objective(ef.problem)
        assert mine.objective == pytest.approx(ref, abs=1e-6)
        solved += 1
    assert solved == 15
