import dataclasses

import numpy as np
import pytest

from floodmit.fixtures import make_fixture
from floodmit.grid_model import Branch, Bus, GridNetwork, Substation
from floodmit.mitigation import MitigationPlan
from floodmit.scenario_model import FloodScenario, FloodScenarioSet


@pytest.fixture(scope="session")
def tiny3():
    return make_fixture("tiny3")


@pytest.fixture(scope="session")
def star8():
    return make_fixture("star8")


@pytest.fixture(scope="session")
def ring12():
    return make_fixture("ring12")


@pytest.fixture(scope="session")
def coastal40():
    return make_fixture("coastal40")


def scaled_flow_limits(network: GridNetwork, factor: float) -> GridNetwork:
    """A copy of ``network`` with every branch's flow limit times ``factor``.

    Tightened limits make lines bind, so that some dead sets need a dispatch
    LP instead of being settled by the island bound's witness.
    """
    branches = tuple(dataclasses.replace(br, flow_limit=br.flow_limit * factor) for br in network.branches)
    return dataclasses.replace(network, branches=branches)


def _loop_closure(network: GridNetwork, dead) -> tuple[list[bool], list[bool]]:
    """The status rule as a literal loop, independent of ``GridArrays``: a
    bus is up iff its substation is not ``dead``, and a branch iff both its
    ends are up.  Bus and branch statuses in network order."""
    bus_up = {bus.id: bus.substation_id not in dead for bus in network.buses}
    branch_up = {}
    for br in network.branches:
        branch_up[br.id] = bus_up[br.from_bus] and bus_up[br.to_bus]
    return list(bus_up.values()), list(branch_up.values())


def survival_masks(network: GridNetwork, dead_sets) -> np.ndarray:
    """Recourse requests from dead sets: one row per dead set and one bool
    per substation of ``network.arrays``, false where it is dead."""
    subs = network.arrays.sub_ids
    return np.array([[k not in dead for k in subs] for dead in dead_sets], dtype=bool).reshape(-1, len(subs))


def random_network(rng: np.random.Generator, n_subs=None, buses_per_sub=None) -> GridNetwork:
    """Small random connected-ish network with nonnegative generation caps."""
    n_subs = int(rng.integers(2, 5)) if n_subs is None else n_subs
    buses = []
    substations = []
    classes = ("115_161", "230", "500")
    bus_ids = []
    for k in range(n_subs):
        sid = f"S{k}"
        substations.append(Substation(sid, classes[int(rng.integers(0, 3))]))
        nb = int(rng.integers(1, 4)) if buses_per_sub is None else buses_per_sub
        for j in range(nb):
            bid = f"B{k}_{j}"
            gen_max = float(rng.choice([0.0, 0.0, rng.uniform(0.5, 3.0)]))
            gen_min = float(rng.uniform(0, 0.3)) if (gen_max > 0 and rng.random() < 0.3) else 0.0
            buses.append(
                Bus(
                    bid,
                    sid,
                    p_load=float(rng.choice([0.0, rng.uniform(0.1, 1.5)])),
                    p_gen_min=min(gen_min, gen_max),
                    p_gen_max=gen_max,
                )
            )
            bus_ids.append(bid)
    # Guarantee some generation and a unique reference.
    buses[0] = Bus(
        buses[0].id, buses[0].substation_id, p_load=buses[0].p_load,
        p_gen_min=0.0, p_gen_max=max(2.0, buses[0].p_gen_max), is_reference=True,
    )
    branches = []
    order = rng.permutation(len(bus_ids))
    for i in range(1, len(bus_ids)):  # random spanning tree
        a = bus_ids[order[i]]
        b = bus_ids[order[int(rng.integers(0, i))]]
        branches.append(
            Branch(
                f"L{i}", a, b,
                susceptance=float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 12.0)),
                flow_limit=float(rng.uniform(0.4, 2.5)),
            )
        )
    extra = int(rng.integers(0, 3))
    for e in range(extra):
        a, b = rng.choice(len(bus_ids), size=2, replace=False)
        branches.append(
            Branch(
                f"X{e}", bus_ids[a], bus_ids[b],
                susceptance=float(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 12.0)),
                flow_limit=float(rng.uniform(0.4, 2.5)),
            )
        )
    return GridNetwork(buses=tuple(buses), branches=tuple(branches), substations=tuple(substations))


def random_scenario_set(rng: np.random.Generator, network: GridNetwork, count=None, level_count=3) -> FloodScenarioSet:
    count = int(rng.integers(1, 5)) if count is None else count
    subs = [s.id for s in network.substations]
    raw = rng.uniform(0.2, 1.0, count)
    probs = raw / raw.sum()
    scenarios = []
    for i in range(count):
        levels = {
            s: int(rng.integers(1, level_count + 2))
            for s in subs
            if rng.random() < 0.5
        }
        scenarios.append(FloodScenario(f"w{i}", float(probs[i]), levels))
    return FloodScenarioSet(tuple(scenarios), level_count=level_count, unattainable_level=level_count)


def random_plan(rng: np.random.Generator, network: GridNetwork, r_hat=3) -> MitigationPlan:
    levels = {
        s.id: int(rng.integers(0, r_hat))
        for s in network.substations
        if rng.random() < 0.6
    }
    return MitigationPlan(levels)
