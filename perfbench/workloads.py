"""Benchmark workloads and their inputs.

A workload is a fixed instance plus the CLI requests one run repeats.  The
sweep uses the bundled coastal40 fixture; the portfolio uses a corridor
instance generated here from a fixed instance seed.  Every instance is
produced as plain network and scenario documents (the JSON the CLI reads),
checked with ``grid_model.validate`` and then written by this module's own
serializer, so the bytes on disk depend only on this file, the
seed and numpy's PCG64 stream.  ``input_digest`` hashes the canonical form;
``reference.json`` pins the digest of each workload's instance so that the
stored HiGHS reference values can never be applied to different inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

R_HAT = 3


@dataclass(frozen=True)
class Corridor:
    """Shape of a generated landfall-corridor instance.

    ``wide_every``: every such scenario (indices 0, wide_every, ...) has wide
    flood reach, flooding a long stretch of coast at preventable levels and
    reaching several inland substations, which raises k_s (the number of
    substations a scenario floods at a level barriers can still hold).
    """

    n_coast: int
    n_inland: int
    n_scenarios: int
    wide_every: int


def corridor_docs(seed: int, shape: Corridor) -> tuple[dict, dict]:
    """Network and scenario documents for one seeded corridor draw.

    The layout follows coastal40: coastal substations in a chain carrying
    most of the load, an inland generation backbone, feeders from each inland
    substation to the coast, and equiprobable landfall scenarios whose flood
    level falls off with distance along the coast from the landfall point.
    """
    rng = np.random.default_rng(seed)
    nc, ni = shape.n_coast, shape.n_inland
    coast = [f"C{k:02d}" for k in range(nc)]
    inland = [f"I{k:02d}" for k in range(ni)]
    subs, buses, branches = [], [], []

    def branch(bid, a, b, susceptance, limit):
        branches.append(
            {"id": bid, "from": a, "to": b, "susceptance": susceptance, "flow_limit": limit}
        )

    for k, sid in enumerate(coast):
        voltage = "230" if rng.random() < 0.3 else "115_161"
        subs.append({"id": sid, "voltage_class": voltage})
        load = round(float(rng.uniform(0.4, 1.2)), 3)
        gen = 0.6 if k % 4 == 2 else 0.0
        buses.append({"id": f"{sid}a", "substation": sid, "load": load,
                      "gen_min": 0.0, "gen_max": 0.0, "reference": False})
        buses.append({"id": f"{sid}b", "substation": sid, "load": 0.15,
                      "gen_min": 0.0, "gen_max": gen, "reference": False})
        branch(f"T{sid}", f"{sid}a", f"{sid}b", -12.0, 2.0)
    for k, sid in enumerate(inland):
        voltage = "500" if k % 3 == 0 else "230"
        subs.append({"id": sid, "voltage_class": voltage})
        gen = round(float(rng.uniform(1.5, 3.5)), 3)
        buses.append({"id": f"{sid}a", "substation": sid, "load": 0.25,
                      "gen_min": 0.0, "gen_max": gen, "reference": k == 0})
        buses.append({"id": f"{sid}b", "substation": sid, "load": 0.35,
                      "gen_min": 0.0, "gen_max": 0.0, "reference": False})
        branch(f"T{sid}", f"{sid}a", f"{sid}b", -12.0, 2.5)
    for k in range(nc - 1):
        branch(f"CC{k:02d}", f"{coast[k]}a", f"{coast[k + 1]}a", -8.0, 1.6)
    for k in range(ni - 1):
        branch(f"II{k:02d}", f"{inland[k]}a", f"{inland[k + 1]}a", -10.0, 3.0)
    for k in range(ni):
        ck = min(nc - 1, round(k * (nc - 1) / (ni - 1)))
        branch(f"F{k:02d}", f"{inland[k]}a", f"{coast[ck]}b", -9.0, 2.2)

    scenarios = []
    span = nc + 3.0
    for i in range(shape.n_scenarios):
        center = -1.5 + span * (i + rng.random()) / shape.n_scenarios
        wide = i % shape.wide_every == 0
        # (level 3, level 2, level 1) reach along the coast, in substations.
        reach = (0.8, 2.6, 5.5) if wide else (0.8, 1.3, 2.1)
        levels = {}
        for k, sid in enumerate(coast):
            d = abs(k - center)
            for level, r in zip((3, 2, 1), reach):
                if d <= r:
                    levels[sid] = level
                    break
        near = center * (ni - 1) / (nc - 1)
        for k, sid in enumerate(inland):
            if (wide and abs(k - near) <= 1.6) or (not wide and i % 5 == 0 and k == round(near)):
                levels[sid] = 1
        scenarios.append({"id": f"h{i:03d}", "probability": 1.0 / shape.n_scenarios,
                          "levels": dict(sorted(levels.items()))})

    network = {"buses": buses, "branches": branches, "substations": subs}
    scenario_doc = {"level_count": 4, "unattainable_level": 3, "scenarios": scenarios}
    return network, scenario_doc


def coastal40_docs() -> tuple[dict, dict]:
    """The bundled coastal40 fixture as documents (what ``make-fixture`` writes)."""
    from floodmit.fixtures import make_fixture
    from floodmit.grid_model import network_to_dict
    from floodmit.scenario_model import scenario_set_to_dict

    fx = make_fixture("coastal40")
    return network_to_dict(fx.network), scenario_set_to_dict(fx.scenarios)


def input_digest(network: dict, scenarios: dict) -> str:
    canon = json.dumps([network, scenarios], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def describe(network: dict, scenarios: dict) -> dict:
    """Instance sizes and the k_s distribution at r_hat = 3."""
    k_s = [sum(1 for lvl in s["levels"].values() if 0 < lvl < R_HAT) for s in scenarios["scenarios"]]
    hist: dict[str, int] = {}
    for k in sorted(k_s):
        hist[str(k)] = hist.get(str(k), 0) + 1
    return {
        "substations": len(network["substations"]),
        "buses": len(network["buses"]),
        "branches": len(network["branches"]),
        "scenarios": len(scenarios["scenarios"]),
        "k_s_max": max(k_s),
        "k_s_mean": round(sum(k_s) / len(k_s), 3),
        "k_s_histogram": hist,
    }


def write_inputs(network: dict, scenarios: dict, out_dir: Path) -> tuple[Path, Path]:
    """Validate with floodmit's own checks, then write the two JSON files."""
    from floodmit.grid_model import network_from_dict, validate
    from floodmit.scenario_model import scenario_set_from_dict

    net = network_from_dict(network)
    violations = validate(net)
    if violations:
        raise ValueError("generated network invalid: " + "; ".join(violations))
    scenario_set_from_dict(scenarios, network=net)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (out_dir / "network.json", out_dir / "scenarios.json")
    for doc, path in zip((network, scenarios), paths):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return paths


@dataclass(frozen=True)
class Workload:
    """``budgets``: the sweep's --max-budget, or the portfolio request budgets."""

    name: str
    kind: str  # sweep | portfolio
    budgets: tuple[int, ...]
    instance_seed: int | None = None  # None: the coastal40 fixture
    shape: Corridor | None = None

    def docs(self) -> tuple[dict, dict]:
        if self.shape is None:
            return coastal40_docs()
        return corridor_docs(self.instance_seed, self.shape)

    def requests(self, network: Path, scenarios: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
        """(request id, argv) pairs for one repetition, in the order issued.

        Portfolio requests are independent (each builds its own recourse
        cache, as separate CLI invocations do), so the run seed shuffles
        their order without changing the work.
        """
        common = ["--network", str(network), "--scenarios", str(scenarios), "--rhat", str(R_HAT)]
        if self.kind == "sweep":
            return [("sweep", ["sweep", *common, "--max-budget", str(self.budgets[0]),
                               "--out", str(out / "sweep")])]
        order = list(self.budgets)
        random.Random(seed).shuffle(order)
        return [
            (f"portfolio-{b}", ["heuristic", "--portfolio", *common, "--budget", str(b),
                                "--out", str(out / f"portfolio-{b}")])
            for b in order
        ]


# A run reports the median over the repetitions that fit in it, so each
# repetition is kept short enough for five or more to fit in a run on a
# 2-CPU host; single repetitions of 20 s or more were too noisy there.
# Sweep: budgets 0..11 of coastal40's 0..57 (5-9 s): the cold first budget,
# the warm-chained cheap budgets, and budgets 9 and 11, the first with
# branch-and-bound trees (3 and 11 nodes).  The full range takes ~100 s and
# the expensive even budgets from 22 on (~5-7 s each) would leave one or two
# repetitions per run.
# Portfolio: 15/30/60% of the instance's useful budget (f_max 100), 5-8 s
# per repetition of the three requests.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-coastal40", "sweep", (11,)),
        Workload("portfolio-gen", "portfolio", (15, 30, 60), 11, Corridor(18, 12, 32, 4)),
    )
}
