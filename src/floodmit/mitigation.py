"""First-stage barrier deployment: feasible plans, costs, enumeration.

A plan assigns each substation a resilience level.  Levels are cumulative
(you cannot hold level 2 without level 1), the top level r_hat is physically
unattainable, and total cost is capped by the resource budget.  Costs count
barrier segments: protecting a larger-perimeter substation takes more
segments per ring, and stacking rings higher takes more segments per level,
so the marginal cost of level r is ``base_units * r`` and the cumulative cost
of reaching level t is ``base_units * t * (t + 1) / 2``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from .grid_model import GridNetwork, checked_number
from .scenario_model import FloodScenarioSet

# Segments per level increment by highest-voltage component of the substation.
BASE_UNITS_BY_CLASS = {"115_161": 1, "230": 2, "500": 3}

ENUMERATION_GUARD = 10**7


class PlanFormatError(ValueError):
    """Raised when a plan file is malformed."""


@dataclass(frozen=True)
class Budget:
    units: int

    def __post_init__(self):
        if self.units < 0:
            raise ValueError("budget must be nonnegative")


@dataclass(frozen=True)
class CostSchedule:
    """Per-substation cost structure: marginal cost of level r is base * r."""

    base_units: dict[str, int]

    def __post_init__(self):
        for sub, base in self.base_units.items():
            if base < 1:
                raise ValueError(f"substation {sub}: base units must be >= 1")

    @classmethod
    def for_network(cls, network: GridNetwork) -> "CostSchedule":
        return cls({s.id: BASE_UNITS_BY_CLASS[s.voltage_class] for s in network.substations})

    def marginal_cost(self, substation_id: str, level: int) -> int:
        return self.base_units[substation_id] * level

    def cumulative_cost(self, substation_id: str, level: int) -> int:
        # 1 + 2 + ... + level rings' worth of segments.
        return self.base_units[substation_id] * level * (level + 1) // 2


@dataclass(frozen=True)
class MitigationPlan:
    """Resilience level per substation; omitted substations sit at level 0."""

    levels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        # Canonical form: drop level-0 entries so equal plans compare equal.
        cleaned = {k: int(v) for k, v in self.levels.items() if int(v) != 0}
        object.__setattr__(self, "levels", cleaned)

    def level_of(self, substation_id: str) -> int:
        return self.levels.get(substation_id, 0)

    def key(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self.levels.items()))


ZERO_PLAN = MitigationPlan({})


def plan_cost(plan: MitigationPlan, schedule: CostSchedule) -> int:
    """Total barrier segments the plan consumes."""
    total = 0
    for sub, lvl in plan.levels.items():
        if sub not in schedule.base_units:
            raise KeyError(f"plan names substation {sub} absent from the cost schedule")
        total += schedule.cumulative_cost(sub, lvl)
    return total


def is_feasible(
    plan: MitigationPlan, schedule: CostSchedule, budget: Budget, r_hat: int
) -> bool:
    """True iff levels are within [0, r_hat - 1] and the plan fits the budget.

    Cumulativity needs no explicit check here: a level assignment always
    expands to a cumulative 0/1 matrix.
    """
    for sub, lvl in plan.levels.items():
        if sub not in schedule.base_units:
            raise KeyError(f"plan names substation {sub} absent from the cost schedule")
        if lvl < 0 or lvl >= r_hat:
            return False
    return plan_cost(plan, schedule) <= budget.units


def max_useful_budget(scenarios: FloodScenarioSet, schedule: CostSchedule, r_hat: int) -> int:
    """Most resources that can still change any outcome.

    Per substation: the cost of reaching its worst preventable flood level,
    where floods at or above r_hat are beyond any barrier stack and do not
    count.
    """
    worst_preventable: dict[str, int] = {}
    for scenario in scenarios.scenarios:
        for sub, lvl in scenario.levels.items():
            if 0 < lvl < r_hat and lvl > worst_preventable.get(sub, 0):
                worst_preventable[sub] = lvl
    total = 0
    for sub, lvl in worst_preventable.items():
        total += schedule.cumulative_cost(sub, min(lvl, r_hat - 1))
    return total


def enumerate_plans(
    schedule: CostSchedule,
    budget: Budget,
    r_hat: int,
    substation_subset: list[str] | None = None,
) -> Iterator[MitigationPlan]:
    """Yield every feasible plan over the subset exactly once.

    Brute-force support for oracle tests; guarded so r_hat^|subset| stays
    tractable.
    """
    subs = sorted(schedule.base_units) if substation_subset is None else list(substation_subset)
    if r_hat ** len(subs) > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration over {len(subs)} substations with r_hat={r_hat} exceeds the guard"
        )

    def rec(i: int, remaining: int, levels: dict[str, int]) -> Iterator[MitigationPlan]:
        if i == len(subs):
            yield MitigationPlan(dict(levels))
            return
        sub = subs[i]
        for lvl in range(0, r_hat):
            cost = schedule.cumulative_cost(sub, lvl)
            if cost > remaining:
                break
            if lvl:
                levels[sub] = lvl
            yield from rec(i + 1, remaining - cost, levels)
            levels.pop(sub, None)

    yield from rec(0, budget.units, {})


# -- plan files --------------------------------------------------------


def plan_from_dict(doc: dict) -> MitigationPlan:
    if not isinstance(doc, dict):
        raise PlanFormatError("plan document must be an object")
    unknown = set(doc) - {"levels"}
    if unknown:
        raise PlanFormatError(f"plan file: unknown keys {sorted(unknown)}")
    if not isinstance(doc.get("levels", {}), dict):
        raise PlanFormatError("plan: levels must be an object")
    levels = {}
    for sub, lvl in doc.get("levels", {}).items():
        lvl = checked_number(int, lvl, f"plan: level at {sub}", PlanFormatError)
        if lvl < 0:
            raise PlanFormatError(f"plan: negative level at {sub}")
        levels[str(sub)] = lvl
    return MitigationPlan(levels)


def load_plan(path) -> MitigationPlan:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return plan_from_dict(doc)


def save_plan(plan: MitigationPlan, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"levels": {k: plan.levels[k] for k in sorted(plan.levels)}}, fh, indent=2)
        fh.write("\n")
