"""Flooding uncertainty: scenarios, probabilities, and flood levels.

A flooding scenario assigns each substation an integer flood level.  Level 0
means dry; level r means the water requires at least resilience level r of
stacked barriers to keep the substation operational.  Levels convert to
cumulative indicator rows: flooded to level r implies flooded to every level
below r, which is why scenario files store one level per substation rather
than raw indicator matrices (a level cannot encode a non-cumulative row).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid_model import GridNetwork, checked_number

PROBABILITY_TOL = 1e-9


class ScenarioFormatError(ValueError):
    """Raised when a scenario file is malformed or inconsistent."""


@dataclass(frozen=True)
class DepthThresholds:
    """Cumulative protection heights per resilience level, meters.

    ``heights[r-1]`` is the deepest flood that level-r barriers still hold.
    """

    heights: tuple[float, ...]

    def __post_init__(self):
        if not self.heights:
            raise ValueError("at least one threshold required")
        prev = 0.0
        for h in self.heights:
            if h <= prev:
                raise ValueError("thresholds must be positive and strictly increasing")
            prev = h

    @property
    def level_count(self) -> int:
        return len(self.heights)


# Stackable-barrier geometry: one ring holds 0.534 m, two hold exactly 1 m,
# three would hold 1.464 m.
STANDARD_THRESHOLDS = DepthThresholds((0.534, 1.0, 1.464))


@dataclass(frozen=True)
class FloodScenario:
    id: str
    probability: float
    levels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"scenario {self.id}: probability must lie in (0, 1]")

    def level_of(self, substation_id: str) -> int:
        return self.levels.get(substation_id, 0)


@dataclass(frozen=True)
class FloodScenarioSet:
    scenarios: tuple[FloodScenario, ...]
    level_count: int
    unattainable_level: int
    # Not an init field, so a ``dataclasses.replace`` copy starts empty.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.level_count < 1:
            raise ValueError("level_count must be >= 1")
        if not 1 <= self.unattainable_level <= self.level_count:
            raise ValueError("unattainable_level must lie in [1, level_count]")
        total = sum(s.probability for s in self.scenarios)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"scenario probabilities sum to {total!r}, not 1")

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(s.probability for s in self.scenarios)

    def level_matrix(self, sub_ids: Sequence[str]) -> np.ndarray:
        """Flood levels as a (scenarios, substations) int array: row s is
        scenario s, column j substation ``sub_ids[j]`` (0 when dry).  Built
        once per column order and shared, so it is read-only."""
        key = tuple(sub_ids)
        if key not in self._cache:
            levels = np.array(
                [[s.levels.get(k, 0) for k in key] for s in self.scenarios], dtype=int
            ).reshape(len(self.scenarios), len(key))
            levels.flags.writeable = False
            self._cache[key] = levels
        return self._cache[key]

    def substation_ids(self) -> set[str]:
        ids: set[str] = set()
        for s in self.scenarios:
            ids.update(s.levels)
        return ids


def depth_to_level(depth: float, thresholds: DepthThresholds) -> int:
    """Smallest resilience level whose barrier height covers ``depth``.

    Zero depth is level 0 (dry).  A depth exactly at a threshold maps to that
    threshold's level: the protection is sufficient and not excessive.  Depth
    beyond the top threshold maps to ``level_count + 1``, which no barrier
    stack can hold.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth == 0:
        return 0
    for r, height in enumerate(thresholds.heights, start=1):
        if depth <= height:
            return r
    return thresholds.level_count + 1


def level_to_indicators(level: int, level_count: int) -> tuple[int, ...]:
    """Cumulative indicator row for a flood level; saturates at level_count."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    filled = min(level, level_count)
    return tuple(1 if r <= filled else 0 for r in range(1, level_count + 1))


def scenario_set_from_dict(
    doc: dict,
    network: GridNetwork | None = None,
    normalize: bool = False,
) -> FloodScenarioSet:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be an object")
    unknown = set(doc) - {"level_count", "unattainable_level", "scenarios"}
    if unknown:
        raise ScenarioFormatError(f"scenario file: unknown keys {sorted(unknown)}")
    try:
        level_count = checked_number(int, doc["level_count"], "scenario file: level_count", ScenarioFormatError)
        unattainable = checked_number(
            int, doc["unattainable_level"], "scenario file: unattainable_level", ScenarioFormatError
        )
        entries = doc["scenarios"]
    except KeyError as exc:
        raise ScenarioFormatError(f"scenario file: missing key {exc}") from exc

    known_subs = None if network is None else {s.id for s in network.substations}

    if not isinstance(entries, list):
        raise ScenarioFormatError("scenario file: scenarios must be a list")
    scenarios: list[FloodScenario] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"scenario file: scenarios entry {i} must be an object")
        unknown = set(entry) - {"id", "probability", "levels"}
        if unknown:
            raise ScenarioFormatError(
                f"scenario {entry.get('id', '?')}: unknown keys {sorted(unknown)}"
            )
        sid = str(entry["id"])
        if sid in seen_ids:
            raise ScenarioFormatError(f"scenario {sid}: duplicate id")
        seen_ids.add(sid)
        prob = checked_number(float, entry["probability"], f"scenario {sid}: probability", ScenarioFormatError)
        if not 0 < prob <= 1:
            raise ScenarioFormatError(f"scenario {sid}: probability must lie in (0, 1]")
        if not isinstance(entry.get("levels", {}), dict):
            raise ScenarioFormatError(f"scenario {sid}: levels must be an object")
        levels: dict[str, int] = {}
        for sub, lvl in entry.get("levels", {}).items():
            if known_subs is not None and sub not in known_subs:
                raise ScenarioFormatError(
                    f"scenario {sid}: substation {sub} not present in the network"
                )
            lvl = checked_number(int, lvl, f"scenario {sid}: flood level at {sub}", ScenarioFormatError)
            if lvl < 0:
                raise ScenarioFormatError(f"scenario {sid}: negative flood level at {sub}")
            if lvl > 0:
                levels[sub] = lvl
        scenarios.append(FloodScenario(id=sid, probability=prob, levels=levels))

    total = sum(s.probability for s in scenarios)
    if abs(total - 1.0) > PROBABILITY_TOL:
        if not normalize:
            raise ScenarioFormatError(
                f"scenario probabilities sum to {total!r}, not 1 (pass normalize to rescale)"
            )
        scenarios = [
            FloodScenario(id=s.id, probability=s.probability / total, levels=s.levels)
            for s in scenarios
        ]

    return FloodScenarioSet(
        scenarios=tuple(scenarios),
        level_count=level_count,
        unattainable_level=unattainable,
    )


def load_scenarios(path, network: GridNetwork | None = None, normalize: bool = False) -> FloodScenarioSet:
    """Parse and validate a scenario file.

    Probabilities must sum to 1 within 1e-9 unless ``normalize`` rescales
    them.  When a network is given, every substation named by a scenario must
    exist in it; substations a scenario omits default to level 0.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return scenario_set_from_dict(doc, network=network, normalize=normalize)


def scenario_set_to_dict(scenario_set: FloodScenarioSet) -> dict:
    return {
        "level_count": scenario_set.level_count,
        "unattainable_level": scenario_set.unattainable_level,
        "scenarios": [
            {
                "id": s.id,
                "probability": s.probability,
                "levels": {k: s.levels[k] for k in sorted(s.levels)},
            }
            for s in scenario_set.scenarios
        ],
    }


def save_scenarios(scenario_set: FloodScenarioSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(scenario_set_to_dict(scenario_set), fh, indent=2, sort_keys=True)
        fh.write("\n")
