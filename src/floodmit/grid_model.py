"""Immutable power-grid data model.

The grid is a graph of buses (nodes) and branches (edges: lines and
transformers alike).  Buses are grouped into substations; flooding a
substation knocks out all of its buses, their generation and load, and every
incident branch.  All electrical quantities are per-unit.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

VOLTAGE_CLASSES = ("115_161", "230", "500")

DEFAULT_ANGLE_ABS_MAX = math.pi / 2
DEFAULT_ANGLE_DIFF_MAX = math.pi / 6


class NetworkFormatError(ValueError):
    """Raised when a network file is structurally malformed."""


@dataclass(frozen=True)
class Bus:
    id: str
    substation_id: str
    p_load: float = 0.0
    p_gen_min: float = 0.0
    p_gen_max: float = 0.0
    is_reference: bool = False


@dataclass(frozen=True)
class Branch:
    id: str
    from_bus: str
    to_bus: str
    susceptance: float
    flow_limit: float


@dataclass(frozen=True)
class Substation:
    id: str
    voltage_class: str
    lon: float | None = None
    lat: float | None = None

    @property
    def coordinates(self) -> tuple[float, float] | None:
        if self.lon is None or self.lat is None:
            return None
        return (self.lon, self.lat)


@dataclass(frozen=True)
class GridNetwork:
    """Buses, branches and substations plus system-wide angle limits.

    The graph may be disconnected; islands arise from flooding anyway.
    Construction performs no semantic checks so that broken networks can be
    built and fed to :func:`validate`.  The derived views ``total_load``
    and ``arrays`` are computed once per instance, so a
    ``dataclasses.replace`` copy derives its own.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    substations: tuple[Substation, ...]
    angle_abs_max: float = DEFAULT_ANGLE_ABS_MAX
    angle_diff_max: float = DEFAULT_ANGLE_DIFF_MAX
    base_mva: float | None = None

    @functools.cached_property
    def total_load(self) -> float:
        return sum(b.p_load for b in self.buses)

    @functools.cached_property
    def arrays(self) -> GridArrays:
        return GridArrays(self)


class GridArrays:
    """A network's buses and branches as arrays in declaration order, and
    the one status rule over them.

    Per bus: its substation's column ``bus_sub`` in ``sub_ids``, ``load``,
    ``gen_min``, ``gen_max`` and ``is_reference``; per branch: its end buses
    ``frm`` and ``to``, ``susceptance`` and ``flow_limit``.  No angle limit
    is held: what depends on the limits is computed from the network.
    """

    def __init__(self, network: GridNetwork):
        buses, branches = network.buses, network.branches
        col = self.sub_col = {s.id: j for j, s in enumerate(network.substations)}
        self.bus_sub = np.array([col.setdefault(b.substation_id, len(col)) for b in buses], dtype=int)
        self.sub_ids = tuple(col)
        self.load = np.array([b.p_load for b in buses], dtype=float)
        self.gen_min = np.array([b.p_gen_min for b in buses], dtype=float)
        self.gen_max = np.array([b.p_gen_max for b in buses], dtype=float)
        self.is_reference = np.array([b.is_reference for b in buses], dtype=bool)
        pos = {b.id: i for i, b in enumerate(buses)}
        self.frm = np.array([pos[br.from_bus] for br in branches], dtype=int)
        self.to = np.array([pos[br.to_bus] for br in branches], dtype=int)
        self.susceptance = np.array([br.susceptance for br in branches], dtype=float)
        self.flow_limit = np.array([br.flow_limit for br in branches], dtype=float)

    def closure(self, sub_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bus and branch masks from a substation mask, over any leading axes:
        a bus is up iff its substation is, and a branch iff both its ends are."""
        bus_up = sub_up.take(self.bus_sub, axis=-1)
        return bus_up, bus_up.take(self.frm, axis=-1) & bus_up.take(self.to, axis=-1)


def validate(network: GridNetwork) -> list[str]:
    """Check every structural invariant; violations are data, not faults.

    Returns an empty list iff the network is well formed.  Each violation
    names the offending entity and the broken invariant.
    """
    violations: list[str] = []

    seen_bus: set[str] = set()
    for b in network.buses:
        if b.id in seen_bus:
            violations.append(f"bus {b.id}: duplicate id")
        seen_bus.add(b.id)
        if b.p_load < 0:
            violations.append(f"bus {b.id}: negative load")
        if b.p_gen_min > b.p_gen_max:
            violations.append(f"bus {b.id}: generation lower bound exceeds upper bound")
        if not math.isfinite(b.p_load) or not math.isfinite(b.p_gen_min) or not math.isfinite(b.p_gen_max):
            violations.append(f"bus {b.id}: non-finite power datum")

    sub_ids = {s.id for s in network.substations}
    for b in network.buses:
        if b.substation_id not in sub_ids:
            violations.append(f"bus {b.id}: unknown substation {b.substation_id}")

    refs = [b.id for b in network.buses if b.is_reference]
    if len(refs) == 0:
        violations.append("network: no reference bus")
    elif len(refs) > 1:
        violations.append(f"network: multiple reference buses ({', '.join(refs)})")

    seen_branch: set[str] = set()
    for br in network.branches:
        if br.id in seen_branch:
            violations.append(f"branch {br.id}: duplicate id")
        seen_branch.add(br.id)
        if br.from_bus == br.to_bus:
            violations.append(f"branch {br.id}: self loop")
        for end in (br.from_bus, br.to_bus):
            if end not in seen_bus:
                violations.append(f"branch {br.id}: unknown endpoint {end}")
        if br.flow_limit <= 0:
            violations.append(f"branch {br.id}: nonpositive flow limit")
        if br.susceptance == 0:
            violations.append(f"branch {br.id}: zero susceptance")
        if not math.isfinite(br.susceptance) or not math.isfinite(br.flow_limit):
            violations.append(f"branch {br.id}: non-finite susceptance or flow limit")

    seen_sub: set[str] = set()
    bus_subs = {b.substation_id for b in network.buses}
    for s in network.substations:
        if s.id in seen_sub:
            violations.append(f"substation {s.id}: duplicate id")
        seen_sub.add(s.id)
        if s.voltage_class not in VOLTAGE_CLASSES:
            violations.append(f"substation {s.id}: unknown voltage class {s.voltage_class}")
        if s.coordinates is not None and not all(map(math.isfinite, s.coordinates)):
            violations.append(f"substation {s.id}: non-finite coordinates")
        if s.id not in bus_subs:
            violations.append(f"substation {s.id}: no buses")

    if not math.isfinite(network.angle_abs_max) or not math.isfinite(network.angle_diff_max):
        violations.append("network: non-finite angle limit")
    if network.angle_abs_max <= 0:
        violations.append("network: nonpositive absolute angle limit")
    if network.angle_diff_max <= 0:
        violations.append("network: nonpositive angle difference limit")
    if network.angle_diff_max > 2 * network.angle_abs_max:
        violations.append("network: angle difference limit exceeds twice the absolute limit")
    if network.base_mva is not None and not 0 < network.base_mva < math.inf:
        violations.append("network: base_mva must be finite and positive")

    return violations


# -- file format -------------------------------------------------------

_TOP_KEYS = {"buses", "branches", "substations", "angle_limits", "base_mva"}
_BUS_KEYS = {"id", "substation", "load", "gen_min", "gen_max", "reference"}
_BRANCH_KEYS = {"id", "from", "to", "susceptance", "flow_limit"}
_SUB_KEYS = {"id", "voltage_class", "lon", "lat"}
_ANGLE_KEYS = {"abs_max_rad", "diff_max_rad"}


def _objects(doc: dict, key: str) -> list[dict]:
    """The list under ``key``, each entry an object."""
    entries = doc[key]
    if not isinstance(entries, list):
        raise NetworkFormatError(f"network: {key} must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"network: {key} entry {i} must be an object")
    return entries


def checked_number(convert, value, what: str, error: type[ValueError] = NetworkFormatError):
    """``convert(value)`` for the input field ``what`` (``convert`` is
    ``float`` or ``int``), or ``error`` naming the field when the value is
    not a number (``null``, a boolean, a list or an object, say) or, for
    ``int``, not integral: 2.0 reads as 2, 1.7 is rejected."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} must be a number, not {value!r}") from None
    if convert is int and isinstance(value, float) and number != value:
        raise error(f"{what} must be an integer, not {value!r}")
    return number


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise NetworkFormatError(f"{where}: unknown keys {sorted(unknown)}")


def network_from_dict(doc: dict) -> GridNetwork:
    if not isinstance(doc, dict):
        raise NetworkFormatError("network document must be an object")
    _reject_unknown(doc, _TOP_KEYS, "network")
    for key in ("buses", "branches", "substations"):
        if key not in doc:
            raise NetworkFormatError(f"network: missing required key {key!r}")

    buses = []
    for entry in _objects(doc, "buses"):
        where = f"bus {entry.get('id', '?')}"
        _reject_unknown(entry, _BUS_KEYS, where)
        gen_max = checked_number(float, entry.get("gen_max", 0.0), f"{where}: gen_max")
        if gen_max < 0:
            # The load-shed recourse relies on zero generation being admissible.
            raise NetworkFormatError(
                f"bus {entry['id']}: negative generation upper bound not supported"
            )
        reference = entry.get("reference", False)
        if not isinstance(reference, bool):
            raise NetworkFormatError(f"{where}: reference must be true or false, not {reference!r}")
        buses.append(
            Bus(
                id=str(entry["id"]),
                substation_id=str(entry["substation"]),
                p_load=checked_number(float, entry.get("load", 0.0), f"{where}: load"),
                p_gen_min=checked_number(float, entry.get("gen_min", 0.0), f"{where}: gen_min"),
                p_gen_max=gen_max,
                is_reference=reference,
            )
        )

    branches = []
    for entry in _objects(doc, "branches"):
        where = f"branch {entry.get('id', '?')}"
        _reject_unknown(entry, _BRANCH_KEYS, where)
        susceptance = checked_number(float, entry["susceptance"], f"{where}: susceptance")
        if susceptance == 0:
            raise NetworkFormatError(f"branch {entry['id']}: zero susceptance")
        branches.append(
            Branch(
                id=str(entry["id"]),
                from_bus=str(entry["from"]),
                to_bus=str(entry["to"]),
                susceptance=susceptance,
                flow_limit=checked_number(float, entry["flow_limit"], f"{where}: flow_limit"),
            )
        )

    substations = []
    for entry in _objects(doc, "substations"):
        where = f"substation {entry.get('id', '?')}"
        _reject_unknown(entry, _SUB_KEYS, where)
        substations.append(
            Substation(
                id=str(entry["id"]),
                voltage_class=str(entry["voltage_class"]),
                lon=None if entry.get("lon") is None else checked_number(float, entry["lon"], f"{where}: lon"),
                lat=None if entry.get("lat") is None else checked_number(float, entry["lat"], f"{where}: lat"),
            )
        )

    angle_abs = DEFAULT_ANGLE_ABS_MAX
    angle_diff = DEFAULT_ANGLE_DIFF_MAX
    if "angle_limits" in doc:
        limits = doc["angle_limits"]
        if not isinstance(limits, dict):
            raise NetworkFormatError("network: angle_limits must be an object")
        _reject_unknown(limits, _ANGLE_KEYS, "angle_limits")
        angle_abs = checked_number(float, limits.get("abs_max_rad", angle_abs), "angle_limits: abs_max_rad")
        angle_diff = checked_number(float, limits.get("diff_max_rad", angle_diff), "angle_limits: diff_max_rad")

    base_mva = doc.get("base_mva")
    return GridNetwork(
        buses=tuple(buses),
        branches=tuple(branches),
        substations=tuple(substations),
        angle_abs_max=angle_abs,
        angle_diff_max=angle_diff,
        base_mva=None if base_mva is None else checked_number(float, base_mva, "network: base_mva"),
    )


def network_to_dict(network: GridNetwork) -> dict:
    doc: dict = {
        "angle_limits": {
            "abs_max_rad": network.angle_abs_max,
            "diff_max_rad": network.angle_diff_max,
        },
        "buses": [
            {
                "id": b.id,
                "substation": b.substation_id,
                "load": b.p_load,
                "gen_min": b.p_gen_min,
                "gen_max": b.p_gen_max,
                "reference": b.is_reference,
            }
            for b in network.buses
        ],
        "branches": [
            {
                "id": br.id,
                "from": br.from_bus,
                "to": br.to_bus,
                "susceptance": br.susceptance,
                "flow_limit": br.flow_limit,
            }
            for br in network.branches
        ],
        "substations": [
            {
                "id": s.id,
                "voltage_class": s.voltage_class,
                **({"lon": s.lon, "lat": s.lat} if s.lon is not None else {}),
            }
            for s in network.substations
        ],
    }
    if network.base_mva is not None:
        doc["base_mva"] = network.base_mva
    return doc


def load_network(path) -> GridNetwork:
    """Parse a network file, rejecting unknown keys and degenerate branches."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return network_from_dict(doc)


def save_network(network: GridNetwork, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(network_to_dict(network), fh, indent=2, sort_keys=True)
        fh.write("\n")
