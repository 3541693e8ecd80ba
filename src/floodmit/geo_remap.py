"""Minimum-distance matching of synthetic substations onto real sites.

Each synthetic point must land on exactly one real site and no site may
receive two points, minimizing total great-circle distance.  The constraint
matrix of that assignment problem is totally unimodular, so the plain LP
relaxation already lands on a 0/1 vertex; the simplex solution is asserted
integral rather than branched on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import simplex
from .grid_model import checked_finite

EARTH_RADIUS_KM = 6371.0
INTEGRALITY_TOL = 1e-9
# Breaks exact-distance ties toward the lower-indexed target; far below any
# meaningful distance difference.
TIE_EPS = 1e-12


@dataclass(frozen=True)
class LabeledPoint:
    id: str
    lon: float
    lat: float

    def __post_init__(self):
        checked_finite(self.lon, f"point {self.id}: lon")
        checked_finite(self.lat, f"point {self.id}: lat")


@dataclass(frozen=True)
class PointSet:
    points: tuple[LabeledPoint, ...]

    def __post_init__(self):
        seen = set()
        for p in self.points:
            if p.id in seen:
                raise ValueError(f"duplicate point id {p.id}")
            seen.add(p.id)

    def __len__(self) -> int:
        return len(self.points)


def distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle kilometers between (lon, lat) pairs on a spherical earth."""
    for _, lat in (a, b):
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude {lat} outside [-90, 90]")
    lon1, lat1 = math.radians(a[0]), math.radians(a[1])
    lon2, lat2 = math.radians(b[0]), math.radians(b[1])
    s = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(
        (lon2 - lon1) / 2
    ) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def assignment_lp_vertex(source: PointSet, targets: PointSet) -> np.ndarray:
    """Raw LP-relaxation vertex of the assignment, shape (|A|, |B|).

    The constraint matrix is totally unimodular, so simplex lands on a 0/1
    vertex despite the integrality relaxation.
    """
    na, nb = len(source), len(targets)
    if nb < na:
        raise ValueError(f"infeasible: {na} sources but only {nb} targets")

    cost = np.empty(na * nb)
    for i, a in enumerate(source.points):
        for j, b in enumerate(targets.points):
            cost[i * nb + j] = distance((a.lon, a.lat), (b.lon, b.lat)) + TIE_EPS * j

    rows_i, rows_j, rows_v = [], [], []
    senses, rhs = [], []
    for i in range(na):  # every source assigned at least once
        for j in range(nb):
            rows_i.append(i)
            rows_j.append(i * nb + j)
            rows_v.append(1.0)
        senses.append("G")
        rhs.append(1.0)
    for j in range(nb):  # every target used at most once
        for i in range(na):
            rows_i.append(na + j)
            rows_j.append(i * nb + j)
            rows_v.append(1.0)
        senses.append("L")
        rhs.append(1.0)
    A = sp.csc_matrix((rows_v, (rows_i, rows_j)), shape=(na + nb, na * nb))

    res = simplex.solve_linear_program(
        cost, A, senses, np.array(rhs), np.zeros(na * nb), np.ones(na * nb)
    )
    if res.status != simplex.STATUS_OPTIMAL:
        raise RuntimeError(f"assignment LP terminated {res.status}")
    return res.x.reshape(na, nb)


def remap(source: PointSet, targets: PointSet) -> tuple[dict[str, str], dict[str, float]]:
    """Assign every source point its own target, minimizing total distance.

    Requires at least as many targets as sources.  Returns the mapping and
    each source's distance to its target (without tie-break perturbations),
    both in source order.
    """
    x = assignment_lp_vertex(source, targets)

    # An empty source set has the empty mapping as its optimum.
    off = np.abs(x - np.round(x)).max(initial=0.0)
    if off > INTEGRALITY_TOL:
        raise RuntimeError(f"assignment LP returned a fractional vertex (max offset {off:.2e})")

    mapping: dict[str, str] = {}
    distances: dict[str, float] = {}
    for i, a in enumerate(source.points):
        chosen = np.flatnonzero(x[i] > 0.5)
        if len(chosen) != 1:
            raise RuntimeError(f"source {a.id} assigned {len(chosen)} targets")
        b = targets.points[chosen[0]]
        mapping[a.id] = b.id
        distances[a.id] = distance((a.lon, a.lat), (b.lon, b.lat))
    return mapping, distances


def read_points_csv(path) -> PointSet:
    """CSV with header id,lon,lat and three fields on every row."""
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != ["id", "lon", "lat"]:
            raise ValueError(f"{path}: expected header id,lon,lat")
        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {reader.line_num}: expected 3 fields, got {len(row)}")
            points.append(LabeledPoint(row[0], float(row[1]), float(row[2])))
    return PointSet(tuple(points))


def write_mapping_csv(mapping: dict[str, str], costs: dict[str, float], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source_id", "target_id", "distance_km"])
        for src in sorted(mapping):
            writer.writerow([src, mapping[src], repr(costs[src])])
