"""Synthetic flooding scenarios from an uncertain landfall location.

The storm's landfall is normally distributed along a piecewise-linear
coastline, calibrated so the center falls within the forecast cone radius
with probability two thirds.  Landfalls are sampled by strata of equal
probability (one uniform draw inside each stratum, not the midpoint), which
makes the resulting scenarios equiprobable by construction.

Flood depths come from a SURROGATE inundation kernel, not a hydrologic
simulation: the depth is the kernel's peak halved every ``decay_km``
kilometers of great-circle distance between the substation and the straight
storm track through the landfall point.  It stands in for a streamflow model
only so that the pipeline is runnable end to end; its numbers carry no
physical meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .geo_remap import EARTH_RADIUS_KM, distance
from .grid_model import GridNetwork, checked_finite, checked_number, read_json, reject_unknown, write_json
from .scenario_model import DepthThresholds, FloodScenario, FloodScenarioSet, depth_to_level

KM_PER_NAUTICAL_MILE = 1.852
# Mass of a centered normal inside +-1 cone radius.
CONE_PROBABILITY = 2.0 / 3.0


@dataclass(frozen=True)
class Coastline:
    vertices: tuple[tuple[float, float], ...]  # (lon, lat)

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("coastline needs at least two vertices")
        for i, vertex in enumerate(self.vertices):
            for x in vertex:
                checked_finite(x, f"coastline vertex {i}")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a == b:
                raise ValueError("consecutive coastline vertices must differ")

    def segment_lengths_km(self) -> list[float]:
        return [distance(a, b) for a, b in zip(self.vertices, self.vertices[1:])]

    @property
    def total_length_km(self) -> float:
        return sum(self.segment_lengths_km())

    def point_at_arc(self, s_km: float) -> tuple[float, float]:
        """Point at arc position s (clamped), linear within each segment."""
        s = min(max(s_km, 0.0), self.total_length_km)
        for (a, b), seg in zip(
            zip(self.vertices, self.vertices[1:]), self.segment_lengths_km()
        ):
            if s <= seg or seg == 0.0:
                t = 0.0 if seg == 0.0 else s / seg
                return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
            s -= seg
        return self.vertices[-1]


@dataclass(frozen=True)
class LandfallDistribution:
    coastline: Coastline
    mean_arc_km: float
    cone_radius_nmi: float

    def __post_init__(self):
        checked_finite(self.cone_radius_nmi, "cone radius")
        if self.cone_radius_nmi <= 0:
            raise ValueError("cone radius must be positive")
        if not 0.0 <= self.mean_arc_km <= self.coastline.total_length_km:
            raise ValueError("mean landfall must lie on the coastline")

    @property
    def sigma_km(self) -> float:
        return sigma_from_cone(self.cone_radius_nmi) * KM_PER_NAUTICAL_MILE


@dataclass(frozen=True)
class InundationKernel:
    """Surrogate flood-depth field; NOT a hydrologic model (see module doc)."""

    peak_depth_m: float
    decay_km: float
    track_bearing_deg: float = 0.0

    def __post_init__(self):
        for name in ("peak_depth_m", "decay_km", "track_bearing_deg"):
            checked_finite(getattr(self, name), f"inundation kernel {name}")
        if self.peak_depth_m < 0:
            raise ValueError("peak depth must be nonnegative")
        if self.decay_km <= 0:
            raise ValueError("decay distance must be positive")

    def depth_at(self, track_distance_km: float) -> float:
        return self.peak_depth_m * 2.0 ** (-track_distance_km / self.decay_km)


def sigma_from_cone(cone_radius: float) -> float:
    """Standard deviation putting 2/3 of the mass within one cone radius.

    A centered normal lies in [-r, r] with probability 2*Phi(r/sigma) - 1, so
    sigma = r / Phi^{-1}(5/6).  Units follow the input.
    """
    if cone_radius <= 0:
        raise ValueError("cone radius must be positive")
    return cone_radius / NormalDist().inv_cdf(0.5 + CONE_PROBABILITY / 2.0)


def stratified_landfalls(
    dist: LandfallDistribution, count: int, seed: int
) -> list[float]:
    """One landfall arc position per equal-probability stratum.

    Draws uniformly within each stratum (midpoints would be a quadrature rule,
    a different method), maps through the normal quantile, and clamps to the
    coastline extent.  Output is ordered by stratum.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    u = (np.arange(count) + rng.random(count)) / count
    sigma = dist.sigma_km
    total = dist.coastline.total_length_km
    quantile = NormalDist().inv_cdf
    return [min(max(dist.mean_arc_km + sigma * quantile(float(ui)), 0.0), total) for ui in u]


def _bearing_rad(a: tuple[float, float], b: tuple[float, float]) -> float:
    lon1, lat1 = math.radians(a[0]), math.radians(a[1])
    lon2, lat2 = math.radians(b[0]), math.radians(b[1])
    dlon = lon2 - lon1
    y = math.sin(dlon) * math.cos(lat2)
    x = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon)
    return math.atan2(y, x)


def track_distance_km(
    landfall: tuple[float, float], bearing_deg: float, point: tuple[float, float]
) -> float:
    """Great-circle cross-track distance from a point to the storm track."""
    d13 = distance(landfall, point) / EARTH_RADIUS_KM
    if d13 == 0.0:
        return 0.0
    theta13 = _bearing_rad(landfall, point)
    theta12 = math.radians(bearing_deg)
    xt = math.asin(math.sin(d13) * math.sin(theta13 - theta12))
    return abs(xt) * EARTH_RADIUS_KM


def generate_scenarios(
    network: GridNetwork,
    dist: LandfallDistribution,
    kernel: InundationKernel,
    thresholds: DepthThresholds,
    count: int,
    seed: int,
) -> FloodScenarioSet:
    """Equiprobable flooding scenarios for sampled landfall locations.

    Every substation needs coordinates.  Identical inputs and seed reproduce
    the identical scenario set.
    """
    missing = [s.id for s in network.substations if s.coordinates is None]
    if missing:
        raise ValueError(f"substations without coordinates: {missing}")

    positions = stratified_landfalls(dist, count, seed)
    scenarios = []
    width = max(2, len(str(count - 1)))
    for i, pos in enumerate(positions):
        landfall = dist.coastline.point_at_arc(pos)
        levels: dict[str, int] = {}
        for sub in network.substations:
            d = track_distance_km(landfall, kernel.track_bearing_deg, sub.coordinates)
            level = depth_to_level(kernel.depth_at(d), thresholds)
            if level > 0:
                levels[sub.id] = level
        scenarios.append(
            FloodScenario(id=f"s{i:0{width}d}", probability=1.0 / count, levels=levels)
        )
    return FloodScenarioSet(
        scenarios=tuple(scenarios),
        level_count=thresholds.level_count,
        unattainable_level=thresholds.level_count,
    )


def load_coastline(path) -> Coastline:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("coastline document must be an object")
    reject_unknown(doc, {"vertices"}, "coastline file", ValueError)
    vertices = doc["vertices"]
    if not isinstance(vertices, list):
        raise ValueError("coastline file: vertices must be a list")
    points = []
    for i, v in enumerate(vertices):
        if not (isinstance(v, list) and len(v) == 2):
            raise ValueError(f"coastline file: vertex {i} must be a [lon, lat] pair")
        points.append(tuple(checked_number(float, x, f"coastline file: vertex {i}", ValueError) for x in v))
    return Coastline(tuple(points))


def save_coastline(coastline: Coastline, path) -> None:
    write_json({"vertices": coastline.vertices}, path)
