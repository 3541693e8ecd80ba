import json
from statistics import NormalDist

import numpy as np
import pytest

from floodmit.fixtures import COASTAL40_COASTLINE
from floodmit.scenario_gen import (
    Coastline,
    InundationKernel,
    LandfallDistribution,
    generate_scenarios,
    load_coastline,
    save_coastline,
    sigma_from_cone,
    stratified_landfalls,
    track_distance_km,
)
from floodmit.scenario_model import STANDARD_THRESHOLDS, scenario_set_to_dict

# Frozen with an independent oracle: Simpson quadrature of the normal pdf
# plus bisection gives the 5/6 quantile 0.9674215661017083.
SIGMA_89 = 91.99712216322779
SIGMA_1 = 1.0336755299239078


def test_sigma_from_cone_frozen_values():
    assert sigma_from_cone(89.0) == pytest.approx(SIGMA_89, abs=1e-6)
    assert sigma_from_cone(1.0) == pytest.approx(SIGMA_1, abs=1e-9)


def test_sigma_scales_linearly():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = float(rng.uniform(0.1, 200))
        assert sigma_from_cone(2 * c) == pytest.approx(2 * sigma_from_cone(c), rel=1e-12)


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma_from_cone(0.0)


def test_two_thirds_mass_inside_cone():
    sigma = sigma_from_cone(89.0)
    mass = NormalDist().cdf(89.0 / sigma) - NormalDist().cdf(-89.0 / sigma)
    assert mass == pytest.approx(2.0 / 3.0, abs=1e-12)


def _straight_coastline(n=6, step_deg=1.0):
    return Coastline(tuple((0.0 + i * step_deg, 0.0) for i in range(n)))


def test_coastline_validation():
    with pytest.raises(ValueError):
        Coastline(((0.0, 0.0),))
    with pytest.raises(ValueError):
        Coastline(((0.0, 0.0), (0.0, 0.0)))


def test_point_at_arc_interpolates_and_clamps():
    line = _straight_coastline()
    total = line.total_length_km
    lon_mid, lat_mid = line.point_at_arc(total / 2)
    assert lat_mid == pytest.approx(0.0, abs=1e-12)
    assert lon_mid == pytest.approx(2.5, abs=1e-9)  # halfway along five segments
    assert line.point_at_arc(-5.0) == line.vertices[0]
    assert line.point_at_arc(total + 5.0) == line.vertices[-1]


def test_stratified_one_sample_per_stratum():
    line = _straight_coastline(8)
    dist = LandfallDistribution(line, mean_arc_km=line.total_length_km / 2, cone_radius_nmi=89.0)
    for count in (1, 5, 25):
        samples = stratified_landfalls(dist, count, seed=11)
        assert len(samples) == count
        sigma = dist.sigma_km
        for i, s in enumerate(samples):
            # Unclamped samples must map back into stratum (i/count, (i+1)/count).
            if 0.0 < s < line.total_length_km:
                u = NormalDist().cdf((s - dist.mean_arc_km) / sigma)
                assert i / count <= u <= (i + 1) / count, (i, u)


def test_stratified_deterministic_and_seed_sensitive():
    line = _straight_coastline(8)
    dist = LandfallDistribution(line, mean_arc_km=300.0, cone_radius_nmi=89.0)
    a = stratified_landfalls(dist, 25, seed=3)
    b = stratified_landfalls(dist, 25, seed=3)
    c = stratified_landfalls(dist, 25, seed=4)
    assert a == b
    assert a != c


def test_stratified_count_guard():
    line = _straight_coastline()
    dist = LandfallDistribution(line, mean_arc_km=100.0, cone_radius_nmi=89.0)
    with pytest.raises(ValueError):
        stratified_landfalls(dist, 0, seed=1)


def test_empirical_two_thirds_calibration():
    # Monte Carlo against sigma_from_cone: plain (unstratified) normal draws.
    rng = np.random.default_rng(314159)
    sigma = sigma_from_cone(89.0)
    draws = rng.normal(0.0, sigma, 10_000)
    frac = float(np.mean(np.abs(draws) <= 89.0))
    assert abs(frac - 2.0 / 3.0) <= 0.02


def test_track_distance_zero_on_track():
    assert track_distance_km((-95.0, 28.0), 40.0, (-95.0, 28.0)) == 0.0


def test_track_distance_symmetry_across_track():
    # Track due north along a meridian: points east and west at equal offsets
    # sit at equal distances.
    d_e = track_distance_km((-95.0, 28.0), 0.0, (-94.5, 28.3))
    d_w = track_distance_km((-95.0, 28.0), 0.0, (-95.5, 28.3))
    assert d_e == pytest.approx(d_w, rel=1e-6)


def test_kernel_validation_and_decay():
    with pytest.raises(ValueError):
        InundationKernel(peak_depth_m=-1.0, decay_km=10.0)
    with pytest.raises(ValueError):
        InundationKernel(peak_depth_m=1.0, decay_km=0.0)
    k = InundationKernel(peak_depth_m=1.0, decay_km=10.0)
    assert k.depth_at(0.0) == 1.0
    assert k.depth_at(10.0) == pytest.approx(0.5)
    ds = np.linspace(0, 200, 100)
    depths = [k.depth_at(float(d)) for d in ds]
    assert all(a >= b for a, b in zip(depths, depths[1:]))  # nonincreasing


def test_generate_requires_coordinates(tiny3):
    line = _straight_coastline()
    dist = LandfallDistribution(line, 100.0, 89.0)
    kernel = InundationKernel(0.9, 30.0)
    with pytest.raises(ValueError, match="coordinates"):
        generate_scenarios(tiny3.network, dist, kernel, STANDARD_THRESHOLDS, 3, 1)


def test_generate_zero_peak_all_dry(star8):
    line = COASTAL40_COASTLINE
    dist = LandfallDistribution(line, line.total_length_km / 2, 89.0)
    kernel = InundationKernel(0.0, 30.0)
    ss = generate_scenarios(star8.network, dist, kernel, STANDARD_THRESHOLDS, 4, 7)
    assert all(s.levels == {} for s in ss.scenarios)


def test_generate_on_track_substation_level(star8):
    # Put the landfall at a substation's exact location with a peak of 0.9 m:
    # level 2 protection is sufficient and not excessive there.
    sub = next(s for s in star8.network.substations if s.id == "S0")
    line = Coastline(((sub.lon, sub.lat), (sub.lon + 2.0, sub.lat)))
    dist = LandfallDistribution(line, 0.0, 0.001)  # essentially a point mass
    kernel = InundationKernel(0.9, 30.0, track_bearing_deg=90.0)
    ss = generate_scenarios(star8.network, dist, kernel, STANDARD_THRESHOLDS, 1, 5)
    assert ss.scenarios[0].level_of("S0") == 2


def test_generate_equiprobable_and_valid(coastal40):
    line = COASTAL40_COASTLINE
    dist = LandfallDistribution(line, line.total_length_km / 2, 89.0)
    kernel = InundationKernel(1.2, 35.0, track_bearing_deg=315.0)
    ss = generate_scenarios(coastal40.network, dist, kernel, STANDARD_THRESHOLDS, 25, 99)
    assert len(ss.scenarios) == 25
    assert all(s.probability == pytest.approx(1 / 25) for s in ss.scenarios)
    assert sum(ss.probabilities) == pytest.approx(1.0, abs=1e-9)
    # Depths are monotone in track distance, so levels never increase with it.
    s0 = ss.scenarios[0]
    landfall = None  # reconstruct: nearest substation has the highest level
    assert max(s0.levels.values()) <= STANDARD_THRESHOLDS.level_count + 1


def test_generate_deterministic_byte_for_byte(coastal40, tmp_path):
    line = COASTAL40_COASTLINE
    dist = LandfallDistribution(line, 300.0, 89.0)
    kernel = InundationKernel(1.0, 40.0, track_bearing_deg=300.0)
    a = generate_scenarios(coastal40.network, dist, kernel, STANDARD_THRESHOLDS, 10, 42)
    b = generate_scenarios(coastal40.network, dist, kernel, STANDARD_THRESHOLDS, 10, 42)
    assert json.dumps(scenario_set_to_dict(a), sort_keys=True) == json.dumps(
        scenario_set_to_dict(b), sort_keys=True
    )


def test_coastline_file_round_trip(tmp_path):
    path = tmp_path / "coast.json"
    save_coastline(COASTAL40_COASTLINE, path)
    again = load_coastline(path)
    assert again == COASTAL40_COASTLINE
    path.write_text('{"vertices": [[0,0],[1,1]], "name": "x"}', encoding="utf-8")
    with pytest.raises(ValueError, match="unknown keys"):
        load_coastline(path)
