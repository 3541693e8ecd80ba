import itertools

import numpy as np
import pytest

from floodmit.geo_remap import (
    LabeledPoint,
    PointSet,
    distance,
    read_points_csv,
    remap,
    write_mapping_csv,
)


def _points(*coords, prefix="p"):
    return PointSet(tuple(LabeledPoint(f"{prefix}{i}", lon, lat) for i, (lon, lat) in enumerate(coords)))


def test_distance_identical_points():
    assert distance((-95.3, 29.1), (-95.3, 29.1)) == 0.0


def test_distance_antipodal():
    # Half the sphere's circumference, frozen from pi * radius.
    assert distance((0.0, 0.0), (180.0, 0.0)) == pytest.approx(20015.086796020572, abs=1e-6)


def test_distance_one_degree_meridian():
    # radius * pi / 180, computed by hand.
    assert distance((0.0, 0.0), (0.0, 1.0)) == pytest.approx(111.19492664455873, abs=1e-9)


def test_distance_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = (float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
        b = (float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
        assert distance(a, b) == pytest.approx(distance(b, a), abs=1e-12)
        assert distance(a, b) >= 0


def test_distance_latitude_guard():
    with pytest.raises(ValueError, match="latitude"):
        distance((0.0, 91.0), (0.0, 0.0))


def test_identity_mapping_when_sets_coincide():
    pts = [(-95.0, 29.0), (-96.1, 28.4), (-94.3, 29.7)]
    A = _points(*pts, prefix="a")
    B = _points(*pts, prefix="b")
    mapping, total = remap(A, B)
    assert mapping == {"a0": "b0", "a1": "b1", "a2": "b2"}
    assert total == pytest.approx(0.0, abs=1e-9)


def test_single_source_takes_nearest_target():
    A = _points((-95.0, 29.0), prefix="a")
    B = _points((-97.0, 27.0), (-95.1, 29.05), (-94.0, 30.0), prefix="b")
    mapping, total = remap(A, B)
    assert mapping == {"a0": "b1"}
    assert total == pytest.approx(distance((-95.0, 29.0), (-95.1, 29.05)))


def test_infeasible_when_targets_scarce():
    A = _points((0, 0), (1, 1), prefix="a")
    B = _points((0, 0), prefix="b")
    with pytest.raises(ValueError, match="infeasible"):
        remap(A, B)



@pytest.mark.parametrize("n_targets", [1, 0], ids=["one-target", "no-targets"])
def test_empty_source_set_maps_to_nothing(n_targets):
    """The empty mapping is the optimum for no sources, whatever the targets."""
    B = _points(*[(-95.0, 29.0)] * n_targets, prefix="b")
    assert remap(PointSet(()), B) == ({}, 0.0)

def _brute_force(A, B):
    best = None
    na = len(A.points)
    for perm in itertools.permutations(range(len(B.points)), na):
        cost = sum(
            distance((a.lon, a.lat), (B.points[j].lon, B.points[j].lat))
            for a, j in zip(A.points, perm)
        )
        if best is None or cost < best[0] - 1e-12:
            best = (cost, perm)
    return best


@pytest.mark.parametrize("na,nb,trials", [(3, 4, 40), (5, 8, 25)])
def test_random_instances_match_injection_enumeration(na, nb, trials):
    rng = np.random.default_rng(123 + na)
    for _ in range(trials):
        A = _points(*[(float(rng.uniform(-99, -93)), float(rng.uniform(26, 31))) for _ in range(na)], prefix="a")
        B = _points(*[(float(rng.uniform(-99, -93)), float(rng.uniform(26, 31))) for _ in range(nb)], prefix="b")
        mapping, total = remap(A, B)
        assert len(set(mapping.values())) == na  # injective
        oracle_cost, _ = _brute_force(A, B)
        assert total == pytest.approx(oracle_cost, abs=1e-7)


def test_optimum_no_worse_than_greedy_nearest():
    rng = np.random.default_rng(9)
    for _ in range(30):
        na, nb = int(rng.integers(2, 6)), int(rng.integers(6, 9))
        A = _points(*[(float(rng.uniform(-99, -93)), float(rng.uniform(26, 31))) for _ in range(na)], prefix="a")
        B = _points(*[(float(rng.uniform(-99, -93)), float(rng.uniform(26, 31))) for _ in range(nb)], prefix="b")
        _, total = remap(A, B)
        taken = set()
        greedy_total = 0.0
        for a in A.points:
            best = min(
                (distance((a.lon, a.lat), (b.lon, b.lat)), b.id)
                for b in B.points
                if b.id not in taken
            )
            taken.add(best[1])
            greedy_total += best[0]
        assert total <= greedy_total + 1e-9


def test_zero_distance_tie_breaks_to_lower_index():
    A = _points((10.0, 10.0), prefix="a")
    B = PointSet(
        (
            LabeledPoint("b0", 10.0, 10.0),
            LabeledPoint("b1", 10.0, 10.0),  # exact duplicate location
        )
    )
    mapping, _ = remap(A, B)
    assert mapping == {"a0": "b0"}


def test_bundled_forecast_points_fixture(tmp_path):
    # Four forecast-perturbation landfall fixes near the upper Texas coast,
    # bundled to exercise the point-file format end to end.
    import pathlib

    src = pathlib.Path(__file__).parent / "data" / "forecast_points.csv"
    pts = read_points_csv(src)
    assert [p.id for p in pts.points] == ["f1", "f2", "f3", "f4"]
    assert pts.points[0].lat == pytest.approx(29.25)
    # Every fix sits within a degree of the others; remapping them onto a
    # denser target cloud stays injective and deterministic.
    rng = np.random.default_rng(2)
    targets = PointSet(tuple(
        LabeledPoint(f"t{j}", -95.25 + float(rng.uniform(-0.3, 0.3)),
                     29.1 + float(rng.uniform(-0.3, 0.3)))
        for j in range(8)
    ))
    m1, c1 = remap(pts, targets)
    m2, c2 = remap(pts, targets)
    assert m1 == m2 and c1 == c2
    assert len(set(m1.values())) == 4


def test_csv_round_trip(tmp_path):
    src = tmp_path / "a.csv"
    src.write_text("id,lon,lat\nx,-95.0,29.0\ny,-94.0,28.0\n", encoding="utf-8")
    pts = read_points_csv(src)
    assert [p.id for p in pts.points] == ["x", "y"]
    out = tmp_path / "map.csv"
    write_mapping_csv({"x": "b", "y": "c"}, {"x": 1.25, "y": 0.0}, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "source_id,target_id,distance_km"
    assert lines[1].startswith("x,b,")


def test_csv_header_enforced(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,x,y\nq,1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected header"):
        read_points_csv(bad)
