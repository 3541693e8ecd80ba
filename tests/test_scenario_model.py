import numpy as np
import pytest

from floodmit.scenario_model import (
    DepthThresholds,
    FloodScenario,
    FloodScenarioSet,
    STANDARD_THRESHOLDS,
    ScenarioFormatError,
    depth_to_level,
    level_to_indicators,
    load_scenarios,
    save_scenarios,
    scenario_set_from_dict,
)

T = STANDARD_THRESHOLDS  # one barrier ring holds 0.534 m, two hold 1 m, three 1.464 m


def test_thresholds_must_increase():
    with pytest.raises(ValueError):
        DepthThresholds((0.5, 0.5))
    with pytest.raises(ValueError):
        DepthThresholds((0.5, 0.4))
    with pytest.raises(ValueError):
        DepthThresholds(())


def test_depth_zero_is_dry():
    assert depth_to_level(0.0, T) == 0


def test_depth_in_second_band():
    # 0.9 m: one ring is not enough, two rings are enough and not excessive.
    assert depth_to_level(0.9, T) == 2


def test_depth_beyond_top_threshold():
    assert depth_to_level(1.5, T) == 4  # no stack holds it


def test_depth_exactly_at_threshold_maps_low():
    assert depth_to_level(0.534, T) == 1
    assert depth_to_level(1.0, T) == 2
    assert depth_to_level(1.464, T) == 3


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        depth_to_level(-0.1, T)


@pytest.mark.parametrize(
    "level,count,expect",
    [
        (0, 3, (0, 0, 0)),
        (2, 3, (1, 1, 0)),
        (5, 3, (1, 1, 1)),
        (1, 1, (1,)),
    ],
)
def test_level_to_indicators(level, count, expect):
    assert level_to_indicators(level, count) == expect


def test_indicator_round_trip_monotone_in_depth():
    rng = np.random.default_rng(11)
    depths = np.sort(rng.uniform(0, 2.0, 200))
    rows = [level_to_indicators(depth_to_level(float(d), T), 3) for d in depths]
    for a, b in zip(rows, rows[1:]):
        assert all(x <= y for x, y in zip(a, b))


def _doc(probs, levels_list):
    return {
        "level_count": 3,
        "unattainable_level": 3,
        "scenarios": [
            {"id": f"w{i}", "probability": p, "levels": lv}
            for i, (p, lv) in enumerate(zip(probs, levels_list))
        ],
    }


def test_equiprobable_set_loads():
    doc = _doc([0.2] * 5, [{} for _ in range(5)])
    ss = scenario_set_from_dict(doc)
    assert len(ss.scenarios) == 5
    assert sum(ss.probabilities) == pytest.approx(1.0, abs=1e-12)


def test_probability_sum_strict_without_normalize():
    doc = _doc([0.4, 0.4], [{}, {}])
    with pytest.raises(ScenarioFormatError, match="sum"):
        scenario_set_from_dict(doc)
    ss = scenario_set_from_dict(doc, normalize=True)
    assert sum(ss.probabilities) == pytest.approx(1.0)


def test_substation_mismatch_against_network(tiny3):
    doc = _doc([1.0], [{"QQ": 1}])
    with pytest.raises(ScenarioFormatError, match="not present"):
        scenario_set_from_dict(doc, network=tiny3.network)
    ok = scenario_set_from_dict(_doc([1.0], [{"S1": 2}]), network=tiny3.network)
    assert ok.scenarios[0].level_of("S1") == 2
    assert ok.scenarios[0].level_of("S2") == 0  # omitted defaults dry


def test_duplicate_scenarios_permitted():
    doc = _doc([0.5, 0.5], [{"S1": 1}, {"S1": 1}])
    ss = scenario_set_from_dict(doc)
    assert ss.scenarios[0].levels == ss.scenarios[1].levels


def test_unknown_keys_rejected():
    doc = _doc([1.0], [{}])
    doc["extra"] = True
    with pytest.raises(ScenarioFormatError, match="unknown keys"):
        scenario_set_from_dict(doc)


def test_file_round_trip(tmp_path, star8):
    path = tmp_path / "scen.json"
    save_scenarios(star8.scenarios, path)
    again = load_scenarios(path, network=star8.network)
    assert again == star8.scenarios


def test_bad_unattainable_level():
    with pytest.raises(ValueError):
        FloodScenarioSet((FloodScenario("w", 1.0, {}),), level_count=3, unattainable_level=4)


INTEGER_FIELDS = {  # field: (set it, read it back, its name, a valid value, a fraction)
    "flood-level": (lambda doc, v: doc["scenarios"][0]["levels"].update(S1=v),
                    lambda ss: ss.scenarios[0].level_of("S1"), "scenario w0: flood level at S1", 2, 1.7),
    "level-count": (lambda doc, v: doc.update(level_count=v),
                    lambda ss: ss.level_count, "scenario file: level_count", 4, 3.8),
    "unattainable-level": (lambda doc, v: doc.update(unattainable_level=v),
                           lambda ss: ss.unattainable_level, "scenario file: unattainable_level", 2, 1.7),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_reject_fractions_and_booleans(field):
    """An integer field reads 2 and 2.0 alike, and rejects a fraction and
    ``true`` with a message that names the field instead of truncating."""
    put, get, what, valid, fraction = INTEGER_FIELDS[field]
    for value in (valid, float(valid)):
        doc = _doc([1.0], [{}])
        put(doc, value)
        assert get(scenario_set_from_dict(doc)) == valid
    for value, complaint in ((fraction, f"must be an integer, not {fraction}"), (True, "must be a number, not True")):
        doc = _doc([1.0], [{}])
        put(doc, value)
        with pytest.raises(ScenarioFormatError, match=f"{what} {complaint}"):
            scenario_set_from_dict(doc)
