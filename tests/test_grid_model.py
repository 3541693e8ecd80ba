import dataclasses
import math

import pytest

from floodmit.grid_model import (
    Branch,
    Bus,
    GridNetwork,
    NetworkFormatError,
    Substation,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
    validate,
)


def _net(buses, branches, subs, **kw):
    return GridNetwork(buses=tuple(buses), branches=tuple(branches), substations=tuple(subs), **kw)


def test_validate_clean_fixture(tiny3):
    assert validate(tiny3.network) == []


def test_validate_multiple_reference_buses():
    net = _net(
        [
            Bus("A", "S", is_reference=True),
            Bus("B", "S", is_reference=True),
        ],
        [],
        [Substation("S", "115_161")],
    )
    assert any("multiple reference buses" in v for v in validate(net))


def test_validate_nonpositive_flow_limit():
    net = _net(
        [Bus("A", "S", is_reference=True), Bus("B", "S")],
        [Branch("L", "A", "B", susceptance=-5.0, flow_limit=0.0)],
        [Substation("S", "115_161")],
    )
    assert any("nonpositive flow limit" in v for v in validate(net))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("flow_limit", math.nan, "branch L: non-finite susceptance or flow limit"),
        ("susceptance", math.inf, "branch L: non-finite susceptance or flow limit"),
        ("angle_abs_max", math.inf, "network: non-finite angle limit"),
        ("angle_diff_max", math.nan, "network: non-finite angle limit"),
        ("base_mva", math.inf, "network: base_mva must be finite and positive"),
        ("base_mva", math.nan, "network: base_mva must be finite and positive"),
        ("base_mva", 0.0, "network: base_mva must be finite and positive"),
        ("base_mva", -100.0, "network: base_mva must be finite and positive"),
    ],
)
def test_validate_rejects_nonfinite_data(field, value, message):
    net = _net(
        [Bus("A", "S", is_reference=True), Bus("B", "S")],
        [Branch("L", "A", "B", susceptance=-5.0, flow_limit=1.0)],
        [Substation("S", "115_161")],
        base_mva=100.0,
    )
    assert validate(net) == []
    if field in ("susceptance", "flow_limit"):
        net = dataclasses.replace(net, branches=(dataclasses.replace(net.branches[0], **{field: value}),))
    else:
        net = dataclasses.replace(net, **{field: value})
    assert validate(net) == [message]


def test_validate_rejects_nonfinite_coordinates():
    # gen-scenarios would read a NaN longitude as a flood beyond every barrier.
    for lon in (math.nan, math.inf):
        net = _net([Bus("A", "S", is_reference=True)], [], [Substation("S", "115_161", lon=lon, lat=30.0)])
        assert validate(net) == ["substation S: non-finite coordinates"]


def test_validate_catches_assorted_breakage():
    net = _net(
        [
            Bus("A", "S", p_load=-1.0, p_gen_min=2.0, p_gen_max=1.0, is_reference=True),
            Bus("B", "missing"),
        ],
        [
            Branch("L", "A", "A", susceptance=0.0, flow_limit=1.0),
            Branch("L2", "A", "ghost", susceptance=1.0, flow_limit=1.0),
        ],
        [Substation("S", "115_161"), Substation("empty", "9000")],
        angle_abs_max=0.1,
        angle_diff_max=0.5,
    )
    msgs = validate(net)
    for needle in (
        "negative load",
        "lower bound exceeds upper",
        "unknown substation",
        "self loop",
        "zero susceptance",
        "unknown endpoint",
        "unknown voltage class",
        "substation empty: no buses",
        "angle difference limit exceeds",
    ):
        assert any(needle in m for m in msgs), (needle, msgs)


def test_substation_partition_and_totals(star8):
    net = star8.network
    assert {b.substation_id for b in net.buses} == {s.id for s in net.substations}
    assert net.total_load == pytest.approx(sum(b.p_load for b in net.buses))


def test_replaced_network_derives_its_own_views(star8):
    net = star8.network
    assert len(net.arrays.frm) == len(net.branches) and net.total_load > 0  # fill the original's caches
    buses = tuple(dataclasses.replace(b, p_load=2 * b.p_load) for b in net.buses)
    copy = dataclasses.replace(net, buses=buses, branches=net.branches[:-1])
    assert copy.arrays is not net.arrays
    assert len(copy.arrays.frm) == len(net.branches) - 1
    assert copy.arrays.load.tolist() == [b.p_load for b in buses]
    assert copy.total_load == pytest.approx(2 * net.total_load)


def test_network_file_round_trip(tmp_path, coastal40):
    path = tmp_path / "net.json"
    save_network(coastal40.network, path)
    again = load_network(path)
    assert again == coastal40.network
    assert validate(again) == []


def test_loader_rejects_unknown_keys(tmp_path, tiny3):
    doc = network_to_dict(tiny3.network)
    doc["surprise"] = 1
    with pytest.raises(NetworkFormatError, match="unknown keys"):
        network_from_dict(doc)
    doc.pop("surprise")
    doc["buses"][0]["shunt"] = 0.1
    with pytest.raises(NetworkFormatError, match="unknown keys"):
        network_from_dict(doc)


def test_loader_rejects_degenerate_branch(tmp_path, tiny3):
    doc = network_to_dict(tiny3.network)
    doc["branches"][0]["susceptance"] = 0.0
    with pytest.raises(NetworkFormatError, match="zero susceptance"):
        network_from_dict(doc)


def test_loader_rejects_non_boolean_reference(tiny3):
    doc = network_to_dict(tiny3.network)
    for value in ("false", 0, 1, None):
        doc["buses"][1]["reference"] = value
        with pytest.raises(NetworkFormatError, match=f"bus B2: reference must be true or false, not {value!r}"):
            network_from_dict(doc)
    doc["buses"][1]["reference"] = False
    assert not network_from_dict(doc).buses[1].is_reference


def test_loader_rejects_negative_gen_cap(tiny3):
    doc = network_to_dict(tiny3.network)
    doc["buses"][0]["gen_max"] = -1.0
    with pytest.raises(NetworkFormatError, match="negative generation"):
        network_from_dict(doc)


def test_angle_defaults_and_override(tmp_path, tiny3):
    doc = network_to_dict(tiny3.network)
    del doc["angle_limits"]
    net = network_from_dict(doc)
    assert net.angle_abs_max == pytest.approx(math.pi / 2)
    assert net.angle_diff_max == pytest.approx(math.pi / 6)
    doc["angle_limits"] = {"abs_max_rad": 1.0, "diff_max_rad": 0.2}
    net = network_from_dict(doc)
    assert (net.angle_abs_max, net.angle_diff_max) == (1.0, 0.2)
