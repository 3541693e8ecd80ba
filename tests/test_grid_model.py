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
    sizes = sum(len(v) for v in net.substation_buses.values())
    assert sizes == len(net.buses)
    assert net.total_load == pytest.approx(sum(b.p_load for b in net.buses))


def test_incident_branches_isolated_bus():
    net = _net(
        [Bus("A", "S", is_reference=True), Bus("B", "S")],
        [],
        [Substation("S", "115_161")],
    )
    assert net.branches_at_bus["B"] == ()


def test_incident_branches_star_center(star8):
    # B0 is the hub: five spokes leave it.
    assert set(star8.network.branches_at_bus["B0"]) == {"L0", "L1", "L2", "L3", "L4"}


def test_incident_branches_three_cycle():
    net = _net(
        [Bus("A", "S", is_reference=True), Bus("B", "S"), Bus("C", "S")],
        [
            Branch("e1", "A", "B", susceptance=1.0, flow_limit=1.0),
            Branch("e2", "B", "C", susceptance=1.0, flow_limit=1.0),
            Branch("e3", "C", "A", susceptance=1.0, flow_limit=1.0),
        ],
        [Substation("S", "115_161")],
    )
    # Enumerate the cycle edges by hand: each vertex touches exactly two.
    assert set(net.branches_at_bus["A"]) == {"e1", "e3"}
    assert set(net.branches_at_bus["B"]) == {"e1", "e2"}
    assert set(net.branches_at_bus["C"]) == {"e2", "e3"}


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
