"""Tests for the network model, file formats, and generation recipes."""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
import pytest

from dcots.cli import main
from dcots.network import (
    augment_with_cycle,
    build_network,
    parse_matpower,
    parse_native,
    perturb_loads,
    relocate_generators,
    serialize_native,
    validate,
)

NATIVE_DOC = {
    "base_mva": 100.0,
    "buses": [
        {"id": 0, "load_mw": 0.0},
        {"id": 1, "load_mw": 30.0},
        {"id": 2, "load_mw": 70.0},
    ],
    "generators": [
        {"bus": 0, "pmin_mw": 0.0, "pmax_mw": 200.0, "cost_per_mwh": 40.0},
    ],
    "lines": [
        {"id": 0, "from": 0, "to": 1, "susceptance_pu": 10.0,
         "capacity_mw": 100.0, "switchable": True},
        {"id": 1, "from": 1, "to": 2, "susceptance_pu": 5.0,
         "capacity_mw": 80.0, "switchable": True},
        {"id": 2, "from": 0, "to": 2, "susceptance_pu": 8.0,
         "capacity_mw": 120.0, "switchable": False},
    ],
}

MATPOWER_2BUS = """\
function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
%% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
mpc.bus = [
    1  3  0    0 0 0 1 1 0 230 1 1.1 0.9;
    2  1  150  0 0 0 1 1 0 230 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 0 0 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
    1 2 0.01 0.1 0 100 0 0 0 0 1 -360 360;
];
mpc.gencost = [
    2 0 0 2 40 0;
];
"""


def triangle():
    return build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 1.0)],
    )


def test_parse_native_per_unit_conversion():
    net = parse_native(json.dumps(NATIVE_DOC))
    assert net.base_mva == 100.0
    assert net.buses[2].load == 0.7
    assert net.generators[0].p_max == 2.0
    assert net.generators[0].cost == 4000.0
    assert net.lines[1].capacity == 0.8
    assert net.lines[1].susceptance == 5.0
    assert net.lines[2].switchable is False
    assert net.lines[0].w == pytest.approx(0.1)


def test_native_round_trip_is_exact():
    net = parse_native(json.dumps(NATIVE_DOC))
    again = parse_native(serialize_native(net))
    assert again == net


def test_native_round_trip_built_base_one():
    net = triangle()
    assert parse_native(serialize_native(net)) == net


def test_parse_native_rejects_unknown_key():
    doc = json.loads(json.dumps(NATIVE_DOC))
    doc["lines"][1]["suceptance_pu"] = doc["lines"][1].pop("susceptance_pu")
    with pytest.raises(ValueError, match=r"lines\[1\]"):
        parse_native(doc)


def test_parse_native_rejects_missing_key():
    doc = json.loads(json.dumps(NATIVE_DOC))
    del doc["buses"][0]["load_mw"]
    with pytest.raises(ValueError, match=r"buses\[0\].*load_mw"):
        parse_native(doc)


def test_parse_matpower_two_bus():
    net = parse_matpower(MATPOWER_2BUS)
    assert net.base_mva == 100.0
    assert [b.id for b in net.buses] == [1, 2]
    assert net.buses[1].load == 1.5
    (gen,) = net.generators
    assert gen.bus == 1 and gen.p_max == 2.0 and gen.p_min == 0.0
    assert gen.cost == 40.0 * 100.0
    (ln,) = net.lines
    assert ln.susceptance == pytest.approx(10.0)  # 1 / x with x = 0.1
    assert ln.capacity == pytest.approx(1.0)      # rateA / baseMVA
    assert ln.switchable


def test_parse_matpower_drops_out_of_service():
    text = MATPOWER_2BUS.replace(
        "1 2 0.01 0.1 0 100 0 0 0 0 1 -360 360;",
        "1 2 0.01 0.1 0 100 0 0 0 0 1 -360 360;\n"
        "    1 2 0.02 0.2 0 100 0 0 0 0 0 -360 360;",
    )
    net = parse_matpower(text)
    assert len(net.lines) == 1
    assert [ln.id for ln in net.lines] == [0]


def test_parse_matpower_rejects_zero_rate_a():
    text = MATPOWER_2BUS.replace("0.1 0 100", "0.1 0 0")
    with pytest.raises(ValueError, match="RATE_A"):
        parse_matpower(text)


def test_parse_matpower_rejects_quadratic_cost():
    text = MATPOWER_2BUS.replace("2 0 0 2 40 0;", "2 0 0 3 1 40 0;")
    with pytest.raises(ValueError, match="not linear"):
        parse_matpower(text)


def test_parse_matpower_drops_out_of_service_generators_with_their_costs():
    text = MATPOWER_2BUS.replace(
        "    1 0 0 0 0 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;",
        "    1 0 0 0 0 1 100 0 500 0 0 0 0 0 0 0 0 0 0 0 0;\n"
        "    1 0 0 0 0 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;",
    ).replace("    2 0 0 2 40 0;", "    2 0 0 3 1 7 0;\n    2 0 0 2 40 0;")
    (gen,) = parse_matpower(text).generators
    assert gen.bus == 1 and gen.p_max == 2.0
    assert gen.cost == 40.0 * 100.0


def test_parse_matpower_divides_reactance_by_tap():
    text = MATPOWER_2BUS.replace("0.1 0 100 0 0 0 0 1", "0.1 0 100 0 0 1.25 0 1")
    (ln,) = parse_matpower(text).lines
    assert ln.susceptance == pytest.approx(1.0 / (0.1 * 1.25))


def test_parse_matpower_rejects_phase_shift(tmp_path, capsys):
    text = MATPOWER_2BUS.replace("0.1 0 100 0 0 0 0 1", "0.1 0 100 0 0 0 -2.5 1")
    with pytest.raises(ValueError, match=r"branch\[0\]: phase shift SHIFT=-2.5"):
        parse_matpower(text)
    path = tmp_path / "shifted.m"
    path.write_text(text)
    assert main(["solve", str(path)]) == 4
    assert "SHIFT" in capsys.readouterr().err


def test_validate_accepts_triangle():
    report = validate(triangle())
    assert report.ok
    assert report.problems == ()


def test_validate_flags_problems():
    net = build_network(
        buses=[(0, 0.0), (0, 1.0), (2, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0), (0, 0.0, 1.0, 2.0), (9, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 2, -1.0, 1.0), (0, 0, 7, 1.0, 0.0), (2, 2, 2, 1.0, 1.0)],
    )
    report = validate(net)
    assert not report.ok
    joined = "\n".join(report.problems)
    assert "duplicate bus ids" in joined
    assert "duplicate line ids" in joined
    assert "susceptance" in joined
    assert "capacity" in joined
    assert "endpoint" in joined
    assert "self-loop" in joined
    assert "more than one generator" in joined
    assert "unknown bus 9" in joined


def test_validate_flags_disconnected():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 2, 3, 1.0, 1.0)],
    )
    report = validate(net)
    assert not report.ok
    assert any("not connected" in p for p in report.problems)


def test_perturb_loads_deterministic_and_bounded():
    net = parse_native(json.dumps(NATIVE_DOC))
    a = perturb_loads(net, -5, 5, seed=7)
    b = perturb_loads(net, -5, 5, seed=7)
    c = perturb_loads(net, -5, 5, seed=8)
    assert a == b
    assert a != c
    for old, new in zip(net.buses, a.buses):
        delta = new.load_mw - old.load_mw
        assert delta == int(delta)
        assert -5 <= delta <= 5
        assert new.load == new.load_mw / net.base_mva


def test_augment_triangle_closes_triangle():
    net = augment_with_cycle(triangle(), cycle_len=3, n_lines=1, seed=3)
    assert len(net.lines) == 4
    new = net.lines[-1]
    assert new.id == 3
    assert new.capacity == pytest.approx(0.3)
    assert new.susceptance in {ln.susceptance for ln in triangle().lines}
    # endpoints admit a two-line path in the original triangle
    g = nx.MultiGraph((ln.from_bus, ln.to_bus) for ln in triangle().lines)
    paths = [p for p in nx.all_simple_paths(g, new.from_bus, new.to_bus, cutoff=2)
             if len(p) == 3]
    assert paths


def test_augment_path_graph_joins_the_ends():
    net = build_network(
        buses=[(i, 0.0) for i in range(6)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(i, i, i + 1, 1.0, 1.0) for i in range(5)],
    )
    out = augment_with_cycle(net, cycle_len=6, n_lines=1, seed=0)
    new = out.lines[-1]
    assert {new.from_bus, new.to_bus} == {0, 5}


def test_augment_impossible_length_raises():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0)],
    )
    with pytest.raises(ValueError, match="length 5"):
        augment_with_cycle(net, cycle_len=5, n_lines=1, seed=0)


def test_augment_two_bus_parallel_line():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 2.0, 1.0)],
    )
    out = augment_with_cycle(net, cycle_len=2, n_lines=1, seed=0)
    new = out.lines[-1]
    assert {new.from_bus, new.to_bus} == {0, 1}
    assert new.susceptance == 2.0


def test_relocate_generators_stays_or_moves_to_neighbor():
    net = parse_native(json.dumps(NATIVE_DOC))
    for seed in range(20):
        out = relocate_generators(net, seed=seed)
        (gen,) = out.generators
        assert gen.bus in {0, 1, 2}
        assert relocate_generators(net, seed=seed) == out


def test_relocate_generators_keeps_buses_distinct():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 1.0, 1.0), (1, 0.0, 1.0, 2.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 1.0)],
    )
    for seed in range(30):
        out = relocate_generators(net, seed=seed)
        spots = [g.bus for g in out.generators]
        assert len(set(spots)) == len(spots)
