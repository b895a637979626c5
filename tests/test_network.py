"""Tests for the network model, file formats, and generation recipes."""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcots.cli import main
from dcots.network import (
    MAX_MAGNITUDE,
    augment_with_cycle,
    build_network,
    parse_matpower,
    parse_native,
    perturb_loads,
    random_connected_network,
    relocate_generators,
    serialize_native,
    validate,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import ladder  # noqa: E402

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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), variant=st.sampled_from(["plain", "perturbed", "relocated"]))
def test_native_round_trip_of_random_networks(seed, variant):
    net = random_connected_network(seed)
    if variant == "perturbed":
        net = perturb_loads(net, -5, 5, seed=seed)
    elif variant == "relocated":
        net = relocate_generators(net, seed=seed)
    assert parse_native(serialize_native(net)) == net


@pytest.mark.parametrize("rows, cols", [(2, 4), (4, 4), (5, 5), (6, 6)])
def test_matpower_and_native_files_of_one_grid_parse_alike(rows, cols):
    for seed in range(3):
        inst = ladder.grid_instance(rows, cols, seed)
        assert parse_matpower(ladder.to_matpower(inst, "grid")) == \
            parse_native(ladder.to_native(inst))


@pytest.mark.parametrize("where, key, value, says", [
    ("lines", "switchable", "false", r"lines\[1\]: switchable must be bool, got 'false'"),
    ("lines", "switchable", 0, r"lines\[1\]: switchable must be bool, got 0"),
    ("lines", "id", 97.9, r"lines\[1\]: id must be int, got 97.9"),
    ("lines", "id", 1.0, r"lines\[1\]: id must be int, got 1.0"),
    ("lines", "id", "1", r"lines\[1\]: id must be int, got '1'"),
    ("lines", "id", True, r"lines\[1\]: id must be int, got True"),
    ("lines", "from", 1.5, r"lines\[1\]: from must be int, got 1.5"),
    ("lines", "to", "2", r"lines\[1\]: to must be int, got '2'"),
    ("buses", "id", 1.5, r"buses\[1\]: id must be int, got 1.5"),
    ("buses", "id", False, r"buses\[1\]: id must be int, got False"),
    ("generators", "bus", 0.5, r"generators\[0\]: bus must be int, got 0.5"),
    ("generators", "bus", "0", r"generators\[0\]: bus must be int, got '0'"),
])
def test_parse_native_rejects_ids_and_flags_of_the_wrong_type(where, key, value, says):
    doc = json.loads(json.dumps(NATIVE_DOC))
    doc[where][min(1, len(doc[where]) - 1)][key] = value
    with pytest.raises(ValueError, match=says):
        parse_native(json.dumps(doc))


@pytest.mark.parametrize("where, key, value, says", [
    (None, "base_mva", "100", r"document: base_mva must be a number, got '100'"),
    ("buses", "load_mw", "0.5", r"buses\[1\]: load_mw must be a number, got '0.5'"),
    ("generators", "pmin_mw", None, r"generators\[0\]: pmin_mw must be a number, got None"),
    ("generators", "pmax_mw", True, r"generators\[0\]: pmax_mw must be a number, got True"),
    ("generators", "cost_per_mwh", "40", r"generators\[0\]: cost_per_mwh must be a number, "
                                         r"got '40'"),
    ("lines", "susceptance_pu", "2", r"lines\[1\]: susceptance_pu must be a number, got '2'"),
    ("lines", "capacity_mw", True, r"lines\[1\]: capacity_mw must be a number, got True"),
    ("lines", "capacity_mw", 10**400, r"lines\[1\]: capacity_mw is too large for a float"),
])
def test_parse_native_rejects_numeric_fields_that_are_not_numbers(where, key, value, says):
    doc = json.loads(json.dumps(NATIVE_DOC))
    (doc if where is None else doc[where][min(1, len(doc[where]) - 1)])[key] = value
    with pytest.raises(ValueError, match=says):
        parse_native(json.dumps(doc))


def test_parse_native_takes_integers_and_floats_as_numbers():
    doc = json.loads(json.dumps(NATIVE_DOC))
    doc["base_mva"] = 100
    doc["lines"][1]["capacity_mw"] = 80
    net = parse_native(doc)
    assert net == parse_native(NATIVE_DOC)
    assert type(net.base_mva) is float and type(net.lines[1].capacity_mw) is float


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


@pytest.mark.parametrize("old, new, says", [
    ("    2  1  150  0 0 0 1 1 0 230 1 1.1 0.9;", "    2  1;",
     r"bus\[1\]: needs at least 3 columns, got 2"),
    ("1 0 0 0 0 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;", "1 0 0 0 0 1 100 1 200;",
     r"gen\[0\]: needs at least 10 columns, got 9"),
    ("1 2 0.01 0.1 0 100 0 0 0 0 1 -360 360;", "1 2 0.01 0.1 0 100 0 0 0 0;",
     r"branch\[0\]: needs at least 11 columns, got 10"),
    ("2 0 0 2 40 0;", "2 0 0;", r"gencost\[0\]: needs at least 4 columns, got 3"),
    ("2 0 0 2 40 0;", "2 0 0 2 40;", r"gencost\[0\]: needs at least 6 columns, got 5"),
], ids=["bus", "gen", "branch", "gencost", "gencost-ncost"])
def test_parse_matpower_rejects_short_rows(old, new, says):
    assert old in MATPOWER_2BUS
    with pytest.raises(ValueError, match=says):
        parse_matpower(MATPOWER_2BUS.replace(old, new))


_BUS_1 = "    2  1  150  0 0 0 1 1 0 230 1 1.1 0.9;"
_GEN_0 = "    1 0 0 0 0 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;"
_BRANCH_0 = "    1 2 0.01 0.1 0 100 0 0 0 0 1 -360 360;"
_GENCOST_0 = "    2 0 0 2 40 0;"


def _with_columns(row: str, values: dict[int, str]) -> str:
    """MATPOWER_2BUS with the given columns of one of its rows replaced."""
    tokens = row.strip().rstrip(";").split()
    for col, value in values.items():
        tokens[col] = value
    return MATPOWER_2BUS.replace(row, "    " + " ".join(tokens) + ";")


# column -> (a row holding it, its index, the row's name in messages)
_INTEGER_COLUMNS = {"BUS_I": (_BUS_1, 0, "bus[1]"), "GEN_BUS": (_GEN_0, 0, "gen[0]"),
                    "F_BUS": (_BRANCH_0, 0, "branch[0]"), "T_BUS": (_BRANCH_0, 1, "branch[0]"),
                    "BR_STATUS": (_BRANCH_0, 10, "branch[0]"),
                    "MODEL": (_GENCOST_0, 0, "gencost[0]"), "NCOST": (_GENCOST_0, 3, "gencost[0]")}


@pytest.mark.parametrize("column, value", [
    ("BUS_I", "1.5"), ("BUS_I", "Inf"), ("GEN_BUS", "-Inf"), ("GEN_BUS", "NaN"),
    ("F_BUS", "Inf"), ("T_BUS", "2.5"), ("BR_STATUS", "0.5"), ("BR_STATUS", "Inf"),
    ("MODEL", "Inf"), ("NCOST", "Inf"), ("NCOST", "2.5"),
])
def test_parse_matpower_rejects_integer_columns_that_are_not_whole(column, value):
    # int() would truncate a fraction (BR_STATUS 0.5 dropped the branch) and
    # overflow on an infinity
    row, col, where = _INTEGER_COLUMNS[column]
    says = rf"^{re.escape(where)}: {column} must be an integer, got {float(value)}$"
    with pytest.raises(ValueError, match=says):
        parse_matpower(_with_columns(row, {col: value}))


def test_parse_matpower_takes_whole_numbers_written_as_floats():
    text = _with_columns(_BRANCH_0, {0: "1e0", 10: "1.0"})
    assert parse_matpower(text) == parse_matpower(MATPOWER_2BUS)


@pytest.mark.parametrize("x, tap", [("0.1", "-1.25"), ("1e-200", "1e-200")],
                         ids=["negative-tap", "underflow"])
def test_parse_matpower_rejects_a_reactance_times_tap_that_is_not_positive(x, tap):
    # 1e-200 * 1e-200 underflows to 0, and 1 / 0 raised ZeroDivisionError
    with pytest.raises(ValueError, match=rf"^branch\[0\]: BR_X \* TAP must be positive, "
                                         rf"got {x} \* {tap}$"):
        parse_matpower(_with_columns(_BRANCH_0, {3: x, 8: tap}))


@pytest.mark.parametrize("base", ["0", "-100", "1e400"])
def test_both_parsers_reject_a_base_that_is_not_positive_and_finite(base):
    says = rf"^base MVA must be positive and finite, got {float(base)}$"
    with pytest.raises(ValueError, match=says):
        parse_matpower(MATPOWER_2BUS.replace("mpc.baseMVA = 100;", f"mpc.baseMVA = {base};"))
    with pytest.raises(ValueError, match=says):
        parse_native({**NATIVE_DOC, "base_mva": float(base)})


def test_parse_native_reports_json_nested_too_deeply():
    with pytest.raises(ValueError, match="JSON nested too deeply to decode"):
        parse_native("[" * 200_000 + "]" * 200_000)


def test_parse_matpower_keeps_two_generators_at_one_bus():
    text = MATPOWER_2BUS.replace(
        "    1 0 0 0 0 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;",
        "    1 0 0 0 0 1 100 1 100 0 0 0 0 0 0 0 0 0 0 0 0;\n"
        "    1 0 0 0 0 1 100 1 200 0 0 0 0 0 0 0 0 0 0 0 0;",
    ).replace("    2 0 0 2 40 0;", "    2 0 0 2 20 0;\n    2 0 0 2 40 0;")
    net = parse_matpower(text)
    assert [(g.bus, g.p_max, g.cost) for g in net.generators] == [(1, 1.0, 2000.0),
                                                                  (1, 2.0, 4000.0)]
    assert validate(net).ok


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
    assert "unknown bus 9" in joined


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), -float("inf")])
def test_validate_flags_a_generator_cost_that_is_not_finite(cost):
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0), (2, 0.0, 2.0, cost)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 1.0)],
    )
    report = validate(net)
    assert report.problems == (f"generator at bus 2: cost must be finite, got {cost}",)


@pytest.mark.parametrize("field, says", [
    ("load", "bus 2: load 1e+13 per unit exceeds 1e+12"),
    ("p_max", "generator at bus 0: p_max 1e+13 per unit exceeds 1e+12"),
    ("cost", "generator at bus 0: cost -1e+13 per unit exceeds 1e+12"),
    ("capacity", "line 1: capacity 1e+308 per unit exceeds 1e+12"),
    ("susceptance", "line 1: susceptance 1e+13 per unit is outside [1e-12, 1e+12]"),
    ("reactance", "line 1: susceptance 1e-13 per unit is outside [1e-12, 1e+12]"),
])
def test_validate_flags_a_magnitude_beyond_the_bound(field, says):
    # such magnitudes overflow the big-M constants and objective terms
    load, p_max, cost, susceptance, capacity = 1.0, 2.0, 1.0, 1.0, 1.0
    if field == "load":
        load = 1e13
    elif field == "p_max":
        p_max = 1e13
    elif field == "cost":
        cost = -1e13
    elif field == "capacity":
        capacity = 1e308
    else:
        susceptance = 1e13 if field == "susceptance" else 1e-13
    edge = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, load)],
        generators=[(0, 0.0, p_max, cost)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, susceptance, capacity), (2, 0, 2, 1.0, 1.0)],
    )
    assert validate(edge).problems == (says,)
    within = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, MAX_MAGNITUDE)],
        generators=[(0, 0.0, MAX_MAGNITUDE, -MAX_MAGNITUDE)],
        lines=[(0, 0, 1, MAX_MAGNITUDE, MAX_MAGNITUDE), (1, 1, 2, 1.0 / MAX_MAGNITUDE, 1.0),
               (2, 0, 2, 1.0, 1.0)],
    )
    assert validate(within).ok


def test_validate_flags_disconnected():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 2, 3, 1.0, 1.0)],
    )
    report = validate(net)
    assert not report.ok
    assert any("not connected" in p for p in report.problems)


@pytest.mark.parametrize("seed", range(20))
def test_incident_lists_each_line_once_at_both_ends_in_line_order(seed):
    net = random_connected_network(seed, max_buses=9, max_extra_lines=4)
    assert list(net.incident) == [b.id for b in net.buses]
    for b in net.buses:
        assert net.incident[b.id] == tuple(ln for ln in net.lines
                                           if b.id in (ln.from_bus, ln.to_bus))
    assert sum(map(len, net.incident.values())) == 2 * len(net.lines)


def test_replace_gets_a_fresh_incident_map_and_equality_ignores_it():
    net = triangle()
    assert net.incident[2] == (net.lines[1], net.lines[2])
    cut = replace(net, lines=net.lines[:2])
    assert cut.incident[2] == (net.lines[1],)
    assert net.incident[2] == (net.lines[1], net.lines[2])
    twin = triangle()
    assert "incident" in vars(net) and "incident" not in vars(twin)
    assert twin == net and hash(twin) == hash(net)


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


def test_relocate_generators_moves_a_shared_bus_as_one_unit():
    path = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 1.0, 1.0), (0, 0.0, 1.0, 2.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0)],
    )
    spots = {seed: [g.bus for g in relocate_generators(path, seed=seed).generators]
             for seed in range(20)}
    assert all(a == b and a in {0, 1} for a, b in spots.values())
    assert {a for a, _ in spots.values()} == {0, 1}


def test_relocate_generators_three_at_one_bus_of_two():
    pair = build_network(
        buses=[(0, 0.0), (1, 1.0)],
        generators=[(0, 0.0, 1.0, 1.0), (0, 0.0, 1.0, 2.0), (0, 0.0, 1.0, 3.0)],
        lines=[(0, 0, 1, 1.0, 1.0)],
    )
    for seed in range(10):
        out = relocate_generators(pair, seed=seed)
        assert len({g.bus for g in out.generators}) == 1
        assert [g.cost for g in out.generators] == [g.cost for g in pair.generators]
