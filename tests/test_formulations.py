import numpy as np
import pytest

from dcots.cyclebasis import cycle_basis
from dcots.formulations import (
    add_switching_budget,
    build_opf_angle,
    build_opf_cycle,
    build_ots_angle,
    build_ots_cycle,
    bus_cover_rows,
    cycle_cut_rows,
)
from dcots.lp import solve
from dcots.network import build_network


def triangle():
    return build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 1.0)],
    )


def bottleneck_triangle():
    # direct line to the load too small for the 2/3 share it would carry
    return build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 0.1)],
    )


def _random_net(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    loads = [0.0] + [float(np.round(rng.uniform(0.0, 1.0), 3)) for _ in range(n - 1)]
    total = sum(loads)
    gens = [
        (0, 0.0, 0.7 * total + 0.1, 1.0),
        (n - 1, 0.0, total + 1.0, float(np.round(rng.uniform(2.0, 5.0), 3))),
    ]
    lines = []
    for b in range(1, n):
        lines.append((len(lines), int(rng.integers(0, b)), b,
                      float(np.round(rng.uniform(0.5, 3.0), 3)),
                      float(np.round(rng.uniform(0.3 * total + 0.1, total + 0.5), 3))))
    for _ in range(int(rng.integers(0, 3))):
        u, v = rng.choice(n, size=2, replace=False)
        lines.append((len(lines), int(u), int(v),
                      float(np.round(rng.uniform(0.5, 3.0), 3)),
                      float(np.round(rng.uniform(0.3 * total + 0.1, total + 0.5), 3))))
    return build_network(buses=list(enumerate(loads)), generators=gens, lines=lines)


def _flows(sol, vmap, net):
    return [sol.x[vmap.flow[ln.id]] for ln in net.lines]


def test_opf_angle_triangle_flow_split():
    net = triangle()
    lp, vmap = build_opf_angle(net)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(1.0, abs=1e-9)
    assert _flows(sol, vmap, net) == pytest.approx([1 / 3, 1 / 3, 2 / 3], abs=1e-9)
    theta = [sol.x[vmap.theta[b]] for b in (0, 1, 2)]
    assert theta == pytest.approx([0.0, -1 / 3, -2 / 3], abs=1e-9)


def test_opf_cycle_triangle_matches_angle():
    net = triangle()
    lp, vmap = build_opf_cycle(net, cycle_basis(net))
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(1.0, abs=1e-9)
    assert _flows(sol, vmap, net) == pytest.approx([1 / 3, 1 / 3, 2 / 3], abs=1e-9)


def test_opf_cycle_on_tree_needs_no_cycle_rows():
    net = build_network(
        buses=[(0, 0.0), (1, 0.5), (2, 0.5)],
        generators=[(0, 0.0, 2.0, 3.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0)],
    )
    basis = cycle_basis(net)
    assert len(basis) == 0
    sol = solve(build_opf_cycle(net, basis)[0])
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(3.0, abs=1e-9)


def test_opf_angle_and_cycle_agree_on_random_networks():
    n_optimal = 0
    for seed in range(30):
        net = _random_net(seed)
        sol_a = solve(build_opf_angle(net)[0])
        sol_c = solve(build_opf_cycle(net, cycle_basis(net))[0])
        assert sol_a.status == sol_c.status, f"seed {seed}"
        if sol_a.status == "optimal":
            n_optimal += 1
            assert sol_a.obj == pytest.approx(sol_c.obj, abs=1e-7 * (1 + abs(sol_a.obj)))
    assert n_optimal >= 10


@pytest.mark.parametrize("seed", range(6))
def test_angle_big_m_rows_carry_theta_and_m(seed):
    # Theta = sum cap/B bounds every angle; M = 2 B Theta + cap on each
    # line's two angle rows
    net = _random_net(seed)
    model = build_ots_angle(net)
    lp, vmap = model.lp, model.vmap
    theta = sum(ln.capacity / ln.susceptance for ln in net.lines)
    ref = min(vmap.theta)
    for bus, col in vmap.theta.items():
        bounds = (0.0, 0.0) if bus == ref else (-theta, theta)
        assert (lp.lo[col], lp.hi[col]) == pytest.approx(bounds, rel=1e-12)
    rows = lp.rows[len(net.buses):]
    for i, ln in enumerate(net.lines):
        m = 2.0 * ln.susceptance * theta + ln.capacity
        up, down = rows[4 * i], rows[4 * i + 1]
        assert dict(up[0])[vmap.x[ln.id]] == pytest.approx(m, rel=1e-12)
        assert up[1:] == ("<=", pytest.approx(m, rel=1e-12))
        assert dict(down[0])[vmap.x[ln.id]] == pytest.approx(-m, rel=1e-12)
        assert down[1:] == (">=", pytest.approx(-m, rel=1e-12))


def test_big_m_constants_on_triangle():
    net = triangle()
    rows = build_ots_angle(net).lp.rows
    assert [r[2] for r in rows[3:]] == [7.0, -7.0, 0.0, 0.0] * 3
    (cyc,) = cycle_basis(net)
    vmap = build_ots_cycle(net).vmap
    (up, _, rhs_up), (down, _, rhs_dn) = cycle_cut_rows(cyc, vmap)
    assert [v for c, v in up if c in vmap.x.values()] == [3.0] * 3
    assert [v for c, v in down if c in vmap.x.values()] == [-3.0] * 3
    assert (rhs_up, rhs_dn) == (9.0, -9.0)


def test_a_cycle_rows_big_m_is_its_weight():
    checked = 0
    for seed in range(12):
        net = _random_net(seed)
        vmap = build_ots_cycle(net).vmap
        on = {col: lid for lid, col in vmap.x.items()}
        for cyc in cycle_basis(net):
            m = sum(ln.capacity / ln.susceptance for ln, _ in cyc.members)
            k = len(cyc.members)
            up, down = cycle_cut_rows(cyc, vmap)
            assert {on[c]: v for c, v in up[0] if c in on} == pytest.approx(
                {ln.id: m for ln, _ in cyc.members}, rel=1e-12)
            assert {on[c]: v for c, v in down[0] if c in on} == pytest.approx(
                {ln.id: -m for ln, _ in cyc.members}, rel=1e-12)
            assert (up[2], down[2]) == pytest.approx((m * k, -m * k), rel=1e-12)
            checked += 1
    assert checked >= 5


def test_ots_angle_shape_and_bounds():
    net = triangle()
    model = build_ots_angle(net)
    lp, vmap = model.lp, model.vmap
    assert lp.n_cols == 1 + 3 + 3 + 3
    assert lp.n_rows == 3 + 4 * 3
    assert len(model.integer_cols) == 3
    assert set(model.integer_cols) == set(vmap.x.values())
    ref = vmap.theta[0]
    assert (lp.lo[ref], lp.hi[ref]) == (0.0, 0.0)
    for b in (1, 2):
        col = vmap.theta[b]
        assert (lp.lo[col], lp.hi[col]) == (-3.0, 3.0)
    for col in vmap.x.values():
        assert (lp.lo[col], lp.hi[col]) == (0.0, 1.0)


def test_ots_angle_non_switchable_line_is_pinned_on():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0, False), (2, 0, 2, 1.0, 1.0)],
    )
    model = build_ots_angle(net)
    pinned = model.vmap.x[1]
    assert (model.lp.lo[pinned], model.lp.hi[pinned]) == (1.0, 1.0)
    assert pinned not in model.integer_cols
    assert len(model.integer_cols) == 2


def test_ots_angle_all_closed_equals_dispatch():
    net = triangle()
    model = build_ots_angle(net)
    lp = model.lp.copy()
    for col in model.vmap.x.values():
        lp.set_bounds(col, 1.0, 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(1.0, abs=1e-9)
    assert _flows(sol, model.vmap, net) == pytest.approx([1 / 3, 1 / 3, 2 / 3], abs=1e-9)


def test_ots_angle_opening_a_line_restores_feasibility():
    net = bottleneck_triangle()
    model = build_ots_angle(net)
    all_on = model.lp.copy()
    for col in model.vmap.x.values():
        all_on.set_bounds(col, 1.0, 1.0)
    assert solve(all_on).status == "infeasible"

    open_direct = model.lp.copy()
    for lid, col in model.vmap.x.items():
        val = 0.0 if lid == 2 else 1.0
        open_direct.set_bounds(col, val, val)
    sol = solve(open_direct)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(1.0, abs=1e-9)
    assert _flows(sol, model.vmap, net) == pytest.approx([1.0, 1.0, 0.0], abs=1e-9)


def test_ots_cycle_rows_enforce_consistency_when_closed():
    net = triangle()
    model = build_ots_cycle(net)
    lp = model.lp.copy()
    for cyc in cycle_basis(net):
        for row in cycle_cut_rows(cyc, model.vmap):
            lp.add_row(*row)
    for col in model.vmap.x.values():
        lp.set_bounds(col, 1.0, 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert _flows(sol, model.vmap, net) == pytest.approx([1 / 3, 1 / 3, 2 / 3], abs=1e-9)


def test_ots_cycle_without_rows_ignores_consistency():
    # without cycle rows only balance and capacity bind, so the cheap
    # direct line can carry the whole load
    net = triangle()
    model = build_ots_cycle(net)
    lp = model.lp.copy()
    for col in model.vmap.x.values():
        lp.set_bounds(col, 1.0, 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(1.0, abs=1e-9)


def test_cycle_cut_rows_values():
    net = triangle()
    model = build_ots_cycle(net)
    (cyc,) = cycle_basis(net)
    up, dn = cycle_cut_rows(cyc, model.vmap)
    assert up[1:] == ("<=", 9.0)
    assert dn[1:] == (">=", -9.0)
    coeffs_up = dict(up[0])
    for ln, s in cyc.members:
        assert coeffs_up[model.vmap.flow[ln.id]] == pytest.approx(s / ln.susceptance)
        assert coeffs_up[model.vmap.x[ln.id]] == pytest.approx(3.0)


def test_switching_budget_appends_one_row():
    net = triangle()
    model = build_ots_angle(net)
    before = model.lp.n_rows
    capped = add_switching_budget(model, 1)
    assert model.lp.n_rows == before
    assert capped.lp.n_rows == before + 1
    coeffs, sense, rhs = capped.lp.rows[-1]
    assert sense == ">="
    assert rhs == 2.0
    assert {c for c, _ in coeffs} == set(model.vmap.x.values())


def test_negative_switching_budget_is_rejected():
    model = build_ots_cycle(triangle())
    with pytest.raises(ValueError, match="nonnegative"):
        add_switching_budget(model, -1)
    assert add_switching_budget(model, 0).lp.rows[-1][2] == 3.0


def test_budget_zero_forces_all_closed():
    net = bottleneck_triangle()
    capped = add_switching_budget(build_ots_angle(net), 0)
    lp = capped.lp.copy()
    # with the budget at zero any feasible point has every x at one, so
    # even the LP relaxation inherits the all-closed infeasibility once
    # integrality is imposed; check the fully closed vertex directly
    for col in capped.vmap.x.values():
        lp.set_bounds(col, 1.0, 1.0)
    assert solve(lp).status == "infeasible"



def _star(load, gens, caps, switchable=None):
    """Bus 0 with ``load`` and ``gens``, joined by one line per capacity
    to a supply bus 1 that can absorb any imbalance."""
    switchable = switchable or [True] * len(caps)
    return build_network(
        buses=[(0, load), (1, 0.0)],
        generators=list(gens) + [(1, 0.0, 10.0, 1.0)],
        lines=[(i, 1, 0, 1.0, cap, sw) for i, (cap, sw) in enumerate(zip(caps, switchable))])


def _covers(net):
    model = build_ots_cycle(net)
    line_of = {col: lid for lid, col in model.vmap.x.items()}
    return [(sorted(line_of[c] for c, _ in coeffs), sense, rhs)
            for coeffs, sense, rhs in bus_cover_rows(model)]


def test_a_bus_short_of_supply_needs_its_largest_lines_closed():
    # 1.0 to import over 0.6, 0.5 and 0.3: 0.6 + 0.5 reach it, so two
    # lines may do, though 0.5 + 0.3 would not
    assert _covers(_star(1.0, [], [0.6, 0.5, 0.3])) == [([0, 1, 2], ">=", 2.0)]
    # 1.2 reaches past the two largest: all three lines
    assert _covers(_star(1.2, [], [0.6, 0.5, 0.3])) == [([0, 1, 2], ">=", 3.0)]
    # a local generator lowers the deficit to 0.5: one line is enough
    assert _covers(_star(1.0, [(0, 0.0, 0.5, 1.0)], [0.6, 0.5, 0.3])) == []


def test_a_bus_with_surplus_needs_lines_to_export_it():
    # p_min of 1.5 against a load of 0.5 leaves 1.0 to export
    assert _covers(_star(0.5, [(0, 1.5, 2.0, 1.0)], [0.4, 0.4, 0.4])) == \
        [([0, 1, 2], ">=", 3.0)]


def test_a_deficit_reached_within_the_tolerance_keeps_the_smaller_count():
    # two lines of 0.5 reach 1 + 1e-9 up to the tolerance, which only ever
    # lowers k; a deficit further off needs the third line
    assert _covers(_star(1.0 + 1e-9, [], [0.5, 0.5, 0.5])) == [([0, 1, 2], ">=", 2.0)]
    assert _covers(_star(1.0 + 1e-3, [], [0.5, 0.5, 0.5])) == [([0, 1, 2], ">=", 3.0)]


def test_cover_rows_need_two_switchable_lines_beyond_the_fixed_ones():
    caps = [0.4, 0.4, 0.4, 0.4]
    fixed_first = [False, True, True, True]
    assert _covers(_star(0.7, [], caps)) == [([0, 1, 2, 3], ">=", 2.0)]
    assert _covers(_star(0.7, [], caps, fixed_first)) == []  # k = 2, one of them fixed
    assert _covers(_star(1.0, [], caps, fixed_first)) == [([0, 1, 2, 3], ">=", 3.0)]
    # a bus its lines cannot serve at all gets no row: the relaxation is
    # already infeasible
    assert _covers(_star(2.0, [], caps)) == []
