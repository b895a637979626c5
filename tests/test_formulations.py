import numpy as np
import pytest

from dcots.cyclebasis import CycleSet, cycle_basis
from dcots.formulations import (
    add_switching_budget,
    build_opf_angle,
    build_opf_cycle,
    build_ots_angle,
    build_ots_cycle,
    compute_big_m,
    cycle_big_m,
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


def test_big_m_constants_on_triangle():
    net = triangle()
    bigm = compute_big_m(net)
    assert bigm.theta_bound == pytest.approx(3.0)
    for ln in net.lines:
        assert bigm.m_line[ln.id] == pytest.approx(7.0)
    (cyc,) = cycle_basis(net)
    assert cycle_big_m(cyc) == pytest.approx(3.0)


def test_big_m_missing_line_raises():
    bigm = compute_big_m(triangle())
    with pytest.raises(KeyError):
        bigm.m_line[99]


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
    model = build_ots_cycle(net, cycles=cycle_basis(net))
    lp = model.lp.copy()
    for col in model.vmap.x.values():
        lp.set_bounds(col, 1.0, 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert _flows(sol, model.vmap, net) == pytest.approx([1 / 3, 1 / 3, 2 / 3], abs=1e-9)


def test_ots_cycle_without_rows_ignores_consistency():
    # without cycle rows only balance and capacity bind, so the cheap
    # direct line can carry the whole load
    net = triangle()
    model = build_ots_cycle(net, cycles=CycleSet())
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

