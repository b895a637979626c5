import json

import numpy as np
import pytest

from dcots.cyclebasis import CycleSet, cycle_basis
from dcots.formulations import build_ots_angle
from dcots.lp import add_rows
from dcots.solver import (
    CSV_HEADER,
    RootRelaxationError,
    SolverConfig,
    SolveResult,
    branch_and_bound,
    lazy_kvl_check,
    recover_angles,
    repair_connected,
    result_csv_row,
    result_to_doc,
    solve_ots,
    strengthen_root,
)
from dcots.network import build_network, random_connected_network
from dcots.oracle import brute_force_ots


def triangle(direct_cap=1.0, switchable=True):
    return build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0, switchable), (1, 1, 2, 1.0, 1.0, switchable),
               (2, 0, 2, 1.0, direct_cap, switchable)],
    )


def two_gen_triangle():
    # cheap generation bottlenecked by the direct line while it is closed
    return build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0), (1, 0.0, 2.0, 10.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 0.4)],
    )


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    loads = [0.0] + [float(np.round(rng.uniform(0.2, 1.0), 3)) for _ in range(n - 1)]
    total = sum(loads)
    gens = [
        (0, 0.0, float(np.round(0.6 * total + 0.2, 3)), 1.0),
        (n - 1, 0.0, float(np.round(total + 0.5, 3)),
         float(np.round(rng.uniform(3.0, 8.0), 3))),
    ]
    lines = []
    for b in range(1, n):
        lines.append((len(lines), int(rng.integers(0, b)), b,
                      float(np.round(rng.uniform(0.5, 2.0), 3)),
                      float(np.round(rng.uniform(0.3, 0.9) * total + 0.15, 3))))
    for _ in range(int(rng.integers(1, 3))):
        u, v = rng.choice(n, size=2, replace=False)
        lines.append((len(lines), int(u), int(v),
                      float(np.round(rng.uniform(0.5, 2.0), 3)),
                      float(np.round(rng.uniform(0.3, 0.9) * total + 0.15, 3))))
    return build_network(buses=list(enumerate(loads)), generators=gens, lines=lines)


def test_solve_plain_triangle():
    res = solve_ots(triangle())
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.gap <= 1e-9
    assert res.nodes >= 1


def test_bottleneck_requires_opening_the_direct_line():
    res = solve_ots(triangle(direct_cap=0.1))
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x == {0: 1.0, 1: 1.0, 2: 0.0}
    assert res.f[0] == pytest.approx(1.0, abs=1e-9)
    assert res.f[1] == pytest.approx(1.0, abs=1e-9)
    assert res.f[2] == pytest.approx(0.0, abs=1e-12)
    assert res.theta[0] == pytest.approx(0.0)
    assert res.theta[1] == pytest.approx(-1.0, abs=1e-9)
    assert res.theta[2] == pytest.approx(-2.0, abs=1e-9)


def test_switching_beats_all_closed_dispatch():
    net = two_gen_triangle()
    res = solve_ots(net)
    assert res.status == "optimal-within-gap"
    # all-closed dispatch costs 0.2 + 10 * 0.8 = 8.2; opening the direct
    # line lets the cheap unit carry the whole load over the path
    assert res.objective == pytest.approx(1.0, abs=1e-6)
    assert res.x[2] == 0.0


def test_two_generators_at_one_bus_reach_the_enumerated_optimum():
    # bus 0 holds a cheap small unit and a dearer large one
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 0.5, 1.0), (0, 0.0, 2.0, 3.0), (1, 0.0, 2.0, 10.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 0.4)],
    )
    want, _ = brute_force_ots(net)
    assert want == pytest.approx(2.0, abs=1e-9)  # 0.5 * 1 + 0.5 * 3, direct line open
    for mode in ("default", "basic", "more"):
        res = solve_ots(net, SolverConfig(cycle_mode=mode))
        assert res.status == "optimal-within-gap", mode
        assert res.objective == pytest.approx(want, abs=1e-6), mode
        assert res.p[0] == pytest.approx(0.5, abs=1e-6), mode


def test_non_switchable_instance_is_single_node():
    res = solve_ots(triangle(switchable=False))
    assert res.status == "optimal-within-gap"
    assert res.nodes == 1
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.x == {0: 1.0, 1: 1.0, 2: 1.0}


def test_infeasible_when_nothing_helps():
    net = build_network(
        buses=[(0, 0.0), (1, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 0.5)],
    )
    res = solve_ots(net)
    assert res.status == "infeasible"
    assert res.objective is None


def test_budget_sweep_on_bottleneck():
    net = triangle(direct_cap=0.1)
    assert solve_ots(net, n_off=0).status == "infeasible"
    r1 = solve_ots(net, n_off=1)
    assert r1.status == "optimal-within-gap"
    assert r1.objective == pytest.approx(1.0, abs=1e-9)
    r2 = solve_ots(net, n_off=2)
    assert r2.objective <= r1.objective + 1e-9


def test_tree_network_keeps_every_line():
    net = build_network(
        buses=[(0, 0.0), (1, 0.4), (2, 0.6)],
        generators=[(0, 0.0, 2.0, 2.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 0, 2, 1.0, 1.0)],
    )
    res = solve_ots(net)
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    assert all(v == 1.0 for v in res.x.values())


def test_lazy_kvl_check_on_tree_and_triangle():
    net = triangle()
    assert lazy_kvl_check(net, {0: 1.0, 1: 1.0, 2: 0.0},
                          {0: 1.0, 1: 1.0, 2: 0.0}) is None
    cyc = lazy_kvl_check(net, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 1.0, 1: 1.0, 2: -1.0})
    assert cyc is not None
    assert cyc.edge_ids == frozenset({0, 1, 2})
    assert lazy_kvl_check(net, {0: 1.0, 1: 1.0, 2: 1.0},
                          {0: 1 / 3, 1: 1 / 3, 2: 2 / 3}) is None


def test_recover_angles_matches_hand_solution():
    net = triangle()
    theta = recover_angles(net, {0: 1.0, 1: 1.0, 2: 1.0},
                           {0: 1 / 3, 1: 1 / 3, 2: 2 / 3})
    assert theta[0] == pytest.approx(0.0)
    assert theta[1] == pytest.approx(-1 / 3, abs=1e-12)
    assert theta[2] == pytest.approx(-2 / 3, abs=1e-12)
    zero = recover_angles(net, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 0.0, 1: 0.0, 2: 0.0})
    assert zero == {0: 0.0, 1: 0.0, 2: 0.0}


def test_repair_connected_joins_components():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0),
               (2, 2, 3, 1.0, 1.0), (3, 0, 3, 1.0, 1.0)],
    )
    x = {0: 1.0, 1: 0.0, 2: 1.0, 3: 0.0}
    f = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    x2, f2, _ = repair_connected(net, x, f, {0: 0.0})
    assert x2 == {0: 1.0, 1: 1.0, 2: 1.0, 3: 0.0}
    assert f2[1] == 0.0
    same, _, _ = repair_connected(net, x2, f2, {0: 0.0})
    assert same == x2


def test_cycle_formulation_converges_via_lazy_rows():
    net = triangle()
    res = solve_ots(net, SolverConfig(use_cycle_formulation=True))
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    if all(v == 1.0 for v in res.x.values()):
        assert res.f[0] == pytest.approx(1 / 3, abs=1e-6)
        assert res.f[2] == pytest.approx(2 / 3, abs=1e-6)
    assert lazy_kvl_check(net, res.x, res.f) is None


def test_strengthen_root_empty_cycles_is_identity():
    model = build_ots_angle(two_gen_triangle())
    model2, z_lp, z_cuts, n_cuts = strengthen_root(model, CycleSet(), 5)
    assert n_cuts == 0
    assert z_cuts == z_lp
    assert model2.lp.n_rows == model.lp.n_rows


def test_strengthen_root_infeasible_propagates():
    net = build_network(
        buses=[(0, 0.0), (1, 1.0)],
        generators=[(0, 0.0, 0.2, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0)],
    )
    with pytest.raises(RootRelaxationError):
        strengthen_root(build_ots_angle(net), CycleSet(), 5)


def _triangle_with_three_violated_subsets():
    # at the root LP of this draw one basis triangle has three violated
    # subsets, so an exhaustive separator would add three of its cuts
    return random_connected_network(375, max_buses=10, max_extra_lines=4)


def test_each_root_round_adds_at_most_two_cuts_per_cycle(monkeypatch):
    added = []
    monkeypatch.setattr("dcots.solver.add_rows",
                        lambda lp, rows: added.append(len(rows)) or add_rows(lp, rows))
    net = _triangle_with_three_violated_subsets()
    basis = cycle_basis(net)
    rounds = 0
    for cycles in [basis, *(CycleSet((c,)) for c in basis)]:
        added.clear()
        strengthen_root(build_ots_angle(net), cycles, 5)
        assert all(n <= 2 * len(cycles) for n in added), (len(cycles), added)
        rounds += len(added)
    assert rounds > 0


@pytest.mark.parametrize("mode", ["basic", "more"])
def test_root_cuts_do_not_use_the_exhaustive_separator(monkeypatch, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("separate_all called on the solve path")

    monkeypatch.setattr("dcots.solver.separate_all", refuse)
    net = _triangle_with_three_violated_subsets()
    res = solve_ots(net, SolverConfig(cycle_mode=mode, rel_gap=0.0))
    bf_obj, _ = brute_force_ots(net)
    assert res.status == "optimal-within-gap" and res.cuts_added > 0
    assert res.objective == pytest.approx(bf_obj, abs=1e-6, rel=1e-6)


def test_root_value_chain_on_random_instances():
    for seed in range(12):
        net = _random_instance(seed)
        model = build_ots_angle(net)
        _, z_lp, z_cuts, _ = strengthen_root(model, cycle_basis(net), 5)
        assert z_cuts >= z_lp - 1e-9
        res = solve_ots(net, SolverConfig(cycle_mode="basic"))
        if res.status == "optimal-within-gap":
            assert res.objective >= z_cuts - 1e-6 * (1 + abs(res.objective))
            assert res.root_lp_values == (pytest.approx(z_lp), pytest.approx(z_cuts))


def test_modes_agree_on_random_instances():
    statuses = {"optimal-within-gap": 0, "infeasible": 0}
    for seed in range(10, 22):
        net = _random_instance(seed)
        results = {mode: solve_ots(net, SolverConfig(cycle_mode=mode))
                   for mode in ("default", "basic", "more")}
        st = {r.status for r in results.values()}
        assert len(st) == 1, f"seed {seed}: {st}"
        status = st.pop()
        statuses[status] = statuses.get(status, 0) + 1
        if status == "optimal-within-gap":
            objs = [r.objective for r in results.values()]
            tol = 0.001 * (1 + abs(objs[0])) + 1e-9
            assert max(objs) - min(objs) <= 2 * tol
    assert statuses["optimal-within-gap"] >= 6


def test_incumbents_satisfy_feasibility_invariants():
    for seed in (2, 5, 13, 17):
        net = _random_instance(seed)
        res = solve_ots(net, SolverConfig(cycle_mode="basic"))
        if res.status != "optimal-within-gap":
            continue
        gen_at = {g.bus: i for i, g in enumerate(net.generators)}
        for b in net.buses:
            inflow = sum(res.f[ln.id] for ln in net.lines if ln.to_bus == b.id)
            outflow = sum(res.f[ln.id] for ln in net.lines if ln.from_bus == b.id)
            p = res.p[gen_at[b.id]] if b.id in gen_at else 0.0
            assert p - outflow + inflow == pytest.approx(b.load, abs=1e-6)
        for ln in net.lines:
            assert res.x[ln.id] in (0.0, 1.0)
            assert abs(res.f[ln.id]) <= ln.capacity * res.x[ln.id] + 1e-6
            if res.x[ln.id] == 1.0:
                lhs = ln.susceptance * (res.theta[ln.from_bus] - res.theta[ln.to_bus])
                assert lhs == pytest.approx(res.f[ln.id], abs=1e-6)
        assert lazy_kvl_check(net, res.x, res.f) is None


def test_determinism_across_repeat_solves():
    net = _random_instance(7)
    cfg = SolverConfig(cycle_mode="more")
    r1 = solve_ots(net, cfg)
    r2 = solve_ots(net, cfg)
    assert r1.status == r2.status
    assert r1.nodes == r2.nodes
    assert r1.cuts_added == r2.cuts_added
    assert r1.objective == r2.objective
    assert r1.root_lp_values == r2.root_lp_values
    assert r1.x == r2.x


def test_time_limit_reports_partial_status():
    net = _random_instance(4)
    res = solve_ots(net, SolverConfig(time_limit_s=0.0))
    assert res.status in ("feasible-time-limit", "infeasible-unknown")


def test_result_serialization_round_trip():
    res = solve_ots(triangle(direct_cap=0.1))
    doc = result_to_doc(res, instance="bottleneck", mode="default")
    parsed = json.loads(json.dumps(doc))
    assert parsed["status"] == "optimal-within-gap"
    assert parsed["instance"] == "bottleneck"
    assert parsed["x"]["2"] == 0.0
    row = result_csv_row(res, "bottleneck", "default")
    assert len(row) == len(CSV_HEADER)
    assert row[0] == "bottleneck"
    assert row[2] == "optimal-within-gap"
    assert float(row[3]) == pytest.approx(1.0)
    infeas = SolveResult(status="infeasible")
    row2 = result_csv_row(infeas, "bad", "basic")
    assert row2[3] == "" and row2[5] == ""
