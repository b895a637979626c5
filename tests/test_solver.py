import heapq
import json
from dataclasses import replace
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dcots.solver as dcots_solver
from dcots.cuts import CycleInequality, SeparationTable, inequality_row
from dcots.cyclebasis import cycle_basis, lp_guided_cycles, spanning_forest
from dcots.formulations import build_ots_angle, build_ots_cycle, bus_cover_rows
from dcots.lp import SimplexError, add_rows
from dcots.lp import solve as lp_solve
from dcots.solver import (
    CSV_HEADER,
    RootRelaxationError,
    SolverConfig,
    TREE_ROUNDS,
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
from dcots.oracle import brute_force_ots, enumerate_S_C_vertices


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


def test_stats_report_the_node_and_time_of_the_first_incumbent():
    none = solve_ots(build_network(buses=[(0, 0.0), (1, 1.0)], generators=[(0, 0.0, 2.0, 1.0)],
                                   lines=[(0, 0, 1, 1.0, 0.5)]))
    assert none.status == "infeasible"
    assert none.stats.first_incumbent_node is none.stats.first_incumbent_s is None
    assert solve_ots(triangle()).stats.first_incumbent_node == 1  # the root is integral
    later = 0
    for seed in (2, 5, 13, 17):
        res = solve_ots(_random_instance(seed))
        assert res.status == "optimal-within-gap"
        assert 1 <= res.stats.first_incumbent_node <= res.nodes
        assert 0.0 <= res.stats.first_incumbent_s <= res.wall_time_s
        later += res.stats.first_incumbent_node > 1
    assert later


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


def _with_extreme_value(net, field):
    """``net`` with line 0, 1 or 2's capacity or generator 0's cost at 1e308."""
    if field == "cost":
        gens = list(net.generators)
        gens[0] = replace(gens[0], cost=1e308)
        return replace(net, generators=tuple(gens))
    lines = list(net.lines)
    lines[field] = replace(lines[field], capacity=1e308)
    return replace(net, lines=tuple(lines))


@pytest.mark.parametrize("field", [0, 1, 2, "cost"])
@pytest.mark.parametrize("seed", [0, 1, 4, 5])
def test_a_capacity_or_cost_of_1e308_ends_in_a_status(seed, field):
    # floating-point overflow in the simplex must end the solve as
    # numerical-error, never as a traceback or a false "infeasible"
    net = random_connected_network(seed)
    assert solve_ots(net).status == "optimal-within-gap"
    res = solve_ots(_with_extreme_value(net, field))
    assert res.status in ("optimal-within-gap", "numerical-error")
    if res.status == "optimal-within-gap":
        assert np.isfinite(res.objective)


def test_recover_angles_matches_hand_solution():
    net = triangle()
    theta = recover_angles(net, {0: 1.0, 1: 1.0, 2: 1.0},
                           {0: 1 / 3, 1: 1 / 3, 2: 2 / 3})
    assert theta[0] == pytest.approx(0.0)
    assert theta[1] == pytest.approx(-1 / 3, abs=1e-12)
    assert theta[2] == pytest.approx(-2 / 3, abs=1e-12)
    zero = recover_angles(net, {0: 1.0, 1: 1.0, 2: 1.0}, {0: 0.0, 1: 0.0, 2: 0.0})
    assert zero == {0: 0.0, 1: 0.0, 2: 0.0}


def _reference_forest_angles(net, tree, f):
    """Angles by a depth-first walk of ``tree`` from each component's
    lowest bus id, as the solver computed them before its forest walk
    became ``tree_parents``."""
    adj = {b.id: [] for b in net.buses}
    for ln in tree:
        adj[ln.from_bus].append((ln.to_bus, -f[ln.id] / ln.susceptance))
        adj[ln.to_bus].append((ln.from_bus, f[ln.id] / ln.susceptance))
    theta = {}
    for root in sorted(adj):
        if root in theta:
            continue
        theta[root] = 0.0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, step in adj[u]:
                if v not in theta:
                    theta[v] = theta[u] + step
                    stack.append(v)
    return theta


@pytest.mark.parametrize("seed", range(40))
def test_the_forest_walk_matches_a_reference_dfs_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    net = random_connected_network(seed, max_buses=9, max_extra_lines=4)
    order = rng.permutation(len(net.buses))
    net = replace(net, buses=tuple(net.buses[i] for i in order))  # out of id order
    x = {ln.id: float(rng.uniform() < 0.8) for ln in net.lines}
    angle = {b.id: float(rng.uniform(-1.0, 1.0)) for b in net.buses}
    f = {ln.id: ln.susceptance * (angle[ln.from_bus] - angle[ln.to_bus]) for ln in net.lines}
    for ln in net.lines:
        if rng.uniform() < 0.3:
            f[ln.id] += float(rng.uniform(-0.5, 0.5))
    tree, chords = spanning_forest(net, [ln for ln in net.lines if x[ln.id] >= 0.5])
    theta = _reference_forest_angles(net, tree, f)
    assert recover_angles(net, x, f) == theta
    residual = {ln.id: abs(theta[ln.from_bus] - theta[ln.to_bus] - f[ln.id] / ln.susceptance)
                for ln in chords}
    cyc = lazy_kvl_check(net, x, f)
    if not residual or max(residual.values()) <= dcots_solver.KVL_TOL:
        assert cyc is None
        return
    worst = max(chords, key=lambda ln: (residual[ln.id], -chords.index(ln)))
    g = nx.Graph()
    g.add_edges_from((ln.from_bus, ln.to_bus, {"id": ln.id}) for ln in tree)
    path = nx.shortest_path(g, worst.to_bus, worst.from_bus)
    assert cyc.members[0] == (worst, 1)
    assert [ln.id for ln, _ in cyc.members[1:]] == [g.edges[u, v]["id"]
                                                    for u, v in zip(path, path[1:])]


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
    res = solve_ots(net)
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    if all(v == 1.0 for v in res.x.values()):
        assert res.f[0] == pytest.approx(1 / 3, abs=1e-6)
        assert res.f[2] == pytest.approx(2 / 3, abs=1e-6)
    assert lazy_kvl_check(net, res.x, res.f) is None


def test_strengthen_root_empty_cycles_is_identity():
    model = build_ots_angle(two_gen_triangle())
    model2, z_lp, z_cuts, n_cuts = strengthen_root(model, (), 5)
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
        strengthen_root(build_ots_angle(net), (), 5)


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
    for cycles in [basis, *((c,) for c in basis)]:
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
        model = build_ots_cycle(net)
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


def test_time_limit_stops_the_root_cut_rounds():
    net = _triangle_with_three_violated_subsets()
    assert solve_ots(net, SolverConfig(cycle_mode="basic")).cuts_added > 0
    res = solve_ots(net, SolverConfig(cycle_mode="basic", time_limit_s=0))
    assert res.cuts_added == 0
    assert res.status == "infeasible-unknown"
    assert res.root_lp_values[1] == res.root_lp_values[0]


def test_lazy_rows_that_never_settle_end_with_a_status():
    net = triangle()
    same = cycle_basis(net)[0]
    res = branch_and_bound(build_ots_angle(net), SolverConfig(), lambda x, f: same)
    assert res.status == "lazy-rows-stalled"
    assert res.objective is None and res.nodes >= 1


def test_an_unbounded_first_node_ends_the_search():
    model = build_ots_cycle(triangle())
    model.lp.add_col(cost=-1.0, lo=0.0)  # in no row, with no upper bound
    res = branch_and_bound(model, SolverConfig(), lambda x, f: None)
    assert res.status == "unbounded" and res.nodes == 1
    assert (res.x, res.f, res.p, res.objective, res.best_bound, res.gap) == (None,) * 6


def test_a_search_without_a_feasible_topology_ends_infeasible():
    # the relaxation can split the load 0.5/0.5, but the angles split it
    # 0.25/0.75 over both lines and send all of it over either one: only
    # rows the search adds rule the relaxation's point out
    net = build_network(buses=[(0, 0.0), (1, 1.0)], generators=[(0, 0.0, 2.0, 1.0)],
                        lines=[(0, 0, 1, 1.0, 0.6), (1, 0, 1, 3.0, 0.6)])
    assert brute_force_ots(net) == (None, None)
    res = branch_and_bound(build_ots_cycle(net), SolverConfig(),
                           lambda x, f: lazy_kvl_check(net, x, f))
    assert res.status == "infeasible" and res.nodes >= 1 and res.cuts_added > 0
    assert (res.x, res.f, res.p, res.objective, res.best_bound, res.gap) == (None,) * 6


def test_time_limit_ends_the_lazy_rows_of_a_node(monkeypatch):
    net = triangle()
    same = cycle_basis(net)[0]
    now = [0.0]
    monkeypatch.setattr("dcots.solver.time.monotonic", lambda: now[0])
    calls = []

    def late_lazy_source(x, f):
        calls.append(1)
        now[0] += 100.0  # the limit passes while the node's rows are added
        return same

    res = branch_and_bound(build_ots_cycle(net), SolverConfig(time_limit_s=10.0),
                           late_lazy_source)
    assert res.status == "infeasible-unknown"
    assert len(calls) == 1 and res.nodes >= 1


@pytest.mark.parametrize("mode", ["default", "basic"])
def test_stats_count_every_lp_solve_of_the_root_and_the_search(monkeypatch, mode):
    counted = {"calls": 0, "iterations": 0, "cold": 0, "fallbacks": 0, "refactorizations": 0}

    def counting(lp, warm=None):
        sol = lp_solve(lp, warm=warm)
        counted["calls"] += 1
        counted["iterations"] += sol.iterations
        counted["cold"] += sol.cold_start
        counted["fallbacks"] += warm is not None and sol.cold_start
        counted["refactorizations"] += sol.refactorizations
        return sol

    monkeypatch.setattr("dcots.solver.solve", counting)
    res = solve_ots(_triangle_with_three_violated_subsets(), SolverConfig(cycle_mode=mode))
    assert res.status == "optimal-within-gap" and res.nodes >= 1
    assert (res.stats.lp_calls, res.stats.simplex_iterations, res.stats.cold_starts) == \
        (counted["calls"], counted["iterations"], counted["cold"])
    assert counted["calls"] > res.nodes  # the root solves count too
    assert counted["cold"] == 1  # the root's first solve; the search starts warm
    assert 0 < res.stats.strong_branch_solves < counted["calls"] - res.nodes
    assert result_to_doc(res)["stats"] == {
        "lp_calls": counted["calls"], "strong_branch_solves": res.stats.strong_branch_solves,
        "simplex_iterations": counted["iterations"],
        "cold_starts": 1, "warm_fallbacks": counted["fallbacks"],
        "refactorizations": counted["refactorizations"],
        "cover_rows": res.stats.cover_rows, "tree_cuts": res.stats.tree_cuts, "lazy_rows": res.stats.lazy_rows,
        "first_incumbent_node": res.stats.first_incumbent_node,
        "first_incumbent_s": res.stats.first_incumbent_s}


def test_cover_rows_join_the_search_after_the_root(monkeypatch):
    # bus 2 imports 1.5 over lines of 1.0, 0.8 and 0.6: two must be closed
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.5)],
        generators=[(0, 0.0, 2.0, 1.0), (1, 0.0, 2.0, 3.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 2.0, 1.0), (2, 0, 2, 1.0, 0.8),
               (3, 0, 2, 3.0, 0.6)])
    model = build_ots_cycle(net)
    assert [rhs for _, _, rhs in bus_cover_rows(model)] == [2.0]
    programs = []

    def recording(lp, warm=None):
        programs.append(lp.n_rows)
        return lp_solve(lp, warm=warm)

    monkeypatch.setattr("dcots.solver.solve", recording)
    res = solve_ots(net)
    want, _ = brute_force_ots(net)
    assert res.status == "optimal-within-gap" and res.stats.cover_rows == 1
    assert res.objective == pytest.approx(want, rel=1e-3)
    # the root solves the paper's relaxation; the search adds the cover
    assert res.root_lp_values[0] == lp_solve(model.lp).obj
    assert programs[0] == model.lp.n_rows and programs[1] == model.lp.n_rows + 1
    assert res.cuts_added == res.stats.tree_cuts + res.stats.lazy_rows


def test_the_search_starts_from_the_root_basis(monkeypatch):
    calls = []

    def recording(lp, warm=None):
        calls.append((warm, lp_solve(lp, warm=warm)))
        return calls[-1][1]

    monkeypatch.setattr("dcots.solver.solve", recording)
    res = solve_ots(_random_instance(3))  # the default mode: no root rounds
    assert res.status == "optimal-within-gap"
    (no_warm, root), (warm, first_node) = calls[:2]
    assert no_warm is None and root.cold_start
    # the first node solves the root's program again, from the root's basis
    assert warm is root.basis and not first_node.cold_start
    assert first_node.iterations == 0 and first_node.obj == root.obj


@pytest.mark.parametrize("mode", ["default", "basic"])
def test_cuts_added_is_root_plus_tree_plus_lazy_rows(mode):
    net = random_connected_network(9, max_buses=8, max_extra_lines=4)
    res = solve_ots(net, SolverConfig(cycle_mode=mode))
    assert res.stats.tree_cuts > 0 and res.stats.lazy_rows > 0
    root_cuts = 0
    if mode == "basic":
        root_cuts = strengthen_root(build_ots_cycle(net), cycle_basis(net), 5)[3]
    assert res.cuts_added == root_cuts + res.stats.tree_cuts + res.stats.lazy_rows
    assert result_to_doc(res)["stats"]["tree_cuts"] == res.stats.tree_cuts


def _counting_tree_source(monkeypatch, calls):
    def counting(net, x_hat):
        calls.append(1)
        return lp_guided_cycles(net, x_hat)

    monkeypatch.setattr("dcots.solver.lp_guided_cycles", counting)


@pytest.mark.parametrize("mode", ["default", "basic", "more"])
def test_tree_cuts_run_in_every_mode(monkeypatch, mode):
    calls = []
    _counting_tree_source(monkeypatch, calls)
    # on each instance tree cuts fire at two or more nodes in every mode, so
    # no single degenerate tie in a node's LP can leave the sum at zero
    nets = [_random_instance(3), *(random_connected_network(seed, max_buses=8, max_extra_lines=4)
                                   for seed in (9, 11))]
    results = [solve_ots(net, SolverConfig(cycle_mode=mode)) for net in nets]
    assert all(res.status == "optimal-within-gap" for res in results)
    assert calls and sum(res.stats.tree_cuts for res in results) > 0


def test_tree_cuts_only_at_shallow_nodes(monkeypatch):
    calls = []
    _counting_tree_source(monkeypatch, calls)
    monkeypatch.setattr("dcots.solver.TREE_DEPTH", 0)
    res = solve_ots(_random_instance(3))
    # depth 0 is the root node alone: one call per round there
    assert res.nodes > 1 and 1 <= len(calls) <= TREE_ROUNDS


def test_time_limit_zero_runs_no_tree_round(monkeypatch):
    calls = []
    _counting_tree_source(monkeypatch, calls)
    res = solve_ots(_random_instance(3), SolverConfig(time_limit_s=0))
    assert res.status == "infeasible-unknown"
    assert not calls and res.stats.tree_cuts == 0


def test_time_limit_ends_the_tree_rounds_of_a_node(monkeypatch):
    now = [0.0]
    monkeypatch.setattr("dcots.solver.time.monotonic", lambda: now[0])
    calls = []

    def late(net, x_hat):
        calls.append(1)
        now[0] += 100.0  # the limit passes while the node's cuts are separated
        return lp_guided_cycles(net, x_hat)

    monkeypatch.setattr("dcots.solver.lp_guided_cycles", late)
    res = solve_ots(_random_instance(3), SolverConfig(time_limit_s=10.0))
    assert res.status == "infeasible-unknown"
    assert len(calls) == 1 and res.stats.tree_cuts > 0


def test_tree_rounds_do_not_count_as_lazy_rounds(monkeypatch):
    net = _random_instance(3)
    expected = solve_ots(net)
    cycle = cycle_basis(net)[0]
    # the cycle inequality of the whole cycle: valid, and the same row every round
    whole = CycleInequality(cycle, "right", cycle.edge_ids, cycle.weight, 1.0)
    rounds = 10 * len(net.lines) + 5
    monkeypatch.setattr("dcots.solver.TREE_ROUNDS", rounds)
    monkeypatch.setattr("dcots.solver.SeparationTable.rows",
                        lambda table, x: [inequality_row(whole, table.vmap)])
    res = solve_ots(net)  # the default mode: no root rounds
    assert res.status == "optimal-within-gap"
    assert res.objective == pytest.approx(expected.objective, rel=1e-6)
    assert res.stats.tree_cuts >= rounds


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       x_draws=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
       u_draws=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_tree_cuts_hold_at_every_vertex_of_their_cycle(seed, x_draws, u_draws):
    net = random_connected_network(seed, max_buses=6, max_extra_lines=4)
    vmap = build_ots_cycle(net).vmap
    point = np.zeros(1 + max(max(vmap.flow.values()), max(vmap.x.values())))
    x_hat = {}
    for ln, x, u in zip(net.lines, x_draws, u_draws):
        x_hat[ln.id] = 1.0 if x > 0.6 else 0.4 + x  # mostly closed, so K_C > 0 is common
        point[vmap.x[ln.id]] = x_hat[ln.id]
        point[vmap.flow[ln.id]] = u * ln.capacity * x_hat[ln.id]
    cut_cycles = [(cyc, rows) for cyc in lp_guided_cycles(net, x_hat) if len(cyc) <= 5
                  for rows in [SeparationTable([cyc], vmap).rows(point)] if rows]
    assume(cut_cycles)
    for cyc, rows in cut_cycles:
        w = [ln.w for ln, _ in cyc.members]
        for vertex in enumerate_S_C_vertices(w):
            g, x = vertex[:len(w)], vertex[len(w):]
            v = np.zeros_like(point)
            for a, (ln, s) in enumerate(cyc.members):
                v[vmap.flow[ln.id]] = s * g[a] * ln.susceptance
                v[vmap.x[ln.id]] = x[a]
            for coeffs, sense, rhs in rows:
                assert sense == "<="
                lhs = sum(c * v[col] for col, c in coeffs)
                assert lhs - rhs <= 1e-9 * (1.0 + sum(abs(c) for _, c in coeffs))


@pytest.mark.parametrize("fail_at", [1, 2])
def test_a_failing_lp_ends_the_solve_with_a_status(monkeypatch, fail_at):
    # call 1 is the root LP; call 2 is the first node of the search
    calls = []

    def flaky(lp, warm=None):
        calls.append(warm)
        if len(calls) == fail_at:
            raise SimplexError("iteration limit exceeded")
        return lp_solve(lp, warm=warm)

    monkeypatch.setattr("dcots.solver.solve", flaky)
    res = solve_ots(_random_instance(4))
    assert res.status == "numerical-error"
    assert len(calls) == fail_at


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


# strong branching on the search's program


def _int_bounds(lp, cols):
    return tuple((lp.lo[c], lp.hi[c]) for c in cols)


def _watch_strong_branching(monkeypatch, after_solve=None):
    """Wrap the search's branching and LP solves.  The log holds the
    integer columns' bounds at the first branching (the root node's), the
    bounds and solution of every strong-branching solve, whether each
    branching left every bound of the program as it found it, and the
    bounds of each child that a solve proved infeasible or cut off.
    ``after_solve(sol)`` runs after each strong-branching solve."""
    log = {"cols": None, "root": None, "solves": [], "restored": [], "proven": set()}
    real_solve, real_branch = dcots_solver.solve, dcots_solver._reliability_branch
    inside = []

    def solving(lp, warm=None):
        sol = real_solve(lp, warm=warm)
        if inside:
            log["solves"].append((_int_bounds(lp, log["cols"]), sol))
            if sol.status != "optimal":
                log["proven"].add(log["solves"][-1][0])
            if after_solve is not None:
                after_solve(sol)
        return sol

    def branching(lp, sol, int_cols, x_int, pseudo, cut_off, *rest):
        def recording_cut_off(obj):
            if cut_off(obj):
                log["proven"].add(log["solves"][-1][0])
                return True
            return False

        log["cols"] = list(int_cols)
        if log["root"] is None:
            log["root"] = _int_bounds(lp, int_cols)
        before = (list(lp.lo), list(lp.hi))
        inside.append(True)
        try:
            return real_branch(lp, sol, int_cols, x_int, pseudo, recording_cut_off, *rest)
        finally:
            inside.pop()
            log["restored"].append((list(lp.lo), list(lp.hi)) == before)

    monkeypatch.setattr("dcots.solver.solve", solving)
    monkeypatch.setattr("dcots.solver._reliability_branch", branching)
    return log


# strong branching proves children infeasible or cut off on each, and
# random_connected_network(2, ...) is an infeasible instance
STRONG_NETS = {"ri-0": lambda: _random_instance(0), "ri-7": lambda: _random_instance(7),
               **{f"rcn-{seed}": (lambda seed=seed: random_connected_network(
                   seed, max_buses=8, max_extra_lines=4)) for seed in (2, 15)}}


@pytest.mark.parametrize("name", STRONG_NETS)
def test_strong_branching_leaves_every_bound_as_it_found_it(monkeypatch, name):
    log = _watch_strong_branching(monkeypatch)
    res = solve_ots(STRONG_NETS[name]())
    assert res.status in ("optimal-within-gap", "infeasible")
    assert len(log["solves"]) == res.stats.strong_branch_solves > 0
    assert log["restored"] and all(log["restored"])


def test_no_strong_branching_solve_starts_past_the_time_limit(monkeypatch):
    now = [0.0]
    monkeypatch.setattr("dcots.solver.time.monotonic", lambda: now[0])

    def late(sol):
        now[0] += 100.0  # the limit passes during the first strong-branching solve

    log = _watch_strong_branching(monkeypatch, late)
    res = solve_ots(_random_instance(0), SolverConfig(time_limit_s=10.0))
    assert res.status in ("feasible-time-limit", "infeasible-unknown")
    assert len(log["solves"]) == res.stats.strong_branch_solves == 1
    assert log["restored"] == [True]


def test_a_failing_strong_branching_solve_restores_the_bounds(monkeypatch):
    log = _watch_strong_branching(monkeypatch)
    watched = dcots_solver.solve

    def flaky(lp, warm=None):
        if log["cols"] is not None:  # the first strong-branching solve
            raise SimplexError("iteration limit exceeded")
        return watched(lp, warm=warm)

    monkeypatch.setattr("dcots.solver.solve", flaky)
    res = solve_ots(_random_instance(0))
    assert res.status == "numerical-error"
    assert log["restored"] == [True]


@pytest.mark.parametrize("name", STRONG_NETS)
def test_a_child_that_strong_branching_proved_is_never_pushed(monkeypatch, name):
    log = _watch_strong_branching(monkeypatch)
    pushed = []

    def pushing(heap, node):
        pushed.append(node.branchings)
        heapq.heappush(heap, node)

    monkeypatch.setattr("dcots.solver.heapq", SimpleNamespace(heappop=heapq.heappop,
                                                              heappush=pushing))
    res = solve_ots(STRONG_NETS[name]())
    assert res.status in ("optimal-within-gap", "infeasible")
    children = set()
    for branchings in pushed:
        node = dict(zip(log["cols"], log["root"]))
        node.update({log["cols"][k]: (float(d), float(d)) for k, d in branchings})
        children.add(tuple(node[col] for col in log["cols"]))
    assert log["proven"] and children
    assert not log["proven"] & children


def test_nodes_of_equal_bound_pop_in_counter_order_without_comparing_a_basis():
    # a basis is not orderable, so heap order must be settled by bound and counter
    heap = []
    for counter in (2, 3, 1):
        heapq.heappush(heap, dcots_solver._Node(5.0, counter, ((0, 1),), object(), 4.0, 0.5))
    heapq.heappush(heap, dcots_solver._Node(4.5, 4, ((1, 0),), object(), 4.0, 0.25))
    assert [heapq.heappop(heap).counter for _ in range(4)] == [4, 1, 2, 3]


@pytest.mark.parametrize("name", STRONG_NETS)
def test_repeat_solves_branch_alike(name):
    net = STRONG_NETS[name]()
    r1, r2 = solve_ots(net), solve_ots(net)
    assert r1.stats.strong_branch_solves > 0
    assert (r1.nodes, r1.stats.strong_branch_solves, repr(r1.objective)) == \
        (r2.nodes, r2.stats.strong_branch_solves, repr(r2.objective))
