"""Tests for the brute-force polyhedral and switching oracles."""

from fractions import Fraction

import numpy as np
import pytest

from dcots.network import build_network, random_connected_network
from dcots.oracle import (
    SubsetSumInstance,
    brute_force_ots,
    check_facets,
    check_hull_equality,
    check_opf_equivalence,
    check_projection_prop4,
    directional_gap,
    dispatch_lp,
    enumerate_S_C_vertices,
    exact_rank,
    fixed_injection_feasible,
    hull_rows,
    membership_extended,
    reduce_subset_sum,
    reduction_ots_feasible,
    reduction_witness_angles,
    subset_sum_brute,
    subset_sum_witness,
)
from dcots.solver import SolverConfig, solve_ots


def random_net(seed):
    return random_connected_network(seed, max_buses=5)


def test_two_line_cycle_vertices_include_opposed_full_flows():
    verts = enumerate_S_C_vertices((1.0, 1.0))
    rows = {tuple(v) for v in verts}
    assert (1.0, -1.0, 1.0, 1.0) in rows
    assert (-1.0, 1.0, 1.0, 1.0) in rows
    closed = [v for v in verts if v[2] == 1.0 and v[3] == 1.0]
    assert len(closed) == 2


def test_unit_triangle_closed_vertices_are_the_six_flow_rotations():
    verts = enumerate_S_C_vertices((1.0, 1.0, 1.0))
    closed = verts[(verts[:, 3:] == 1.0).all(axis=1)]
    assert len(closed) == 6
    for g in closed[:, :3]:
        assert sorted(np.abs(g)) == [0.0, 1.0, 1.0]
        assert abs(g.sum()) < 1e-12


def test_every_vertex_satisfies_every_hull_row():
    for w in [(1.0, 2.0), (0.7, 1.1, 2.9), (0.5, 0.5, 0.5, 1.2)]:
        verts = enumerate_S_C_vertices(w)
        a_ub, b_ub = hull_rows(w)
        slack = a_ub @ verts.T - b_ub[:, None]
        assert slack.max() <= 1e-9


def test_hull_equality_holds_on_random_weights():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        for _ in range(3):
            w = tuple(np.round(rng.uniform(0.3, 2.5, size=n), 3))
            report = check_hull_equality(w, trials=50, seed=int(rng.integers(10**6)))
            assert report.max_gap <= 1e-7


def test_dropping_a_facet_row_opens_a_gap():
    w = (1.0, 1.0, 1.0)
    subset = frozenset({0, 1, 2})
    objective = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    assert directional_gap(w, objective) <= 1e-9
    assert directional_gap(w, objective, drop=(1.0, subset)) > 1e-6


def test_membership_accepts_vertices_and_convex_combinations():
    w = np.array([1.0, 0.8, 1.5])
    verts = enumerate_S_C_vertices(tuple(w))
    rng = np.random.default_rng(3)
    for v in verts:
        assert membership_extended(v[:3], v[3:], w)
    for _ in range(20):
        lam = rng.dirichlet(np.ones(len(verts)))
        point = lam @ verts
        assert membership_extended(point[:3], point[3:], w)


def test_membership_rejects_points_outside_the_hull():
    w = np.array([1.0, 1.0, 1.0])
    assert not membership_extended([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], w)
    assert not membership_extended([1.2, -1.0, 0.0], [1.0, 1.0, 1.0], w)
    assert not membership_extended([0.0, 0.0, 0.0], [1.0, 1.0, 1.1], w)
    # fully closed with a circulation residue sits strictly above the face
    assert not membership_extended([0.5, 0.5, 0.5], [1.0, 1.0, 1.0], w)


def test_projection_of_extended_formulation_matches_explicit_rows():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        w = tuple(np.round(rng.uniform(0.4, 2.0, size=n), 3))
        assert check_projection_prop4(w, trials=40, seed=5) <= 1e-7


def test_facet_certificates_for_every_heavy_subset():
    for w in [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (1.3, 0.9, 0.4, 0.7)]:
        n = len(w)
        found = 0
        for mask in range(1, 1 << n):
            subset = {a for a in range(n) if mask >> a & 1}
            if 2 * sum(w[a] for a in subset) - sum(w) > 0:
                assert check_facets(w, subset)
                found += 1
        assert found > 0


def test_facet_check_requires_a_heavy_subset():
    with pytest.raises(AssertionError):
        check_facets((1.0, 1.0, 1.0), {0})


def test_exact_rank_on_known_matrices():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[Fraction(1, 3), Fraction(2, 3)],
                       [Fraction(1, 2), Fraction(1, 1)]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0


def test_reduction_network_shape_and_values():
    net = reduce_subset_sum(SubsetSumInstance((1, 2), 3))
    assert len(net.buses) == 5
    assert len(net.lines) == 6
    assert net.buses[4].load == 2.0
    g = net.generators[0]
    assert (g.p_min, g.p_max, g.cost) == (2.0, 2.0, 1.0)
    caps = [ln.capacity for ln in net.lines]
    sus = [ln.susceptance for ln in net.lines]
    assert caps == pytest.approx([1 / 3, 1 / 3, 2 / 3, 2 / 3, 1.0, 1.0])
    assert sus == pytest.approx([2.0, 2.0, 4.0, 4.0, 1.0, 0.75])


def test_reduction_feasibility_matches_subset_sum_exhaustively():
    cases = [SubsetSumInstance((1, 2), 3), SubsetSumInstance((2,), 3),
             SubsetSumInstance((3,), 3)]
    for a1 in (1, 2, 3):
        for a2 in (1, 2, 3):
            for b in (1, 2, 3, 4):
                cases.append(SubsetSumInstance((a1, a2), b))
    for inst in cases:
        assert reduction_ots_feasible(inst) == subset_sum_brute(inst)


def test_reduction_class_enumeration_agrees_with_raw_enumeration():
    for inst in [SubsetSumInstance((2,), 3), SubsetSumInstance((3,), 3),
                 SubsetSumInstance((1, 3), 4), SubsetSumInstance((2, 2), 3)]:
        raw_obj, _ = brute_force_ots(reduce_subset_sum(inst),
                                     early_exit_feasible=True)
        assert (raw_obj is not None) == reduction_ots_feasible(inst)


def test_witness_angles_reproduce_the_construction_exactly():
    inst = SubsetSumInstance((1, 2), 3)
    theta = reduction_witness_angles(inst, (0, 1))
    assert theta == {0: Fraction(4, 3), 1: Fraction(7, 6), 2: Fraction(7, 6),
                     3: Fraction(1), 4: Fraction(0)}
    inst2 = SubsetSumInstance((2, 5, 3), 8)
    wit = subset_sum_witness(inst2)
    assert sum(inst2.a[i] for i in wit) == 8
    assert reduction_witness_angles(inst2, wit)[0] == Fraction(9, 8)


def test_witness_angles_reject_subsets_missing_the_target():
    inst = SubsetSumInstance((1, 2), 3)
    for bad in [(), (0,), (1,)]:
        assert reduction_witness_angles(inst, bad) is None


def test_subset_sum_witness_found_iff_reachable():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = tuple(int(v) for v in rng.integers(1, 10, size=int(rng.integers(1, 7))))
        b = int(rng.integers(1, 26))
        inst = SubsetSumInstance(a, b)
        wit = subset_sum_witness(inst)
        if subset_sum_brute(inst):
            assert wit is not None and sum(a[i] for i in wit) == b
        else:
            assert wit is None


def test_fixed_injection_agrees_with_dispatch_lp():
    rng = np.random.default_rng(9)
    checked_feasible = checked_infeasible = 0
    for seed in range(30):
        base = random_net(seed)
        total = base.total_load()
        gens = [(0, total, total, 1.0)]
        net = build_network([(b.id, b.load) for b in base.buses], gens,
                            [(ln.id, ln.from_bus, ln.to_bus, ln.susceptance,
                              ln.capacity) for ln in base.lines])
        keep = {ln.id for ln in net.lines if rng.uniform() > 0.2}
        fast = fixed_injection_feasible(net, keep)
        obj, _ = dispatch_lp(net, keep)
        assert fast == (obj is not None)
        checked_feasible += fast
        checked_infeasible += not fast
    assert checked_feasible > 0 and checked_infeasible > 0


def test_brute_force_matches_branch_and_cut():
    agreements = 0
    for seed in range(8):
        net = random_net(seed)
        obj_bf, x_bf = brute_force_ots(net)
        res = solve_ots(net, SolverConfig(rel_gap=0.0))
        if obj_bf is None:
            assert res.status == "infeasible"
            continue
        assert res.status == "optimal-within-gap"
        assert res.objective == pytest.approx(obj_bf, abs=1e-6, rel=1e-6)
        agreements += 1
    assert agreements >= 5


def test_opf_equivalence_has_zero_gap_on_random_networks():
    optimal = 0
    for seed in range(10):
        status, obj_gap, flow_gap, obj = check_opf_equivalence(random_net(seed))
        assert status in ("optimal", "infeasible")
        if status == "optimal":
            assert obj_gap <= 1e-7
            assert flow_gap <= 1e-6
            assert obj >= 0.0
            optimal += 1
    assert optimal >= 5
