"""Tests for the brute-force polyhedral and switching oracles."""

from fractions import Fraction
from itertools import combinations, product
from math import ceil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from test_acceptance import switching_prone_network

from dcots import oracle
from dcots.cuts import delta
from dcots.formulations import build_opf_angle
from dcots.lp import LinearProgram
from dcots.lp import solve as lp_solve
from dcots.network import build_network, random_connected_network
from dcots.oracle import (
    BATCH,
    HighsStatusError,
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
    solve_lp_reference,
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


def _reference_vertices(w):
    """enumerate_S_C_vertices one on/off pattern and one sign pattern at a time."""
    n = len(w)
    w = np.asarray(w, dtype=float)
    points = []
    for bits in product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if all(b == 1.0 for b in bits):
            for free in range(n):
                others = [a for a in range(n) if a != free]
                for signs in product((1.0, -1.0), repeat=n - 1):
                    g = np.zeros(n)
                    g[others] = np.array(signs) * w[others]
                    g[free] = -g[others].sum()
                    if abs(g[free]) <= w[free] + 1e-12:
                        points.append(np.concatenate([g, x]))
        else:
            on = [a for a in range(n) if bits[a] == 1.0]
            for signs in product((1.0, -1.0), repeat=len(on)):
                g = np.zeros(n)
                for a, s in zip(on, signs):
                    g[a] = s * w[a]
                points.append(np.concatenate([g, x]))
    return np.unique(np.round(np.array(points), 9), axis=0)


def test_vertices_match_the_pattern_by_pattern_reference():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        draws = [tuple(float(v) for v in rng.uniform(0.3, 2.5, size=n)) for _ in range(4)]
        # integer weights put closed-cycle flows exactly on their capacity
        for w in draws + [tuple(float(v) for v in rng.integers(1, 4, size=n)), (1.0,) * n]:
            got, want = enumerate_S_C_vertices(w), _reference_vertices(w)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), w


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


def test_membership_checks_the_capacity_box_tighter_than_highs():
    w = np.array([1.0, 1.0, 1.0])
    g, x = np.array([1.0, -1.0, 0.0]), np.ones(3)  # a vertex: |g_0| = w_0 x_0
    assert membership_extended(g, x, w)
    raised = g + [1e-8, 0.0, 0.0]
    assert not membership_extended(raised, x, w)
    # the extended system alone accepts it: its rows g <= w x and
    # sum(f1) = 0 miss by 1e-8, inside HiGHS's 1e-7 feasibility tolerance
    ext = oracle._extended_system(w)
    lo, hi = ext.lo.copy(), ext.hi.copy()
    lo[:3] = hi[:3] = raised
    lo[6:9] = hi[6:9] = x
    oracle._solve_blocks(ext, np.zeros(10), lo, hi)


def _heavy_by_mask(w):
    n = len(w)
    for mask in range(1, 1 << n):
        s = tuple(a for a in range(n) if mask >> a & 1)
        if delta(s, w) > 0.0:
            yield s


def _reference_hull_rows(w, drop=None):
    """hull_rows one coefficient at a time, with the cuts' Delta."""
    n = len(w)
    rows, rhs = [], []
    for s in _heavy_by_mask(w):
        d = delta(s, w)
        for side in (1.0, -1.0):
            if drop is not None and drop == (side, frozenset(s)):
                continue
            row = np.zeros(2 * n)
            for a in range(n):
                row[a] = side if a in s else 0.0
                row[n + a] = d - w[a] if a in s else d
            rows.append(row)
            rhs.append(d * (n - 1))
    for a in range(n):
        for side in (1.0, -1.0):
            row = np.zeros(2 * n)
            row[a], row[n + a] = side, -w[a]
            rows.append(row)
            rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def _reference_projection_templates(w):
    """(A_ub, b_ub) of the extended system over (g, f1, x, y) and of its
    projection over (g, x, y), one row at a time."""
    n = len(w)
    ext, prj = [], []

    def unit(a, scale=1.0):
        e = np.zeros(n)
        e[a] = scale
        return e

    zero = np.zeros(n)
    for a in range(n):
        e, wx = unit(a), unit(a, -w[a])
        ext += [(zero, e, zero, -w[a], 0.0), (zero, -e, zero, -w[a], 0.0),
                (e, -e, wx, w[a], 0.0), (-e, e, wx, w[a], 0.0), (zero, zero, -e, 1.0, 0.0),
                (e, zero, wx, 0.0, 0.0), (-e, zero, wx, 0.0, 0.0)]
        prj += [(e, wx, 0.0, 0.0), (-e, wx, 0.0, 0.0), (zero, -e, 1.0, 0.0)]
    ext.append((zero, zero, np.ones(n), -1.0, n - 1.0))
    for s in _heavy_by_mask(w):
        g = sum(unit(a) for a in s)
        x = sum(unit(a, -w[a]) for a in s)
        prj += [(g, x, delta(s, w), 0.0), (-g, x, delta(s, w), 0.0)]
    prj.append((zero, np.ones(n), -1.0, n - 1.0))
    return [(np.array([np.concatenate([*row[:-2], [row[-2]]]) for row in rows]),
             np.array([row[-1] for row in rows])) for rows in (ext, prj)]


def test_rows_match_the_coefficient_by_coefficient_reference():
    # the oracle computes Delta itself; this ties it to the cuts' value for value
    rng = np.random.default_rng(30)
    for n in (2, 3, 4, 5, 6):
        for _ in range(3):
            w = tuple(float(v) for v in rng.uniform(0.3, 2.5, size=n))
            for got, want in [(hull_rows(w), _reference_hull_rows(w))] + [
                    (hull_rows(w, drop=(side, s)), _reference_hull_rows(w, drop=(side, s)))
                    for s in map(frozenset, _heavy_by_mask(w)) for side in (1.0, -1.0)]:
                assert all(np.array_equal(u, v) and u.shape == v.shape
                           for u, v in zip(got, want)), (w, got, want)
            for system, (a_ub, b_ub) in zip((oracle._extended_system(w),
                                              oracle._projected_system(w)),
                                             _reference_projection_templates(w)):
                assert np.array_equal(system.a_ub, a_ub) and np.array_equal(system.b_ub, b_ub)
                assert system.a_ub.shape == a_ub.shape
            ext, prj = oracle._extended_system(w), oracle._projected_system(w)
            assert np.array_equal(ext.a_eq, [[0.0] * n + [1.0] * n + [0.0] * (n + 1)])
            assert np.array_equal(ext.lo, [-v for v in w] * 2 + [0.0] * (n + 1))
            assert np.array_equal(ext.hi, list(w) * 2 + [1.0] * (n + 1))
            assert np.array_equal(prj.lo, [-v for v in w] + [0.0] * (n + 1))
            assert np.array_equal(prj.hi, list(w) + [1.0] * (n + 1))


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


@pytest.mark.parametrize("w, subset", [
    ((1.0, 1.0, 2.000000001), {2}), ((0.5, 0.5, 1 + 2**-40), {2}),
    ((1.0, 1.0, 1.0, 3 + 1e-7), {3}), ((1.0, 1.0, 1.0, 1.5, 1.5 + 1e-9), {3, 4}),
])
def test_facet_certificates_for_barely_heavy_subsets(w, subset):
    # Delta(S) is so small next to w that eps halves from min(w) / 1000 more than ten times
    assert check_facets(w, subset)


def test_facet_check_requires_a_heavy_subset():
    with pytest.raises(ValueError, match=r"heavy subset, got \[0\]"):
        check_facets((1.0, 1.0, 1.0), {0})


def test_facet_certificates_on_the_benchmark_weights():
    # perfbench's oracle weights: uniform(0.3, 2.5) times 2^k, k = -2..2
    base = np.random.default_rng(404)
    for n in (3, 4, 5):
        for _ in range(4):
            draw = base.uniform(0.3, 2.5, size=n)
            for k in range(-2, 3):
                w = tuple(float(v) for v in draw * 2.0 ** k)
                for row in oracle._heavy_subsets(w)[0]:
                    subset = set(np.flatnonzero(row).tolist())
                    assert check_facets(w, subset), (w, subset)


def _closed(points):
    return [i for i, (_, x) in enumerate(points) if all(xa == 1 for xa in x)]


def _opened_complement_line(points, w, subset):
    """(point, line) of the first point that opens a line outside S."""
    return next((i, a) for i, (_, x) in enumerate(points) for a in range(len(w))
                if x[a] == 0 and a not in subset)


def _move_off_the_face(points, w, subset):
    # half of a closed point stays in S_C: same x, zero flow sum, |f| <= w
    i = _closed(points)[0]
    points[i] = ([fa / 2 for fa in points[i][0]], points[i][1])


def _exceed_a_capacity(points, w, subset):
    # flow on an opened line outside S, which the face row does not read
    i, a = _opened_complement_line(points, w, subset)
    points[i][0][a] = w[a] / 2


def _unbalance_a_closed_point(points, w, subset):
    # a complement flow moved inside its capacity; the face row reads only S
    c = min(a for a in range(len(w)) if a not in subset)
    points[_closed(points)[0]][0][c] /= 2


def _half_open_a_line(points, w, subset):
    # x outside {0, 1} on a line outside S that carries no flow
    i, a = _opened_complement_line(points, w, subset)
    points[i][1][a] = Fraction(1, 2)


def _replace_by_a_midpoint(points, w, subset):
    (f0, x0), (f1, _) = (points[i] for i in _closed(points)[:2])
    points[-1] = ([(u + v) / 2 for u, v in zip(f0, f1)], list(x0))


def _drop_a_point(points, w, subset):
    # the rank falls: no count of points is checked
    points.pop()


# heavy subsets of two or more lines with one or two complement lines
TAMPER_CASES = [((1.0, 1.0, 1.0), {0, 1}), ((1.0, 1.0, 1.0, 1.0), {0, 1, 2}),
                ((1.3, 0.9, 0.4, 0.7), {0, 1}), ((2.0, 1.0, 0.5, 0.5, 0.75), {0, 1, 2})]


@pytest.mark.parametrize("w, subset", TAMPER_CASES,
                         ids=[f"n{len(w)}-S{len(s)}-{i}" for i, (w, s) in enumerate(TAMPER_CASES)])
@pytest.mark.parametrize("tamper", [_move_off_the_face, _exceed_a_capacity,
                                    _unbalance_a_closed_point, _half_open_a_line,
                                    _replace_by_a_midpoint, _drop_a_point],
                         ids=lambda t: t.__name__.strip("_"))
def test_tampered_witness_points_fail_the_facet_check(monkeypatch, w, subset, tamper):
    assert check_facets(w, subset)
    witness = oracle._witness_points

    def tampered(w, subset):
        points = [(list(f), list(x)) for f, x in witness(w, subset)]
        tamper(points, w, subset)
        return points

    monkeypatch.setattr(oracle, "_witness_points", tampered)
    assert not check_facets(w, subset)


def test_exact_rank_on_known_matrices():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[Fraction(1, 3), Fraction(2, 3)],
                       [Fraction(1, 2), Fraction(1, 1)]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0


# a float's exact value times 2^-2..2^2, a small ratio, or zero
_ENTRIES = st.one_of(
    st.builds(lambda v, k: Fraction(v) * Fraction(2) ** k, st.floats(-2.5, 2.5),
              st.integers(-2, 2)),
    st.fractions(-5, 5, max_denominator=12),
    st.just(Fraction(0)))


@st.composite
def _rational_matrices(draw):
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    mat = [[draw(_ENTRIES) for _ in range(n_cols)] for _ in range(n_rows)]
    for i in range(1, n_rows):
        if draw(st.booleans()):  # an integer combination of the rows above
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=i, max_size=i))
            mat[i] = [sum(c * row[j] for c, row in zip(coeffs, mat)) for j in range(n_cols)]
    for i in draw(st.sets(st.integers(0, n_rows - 1))) if n_rows else ():
        mat[i] = [Fraction(0)] * n_cols
    for j in draw(st.sets(st.integers(0, n_cols - 1))) if n_cols else ():
        for row in mat:
            row[j] = Fraction(0)
    return draw(st.permutations(mat))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mat=_rational_matrices())
@example(mat=[])
@example(mat=[[]])
@example(mat=[[Fraction(0)]])
@example(mat=[[Fraction(0.3)]])
@example(mat=[[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
def test_exact_rank_matches_gauss_jordan(mat):
    expected = oracle._gauss_jordan([list(row) for row in mat], len(mat[0]) if mat else 0)
    assert exact_rank(mat) == expected


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


def test_reduction_network_floats_are_the_rounded_ratios():
    rng = np.random.default_rng(12)
    for _ in range(40):
        a = tuple(int(v) for v in rng.integers(1, 10**6, size=int(rng.integers(1, 6))))
        b = int(rng.integers(1, 10**7))
        net = reduce_subset_sum(SubsetSumInstance(a, b))
        *paths, corridor, direct = net.lines
        assert [ln.capacity for ln in paths] == [ai / b for ai in a for _ in range(2)]
        assert [ln.susceptance for ln in paths] == [2.0 * ai for ai in a for _ in range(2)]
        assert (corridor.susceptance, corridor.capacity) == (1.0, 1.0)
        assert (direct.susceptance, direct.capacity) == (b / (b + 1), 1.0)


def test_reduction_feasibility_matches_subset_sum_exhaustively():
    cases = [SubsetSumInstance((1, 2), 3), SubsetSumInstance((2,), 3),
             SubsetSumInstance((3,), 3)]
    for a1 in (1, 2, 3):
        for a2 in (1, 2, 3):
            for b in (1, 2, 3, 4):
                cases.append(SubsetSumInstance((a1, a2), b))
    for inst in cases:
        assert reduction_ots_feasible(inst) == (subset_sum_witness(inst) is not None)


def test_reduction_class_enumeration_agrees_with_raw_enumeration():
    for inst in [SubsetSumInstance((2,), 3), SubsetSumInstance((3,), 3),
                 SubsetSumInstance((1, 3), 4), SubsetSumInstance((2, 2), 3)]:
        raw_obj, _ = brute_force_ots(reduce_subset_sum(inst))
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
    for outside in [(2,), (0, 5), (-1,)]:
        with pytest.raises(IndexError, match="names a term outside 0..1"):
            reduction_witness_angles(inst, outside)


def test_subset_sum_witness_found_iff_reachable():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = tuple(int(v) for v in rng.integers(1, 10, size=int(rng.integers(1, 7))))
        b = int(rng.integers(1, 26))
        inst = SubsetSumInstance(a, b)
        wit = subset_sum_witness(inst)
        if any(sum(pick) == b for k in range(len(a) + 1) for pick in combinations(a, k)):
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


def test_solve_lp_reference_maps_the_highs_status():
    # x0 + x1 >= 3 with both columns in [0, 1]
    infeasible = LinearProgram([1.0, 1.0], [0.0, 0.0], [1.0, 1.0],
                               [([(0, 1.0), (1, 1.0)], ">=", 3.0)])
    assert solve_lp_reference(infeasible) == ("infeasible", None, None)
    # min -x0 with x0 >= x1 and x0 unbounded above
    unbounded = LinearProgram([-1.0, 0.0], [0.0, 0.0], [np.inf, 1.0],
                              [([(0, 1.0), (1, -1.0)], ">=", 0.0)])
    assert solve_lp_reference(unbounded) == ("unbounded", None, None)


def test_solve_lp_reference_matches_the_in_repo_simplex():
    # one row of each sense; the optimum (0, 3, 2) is unique
    lp = LinearProgram([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [5.0, 5.0, 5.0],
                       [([(0, 1.0), (1, 1.0)], ">=", 3.0), ([(1, 1.0)], ">=", 2.0),
                        ([(0, 1.0), (2, -1.0)], "==", -2.0), ([(0, 1.0)], "<=", 1.0)])
    programs = [lp] + [build_opf_angle(random_net(seed))[0] for seed in range(6)]
    optimal = 0
    for program in programs:
        want = lp_solve(program)
        status, obj, _ = solve_lp_reference(program)
        assert status == want.status
        if status == "optimal":
            assert obj == pytest.approx(want.obj, rel=1e-9, abs=1e-9)
            optimal += 1
    assert optimal >= 4
    assert solve_lp_reference(lp)[2] == pytest.approx([0.0, 3.0, 2.0], abs=1e-9)


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


# ---------------------------------------------------------------------------
# batched LPs against one LP per call


def count_linprog(monkeypatch):
    """Count the oracle's HiGHS calls; returns the running count as a list."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return linprog(*args, **kwargs)

    monkeypatch.setattr(oracle, "linprog", counted)
    return calls


def _topologies(net):
    """Every set of closed line ids: non-switchable lines are always in it."""
    switchable = [ln.id for ln in net.lines if ln.switchable]
    fixed = {ln.id for ln in net.lines if not ln.switchable}
    for mask in range(1 << len(switchable)):
        yield fixed | {lid for i, lid in enumerate(switchable) if mask >> i & 1}


def reference_brute_force(net):
    """The enumeration brute_force_ots batches, one dispatch LP per
    topology that passes the component screen."""
    best_obj, best_x = None, None
    for active in _topologies(net):
        if not oracle._component_screen(net, active):
            continue
        obj, _ = dispatch_lp(net, active)
        if obj is None:
            continue
        pattern = {ln.id: (1.0 if ln.id in active else 0.0) for ln in net.lines}
        if best_obj is None or obj < best_obj - 1e-12:
            best_obj, best_x = obj, pattern
    return best_obj, best_x


BRUTE_NETS = ([("random", s) for s in range(20)]
              + [("switching-prone", s) for s in range(20)])


@pytest.mark.parametrize("kind, seed", BRUTE_NETS, ids=[f"{k}-{s}" for k, s in BRUTE_NETS])
def test_batched_brute_force_matches_one_lp_per_topology(kind, seed):
    net = (random_connected_network(seed, max_buses=6) if kind == "random"
           else switching_prone_network(seed))
    obj, x = brute_force_ots(net)
    want_obj, want_x = reference_brute_force(net)
    assert (obj is None) == (want_obj is None)
    if want_obj is not None:
        assert obj == pytest.approx(want_obj, rel=1e-9, abs=1e-9)
    assert x == want_x


def parallel_lines(n_lines, capacity, p_min=0.0):
    """One generator feeding one unit of load over ``n_lines`` switchable
    parallel lines; every topology but the one with all lines open passes
    the component screen."""
    lines = [(i, 0, 1, 1.0, capacity) for i in range(n_lines)]
    return build_network([(0, 0.0), (1, 1.0)], [(0, p_min, 2.0, 1.0)], lines)


@pytest.mark.parametrize("n_lines, capacity", [(5, 0.15), (6, 0.15), (5, 0.19999)])
def test_a_batch_of_only_infeasible_topologies_ends_in_none(monkeypatch, n_lines, capacity):
    # all lines together carry 0.75, 0.9 or 0.99995 units, short of the
    # load, so the cut screen rejects every topology before HiGHS
    net = parallel_lines(n_lines, capacity)
    assert reference_brute_force(net) == (None, None)
    calls = count_linprog(monkeypatch)
    assert brute_force_ots(net) == (None, None)
    assert calls[0] == 0


def test_a_phase_1_batch_of_only_kvl_infeasible_topologies_ends_in_none(monkeypatch):
    # both lines closed carry 1.2 >= 1 across the cut, but KVL splits the
    # load 0.25 / 0.75 and overloads the stiff line; one open line is short
    net = build_network([(0, 0.0), (1, 1.0)], [(0, 0.0, 2.0, 1.0)],
                        [(0, 0, 1, 1.0, 0.6), (1, 0, 1, 3.0, 0.6)])
    assert reference_brute_force(net) == (None, None)
    calls = count_linprog(monkeypatch)
    assert brute_force_ots(net) == (None, None)
    assert calls[0] == 1  # phase 1 on the all-closed topology alone


def test_brute_force_solves_each_phase_in_batches(monkeypatch):
    net = parallel_lines(6, 0.3)  # feasible iff four or more lines are closed
    want_obj, want_x = reference_brute_force(net)
    calls = count_linprog(monkeypatch)
    obj, x = brute_force_ots(net)
    assert obj == pytest.approx(want_obj, rel=1e-9) and x == want_x
    # the cut screen passes exactly the feasible ones to phase 1
    feasible = sum(bin(mask).count("1") >= 4 for mask in range(1 << 6))
    assert feasible == 22
    assert calls[0] == ceil(feasible / BATCH) + ceil(feasible / BATCH)


def test_brute_force_builds_one_dispatch_template(monkeypatch):
    built = []

    class Counted(oracle._Dispatch):
        def __init__(self, net):
            built.append(1)
            super().__init__(net)

    monkeypatch.setattr(oracle, "_Dispatch", Counted)
    net = parallel_lines(6, 0.3)
    assert brute_force_ots(net)[0] is not None
    assert len(built) == 1


def _transport_overload(model, closed):
    """Phase 1 without KVL: with every z free, each line's angle row is
    slack, so this is the least largest overload of a flow that only
    balances the buses, one per row of ``closed``."""
    k, m = closed.shape
    lo, hi = np.tile(model.lp.lo, (k, 1)), np.tile(model.lp.hi, (k, 1))
    f, s = slice(model.f0, model.f0 + m), slice(model.s0, model.s0 + m)
    lo[:, f] = np.where(closed, -np.inf, 0.0)
    hi[:, f] = np.where(closed, np.inf, 0.0)
    hi[:, s] = np.where(closed, np.inf, 0.0)
    x = oracle._solve_blocks(model.lp, np.tile(model.overload, (k, 1)), lo, hi)
    return x[:, s].max(axis=1, initial=0.0)


SCREEN_CASES = {
    # bus 0 must export its p_min of 0.5 over two lines of 0.3
    "p-min": build_network([(0, 0.0), (1, 0.4), (2, 0.3)],
                           [(0, 0.5, 1.0, 1.0), (2, 0.0, 1.0, 2.0)],
                           [(0, 0, 1, 1.0, 0.3), (1, 0, 2, 2.0, 0.3), (2, 1, 2, 1.0, 0.5)]),
    # bus 1 has no generator and must export 0.4
    "negative-load": build_network([(0, 0.0), (1, -0.4), (2, 0.9)], [(0, 0.0, 1.0, 1.0)],
                                   [(0, 0, 1, 1.0, 0.25), (1, 1, 2, 1.0, 0.25),
                                    (2, 0, 2, 1.0, 0.6), (3, 1, 2, 2.0, 0.3)]),
    # lines 0 and 3 are closed in every topology
    "fixed-lines": build_network([(0, 0.0), (1, 0.5), (2, 0.5)], [(0, 0.0, 2.0, 1.0)],
                                 [(0, 0, 1, 1.0, 0.4, False), (1, 0, 1, 2.0, 0.3),
                                  (2, 1, 2, 1.0, 0.6), (3, 0, 2, 1.0, 0.4, False),
                                  (4, 0, 2, 1.0, 0.3)]),
    # with line 2 open, buses 1 and 2 need 0.1 + 0.2 = 0.30000000000000004
    # over line 0's 0.3, a shortfall that phase 1's tolerance absorbs
    "tight": build_network([(0, 0.0), (1, 0.1), (2, 0.2)], [(0, 0.0, 1.0, 1.0)],
                           [(0, 0, 1, 1.0, 0.3), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 0.05)]),
}
SCREEN_NETS = ([("random", s) for s in range(40)] + [("switching-prone", s) for s in range(20)]
               + [(name, None) for name in SCREEN_CASES])


@pytest.mark.parametrize("kind, seed", SCREEN_NETS,
                         ids=[k if s is None else f"{k}-{s}" for k, s in SCREEN_NETS])
def test_the_cut_screen_spares_phase_1_only_topologies_without_a_dispatch(monkeypatch, kind,
                                                                          seed):
    net = (random_connected_network(seed) if kind == "random"
           else switching_prone_network(seed) if kind == "switching-prone"
           else SCREEN_CASES[kind])
    model = oracle._Dispatch(net)
    # phase 1 on every topology that the component screen passes
    closed = np.array([model.closed(t) for t in _topologies(net)
                       if oracle._component_screen(net, t)]).reshape(-1, len(net.lines))
    overload = model.max_overload(closed)
    reached = []
    phase_1 = oracle._Dispatch.max_overload

    def recorded(self, chunk):
        reached.extend(map(tuple, chunk))
        return phase_1(self, chunk)

    monkeypatch.setattr(oracle._Dispatch, "max_overload", recorded)
    got = [tuple(mask) for mask in oracle.dispatchable(net, _topologies(net))]
    assert got == [tuple(mask) for mask, o in zip(closed, overload) if o <= oracle._OVERLOAD_TOL]
    # no topology that the cut screen keeps from phase 1 has a dispatch
    assert all(o > oracle._OVERLOAD_TOL for mask, o in zip(closed, overload)
               if tuple(mask) not in set(reached))
    # and each one that it passes has a flow without KVL, so the screen
    # counts the capacity of closed lines alone
    assert np.all(_transport_overload(model, np.array(reached).reshape(-1, len(net.lines)))
                  <= oracle._OVERLOAD_TOL)


def test_projection_equals_one_linprog_per_trial():
    w = (0.7, 1.3, 2.2)
    ext, prj = oracle._extended_system(w), oracle._projected_system(w)
    objectives = np.random.default_rng(8).standard_normal((40, 7))
    got_ext = oracle._maxima(ext, np.insert(objectives, [3] * 3, 0.0, axis=1))
    got_prj = oracle._maxima(prj, objectives)
    for c, ge, gp in zip(objectives, got_ext, got_prj):
        c_ext = np.concatenate([c[:3], np.zeros(3), c[3:]])
        r1 = linprog(-c_ext, A_ub=ext.a_ub, b_ub=ext.b_ub, A_eq=ext.a_eq, b_eq=ext.b_eq,
                     bounds=list(zip(ext.lo, ext.hi)), method="highs")
        r2 = linprog(-c, A_ub=prj.a_ub, b_ub=prj.b_ub, bounds=list(zip(prj.lo, prj.hi)),
                     method="highs")
        assert ge == pytest.approx(-r1.fun, rel=1e-9, abs=1e-9)
        assert gp == pytest.approx(-r2.fun, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("trials", [1, BATCH - 1, BATCH, BATCH + 1, 200])
def test_projection_makes_two_highs_calls_per_batch(monkeypatch, trials):
    calls = count_linprog(monkeypatch)
    assert check_projection_prop4((0.9, 1.4), trials=trials, seed=3) <= 1e-7
    assert calls[0] == 2 * ceil(trials / BATCH)


@pytest.mark.parametrize("k", [BATCH - 1, BATCH, BATCH + 1])
def test_blocks_across_a_batch_boundary_match_single_solves(monkeypatch, k):
    w = (1.1, 0.6, 1.8)
    objectives = np.random.default_rng(k).standard_normal((k, 6))
    calls = count_linprog(monkeypatch)
    box = oracle._hull_system(w)
    batched = oracle._maxima(box, objectives)
    assert calls[0] == ceil(k / BATCH)
    single = [oracle._maxima(box, c[None, :])[0] for c in objectives]
    np.testing.assert_allclose(batched, single, rtol=1e-9, atol=1e-9)


def test_a_batch_without_an_optimum_raises_with_the_highs_status():
    # x0 + x1 <= -1 with both columns in [0, 1]
    lp = oracle._Template(np.array([[1.0, 1.0]]), np.array([-1.0]), None, None,
                          np.zeros(2), np.ones(2))
    with pytest.raises(HighsStatusError, match="HiGHS status 2") as err:
        oracle._solve_blocks(lp, np.ones((3, 2)))
    assert err.value.status == 2


def test_separation_agreement_counts_a_separation_table_that_differs(monkeypatch):
    # the solver runs SeparationTable, so criterion 3 checks it against
    # the closed form too: a table that drops its last cut must be caught
    assert oracle.separation_agreement(np.random.default_rng(7), 300, max_len=6)[1] == 0

    class DropsLastCut(oracle.SeparationTable):
        def cuts(self, x):
            return super().cuts(x)[:-1]

    monkeypatch.setattr(oracle, "SeparationTable", DropsLastCut)
    emitted, disagreements = oracle.separation_agreement(np.random.default_rng(7), 300,
                                                         max_len=6)
    assert emitted > 0 and disagreements == emitted
