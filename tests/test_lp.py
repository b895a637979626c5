"""Tests for the bounded-variable simplex core."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from dcots.lp import LinearProgram, add_rows, solve

INF = float("inf")


def test_single_variable_lower_bound():
    lp = LinearProgram()
    x = lp.add_col(cost=1.0, lo=0.0)
    lp.add_row([(x, 1.0)], ">=", 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(1.0)
    assert sol.x[0] == pytest.approx(1.0)


def test_two_variable_known_optimum():
    lp = LinearProgram()
    x = lp.add_col(cost=-1.0, lo=0.0)
    y = lp.add_col(cost=-2.0, lo=0.0, hi=2.0)
    lp.add_row([(x, 1.0), (y, 1.0)], "<=", 4.0)
    lp.add_row([(x, 1.0)], "<=", 3.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(-6.0)
    assert sol.x == pytest.approx([2.0, 2.0])


def test_equality_row_with_free_variable():
    lp = LinearProgram()
    x1 = lp.add_col(cost=1.0)
    x2 = lp.add_col(cost=1.0, lo=-3.0, hi=3.0)
    lp.add_row([(x1, 1.0), (x2, -1.0)], "==", 1.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.obj == pytest.approx(-5.0)
    assert sol.x == pytest.approx([-2.0, -3.0])


def test_unbounded():
    lp = LinearProgram()
    x1 = lp.add_col(cost=1.0)
    x2 = lp.add_col(cost=1.0)
    lp.add_row([(x1, 1.0), (x2, -1.0)], "==", 1.0)
    assert solve(lp).status == "unbounded"


def test_infeasible():
    lp = LinearProgram()
    x = lp.add_col(cost=0.0, lo=0.0, hi=10.0)
    lp.add_row([(x, 1.0)], ">=", 2.0)
    lp.add_row([(x, 1.0)], "<=", 1.0)
    assert solve(lp).status == "infeasible"


def test_fixed_variable():
    lp = LinearProgram()
    x = lp.add_col(cost=-1.0, lo=2.0, hi=2.0)
    y = lp.add_col(cost=1.0, lo=0.0)
    lp.add_row([(x, 1.0), (y, 1.0)], ">=", 5.0)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([2.0, 3.0])


def test_duplicate_coefficients_accumulate():
    lp = LinearProgram()
    x = lp.add_col(cost=1.0, lo=0.0)
    lp.add_row([(x, 1.0), (x, 1.0)], ">=", 4.0)
    sol = solve(lp)
    assert sol.obj == pytest.approx(2.0)


def _random_lp(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    lp = LinearProgram()
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            lo, hi = 0.0, INF
        elif kind == 1:
            lo, hi = -INF, INF
        elif kind == 2:
            lo, hi = float(rng.normal()), INF
            lo, hi = min(lo, 0.0), 5.0 + abs(rng.normal())
        else:
            lo = float(-1 - abs(rng.normal()))
            hi = float(1 + abs(rng.normal()))
        lp.add_col(cost=float(rng.normal()), lo=lo, hi=hi)
    for _ in range(m):
        coeffs = [(j, float(rng.normal())) for j in range(n) if rng.random() < 0.7]
        if not coeffs:
            coeffs = [(0, 1.0)]
        sense = ["<=", ">=", "=="][rng.integers(0, 3)]
        lp.add_row(coeffs, sense, float(rng.normal()))
    return lp


def _scipy_reference(lp):
    n = lp.n_cols
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in lp.rows:
        row = np.zeros(n)
        for c, v in coeffs:
            row[c] += v
        if sense == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        elif sense == ">=":
            a_ub.append(-row)
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(lp.lo, lp.hi)]
    # presolve off: with it on, HiGHS labels some feasible unbounded
    # problems infeasible, which muddies status comparisons
    return linprog(lp.obj,
                   A_ub=np.array(a_ub) if a_ub else None,
                   b_ub=np.array(b_ub) if b_ub else None,
                   A_eq=np.array(a_eq) if a_eq else None,
                   b_eq=np.array(b_eq) if b_eq else None,
                   bounds=bounds, method="highs", options={"presolve": False})


def test_random_lps_match_reference():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(80):
        lp = _random_lp(rng)
        ref = _scipy_reference(lp)
        sol = solve(lp)
        if ref.status == 0:
            assert sol.status == "optimal", f"reference optimal, got {sol.status}"
            assert sol.obj == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            checked += 1
        elif ref.status == 2:
            assert sol.status == "infeasible"
        elif ref.status == 3:
            assert sol.status == "unbounded"
    assert checked >= 20  # the sample must actually exercise optimal solves


def test_add_rows_warm_resolve_matches_cold():
    lp = LinearProgram()
    x = lp.add_col(cost=-1.0, lo=0.0, hi=4.0)
    y = lp.add_col(cost=-1.0, lo=0.0, hi=4.0)
    lp.add_row([(x, 1.0), (y, 1.0)], "<=", 6.0)
    first = solve(lp)
    assert first.obj == pytest.approx(-6.0)
    cut = [([(x, 1.0)], "<=", 1.5)]
    bigger = add_rows(lp, cut)
    warm = solve(bigger, warm=first.basis)
    cold = solve(bigger)
    assert warm.status == cold.status == "optimal"
    assert warm.obj == pytest.approx(cold.obj)
    assert warm.obj == pytest.approx(-5.5)
    assert warm.obj >= first.obj - 1e-9  # a cut can only worsen a minimum


def test_add_rows_monotone_on_random_lps():
    rng = np.random.default_rng(99)
    for _ in range(30):
        lp = _random_lp(rng)
        base = solve(lp)
        if base.status != "optimal":
            continue
        j = int(rng.integers(0, lp.n_cols))
        extra = [([(j, 1.0)], "<=", float(base.x[j] - abs(rng.normal()) - 0.1))]
        bigger = add_rows(lp, extra)
        warm = solve(bigger, warm=base.basis)
        cold = solve(bigger)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert warm.obj == pytest.approx(cold.obj, abs=1e-6, rel=1e-6)
            assert warm.obj >= base.obj - 1e-7 * (1 + abs(base.obj))


def test_bound_tightening_warm_resolve():
    lp = LinearProgram()
    x = lp.add_col(cost=-2.0, lo=0.0, hi=1.0)
    y = lp.add_col(cost=-1.0, lo=0.0, hi=1.0)
    lp.add_row([(x, 1.0), (y, 1.0)], "<=", 1.5)
    relaxed = solve(lp)
    assert relaxed.obj == pytest.approx(-2.5)
    branched = lp.copy()
    branched.set_bounds(x, 0.0, 0.0)
    warm = solve(branched, warm=relaxed.basis)
    cold = solve(branched)
    assert warm.status == cold.status == "optimal"
    assert warm.obj == pytest.approx(cold.obj) == pytest.approx(-1.0)


def test_determinism():
    rng = np.random.default_rng(5)
    lp = _random_lp(rng)
    a = solve(lp)
    b = solve(lp)
    assert a.status == b.status
    if a.status == "optimal":
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)


def test_degenerate_transport_problem():
    # a classically degenerate transportation LP
    lp = LinearProgram()
    cost = [[4, 1, 3], [2, 5, 2], [3, 2, 1]]
    cols = {}
    for i in range(3):
        for j in range(3):
            cols[i, j] = lp.add_col(cost=float(cost[i][j]), lo=0.0)
    supply = [10.0, 10.0, 10.0]
    demand = [10.0, 10.0, 10.0]
    for i in range(3):
        lp.add_row([(cols[i, j], 1.0) for j in range(3)], "==", supply[i])
    for j in range(3):
        lp.add_row([(cols[i, j], 1.0) for i in range(3)], "==", demand[j])
    sol = solve(lp)
    assert sol.status == "optimal"
    ref = _scipy_reference(lp)
    assert sol.obj == pytest.approx(ref.fun)
