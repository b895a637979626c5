"""Tests for the bounded-variable simplex core."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import dcots.lp
from dcots import cyclebasis
from dcots.formulations import build_ots_angle
from dcots.lp import (FEAS_TOL, OPT_TOL, PIVOT_TOL, _BASIC, _FREE, _LOWER, _UPPER, LinearProgram,
                      SimplexError, _Engine, add_rows, solve)
from dcots.network import parse_native, random_connected_network
from dcots.solver import SolverConfig, strengthen_root

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import ladder  # noqa: E402

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
    sol = solve(lp)
    assert sol.status == "unbounded" and sol.farkas is None


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


def test_an_objective_that_overflows_raises_simplex_error():
    # 1e308 * 2 is past the largest float: no optimum has a finite value
    lp = LinearProgram()
    lp.add_col(cost=1e308, lo=2.0, hi=3.0)
    with pytest.raises(SimplexError, match="floating-point"):
        solve(lp)


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


def _random_large_lp(rng):
    """A random sparse program of 60-150 rows, built around a point inside
    the column bounds that every row admits, except a row that now and
    then is drawn to cut it off; costs push half-bounded columns towards
    their finite bound."""
    m = int(rng.integers(60, 151))
    n = m + int(rng.integers(0, m // 2 + 1))
    lp = LinearProgram()
    x0 = np.empty(n)
    for j in range(n):
        kind = rng.choice(4, p=[0.5, 0.2, 0.15, 0.15])
        lo, hi = [(-rng.random(), 1 + 3 * rng.random()), (0.0, INF), (-INF, INF), (-INF, 2.0)][kind]
        x0[j] = rng.uniform(max(lo, -3.0), min(hi, 3.0))
        cost = [rng.normal(), abs(rng.normal()), 0.0, -abs(rng.normal())][kind]
        lp.add_col(cost=float(cost), lo=float(lo), hi=float(hi))
    for _ in range(m):
        cols = rng.choice(n, size=int(rng.integers(2, 9)), replace=False)
        coeffs = [(int(c), float(rng.normal())) for c in cols]
        act = sum(v * x0[c] for c, v in coeffs)
        sense = ["<=", ">=", "=="][rng.integers(0, 3)]
        gap = abs(rng.normal()) if rng.random() < 0.97 else -abs(rng.normal())
        lp.add_row(coeffs, sense, float(act + gap if sense == "<=" else
                                        act - gap if sense == ">=" else act))
    return lp


def _assert_matches_reference(lp, sol) -> bool:
    """``sol`` has the status and objective HiGHS finds; True if optimal."""
    ref = _scipy_reference(lp)
    want = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(ref.status)
    if want is None:
        return False
    assert sol.status == want, f"reference {want}, got {sol.status}"
    if want == "optimal":
        assert sol.obj == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
    return want == "optimal"


def _cut_through(lp, sol, rng, k=1):
    """``lp`` with ``k`` random rows that each cut ``sol.x`` off."""
    rows = rng.normal(size=(k, lp.n_cols))
    return add_rows(lp, [(list(enumerate(row)), "<=", float(row @ sol.x) - 0.5) for row in rows])


def test_random_lps_match_reference():
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(80):
        lp = _random_lp(rng)
        checked += _assert_matches_reference(lp, solve(lp))
    assert checked >= 20  # the sample must actually exercise optimal solves


@pytest.mark.parametrize("refactor_every", [dcots.lp.REFACTOR_EVERY, 3])
def test_large_random_lps_match_reference(monkeypatch, refactor_every):
    monkeypatch.setattr(dcots.lp, "REFACTOR_EVERY", refactor_every)
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(6):
        lp = _random_large_lp(rng)
        sol = solve(lp)
        assert sol.iterations > 50
        if _assert_matches_reference(lp, sol):
            bigger = _cut_through(lp, sol, rng)  # re-solved by the dual simplex
            checked += _assert_matches_reference(bigger, solve(bigger, warm=sol.basis))
    assert checked >= 3


@pytest.fixture
def carried_state(monkeypatch):
    """Checks, at every simplex step, the state the loops carry against a
    fresh evaluation.  Where a loop checks the basic values against their
    bounds (``sides`` in the primal, ``violation`` in the dual), the
    values the engine holds (each nonbasic one at the bound its status
    names, the basic ones in ``xb`` by row) must equal ``evaluate()``
    (nonbasic values exactly, basic ones to 1e-9), the evaluation must
    leave ``xb`` as it was, and no refactorization may have happened
    since the last ``values()``; at every dual ratio test, the dual's
    reduced costs must equal ``reduced(c)`` to 1e-9.  Yields the counts
    of checks made."""
    seen = {"x": 0, "d": 0, "refreshed": 0}
    real_values, real_sides, real_violation = _Engine.values, _Engine.sides, _Engine.violation
    real_refactor, real_dual_ratio = _Engine.refactor, _Engine.dual_ratio

    def values(self):
        seen["refreshed"] += getattr(self, "stale", False)
        self.stale = False
        return real_values(self)

    def check(self):
        assert not getattr(self, "stale", False), "values carried past a refactorization"
        xb, carried = self.xb, self.xb.copy()
        fresh, _ = self.evaluate()
        assert self.xb is xb and np.array_equal(xb, carried)  # evaluating changed nothing
        held = np.array([self.lo[v] if s == _LOWER else self.hi[v] if s == _UPPER else 0.0
                         for v, s in enumerate(self.stat)])
        held[self.basic] = xb
        nonbasic = self.stat != _BASIC
        assert np.array_equal(held[nonbasic], fresh[nonbasic])
        np.testing.assert_allclose(xb, fresh[self.basic], rtol=1e-9, atol=1e-9)
        seen["x"] += 1

    def sides(self):
        check(self)
        return real_sides(self)

    def violation(self):
        check(self)
        return real_violation(self)

    def refactor(self):
        self.stale = True
        return real_refactor(self)

    def dual_ratio(self, alpha, d, going_up):
        np.testing.assert_allclose(d, self.reduced(self.c), rtol=1e-9, atol=1e-9)
        seen["d"] += 1
        return real_dual_ratio(self, alpha, d, going_up)

    for name, fn in (("values", values), ("sides", sides), ("violation", violation),
                     ("refactor", refactor), ("dual_ratio", dual_ratio)):
        monkeypatch.setattr(_Engine, name, fn)
    yield seen


@pytest.mark.parametrize("refactor_every", [dcots.lp.REFACTOR_EVERY, 3])
def test_the_loops_carry_what_a_fresh_evaluation_gives(monkeypatch, carried_state,
                                                       refactor_every):
    monkeypatch.setattr(dcots.lp, "REFACTOR_EVERY", refactor_every)
    rng = np.random.default_rng(47)
    for _ in range(3):
        lp = _random_large_lp(rng)
        sol = solve(lp)  # primal phases 1 and 2
        if sol.status == "optimal":
            warm = solve(_cut_through(lp, sol, rng, k=8), warm=sol.basis)
            assert not warm.cold_start and warm.iterations > 0  # the dual simplex
    assert carried_state["x"] > 300 and carried_state["d"] > 10
    assert carried_state["refreshed"] > 0  # refactorizations inside the loops


@pytest.fixture
def carried_by_row(monkeypatch):
    """Checks before and after every simplex step that the state carried
    by row and by variable is what the basic list and the statuses give:
    ``sgn``, ``lob`` and ``hib`` equal ``_SIGN[stat] * movable``,
    ``lo[basic]`` and ``hi[basic]`` exactly.  Yields counts of the steps
    checked, the bound flips and steps in Bland mode among them, installs
    that extend a factor by appended rows, and cold starts after an
    install (fallbacks)."""
    seen = dict.fromkeys(("steps", "flips", "bland", "extended", "fallbacks"), 0)
    real_step, real_install, real_slack_start = _Engine.step, _Engine.install, _Engine.slack_start

    def check(self):
        assert np.array_equal(self.sgn, dcots.lp._SIGN[self.stat] * self.movable)
        assert np.array_equal(self.lob, self.lo[self.basic])
        assert np.array_equal(self.hib, self.hi[self.basic])
        assert self.xb.shape == self.basic.shape == (self.m,)

    def step(self, j, theta, w, r, leave_stat):
        check(self)
        seen["steps"] += 1
        seen["flips"] += r < 0
        seen["bland"] += self.bland
        fresh = real_step(self, j, theta, w, r, leave_stat)
        check(self)
        return fresh

    def install(self, basis):
        done = real_install(self, basis)
        seen["extended"] += done and basis.a.shape[0] < self.m
        self.installed = done
        return done

    def slack_start(self):
        seen["fallbacks"] += getattr(self, "installed", False)
        real_slack_start(self)

    for name, fn in (("step", step), ("install", install), ("slack_start", slack_start)):
        monkeypatch.setattr(_Engine, name, fn)
    yield seen


@pytest.mark.parametrize("bland", [False, True])
@pytest.mark.parametrize("refactor_every", [dcots.lp.REFACTOR_EVERY, 3])
def test_the_state_carried_by_row_follows_the_basis(monkeypatch, carried_by_row,
                                                    refactor_every, bland):
    monkeypatch.setattr(dcots.lp, "REFACTOR_EVERY", refactor_every)
    if bland:  # the first steps of each solve in Bland mode, which is slow on these sizes
        real_note_step = _Engine.note_step

        def note_step(self, t):
            real_note_step(self, t)
            self.bland |= self.iterations - self.budget_start <= 40  # of this attempt
        monkeypatch.setattr(_Engine, "note_step", note_step)
    rng = np.random.default_rng(48)
    for _ in range(3):
        lp = _random_large_lp(rng)
        sol = solve(lp)
        if sol.status == "optimal":
            bigger = _cut_through(lp, sol, rng, k=8)
            solve(bigger, warm=sol.basis)  # an install that extends by rows
    # a warm start that fails after a few dual steps falls back to a cold start
    real_check_budget, failures = _Engine.check_budget, [1]

    def check_budget(self):
        if self.iterations >= 3 and failures:
            failures.pop()
            raise SimplexError("iteration limit exceeded (simulated)")
        real_check_budget(self)
    monkeypatch.setattr(_Engine, "check_budget", check_budget)
    fallback = solve(bigger, warm=sol.basis)
    assert fallback.cold_start and not failures
    # the three abandoned dual steps count among the fallback's iterations
    _same_solve(dataclasses.replace(fallback, iterations=fallback.iterations - 3), solve(bigger))
    seen = carried_by_row
    assert seen["steps"] > 300 and seen["flips"] > 0 and seen["extended"] >= 2
    assert seen["fallbacks"] == 1
    assert (seen["bland"] > 100) if bland else (seen["bland"] == 0)


def _ratio_by_row(eng, j, delta, w, x):
    """The primal ratio test written out one row at a time: the reference
    that ``_Engine.ratio`` must reproduce exactly.  Also returns the
    (t, row, leaving status) of the rows tied at the smallest step."""
    blocks = []
    for r, v in enumerate(eng.basic):
        rate = -delta * w[r]
        below, above = x[v] < eng.lo[v] - FEAS_TOL, x[v] > eng.hi[v] + FEAS_TOL
        if rate > PIVOT_TOL and not above:
            bound, stat = (eng.lo[v], _LOWER) if below else (eng.hi[v], _UPPER)
        elif rate < -PIVOT_TOL and not below:
            bound, stat = (eng.hi[v], _UPPER) if above else (eng.lo[v], _LOWER)
        else:
            continue
        if np.isfinite(bound):
            blocks.append((max((bound - x[v]) / rate, 0.0), r, stat))
    t_flip = eng.hi[j] - eng.lo[j] if eng.stat[j] != _FREE else INF
    t_min = min((t for t, _, _ in blocks), default=INF)
    if t_flip == INF and t_min == INF:
        return (INF, -1, 0), []
    if t_flip < t_min - PIVOT_TOL:
        return (t_flip, -1, 0), []
    ties = [b for b in blocks if b[0] <= t_min + PIVOT_TOL]
    if eng.bland:  # the lowest basic variable
        return min(ties, key=lambda b: eng.basic[b[1]]), ties
    return min(ties, key=lambda b: (-abs(w[b[1]]), b[1])), ties  # the largest |w|, first row


# (lo, hi) of the variables: finite and infinite bounds on either side, fixed
_RATIO_BOUNDS = [(0.0, INF), (-INF, 0.0), (-1.0, 2.0), (0.0, 1.0), (-INF, INF), (0.5, 0.5)]


def _ratio_state(eng, rng):
    """A random basis, bounds and basic values for ``eng``: basic values
    below, at, within and above their bounds, many steps tied in ``t``
    and in ``|w|``; returns (j, delta, w, x)."""
    n_vars, m = eng.N, eng.m
    kinds = rng.integers(len(_RATIO_BOUNDS), size=n_vars)
    eng.lo = np.array([_RATIO_BOUNDS[k][0] for k in kinds])
    eng.hi = np.array([_RATIO_BOUNDS[k][1] for k in kinds])
    eng.movable = 1.0 - (eng.lo == eng.hi)
    basic = rng.permutation(n_vars)[:m]
    stat = np.where(np.isfinite(eng.lo), _LOWER, np.where(np.isfinite(eng.hi), _UPPER, _FREE))
    stat[basic] = _BASIC
    eng.bland = bool(rng.random() < 0.3)
    j = int(rng.choice([v for v in range(n_vars) if stat[v] != _BASIC
                        and eng.lo[v] < eng.hi[v]]))
    if stat[j] == _LOWER and np.isfinite(eng.hi[j]) and rng.random() < 0.5:
        stat[j] = _UPPER
    delta = {_LOWER: 1.0, _UPPER: -1.0}.get(int(stat[j]), float(rng.choice([-1.0, 1.0])))
    w = rng.choice([0.0, 0.5e-9, 0.5, 1.0, 2.0], size=m) * rng.choice([-1.0, 1.0], size=m)
    x = np.zeros(n_vars)
    t_common = float(rng.choice([0.5, 1.5]))
    for r, v in enumerate(basic):
        lo, hi, rate = eng.lo[v], eng.hi[v], -delta * w[r]
        finite = [b for b in (lo, hi) if np.isfinite(b)]
        place = rng.integers(6)
        if not finite or place == 0:
            x[v] = rng.uniform(max(lo, -3.0), min(hi, 3.0)) if lo < hi else lo
        elif place == 1:  # outside, beyond the tolerance
            x[v] = lo - rng.uniform(0.1, 2.0) if np.isfinite(lo) else hi + rng.uniform(0.1, 2.0)
        elif place == 2:
            x[v] = hi + rng.uniform(0.1, 2.0) if np.isfinite(hi) else lo - rng.uniform(0.1, 2.0)
        elif place == 3:  # at a bound, up to the tolerance: a degenerate step
            x[v] = rng.choice(finite) + rng.uniform(-0.5, 0.5) * FEAS_TOL
        else:  # a step of t_common from a bound, tying with other rows
            x[v] = rng.choice(finite) - t_common * rate
    eng.set_basis(basic, stat, x[basic])
    return j, delta, w, x


def test_the_ratio_test_matches_a_row_by_row_reference():
    lp = LinearProgram([0.0] * 10, [0.0] * 10, [1.0] * 10,
                       [([(c, 1.0)], "<=", 1.0) for c in range(8)])
    eng = _Engine(lp)
    rng = np.random.default_rng(2014)
    seen = dict.fromkeys(("flip", "unbounded", "below", "above", "within",
                          "ties on |w|", "Bland ties"), 0)
    for _ in range(3000):
        j, delta, w, x = _ratio_state(eng, rng)
        got = eng.ratio(j, delta, w, eng.sides())
        want, ties = _ratio_by_row(eng, j, delta, w, x)
        assert got == want and type(got[1]) is int and type(got[2]) is int
        t, r, _ = got
        if r < 0:
            seen["flip" if t < INF else "unbounded"] += 1
            continue
        v = eng.basic[r]
        seen["below" if x[v] < eng.lo[v] - FEAS_TOL else
             "above" if x[v] > eng.hi[v] + FEAS_TOL else "within"] += 1
        if r != ties[0][1]:  # a tie the rule breaks away from the first tied row
            seen["Bland ties" if eng.bland else "ties on |w|"] += 1
    assert all(seen.values()), seen


def _price_by_row(eng, d):
    """``_Engine.price`` one variable at a time: the first variable whose
    reduced cost improves by more than OPT_TOL in Bland mode, else the
    first of the largest scores, -1 if none improves; and the scores."""
    scores = [max(abs(d[v]) - OPT_TOL, 0.0) if eng.stat[v] == _FREE
              else max(-(eng.sgn[v] * d[v]) - OPT_TOL, 0.0) for v in range(eng.N)]
    best, pick = 0.0, -1
    for v, score in enumerate(scores):
        if score > 0.0 and eng.bland:
            return v, scores
        if score > best:
            best, pick = score, v
    return pick, scores


def _dual_ratio_by_row(eng, alpha, d, going_up):
    """``_Engine.dual_ratio`` one variable at a time: among the variables
    that move the leaving one towards its violated bound, the smallest
    ``|d| / |alpha|``, ties within OPT_TOL to the largest ``|alpha|`` and
    then the first variable; also the number of candidates and of ties."""
    cands = []
    for v in range(eng.N):
        if eng.stat[v] == _FREE:
            moves = abs(alpha[v]) > PIVOT_TOL
        else:
            step = eng.sgn[v] * alpha[v]
            moves = step < -PIVOT_TOL if going_up else step > PIVOT_TOL
        if moves:
            cands.append((abs(d[v]) / abs(alpha[v]), v))
    if not cands:
        return -1, 0, 0
    t_min = min(t for t, _ in cands)
    ties = [v for t, v in cands if t <= t_min + OPT_TOL]
    return max(ties, key=lambda v: (abs(alpha[v]), -v)), len(cands), len(ties)


def _signed_choice(rng, values, size):
    return rng.choice(values, size=size) * rng.choice([-1.0, 1.0], size=size)


def test_pricing_matches_a_row_by_row_reference():
    lp = LinearProgram([0.0] * 10, [0.0] * 10, [1.0] * 10,
                       [([(c, 1.0)], "<=", 1.0) for c in range(8)])
    eng = _Engine(lp)
    rng = np.random.default_rng(2015)
    seen = dict.fromkeys(("none", "Bland", "tie to the first", "free"), 0)
    for _ in range(3000):
        _ratio_state(eng, rng)
        eng.any_free = bool((eng.stat == _FREE).any())
        # few distinct magnitudes, so that scores tie; some within OPT_TOL
        d = _signed_choice(rng, [0.0, 0.5 * OPT_TOL, 1.0, 2.0], eng.N)
        got = eng.price(d)
        want, scores = _price_by_row(eng, d)
        assert got == want and type(got) is int
        if got < 0:
            seen["none"] += 1
        elif eng.bland:
            seen["Bland"] += 1
        elif eng.stat[got] == _FREE:
            seen["free"] += 1
        elif scores.count(scores[got]) > 1:
            seen["tie to the first"] += 1
    assert all(seen.values()), seen


def test_the_dual_ratio_test_matches_a_row_by_row_reference():
    lp = LinearProgram([0.0] * 10, [0.0] * 10, [1.0] * 10,
                       [([(c, 1.0)], "<=", 1.0) for c in range(8)])
    eng = _Engine(lp)
    rng = np.random.default_rng(2016)
    seen = dict.fromkeys(("none", "one candidate", "one tie", "ties on |alpha|", "free"), 0)
    for _ in range(3000):
        _ratio_state(eng, rng)
        eng.any_free = bool((eng.stat == _FREE).any())
        alpha = _signed_choice(rng, [0.0, 0.5 * PIVOT_TOL, 0.5, 1.0, 2.0], eng.N)
        d = _signed_choice(rng, [0.0, 0.5 * OPT_TOL, 0.5, 1.0], eng.N)
        going_up = bool(rng.random() < 0.5)
        got = eng.dual_ratio(alpha, d, going_up)
        want, n_cands, n_ties = _dual_ratio_by_row(eng, alpha, d, going_up)
        assert got == want and type(got) is int
        if got < 0:
            seen["none"] += 1
            continue
        seen["free"] += eng.stat[got] == _FREE
        seen["one candidate" if n_cands == 1 else "one tie" if n_ties == 1
             else "ties on |alpha|"] += 1
    assert all(seen.values()), seen


def test_pivot_updates_the_inverse_in_place():
    lp = _random_large_lp(np.random.default_rng(5))
    sol = solve(lp)
    assert sol.status == "optimal"
    stored = sol.basis.binv.copy()
    eng = _Engine(lp)
    starts = (lambda: eng.install(sol.basis),  # a copy of the stored, read-only inverse
              eng.slack_start,                 # an identity
              eng.refactor)                    # an inverse computed afresh
    for start in starts:
        start()
        eng.pivots_since_refactor = 0
        for _ in range(5):
            j = next(j for j in range(eng.n) if eng.stat[j] != 3 and eng.movable[j])
            w = eng.binv @ eng.A[:, j]
            buf = eng.binv
            assert not eng.pivot(int(np.abs(w).argmax()), j, w, dcots.lp._LOWER)
            assert eng.binv is buf and buf.flags.c_contiguous
            _assert_inverse(eng)
    assert np.array_equal(sol.basis.binv, stored)  # the copy took the pivots


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


def _box_lp():
    """minimize -u - v subject to u + v <= 6, u and v in [0, 4]."""
    lp = LinearProgram()
    u = lp.add_col(cost=-1.0, lo=0.0, hi=4.0)
    v = lp.add_col(cost=-1.0, lo=0.0, hi=4.0)
    lp.add_row([(u, 1.0), (v, 1.0)], "<=", 6.0)
    return lp


def _assert_warm_matches_cold(lp, basis):
    warm = solve(lp, warm=basis)
    cold = solve(lp)
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.obj == pytest.approx(cold.obj, abs=1e-9)
    return warm


def test_warm_start_after_a_free_column_gets_finite_bounds():
    lp = LinearProgram()
    u = lp.add_col(cost=-1.0, lo=0.0, hi=3.0)
    z = lp.add_col(cost=0.0)
    lp.add_row([(u, 1.0), (z, 1.0)], "<=", 4.0)
    first = solve(lp)
    assert first.basis.stat.tolist() == [1, 2, 3]  # z is nonbasic and free at zero
    boxed = lp.copy()
    boxed.set_bounds(z, 2.0, 5.0)
    assert _assert_warm_matches_cold(boxed, first.basis).obj == pytest.approx(-2.0)


def test_warm_start_after_a_bound_is_made_infinite():
    lp = LinearProgram()
    u = lp.add_col(cost=1.0, lo=0.0, hi=4.0)
    v = lp.add_col(cost=-2.0, lo=0.0, hi=4.0)
    lp.add_row([(u, 1.0), (v, 1.0)], "<=", 6.0)
    first = solve(lp)
    assert first.basis.stat.tolist() == [0, 1, 3]  # u at its lower bound, v at its upper
    no_upper = lp.copy()
    no_upper.set_bounds(v, 0.0, INF)
    assert _assert_warm_matches_cold(no_upper, first.basis).obj == pytest.approx(-12.0)
    for lo, hi in ((-INF, 4.0), (-INF, INF)):
        no_lower = lp.copy()
        no_lower.set_bounds(u, lo, hi)
        assert _assert_warm_matches_cold(no_lower, first.basis).status == "unbounded"


def test_warm_basis_from_a_larger_lp_is_not_used():
    lp = _box_lp()
    bigger = add_rows(lp, [([(0, 1.0)], "<=", 1.5), ([(1, 1.0)], ">=", 0.5)])
    big = solve(bigger)
    assert big.status == "optimal"
    sol = _assert_warm_matches_cold(lp, big.basis)
    assert sol.obj == pytest.approx(-6.0)
    assert sol.iterations == solve(lp).iterations  # solved cold


def _switching_model():
    return build_ots_angle(random_connected_network(0, max_buses=8, max_extra_lines=4))


def _fractional(model, sol):
    return [c for c in sorted(model.integer_cols) if 1e-6 < sol.x[c] < 1 - 1e-6]


def _switching_root():
    """Root LP of a small switching model, its solution and a fractional line."""
    model = _switching_model()
    root = solve(model.lp)
    return model.lp, root, _fractional(model, root)[0]


def _same_basis(got, want):
    """Whether two bases have the same basic list and statuses."""
    return (got is None) == (want is None) and (got is None or (
        np.array_equal(got.basic, want.basic) and np.array_equal(got.stat, want.stat)))


def _same_solve(got, want):
    assert (got.status, got.obj, got.iterations) == (want.status, want.obj, want.iterations)
    assert _same_basis(got.basis, want.basis)
    assert (got.x is None) == (want.x is None)
    assert got.x is None or np.array_equal(got.x, want.x)


def _close_solve(got, want, lp):
    """The same outcome up to rounding: a warm solve and a cold one pivot
    differently and carry different inverses.  Both end at the same point
    when they end in the same basis; else at optima of a degenerate
    program that differ, both feasible and of the same objective."""
    assert got.status == want.status
    if want.status != "optimal":
        return
    assert got.obj == pytest.approx(want.obj, rel=1e-9)
    if _same_basis(got.basis, want.basis):
        np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-9)
    d = lp.dense()
    slack = d.b - d.a @ got.x
    tol = 1e-7
    assert np.all(slack >= d.slack[:, 0] - tol) and np.all(slack <= d.slack[:, 1] + tol)
    assert np.all(got.x >= np.array(lp.lo) - tol) and np.all(got.x <= np.array(lp.hi) + tol)


def _with_slacks(eng):
    """``[A | I]``, which the engine only indexes, as a reference to test against."""
    return np.hstack([eng.A, np.eye(eng.m)])


def _assert_inverse(eng):
    np.testing.assert_allclose(eng.binv @ _with_slacks(eng)[:, eng.basic], np.eye(eng.m),
                               rtol=0, atol=1e-9)


@pytest.fixture
def inversions(monkeypatch):
    """A list that gains the shape of the argument of each ``np.linalg.inv`` call."""
    calls, real_inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or real_inv(a))
    return calls


def _dense_engine(rng, n=12, m=8):
    """An engine over ``m`` rows of ``n`` random dense coefficients."""
    rows = [(list(enumerate(rng.normal(size=n))), "<=", 1.0) for _ in range(m)]
    return _Engine(LinearProgram([0.0] * n, [0.0] * n, [1.0] * n, rows))


def _make_basic(eng, basic):
    """Make ``basic`` the basic list, with every other variable at its lower bound."""
    stat = np.full(eng.N, _LOWER)
    stat[basic] = _BASIC
    eng.set_basis(np.asarray(basic), stat)


def _set_basis(eng, structurals, slack_rows, rng):
    """Make the given structurals and slacks basic, in a random row order."""
    _make_basic(eng, rng.permutation(np.concatenate([structurals, eng.n + slack_rows])))


@pytest.mark.parametrize("k", [0, 1, 4, 7, 8])
def test_refactor_inverts_only_the_structural_block(inversions, k):
    rng = np.random.default_rng(100 + k)
    for _ in range(5):
        eng = _dense_engine(rng)
        _set_basis(eng, rng.choice(eng.n, size=k, replace=False),
                   rng.choice(eng.m, size=eng.m - k, replace=False), rng)
        inversions.clear()
        assert eng.refactor()
        _assert_inverse(eng)
        # one k x k inversion; none when every basic variable is a slack
        assert inversions == ([(k, k)] if k else [])
        assert eng.pivots_since_refactor == 0 and eng.refactorizations == 1


def test_refactor_of_a_singular_structural_block_fails():
    # columns 0 and 1 are equal on rows 0-2 and differ on row 3: with row
    # 3's slack basic their block is singular, with it nonbasic it is not
    rows = [([(0, v), (1, v), (2, 1.0)], "<=", 1.0) for v in (1.0, 2.0, -3.0)] + \
        [([(0, 1.0), (1, -1.0)], "<=", 1.0)]
    eng = _Engine(LinearProgram([0.0] * 3, [0.0] * 3, [1.0] * 3, rows))
    for slacks in ([3, 0], [1, 3]):
        _make_basic(eng, [0, 1, *(eng.n + r for r in slacks)])
        before = eng.binv = np.eye(eng.m)
        assert not eng.refactor()
        assert eng.binv is before
    _make_basic(eng, [0, 1, eng.n + 2, eng.n + 0])
    assert eng.refactor()
    _assert_inverse(eng)
    # a block whose inverse overflows fails too
    tiny = _Engine(LinearProgram([0.0], [0.0], [1.0], [([(0, 1e-320)], "<=", 1.0)]))
    _make_basic(tiny, [0])
    assert not tiny.refactor()


def test_row_and_column_products_skip_the_identity_block():
    rng = np.random.default_rng(9)
    for k in (0, 3, 8):
        eng = _dense_engine(rng)
        _set_basis(eng, rng.choice(eng.n, size=k, replace=False),
                   rng.choice(eng.m, size=eng.m - k, replace=False), rng)
        assert eng.refactor()
        full = _with_slacks(eng)
        y = rng.normal(size=eng.m)
        np.testing.assert_allclose(eng.row(y), y @ full, rtol=0, atol=1e-12)
        for j in range(eng.N):
            w = eng.column(j)
            np.testing.assert_allclose(w, eng.binv @ full[:, j], rtol=0, atol=1e-12)
            assert not np.shares_memory(w, eng.binv)  # a pivot writes into the inverse
        x = rng.normal(size=eng.N)
        eng.lo = x
        _make_basic(eng, eng.basic)
        want = x.copy()
        want[eng.basic] = eng.binv @ (eng.b - full @ np.where(eng.stat == _BASIC, 0.0, x))
        np.testing.assert_allclose(eng.values(), want, rtol=0, atol=1e-12)


# root LPs of the benchmark's basic root ops: 205 rows on 5x5, 300 on 6x6
LADDER_ROOTS = [(5, 5, 0), (5, 5, 1), (6, 6, 0), (6, 6, 2)]


@pytest.mark.parametrize("refactor_every", [dcots.lp.REFACTOR_EVERY, 3])
def test_root_lps_of_ladder_grids_match_reference(monkeypatch, inversions, refactor_every):
    monkeypatch.setattr(dcots.lp, "REFACTOR_EVERY", refactor_every)
    rng = np.random.default_rng(6)
    refactored = 0
    for rows, cols, seed in LADDER_ROOTS:
        net = parse_native(ladder.to_native(ladder.grid_instance(rows, cols, seed)))
        lp = build_ots_angle(net).lp
        assert 200 <= lp.n_rows <= 300
        inversions.clear()
        sol = solve(lp)
        assert _assert_matches_reference(lp, sol)
        bigger = _cut_through(lp, sol, rng)  # re-solved by the dual simplex
        warm = solve(bigger, warm=sol.basis)
        assert not warm.cold_start
        assert _assert_matches_reference(bigger, warm)
        # each refactorization inverted a structural block, never the whole basis
        assert len(inversions) == sol.refactorizations + warm.refactorizations
        assert all(r == c < lp.n_rows for r, c in inversions)
        refactored += len(inversions)
    assert refactored >= (3 if refactor_every > 3 else 100)


def test_children_of_one_basis_solve_as_from_fresh_bases(inversions):
    lp, root, col = _switching_root()
    children = []
    for fix in (0.0, 1.0):
        child = lp.copy()
        child.set_bounds(col, fix, fix)
        children.append(child)
    children.append(add_rows(children[0], [([(col, 1.0)], ">=", 0.5)]))
    shared = root.basis
    for child in children:
        inversions.clear()
        # the sibling copies the factor, the child with a row extends it
        eng = _Engine(child)
        assert eng.install(shared)
        _assert_inverse(eng)
        got = solve(child, warm=shared)
        assert not inversions
        _close_solve(got, solve(child), child)
        assert got.iterations > 0 and not got.cold_start


def test_a_degenerate_dual_run_falls_back_after_m_steps(monkeypatch):
    # the 4x4-7 root, cycle basis expanded twice: one re-solve of its cut
    # rounds is a long run of dual steps that leave the dual objective
    # where it is, which ends in the cold solve's result either way
    net = parse_native(ladder.to_native(ladder.grid_instance(4, 4, 7)))
    cycles = cyclebasis.cycle_basis(net)
    for _ in range(2):
        cycles = cyclebasis.expand_cycle_set(cycles)
    calls = []

    def recording(lp, warm=None):
        calls.append((lp, warm))
        return solve(lp, warm=warm)
    monkeypatch.setattr("dcots.solver.solve", recording)
    strengthen_root(build_ots_angle(net), cycles, SolverConfig().strengthen_rounds)
    abandoned = []
    real_slack_start = _Engine.slack_start

    def slack_start(self):
        abandoned.append(self.iterations)  # the dual steps of the warm attempt
        real_slack_start(self)
    monkeypatch.setattr(_Engine, "slack_start", slack_start)
    stalled = 0
    for lp, warm in calls:
        if warm is None:
            continue
        abandoned.clear()
        got = solve(lp, warm=warm)
        if not got.cold_start:
            continue
        stalled += 1
        steps = abandoned[0]
        assert 0 < steps <= lp.n_rows + 1
        cold = solve(lp)
        assert (got.status, got.obj) == (cold.status, cold.obj)
        assert np.array_equal(got.x, cold.x)
        assert got.iterations == steps + cold.iterations  # the abandoned steps count
    assert stalled == 1


def _farkas_margin(lp, y):
    """How far ``y @ b`` lies outside the range of ``y @ [A | I] z`` over the
    variable and slack bounds; negative if inside.  A coefficient within
    PIVOT_TOL of zero is rounding on a basic column, zero in exact
    arithmetic, and is dropped: times an infinite bound it would widen
    the range without end."""
    d = lp.dense()
    coef = np.concatenate([y @ d.a, y])
    keep = np.abs(coef) > PIVOT_TOL
    coef = coef[keep]
    lo = np.concatenate([lp.lo, d.slack[:, 0]])[keep]
    hi = np.concatenate([lp.hi, d.slack[:, 1]])[keep]
    low = np.where(coef > 0, coef * lo, coef * hi).sum()
    high = np.where(coef > 0, coef * hi, coef * lo).sum()
    rhs = y @ d.b
    return max(low - rhs, rhs - high)


def test_a_dual_simplex_infeasibility_carries_a_farkas_certificate():
    lp, root, _ = _switching_root()
    lines = sorted(_switching_model().integer_cols)
    assert root.farkas is None
    proved = 0
    for pair in zip(lines, lines[1:] + lines[:1]):
        for fix in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)):
            child = lp.copy()
            for c, v in zip(pair, fix):
                child.set_bounds(c, v, v)
            sol = solve(child, warm=root.basis)
            if sol.status != "infeasible":
                assert sol.farkas is None
                continue
            assert not sol.cold_start and sol.farkas.shape == (child.n_rows,)
            assert _farkas_margin(child, sol.farkas) > FEAS_TOL
            # primal phase 1 proves the same infeasibility without one
            cold = solve(child)
            assert cold.status == "infeasible" and cold.farkas is None
            proved += 1
    assert proved >= 5


def test_a_stored_basis_meets_bounds_that_no_longer_allow_its_statuses():
    lp, root, col = _switching_root()
    shared = root.basis
    at_lower = next(j for j in range(lp.n_cols) if shared.stat[j] == 0 and lp.lo[j] < lp.hi[j])
    first = lp.copy()
    first.set_bounds(col, 0.0, 0.0)
    second = lp.copy()
    second.set_bounds(at_lower, -INF, lp.hi[at_lower])  # its lower bound is gone
    before = [arr.copy() for arr in shared[1:4]]
    assert solve(first, warm=shared).iterations > 0
    got = solve(second, warm=shared)
    _close_solve(got, solve(second), second)
    assert got.basis.stat[at_lower] != 0
    # the pivots of both solves left the stored arrays as the root solve ended
    _, binv, basic, stat, _ = shared
    for now, then in zip((binv, basic, stat), before):
        assert np.array_equal(now, then)
    eng = _Engine(second)
    assert eng.install(shared)
    _assert_inverse(eng)
    assert eng.stat[at_lower] == 1  # moved to its upper bound; the stored status is not
    for mine, stored in zip((eng.binv, eng.basic, eng.stat), (binv, basic, stat)):
        assert not np.shares_memory(mine, stored)


def _dive(model, sol, depth):
    """The program and the solutions of warm solves down one branch, each
    fixing the first fractional line of the last solution on."""
    lp, sols = model.lp, [sol]
    for _ in range(depth):
        lp = lp.copy()
        lp.set_bounds(_fractional(model, sols[-1])[0], 1.0, 1.0)
        sols.append(solve(lp, warm=sols[-1].basis))
        assert sols[-1].status == "optimal"
    return lp, sols


def test_appended_rows_on_a_carried_factor_solve_as_from_a_fresh_basis(inversions):
    model = _switching_model()
    lp, (root, *_, parent) = _dive(model, solve(model.lp), 3)
    col = _fractional(model, parent)[0]
    bigger = add_rows(lp, [([(col, 1.0)], "<=", 0.25), ([(col, 2.0), (0, 1.0)], "<=", 3.0)])
    inversions.clear()
    eng = _Engine(bigger)
    assert eng.install(parent.basis)
    assert not inversions
    _assert_inverse(eng)
    n, k = bigger.n_cols, lp.n_rows
    assert eng.basic[k:].tolist() == [n + k, n + k + 1]  # the new rows' slacks
    assert eng.pivots_since_refactor == parent.basis.age > root.basis.age
    got = solve(bigger, warm=parent.basis)
    assert not inversions
    _close_solve(got, solve(bigger), bigger)


def test_appended_rows_on_a_carried_factor_match_a_fresh_basis_on_random_lps(inversions):
    # random costs make each optimum unique, so every path ends at one point
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(60):
        lp = _random_lp(rng)
        sol = solve(lp)
        for _ in range(2):  # the second round extends a factor that pivots updated
            if sol.status != "optimal":
                break
            parent, row = sol, rng.normal(size=lp.n_cols)
            lp = add_rows(lp, [(list(enumerate(row)), "<=", float(row @ sol.x) - 0.5)])
            inversions.clear()
            sol = solve(lp, warm=parent.basis)
            assert not inversions
            want = solve(lp)
            assert sol.status == want.status
            if want.status == "optimal":
                assert sol.obj == pytest.approx(want.obj, rel=1e-9)
                np.testing.assert_allclose(sol.x, want.x, rtol=0, atol=1e-9)
                checked += 1
    assert checked >= 20


def test_a_factor_over_other_rows_is_not_extended(inversions):
    lp, root, col = _switching_root()
    mine = add_rows(lp, [([(col, 1.0)], ">=", 0.5)])
    sol = solve(mine, warm=root.basis)
    other_row = ([(col, 2.0), (0, 1.0)], ">=", 0.5)
    widened = mine.copy()
    widened.add_col(cost=1.0, lo=0.0, hi=1.0)
    others = (add_rows(lp, [other_row]),  # a copy that appended a different row
              add_rows(lp, [other_row, ([(col, 1.0)], "<=", 0.9)]),  # and one more
              lp,                         # fewer rows than the basis's program
              widened)                    # the basis's rows, and another column
    for other in others:
        eng = _Engine(other)
        assert eng.prefix_rows(sol.basis.a) == -1
        inversions.clear()
        assert not eng.install(sol.basis)
        assert not inversions
        got = solve(other, warm=sol.basis)
        assert got.cold_start
        _same_solve(got, solve(other))
    assert _Engine(add_rows(mine, [other_row])).prefix_rows(sol.basis.a) == mine.n_rows


def test_a_chain_of_warm_solves_refactors(monkeypatch, inversions):
    model = _switching_model()
    lp, sols = _dive(model, solve(model.lp), 6)
    ages = [s.basis.age for s in sols]
    # the pivot count carries along the chain, and nothing is inverted
    assert ages == sorted(ages) and ages[-1] > ages[0] >= 2 and not inversions
    monkeypatch.setattr(dcots.lp, "REFACTOR_EVERY", 2)
    patched_lp, patched = _dive(model, solve(model.lp), 6)
    assert inversions and all(s.basis.age < 2 for s in patched)
    _close_solve(patched[-1], sols[-1], patched_lp)


def test_appended_rows_solve_as_a_program_built_afresh():
    lp, root, col = _switching_root()
    # both rows cut off the root point, and the program stays feasible
    bigger = add_rows(lp, [([(col, 1.0)], ">=", 0.5), ([(col, 1.0), (0, 1.0)], "<=", 3.0)])
    fresh = LinearProgram(list(bigger.obj), list(bigger.lo), list(bigger.hi), list(bigger.rows))
    extended, built = bigger.dense(), fresh.dense()
    assert extended is not built
    for name in ("a", "b", "slack"):
        assert np.array_equal(getattr(extended, name), getattr(built, name))
    warm = solve(bigger, warm=root.basis)
    assert warm.status == "optimal" and not warm.cold_start and warm.iterations > 0
    _same_solve(warm, solve(fresh, warm=root.basis))


def test_the_dense_form_stores_a_alone():
    lp, root, col = _switching_root()
    d = lp.dense()
    assert d.a.shape == (lp.n_rows, lp.n_cols) and d.a.flags.c_contiguous
    assert root.basis.a is d.a  # the basis keeps the program's A, no wider matrix
    bigger = add_rows(lp, [([(col, 1.0)], ">=", 0.5), ([(col, 1.0), (0, 1.0)], "<=", 3.0)])
    extended = bigger.dense()
    fresh = LinearProgram(list(bigger.obj), list(bigger.lo), list(bigger.hi), list(bigger.rows))
    assert extended.a.shape == (bigger.n_rows, bigger.n_cols) == (lp.n_rows + 2, lp.n_cols)
    assert np.array_equal(extended.a, fresh.dense().a)
    assert np.array_equal(extended.a[:lp.n_rows], d.a)
    warm = solve(bigger, warm=root.basis)
    assert warm.basis.a is extended.a and not warm.cold_start


def test_changes_to_a_copy_leave_the_original_alone():
    rng = np.random.default_rng(7)
    for _ in range(20):
        lp = _random_lp(rng)
        before = solve(lp)
        copy = lp.copy()
        copy.set_bounds(0, -1.0, 1.0)
        copy.add_row([(0, 1.0), (lp.n_cols - 1, -2.0)], "<=", -0.5)
        copy_before = solve(copy)
        _same_solve(solve(lp), before)
        # the other way round: a row appended to the original stays out of the copy
        lp.add_row([(0, 1.0)], ">=", 3.0)
        solve(lp)
        _same_solve(solve(copy), copy_before)
    with pytest.raises(ValueError):
        lp.dense().a[0, 0] = 1.0  # the shared arrays are read-only


def test_dense_form_follows_new_columns_and_rows_refuse_edits():
    lp = _box_lp()
    assert solve(lp).obj == pytest.approx(-6.0)
    with pytest.raises(TypeError):
        lp.rows[0] = (((0, 1.0), (1, 1.0)), "<=", 5.0)
    with pytest.raises(AttributeError):
        lp.rows.append((((0, 1.0),), "<=", 5.0))
    assert solve(lp).obj == pytest.approx(-6.0)
    w = lp.add_col(cost=-3.0, lo=0.0, hi=1.0)
    lp.add_row([(0, 1.0), (w, 1.0)], "<=", 4.0)
    assert solve(lp).obj == pytest.approx(-9.0)  # w = 1, u + v = 6


NAN = float("nan")


def test_a_nan_cost_bound_coefficient_or_rhs_is_refused_and_named():
    lp = LinearProgram()
    u = lp.add_col(cost=1.0, lo=0.0, hi=1.0)
    for cost, lo, hi, what in ((NAN, 0.0, 1.0, "cost"), (1.0, NAN, 1.0, "bounds"),
                               (1.0, 0.0, NAN, "bounds"), (1.0, 2.0, 1.0, "bounds")):
        with pytest.raises(ValueError, match=f"column 1: {what}"):
            lp.add_col(cost=cost, lo=lo, hi=hi)
    for lo, hi in ((NAN, 1.0), (0.0, NAN), (NAN, NAN), (2.0, 1.0)):
        with pytest.raises(ValueError, match="column 0: bounds"):
            lp.set_bounds(u, lo, hi)
    for col in (-1, 1):
        with pytest.raises(ValueError, match=f"unknown column {col}"):
            lp.set_bounds(col, 0.0, 1.0)
    lp.add_row([(u, 1.0)], ">=", 0.5)
    with pytest.raises(ValueError, match="row 1: coefficient of column 0 is NaN"):
        lp.add_row([(u, NAN)], ">=", 0.5)
    with pytest.raises(ValueError, match="row 1: right-hand side is NaN"):
        lp.add_row([(u, 1.0)], "<=", NAN)
    with pytest.raises(ValueError, match="column 1: bounds"):
        LinearProgram([0.0, 0.0], [0.0, NAN], [1.0, 1.0])
    with pytest.raises(ValueError, match="row 0: coefficient"):
        LinearProgram([0.0], [0.0], [1.0], [([(0, NAN)], "<=", 1.0)])
    # the program is as the refused calls found it
    assert (lp.obj, lp.lo, lp.hi, lp.n_rows) == ([1.0], [0.0], [1.0], 1)
    sol = solve(lp)
    assert sol.status == "optimal" and sol.x.tolist() == [0.5]
    # infinite values are not NaN: they still reach the solve, which ends
    # in a status or, at an invalid operation, raises SimplexError
    lp.add_row([(u, INF)], "<=", INF)
    lp.add_col(cost=0.0, lo=-INF, hi=INF)
    with pytest.raises(SimplexError, match="floating-point"):
        solve(lp)


def _solve_key(sol):
    """Everything a solve returns, floats by ``repr``."""
    basis = sol.basis
    return repr((sol.status, sol.obj, None if sol.x is None else sol.x.tolist(),
                 sol.iterations, sol.cold_start, sol.refactorizations,
                 None if basis is None else (basis.basic.tolist(), basis.stat.tolist(),
                                             basis.binv.tolist(), basis.age)))


_ARRAY_NAMES = ("lo", "hi", "c", "movable", "natural", "finite_hi", "any_free")


def _afresh(lp):
    return LinearProgram(list(lp.obj), list(lp.lo), list(lp.hi), list(lp.rows))


def _assert_solves_as_built_afresh(lp, warm=None):
    """Solves of ``lp``, cold and from ``warm``, equal those of a program
    built afresh from its data, and so do its arrays; returns the cold one."""
    fresh = _afresh(lp)
    got, want = lp.arrays(), fresh.arrays()
    for name in _ARRAY_NAMES:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    cold = solve(lp)
    assert _solve_key(cold) == _solve_key(solve(fresh))
    if warm is not None:
        assert _solve_key(solve(lp, warm=warm)) == _solve_key(solve(fresh, warm=warm))
    return cold


def test_the_program_arrays_follow_bound_changes_new_columns_and_rows():
    rng = np.random.default_rng(21)
    moved = 0
    for _ in range(30):
        lp = _random_lp(rng)
        sol = _assert_solves_as_built_afresh(lp)
        col = int(rng.integers(lp.n_cols))
        # to free, to a box, to half-infinite either way, to fixed: the
        # resting status changes, and with it any_free
        for lo, hi in ((-INF, INF), (-1.0, 1.0), (-INF, 0.5), (0.25, INF), (0.5, 0.5)):
            free_before = lp.arrays().any_free
            lp.set_bounds(col, lo, hi)
            moved += lp.arrays().any_free != free_before
            sol = _assert_solves_as_built_afresh(lp, warm=sol.basis)
        # a column after a solve
        new = lp.add_col(cost=float(rng.normal()), lo=-1.0, hi=2.0)
        assert lp._vars is None  # dropped: the next solve builds them again
        sol = _assert_solves_as_built_afresh(lp)
        # a row after a solve, on the new column; its basis warm-starts both
        lp.add_row([(new, 1.0), (0, float(rng.normal()))], "<=", float(rng.normal()))
        _assert_solves_as_built_afresh(lp, warm=sol.basis)
    assert moved >= 10


def test_bounds_set_on_a_copy_leave_the_original_arrays_alone():
    rng = np.random.default_rng(22)
    for _ in range(10):
        lp = _random_lp(rng)
        before = _solve_key(solve(lp))
        mine = {name: repr(getattr(lp.arrays(), name)) for name in _ARRAY_NAMES}
        copy = lp.copy()
        for name in _ARRAY_NAMES[:-1]:
            assert not np.shares_memory(getattr(copy.arrays(), name), getattr(lp.arrays(), name))
        for col in range(lp.n_cols):
            copy.set_bounds(col, -INF, INF)
        assert copy.arrays().any_free
        solve(copy)
        assert {name: repr(getattr(lp.arrays(), name)) for name in _ARRAY_NAMES} == mine
        assert _solve_key(solve(lp)) == before
