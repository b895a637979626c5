"""Bounded-variable simplex with warm starts.

A dense revised simplex over variables with general (possibly infinite)
bounds: a composite phase 1 drives basic variables inside their bounds, a
Dantzig-priced phase 2 with a Bland fallback finds the optimum, and a dual
simplex re-solves after rows are appended or bounds are tightened while
the old basis is still dual feasible.  Everything is deterministic for a
fixed instance: pivot choices break ties by variable index.

Rows are stored as ``(coeffs, sense, rhs)`` with sparse ``(col, coef)``
coefficient lists and sense one of ``"<="``, ``">="``, ``"=="``.  Each row
gets a slack variable internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FEAS_TOL",
    "OPT_TOL",
    "LinearProgram",
    "LpSolution",
    "Basis",
    "SimplexError",
    "solve",
    "add_rows",
]

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIVOT_TOL = 1e-9
REFACTOR_EVERY = 100

_LOWER, _UPPER, _FREE, _BASIC = 0, 1, 2, 3
_INF = float("inf")


class SimplexError(RuntimeError):
    """Raised when the iteration limit or numerical trouble is hit."""


@dataclass
class LinearProgram:
    """Minimize ``obj @ x`` subject to rows and variable bounds."""

    obj: list[float] = field(default_factory=list)
    lo: list[float] = field(default_factory=list)
    hi: list[float] = field(default_factory=list)
    rows: list[tuple[tuple[tuple[int, float], ...], str, float]] = field(default_factory=list)

    @property
    def n_cols(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_col(self, cost: float = 0.0, lo: float = -_INF, hi: float = _INF) -> int:
        if lo > hi:
            raise ValueError(f"column bounds crossed: [{lo}, {hi}]")
        self.obj.append(float(cost))
        self.lo.append(float(lo))
        self.hi.append(float(hi))
        return len(self.obj) - 1

    def add_row(self, coeffs, sense: str, rhs: float) -> int:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown sense {sense!r}")
        coeffs = tuple((int(c), float(v)) for c, v in coeffs)
        for c, _ in coeffs:
            if not 0 <= c < self.n_cols:
                raise ValueError(f"row references unknown column {c}")
        self.rows.append((coeffs, sense, float(rhs)))
        return len(self.rows) - 1

    def set_bounds(self, col: int, lo: float, hi: float) -> None:
        if lo > hi:
            raise ValueError(f"column bounds crossed: [{lo}, {hi}]")
        self.lo[col] = float(lo)
        self.hi[col] = float(hi)

    def copy(self) -> "LinearProgram":
        return LinearProgram(list(self.obj), list(self.lo), list(self.hi), list(self.rows))


@dataclass(frozen=True)
class Basis:
    """Warm-start descriptor: basic variable per row plus nonbasic statuses.

    Variable indices cover structurals then one slack per row; statuses
    are 0 = at lower bound, 1 = at upper, 2 = free at zero, 3 = basic.
    """

    basic: tuple[int, ...]
    stat: tuple[int, ...]


@dataclass(frozen=True)
class LpSolution:
    status: str                      # 'optimal' | 'infeasible' | 'unbounded'
    obj: float | None
    x: np.ndarray | None             # structural variable values
    basis: Basis | None
    iterations: int


def add_rows(lp: LinearProgram, rows) -> LinearProgram:
    """A copy of ``lp`` with ``rows`` appended.

    Appending keeps all existing variable and slack indices stable, so a
    prior solution's basis warm-starts the enlarged program (the new
    slacks enter the basis and a dual simplex restores feasibility).
    """
    out = lp.copy()
    for coeffs, sense, rhs in rows:
        out.add_row(coeffs, sense, rhs)
    return out


class _Engine:
    """Dense simplex state for one LinearProgram."""

    def __init__(self, lp: LinearProgram):
        n, m = lp.n_cols, lp.n_rows
        self.n, self.m = n, m
        self.N = n + m
        self.a = np.zeros((m, n))
        self.b = np.zeros(m)
        lo = list(lp.lo) + [0.0] * m
        hi = list(lp.hi) + [0.0] * m
        for i, (coeffs, sense, rhs) in enumerate(lp.rows):
            for c, v in coeffs:
                self.a[i, c] += v
            self.b[i] = rhs
            if sense == "<=":
                lo[n + i], hi[n + i] = 0.0, _INF
            elif sense == ">=":
                lo[n + i], hi[n + i] = -_INF, 0.0
            else:
                lo[n + i], hi[n + i] = 0.0, 0.0
        self.lo = np.array(lo)
        self.hi = np.array(hi)
        self.fixed = (self.lo == self.hi)
        self.c = np.concatenate([np.array(lp.obj, dtype=float), np.zeros(m)])
        self.basic = np.zeros(m, dtype=np.int64)
        self.stat = np.zeros(self.N, dtype=np.int64)
        self.binv = np.eye(m)
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.degenerate_run = 0
        self.bland = False

    # -- basis management ---------------------------------------------------

    def col(self, j: int) -> np.ndarray:
        if j < self.n:
            return self.a[:, j]
        e = np.zeros(self.m)
        e[j - self.n] = 1.0
        return e

    def slack_start(self) -> None:
        self.basic = np.arange(self.n, self.N, dtype=np.int64)
        self.stat[:] = _BASIC
        for j in range(self.n):
            if np.isfinite(self.lo[j]):
                self.stat[j] = _LOWER
            elif np.isfinite(self.hi[j]):
                self.stat[j] = _UPPER
            else:
                self.stat[j] = _FREE
        self.binv = np.eye(self.m)
        self.pivots_since_refactor = 0

    def install(self, basis: Basis) -> bool:
        """Adopt a warm basis, padding appended rows with their slacks."""
        basic = list(basis.basic)
        stat = list(basis.stat)
        if len(stat) < self.N:
            extra = self.N - len(stat)
            first_new = self.n + (self.m - extra)
            if len(stat) != first_new:
                return False
            basic += list(range(first_new, self.N))
            stat += [_BASIC] * extra
        if len(basic) != self.m or len(stat) != self.N:
            return False
        if len(set(basic)) != len(basic):
            return False
        self.basic = np.array(basic, dtype=np.int64)
        self.stat = np.array(stat, dtype=np.int64)
        # normalize nonbasic statuses against the current bounds
        for j in range(self.N):
            s = self.stat[j]
            if s == _BASIC:
                continue
            if s == _LOWER and not np.isfinite(self.lo[j]):
                self.stat[j] = _UPPER if np.isfinite(self.hi[j]) else _FREE
            elif s == _UPPER and not np.isfinite(self.hi[j]):
                self.stat[j] = _LOWER if np.isfinite(self.lo[j]) else _FREE
            elif s == _FREE and np.isfinite(self.lo[j]):
                self.stat[j] = _LOWER
            elif s == _FREE and np.isfinite(self.hi[j]):
                self.stat[j] = _UPPER
        return self.refactor()

    def refactor(self) -> bool:
        if self.m == 0:
            self.binv = np.zeros((0, 0))
            return True
        bmat = np.column_stack([self.col(j) for j in self.basic])
        try:
            self.binv = np.linalg.inv(bmat)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(self.binv)):
            return False
        self.pivots_since_refactor = 0
        return True

    # -- values and prices --------------------------------------------------

    def xfull(self) -> np.ndarray:
        x = np.zeros(self.N)
        nb_lower = self.stat == _LOWER
        nb_upper = self.stat == _UPPER
        x[nb_lower] = self.lo[nb_lower]
        x[nb_upper] = self.hi[nb_upper]
        rhs = self.b - self.a @ x[:self.n] - x[self.n:]
        x[self.basic] = self.binv @ rhs
        return x

    def duals_for(self, cost: np.ndarray) -> np.ndarray:
        return cost[self.basic] @ self.binv

    def reduced(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = cost.copy()
        d[:self.n] -= y @ self.a
        d[self.n:] -= y
        return d

    def infeasibility(self, x: np.ndarray) -> np.ndarray:
        xb = x[self.basic]
        lob, hib = self.lo[self.basic], self.hi[self.basic]
        return np.maximum(lob - xb, 0.0) + np.maximum(xb - hib, 0.0)

    # -- pivoting -----------------------------------------------------------

    def pivot(self, r: int, j: int, w: np.ndarray, leave_stat: int) -> None:
        piv = w[r]
        if abs(piv) < 10 * PIVOT_TOL:
            if not self.refactor():
                raise SimplexError("singular basis during pivot")
            w = self.binv @ self.col(j)
            piv = w[r]
            if abs(piv) < 10 * PIVOT_TOL:
                raise SimplexError("pivot element vanished")
        old = int(self.basic[r])
        self.stat[old] = leave_stat
        self.basic[r] = j
        self.stat[j] = _BASIC
        self.binv[r] /= piv
        rest = np.arange(self.m) != r
        self.binv[rest] -= np.outer(w[rest], self.binv[r])
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            if not self.refactor():
                raise SimplexError("singular basis at refactorization")

    def note_step(self, t: float) -> None:
        self.iterations += 1
        if t <= FEAS_TOL:
            self.degenerate_run += 1
            if self.degenerate_run > 2 * (self.m + self.N):
                self.bland = True
        else:
            self.degenerate_run = 0
            self.bland = False

    def check_budget(self) -> None:
        if self.iterations > 20000 + 100 * (self.m + self.N):
            raise SimplexError(f"iteration limit exceeded ({self.iterations})")

    # -- primal simplex (composite phase 1 + phase 2) -----------------------

    def primal(self) -> str:
        while True:
            self.check_budget()
            x = self.xfull()
            viol = self.infeasibility(x)
            feasible = bool(np.all(viol <= FEAS_TOL))
            if feasible:
                cost = self.c
            else:
                cost = np.zeros(self.N)
                xb = x[self.basic]
                below = xb < self.lo[self.basic] - FEAS_TOL
                above = xb > self.hi[self.basic] + FEAS_TOL
                cost[self.basic[below]] = -1.0
                cost[self.basic[above]] = 1.0
            y = self.duals_for(cost)
            d = self.reduced(cost, y)
            j = self.price(d)
            if j < 0:
                return "optimal" if feasible else "infeasible"
            delta = 1.0 if (self.stat[j] == _LOWER or (self.stat[j] == _FREE and d[j] < 0)) else -1.0
            w = self.binv @ self.col(j)
            t, r, leave_stat = self.ratio(j, delta, w, x)
            if t == _INF:
                if not feasible:
                    raise SimplexError("unblocked improving step in phase 1")
                return "unbounded"
            self.note_step(t)
            if r < 0:
                self.stat[j] = _UPPER if self.stat[j] == _LOWER else _LOWER
                continue
            self.pivot(r, j, w, leave_stat)

    def price(self, d: np.ndarray) -> int:
        """Entering variable: most violating reduced cost, or -1 if none."""
        score = np.zeros(self.N)
        at_lower = self.stat == _LOWER
        at_upper = self.stat == _UPPER
        free = self.stat == _FREE
        score[at_lower] = np.maximum(-d[at_lower] - OPT_TOL, 0.0)
        score[at_upper] = np.maximum(d[at_upper] - OPT_TOL, 0.0)
        score[free] = np.maximum(np.abs(d[free]) - OPT_TOL, 0.0)
        score[self.fixed] = 0.0  # a fixed variable cannot move
        elig = np.nonzero(score > 0)[0]
        if elig.size == 0:
            return -1
        if self.bland:
            return int(elig[0])
        return int(elig[np.argmax(score[elig])])

    def ratio(self, j: int, delta: float, w: np.ndarray, x: np.ndarray):
        """Largest step for entering j: (t, blocking row, leaving status).

        A blocking row of -1 means the entering variable reaches its own
        opposite bound first (a bound flip, no basis change).  In phase 1
        a basic variable outside its bounds blocks when it comes back to
        the bound it violates.
        """
        lob, hib = self.lo[self.basic], self.hi[self.basic]
        xb = x[self.basic]
        rate = -delta * w
        below = xb < lob - FEAS_TOL
        above = xb > hib + FEAS_TOL
        mid = ~(below | above)
        t = np.full(self.m, _INF)
        target = np.zeros(self.m, dtype=np.int64)
        up = rate > PIVOT_TOL
        down = rate < -PIVOT_TOL
        for sel, bound, tgt in (
            (up & below, lob, _LOWER),
            (up & mid & np.isfinite(hib), hib, _UPPER),
            (down & above, hib, _UPPER),
            (down & mid & np.isfinite(lob), lob, _LOWER),
        ):
            t[sel] = (bound[sel] - xb[sel]) / rate[sel]
            target[sel] = tgt
        t = np.maximum(t, 0.0)
        t_row_min = float(np.min(t)) if self.m else _INF
        t_flip = (self.hi[j] - self.lo[j]) if self.stat[j] != _FREE else _INF
        if t_flip == _INF and t_row_min == _INF:
            return _INF, -1, 0
        if t_flip < t_row_min - PIVOT_TOL:
            return t_flip, -1, 0
        ties = np.nonzero(t <= t_row_min + PIVOT_TOL)[0]
        if ties.size == 0:
            return t_flip, -1, 0
        if self.bland:
            r = int(ties[np.argmin(self.basic[ties])])
        else:
            r = int(ties[np.argmax(np.abs(w[ties]))])
        return float(t[r]), r, int(target[r])

    # -- dual simplex -------------------------------------------------------

    def dual(self) -> str:
        """Restore primal feasibility from a dual-feasible basis.

        Returns 'optimal', 'infeasible', or 'stalled' (no progress; the
        caller should fall back to a cold primal solve).
        """
        best = _INF
        stall = 0
        while True:
            self.check_budget()
            x = self.xfull()
            viol = self.infeasibility(x)
            total = float(np.sum(viol))
            if float(np.max(viol, initial=0.0)) <= FEAS_TOL:
                return "optimal"
            if total < best - FEAS_TOL:
                best = total
                stall = 0
            else:
                stall += 1
                if stall > 2 * (self.m + self.N):
                    return "stalled"
            r = int(np.argmax(viol))
            leaving = int(self.basic[r])
            going_up = x[leaving] < self.lo[leaving]
            alpha = np.concatenate([self.binv[r] @ self.a, self.binv[r]])
            y = self.duals_for(self.c)
            d = self.reduced(self.c, y)
            at_lower = (self.stat == _LOWER) & ~self.fixed
            at_upper = (self.stat == _UPPER) & ~self.fixed
            free = self.stat == _FREE
            if going_up:
                elig = (at_lower & (alpha < -PIVOT_TOL)) | (at_upper & (alpha > PIVOT_TOL)) \
                    | (free & (np.abs(alpha) > PIVOT_TOL))
            else:
                elig = (at_lower & (alpha > PIVOT_TOL)) | (at_upper & (alpha < -PIVOT_TOL)) \
                    | (free & (np.abs(alpha) > PIVOT_TOL))
            cand = np.nonzero(elig)[0]
            if cand.size == 0:
                return "infeasible"
            ratios = np.abs(d[cand]) / np.abs(alpha[cand])
            rmin = float(np.min(ratios))
            ties = cand[ratios <= rmin + OPT_TOL]
            jcol = int(ties[np.argmax(np.abs(alpha[ties]))])
            w = self.binv @ self.col(jcol)
            self.iterations += 1
            self.pivot(r, jcol, w, _LOWER if going_up else _UPPER)

    def dual_feasible(self) -> bool:
        y = self.duals_for(self.c)
        d = self.reduced(self.c, y)
        bad = ((self.stat == _LOWER) & ~self.fixed & (d < -10 * OPT_TOL)) \
            | ((self.stat == _UPPER) & ~self.fixed & (d > 10 * OPT_TOL)) \
            | ((self.stat == _FREE) & (np.abs(d) > 10 * OPT_TOL))
        return not bool(np.any(bad))


def _finish(eng: _Engine, status: str) -> LpSolution:
    if status != "optimal":
        return LpSolution(status, None, None, None, eng.iterations)
    x = eng.xfull()
    basis = Basis(tuple(int(v) for v in eng.basic), tuple(int(v) for v in eng.stat))
    return LpSolution("optimal", float(eng.c[:eng.n] @ x[:eng.n]), x[:eng.n].copy(),
                      basis, eng.iterations)


def solve(lp: LinearProgram, warm: Basis | None = None) -> LpSolution:
    """Solve a linear program, optionally warm-starting from a basis.

    A warm basis that is dual feasible but primal infeasible (the state
    after appending cutting planes or tightening bounds) is repaired with
    the dual simplex; anything else goes through the primal phases.  A
    stalled or numerically broken warm path falls back to a cold solve.

    Returns
    -------
    LpSolution
        With status 'optimal' (x and basis filled), 'infeasible', or
        'unbounded'.
    """
    if warm is not None:
        eng = _Engine(lp)
        if eng.install(warm):
            try:
                x = eng.xfull()
                primal_ok = bool(np.all(eng.infeasibility(x) <= FEAS_TOL))
                if not primal_ok and eng.dual_feasible():
                    status = eng.dual()
                    if status == "optimal":
                        return _finish(eng, eng.primal())
                    if status == "infeasible":
                        return _finish(eng, "infeasible")
                    # stalled: fall through to the cold start below
                else:
                    return _finish(eng, eng.primal())
            except SimplexError:
                pass
    eng = _Engine(lp)
    eng.slack_start()
    return _finish(eng, eng.primal())
