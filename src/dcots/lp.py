"""Bounded-variable simplex with warm starts.

A dense revised simplex over variables with general (possibly infinite)
bounds: a composite phase 1 drives basic variables inside their bounds, a
Dantzig-priced phase 2 with a Bland fallback finds the optimum, and a dual
simplex re-solves after rows are appended or bounds are tightened while
the old basis is still dual feasible.  Everything is deterministic for a
fixed instance: pivot choices break ties by variable index.

Rows are stored as ``(coeffs, sense, rhs)`` with sparse ``(col, coef)``
coefficient lists and sense one of ``"<="``, ``">="``, ``"=="``.  Each row
has a slack: row i reads ``A_i x + s_i = rhs_i``, with the slack ``s_i``
(variable ``n + i``) bounded to ``[0, inf)`` for ``<=``, ``(-inf, 0]`` for
``>=`` and ``[0, 0]`` for ``==``.  Structurals and slacks are then the
same kind of variable, the columns of ``[A | I]``, and a ``Basis``
indexes them in that order.  Only the dense ``m x n`` matrix ``A`` is
stored; the slacks are implicit.  A refactorization inverts only the
block of the structural basic columns on the rows whose slack is
nonbasic (see ``_Engine.refactor``), a row product ``y @ [A | I]`` is
``[y @ A, y]``, the entering column of a slack is a column of the
inverse, and values subtract the slacks from ``b - A x`` as they are.

Rows only grow.  ``A``, the right-hand side and the slack bounds are
built once per row set and shared, read-only, by every
``LinearProgram.copy()``: a bound change leaves them alone, and appended
rows extend a copy of ``A`` instead of refilling it from the sparse rows.
The per-variable arrays a solve reads (bounds and costs over structurals
and slacks, the movable mask, where each variable rests when nonbasic,
the finite-upper mask and whether any variable rests free) belong to the
program, not to a solve: built once per row set, dropped by ``add_col``,
and updated in place, one column at a time, by ``set_bounds``.  A copy
builds its own.  A branch-and-bound node that changes a few bounds then
rebuilds nothing before its solve.

A ``Basis`` is the factor a solve ended with: ``A``, the inverse
of its basic columns as the pivots left it, the basic list, the statuses
and the number of pivots since that inverse was last computed.  A warm
start against the same ``A`` (a bound change, the sibling node of a
branch) copies the factor; against an ``A`` that extends it by rows
(lazy rows, cut rounds) it extends the factor block-triangularly, with
the new rows' slacks basic.  Neither inverts a matrix.  The pivot count
carries along the chain of warm starts, so ``REFACTOR_EVERY`` bounds the
pivots any carried inverse has accumulated.  A basis whose ``A`` the
program's ``A`` neither equals nor extends by rows is ignored.

Each pivot costs what it must.  The inverse is updated in place by one
rank-one BLAS step, with no ``m x m`` temporary.  The engine carries the
state of the basic variables by row: their values ``xb`` and bounds
``lob`` and ``hib``, beside ``sgn``, the direction in which each
variable can leave its bound.  A pivot or a bound flip updates the
entries it changes, so no step gathers values or bounds through the
basic list.  The simplex loops carry ``xb`` through each step instead of
evaluating it again: the basic values move along the entering column and
the entering variable takes row ``r``; a nonbasic value is the bound its
status names, so the leaving variable and a flipped one need no value.
The dual simplex carries its reduced costs the same way, along the pivot
row it computes anyway.  Values and reduced costs are evaluated from
scratch after every refactorization and once more before a loop returns,
so every status is decided, and every ``x`` returned, on a full
evaluation.  Evaluated values pass from the warm-start checks of
``solve`` to the dual simplex, from the dual simplex to the closing
primal check, and from there to the solution.  A primal step checks the
basic variables against their bounds once, in ``sides``; that one check
decides feasibility, prices phase 1 and tells the ratio test which bound
each row can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dger

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
_SIGN = np.array([1.0, -1.0, 0.0, 0.0])  # per status, see _Engine.set_basis
_INF = float("inf")
_SLACK_BOUNDS = {"<=": (0.0, _INF), ">=": (-_INF, 0.0), "==": (0.0, 0.0)}


class SimplexError(RuntimeError):
    """Raised when the iteration limit or numerical trouble is hit."""


class _Dense(NamedTuple):
    """``A``, right-hand side and slack bounds of one row set; read-only,
    as every copy of the program and every engine shares them."""

    a: np.ndarray
    b: np.ndarray
    slack: np.ndarray   # m x 2: lower and upper bound of each slack


def _build_dense(n: int, rows, prev: _Dense | None) -> _Dense:
    """The dense form of ``rows``, copying the rows of ``prev`` (built
    over a prefix of ``rows``) instead of filling them again."""
    m, k = len(rows), (0 if prev is None else len(prev.b))
    a = np.zeros((m, n))
    if k:
        a[:k] = prev.a
    for i in range(k, m):
        for c, v in rows[i][0]:
            a[i, c] += v
    b = np.array([rhs for _, _, rhs in rows], dtype=float)
    slack = np.array([_SLACK_BOUNDS[sense] for _, sense, _ in rows]).reshape(m, 2)
    for arr in (a, b, slack):
        arr.flags.writeable = False
    return _Dense(a, b, slack)


class _Vars:
    """The per-variable arrays the engine reads, over the structurals and
    then the slacks of one row set: bounds, costs, the mask of variables
    that can move, where each rests when nonbasic and the mask of finite
    upper bounds.  One program owns them, and ``set`` keeps them in step
    with its bound changes."""

    __slots__ = ("lo", "hi", "c", "movable", "natural", "finite_hi", "any_free")

    def __init__(self, lp: "LinearProgram", d: _Dense):
        self.lo = np.concatenate([lp.lo, d.slack[:, 0]])
        self.hi = np.concatenate([lp.hi, d.slack[:, 1]])
        self.c = np.concatenate([lp.obj, np.zeros(len(d.b))])
        self.movable = 1.0 - (self.lo == self.hi)
        self.finite_hi = np.isfinite(self.hi)
        # where a nonbasic variable rests: a finite lower bound, else a
        # finite upper bound, else free at zero
        self.natural = np.where(np.isfinite(self.lo), _LOWER,
                                np.where(self.finite_hi, _UPPER, _FREE))
        # only a variable that rests free is ever free: without one, the
        # tests for free variables are skipped
        self.any_free = bool((self.natural == _FREE).any())

    def set(self, col: int, lo: float, hi: float) -> None:
        """Column ``col``'s entries for the bounds ``lo`` and ``hi``."""
        self.lo[col], self.hi[col] = lo, hi
        self.movable[col] = 1.0 - (lo == hi)
        self.finite_hi[col] = math.isfinite(hi)
        was_free = self.natural[col] == _FREE
        self.natural[col] = _LOWER if math.isfinite(lo) else _UPPER if math.isfinite(hi) else _FREE
        if was_free != (self.natural[col] == _FREE):
            self.any_free = bool((self.natural == _FREE).any())


class LinearProgram:
    """Minimize ``obj @ x`` subject to rows and variable bounds.

    Rows only grow: ``add_row`` appends one, and ``rows`` is a tuple, so
    a row cannot be edited or removed in place.  ``obj``, ``lo`` and
    ``hi`` are changed only through ``add_col`` and ``set_bounds``, which
    keep the engine's arrays (``arrays()``) in step with them.  A NaN
    cost, bound, coefficient or right-hand side is refused.
    """

    def __init__(self, obj=(), lo=(), hi=(), rows=()):
        self.obj, self.lo, self.hi = [], [], []
        self._rows: list[tuple[tuple[tuple[int, float], ...], str, float]] = []
        # the dense form of the rows (or of a prefix of them), shared with copies
        self._dense: _Dense | None = None
        # the engine's arrays for the current columns and row set; never shared
        self._vars: _Vars | None = None
        for col in zip(obj, lo, hi, strict=True):
            self.add_col(*col)
        for row in rows:
            self.add_row(*row)

    @property
    def rows(self) -> tuple:
        return tuple(self._rows)

    @property
    def n_cols(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def add_col(self, cost: float = 0.0, lo: float = -_INF, hi: float = _INF) -> int:
        col, cost, lo, hi = self.n_cols, float(cost), float(lo), float(hi)
        if math.isnan(cost):
            raise ValueError(f"column {col}: cost is NaN")
        # written as `not lo <= hi` so that a NaN bound is refused too
        if not lo <= hi:
            raise ValueError(f"column {col}: bounds [{lo}, {hi}] are crossed or NaN")
        self.obj.append(cost)
        self.lo.append(lo)
        self.hi.append(hi)
        self._dense = self._vars = None
        return col

    def add_row(self, coeffs, sense: str, rhs: float) -> int:
        row = self.n_rows
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"row {row}: unknown sense {sense!r}")
        coeffs = tuple((int(c), float(v)) for c, v in coeffs)
        for c, v in coeffs:
            if not 0 <= c < self.n_cols:
                raise ValueError(f"row {row} references unknown column {c}")
            if math.isnan(v):
                raise ValueError(f"row {row}: coefficient of column {c} is NaN")
        rhs = float(rhs)
        if math.isnan(rhs):
            raise ValueError(f"row {row}: right-hand side is NaN")
        self._rows.append((coeffs, sense, rhs))
        return row

    def set_bounds(self, col: int, lo: float, hi: float) -> None:
        lo, hi = float(lo), float(hi)
        if not 0 <= col < self.n_cols:
            raise ValueError(f"unknown column {col}")
        if not lo <= hi:
            raise ValueError(f"column {col}: bounds [{lo}, {hi}] are crossed or NaN")
        self.lo[col], self.hi[col] = lo, hi
        if self._vars is not None:
            self._vars.set(col, lo, hi)

    def dense(self) -> _Dense:
        """The dense form of the rows, built at most once per row set: as
        rows only grow, a form over fewer of them is extended."""
        d = self._dense
        if d is None or len(d.b) != len(self._rows):
            d = self._dense = _build_dense(self.n_cols, self._rows, d)
        return d

    def arrays(self) -> _Vars:
        """The engine's per-variable arrays, built at most once per row
        set; ``set_bounds`` updates them in place."""
        v = self._vars
        if v is None or len(v.lo) != self.n_cols + self.n_rows:
            v = self._vars = _Vars(self, self.dense())
        return v

    def copy(self) -> "LinearProgram":
        """An independent program that shares this one's dense form and
        builds its own arrays."""
        out = LinearProgram()
        out.obj, out.lo, out.hi = list(self.obj), list(self.lo), list(self.hi)
        out._rows, out._dense = list(self._rows), self.dense()
        return out


class Basis(NamedTuple):
    """The factor a solve ended with, read-only: its structural matrix
    ``A``, the inverse of the basic columns of ``[A | I]`` as the pivots
    left it, the basic variable of each row, the status of every
    variable, and the pivots since that inverse was last computed.

    Variable indices cover structurals then the implicit slack of each
    row; statuses are 0 = at lower bound, 1 = at upper, 2 = free at zero,
    3 = basic.  A warm start copies the factor or extends it by rows
    instead of inverting; a program whose ``A`` does not extend ``a``
    ignores it.
    """

    a: np.ndarray
    binv: np.ndarray
    basic: np.ndarray
    stat: np.ndarray
    age: int


@dataclass(frozen=True)
class LpSolution:
    """The outcome of one ``solve``.

    ``farkas`` is set only on an infeasibility that the dual simplex
    proved: the row ``y`` of the basis inverse at the leaving variable
    that no nonbasic variable could move towards its bound.  Every ``z``
    with ``[A | I] z = b`` has ``y @ [A | I] z = y @ b``, and over the
    variable and slack bounds ``y @ [A | I] z`` cannot reach ``y @ b``.
    It is None on an optimal or unbounded result and on an infeasibility
    found by primal phase 1.
    """

    status: str                      # 'optimal' | 'infeasible' | 'unbounded'
    obj: float | None
    x: np.ndarray | None             # structural variable values
    basis: Basis | None
    iterations: int                  # pivots and bound flips, a failed warm start's included
    cold_start: bool                 # ran from a slack basis: no warm basis, or a fallback
    refactorizations: int            # inverses computed afresh, a failed warm start's included
    farkas: np.ndarray | None = None  # one multiplier per row, see above


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
    """Dense simplex state for one LinearProgram over ``[A | I]``, of
    which only ``A`` is stored.

    Besides the basic list and the statuses it carries, by row, what the
    loops read of the basic variables: their values ``xb`` and bounds
    ``lob`` and ``hib``; and, per variable, ``sgn`` (see ``set_basis``).
    """

    def __init__(self, lp: LinearProgram):
        d, v = lp.dense(), lp.arrays()
        n, m = lp.n_cols, lp.n_rows
        self.n, self.m = n, m
        self.N = n + m
        self.A, self.b = d.a, d.b  # shared and read-only
        # the program's arrays, which the engine only reads
        self.lo, self.hi, self.c = v.lo, v.hi, v.c
        self.movable, self.natural, self.finite_hi = v.movable, v.natural, v.finite_hi
        self.any_free = v.any_free
        self.iterations = 0
        self.budget_start = 0  # the iteration at which the current attempt began
        self.refactorizations = 0
        self.degenerate_run = 0
        self.bland = False

    # -- basis management ---------------------------------------------------

    def set_basis(self, basic: np.ndarray, stat: np.ndarray,
                  xb: np.ndarray | None = None) -> None:
        """Take the basic variable of each row and the status of every
        variable, and derive what is carried with them: ``sgn`` is +1 at
        a lower bound, -1 at an upper bound, 0 when basic, free or fixed
        (the direction in which each variable can leave its bound), and
        ``lob`` and ``hib`` are the bounds of the basic variables by row.
        ``xb``, the basic values by row, is left for ``values()`` to
        evaluate unless given."""
        self.basic, self.stat = basic, stat
        self.sgn = _SIGN[stat] * self.movable
        self.lob, self.hib = self.lo[basic], self.hi[basic]
        self.xb = xb

    def slack_start(self) -> None:
        """Cold start: every slack basic, every structural at rest."""
        stat = self.natural.copy()
        stat[self.n:] = _BASIC
        self.set_basis(np.arange(self.n, self.N), stat)
        self.binv = np.eye(self.m)
        self.pivots_since_refactor = 0
        self.budget_start = self.iterations  # a cold fallback gets a budget of its own
        self.degenerate_run = 0
        self.bland = False

    def install(self, basis: Basis) -> bool:
        """Adopt a warm basis, with the slacks of appended rows basic;
        False, leaving the engine as it was, if this ``A`` does not
        extend the basis's.

        A factor over a row prefix of this ``A`` (the same ``A``
        included) is copied or extended block-triangularly: with ``R``
        the appended rows on the old basic columns, the inverse of
        ``[[B, 0], [R, I]]`` is ``[[B^-1, 0], [-R B^-1, I]]``.  Nonbasic
        statuses that the current bounds no longer allow move to where
        the variable rests.
        """
        k = self.prefix_rows(basis.a)
        if k < 0:
            return False
        if k == self.m:  # no rows appended: copy
            self.binv, basic, stat = basis.binv.copy(), basis.basic.copy(), basis.stat
        else:
            # only the old structural basics have entries in the new rows
            struct = basis.basic < self.n
            self.binv = np.eye(self.m)
            self.binv[:k, :k] = basis.binv
            self.binv[k:, :k] = -(self.A[k:, basis.basic[struct]] @ basis.binv[struct])
            basic = np.concatenate([basis.basic, np.arange(self.n + k, self.N)])
            stat = np.concatenate([basis.stat, np.full(self.m - k, _BASIC)])
        self.pivots_since_refactor = basis.age
        # the bounds allow a status that is basic, at a finite upper bound,
        # or where the variable rests anyway; every other one moves there
        keep = (stat == _BASIC) | ((stat == _UPPER) & self.finite_hi)
        self.set_basis(basic, np.where(keep, stat, self.natural))
        return True

    def prefix_rows(self, a: np.ndarray) -> int:
        """The number of rows of ``a`` if it is the first rows of this
        ``A``, over the same columns; else -1."""
        if a is self.A:
            return self.m
        k = a.shape[0]
        if (a.shape[1] != self.n or k > self.m
                or not np.logical_and.reduce(a == self.A[:k], axis=None)):
            return -1
        return k

    def refactor(self) -> bool:
        """Compute the inverse of the basic columns afresh; False, leaving
        the inverse as it was, if they are singular.

        Only the structural block is inverted.  With ``S`` the structural
        basic columns, ``T`` the rows whose slack is basic and ``R`` the
        other rows (as many as ``S``), ``B^-1`` holds ``M^-1`` on
        ``(S, R)``, where ``M = A[R, S]``, ``-A[T, S] M^-1`` on ``(T, R)``,
        the identity on ``(T, T)`` and zero elsewhere: one ``k x k``
        inversion for ``k`` structural basics, none for a slack basis.
        """
        self.refactorizations += 1
        struct = self.basic < self.n
        s_pos, t_pos = struct.nonzero()[0], (~struct).nonzero()[0]
        cols, t_rows = self.basic[s_pos], self.basic[t_pos] - self.n
        r_rows = np.setdiff1d(np.arange(self.m), t_rows, assume_unique=True)
        binv = np.zeros((self.m, self.m))
        binv[t_pos, t_rows] = 1.0
        if cols.size:
            try:
                minv = np.linalg.inv(self.A[np.ix_(r_rows, cols)])
            except np.linalg.LinAlgError:
                return False
            binv[np.ix_(s_pos, r_rows)] = minv
            binv[np.ix_(t_pos, r_rows)] = -(self.A[np.ix_(t_rows, cols)] @ minv)
        if not np.logical_and.reduce(np.isfinite(binv), axis=None):
            return False
        self.binv = binv
        self.pivots_since_refactor = 0
        return True

    # -- values and prices --------------------------------------------------

    def evaluate(self) -> tuple[np.ndarray, np.ndarray]:
        """The values of all variables at the current basis, and those of
        the basic ones by row, evaluated from scratch; changes nothing."""
        x = np.where(self.stat == _LOWER, self.lo, np.where(self.stat == _UPPER, self.hi, 0.0))
        xb = self.binv @ (self.b - self.A @ x[:self.n] - x[self.n:])
        x[self.basic] = xb
        return x, xb

    def values(self) -> np.ndarray:
        """The values of all variables, from ``evaluate()``, whose basic
        values become the carried ``xb``.  The simplex loops carry ``xb``
        through their steps instead and call this only after the inverse
        was recomputed and before they return."""
        x, self.xb = self.evaluate()
        return x

    def sides(self) -> np.ndarray:
        """Where each row's basic variable lies: -1 below its lower bound,
        +1 above its upper bound, 0 within them, to ``FEAS_TOL``.  It is
        also the phase-1 cost of the basic variables."""
        return ((self.xb > self.hib + FEAS_TOL).astype(float)
                - (self.xb < self.lob - FEAS_TOL))

    def violation(self) -> np.ndarray:
        """How far each basic variable lies outside its bounds: as
        ``lob <= hib``, at most one of the two differences is positive."""
        return np.maximum(np.maximum(self.lob - self.xb, self.xb - self.hib), 0.0)

    def reduced(self, cost: np.ndarray) -> np.ndarray:
        return cost - self.row(cost[self.basic] @ self.binv)

    def row(self, y: np.ndarray) -> np.ndarray:
        """``y @ [A | I]``, as ``[y @ A, y]``."""
        return np.concatenate([y @ self.A, y])

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of ``B^-1 [A | I]``: a product for a structural,
        a copy of a column of ``B^-1`` for a slack."""
        if j < self.n:
            return self.binv @ self.A[:, j]
        return self.binv[:, j - self.n].copy()

    # -- pivoting -----------------------------------------------------------

    def pivot(self, r: int, j: int, w: np.ndarray, leave_stat: int) -> bool:
        """Make ``j``, whose column is ``w`` in the current basis, basic in
        row ``r``; the leaving variable takes status ``leave_stat``.

        The inverse is updated in place by a rank-one step.  Returns
        whether it was computed afresh instead (the pivot element was too
        small, or ``REFACTOR_EVERY`` pivots were reached); values carried
        through the step must then be evaluated again.
        """
        piv = w[r]
        refactored = abs(piv) < 10 * PIVOT_TOL
        if refactored:
            if not self.refactor():
                raise SimplexError("singular basis during pivot")
            w = self.column(j)
            piv = w[r]
            if abs(piv) < 10 * PIVOT_TOL:
                raise SimplexError("pivot element vanished")
        leaving = self.basic[r]
        self.stat[leaving] = leave_stat
        self.sgn[leaving] = _SIGN[leave_stat] * self.movable[leaving]
        self.basic[r] = j
        self.stat[j] = _BASIC
        self.sgn[j] = 0.0
        self.lob[r], self.hib[r] = self.lo[j], self.hi[j]
        binv = self.binv
        # binv -= w row^T in place, through binv.T: a Fortran-ordered view.
        # dger would write into a copy of any other layout, and it writes
        # through read-only flags, so only an owned C-ordered inverse will do
        if not (binv.flags.c_contiguous and binv.flags.writeable):
            binv = self.binv = binv.copy()
        row = binv[r] / piv
        dger(-1.0, row, w, a=binv.T, overwrite_a=True)
        binv[r] = row
        self.pivots_since_refactor += 1
        if self.pivots_since_refactor >= REFACTOR_EVERY:
            if not self.refactor():
                raise SimplexError("singular basis at refactorization")
            refactored = True
        return refactored

    def step(self, j: int, theta: float, w: np.ndarray, r: int, leave_stat: int) -> bool:
        """Carry ``xb`` through one simplex step, then change the basis.

        The entering variable ``j`` moves by ``theta`` and the basic ones
        by ``-theta * w``.  With ``r >= 0``, ``j`` replaces row ``r``'s
        basic variable, which rests at the bound ``leave_stat`` names;
        with ``r < 0``, ``j`` flips to its other bound.  A nonbasic value
        is its status's bound, so neither is carried.  Returns ``pivot``'s
        answer: whether the values must be evaluated afresh.
        """
        self.xb -= theta * w
        if r < 0:
            flipped = _UPPER if self.stat[j] == _LOWER else _LOWER
            self.stat[j] = flipped
            self.sgn[j] = _SIGN[flipped] * self.movable[j]
            return False
        at = self.stat[j]
        self.xb[r] = (self.lo[j] if at == _LOWER else self.hi[j] if at == _UPPER else 0.0) + theta
        return self.pivot(r, j, w, leave_stat)

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
        if self.iterations - self.budget_start > 20000 + 100 * (self.m + self.N):
            raise SimplexError(f"iteration limit exceeded ({self.iterations})")

    # -- primal simplex (composite phase 1 + phase 2) -----------------------

    def primal(self, x: np.ndarray) -> tuple[str, np.ndarray]:
        """Primal phases from the current basis, whose ``values()`` are
        ``x``; returns the status and the values it ends at.

        ``xb`` is carried through each step, and ``sides()`` is the one
        check of the bounds per step.  Before a status is returned the
        values are evaluated afresh, and the status decided on them;
        ``x`` is None while they are carried.
        """
        while True:
            self.check_budget()
            side = self.sides()
            feasible = not np.logical_or.reduce(side)
            if feasible:
                d = self.reduced(self.c)
            else:
                # the phase-1 cost is ``side`` on the basic variables, zero elsewhere
                d = np.zeros(self.N)
                d[self.basic] = side
                d -= self.row(side @ self.binv)
            j = self.price(d)
            if j >= 0:
                up = self.stat[j] == _LOWER or (self.stat[j] == _FREE and d[j] < 0)
                delta = 1.0 if up else -1.0
                w = self.column(j)
                t, r, leave_stat = self.ratio(j, delta, w, side)
            if j < 0 or t == _INF:
                if x is None:
                    x = self.values()
                    continue
                if j < 0:
                    return ("optimal" if feasible else "infeasible"), x
                if not feasible:
                    raise SimplexError("unblocked improving step in phase 1")
                return "unbounded", x
            self.note_step(t)
            x = self.values() if self.step(j, delta * t, w, r, leave_stat) else None

    def price(self, d: np.ndarray) -> int:
        """Entering variable: most violating reduced cost, or -1 if none."""
        score = np.maximum(-(self.sgn * d) - OPT_TOL, 0.0)
        if self.any_free:
            free = self.stat == _FREE
            score[free] = np.maximum(np.abs(d[free]) - OPT_TOL, 0.0)
        # the first positive score in Bland mode, else the first largest
        j = int((score > 0.0).argmax() if self.bland else score.argmax())
        return j if score[j] > 0.0 else -1

    def ratio(self, j: int, delta: float, w: np.ndarray, side: np.ndarray):
        """Largest step for entering j: (t, blocking row, leaving status).

        ``j`` moves by ``delta`` per unit and the basic variables by
        ``-delta * w``, from ``xb``, where they lie on ``side`` of their
        bounds.  A row blocks at the bound its variable moves towards:
        from within, the bound ahead; from outside (phase 1), the bound it
        violates.  Ties go to the largest ``|w|``, or in Bland mode to the
        lowest basic variable.  A blocking row of -1 means the entering
        variable reaches its own opposite bound first (a bound flip, no
        basis change).
        """
        rate = -delta * w
        rows = ((np.abs(rate) > PIVOT_TOL) & (side * rate <= 0.0)).nonzero()[0]
        t_flip = (self.hi[j] - self.lo[j]) if self.stat[j] != _FREE else _INF
        if rows.size == 0:
            return t_flip, -1, 0
        rate = rate[rows]
        # rising from within, or falling from above, ends at the upper bound
        upper = (rate > 0.0) == (side[rows] == 0.0)
        t = np.maximum((np.where(upper, self.hib[rows], self.lob[rows]) - self.xb[rows]) / rate,
                       0.0)
        k = int(t.argmin())
        t_row_min = float(t[k])
        if t_flip == _INF and t_row_min == _INF:
            return _INF, -1, 0
        if t_flip < t_row_min - PIVOT_TOL:
            return t_flip, -1, 0
        if rows.size > 1:
            ties = (t <= t_row_min + PIVOT_TOL).nonzero()[0]
            if ties.size > 1:
                k = int(ties[self.basic[rows[ties]].argmin() if self.bland
                             else np.abs(rate[ties]).argmax()])
        return float(t[k]), int(rows[k]), _UPPER if upper[k] else _LOWER

    # -- dual simplex -------------------------------------------------------

    def dual(self, x: np.ndarray, viol: np.ndarray,
             d: np.ndarray) -> tuple[str, np.ndarray, np.ndarray | None]:
        """Restore primal feasibility from a dual-feasible basis whose
        ``values()`` are ``x``, with ``violation()`` ``viol``, and whose
        reduced costs are ``d``.

        Returns 'optimal', 'infeasible', or 'stalled', the values it ends
        at and, on 'infeasible', a copy of the row of the inverse whose
        leaving variable nothing could move (see ``LpSolution.farkas``),
        else None.  ``xb`` and ``d`` are carried through each step, with
        ``x`` None; before a status is returned they are evaluated afresh,
        and the status decided on them.

        'stalled' ends the attempt after ``m`` consecutive dual-degenerate
        steps, whose ratio ``|d_q / alpha_q|`` is at most ``OPT_TOL``: the
        dual objective did not move.  Only such steps can cycle, and on
        these programs, where only generator columns carry a cost, long
        degenerate runs occur; the caller falls back to a cold solve.
        """
        degenerate = 0
        while True:
            self.check_budget()
            status = None
            r = int(viol.argmax())
            if viol[r] <= FEAS_TOL:
                status = "optimal"
            elif degenerate >= self.m:
                status = "stalled"
            else:
                going_up = self.xb[r] < self.lob[r]
                alpha = self.row(self.binv[r])
                if d is None:
                    d = self.reduced(self.c)
                jcol = self.dual_ratio(alpha, d, going_up)
                if jcol < 0:
                    status = "infeasible"
            if status is not None:
                if x is not None:
                    return status, x, (self.binv[r].copy() if status == "infeasible" else None)
                x, d = self.values(), None
                viol = self.violation()
                continue
            w = self.column(jcol)
            self.iterations += 1
            # the leaving variable moves to the bound it violates; the
            # entering one's reduced cost goes to zero
            bound = self.lob[r] if going_up else self.hib[r]
            theta = (self.xb[r] - bound) / alpha[jcol]
            ratio = d[jcol] / alpha[jcol]
            degenerate = degenerate + 1 if abs(ratio) <= OPT_TOL else 0
            d -= ratio * alpha
            d[self.basic[r]], d[jcol] = -ratio, 0.0
            x = None
            if self.step(jcol, theta, w, r, _LOWER if going_up else _UPPER):
                x, d = self.values(), None
            viol = self.violation()

    def dual_ratio(self, alpha: np.ndarray, d: np.ndarray, going_up: bool) -> int:
        """Entering variable of a dual step whose leaving variable's row of
        ``B^-1 [A | I]`` is ``alpha``: the smallest ``|d_j| / |alpha_j|``
        among the variables that move it towards the bound it violates
        (raises it when ``going_up``), ties to the largest ``|alpha_j|``;
        -1 if there is none."""
        # a nonbasic variable enters if moving it off its bound moves
        # the leaving variable towards the bound it violates
        step = self.sgn * alpha
        elig = (step < -PIVOT_TOL) if going_up else (step > PIVOT_TOL)
        if self.any_free:
            elig |= (self.stat == _FREE) & (np.abs(alpha) > PIVOT_TOL)
        cand = elig.nonzero()[0]
        if cand.size <= 1:
            return int(cand[0]) if cand.size else -1
        abs_alpha = np.abs(alpha[cand])
        ratios = np.abs(d[cand]) / abs_alpha
        ties = (ratios <= ratios[ratios.argmin()] + OPT_TOL).nonzero()[0]
        if ties.size == 1:
            return int(cand[ties[0]])
        return int(cand[ties[abs_alpha[ties].argmax()]])

    def dual_feasible(self, d: np.ndarray) -> bool:
        """Whether the reduced costs ``d`` of the current basis are dual feasible."""
        bad = self.sgn * d < -10 * OPT_TOL
        if self.any_free:
            bad |= (self.stat == _FREE) & (np.abs(d) > 10 * OPT_TOL)
        return not np.logical_or.reduce(bad)


def _finish(eng: _Engine, status: str, x: np.ndarray | None = None,
            cold: bool = False, farkas: np.ndarray | None = None) -> LpSolution:
    """The solution at the engine's final state, whose values are ``x``,
    reached from a slack basis if ``cold``, with the dual simplex's
    ``farkas`` row on its infeasibility.  The engine is done, so its
    arrays go into the basis."""
    if status != "optimal":
        return LpSolution(status, None, None, None, eng.iterations, cold, eng.refactorizations,
                          farkas)
    for arr in (eng.binv, eng.basic, eng.stat):
        arr.flags.writeable = False
    obj = float(eng.c[:eng.n] @ x[:eng.n])
    if not math.isfinite(obj):
        raise SimplexError(f"objective {obj} is not finite")
    basis = Basis(eng.A, eng.binv, eng.basic, eng.stat, eng.pivots_since_refactor)
    return LpSolution("optimal", obj, x[:eng.n].copy(), basis, eng.iterations, cold,
                      eng.refactorizations)


@np.errstate(over="raise", invalid="raise")
def solve(lp: LinearProgram, warm: Basis | None = None) -> LpSolution:
    """Solve a linear program, optionally warm-starting from a basis.

    A warm basis that is dual feasible but primal infeasible (the state
    after appending cutting planes or tightening bounds) is repaired with
    the dual simplex; anything else goes through the primal phases.  A
    basis whose matrix this program's matrix neither equals nor extends
    by rows is ignored, and a stalled or numerically broken warm path
    falls back to a cold solve on the same engine.  A floating-point
    overflow or invalid operation (inf - inf, 0 * inf) counts as
    numerically broken.  Numerical trouble in the cold solve, its
    iteration limit, or an optimum whose objective is not finite raises
    SimplexError.

    Returns
    -------
    LpSolution
        With status 'optimal' (x and basis filled), 'infeasible' (with
        ``farkas`` filled when the dual simplex proved it), or
        'unbounded'.
    """
    eng = _Engine(lp)
    try:
        if warm is not None and eng.install(warm):
            x = eng.values()
            viol = eng.violation()
            feasible = np.logical_and.reduce(viol <= FEAS_TOL)
            if feasible or not eng.dual_feasible(d := eng.reduced(eng.c)):
                return _finish(eng, *eng.primal(x))
            status, x, farkas = eng.dual(x, viol, d)
            if status == "optimal":
                return _finish(eng, *eng.primal(x))
            if status == "infeasible":
                return _finish(eng, "infeasible", farkas=farkas)
            # stalled: fall through to the cold start below
    except (SimplexError, FloatingPointError):
        pass
    eng.slack_start()
    try:
        return _finish(eng, *eng.primal(eng.values()), cold=True)
    except FloatingPointError as err:
        raise SimplexError(f"floating-point error: {err}") from err
