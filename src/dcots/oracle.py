"""Independent brute-force and LP verification of the polyhedral claims.

Everything here is deliberately redundant with the main solver: LPs go
through scipy's HiGHS rather than the in-repo simplex, facet checks and
ranks are computed exactly over integers, and ground truth for switching
instances comes from enumerating topologies outright.  The cycle
relaxation S_C is handled in normalized coordinates g_a =
sigma_a f_a / B_a, where capacities become the weights w_a and the
all-closed flow-sum condition reads sum(g) = 0.

Every LP goes through ``_solve_blocks``, the module's one ``linprog``
call.  Independent LPs that share one constraint matrix (hull and
projection objectives, brute-force topologies) are solved there as
block-diagonal batches of up to BATCH = 32 blocks per HiGHS call, since
scipy's fixed cost per ``linprog`` call outweighs HiGHS's own on LPs
this small.

The last section turns each headline claim into one seeded routine that
returns the figures it is judged by; the acceptance tests run them at
full size and ``dcots verify`` (``VERIFY_SUITES``) at smaller counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from dcots.cuts import (
    VIOL_TOL,
    delta,
    make_context,
    separate_all,
    separate_closed_form,
)
from dcots.cyclebasis import cycle_basis
from dcots.formulations import build_opf_angle, build_opf_cycle
from dcots.lp import LinearProgram
from dcots.network import PowerNetwork, build_network, random_connected_network

__all__ = [
    "BATCH",
    "HighsStatusError",
    "HullCheckReport",
    "SubsetSumInstance",
    "solve_lp_reference",
    "incidence_matrix",
    "exact_rank",
    "hull_rows",
    "enumerate_S_C_vertices",
    "check_hull_equality",
    "membership_extended",
    "check_projection_prop4",
    "check_facets",
    "reduce_subset_sum",
    "subset_sum_brute",
    "subset_sum_witness",
    "reduction_ots_feasible",
    "reduction_witness_angles",
    "fixed_injection_feasible",
    "dispatch_lp",
    "brute_force_ots",
    "check_opf_equivalence",
    "hull_gap",
    "projection_gap",
    "facet_certificates",
    "separation_agreement",
    "cuts_under_nonpositive_k",
    "dispatch_agreement",
    "reduction_agreement",
    "VERIFY_SUITES",
    "negative_controls",
]

_FLOW_TOL = 1e-8
# LPs per HiGHS call.  Batching pays scipy's fixed cost per linprog call
# once per batch; without a cap, HiGHS's own memory grows with the batch
# (peak RSS of the benchmark's oracle workload: 87.8 MB with 32 blocks,
# 107 MB uncapped).
BATCH = 32
# HiGHS's primal feasibility tolerance: a topology whose least overload
# exceeds it has no dispatch
_OVERLOAD_TOL = 1e-7


class HighsStatusError(RuntimeError):
    """HiGHS ended a batch of oracle LPs without an optimum."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HiGHS status {status}: {message}")
        self.status = status


class _Template(NamedTuple):
    """Constraints that a batch of LPs shares: a_ub x <= b_ub, a_eq x =
    b_eq (either pair may be None), and default bounds lo <= x <= hi."""

    a_ub: object
    b_ub: object
    a_eq: object
    b_eq: object
    lo: np.ndarray
    hi: np.ndarray


def _solve_blocks(lp: _Template, costs, lo=None, hi=None) -> np.ndarray:
    """Minimize each row of ``costs`` over ``lp``; returns x as (k, n).

    ``lo`` and ``hi`` give each block its own bounds, as (k, n) arrays
    (default: the template's).  Up to BATCH blocks go to HiGHS as one
    block-diagonal LP; its objective is separable, so each block sits at
    its own optimum.  Raises HighsStatusError when a batch is not solved
    to optimality.
    """
    costs = np.atleast_2d(costs)
    k, n = costs.shape
    lo = np.broadcast_to(lp.lo if lo is None else lo, (k, n))
    hi = np.broadcast_to(lp.hi if hi is None else hi, (k, n))
    x = np.empty((k, n))
    for start in range(0, k, BATCH):
        blk = slice(start, min(k, start + BATCH))
        size = blk.stop - start
        eye = sparse.identity(size, format="csr")
        a_ub, a_eq = (None if a is None else sparse.kron(eye, a, format="csr")
                      for a in (lp.a_ub, lp.a_eq))
        b_ub, b_eq = (None if b is None else np.tile(b, size) for b in (lp.b_ub, lp.b_eq))
        # through the module attribute, so a wrapper on linprog sees each call
        res = linprog(costs[blk].ravel(), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=np.column_stack([lo[blk].ravel(), hi[blk].ravel()]),
                      method="highs")
        if res.status != 0:
            raise HighsStatusError(res.status, res.message)
        x[blk] = res.x.reshape(size, n)
    return x


def _chunks(items, size: int):
    """Lists of ``size`` consecutive items (the last may be shorter),
    drawn from ``items`` only as each list is needed."""
    it = iter(items)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def solve_lp_reference(lp: LinearProgram):
    """Solve a LinearProgram with scipy's HiGHS as an independent route:
    (status, objective, x), with objective and x None unless 'optimal'.

    The matrix is built from ``lp.rows`` here, not by the program's own
    dense form, which the in-repo simplex uses."""
    a = np.zeros((lp.n_rows, lp.n_cols))
    for i, (coeffs, _, _) in enumerate(lp.rows):
        for c, v in coeffs:
            a[i, c] += v
    sense = np.array([row[1] for row in lp.rows], dtype=object)
    rhs = np.array([row[2] for row in lp.rows], dtype=float)
    sign = np.where(sense == ">=", -1.0, 1.0)
    ub, eq = sense != "==", sense == "=="
    template = _Template(sign[ub, None] * a[ub], sign[ub] * rhs[ub], a[eq], rhs[eq],
                         np.asarray(lp.lo, dtype=float), np.asarray(lp.hi, dtype=float))
    obj = np.asarray(lp.obj, dtype=float)
    try:
        x = _solve_blocks(template, obj)[0]
    except HighsStatusError as err:
        return {2: "infeasible", 3: "unbounded"}.get(err.status, "error"), None, None
    return "optimal", float(obj @ x), x


def incidence_matrix(net: PowerNetwork) -> np.ndarray:
    """Signed line-bus incidence matrix.

    One row per line (in line order), one column per bus (in bus order);
    +1 at the from bus and -1 at the to bus.
    """
    pos = {b.id: j for j, b in enumerate(net.buses)}
    a = np.zeros((len(net.lines), len(net.buses)), dtype=np.int64)
    for i, ln in enumerate(net.lines):
        a[i, pos[ln.from_bus]] = 1
        a[i, pos[ln.to_bus]] = -1
    return a


def _gauss_jordan(mat, n_cols: int) -> int:
    """Reduce a list of Fraction rows in place to reduced row echelon form,
    pivoting only in the first ``n_cols`` columns; returns the rank."""
    rank = 0
    for col in range(n_cols):
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _scaled(values, scale: int) -> list[int]:
    """``scale`` times each rational value, where every denominator divides
    ``scale``, as ints."""
    return [v.numerator * (scale // v.denominator) for v in values]


def exact_rank(rows) -> int:
    """Rank of a rational matrix by fraction-free (Bareiss) elimination.

    Each row is first scaled by the lcm of its denominators, which leaves
    the rank unchanged, so the elimination runs over ints.
    ``_gauss_jordan`` is the tests' reference for the same rank.
    """
    mat = []
    for row in rows:
        row = [Fraction(v) for v in row]
        mat.append(_scaled(row, math.lcm(*(v.denominator for v in row))))
    return _integer_rank(mat)


def _integer_rank(mat: list[list[int]]) -> int:
    """Rank of an integer matrix, reducing its rows in place (Bareiss).

    After k pivots each entry below them is, up to sign, a (k + 1)-minor
    of the input, so the division by the previous pivot is exact.
    """
    rank, prev = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, len(mat)):
            a = mat[r][col]
            mat[r] = [(p * v - a * t) // prev for v, t in zip(mat[r], top)]
        prev = p
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# the single-cycle relaxation S_C, in normalized (g, x) coordinates


def _positive_delta_subsets(w):
    n = len(w)
    for mask in range(1, 1 << n):
        s = tuple(a for a in range(n) if mask >> a & 1)
        if delta(s, w) > 0.0:
            yield s


def hull_rows(w, drop=None):
    """Inequality description of conv(S_C): both cut sides per heavy
    subset plus the capacity rows, as (A_ub, b_ub) over [g, x].

    ``drop`` removes one (side, subset) row for negative controls.
    """
    n = len(w)
    rows, rhs = [], []
    for s in _positive_delta_subsets(w):
        d = delta(s, w)
        for side in (1.0, -1.0):
            if drop is not None and drop == (side, frozenset(s)):
                continue
            row = np.zeros(2 * n)
            for a in s:
                row[a] = side
                row[n + a] = d - w[a]
            for a in range(n):
                if a not in s:
                    row[n + a] = d
            rows.append(row)
            rhs.append(d * (n - 1))
    for a in range(n):
        for side in (1.0, -1.0):
            row = np.zeros(2 * n)
            row[a] = side
            row[n + a] = -w[a]
            rows.append(row)
            rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def enumerate_S_C_vertices(w) -> np.ndarray:
    """All vertices of the pieces of S_C, rows [g | x], de-duplicated.

    A fully closed cycle contributes the vertices of the capacity box
    cut by the zero-flow-sum hyperplane; any other on/off pattern
    contributes the corners of its restricted box.
    """
    n = len(w)
    w = np.asarray(w, dtype=float)
    points = []
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if all(b == 1.0 for b in bits):
            for free in range(n):
                others = [a for a in range(n) if a != free]
                for signs in itertools.product((1.0, -1.0), repeat=n - 1):
                    g = np.zeros(n)
                    g[others] = np.array(signs) * w[others]
                    g[free] = -g[others].sum()
                    if abs(g[free]) <= w[free] + 1e-12:
                        points.append(np.concatenate([g, x]))
        else:
            on = [a for a in range(n) if bits[a] == 1.0]
            for signs in itertools.product((1.0, -1.0), repeat=len(on)):
                g = np.zeros(n)
                for a, s in zip(on, signs):
                    g[a] = s * w[a]
                points.append(np.concatenate([g, x]))
    pts = np.array(points)
    return np.unique(np.round(pts, 9), axis=0)


@dataclass(frozen=True)
class HullCheckReport:
    max_gap: float


def _description_maxima(w, objectives, drop=None) -> np.ndarray:
    """Max of each objective row over the inequality description."""
    n = len(w)
    a_ub, b_ub = hull_rows(w, drop=drop)
    box = _Template(a_ub, b_ub, None, None, np.concatenate([-np.asarray(w), np.zeros(n)]),
                    np.concatenate([w, np.ones(n)]))
    return (objectives * _solve_blocks(box, -objectives)).sum(axis=1)


def check_hull_equality(w, trials: int = 200, seed: int = 0) -> HullCheckReport:
    """Random-objective comparison of the vertex hull against the
    inequality description; equal maxima for every objective certify
    that the description is exactly the convex hull."""
    objectives = np.random.default_rng(seed).standard_normal((trials, 2 * len(w)))
    vertex_best = (enumerate_S_C_vertices(w) @ objectives.T).max(axis=0)
    return HullCheckReport(float(np.abs(_description_maxima(w, objectives)
                                        - vertex_best).max()))


def directional_gap(w, objective, drop=None) -> float:
    """Description max minus vertex max along one objective."""
    c = np.asarray(objective, dtype=float)[None, :]
    return float(_description_maxima(w, c, drop=drop)[0]
                 - (enumerate_S_C_vertices(w) @ c[0]).max())


def membership_extended(g, x, w) -> bool:
    """Hull membership decided by the extended system's feasibility.

    The extended system of ``_projection_systems`` with g and x fixed
    through their bounds; the closed-side flows f1 and the cycle
    indicator y stay free.  |g| <= w x and 0 <= x <= 1 are checked first
    to 1e-9, far tighter than HiGHS's feasibility tolerance of 1e-7.
    """
    n = len(w)
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    if (np.abs(g) > w * x + 1e-9).any() or (x < -1e-9).any() or (x > 1 + 1e-9).any():
        return False
    ext, _ = _projection_systems(w)
    lo, hi = ext.lo.copy(), ext.hi.copy()
    # columns: g (n), f1 (n), x (n), y
    lo[:n] = hi[:n] = g
    lo[2 * n:3 * n] = hi[2 * n:3 * n] = x
    try:
        _solve_blocks(ext, np.zeros(3 * n + 1), lo, hi)
    except HighsStatusError:
        return False
    return True


def check_projection_prop4(w, trials: int = 200, seed: int = 0) -> float:
    """Max objective gap between the extended system and its claimed
    projection onto (g, x, y); zero certifies the projection formula."""
    objectives = np.random.default_rng(seed).standard_normal((trials, 2 * len(w) + 1))
    extended, projected = _projection_maxima(w, objectives)
    return float(np.max(np.abs(extended - projected), initial=0.0))


def _projection_maxima(w, objectives):
    """Max of each objective row over (g, x, y) under the extended system,
    whose f1 columns carry no cost, and under the claimed projection."""
    ext, prj = _projection_systems(w)
    n = len(w)
    c_ext = np.insert(objectives, [n] * n, 0.0, axis=1)
    return ((c_ext * _solve_blocks(ext, -c_ext)).sum(axis=1),
            (objectives * _solve_blocks(prj, -objectives)).sum(axis=1))


def _projection_systems(w) -> tuple[_Template, _Template]:
    """The extended system over (g, f1, x, y) and its claimed projection
    onto (g, x, y)."""
    n = len(w)
    w = np.asarray(w, dtype=float)
    # extended variables: g (n), f1 (n), x (n), y
    ext_rows, ext_rhs = [], []

    def ext(gc, f1c, xc, yc, rhs):
        ext_rows.append(np.concatenate([gc, f1c, xc, [yc]]))
        ext_rhs.append(rhs)

    zeros = np.zeros(n)
    for a in range(n):
        e = np.zeros(n)
        e[a] = 1.0
        ext(zeros, e, zeros, -w[a], 0.0)            # f1 <= w y
        ext(zeros, -e, zeros, -w[a], 0.0)
        ext(e, -e, -w[a] * e, w[a], 0.0)            # g - f1 - w x + w y <= 0
        ext(-e, e, -w[a] * e, w[a], 0.0)
        ext(zeros, zeros, -e, 1.0, 0.0)             # y <= x_a
        ext(e, zeros, -w[a] * e, 0.0, 0.0)          # g <= w x
        ext(-e, zeros, -w[a] * e, 0.0, 0.0)
    ext(zeros, zeros, np.ones(n), -1.0, n - 1.0)    # sum x - y <= n - 1
    ext_eq = np.concatenate([zeros, np.ones(n), zeros, [0.0]])[None, :]
    ones = np.ones(n + 1)
    extended = _Template(np.array(ext_rows), np.array(ext_rhs), ext_eq, np.zeros(1),
                         np.concatenate([-w, -w, np.zeros(n + 1)]), np.concatenate([w, w, ones]))

    # projected variables: g (n), x (n), y
    prj_rows, prj_rhs = [], []

    def prj(gc, xc, yc, rhs):
        prj_rows.append(np.concatenate([gc, xc, [yc]]))
        prj_rhs.append(rhs)

    for a in range(n):
        e = np.zeros(n)
        e[a] = 1.0
        prj(e, -w[a] * e, 0.0, 0.0)
        prj(-e, -w[a] * e, 0.0, 0.0)
        prj(zeros, -e, 1.0, 0.0)
    for s in _positive_delta_subsets(tuple(w)):
        d = delta(s, tuple(w))
        gc = np.zeros(n)
        xc = np.zeros(n)
        for a in s:
            gc[a] = 1.0
            xc[a] = -w[a]
        prj(gc, xc, d, 0.0)
        prj(-gc, xc, d, 0.0)
    prj(zeros, np.ones(n), -1.0, n - 1.0)
    projected = _Template(np.array(prj_rows), np.array(prj_rhs), None, None,
                          np.concatenate([-w, np.zeros(n + 1)]), np.concatenate([w, ones]))
    return extended, projected


# ---------------------------------------------------------------------------
# facet verification in integer arithmetic


def _witness_points(w, subset):
    n = len(w)
    s = sorted(subset)
    comp = [a for a in range(n) if a not in subset]
    w_s = sum(w[a] for a in s)
    rho = sum(w[a] for a in comp) / w_s
    eps = min(w) / 1000
    for _ in range(10):
        ok = all(rho * w[a] + eps <= w[a] for a in s)
        if len(s) > 1:
            ok = ok and all(rho * w[a] - (len(s) - 1) * eps >= -w[a] for a in s)
        if ok:
            break
        eps /= 2
    else:
        raise AssertionError("no feasible epsilon for witness points")
    points = []
    for a_hat in s:  # closed-cycle points riding the face
        f = [None] * n
        for a in s:
            f[a] = rho * w[a] + eps if a != a_hat else rho * w[a] - (len(s) - 1) * eps
        for a in comp:
            f[a] = -w[a]
        points.append((f, [Fraction(1)] * n))
    for a_hat in s:  # one subset line opened
        f = [w[a] if a != a_hat else Fraction(0) for a in range(n)]
        x = [Fraction(1) if a != a_hat else Fraction(0) for a in range(n)]
        points.append((f, x))
    for idx, a_til in enumerate(comp):  # one complement line opened
        f = [w[a] if a in subset else Fraction(0) for a in range(n)]
        x = [Fraction(1) if a != a_til else Fraction(0) for a in range(n)]
        points.append((f, x))
        if len(comp) >= 2:
            a_bar = comp[(idx + 1) % len(comp)]
            f2 = list(f)
            f2[a_bar] = w[a_bar]
            points.append((list(f2), list(x)))
    return points


def check_facets(w, subset) -> bool:
    """Certify one cut as facet-defining by explicit witness points.

    Builds the proof's point families in rational arithmetic, verifies
    each lies in S_C (x binary, |f_a| <= w_a x_a, zero flow sum when
    closed) and on the cut's face, and checks the required affine (or,
    with a single complement line, linear) rank.  Raises ValueError for
    a subset that is not heavy.

    The checks and the rank run over ints.  With L the lcm of the
    denominators of w and of every witness flow, W = L w and F = L f are
    integral.  For fixed x each check is homogeneous of degree 1 in
    (w, f), so it holds on (W, F) exactly when it holds on (w, f), and
    scaling the flow columns by L leaves the rank unchanged.
    """
    n = len(w)
    w = [Fraction(v) for v in w]
    subset = frozenset(subset)
    if 2 * sum(w[a] for a in subset) <= sum(w):
        raise ValueError(f"facet check requires a heavy subset, got {sorted(subset)}")
    points = _witness_points(w, subset)
    scale = math.lcm(*(v.denominator for v in w),
                     *(fa.denominator for f, _ in points for fa in f))
    big_w = _scaled(w, scale)
    d = 2 * sum(big_w[a] for a in subset) - sum(big_w)
    # the cut: sum_{a in S} g_a + sum_a x_coeff_a x_a <= d (n - 1)
    x_coeff = [d - wa if a in subset else d for a, wa in enumerate(big_w)]
    rows = []
    for f, x in points:
        if any(xa not in (0, 1) for xa in x):
            return False
        big_f, x = _scaled(f, scale), [int(xa) for xa in x]
        if any(abs(fa) > wa * xa for fa, wa, xa in zip(big_f, big_w, x)):
            return False
        if all(x) and sum(big_f) != 0:
            return False
        lhs = sum(big_f[a] for a in subset) + sum(c * xa for c, xa in zip(x_coeff, x))
        if lhs != d * (n - 1):
            return False
        rows.append(big_f + x)
    # a single complement line gives only 2n - 1 points, ranked as they are
    if len(subset) != n - 1:
        rows = [[v - v0 for v, v0 in zip(row, rows[0])] for row in rows[1:]]
    return _integer_rank(rows) == 2 * n - 1


# ---------------------------------------------------------------------------
# the subset-sum hardness construction


@dataclass(frozen=True)
class SubsetSumInstance:
    a: tuple[int, ...]
    b: int

    def __post_init__(self):
        if any(v <= 0 for v in self.a) or self.b <= 0:
            raise ValueError("subset-sum terms must be positive")


def reduce_subset_sum(inst: SubsetSumInstance) -> PowerNetwork:
    """Network whose switching feasibility encodes a subset-sum query.

    Bus 0 generates exactly two units; one unit must reach the load
    over the direct line, the other over the two-hop corridor, and the
    middle parallel paths can carry the corridor unit exactly when some
    subset of a sums to b.
    """
    n = len(inst.a)
    buses = [(i, 0.0) for i in range(n + 2)] + [(n + 2, 2.0)]
    gens = [(0, 2.0, 2.0, 1.0)]
    lines = []
    for i, ai in enumerate(inst.a, start=1):
        cap = ai / inst.b
        lines.append((len(lines), 0, i, 2.0 * ai, cap))
        lines.append((len(lines), i, n + 1, 2.0 * ai, cap))
    lines.append((len(lines), n + 1, n + 2, 1.0, 1.0))
    lines.append((len(lines), 0, n + 2, inst.b / (inst.b + 1), 1.0))
    return build_network(buses=buses, generators=gens, lines=lines, base_mva=1.0)


def subset_sum_brute(inst: SubsetSumInstance) -> bool:
    reachable = {0}
    for v in inst.a:
        reachable |= {r + v for r in reachable}
    return inst.b in reachable


def subset_sum_witness(inst: SubsetSumInstance) -> tuple[int, ...] | None:
    """Index set of one subset reaching the target, or None."""
    parents: dict[int, tuple[int, ...]] = {0: ()}
    for i, v in enumerate(inst.a):
        for total, picks in list(parents.items()):
            if total + v not in parents:
                parents[total + v] = picks + (i,)
    return parents.get(inst.b)


def _exact_solve(a_rows, rhs):
    mat = [[Fraction(v) for v in row] + [Fraction(r)]
           for row, r in zip(a_rows, rhs)]
    if _gauss_jordan(mat, len(mat)) < len(mat):
        raise ValueError("singular system")
    return [row[-1] for row in mat]


def reduction_witness_angles(inst: SubsetSumInstance, subset):
    """Exact angles of the reduced network once only the chosen paths
    stay closed, anchored at the load bus; None if any line overloads.

    Everything is rational, so a correct witness reproduces the
    construction's angle values with no rounding at all.
    """
    n = len(inst.a)
    subset = sorted(subset)
    b = inst.b
    # edges as (u, v, susceptance, capacity), buses 0..n+2, load bus last
    edges = []
    for i in subset:
        ai = inst.a[i]
        cap = Fraction(ai, b)
        edges.append((0, i + 1, Fraction(2 * ai), cap))
        edges.append((i + 1, n + 1, Fraction(2 * ai), cap))
    edges.append((n + 1, n + 2, Fraction(1), Fraction(1)))
    edges.append((0, n + 2, Fraction(b, b + 1), Fraction(1)))
    active_buses = sorted({0, n + 1, n + 2} | {i + 1 for i in subset})
    idx = {bus: k for k, bus in enumerate(active_buses)}
    inj = {bus: Fraction(0) for bus in active_buses}
    inj[0] = Fraction(2)
    inj[n + 2] = Fraction(-2)
    m = len(active_buses)
    lap = [[Fraction(0)] * m for _ in range(m)]
    for u, v, sus, _ in edges:
        iu, iv = idx[u], idx[v]
        lap[iu][iu] += sus
        lap[iv][iv] += sus
        lap[iu][iv] -= sus
        lap[iv][iu] -= sus
    anchor = idx[n + 2]
    keep = [k for k in range(m) if k != anchor]
    sub_rows = [[lap[r][c] for c in keep] for r in keep]
    sub_rhs = [inj[active_buses[r]] for r in keep]
    solution = _exact_solve(sub_rows, sub_rhs)
    theta = {active_buses[anchor]: Fraction(0)}
    for k, val in zip(keep, solution):
        theta[active_buses[k]] = val
    for u, v, sus, cap in edges:
        if abs(sus * (theta[u] - theta[v])) > cap:
            return None
    return theta


def _component_roots(net: PowerNetwork, lines) -> dict[int, int]:
    """Union-find: each bus id mapped to one representative bus of its
    component under the given lines."""
    comp = {b.id: b.id for b in net.buses}

    def find(u):
        while comp[u] != u:
            comp[u] = comp[comp[u]]
            u = comp[u]
        return u

    for ln in lines:
        comp[find(ln.from_bus)] = find(ln.to_bus)
    return {b: find(b) for b in comp}


def fixed_injection_feasible(net: PowerNetwork, active_ids) -> bool:
    """Exact feasibility of one topology when every injection is fixed.

    Solves each active component's reduced angle system and checks the
    implied flows against capacities; components must balance exactly.
    """
    inj = {b.id: -b.load for b in net.buses}
    for g in net.generators:
        if g.p_min != g.p_max:
            raise ValueError("injections are not fixed")
        inj[g.bus] += g.p_min
    active = [ln for ln in net.lines if ln.id in active_ids]
    root = _component_roots(net, active)
    groups: dict[int, list[int]] = {}
    for b in net.buses:
        groups.setdefault(root[b.id], []).append(b.id)
    scale = max(1.0, max(abs(v) for v in inj.values()) if inj else 1.0)
    for members in groups.values():
        total = sum(inj[b] for b in members)
        if abs(total) > _FLOW_TOL * scale:
            return False
        if len(members) == 1:
            continue
        idx = {b: k for k, b in enumerate(members)}
        lap = np.zeros((len(members), len(members)))
        lines_here = [ln for ln in active if ln.from_bus in idx and ln.to_bus in idx]
        for ln in lines_here:
            u, v = idx[ln.from_bus], idx[ln.to_bus]
            lap[u, u] += ln.susceptance
            lap[v, v] += ln.susceptance
            lap[u, v] -= ln.susceptance
            lap[v, u] -= ln.susceptance
        rhs = np.array([inj[b] for b in members])
        theta = np.zeros(len(members))
        theta[1:] = np.linalg.solve(lap[1:, 1:], rhs[1:])
        for ln in lines_here:
            flow = ln.susceptance * (theta[idx[ln.from_bus]] - theta[idx[ln.to_bus]])
            if abs(flow) > ln.capacity + _FLOW_TOL * scale:
                return False
    return True


def reduction_ots_feasible(inst: SubsetSumInstance) -> bool:
    """Exhaustive topology feasibility of the reduced network.

    A half-open middle path is a dangling active line carrying zero
    flow, so every topology is flow-equivalent to a choice of fully
    closed paths plus the two corridor lines; each such class is
    checked exactly on the network reduce_subset_sum builds.
    """
    n = len(inst.a)
    net = reduce_subset_sum(inst)
    # term i's path is lines 2i and 2i + 1, then the corridor and the direct line
    corridor, direct = 2 * n, 2 * n + 1
    for mask in range(1 << n):
        paths = {lid for i in range(n) if mask >> i & 1 for lid in (2 * i, 2 * i + 1)}
        for extra in ({direct, corridor}, {direct}, {corridor}, set()):
            if fixed_injection_feasible(net, paths | extra):
                return True
    return False


# ---------------------------------------------------------------------------
# brute-force switching ground truth


class _Dispatch:
    """The dispatch LP of every topology of one network, as one template.

    Columns are p (generators), f (lines), theta (buses), z and s (lines).
    Rows balance each bus, tie each line's flow to its angles as f_a -
    B_a (theta_from - theta_to) - z_a = 0, and bound it as +-f_a - s_a <=
    cap_a.  On a closed line z_a is fixed at 0 and f_a is free; on an open
    line f_a and s_a are fixed at 0 and z_a is free.  Topologies therefore
    differ in bounds alone.  The overloads s are free (s >= 0) only in
    phase 1, which minimizes their sum; phase 2 minimizes the cost.
    """

    def __init__(self, net: PowerNetwork):
        gens, lines = net.generators, net.lines
        ng, m, nb = len(gens), len(lines), len(net.buses)
        bus_idx = {b.id: k for k, b in enumerate(net.buses)}
        self.f0, self.z0, self.s0 = ng, ng + m + nb, ng + 2 * m + nb
        nvar = self.s0 + m
        a_eq = np.zeros((nb + m, nvar))
        for gi, g in enumerate(gens):
            a_eq[bus_idx[g.bus], gi] = 1.0
        for li, ln in enumerate(lines):
            u, v, f = bus_idx[ln.from_bus], bus_idx[ln.to_bus], self.f0 + li
            a_eq[u, f] -= 1.0
            a_eq[v, f] += 1.0
            a_eq[nb + li, [f, self.z0 + li]] = 1.0, -1.0
            a_eq[nb + li, ng + m + u] -= ln.susceptance
            a_eq[nb + li, ng + m + v] += ln.susceptance
        eye = np.eye(m)
        a_ub = np.zeros((2 * m, nvar))
        a_ub[:, self.f0:self.f0 + m] = np.vstack([eye, -eye])
        a_ub[:, self.s0:] = np.vstack([-eye, -eye])
        cap = np.array([ln.capacity for ln in lines])
        lo = np.concatenate([[g.p_min for g in gens], np.full(nvar - ng, -np.inf)])
        hi = np.concatenate([[g.p_max for g in gens], np.full(nvar - ng, np.inf)])
        lo[self.s0:] = 0.0
        self.lp = _Template(sparse.csr_matrix(a_ub), np.tile(cap, 2), sparse.csr_matrix(a_eq),
                            np.concatenate([[b.load for b in net.buses], np.zeros(m)]), lo, hi)
        self.cost = np.concatenate([[g.cost for g in gens], np.zeros(nvar - ng)])
        self.overload = np.concatenate([np.zeros(self.s0), np.ones(m)])
        self.line_ids = [ln.id for ln in lines]

    def closed(self, active_ids) -> np.ndarray:
        return np.array([lid in active_ids for lid in self.line_ids], dtype=bool)

    def solve(self, closed: np.ndarray, phase1: bool) -> np.ndarray:
        """x of each topology, one row of ``closed`` (k, lines) each."""
        k, m = closed.shape
        lo, hi = np.tile(self.lp.lo, (k, 1)), np.tile(self.lp.hi, (k, 1))
        f, z, s = (slice(c, c + m) for c in (self.f0, self.z0, self.s0))
        lo[:, f] = np.where(closed, -np.inf, 0.0)
        hi[:, f] = np.where(closed, np.inf, 0.0)
        lo[:, z] = np.where(closed, 0.0, -np.inf)
        hi[:, z] = np.where(closed, 0.0, np.inf)
        hi[:, s] = np.where(closed, np.inf, 0.0) if phase1 else 0.0
        return _solve_blocks(self.lp, np.tile(self.overload if phase1 else self.cost, (k, 1)),
                             lo, hi)

    def max_overload(self, closed: np.ndarray) -> np.ndarray:
        """Phase 1: the least largest overload of each topology."""
        return self.solve(closed, phase1=True)[:, self.s0:].max(axis=1, initial=0.0)

    def costs(self, closed: np.ndarray) -> list:
        """Phase 2: the least cost of each topology, or None where HiGHS
        finds no optimum; a batch that fails is solved again one by one."""
        try:
            return [float(v) for v in self.solve(closed, phase1=False) @ self.cost]
        except HighsStatusError:
            if len(closed) == 1:
                return [None]
            return [c for row in closed for c in self.costs(row[None, :])]


def dispatch_lp(net: PowerNetwork, active_ids):
    """Min-cost dispatch on one topology via the reference LP solver:
    (cost, flow per line id), or (None, None) without an optimum."""
    model = _Dispatch(net)
    try:
        x = model.solve(model.closed(active_ids)[None, :], phase1=False)[0]
    except HighsStatusError:
        return None, None
    return float(x @ model.cost), {lid: float(x[model.f0 + li])
                                   for li, lid in enumerate(model.line_ids)}


def _component_screen(net: PowerNetwork, active_ids) -> bool:
    root = _component_roots(net, [ln for ln in net.lines if ln.id in active_ids])
    load: dict[int, float] = {}
    pmin: dict[int, float] = {}
    pmax: dict[int, float] = {}
    for b in net.buses:
        r = root[b.id]
        load[r] = load.get(r, 0.0) + b.load
        pmin.setdefault(r, 0.0)
        pmax.setdefault(r, 0.0)
    for g in net.generators:
        r = root[g.bus]
        pmin[r] += g.p_min
        pmax[r] += g.p_max
    return all(pmin[r] - 1e-9 <= load[r] <= pmax[r] + 1e-9 for r in load)


def brute_force_ots(net: PowerNetwork):
    """Ground-truth switching optimum by full topology enumeration.

    Iterates every on/off pattern of the switchable lines, screens each
    for per-component supply bounds, keeps those whose least overload
    (phase 1) is within HiGHS's feasibility tolerance, solves their
    dispatch LPs (phase 2), and returns (best objective, best pattern) or
    (None, None).  Each phase solves BATCH topologies per HiGHS call.
    """
    model = _Dispatch(net)
    switchable = [ln.id for ln in net.lines if ln.switchable]
    always_on = {ln.id for ln in net.lines if not ln.switchable}

    def screened():
        for mask in range(1 << len(switchable)):
            active = always_on | {switchable[i] for i in range(len(switchable))
                                  if mask >> i & 1}
            if _component_screen(net, active):
                yield model.closed(active)

    def feasible():
        for chunk in _chunks(screened(), BATCH):
            yield from itertools.compress(chunk, model.max_overload(np.array(chunk))
                                          <= _OVERLOAD_TOL)

    best_obj, best_x = None, None
    for chunk in _chunks(feasible(), BATCH):
        for closed, obj in zip(chunk, model.costs(np.array(chunk))):
            if obj is not None and (best_obj is None or obj < best_obj - 1e-12):
                best_obj, best_x = obj, {lid: float(on)
                                         for lid, on in zip(model.line_ids, closed)}
    return best_obj, best_x


def check_opf_equivalence(net: PowerNetwork):
    """Angle-vs-cycle dispatch agreement through the reference solver.

    Returns (status, objective gap, flow reconstruction gap, objective);
    the flow gap fits angles theta to the cycle solution's flows f by
    least squares on diag(B) A theta = f, A the incidence matrix, and
    measures the worst line residual.
    """
    lp_a, _ = build_opf_angle(net)
    lp_c, vmap_c = build_opf_cycle(net, cycle_basis(net))
    st_a, obj_a, _ = solve_lp_reference(lp_a)
    st_c, obj_c, x_c = solve_lp_reference(lp_c)
    if st_a != st_c:
        return f"status-mismatch:{st_a}/{st_c}", None, None, None
    if st_a != "optimal":
        return st_a, None, None, None
    f_c = x_c[[vmap_c.flow[ln.id] for ln in net.lines]]
    ba = np.array([ln.susceptance for ln in net.lines])[:, None] * incidence_matrix(net)
    theta = np.linalg.lstsq(ba, f_c, rcond=None)[0]
    flow_gap = float(np.abs(ba @ theta - f_c).max(initial=0.0))
    return "optimal", abs(obj_a - obj_c), flow_gap, obj_a


# ---------------------------------------------------------------------------
# claim checks: one routine per claim, run by the acceptance tests at
# full size and by ``dcots verify`` (VERIFY_SUITES) at smaller counts


def _worst_over_weights(rng, sizes, draws, gap_of) -> float:
    worst = 0.0
    for n in sizes:
        for _ in range(draws):
            w = tuple(np.round(rng.uniform(0.3, 2.5, size=n), 3))
            worst = max(worst, gap_of(w, int(rng.integers(10**6))))
    return worst


def hull_gap(rng, sizes, draws: int, trials: int) -> float:
    """Worst hull-equality gap, ``trials`` objectives per weight vector."""
    return _worst_over_weights(rng, sizes, draws, lambda w, seed: check_hull_equality(
        w, trials=trials, seed=seed).max_gap)


def projection_gap(rng, sizes, draws: int, trials: int) -> float:
    """Worst extended-formulation projection gap, drawn as in hull_gap."""
    return _worst_over_weights(rng, sizes, draws, lambda w, seed: check_projection_prop4(
        w, trials=trials, seed=seed))


def facet_certificates(rng, sizes, draws: int):
    """Facet-certify every heavy subset of unit and ``draws`` random weights
    per cycle size: (subsets certified, first failing (w, subset) or None)."""
    certified = 0
    for n in sizes:
        weight_vectors = [tuple([1.0] * n)] + [
            tuple(np.round(rng.uniform(0.3, 2.5, size=n), 3)) for _ in range(draws)]
        for w in weight_vectors:
            for subset in _positive_delta_subsets(w):
                if not check_facets(w, subset):
                    return certified, (w, subset)
                certified += 1
    return certified, None


def _ring_cycle(weights):
    n = len(weights)
    net = build_network([(i, 0.0) for i in range(n)], [(0, 0.0, 0.0, 1.0)],
                        [(a, a, (a + 1) % n, 1.0, weights[a]) for a in range(n)])
    return next(iter(cycle_basis(net)))


def _context_on_ring(rng, n):
    """A separation context with |g| <= w x on a fresh n-line ring."""
    cycle = _ring_cycle(np.round(rng.uniform(0.2, 3.0, size=n), 4))
    x = [1.0 if rng.uniform() < 0.4 else float(np.round(rng.uniform(), 4))
         for _ in range(n)]
    u = np.round(rng.uniform(-1, 1, size=n), 4)
    f_hat, x_hat = {}, {}
    for pos, (ln, s) in enumerate(cycle.members):
        f_hat[ln.id] = s * float(u[pos]) * ln.w * x[pos] * ln.susceptance
        x_hat[ln.id] = x[pos]
    return make_context(cycle, f_hat, x_hat)


def _exhaustive_best_violation(ctx) -> float:
    """Largest violation over every heavy subset and both sides, or 0."""
    n = len(ctx.w)
    w, g, x = np.array(ctx.w), np.array(ctx.g_hat), np.array(ctx.x_hat)
    member = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    d = 2.0 * member @ w - w.sum()
    heavy = d > 0.0
    if not heavy.any():
        return 0.0
    base = member @ (-w * x) + d * ctx.k_value
    return max(0.0, (member @ g + base)[heavy].max(),
               (member @ (-g) + base)[heavy].max())


def separation_agreement(rng, contexts: int, max_len: int):
    """Closed-form vs exhaustive separation on rings of 2..max_len lines:
    (contexts cut, disagreements), a disagreement being a cut that is not
    the exhaustive best or no cut where the best exceeds the tolerance."""
    emitted = disagreements = 0
    for _ in range(contexts):
        ctx = _context_on_ring(rng, int(rng.integers(2, max_len + 1)))
        cuts = separate_closed_form(ctx)
        best = _exhaustive_best_violation(ctx)
        if cuts:
            emitted += 1
            disagreements += abs(max(c.violation_found for c in cuts) - best) > 1e-9
        else:
            disagreements += best > VIOL_TOL + 1e-9
    return emitted, disagreements


def cuts_under_nonpositive_k(rng, contexts: int, max_len: int) -> int:
    """Random ring contexts, with one line opened outright wherever K_C
    is positive; counts those with K_C <= 0 that either separator cuts."""
    exceptions = 0
    for _ in range(contexts):
        n = int(rng.integers(2, max_len + 1))
        ctx = _context_on_ring(rng, n)
        if ctx.k_value > 0.0:
            # open one line completely; K_C drops to at most zero
            victim = int(rng.integers(n))
            f_hat = {ln.id: 0.0 if pos == victim else ctx.g_hat[pos] * s * ln.susceptance
                     for pos, (ln, s) in enumerate(ctx.cycle.members)}
            x_hat = {ln.id: 0.0 if pos == victim else ctx.x_hat[pos]
                     for pos, (ln, _) in enumerate(ctx.cycle.members)}
            ctx = make_context(ctx.cycle, f_hat, x_hat)
        if ctx.k_value <= 0.0 and (separate_closed_form(ctx) or separate_all(ctx)):
            exceptions += 1
    return exceptions


def dispatch_agreement(first_seed: int, networks: int, max_buses: int,
                       attempts: int):
    """Angle vs cycle dispatch on the first ``networks`` dispatchable random
    networks among ``attempts`` seeds from first_seed on: (dispatchable,
    worst objective gap over 1 + |objective|, worst flow gap, mismatches)."""
    solved = mismatches = 0
    worst_obj = worst_flow = 0.0
    for seed in range(first_seed, first_seed + attempts):
        if solved == networks:
            break
        status, obj_gap, flow_gap, obj = check_opf_equivalence(
            random_connected_network(seed, max_buses=max_buses))
        if status == "optimal":
            solved += 1
            worst_obj = max(worst_obj, obj_gap / (1.0 + abs(obj)))
            worst_flow = max(worst_flow, flow_gap)
        elif status != "infeasible":
            mismatches += 1
    return solved, worst_obj, worst_flow, mismatches


def reduction_agreement(rng, instances: int, max_terms: int):
    """Reduction feasibility vs subset sum on 1..max_terms terms in 1..9,
    targets 1..25: (disagreements, exact witnesses, inexact witnesses); a
    witness is exact when it gives the source bus angle (b + 1) / b."""
    disagreements = exact = inexact = 0
    for _ in range(instances):
        n = int(rng.integers(1, max_terms + 1))
        inst = SubsetSumInstance(tuple(int(v) for v in rng.integers(1, 10, size=n)),
                                 int(rng.integers(1, 26)))
        if reduction_ots_feasible(inst) != subset_sum_brute(inst):
            disagreements += 1
            continue
        wit = subset_sum_witness(inst)
        if wit is not None:
            theta = reduction_witness_angles(inst, wit)
            if theta is not None and theta[0] == Fraction(inst.b + 1, inst.b):
                exact += 1
            else:
                inexact += 1
    return disagreements, exact, inexact


def _verify_hull(seed):
    worst = hull_gap(np.random.default_rng(seed), (2, 3, 4), draws=3, trials=60)
    return worst <= 1e-7, f"max hull gap {worst:.3e}"


def _verify_facets(seed):
    certified, failed = facet_certificates(np.random.default_rng(seed), (3, 4, 5, 6),
                                           draws=2)
    return failed is None, (f"{certified} facet certificates verified" if failed is None
                            else f"facet rank failed for (w, S) = {failed}")


def _verify_separation(seed):
    rng = np.random.default_rng(seed)
    emitted, disagreements = separation_agreement(rng, 2000, max_len=8)
    exceptions = cuts_under_nonpositive_k(rng, 2000, max_len=8)
    return disagreements == 0 and exceptions == 0, (
        f"2000 contexts, {emitted} violated, {disagreements} disagreements; "
        f"2000 opened cycles, {exceptions} cut under nonpositive K")


def _verify_projection(seed):
    worst = projection_gap(np.random.default_rng(seed), (2, 3), draws=1, trials=60)
    return worst <= 1e-7, f"max projection gap {worst:.3e}"


def _verify_equivalence(seed):
    solved, worst_obj, worst_flow, mismatches = dispatch_agreement(
        seed, networks=10, max_buses=6, attempts=40)
    ok = solved == 10 and mismatches == 0 and max(worst_obj, worst_flow) <= 1e-6
    return ok, (f"{solved} dispatchable draws, {mismatches} status mismatches, "
                f"worst gaps {worst_obj:.3e} objective, {worst_flow:.3e} flow")


def _verify_reduction(seed):
    disagreements, exact, inexact = reduction_agreement(
        np.random.default_rng(seed), 40, max_terms=5)
    return disagreements == 0 and inexact == 0, (
        f"40 instances, {disagreements} disagreements, "
        f"{exact} exact witnesses, {inexact} inexact")


def _verify_basis(seed):
    for k in range(30):
        net = random_connected_network(seed + k, max_buses=10)
        cycles = cycle_basis(net)
        expected = len(net.lines) - len(net.buses) + 1
        if len(cycles) != expected:
            return False, f"basis size {len(cycles)} != {expected}"
        mat = incidence_matrix(net)
        row_of = {ln.id: i for i, ln in enumerate(net.lines)}
        for cyc in cycles:
            vec = sum(sign * mat[row_of[ln.id]] for ln, sign in cyc.members)
            if np.abs(vec).max() > 1e-12:
                return False, "cycle is not a circulation"
    return True, "30 multigraphs, full-rank circulation bases"


# name -> check(seed) returning (passed, detail)
VERIFY_SUITES = {
    "hull": _verify_hull,
    "facets": _verify_facets,
    "separation": _verify_separation,
    "projection": _verify_projection,
    "equivalence": _verify_equivalence,
    "reduction": _verify_reduction,
    "basis": _verify_basis,
}


def negative_controls():
    """Tampered checks that must FAIL, as (name, failure detected, detail)."""
    gap = directional_gap((1.0, 1.0, 1.0), np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]),
                          drop=(1.0, frozenset({0, 1, 2})))
    inside = membership_extended([0.5, 0.5, 0.5], [1.0, 1.0, 1.0],
                                 np.array([1.0, 1.0, 1.0]))
    feasible = reduction_ots_feasible(SubsetSumInstance((2,), 3))
    # a single complement line: the 5 witness rows must be linearly independent
    rows = [f + x for f, x in _witness_points([Fraction(1)] * 3, {0, 1})]
    rows[-1] = [(u + v) / 2 for u, v in zip(rows[0], rows[1])]
    rank = exact_rank(rows)
    return [
        ("dropped-facet-row-reopens-gap", gap > 1e-6, f"gap {gap:.3e}"),
        ("circulation-point-rejected", not inside,
         "membership said " + ("inside" if inside else "outside")),
        ("unreachable-target-stays-infeasible", not feasible,
         "enumeration said " + ("feasible" if feasible else "infeasible")),
        ("dependent-witness-drops-rank", rank < 5, f"rank {rank} of 5 witness rows"),
    ]
