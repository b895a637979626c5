"""Cycle inequalities for switching relaxations, and their separation.

For a cycle C with per-line weight w_a (capacity over susceptance) and a
subset S of its lines with Delta(S) = 2 w(S) - w(C) > 0, the inequality

    sum_S sigma_a f_a / B_a + sum_S [Delta(S) - w_a] x_a
        + Delta(S) sum_{C\\S} x_a  <=  Delta(S) (|C| - 1)

and its reflection in f cut fractional points while holding at every
on/off-feasible flow pattern around the cycle.  Separation works in
normalized coordinates g_a = sigma_a f_a / B_a: writing
K_C = 1 - sum_C (1 - x_a) and v_a = g_a - w_a x_a + 2 w_a K_C, the
violation of any S is sum_S v_a - w(C) K_C, so the most violated subset
simply collects the nonnegative v_a.  When K_C <= 0 no subset is
violated and every separator returns nothing.

``SeparationTable`` is the solve path's separator: it runs that closed
form over a whole cycle set in one array pass per round.
``make_context`` and ``separate_closed_form`` run it on one cycle in
plain Python; they are the reference the tests and the oracle's
separation check compare the table against, float for float, and that
check also compares them with every subset.
``separate_all`` lists every violated subset; only the tests, demo 03
and the benchmark's traced run call it.  Every separator returns
``CycleInequality`` records, and ``inequality_row`` alone writes their
LP rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from dcots.cyclebasis import Cycle
from dcots.formulations import VariableMap

__all__ = [
    "VIOL_TOL",
    "SeparationContext",
    "CycleInequality",
    "SeparationTable",
    "delta",
    "k_value",
    "make_context",
    "separate_closed_form",
    "separate_all",
    "inequality_row",
    "violation",
]

VIOL_TOL = 1e-6


@dataclass(frozen=True)
class SeparationContext:
    """A cycle with the relaxation values its cuts are separated from.

    ``w``, ``g_hat``, and ``x_hat`` are indexed by position in
    ``cycle.members``; ``g_hat`` holds the signed, susceptance-scaled
    flows and ``k_value`` equals 1 - sum(1 - x_hat).
    """

    cycle: Cycle
    w: tuple[float, ...]
    g_hat: tuple[float, ...]
    x_hat: tuple[float, ...]
    k_value: float


@dataclass(frozen=True)
class CycleInequality:
    """One separated cut: a side, a subset of the cycle, its gap data."""

    cycle: Cycle
    side: str  # "right" keeps the flow sum's sign, "left" negates it
    subset: frozenset[int]  # line ids
    delta: float
    violation_found: float


def delta(subset: Sequence[int], w: Sequence[float]) -> float:
    """Excess weight 2 w(S) - w(C) of a subset within its cycle."""
    return 2.0 * sum(w[a] for a in subset) - sum(w)


def k_value(x_hat: Sequence[float]) -> float:
    """1 - sum(1 - x_a): positive only when the cycle is nearly closed."""
    return 1.0 - sum(1.0 - x for x in x_hat)


def make_context(cycle: Cycle, f_hat: Mapping[int, float],
                 x_hat: Mapping[int, float]) -> SeparationContext:
    """Normalize relaxation values onto a cycle's member order."""
    w, g, x = [], [], []
    for ln, s in cycle.members:
        w.append(ln.w)
        g.append(s * f_hat[ln.id] / ln.susceptance)
        x.append(min(1.0, max(0.0, x_hat[ln.id])))
    return SeparationContext(cycle, tuple(w), tuple(g), tuple(x), k_value(x))


def _emit(cycle: Cycle, side: str, positions, viol: float) -> CycleInequality:
    """The cut of ``side`` whose S holds the members of ``cycle`` at ``positions``."""
    members = cycle.members
    d = delta(positions, [ln.w for ln, _ in members])
    assert d > 0.0
    return CycleInequality(cycle, side, frozenset(members[a][0].id for a in positions), d, viol)


def separate_closed_form(ctx: SeparationContext) -> list[CycleInequality]:
    """Most-violated cut per side, by collecting the nonnegative v_a.

    Returns at most one right and one left inequality; nothing when
    K_C <= 0, when the best violation is within ``VIOL_TOL``, or when
    the collected subset is no heavier than half the cycle.
    """
    kc = ctx.k_value
    if kc <= 0.0:
        return []
    out = []
    wc = sum(ctx.w)
    for side, sign in (("right", 1.0), ("left", -1.0)):
        v = [sign * g - w * x + 2.0 * w * kc
             for g, w, x in zip(ctx.g_hat, ctx.w, ctx.x_hat)]
        star = [a for a, va in enumerate(v) if va >= 0.0]
        viol = sum(v[a] for a in star) - wc * kc
        if viol > VIOL_TOL and sum(ctx.w[a] for a in star) > 0.5 * wc:
            out.append(_emit(ctx.cycle, side, star, viol))
    return out


def separate_all(ctx: SeparationContext) -> list[CycleInequality]:
    """Grow the closed-form seed into every violated superset.

    Starting from the nonnegative-v_a seed, lines of the complement are
    added in member order; a branch stops once its violation is gone,
    which is final because every added v_a is negative.
    """
    kc = ctx.k_value
    if kc <= 0.0:
        return []
    out = []
    wc = sum(ctx.w)
    for side, sign in (("right", 1.0), ("left", -1.0)):
        v = [sign * g - w * x + 2.0 * w * kc
             for g, w, x in zip(ctx.g_hat, ctx.w, ctx.x_hat)]
        seed = [a for a, va in enumerate(v) if va >= 0.0]
        rest = [a for a in range(len(v)) if v[a] < 0.0]

        def recurse(s, k):
            vs = sum(v[a] for a in s)
            if vs <= wc * kc:
                return
            viol = vs - wc * kc
            if viol > VIOL_TOL and sum(ctx.w[a] for a in s) > 0.5 * wc:
                out.append(_emit(ctx.cycle, side, s, viol))
            for l in range(k, len(rest)):
                recurse(s + [rest[l]], l + 1)

        recurse(list(seed), 0)
    return out


def inequality_row(ineq: CycleInequality, vmap: VariableMap):
    """Materialize a cut as an LP row over flow and on/off columns."""
    sign = 1.0 if ineq.side == "right" else -1.0
    d = ineq.delta
    coeffs = []
    for ln, s in ineq.cycle.members:
        if ln.id in ineq.subset:
            coeffs.append((vmap.flow[ln.id], sign * s / ln.susceptance))
            coeffs.append((vmap.x[ln.id], d - ln.w))
        else:
            coeffs.append((vmap.x[ln.id], d))
    return coeffs, "<=", d * (len(ineq.cycle.members) - 1.0)


class SeparationTable:
    """The closed-form separator over a whole cycle set, one array pass a round.

    Built once per cycle set and variable map, it holds each cycle's
    flow and on/off columns, signs, susceptances and weights as (K, P)
    arrays, padded past each cycle's length with entries that add 0.0 to
    every sum.  ``cuts(x)`` gives the cuts that
    ``separate_closed_form(make_context(...))`` gives at the point ``x``
    of every cycle, equal float for float, in cycle order and right
    before left: every sum adds up in member order, as Python's ``sum``
    does (``np.add.accumulate`` is ``np.cumsum``; ``.sum()`` would add
    pairwise), and v_a is formed in the same order of operations.  Only
    the cycles with K_C > 0 go on past the first pass, and only the
    violated (cycle, side) pairs become cuts.
    """

    _SIDES = np.array([1.0, -1.0])[:, None, None]
    _PAD = [(0, 0, 0, 1.0, 0.0)]  # sign 0 marks padding

    def __init__(self, cycles, vmap: VariableMap):
        self.cycles, self.vmap = list(cycles), vmap
        flow, on = vmap.flow, vmap.x
        k, p = len(self.cycles), max(map(len, self.cycles), default=0)
        slots = ([(flow[ln.id], on[ln.id], s, ln.susceptance, ln.w) for ln, s in cyc.members]
                 + self._PAD * (p - len(cyc)) for cyc in self.cycles)
        t = np.fromiter((z for cyc in slots for m in cyc for z in m), float,
                        k * p * 5).reshape(k, p, 5)
        self.cols = t[..., :2].astype(np.intp)  # (K, P, 2): flow and on/off columns
        sign = t[..., 2]
        self.signs = self._SIDES * sign  # (2, K, P): each side's sign times the member's
        self.real = np.abs(sign)  # 1 on members, 0 on padding
        self.sus, self.w = t[..., 3], t[..., 4]
        self.w2 = 2.0 * self.w
        self.wc = np.add.accumulate(self.w, axis=1)[:, -1] if p else np.zeros(0)

    def rows(self, x) -> list:
        """LP rows of ``cuts(x)``."""
        return [inequality_row(cut, self.vmap) for cut in self.cuts(x)]

    def cuts(self, x) -> list[CycleInequality]:
        """The most violated cut per side of every cycle at ``x``, as
        ``separate_closed_form`` finds them, in cycle order, right before left."""
        if not self.cycles:
            return []
        fx = x[self.cols]
        f, xv = fx[..., 0], fx[..., 1].clip(0.0, 1.0)
        kc = 1.0 - np.add.accumulate((1.0 - xv) * self.real, axis=1)[:, -1]
        act = (kc > 0.0).nonzero()[0]
        if not act.size:
            return []
        signs, sus, w, w2, wc = self.signs, self.sus, self.w, self.w2, self.wc
        if act.size < kc.size:
            signs = signs[:, act]
            f, xv, kc, sus, w, w2, wc = (a[act] for a in (f, xv, kc, sus, w, w2, wc))
        # sign * (f / B) is sign * f / B exactly: the signs are +-1
        v = (signs * (f / sus) - w * xv) + w2 * kc[:, None]  # (2, k, P)
        # padding and the negative v_a add 0.0: the sums over the nonnegative v_a
        vs = np.add.accumulate(np.maximum(v, 0.0), axis=2)[..., -1].tolist()
        out, vl = [], None
        for k, (i, kck, wck) in enumerate(zip(act.tolist(), kc.tolist(), wc.tolist())):
            for side in (0, 1):
                viol = vs[side][k] - wck * kck
                if not viol > VIOL_TOL:
                    continue
                vl = v.tolist() if vl is None else vl
                cyc = self.cycles[i]
                star = [a for a, va in enumerate(vl[side][k][:len(cyc)]) if va >= 0.0]
                if sum(cyc.members[a][0].w for a in star) > 0.5 * wck:
                    out.append(_emit(cyc, ("right", "left")[side], star, viol))
        return out


def violation(ineq: CycleInequality, f_hat: Mapping[int, float],
              x_hat: Mapping[int, float]) -> float:
    """Left side minus right side of the cut at a point; positive means cut off."""
    sign = 1.0 if ineq.side == "right" else -1.0
    d = ineq.delta
    lhs = 0.0
    for ln, s in ineq.cycle.members:
        if ln.id in ineq.subset:
            lhs += sign * s * f_hat[ln.id] / ln.susceptance
            lhs += (d - ln.w) * x_hat[ln.id]
        else:
            lhs += d * x_hat[ln.id]
    return lhs - d * (len(ineq.cycle.members) - 1.0)
