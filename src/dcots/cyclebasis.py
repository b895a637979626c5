"""Cycle space of a network.

The signed incidence matrix of a connected multigraph has rank n - 1, so
eliminating it with exact integer row operations leaves m - n + 1 zero
rows; the row operations that produced each zero row are a signed cycle.
This module builds that basis, combines cycles into longer ones, and
orients raw edge sets into traversable cycles.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from dcots.network import Line, PowerNetwork

__all__ = [
    "Cycle",
    "CycleSet",
    "incidence_matrix",
    "lu_partial_pivot",
    "cycle_basis",
    "cycle_of_chord",
    "combine_cycles",
    "expand_cycle_set",
    "sample_cycles",
]


@dataclass(frozen=True)
class Cycle:
    """An ordered, sign-oriented closed walk of distinct lines.

    ``members`` lists (line, sign) along the traversal: sign +1 means the
    line is crossed from its from_bus to its to_bus.  ``generation`` is 0
    for basis cycles and grows by one per combination step.
    """

    members: tuple[tuple[Line, int], ...]
    generation: int = 0

    def __len__(self) -> int:
        return len(self.members)

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(ln.id for ln, _ in self.members)

    @property
    def weight(self) -> float:
        """Total capacity/susceptance weight of the cycle."""
        return sum(ln.w for ln, _ in self.members)


@dataclass(frozen=True)
class CycleSet:
    """An ordered, duplicate-free collection of cycles.

    Two cycles are duplicates when they use the same unsigned set of line
    ids, regardless of orientation or starting point.
    """

    cycles: tuple[Cycle, ...] = ()

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def edge_sets(self) -> set[frozenset[int]]:
        return {c.edge_ids for c in self.cycles}


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


def lu_partial_pivot(a: np.ndarray):
    """Exact integer LU factorization with partial pivoting.

    Parameters
    ----------
    a : (m, n) integer array
        An incidence-like matrix: every pivot met during elimination must
        be +-1, which keeps all arithmetic exact.

    Returns
    -------
    perm : (m,) int array
        Row permutation; row i of the permuted matrix is ``a[perm[i]]``.
    lmat : (m, m) int array
        Unit lower triangular; ``a[perm] == lmat @ u``.
    linv : (m, m) int array
        Exact inverse of ``lmat``, accumulated during elimination.
    u : (m, n) int array
        The eliminated matrix; its rows past the rank are zero.
    """
    a = np.asarray(a, dtype=np.int64)
    m, n = a.shape
    w = a.copy()
    acc = np.eye(m, dtype=np.int64)   # row ops so far: acc @ a == w
    lmat = np.eye(m, dtype=np.int64)
    perm = np.arange(m)
    r = 0
    for c in range(n):
        if r == m:
            break
        sub = w[r:, c]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[np.argmax(np.abs(sub[nz]))])
        if p != r:
            w[[r, p]] = w[[p, r]]
            acc[[r, p]] = acc[[p, r]]
            perm[[r, p]] = perm[[p, r]]
            lmat[[r, p], :r] = lmat[[p, r], :r]
        piv = w[r, c]
        if piv not in (1, -1):
            raise ValueError(f"pivot {piv} at ({r}, {c}); matrix is not incidence-like")
        for i in range(r + 1, m):
            if w[i, c] != 0:
                mu = w[i, c] * piv  # exact: piv is +-1
                w[i] -= mu * w[r]
                acc[i] -= mu * acc[r]
                lmat[i, r] = mu
        r += 1
    linv = acc[:, perm]
    return perm, lmat, linv, w


def _orient_cycle(edges: list[Line]) -> tuple[tuple[Line, int], ...] | None:
    """Order an unsigned edge set into one simple cycle, or None."""
    deg = Counter()
    for ln in edges:
        deg[ln.from_bus] += 1
        deg[ln.to_bus] += 1
    if any(d != 2 for d in deg.values()):
        return None
    start = min(edges, key=lambda ln: ln.id)
    members = [(start, 1)]
    used = {start.id}
    home, cur = start.from_bus, start.to_bus
    by_bus: dict[int, list[Line]] = {}
    for ln in edges:
        by_bus.setdefault(ln.from_bus, []).append(ln)
        by_bus.setdefault(ln.to_bus, []).append(ln)
    while cur != home:
        step = [ln for ln in by_bus[cur] if ln.id not in used]
        if len(step) != 1:
            return None
        ln = step[0]
        sign = 1 if ln.from_bus == cur else -1
        members.append((ln, sign))
        used.add(ln.id)
        cur = ln.to_bus if sign == 1 else ln.from_bus
    if len(used) != len(edges):
        return None  # closed early: the set splits into several cycles
    return tuple(members)


def cycle_basis(net: PowerNetwork) -> CycleSet:
    """Cycle basis of the network, one cycle per independent loop.

    Eliminates the incidence matrix with exact integer arithmetic; the
    accumulated row operations behind each of the |L| - |B| + 1 zero rows
    are the signed incidence vector of one simple cycle, which is then
    walked into traversal order.  Trees produce the empty set.

    Raises
    ------
    ValueError
        If the network is disconnected (rank below |B| - 1).
    """
    m, n = len(net.lines), len(net.buses)
    if m == 0:
        return CycleSet()
    a = incidence_matrix(net)
    perm, lmat, linv, u = lu_partial_pivot(a)
    rank = int(np.sum(np.any(u != 0, axis=1)))
    if rank != n - 1:
        raise ValueError(f"incidence rank {rank} != |B| - 1; network disconnected?")
    ops = linv[:, np.argsort(perm)][rank:]  # accumulated row ops, original line order
    cycles = []
    for row in ops:
        if not np.all(np.isin(row, (-1, 0, 1))):
            raise AssertionError(f"cycle row has entries outside 0, +-1: {row}")
        edges = [net.lines[i] for i in np.nonzero(row)[0]]
        members = _orient_cycle(edges)
        if members is None:
            raise AssertionError("eliminated row is not a single simple cycle")
        cycles.append(Cycle(members, generation=0))
    return CycleSet(tuple(cycles))


def cycle_of_chord(net: PowerNetwork, tree_line_ids, chord: Line) -> Cycle:
    """The cycle closed by ``chord`` against a spanning forest.

    ``tree_line_ids`` must describe a forest containing a path between the
    chord's endpoints.  The cycle traverses the chord forward and returns
    through the unique tree path.
    """
    tree_ids = set(tree_line_ids)
    adj: dict[int, list[Line]] = {}
    for ln in net.lines:
        if ln.id in tree_ids:
            adj.setdefault(ln.from_bus, []).append(ln)
            adj.setdefault(ln.to_bus, []).append(ln)
    # parent links of the tree holding the chord, rooted at its from bus
    parent: dict[int, Line | None] = {chord.from_bus: None}
    stack = [chord.from_bus]
    while stack and chord.to_bus not in parent:
        u = stack.pop()
        for ln in adj.get(u, ()):
            v = ln.to_bus if ln.from_bus == u else ln.from_bus
            if v not in parent:
                parent[v] = ln
                stack.append(v)
    members = [(chord, 1)]
    u = chord.to_bus
    while (ln := parent[u]) is not None:
        members.append((ln, 1 if ln.from_bus == u else -1))
        u = ln.to_bus if ln.from_bus == u else ln.from_bus
    return Cycle(tuple(members), generation=0)


def combine_cycles(c1: Cycle, c2: Cycle) -> Cycle | None:
    """Combine two cycles sharing lines into their symmetric difference.

    Returns None when the cycles share no line, are identical, or when
    the symmetric difference is not a single simple cycle.
    """
    ids1, ids2 = c1.edge_ids, c2.edge_ids
    if not ids1 & ids2 or ids1 == ids2:
        return None
    keep = ids1 ^ ids2
    pool = {ln.id: ln for ln, _ in c1.members}
    pool.update({ln.id: ln for ln, _ in c2.members})
    members = _orient_cycle([pool[i] for i in sorted(keep)])
    if members is None:
        return None
    return Cycle(members, generation=max(c1.generation, c2.generation) + 1)


def expand_cycle_set(cs: CycleSet) -> CycleSet:
    """One round of pairwise combination, keeping only new edge sets."""
    seen = cs.edge_sets()
    out = list(cs.cycles)
    for i in range(len(cs.cycles)):
        for j in range(i + 1, len(cs.cycles)):
            c = combine_cycles(cs.cycles[i], cs.cycles[j])
            if c is not None and c.edge_ids not in seen:
                seen.add(c.edge_ids)
                out.append(c)
    return CycleSet(tuple(out))


def sample_cycles(cs: CycleSet, fraction: float, seed: int) -> CycleSet:
    """Keep every basis cycle and a seeded sample of the combined ones."""
    if fraction >= 1.0:
        return cs
    basis = [c for c in cs.cycles if c.generation == 0]
    rest = [c for c in cs.cycles if c.generation > 0]
    k = int(round(max(fraction, 0.0) * len(rest)))
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(len(rest), size=k, replace=False)) if k else []
    return CycleSet(tuple(basis + [rest[i] for i in picked]))

