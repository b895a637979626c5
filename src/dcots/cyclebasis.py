"""Cycle space of a network.

A spanning tree of a connected multigraph leaves m - n + 1 chords, and
each chord closes exactly one cycle through the tree; these fundamental
cycles form a basis of the cycle space.  This module builds that basis,
combines cycles into longer ones, orients raw edge sets into traversable
cycles, and finds the shortest cycle through each line under weights
taken from a relaxation.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from dcots.network import Line, PowerNetwork, union_find

__all__ = [
    "Cycle",
    "CycleSet",
    "spanning_forest",
    "cycle_basis",
    "cycle_of_chord",
    "combine_cycles",
    "expand_cycle_set",
    "lp_guided_cycles",
]


@dataclass(frozen=True)
class Cycle:
    """An ordered, sign-oriented closed walk of distinct lines.

    ``members`` lists (line, sign) along the traversal: sign +1 means the
    line is crossed from its from_bus to its to_bus.
    """

    members: tuple[tuple[Line, int], ...]

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


def spanning_forest(net: PowerNetwork, lines) -> tuple[list[Line], list[Line]]:
    """Split ``lines`` into a spanning forest and its chords.

    Runs union-find over ``lines`` in the order given: a line that joins
    two components goes to the tree, a line that closes a loop is a chord.
    """
    _, union = union_find(b.id for b in net.buses)
    tree, chords = [], []
    for ln in lines:
        (tree if union(ln.from_bus, ln.to_bus) else chords).append(ln)
    return tree, chords


def cycle_basis(net: PowerNetwork) -> CycleSet:
    """Fundamental cycle basis of the network, one cycle per chord.

    Each chord of the spanning forest of the lines, in line order, closes
    one cycle through the tree; the cycle is walked from its lowest line
    id.  Trees produce the empty set.

    Raises
    ------
    ValueError
        If the network is disconnected (the forest has fewer than
        |B| - 1 lines).
    """
    tree, chords = spanning_forest(net, net.lines)
    if len(tree) < len(net.buses) - 1:
        raise ValueError(f"spanning forest has {len(tree)} lines < |B| - 1; "
                         "network disconnected")
    parent = _tree_parents(net, tree)
    return CycleSet(tuple(Cycle(_from_lowest(_chord_walk(parent, ch))) for ch in chords))


def _from_lowest(walk: list[tuple[Line, int]]) -> tuple[tuple[Line, int], ...]:
    """Rotate an oriented closed walk to start at its lowest line id,
    reversed if need be so that line is crossed forward; this is the order
    ``_orient_cycle`` gives the same lines."""
    i = min(range(len(walk)), key=lambda k: walk[k][0].id)
    walk = walk[i:] + walk[:i]
    if walk[0][1] == -1:
        walk = [(ln, -s) for ln, s in walk[:1] + walk[:0:-1]]
    return tuple(walk)


def _tree_parents(net: PowerNetwork, tree) -> dict[int, Line | None]:
    """Parent line of every bus in the forest ``tree``, found breadth first
    from each tree's first bus (its root, whose parent is None)."""
    adj: dict[int, list[Line]] = {b.id: [] for b in net.buses}
    for ln in tree:
        adj[ln.from_bus].append(ln)
        adj[ln.to_bus].append(ln)
    parent: dict[int, Line | None] = {}
    for root in adj:
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for u in order:
            for ln in adj[u]:
                v = ln.to_bus if ln.from_bus == u else ln.from_bus
                if v not in parent:
                    parent[v] = ln
                    order.append(v)
    return parent


def _climb(parent, bus: int) -> list[tuple[Line, int]]:
    """The (line, sign) steps from ``bus`` up to the root of its tree."""
    steps = []
    while (ln := parent[bus]) is not None:
        steps.append((ln, 1 if ln.from_bus == bus else -1))
        bus = ln.to_bus if ln.from_bus == bus else ln.from_bus
    return steps


def _chord_walk(parent, chord: Line) -> list[tuple[Line, int]]:
    """The chord forward, then the tree path from its to bus back to its from bus."""
    up, down = _climb(parent, chord.to_bus), _climb(parent, chord.from_bus)
    while up and down and up[-1][0] is down[-1][0]:  # above the common ancestor
        up.pop()
        down.pop()
    return [(chord, 1)] + up + [(ln, -s) for ln, s in reversed(down)]


def cycle_of_chord(net: PowerNetwork, tree_line_ids, chord: Line) -> Cycle:
    """The cycle closed by ``chord`` against a spanning forest.

    ``tree_line_ids`` must describe a forest containing a path between the
    chord's endpoints.  The cycle traverses the chord forward and returns
    through the unique tree path.
    """
    tree_ids = set(tree_line_ids)
    tree = [ln for ln in net.lines if ln.id in tree_ids]
    return Cycle(tuple(_chord_walk(_tree_parents(net, tree), chord)))


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
    return Cycle(members)


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


def lp_guided_cycles(net: PowerNetwork, x_hat) -> CycleSet:
    """Cycles on which a relaxation point has K_C > 0.

    Weights each line by 1 - x_hat, so a cycle's weight is 1 - K_C.  For
    each line l with x_hat[l] > 0, a heap-based Dijkstra from l's to bus
    to its from bus over the other lines, cut off at weight x_hat[l],
    gives the shortest cycle through l; it is kept when its weight is
    below 1.  Closed lines start a search too: their cycles may hold
    every fractional line of the point.  Cycles are walked l forward
    first, and each edge set is kept once, for the first line in
    ``net.lines`` that reaches it.
    """
    weight = {ln.id: 1.0 - min(1.0, max(0.0, x_hat[ln.id])) for ln in net.lines}
    adj: dict[int, list[Line]] = {b.id: [] for b in net.buses}
    for ln in net.lines:
        adj[ln.from_bus].append(ln)
        adj[ln.to_bus].append(ln)
    seen: set[frozenset[int]] = set()
    out = []
    for line in net.lines:
        cutoff = 1.0 - weight[line.id]  # the path may weigh less than this
        if cutoff <= 0.0:
            continue
        path = _shortest_path(adj, weight, line, cutoff)
        if path is None:
            continue
        cyc = Cycle(((line, 1),) + path)
        if cyc.edge_ids not in seen:
            seen.add(cyc.edge_ids)
            out.append(cyc)
    return CycleSet(tuple(out))


def _shortest_path(adj, weight, line: Line, cutoff: float):
    """The (line, sign) steps of a shortest path from ``line``'s to bus
    to its from bus that avoids ``line`` and weighs less than ``cutoff``,
    or None."""
    source, target = line.to_bus, line.from_bus
    dist = {source: 0.0}
    step: dict[int, tuple[Line, int]] = {}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # a stale entry
        if u == target:
            break
        for ln in adj[u]:
            if ln is line:
                continue
            v = ln.to_bus if ln.from_bus == u else ln.from_bus
            dv = d + weight[ln.id]
            if dv < dist.get(v, cutoff):
                dist[v] = dv
                step[v] = (ln, 1 if ln.from_bus == u else -1)
                heapq.heappush(heap, (dv, v))
    if target not in step:
        return None
    steps = []
    bus = target
    while bus != source:
        ln, s = step[bus]
        steps.append((ln, s))
        bus = ln.from_bus if s == 1 else ln.to_bus
    return tuple(reversed(steps))
