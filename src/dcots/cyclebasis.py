"""Cycle space of a network.

A spanning tree of a connected multigraph leaves m - n + 1 chords, and
each chord closes exactly one cycle through the tree; these fundamental
cycles form a basis of the cycle space.  This module builds that basis,
combines cycles into longer ones, orients raw edge sets into traversable
cycles, and finds the shortest cycle through each line under weights
taken from a relaxation.  ``expand_cycle_set`` gives what
``combine_cycles`` over every pair gives, on bit masks of line ids, and
orients each new edge set once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from dcots.network import Line, PowerNetwork, union_find

__all__ = [
    "Cycle",
    "spanning_forest",
    "cycle_basis",
    "tree_parents",
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


def _orient_cycle(edges: list[Line]) -> tuple[tuple[Line, int], ...] | None:
    """Order an unsigned edge set into one simple cycle, or None."""
    by_bus: dict[int, list[Line]] = {}
    for ln in edges:
        by_bus.setdefault(ln.from_bus, []).append(ln)
        by_bus.setdefault(ln.to_bus, []).append(ln)
    if any(len(at) != 2 for at in by_bus.values()):
        return None
    start = min(edges, key=lambda ln: ln.id)
    members = [(start, 1)]
    home, cur, ln = start.from_bus, start.to_bus, start
    while cur != home:  # every bus has two lines: leave by the one not come by
        a, b = by_bus[cur]
        ln = b if a is ln else a
        sign = 1 if ln.from_bus == cur else -1
        members.append((ln, sign))
        cur = ln.to_bus if sign == 1 else ln.from_bus
    if len(members) != len(edges):
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


def cycle_basis(net: PowerNetwork) -> tuple[Cycle, ...]:
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
    parent = tree_parents(net, tree)
    return tuple(Cycle(_from_lowest(cycle_of_chord(parent, ch).members)) for ch in chords)


def _from_lowest(walk: tuple[tuple[Line, int], ...]) -> tuple[tuple[Line, int], ...]:
    """Rotate an oriented closed walk to start at its lowest line id,
    reversed if need be so that line is crossed forward; this is the order
    ``_orient_cycle`` gives the same lines."""
    i = min(range(len(walk)), key=lambda k: walk[k][0].id)
    walk = walk[i:] + walk[:i]
    if walk[0][1] == -1:
        walk = tuple((ln, -s) for ln, s in walk[:1] + walk[:0:-1])
    return walk


def tree_parents(net: PowerNetwork, tree) -> dict[int, Line | None]:
    """Parent line of every bus in the forest ``tree``, found breadth first
    over ``net.incident`` from each tree's lowest bus id (its root, whose
    parent is None).  The map lists every bus after its parent's bus."""
    in_tree = {ln.id for ln in tree}
    parent: dict[int, Line | None] = {}
    for root in sorted(net.incident):
        if root in parent:
            continue
        parent[root] = None
        order = [root]
        for u in order:
            for ln in net.incident[u]:
                v = ln.to_bus if ln.from_bus == u else ln.from_bus
                if v not in parent and ln.id in in_tree:
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


def cycle_of_chord(parent, chord: Line) -> Cycle:
    """The cycle closed by ``chord`` against the forest of ``parent``, a
    ``tree_parents`` map with a path between the chord's endpoints: the
    chord forward, then the tree path from its to bus back to its from bus."""
    up, down = _climb(parent, chord.to_bus), _climb(parent, chord.from_bus)
    while up and down and up[-1][0] is down[-1][0]:  # above the common ancestor
        up.pop()
        down.pop()
    return Cycle(((chord, 1), *up, *((ln, -s) for ln, s in reversed(down))))


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


def expand_cycle_set(cs: tuple[Cycle, ...]) -> tuple[Cycle, ...]:
    """One round of pairwise combination, keeping only new edge sets.

    Gives what ``combine_cycles`` over every pair i < j gives, in that
    order, keeping each edge set the first time it appears.  Edge sets
    are bit masks over the lines in id order, and each symmetric
    difference is oriented at most once, whether or not it turns out to
    be one simple cycle.
    """
    lines = [ln for _, ln in sorted({ln.id: ln for c in cs for ln, _ in c.members}.items())]
    bit = {ln.id: 1 << r for r, ln in enumerate(lines)}
    masks = [sum(bit[ln.id] for ln, _ in c.members) for c in cs]
    seen = set(masks)
    out = list(cs)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            keep = a ^ b
            if not a & b or not keep or keep in seen:
                continue
            seen.add(keep)
            members = _orient_cycle([ln for r, ln in enumerate(lines) if keep >> r & 1])
            if members is not None:
                out.append(Cycle(members))
    return tuple(out)


def lp_guided_cycles(net: PowerNetwork, x_hat) -> tuple[Cycle, ...]:
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
    seen: set[frozenset[int]] = set()
    out = []
    for line in net.lines:
        cutoff = 1.0 - weight[line.id]  # the path may weigh less than this
        if cutoff <= 0.0:
            continue
        path = _shortest_path(net.incident, weight, line, cutoff)
        if path is None:
            continue
        cyc = Cycle(((line, 1),) + path)
        if cyc.edge_ids not in seen:
            seen.add(cyc.edge_ids)
            out.append(cyc)
    return tuple(out)


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
