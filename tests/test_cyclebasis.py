"""Tests for the spanning forest, cycle basis, cycle combination, and the
LP-guided cycle source."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from dcots.cyclebasis import (
    Cycle,
    combine_cycles,
    cycle_basis,
    cycle_of_chord,
    expand_cycle_set,
    lp_guided_cycles,
    spanning_forest,
    tree_parents,
)
from dcots.network import build_network, random_connected_network
from dcots.oracle import incidence_matrix
from dcots.solver import lazy_kvl_check


def triangle():
    return build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 1.0)],
    )


def diamond():
    # two triangles glued along line 2
    return build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 0.0), (3, 1.0)],
        generators=[(0, 0.0, 2.0, 1.0)],
        lines=[
            (0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 1.0),
            (3, 2, 3, 1.0, 1.0), (4, 0, 3, 1.0, 1.0),
        ],
    )


def signed_vector(cycle, n_lines, line_pos):
    v = np.zeros(n_lines)
    for ln, s in cycle.members:
        v[line_pos[ln.id]] = s
    return v


def test_incidence_triangle():
    a = incidence_matrix(triangle())
    assert a.tolist() == [[1, -1, 0], [0, 1, -1], [1, 0, -1]]


def test_cycle_basis_triangle():
    (cyc,) = cycle_basis(triangle())
    assert len(cyc) == 3
    assert cyc.edge_ids == {0, 1, 2}
    # signed incidence of the cycle annihilates the incidence matrix
    net = triangle()
    pos = {ln.id: i for i, ln in enumerate(net.lines)}
    v = signed_vector(cyc, 3, pos)
    assert np.allclose(v @ incidence_matrix(net), 0)


def test_cycle_basis_tree_is_empty():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0)],
    )
    assert len(cycle_basis(net)) == 0


def test_cycle_basis_parallel_lines():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 0, 1, 2.0, 1.0)],
    )
    (cyc,) = cycle_basis(net)
    assert len(cyc) == 2
    signs = dict((ln.id, s) for ln, s in cyc.members)
    assert signs[0] * signs[1] == -1  # opposite orientation around the loop


def test_cycle_basis_disconnected_raises():
    net = build_network(
        buses=[(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 1.0, 1.0), (1, 2, 3, 1.0, 1.0)],
    )
    with pytest.raises(ValueError, match="disconnected"):
        cycle_basis(net)


def test_cycle_basis_random_multigraphs():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        extra = int(rng.integers(1, 5))
        # random spanning tree, then random chords (parallels allowed)
        lid = n - 1
        lines = []
        for i in range(1, n):
            lines.append((i - 1, int(rng.integers(0, i)), i, 1.0, 1.0))
        for _ in range(extra):
            u, v = rng.integers(0, n, size=2)
            if u == v:
                v = (v + 1) % n
            lines.append((lid, int(u), int(v), 1.0, 1.0))
            lid += 1
        net = build_network(
            buses=[(i, 0.0) for i in range(n)],
            generators=[(0, 0.0, 1.0, 1.0)],
            lines=lines,
        )
        basis = cycle_basis(net)
        m = len(net.lines)
        assert len(basis) == m - n + 1
        pos = {ln.id: i for i, ln in enumerate(net.lines)}
        a = incidence_matrix(net)
        mat = np.array([signed_vector(c, m, pos) for c in basis]) if len(basis) else np.zeros((0, m))
        if len(basis):
            assert np.allclose(mat @ a, 0)
            assert np.linalg.matrix_rank(mat) == len(basis)


def test_cycle_of_chord_triangle():
    net = triangle()
    cyc = cycle_of_chord(tree_parents(net, net.lines[:2]), net.lines[2])
    assert [(ln.id, s) for ln, s in cyc.members] == [(2, 1), (1, -1), (0, -1)]


def test_combine_cycles_diamond():
    basis = cycle_basis(diamond())
    combined = combine_cycles(basis[0], basis[1])
    assert combined is not None
    assert combined.edge_ids == (basis[0].edge_ids ^ basis[1].edge_ids)
    assert len(combined) == len(basis[0].edge_ids ^ basis[1].edge_ids)


def test_combine_cycles_no_shared_line():
    net = build_network(
        buses=[(i, 0.0) for i in range(6)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[
            (0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 0, 2, 1.0, 1.0),
            (3, 3, 4, 1.0, 1.0), (4, 4, 5, 1.0, 1.0), (5, 3, 5, 1.0, 1.0),
            (6, 2, 3, 1.0, 1.0),
        ],
    )
    by_id = {ln.id: ln for ln in net.lines}
    t1 = Cycle(((by_id[0], 1), (by_id[1], 1), (by_id[2], -1)))
    t2 = Cycle(((by_id[3], 1), (by_id[4], 1), (by_id[5], -1)))
    assert combine_cycles(t1, t2) is None
    assert combine_cycles(t1, t1) is None


def test_combine_cycles_split_difference_discarded():
    # hexagon plus two crossing chords: the two cycles share two opposite
    # hexagon edges and their symmetric difference is two disjoint triangles
    net = build_network(
        buses=[(i, 0.0) for i in range(6)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[
            (0, 0, 1, 1.0, 1.0), (1, 1, 2, 1.0, 1.0), (2, 2, 3, 1.0, 1.0),
            (3, 3, 4, 1.0, 1.0), (4, 4, 5, 1.0, 1.0), (5, 5, 0, 1.0, 1.0),
            (6, 1, 3, 1.0, 1.0), (7, 4, 0, 1.0, 1.0),
        ],
    )
    by_id = {ln.id: ln for ln in net.lines}
    hexagon = Cycle(tuple((by_id[i], 1) for i in range(6)))
    inner = Cycle(((by_id[0], 1), (by_id[6], 1), (by_id[3], 1), (by_id[7], 1)))
    assert combine_cycles(hexagon, inner) is None


def test_expand_cycle_set_diamond():
    basis = cycle_basis(diamond())
    expanded = expand_cycle_set(basis)
    assert len(expanded) == 3
    sizes = sorted(len(c) for c in expanded)
    assert sizes == [3, 3, 4]
    # idempotent on this graph: no further new cycles
    assert len(expand_cycle_set(expanded)) == 3


def ladder_grid(rows, cols):
    """A rows x cols grid of buses: each bus joined to its right and lower neighbour."""
    bus = lambda r, c: r * cols + c  # noqa: E731
    pairs = [(bus(r, c), bus(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    pairs += [(bus(r, c), bus(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return build_network(
        buses=[(i, 0.0) for i in range(rows * cols)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(i, u, v, 1.0, 1.0) for i, (u, v) in enumerate(pairs)],
    )


def _pairwise_expansion(cycles):
    """``combine_cycles`` over every pair i < j, each new edge set kept once."""
    seen = {c.edge_ids for c in cycles}
    out = list(cycles)
    for i, a in enumerate(cycles):
        for b in cycles[i + 1:]:
            c = combine_cycles(a, b)
            if c is not None and c.edge_ids not in seen:
                seen.add(c.edge_ids)
                out.append(c)
    return tuple(out)


def _walks(cycles):
    return [[(ln.id, s) for ln, s in c.members] for c in cycles]


@pytest.mark.parametrize("rows, cols", [(3, 3), (4, 4)])
def test_expansion_is_the_pairwise_combination(rows, cols):
    basis = cycle_basis(ladder_grid(rows, cols))
    once, twice = expand_cycle_set(basis), expand_cycle_set(expand_cycle_set(basis))
    ref_once = _pairwise_expansion(basis)
    assert _walks(once) == _walks(ref_once)
    assert _walks(twice) == _walks(_pairwise_expansion(ref_once))
    assert len(basis) < len(once) < len(twice)


def test_expansion_skips_a_cycle_and_its_reversal():
    # the same lines walked both ways differ by nothing: no combination
    net = diamond()
    first, second = cycle_basis(net)
    reverse = Cycle(tuple((ln, -s) for ln, s in reversed(first.members)))
    cycles = (first, reverse, second)
    expanded = expand_cycle_set(tuple(cycles))
    assert _walks(expanded) == _walks(_pairwise_expansion(cycles))
    assert len(expanded) == 4  # the input, then first ^ second once


def grid_with_diagonals(rows=3, cols=4):
    """A rows x cols grid, one down-right diagonal per cell, lines listed
    diagonals first so that the forest is not simply the grid's rows."""
    bus = lambda r, c: r * cols + c  # noqa: E731
    pairs = [(bus(r, c), bus(r + 1, c + 1)) for r in range(rows - 1) for c in range(cols - 1)]
    pairs += [(bus(r, c), bus(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    pairs += [(bus(r, c), bus(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return build_network(
        buses=[(i, 0.0) for i in range(rows * cols)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(i, u, v, 1.0 + i / 10, 1.0) for i, (u, v) in enumerate(pairs)],
    )


def test_fundamental_basis_on_a_grid_with_diagonals():
    net = grid_with_diagonals()
    tree, chords = spanning_forest(net, net.lines)
    assert len(tree) == len(net.buses) - 1
    assert len(tree) + len(chords) == len(net.lines)
    tree_ids = {ln.id for ln in tree}
    basis = cycle_basis(net)
    assert len(basis) == len(chords) == 23 - 12 + 1
    outside = [c.edge_ids - tree_ids for c in basis]
    assert all(len(ids) == 1 for ids in outside)
    # one cycle per chord, in line order
    assert [min(ids) for ids in outside] == [ln.id for ln in chords]
    assert [ln.id for ln in chords] == sorted(ln.id for ln in chords)


def test_lazy_kvl_check_uses_the_forest_of_the_active_lines():
    net = grid_with_diagonals()
    off = {0, 4, 13, 20}
    x = {ln.id: 0.0 if ln.id in off else 1.0 for ln in net.lines}
    active = [ln for ln in net.lines if ln.id not in off]
    tree, chords = spanning_forest(net, active)
    assert len(tree) == len(net.buses) - 1
    # flows from one set of bus angles, then one chord's flow off by a unit:
    # only the cycle that chord closes is violated
    theta = {b.id: float(b.id % 5) for b in net.buses}
    f = {ln.id: ln.susceptance * (theta[ln.from_bus] - theta[ln.to_bus])
         for ln in net.lines}
    assert lazy_kvl_check(net, x, f) is None
    bad = chords[1]
    f[bad.id] += 1.0
    cyc = lazy_kvl_check(net, x, f)
    assert cyc == cycle_of_chord(tree_parents(net, tree), bad)
    assert cyc.edge_ids - {ln.id for ln in tree} == {bad.id}


def _shortest_cycle_through(net, weight, line) -> float:
    """networkx's weight of the shortest cycle through ``line``, or inf."""
    g = nx.MultiGraph()
    g.add_nodes_from(b.id for b in net.buses)
    for ln in net.lines:
        if ln.id != line.id:
            g.add_edge(ln.from_bus, ln.to_bus, key=ln.id, weight=weight[ln.id])
    try:
        path = nx.dijkstra_path_length(g, line.to_bus, line.from_bus, weight="weight")
    except nx.NetworkXNoPath:
        return float("inf")
    return weight[line.id] + path


def _assert_simple_closed_walk(cyc):
    ids = [ln.id for ln, _ in cyc.members]
    assert len(set(ids)) == len(ids)
    first, s0 = cyc.members[0]
    assert s0 == 1  # the line a search started from, crossed forward
    start = bus = first.from_bus
    visited = []
    for ln, s in cyc.members:
        tail, head = (ln.from_bus, ln.to_bus) if s == 1 else (ln.to_bus, ln.from_bus)
        assert tail == bus
        visited.append(tail)
        bus = head
    assert bus == start
    assert len(set(visited)) == len(visited)


def test_lp_guided_cycles_are_the_shortest_cycles_under_one_minus_x():
    rng = np.random.default_rng(11)
    checked = 0
    for seed in range(40):
        net = random_connected_network(seed, max_buses=9, max_extra_lines=5)
        x_hat = {}
        for ln in net.lines:
            r = rng.uniform()
            x_hat[ln.id] = 1.0 if r < 0.3 else 0.0 if r < 0.4 else rng.uniform(0.4, 1.0)
        weight = {lid: 1.0 - x for lid, x in x_hat.items()}
        cycles = lp_guided_cycles(net, x_hat)
        assert len({c.edge_ids for c in cycles}) == len(cycles)
        for cyc in cycles:
            _assert_simple_closed_walk(cyc)
            assert sum(weight[lid] for lid in cyc.edge_ids) < 1.0
        for ln in net.lines:
            best = _shortest_cycle_through(net, weight, ln)
            found = [sum(weight[lid] for lid in c.edge_ids)
                     for c in cycles if ln.id in c.edge_ids]
            if best < 1.0 - 1e-9:
                assert min(found) == pytest.approx(best, abs=1e-12)
                checked += 1
            elif best > 1.0 + 1e-9:
                assert not found
    assert checked > 50


def test_lp_guided_cycles_of_an_integral_point():
    net = diamond()
    # every line closed: each line's shortest cycle is a triangle, weight 0
    cycles = lp_guided_cycles(net, {ln.id: 1.0 for ln in net.lines})
    assert {c.edge_ids for c in cycles} == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
    # line 2 open: only the outer cycle avoids it
    x_hat = {ln.id: 1.0 for ln in net.lines} | {2: 0.0}
    assert {c.edge_ids for c in lp_guided_cycles(net, x_hat)} == {frozenset({0, 1, 3, 4})}
    # two open lines on every cycle: nothing has K_C > 0
    assert len(lp_guided_cycles(net, x_hat | {0: 0.0, 3: 0.0})) == 0
