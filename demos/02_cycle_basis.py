"""
Cycle bases of meshed grids
===========================

Every meshed network hides a small set of fundamental cycles: one per
chord outside a spanning tree.  The tree is grown by union-find over the
lines in order; each line that closes a loop is a chord, and the tree
path between its ends closes its cycle.
"""

import numpy as np

from dcots.cyclebasis import cycle_basis, expand_cycle_set, spanning_forest
from dcots.network import build_network
from dcots.oracle import incidence_matrix

# A 5-bus grid with two parallel lines between buses 1 and 2, so the
# graph is a proper multigraph.
net = build_network(
    buses=[(i, 0.0) for i in range(5)],
    generators=[(0, 0.0, 1.0, 1.0)],
    lines=[
        (0, 0, 1, 1.0, 1.0),
        (1, 1, 2, 1.0, 1.0),
        (2, 1, 2, 2.0, 1.0),   # parallel to line 1
        (3, 2, 3, 1.0, 1.0),
        (4, 3, 4, 1.0, 1.0),
        (5, 4, 0, 1.0, 1.0),
    ],
)

tree, chords = spanning_forest(net, net.lines)
print("tree lines: ", [ln.id for ln in tree])
print("chord lines:", [ln.id for ln in chords])

basis = cycle_basis(net)
print(f"cycles: {len(basis)} = lines({len(net.lines)}) - buses(5) + 1")
for c in basis:
    steps = ", ".join(f"{'+' if s > 0 else '-'}L{ln.id}" for ln, s in c.members)
    print("  cycle:", steps)

# Each cycle is a circulation: its signed line vector is orthogonal to
# every bus, i.e. the incidence matrix maps it to zero.
mat = incidence_matrix(net)
print("incidence matrix (rows = lines, +1 leaving, -1 entering):")
print(mat)
pos = {ln.id: i for i, ln in enumerate(net.lines)}
for c in basis:
    vec = np.zeros(len(net.lines))
    for ln, s in c.members:
        vec[pos[ln.id]] = s
    print("  circulation residual:", np.abs(vec @ mat).max())
    assert np.abs(vec @ mat).max() == 0.0

# Pairwise sums of basis cycles give longer cycles; the expanded set is
# what the solver separates over in its most thorough mode.
expanded = expand_cycle_set(basis)
print("after one expansion round:", len(expanded), "cycles")
