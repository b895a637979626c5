"""
Subset sum inside a power grid
==============================

Transmission switching feasibility is NP-hard, and the proof is a
construction: any subset-sum instance becomes a small grid whose
switching problem is feasible exactly when the target sum is
reachable.  The witness angles come out as exact rationals.
"""

from fractions import Fraction

from dcots.oracle import (
    SubsetSumInstance,
    reduce_subset_sum,
    reduction_ots_feasible,
    reduction_witness_angles,
    subset_sum_witness,
)

inst = SubsetSumInstance(a=(3, 5, 2), b=8)
print(f"numbers {inst.a}, target {inst.b}")

# One path per number, a corridor sized for the target, and a direct
# line that closes the deciding cycle.
net = reduce_subset_sum(inst)
print(f"reduction: {len(net.buses)} buses, {len(net.lines)} lines; "
      f"path capacities {[round(ln.capacity, 4) for ln in net.lines[:6]]}")

reachable = subset_sum_witness(inst) is not None
feasible = reduction_ots_feasible(inst)
print("target reachable:", reachable, "| switching feasible:", feasible)
assert reachable == feasible

# A reaching subset translates into a topology plus exact bus angles.
witness = subset_sum_witness(inst)
print("witness subset:", witness, "-> sum",
      sum(inst.a[i] for i in witness))
theta = reduction_witness_angles(inst, witness)
for bus in sorted(theta):
    print(f"  theta_{bus} = {theta[bus]}")
assert theta[0] == Fraction(inst.b + 1, inst.b)

# Miss the target and the grid has no feasible topology at all.
bad = SubsetSumInstance(a=(3, 5, 2), b=9)
print("target 9 reachable:", subset_sum_witness(bad) is not None,
      "| switching feasible:", reduction_ots_feasible(bad))
assert not reduction_ots_feasible(bad)
