"""
Comparing cut modes with performance profiles
=============================================

At the root, the branch-and-cut solver adds no cuts ("default"), or
separates cycle inequalities in closed form over a cycle basis
("basic") or over the basis expanded by pairwise symmetric differences
("more").  Every mode separates the same inequalities again at shallow
tree nodes.  A
Dolan-More performance profile summarizes how often each mode is within
a factor tau of the fastest.
"""

from dcots.cli import performance_profile
from dcots.network import random_connected_network
from dcots.oracle import brute_force_ots
from dcots.solver import CSV_HEADER, SolverConfig, result_csv_row, solve_ots

modes = ("basic", "default", "more")
times = {mode: {} for mode in modes}

print(",".join(CSV_HEADER))
for seed in range(6):
    net = random_connected_network(seed, max_buses=7)
    name = f"net{seed:02d}"
    for mode in modes:
        res = solve_ots(net, SolverConfig(cycle_mode=mode))
        print(",".join(result_csv_row(res, name, mode)))
        times[mode][name] = (res.wall_time_s
                             if res.status == "optimal-within-gap" else None)
    # sanity: enumeration agrees whenever the instance is feasible
    bf_obj, _ = brute_force_ots(net)
    if bf_obj is not None:
        res = solve_ots(net, SolverConfig())
        assert abs(res.objective - bf_obj) <= 1e-3 * (1 + abs(bf_obj))

# Each profile row: fraction of instances solved within tau times the
# per-instance best.  Curves start at tau = 1 and climb to 1.0 for any
# mode that solves everything.
header, rows = performance_profile(times)
print()
print(",".join(header))
for row in rows:
    print(",".join(row))
