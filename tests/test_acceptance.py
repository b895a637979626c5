"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single PASS/FAIL line (visible with ``pytest -v``
through its own outcome, and with ``-s``/``-rA`` through the printed
detail) and enforces the stated tolerance and runtime budget.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from dcots.cyclebasis import cycle_basis
from dcots.formulations import build_ots_angle
from dcots.lp import solve as lp_solve
from dcots.network import PowerNetwork, build_network
from dcots.oracle import (
    SubsetSumInstance,
    brute_force_ots,
    cuts_under_nonpositive_k,
    dispatch_agreement,
    facet_certificates,
    hull_gap,
    projection_gap,
    reduce_subset_sum,
    reduction_agreement,
    reduction_witness_angles,
    separation_agreement,
)
from dcots.solver import SolverConfig, repair_connected, solve_ots


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} acceptance-{number:02d} {name}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared instance recipes


def switching_prone_network(seed: int) -> PowerNetwork:
    """Meshed test networks whose chords are stiff and tightly limited,
    so the relaxation often wants lines partly open."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 8))
    buses = [(i, float(np.round(rng.uniform(0.0, 1.0), 3))) for i in range(n)]
    total = sum(load for _, load in buses)
    gens = [(0, 0.0, total + 1.0, 1.0),
            (n - 1, 0.0, total + 1.0, float(np.round(rng.uniform(2, 6), 3)))]
    lines = []
    order = rng.permutation(n)
    for k in range(1, n):
        u, v = int(order[k]), int(order[int(rng.integers(0, k))])
        lines.append((len(lines), u, v,
                      float(np.round(rng.uniform(0.5, 3.0), 3)),
                      float(np.round(rng.uniform(0.4, 1.6), 3))))
    for _ in range(int(rng.integers(1, 3))):
        u, v = rng.choice(n, size=2, replace=False)
        lines.append((len(lines), int(u), int(v),
                      float(np.round(rng.uniform(1.5, 4.0), 3)),
                      float(np.round(rng.uniform(0.05, 0.4), 3))))
    return build_network(buses, gens, lines)


@pytest.fixture(scope="module")
def ground_truth_runs():
    """100 seeded instances solved by every mode and by enumeration."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(100):
        net = switching_prone_network(seed)
        bf_obj, _ = brute_force_ots(net)
        root = lp_solve(build_ots_angle(net).lp)
        model = build_ots_angle(net)
        root_fractional = (root.status == "optimal" and
                           any(abs(root.x[c] - round(root.x[c])) > 1e-6
                               for c in model.integer_cols))
        results = {mode: solve_ots(net, SolverConfig(cycle_mode=mode))
                   for mode in ("default", "basic", "more")}
        runs.append({"seed": seed, "net": net, "bf_obj": bf_obj,
                     "root_fractional": root_fractional, "results": results})
    return {"runs": runs, "build_seconds": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_convex_hull_equality():
    t0 = time.perf_counter()
    worst = hull_gap(np.random.default_rng(101), (2, 3, 4, 5), draws=20, trials=200)
    elapsed = time.perf_counter() - t0
    report(1, "convex-hull equality", worst <= 1e-7 and elapsed < 60.0,
           f"max gap {worst:.3e} over 80 weight vectors, {elapsed:.1f}s")


def test_criterion_02_facets_certified():
    t0 = time.perf_counter()
    certified, failed = facet_certificates(np.random.default_rng(102), (3, 4, 5, 6, 7),
                                           draws=5)
    assert failed is None, f"w={failed[0]} S={sorted(failed[1])}"
    elapsed = time.perf_counter() - t0
    report(2, "facet ranks", elapsed < 30.0,
           f"{certified} heavy subsets certified at rank 2|C|-1, {elapsed:.1f}s")


def test_criterion_03_separation_matches_enumeration():
    t0 = time.perf_counter()
    emitted, disagreements = separation_agreement(np.random.default_rng(103),
                                                  10_000, max_len=10)
    elapsed = time.perf_counter() - t0
    report(3, "closed-form separation optimality",
           disagreements == 0 and elapsed < 60.0,
           f"10000 contexts, {emitted} violated, "
           f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_04_no_cut_when_cycle_is_far_from_closed():
    exceptions = cuts_under_nonpositive_k(np.random.default_rng(104), 10_000,
                                          max_len=10)
    report(4, "empty separation under nonpositive K",
           exceptions == 0, f"10000 contexts, {exceptions} exceptions")


def test_criterion_05_extended_formulation_projects_exactly():
    worst = projection_gap(np.random.default_rng(105), (2, 3, 4), draws=3, trials=200)
    report(5, "extended-formulation projection", worst <= 1e-7,
           f"max objective gap {worst:.3e}")


def test_criterion_06_angle_and_cycle_dispatch_agree():
    solved, worst_rel, worst_flow, mismatches = dispatch_agreement(
        1, networks=50, max_buses=8, attempts=499)
    assert solved == 50, "could not find 50 dispatchable draws"
    assert worst_flow <= 1e-6 and mismatches == 0
    report(6, "angle vs cycle dispatch", worst_rel <= 1e-6,
           f"50 networks, worst relative objective gap {worst_rel:.3e}")


def test_criterion_07_hardness_reduction_feasibility():
    disagreements, yes_checked, inexact = reduction_agreement(
        np.random.default_rng(107), 200, max_terms=8)
    assert inexact == 0
    canonical = reduction_witness_angles(SubsetSumInstance((1, 2), 3), (0, 1))
    exact = canonical == {0: Fraction(4, 3), 1: Fraction(7, 6),
                          2: Fraction(7, 6), 3: Fraction(1), 4: Fraction(0)}
    report(7, "subset-sum reduction", disagreements == 0 and exact,
           f"200 instances, {disagreements} disagreements, "
           f"{yes_checked} exact witnesses, canonical angles exact={exact}")


def test_criterion_08_solver_matches_brute_force(ground_truth_runs):
    mismatches = []
    feasible = 0
    for run in ground_truth_runs["runs"]:
        bf = run["bf_obj"]
        for mode, res in run["results"].items():
            if bf is None:
                if res.status != "infeasible":
                    mismatches.append((run["seed"], mode, "status"))
            else:
                tol = 0.001 * (1.0 + abs(bf)) + 1e-9
                if res.status != "optimal-within-gap" or abs(res.objective - bf) > tol:
                    mismatches.append((run["seed"], mode, "objective"))
        feasible += bf is not None
    elapsed = ground_truth_runs["build_seconds"]
    report(8, "brute-force ground truth",
           len(mismatches) == 0 and elapsed < 600.0,
           f"100 instances x 3 modes, {feasible} feasible, "
           f"mismatches {mismatches[:3] if mismatches else 0}, "
           f"solved in {elapsed:.1f}s")


def test_criterion_09_root_cuts_never_hurt_and_often_help(ground_truth_runs):
    violations = 0
    fractional = improved = 0
    for run in ground_truth_runs["runs"]:
        res = run["results"]["basic"]
        z_lp, z_cuts = res.root_lp_values
        if z_lp is None or z_cuts is None:
            continue
        if z_cuts < z_lp - 1e-9:
            violations += 1
        if run["root_fractional"]:
            fractional += 1
            improved += z_cuts > z_lp + 1e-6
    ok = violations == 0 and fractional > 0 and improved >= 0.10 * fractional
    report(9, "root strengthening direction", ok,
           f"{violations} bound regressions, {improved}/{fractional} "
           "fractional roots strictly improved")


def test_criterion_10_incumbents_connected_and_trees_untouched(ground_truth_runs):
    for run in ground_truth_runs["runs"]:
        res = run["results"]["default"]
        if res.x is None:
            continue
        net = run["net"]
        x2, f2, p2 = repair_connected(net, res.x, res.f, res.p)
        g = nx.MultiGraph()
        g.add_nodes_from(b.id for b in net.buses)
        for ln in net.lines:
            if x2[ln.id] >= 0.5:
                g.add_edge(ln.from_bus, ln.to_bus)
        assert nx.is_connected(g), f"seed {run['seed']} incumbent disconnected"
        obj = sum(gen.cost * p2[gi] for gi, gen in enumerate(net.generators))
        assert obj == pytest.approx(res.objective, abs=1e-9)
    trees_checked = 0
    for seed in range(40):
        net = switching_prone_network(seed)
        n_tree = len(net.buses) - 1
        tree = PowerNetwork(net.base_mva, net.buses, net.generators,
                            net.lines[:n_tree])
        res = solve_ots(tree, SolverConfig())
        if res.status != "optimal-within-gap":
            continue
        trees_checked += 1
        assert all(v == 1.0 for v in res.x.values()), f"tree seed {seed}"
    report(10, "connectivity repair", trees_checked >= 10,
           f"every incumbent connected at unchanged objective; "
           f"{trees_checked} trees kept all lines")


def test_criterion_11_budget_sweep_recovers_feasibility():
    net = reduce_subset_sum(SubsetSumInstance((1, 2), 2))
    values = []
    for n_off in range(len(net.lines) + 1):
        res = solve_ots(net, SolverConfig(rel_gap=0.0), n_off=n_off)
        values.append(res.objective)
    first_feasible = next(i for i, v in enumerate(values) if v is not None)
    monotone = all(values[i + 1] <= values[i] + 1e-9
                   for i in range(first_feasible, len(values) - 1))
    ok = values[0] is None and 1 <= first_feasible and monotone
    report(11, "switching budget sweep", ok,
           f"infeasible at N=0, feasible from N={first_feasible}, "
           f"values {[None if v is None else round(v, 6) for v in values]}")


def enumerate_line_cycles(net):
    """Signed line vectors of every simple cycle, parallel choices included."""
    by_pair: dict[tuple[int, int], list] = {}
    for ln in net.lines:
        by_pair.setdefault(frozenset((ln.from_bus, ln.to_bus)), []).append(ln)
    pos = {ln.id: i for i, ln in enumerate(net.lines)}
    vectors = []
    g = nx.MultiGraph()
    g.add_nodes_from(b.id for b in net.buses)
    g.add_edges_from((ln.from_bus, ln.to_bus) for ln in net.lines)
    for nodes in nx.simple_cycles(g):
        k = len(nodes)
        hops = [(nodes[i], nodes[(i + 1) % k]) for i in range(k)]
        if k == 2:
            lines = by_pair[frozenset(hops[0])]
            for l1, l2 in itertools.combinations(lines, 2):
                vec = np.zeros(len(net.lines))
                u = hops[0][0]
                vec[pos[l1.id]] = 1.0 if l1.from_bus == u else -1.0
                vec[pos[l2.id]] = -1.0 if l2.from_bus == u else 1.0
                vectors.append(vec)
            continue
        choices = [by_pair[frozenset(h)] for h in hops]
        for combo in itertools.product(*choices):
            vec = np.zeros(len(net.lines))
            for (u, _v), ln in zip(hops, combo):
                vec[pos[ln.id]] = 1.0 if ln.from_bus == u else -1.0
            vectors.append(vec)
    return vectors


def test_criterion_12_cycle_basis_counts_and_spans():
    rng = np.random.default_rng(112)
    graphs = cycles_spanned = 0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        lines = []
        for i in range(1, n):
            lines.append((len(lines), int(rng.integers(0, i)), i, 1.0, 1.0))
        for _ in range(int(rng.integers(1, 5))):
            u, v = rng.integers(0, n, size=2)
            if u == v:
                v = (v + 1) % n
            lines.append((len(lines), int(u), int(v), 1.0, 1.0))
        net = build_network([(i, 0.0) for i in range(n)],
                            [(0, 0.0, 1.0, 1.0)], lines)
        basis = cycle_basis(net)
        assert len(basis) == len(net.lines) - n + 1
        pos = {ln.id: i for i, ln in enumerate(net.lines)}
        mat = np.array([[dict((l.id, s) for l, s in c.members).get(ln.id, 0.0)
                         for ln in net.lines] for c in basis])
        for vec in enumerate_line_cycles(net):
            coeffs, residual, _, _ = np.linalg.lstsq(mat.T, vec, rcond=None)
            misfit = np.abs(mat.T @ coeffs - vec).max()
            assert misfit <= 1e-8, "enumerated cycle outside the basis span"
            cycles_spanned += 1
        graphs += 1
    report(12, "cycle basis span", graphs == 100,
           f"{graphs} multigraphs, {cycles_spanned} enumerated cycles spanned")
