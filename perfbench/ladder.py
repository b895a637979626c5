"""Seeded meshed-grid instance ladder and its HiGHS references.

A rung is a rows x cols grid of buses joined to their horizontal and
vertical neighbours, plus max(rows, cols) seeded diagonals.  Line capacities come from the
all-closed DC flow of the merit-order dispatch; a seeded subset of the
loaded lines is then tightened below that flow, so the cheap dispatch is
congested and opening lines has something to gain.  Some draws end up
infeasible; they stay in the ladder.

Everything here is independent of ``dcots``: instance files are written
as text, and the reference optimum comes from this module's own big-M
model solved by ``scipy.optimize.milp`` (HiGHS).
"""

from __future__ import annotations

import json
import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

BASE_MVA = 100.0


def grid_instance(rows: int, cols: int, seed: int) -> dict:
    """One rows x cols meshed grid in MW units, deterministic in its arguments.

    Returns a dict with ``buses`` [(id, load_mw)], ``gens``
    [(bus, pmin_mw, pmax_mw, cost_per_mwh)] and ``lines``
    [(id, from, to, x_pu, capacity_mw)]; bus ids start at 1.
    """
    rng = np.random.default_rng([seed, rows, cols, 7919])
    n = rows * cols
    k = max(rows, cols)
    bus = lambda r, c: r * cols + c + 1  # noqa: E731
    loads = [float(rng.integers(10, 60)) for _ in range(n)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((bus(r, c), bus(r, c + 1)))
            if r + 1 < rows:
                edges.append((bus(r, c), bus(r + 1, c)))
    cells = [(r, c) for r in range(rows - 1) for c in range(cols - 1)]
    for i in rng.choice(len(cells), size=min(k, len(cells)), replace=False):
        r, c = cells[i]
        edges.append((bus(r, c), bus(r + 1, c + 1)) if rng.random() < 0.5
                     else (bus(r, c + 1), bus(r + 1, c)))
    reactance = np.round(rng.uniform(0.05, 0.25, size=len(edges)), 4)

    n_gen = max(2, k)
    gen_buses = sorted(int(b) + 1 for b in rng.choice(n, size=n_gen, replace=False))
    total = sum(loads)
    share = rng.dirichlet(np.ones(n_gen))
    pmax = [float(np.ceil(1.6 * total * s + 20.0)) for s in share]
    cost = [float(v) for v in np.round(rng.uniform(10.0, 60.0, size=n_gen), 2)]

    # merit-order dispatch, then the all-closed DC flow it induces
    inj = {b: -loads[b - 1] for b in range(1, n + 1)}
    left = total
    for g in np.argsort(cost, kind="stable"):
        out = min(pmax[g], left)
        inj[gen_buses[g]] += out
        left -= out
    flow = dc_flow(n, edges, reactance, inj)
    cap = np.maximum(np.ceil(1.5 * np.abs(flow)), 25.0)
    loaded = np.nonzero(np.abs(flow) > 10.0)[0]
    tight = rng.choice(loaded, size=min(k, len(loaded)), replace=False)
    cap[tight] = np.maximum(np.floor(rng.uniform(0.7, 0.95, size=len(tight))
                                     * np.abs(flow[tight])), 5.0)
    return {
        "buses": [(b, loads[b - 1]) for b in range(1, n + 1)],
        "gens": [(gen_buses[g], 0.0, pmax[g], cost[g]) for g in range(n_gen)],
        "lines": [(i, u, v, float(reactance[i]), float(cap[i]))
                  for i, (u, v) in enumerate(edges)],
    }


def dc_flow(n: int, edges, reactance, inj) -> np.ndarray:
    """Line flows (MW) of the all-closed DC power flow; bus 1 is slack."""
    lap = np.zeros((n, n))
    for (u, v), x in zip(edges, reactance):
        b = 1.0 / x
        lap[u - 1, u - 1] += b
        lap[v - 1, v - 1] += b
        lap[u - 1, v - 1] -= b
        lap[v - 1, u - 1] -= b
    p = np.array([inj[b] for b in range(1, n + 1)])
    theta = np.zeros(n)
    theta[1:] = np.linalg.solve(lap[1:, 1:], p[1:])
    return np.array([(theta[u - 1] - theta[v - 1]) / x
                     for (u, v), x in zip(edges, reactance)])


def to_native(inst: dict) -> str:
    """The instance in dcots's native JSON format."""
    return json.dumps({
        "base_mva": BASE_MVA,
        "buses": [{"id": b, "load_mw": d} for b, d in inst["buses"]],
        "generators": [{"bus": b, "pmin_mw": lo, "pmax_mw": hi, "cost_per_mwh": c}
                       for b, lo, hi, c in inst["gens"]],
        "lines": [{"id": i, "from": u, "to": v, "susceptance_pu": 1.0 / x,
                   "capacity_mw": cap, "switchable": True}
                  for i, u, v, x, cap in inst["lines"]],
    }, indent=1)


def to_matpower(inst: dict, name: str) -> str:
    """The instance as a MATPOWER case; line ids follow branch order.

    Numbers are written with ``repr``, which round-trips every float.
    """
    out = [f"function mpc = {name}", "mpc.version = '2';",
           f"mpc.baseMVA = {BASE_MVA:g};", "mpc.bus = ["]
    for k, (b, d) in enumerate(inst["buses"]):
        out.append(f"\t{b}\t{3 if k == 0 else 1}\t{d!r}\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;")
    out += ["];", "mpc.gen = ["]
    for b, lo, hi, _ in inst["gens"]:
        out.append(f"\t{b}\t0\t0\t0\t0\t1\t100\t1\t{hi!r}\t{lo!r};")
    out += ["];", "mpc.branch = ["]
    for _, u, v, x, cap in inst["lines"]:
        out.append(f"\t{u}\t{v}\t0\t{x!r}\t0\t{cap!r}\t0\t0\t0\t0\t1\t-360\t360;")
    out += ["];", "mpc.gencost = ["]
    for *_, c in inst["gens"]:
        out.append(f"\t2\t0\t0\t2\t{c!r}\t0;")
    out += ["];", ""]
    return "\n".join(out)


def milp_reference(inst: dict, time_limit: float) -> dict:
    """Switching optimum of the instance by HiGHS ``milp``, in $/h.

    Columns are generator outputs, flows, angles and on/off variables, all
    per unit; open lines carry no flow and relax their angle rows by a
    big-M that covers every angle spread of a connected dispatch.
    Returns status ('optimal' | 'infeasible' | 'limit'), the objective,
    HiGHS's dual bound, and its wall time.
    """
    buses, gens, lines = inst["buses"], inst["gens"], inst["lines"]
    nb, ng, nl = len(buses), len(gens), len(lines)
    pos = {b: i for i, (b, _) in enumerate(buses)}
    P, F, T, X = 0, ng, ng + nl, ng + nl + nb
    nvar = X + nl
    sus = [1.0 / x for _, _, _, x, _ in lines]
    cap = [c / BASE_MVA for *_, c in lines]
    big_theta = sum(c / s for c, s in zip(cap, sus))
    rows, cols, vals, lo, hi = [], [], [], [], []
    r = 0

    def add(entries, lb, ub):
        nonlocal r
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        lo.append(lb)
        hi.append(ub)
        r += 1

    for b, d in buses:
        ent = [(P + g, 1.0) for g, gen in enumerate(gens) if gen[0] == b]
        for li, (_, u, v, _, _) in enumerate(lines):
            if u == b:
                ent.append((F + li, -1.0))
            elif v == b:
                ent.append((F + li, 1.0))
        add(ent, d / BASE_MVA, d / BASE_MVA)
    for li, (_, u, v, _, _) in enumerate(lines):
        m = 2.0 * sus[li] * big_theta
        ohm = [(F + li, 1.0), (T + pos[u], -sus[li]), (T + pos[v], sus[li])]
        add(ohm + [(X + li, m)], -np.inf, m)
        add(ohm + [(X + li, -m)], -m, np.inf)
        add([(F + li, 1.0), (X + li, -cap[li])], -np.inf, 0.0)
        add([(F + li, 1.0), (X + li, cap[li])], 0.0, np.inf)
    a = sp.csr_matrix((vals, (rows, cols)), shape=(r, nvar))
    c = np.zeros(nvar)
    c[P:P + ng] = [cost * BASE_MVA for *_, cost in gens]
    lb = np.concatenate([[g[1] / BASE_MVA for g in gens], -np.array(cap),
                         np.full(nb, -big_theta), np.zeros(nl)])
    ub = np.concatenate([[g[2] / BASE_MVA for g in gens], np.array(cap),
                         np.full(nb, big_theta), np.ones(nl)])
    lb[T] = ub[T] = 0.0
    integrality = np.zeros(nvar)
    integrality[X:] = 1
    t0 = time.perf_counter()
    # presolve off: HiGHS presolve has declared feasible big-M instances
    # infeasible and returned dual bounds above their optimum
    res = milp(c, constraints=LinearConstraint(a, lo, hi), bounds=Bounds(lb, ub),
               integrality=integrality,
               options={"time_limit": time_limit, "mip_rel_gap": 1e-6, "presolve": False})
    wall = time.perf_counter() - t0
    status = {0: "optimal", 2: "infeasible"}.get(res.status, "limit")
    return {"status": status,
            "objective": float(res.fun) if res.x is not None else None,
            "dual_bound": (float(res.mip_dual_bound)
                           if getattr(res, "mip_dual_bound", None) is not None
                           and np.isfinite(res.mip_dual_bound) else None),
            "highs_s": wall}


def relabeled(inst: dict, bus_offset: int, bus_stride: int,
              line_offset: int, line_stride: int) -> dict:
    """The instance with bus and line ids renumbered in increasing order.

    Every number and every ordering stays, so a solver that breaks ties
    by id order does exactly the same work on the copy.
    """
    bus = lambda b: bus_offset + bus_stride * b  # noqa: E731
    return {
        "buses": [(bus(b), d) for b, d in inst["buses"]],
        "gens": [(bus(b), lo, hi, c) for b, lo, hi, c in inst["gens"]],
        "lines": [(line_offset + line_stride * i, bus(u), bus(v), x, cap)
                  for i, u, v, x, cap in inst["lines"]],
    }
