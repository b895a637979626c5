"""Output checks that share no code with ``dcots.solver``.

Instances are read from the generator's own description (MW units, see
``ladder.grid_instance``); solver outputs are per unit, keyed by line id
and generator index.  Each check returns a list of problems, empty when
the output is correct.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from ladder import BASE_MVA

FLOW_TOL = 1e-6   # per unit, on balance, capacity, open-line and KVL residuals
REL_TOL = 1e-6    # relative, on objective and LP values
SOLVER_GAP = 1e-3  # the solver's default relative optimality gap


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_dispatch(inst: dict, x, f, p, objective) -> list[str]:
    """Bus balance, limits, zero flow on open lines, KVL and the objective."""
    probs = []
    lines = inst["lines"]
    inj = {b: -d / BASE_MVA for b, d in inst["buses"]}
    for g, (b, lo, hi, _) in enumerate(inst["gens"]):
        if not lo / BASE_MVA - FLOW_TOL <= p[g] <= hi / BASE_MVA + FLOW_TOL:
            probs.append(f"generator {g} output {p[g]} outside [{lo}, {hi}] MW")
        inj[b] += p[g]
    for lid, u, v, _, cap in lines:
        inj[u] -= f[lid]
        inj[v] += f[lid]
        if abs(f[lid]) > cap / BASE_MVA + FLOW_TOL:
            probs.append(f"line {lid} flow {f[lid]} over capacity {cap} MW")
        if x[lid] not in (0.0, 1.0):
            probs.append(f"line {lid} state {x[lid]} is not binary")
        elif x[lid] == 0.0 and abs(f[lid]) > FLOW_TOL:
            probs.append(f"open line {lid} carries flow {f[lid]}")
    bad = {b: r for b, r in inj.items() if abs(r) > FLOW_TOL}
    if bad:
        probs.append(f"bus balance violated at {sorted(bad)[:5]}")
    probs += _kvl_problems(inst, x, f)
    cost = sum(c * BASE_MVA * p[g] for g, (*_, c) in enumerate(inst["gens"]))
    if not close(cost, objective):
        probs.append(f"objective {objective} != dispatch cost {cost}")
    return probs


def _kvl_problems(inst: dict, x, f) -> list[str]:
    """Re-derive angles on the closed lines and compare implied flows.

    Per connected component of closed lines, the injections that the
    flows imply are put through the component's own Laplacian; the DC
    flows that come back must equal the reported ones.
    """
    active = [(lid, u, v, 1.0 / xr) for lid, u, v, xr, _ in inst["lines"] if x[lid] == 1.0]
    buses = [b for b, _ in inst["buses"]]
    comp = {b: b for b in buses}

    def find(b):
        while comp[b] != b:
            comp[b] = comp[comp[b]]
            b = comp[b]
        return b

    for _, u, v, _ in active:
        comp[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for b in buses:
        groups.setdefault(find(b), []).append(b)
    probs = []
    for members in groups.values():
        if len(members) < 2:
            continue
        idx = {b: i for i, b in enumerate(members)}
        here = [ln for ln in active if ln[1] in idx]
        n = len(members)
        lap = np.zeros((n, n))
        inj = np.zeros(n)
        for lid, u, v, b in here:
            i, j = idx[u], idx[v]
            lap[i, i] += b
            lap[j, j] += b
            lap[i, j] -= b
            lap[j, i] -= b
            inj[i] += f[lid]
            inj[j] -= f[lid]
        theta = np.zeros(n)
        theta[1:] = np.linalg.solve(lap[1:, 1:], inj[1:])
        for lid, u, v, b in here:
            r = abs(b * (theta[idx[u]] - theta[idx[v]]) - f[lid])
            if r > FLOW_TOL:
                probs.append(f"KVL residual {r:.3g} on line {lid}")
    return probs


def check_solve(ref: dict, status: str, objective, sol) -> list[str]:
    """A B&B result against the HiGHS reference.

    ``sol`` is (x, f, p) or None.  An optimal reference needs an optimal
    status within the solver's gap; an infeasible one needs
    'infeasible'; a reference that hit its limit only forbids claiming
    infeasibility when HiGHS found a feasible point.
    """
    want = ref["status"]
    if want == "infeasible":
        return [] if status == "infeasible" else [f"status {status}, reference infeasible"]
    if status == "infeasible" and ref["objective"] is not None:
        return [f"status infeasible, reference found {ref['objective']}"]
    if want == "optimal" and status != "optimal-within-gap":
        return [f"status {status}, reference optimal"]
    if sol is None:
        return [] if want == "limit" else ["no solution returned"]
    probs = check_dispatch(ref["inst"], *sol, objective)
    lower = ref["dual_bound"] if ref["dual_bound"] is not None else ref["objective"]
    if lower is not None and objective < lower - REL_TOL * max(1.0, abs(lower)):
        probs.append(f"objective {objective} below reference bound {lower}")
    if want == "optimal" and objective > ref["objective"] * (1 + SOLVER_GAP) + REL_TOL * abs(ref["objective"]):
        probs.append(f"objective {objective} above reference {ref['objective']} by more than the gap")
    return probs


def lp_value(lp) -> tuple[str, float | None]:
    """Solve a ``dcots.lp.LinearProgram`` with HiGHS (own conversion)."""
    rows, cols, vals, lo, hi = [], [], [], [], []
    for i, (coeffs, sense, rhs) in enumerate(lp.rows):
        for c, v in coeffs:
            rows.append(i)
            cols.append(c)
            vals.append(v)
        lo.append(-np.inf if sense == "<=" else rhs)
        hi.append(np.inf if sense == ">=" else rhs)
    a = sp.csr_matrix((vals, (rows, cols)), shape=(len(lp.rows), len(lp.obj)))
    lo, hi = np.array(lo), np.array(hi)
    ub_rows = np.isfinite(hi) & ~(lo == hi)
    lb_rows = np.isfinite(lo) & ~(lo == hi)
    eq_rows = lo == hi
    a_ub = sp.vstack([a[ub_rows], -a[lb_rows]])
    b_ub = np.concatenate([hi[ub_rows], -lo[lb_rows]])
    res = linprog(np.array(lp.obj), A_ub=a_ub, b_ub=b_ub, A_eq=a[eq_rows], b_eq=lo[eq_rows],
                  bounds=list(zip(lp.lo, lp.hi)), method="highs",
                  options={"presolve": False})  # as in ladder.milp_reference
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    return status, (float(res.fun) if res.status == 0 else None)


def check_root(ref: dict, lp_ref: tuple[str, float | None], out) -> list[str]:
    """A root phase result against HiGHS on the same LP and the MILP optimum.

    ``out`` is (z_LP, z_LP_cuts) or the status string of the root LP
    failure.  z_LP must equal HiGHS's value of the unstrengthened LP, and
    z_LP <= z_LP_cuts <= z_ref; without a proven optimum, HiGHS's best
    feasible objective still bounds z_LP_cuts from above.
    """
    lp_status, lp_obj = lp_ref
    if isinstance(out, str):
        if out == "infeasible" and (lp_status == "infeasible" or ref["status"] == "infeasible"):
            return []
        return [f"root LP {out}, HiGHS says LP {lp_status}, MILP {ref['status']}"]
    z_lp, z_cuts = out
    probs = []
    if lp_status != "optimal" or not close(z_lp, lp_obj):
        probs.append(f"z_LP {z_lp} != HiGHS {lp_status} {lp_obj}")
    tol = REL_TOL * max(1.0, abs(z_lp))
    if z_cuts < z_lp - tol:
        probs.append(f"z_LP_cuts {z_cuts} < z_LP {z_lp}")
    if ref["objective"] is not None and z_cuts > ref["objective"] + tol:
        probs.append(f"z_LP_cuts {z_cuts} > MILP objective {ref['objective']}")
    return probs


def gap_closed(ref: dict, z_lp: float, z_cuts: float) -> float | None:
    """The paper's root metric (z_LP_cuts - z_LP) / (z_ref - z_LP), or None
    without a proven optimum strictly above z_LP."""
    z_ref = ref["objective"]
    if ref["status"] != "optimal" or z_ref - z_lp <= REL_TOL * abs(z_ref):
        return None
    return (z_cuts - z_lp) / (z_ref - z_lp)
