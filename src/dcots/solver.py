"""Branch-and-cut solver for line switching.

The search runs the cycle formulation: balance rows and on/off capacity
links only, with Kirchhoff's voltage law (KVL) enforced by big-M cycle
rows added lazily.  ``solve_ots`` strengthens the root relaxation of that
model (its value is z_LP) with separated cycle inequalities, then runs a
deterministic best-bound branch-and-bound on the binary line variables.
At fractional nodes up to ``TREE_DEPTH`` branchings deep the search
separates the same inequalities again, over the shortest cycles under
weights 1 - x of the node's relaxation.  Integral candidates are
screened by a lazy flow-consistency check: a spanning forest of the
active lines fixes angles, and any active chord whose implied angle
difference disagrees with its flow yields a cycle whose big-M rows are
appended to the search's program before the search continues.
Incumbents are post-processed into a connected active topology with
recovered angles.

Cycle selection modes pick the root's cycles: ``default`` adds no root
cuts, ``basic`` separates over a cycle basis, ``more`` over the basis
expanded twice by pairwise symmetric differences.  Each round separates
every cycle in closed form, so it adds at most one cut per side per
cycle; root and tree rounds both run ``cuts.SeparationTable``, one array
pass over the cycle set, built once per ``strengthen_root`` call and once
per tree round's cycle set.  Tree cuts run in every mode.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np

from dcots.cuts import SeparationTable
# unused here; perfbench/layers.py wraps them by name
from dcots.cuts import inequality_row, make_context, separate_all
from dcots.cyclebasis import (
    Cycle,
    CycleSet,
    cycle_basis,
    cycle_of_chord,
    expand_cycle_set,
    lp_guided_cycles,
    spanning_forest,
)
from dcots.formulations import MilpModel, add_switching_budget, build_ots_cycle, cycle_cut_rows
from dcots.formulations import build_ots_angle  # unused here; perfbench/layers.py wraps it by name
from dcots.lp import SimplexError, add_rows, solve
from dcots.network import PowerNetwork, union_find

__all__ = [
    "KVL_TOL",
    "CSV_HEADER",
    "CYCLE_MODES",
    "SolverConfig",
    "SolveStats",
    "SolveResult",
    "RootRelaxationError",
    "TREE_DEPTH",
    "TREE_ROUNDS",
    "strengthen_root",
    "branch_and_bound",
    "lazy_kvl_check",
    "recover_angles",
    "repair_connected",
    "solve_ots",
    "result_to_doc",
    "result_csv_row",
]

KVL_TOL = 1e-6
_INT_TOL = 1e-6
_GAP_EPS = 1e-9
TREE_DEPTH = 2   # nodes at most this many branchings deep separate cuts
TREE_ROUNDS = 2  # rounds of cuts at each such node

CSV_HEADER = ["instance", "mode", "status", "objective", "bound", "gap",
              "nodes", "cuts", "z_LP", "z_LP_cuts", "wall_time_s"]

CYCLE_MODES = ("default", "basic", "more")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs; the defaults reproduce the standard setup."""

    rel_gap: float = 0.001
    time_limit_s: float = 3600.0
    strengthen_rounds: int = 5
    cycle_mode: str = "default"
    # a constant, not a field: perfbench/run.py and baseline.py read it
    expansion_k: ClassVar[int] = 2

    def __post_init__(self):
        if self.cycle_mode not in CYCLE_MODES:
            raise ValueError(f"cycle_mode must be one of {CYCLE_MODES}")
        # written as `not x >= 0` so that NaN is rejected too
        if not (self.rel_gap >= 0 and self.strengthen_rounds >= 0):
            raise ValueError("rel_gap and strengthen_rounds must be nonnegative")
        if not self.time_limit_s >= 0:
            raise ValueError("time_limit_s must be nonnegative")


@dataclass
class SolveStats:
    """Counters of one solve, over the root and the search: LP solves
    started, simplex iterations of those that returned, how many of them
    ran from a slack basis (first solves and warm starts that fell back)
    and the basis inverses they computed afresh, cut rows added at tree
    nodes and lazy KVL rows added at integral ones; and the node (counted
    from 1 in the order the search takes them) and the seconds since the
    solve started at which the first incumbent was found, None until one
    is."""

    lp_calls: int = 0
    simplex_iterations: int = 0
    cold_starts: int = 0
    refactorizations: int = 0
    tree_cuts: int = 0
    lazy_rows: int = 0
    first_incumbent_node: int | None = None
    first_incumbent_s: float | None = None

    def count(self, sol) -> None:
        """Count the work of an LP solve that returned ``sol``."""
        self.simplex_iterations += sol.iterations
        self.cold_starts += sol.cold_start
        self.refactorizations += sol.refactorizations


@dataclass
class SolveResult:
    """Outcome of one solve; incumbent fields are None when none exists."""

    status: str
    x: dict[int, float] | None = None
    f: dict[int, float] | None = None
    theta: dict[int, float] | None = None
    p: dict[int, float] | None = None
    objective: float | None = None
    best_bound: float | None = None
    gap: float | None = None
    nodes: int = 0
    cuts_added: int = 0
    root_lp_values: tuple[float | None, float | None] = (None, None)
    wall_time_s: float = 0.0
    stats: SolveStats = field(default_factory=SolveStats)


class RootRelaxationError(RuntimeError):
    """Root LP did not come back optimal; carries the LP status."""

    def __init__(self, status: str, z_lp: float | None = None):
        super().__init__(f"root relaxation {status}")
        self.status = status
        self.z_lp = z_lp


def strengthen_root(model: MilpModel, cycles: CycleSet, rounds: int,
                    deadline: float | None = None, stats: SolveStats | None = None):
    """Add separated cycle inequalities to the root until none violate.

    Each round adds the closed-form most violated cut per side of every
    cycle; a row already in the LP holds within the LP's feasibility
    tolerance, below ``cuts.VIOL_TOL``, so it is never separated again.  No
    round starts once ``time.monotonic()`` is past ``deadline``.

    Returns (model, z_LP, z_LP_cuts, cuts_added) where z_LP is the
    plain relaxation value and z_LP_cuts the value after the last
    round; the model carries the basis of the last solve as its
    ``warm`` start.  Raises RootRelaxationError when any root solve is not
    optimal; infeasibility after valid cuts proves the instance itself
    infeasible.  LP solves are counted in ``stats``, if given.
    """
    stats = SolveStats() if stats is None else stats
    lp = model.lp
    stats.lp_calls += 1
    sol = solve(lp)
    stats.count(sol)
    if sol.status != "optimal":
        raise RootRelaxationError(sol.status)
    z_lp = sol.obj
    n_cuts = 0
    table = SeparationTable(cycles, model.vmap)
    for _ in range(rounds):
        if len(cycles) == 0 or (deadline is not None and time.monotonic() > deadline):
            break
        new_rows = table.rows(sol.x)
        if not new_rows:
            break
        lp = add_rows(lp, new_rows)
        n_cuts += len(new_rows)
        stats.lp_calls += 1
        sol = solve(lp, warm=sol.basis)
        stats.count(sol)
        if sol.status != "optimal":
            raise RootRelaxationError(sol.status, z_lp)
    return replace(model, lp=lp, warm=sol.basis), z_lp, sol.obj, n_cuts


def _forest_angles(net: PowerNetwork, tree, f):
    adj: dict[int, list] = {b.id: [] for b in net.buses}
    for ln in tree:
        adj[ln.from_bus].append((ln.to_bus, -f[ln.id] / ln.susceptance))
        adj[ln.to_bus].append((ln.from_bus, f[ln.id] / ln.susceptance))
    theta: dict[int, float] = {}
    for root in sorted(adj):
        if root in theta:
            continue
        theta[root] = 0.0
        stack = [root]
        while stack:
            u = stack.pop()
            for v, step in adj[u]:
                if v not in theta:
                    theta[v] = theta[u] + step
                    stack.append(v)
    return theta


def lazy_kvl_check(net: PowerNetwork, x, f) -> Cycle | None:
    """Flow-consistency screen for an integral candidate.

    Fixes angles along a spanning forest of the active lines and
    returns the tree cycle of the active chord with the largest
    angle-versus-flow residual, or None when every residual is within
    ``KVL_TOL``.
    """
    tree, chords = spanning_forest(net, [ln for ln in net.lines if x[ln.id] >= 0.5])
    if not chords:
        return None
    theta = _forest_angles(net, tree, f)
    worst, worst_r = None, KVL_TOL
    for ln in chords:
        r = abs(theta[ln.from_bus] - theta[ln.to_bus] - f[ln.id] / ln.susceptance)
        if r > worst_r:
            worst, worst_r = ln, r
    if worst is None:
        return None
    return cycle_of_chord(net, [ln.id for ln in tree], worst)


def recover_angles(net: PowerNetwork, x, f):
    """Angles consistent with the active flows, zero at each component's
    lowest-indexed bus; valid once lazy_kvl_check finds nothing."""
    tree, _ = spanning_forest(net, [ln for ln in net.lines if x[ln.id] >= 0.5])
    return _forest_angles(net, tree, f)


def repair_connected(net: PowerNetwork, x, f, p):
    """Close the cheapest set of forest edges joining active components.

    Scans off lines in id order and turns one on, carrying zero flow,
    whenever it joins two components; no cycle among active lines is
    created, so flow consistency and the objective are untouched.
    """
    find, union = union_find(b.id for b in net.buses)
    for ln in net.lines:
        if x[ln.id] >= 0.5:
            union(ln.from_bus, ln.to_bus)
    x2, f2 = dict(x), dict(f)
    for ln in net.lines:
        if x2[ln.id] < 0.5 and union(ln.from_bus, ln.to_bus):
            x2[ln.id] = 1.0
            f2[ln.id] = 0.0
    return x2, f2, p


def _gap(obj: float, bound: float) -> float:
    return (obj - bound) / max(abs(obj), _GAP_EPS)


def branch_and_bound(model: MilpModel, config: SolverConfig, lazy_source,
                     t0: float | None = None, root_cuts: int = 0,
                     root_lp_values=(None, None),
                     stats: SolveStats | None = None) -> SolveResult:
    """Deterministic best-bound search over the binary line variables.

    The search works on one copy of ``model.lp``: each node sets on it
    the integer-column bounds that differ from the previous node's, and
    lazy rows are appended to it in place, so they hold at every later
    node.  Branches on the most fractional variable (ties to the lowest
    line id).  A fractional node at most ``TREE_DEPTH`` branchings deep
    first runs up to ``TREE_ROUNDS`` rounds of closed-form separation
    over ``lp_guided_cycles``, each appending its cuts and re-solving.  Integral candidates pass
    through ``lazy_source``, and a returned cycle contributes its two
    big-M rows instead of an incumbent.  A node LP that fails
    numerically, or an integral node still cut off after ``10 * |L|``
    rounds of lazy rows, ends the search with status ``numerical-error``
    or ``lazy-rows-stalled``; rounds of tree cuts are not counted there.
    The time limit is checked before each node and between rounds of
    tree cuts or lazy rows.  The first node's LP starts from
    ``model.warm``, if set.  LP solves and added rows are counted in
    ``stats`` (a new counter if None), which the result carries.  The
    result carries no angles.
    """
    start = time.monotonic() if t0 is None else t0
    stats = SolveStats() if stats is None else stats
    lp = model.lp.copy()
    vmap = model.vmap
    col_to_lid = {col: lid for lid, col in vmap.x.items()}
    int_cols = sorted(model.integer_cols, key=lambda c: col_to_lid[c])
    int_idx = np.array(int_cols, dtype=np.int64)
    root_bounds = {c: (lp.lo[c], lp.hi[c]) for c in int_cols}
    overridden = {}  # the previous node's overrides: column -> (lo, hi)

    incumbent = None
    inc_obj = float("inf")
    nodes = 0
    cuts = root_cuts
    counter = 0
    heap = [(-float("inf"), counter, (), model.warm)]
    status = None
    best_bound = -float("inf")

    def time_limit_status():
        """The status to end with once past the time limit, else None."""
        if time.monotonic() - start <= config.time_limit_s:
            return None
        return "feasible-time-limit" if incumbent is not None else "infeasible-unknown"

    while heap:
        bound, _, overrides, warm = heapq.heappop(heap)
        best_bound = bound
        if incumbent is not None:
            if _gap(inc_obj, bound) <= config.rel_gap:
                break
            if bound >= inc_obj - _GAP_EPS * (1.0 + abs(inc_obj)):
                break
        status = time_limit_status()
        if status is not None:
            break

        node_bounds = {col: (lo, hi) for col, lo, hi in overrides}
        for col in overridden.keys() | node_bounds.keys():
            lo, hi = node_bounds.get(col, root_bounds[col])
            if (lp.lo[col], lp.hi[col]) != (lo, hi):
                lp.set_bounds(col, lo, hi)
        overridden = node_bounds
        nodes += 1
        lazy_rounds = tree_rounds = 0
        while True:
            stats.lp_calls += 1
            try:
                sol = solve(lp, warm=warm)
            except SimplexError:
                status = "numerical-error"
                break
            stats.count(sol)
            if sol.status == "unbounded":
                return SolveResult(status="unbounded", nodes=nodes, cuts_added=cuts,
                                   root_lp_values=root_lp_values,
                                   wall_time_s=time.monotonic() - start, stats=stats)
            if sol.status != "optimal":
                break
            node_obj = sol.obj
            if incumbent is not None and node_obj >= inc_obj - _GAP_EPS * (1.0 + abs(inc_obj)):
                break
            x_int = sol.x[int_idx]
            frac = np.abs(x_int - np.round(x_int))
            if frac.size and frac.max() > _INT_TOL:
                if len(overrides) <= TREE_DEPTH and tree_rounds < TREE_ROUNDS:
                    x_hat = {lid: sol.x[col] for lid, col in vmap.x.items()}
                    rows = SeparationTable(lp_guided_cycles(model.net, x_hat), vmap).rows(sol.x)
                    if rows:
                        tree_rounds += 1
                        for row in rows:
                            lp.add_row(*row)
                        stats.tree_cuts += len(rows)
                        cuts += len(rows)
                        warm = sol.basis
                        status = time_limit_status()
                        if status is not None:
                            break
                        continue
                branch_col = int_cols[int(frac.argmax())]  # the first of the most fractional
                for lo, hi in ((0.0, 0.0), (1.0, 1.0)):
                    counter += 1
                    heapq.heappush(heap, (node_obj, counter,
                                          overrides + ((branch_col, lo, hi),),
                                          sol.basis))
                break
            x_hat = {lid: float(round(sol.x[col])) for lid, col in vmap.x.items()}
            f_hat = {lid: sol.x[col] for lid, col in vmap.flow.items()}
            cyc = lazy_source(x_hat, f_hat)
            if cyc is None:
                if node_obj < inc_obj:
                    if incumbent is None:
                        stats.first_incumbent_node = nodes
                        stats.first_incumbent_s = time.monotonic() - start
                    inc_obj = node_obj
                    incumbent = sol
                break
            lazy_rounds += 1
            if lazy_rounds > 10 * max(1, len(model.net.lines)):
                status = "lazy-rows-stalled"
                break
            for row in cycle_cut_rows(cyc, vmap):
                lp.add_row(*row)
                stats.lazy_rows += 1
                cuts += 1
            warm = sol.basis
            status = time_limit_status()
            if status is not None:
                break
        if status is None and heap:
            status = time_limit_status()
        if status is not None:
            break

    wall = time.monotonic() - start
    if status is None:
        if incumbent is None:
            return SolveResult(status="infeasible", nodes=nodes, cuts_added=cuts,
                               root_lp_values=root_lp_values, wall_time_s=wall, stats=stats)
        status = "optimal-within-gap"
        if not heap:
            best_bound = inc_obj  # search exhausted: the incumbent is the bound
    if incumbent is None:
        return SolveResult(status=status, nodes=nodes, cuts_added=cuts,
                           root_lp_values=root_lp_values, wall_time_s=wall, stats=stats)
    x_out = {lid: float(round(incumbent.x[col])) for lid, col in vmap.x.items()}
    f_out = {lid: incumbent.x[col] for lid, col in vmap.flow.items()}
    p_out = {gi: incumbent.x[col] for gi, col in vmap.pg.items()}
    bound_out = best_bound if best_bound > -float("inf") else inc_obj
    bound_out = min(bound_out, inc_obj)
    return SolveResult(status=status, x=x_out, f=f_out, p=p_out,
                       objective=inc_obj, best_bound=bound_out,
                       gap=max(0.0, _gap(inc_obj, bound_out)), nodes=nodes,
                       cuts_added=cuts, root_lp_values=root_lp_values, wall_time_s=wall,
                       stats=stats)


def _cycles_for_mode(net: PowerNetwork, config: SolverConfig) -> CycleSet:
    if config.cycle_mode == "default":
        return CycleSet()
    cs = cycle_basis(net)
    if config.cycle_mode == "more":
        for _ in range(config.expansion_k):
            cs = expand_cycle_set(cs)
    return cs


def solve_ots(net: PowerNetwork, config: SolverConfig | None = None,
              n_off: int | None = None) -> SolveResult:
    """Solve the switching problem end to end.

    Builds the cycle formulation, optionally caps the number of open
    lines at ``n_off``, strengthens the root per the cycle mode, runs
    branch-and-bound with lazy KVL rows, and post-processes the
    incumbent into a connected topology with recovered angles.
    """
    if config is None:
        config = SolverConfig()
    t0 = time.monotonic()
    stats = SolveStats()
    model = build_ots_cycle(net)
    if n_off is not None:
        model = add_switching_budget(model, n_off)
    cycles = _cycles_for_mode(net, config)
    rounds = 0 if config.cycle_mode == "default" else config.strengthen_rounds
    try:
        model, z_lp, z_cuts, n_cuts = strengthen_root(model, cycles, rounds,
                                                      deadline=t0 + config.time_limit_s,
                                                      stats=stats)
    except RootRelaxationError as err:
        status = "infeasible" if err.status == "infeasible" else "unbounded"
        return SolveResult(status=status, root_lp_values=(err.z_lp, None),
                           wall_time_s=time.monotonic() - t0, stats=stats)
    except SimplexError:
        return SolveResult(status="numerical-error", wall_time_s=time.monotonic() - t0,
                           stats=stats)
    res = branch_and_bound(model, config, lambda x, f: lazy_kvl_check(net, x, f),
                           t0=t0, root_cuts=n_cuts, root_lp_values=(z_lp, z_cuts),
                           stats=stats)
    if res.x is not None:
        res.x, res.f, res.p = repair_connected(net, res.x, res.f, res.p)
        res.theta = recover_angles(net, res.x, res.f)
        res.wall_time_s = time.monotonic() - t0
    return res


def result_to_doc(res: SolveResult, instance: str | None = None,
                  mode: str | None = None) -> dict:
    """JSON-ready record of a solve outcome."""
    doc = {
        "status": res.status,
        "objective": res.objective,
        "best_bound": res.best_bound,
        "gap": res.gap,
        "nodes": res.nodes,
        "cuts": res.cuts_added,
        "z_LP": res.root_lp_values[0],
        "z_LP_cuts": res.root_lp_values[1],
        "wall_time_s": res.wall_time_s,
        "stats": asdict(res.stats),
    }
    if instance is not None:
        doc["instance"] = instance
    if mode is not None:
        doc["mode"] = mode
    if res.x is not None:
        doc["x"] = {str(k): v for k, v in sorted(res.x.items())}
        doc["f"] = {str(k): v for k, v in sorted(res.f.items())}
        doc["p"] = {str(k): v for k, v in sorted(res.p.items())}
        doc["theta"] = {str(k): v for k, v in sorted(res.theta.items())}
    return doc


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def result_csv_row(res: SolveResult, instance: str, mode: str) -> list[str]:
    """One benchmark CSV row in the fixed column order."""
    return [instance, mode, res.status, _fmt(res.objective), _fmt(res.best_bound),
            _fmt(res.gap), str(res.nodes), str(res.cuts_added),
            _fmt(res.root_lp_values[0]), _fmt(res.root_lp_values[1]),
            _fmt(res.wall_time_s)]
