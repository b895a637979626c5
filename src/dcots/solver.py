"""Branch-and-cut solver for line switching.

The search runs the cycle formulation: balance rows and on/off capacity
links only, with Kirchhoff's voltage law (KVL) enforced by big-M cycle
rows added lazily.  ``solve_ots`` strengthens the root relaxation of that
model (its value is z_LP) with separated cycle inequalities, then appends
a cover row for every bus that cannot balance itself (at least k of its
lines closed, ``formulations.bus_cover_rows``) and runs a deterministic
best-bound branch-and-bound on the binary line variables.  The cover rows
come after the root's cut rounds, so z_LP and z_LP_cuts are values of the
paper's relaxation; as rows of the search's program, the covers hold at
every node.
At fractional nodes up to ``TREE_DEPTH`` branchings deep the search
separates the same inequalities again, over the shortest cycles under
weights 1 - x of the node's relaxation.  It branches by reliability
branching: pseudocosts per line and direction, and strong branching on
lines whose pseudocosts have too few observations.  Integral candidates
are screened by a lazy flow-consistency check: a spanning forest of the
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
from typing import ClassVar, NamedTuple

import numpy as np

from dcots.cuts import SeparationTable
# unused here; perfbench/layers.py wraps them by name
from dcots.cuts import inequality_row, make_context, separate_all
from dcots.cyclebasis import (
    Cycle,
    cycle_basis,
    cycle_of_chord,
    expand_cycle_set,
    lp_guided_cycles,
    spanning_forest,
    tree_parents,
)
from dcots.formulations import (
    MilpModel,
    add_switching_budget,
    build_ots_cycle,
    bus_cover_rows,
    cycle_cut_rows,
)
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
    "RELIABLE",
    "STRONG_CANDIDATES",
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
RELIABLE = 1     # observations per line and direction before its pseudocost is trusted
STRONG_CANDIDATES = 8  # unreliable lines strong-branched at one branching
_SCORE_EPS = 1e-6

CSV_HEADER = ["instance", "mode", "status", "objective", "bound", "gap",
              "nodes", "cuts", "z_LP", "z_LP_cuts", "wall_time_s"]

CYCLE_MODES = ("default", "basic", "more")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs; the defaults reproduce the standard setup."""

    rel_gap: float = 0.001
    time_limit_s: float = 3600.0
    cycle_mode: str = "default"
    # constants, not fields: perfbench/run.py and baseline.py read them
    strengthen_rounds: ClassVar[int] = 5
    expansion_k: ClassVar[int] = 2

    def __post_init__(self):
        if self.cycle_mode not in CYCLE_MODES:
            raise ValueError(f"cycle_mode must be one of {CYCLE_MODES}")
        # written as `not x >= 0` so that NaN is rejected too
        if not self.rel_gap >= 0:
            raise ValueError("rel_gap must be nonnegative")
        if not self.time_limit_s >= 0:
            raise ValueError("time_limit_s must be nonnegative")


@dataclass
class SolveStats:
    """Counters of one solve, over the root and the search: LP solves
    started, the strong-branching ones among them, simplex iterations of
    those that returned (an abandoned warm attempt's included), how many
    of them ran from a slack basis (first solves and warm starts that fell
    back), the warm starts that fell back, and the basis inverses they
    computed afresh, bus cover rows added before the search, cut rows
    added at tree nodes and lazy KVL rows added at integral ones; and the
    node (counted from 1 in the order the search takes them) and the
    seconds since the solve started at which the first incumbent was
    found, None until one is.  ``_counted_solve`` keeps every LP counter
    but ``strong_branch_solves``."""

    lp_calls: int = 0
    strong_branch_solves: int = 0
    simplex_iterations: int = 0
    cold_starts: int = 0
    warm_fallbacks: int = 0
    refactorizations: int = 0
    cover_rows: int = 0
    tree_cuts: int = 0
    lazy_rows: int = 0
    first_incumbent_node: int | None = None
    first_incumbent_s: float | None = None


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


def _counted_solve(lp, stats: SolveStats, warm=None):
    """``solve(lp, warm)``, counted in ``stats``: every LP solve runs here."""
    stats.lp_calls += 1
    sol = solve(lp, warm=warm)
    stats.simplex_iterations += sol.iterations
    stats.cold_starts += sol.cold_start
    stats.warm_fallbacks += warm is not None and sol.cold_start
    stats.refactorizations += sol.refactorizations
    return sol


def strengthen_root(model: MilpModel, cycles: tuple[Cycle, ...], rounds: int,
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
    sol = _counted_solve(lp, stats)
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
        sol = _counted_solve(lp, stats, warm=sol.basis)
        if sol.status != "optimal":
            raise RootRelaxationError(sol.status, z_lp)
    return replace(model, lp=lp, warm=sol.basis), z_lp, sol.obj, n_cuts


def _forest_angles(parent, f):
    """Angles down the forest of a ``tree_parents`` map: zero at each root,
    and at each other bus its parent bus's angle minus the flow over
    susceptance on the line between them, signed from the parent."""
    theta: dict[int, float] = {}
    for v, ln in parent.items():
        if ln is None:
            theta[v] = 0.0
        elif ln.to_bus == v:
            theta[v] = theta[ln.from_bus] - f[ln.id] / ln.susceptance
        else:
            theta[v] = theta[ln.to_bus] + f[ln.id] / ln.susceptance
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
    parent = tree_parents(net, tree)
    theta = _forest_angles(parent, f)
    worst, worst_r = None, KVL_TOL
    for ln in chords:
        r = abs(theta[ln.from_bus] - theta[ln.to_bus] - f[ln.id] / ln.susceptance)
        if r > worst_r:
            worst, worst_r = ln, r
    if worst is None:
        return None
    return cycle_of_chord(parent, worst)


def recover_angles(net: PowerNetwork, x, f):
    """Angles consistent with the active flows, zero at each component's
    lowest-indexed bus; valid once lazy_kvl_check finds nothing."""
    tree, _ = spanning_forest(net, [ln for ln in net.lines if x[ln.id] >= 0.5])
    return _forest_angles(tree_parents(net, tree), f)


def repair_connected(net: PowerNetwork, x, f, p):
    """Close off lines, in line order, that join two active components.

    Each line closed carries zero flow.  No cycle among active lines is
    created, and the dispatch ``p`` is kept, so flow consistency and the
    objective are untouched.
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


class _Pseudocosts:
    """Objective gain per unit of change in x, observed per line and
    direction (0: fixed at 0, 1: fixed at 1), as sums and counts.  Python
    floats, so that gains near the float maximum sum to inf, not to a
    floating-point error."""

    def __init__(self, n: int):
        self.total = [[0.0] * n, [0.0] * n]
        self.count = [[0] * n, [0] * n]
        self.largest = [0.0, 0.0]  # the largest gain per unit seen in each direction

    def observe(self, d: int, k: int, unit_gain: float) -> None:
        self.total[d][k] += unit_gain
        self.count[d][k] += 1
        self.largest[d] = max(self.largest[d], unit_gain)

    def estimate(self, d: int, k: int) -> float:
        """The mean gain per unit of line ``k`` in direction ``d``, or of
        every line in that direction while ``k`` has none."""
        if self.count[d][k]:
            return self.total[d][k] / self.count[d][k]
        n = sum(self.count[d])
        return sum(self.total[d]) / n if n else 0.0


def _reliability_branch(lp, sol, int_cols, x_int, pseudo: _Pseudocosts, cut_off, out_of_time,
                        stats: SolveStats):
    """Choose the line to branch on at a node whose LP solution ``sol`` has
    integer-column values ``x_int`` (columns ``int_cols``, in line order).

    Up to ``STRONG_CANDIDATES`` fractional lines, most fractional first
    (ties to the lowest line id), that have fewer than ``RELIABLE``
    observations in a direction are strong-branched: each child is solved
    on ``lp`` warm from ``sol.basis``, and the column's bounds are restored
    after it.  Every such solve is a pseudocost observation.  A child that
    is infeasible or ``cut_off`` counts as one observation at the largest
    gain per unit seen in its direction, and ends strong branching once
    its sibling is solved too: that line is chosen, and the child is not
    returned.  Otherwise every fractional line is scored by
    max(gain down, eps) * max(gain up, eps), with solved gains where
    strong branching ran and pseudocost estimates elsewhere; ties go to
    the most fractional line, then to the lowest line id.

    Returns (k, children), the chosen index into ``int_cols`` and a list
    of (direction, child solution or None where the child was not solved),
    or None once ``out_of_time()`` holds before a strong-branching solve.
    A SimplexError of a solve propagates, with the bounds restored.
    """
    frac = np.abs(x_int - np.round(x_int))
    cands = [int(k) for k in np.argsort(-frac, kind="stable") if frac[k] > _INT_TOL]
    dist = (x_int.tolist(), (1.0 - x_int).tolist())  # the change in x down and up
    solved: dict[int, list] = {}
    unreliable = [k for k in cands if min(pseudo.count[0][k], pseudo.count[1][k]) < RELIABLE]
    for k in unreliable[:STRONG_CANDIDATES]:
        col = int_cols[k]
        bounds = lp.lo[col], lp.hi[col]
        children = []
        for d in (0, 1):
            if out_of_time():
                return None
            lp.set_bounds(col, float(d), float(d))
            stats.strong_branch_solves += 1
            try:
                child = _counted_solve(lp, stats, warm=sol.basis)
            finally:
                lp.set_bounds(col, *bounds)
            if child.status == "optimal" and not cut_off(child.obj):
                pseudo.observe(d, k, max(child.obj - sol.obj, 0.0) / dist[d][k])
                children.append((d, child))
            else:
                pseudo.observe(d, k, pseudo.largest[d])
        if len(children) < 2:
            return k, children
        solved[k] = [child for _, child in children]

    def gain(k, d):
        if k in solved:
            return solved[k][d].obj - sol.obj
        return pseudo.estimate(d, k) * dist[d][k]

    k = max(cands, key=lambda k: (max(gain(k, 0), _SCORE_EPS) * max(gain(k, 1), _SCORE_EPS),
                                  frac[k], -k))
    return k, list(enumerate(solved.get(k, (None, None))))


class _Node(NamedTuple):
    """An open node, its own heap entry: the unique counter ends every comparison."""

    bound: float
    counter: int
    branchings: tuple[tuple[int, int], ...]  # (index into int_cols, value), root first
    basis: object  # the lp.Basis its first solve starts from, or None
    parent_obj: float | None  # None at the root
    change: float | None  # the change in the last branched line's value; None at the root


def branch_and_bound(model: MilpModel, config: SolverConfig, lazy_source,
                     t0: float | None = None, stats: SolveStats | None = None) -> SolveResult:
    """Deterministic best-bound search over the binary line variables.

    The search works on one copy of ``model.lp``: each node sets on it
    the integer-column bounds that differ from the previous node's, and
    rows are appended to it in place, so they hold at every later node.
    Open nodes wait on a heap of ``_Node`` records.  A node loops: solve,
    prune, then either add rows and solve again, branch, or take the
    incumbent.  A fractional node at most ``TREE_DEPTH`` branchings deep
    gets up to ``TREE_ROUNDS`` rounds of rows from closed-form separation
    over ``lp_guided_cycles``; when those are spent or find nothing, it
    branches on the line that ``_reliability_branch`` chooses.  A child
    that strong branching solved enters the heap with its own objective
    as bound and its own basis as warm start, one that it proved
    infeasible or cut off is not pushed, and the rest start from their
    parent's.  Pseudocosts are observed by strong branching and by the
    first solve of every child that ends optimal.  An integral node
    passes through ``lazy_source``, and a returned cycle contributes its
    two big-M rows instead of an incumbent.

    Besides ``optimal-within-gap`` and ``infeasible``, the search ends
    early with ``unbounded`` when a node LP is unbounded (only the first
    can be: every later program restricts it), ``numerical-error`` when
    one fails, ``lazy-rows-stalled`` when an integral node is still cut
    off after ``10 * |L|`` rounds of lazy rows (rounds of tree cuts are
    not counted there), or a time-limit status.  The time limit is
    checked before each node, before each strong-branching solve, after
    each batch of rows, and after each node while nodes remain.  The
    first node's LP starts from ``model.warm``, if set.  LP solves and
    added rows are counted in ``stats`` (a new counter if None), which the
    result carries.  The result carries no angles, and ``cuts_added``
    counts the rows the search added.
    """
    start = time.monotonic() if t0 is None else t0
    stats = SolveStats() if stats is None else stats
    lp = model.lp.copy()
    vmap = model.vmap
    col_to_lid = {col: lid for lid, col in vmap.x.items()}
    int_cols = sorted(model.integer_cols, key=lambda c: col_to_lid[c])
    int_idx = np.array(int_cols, dtype=np.int64)
    pseudo = _Pseudocosts(len(int_cols))
    root_bounds = {c: (lp.lo[c], lp.hi[c]) for c in int_cols}
    overridden = {}  # the previous node's branchings: column -> (lo, hi)
    lazy_cap = 10 * max(1, len(model.net.lines))

    incumbent = None
    inc_obj = float("inf")
    nodes = cuts = counter = 0
    heap = [_Node(-float("inf"), counter, (), model.warm, None, None)]
    status = None
    best_bound = -float("inf")

    def time_limit_status():
        """The status to end with once past the time limit, else None."""
        if time.monotonic() - start <= config.time_limit_s:
            return None
        return "feasible-time-limit" if incumbent is not None else "infeasible-unknown"

    def pruned(bound: float) -> bool:
        return incumbent is not None and bound >= inc_obj - _GAP_EPS * (1.0 + abs(inc_obj))

    while heap and status is None:
        node = heapq.heappop(heap)
        best_bound = bound = node.bound
        if incumbent is not None and (_gap(inc_obj, bound) <= config.rel_gap or pruned(bound)):
            break
        status = time_limit_status()
        if status is not None:
            break

        node_bounds = {int_cols[k]: (float(d), float(d)) for k, d in node.branchings}
        for col in overridden.keys() | node_bounds.keys():
            lo, hi = node_bounds.get(col, root_bounds[col])
            if (lp.lo[col], lp.hi[col]) != (lo, hi):
                lp.set_bounds(col, lo, hi)
        overridden = node_bounds
        nodes += 1
        lazy_rounds = tree_rounds = 0
        warm, parent_obj = node.basis, node.parent_obj  # parent_obj: None after the first solve
        while status is None:
            try:
                sol = _counted_solve(lp, stats, warm=warm)
            except SimplexError:
                status = "numerical-error"
                break
            if parent_obj is not None and sol.status == "optimal":
                k, d = node.branchings[-1]
                pseudo.observe(d, k, max(sol.obj - parent_obj, 0.0) / node.change)
            parent_obj = None
            if sol.status == "unbounded":
                status = "unbounded"
                break
            if sol.status != "optimal" or pruned(sol.obj):
                break
            x_int = sol.x[int_idx]
            frac = np.abs(x_int - np.round(x_int))
            if frac.size and frac.max() > _INT_TOL:
                rows = []
                if len(node.branchings) <= TREE_DEPTH and tree_rounds < TREE_ROUNDS:
                    tree_rounds += 1
                    x_hat = {lid: sol.x[col] for lid, col in vmap.x.items()}
                    rows = SeparationTable(lp_guided_cycles(model.net, x_hat), vmap).rows(sol.x)
                    stats.tree_cuts += len(rows)
                if not rows:
                    try:
                        choice = _reliability_branch(lp, sol, int_cols, x_int, pseudo, pruned,
                                                     lambda: time_limit_status() is not None,
                                                     stats)
                    except SimplexError:
                        status = "numerical-error"
                        break
                    if choice is None:
                        status = time_limit_status()
                        break
                    k, children = choice
                    for d, child in children:
                        counter += 1
                        seed = sol if child is None else child
                        heapq.heappush(heap, _Node(seed.obj, counter, node.branchings + ((k, d),),
                                                   seed.basis, sol.obj, abs(d - float(x_int[k]))))
                    break
            else:
                x_hat = {lid: float(round(sol.x[col])) for lid, col in vmap.x.items()}
                f_hat = {lid: sol.x[col] for lid, col in vmap.flow.items()}
                cyc = lazy_source(x_hat, f_hat)
                if cyc is None:
                    if sol.obj < inc_obj:
                        if incumbent is None:
                            stats.first_incumbent_node = nodes
                            stats.first_incumbent_s = time.monotonic() - start
                        inc_obj = sol.obj
                        incumbent = sol
                    break
                lazy_rounds += 1
                if lazy_rounds > lazy_cap:
                    status = "lazy-rows-stalled"
                    break
                rows = cycle_cut_rows(cyc, vmap)
                stats.lazy_rows += len(rows)
            for row in rows:
                lp.add_row(*row)
            cuts += len(rows)
            warm = sol.basis
            status = time_limit_status()
        if status is None and heap:
            status = time_limit_status()

    if status is None:
        status = "infeasible" if incumbent is None else "optimal-within-gap"
        if not heap:
            best_bound = inc_obj  # search exhausted: the incumbent is the bound
    res = SolveResult(status=status, nodes=nodes, cuts_added=cuts, stats=stats)
    if incumbent is not None:
        res.x = {lid: float(round(incumbent.x[col])) for lid, col in vmap.x.items()}
        res.f = {lid: incumbent.x[col] for lid, col in vmap.flow.items()}
        res.p = {gi: incumbent.x[col] for gi, col in vmap.pg.items()}
        res.objective = inc_obj
        res.best_bound = min(best_bound, inc_obj)
        res.gap = max(0.0, _gap(inc_obj, res.best_bound))
    res.wall_time_s = time.monotonic() - start
    return res


def _cycles_for_mode(net: PowerNetwork, config: SolverConfig) -> tuple[Cycle, ...]:
    if config.cycle_mode == "default":
        return ()
    cs = cycle_basis(net)
    if config.cycle_mode == "more":
        for _ in range(config.expansion_k):
            cs = expand_cycle_set(cs)
    return cs


def solve_ots(net: PowerNetwork, config: SolverConfig | None = None,
              n_off: int | None = None) -> SolveResult:
    """Solve the switching problem end to end.

    Builds the cycle formulation, optionally caps the number of open
    lines at ``n_off``, strengthens the root per the cycle mode, appends
    the bus cover rows (the root's basis extends to them with their
    slacks basic), runs branch-and-bound with lazy KVL rows, and
    post-processes the incumbent into a connected topology with
    recovered angles.
    """
    if config is None:
        config = SolverConfig()
    t0 = time.monotonic()
    stats = SolveStats()
    model = build_ots_cycle(net)
    if n_off is not None:
        model = add_switching_budget(model, n_off)
    try:
        model, z_lp, z_cuts, n_cuts = strengthen_root(model, _cycles_for_mode(net, config),
                                                      config.strengthen_rounds,
                                                      deadline=t0 + config.time_limit_s,
                                                      stats=stats)
    except RootRelaxationError as err:
        status = "infeasible" if err.status == "infeasible" else "unbounded"
        return SolveResult(status=status, root_lp_values=(err.z_lp, None),
                           wall_time_s=time.monotonic() - t0, stats=stats)
    except SimplexError:
        return SolveResult(status="numerical-error", wall_time_s=time.monotonic() - t0,
                           stats=stats)
    covers = bus_cover_rows(model)
    stats.cover_rows = len(covers)
    model = replace(model, lp=add_rows(model.lp, covers))
    res = branch_and_bound(model, config, lambda x, f: lazy_kvl_check(net, x, f),
                           t0=t0, stats=stats)
    res.cuts_added += n_cuts
    res.root_lp_values = (z_lp, z_cuts)
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
