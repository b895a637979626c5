"""LP and MILP formulations of dispatch and switching problems.

Four builders share a column layout of generator outputs, line flows,
optional bus angles, and optional on/off line variables:

* angle dispatch: flows tied to angle differences through susceptances;
* cycle dispatch: angles eliminated, one flow-sum row per basis cycle;
* angle switching: big-M relaxation of the angle rows plus on/off
  capacity links, binary line variables;
* cycle switching: balance and capacity links only; the solver searches
  it and adds two-sided big-M cycle rows only lazily, where violated.

``bus_cover_rows`` gives the switching models' cut-set covers on single
buses: a bus that cannot balance itself needs enough lines closed.

Angle big-M values follow the network's total capacity-over-susceptance
weight, which bounds every angle spread reachable by a connected
dispatch; a cycle row's big-M is the weight of its cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from dcots.cyclebasis import Cycle
from dcots.lp import Basis, LinearProgram
from dcots.network import PowerNetwork

__all__ = [
    "VariableMap",
    "MilpModel",
    "build_opf_angle",
    "build_opf_cycle",
    "build_ots_angle",
    "build_ots_cycle",
    "cycle_cut_rows",
    "add_switching_budget",
    "bus_cover_rows",
]

# relative slack on a bus's deficit in ``bus_cover_rows``; it can only
# lower a cover's right-hand side, so no row cuts off a topology whose
# dispatch is feasible within solver tolerances
_COVER_TOL = 1e-6


@dataclass(frozen=True)
class VariableMap:
    """Column indices for each family of model variables.

    ``pg`` is keyed by generator list index, ``flow`` and ``x`` by line
    id, ``theta`` by bus id; families absent from a model map to {}.
    """

    pg: dict[int, int]
    flow: dict[int, int]
    theta: dict[int, int]
    x: dict[int, int]


@dataclass
class MilpModel:
    """A built model: the LP relaxation plus integrality marks, and the
    basis a solve of the relaxation ended at, if one was kept: the next
    solve of ``lp`` starts from it."""

    lp: LinearProgram
    vmap: VariableMap
    integer_cols: tuple[int, ...]
    net: PowerNetwork
    warm: Basis | None = None


def _base_columns(lp: LinearProgram, net: PowerNetwork, with_theta: bool,
                  with_x: bool, theta_bound: float | None) -> VariableMap:
    pg = {i: lp.add_col(cost=g.cost, lo=g.p_min, hi=g.p_max)
          for i, g in enumerate(net.generators)}
    flow = {ln.id: lp.add_col(lo=-ln.capacity, hi=ln.capacity) for ln in net.lines}
    theta: dict[int, int] = {}
    if with_theta:
        bound = theta_bound if theta_bound is not None else float("inf")
        for b in net.buses:
            theta[b.id] = lp.add_col(lo=-bound, hi=bound)
        ref = min(theta)
        lp.set_bounds(theta[ref], 0.0, 0.0)
    x: dict[int, int] = {}
    if with_x:
        for ln in net.lines:
            lo = 0.0 if ln.switchable else 1.0
            x[ln.id] = lp.add_col(lo=lo, hi=1.0)
    return VariableMap(pg, flow, theta, x)


def _balance_rows(lp: LinearProgram, net: PowerNetwork, vmap: VariableMap) -> None:
    gens_at: dict[int, list[int]] = {}
    for i, g in enumerate(net.generators):
        gens_at.setdefault(g.bus, []).append(i)
    for b in net.buses:
        coeffs = [(vmap.pg[i], 1.0) for i in gens_at.get(b.id, ())]
        coeffs += [(vmap.flow[ln.id], -1.0 if ln.from_bus == b.id else 1.0)
                   for ln in net.incident[b.id]]
        lp.add_row(coeffs, "==", b.load)


def build_opf_angle(net: PowerNetwork) -> tuple[LinearProgram, VariableMap]:
    """Angle-based dispatch LP.

    Minimizes generation cost subject to bus balance, flows equal to
    susceptance times angle difference, and thermal limits; the
    lowest-indexed bus is the angle reference.
    """
    lp = LinearProgram()
    vmap = _base_columns(lp, net, with_theta=True, with_x=False, theta_bound=None)
    _balance_rows(lp, net, vmap)
    for ln in net.lines:
        lp.add_row([
            (vmap.flow[ln.id], 1.0),
            (vmap.theta[ln.from_bus], -ln.susceptance),
            (vmap.theta[ln.to_bus], ln.susceptance),
        ], "==", 0.0)
    return lp, vmap


def build_opf_cycle(net: PowerNetwork,
                    cycles: tuple[Cycle, ...]) -> tuple[LinearProgram, VariableMap]:
    """Cycle-based dispatch LP: angles replaced by per-cycle flow sums.

    Equivalent to the angle LP when ``cycles`` is a cycle basis of the
    network: around each basis cycle the signed flows over susceptance
    must cancel.
    """
    lp = LinearProgram()
    vmap = _base_columns(lp, net, with_theta=False, with_x=False, theta_bound=None)
    _balance_rows(lp, net, vmap)
    for cyc in cycles:
        coeffs = [(vmap.flow[ln.id], s / ln.susceptance) for ln, s in cyc.members]
        lp.add_row(coeffs, "==", 0.0)
    return lp, vmap


def build_ots_angle(net: PowerNetwork) -> MilpModel:
    """Angle-based switching MILP with big-M deactivation.

    Open lines carry no flow; closed lines obey the angle rows.  With the
    lowest-indexed bus fixed at zero, every angle of a connected active
    topology lies in [-Theta, Theta], Theta the sum of capacity over
    susceptance over all lines, and a line's M = 2 B Theta + capacity
    covers the largest angle difference its relaxed rows must absorb, so
    the big-M rows are valid for every on/off pattern.
    """
    theta = sum(ln.w for ln in net.lines)
    lp = LinearProgram()
    vmap = _base_columns(lp, net, with_theta=True, with_x=True, theta_bound=theta)
    _balance_rows(lp, net, vmap)
    for ln in net.lines:
        m = 2.0 * ln.susceptance * theta + ln.capacity
        fcol, xcol = vmap.flow[ln.id], vmap.x[ln.id]
        ohm = [(fcol, 1.0), (vmap.theta[ln.from_bus], -ln.susceptance),
               (vmap.theta[ln.to_bus], ln.susceptance)]
        lp.add_row(ohm + [(xcol, m)], "<=", m)
        lp.add_row(ohm + [(xcol, -m)], ">=", -m)
        lp.add_row([(fcol, 1.0), (xcol, -ln.capacity)], "<=", 0.0)
        lp.add_row([(fcol, 1.0), (xcol, ln.capacity)], ">=", 0.0)
    integer = tuple(vmap.x[ln.id] for ln in net.lines if ln.switchable)
    return MilpModel(lp, vmap, integer, net)


def build_ots_cycle(net: PowerNetwork) -> MilpModel:
    """Angle-free switching MILP.

    Carries only balance and on/off capacity links; flow consistency
    around cycles comes from two-sided big-M cycle rows (``cycle_cut_rows``)
    that the solver adds lazily wherever a cycle is violated.
    """
    lp = LinearProgram()
    vmap = _base_columns(lp, net, with_theta=False, with_x=True, theta_bound=None)
    _balance_rows(lp, net, vmap)
    for ln in net.lines:
        fcol, xcol = vmap.flow[ln.id], vmap.x[ln.id]
        lp.add_row([(fcol, 1.0), (xcol, -ln.capacity)], "<=", 0.0)
        lp.add_row([(fcol, 1.0), (xcol, ln.capacity)], ">=", 0.0)
    return MilpModel(lp, vmap, tuple(vmap.x[ln.id] for ln in net.lines if ln.switchable),
                     net)


def cycle_cut_rows(cycle: Cycle, vmap: VariableMap):
    """Two big-M rows forcing a cycle's flow sum toward zero.

    With every line of the cycle closed the signed flows over
    susceptance must cancel exactly; each open line relaxes the pair by
    the cycle weight, its big-M.
    """
    m = cycle.weight
    k = len(cycle.members)
    fpart = [(vmap.flow[ln.id], s / ln.susceptance) for ln, s in cycle.members]
    xpart_up = [(vmap.x[ln.id], m) for ln, _ in cycle.members]
    xpart_dn = [(vmap.x[ln.id], -m) for ln, _ in cycle.members]
    return [
        (fpart + xpart_up, "<=", m * k),
        (fpart + xpart_dn, ">=", -m * k),
    ]


def add_switching_budget(model: MilpModel, n_off: int) -> MilpModel:
    """Append a row keeping at least |L| - n_off lines closed."""
    if n_off < 0:
        raise ValueError(f"the switching budget must be nonnegative, got {n_off}")
    lp = model.lp.copy()
    coeffs = [(col, 1.0) for col in model.vmap.x.values()]
    lp.add_row(coeffs, ">=", float(len(model.net.lines) - n_off))
    return replace(model, lp=lp)


def bus_cover_rows(model: MilpModel):
    """Cover rows sum_{a at b} x_a >= k(b) for buses that cannot balance
    themselves.

    A bus b whose load exceeds its generators' total p_max must import
    the deficit over its lines, and one whose generators' total p_min
    exceeds its load must export the surplus.  Since |f_a| <= cap_a x_a,
    at least k(b) of its lines are closed, k(b) the fewest of their
    capacities whose sum reaches the deficit less ``_COVER_TOL`` times
    (1 + deficit).  A row is kept only when k(b) exceeds the number of
    b's non-switchable lines by 2 or more; a bus whose lines cannot carry
    the deficit at all gets none, as the relaxation is then infeasible
    already.  Each bus reads its lines from ``net.incident`` and sorts
    only their capacities.
    """
    net = model.net
    supply = {b.id: [0.0, 0.0] for b in net.buses}  # bus -> [sum p_min, sum p_max]
    for g in net.generators:
        supply[g.bus][0] += g.p_min
        supply[g.bus][1] += g.p_max
    rows = []
    for b in net.buses:
        p_min, p_max = supply[b.id]
        deficit = max(b.load - p_max, p_min - b.load)
        need = deficit - _COVER_TOL * (1.0 + deficit)
        if need <= 0.0:
            continue
        lines = net.incident[b.id]
        k, reach = 0, 0.0
        for cap in sorted((ln.capacity for ln in lines), reverse=True):
            if reach >= need:
                break
            k, reach = k + 1, reach + cap
        fixed = sum(not ln.switchable for ln in lines)
        if reach >= need and k - fixed >= 2:
            rows.append(([(model.vmap.x[ln.id], 1.0) for ln in lines], ">=", float(k)))
    return rows
