"""LP and MILP formulations of dispatch and switching problems.

Four builders share a column layout of generator outputs, line flows,
optional bus angles, and optional on/off line variables:

* angle dispatch: flows tied to angle differences through susceptances;
* cycle dispatch: angles eliminated, one flow-sum row per basis cycle;
* angle switching: big-M relaxation of the angle rows plus on/off
  capacity links, binary line variables;
* cycle switching: balance and capacity links only, with two-sided
  big-M cycle rows supplied eagerly or lazily; the solver searches it.

Angle big-M values follow the network's total capacity-over-susceptance
weight, which bounds every angle spread reachable by a connected
dispatch; a cycle row's big-M is the weight of its cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from dcots.cyclebasis import Cycle, CycleSet
from dcots.lp import Basis, LinearProgram
from dcots.network import PowerNetwork

__all__ = [
    "VariableMap",
    "BigMConfig",
    "MilpModel",
    "compute_big_m",
    "cycle_big_m",
    "build_opf_angle",
    "build_opf_cycle",
    "build_ots_angle",
    "build_ots_cycle",
    "cycle_cut_rows",
    "add_switching_budget",
]


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


@dataclass(frozen=True)
class BigMConfig:
    """Big-M data for the switching formulations.

    ``theta_bound`` bounds every angle from the reference bus; the
    per-line constants deactivate the angle rows of open lines.
    """

    theta_bound: float
    m_line: dict[int, float]  # line id -> M


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


def compute_big_m(net: PowerNetwork) -> BigMConfig:
    """Big-M constants from the total capacity/susceptance weight.

    With one bus fixed at angle zero, any angle in a connected active
    topology is bounded by Theta = sum of capacity/susceptance over all
    lines; a line's constant 2 B Theta + capacity then covers the largest
    possible angle difference its relaxed rows must absorb.
    """
    theta = sum(ln.w for ln in net.lines)
    return BigMConfig(theta, {ln.id: 2.0 * ln.susceptance * theta + ln.capacity
                              for ln in net.lines})


def cycle_big_m(cycle: Cycle) -> float:
    """Big-M for a cycle's flow-sum rows: the cycle weight itself."""
    return cycle.weight


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
        for ln in net.lines:
            if ln.from_bus == b.id:
                coeffs.append((vmap.flow[ln.id], -1.0))
            elif ln.to_bus == b.id:
                coeffs.append((vmap.flow[ln.id], 1.0))
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


def build_opf_cycle(net: PowerNetwork, cycles: CycleSet) -> tuple[LinearProgram, VariableMap]:
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

    Open lines carry no flow; closed lines obey the angle rows.  Angles
    live in [-Theta, Theta] with the lowest-indexed bus fixed at zero,
    which keeps the big-M rows valid for every on/off pattern.
    """
    bigm = compute_big_m(net)
    lp = LinearProgram()
    vmap = _base_columns(lp, net, with_theta=True, with_x=True,
                         theta_bound=bigm.theta_bound)
    _balance_rows(lp, net, vmap)
    for ln in net.lines:
        m = bigm.m_line[ln.id]
        fcol, xcol = vmap.flow[ln.id], vmap.x[ln.id]
        ohm = [(fcol, 1.0), (vmap.theta[ln.from_bus], -ln.susceptance),
               (vmap.theta[ln.to_bus], ln.susceptance)]
        lp.add_row(ohm + [(xcol, m)], "<=", m)
        lp.add_row(ohm + [(xcol, -m)], ">=", -m)
        lp.add_row([(fcol, 1.0), (xcol, -ln.capacity)], "<=", 0.0)
        lp.add_row([(fcol, 1.0), (xcol, ln.capacity)], ">=", 0.0)
    integer = tuple(vmap.x[ln.id] for ln in net.lines if ln.switchable)
    return MilpModel(lp, vmap, integer, net)


def build_ots_cycle(net: PowerNetwork, cycles: CycleSet = CycleSet()) -> MilpModel:
    """Angle-free switching MILP.

    Carries only balance and on/off capacity links; flow consistency
    around cycles comes from two-sided big-M cycle rows, added here for
    ``cycles`` and lazily by the solver for whatever else is violated.
    """
    lp = LinearProgram()
    vmap = _base_columns(lp, net, with_theta=False, with_x=True, theta_bound=None)
    _balance_rows(lp, net, vmap)
    for ln in net.lines:
        fcol, xcol = vmap.flow[ln.id], vmap.x[ln.id]
        lp.add_row([(fcol, 1.0), (xcol, -ln.capacity)], "<=", 0.0)
        lp.add_row([(fcol, 1.0), (xcol, ln.capacity)], ">=", 0.0)
    model = MilpModel(lp, vmap, tuple(vmap.x[ln.id] for ln in net.lines if ln.switchable),
                      net)
    for cyc in cycles:
        for row in cycle_cut_rows(cyc, vmap):
            lp.add_row(*row)
    return model


def cycle_cut_rows(cycle: Cycle, vmap: VariableMap):
    """Two big-M rows forcing a cycle's flow sum toward zero.

    With every line of the cycle closed the signed flows over
    susceptance must cancel exactly; each open line relaxes the pair by
    the cycle weight.
    """
    m = cycle_big_m(cycle)
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

