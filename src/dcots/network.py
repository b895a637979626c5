"""Power network model, file formats, and instance generation recipes.

A network is a multigraph of buses and lines plus a generator set.  All
mathematical modules read per-unit quantities; the dataclasses also retain
the raw MW-denominated numbers so that writing a network back to disk and
re-reading it reproduces the per-unit values bit for bit.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Bus",
    "Generator",
    "Line",
    "PowerNetwork",
    "ValidationReport",
    "build_network",
    "parse_native",
    "parse_matpower",
    "serialize_native",
    "validate",
    "union_find",
    "perturb_loads",
    "augment_with_cycle",
    "relocate_generators",
    "random_connected_network",
]


@dataclass(frozen=True)
class Bus:
    """A bus with its active power demand.

    Attributes
    ----------
    id : int
        Unique bus identifier.
    load : float
        Active power demand in per-unit.
    load_mw : float
        The same demand in MW, as written in instance files.
    """

    id: int
    load: float
    load_mw: float


@dataclass(frozen=True)
class Generator:
    """A dispatchable generator attached to one bus.

    Attributes
    ----------
    bus : int
        Bus the generator injects at.
    p_min, p_max : float
        Output bounds in per-unit, 0 <= p_min <= p_max.
    cost : float
        Linear cost per per-unit output; equals cost_per_mwh * base_mva,
        so objective values come out in currency units.
    """

    bus: int
    p_min: float
    p_max: float
    cost: float
    pmin_mw: float
    pmax_mw: float
    cost_per_mwh: float


@dataclass(frozen=True)
class Line:
    """A transmission line between two buses.

    Attributes
    ----------
    id : int
        Unique line identifier.
    from_bus, to_bus : int
        Endpoints; flow is signed positive from ``from_bus`` to ``to_bus``.
    susceptance : float
        Per-unit susceptance, > 0.
    capacity : float
        Per-unit thermal limit on |flow|, > 0.
    switchable : bool
        Whether the solver may open this line.
    """

    id: int
    from_bus: int
    to_bus: int
    susceptance: float
    capacity: float
    capacity_mw: float
    switchable: bool

    @property
    def w(self) -> float:
        """Capacity over susceptance; the line's weight in cycle arithmetic."""
        return self.capacity / self.susceptance


@dataclass(frozen=True)
class PowerNetwork:
    """An immutable network instance.

    Buses, generators, and lines are kept in the order they were defined;
    line order is the column/row order used by every matrix built from the
    network.
    """

    base_mva: float
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    lines: tuple[Line, ...]

    def total_load(self) -> float:
        return sum(b.load for b in self.buses)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def build_network(buses, generators, lines, base_mva: float = 1.0) -> PowerNetwork:
    """Construct a network from per-unit tuples.

    Parameters
    ----------
    buses : iterable of (id, load)
    generators : iterable of (bus, p_min, p_max, cost)
    lines : iterable of (id, from, to, susceptance, capacity) or the same
        with a trailing ``switchable`` flag (default True).
    base_mva : float
        MVA base; with the default of 1.0 the stored MW numbers equal the
        per-unit numbers exactly.

    Returns
    -------
    PowerNetwork
    """
    b = tuple(Bus(int(i), float(d), float(d) * base_mva) for i, d in buses)
    g = tuple(
        Generator(int(i), float(lo), float(hi), float(c),
                  float(lo) * base_mva, float(hi) * base_mva, float(c) / base_mva)
        for i, lo, hi, c in generators
    )
    ls = []
    for row in lines:
        if len(row) == 5:
            lid, u, v, sus, cap = row
            sw = True
        else:
            lid, u, v, sus, cap, sw = row
        ls.append(Line(int(lid), int(u), int(v), float(sus), float(cap),
                       float(cap) * base_mva, bool(sw)))
    return PowerNetwork(float(base_mva), b, g, tuple(ls))


# ---------------------------------------------------------------------------
# native JSON format

_BUS_KEYS = {"id", "load_mw"}
_GEN_KEYS = {"bus", "pmin_mw", "pmax_mw", "cost_per_mwh"}
_LINE_KEYS = {"id", "from", "to", "susceptance_pu", "capacity_mw", "switchable"}


def _check_keys(obj: dict, wanted: set, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected an object, got {type(obj).__name__}")
    missing = wanted - obj.keys()
    extra = obj.keys() - wanted
    if missing:
        raise ValueError(f"{what}: missing keys {sorted(missing)}")
    if extra:
        raise ValueError(f"{what}: unknown keys {sorted(extra)}")


_NUMBER = (int, float)


def _typed(obj: dict, key: str, what: str, kind):
    """``obj[key]`` if its JSON type is exactly ``kind``: int, bool, or
    ``_NUMBER`` (an int or a float, never a bool).  ``int()``, ``float()``
    and ``bool()`` would turn a fraction, a string or a flag into some
    other valid value."""
    if type(obj[key]) not in (kind if isinstance(kind, tuple) else (kind,)):
        name = "a number" if kind == _NUMBER else kind.__name__
        raise ValueError(f"{what}: {key} must be {name}, got {obj[key]!r}")
    return obj[key]


def _number(obj: dict, key: str, what: str) -> float:
    """``obj[key]`` as a float, if it is a JSON number."""
    value = _typed(obj, key, what, _NUMBER)
    try:
        return float(value)
    except OverflowError:  # an integer literal of hundreds of digits
        raise ValueError(f"{what}: {key} is too large for a float") from None


def _list_at(doc: dict, key: str) -> list:
    if not isinstance(doc[key], list):
        raise ValueError(f"{key}: expected a list, got {type(doc[key]).__name__}")
    return doc[key]


def parse_native(doc: str | dict) -> PowerNetwork:
    """Parse the native JSON network format.

    Parameters
    ----------
    doc : str or dict
        JSON text or an already-decoded document with keys ``base_mva``,
        ``buses``, ``generators``, ``lines``.

    Returns
    -------
    PowerNetwork

    Raises
    ------
    ValueError
        On a value of the wrong JSON type (an id, bus or line end that is
        not an integer, a ``switchable`` that is not a boolean, a numeric
        field that is a string, a boolean or null) or missing/unknown
        keys, naming the offending element.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    _check_keys(doc, {"base_mva", "buses", "generators", "lines"}, "document")
    base = _number(doc, "base_mva", "document")
    if not (base > 0 and math.isfinite(base)):
        raise ValueError(f"base_mva must be positive and finite, got {doc['base_mva']!r}")
    buses = []
    for i, b in enumerate(_list_at(doc, "buses")):
        what = f"buses[{i}]"
        _check_keys(b, _BUS_KEYS, what)
        bid, load = _typed(b, "id", what, int), _number(b, "load_mw", what)
        buses.append(Bus(bid, load / base, load))
    gens = []
    for i, g in enumerate(_list_at(doc, "generators")):
        what = f"generators[{i}]"
        _check_keys(g, _GEN_KEYS, what)
        bus = _typed(g, "bus", what, int)
        lo, hi, cost = (_number(g, key, what) for key in ("pmin_mw", "pmax_mw", "cost_per_mwh"))
        gens.append(Generator(bus, lo / base, hi / base, cost * base, lo, hi, cost))
    lines = []
    for i, ln in enumerate(_list_at(doc, "lines")):
        what = f"lines[{i}]"
        _check_keys(ln, _LINE_KEYS, what)
        lid, u, v = (_typed(ln, key, what, int) for key in ("id", "from", "to"))
        sus, cap = (_number(ln, key, what) for key in ("susceptance_pu", "capacity_mw"))
        lines.append(Line(lid, u, v, sus, cap / base, cap, _typed(ln, "switchable", what, bool)))
    return PowerNetwork(base, tuple(buses), tuple(gens), tuple(lines))


def serialize_native(net: PowerNetwork) -> str:
    """Serialize to the native JSON format.

    Writes the stored MW-denominated numbers, so
    ``parse_native(serialize_native(net))`` reproduces ``net`` exactly for
    any network that itself came from a file (and for any network built
    with ``base_mva == 1``).
    """
    doc = {
        "base_mva": net.base_mva,
        "buses": [{"id": b.id, "load_mw": b.load_mw} for b in net.buses],
        "generators": [
            {"bus": g.bus, "pmin_mw": g.pmin_mw, "pmax_mw": g.pmax_mw,
             "cost_per_mwh": g.cost_per_mwh}
            for g in net.generators
        ],
        "lines": [
            {"id": ln.id, "from": ln.from_bus, "to": ln.to_bus,
             "susceptance_pu": ln.susceptance, "capacity_mw": ln.capacity_mw,
             "switchable": ln.switchable}
            for ln in net.lines
        ],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# MATPOWER subset

def _matpower_matrix(text: str, name: str) -> list[list[float]] | None:
    m = re.search(rf"mpc\.{name}\s*=\s*\[(.*?)\];", text, re.S)
    if m is None:
        return None
    rows = []
    for chunk in re.split(r"[;\n]", m.group(1)):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append([float(tok) for tok in chunk.replace(",", " ").split()])
    return rows


def _need_columns(name: str, i: int, row: list[float], need: int) -> None:
    if len(row) < need:
        raise ValueError(f"{name}[{i}]: needs at least {need} columns, got {len(row)}")


def parse_matpower(text: str) -> PowerNetwork:
    """Parse the supported subset of a MATPOWER case file.

    Reads ``mpc.baseMVA``, ``mpc.bus`` (BUS_I, PD), ``mpc.gen`` (GEN_BUS,
    GEN_STATUS, PMAX, PMIN), ``mpc.branch`` (F_BUS, T_BUS, BR_X, RATE_A,
    TAP, SHIFT, BR_STATUS) and, when present, linear ``mpc.gencost`` rows.
    Out-of-service generators (GEN_STATUS <= 0) are dropped with their
    gencost rows, and out-of-service branches are dropped.  Susceptance is
    1/BR_X, or 1/(BR_X * TAP) for a transformer with TAP != 0, as in
    MATPOWER's ``makeBdc``; capacities are RATE_A / baseMVA, and every kept
    branch is switchable.  Line ids are assigned 0.. in file order of the
    kept branches.

    Raises
    ------
    ValueError
        On missing tables, a row with too few columns (bus 3, gen 10,
        branch 11, gencost 4 + NCOST), non-positive reactance, zero RATE_A,
        a nonzero phase shift (SHIFT), or genuinely quadratic cost rows.
    """
    text = re.sub(r"%.*", "", text)
    base_m = re.search(r"mpc\.baseMVA\s*=\s*([0-9eE.+-]+)\s*;", text)
    if base_m is None:
        raise ValueError("missing mpc.baseMVA")
    base = float(base_m.group(1))
    bus_rows = _matpower_matrix(text, "bus")
    gen_rows = _matpower_matrix(text, "gen")
    branch_rows = _matpower_matrix(text, "branch")
    if bus_rows is None or gen_rows is None or branch_rows is None:
        raise ValueError("missing one of mpc.bus / mpc.gen / mpc.branch")
    cost_rows = _matpower_matrix(text, "gencost")

    for name, rows, need in (("bus", bus_rows, 3), ("gen", gen_rows, 10),
                             ("branch", branch_rows, 11)):
        for i, r in enumerate(rows):
            _need_columns(name, i, r, need)
    buses = [Bus(int(r[0]), r[2] / base, r[2]) for r in bus_rows]

    in_service = [i for i, r in enumerate(gen_rows) if r[7] > 0]
    costs = dict.fromkeys(in_service, 0.0)
    if cost_rows is not None:
        if len(cost_rows) < len(gen_rows):
            raise ValueError("gencost has fewer rows than gen")
        for i in [*in_service, *range(len(gen_rows), len(cost_rows))]:
            r = cost_rows[i]
            _need_columns("gencost", i, r, 4)
            model, ncost = int(r[0]), int(r[3])
            _need_columns("gencost", i, r, 4 + ncost)
            if model != 2:
                raise ValueError(f"gencost[{i}]: only polynomial cost (MODEL=2) supported")
            coeffs = r[4:4 + ncost]  # highest degree first
            if any(abs(c) > 0 for c in coeffs[:-2]):
                raise ValueError(f"gencost[{i}]: cost is not linear")
            costs[i] = coeffs[-2] if ncost >= 2 else 0.0

    gens = []
    for i in in_service:
        r = gen_rows[i]
        gbus, pmax, pmin = int(r[0]), r[8], r[9]
        gens.append(Generator(gbus, pmin / base, pmax / base, costs[i] * base,
                              pmin, pmax, costs[i]))

    lines = []
    lid = 0
    for i, r in enumerate(branch_rows):
        fbus, tbus, x, rate_a = int(r[0]), int(r[1]), r[3], r[5]
        tap, shift, status = r[8], r[9], int(r[10])
        if status == 0:
            continue
        if x <= 0:
            raise ValueError(f"branch[{i}]: BR_X must be positive, got {x}")
        if rate_a == 0:
            raise ValueError(f"branch[{i}]: RATE_A of 0 (unlimited) is not supported")
        if shift != 0:
            raise ValueError(f"branch[{i}]: phase shift SHIFT={shift} is not supported")
        lines.append(Line(lid, fbus, tbus, 1.0 / (x * tap if tap != 0 else x),
                          rate_a / base, rate_a, True))
        lid += 1

    return PowerNetwork(base, tuple(buses), tuple(gens), tuple(lines))


# ---------------------------------------------------------------------------
# graph helpers and validation


def union_find(bus_ids):
    """Disjoint sets over ``bus_ids`` as a ``(find, union)`` pair.

    ``union(u, v)`` merges the two components and returns False when they
    were already one; each component's root is its smallest id.
    """
    parent = {b: b for b in bus_ids}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[max(ru, rv)] = min(ru, rv)
        return True

    return find, union


def _neighbours(net: PowerNetwork) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {b.id: set() for b in net.buses}
    for ln in net.lines:
        adj.setdefault(ln.from_bus, set()).add(ln.to_bus)
        adj.setdefault(ln.to_bus, set()).add(ln.from_bus)
    return adj

def _duplicates(ids) -> list[int]:
    return sorted(i for i, k in Counter(ids).items() if k > 1)


def validate(net: PowerNetwork) -> ValidationReport:
    """Check structural soundness of a network.

    Verifies unique ids, existing endpoints, no self-loops, positive
    susceptances and capacities, generator bus references, ordered
    generator bounds, finite generator costs, and connectivity.

    Returns
    -------
    ValidationReport
        ``ok`` is True iff no problems were found; ``problems`` lists one
        message per offence.
    """
    problems: list[str] = []
    if not (net.base_mva > 0 and math.isfinite(net.base_mva)):
        problems.append(f"base_mva not positive/finite: {net.base_mva}")
    if dup := _duplicates(b.id for b in net.buses):
        problems.append(f"duplicate bus ids: {dup}")
    id_set = {b.id for b in net.buses}
    for b in net.buses:
        if not math.isfinite(b.load):
            problems.append(f"bus {b.id}: non-finite load")
    if dup := _duplicates(ln.id for ln in net.lines):
        problems.append(f"duplicate line ids: {dup}")
    for ln in net.lines:
        if ln.from_bus not in id_set or ln.to_bus not in id_set:
            problems.append(f"line {ln.id}: endpoint not a bus "
                            f"({ln.from_bus}, {ln.to_bus})")
        if ln.from_bus == ln.to_bus:
            problems.append(f"line {ln.id}: self-loop at bus {ln.from_bus}")
        if not (ln.susceptance > 0 and math.isfinite(ln.susceptance)):
            problems.append(f"line {ln.id}: susceptance must be positive, "
                            f"got {ln.susceptance}")
        if not (ln.capacity > 0 and math.isfinite(ln.capacity)):
            problems.append(f"line {ln.id}: capacity must be positive, "
                            f"got {ln.capacity}")
    for g in net.generators:
        if g.bus not in id_set:
            problems.append(f"generator at unknown bus {g.bus}")
        if not (0 <= g.p_min <= g.p_max):
            problems.append(f"generator at bus {g.bus}: "
                            f"need 0 <= p_min <= p_max, got [{g.p_min}, {g.p_max}]")
        if not math.isfinite(g.cost):
            problems.append(f"generator at bus {g.bus}: cost must be finite, got {g.cost}")
    if net.buses and not problems:
        find, union = union_find(id_set)
        for ln in net.lines:
            union(ln.from_bus, ln.to_bus)
        if (k := len({find(b) for b in id_set})) > 1:
            problems.append(f"network is not connected ({k} components)")
    return ValidationReport(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# instance generation recipes

def perturb_loads(net: PowerNetwork, low: int, high: int, seed: int) -> PowerNetwork:
    """Add an integer MW draw from [low, high] to every bus load.

    Draws one integer per bus, in bus order, from a generator seeded with
    ``seed``; per-unit loads are recomputed from the perturbed MW values.
    """
    rng = np.random.default_rng(seed)
    buses = []
    for b in net.buses:
        mw = b.load_mw + int(rng.integers(low, high + 1))
        buses.append(Bus(b.id, mw / net.base_mva, mw))
    return replace(net, buses=tuple(buses))


def augment_with_cycle(net: PowerNetwork, cycle_len: int, n_lines: int,
                       seed: int) -> PowerNetwork:
    """Add lines that each close a cycle of ``cycle_len`` lines.

    Each new line joins the endpoints of a simple path of ``cycle_len - 1``
    existing lines, found by up to 5000 seeded random walks; it gets
    capacity equal to 30% of the smallest existing capacity, susceptance
    copied from a uniformly chosen existing line, and the next free id.

    Raises
    ------
    ValueError
        If ``cycle_len`` is below 2, or if no walk finds a path of the
        requested length (the search is not exhaustive, so a closable
        cycle that the walks miss is also reported this way).
    """
    if cycle_len < 2:
        raise ValueError("cycle_len must be at least 2")
    rng = np.random.default_rng(seed)
    cur = net
    for _ in range(n_lines):
        adj = _neighbours(cur)
        nodes = sorted(adj)
        for _attempt in range(5000):
            path = [nodes[rng.integers(len(nodes))]]
            while len(path) < cycle_len:
                nbrs = sorted(v for v in adj[path[-1]] if v not in path)
                if not nbrs:
                    break  # dead end: start a new walk
                path.append(nbrs[rng.integers(len(nbrs))])
            else:
                break  # the walk reached cycle_len buses
        else:
            raise ValueError(f"no cycle of length {cycle_len} found in 5000 random walks")
        pair = (path[0], path[-1])
        cap_mw = 0.30 * min(ln.capacity_mw for ln in cur.lines)
        donor = cur.lines[rng.integers(len(cur.lines))]
        new = Line(max(ln.id for ln in cur.lines) + 1, pair[0], pair[1],
                   donor.susceptance, cap_mw / cur.base_mva, cap_mw, True)
        cur = replace(cur, lines=cur.lines + (new,))
    return cur


def random_connected_network(seed: int, n_buses: int | None = None,
                             max_buses: int = 8, max_extra_lines: int = 2,
                             switchable: bool = True) -> PowerNetwork:
    """Sample a small connected test network, deterministically per seed.

    Buses carry uniform loads; a spanning tree plus a few extra lines
    (possibly parallel, so the graph is a proper multigraph) carry
    uniform susceptances and capacities.  A wide-range cheap generator
    at bus 0 and a pricier one at the last bus make most draws
    dispatchable while leaving congestion to the line caps.
    """
    rng = np.random.default_rng(seed)
    if n_buses is None:
        n_buses = int(rng.integers(3, max_buses + 1))
    buses = [(i, float(np.round(rng.uniform(0.0, 1.0), 3))) for i in range(n_buses)]
    total = sum(load for _, load in buses)
    gens = [(0, 0.0, total + 1.0, 1.0),
            (n_buses - 1, 0.0, total + 1.0, float(np.round(rng.uniform(2, 6), 3)))]
    lines = []
    order = rng.permutation(n_buses)
    for k in range(1, n_buses):
        u = int(order[k])
        v = int(order[int(rng.integers(0, k))])
        lines.append((len(lines), u, v,
                      float(np.round(rng.uniform(0.5, 3.0), 3)),
                      float(np.round(rng.uniform(0.4, 1.6), 3)),
                      switchable))
    for _ in range(int(rng.integers(1, max_extra_lines + 1))):
        u, v = rng.choice(n_buses, size=2, replace=False)
        lines.append((len(lines), int(u), int(v),
                      float(np.round(rng.uniform(0.5, 3.0), 3)),
                      float(np.round(rng.uniform(0.4, 1.6), 3)),
                      switchable))
    return build_network(buses, gens, lines)


def relocate_generators(net: PowerNetwork, seed: int) -> PowerNetwork:
    """Move the generators of each bus to that bus or a uniformly chosen neighbor.

    Generators that share a bus move as one unit.  Units are processed in
    order of their first generator; each picks uniformly from {stay} union
    neighboring buses and re-draws while the pick collides with another
    unit's current position, so units stay on distinct buses.
    """
    rng = np.random.default_rng(seed)
    adj = _neighbours(net)
    positions = {gen.bus: gen.bus for gen in net.generators}  # unit -> bus
    for unit in positions:
        options = [unit] + sorted(adj[unit])
        others = {pos for u, pos in positions.items() if u != unit}
        for _attempt in range(1000):
            pick = options[rng.integers(len(options))]
            if pick not in others:
                positions[unit] = pick
                break
        else:
            raise ValueError(f"no free bus for generators at {unit}")
    gens = tuple(replace(gen, bus=positions[gen.bus]) for gen in net.generators)
    return replace(net, generators=gens)
