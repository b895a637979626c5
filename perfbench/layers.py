"""Which dcots calls the traced run wraps, and the per-layer metrics.

Each entry names the module whose attribute is replaced: the solver
imports its helpers by name, so ``dcots.solver.solve`` is the LP solve as
branch and bound sees it, while the root op of the benchmark calls
``dcots.formulations.build_ots_angle`` and ``dcots.cyclebasis`` itself.
Times and counts are per op of the traced replay; ratios are over the
whole replay.
"""

from __future__ import annotations

from collections import defaultdict

_rows = lambda res, a, k: res.lp.n_rows  # noqa: E731
_nodes = lambda res, a, k: res.nodes  # noqa: E731
_added = lambda res, a, k: res[3]  # noqa: E731
_length = lambda res, a, k: len(res)  # noqa: E731
_hit = lambda res, a, k: res is not None  # noqa: E731


def _lp(res, args, kwargs):
    warm = kwargs.get("warm", args[1] if len(args) > 1 else None)
    return (warm is not None, res.iterations)


WRAPS = [
    ("solver", "solve_ots", "solver.solve_ots", None),
    ("solver", "strengthen_root", "solver.root", _added),
    ("solver", "branch_and_bound", "solver.bnb", _nodes),
    ("solver", "lazy_kvl_check", "solver.kvl", _hit),
    ("solver", "repair_connected", "solver.repair", None),
    ("solver", "recover_angles", "solver.repair", None),
    ("solver", "build_ots_angle", "formulations.build", _rows),
    ("formulations", "build_ots_angle", "formulations.build", _rows),
    ("solver", "cycle_cut_rows", "formulations.cut_rows", None),
    ("solver", "cycle_basis", "cyclebasis.basis", None),
    ("cyclebasis", "cycle_basis", "cyclebasis.basis", None),
    ("solver", "expand_cycle_set", "cyclebasis.expand", None),
    ("cyclebasis", "expand_cycle_set", "cyclebasis.expand", None),
    ("solver", "cycle_of_chord", "cyclebasis.chord", None),
    ("solver", "solve", "lp.solve", _lp),
    ("solver", "add_rows", "lp.add_rows", None),
    ("solver", "separate_all", "cuts.separate", _length),
    ("solver", "make_context", "cuts.context", None),
    ("solver", "inequality_row", "cuts.row", None),
    ("oracle", "check_hull_equality", "oracle.hull", None),
    ("oracle", "check_facets", "oracle.facets", None),
    ("oracle", "check_projection_prop4", "oracle.projection", None),
    ("oracle", "brute_force_ots", "oracle.brute", None),
    ("oracle", "reduction_ots_feasible", "oracle.reduction", None),
    ("oracle", "linprog", "oracle.highs", None),
]

# metric name -> unit, in report order
UNITS = {
    "network.load_s": "s", "network.validate_s": "s",
    "formulations.build_s": "s", "formulations.lp_rows": "count",
    "cyclebasis.basis_s": "s", "cyclebasis.expand_s": "s", "cyclebasis.cycles": "count",
    "cyclebasis.chord_s": "s",
    "lp.calls": "count", "lp.warm_calls": "count", "lp.iterations": "count",
    "lp.solve_s": "s", "lp.ms_per_iter": "ms", "lp.add_rows_s": "s",
    "cuts.separate_calls": "count", "cuts.separate_s": "s", "cuts.emitted": "count",
    "cuts.added": "count", "cuts.yield": "ratio",
    "cuts.gap_closed_basic": "ratio", "cuts.gap_closed_more": "ratio",
    "solver.root_s": "s", "solver.bnb_self_s": "s", "solver.nodes": "count",
    "solver.kvl_calls": "count", "solver.kvl_s": "s", "solver.kvl_hit_ratio": "ratio",
    "solver.repair_s": "s",
    "oracle.hull_s": "s", "oracle.facets_s": "s", "oracle.projection_s": "s",
    "oracle.brute_s": "s", "oracle.reduction_s": "s", "oracle.highs_calls": "count",
    "oracle.highs_s": "s",
    "trace.overhead_frac": "ratio", "trace.accounted_frac": "ratio",
}

# layer metric prefix -> (end-to-end metrics it should move, on which workloads);
# the other workloads are the "no change" side
MOVES = {
    "network.": ("setup_s", ["bnb", "root", "oracle"]),
    "formulations.": ("op_s_p50, op_s_tail", ["root"]),
    "cyclebasis.chord_s": ("op_s_p50, op_s_tail", ["bnb"]),
    "cyclebasis.": ("op_s_p50, op_s_tail", ["root"]),
    "lp.": ("op_s_p50, op_s_tail, ops_per_s", ["bnb", "root"]),
    "cuts.": ("op_s_p50, op_s_tail, root_gap_closed", ["root"]),
    "solver.root_s": ("op_s_p50, op_s_tail", ["root"]),
    "solver.": ("op_s_p50, op_s_tail, ops_per_s", ["bnb"]),
    "oracle.": ("op_s_p50, op_s_tail, ops_per_s", ["oracle"]),
    "trace.": ("none: tracing cost and coverage", []),
}


def moves(metric: str):
    """The MOVES entry of a metric: its most specific matching prefix."""
    return MOVES[max((k for k in MOVES if metric.startswith(k)), key=len)]


def install(tracer, mods) -> None:
    for key, attr, name, extract in WRAPS:
        tracer.install(mods[key], attr, name, extract)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(tracer, untraced, traced, load_s, validate_s):
    """Per-layer metrics from the spans of the traced replay.

    ``untraced`` and ``traced`` are the two loops' records over the same
    op sequence; their time difference is the tracing overhead.
    """
    n = len(traced)
    self_s = tracer.self_times()
    total = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    for sp in tracer.spans:
        total[sp.name] += sp.end - sp.start
        calls[sp.name] += 1
        if sp.info is not None:
            info[sp.name].append(sp.info)
    per_op = lambda v: v / n  # noqa: E731
    lp_warm = sum(w for w, _ in info["lp.solve"])
    lp_iters = sum(it for _, it in info["lp.solve"])
    emitted = sum(info["cuts.separate"])
    added = sum(info["solver.root"])
    kvl_hits = sum(info["solver.kvl"])
    op_wall = total["op"]
    m = {
        "network.load_s": sum(load_s) / len(load_s),
        "network.validate_s": sum(validate_s) / len(validate_s),
        "formulations.build_s": per_op(self_s.get("formulations.build", 0.0)),
        "formulations.lp_rows": _ratio(sum(info["formulations.build"]),
                                       len(info["formulations.build"])),
        "cyclebasis.basis_s": per_op(self_s.get("cyclebasis.basis", 0.0)),
        "cyclebasis.expand_s": per_op(self_s.get("cyclebasis.expand", 0.0)),
        "cyclebasis.cycles": per_op(sum(out["cycles"] for _, _, out in traced
                                        if isinstance(out, dict) and "cycles" in out)),
        "cyclebasis.chord_s": per_op(self_s.get("cyclebasis.chord", 0.0)),
        "lp.calls": per_op(calls["lp.solve"]),
        "lp.warm_calls": per_op(lp_warm),
        "lp.iterations": per_op(lp_iters),
        "lp.solve_s": per_op(self_s.get("lp.solve", 0.0)),
        "lp.ms_per_iter": 1000.0 * _ratio(self_s.get("lp.solve", 0.0), lp_iters),
        "lp.add_rows_s": per_op(self_s.get("lp.add_rows", 0.0)),
        "cuts.separate_calls": per_op(calls["cuts.separate"]),
        "cuts.separate_s": per_op(sum(self_s.get(k, 0.0) for k in
                                      ("cuts.separate", "cuts.context", "cuts.row"))),
        "cuts.emitted": per_op(emitted),
        "cuts.added": per_op(added),
        "cuts.yield": _ratio(added, emitted),
        "solver.root_s": per_op(total["solver.root"]),
        "solver.bnb_self_s": per_op(self_s.get("solver.bnb", 0.0)),
        "solver.nodes": per_op(sum(info["solver.bnb"])),
        "solver.kvl_calls": per_op(calls["solver.kvl"]),
        "solver.kvl_s": per_op(self_s.get("solver.kvl", 0.0)),
        "solver.kvl_hit_ratio": _ratio(kvl_hits, calls["solver.kvl"]),
        "solver.repair_s": per_op(self_s.get("solver.repair", 0.0)),
        "oracle.hull_s": per_op(self_s.get("oracle.hull", 0.0)),
        "oracle.facets_s": per_op(self_s.get("oracle.facets", 0.0)),
        "oracle.projection_s": per_op(self_s.get("oracle.projection", 0.0)),
        "oracle.brute_s": per_op(self_s.get("oracle.brute", 0.0)),
        "oracle.reduction_s": per_op(self_s.get("oracle.reduction", 0.0)),
        "oracle.highs_calls": per_op(calls["oracle.highs"]),
        "oracle.highs_s": per_op(self_s.get("oracle.highs", 0.0)),
        "trace.overhead_frac": _ratio(sum(t for _, t, _ in traced),
                                      sum(t for _, t, _ in untraced)) - 1.0,
        # share of op wall time that falls inside some layer's span
        "trace.accounted_frac": _ratio(op_wall - self_s.get("op", 0.0), op_wall),
    }
    return {k: (m[k], UNITS[k]) for k in UNITS if k in m}
