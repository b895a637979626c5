"""Command-line front end: solve, generate, verify, bench, budget sweep.

Every command reads instances from disk (native JSON, or a MATPOWER
``.m`` case) and rejects an unreadable or invalid one with exit code 4,
and writes machine-readable output.  The solver is deterministic, and
``gen`` and ``verify`` take their randomness from an explicit ``--seed``,
so runs are reproducible byte for byte.  The checks behind ``verify``
live in ``dcots.oracle``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import math
import sys
from pathlib import Path

from dcots.network import (
    augment_with_cycle,
    parse_matpower,
    parse_native,
    perturb_loads,
    relocate_generators,
    serialize_native,
    validate,
)
from dcots.oracle import (
    VERIFY_SUITES,
    SubsetSumInstance,
    negative_controls,
    reduce_subset_sum,
)
from dcots.solver import (
    CSV_HEADER,
    SolverConfig,
    result_csv_row,
    result_to_doc,
    solve_ots,
)

__all__ = ["main", "load_instance", "performance_profile", "InstanceError"]


class InstanceError(ValueError):
    """An instance file that cannot be read, parsed, or validated."""


def load_instance(path: str):
    """Parse and validate one instance file (MATPOWER if it ends in .m).

    Raises InstanceError naming the file and the problem.
    """
    try:
        text = Path(path).read_text()
        net = parse_matpower(text) if path.endswith(".m") else parse_native(text)
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise InstanceError(f"{path}: {exc}") from exc
    report = validate(net)
    if not report.ok:
        raise InstanceError(f"{path}: {'; '.join(report.problems)}")
    return net


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(rel_gap=args.gap, time_limit_s=args.time_limit,
                        strengthen_rounds=args.rounds, cycle_mode=args.mode)


_EXIT_BY_STATUS = {"optimal-within-gap": 0, "infeasible": 2,
                   "feasible-time-limit": 3, "infeasible-unknown": 3,
                   "numerical-error": 5, "lazy-rows-stalled": 5}


def cmd_solve(args) -> int:
    net = load_instance(args.instance)
    res = solve_ots(net, args.config, n_off=args.max_off)
    doc = result_to_doc(res, instance=Path(args.instance).name, mode=args.mode)
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return _EXIT_BY_STATUS.get(res.status, 1)


def cmd_gen(args) -> int:
    if args.recipe == "subset-sum":
        terms = tuple(int(v) for v in args.a.split(","))
        net = reduce_subset_sum(SubsetSumInstance(terms, args.b))
    else:
        base = load_instance(args.base)
        if args.recipe == "perturb":
            net = perturb_loads(base, args.low, args.high, args.seed)
        elif args.recipe == "add-cycle":
            net = augment_with_cycle(base, args.cycle_len, args.count, args.seed)
        else:
            net = relocate_generators(base, args.seed)
    text = serialize_native(net)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def cmd_verify(args) -> int:
    if args.negative_controls:
        checks = ((f"negative-control {name}", detected, detail)
                  for name, detected, detail in negative_controls())
    else:
        checks = ((name, *VERIFY_SUITES[name](args.seed))
                  for name in args.suites or sorted(VERIFY_SUITES))
    ok_all = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        ok_all &= ok
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# benchmarking


def performance_profile(times: dict[str, dict[str, float | None]]):
    """Dolan-More profile rows from per-mode wall times (None = unsolved).

    Ratios compare each mode's time on an instance to the best time on
    that instance; unsolved runs are censored at ratio infinity and
    never enter a curve.  Returns (header, rows) with one row per
    breakpoint tau.
    """
    modes = sorted(times)
    instances = sorted({inst for per in times.values() for inst in per})
    ratios: dict[str, dict[str, float]] = {m: {} for m in modes}
    for inst in instances:
        solved = [times[m].get(inst) for m in modes
                  if times[m].get(inst) is not None]
        best = min(solved) if solved else None
        for m in modes:
            t = times[m].get(inst)
            ratios[m][inst] = (math.inf if t is None
                               else max(1.0, t / best if best > 0 else 1.0))
    finite = sorted({r for per in ratios.values() for r in per.values()
                     if math.isfinite(r)} | {1.0})
    header = ["tau"] + [f"fraction_within_tau_{m}" for m in modes]
    rows = []
    for tau in finite:
        row = [f"{tau:.6f}"]
        for m in modes:
            frac = sum(1 for inst in instances if ratios[m][inst] <= tau + 1e-12)
            row.append(f"{frac / len(instances):.6f}" if instances else "0")
        rows.append(row)
    return header, rows


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _bench_one(name: str, net, config: SolverConfig):
    res = solve_ots(net, config)
    return result_csv_row(res, instance=name, mode=config.cycle_mode), res


def cmd_bench(args) -> int:
    paths = sorted(p for p in Path(args.instance_dir).iterdir()
                   if p.suffix in (".json", ".m"))
    if not paths:
        print("no instances found", file=sys.stderr)
        return 1
    nets = [load_instance(str(p)) for p in paths]
    jobs = [(p.name, net, config) for p, net in zip(paths, nets) for config in args.configs]
    # a fork pool starts all its workers at the first submit: no idle ones
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_bench_one, *zip(*jobs)))
    else:
        outcomes = [_bench_one(*job) for job in jobs]
    rows = [row for row, _ in outcomes]
    Path(args.out).write_text(_csv_text(CSV_HEADER, rows))
    times: dict[str, dict[str, float | None]] = {c.cycle_mode: {} for c in args.configs}
    for (name, _, config), (_, res) in zip(jobs, outcomes):
        times[config.cycle_mode][name] = (res.wall_time_s
                                          if res.status == "optimal-within-gap" else None)
    header, prof_rows = performance_profile(times)
    Path(args.profile).write_text(_csv_text(header, prof_rows))
    print(f"wrote {len(rows)} result rows and {len(prof_rows)} profile rows")
    return 0


def cmd_budget_sweep(args) -> int:
    net = load_instance(args.instance)
    n_values = args.n_values or range(sum(ln.switchable for ln in net.lines) + 1)
    rows = []
    for n_off in n_values:
        res = solve_ots(net, args.config, n_off=n_off)
        # without a value, the status says why: only ``infeasible`` is a proof
        rows.append([n_off, *(f"{v:.10g}" if v is not None else res.status
                              for v in (res.objective, res.root_lp_values[0]))])
    text = _csv_text(["N", "ip_value", "lp_value"], rows)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _add_solver_flags(p):
    p.add_argument("--mode", choices=("default", "basic", "more"),
                   default="default", help="root cycle-cut selection")
    p.add_argument("--gap", type=float, default=0.001,
                   help="relative optimality gap")
    p.add_argument("--time-limit", type=float, default=3600.0,
                   help="wall-clock limit in seconds")
    p.add_argument("--rounds", type=int, default=5,
                   help="root separation rounds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcots",
        description="DC optimal transmission switching via cycle inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("instance")
    _add_solver_flags(p)
    p.add_argument("--max-off", type=int, default=None,
                   help="switching budget (max lines off)")
    p.add_argument("--out", default=None, help="write the JSON result here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("recipe",
                   choices=("perturb", "add-cycle", "relocate-gens", "subset-sum"))
    p.add_argument("--base", help="input instance for transforming recipes")
    p.add_argument("--low", type=int, default=0, help="perturb: min added MW")
    p.add_argument("--high", type=int, default=15, help="perturb: max added MW")
    p.add_argument("--cycle-len", type=int, default=3,
                   help="add-cycle: length of each closed cycle")
    p.add_argument("--count", type=int, default=1,
                   help="add-cycle: number of lines to add")
    p.add_argument("--a", default=None, help="subset-sum: comma-separated terms")
    p.add_argument("--b", type=int, default=None, help="subset-sum: target")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="*",
                   help=f"subset of {sorted(VERIFY_SUITES)} (default all)")
    p.add_argument("--negative-controls", action="store_true",
                   help="run tampered checks and require their detection")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="solve a directory of instances")
    p.add_argument("instance_dir")
    p.add_argument("--modes", default="default,basic,more",
                   help="comma-separated solver modes")
    p.add_argument("--gap", type=float, default=0.001)
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent solves, one process each")
    p.add_argument("--out", default="bench_results.csv")
    p.add_argument("--profile", default="bench_profile.csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("budget-sweep", help="resolve under a range of budgets")
    p.add_argument("instance")
    _add_solver_flags(p)
    p.add_argument("--n-values", type=_int_list, default=None,
                   help="comma-separated budgets (default 0..#switchable)")
    p.add_argument("--out", default=None, help="write the CSV here")
    p.set_defaults(func=cmd_budget_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.negative_controls:
        unknown = [s for s in args.suites if s not in VERIFY_SUITES]
        if unknown:
            parser.error(f"unknown suite(s): {', '.join(unknown)}")
    if args.command == "gen":
        if args.recipe == "subset-sum" and (args.a is None or args.b is None):
            parser.error("subset-sum requires --a and --b")
        if args.recipe != "subset-sum" and not args.base:
            parser.error(f"{args.recipe} requires --base")
    if args.command == "bench" and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.command == "solve" and args.max_off is not None and args.max_off < 0:
        parser.error("--max-off must be nonnegative")
    if args.command == "budget-sweep" and args.n_values and min(args.n_values) < 0:
        parser.error("--n-values must be nonnegative")
    try:
        if args.command in ("solve", "budget-sweep"):
            args.config = _config_from_args(args)
        elif args.command == "bench":
            args.configs = [SolverConfig(rel_gap=args.gap, time_limit_s=args.time_limit,
                                         cycle_mode=m) for m in sorted(args.modes.split(","))]
    except ValueError as exc:
        parser.error(str(exc))  # a solver setting out of range
    try:
        return args.func(args)
    except InstanceError as exc:
        print(f"dcots: {exc}", file=sys.stderr)
        return 4  # invalid instance file
    except ValueError as exc:
        if args.command != "gen":
            raise
        parser.error(f"{args.recipe}: {exc}")  # a request the recipe cannot meet


if __name__ == "__main__":
    sys.exit(main())
