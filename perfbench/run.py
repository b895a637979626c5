#!/usr/bin/env python3
"""Benchmark of the dcots switching solver, its root cuts and its oracles.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bnb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one client: one op starts when the
previous one returns, in a single process with BLAS pinned to one thread.
The instance ladder is fixed; ``--seed`` renumbers its ids (see
SCALE_EXPONENTS), so the program sees new files but does the same work
on every seed.  The program sees only the instance files.  Every output
is checked against an independent reference after the timed loop.  Time
metrics are calibrated against a fixed Python loop timed between ops
(see CAL_REFERENCE_S).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` replays the untraced op sequence with spans around each
layer's calls and prints per-layer metrics.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import ladder  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

WORK = ROOT / ".perfbench_work"
# --seed renumbers the buses and lines of each grid instance, keeping their
# order, and scales the oracle's cycle weights by a power of two.  Grids
# keep their numbers: B&B and the cut loop are chaotic in them (a 1.1
# factor on MW moved one 4x4 root op from 0.14 to 8.8 s, and 1-3% load
# noise moved B&B node counts by 16-25% per instance), so any numeric
# change would turn the metrics into a sample of instance difficulty.
SCALE_EXPONENTS = (-2, 3)
SETUP_REPEATS = 5
OP_CAP_S = 30.0         # per-op wall cap; an op that reaches it has failed

# Ladders: (rows, cols, base seed).  Rungs are interleaved in the op list,
# and there are enough distinct ops that the tail leaves ten above it.
# bnb runs 2x4 grids (13 lines, 0.2 s per solve): 30 3x3 solves take 13 s,
# which leaves each op two samples in a 30 s run, and about four with 2x4.
BNB_LADDER = [(2, 4, i) for i in range(30)]
# twice as many 5x5 basic ops as of each other kind, so the median op
# falls inside one cluster of similar times rather than between two
ROOT_LADDER = ([(4, 4, i) for i in range(10)] + [(5, 5, i) for i in range(20)]
               + [(6, 6, i) for i in range(10)])
ROOT_MORE_SIZES = (4,)  # more mode on 5x5 and 6x6 can stall; see baseline.json
BRUTE_LADDER = [(2, 2, i) for i in range(4)] + [(2, 3, i) for i in range(6)]
# HiGHS milp references of every ladder instance, solved once by
# ``baseline.py refs``: renumbering keeps every number and order, so HiGHS
# sees the same model on every seed.  Instances that HiGHS does not close
# within its cap are checked against its incumbent and dual bound.
REFS = HERE / "refs.json"

# Each op's time is the median of its calibrated times over the passes of
# a run (see below).  op_s_tail is a percentile over the distinct ops that
# leaves at least ten of them above it.
MIN_PASSES = 2
TAIL_LEVEL = {"bnb": 66, "root": 75, "oracle": 80}


# Calibration.  On a shared VM the core runs 5-60% slow for seconds to
# minutes at a time, and whole 30 s runs can fall in a slow stretch, so
# no statistic of wall times alone repeats from run to run.  Between ops
# the loop therefore times a fixed pure-Python loop that shares no code
# with dcots; its median around an op is the core's speed while the op
# ran.  Work tracks it: over 90 s of root passes the wall time per pass
# ranged 1.04-1.63x its fastest while wall / calibration stayed within
# 0.93-1.04x.  Every time metric is wall time / local calibration time,
# in reference seconds: multiplied by CAL_REFERENCE_S, the loop's fastest
# time on the 2-vCPU Xeon VM the baseline was taken on, which makes it
# the time on that core uncontended.  Wall times are printed beside them.
CAL_ITERS = 15000           # one calibration loop
CAL_REFERENCE_S = 0.00085   # its fastest time on the reference core
CAL_PER_OP = 2              # loops after each op
CAL_NEIGHBOURS = 2          # ops on each side whose loops give the local speed
CAL_SETUP = 5               # loops before and after each set-up measurement


def calibration_s() -> float:
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def local_calibration(calib, j: int) -> float:
    """Median calibration time around record ``j``."""
    lo, hi = max(0, j - CAL_NEIGHBOURS), min(len(calib), j + CAL_NEIGHBOURS + 1)
    return statistics.median(s for pair in calib[lo:hi] for s in pair)


class OpTimeout(BaseException):
    """Raised by the per-op alarm; a BaseException so no handler eats it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


# ---------------------------------------------------------------------------
# the program under test


def import_dcots():
    """Import dcots from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "dcots" / "__init__.py").is_file():
        raise SystemExit(f"dcots sources not found under {src}")
    sys.path.insert(0, str(src))
    import dcots.cli  # noqa: F401
    import dcots
    if Path(dcots.__file__).resolve().parent != src / "dcots":
        raise SystemExit(f"imported dcots from {dcots.__file__}, not {src}")
    return dcots


def setup_child(workdir: str) -> None:
    """One set-up measurement, in a fresh interpreter: import dcots, then
    load and validate every instance file of the workload."""
    cal = [calibration_s() for _ in range(CAL_SETUP + 1)][1:]  # the first one warms up
    t0 = time.perf_counter()
    import_dcots()
    from dcots import cli, network
    t1 = time.perf_counter()
    for path in sorted(Path(workdir).glob("*.*")):
        if path.suffix in (".json", ".m"):
            report = network.validate(cli.load_instance(str(path)))
            if not report.ok:
                raise SystemExit(f"{path.name}: {report.problems}")
    t2 = time.perf_counter()
    cal += [calibration_s() for _ in range(CAL_SETUP)]
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                      "calibration_s": statistics.median(cal)}))


def measure_setup(workdir: Path) -> list[tuple[float, float]]:
    """(set-up seconds, median calibration seconds around it) per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(Path(__file__)), "--setup-child",
                              str(workdir)], capture_output=True, text=True,
                             timeout=60, check=True, cwd=ROOT)
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        times.append((doc["import_s"] + doc["load_s"], doc["calibration_s"]))
    return times


# ---------------------------------------------------------------------------
# instances and references (outside every timed region)


def ladder_instance(rows: int, cols: int, base: int, seed: int) -> dict:
    """Ladder instance ``base`` of a rung, with ids renumbered from ``seed``."""
    rng = np.random.default_rng([seed, rows, cols, base])
    return ladder.relabeled(ladder.grid_instance(rows, cols, base),
                            *(int(v) for v in rng.integers(1, 1000, size=4)))


def instance_name(rows: int, cols: int, base: int) -> str:
    return f"g{rows}x{cols}-{base}"


def fingerprint(inst: dict) -> dict:
    """What refs.json records of an instance to tell that it is the same one."""
    return {"lines": len(inst["lines"]), "load_mw": sum(d for _, d in inst["buses"]),
            "capacity_mw": sum(ln[4] for ln in inst["lines"])}


def write_ladder(entries, seed: int, workdir: Path, fmt: str):
    """Write one instance file per ladder entry; return (path, ref) pairs."""
    refs = json.loads(REFS.read_text())
    out = []
    for rows, cols, base in entries:
        inst = ladder_instance(rows, cols, base, seed)
        name = instance_name(rows, cols, base)
        ref = dict(refs.get(name, {}))
        if ref.pop("fingerprint", None) != fingerprint(inst):
            raise SystemExit(f"{REFS.name} has no reference for {name}; "
                             "run perfbench/baseline.py refs")
        path = workdir / (name + (".m" if fmt == "m" else ".json"))
        path.write_text(ladder.to_matpower(inst, name.replace("-", "_")) if fmt == "m"
                        else ladder.to_native(inst))
        ref.update(inst=inst, rung=f"{rows}x{cols}")
        out.append((str(path), ref))
    return out


def interleave(groups):
    """Round-robin over lists of unequal length."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


def build_bnb(seed, workdir):
    return [{"kind": "solve", "path": p, "ref": r}
            for p, r in write_ladder(BNB_LADDER, seed, workdir, "json")]


def build_root(seed, workdir):
    groups = {}
    for path, ref in write_ladder(ROOT_LADDER, seed, workdir, "m"):
        k = int(ref["rung"].split("x")[0])
        for mode in ("basic", "more") if k in ROOT_MORE_SIZES else ("basic",):
            groups.setdefault((k, mode), []).append({"kind": mode, "path": path, "ref": ref})
    return interleave(list(groups.values()))


def build_oracle(seed, workdir):
    """Fixed base parameters, rescaled per seed: cycle weights by a power
    of two, subset-sum terms and target by an integer."""
    base = np.random.default_rng(404)
    rng = np.random.default_rng([seed, 404])

    def weights(n):
        return tuple(float(v) for v in base.uniform(0.3, 2.5, size=n)
                     * 2.0 ** rng.integers(*SCALE_EXPONENTS))

    def subset_sum(n):
        k = int(rng.integers(1, 4))
        return {"kind": "reduction", "a": tuple(k * int(v) for v in base.integers(1, 10, size=n)),
                "b": k * int(base.integers(1, 26))}

    brute = [{"kind": "brute", "path": p, "ref": r}
             for p, r in write_ladder(BRUTE_LADDER, seed, workdir, "json")]
    groups = [
        [{"kind": "hull", "w": weights(n), "seed": i} for i, n in enumerate((2, 3, 4, 5) * 4)],
        [{"kind": "facets", "w": weights(n)} for n in (3, 4, 5) * 4],
        [{"kind": "projection", "w": weights(n), "seed": i} for i, n in enumerate((2, 3) * 6)],
        interleave([brute[:4], brute[4:]]),
        [subset_sum(n) for n in (3, 4, 5, 6) * 2],
    ]
    return interleave(groups)


BUILDERS = {"bnb": build_bnb, "root": build_root, "oracle": build_oracle}


# ---------------------------------------------------------------------------
# ops


HULL_TRIALS = 30
PROJECTION_TRIALS = 30


class Ops:
    """The op bodies; every dcots call goes through a module attribute,
    so that the tracer's wrappers see it."""

    def __init__(self, dcots_mods, nets):
        self.m = dcots_mods
        self.nets = nets
        cfg = self.m["solver"].SolverConfig()
        self.rounds, self.expansion_k = cfg.strengthen_rounds, cfg.expansion_k

    def run(self, spec):
        return getattr(self, "op_" + spec["kind"])(spec)

    def op_solve(self, spec):
        solver = self.m["solver"]
        res = solver.solve_ots(self.nets[spec["path"]], solver.SolverConfig())
        sol = (res.x, res.f, res.p) if res.x is not None else None
        return {"status": res.status, "objective": res.objective, "sol": sol, "cycles": 0}

    def _root(self, spec, expand):
        solver, form, cb = self.m["solver"], self.m["formulations"], self.m["cyclebasis"]
        net = self.nets[spec["path"]]
        model = form.build_ots_angle(net)
        cycles = cb.cycle_basis(net)
        for _ in range(expand):
            cycles = cb.expand_cycle_set(cycles)
        try:
            _, z_lp, z_cuts, _ = solver.strengthen_root(model, cycles, self.rounds)
        except solver.RootRelaxationError as err:
            return {"out": err.status, "cycles": len(cycles)}
        return {"out": (z_lp, z_cuts), "cycles": len(cycles)}

    def op_basic(self, spec):
        return self._root(spec, 0)

    def op_more(self, spec):
        return self._root(spec, self.expansion_k)

    def op_hull(self, spec):
        rep = self.m["oracle"].check_hull_equality(spec["w"], trials=HULL_TRIALS, seed=spec["seed"])
        return {"value": rep.max_gap}

    def op_facets(self, spec):
        w, n = spec["w"], len(spec["w"])
        oks = []
        for mask in range(1, 1 << n):
            s = {a for a in range(n) if mask >> a & 1}
            if 2 * sum(w[a] for a in s) > sum(w):
                oks.append(self.m["oracle"].check_facets(w, s))
        return {"value": oks}

    def op_projection(self, spec):
        return {"value": self.m["oracle"].check_projection_prop4(
            spec["w"], trials=PROJECTION_TRIALS, seed=spec["seed"])}

    def op_brute(self, spec):
        obj, _ = self.m["oracle"].brute_force_ots(self.nets[spec["path"]])
        return {"value": obj}

    def op_reduction(self, spec):
        inst = self.m["oracle"].SubsetSumInstance(spec["a"], spec["b"])
        return {"value": self.m["oracle"].reduction_ots_feasible(inst)}


def subset_sum(a, b) -> bool:
    """Whether some subset of ``a`` sums to ``b``, by enumeration."""
    return any(sum(v for i, v in enumerate(a) if mask >> i & 1) == b
               for mask in range(1 << len(a)))


def check_op(spec, out, lp_refs) -> list[str]:
    kind = spec["kind"]
    if kind == "solve":
        return check.check_solve(spec["ref"], out["status"], out["objective"], out["sol"])
    if kind in ("basic", "more"):
        return check.check_root(spec["ref"], lp_refs[spec["path"]], out["out"])
    v = out["value"]
    if kind in ("hull", "projection"):
        return [] if v <= 1e-7 else [f"{kind} gap {v}"]
    if kind == "facets":
        return [] if v and all(v) else [f"facet certificate failed for w={spec['w']}"]
    if kind == "reduction":
        want = subset_sum(spec["a"], spec["b"])
        return [] if v == want else [f"reduction says {v}, subset sum {want}"]
    ref = spec["ref"]  # brute
    if ref["status"] == "infeasible":
        return [] if v is None else [f"brute force found {v}, HiGHS infeasible"]
    if v is None or not check.close(v, ref["objective"]):
        return [f"brute force {v} != HiGHS {ref['objective']}"]
    return []


# ---------------------------------------------------------------------------
# the measurement loop


def timed_loop(ops: Ops, specs, seconds: float, min_passes: int, schedule=None,
               calib=None):
    """Run ops back to back; return [(spec index, seconds, output or error)].

    Without ``schedule``, passes over ``specs`` in order until
    ``seconds`` have passed and at least ``min_passes`` whole passes have
    run; the last pass stops at the deadline.  With ``schedule``, exactly
    that sequence of spec indices.  With ``calib``, a list, each op is
    followed by CAL_PER_OP calibration loops whose times are appended to
    it as one tuple per record.
    """
    records = []
    start = time.perf_counter()
    order = schedule
    while True:
        if order is None:
            order = range(len(specs))
        for idx in order:
            if (schedule is None and len(records) >= min_passes * len(specs)
                    and time.perf_counter() - start >= seconds):
                return records
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            try:
                out = ops.run(specs[idx])
            except OpTimeout:
                out = OpTimeout("per-op wall cap reached")
            except Exception as err:  # an op that raises has failed; keep going
                out = err
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            records.append((idx, time.perf_counter() - t0, out))
            if calib is not None:
                calib.append(tuple(calibration_s() for _ in range(CAL_PER_OP)))
        if schedule is not None:
            return records


def warm_up(ops: Ops, specs) -> None:
    """One untimed op of each kind, so lazy imports and caches are filled."""
    for spec in {s["kind"]: s for s in reversed(specs)}.values():
        ops.run(spec)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q, method="linear"))


def gap_closed(specs, records, lp_refs):
    """Mean (z_LP_cuts - z_LP) / (z_ref - z_LP) per mode over the distinct
    instances with a proven optimum and a positive root gap."""
    per_mode: dict[str, dict[str, float]] = {"basic": {}, "more": {}}
    for idx, _, out in records:
        spec = specs[idx]
        if spec["kind"] not in per_mode or not isinstance(out, dict):
            continue
        closed = None if isinstance(out["out"], str) else check.gap_closed(spec["ref"], *out["out"])
        if closed is not None:
            per_mode[spec["kind"]][spec["path"]] = closed
    return {m: (float(np.mean(list(v.values()))) if v else 0.0, len(v))
            for m, v in per_mode.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(BUILDERS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        setup_child(args.setup_child)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    summary, code = {}, 0
    for name in sorted(BUILDERS):
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1])
    if code == 0:
        print(json.dumps(summary))
    return code


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import_dcots()
    from dcots import cli, cyclebasis, formulations, network, oracle, solver
    mods = {"solver": solver, "formulations": formulations, "cyclebasis": cyclebasis,
            "oracle": oracle}
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = WORK / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)  # set-up loads every file in it
    workdir.mkdir(parents=True)
    specs = BUILDERS[name](seed, workdir)

    nets, load_s, validate_s = {}, [], []
    for path in sorted({s["path"] for s in specs if "path" in s}):
        t0 = time.perf_counter()
        net = cli.load_instance(path)
        t1 = time.perf_counter()
        report = network.validate(net)
        validate_s.append(time.perf_counter() - t1)
        load_s.append(t1 - t0)
        if not report.ok:
            raise SystemExit(f"{path}: {report.problems}")
        nets[path] = net

    ops = Ops(mods, nets)
    phase_s = seconds / 2 if traced else seconds
    setup = [] if traced else measure_setup(workdir)
    warm_up(ops, specs)
    calib = []
    records = timed_loop(ops, specs, phase_s, MIN_PASSES, calib=calib)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        tracer = Tracer()
        layers.install(tracer, mods)
        try:
            traced_records = _traced_replay(tracer, ops, specs, records)
        finally:
            tracer.uninstall()
        all_records = records + traced_records
    else:
        all_records = records

    lp_refs = {}
    if name == "root":
        for path in {specs[i]["path"] for i, _, _ in all_records}:
            lp_refs[path] = check.lp_value(formulations.build_ots_angle(nets[path]).lp)
    failed, wrong = 0, 0
    for idx, _, out in all_records:
        if isinstance(out, BaseException):
            failed += 1
            print(f"FAIL {specs[idx]['kind']} {specs[idx].get('path', '')}: {out!r}", file=sys.stderr)
            continue
        probs = check_op(specs[idx], out, lp_refs)
        if probs:
            failed += 1
            wrong += 1
            print(f"WRONG {specs[idx]['kind']} {specs[idx].get('path', '')}: {probs[:3]}",
                  file=sys.stderr)

    # per distinct op: the median of its reference times, and its best wall time
    wall, ref_s = {}, {}
    for j, (idx, t, _) in enumerate(records):
        wall.setdefault(idx, []).append(t)
        ref_s.setdefault(idx, []).append(t / local_calibration(calib, j) * CAL_REFERENCE_S)
    times = [statistics.median(v) for v in ref_s.values()]
    wall_best = [min(v) for v in wall.values()]
    refs = [s["ref"] for s in specs if "ref" in s]
    unique_refs = {id(r): r for r in refs}.values()
    env = {v: os.environ[v] for v in THREAD_VARS}
    print(f"# dcots benchmark: workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(traced)} python={platform.python_version()} numpy={np.__version__} "
          f"scipy={scipy.__version__} nproc={os.cpu_count()} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    mix = {}
    for r in unique_refs:
        mix.setdefault(r["rung"], []).append(r["status"][0])
    if mix:
        print("# ladder (o=optimal i=infeasible l=HiGHS limit): "
              + " ".join(f"{k}:{''.join(v)}" for k, v in mix.items())
              + f"; HiGHS milp median {statistics.median(r['highs_s'] for r in unique_refs):.4f} s"
              + f" per instance, from {REFS.name}")
    if traced:
        metrics = layers.metrics(tracer, records, all_records[len(records):], load_s, validate_s)
        gc = gap_closed(specs, all_records, lp_refs)
        metrics["cuts.gap_closed_basic"] = (gc["basic"][0], "ratio")
        metrics["cuts.gap_closed_more"] = (gc["more"][0], "ratio")
        tracer.dump(workdir / "spans.jsonl")
    else:
        tail = TAIL_LEVEL[name]
        metrics = {
            "setup_s": (statistics.median(t / c for t, c in setup) * CAL_REFERENCE_S, "s"),
            "op_s_p50": (percentile(times, 50), "s"),
            "op_s_tail": (percentile(times, tail), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        beyond = sum(t > metrics["op_s_tail"][0] for t in times)
        cal = [s for pair in calib for s in pair]
        print(f"# {len(records)} ops in {len(records) / len(specs):.2f} passes over {len(specs)} "
              f"distinct ops, {sum(t for _, t, _ in records):.3f} s of wall time; an op's time "
              f"is the median over its passes; op_s_tail is p{tail}, with {beyond} ops above it")
        print(f"# calibration loop: median {statistics.median(cal) * 1e3:.4f} ms, fastest "
              f"{min(cal) * 1e3:.4f} ms, reference {CAL_REFERENCE_S * 1e3:.4f} ms; wall time: "
              f"setup_s {statistics.median(t for t, _ in setup):.6g} s, each op's best pass "
              f"p50 {percentile(wall_best, 50):.6g} s p{tail} {percentile(wall_best, tail):.6g} s, "
              f"{len(wall_best) / sum(wall_best):.6g} ops/s")
        if name == "root":
            gc = gap_closed(specs, all_records, lp_refs)
            for mode, (val, n) in gc.items():
                print(f"# root_gap_closed[{mode}] {val:.6f} ratio over {n} instances with a proven optimum")
    print(f"fail_frac {failed / len(all_records):.6g} ratio ({failed} of {len(all_records)} ops)")
    for key, (val, unit) in metrics.items():
        print(f"{key} {val:.6g} {unit}")
    print(json.dumps({"correct": wrong == 0, "attempted": len(all_records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def _traced_replay(tracer, ops, specs, records):
    """The untraced op sequence again, each op inside an "op" span."""
    class Traced:
        def run(self, spec):
            return tracer.span("op", ops.run, spec)
    return timed_loop(Traced(), specs, 0, 0, schedule=[r[0] for r in records])


if __name__ == "__main__":
    sys.exit(main())
