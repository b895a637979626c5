#!/usr/bin/env python3
"""Record the benchmark's baseline into perfbench/baseline.json.

    python3 perfbench/baseline.py ladder [--seed 1]
        Every rung once, including those left out of the timed workloads
        (bnb on 3x4 and 4x4, more mode on 6x6), each op under a wall cap:
        status, nodes, time, HiGHS status and time, z_LP, z_LP_cuts and
        the root gap closed per mode and rung.
    python3 perfbench/baseline.py refs
        HiGHS milp references of every instance of the timed ladders,
        each under a REF_CAP_S cap, into perfbench/refs.json, which
        run.py reads.
    python3 perfbench/baseline.py runs 1-10 [--seconds 30]
        run.py once per seed and workload, untraced; then one traced run
        per workload.  Stores each metric's median, quartiles and spread
        (IQR / median), and flags a spread above a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import run  # sets the BLAS thread variables before numpy loads

import numpy as np
import scipy

import check
import layers
import ladder

OUT = run.HERE / "baseline.json"
BNB_CAP_S = 15.0
ROOT_CAP_S = 30.0
HIGHS_LADDER_CAP_S = 10.0
REF_CAP_S = 10.0


def _load() -> dict:
    return json.loads(OUT.read_text()) if OUT.exists() else {}


def _save(doc: dict) -> None:
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _capped(fn, cap_s: float):
    """(seconds, result or the exception) of fn() under a wall cap."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        out = fn()
    except (run.OpTimeout, Exception) as err:
        out = err
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0, out


def census(seed: int) -> dict:
    run.import_dcots()
    from dcots import cli, cyclebasis, formulations, solver
    signal.signal(signal.SIGALRM, run._on_alarm)
    workdir = run.WORK / f"ladder-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = solver.SolverConfig()
    rungs: dict[str, dict] = {}

    def instance(rows, cols, base, fmt):
        inst = run.ladder_instance(rows, cols, base, seed)
        name = f"g{rows}x{cols}-{base}"
        path = workdir / (name + ("." + fmt))
        path.write_text(ladder.to_matpower(inst, name.replace("-", "_")) if fmt == "m"
                        else ladder.to_native(inst))
        return inst, cli.load_instance(str(path)), ladder.milp_reference(inst, HIGHS_LADDER_CAP_S)

    for rows, cols, n in ((3, 3, 16), (3, 4, 6), (4, 4, 4)):
        rung = rungs.setdefault(f"bnb {rows}x{cols}", {"instances": []})
        for base in range(n):
            inst, net, ref = instance(rows, cols, base, "json")
            secs, res = _capped(lambda: solver.solve_ots(net, cfg), BNB_CAP_S)
            row = {"base": base, "lines": len(inst["lines"]), "highs": ref["status"],
                   "highs_s": ref["highs_s"], "time_s": secs}
            if isinstance(res, BaseException):
                row.update(status="cap" if isinstance(res, run.OpTimeout) else repr(res))
            else:
                sol = (res.x, res.f, res.p) if res.x is not None else None
                row.update(status=res.status, nodes=res.nodes,
                           check=check.check_solve(dict(ref, inst=inst), res.status,
                                                   res.objective, sol))
            rung["instances"].append(row)
            print(rung["instances"][-1], flush=True)

    for k in (4, 5, 6):
        for base in range(4):
            inst, net, ref = instance(k, k, base, "m")
            lp_ref = check.lp_value(formulations.build_ots_angle(net).lp)
            for mode in ("basic", "more"):
                rung = rungs.setdefault(f"root {k}x{k} {mode}", {"instances": []})

                def op():
                    cycles = cyclebasis.cycle_basis(net)
                    for _ in range(cfg.expansion_k if mode == "more" else 0):
                        cycles = cyclebasis.expand_cycle_set(cycles)
                    try:
                        _, z_lp, z_cuts, n_cuts = solver.strengthen_root(
                            formulations.build_ots_angle(net), cycles, cfg.strengthen_rounds)
                    except solver.RootRelaxationError as err:
                        return err.status, len(cycles), 0
                    return (z_lp, z_cuts), len(cycles), n_cuts

                secs, res = _capped(op, ROOT_CAP_S)
                row = {"base": base, "lines": len(inst["lines"]), "highs": ref["status"],
                       "highs_s": ref["highs_s"], "time_s": secs}
                if isinstance(res, BaseException):
                    row.update(status="cap" if isinstance(res, run.OpTimeout) else repr(res))
                else:
                    out, n_cycles, n_cuts = res
                    row.update(status="ok", cycles=n_cycles, cuts=n_cuts,
                               check=check.check_root(ref, lp_ref, out))
                    if not isinstance(out, str):
                        row.update(z_lp=out[0], z_lp_cuts=out[1],
                                   gap_closed=check.gap_closed(ref, *out))
                rung["instances"].append(row)
                print(rung["instances"][-1], flush=True)

    for name, rung in rungs.items():
        rows = rung["instances"]
        rung["mix"] = "".join(r["highs"][0] for r in rows)
        rung["capped"] = sum(r["status"] == "cap" for r in rows)
        rung["wrong"] = sum(bool(r.get("check")) for r in rows)
        rung["median_time_s"] = statistics.median(r["time_s"] for r in rows)
        rung["median_highs_s"] = statistics.median(r["highs_s"] for r in rows)
        if name.startswith("root"):
            closed = [r["gap_closed"] for r in rows if r.get("gap_closed") is not None]
            rung["root_gap_closed"] = statistics.mean(closed) if closed else None
            rung["root_gap_closed_n"] = len(closed)
    return {"seed": seed, "op_caps_s": {"bnb": BNB_CAP_S, "root": ROOT_CAP_S},
            "highs_cap_s": HIGHS_LADDER_CAP_S, "rungs": rungs}


def references() -> dict:
    """The HiGHS reference of every ladder instance run.py times.

    Solved on the instance with its original ids: renumbering keeps every
    number and order, so this is the model HiGHS would see on any seed.
    """
    out = {}
    for rows, cols, base in run.BNB_LADDER + run.ROOT_LADDER + run.BRUTE_LADDER:
        inst = ladder.grid_instance(rows, cols, base)
        ref = ladder.milp_reference(inst, REF_CAP_S)
        out[run.instance_name(rows, cols, base)] = dict(ref, fingerprint=run.fingerprint(inst))
        print(run.instance_name(rows, cols, base), ref, flush=True)
    return out


def _spread(values) -> dict:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med,
            "values": values}


def _result(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def runs(seeds, seconds) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        docs = [_result(name, s, seconds, 0) for s in seeds]
        metrics = {}
        for key in bounds:
            metrics[key] = _spread([d["metrics"][key]["value"] for d in docs])
            flag = "" if metrics[key]["spread"] < bounds[key] / 3 else "  <-- above bound/3"
            print(f"{name:7s} {key:12s} median {metrics[key]['median']:.6g} "
                  f"spread {metrics[key]['spread']:.4f}{flag}", flush=True)
        traced = _result(name, seeds[0], seconds, 1)
        out["workloads"][name] = {
            "attempted": [d["attempted"] for d in docs],
            "failed": [d["failed"] for d in docs],
            "correct": all(d["correct"] for d in docs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out["layer_moves"] = {k: {"moves": layers.moves(k)[0], "on": layers.moves(k)[1]}
                          for k in layers.UNITS}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("ladder")
    p.add_argument("--seed", type=int, default=1)
    sub.add_parser("refs")
    p = sub.add_parser("runs")
    p.add_argument("seeds", help="first-last, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args()
    if args.cmd == "refs":
        run.REFS.write_text(json.dumps(references(), indent=1, sort_keys=True) + "\n")
        return 0
    doc = _load()
    doc["environment"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        **{v: os.environ[v] for v in run.THREAD_VARS}}
    if args.cmd == "ladder":
        doc["ladder"] = census(args.seed)
    else:
        lo, hi = (int(v) for v in args.seeds.split("-"))
        doc["runs"] = runs(list(range(lo, hi + 1)), args.seconds)
    _save(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
