#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload on a two-instance ladder, untraced and traced, and
requires each metric named in BENCHMARK.json to be printed with its unit.
Negative controls: the checker must flag a solution whose flow was
corrupted, and the loop must count an op that reaches the per-op wall cap
as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys

import run  # sets the BLAS thread variables before numpy loads

import check


def tiny() -> None:
    run.BNB_LADDER = run.BNB_LADDER[:4]
    run.ROOT_LADDER = [(4, 4, 0), (5, 5, 0)]
    run.BRUTE_LADDER = [(2, 2, 0), (2, 3, 0)]
    run.SETUP_REPEATS = 1
    run.MIN_PASSES = 1


def run_quiet(workload: str, traced: bool) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.run_workload(workload, seed=0, seconds=0.2, traced=traced)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    tiny()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in sorted(run.BUILDERS):
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            doc = run_quiet(workload, traced)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            expect(got == want, f"{workload} trace={int(traced)}: metric names and units")
            expect(doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1,
                   f"{workload} trace={int(traced)}: every op checked and correct")

    # negative control 1: corrupt one flow of a correct solution
    from dcots import cli, solver
    specs = run.build_bnb(0, run.WORK / "bnb-0")
    spec0 = next(s for s in specs if s["ref"]["status"] == "optimal")
    res = solver.solve_ots(cli.load_instance(spec0["path"]), solver.SolverConfig())
    sol = (res.x, res.f, res.p)
    expect(not check.check_solve(spec0["ref"], res.status, res.objective, sol),
           "checker accepts the solver's own solution")
    lid = max(res.f, key=lambda k: abs(res.f[k]))
    bad_f = dict(res.f)
    bad_f[lid] += 1e-3
    expect(bool(check.check_solve(spec0["ref"], res.status, res.objective,
                                  (res.x, bad_f, res.p))),
           "checker flags a corrupted flow")

    # negative control 2: an op that outlives the per-op cap is failed
    signal.signal(signal.SIGALRM, run._on_alarm)
    run.OP_CAP_S = 0.002
    ops = run.Ops({"solver": solver}, {spec0["path"]: cli.load_instance(spec0["path"])})
    records = run.timed_loop(ops, [spec0], 0, 1)
    expect(len(records) == 1 and isinstance(records[0][2], run.OpTimeout),
           "an op past the wall cap is recorded as failed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
