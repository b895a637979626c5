"""The solver and the brute-force oracle against HiGHS on the small grids
of the benchmark ladder.

Each grid comes from ``perfbench/ladder.grid_instance``.  The solver's
status, objective and solution are checked by
``perfbench/check.check_solve``, and the oracle's optimum by
``check.close``, against the HiGHS ``milp`` reference stored in
``perfbench/refs.json``; neither the check nor the reference uses dcots
code.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import check  # noqa: E402
import ladder  # noqa: E402

from dcots.network import parse_native  # noqa: E402
from dcots.oracle import brute_force_ots  # noqa: E402
from dcots.solver import solve_ots  # noqa: E402

REFS = json.loads((PERFBENCH / "refs.json").read_text())
GRIDS = ([(2, 2, i) for i in range(4)] + [(2, 3, i) for i in range(6)]
         + [(2, 4, i) for i in range(30)])


@pytest.mark.parametrize("rows, cols, seed", GRIDS,
                         ids=[f"g{r}x{c}-{s}" for r, c, s in GRIDS])
def test_solve_agrees_with_highs_on_ladder_grid(rows, cols, seed):
    inst = ladder.grid_instance(rows, cols, seed)
    ref = REFS[f"g{rows}x{cols}-{seed}"]
    # the reference was solved for this very instance
    assert ref["fingerprint"] == {"lines": len(inst["lines"]),
                                  "load_mw": sum(d for _, d in inst["buses"]),
                                  "capacity_mw": sum(ln[4] for ln in inst["lines"])}
    res = solve_ots(parse_native(ladder.to_native(inst)))
    sol = (res.x, res.f, res.p) if res.x is not None else None
    assert check.check_solve({**ref, "inst": inst}, res.status, res.objective, sol) == []


BRUTE_GRIDS = GRIDS[:10]  # the 2x2 and 2x3 grids: at most 2^7 topologies each


@pytest.mark.parametrize("rows, cols, seed", BRUTE_GRIDS,
                         ids=[f"g{r}x{c}-{s}" for r, c, s in BRUTE_GRIDS])
def test_brute_force_agrees_with_highs_on_ladder_grid(rows, cols, seed):
    ref = REFS[f"g{rows}x{cols}-{seed}"]
    obj, _ = brute_force_ots(parse_native(ladder.to_native(ladder.grid_instance(rows, cols,
                                                                                 seed))))
    if ref["status"] == "infeasible":
        assert obj is None
    else:
        assert obj is not None and check.close(obj, ref["objective"])
