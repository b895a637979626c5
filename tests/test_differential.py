"""The solver and the brute-force oracle against HiGHS on the small grids
of the benchmark ladder, and the solver's bus cover rows and optima
against topology enumeration.

Each grid comes from ``perfbench/ladder.grid_instance``.  The solver's
status, objective and solution are checked by
``perfbench/check.check_solve``, and the oracle's optimum by
``check.close``, against the HiGHS ``milp`` reference stored in
``perfbench/refs.json``; neither the check nor the reference uses dcots
code.  Cover rows are checked against ``oracle.dispatchable``, and
budgeted optima against ``oracle.dispatch_lp`` and
``oracle.brute_force_ots``; all three solve dispatch LPs of each
topology with HiGHS.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import check  # noqa: E402
import ladder  # noqa: E402

from dcots.formulations import build_ots_cycle, bus_cover_rows  # noqa: E402
from dcots.network import parse_native, random_connected_network  # noqa: E402
from dcots.oracle import brute_force_ots, dispatch_lp, dispatchable  # noqa: E402
from dcots.solver import SolverConfig, solve_ots  # noqa: E402

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


def _grid_network(rows, cols, seed):
    return parse_native(ladder.to_native(ladder.grid_instance(rows, cols, seed)))


COVER_NETS = ([(f"g{r}x{c}-{s}", (r, c, s)) for r, c, s in BRUTE_GRIDS]
              + [(f"random-{s}", s) for s in range(20)])


def _cover_network(spec):
    return random_connected_network(spec) if isinstance(spec, int) else _grid_network(*spec)


def _topologies(net):
    """Every set of closed line ids: non-switchable lines are always in it."""
    switchable = [ln.id for ln in net.lines if ln.switchable]
    fixed = {ln.id for ln in net.lines if not ln.switchable}
    for mask in range(1 << len(switchable)):
        yield fixed | {lid for i, lid in enumerate(switchable) if mask >> i & 1}


@pytest.mark.parametrize("spec", [spec for _, spec in COVER_NETS],
                         ids=[name for name, _ in COVER_NETS])
def test_every_bus_cover_row_holds_at_every_feasible_topology(spec):
    # a row holds at every feasible topology exactly when every topology
    # it cuts off has no dispatch, so only those go to HiGHS
    net = _cover_network(spec)
    model = build_ots_cycle(net)
    covers = bus_cover_rows(model)
    line_of = {col: lid for lid, col in model.vmap.x.items()}
    cut_off = [closed for closed in _topologies(net)
               if any(sum(v for col, v in coeffs if line_of[col] in closed) < rhs
                      for coeffs, _, rhs in covers)]
    assert [[ln.id for ln, on in zip(net.lines, mask) if on]
            for mask in dispatchable(net, cut_off)] == []


def test_the_cover_sample_has_rows_that_need_two_lines():
    # otherwise the validity test above would check nothing
    rhs = [rhs for _, spec in COVER_NETS
           for _, _, rhs in bus_cover_rows(build_ots_cycle(_cover_network(spec)))]
    assert sum(k >= 2 for k in rhs) >= 5


def _budgeted_optimum(net, n_off, best, pattern):
    """The least dispatch cost over the topologies that open at most
    ``n_off`` lines, or None: brute force's optimum ``best`` when its
    ``pattern`` keeps the budget, else the best of one dispatch LP per
    topology."""
    if best is None or sum(on == 0.0 for on in pattern.values()) <= n_off:
        return best
    ids = {ln.id for ln in net.lines}
    switchable = [ln.id for ln in net.lines if ln.switchable]
    costs = [dispatch_lp(net, ids - set(opened))[0]
             for k in range(n_off + 1) for opened in itertools.combinations(switchable, k)]
    return min((c for c in costs if c is not None), default=None)


@pytest.mark.parametrize("seed", range(40))
def test_solve_agrees_with_enumeration_with_and_without_a_budget(seed):
    net = random_connected_network(seed)
    best, pattern = brute_force_ots(net)
    config = SolverConfig()
    for n_off in (None, 1, 2):
        want = best if n_off is None else _budgeted_optimum(net, n_off, best, pattern)
        res = solve_ots(net, config, n_off=n_off)
        if want is None:
            assert res.status == "infeasible", n_off
            continue
        assert res.status == "optimal-within-gap", n_off
        assert want - 1e-6 <= res.objective <= want + config.rel_gap * abs(want) + 1e-6, n_off
