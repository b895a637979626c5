from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcots.cuts import (
    VIOL_TOL,
    SeparationTable,
    delta,
    inequality_row,
    k_value,
    make_context,
    separate_all,
    separate_closed_form,
    violation,
)
from dcots.cyclebasis import cycle_basis, expand_cycle_set
from dcots.formulations import build_ots_cycle
from dcots.network import build_network


def ring(weights):
    n = len(weights)
    return build_network(
        buses=[(i, 0.0) for i in range(n)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(a, a, (a + 1) % n, 1.0, float(weights[a])) for a in range(n)],
    )


def parallel_pair(w1, w2):
    return build_network(
        buses=[(0, 0.0), (1, 0.0)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(0, 0, 1, 1.0, float(w1)), (1, 0, 1, 1.0, float(w2))],
    )


def ctx_from_g(net, g, x):
    # feed make_context flows that reproduce the wanted normalized g
    (cyc,) = cycle_basis(net)
    f_hat, x_hat = {}, {}
    for pos, (ln, s) in enumerate(cyc.members):
        f_hat[ln.id] = s * g[pos] * ln.susceptance
        x_hat[ln.id] = x[pos]
    ctx = make_context(cyc, f_hat, x_hat)
    assert ctx.g_hat == pytest.approx(list(g))
    return ctx, f_hat, x_hat


def _exhaustive_best(w, g, xh):
    # max violation over every subset with positive delta, one side
    kc = k_value(xh)
    best, best_set = None, None
    for mask in range(1, 1 << len(w)):
        s = [a for a in range(len(w)) if mask >> a & 1]
        d = delta(s, w)
        if d <= 0.0:
            continue
        viol = sum(g[a] - w[a] * xh[a] for a in s) + d * kc
        if best is None or viol > best:
            best, best_set = viol, frozenset(s)
    return best, best_set


def _random_context(rng):
    n = int(rng.integers(2, 11))
    w = np.round(rng.uniform(0.2, 3.0, size=n), 4)
    x = np.where(rng.random(n) < 0.4, 1.0, np.round(rng.uniform(0.0, 1.0, size=n), 4))
    g = np.round(rng.uniform(-1.0, 1.0, size=n) * w * x, 4)
    net = ring(w)
    return ctx_from_g(net, tuple(g), tuple(x))


def test_delta_values():
    w = (1.0, 2.0, 3.0)
    assert delta((2,), w) == pytest.approx(0.0)
    assert delta((1, 2), w) == pytest.approx(4.0)
    assert delta((0, 1, 2), w) == pytest.approx(6.0)


def test_k_value():
    assert k_value((1.0, 1.0, 1.0)) == pytest.approx(1.0)
    assert k_value((1.0, 0.5, 0.9)) == pytest.approx(0.4)
    assert k_value((1.0, 0.0, 0.9)) <= 0.0


def test_closed_form_unit_triangle():
    net = ring((1.0, 1.0, 1.0))
    ctx, f_hat, x_hat = ctx_from_g(net, (0.5, 0.5, -0.5), (1.0, 1.0, 1.0))
    assert ctx.k_value == pytest.approx(1.0)
    cuts = separate_closed_form(ctx)
    assert len(cuts) == 1
    (cut,) = cuts
    assert cut.side == "right"
    assert cut.subset == frozenset({0, 1, 2})
    assert cut.delta == pytest.approx(3.0)
    assert cut.violation_found == pytest.approx(0.5, abs=1e-12)
    assert violation(cut, f_hat, x_hat) == pytest.approx(0.5, abs=1e-9)
    best, best_set = _exhaustive_best(ctx.w, ctx.g_hat, ctx.x_hat)
    assert best == pytest.approx(0.5, abs=1e-12)
    assert best_set == frozenset({0, 1, 2})


def test_zero_k_emits_nothing():
    net = ring((1.0, 1.0, 1.0))
    ctx, _, _ = ctx_from_g(net, (0.4, 0.2, -0.2), (1.0, 0.5, 0.5))
    assert ctx.k_value == pytest.approx(0.0)
    assert separate_closed_form(ctx) == []
    assert separate_all(ctx) == []


def test_zero_flow_emits_nothing():
    net = ring((1.0, 1.0, 1.0))
    ctx, _, _ = ctx_from_g(net, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert separate_closed_form(ctx) == []


def test_parallel_pair_closed_form_matches_exhaustive():
    net = parallel_pair(1.0, 2.0)
    ctx, f_hat, x_hat = ctx_from_g(net, (1.0, 1.9), (1.0, 1.0))
    cuts = separate_closed_form(ctx)
    assert len(cuts) == 1
    (cut,) = cuts
    assert cut.subset == frozenset({0, 1})
    assert cut.violation_found == pytest.approx(2.9, abs=1e-12)
    best, best_set = _exhaustive_best(ctx.w, ctx.g_hat, ctx.x_hat)
    assert best == pytest.approx(cut.violation_found, abs=1e-9)
    assert best_set == cut.subset
    grown = [c for c in separate_all(ctx) if c.side == "right"]
    assert {c.subset for c in grown} == {frozenset({0, 1})}


def test_separate_all_grows_seed_into_supersets():
    net = ring((1.0, 1.0, 1.0, 1.0))
    ctx, f_hat, x_hat = ctx_from_g(net, (-0.7, 1.0, 0.9, 0.9), (1.0, 1.0, 0.9, 0.9))
    assert ctx.k_value == pytest.approx(0.8)
    cuts = separate_all(ctx)
    right = {c.subset: c.violation_found for c in cuts if c.side == "right"}
    assert right.keys() == {frozenset({1, 2, 3}), frozenset({0, 1, 2, 3})}
    assert right[frozenset({1, 2, 3})] == pytest.approx(1.6, abs=1e-12)
    assert right[frozenset({0, 1, 2, 3})] == pytest.approx(1.5, abs=1e-12)
    assert not any(c.side == "left" for c in cuts)
    closed = separate_closed_form(ctx)
    assert len(closed) == 1
    assert closed[0].subset == frozenset({1, 2, 3})
    for cut in cuts:
        assert violation(cut, f_hat, x_hat) == pytest.approx(
            cut.violation_found, abs=1e-9)


def test_closed_form_agrees_with_enumeration_sampled():
    rng = np.random.default_rng(7)
    emitted = 0
    for _ in range(400):
        ctx, f_hat, x_hat = _random_context(rng)
        for side_sign in (1.0, -1.0):
            g = tuple(side_sign * v for v in ctx.g_hat)
            best, _ = _exhaustive_best(ctx.w, g, ctx.x_hat)
            found = [c for c in separate_closed_form(ctx)
                     if c.side == ("right" if side_sign > 0 else "left")]
            if found:
                emitted += 1
                assert best == pytest.approx(found[0].violation_found, abs=1e-9)
                assert violation(found[0], f_hat, x_hat) == pytest.approx(
                    found[0].violation_found, abs=1e-9)
            else:
                assert best is None or best <= VIOL_TOL + 1e-9
    assert emitted >= 40


def test_negative_k_never_emits_sampled():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        ctx, _, _ = _random_context(rng)
        if ctx.k_value > 0.0:
            continue
        checked += 1
        assert separate_closed_form(ctx) == []
        assert separate_all(ctx) == []
        best, _ = _exhaustive_best(ctx.w, ctx.g_hat, ctx.x_hat)
        assert best is None or best <= 1e-9
    assert checked >= 30


def test_negating_flows_swaps_sides():
    rng = np.random.default_rng(13)
    for _ in range(100):
        ctx, _, _ = _random_context(rng)
        net = ring(ctx.w)
        neg, _, _ = ctx_from_g(net, tuple(-v for v in ctx.g_hat), ctx.x_hat)
        swap = {"right": "left", "left": "right"}
        base = {(swap[c.side], c.subset): c.violation_found
                for c in separate_closed_form(ctx)}
        mirror = {(c.side, c.subset): c.violation_found
                  for c in separate_closed_form(neg)}
        assert base.keys() == mirror.keys()
        for key in base:
            assert base[key] == pytest.approx(mirror[key], abs=1e-12)


def test_separate_all_contains_closed_form():
    rng = np.random.default_rng(17)
    nonempty = 0
    for _ in range(200):
        ctx, _, _ = _random_context(rng)
        closed = {(c.side, c.subset) for c in separate_closed_form(ctx)}
        grown = {(c.side, c.subset) for c in separate_all(ctx)}
        assert closed <= grown
        nonempty += bool(closed)
    assert nonempty >= 20


def test_row_matches_violation_helper():
    net = ring((1.0, 1.5, 0.7, 2.0))
    ctx, f_hat, x_hat = ctx_from_g(net, (0.9, 1.4, -0.6, 1.9), (1.0, 0.98, 1.0, 0.99))
    model = build_ots_cycle(net)
    for cut in separate_all(ctx):
        coeffs, sense, rhs = inequality_row(cut, model.vmap)
        assert sense == "<="
        point = dict(coeffs)
        lhs = 0.0
        for lid, col in model.vmap.flow.items():
            lhs += point.get(col, 0.0) * f_hat[lid]
        for lid, col in model.vmap.x.items():
            lhs += point.get(col, 0.0) * x_hat[lid]
        assert lhs - rhs == pytest.approx(violation(cut, f_hat, x_hat), abs=1e-9)
        assert lhs - rhs == pytest.approx(cut.violation_found, abs=1e-9)


def test_row_reduces_to_flow_sum_when_subset_is_cycle():
    # with S = C and every line closed the cut says the signed flow sum
    # around the cycle is nonpositive
    net = ring((1.0, 1.0, 1.0))
    (cyc,) = cycle_basis(net)
    ctx, f_hat, x_hat = ctx_from_g(net, (0.5, 0.5, -0.5), (1.0, 1.0, 1.0))
    (cut,) = separate_closed_form(ctx)
    assert cut.subset == frozenset({0, 1, 2})
    x_on = {lid: 1.0 for lid in x_hat}
    for g_sum_target in (0.0, -1.2):
        f_test = dict(f_hat)
        first, s0 = cyc.members[0]
        f_test[first.id] += s0 * (g_sum_target - 0.5) * first.susceptance
        assert violation(cut, f_test, x_on) == pytest.approx(g_sum_target, abs=1e-9)


def test_row_slack_at_rest_is_complement_weight():
    net = ring((1.0, 2.0, 0.5, 0.5))
    ctx, _, _ = ctx_from_g(net, (1.0, 1.9, 0.4, 0.4), (1.0, 1.0, 1.0, 1.0))
    cuts = separate_all(ctx)
    assert cuts
    zero_f = {lid: 0.0 for lid in range(4)}
    all_on = {lid: 1.0 for lid in range(4)}
    for cut in cuts:
        wc_minus_s = sum(ln.w for ln, _ in cut.cycle.members
                         if ln.id not in cut.subset)
        assert violation(cut, zero_f, all_on) == pytest.approx(-wc_minus_s, abs=1e-9)


def test_cuts_hold_at_integral_switch_patterns():
    net = ring((1.0, 1.0, 1.0, 1.0))
    ctx, _, _ = ctx_from_g(net, (-0.7, 1.0, 0.9, 0.9), (1.0, 1.0, 0.9, 0.9))
    cuts = separate_all(ctx)
    assert cuts
    consistent = [(1.0, -1.0, 1.0, -1.0), (1.0, -1.0, 0.0, 0.0),
                  (0.5, -0.5, 0.25, -0.25), (0.0, 0.0, 0.0, 0.0)]
    for cut in cuts:
        members = cut.cycle.members
        for pattern in range(16):
            x = {ln.id: float(pattern >> pos & 1) for pos, (ln, _) in enumerate(members)}
            if all(v == 1.0 for v in x.values()):
                flow_sets = [dict((ln.id, s * g * ln.susceptance)
                                  for (ln, s), g in zip(members, gs))
                             for gs in consistent]
            else:
                flow_sets = [{ln.id: sgn * ln.w * x[ln.id] * ln.susceptance * s
                              for ln, s in members} for sgn in (-1.0, 0.0, 1.0)]
            for f in flow_sets:
                assert violation(cut, f, x) <= 1e-9


# The array separator on the solve path against the scalar one above.

def _grid(rows, cols, susceptance, capacity):
    """A rows x cols grid; line i gets susceptance[i] and capacity[i]."""
    bus = lambda r, c: r * cols + c  # noqa: E731
    pairs = [(bus(r, c), bus(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    pairs += [(bus(r, c), bus(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return build_network(
        buses=[(i, 0.0) for i in range(rows * cols)],
        generators=[(0, 0.0, 1.0, 1.0)],
        lines=[(i, u, v, susceptance[i], capacity[i]) for i, (u, v) in enumerate(pairs)],
    )


def _table_against_scalar(net, x_of, f_of, expansions=2):
    """Compare the two separators over an expanded cycle basis of ``net`` at
    the point with on/off values ``x_of[i]`` and flows ``f_of[i]`` on line
    i; return counts of the cases the point exercised."""
    cycles = cycle_basis(net)
    for _ in range(expansions):
        cycles = expand_cycle_set(cycles)
    vmap = build_ots_cycle(net).vmap
    point = np.zeros(1 + max(max(vmap.flow.values()), max(vmap.x.values())))
    f_hat, x_hat = {}, {}
    for i, ln in enumerate(net.lines):
        point[vmap.x[ln.id]] = x_hat[ln.id] = x_of[i]
        point[vmap.flow[ln.id]] = f_hat[ln.id] = f_of[i]
    contexts = [make_context(cyc, f_hat, x_hat) for cyc in cycles]
    expected = [cut for ctx in contexts for cut in separate_closed_form(ctx)]
    table = SeparationTable(cycles, vmap)
    assert table.cuts(point) == expected  # with delta and the violation found, float for float
    assert table.rows(point) == [inequality_row(cut, vmap) for cut in expected]
    ties = sum(sign * g - w * x + 2.0 * w * ctx.k_value == 0.0
               for ctx in contexts if ctx.k_value > 0.0 for sign in (1.0, -1.0)
               for g, w, x in zip(ctx.g_hat, ctx.w, ctx.x_hat))
    return Counter(k_zero=sum(ctx.k_value == 0.0 for ctx in contexts), ties=ties,
                   long=sum(len(cut.cycle) >= 9 for cut in expected),
                   outside=sum(not 0.0 <= x <= 1.0 for x in x_of),
                   integral=all(x in (0.0, 1.0) for x in x_of))


# dyadic values add up exactly, so K_C = 0 and v_a = 0 occur; other
# floats add up in an order-dependent way
X_DYADIC = [1.0, 1.0, 1.0, 0.75, 0.5, 0.25, 0.0, -0.25, 1.25]
FLOW_DYADIC = [0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]  # times the line's capacity
SUSCEPTANCES, CAPACITIES = [0.5, 1.0, 2.0, 1.3], [0.5, 1.0, 1.5, 0.7]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(3, 3), (3, 4), (3, 4)]), data=st.data())
def test_separation_table_gives_the_scalar_rows(shape, data):
    n = 2 * shape[0] * shape[1] - shape[0] - shape[1]
    per_line = lambda s: st.lists(s, min_size=n, max_size=n)  # noqa: E731
    susceptance = data.draw(per_line(st.sampled_from(SUSCEPTANCES)))
    capacity = data.draw(per_line(st.sampled_from(CAPACITIES)))
    # every line near 1 gives K_C > 0 on the long cycles too, and many cuts
    x_of = data.draw(st.one_of(per_line(st.one_of(st.sampled_from(X_DYADIC), st.floats(-0.5, 1.5))),
                               per_line(st.floats(0.95, 1.0))))
    mult = data.draw(per_line(st.one_of(st.sampled_from(FLOW_DYADIC), st.floats(-1.5, 1.5))))
    f_of = [m * c for m, c in zip(mult, capacity)]
    _table_against_scalar(_grid(*shape, susceptance, capacity), x_of, f_of)


def test_separation_table_sample_covers_ties_and_long_cycles():
    rng = np.random.default_rng(7)
    seen = Counter()
    for trial in range(40):
        rows, cols = ((2, 3), (3, 3), (3, 4))[trial % 3]
        n = 2 * rows * cols - rows - cols
        capacity = rng.choice(CAPACITIES, size=n).tolist()
        if trial % 3 == 2:  # every line near 1, with flows that make many cuts
            susceptance = rng.choice(SUSCEPTANCES, size=n).tolist()
            x_of = rng.uniform(0.95, 1.0, size=n).tolist()
            f_of = (rng.uniform(-1.5, 1.5, size=n) * capacity).tolist()
        else:
            susceptance = [1.0] * n
            x_of = rng.choice(X_DYADIC, size=n).tolist()
            if trial % 5 == 0:
                x_of = [float(x >= 0.5) for x in x_of]
            f_of = (rng.choice(FLOW_DYADIC, size=n) * capacity).tolist()
        seen.update(_table_against_scalar(_grid(rows, cols, susceptance, capacity), x_of, f_of))
    # K_C exactly 0, v_a exactly 0 at K_C > 0, x outside [0, 1], integral
    # points, and cuts on cycles of 9 or more lines, whose sums of v_a and
    # w_a come out otherwise if added pairwise (as ``.sum()`` does), all occur
    assert all(seen[k] > 0 for k in ("k_zero", "ties", "outside", "integral", "long")), seen
