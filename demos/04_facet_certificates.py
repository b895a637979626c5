"""
Certifying that cut rows are facets
===================================

A subset inequality is not just valid for the single-cycle hull; when
its subset is heavy enough it supports a facet.  The certificate is a
list of affinely independent hull points that all satisfy the
inequality with equality, checked exactly in integer arithmetic.
"""

from fractions import Fraction

from dcots.oracle import check_facets, exact_rank

w = (1.0, 0.7, 1.2, 0.9)
total = sum(w)

# A subset S is heavy when Delta(S) = 2 w(S) - w(C) > 0, i.e. it holds
# more than half the cycle's normalized capacity.
print(f"cycle weights {w}, w(C) = {total}")
for mask in range(1, 1 << len(w)):
    subset = {a for a in range(len(w)) if mask >> a & 1}
    d = 2 * sum(w[a] for a in subset) - total
    if d > 0:
        ok = check_facets(w, subset)
        print(f"  S = {sorted(subset)}: Delta = {d:+.2f}, facet certified: {ok}")
        assert ok

# Light subsets yield valid but non-supporting rows; asking for a facet
# certificate there is a usage error and says so.
try:
    check_facets(w, {1})
except ValueError as exc:
    print("light subset rejected:", exc)

# The rank computation underneath scales each rational row to integers
# and eliminates without fractions, so certificates never hinge on
# floating-point luck.
rows = [
    [Fraction(1), Fraction(2), Fraction(3)],
    [Fraction(2), Fraction(4), Fraction(6)],
    [Fraction(0), Fraction(1), Fraction(1)],
]
print("exact rank of a 3x3 with a dependent row:", exact_rank(rows))
