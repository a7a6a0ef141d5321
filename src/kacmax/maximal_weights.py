"""Maximal dominant weights of the level-k modules, with closed-form counts.

The weight list comes from sweeping the five plateau families over every
boundary pair with x1 + x_{n-1} <= k - 1 + [s = 0] and converting each tuple
to its alpha-expansion.  At s = 0 a pair with one zero entry holds nothing:
with no relaxation, a concave tuple that starts or ends at 0 is all zeros.
For s = 0 the count is conjectured to equal a cyclic-binomial formula.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .affine_core import check_params, weight_from_x
from .tuple_sets import enumerate_M


class MaxWeightReport(
    namedtuple("MaxWeightReport", "n k s weights count formula_count agree")
):
    """The sorted weights of one (n, k, s) and their count; formula_count
    and agree are populated only when s == 0, and are None otherwise."""

    __slots__ = ()


def maximal_dominant_weights(n: int, k: int, s: int = 0) -> MaxWeightReport:
    """All maximal dominant weights for parameters (n, k, s).

    k = 1 gives just the highest weight.  For s = 0 the report also carries
    the conjectured closed-form count and whether the enumeration matches it.
    """
    check_params(n, k, s)
    # family 5 gives the zero tuple (the highest weight) at the pair (0, 0)
    cap = k - 1 + (s == 0)
    weights = {
        weight_from_x(n, k, s, x)
        for a in range(cap + 1)
        for b in range(cap + 1 - a)
        for family in (1, 2, 3, 4, 5)
        for x in enumerate_M(family, s, n, a, b)
    }
    ws = tuple(sorted(weights))
    formula = count_formula(n, k) if s == 0 else None
    agree = (len(ws) == formula) if s == 0 else None
    return MaxWeightReport(n, k, s, ws, len(ws), formula, agree)


def count_formula(n: int, k: int) -> int:
    """Conjectured count for s = 0: a cyclic average of binomials,
    (1/(n+k)) * sum over d | gcd(n,k) of phi(d) * C((n+k)/d, k/d), where
    phi(d) is counted from its definition, the units modulo d."""
    check_params(n, k)
    g = math.gcd(n, k)
    total = sum(
        sum(math.gcd(i, d) == 1 for i in range(d)) * math.comb((n + k) // d, k // d)
        for d in range(1, g + 1)
        if g % d == 0
    )
    q, r = divmod(total, n + k)
    assert r == 0, f"cyclic average is not an integer at n={n}, k={k}"
    return q


def verify_count_conjecture(n_max: int, k_max: int):
    """Rows (n, k, enumerated, formula, agree) over the requested grid."""
    rows = []
    for n in range(2, n_max + 1):
        for k in range(1, k_max + 1):
            rep = maximal_dominant_weights(n, k, 0)
            rows.append((n, k, rep.count, rep.formula_count, rep.agree))
    return rows
