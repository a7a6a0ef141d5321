import time

import pytest
from hypothesis import given, settings, strategies as st

from kacmax.affine_core import is_dominant
from kacmax.maximal_weights import (
    count_formula,
    maximal_dominant_weights,
    verify_count_conjecture,
)
from oracles import (
    count_by_residues,
    kac_maximal_weights,
    mobius,
    qbinomial_columns_mod,
    u_closed_form,
    u_recursive,
)

# number of maximal dominant weights at level 3, by rank
U_VALUES = {2: 2, 3: 4, 4: 5, 5: 7, 6: 10, 7: 12, 8: 15, 9: 19}


def test_u_closed_form_frozen():
    for n, u in U_VALUES.items():
        assert u_closed_form(n) == u


def test_u_recursive_matches_closed_form():
    for n in range(2, 40):
        assert u_recursive(n) == u_closed_form(n)


def test_u_matches_enumeration():
    for n, u in U_VALUES.items():
        report = maximal_dominant_weights(n, 3, 0)
        assert report.count == u
        assert report.formula_count == u
        assert report.agree is True


def test_count_formula_values():
    assert count_formula(9, 4) == 55
    assert count_formula(6, 3) == 10
    assert count_formula(12, 5) == 364
    assert count_formula(5, 2) == 3
    assert count_formula(2, 2) == 2


def test_count_formula_matches_cyclic_sieving():
    # by cyclic sieving (Reiner, Stanton and White, JCTA 108, 2004) the
    # cyclic average equals the sum of the coefficients of q^j, n | j, in
    # [n-1+k choose k]_q; that sum is read here with no divisor sum
    for n in range(2, 60):
        columns = qbinomial_columns_mod(n, 59)
        for k in range(1, 60):
            assert count_formula(n, k) == columns[k][0], (n, k)


def test_weights_match_kac_theorem_at_every_s():
    # an oracle that shares nothing with the tuple families, at every s;
    # the count is also the coefficient of q^s in [n-1+k choose k]_q modulo
    # q^n - 1, as the level-k labels with sum(i*a_i) = s mod n are the
    # k-multisets of Z/n with sum s; at n <= 4 it reaches far in k, where
    # the plateaus grow long and the falls below them many
    k_max = {2: 60, 3: 40, 4: 20}
    t0 = time.time()
    for n in range(2, 13):
        top = k_max.get(n, 5)
        columns = qbinomial_columns_mod(n, top)
        for k in range(1, top + 1):
            for s in range(n):
                report = maximal_dominant_weights(n, k, s)
                assert [w.m for w in report.weights] == kac_maximal_weights(n, k, s), (n, k, s)
                assert report.count == columns[k][s], (n, k, s)
    assert time.time() - t0 < 30.0


def test_mobius_values():
    assert [mobius(m) for m in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_count_matches_residue_formula_at_every_s():
    # the roots-of-unity count of Kac's theorem, a closed form at every s,
    # on all 308 cells 2 <= n <= 12, 2 <= k <= 5; at s = 0 it is the
    # paper's necklace formula, read term by term another way
    cells = 0
    for n in range(2, 13):
        for k in range(2, 6):
            assert count_by_residues(n, k, 0) == count_formula(n, k), (n, k)
            for s in range(n):
                want = count_by_residues(n, k, s)
                assert maximal_dominant_weights(n, k, s).count == want, (n, k, s)
                cells += 1
    assert cells == 308


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=1, max_value=8))
def test_count_formula_is_a_positive_integer(n, k):
    value = count_formula(n, k)
    assert isinstance(value, int)
    assert value >= 1


def test_level_one_has_single_maximal_weight():
    for n in (2, 3, 5, 8):
        for s in range(n):
            report = maximal_dominant_weights(n, 1, s)
            assert report.count == 1
            (only,) = report.weights
            assert only.m == (0,) * n


def test_level3_rank6_weights_frozen():
    report = maximal_dominant_weights(6, 3, 0)
    assert [w.m for w in report.weights] == [
        (0, 0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0, 0),
        (2, 0, 0, 0, 0, 1),
        (2, 1, 0, 0, 0, 0),
        (2, 1, 0, 0, 0, 1),
        (3, 1, 0, 0, 1, 2),
        (3, 2, 1, 0, 0, 1),
        (3, 2, 1, 0, 1, 2),
        (4, 2, 0, 1, 2, 3),
        (4, 3, 2, 1, 0, 2),
    ]


def test_level2_rank4_with_marked_node():
    report = maximal_dominant_weights(4, 2, 1)
    assert [w.m for w in report.weights] == [(0, 0, 0, 0), (1, 1, 0, 0)]
    assert report.formula_count is None
    assert report.agree is None


def test_weights_are_sorted_and_distinct():
    report = maximal_dominant_weights(7, 4, 2)
    ms = [w.m for w in report.weights]
    assert ms == sorted(ms)
    assert len(ms) == len(set(ms))
    assert report.count == len(ms)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=7),
)
def test_all_reported_weights_are_dominant(n, k, s):
    if s >= n:
        s %= n
    report = maximal_dominant_weights(n, k, s)
    for w in report.weights:
        assert w.n == n and w.k == k and w.s == s
        assert is_dominant(w)


def test_verify_count_conjecture_rows():
    rows = verify_count_conjecture(6, 3)
    assert all(agree for (_, _, _, _, agree) in rows)
    assert (6, 3, 10, 10, True) in rows
    assert len(rows) == 5 * 3


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
