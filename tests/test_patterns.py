import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from kacmax.lattice_paths import LatticePath, count_T
from kacmax.patterns import (
    _squares_by_rows,
    bjs_path_to_perm,
    bjs_perm_to_path,
    count_avoiding,
    count_avoiding_grid,
    format_perm,
    longest_decreasing,
    parse_perm,
)
from oracles import (
    count_avoiding_bruteforce,
    count_by_patience_sorting,
    inverse_rsk,
    is_prime_by_miller_rabin,
    mult_by_gessel,
    rsk,
    squares_by_rows_by_hooks,
)


def test_parse_and_format():
    assert parse_perm("1342") == (1, 3, 4, 2)
    assert parse_perm("1,3,4,2") == (1, 3, 4, 2)
    assert parse_perm("10,2,1,3,4,5,6,7,8,9") == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    assert format_perm((1, 3, 4, 2)) == "1342"
    assert format_perm(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"
    with pytest.raises(ValueError):
        parse_perm("1322")
    with pytest.raises(ValueError):
        parse_perm("134")  # not a permutation of 1..3
    for text in ("1,,2", "1,2,", "1,x,2"):
        with pytest.raises(ValueError, match=f"^permutation entries must be integers, got '{text}'$"):
            parse_perm(text)


def test_longest_decreasing():
    assert longest_decreasing((1, 3, 4, 2)) == 2
    assert longest_decreasing((3, 1, 4, 2)) == 2
    assert longest_decreasing((3, 2, 1)) == 3
    assert longest_decreasing((1,)) == 1
    assert longest_decreasing((5, 6, 3, 4, 1, 2)) == 3


def test_rsk_rows_are_the_longest_decreasing_subsequence():
    # Schensted's theorem on every permutation of ell <= 7, and the inverse
    # gives each permutation back
    for ell in range(1, 8):
        for w in itertools.permutations(range(1, ell + 1)):
            P, Q = rsk(w)
            assert len(P) == longest_decreasing(w), w
            assert inverse_rsk(P, Q) == w


def test_bjs_frozen_pairs():
    assert str(bjs_perm_to_path((1, 3, 4, 2))) == "RRUURURU"
    assert str(bjs_perm_to_path((3, 1, 4, 2))) == "RRURUURU"
    assert str(bjs_perm_to_path((1,))) == "RU"
    assert bjs_path_to_perm(LatticePath("RRUURURU")) == (1, 3, 4, 2)
    assert bjs_path_to_perm(LatticePath("RRURUURU")) == (3, 1, 4, 2)
    assert bjs_path_to_perm(LatticePath("RU")) == (1,)


def test_bjs_rejects_decreasing_triples():
    with pytest.raises(ValueError):
        bjs_perm_to_path((3, 2, 1))
    with pytest.raises(ValueError):
        bjs_perm_to_path((4, 1, 3, 2))


def test_bjs_rejects_paths_above_diagonal():
    with pytest.raises(ValueError):
        bjs_path_to_perm(LatticePath("URRU"))
    with pytest.raises(ValueError):
        bjs_path_to_perm(LatticePath("RUURRU"))


def test_bjs_is_a_bijection_on_small_sizes():
    for ell in range(1, 6):
        images = set()
        avoiders = 0
        for w in itertools.permutations(range(1, ell + 1)):
            if longest_decreasing(w) >= 3:
                with pytest.raises(ValueError):
                    bjs_perm_to_path(w)
                continue
            avoiders += 1
            p = bjs_perm_to_path(w)
            assert p.ell == ell
            assert p.weakly_below_diagonal
            assert bjs_path_to_perm(p) == w
            images.add(str(p))
        catalan = math.comb(2 * ell, ell) // (ell + 1)
        assert avoiders == catalan
        assert len(images) == catalan


def test_squares_by_rows_match_cell_hooks():
    # count_avoiding_grid sums this per-row split up to each k; the
    # reference takes every f^lambda from the hooks of all cells of a shape
    # listed by recursion, not from a walk over first-column hooks
    for ell in range(1, 19):
        for max_rows in range(1, ell + 2):
            want = squares_by_rows_by_hooks(ell, max_rows)
            assert _squares_by_rows(ell, max_rows) == want, (ell, max_rows)


def test_count_avoiding_values():
    # shapes of 4 with at most 3 rows: squares of 3, 2, 3, 1 standard fillings
    assert count_avoiding(4, 3) == 3 * 3 + 2 * 2 + 3 * 3 + 1 == 23
    assert count_avoiding(2, 3) == 2
    assert count_avoiding(3, 3) == 6
    assert count_avoiding(1, 1) == 1
    assert count_avoiding(5, 1) == 1


def test_count_avoiding_at_huge_k():
    # no shape of ell has more than ell rows, so the row counts stop there;
    # sized by k, this list asked for about 8 GB
    start = time.process_time()
    assert count_avoiding(3, 10**9) == 6
    assert time.process_time() - start < 1


def test_count_avoiding_catalan_for_one_forbidden_letter():
    # the paper's k = 2 theorem, on small cells and far past them
    for ell in [*range(1, 11), 2000]:
        catalan = math.comb(2 * ell, ell) // (ell + 1)
        assert count_avoiding(ell, 2) == catalan


def test_count_avoiding_builds_its_factorial_table_by_one_running_product():
    # k = 1 is one shape, the single row, so the call is little more than
    # building 0!, ..., 3000!, which one running product does in milliseconds
    start = time.process_time()
    assert count_avoiding(3000, 1) == 1
    assert time.process_time() - start < 0.1


def test_hook_count_matches_bruteforce():
    grid = count_avoiding_grid(6, 4)
    for ell in range(1, 7):
        for k in range(1, 5):
            want = count_avoiding_bruteforce(ell, k)
            assert count_avoiding(ell, k) == grid[ell, k] == want, (ell, k)


def test_bruteforce_guard():
    with pytest.raises(ValueError):
        count_avoiding_bruteforce(11, 3)


def test_count_avoiding_counts_permutations():
    # claim: count_avoiding(ell, k) counts the permutations of 1..ell that
    # avoid the decreasing pattern of length k+1, and count_T gives the same
    # number; the patience DP counts those permutations with no tableaux and
    # no hook formula, and is itself checked against the full scan
    t0 = time.time()
    for ell in range(1, 8):
        for k in range(1, 6):
            assert count_by_patience_sorting(ell, k) == count_avoiding_bruteforce(ell, k), (ell, k)
    cells = [(ell, k) for ell in range(1, 13) for k in range(1, 7)]
    for ell, k in cells + [(20, 3), (18, 4), (16, 5)]:
        want = count_by_patience_sorting(ell, k)
        assert count_avoiding(ell, k) == count_T(ell, k) == want, (ell, k)
    assert time.time() - t0 < 5.0


def test_miller_rabin_is_exact():
    # trial division below 3000; 2^61 - 1 and 2^64 - 59 are prime;
    # 3825123056546413051 = 149491 * 747451 * 34233211 passes the bases
    # 2 ... 23 and must be caught by 29, 31 or 37; past the proved range the
    # test refuses
    primes = [q for q in range(3000) if q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))]
    assert [q for q in range(3000) if is_prime_by_miller_rabin(q)] == primes
    assert is_prime_by_miller_rabin(2**61 - 1)
    assert is_prime_by_miller_rabin(2**64 - 59)
    assert not is_prime_by_miller_rabin(3825123056546413051)
    with pytest.raises(ValueError):
        is_prime_by_miller_rabin(318665857834031151167461)


def test_gessel_determinant_equals_both_routes():
    # claim: the paths and patterns routes both count the permutations with
    # no decreasing subsequence longer than k; Gessel's determinant of
    # Bessel series counts them with no partitions, tableaux or paths, so
    # it is independent of the one sum the two routes share
    cells = [(ell, k) for ell in range(1, 13) for k in range(1, 7)]
    spent = 0.0
    for ell, k in cells + [(30, 6), (40, 8), (42, 5)]:
        start = time.process_time()
        got = mult_by_gessel(ell, k)
        spent += time.process_time() - start
        assert got == count_T(ell, k) == count_avoiding(ell, k), (ell, k)
    assert spent < 3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=2, max_value=6))
def test_count_avoiding_matches_path_count(ell, k):
    assert count_avoiding(ell, k) == count_T(ell, k)


@st.composite
def avoiding_perms(draw):
    ell = draw(st.integers(min_value=1, max_value=7))
    w = tuple(draw(st.permutations(tuple(range(1, ell + 1)))))
    return w


@settings(max_examples=80, deadline=None)
@given(avoiding_perms())
def test_bjs_roundtrip_property(w):
    if longest_decreasing(w) >= 3:
        with pytest.raises(ValueError):
            bjs_perm_to_path(w)
    else:
        assert bjs_path_to_perm(bjs_perm_to_path(w)) == w


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
