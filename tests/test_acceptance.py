"""End-to-end acceptance checks.

Each test locks one headline claim of the library to frozen values and prints
a one-line verdict, so `pytest -v tests/test_acceptance.py` reads as a
criterion-by-criterion report.  Budgets are generous; everything here finishes
in well under the stated limits on a laptop.
"""

import itertools
import math
import time

import pytest

from kacmax.lattice_paths import (
    count_T,
    count_T_grid,
    enumerate_T,
    paths_to_ytuple,
    ytuple_to_paths,
)
from kacmax.maximal_weights import maximal_dominant_weights, verify_count_conjecture
from kacmax.patterns import (
    bjs_path_to_perm,
    bjs_perm_to_path,
    count_avoiding,
    count_avoiding_grid,
    longest_decreasing,
)
from kacmax.tuple_sets import enumerate_M
from kacmax.young_crystal import enumerate_weight_space
from oracles import (
    enumerate_S_bruteforce,
    family_of,
    gessel_4321_avoiders,
    level2_explicit_weights,
    u_closed_form,
    u_recursive,
)

# level-3 boundary tuples for small rank, by (x_1, x_{n-1}) column
LEVEL3_TUPLES = {
    2: {(0, 0): {(0,)}, (1, 1): {(1,)}, (1, 2): set(), (2, 1): set()},
    3: {(0, 0): {(0, 0)}, (1, 1): {(1, 1)}, (1, 2): {(1, 2)}, (2, 1): {(2, 1)}},
    4: {
        (0, 0): {(0, 0, 0)},
        (1, 1): {(1, 1, 1), (1, 2, 1)},
        (1, 2): {(1, 2, 2)},
        (2, 1): {(2, 2, 1)},
    },
    5: {
        (0, 0): {(0, 0, 0, 0)},
        (1, 1): {(1, 1, 1, 1), (1, 2, 2, 1)},
        (1, 2): {(1, 2, 2, 2), (1, 2, 3, 2)},
        (2, 1): {(2, 2, 2, 1), (2, 3, 2, 1)},
    },
    6: {
        (0, 0): {(0, 0, 0, 0, 0)},
        (1, 1): {(1, 1, 1, 1, 1), (1, 2, 2, 2, 1), (1, 2, 3, 2, 1)},
        (1, 2): {(1, 2, 2, 2, 2), (1, 2, 3, 3, 2), (1, 2, 3, 4, 2)},
        (2, 1): {(2, 2, 2, 2, 1), (2, 3, 3, 2, 1), (2, 4, 3, 2, 1)},
    },
}

U_SMALL = {2: 2, 3: 4, 4: 5, 5: 7, 6: 10}

# multiplicity grid, rows ell = 2..10, columns k = 3..9
MULT_TABLE = {
    2: (2, 2, 2, 2, 2, 2, 2),
    3: (6, 6, 6, 6, 6, 6, 6),
    4: (23, 24, 24, 24, 24, 24, 24),
    5: (103, 119, 120, 120, 120, 120, 120),
    6: (513, 694, 719, 720, 720, 720, 720),
    7: (2761, 4582, 5003, 5039, 5040, 5040, 5040),
    8: (15767, 33324, 39429, 40270, 40319, 40320, 40320),
    9: (94359, 261808, 344837, 361302, 362815, 362879, 362880),
    10: (586590, 2190688, 3291590, 3587916, 3626197, 3628718, 3628799),
}

CATALAN = (1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)

# (ell, k) -> multiplicity at the size of the benchmark's multiplicity jobs
WORKLOAD_SCALE = {
    (42, 7): 11752752321106538759393231453024052438736857302775,
    (39, 8): 3102297689747485295739173809023035225013254048,
}


def _families_union(s, n, x1, xn1):
    out = set()
    for fam in (1, 2, 3, 4, 5):
        out |= enumerate_M(fam, s, n, x1, xn1)
    return out


def test_criterion_1_level3_boundary_table():
    t0 = time.time()
    for n, columns in LEVEL3_TUPLES.items():
        total = 0
        for (x1, xn1), want in columns.items():
            got = _families_union(0, n, x1, xn1)
            assert got == want, (n, x1, xn1)
            total += len(got)
        assert total == U_SMALL[n]
    assert time.time() - t0 < 1.0
    print("criterion 1 (level-3 boundary table, ranks 2-6): pass")


def test_criterion_2_multiplicity_table():
    t0 = time.time()
    for ell in range(2, 9):
        for j, k in enumerate(range(3, 10)):
            assert count_T(ell, k) == MULT_TABLE[ell][j], (ell, k)
    # spot checks on the two largest rows
    assert count_T(9, 3) == 94359
    assert count_T(10, 3) == 586590
    assert count_T(9, 4) == 261808
    assert count_T(10, 9) == 3628799
    # every cell again, from one path walk and one hook walk per ell
    paths, patterns = count_T_grid(10, 9), count_avoiding_grid(10, 9)
    for ell, row in MULT_TABLE.items():
        for k, want in zip(range(3, 10), row):
            assert paths[ell, k] == patterns[ell, k] == want, (ell, k)
    assert time.time() - t0 < 600.0
    print("criterion 2 (multiplicity table, ell 2-10 x k 3-9): pass")


def test_criterion_2_workload_scale():
    t0 = time.time()
    for (ell, k), want in WORKLOAD_SCALE.items():
        assert count_T(ell, k) == count_avoiding(ell, k) == want, (ell, k)
    assert time.time() - t0 < 60.0
    print("criterion 2 (paths = patterns at (42,7) and (39,8)): pass")


def test_criterion_3_catalan_column():
    t0 = time.time()
    for ell, want in zip(range(1, 11), CATALAN):
        assert count_T(ell, 2) == want
        assert want == math.comb(2 * ell, ell) // (ell + 1)
    # closed forms that depend on neither the path DP nor the hook formula:
    # Catalan numbers at level 2, and every permutation once k >= ell
    for ell in range(1, 41):
        catalan = math.comb(2 * ell, ell) // (ell + 1)
        assert count_T(ell, 2) == count_avoiding(ell, 2) == catalan, ell
    for ell in range(1, 13):
        for k in (ell, ell + 1):
            assert count_T(ell, k) == count_avoiding(ell, k) == math.factorial(ell), (ell, k)
    assert time.time() - t0 < 1.0
    print("criterion 3 (Catalan at k = 2 for ell <= 40, ell! at k >= ell for ell <= 12): pass")


def test_criterion_3_gessel_column():
    # the k = 3 column against a closed form that depends on neither the
    # path walk nor the hook formula
    t0 = time.time()
    assert [gessel_4321_avoiders(ell) for ell in range(8)] == [1, 1, 2, 6, 23, 103, 513, 2761]
    paths, patterns = count_T_grid(120, 3), count_avoiding_grid(120, 3)
    for ell in range(1, 121):
        assert paths[ell, 3] == patterns[ell, 3] == gessel_4321_avoiders(ell), ell
    assert time.time() - t0 < 4.0
    print("criterion 3 (Gessel's 4321-avoider count at k = 3 for ell <= 120): pass")


def test_criterion_4_three_routes_agree():
    t0 = time.time()
    grid = [(ell, k) for ell in (1, 2, 3, 4) for k in (2, 3)]
    grid += [(ell, 4) for ell in (1, 2, 3)]
    for ell, k in grid:
        by_paths = count_T(ell, k)
        by_crystal = len(enumerate_weight_space(ell, k))
        by_patterns = count_avoiding(ell, k)
        assert by_paths == by_crystal == by_patterns, (ell, k)
    assert time.time() - t0 < 300.0
    print("criterion 4 (paths = crystal = patterns on the small grid): pass")


def test_criterion_4_wider_grid():
    t0 = time.time()
    for ell in range(1, 7):
        for k in (2, 3, 4):
            by_paths = count_T(ell, k)
            by_crystal = len(enumerate_weight_space(ell, k))
            by_patterns = count_avoiding(ell, k)
            assert by_paths == by_crystal == by_patterns, (ell, k)
    assert len(enumerate_weight_space(7, 3)) == count_T(7, 3) == 2761
    assert time.time() - t0 < 300.0
    print("criterion 4 (paths = crystal = patterns for ell <= 6, k 2-4; ell 7 at k 3): pass")


def test_criterion_5_count_conjecture():
    t0 = time.time()
    rows = verify_count_conjecture(12, 5)
    assert len(rows) == 11 * 5
    for n, k, count, formula, agree in rows:
        assert agree and count == formula, (n, k)
    assert time.time() - t0 < 60.0
    print("criterion 5 (cyclic-sieving count formula, n <= 12, k <= 5): pass")


def test_criterion_6_families_partition_the_system():
    t0 = time.time()
    for n in range(2, 10):
        for s in range(n):
            for x1 in range(5):
                for xn1 in range(5 - x1):
                    fams = [enumerate_M(f, s, n, x1, xn1) for f in (1, 2, 3, 4, 5)]
                    union = set()
                    for f in fams:
                        union |= f
                    assert union == set(
                        enumerate_S_bruteforce(n, s, x1, xn1)
                    ), (n, s, x1, xn1)
                    if s > 0:
                        for a, b in itertools.combinations(fams, 2):
                            assert not (a & b), (n, s, x1, xn1)
                        for f, fam in enumerate(fams, 1):
                            for x in fam:
                                assert family_of(x, s) == f, (n, s, x1, xn1, x)
    assert time.time() - t0 < 120.0
    print("criterion 6 (five families partition the solution set by shape, n <= 9): pass")


def test_criterion_7_three_u_routes():
    t0 = time.time()
    for n in range(2, 15):
        closed = u_closed_form(n)
        assert closed == u_recursive(n)
        assert closed == maximal_dominant_weights(n, 3, 0).count
    assert time.time() - t0 < 1.0
    print("criterion 7 (closed form = recursion = enumeration, n <= 14): pass")


def test_criterion_8_bijections_roundtrip():
    t0 = time.time()
    for ell in range(1, 8):
        seen = 0
        for w in itertools.permutations(range(1, ell + 1)):
            if longest_decreasing(w) >= 3:
                continue
            seen += 1
            p = bjs_perm_to_path(w)
            assert bjs_path_to_perm(p) == w
        assert seen == math.comb(2 * ell, ell) // (ell + 1)
    grid = [(ell, k) for ell in (1, 2, 3, 4) for k in (2, 3)]
    grid += [(ell, 4) for ell in (1, 2, 3)]
    for ell, k in grid:
        for seq in enumerate_T(ell, k):
            assert ytuple_to_paths(paths_to_ytuple(seq), ell) == seq
    assert time.time() - t0 < 60.0
    print("criterion 8 (both bijections round-trip exactly): pass")


def test_criterion_9_level2_explicit_description():
    t0 = time.time()
    for n in range(2, 25):
        for s in range(n):
            got = [w.m for w in maximal_dominant_weights(n, 2, s).weights]
            want = [w.m for w in level2_explicit_weights(n, s)]
            assert got == want, (n, s)
    assert time.time() - t0 < 1.0
    print("criterion 9 (level-2 weights match the explicit description, n <= 24): pass")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
