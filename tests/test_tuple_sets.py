import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kacmax.affine_core import is_dominant, weight_from_x
from kacmax.tuple_sets import _falls, _last_fit, _peaks, enumerate_M, format_x
from oracles import enumerate_S_bruteforce, falls_by_definition

# family-5 columns of the level-3 boundary table, frozen by hand
FAMILY5_TABLE = {
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


def test_family5_level3_table():
    for n, columns in FAMILY5_TABLE.items():
        for (x1, xn1), want in columns.items():
            assert set(enumerate_M(5, 0, n, x1, xn1)) == want, (n, x1, xn1)


def test_format_parse_roundtrip():
    assert format_x((1, 2, 3, 2, 1)) == "(1,2,3,2,1)"


def test_last_fit_known_values():
    assert _last_fit(0, 1, 1, 0, 6) == 3
    assert _last_fit(0, 1, 2, 0, 6) == 4
    assert _last_fit(0, 1, 1, 0, 2) == 1
    assert _last_fit(0, 2, 1, 0, 3) == 2
    assert _last_fit(0, 1, 1, 3, 0) == 1
    assert _last_fit(5, 1, 1, 0, 6) == 4  # the start already fails


def test_huge_boundary_entries_return_at_once():
    # the plateau bound is scanned from the start height, not from 0
    assert enumerate_M(5, 0, 3, 10**9, 10**9) == frozenset({(10**9, 10**9)})
    assert enumerate_M(5, 0, 3, 10**9, 1) == frozenset()


def test_enumerate_M_validation():
    with pytest.raises(ValueError):
        enumerate_M(6, 0, 4, 1, 1)
    with pytest.raises(ValueError):
        enumerate_M(5, 4, 4, 1, 1)  # s out of range
    with pytest.raises(ValueError):
        enumerate_M(5, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        enumerate_M(7, 1, 2, 1, 2)  # bad family, even where n = 2 gives the empty set


def test_families_1_to_4_empty_for_s_zero():
    for fam in (1, 2, 3, 4):
        for n in (3, 5, 6):
            assert enumerate_M(fam, 0, n, 2, 1) == frozenset()


def test_mirror_symmetry():
    for n in (4, 5, 6, 7):
        for s in range(1, n):
            for x1, xn1 in [(1, 1), (1, 2), (2, 1), (0, 2)]:
                m1 = enumerate_M(1, s, n, x1, xn1)
                m3 = enumerate_M(3, n - s, n, xn1, x1)
                assert m3 == frozenset(t[::-1] for t in m1)
                m2 = enumerate_M(2, s, n, x1, xn1)
                m4 = enumerate_M(4, n - s, n, xn1, x1)
                assert m4 == frozenset(t[::-1] for t in m2)


def test_n2_boundary_mismatch_is_empty():
    for fam in (1, 2, 3, 4, 5):
        assert enumerate_M(fam, 1, 2, 1, 2) == frozenset()
    assert enumerate_S_bruteforce(2, 1, 1, 2) == frozenset()
    assert enumerate_S_bruteforce(2, 0, 1, 1) == frozenset({(1,)})


@st.composite
def family_cells(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    s = draw(st.integers(min_value=0, max_value=n - 1))
    x1 = draw(st.integers(min_value=0, max_value=3))
    xn1 = draw(st.integers(min_value=0, max_value=3))
    return n, s, x1, xn1


@settings(max_examples=60, deadline=None)
@given(family_cells())
def test_families_cover_the_inequality_system(cell):
    n, s, x1, xn1 = cell
    union = set()
    for fam in (1, 2, 3, 4, 5):
        union |= enumerate_M(fam, s, n, x1, xn1)
    assert union == set(enumerate_S_bruteforce(n, s, x1, xn1))


@settings(max_examples=60, deadline=None)
@given(family_cells())
def test_families_pairwise_disjoint_off_zero(cell):
    n, s, x1, xn1 = cell
    if s == 0:
        return
    fams = [enumerate_M(fam, s, n, x1, xn1) for fam in (1, 2, 3, 4, 5)]
    for a, b in itertools.combinations(fams, 2):
        assert not (a & b)


@settings(max_examples=40, deadline=None)
@given(family_cells())
def test_members_give_dominant_weights_at_minimal_level(cell):
    n, s, x1, xn1 = cell
    k = x1 + xn1 + 1
    for x in enumerate_S_bruteforce(n, s, x1, xn1):
        assert is_dominant(weight_from_x(n, k, s, x))


def test_degenerate_final_plateau():
    # when the last coordinate is 0 the jump target is height zero and the
    # descent after s proceeds by unit steps; these were once dropped
    assert enumerate_M(1, 2, 3, 1, 0) == frozenset({(1, 0)})
    assert enumerate_M(3, 1, 3, 0, 1) == frozenset({(0, 1)})
    assert enumerate_M(1, 3, 4, 2, 0) == frozenset({(2, 1, 0)})
    assert (1, 2, 1, 0) in enumerate_M(1, 4, 5, 1, 0)


def test_bruteforce_respects_boundary():
    for x in enumerate_S_bruteforce(6, 2, 1, 2):
        assert x[0] == 1 and x[-1] == 2


def test_falls_match_definition():
    for top in range(-1, 13):
        for bottom in range(-1, 13):
            for d_min in range(1, 5):
                for d_max in range(7):
                    got = list(_falls(top, bottom, d_min, d_max))
                    assert len(got) == len(set(got)), (top, bottom, d_min, d_max)
                    want = falls_by_definition(top, bottom, d_min, d_max)
                    assert set(got) == want, (top, bottom, d_min, d_max)


def test_peaks_match_definition():
    # a rise (a fall read backwards) to ell, w >= 1 entries at ell, then a
    # fall, kept when its length fits and its level stretch, positions
    # q..q+w-1, holds the cover position (any position when cover = 0)
    by_definition = functools.cache(
        lambda top, bottom, d_max: falls_by_definition(top, bottom, 1, d_max)
    )
    for ell in range(6):
        for x1 in range(5):
            for bottom in range(5):
                for d_max in range(4):
                    for length in range(1, 8):
                        for cover in range(length + 1):
                            want = set()
                            for rise in by_definition(ell, x1, x1):
                                for fall in by_definition(ell, bottom, d_max):
                                    q = len(rise)
                                    w = length + 2 - q - len(fall)
                                    if w >= 1 and (cover == 0 or q <= cover < q + w):
                                        want.add(rise[:0:-1] + (ell,) * w + fall[1:])
                            got = list(_peaks(ell, x1, bottom, d_max, length, cover))
                            cell = (ell, x1, bottom, d_max, length, cover)
                            assert len(got) == len(set(got)), cell
                            assert set(got) == want, cell


def test_falls_of_many_drops():
    # one fall of 2100 drops, far past the interpreter's recursion limit;
    # `kacmax count --n 2100 --k 2` builds it
    assert tuple(_falls(2100, 0, 1, 1)) == (tuple(range(2100, -1, -1)),)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
