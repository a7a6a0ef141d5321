import itertools
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import kacmax
from kacmax.affine_core import gamma
from kacmax.lattice_paths import (
    LatticePath,
    PathSequence,
    count_T,
    count_T_grid,
    enumerate_T,
    is_admissible,
    parse_paths,
    paths_to_ytuple,
    ytuple_to_paths,
    _path_of,
    _regions,
)
from kacmax.patterns import count_avoiding, longest_decreasing
from kacmax.young_crystal import (
    NodeBudgetExceeded,
    enumerate_weight_space,
    is_crystal_element,
    parse_diagram,
)
from oracles import (
    count_T_grid_by_tuples,
    inverse_rsk,
    mult_by_freudenthal,
    regions_by_cells,
    rsk,
    tableaux_of_paths,
)

TRIANGLE_COUNTS = {2: 2, 3: 6, 4: 23}


def test_path_validation():
    with pytest.raises(ValueError):
        LatticePath("")
    with pytest.raises(ValueError):
        LatticePath("RRU")  # unbalanced
    with pytest.raises(ValueError):
        LatticePath("RLUU")
    p = LatticePath("RURU")
    assert p.ell == 2
    assert p.heights == (0, 1)
    assert p.weakly_below_diagonal
    assert not LatticePath("URRU").weakly_below_diagonal


def test_sequence_validation():
    with pytest.raises(ValueError):
        PathSequence(2, 2, (LatticePath("RURU"), LatticePath("RURU")))
    with pytest.raises(ValueError):
        PathSequence(2, 3, (LatticePath("RURU"), LatticePath("RURURU")))
    seq = parse_paths("RURU;RURU")
    assert seq.ell == 2 and seq.k == 3
    assert str(seq) == "RURU;RURU"


def _same_regions(got, want):
    # equal counts under the same colors in the same order
    return [list(r.items()) for r in got] == [list(r.items()) for r in want]


def test_below_region_colors():
    # the cells below a path are Y_2 of the one-path tuple, colored as the
    # crystal model colors the diagram position of each cell
    def below(moves):
        p = LatticePath(moves)
        return {c: v for c, v in _regions(PathSequence(p.ell, 2, (p,)))[1].items() if v}

    assert below("RRUU") == {}
    assert below("RURU") == {0: 1}
    assert below("RURURU") == {-1: 1, 0: 1, 1: 1}
    assert below("RRRUUU") == {}
    assert below("URRRUU") == {-2: 1, -1: 1, 0: 1}
    assert below("UUURRR") == {
        -2: 1, -1: 2, 0: 3, 1: 2, 2: 1,
    }
    # the profile readout equals the cell-by-cell one, and the counts above
    # a path give the path back
    for ell in range(1, 7):
        for p in _all_paths(ell):
            seq = PathSequence(ell, 2, (p,))
            want = regions_by_cells(seq)
            assert _same_regions(_regions(seq), want), str(p)
            assert _path_of(want[0], ell) == p, str(p)
    # counts no path has: a step of two, a negative step, colors outside
    # the square
    assert _path_of({0: 2, 1: 1}, 2) is None
    assert _path_of({-1: 1}, 2) is None
    assert _path_of({2: 1}, 2) is None
    assert _path_of({-2: 1, -1: 1, 0: 1}, 2) is None


@st.composite
def _nested_tuples(draw):
    # k-1 paths by their R positions, sorted position by position so that
    # each path lies weakly above the one before
    ell = draw(st.integers(min_value=1, max_value=20))
    k = draw(st.integers(min_value=2, max_value=5))
    rows = [sorted(draw(st.permutations(range(2 * ell)))[:ell]) for _ in range(k - 1)]
    columns = [sorted(col) for col in zip(*rows)]
    return PathSequence(ell, k, tuple(_path_with_rs(ell, rs) for rs in zip(*columns)))


@settings(max_examples=200, deadline=None)
@given(_nested_tuples())
def test_regions_match_cells_on_nested_tuples(seq):
    want = regions_by_cells(seq)
    assert _same_regions(_regions(seq), want)
    # the counts above p_{k-1}, ..., p_1 are Y_1, Y_1 + Y_k, ...
    above = dict(want[0])
    for p, y in zip(reversed(seq.paths), [{}, *want[:1:-1]]):
        above = {c: v + y.get(c, 0) for c, v in above.items()}
        assert _path_of(above, seq.ell) == p, str(seq)


def test_triangle_counts_frozen():
    for ell, want in TRIANGLE_COUNTS.items():
        assert count_T(ell, 3) == want
        assert len(enumerate_T(ell, 3)) == want


def test_catalan_column():
    for ell in range(1, 11):
        catalan = math.comb(2 * ell, ell) // (ell + 1)
        assert count_T(ell, 2) == catalan


def test_enumeration_matches_count():
    # the grid's columns below k_max come from per-row buckets that a
    # single count_T call never reads
    grid = count_T_grid(4, 4)
    for ell in range(1, 5):
        for k in range(2, 5):
            assert len(enumerate_T(ell, k)) == count_T(ell, k) == grid[ell, k], (ell, k)


def test_enumeration_pads_at_huge_k():
    # at k > ell the tuples are listed at ell diagrams and padded with copies
    # of the last path, so a huge k costs no more than building them; the
    # crystal search pads its chains with empty diagrams on its own
    start = time.process_time()
    got = enumerate_T(4, 10**4)
    assert time.process_time() - start < 1
    short = enumerate_T(4, 4)
    assert got == {PathSequence(4, 10**4, p.paths + p.paths[-1:] * (10**4 - 4)) for p in short}
    assert len(got) == 24
    assert got == {ytuple_to_paths(ys, 4) for ys in enumerate_weight_space(4, 10**4)}


def test_lister_matches_the_crystal_search():
    # enumerate_T reads tableau pairs and never runs the crystal search, so
    # the two listings are independent, and they must agree tuple by tuple
    cells = [(ell, k) for ell in range(1, 7) for k in range(2, 7)] + [(7, 3), (8, 3)]
    for ell, k in cells:
        want = {ytuple_to_paths(ys, ell) for ys in enumerate_weight_space(ell, k)}
        assert enumerate_T(ell, k) == want, (ell, k)


def test_lister_loads_no_crystal_model():
    # a fresh interpreter, because this one has loaded the crystal model
    src = os.path.dirname(os.path.dirname(os.path.abspath(kacmax.__file__)))
    probe = (
        "import sys\n"
        "from kacmax.lattice_paths import enumerate_T\n"
        "assert len(enumerate_T(8, 3)) == 15767\n"
        "print('kacmax.young_crystal' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_tuples_decode_to_avoiding_permutations():
    # each tuple is a pair (P, Q) of standard tableaux of one shape with at
    # most k rows, read back off the paths alone; inverse RSK sends the pairs
    # one to one onto the permutations with no decreasing subsequence longer
    # than k, which is the paper's multiplicity conjecture tuple by tuple
    for ell in range(1, 8):
        for k in (2, 3, 4):
            perms = set()
            for seq in enumerate_T(ell, k):
                P, Q = tableaux_of_paths(seq)
                w = inverse_rsk(P, Q)
                assert rsk(w) == (P, Q), str(seq)
                assert longest_decreasing(w) <= k, str(seq)
                perms.add(w)
            assert len(perms) == count_avoiding(ell, k), (ell, k)


def test_count_T_matches_freudenthal():
    # Freudenthal's formula reads only the Cartan matrix and the roots; the
    # weight k*Lambda_0 - gamma_ell has count_T(ell, k) as its multiplicity
    # at every rank n >= 2*ell
    start = time.process_time()
    for ell in range(1, 7):
        for k in range(1, 5):
            for n in (2 * ell, 2 * ell + 1, 2 * ell + 3):
                got = mult_by_freudenthal(n, k, gamma(n, ell, k).m)
                assert got == count_T(ell, k), (ell, k, n)
    assert time.process_time() - start < 5


def _restricted(grid, ell_max, k_max):
    return {(ell, k): v for (ell, k), v in grid.items() if ell <= ell_max and k <= k_max}


def test_packed_walk_matches_tuple_walk():
    # every grid shape up to (30, 8); the reference's cells do not depend on
    # the grid they come from, so one reference grid serves them all
    want = count_T_grid_by_tuples(30, 8)
    for ell_max in range(1, 31):
        for k_max in range(1, 9):
            assert count_T_grid(ell_max, k_max) == _restricted(want, ell_max, k_max), (ell_max, k_max)


def test_packed_walk_with_more_rows_than_boxes():
    want = count_T_grid_by_tuples(6, 12)
    for ell_max in range(1, 7):
        for k_max in range(ell_max + 1, 13):
            assert count_T_grid(ell_max, k_max) == _restricted(want, ell_max, k_max), (ell_max, k_max)


def test_count_T_matches_tuple_walk():
    # count_T reads the walk's last step, not the grid, so it is checked on
    # its own, at k up to 3 * ell where most rows stay empty
    want = count_T_grid_by_tuples(24, 8)
    for ell in range(1, 25):
        for k in range(1, 9):
            assert count_T(ell, k) == want[ell, k], (ell, k)
    want = count_T_grid_by_tuples(6, 18)
    for ell in range(1, 7):
        for k in range(1, 3 * ell + 1):
            assert count_T(ell, k) == want[ell, k], (ell, k)


def test_walk_keeps_at_most_ell_parts():
    # a state of ell boxes has at most ell nonzero parts, so a huge k costs
    # no more than k = ell
    start = time.process_time()
    assert count_T(3, 10**6) == 6
    grid = count_T_grid(3, 5000)
    assert time.process_time() - start < 1
    assert [grid[3, k] for k in (1, 2, 3, 4, 5000)] == [1, 5, 6, 6, 6]
    assert len(grid) == 3 * 5000


def test_packed_walk_at_field_width_edges():
    # the field width grows by one bit where ell_max + 1 reaches a power of two
    want = count_T_grid_by_tuples(128, 3)
    edges = {ell for j in range(1, 8) for ell in (2**j - 2, 2**j - 1, 2**j)} - {0}
    for ell_max in sorted(edges):
        for k_max in range(1, 4):
            assert count_T_grid(ell_max, k_max) == _restricted(want, ell_max, k_max), (ell_max, k_max)


def test_count_T_single_diagram_column():
    # with one diagram the chain condition forces the full square
    for ell in range(1, 8):
        assert count_T(ell, 1) == 1


def test_smallest_triangles_frozen():
    got = sorted(str(s) for s in enumerate_T(2, 3))
    assert got == ["RRUU;RRUU", "RURU;RURU"]


def _path_with_rs(ell, rs):
    # the path whose R moves come at the 0-based positions rs
    return LatticePath("".join("R" if m in rs else "U" for m in range(2 * ell)))


def _all_paths(ell):
    return [_path_with_rs(ell, rs) for rs in itertools.combinations(range(2 * ell), ell)]


def test_admissibility_filter_is_the_whole_story():
    # reference: filter every dominating tuple of paths whose first path is
    # weakly below the diagonal through is_admissible.  It must give the set
    # enumerate_T reads off the tableau pairs, and the number count_T gives.
    grid = count_T_grid(4, 4)
    for ell in (1, 2, 3, 4):
        all_paths = _all_paths(ell)
        for k in (2, 3, 4):
            tuples = []
            stack = [(p,) for p in all_paths if p.weakly_below_diagonal]
            while stack:
                chosen = stack.pop()
                if len(chosen) == k - 1:
                    tuples.append(PathSequence(ell, k, chosen))
                    continue
                for cand in all_paths:
                    if all(ch >= ph for ch, ph in zip(cand.heights, chosen[-1].heights)):
                        stack.append(chosen + (cand,))
            kept = {str(t) for t in tuples if is_admissible(t)}
            assert kept == {str(t) for t in enumerate_T(ell, k)}, (ell, k)
            assert len(kept) == grid[ell, k], (ell, k)


_BIJECTION_CASES = [
    (ell, k, n) for ell in (1, 2, 3) for k in (2, 3, 4) for n in (2 * ell, 2 * ell + 1)
] + [(4, k, 8) for k in (2, 3)]


@pytest.mark.parametrize("ell,k,n", _BIJECTION_CASES)
def test_bijection_theorem_elementwise(ell, k, n):
    # over every (k-1)-tuple of paths, admissible tuples are exactly those
    # whose regions form a crystal element, and the inverse gives them back
    members = 0
    for chosen in itertools.product(_all_paths(ell), repeat=k - 1):
        seq = PathSequence(ell, k, chosen)
        try:
            ys = paths_to_ytuple(seq)
        except ValueError:
            assert not is_admissible(seq), str(seq)
            continue
        admissible = is_admissible(seq)
        assert admissible == is_crystal_element(ys, n), str(seq)
        if admissible:
            assert ytuple_to_paths(ys, ell) == seq, str(seq)
            members += 1
    assert members == count_T(ell, k)


def test_paths_to_diagrams_frozen():
    seq = parse_paths("RURU;RURU")
    ys = paths_to_ytuple(seq)
    assert [str(y) for y in ys] == ["[-2,-1]", "[-1]", "[]"]
    seq2 = parse_paths("RRUU;RRUU")
    ys2 = paths_to_ytuple(seq2)
    assert [str(y) for y in ys2] == ["[-2,-2]", "[]", "[]"]


def test_paths_to_diagrams_roundtrip():
    cases = [(ell, k) for ell in range(1, 7) for k in (2, 3, 4)] + [(7, 3)]
    for ell, k in cases:
        for seq in enumerate_T(ell, k):
            ys = paths_to_ytuple(seq)
            back = ytuple_to_paths(ys, ell)
            assert back == seq, (ell, k, str(seq))


def test_inadmissible_tuples_rejected():
    # nested the wrong way: second path dips below the first
    bad = PathSequence(2, 3, (LatticePath("RURU"), LatticePath("RRUU")))
    assert not is_admissible(bad)
    with pytest.raises(ValueError):
        paths_to_ytuple(bad)
    # leaves a floating box between the regions
    bad2 = PathSequence(2, 3, (LatticePath("RURU"), LatticePath("URRU")))
    assert not is_admissible(bad2)
    with pytest.raises(ValueError):
        paths_to_ytuple(bad2)
    # cuts into diagrams, yet the third region outgrows the second
    bad3 = parse_paths("RRUU;RURU")
    assert not is_admissible(bad3)
    assert [str(y) for y in paths_to_ytuple(bad3)] == ["[-2,-1]", "[]", "[-1]"]
    # nested and unimodal, but at color 0 the regions Y_2, Y_3, Y_4 hold
    # 2, 1, 1 cells: with Y_2 counted twice that is 5 before Y_4, leaving no
    # room in the 5 cells of that color
    bad4 = parse_paths("RURRURUURU;RUURURURRU;RUUUURRRRU")
    assert not is_admissible(bad4)
    assert not is_crystal_element(paths_to_ytuple(bad4), 10)


def test_enumeration_refuses_more_than_a_million_tuples():
    # the listing refuses up front where Catalan(ell), or else count_T(ell, j),
    # exceeds 10^6 tuples: at (17, 3) and (3000, 3) Catalan(ell) does, and
    # (11, 3) has 3763290 tuples; none of them lists or walks to ell
    for ell, k in ((17, 3), (11, 3), (3000, 3)):
        start = time.process_time()
        with pytest.raises(NodeBudgetExceeded, match="at least"):
            enumerate_T(ell, k)
        assert time.process_time() - start < 0.01, (ell, k)
    with pytest.raises(ValueError):
        enumerate_T(3, 1)


def test_ytuple_to_paths_refuses_ell_below_one():
    empty, box = parse_diagram("[]"), parse_diagram("[-1]")
    for ys in ((empty, empty), (box, empty), (empty, box)):
        for ell in (0, -1):
            with pytest.raises(ValueError, match=f"need ell >= 1, got ell={ell}"):
                ytuple_to_paths(ys, ell)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=4))
def test_members_start_weakly_below(ell, k):
    for seq in enumerate_T(ell, k):
        assert seq.paths[0].weakly_below_diagonal
        for a, b in itertools.pairwise(seq.paths):
            assert all(hb >= ha for ha, hb in zip(a.heights, b.heights))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
