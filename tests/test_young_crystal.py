import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from kacmax import young_crystal
from kacmax.affine_core import gamma
from kacmax.lattice_paths import count_T
from kacmax.young_crystal import (
    ExtendedYoungDiagram,
    NodeBudgetExceeded,
    _lower_bound,
    color_counts,
    diagram_weight,
    enumerate_weight_space,
    from_color_counts,
    is_crystal_element,
    parse_diagram,
)
from oracles import (
    diagrams_up_to,
    from_color_counts_by_rows,
    is_crystal_element_by_definition,
    weight_space_by_brute_force,
)


def test_fifteen_box_example():
    y = ExtendedYoungDiagram.from_entries((-4, -4, -3, -2, -2))
    assert color_counts(y) == {
        -3: 1, -2: 2, -1: 2, 0: 3, 1: 2, 2: 2, 3: 2, 4: 1,
    }
    assert diagram_weight(y, 8).m == (3, 2, 2, 2, 1, 1, 2, 2)
    assert str(y) == "[-4,-4,-3,-2,-2]"


def test_entry_validation():
    with pytest.raises(ValueError):
        ExtendedYoungDiagram.from_entries((1,))
    with pytest.raises(ValueError):
        ExtendedYoungDiagram.from_entries((-1, -2))  # must weakly increase
    with pytest.raises(ValueError):
        ExtendedYoungDiagram((-1, 0))  # raw constructor wants trimmed entries
    assert ExtendedYoungDiagram.from_entries((-1, 0)).entries == (-1,)
    empty = ExtendedYoungDiagram.from_entries(())
    assert str(empty) == "[]"
    assert empty.depths == ()


def test_parse_roundtrip():
    for text in ("[]", "[-1]", "[-4,-4,-3,-2,-2]"):
        assert str(parse_diagram(text)) == text
    with pytest.raises(ValueError):
        parse_diagram("[-1,-2]")
    with pytest.raises(ValueError):
        parse_diagram("-1,-1")


def test_from_color_counts_rebuilds():
    y = ExtendedYoungDiagram.from_entries((-4, -4, -3, -2, -2))
    assert from_color_counts(color_counts(y)) == y
    assert from_color_counts({}) == ExtendedYoungDiagram.from_entries(())
    # zero counts, near or far, change nothing
    assert from_color_counts({0: 1, -40: 0, 7: 0}) == ExtendedYoungDiagram.from_entries((-1,))
    # a 30-deep column and a 30-long row hold the colors -29 and 29, at the
    # edges of the color window their counts size
    column = ExtendedYoungDiagram.from_depths((30,))
    row = ExtendedYoungDiagram.from_depths((1,) * 30)
    assert from_color_counts({-c: 1 for c in range(30)}) == column
    assert from_color_counts({c: 1 for c in range(30)}) == row


def test_from_color_counts_rejects_gaps():
    # a single box two rows down in column 0 has no box above it
    with pytest.raises(ValueError):
        from_color_counts({-1: 1})
    # column depths must weakly decrease left to right
    with pytest.raises(ValueError):
        from_color_counts({0: 1, 1: 2, 2: 1})
    # lone far colors raise ValueError, not an IndexError from outside the
    # color window their counts size; those beyond the number of nonzero
    # counts are refused at once, where building the 2*10**6 slots of the
    # window of {10**6: 1} took 0.155 s and 44 MB
    for counts in ({40: 1}, {-40: 2}, {0: 1, 9: 3}, {10**6: 1}, {-10**6: 2}, {0: 10**6}):
        t0 = time.process_time()
        with pytest.raises(ValueError, match="no diagram has the color counts"):
            from_color_counts(counts)
        assert time.process_time() - t0 < 0.02, counts
    with pytest.raises(ValueError, match="negative count"):
        from_color_counts({0: -1})
    with pytest.raises(ValueError, match="negative count"):
        from_color_counts({0: 1, 1: 1, -1: 2, 5: -1})


def _built_or_refused(build, counts):
    try:
        return build(counts)
    except ValueError as exc:
        return "negative" if "negative count" in str(exc) else "refused"


def test_from_color_counts_matches_the_row_builder():
    # seeded random count dicts over a window of the colors -5..5 with
    # counts 0..3, some with a negative count or zero counts at far colors;
    # both builders give the same diagram or both refuse, for the same reason
    rng = random.Random(13)
    realizable = 0
    for trial in range(20000):
        window = range(rng.randint(-5, 0), rng.randint(0, 5) + 1)
        counts = {c: rng.choice((0, 0, 0, 0, 1, 1, 2, 3)) for c in window}
        if trial % 50 == 0:
            counts[rng.randint(-5, 5)] = -1
        if trial % 7 == 0:
            counts[rng.choice((-60, 41))] = 0
        want = _built_or_refused(from_color_counts_by_rows, counts)
        assert _built_or_refused(from_color_counts, counts) == want, counts
        realizable += isinstance(want, ExtendedYoungDiagram)
    # and every diagram of at most 7 boxes, from its own counts
    for y in diagrams_up_to(7):
        assert from_color_counts(color_counts(y)) == from_color_counts_by_rows(color_counts(y))
    assert realizable > 1000


@st.composite
def diagrams(draw):
    # any diagram of at most 8 columns and depth 8, in the ell x ell corner or not
    depth_seq = draw(st.lists(st.integers(min_value=1, max_value=8), max_size=8))
    return tuple(-d for d in sorted(depth_seq, reverse=True))


@given(diagrams())
def test_color_counts_roundtrip(entries):
    y = ExtendedYoungDiagram.from_entries(entries)
    counts = color_counts(y)
    assert sum(counts.values()) == sum(y.depths)
    # colors are not reduced: the box in column i, row r has color i - r + 1
    assert all(1 + y.entry(0) <= c < len(y.entries) for c in counts)
    assert from_color_counts(counts) == y


def test_is_crystal_element_examples():
    y22 = ExtendedYoungDiagram.from_entries((-2, -2))
    y21 = ExtendedYoungDiagram.from_entries((-2, -1))
    y1 = ExtendedYoungDiagram.from_entries((-1,))
    empty = ExtendedYoungDiagram.from_entries(())
    assert is_crystal_element((y22, empty), 4)
    assert is_crystal_element((y21, y1), 4)
    # containment fails: second diagram sticks out of the first
    assert not is_crystal_element((y1, y22), 4)


def test_weight_space_smallest_case():
    els = enumerate_weight_space(1, 1)
    assert len(els) == 1
    ((only,),) = els
    assert only.entries == (-1,)


def test_weight_space_frozen_level2():
    els = enumerate_weight_space(2, 2)
    shapes = sorted(tuple(d.entries for d in el) for el in els)
    assert shapes == [
        ((-2, -2), ()),
        ((-2, -1), (-1,)),
    ]


def test_weight_space_sizes_match_path_count():
    for ell in range(1, 7):
        for k in range(1, 5):
            assert len(enumerate_weight_space(ell, k)) == count_T(ell, k), (ell, k)


def test_weight_space_pads_beyond_ell_diagrams():
    # at most ell diagrams are nonempty, so the search runs ell levels and
    # pads; searching all k levels recursed past the interpreter's limit
    for ell, k in ((1, 2000), (3, 600)):
        els = enumerate_weight_space(ell, k)
        pad = (ExtendedYoungDiagram(),) * (k - ell)
        assert els == {ys + pad for ys in enumerate_weight_space(ell, ell)}, (ell, k)
        assert len(els) == count_T(ell, k), (ell, k)


def test_weight_space_size_at_ell_8():
    assert len(enumerate_weight_space(8, 3)) == count_T(8, 3) == 15767


def test_weight_space_accepts_wide_rank():
    # the search takes no rank: every element it finds is a crystal element
    # at every rank n >= 2*ell, not only at the n = 2*ell it checks
    for ell in range(1, 6):
        for k in range(1, 5):
            els = enumerate_weight_space(ell, k)
            for n in range(2 * ell, 2 * ell + 4):
                assert all(is_crystal_element(ys, n) for ys in els), (ell, k, n)


def test_node_budget_guard():
    with pytest.raises(NodeBudgetExceeded):
        enumerate_weight_space(8, 3, node_budget=1000)


def test_node_budget_guard_fires_during_search():
    # passes the up-front refusal (Catalan(2) + 1 = 3 states) but the search
    # needs nine states
    assert young_crystal._least_states(2, 2) == 3
    with pytest.raises(NodeBudgetExceeded, match="search exceeded 4 states"):
        enumerate_weight_space(2, 2, node_budget=4)
    assert len(enumerate_weight_space(2, 2, node_budget=9)) == 2
    with pytest.raises(NodeBudgetExceeded, match="search exceeded 8 states"):
        enumerate_weight_space(2, 2, node_budget=8)


@pytest.mark.parametrize(
    "ell, k, states, size",
    [
        (6, 2, 462, 132), (7, 2, 1485, 429), (6, 3, 5722, 513), (6, 4, 12761, 694),
        (7, 3, 41917, 2761), (5, 5, 1880, 120), (6, 6, 17089, 720), (6, 9, 17089, 720),
    ],
)
def test_search_visits_pinned_states(ell, k, states, size):
    # the exact state count: the search completes within it and not below;
    # at k >= ell it searches min(k, ell) levels, and at k > ell it pads
    # each element with empty diagrams at no further state
    assert len(enumerate_weight_space(ell, k, node_budget=states)) == size
    with pytest.raises(NodeBudgetExceeded, match=f"search exceeded {states - 1} states"):
        enumerate_weight_space(ell, k, node_budget=states - 1)


def test_lower_bound_is_the_smallest_diagram_meeting_the_need():
    # `_lower_bound` against its definition: of the diagrams of the ell x ell
    # corner holding at least ceil(room[c] / left) boxes of every color c,
    # the one with fewest boxes, which every other one contains; the rooms
    # are those the search extends after a chain of one or two nested
    # diagrams that fit the budget, at every left 1..4
    edges = {"no need": 0, "wider than prev": 0}
    for ell in range(1, 5):
        corner = [
            (y, color_counts(y))
            for y in diagrams_up_to(ell * ell)
            if len(y.entries) <= ell and y.entry(0) >= -ell
        ]

        def after(room, prev):
            # the chains one diagram longer, as (room left, last diagram)
            for y, counts in corner:
                rest = list(room)
                for c, v in counts.items():
                    rest[c] -= v
                inside = prev is None or all(y.entry(i) >= prev.entry(i) for i in range(ell))
                if inside and min(rest) >= 0:
                    yield rest, y

        ones = list(after(gamma(2 * ell, ell, 1).m, None))
        for room, prev in ones + [two for one in ones for two in after(*one)]:
            for left in range(1, 5):
                fits = [
                    y for y, counts in corner
                    if all(counts.get(c, 0) >= -(-room[c] // left) for c in range(1 - ell, ell))
                ]
                low = min(fits, key=lambda y: y.boxes)
                assert all(y.entry(i) <= low.entry(i) for y in fits for i in range(ell))
                want = list(low.depths) + [0] * (ell + 1 - len(low.depths))
                assert _lower_bound(room, left, ell) == want, (room, left)
                edges["no need"] += not any(room)
                edges["wider than prev"] += len(low.depths) > len(prev.depths)
    assert all(edges.values()), edges


@pytest.mark.parametrize("ell", range(1, 7))
def test_up_front_refusal_is_a_lower_bound(ell, monkeypatch):
    # the bound is the root step plus one state per element: Catalan(l) + 1
    # at k >= 2, and 2 at k = 1, where the one element is built directly
    catalan = math.comb(2 * ell, ell) // (ell + 1)
    bounds = {1: 2, 2: catalan + 1, 3: catalan + 1}
    for k, least in bounds.items():
        with pytest.raises(NodeBudgetExceeded, match=f"at least {least} states"):
            enumerate_weight_space(ell, k, node_budget=least - 1)
    # without the refusal, the search still visits at least the bound, and
    # at k = 1 exactly the bound
    monkeypatch.setattr(young_crystal, "_least_states", lambda k, ell: 0)
    for k, least in bounds.items():
        with pytest.raises(NodeBudgetExceeded, match=f"search exceeded {least - 1} states"):
            enumerate_weight_space(ell, k, node_budget=least - 1)
    assert len(enumerate_weight_space(ell, 1, node_budget=2)) == 1


def test_is_crystal_element_matches_definition():
    rng = random.Random(20260)
    members = 0
    for trial in range(20000):
        k = rng.randint(1, 4)
        n = rng.randint(2, 8)
        ys = []
        for _ in range(k):
            width = rng.randint(0, 5)
            depths = sorted((rng.randint(1, 6) for _ in range(width)), reverse=True)
            ys.append(ExtendedYoungDiagram.from_depths(depths))
        if trial % 2:
            # a chain runs from the largest diagram down, so members occur
            ys.sort(key=lambda y: y.boxes, reverse=True)
        want = is_crystal_element_by_definition(ys, n)
        assert is_crystal_element(ys, n) == want, (ys, n)
        members += want
    assert members > 1000
    for check in (is_crystal_element, is_crystal_element_by_definition):
        with pytest.raises(ValueError, match="at least one diagram"):
            check((), 4)
        with pytest.raises(ValueError, match="n >= 2"):
            check((ExtendedYoungDiagram(()),), 1)


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_weight_space_matches_brute_force(ell, k):
    # the brute force reads the budget and membership at each rank itself
    els = enumerate_weight_space(ell, k)
    for n in (2 * ell, 2 * ell + 1, 2 * ell + 3):
        assert els == weight_space_by_brute_force(n, k, ell), n


def test_weight_space_far_above_ell_checks_before_padding():
    # the search runs at min(k, ell) levels and asserts membership before it
    # pads, so k = 10**5 costs about what k = ell does
    start = time.process_time()
    els = enumerate_weight_space(4, 10**5)
    assert time.process_time() - start < 1
    padding = (ExtendedYoungDiagram(),) * (10**5 - 4)
    assert els == {ys + padding for ys in enumerate_weight_space(4, 4)}
    assert len(els) == count_T(4, 4)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
