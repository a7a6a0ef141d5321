import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from kacmax.affine_core import gamma
from kacmax.lattice_paths import count_T
from kacmax.young_crystal import (
    ExtendedYoungDiagram,
    NodeBudgetExceeded,
    color_counts,
    diagram_weight,
    enumerate_weight_space,
    from_color_counts,
    is_crystal_element,
    parse_diagram,
)


def test_fifteen_box_example():
    y = ExtendedYoungDiagram.from_entries((-4, -4, -3, -2, -2))
    assert color_counts(y, 8) == {
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
    assert from_color_counts(color_counts(y, 8)) == y
    assert from_color_counts({}) == ExtendedYoungDiagram.from_entries(())


def test_from_color_counts_rejects_gaps():
    # a single box two rows down in column 0 has no box above it
    with pytest.raises(ValueError):
        from_color_counts({-1: 1})
    # column depths must weakly decrease left to right
    with pytest.raises(ValueError):
        from_color_counts({0: 1, 1: 2, 2: 1})
    with pytest.raises(ValueError):
        from_color_counts({0: -1})


@st.composite
def square_diagrams(draw):
    # diagrams that fit in an ell x ell corner, where no two boxes share a color
    ell = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=0, max_value=ell))
    depth_seq = draw(
        st.lists(
            st.integers(min_value=1, max_value=ell), min_size=width, max_size=width
        )
    )
    depths = tuple(sorted(depth_seq, reverse=True))
    return ell, tuple(-d for d in depths)


@given(square_diagrams())
def test_color_counts_roundtrip(case):
    ell, entries = case
    n = 2 * ell
    y = ExtendedYoungDiagram.from_entries(entries)
    counts = color_counts(y, n)
    assert sum(counts.values()) == sum(y.depths)
    assert all(-(n // 2) < c <= n // 2 for c in counts)
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
    els = enumerate_weight_space(2, 1, 1)
    assert len(els) == 1
    ((only,),) = els
    assert only.entries == (-1,)


def test_weight_space_frozen_level2():
    els = enumerate_weight_space(4, 2, 2)
    shapes = sorted(tuple(d.entries for d in el) for el in els)
    assert shapes == [
        ((-2, -2), ()),
        ((-2, -1), (-1,)),
    ]


def test_weight_space_sizes_match_path_count():
    for ell in (1, 2, 3):
        for k in (1, 2, 3):
            els = enumerate_weight_space(2 * ell, k, ell)
            assert len(els) == count_T(ell, k), (ell, k)


def test_weight_space_accepts_wide_rank():
    # rank above twice the shape size changes nothing but the coloring
    assert len(enumerate_weight_space(7, 2, 3)) == count_T(3, 2)


def test_node_budget_guard():
    with pytest.raises(NodeBudgetExceeded):
        enumerate_weight_space(16, 3, 8, node_budget=1000)


def test_node_budget_guard_fires_during_search():
    # passes the up-front refusal (comb(2,1)^2 = 4) but a chain of ten
    # diagrams needs more than four states
    assert math.comb(2, 1) ** 2 <= 4
    with pytest.raises(NodeBudgetExceeded, match="search exceeded 4 states"):
        enumerate_weight_space(2, 10, 1, node_budget=4)


def _diagrams_up_to(boxes):
    # every diagram with at most `boxes` boxes, as weakly decreasing depths
    def parts(left, cap):
        yield ()
        for d in range(min(left, cap), 0, -1):
            for rest in parts(left - d, d):
                yield (d,) + rest

    return [ExtendedYoungDiagram.from_depths(p) for p in parts(boxes, boxes)]


def _weight_space_by_brute_force(n, k, ell):
    budget = gamma(n, ell, k).m
    fitting = []
    for y in _diagrams_up_to(ell * ell):
        m = diagram_weight(y, n).m
        if all(v <= b for v, b in zip(m, budget)):
            fitting.append((y, m))
    found = set()
    for tup in itertools.product(fitting, repeat=k):
        total = tuple(map(sum, zip(*(m for _, m in tup))))
        ys = tuple(y for y, _ in tup)
        if total == budget and is_crystal_element(ys, n):
            found.add(ys)
    return found


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_weight_space_matches_brute_force(ell, k):
    for n in (2 * ell, 2 * ell + 1):
        assert enumerate_weight_space(n, k, ell) == _weight_space_by_brute_force(n, k, ell)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
