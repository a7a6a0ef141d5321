import math

import pytest
from hypothesis import given, strategies as st

from kacmax.affine_core import (
    AlphaExpansion,
    catalan_floor,
    check_params,
    gamma,
    is_dominant,
    weight_from_x,
)
from kacmax.maximal_weights import count_formula, maximal_dominant_weights
from kacmax.tuple_sets import enumerate_M
from kacmax.young_crystal import (
    ExtendedYoungDiagram,
    diagram_weight,
    enumerate_weight_space,
    is_crystal_element,
)
from oracles import (
    cartan_entry,
    enumerate_S_bruteforce,
    is_dominant_by_matrix,
    level2_explicit_weights,
    u_closed_form,
    u_recursive,
)

_Y = ExtendedYoungDiagram.from_entries((-1,))

# each entry point called with n = 1, k = 0 or s = n, wherever it takes that
# argument, and the rank-free crystal search with ell = 0
_OUT_OF_RANGE = {
    "check_params n": lambda: check_params(1),
    "check_params k": lambda: check_params(3, 0),
    "check_params s": lambda: check_params(3, 1, 3),
    "AlphaExpansion n": lambda: AlphaExpansion(1, 1, 0, (0,)),
    "AlphaExpansion k": lambda: AlphaExpansion(3, 0, 0, (0, 0, 0)),
    "AlphaExpansion s": lambda: AlphaExpansion(3, 1, 3, (0, 0, 0)),
    "maximal_dominant_weights n": lambda: maximal_dominant_weights(1, 2, 0),
    "maximal_dominant_weights k": lambda: maximal_dominant_weights(3, 0, 0),
    "maximal_dominant_weights s": lambda: maximal_dominant_weights(3, 2, 3),
    "count_formula n": lambda: count_formula(1, 2),
    "count_formula k": lambda: count_formula(3, 0),
    "u_closed_form n": lambda: u_closed_form(1),
    "u_recursive n": lambda: u_recursive(1),
    "level2_explicit_weights n": lambda: level2_explicit_weights(1, 0),
    "level2_explicit_weights s": lambda: level2_explicit_weights(3, 3),
    "enumerate_M n": lambda: enumerate_M(5, 0, 1, 0, 0),
    "enumerate_M s": lambda: enumerate_M(5, 3, 3, 0, 0),
    "enumerate_S_bruteforce n": lambda: enumerate_S_bruteforce(1, 0, 0, 0),
    "enumerate_S_bruteforce s": lambda: enumerate_S_bruteforce(3, 3, 0, 0),
    "diagram_weight n": lambda: diagram_weight(_Y, 1),
    "is_crystal_element n": lambda: is_crystal_element((_Y,), 1),
    "enumerate_weight_space ell": lambda: enumerate_weight_space(0, 1),
    "enumerate_weight_space k": lambda: enumerate_weight_space(2, 0),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_entry_points_reject_out_of_range_params(case):
    with pytest.raises(ValueError, match=r"^need "):
        _OUT_OF_RANGE[case]()


def test_cartan_entries_generic():
    # pins the reference matrix that `is_dominant_by_matrix` reads
    assert [[cartan_entry(4, i, j) for j in range(4)] for i in range(4)] == [
        [2, -1, 0, -1],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [-1, 0, -1, 2],
    ]


def test_cartan_entries_rank_one_affine():
    # n = 2 is special: the two nodes are doubly linked
    assert [[cartan_entry(2, i, j) for j in range(2)] for i in range(2)] == [[2, -2], [-2, 2]]


def test_weight_from_x_staircase():
    w = weight_from_x(4, 2, 0, (1, 2, 1))
    assert w.m == (2, 1, 0, 1)
    assert (w.n, w.k, w.s) == (4, 2, 0)


def test_weight_from_x_zero_tuple_is_highest_weight():
    w = weight_from_x(6, 3, 2, (0,) * 5)
    assert w.m == (0,) * 6


def test_weight_from_x_validates():
    with pytest.raises(ValueError):
        weight_from_x(4, 2, 0, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        weight_from_x(4, 2, 0, (1, -1, 0))


def test_gamma_values():
    assert gamma(8, 4, 3).m == (4, 3, 2, 1, 0, 1, 2, 3)
    assert gamma(5, 2, 2).m == (2, 1, 0, 0, 1)
    assert gamma(2, 1, 1).m == (1, 0)
    assert gamma(7, 3, 5).m == (3, 2, 1, 0, 0, 1, 2)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma(5, 3, 2)  # ell beyond floor(n/2)
    with pytest.raises(ValueError):
        gamma(4, 0, 2)


def test_catalan_floor_is_the_first_catalan_past_the_limit():
    # against the binomial formula: Catalan(m) at the first m = 1..ell above
    # the limit, or Catalan(ell) when none is
    catalan = [math.comb(2 * m, m) // (m + 1) for m in range(31)]
    for ell in range(1, 31):
        for limit in (-1, 0, 1, 2, 13, 14, 10**6, 10**8 - 1, 10**8, 10**20):
            want = next((c for c in catalan[1:ell + 1] if c > limit), catalan[ell])
            assert catalan_floor(ell, limit) == want, (ell, limit)


def test_is_dominant_examples():
    assert is_dominant(AlphaExpansion(4, 2, 0, (0, 0, 0, 0)))
    assert is_dominant(AlphaExpansion(4, 2, 0, (1, 0, 0, 0)))
    # 2*(node-0 weight) - alpha_1 is not dominant: pairing with h_1 is -2
    assert not is_dominant(AlphaExpansion(4, 2, 0, (0, 1, 0, 0)))
    # n = 2: alpha_0 pairs with (h_0, h_1) to (2, -2), so k*Lambda_0 - alpha_0
    # pairs to (k - 2, 2), dominant at k = 2 and not at k = 1
    assert is_dominant(AlphaExpansion(2, 2, 0, (1, 0)))
    assert not is_dominant(AlphaExpansion(2, 1, 0, (1, 0)))


def test_highest_weight_is_dominant_every_s():
    for n in range(2, 7):
        for s in range(n):
            for k in (1, 2, 5):
                assert is_dominant(weight_from_x(n, k, s, (0,) * (n - 1)))


@st.composite
def expansions(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    k = draw(st.integers(min_value=1, max_value=6))
    s = draw(st.integers(min_value=0, max_value=n - 1))
    m = tuple(draw(st.integers(min_value=0, max_value=9)) for _ in range(n))
    return AlphaExpansion(n, k, s, m)


@given(expansions())
def test_is_dominant_matches_matrix(w):
    assert is_dominant(w) == is_dominant_by_matrix(w)


@st.composite
def x_tuples(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    x = tuple(draw(st.integers(min_value=0, max_value=6)) for _ in range(n - 1))
    return n, x


@given(x_tuples())
def test_weight_from_x_m_vector_shape(nx):
    n, x = nx
    w = weight_from_x(n, 3, 0, x)
    ell = max(x)
    assert w.m[0] == ell
    assert all(w.m[i] == ell - x[i - 1] for i in range(1, n))
    assert min(w.m) == 0  # some coefficient is always zero


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
