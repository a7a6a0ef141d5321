"""Reference implementations that the tests compare the package against.

No command runs these.  Each one computes an object of the paper, or the
result of a production function, a second way: from the definition, from a
closed form of the paper or the literature, or by a plainer form of the
production algorithm.  Each docstring names what it checks and the tests
that use it.  They are written for clarity, not
speed, and are meant for the small sizes the tests use.
"""

import itertools
import math
import operator
from bisect import bisect_left, bisect_right
from itertools import permutations

from kacmax.affine_core import check_params, gamma, weight_from_x
from kacmax.patterns import longest_decreasing
from kacmax.young_crystal import (
    ExtendedYoungDiagram,
    color_counts,
    diagram_weight,
    is_crystal_element,
)


# -- weights: the affine Cartan matrix and Kac's theorem ---------------------


def cartan_entry(n, i, j):
    """Affine Cartan matrix entry a_ij of the cyclic type, indices mod n.

    Read by `is_dominant_by_matrix`, and pinned by
    test_affine_core::test_cartan_entries_generic and
    test_cartan_entries_rank_one_affine.
    """
    i %= n
    j %= n
    if i == j:
        return 2
    if n == 2:
        # rank-one affine case: the two simple roots pair to -2
        return -2
    if (i - j) % n in (1, n - 1):
        return -1
    return 0


def is_dominant_by_matrix(w):
    """Dominance straight from the definition: (k-1)*Lambda_0 + Lambda_s
    minus A*m is entrywise nonnegative, with A the full affine Cartan matrix.

    Pins `is_dominant`, which reads only the two neighbours of each node, in
    test_affine_core::test_is_dominant_matches_matrix.
    """
    for i in range(w.n):
        val = (w.k - 1 if i == 0 else 0) + (1 if i == w.s else 0)
        val -= sum(cartan_entry(w.n, i, j) * w.m[j] for j in range(w.n))
        if val < 0:
            return False
    return True


def qbinomial_columns_mod(n, k_max):
    """[n-1+k choose k]_q for k = 0..k_max as coefficient lists modulo
    q^n - 1, by the q-Pascal rule G(a, b) = G(a-1, b) + q^a G(a, b-1) with
    G(a, b) = [a+b choose a]_q; multiplying by q^a rotates the list by a.

    By cyclic sieving, coefficient 0 is `count_formula(n, k)`, and
    coefficient s counts the maximal weights at s (see `kac_maximal_weights`).
    Used by test_maximal_weights::test_count_formula_matches_cyclic_sieving
    and test_weights_match_kac_theorem_at_every_s.
    """
    row = [[1] + [0] * (n - 1) for _ in range(k_max + 1)]  # b = 0
    for _ in range(n - 1):
        new = [row[0]]
        for a in range(1, k_max + 1):
            shift = a % n
            rotated = row[a][-shift:] + row[a][:-shift] if shift else row[a]
            new.append([x + y for x, y in zip(new[a - 1], rotated)])
        row = new
    return row


def kac_maximal_weights(n, k, s):
    """The m-vectors of the maximal dominant weights of V((k-1)L0 + Ls) by
    Kac's theorem (Infinite-dimensional Lie algebras, 12.6): one for each
    dominant level-k weight sum_i a_i*L_i in the highest weight's class
    modulo the root lattice, that is sum(a) = k and sum(i*a_i) = s mod n,
    namely the largest weight sum_i a_i*L_i - j*delta below the highest
    weight.  Pairing with the coroots gives the cyclic second differences
    m_{i+1} - 2*m_i + m_{i-1} = a_i - c_i, c the highest weight's labels;
    they fix m up to adding delta = (1, ..., 1), and the maximal weight is
    the one with min m = 0.

    Shares nothing with the tuple families; pins `maximal_dominant_weights`
    at every s in test_maximal_weights::test_weights_match_kac_theorem_at_every_s.
    """
    c = [0] * n
    c[0] += k - 1
    c[s] += 1
    out = []
    for nodes in itertools.combinations_with_replacement(range(n), k):
        if sum(nodes) % n != s:
            continue
        a = [nodes.count(i) for i in range(n)]
        # m_0 = 0 and m_1 = t give m_j = j*t + f_j; closing the cycle at
        # m_n = m_0 fixes t
        f = [0, 0]
        for j in range(1, n):
            f.append(2 * f[j] - f[j - 1] + a[j] - c[j])
        t, r = divmod(-f[n], n)
        assert r == 0, (n, k, s, a)
        m = [j * t + f[j] for j in range(n)]
        assert m[1] - 2 * m[0] + m[n - 1] == a[0] - c[0], (n, k, s, a)
        low = min(m)
        out.append(tuple(v - low for v in m))
    return sorted(out)


def mobius(m):
    """The Moebius function of m >= 1, by trial division: 0 when a square
    divides m, else (-1) to the number of prime factors."""
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def count_by_residues(n, k, s):
    """The number of maximal dominant weights of V((k-1)L0 + Ls) at every s,
    (1/n) * sum over d | gcd(n, k) of c_d(s) * C(n/d + k/d - 1, k/d), with
    Ramanujan's sum c_d(s) = sum over e | gcd(d, s) of mu(d/e) * e.

    By Kac's theorem (see `kac_maximal_weights`) the weights are the
    k-multisets of Z/n with sum s mod n.  Filter them by the n-th roots of
    unity w: the count is (1/n) * sum_j w^(-js) [t^k] prod_a 1/(1 - w^(ja) t).
    When w^j has order d, the product runs over each d-th root of unity n/d
    times, so it is (1 - t^d)^(-n/d), whose t^k coefficient is
    C(n/d + k/d - 1, k/d) when d | k and 0 otherwise.  Summing w^(-js) over
    the j of order d sums the s-th powers of the primitive d-th roots of
    unity, which is c_d(s).  At s = 0, c_d(0) = phi(d), and term by term
    C(n/d + k/d - 1, k/d) / n = C((n+k)/d, k/d) / (n+k), the paper's
    necklace formula `count_formula`.

    Pins `maximal_dominant_weights(n, k, s).count` at every s in
    test_maximal_weights::test_count_matches_residue_formula_at_every_s.
    """
    check_params(n, k, s=s)
    g = math.gcd(n, k)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            h = math.gcd(d, s)
            ramanujan = sum(mobius(d // e) * e for e in range(1, h + 1) if h % e == 0)
            total += ramanujan * math.comb(n // d + k // d - 1, k // d)
    q, r = divmod(total, n)
    assert r == 0, (n, k, s)
    return q


def u_closed_form(n: int) -> int:
    """Level-3, s = 0 count as a quadratic in n (with a shift when 3 | n).

    The paper's level-3 count.  Pinned to frozen values and checked against
    `maximal_dominant_weights(n, 3, 0).count` in
    test_maximal_weights::test_u_closed_form_frozen and
    test_acceptance::test_criterion_7_three_u_routes; its parameter check in
    test_affine_core::test_entry_points_reject_out_of_range_params.
    """
    check_params(n)
    num = (n + 1) * (n + 2) + (4 if n % 3 == 0 else 0)
    q, r = divmod(num, 6)
    assert r == 0, n
    return q


def u_recursive(n: int) -> int:
    """Level-3, s = 0 count via the three-term recursion
    u_m = 2*u_{m-1} - u_{m-2} + e_m with e_m = -1 iff m = 1 (mod 3).

    The paper's recursion for the level-3 count, checked against
    `u_closed_form` in test_maximal_weights::test_u_recursive_matches_closed_form
    and test_acceptance::test_criterion_7_three_u_routes; its parameter check
    in test_affine_core::test_entry_points_reject_out_of_range_params.
    """
    check_params(n)
    u_prev, u_cur = 2, 4  # u_2, u_3
    if n == 2:
        return u_prev
    for m in range(4, n + 1):
        bump = -1 if m % 3 == 1 else 1
        u_prev, u_cur = u_cur, 2 * u_cur - u_prev + bump
    return u_cur


def level2_explicit_weights(n: int, s: int):
    """The level-2 maximal dominant weights in closed form: the highest
    weight plus one staircase family when s = 0, or two when s > 0.

    The paper's explicit level-2 list, checked against
    `maximal_dominant_weights(n, 2, s)` at every n <= 24 and s in
    test_acceptance::test_criterion_9_level2_explicit_description; its
    parameter check in test_affine_core::test_entry_points_reject_out_of_range_params.
    """
    check_params(n, s=s)
    xs = {(0,) * (n - 1)}
    if s == 0:
        for ell in range(1, n // 2 + 1):
            xs.add(tuple(min(i, ell, n - i) for i in range(1, n)))
    else:
        for ell in range(1, s // 2 + 1):
            xs.add(tuple(min(i, ell, max(s - i, 0)) for i in range(1, n)))
        for ell in range(1, (n - s) // 2 + 1):
            xs.add(tuple(0 if i <= s else min(i - s, ell, n - i) for i in range(1, n)))
    return tuple(sorted(weight_from_x(n, 2, s, x) for x in xs))


# -- tuple sets: the defining inequality system ------------------------------


def enumerate_S_bruteforce(n: int, s: int, x1: int, xn1: int) -> frozenset:
    """Definitional backtracking over the inequality system.

    Returns every nonnegative tuple with the given boundary entries whose
    classical-Cartan image is >= 0 away from s and >= -1 at s (s >= 1).  The
    cap B = (n+1)*(x1+xn1+1) can never bind for genuine members (differences
    are concave); it is a safety net, enforced with an assert.

    The paper's claim that the five `enumerate_M` families cover the system
    is checked against it in test_tuple_sets::test_families_cover_the_inequality_system,
    test_members_give_dominant_weights_at_minimal_level,
    test_n2_boundary_mismatch_is_empty, test_bruteforce_respects_boundary and
    test_acceptance::test_criterion_6_families_partition_the_system; its
    parameter check in test_affine_core::test_entry_points_reject_out_of_range_params.
    """
    check_params(n, s=s)
    if x1 < 0 or xn1 < 0:
        raise ValueError(f"boundary entries must be nonnegative, got {x1}, {xn1}")
    if n == 2:
        # single coordinate; (Ax)_1 = 2*x1 >= -1 always holds
        return frozenset({(x1,)}) if x1 == xn1 else frozenset()
    cap = (n + 1) * (x1 + xn1 + 1)

    def slack(pos):  # position labels are 1-based
        return 1 if pos == s else 0

    found = []

    def extend(xs):
        i = len(xs)  # xs holds x_1..x_i
        if i == n - 2:
            full = xs + (xn1,)
            # last two constraints close over the fixed final entry
            lhs = 2 * full[-2] - (full[-3] if n > 3 else 0) - full[-1]
            if lhs < -slack(n - 2):
                return
            if 2 * full[-1] - full[-2] < -slack(n - 1):
                return
            found.append(full)
            return
        # constraint at position i pins down the next entry's range:
        # 2*x_i - x_{i-1} - x_{i+1} >= -slack(i)
        hi = 2 * xs[-1] - (xs[-2] if i >= 2 else 0) + slack(i)
        assert hi <= cap, (n, s, x1, xn1, xs)
        for v in range(0, hi + 1):
            extend(xs + (v,))

    extend((x1,))
    return frozenset(found)


def family_of(x, s):
    """The `enumerate_M` family (1..5) that holds the tuple x, read off its
    shape, for s >= 1.

    Pins the paper's split of the system into five families by where the
    maximal plateau sits relative to s: around s (5), wholly before s with a
    drop (1) or a second plateau (2) right after s, or wholly after s with a
    rise (3) or a second plateau (4) right before s.  With x_0 = x_n = 0 and
    P the positions where x reaches max(x): 5 if min P <= s <= max P;
    otherwise, if max P < s, 1 when s = n-1 or x_s > x_{s+1} and else 2;
    otherwise 3 when s = 1 or x_s > x_{s-1} and else 4.  Used by
    test_acceptance::test_criterion_6_families_partition_the_system, and by
    the CI console-script step on a wider grid.
    """
    y = (0,) + x + (0,)
    n = len(y) - 1
    top = max(x)
    plateau = [i for i in range(1, n) if y[i] == top]
    if plateau[0] <= s <= plateau[-1]:
        return 5
    if plateau[-1] < s:
        return 1 if s == n - 1 or y[s] > y[s + 1] else 2
    return 3 if s == 1 or y[s] > y[s - 1] else 4


def falls_by_definition(top, bottom, d_min, d_max):
    """The tuples (top, ..., bottom) whose drops, read left to right, weakly
    increase and lie in [d_min, d_max], as a set: every nondecreasing drop
    tuple of each length from `combinations_with_replacement`, kept when its
    drops sum to top - bottom and turned into heights by subtracting them in
    turn from top.

    Pins the drop-by-drop recursion of `tuple_sets._falls` in
    test_tuple_sets::test_falls_match_definition.
    """
    out = set()
    for length in range(top - bottom + 1):
        for drops in itertools.combinations_with_replacement(range(d_min, d_max + 1), length):
            if sum(drops) == top - bottom:
                out.add(tuple(itertools.accumulate(drops, operator.sub, initial=top)))
    return out


# -- multiplicity: paths, permutations and shapes ----------------------------


def count_T_grid_by_tuples(ell_max, k_max):
    """The walk of `count_T_grid` with each state kept as a k_max-tuple and
    each tie block found by comparing neighbours, not packed into one int.
    It is a reference kept split by number of parts: a state of r parts
    steps within r parts, and its first zero takes a box in a step of its
    own, where the packed walk keeps one dict and one step rule.

    Pins the packed walk in test_lattice_paths::test_packed_walk_matches_tuple_walk,
    test_packed_walk_with_more_rows_than_boxes,
    test_packed_walk_at_field_width_edges and test_count_T_matches_tuple_walk.
    """
    grid = {}
    by_parts = [{} for _ in range(k_max + 1)]
    by_parts[1][(1,) + (0,) * (k_max - 1)] = 1
    for ell in range(1, ell_max + 1):
        if ell > 1:
            new = [{} for _ in range(k_max + 1)]
            for r in range(1, k_max + 1):
                for state, mult in by_parts[r].items():
                    s = list(state)
                    for idx in range(r):
                        if idx == 0 or s[idx - 1] != s[idx]:
                            s[idx] += 1
                            t = tuple(s)
                            s[idx] -= 1
                            new[r][t] = new[r].get(t, 0) + mult
                    if r < k_max:
                        s[r] = 1
                        new[r + 1][tuple(s)] = mult
            by_parts = new
        total = 0
        for k in range(1, k_max + 1):
            total += sum(m * m for m in by_parts[k].values())
            grid[ell, k] = total
    return grid


def regions_by_cells(seq):
    """The per-color counts of the k regions (Y_1, ..., Y_k) that a path
    tuple cuts from the ell x ell square, read cell by cell: the cells above
    each path form the diagram whose column a-1 has depth ell - H_a, and
    `color_counts` reads its colors.  Y_1 is the diagram above the last
    path, Y_2 the square's content (ell - |c| cells of color c) minus the
    diagram above the first, and Y_i the diagram above path i-2 minus the
    one above path i-1.

    Pins the profile readout of `lattice_paths._regions` and its inverse
    `_path_of` in test_lattice_paths::test_below_region_colors and
    test_regions_match_cells_on_nested_tuples.
    """
    ell = seq.ell
    above = [
        color_counts(ExtendedYoungDiagram.from_depths(ell - h for h in p.heights))
        for p in seq.paths
    ]
    square = {c: ell - abs(c) for c in range(1 - ell, ell)}
    regions = [
        {c: above[-1].get(c, 0) for c in square},
        {c: v - above[0].get(c, 0) for c, v in square.items()},
    ]
    for prev, cur in zip(above, above[1:]):
        regions.append({c: prev.get(c, 0) - cur.get(c, 0) for c in square})
    return regions


def mult_by_freudenthal(n, k, m):
    """The multiplicity of k*Lambda_0 - beta, beta = sum_i m_i alpha_i, in the
    irreducible module L(k*Lambda_0) of affine sl(n), by Freudenthal's
    formula (Kac, Infinite-Dimensional Lie Algebras, ch. 11): with
    lam = k*Lambda_0 and mu = lam - beta,

        ((lam+rho|lam+rho) - (mu+rho|mu+rho)) mult(mu)
            = 2 * sum over alpha > 0, j >= 1 of
                  mult(alpha) * (mu + j*alpha|alpha) * mult(mu + j*alpha).

    The positive roots are the real roots p*delta + alpha_I, p >= 0, with
    alpha_I the sum of the simple roots over a proper cyclic interval I of
    the nodes, each of multiplicity 1, and the imaginary roots p*delta,
    p >= 1, of multiplicity n - 1; delta = alpha_0 + ... + alpha_{n-1}.
    The form is the affine Cartan matrix on the simple roots (whose entry
    between the two nodes of n = 2 is -2, since both neighbours of a node are
    the other node), with (Lambda_0|alpha_i) = [i = 0] and (rho|alpha_i) = 1;
    so (delta|alpha_i) = 0, (alpha_I|alpha_I) = 2, and the left factor is
    2k*m_0 + 2*sum(m) - (beta|beta).  Multiplicities are Weyl invariant, so
    beta is first moved to its dominant conjugate, reflecting at each node
    where mu pairs negatively; once a coordinate of beta goes negative, mu
    is not below lam and the multiplicity is 0.  The left factor is then
    positive for beta != 0, each division is asserted exact, and dominant
    betas are memoized.

    Only the Cartan matrix and the roots enter, no model of the module, so
    it checks the paper's multiplicity theorem, and its rank independence,
    against the Lie algebra itself: count_T in
    test_lattice_paths::test_count_T_matches_freudenthal.
    """
    intervals = [
        [(a + i) % n for i in range(length)] for a in range(n) for length in range(1, n)
    ]
    memo = {}

    def dominant(beta):
        b = list(beta)
        moved = True
        while moved:
            moved = False
            for i in range(n):
                c = (k if i == 0 else 0) - 2 * b[i] + b[i - 1] + b[(i + 1) % n]
                if c < 0:  # reflect at node i: beta -> beta + <mu, h_i> alpha_i
                    b[i] += c
                    if b[i] < 0:
                        return None
                    moved = True
        return tuple(b)

    def mult(beta):
        b = dominant(beta)
        if b is None:
            return 0
        if b not in memo:
            memo[b] = from_formula(b) if any(b) else 1
        return memo[b]

    def from_formula(b):
        form = [2 * b[i] - b[i - 1] - b[(i + 1) % n] for i in range(n)]  # (beta|alpha_i)
        total = 0
        for nodes in intervals:
            inside = set(nodes)
            pair = sum(form[i] for i in nodes)  # (beta|alpha_I) = (beta|p*delta + alpha_I)
            for p in itertools.count():
                alpha = [p + (i in inside) for i in range(n)]
                reach = min(c // a for c, a in zip(b, alpha) if a)
                if reach == 0:
                    break
                for j in range(1, reach + 1):
                    # (mu + j*alpha|alpha) = (lam|alpha) - (beta|alpha) + 2j
                    rest = tuple(c - j * a for c, a in zip(b, alpha))
                    total += (k * alpha[0] - pair + 2 * j) * mult(rest)
        for p in range(1, min(b) + 1):
            for j in range(1, min(b) // p + 1):
                # (mu + j*p*delta|p*delta) = (lam|p*delta) = k*p
                total += (n - 1) * k * p * mult(tuple(c - j * p for c in b))
        left = 2 * k * b[0] + 2 * sum(b) - sum(x * y for x, y in zip(b, form))
        assert left > 0 and 2 * total % left == 0, (n, k, b)
        return 2 * total // left

    return mult(tuple(m))


def count_avoiding_bruteforce(ell: int, k: int) -> int:
    """Same count as `count_avoiding` by scanning every permutation;
    guarded to ell <= 10.

    Checks the hook-formula count and its grid in
    test_patterns::test_hook_count_matches_bruteforce, and the patience DP
    `count_by_patience_sorting` in
    test_patterns::test_count_avoiding_counts_permutations.
    """
    if ell < 1 or k < 1:
        raise ValueError(f"need ell >= 1 and k >= 1, got ell={ell}, k={k}")
    if ell > 10:
        raise ValueError(f"exhaustive scan is restricted to ell <= 10, got {ell}")
    return sum(1 for w in permutations(range(1, ell + 1)) if longest_decreasing(w) <= k)


def count_by_patience_sorting(ell, k):
    """The permutations of 1..ell whose longest increasing subsequence has
    length <= k, which by reversal are as many as those with no decreasing
    subsequence of length k+1 (Schensted 1961).

    The word is read left to right and patience-sorted: the state is, for
    each pile top, how many unplaced values lie below it, a weakly
    increasing tuple.  The next value, with j unplaced values below it, goes
    on the first pile whose entry is above j: that entry becomes j and the
    later ones lose 1, as the value is now placed.  If no entry is above j,
    the value opens pile number len + 1, allowed only up to k piles.  Uses
    no tableaux and no hook formula.

    Checks the claim that `count_avoiding` (and so `count_T`) counts the
    permutations that avoid the decreasing pattern of length k+1, in
    test_patterns::test_count_avoiding_counts_permutations and in CI at
    (25, 4).
    """
    states = {(): 1}
    for unplaced in range(ell, 0, -1):
        new = {}
        for tops, mult in states.items():
            for j in range(unplaced):
                i = bisect_right(tops, j)  # the first pile whose entry is above j
                if i < len(tops):
                    nxt = tops[:i] + (j,) + tuple(c - 1 for c in tops[i + 1 :])
                elif i < k:
                    nxt = tops + (j,)
                else:
                    continue
                new[nxt] = new.get(nxt, 0) + mult
        states = new
    return sum(states.values())


def gessel_4321_avoiders(ell):
    """The 4321-avoiding permutations of 1..ell by Gessel's closed form
    (JCTA 53, 1990), OEIS A005802.

    Depends on neither the path walk nor the hook formula; checks the k = 3
    column of both in test_acceptance::test_criterion_3_gessel_column.
    """
    num = sum(
        math.comb(2 * j, j) * math.comb(ell + 1, j + 1) * math.comb(ell + 2, j + 1)
        for j in range(ell + 1)
    )
    q, r = divmod(num, (ell + 1) ** 2 * (ell + 2))
    assert r == 0, ell
    return q


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime_by_miller_rabin(q):
    """Miller-Rabin with the twelve prime bases 2 ... 37.  It is exact, not
    probabilistic, below 318665857834031151167461, the least composite that
    passes all twelve (Sorenson and Webster, Math. Comp. 86, 2017); larger q
    are refused.

    Picks the primes of `mult_by_gessel`; checked against trial division and
    on known primes and strong pseudoprimes in
    test_patterns::test_miller_rabin_is_exact.
    """
    if q >= _MR_EXACT_BELOW:
        raise ValueError(f"twelve bases are exact only below {_MR_EXACT_BELOW}, got {q}")
    if q < 2:
        return False
    for a in _MR_BASES:
        if q % a == 0:
            return q == a
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _series_mul(a, b, p):
    """a * b mod (x^len(a), p) for coefficient lists of one length, by
    Kronecker substitution: each list is packed into one integer with slots
    wide enough for a full sum of products, multiplied once, and unpacked."""
    n = len(a)
    w = (2 * p.bit_length() + n.bit_length() + 7) // 8
    packed_a, packed_b = (
        int.from_bytes(b"".join(c.to_bytes(w, "little") for c in s), "little") for s in (a, b)
    )
    raw = (packed_a * packed_b).to_bytes(2 * n * w, "little")
    return [int.from_bytes(raw[i * w : (i + 1) * w], "little") % p for i in range(n)]


def _series_inverse(a, p):
    """1 / a mod (x^len(a), p) for a unit series a, by Newton's iteration
    g <- g (2 - a g), which doubles the number of correct terms."""
    n = len(a)
    g = [pow(a[0], -1, p)] + [0] * (n - 1)
    for _ in range(n.bit_length()):
        ag = _series_mul(a, g, p)
        g = _series_mul(g, [(2 - ag[0]) % p] + [-c % p for c in ag[1:]], p)
    return g


def _gessel_mod(ell, k, p):
    """`mult_by_gessel(ell, k)` mod the prime p > 2 ell."""
    n = 2 * ell + 1
    fact = list(itertools.accumulate(range(1, n), lambda f, i: f * i % p, initial=1))
    inv_fact = [pow(f, -1, p) for f in fact]

    def bessel(m):  # I_m(2x) = sum_j x^(2j+m) / (j! (j+m)!), cut after x^(2 ell)
        c = [0] * n
        for j in range((n - 1 - m) // 2 + 1):
            c[2 * j + m] = inv_fact[j] * inv_fact[j + m] % p
        return c

    series = [bessel(m) for m in range(k)]
    rows = [[series[abs(i - j)] for j in range(k)] for i in range(k)]
    det = [1] + [0] * (n - 1)
    for i in range(k):
        # the constant terms stay the identity matrix, so every pivot is a unit
        pivot = rows[i][i]
        det = _series_mul(det, pivot, p)
        inv = _series_inverse(pivot, p)
        row = [_series_mul(e, inv, p) for e in rows[i][i + 1 :]]
        for r in range(i + 1, k):
            f = rows[r][i]
            rows[r][i + 1 :] = [
                [(x - y) % p for x, y in zip(e, _series_mul(f, g, p))]
                for e, g in zip(rows[r][i + 1 :], row)
            ]
    return det[2 * ell] * fact[ell] ** 2 % p


def mult_by_gessel(ell, k):
    """The permutations of 1..ell with no decreasing subsequence longer than
    k, by Gessel's determinant (JCTA 53, 1990):

        sum_n u_k(n) x^(2n) / n!^2 = det[I_(i-j)(2x)]_(i,j=1..k),
        I_m(2x) = sum_j x^(2j+|m|) / (j! (j+|m|)!),

    where u_k(n) counts the permutations of n with no increasing
    subsequence longer than k, as many as those with no decreasing one by
    reversal.  So the count is ell!^2 [x^(2 ell)] of a k x k determinant of
    power series.  It is computed modulo primes just above 2^61 (exact
    Miller-Rabin), by elimination over series in x, not in x^2: the odd
    I_m are not series in x^2, and in x the constant terms form the identity
    matrix, so every pivot is a unit.  Series multiply by Kronecker
    substitution, and the residues are recombined by the Chinese remainder
    theorem until the modulus passes ell!, which bounds the count.  It uses
    no partitions, no tableaux and no lattice paths.

    Checks the multiplicity conjecture's count on both routes, `count_T`
    and `count_avoiding`, in test_patterns::test_gessel_determinant_equals_both_routes
    and in CI at (60, 10), with the patterns route at (80, 10).
    """
    if ell < 1 or k < 1:
        raise ValueError(f"need ell >= 1 and k >= 1, got ell={ell}, k={k}")
    bound, value, modulus, p = math.factorial(ell), 0, 1, 2**61
    while modulus <= bound:
        p += 1
        if not is_prime_by_miller_rabin(p):
            continue
        r = _gessel_mod(ell, k, p)
        value += modulus * ((r - value) * pow(modulus, -1, p) % p)
        modulus *= p
    return value


def rsk(w):
    """Robinson-Schensted row insertion of a permutation w of 1..ell: the
    pair (P, Q) of standard tableaux of one shape, as lists of rows.  Each
    value goes into row 0 and bumps the first entry above it to the next
    row; Q records at which step each box of P was added.  By Schensted
    (1961) the number of rows is the length of w's longest decreasing
    subsequence.

    Checked against `longest_decreasing` in
    test_patterns::test_rsk_rows_are_the_longest_decreasing_subsequence;
    with `inverse_rsk` it decodes `enumerate_T` in
    test_lattice_paths::test_tuples_decode_to_avoiding_permutations.
    """
    P, Q = [], []
    for t, x in enumerate(w, 1):
        for r, row in enumerate(P):
            i = bisect_right(row, x)  # the first entry above x
            if i == len(row):
                break
            row[i], x = x, row[i]
        else:
            r = len(P)
            P.append([])
            Q.append([])
        P[r].append(x)
        Q[r].append(t)
    return P, Q


def inverse_rsk(P, Q):
    """The permutation that `rsk` sends to (P, Q), read from its last step
    back: the box of Q's largest entry leaves P, and its value bumps the
    largest entry below it in each row above; what leaves row 0 is the last
    letter.  Used where `rsk` is, and in CI at (9, 3)."""
    P = [list(row) for row in P]
    Q = [list(row) for row in Q]
    w = []
    for t in range(sum(map(len, Q)), 0, -1):
        r = next(r for r, row in enumerate(Q) if row and row[-1] == t)
        Q[r].pop()
        x = P[r].pop()
        for row in reversed(P[:r]):
            i = bisect_left(row, x) - 1  # the last entry below x
            row[i], x = x, row[i]
        w.append(x)
    return tuple(reversed(w))


def tableaux_of_paths(seq):
    """The pair (P, Q) of standard tableaux that a path tuple of
    `enumerate_T` encodes, read off the paths alone: entry t of Q lies in
    the row of the first path (numbered from 1) with a U at move t - 1, and
    entry t of P in that of the first path with an R at move 2*ell - t; in
    row 0 when no path has one.

    Decodes `enumerate_T` in
    test_lattice_paths::test_tuples_decode_to_avoiding_permutations and in CI
    at (9, 3).
    """
    ell = seq.ell

    def tableau(move, at):
        word = [
            next((i for i, p in enumerate(seq.paths, 1) if p.moves[at(t)] == move), 0)
            for t in range(1, ell + 1)
        ]
        return [[t for t, r in enumerate(word, 1) if r == row] for row in range(max(word) + 1)]

    return tableau("R", lambda t: 2 * ell - t), tableau("U", lambda t: t - 1)


# -- crystals: diagrams and chains -------------------------------------------


def shapes_recursive(total, max_rows, cap=None):
    """The partitions of `total` into at most `max_rows` parts, first part
    largest first, each later part at most the one before.

    Lists the shapes of `squares_by_rows_by_hooks` and the diagrams of
    `diagrams_up_to`.
    """
    if total == 0:
        yield ()
        return
    if max_rows == 0:
        return
    top = total if cap is None else min(cap, total)
    for first in range(top, -(-total // max_rows) - 1, -1):
        for rest in shapes_recursive(total - first, max_rows - 1, first):
            yield (first,) + rest


def squares_by_rows_by_hooks(ell, max_rows):
    """by_rows[r] = sum of (f^lambda)^2 over the shapes lambda of ell with
    exactly r rows, for r <= min(max_rows, ell), each f^lambda being ell!
    over the product of the hook lengths of all cells of lambda, and the
    shapes those of `shapes_recursive`.

    Pins the per-row split of `patterns._squares_by_rows`, which walks the
    first-column hooks only and which `count_avoiding_grid` sums by k, in
    test_patterns::test_squares_by_rows_match_cell_hooks.
    """
    by_rows = [0] * (min(max_rows, ell) + 1)
    for shape in shapes_recursive(ell, max_rows):
        columns = [sum(1 for part in shape if part > j) for j in range(shape[0])]
        hooks = math.prod(
            part - j + columns[j] - i - 1 for i, part in enumerate(shape) for j in range(part)
        )
        f, rem = divmod(math.factorial(ell), hooks)
        assert rem == 0, shape
        by_rows[len(shape)] += f * f
    return by_rows


def diagrams_up_to(boxes):
    """Every diagram with at most `boxes` boxes, from its column depths.

    Used by test_young_crystal::test_from_color_counts_matches_the_row_builder
    and by `weight_space_by_brute_force`.
    """
    return [
        ExtendedYoungDiagram.from_depths(depths)
        for total in range(boxes + 1)
        for depths in shapes_recursive(total, total)
    ]


def from_color_counts_by_rows(counts):
    """The definition `from_color_counts` is checked against, built from
    sets: color c >= 0 with count m puts one box in each of the columns
    c..c+m-1, color c < 0 one in each of the columns 0..m-1, at row
    i - c + 1 of column i; the counts are realizable when every column is a
    gapless prefix of rows and the depths weakly decrease.

    Pins `from_color_counts`, the lower-bound diagram and box-total check
    the crystal search makes at its last level, in
    test_young_crystal::test_from_color_counts_matches_the_row_builder.
    """
    columns = {}
    for c, cnt in counts.items():
        if cnt < 0:
            raise ValueError(f"color {c} has negative count {cnt}")
        start = c if c >= 0 else 0
        for i in range(start, start + cnt):
            columns.setdefault(i, set()).add(i - c + 1)
    depths = []
    for i in range(max(columns, default=-1) + 1):
        rows = columns.get(i, set())
        if rows != set(range(1, len(rows) + 1)):
            raise ValueError(f"counts leave a gap in column {i}")
        depths.append(len(rows))
    if any(a < b for a, b in zip(depths, depths[1:])):
        raise ValueError(f"counts give non-monotone column depths {depths}")
    return ExtendedYoungDiagram.from_depths(depths)


def is_crystal_element_by_definition(diagrams, n):
    """The membership predicate read straight off the definition, one entry
    at a time.

    Pins `is_crystal_element` in
    test_young_crystal::test_is_crystal_element_matches_definition.
    """
    ys = tuple(diagrams)
    k = len(ys)
    if k < 1:
        raise ValueError("need at least one diagram")
    check_params(n)
    width = max((len(y.entries) for y in ys), default=0) + 2
    for a, b in zip(ys, ys[1:]):
        if any(b.entry(i) < a.entry(i) for i in range(width)):
            return False
    first, last = ys[0], ys[-1]
    if any(last.entry(i) > first.entry(i) + n for i in range(width)):
        return False

    def upper(j, i):  # entry of Y_{j+1}, wrapping to the shifted Y_1
        return ys[j].entry(i) if j < k else first.entry(i) + n

    for i in range(width):
        if not any(upper(j + 1, i) > ys[j].entry(i + 1) for j in range(k)):
            return False
    return True


def weight_space_by_brute_force(n, k, ell):
    """The crystal elements of weight k*Lambda_0 - gamma_ell at rank n: every
    k-tuple of diagrams whose weights fit the budget, kept when the weights
    sum to it and `is_crystal_element` accepts the tuple.

    Pins the rank-free search `enumerate_weight_space(ell, k)` at several
    ranks in test_young_crystal::test_weight_space_matches_brute_force.
    """
    budget = gamma(n, ell, k).m
    fitting = []
    for y in diagrams_up_to(ell * ell):
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
