"""Pattern-avoiding permutations and their lattice-path bijection.

A permutation avoids the strictly-decreasing pattern of length k+1 exactly
when its longest strictly decreasing subsequence has length <= k; the number
of such permutations of 1..ell equals the sum of squared standard-tableau
counts over partition shapes of ell with at most k rows.  Those counts come
from the hook-length formula, by one walk over the first-column hook lengths
of the shapes: it picks them from the last row up, one recursion level per
row, so it is at most min(k, ell) levels deep, and reads h! off the table of
0!, ..., ell! that _squares_by_rows builds by one running product.  For k = 2
the classical bijection sends each 321-avoiding permutation to a monotone path
weakly below the diagonal, implemented here in both directions.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import mul


def parse_perm(text: str) -> tuple[int, ...]:
    t = text.strip()
    if "," in t:
        try:
            vals = tuple(int(p) for p in t.split(","))
        except ValueError:
            raise ValueError(f"permutation entries must be integers, got {text!r}") from None
    elif t.isdigit():
        vals = tuple(int(ch) for ch in t)
    else:
        raise ValueError(f"permutation text must be digits or comma-separated, got {text!r}")
    if sorted(vals) != list(range(1, len(vals) + 1)):
        raise ValueError(f"not a permutation of 1..{len(vals)}: {text!r}")
    return vals


def format_perm(w: tuple[int, ...]) -> str:
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def longest_decreasing(w) -> int:
    """Length of the longest strictly decreasing subsequence (patience
    sorting on the reversed word)."""
    tails: list[int] = []
    for v in reversed(tuple(w)):
        pos = bisect_left(tails, v)
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
    return len(tails)


def _squares_by_rows(ell, max_rows):
    """by_rows[r] = sum of (f^lambda)^2 over the shapes lambda of ell with
    exactly r rows, r <= min(max_rows, ell), as no shape of ell has more
    rows.  A shape lambda_0 >= ... >= lambda_{r-1} >= 1 is fixed by its
    first-column hooks h_i = lambda_i + r - 1 - i, which fall strictly to
    h_{r-1} >= 1 and sum to ell + r(r-1)/2, and the hook formula reads
    f^lambda = ell! * prod_{i<j} (h_i - h_j) / prod_i h_i!.  One walk per r
    picks the hooks from the last row up, one level per row, reading each h!
    off 0!, ..., ell!, built here by one running product, as h <= h_0 <= ell."""
    fact = list(accumulate(range(1, ell + 1), mul, initial=1))
    rows = range(1, min(max_rows, ell) + 1)
    return [0] + [_hook_walk(fact, r, ell + r * (r - 1) // 2, (), fact[ell], 1) for r in rows]


def _hook_walk(fact, left, total, hooks, numerator, denominator):
    """Sum of (N / D)^2 over the vectors that put `left` more hooks, summing
    to `total`, above the picked `hooks`, each above the one before, where
    N = ell! * prod_{i<j} (h_i - h_j) and D = prod h_i! over the whole
    vector; `numerator` and `denominator` carry them over `hooks`.  A hook
    h leaves left - 1 hooks of at least h + 1, ..., h + left - 1, which
    bounds it, so every vector the walk starts ends at the one hook left."""
    if left == 1:
        for g in hooks:
            numerator *= total - g
        count, rem = divmod(numerator, denominator * fact[total])
        assert rem == 0, hooks + (total,)
        return count * count
    squares = 0
    low = hooks[-1] + 1 if hooks else 1
    high = (total - left * (left - 1) // 2) // left
    for h in range(low, high + 1):
        n = numerator
        for g in hooks:
            n *= h - g
        squares += _hook_walk(fact, left - 1, total - h, hooks + (h,), n, denominator * fact[h])
    return squares


def count_avoiding(ell: int, k: int) -> int:
    """Permutations of 1..ell with no strictly decreasing subsequence of
    length k+1: the sum of (f^lambda)^2 over shapes lambda of ell with at
    most k rows, each f^lambda by the product form of the hook formula over
    its first-column hooks, from a walk at most min(k, ell) levels deep."""
    if ell < 1 or k < 1:
        raise ValueError(f"need ell >= 1 and k >= 1, got ell={ell}, k={k}")
    return sum(_squares_by_rows(ell, k))


def count_avoiding_grid(ell_max: int, k_max: int) -> dict[tuple[int, int], int]:
    """count_avoiding(ell, k) for every 1 <= ell <= ell_max and
    1 <= k <= k_max, from one hook walk per ell over the shapes with at
    most k_max rows: the cell (ell, k) sums the row counts up to k, and a
    cell k > ell holds them all."""
    if ell_max < 1 or k_max < 1:
        raise ValueError(f"need ell >= 1 and k >= 1, got ell={ell_max}, k={k_max}")
    grid: dict[tuple[int, int], int] = {}
    for ell in range(1, ell_max + 1):
        sums = list(accumulate(_squares_by_rows(ell, k_max)))
        for k in range(1, k_max + 1):
            grid[ell, k] = sums[min(k, ell)]
    return grid


def bjs_perm_to_path(w) -> LatticePath:
    """Path image of a 321-avoiding permutation: positions j with inversion
    count c_j > 0 contribute a corner at (c_j + j - 1, j); raises ValueError
    when the permutation contains a strictly decreasing triple."""
    from .lattice_paths import LatticePath

    w = tuple(w)
    if longest_decreasing(w) >= 3:
        raise ValueError(f"{format_perm(w)} contains a strictly decreasing triple")
    ell = len(w)
    moves, x, y = [], 0, 0
    for pos, value in enumerate(w, start=1):
        c = sum(1 for later in w[pos:] if later < value)
        if c > 0:
            tx = c + pos - 1
            assert tx >= x and pos >= y, (w, pos, c)  # corners move monotonically
            moves.append("R" * (tx - x))
            moves.append("U" * (pos - y))
            x, y = tx, pos
    moves.append("R" * (ell - x))
    moves.append("U" * (ell - y))
    return LatticePath("".join(moves))


def bjs_path_to_perm(p: LatticePath) -> tuple[int, ...]:
    """Permutation whose image is the path: every maximal vertical run except
    the last, topping out at (v, j), forces value v + 1 at position j; the
    remaining values fill the remaining positions in increasing order.
    Raises ValueError when the path strays above the diagonal."""
    if not p.weakly_below_diagonal:
        raise ValueError(f"path {p.moves} crosses above the main diagonal")
    ell = p.ell
    run_tops, x, y = [], 0, 0
    for ch, nxt in zip(p.moves, p.moves[1:] + "R"):
        if ch == "R":
            x += 1
        else:
            y += 1
            if nxt != "U":
                run_tops.append((x, y))
    placed = {j: v + 1 for v, j in run_tops[:-1]}
    rest = iter(sorted(set(range(1, ell + 1)) - set(placed.values())))
    return tuple(placed.get(pos) or next(rest) for pos in range(1, ell + 1))
