"""Nested lattice paths in a colored square and their diagram readout.

A monotone R/U path from (0,0) to (ell,ell) is stored by its move string;
its height profile H_1 <= ... <= H_ell records the level of the horizontal
step crossing each column a of the ell x ell square.  Each cell takes the
color of its position in a diagram set in the square's top-left corner (see
`young_crystal`), an integer c in 1-ell..ell-1.  With r(m) the number of R
moves among a path's first m, the cells above it hold r(ell + c) - max(c, 0)
of color c: column a's color-c cell lies above column a's step exactly when
that step comes among the first ell + c moves.  A (k-1)-tuple of such paths
cuts the square into k regions, read as a chain of extended Young diagrams.
No rank n enters here: the bijection lives in the ell x ell square, and n
matters only to whether the chain is a crystal element.  Admissible
tuples are counted by a per-color transfer DP, a walk over sorted vectors
of min(k, ell) parts with one step rule: a box to the first member of each
tie block.  They are listed as pairs of standard tableaux of one shape.
The crystal model is imported inside the functions that read it, so a
process that only counts or lists tuples never compiles it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate


class LatticePath(namedtuple("LatticePath", "moves")):
    __slots__ = ()

    def __new__(cls, moves: str) -> "LatticePath":
        if not moves or set(moves) - {"R", "U"}:
            raise ValueError(f"moves must be a nonempty string over R/U, got {moves!r}")
        if moves.count("R") != moves.count("U"):
            raise ValueError(f"path must use equally many R and U moves, got {moves!r}")
        return super().__new__(cls, moves)

    @property
    def ell(self) -> int:
        return self.moves.count("R")

    @property
    def heights(self) -> tuple[int, ...]:
        hs, y = [], 0
        for ch in self.moves:
            if ch == "U":
                y += 1
            else:
                hs.append(y)
        return tuple(hs)

    @property
    def weakly_below_diagonal(self) -> bool:
        return all(h <= a for a, h in enumerate(self.heights))

    def __str__(self) -> str:
        return self.moves


class PathSequence(namedtuple("PathSequence", "ell k paths")):
    __slots__ = ()

    def __new__(cls, ell: int, k: int, paths: tuple[LatticePath, ...]) -> "PathSequence":
        if k < 2:
            raise ValueError(f"need k >= 2, got {k}")
        if len(paths) != k - 1:
            raise ValueError(f"expected {k - 1} paths, got {len(paths)}")
        if any(p.ell != ell for p in paths):
            raise ValueError(f"every path must cross an {ell}-column square")
        return super().__new__(cls, ell, k, paths)

    def __str__(self) -> str:
        return ";".join(p.moves for p in self.paths)


def parse_paths(text: str) -> PathSequence:
    parts = text.strip().split(";")
    if parts == [""]:
        raise ValueError("need at least one path")
    if "" in parts:
        raise ValueError(f"path {parts.index('') + 1} of {text!r} is empty")
    paths = tuple(LatticePath(p) for p in parts)
    return PathSequence(paths[0].ell, len(paths) + 1, paths)


def _path_of(counts: dict[int, int], ell: int) -> LatticePath | None:
    """The path with counts[c] cells of each color c above it, or None when
    no path has them: no count lies outside the colors 1-ell..ell-1, and
    r(ell + c) = counts[c] + max(c, 0) steps by 0 or 1 from r(0) = 0 to
    r(2*ell) = ell."""
    if any(v and not -ell < c < ell for c, v in counts.items()):
        return None
    r = [counts.get(c, 0) + max(c, 0) for c in range(-ell, ell + 1)]
    steps = [b - a for a, b in zip(r, r[1:])]
    if any(s not in (0, 1) for s in steps):
        return None
    return LatticePath("".join("UR"[s] for s in steps))


def _regions(seq: PathSequence) -> list[dict[int, int]]:
    """Per-color counts of the k regions (Y_1, ..., Y_k) cut out by a path
    tuple, over the colors 1-ell..ell-1: Y_1 above the last path, Y_2 below
    the first, and Y_i between paths i-2 and i-1.  With the tuple bracketed
    by the square's bottom path R^ell U^ell and top path U^ell R^ell, each
    region is the difference of two neighbouring profiles.  A count is
    negative where a path dips below the one before it."""
    ell = seq.ell
    moves = ["R" * ell + "U" * ell, *(p.moves for p in seq.paths), "U" * ell + "R" * ell]
    # r(ell + c), the R moves among the first ell + c, at c = 1-ell..ell-1
    profiles = [list(accumulate(ch == "R" for ch in m[:-1])) for m in moves]
    # bottom - p_1 = Y_2, p_{i-2} - p_{i-1} = Y_i, p_{k-1} - top = Y_1
    ys = [
        {c: x - y for c, x, y in zip(range(1 - ell, ell), lower, upper)}
        for lower, upper in zip(profiles, profiles[1:])
    ]
    return ys[-1:] + ys[:-1]


def is_admissible(seq: PathSequence) -> bool:
    """Admissibility of a path tuple: the first path stays weakly below the
    main diagonal, and each region t_i = Y_i (i >= 3) is capped by its
    predecessor and by the remaining per-color room (the first region
    t_2 = Y_2 counts twice), and is unimodal in the color.

    These force every Y_i >= 0, i.e. consecutive below-regions are nested
    per color, so that is not checked on its own.  The extreme colors
    +-(ell-1) hold one cell each, and Y_2 is 0 there by the diagonal
    condition.  There the caps chain Y_i <= Y_{i-1} <= ... <= Y_2 = 0, while
    Y_2 + Y_3 + ... + Y_i >= 0 counts the cells of that color below path
    i-1, so every Y_i is 0 at the extreme colors.
    Unimodality then gives Y_i >= 0 at every color.
    """
    if not seq.paths[0].weakly_below_diagonal:
        return False
    ys = _regions(seq)
    ell = seq.ell
    spent = {c: 2 * v for c, v in ys[1].items()}
    for prev, cur in zip(ys[1:], ys[2:]):
        for c, v in cur.items():
            if v > min(prev[c], ell - abs(c) - spent[c]):
                return False
            if c != 0 and v > cur[c + (1 if c < 0 else -1)]:
                return False
        for c, v in cur.items():
            spent[c] += v
    return True


_MAX_TUPLES = 10**6


def enumerate_T(ell: int, k: int) -> frozenset:
    """Every admissible path tuple, read off a pair of standard tableaux.

    Read a tuple's chain Y_1 >= ... >= Y_k (`paths_to_ytuple`) one color at
    a time.  The boxes of one color fill a prefix of their diagonal, so each
    color's count vector is weakly decreasing along the chain.  A diagram's
    counts step by 0 or 1 away from color 0, and the budget ell - |c| grows
    by one at each step toward 0, so each such step gives one diagram one
    box.  So color c's vector is the shape of P's (c >= 0) or Q's (c < 0)
    entries <= ell - |c|, for standard tableaux P, Q of one shape with at
    most k rows: row 0 is Y_1, row r >= 1 is Y_{r+1}.  Each such pair is an
    element (`enumerate_weight_space`), so this is `count_T` tuple by tuple.
    The tableaux are row words at j = max(2, min(k, ell)) rows; rows 1..i lie
    below path i, and rows >= j are empty, so paths j..k-1 repeat path j-1.
    A tuple takes about 420 bytes (tracemalloc at (9, 3)), and (10, 3)'s
    586590 took 29-39 s at 323 MB peak RSS; past _MAX_TUPLES it refuses, as
    soon as a Catalan(m), m <= ell, passes it, or else count_T(ell, j) does.
    """
    if ell < 1 or k < 2:
        raise ValueError(f"need ell >= 1 and k >= 2, got ell={ell}, k={k}")
    from .affine_core import catalan_floor
    j = max(2, min(k, ell))
    # the floor is at most count_T(ell, 2) <= count_T(ell, j); it passes the
    # limit by m = 14, so count_T, whose walk grows with ell, runs only below
    least = catalan_floor(ell, _MAX_TUPLES)
    least = least if least > _MAX_TUPLES else count_T(ell, j)
    if least > _MAX_TUPLES:
        from .young_crystal import NodeBudgetExceeded
        raise NodeBudgetExceeded(f"at least {least} path tuples at ell={ell}, k={k}")
    words = [()]  # the row of each entry, row r - 1 always ahead of row r
    for _ in range(ell):
        words = [w + (r,) for w in words for r in range(j) if not r or w.count(r - 1) > w.count(r)]
    by_shape: dict[tuple[int, ...], list] = {}
    for w in words:
        by_shape.setdefault(tuple(map(w.count, range(j))), []).append(w)
    short = []
    for ws in by_shape.values():  # path i from Q's word, then P's backwards
        heads = [["".join("RU"[0 < r <= i] for r in w) for i in range(1, j)] for w in ws]
        tails = [["".join("UR"[0 < r <= i] for r in w[::-1]) for i in range(1, j)] for w in ws]
        short += [PathSequence(ell, j, tuple(map(LatticePath, map(str.__add__, q, p))))
                  for p in tails for q in heads]
    assert all(map(is_admissible, short)), (ell, j)
    return frozenset(PathSequence(ell, k, p.paths + p.paths[-1:] * (k - j)) for p in short)


def _field_width(ell_max: int) -> int:
    # bits per packed part, one more than a part (at most ell_max) needs
    return (ell_max + 1).bit_length() + 1


def _walk(ell_max: int, k_max: int):
    """The up-walk of `count_T`: yields, after each step ell = 1 .. ell_max,
    the dict from each reachable state to its mult.

    A state of ell boxes has at most ell nonzero parts, so the walk keeps
    min(k_max, ell_max) of them; more would stay 0.  The state
    s_0 >= s_1 >= ... is packed into one int, s_i in bits [B*i, B*i + B)
    with B = (ell_max + 1).bit_length() + 1, so no part (at most ell_max)
    reaches the top bit of its field.  Then code - (code >> B) holds the
    differences s_i - s_{i+1} >= 0 field by field with no borrows, and
    adding 2^(B-1) - 1 to each field but the last sets its top bit exactly
    where the difference is positive, that is where row i + 1 heads a tie
    block and takes a box; a run of trailing zeros is one tie block, so
    its first member takes one.  That mask, together with row 0, which
    always takes one, picks the increments to add; they are kept in a dict
    keyed by the mask.
    """
    if ell_max < 1 or k_max < 1:
        raise ValueError(f"need ell >= 1 and k >= 1, got ell={ell_max}, k={k_max}")
    parts = min(k_max, ell_max)
    width = _field_width(ell_max)
    tops = range(width - 1, width * (parts - 1), width)  # the top bits of fields 0..parts-2
    high = sum(1 << p for p in tops)
    low = high - (high >> width - 1)
    steps_by_mask: dict[int, tuple[int, ...]] = {}
    states = {1: 1}
    yield states
    for _ in range(1, ell_max):
        new: dict[int, int] = {}
        for code, mult in states.items():
            mask = (code - (code >> width) + low) & high
            steps = steps_by_mask.get(mask)
            if steps is None:
                # the box goes to row i + 1, one bit above the top bit of field i
                steps = steps_by_mask[mask] = (1, *(2 << p for p in tops if mask >> p & 1))
            for step in steps:
                t = code + step
                new[t] = new.get(t, 0) + mult
        states = new
        yield states


def count_T_grid(ell_max: int, k_max: int) -> dict[tuple[int, int], int]:
    """count_T(ell, k) for every 1 <= ell <= ell_max and 1 <= k <= k_max,
    from one walk.

    A step never lowers a state's number of nonzero parts, so the walk for
    k is the walk for k_max restricted to the states with at most k nonzero
    parts.  After each step the sum of mult^2 is tallied by that number r,
    read off the highest set bit of the packed state, and count_T(ell, k)
    is the sum of the tallies r <= k.
    """
    width = _field_width(ell_max)
    grid: dict[tuple[int, int], int] = {}
    for ell, states in enumerate(_walk(ell_max, k_max), 1):
        by_parts = [0] * k_max  # by_parts[r - 1] sums mult^2 over r nonzero parts
        for code, mult in states.items():
            by_parts[(code.bit_length() - 1) // width] += mult * mult
        for k, total in enumerate(accumulate(by_parts), 1):
            grid[ell, k] = total
    return grid


def count_T(ell: int, k: int) -> int:
    """Number of admissible path tuples, via a transfer DP over colors.

    A tuple is a pair of standard tableaux of one shape lambda of ell with
    at most k rows (`enumerate_T`).  A state of the walk is the sorted vector
    of one color's counts, and a step gives a box to the first member of a
    tie block, an addable corner; so the last step of `_walk` reaches lambda
    in mult(lambda) = f^lambda ways, and count_T = sum of mult(lambda)^2.
    """
    for states in _walk(ell, k):
        pass
    return sum(m * m for m in states.values())


def paths_to_ytuple(seq: PathSequence) -> tuple[ExtendedYoungDiagram, ...]:
    """The diagram chain (Y_1, ..., Y_k) cut out by a path tuple: Y_2 is the
    region below the first path, Y_i the region between paths i-2 and i-1,
    and Y_1 the region above the last path, each read in place as a diagram.
    Raises ValueError only when some region is not a diagram; a tuple may
    cut into diagrams and still not be admissible, which is for
    `is_admissible` to decide.
    """
    from .young_crystal import from_color_counts

    regions = _regions(seq)
    try:
        return tuple(from_color_counts(r) for r in regions)
    except ValueError as exc:
        raise ValueError(f"path tuple does not cut into diagrams: {exc}") from None


def ytuple_to_paths(diagrams, ell: int) -> PathSequence:
    """The path tuple whose regions are the given chain (Y_1, ..., Y_k).

    Cumulative color counts Y_1, then Y_1+Y_k, Y_1+Y_k+Y_{k-1}, ... lie
    above p_{k-1}, p_{k-2}, ..., p_1, which `_path_of` reads off them;
    adding Y_2 last must complete the square exactly.  Raises ValueError
    when some stage is not realizable: no diagram has its counts, or the
    diagram that has them leaves the square.
    """
    from .young_crystal import color_counts, from_color_counts

    def path_above(counts):
        p = _path_of(counts, ell)
        if p is None:
            depths = from_color_counts(counts).depths
            raise ValueError(f"cumulative region {depths} does not fit the {ell}x{ell} square")
        return p

    if ell < 1:
        raise ValueError(f"need ell >= 1, got ell={ell}")
    ys = tuple(diagrams)
    k = len(ys)
    if k < 2:
        raise ValueError(f"need at least two diagrams, got {k}")
    cum = Counter(color_counts(ys[0]))
    paths = [path_above(cum)]
    for y in ys[:1:-1]:  # add Y_k, ..., Y_3; an empty one adds no counts
        if y.entries:
            cum.update(color_counts(y))
            paths.append(path_above(cum))
        else:
            paths.append(paths[-1])
    cum.update(color_counts(ys[1]))  # Y_2 completes the square
    # counts are positive, so this rules out other colors too
    if cum != {c: ell - abs(c) for c in range(1 - ell, ell)}:
        raise ValueError("diagram chain does not fill the colored square")
    return PathSequence(ell, k, tuple(reversed(paths)))
