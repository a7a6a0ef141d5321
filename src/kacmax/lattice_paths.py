"""Nested lattice paths in a colored square and their diagram readout.

An ell x ell square is colored so the cell with lower-right corner (a, b)
(1 <= a <= ell columns, 0 <= b <= ell-1 levels) carries color a + b - ell.
A monotone R/U path from (0,0) to (ell,ell) is stored by its move string;
its height profile H_1 <= ... <= H_ell records the level of the horizontal
step crossing each column, so the region below the path holds the bottom
H_a cells of column a.  A (k-1)-tuple of such paths cuts the square into k
regions; reading each region as an extended Young diagram recovers a
containment chain, and admissible tuples are counted by a small per-color
transfer DP instead of explicit search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import mul

from .young_crystal import (
    ExtendedYoungDiagram,
    color_counts,
    from_color_counts,
)

__all__ = [
    "LatticePath",
    "PathSequence",
    "parse_paths",
    "color_counts_below",
    "is_admissible",
    "enumerate_T",
    "count_T",
    "count_T_grid",
    "paths_to_ytuple",
    "ytuple_to_paths",
]


@dataclass(frozen=True)
class LatticePath:
    moves: str

    def __post_init__(self):
        if not self.moves or set(self.moves) - {"R", "U"}:
            raise ValueError(f"moves must be a nonempty string over R/U, got {self.moves!r}")
        if self.moves.count("R") != self.moves.count("U"):
            raise ValueError(f"path must use equally many R and U moves, got {self.moves!r}")

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

    @classmethod
    def from_heights(cls, hs) -> "LatticePath":
        hs = tuple(hs)
        ell, y, out = len(hs), 0, []
        for h in hs:
            if h < y or h > ell:
                raise ValueError(f"heights must increase weakly within 0..{ell}, got {hs}")
            out.append("U" * (h - y))
            out.append("R")
            y = h
        out.append("U" * (ell - y))
        return cls("".join(out))

    @property
    def weakly_below_diagonal(self) -> bool:
        return all(h <= a for a, h in enumerate(self.heights))

    def __str__(self) -> str:
        return self.moves


@dataclass(frozen=True)
class PathSequence:
    ell: int
    k: int
    paths: tuple[LatticePath, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need k >= 2, got {self.k}")
        if len(self.paths) != self.k - 1:
            raise ValueError(f"expected {self.k - 1} paths, got {len(self.paths)}")
        if any(p.ell != self.ell for p in self.paths):
            raise ValueError(f"every path must cross an {self.ell}-column square")

    def __str__(self) -> str:
        return ";".join(p.moves for p in self.paths)


def parse_paths(text: str) -> PathSequence:
    parts = [p for p in text.strip().split(";") if p]
    if not parts:
        raise ValueError("need at least one path")
    paths = tuple(LatticePath(p) for p in parts)
    return PathSequence(paths[0].ell, len(paths) + 1, paths)


def color_counts_below(p: LatticePath, ell: int, n: int) -> dict[int, int]:
    """Per-color count of the cells below the path: column a contributes its
    bottom H_a cells, colored a + b - ell for levels b = 0..H_a-1."""
    if p.ell != ell:
        raise ValueError(f"path crosses {p.ell} columns, expected {ell}")
    if n < 2 * ell:
        raise ValueError(f"the colored square needs n >= {2 * ell}, got {n}")
    counts: dict[int, int] = {}
    for a, h in zip(range(1, ell + 1), p.heights):
        for b in range(h):
            c = a + b - ell
            counts[c] = counts.get(c, 0) + 1
    return counts


def is_admissible(seq: PathSequence, n: int) -> bool:
    """Admissibility of a path tuple: the first path stays weakly below the
    main diagonal, consecutive below-regions are nested per color, and each
    region increment t_i is capped by its predecessor and by the remaining
    per-color room (the first region counts twice), and is unimodal in the
    color."""
    ell, k = seq.ell, seq.k
    below = [color_counts_below(p, ell, n) for p in seq.paths]
    colors = range(1 - ell, ell)
    for prev, cur in zip(below, below[1:]):
        if any(cur.get(c, 0) < prev.get(c, 0) for c in colors):
            return False
    if not seq.paths[0].weakly_below_diagonal:
        return False
    t = {2: below[0]}
    for i in range(3, k + 1):
        t[i] = {c: below[i - 2].get(c, 0) - below[i - 3].get(c, 0) for c in colors}
    for i in range(3, k + 1):
        ti, tp = t[i], t[i - 1]
        for c in colors:
            spent = t[2].get(c, 0) + sum(t[a].get(c, 0) for a in range(2, i))
            if ti.get(c, 0) > min(tp.get(c, 0), ell - abs(c) - spent):
                return False
        for c in colors:
            if c != 0 and ti.get(c, 0) > ti.get(c + (1 if c < 0 else -1), 0):
                return False
    return True


def _all_profiles(ell):
    return [tuple(h) for h in combinations_with_replacement(range(ell + 1), ell)]


def enumerate_T(ell: int, k: int) -> frozenset:
    """Every admissible path tuple, by direct search over height profiles
    (the first weakly below the diagonal, each next dominating the last),
    filtered through `is_admissible`."""
    if ell < 1 or k < 2:
        raise ValueError(f"need ell >= 1 and k >= 2, got ell={ell}, k={k}")
    n = 2 * ell
    profiles = _all_profiles(ell)
    out = []

    def grow(stack):
        if len(stack) == k - 1:
            seq = PathSequence(ell, k, tuple(LatticePath.from_heights(h) for h in stack))
            if is_admissible(seq, n):
                out.append(seq)
            return
        last = stack[-1]
        for h in profiles:
            if all(a >= b for a, b in zip(h, last)):
                grow(stack + [h])

    for h in profiles:
        if all(v <= i for i, v in enumerate(h)):
            grow([h])
    return frozenset(out)


def count_T_grid(ell_max: int, k_max: int) -> dict[tuple[int, int], int]:
    """count_T(ell, k) for every 1 <= ell <= ell_max and 1 <= k <= k_max,
    from one walk over k_max-vectors.

    A step never lowers a state's number of nonzero parts, so the walk with
    k-vectors is the walk with k_max-vectors restricted to the states with
    at most k nonzero parts.  The states are kept apart by that number r;
    after the steps to ell, the sum of mult^2 over each r is a bucket, and
    count_T(ell, k) is the sum of the buckets r <= k.
    """
    if ell_max < 1 or k_max < 1:
        raise ValueError(f"need ell >= 1 and k >= 1, got ell={ell_max}, k={k_max}")
    grid: dict[tuple[int, int], int] = {}
    # by_parts[r] maps each state with r nonzero parts to its mult
    by_parts: list[dict[tuple[int, ...], int]] = [{} for _ in range(k_max + 1)]
    by_parts[1][(1,) + (0,) * (k_max - 1)] = 1
    for ell in range(1, ell_max + 1):
        if ell > 1:
            new: list[dict[tuple[int, ...], int]] = [{} for _ in range(k_max + 1)]
            for r in range(1, k_max + 1):
                same = new[r]
                for state, mult in by_parts[r].items():
                    s = list(state)
                    prev = None
                    for idx in range(r):
                        v = s[idx]
                        if v != prev:  # the state is non-increasing: first of its tie block
                            s[idx] = v + 1
                            t = tuple(s)
                            s[idx] = v
                            same[t] = same.get(t, 0) + mult
                            prev = v
                    if r < k_max:
                        # the first zero takes a box, the zeros after it cannot; the
                        # state reached has one predecessor with r parts, and the
                        # steps within r + 1 parts come later, so none is there yet
                        s[r] = 1
                        new[r + 1][tuple(s)] = mult
            by_parts = new
        total = 0
        for k in range(1, k_max + 1):
            mults = by_parts[k].values()
            total += sum(map(mul, mults, mults))
            grid[ell, k] = total
    return grid


def count_T(ell: int, k: int) -> int:
    """Number of admissible path tuples, via a transfer DP over colors.

    A tuple corresponds to a chain of k diagrams whose color counts sum to
    the full square (ell - |c| cells of color c).  Walking colors from ell-1
    toward 0, a state is the sorted k-vector of per-diagram counts of the
    current color, starting at (1, 0, ..., 0); each step gives one cell to
    the first member of a tie block, so after the ell-1 up-steps the state
    is a partition lambda of ell with at most k parts, reached in
    mult(lambda) = f^lambda ways.  The walk on from color 0 to 1-ell takes a
    cell from the last member of a tie block, which is exactly an up-step
    reversed, so mult(lambda) down-walks also return to (1, 0, ..., 0).
    Hence

        count_T(ell, k) = sum over lambda of mult(lambda)^2,

    with lambda over the partitions of ell into at most k parts.  The walk
    is the one of `count_T_grid`, read at the cell (ell, k).
    """
    return count_T_grid(ell, k)[ell, k]


def paths_to_ytuple(seq: PathSequence, n: int) -> tuple[ExtendedYoungDiagram, ...]:
    """The diagram chain (Y_1, ..., Y_k) cut out by a path tuple: Y_2 is the
    region below the first path, Y_i the region between paths i-2 and i-1,
    and Y_1 the region above the last path, each read in place as a diagram.
    Raises ValueError when some region is not a diagram (inadmissible input).
    """
    ell, k = seq.ell, seq.k
    below = [color_counts_below(p, ell, n) for p in seq.paths]
    full = {c: ell - abs(c) for c in range(1 - ell, ell)}
    regions = [{c: full[c] - below[-1].get(c, 0) for c in full}, below[0]]
    for i in range(3, k + 1):
        regions.append({c: below[i - 2].get(c, 0) - below[i - 3].get(c, 0) for c in full})
    try:
        return tuple(from_color_counts(r) for r in regions)
    except ValueError as exc:
        raise ValueError(f"path tuple does not cut into diagrams: {exc}") from None


def ytuple_to_paths(diagrams, ell: int, n: int) -> PathSequence:
    """The path tuple whose regions are the given chain (Y_1, ..., Y_k).

    Cumulative color counts Y_1, then Y_1+Y_k, Y_1+Y_k+Y_{k-1}, ... trace the
    boundaries p_{k-1}, p_{k-2}, ..., p_1 (each cumulative region placed as a
    diagram in the top-left of the square); adding Y_2 last must complete the
    square exactly.  Raises ValueError when some stage is not realizable.
    """
    ys = tuple(diagrams)
    k = len(ys)
    if k < 2:
        raise ValueError(f"need at least two diagrams, got {k}")
    if n < 2 * ell:
        raise ValueError(f"the colored square needs n >= {2 * ell}, got {n}")
    full = {c: ell - abs(c) for c in range(1 - ell, ell)}

    def boundary(cum):
        y = from_color_counts(cum)
        d = y.depths
        if len(d) > ell or (d and d[0] > ell):
            raise ValueError(f"cumulative region {d} does not fit the {ell}x{ell} square")
        hs = tuple(ell - (d[a] if a < len(d) else 0) for a in range(ell))
        return LatticePath.from_heights(hs)

    counts = [color_counts(y, n) for y in ys]
    cum = dict(counts[0])
    paths = [boundary(cum)]
    for idx in range(k - 1, 1, -1):  # add Y_k, ..., Y_3
        for c, v in counts[idx].items():
            cum[c] = cum.get(c, 0) + v
        paths.append(boundary(cum))
    for c, v in counts[1].items():  # Y_2 completes the square
        cum[c] = cum.get(c, 0) + v
    if any(cum.get(c, 0) != full[c] for c in full) or sum(cum.values()) != ell * ell:
        raise ValueError("diagram chain does not fill the colored square")
    return PathSequence(ell, k, tuple(reversed(paths)))
