"""Extended Young diagrams and the level-k crystal model.

A charge-zero extended diagram is stored as its tuple of weakly increasing
nonpositive column entries with trailing zero columns trimmed; entry -d means
the column holds d boxes.  The box in column i (0-based) at row r (1-based
from the top) carries color i - r + 1, an integer; only the weight reads it
mod n.  Containment of diagrams is pointwise domination of depths.

The rank n enters only the definitions: `diagram_weight`, and the shift of
`is_crystal_element`.  The weight space of k*Lambda_0 - gamma_ell is the
same set of chains at every n >= 2*ell (see `enumerate_weight_space`), so
the search takes no rank.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from operator import gt, or_

from .affine_core import AlphaExpansion, catalan_floor, check_params, gamma


class NodeBudgetExceeded(RuntimeError):
    """Raised when an exhaustive diagram search would visit too many states."""


class ExtendedYoungDiagram(namedtuple("ExtendedYoungDiagram", "entries")):
    __slots__ = ()

    def __new__(cls, entries: tuple[int, ...] = ()) -> "ExtendedYoungDiagram":
        e = entries
        if any(v > 0 for v in e):
            raise ValueError(f"column entries must be nonpositive, got {e}")
        if any(a > b for a, b in zip(e, e[1:])):
            raise ValueError(f"column entries must be weakly increasing, got {e}")
        if e and e[-1] == 0:
            raise ValueError(f"trailing zero columns must be trimmed, got {e}")
        return super().__new__(cls, entries)

    @classmethod
    def from_entries(cls, seq) -> "ExtendedYoungDiagram":
        e = list(seq)
        while e and e[-1] == 0:
            e.pop()
        return cls(tuple(e))

    @classmethod
    def from_depths(cls, depths) -> "ExtendedYoungDiagram":
        return cls.from_entries(-d for d in depths)

    def entry(self, i: int) -> int:
        return self.entries[i] if 0 <= i < len(self.entries) else 0

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(-v for v in self.entries)

    @property
    def boxes(self) -> int:
        return -sum(self.entries)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.entries) + "]"


def parse_diagram(text: str) -> ExtendedYoungDiagram:
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"diagram text must look like [-2,-1], got {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        return ExtendedYoungDiagram(())
    try:
        vals = tuple(int(p) for p in inner.split(","))
    except ValueError:
        raise ValueError(f"diagram entries must be integers, got {text!r}") from None
    return ExtendedYoungDiagram.from_entries(vals)


def color_counts(y: ExtendedYoungDiagram) -> dict[int, int]:
    """How many boxes of each color i - r + 1 the diagram holds."""
    counts: dict[int, int] = {}
    for i, d in enumerate(y.depths):
        for c in range(i + 1 - d, i + 1):
            counts[c] = counts.get(c, 0) + 1
    return counts


def diagram_weight(y: ExtendedYoungDiagram, n: int) -> AlphaExpansion:
    """The level-1 weight of a single diagram: the fundamental weight for
    node 0 minus one alpha per box, colors taken mod n."""
    check_params(n)
    m = [0] * n
    for c, cnt in color_counts(y).items():
        m[c % n] += cnt
    return AlphaExpansion(n, 1, 0, tuple(m))


def from_color_counts(counts: dict[int, int]) -> ExtendedYoungDiagram:
    """The unique diagram whose color counts are `counts`, or ValueError.

    The boxes of one color fill a prefix of their diagonal, so a diagram
    with these counts contains `_lower_bound`'s diagram `low`, which holds
    at least counts[c] boxes of each color c; the two are equal exactly
    when their box totals match.  The v-th box of color c sits in column
    max(c, 0) + v - 1, so ell = max(|c| + v) over the nonzero counts keeps
    every column index at most ell and every color inside (-ell, ell).

    No diagram has fewer than ell nonzero counts: with the v-th box of a
    color c >= 0, row 1 holds the colors 0 .. c + v - 1, and with that of
    a color c < 0, column 0 holds the colors 0 .. c - v + 1.  So fewer are
    refused before the room is built, in time linear in the counts.
    """
    for c, cnt in counts.items():
        if cnt < 0:
            raise ValueError(f"color {c} has negative count {cnt}")
    nonzero = {c: v for c, v in counts.items() if v}
    ell = max((abs(c) + v for c, v in nonzero.items()), default=0)
    if ell <= len(nonzero):
        room = [0] * (2 * ell)
        for c, v in nonzero.items():
            room[c] = v
        low = _lower_bound(room, 1, ell)
        if sum(low) == sum(room):
            return ExtendedYoungDiagram.from_depths(low)
    raise ValueError(f"no diagram has the color counts {dict(sorted(counts.items()))}")


def is_crystal_element(diagrams, n: int) -> bool:
    """Level-k crystal membership for a tuple (Y_1, ..., Y_k): a containment
    chain whose last member contains the first shifted by n, such that no
    column index is slack in every consecutive pair (the pair after Y_k wraps
    to the shifted Y_1).

    The entries are padded once with zero columns to one common width, one
    past the widest diagram; every column beyond that satisfies each
    condition, because all its entries are 0 and n >= 2."""
    ys = tuple(diagrams)
    if not ys:
        raise ValueError("need at least one diagram")
    check_params(n)
    width = max(len(y.entries) for y in ys) + 1
    rows = [y.entries + (0,) * (width - len(y.entries)) for y in ys]
    rows.append(tuple(v + n for v in rows[0]))  # the wrap: Y_1 shifted by n
    # column i is slack in a pair when the upper member's entry i is at most
    # the lower member's entry i + 1
    covered = [False] * (width - 1)
    for lower, upper in zip(rows, rows[1:]):
        if any(map(gt, lower, upper)):
            return False
        covered = list(map(or_, covered, map(gt, upper, lower[1:])))
    return all(covered)


def _refuse_up_front(ell, k, node_budget):
    # the root step plus a state per element, at least catalan_floor of them
    # at k >= 2 and Catalan(1) = 1 at k = 1; the checks read k only as k >= 1
    # and k >= 2, so a search at min(k, ell) levels (ell >= 1) makes the same
    if ell < 1 or k < 1:
        raise ValueError(f"need ell >= 1 and k >= 1, got ell={ell}, k={k}")
    least = catalan_floor(ell if k >= 2 else 1, node_budget - 1) + 1
    if least > node_budget:
        raise NodeBudgetExceeded(
            f"at least {least} states at ell={ell}, k={k}, "
            f"beyond the budget of {node_budget} states"
        )


def _lower_bound(room, left, ell):
    # the smallest diagram holding at least ceil(room[c] / left) boxes of
    # each color c, as depths padded with zeros to ell + 1 columns; room is
    # indexed by color mod its length, 2*ell, and is 0 at the colors outside
    # (-ell, ell); the v-th box of color c sits at column c + v - 1, row v
    # for c >= 0, and at column v - 1, row v - c for c < 0; a lower color
    # sits deeper in the same column, so the colors are read from high to
    # low and the last box written to a column is its deepest
    low = [0] * (ell + 1)
    c = ell - 1
    for x in room[c::-1]:  # the colors ell - 1, ..., 1, 0
        if x:
            v = -(-x // left)
            low[c + v - 1] = v
        c -= 1
    for x in room[:ell:-1]:  # the colors -1, -2, ..., 1 - ell
        if x:
            v = -(-x // left)
            low[v - 1] = v - c
        c -= 1
    d = 0
    for i in range(ell - 1, -1, -1):  # the suffix maximum
        if low[i] < d:
            low[i] = d
        else:
            d = low[i]
    return low


def enumerate_weight_space(ell: int, k: int, node_budget: int = 10**8) -> frozenset:
    """All crystal elements of weight k*(node-0 fundamental) minus the
    staircase gamma_ell: containment chains of k diagrams whose color counts
    sum to the staircase budget, checked against the membership predicate.

    The set is the same at every rank n >= 2*ell, so none is taken.  The
    budget of color c is ell - |c| for |c| < ell and 0 for every other color
    mod n.  So a diagram that fits it lies in the ell x ell corner, and its
    boxes carry the colors -ell < c < ell, which are distinct mod n; the
    chain's color counts, and so its weight, do not depend on n.  Nor does
    membership: the entries of the corner's diagrams lie in [-ell, 0], so
    the first diagram shifted by n has every entry >= n - ell >= ell, above
    every entry of every diagram.  The chain's last member lies in it, and
    the wrap pair covers every column.  So the search reads the budget, and
    checks each element, at n = 2*ell.

    At most ell diagrams of an element are nonempty: each nonempty diagram
    holds the corner box, of color 0, whose budget is ell.  Padding a chain
    with empty diagrams changes neither its color counts nor membership
    (the wrap pair covers every column), so the search runs over
    min(k, ell) levels and pads each element with empty diagrams to k.  The
    membership assert runs on the chain of min(k, ell) diagrams, before the
    padding, so its cost does not grow with k.

    Each diagram but the last is searched for in an interval: it is a
    sub-diagram of the one before it (the first, of the ell x ell corner),
    and it contains a lower-bound diagram `low`.  The room the chain has
    left is one list of 2*ell slots, indexed by color mod 2*ell, shared by
    every level: the search takes each box it places out of it and puts the
    box back as it backtracks.  The `left` diagrams still to come are
    nested, so each holds at most as many boxes of color c as the next one,
    and between them they use up room[c]; so the next one holds at least
    ceil(room[c] / left) boxes of color c.  The boxes of one color fill a
    prefix of their diagonal, so a diagram meets every such bound exactly
    when it holds the ceil(room[c] / left)-th box of each diagonal, that is,
    when it contains `low`, the smallest diagram holding those boxes.  The
    search builds the interval column by column.  A column stops at the
    first box whose color has no room left; the search moves on to column
    i + 1 only from depths of column i at least low's, since no column to
    the right adds a box to column i; and it takes a sub-diagram once it
    spans low's nonzero columns.

    The last diagram must use up the room exactly.  Any diagram that does
    contains low, which at left = 1 holds at least room[c] boxes of each
    color c, so the two are equal exactly when their box totals match, and
    the search keeps low then.  It needs no containment test: the diagram
    before holds at least ceil(r/2) of the r boxes of each color that the
    two had left, so at least as many as low, and a diagram with at least
    as many boxes on every diagonal contains the other.  At k = 1 the
    diagram before is the root, the corner, which contains every diagram
    that fits the budget.

    A search builds one ExtendedYoungDiagram per distinct depths tuple that
    reaches an element, at most C(2*ell, ell) objects, the diagrams of the
    ell x ell corner.

    A state is one extension step of the chain, one generated sub-diagram
    or one finished chain, which the last level counts when it keeps low.
    The search counts states and raises NodeBudgetExceeded beyond
    `node_budget`.  It refuses up front when Catalan(ell) + 1 states (2 at
    k = 1) exceed the budget, a true lower bound: every element is one
    finished chain and one state, the root step is another, and for k >= 2
    the elements include the k = 2 elements padded with empty diagrams,
    which by the paper's k = 2 theorem number Catalan(ell).  It steps
    Catalan(m) up from m = 1 and names the first m whose Catalan(m) + 1,
    also a lower bound, exceeds the budget, so a refusal takes at most 17
    steps at the default budget and never builds Catalan(ell) itself.
    """
    _refuse_up_front(ell, k, node_budget)
    room = list(gamma(2 * ell, ell, k).m)
    visited = 0

    def tick():
        nonlocal visited
        visited += 1
        if visited > node_budget:
            raise NodeBudgetExceeded(f"search exceeded {node_budget} states")

    diagram = functools.cache(ExtendedYoungDiagram.from_depths)
    chain: list[tuple[int, ...]] = []
    results = []

    def extend(prev, left):
        # chain holds levels - left diagrams, which leave `room` per color;
        # the next one is a sub-diagram of prev
        tick()
        low = _lower_bound(room, left, ell)
        if left == 1:
            # the last diagram is low, or there is none; its zero columns are
            # cut, as at every other level, so it shares their cached diagram
            if sum(low) == sum(room):
                tick()  # the finished chain
                ys = tuple(map(diagram, chain)) + (diagram(tuple(low[:low.index(0)])),)
                assert is_crystal_element(ys, 2 * ell), ys
                results.append(ys + padding)
            return
        depths: list[int] = []

        def columns(i):
            # depths holds columns 0..i-1 of a sub-diagram of prev, each at
            # least as deep as low's, their boxes taken out of room; take it
            # once it spans low, then deepen column i one box at a time;
            # i <= ell, since column ell would start with color ell, whose
            # room is 0, and room[c] is color c's room for c in (-ell, ell]
            tick()
            if not low[i]:
                chain.append(tuple(depths))
                extend(chain[-1], left - 1)
                chain.pop()
            if i == len(prev):
                return  # prev has no column i
            cap = min(depths[-1], prev[i]) if depths else prev[0]
            d = 0
            while d < cap and room[i - d]:  # a deeper column holds this box too
                room[i - d] -= 1
                d += 1
                if d >= low[i]:
                    depths.append(d)
                    columns(i + 1)
                    depths.pop()
            for c in range(i - d + 1, i + 1):
                room[c] += 1

        columns(0)

    levels = min(k, ell)
    padding = (ExtendedYoungDiagram(),) * (k - levels)
    extend((ell,) * ell, levels)
    return frozenset(results)
