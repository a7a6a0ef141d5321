"""Boundary-anchored families of concave integer tuples.

The underlying inequality system: a nonnegative integer tuple (x_1,...,x_{n-1})
with prescribed first and last entries whose image under the classical Cartan
matrix is entrywise >= 0, except that -1 is allowed at one marked position s
(no relaxation when s = 0).  The five `enumerate_M` families produce that set
piecewise, split by where the maximal plateau P of the tuple sits relative to
s (with x_0 = x_n = 0): family 5 when P covers s; families 1 and 2 when P ends
before s, with a drop (1) or a second plateau (2) right after x_s, or s = n-1
(1); families 3 and 4 are their mirror images, P starting after s.  Families
1 and 2 are one construction, whose tail after x_s has smallest drop t >= 1
or t = 0.  There are two building blocks, both with concave differences.  A
fall, `_falls`, is a segment whose drops weakly increase, built drop by drop
by one iterative depth-first generator, so a fall of any number of drops
needs no recursion; family 1's tail is a fall.  A peak, `_peaks`, is a rise
(a fall read backwards), a level stretch and a fall, and it is the only
place the three are joined: family 5 is one peak per plateau height, its
level stretch covering s; the head (x_1, ..., x_s) of families 1 and 2 is a
peak that ends at x_s; and family 2's tail is a peak that starts level at
x_s.  The largest plateau height is scanned up from the height loop's own
start: one cost check per height that the loop visits, and one more.
"""

from __future__ import annotations

from .affine_core import check_params


def format_x(x: tuple[int, ...]) -> str:
    return "(" + ",".join(str(v) for v in x) + ")"


def _last_fit(ell, c, d, e, f):
    # largest ell' >= ell - 1 with ceil(ell'/c) + ceil((ell'-e)/d) <= f; the
    # cost never falls as ell' grows, so scan up from the caller's own start
    while -(-ell // c) - (e - ell) // d <= f:
        ell += 1
    return ell - 1


def _falls(top, bottom, d_min, d_max):
    # tuples (top, ..., bottom) whose drops read left to right are weakly
    # increasing and lie in [d_min, d_max], built drop by drop, depth first
    # over one list of heights and a stack of the drops each height has left
    # to try, in the order of a recursion over the next drop; d_min >= 1,
    # since a drop of 0 marks a height with none left; read backwards, a
    # fall from top to start with drops in [1, d_max] is a rise from start
    # to top
    heights = [top]
    drops = [iter(range(d_min, min(d_max, top - bottom) + 1))]
    if top == bottom:
        yield (top,)
    while drops:
        d = next(drops[-1], 0)
        if d:
            h = heights[-1] - d
            heights.append(h)
            drops.append(iter(range(d, min(d_max, h - bottom) + 1)))
            if h == bottom:
                yield tuple(heights)
        else:
            heights.pop()
            drops.pop()


def _peaks(ell, x1, bottom, d_max, length, cover=0):
    # tuples of `length` entries that rise from x1 to ell by steps in
    # [1, x1], stay at ell, and fall to bottom by drops in [1, d_max]; the
    # level stretch, positions q..r (1-based), covers position `cover`, and
    # cover = 0 asks nothing; the falls are rebuilt for each rise, and
    # building them once is the fall-list hoist of ROADMAP item 1
    for rise in _falls(ell, x1, 1, x1):
        q = len(rise)
        if 0 < cover < q:
            continue
        rise, lo = rise[::-1], max(q, cover)
        for fall in _falls(ell, bottom, 1, d_max):
            r = length + 1 - len(fall)
            if r >= lo:
                yield rise + (ell,) * (r - q) + fall[1:]


def _m12(s, n, x1, xn1, family):
    # plateau strictly before s, drops in [1, t+1] onto x_s, then a tail
    # whose smallest drop is t: t >= 1 in family 1, t = 0 (a second plateau
    # at x_s) in family 2
    out = set()
    m = n - s - 1  # drops of the tail (x_s, ..., x_{n-1})
    for xs_ in range(xn1, min(x1 * (s - 1) - 1, xn1 * (n - s)) + 1):
        if m == 0:  # the jump after s is the last drop, down to x_n = 0
            ts = (xn1,) if family == 1 else ()
        elif family == 1:
            ts = range(max(1, xs_ - xn1 * m), (xs_ - xn1) // m + 1)
        else:
            ts = (0,) if xs_ <= xn1 * m else ()
        for t in ts:
            lo = max(x1, xs_ + 1)
            heads = [h for ell in range(lo, _last_fit(lo, x1, t + 1, xs_, s) + 1)
                     for h in _peaks(ell, x1, xs_, t + 1, s)]
            if not heads:
                continue
            if m == 0:
                tails = [(xs_,)]
            elif t:
                tails = [(xs_,) + d2 for d2 in _falls(xs_ - t, xn1, t, xn1)
                         if len(d2) == m]
            else:
                tails = list(_peaks(xs_, xs_, xn1, xn1, m + 1, 2))
            out.update(h + d2[1:] for h in heads for d2 in tails)
    return out


def _m5(s, n, x1, xn1):
    # single plateau covering position s (any plateau position when s = 0)
    lo = max(x1, xn1)
    if s == 0:
        # at a zero entry only height lo: (0, 0) gives the zero tuple, else none
        ell_hi = _last_fit(lo, x1, xn1, 0, n) if x1 and xn1 else lo
    else:
        ell_hi = min(s * x1, (n - s) * xn1)
    return {x for ell5 in range(lo, ell_hi + 1) for x in _peaks(ell5, x1, xn1, xn1, n - 1, s)}


def enumerate_M(family: int, s: int, n: int, x1: int, xn1: int) -> frozenset:
    """One of the five plateau-position families, as a frozenset of tuples.

    Families 3 and 4 are the mirror images of families 1 and 2 (reverse each
    tuple, swap s -> n-s and the boundary entries).  Families 1..4 are empty
    when s = 0.  For n = 2 the single coordinate is both boundary entries, so
    mismatched boundary parameters give the empty set.  A family outside
    1..5 raises ValueError at every n.
    """
    if family not in (1, 2, 3, 4, 5):
        raise ValueError(f"family must be 1..5, got {family}")
    check_params(n, s=s)
    if x1 < 0 or xn1 < 0:
        raise ValueError(f"boundary entries must be nonnegative, got {x1}, {xn1}")
    if family == 5:
        return frozenset(_m5(s, n, x1, xn1))
    if s == 0:
        return frozenset()
    if family <= 2:
        return frozenset(_m12(s, n, x1, xn1, family))
    return frozenset(t[::-1] for t in _m12(n - s, n, xn1, x1, family - 2))
