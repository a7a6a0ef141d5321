"""Exact weight arithmetic for affine sl(n) at a fixed level.

A weight lambda = (k-1)*Lambda_0 + Lambda_s - sum_i m_i*alpha_i is stored as
the integer vector m = (m_0, ..., m_{n-1}) together with the labels (n, k, s).
Everything in this package is exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

from collections import namedtuple


def check_params(n: int, k: int | None = None, s: int | None = None) -> None:
    """Raise ValueError unless n >= 2, k >= 1 and 0 <= s < n; k and s are
    checked only when given."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k is not None and k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if s is not None and not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n = {n}, got {s}")


class AlphaExpansion(namedtuple("AlphaExpansion", "n k s m")):
    """The weight (k-1)*Lambda_0 + Lambda_s - sum_i m_i*alpha_i.

    Attributes:
        n: rank label; m has exactly n entries.
        k: level of the weight.
        s: index of the second fundamental-weight summand (0 means k*Lambda_0).
        m: coefficients of the simple roots subtracted from the highest weight.

    A named tuple, so ordering is lexicographic on (n, k, s, m): sorting a
    batch of weights that share (n, k, s) orders them by m.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, s: int, m: tuple[int, ...]) -> "AlphaExpansion":
        check_params(n, k, s)
        if len(m) != n:
            raise ValueError(f"m must have {n} entries, got {len(m)}")
        return super().__new__(cls, n, k, s, m)


def weight_from_x(n: int, k: int, s: int, x: tuple[int, ...]) -> AlphaExpansion:
    """Weight attached to a nonnegative tuple x of length n-1.

    With ell = max(x), the attached weight subtracts ell*alpha_0 and
    (ell - x_i)*alpha_i from (k-1)*Lambda_0 + Lambda_s.  The zero tuple gives
    back the highest weight itself.
    """
    if len(x) != n - 1:
        raise ValueError(f"x must have {n - 1} entries, got {len(x)}")
    if any(v < 0 for v in x):
        raise ValueError(f"x must be entrywise nonnegative, got {x}")
    ell = max(x)
    return AlphaExpansion(n=n, k=k, s=s, m=(ell,) + tuple(ell - v for v in x))


def gamma(n: int, ell: int, k: int) -> AlphaExpansion:
    """The weight k*Lambda_0 - gamma_ell, where gamma_ell is the staircase
    root-lattice element ell*alpha_0 + (ell-1)*alpha_1 + ... + alpha_{ell-1}
    + alpha_{n-ell+1} + ... + (ell-1)*alpha_{n-1}.

    Requires 1 <= ell <= n//2; the level tag k is carried on the result.
    """
    if not 1 <= ell <= n // 2:
        raise ValueError(f"need 1 <= ell <= n//2 = {n // 2}, got ell={ell}")
    m = [0] * n
    m[0] = ell
    for i in range(1, n - ell + 1):
        m[i] = max(ell - i, 0)
    for j in range(1, ell):
        m[n - j] = ell - j
    return AlphaExpansion(n=n, k=k, s=0, m=tuple(m))


def catalan_floor(ell: int, limit: int) -> int:
    """Catalan(m) at the first m = 1..ell above `limit`, else Catalan(ell): by the
    paper's k = 2 theorem, a floor on the multiplicity of k*Lambda_0 - gamma_ell at k >= 2."""
    c, m = 1, 1
    while m < ell and c <= limit:
        c, m = c * (4 * m + 2) // (m + 2), m + 1
    return c


def is_dominant(w: AlphaExpansion) -> bool:
    """True iff w pairs nonnegatively with every coroot h_0..h_{n-1}.

    With indices mod n, w pairs with h_i to (k-1)*[i = 0] + [i = s] - 2*m_i
    + m_{i-1} + m_{i+1}; for n = 2 both neighbours of a node are the other
    node, which so gets the rank-one affine Cartan entry -2.
    """
    n, k, s, m = w
    for i in range(n):
        val = (k - 1 if i == 0 else 0) + (1 if i == s else 0)
        if val - 2 * m[i] + m[i - 1] + m[(i + 1) % n] < 0:
            return False
    return True
