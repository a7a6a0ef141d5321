"""Exact weight arithmetic for affine sl(n) at a fixed level.

A weight lambda = (k-1)*Lambda_0 + Lambda_s - sum_i m_i*alpha_i is stored as
the integer vector m = (m_0, ..., m_{n-1}) together with the labels (n, k, s).
Everything in this package is exact integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import json
from collections import namedtuple

__all__ = [
    "CartanData",
    "AlphaExpansion",
    "check_params",
    "classical_apply",
    "weight_from_x",
    "gamma",
    "is_dominant",
]


def check_params(n: int, k: int | None = None, s: int | None = None) -> None:
    """Raise ValueError unless n >= 2, k >= 1 and 0 <= s < n; k and s are
    checked only when given."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k is not None and k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if s is not None and not 0 <= s < n:
        raise ValueError(f"need 0 <= s < n = {n}, got {s}")


class CartanData(namedtuple("CartanData", "n")):
    """Affine Cartan matrix of the rank-(n-1) cyclic type, nodes 0..n-1."""

    __slots__ = ()

    def __new__(cls, n: int) -> "CartanData":
        check_params(n)
        return super().__new__(cls, n)

    def entry(self, i: int, j: int) -> int:
        """Affine Cartan matrix entry a_ij; indices are taken mod n."""
        n = self.n
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

    @property
    def classical_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The (n-1) x (n-1) submatrix on nodes 1..n-1."""
        rng = range(1, self.n)
        return tuple(tuple(self.entry(i, j) for j in rng) for i in rng)


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

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "k": self.k, "s": self.s, "m": list(self.m)},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "AlphaExpansion":
        data = json.loads(text)
        return cls(n=data["n"], k=data["k"], s=data["s"], m=tuple(data["m"]))


def classical_apply(cd: CartanData, x: tuple[int, ...]) -> tuple[int, ...]:
    """Multiply the classical (n-1) x (n-1) Cartan matrix by the vector x."""
    mat = cd.classical_matrix
    if len(x) != len(mat):
        raise ValueError(f"vector has {len(x)} entries, expected {len(mat)}")
    return tuple(sum(row[j] * x[j] for j in range(len(x))) for row in mat)


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


def is_dominant(cd: CartanData, w: AlphaExpansion) -> bool:
    """True iff w evaluates nonnegatively against every coroot h_0..h_{n-1}."""
    if cd.n != w.n:
        raise ValueError(f"rank mismatch: matrix n={cd.n}, weight n={w.n}")
    n = cd.n
    for i in range(n):
        val = (w.k - 1 if i == 0 else 0) + (1 if i == w.s else 0)
        val -= sum(cd.entry(i, j) * w.m[j] for j in range(n))
        if val < 0:
            return False
    return True
