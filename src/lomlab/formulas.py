"""Closed forms and bounds for k-neighborly reorientation counts.

``c(r,n,k)`` denotes the count for the alternating oriented matroid (the
all-plus matrix).  It has a closed form for n >= 2(r-k)+1, special values in
the extremal odd-rank case r = 2k+1, and is otherwise evaluated exactly by
the counting engine.  The module also evaluates the total number of plain
travels, the reorientation-class count, the travel-derived upper bound for
arbitrary sign matrices, and the asymptotic bound F used to compare growth
rates, all in exact integer/rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import sign_core
from .chessboard import class_count

__all__ = [
    "CValue",
    "binomial",
    "c_closed_form",
    "c_value",
    "total_plain_travels",
    "lom_upper_bound",
    "asymptotic_bound",
    "class_count",
]

SOURCE_CLOSED_FORM = "closed_form"
SOURCE_ODD_RANK = "odd_rank_special"
SOURCE_COMPUTED = "computed"
SOURCE_UNKNOWN = "unknown"


@dataclass(frozen=True)
class CValue:
    """An alternating-matroid count together with how it was obtained."""

    value: int | None
    source: str


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial needs non-negative arguments, got ({n}, {k})")
    return comb(n, k)


def _check_c_domain(r: int, k: int) -> None:
    if k < 1 or r < 2 * k + 1:
        raise ValueError(f"need r >= 2k+1 >= 3, got r={r}, k={k}")


def c_closed_form(r: int, n: int, k: int) -> int:
    """Alternating count for n >= 2(r-k)+1: twice the partial binomial row sum.

    c(r,n,k) = 2 * sum of C(n-1, i) for i = 0..r-1-2k.  Below that range of n
    the value has no known closed form and must be computed.
    """
    _check_c_domain(r, k)
    if n < 2 * (r - k) + 1:
        raise ValueError(
            f"closed form needs n >= 2(r-k)+1 = {2 * (r - k) + 1}, got n={n}"
        )
    return 2 * sum(comb(n - 1, i) for i in range(r - 2 * k))


def c_value(r: int, n: int, k: int) -> CValue:
    """Best available alternating count: closed form, odd-rank special value,
    or the circuits engine's count of the all-plus matrix."""
    sign_core._require_k(k)
    if r < 2 * k + 1:
        raise ValueError(f"need r >= 2k+1, got r={r}, k={k}")
    if n < r + 1:
        raise ValueError(f"need n >= r+1, got r={r}, n={n}")
    if k == 0:
        # every plain travel realizes one acyclic reorientation pair
        return CValue(2 * total_plain_travels(r, n), SOURCE_CLOSED_FORM)
    if n >= 2 * (r - k) + 1:
        return CValue(c_closed_form(r, n, k), SOURCE_CLOSED_FORM)
    if r == 2 * k + 1:
        value = 2 if n >= r + 2 else comb(r + 1, k + 1)
        return CValue(value, SOURCE_ODD_RANK)
    if n > sign_core.MAX_EXHAUSTIVE_ELEMENTS:
        return CValue(None, SOURCE_UNKNOWN)
    A = sign_core.alternating_matrix(r, n)
    return CValue(sign_core.count_k_neighborly_reorientations(A, k), SOURCE_COMPUTED)


def total_plain_travels(r: int, n: int) -> int:
    """Number of plain travels of an r x n matrix: sum of C(n-1, i), i = 0..r-1."""
    if not (2 <= r <= n):
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    return sum(comb(n - 1, i) for i in range(r))


def lom_upper_bound(r: int, n: int, k: int) -> int:
    """Upper bound on the count for any r x n sign matrix, n >= 2r-1.

    The closed-form alternating count plus twice the number of long plain
    travels not already ruled out by forced early drops.
    """
    _check_c_domain(r, k)
    if n < 2 * r - 1:
        raise ValueError(f"upper bound needs n >= 2r-1 = {2 * r - 1}, got n={n}")
    long_travels = sum(comb(n - 1, i) for i in range(r - 2 * k, r))
    excluded = sum(
        comb(n - 3 * ((i - 1) // 2) + 1 + (i % 2), r + 3 - i)
        for i in range(4, 2 * k + 4)
    )
    return c_closed_form(r, n, k) + 2 * (long_travels - excluded)


def asymptotic_bound(r: int, n: int, k: int) -> Fraction:
    """The bound F(r,n,k) = 2*((n-r) + C(r,k+1) + 2^(r-1))^(r-1-2k) / (r-1-2k)!

    Exact rational; valid for n >= r >= 2k+2 >= 4.  Dominates the count of any
    rank-r oriented matroid on n elements and approaches twice the leading
    binomial term of the alternating count as n grows.
    """
    if k < 1 or r < 2 * k + 2:
        raise ValueError(f"need r >= 2k+2 >= 4, got r={r}, k={k}")
    if n < r:
        raise ValueError(f"need n >= r, got r={r}, n={n}")
    exponent = r - 1 - 2 * k
    base = (n - r) + comb(r, k + 1) + 2 ** (r - 1)
    return Fraction(2 * base**exponent, factorial(exponent))
