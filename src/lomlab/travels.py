"""Top, bottom, and plain travels through a sign matrix.

The top travel walks a sign matrix from the upper-left corner: it moves right
while the sign matches the row's entering sign and steps down one row at the
first mismatch.  It is "positive" when the mismatch happens in the last row,
which certifies a one-sided circuit.  A plain travel is a candidate path
recorded only by its strictly increasing set of drop columns; realizing it
means finding the column reorientation whose top travel follows that path.
Plain travels are the travel-side counting device: each k-neighborly plain
travel accounts for exactly two k-neighborly reorientation subsets.
``count_k_neighborly_plain_travels`` counts all of them at once on column
bitmasks; the scalar walks below give paths and single answers, and are the
reference its tests compare against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .sign_core import SignMatrix

__all__ = [
    "Travel",
    "PlainTravel",
    "top_travel",
    "bottom_travel",
    "is_acyclic_via_travel",
    "is_k_neighborly_matrix",
    "enumerate_plain_travels",
    "realize_plain_travel",
    "count_k_neighborly_plain_travels",
    "f_via_travels",
    "positivizing_set",
]

# Column masks are int16, int32 or int64, the narrowest that keeps one spare
# bit below the sign bit, so that the left shift in _boundary never reaches
# it; int64 holds 62 columns.
MAX_MASK_ELEMENTS = 62
# Column sets walked per pass; travels with a positive walk leave the grid
# between passes.  Swept from 4 to 1000 (one core, median of 11 shuffled
# rounds over 32 seeded classes): 64 was the fastest at r8n11k3 and r9n12k3,
# 0.46 and 1.16 ms per class against 0.62 and 1.51 ms at 32, and r7n11k2
# read 0.29-0.31 ms at every size from 24 to 128.
SET_GROUP = 64
# Largest grid of (plain travel, column set) pairs walked at once.
GRID_MAX_PAIRS = 1 << 20


@dataclass(frozen=True)
class Travel:
    """A top or bottom travel: its cell path, drop columns, and positivity."""

    path: tuple[tuple[int, int], ...]
    kind: str  # "top" or "bottom"
    positive: bool
    drop_columns: tuple[int, ...]


@dataclass(frozen=True)
class PlainTravel:
    """Drop columns of a candidate top-travel path, strictly increasing, all >= 2."""

    drop_columns: tuple[int, ...]

    def __post_init__(self):
        d = self.drop_columns
        if any(c < 2 for c in d):
            raise ValueError("drop columns must be >= 2")
        if any(a >= b for a, b in zip(d, d[1:])):
            raise ValueError("drop columns must be strictly increasing")


def _walk_top(entries, r: int, n: int, flip: frozenset[int], record: bool):
    """Shared top-travel walker over 0-based entries.

    ``flip`` holds 1-based column labels whose signs are negated on the fly.
    Returns (path or None, drop_columns, positive).
    """

    def sgn(i, j):  # 0-based
        v = entries[i][j]
        return -v if (j + 1) in flip else v

    path = [(1, 1)] if record else None
    drops = []
    i = j = 0
    positive = False
    while True:
        anchor = sgn(i, j)
        while j < n - 1 and sgn(i, j + 1) == anchor:
            j += 1
            if record:
                path.append((i + 1, j + 1))
        if j == n - 1:
            break  # right edge reached with no mismatch left in this row
        j += 1  # mismatching entry belongs to this row's segment
        if record:
            path.append((i + 1, j + 1))
        if i == r - 1:
            positive = True  # sign change inside the last row
            break
        i += 1
        if record:
            path.append((i + 1, j + 1))
        drops.append(j + 1)
    return (tuple(path) if record else None), tuple(drops), positive


def top_travel(A: SignMatrix) -> Travel:
    """The unique top travel of A (needs n >= 2)."""
    if A.cols < 2:
        raise ValueError("top travel needs at least 2 columns")
    path, drops, positive = _walk_top(A.entries, A.rows, A.cols, frozenset(), True)
    return Travel(path, "top", positive, drops)


def bottom_travel(A: SignMatrix) -> Travel:
    """The unique bottom travel of A: the top travel of the 180-degree rotation."""
    if A.cols < 2:
        raise ValueError("bottom travel needs at least 2 columns")
    r, n = A.rows, A.cols
    rotated = tuple(tuple(reversed(row)) for row in reversed(A.entries))
    path, drops, positive = _walk_top(rotated, r, n, frozenset(), True)
    return Travel(
        tuple((r + 1 - i, n + 1 - j) for i, j in path),
        "bottom",
        positive,
        tuple(n + 1 - c for c in drops),
    )


def is_acyclic_via_travel(A: SignMatrix) -> bool:
    """True iff the top travel is not positive (no one-sided circuit)."""
    _, _, positive = _walk_top(A.entries, A.rows, A.cols, frozenset(), False)
    return not positive


def is_k_neighborly_matrix(A: SignMatrix, k: int) -> bool:
    """True iff no reorientation of at most k columns makes the top travel positive.

    Scans subsets by increasing size (all columns allowed, including column 1)
    and exits at the first positive travel found.
    """
    return positivizing_set(A, k, range(1, A.cols + 1)) is None


def enumerate_plain_travels(r: int, n: int) -> list[PlainTravel]:
    """All plain travels of an r x n matrix, in lexicographic drop-set order.

    Drop sets range over subsets of {2..n} of size at most r-1; the empty set
    (the travel with no vertical movement) is included, so the total is
    sum of C(n-1, i) for i = 0..r-1.
    """
    if not (2 <= r <= n):
        raise ValueError(f"plain travels need 2 <= r <= n, got r={r}, n={n}")
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(2, n + 1), size) for size in range(r)
    )
    return [PlainTravel(d) for d in sorted(subsets)]


def realize_plain_travel(A: SignMatrix, P: PlainTravel) -> tuple[SignMatrix, frozenset[int]]:
    """The unique column set R with 1 not in R whose reorientation of A has top
    travel P, together with the reoriented matrix.

    Left-to-right forcing: off drop columns the sign must match the previous
    column in the travel's current row, at a drop column it must differ.
    """
    r, n = A.rows, A.cols
    drops = P.drop_columns
    if len(drops) > r - 1:
        raise ValueError(f"at most {r - 1} drops possible in {r} rows, got {len(drops)}")
    if drops and drops[-1] > n:
        raise ValueError(f"drop column {drops[-1]} out of range 2..{n}")
    drop_set = frozenset(drops)
    flips = []
    entries = A.entries
    row = entries[0]
    below = iter(entries[1:])
    s = 1  # column 1 is never flipped
    for c in range(2, n + 1):
        s *= row[c - 2] * row[c - 1]
        if c in drop_set:
            s = -s
            row = next(below)
        if s < 0:
            flips.append(c)
    R = frozenset(flips)
    if not R:
        return A, R
    sign = [-1 if c in R else 1 for c in range(1, n + 1)]
    return SignMatrix(tuple(tuple(v * f for v, f in zip(line, sign)) for line in entries)), R


def _subset_masks(first: int, width: int, most: int, dtype) -> np.ndarray:
    """Bitmasks of every set of at most ``most`` bits among first..width-1."""
    masks = np.zeros(1, dtype=dtype)
    for b in range(first, width):
        masks = np.concatenate([masks, masks[np.bitwise_count(masks) < most] | (1 << b)])
    return masks


def _boundary(flips: np.ndarray, n: int) -> np.ndarray:
    """Mask of the columns c >= 1 whose sign change against column c-1 the
    reorientation ``flips`` toggles: those where exactly one of c, c-1 flips."""
    return (flips ^ (flips << 1)) & ((1 << n) - 2)


@lru_cache(maxsize=16)
def _plan(r: int, n: int, k: int, group: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """What counting an r x n matrix at k needs apart from its entries.

    Returns the row every plain travel is in at each column c = 1..n-1 (bit
    c, the sign change between 1-based columns c and c+1) and whether it
    drops there, both (n-1, travels), and the ``_boundary`` masks of every
    column set of at most k columns, by increasing size, ``group`` sets per
    array.  All arrays are read-only and of the narrowest signed integer
    whose bits below the sign bit hold n columns and a spare bit: int16 up to
    n = 14, int32 up to 30, int64 up to 62.
    """
    dtype = next(t for t in (np.int16, np.int32, np.int64) if n <= np.iinfo(t).bits - 2)
    drops = _subset_masks(1, n, r - 1, dtype)
    dropped = (drops >> np.arange(1, n, dtype=dtype)[:, None]) & 1
    rows = np.cumsum(dropped, axis=0, dtype=dtype) - dropped  # drops left of the column
    sets = _subset_masks(0, n, k, dtype)
    sets = sets[np.argsort(np.bitwise_count(sets), kind="stable")]
    reaches = tuple(_boundary(sets[lo:lo + group], n) for lo in range(0, sets.shape[0], group))
    for a in (rows, dropped, *reaches):
        a.flags.writeable = False
    return rows, dropped, reaches


def _no_positive_walk(walks: np.ndarray, reach: np.ndarray, out: np.ndarray) -> np.ndarray:
    """For each travel (column of ``walks``, its rows' change masks), whether
    the top travel stays non-positive under every boundary in ``reach``.

    ``out`` is two (travels, sets) grids of the masks' dtype to work in.
    """
    m, above = out
    np.bitwise_xor(walks[0, :, None], reach, out=m)  # mismatch columns right of column 1 in row 1
    for row_changes in walks[1:]:
        np.negative(m, out=above)
        above ^= m  # columns right of each walk's drop column; 0 once it ended
        np.bitwise_xor(row_changes[:, None], reach, out=m)
        m &= above
    return ~m.any(axis=1)


def count_k_neighborly_plain_travels(A: SignMatrix, k: int) -> int:
    """Number of plain travels whose realized reorientation is k-neighborly.

    Counts every travel at once on column bitmasks (bit c-1 stands for column
    c) of the dtype ``_plan`` picks, so n may be at most MAX_MASK_ELEMENTS.
    Bit c of a row's change mask is set where the row's sign changes between
    columns c and c+1 (1-based), so a top travel entering a row at bit j
    leaves it at the lowest set bit above j.  The left-to-right forcing of
    ``realize_plain_travel`` runs over all drop sets at once, as a running
    XOR down the columns, and gives each travel's flip set R.  Reorienting
    the columns of a set F XORs every change mask with ``_boundary(F)``, so
    the top travel of R ^ S is walked row by row with bit arithmetic for
    every column set S with |S| <= k; a travel counts when none of these
    walks is positive.  The sets S are taken by increasing size, SET_GROUP at
    a time, and a travel leaves the grid at its first positive walk; each
    grid is walked in blocks of at most GRID_MAX_PAIRS (travel, set) pairs,
    at least one travel per block.  What depends only on (r, n, k) and
    SET_GROUP is built once, by ``_plan``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got k={k}")
    r, n = A.rows, A.cols
    if n < r + 1:
        raise ValueError(f"counting requires n >= r+1, got r={r}, n={n}")
    if r < 2:
        raise ValueError(f"plain travels need 2 <= r <= n, got r={r}, n={n}")
    if n > MAX_MASK_ELEMENTS:
        raise ValueError(
            f"the travels count supports at most n={MAX_MASK_ELEMENTS} elements, got n={n}"
        )
    rows, dropped, reaches = _plan(r, n, k, SET_GROUP)
    dtype = dropped.dtype
    cols = np.arange(1, n, dtype=dtype)[:, None]
    a = np.array(A.entries, dtype=np.int8)
    changes = ((a[:, 1:] != a[:, :-1]).astype(dtype) << cols[:, 0]).sum(axis=1, dtype=dtype)

    # a travel flips bit c when its rows' sign changes XOR its drops over bits
    # 1..c have odd parity; bit 0 (column 1) never flips
    bits = ((changes[rows] >> cols) & 1) ^ dropped
    flips = np.bitwise_or.reduce(np.bitwise_xor.accumulate(bits, axis=0) << cols, axis=0)

    walks = changes[:, None] ^ _boundary(flips, n)  # (r, travels)
    # one pair of grids serves every block: a block holds at most every travel
    # x SET_GROUP sets, and at most GRID_MAX_PAIRS pairs or one travel's sets
    grids = np.empty(
        (2, min(walks.shape[1] * SET_GROUP, max(GRID_MAX_PAIRS, SET_GROUP))), dtype=dtype
    )
    for reach in reaches:
        block = max(1, GRID_MAX_PAIRS // reach.shape[0])
        keep = np.empty(walks.shape[1], dtype=bool)
        for t in range(0, walks.shape[1], block):
            part = walks[:, t:t + block]
            cells = part.shape[1] * reach.shape[0]
            out = grids[:, :cells].reshape(2, part.shape[1], reach.shape[0])
            keep[t:t + block] = _no_positive_walk(part, reach, out)
        walks = walks[:, keep]
    return walks.shape[1]


def f_via_travels(A: SignMatrix, k: int) -> int:
    """Reorientation-subset count via plain travels: two subsets per travel."""
    return 2 * count_k_neighborly_plain_travels(A, k)


def positivizing_set(
    A: SignMatrix, k: int, allowed_columns: Iterable[int]
) -> frozenset[int] | None:
    """Smallest column set (by size, then lexicographic) within the allowed
    columns, of size at most k, whose reorientation makes the top travel
    positive; None if there is none.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got k={k}")
    r, n = A.rows, A.cols
    allowed = sorted(set(int(c) for c in allowed_columns))
    for c in allowed:
        if not (1 <= c <= n):
            raise ValueError(f"column label {c} out of range 1..{n}")
    entries = A.entries
    for size in range(k + 1):
        for S in itertools.combinations(allowed, size):
            _, _, positive = _walk_top(entries, r, n, frozenset(S), False)
            if positive:
                return frozenset(S)
    return None
