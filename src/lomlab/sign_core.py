"""Sign matrices, signed circuits, chirotopes, and reorientation counting.

A Lawrence oriented matroid on elements 1..n is described by an r x n matrix
of +1/-1 signs: every basis sign is a product of one entry per row taken along
an increasing column tuple, and the signs of the circuit on any (r+1)-element
support follow a first-order recurrence along that support.  A reorientation
is a subset R of columns; it is k-neighborly when every circuit of the
reoriented matroid keeps more than k positive and more than k negative
elements.  This module provides the exact, enumerate-everything engine for
those counts, both from a matrix and from a chirotope table (so that minors
can be counted too).

All row/column/element labels are 1-based at the API surface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "SignMatrix",
    "SignedCircuit",
    "ChirotopeTable",
    "OVector",
    "alternating_matrix",
    "reorient_columns",
    "reorient_rows",
    "chirotope_sign",
    "circuit_of_support",
    "all_circuits",
    "is_k_neighborly_circuits",
    "count_k_neighborly_reorientations",
    "o_vector",
    "chirotope_from_matrix",
    "delete_element",
    "contract_element",
    "circuits_from_chirotope",
    "count_k_neighborly_reorientations_chirotope",
]

MAX_EXHAUSTIVE_ELEMENTS = 24  # a survey table row, and a count at k = 0, hold 2^(n-1) bits


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignMatrix:
    """An r x n matrix with entries +1/-1."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("matrix must have at least one row")
        n = len(self.entries[0])
        r = len(self.entries)
        if n < r or r < 1:
            raise ValueError(f"invalid dimensions: need 1 <= rows <= cols, got {r}x{n}")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("all rows must have the same length")
            for v in row:
                if v not in (1, -1):
                    raise ValueError(f"matrix entries must be +1 or -1, got {v!r}")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def sign(self, i: int, j: int) -> int:
        """Entry at row i, column j (both 1-based)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"position ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self.entries[i - 1][j - 1]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SignMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SignMatrix":
        return cls(tuple(tuple(int(v) for v in row) for row in arr))

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int8)

    @classmethod
    def parse(cls, text: str) -> "SignMatrix":
        """Parse the matrix text format: one row per line, characters + or -.

        Lines starting with '#' are comments; blank lines are ignored.  Rows
        must not contain whitespace or any other character.
        """
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            if not raw or raw.startswith("#"):
                continue
            row = []
            for ch in raw:
                if ch == "+":
                    row.append(1)
                elif ch == "-":
                    row.append(-1)
                else:
                    raise ValueError(f"line {lineno}: invalid character {ch!r} in matrix row")
            rows.append(tuple(row))
        if not rows:
            raise ValueError("no matrix rows found")
        return cls(tuple(rows))

    def format(self) -> str:
        """Render in the matrix text format (one '+'/'-' row per line)."""
        return "\n".join("".join("+" if v > 0 else "-" for v in row) for row in self.entries)


@dataclass(frozen=True)
class SignedCircuit:
    """A circuit: an (r+1)-element support with one sign per element.

    Normalized so that the smallest support element carries +1; the opposite
    circuit (all signs reversed) is implicit.
    """

    support: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.support) != len(self.signs):
            raise ValueError("support and signs must have equal length")
        if any(b >= c for b, c in zip(self.support, self.support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("circuit signs must be +1 or -1")
        if self.signs[0] != 1:
            raise ValueError("circuit must be normalized: smallest element has sign +1")

    @property
    def positive_part(self) -> tuple[int, ...]:
        return tuple(e for e, s in zip(self.support, self.signs) if s > 0)

    @property
    def negative_part(self) -> tuple[int, ...]:
        return tuple(e for e, s in zip(self.support, self.signs) if s < 0)


@dataclass(frozen=True)
class ChirotopeTable:
    """Basis signs of a uniform rank-r oriented matroid on elements 1..n.

    ``signs`` holds one +1/-1 per r-subset of 1..n in lexicographic order.
    """

    rank: int
    ground_size: int
    signs: tuple[int, ...]
    _by_basis: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if not (1 <= self.rank <= self.ground_size):
            raise ValueError(f"invalid dimensions: rank {self.rank}, ground size {self.ground_size}")
        expected = comb(self.ground_size, self.rank)
        if len(self.signs) != expected:
            raise ValueError(f"table must have {expected} signs, got {len(self.signs)}")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("chirotope signs must be +1 or -1")
        index = dict(zip(self.bases(), self.signs))
        object.__setattr__(self, "_by_basis", index)

    def bases(self) -> Iterator[tuple[int, ...]]:
        """All r-subsets of 1..n as sorted tuples, in lexicographic order."""
        return itertools.combinations(range(1, self.ground_size + 1), self.rank)

    def sign(self, basis: Sequence[int]) -> int:
        """Sign of a strictly increasing r-tuple."""
        key = tuple(basis)
        try:
            return self._by_basis[key]
        except KeyError:
            raise ValueError(f"{key} is not a sorted basis of this table") from None

    def negated(self) -> "ChirotopeTable":
        return ChirotopeTable(self.rank, self.ground_size, tuple(-s for s in self.signs))


@dataclass(frozen=True)
class OVector:
    """Counts of reorientation subsets by exact neighborliness level.

    ``entries[i]`` is the number of column subsets whose reorientation is
    i-neighborly but not (i+1)-neighborly, for i = 0..floor((r-1)/2).
    """

    entries: tuple[int, ...]

    def count_at_least(self, k: int) -> int:
        """Number of subsets that are at least k-neighborly."""
        return sum(self.entries[k:]) if k >= 0 else sum(self.entries)


# ---------------------------------------------------------------------------
# matrix-level operations
# ---------------------------------------------------------------------------

def alternating_matrix(r: int, n: int) -> SignMatrix:
    """The all-plus r x n matrix, whose oriented matroid has alternating circuits."""
    if not (1 <= r <= n):
        raise ValueError(f"invalid dimensions: need 1 <= r <= n, got r={r}, n={n}")
    return SignMatrix(tuple(tuple(1 for _ in range(n)) for _ in range(r)))


def _check_labels(labels: Iterable[int], upper: int, what: str) -> frozenset[int]:
    out = frozenset(int(x) for x in labels)
    for x in out:
        if not (1 <= x <= upper):
            raise ValueError(f"{what} label {x} out of range 1..{upper}")
    return out


def reorient_columns(A: SignMatrix, columns: Iterable[int]) -> SignMatrix:
    """Negate every entry of the given columns (1-based labels)."""
    flip = _check_labels(columns, A.cols, "column")
    if not flip:
        return A
    return SignMatrix(
        tuple(
            tuple(-v if (j + 1) in flip else v for j, v in enumerate(row))
            for row in A.entries
        )
    )


def reorient_rows(A: SignMatrix, rows: Iterable[int]) -> SignMatrix:
    """Negate every entry of the given rows; the oriented matroid is unchanged."""
    flip = _check_labels(rows, A.rows, "row")
    if not flip:
        return A
    return SignMatrix(
        tuple(
            tuple(-v for v in row) if (i + 1) in flip else row
            for i, row in enumerate(A.entries)
        )
    )


def chirotope_sign(A: SignMatrix, basis: Sequence[int]) -> int:
    """Basis sign: the product of a[i][j_i] along the increasing tuple j_1<...<j_r."""
    basis = tuple(int(b) for b in basis)
    if len(basis) != A.rows:
        raise ValueError(f"basis must have {A.rows} elements, got {len(basis)}")
    if any(b >= c for b, c in zip(basis, basis[1:])):
        raise ValueError("basis must be strictly increasing")
    if basis[0] < 1 or basis[-1] > A.cols:
        raise ValueError(f"basis labels must lie in 1..{A.cols}")
    sign = 1
    for i, j in enumerate(basis, start=1):
        sign *= A.sign(i, j)
    return sign


def _circuit_signs(A: SignMatrix, support: tuple[int, ...]) -> tuple[int, ...]:
    # X_{j_1} = +1; X_{j_{i+1}} = -X_{j_i} * a[i][j_i] * a[i][j_{i+1}]
    signs = [1]
    for row, prev, cur in zip(A.entries, support, support[1:]):
        signs.append(-signs[-1] * row[prev - 1] * row[cur - 1])
    return tuple(signs)


def circuit_of_support(A: SignMatrix, support: Sequence[int]) -> SignedCircuit:
    """The circuit on an (r+1)-element support, normalized to +1 on its minimum."""
    support = tuple(int(e) for e in support)
    if len(support) != A.rows + 1:
        raise ValueError(f"support must have {A.rows + 1} elements, got {len(support)}")
    if any(b >= c for b, c in zip(support, support[1:])):
        raise ValueError("support must be strictly increasing")
    if support[0] < 1 or support[-1] > A.cols:
        raise ValueError(f"support labels must lie in 1..{A.cols}")
    return SignedCircuit(support, _circuit_signs(A, support))


def all_circuits(A: SignMatrix) -> list[SignedCircuit]:
    """Every circuit, one per (r+1)-support, in lexicographic support order."""
    r, n = A.rows, A.cols
    return [
        SignedCircuit(support, _circuit_signs(A, support))
        for support in itertools.combinations(range(1, n + 1), r + 1)
    ]


def is_k_neighborly_circuits(A: SignMatrix, reoriented: Iterable[int], k: int) -> bool:
    """Is the reorientation of the given column set k-neighborly?

    Checks every circuit of A: after flipping the signs of the reoriented
    elements, both the positive and the negative side must keep more than k
    elements.  Exits on the first violating circuit.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got k={k}")
    flip = _check_labels(reoriented, A.cols, "element")
    r, n = A.rows, A.cols
    size = r + 1
    for support in itertools.combinations(range(1, n + 1), size):
        signs = _circuit_signs(A, support)
        pos = sum(1 for e, s in zip(support, signs) if (s > 0) != (e in flip))
        if not (k < pos < size - k):
            return False
    return True


# ---------------------------------------------------------------------------
# vectorized counting engine
#
# A circuit is its support j_1 < ... < j_{r+1} (0-based columns, one row of
# _mask_context(r, n)) and its sign pattern: bit i-1 is set when the
# sign at j_{i+1} is +1, the sign at j_1 being +1.  R and its complement give
# the same circuits up to a global sign, so only half-masks t (R = t << 1,
# element 1 unflipped) are tested and the tally is doubled.  The
# test is bit-sliced: bit b of uint64 word w is half-mask 64w+b.  An element's
# bit plane is set where t flips it; XOR ~0 when its circuit sign is +, it is
# set where the element ends positive, and its complement where it ends
# negative.  Saturating "at least i" counters per side mark level >= i, both
# sides keeping i elements; R is k-neighborly when every circuit has k+1.
#
# Circuits are sorted by largest column and counted in one stage per column.
# Deleting columns leaves an LOM, so a half-mask that breaks a circuit on
# columns 0..j is lost for good, and those kept are k-neighborly
# reorientations of an LOM on j+1 elements: at k >= 1 at most c(r, j+1, k),
# polynomial in j.  The first stage takes every half-mask of columns
# 0..min(n-1, _FIRST_STAGE) and the circuits inside them.  Each later stage
# keeps the half-masks still at the level being counted, doubles them (its
# column unflipped, then flipped), packs them again and ANDs in the circuits
# that end at its column; when none is left the count is 0.  Up to n = 11
# the first stage is the only one; past it the work follows the survivors.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _mask_context(r: int, n: int) -> np.ndarray:
    """(C(n, r+1), r+1) int64: every circuit support, 0-based columns, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), r + 1))
    return np.fromiter(flat, dtype=np.int64, count=comb(n, r + 1) * (r + 1)).reshape(-1, r + 1)


_BLOCK_BYTES = 128 << 10  # one bit plane of a batch of circuits; one table-row union
_FIRST_STAGE = 10  # the single-matrix count starts from every half-mask of columns 0..10
# 0xAAAA..., 0xCCCC..., 0xF0F0..., ...: bit b of _LOW_PLANES[i] is bit i of b
_LOW_PLANES = [sum(1 << b for b in range(64) if b >> i & 1) for i in range(6)]


@lru_cache(maxsize=16)
def _half_reorientation_masks(n: int) -> np.ndarray:
    """(2n, words) uint64: the n bit planes of the half-masks, then their complements.

    Plane j, word w, bit b is column j's bit of half-mask 64w+b.  Plane 0 is
    zero (element 1 never flips); bits past 2^(n-1) pad the word when n < 7.
    """
    words = np.arange(max(1, (1 << (n - 1)) // 64), dtype=np.uint64)
    planes = np.zeros((n, words.shape[0]), dtype=np.uint64)
    planes[1:7] = np.array(_LOW_PLANES[: n - 1], dtype=np.uint64)[:, None]
    for j in range(7, n):
        planes[j] = -(words >> np.uint64(j - 7) & np.uint64(1))  # 0 or ~0
    return np.concatenate([planes, ~planes])


def _valid_bits(n: int) -> np.uint64:
    return ~np.uint64(0) if n >= 7 else np.uint64((1 << (1 << (n - 1))) - 1)


def _at_least(signed: np.ndarray, elements: np.ndarray, positive: np.ndarray, m: int) -> np.ndarray:
    """(m, B, words) bits: the half-masks at level >= 1..m on each of B circuits.

    signed is the n bit planes, then their complements; elements and positive
    are (r+1, B): the circuits' supports, and 1 where the sign is +.
    """
    side = positive[:, None] ^ np.array([[0], [1]], dtype=positive.dtype)
    rows = elements[:, None] + len(signed) // 2 * side  # (r+1, 2, B): + side, - side
    ge = np.zeros((m,) + rows.shape[1:] + signed.shape[1:], dtype=np.uint64)
    for e, x in enumerate(signed.take(row, axis=0) for row in rows):  # ge[i]: i+1 per side
        top = min(e, m - 1)
        ge[1 : top + 1] |= ge[:top] & x  # the right side reads the old counters
        ge[0] |= x
    return ge[:, 0] & ge[:, 1]


def _circuit_patterns(entries: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """(C, B) sign patterns of the circuits on ``supports`` of B sign arrays.

    ``entries`` is (B, r, n) int8.  Patterns are uint8 up to r = 8, uint16 up
    to 16 and uint32 above.
    """
    _, r, n = entries.shape
    dtype = np.uint8 if r <= 8 else np.uint16 if r <= 16 else np.uint32
    # With all entries +1 the circuit signs alternate +,-,+,...  A -1 that
    # step i reads (row i, at j_{i+1} or j_{i+2}) flips the signs at
    # j_{i+2}..j_{r+1}, which are pattern bits i..r-1.
    base = sum(1 << (m - 1) for m in range(2, r + 1, 2))
    tails = ((1 << r) - (1 << np.arange(r))).astype(dtype)
    by_entry = entries.transpose(1, 2, 0)
    flips = np.where(by_entry < 0, tails[:, None, None], dtype(0)).reshape(r * n, -1)
    patterns = np.full((supports.shape[0], flips.shape[1]), base, dtype=dtype)
    rows_at = np.arange(r) * n
    for ends in (supports[:, :-1], supports[:, 1:]):
        for index in (rows_at + ends).T:  # row i at one end of step i
            patterns ^= flips[index]
    return patterns


def _circuit_masks_from_entries(entries: np.ndarray) -> np.ndarray:
    """(C,) sign patterns of the circuits of one (r, n) int8 sign array, on _mask_context(r, n)."""
    return _circuit_patterns(entries[None], _mask_context(*entries.shape))[:, 0]


def _positive_rows(patterns: np.ndarray, r: int) -> np.ndarray:
    """(r+1, C): 1 where a circuit's sign is +, a row of ones for j_1, then the pattern bits."""
    bits = patterns >> np.arange(r, dtype=patterns.dtype)[:, None] & 1
    return np.concatenate([np.ones((1, patterns.shape[0]), dtype=patterns.dtype), bits])


def _compact(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """(R, ceil(len(keep) / 64)) uint64: bits ``keep`` of each packed row, in order, zero-padded."""
    out = np.zeros((rows.shape[0], -(-keep.size // 64) * 8), dtype=np.uint8)
    per = max(1, _BLOCK_BYTES // (rows.shape[1] * 64))  # rows unpacked at once, a byte per bit
    for lo in range(0, rows.shape[0], per):
        bits = np.unpackbits(rows[lo : lo + per].view(np.uint8), axis=1, bitorder="little")
        packed = np.packbits(bits[:, keep], axis=1, bitorder="little")
        out[lo : lo + per, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _neighborliness_levels(
    patterns: np.ndarray, supports: np.ndarray, n: int, m: int, level: int
) -> np.ndarray:
    """(m, words) bits: the surviving half-masks at level >= 1..m on every circuit.

    Level i means (i-1)-neighborly; level 0, some circuit goes one-sided.
    The circuits are read by last column, one stage per column from
    min(n-1, _FIRST_STAGE) on; each stage keeps the half-masks at ``level``
    or above, so rows ``level``..m are exact.
    """
    positive = _positive_rows(patterns, supports.shape[1] - 1)
    first = min(n - 1, _FIRST_STAGE)
    order = np.argsort(supports[:, -1].astype(np.uint8), kind="stable")  # a radix sort
    ends = np.bincount(supports[:, -1], minlength=n).cumsum()[first:]  # stage end per column
    signed = _half_reorientation_masks(first + 1)
    planes = signed[: first + 1]
    out = np.full((m, signed.shape[1]), _valid_bits(first + 1))
    for column, start, end in zip(range(first, n), [0, *ends], ends):
        if column > first:  # keep the survivors, then double them on this column
            keep = np.flatnonzero(np.unpackbits(out[level - 1].view(np.uint8), bitorder="little"))
            if not keep.size:
                return out[:, :0]
            kept = _compact(np.concatenate([planes, out]), keep)
            planes = np.zeros((column + 1, 2 * kept.shape[1]), dtype=np.uint64)
            planes[:column] = np.tile(kept[:column], 2)
            planes[column, kept.shape[1] :] = ~np.uint64(0)
            signed = np.concatenate([planes, ~planes])
            out = np.tile(kept[column:], 2)
        step = max(1, _BLOCK_BYTES // signed[0].nbytes)
        for lo in range(start, end, step):
            batch = order[lo : min(end, lo + step)]
            elements, signs = supports.take(batch, axis=0).T, positive.take(batch, axis=1)
            levels = _at_least(signed, elements, signs, m)
            out &= np.bitwise_and.reduce(levels, axis=1)
    return out


def _count_from_masks(
    patterns: np.ndarray, supports: np.ndarray, n: int, r: int, k: int
) -> int:
    m = min(k + 1, (r + 1) // 2 + 1)  # past (r+1)//2 the level set is empty
    levels = _neighborliness_levels(patterns, supports, n, m, m)
    return 2 * int(np.bitwise_count(levels[m - 1]).sum())


def _count_entries(entries: np.ndarray, k: int) -> int:
    """k-neighborly reorientation count of one (r, n) int8 sign array."""
    r, n = entries.shape
    patterns = _circuit_masks_from_entries(entries)
    return _count_from_masks(patterns, _mask_context(r, n), n, r, k)


# ---------------------------------------------------------------------------
# violation-table engine (many matrices of one shape at once)
#
# Whether a half-mask R violates the circuit on support S depends only on the
# bits of R on S and on the circuit's sign pattern.  table[c, p] is the set of
# half-masks that violate support c under pattern p, one bit per half-mask
# packed into uint64 words, so a matrix's violators are the OR of one row per
# support.  Every half-mask outside that union is k-neighborly, which gives
# f = 2 (2^(n-1) - |union|).
#
# A violation depends on popcount(P ^ (R & S)) only, and setting pattern bit
# e-1 flips the bit of P at j_{e+1} just as reorienting that column does.  So
# the row with that bit set is the row without it read at half-mask t ^ 2^b,
# where b = j_{e+1} - 2 is the column's half-mask bit: only pattern 0 goes
# through the counting kernel, and patterns 2^(e-1)..2^e-1 are translates of
# patterns 0..2^(e-1)-1.  For b < 6 a translate swaps bits within each word,
# for b >= 6 it swaps words 2^(b-6) apart.
# ---------------------------------------------------------------------------

def violation_table_nbytes(r: int, n: int) -> int:
    """Size of violation_table(r, n, k): C(n, r+1) x 2^r rows of 2^(n-1) bits."""
    return comb(n, r + 1) * (1 << r) * max(8, (1 << (n - 1)) // 8)


def violation_table(r: int, n: int, k: int) -> np.ndarray:
    """(C(n, r+1), 2^r, words) uint64 bitsets of violating half-masks.

    Half-mask t (reorientation t << 1) is bit t; words run past 2^(n-1)
    bits only when n < 7, and those padding bits are zero.  Pattern 0 of
    each support is one circuit for the counting kernel; every other
    pattern is a translate of it.
    """
    _require_countable(r, n)
    m = min(k + 1, (r + 1) // 2 + 1)
    signed = _half_reorientation_masks(n)
    supports = _mask_context(r, n)
    table = np.empty((supports.shape[0], 1 << r, signed.shape[1]), dtype=np.uint64)
    first = _positive_rows(np.zeros(1, dtype=np.int64), r)  # pattern 0, broadcast over supports
    step = max(1, _BLOCK_BYTES // signed[0].nbytes)
    for lo in range(0, supports.shape[0], step):
        at_least = _at_least(signed, supports[lo : lo + step].T, first, m)
        table[lo : lo + step, 0] = ~at_least[m - 1] & _valid_bits(n)
    _translate_patterns(table, supports)
    return table


def _translate_patterns(table: np.ndarray, supports: np.ndarray) -> None:
    """Fill patterns 1..2^r-1 of every support from its pattern 0 by doubling."""
    count, patterns, words = table.shape
    for e in range(patterns.bit_length() - 1):  # pattern bit e
        half = 1 << e
        per = max(1, _BLOCK_BYTES // (half * words * 8))  # supports per batch
        column_bit = supports[:, e + 1] - 1  # half-mask bit of the column of pattern bit e
        for b in np.unique(column_bit).tolist():
            group = np.flatnonzero(column_bit == b)
            for lo in range(0, group.size, per):
                sel = group[lo : lo + per]
                if b >= 6:  # swap words 2^(b-6) apart
                    pairs = table.reshape(count, patterns, -1, 2, 1 << (b - 6))
                    pairs[sel, half : 2 * half] = pairs[sel, :half, :, ::-1]
                else:  # swap bits 2^b apart within each word
                    s, upper = np.uint64(1 << b), np.uint64(_LOW_PLANES[b])
                    x = table[sel, :half]
                    low = (x & upper) >> s
                    x &= ~upper
                    x <<= s
                    x |= low
                    table[sel, half : 2 * half] = x


# ---------------------------------------------------------------------------
# first-row runs
#
# Classes whose indices differ only in the low w bits (chessboard squares
# (1,2)..(1,w+1)) have matrices that differ only in row 1: reorienting
# row-1 entries flips exactly those squares.  Flipping square (1,j) negates
# row 1 right of column j, so column j is negated when the prefix XOR of the
# flipped squares left of it is odd.  Row 1 enters a circuit's signs only at
# its first step, so a support (j1, j2, ...) keeps its pattern when j1 and j2
# take the same negation and otherwise takes the complement.
#
# Offsets o and o ^ 1 of a run have the same count.  Square (1,2) negates
# row 1 right of column 2, and row 1 enters a basis sign only at the basis's
# smallest element, so the flip negates exactly the bases that miss {1, 2}:
# up to a global sign, that is the chirotope relabeled by the transposition
# (1 2) and reoriented on a subset of {1, 2}.  So a run counts only the
# offsets whose low L bits are clear, L = 1 by default; the caller chooses
# L and decides which classes each count stands for.  With the low L bits
# clear, columns 1..L+2 share parity class 0 and column j takes the class
# min(j-L-2, w-L).  A run of 2^w aligned classes therefore needs one table
# row per support whose j1 and j2 share a class and two for the others:
# they are OR-ed into a fixed union and one union per (class of j1, class of
# j2) pair and pattern variant, and each counted offset is its fixed union
# OR one union per pair.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _run_plan(r: int, n: int, width: int, low_bits: int = 1) -> tuple:
    """Supports grouped by the union they are OR-ed into, in runs of 2^width
    classes that count the offsets whose low ``low_bits`` bits are clear.

    Returns the supports, sorted by union, fixed ones first; the table row
    of each one's pattern 0, as (C, 1) int32; (first slot, first support,
    end support) of each union; and the parity classes a < b of j1 and j2
    of each pair.  Slot 0 is the fixed union; pair p owns slots 1+2p
    (pattern kept) and 2+2p (pattern complemented).
    """
    low = min(low_bits, width)
    parity_class = np.clip(np.arange(n) - 1 - low, 0, width - low)  # of each 0-based column
    supports = _mask_context(r, n)
    a, b = parity_class[supports[:, 0]], parity_class[supports[:, 1]]
    pairs, pair_of = np.unique(np.stack([a, b], axis=1)[a < b], axis=0, return_inverse=True)
    slot = np.zeros(supports.shape[0], dtype=np.int64)
    slot[a < b] = 1 + 2 * pair_of.reshape(-1)
    order = np.argsort(slot, kind="stable")
    firsts = [0, *range(1, 2 * len(pairs), 2)]
    starts, ends = (np.searchsorted(slot[order], firsts, side=side) for side in ("left", "right"))
    groups = tuple(g for g in zip(firsts, starts.tolist(), ends.tolist()) if g[2] > g[1])
    first_rows = (order << r).astype(np.int32)[:, None]
    return supports[order], first_rows, groups, pairs.reshape(-1, 2)


def _run_width(r: int, n: int, length: int, low_bits: int = 1) -> int:
    """Width of the runs that count a chunk of ``length`` classes.

    Any aligned power-of-two part of a run of chessboard row 1 is itself a
    run.  Per class, runs of 2^w classes gather each support of their plan
    once, or twice when it is in a pair's unions, over 2^w classes, and OR
    one union per pair at each of the 2^(w-L) counted offsets, L =
    ``low_bits``; of the widths that fit the chunk and row 1, this takes the
    one with the fewest rows.  A run is at least L wide, so that it counts
    one class in 2^L: the width is at most max(L, n-r-1), and a run wider
    than row 1 counts only its first class.
    """
    def rows(w: int) -> float:
        _, _, groups, pairs = _run_plan(r, n, w, low_bits)
        gathered = sum((end - start) * (2 if slot else 1) for slot, start, end in groups)
        return gathered / (1 << w) + len(pairs) / (1 << low_bits)

    widest = max(low_bits, min(n - r - 1, length.bit_length() - 1))
    return min(range(low_bits, widest + 1), key=rows)


def violation_block_size(table: np.ndarray, width: int = 0, low_bits: int = 1) -> int:
    """Runs of 2^width classes per violation_counts call.

    One support's gathered rows, one per run and pattern variant, stay under
    a fixed cap; so do the rows of each step of the per-class combine.
    """
    variants = 2 if width > low_bits else 1
    return max(1, _BLOCK_BYTES // (variants * table.shape[2] * table.itemsize))


def violation_counts(
    table: np.ndarray, entries: np.ndarray, width: int = 0, low_bits: int = 1
) -> np.ndarray:
    """k-neighborly reorientation counts in B runs of 2^width classes, one per counted offset.

    ``entries`` is (B, r, n) int8: the canonical matrix of each run's first
    class, whose index must be a multiple of 2^width, with
    width <= max(low_bits, n - r - 1).  A run counts its offsets whose low
    L = min(low_bits, width) bits are clear: the result holds the
    B * 2^(width - L) counts of those classes in index order.  With width 0
    every matrix is its own run and may hold any signs.  Fastest on the
    layout ``chessboard.representative_entries`` returns, where the batch
    axis is the contiguous one.
    """
    _, r, n = entries.shape
    supports, first_rows, groups, pairs = _run_plan(r, n, width, low_bits)
    patterns = _circuit_patterns(entries, supports)
    unions = _gather_unions(table, patterns, first_rows, groups, pairs.shape[0])
    violators = _combine_unions(unions, pairs, width - min(low_bits, width))
    return 2 * ((1 << (n - 1)) - violators.reshape(-1))


def _gather_unions(
    table: np.ndarray, patterns: np.ndarray, first_rows: np.ndarray, groups: tuple, pair_count: int
) -> np.ndarray:
    """(2 * pair_count + 1, runs, words): the table rows of each run's supports,
    OR-ed into the unions of ``_run_plan``'s slots, pattern kept and complemented."""
    runs, words = patterns.shape[1], table.shape[2]
    keys = np.concatenate([patterns, patterns ^ (table.shape[1] - 1)], axis=1) + first_rows
    flat = table.reshape(-1, words)
    unions = np.zeros(((2 * pair_count + 1) * runs, words), dtype=np.uint64)
    per = max(1, _BLOCK_BYTES // (2 * runs * words * 8))  # supports per gather
    gathered = np.empty((min(per, keys.shape[0]) * keys.shape[1], words), dtype=np.uint64)
    for s, start, end in groups:  # one gather holds as many supports as fit the cap
        variants = 2 if s else 1
        target = unions[s * runs : (s + variants) * runs]
        for lo in range(start, end, per):
            index = keys[lo : min(end, lo + per), : variants * runs]
            rows = flat.take(index.reshape(-1), axis=0, out=gathered[: index.size])
            if index.shape[0] > 1:
                rows = np.bitwise_or.reduce(rows.reshape(index.shape[0], -1, words), axis=0)
            target |= rows
    return unions.reshape(-1, runs, words)


def _combine_unions(unions: np.ndarray, pairs: np.ndarray, bits: int) -> np.ndarray:
    """(runs, 2^bits): the violating reorientations of each counted offset of each run.

    Counted offset o << low of a run flips squares (1, low+2)..(1, width+1)
    as the ``bits`` bits of o say; parity class g is negated by the parity
    of the bits below g, and the offset ORs its fixed union with one union
    per pair of parity classes.
    """
    _, runs, words = unions.shape
    offsets = 1 << bits
    step = max(1, _BLOCK_BYTES // (runs * words * 8))  # offsets per step
    below = (1 << np.arange(bits + 1))[:, None] - 1
    kept = (1 + 2 * np.arange(pairs.shape[0]))[:, None]
    violators = np.empty((runs, offsets), dtype=np.int64)
    buffers = np.empty((2, min(step, offsets), runs, words), dtype=np.uint64)
    for lo in range(0, offsets, step):
        o = np.arange(lo, min(offsets, lo + step))
        parity = np.bitwise_count(below & o) & 1
        out, part = buffers[:, : o.shape[0]]
        out[:] = unions[0]
        for slots in kept + (parity[pairs[:, 0]] ^ parity[pairs[:, 1]]):
            unions.take(slots, axis=0, out=part)
            out |= part
        violators[:, lo : lo + o.shape[0]] = np.bitwise_count(out).sum(axis=2, dtype=np.int64).T
    return violators


def _require_countable(r: int, n: int) -> None:
    if n < r + 1:
        raise ValueError(f"counting requires n >= r+1 (no circuits at r={r}, n={n})")
    if n > MAX_EXHAUSTIVE_ELEMENTS:
        raise ValueError(
            f"exhaustive counting supports at most n={MAX_EXHAUSTIVE_ELEMENTS} elements, got n={n}"
        )


def count_k_neighborly_reorientations(A: SignMatrix, k: int) -> int:
    """Number of column subsets R whose reorientation of A is k-neighborly.

    Counts subsets of 1..n (not reorientation classes); the result is always
    even because R and its complement reorient to the same circuits up to a
    global sign flip.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got k={k}")
    _require_countable(A.rows, A.cols)
    return _count_entries(A.to_array(), k)


def o_vector(A: SignMatrix) -> OVector:
    """Histogram of reorientation subsets by their exact neighborliness level."""
    width = (A.rows - 1) // 2 + 1
    _require_countable(A.rows, A.cols)
    patterns = _circuit_masks_from_entries(A.to_array())
    levels = _neighborliness_levels(patterns, _mask_context(A.rows, A.cols), A.cols, width, 1)
    at_least = [2 * int(c) for c in np.bitwise_count(levels).sum(axis=1)] + [0]
    return OVector(tuple(at_least[i] - at_least[i + 1] for i in range(width)))


# ---------------------------------------------------------------------------
# chirotope-level operations
# ---------------------------------------------------------------------------

def chirotope_from_matrix(A: SignMatrix) -> ChirotopeTable:
    """Tabulate every basis sign of the matrix's oriented matroid."""
    r, n = A.rows, A.cols
    signs = []
    for basis in itertools.combinations(range(1, n + 1), r):
        sign = 1
        for i, j in enumerate(basis, start=1):
            sign *= A.entries[i - 1][j - 1]
        signs.append(sign)
    return ChirotopeTable(r, n, tuple(signs))


def delete_element(T: ChirotopeTable, e: int) -> ChirotopeTable:
    """Remove element e; labels above e shift down by one, basis signs carry over."""
    r, n = T.rank, T.ground_size
    if n - 1 < r:
        raise ValueError(f"cannot delete: rank {r} needs at least {r} of {n} elements")
    if not (1 <= e <= n):
        raise ValueError(f"element {e} out of range 1..{n}")
    signs = []
    for basis in itertools.combinations(range(1, n), r):
        old = tuple(b if b < e else b + 1 for b in basis)
        signs.append(T.sign(old))
    return ChirotopeTable(r, n - 1, tuple(signs))


def contract_element(T: ChirotopeTable, e: int) -> ChirotopeTable:
    """Contract element e, dropping the rank by one.

    The new sign of a basis B is the old sign of B + {e} with the parity of
    moving e from the end of the tuple to its sorted position.  The result is
    well-defined up to a global negation, which no downstream count sees.
    """
    r, n = T.rank, T.ground_size
    if r < 2:
        raise ValueError("cannot contract below rank 1")
    if not (1 <= e <= n):
        raise ValueError(f"element {e} out of range 1..{n}")
    signs = []
    for basis in itertools.combinations(range(1, n), r - 1):
        old = tuple(b if b < e else b + 1 for b in basis)
        below = sum(1 for b in old if b < e)
        parity = -1 if (len(old) - below) % 2 else 1
        merged = tuple(sorted(old + (e,)))
        signs.append(parity * T.sign(merged))
    return ChirotopeTable(r - 1, n - 1, tuple(signs))


def circuits_from_chirotope(T: ChirotopeTable) -> list[SignedCircuit]:
    """Recover every circuit from adjacent-basis sign ratios.

    On a support j_1<...<j_{r+1} the signs obey
    X_{j_{i+1}} = -X_{j_i} * chi(support - j_i) * chi(support - j_{i+1}),
    normalized to +1 on the minimum element.
    """
    r, n = T.rank, T.ground_size
    out = []
    for support in itertools.combinations(range(1, n + 1), r + 1):
        signs = [1]
        for i in range(r):
            without_cur = support[:i] + support[i + 1 :]
            without_next = support[: i + 1] + support[i + 2 :]
            signs.append(-signs[-1] * T.sign(without_cur) * T.sign(without_next))
        out.append(SignedCircuit(support, tuple(signs)))
    return out


def count_k_neighborly_reorientations_chirotope(T: ChirotopeTable, k: int) -> int:
    """As count_k_neighborly_reorientations, but driven by a chirotope table."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got k={k}")
    r, n = T.rank, T.ground_size
    _require_countable(r, n)
    circuits = circuits_from_chirotope(T)
    patterns = [sum(1 << i for i, s in enumerate(c.signs[1:]) if s > 0) for c in circuits]
    supports = np.array([c.support for c in circuits], dtype=np.int64) - 1
    return _count_from_masks(np.array(patterns, dtype=np.int64), supports, n, r, k)
