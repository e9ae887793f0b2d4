"""Chessboard encoding of reorientation classes.

Coloring every 2x2 window of a sign matrix by the product of its four entries
gives an (r-1) x (n-1) black/white board that is invariant under row and
column reorientations and determines the reorientation class completely.
Only the squares s(i,j) with i+1 <= j <= n-r+i-1 matter (the rest never touch
a basis product), so the classes are indexed by the 2^((n-r-1)(r-1)) colorings
of those squares.  The canonical representative of an index seeds the first
row and column with +1 and fills the rest from the square colors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sign_core import SignMatrix

__all__ = [
    "ENCODING_VERSION",
    "Chessboard",
    "chessboard_of",
    "relevant_squares",
    "representative_of_index",
    "index_of_chessboard",
    "class_count",
    "render_board",
]

# Frozen bit layout: relevant squares read in row-major order (row ascending,
# then column ascending), first square = least significant bit, 1 = black.
ENCODING_VERSION = "chessboard-rowmajor-lsb-1"


@dataclass(frozen=True)
class Chessboard:
    """(r-1) x (n-1) board; True marks a black square (2x2 product -1)."""

    colors: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if not self.colors:
            raise ValueError("board must have at least one row")
        width = len(self.colors[0])
        if width < 1 or any(len(row) != width for row in self.colors):
            raise ValueError("board rows must be non-empty and equally long")

    @property
    def rows(self) -> int:
        return len(self.colors)

    @property
    def cols(self) -> int:
        return len(self.colors[0])

    def is_black(self, i: int, j: int) -> bool:
        """Square s(i,j), 1-based, anchored at matrix position (i,j)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"square ({i},{j}) outside {self.rows}x{self.cols} board")
        return self.colors[i - 1][j - 1]


def chessboard_of(A: SignMatrix) -> Chessboard:
    """Color each 2x2 window: black iff the product of its four entries is -1."""
    r, n = A.rows, A.cols
    if r < 2 or n < 2:
        raise ValueError(f"chessboard needs at least a 2x2 matrix, got {r}x{n}")
    e = A.entries
    return Chessboard(
        tuple(
            tuple(
                e[i][j] * e[i][j + 1] * e[i + 1][j] * e[i + 1][j + 1] < 0
                for j in range(n - 1)
            )
            for i in range(r - 1)
        )
    )


def relevant_squares(r: int, n: int) -> list[tuple[int, int]]:
    """Squares that influence the oriented matroid, in row-major order.

    Empty exactly when n = r+1 (a single reorientation class).
    """
    if n < r + 1:
        raise ValueError(f"relevant squares need n >= r+1, got r={r}, n={n}")
    return [(i, j) for i in range(1, r) for j in range(i + 1, n - r + i)]


def class_count(r: int, n: int) -> int:
    """Number of reorientation classes: 2^((n-r-1)(r-1))."""
    if n < r + 1:
        raise ValueError(f"class count needs n >= r+1, got r={r}, n={n}")
    return 1 << ((n - r - 1) * (r - 1))


def representative_entries(r: int, n: int, indices) -> np.ndarray:
    """Canonical matrices of a batch of class indices as a (B, r, n) int8 array.

    The only fill logic: ``representative_of_index`` and the survey both
    build their matrices here.  Indices are not range-checked.  The result is
    a view of an (r, n, B) array, so that each entry's values over the batch
    are contiguous for the batched counting in ``sign_core``.
    """
    squares = relevant_squares(r, n)
    # class indices past 62 bits stay Python integers so that no bit is lost
    idx = np.asarray(indices, dtype=np.int64 if len(squares) < 63 else object).reshape(-1)
    sigma = np.ones((r - 1, n - 1, idx.shape[0]), dtype=np.int8)
    if squares:
        bits = (idx >> np.arange(len(squares)).astype(idx.dtype)[:, None]) & 1
        rows, cols = np.array(squares).T - 1
        sigma[rows, cols] = 1 - 2 * bits.astype(np.int8)
    A = np.ones((r, n, idx.shape[0]), dtype=np.int8)
    for i in range(r - 1):
        # a[i+1][j+1] = sigma(i,j) * a[i][j] * a[i][j+1] * a[i+1][j], row-major
        steps = sigma[i] * A[i, :-1] * A[i, 1:]
        np.cumprod(steps, axis=0, dtype=np.int8, out=A[i + 1, 1:])
    return A.transpose(2, 0, 1)


def _representative_entries(r: int, n: int, index: int) -> np.ndarray:
    """Canonical matrix of one class index as an (r, n) int8 array."""
    return representative_entries(r, n, [index])[0]


def representative_of_index(r: int, n: int, index: int) -> SignMatrix:
    """Canonical matrix of a reorientation class.

    First row and first column are all +1, irrelevant squares are forced
    white, and the remaining entries follow from the indexed square colors.
    """
    total = class_count(r, n)
    if not (0 <= index < total):
        raise ValueError(f"class index {index} out of range 0..{total - 1}")
    return SignMatrix.from_array(_representative_entries(r, n, index))


def index_of_chessboard(board: Chessboard, r: int, n: int) -> int:
    """Class index of a board: relevant squares, row-major, first square = bit 0."""
    if board.rows != r - 1 or board.cols != n - 1:
        raise ValueError(
            f"board is {board.rows}x{board.cols}, expected {r - 1}x{n - 1} for r={r}, n={n}"
        )
    index = 0
    for bit, (i, j) in enumerate(relevant_squares(r, n)):
        if board.is_black(i, j):
            index |= 1 << bit
    return index


def render_board(board: Chessboard, r: int, n: int) -> str:
    """Text view: B/W for relevant squares, b/w (lower case) for irrelevant ones."""
    if board.rows != r - 1 or board.cols != n - 1:
        raise ValueError(
            f"board is {board.rows}x{board.cols}, expected {r - 1}x{n - 1} for r={r}, n={n}"
        )
    relevant = set(relevant_squares(r, n)) if n >= r + 1 else set()
    lines = []
    for i in range(1, r):
        chars = []
        for j in range(1, n):
            ch = "B" if board.is_black(i, j) else "W"
            chars.append(ch if (i, j) in relevant else ch.lower())
        lines.append("".join(chars))
    return "\n".join(lines)
