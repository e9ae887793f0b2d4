"""Column colorings whose flip gives an isomorphic oriented matroid.

Column j's coloring cj is the class index with every relevant square (i, j)
black.  Flipping the top bit of a class index, c(n-2), is the transposition
(n-1 n), and flipping bit 0, c2, is the transposition (1 2), each up to a
reorientation of the transposed pair and a global sign.  c3 is the
transposition (2 3) when square (1,2) is black and (1 3) when it is white,
and its mirror c(n-3) is (n-2 n-1) when square (r-1, n-2) is black and
(n-2 n) when it is white, up to a reorientation of three elements and a
global sign; at n = r+2, where squares (1,3) and (r-1, n-3) are not
relevant, c3 is square (2,3) alone and c(n-3) square (r-2, r-1) alone.
The survey of the whole class space counts one class in 16 on these facts
wherever the four colorings are independent on index bits 0, 1, B-2 and
B-1, and a run counts only its even offsets on the second.
Reversing the index bits is the rotation of the matrix by a half turn: it
maps square (i,j) to (r-i, n-j) and is the relabeling e -> n+1-e, up to a
reorientation and a global sign; no survey counts on it yet.  They are
checked here on the chirotope, which the circuits engine does not use, and
on f class by class.
"""

import random
from itertools import combinations

import pytest

from lomlab.chessboard import (
    class_count,
    relevant_squares,
    representative_entries,
    representative_of_index,
)
from lomlab.sign_core import ChirotopeTable, _count_entries, chirotope_from_matrix
from lomlab.survey import _quotient_generators


def relabeled(T: ChirotopeTable, a: int, b: int) -> ChirotopeTable:
    """T relabeled by the transposition (a b)."""
    return permuted(T, {a: b, b: a})


def permuted(T: ChirotopeTable, image_of: dict[int, int]) -> ChirotopeTable:
    """T relabeled by the permutation ``image_of`` (elements it omits are
    fixed): the sign of each basis's image, times the parity of the swaps
    that sort the image."""
    signs = []
    for basis in T.bases():
        image = [image_of.get(e, e) for e in basis]
        inversions = sum(x > y for i, x in enumerate(image) for y in image[i + 1 :])
        signs.append((-1) ** inversions * T.sign(sorted(image)))
    return ChirotopeTable(T.rank, T.ground_size, tuple(signs))


def reoriented_up_to_sign(T: ChirotopeTable, U: ChirotopeTable, elements: tuple[int, ...]) -> bool:
    """True when U is T reoriented on some subset of ``elements``, up to a global sign."""
    for size in range(len(elements) + 1):
        for flipped in combinations(elements, size):
            signs = [
                s * (-1) ** len(set(basis) & set(flipped)) for basis, s in zip(T.bases(), T.signs)
            ]
            if signs == list(U.signs) or [-s for s in signs] == list(U.signs):
                return True
    return False


def chirotope(r: int, n: int, index: int) -> ChirotopeTable:
    return chirotope_from_matrix(representative_of_index(r, n, index))


def coloring(r: int, n: int, column: int) -> int:
    """The class index with every relevant square of ``column`` black."""
    return sum(1 << bit for bit, (_, j) in enumerate(relevant_squares(r, n)) if j == column)


def reversed_bits(r: int, n: int, index: int) -> int:
    """The class index with its index bits in reverse order."""
    bits = len(relevant_squares(r, n))
    return sum(1 << (bits - 1 - b) for b in range(bits) if index >> b & 1)


def sampled(r: int, n: int, count: int) -> list[int]:
    total = class_count(r, n)
    if total <= count:
        return list(range(total))
    return random.Random(f"{r},{n}").sample(range(total), count)


# (2,4) has one index bit, so bit 0 is also the top bit
@pytest.mark.parametrize("r,n", [(2, 4), (3, 6), (4, 8), (5, 9), (8, 11)])
def test_index_bits_are_transpositions(r, n):
    top = class_count(r, n) // 2
    for i in sampled(r, n, 12):
        chi = chirotope(r, n, i)
        last = (n - 1, n)
        assert reoriented_up_to_sign(relabeled(chi, *last), chirotope(r, n, i ^ top), last), i
        assert reoriented_up_to_sign(relabeled(chi, 1, 2), chirotope(r, n, i ^ 1), (1, 2)), i


def test_the_check_can_fail():
    # bit 1, square (1,3), is not the transposition (2 3) on every class
    r, n = 4, 8
    fits = [
        reoriented_up_to_sign(relabeled(chirotope(r, n, i), 2, 3), chirotope(r, n, i ^ 2), (2, 3))
        for i in sampled(r, n, 12)
    ]
    assert not all(fits)


@pytest.mark.parametrize(
    "r,n,k", [(2, 5, 0), (3, 6, 1), (3, 7, 1), (4, 8, 1), (5, 8, 2), (5, 9, 2)]
)
def test_f_is_invariant_under_both_bits(r, n, k):
    total = class_count(r, n)
    f = [_count_entries(entries, k) for entries in representative_entries(r, n, range(total))]
    for i in range(total):
        assert f[i] == f[i ^ 1] == f[i ^ (total // 2)], i


# r = 2 has no row 2, at (3,6) columns 3 and n-3 are one column, and at
# n = r+2 each of c3 and c(n-3) is one square
@pytest.mark.parametrize(
    "r,n",
    [(2, 7), (3, 6), (3, 7), (4, 8), (5, 7), (5, 9), (6, 8), (6, 10), (7, 9), (8, 11), (8, 12)],
)
def test_columns_three_and_n_minus_three_are_relabelings(r, n):
    top = class_count(r, n) // 2  # square (r-1, n-2)
    three, mirror = coloring(r, n, 3), coloring(r, n, n - 3)
    low, high = (1, 2, 3), (n - 2, n - 1, n)
    for i in sampled(r, n, 12):
        chi = chirotope(r, n, i)
        swap = (2, 3) if i & 1 else (1, 3)
        assert reoriented_up_to_sign(relabeled(chi, *swap), chirotope(r, n, i ^ three), low), i
        swap = (n - 2, n - 1) if i & top else (n - 2, n)
        assert reoriented_up_to_sign(relabeled(chi, *swap), chirotope(r, n, i ^ mirror), high), i


@pytest.mark.parametrize("r,n", [(4, 8), (6, 10)])
def test_swapping_black_and_white_fails(r, n):
    top = class_count(r, n) // 2
    for i in sampled(r, n, 12):
        chi = chirotope(r, n, i)
        swap = (1, 3) if i & 1 else (2, 3)
        assert not reoriented_up_to_sign(
            relabeled(chi, *swap), chirotope(r, n, i ^ coloring(r, n, 3)), (1, 2, 3)
        ), i
        swap = (n - 2, n) if i & top else (n - 2, n - 1)
        assert not reoriented_up_to_sign(
            relabeled(chi, *swap), chirotope(r, n, i ^ coloring(r, n, n - 3)), (n - 2, n - 1, n)
        ), i


@pytest.mark.parametrize(
    "r,n,k",
    [(2, 6, 0), (2, 8, 0), (2, 9, 0), (3, 6, 1), (3, 7, 1), (3, 9, 1), (4, 8, 1), (4, 9, 1), (5, 9, 2),
     (5, 7, 1), (6, 8, 2), (7, 9, 3)],
)
def test_f_is_invariant_under_the_four_colorings(r, n, k):
    total = class_count(r, n)
    f = [_count_entries(entries, k) for entries in representative_entries(r, n, range(total))]
    masks = [coloring(r, n, j) for j in (2, 3, n - 3, n - 2)]
    for i in range(total):
        assert all(f[i ^ mask] == f[i] for mask in masks), i


def test_quotient_needs_four_colorings_independent_on_the_pivot_bits():
    # fewer than four index bits at (2,4), (2,5), (2,6), (3,5) and (4,6), and
    # c3 = c(n-3) at (3,6)
    refused = {(2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)}
    for r in range(2, 23):
        for n in range(r + 2, 25):
            masks = _quotient_generators(r, n)
            assert (masks is None) == ((r, n) in refused), (r, n)
            if masks is None:
                continue
            assert masks == tuple(coloring(r, n, j) for j in (2, 3, n - 3, n - 2)), (r, n)
            bits = (r - 1) * (n - r - 1)
            assert masks[0] == 1 and masks[3] == 1 << (bits - 1), (r, n)
    assert all(class_count(r, n) <= 16 for r, n in refused)


@pytest.mark.parametrize("r,n", [(2, 4), (3, 6), (4, 8), (5, 9), (6, 14), (8, 11)])
def test_reversed_bits_are_the_rotated_squares(r, n):
    squares = relevant_squares(r, n)
    assert [(r - i, n - j) for i, j in reversed(squares)] == squares
    for bit, (i, j) in enumerate(squares):
        assert reversed_bits(r, n, 1 << bit) == 1 << squares.index((r - i, n - j))


@pytest.mark.parametrize("r,n", [(3, 6), (3, 7), (4, 8)])
def test_reversed_bits_are_the_reversal_of_the_elements(r, n):
    # the half-turn reverses rows, a global sign, and relabels column e as n+1-e
    reversal = {e: n + 1 - e for e in range(1, n + 1)}
    everything = tuple(range(1, n + 1))
    unrelabeled = []
    for i in sampled(r, n, 12):
        chi, rotated = chirotope(r, n, i), chirotope(r, n, reversed_bits(r, n, i))
        assert reoriented_up_to_sign(permuted(chi, reversal), rotated, everything), i
        unrelabeled.append(reoriented_up_to_sign(chi, rotated, everything))
    # the check can fail: without the relabeling most rotated classes are other classes
    assert not all(unrelabeled)


@pytest.mark.parametrize(
    "r,n,k",
    [(2, 6, 0), (2, 8, 0), (2, 9, 0), (3, 6, 1), (3, 7, 1), (3, 9, 1), (4, 8, 1), (4, 9, 1), (5, 9, 2)],
)
def test_f_is_invariant_under_the_reversal_of_the_bits(r, n, k):
    total = class_count(r, n)
    f = [_count_entries(entries, k) for entries in representative_entries(r, n, range(total))]
    for i in range(total):
        assert f[reversed_bits(r, n, i)] == f[i], i
