"""Two index bits whose flip gives an isomorphic oriented matroid.

Flipping the top bit of a class index is the transposition (n-1 n), and
flipping bit 0 is the transposition (1 2), each up to a reorientation of the
transposed pair and a global sign.  The survey of the whole class space
counts its lower half for the upper half too, and a run counts only its
even offsets, on these two facts.  They are checked here on the
chirotope, which the circuits engine does not use, and on f class by class.
"""

import random
from itertools import combinations

import pytest

from lomlab.chessboard import class_count, representative_entries, representative_of_index
from lomlab.sign_core import ChirotopeTable, _count_entries, chirotope_from_matrix


def relabeled(T: ChirotopeTable, a: int, b: int) -> ChirotopeTable:
    """T relabeled by the transposition (a b): the sign of each basis's image,
    times the parity of the swaps that sort the image."""
    swap = {a: b, b: a}
    signs = []
    for basis in T.bases():
        image = [swap.get(e, e) for e in basis]
        inversions = sum(x > y for i, x in enumerate(image) for y in image[i + 1 :])
        signs.append((-1) ** inversions * T.sign(sorted(image)))
    return ChirotopeTable(T.rank, T.ground_size, tuple(signs))


def reoriented_up_to_sign(T: ChirotopeTable, U: ChirotopeTable, pair: tuple[int, int]) -> bool:
    """True when U is T reoriented on some subset of ``pair``, up to a global sign."""
    for size in range(3):
        for flipped in combinations(pair, size):
            signs = [
                s * (-1) ** len(set(basis) & set(flipped)) for basis, s in zip(T.bases(), T.signs)
            ]
            if signs == list(U.signs) or [-s for s in signs] == list(U.signs):
                return True
    return False


def chirotope(r: int, n: int, index: int) -> ChirotopeTable:
    return chirotope_from_matrix(representative_of_index(r, n, index))


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
