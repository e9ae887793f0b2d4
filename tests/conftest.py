"""Shared test helpers: independent brute-force oracles and generators.

The oracles here deliberately avoid the vectorized mask engine: they loop
over every column subset and every circuit in plain Python, so that engine
results are checked against an independent computation path.
"""

from __future__ import annotations

import random
from itertools import combinations

from lomlab.chessboard import class_count, representative_of_index
from lomlab.sign_core import SignMatrix, all_circuits, is_k_neighborly_circuits


def random_matrix(rng: random.Random, r: int, n: int) -> SignMatrix:
    return SignMatrix.from_rows(
        [[rng.choice((1, -1)) for _ in range(n)] for _ in range(r)]
    )


def plus_except(r: int, n: int, flipped) -> SignMatrix:
    """The all-plus r x n matrix with the 1-based entries (i, j) in ``flipped`` negated."""
    rows = [[1] * n for _ in range(r)]
    for i, j in flipped:
        rows[i - 1][j - 1] = -1
    return SignMatrix.from_rows(rows)


def all_subsets(n: int):
    for size in range(n + 1):
        yield from combinations(range(1, n + 1), size)


def brute_force_count(A: SignMatrix, k: int) -> int:
    """Oracle: test every one of the 2^n subsets with the circuit predicate."""
    return sum(1 for R in all_subsets(A.cols) if is_k_neighborly_circuits(A, R, k))


def brute_force_neighborliness(A: SignMatrix, R, circuits) -> int:
    """Oracle: min over the circuits of A of min(|positive side|, |negative side|).

    ``circuits`` is ``all_circuits(A)``, computed once per matrix by the caller.
    """
    flip = set(R)
    best = A.rows + 1
    for c in circuits:
        pos = sum(1 for e, s in zip(c.support, c.signs) if (s > 0) != (e in flip))
        best = min(best, pos, len(c.support) - pos)
    return best


def brute_force_o_vector(A: SignMatrix) -> tuple[int, ...]:
    """Oracle: histogram every subset by its exact neighborliness level."""
    width = (A.rows - 1) // 2 + 1
    circuits = all_circuits(A)
    out = [0] * width
    for R in all_subsets(A.cols):
        m = brute_force_neighborliness(A, R, circuits)
        if m >= 1:
            out[m - 1] += 1
    return tuple(out)


def brute_force_acyclic_subsets(A: SignMatrix) -> set[frozenset[int]]:
    """Oracle: subsets whose reorientation leaves every circuit two-sided."""
    circuits = all_circuits(A)
    return {
        frozenset(R)
        for R in all_subsets(A.cols)
        if brute_force_neighborliness(A, R, circuits) >= 1
    }


def all_representatives(r: int, n: int):
    for index in range(class_count(r, n)):
        yield representative_of_index(r, n, index)
