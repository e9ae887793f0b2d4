import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lomlab.travels as travels_module
from conftest import (
    all_representatives,
    brute_force_acyclic_subsets,
    brute_force_count,
    random_matrix,
)
from lomlab.chessboard import representative_of_index
from lomlab.sign_core import (
    SignMatrix,
    all_circuits,
    alternating_matrix,
    is_k_neighborly_circuits,
    reorient_columns,
    reorient_rows,
)
from lomlab.travels import (
    PlainTravel,
    bottom_travel,
    count_k_neighborly_plain_travels,
    enumerate_plain_travels,
    f_via_travels,
    is_acyclic_via_travel,
    is_k_neighborly_matrix,
    positivizing_set,
    realize_plain_travel,
    top_travel,
)


def plus_with_cols_negated(r, n, cols):
    return reorient_columns(alternating_matrix(r, n), cols)


def scalar_travel_count(A, k):
    """Reference for the batched count: realize each plain travel on its own and
    scan its column sets with the scalar top-travel walk."""
    return sum(
        is_k_neighborly_matrix(realize_plain_travel(A, P)[0], k)
        for P in enumerate_plain_travels(A.rows, A.cols)
    )


class TestTopTravel:
    def test_all_plus_runs_along_row_one(self):
        t = top_travel(alternating_matrix(3, 5))
        assert t.path == ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5))
        assert not t.positive
        assert t.drop_columns == ()

    def test_negated_column_walks_diagonally(self):
        t = top_travel(plus_with_cols_negated(3, 5, {2}))
        assert t.path == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (3, 5))
        assert not t.positive
        assert t.drop_columns == (2, 3)

    def test_flip_in_last_row_is_positive(self):
        t = top_travel(plus_with_cols_negated(2, 4, {2}))
        assert t.positive
        assert t.path == ((1, 1), (1, 2), (2, 2), (2, 3))

    def test_drop_at_last_column_ends_travel(self):
        # sign change at column n in a row above the last: one-cell final row
        A = SignMatrix.from_rows([[1, 1, 1, -1], [1, 1, 1, 1], [1, 1, 1, 1]])
        t = top_travel(A)
        assert t.path[-1] == (2, 4)
        assert not t.positive
        assert t.drop_columns == (4,)

    def test_path_invariances(self):
        rng = random.Random(3)
        for _ in range(50):
            r = rng.randint(2, 5)
            A = random_matrix(rng, r, rng.randint(max(4, r), 9))
            t = top_travel(A)
            all_cols = top_travel(reorient_columns(A, range(1, A.cols + 1)))
            assert all_cols.path == t.path and all_cols.positive == t.positive
            T = {i for i in range(1, A.rows + 1) if rng.random() < 0.5}
            rows_flipped = top_travel(reorient_rows(A, T))
            assert rows_flipped.path == t.path and rows_flipped.positive == t.positive


class TestBottomTravel:
    def test_all_plus_runs_along_last_row(self):
        t = bottom_travel(alternating_matrix(3, 5))
        assert t.path == ((3, 5), (3, 4), (3, 3), (3, 2), (3, 1))
        assert not t.positive

    def test_positive_example(self):
        assert bottom_travel(plus_with_cols_negated(2, 4, {2})).positive

    def test_positive_iff_top_positive(self):
        rng = random.Random(9)
        for _ in range(1000):
            r = rng.randint(2, 5)
            A = random_matrix(rng, r, rng.randint(r, 9))
            assert bottom_travel(A).positive == top_travel(A).positive


class TestAcyclicity:
    def test_alternating_is_acyclic(self):
        for r, n in [(2, 4), (3, 5), (4, 7)]:
            assert is_acyclic_via_travel(alternating_matrix(r, n))

    def test_positive_circuit_detected(self):
        A = plus_with_cols_negated(2, 4, {2})
        assert not is_acyclic_via_travel(A)
        assert any(
            not c.positive_part or not c.negative_part for c in all_circuits(A)
        )

    def test_agreement_with_circuit_oracle(self):
        # every class representative with r <= 4 and n <= 7, under every
        # column reorientation
        for r in (2, 3, 4):
            for n in range(r + 1, 8):
                for A in all_representatives(r, n):
                    for size in range(n + 1):
                        for S in combinations(range(1, n + 1), size):
                            B = reorient_columns(A, S)
                            oracle = all(
                                c.positive_part and c.negative_part
                                for c in all_circuits(B)
                            )
                            assert is_acyclic_via_travel(B) == oracle


class TestKNeighborlyMatrix:
    def test_examples(self):
        assert is_k_neighborly_matrix(alternating_matrix(3, 5), 1)
        assert not is_k_neighborly_matrix(alternating_matrix(3, 5), 2)

    def test_agreement_with_circuit_predicate(self):
        rng = random.Random(21)
        for _ in range(1000):
            A = random_matrix(rng, 4, 7)
            k = rng.randint(0, 1)
            assert is_k_neighborly_matrix(A, k) == is_k_neighborly_circuits(A, set(), k)


class TestPlainTravels:
    def test_counts(self):
        assert len(enumerate_plain_travels(3, 5)) == 11
        assert len(enumerate_plain_travels(2, 3)) == 3

    def test_count_formula(self):
        for r, n in [(2, 5), (3, 7), (4, 7), (5, 9)]:
            assert len(enumerate_plain_travels(r, n)) == sum(
                comb(n - 1, i) for i in range(r)
            )

    def test_zero_drop_travel_included_and_order_lexicographic(self):
        travels = enumerate_plain_travels(3, 5)
        drops = [t.drop_columns for t in travels]
        assert drops[0] == ()
        assert drops == sorted(drops)
        assert len(set(drops)) == len(drops)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlainTravel((1, 3))
        with pytest.raises(ValueError):
            PlainTravel((3, 3))
        with pytest.raises(ValueError):
            enumerate_plain_travels(1, 5)


class TestRealizePlainTravel:
    def test_empty_drop_set_needs_no_flips(self):
        _, R = realize_plain_travel(alternating_matrix(3, 4), PlainTravel(()))
        assert R == frozenset()

    def test_forced_flip_examples(self):
        A = alternating_matrix(3, 4)
        _, R = realize_plain_travel(A, PlainTravel((2,)))
        assert R == frozenset({2, 3, 4})
        _, R = realize_plain_travel(A, PlainTravel((2, 3)))
        assert R == frozenset({2})

    def test_realization_recovers_the_travel(self):
        rng = random.Random(33)
        for r, n in [(3, 4), (3, 5), (4, 6)]:
            for A in [alternating_matrix(r, n), random_matrix(rng, r, n)]:
                for P in enumerate_plain_travels(r, n):
                    realized, R = realize_plain_travel(A, P)
                    assert 1 not in R
                    assert top_travel(realized).drop_columns == P.drop_columns

    def test_bijection_with_acyclic_subsets(self):
        # realized sets are distinct, and together with their complements they
        # are exactly the acyclic reorientation subsets, for every class
        # representative with r <= 4 and n <= 7
        sizes = [(r, n) for r in (2, 3, 4) for n in range(r + 1, 8)]
        for r, n in sizes:
            for A in all_representatives(r, n):
                realized = [realize_plain_travel(A, P)[1] for P in enumerate_plain_travels(r, n)]
                assert len(set(realized)) == len(realized)
                everything = set(range(1, n + 1))
                paired = set(realized) | {frozenset(everything - R) for R in realized}
                assert paired == brute_force_acyclic_subsets(A)
                assert 2 * len(realized) == len(paired)


class TestTravelCounting:
    def test_examples(self):
        A = alternating_matrix(3, 5)
        assert count_k_neighborly_plain_travels(A, 1) == 1
        assert count_k_neighborly_plain_travels(A, 0) == 11
        assert count_k_neighborly_plain_travels(A, 2) == 0

    def test_f_via_travels_goldens(self):
        assert f_via_travels(alternating_matrix(3, 5), 1) == 2
        assert f_via_travels(alternating_matrix(4, 7), 1) == 14
        assert f_via_travels(alternating_matrix(5, 9), 2) == 2

    def test_matches_brute_force(self):
        rng = random.Random(39)
        for _ in range(10):
            A = random_matrix(rng, rng.randint(2, 4), rng.randint(5, 6))
            for k in (0, 1):
                assert f_via_travels(A, k) == brute_force_count(A, k)


class TestBatchedCount:
    """count_k_neighborly_plain_travels against the scalar walk it batches."""

    @pytest.mark.parametrize(
        "r,n,k", [(2, 5, 0), (3, 4, 0), (3, 5, 1), (3, 6, 1), (4, 7, 1), (4, 7, 2), (5, 8, 2)]
    )
    def test_every_class(self, r, n, k):
        for A in all_representatives(r, n):
            assert count_k_neighborly_plain_travels(A, k) == scalar_travel_count(A, k)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_matrices(self, data):
        r = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(r + 1, 10))
        k = data.draw(st.integers(0, 3))
        sign = st.sampled_from([1, -1])
        rows = data.draw(
            st.lists(st.lists(sign, min_size=n, max_size=n), min_size=r, max_size=r)
        )
        A = SignMatrix.from_rows(rows)
        assert count_k_neighborly_plain_travels(A, k) == scalar_travel_count(A, k)

    def test_wide_matrix_past_32_bits(self):
        # f is invariant under column reorientation: the alternating 3 x 40
        # matrix has one 1-neighborly travel however its columns are signed
        rng = random.Random(40)
        flipped = [c for c in range(2, 41) if rng.random() < 0.5]
        for A in [alternating_matrix(3, 40), reorient_columns(alternating_matrix(3, 40), flipped)]:
            assert count_k_neighborly_plain_travels(A, 1) == scalar_travel_count(A, 1) == 1
        A = random_matrix(rng, 3, 40)
        assert count_k_neighborly_plain_travels(A, 1) == scalar_travel_count(A, 1)

    @pytest.mark.parametrize("pairs,group", [(1, 32), (7, 32), (50, 3), (1 << 20, 1)])
    def test_grid_sizes_do_not_change_counts(self, monkeypatch, pairs, group):
        shapes = [(4, 8, 1, 424), (4, 9, 1, 356), (6, 10, 2, 26506)]
        cases = [(representative_of_index(r, n, i), k) for r, n, k, i in shapes]
        want = [count_k_neighborly_plain_travels(A, k) for A, k in cases]
        assert want == [4, 3, 4]
        monkeypatch.setattr(travels_module, "GRID_MAX_PAIRS", pairs)
        monkeypatch.setattr(travels_module, "SET_GROUP", group)
        assert [count_k_neighborly_plain_travels(A, k) for A, k in cases] == want
        assert want == [scalar_travel_count(A, k) for A, k in cases]

    @pytest.mark.parametrize(
        "n,dtype", [(14, np.int16), (15, np.int32), (30, np.int32), (31, np.int64)]
    )
    def test_mask_width_edges(self, n, dtype):
        # the narrowest mask that keeps a spare bit below the sign bit changes
        # between n = 14 and 15 and between n = 30 and 31
        assert travels_module._plan(3, n, 1, travels_module.SET_GROUP)[1].dtype == dtype
        rng = random.Random(n)
        flipped = [c for c in range(2, n + 1) if rng.random() < 0.5]
        for A in [alternating_matrix(3, n), reorient_columns(alternating_matrix(3, n), flipped)]:
            assert count_k_neighborly_plain_travels(A, 1) == scalar_travel_count(A, 1) == 1
        A = random_matrix(rng, 3, n)
        assert count_k_neighborly_plain_travels(A, 1) == scalar_travel_count(A, 1)

    def test_cached_plan_is_read_only_and_keyed_by_shape(self):
        A = representative_of_index(6, 10, 26506)
        B = representative_of_index(4, 8, 424)
        cases = [(A, 2), (A, 1), (B, 1), (A, 2)]
        counts = [count_k_neighborly_plain_travels(M, k) for M, k in cases]
        assert counts == [scalar_travel_count(M, k) for M, k in cases]
        assert counts[0] == counts[-1] == 4
        rows, dropped, reaches = travels_module._plan(6, 10, 2, travels_module.SET_GROUP)
        for a in (rows, dropped, *reaches):
            with pytest.raises(ValueError, match="read-only"):
                a |= 1

    def test_more_than_62_columns_refused(self):
        assert count_k_neighborly_plain_travels(alternating_matrix(2, 62), 0) == 62
        with pytest.raises(ValueError, match="n=63"):
            count_k_neighborly_plain_travels(alternating_matrix(2, 63), 0)


class TestPositivizingSet:
    def test_already_positive_needs_nothing(self):
        A = plus_with_cols_negated(2, 4, {2})
        assert positivizing_set(A, 1, range(1, 5)) == frozenset()

    def test_smallest_lexicographic_witness(self):
        assert positivizing_set(alternating_matrix(2, 4), 1, {2, 3, 4}) == frozenset({2})

    def test_none_when_impossible(self):
        assert positivizing_set(alternating_matrix(3, 5), 1, {2}) is None

    def test_existence_for_even_rank_wide_matrices(self):
        # r = 2k and n >= 3k+1 guarantee a witness inside {2..n}
        for bits in range(2 ** 8):
            rows = [[1 if bits >> (i * 4 + j) & 1 else -1 for j in range(4)] for i in range(2)]
            A = SignMatrix.from_rows(rows)
            S = positivizing_set(A, 1, range(2, 5))
            assert S is not None and len(S) <= 1 and 1 not in S
        rng = random.Random(41)
        for _ in range(100):
            A = random_matrix(rng, 4, 7)
            S = positivizing_set(A, 2, range(2, 8))
            assert S is not None and len(S) <= 2 and 1 not in S


def drop_rows(P: PlainTravel):
    """Row transitions of a plain travel: drop i goes from row i to i+1."""
    return {row: col for row, col in enumerate(P.drop_columns, start=1)}


class TestForcedFailureLemmas:
    @pytest.mark.parametrize("r,n,k", [(3, 5, 1), (4, 6, 1), (5, 7, 2)])
    def test_early_first_band_drop_never_neighborly(self, r, n, k):
        # a vertical move from row r-2k to r-2k+1 at column <= n-3k dooms the travel
        for A in all_representatives(r, n):
            for P in enumerate_plain_travels(r, n):
                col = drop_rows(P).get(r - 2 * k)
                if col is not None and col <= n - 3 * k:
                    realized, _ = realize_plain_travel(A, P)
                    assert not is_k_neighborly_matrix(realized, k)

    @pytest.mark.parametrize("r,n,k", [(3, 5, 1), (4, 6, 1), (5, 7, 2)])
    def test_early_second_band_drop_never_neighborly(self, r, n, k):
        for A in all_representatives(r, n):
            for P in enumerate_plain_travels(r, n):
                col = drop_rows(P).get(r - 2 * k + 1)
                if col is not None and col <= n - 3 * k + 2:
                    realized, _ = realize_plain_travel(A, P)
                    assert not is_k_neighborly_matrix(realized, k)

    @staticmethod
    def neighborly_travels_with_first_drop(A, j, k):
        out = []
        for P in enumerate_plain_travels(A.rows, A.cols):
            if P.drop_columns and P.drop_columns[0] == j:
                realized, _ = realize_plain_travel(A, P)
                if is_k_neighborly_matrix(realized, k):
                    out.append(P)
        return out

    @pytest.mark.parametrize("r,n,k", [(4, 6, 1), (4, 7, 1)])
    def test_at_most_one_neighborly_travel_per_early_first_drop(self, r, n, k):
        # r = 2k+2: among travels whose first drop is at column j, at most one
        # is k-neighborly, for every j small enough that both submatrix
        # arguments apply (n-j >= 3k+1 for the double-drop branch and
        # n-j >= 2k+3 for the single-drop branch)
        max_j = n - max(3 * k + 1, 2 * k + 3)
        for A in all_representatives(r, n):
            for j in range(2, max_j + 1):
                assert len(self.neighborly_travels_with_first_drop(A, j, k)) <= 1

    def test_first_drop_uniqueness_holds_at_4x7_through_column_3(self):
        # at (4,7,1) the conclusion holds up to j = n-(3k+1) = 3 as well
        for A in all_representatives(4, 7):
            for j in (2, 3):
                assert len(self.neighborly_travels_with_first_drop(A, j, 1)) <= 1

    def test_first_drop_uniqueness_boundary_counterexample_4x6(self):
        # at (4,6,1) the bound j <= n-(3k+1) = 2 is too generous: the all-plus
        # class has two 1-neighborly travels with first drop at column 2
        # (n-j = 4 < 2k+3, so the single-drop branch has no room)
        winners = self.neighborly_travels_with_first_drop(alternating_matrix(4, 6), 2, 1)
        assert sorted(P.drop_columns for P in winners) == [(2,), (2, 4, 6)]
        for A in all_representatives(4, 6):
            assert len(self.neighborly_travels_with_first_drop(A, 2, 1)) <= 2

    @pytest.mark.parametrize("r,n,k", [(3, 5, 1), (3, 6, 1)])
    def test_odd_extremal_rank_has_at_most_one_neighborly_travel(self, r, n, k):
        # r = 2k+1, n >= r+2
        for A in all_representatives(r, n):
            assert count_k_neighborly_plain_travels(A, k) <= 1
