import random
from itertools import combinations

import pytest

from conftest import brute_force_count, plus_except, random_matrix
from lomlab.chessboard import (
    ENCODING_VERSION,
    Chessboard,
    chessboard_of,
    class_count,
    index_of_chessboard,
    relevant_squares,
    render_board,
    representative_entries,
    representative_of_index,
)
from lomlab.sign_core import (
    SignMatrix,
    alternating_matrix,
    chirotope_from_matrix,
    count_k_neighborly_reorientations,
    reorient_columns,
    reorient_rows,
)


class TestChessboardOf:
    def test_all_plus_is_all_white(self):
        board = chessboard_of(alternating_matrix(3, 5))
        assert not any(v for row in board.colors for v in row)

    def test_single_column_or_row_flip_stays_white(self):
        A = alternating_matrix(3, 5)
        for S in ({2}, {5}):
            board = chessboard_of(reorient_columns(A, S))
            assert not any(v for row in board.colors for v in row)
        for T in ({1}, {3}):
            board = chessboard_of(reorient_rows(A, T))
            assert not any(v for row in board.colors for v in row)

    def test_single_negative_entry_blackens_its_four_windows(self):
        board = chessboard_of(plus_except(3, 5, [(2, 3)]))
        black = {
            (i, j)
            for i in range(1, 3)
            for j in range(1, 5)
            if board.is_black(i, j)
        }
        assert black == {(1, 2), (1, 3), (2, 2), (2, 3)}

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            chessboard_of(alternating_matrix(1, 4))

    def test_invariance_exhaustive_3x5(self):
        A = plus_except(3, 5, [(2, 3), (3, 5)])
        base = chessboard_of(A)
        for cols_size in range(6):
            for S in combinations(range(1, 6), cols_size):
                assert chessboard_of(reorient_columns(A, S)) == base
        for rows_size in range(4):
            for T in combinations(range(1, 4), rows_size):
                assert chessboard_of(reorient_rows(A, T)) == base

    def test_invariance_randomized_7x11(self):
        rng = random.Random(51)
        A = random_matrix(rng, 7, 11)
        base = chessboard_of(A)
        for _ in range(50):
            S = {j for j in range(1, 12) if rng.random() < 0.5}
            T = {i for i in range(1, 8) if rng.random() < 0.5}
            assert chessboard_of(reorient_rows(reorient_columns(A, S), T)) == base


class TestRelevantSquares:
    def test_3x6(self):
        assert relevant_squares(3, 6) == [(1, 2), (1, 3), (2, 3), (2, 4)]

    def test_7x11_has_18(self):
        squares = relevant_squares(7, 11)
        assert len(squares) == 18 == (7 - 1) * (11 - 7 - 1)

    @pytest.mark.parametrize("r", [2, 3, 5, 9])
    def test_one_class_when_n_is_rank_plus_one(self, r):
        assert relevant_squares(r, r + 1) == []
        assert class_count(r, r + 1) == 1

    def test_rejects_square_matrices(self):
        with pytest.raises(ValueError):
            relevant_squares(4, 4)

    def test_counts(self):
        assert class_count(7, 11) == 262144
        assert class_count(8, 11) == 16384
        assert class_count(9, 13) == 16777216
        assert class_count(8, 12) == 2 ** 21
        assert class_count(9, 12) == 65536


class TestRepresentatives:
    def test_index_zero_is_all_plus(self):
        assert representative_of_index(7, 11, 0) == alternating_matrix(7, 11)

    def test_first_black_square_forces_first_negative_entry(self):
        A = representative_of_index(3, 6, 1)  # bit 0 = square (1,2)
        flat = [(i, j) for i in range(1, 4) for j in range(1, 7) if A.sign(i, j) < 0]
        assert flat[0] == (2, 3)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            representative_of_index(3, 6, 16)
        with pytest.raises(ValueError):
            representative_of_index(3, 6, -1)

    @pytest.mark.parametrize("r,n", [(3, 6), (4, 7)])
    def test_roundtrip_all_indices(self, r, n):
        relevant = set(relevant_squares(r, n))
        for index in range(class_count(r, n)):
            A = representative_of_index(r, n, index)
            board = chessboard_of(A)
            assert index_of_chessboard(board, r, n) == index
            # irrelevant squares of a representative are white
            for i in range(1, r):
                for j in range(1, n):
                    if (i, j) not in relevant:
                        assert not board.is_black(i, j)

    @pytest.mark.parametrize("r,n", [(4, 7), (12, 24)])  # 6 and 121 index bits
    def test_batch_fill_roundtrip(self, r, n):
        rng = random.Random(5)
        indices = [0, class_count(r, n) - 1] + [rng.randrange(class_count(r, n)) for _ in range(6)]
        batch = representative_entries(r, n, indices)
        assert batch.shape == (len(indices), r, n)
        for index, entries in zip(indices, batch):
            assert index_of_chessboard(chessboard_of(SignMatrix.from_array(entries)), r, n) == index

    def test_seed_row_and_column_are_positive(self):
        for index in (0, 5, 13):
            A = representative_of_index(3, 7, index)
            assert all(A.sign(1, j) == 1 for j in range(1, 8))
            assert all(A.sign(i, 1) == 1 for i in range(1, 4))


class TestIndexOfChessboard:
    def test_all_white_is_zero(self):
        assert index_of_chessboard(chessboard_of(alternating_matrix(4, 7)), 4, 7) == 0

    def test_dimension_mismatch(self):
        board = chessboard_of(alternating_matrix(3, 5))
        with pytest.raises(ValueError):
            index_of_chessboard(board, 4, 7)

    def test_reorientation_related_matrices_share_an_index(self):
        rng = random.Random(57)
        for _ in range(20):
            A = random_matrix(rng, 3, 6)
            S = {j for j in range(1, 7) if rng.random() < 0.5}
            T = {i for i in range(1, 4) if rng.random() < 0.5}
            B = reorient_rows(reorient_columns(A, S), T)
            assert index_of_chessboard(chessboard_of(A), 3, 6) == index_of_chessboard(
                chessboard_of(B), 3, 6
            )

    def test_classes_are_not_reorientation_related(self):
        # the 4 classes at (3,5): no row+column reorientation maps one
        # representative onto another
        reps = [representative_of_index(3, 5, i) for i in range(4)]
        for a, A in enumerate(reps):
            images = set()
            for cols_size in range(6):
                for S in combinations(range(1, 6), cols_size):
                    B = reorient_columns(A, S)
                    for rows_size in range(4):
                        for T in combinations(range(1, 4), rows_size):
                            images.add(reorient_rows(B, T))
            for b, other in enumerate(reps):
                assert (other in images) == (a == b)


class TestClassInvariants:
    @pytest.mark.parametrize("r,n", [(3, 5), (3, 6)])
    def test_f_constant_across_column_reorientations(self, r, n):
        for index in range(class_count(r, n)):
            A = representative_of_index(r, n, index)
            f = count_k_neighborly_reorientations(A, 1)
            for size in range(n + 1):
                for S in combinations(range(1, n + 1), size):
                    assert count_k_neighborly_reorientations(reorient_columns(A, S), 1) == f

    def test_f_equals_oracle_per_class_3x5(self):
        for index in range(4):
            A = representative_of_index(3, 5, index)
            assert count_k_neighborly_reorientations(A, 1) == brute_force_count(A, 1)

    def test_irrelevant_entries_leave_chirotope_alone(self):
        r, n = 3, 6
        A = alternating_matrix(r, n)
        base = chirotope_from_matrix(A)
        for i in range(1, r + 1):
            for j in range(1, n + 1):
                if j < i or j > n - r + i:
                    assert chirotope_from_matrix(plus_except(r, n, [(i, j)])) == base


class TestRendering:
    def test_case_distinguishes_relevance(self):
        A = representative_of_index(3, 6, 1)
        assert render_board(chessboard_of(A), 3, 6) == "wBWww\nwwWWw"

    def test_board_for_narrow_matrix_is_all_lowercase(self):
        A = alternating_matrix(3, 4)
        assert render_board(chessboard_of(A), 3, 4) == "www\nwww"

    def test_encoding_version_is_pinned(self):
        assert ENCODING_VERSION == "chessboard-rowmajor-lsb-1"

    def test_board_validation(self):
        with pytest.raises(ValueError):
            Chessboard(())
