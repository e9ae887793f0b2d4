import random
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_representatives,
    brute_force_count,
    brute_force_o_vector,
    plus_except,
    random_matrix,
)
import lomlab.sign_core as sign_core
from lomlab.chessboard import class_count, representative_entries, representative_of_index
from lomlab.formulas import c_closed_form, total_plain_travels
from lomlab.sign_core import (
    ChirotopeTable,
    SignedCircuit,
    SignMatrix,
    all_circuits,
    alternating_matrix,
    chirotope_from_matrix,
    chirotope_sign,
    circuit_of_support,
    circuits_from_chirotope,
    contract_element,
    count_k_neighborly_reorientations,
    count_k_neighborly_reorientations_chirotope,
    delete_element,
    is_k_neighborly_circuits,
    o_vector,
    reorient_columns,
    reorient_rows,
    violation_counts,
    violation_table,
    violation_table_nbytes,
)
from lomlab.travels import f_via_travels


@st.composite
def sign_matrices(draw, min_r=2, max_r=4, max_n=7, min_gap=1):
    r = draw(st.integers(min_r, max_r))
    n = draw(st.integers(r + min_gap, max_n))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
            min_size=r,
            max_size=r,
        )
    )
    return SignMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# matrices and reorientations
# ---------------------------------------------------------------------------

class TestSignMatrix:
    def test_alternating_matrix(self):
        A = alternating_matrix(3, 5)
        assert A.rows == 3 and A.cols == 5
        assert all(v == 1 for row in A.entries for v in row)

    def test_alternating_is_class_zero_representative(self):
        assert representative_of_index(7, 11, 0) == alternating_matrix(7, 11)

    @pytest.mark.parametrize("r,n", [(0, 3), (4, 3), (-1, 2)])
    def test_alternating_invalid_dimensions(self, r, n):
        with pytest.raises(ValueError):
            alternating_matrix(r, n)

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            SignMatrix.from_rows([[1, 0], [1, 1]])
        with pytest.raises(ValueError):
            SignMatrix.from_rows([[1, 1], [1]])

    def test_parse_and_format_roundtrip(self):
        text = "# a comment\n+-+\n--+\n"
        A = SignMatrix.parse(text)
        assert A.entries == ((1, -1, 1), (-1, -1, 1))
        assert SignMatrix.parse(A.format()) == A

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SignMatrix.parse("+- +\n++++\n")
        with pytest.raises(ValueError):
            SignMatrix.parse("# only comments\n")

    def test_reorient_columns_examples(self):
        A = alternating_matrix(3, 5)
        assert reorient_columns(A, set()) == A
        B = reorient_columns(A, {2})
        assert [row[1] for row in B.entries] == [-1, -1, -1]
        assert sum(v for row in B.entries for v in row) == 15 - 6

    def test_reorient_columns_out_of_range(self):
        with pytest.raises(ValueError):
            reorient_columns(alternating_matrix(2, 3), {4})

    def test_reorient_rows_examples(self):
        A = alternating_matrix(3, 5)
        assert reorient_rows(A, set()) == A
        B = reorient_rows(A, {1, 2, 3})
        assert all(v == -1 for row in B.entries for v in row)
        with pytest.raises(ValueError):
            reorient_rows(A, {0})

    @given(sign_matrices(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_reorient_columns_is_involution(self, A, data):
        S = data.draw(st.sets(st.integers(1, A.cols)))
        assert reorient_columns(reorient_columns(A, S), S) == A

    def test_row_reorientation_preserves_counts(self):
        rng = random.Random(7)
        for _ in range(6):
            A = random_matrix(rng, 3, 5)
            T = {i for i in range(1, 4) if rng.random() < 0.5}
            B = reorient_rows(A, T)
            for k in (0, 1):
                assert brute_force_count(A, k) == brute_force_count(B, k)


# ---------------------------------------------------------------------------
# chirotope signs and circuits
# ---------------------------------------------------------------------------

class TestChirotopeSign:
    def test_all_plus(self):
        A = alternating_matrix(3, 5)
        assert chirotope_sign(A, (1, 2, 3)) == 1

    def test_every_basis_of_alternating_is_positive(self):
        for r, n in [(3, 5), (4, 6), (7, 11)]:
            A = alternating_matrix(r, n)
            assert all(
                chirotope_sign(A, B) == 1
                for B in combinations(range(1, n + 1), r)
            )

    def test_single_negative_entry(self):
        A = plus_except(3, 5, [(2, 3)])
        assert chirotope_sign(A, (1, 3, 5)) == -1
        assert chirotope_sign(A, (1, 2, 5)) == 1

    def test_bad_tuples_rejected(self):
        A = alternating_matrix(3, 5)
        with pytest.raises(ValueError):
            chirotope_sign(A, (3, 2, 1))
        with pytest.raises(ValueError):
            chirotope_sign(A, (1, 2, 6))
        with pytest.raises(ValueError):
            chirotope_sign(A, (1, 2))

    def test_unused_corner_entries_never_matter(self):
        # entries below the diagonal or past column n-r+i appear in no basis product
        for r, n in [(3, 5), (3, 6)]:
            A = alternating_matrix(r, n)
            base = chirotope_from_matrix(A)
            for i in range(1, r + 1):
                for j in range(1, n + 1):
                    if j < i or j > n - r + i:
                        assert chirotope_from_matrix(plus_except(r, n, [(i, j)])) == base


class TestCircuits:
    def test_alternating_circuit(self):
        c = circuit_of_support(alternating_matrix(3, 5), (1, 2, 3, 4))
        assert c.signs == (1, -1, 1, -1)
        c2 = circuit_of_support(alternating_matrix(3, 5), (2, 3, 4, 5))
        assert c2.signs == (1, -1, 1, -1)

    def test_alternating_circuits_alternate_everywhere(self):
        for r, n in [(2, 5), (3, 6), (4, 7)]:
            A = alternating_matrix(r, n)
            for c in all_circuits(A):
                assert all(a == -b for a, b in zip(c.signs, c.signs[1:]))

    def test_flipped_entry_circuit(self):
        # derived from the sign recurrence; cross-checked against the
        # chirotope-based extraction below
        A = plus_except(3, 5, [(1, 2)])
        c = circuit_of_support(A, (1, 2, 3, 4))
        assert c.signs == (1, 1, -1, 1)
        via_table = [
            x
            for x in circuits_from_chirotope(chirotope_from_matrix(A))
            if x.support == (1, 2, 3, 4)
        ]
        assert via_table == [c]

    def test_bad_supports_rejected(self):
        A = alternating_matrix(3, 5)
        with pytest.raises(ValueError):
            circuit_of_support(A, (1, 2, 3))
        with pytest.raises(ValueError):
            circuit_of_support(A, (1, 2, 3, 6))

    def test_all_circuits_counts(self):
        assert len(all_circuits(alternating_matrix(3, 5))) == 5
        assert len(all_circuits(alternating_matrix(7, 11))) == 165
        only = all_circuits(alternating_matrix(2, 3))
        assert len(only) == 1 and only[0].signs == (1, -1, 1)

    def test_no_circuits_when_square(self):
        assert all_circuits(alternating_matrix(3, 3)) == []

    def test_parts(self):
        c = SignedCircuit((1, 2, 3, 4), (1, -1, 1, -1))
        assert c.positive_part == (1, 3)
        assert c.negative_part == (2, 4)
        with pytest.raises(ValueError):
            SignedCircuit((1, 2), (-1, 1))  # not normalized


# ---------------------------------------------------------------------------
# neighborliness predicate and counting
# ---------------------------------------------------------------------------

class TestNeighborliness:
    def test_predicate_examples(self):
        A = alternating_matrix(3, 5)
        assert is_k_neighborly_circuits(A, set(), 1)
        assert not is_k_neighborly_circuits(A, set(), 2)
        assert not is_k_neighborly_circuits(A, {1, 4}, 2)
        assert not is_k_neighborly_circuits(alternating_matrix(2, 3), {2}, 0)

    @given(sign_matrices(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_complement_pairing(self, A, data):
        R = data.draw(st.sets(st.integers(1, A.cols)))
        complement = set(range(1, A.cols + 1)) - R
        k = data.draw(st.integers(0, 2))
        assert is_k_neighborly_circuits(A, R, k) == is_k_neighborly_circuits(
            A, complement, k
        )

    def test_count_examples(self):
        A = alternating_matrix(3, 5)
        assert count_k_neighborly_reorientations(A, 1) == 2
        assert count_k_neighborly_reorientations(A, 0) == 22
        assert count_k_neighborly_reorientations(A, 0) == 2 * total_plain_travels(3, 5)

    def test_rank_floor(self):
        rng = random.Random(1)
        for n in (4, 5, 6):
            assert count_k_neighborly_reorientations(random_matrix(rng, 3, n), 2) == 0

    def test_count_matches_bruteforce(self):
        # the engine halves the subset space; the oracle does not
        rng = random.Random(42)
        cases = [alternating_matrix(3, 5), alternating_matrix(4, 6)]
        cases += [random_matrix(rng, rng.randint(2, 4), rng.randint(5, 6)) for _ in range(12)]
        for A in cases:
            for k in (0, 1):
                assert count_k_neighborly_reorientations(A, k) == brute_force_count(A, k)

    @given(sign_matrices(max_r=3, max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_count_even_and_monotone(self, A):
        counts = [count_k_neighborly_reorientations(A, k) for k in range(3)]
        assert all(c % 2 == 0 for c in counts)
        assert counts[0] >= counts[1] >= counts[2]

    @given(sign_matrices(max_r=3, max_n=6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_count_invariant_under_reorientation(self, A, data):
        S = data.draw(st.sets(st.integers(1, A.cols)))
        T = data.draw(st.sets(st.integers(1, A.rows)))
        k = data.draw(st.integers(0, 1))
        f = count_k_neighborly_reorientations(A, k)
        assert count_k_neighborly_reorientations(reorient_columns(A, S), k) == f
        assert count_k_neighborly_reorientations(reorient_rows(A, T), k) == f

    def test_requires_circuits(self):
        with pytest.raises(ValueError):
            count_k_neighborly_reorientations(alternating_matrix(3, 3), 0)


class TestOVector:
    def test_alternating_3x5(self):
        o = o_vector(alternating_matrix(3, 5))
        assert o.entries == (20, 2)
        assert o.entries == brute_force_o_vector(alternating_matrix(3, 5))
        # the per-level formula for the alternating matroid: 2*C(n, r-1-2i)
        assert o.entries == (2 * comb(5, 2), 2 * comb(5, 0))

    def test_alternating_2x3(self):
        o = o_vector(alternating_matrix(2, 3))
        assert o.entries == (6,)
        assert o.entries == brute_force_o_vector(alternating_matrix(2, 3))

    @given(sign_matrices(max_r=4, max_n=6))
    @settings(max_examples=25, deadline=None)
    def test_partial_sums_match_counts(self, A):
        o = o_vector(A)
        for k in range(len(o.entries) + 1):
            assert o.count_at_least(k) == count_k_neighborly_reorientations(A, k)

    def test_oracle_agreement_random(self):
        rng = random.Random(5)
        for _ in range(8):
            A = random_matrix(rng, rng.randint(2, 4), rng.randint(5, 6))
            assert o_vector(A).entries == brute_force_o_vector(A)


# ---------------------------------------------------------------------------
# chirotope tables and minors
# ---------------------------------------------------------------------------

class TestChirotopeTable:
    def test_all_plus_table(self):
        T = chirotope_from_matrix(alternating_matrix(3, 5))
        assert set(T.signs) == {1}
        assert len(T.signs) == comb(5, 3)

    def test_matches_chirotope_sign(self):
        rng = random.Random(11)
        for _ in range(100):
            A = random_matrix(rng, 4, 7)
            T = chirotope_from_matrix(A)
            for B in combinations(range(1, 8), 4):
                assert T.sign(B) == chirotope_sign(A, B)

    def test_row_negation_negates_table(self):
        rng = random.Random(13)
        for _ in range(10):
            A = random_matrix(rng, 3, 6)
            row = rng.randint(1, 3)
            assert chirotope_from_matrix(reorient_rows(A, {row})) == chirotope_from_matrix(
                A
            ).negated()

    def test_validation(self):
        with pytest.raises(ValueError):
            ChirotopeTable(2, 4, (1, 1, 1))  # wrong length
        with pytest.raises(ValueError):
            ChirotopeTable(2, 3, (1, 0, 1))


class TestMinors:
    def test_delete_alternating(self):
        T = chirotope_from_matrix(alternating_matrix(3, 5))
        assert delete_element(T, 4) == chirotope_from_matrix(alternating_matrix(3, 4))

    def test_delete_commutes_with_column_deletion(self):
        rng = random.Random(17)
        for _ in range(10):
            A = random_matrix(rng, 3, 6)
            for e in range(1, 7):
                dropped = SignMatrix.from_rows(
                    [row[: e - 1] + row[e:] for row in A.entries]
                )
                assert delete_element(chirotope_from_matrix(A), e) == chirotope_from_matrix(dropped)

    def test_delete_order_independent(self):
        rng = random.Random(19)
        A = random_matrix(rng, 3, 7)
        T = chirotope_from_matrix(A)
        # delete 2 then (what was) 5; same as 5 then 2
        assert delete_element(delete_element(T, 5), 2) == delete_element(
            delete_element(T, 2), 4
        )

    def test_delete_below_rank_rejected(self):
        with pytest.raises(ValueError):
            delete_element(chirotope_from_matrix(alternating_matrix(3, 3)), 1)

    def test_contract_alternating_at_last_element(self):
        for r, n in [(3, 5), (4, 7)]:
            T = chirotope_from_matrix(alternating_matrix(r, n))
            assert contract_element(T, n) == chirotope_from_matrix(
                alternating_matrix(r - 1, n - 1)
            )

    def test_contract_respects_global_negation(self):
        rng = random.Random(23)
        A = random_matrix(rng, 4, 7)
        T = chirotope_from_matrix(A)
        for e in (1, 4, 7):
            assert contract_element(T.negated(), e) == contract_element(T, e).negated()

    def test_contract_count_sign_invariant(self):
        rng = random.Random(29)
        for _ in range(5):
            A = random_matrix(rng, 4, 7)
            T = chirotope_from_matrix(A)
            for e in (2, 5):
                C = contract_element(T, e)
                for k in (0, 1):
                    assert count_k_neighborly_reorientations_chirotope(
                        C, k
                    ) == count_k_neighborly_reorientations_chirotope(C.negated(), k)

    def test_contract_below_rank_two_rejected(self):
        T = chirotope_from_matrix(alternating_matrix(1, 3))
        with pytest.raises(ValueError):
            contract_element(T, 1)


class TestCircuitsFromChirotope:
    def test_matches_matrix_circuits_alternating(self):
        A = alternating_matrix(3, 5)
        assert circuits_from_chirotope(chirotope_from_matrix(A)) == all_circuits(A)

    def test_single_circuit_when_n_is_rank_plus_one(self):
        A = alternating_matrix(4, 5)
        circuits = circuits_from_chirotope(chirotope_from_matrix(A))
        assert len(circuits) == 1

    def test_matches_matrix_circuits_random(self):
        rng = random.Random(31)
        for _ in range(100):
            A = random_matrix(rng, 4, 7)
            assert circuits_from_chirotope(chirotope_from_matrix(A)) == all_circuits(A)

    def test_counts_agree_with_matrix_engine(self):
        # exhaustive over class representatives at small sizes, then random
        for r in (2, 3, 4):
            for n in range(r + 1, 8):
                for index in range(class_count(r, n)):
                    A = representative_of_index(r, n, index)
                    T = chirotope_from_matrix(A)
                    for k in (0, 1):
                        assert count_k_neighborly_reorientations_chirotope(
                            T, k
                        ) == count_k_neighborly_reorientations(A, k)

    def test_counts_agree_random(self):
        rng = random.Random(37)
        for _ in range(1000):
            A = random_matrix(rng, rng.randint(2, 4), rng.randint(5, 7))
            k = rng.randint(0, 1)
            assert count_k_neighborly_reorientations_chirotope(
                chirotope_from_matrix(A), k
            ) == count_k_neighborly_reorientations(A, k)

    def test_minor_recursion_inequality_exhaustive(self):
        # every class, every element, k <= 1, at the sizes where minors still
        # have circuits on both sides
        for r in (3, 4):
            for n in range(r + 2, 8):
                for index in range(class_count(r, n)):
                    T = chirotope_from_matrix(representative_of_index(r, n, index))
                    f = [count_k_neighborly_reorientations_chirotope(T, k) for k in (0, 1)]
                    for e in range(1, n + 1):
                        contracted = contract_element(T, e)
                        deleted = delete_element(T, e)
                        for k in (0, 1):
                            fc = count_k_neighborly_reorientations_chirotope(contracted, k)
                            fd = count_k_neighborly_reorientations_chirotope(deleted, k)
                            assert f[k] <= fc + fd


class TestViolationTable:
    """The survey's table engine against the class-by-class count and the oracle."""

    SHAPES = [
        (2, 5, 0), (3, 4, 0), (3, 5, 1), (3, 6, 0), (3, 7, 1),
        (3, 9, 1), (4, 7, 1), (4, 7, 2), (4, 8, 1), (5, 9, 2),
    ]

    @staticmethod
    def table_counts(r, n, k, entries):
        return violation_counts(violation_table(r, n, k), entries)

    @pytest.mark.parametrize("r,n,k", SHAPES)
    def test_every_class_matches_mask_engine(self, r, n, k):
        table = violation_table(r, n, k)
        assert table.nbytes == violation_table_nbytes(r, n)
        entries = representative_entries(r, n, range(class_count(r, n)))
        got = violation_counts(table, entries).tolist()
        want = [count_k_neighborly_reorientations(SignMatrix.from_array(e), k) for e in entries]
        assert got == want
        if k > (r - 1) // 2:
            assert set(got) == {0}  # no reorientation is that neighborly

    @pytest.mark.parametrize("r,n,k", [(3, 4, 0), (2, 5, 0), (3, 5, 1)])
    def test_matches_brute_force_oracle(self, r, n, k):
        entries = representative_entries(r, n, range(class_count(r, n)))
        want = [brute_force_count(A, k) for A in all_representatives(r, n)]
        assert self.table_counts(r, n, k, entries).tolist() == want

    @given(sign_matrices(max_n=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_matrices_in_row_major_layout(self, A, data):
        # any signs, not only canonical representatives, and k up to past r/2
        k = data.draw(st.integers(0, A.rows // 2 + 1))
        entries = np.stack([A.to_array(), reorient_columns(A, {1}).to_array()])
        want = count_k_neighborly_reorientations(A, k)
        assert self.table_counts(A.rows, A.cols, k, entries).tolist() == [want, want]


# the default batches, one circuit per batch, and uneven last batches
BLOCK_BYTES = (None, 8, 1000)


@contextmanager
def block_bytes(value):
    with pytest.MonkeyPatch.context() as m:
        if value is not None:
            m.setattr(sign_core, "_BLOCK_BYTES", value)
        yield


@contextmanager
def first_stage(width):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sign_core, "_FIRST_STAGE", width)
        yield


class TestSupportsAndPatterns:
    """The support lists and sign patterns every count is built on."""

    # the violation table's support axis and popcount_table read supports in
    # itertools order
    def test_supports_are_the_lexicographic_combinations(self):
        shapes = [(r, n) for n in range(2, 17) for r in range(1, n)] + [(7, 20), (4, 24)]
        for r, n in shapes:
            supports = sign_core._mask_context.__wrapped__(r, n)  # a fresh build
            want = np.array(list(combinations(range(n), r + 1)), dtype=np.int64)
            assert supports.dtype == np.int64 and supports.shape == want.shape, (r, n)
            assert np.array_equal(supports, want), (r, n)

    # the build reads about 1.05x; int64 levels below the last would read 1.35-1.45x
    @pytest.mark.parametrize("r,n", [(7, 16), (7, 20)])
    def test_support_build_holds_little_beyond_its_result(self, r, n):
        tracemalloc.start()
        try:
            supports = sign_core._mask_context.__wrapped__(r, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * supports.nbytes

    # uint8 patterns at r = 2 and 8, uint16 at 9, uint32 at 17
    @pytest.mark.parametrize(
        "r,n,dtype", [(2, 6, np.uint8), (8, 11, np.uint8), (9, 12, np.uint16), (17, 19, np.uint32)]
    )
    def test_batched_patterns_are_the_circuit_signs(self, r, n, dtype):
        rng = random.Random(r)
        batch = representative_entries(r, n, [rng.randrange(class_count(r, n)) for _ in range(9)])
        supports = sign_core._mask_context(r, n)
        want = np.array(
            [
                [sum(1 << i for i, s in enumerate(c.signs[1:]) if s > 0) for c in all_circuits(A)]
                for A in (SignMatrix.from_array(entries) for entries in batch)
            ]
        ).T
        for entries in (batch, np.ascontiguousarray(batch)):  # batch axis contiguous, then last
            patterns = sign_core._circuit_patterns(entries, supports)
            assert patterns.dtype == dtype
            assert np.array_equal(patterns, want)


class TestBitSlicedKernel:
    """The 64-half-masks-per-word count against the brute-force oracles and the
    travels engine, which share no code with it, and against the chirotope route."""

    # n < 7 leaves padding bits in the one word, n = 7 fills it, n = 8 takes two
    SHAPES = [(2, 4), (3, 5), (2, 6), (4, 6), (2, 7), (5, 7), (6, 8), (7, 8)]

    @pytest.mark.parametrize("r,n", SHAPES)
    def test_every_class_matches_oracle(self, r, n):
        for index in range(class_count(r, n)):
            A = representative_of_index(r, n, index)
            want = brute_force_o_vector(A)
            for value in BLOCK_BYTES:
                with block_bytes(value):
                    assert o_vector(A).entries == want
                    for k in range(len(want) + 1):
                        assert count_k_neighborly_reorientations(A, k) == sum(want[k:])
        # the second oracle, on the last class only: it tests subsets one by one
        for k in range(len(want) + 1):
            assert count_k_neighborly_reorientations(A, k) == brute_force_count(A, k)

    @given(sign_matrices(min_r=2, max_r=7, max_n=12), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_travels_and_chirotope(self, A, data):
        k = data.draw(st.integers(0, (A.rows - 1) // 2))
        want = f_via_travels(A, k)
        assert count_k_neighborly_reorientations_chirotope(chirotope_from_matrix(A), k) == want
        for value in BLOCK_BYTES:
            with block_bytes(value):
                assert count_k_neighborly_reorientations(A, k) == want
                assert o_vector(A).count_at_least(k) == want

    # Patterns are uint8 up to r = 8, uint16 up to 16 and uint32 above.  At
    # n = r+1 every pattern gives the same count, so n >= r+2.  Travels runs at
    # the k given only: at (16,18,5) it takes 93 s.
    @pytest.mark.parametrize(
        "r,n,travels_k", [(8, 11, 2), (9, 12, 3), (10, 12, 3), (16, 18, 0), (17, 19, 0)]
    )
    def test_pattern_dtype_boundaries(self, r, n, travels_k):
        A = random_matrix(random.Random(100 * r + n), r, n)
        table = chirotope_from_matrix(A)
        levels = o_vector(A)
        for k in range(len(levels.entries) + 1):
            want = count_k_neighborly_reorientations_chirotope(table, k)
            assert count_k_neighborly_reorientations(A, k) == levels.count_at_least(k) == want
        assert count_k_neighborly_reorientations(A, travels_k) == f_via_travels(A, travels_k)

    def test_memory_stays_within_batches(self):
        # a scan of every (circuit, half-mask) pair would hold C(14,6) * 2^13 * 4 B = 98 MB
        A = reorient_columns(alternating_matrix(5, 14), {2, 7, 11})
        count_k_neighborly_reorientations(A, 1)  # fill the caches
        tracemalloc.start()
        try:
            count_k_neighborly_reorientations(A, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    # Shapes where few half-masks are k-neighborly, so few survive the first
    # stage (columns 0..10) and each later column doubles a short list.  The
    # block sizes 4096 and 10000 give batches of 32 or 78 circuits in the
    # first stage and more once the list is short, the last batch of each
    # column uneven.  The last item is f at k of the seeded random classes:
    # 0 is the early return when no half-mask survives.
    @pytest.mark.parametrize(
        "r,n,k,random_fs,block_values",
        [
            (5, 13, 1, [38, 6, 0], (None, 4096, 10000)),
            (5, 14, 1, [0, 8], (None, 4096, 10000)),
            (7, 14, 2, [2, 0], (None, 4096, 10000)),
            (6, 14, 2, [0, 0], (None, 4096, 10000)),
            (5, 16, 1, [0], (None,)),
            (7, 16, 2, [], (None,)),
        ],
    )
    def test_dead_words_are_dropped(self, r, n, k, random_fs, block_values):
        rng = random.Random(2)
        indices = [rng.randrange(class_count(r, n)) for _ in random_fs]
        flips = [j for j in range(1, n + 1) if rng.random() < 0.5]
        alternating = reorient_columns(alternating_matrix(r, n), flips)
        matrices = [alternating] + [representative_of_index(r, n, i) for i in indices]
        fs = []
        for A in matrices:
            want = [f_via_travels(A, j) for j in range((r - 1) // 2 + 2)]
            fs.append(want[k])
            for value in block_values:
                with block_bytes(value):
                    levels = o_vector(A)
                    for j, f in enumerate(want):
                        assert count_k_neighborly_reorientations(A, j) == f, (j, value)
                        assert levels.count_at_least(j) == f, (j, value)
        assert fs == [c_closed_form(r, n, k)] + random_fs

    def test_memory_of_a_count_with_dying_words(self):
        # a batch holds at most 128 KB per bit plane however few words are
        # left, so the peak (about 2 MB) does not grow as batches widen
        A = reorient_columns(alternating_matrix(5, 17), {3, 8, 12, 16})
        count_k_neighborly_reorientations(A, 1)  # fill the caches
        tracemalloc.start()
        try:
            f = count_k_neighborly_reorientations(A, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f == c_closed_form(5, 17, 1)
        assert peak < 8 << 20

    # With a first stage of 2-4 columns, every shape above is counted column by
    # column: survivors kept, doubled on the next column and packed again,
    # across word boundaries and with padding bits in the first stage's word.
    @pytest.mark.parametrize("r,n", SHAPES)
    def test_small_first_stage_matches_oracle(self, r, n):
        for index in range(class_count(r, n)):
            A = representative_of_index(r, n, index)
            want = brute_force_o_vector(A)
            for width in (1, 2, 3):
                with first_stage(width):
                    assert o_vector(A).entries == want, width
                    for k in range(len(want) + 1):
                        assert count_k_neighborly_reorientations(A, k) == sum(want[k:]), width

    # the chirotope engine passes its supports in lexicographic order, as the
    # matrix engine does; the count takes them by largest element itself
    @given(sign_matrices(min_r=2, max_r=7, max_n=13), st.data())
    @settings(max_examples=25, deadline=None)
    def test_small_first_stage_matches_travels_and_chirotope(self, A, data):
        k = data.draw(st.integers(0, (A.rows - 1) // 2 + 1))
        width = data.draw(st.integers(1, 4))
        want = f_via_travels(A, k)
        with first_stage(width):
            assert count_k_neighborly_reorientations_chirotope(chirotope_from_matrix(A), k) == want
            assert count_k_neighborly_reorientations(A, k) == want
            assert o_vector(A).count_at_least(k) == want

    # With the default first stage (columns 0..10), n <= 11 is one stage over
    # every circuit and n = 12, 13 add one or two column stages.  Each shape
    # has a seeded reorientation of the alternating matrix, whose f > 0 at the
    # k given keeps survivors in every stage, and eight seeded classes.
    @pytest.mark.parametrize("r,n,k", [(5, 11, 1), (7, 11, 2), (5, 12, 1), (6, 13, 2)])
    def test_default_stages_match_travels_and_chirotope(self, r, n, k):
        rng = random.Random(20)
        flips = [j for j in range(1, n + 1) if rng.random() < 0.5]
        matrices = [reorient_columns(alternating_matrix(r, n), flips)] + [
            representative_of_index(r, n, rng.randrange(class_count(r, n))) for _ in range(8)
        ]
        for A in matrices:
            table = chirotope_from_matrix(A)
            levels = o_vector(A)
            for j in range((r - 1) // 2 + 2):
                want = f_via_travels(A, j)
                assert count_k_neighborly_reorientations(A, j) == want, j
                assert count_k_neighborly_reorientations_chirotope(table, j) == want, j
                assert levels.count_at_least(j) == want, j
        assert count_k_neighborly_reorientations(matrices[0], k) == c_closed_form(r, n, k) > 0

    def test_returns_when_no_half_mask_survives(self, monkeypatch):
        # this class keeps 1-neighborly half-masks past the first stage (columns
        # 0..10) but none past column 11, so columns 12 and 13 are never tested
        A = representative_of_index(5, 14, 1930549411)
        columns = []
        at_least = sign_core._at_least

        def spy(signed, elements, positive, m):
            columns.append(int(elements.max()))
            return at_least(signed, elements, positive, m)

        monkeypatch.setattr(sign_core, "_at_least", spy)
        assert count_k_neighborly_reorientations(A, 1) == 0 == f_via_travels(A, 1)
        assert max(columns) == 11
        levels = o_vector(A)
        assert levels.count_at_least(1) == 0 and levels.count_at_least(0) == f_via_travels(A, 0)

    def test_memory_of_a_count_where_every_half_mask_survives(self):
        # at k = 0 most half-masks survive every column (2^14 of the 2^15 at the
        # end); the survivors' planes are unpacked to a byte per bit only a
        # group of rows at a time
        A = reorient_columns(alternating_matrix(8, 16), {2, 7, 11})
        count_k_neighborly_reorientations(A, 0)  # fill the caches
        tracemalloc.start()
        try:
            f = count_k_neighborly_reorientations(A, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f == f_via_travels(A, 0) == 1 << 15
        assert peak < 4 << 20


def popcount_table(r, n, k):
    """violation_table from its definition: popcount(P ^ (S & R)) <= k or >= r+1-k."""
    half = 1 << (n - 1)
    reorientations = np.arange(half, dtype=np.int64) << 1
    bit_of_word = np.arange(min(64, half), dtype=np.uint64)
    rows = []
    for support in combinations(range(n), r + 1):
        S = sum(1 << e for e in support)
        for p in range(1 << r):
            P = (1 << support[0]) | sum(1 << e for i, e in enumerate(support[1:]) if p >> i & 1)
            ones = np.bitwise_count(P ^ (S & reorientations))
            bad = ((ones <= k) | (ones >= r + 1 - k)).astype(np.uint64)
            rows.append((bad.reshape(-1, bit_of_word.shape[0]) << bit_of_word).sum(axis=1))
    return np.array(rows, dtype=np.uint64).reshape(comb(n, r + 1), 1 << r, -1)


@pytest.mark.parametrize(
    "r,n,k",
    [
        (2, 3, 0), (2, 5, 0), (3, 5, 1), (4, 7, 1), (3, 8, 1), (4, 8, 3), (5, 9, 2),
        # supports holding several 0-based columns c >= 7, which swap words 2^(c-7) apart
        (3, 10, 1), (2, 12, 0), (6, 10, 2),
    ],
)
def test_violation_table_is_the_popcount_definition(r, n, k):
    want = popcount_table(r, n, k)
    for value in BLOCK_BYTES:
        with block_bytes(value):
            table = violation_table(r, n, k)
        assert table.dtype == want.dtype and table.shape == want.shape
        assert np.array_equal(table, want)  # padding bits included


@pytest.mark.parametrize("r,n,k", [(8, 12, 3), (9, 13, 3)])
def test_violation_table_build_stays_within_batches(r, n, k):
    # beyond the table itself the build holds its batch buffers and the
    # counting kernel's counters for one batch of pattern-0 circuits
    violation_table(r, n, k)  # fill the caches
    tracemalloc.start()
    try:
        table = violation_table(r, n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes < 2.5 * (1 << 20)


class TestFirstRowRuns:
    """Counting aligned runs of chessboard row 1 against one class at a time."""

    # r = 2: one run is the whole space; n = r+1: runs of one class
    SHAPES = [(3, 6, 1), (4, 8, 1), (5, 9, 2), (3, 9, 1), (2, 7, 0), (3, 4, 0), (4, 5, 1)]

    @pytest.mark.parametrize("r,n,k", SHAPES)
    def test_every_class_every_width(self, r, n, k):
        # a run counts its offsets whose low min(low_bits, width) bits are clear
        table = violation_table(r, n, k)
        entries = representative_entries(r, n, range(class_count(r, n)))
        want = [count_k_neighborly_reorientations(SignMatrix.from_array(e), k) for e in entries]
        assert violation_counts(table, entries).tolist() == want
        if r == 2:
            assert class_count(r, n) == 1 << (n - r - 1)
        for width in range(n - r):
            firsts = representative_entries(r, n, range(0, class_count(r, n), 1 << width))
            for value in BLOCK_BYTES:
                with block_bytes(value):
                    got = violation_counts(table, firsts, width)
                assert got.tolist() == want[:: 1 << min(1, width)], (width, value)
            got = violation_counts(table, firsts, width, low_bits=2)
            assert got.tolist() == want[:: 1 << min(2, width)], width

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_run_wider_than_row_one_counts_its_first_class(self, k):
        # at n = r+2 row 1 is one square long, and the runs of a survey that
        # counts one class in 16 are L = 2 wide: each counts its first class
        r, n = 5, 7
        assert sign_core._run_width(r, n, 1 << 10, low_bits=2) == 2
        firsts = range(0, class_count(r, n), 4)
        want = [count_k_neighborly_reorientations(representative_of_index(r, n, i), k) for i in firsts]
        table = violation_table(r, n, k)
        got = violation_counts(table, representative_entries(r, n, firsts), width=2, low_bits=2)
        assert got.tolist() == want

    def test_run_in_the_middle_of_the_space(self):
        # runs need only be aligned, not start at class 0
        r, n, k = 5, 10, 2
        table = violation_table(r, n, k)
        lo, width = 3 << 4, 4
        want = violation_counts(table, representative_entries(r, n, range(lo, lo + 64)))
        firsts = representative_entries(r, n, range(lo, lo + 64, 1 << width))
        assert np.array_equal(violation_counts(table, firsts, width), want[::2])

    def test_long_run_stays_within_batches(self):
        # one run of 4096 classes: a row union per class of the run would
        # hold 8 MB, and every pair's union gathered for every class 650 MB
        r, n, k, width = 2, 15, 0, 12
        table = violation_table(r, n, k)
        first = representative_entries(r, n, [0])
        violation_counts(table, first, width)  # fill the caches
        tracemalloc.start()
        try:
            got = violation_counts(table, first, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        sample = np.arange(0, 1 << width, 2 * 61)  # counted offsets only
        want = violation_counts(table, representative_entries(r, n, sample))
        assert np.array_equal(got[sample // 2], want)


@st.composite
def edge_cases(draw):
    """A matrix and k at an edge: n = r+1, r = 2, or k = (r-1)//2 and one above."""
    edge = draw(st.sampled_from(["n = r+1", "r = 2", "largest k"]))
    r = 2 if edge == "r = 2" else draw(st.integers(2, 7))
    n = r + 1 if edge == "n = r+1" else draw(st.integers(r + 1, 10))
    top = (r - 1) // 2
    k = draw(st.sampled_from([top, top + 1]) if edge == "largest k" else st.integers(0, top + 1))
    sign = st.sampled_from([1, -1])
    rows = draw(st.lists(st.lists(sign, min_size=n, max_size=n), min_size=r, max_size=r))
    return SignMatrix.from_rows(rows), k


@given(edge_cases())
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_edge_shapes(case):
    A, k = case
    want = count_k_neighborly_reorientations(A, k)
    assert f_via_travels(A, k) == want
    assert count_k_neighborly_reorientations_chirotope(chirotope_from_matrix(A), k) == want
    if k > (A.rows - 1) // 2:
        assert want == 0  # a circuit of r+1 elements cannot keep k+1 on each side
