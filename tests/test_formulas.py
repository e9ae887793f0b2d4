from fractions import Fraction
from math import comb

import pytest

from lomlab.formulas import (
    CValue,
    asymptotic_bound,
    binomial,
    c_closed_form,
    c_value,
    class_count,
    lom_upper_bound,
    total_plain_travels,
)
from lomlab.sign_core import alternating_matrix, count_k_neighborly_reorientations
from lomlab.travels import enumerate_plain_travels, f_via_travels


class TestBinomial:
    def test_values(self):
        assert binomial(10, 3) == 120
        assert binomial(14, 7) == 3432
        assert binomial(7, 0) == 1
        assert binomial(3, 5) == 0

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            binomial(-1, 2)
        with pytest.raises(ValueError):
            binomial(4, -2)


class TestClosedForm:
    def test_goldens(self):
        assert c_closed_form(7, 11, 2) == 112
        assert c_closed_form(4, 8, 1) == 16
        assert c_closed_form(5, 9, 2) == 2
        assert c_closed_form(8, 11, 3) == 22
        assert c_closed_form(9, 13, 3) == 158

    def test_preconditions(self):
        with pytest.raises(ValueError):
            c_closed_form(8, 11, 2)  # needs n >= 13
        with pytest.raises(ValueError):
            c_closed_form(4, 9, 0)  # needs k >= 1
        with pytest.raises(ValueError):
            c_closed_form(4, 11, 2)  # needs r >= 2k+1

    def test_pascal_recursion(self):
        for k in (1, 2, 3):
            for r in range(2 * k + 2, 10):
                for n in range(2 * (r - k) + 2, 25):
                    assert (
                        c_closed_form(r, n - 1, k) + c_closed_form(r - 1, n - 1, k)
                        == c_closed_form(r, n, k)
                    )

    def test_matches_engine_on_alternating(self):
        for r, n, k in [(3, 5, 1), (4, 7, 1), (5, 9, 2), (4, 8, 1)]:
            engine = count_k_neighborly_reorientations(alternating_matrix(r, n), k)
            assert c_closed_form(r, n, k) == engine


class TestCValue:
    def test_odd_rank_at_minimum_elements(self):
        got = c_value(3, 4, 1)
        assert got.value == comb(4, 2) == 6
        assert got.source == "odd_rank_special"

    def test_odd_rank_two_above(self):
        # at n >= r+2 the closed form already covers it and gives the same 2
        got = c_value(3, 5, 1)
        assert got.value == 2
        assert got.source == "closed_form"
        got = c_value(5, 6, 2)  # n = r+1: only the special value applies
        assert got.value == comb(6, 3) == 20
        assert got.source == "odd_rank_special"

    def test_computed_fallback(self):
        got = c_value(8, 11, 2)
        assert got.source == "computed"
        assert got.value == 462  # frozen from the first verified engine run
        assert got.value == count_k_neighborly_reorientations(alternating_matrix(8, 11), 2)

    def test_closed_form_when_applicable(self):
        got = c_value(9, 13, 3)
        assert (got.value, got.source) == (158, "closed_form")

    def test_travels_engine_fallback_agrees(self):
        got = c_value(4, 6, 1)
        assert got.source == "computed"
        assert got.value == f_via_travels(alternating_matrix(4, 6), 1)

    def test_acyclic_reference(self):
        got = c_value(3, 5, 0)
        assert got.value == 22 == 2 * total_plain_travels(3, 5)
        assert got.value == count_k_neighborly_reorientations(alternating_matrix(3, 5), 0)

    def test_unknown_past_the_exhaustive_engine(self):
        assert c_value(20, 25, 3) == CValue(None, "unknown")

    def test_preconditions(self):
        with pytest.raises(ValueError):
            c_value(4, 4, 1)
        with pytest.raises(ValueError):
            c_value(4, 9, 2)
        with pytest.raises(ValueError, match="k must be non-negative, got k=-1"):
            c_value(3, 5, -1)


class TestPlainTravelTotal:
    def test_goldens(self):
        assert total_plain_travels(3, 5) == 11
        assert total_plain_travels(2, 3) == 3
        assert total_plain_travels(7, 11) == 848

    @pytest.mark.parametrize("r,n", [(2, 4), (3, 6), (4, 7), (5, 8)])
    def test_matches_enumeration(self, r, n):
        assert total_plain_travels(r, n) == len(enumerate_plain_travels(r, n))


class TestUpperBound:
    def test_paper_scale_goldens(self):
        assert lom_upper_bound(8, 15, 2) - c_closed_form(8, 15, 2) == 13876
        assert lom_upper_bound(8, 15, 3) - c_closed_form(8, 15, 3) == 14696

    def test_small_golden(self):
        assert lom_upper_bound(4, 7, 1) == 58

    def test_precondition(self):
        with pytest.raises(ValueError):
            lom_upper_bound(4, 6, 1)  # needs n >= 2r-1

    def test_dominates_engine_counts(self):
        for r, n, k in [(4, 7, 1), (3, 5, 1)]:
            f = count_k_neighborly_reorientations(alternating_matrix(r, n), k)
            assert f <= lom_upper_bound(r, n, k)


class TestAsymptoticBound:
    def test_base_golden(self):
        assert asymptotic_bound(4, 5, 1) == 30

    def test_cubic_golden(self):
        assert asymptotic_bound(6, 10, 1) == Fraction(2 * 51**3, 6) == 44217

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_minimal_even_rank_identity(self, k):
        r = 2 * k + 2
        assert asymptotic_bound(r, r + 1, k) == 2 + 2 * comb(r, k + 1) + 2**r

    def test_preconditions(self):
        with pytest.raises(ValueError):
            asymptotic_bound(3, 5, 1)  # needs r >= 2k+2
        with pytest.raises(ValueError):
            asymptotic_bound(5, 4, 1)  # needs n >= r

    def test_recursion_strict_above_minimal_rank(self):
        for k in (1, 2, 3):
            for r in range(2 * k + 3, 11):
                for n in range(r + 1, 31):
                    assert (
                        asymptotic_bound(r - 1, n - 1, k) + asymptotic_bound(r, n - 1, k)
                        < asymptotic_bound(r, n, k)
                    )

    def test_recursion_is_exact_equality_at_minimal_rank(self):
        # at r = 2k+2 the lower-rank term degenerates to the constant 2
        # (exponent 0), and the recursion closes with equality, not strictness
        for k in (1, 2, 3):
            r = 2 * k + 2
            for n in range(r + 1, 31):
                assert 2 + asymptotic_bound(r, n - 1, k) == asymptotic_bound(r, n, k)

    def test_approaches_alternating_count_from_above(self):
        # the bound can never drop below the alternating count (that count is
        # itself one of the values the bound dominates); the real asymptotic
        # statement is that the two agree to leading order, so the relative
        # gap shrinks like 1/n and is under 2% by n = 10^4
        for r in (4, 5, 6):
            previous_gap = None
            for n in (100, 300, 1000, 3000, 10_000):
                c = c_closed_form(r, n, 1)
                F = asymptotic_bound(r, n, 1)
                assert F >= c
                gap = (F - c) / c
                if previous_gap is not None:
                    assert gap < previous_gap
                previous_gap = gap
            assert previous_gap < Fraction(2, 100)


class TestClassCountReexport:
    def test_same_function(self):
        assert class_count(7, 11) == 262144
