"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The extended surveys (criterion 4) are skipped unless
LOMLAB_LONG=1 is set; everything else runs by default.  All assertions are
exact (integer equality), no tolerances anywhere.
"""

import os
import random
from math import comb

import pytest

from conftest import all_representatives, random_matrix
from lomlab.chessboard import (
    chessboard_of,
    class_count,
    index_of_chessboard,
    representative_of_index,
)
from lomlab.formulas import (
    asymptotic_bound,
    c_closed_form,
    lom_upper_bound,
    total_plain_travels,
)
from lomlab.sign_core import (
    count_k_neighborly_reorientations,
    is_k_neighborly_circuits,
    reorient_columns,
    reorient_rows,
)
from lomlab.survey import SurveyConfig, minor_recursion_check, run_survey, verify_case
from lomlab.travels import (
    count_k_neighborly_plain_travels,
    enumerate_plain_travels,
    f_via_travels,
    is_k_neighborly_matrix,
    realize_plain_travel,
)

RUN_LONG = os.environ.get("LOMLAB_LONG") == "1"
THREADS = max(1, min(8, os.cpu_count() or 1))


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}", flush=True)


def run_preset(case: str) -> None:
    result = verify_case(case, threads=THREADS)
    assert result.passed, result.lines()


def test_criterion_1_survey_r7n11k2():
    result = verify_case("r7n11k2", threads=THREADS)
    r = result.result
    assert r.class_count == 262144
    assert sum(r.histogram.values()) == 262144
    assert r.c.value == 112 and r.c.source == "closed_form"
    assert r.max_f == 112
    assert r.alternating_class_f == 112
    assert r.maximizer_count_excluding_alternating == 255
    assert result.passed, result.lines()
    report(
        "criterion-1",
        f"262144 classes at (7,11,2): max_f = 112 = c, 255 non-alternating maximizers "
        f"({r.elapsed_seconds:.1f}s, {THREADS} worker(s))",
    )


def test_criterion_2a_survey_r8n11k2():
    k2 = verify_case("r8n11k2", threads=THREADS)
    assert k2.result.class_count == 16384
    assert k2.result.c.source == "computed"
    assert k2.result.maximizer_count_excluding_alternating == 255
    assert k2.passed, k2.lines()
    report(
        "criterion-2a",
        f"(8,11,2): 255 non-alternating maximizers at computed c = {k2.result.c.value}",
    )


def test_criterion_2b_survey_r8n11k3():
    # The stated expectation (exactly 251 maximizer classes) is contradicted
    # by the exhaustive computation: five independent paths (violation-table
    # survey engine, vectorized circuit masks, chirotope-table engine,
    # travels engine, and the plain brute-force oracle over all 2^11
    # subsets) all count f = 22 on exactly 256 classes (255 excluding the
    # alternating one), and the maximizer set is identical to the k=2 set
    # whose published count of 255 does match.  This test asserts the
    # stated number and is expected to fail until the 251 is reconciled;
    # every structural check (histogram total and parity, alternating
    # class, max_f <= c) passes.
    k3 = verify_case("r8n11k3", threads=THREADS)
    assert k3.result.c.value == 22 == c_closed_form(8, 11, 3)
    assert k3.result.max_f == 22
    assert k3.result.alternating_class_f == 22
    got = k3.result.maximizer_count_excluding_alternating
    if got != 251:
        print(
            f"[FAIL] criterion-2b: (8,11,3) expected exactly 251 non-alternating "
            f"maximizers, measured {got} (verified by five independent engines; "
            f"identical maximizer set as (8,11,2) where 255 is the accepted count)",
            flush=True,
        )
    assert got == 251, f"measured {got} maximizer classes, stated value is 251"
    report("criterion-2b", "(8,11,3): 251 non-alternating maximizers at c = 22")


def test_criterion_3_surveys_r9n12():
    k2 = verify_case("r9n12k2", threads=THREADS)
    assert k2.result.class_count == 65536
    assert k2.result.c.source == "computed"
    assert k2.result.maximizer_count_excluding_alternating == 511
    assert k2.passed, k2.lines()

    k3 = verify_case("r9n12k3", threads=THREADS)
    assert k3.result.c.source == "computed"
    assert k3.result.maximizer_count_excluding_alternating == 511
    assert k3.passed, k3.lines()
    report(
        "criterion-3",
        f"(9,12): k=2 -> 511 maximizers at computed c = {k2.result.c.value}; "
        f"k=3 -> 511 maximizers at computed c = {k3.result.c.value}",
    )


@pytest.mark.skipif(not RUN_LONG, reason="extended preset; set LOMLAB_LONG=1 to run")
@pytest.mark.parametrize("case", ["r8n12k2", "r8n12k3", "r9n13k3"])
def test_criterion_4_extended_surveys(case):
    run_preset(case)
    report("criterion-4", f"extended preset {case} verified")


def test_criterion_5_engine_equivalence():
    checked = 0
    for r, n in [(3, 5), (3, 6), (4, 6), (4, 7)]:
        for A in all_representatives(r, n):
            for k in (0, 1, 2):
                assert f_via_travels(A, k) == count_k_neighborly_reorientations(A, k)
                checked += 1
    rng = random.Random(190104)
    for _ in range(1000):
        r = rng.randint(2, 5)
        n = rng.randint(r + 1, 9)
        A = random_matrix(rng, r, n)
        k = rng.randint(0, 2)
        assert f_via_travels(A, k) == count_k_neighborly_reorientations(A, k)
        checked += 1
    report(
        "criterion-5",
        f"travels engine == circuits engine on {checked} matrix/k pairs "
        f"(all classes at (3,5),(3,6),(4,6),(4,7) with k <= 2, plus 1000 random up to 5x9)",
    )


def test_criterion_6_formula_goldens():
    assert c_closed_form(7, 11, 2) == 112
    assert lom_upper_bound(8, 15, 2) - c_closed_form(8, 15, 2) == 13876
    assert lom_upper_bound(8, 15, 3) - c_closed_form(8, 15, 3) == 14696
    assert asymptotic_bound(4, 5, 1) == 30
    for k in (1, 2, 3, 4):
        r = 2 * k + 2
        assert asymptotic_bound(r, r + 1, k) == 2 + 2 * comb(r, k + 1) + 2**r
    assert class_count(7, 11) == 2**18
    assert class_count(8, 11) == 2**14
    assert class_count(9, 13) == 2**24
    report(
        "criterion-6",
        "c(7,11,2)=112; upper-bound gaps 13876/14696; F(4,5,1)=30 and the "
        "minimal-even-rank identity for k<=4; class counts 2^18/2^14/2^24",
    )


def test_criterion_7_even_rank_maximum_at_4_8_1():
    result = run_survey(SurveyConfig(4, 8, 1, threads=THREADS))
    bound = c_closed_form(4, 8, 1)
    assert bound == 16 == 2 * 8
    assert result.class_count == 512
    assert sum(result.histogram.values()) == 512
    assert result.max_f <= bound
    assert result.max_f == 16
    report(
        "criterion-7",
        f"all 512 classes at (4,8,1) satisfy f <= 16 = 2n; maximum attained "
        f"({result.maximizer_count_total} classes)",
    )


class TestCriterion8PropertySuites:
    def test_complement_pairing_and_evenness(self):
        rng = random.Random(77)
        for _ in range(40):
            r = rng.randint(2, 4)
            n = rng.randint(r + 1, 7)
            A = random_matrix(rng, r, n)
            R = {j for j in range(1, n + 1) if rng.random() < 0.5}
            comp = set(range(1, n + 1)) - R
            k = rng.randint(0, 1)
            assert is_k_neighborly_circuits(A, R, k) == is_k_neighborly_circuits(A, comp, k)
            assert count_k_neighborly_reorientations(A, k) % 2 == 0
        report("criterion-8a", "complement pairing and histogram evenness")

    def test_chessboard_invariance(self):
        rng = random.Random(78)
        for _ in range(60):
            A = random_matrix(rng, 4, 7)
            S = {j for j in range(1, 8) if rng.random() < 0.5}
            T = {i for i in range(1, 5) if rng.random() < 0.5}
            B = reorient_rows(reorient_columns(A, S), T)
            assert chessboard_of(B) == chessboard_of(A)
        report("criterion-8b", "chessboard invariant under row+column reorientation")

    def test_representative_roundtrip(self):
        for r, n in [(3, 6), (4, 7)]:
            for index in range(class_count(r, n)):
                A = representative_of_index(r, n, index)
                assert index_of_chessboard(chessboard_of(A), r, n) == index
        report("criterion-8c", "representative/index roundtrip at (3,6) and (4,7)")

    def test_plain_travel_count_formula(self):
        for r, n in [(2, 4), (3, 5), (4, 7), (5, 9), (6, 10)]:
            assert len(enumerate_plain_travels(r, n)) == total_plain_travels(r, n)
        report("criterion-8d", "plain-travel enumeration matches the binomial-sum total")

    @staticmethod
    def _drop_row_map(P):
        return {row: col for row, col in enumerate(P.drop_columns, start=1)}

    def test_forced_early_drop_failures(self):
        # early vertical moves in the two critical bands doom a travel
        for r, n, k in [(3, 5, 1), (4, 6, 1), (4, 7, 1)]:
            for A in all_representatives(r, n):
                for P in enumerate_plain_travels(r, n):
                    rows = self._drop_row_map(P)
                    first = rows.get(r - 2 * k)
                    second = rows.get(r - 2 * k + 1)
                    doomed = (first is not None and first <= n - 3 * k) or (
                        second is not None and second <= n - 3 * k + 2
                    )
                    if doomed:
                        realized, _ = realize_plain_travel(A, P)
                        assert not is_k_neighborly_matrix(realized, k)
        report("criterion-8e", "early-drop travels never k-neighborly at (3,5,1)/(4,6,1)/(4,7,1)")

    @staticmethod
    def _winners_by_first_drop(A, k, columns):
        per_j = {j: 0 for j in columns}
        for P in enumerate_plain_travels(A.rows, A.cols):
            if P.drop_columns and P.drop_columns[0] in per_j:
                realized, _ = realize_plain_travel(A, P)
                if is_k_neighborly_matrix(realized, k):
                    per_j[P.drop_columns[0]] += 1
        return per_j

    def test_first_drop_uniqueness(self):
        # at most one k-neighborly travel per early first-drop column; at
        # (4,7,1) this holds through the full range j <= n-(3k+1) = 3, while
        # at (4,6,1) the single candidate column j=2 sits outside the
        # proof-valid range n-j >= 2k+3 and genuinely admits two winners
        # (the pinned counterexample in test_travels), so the bound there is 2
        for A in all_representatives(4, 7):
            assert all(v <= 1 for v in self._winners_by_first_drop(A, 1, (2, 3)).values())
        worst = 0
        for A in all_representatives(4, 6):
            worst = max(worst, self._winners_by_first_drop(A, 1, (2,))[2])
        assert worst == 2
        report(
            "criterion-8f",
            "one k-neighborly travel per early first-drop column at (4,7,1) (j <= 3); "
            "boundary column j=2 at (4,6,1) peaks at two (documented counterexample)",
        )

    def test_odd_extremal_rank_travel_budget(self):
        for r, n, k in [(3, 5, 1), (3, 6, 1), (5, 8, 2)]:
            for A in all_representatives(r, n):
                assert count_k_neighborly_plain_travels(A, k) <= 1
        report("criterion-8g", "at most one neighborly travel at (3,5,1)/(3,6,1)/(5,8,2)")

    def test_minor_recursion(self):
        exhaustive = minor_recursion_check(3, 6, 1, sample_size=16, seed=0)
        assert exhaustive.passed and len(exhaustive.indices) == 16
        full_47 = minor_recursion_check(4, 7, 1, sample_size=64, seed=0)
        assert full_47.passed and len(full_47.indices) == 64
        report("criterion-8h", "minor recursion inequality at (3,6,1) and (4,7,1), all classes")
