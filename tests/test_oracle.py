from collections import Counter
from functools import reduce
from math import prod

import pytest

from ribbon_schur import oracle
from ribbon_schur.compositions import Composition, _compose_raw, enumerate_compositions
from ribbon_schur.dirichlet import series_R
from ribbon_schur.factorization import _factor_parts, count_asymmetric_factors, normalize
from ribbon_schur.lengthpolys import poly_R_recursive, poly_R_refined
from ribbon_schur.oracle import (
    BudgetError,
    CrossValidationReport,
    brute_force_classes,
    brute_force_length_histogram,
    cross_validate,
    h_fingerprint,
)

from helpers import classes_by_mask_decode


def C(*parts):
    return Composition(parts)


class TestFingerprint:
    def test_single_row(self):
        fp = h_fingerprint(C(2))
        assert fp.terms == {(2,): 1}

    def test_column_of_height_two(self):
        fp = h_fingerprint(C(1, 1))
        assert fp.terms == {(1, 1): 1, (2,): -1}

    def test_reversal_pair(self):
        assert h_fingerprint(C(1, 3)) == h_fingerprint(C(3, 1))

    def test_equal_hash_for_equal_fingerprints(self):
        assert hash(h_fingerprint(C(1, 3))) == hash(h_fingerprint(C(3, 1)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_reversal_invariance(self, n):
        for alpha in enumerate_compositions(n):
            assert h_fingerprint(alpha) == h_fingerprint(alpha.reverse())

    @pytest.mark.parametrize("n", range(1, 13))
    def test_structure_invariants(self, n):
        for alpha in enumerate_compositions(n):
            fp = h_fingerprint(alpha)
            # exactly one coarsest term, with a sign
            assert fp.coefficient((n,)) in (-1, 1)
            assert len(fp) <= 1 << (alpha.length - 1)
            assert all(sum(partition) == n for partition in fp.terms)
            # the finest surviving term is the sorted composition itself
            assert fp.coefficient(tuple(sorted(alpha, reverse=True))) == 1

    def test_one_class_one_fingerprint(self):
        members = [C(1, 2, 1, 3, 2), C(1, 3, 2, 1, 2), C(2, 1, 2, 3, 1), C(2, 3, 1, 2, 1)]
        fingerprints = {h_fingerprint(m) for m in members}
        assert len(fingerprints) == 1


class TestRibbonValues:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_value_is_fingerprint_at_the_point(self, n):
        h = oracle._h_values(n)
        for parts, value in oracle._ribbon_values(n):
            terms = h_fingerprint(parts).terms.items()
            expected = sum(c * prod(h[k] for k in partition) for partition, c in terms)
            assert value == expected % oracle._MODULUS

    @pytest.mark.parametrize("n", range(1, 13))
    def test_value_partition_is_fingerprint_partition(self, n):
        by_value, by_fingerprint = {}, {}
        for parts, value in oracle._ribbon_values(n):
            by_value.setdefault(value, set()).add(parts)
            by_fingerprint.setdefault(h_fingerprint(parts), set()).add(parts)
        assert sum(map(len, by_value.values())) == 1 << (n - 1)
        assert set().union(*by_value.values()) == {tuple(a) for a in enumerate_compositions(n)}
        assert ({frozenset(g) for g in by_value.values()}
                == {frozenset(g) for g in by_fingerprint.values()})


class TestBruteForceClasses:
    def test_size_one(self):
        assert brute_force_classes(1) == [(C(1), 1)]

    def test_size_four(self):
        classes = brute_force_classes(4)
        assert classes == [
            (C(1, 1, 1, 1), 1),
            (C(1, 1, 2), 2),
            (C(1, 2, 1), 1),
            (C(1, 3), 2),
            (C(2, 2), 1),
            (C(4,), 1),
        ]

    def test_size_nine_has_135_classes(self):
        assert len(brute_force_classes(9)) == 135

    @pytest.mark.parametrize("n", range(1, 13))
    def test_class_sizes_sum_to_all_compositions(self, n):
        classes = brute_force_classes(n)
        assert sum(size for _, size in classes) == 1 << (n - 1)
        assert all(normalize(rho) == rho for rho, _ in classes)

    def test_budget(self):
        with pytest.raises(BudgetError):
            brute_force_classes(21)
        with pytest.raises(ValueError):
            brute_force_classes(0)

    def test_parallel_matches_sequential(self):
        assert brute_force_classes(15, jobs=2) == brute_force_classes(15)

    def test_unaligned_work_items_match_sequential(self):
        # 2^14 masks in 24 items: the item boundaries miss the low table's blocks
        assert brute_force_classes(15, jobs=3) == brute_force_classes(15)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_mask_decode(self, n, jobs):
        classes = brute_force_classes(n, jobs=jobs)
        assert classes == classes_by_mask_decode(n)
        assert all(type(rho) is Composition for rho, _ in classes)

    def test_sizes_past_one_byte_are_refused_at_once(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(oracle, "composition_parts_in_range", no_sweep)
        with pytest.raises(BudgetError, match="255"):
            brute_force_classes(256, budget=300)
        with pytest.raises(BudgetError, match="255"):
            brute_force_length_histogram(256, budget=300)


class TestLengthHistogram:
    def test_size_two(self):
        assert brute_force_length_histogram(2).coeffs == (0, 1, 1)

    def test_size_four(self):
        assert brute_force_length_histogram(4).coeffs == (0, 1, 2, 2, 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_total_is_class_count(self, n):
        assert brute_force_length_histogram(n)(1) == len(brute_force_classes(n))

    def test_budget(self):
        with pytest.raises(BudgetError):
            brute_force_length_histogram(19)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_recursion(self, n):
        assert brute_force_length_histogram(n) == poly_R_recursive(n)


class TestCrossValidation:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_small_sizes_identical(self, n):
        report = cross_validate(n)
        assert report.identical
        assert not report.mismatches

    def test_size_nine(self):
        report = cross_validate(9)
        assert report.identical
        assert report.fingerprint_classes == 135
        assert report.normal_form_classes == 135
        assert "identical" in report.summary()

    def test_budget(self):
        with pytest.raises(BudgetError):
            cross_validate(17)

    def test_report_record(self):
        report = CrossValidationReport(n=4, fingerprint_classes=6, normal_form_classes=6,
                                       identical=True)
        assert report == cross_validate(4) == CrossValidationReport(4, 6, 6, True, [])
        assert report != CrossValidationReport(4, 6, 6, True, ["x"])
        assert repr(report) == ("CrossValidationReport(n=4, fingerprint_classes=6,"
                                " normal_form_classes=6, identical=True, mismatches=[])")
        other = CrossValidationReport(4, 6, 6, True)
        other.mismatches.append("x")
        assert report.mismatches == []

    def test_unreversed_last_factor_is_caught(self, monkeypatch):
        def planted(alpha):
            factors = _factor_parts(alpha)
            canonical = [min(f, f[::-1]) for f in factors[:-1]] + [factors[-1]]
            return reduce(_compose_raw, canonical)

        monkeypatch.setattr(oracle, "_normal_form", planted)
        report = cross_validate(6)
        assert not report.identical
        assert "fingerprint-only group: {1,1,1,1,2, 2,1,1,1,1}" in report.mismatches
        assert report.fingerprint_classes < report.normal_form_classes

    def test_sorted_parts_are_caught(self, monkeypatch):
        monkeypatch.setattr(oracle, "_normal_form", lambda alpha: tuple(sorted(alpha)))
        report = cross_validate(6)
        assert not report.identical
        assert ("normal form-only group: {1,1,2,2, 1,2,1,2, 1,2,2,1, 2,1,1,2, 2,1,2,1, 2,2,1,1}"
                in report.mismatches)
        assert report.fingerprint_classes > report.normal_form_classes

    @pytest.mark.parametrize("n", range(1, 9))
    def test_collisions_are_never_reported(self, monkeypatch, n):
        # every h_k = 1 gives every ribbon of length >= 2 the value 0
        monkeypatch.setattr(oracle, "_h_values", lambda size: [1] * (size + 1))
        assert len({v for _, v in oracle._ribbon_values(n)}) == min(n, 2)
        report = cross_validate(n)
        assert report.identical
        assert not report.mismatches
        assert report.fingerprint_classes == series_R(n).integer_coefficients()[n - 1]

    @pytest.mark.parametrize("n", range(10, 15))
    def test_matches_formula_counts(self, n):
        report = cross_validate(n)
        assert report.identical
        assert report.normal_form_classes == series_R(n).integer_coefficients()[n - 1]


class TestAsymmetricFactorRefinement:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_histogram_matches_refined_polynomial(self, n):
        observed = Counter()
        for rho, _ in brute_force_classes(n):
            observed[count_asymmetric_factors(rho)] += 1
        expected = Counter()
        for (_, k), count in poly_R_refined(n).items():
            expected[k] += count
        assert observed == +expected
