import os
import random
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout

import pytest

from helpers import (
    dense_C,
    dense_Lcross,
    dense_R,
    dense_R1,
    dense_refined_terms,
    dense_S,
    poly_R1_explicit,
    poly_R_explicit,
    shift_down,
    solve_chain_expansion,
    solve_stretched_family,
    stretch,
)
from ribbon_schur import cli
from ribbon_schur.compositions import enumerate_compositions
from ribbon_schur.dirichlet import series_R
from ribbon_schur.lengthpolys import (
    InexactDivisionError,
    LengthPoly,
    poly_C,
    poly_Lcross,
    poly_R1_recursive,
    poly_R_recursive,
    poly_R_refined,
    poly_S,
    refined_specialize,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def length_histogram(compositions):
    counts = Counter(c.length for c in compositions)
    coeffs = [0] * (max(counts) + 1)
    for length, count in counts.items():
        coeffs[length] = count
    return LengthPoly(coeffs)


class TestLengthPoly:
    def test_normalization_and_degree(self):
        assert LengthPoly([0, 1, 0, 0]).coeffs == (0, 1)
        assert LengthPoly([]).degree == -1
        assert LengthPoly([0, 1]).degree == 1

    def test_arithmetic(self):
        p = LengthPoly([1, 2])
        q = LengthPoly([0, 1, 1])
        assert (p + q).coeffs == (1, 3, 1)
        assert (p - q).coeffs == (1, 1, -1)
        assert (p * q).coeffs == (0, 1, 3, 2)

    def test_stretch(self):
        assert stretch((0, 1, 2), 3) == (0, 0, 0, 1, 0, 0, 2)

    def test_shift_down_is_exact_or_fails(self):
        assert shift_down((0, 0, 3, 1), 2) == (3, 1)
        with pytest.raises(InexactDivisionError):
            shift_down((0, 1, 3), 2)

    def test_evaluation(self):
        p = LengthPoly([1, 0, 2])
        assert p(1) == 3
        assert p(3) == 19

    def test_sparse_round_trip(self):
        p = LengthPoly([0, 5, 0, -2])
        assert LengthPoly.from_sparse(p.sparse()) == p
        with pytest.raises(InexactDivisionError):
            LengthPoly.from_sparse({-1: 2})


class TestClosedForms:
    def test_frozen_examples(self):
        assert poly_C(4).coeffs == (0, 1, 3, 3, 1)
        assert poly_S(5).coeffs == (0, 1, 0, 2, 0, 1)
        assert poly_Lcross(4).coeffs == (0, 0, 1, 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_against_direct_enumeration(self, n):
        comps = list(enumerate_compositions(n))
        assert poly_C(n) == length_histogram(comps)
        assert poly_S(n) == length_histogram([c for c in comps if c.is_symmetric()])
        asymmetric_lexmin = [
            c for c in comps if not c.is_symmetric() and tuple(c) < c.reverse()
        ]
        if asymmetric_lexmin:
            assert poly_Lcross(n) == length_histogram(asymmetric_lexmin)
        else:
            assert poly_Lcross(n) == LengthPoly.zero()

    @pytest.mark.parametrize("n", range(1, 41))
    def test_totals(self, n):
        assert poly_C(n)(1) == 1 << (n - 1)
        assert poly_S(n)(1) == 1 << (n // 2)
        assert poly_Lcross(n)(1) == ((1 << (n - 1)) - (1 << (n // 2))) // 2


class TestRecursions:
    def test_r1_base_values(self):
        assert poly_R1_recursive(1) == LengthPoly.zero()
        assert poly_R1_recursive(2) == LengthPoly.zero()
        assert poly_R1_recursive(4).coeffs == (0, 0, 1, 1)

    @pytest.mark.parametrize("p", PRIMES)
    def test_r1_at_primes_is_lcross(self, p):
        assert poly_R1_recursive(p) == poly_Lcross(p)

    def test_r_frozen_example(self):
        assert poly_R_recursive(4).coeffs == (0, 1, 2, 2, 1)

    @pytest.mark.parametrize("p", PRIMES)
    def test_r_at_primes(self, p):
        assert poly_R_recursive(p) == poly_S(p) + poly_R1_recursive(p)

    def test_totals_match_size_counts(self):
        counts = series_R(33).integer_coefficients()
        for n in range(1, 34):
            assert poly_R_recursive(n)(1) == counts[n - 1]

    def test_no_memo_outlives_a_call(self):
        with open(os.devnull, "w") as sink:
            with redirect_stdout(sink):  # first call pays for lazy imports
                cli.main(["count-length", "4", "--refined"])
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                with redirect_stdout(sink):
                    assert cli.main(["count-length", "720"]) == 0
                    assert cli.main(["count-length", "720", "--refined"]) == 0
                grown = tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()
        assert grown < 2**20


class TestAgainstDenseRecursion:
    """The divisor solves agree with the dense recursions in tests/helpers.py."""

    SIZES = [*range(1, 121), 180, 240, 360]

    def test_closed_forms(self):
        for n in range(1, 121):
            assert poly_C(n).coeffs == dense_C(n), n
            assert poly_S(n).coeffs == dense_S(n), n
            assert poly_Lcross(n).coeffs == dense_Lcross(n), n

    def test_r1_and_r(self):
        for n in self.SIZES:
            assert poly_R1_recursive(n).coeffs == dense_R1(n), n
            assert poly_R_recursive(n).coeffs == dense_R(n), n

    def test_refined_terms_and_their_order(self):
        for n in [*range(1, 121), 360]:
            assert list(poly_R_refined(n).items()) == list(dense_refined_terms(n)), n


class TestExplicitChainFormulas:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 12])
    def test_small_agreement(self, n):
        assert poly_R1_explicit(n) == poly_R1_recursive(n)
        assert poly_R_explicit(n) == poly_R_recursive(n)

    def test_agreement_up_to_40(self):
        for n in range(1, 41):
            assert poly_R1_explicit(n) == poly_R1_recursive(n), n
            assert poly_R_explicit(n) == poly_R_recursive(n), n

    @pytest.mark.parametrize("p", PRIMES)
    def test_r1_chains_degenerate_at_primes(self, p):
        assert poly_R1_explicit(p) == poly_Lcross(p)


class TestGenericChainSolver:
    def _random_family(self, rng, lowest=0):
        polys = {}

        def family(m):
            if m not in polys:
                terms = {
                    e: rng.randint(-3, 3)
                    for e in range(lowest, lowest + rng.randint(1, 4))
                }
                polys[m] = {e: c for e, c in terms.items() if c}
            return dict(polys[m])

        return family

    @staticmethod
    def _mul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    @staticmethod
    def _stretch(a, d):
        return {e * d: c for e, c in a.items()}

    def test_stretched_family_round_trip(self):
        rng = random.Random(20210517)
        b = self._random_family(rng)
        c = self._random_family(rng)
        b_polys = {1: {0: 1}}
        b = lambda m, inner=b: b_polys.get(m) or inner(m)  # force B_1 = 1

        def divisors(n):
            return [d for d in range(1, n + 1) if n % d == 0]

        def fold_forward(n):
            acc = {}
            for d in divisors(n):
                for e, coeff in self._mul(b(d), self._stretch(c(n // d), d)).items():
                    acc[e] = acc.get(e, 0) + coeff
            return {e: v for e, v in acc.items() if v}

        for n in range(1, 25):
            assert solve_stretched_family(fold_forward, b, n) == c(n), n

    def test_chain_expansion_round_trip(self):
        rng = random.Random(42424242)
        b = self._random_family(rng)
        c = self._random_family(rng)

        def divisors(n):
            return [d for d in range(1, n + 1) if n % d == 0]

        a_cache = {}

        def a(n):
            if n not in a_cache:
                acc = dict(b(n))
                for d in divisors(n):
                    if d == n:
                        continue
                    for e, coeff in self._mul(a(d), self._stretch(c(n // d), d)).items():
                        acc[e] = acc.get(e, 0) + coeff
                a_cache[n] = {e: v for e, v in acc.items() if v}
            return a_cache[n]

        for n in range(1, 25):
            assert solve_chain_expansion(b, c, n) == a(n), n

    def test_requires_unit_leading_family(self):
        with pytest.raises(ValueError):
            solve_stretched_family(lambda m: {1: 1}, lambda m: {0: 2}, 4)


class TestRefined:
    @pytest.mark.parametrize("n", range(1, 19))
    def test_specializations(self, n):
        terms = poly_R_refined(n)
        assert refined_specialize(terms, 1) == poly_R_recursive(n)
        assert refined_specialize(terms, 0) == poly_S(n)
        assert refined_specialize(terms, 2)(1) == 1 << (n - 1)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_counts_are_nonnegative(self, n):
        assert all(c >= 0 for c in poly_R_refined(n).values())

    def test_zero_constant_term_and_degree_bound(self):
        for n in range(1, 19):
            poly = poly_R_recursive(n)
            assert poly.coefficient(0) == 0
            assert poly.degree <= n
