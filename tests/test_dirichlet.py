from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    convolve,
    invert,
    rational_R_refined,
    rational_variant,
    series_R_decomposed,
)
from ribbon_schur.cli import VARIANTS
from ribbon_schur.dirichlet import (
    DirichletSeries,
    series_C,
    series_Lcross,
    series_P,
    series_Pcross,
    series_Pstar,
    series_R,
    series_R_refined,
    series_S,
    series_lexmin,
    series_zeta,
)

# the 33 published counts of distinct ribbon Schur functions by size
RIBBON_COUNTS = [
    1, 2, 3, 6, 10, 20, 36, 72, 135, 272, 528, 1052, 2080, 4160,
    8244, 16508, 32896, 65770, 131328, 262632, 524744, 1049600,
    2098176, 4196200, 8390620, 16781312, 33558291, 67116944,
    134225920, 268451240, 536887296, 1073774376, 2147515424,
]

# the 33 published counts of normalised irreducible compositions by size
IRREDUCIBLE_COUNTS = [
    0, 0, 1, 2, 8, 10, 34, 56, 126, 234, 526, 972, 2078, 4018,
    8186, 16240, 32894, 65164, 131326, 261544, 524530, 1047490,
    2098174, 4191680, 8390520, 16772994, 33557508, 67100304,
    134225918, 268416590, 536887294, 1073708400, 2147512258,
]

# positions with lexicographic-minimal count exceeding the class count
DIFFERENCE_TABLE = {
    9: 1, 12: 4, 15: 12, 16: 4, 18: 22, 20: 24, 21: 56,
    24: 152, 25: 36, 27: 237, 28: 112, 30: 600, 32: 216, 33: 992,
}

int_seqs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=19)
big_seqs = st.lists(st.integers(min_value=-10**30, max_value=10**30), min_size=0, max_size=29)


class TestSeriesArithmetic:
    def test_zeta_squared_counts_divisors(self):
        zz = series_zeta(8) * series_zeta(8)
        assert zz.coefficient(6) == 4
        assert zz.integer_coefficients() == [1, 2, 2, 3, 2, 4, 2, 4]

    def test_convolution_hand_value(self):
        cs = convolve(series_C(4), series_S(4))
        assert cs.coefficient(4) == 16

    def test_identity(self):
        e = DirichletSeries.identity(10)
        a = series_C(10)
        assert e * a == a
        assert a * e == a

    def test_bound_mismatch(self):
        with pytest.raises(ValueError):
            series_C(4) * series_C(5)

    @given(int_seqs, int_seqs, int_seqs)
    def test_associative_and_commutative(self, a, b, c):
        bound = 20
        sa = DirichletSeries([1] + a + [0] * (bound - 1 - len(a)))
        sb = DirichletSeries([1] + b + [0] * (bound - 1 - len(b)))
        sc = DirichletSeries([1] + c + [0] * (bound - 1 - len(c)))
        assert sa * sb == sb * sa
        assert (sa * sb) * sc == sa * (sb * sc)

    def test_mobius(self):
        mu = invert(series_zeta(6))
        assert mu.integer_coefficients() == [1, -1, -1, 0, -1, 1]

    def test_invert_r_hand_value(self):
        assert series_R(6).inverse().coefficient(4) == -2

    @given(int_seqs)
    def test_inverse_is_an_involution(self, tail):
        bound = 21
        a = DirichletSeries([1] + tail + [0] * (bound - 1 - len(tail)))
        assert a.inverse().inverse() == a
        assert a * a.inverse() == DirichletSeries.identity(bound)

    def test_inverse_requires_unit(self):
        with pytest.raises(ZeroDivisionError):
            DirichletSeries([0, 1, 1]).inverse()

    def test_integer_extraction_guards(self):
        with pytest.raises(ValueError):
            DirichletSeries([Fraction(1, 2), 1]).integer_coefficients()


class TestNamedSeries:
    def test_c_and_s_values(self):
        assert series_C(6).coefficient(5) == 16
        assert series_S(6).coefficient(5) == 4
        assert series_S(6).coefficient(6) == 8

    def test_ribbon_counts_match_published_values(self):
        assert series_R(33).integer_coefficients() == RIBBON_COUNTS

    def test_eighteenth_term(self):
        assert series_R(18).integer_coefficients()[17] == 65770

    def test_decomposed_route_agrees(self):
        assert series_R_decomposed(33) == series_R(33)

    def test_asymmetric_lexmin_small_values(self):
        lx = series_Lcross(6).integer_coefficients()
        assert lx[:4] == [0, 0, 1, 2]
        # size 4: (1,3) and (1,1,2)
        assert lx[3] == 2

    def test_r1_vanishes_at_one_and_two(self):
        c = series_C(6)
        r1 = series_Lcross(6) * c.inverse()
        assert r1.coefficient(1) == 0
        assert r1.coefficient(2) == 0

    def test_irreducible_counts_match_published_values(self):
        assert series_P(33).integer_coefficients() == IRREDUCIBLE_COUNTS

    def test_p_splits_into_symmetric_and_asymmetric(self):
        p = series_P(33)
        assert p == series_Pstar(33) + series_Pcross(33)

    def test_asymmetric_irreducibles_of_size_4(self):
        assert series_Pcross(6).integer_coefficients()[3] == 2

    def test_two_reducible_normal_forms_at_primes(self):
        p = series_P(33).integer_coefficients()
        r = series_R(33).integer_coefficients()
        for n in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert p[n - 1] == r[n - 1] - 2

    def test_difference_table(self):
        lexmin = series_lexmin(33).integer_coefficients()
        r = series_R(33).integer_coefficients()
        for n in range(1, 34):
            assert lexmin[n - 1] - r[n - 1] == DIFFERENCE_TABLE.get(n, 0)

    @pytest.mark.parametrize("make", [
        series_zeta, series_C, series_S, series_R, series_Lcross, series_lexmin,
        series_P, series_Pstar, series_Pcross, series_R_refined])
    def test_bound_zero_is_refused(self, make):
        with pytest.raises(ValueError, match="a_1"):
            make(0)

    def test_counts_are_nonnegative_integers(self):
        for make in (series_R, series_P, series_Pstar, series_Pcross, series_Lcross):
            assert all(v >= 0 for v in make(33).integer_coefficients())


class TestRefinedSeries:
    def test_specializations(self):
        assert series_R_refined(33, 1) == series_R(33)
        assert series_R_refined(33, 0) == series_S(33)
        assert series_R_refined(33, 2) == series_C(33)

    def test_other_weights_stay_integral(self):
        for z in (-2, 3, 5):
            series_R_refined(20, z).integer_coefficients()


def padded(head, tail, bound):
    return DirichletSeries([head] + tail + [0] * (bound - 1 - len(tail)))


class TestExactSolve:
    @given(big_seqs, st.sampled_from([1, -1, 2]), int_seqs)
    def test_division_undoes_multiplication(self, a_tail, lead, b_tail):
        bound = 30
        a = padded(7, a_tail, bound)
        b = padded(lead, b_tail, bound)
        assert (a * b) / b == a

    @given(big_seqs, int_seqs, st.integers(min_value=1, max_value=30))
    def test_odd_remainder_raises(self, a_tail, b_tail, n):
        bound = 30
        b = padded(2, b_tail, bound)
        bump = DirichletSeries([int(k == n) for k in range(1, bound + 1)])
        with pytest.raises(ValueError, match=f"a_{n} "):
            (padded(-3, a_tail, bound) * b + bump) / b

    def test_inverse_raises_when_not_integral(self):
        with pytest.raises(ValueError):
            DirichletSeries([2, 1, 0]).inverse()

    def test_constructor_rejects_non_integral_values(self):
        with pytest.raises(ValueError):
            DirichletSeries([1, Fraction(3, 2)])
        assert DirichletSeries([Fraction(4, 2), 1.0]).coeffs == (2, 1)


class TestAgainstFractionFormulas:
    """Every count variant and refinement equals the formulas over Fraction
    (tests/helpers.py) at each bound of BOUNDS."""

    BOUNDS = [*range(1, 251), 400]

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_count_variants_at_every_bound(self, variant):
        expected = rational_variant(variant, self.BOUNDS[-1])
        for bound in self.BOUNDS:
            assert VARIANTS[variant](bound) == expected[:bound], bound

    @pytest.mark.parametrize("z", [-2, 0, 1, 2, 3, 5])
    def test_refined_series(self, z):
        expected = rational_R_refined(self.BOUNDS[-1], z)
        for bound in self.BOUNDS:
            assert series_R_refined(bound, z).integer_coefficients() == expected[:bound], bound
