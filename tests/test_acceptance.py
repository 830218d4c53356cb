"""Acceptance suite: every exit criterion, each printing one pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  All comparisons are exact; the only tolerances here are
the stated runtime budgets.
"""

import functools
import io
import os
import time
from contextlib import redirect_stdout
from pathlib import Path

from helpers import poly_R_explicit
from ribbon_schur.cli import main
from ribbon_schur.compositions import compose, enumerate_compositions
from ribbon_schur.dirichlet import (
    series_C,
    series_P,
    series_Pcross,
    series_Pstar,
    series_R,
    series_R_refined,
    series_S,
    series_lexmin,
)
from ribbon_schur.factorization import (
    count_asymmetric_factors,
    irreducible_factorization,
    is_irreducible,
    normalize,
)
from ribbon_schur.lengthpolys import poly_R_recursive
from ribbon_schur.oracle import (
    brute_force_classes,
    brute_force_length_histogram,
    cross_validate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

RIBBON_COUNTS = [
    1, 2, 3, 6, 10, 20, 36, 72, 135, 272, 528, 1052, 2080, 4160,
    8244, 16508, 32896, 65770, 131328, 262632, 524744, 1049600,
    2098176, 4196200, 8390620, 16781312, 33558291, 67116944,
    134225920, 268451240, 536887296, 1073774376, 2147515424,
]

IRREDUCIBLE_COUNTS = [
    0, 0, 1, 2, 8, 10, 34, 56, 126, 234, 526, 972, 2078, 4018,
    8186, 16240, 32894, 65164, 131326, 261544, 524530, 1047490,
    2098174, 4191680, 8390520, 16772994, 33557508, 67100304,
    134225918, 268416590, 536887294, 1073708400, 2147512258,
]

DIFFERENCE_TABLE = {
    9: 1, 12: 4, 15: 12, 16: 4, 18: 22, 20: 24, 21: 56,
    24: 152, 25: 36, 27: 237, 28: 112, 30: 600, 32: 216, 33: 992,
}

SIZE_6_IRREDUCIBLES = {
    (1, 5), (1, 1, 4), (1, 4, 1), (1, 2, 3), (2, 1, 3),
    (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 3, 1), (2, 1, 1, 2), (1, 1, 1, 1, 2),
}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number}: {description}")
                raise
            print(f"PASS  criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "ribbon Schur counts for n=1..33 match the published values in < 1 s")
def test_criterion_1_counting_by_size():
    started = time.perf_counter()
    values = series_R(33).integer_coefficients()
    elapsed = time.perf_counter() - started
    assert values == RIBBON_COUNTS
    assert values[17] == 65770
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


@criterion(2, "irreducible counts for n=1..33 match and split as P = P* + Px in < 1 s")
def test_criterion_2_irreducible_counts():
    started = time.perf_counter()
    p = series_P(33)
    p_symmetric = series_Pstar(33)
    p_asymmetric = series_Pcross(33)
    elapsed = time.perf_counter() - started
    assert p.integer_coefficients() == IRREDUCIBLE_COUNTS
    assert p == p_symmetric + p_asymmetric
    assert elapsed < 1.0, f"took {elapsed:.3f} s"


@criterion(3, "lexicographic-minimal count minus class count reproduces the difference table")
def test_criterion_3_difference_table():
    lexmin = series_lexmin(33).integer_coefficients()
    counts = series_R(33).integer_coefficients()
    observed = {
        n: lexmin[n - 1] - counts[n - 1]
        for n in range(1, 34)
        if lexmin[n - 1] != counts[n - 1]
    }
    assert observed == DIFFERENCE_TABLE


@criterion(4, "exhaustive class counts equal formula counts for all n <= 20")
def test_criterion_4_brute_force_agreement():
    jobs = min(8, os.cpu_count() or 1)
    counts = series_R(20).integer_coefficients()
    started = time.perf_counter()
    for n in range(1, 21):
        classes = brute_force_classes(n, jobs=jobs)
        assert len(classes) == counts[n - 1], n
        assert sum(size for _, size in classes) == 1 << (n - 1), n
    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0, f"took {elapsed:.1f} s"
    print(f"      (n <= 20 exhaustive run: {elapsed:.1f} s with {jobs} workers)")


@criterion(5, "fingerprint partition equals normal-form partition for all n <= 14")
def test_criterion_5_oracle_bidirectionality():
    for n in range(1, 15):
        report = cross_validate(n)
        assert report.identical, report.mismatches
        assert not report.mismatches


@criterion(6, "length counts agree: recursion = chains = brute force (n <= 18), chains to 40")
def test_criterion_6_length_refinement():
    for n in range(1, 19):
        recursive = poly_R_recursive(n)
        assert poly_R_explicit(n) == recursive, n
        assert brute_force_length_histogram(n) == recursive, n
    for n in range(19, 41):
        assert poly_R_explicit(n) == poly_R_recursive(n), n


@criterion(7, "irreducible normalised compositions of sizes 4 and 6 are exactly the known lists")
def test_criterion_7_small_fixtures():
    def normalised_irreducibles(n):
        return {
            tuple(alpha)
            for alpha in enumerate_compositions(n)
            if is_irreducible(alpha) and alpha == alpha.lex_min_form()
        }

    assert normalised_irreducibles(4) == {(1, 3), (1, 1, 2)}
    assert normalised_irreducibles(6) == SIZE_6_IRREDUCIBLES


@criterion(8, "algebraic law suite holds exhaustively at the stated bounds")
def test_criterion_8_algebraic_laws():
    small = [c for n in range(1, 5) for c in enumerate_compositions(n)]
    for a in small:
        for b in small:
            ab = compose(a, b)
            for c in small:
                assert compose(ab, c) == compose(a, compose(b, c))

    medium = [c for n in range(1, 7) for c in enumerate_compositions(n)]
    for a in medium:
        for b in medium:
            ab = compose(a, b)
            assert ab.size == a.size * b.size
            assert ab.length == a.length + a.size * (b.length - 1)
            assert ab.reverse() == compose(a.reverse(), b.reverse())

    for n in range(1, 13):
        for alpha in enumerate_compositions(n):
            if not alpha.is_symmetric():
                factors = irreducible_factorization(alpha).factors
                last_asymmetric = [f for f in factors if not f.is_symmetric()][-1]
                assert (alpha < alpha.reverse()) == (
                    last_asymmetric < last_asymmetric.reverse()
                )

    for n in range(1, 13):
        normal_forms = {normalize(alpha) for alpha in enumerate_compositions(n)}
        class_total = sum(1 << count_asymmetric_factors(rho) for rho in normal_forms)
        assert class_total == 1 << (n - 1)

    assert series_R_refined(33, 0) == series_S(33)
    assert series_R_refined(33, 1) == series_R(33)
    assert series_R_refined(33, 2) == series_C(33)


@criterion(9, "historical A120421 fixture differs only at n=18: file 65768, computed 65770")
def test_criterion_9_oeis_regression():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["oeis-compare", str(FIXTURES / "b120421_historical.txt")])
    assert code == 1
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "n=18: file 65768, computed 65770"
    assert lines[1] == "1 differences (33 values compared)"
