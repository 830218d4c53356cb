"""Exact counting and equality testing for ribbon Schur functions.

Two ribbons give the same skew Schur function exactly when their
compositions agree factor by factor up to reversal, in the unique
irreducible factorization of the composition monoid.  This package decides
that equivalence, computes canonical representatives, counts the distinct
functions by size (and by size and length) with exact arithmetic, and
verifies every closed formula against exhaustive and semantic oracles.
"""

from .compositions import (
    Composition,
    CompositionParseError,
    compare_lex,
    compose,
    concatenate,
    enumerate_compositions,
    format_composition,
    lex_min_form,
    near_concatenate,
    odot_power,
    parse_composition,
)
from .dirichlet import (
    DirichletSeries,
    convolve,
    invert,
    series_C,
    series_Lcross,
    series_P,
    series_Pcross,
    series_Pstar,
    series_R,
    series_R_decomposed,
    series_R_refined,
    series_S,
    series_lexmin,
    series_zeta,
)
from .factorization import (
    Factorization,
    count_asymmetric_factors,
    equivalence_class,
    equivalent,
    irreducible_factorization,
    is_atom,
    is_irreducible,
    is_trivial_pair,
    normalize,
)
from .lengthpolys import (
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
from .oracle import (
    BudgetError,
    CrossValidationReport,
    HFingerprint,
    brute_force_classes,
    brute_force_length_histogram,
    cross_validate,
    h_fingerprint,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Composition",
    "CompositionParseError",
    "CrossValidationReport",
    "DirichletSeries",
    "Factorization",
    "HFingerprint",
    "InexactDivisionError",
    "LengthPoly",
    "brute_force_classes",
    "brute_force_length_histogram",
    "compare_lex",
    "compose",
    "concatenate",
    "convolve",
    "count_asymmetric_factors",
    "cross_validate",
    "enumerate_compositions",
    "equivalence_class",
    "equivalent",
    "format_composition",
    "h_fingerprint",
    "invert",
    "irreducible_factorization",
    "is_atom",
    "is_irreducible",
    "is_trivial_pair",
    "lex_min_form",
    "near_concatenate",
    "normalize",
    "odot_power",
    "parse_composition",
    "poly_C",
    "poly_Lcross",
    "poly_R1_recursive",
    "poly_R_recursive",
    "poly_R_refined",
    "poly_S",
    "refined_specialize",
    "series_C",
    "series_Lcross",
    "series_P",
    "series_Pcross",
    "series_Pstar",
    "series_R",
    "series_R_decomposed",
    "series_R_refined",
    "series_S",
    "series_lexmin",
    "series_zeta",
]
