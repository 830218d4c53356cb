"""Exact counting and equality testing for ribbon Schur functions.

Two ribbons give the same skew Schur function exactly when their
compositions agree factor by factor up to reversal, in the unique
irreducible factorization of the composition monoid.  This package decides
that equivalence, computes canonical representatives, counts the distinct
functions by size (and by size and length) with exact arithmetic, and
verifies every closed formula against exhaustive and semantic oracles.

Importing the package loads none of its modules.  Each export, and each of
the submodules listed below, is resolved on first access (PEP 562), so a
caller pays only for the modules it uses.
"""

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "compositions": (
        "Composition", "CompositionParseError", "compare_lex", "compose", "concatenate",
        "enumerate_compositions", "format_composition", "lex_min_form",
        "near_concatenate", "odot_power", "parse_composition",
    ),
    "dirichlet": (
        "DirichletSeries", "convolve", "invert", "series_C", "series_Lcross", "series_P",
        "series_Pcross", "series_Pstar", "series_R", "series_R_decomposed",
        "series_R_refined", "series_S", "series_lexmin", "series_zeta",
    ),
    "factorization": (
        "Factorization", "count_asymmetric_factors", "equivalence_class", "equivalent",
        "irreducible_factorization", "is_atom", "is_irreducible", "is_trivial_pair",
        "normalize",
    ),
    "lengthpolys": (
        "InexactDivisionError", "LengthPoly", "poly_C", "poly_Lcross", "poly_R1_recursive",
        "poly_R_recursive", "poly_R_refined", "poly_S", "refined_specialize",
    ),
    "oracle": (
        "BudgetError", "CrossValidationReport", "HFingerprint", "brute_force_classes",
        "brute_force_length_histogram", "cross_validate", "h_fingerprint",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    loaded = {name for name in globals() if not name.startswith("_") or name.endswith("__")}
    return sorted(loaded - {"__getattr__", "__dir__"} | _MODULE_OF.keys() | _EXPORTS.keys())
