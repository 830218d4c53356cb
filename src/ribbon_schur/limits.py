"""Every limit the package enforces, in one table with no imports.

A request past a limit is refused before any work: the oracles and the
counting commands raise `BudgetError`, and the parser raises its own
`CompositionParseError` for an over-long component.
"""

# sizes n up to which the oracles run unless the caller passes a budget
DEFAULT_CLASS_BUDGET = 20  # brute_force_classes, 2^(n-1) compositions
DEFAULT_HISTOGRAM_BUDGET = 18  # brute_force_length_histogram
DEFAULT_SEMANTIC_BUDGET = 16  # cross_validate and oracle-check --budget
# the exhaustive oracle keys each normal form by its parts as bytes
MAX_EXHAUSTIVE_N = 255
# the last n at which 2^(n-1), the largest count of any variant, has at most
# 4,300 digits, the default limit of Python's int-to-str conversion
COUNT_BUDGET = 14_285
# Longest accepted component, in decimal digits.  Python refuses to convert
# ints of more than 4,300 digits to or from text; no component that factor,
# normalize or class print exceeds the largest input component, so under
# this cap every output prints too.
MAX_PART_DIGITS = 1000


class BudgetError(ValueError):
    """An exhaustive run was requested beyond its configured budget."""
