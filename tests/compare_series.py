"""Compare every count variant with the formulas over Fraction, to one bound.

    python tests/compare_series.py [BOUND]

For each of the seven `count` variants (`cli.VARIANTS`) and for
`series_R_refined` at z = -2, 0, 1, 2, 3 and 5, it compares the integer
series at BOUND (default 3000) with `helpers.rational_variant` and
`helpers.rational_R_refined`, reports the first differing coefficient of
each, and exits 1 if any differs.  The file is not named test_*, so pytest
does not collect it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from helpers import rational_R_refined, rational_variant  # noqa: E402
from ribbon_schur.cli import VARIANTS  # noqa: E402
from ribbon_schur.dirichlet import series_R_refined  # noqa: E402


def main() -> int:
    bound = int(sys.argv[1]) if len(sys.argv) > 1 else 3000
    start = time.perf_counter()
    pairs = [(f"--variant {v}", VARIANTS[v](bound), rational_variant(v, bound))
             for v in sorted(VARIANTS)]
    pairs += [(f"series_R_refined z={z}", series_R_refined(bound, z).integer_coefficients(),
               rational_R_refined(bound, z)) for z in (-2, 0, 1, 2, 3, 5)]
    differ = 0
    for name, got, expected in pairs:
        first = next((n for n, (a, b) in enumerate(zip(got, expected), 1) if a != b), None)
        if first is not None or len(got) != len(expected):
            differ += 1
            print(f"differs: {name} at n = {first}")
    seconds = time.perf_counter() - start
    if differ:
        return 1
    print(f"identical: {len(pairs)} series, every coefficient up to {bound} ({seconds:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
