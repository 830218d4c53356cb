"""One exhaustive-oracle job through the public ribbon_schur API.

    python perfbench/libjob.py classes N JOBS
    python perfbench/libjob.py histogram N

Prints one JSON line: the class count and the sum of the class sizes, or
the length histogram's coefficients.
"""

from __future__ import annotations

import json
import sys

import ribbon_schur


def run(argv: list[str]) -> int:
    kind, n = argv[0], int(argv[1])
    if kind == "classes":
        classes = ribbon_schur.brute_force_classes(n, jobs=int(argv[2]))
        out = {"classes": len(classes), "sizes_sum": sum(size for _, size in classes)}
    elif kind == "histogram":
        poly = ribbon_schur.brute_force_length_histogram(n)
        out = {"coefficients": [poly.coefficient(i) for i in range(n + 1)]}
    else:
        print(f"unknown job kind {kind!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
