"""Compare the exhaustive oracle's results between a base revision and the working tree.

    python tests/diff_classes.py BASE [--upto M] [--hist-upto H]

Extracts BASE's src/ with `git archive` into a temporary directory (as
`diff_count_length.py` does), then, in one worker process per tree, hashes
`repr(brute_force_classes(n, jobs=j))` for every n up to M (default 20) and
j = 1, 2 and 3, and `repr(brute_force_length_histogram(n))` for every n up to
H (default 18).  It reports every result whose sha256 differs, and exits 1
if any does.  The file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from diff_count_length import ROOT, extract_src

WORKER = """
import hashlib, json, sys
from ribbon_schur.oracle import brute_force_classes, brute_force_length_histogram
for line in sys.stdin:
    kind, n, jobs = json.loads(line)
    if kind == "classes":
        result = brute_force_classes(n, jobs=jobs)
    else:
        result = brute_force_length_histogram(n)
    print(hashlib.sha256(repr(result).encode()).hexdigest(), flush=True)
"""


def run_jobs(src: Path, jobs: list[tuple]) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    stdin = "".join(json.dumps(job) + "\n" for job in jobs)
    out = subprocess.run([sys.executable, "-c", WORKER], input=stdin, env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.split()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--upto", type=int, default=20)
    parser.add_argument("--hist-upto", type=int, default=18)
    args = parser.parse_args()
    jobs = [("classes", n, j) for n in range(1, args.upto + 1) for j in (1, 2, 3)]
    jobs += [("histogram", n, None) for n in range(1, args.hist_upto + 1)]
    with tempfile.TemporaryDirectory(prefix="classes-base-") as tmp:
        base = run_jobs(extract_src(args.base, Path(tmp)), jobs)
    head = run_jobs(ROOT / "src", jobs)
    differ = [job for job, b, h in zip(jobs, base, head) if b != h]
    for kind, n, j in differ:
        print(f"differs: {kind} n={n}" + (f" jobs={j}" if j else ""))
    if differ or len(base) != len(jobs) or len(head) != len(jobs):
        return 1
    print(f"identical: {len(jobs)} results ({args.upto * 3} class lists,"
          f" {args.hist_upto} histograms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
