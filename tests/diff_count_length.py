"""Compare `count-length` output between a base revision and the working tree.

    python tests/diff_count_length.py BASE [--upto M] [--sizes N ...] [--fresh]

Extracts BASE's src/ with `git archive` into a temporary directory, then runs
`count-length n` with and without `--refined` and `--json` for every n up to
M (default 720) and for each extra size, under the base tree and under the
working tree's src/.  It reports the first n whose exit code or output bytes
differ, and exits 1 if any do.

By default each tree runs every job inside one worker process through
`cli.main`; `--fresh` starts one process per job instead.  The file is not
named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMS = ((), ("--json",), ("--refined",), ("--refined", "--json"))

WORKER = """
import hashlib, io, json, sys
from contextlib import redirect_stdout
from ribbon_schur.cli import main
for line in sys.stdin:
    argv = json.loads(line)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue().encode()
    print(json.dumps([code, hashlib.sha256(out).hexdigest(), len(out)]), flush=True)
"""


def extract_src(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest / "src"


def run_jobs(src: Path, jobs: list[list[str]], fresh: bool) -> list[tuple]:
    env = dict(os.environ, PYTHONPATH=str(src))
    if not fresh:
        stdin = "".join(json.dumps(argv) + "\n" for argv in jobs)
        out = subprocess.run([sys.executable, "-c", WORKER], input=stdin, env=env,
                             capture_output=True, text=True, check=True).stdout
        return [tuple(json.loads(line)) for line in out.splitlines()]
    results = []
    for argv in jobs:
        proc = subprocess.run([sys.executable, "-m", "ribbon_schur.cli", *argv],
                              env=env, capture_output=True)
        results.append((proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
                        len(proc.stdout)))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--upto", type=int, default=720)
    parser.add_argument("--sizes", type=int, nargs="*", default=[])
    parser.add_argument("--fresh", action="store_true", help="one process per job")
    args = parser.parse_args()
    sizes = sorted(set(range(1, args.upto + 1)) | set(args.sizes))
    jobs = [["count-length", str(n), *form] for n in sizes for form in FORMS]
    with tempfile.TemporaryDirectory(prefix="count-length-base-") as tmp:
        base = run_jobs(extract_src(args.base, Path(tmp)), jobs, args.fresh)
    head = run_jobs(ROOT / "src", jobs, args.fresh)
    for argv, b, h in zip(jobs, base, head):
        if b != h:
            print(f"first difference: {' '.join(argv)}: base {b}, head {h}")
            return 1
    print(f"identical: {len(jobs)} jobs over {len(sizes)} sizes from {sizes[0]} to {sizes[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
