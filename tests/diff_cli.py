"""Compare every benchmark job and the CLI's error paths between a base
revision and the working tree, one fresh process per job.

    python tests/diff_cli.py BASE [--seed N]

Extracts BASE's src/ with `git archive` (as `diff_count_length.py` does).
Under each tree it runs, in a new working directory, every job of the four
workloads of `perfbench/workloads.py` at the seed (default 1) in their run
order, library jobs through `perfbench/libjob.py`, with each workload's
cache directories wiped first; then the CLI argv of `ERRORS`.  It reports
every job whose exit code, stdout or stderr bytes differ, and exits 1 if
any does.  The file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from diff_count_length import ROOT, extract_src

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

# argv that must fail with exit 2 and one error line; paths are relative to
# the working directory, which holds a malformed b-file and no missing.txt
ERRORS = [
    ["equiv", "1,x", "2,1"],
    ["factor", "(1,0)"],
    ["count", "--max-n", "20000"],
    ["count-length", "99999"],
    ["oracle-check", "17"],
    ["oracle-check", "17", "--budget", "16", "--json"],
    ["oeis-compare", "malformed.txt"],
    ["oeis-compare", "missing.txt"],
    ["no-such-command"],
    [],
]


def jobs(seed: int) -> list[tuple[str, list[str]]]:
    """(cache directory to wipe first or "", argv) of every job, in order."""
    out = []
    for name in workloads.WORKLOADS:
        for i, job in enumerate(workloads.build(name, seed).jobs):
            wipe = workloads.CACHE_ROOT if i == 0 else ""
            if job.lib:
                out.append((wipe, [sys.executable, str(ROOT / "perfbench" / "libjob.py"),
                                   *job.argv]))
            else:
                out.append((wipe, [sys.executable, "-m", "ribbon_schur.cli", *job.argv]))
    out += [("", [sys.executable, "-m", "ribbon_schur.cli", *argv]) for argv in ERRORS]
    return out


def run_jobs(src: Path, todo: list[tuple[str, list[str]]]) -> list[tuple]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("RIBBON_SCHUR_CACHE_DIR", None)
    results = []
    with tempfile.TemporaryDirectory(prefix="diff-cli-work-") as work:
        (Path(work) / "fixtures").symlink_to(ROOT / "fixtures")
        (Path(work) / "malformed.txt").write_text("1 1\n2 x\n")
        for wipe, argv in todo:
            if wipe:
                shutil.rmtree(Path(work) / wipe, ignore_errors=True)
            proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=120)
            results.append((proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
                            len(proc.stdout), hashlib.sha256(proc.stderr).hexdigest()))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    todo = jobs(args.seed)
    with tempfile.TemporaryDirectory(prefix="diff-cli-base-") as tmp:
        base = run_jobs(extract_src(args.base, Path(tmp)), todo)
    head = run_jobs(ROOT / "src", todo)
    differ = [argv for (_, argv), b, h in zip(todo, base, head) if b != h]
    for argv in differ:
        print("differs:", " ".join(argv[2:])[:200])
    if differ:
        return 1
    print(f"identical: {len(todo)} jobs ({len(todo) - len(ERRORS)} benchmark jobs at seed"
          f" {args.seed}, {len(ERRORS)} error paths): exit code, stdout and stderr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
