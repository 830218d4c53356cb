"""End-to-end benchmark of the ribbon-schur CLI, one fresh process per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record PATH]

Run from anywhere inside a checkout; the program is taken from ``src/`` of
the checkout (``PYTHONPATH=src``, nothing installed) and every file the run
writes goes under ``.perfbench-work/``.  The load is a closed loop with one
client: the next job starts when the previous one has exited.  A round runs
every job of the workload once, in the seeded order; rounds repeat while the
next one still fits in ``--seconds``, and at least two run.  A
``--help`` process that does no work runs after every SETUP_EVERY jobs, so
that the set-up samples spread over the whole run.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` every round is traced: each job runs through
``shim.py``, at least one round runs, and the last line carries the
per-layer metrics.  Every job's output is checked in both modes.  A summary goes to stderr; see
README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
JOB_TIMEOUT_S = 60
# jobs still running this long after the start are killed, so that a run
# ends within 180 s even when the program hangs
RUN_LIMIT_S = 150
SETUP_EVERY = 2  # jobs between two set-up samples, in untraced runs
# an untraced run makes at least MIN_ROUNDS rounds, and the tail percentile
# is the one with TAIL_BEYOND jobs beyond it in MIN_ROUNDS rounds
MIN_ROUNDS = 2
TAIL_BEYOND = 10
STARTED = time.monotonic()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("RIBBON_SCHUR_CACHE_DIR", None)
    return env


class Launcher:
    """Runs jobs to completion through launcher.py; stdout and stderr go through files."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.out = WORK / f"job-{os.getpid()}.out"
        self.err = WORK / f"job-{os.getpid()}.err"

    def spawn(self, argv: list[str]) -> tuple[int, bytes, bytes, bool, float, int, float]:
        """Exit code, stdout, stderr, whether it timed out, wall seconds, peak
        RSS in KiB and CPU seconds; the last two cover reaped pool workers."""
        timeout = min(JOB_TIMEOUT_S, STARTED + RUN_LIMIT_S - time.monotonic())
        self.proc.stdin.write(json.dumps([argv, str(self.out), str(self.err), timeout]) + "\n")
        self.proc.stdin.flush()
        code, timed_out, wall, rss_kb, cpu = json.loads(self.proc.stdout.readline())
        return code, self.out.read_bytes(), self.err.read_bytes(), timed_out, wall, rss_kb, cpu

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)


def job_argv(job: workloads.Job, spans: Path | None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(HERE / "shim.py"), str(spans),
                "lib" if job.lib else "cli", *job.argv]
    if job.lib:
        return [sys.executable, str(HERE / "libjob.py"), *job.argv]
    return [sys.executable, "-m", "ribbon_schur.cli", *job.argv]


def run_job(job: workloads.Job, launcher: Launcher, spans: Path | None) -> check.Result:
    """One job, with what its cache directory holds right after it and its spans."""
    r = check.Result(job, *launcher.spawn(job_argv(job, spans)))
    if "cache_dir" in job.expect:
        cache_dir = ROOT / job.expect["cache_dir"]
        r.cache_files = sorted(p.name for p in cache_dir.iterdir()) if cache_dir.is_dir() else []
    if spans is not None and spans.exists():
        r.spans = json.loads(spans.read_text())
        spans.unlink()
    return r


class Setup:
    """Wall times of CLI processes that do no work, and how many of them failed."""

    ARGV = [sys.executable, "-m", "ribbon_schur.cli", "--help"]

    def __init__(self) -> None:
        self.times: list[float] = []
        self.failed = 0

    def sample(self, launcher: Launcher) -> None:
        code, _, err, timed_out, wall, _, _ = launcher.spawn(self.ARGV)
        self.failed += code != 0 or timed_out or b"Traceback" in err
        self.times.append(wall)


def run_round(w: workloads.Workload, launcher: Launcher, traced: bool,
              setup: Setup) -> tuple[float, list]:
    """The round's wall time, the jobs' spawn-to-reply times back to back
    (set-up samples and checks excluded), and the results."""
    shutil.rmtree(ROOT / workloads.CACHE_ROOT, ignore_errors=True)
    spans = WORK / f"spans-{os.getpid()}.json" if traced else None
    results, wall = [], 0.0
    for i, job in enumerate(w.jobs):
        if not traced and i % SETUP_EVERY == 0:
            setup.sample(launcher)
        start = time.perf_counter()
        r = run_job(job, launcher, spans)
        wall += time.perf_counter() - start
        results.append(r)
    return wall, results


def reference_for(w: workloads.Workload, launcher: Launcher) -> check.Reference:
    keys = ("bound", "length_poly_of", "refined_of", "oracle_check", "classes_of", "histogram_of")
    # 40 covers the b-file fixtures
    bound = max([40] + [j.expect.get(k, 0) for j in w.jobs for k in keys])
    ref = check.Reference(workloads.reference_sequences(bound), ROOT)
    # histograms of the exhaustive oracle are compared with count-length,
    # the length-polynomial path, run here before any timing
    for n in sorted({j.expect["histogram_of"] for j in w.jobs if "histogram_of" in j.expect}):
        code, out, *_ = launcher.spawn([sys.executable, "-m", "ribbon_schur.cli",
                                        "count-length", str(n), "--json"])
        if code == 0:
            ref.histograms[n] = json.loads(out)["result"]["coefficients"]
    return ref


def tail(latencies: list[float], per_round: int) -> tuple[float, float]:
    """The latency and the percentile that has TAIL_BEYOND jobs beyond it in
    MIN_ROUNDS rounds; more rounds keep the percentile, not the count."""
    share = TAIL_BEYOND / (MIN_ROUNDS * per_round)
    ordered = sorted(latencies)
    beyond = round(len(ordered) * share)
    return ordered[len(ordered) - beyond - 1], 100.0 * (1 - share)


def end_to_end(setup_s: float, rounds: list) -> dict[str, float]:
    walls = [wall for wall, _ in rounds]
    jobs = [r for _, results in rounds for r in results]
    latencies = [r.wall for r in jobs]
    tail_s, _ = tail(latencies, len(rounds[0][1]))
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mb": max(r.rss_kb for r in jobs) / 1024,
    }


EXHAUSTIVE_SPANS = ("oracle.brute_force_classes", "oracle.brute_force_length_histogram")


def job_trace(r: check.Result) -> Counter:
    """One traced job, flattened: ``layer:<layer>`` and ``self:<name>`` self
    seconds, ``calls:<leaf>``, the shim's exact counts by metric name,
    ``root`` (the cli.main or libjob.run span), ``exhaustive`` (outermost
    exhaustive-oracle spans), ``startup`` (job wall minus root and minus
    the shim's calibration) and ``overhead`` (the shim's estimate of its
    own cost)."""
    d = r.spans
    spans = d["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    t = Counter(d["counts"])
    for i, (name, start, end, parent, leaf_s) in enumerate(spans):
        own = end - start - child[i] - leaf_s
        t["layer:" + name.split(".")[0]] += own
        t["self:" + name] += own
        if name in EXHAUSTIVE_SPANS and (parent < 0 or spans[parent][0] not in EXHAUSTIVE_SPANS):
            t["exhaustive"] += end - start
    for name, (calls, seconds) in d["leaf"].items():
        t["layer:" + name.split(".")[0]] += seconds
        t["self:" + name] += seconds
        t["calls:" + name] += calls
    t["layer:trace"] += d["trace_s"]
    t["self:trace"] += d["trace_s"]
    t["root"] = spans[0][2] - spans[0][1]
    t["startup"] = r.wall - t["root"] - d["calibrate_s"]
    t["overhead"] = d["overhead_s"]
    return t


# per-layer metric -> key of job_trace, summed over a traced round
PER_LAYER_KEYS = {
    "compositions.parse_s": "self:compositions.parse_composition",
    "compositions.parts_parsed": "compositions.parts_parsed",
    "factorization.busy_s": "layer:factorization",
    "factorization.calls": "factorization.calls",
    "factorization.input_parts": "factorization.input_parts",
    "factorization.factors_out": "factorization.factors_out",
    "dirichlet.busy_s": "layer:dirichlet",
    "dirichlet.convolutions": "dirichlet.convolutions",
    "dirichlet.conv_terms": "dirichlet.conv_terms",
    "lengthpolys.busy_s": "layer:lengthpolys",
    "lengthpolys.mul_s": "self:lengthpolys.__mul__",
    "lengthpolys.mul_calls": "calls:lengthpolys.__mul__",
    "lengthpolys.mul_coeff_products": "lengthpolys.mul_coeff_products",
    "oracle.fingerprint_s": "self:oracle.h_fingerprint",
    "oracle.fingerprint_calls": "calls:oracle.h_fingerprint",
    "oracle.coarsenings": "oracle.coarsenings",
    "oracle.cross_validate_self_s": "self:oracle.cross_validate",
    "oracle.exhaustive_s": "exhaustive",
    "oracle.compositions_enumerated": "oracle.compositions_enumerated",
    "seqcache.load_s": "self:seqcache.load",
    "seqcache.store_s": "self:seqcache.store",
    "seqcache.hits": "seqcache.hits",
    "seqcache.misses": "seqcache.misses",
    "seqcache.bytes_written": "seqcache.bytes_written",
    "bfile.busy_s": "layer:bfile",
    "cli.self_s": "layer:cli",
    "cli.output_bytes": "output_bytes",
    "process.startup_s": "startup",
    "process.cpu_s": "cpu",
    "trace.overhead_s": "overhead",
}


def per_layer(traced_rounds: list) -> dict[str, float]:
    """Medians over the traced rounds of each round's totals."""
    totals = []
    for _, results in traced_rounds:
        t: Counter = Counter()
        for r in results:
            if r.spans is not None:  # a killed job writes none
                t.update(job_trace(r))
            t["cpu"] += r.cpu
            if not r.job.lib:
                t["output_bytes"] += len(r.stdout)
        totals.append(t)
    return {name: statistics.median(t[key] for t in totals) for name, key in PER_LAYER_KEYS.items()}


def by_label(results: list) -> dict[str, list]:
    out: dict[str, list] = {}
    for r in results:
        out.setdefault(r.job.label, []).append(r)
    return out


def breakdown(traced_rounds: list) -> list[str]:
    """Mean wall, in-process time and largest self times of each traced job class."""
    lines = []
    traced = [r for _, rs in traced_rounds for r in rs if r.spans is not None]
    for label, results in sorted(by_label(traced).items()):
        t = Counter()
        for r in results:
            t.update(job_trace(r))
        k, wall = len(results), sum(r.wall for r in results) / len(results)
        top = Counter({name[5:]: v for name, v in t.items() if name.startswith("self:")})
        top["startup"] = t["startup"]
        shares = ", ".join(f"{name} {v / k:.3f}s ({100 * v / k / wall:.0f}%)"
                           for name, v in top.most_common(3))
        lines.append(f"  {label}: {k} x {wall:.3f}s, in-process {t['root'] / k:.3f}s; {shares}")
    return lines


def environment(w: workloads.Workload) -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit, "seed": w.seed,
            "workload": w.name, "inputs_sha256": w.inputs_hash(), "jobs_per_round": len(w.jobs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full run record as JSON here")
    args = parser.parse_args()
    if not (ROOT / "src" / "ribbon_schur" / "cli.py").is_file():
        print(f"error: no ribbon_schur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    w = workloads.build(args.workload, args.seed)
    rounds = []
    setup = Setup()
    launcher = Launcher(child_env())
    try:
        ref = reference_for(w, launcher)
        start = time.perf_counter()
        while True:
            rounds.append(run_round(w, launcher, bool(args.trace), setup))
            round_s = (time.perf_counter() - start) / len(rounds)
            enough = len(rounds) >= (1 if args.trace else MIN_ROUNDS)
            if enough and time.perf_counter() - start + round_s > args.seconds:
                break
    finally:
        launcher.close()

    failures = Counter()
    examples = []
    attempted = failed = 0
    for _, results in rounds:
        for r in results:
            attempted += 1
            found = check.problems(r, results, ref)
            if found:
                failed += 1
                failures.update(found)
                examples.append(f"  job {r.job.id} [{r.job.label}]: {found}")
    if args.trace:
        metrics, kind = per_layer(rounds), "per_layer"
    else:
        metrics, kind = end_to_end(statistics.median(setup.times), rounds), "end_to_end"
    # names and units as BENCHMARK.json declares them
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    jobs = [r for _, results in rounds for r in results]
    _, tail_pct = tail([r.wall for r in jobs], len(w.jobs))
    record = {
        "environment": environment(w),
        "traced": bool(args.trace), "rounds": len(rounds),
        "round_walls": [wall for wall, _ in rounds],
        "round_latencies": [[r.wall for r in results] for _, results in rounds],
        "setup_samples": setup.times,
        "tail_percentile": tail_pct, "latency_samples": len(jobs),
        "job_classes": {label: [len(v), statistics.median(r.wall for r in v)]
                        for label, v in sorted(by_label(jobs).items())},
        "failed_frac": failed / attempted, "failures": dict(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    env_rec = record["environment"]
    print(f"{w.name} seed {w.seed}: inputs {env_rec['inputs_sha256'][:16]}, "
          f"{len(w.jobs)} jobs per round, {len(rounds)} {'traced' if args.trace else 'untraced'} "
          f"rounds, tail = p{tail_pct:.0f} of {len(jobs)} jobs", file=sys.stderr)
    print(f"failed {failed}/{attempted} ({dict(failures) or 'none'}); "
          f"failed --help runs: {setup.failed} of {len(setup.times)}", file=sys.stderr)
    for line in examples[:10]:
        print(line, file=sys.stderr)
    for k in units:
        print(f"  {k} = {metrics[k]:.6g} {units[k]}", file=sys.stderr)
    if args.trace:
        print("traced job classes (mean wall; largest self times):", file=sys.stderr)
        for line in breakdown(rounds):
            print(line, file=sys.stderr)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and setup.failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
