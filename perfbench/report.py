"""Collect benchmark runs, print every metric, and compare two result sets.

    python3 perfbench/report.py collect OUT_DIR [--seeds 1-10] [--trace 0|1]
    python3 perfbench/report.py show RESULTS_DIR [BASE_DIR]

``collect`` runs run.py once per workload of BENCHMARK.json and seed, with
its run_seconds, and keeps each run's record as
``OUT_DIR/<workload>-t<trace>-s<seed>.json``.

``show`` prints, for each workload and metric, the unit, the median and
quartiles over the runs and their spread (quartile distance over the
median), next to the metric's bound.  Given BASE_DIR it prints the base
median and the change too.  A change worse than the bound is a REGRESSION.
When either side's spread exceeds the bound the metric is "unresolved"
instead.  Per-layer metrics have no bound and get the change only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args: argparse.Namespace) -> int:
    spec = load_spec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        for seed in seeds(args.seeds):
            record = out / f"{name}-t{args.trace}-s{seed}.json"
            argv = [*spec["command"], "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                    "--record", str(record)]
            proc = subprocess.run([sys.executable, *argv[1:]], cwd=ROOT,
                                  capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{name} seed {seed}: exit {proc.returncode} {last[0][:100]}", flush=True)
            status = status or proc.returncode
    return status


def summarize(directory: Path) -> dict[tuple[str, str], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values over the runs."""
    out: dict[tuple[str, str], dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        env = record["environment"]
        trace = "per-layer" if record["traced"] else "end-to-end"
        metrics = out.setdefault((env["workload"], trace), {})
        for name, m in record["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        metrics.setdefault("failed_frac", []).append(record["failed_frac"])
    return out


def stats(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def show(args: argparse.Namespace) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "1"
    new = summarize(Path(args.results))
    base = summarize(Path(args.base)) if args.base else {}
    for key in sorted(new):
        workload, kind = key
        runs = len(next(iter(new[key].values())))
        print(f"\n{workload} ({kind}, {runs} runs)")
        print(f"  {'metric':34} {'unit':6} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}" + ("  base median   change  verdict" if base else ""))
        for name, values in new[key].items():
            med, q1, q3, spread = stats(values)
            spec_m = bounds.get(name)
            bound = spec_m["bound"] if spec_m else None
            line = (f"  {name:34} {units.get(name, '?'):6} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                    f"{100 * spread:6.1f}% " + (f"{100 * bound:5.0f}%" if bound else "     -"))
            if key in base and name in base[key]:
                bmed, _, _, bspread = stats(base[key][name])
                change = (med - bmed) / bmed if bmed else 0.0
                verdict = ""
                if bound is not None:
                    worse = change if spec_m["better"] == "lower" else -change
                    if max(spread, bspread) > bound:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "REGRESSION"
                    elif worse < -bound:
                        verdict = "improved"
                    else:
                        verdict = "within bound"
                line += f" {bmed:12.5g} {100 * change:+7.1f}%  {verdict}"
            print(line)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run every workload for several seeds")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=collect)
    p = sub.add_parser("show", help="print the metrics of a result set, or compare two")
    p.add_argument("results")
    p.add_argument("base", nargs="?")
    p.set_defaults(func=show)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
