"""Checks every job's output against the answer derived in workloads.py.

A job fails for any of four reasons, counted separately: an unexpected exit
code, a ``Traceback`` on stderr, a timeout, or a wrong answer.  Checks that
compare two jobs (a warm cache run against the cold one, refined rows
against the unrefined polynomial) look at the other job of the same round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import Job

@dataclass
class Result:
    job: Job
    exit: int
    stdout: bytes
    stderr: bytes
    timed_out: bool
    wall: float  # spawn to exit, seconds
    rss_kb: int  # peak RSS of the process and its reaped children
    cpu: float  # user + system seconds, reaped children included
    spans: dict | None = None
    cache_files: list[str] | None = None  # the job's --cache-dir right after it exited


@dataclass
class Reference:
    """Independently derived answers that several jobs share."""

    sequences: dict[str, list[int]]
    root: Path  # checkout root, for cache directories and fixtures
    histograms: dict[int, list[int]] = field(default_factory=dict)


class Wrong(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _result(r: Result) -> dict:
    payload = json.loads(r.stdout)
    return payload["result"] if isinstance(payload, dict) and "result" in payload else payload


def _by_key(round_results: list[Result], key: str, value) -> list[Result]:
    return [o for o in round_results if o.job.expect.get(key) == value]


def _check_answer(r: Result, round_results: list[Result], ref: Reference) -> int | None:
    """Raise Wrong on a wrong answer; return the exit code the answer implies."""
    e = r.job.expect
    a = ref.sequences["all"]
    if "factors" in e:
        _expect(_result(r)["factors"] == e["factors"], "factor list differs")
    if "normal_form" in e:
        _expect(_result(r)["normal_form"] == e["normal_form"], "normal form differs")
    if "equivalent" in e:
        res = _result(r)
        _expect(res["equivalent"] is e["equivalent"], f"equivalent is {res['equivalent']}")
        forms = [res["normal_form_alpha"], res["normal_form_beta"]]
        if "normal_forms" in e:
            _expect(forms == e["normal_forms"], "normal forms differ")
        if "same_class_as" in e:
            x = tuple(e["same_class_as"])
            _expect(forms[0] == forms[1], "normal forms of x and rev(x) differ")
            _expect(workloads.fingerprint(tuple(forms[0])) == workloads.fingerprint(x),
                    "normal form has another h fingerprint")
    if "length_poly_of" in e:
        n, coeffs = e["length_poly_of"], _result(r)["coefficients"]
        _expect(len(coeffs) == n + 1 and min(coeffs) >= 0, "bad coefficient list")
        _expect(sum(coeffs) == a[n - 1], f"coefficients sum to {sum(coeffs)}, a({n}) = {a[n - 1]}")
        _expect(coeffs[:3] == [0, 1, n // 2] and coeffs[n] == 1, "wrong end coefficients")
    if "refined_of" in e:
        n = e["refined_of"]
        rows = _result(r)["coefficients_by_asymmetric_factors"]
        total = [sum(col) for col in zip(*rows.values())]
        _expect(sum(total) == a[n - 1], "refined rows do not sum to a(n)")
        _expect(rows["0"] == workloads.symmetric_by_length(n), "z^0 row is not S_n(x)")
        for other in _by_key(round_results, "length_poly_of", n):
            _expect(total == _result(other)["coefficients"], "rows do not sum to count-length n")
    if "sequence" in e:
        lines = r.stdout.decode().splitlines()
        want = ref.sequences[e["sequence"]][: e["bound"]]
        _expect(lines == [f"{n} {v}" for n, v in enumerate(want, start=1)], "sequence differs")
        _expect(bool(r.cache_files), "nothing was stored in the cache")
        if e["warm"]:
            cold = [o for o in _by_key(round_results, "cache_dir", e["cache_dir"])
                    if not o.job.expect["warm"]]
            _expect(all(o.stdout == r.stdout for o in cold), "warm output differs from cold")
    if "bfile" in e:
        text = (ref.root / e["bfile"]).read_text(encoding="ascii")
        entries = [tuple(map(int, line.split())) for line in text.splitlines()
                   if line.strip() and not line.startswith("#")]
        seq = ref.sequences[e["variant"]]
        diffs = [{"n": n, "file": v, "computed": seq[n - 1]}
                 for n, v in entries if seq[n - 1] != v]
        res = _result(r)
        _expect(res["differences"] == diffs, f"differences {res['differences']} != {diffs}")
        _expect(res["compared"] == len(entries), "compared count differs")
        return 1 if diffs else 0
    if "oracle_check" in e:
        n, res = e["oracle_check"], _result(r)
        lexmin = ref.sequences["lexmin"][n - 1]
        _expect(res["classes"] == a[n - 1] and res["formula_count"] == a[n - 1],
                f"class count {res['classes']} != a({n}) = {a[n - 1]}")
        _expect(res["consistent"] is True and res["fingerprint_identical"] is True
                and res["mismatches"] == [], "oracle reports an inconsistency")
        _expect(res["lexmin_excess"] == lexmin - a[n - 1], "lexmin excess differs")
    if "classes_of" in e:
        n, res = e["classes_of"], _result(r)
        _expect(res == {"classes": a[n - 1], "sizes_sum": 1 << (n - 1)},
                f"got {res}, want {a[n - 1]} classes covering {1 << (n - 1)}")
    if "histogram_of" in e:
        n = e["histogram_of"]
        _expect(_result(r)["coefficients"] == ref.histograms[n], "histogram differs")
    return e["exit"]


def problems(r: Result, round_results: list[Result], ref: Reference) -> dict[str, str]:
    """The failure categories of one job, each with a short reason; empty if it passed."""
    found: dict[str, str] = {}
    if r.timed_out:
        found["timeout"] = f"killed after {r.wall:.1f} s"
    if b"Traceback" in r.stderr:
        found["traceback"] = r.stderr.decode(errors="replace").strip().splitlines()[-1]
    want_exit = r.job.expect["exit"]
    try:
        want_exit = _check_answer(r, round_results, ref)
    except (Wrong, OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        found["wrong"] = f"{type(exc).__name__}: {exc}"[:200]
    if r.exit != want_exit:
        found["exit"] = f"exit {r.exit}, expected {want_exit}"
    return found
