import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbon_schur.bfile import format_bfile
from ribbon_schur.cli import VARIANTS, count_cap, main
from ribbon_schur.dirichlet import series_R
from ribbon_schur.oracle import COUNT_BUDGET

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert set(payload) == {"command", "parameters", "result"}
    return code, payload


class TestCount:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "10")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows == [
            ["1", "1"], ["2", "2"], ["3", "3"], ["4", "6"], ["5", "10"],
            ["6", "20"], ["7", "36"], ["8", "72"], ["9", "135"], ["10", "272"],
        ]

    def test_irreducible_variant(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "6", "--variant", "irreducible")
        assert code == 0
        assert [int(line.split()[1]) for line in out.strip().splitlines()] == [0, 0, 1, 2, 8, 10]

    def test_nonpositive_max_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--max-n", "0")
        assert code == 2
        assert "positive" in err

    def test_budget_is_last_printable_index(self):
        # the largest count, 2^(n-1) for `compositions`, has at most the
        # default 4,300 digits exactly up to the budget
        assert 2 ** (COUNT_BUDGET - 1) < 10 ** 4300 <= 2 ** COUNT_BUDGET

    @pytest.mark.parametrize("extra", [(), ("--json",), ("--variant", "compositions")])
    def test_unprintable_bound_is_refused_before_output(self, capsys, extra):
        max_n = str(COUNT_BUDGET + 1)
        code, out, err = run(capsys, "count", "--max-n", max_n, "--cache-dir", "", *extra)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and max_n in err

    def test_cap_follows_the_digit_limit(self):
        old = sys.get_int_max_str_digits()
        try:
            for limit, cap in [(0, COUNT_BUDGET), (640, 2127), (4300, COUNT_BUDGET),
                               (10**6, COUNT_BUDGET)]:
                sys.set_int_max_str_digits(limit)
                assert count_cap() == cap, limit
        finally:
            sys.set_int_max_str_digits(old)

    def test_lowered_digit_limit_is_refused_before_output(self):
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "ribbon_schur.cli", "count", "--max-n", "2200",
             "--variant", "compositions", "--cache-dir", ""],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: ") and "2127" in proc.stderr

    def test_json_round_trip(self, capsys):
        code, payload = run_json(capsys, "count", "--max-n", "5")
        assert code == 0
        assert payload["result"] == {"sequence": [1, 2, 3, 6, 10], "variant": "all"}
        assert json.loads(json.dumps(payload)) == payload

    def test_lexmin_variant(self, capsys):
        code, out, _ = run(capsys, "count", "--max-n", "9", "--variant", "lexmin")
        assert code == 0
        assert out.strip().splitlines()[-1] == "9 136"


class TestCountLength:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "count-length", "4")
        assert code == 0
        assert json.loads(out) == [0, 1, 2, 2, 1]

    def test_size_two(self, capsys):
        _, out, _ = run(capsys, "count-length", "2")
        assert json.loads(out) == [0, 1, 1]

    def test_refined_marginal(self, capsys):
        code, out, _ = run(capsys, "count-length", "4", "--refined")
        assert code == 0
        rows = {}
        for line in out.strip().splitlines():
            label, coeffs = line.split(" ", 1)
            rows[label] = json.loads(coeffs)
        totals = [sum(col) for col in zip(*rows.values())]
        assert totals == [0, 1, 2, 2, 1]

    def test_refined_json(self, capsys):
        code, payload = run_json(capsys, "count-length", "4", "--refined")
        assert code == 0
        rows = payload["result"]["coefficients_by_asymmetric_factors"]
        assert rows["0"] == [0, 1, 1, 1, 1]
        assert rows["1"] == [0, 0, 1, 1, 0]

    @pytest.mark.parametrize("extra", [(), ("--json",), ("--refined",)])
    def test_unprintable_size_is_refused_before_output(self, capsys, extra):
        code, out, err = run(capsys, "count-length", "20011", *extra)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "20011" in err


class TestCompositionCommands:
    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "2,2")
        assert code == 0
        assert out.strip() == "(1,1) ∘ (2)"

    def test_factor_json(self, capsys):
        code, payload = run_json(capsys, "factor", "1,2,2,2,1")
        assert code == 0
        assert payload["result"]["factors"] == [[4], [1, 1]]

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "3,1")
        assert code == 0
        assert out.strip() == "1,3"

    def test_normalize_parenthesized_argument(self, capsys):
        code, out, _ = run(capsys, "normalize", "(3,1)")
        assert code == 0
        assert out.strip() == "1,3"

    def test_equiv_positive(self, capsys):
        code, out, _ = run(capsys, "equiv", "1,2,1,3,2", "1,3,2,1,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "true"
        assert lines[1].endswith("1,2,1,3,2")
        assert lines[2].endswith("1,2,1,3,2")

    def test_equiv_negative_exit_code(self, capsys):
        code, out, _ = run(capsys, "equiv", "1,3", "2,2")
        assert code == 1
        assert out.startswith("false")

    def test_equiv_json(self, capsys):
        code, payload = run_json(capsys, "equiv", "2,1,1", "1,1,2")
        assert code == 0
        assert payload["result"]["equivalent"] is True
        assert payload["result"]["normal_form_alpha"] == [1, 1, 2]

    def test_class(self, capsys):
        code, out, _ = run(capsys, "class", "1,3")
        assert code == 0
        assert out.strip().splitlines() == ["1,3", "3,1"]

    def test_class_json(self, capsys):
        code, payload = run_json(capsys, "class", "1,2,1,3,2")
        assert code == 0
        assert payload["result"]["members"] == [
            [1, 2, 1, 3, 2], [1, 3, 2, 1, 2], [2, 1, 2, 3, 1], [2, 3, 1, 2, 1],
        ]

    def test_parse_failure_names_token(self, capsys):
        code, _, err = run(capsys, "normalize", "1,0,2")
        assert code == 2
        assert "'0'" in err
        code, _, err = run(capsys, "equiv", "1,2", "2,x")
        assert code == 2
        assert "'x'" in err
        # digits that are not ASCII, and a part over the digit cap
        for text, message in [
            ("１,2", "invalid component '１'"),
            ("²,1", "invalid component '²'"),
            ("1," + "7" * 5000, "'777777777777'... has 5000 digits, more than 1000"),
        ]:
            code, _, err = run(capsys, "normalize", text)
            assert code == 2
            assert message in err


class TestLengthBound:
    def test_huge_equal_parts_normalize_quickly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "normalize", "1000000000000,1000000000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "1000000000000,1000000000000\n")

    def test_hundred_digit_part_equiv_quickly(self, capsys):
        big = str(10**99 + 7)
        start = time.perf_counter()
        code, out, _ = run(capsys, "equiv", f"1,{big},2,3", f"3,2,{big},1")
        assert time.perf_counter() - start < 1
        assert code == 0


class TestOracleCheck:
    def test_consistent_small(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "4")
        assert code == 0
        assert out.strip() == "6 classes; fingerprint partition identical; lexmin excess 0"

    def test_size_nine_reports_excess(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "9")
        assert code == 0
        assert out.strip() == "135 classes; fingerprint partition identical; lexmin excess 1"

    def test_json(self, capsys):
        code, payload = run_json(capsys, "oracle-check", "9")
        assert code == 0
        result = payload["result"]
        assert result["classes"] == 135
        assert result["lexmin_excess"] == 1
        assert result["consistent"] is True

    def test_size_one_consistent(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "1")
        assert code == 0
        assert out.strip() == "1 classes; fingerprint partition identical; lexmin excess 0"

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "oracle-check", "17")
        assert code == 2
        assert "budget" in err


class TestOeisCompare:
    def test_historical_fixture_shows_single_difference(self, capsys):
        code, out, _ = run(
            capsys, "oeis-compare", str(FIXTURES / "b120421_historical.txt")
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == "n=18: file 65768, computed 65770"
        assert lines[1] == "1 differences (33 values compared)"

    def test_historical_fixture_json(self, capsys):
        code, payload = run_json(
            capsys, "oeis-compare", str(FIXTURES / "b120421_historical.txt")
        )
        assert code == 1
        assert payload["result"]["differences"] == [
            {"n": 18, "file": 65768, "computed": 65770}
        ]

    def test_row_sums_fixture_is_clean(self, capsys):
        code, out, _ = run(
            capsys,
            "oeis-compare",
            str(FIXTURES / "b007318_row_sums.txt"),
            "--variant",
            "compositions",
        )
        assert code == 0
        assert "no differences" in out

    def test_self_generated_file_is_clean(self, capsys, tmp_path):
        values = series_R(25).integer_coefficients()
        path = tmp_path / "self.txt"
        path.write_text(format_bfile(list(enumerate(values, start=1))))
        code, out, _ = run(capsys, "oeis-compare", str(path))
        assert code == 0
        assert "no differences (25 values compared)" in out

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 1\n2 2\nbroken\n")
        code, _, err = run(capsys, "oeis-compare", str(path))
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("extra", [(), ("--json",), ("--max-n", "14286")])
    def test_unprintable_bound_is_refused_before_output(self, capsys, tmp_path, extra):
        path = tmp_path / "long.txt"
        path.write_text("1 1\n14300 1\n")
        code, out, err = run(capsys, "oeis-compare", str(path), "--variant", "compositions",
                             "--cache-dir", "", *extra)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "budget" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "oeis-compare", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error" in err


class TestCacheBehaviour:
    def test_cold_and_warm_runs_are_byte_identical(self, capsys, tmp_path):
        args = ("count", "--max-n", "12", "--cache-dir", str(tmp_path))
        code_cold, out_cold, _ = run(capsys, *args)
        assert code_cold == 0
        assert (tmp_path / "all-12.txt").exists()
        code_warm, out_warm, _ = run(capsys, *args)
        assert code_warm == 0
        assert out_warm == out_cold
        code_plain, out_plain, _ = run(capsys, "count", "--max-n", "12")
        assert out_plain == out_cold

    def test_warm_cache_is_actually_read(self, capsys, tmp_path):
        run(capsys, "count", "--max-n", "5", "--cache-dir", str(tmp_path))
        cache_file = tmp_path / "all-5.txt"
        cache_file.write_text(cache_file.read_text().replace("3 3", "3 99"))
        _, out, _ = run(capsys, "count", "--max-n", "5", "--cache-dir", str(tmp_path))
        assert "3 99" in out

    def test_environment_variable_sets_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RIBBON_SCHUR_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "count", "--max-n", "7")
        assert code == 0
        assert (tmp_path / "all-7.txt").exists()

    def test_stale_cache_is_recomputed(self, capsys, tmp_path):
        run(capsys, "count", "--max-n", "5", "--cache-dir", str(tmp_path))
        cache_file = tmp_path / "all-5.txt"
        cache_file.write_text("garbage\n")
        code, out, _ = run(capsys, "count", "--max-n", "5", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip().splitlines()[2] == "3 3"


class TestJsonRoundTripAllCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--max-n", "6"),
            ("count-length", "6"),
            ("count-length", "6", "--refined"),
            ("factor", "2,3,1,2,1"),
            ("normalize", "2,3,1,2,1"),
            ("equiv", "1,3", "3,1"),
            ("class", "2,2"),
            ("oracle-check", "5"),
        ],
    )
    def test_emits_single_valid_json_object(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert payload["command"] == argv[0]
        assert json.loads(json.dumps(payload)) == payload
        assert code == 0


# A fuzzed command line is a subcommand, its arguments (mostly well formed)
# and up to three extra pieces, in any order.  Numbers are small enough to
# answer at once or large enough to be refused before any work; a value for
# --budget, which lifts a refusal, is always small.  Soup has no "-", so that
# it never abbreviates a flag.
SMALL = st.integers(-1, 9).map(str)
NUMBER = SMALL | st.integers(COUNT_BUDGET + 1, 10**40).map(str)
COMPOSITION = st.lists(st.integers(1, 4), min_size=1, max_size=6).map(
    lambda parts: ",".join(map(str, parts)))
SOUP = st.sampled_from(["(2,1,3)", "1,,2", "0", "()", "x", "1.5", "\u0663", "", "9" * 1000,
                        "9" * 1001, str(FIXTURES / "missing.txt")]) | st.text(
    "0123456789,() x", max_size=8)
BFILE = st.sampled_from(sorted(str(p) for p in FIXTURES.glob("*.txt"))) | SOUP
# subcommand -> (one argument, number of arguments)
ARGUMENTS = {
    "count": (st.tuples(st.just("--max-n"), NUMBER).map(list), 1),
    "count-length": (NUMBER.map(lambda a: [a]), 1),
    "factor": ((COMPOSITION | SOUP).map(lambda a: [a]), 1),
    "normalize": ((COMPOSITION | SOUP).map(lambda a: [a]), 1),
    "equiv": ((COMPOSITION | SOUP).map(lambda a: [a]), 2),
    "class": ((COMPOSITION | SOUP).map(lambda a: [a]), 1),
    "oracle-check": (NUMBER.map(lambda a: [a]), 1),
    "oeis-compare": (BFILE.map(lambda a: [a]), 1),
    "nope": (SOUP.map(lambda a: [a]), 1),
}
EXTRA = st.one_of(
    st.sampled_from([["--json"], ["--refined"], ["--help"], ["--max-n"], ["--cache-dir", ""]]),
    st.tuples(st.sampled_from(["--max-n", "--jobs"]), NUMBER).map(list),
    st.tuples(st.just("--budget"), SMALL).map(list),
    st.tuples(st.just("--variant"), st.sampled_from(sorted(VARIANTS) + ["bogus"])).map(list),
    st.sampled_from(sorted(ARGUMENTS)).map(lambda a: [a]),
    (NUMBER | SOUP).map(lambda a: [a]),
)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(ARGUMENTS)))
    argument, count = ARGUMENTS[command]
    pieces = [draw(argument) for _ in range(count)] + draw(st.lists(EXTRA, max_size=3))
    return [command] + sum(draw(st.permutations(pieces)), [])


class TestFuzzedCommandLine:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(command_lines())
    def test_every_argv_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert "error:" in err.getvalue()
