import json
import time
from pathlib import Path

import pytest

from ribbon_schur.bfile import format_bfile
from ribbon_schur.cli import main
from ribbon_schur.dirichlet import series_R

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
