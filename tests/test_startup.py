"""What a fresh interpreter loads and exports, and how its CLI fails.

Each test here starts its own interpreter: in the test process every module
of the package is loaded already, so a lazily imported name that is missing
or an exception class that escapes `cli.main` would not show.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ribbon_schur

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC.parent / "fixtures"
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
ENV.pop("RIBBON_SCHUR_CACHE_DIR", None)  # so that `count` computes its sequence

EXPORTS = [
    "BudgetError", "Composition", "CompositionParseError", "CrossValidationReport",
    "DirichletSeries", "Factorization", "HFingerprint", "InexactDivisionError", "LengthPoly",
    "brute_force_classes", "brute_force_length_histogram", "compare_lex", "compose",
    "concatenate", "count_asymmetric_factors", "cross_validate", "enumerate_compositions",
    "equivalence_class", "equivalent", "format_composition", "h_fingerprint",
    "irreducible_factorization", "is_atom", "is_irreducible", "is_trivial_pair",
    "lex_min_form", "near_concatenate", "normalize", "odot_power", "parse_composition",
    "poly_C", "poly_Lcross", "poly_R1_recursive", "poly_R_recursive", "poly_R_refined",
    "poly_S", "refined_specialize", "series_C", "series_Lcross", "series_P", "series_Pcross",
    "series_Pstar", "series_R", "series_R_refined", "series_S", "series_lexmin", "series_zeta",
]
SUBMODULES = ["compositions", "dirichlet", "factorization", "lengthpolys", "oracle"]
MODULE_ATTRIBUTES = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__",
                     "__loader__", "__name__", "__package__", "__path__", "__spec__",
                     "__version__"]
# modules that neither `import ribbon_schur.cli` nor `equiv` may load
HEAVY = {"multiprocessing", "dataclasses", "fractions", "random", "ribbon_schur.oracle",
         "ribbon_schur.dirichlet", "ribbon_schur.lengthpolys", "ribbon_schur.bfile"}


def fresh(code: str) -> str:
    """The last line of what ``code`` prints in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout.splitlines()[-1]


def loaded_by(code: str) -> set[str]:
    """Modules that ``code`` loads beyond those of ``python -c pass`` and of
    the report itself (``json``)."""
    report = "\nimport sys\nprint(json.dumps(sorted(sys.modules)))"
    baseline = set(json.loads(fresh("import json" + report)))
    return set(json.loads(fresh(f"{code}\nimport json{report}"))) - baseline


class TestImportFootprint:
    def test_package_import_loads_no_submodule(self):
        assert loaded_by("import ribbon_schur") == {"ribbon_schur"}

    @pytest.mark.parametrize("code", [
        "import ribbon_schur.cli",
        "from ribbon_schur.cli import main; main(['equiv', '1,2', '2,1'])",
        "from ribbon_schur.cli import main; main(['equiv', '1,2,1,3', '3,1,2,1', '--json'])",
        "from ribbon_schur.cli import main; main(['--help'])",
    ])
    def test_cli_loads_only_what_it_runs(self, code):
        assert not loaded_by(code) & HEAVY

    @pytest.mark.parametrize("argv", [
        ["count", "--max-n", "40"],
        ["oeis-compare", str(FIXTURES / "b120421_historical.txt")],
        ["oracle-check", "8"],
    ])
    def test_counting_commands_load_no_rationals(self, argv):
        loaded = loaded_by(f"from ribbon_schur.cli import main; main({argv!r})")
        assert "ribbon_schur.dirichlet" in loaded
        assert not loaded & {"fractions", "decimal"}

    def test_serial_exhaustive_run_starts_no_pool(self):
        loaded = loaded_by("import ribbon_schur; ribbon_schur.brute_force_classes(12)")
        assert "ribbon_schur.oracle" in loaded
        assert "multiprocessing" not in loaded


class TestExports:
    def test_all_is_unchanged(self):
        assert sorted(ribbon_schur.__all__) == EXPORTS

    def test_dir_and_star_import_in_a_fresh_interpreter(self):
        out = json.loads(fresh(
            "import json, ribbon_schur\n"
            "listed = dir(ribbon_schur)\n"
            "names = {}\n"
            "exec('from ribbon_schur import *', names)\n"
            "print(json.dumps([listed, sorted(set(names) - {'__builtins__'})]))"))
        listed, star = out
        assert listed == sorted(EXPORTS + SUBMODULES + MODULE_ATTRIBUTES)
        assert star == EXPORTS

    @pytest.mark.parametrize("name", EXPORTS)
    def test_each_export_is_its_defining_modules_object(self, name):
        value = getattr(ribbon_schur, name)
        assert value is getattr(sys.modules[value.__module__], name)

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodules_resolve_as_attributes(self, name):
        assert getattr(ribbon_schur, name) is sys.modules[f"ribbon_schur.{name}"]

    def test_limits_are_one_table(self):
        from ribbon_schur import cli, compositions, limits, oracle

        for name in ["BudgetError", "COUNT_BUDGET", "DEFAULT_CLASS_BUDGET",
                     "DEFAULT_HISTOGRAM_BUDGET", "DEFAULT_SEMANTIC_BUDGET", "MAX_EXHAUSTIVE_N"]:
            assert getattr(oracle, name) is getattr(limits, name)
        assert compositions.MAX_PART_DIGITS is limits.MAX_PART_DIGITS
        oracle_check = cli.build_parser().parse_args(["oracle-check", "3"])
        assert oracle_check.budget == limits.DEFAULT_SEMANTIC_BUDGET

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'ribbon_schur'.*'no_such_name'"):
            ribbon_schur.no_such_name  # noqa: B018


class TestFreshErrorPaths:
    @pytest.mark.parametrize("argv", [
        ["equiv", "1,x", "2,1"],
        ["factor", "(1,0)"],
        ["count", "--max-n", "20000"],
        ["count-length", "99999"],
        ["oracle-check", "17"],
        ["oracle-check", "256", "--budget", "300"],
        ["oeis-compare", "{malformed}"],
        ["oeis-compare", "{missing}"],
        ["no-such-command"],
    ])
    def test_exit_2_with_one_error_line(self, tmp_path, argv):
        malformed = tmp_path / "malformed.txt"
        malformed.write_text("1 1\n2 x\n")
        paths = {"malformed": malformed, "missing": tmp_path / "missing.txt"}
        argv = [arg.format(**paths) for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "ribbon_schur.cli", *argv], env=ENV,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert sum("error: " in line for line in proc.stderr.splitlines()) == 1
