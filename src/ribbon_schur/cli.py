"""Command-line interface.

Exit codes follow a stable contract: 0 for success (and for "equivalent" /
"no differences"), 1 for a semantic negative (not equivalent, differences
found, inconsistent oracle), 2 for usage, parse and budget errors.

With --json every command prints a single object
{"command": ..., "parameters": ..., "result": ...}.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .compositions import (
    Composition,
    CompositionParseError,
    format_composition,
    parse_composition,
)
from .limits import COUNT_BUDGET, DEFAULT_SEMANTIC_BUDGET, BudgetError
from .seqcache import SequenceCache, default_cache_dir

# Each command imports the modules it runs (json included) when it runs, so
# that a process loads only those: `equiv` never loads the counting or oracle
# layers, and `--help` none of them.


def _coefficients(series: str) -> Callable[[int], list[int]]:
    def values(bound: int) -> list[int]:
        from . import dirichlet

        return getattr(dirichlet, series)(bound).integer_coefficients()

    return values


VARIANTS: dict[str, Callable[[int], list[int]]] = {
    "all": _coefficients("series_R"),
    "irreducible": _coefficients("series_P"),
    "symmetric-irreducible": _coefficients("series_Pstar"),
    "asymmetric-irreducible": _coefficients("series_Pcross"),
    "lexmin": _coefficients("series_lexmin"),
    "compositions": _coefficients("series_C"),
    "symmetric": _coefficients("series_S"),
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _composition(text: str) -> Composition:
    try:
        return parse_composition(text)
    except CompositionParseError as exc:
        # keep the token-naming message; argparse prints it verbatim
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cached_sequence(variant: str, bound: int, cache_dir: str | None) -> list[int]:
    if cache_dir:
        cache = SequenceCache(cache_dir)
        values = cache.load(variant, bound)
        if values is not None:
            return values
    values = VARIANTS[variant](bound)
    if cache_dir:
        cache.store(variant, bound, values)
    return values


def count_cap() -> int:
    """The last n at which 2^(n-1), the largest count any command prints,
    fits the process's int-to-str digit limit; never above COUNT_BUDGET."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or limit > COUNT_BUDGET:
        return COUNT_BUDGET
    # 2^(n-1) has at most `limit` digits exactly when 2^(n-1) < 10^limit
    return min(COUNT_BUDGET, (10**limit).bit_length())


def _check_count_cap(what: str, n: int) -> None:
    cap = count_cap()
    if n > cap:
        raise BudgetError(
            f"{what} {n} exceeds the count budget {cap}, the last n whose values all print"
        )


def _emit_json(command: str, parameters: dict, result) -> None:
    import json

    print(json.dumps(
        {"command": command, "parameters": parameters, "result": result},
        sort_keys=True,
    ))


def cmd_count(args: argparse.Namespace) -> int:
    _check_count_cap("--max-n", args.max_n)
    values = _cached_sequence(args.variant, args.max_n, args.cache_dir)
    if args.json:
        _emit_json(
            "count",
            {"max_n": args.max_n, "variant": args.variant},
            {"sequence": values, "variant": args.variant},
        )
    else:
        for n, value in enumerate(values, start=1):
            print(n, value)
    return 0


def cmd_count_length(args: argparse.Namespace) -> int:
    import json

    from .lengthpolys import poly_R_recursive, poly_R_refined

    n = args.n
    _check_count_cap("n", n)
    if args.refined:
        terms = poly_R_refined(n)
        max_k = max((k for (_, k) in terms), default=0)
        rows = {}
        for k in range(max_k + 1):
            coeffs = [0] * (n + 1)
            for (m, kk), c in terms.items():
                if kk == k:
                    coeffs[m] = c
            rows[str(k)] = coeffs
        if args.json:
            _emit_json(
                "count-length",
                {"n": n, "refined": True},
                {"n": n, "coefficients_by_asymmetric_factors": rows},
            )
        else:
            for k, coeffs in rows.items():
                print(f"z^{k} {json.dumps(coeffs)}")
        return 0
    poly = poly_R_recursive(n)
    coeffs = [poly.coefficient(i) for i in range(n + 1)]
    if args.json:
        _emit_json(
            "count-length",
            {"n": n, "refined": False},
            {"n": n, "coefficients": coeffs},
        )
    else:
        print(json.dumps(coeffs))
    return 0


def cmd_factor(args: argparse.Namespace) -> int:
    from .factorization import irreducible_factorization

    factors = irreducible_factorization(args.composition).factors
    if args.json:
        _emit_json(
            "factor",
            {"composition": list(args.composition)},
            {"factors": [list(f) for f in factors]},
        )
    else:
        print(" ∘ ".join(format_composition(f, parens=True) for f in factors))
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    from .factorization import normalize

    normal = normalize(args.composition)
    if args.json:
        _emit_json(
            "normalize",
            {"composition": list(args.composition)},
            {"normal_form": list(normal)},
        )
    else:
        print(format_composition(normal))
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    from .factorization import normalize

    a, b = normalize(args.alpha), normalize(args.beta)
    same = a == b
    if args.json:
        _emit_json(
            "equiv",
            {"alpha": list(args.alpha), "beta": list(args.beta)},
            {
                "equivalent": same,
                "normal_form_alpha": list(a),
                "normal_form_beta": list(b),
            },
        )
    else:
        print("true" if same else "false")
        print(f"normal form of {format_composition(args.alpha)}: {format_composition(a)}")
        print(f"normal form of {format_composition(args.beta)}: {format_composition(b)}")
    return 0 if same else 1


def cmd_class(args: argparse.Namespace) -> int:
    from .factorization import equivalence_class

    members = sorted(equivalence_class(args.composition))
    if args.json:
        _emit_json(
            "class",
            {"composition": list(args.composition)},
            {"members": [list(m) for m in members]},
        )
    else:
        for m in members:
            print(format_composition(m))
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    from .dirichlet import series_lexmin, series_R
    from .oracle import brute_force_classes, cross_validate

    n = args.n
    report = cross_validate(n, budget=args.budget)
    classes = brute_force_classes(n, budget=args.budget, jobs=args.jobs)
    formula = series_R(n).integer_coefficients()[n - 1]
    lexmin = series_lexmin(n).integer_coefficients()[n - 1]
    excess = lexmin - len(classes)
    consistent = (
        report.identical
        and report.normal_form_classes == len(classes)
        and len(classes) == formula
        and sum(size for _, size in classes) == 1 << (n - 1)
    )
    if args.json:
        _emit_json(
            "oracle-check",
            {"n": n, "jobs": args.jobs},
            {
                "classes": len(classes),
                "formula_count": formula,
                "fingerprint_identical": report.identical,
                "lexmin_excess": excess,
                "consistent": consistent,
                "mismatches": report.mismatches,
            },
        )
    else:
        verdict = "identical" if report.identical else "DIFFERENT"
        print(f"{len(classes)} classes; fingerprint partition {verdict}; lexmin excess {excess}")
        for line in report.mismatches:
            print(line)
        if len(classes) != formula:
            print(f"class count {len(classes)} != formula count {formula}")
    return 0 if consistent else 1


def cmd_oeis_compare(args: argparse.Namespace) -> int:
    from .bfile import BFileFormatError, compare_with_sequence, load_bfile

    try:
        bfile = load_bfile(args.bfile)
    except BFileFormatError as exc:
        print(f"error: {args.bfile}: {exc}", file=sys.stderr)
        return 2
    bound = args.max_n or bfile.max_index() or 1
    _check_count_cap("--max-n" if args.max_n else "last b-file index", bound)
    values = _cached_sequence(args.variant, bound, args.cache_dir)
    diff = compare_with_sequence(bfile, values)
    if args.json:
        _emit_json(
            "oeis-compare",
            {"bfile": str(args.bfile), "variant": args.variant, "max_n": bound},
            {
                "compared": diff.compared,
                "differences": [
                    {"n": n, "file": f, "computed": c} for n, f, c in diff.differences
                ],
            },
        )
    else:
        for n, file_value, computed in diff.differences:
            print(f"n={n}: file {file_value}, computed {computed}")
        if diff.clean:
            print(f"no differences ({diff.compared} values compared)")
        else:
            print(f"{len(diff.differences)} differences ({diff.compared} values compared)")
    return 0 if diff.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbon-schur",
        description="Count ribbon Schur functions and decide their equality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON object")

    p = sub.add_parser("count", help="count sequences by size")
    p.add_argument("--max-n", type=_positive_int, required=True)
    p.add_argument("--variant", choices=sorted(VARIANTS), default="all")
    p.add_argument("--cache-dir", default=default_cache_dir())
    add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("count-length", help="count by size and length")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--refined", action="store_true",
                   help="split by number of asymmetric factors")
    add_common(p)
    p.set_defaults(func=cmd_count_length)

    p = sub.add_parser("factor", help="irreducible factorization")
    p.add_argument("composition", type=_composition)
    add_common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("normalize", help="canonical representative")
    p.add_argument("composition", type=_composition)
    add_common(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("equiv", help="decide ribbon Schur equality")
    p.add_argument("alpha", type=_composition)
    p.add_argument("beta", type=_composition)
    add_common(p)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("class", help="all compositions with the same ribbon Schur function")
    p.add_argument("composition", type=_composition)
    add_common(p)
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("oracle-check", help="exhaustive and semantic consistency check")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--jobs", type=_positive_int, default=None)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_SEMANTIC_BUDGET)
    add_common(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("oeis-compare", help="diff a b-file against a computed sequence")
    p.add_argument("bfile")
    p.add_argument("--variant", choices=sorted(VARIANTS), default="all")
    p.add_argument("--max-n", type=_positive_int, default=None)
    p.add_argument("--cache-dir", default=default_cache_dir())
    add_common(p)
    p.set_defaults(func=cmd_oeis_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CompositionParseError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
