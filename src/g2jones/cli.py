"""Command-line interface.

Subcommands:

* ``validate``  -- determinant gate and defining relations of a representation
* ``analyze``   -- h-adic reports for Torelli words
* ``decompose`` -- isotypic decomposition of the degree-0 conjugation module
* ``search``    -- scan normalization exponents for a valid representation
* ``chartable`` -- the S6 character table with orthogonality self-checks

Exit codes: 0 success, 2 mathematical failure (a relation or expected
property does not hold), 3 input/output or schema trouble.  All JSON
output is deterministic: sorted keys, exact rationals rendered as
strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .catalog import builtin_catalog, load_catalog
from .characters import CharacterTable, format_partition
from .errors import (
    Degree0NontrivialError,
    G2JonesError,
    NotTorelliError,
    SchemaError,
    SearchExhaustedError,
    ValuationExceedsOrderError,
)
from .filtration import DEFAULT_ORDER, analyze as analyze_word
from .isotypic import ConjugationModule
from .rep import (
    RepDefinition,
    rep_determinant_sign,
    rep_from_document,
    rep_to_document,
    search_valid_rep,
    validate_representation,
)
from .sp4 import weyl_dim_c2
from .words import parse_word

CACHE_FILENAME = "g2jones-rep.json"

# the one map between case names and signs; "both" means every sign in order
_CASES = {"plus": 1, "minus": -1}
_CASE_CHOICES = (*_CASES, "both")

EXPECTED_MULTIPLICITIES = {
    (6,): 1,
    (4, 2): 1,
    (2, 2, 2): 1,
    (3, 1, 1, 1): 1,
}

WEYL_WEIGHTS = ((0, 0), (0, 1), (2, 0), (0, 2))
EXPECTED_WEYL_DIMS = {(0, 0): 1, (0, 1): 5, (2, 0): 10, (0, 2): 14}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except SearchExhaustedError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        for eta, a, m, reason in exc.failures:
            print(f"  eta={eta:+d} a={a} m={m}: {reason}", file=sys.stderr)
        if exc.tried > len(exc.failures):
            print(f"  ... {exc.tried - len(exc.failures)} more not listed", file=sys.stderr)
        return 2
    except G2JonesError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2jones",
        description="exact computations in the genus-2 twist representation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check determinants and defining relations")
    _add_rep_options(p_validate)
    _add_output_options(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = sub.add_parser("analyze", help="h-adic reports for Torelli words")
    _add_rep_options(p_analyze)
    _add_output_options(p_analyze)
    p_analyze.add_argument("--word", action="append", default=[],
                           help="word expression; repeatable")
    p_analyze.add_argument("--catalog", help="file of word expressions, one per line")
    p_analyze.add_argument("--case", choices=_CASE_CHOICES, default="both",
                           help="sign of u = eps * e^h (default both)")
    p_analyze.add_argument("--order", type=int, default=DEFAULT_ORDER,
                           help=f"series truncation order (default {DEFAULT_ORDER})")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_decompose = sub.add_parser("decompose",
                                 help="isotypic decomposition of the conjugation module")
    _add_rep_options(p_decompose)
    _add_output_options(p_decompose)
    p_decompose.add_argument("--case", choices=_CASE_CHOICES, default="both")
    p_decompose.add_argument("--chartable",
                             help="use a character table from this file instead of computing it")
    p_decompose.set_defaults(func=_cmd_decompose)

    p_search = sub.add_parser("search", help="scan normalization exponents")
    _add_output_options(p_search)
    p_search.add_argument("--eta", choices=_CASE_CHOICES, default="both")
    p_search.add_argument("--max-a", type=int, default=8,
                          help="scan a in [-max_a, 0] (default 8)")
    p_search.add_argument("--max-m", type=int, default=6,
                          help="scan m in [1, max_m] (default 6)")
    p_search.set_defaults(func=_cmd_search)

    p_chartable = sub.add_parser("chartable", help="S6 character table")
    _add_output_options(p_chartable)
    p_chartable.add_argument("--chartable",
                             help="validate a table from this file instead of computing it")
    p_chartable.set_defaults(func=_cmd_chartable)

    return parser


def _add_rep_options(parser) -> None:
    parser.add_argument("--rep", help="representation document (default: cached/searched)")


def _add_output_options(parser) -> None:
    parser.add_argument("--json", action="store_true", help="print the JSON document")
    parser.add_argument("--out", help="also write the JSON document to this path")


def _resolve_rep(args) -> RepDefinition:
    if getattr(args, "rep", None):
        return _load_rep(Path(args.rep))
    cache = Path.cwd() / CACHE_FILENAME
    if cache.exists():
        return _load_rep(cache)
    rep = search_valid_rep()
    _write_atomically(cache, _dumps(rep_to_document(rep)))
    return rep


def _write_atomically(path: Path, text: str) -> None:
    """Write and fsync a sibling temporary file, then rename it over ``path``.

    Readers see the old file or the complete new one, never a partial one,
    and the data is on disk before the name points at it.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_rep(path: Path) -> RepDefinition:
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return rep_from_document(doc)


def _dumps(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _emit(args, document, text: str) -> None:
    if args.out:
        _write_atomically(Path(args.out), _dumps(document))
    if args.json:
        sys.stdout.write(_dumps(document))
    else:
        print(text)


def _norm_dict(rep: RepDefinition):
    return rep.normalization.as_dict() if rep.normalization else None


def _cmd_validate(args) -> int:
    rep = _resolve_rep(args)
    report = validate_representation(rep)
    determinant = report.determinant
    document = {
        "command": "validate",
        "dim": rep.dim,
        "provenance": rep.provenance,
        "normalization": _norm_dict(rep),
        "determinant": determinant,
        "relations": [{"name": c.name, "passed": c.passed} for c in report.checks],
        "passed": report.passed,
    }
    lines = [
        f"representation: dim {rep.dim}, provenance {rep.provenance}",
        f"normalization: {_norm_dict(rep)}",
        f"determinant: {determinant:+d}" if determinant else "determinant: not +/-1",
        f"relations: {len(report.checks)} checked, "
        f"{sum(1 for c in report.checks if c.passed)} passed",
    ]
    for check in report.failures():
        lines.append(f"  FAIL {check.name}")
    lines.append("PASS" if report.passed else "FAIL")
    _emit(args, document, "\n".join(lines))
    return 0 if report.passed else 2


_ANALYZE_ERRORS = {
    NotTorelliError: "NOT_TORELLI",
    Degree0NontrivialError: "DEGREE0_NONTRIVIAL",
    ValuationExceedsOrderError: "VALUATION_EXCEEDS_ORDER",
}


def _cases(choice: str) -> tuple[int, ...]:
    """Signs eps of u = eps * e^h named by a --case or --eta choice."""
    return tuple(_CASES.values()) if choice == "both" else (_CASES[choice],)


def _case_label(eps: int) -> str:
    return next(label for label, sign in _CASES.items() if sign == eps)


def _cmd_analyze(args) -> int:
    if args.order < 2:
        raise SchemaError("--order must be at least 2")
    rep = _resolve_rep(args)
    words = [(text, parse_word(text)) for text in args.word]
    if args.catalog:
        words.extend(load_catalog(args.catalog))
    if not words:
        words = builtin_catalog()
    entries = []
    all_ok = True
    for text, word in words:
        for eps in _cases(args.case):
            try:
                report = analyze_word(rep, word, eps, args.order)
            except tuple(_ANALYZE_ERRORS) as exc:
                code = _ANALYZE_ERRORS[type(exc)]
                entry = {
                    "word": text,
                    "epsilon": eps,
                    "error": code,
                    "message": str(exc),
                }
                if code == "VALUATION_EXCEEDS_ORDER":
                    entry["hint"] = "retry with a larger --order"
                entries.append(entry)
                all_ok = False
                continue
            doc = report.to_document()
            doc["word"] = text
            entries.append(doc)
            clean = (
                report.det_lemma_ok
                and report.trace == 0
                and report.trivial_projection == 0
            )
            all_ok = all_ok and clean
    document = {
        "command": "analyze",
        "order": args.order,
        "normalization": _norm_dict(rep),
        "reports": entries,
        "passed": all_ok,
    }
    lines = [f"analyzed {len(words)} word(s), order {args.order}"]
    for entry in entries:
        label = _case_label(entry["epsilon"])
        if "error" in entry:
            lines.append(f"  {entry['word']} [{label}]: {entry['error']}: {entry['message']}")
            if "hint" in entry:
                lines.append(f"    hint: {entry['hint']}")
        else:
            lines.append(
                f"  {entry['word']} [{label}]: depth {entry['depth']}, "
                f"trace {entry['trace']}, trivial projection {entry['trivial_projection']}, "
                f"determinant identity {'ok' if entry['det_lemma_ok'] else 'FAIL'}"
            )
    lines.append("PASS" if all_ok else "FAIL")
    _emit(args, document, "\n".join(lines))
    return 0 if all_ok else 2


def _character_table(args) -> CharacterTable:
    """The S6 table read from ``--chartable``, or computed when it is not given."""
    if not args.chartable:
        return CharacterTable.build(6)
    with open(args.chartable, "r", encoding="utf-8") as handle:
        return CharacterTable.from_text(handle.read())


def _cmd_decompose(args) -> int:
    rep = _resolve_rep(args)
    table = _character_table(args)
    if args.chartable and not (
        table.check_row_orthogonality() and table.check_column_orthogonality()
    ):
        print("character table fails orthogonality", file=sys.stderr)
        return 2
    cases = {}
    all_ok = True
    for eps in _cases(args.case):
        label = _case_label(eps)
        module = ConjugationModule.from_rep(rep, eps, table)
        mults = module.multiplicities()
        ranks = {
            lam: module.projector_rank(lam) for lam, count in mults.items() if count
        }
        expected_ranks = {
            lam: count * table.dimension(lam)
            for lam, count in EXPECTED_MULTIPLICITIES.items()
        }
        matches = (
            module.order == 720
            and {lam: c for lam, c in mults.items() if c} == EXPECTED_MULTIPLICITIES
            and ranks == expected_ranks
        )
        all_ok = all_ok and matches
        cases[label] = {
            "group_order": module.order,
            "multiplicities": {format_partition(lam): c for lam, c in mults.items()},
            "projector_ranks": {format_partition(lam): r for lam, r in ranks.items()},
            "matches_expected": matches,
        }
    weyl = {f"[{a},{b}]": weyl_dim_c2(a, b) for a, b in WEYL_WEIGHTS}
    weyl_ok = all(
        weyl_dim_c2(a, b) == dim for (a, b), dim in EXPECTED_WEYL_DIMS.items()
    )
    trace_sum = weyl_dim_c2(0, 0) + weyl_dim_c2(2, 0) + weyl_dim_c2(0, 2)
    sum_ok = trace_sum == 25
    all_ok = all_ok and weyl_ok and sum_ok
    document = {
        "command": "decompose",
        "normalization": _norm_dict(rep),
        "cases": cases,
        "expected_multiplicities": {
            format_partition(lam): c for lam, c in EXPECTED_MULTIPLICITIES.items()
        },
        "weyl_dims": weyl,
        "weyl_dim_sum_1_10_14": trace_sum,
        "passed": all_ok,
    }
    lines = []
    for label, data in cases.items():
        nonzero = {k: v for k, v in data["multiplicities"].items() if v}
        lines.append(f"case {label}: group order {data['group_order']}")
        lines.append(f"  multiplicities: {nonzero}")
        lines.append(f"  projector ranks: {data['projector_ranks']}")
        lines.append(f"  matches expected: {data['matches_expected']}")
    lines.append(f"weyl dims: {weyl}; 1 + 10 + 14 = {trace_sum}")
    lines.append("PASS" if all_ok else "FAIL")
    _emit(args, document, "\n".join(lines))
    return 0 if all_ok else 2


def _cmd_search(args) -> int:
    if args.max_a < 0 or args.max_m < 1:
        raise SchemaError("--max-a must be >= 0 and --max-m >= 1")
    rep = search_valid_rep(
        eta_candidates=_cases(args.eta),
        a_values=range(-args.max_a, 1),
        m_values=range(1, args.max_m + 1),
    )
    document = rep_to_document(rep)
    norm = rep.normalization
    text = (
        f"found: eta {norm.eta:+d}, a {norm.a}, m {norm.m}\n"
        f"determinant of each generator: {rep_determinant_sign(rep):+d}"
    )
    _emit(args, document, text)
    return 0


def _cmd_chartable(args) -> int:
    table = _character_table(args)
    rows_ok = table.check_row_orthogonality()
    cols_ok = table.check_column_orthogonality()
    document = {
        "command": "chartable",
        "n": table.n,
        "classes": [
            {"cycle_type": format_partition(mu), "size": size}
            for mu, size in table.classes
        ],
        "rows": {
            format_partition(lam): list(row)
            for lam, row in zip(table.partitions, table.rows)
        },
        "row_orthogonality": rows_ok,
        "column_orthogonality": cols_ok,
        "passed": rows_ok and cols_ok,
    }
    text = table.export_text() + (
        "orthogonality: ok" if rows_ok and cols_ok else "orthogonality: FAIL"
    )
    _emit(args, document, text)
    return 0 if rows_ok and cols_ok else 2


if __name__ == "__main__":
    sys.exit(main())
