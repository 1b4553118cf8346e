"""Command-line interface.

Subcommands: ``identity`` generates one identity and prints it as text, JSON,
or LaTeX, taking its kinds, weight check and builders from the kind table of
``documents``; ``verify`` runs the exact verification suites; ``examples``
checks the built-in gallery; ``tables`` dumps the derivative tables.  Exit
codes: 0 success, 1 a verification or gallery check failed, 2 usage or
domain errors (bad arguments, malformed or non-symmetric polynomials, an
``--out`` file that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache
from typing import Sequence

from .derivative_tables import Triangle, f_table, g_table
from .documents import (
    _KINDS,
    MAX_MZV_DEPTH,
    MAX_TABLE_DEPTH,
    _check_weight,
    _coeff_strings,
    _json_list,
    poly_latex,
    poly_text,
    to_json,
    to_latex,
    to_text,
)
from .examples import check_gallery_identity, gallery, sections
from .suites import DEFAULT_MAX_K, DEFAULT_MAX_N, MAX_K, MAX_N, SUITE_NAMES, run_suites

__all__ = ["MAX_DUMP_DEPTH", "MAX_MZV_DEPTH", "MAX_TABLE_DEPTH", "main"]

# MAX_TABLE_DEPTH and MAX_MZV_DEPTH, the admission limits of ``identity``,
# live with the weight check in ``documents``, so ``from_json`` keeps them too.

#: Largest row that ``tables --depth`` dumps.
MAX_DUMP_DEPTH = 16

#: A decimal integer in ASCII digits with an optional sign; ``int`` alone
#: would also take other scripts' digits and underscores between digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """The integer ``text`` writes, surrounding whitespace ignored.  Range
    checks are left to the caller, so their messages name the limits."""
    if not _INTEGER.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="evenzeta",
        description="Exact weighted sum identities for Bernoulli numbers and even zeta values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    identity = sub.add_parser("identity", help="generate one identity")
    identity.add_argument("--kind", required=True, choices=tuple(_KINDS))
    identity.add_argument("--n", required=True, type=_integer, help="depth (number of indices)")
    identity.add_argument(
        "--m",
        help="comma-separated exponents m1,...,mn (bernoulli and zeta kinds)",
    )
    identity.add_argument(
        "--poly",
        help="weight polynomial in x1..xn (zeta, mzv, and mzsv kinds; symmetric for mzv/mzsv)",
    )
    identity.add_argument("--format", choices=("text", "json", "latex"), default="text")
    identity.add_argument("--out", help="also write the output to this file")
    identity.set_defaults(handler=_cmd_identity)

    verify = sub.add_parser("verify", help="run exact verification suites")
    verify.add_argument("--suite", required=True, choices=(*SUITE_NAMES, "all"))
    verify.add_argument("--max-n", type=_integer, default=DEFAULT_MAX_N, help=f"depth bound, 1..{MAX_N}")
    verify.add_argument("--max-k", type=_integer, default=DEFAULT_MAX_K, help=f"weight bound, 1..{MAX_K}")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", help="also write the report to this file")
    verify.set_defaults(handler=_cmd_verify)

    examples = sub.add_parser("examples", help="check the built-in gallery")
    examples.add_argument("--section", required=True, type=_integer, choices=sections())
    examples.add_argument("--out", help="also write the output to this file")
    examples.set_defaults(handler=_cmd_examples)

    tables = sub.add_parser("tables", help="dump the derivative tables")
    tables.add_argument("--depth", required=True, type=_integer, help=f"largest row, 0..{MAX_DUMP_DEPTH}")
    tables.add_argument("--format", choices=("text", "json", "latex"), default="text")
    tables.add_argument("--out", help="also write the output to this file")
    tables.set_defaults(handler=_cmd_tables)

    return parser


def _emit(text: str, out: str | None) -> None:
    # The file is written first, so an unwritable path prints nothing but
    # the error line.
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def _parse_mvec(raw: str) -> list[int]:
    try:
        return [_integer(part) for part in raw.split(",")]
    except argparse.ArgumentTypeError:
        raise ValueError(f"--m must be comma-separated integers, got {raw!r}") from None


def _cmd_identity(args: argparse.Namespace) -> int:
    mvec = None if args.m is None else _parse_mvec(args.m)
    weight = _check_weight(args.kind, args.n, mvec, args.poly)
    renderer = {"text": to_text, "json": to_json, "latex": to_latex}[args.format]
    _emit(renderer(_KINDS[args.kind].build(weight, args.n)), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = run_suites(names, max_n=args.max_n, max_k=args.max_k)
    ok = all(report.ok for report in reports)
    if args.format == "json":
        text = json.dumps(
            {"suites": [report.as_dict() for report in reports], "ok": ok}, indent=2
        )
    else:
        lines = []
        for report in reports:
            lines.append(report.summary_line())
            if report.first_failure is not None:
                lines.append(f"  first failure: {report.first_failure.label}")
                lines.append(f"    left  = {report.first_failure.lhs}")
                lines.append(f"    right = {report.first_failure.rhs}")
        lines.append(
            "total "
            + f"passed={sum(r.passed for r in reports)} "
            + f"failed={sum(r.failed for r in reports)} "
            + f"skipped={sum(r.skipped for r in reports)}"
        )
        lines.append(f"result: {'PASS' if ok else 'FAIL'}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0 if ok else 1


def _cmd_examples(args: argparse.Namespace) -> int:
    lines = []
    ok = True
    for entry in gallery(args.section):
        result = check_gallery_identity(entry)
        lines.append(f"{'MATCH   ' if result.ok else 'MISMATCH'} {entry.label}")
        if not result.ok:
            ok = False
            lines.append(f"  {result.lhs}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def _table_json(table: Triangle) -> str:
    """The rows of ``table``, each entry its coefficient strings, as
    ``json.dumps(..., indent=2)`` writes them under a top-level key, written
    directly: the strings are "p/q" and need no escaping."""
    rows = [
        _json_list([_json_list([f'"{c}"' for c in _coeff_strings(entry)], "      ") for entry in row], "    ")
        for row in table.rows
    ]
    return _json_list(rows, "  ")


def _cmd_tables(args: argparse.Namespace) -> int:
    if not 0 <= args.depth <= MAX_DUMP_DEPTH:
        raise ValueError(f"--depth must be in 0..{MAX_DUMP_DEPTH}, got {args.depth}")
    fs = f_table(args.depth)
    gs = g_table(args.depth)
    if args.format == "json":
        text = f'{{\n  "depth": {args.depth},\n  "f": {_table_json(fs)},\n  "g": {_table_json(gs)}\n}}'
    else:
        render = poly_latex if args.format == "latex" else poly_text
        lines = []
        for m in range(args.depth + 1):
            for i, entry in enumerate(fs.row(m)):
                lines.append(f"f[{m},{i}] = {render(entry, var='t')}")
            for i, entry in enumerate(gs.row(m), start=1):
                lines.append(f"g[{m},{i}] = {render(entry, var='t')}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
