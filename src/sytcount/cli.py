"""Command-line surface: single entries, tables, sequences, exact ratio
tables, and the verification suites.

Exit status is 0 on success (including an all-pass verification), 1 when a
verification suite fails, and 2 on usage errors. All counts are printed as
exact decimal strings; output is byte-identical across runs except for the
`elapsed` field of verification reports.

This is the only module that turns values into text: each subcommand builds
its rows or its document and hands them to the one CSV writer or the one
JSON writer below.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Iterable, Sequence

from .counting import DEFAULT_ENUMERATION_CAP, listed_counts, syt_count_hlf
from .gamma import TABLE_METHODS, build_table, gamma_def, gamma_rec
from .sequences import (CLOSED_FORMS, TAU_METHODS, RatioParts, ratio_decomposition,
                        ratio_table, tau)
from .shapes import ColumnShape
from .verify import SUITE_NAMES, run_suite

USAGE_ERROR = 2
REPORT_SCHEMA = 1


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header line and one line per row; a field holding a comma, a quote
    or a newline is quoted, with its quotes doubled."""
    def field(value) -> str:
        text = str(value)
        if any(ch in text for ch in ',"\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    return "\n".join(",".join(map(field, line)) for line in [header, *rows])


def _json(document) -> str:
    return json.dumps(document, indent=2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sytcount",
        description="Exact counting of standard Young tableaux with a "
                    "bounded number of columns.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="totals: tableaux with n cells, at most s columns")
    p_tau.add_argument("--columns", type=int, required=True, metavar="S")
    p_tau.add_argument("--cells", type=int, metavar="N")
    p_tau.add_argument("--max-cells", type=int, metavar="N")
    p_tau.add_argument("--method", choices=TAU_METHODS, default="definition")
    p_tau.add_argument("--format", choices=("csv", "json"), default="csv")
    p_tau.set_defaults(handler=_cmd_tau)

    p_gamma = sub.add_parser("gamma", help="one table entry (n cells, difference i)")
    p_gamma.add_argument("--columns", type=int, required=True, metavar="S")
    p_gamma.add_argument("--cells", type=int, required=True, metavar="N")
    p_gamma.add_argument("--diff", type=int, required=True, metavar="I")
    p_gamma.add_argument("--method", choices=tuple(TABLE_METHODS), default="definition")
    p_gamma.set_defaults(handler=_cmd_gamma)

    p_table = sub.add_parser("table", help="full triangular table up to a cell count")
    p_table.add_argument("--columns", type=int, required=True, metavar="S")
    p_table.add_argument("--max-cells", type=int, required=True, metavar="N")
    p_table.add_argument("--method", choices=tuple(TABLE_METHODS), default="definition")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(handler=_cmd_table)

    p_hook = sub.add_parser("hook", help="count fillings of one shape by hook lengths")
    p_hook.add_argument("--shape", required=True, metavar="COLS",
                        help='comma-separated column lengths, e.g. "4,2,1"')
    p_hook.set_defaults(handler=_cmd_hook)

    p_oracle = sub.add_parser("oracle",
                              help="count fillings of one shape by explicit listing")
    p_oracle.add_argument("--shape", required=True, metavar="COLS")
    p_oracle.add_argument("--oracle-cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                          metavar="CELLS", help="enumeration safety cap (default 16)")
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_ratio = sub.add_parser("ratio", help="exact consecutive-totals ratio table")
    p_ratio.add_argument("--columns", type=int, required=True, metavar="S")
    p_ratio.add_argument("--max-cells", type=int, required=True, metavar="N")
    p_ratio.add_argument("--decompose", action="store_true",
                         help="add the three deficit shares (width 3 only)")
    p_ratio.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ratio.set_defaults(handler=_cmd_ratio)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_verify.add_argument("--max-cells", type=int, metavar="N",
                          help="ranges become N; capped ranges stay at most their default")
    p_verify.add_argument("--oracle-cap", type=int, metavar="CELLS")
    p_verify.add_argument("--format", choices=("csv", "json"), default="json")
    p_verify.set_defaults(handler=_cmd_verify)

    for command in sub.choices.values():  # every subcommand's last option
        command.add_argument("--out", metavar="FILE")
    return parser


def _parse_shape(parser: argparse.ArgumentParser, text: str) -> ColumnShape:
    try:
        return ColumnShape.from_text(text)
    except ValueError as exc:
        parser.error(f"--shape: {exc}")
        raise AssertionError  # unreachable; parser.error exits


def _cmd_tau(args, parser) -> tuple[str, int]:
    if (args.cells is None) == (args.max_cells is None):
        parser.error("tau needs exactly one of --cells or --max-cells")
    if args.method == "closed" and args.columns not in CLOSED_FORMS:
        widths = " or ".join(map(str, CLOSED_FORMS))
        parser.error(f"--method closed is only available for --columns {widths}")
    if args.columns < 2:
        parser.error("--columns must be at least 2")
    if args.cells is not None:
        if args.cells < 0:
            parser.error("--cells must be >= 0")
        return str(tau(args.columns, args.cells, args.method)), 0
    if args.max_cells < 0:
        parser.error("--max-cells must be >= 0")
    values = [(n, tau(args.columns, n, args.method)) for n in range(args.max_cells + 1)]
    if args.format == "json":
        return _json({"s": args.columns, "method": args.method,
                      "values": [{"n": n, "value": str(v)} for n, v in values]}), 0
    return _csv(("n", "value"), values), 0


def _cmd_gamma(args, parser) -> tuple[str, int]:
    if args.columns < 3:
        parser.error("--columns must be at least 3 (use table --columns 2 for "
                     "the two-column triangle)")
    if args.cells < 0 or args.diff < 0:
        parser.error("--cells and --diff must be >= 0")
    entry = gamma_def if args.method == "definition" else gamma_rec
    return str(entry(args.columns, args.cells, args.diff)), 0


def _cmd_table(args, parser) -> tuple[str, int]:
    if args.columns < 2:
        parser.error("--columns must be at least 2")
    if args.max_cells < 0:
        parser.error("--max-cells must be >= 0")
    table = build_table(args.columns, args.max_cells, TABLE_METHODS[args.method])
    if args.format == "json":
        return _json({"s": table.s, "method": table.method,
                      "rows": [[str(value) for value in row] for row in table.rows]}), 0
    entries = [(n, i, value)
               for n, row in enumerate(table.rows) for i, value in enumerate(row)]
    return _csv(("n", "i", "value"), entries), 0


def _cmd_hook(args, parser) -> tuple[str, int]:
    shape = _parse_shape(parser, args.shape)
    return str(syt_count_hlf(shape)), 0


def _cmd_oracle(args, parser) -> tuple[str, int]:
    if args.oracle_cap < 0:
        parser.error("--oracle-cap must be >= 0")
    shape = _parse_shape(parser, args.shape)
    if shape.cells > args.oracle_cap:
        parser.error(f"--shape: shape has {shape.cells} cells, above the enumeration cap "
                     f"of {args.oracle_cap} (raise --oracle-cap to override)")
    # with the shape's own columns as bounds the walk lists only its sub-shapes' fillings
    return str(listed_counts(shape.columns, shape.cells)[shape.columns]), 0


def _cmd_ratio(args, parser) -> tuple[str, int]:
    if args.columns < 2:
        parser.error("--columns must be at least 2")
    if args.max_cells < 1:
        parser.error("--max-cells must be >= 1")
    if args.decompose and args.columns != 3:
        parser.error("--decompose is only defined for --columns 3")
    records = []
    for row in ratio_table(args.columns, args.max_cells):
        record = {"n": row.n, **_fraction_obj(row.value), "approx": row.approx}
        if args.decompose and row.n >= 3:
            parts = ratio_decomposition(row.n)._asdict()
            record["decomposition"] = {name: _fraction_obj(share)
                                       for name, share in parts.items()}
        records.append(record)
    if args.format == "json":
        return _json({"s": args.columns, "rows": records}), 0
    header = ["n", "numerator", "denominator", "approx"]
    if args.decompose:
        header += [f"{name}_{end}" for name in RatioParts._fields for end in ("num", "den")]
    return _csv(header, (_leaves(record, len(header)) for record in records)), 0


def _fraction_obj(value) -> dict:
    return {"numerator": str(value.numerator), "denominator": str(value.denominator)}


def _leaves(record: dict, width: int) -> list:
    """A ratio record's leaf values in order, one CSV row blank-padded to `width`."""
    fields = []
    for value in record.values():
        fields.extend(_leaves(value, 0) if isinstance(value, dict) else [value])
    return fields + [""] * (width - len(fields))


def _cmd_verify(args, parser) -> tuple[str, int]:
    for flag, value in (("--max-cells", args.max_cells), ("--oracle-cap", args.oracle_cap)):
        if value is not None and value < 0:
            parser.error(f"{flag} must be >= 0")
    report = run_suite(args.suite, max_cells=args.max_cells,
                       oracle_cap=args.oracle_cap)
    status = 0 if report.overall else 1
    if args.format == "json":
        return _json({"schema": REPORT_SCHEMA, "suite": report.suite,
                      "overall": report.overall, "elapsed": round(report.elapsed, 6),
                      "checks": [asdict(check) for check in report.checks]}), status
    rows = [(c.name, c.scope, "pass" if c.passed else "fail", c.checked,
             c.counterexample or "") for c in report.checks]
    return _csv(("name", "scope", "passed", "checked", "counterexample"), rows), status


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute the requested subcommand, and return the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, status = args.handler(args, parser)
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        return code if isinstance(code, int) else USAGE_ERROR
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(run())
