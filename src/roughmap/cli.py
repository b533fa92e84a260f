"""Command line: analyze one student, batch a roster, or validate a map."""

from __future__ import annotations

import argparse

from .analysis import ALL_LEVELS, DEEPEST_ONLY
from .fileio import run_analyze, run_batch, run_validate
from .grading import ASCENDING, DESCENDING, REPORT_FORMATS


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=REPORT_FORMATS, default="text",
                        help="report format (default: text)")
    parser.add_argument("--order", choices=(ASCENDING, DESCENDING), default=ASCENDING,
                        help="remediation order: smallest or largest importance first")
    parser.add_argument("--levels", choices=(DEEPEST_ONLY, ALL_LEVELS), default=DEEPEST_ONLY,
                        help="process only the deepest boundary set or all of them")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughmap",
        description="Compare student concept maps against a teacher's reference map, "
                    "grade per-concept mastery, and emit a remediation plan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze_p = sub.add_parser("analyze", help="grade one student map")
    analyze_p.add_argument("--teacher", required=True, help="teacher concept-map JSON")
    analyze_p.add_argument("--student", required=True, help="student concept-map JSON")
    _add_report_flags(analyze_p)
    analyze_p.add_argument("--out", help="write the report here instead of stdout")

    batch_p = sub.add_parser("batch", help="grade every student on a roster")
    batch_p.add_argument("--teacher", required=True, help="teacher concept-map JSON")
    batch_p.add_argument("--roster", required=True, help="roster CSV")
    batch_p.add_argument("--maps-dir", help="base directory for relative map paths in the roster")
    batch_p.add_argument("--out-dir", default=".",
                         help="directory for per-student reports and cohort_summary.csv")
    _add_report_flags(batch_p)

    validate_p = sub.add_parser("validate", help="check that a map file is a valid rooted tree")
    validate_p.add_argument("map_path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return run_analyze(args.teacher, args.student, args.out,
                           args.format, args.order, args.levels)
    if args.command == "batch":
        return run_batch(args.teacher, args.roster, args.maps_dir, args.out_dir,
                         args.format, args.order, args.levels)
    return run_validate(args.map_path)


if __name__ == "__main__":
    raise SystemExit(main())
