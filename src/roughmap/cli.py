"""Command line: analyze one student, batch a roster, or validate a map.

`COMMANDS` states the surface once.  `_read` reads a plain command line; any
other goes to argparse, whose parser `build_parser` makes from the same table."""

from __future__ import annotations

import sys

from .analysis import ALL_LEVELS, DEEPEST_ONLY
from .fileio import run_analyze, run_batch, run_validate
from .grading import ASCENDING, DESCENDING, REPORT_FORMATS

# A flag is (name, choices or None, default, required, help).
_TEACHER = ("--teacher", None, None, True, "teacher concept-map JSON")
_REPORT_FLAGS = (
    ("--format", REPORT_FORMATS, "text", False, "report format (default: text)"),
    ("--order", (ASCENDING, DESCENDING), ASCENDING, False,
     "remediation order: smallest or largest importance first"),
    ("--levels", (DEEPEST_ONLY, ALL_LEVELS), DEEPEST_ONLY, False,
     "process only the deepest boundary set or all of them"),
)
# Command -> (help, flags in help order); `validate` takes only `map_path`.
COMMANDS = {
    "analyze": ("grade one student map", (
        _TEACHER, ("--student", None, None, True, "student concept-map JSON"), *_REPORT_FLAGS,
        ("--out", None, None, False, "write the report here instead of stdout"))),
    "batch": ("grade every student on a roster", (
        _TEACHER, ("--roster", None, None, True, "roster CSV"),
        ("--maps-dir", None, None, False, "base directory for relative map paths in the roster"),
        ("--out-dir", None, ".", False, "directory for per-student reports and cohort_summary.csv"),
        *_REPORT_FLAGS)),
    "validate": ("check that a map file is a valid rooted tree", ()),
}


def _read(argv: list[str]) -> dict[str, str | None] | None:
    """argparse's values for a plain command line, else None.  Plain is ``validate
    PATH`` or a command then exact ``--flag value`` pairs: each flag once, all
    required ones, no value or PATH starting with ``-``, valid choices."""
    command, *rest = argv or [""]
    if command == "validate":
        plain = len(rest) == 1 and not rest[0].startswith("-")
        return {"command": command, "map_path": rest[0]} if plain else None
    given = dict(zip(rest[::2], rest[1::2]))
    if command not in COMMANDS or 2 * len(given) != len(rest):  # odd, or a flag twice
        return None
    args = {"command": command}
    for name, choices, default, required, _ in COMMANDS[command][1]:
        value = given.pop(name, default)  # a default is a valid value
        if value is None and required or value is not default and (
                value.startswith("-") or choices is not None and value not in choices):
            return None
        args[name[2:].replace("-", "_")] = value
    return None if given else args


def build_parser():
    """The argparse parser of `COMMANDS`, for help and usage errors."""
    import argparse  # here, so that a plain command line never imports it
    parser = argparse.ArgumentParser(prog="roughmap", description=(
        "Compare student concept maps against a teacher's reference map, "
        "grade per-concept mastery, and emit a remediation plan."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, flags) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=command_help)
        for name, choices, default, required, flag_help in flags:
            command_parser.add_argument(name, choices=choices, default=default,
                                        required=required, help=flag_help)
        if command == "validate":
            command_parser.add_argument("map_path")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or vars(build_parser().parse_args(argv))
    if args["command"] == "validate":
        return run_validate(args["map_path"])
    knobs = args["format"], args["order"], args["levels"]
    if args["command"] == "analyze":
        return run_analyze(args["teacher"], args["student"], args["out"], *knobs)
    return run_batch(args["teacher"], args["roster"], args["maps_dir"], args["out_dir"], *knobs)

