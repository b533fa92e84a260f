#!/usr/bin/env python3
"""Run the bundled sample maps through the full pipeline and print the
report plus the exact fractions behind the displayed numbers."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from roughmap.analysis import ALL_LEVELS, DEEPEST_ONLY  # noqa: E402
from roughmap.fileio import _graded  # noqa: E402
from roughmap.grading import ASCENDING, DESCENDING, REPORT_FORMATS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=REPORT_FORMATS, default="text")
    parser.add_argument("--order", choices=(ASCENDING, DESCENDING), default=ASCENDING)
    parser.add_argument("--levels", choices=(DEEPEST_ONLY, ALL_LEVELS), default=DEEPEST_ONLY)
    args = parser.parse_args()

    # One job with no report path: the report goes to stdout.
    job = ("", ROOT / "data" / "student_map.json", None)
    [(result, _)] = _graded(str(ROOT / "data" / "teacher_map.json"), (), (), [job], None,
                            args.format, args.order, args.levels)

    print()
    print("exact importance degrees:")
    for rec in result.records:
        print(f"  {rec.node}: {rec.overlap}/{rec.child_count} = {rec.alpha}"
              f" (truncated {rec.truncated_alpha})")
    print(f"exact expected result: {result.expected_result}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
