"""In-memory spans around the calls into each roughmap module.

The benchmark does not change the program: `Tracer.patched` swaps the
module-level names that `roughmap.fileio` and `roughmap.analysis` call
through for wrappers that open a span, and restores them on exit.  A span
records its name, start and end (`perf_counter_ns`), the index of its parent
span and the id of the student being processed.
"""

from __future__ import annotations

import json
import pathlib
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import roughmap.analysis
import roughmap.fileio

# (module, attribute, span name): the layer boundaries on the CLI's path.
LAYER_CALLS = (
    (roughmap.fileio, "parse_concept_map_file", "fileio.parse"),
    (roughmap.fileio, "validate_map", "conceptmap.validate"),
    (roughmap.fileio, "integrate", "conceptmap.integrate"),
    (roughmap.fileio, "analyze", "analysis.analyze"),
    (roughmap.analysis, "level_regions", "analysis.level_regions"),
    (roughmap.fileio, "grade_records", "grading.grade"),
    (roughmap.fileio, "remediation_sequence", "grading.plan"),
    (roughmap.fileio, "render_report", "grading.render"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, student]
        self.student: str | None = None
        self.last: dict[str, object] = {}  # span name -> last return value
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0, 0, self._stack[-1] if self._stack else None, self.student]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span_name = name
            if name == "grading.render":
                fmt = args[3] if len(args) > 3 else kwargs.get("report_format", "text")
                span_name = f"grading.render_{fmt}"
            with self.span(span_name):
                result = fn(*args, **kwargs)
            self.last[name] = result
            return result
        return traced

    @contextmanager
    def patched(self):
        tracer = self

        class TracedPath(type(pathlib.Path())):
            def write_text(self, *args, **kwargs):
                with tracer.span("fileio.write"):
                    return super().write_text(*args, **kwargs)

        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in LAYER_CALLS]
        saved.append((roughmap.fileio, "Path", roughmap.fileio.Path))
        try:
            for mod, attr, name in LAYER_CALLS:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            roughmap.fileio.Path = TracedPath
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def self_times(self) -> dict[str, dict[str, float]]:
        """student -> span name -> summed self time in ms.  A span's self time
        is its duration minus the durations of its direct children."""
        self_ns = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                self_ns[parent] -= end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _, _, _, student), ns in zip(self.spans, self_ns):
            per = out.setdefault(student, {})
            per[name] = per.get(name, 0.0) + ns / 1e6
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "student")
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
