"""File formats, roster ingestion, and the run functions of the three commands.

Concept maps are JSON documents::

    {"subject": "...", "nodes": [{"id": "S1", "parent": null},
                                 {"id": "U1", "parent": "S1", "phrase": "includes"}]}

Rosters are CSV with header
``register_no,name,department,semester,subject,map_path``; a blank line is
no record, a row with fewer or more cells than the header is refused, and a
line number counts every physical line.  Both are UTF-8 text, read from
bytes (`parse_concept_map` takes bytes only); one leading byte order mark is
skipped.  Exit statuses: 0 success, 1 validation/analysis error, 2 I/O or
parse error or memory exhausted, 130 interrupted (Ctrl-C), 143 terminated
(SIGTERM); a fault prints one ``error:`` line on stderr.

`_read` is the one way an input file is read, from one open of a regular file.
`analyze` and `batch` run the same steps in the same order.  Both check the
knobs before they read anything.  `batch` then makes ``--out-dir``, so that
the output guard sees the names in it, and `_prepared` refuses (exit 2) an
output that is an input (``<who> would overwrite input <path>``), a report
named cohort_summary.csv (``<who> would overwrite cohort_summary.csv``) or,
in ``--out-dir``, a symlink, a file that is not a regular file (a FIFO's
write would block) or a hard link, and last any output whose stat fails but
not as "no such file" (a long name, a NUL, an ``--out-dir`` that is a file),
``<who>`` being ``--out X``, ``<roster>: register_no 'R'`` or ``<roster>:
cohort_summary.csv``; that last refusal, and a failed write, give ``<who>
could not be written: <reason>``.  It then reads the teacher map.  `_graded`
then grades one student at a time, and each report is written before the
next student is graded; a `batch` that fails removes each directory it made
that holds no output.  Each ``--out-dir`` output is opened in ``--out-dir``,
opened once, checked again by the guard's rules and rewritten in place; a
write cut short once the file is open (a full disk, an interrupt) removes
the file if it is a regular file with one link.

A run (`run_analyze`, `run_batch` or `run_validate`) pauses the cyclic
garbage collector, in the main thread makes SIGTERM an interrupt, and
restores both on every exit: the pipeline builds no reference cycles
(tests/test_no_cycles.py checks this), so the collector's passes over the
run's many objects would find nothing.
"""

from __future__ import annotations

import csv
import errno
import gc
import io
import json
import os
import re
import signal
import sys
from contextlib import suppress
from itertools import repeat, takewhile
from operator import itemgetter
from pathlib import Path
from stat import S_ISLNK, S_ISREG
from typing import Callable, NamedTuple, Sequence, TextIO

from .analysis import DEEPEST_ONLY, AnalysisResult, _check_levels, analyze
from .conceptmap import ConceptMap, _node_fault, integrate, validate_map
from .errors import InputError, ValidationError
from .grading import (
    ASCENDING,
    EXPECTED_RESULT_PLACES,
    GradedRecord,
    _check_order, _check_report_format,
    format_fraction,
    grade_records,
    remediation_sequence,
    render_report,
)

__all__ = [
    "RosterRecord",
    "ROSTER_COLUMNS",
    "SUMMARY_FILENAME",
    "parse_concept_map",
    "parse_concept_map_file",
    "parse_roster",
    "run_analyze",
    "run_batch",
    "run_validate",
]

class RosterRecord(NamedTuple):
    register_no: str
    name: str
    department: str
    semester: str
    subject: str
    map_path: str


ROSTER_COLUMNS = RosterRecord._fields
SUMMARY_FILENAME = "cohort_summary.csv"

_ID, _PARENT = itemgetter("id"), itemgetter("parent")
# Write errors raised after the file is open, which leave it partly written.
_PARTIAL = frozenset((errno.EFBIG, errno.ENOSPC, errno.EDQUOT))
# Opening an ``--out-dir`` output: no symlink is followed, no FIFO blocks, nothing is cut.
_CHECKED_OPEN = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC
_OPEN_DIR = os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC
_NOT_A_FILE = frozenset((errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO))  # as is_file reads
# A path separator or a control character (Unicode category Cc).
_UNSAFE_CHAR = re.compile(r"[/\\\x00-\x1f\x7f-\x9f]").search


def _utf8(data: bytes, source: str) -> str:
    """`data` decoded as UTF-8, less one leading byte order mark."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{source}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _map_columns(entries: list, source: str) -> tuple[tuple, tuple, tuple]:
    """The id, parent and phrase columns of a map's entries, read in bulk and
    checked by `conceptmap`'s node rules.  Only when the bulk read fails (an
    entry that is not an object with 'id' and 'parent') is the first such
    entry looked for; a node fault in an entry before it is reported first."""
    fault = None
    try:
        ids, parents = tuple(map(_ID, entries)), tuple(map(_PARENT, entries))
    except (KeyError, TypeError):
        i = next(i for i, entry in enumerate(entries)
                 if not isinstance(entry, dict) or "id" not in entry or "parent" not in entry)
        fault, entries = f"nodes[{i}] must be an object with 'id' and 'parent'", entries[:i]
        ids, parents = tuple(map(_ID, entries)), tuple(map(_PARENT, entries))
    phrases = tuple(map(dict.get, entries, repeat("phrase")))
    fault = _node_fault(ids, parents, phrases) or fault
    if fault is not None:
        raise InputError(f"{source}: {fault}")
    return ids, parents, phrases


def parse_concept_map(data: bytes, source: str = "<string>") -> ConceptMap:
    """Parse and validate the JSON concept-map format; every error names `source`."""
    text = _utf8(data, source)
    nul = text.find("\0")  # JSON holds no raw NUL; ASCII in UTF-16 or UTF-32 is full of them
    if nul >= 0:
        raise InputError(
            f"{source}: NUL character at index {nul}: not UTF-8 JSON (UTF-16 or UTF-32?)")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{source}: JSON nested too deeply") from exc
    except MemoryError as exc:
        raise InputError(f"{source}: out of memory") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise InputError(f"{source}: expected an object with a 'nodes' array")
    subject = doc.get("subject", "untitled")
    if not isinstance(subject, str):
        raise InputError(f"{source}: 'subject' must be a string")
    try:  # an InputError from _map_columns names `source` already
        return validate_map(ConceptMap._of_columns(subject, *_map_columns(doc["nodes"], source)))
    except ValidationError as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _read(path: str | Path) -> bytes:
    try:  # not blocking: a FIFO's or a device's read could block or never end
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_CLOEXEC)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        if isinstance(exc, OSError) and exc.errno not in _NOT_A_FILE:
            raise
    else:
        try:
            if S_ISREG(os.fstat(fd).st_mode):  # the file checked is the file read
                with open(fd, "rb", buffering=0, closefd=False) as file:
                    return file.readall()
        finally:
            os.close(fd)
    raise OSError(f"{path}: missing or not a regular file")


def parse_concept_map_file(path: str | Path) -> ConceptMap:
    return parse_concept_map(_read(path), source=str(path))


def parse_roster(path: str | Path) -> tuple[RosterRecord, ...]:
    """Read a roster CSV; rows keep file order, a blank line is no record, register
    numbers are unique.  Every error names `path` as given, and a line number
    counts every physical line."""
    reader = csv.reader(io.StringIO(_utf8(_read(path), str(path)), newline=""))
    records: dict[str, RosterRecord] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty roster file")
        index = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last column
        missing = [c for c in ROSTER_COLUMNS if c not in index]
        if missing:
            nul = "; NUL in the header (UTF-16 or UTF-32?)" * ("\0" in "".join(header))
            raise InputError(f"{path}: missing column(s): {', '.join(missing)}{nul}")
        columns = [index[c] for c in ROSTER_COLUMNS]
        end = reader.line_num  # where the header ends
        for row in reader:
            # A record starts on the line after the previous one's end: a quoted newline spans lines.
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            short = [c for c, i in zip(ROSTER_COLUMNS, columns) if i >= len(row)]
            if short:
                raise InputError(f"{path}: line {lineno}: missing cell(s): {', '.join(short)}")
            if len(row) > len(header):
                raise InputError(
                    f"{path}: line {lineno}: {len(row) - len(header)} cell(s) past the header")
            register_no = row[columns[0]].strip()
            if not register_no:
                raise InputError(f"{path}: line {lineno}: empty register_no")
            if register_no in (".", "..") or _UNSAFE_CHAR(register_no):
                raise InputError(
                    f"{path}: line {lineno}: register_no {register_no!r} is not a safe file name")
            if "\0" in row[columns[-1]]:
                raise InputError(f"{path}: line {lineno}: map_path holds a NUL character")
            if register_no in records:
                raise InputError(f"{path}: duplicate register_no {register_no!r}")
            records[register_no] = RosterRecord(register_no, *map(row.__getitem__, columns[1:]))
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc
    return tuple(records.values())


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised where the run stands."""


def _terminate(signum: int, frame: object) -> None:
    raise _Terminated


def _exit_status(run: Callable[[], object]) -> int:
    """Call `run` with the cyclic collector paused and return the process
    exit status: the one place a fault becomes exit 1 (a ValidationError),
    2 (an InputError, OSError or MemoryError), 130 (an interrupt, such as
    Ctrl-C) or 143 (SIGTERM), with a one-line diagnostic on stderr.  A
    stderr that is closed or fails gets no line, and the status stands."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # off the main thread, which alone may set a handler
        previous = False
    try:
        run()
    except KeyboardInterrupt as exc:  # `batch` says how many reports it wrote
        status = 143 if isinstance(exc, _Terminated) else 130
        reason = str(exc) or "interrupted"
    except MemoryError:  # the line is written once the exception has freed what it held
        status, reason = 2, "out of memory"
    except (ValidationError, InputError, OSError) as exc:
        status, reason = 1 if isinstance(exc, ValidationError) else 2, str(exc)
    else:
        return 0
    finally:
        if previous is not False:  # None: a handler not set from Python
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)
        if collecting:
            gc.enable()
    # A control character (category Cc: U+0000-U+001F, U+007F-U+009F) or a line break that
    # str.splitlines knows is written as its Python escape, so the line stays one line.
    reason = re.sub("[\x00-\x1f\x7f-\x9f\u2028\u2029]", lambda m: repr(m[0])[1:-1], reason)
    with suppress(OSError):  # with no stderr to tell it, the status still does
        _put(sys.stderr, "stderr", f"error: {reason}\n")
    return status


def _write(output: tuple[str, Path] | None, text: str, dir_fd: int | None = None) -> None:
    """Write `text` to the path of the output `(who, path)`, or to stdout when it is None;
    with `dir_fd`, checked and in place in that directory.  A write that fails once the
    file is open, such as on a full disk, removes the partial file if it is a regular
    file with one link, so that an output is whole or absent."""
    if output is None:
        return _put(sys.stdout, "stdout", text)
    who, path = output
    try:
        if dir_fd is None:
            path.write_text(text, encoding="utf-8")
        else:
            _write_at(dir_fd, who, path, text.encode("utf-8"))
    except OSError as exc:
        entry = dir_fd is None and exc.errno in _PARTIAL and _stat(path, follow_symlinks=False)
        if entry and S_ISREG(entry.st_mode) and entry.st_nlink == 1:  # not /dev/full, say
            with suppress(OSError):
                path.unlink()
        raise _unwritable(who, exc) from None


def _write_at(dir_fd: int, who: str, path: Path, data: bytes) -> None:
    """`_write` to the name of `path` in the directory `dir_fd`."""
    try:
        fd = os.open(path.name, _CHECKED_OPEN, 0o666, dir_fd=dir_fd)
    except OSError:
        with suppress(OSError):  # refuse the entry that failed the open, such as a symlink
            _check_entry(who, path, os.stat(path.name, dir_fd=dir_fd, follow_symlinks=False))
        raise
    checked = False
    try:
        _check_entry(who, path, os.fstat(fd))
        checked = True
        written = 0
        while written < len(data):  # a write may take only part
            written += os.write(fd, data[written:])
        os.ftruncate(fd, written)  # cut after the write: cutting first costs what O_TRUNC does
    except BaseException:  # an interrupt too
        if checked:
            with suppress(OSError):
                os.unlink(path.name, dir_fd=dir_fd)
        raise
    finally:
        os.close(fd)


def _unwritable(who: str, exc: OSError) -> OSError:
    return OSError(f"{who} could not be written: {exc.strerror or exc}")


def _put(stream: TextIO | None, name: str, text: str) -> None:
    """Write `text` to a standard stream now.  One that fails is closed, or
    the interpreter's flush at exit would fail again and exit 120."""
    if stream is None:  # the process was started with it closed
        raise OSError(f"{name} is closed")
    try:
        stream.write(text)
        stream.flush()
    except UnicodeEncodeError as exc:  # raised before any of `text` is written
        bad = exc.object[exc.start:exc.end]
        raise OSError(f"{name} cannot encode {bad!r} as {exc.encoding}") from None
    except OSError as exc:
        with suppress(OSError):
            stream.close()
        raise _unwritable(name, exc) from None


def _stat(path: Path, follow_symlinks: bool = True,
          absent: type[OSError] = OSError) -> os.stat_result | OSError | None:
    try:
        return path.stat(follow_symlinks=follow_symlinks)
    except ValueError:  # a NUL, which no file name holds
        return None if absent is OSError else OSError(errno.EINVAL, "path holds a NUL character")
    except OSError as exc:  # `absent` is "no such file": nothing to overwrite or to read
        return None if isinstance(exc, absent) else exc


def _check_knobs(report_format: str, order: str, levels: str) -> None:  # before any read
    _check_levels(levels)
    _check_order(order)
    _check_report_format(report_format)


def _make_dir(path: Path) -> list[Path]:
    """Make the directory `path` with its missing parents and return the ones
    made, deepest first.  An error is left to the output guard's stat."""
    made = list(takewhile(lambda p: _stat(p, follow_symlinks=False) is None, (path, *path.parents)))
    with suppress(OSError, ValueError):
        path.mkdir(parents=True, exist_ok=True)
    return made


def _check_entry(who: str, path: Path, st: os.stat_result | None) -> None:
    """Refuse the output `(who, path)` whose own entry in ``--out-dir``, by its lstat
    or by the fstat of the file opened, is a symlink, not a regular file (a FIFO's
    write would block) or a hard link."""
    fault = st and ("would write through symlink" if S_ISLNK(st.st_mode) else
                    "would write over a non-regular file" if not S_ISREG(st.st_mode) else
                    "would write through hard link" if st.st_nlink > 1 else None)
    if fault:
        raise InputError(f"{who} {fault} {path}")


def _check_outputs(read: Sequence[Path], outputs: Sequence[tuple[str, Path]],
                   in_dir: bool) -> None:
    """The output guard of the module docstring; `read` are the inputs, and
    `in_dir` is true for the outputs of ``--out-dir``."""
    # (st_ino, st_dev) -> the input; the first one wins
    by_identity = {st[1:3]: path for path in reversed(read) if (st := _stat(path))}
    written: set[Path] = set()
    for who, path in outputs:
        st = _stat(path, absent=FileNotFoundError)  # an error is refused after the checks
        if isinstance(st, os.stat_result) and st[1:3] in by_identity:
            raise InputError(f"{who} would overwrite input {by_identity[st[1:3]]}")
        if path in written:
            raise InputError(f"{who} would overwrite {path.name}")
        _check_entry(who, path, in_dir and _stat(path, follow_symlinks=False))  # the name itself
        if isinstance(st, OSError):  # such as ENAMETOOLONG, or ENOTDIR under a file
            raise _unwritable(who, st)
        written.add(path)


def _prepared(teacher_map_path: str, read: Sequence[Path], outputs: Sequence[tuple[str, Path]],
              out_dir: Path | None) -> tuple[ConceptMap, int | None]:
    """Guard `outputs` against every file read, parse the teacher map, and open
    `out_dir`, following a symlink, for the caller to write in and close."""
    _check_outputs((Path(teacher_map_path), *read), outputs, out_dir is not None)
    teacher = parse_concept_map_file(teacher_map_path)
    return teacher, None if out_dir is None else os.open(out_dir, _OPEN_DIR)


def _graded(teacher: ConceptMap, map_path: Path, fault: str, report_format: str, order: str,
            levels: str) -> tuple[AnalysisResult, tuple[GradedRecord, ...], str]:
    """One student's analysis, graded records and report; a fault's message starts with `fault`."""
    try:
        result = analyze(integrate(teacher, parse_concept_map_file(map_path)), levels=levels)
        graded = grade_records(result.records)
        plan = remediation_sequence(result.records, order=order)
        return result, graded, render_report(result, graded, plan, report_format)
    except (ValidationError, InputError, OSError) as exc:
        raise type(exc)(f"{fault}{exc}") from exc


def run_analyze(teacher_map_path: str, student_map_path: str, out_path: str | None = None,
                report_format: str = "text", order: str = ASCENDING,
                levels: str = DEEPEST_ONLY) -> int:
    """Grade one student and return the exit status.  The report goes to
    `out_path`, or to stdout when it is None."""
    def run() -> None:
        _check_knobs(report_format, order, levels)
        out = None if out_path is None else (f"--out {Path(out_path)}", Path(out_path))
        teacher = _prepared(teacher_map_path, [Path(student_map_path)], [out] if out else [],
                            None)[0]
        _write(out, _graded(teacher, Path(student_map_path), "", report_format, order, levels)[2])

    return _exit_status(run)


def run_batch(teacher_map_path: str, roster_path: str, maps_dir: str | None = None,
              out_dir: str = ".", report_format: str = "text", order: str = ASCENDING,
              levels: str = DEEPEST_ONLY) -> int:
    """Grade every roster row and return the exit status.  Each row's report
    is ``<out_dir>/<register_no>.<format>``, followed by a cohort summary;
    a relative map path is resolved against `maps_dir`."""
    def run() -> None:
        _check_knobs(report_format, order, levels)
        roster = parse_roster(roster_path)
        out = Path(out_dir)
        summary = (f"{roster_path}: {SUMMARY_FILENAME}", out / SUMMARY_FILENAME)
        outputs = [(f"{roster_path}: register_no {rec.register_no!r}",
                    out / f"{rec.register_no}.{report_format}") for rec in roster]
        maps = [Path(maps_dir or ".", rec.map_path) for rec in roster]
        made, rows = _make_dir(out), []  # first, so the guard sees names in it
        try:
            teacher, dir_fd = _prepared(teacher_map_path, [Path(roster_path), *maps],
                                        [summary, *outputs], out)
            try:
                for rec, map_path, output in zip(roster, maps, outputs):
                    fault = f"student {rec.register_no}: "
                    result, graded, report = _graded(teacher, map_path, fault, report_format,
                                                     order, levels)
                    _write(output, report, dir_fd)
                    rows.append((rec.register_no,
                                 format_fraction(result.expected_result, EXPECTED_RESULT_PLACES),
                                 ";".join(f"{g.node}={g.grade}" for g in graded)))
                table = io.StringIO()
                csv.writer(table, lineterminator="\n").writerows(
                    [("register_no", "expected_result", "grades"), *rows])
                _write(summary, table.getvalue(), dir_fd)
            except KeyboardInterrupt as exc:
                raise type(exc)(f"interrupted after {len(rows)} of {len(roster)} students") from None
            finally:
                os.close(dir_fd)
        except BaseException:  # an interrupt too
            for path in made:  # deepest first; rmdir keeps a directory that holds an output
                with suppress(OSError, ValueError):
                    path.rmdir()
            raise

    return _exit_status(run)


def run_validate(map_path: str) -> int:
    """Check that one map file is a valid rooted tree; return the exit status."""
    def run() -> None:
        parse_concept_map_file(map_path)
        _write(None, f"valid: {map_path}\n")

    return _exit_status(run)
