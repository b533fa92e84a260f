"""The README's Library examples run and give the values their comments claim."""

from __future__ import annotations

import ast
import re
from fractions import Fraction

from conftest import REPO_ROOT
from roughmap import errors
from roughmap.roughset import Regions


def library_section() -> str:
    """The text of the README's ``## Library`` section."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_blocks() -> list[str]:
    """The ```python blocks of the README's ``## Library`` section."""
    return re.findall(r"^```python\n(.*?)^```$", library_section(), flags=re.M | re.S)


def run_block(source: str) -> tuple[dict, dict[str, tuple[object, str]]]:
    """Run `source`; return its namespace and, for each line that is a bare
    call, the called name -> (the call's value, the line's comment)."""
    namespace: dict = {}
    shown: dict[str, tuple[object, str]] = {}
    lines = source.splitlines()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            shown[stmt.value.func.id] = (value, comment)
        else:
            exec(compile(ast.Module(body=[stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return namespace, shown


def test_two_library_blocks():
    assert len(library_blocks()) == 2


def test_pipeline_example(capsys):
    namespace, _ = run_block(library_blocks()[0])
    assert namespace["result"].expected_result == Fraction(0)
    assert [r.node for r in namespace["result"].records] == ["U1"]
    report = capsys.readouterr().out
    assert report.startswith("Level regions\n")
    assert "level 2: POS={}  NEG={C1}  BND={U1}\n" in report


def test_rough_set_example():
    _, shown = run_block(library_blocks()[1])
    membership, comment = shown["rough_membership"]
    assert membership == ((2, 2), (1, 2), (0, 2))
    assert comment.startswith(repr(membership))
    lower, comment = shown["lower_approximation"]
    assert lower == ("x1", "x2")
    assert comment == repr(lower)
    got, comment = shown["regions"]
    assert got == Regions(pos=("x1", "x2"), neg=("x5", "x6"), bnd=("x3", "x4"))
    assert comment.startswith("pos/neg/bnd")


def test_errors_paragraph_names_every_error_class():
    """The Library section's `SomeError(Parent)` names are the exception classes
    that roughmap.errors defines, each with its parent."""
    named = set(re.findall(r"`(\w+Error)\((\w+)\)`", library_section()))
    defined = {(name, cls.__base__.__name__) for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == errors.__name__}
    assert named == defined
