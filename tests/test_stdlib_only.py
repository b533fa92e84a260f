"""The runtime imports only the standard library: every absolute import in
src/roughmap names roughmap or a standard-library module.
`sys.stdlib_module_names` is new in Python 3.10, the oldest version supported."""

from __future__ import annotations

import ast
import sys

from conftest import REPO_ROOT


def test_runtime_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"roughmap"}
    paths = sorted((REPO_ROOT / "src" / "roughmap").glob("*.py"))
    assert paths
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path.name}:{node.lineno}: import {name}" for name in names
                    if name.partition(".")[0] not in allowed]
    assert bad == []
