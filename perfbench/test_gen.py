"""One seed always produces identical input files.

    python3 -m pytest perfbench/test_gen.py
"""

from pathlib import Path

import pytest

import gen


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("shape", gen.SHAPES)
def test_same_seed_same_files(tmp_path, shape):
    first = _files(gen.write_inputs(tmp_path / "a", shape, 7, 5, 2, scale=0.25).teacher.parent)
    again = _files(gen.write_inputs(tmp_path / "b", shape, 7, 5, 2, scale=0.25).teacher.parent)
    other = _files(gen.write_inputs(tmp_path / "c", shape, 8, 5, 2, scale=0.25).teacher.parent)
    assert len(first) == 1 + 5 + 3  # teacher, student maps, roster chunks
    assert first == again
    assert first != other
