"""Tests for tools/code_lines.py, the package size count."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


def f(x):
    """Docstring."""
    y = (x +
         1)
    "a string statement, counted as a docstring too"
    return f"{y}" """ and a string that is part of an expression"""
'''


def test_counts_code_only_as_the_roadmap_rule_states(tmp_path):
    """Blank lines, comment lines and docstrings drop out; a multi-line expression
    counts every line it spans, and a string counts as a docstring wherever it makes
    up a whole logical line, but not as part of an expression."""
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    # import, def, the two lines of y and return
    assert code_lines.code_lines(path) == 5
    assert code_lines.wc_lines(path) == SOURCE.count("\n") == 13
