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


C_SOURCE = r'''/* A block comment
   over two lines. */
#include <stdint.h>

// a line comment
int f(int x) /* a trailing comment */
{
    const char *s = "not // a comment", *t = "nor /* this */";
    /* a comment */ return x
        + 1;  // a trailing line comment
}
'''


def test_counts_c_lines_that_hold_code(tmp_path):
    """Blank lines and lines holding only comments drop out; comment markers inside
    string literals start no comment, and code after a comment on its line counts."""
    path = tmp_path / "sample.c"
    path.write_text(C_SOURCE, encoding="utf-8")
    # include, the signature, both braces, the strings, return and the continuation
    assert code_lines.c_code_lines(path) == 7
    assert code_lines.wc_lines(path) == C_SOURCE.count("\n") == 11


def test_reports_the_c_source_after_the_python_total(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "kernel.c").write_text(C_SOURCE, encoding="utf-8")
    code_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["mod", "13", "5"], ["total", "13", "5"], ["kernel.c", "11", "7"]]
