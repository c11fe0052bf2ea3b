"""Size of the quatlink package, per module and in total, counted two ways.

"lines" is `wc -l`.  "code" is ROADMAP aim 2's code-only count: drop every
COMMENT and NL token, then count each line that a remaining token other than
NEWLINE, INDENT, DEDENT or ENDMARKER starts on, ends on or spans, except a
STRING token that makes up a whole logical line (a docstring).  So blank
lines, comment lines and docstrings do not count, and a multi-line
expression counts every line it spans.  The total is over the Python
modules; each C source of the package follows it on a row of its own, whose
"code" counts the lines that hold something besides blanks and comments.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: src/quatlink)
"""

import re
import sys
import tokenize
from pathlib import Path

_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
# a C comment, or a string or character literal, which may hold comment markers
_C_COMMENT_OR_LITERAL = re.compile(r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])*'", re.DOTALL)


def code_lines(path) -> int:
    """The code-only line count of one Python source file."""
    with open(path, encoding="utf-8") as source:
        toks = [t for t in tokenize.generate_tokens(source.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, t in enumerate(toks):
        if t.type in _LAYOUT + (tokenize.ENDMARKER,):
            continue
        if not (t.type == tokenize.STRING and (i == 0 or toks[i - 1].type in _LAYOUT)
                and toks[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def c_code_lines(path) -> int:
    """The lines of one C source file that hold something besides blanks and comments."""
    text = Path(path).read_text(encoding="utf-8")
    # a comment becomes a blank that keeps its newlines, so later lines keep their numbers
    code = _C_COMMENT_OR_LITERAL.sub(lambda m: m[0] if m[0][0] in "\"'" else " " + "\n" * m[0].count("\n"), text)
    return sum(1 for line in code.splitlines() if line.strip())


def wc_lines(path) -> int:
    """The newline count of a file, as `wc -l` gives it."""
    return Path(path).read_bytes().count(b"\n")


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "quatlink"
    rows = [(path.stem, wc_lines(path), code_lines(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    rows += [(path.name, wc_lines(path), c_code_lines(path)) for path in sorted(package.glob("*.c"))]
    print(f"{'module':<12} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<12} {lines:>6} {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
