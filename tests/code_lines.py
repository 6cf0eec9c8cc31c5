"""Count the code lines of Python sources: non-blank lines that hold some
token other than a comment or a docstring.

A docstring here is any string literal that stands alone as a statement
(module, class and function docstrings, and bare strings used as
comments).  A line that holds only part of a multi-line token, such as the
inside of a triple-quoted string that is not a docstring, counts as code.

    python tests/code_lines.py src/rigraph

prints one line per file and a total; a directory is searched for ``*.py``
files recursively.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of code lines in one Python source text."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of the current logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    paths = sorted(p for arg in argv for p in (Path(arg).rglob("*.py") if Path(arg).is_dir() else [Path(arg)]))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
