"""The code-line counter behind the line counts quoted for ``src/rigraph``."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    text = """a string that
    spans two lines"""
    "a bare string statement"
    return (x +
            math.pi)


class C:
    """Class docstring."""

    value = 1; other = 2
'''


def test_counts_code_and_skips_comments_docstrings_and_blanks():
    # import, def, text (2 lines), return (2 lines), class, value
    assert code_lines(SNIPPET) == 8
    assert code_lines("") == 0
    assert code_lines('"""only a docstring"""\n') == 0


def test_command_line_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    script = Path(__file__).with_name("code_lines.py")
    out = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split() == ["9", "total"]
