"""The README's ``python`` blocks import names from ``rigraph``; this checks,
by parsing them, that each of those names, each attribute read off one and
each keyword passed to one still exists, so a public name cannot be removed
while the README still shows it."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from conftest import missing_rigraph_names

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_from_rigraph_exist():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    trees = [ast.parse(block) for block in blocks]
    imported = [node for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rigraph")]
    assert imported, "no python block of the README imports from rigraph"
    assert [name for tree in trees for name in missing_rigraph_names(tree)] == []
