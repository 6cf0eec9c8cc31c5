"""The README's ``python`` blocks import names from ``rigraph``; this checks,
by parsing them, that each of those names, each attribute read off one and
each keyword passed to one still exists, so a public name cannot be removed
while the README still shows it.  It also runs each block in a fresh
process, so every call the README shows still works as shown, and pins its
sweep config block to the shipped ``scripts/zero_one.json``."""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

from conftest import missing_rigraph_names

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_names_from_rigraph_exist():
    trees = [ast.parse(block) for block in BLOCKS]
    imported = [node for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rigraph")]
    assert imported, "no python block of the README imports from rigraph"
    assert [name for tree in trees for name in missing_rigraph_names(tree)] == []


def test_readme_sweep_config_is_the_shipped_one():
    # the schema-1 example is the zero-one experiment that scripts/zero_one.json defines
    [block] = re.findall(r"^```json\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert json.loads(block) == json.loads((README.parent / "scripts" / "zero_one.json").read_text())


def test_readme_python_blocks_run(tmp_path):
    src = str(README.parent / "src")
    for block in BLOCKS:
        code = f"import sys\nsys.path.insert(0, {src!r})\n{block}"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
