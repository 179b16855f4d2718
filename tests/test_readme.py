"""The Python examples of README.md run, in order and in one namespace, in
a fresh interpreter that turns UserWarning and RuntimeWarning into errors."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Runs every ```python block of README.md, in order, in one namespace.
SCRIPT = r'''
import re
text = open("README.md", encoding="utf-8").read()
blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
assert blocks, "no python blocks in README.md"
namespace = {}
for block in blocks:
    exec(block, namespace)
print(f"{len(blocks)} README python blocks ran")
'''


def test_readme_python_examples_run_without_warnings():
    run = subprocess.run(
        [sys.executable, "-W", "error::UserWarning",
         "-W", "error::RuntimeWarning", "-c", SCRIPT],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith(" README python blocks ran\n")
