"""Every script in demos/ and every Python example in the README runs to
completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    # run from the repository root with <root>/src ahead of the inherited
    # PYTHONPATH, so the demos import this checkout's package
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run():
    # the README's examples run in order in one namespace, as a reader
    # following them would
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(),
                        re.S | re.M)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
