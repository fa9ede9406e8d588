"""Every example script runs to completion.

Each ``examples/*.py`` is run in its own interpreter, from the repository
root with ``src`` on ``PYTHONPATH`` (how their docstrings say to run
them), and must exit 0.  An example that uses a removed option or name
fails here instead of silently rotting.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
