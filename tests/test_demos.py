"""Each narrative script under ``demos/``, and the README's ``python``
code blocks, run to completion.

The demos and the README call the public API the way a reader would, so
a deleted or renamed name they use fails here rather than in front of
that reader.  Each script runs in its own interpreter, from an empty
directory, with the package source first on the path; the README's
blocks run in order as one script.
"""

import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
with open(os.path.join(ROOT, "README.md")) as _fh:
    README_PYTHON = re.findall(r"^```python\n(.*?)^```", _fh.read(), re.S | re.M)


def run_python(args, cwd):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_0(tmp_path, script):
    done = run_python([script], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_python_blocks_exit_0(tmp_path):
    assert README_PYTHON
    done = run_python(["-c", "\n".join(README_PYTHON)], tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
