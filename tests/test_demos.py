"""Each narrative script under ``demos/`` runs to completion.

The demos call the public API the way a reader would, so a deleted or
renamed name they use fails here rather than in front of that reader.
Each script runs in its own interpreter, from an empty directory, with
the package source first on the path.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_0(tmp_path, script):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
