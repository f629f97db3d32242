"""The standard normal CDF port and the numpy-only dependency it buys.

``exindex._ndtr.ndtr`` must return scipy.special.ndtr's float, bit for
bit, on both sides of every branch cut; the normality diagnostic that
uses it keeps its pinned floats; and importing exindex loads no scipy.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from exindex import normality_diagnostic
from exindex._ndtr import ndtr
from exindex.models import stream


def _cut_grid() -> list[float]:
    """+-0, the branch cuts a = +-1, +-sqrt(2), +-8*sqrt(2), the underflow
    region +-38, and the 20 floats on either side of each."""
    centers = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 38.0]
    grid = [0.0, -0.0]
    for c in centers + [-c for c in centers]:
        grid.append(c)
        for direction in (math.inf, -math.inf):
            v = c
            for _ in range(20):
                v = math.nextafter(v, direction)
                grid.append(v)
    return grid


def test_matches_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    a = np.concatenate([_cut_grid(), stream(91).standard_normal(100_000)])
    want = special.ndtr(a)
    got = np.array([ndtr(v) for v in a.tolist()])
    mismatch = want.view(np.int64) != got.view(np.int64)
    assert not mismatch.any(), a[mismatch][:10]


def test_branch_values():
    assert ndtr(0.0) == 0.5
    assert ndtr(-38.0) == 0.0  # erfc underflow
    assert ndtr(38.0) == 1.0
    assert ndtr(-math.inf) == 0.0
    assert ndtr(math.inf) == 1.0
    assert math.isnan(ndtr(math.nan))


# float.hex of (mean, sd, max_cdf_dev) as scipy.special.ndtr gave them
PINS = {
    "normal": ("-0x1.57b376ee2a3f4p-7", "0x1.08cd21430b592p+0", "0x1.c97ca3a541ce0p-6"),
    "cauchy": ("-0x1.6595cc8057466p-1", "0x1.37ef9d06d0f91p+5", "0x1.40a1be3fbd60dp-2"),
    "grid": ("0x1.0410410410410p-53", "0x1.fb9100bca6318p+2", "0x1.9f9764bc59178p-3"),
}


def _sample(name: str) -> np.ndarray:
    if name == "normal":
        return stream(31).standard_normal(500)
    if name == "cauchy":
        return stream(32).standard_cauchy(400)
    # centered values in every branch, the erfc underflow included
    return np.concatenate([np.linspace(-3.0, 3.0, 120), [-60.0, -12.0, -2.0, 2.0, 12.0, 60.0]])


@pytest.mark.parametrize("name", sorted(PINS))
def test_normality_diagnostic_pins(name):
    diag = normality_diagnostic(_sample(name))
    assert (diag.mean.hex(), diag.sd.hex(), diag.max_cdf_dev.hex()) == PINS[name]


def test_import_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = "import sys, exindex, exindex.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
