"""Fuzz ``exindex simulate`` flags, in process.

Every run must exit 0 or 2, never print ``internal error``.  Exit 0
writes a CSV that reads back, bit for bit, as ``simulate()`` of the same
model, length and seed.  ``--alpha`` ranges over every float (nan, the
infinities, 0, 1 and subnormals included), ``--q`` over ints at or below
0, past the moving-max cap and at or past n, ``--seed`` over negative ints
and ints past 2^64, and ``--out`` is now and then a directory.  n is 1..2000
or past ``_MAX_N``, which is refused before the path is allocated, so no
example allocates a large array.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exindex.cli import main
from exindex.harness import _MAX_N
from exindex.models import _MAX_Q, ModelSpec, simulate

FAMILIES = {"iid": "iid_frechet", "armax": "armax", "moving-max": "moving_max"}

ALPHAS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(),  # nan and the infinities
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53]),
)


@st.composite
def cases(draw):
    """A flag set for ``simulate``: each parameter mostly fits its model,
    and now and then it is missing, extra or out of range."""

    def rarely():  # one time in eight; the common case is the one that shrinks
        return draw(st.integers(0, 7)) == 7

    model = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(_MAX_N + 1, 2**70) if rarely() else st.integers(1, 2000))
    flags = [f"--model={model}", f"--n={n}"]
    if (model == "armax") != rarely():
        flags.append(f"--alpha={draw(ALPHAS)!r}")
    if (model == "moving-max") != rarely():
        q = draw(st.one_of(st.integers(-3, 0), st.integers(_MAX_Q + 1, 2**70),
                           st.integers(n, n + 3)) if rarely() else st.integers(1, 4))
        flags.append(f"--q={q}")
    seed = draw(st.one_of(st.integers(-(2**70), -1), st.integers(2**64, 2**70))
                if rarely() else st.integers(0, 2**32))
    flags.append(f"--seed={seed}")
    return flags, rarely()


def run_simulate(flags, to_directory):
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp if to_directory else os.path.join(tmp, "x.csv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", *flags, f"--out={path}"])
        x = np.loadtxt(path, skiprows=1, ndmin=1) if code == 0 else None
    return code, out.getvalue(), err.getvalue(), x


@example((["--model=armax", "--n=5", "--alpha=nan", "--seed=1"], False))
@example((["--model=armax", "--n=5", "--alpha=5e-324", f"--seed={2**64 + 1}"], False))
@example((["--model=moving-max", "--n=5", "--q=5", "--seed=1"], False))
@example((["--model=iid", "--n=5", "--seed=1"], True))
@settings(max_examples=150, deadline=None)
@given(cases())
def test_simulate_exits_0_or_2_and_writes_the_path(case):
    flags, to_directory = case
    code, out, err, x = run_simulate(flags, to_directory)
    assert code in (0, 2), err
    assert "internal error" not in err and out == "", (out, err)
    if code == 2:
        assert err.startswith("config error: "), err
        return
    opts = dict(f[2:].split("=", 1) for f in flags)
    spec = ModelSpec(FAMILIES[opts["model"]],
                     alpha=float(opts["alpha"]) if "alpha" in opts else None,
                     q=int(opts["q"]) if "q" in opts else None)
    want = simulate(spec, int(opts["n"]), int(opts["seed"]))
    assert x.tobytes() == want.tobytes()
