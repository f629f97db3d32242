"""Fuzz ``exindex estimate`` with small CSVs and flag sets, in process.

Every run must exit 0, 2 or 3, never the 4 of an internal error.  Exit 0
prints one JSON object: one estimate, or ``{"estimates": [...]}`` for
``--method all``.  With ``--stderr``, either every estimate carries a
``stderr_hat`` or none does and one ``note:`` line on stderr says that
``--r`` leaves no complete big block.  Files have at most a few hundred
rows and every length flag is bounded by a few hundred, so no example
allocates a large array.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exindex.cli import main
from exindex.estimators import ThetaEstimate
from exindex.harness import METHODS

FIELDS = {f.name for f in fields(ThetaEstimate)}

NUMBERS = st.one_of(
    st.integers(-3, 20).map(str),  # ties and exceedances of small levels
    st.floats(0.0, 100.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "5e-324", "-0.0", " 7 ", "+3", "1_000", ".5"]),
).map(str.encode)
# rows that are not one finite number, and lines that are skipped
ODD = st.sampled_from([
    b"nan", b"inf", b"-inf", b"Infinity", b"abc", b"0x10", b"1,2", b"1 2", b"1\t2",
    b"\xff\xfe", b"3\xe9", b"x", b"", b"   ", b"\t",
])


@st.composite
def cases(draw):
    """A small CSV and a flag set for it.  The file is mostly numbers, with
    an optional ``x`` header, LF or CRLF line ends and, now and then, odd
    lines at random places.  Most flags fit the file: one threshold, a
    level among its positive values, and k, s and r in range."""

    def rarely():  # one time in sixteen; the common case is the one that shrinks
        return draw(st.integers(0, 15)) == 15

    def fitting(lo, hi, wide):
        return draw(st.integers(*wide) if rarely() else st.integers(lo, hi))

    rows = draw(st.lists(NUMBERS, min_size=1, max_size=300))
    values, n = [float(row) for row in rows], len(rows)
    if rarely():
        for _ in range(draw(st.integers(1, 2))):
            rows.insert(draw(st.integers(0, len(rows))), draw(ODD))
    if draw(st.booleans()):
        rows.insert(0, b"x")
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    data = eol.join(rows) + (eol if draw(st.booleans()) else b"")

    flags = []
    kind = draw(st.sampled_from(["both", "none"] if rarely() else ["u", "rank"]))
    if kind in ("u", "both"):
        levels = sorted({v for v in values if v > 0.0})[:-1] or [0.5]  # below the maximum
        u = draw(st.floats() if rarely() else st.sampled_from(levels))
        flags.append(f"--u={u!r}")
    if kind in ("rank", "both"):  # rank 1 is the maximum, which nothing exceeds
        flags.append(f"--rank-k={fitting(min(2, n), n, (-2, 320))}")
    s = fitting(1, n, (-2, 320)) if kind != "rank" or draw(st.booleans()) else None
    if s is not None and not rarely():  # --u needs --s
        flags.append(f"--s={s}")
    if draw(st.booleans()):
        flags.append(f"--r={fitting(s if s and 1 <= s <= n else 1, n, (-2, 400))}")
    flags.append(f"--method={draw(st.sampled_from([*METHODS, 'all']))}")
    if draw(st.booleans()):
        flags.append(f"--denominator={draw(st.sampled_from(['trimmed', 'full']))}")
    for switch in ("--clip-unit", "--stderr"):
        if draw(st.booleans()):
            flags.append(switch)
    return data, flags


def run_estimate(data: bytes, flags: list[str]):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["estimate", path, *flags])
    return code, out.getvalue(), err.getvalue()


# r = 4 leaves no complete big block of a 6-point series at s = 4: m = (6 - 4 + 1) // 4 = 0
@example((b"5\n1\n6\n2\n0\n7\n", ["--u=1.0", "--s=4", "--r=4", "--stderr"]))
@settings(max_examples=300)
@given(cases())
def test_estimate_exits_0_2_or_3_and_prints_json(case):
    data, flags = case
    code, out, err = run_estimate(data, flags)
    assert code in (0, 2, 3), err
    if code == 2:
        assert out == "" and err.startswith("config error: "), (out, err)
        return
    if code == 3:  # the estimators' level has no exceedance
        assert json.loads(out)["error"] == "no_exceedances"
        return
    payload = json.loads(out)
    assert isinstance(payload, dict)
    rows = payload["estimates"] if "--method=all" in flags else [payload]
    assert rows and all(set(row) - {"stderr_hat"} == FIELDS for row in rows)
    if "--clip-unit" in flags:
        assert all(0.0 <= row["theta_hat"] <= 1.0 for row in rows)
    noted = err.startswith("note: no stderr_hat: ")
    assert err.count("\n") == noted and ("--stderr" in flags or not noted), err
    # with --stderr every row has a stderr_hat, unless the note says none fits
    want = "--stderr" in flags and not noted
    assert all(("stderr_hat" in row) == want for row in rows)
    assert all(math.isfinite(row["stderr_hat"]) and row["stderr_hat"] >= 0.0
               for row in rows if want)
    r = [int(f[4:]) for f in flags if f.startswith("--r=")]
    if "--stderr" in flags and r:  # m = (n - s + 1) // r big blocks; the note is m = 0
        n, s = rows[0]["n"], rows[0]["s"]
        assert noted == ((n - s + 1) // r[0] == 0), (n, s, r)
