"""CLI tests: subcommands, exit codes, byte-stable outputs."""

import hashlib
import json
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exindex import cli
from exindex.cli import main
from exindex.errors import ConfigError, ExindexError
from exindex.variance import count_second_moment

FIX_ROWS = "5\n1\n6\n2\n0\n7\n"


@pytest.fixture
def fixture_csv(tmp_path):
    path = tmp_path / "fix.csv"
    path.write_text(FIX_ROWS)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_reproducible_csv(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", "--model", "armax", "--alpha", "0.5",
                "--n", "1000", "--seed", "7"]
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        lines = open(a).read().splitlines()
        assert lines[0] == "x"
        assert len(lines) == 1001

    def test_n_zero_is_usage_error(self, tmp_path):
        code = run_cli("simulate", "--model", "iid", "--n", "0", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_n_past_the_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # refused before the path is allocated
        monkeypatch.setattr(cli, "simulate", mock.Mock(side_effect=AssertionError))
        out = tmp_path / "x.csv"
        code = run_cli("simulate", "--model", "iid", "--n", str(10**18), "--seed", "1",
                       "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: --n must be in 1..100000000, got 1000000000000000000\n"
        )
        assert not out.exists()

    def test_model_parameter_required(self, tmp_path):
        code = run_cli("simulate", "--model", "armax", "--n", "10", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli("simulate", "--model", "iid", "--n", "10", "--seed", "-1",
                       "--out", str(out))
        assert code == 2
        assert "config error: --seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, problem",
        [
            (["armax"], "armax needs alpha in (0,1), got None"),
            (["moving-max"], "moving_max needs an integer q >= 1, got None"),
            (["iid", "--alpha", "0.5"], "iid_frechet does not take alpha"),
            (["armax", "--alpha", "0.5", "--q", "2"], "armax does not take q"),
            (["moving-max", "--q", "100000000"], "moving_max needs q <= 1000, got 100000000"),
            (["moving-max", "--q", "10"], "--q must be < --n, got q=10 and n=10"),
        ],
    )
    def test_model_parameters_checked(self, tmp_path, capsys, model, problem):
        out = tmp_path / "x.csv"
        code = run_cli("simulate", "--model", *model, "--n", "10", "--seed", "1",
                       "--out", str(out))
        assert code == 2
        assert f"config error: {problem}" in capsys.readouterr().err
        assert not out.exists()


    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.csv"
        code = run_cli("simulate", "--model", "iid", "--n", "10", "--seed", "1",
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}: ")
        assert err.count("\n") == 1


class TestEstimate:
    def test_sliding_fixture(self, fixture_csv, capsys):
        assert run_cli("estimate", fixture_csv, "--u", "4", "--s", "2",
                       "--method", "sliding") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["theta_hat"] == 1.0
        assert out["method"] == "sliding"
        assert out["n_exceed"] == 2

    def test_runs_fixture(self, fixture_csv, capsys):
        assert run_cli("estimate", fixture_csv, "--u", "4", "--s", "2",
                       "--method", "runs") == 0
        assert json.loads(capsys.readouterr().out)["theta_hat"] == 1.0

    def test_disjoint_fixture(self, fixture_csv, capsys):
        assert run_cli("estimate", fixture_csv, "--u", "4", "--s", "2",
                       "--method", "disjoint") == 0
        assert json.loads(capsys.readouterr().out)["theta_hat"] == 1.5

    def test_rank_sliding_fixture(self, fixture_csv, capsys):
        assert run_cli("estimate", fixture_csv, "--rank-k", "2", "--s", "2",
                       "--method", "sliding") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["theta_hat"] == 0.5
        assert out["u_used"] == 6.0

    def test_clip_unit(self, fixture_csv, capsys):
        assert run_cli("estimate", fixture_csv, "--u", "4", "--s", "2",
                       "--method", "disjoint", "--clip-unit") == 0
        assert json.loads(capsys.readouterr().out)["theta_hat"] == 1.0

    def test_no_exceedances_exit_3_with_json(self, fixture_csv, capsys):
        assert run_cli("estimate", fixture_csv, "--u", "10", "--s", "2") == 3
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": "no_exceedances", "n": 6, "u": 10.0}

    # r = s and r = n are the ends that run (see TestOutputBytes.ESTIMATE_SHA256)
    @pytest.mark.parametrize("r", ["0", "-5", "7", "5001"])
    def test_big_block_outside_s_to_n_exit_2(self, tmp_path, capsys, r):
        sim = str(tmp_path / "p.csv")
        run_cli("simulate", "--model", "iid", "--n", "5000", "--seed", "3", "--out", sim)
        capsys.readouterr()
        assert run_cli("estimate", sim, "--u", "40", "--s", "8", "--stderr", "--r", r) == 2
        assert capsys.readouterr().err == f"config error: --r must lie in s..n = 8..5000, got {r}\n"

    def test_both_thresholds_rejected(self, fixture_csv):
        assert run_cli("estimate", fixture_csv, "--u", "4", "--rank-k", "2",
                       "--s", "2") == 2

    def test_stderr_attached(self, tmp_path, capsys):
        sim = str(tmp_path / "p.csv")
        run_cli("simulate", "--model", "armax", "--alpha", "0.5",
                "--n", "5000", "--seed", "3", "--out", sim)
        assert run_cli("estimate", sim, "--rank-k", "100", "--method", "sliding",
                       "--stderr") == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 < out["stderr_hat"] < 1.0

    def test_stderr_moment_once_per_run(self, tmp_path, capsys, monkeypatch):
        sim = str(tmp_path / "p.csv")
        run_cli("simulate", "--model", "armax", "--alpha", "0.5",
                "--n", "5000", "--seed", "3", "--out", sim)
        calls = []

        def counted(*args):
            calls.append(args)
            return count_second_moment(*args)

        monkeypatch.setattr(cli, "count_second_moment", counted)
        assert run_cli("estimate", sim, "--rank-k", "100", "--method", "all",
                       "--stderr") == 0
        out = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert all(e["stderr_hat"] > 0.0 for e in out["estimates"])

    def test_method_all_rank(self, fixture_csv, capsys):
        assert run_cli("estimate", fixture_csv, "--rank-k", "3", "--s", "2",
                       "--method", "all") == 0
        out = json.loads(capsys.readouterr().out)
        assert [e["method"] for e in out["estimates"]] == [
            "disjoint", "sliding_random_u", "runs",
        ]

    def test_method_all_deterministic(self, fixture_csv, capsys):
        assert run_cli("estimate", fixture_csv, "--u", "4", "--s", "2",
                       "--method", "all") == 0
        out = json.loads(capsys.readouterr().out)
        assert [e["method"] for e in out["estimates"]] == [
            "disjoint", "sliding", "runs",
        ]
        assert [e["theta_hat"] for e in out["estimates"]] == [1.5, 1.0, 1.0]

    def test_nonpositive_threshold_is_usage_error(self, fixture_csv):
        assert run_cli("estimate", fixture_csv, "--u", "0", "--s", "2") == 2

    def test_bad_input_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x\n1.0\nnot-a-number\n")
        assert run_cli("estimate", str(bad), "--u", "1", "--s", "1") == 2

    def test_missing_input_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert run_cli("estimate", missing, "--u", "1", "--s", "1") == 2
        assert f"config error: cannot read {missing}" in capsys.readouterr().err

    def test_header_only_input_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("x\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("estimate", str(empty), "--u", "1", "--s", "1") == 2
        # numpy's "input contained no data" warning stays inside the reader
        assert caught == []
        assert capsys.readouterr().err == f"config error: {empty}: no numeric rows\n"

    def test_non_utf8_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x\n1.5\n\n2\xff\n3\n")
        assert run_cli("estimate", str(bad), "--u", "1", "--s", "1") == 2
        assert capsys.readouterr().err == (
            f"config error: {bad}: line 4 is not UTF-8 text: b'2\\xff'\n"
        )

    def test_unwritable_out_is_usage_error(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "o.json"
        assert run_cli("estimate", fixture_csv, "--u", "4", "--s", "2",
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, problem",
        [
            (["--rank-k", "0"], "--rank-k 0 out of range for n=6"),
            (["--rank-k", "7"], "--rank-k 7 out of range for n=6"),
            (["--u", "4"], "--s is required with --u (no default block length)"),
            (["--u", "4", "--s", "2", "--method", "sliding_random_u"],
             "--method sliding_random_u requires --rank-k"),
        ],
    )
    def test_flag_refusals(self, fixture_csv, capsys, flags, problem):
        assert run_cli("estimate", fixture_csv, *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {problem}\n"

    @pytest.mark.parametrize("threshold", [["--u", "4"], ["--rank-k", "3"]])
    @pytest.mark.parametrize("stderr", [[], ["--stderr"]])
    @pytest.mark.parametrize("s", ["0", "7"])
    def test_block_length_outside_series_exit_2(self, fixture_csv, capsys, threshold,
                                                stderr, s):
        # the estimators refuse s before the plug-in builds its block scheme
        assert run_cli("estimate", fixture_csv, *threshold, "--s", s, "--method", "all",
                       *stderr) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: block length s={s} does not fit series of length 6\n"

    @pytest.mark.parametrize("u", ["nan", "inf", "-inf"])
    def test_nonfinite_threshold_is_usage_error(self, fixture_csv, u, capsys):
        # "--u=" form: argparse would read a bare "-inf" as an option
        assert run_cli("estimate", fixture_csv, f"--u={u}", "--s", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("row", ["nan", "inf", "-Infinity"])
    def test_nonfinite_input_row_is_usage_error(self, tmp_path, row, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x\n1.0\n{row}\n2.0\n")
        assert run_cli("estimate", str(bad), "--u", "1", "--s", "1") == 2
        assert "line 3 is not finite" in capsys.readouterr().err


# one CSV token per line, in the forms users' files take
CSV_TOKEN = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from([repr(v), "%.17g" % v, "%.6e" % v])
    ),
    st.integers(-10**25, 10**25).map(str),
)
PAD = st.sampled_from(["", " ", "\t", " \t", "\t  "])
CSV_ROW = st.one_of(
    st.tuples(PAD, CSV_TOKEN, PAD).map("".join),
    st.sampled_from(["", " ", "\t \t"]),  # blank lines
)


def float_per_line(text):
    """The values a ``float()`` per stripped line reads, the header skipped."""
    toks = [line.strip() for line in text.replace("\r\n", "\n").split("\n")]
    if toks[0] == "x":
        toks = toks[1:]
    return np.array([float(t) for t in toks if t], dtype=np.float64)


class TestReadColumn:
    """``_read_column``: one ``np.loadtxt`` call, the line loop for what it refuses."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.booleans(), st.lists(CSV_ROW, min_size=1, max_size=30),
           st.sampled_from(["\n", "\r\n"]))
    def test_bulk_read_equals_float_per_line(self, tmp_path_factory, header, rows, eol):
        text = eol.join((["x"] if header else []) + rows) + eol
        path = tmp_path_factory.getbasetemp() / "bulk_read.csv"
        path.write_bytes(text.encode())
        want = float_per_line(text)
        if not want.size:
            with pytest.raises(ConfigError, match="no numeric rows"):
                cli._read_column(str(path))
            return
        real_loadtxt, loaded = np.loadtxt, []

        def loadtxt(*args, **kwargs):
            loaded.append(real_loadtxt(*args, **kwargs))
            return loaded[-1]

        with mock.patch.object(np, "loadtxt", loadtxt):
            got = cli._read_column(str(path))
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert loaded and np.shares_memory(got, loaded[0])

    @pytest.mark.parametrize("row, value", [("1_0", 10.0), ("١٢", 12.0)])
    def test_float_syntax_loadtxt_refuses(self, tmp_path, row, value):
        path = tmp_path / "x.csv"
        path.write_text(f"x\n1.5\n{row}\n", encoding="utf-8")
        assert cli._read_column(str(path)).tolist() == [1.5, value]

    def test_whitespace_only_lines_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("x\n1\n \t \n2\n   \n")
        assert cli._read_column(str(path)).tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("row", ["1 2", "1,2", "1 # c", "1,", "0x10"])
    def test_not_a_number(self, tmp_path, capsys, row):
        path = tmp_path / "x.csv"
        path.write_text(f"x\n1.5\n\n{row}\n2\n")
        assert run_cli("estimate", str(path), "--u", "1", "--s", "1") == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: line 4 is not a number: {row!r}\n"
        )

    @pytest.mark.parametrize("text, line, tok", [
        ("x\n1\n\n2\nnan\n", 5, "nan"),
        ("1\ninf\n", 2, "inf"),
        ("x\n-inf\r\n3\r\n", 2, "-inf"),
        ("1e400\n", 1, "1e400"),
    ])
    def test_not_finite(self, tmp_path, capsys, text, line, tok):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        assert run_cli("estimate", str(path), "--u", "1", "--s", "1") == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: line {line} is not finite: {tok!r}\n"
        )

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("text", [
        "x\n1.5\n \t\n-2e-3\r\n7\n",
        "x\n1.5\n\n1 2\n",
        "1\nnan\n",
        "x\n1\n2\xff\n",
        "x\n",
    ])
    def test_pipe_reads_as_a_file(self, tmp_path, capsys, text):
        """A pipe, which cannot be rewound, gives the file's values and messages."""
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode(errors="surrogateescape"))
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())
            os.close(w)
            pipe = f"/dev/fd/{r}"
            code = run_cli("estimate", pipe, "--u", "1", "--s", "1")
            out = capsys.readouterr()
        finally:
            os.close(r)
        assert code == run_cli("estimate", str(path), "--u", "1", "--s", "1")
        want = capsys.readouterr()
        assert out.out == want.out
        assert out.err.replace(pipe, "<csv>") == want.err.replace(str(path), "<csv>")


SMOKE = {
    "schema": 1,
    "model": {"family": "armax", "alpha": 0.5},
    "n": 5000,
    "threshold": {"kind": "rank", "k": 200},
    "s": 4,
    "r": 16,
    "replicates": 10,
    "seed": 20260809,
}

# moving_max models whose series maximum is tied at two points, so that
# the rank-2 random-threshold level is that maximum
TIED_TWICE = ("sliding_random_u needs threshold rank k >= 3, got k=2: nothing strictly "
              "exceeds the series maximum, which the model ties at 2 points")
TIED_MAXIMUM = [
    pytest.param({"family": "moving_max", "q": 1}, TIED_TWICE, id="q1"),
    pytest.param({"family": "moving_max", "q": 2, "weights": [0.4, 0.4, 0.2]}, TIED_TWICE,
                 id="weights_.4_.4_.2"),
]


class TestExperiment:
    def test_smoke_outputs_and_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE))
        code1 = run_cli("experiment", str(cfg), "--out", str(tmp_path / "o1"))
        code2 = run_cli("experiment", str(cfg), "--out", str(tmp_path / "o2"))
        assert code1 == code2
        assert code1 in (0, 1)  # verdicts may fail at smoke scale; exit is defined
        names = ["rows.csv", "stats.csv", "summary.json", "effective_config.json"]
        for name in names:
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b, name
        summary = json.loads((tmp_path / "o1" / "summary.json").read_text())
        assert set(summary["verdicts"]) == {"dominance", "loewner", "equal_law", "normality"}
        rows = (tmp_path / "o1" / "rows.csv").read_text().splitlines()
        assert len(rows) - 1 == SMOKE["replicates"] * 4

    def test_bundled_smoke_config(self, tmp_path):
        import os
        import time

        bundled = os.path.join(os.path.dirname(__file__), "..", "demos",
                               "configs", "armax_smoke.json")
        start = time.time()
        code = run_cli("experiment", bundled, "--out", str(tmp_path / "o"))
        assert time.time() - start < 10.0
        assert code in (0, 1)
        assert (tmp_path / "o" / "rows.csv").exists()
        assert (tmp_path / "o" / "summary.json").exists()

    def test_unknown_keys_listed_exit_2(self, tmp_path, capsys):
        bad = dict(SMOKE)
        bad["typo_key"] = 1
        bad["another"] = 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "typo_key" in err and "another" in err

    @pytest.mark.parametrize(
        "over, problem",
        [
            ({"s": "4"}, "s must be an integer"),
            ({"workers": "2"}, "workers must be an integer"),
            ({"bands": {"var_ratio": "x"}}, "bands.var_ratio must be a number"),
            ({"n": True}, "n must be an integer"),
            ({"estimators": "sliding"}, "estimators must be a list of names"),
        ],
    )
    def test_config_type_errors_exit_2(self, tmp_path, capsys, over, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMOKE, **over, "seed": True}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        # every problem is listed, not just the first
        assert problem in err and "seed must be an integer" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "over",
        [
            {"s": 16, "r": 8},  # s > r
            {"r": 6000},  # r > n
            {"n": 2000, "threshold": {"kind": "rank", "k": 40}, "s": 8, "r": 1000},  # m = 1
        ],
    )
    def test_infeasible_scheme_exit_2(self, tmp_path, capsys, over):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMOKE, **over}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "config error: need" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "over, problem",
        [
            ({"bands": {"var_ratio": float("nan")}}, "bands.var_ratio must be finite and >= 1"),
            ({"bands": {"se_multiplier": float("inf")}},
             "bands.se_multiplier must be finite and >= 0"),
            ({"bands": {"var_ratio": -1}}, "bands.var_ratio must be finite and >= 1"),
            ({"bands": {"normality_max_dev": 0}}, "bands.normality_max_dev must be in (0, 1]"),
            ({"bands": {"normality_max_dev": 1.5}}, "bands.normality_max_dev must be in (0, 1]"),
            ({"bands": {"se_multiplier": -0.5}}, "bands.se_multiplier must be finite and >= 0"),
            ({"model": {"family": "armax", "alpha": 0.5, "q": 3}}, "model: armax does not take q"),
            ({"model": {"family": "armax", "alpha": 0.5, "weights": "ab"}},
             "model: armax does not take weights"),
            ({"estimators": ["sliding", "sliding"]}, "duplicate estimator 'sliding'"),
            ({"functionals": ["block_max", "block_max"]}, "duplicate functional 'block_max'"),
            ({"bands": {"var_ratio": 10**400}}, "bands.var_ratio must be finite and >= 1"),
            ({"model": {"family": "moving_max", "q": 1, "weights": [10**400, 1]}},
             "model: int too large to convert to float"),
            ({"model": {"family": "moving_max", "q": 100000000}},
             "model: moving_max needs q <= 1000, got 100000000"),
            ({"model": {"family": "moving_max", "q": 10**400}}, "model: moving_max needs q <= 1000"),
            ({"n": 800, "threshold": {"kind": "rank", "k": 40},
              "model": {"family": "moving_max", "q": 800}}, "model.q=800 must be < n=800"),
            ({"model": {"family": "moving_max", "q": 1, "weights": [float("nan"), 0.5]}},
             "model: moving_max weights must be 2 positive numbers"),
            ({"model": {"family": "moving_max", "q": 1, "weights": [[0.5], [0.5]]}},
             "model: moving_max weights must be 2 positive numbers"),
            ({"threshold": {"kind": "quantile", "p": 1e-300}},
             "quantile must be in (0,1) with 1 - quantile < 1, got 1e-300"),
            ({"threshold": {"kind": "quantile", "p": 1e-10}},
             "quantile=1e-10 resolves to rank k=5000, out of range for n=5000"),
        ],
    )
    def test_config_value_errors_exit_2(self, tmp_path, capsys, over, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMOKE, **over, "seed": True}))  # NaN, Infinity literals
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"config error: {problem}" in err and "seed must be an integer" in err
        assert "internal error" not in err
        assert not (tmp_path / "o").exists()

    def test_big_block_not_a_multiple_of_s(self, tmp_path):
        # the disjoint plug-in is left out, and its verdicts are skipped
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMOKE, "s": 4, "r": 18}))
        out = tmp_path / "o"
        assert run_cli("experiment", str(cfg), "--out", str(out)) in (0, 1)
        verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
        for name in ("dominance", "loewner"):
            assert verdicts[name] == {"status": "skipped_degenerate",
                                      "reason": "r not a multiple of s"}
        lines = (out / "stats.csv").read_text().splitlines()
        assert lines[0].endswith(",bb_var_sliding,bb_var_disjoint")
        assert len(lines) - 1 == SMOKE["replicates"] * 2
        for line in lines[1:]:
            assert line.endswith(",") and not line.endswith(",,")

    def test_one_problem_per_duplicate(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        names = ["sliding", "runs", "sliding", "runs", "sliding"]
        cfg.write_text(json.dumps({**SMOKE, "estimators": names}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: duplicate estimator 'sliding'",
            "config error: duplicate estimator 'runs'",
        ]

    def test_missing_config_file(self, tmp_path):
        assert run_cli("experiment", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"schema": 1,', "is not valid JSON"),
            ("[1, 2]", "top level must be an object"),
        ],
    )
    def test_unreadable_config_exit_2(self, tmp_path, capsys, text, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_too_many_failed_rows_exit_3(self, tmp_path, capsys):
        # at rank 2 of 5000 about two points exceed the deterministic level,
        # and 5 of the 20 replicates have none, so 15 of the 80 rows fail
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMOKE, "threshold": {"kind": "rank", "k": 2},
                                   "replicates": 20}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "error: " in err and "replicate rows failed" in err
        assert not (tmp_path / "o").exists()

    # rank 1, given or resolved from the quantile (round(5000 * 0.0002) = 1)
    @pytest.mark.parametrize("threshold", [{"kind": "rank", "k": 1},
                                           {"kind": "quantile", "p": 0.9998}])
    def test_rank_one_random_threshold_exit_2(self, tmp_path, capsys, threshold):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMOKE, "threshold": threshold}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "config error: sliding_random_u needs threshold rank k >= 2, got k=1: "
            "nothing strictly exceeds the series maximum\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model, problem", TIED_MAXIMUM)
    def test_rank_in_tied_maximum_exit_2(self, tmp_path, capsys, model, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMOKE, "model": model,
                                   "threshold": {"kind": "rank", "k": 2}}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["file", "file/o"])
    def test_unwritable_out_exit_2_before_the_run(self, tmp_path, capsys, monkeypatch, name):
        (tmp_path / "file").write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE))
        monkeypatch.setattr(cli, "run_experiment", mock.Mock(side_effect=AssertionError))
        out = tmp_path / name
        assert run_cli("experiment", str(cfg), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert (tmp_path / "file").read_text() == ""

    def test_workers_past_the_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMOKE))
        monkeypatch.setattr(cli, "run_experiment", mock.Mock(side_effect=AssertionError))
        out = tmp_path / "o"
        assert run_cli("experiment", str(cfg), "--out", str(out), "--workers", "100000") == 2
        assert capsys.readouterr().err == "config error: workers must be in 1..64, got 100000\n"
        assert not out.exists()

    def test_big_block_equal_to_block_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMOKE, "s": 4, "r": 4}))
        assert run_cli("experiment", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "config error: s=4 >= r=4: small/big block ordering broken\n"
        )
        assert not (tmp_path / "o").exists()


class TestCheck:
    def write_cfg(self, tmp_path, **over):
        raw = dict(SMOKE)
        raw.update(over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_green_configuration(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path, n=50000, threshold={"kind": "rank", "k": 1000}, s=8, r=32
        )
        assert run_cli("check", cfg) == 0
        out = capsys.readouterr().out
        assert "red" not in out and "yellow" not in out

    def test_non_multiple_big_block_yellow(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, s=4, r=18)
        assert run_cli("check", cfg) == 0
        assert "yellow" in capsys.readouterr().out

    def test_inverted_ordering_red(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, s=16, r=8)
        assert run_cli("check", cfg) == 0  # advisory only, always exits 0
        assert "red" in capsys.readouterr().out

    def test_big_block_equal_to_block_red(self, tmp_path, capsys):
        assert run_cli("check", self.write_cfg(tmp_path, s=4, r=4)) == 0
        assert capsys.readouterr().out == (
            "red: s=4 >= r=4: small/big block ordering broken\n"
        )

    @pytest.mark.parametrize("over", [
        {"r": 4}, {"r": 18}, {"r": 16}, {"s": 16, "r": 8},
        {"model": {"family": "moving_max", "q": 1, "weights": [float("nan"), 0.5]}},
        {"threshold": {"kind": "quantile", "p": 1e-300}},
        {"threshold": {"kind": "quantile", "p": 1e-10}},
    ])
    def test_red_exactly_when_experiment_refuses(self, tmp_path, capsys, over):
        cfg = self.write_cfg(tmp_path, **over)
        assert run_cli("check", cfg) == 0
        red = "red:" in capsys.readouterr().out
        code = run_cli("experiment", cfg, "--out", str(tmp_path / "o"))
        assert (code == 2) == red
        assert code in (0, 1, 2)  # a config that gets past the load runs

    def test_too_few_big_blocks_red(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, n=2000, threshold={"kind": "rank", "k": 40},
                             s=8, r=1000)
        assert run_cli("check", cfg) == 0
        assert "red: need m = (n-s+1)//r >= 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "over, red",
        [
            ({"model": {"family": "moving_max", "q": 100000000}},
             "red: model: moving_max needs q <= 1000, got 100000000"),
            ({"model": {"family": "moving_max", "q": 10**400}},
             "red: model: moving_max needs q <= 1000"),
            ({"n": 800, "model": {"family": "moving_max", "q": 800}},
             "red: model.q=800 must be < n=800"),
        ],
    )
    def test_moving_max_window_red(self, tmp_path, capsys, over, red):
        assert run_cli("check", self.write_cfg(tmp_path, **over)) == 0
        assert red in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", [{"kind": "rank", "k": 1},
                                           {"kind": "quantile", "p": 0.9998}])
    def test_rank_one_random_threshold_red(self, tmp_path, capsys, threshold):
        assert run_cli("check", self.write_cfg(tmp_path, threshold=threshold)) == 0
        assert capsys.readouterr().out == (
            "red: sliding_random_u needs threshold rank k >= 2, got k=1: "
            "nothing strictly exceeds the series maximum\n"
        )

    @pytest.mark.parametrize("model, problem", TIED_MAXIMUM)
    def test_rank_in_tied_maximum_red(self, tmp_path, capsys, model, problem):
        cfg = self.write_cfg(tmp_path, model=model, threshold={"kind": "rank", "k": 2})
        assert run_cli("check", cfg) == 0
        assert capsys.readouterr().out == f"red: {problem}\n"

    @pytest.mark.parametrize("over, red", [
        ({"n": 10**18}, "red: n must be in 2..100000000, got 1000000000000000000"),
        ({"replicates": 10**18}, "red: replicates must be in 2..1000000, got 1000000000000000000"),
        ({"threshold": {"kind": "quantile", "p": 1e-10}},
         "red: quantile=1e-10 resolves to rank k=5000, out of range for n=5000"),
        ({"workers": 100_000}, "red: workers must be in 1..64, got 100000"),
    ])
    def test_sizes_and_ranks_past_their_caps_red(self, tmp_path, capsys, over, red):
        assert run_cli("check", self.write_cfg(tmp_path, **over)) == 0
        assert capsys.readouterr().out == red + "\n"

    def test_bad_band_red(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, bands={"var_ratio": float("nan")})
        assert run_cli("check", cfg) == 0
        assert "red: bands.var_ratio must be finite and >= 1, got nan" in capsys.readouterr().out


class TestInternalError:
    """Exit 4 is for what no subcommand refuses on purpose: a bug."""

    @pytest.mark.parametrize("exc, message", [
        (RuntimeError("boom"), "internal error: RuntimeError: boom"),
        (ExindexError("unmapped state"), "internal error: unmapped state"),
    ])
    def test_unmapped_error_exits_4(self, tmp_path, capsys, monkeypatch, exc, message):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_check", fail)
        assert run_cli("check", str(tmp_path / "cfg.json")) == 4
        assert capsys.readouterr().err == message + "\n"


class TestOutputBytes:
    """The bytes ``simulate`` and ``estimate`` write, pinned at small n.

    Recorded before the CLI wrote its CSV in one streaming call and built
    its JSON entries from the estimate's fields.  A change that moves them
    on purpose records the new digests here and says why in CHANGES.md.
    """

    SIMULATE_SHA256 = {
        "armax": "9236bac82a681ff6b2e417459593632162e354ff8888f3c62d9f7def6b7d29ac",
        "iid": "6064aafb6ceab690f8997125c6721d7654d2eec4ab66a021780e702a82d4faa4",
        "moving-max": "26dd903abe21c96e6047bda32051de365dfbc9175f2f5c37070eb0fbafb98dd6",
    }
    MODEL_FLAGS = {"armax": ["--alpha", "0.5"], "iid": [], "moving-max": ["--q", "2"]}
    # armax, seed 3, n = 2 * 65536 + 3; recorded before the writer formatted chunks
    CHUNKED_SIMULATE_SHA256 = "ea79c748722a2e6796eba6eba322227f710fa4dba7bd0e00e9572613a07e10f0"

    ESTIMATE_SHA256 = {
        ("--rank-k", "100", "--method", "all", "--stderr"):
            "1919cf956fc6b5235894d78587aee0fc1634e585f8738f78461fd4b7fcd5beb8",
        ("--rank-k", "100"):
            "709f18de09ec85f79bd1057d9cf3468cfbcfe8eaf259236736e7081ad847b10f",
        ("--rank-k", "100", "--method", "sliding_random_u", "--stderr", "--r", "64"):
            "fbd94646d951d3b0c58afae0f5ac55937ce77a95f999771cb946e8004e5db883",
        ("--rank-k", "100", "--s", "5", "--method", "all", "--denominator", "full"):
            "cf724ece2839e4c1dce64e147043aaea4a6dc5f9e46eeef2dd978d67a098df34",
        ("--u", "40", "--s", "8", "--method", "all", "--stderr"):
            "e66159abe9ae64c4b3eeb5a4610747b393718e554a6f1409e1489905f735aabf",
        ("--u", "40", "--s", "8", "--method", "disjoint", "--denominator", "full",
         "--stderr"):
            "0a37bd4def9d0168dba576139c5d0b98e9e2e0428902c1708342fd753b23df95",
        ("--u", "40", "--s", "8", "--method", "runs", "--clip-unit"):
            "1da35912c82bd8e78cd2138cb71842840592a49dde927616e5ce6ece2e37edca",
        ("--u", "40", "--s", "3", "--method", "all", "--denominator", "full",
         "--clip-unit", "--stderr"):
            "d1dc56575ddf195f6bb88f424e9f1930abd7dcc067043447df9070a619b0ab91",
        # r = n leaves no complete big block, so no stderr is attached
        ("--u", "40", "--s", "8", "--method", "sliding", "--stderr", "--r", "5000"):
            "8c7dfb85314395bd38d5b4f99913d240c985e132d771d34c2fef8afeef13a6ce",
        # theta_hat 1.5 before clipping (the six-point fixture)
        ("--u", "4", "--s", "2", "--method", "all", "--clip-unit", "--stderr",
         "--r", "2"):
            "4b1347e3a8985411f0b8a3bd8db23c9796a7f0b5a113fd1d1a282c853009d668",
    }

    @staticmethod
    def sha256(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    def simulate(self, tmp_path, model, n=5000, seed=3):
        out = str(tmp_path / f"{model}.csv")
        assert run_cli("simulate", "--model", model, *self.MODEL_FLAGS[model],
                       "--n", str(n), "--seed", str(seed), "--out", out) == 0
        return out

    @pytest.mark.parametrize("model", list(SIMULATE_SHA256))
    def test_simulate_csv_bytes(self, tmp_path, model):
        assert self.sha256(self.simulate(tmp_path, model)) == self.SIMULATE_SHA256[model]

    def test_simulate_csv_bytes_across_chunks(self, tmp_path):
        # two whole chunks of the writer and a remainder
        n = 2 * 65_536 + 3
        assert n > 2 * cli._CHUNK
        out = self.simulate(tmp_path, "armax", n=n)
        assert self.sha256(out) == self.CHUNKED_SIMULATE_SHA256

    @pytest.mark.parametrize("flags", list(ESTIMATE_SHA256))
    def test_estimate_json_bytes(self, tmp_path, capsys, fixture_csv, flags):
        # --u 4 runs on the six-point fixture, every other flag set on an armax path
        csv = fixture_csv if flags[:2] == ("--u", "4") else self.simulate(tmp_path, "armax")
        out = str(tmp_path / "est.json")
        assert run_cli("estimate", csv, *flags, "--out", out) == 0
        assert run_cli("estimate", csv, *flags) == 0
        assert capsys.readouterr().out.encode() == open(out, "rb").read()
        assert self.sha256(out) == self.ESTIMATE_SHA256[flags], open(out).read()
