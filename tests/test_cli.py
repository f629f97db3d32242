"""CLI tests: subcommands, exit codes, byte-stable outputs."""

import hashlib
import json

import pytest

from exindex.cli import main

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

    def test_model_parameter_required(self, tmp_path):
        code = run_cli("simulate", "--model", "armax", "--n", "10", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

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

    def test_bad_band_red(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, bands={"var_ratio": float("nan")})
        assert run_cli("check", cfg) == 0
        assert "red: bands.var_ratio must be finite and >= 1, got nan" in capsys.readouterr().out


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

    @pytest.mark.parametrize("flags", list(ESTIMATE_SHA256))
    def test_estimate_json_bytes(self, tmp_path, capsys, fixture_csv, flags):
        # --u 4 runs on the six-point fixture, every other flag set on an armax path
        csv = fixture_csv if flags[:2] == ("--u", "4") else self.simulate(tmp_path, "armax")
        out = str(tmp_path / "est.json")
        assert run_cli("estimate", csv, *flags, "--out", out) == 0
        assert run_cli("estimate", csv, *flags) == 0
        assert capsys.readouterr().out.encode() == open(out, "rb").read()
        assert self.sha256(out) == self.ESTIMATE_SHA256[flags], open(out).read()
