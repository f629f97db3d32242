"""Harness tests: plumbing, determinism, verdict machinery, diagnostics."""

import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exindex import harness
from exindex.errors import ConfigError, HarnessAbort, InsufficientSampleError
from exindex.harness import (
    Bands,
    ExperimentConfig,
    FunctionalRow,
    ReplicateRow,
    equal_limit_law_check,
    load_csv,
    loewner_check,
    normality_diagnostic,
    run_experiment,
    summarize,
    variance_dominance_check,
    write_csv,
)
from exindex.models import ModelSpec, stream


def small_cfg(**over):
    base = dict(
        model=ModelSpec.armax(0.5),
        n=4000,
        replicates=30,
        seed=77,
        rank_k=120,
        s=4,
        r=16,
    )
    base.update(over)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def small_result():
    return run_experiment(small_cfg())


RANK_ONE = ("sliding_random_u needs threshold rank k >= 2, got k=1: "
            "nothing strictly exceeds the series maximum")


class TestConfig:
    def test_defaults_follow_policy(self):
        cfg = ExperimentConfig(
            model=ModelSpec.armax(0.5), n=50000, replicates=10, seed=1, rank_k=1000
        )
        assert cfg.s_resolved == 8  # ceil(sqrt(50000/1000))
        assert cfg.r_resolved == 32  # nearest multiple of s to sqrt(n*v)
        assert cfg.v_nominal == pytest.approx(0.02)

    def test_quantile_policy(self):
        cfg = ExperimentConfig(
            model=ModelSpec.iid(), n=1000, replicates=5, seed=1, quantile=0.98
        )
        assert cfg.k_rank == 20
        assert cfg.v_nominal == pytest.approx(0.02)

    def test_quantile_policy_runs_end_to_end(self):
        cfg = ExperimentConfig(
            model=ModelSpec.armax(0.5), n=4000, replicates=20, seed=6,
            quantile=0.97, s=4, r=16,
        )
        result = run_experiment(cfg)
        u_det = cfg.model.marginal_quantile(0.97)
        det_rows = [r for r in result.rows if r.method == "sliding"]
        rand_rows = [r for r in result.rows if r.method == "sliding_random_u"]
        assert all(r.u_used == u_det for r in det_rows)
        # rank threshold resolves per replicate, so levels vary around u_det
        assert len({r.u_used for r in rand_rows}) > 1

    def test_validation_collects_problems(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(
                model=ModelSpec.iid(), n=1, replicates=1, seed=-1, rank_k=None
            )
        assert len(exc.value.problems) >= 3

    def test_bools_are_not_integers(self):
        with pytest.raises(ConfigError) as exc:
            small_cfg(n=True, s=False, workers=True)
        assert exc.value.problems == [
            "n must be an integer, got True",
            "workers must be an integer, got True",
            "s must be an integer, got False",
        ]

    @pytest.mark.parametrize(
        "over, problem",
        [
            (dict(s=20, r=16), "need 1 <= s <= r <= n, got s=20, r=16, n=4000"),
            (dict(s=0), "need 1 <= s <= r <= n, got s=0, r=16, n=4000"),
            (dict(r=4001), "need 1 <= s <= r <= n, got s=4, r=4001, n=4000"),
            (dict(r=2000), "need m = (n-s+1)//r >= 2 big blocks, got m=1"),
            (dict(r=4), "s=4 >= r=4: small/big block ordering broken"),
        ],
    )
    def test_infeasible_scheme_rejected_at_load(self, over, problem):
        with pytest.raises(ConfigError) as exc:
            small_cfg(**over)
        (got,) = exc.value.problems
        assert got.startswith(problem)

    @pytest.mark.parametrize(
        "over, problem",
        [
            (dict(rank_k=4000), "rank_k=4000 out of range for n=4000"),
            (dict(estimators=()), "estimator set must not be empty"),
            (dict(rank_k=1), RANK_ONE),
            # a quantile resolves to rank round(n * (1 - p)) = round(0.8) = 1
            (dict(rank_k=None, quantile=0.9998), RANK_ONE),
            # round(4000 * (1 - 1e-10)) = 4000, the rank that rank_k=4000 is refused at
            (dict(rank_k=None, quantile=1e-10),
             "quantile=1e-10 resolves to rank k=4000, out of range for n=4000"),
        ],
    )
    def test_refused_at_load(self, over, problem):
        with pytest.raises(ConfigError) as exc:
            small_cfg(**over)
        assert exc.value.problems == [problem]

    @pytest.mark.parametrize("q", [1, 3])
    def test_rank_past_tied_maximum_loads(self, q):
        # equal weights tie the series maximum at q+1 points
        model = ModelSpec.moving_max(q)
        assert model.max_ties == q + 1
        assert small_cfg(model=model, rank_k=q + 2).k_rank == q + 2
        with pytest.raises(ConfigError) as exc:
            small_cfg(model=model, rank_k=q + 1)
        assert exc.value.problems == [
            f"sliding_random_u needs threshold rank k >= {q + 2}, got k={q + 1}: nothing "
            f"strictly exceeds the series maximum, which the model ties at {q + 1} points"
        ]

    def test_max_ties(self):
        assert ModelSpec.armax(0.5).max_ties == ModelSpec.iid().max_ties == 1
        assert ModelSpec.moving_max(2, [0.5, 0.3, 0.2]).max_ties == 1
        assert ModelSpec.moving_max(2, [0.4, 0.4, 0.2]).max_ties == 2

    def test_rank_one_runs_without_the_random_threshold(self):
        assert small_cfg(rank_k=1, estimators=("sliding", "runs")).k_rank == 1

    def test_bands_checked_on_construction(self):
        with pytest.raises(ConfigError) as exc:
            Bands(var_ratio=float("nan"), normality_max_dev=2.0, se_multiplier=-1.0)
        assert exc.value.problems == [
            "bands.var_ratio must be finite and >= 1, got nan",
            "bands.normality_max_dev must be in (0, 1], got 2.0",
            "bands.se_multiplier must be finite and >= 0, got -1.0",
        ]
        assert Bands(var_ratio=1.0, normality_max_dev=1.0, se_multiplier=0.0).var_ratio == 1.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError) as exc:
            small_cfg(estimators=("sliding", "runs", "sliding"),
                      functionals=("block_max", "block_max"))
        assert exc.value.problems == [
            "duplicate estimator 'sliding'",
            "duplicate functional 'block_max'",
        ]

    SMALL_RAW = {
        "schema": 1,
        "model": {"family": "armax", "alpha": 0.5},
        "n": 4000,
        "threshold": {"kind": "rank", "k": 120},
        "s": 4,
        "r": 16,
        "replicates": 30,
        "seed": 77,
    }

    def test_from_dict_round_trip(self):
        assert ExperimentConfig.from_dict(self.SMALL_RAW) == small_cfg()

    def test_from_dict_rejects_unknown_keys(self):
        raw = {
            "schema": 1,
            "model": {"family": "armax", "alpha": 0.5, "beta": 1},
            "n": 100,
            "threshold": {"kind": "rank", "k": 5, "extra": 0},
            "replicates": 5,
            "seed": 0,
            "bogus": True,
        }
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        msg = "\n".join(exc.value.problems)
        assert "bogus" in msg and "beta" in msg and "extra" in msg

    def test_from_dict_rejects_bad_schema(self):
        for schema in (2, True, 1.0):  # true and 1.0 compare equal to 1
            with pytest.raises(ConfigError) as exc:
                ExperimentConfig.from_dict({**self.SMALL_RAW, "schema": schema})
            assert exc.value.problems == [f"schema must be 1, got {schema!r}"]

    @pytest.mark.parametrize("over, problem", [
        ({"n": 10**18}, "n must be in 2..100000000, got 1000000000000000000"),
        ({"replicates": 10**18}, "replicates must be in 2..1000000, got 1000000000000000000"),
        ({"n": 10**400}, "n must be in 2..100000000"),
        ({"workers": 100_000}, "workers must be in 1..64, got 100000"),
        ({"workers": 0}, "workers must be in 1..64, got 0"),
    ])
    def test_from_dict_refuses_sizes_past_the_caps(self, over, problem):
        # refused at load: nothing the size of n or of the replicates is allocated
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({**self.SMALL_RAW, **over})
        (got,) = exc.value.problems
        assert got.startswith(problem)

    @pytest.mark.parametrize("over, problem", [
        ({"model": 5}, "model must be an object"),
        ({"bands": []}, "bands must be an object"),
        ({"threshold": 5},
         "threshold must be an object with kind 'rank' or 'quantile', got 5"),
        ({"threshold": {"kind": "rank"}}, "threshold.k must be given"),
        ({"threshold": {"kind": "quantile", "p": None}}, "threshold.p must be given"),
    ])
    def test_from_dict_names_the_json_member(self, over, problem):
        # once, and without the constructor's line on rank_k and quantile
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({**self.SMALL_RAW, **over})
        assert exc.value.problems == [problem]

    def test_constructor_keeps_its_threshold_message(self):
        with pytest.raises(ConfigError) as exc:
            small_cfg(rank_k=None)
        assert exc.value.problems == ["exactly one of rank_k and quantile must be given"]

    def test_effective_config_is_json_ready(self):
        resolved = small_cfg().resolved()
        text = json.dumps(resolved, sort_keys=True)
        assert "derived" in resolved and "advisories" in resolved["derived"]
        assert json.loads(text) == resolved


class TestSparseReplicate:
    """A replicate kept from its exceedances alone (``simulate(...,
    above=low)``) against the dense reference: the same replicate with no
    point kept, which sends it to the whole path where it reads a rank
    level, and otherwise handed every point of its path as its draw."""

    @staticmethod
    def _replicates(cfg, monkeypatch, keep):
        calls = {"above": 0, "path": 0}
        simulate = harness.simulate

        def counted(spec, n, seed, above=None):
            calls["path" if above is None else "above"] += 1
            if above is None or keep:
                return simulate(spec, n, seed, above=above)
            if "sliding_random_u" in cfg.estimators:
                return np.empty(0, dtype=np.int64), np.empty(0)
            return np.arange(n), simulate(spec, n, seed)

        with monkeypatch.context() as mp:
            mp.setattr(harness, "simulate", counted)
            return [harness._replicate(cfg, rep) for rep in range(cfg.replicates)], calls

    @pytest.mark.parametrize("over", [
        {},
        {"model": ModelSpec.iid()},
        {"model": ModelSpec.moving_max(2, weights=(0.4, 0.4, 0.2)), "rank_k": 60},
        {"rank_k": None, "quantile": 0.98},
        {"estimators": ("disjoint", "sliding", "runs")},
    ], ids=["armax", "iid", "moving_max_tied", "quantile", "no_rank_estimator"])
    def test_rows_and_stats_equal_the_dense_reference(self, monkeypatch, over):
        cfg = small_cfg(replicates=6, **over)
        sparse, calls = self._replicates(cfg, monkeypatch, keep=True)
        assert calls == {"above": cfg.replicates, "path": 0}
        dense, calls = self._replicates(cfg, monkeypatch, keep=False)
        path = cfg.replicates if "sliding_random_u" in cfg.estimators else 0
        assert calls == {"above": cfg.replicates, "path": path}
        assert sparse == dense

    def test_too_few_points_kept_falls_back_to_the_path(self, monkeypatch):
        # at 2k >= n the draw level is u_det, which about k points exceed:
        # some replicates keep k or more of them and the others fall back
        cfg = small_cfg(model=ModelSpec.iid(), n=20, rank_k=10, s=2, r=4, replicates=40)
        sparse, calls = self._replicates(cfg, monkeypatch, keep=True)
        assert 0 < calls["path"] < cfg.replicates
        dense, _ = self._replicates(cfg, monkeypatch, keep=False)
        assert sparse == dense

    def test_no_exceedance_is_drawn_once(self, monkeypatch):
        # without sliding_random_u no rank level is read: a replicate with no
        # point above u_det keeps its empty draw and fails its rows on it
        cfg = small_cfg(model=ModelSpec.iid(), n=20, rank_k=1, s=2, r=4, seed=1,
                        replicates=100, estimators=("disjoint", "sliding", "runs"))
        sparse, calls = self._replicates(cfg, monkeypatch, keep=True)
        assert calls == {"above": 100, "path": 0}
        assert sum(row.status == "failed" for rows, _ in sparse for row in rows) == 111
        dense, _ = self._replicates(cfg, monkeypatch, keep=False)
        assert sparse == dense


class TestRunExperiment:
    def test_row_counts(self, small_result):
        cfg = small_result.config
        assert len(small_result.rows) == cfg.replicates * len(cfg.estimators)
        assert len(small_result.stats) == cfg.replicates * len(cfg.functionals)
        by_method = {}
        for row in small_result.rows:
            by_method.setdefault(row.method, []).append(row)
        for method, rows in by_method.items():
            assert len(rows) == cfg.replicates

    def test_success_plus_failed_is_total(self, small_result):
        s = small_result.summary
        for method, entry in s["estimators"].items():
            assert entry["n_success"] + entry["n_failed"] == small_result.config.replicates

    def test_verdict_fields_present(self, small_result):
        assert set(small_result.summary["verdicts"]) == {
            "dominance", "loewner", "equal_law", "normality",
        }

    def test_workers_do_not_change_outputs(self, tmp_path):
        cfg1 = small_cfg(replicates=12)
        cfg2 = small_cfg(replicates=12, workers=4)
        run_experiment(cfg1, str(tmp_path / "a"))
        run_experiment(cfg2, str(tmp_path / "b"))
        for name in ("rows.csv", "stats.csv", "summary.json", "effective_config.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_pool_never_outnumbers_the_replicates(self, monkeypatch):
        # a stand-in for the process pool records its size and maps in
        # this process, so no worker is started
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        one = run_experiment(small_cfg(replicates=3))
        assert sizes == []
        pooled = run_experiment(small_cfg(replicates=3, workers=64))
        assert sizes == [3]
        assert pooled.rows == one.rows and pooled.stats == one.stats

    def test_import_loads_no_process_pool(self):
        # multiprocessing is imported when a pool starts, not with the package
        code = "import sys, exindex, exindex.cli; print('concurrent.futures.process' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harness.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.strip() == "False"

    def test_float_formatting_round_trips(self):
        from exindex.harness import _fmt

        rng = np.random.default_rng(404)
        vals = list(np.exp(rng.uniform(-300, 300, size=500)) * rng.choice([-1, 1], 500))
        vals += [0.0, 1.5, 1e-308, 5e-324, 1.7976931348623157e308, 1 / 3]
        for v in vals:
            assert float(_fmt(float(v))) == float(v)

    def test_csv_round_trip(self, small_result, tmp_path):
        small_result.write(str(tmp_path))
        rows = load_csv(str(tmp_path / "rows.csv"), ReplicateRow)
        stats = load_csv(str(tmp_path / "stats.csv"), FunctionalRow)
        assert rows == small_result.rows
        assert stats == small_result.stats

    def test_summary_recomputable_from_csv(self, small_result, tmp_path):
        small_result.write(str(tmp_path))
        rows = load_csv(str(tmp_path / "rows.csv"), ReplicateRow)
        stats = load_csv(str(tmp_path / "stats.csv"), FunctionalRow)
        again = summarize(small_result.config, rows, stats)
        assert json.dumps(again, sort_keys=True) == json.dumps(
            small_result.summary, sort_keys=True
        )

    def test_failed_rows_recorded_not_dropped(self):
        # a threshold high enough that some replicates see no exceedances
        cfg = ExperimentConfig(
            model=ModelSpec.iid(), n=500, replicates=60, seed=11, quantile=0.995,
            s=2, r=4, estimators=("sliding", "runs"),
        )
        result = run_experiment(cfg)
        failed = [r for r in result.rows if r.status == "failed"]
        assert failed, "expected at least one no-exceedance replicate at this seed"
        assert all(r.theta_hat is None and r.z is None for r in failed)
        assert result.summary["rows_failed"] == len(failed)

    def test_minimal_replicate_smoke(self, tmp_path):
        cfg = small_cfg(replicates=2, n=2000, rank_k=100)
        result = run_experiment(cfg, str(tmp_path))
        rows = (tmp_path / "rows.csv").read_text().splitlines()
        assert len(rows) - 1 == 2 * len(cfg.estimators)
        # too few replicates to jackknife or to test normality; the summary
        # must still serialize and say so
        assert result.summary["verdicts"]["normality"]["status"] == "skipped_insufficient"
        json.loads((tmp_path / "summary.json").read_text())

    def test_too_many_failures_aborts(self):
        cfg = ExperimentConfig(
            model=ModelSpec.iid(), n=100, replicates=20, seed=1, quantile=0.9995,
            s=2, r=4, estimators=("sliding",),
        )
        with pytest.raises(HarnessAbort):
            run_experiment(cfg)


# any double but NaN (which equals nothing): infinities, subnormals, extremes
FLOATS = st.floats(allow_nan=False)
OPTIONAL_FLOATS = st.none() | FLOATS
NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", max_size=16)
REPLICATE_ROWS = st.builds(
    ReplicateRow, replicate=st.integers(), method=NAMES, theta_hat=OPTIONAL_FLOATS,
    u_used=OPTIONAL_FLOATS, v_hat=OPTIONAL_FLOATS, n_exceed=st.integers(), z=OPTIONAL_FLOATS,
    status=NAMES,
)
FUNCTIONAL_ROWS = st.builds(
    FunctionalRow, replicate=st.integers(), functional=NAMES, t_sliding=FLOATS,
    t_disjoint=FLOATS, ratio_sliding=OPTIONAL_FLOATS, ratio_disjoint=OPTIONAL_FLOATS,
    bb_var_sliding=OPTIONAL_FLOATS, bb_var_disjoint=OPTIONAL_FLOATS,
)
TINY, HUGE = 5e-324, 1.7976931348623157e308


class TestRowCodec:
    @settings(max_examples=150)
    @given(st.lists(REPLICATE_ROWS, max_size=5), st.lists(FUNCTIONAL_ROWS, max_size=5))
    @example(
        [ReplicateRow(0, "sliding", None, None, None, 0, None, "failed")],
        [FunctionalRow(3, "runs", 0.0, -0.0, None, None, None, None)],
    )
    @example(
        [ReplicateRow(-7, "runs", -TINY, HUGE, 2.2250738585072014e-308, -3, -HUGE, "ok")],
        [FunctionalRow(-1, "block_max", TINY, -HUGE, float("inf"), -1e-310, -2.5, HUGE)],
    )
    def test_write_then_load_gives_equal_rows(self, rows, stats):
        with tempfile.TemporaryDirectory() as tmp:
            for row_type, values in ((ReplicateRow, rows), (FunctionalRow, stats)):
                path = os.path.join(tmp, f"{row_type.__name__}.csv")
                write_csv(path, row_type, values)
                assert load_csv(path, row_type) == values

    def test_load_refuses_another_header(self, tmp_path):
        path = str(tmp_path / "stats.csv")
        write_csv(path, FunctionalRow, [])
        with pytest.raises(ValueError, match="unexpected ReplicateRow header 'replicate,functional,"):
            load_csv(path, ReplicateRow)

    def test_header_is_the_field_order(self, tmp_path):
        write_csv(str(tmp_path / "rows.csv"), ReplicateRow, [])
        write_csv(str(tmp_path / "stats.csv"), FunctionalRow, [])
        assert (tmp_path / "rows.csv").read_text() == (
            "replicate,method,theta_hat,u_used,v_hat,n_exceed,z,status\n"
        )
        assert (tmp_path / "stats.csv").read_text() == (
            "replicate,functional,t_sliding,t_disjoint,ratio_sliding,ratio_disjoint,"
            "bb_var_sliding,bb_var_disjoint\n"
        )


class TestNormalityDiagnostic:
    def test_standard_normal_sample(self):
        z = stream(2024).standard_normal(1000)
        diag = normality_diagnostic(z)
        assert diag.max_cdf_dev < 0.05
        assert abs(diag.mean) < 0.1
        assert abs(diag.sd - 1.0) < 0.1

    def test_constant_sample(self):
        diag = normality_diagnostic(np.full(100, 3.7))
        assert diag.max_cdf_dev >= 0.5

    def test_too_few_values(self):
        with pytest.raises(InsufficientSampleError):
            normality_diagnostic(np.zeros(49))

    def test_centering_removes_location(self):
        z = stream(2025).standard_normal(500) + 5.0
        assert normality_diagnostic(z).max_cdf_dev < 0.06


class TestChecks:
    def test_dominance_structure(self, small_result):
        verdict = variance_dominance_check(small_result)
        assert verdict["status"] in ("pass", "fail")
        entry = verdict["per_functional"]["block_max"]["threshold_level"]
        assert {"var_sliding", "var_disjoint", "diff", "se_jackknife", "n_used", "pass"} <= set(entry)

    def test_singleton_loewner_matches_dominance(self):
        result = run_experiment(small_cfg(functionals=("block_max",)))
        single = loewner_check(result)
        dom = variance_dominance_check(result)
        entry = dom["per_functional"]["block_max"]["threshold_level"]
        # a 1x1 matrix difference is exactly the scalar variance difference
        assert single["min_eigenvalue"] == pytest.approx(
            entry["var_disjoint"] - entry["var_sliding"], rel=1e-12
        )

    def test_single_functional_skips_loewner_only(self):
        summary = run_experiment(small_cfg(functionals=("block_max",))).summary
        assert summary["verdicts"]["loewner"] == {
            "status": "skipped_degenerate", "reason": "needs >= 2 functionals"
        }
        dominance = summary["verdicts"]["dominance"]
        assert dominance["status"] in ("pass", "fail")
        assert set(dominance["per_functional"]) == {"block_max"}

    def test_equal_law_pairs(self, small_result):
        verdict = equal_limit_law_check(small_result)
        assert set(verdict["ratios"]) == {
            "disjoint/sliding", "disjoint/runs", "sliding/runs",
            "sliding_random_u/sliding",
        }

    def test_equal_law_skips_degenerate(self):
        cfg = ExperimentConfig(
            model=ModelSpec.iid(), n=2000, replicates=10, seed=3, rank_k=100, s=4, r=8
        )
        result = run_experiment(cfg)
        assert result.summary["verdicts"]["equal_law"]["status"] == "skipped_degenerate"
        assert result.summary["verdicts"]["normality"]["status"] == "skipped_degenerate"
        assert all(r.z is None for r in result.rows)

    def test_equal_weight_moving_max_skips_degenerate(self):
        # theta * c rounds to 1 + 1 ulp at q=4: the plug-in is still 0
        cfg = ExperimentConfig(
            model=ModelSpec.moving_max(4), n=2000, replicates=10, seed=3, rank_k=100, s=4, r=8
        )
        verdicts = run_experiment(cfg).summary["verdicts"]
        assert verdicts["equal_law"]["status"] == "skipped_degenerate"
        assert verdicts["normality"]["status"] == "skipped_degenerate"

    def test_zero_band_of_unknown_width_passes(self):
        # two replicates: the jackknife SE is inf, and the band 0 * inf is NaN
        cfg = small_cfg(replicates=2, n=2000, rank_k=100,
                        bands=Bands(se_multiplier=0.0))
        verdict = run_experiment(cfg).summary["verdicts"]["loewner"]
        assert verdict["se_jackknife"] is None and verdict["status"] == "pass"
