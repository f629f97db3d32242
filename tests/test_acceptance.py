"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -s`` to see them live).  Criteria
1-6 are fast property checks; 7-13 are desk-scale Monte Carlo runs that
share one ARMAX experiment (about a minute in total).
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from exindex.blocks import BLOCK_MAX
from exindex.estimators import (
    ratio_estimate,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
)
from exindex.harness import ExperimentConfig, run_experiment
from exindex.models import (
    ModelSpec,
    conditional_exceedance_profile,
    count_variance_limit,
)
from exindex.variance import CovMatrixPair, loewner_compare

FIX = [5.0, 1.0, 6.0, 2.0, 0.0, 7.0]

ARMAX_CFG = dict(
    model=ModelSpec.armax(0.5),
    n=50000,
    replicates=500,
    seed=2,
    rank_k=1000,
    s=8,
    r=32,
)


@contextmanager
def report(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    else:
        print(f"ACCEPTANCE {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def armax_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("armax_w1")
    cfg = ExperimentConfig(**ARMAX_CFG, workers=1)
    start = time.time()
    result = run_experiment(cfg, str(out))
    result.elapsed = time.time() - start
    result.out_dir = out
    return result


@pytest.fixture(scope="module")
def degenerate_runs():
    out = {}
    for spec in (ModelSpec.iid(), ModelSpec.moving_max(1)):
        cfg = ExperimentConfig(
            model=spec, n=50000, replicates=200, seed=3, rank_k=1000, s=8, r=32
        )
        out[spec.family] = run_experiment(cfg)
    return out


def test_criterion_01_hand_fixture_exactness():
    with report("01 hand-fixture exactness"):
        assert theta_disjoint(FIX, 4.0, 2).theta_hat == 1.5
        assert theta_sliding(FIX, 4.0, 2).theta_hat == 1.0
        assert theta_runs(FIX, 4.0, 2).theta_hat == 1.0
        assert theta_sliding_random_u(FIX, 2, 2).theta_hat == 0.5


def test_criterion_02_s1_degeneracy():
    with report("02 s=1 degeneracy"):
        rng = np.random.default_rng(20260802)
        for _ in range(100):
            n = int(rng.integers(3, 80))
            x = rng.exponential(size=n) * 4.0
            u = float(np.quantile(x, rng.uniform(0.2, 0.8)))
            if not np.any(x > u):
                u = float(x.min()) - 0.1
            assert theta_disjoint(x, u, 1).theta_hat == 1.0
            assert theta_sliding(x, u, 1).theta_hat == 1.0
            assert theta_runs(x, u, 1).theta_hat == 1.0
            k = int(rng.integers(2, n + 1))
            assert theta_sliding_random_u(x, k, 1).theta_hat == 1.0


def test_criterion_03_monotone_invariance():
    with report("03 monotone invariance"):
        phi = lambda t: t**3 + t
        rng = np.random.default_rng(20260803)
        done = 0
        while done < 50:
            n = int(rng.integers(4, 80))
            s = int(rng.integers(1, n + 1))
            x = rng.uniform(0.0, 10.0, size=n)
            u = float(np.quantile(x, rng.uniform(0.2, 0.8))) + 0.013
            if not np.any(x[: n - s + 1] > u):
                continue
            for est in (theta_disjoint, theta_sliding, theta_runs):
                assert est(x, u, s).theta_hat == est(phi(x), phi(u), s).theta_hat
            k = int(rng.integers(2, n + 1))
            a = theta_sliding_random_u(x, k, s).theta_hat
            b = theta_sliding_random_u(phi(x), k, s).theta_hat
            assert a == b
            done += 1


def test_criterion_04_runs_range_and_ratio_identity():
    with report("04 runs in [0,1]; ratio == sliding"):
        rng = np.random.default_rng(20260804)
        done = 0
        while done < 1000:
            n = int(rng.integers(2, 60))
            s = int(rng.integers(1, n + 1))
            x = rng.exponential(size=n) * 5.0
            u = float(np.quantile(x, rng.uniform(0.0, 0.9)))
            if not np.any(x[: n - s + 1] > u):
                continue
            th_runs = theta_runs(x, u, s).theta_hat
            assert 0.0 <= th_runs <= 1.0
            assert (
                ratio_estimate(BLOCK_MAX, x, u, s).xi_hat
                == theta_sliding(x, u, s).theta_hat
            )
            done += 1


def test_criterion_05_loewner_hand_matrices():
    with report("05 loewner hand matrices"):
        eye = np.eye(2)
        res = loewner_compare(CovMatrixPair(("a", "b"), eye, eye))
        assert res.dominated and abs(res.min_eigenvalue) <= 1e-10

        res = loewner_compare(
            CovMatrixPair(("a", "b"), eye, eye + np.diag([0.1, 0.2]))
        )
        assert res.dominated and abs(res.min_eigenvalue - 0.1) <= 1e-10

        off = np.array([[0.0, 0.5], [0.5, 0.0]])
        res = loewner_compare(CovMatrixPair(("a", "b"), eye, eye + off))
        assert not res.dominated and abs(res.min_eigenvalue + 0.5) <= 1e-10


def test_criterion_06_tail_constants_and_cross_check():
    with report("06 tail constants + conditional cross-check"):
        start = time.time()
        assert count_variance_limit(ModelSpec.iid()) == 1.0
        for alpha in (0.25, 0.5, 0.7):
            want = (1 + alpha) / (1 - alpha)
            assert abs(count_variance_limit(ModelSpec.armax(alpha)) - want) <= 1e-12
        assert abs(count_variance_limit(ModelSpec.moving_max(1)) - 2.0) <= 1e-12

        # cross-check against the path-level conditional exceedance profile
        # at the 99.9% quantile with 2e5 conditioning draws; tolerance is
        # 3 MC standard errors plus the finite-level allowance 2*k_max*v
        # (each lag's conditional probability carries an O(v) overlap term
        # at any finite threshold)
        quantile, target = 0.999, 200_000
        v = 1.0 - quantile
        for spec, k_max in (
            (ModelSpec.armax(0.5), 8),
            (ModelSpec.moving_max(1), 4),
            (ModelSpec.iid(), 4),
        ):
            prof = conditional_exceedance_profile(spec, k_max, quantile, target, seed=5)
            c_hat, se = prof.count_variance_estimate()
            c_true = count_variance_limit(spec)
            assert abs(c_hat - c_true) <= 3 * se + 2 * k_max * v, (
                spec.family, c_hat, se
            )
        assert time.time() - start < 60.0


@pytest.mark.nightly
def test_criterion_07_estimator_consistency(armax_run):
    with report("07 theorem-level consistency (mean within 0.05)"):
        summary = armax_run.summary["estimators"]
        for method in ("disjoint", "sliding", "runs", "sliding_random_u"):
            assert abs(summary[method]["mean"] - 0.5) < 0.05, method
        assert armax_run.elapsed < 600.0


@pytest.mark.nightly
def test_criterion_08_equal_limit_law(armax_run):
    with report("08 equal limit law + standardized errors"):
        ratios = armax_run.summary["verdicts"]["equal_law"]["ratios"]
        for pair in ("disjoint/sliding", "disjoint/runs", "sliding/runs"):
            assert 1 / 1.5 <= ratios[pair] <= 1.5, (pair, ratios[pair])
        sliding = armax_run.summary["estimators"]["sliding"]
        assert 0.7 <= sliding["z_sd"] <= 1.4
        assert sliding["z_max_cdf_dev"] < 0.08


@pytest.mark.nightly
def test_criterion_09_variance_dominance(armax_run):
    with report("09 sliding vs disjoint variance dominance"):
        verdict = armax_run.summary["verdicts"]["dominance"]
        entry = verdict["per_functional"]["block_max"]
        for variant in ("threshold_level", "ratio"):
            e = entry[variant]
            assert e["diff"] <= 3.0 * e["se_jackknife"], (variant, e)
        assert verdict["status"] == "pass"


@pytest.mark.nightly
def test_criterion_10_loewner_dominance(armax_run):
    with report("10 loewner matrix dominance"):
        verdict = armax_run.summary["verdicts"]["loewner"]
        assert verdict["functionals"] == ["block_max", "first_exceed"]
        assert verdict["min_eigenvalue"] >= -3.0 * verdict["se_jackknife"]
        assert verdict["status"] == "pass"


@pytest.mark.nightly
def test_criterion_11_degenerate_variance_routing(degenerate_runs):
    with report("11 degenerate-variance routing"):
        for family, result in degenerate_runs.items():
            s = result.summary
            assert s["plugin_variance"] == 0.0, family
            assert s["verdicts"]["normality"]["status"] == "skipped_degenerate"
            assert s["verdicts"]["equal_law"]["status"] == "skipped_degenerate"
            assert all(r.z is None for r in result.rows)
            assert s["estimators"]["sliding"]["var_scaled"] < 0.1, family


@pytest.mark.nightly
def test_criterion_12_random_threshold_same_law(armax_run):
    with report("12 random vs deterministic threshold variance"):
        ratios = armax_run.summary["verdicts"]["equal_law"]["ratios"]
        assert 1 / 1.5 <= ratios["sliding_random_u/sliding"] <= 1.5


@pytest.mark.nightly
def test_criterion_13_worker_determinism(armax_run, tmp_path):
    with report("13 byte-identical outputs for 1 and 8 workers"):
        cfg = ExperimentConfig(**ARMAX_CFG, workers=8)
        run_experiment(cfg, str(tmp_path))
        for name in ("rows.csv", "stats.csv", "summary.json", "effective_config.json"):
            a = (armax_run.out_dir / name).read_bytes()
            b = (tmp_path / name).read_bytes()
            assert a == b, name
