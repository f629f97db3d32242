"""Variance plug-in tests: brute-force oracles, hand values, model limits."""

import numpy as np
import pytest

from exindex.blocks import BLOCK_MAX, FIRST_EXCEED, BlockFunctional, BlockScheme
from exindex.errors import (
    DegenerateVarianceWarning,
    InsufficientBlocksError,
    NoExceedancesError,
    SchemeError,
)
from exindex.models import ModelSpec, simulate
from exindex.variance import (
    CovMatrixPair,
    block_covariance_pair,
    count_second_moment,
    disjoint_sum_variance,
    loewner_compare,
    plugin_asymptotic_variance,
    sliding_sum_variance,
    sum_count_covariance,
    variance_report,
)


# -- brute-force oracles (independent loops, no shared kernels) --------------

def brute_norm_window(x, u, i, s):
    w = np.asarray(x, float)[i : i + s]
    return np.where(w > u, w / u, 0.0)


def brute_big_sums(g, x, u, n, s, r, mode):
    m = (n - s + 1) // r
    out = []
    for i in range(m):
        if mode == "sliding":
            starts = [i * r + j for j in range(r)]
        else:
            starts = [i * r + j * s for j in range(r // s)]
        out.append(sum(g(brute_norm_window(x, u, st, s)) for st in starts))
    return np.array(out)


def brute_counts(x, u, n, s, r):
    m = (n - s + 1) // r
    ex = np.asarray(x, float) > u
    return np.array([ex[i * r : (i + 1) * r].sum() for i in range(m)], dtype=float)


def brute_c_s(g, x, u, n, s, r, scale=1.0):
    v_hat = np.count_nonzero(np.asarray(x) > u) / n
    sums = brute_big_sums(g, x, u, n, s, r, "sliding")
    return np.var(sums, ddof=1) / (r * v_hat * s**2 * scale**2)


def brute_c_d(g, x, u, n, s, r, scale=1.0):
    v_hat = np.count_nonzero(np.asarray(x) > u) / n
    sums = brute_big_sums(g, x, u, n, s, r, "disjoint")
    return np.var(sums, ddof=1) / (r * v_hat * scale**2)


def brute_c_v(x, u, n, s, r):
    v_hat = np.count_nonzero(np.asarray(x) > u) / n
    counts = brute_counts(x, u, n, s, r)
    return np.mean(counts**2) / (r * v_hat)


def brute_cross(g, x, u, n, s, r, mode, scale=1.0):
    v_hat = np.count_nonzero(np.asarray(x) > u) / n
    sums = brute_big_sums(g, x, u, n, s, r, mode)
    counts = brute_counts(x, u, n, s, r)
    cov = np.cov(sums, counts, ddof=1)[0, 1]
    denom = r * v_hat * scale * (s if mode == "sliding" else 1)
    return cov / denom


def fuzz_scheme(rng):
    n = int(rng.integers(24, 120))
    s = int(rng.integers(1, 5))
    mult = int(rng.integers(2, 5))
    r = s * mult
    if (n - s + 1) // r < 2:
        r = s * 2
    x = rng.exponential(size=n) * 3
    u = float(np.quantile(x, 0.6))
    if not np.any(x > u):
        u = float(x.min()) - 1e-9
    return x, u, BlockScheme(n, s, r)


class TestBruteForceAgreement:
    def test_all_estimators_match_brute_force(self):
        rng = np.random.default_rng(300)
        for _ in range(40):
            x, u, sch = fuzz_scheme(rng)
            n, s, r = sch.n, sch.s, sch.r
            for g in (BLOCK_MAX, FIRST_EXCEED):
                assert sliding_sum_variance(g, x, u, sch) == pytest.approx(
                    brute_c_s(g, x, u, n, s, r), rel=1e-12
                )
                assert disjoint_sum_variance(g, x, u, sch) == pytest.approx(
                    brute_c_d(g, x, u, n, s, r), rel=1e-12
                )
                assert sum_count_covariance(g, x, u, sch, "sliding") == pytest.approx(
                    brute_cross(g, x, u, n, s, r, "sliding"), rel=1e-12, abs=1e-12
                )
                assert sum_count_covariance(g, x, u, sch, "disjoint") == pytest.approx(
                    brute_cross(g, x, u, n, s, r, "disjoint"), rel=1e-12, abs=1e-12
                )
            assert count_second_moment(x, u, sch) == pytest.approx(
                brute_c_v(x, u, n, s, r), rel=1e-12
            )


class TestHandValues:
    def test_uneven_exceedances_give_positive_variance(self):
        # exceedances concentrated in the first big block
        x = np.ones(16)
        x[1], x[3] = 9.0, 9.0
        sch = BlockScheme(16, 2, 4)
        assert sliding_sum_variance(BLOCK_MAX, x, 5.0, sch) > 0.0
        assert disjoint_sum_variance(BLOCK_MAX, x, 5.0, sch) > 0.0

    def test_single_exceedance_count_moment(self):
        # one exceedance, in the first big block: counts are [1, 0],
        # v_hat = 1/12, so mean(count^2)/(r*v_hat) = (1/2)/(4/12) = 1.5
        x = np.ones(12)
        x[1] = 10.0
        got = count_second_moment(x, 5.0, BlockScheme(12, 2, 4))
        assert got == pytest.approx(1.5)

    def test_constant_block_sums_give_zero(self):
        # period-4 exceedance pattern: every big block sees the same sums
        x = np.tile([10.0, 1.0, 1.0, 1.0], 4)
        sch = BlockScheme(16, 2, 4)
        assert sliding_sum_variance(BLOCK_MAX, x, 5.0, sch) == 0.0
        assert disjoint_sum_variance(BLOCK_MAX, x, 5.0, sch) == 0.0
        assert sum_count_covariance(BLOCK_MAX, x, 5.0, sch, "sliding") == 0.0

    def test_one_block_per_big_block(self):
        # r = s: each big block holds a single disjoint block, so the
        # disjoint plug-in is the sample variance of the per-block
        # indicators over r*v_hat
        x = np.array([9.0, 1, 1, 1, 9, 1, 1, 1, 1, 1, 1, 1])
        sch = BlockScheme(12, 2, 2)
        ind = [1.0, 0.0, 1.0, 0.0, 0.0]  # block maxima > 5 for m=5 blocks
        v_hat = 2 / 12
        want = np.var(ind, ddof=1) / (2 * v_hat)
        assert disjoint_sum_variance(BLOCK_MAX, x, 5.0, sch) == pytest.approx(want)

    def test_errors(self):
        x = np.ones(12)
        x[1] = 10.0
        with pytest.raises(InsufficientBlocksError):
            sliding_sum_variance(BLOCK_MAX, x, 5.0, BlockScheme(12, 2, 8))
        with pytest.raises(NoExceedancesError):
            sliding_sum_variance(BLOCK_MAX, x, 50.0, BlockScheme(12, 2, 4))
        with pytest.raises(SchemeError):
            disjoint_sum_variance(BLOCK_MAX, x, 5.0, BlockScheme(12, 2, 5))


class TestProperties:
    def test_scale_covariance(self):
        rng = np.random.default_rng(301)
        lam = 2.0
        scaled = BlockFunctional("scaled_max", BLOCK_MAX.func, scale=lam)
        for _ in range(20):
            x, u, sch = fuzz_scheme(rng)
            assert sliding_sum_variance(scaled, x, u, sch) == pytest.approx(
                sliding_sum_variance(BLOCK_MAX, x, u, sch) / lam**2, rel=1e-12
            )
            assert sum_count_covariance(scaled, x, u, sch, "disjoint") == pytest.approx(
                sum_count_covariance(BLOCK_MAX, x, u, sch, "disjoint") / lam,
                rel=1e-12, abs=1e-12,
            )

    def test_count_cov_near_count_moment_at_s1(self):
        # at s=1 the sliding block sums of the first-entry indicator are
        # exactly the per-block exceedance counts; centered vs uncentered
        # moments then differ by O(r * v_hat)
        spec = ModelSpec.armax(0.5)
        x = simulate(spec, 50000, 42)
        u = spec.marginal_quantile(0.998)
        sch = BlockScheme(50000, 1, 25)
        c_sv = sum_count_covariance(FIRST_EXCEED, x, u, sch, "sliding")
        c_v = count_second_moment(x, u, sch)
        assert abs(c_sv - c_v) < 5 * sch.r * 0.002 + 0.05

    def test_report_combination_identity(self):
        rng = np.random.default_rng(302)
        for _ in range(20):
            x, u, sch = fuzz_scheme(rng)
            rep = variance_report(BLOCK_MAX, x, u, sch)
            want_s = rep.sliding_var + rep.xi**2 * rep.count_moment - 2 * rep.xi * rep.sliding_count_cov
            want_d = rep.disjoint_var + rep.xi**2 * rep.count_moment - 2 * rep.xi * rep.disjoint_count_cov
            assert rep.ratio_sliding_var == want_s
            assert rep.ratio_disjoint_var == want_d

    @pytest.mark.parametrize("xi, passes", [(None, 3), (0.5, 2)])
    def test_report_passes_over_windows(self, xi, passes):
        # one window pass per mode, plus the ratio estimate when xi is not
        # given; each pass checks g on an all-zero block once, then calls it
        # on every window that holds an exceedance
        calls = []

        def excess(w):
            calls.append(1)
            return float(np.sum(w[w > 1.0] - 1.0))

        x, u, sch = fuzz_scheme(np.random.default_rng(304))
        hits = sum(bool(np.any(np.asarray(x)[i : i + sch.s] > u))
                   for i in range(sch.n - sch.s + 1))
        variance_report(BlockFunctional("excess", excess), x, u, sch, xi=xi)
        assert len(calls) == passes * (hits + 1)

    def test_covariance_pair_diagonal(self):
        rng = np.random.default_rng(303)
        x, u, sch = fuzz_scheme(rng)
        pair = block_covariance_pair([BLOCK_MAX, FIRST_EXCEED], x, u, sch)
        assert pair.sliding[0, 0] == pytest.approx(
            sliding_sum_variance(BLOCK_MAX, x, u, sch), rel=1e-12
        )
        assert pair.disjoint[1, 1] == pytest.approx(
            disjoint_sum_variance(FIRST_EXCEED, x, u, sch), rel=1e-12
        )


class TestPluginVariance:
    def test_iid_degenerate(self):
        assert plugin_asymptotic_variance(1.0, 1.0) == 0.0

    def test_armax_value(self):
        assert plugin_asymptotic_variance(0.5, 3.0) == pytest.approx(0.25)

    def test_moving_max_degenerate(self):
        assert plugin_asymptotic_variance(0.5, 2.0) == 0.0

    def test_negative_warns(self):
        with pytest.warns(DegenerateVarianceWarning):
            out = plugin_asymptotic_variance(0.9, 1.0)
        assert out == pytest.approx(0.9 * (0.9 - 1.0))

    def test_theta_range(self):
        with pytest.raises(ValueError):
            plugin_asymptotic_variance(0.0, 2.0)
        with pytest.raises(ValueError):
            plugin_asymptotic_variance(1.5, 2.0)


class TestLoewner:
    def test_equal_matrices_dominated(self):
        eye = np.eye(2)
        res = loewner_compare(CovMatrixPair(("a", "b"), eye, eye))
        assert res.dominated
        assert abs(res.min_eigenvalue) <= 1e-10

    def test_diagonal_psd_difference(self):
        pair = CovMatrixPair(("a", "b"), np.eye(2), np.eye(2) + np.diag([0.1, 0.2]))
        res = loewner_compare(pair)
        assert res.dominated
        assert res.min_eigenvalue == pytest.approx(0.1, abs=1e-10)

    def test_off_diagonal_violation(self):
        diff = np.array([[0.0, 0.5], [0.5, 0.0]])
        pair = CovMatrixPair(("a", "b"), np.eye(2), np.eye(2) + diff)
        res = loewner_compare(pair)
        assert not res.dominated
        assert res.min_eigenvalue == pytest.approx(-0.5, abs=1e-10)

    def test_shape_and_cap_validation(self):
        with pytest.raises(ValueError):
            CovMatrixPair(("a",), np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            CovMatrixPair(("a", "b"), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
        big = np.eye(17)
        with pytest.raises(ValueError):
            CovMatrixPair(tuple("abcdefghijklmnopq"), big, big)


class TestModelLimits:
    """The plug-ins against the simulators' known limiting constants."""

    N, S, R, V = 20000, 8, 32, 0.02
    REPS = 40

    @pytest.fixture(scope="class")
    @classmethod
    def armax_estimates(cls):
        spec = ModelSpec.armax(0.5)
        u = spec.marginal_quantile(1 - cls.V)
        sch = BlockScheme(cls.N, cls.S, cls.R)
        out = {"c_s": [], "c_d": [], "c_sv": []}
        for rep in range(cls.REPS):
            x = simulate(spec, cls.N, (909, rep))
            out["c_s"].append(sliding_sum_variance(BLOCK_MAX, x, u, sch))
            out["c_d"].append(disjoint_sum_variance(BLOCK_MAX, x, u, sch))
            out["c_sv"].append(sum_count_covariance(BLOCK_MAX, x, u, sch, "sliding"))
        return {k: np.array(v) for k, v in out.items()}

    def test_sliding_variance_near_theta(self, armax_estimates):
        # the sliding-sum variance of the block-max indicator converges to
        # theta = 0.5 for this model
        assert abs(armax_estimates["c_s"].mean() - 0.5) < 0.05

    def test_disjoint_dominates_sliding_on_average(self, armax_estimates):
        assert armax_estimates["c_d"].mean() >= armax_estimates["c_s"].mean() - 0.01

    def test_cross_covariance_near_one(self, armax_estimates):
        assert abs(armax_estimates["c_sv"].mean() - 1.0) < 0.06

    def test_iid_count_moment_near_one(self):
        # independent exceedances at small r*v: cross terms vanish and the
        # normalized second moment sits near 1
        spec = ModelSpec.iid()
        u = spec.marginal_quantile(0.998)
        sch = BlockScheme(100_000, 4, 32)
        vals = [
            count_second_moment(simulate(spec, 100_000, (911, rep)), u, sch)
            for rep in range(20)
        ]
        assert abs(np.mean(vals) - 1.0) < 0.1

    def test_dominance_holds_across_families(self):
        # mean disjoint plug-in >= mean sliding plug-in on every model
        sch = BlockScheme(20000, 8, 32)
        for spec in (ModelSpec.iid(), ModelSpec.armax(0.5), ModelSpec.moving_max(1)):
            u = spec.marginal_quantile(0.99)
            cs, cd = [], []
            for rep in range(25):
                x = simulate(spec, 20000, (912, rep))
                cs.append(sliding_sum_variance(BLOCK_MAX, x, u, sch))
                cd.append(disjoint_sum_variance(BLOCK_MAX, x, u, sch))
            assert np.mean(cd) >= np.mean(cs) - 0.02, spec.family

    def test_count_moment_approaches_limit_as_rv_shrinks(self):
        # uncentered second moment carries an r*v inflation that dies as
        # r*v -> 0; the estimate must tighten toward the constant 3
        spec = ModelSpec.armax(0.5)
        errs = {}
        for n, v, r in ((20000, 0.02, 32), (100000, 0.004, 32)):
            u = spec.marginal_quantile(1 - v)
            sch = BlockScheme(n, self.S, r)
            vals = [
                count_second_moment(simulate(spec, n, (910, rep)), u, sch)
                for rep in range(30)
            ]
            errs[r * v] = abs(np.mean(vals) - 3.0)
        assert errs[0.128] < errs[0.64]
        assert errs[0.128] < 0.15
