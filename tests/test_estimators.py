"""Extremal index estimator tests: fixtures, degeneracies, invariances."""

import numpy as np
import pytest

from exindex.blocks import (
    BLOCK_MAX,
    FIRST_EXCEED,
    RUNS,
    BlockFunctional,
    NormalizedSeries,
    disjoint_block_sum,
    sliding_block_sum,
)
from exindex.errors import InvalidThresholdError, NoExceedancesError, WindowError
from exindex.estimators import (
    default_big_block_length,
    default_block_length,
    ratio_estimate,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
)

FIX = [5.0, 1.0, 6.0, 2.0, 0.0, 7.0]


def fuzz_case(rng, n_max=50):
    """Random (series, u, s) with at least one exceedance in the trimmed range."""
    n = int(rng.integers(2, n_max))
    s = int(rng.integers(1, n + 1))
    x = rng.exponential(size=n) * 5
    u = float(np.quantile(x[: n - s + 1], rng.uniform(0, 0.8)))
    if not np.any(x[: n - s + 1] > u):
        u = float(np.min(x[: n - s + 1])) - 0.1
    return x, u, s


class TestHandFixtures:
    def test_disjoint(self):
        est = theta_disjoint(FIX, 4.0, 2)
        assert est.theta_hat == 1.5
        assert est.n_exceed == 2
        assert est.method == "disjoint"

    def test_sliding(self):
        assert theta_sliding(FIX, 4.0, 2).theta_hat == 1.0

    def test_runs(self):
        assert theta_runs(FIX, 4.0, 2).theta_hat == 1.0

    def test_rank_sliding(self):
        est = theta_sliding_random_u(FIX, 2, 2)
        assert est.theta_hat == 0.5
        assert est.u_used == 6.0
        assert est.n_exceed == 1
        assert est.method == "sliding_random_u"

    def test_full_denominator_variant(self):
        # the full range counts the exceedance at the last index too
        assert theta_sliding(FIX, 4.0, 2, denominator="full").theta_hat == pytest.approx(
            2.0 / 3.0
        )

    def test_nonpositive_threshold_rejected(self):
        # every estimator builds the exceedance index, which refuses u <= 0
        # on a series with positive entries
        for est in (theta_disjoint, theta_sliding, theta_runs):
            for u in (0.0, -1.0):
                with pytest.raises(InvalidThresholdError):
                    est(FIX, u, 2)
        with pytest.raises(InvalidThresholdError):
            ratio_estimate(BLOCK_MAX, FIX, 0.0, 2)

    def test_no_exceedances(self):
        with pytest.raises(NoExceedancesError) as exc:
            theta_disjoint(FIX, 10.0, 2)
        assert exc.value.n == 6
        assert exc.value.u == 10.0

    def test_window_error(self):
        with pytest.raises(WindowError):
            theta_sliding(FIX, 4.0, 7)

    def test_denominator_refused(self):
        with pytest.raises(ValueError, match="denominator must be 'trimmed' or 'full', got 'half'"):
            theta_disjoint(FIX, 4.0, 2, denominator="half")


# each block statistic at block length s, on x = [5, 1, 6, 2, 0.5, 7, 3, 8] and u = 4
NON_INT_X = np.array([5.0, 1.0, 6.0, 2.0, 0.5, 7.0, 3.0, 8.0])
BY_LENGTH = {
    "theta_disjoint": lambda s: theta_disjoint(NON_INT_X, 4.0, s),
    "theta_sliding": lambda s: theta_sliding(NON_INT_X, 4.0, s),
    "theta_runs": lambda s: theta_runs(NON_INT_X, 4.0, s),
    "ratio_estimate": lambda s: ratio_estimate(RUNS, NON_INT_X, 4.0, s),
    "sliding_block_sum": lambda s: sliding_block_sum(
        BLOCK_MAX, NormalizedSeries(NON_INT_X, 4.0), s),
    "disjoint_block_sum": lambda s: disjoint_block_sum(
        FIRST_EXCEED, NormalizedSeries(NON_INT_X, 4.0), s),
}


class TestIntegerLengthAndRank:
    """A block length or rank that is not an integer was once read as another
    one (2.5 as 2 or 3, True as 1), or failed inside numpy; each is refused."""

    @pytest.mark.parametrize("name", BY_LENGTH)
    @pytest.mark.parametrize("s", [2.0, 2.5, True])
    def test_non_integer_refused(self, name, s):
        with pytest.raises(WindowError, match=f"block length s={s} must be an integer in 1..8"):
            BY_LENGTH[name](s)

    def test_length_refused_before_the_count(self):
        # no point exceeds u = 100: the length is refused first, not the count
        with pytest.raises(WindowError, match="block length s=2.5 must be an integer in 1..8"):
            theta_sliding(NON_INT_X, 100.0, 2.5)

    def test_too_long_a_length_has_the_one_message(self):
        with pytest.raises(WindowError, match="block length s=20.5 must be an integer in 1..8"):
            theta_sliding(NON_INT_X, 4.0, 20.5)
        with pytest.raises(WindowError, match="block length s=20 must be an integer in 1..8"):
            theta_sliding(NON_INT_X, 4.0, 20)

    @pytest.mark.parametrize("name", BY_LENGTH)
    def test_numpy_integer_is_an_integer(self, name):
        assert BY_LENGTH[name](np.int64(2)) == BY_LENGTH[name](2)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_rank_refused(self, k):
        with pytest.raises(ValueError, match=f"rank k={k} must be an integer in 1..inf"):
            theta_sliding_random_u(NON_INT_X, k, 2)


class TestConstantSeries:
    def test_sliding_half(self):
        est = theta_sliding([3.0, 3.0, 3.0, 3.0], 1.0, 2)
        assert est.theta_hat == 0.5

    def test_runs_zero(self):
        est = theta_runs([3.0, 3.0, 3.0, 3.0], 1.0, 2)
        assert est.theta_hat == 0.0

    def test_all_equal_rank_threshold_raises(self):
        with pytest.raises(NoExceedancesError):
            theta_sliding_random_u([2.0, 2.0, 2.0, 2.0], 2, 2)


class TestDegeneracies:
    def test_s1_everything_is_one(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = int(rng.integers(3, 60))
            x = rng.exponential(size=n) * 4
            u = float(np.quantile(x, 0.5))
            assert theta_disjoint(x, u, 1).theta_hat == 1.0
            assert theta_sliding(x, u, 1).theta_hat == 1.0
            assert theta_runs(x, u, 1).theta_hat == 1.0
            k = int(rng.integers(2, n + 1))
            assert theta_sliding_random_u(x, k, 1).theta_hat == 1.0

    def test_runs_in_unit_interval(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            x, u, s = fuzz_case(rng)
            th = theta_runs(x, u, s).theta_hat
            assert 0.0 <= th <= 1.0


class TestMonotoneInvariance:
    def test_deterministic_threshold(self):
        phi = lambda t: t**3 + t
        rng = np.random.default_rng(102)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            s = int(rng.integers(1, n + 1))
            x = rng.uniform(0, 10, size=n)
            u = float(np.quantile(x, 0.5)) + 0.011
            if not np.any(x[: n - s + 1] > u):
                continue
            for est in (theta_disjoint, theta_sliding, theta_runs):
                assert est(x, u, s).theta_hat == est(phi(x), phi(u), s).theta_hat

    def test_rank_threshold(self):
        phi = lambda t: t**3 + t
        rng = np.random.default_rng(103)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            s = int(rng.integers(1, n + 1))
            k = int(rng.integers(2, n + 1))
            x = rng.uniform(0, 10, size=n)
            a = theta_sliding_random_u(x, k, s).theta_hat
            b = theta_sliding_random_u(phi(x), k, s).theta_hat
            assert a == b


class TestDelegation:
    def test_rank_equals_sliding_at_resolved_level(self):
        rng = np.random.default_rng(104)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            s = int(rng.integers(1, n + 1))
            k = int(rng.integers(2, n + 1))
            x = rng.uniform(0, 10, size=n)
            u_hat = float(np.partition(x, n - k)[n - k])
            got = theta_sliding_random_u(x, k, s)
            want = theta_sliding(x, u_hat, s, denominator="full")
            assert got.theta_hat == want.theta_hat
            assert got.u_used == want.u_used

    def test_default_block_length(self):
        assert default_block_length(50000, 1000) == 8
        assert default_block_length(6, 2) == 2
        assert default_block_length(10, 10) == 1

    def test_default_big_block_length(self):
        assert default_big_block_length(50000, 0.02, 8) == 32  # sqrt(1000) / 8 rounds to 4
        assert default_big_block_length(1000, 0.01, 8) == 16  # at least 2s


class TestRatioEstimate:
    def test_block_max_sliding_equals_theta_sliding(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            x, u, s = fuzz_case(rng)
            r = ratio_estimate(BLOCK_MAX, x, u, s)
            assert r.xi_hat == theta_sliding(x, u, s).theta_hat

    def test_zero_functional(self):
        zero = BlockFunctional("zero", lambda w: 0.0)
        assert ratio_estimate(zero, FIX, 4.0, 2).xi_hat == 0.0

    def test_zero_denominator(self):
        with pytest.raises(NoExceedancesError):
            ratio_estimate(BLOCK_MAX, FIX, 10.0, 2)
