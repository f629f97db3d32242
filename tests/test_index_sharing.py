"""Sharing the exceedance index across estimators and variance plug-ins.

Every public function that takes ``values`` also takes a prebuilt
``NormalizedSeries``.  An index built at the same threshold is reused as
it is, an index built at another threshold only lends its validated
series, and either way the result is bit-identical to the raw-values
call.  The counting tests pin how many indexes one replicate and one
variance report build.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exindex import blocks, estimators, harness, variance
from exindex.blocks import (
    BLOCK_MAX,
    FIRST_EXCEED,
    RUNS,
    BlockFunctional,
    BlockScheme,
    NormalizedSeries,
    ThresholdSpec,
)
from exindex.errors import ExindexError
from exindex.estimators import (
    ratio_estimate,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
)
from exindex.harness import ExperimentConfig
from exindex.models import ModelSpec
from exindex.variance import (
    block_covariance_pair,
    count_second_moment,
    disjoint_sum_variance,
    sliding_sum_variance,
    sum_count_covariance,
    variance_report,
)

FIX = [5.0, 1.0, 6.0, 2.0, 0.0, 7.0]
LEVELS = [0.5, 1.0, 2.0, 3.0, 5.0, 7.0]


def _excess(w):
    return float(np.sum(w[w > 1.0] - 1.0))


EXCESS = BlockFunctional("excess", _excess)


def fingerprint(result):
    """An exact, comparable image of a result: dataclass fields in order,
    arrays by shape and bytes, floats by their round-trip repr."""
    if dataclasses.is_dataclass(result):
        return tuple(fingerprint(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, np.ndarray):
        return ("array", result.shape, result.tobytes())
    if isinstance(result, tuple):
        return tuple(fingerprint(v) for v in result)
    return repr(result)


def outcome(call, values):
    try:
        return fingerprint(call(values))
    except (ExindexError, ValueError) as exc:
        return ("raised", type(exc).__name__)


def calls(g, u, s, scheme, k):
    """Every function that reads an index, with all arguments but values."""
    return {
        "theta_disjoint": lambda v: theta_disjoint(v, u, s),
        "theta_sliding": lambda v: theta_sliding(v, u, s),
        "theta_runs": lambda v: theta_runs(v, u, s, denominator="full"),
        "ratio_estimate": lambda v: ratio_estimate(g, v, u, s),
        "sliding_sum_variance": lambda v: sliding_sum_variance(g, v, u, scheme),
        "disjoint_sum_variance": lambda v: disjoint_sum_variance(g, v, u, scheme),
        "count_second_moment": lambda v: count_second_moment(v, u, scheme),
        "sum_count_covariance.sliding":
            lambda v: sum_count_covariance(g, v, u, scheme, "sliding"),
        "sum_count_covariance.disjoint":
            lambda v: sum_count_covariance(g, v, u, scheme, "disjoint"),
        "block_covariance_pair":
            lambda v: block_covariance_pair([BLOCK_MAX, FIRST_EXCEED, RUNS, g], v, u, scheme),
        "variance_report": lambda v: variance_report(g, v, u, scheme),
        "resolve.rank": lambda v: ThresholdSpec.rank(k).resolve(v),
    }


@st.composite
def shared_case(draw):
    """(x, u, other, s, r, k, g): positive integer-valued entries (ties at
    u are common), two distinct levels, r a multiple of s with at least one big
    block, a rank 1 <= k <= n and a functional."""
    n = draw(st.integers(2, 40))
    x = np.array(draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)), dtype=float)
    u, other = draw(st.lists(st.sampled_from(LEVELS), min_size=2, max_size=2, unique=True))
    s = draw(st.integers(1, n // 2))
    r = s * draw(st.integers(1, (n - s + 1) // s))
    k = draw(st.integers(1, n))
    g = draw(st.sampled_from([BLOCK_MAX, FIRST_EXCEED, RUNS, EXCESS]))
    return x, u, other, s, r, k, g


class TestReuseRule:
    def test_same_level_is_reused(self):
        ns = NormalizedSeries(FIX, 4.0)
        assert NormalizedSeries.of(ns, 4.0) is ns
        assert NormalizedSeries.of(ns, np.float64(4.0)) is ns

    def test_other_level_shares_the_series(self):
        ns = NormalizedSeries(FIX, 4.0)
        other = NormalizedSeries.of(ns, 5.5)
        assert other is not ns
        assert other.u == 5.5
        assert other.values is ns.values
        assert other.positions.tolist() == [2, 5]

    @settings(max_examples=120)
    @given(shared_case())
    def test_index_inputs_match_raw_values(self, case):
        x, u, other, s, r, k, g = case
        scheme = BlockScheme(x.size, s, r)
        same = NormalizedSeries(x, u)
        elsewhere = NormalizedSeries(x, other)
        for name, call in calls(g, u, s, scheme, k).items():
            want = outcome(call, x)
            assert outcome(call, same) == want, name
            assert outcome(call, elsewhere) == want, name
        # the rank estimator: raw, at its own level, and at another level
        rank_u = ThresholdSpec.rank(k).resolve(x).u
        at_rank = NormalizedSeries(x, rank_u)
        off_rank = NormalizedSeries(x, next(v for v in LEVELS if v != rank_u))
        want = outcome(lambda v: theta_sliding_random_u(v, k, s), x)
        for ns in (at_rank, off_rank, same):
            assert outcome(lambda v: theta_sliding_random_u(v, k, s), ns) == want


    @settings(max_examples=120)
    @given(shared_case())
    def test_index_from_its_exceedances(self, case):
        # built from the points above the lower level alone, none included,
        # an index gives every call the raw values' result; a level below its
        # own and a rank past its exceedances need the whole series and raise
        x, u, other, s, r, k, g = case
        low = min(u, other)
        p = np.flatnonzero(x > low)
        kept = NormalizedSeries(x[p], low, positions=p, n=x.size)
        assert kept.values is None and kept.n == x.size
        assert np.array_equal(kept.positions, p) and np.array_equal(kept.exceeding, x[p])
        scheme = BlockScheme(x.size, s, r)
        random_u = {"theta_sliding_random_u": lambda v: theta_sliding_random_u(v, k, s)}
        for name, call in {**calls(g, u, s, scheme, k), **random_u}.items():
            if k > p.size and name in ("resolve.rank", "theta_sliding_random_u"):
                with pytest.raises(ValueError, match="needs the whole series"):
                    call(kept)
            else:
                assert outcome(call, kept) == outcome(call, x), name
        for at in (kept, NormalizedSeries(kept, max(u, other))):
            with pytest.raises(ValueError, match="lies below the level"):
                NormalizedSeries(at, np.nextafter(low, 0.0))


class TestBuildCounts:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts NormalizedSeries builds, as_series copies and the values
        they copy."""
        seen = {"index": 0, "copy": 0, "copied": 0}
        init, copy = NormalizedSeries.__init__, blocks.as_series

        def counted_init(self, *args, **kwargs):
            seen["index"] += 1
            init(self, *args, **kwargs)

        def counted_copy(values):
            seen["copy"] += 1
            out = copy(values)
            seen["copied"] += out.size
            return out

        monkeypatch.setattr(NormalizedSeries, "__init__", counted_init)
        for module in (blocks, estimators, variance):
            monkeypatch.setattr(module, "as_series", counted_copy)
        return seen

    def test_one_replicate_builds_one_index_per_threshold(self, builds):
        # the draw level, u_det and the rank level; the one copy holds the
        # values above the draw level only, never the path
        cfg = ExperimentConfig(
            model=ModelSpec.armax(0.5), n=4000, replicates=2, seed=77,
            rank_k=120, s=4, r=16,
        )
        rows, stats = harness._replicate(cfg, 0)
        assert [row.status for row in rows] == ["ok"] * len(cfg.estimators)
        assert len(stats) == len(cfg.functionals)
        assert (builds["index"], builds["copy"]) == (3, 1)
        assert 0 < builds["copied"] < cfg.n

    def test_variance_report_builds_one_index(self, builds):
        x = np.random.default_rng(5).pareto(1.0, 2000)
        variance_report(BLOCK_MAX, x, float(np.quantile(x, 0.95)), BlockScheme(2000, 4, 16))
        assert builds == {"index": 1, "copy": 1, "copied": 2000}
