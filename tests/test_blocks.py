"""Block kernel tests: hand-computed fixtures, brute-force oracles, invariants."""

import importlib
import pkgutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exindex
from exindex.blocks import (
    BLOCK_MAX,
    BUILTIN_FUNCTIONALS,
    FIRST_EXCEED,
    RUNS,
    BlockFunctional,
    BlockScheme,
    NormalizedSeries,
    ThresholdSpec,
    as_series,
    big_block_sums,
    disjoint_block_sum,
    scheme_advisories,
    sliding_block_sum,
    sliding_window_max,
)
from exindex.blocks import _cover, _starts
from exindex.errors import (
    InsufficientBlocksError,
    InvalidThresholdError,
    NoExceedancesError,
    SchemeError,
    WindowError,
)
from exindex.estimators import ratio_estimate, theta_disjoint, theta_runs, theta_sliding
from exindex.variance import count_second_moment, variance_report

FIX = [5.0, 1.0, 6.0, 2.0, 0.0, 7.0]

#: sum of squared normalized exceedances; vanishes on a null block
SQ = BlockFunctional("sq", lambda w: float(np.sum(w[w > 1.0] ** 2)))


def brute_window_values(g, x, u, s):
    x = np.asarray(x, dtype=float)
    out = []
    for i in range(x.size - s + 1):
        w = x[i : i + s]
        out.append(g(np.where(w > u, w / u, 0.0)))
    return np.array(out)


def brute_sums(g, x, u, s, r=None):
    """The block sums of g added as the kernel adds them, from brute-force
    windows.  Its kept starts are where a built-in is 1, or the windows
    that hold an exceedance for any other g; the sliding and disjoint sums
    are numpy sums of the values at those starts, and each big-block sum
    is a Python sum over its starts in order."""
    vals = brute_window_values(g, x, u, s)
    marked = g if g in BUILTIN_FUNCTIONALS.values() else BLOCK_MAX
    starts = np.flatnonzero(brute_window_values(marked, x, u, s))
    disjoint = starts[starts % s == 0]
    out = {"sliding_block_sum": vals[starts].sum(), "disjoint_block_sum": vals[disjoint].sum()}
    if r is not None:
        m = (x.size - s + 1) // r
        for mode, sel in (("sliding", starts), ("disjoint", disjoint)):
            out["big_block_sums." + mode] = [
                sum(vals[i] for i in sel.tolist() if i // r == b) for b in range(m)]
    return out


def densified(g, ns, s):
    """g's kept starts and values spread over all n-s+1 window starts."""
    starts, vals = _starts(g, ns, s)
    out = np.zeros(ns.n - s + 1)
    out[starts] = 1.0 if vals is None else vals
    return out


class TestSeriesValidation:
    def test_copies_and_freezes(self):
        raw = [1.0, 2.0]
        x = as_series(raw)
        raw[0] = 99.0
        assert x[0] == 1.0
        with pytest.raises(ValueError):
            x[0] = 5.0

    def test_a_frozen_owning_series_passes_through(self):
        x = np.array([1.0, 2.0])
        x.setflags(write=False)
        assert as_series(x) is x
        x = np.array([[1.0], [2.0]]).reshape(-1)  # a view, even if read-only
        x.setflags(write=False)
        assert as_series(x) is not x

    @pytest.mark.parametrize("make", [
        lambda: np.array([1.0, 2.0, 3.0]),  # writable
        lambda: np.array([1.0, 2.0, 3.0])[:],  # a view of a writable base
        lambda: np.array([1, 2, 3]),  # not float64
        lambda: np.array([1.0, 2.0, 3.0], dtype=np.float32),
    ], ids=["writable", "view", "int64", "float32"])
    def test_anything_else_is_copied(self, make):
        raw = make()
        base = raw if raw.base is None else raw.base
        if raw.base is not None:
            raw.setflags(write=False)  # read-only, over a base that is not
        x = as_series(raw)
        assert x is not raw and x.base is None and not x.flags.writeable
        assert x.dtype == np.float64 and np.array_equal(x, [1.0, 2.0, 3.0])
        base[0] = 99
        assert x[0] == 1.0

    def test_mutating_the_input_after_indexing_changes_nothing(self):
        raw = np.array([5.0, 1.0, 6.0, 2.0, 0.0, 7.0, 6.0, 3.0])
        ns = NormalizedSeries(raw, 4.0)
        before = (theta_sliding(ns, 4.0, 2), theta_runs(ns, 4.0, 2),
                  ThresholdSpec.rank(3).resolve(ns), ThresholdSpec.rank(3).resolve(ns.values))
        raw[:] = 100.0
        after = (theta_sliding(ns, 4.0, 2), theta_runs(ns, 4.0, 2),
                 ThresholdSpec.rank(3).resolve(ns), ThresholdSpec.rank(3).resolve(ns.values))
        assert after == before and ns.values[0] == 5.0

    def test_rejects_empty_nan_inf_2d(self):
        with pytest.raises(ValueError):
            as_series([])
        with pytest.raises(ValueError):
            as_series([1.0, np.nan])
        with pytest.raises(ValueError):
            as_series([np.inf])
        with pytest.raises(ValueError):
            as_series([[1.0, 2.0]])


class TestThreshold:
    def test_rank_resolves_kth_largest(self):
        thr = ThresholdSpec.rank(2).resolve(FIX)
        assert thr.u == 6.0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            ThresholdSpec.rank(7).resolve(FIX)
        with pytest.raises(ValueError):
            ThresholdSpec.rank(0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, 0, -1])
    def test_rank_must_be_an_integer(self, k):
        # 2.5 once resolved to the rank-2 level and True to the rank-1 level
        with pytest.raises(ValueError, match=f"rank k must be an integer >= 1, got {k}"):
            ThresholdSpec.rank(k)

    def test_rank_numpy_integer(self):
        assert ThresholdSpec.rank(np.int64(2)).resolve(FIX) == ThresholdSpec.rank(2).resolve(FIX)


class TestNormalize:
    def test_hand_example(self):
        ns = NormalizedSeries(FIX, 4.0)
        assert ns.positions.tolist() == [0, 2, 5]
        assert np.array_equal(ns.exceeding / ns.u, [1.25, 1.5, 1.75])

    def test_all_below_threshold(self):
        ns = NormalizedSeries([1.0, 2.0, 3.0], 10.0)
        assert ns.positions.size == 0 and ns.positions.dtype == np.int64
        assert (ns.exceeding / ns.u).size == 0

    def test_rank_threshold(self):
        ns = NormalizedSeries(FIX, ThresholdSpec.rank(2).resolve(FIX).u)
        assert ns.positions.tolist() == [5]
        assert np.array_equal(ns.exceeding / ns.u, [7 / 6])

    def test_index_hand_example(self):
        ns = NormalizedSeries(FIX, 4.0)
        assert ns.positions.tolist() == [0, 2, 5]
        assert ns.positions.dtype == np.int64
        assert ns.count(np.arange(7)).tolist() == [0, 1, 1, 2, 2, 2, 3]
        assert ns.count(4) == 2
        with pytest.raises(ValueError):
            ns.positions[0] = 1

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(InvalidThresholdError):
            NormalizedSeries(FIX, 0.0)
        with pytest.raises(InvalidThresholdError):
            NormalizedSeries(FIX, -1.0)
        # all-nonpositive data: threshold sign is unconstrained
        ns = NormalizedSeries([-1.0, -2.0], -5.0)
        assert ns.positions.tolist() == [0, 1]

    @pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf])
    def test_nonfinite_threshold_rejected(self, u):
        with pytest.raises(InvalidThresholdError, match="must be finite"):
            NormalizedSeries(FIX, u)
        with pytest.raises(InvalidThresholdError):
            theta_sliding(FIX, u, 2)
        with pytest.raises(InvalidThresholdError):
            count_second_moment(FIX, u, BlockScheme(6, 1, 2))



class TestSlidingWindowMax:
    def test_brute_force_fuzz(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            s = int(rng.integers(1, n + 1))
            x = rng.normal(size=n)
            want = np.array([x[i : i + s].max() for i in range(n - s + 1)])
            assert np.array_equal(sliding_window_max(x, s), want)

    def test_window_too_long(self):
        with pytest.raises(WindowError):
            sliding_window_max(np.ones(3), 4)

    @pytest.mark.parametrize("s", [2.0, 2.5, True])
    def test_window_length_must_be_an_integer(self, s):
        with pytest.raises(WindowError, match=f"block length s={s} must be an integer in 1..3"):
            sliding_window_max(np.ones(3), s)


class TestCover:
    @settings(max_examples=300)
    @given(st.integers(1, 20), st.lists(st.tuples(st.integers(-10, 30), st.integers(-5, 25)),
                                        max_size=8))
    @example(1, [])
    @example(1, [(-3, 5), (0, -1)])
    def test_is_the_union_of_its_ranges(self, size, ranges):
        # ascending starts, some negative; ends below their starts or past
        # size, in any order; no ranges at all; size 1
        lo = np.sort(np.array([a for a, _ in ranges], dtype=np.int64))
        hi = lo + np.array([d for _, d in ranges], dtype=np.int64)
        want = sorted(set().union(*(range(max(a, 0), min(b, size - 1) + 1)
                                    for a, b in zip(lo.tolist(), hi.tolist()))))
        got = _cover(lo, hi, size)
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestBlockSums:
    @pytest.fixture
    def ns(self):
        return NormalizedSeries(FIX, 4.0)

    def test_sliding_hand_examples(self, ns):
        assert sliding_block_sum(BLOCK_MAX, ns, 2) == 4.0
        assert sliding_block_sum(FIRST_EXCEED, ns, 2) == 2.0

    def test_disjoint_hand_examples(self, ns):
        assert disjoint_block_sum(BLOCK_MAX, ns, 2) == 3.0
        assert disjoint_block_sum(FIRST_EXCEED, ns, 2) == 2.0

    def test_whole_series_block(self, ns):
        assert disjoint_block_sum(BLOCK_MAX, ns, 6) == 1.0

    def test_zero_series(self):
        ns = NormalizedSeries([1.0, 1.0, 1.0, 1.0], 9.0)
        for g in (BLOCK_MAX, FIRST_EXCEED, RUNS):
            assert sliding_block_sum(g, ns, 2) == 0.0
            assert disjoint_block_sum(g, ns, 2) == 0.0

    def test_window_error(self, ns):
        with pytest.raises(WindowError):
            sliding_block_sum(BLOCK_MAX, ns, 7)
        with pytest.raises(WindowError):
            disjoint_block_sum(BLOCK_MAX, ns, 0)

    def test_builtin_kernels_match_generic_path(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            s = int(rng.integers(1, n + 1))
            x = rng.exponential(size=n) * 3
            u = float(np.quantile(x, 0.6))
            ns = NormalizedSeries(x, u)
            for g in (BLOCK_MAX, FIRST_EXCEED, RUNS):
                generic = BlockFunctional("generic_" + g.name, g.func)
                assert np.array_equal(densified(g, ns, s), densified(generic, ns, s))

    def test_custom_functional(self):
        ns = NormalizedSeries(FIX, 4.0)
        assert sliding_block_sum(SQ, ns, 2) == pytest.approx(
            1.25**2 + 1.5**2 * 2 + 1.75**2
        )

    def test_custom_functional_sees_only_windows_with_an_exceedance(self):
        seen = []

        def counted(w):
            seen.append(w.tolist())
            return SQ.func(w)

        ns = NormalizedSeries(FIX, 4.0)
        starts, vals = _starts(BlockFunctional("counted", counted), ns, 2)
        # the zero-block check, then the four windows that hold an
        # exceedance; [2, 0] at start 4 is never evaluated, nor kept
        assert seen == [[0.0, 0.0], [1.25, 0.0], [0.0, 1.5], [1.5, 0.0], [0.0, 1.75]]
        assert starts.tolist() == [0, 1, 2, 4]
        assert np.array_equal(vals, [1.25**2, 1.5**2, 1.5**2, 1.75**2])

    def test_custom_values_kept_read_only(self):
        calls = []

        def counted(w):
            calls.append(1)
            return SQ.func(w)

        g = BlockFunctional("counted", counted)
        ns = NormalizedSeries(FIX, 4.0)
        first = _starts(g, ns, 2)
        assert len(calls) == 5  # the zero-block check and four windows
        again = _starts(g, ns, 2)
        assert len(calls) == 5 and again[0] is first[0] and again[1] is first[1]
        for kept in first:
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 1
        fresh = NormalizedSeries(FIX, 4.0)
        assert np.array_equal(first[1], _starts(SQ, fresh, 2)[1])
        for builtin in (BLOCK_MAX, FIRST_EXCEED, RUNS):
            starts, vals = _starts(builtin, ns, 2)
            assert not starts.flags.writeable and vals is None

    def test_custom_values_kept_per_functional_and_block_length(self):
        ns = NormalizedSeries(FIX, 4.0)
        same_name = BlockFunctional("sq", lambda w: float(np.sum(w[w > 1.0])))
        for g in (SQ, same_name):
            for s in (2, 3):
                want = brute_window_values(g, FIX, 4.0, s)
                assert np.array_equal(densified(g, ns, s), want), (g.func, s)
        assert not np.array_equal(densified(SQ, ns, 2), densified(same_name, ns, 2))

    def test_unhashable_func(self):
        class Excess:
            """A callable object with value equality, hence no hash."""

            def __eq__(self, other):
                return isinstance(other, Excess)

            def __call__(self, w):
                return float(np.sum(w[w > 1.0] - 1.0))

        g = BlockFunctional("excess", Excess())
        with pytest.raises(TypeError):
            hash(g)
        ns = NormalizedSeries(FIX, 4.0)
        assert np.array_equal(densified(g, ns, 2), brute_window_values(g, FIX, 4.0, 2))
        rep = variance_report(g, ns, 4.0, BlockScheme(6, 1, 2))
        assert rep.xi == ratio_estimate(g, FIX, 4.0, 1).xi_hat

    def test_functional_nonzero_on_null_block_rejected(self):
        g = BlockFunctional("one", lambda w: 1.0)
        ns = NormalizedSeries(FIX, 4.0)
        with pytest.raises(ValueError, match="'one' must return 0 on a block with no exceedance"):
            sliding_block_sum(g, ns, 2)
        with pytest.raises(ValueError, match="'one'"):
            ratio_estimate(g, FIX, 4.0, 2)
        with pytest.raises(ValueError, match="'one'"):
            variance_report(g, FIX, 4.0, BlockScheme(6, 1, 2))


class TestBigBlocks:
    def test_hand_example_sliding(self):
        # window maxima at starts 1..5 are 5,6,6,2,7; big block 2 holds
        # starts 3 and 4, of which only start 3 exceeds u=4
        ns = NormalizedSeries(FIX, 4.0)
        got = big_block_sums(BLOCK_MAX, ns, BlockScheme(6, 2, 2), "sliding")
        assert np.array_equal(got, [2.0, 1.0])

    def test_hand_example_disjoint(self):
        ns = NormalizedSeries(FIX, 4.0)
        got = big_block_sums(BLOCK_MAX, ns, BlockScheme(6, 2, 2), "disjoint")
        assert np.array_equal(got, [1.0, 1.0])

    def test_zero_series_gives_zeros(self):
        ns = NormalizedSeries([1.0] * 9, 5.0)
        got = big_block_sums(BLOCK_MAX, ns, BlockScheme(9, 2, 4), "sliding")
        assert np.array_equal(got, [0.0, 0.0])

    def test_no_complete_block_errors(self):
        ns = NormalizedSeries(FIX, 4.0)
        with pytest.raises(InsufficientBlocksError):
            big_block_sums(BLOCK_MAX, ns, BlockScheme(6, 2, 6), "sliding")

    def test_disjoint_requires_divisible(self):
        x = list(range(12))
        ns = NormalizedSeries(x, 5.0)
        with pytest.raises(SchemeError):
            big_block_sums(BLOCK_MAX, ns, BlockScheme(12, 2, 5), "disjoint")

    def test_decomposition_consistency_sliding(self):
        # summing big-block sums plus the remainder tail reproduces the
        # full sliding sum
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(10, 80))
            s = int(rng.integers(1, 5))
            r = int(rng.integers(s, n + 1))
            if (n - s + 1) // r == 0:
                continue
            x = rng.exponential(size=n)
            u = float(np.quantile(x, 0.5))
            ns = NormalizedSeries(x, u)
            scheme = BlockScheme(n, s, r)
            bb = big_block_sums(BLOCK_MAX, ns, scheme, "sliding")
            vals = brute_window_values(BLOCK_MAX, x, u, s)
            assert bb.sum() == pytest.approx(vals[: scheme.m * r].sum())
            assert bb.sum() + vals[scheme.m * r :].sum() == pytest.approx(
                sliding_block_sum(BLOCK_MAX, ns, s)
            )

    def test_decomposition_consistency_disjoint(self):
        # big-block disjoint sums cover the disjoint starts within the
        # first m*r positions; adding the leftover disjoint blocks gives
        # the full disjoint sum
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(12, 90))
            s = int(rng.integers(1, 5))
            r = s * int(rng.integers(2, 5))
            if r > n or (n - s + 1) // r == 0:
                continue
            x = rng.exponential(size=n)
            u = float(np.quantile(x, 0.5))
            ns = NormalizedSeries(x, u)
            scheme = BlockScheme(n, s, r)
            bb = big_block_sums(BLOCK_MAX, ns, scheme, "disjoint")
            vals = brute_window_values(BLOCK_MAX, x, u, s)
            starts = np.arange(0, (n // s) * s, s)
            covered = starts[starts < scheme.m * r]
            rest = starts[starts >= scheme.m * r]
            assert bb.sum() == pytest.approx(vals[covered].sum())
            assert bb.sum() + vals[rest].sum() == pytest.approx(
                disjoint_block_sum(BLOCK_MAX, ns, s)
            )


class TestScheme:
    def test_m_derived(self):
        assert BlockScheme(6, 2, 2).m == 2
        assert BlockScheme(100, 8, 32).m == (100 - 8 + 1) // 32

    def test_ordering_enforced(self):
        with pytest.raises(SchemeError):
            BlockScheme(10, 5, 3)
        with pytest.raises(SchemeError):
            BlockScheme(10, 0, 3)
        with pytest.raises(SchemeError):
            BlockScheme(10, 2, 11)

    def test_advisories_levels(self):
        levels = {lvl for lvl, _ in scheme_advisories(50000, 8, 32, 0.02)}
        assert levels == {"green"}
        assert any(lvl == "yellow" for lvl, _ in scheme_advisories(50000, 8, 35, 0.02))
        assert any(lvl == "red" for lvl, _ in scheme_advisories(50000, 16, 8, 0.02))


class TestInvariants:
    def test_s1_sliding_equals_disjoint(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 50))
            x = rng.exponential(size=n)
            ns = NormalizedSeries(x, 0.5)
            for g in (BLOCK_MAX, FIRST_EXCEED, RUNS, SQ):
                assert sliding_block_sum(g, ns, 1) == disjoint_block_sum(g, ns, 1)

    def test_monotone_transform_invariance(self):
        phi = lambda t: t**3 + t
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(4, 60))
            s = int(rng.integers(1, n + 1))
            x = rng.uniform(0, 10, size=n)
            u = float(np.quantile(x, 0.5)) + 0.01
            a = NormalizedSeries(x, u)
            b = NormalizedSeries(phi(x), phi(u))
            for g in (BLOCK_MAX, FIRST_EXCEED, RUNS):
                assert sliding_block_sum(g, a, s) == sliding_block_sum(g, b, s)
                assert disjoint_block_sum(g, a, s) == disjoint_block_sum(g, b, s)

    def test_block_max_dominates_runs(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            s = int(rng.integers(1, n + 1))
            x = rng.exponential(size=n)
            ns = NormalizedSeries(x, 1.0)
            assert sliding_block_sum(BLOCK_MAX, ns, s) >= sliding_block_sum(RUNS, ns, s)

    def test_first_exceed_counts_exceedances(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            s = int(rng.integers(1, n + 1))
            x = rng.exponential(size=n)
            ns = NormalizedSeries(x, 1.0)
            assert sliding_block_sum(FIRST_EXCEED, ns, s) == np.count_nonzero(
                x[: n - s + 1] > 1.0
            )


# --------------------------------------------------------------------------
# property tests: the exceedance index against the brute-force windows

@st.composite
def indexed_series(draw):
    """(x, u, s): integer-valued entries, so ties at u are common; u above
    every entry gives a series with no exceedances, and some cases force
    exceedances at both ends; s = 1 and s = n are drawn as often as the
    lengths between."""
    n = draw(st.integers(1, 40))
    x = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), dtype=float)
    u = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0, 7.0]))
    if draw(st.booleans()):
        x[[0, -1]] = u + 1.0
    s = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return x, u, s


@st.composite
def indexed_scheme(draw):
    """(x, u, s, r) with r a multiple of s and at least one big block."""
    x, u, s = draw(indexed_series())
    n = x.size
    if (n - s + 1) // s < 1:
        s = 1
    r = s * draw(st.integers(1, (n - s + 1) // s))
    return x, u, s, r


class TestIndexProperties:
    @settings(max_examples=150)
    @given(indexed_series(), st.data())
    def test_counts_are_prefix_exceedance_counts(self, case, data):
        x, u, _ = case
        ns = NormalizedSeries(x, u)
        assert np.array_equal(ns.positions, np.flatnonzero(x > u))
        want = [int(np.count_nonzero(x[:i] > u)) for i in range(x.size + 1)]
        assert [ns.count(i) for i in range(x.size + 1)] == want
        assert ns.count(np.arange(x.size + 1)).tolist() == want
        with pytest.raises(ValueError):
            ns.positions[...] = 0
        # a rank-k level is the k-th largest value and leaves at most k-1
        # points strictly above it, exactly k-1 without ties (on x + 1, so
        # that every rank level is a valid threshold)
        y, n = x + 1.0, x.size
        k = data.draw(st.integers(1, n), label="k")
        rank_u = ThresholdSpec.rank(k).resolve(y).u
        assert rank_u == np.sort(y)[n - k]
        above = NormalizedSeries(y, rank_u).count(n)
        assert above <= k - 1
        if np.unique(y).size == n:
            assert above == k - 1

    @settings(max_examples=150)
    @given(indexed_series())
    def test_rank_level_off_the_index(self, case):
        # k runs over 1..n, so the index holds fewer, exactly and more than
        # k exceedances; integer entries tie at the level
        x, u, _ = case
        ns = NormalizedSeries(x, u)
        for k in range(1, x.size + 1):
            spec = ThresholdSpec.rank(k)
            assert spec.resolve(ns).u == spec.resolve(x).u, (k, ns.positions.size)

    @settings(max_examples=150)
    @given(indexed_series(), st.data())
    def test_rank_level_on_an_index_is_the_partition(self, case, data):
        # the index level is often a value of the series, tied at several
        # points, so the level itself is the k-th largest for some k; those
        # ranks are read off the index, with no partition
        x = case[0] + 1.0  # positive, so that every level below is a valid threshold
        u = data.draw(st.one_of(st.sampled_from(x.tolist()), st.sampled_from([0.5, 3.5, 7.5])),
                      label="u")
        ns = NormalizedSeries(x, u)
        above, at = ns.positions.size, int(np.count_nonzero(x == u))
        for k in range(1, x.size + 1):
            with mock.patch.object(np, "partition", wraps=np.partition) as partition:
                got = ThresholdSpec.rank(k).resolve(ns).u
            assert got == np.partition(x, x.size - k)[x.size - k], (k, u)
            assert partition.called == (not above < k <= above + at), (k, u)

    @settings(max_examples=150)
    @given(indexed_series(), st.data())
    def test_index_at_another_level(self, case, data):
        x, u, _ = case
        ns = NormalizedSeries(x, u)
        u2 = data.draw(st.sampled_from([u / 2, u, u + 0.5, u + 1.0, 7.5]), label="u2")
        other = NormalizedSeries(ns, u2)
        assert other.values is ns.values
        assert other.positions.dtype == ns.positions.dtype
        assert np.array_equal(other.positions, np.flatnonzero(x > u2))
        assert not other.positions.flags.writeable

    @settings(max_examples=150)
    @given(indexed_scheme(), st.data())
    def test_kept_values_in_any_call_order(self, case, data):
        # each result is built from what earlier calls kept on the index,
        # at the scheme's block length and at a second one
        x, u, s, r = case
        n = x.size
        scheme = BlockScheme(n, s, r)
        ns = NormalizedSeries(x, u)
        s2 = data.draw(st.integers(1, n), label="s2")
        calls = {
            "kept": lambda g, t: densified(g, ns, t),
            "sliding_block_sum": lambda g, t: sliding_block_sum(g, ns, t),
            "disjoint_block_sum": lambda g, t: disjoint_block_sum(g, ns, t),
            "big_block_sums.sliding": lambda g, t: big_block_sums(g, ns, scheme, "sliding"),
            "big_block_sums.disjoint": lambda g, t: big_block_sums(g, ns, scheme, "disjoint"),
        }
        todo = [(g, name, t) for g in (BLOCK_MAX, FIRST_EXCEED, RUNS, SQ) for name in calls
                for t in ((s, s2) if name in ("kept", "sliding_block_sum",
                                              "disjoint_block_sum") else (s,))]
        for g, name, t in data.draw(st.permutations(todo * 2), label="order"):
            want = {"kept": brute_window_values(g, x, u, t), **brute_sums(g, x, u, t, r)}[name]
            got = calls[name](g, t)
            assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes(), \
                (g.name, name, t)

    @settings(max_examples=150)
    @given(indexed_series())
    def test_kept_form_and_sums(self, case):
        # one form per functional: its starts, and a custom g's values there
        # alone; every sum adds those values in the kernel's order
        x, u, s = case
        ns = NormalizedSeries(x, u)
        for g in (BLOCK_MAX, FIRST_EXCEED, RUNS, SQ):
            assert np.array_equal(densified(g, ns, s), brute_window_values(g, x, u, s))
            want = brute_sums(g, x, u, s)
            assert np.float64(sliding_block_sum(g, ns, s)).tobytes() == \
                want["sliding_block_sum"].tobytes()
            assert np.float64(disjoint_block_sum(g, ns, s)).tobytes() == \
                want["disjoint_block_sum"].tobytes()
        starts, vals = _starts(SQ, ns, s)
        assert starts is _starts(BLOCK_MAX, ns, s)[0]
        assert vals.dtype == np.float64 and vals.shape == starts.shape

    @settings(max_examples=150)
    @given(indexed_scheme())
    def test_big_block_sums(self, case):
        x, u, s, r = case
        scheme = BlockScheme(x.size, s, r)
        ns = NormalizedSeries(x, u)
        for g in (BLOCK_MAX, FIRST_EXCEED, RUNS, SQ):
            want = brute_sums(g, x, u, s, r)
            for mode in ("sliding", "disjoint"):
                got = big_block_sums(g, ns, scheme, mode)
                assert got.dtype == np.float64 and got.shape == (scheme.m,)
                assert got.tobytes() == np.asarray(
                    want["big_block_sums." + mode], dtype=float).tobytes(), (g.name, mode)

    @settings(max_examples=150)
    @given(indexed_scheme())
    def test_count_second_moment(self, case):
        x, u, s, r = case
        n = x.size
        scheme = BlockScheme(n, s, r)
        n_exceed = int(np.count_nonzero(x > u))
        if n_exceed == 0:
            with pytest.raises(NoExceedancesError):
                count_second_moment(x, u, scheme)
            return
        counts = np.array(
            [np.count_nonzero(x[i * r : (i + 1) * r] > u) for i in range(scheme.m)],
            dtype=float,
        )
        want = float(np.mean(counts**2)) / (r * (n_exceed / n))
        assert count_second_moment(x, u, scheme) == want

    @settings(max_examples=150)
    @given(indexed_series(), st.sampled_from(["trimmed", "full"]))
    def test_theta_estimators(self, case, denominator):
        x, u, s = case
        n = x.size
        stop = n - s + 1 if denominator == "trimmed" else n
        den = int(np.count_nonzero(x[:stop] > u))
        estimators = (theta_disjoint, theta_sliding, theta_runs)
        if den == 0:
            for est in estimators:
                with pytest.raises(NoExceedancesError):
                    est(x, u, s, denominator=denominator)
            return
        block_max = brute_window_values(BLOCK_MAX, x, u, s)
        runs = brute_window_values(RUNS, x, u, s)
        want = {
            "disjoint": block_max[: (n // s) * s : s].sum() / den,
            "sliding": block_max.sum() / s / den,
            "runs": runs.sum() / den,
        }
        for est in estimators:
            got = est(x, u, s, denominator=denominator)
            assert got.theta_hat == want[got.method]
            assert got.n_exceed == den


class TestRefusals:
    def test_big_block_scheme_must_match_the_series(self):
        ns = NormalizedSeries(FIX, 4.0)
        with pytest.raises(SchemeError, match="scheme n=12 does not match series length 6"):
            big_block_sums(BLOCK_MAX, ns, BlockScheme(12, 2, 4), "sliding")

    def test_big_block_mode(self):
        ns = NormalizedSeries(FIX, 4.0)
        with pytest.raises(ValueError, match="mode must be 'sliding' or 'disjoint', got 'both'"):
            big_block_sums(BLOCK_MAX, ns, BlockScheme(6, 1, 2), "both")

    @pytest.mark.parametrize("values, positions", [
        ([2.0], [5]),  # past the series
        ([2.0], [-1]),  # before it
        ([2.0, 3.0], [1]),  # fewer positions than values
        ([], [1]),  # more positions than values
        ([2.0, 3.0], [2, 1]),  # out of order
        ([2.0, 3.0], [1, 1]),  # repeated
        ([2.0], [1.5]),  # not an integer
    ], ids=["past_n", "negative", "too_few", "too_many", "unsorted", "repeated", "float"])
    def test_positions_must_index_the_values(self, values, positions):
        with pytest.raises(ValueError, match=r"strictly increasing integers in 0\.\.2"):
            NormalizedSeries(values, 0.5, positions=positions, n=3)

    def test_positions_may_be_empty_or_unsigned(self):
        assert NormalizedSeries([], 0.5, positions=[], n=3).positions.dtype == np.int64
        ns = NormalizedSeries([2.0, 3.0], 0.5, positions=np.array([0, 2], np.uint8), n=3)
        assert ns.positions.dtype == np.int64 and ns.count(3) == 2


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(exindex.__path__)))
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"exindex.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
