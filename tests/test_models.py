"""Simulator tests: marginals, recursion replay, tail chains, MC oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_blocks import PROPERTY

from exindex.errors import InsufficientEventsError, InvalidThresholdError
from exindex.models import (
    _PATH_CHUNK,
    _TILE,
    ModelSpec,
    _path_chunks,
    conditional_exceedance_profile,
    count_variance_limit,
    simulate,
    stream,
    tail_chain_probs,
    theta_oracle_mc,
)

ALL_SPECS = [ModelSpec.iid(), ModelSpec.armax(0.5), ModelSpec.moving_max(1)]


def frechet_sup_dev(x):
    """Sup distance between the empirical CDF and the unit Frechet CDF."""
    u = np.sort(np.asarray(x))
    emp = np.arange(1, u.size + 1) / u.size
    return float(np.max(np.abs(emp - np.exp(-1.0 / u))))


class TestSpecValidation:
    def test_theta_true(self):
        assert ModelSpec.iid().theta_true == 1.0
        assert ModelSpec.armax(0.3).theta_true == pytest.approx(0.7)
        assert ModelSpec.moving_max(1).theta_true == pytest.approx(0.5)
        assert ModelSpec.moving_max(3).theta_true == pytest.approx(0.25)
        assert ModelSpec.moving_max(1, weights=(0.7, 0.3)).theta_true == pytest.approx(0.7)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ModelSpec.armax(0.0)
        with pytest.raises(ValueError):
            ModelSpec.armax(1.0)
        with pytest.raises(ValueError):
            ModelSpec.moving_max(0)
        with pytest.raises(ValueError):
            ModelSpec.moving_max(1, weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            ModelSpec("garch")

    @pytest.mark.parametrize(
        "kwargs, problem",
        [
            (dict(family="iid_frechet", alpha=0.5), "iid_frechet does not take alpha"),
            (dict(family="armax", alpha=0.5, q=3), "armax does not take q"),
            (dict(family="armax", alpha=0.5, weights=("a", "b")), "armax does not take weights"),
            (dict(family="moving_max", q=1, alpha=0.5), "moving_max does not take alpha"),
            (dict(family="armax", alpha="0.5"), "armax needs alpha in (0,1), got '0.5'"),
            (dict(family="moving_max", q=True), "moving_max needs an integer q >= 1, got True"),
            (dict(family=["armax"]), "unknown family ['armax']"),
            (dict(family="moving_max", q=2, weights=(0.5, 0.5)),
             "moving_max weights must be 3 positive numbers"),
            (dict(family="moving_max", q=1, weights=(float("nan"), 0.5)),
             "moving_max weights must be 2 positive numbers"),
            (dict(family="moving_max", q=1, weights=([0.5], [0.5])),
             "moving_max weights must be 2 positive numbers"),
        ],
    )
    def test_parameters_must_belong_to_the_family(self, kwargs, problem):
        with pytest.raises(ValueError) as exc:
            ModelSpec(**kwargs)
        assert str(exc.value) == problem

    def test_q_is_capped(self):
        assert ModelSpec.moving_max(1000).burn_in == 50_000  # built, never simulated
        for q in (1001, 10**8, 10**400):
            with pytest.raises(ValueError, match="moving_max needs q <= 1000, got"):
                ModelSpec("moving_max", q=q)

    def test_burn_in(self):
        assert ModelSpec.armax(0.5).burn_in == 1000
        assert ModelSpec.moving_max(30).burn_in == 1500

    def test_marginal_quantile(self):
        u = ModelSpec.iid().marginal_quantile(0.99)
        assert math.exp(-1.0 / u) == pytest.approx(0.99, rel=1e-12)
        with pytest.raises(InvalidThresholdError):
            ModelSpec.iid().marginal_quantile(1.0)


class TestSimulate:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_deterministic(self, spec):
        a = simulate(spec, 500, 7)
        b = simulate(spec, 500, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, simulate(spec, 500, 8))

    def test_tuple_seed(self):
        spec = ModelSpec.armax(0.5)
        assert np.array_equal(simulate(spec, 50, (3, 4)), simulate(spec, 50, (3, 4)))
        assert not np.array_equal(simulate(spec, 50, (3, 4)), simulate(spec, 50, (4, 3)))

    def test_chunking_invisible(self):
        # paths longer than the internal chunk must look like one stream
        spec = ModelSpec.armax(0.5)
        long = simulate(spec, (1 << 20) + 500, 5)
        assert long.size == (1 << 20) + 500
        assert np.all(long > 0)

    @pytest.mark.parametrize(
        "spec, buffers",
        [(ModelSpec.iid(), 0), (ModelSpec.armax(0.5), 1), (ModelSpec.moving_max(1), 1)],
        ids=["iid_frechet", "armax", "moving_max"],
    )
    def test_path_held_once(self, spec, buffers):
        # a path of 3 chunks and a bit more is built in place: beyond the
        # path, only the family's chunk-sized buffers are allocated (armax
        # its a*j, moving_max the lagged innovations)
        n = 3 * _PATH_CHUNK + 1000
        tracemalloc.start()
        try:
            x = simulate(spec, n, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        path = (n + spec.burn_in) * x.itemsize
        assert peak <= path + buffers * _PATH_CHUNK * x.itemsize + (1 << 20)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_unit_frechet_marginal(self, spec):
        dev = frechet_sup_dev(simulate(spec, 200_000, 3))
        assert dev < 0.01

    def test_armax_recursion_replay(self):
        # regenerate the innovation stream and replay the recursion directly
        spec = ModelSpec.armax(0.5)
        rng = stream(9, 1)
        total = 2000 + spec.burn_in
        prev = math.exp(-math.log(rng.standard_exponential()))
        z = 1.0 / rng.standard_exponential(total)
        path = np.empty(total)
        for t in range(total):
            prev = max(spec.alpha * prev, (1 - spec.alpha) * z[t])
            path[t] = prev
        sim = simulate(spec, 2000, 9)
        np.testing.assert_allclose(sim, path[spec.burn_in :], rtol=1e-9)

    def test_moving_max_construction_replay(self):
        spec = ModelSpec.moving_max(2)
        rng = stream(4, 1)
        q, total = 2, 300 + spec.burn_in
        z = np.concatenate([1.0 / rng.standard_exponential(q),
                            1.0 / rng.standard_exponential(total)])
        w = spec.lag_weights
        path = np.array(
            [max(w[j] * z[q + t - j] for j in range(q + 1)) for t in range(total)]
        )
        sim = simulate(spec, 300, 4)
        np.testing.assert_allclose(sim, path[spec.burn_in :], rtol=1e-12)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            simulate(ModelSpec.iid(), 0, 1)


class TestTailChain:
    def test_analytic_values(self):
        assert np.array_equal(tail_chain_probs(ModelSpec.iid(), 5), np.zeros(5))
        got = tail_chain_probs(ModelSpec.armax(0.5), 4)
        assert np.allclose(got, [0.5, 0.25, 0.125, 0.0625], rtol=1e-14)
        got = tail_chain_probs(ModelSpec.moving_max(1), 3)
        assert np.allclose(got, [0.5, 0.0, 0.0])
        # equal weights over q+1 lags: P{W_k > 1} = (q+1-k)/(q+1)
        got = tail_chain_probs(ModelSpec.moving_max(3), 5)
        assert np.allclose(got, [0.75, 0.5, 0.25, 0.0, 0.0])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_mc_matches_analytic(self, spec):
        ana = tail_chain_probs(spec, 6)
        mc = tail_chain_probs(spec, 6, method="mc", reps=200_000, seed=1)
        se = np.sqrt(np.maximum(ana * (1 - ana), 1e-12) / 200_000)
        assert np.all(np.abs(mc - ana) <= 4 * se + 1e-9)

    def test_count_variance_closed_forms(self):
        assert count_variance_limit(ModelSpec.iid()) == 1.0
        for alpha in (0.25, 0.5, 0.7):
            want = (1 + alpha) / (1 - alpha)
            assert count_variance_limit(ModelSpec.armax(alpha)) == pytest.approx(
                want, rel=1e-13
            )
        assert count_variance_limit(ModelSpec.moving_max(1)) == pytest.approx(2.0)
        # equal weights: 1 + q
        assert count_variance_limit(ModelSpec.moving_max(4)) == pytest.approx(5.0)

    def test_count_variance_mc(self):
        probs = tail_chain_probs(ModelSpec.armax(0.5), 40, method="mc", reps=300_000, seed=2)
        assert 1 + 2 * probs.sum() == pytest.approx(3.0, abs=0.02)

    def test_probs_nonincreasing_for_default_families(self):
        for spec in (ModelSpec.iid(), ModelSpec.armax(0.5), ModelSpec.armax(0.9),
                     ModelSpec.moving_max(1), ModelSpec.moving_max(5)):
            probs = tail_chain_probs(spec, 10)
            assert np.all(np.diff(probs) <= 1e-15), spec.label()

    def test_probs_can_increase_for_valley_weights(self):
        # a valley-shaped weight profile revives the chain at lag 2: the
        # dominating innovation at lag 0 reappears with equal weight two
        # steps later, so monotonicity in the lag is weight-specific
        spec = ModelSpec.moving_max(2, weights=(0.45, 0.1, 0.45))
        probs = tail_chain_probs(spec, 3)
        assert probs[0] == pytest.approx(0.2)
        assert probs[1] == pytest.approx(0.45)
        mc = tail_chain_probs(spec, 3, method="mc", reps=200_000, seed=3)
        assert np.all(np.abs(mc - probs) < 0.01)


class TestThetaOracle:
    def test_armax_matches_exact_estimand(self):
        # P{window max <= u} has the closed form exp(-(1+(s-1)(1-a))/u)
        # for this chain, giving the exact value of the oracle's estimand
        spec = ModelSpec.armax(0.5)
        s, p, reps = 64, 0.995, 10_000
        u = spec.marginal_quantile(p)
        p_hit = 1.0 - math.exp(-(1 + (s - 1) * 0.5) / u)
        exact = p_hit / (s * (1 - p))
        se = math.sqrt(p_hit * (1 - p_hit) / reps) / (s * (1 - p))
        got = theta_oracle_mc(spec, s, p, reps, seed=11)
        assert abs(got - exact) <= 3 * se
        # consistency with theta_true at desk scale: the exact estimand
        # sits 0.0302 below 1-alpha at these parameters
        assert abs(got - spec.theta_true) <= abs(exact - spec.theta_true) + 3 * se

    def test_iid_near_one(self):
        spec = ModelSpec.iid()
        s, p, reps = 16, 0.999, 100_000
        u = spec.marginal_quantile(p)
        p_hit = 1.0 - math.exp(-s / u)
        exact = p_hit / (s * (1 - p))
        se = math.sqrt(p_hit * (1 - p_hit) / reps) / (s * (1 - p))
        got = theta_oracle_mc(spec, s, p, reps, seed=11)
        assert abs(got - exact) <= 3 * se
        assert abs(got - 1.0) <= abs(exact - 1.0) + 3 * se

    def test_moving_max_matches_exact_estimand(self):
        # all of Z_0..Z_s must stay below 2u: P{M <= u} = exp(-(s+1)/(2u))
        spec = ModelSpec.moving_max(1)
        s, p, reps = 64, 0.995, 10_000
        u = spec.marginal_quantile(p)
        p_hit = 1.0 - math.exp(-(s + 1) / (2 * u))
        exact = p_hit / (s * (1 - p))
        se = math.sqrt(p_hit * (1 - p_hit) / reps) / (s * (1 - p))
        got = theta_oracle_mc(spec, s, p, reps, seed=11)
        assert abs(got - exact) <= 3 * se

    def test_error_shrinks_with_quantile(self):
        spec = ModelSpec.armax(0.5)
        lo = theta_oracle_mc(spec, 64, 0.98, 20_000, seed=13)
        hi = theta_oracle_mc(spec, 64, 0.9995, 20_000, seed=13)
        assert abs(hi - 0.5) < abs(lo - 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            theta_oracle_mc(ModelSpec.iid(), 8, 0.99, 99, seed=1)
        with pytest.raises(InvalidThresholdError):
            theta_oracle_mc(ModelSpec.iid(), 8, 1.2, 1000, seed=1)


class TestConditionalProfile:
    def test_armax_profile_matches_markov_values(self):
        spec = ModelSpec.armax(0.5)
        prof = conditional_exceedance_profile(spec, 4, 0.99, 30_000, seed=5)
        # at lag k the conditional probability is close to alpha^k plus an
        # O(v) independent-overlap term
        for k in range(1, 5):
            se = math.sqrt(0.5**k * (1 - 0.5**k) / prof.n_events)
            assert abs(prof.probs[k - 1] - 0.5**k) <= 4 * se + 3 * 0.01

    def test_iid_profile_near_marginal_rate(self):
        prof = conditional_exceedance_profile(ModelSpec.iid(), 3, 0.99, 30_000, seed=5)
        assert np.all(np.abs(prof.probs - 0.01) < 0.01)

    def test_moving_max_dies_after_lag_one(self):
        prof = conditional_exceedance_profile(
            ModelSpec.moving_max(1), 3, 0.999, 20_000, seed=5
        )
        assert abs(prof.probs[0] - 0.5) < 0.02
        assert prof.probs[1] < 0.01  # independent beyond the window: ~v
        assert prof.probs[2] < 0.01

    def test_count_variance_estimate_with_se(self):
        spec = ModelSpec.armax(0.5)
        prof = conditional_exceedance_profile(spec, 8, 0.99, 50_000, seed=6)
        c_hat, se = prof.count_variance_estimate()
        assert se > 0
        assert abs(c_hat - 3.0) <= 3 * se + 2 * 8 * 0.01

    def test_insufficient_events(self):
        with pytest.raises(InsufficientEventsError) as exc:
            conditional_exceedance_profile(ModelSpec.iid(), 2, 0.99, 100, seed=1)
        assert exc.value.achieved < 500
        assert exc.value.required == 500

    def test_deterministic(self):
        spec = ModelSpec.moving_max(1)
        a = conditional_exceedance_profile(spec, 3, 0.99, 5_000, seed=9)
        b = conditional_exceedance_profile(spec, 3, 0.99, 5_000, seed=9)
        assert np.array_equal(a.probs, b.probs)
        assert a.n_events == b.n_events


    @pytest.mark.parametrize("spec, k_max", [
        (ModelSpec.armax(0.5), 8),
        (ModelSpec.moving_max(1), 4),
        (ModelSpec.iid(), 4),
    ], ids=["armax", "moving_max", "iid"])
    def test_profile_holds_no_chunk(self, spec, k_max):
        # the positions are drawn a tile at a time and only the candidate
        # draws are kept: over a path of four chunks the peak stays far
        # below one chunk of floats
        tracemalloc.start()
        try:
            prof = conditional_exceedance_profile(spec, k_max, 0.999, 3_200, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.n_points > 3 * _PATH_CHUNK
        assert peak < _PATH_CHUNK * 8 // 4

    @pytest.mark.parametrize("spec, k_max", [
        (ModelSpec.armax(0.5), 8),
        (ModelSpec.moving_max(3, weights=(0.1, 0.4, 0.3, 0.2)), 5),
        (ModelSpec.iid(), 4),
    ], ids=["armax", "moving_max", "iid"])
    def test_profile_is_its_definition_across_a_chunk_boundary(self, spec, k_max):
        prof = conditional_exceedance_profile(spec, k_max, 0.999, 1_500, seed=9)
        total = prof.n_points
        assert total > _PATH_CHUNK
        x = np.concatenate(list(_path_chunks(spec, total, stream(9, 4))))
        hit = x > prof.u
        assert prof.n_events == np.flatnonzero(hit).size
        # P(X_k > u | X_0 > u): pairs (t, t+k) over the events with t + k < total
        want = [np.count_nonzero(hit[:-k] & hit[k:]) / np.count_nonzero(hit[:-k])
                for k in range(1, k_max + 1)]
        assert prof.probs.tolist() == want
        # one batch per chunk, each pair counted in the chunk that holds t+k
        batches = []
        for start in range(0, total, _PATH_CHUNK):
            stop = min(start + _PATH_CHUNK, total)
            ev = np.count_nonzero(hit[start:stop])
            pairs = np.array([
                np.count_nonzero(hit[max(start, k) : stop] & hit[max(start, k) - k : stop - k])
                for k in range(1, k_max + 1)
            ])
            if ev > 0:
                batches.append(1.0 + 2.0 * float(np.sum(pairs / ev - ev / (stop - start))))
        assert prof.batch_values.tolist() == batches


class TestPositionsKernel:
    """The positions-only path against the values it stands for."""

    @staticmethod
    def _spec(family, alpha, q, raw):
        if family == "armax":
            return ModelSpec.armax(alpha)
        if family == "moving_max":
            w = np.asarray(raw[: q + 1])
            return ModelSpec.moving_max(q, weights=w / w.sum() if len(raw) > q else None)
        return ModelSpec.iid()

    @PROPERTY
    @given(
        family=st.sampled_from(["iid_frechet", "armax", "moving_max"]),
        alpha=st.floats(0.05, 0.95),
        q=st.integers(1, 5),
        raw=st.lists(st.floats(0.01, 1.0), max_size=6),
        seed=st.integers(0, 2**32),
        total=st.integers(1, 1500),
        chunk=st.integers(1, 400),
        tile=st.integers(1, 64),
        quantile=st.floats(0.05, 0.9999),
        near=st.sampled_from([None, "at", "below", "above"]),
        pick=st.integers(0, 10**6),
    )
    def test_positions_are_the_exceedances_of_the_values(
        self, family, alpha, q, raw, seed, total, chunk, tile, quantile, near, pick
    ):
        spec = self._spec(family, alpha, q, raw)
        values = list(_path_chunks(spec, total, stream(seed), chunk=chunk, tile=tile))
        # the tile length is invisible in the values; the chunk length is not
        whole = list(_path_chunks(spec, total, stream(seed), chunk=chunk, tile=_TILE))
        assert np.array_equal(np.concatenate(values), np.concatenate(whole))
        u = spec.marginal_quantile(quantile)
        if near is not None:  # u on a path value, or one float either side of it
            x = float(np.concatenate(values)[pick % total])
            u = {"at": x, "below": np.nextafter(x, 0.0), "above": np.nextafter(x, np.inf)}[near]
        found = list(_path_chunks(spec, total, stream(seed), u=u, chunk=chunk, tile=tile))
        assert len(found) == len(values)
        for pos, chunk_values in zip(found, values):
            assert np.array_equal(pos, np.flatnonzero(chunk_values > u))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_armax_state_carried_across_chunks(self, seed):
        # alpha=0.9 at the median with 50-point chunks: at some chunk ends
        # the state lifts points at the next chunk's start, and at others
        # its argmax is a draw that is no candidate (and lifts nothing)
        spec, chunk, tile, total = ModelSpec.armax(0.9), 50, 7, 5_000
        u = spec.marginal_quantile(0.5)
        values = list(_path_chunks(spec, total, stream(seed), chunk=chunk, tile=tile))
        found = list(_path_chunks(spec, total, stream(seed), u=u, chunk=chunk, tile=tile))
        for pos, chunk_values in zip(found, values):
            assert np.array_equal(pos, np.flatnonzero(chunk_values > u))
        # both cases occur, read from the same draws (the first is the start)
        x = np.concatenate(values).reshape(-1, chunk)
        e = stream(seed).standard_exponential(total + 1)[1:].reshape(-1, chunk)
        no_candidate = e >= 2 * (1 - spec.alpha) / u  # candidates lie below about (1-alpha)/u
        assert np.any((x[1:, 0] > u) & no_candidate[1:, 0])  # lifted by the state alone
        # the state leaving chunk c: its largest L_i - a*(i+1), if well above
        # the state entering it
        d = math.log1p(-spec.alpha) - np.log(e) - math.log(spec.alpha) * np.arange(1.0, chunk + 1.0)
        wins = d[1:].max(axis=1) > np.log(x[:-1, -1]) + 1e-6
        argmax = d[1:].argmax(axis=1)
        assert np.any(wins & no_candidate[1:][np.arange(argmax.size), argmax])
