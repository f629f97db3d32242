"""Simulator tests: marginals, recursion replay, tail chains, MC oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exindex import models
from exindex.errors import InsufficientEventsError, InvalidThresholdError
from exindex.models import (
    _PATH_CHUNK,
    ModelSpec,
    _candidates,
    _dense_candidates,
    _draws_at,
    _exceedance_chunks,
    _moving_max,
    _pair_counts,
    _path_chunks,
    conditional_exceedance_profile,
    count_variance_limit,
    simulate,
    stream,
    tail_chain_probs,
    theta_oracle_mc,
)

ALL_SPECS = [ModelSpec.iid(), ModelSpec.armax(0.5), ModelSpec.moving_max(1)]


def profile_at_closed_forms(spec, lags, seed):
    """The path profile at the 0.999 quantile from 200 000 events, each lag
    checked against the closed form: |p_k - P{W_k > 1}| <= 4 SE + v with
    SE = sqrt(p_k (1 - p_k) / n_events)."""
    prof = conditional_exceedance_profile(spec, lags, 0.999, 200_000, seed=seed)
    se = np.sqrt(prof.probs * (1 - prof.probs) / prof.n_events)
    err = np.abs(prof.probs - tail_chain_probs(spec, lags))
    assert np.all(err <= 4 * se + 0.001), (err, se)
    return prof


class Replay:
    """A stand-in generator for ``_path_chunks``: each ``standard_exponential``
    call returns the next of the given draws, which has the size asked for."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def standard_exponential(self, size=None, out=None):
        e = next(self._draws)
        assert e.size == (1 if size is None else size)
        if size is None:
            return float(e[0])
        if out is None:
            return e.copy()
        out[...] = e
        return out


def record_draws(monkeypatch, spec, *keys):
    """Make ``models._candidates`` record, call by call, the draws its
    candidates stand for: theirs at the candidates and thr + Exp(1), which
    lifts nothing, at every other point.  Returns the list they are
    appended to, headed for armax by the start draw that ``stream(*keys)``
    gives first, ready for ``Replay``."""
    draws = [stream(*keys).standard_exponential(1)] if spec.family == "armax" else []
    fill, sample = np.random.default_rng(0), models._candidates

    def recording(rng, size, thr):
        c, ec = sample(rng, size, thr)
        e = thr + fill.standard_exponential(size)
        e[c] = ec
        draws.append(e)
        return c, ec

    monkeypatch.setattr(models, "_candidates", recording)
    return draws


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
        profile_at_closed_forms(spec, 6, seed=1)

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
        # unequal weights: 1 + 2 * (0.2 + 0.45), and 1 + 2 * (0.6 + 0.3 + 0.1)
        for weights, want in [((0.45, 0.1, 0.45), 2.3), ((0.1, 0.4, 0.3, 0.2), 3.0)]:
            spec = ModelSpec.moving_max(len(weights) - 1, weights)
            assert count_variance_limit(spec) == pytest.approx(want, rel=1e-13)

    def test_count_variance_mc(self):
        # criterion 06's bound on the path estimate of 1 + 2 * sum_k P{W_k > 1}
        k_max, v = 40, 0.001
        spec = ModelSpec.armax(0.5)
        c_hat, se = profile_at_closed_forms(spec, k_max, seed=2).count_variance_estimate()
        assert abs(c_hat - count_variance_limit(spec)) <= 3 * se + 2 * k_max * v, (c_hat, se)

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
        profile_at_closed_forms(spec, 3, seed=3)


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
        for s in (0, -3):
            with pytest.raises(ValueError, match="window length"):
                theta_oracle_mc(ModelSpec.iid(), s, 0.99, 1000, seed=1)

    def test_window_longer_than_a_chunk_counted_once(self, monkeypatch):
        # a window is one chunk whatever the simulation chunk: iid windows
        # are the first reps*s draws of the stream, row by row
        spec, s, p, reps = ModelSpec.iid(), 16, 0.99, 500
        armax = theta_oracle_mc(ModelSpec.armax(0.5), s, p, reps, seed=3)
        monkeypatch.setattr(models, "_PATH_CHUNK", 4)
        z = 1.0 / stream(3, 2).standard_exponential((reps, s))
        hits = np.count_nonzero(z.max(axis=1) > spec.marginal_quantile(p))
        assert theta_oracle_mc(spec, s, p, reps, seed=3) == hits / (reps * s * (1 - p))
        assert theta_oracle_mc(ModelSpec.armax(0.5), s, p, reps, seed=3) == armax


class TestMovingMaxTiles:
    def test_batch_products_are_tiled_by_points(self, monkeypatch):
        # a batch of rows longer than a tile is taken a few rows at a time:
        # each lag's product allocates about one tile, not the whole batch
        monkeypatch.setattr(models, "_TILE", 1024)
        w, q = np.array([0.5, 0.3, 0.2]), 2
        rows, s = 64, 4096
        e = 1.0 / stream(4, 0).standard_exponential((rows, s + q))
        out = np.empty((rows, s))
        want = np.max([w[j] * e[:, q - j : q - j + s] for j in range(q + 1)], axis=0)
        tracemalloc.start()
        try:
            x = _moving_max(w, lambda j: e[:, q - j : q - j + s], out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x is out and np.array_equal(x, want)
        assert peak <= out.nbytes // 8


class RecordingStream:
    """A generator that keeps a copy of every batch of exponentials it draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def standard_exponential(self, size=None, out=None):
        e = self.rng.standard_exponential(size, out=out)
        self.draws.append(e.copy())
        return e


class TestPathBatches:
    @pytest.mark.parametrize("spec", [
        ModelSpec.iid(),
        ModelSpec.armax(0.7),
        ModelSpec.moving_max(3, weights=(0.1, 0.4, 0.3, 0.2)),
        ModelSpec.moving_max(2, weights=(0.4, 0.4, 0.2)),
    ], ids=["iid", "armax", "moving_max", "moving_max_tied"])
    @pytest.mark.parametrize("total, chunk", [(1, 1), (7, 2), (50, 50), (50, 16), (300, 128)])
    def test_each_row_is_the_path_of_its_draws(self, spec, total, chunk):
        # row i of a batch is the single path that its own draws (row i of
        # each batched call) give, bit for bit
        rng = RecordingStream(stream(5, 2))
        batch = np.concatenate(list(_path_chunks(spec, total, rng, chunk=chunk, paths=6)),
                               axis=-1)
        assert batch.shape == (6, total)
        assert all(d.shape[0] == 6 for d in rng.draws)
        for i, row in enumerate(batch):
            one = list(_path_chunks(spec, total, Replay([d[i] for d in rng.draws]), chunk=chunk))
            assert row.tobytes() == np.concatenate(one).tobytes()


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

    @pytest.mark.parametrize("spec, k_max", [
        (ModelSpec.armax(0.5), 8),
        (ModelSpec.moving_max(1), 4),
        (ModelSpec.iid(), 4),
    ], ids=["armax", "moving_max", "iid"])
    def test_count_variance_at_quantile_9999(self, spec, k_max):
        # criterion 06's cross-check at a level ten times rarer: 10^6 events
        # over 10^10 points, where the finite-level allowance 2*k_max*v is
        # ten times smaller than at quantile 0.999
        quantile, v = 0.9999, 1e-4
        prof = conditional_exceedance_profile(spec, k_max, quantile, 1_000_000, seed=5)
        c_hat, se = prof.count_variance_estimate()
        assert abs(c_hat - count_variance_limit(spec)) <= 3 * se + 2 * k_max * v, (c_hat, se)

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
        # only the candidates are drawn: over a path of four chunks the
        # peak stays far below one chunk of floats
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
    def test_profile_is_its_definition_across_a_chunk_boundary(self, spec, k_max, monkeypatch):
        draws = record_draws(monkeypatch, spec, 9, 4)
        prof = conditional_exceedance_profile(spec, k_max, 0.999, 1_500, seed=9)
        total = prof.n_points
        assert total > _PATH_CHUNK
        x = np.concatenate(list(_path_chunks(spec, total, Replay(draws))))
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
    """The positions-only path against the values it stands for: the path
    that ``_path_chunks`` builds from the candidates' draws, with draws that
    lift nothing at every other point."""

    @staticmethod
    def _spec(family, alpha, q, raw):
        if family == "armax":
            return ModelSpec.armax(alpha)
        if family == "moving_max":
            w = np.asarray(raw[: q + 1])
            return ModelSpec.moving_max(q, weights=w / w.sum() if len(raw) > q else None)
        return ModelSpec.iid()

    @settings(max_examples=150)
    @given(
        family=st.sampled_from(["iid_frechet", "armax", "moving_max"]),
        alpha=st.floats(0.05, 0.95),
        q=st.integers(1, 5),
        raw=st.lists(st.floats(0.01, 1.0), max_size=6),
        seed=st.integers(0, 2**32),
        total=st.integers(1, 1500),
        chunk=st.integers(1, 400),
        quantile=st.floats(0.05, 0.9999),
        near=st.sampled_from([None, "at", "below", "above"]),
        pick=st.integers(0, 10**6),
    )
    def test_positions_are_the_exceedances_of_the_values(
        self, family, alpha, q, raw, seed, total, chunk, quantile, near, pick
    ):
        spec = self._spec(family, alpha, q, raw)
        u = spec.marginal_quantile(quantile)
        with pytest.MonkeyPatch.context() as mp:
            draws = record_draws(mp, spec, seed)
            found = list(_exceedance_chunks(spec, total, stream(seed), u, models._candidates,
                                            chunk))
        values = list(_path_chunks(spec, total, Replay(draws), chunk=chunk))
        assert len(found) == len(values)
        for start, (pos, _), chunk_values in zip(range(0, total, chunk), found, values):
            assert np.array_equal(pos, start + np.flatnonzero(chunk_values > u))
        if near is None:
            return
        # u on a path value, or one float either side of it: the same draws
        # give the candidates, now those below the threshold of this u
        x = float(np.concatenate(values)[pick % total])
        u = {"at": x, "below": np.nextafter(x, 0.0), "above": np.nextafter(x, np.inf)}[near]
        chunks = iter(draws[1:] if family == "armax" else draws)  # each call's draws

        def below(rng, size, thr):
            e = next(chunks)
            c = np.flatnonzero(e < thr)
            return c, e[c]

        with pytest.MonkeyPatch.context() as mp:
            found = list(_exceedance_chunks(spec, total, stream(seed), u, below, chunk))
        for start, (pos, _), chunk_values in zip(range(0, total, chunk), found, values,
                                                 strict=True):
            assert np.array_equal(pos, start + np.flatnonzero(chunk_values > u))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_armax_state_carried_across_chunks(self, seed, monkeypatch):
        # alpha=0.9 at the median with 50-point chunks: at some chunk ends
        # the state lifts points at the next chunk's start, and at others
        # its argmax is a draw that is no candidate (and lifts nothing)
        spec, chunk, total = ModelSpec.armax(0.9), 50, 5_000
        u = spec.marginal_quantile(0.5)
        draws = record_draws(monkeypatch, spec, seed)
        found = list(_exceedance_chunks(spec, total, stream(seed), u, models._candidates, chunk))
        values = list(_path_chunks(spec, total, Replay(draws), chunk=chunk))
        for start, (pos, _), chunk_values in zip(range(0, total, chunk), found, values,
                                                 strict=True):
            assert np.array_equal(pos, start + np.flatnonzero(chunk_values > u))
        # both cases occur, read from the same draws (the first is the start)
        x = np.concatenate(values).reshape(-1, chunk)
        e = np.concatenate(draws[1:]).reshape(-1, chunk)
        no_candidate = e >= 2 * (1 - spec.alpha) / u  # candidates lie below about (1-alpha)/u
        assert np.any((x[1:, 0] > u) & no_candidate[1:, 0])  # lifted by the state alone
        # the state leaving chunk c: its largest L_i - a*(i+1), if well above
        # the state entering it
        d = math.log1p(-spec.alpha) - np.log(e) - math.log(spec.alpha) * np.arange(1.0, chunk + 1.0)
        wins = d[1:].max(axis=1) > np.log(x[:-1, -1]) + 1e-6
        argmax = d[1:].argmax(axis=1)
        assert np.any(wins & no_candidate[1:][np.arange(argmax.size), argmax])


class TestDenseCandidates:
    """The kernel on the candidates picked out of the path's own draws
    (``_dense_candidates``) against that path: the exceedances and their
    values, byte for byte."""

    @settings(max_examples=150)
    @given(
        family=st.sampled_from(["iid_frechet", "armax", "moving_max"]),
        alpha=st.floats(0.05, 0.95),
        q=st.integers(1, 5),
        raw=st.lists(st.floats(0.01, 1.0), max_size=6),
        seed=st.integers(0, 2**32),
        total=st.integers(1, 1500),
        chunk=st.integers(1, 400),
        quantile=st.floats(0.05, 0.9999),
        level=st.sampled_from(["quantile", "on_a_value", "at_the_max", "past_the_max"]),
        pick=st.integers(0, 10**6),
    )
    def test_exceedances_and_values_are_the_paths(
        self, family, alpha, q, raw, seed, total, chunk, quantile, level, pick
    ):
        spec = TestPositionsKernel._spec(family, alpha, q, raw)
        x = np.concatenate(list(_path_chunks(spec, total, stream(seed), chunk=chunk)))
        u = {"quantile": spec.marginal_quantile(quantile), "on_a_value": x[pick % total],
             "at_the_max": x.max(), "past_the_max": 2.0 * x.max()}[level]
        found = list(_exceedance_chunks(spec, total, stream(seed), u, _dense_candidates, chunk))
        assert len(found) == -(-total // chunk)
        pos, values = (np.concatenate(part) for part in zip(*found))
        want = np.flatnonzero(x > u)
        assert pos.dtype == want.dtype and pos.tobytes() == want.tobytes()
        assert values.dtype == x.dtype and values.tobytes() == x[want].tobytes()

    @pytest.mark.parametrize("spec", ALL_SPECS + [ModelSpec.moving_max(2, (0.4, 0.4, 0.2))],
                             ids=["iid", "armax", "moving_max", "moving_max_tied"])
    @pytest.mark.parametrize("n", [1, 5, 3_000, _PATH_CHUNK - 1_000 + 2])
    def test_simulate_above_is_the_paths(self, spec, n):
        # the last n leaves two points past the first chunk edge, which lies
        # past the burn-in (1000 points for these families)
        x = simulate(spec, n, (4, 2))
        for u in (0.3, 2.0, float(np.median(x)), float(x.max())):
            pos, values = simulate(spec, n, (4, 2), above=u)
            want = np.flatnonzero(x > u)
            assert pos.tobytes() == want.tobytes() and values.tobytes() == x[want].tobytes()
        assert simulate(spec, n, (4, 2), above=float(x.max()))[0].size == 0

    @pytest.mark.parametrize("above", [0.0, -1.0, float("nan")])
    def test_simulate_above_needs_a_positive_level(self, above):
        with pytest.raises(ValueError, match="must be positive"):
            simulate(ModelSpec.iid(), 10, 1, above=above)


class GapCounter:
    """A generator that keeps every batch of geometric gaps it draws."""

    def __init__(self, rng):
        self.rng, self.gaps = rng, []

    def geometric(self, p, size):
        self.gaps.append(self.rng.geometric(p, size))
        return self.gaps[-1]

    def random(self, size):
        return self.rng.random(size)


class TestCandidates:
    """The law of the candidates at a fixed seed: the indices of a
    Bernoulli(p) set among ``size`` points, p = 1 - exp(-thr), and their
    draws from the exponential law truncated to [0, thr).  Tolerances: six
    binomial standard deviations for the count, and the DKW bound at level
    1e-6 for the distribution functions."""

    @pytest.mark.parametrize("thr, size", [
        (1e-3, 10_000_000),
        (0.1, 1_000_000),
        (20.0, 500_000),  # p = 1 - 2.1e-9
        (50.0, 500_000),  # p rounds to 1
    ])
    def test_law(self, thr, size):
        p = -math.expm1(-thr)
        c, ec = _candidates(stream(11), size, thr)
        n = c.size
        assert c.dtype == np.int64 and ec.shape == c.shape
        assert c[0] >= 0 and c[-1] < size and np.all(np.diff(c) > 0)
        assert abs(n - size * p) <= 6.0 * math.sqrt(size * p * (1.0 - p)) + 1.0
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        # the gaps (the first index + 1, then the differences) are Geometric(p)
        g = np.sort(np.diff(c, prepend=-1))
        k = np.arange(1, g[-1] + 1)
        emp = np.searchsorted(g, k, side="right") / n
        assert np.max(np.abs(emp - (1.0 - (1.0 - p) ** k))) <= eps
        # the draws have the CDF (1 - exp(-x)) / p on [0, thr)
        x = np.sort(ec)
        assert x[0] >= 0.0 and x[-1] <= thr
        cdf = -np.expm1(-x) / p
        i = np.arange(1, n + 1)
        assert max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)) <= eps

    def test_size_one(self):
        rng, thr, calls = stream(12), math.log(2.0), 4_000  # p = 1/2
        got = [_candidates(rng, 1, thr) for _ in range(calls)]
        assert all(c.tolist() in ([], [0]) and ec.shape == c.shape for c, ec in got)
        assert all(np.all(ec < thr) for _, ec in got)
        hits = sum(c.size for c, _ in got)
        assert abs(hits - calls / 2) <= 6.0 * math.sqrt(calls / 4)
        assert _candidates(rng, 1, 50.0)[0].tolist() == [0]

    def test_chunk_without_candidates(self):
        c, ec = _candidates(stream(13), 1_000, 1e-12)
        assert c.size == 0 and ec.size == 0 and c.dtype == np.int64

    def test_gaps_drawn_again_until_they_pass_the_chunk(self):
        # 1 000 points at p = 1e-5: one gap is drawn first, and falls short
        # of the chunk about once in a hundred calls
        size, thr = 1_000, -math.log1p(-1e-5)
        rng, extended = GapCounter(stream(14)), 0
        for _ in range(4_000):
            rng.gaps.clear()
            c, ec = _candidates(rng, size, thr)
            ends = np.cumsum([g.sum() for g in rng.gaps])
            assert ends[-1] > size and np.all(ends[:-1] <= size)  # drawn until they pass it
            want = np.cumsum(np.concatenate(rng.gaps)) - 1
            assert c.tolist() == want[want < size].tolist()
            assert ec.shape == c.shape and np.all(ec < thr)
            extended += len(rng.gaps) > 1
        assert 10 <= extended <= 80


class TestPairCounts:
    """The pairs (t, t+k) of a profile, counted by position gaps, against
    their definition: per chunk, the t+k among the positions, one lag at a
    time.  The chunk is patched small so that pairs cross its boundaries."""

    @settings(max_examples=300)
    @given(
        first=st.integers(0, 10),
        gaps=st.lists(st.integers(1, 12), max_size=40),
        k_max=st.integers(1, 15),
        chunk=st.integers(1, 20),
        tail=st.integers(1, 20),
    )
    @example(first=0, gaps=[3, 3, 1, 3], k_max=3, chunk=4, tail=1)  # gaps equal to k_max
    @example(first=5, gaps=[], k_max=4, chunk=3, tail=2)  # one event
    @example(first=0, gaps=[5, 9, 6], k_max=4, chunk=2, tail=1)  # no pair at all
    @example(first=1, gaps=[1, 2, 1], k_max=10, chunk=3, tail=8)  # k_max >= the events
    def test_counts_are_their_definition(self, first, gaps, k_max, chunk, tail):
        pos = first + np.cumsum([0] + gaps).astype(np.int64)
        chunks = -(-(int(pos[-1]) + tail) // chunk)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_PATH_CHUNK", chunk)
            got = _pair_counts(pos, k_max, chunks)
        want = np.array([np.bincount((pos + k)[np.isin(pos + k, pos)] // chunk, minlength=chunks)
                         for k in range(1, k_max + 1)]).T
        assert got.dtype == np.int64 and got.shape == (chunks, k_max)
        assert np.array_equal(got, want)

    def test_no_events(self):
        got = _pair_counts(np.array([], dtype=np.int64), 3, 2)
        assert got.shape == (2, 3) and not got.any()


class TestDrawsAt:
    """The draws at a cover's points, each candidate looked up among the
    points, against the former lookup of each point among the candidates."""

    @settings(max_examples=300)
    @given(points=st.sets(st.integers(-5, 60)), cands=st.sets(st.integers(-8, 80)))
    @example(points={1, 4, 9}, cands=set())  # no candidate
    @example(points=set(), cands={2, 3})  # no point
    @example(points={0, 1, 2}, cands={1, 5, 70})  # candidates past the last point
    def test_draws_are_their_definition(self, points, cands):
        k = np.array(sorted(points), dtype=np.int64)
        c = np.array(sorted(cands), dtype=np.int64)
        ec = np.arange(1.0, c.size + 1.0)
        want = np.full(k.size, np.inf)
        if c.size:
            i = np.minimum(np.searchsorted(c, k), c.size - 1)
            want = np.where(c[i] == k, ec[i], np.inf)
        assert np.array_equal(_draws_at(c, ec, k), want)


class TestRefusals:
    def test_negative_seed_component(self):
        with pytest.raises(ValueError, match="seed component=-1 must be an integer in 0..inf"):
            stream(-1)

    def test_lag_weights_only_for_moving_max(self):
        with pytest.raises(ValueError, match="lag_weights only defined for moving_max"):
            ModelSpec.armax(0.5).lag_weights

    def test_tail_chain_needs_a_lag(self):
        with pytest.raises(ValueError, match="lags=0 must be an integer in 1..100000000"):
            tail_chain_probs(ModelSpec.armax(0.5), 0)

    COUNTS = {  # each count's call with k in its place, and a value it accepts
        "window length s": (lambda k: theta_oracle_mc(ModelSpec.iid(), k, 0.99, 1_000, 1), 8),
        "reps": (lambda k: theta_oracle_mc(ModelSpec.iid(), 8, 0.99, k, 1), 1_000),
        "k_max": (lambda k: conditional_exceedance_profile(
            ModelSpec.iid(), k, 0.99, 1_000, 1).probs, 2),
        "target_events": (lambda k: conditional_exceedance_profile(
            ModelSpec.iid(), 2, 0.99, k, 1).probs, 1_000),
        "lags": (lambda k: tail_chain_probs(ModelSpec.moving_max(3), k), 5),
    }

    @pytest.mark.parametrize("name", COUNTS)
    def test_counts_must_be_integers(self, name):
        call, good = self.COUNTS[name]
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"{name}={bad} must be an integer in "):
                call(bad)
        assert np.array_equal(call(np.int64(good)), call(good))

    def test_profile_needs_a_lag(self):
        with pytest.raises(ValueError, match="k_max=0 must be an integer in 1..100000000"):
            conditional_exceedance_profile(ModelSpec.iid(), 0, 0.99, 1_000, seed=1)

    def test_one_batch_leaves_the_standard_error_undefined(self):
        # 100 002 points fit in one chunk, so there is one batch mean
        prof = conditional_exceedance_profile(ModelSpec.iid(), 2, 0.99, 1_000, seed=1)
        assert prof.n_points < _PATH_CHUNK and prof.batch_values.size == 1
        c_hat, se = prof.count_variance_estimate()
        assert math.isfinite(c_hat) and math.isnan(se)
