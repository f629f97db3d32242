"""Fuzz the library API, one argument at a time.

``CALLS`` lists each public function with a valid call on small inputs.
An example takes one of them and puts a bad value in the place of one of
its number or array arguments: 2.5, ``True``, nan, +-inf, 0, -1, 2**70,
an empty array, a 2-d array or a numpy integer.  The call must return or
raise an ``ExindexError`` or a ``ValueError``, nothing else.  A numpy
integer must give what its int gives: an equal result, or an error of the
same type and message.  Every count is refused before anything is drawn or
allocated, so no example allocates more than a few MB.
"""

import math
import numbers
import warnings
from dataclasses import asdict, is_dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exindex import (
    BLOCK_MAX,
    FIRST_EXCEED,
    RUNS,
    Bands,
    BlockFunctional,
    BlockScheme,
    CovMatrixPair,
    DegenerateVarianceWarning,
    ExindexError,
    ExperimentConfig,
    ModelSpec,
    NormalizedSeries,
    ThresholdSpec,
    as_series,
    block_covariance_pair,
    conditional_exceedance_profile,
    count_second_moment,
    default_big_block_length,
    default_block_length,
    disjoint_block_sum,
    disjoint_sum_variance,
    loewner_compare,
    normality_diagnostic,
    plugin_asymptotic_variance,
    ratio_estimate,
    simulate,
    sliding_block_sum,
    sliding_sum_variance,
    sliding_window_max,
    sum_count_covariance,
    tail_chain_probs,
    theta_disjoint,
    theta_oracle_mc,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
    variance_report,
)
from exindex.blocks import scheme_advisories
from exindex.models import stream

ARMAX, IID, MM = ModelSpec.armax(0.5), ModelSpec.iid(), ModelSpec.moving_max(2)
X = simulate(ARMAX, 400, 5)
U = float(np.sort(X)[-20])  # the rank-20 level: 19 exceedances
NS = NormalizedSeries(X, U)
P = np.flatnonzero(X > U)
SCHEME = BlockScheme(400, 4, 16)
EXCESS = BlockFunctional("excess", lambda w: float(np.sum(w[w > 1.0] - 1.0)))
PAIR = CovMatrixPair(("a", "b"), np.eye(2), 2.0 * np.eye(2))

# name -> (function, positional arguments, keyword arguments) of a valid call;
# big_block_sums is left out: it takes no number, and its scheme's are BlockScheme's
CALLS = {
    "as_series": (as_series, (X,), {}),
    "ThresholdSpec.rank": (ThresholdSpec.rank, (20,), {}),
    "ThresholdSpec.resolve": (ThresholdSpec.rank(20).resolve, (X,), {}),
    "NormalizedSeries": (NormalizedSeries, (X, U), {}),
    "NormalizedSeries.positions": (NormalizedSeries, (X[P], U), dict(positions=P, n=400)),
    "NormalizedSeries.of": (NormalizedSeries.of, (NS, 2.0 * U), {}),
    "BlockScheme": (BlockScheme, (400, 4, 16), {}),
    "BlockScheme.fit": (SCHEME.fit, (400, 2), {}),
    "scheme_advisories": (scheme_advisories, (400, 4, 16, 0.05), {}),
    "sliding_window_max": (sliding_window_max, (X, 4), {}),
    "sliding_block_sum": (sliding_block_sum, (EXCESS, NS, 4), {}),
    "disjoint_block_sum": (disjoint_block_sum, (FIRST_EXCEED, NS, 4), {}),
    "default_block_length": (default_block_length, (400, 20), {}),
    "default_big_block_length": (default_big_block_length, (400, 0.05, 4), {}),
    "theta_disjoint": (theta_disjoint, (X, U, 4), {}),
    "theta_sliding": (theta_sliding, (X, U, 4), {}),
    "theta_runs": (theta_runs, (X, U, 4), {}),
    "theta_sliding_random_u": (theta_sliding_random_u, (X, 20, 4), {}),
    "ratio_estimate": (ratio_estimate, (EXCESS, X, U, 4), {}),
    "sliding_sum_variance": (sliding_sum_variance, (BLOCK_MAX, X, U, SCHEME), {}),
    "disjoint_sum_variance": (disjoint_sum_variance, (BLOCK_MAX, X, U, SCHEME), {}),
    "count_second_moment": (count_second_moment, (X, U, SCHEME), {}),
    "sum_count_covariance": (sum_count_covariance, (RUNS, X, U, SCHEME, "disjoint"), {}),
    "variance_report": (variance_report, (BLOCK_MAX, X, U, SCHEME), {}),
    "block_covariance_pair": (block_covariance_pair, ([BLOCK_MAX, RUNS], X, U, SCHEME), {}),
    "plugin_asymptotic_variance": (plugin_asymptotic_variance, (0.5, 3.0), {}),
    "CovMatrixPair": (CovMatrixPair, (("a",), np.ones((1, 1)), np.full((1, 1), 2.0)), {}),
    "loewner_compare": (loewner_compare, (PAIR, 1e-8), {}),
    "ModelSpec": (ModelSpec, ("armax", 0.5), {}),
    "ModelSpec.moving_max": (ModelSpec.moving_max, (2, np.array([0.2, 0.5, 0.3])), {}),
    "marginal_quantile": (ARMAX.marginal_quantile, (0.99,), {}),
    "stream": (stream, (3, 1), {}),
    "simulate": (simulate, (MM, 50, 3), {}),
    "simulate.above": (simulate, (ARMAX, 400, 5), dict(above=U)),
    "theta_oracle_mc": (theta_oracle_mc, (IID, 8, 0.99, 1_000, 1), {}),
    "tail_chain_probs": (tail_chain_probs, (MM, 5), {}),
    "conditional_exceedance_profile": (conditional_exceedance_profile,
                                       (IID, 2, 0.99, 600, 1), {}),
    "normality_diagnostic": (normality_diagnostic,
                             (np.random.default_rng(1).standard_normal(60),), {}),
    "ExperimentConfig": (ExperimentConfig, (), dict(model=ARMAX, n=4_000, replicates=10, seed=1,
                                                    rank_k=80, s=4, r=16, workers=1)),
    "Bands": (Bands, (1.5, 0.08, 3.0), {}),
}

BAD = [2.5, True, math.nan, math.inf, -math.inf, 0, -1, 2**70, np.empty(0), np.ones((2, 3))]
NUMPY_INTEGER = "a numpy integer"  # drawn as np.int64 or np.int32 of an int near the valid one


def places(name):
    """The positions (ints) and keywords (strs) of a call's number and array arguments."""
    _, args, kwargs = CALLS[name]
    return [key for key, v in [*enumerate(args), *kwargs.items()]
            if isinstance(v, (numbers.Real, np.ndarray))]


def call(name, place, value):
    f, args, kwargs = CALLS[name]
    args, kwargs = list(args), dict(kwargs)
    (args if isinstance(place, int) else kwargs)[place] = value
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateVarianceWarning)  # a negative plug-in warns
        return f(*args, **kwargs)


def outcome(name, place, value):
    """What the call gives, as a comparable value: its result with every
    array as a list and every dataclass as a dict, or its error."""
    try:
        out = call(name, place, value)
    except (ExindexError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return repr(plain(out))


def plain(out):
    if isinstance(out, NormalizedSeries):
        return plain((out.n, out.u, out.positions, out.exceeding))
    if isinstance(out, np.random.Generator):
        return out.bit_generator.state
    if is_dataclass(out):
        return plain(asdict(out))
    if isinstance(out, np.ndarray):
        return out.tolist()
    if isinstance(out, (tuple, list)):
        return [plain(v) for v in out]
    if isinstance(out, dict):
        return {k: plain(v) for k, v in out.items()}
    return out


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    place = draw(st.sampled_from(places(name)))
    value = draw(st.sampled_from([*BAD, NUMPY_INTEGER]))
    if value is NUMPY_INTEGER:
        _, args, kwargs = CALLS[name]
        valid = (args if isinstance(place, int) else kwargs)[place]
        near = [0, -1, 2, 5, *([valid] if isinstance(valid, int) else [])]
        value = draw(st.sampled_from([np.int64, np.int32]))(draw(st.sampled_from(near)))
    return name, place, value


def test_every_call_has_a_place_to_fuzz():
    assert all(places(name) for name in CALLS)


@settings(max_examples=1000, deadline=None)
@given(cases())
def test_bad_arguments_return_or_raise_a_named_error(case):
    name, place, value = case
    got = outcome(name, place, value)
    if isinstance(value, np.integer):
        assert got == outcome(name, place, int(value)), (name, place, value)
