"""Library calls with arguments they cannot use are refused with a named
error, not a numpy ``TypeError``, a ``ZeroDivisionError``, a truncated
value or a nan result; numpy integers still pass as counts."""

import os
import time

import numpy as np
import pytest

from exindex.blocks import BLOCK_MAX, BlockScheme, NormalizedSeries, big_block_sums
from exindex.errors import InsufficientBlocksError, SchemeError
from exindex.estimators import default_block_length
from exindex.harness import ExperimentConfig, normality_diagnostic, run_experiment
from exindex.models import ModelSpec, simulate, theta_oracle_mc
from exindex.variance import count_second_moment, sliding_sum_variance

ARMAX = ModelSpec.armax(0.5)


@pytest.mark.parametrize("call, error, match", [
    (lambda: BlockScheme(8, 2, 2.5), SchemeError, "r=2.5 must be an integer"),
    (lambda: BlockScheme(8, 2.0, 4), SchemeError, "s=2.0 must be an integer"),
    (lambda: BlockScheme(2000, True, 16), SchemeError, "s=True must be an integer"),
    (lambda: BlockScheme(8.0, 2, 4), SchemeError, "n=8.0 must be an integer"),
    (lambda: default_block_length(100, 0), ValueError, "k=0"),
    (lambda: default_block_length(0, 0), ValueError, "n=0"),
    (lambda: default_block_length(100, 2.5), ValueError, "k=2.5"),
    (lambda: simulate(ARMAX, 2.5, 1), ValueError,
     "path length n=2.5 must be an integer in 1..100000000"),
    (lambda: simulate(ARMAX, True, 1), ValueError,
     "path length n=True must be an integer in 1..100000000"),
    (lambda: simulate(ARMAX, 10, 1.5), ValueError,
     "seed component=1.5 must be an integer in 0..inf"),
    (lambda: simulate(ARMAX, 10, "ab"), ValueError,
     "seed component=ab must be an integer in 0..inf"),
    (lambda: simulate(ARMAX, 10, (1, -2)), ValueError,
     "seed component=-2 must be an integer in 0..inf"),
    (lambda: simulate(ARMAX, 10, (1, True)), ValueError,
     "seed component=True must be an integer in 0..inf"),
    (lambda: ModelSpec.moving_max(2.5), ValueError, "integer q >= 1, got 2.5"),
    (lambda: normality_diagnostic([np.nan] * 60), ValueError, "must all be finite"),
    (lambda: normality_diagnostic([0.0] * 59 + [np.inf]), ValueError, "must all be finite"),
])
def test_unusable_arguments_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_numpy_integers_pass():
    i = np.int64
    assert BlockScheme(i(8), np.int32(2), i(4)) == BlockScheme(8, 2, 4)
    assert default_block_length(i(50_000), i(1_000)) == default_block_length(50_000, 1_000) == 8
    assert np.array_equal(simulate(ARMAX, i(10), i(3)), simulate(ARMAX, 10, 3))
    assert np.array_equal(simulate(ARMAX, 10, (i(3), np.uint8(1))), simulate(ARMAX, 10, (3, 1)))
    assert ModelSpec.moving_max(i(3)) == ModelSpec.moving_max(3)


@pytest.mark.parametrize("call, match", [
    (lambda: theta_oracle_mc(ModelSpec.iid(), 8, 0.99, 2**70, 1), "reps=.* in 100..100000000"),
    (lambda: simulate(ARMAX, 2**70, 1, above=50.0), "path length n=.* in 1..100000000"),
])
def test_counts_that_set_the_work_are_bounded(call, match):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        call()
    assert time.perf_counter() - start < 1.0


def test_a_scheme_that_does_not_fit_is_refused_as_the_block_sums_refuse_it():
    x = np.array([1.0, 5.0, 2.0, 6.0, 1.0, 7.0])
    with pytest.raises(SchemeError, match="scheme n=12 does not match series length 6"):
        sliding_sum_variance(BLOCK_MAX, x, 4.0, BlockScheme(12, 2, 4))
    # one wording for too few big blocks, whoever needs how many
    with pytest.raises(InsufficientBlocksError, match=r"m=0 big blocks \(n=6, s=2, r=6\), "
                       "need at least 1"):
        big_block_sums(BLOCK_MAX, NormalizedSeries(x, 4.0), BlockScheme(6, 2, 6), "sliding")
    with pytest.raises(InsufficientBlocksError, match=r"m=0 big blocks \(n=6, s=2, r=6\), "
                       "need at least 1"):
        count_second_moment(x, 4.0, BlockScheme(6, 2, 6))


def test_numpy_integers_in_a_config(tmp_path):
    i = np.int64
    given = dict(model=ModelSpec.moving_max(2), n=2_000, replicates=3, seed=5, rank_k=40, s=4,
                 r=16)
    as_numpy = {key: i(v) if isinstance(v, int) else v for key, v in given.items()}
    as_numpy["model"] = ModelSpec("moving_max", q=i(2))
    cfg, cfg_numpy = ExperimentConfig(**given), ExperimentConfig(**as_numpy)
    assert cfg_numpy == cfg and type(cfg_numpy.n) is int and type(cfg_numpy.model.q) is int
    for name, c in (("int", cfg), ("numpy", cfg_numpy)):
        run_experiment(c, str(tmp_path / name))
    for name in ("rows.csv", "stats.csv", "summary.json", "effective_config.json"):
        with open(tmp_path / "int" / name, "rb") as a, open(tmp_path / "numpy" / name, "rb") as b:
            assert a.read() == b.read(), name
    assert sorted(os.listdir(tmp_path / "numpy")) == sorted(os.listdir(tmp_path / "int"))
