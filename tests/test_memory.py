"""Peak memory of the long-series paths, under tracemalloc (numpy reports
its buffers to it), in units of the 8n bytes of one n-point series."""

import tracemalloc

from exindex import cli
from exindex.blocks import NormalizedSeries, as_series
from exindex.models import ModelSpec, simulate


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_armax_simulate_holds_the_path_once():
    # past one 2^20-point chunk; a*j is built per tile, not per chunk
    n, spec = 1_100_000, ModelSpec.armax(0.5)
    simulate(spec, 1_000, 3)
    assert peak_bytes(lambda: simulate(spec, n, 3)) <= 1.25 * 8 * n


def test_estimate_holds_the_series_and_one_partition(tmp_path):
    # the read column is frozen and shared by the rank level, the index and
    # every estimator; only the rank level's partition copies it, once
    n, csv, out = 200_000, str(tmp_path / "x.csv"), str(tmp_path / "est.json")
    small = str(tmp_path / "small.csv")
    for path, size in ((small, 2_000), (csv, n)):
        assert cli.main(["simulate", "--model", "armax", "--alpha", "0.5", "--n", str(size),
                         "--seed", "3", "--out", path]) == 0

    def estimate(path, size):
        argv = [path, "--rank-k", str(size // 50), "--method", "all", "--stderr", "--out", out]
        assert cli.main(["estimate", *argv]) == 0

    estimate(small, 2_000)  # imports and first-call set-up stay out of the peak
    assert peak_bytes(lambda: estimate(csv, n)) <= 2.25 * 8 * n


def test_simulated_path_is_a_series_as_it_is():
    # the path is moved over its burn-in in place, so it owns its data, and
    # the index takes it without a copy
    n, spec = 200_000, ModelSpec.armax(0.5)
    x = simulate(spec, n, 3)
    assert x.base is None and x.flags.owndata and not x.flags.writeable
    assert as_series(x) is x
    NormalizedSeries(simulate(spec, 1_000, 3), 50.0)
    assert peak_bytes(lambda: NormalizedSeries(simulate(spec, n, 3), 50.0)) <= 1.8 * 8 * n
