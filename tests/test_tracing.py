"""The benchmark's span tracer against the current package.

``perfbench/tracing.py`` patches names in the namespaces of exindex's
modules; a name it patches that the package no longer has makes the
traced benchmark raise.  Entering and leaving ``instrumented`` here
catches that in the test suite.
"""

import importlib.util
import os

import numpy as np
import pytest

from exindex import blocks, cli, estimators, harness, variance
from exindex.blocks import BLOCK_MAX, BlockFunctional, BlockScheme
from exindex.harness import ExperimentConfig
from exindex.models import ModelSpec

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
FIX = [5.0, 1.0, 6.0, 2.0, 0.0, 7.0]

# every namespace instrumented patches names in
OWNERS = [blocks, cli, estimators, harness, variance, cli._ESTIMATORS,
          blocks.NormalizedSeries, blocks.ThresholdSpec, harness.ExperimentResult]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict:
    items = {}
    for i, owner in enumerate(OWNERS):
        names = owner if isinstance(owner, dict) else vars(owner)
        items.update({(i, name): value for name, value in dict(names).items()})
    return items


def test_instrumented_patches_and_restores(tracing):
    before = snapshot()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        during = snapshot()
        variance.variance_report(BLOCK_MAX, FIX, 4.0, BlockScheme(6, 1, 2))
    after = snapshot()

    patched = {key for key in before if during[key] is not before[key]}
    assert patched
    for key in patched:  # each patch wraps the original
        assert during[key].__wrapped__ is before[key]
    assert during.keys() == before.keys()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = {record["name"] for record in tracer.records()}
    assert {"blocks.normalize", "estimators.ratio_estimate.block_max",
            "blocks.big_block_sums.sliding", "blocks.big_block_sums.disjoint"} <= names


# the span names that perfbench/workloads.py's layer_metrics reads from
# the traced experiment and series workloads (the cli.* and bench.* names
# it reads come from the benchmark's own wrappers, not from instrumented)
EXPERIMENT_SPANS = {
    "models.simulate", "blocks.normalize", "blocks.as_series", "blocks.threshold_resolve.rank",
    "harness.replicate", "harness.summarize", "harness.loewner_check", "harness.write",
    "blocks.big_block_sums.sliding", "blocks.big_block_sums.disjoint",
    *(f"estimators.{m}" for m in ("disjoint", "sliding", "runs", "sliding_random_u")),
    *(f"{name}.{g}" for g in ("block_max", "first_exceed")
      for name in ("blocks.sliding_block_sum", "blocks.disjoint_block_sum",
                   "variance.sliding_sum_variance", "variance.disjoint_sum_variance")),
}
SERIES_SPANS = {
    "models.simulate", "blocks.sliding_block_sum.excess_mass", "variance.count_second_moment",
    *(f"estimators.{m}" for m in ("disjoint", "runs", "sliding_random_u")),
}


def excess_mass(w):
    return float(np.sum(w[w > 1] - 1.0))


def test_instrumented_records_every_span_the_benchmark_reads(tracing, tmp_path):
    cfg = ExperimentConfig(model=ModelSpec.armax(0.5), n=2000, replicates=2, seed=3,
                           rank_k=40, s=4, r=16)
    csv, out = str(tmp_path / "x.csv"), str(tmp_path / "estimate.json")
    with tracing.instrumented(tracing.Tracer()) as experiment:
        harness.run_experiment(cfg, out_dir=str(tmp_path / "experiment"))
    with tracing.instrumented(tracing.Tracer()) as series:
        assert cli.main(["simulate", "--model", "armax", "--alpha", "0.5", "--n", "4000",
                         "--seed", "3", "--out", csv]) == 0
        assert cli.main(["estimate", csv, "--rank-k", "80", "--method", "all", "--stderr",
                         "--out", out]) == 0
        x = np.loadtxt(csv, skiprows=1)
        u = blocks.ThresholdSpec.rank(80).resolve(x).u
        for g in (BlockFunctional("excess_mass", excess_mass), BLOCK_MAX):
            variance.variance_report(g, x, u, BlockScheme(x.size, 8, 32))
    for tracer, want in ((experiment, EXPERIMENT_SPANS), (series, SERIES_SPANS)):
        names = {record["name"] for record in tracer.records()}
        assert want <= names, sorted(want - names)
