"""The benchmark's span tracer against the current package.

``perfbench/tracing.py`` patches names in the namespaces of exindex's
modules; a name it patches that the package no longer has makes the
traced benchmark raise.  Entering and leaving ``instrumented`` here
catches that in the test suite.
"""

import importlib.util
import os

import pytest

from exindex import blocks, cli, estimators, harness, variance
from exindex.blocks import BLOCK_MAX, BlockScheme

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
