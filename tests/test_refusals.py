"""Library calls with arguments they cannot use are refused with a named
error, not a numpy ``TypeError``, a ``ZeroDivisionError``, a truncated
value or a nan result; numpy integers still pass as counts."""

import numpy as np
import pytest

from exindex.blocks import BlockScheme
from exindex.errors import SchemeError
from exindex.estimators import default_block_length
from exindex.harness import normality_diagnostic
from exindex.models import ModelSpec, simulate

ARMAX = ModelSpec.armax(0.5)


@pytest.mark.parametrize("call, error, match", [
    (lambda: BlockScheme(8, 2, 2.5), SchemeError, "r=2.5 must be an integer"),
    (lambda: BlockScheme(8, 2.0, 4), SchemeError, "s=2.0 must be an integer"),
    (lambda: BlockScheme(2000, True, 16), SchemeError, "s=True must be an integer"),
    (lambda: BlockScheme(8.0, 2, 4), SchemeError, "n=8.0 must be an integer"),
    (lambda: default_block_length(100, 0), ValueError, "k=0"),
    (lambda: default_block_length(0, 0), ValueError, "n=0"),
    (lambda: default_block_length(100, 2.5), ValueError, "k=2.5"),
    (lambda: simulate(ARMAX, 2.5, 1), ValueError, "path length n must be >= 1, got 2.5"),
    (lambda: simulate(ARMAX, True, 1), ValueError, "path length n must be >= 1, got True"),
    (lambda: simulate(ARMAX, 10, 1.5), ValueError, "seed components .* got 1.5"),
    (lambda: simulate(ARMAX, 10, "ab"), ValueError, "seed components .* got ab"),
    (lambda: simulate(ARMAX, 10, (1, -2)), ValueError, "seed components .* got -2"),
    (lambda: simulate(ARMAX, 10, (1, True)), ValueError, "seed components .* got True"),
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
