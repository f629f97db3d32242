"""Bit identity of the simulators.

The values below were recorded before the simulators were rewritten as
one kernel per family, and any change to the per-element arithmetic or to
the order and sizes of the random draws moves them:

* the SHA-256 of ``simulate()`` bytes at 1.1M points, which crosses the
  1M-point chunk boundary (and, for moving_max, carries the q-innovation
  tail across it);
* ``theta_oracle_mc`` in one window batch (s=8) and in several (s=1024);
* every field of criterion 06's three conditional exceedance profiles at
  5 000 target events (five 1M-point chunks each).

A change that moves them on purpose records the new values here and says
why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from exindex.models import (
    ModelSpec,
    conditional_exceedance_profile,
    simulate,
    theta_oracle_mc,
)

SPECS = {
    "armax": ModelSpec.armax(0.5),
    "iid_frechet": ModelSpec.iid(),
    "moving_max_1": ModelSpec.moving_max(1),
    "moving_max_3": ModelSpec.moving_max(3, weights=(0.1, 0.4, 0.3, 0.2)),
}

SIMULATE_SHA256 = {
    "armax": "f3e2b5dec1f7998e3ea8891eaea45f2ad9ce3c0e7c1c23a5247dd057087fa8b9",
    "iid_frechet": "fb971d2eea234a447ca19d204561de56e50e806f40cad5a401aa64d5a30efeb7",
    "moving_max_1": "8ed6a4ca0a0396fce0cb7d5e7ea00f6f45dded904a9ec023c07b0b1347dd5934",
    "moving_max_3": "5d937bf1d8dfe3fed35594fd24aa5fa6d09a579a4f4f180a55fb59b4704ab4c0",
}

# (s, quantile, reps, seed) -> family -> theta_oracle_mc
ORACLE = {
    (8, 0.99, 20_000, 3): {
        "armax": 0.5512499999999996,
        "iid_frechet": 0.9587499999999992,
        "moving_max_1": 0.5493749999999995,
        "moving_max_3": 0.4687499999999996,
    },
    (1024, 0.9999, 5_000, 4): {
        "armax": 0.45703125000005035,
        "iid_frechet": 0.880859375000097,
        "moving_max_1": 0.4550781250000501,
        "moving_max_3": 0.37109375000004086,
    },
}

U_999 = 999.4999166249727

# criterion 06's (spec, k_max) pairs at quantile 0.999, 5 000 events, seed 5
PROFILES = [
    (
        ModelSpec.armax(0.5), 8,
        dict(
            probs=[0.5113614294037677, 0.26082734511555644, 0.1307049912604389,
                   0.06564381433288018, 0.030491357545154398, 0.01301223538551175,
                   0.0058263740532142165, 0.0029131870266071083],
            n_events=5149, n_points=5000008, v_hat=0.0010297983523226363,
            batch_values=[2.966852284010562, 3.036734632266465, 3.0027929358360557,
                          3.0577503551136362, 3.070670234701754],
        ),
    ),
    (
        ModelSpec.moving_max(1), 4,
        dict(
            probs=[0.5001984914648671, 0.0005954743946010321, 0.001389440254069075,
                   0.0017864231838030965],
            n_events=5038, n_points=5000004, v_hat=0.0010075991939206448,
            batch_values=[1.9918975830078125, 2.0047625256823256, 2.003566485677708,
                          1.9978346604567307, 2.0017016502517597],
        ),
    ),
    (
        ModelSpec.iid(), 4,
        dict(
            probs=[0.0005931198102016608, 0.0005931198102016608, 0.0015816528272044287,
                   0.0017793594306049821],
            n_events=5058, n_points=5000004, v_hat=0.0010115991907206474,
            batch_values=[0.9995043203305161, 1.0065324258011061, 0.9959455984882587,
                          0.9994452689527679, 1.004028350378704],
        ),
    ),
]


@pytest.mark.parametrize("name", list(SPECS))
def test_simulate_bytes(name):
    x = simulate(SPECS[name], 1_100_000, 7)
    assert x.dtype == np.float64 and x.shape == (1_100_000,)
    assert hashlib.sha256(x.tobytes()).hexdigest() == SIMULATE_SHA256[name]


@pytest.mark.parametrize("args", list(ORACLE))
@pytest.mark.parametrize("name", list(SPECS))
def test_theta_oracle_mc(name, args):
    s, quantile, reps, seed = args
    assert theta_oracle_mc(SPECS[name], s, quantile, reps, seed=seed) == ORACLE[args][name]


@pytest.mark.parametrize("spec, k_max, want", PROFILES, ids=[p[0].family for p in PROFILES])
def test_profile_fields(spec, k_max, want):
    prof = conditional_exceedance_profile(spec, k_max, 0.999, 5_000, seed=5)
    assert prof.probs.tolist() == want["probs"]
    assert prof.u == U_999
    assert prof.quantile == 0.999
    assert prof.n_events == want["n_events"]
    assert prof.n_points == want["n_points"]
    assert prof.v_hat == want["v_hat"]
    assert prof.batch_values.tolist() == want["batch_values"]
