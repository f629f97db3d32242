"""Bit identity of the simulators.

The values below were recorded before the simulators were rewritten as
one kernel per family, and any change to the per-element arithmetic or to
the order and sizes of the random draws moves them:

* the SHA-256 of ``simulate()`` bytes at 1.1M points, which crosses the
  1M-point chunk boundary (and, for moving_max, carries the q-innovation
  tail across it);
* ``theta_oracle_mc`` in one window batch (s=8) and in several (s=1024);
  its moving-max values were re-recorded when the oracle came to draw its
  windows through ``_path_chunks``, where a batch draws the q lagged
  innovations of all its windows before their bodies;
* every field of criterion 06's three conditional exceedance profiles at
  5 000 target events (five 1M-point chunks each), recorded when the
  profiles' candidates came to be drawn by their geometric gaps.

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
        "moving_max_1": 0.5512499999999996,
        "moving_max_3": 0.4662499999999996,
    },
    (1024, 0.9999, 5_000, 4): {
        "armax": 0.45703125000005035,
        "iid_frechet": 0.880859375000097,
        "moving_max_1": 0.45703125000005035,
        "moving_max_3": 0.37109375000004086,
    },
}

U_999 = 999.4999166249727

# criterion 06's (spec, k_max) pairs at quantile 0.999, 5 000 events, seed 5
PROFILES = [
    (
        ModelSpec.armax(0.5), 8,
        dict(
            probs=[0.5056406124093473, 0.24738114423851731, 0.12449637389202256,
                   0.06325543916196616, 0.03424657534246575, 0.017123287671232876,
                   0.007252215954875101, 0.004230459307010476],
            n_events=4964, n_points=5000008, v_hat=0.0009927984115225416,
            batch_values=[2.9025402470840254, 3.197971264159712, 3.0425222036000843,
                          2.7602054023932086, 3.0410117671918],
        ),
    ),
    (
        ModelSpec.moving_max(1), 4,
        dict(
            probs=[0.5, 0.00020374898125509371, 0.0006112469437652812,
                   0.0014262428687856561],
            n_events=4908, n_points=5000004, v_hat=0.0009815992147206283,
            batch_values=[1.9943898722738447, 2.003124101076967, 1.9975732191553655,
                          1.9919891357421875, 1.9954367231567725],
        ),
    ),
    (
        ModelSpec.iid(), 4,
        dict(
            probs=[0.0005978477481068154, 0.00039856516540454366, 0.0009964129135113591,
                   0.0005978477481068154],
            n_events=5018, n_points=5000004, v_hat=0.0010035991971206423,
            batch_values=[0.9958437450985151, 1.0005719016174976, 0.9963357531774792,
                          0.9957088189224215, 0.9970081290357882],
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
