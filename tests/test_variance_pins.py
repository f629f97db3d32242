"""Bit identity of the big-block variance plug-ins.

The digests below pin the floats recorded before ``variance_report``
shared one preparation and one pass per mode across its plug-ins; they
were recorded again, on unchanged code, when the records dropped a
functional with a non-unit scale and the report at a given xi.  The
``excess_mass`` digests of ``armax_s8_r32``, ``s1`` and ``r_not_multiple``
and the case digests of ``armax_s8_r32`` and ``moving_max_quantile`` were
recorded again when a custom functional's sums began adding its values
at the windows that hold an exceedance, not a zero-padded array of all
n-s+1 windows: numpy's pairwise summation then groups the same values
differently, and a few sliding floats moved by one or two units in the
last place (relative change at most 4.3e-16).  The ``scheme_too_short``
digests were recorded again when the plug-ins began refusing a scheme for
another series length as ``big_block_sums`` does, with ``SchemeError``,
not ``ValueError``.  Each is the
SHA-256 of a JSON record of ``float.hex`` strings, or of the name of the
exception a call raises:

* every float field of ``variance_report``;
* each single plug-in: ``sliding_sum_variance``, ``disjoint_sum_variance``
  and ``sum_count_covariance`` in both modes, per functional;
* ``count_second_moment`` and the two ``block_covariance_pair`` matrices
  over all four functionals, per case.

The cases cover the series benchmark's report scheme (s=8, r=32), a
quantile threshold, s=1, r not a multiple of s (so the disjoint plug-ins
raise), a single big block (m < 2), a threshold at the sample maximum
(no exceedance), a scheme for a shorter series, and two cases with two
of these faults at once.  A change that moves them on purpose records the new
digests here and says why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from exindex.blocks import (
    BLOCK_MAX,
    FIRST_EXCEED,
    RUNS,
    BlockFunctional,
    BlockScheme,
    ThresholdSpec,
)
from exindex.models import ModelSpec, simulate
from exindex.variance import (
    CovMatrixPair,
    VarianceReport,
    block_covariance_pair,
    count_second_moment,
    disjoint_sum_variance,
    sliding_sum_variance,
    sum_count_covariance,
    variance_report,
)


def excess_mass(w):
    return float(np.sum(w[w > 1.0] - 1.0))


FUNCTIONALS = {
    g.name: g
    for g in (
        BLOCK_MAX,
        FIRST_EXCEED,
        RUNS,
        BlockFunctional("excess_mass", excess_mass),
    )
}


def _rank(x, k):
    return ThresholdSpec.rank(k).resolve(x).u


def _case(spec, n, seed, level, s, r, scheme_n=None):
    """(series, threshold, scheme); ``level`` maps the series to u."""
    x = simulate(spec, n, seed)
    return x, level(x), BlockScheme(scheme_n or n, s, r)


CASES = {
    "armax_s8_r32": lambda: _case(ModelSpec.armax(0.5), 20_000, 11,
                                  lambda x: _rank(x, 400), 8, 32),
    "moving_max_quantile": lambda: _case(ModelSpec.moving_max(2), 6_000, 12,
                                         lambda x: float(np.quantile(x, 0.97)), 4, 24),
    "s1": lambda: _case(ModelSpec.iid(), 3_000, 13, lambda x: _rank(x, 60), 1, 10),
    "r_not_multiple": lambda: _case(ModelSpec.armax(0.5), 4_000, 14,
                                    lambda x: _rank(x, 80), 3, 20),
    "one_big_block": lambda: _case(ModelSpec.armax(0.5), 200, 15,
                                   lambda x: _rank(x, 10), 4, 120),
    "no_exceedance": lambda: _case(ModelSpec.armax(0.5), 2_000, 16,
                                   lambda x: float(np.quantile(x, 1.0)), 4, 16),
    # several faults at once: the pins fix which exception wins
    "one_big_block_r_not_multiple": lambda: _case(ModelSpec.armax(0.5), 200, 15,
                                                  lambda x: _rank(x, 10), 3, 125),
    "no_exceedance_r_not_multiple": lambda: _case(ModelSpec.armax(0.5), 2_000, 16,
                                                  lambda x: float(np.quantile(x, 1.0)), 3, 16),
    "scheme_too_short": lambda: _case(ModelSpec.armax(0.5), 2_000, 17,
                                      lambda x: _rank(x, 40), 4, 16, scheme_n=1_999),
}


def _outcome(call):
    """float.hex of a result (every float of a report or matrix pair), or
    the name of the exception raised."""
    try:
        out = call()
    except Exception as exc:  # the type is what is pinned
        return type(exc).__name__
    if isinstance(out, VarianceReport):
        return {f.name: getattr(out, f.name).hex()
                for f in fields(out) if isinstance(getattr(out, f.name), float)}
    if isinstance(out, CovMatrixPair):
        return {"sliding": [v.hex() for v in out.sliding.ravel().tolist()],
                "disjoint": [v.hex() for v in out.disjoint.ravel().tolist()]}
    return out.hex()


def functional_record(g, x, u, scheme):
    return {
        "report": _outcome(lambda: variance_report(g, x, u, scheme)),
        "sliding_sum_variance": _outcome(lambda: sliding_sum_variance(g, x, u, scheme)),
        "disjoint_sum_variance": _outcome(lambda: disjoint_sum_variance(g, x, u, scheme)),
        "sliding_count_cov": _outcome(
            lambda: sum_count_covariance(g, x, u, scheme, "sliding")),
        "disjoint_count_cov": _outcome(
            lambda: sum_count_covariance(g, x, u, scheme, "disjoint")),
    }


def case_record(x, u, scheme):
    return {
        "count_second_moment": _outcome(lambda: count_second_moment(x, u, scheme)),
        "block_covariance_pair": _outcome(
            lambda: block_covariance_pair(list(FUNCTIONALS.values()), x, u, scheme)),
    }


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


# case -> functional -> digest of functional_record
FUNCTIONAL_SHA256 = {
    "armax_s8_r32": {
        "block_max": "f8a3432752443d056f0f6130a2e4545fe842f1617ac03b5054135fd54ab075bd",
        "first_exceed": "8a6a6a31ff1ae31a1569d34280019b71c1cffaa22e0c518abc51e593766d5af8",
        "runs": "6e984e2a08830e428bdaab69fa0829abe5da1be995ce24c2d90846f3c19280bf",
        "excess_mass": "24e6e97d8eb8c600fc3e39dd548292ab37e656e4595882734b50e3fb6ff72369",
    },
    "moving_max_quantile": {
        "block_max": "4bbe63230e83bea2ee08d98e8b24297d1310011d77e611e40e0fc63eda5cab6d",
        "first_exceed": "edbd43832089b3048334c157d17f7395a8519d0501d01c3e6c5e17f699757c83",
        "runs": "d463b2396a15f3b7475b28c35effbbb6178da240bdcb5d8683525699f0ca4b0a",
        "excess_mass": "2ff3a40a5026dece41c4a100332a9be4810b7d630102cad789240a5de2c34a72",
    },
    "s1": {
        "block_max": "025787a32dee72f644d100075e03a15077e7689a2f7324d15f6938f506f0247c",
        "first_exceed": "025787a32dee72f644d100075e03a15077e7689a2f7324d15f6938f506f0247c",
        "runs": "025787a32dee72f644d100075e03a15077e7689a2f7324d15f6938f506f0247c",
        "excess_mass": "89eef22658ef375892bd121b736b070e736ec06a53f14948ca4f092683623e16",
    },
    "r_not_multiple": {
        "block_max": "71c446765b11635c135e3ec459b5b67dfe260e4917b07c347098d2f5730b1d10",
        "first_exceed": "faa2a7c0e620aa7c21d0e48bbbc9826a305ce8020478a0e03666a8d2e81e45cb",
        "runs": "da69362da4bc4cd29bd348eaffd70dd10e333b22f3f4daff009f3c8bce8f48d6",
        "excess_mass": "2b24e93c3670e54a008431a3951e17c4d9273a71e79be955c2cea4fbd01de608",
    },
    "one_big_block": {
        "block_max": "1663a887d8ffa2ebd50500d8a17d15f464ee648c71aa80c0f9f2a4036d091fb8",
        "first_exceed": "1663a887d8ffa2ebd50500d8a17d15f464ee648c71aa80c0f9f2a4036d091fb8",
        "runs": "1663a887d8ffa2ebd50500d8a17d15f464ee648c71aa80c0f9f2a4036d091fb8",
        "excess_mass": "1663a887d8ffa2ebd50500d8a17d15f464ee648c71aa80c0f9f2a4036d091fb8",
    },
    "no_exceedance": {
        "block_max": "23f4fbdcdfbf68d8114c566ef5c399a1e62fc359bafe8168eb20e357373827a0",
        "first_exceed": "23f4fbdcdfbf68d8114c566ef5c399a1e62fc359bafe8168eb20e357373827a0",
        "runs": "23f4fbdcdfbf68d8114c566ef5c399a1e62fc359bafe8168eb20e357373827a0",
        "excess_mass": "23f4fbdcdfbf68d8114c566ef5c399a1e62fc359bafe8168eb20e357373827a0",
    },
    "one_big_block_r_not_multiple": {
        "block_max": "dc247aa39d835f92077b65d1dc7c9d254aae15e7972989d1146e7c7ed3a77159",
        "first_exceed": "dc247aa39d835f92077b65d1dc7c9d254aae15e7972989d1146e7c7ed3a77159",
        "runs": "dc247aa39d835f92077b65d1dc7c9d254aae15e7972989d1146e7c7ed3a77159",
        "excess_mass": "dc247aa39d835f92077b65d1dc7c9d254aae15e7972989d1146e7c7ed3a77159",
    },
    "no_exceedance_r_not_multiple": {
        "block_max": "c254dde4003deca4dd6094bc0733c95467471d9d8d5c183b029995d040df7645",
        "first_exceed": "c254dde4003deca4dd6094bc0733c95467471d9d8d5c183b029995d040df7645",
        "runs": "c254dde4003deca4dd6094bc0733c95467471d9d8d5c183b029995d040df7645",
        "excess_mass": "c254dde4003deca4dd6094bc0733c95467471d9d8d5c183b029995d040df7645",
    },
    "scheme_too_short": {
        "block_max": "884e68eaf99c05a50006e36c542b4e24cd56028d9c818c286fc512a3af86ede4",
        "first_exceed": "884e68eaf99c05a50006e36c542b4e24cd56028d9c818c286fc512a3af86ede4",
        "runs": "884e68eaf99c05a50006e36c542b4e24cd56028d9c818c286fc512a3af86ede4",
        "excess_mass": "884e68eaf99c05a50006e36c542b4e24cd56028d9c818c286fc512a3af86ede4",
    },
}

# case -> digest of case_record
CASE_SHA256 = {
    "armax_s8_r32": "e0660206b27f9a08aaf9ee1d61c4d12a2c2b8e984c2fee0a49003f18761cacfb",
    "moving_max_quantile": "d4de395f7a577900516202e8ac8262acb56a3ff4bd2d8929647ad29b5ec79709",
    "s1": "d174eff6d9f06ffb107dc8dd2218db793d6e0fa81e12d7cdfe2e25c1743a853f",
    "r_not_multiple": "9dc209de56abcd0d9731a9e888657ef9dde66cad247a41ede4d29491fb31e014",
    "one_big_block": "8ef16a4fc68c56f32afae4fa918ca01d1f599c31f7f8015b99502ac0273427e0",
    "no_exceedance": "b2db2919f3f7c437c5ef9f94c5aaf982eeb1c8281df91bdd39841312563ef7fc",
    "one_big_block_r_not_multiple": "246047882376caed24fa01d231727adee8ebcec7870f3a86f1e14bcecf3a06a5",
    "no_exceedance_r_not_multiple": "333909a830a0bff3adfbb5272c10ee363d417ad4b24df5c43169f9df600f105f",
    "scheme_too_short": "01266a011de44dec372b5f2e38c2a2c4936385651069a6e9d340026d6b488eb5",
}


@pytest.fixture(scope="module")
def cases():
    return {name: build() for name, build in CASES.items()}


@pytest.mark.parametrize("name", list(CASES))
@pytest.mark.parametrize("g", list(FUNCTIONALS))
def test_functional_plugins_pinned(cases, name, g):
    record = functional_record(FUNCTIONALS[g], *cases[name])
    assert digest(record) == FUNCTIONAL_SHA256[name][g], record


@pytest.mark.parametrize("name", list(CASES))
def test_case_plugins_pinned(cases, name):
    record = case_record(*cases[name])
    assert digest(record) == CASE_SHA256[name], record
