"""Bit identity of the big-block variance plug-ins.

The digests below were recorded before ``variance_report`` shared one
preparation and one pass per mode across its plug-ins.  Each is the
SHA-256 of a JSON record of ``float.hex`` strings, or of the name of the
exception a call raises:

* every float field of ``variance_report``, with ``xi`` estimated and
  with ``xi`` given;
* each single plug-in: ``sliding_sum_variance``, ``disjoint_sum_variance``
  and ``sum_count_covariance`` in both modes, per functional;
* ``count_second_moment`` and the two ``block_covariance_pair`` matrices
  over all five functionals, per case.

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
        BlockFunctional("excess_mass_scaled", excess_mass, scale=2.5),
    )
}

XI = 0.625  # the xi given to the second report


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
        "report_xi": _outcome(lambda: variance_report(g, x, u, scheme, xi=XI)),
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
        "block_max": "29ef65ea5794517b92a81c2fc7973a9eb28e6bf8f5d0ca35f3fe459e57b0a6e7",
        "first_exceed": "05e4b3798a4f34ad26299856f903cc8c53fbbeed2600fa9e6aec0ea12df786fa",
        "runs": "52597bb24b6a068de33e4e8157164f9ce9fa63fdeb6aa058dc1d3a608ce4d82b",
        "excess_mass": "09abaf05391f3a062071dbe1d2613c51e61a1f04fa5ee157df668a658ae6cf2f",
        "excess_mass_scaled": "be01e48103699138f854486a6faa1618b7cb3dd59c9329b11d9aa2b5101a98dc",
    },
    "moving_max_quantile": {
        "block_max": "b395b664528565b300877c57d7d906e7bcc477bdda2306a71e27c9425337f66b",
        "first_exceed": "5633c0f3172d15238d62868bd6cd13ff75e4057109d6898f80bea4d57065d54e",
        "runs": "2a3714a77c23da43c5c692e86f5322cb93cfe6487a0628f74e1b04865be8cde2",
        "excess_mass": "83ba9568a020a69f7e98302bc71775b976f66bfa9a0aed39dbd593e2d25f8e86",
        "excess_mass_scaled": "5c571cac82adeca7bdfccc539bdf8ef5f72acdd32358e04e24cf8be93b157b6c",
    },
    "s1": {
        "block_max": "3e57d602a13d80a38642957dfe279804ac32cced414d5a3aeb04823126af5bfd",
        "first_exceed": "3e57d602a13d80a38642957dfe279804ac32cced414d5a3aeb04823126af5bfd",
        "runs": "3e57d602a13d80a38642957dfe279804ac32cced414d5a3aeb04823126af5bfd",
        "excess_mass": "64d555941c6e8f71199afd05d62208a57faa7df778af8f90c393bcc728e9781e",
        "excess_mass_scaled": "fb8acd569a692149bc14f3dc7c0a5541a2b3dccdfeccb02d495dbf5c0b4cea2b",
    },
    "r_not_multiple": {
        "block_max": "7158175f80c38f15b09bd702038f60b62b268a686b1bd347e8d07b4c514dacc1",
        "first_exceed": "f0589aab15f9e788e26dfd589fc47dbeb325593a9f7969362b4712381fc6f543",
        "runs": "854ed0896015f7924efc60d9d5ede12693738fb61672804b6f6aa186fa8e325f",
        "excess_mass": "355a11ca316625f8676ddf2fcc3e23c783c2a8728ffac98168c04c6f0dc79941",
        "excess_mass_scaled": "3b34194b9005766baa1cc0eaf6909df551854e8baf27477b5b366235a5dcfa9f",
    },
    "one_big_block": {
        "block_max": "3b2abea002e9b75828b1c80b4be08959eda4b5bfaf128a9553dd8c58aa8c7a59",
        "first_exceed": "3b2abea002e9b75828b1c80b4be08959eda4b5bfaf128a9553dd8c58aa8c7a59",
        "runs": "3b2abea002e9b75828b1c80b4be08959eda4b5bfaf128a9553dd8c58aa8c7a59",
        "excess_mass": "3b2abea002e9b75828b1c80b4be08959eda4b5bfaf128a9553dd8c58aa8c7a59",
        "excess_mass_scaled": "3b2abea002e9b75828b1c80b4be08959eda4b5bfaf128a9553dd8c58aa8c7a59",
    },
    "no_exceedance": {
        "block_max": "370047e5fc2e89474c9013389739d814fc88fc254b75e45c1121dd5fe83eaa40",
        "first_exceed": "370047e5fc2e89474c9013389739d814fc88fc254b75e45c1121dd5fe83eaa40",
        "runs": "370047e5fc2e89474c9013389739d814fc88fc254b75e45c1121dd5fe83eaa40",
        "excess_mass": "370047e5fc2e89474c9013389739d814fc88fc254b75e45c1121dd5fe83eaa40",
        "excess_mass_scaled": "370047e5fc2e89474c9013389739d814fc88fc254b75e45c1121dd5fe83eaa40",
    },
    "one_big_block_r_not_multiple": {
        "block_max": "66ca2229b8f84197a090571b04f955121aa0d117c252cb487362f064c6b82918",
        "first_exceed": "66ca2229b8f84197a090571b04f955121aa0d117c252cb487362f064c6b82918",
        "runs": "66ca2229b8f84197a090571b04f955121aa0d117c252cb487362f064c6b82918",
        "excess_mass": "66ca2229b8f84197a090571b04f955121aa0d117c252cb487362f064c6b82918",
        "excess_mass_scaled": "66ca2229b8f84197a090571b04f955121aa0d117c252cb487362f064c6b82918",
    },
    "no_exceedance_r_not_multiple": {
        "block_max": "18583c65ddd9a5c1704b27686c02470a479e7119834bb9b282b260b973b74dce",
        "first_exceed": "18583c65ddd9a5c1704b27686c02470a479e7119834bb9b282b260b973b74dce",
        "runs": "18583c65ddd9a5c1704b27686c02470a479e7119834bb9b282b260b973b74dce",
        "excess_mass": "18583c65ddd9a5c1704b27686c02470a479e7119834bb9b282b260b973b74dce",
        "excess_mass_scaled": "18583c65ddd9a5c1704b27686c02470a479e7119834bb9b282b260b973b74dce",
    },
    "scheme_too_short": {
        "block_max": "6cdb5cfd267071ab90d5c36d170fb3757ac2822af75dddcd6dd592230a93ed63",
        "first_exceed": "6cdb5cfd267071ab90d5c36d170fb3757ac2822af75dddcd6dd592230a93ed63",
        "runs": "6cdb5cfd267071ab90d5c36d170fb3757ac2822af75dddcd6dd592230a93ed63",
        "excess_mass": "6cdb5cfd267071ab90d5c36d170fb3757ac2822af75dddcd6dd592230a93ed63",
        "excess_mass_scaled": "6cdb5cfd267071ab90d5c36d170fb3757ac2822af75dddcd6dd592230a93ed63",
    },
}

# case -> digest of case_record
CASE_SHA256 = {
    "armax_s8_r32": "84143598b7ba77b71470b4a818280dd5028cb9a263eeccdd523fbf8749fee117",
    "moving_max_quantile": "1721d538061eaf7d72af04360aeb61e9592ceabc09e55b1bb58d918ffae9a770",
    "s1": "8e442b89e7af0b6236873f8349e48f8eddbfbbd49bae5b47fa09a7eef7ff8ca8",
    "r_not_multiple": "9dc209de56abcd0d9731a9e888657ef9dde66cad247a41ede4d29491fb31e014",
    "one_big_block": "8ef16a4fc68c56f32afae4fa918ca01d1f599c31f7f8015b99502ac0273427e0",
    "no_exceedance": "b2db2919f3f7c437c5ef9f94c5aaf982eeb1c8281df91bdd39841312563ef7fc",
    "one_big_block_r_not_multiple": "246047882376caed24fa01d231727adee8ebcec7870f3a86f1e14bcecf3a06a5",
    "no_exceedance_r_not_multiple": "333909a830a0bff3adfbb5272c10ee363d417ad4b24df5c43169f9df600f105f",
    "scheme_too_short": "34fce98ec3f17a11eced08c60a89d8480e7c15b7caa0875289a1dcfa94eca14a",
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
