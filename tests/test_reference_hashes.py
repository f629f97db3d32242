"""Byte identity of the experiment outputs.

The SHA-256 of ``rows.csv``, ``stats.csv``, ``summary.json`` and
``effective_config.json`` are pinned at 1 and 2 workers for three configs:

* ``demos/configs/armax_smoke.json``, whose hashes are ROADMAP's Baseline;
* ``MOVING_MAX``, which takes the branches the smoke config leaves out: a
  quantile threshold, ``moving_max`` with ``weights``, ``denominator:
  "full"``, explicit ``bands``, the ``runs`` functional, and replicates
  with no exceedances (failed rows, empty CSV cells);
* ``IID``, whose plug-in limit variance is 0: every ok row has no ``z``,
  the estimator entries have no ``z_*`` keys, and ``equal_law`` and
  ``normality`` are ``skipped_degenerate``.

``ACCEPTANCE``, ROADMAP's Baseline acceptance config, is pinned at 2
workers only: the acceptance suite's criterion 13 compares 1 worker with 8.

A change that moves these bytes on purpose records the new hashes here
and in ROADMAP, and says why in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from exindex.cli import main

SMOKE = os.path.join(os.path.dirname(__file__), "..", "demos", "configs", "armax_smoke.json")

MOVING_MAX = {
    "schema": 1,
    "model": {"family": "moving_max", "q": 2, "weights": [0.5, 0.3, 0.2]},
    "n": 600,
    "threshold": {"kind": "quantile", "p": 0.99},
    "replicates": 60,
    "seed": 5,
    "functionals": ["block_max", "runs", "first_exceed"],
    "denominator": "full",
    "bands": {"var_ratio": 2.0, "normality_max_dev": 0.1, "se_multiplier": 2.5},
}

IID = {
    "schema": 1,
    "model": {"family": "iid_frechet"},
    "n": 2000,
    "threshold": {"kind": "rank", "k": 100},
    "replicates": 10,
    "seed": 3,
    "s": 4,
    "r": 8,
}

ACCEPTANCE = {
    "schema": 1,
    "model": {"family": "armax", "alpha": 0.5},
    "n": 50000,
    "threshold": {"kind": "rank", "k": 1000},
    "s": 8,
    "r": 32,
    "replicates": 500,
    "seed": 2,
}

CONFIGS = {"moving_max": MOVING_MAX, "iid": IID}

ACCEPTANCE_HASHES = {
    "rows.csv": "4aa2caf0541b5bedb548e137691c2b370824efe5f48f1284f1679bf6bae63ede",
    "stats.csv": "f7f569a0ae5f71cc7b2c264c88e4bd6bde6e1a2d8054d8ed864fdba7103b374e",
    "summary.json": "94c6c5019fd9f63dd8f976b455eea8fd6866cdbb0a224c2ec5cf1e13f6a953d7",
    "effective_config.json": "43b7d6f1fa37d1d822759d656e917f6e0cad443033c14b52513b8979883f91ea",
}

HASHES = {
    "armax_smoke": {
        "rows.csv": "d3162d7ff836786eb5ec03f2ab0accd73cb7130d3df38305b982822999378536",
        "stats.csv": "2e706b17274105a5b852e89964f341603942518e34fdbf0fe11ef2e8e869320b",
        "summary.json": "10a3234a668065a5ef7b79e7639a9863a3a8ce7b5f137a1382e7222a28555496",
        "effective_config.json":
            "5bd14c80eb37b4b42ae3a746f022a58ef83bf4f65a71712ed69a1fffced46602",
    },
    "moving_max": {
        "rows.csv": "ebc6738c16b82933ea6334e22ea361ca62dff25851745664216a6cce7feb6a92",
        "stats.csv": "a4fdd93b6712820ea18db2cd4e25ebcd4240f4717660cd5a4db998e90a1b1212",
        "summary.json": "f53cf41eb9754b49bf73bf9bd73386ab2476260716984a0ad08fcf61a3ffc29c",
        "effective_config.json":
            "c92961cf24da8b0c139312e8f7546ada940f3eb1b7a7b805376f7e2245e6b807",
    },
    "iid": {
        "rows.csv": "14577c01e5ba335d987e0f8edaf9b7948c9100e8d3398bb06225201575ab514c",
        "stats.csv": "9ddc3b35987d74f9a8a23c25c8c42bfe91af4f78eaf404fcd9798a95d5105b43",
        "summary.json": "9c0bbff5a540e720f3982460feecc3f8b1aff23ef03a67eb277d309e9fc25326",
        "effective_config.json":
            "4c62b141b1196eb89cac4e1a133f2b4b477a8f17c7316011fdc1cf7cb48abd08",
    },
}


def run_hashes(tmp_path, config, workers):
    """SHA-256 of each output file of ``exindex experiment`` on ``config``
    (a path, or a dict written as JSON)."""
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        config = str(path)
    out = tmp_path / "out"
    assert main(["experiment", config, "--out", str(out), "--workers", workers]) in (0, 1)
    return {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
            for file in ("rows.csv", "stats.csv", "summary.json", "effective_config.json")}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", ["armax_smoke", "moving_max", "iid"])
def test_output_hashes(tmp_path, name, workers):
    config = SMOKE if name == "armax_smoke" else CONFIGS[name]
    assert run_hashes(tmp_path, config, workers) == HASHES[name]


def test_acceptance_config_hashes(tmp_path):
    assert run_hashes(tmp_path, ACCEPTANCE, "2") == ACCEPTANCE_HASHES
