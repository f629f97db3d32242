"""Byte identity of the experiment outputs.

The SHA-256 of ``rows.csv``, ``stats.csv``, ``summary.json`` and
``effective_config.json`` are pinned at 1 and 2 workers for two configs:

* ``demos/configs/armax_smoke.json``, whose hashes are ROADMAP's Baseline;
* ``MOVING_MAX``, which takes the branches the smoke config leaves out: a
  quantile threshold, ``moving_max`` with ``weights``, ``denominator:
  "full"``, explicit ``bands``, the ``runs`` functional, and replicates
  with no exceedances (failed rows, empty CSV cells).

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
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", ["armax_smoke", "moving_max"])
def test_output_hashes(tmp_path, name, workers):
    if name == "armax_smoke":
        config = SMOKE
    else:
        config = str(tmp_path / "moving_max.json")
        with open(config, "w") as fh:
            json.dump(MOVING_MAX, fh)
    out = tmp_path / "out"
    assert main(["experiment", config, "--out", str(out), "--workers", workers]) in (0, 1)
    got = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest() for file in HASHES[name]
    }
    assert got == HASHES[name]
