"""Fuzz the config loader with mutated trees of the smoke config.

Every tree must either load or be refused with ``ConfigError`` (exit 2,
never the exit 4 of an internal error), and ``exindex check`` must print
a red line exactly for the trees that ``ExperimentConfig.from_dict``
refuses.  A tree that loads, shrunk to n <= 2,000 and replicates <= 3 at
one worker (so no pool starts), must run through ``exindex experiment``
without an internal error; its mutations mostly draw values of the
field's own kind, so that more of them load and run.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from exindex.cli import main
from exindex.errors import ConfigError
from exindex.harness import METHODS, ExperimentConfig

SMOKE_PATH = os.path.join(os.path.dirname(__file__), "..", "demos", "configs", "armax_smoke.json")
with open(SMOKE_PATH) as _fh:
    SMOKE = json.load(_fh)

# every member of the tree, and one unknown key at each level
PATHS = [
    ("schema",), ("model",), ("model", "family"), ("model", "alpha"), ("model", "q"),
    ("model", "weights"), ("n",), ("threshold",), ("threshold", "kind"), ("threshold", "k"),
    ("threshold", "p"), ("s",), ("r",), ("replicates",), ("seed",), ("estimators",),
    ("functionals",), ("workers",), ("denominator",), ("bands",), ("bands", "var_ratio"),
    ("bands", "normality_max_dev"), ("bands", "se_multiplier"),
    ("typo",), ("model", "typo"), ("threshold", "typo"), ("bands", "typo"),
]
NAMES = [*METHODS, "block_max", "first_exceed", "runs", "typo"]
WORDS = ["armax", "iid_frechet", "moving_max", "rank", "quantile", "trimmed", "full", ""]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 60),
    st.integers(-(10**20), 10**20),
    st.sampled_from([10**400, -(10**400), 2**63, 5000, 4999]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.5, 0.99, 1e-300, 1e-10, 1.0, 0.0, -0.0]),
    st.sampled_from(WORDS),
)
LISTS = st.one_of(
    st.just([]),
    st.lists(SCALARS, max_size=3),
    st.lists(st.sampled_from(NAMES), max_size=6),  # repeats included
    st.lists(st.lists(SCALARS, max_size=2), max_size=2),
)
VALUES = st.one_of(
    SCALARS,
    LISTS,
    st.dictionaries(st.sampled_from(["kind", "k", "p", "family", "alpha", "q", "x"]),
                    SCALARS, max_size=3),
)
UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# a value of each field's own kind, which the run test draws most of the time
KINDS = {
    ("n",): st.integers(-3, 6000),
    ("s",): st.integers(-3, 40),
    ("r",): st.integers(-3, 200),
    ("replicates",): st.integers(-3, 12),
    ("seed",): st.integers(-3, 2**64),
    ("threshold", "k"): st.integers(-3, 600),
    ("threshold", "p"): UNIT,
    ("model", "alpha"): UNIT,
    ("estimators",): st.lists(st.sampled_from(NAMES), max_size=6),
    ("functionals",): st.lists(st.sampled_from(NAMES), max_size=6),
    ("model", "family"): st.sampled_from(WORDS),
    ("threshold", "kind"): st.sampled_from(WORDS),
    ("denominator",): st.sampled_from(WORDS),
    ("schema",): st.integers(0, 2),
    ("workers",): st.integers(-3, 8),
    ("bands", "var_ratio"): st.floats(0.5, 10.0),
    ("bands", "normality_max_dev"): UNIT,
    ("bands", "se_multiplier"): st.floats(0.0, 10.0),
}
WEIGHTS = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5),
    st.lists(st.sampled_from([0.25, 0.5, 1.0]), max_size=5),
    st.lists(st.lists(st.just(0.5), max_size=2), max_size=3),
)


@st.composite
def mutated(draw, most=3, kinds=False):
    """The smoke tree with up to ``most`` mutations; with ``kinds``, a
    replaced field gets a value of its own kind three times in four."""
    tree = json.loads(json.dumps(SMOKE))
    for _ in range(draw(st.integers(1, most))):
        if draw(st.integers(0, 3)) == 0:
            model = {"family": "moving_max", "q": draw(st.one_of(st.integers(1, 4), SCALARS))}
            if draw(st.booleans()):
                model["weights"] = draw(WEIGHTS)
            tree["model"] = model
            continue
        *parents, key = draw(st.sampled_from(PATHS))
        node = tree
        for p in parents:
            node = node.get(p) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if draw(st.integers(0, 5)) == 0:
            node.pop(key, None)
        else:
            kind = KINDS.get((*parents, key)) if kinds else None
            node[key] = draw(kind if kind is not None and draw(st.integers(0, 3)) else VALUES)
    return tree


@settings(max_examples=300)
@given(mutated())
def test_loader_refuses_only_with_config_error_and_check_agrees(tree):
    text = json.dumps(tree)  # NaN and Infinity as the literals json.load reads back
    raw = json.loads(text)
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        refused = True
        assert exc.problems and all(isinstance(p, str) for p in exc.problems)
    else:
        refused = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path])
    assert code == 0, err.getvalue()
    lines = out.getvalue().splitlines()
    assert any(line.startswith("red: ") for line in lines) == refused, lines


OUTPUTS = ["effective_config.json", "rows.csv", "stats.csv", "summary.json"]


@settings(max_examples=300)
@given(mutated(most=1, kinds=True))  # one mutation, mostly of the field's kind, so more trees load
def test_loaded_configs_run_without_internal_error(tree):
    try:
        ExperimentConfig.from_dict(tree)
    except ConfigError:
        return
    tree.update(n=min(tree["n"], 2000), replicates=min(tree["replicates"], 3), workers=1)
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(tree, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["experiment", path, "--out", out_dir])
        assert code in (0, 1, 2, 3), err.getvalue()
        if code in (0, 1):
            assert sorted(os.listdir(out_dir)) == OUTPUTS
