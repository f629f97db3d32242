"""Replicated Monte Carlo experiments over the simulators.

An experiment simulates R independent paths from a model with known
extremal index, runs the configured estimators on each, and aggregates:

* per-method bias/variance and standardized errors
  z = sqrt(n * v_hat) * (theta_hat - theta_true) / sqrt(theta*(theta*c-1)),
  with theta_true and the count variance constant c taken from the model
  oracle (the harness tests the theory, not a data pipeline);
* sliding vs disjoint variance dominance for each block functional, with
  a jackknife-based noise band;
* the matrix (Loewner-order) version of the same comparison over a
  functional set;
* equal-limit-law checks: pairwise variance ratios across estimators;
* a sup-CDF normality diagnostic on the standardized errors.

Threshold policy: the configuration names a rank k (or a quantile).  The
deterministic-threshold estimators use the exact marginal quantile of the
model at the matching level; the random-threshold estimator resolves the
k-th largest order statistic per replicate.  This keeps "deterministic
vs random threshold" a meaningful comparison within one experiment.

Determinism: replicate r draws from a counter-based stream keyed by
(master seed, r), results are reduced in replicate order, and files are
written with fixed 17-significant-digit formatting, so outputs are
byte-identical for any worker count.
"""

from __future__ import annotations

import json
import logging
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Sequence

import numpy as np

from ._ndtr import ndtr
from .blocks import (
    BUILTIN_FUNCTIONALS,
    BlockScheme,
    NormalizedSeries,
    disjoint_block_sum,
    scheme_advisories,
    sliding_block_sum,
)
from .errors import (
    ConfigError,
    HarnessAbort,
    InsufficientSampleError,
    NoExceedancesError,
    SchemeError,
)
from .estimators import (
    default_big_block_length,
    default_block_length,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
)
from .models import ModelSpec, count_variance_limit, simulate
from .variance import (
    CovMatrixPair,
    disjoint_sum_variance,
    loewner_compare,
    plugin_asymptotic_variance,
    sliding_sum_variance,
)

__all__ = [
    "Bands",
    "ExperimentConfig",
    "ReplicateRow",
    "FunctionalRow",
    "ExperimentResult",
    "NormalityDiagnostic",
    "run_experiment",
    "summarize",
    "variance_dominance_check",
    "loewner_check",
    "equal_limit_law_check",
    "normality_diagnostic",
    "write_csv",
    "load_csv",
]

logger = logging.getLogger(__name__)

METHODS = ("disjoint", "sliding", "runs", "sliding_random_u")
DEFAULT_FUNCTIONALS = ("block_max", "first_exceed")
# an experiment aborts when more of its replicate rows fail than this
MAX_FAILURE_RATE = 0.10
# sizes past these are refused at load: a path of n floats per worker, and
# the rows of every replicate, must fit in memory, and the pool forks all
# its workers at once
_MAX_N, _MAX_REPS, _MAX_WORKERS = 10**8, 10**6, 64

# threshold kind -> (its member in the JSON threshold object, the field it sets)
_THRESHOLDS = {"rank": ("k", "rank_k"), "quantile": ("p", "quantile")}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what a config value must be -> the test of it
_INT, _NUMBER, _NAMES = "an integer", "a number", "a list of names"
_KINDS = {
    _INT: _is_int,
    _NUMBER: _is_number,
    _NAMES: lambda v: isinstance(v, tuple) and all(isinstance(x, str) for x in v),
}


def _spec(default=MISSING, kind=None, ok=None, want="", *, members=(), json=True, echo=True):
    """A config field whose metadata is its row of the schema: what
    ``_field_problems`` checks, and whether ``_load`` reads it
    from JSON (``json``) and ``resolved()`` echoes it (``echo``)."""
    row = dict(kind=kind, ok=ok, want=want, members=members, json=json, echo=echo)
    return field(default=default, metadata=row)


def _field_problems(obj, prefix: str = "") -> list[str]:
    """What the schema rows find wrong with the field values of ``obj``:
    a value must be ``kind`` and pass ``ok`` (``want`` says how), a list
    of names must hold distinct ``members``.  A field whose default is
    None may stay unset; its problems come last."""
    problems = []
    for f in sorted(fields(obj), key=lambda f: f.default is None):
        value, row, name = getattr(obj, f.name), f.metadata, prefix + f.name
        if value is None and f.default is None:
            continue
        if row["kind"] and not _KINDS[row["kind"]](value):
            problems.append(f"{name} must be {row['kind']}, got {value!r}")
        elif row["ok"] and not row["ok"](value):
            problems.append(f"{name} must be {row['want']}, got {value!r}")
        elif row["members"]:
            one = name[:-1]
            problems += [f"unknown {one} {v!r}" for v in value if v not in row["members"]]
            repeated = dict.fromkeys(v for v in value if value.count(v) > 1)
            problems += [f"duplicate {one} {v!r}" for v in repeated]
            if not value:
                problems.append(f"{one} set must not be empty")
    return problems


def _passes(obj, name: str) -> bool:
    """Whether field ``name`` of ``obj`` is set and passes its schema row."""
    value, row = getattr(obj, name), obj.__dataclass_fields__[name].metadata
    return value is not None and _KINDS[row["kind"]](value) and row["ok"](value)


def _load(cls, raw, name: str, problems: list[str], **given):
    """The dataclass ``cls`` built from the JSON object ``raw`` and the
    fields ``given``, or None with what is wrong added to ``problems``.

    Reads the fields whose row says ``json`` (all, without rows): one with
    no default left out is None, for the checks to report; a nested
    dataclass comes from its own object, a number for a float field is a
    float and a list a tuple.
    """
    if not isinstance(raw, dict):
        problems.append(f"{name} must be an object")
        return None
    prefix = name + "." if name else ""
    hints = typing.get_type_hints(cls)
    keys = {f.name: f for f in fields(cls) if f.metadata.get("json", True)}
    problems += [f"unknown key {prefix + key!r}" for key in raw if key not in keys]
    for key, f in keys.items():
        if key in raw or f.default is MISSING:
            value, tp = raw.get(key), hints[key]
            if is_dataclass(tp):
                value = _load(tp, value, prefix + key, problems)
            elif tp is float and _is_number(value):
                try:
                    value = float(value)
                except OverflowError:  # an integer past the float range reads like 1e400
                    value = math.inf if value > 0 else -math.inf
            given[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**given)
    except ConfigError as exc:
        problems += exc.problems
    except (TypeError, ValueError, OverflowError) as exc:
        problems.append(f"{name}: {exc}")
    return None


def _load_threshold(raw, problems: list[str]) -> dict:
    """The field a JSON threshold object sets, e.g. {"rank_k": 200}."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in ("rank", "quantile"):
        problems.append(f"threshold must be an object with kind 'rank' or 'quantile', got {raw!r}")
        return {}
    member, name = _THRESHOLDS[kind]
    problems += [f"unknown key 'threshold.{key}'" for key in raw if key not in ("kind", member)]
    return {name: raw.get(member)}


def _as_json(value):
    """A value as the JSON outputs hold it: a tuple as a list, a dataclass
    as an object of its fields that are set."""
    if is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {k: _as_json(v) for k, v in items if v is not None}
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class Bands:
    """Pass bands for the experiment verdicts."""

    var_ratio: float = _spec(1.5, _NUMBER, lambda v: 1.0 <= v < math.inf, "finite and >= 1")
    normality_max_dev: float = _spec(0.08, _NUMBER, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    se_multiplier: float = _spec(3.0, _NUMBER, lambda v: 0.0 <= v < math.inf, "finite and >= 0")

    def __post_init__(self) -> None:
        problems = _field_problems(self, "bands.")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a replicated experiment needs, with derived defaults.

    Exactly one of ``rank_k`` and ``quantile`` must be set.  Block length
    defaults to ceil(sqrt(n/k)); the big-block length defaults to the
    multiple of s nearest sqrt(n * v) (at least 2s).  Each field's
    metadata is its row of the schema (see ``_spec``).  A block scheme
    that cannot run, or that ``scheme_advisories`` marks red, is refused,
    and so is ``sliding_random_u`` at a rank k <= ``model.max_ties``,
    where the level is the tied series maximum and every row fails.
    """

    model: ModelSpec = _spec()
    n: int = _spec(MISSING, _INT, lambda v: 2 <= v <= _MAX_N, f"in 2..{_MAX_N}")
    replicates: int = _spec(MISSING, _INT, lambda v: 2 <= v <= _MAX_REPS, f"in 2..{_MAX_REPS}")
    seed: int = _spec(MISSING, _INT, lambda v: v >= 0, ">= 0")
    rank_k: int | None = _spec(None, _INT, json=False)
    # a quantile so near 0 that 1 - quantile rounds to 1 leaves u_det no level
    quantile: float | None = _spec(
        None, _NUMBER, lambda v: 0 < 1 - v < 1, "in (0,1) with 1 - quantile < 1", json=False
    )
    s: int | None = _spec(None, _INT)
    r: int | None = _spec(None, _INT)
    estimators: tuple[str, ...] = _spec(METHODS, _NAMES, members=METHODS)
    functionals: tuple[str, ...] = _spec(DEFAULT_FUNCTIONALS, _NAMES, members=BUILTIN_FUNCTIONALS)
    # not echoed: outputs are worker-invariant, so parallelism is not part
    # of the experiment's identity
    workers: int = _spec(1, _INT, lambda v: 1 <= v <= _MAX_WORKERS, f"in 1..{_MAX_WORKERS}",
                         echo=False)
    denominator: str = _spec(
        "trimmed", None, lambda v: v in ("trimmed", "full"), "'trimmed' or 'full'"
    )
    bands: Bands = _spec(Bands())

    def __post_init__(self) -> None:
        problems = _field_problems(self)
        if (self.rank_k is None) == (self.quantile is None):
            problems.append("exactly one of rank_k and quantile must be given")
        if _is_int(self.rank_k) and _is_int(self.n) and not 1 <= self.rank_k < self.n:
            problems.append(f"rank_k={self.rank_k} out of range for n={self.n}")
        elif _passes(self, "n") and _passes(self, "quantile") and self.k_rank >= self.n:
            problems.append(f"quantile={self.quantile} resolves to rank k={self.k_rank}, "
                            f"out of range for n={self.n}")
        q = getattr(self.model, "q", None)
        if q is not None and _is_int(self.n) and q >= self.n:
            problems.append(f"model.q={q} must be < n={self.n}")
        if not problems:  # a scheme no replicate could run is refused here
            ties = getattr(self.model, "max_ties", 1)
            if "sliding_random_u" in self.estimators and self.k_rank <= ties:
                tied = f", which the model ties at {ties} points" if ties > 1 else ""
                problems.append(
                    f"sliding_random_u needs threshold rank k >= {ties + 1}, "
                    f"got k={self.k_rank}: nothing strictly exceeds the series maximum{tied}"
                )
            try:
                m = self.scheme.m
            except SchemeError as exc:
                problems.append(str(exc))
            else:
                if m < 2:
                    problems.append(
                        f"need m = (n-s+1)//r >= 2 big blocks, got m={m} for {self.scheme}"
                    )
                # so that `check` prints a red line exactly for what is refused
                problems += [msg for lvl, msg in self._advisories() if lvl == "red"]
        if problems:
            raise ConfigError(problems)

    @property
    def v_nominal(self) -> float:
        """Target single-observation exceedance rate."""
        if self.rank_k is not None:
            return self.rank_k / self.n
        return 1.0 - self.quantile

    @property
    def k_rank(self) -> int:
        """Rank used by the random-threshold estimator."""
        if self.rank_k is not None:
            return self.rank_k
        return max(1, round(self.n * (1.0 - self.quantile)))

    @property
    def u_det(self) -> float:
        """Deterministic threshold: exact marginal quantile at 1 - v."""
        return self.model.marginal_quantile(1.0 - self.v_nominal)

    @property
    def s_resolved(self) -> int:
        return self.s if self.s is not None else default_block_length(self.n, self.k_rank)

    @property
    def r_resolved(self) -> int:
        if self.r is not None:
            return self.r
        return default_big_block_length(self.n, self.v_nominal, self.s_resolved)

    @property
    def scheme(self) -> BlockScheme:
        return BlockScheme(self.n, self.s_resolved, self.r_resolved)

    def _advisories(self) -> list[tuple[str, str]]:
        return scheme_advisories(self.n, self.s_resolved, self.r_resolved, self.v_nominal)

    @property
    def theta_true(self) -> float:
        return self.model.theta_true

    @property
    def count_variance(self) -> float:
        return count_variance_limit(self.model)

    @property
    def plugin_variance(self) -> float:
        return plugin_asymptotic_variance(self.theta_true, self.count_variance)

    def resolved(self) -> dict:
        """Fully-resolved effective configuration, JSON-ready."""
        kind = "rank" if self.rank_k is not None else "quantile"
        member, name = _THRESHOLDS[kind]
        return {
            **{f.name: _as_json(getattr(self, f.name))
               for f in fields(self) if f.metadata["json"] and f.metadata["echo"]},
            "schema": 1,
            "threshold": {"kind": kind, member: getattr(self, name)},
            "s": self.s_resolved,  # s and r with their defaults filled in
            "r": self.r_resolved,
            "derived": {
                "v_nominal": self.v_nominal,
                "k_rank": self.k_rank,
                "u_deterministic": self.u_det,
                "theta_true": self.theta_true,
                "count_variance": self.count_variance,
                "plugin_variance": self.plugin_variance,
                "advisories": [
                    {"level": lvl, "message": msg} for lvl, msg in self._advisories()
                ],
            },
        }

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Build a config from a JSON-style dict, rejecting unknown keys.

        All schema violations are collected and reported together.
        """
        problems = []
        if not (_is_int(raw.get("schema")) and raw["schema"] == 1):
            problems.append(f"schema must be 1, got {raw.get('schema')!r}")
        threshold = _load_threshold(raw.get("threshold"), problems)
        top = {key: value for key, value in raw.items() if key not in ("schema", "threshold")}
        cfg = _load(ExperimentConfig, top, "", problems, **threshold)
        if problems:
            raise ConfigError(problems)
        return cfg


@dataclass(frozen=True)
class ReplicateRow:
    """One estimator applied to one replicate."""

    replicate: int
    method: str
    theta_hat: float | None
    u_used: float | None
    v_hat: float | None
    n_exceed: int
    z: float | None
    status: str  # "ok" | "failed"


@dataclass(frozen=True)
class FunctionalRow:
    """Block statistics of one functional on one replicate.

    t_* are the threshold-level statistics normalized with the nominal
    exceedance rate (numerators of the dominance comparison); ratio_* are
    the self-normalized versions; bb_var_* are the within-series big-block
    variance plug-ins.
    """

    replicate: int
    functional: str
    t_sliding: float
    t_disjoint: float
    ratio_sliding: float | None
    ratio_disjoint: float | None
    bb_var_sliding: float | None
    bb_var_disjoint: float | None


@dataclass
class ExperimentResult:
    """Everything an experiment produced, rows plus derived summary."""

    config: ExperimentConfig
    rows: list[ReplicateRow]
    stats: list[FunctionalRow]
    summary: dict

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "rows.csv"), ReplicateRow, self.rows)
        write_csv(os.path.join(out_dir, "stats.csv"), FunctionalRow, self.stats)
        _write_json(os.path.join(out_dir, "summary.json"), self.summary)
        _write_json(
            os.path.join(out_dir, "effective_config.json"), self.config.resolved()
        )

    @property
    def passed(self) -> bool:
        return all(
            v["status"].startswith("skipped") or v["status"] == "pass"
            for v in self.summary["verdicts"].values()
        )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# how load_csv reads a cell of each field type; an empty cell is None
_PARSERS = {int: int, str: str, float: float, float | None: lambda t: float(t) if t else None}


def write_csv(path: str, row_type: type, rows: Sequence) -> None:
    """Write dataclass rows as CSV under a header of ``row_type``'s field
    names; None is an empty cell and a float has 17 significant digits."""
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, name)) for name in names) + "\n")


def load_csv(path: str, row_type: type) -> list:
    """Read the rows that ``write_csv`` wrote for ``row_type``."""
    hints = typing.get_type_hints(row_type)
    names = [f.name for f in fields(row_type)]
    parsers = [_PARSERS[hints[name]] for name in names]
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != ",".join(names):
            raise ValueError(f"unexpected {row_type.__name__} header {header!r}")
        return [
            row_type(*(parse(tok) for parse, tok in zip(parsers, line.rstrip("\n").split(","))))
            for line in fh
        ]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _replicate(cfg: ExperimentConfig, rep: int) -> tuple[list[ReplicateRow], list[FunctionalRow]]:
    x = simulate(cfg.model, cfg.n, (cfg.seed, rep))
    n = cfg.n
    s = cfg.s_resolved
    u = cfg.u_det
    theta = cfg.theta_true
    plugin = cfg.plugin_variance
    ns = NormalizedSeries(x, u)
    v_det = int(ns.count(n)) / n
    den_trim = int(ns.count(n - s + 1))

    rows: list[ReplicateRow] = []
    for method in cfg.estimators:
        if method == "sliding_random_u":  # k > model.max_ties, checked at load: never raises
            est = theta_sliding_random_u(ns, cfg.k_rank, s)
            v_row = est.n_exceed / n
        else:
            # built per call: perfbench/tracing.py patches these module names
            estimate = {"disjoint": theta_disjoint, "sliding": theta_sliding,
                        "runs": theta_runs}[method]
            try:
                est = estimate(ns, u, s, denominator=cfg.denominator)
            except NoExceedancesError as exc:
                rows.append(ReplicateRow(rep, method, None, exc.u, v_det, 0, None, "failed"))
                continue
            v_row = v_det
        z = None
        if plugin > 0.0 and v_row > 0.0:
            z = math.sqrt(n * v_row) * (est.theta_hat - theta) / math.sqrt(plugin)
        rows.append(ReplicateRow(rep, method, est.theta_hat, est.u_used, v_row,
                                 est.n_exceed, z, "ok"))

    v_nom = cfg.v_nominal
    scheme = cfg.scheme
    stats: list[FunctionalRow] = []
    for gname in cfg.functionals:
        g = BUILTIN_FUNCTIONALS[gname]
        s_slide = sliding_block_sum(g, ns, s)
        s_disj = disjoint_block_sum(g, ns, s)
        t_s = s_slide / (n * v_nom * s * g.scale)
        t_d = s_disj / (n * v_nom * g.scale)
        ratio_s = s_slide / (s * g.scale * den_trim) if den_trim else None
        ratio_d = s_disj / (g.scale * den_trim) if den_trim else None
        try:
            bb_s = sliding_sum_variance(g, ns, u, scheme)
            # the disjoint plug-in needs r/s whole blocks; summarize skips its verdicts
            bb_d = disjoint_sum_variance(g, ns, u, scheme) if scheme.r % s == 0 else None
        except NoExceedancesError:
            bb_s = bb_d = None
        stats.append(FunctionalRow(rep, gname, t_s, t_d, ratio_s, ratio_d, bb_s, bb_d))
    return rows, stats


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Run all replicates, summarize, and (optionally) write output files.

    Deterministic given the config, including the master seed, for any
    worker count: both maps return the replicates in order.  Aborts when
    more than ``MAX_FAILURE_RATE`` of the replicate/method rows fail with
    no exceedances.
    """
    for level, message in cfg._advisories():
        if level != "green":
            logger.warning("sequence advisory (%s): %s", level, message)
    cfgs, reps = [cfg] * cfg.replicates, range(cfg.replicates)
    workers = min(cfg.workers, cfg.replicates)  # a worker past the replicates has none to run
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, cfg.replicates // (workers * 8))
            results = list(pool.map(_replicate, cfgs, reps, chunksize=chunk))
    else:
        results = list(map(_replicate, cfgs, reps))
    rows = [row for rep_rows, _ in results for row in rep_rows]
    stats = [row for _, rep_stats in results for row in rep_stats]
    n_failed = sum(1 for r in rows if r.status != "ok")
    if n_failed > MAX_FAILURE_RATE * len(rows):
        raise HarnessAbort(
            f"{n_failed}/{len(rows)} replicate rows failed with no exceedances "
            f"(limit {MAX_FAILURE_RATE:.0%}); raise the exceedance rate or n"
        )
    summary = summarize(cfg, rows, stats)
    result = ExperimentResult(cfg, rows, stats, summary)
    if out_dir is not None:
        result.write(out_dir)
    return result


# --------------------------------------------------------------------------
# summaries and verdicts


def _json_float(x) -> float | None:
    """Floats for the summary document; non-finite becomes None."""
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _jackknife_se_of_variance_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Delete-one jackknife SE of Var(a) - Var(b) over paired samples."""
    n = a.size
    if n < 3:
        return float("inf")

    def loo_var(x: np.ndarray) -> np.ndarray:
        s, q = x.sum(), np.dot(x, x)
        mean_i = (s - x) / (n - 1)
        return (q - x**2 - (n - 1) * mean_i**2) / (n - 2)

    d = loo_var(a) - loo_var(b)
    return float(np.sqrt((n - 1) / n * np.sum((d - d.mean()) ** 2)))


def _jackknife_se_of_min_eigenvalue(slide: np.ndarray, disj: np.ndarray) -> float:
    """Delete-one jackknife SE of lambda_min(cov(disj) - cov(slide))."""
    n = slide.shape[0]
    if n < 3:
        return float("inf")
    idx = np.arange(n)
    vals = np.empty(n)
    for i in range(n):
        keep = idx != i
        diff = np.cov(disj[keep].T) - np.cov(slide[keep].T)
        vals[i] = np.linalg.eigvalsh(np.atleast_2d(diff))[0]
    return float(np.sqrt((n - 1) / n * np.sum((vals - vals.mean()) ** 2)))


@dataclass(frozen=True)
class NormalityDiagnostic:
    """Location/scale plus sup-CDF distance of a sample from N(0, 1)."""

    mean: float
    sd: float
    max_cdf_dev: float


def normality_diagnostic(z) -> NormalityDiagnostic:
    """Sample mean, sd, and the sup distance between the empirical CDF of
    the mean-centered sample and the standard normal CDF.

    Centering makes the diagnostic test distributional shape and scale;
    the location offset is reported via ``mean`` but does not drive
    ``max_cdf_dev``.  Finite-sample bias of block estimators shifts the
    location well before it distorts the shape, and the location is
    deliberately not part of the hard gates.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.size < 50:
        raise InsufficientSampleError(f"need at least 50 values, got {z.size}")
    mean = float(z.mean())
    sd = float(z.std(ddof=1))
    cdf = np.array([ndtr(v) for v in np.sort(z - mean).tolist()])
    i = np.arange(1, z.size + 1, dtype=np.float64)
    dev = max(float(np.max(i / z.size - cdf)), float(np.max(cdf - (i - 1) / z.size)))
    return NormalityDiagnostic(mean, sd, dev)


# a result's list of rows -> the field naming what each row is of, and
# the config field listing the names the experiment ran
_TABLES = {"rows": ("method", "estimators"), "stats": ("functional", "functionals")}


def _columns(result: ExperimentResult, table: str, name: str, *attrs: str) -> list[np.ndarray]:
    """One array per column in ``attrs`` of the ``table`` rows of one
    estimator ("rows") or functional ("stats"), in replicate order, over
    the rows where none is None.  A name the experiment did not run raises
    ValueError."""
    key, listed = _TABLES[table]
    names = getattr(result.config, listed)
    if name not in names:
        raise ValueError(f"the result has no {key} {name!r}; its {listed} are {list(names)}")
    rows = [[getattr(r, a) for a in attrs]
            for r in getattr(result, table) if getattr(r, key) == name]
    rows = [vals for vals in rows if None not in vals]
    return [np.array([vals[i] for vals in rows]) for i in range(len(attrs))]


def _scaled(result: ExperimentResult, table: str, name: str, *attrs: str,
            center: float = 0.0) -> list[np.ndarray]:
    """Each of the ``_columns`` as sqrt(n * v_nominal) * (column - center):
    the deterministic oracle scaling of every verdict and summary variance."""
    cfg = result.config
    scale = math.sqrt(cfg.n * cfg.v_nominal)
    return [scale * (col - center) for col in _columns(result, table, name, *attrs)]


def variance_dominance_check(result: ExperimentResult, functional: str | None = None) -> dict:
    """Sliding-vs-disjoint variance comparison across replicates.

    For each functional, compares the empirical variances of the sliding
    and disjoint block statistics (and of their self-normalized ratio
    versions): dominated iff Var_sliding <= Var_disjoint plus
    ``se_multiplier`` jackknife standard errors of the difference.
    """
    cfg = result.config
    cfg.scheme.require_divisible()
    names = [functional] if functional is not None else list(cfg.functionals)
    per = {}
    for name in names:
        entry = {}
        for label, attrs in (
            ("threshold_level", ("t_sliding", "t_disjoint")),
            ("ratio", ("ratio_sliding", "ratio_disjoint")),
        ):
            a, b = _scaled(result, "stats", name, *attrs)
            var_s = float(np.var(a, ddof=1)) if a.size >= 2 else float("nan")
            var_d = float(np.var(b, ddof=1)) if b.size >= 2 else float("nan")
            se = _jackknife_se_of_variance_diff(a, b)
            # an infinite band (too few replicates to jackknife) passes trivially
            ok = not var_s - var_d > cfg.bands.se_multiplier * se
            entry[label] = {
                "var_sliding": _json_float(var_s),
                "var_disjoint": _json_float(var_d),
                "diff": _json_float(var_s - var_d),
                "se_jackknife": _json_float(se),
                "n_used": a.size,
                "pass": ok,
            }
        per[name] = entry
    all_pass = all(e["pass"] for entry in per.values() for e in entry.values())
    return {"status": "pass" if all_pass else "fail", "per_functional": per}


def loewner_check(result: ExperimentResult, functionals: Sequence[str] | None = None) -> dict:
    """Matrix version of the dominance check over a functional set.

    Builds the across-replicate covariance matrices of the scaled sliding
    and disjoint statistics and asks ``loewner_compare`` whether their
    difference is positive semi-definite up to ``se_multiplier`` jackknife
    SEs of its minimum eigenvalue.  A singleton set reduces to the scalar
    variance comparison of ``variance_dominance_check``.
    """
    cfg = result.config
    cfg.scheme.require_divisible()
    names = list(functionals) if functionals is not None else list(cfg.functionals)
    if not names:
        raise ValueError("loewner check needs at least 1 functional")
    cols = [_scaled(result, "stats", g, "t_sliding", "t_disjoint") for g in names]
    slide = np.column_stack([c[0] for c in cols])
    disj = np.column_stack([c[1] for c in cols])
    pair = CovMatrixPair(tuple(names), np.atleast_2d(np.cov(slide.T)),
                         np.atleast_2d(np.cov(disj.T)))
    se = _jackknife_se_of_min_eigenvalue(slide, disj)
    verdict = loewner_compare(pair, tol=cfg.bands.se_multiplier * se)
    return {
        "status": "pass" if verdict.dominated else "fail",
        "functionals": names,
        "min_eigenvalue": _json_float(verdict.min_eigenvalue),
        "se_jackknife": _json_float(se),
    }


def equal_limit_law_check(result: ExperimentResult) -> dict:
    """Pairwise variance ratios of the scaled estimation errors.

    Errors are scaled by the deterministic oracle factor
    sqrt(n * v_nominal) (the standardization constants come from the
    model, not the data), so the ratios reduce to plain ratios of
    Var(theta_hat) across estimators.  Compared pairs: every pair within
    {disjoint, sliding, runs}, plus random-threshold sliding against
    deterministic-threshold sliding.  All ratios must lie in
    [1/band, band].  Skipped when the plug-in limit variance is zero.
    """
    cfg = result.config
    if cfg.plugin_variance <= 0.0:
        return {"status": "skipped_degenerate", "ratios": {}, "variances": {}}
    variances = {}
    for method in cfg.estimators:
        # a failed row has no theta_hat, so this reads the rows that are ok
        (w,) = _scaled(result, "rows", method, "theta_hat", center=cfg.theta_true)
        if w.size >= 2:
            variances[method] = float(np.var(w, ddof=1))
    band = cfg.bands.var_ratio
    core = [m for m in ("disjoint", "sliding", "runs") if m in variances]
    pairs = [(a, b) for i, a in enumerate(core) for b in core[i + 1 :]]
    if "sliding_random_u" in variances and "sliding" in variances:
        pairs.append(("sliding_random_u", "sliding"))
    # a pair whose second variance is 0 has no ratio, and passes
    ratios = {f"{a}/{b}": variances[a] / variances[b] if variances[b] > 0.0 else None
              for a, b in pairs}
    all_pass = all(r is None or 1.0 / band <= r <= band for r in ratios.values())
    return {
        "status": "pass" if all_pass else "fail",
        "variances": variances,
        "ratios": {key: _json_float(r) for key, r in ratios.items()},
        "band": band,
    }


def summarize(cfg: ExperimentConfig, rows: Sequence[ReplicateRow],
              stats: Sequence[FunctionalRow]) -> dict:
    """Aggregate per-replicate rows into the summary document.

    Pure function of (config, rows, stats): re-running it on rows loaded
    back from the CSV files reproduces the written summary exactly.
    """
    theta = cfg.theta_true
    plugin = cfg.plugin_variance
    degenerate = plugin <= 0.0
    shell = ExperimentResult(cfg, list(rows), list(stats), {})
    est_summary = {}
    normality_per = {}
    for method in cfg.estimators:
        # a failed row has no theta_hat, so these are the rows that are ok
        th, v_hat = _columns(shell, "rows", method, "theta_hat", "v_hat")
        (status,) = _columns(shell, "rows", method, "status")
        entry = {"n_success": th.size, "n_failed": int(np.count_nonzero(status != "ok"))}
        if th.size >= 2:
            w = np.sqrt(cfg.n * v_hat) * (th - theta)
            entry.update(
                mean=float(th.mean()),
                bias=float(th.mean() - theta),
                variance=float(np.var(th, ddof=1)),
                var_scaled=float(np.var(w, ddof=1)),
            )
            (z,) = _columns(shell, "rows", method, "z")
            if not degenerate and z.size >= 50:
                normality_per[method] = _as_json(normality_diagnostic(z))
                entry.update({f"z_{key}": v for key, v in normality_per[method].items()})
        est_summary[method] = entry

    func_summary = {}
    for name in cfg.functionals:
        t_s, t_d = _scaled(shell, "stats", name, "t_sliding", "t_disjoint")
        (bb_s,) = _columns(shell, "stats", name, "bb_var_sliding")
        (bb_d,) = _columns(shell, "stats", name, "bb_var_disjoint")
        func_summary[name] = {
            "var_t_sliding_scaled": float(np.var(t_s, ddof=1)) if t_s.size >= 2 else None,
            "var_t_disjoint_scaled": float(np.var(t_d, ddof=1)) if t_d.size >= 2 else None,
            "mean_bb_var_sliding": float(bb_s.mean()) if bb_s.size else None,
            "mean_bb_var_disjoint": float(bb_d.mean()) if bb_d.size else None,
        }

    if cfg.r_resolved % cfg.s_resolved:
        dominance = loewner = {"status": "skipped_degenerate", "reason": "r not a multiple of s"}
    else:
        dominance = variance_dominance_check(shell)
        loewner = {"status": "skipped_degenerate", "reason": "needs >= 2 functionals"}
        if len(cfg.functionals) >= 2:
            loewner = loewner_check(shell)
    equal_law = equal_limit_law_check(shell)
    if not normality_per:  # empty when degenerate: no row has a z
        verdict = "skipped_degenerate" if degenerate else "skipped_insufficient"
    else:
        band = cfg.bands.normality_max_dev
        verdict = "pass" if all(d["max_cdf_dev"] < band for d in normality_per.values()) else "fail"
    normality = {"status": verdict, "per_method": normality_per}

    return {
        "schema": 1,
        "model": cfg.model.label(),
        "theta_true": theta,
        "count_variance": cfg.count_variance,
        "plugin_variance": plugin,
        "n": cfg.n,
        "replicates": cfg.replicates,
        "rows_total": len(rows),
        "rows_failed": sum(e["n_failed"] for e in est_summary.values()),
        "estimators": est_summary,
        "functionals": func_summary,
        "verdicts": {
            "dominance": dominance,
            "loewner": loewner,
            "equal_law": equal_law,
            "normality": normality,
        },
    }
