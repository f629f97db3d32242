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
from scipy.special import ndtr

from .blocks import (
    BUILTIN_FUNCTIONALS,
    BlockScheme,
    NormalizedSeries,
    ThresholdSpec,
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
    default_block_length,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
)
from .models import ModelSpec, count_variance_limit, simulate
from .variance import (
    MAX_FUNCTIONAL_SET,
    disjoint_sum_variance,
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
    metadata is its row of the schema (see ``_spec``).
    """

    model: ModelSpec = _spec()
    n: int = _spec(MISSING, _INT, lambda v: v >= 2, ">= 2")
    replicates: int = _spec(MISSING, _INT, lambda v: v >= 2, ">= 2")
    seed: int = _spec(MISSING, _INT, lambda v: v >= 0, ">= 0")
    rank_k: int | None = _spec(None, _INT, json=False)
    quantile: float | None = _spec(None, _NUMBER, lambda v: 0 < v < 1, "in (0,1)", json=False)
    s: int | None = _spec(None, _INT)
    r: int | None = _spec(None, _INT)
    estimators: tuple[str, ...] = _spec(METHODS, _NAMES, members=METHODS)
    functionals: tuple[str, ...] = _spec(DEFAULT_FUNCTIONALS, _NAMES, members=BUILTIN_FUNCTIONALS)
    # not echoed: outputs are worker-invariant, so parallelism is not part
    # of the experiment's identity
    workers: int = _spec(1, _INT, lambda v: v >= 1, ">= 1", echo=False)
    denominator: str = _spec(
        "trimmed", None, lambda v: v in ("trimmed", "full"), "'trimmed' or 'full'"
    )
    bands: Bands = _spec(Bands())
    max_failure_rate: float = _spec(0.10, json=False)

    def __post_init__(self) -> None:
        problems = _field_problems(self)
        if (self.rank_k is None) == (self.quantile is None):
            problems.append("exactly one of rank_k and quantile must be given")
        if _is_int(self.rank_k) and _is_int(self.n) and not 1 <= self.rank_k < self.n:
            problems.append(f"rank_k={self.rank_k} out of range for n={self.n}")
        q = getattr(self.model, "q", None)
        if q is not None and _is_int(self.n) and q >= self.n:
            problems.append(f"model.q={q} must be < n={self.n}")
        if not problems:  # a scheme no replicate could run is refused here
            try:
                m = self.scheme.m
            except SchemeError as exc:
                problems.append(str(exc))
            else:
                if m < 2:
                    problems.append(
                        f"need m = (n-s+1)//r >= 2 big blocks, got m={m} for {self.scheme}"
                    )
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
        s = self.s_resolved
        return s * max(2, round(math.sqrt(self.n * self.v_nominal) / s))

    @property
    def scheme(self) -> BlockScheme:
        return BlockScheme(self.n, self.s_resolved, self.r_resolved)

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
                    {"level": lvl, "message": msg}
                    for lvl, msg, _ in scheme_advisories(
                        self.n, self.s_resolved, self.r_resolved, self.v_nominal
                    )
                ],
            },
        }

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Build a config from a JSON-style dict, rejecting unknown keys.

        All schema violations are collected and reported together.
        """
        problems = []
        if raw.get("schema") != 1:
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
    v_det = int(ns.counts[n]) / n
    den_trim = int(ns.counts[n - s + 1])

    rows: list[ReplicateRow] = []
    for method in cfg.estimators:
        try:
            if method == "sliding_random_u":
                est = theta_sliding_random_u(ns, cfg.k_rank, s)
                v_row = est.n_exceed / n
            else:
                # built per call: perfbench/tracing.py patches these module names
                estimate = {"disjoint": theta_disjoint, "sliding": theta_sliding,
                            "runs": theta_runs}[method]
                est = estimate(ns, u, s, denominator=cfg.denominator)
                v_row = v_det
            z = None
            if plugin > 0.0 and v_row > 0.0:
                z = math.sqrt(n * v_row) * (est.theta_hat - theta) / math.sqrt(plugin)
            rows.append(
                ReplicateRow(rep, method, est.theta_hat, est.u_used, v_row,
                             est.n_exceed, z, "ok")
            )
        except NoExceedancesError:
            if method == "sliding_random_u":
                thr = ThresholdSpec.rank(cfg.k_rank).resolve(ns)
                u_row, v_row = thr.u, thr.v_hat
            else:
                u_row, v_row = u, v_det
            rows.append(ReplicateRow(rep, method, None, u_row, v_row, 0, None, "failed"))

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


def _replicate_task(args) -> tuple[int, tuple[list[ReplicateRow], list[FunctionalRow]]]:
    cfg, rep = args
    return rep, _replicate(cfg, rep)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Run all replicates, summarize, and (optionally) write output files.

    Deterministic given the config, including the master seed, for any
    worker count.  Aborts when more than ``max_failure_rate`` of the
    replicate/method rows fail with no exceedances.
    """
    for level, message, _ in scheme_advisories(cfg.n, cfg.s_resolved, cfg.r_resolved,
                                               cfg.v_nominal):
        if level != "green":
            logger.warning("sequence advisory (%s): %s", level, message)
    tasks = [(cfg, rep) for rep in range(cfg.replicates)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunk = max(1, cfg.replicates // (cfg.workers * 8))
            results = dict(pool.map(_replicate_task, tasks, chunksize=chunk))
    else:
        results = dict(map(_replicate_task, tasks))
    rows: list[ReplicateRow] = []
    stats: list[FunctionalRow] = []
    for rep in range(cfg.replicates):
        rep_rows, rep_stats = results[rep]
        rows.extend(rep_rows)
        stats.extend(rep_stats)
    n_failed = sum(1 for r in rows if r.status != "ok")
    if n_failed > cfg.max_failure_rate * len(rows):
        raise HarnessAbort(
            f"{n_failed}/{len(rows)} replicate rows failed with no exceedances "
            f"(limit {cfg.max_failure_rate:.0%}); raise the exceedance rate or n"
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


def normality_diagnostic(z, center: bool = True) -> NormalityDiagnostic:
    """Sample mean, sd, and the sup distance between the empirical CDF and
    the standard normal CDF.

    With ``center=True`` (the default) the sample is mean-centered before
    the CDF comparison, so the diagnostic tests distributional shape and
    scale; the location offset is reported via ``mean`` but does not
    drive ``max_cdf_dev``.  Finite-sample bias of block estimators shifts
    the location well before it distorts the shape, and the location is
    deliberately not part of the hard gates.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.size < 50:
        raise InsufficientSampleError(f"need at least 50 values, got {z.size}")
    mean = float(z.mean())
    sd = float(z.std(ddof=1))
    zz = np.sort(z - mean if center else z)
    cdf = ndtr(zz)
    i = np.arange(1, z.size + 1, dtype=np.float64)
    dev = max(float(np.max(i / z.size - cdf)), float(np.max(cdf - (i - 1) / z.size)))
    return NormalityDiagnostic(mean, sd, dev)


def _result_of(obj) -> "ExperimentResult":
    if isinstance(obj, ExperimentConfig):
        return run_experiment(obj)
    return obj


def _columns(stats: Sequence[FunctionalRow], functional: str, *attrs: str) -> list[np.ndarray]:
    """One array per stats column in ``attrs``: the values for one
    functional, in replicate order, over the rows where none is None."""
    rows = [[getattr(r, a) for a in attrs] for r in stats if r.functional == functional]
    rows = [vals for vals in rows if None not in vals]
    return [np.array([vals[i] for vals in rows]) for i in range(len(attrs))]


def variance_dominance_check(obj, functional: str | None = None) -> dict:
    """Sliding-vs-disjoint variance comparison across replicates.

    For each functional, compares the empirical variances of the sliding
    and disjoint block statistics (and of their self-normalized ratio
    versions): dominated iff Var_sliding <= Var_disjoint plus
    ``se_multiplier`` jackknife standard errors of the difference.
    """
    result = _result_of(obj)
    cfg = result.config
    cfg.scheme.require_divisible()
    scale = cfg.n * cfg.v_nominal
    names = [functional] if functional else list(cfg.functionals)
    per = {}
    all_pass = True
    for name in names:
        entry = {}
        for label, a_attr, b_attr in (
            ("threshold_level", "t_sliding", "t_disjoint"),
            ("ratio", "ratio_sliding", "ratio_disjoint"),
        ):
            a, b = _columns(result.stats, name, a_attr, b_attr)
            a, b = a * math.sqrt(scale), b * math.sqrt(scale)
            var_s = float(np.var(a, ddof=1)) if a.size >= 2 else float("nan")
            var_d = float(np.var(b, ddof=1)) if b.size >= 2 else float("nan")
            se = _jackknife_se_of_variance_diff(a, b)
            # an infinite band (too few replicates to jackknife) passes trivially
            ok = not var_s - var_d > cfg.bands.se_multiplier * se
            all_pass = all_pass and ok
            entry[label] = {
                "var_sliding": _json_float(var_s),
                "var_disjoint": _json_float(var_d),
                "diff": _json_float(var_s - var_d),
                "se_jackknife": _json_float(se),
                "n_used": a.size,
                "pass": ok,
            }
        per[name] = entry
    return {"status": "pass" if all_pass else "fail", "per_functional": per}


def loewner_check(obj, functionals: Sequence[str] | None = None) -> dict:
    """Matrix version of the dominance check over a functional set.

    Builds the across-replicate covariance matrices of the scaled sliding
    and disjoint statistics and tests whether disjoint - sliding is
    positive semi-definite up to ``se_multiplier`` jackknife SEs of its
    minimum eigenvalue.  A singleton set reduces to the scalar variance
    comparison of ``variance_dominance_check``.
    """
    result = _result_of(obj)
    cfg = result.config
    cfg.scheme.require_divisible()
    names = list(functionals) if functionals is not None else list(cfg.functionals)
    if not names:
        raise ValueError("loewner check needs at least 1 functional")
    if len(names) > MAX_FUNCTIONAL_SET:
        raise ValueError(
            f"functional sets larger than {MAX_FUNCTIONAL_SET} are not supported"
        )
    scale = math.sqrt(cfg.n * cfg.v_nominal)
    cols = [_columns(result.stats, g, "t_sliding", "t_disjoint") for g in names]
    slide = np.column_stack([c[0] for c in cols]) * scale
    disj = np.column_stack([c[1] for c in cols]) * scale
    diff = np.cov(disj.T) - np.cov(slide.T)
    lam_min = float(np.linalg.eigvalsh(np.atleast_2d(diff))[0])
    se = _jackknife_se_of_min_eigenvalue(slide, disj)
    ok = not lam_min < -cfg.bands.se_multiplier * se
    return {
        "status": "pass" if ok else "fail",
        "functionals": names,
        "min_eigenvalue": _json_float(lam_min),
        "se_jackknife": _json_float(se),
    }


def equal_limit_law_check(obj) -> dict:
    """Pairwise variance ratios of the scaled estimation errors.

    Errors are scaled by the deterministic oracle factor
    sqrt(n * v_nominal) (the standardization constants come from the
    model, not the data), so the ratios reduce to plain ratios of
    Var(theta_hat) across estimators.  Compared pairs: every pair within
    {disjoint, sliding, runs}, plus random-threshold sliding against
    deterministic-threshold sliding.  All ratios must lie in
    [1/band, band].  Skipped when the plug-in limit variance is zero.
    """
    result = _result_of(obj)
    cfg = result.config
    if cfg.plugin_variance <= 0.0:
        return {"status": "skipped_degenerate", "ratios": {}, "variances": {}}
    theta = cfg.theta_true
    scale = math.sqrt(cfg.n * cfg.v_nominal)
    variances = {}
    for method in cfg.estimators:
        w = [
            scale * (r.theta_hat - theta)
            for r in result.rows
            if r.method == method and r.status == "ok"
        ]
        if len(w) >= 2:
            variances[method] = float(np.var(np.array(w), ddof=1))
    band = cfg.bands.var_ratio
    ratios = {}
    all_pass = True
    core = [m for m in ("disjoint", "sliding", "runs") if m in variances]
    pairs = [(a, b) for i, a in enumerate(core) for b in core[i + 1 :]]
    if "sliding_random_u" in variances and "sliding" in variances:
        pairs.append(("sliding_random_u", "sliding"))
    for a, b in pairs:
        if variances[b] > 0.0:
            ratio = variances[a] / variances[b]
            ratios[f"{a}/{b}"] = _json_float(ratio)
            all_pass = all_pass and 1.0 / band <= ratio <= band
        else:
            ratios[f"{a}/{b}"] = None
    return {
        "status": "pass" if all_pass else "fail",
        "variances": variances,
        "ratios": ratios,
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
    est_summary = {}
    normality_per = {}
    normality_pass = True
    for method in cfg.estimators:
        ok_rows = [r for r in rows if r.method == method and r.status == "ok"]
        failed = sum(1 for r in rows if r.method == method and r.status != "ok")
        th = np.array([r.theta_hat for r in ok_rows])
        entry = {"n_success": len(ok_rows), "n_failed": failed}
        if len(ok_rows) >= 2:
            w = np.array(
                [math.sqrt(cfg.n * r.v_hat) * (r.theta_hat - theta) for r in ok_rows]
            )
            entry.update(
                mean=float(th.mean()),
                bias=float(th.mean() - theta),
                variance=float(np.var(th, ddof=1)),
                var_scaled=float(np.var(w, ddof=1)),
            )
            zvals = np.array([r.z for r in ok_rows if r.z is not None])
            if not degenerate and zvals.size >= 50:
                diag = normality_diagnostic(zvals, center=True)
                normality_per[method] = _as_json(diag)
                entry.update({f"z_{key}": v for key, v in normality_per[method].items()})
                normality_pass = normality_pass and (
                    diag.max_cdf_dev < cfg.bands.normality_max_dev
                )
        est_summary[method] = entry

    func_summary = {}
    for name in cfg.functionals:
        scale = cfg.n * cfg.v_nominal
        t_s, t_d = _columns(stats, name, "t_sliding", "t_disjoint")
        t_s, t_d = t_s * math.sqrt(scale), t_d * math.sqrt(scale)
        (bb_s,) = _columns(stats, name, "bb_var_sliding")
        (bb_d,) = _columns(stats, name, "bb_var_disjoint")
        func_summary[name] = {
            "var_t_sliding_scaled": float(np.var(t_s, ddof=1)) if t_s.size >= 2 else None,
            "var_t_disjoint_scaled": float(np.var(t_d, ddof=1)) if t_d.size >= 2 else None,
            "mean_bb_var_sliding": float(bb_s.mean()) if bb_s.size else None,
            "mean_bb_var_disjoint": float(bb_d.mean()) if bb_d.size else None,
        }

    shell = ExperimentResult(cfg, list(rows), list(stats), {})
    divisible = cfg.r_resolved % cfg.s_resolved == 0
    if divisible:
        dominance = variance_dominance_check(shell)
        loewner = (
            loewner_check(shell)
            if len(cfg.functionals) >= 2
            else {"status": "skipped_degenerate", "reason": "needs >= 2 functionals"}
        )
    else:
        dominance = {"status": "skipped_degenerate", "reason": "r not a multiple of s"}
        loewner = {"status": "skipped_degenerate", "reason": "r not a multiple of s"}
    equal_law = equal_limit_law_check(shell)
    if degenerate:
        normality = {"status": "skipped_degenerate", "per_method": {}}
    elif not normality_per:
        normality = {"status": "skipped_insufficient", "per_method": {}}
    else:
        normality = {
            "status": "pass" if normality_pass else "fail",
            "per_method": normality_per,
        }

    n_failed = sum(1 for r in rows if r.status != "ok")
    return {
        "schema": 1,
        "model": cfg.model.label(),
        "theta_true": theta,
        "count_variance": cfg.count_variance,
        "plugin_variance": plugin,
        "n": cfg.n,
        "replicates": cfg.replicates,
        "rows_total": len(rows),
        "rows_failed": n_failed,
        "estimators": est_summary,
        "functionals": func_summary,
        "verdicts": {
            "dominance": dominance,
            "loewner": loewner,
            "equal_law": equal_law,
            "normality": normality,
        },
    }
