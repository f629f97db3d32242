"""Command-line entry point.

Subcommands:

* ``simulate``   - write one simulated path as a single-column CSV.
* ``estimate``   - run extremal index estimators on a CSV of observations.
* ``experiment`` - run a replicated Monte Carlo experiment from a JSON
  config, writing rows.csv / stats.csv / summary.json /
  effective_config.json into the output directory.
* ``check``      - print finite-sample advisories for a configuration's
  block scheme.  Exits 0 on any readable config; the problems for which
  ``experiment`` would refuse it print as red lines.

Exit codes: 0 success (for ``experiment``: all hard gates passed),
1 experiment verdicts failed, 2 usage or configuration error, 3 the data
was degenerate (e.g. no exceedances), 4 internal error.

Every subcommand is deterministic given its flags and config, and file
output is byte-stable: reals are written with 17 significant digits and
LF line endings.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .blocks import BlockScheme, NormalizedSeries, ThresholdSpec, scheme_advisories
from .errors import (
    ConfigError,
    ExindexError,
    HarnessAbort,
    InsufficientBlocksError,
    InsufficientEventsError,
    InsufficientSampleError,
    InvalidThresholdError,
    NoExceedancesError,
    SchemeError,
    WindowError,
)
from .estimators import (
    default_block_length,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
)
from .harness import ExperimentConfig, run_experiment
from .models import ModelSpec, simulate
from .variance import count_second_moment

USAGE_ERROR, DATA_ERROR, INTERNAL_ERROR = 2, 3, 4


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise ConfigError([f"--n must be >= 1, got {args.n}"])
    if args.seed < 0:
        raise ConfigError([f"--seed must be non-negative, got {args.seed}"])
    family = {"iid": "iid_frechet", "armax": "armax", "moving-max": "moving_max"}[args.model]
    try:  # the model refuses a missing parameter and one its family does not take
        spec = ModelSpec(family, alpha=args.alpha, q=args.q)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc
    if spec.q is not None and spec.q >= args.n:
        raise ConfigError([f"--q must be < --n, got q={spec.q} and n={args.n}"])
    x = simulate(spec, args.n, args.seed)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("x\n")
        # float(v): numpy's own scalar formatting costs about a fifth more
        fh.writelines(f"{float(v):.17g}\n" for v in x)
    return 0


def _read_column(path: str) -> np.ndarray:
    vals = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    with fh:
        for i, line in enumerate(fh):
            tok = line.strip()
            if not tok:
                continue
            if i == 0 and tok == "x":
                continue
            try:
                v = float(tok)
            except ValueError as exc:
                raise ConfigError(
                    [f"{path}: line {i + 1} is not a number: {tok!r}"]
                ) from exc
            if not math.isfinite(v):
                raise ConfigError([f"{path}: line {i + 1} is not finite: {tok!r}"])
            vals.append(v)
    if not vals:
        raise ConfigError([f"{path}: no numeric rows"])
    return np.asarray(vals, dtype=np.float64)


_ESTIMATORS = {
    "disjoint": theta_disjoint,
    "sliding": theta_sliding,
    "runs": theta_runs,
}


def _estimate_one(ns, method, rank_k, s, denominator):
    """One estimate off the index ``ns``, built at the resolved level."""
    if method == "sliding_random_u" or (rank_k is not None and method == "sliding"):
        return theta_sliding_random_u(ns, rank_k, s)
    if rank_k is not None:
        # rank thresholds count exceedances over the whole series, so that
        # with distinct values the count is exactly k-1
        denominator = "full"
    return _ESTIMATORS[method](ns, ns.u, s, denominator=denominator)


def cmd_estimate(args) -> int:
    x = _read_column(args.input)
    n = x.size
    if (args.u is None) == (args.rank_k is None):
        raise ConfigError(["exactly one of --u and --rank-k is required"])
    if args.rank_k is not None and not 1 <= args.rank_k <= n:
        raise ConfigError([f"--rank-k {args.rank_k} out of range for n={n}"])
    s = args.s
    if s is None:
        if args.rank_k is None:
            raise ConfigError(["--s is required with --u (no default block length)"])
        s = default_block_length(n, args.rank_k)
    if args.method == "all":
        # with --rank-k the sliding slot already resolves to the
        # random-threshold variant, so every estimator appears exactly once
        methods = list(_ESTIMATORS)
    else:
        methods = [args.method]
    if "sliding_random_u" in methods and args.rank_k is None:
        raise ConfigError(["--method sliding_random_u requires --rank-k"])

    # one threshold and one exceedance index, shared by every method
    if args.rank_k is not None:
        u = ThresholdSpec.rank(args.rank_k).resolve(x).u
    else:
        u = args.u
    ns = NormalizedSeries(x, u)
    estimates = []
    for method in methods:
        est = _estimate_one(ns, method, args.rank_k, s, args.denominator)
        if args.stderr:
            v_hat = max(int(ns.counts[n]) / n, 1.0 / n)
            r = args.r
            if r is None:
                r = est.s * max(2, round((n * v_hat) ** 0.5 / est.s))
            r = min(max(r, est.s), n)
            try:
                c_hat = count_second_moment(ns, est.u_used, BlockScheme(n, est.s, r))
                th = min(max(est.theta_hat, 1.0 / n), 1.0)  # clamp into (0, 1]
                plug = max(th * (th * c_hat - 1.0), 0.0)
                est = dataclasses.replace(est, stderr_hat=(plug / (n * v_hat)) ** 0.5)
            except (InsufficientBlocksError, NoExceedancesError):
                pass
        if args.clip_unit:
            est = dataclasses.replace(est, theta_hat=min(max(est.theta_hat, 0.0), 1.0))
        estimates.append({k: v for k, v in dataclasses.asdict(est).items() if v is not None})

    payload = estimates[0] if len(estimates) == 1 else {"estimates": estimates}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path} is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be an object"])
    return raw


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(_read_config(args.config))
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    result = run_experiment(cfg, out_dir=args.out)
    for name, verdict in sorted(result.summary["verdicts"].items()):
        print(f"{name}: {verdict['status']}")
    print(f"rows failed: {result.summary['rows_failed']}/{result.summary['rows_total']}")
    return 0 if result.passed else 1


def cmd_check(args) -> int:
    try:
        cfg = ExperimentConfig.from_dict(_read_config(args.config))
    except ConfigError as exc:
        # what `experiment` would refuse, an infeasible block scheme included
        for problem in exc.problems:
            print(f"red: {problem}")
        return 0
    s, r = cfg.s_resolved, cfg.r_resolved
    print(f"n={cfg.n} k={cfg.k_rank} s={s} r={r} v_nominal={cfg.v_nominal:.6g}")
    for level, message, _ in scheme_advisories(cfg.n, s, r, cfg.v_nominal):
        print(f"{level}: {message}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="exindex",
        description="Peaks-over-threshold block statistics and extremal index estimation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a path to CSV")
    sim.add_argument("--model", required=True, choices=["iid", "armax", "moving-max"])
    sim.add_argument("--alpha", type=float, help="armax persistence in (0,1)")
    sim.add_argument("--q", type=int, help="moving-max window (lags 0..q)")
    sim.add_argument("--n", type=int, required=True, help="path length")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate the extremal index from a CSV")
    est.add_argument("input", help="single-column CSV of observations")
    est.add_argument("--u", type=float, help="deterministic threshold")
    est.add_argument("--rank-k", type=int, help="rank threshold: k-th largest value")
    est.add_argument("--s", type=int, help="block length (default: ceil(sqrt(n/k)))")
    est.add_argument("--r", type=int, help="big-block length for --stderr")
    est.add_argument(
        "--method",
        default="sliding",
        choices=["disjoint", "sliding", "runs", "sliding_random_u", "all"],
    )
    est.add_argument(
        "--denominator",
        default="trimmed",
        choices=["trimmed", "full"],
        help="exceedance count range for deterministic thresholds",
    )
    est.add_argument("--clip-unit", action="store_true", help="clip theta_hat to [0,1]")
    est.add_argument("--stderr", action="store_true", help="attach a plug-in standard error")
    est.add_argument("--out", help="write JSON here instead of stdout")
    est.set_defaults(func=cmd_estimate)

    exp = sub.add_parser("experiment", help="run a replicated experiment from JSON config")
    exp.add_argument("config", help="experiment config (JSON, schema 1)")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--workers", type=int, help="parallel workers (output-invariant)")
    exp.set_defaults(func=cmd_experiment)

    chk = sub.add_parser("check", help="print block-scheme advisories for a config")
    chk.add_argument("config", help="experiment config (JSON, schema 1)")
    chk.set_defaults(func=cmd_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return USAGE_ERROR
    except (InvalidThresholdError, WindowError, SchemeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NoExceedancesError as exc:
        sys.stdout.write(
            json.dumps({"error": "no_exceedances", "n": exc.n, "u": exc.u}) + "\n"
        )
        return DATA_ERROR
    except (HarnessAbort, InsufficientEventsError, InsufficientBlocksError,
            InsufficientSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ExindexError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
