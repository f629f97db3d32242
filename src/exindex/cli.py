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
import contextlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np

from .blocks import BlockScheme, NormalizedSeries, ThresholdSpec
from .errors import (
    ConfigError,
    ExindexError,
    InsufficientBlocksError,
    InvalidThresholdError,
    NoExceedancesError,
)
from .estimators import (
    default_big_block_length,
    default_block_length,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
)
from .harness import _MAX_N, METHODS, ExperimentConfig, run_experiment
from .models import ModelSpec, simulate
from .variance import count_second_moment

_CHUNK = 1 << 16  # values per formatted chunk of the simulate CSV


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised inside the block as a usage error on ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError([f"cannot write {path}: {exc}"]) from exc


def cmd_simulate(args) -> int:
    if not 1 <= args.n <= _MAX_N:  # refused before the path is allocated
        raise ConfigError([f"--n must be in 1..{_MAX_N}, got {args.n}"])
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
    with _writing(args.out), open(args.out, "w", newline="\n") as fh:
        fh.write("x\n")
        # one "%" format per chunk keeps a single chunk of text alive;
        # "%.17g" of a Python float writes what f"{v:.17g}" does
        for i in range(0, x.size, _CHUNK):
            part = x[i:i + _CHUNK].tolist()
            fh.write(("%.17g\n" * len(part)) % tuple(part))
    return 0


def _read_column(path: str) -> np.ndarray:
    """The values of a one-column CSV whose first line may be the header ``x``,
    as one read-only float64 array that owns its data.

    Blank lines are skipped, and every other line must hold one finite
    number as ``float()`` reads it.  One ``np.loadtxt`` call reads a
    well-formed file; it gives the bits ``float()`` gives.  Any file it
    refuses, reads as another shape or reads with a value that is not
    finite goes through the line loop, which alone words the errors, and
    so does a pipe, which cannot be rewound for the loop.
    """
    try:  # bytes that are not UTF-8 reach the loop as surrogates, to be named
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    with fh:
        if fh.seekable():
            skip = int(fh.readline().strip() == "x")
            fh.seek(0)
            try:  # an open handle: given a path, numpy would also unpack *.gz and fetch URLs
                with warnings.catch_warnings():  # an empty file warns, then falls back
                    warnings.simplefilter("ignore")
                    x = np.loadtxt(fh, dtype=np.float64, comments=None, skiprows=skip,
                                   ndmin=2)
                # split on whitespace, a row of two tokens is a second column
                if x.shape[0] >= 1 and x.shape[1] == 1 and np.isfinite(x).all():
                    return _frozen(x)
            except ValueError:  # what loadtxt cannot parse, the loop words
                pass
            fh.seek(0)
        vals = []
        for i, line in enumerate(fh):
            tok = line.strip()
            if not tok or (i == 0 and tok == "x"):
                continue
            try:
                v = float(tok)
            except ValueError as exc:
                raw = tok.encode(errors="surrogateescape")
                what = f"is not a number: {tok!r}"
                if raw != tok.encode(errors="replace"):  # only escaped bytes differ
                    what = f"is not UTF-8 text: {raw!r}"
                raise ConfigError([f"{path}: line {i + 1} {what}"]) from exc
            if not math.isfinite(v):
                raise ConfigError([f"{path}: line {i + 1} is not finite: {tok!r}"])
            vals.append(v)
    if not vals:
        raise ConfigError([f"{path}: no numeric rows"])
    return _frozen(np.asarray(vals, dtype=np.float64))


def _frozen(x: np.ndarray) -> np.ndarray:
    """``x``, which owns its data, as a read-only 1-d series in place: no copy,
    and ``blocks.as_series`` passes it through, so every estimator shares it."""
    x.resize(x.size)  # the same size, so in place; a reshape would return a view
    x.setflags(write=False)
    return x


_ESTIMATORS = {
    "disjoint": theta_disjoint,
    "sliding": theta_sliding,
    "runs": theta_runs,
}


def cmd_estimate(args) -> int:
    """Print each estimate's ``ThetaEstimate`` fields as one JSON row; ``--stderr``
    adds ``stderr_hat`` to every row, then ``--clip-unit`` clips ``theta_hat``."""
    x = _read_column(args.input)
    n, k = x.size, args.rank_k
    if (args.u is None) == (k is None):
        raise ConfigError(["exactly one of --u and --rank-k is required"])
    if k is not None and not 1 <= k <= n:
        raise ConfigError([f"--rank-k {k} out of range for n={n}"])
    s = args.s
    if s is None:
        if k is None:
            raise ConfigError(["--s is required with --u (no default block length)"])
        s = default_block_length(n, k)
    if not 1 <= s <= n:
        raise ConfigError([f"--s must lie in 1..n = 1..{n}, got {s}"])
    if args.r is not None and not s <= args.r <= n:
        raise ConfigError([f"--r must lie in s..n = {s}..{n}, got {args.r}"])
    methods = list(_ESTIMATORS) if args.method == "all" else [args.method]
    if "sliding_random_u" in methods and k is None:
        raise ConfigError(["--method sliding_random_u requires --rank-k"])

    # one series (frozen, so nothing copies it), one level and one
    # exceedance index, shared by every method; a rank level counts
    # exceedances over the whole series, so that with distinct values the
    # count is exactly k-1, and the sliding slot resolves it again off the
    # index without a partition
    if k is None:
        u, denominator = args.u, args.denominator
    else:
        u, denominator = ThresholdSpec.rank(k).resolve(x).u, "full"
    try:
        ns = NormalizedSeries(x, u)
    except InvalidThresholdError as exc:  # the estimators' own rule for u
        raise ConfigError([str(exc)]) from exc
    # with --rank-k the sliding slot is the random-threshold variant, so
    # "all" runs every estimator exactly once
    rows = [
        asdict(theta_sliding_random_u(ns, k, s) if k is not None and method.startswith("sliding")
               else _ESTIMATORS[method](ns, ns.u, s, denominator=denominator))
        for method in methods
    ]
    if args.stderr:  # one plug-in: every estimate has the same level and s
        v_hat = int(ns.count(n)) / n  # >= 1/n: each estimate divided by a count >= 1
        r = min(default_big_block_length(n, v_hat, s), n) if args.r is None else args.r
        try:
            c_hat = count_second_moment(ns, ns.u, BlockScheme(n, s, r))
        except InsufficientBlocksError:  # m = (n - s + 1) // r = 0
            print(f"note: no stderr_hat: r={r} leaves no complete big block (n={n}, s={s})",
                  file=sys.stderr)
        else:
            for row in rows:
                th = min(max(row["theta_hat"], 1.0 / n), 1.0)  # clamp into (0, 1]
                plug = max(th * (th * c_hat - 1.0), 0.0)
                row["stderr_hat"] = (plug / (n * v_hat)) ** 0.5
    if args.clip_unit:
        for row in rows:
            row["theta_hat"] = min(max(row["theta_hat"], 0.0), 1.0)

    payload = rows[0] if len(rows) == 1 else {"estimates": rows}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with _writing(args.out), open(args.out, "w", newline="\n") as fh:
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
        cfg = replace(cfg, workers=args.workers)
    made = not os.path.isdir(args.out)
    with _writing(args.out):  # refused before any replicate runs
        os.makedirs(args.out, exist_ok=True)
    try:
        result = run_experiment(cfg)
    except BaseException:
        if made:  # a run that stops leaves no directory behind
            os.rmdir(args.out)
        raise
    with _writing(args.out):
        result.write(args.out)
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
    print(f"n={cfg.n} k={cfg.k_rank} s={cfg.s_resolved} r={cfg.r_resolved} "
          f"v_nominal={cfg.v_nominal:.6g}")
    for level, message in cfg._advisories():
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
    est.add_argument("--method", default="sliding", choices=[*METHODS, "all"])
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
    except ExindexError as exc:
        if isinstance(exc, ConfigError):
            for problem in exc.problems:
                print(f"config error: {problem}", file=sys.stderr)
        elif isinstance(exc, NoExceedancesError):
            sys.stdout.write(
                json.dumps({"error": "no_exceedances", "n": exc.n, "u": exc.u}) + "\n"
            )
        else:
            internal = exc.exit_code == ExindexError.exit_code
            print(f"{'internal error' if internal else 'error'}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ExindexError.exit_code


if __name__ == "__main__":
    sys.exit(main())
