"""The benchmark's three workloads: inputs, timed operations, output checks.

A workload builds its inputs from a seed, warms up on small inputs (so
that lazy imports and first-call costs stay out of the timings) and then
runs passes.  A pass is
a fixed list of operations, each one call a user makes: one experiment,
one profile, one CLI command or one report.  An operation fails when it
raises or when its output check fails; checks run after the clock stops.

Everything here goes through the public functions of exindex and the
``exindex`` command line (``exindex.cli.main``, called in-process so that
interpreter start-up stays in ``setup_s``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import time
from contextlib import nullcontext

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from exindex import (
    BLOCK_MAX,
    BlockFunctional,
    BlockScheme,
    ExperimentConfig,
    ModelSpec,
    ThresholdSpec,
    conditional_exceedance_profile,
    count_variance_limit,
    default_block_length,
    run_experiment,
    simulate,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
    variance_report,
)
from exindex import cli

REFERENCE_SEEDS = {"experiment": 2, "crosscheck": 5, "series": 7}


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def median(values) -> float:
    return float(np.median(values))


class Ledger:
    """Times operations, counts attempts and failures, and sums each pass."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.walls: dict[str, list[float]] = {}
        self.pass_walls: list[float] = []
        self.attempted = 0
        self.failed = 0

    def layer(self, fn, name: str, tag=None):
        """``fn`` as the benchmark calls it: traced when this ledger traces."""
        return fn if self.tracer is None else self.tracer.wrap(fn, name, tag)

    def begin_pass(self) -> None:
        self.pass_walls.append(0.0)

    def run(self, name: str, fn, check):
        """Time ``fn()``, then check its output; None when it failed."""
        self.attempted += 1
        span = self.tracer.span(f"bench.{name}") if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = fn()
        except Exception as exc:  # an operation that raises counts as failed
            return self._fail(name, f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        self.walls.setdefault(name, []).append(wall)
        self.pass_walls[-1] += wall
        try:
            check(out)
        except CheckFailed as exc:
            return self._fail(name, str(exc))
        except Exception as exc:  # e.g. an output file that is missing
            return self._fail(name, f"check raised {type(exc).__name__}: {exc}")
        return out

    def _fail(self, name: str, why: str):
        self.failed += 1
        print(f"FAILED {name}: {why}", file=sys.stderr, flush=True)
        return None


# --------------------------------------------------------------------------
# experiment: the acceptance config through run_experiment, 1 and 2 workers

ACCEPTANCE = {
    "schema": 1,
    "model": {"family": "armax", "alpha": 0.5},
    "n": 50000,
    "threshold": {"kind": "rank", "k": 1000},
    "s": 8,
    "r": 32,
    "replicates": 500,
}
OUTPUT_FILES = ("rows.csv", "stats.csv", "summary.json", "effective_config.json")
#: SHA-256 of the acceptance config's outputs at seed 2, for any worker count.
REFERENCE_HASHES = {
    "rows.csv": "4aa2caf0541b5bedb548e137691c2b370824efe5f48f1284f1679bf6bae63ede",
    "stats.csv": "f7f569a0ae5f71cc7b2c264c88e4bd6bde6e1a2d8054d8ed864fdba7103b374e",
    "summary.json": "94c6c5019fd9f63dd8f976b455eea8fd6866cdbb0a224c2ec5cf1e13f6a953d7",
    "effective_config.json": "43b7d6f1fa37d1d822759d656e917f6e0cad443033c14b52513b8979883f91ea",
}


def _digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Experiment:
    name = "experiment"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.configs = {
            w: ExperimentConfig.from_dict({**ACCEPTANCE, "seed": seed, "workers": w})
            for w in (1, 2)
        }
        self.expected = REFERENCE_HASHES if seed == REFERENCE_SEEDS[self.name] else None
        self.results = {}

    def warm_up(self) -> None:
        small = dataclasses.replace(self.configs[1], replicates=4)
        run_experiment(small)

    def run_pass(self, ledger: Ledger) -> None:
        # spans recorded inside pool workers would be lost, so a traced
        # pass runs the in-process workers=1 experiment only
        workers = (1,) if ledger.tracer else (1, 2)
        ledger.begin_pass()
        digests = {}
        run = ledger.layer(run_experiment, "harness.run_experiment")
        for w in workers:
            out = os.path.join(self.workdir, f"experiment-w{w}")
            shutil.rmtree(out, ignore_errors=True)
            result = ledger.run(
                f"experiment.w{w}",
                lambda: run(self.configs[w], out_dir=out),
                lambda _: self._check(out, w, digests),
            )
            if result is not None:
                self.results[w] = result

    def _check(self, out_dir: str, workers: int, digests: dict) -> None:
        digests[workers] = got = _digests(out_dir)
        if self.expected is not None:
            bad = sorted(f for f in OUTPUT_FILES if got[f] != self.expected[f])
            _require(not bad, f"workers={workers}: reference hash mismatch in {bad}")
        if workers != 1 and 1 in digests:
            _require(got == digests[1], f"workers={workers} bytes differ from workers=1")

    def report(self, ledger: Ledger) -> dict:
        reps = self.configs[1].replicates
        return {
            "replicates_per_s": (reps / median(ledger.walls["experiment.w1"]), "1/s"),
            "replicates_per_s_w2": (reps / median(ledger.walls["experiment.w2"]), "1/s"),
        }

    def layer_metrics(self, tracer, untraced: Ledger, traced: Ledger) -> dict:
        """Per-layer metrics as (value, unit) pairs."""
        reps = self.configs[1].replicates
        result = self.results[1]

        def ms(name):
            return 1e3 * median(tracer.durations(name)), "ms"

        out = {
            "blocks.threshold_rank_ms": ms("blocks.threshold_resolve.rank"),
            "blocks.normalize_ms": ms("blocks.normalize"),
            "blocks.exceedances_per_replicate": (float(np.mean(
                [round(r.v_hat * self.configs[1].n) for r in result.rows
                 if r.method == "disjoint"]
            )), "count"),
            "blocks.as_series_calls_per_replicate":
                (len(tracer.durations("blocks.as_series")) / reps, "count"),
            "harness.replicate_ms.p50": ms("harness.replicate"),
            "harness.replicate_ms.p98":
                (1e3 * float(np.percentile(tracer.durations("harness.replicate"), 98)), "ms"),
            "harness.summarize_ms": ms("harness.summarize"),
            "harness.loewner_check_ms": ms("harness.loewner_check"),
            "harness.write_ms": ms("harness.write"),
            "harness.rows_failed": (result.summary["rows_failed"], "count"),
            "harness.w2_efficiency": (untraced.walls["experiment.w1"][0]
                / (2.0 * untraced.walls["experiment.w2"][0]), "ratio"),
            "trace.overhead_ratio.experiment":
                (traced.walls["experiment.w1"][0] / untraced.walls["experiment.w1"][0], "ratio"),
            "trace.coverage.experiment":
                (tracer.child_coverage(lambda name: name == "harness.replicate"), "ratio"),
        }
        for g in ("block_max", "first_exceed"):
            out[f"blocks.sliding_block_sum_ms.{g}"] = ms(f"blocks.sliding_block_sum.{g}")
            out[f"blocks.disjoint_block_sum_ms.{g}"] = ms(f"blocks.disjoint_block_sum.{g}")
            out[f"variance.sliding_sum_variance_ms.{g}"] = ms(f"variance.sliding_sum_variance.{g}")
            out[f"variance.disjoint_sum_variance_ms.{g}"] = ms(f"variance.disjoint_sum_variance.{g}")
        for mode in ("sliding", "disjoint"):
            out[f"blocks.big_block_sums_ms.{mode}"] = ms(f"blocks.big_block_sums.{mode}")
        for m in ("disjoint", "sliding", "runs", "sliding_random_u"):
            out[f"estimators.{m}_ms.experiment"] = ms(f"estimators.{m}")
        for layer in ("models", "blocks", "estimators", "variance", "harness"):
            out[f"{layer}.self_s.experiment"] = (tracer.layer_self_time(layer), "s")
        return out


# --------------------------------------------------------------------------
# crosscheck: acceptance criterion 06's conditional exceedance profiles

FAMILIES = (
    ("armax", ModelSpec.armax(0.5), 8),
    ("moving_max", ModelSpec.moving_max(1), 4),
    ("iid_frechet", ModelSpec.iid(), 4),
)
QUANTILE = 0.999
#: Criterion 06 uses 200 000 events per family (about 18 s for the three);
#: a quarter of that keeps a pass near 4.5 s.  Fewer events make the bound
#: flaky: se then comes from a dozen 1M-point batches, and its 2*k_max*v
#: allowance shrinks against 3*se (12 500 events failed one seed in ~35).
TARGET_EVENTS = 50_000
#: Path length for the per-family simulate() timing of the traced run.
PROBE_POINTS = 4_000_000


class Crosscheck:
    name = "crosscheck"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.c_true = {name: count_variance_limit(spec) for name, spec, _ in FAMILIES}
        self.profiles = {}

    def warm_up(self) -> None:
        for _, spec, k_max in FAMILIES:
            conditional_exceedance_profile(spec, k_max, QUANTILE, 1000, seed=self.seed)

    def run_pass(self, ledger: Ledger) -> None:
        ledger.begin_pass()
        for name, spec, k_max in FAMILIES:
            profile = ledger.layer(
                conditional_exceedance_profile,
                f"models.conditional_exceedance_profile.{name}",
            )
            prof = ledger.run(
                f"crosscheck.{name}",
                lambda: profile(spec, k_max, QUANTILE, TARGET_EVENTS, seed=self.seed),
                lambda p: self._check(name, k_max, p),
            )
            if prof is not None:
                self.profiles[name] = prof

    def _check(self, name: str, k_max: int, prof) -> None:
        c_hat, se = prof.count_variance_estimate()
        tol = 3 * se + 2 * k_max * (1.0 - QUANTILE)
        _require(
            math.isfinite(c_hat) and abs(c_hat - self.c_true[name]) <= tol,
            f"{name}: |c_hat - c| = |{c_hat} - {self.c_true[name]}| > {tol}",
        )

    def points(self) -> int:
        return sum(p.n_points for p in self.profiles.values())

    def report(self, ledger: Ledger) -> dict:
        return {"mpoints_per_s": (self.points() / 1e6 / median(ledger.pass_walls), "Mpoints/s")}

    def layer_metrics(self, tracer, untraced: Ledger, traced: Ledger) -> dict:
        """Per-layer metrics as (value, unit) pairs."""
        out = {}
        for name, _, _ in FAMILIES:
            (wall,) = tracer.durations(f"models.conditional_exceedance_profile.{name}")
            out[f"models.profile_ns_per_point.{name}"] = (
                1e9 * wall / self.profiles[name].n_points, "ns/point")
            out[f"models.profile_events.{name}"] = (self.profiles[name].n_events, "count")
        out["trace.overhead_ratio.crosscheck"] = (
            traced.pass_walls[0] / untraced.pass_walls[0], "ratio")
        out["trace.coverage.crosscheck"] = (
            tracer.child_coverage(lambda n: n.startswith("bench.")), "ratio")
        out["models.self_s.crosscheck"] = (tracer.layer_self_time("models"), "s")
        # simulate() alone, for the gap to the profiles: median of three paths,
        # traced after the self time above was taken
        for name, spec, _ in FAMILIES:
            sim = tracer.wrap(simulate, f"models.simulate.{name}")
            for i in range(3):
                sim(spec, PROBE_POINTS, (self.seed, i))
            wall = median(tracer.durations(f"models.simulate.{name}"))
            out[f"models.simulate_ns_per_point.{name}"] = (1e9 * wall / PROBE_POINTS, "ns/point")
        return out


# --------------------------------------------------------------------------
# series: one long observed series through the CLI, plus variance reports

SERIES_POINTS = 1_000_000
SERIES_RANK_K = 20_000
REPORT_POINTS = 50_000
REPORT_RANK_K = 1000
REPORT_S, REPORT_R = 8, 32


def excess_mass(w: np.ndarray) -> float:
    """Total excess above the threshold in a normalized window (demo 01)."""
    return float(np.sum(w[w > 1] - 1.0))


def _excess_mass_xi(x: np.ndarray, u: float, s: int) -> float:
    """Sliding ratio estimate of excess_mass, vectorized over windows."""
    norm = np.where(x > u, x / u, 0.0)
    windows = sliding_window_view(norm, s)
    total = float(np.where(windows > 1.0, windows - 1.0, 0.0).sum())
    den = int(np.count_nonzero(x[: x.size - s + 1] > u))
    return total / s / den


class Series:
    name = "series"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.csv = os.path.join(workdir, "series.csv")
        self.estimate_json = os.path.join(workdir, "estimate.json")
        self.path = simulate(ModelSpec.armax(0.5), SERIES_POINTS, seed)
        self.head = self.path[:REPORT_POINTS]
        self.u = ThresholdSpec.rank(REPORT_RANK_K).resolve(self.head).u
        self.scheme = BlockScheme(REPORT_POINTS, REPORT_S, REPORT_R)
        self.simulate_argv = [
            "simulate", "--model", "armax", "--alpha", "0.5",
            "--n", str(SERIES_POINTS), "--seed", str(seed), "--out", self.csv,
        ]
        self.estimate_argv = [
            "estimate", self.csv, "--rank-k", str(SERIES_RANK_K),
            "--method", "all", "--stderr", "--out", self.estimate_json,
        ]
        self._expected_estimates = None
        self._csv_digest = None
        self.generic_calls = 0
        self.csv_bytes = 0

    def warm_up(self) -> None:
        small = self.csv + ".warm"
        cli.main(["simulate", "--model", "armax", "--alpha", "0.5", "--n", "20000",
                  "--seed", str(self.seed), "--out", small])
        cli.main(["estimate", small, "--rank-k", "400", "--method", "all", "--stderr",
                  "--out", self.estimate_json])
        for g in (self._functional(counting=False), BLOCK_MAX):
            variance_report(g, self.head[:5000], self.u, BlockScheme(5000, REPORT_S, REPORT_R))

    def _functional(self, counting: bool) -> BlockFunctional:
        if not counting:
            return BlockFunctional("excess_mass", excess_mass)

        def counted(w):
            self.generic_calls += 1
            return excess_mass(w)

        return BlockFunctional("excess_mass", counted)

    def run_pass(self, ledger: Ledger) -> None:
        ledger.begin_pass()
        main = ledger.layer(cli.main, "cli", lambda argv: argv[0])
        ledger.run("series.simulate", lambda: main(self.simulate_argv), self._check_csv)
        ledger.run("series.estimate", lambda: main(self.estimate_argv), self._check_estimate)
        report = ledger.layer(variance_report, "variance.variance_report", lambda g, *a: g.name)
        g = self._functional(counting=ledger.tracer is not None)
        self.generic_calls = 0
        ledger.run(
            "series.report.excess_mass",
            lambda: report(g, self.head, self.u, self.scheme),
            self._check_excess_mass,
        )
        ledger.run(
            "series.report.block_max",
            lambda: report(BLOCK_MAX, self.head, self.u, self.scheme),
            self._check_block_max,
        )

    def _check_csv(self, code: int) -> None:
        _require(code == 0, f"exindex simulate exited {code}")
        # stream the file, so that the check adds little to peak_rss_mb
        digest = hashlib.sha256()
        with open(self.csv, "rb") as fh:
            head = fh.readline()
            digest.update(head)
            tail = head[-1:]
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
                tail = block[-1:]
        self.csv_bytes = os.path.getsize(self.csv)
        if digest.digest() == self._csv_digest:  # the same bytes already parsed back
            return
        _require(head == b"x\n" and tail == b"\n", "CSV header or line ending is wrong")
        values = np.loadtxt(self.csv, dtype=np.float64, skiprows=1)
        _require(np.array_equal(values, self.path), "CSV does not parse back to simulate()")
        self._csv_digest = digest.digest()

    def _expected(self) -> list[dict]:
        """What the public estimator functions return on the simulated path."""
        if self._expected_estimates is None:
            x, k = self.path, SERIES_RANK_K
            s = default_block_length(x.size, k)
            u = ThresholdSpec.rank(k).resolve(x).u
            ests = [
                theta_disjoint(x, u, s, denominator="full"),
                theta_sliding_random_u(x, k, s),
                theta_runs(x, u, s, denominator="full"),
            ]
            self._expected_estimates = [
                {"method": e.method, "theta_hat": e.theta_hat, "u_used": e.u_used,
                 "s": e.s, "n": e.n, "n_exceed": e.n_exceed}
                for e in ests
            ]
        return self._expected_estimates

    def _check_estimate(self, code: int) -> None:
        _require(code == 0, f"exindex estimate exited {code}")
        with open(self.estimate_json) as fh:
            got = json.load(fh)["estimates"]
        want = self._expected()
        _require(len(got) == len(want), f"expected {len(want)} estimates, got {len(got)}")
        for g, w in zip(got, want):
            for key, value in w.items():
                _require(g[key] == value, f"{w['method']}.{key}: CLI {g[key]!r} != {value!r}")
            se = g.get("stderr_hat")
            _require(se is not None and math.isfinite(se) and se > 0,
                     f"{w['method']}: bad stderr_hat {se!r}")

    @staticmethod
    def _check_finite(rep) -> None:
        for key in ("sliding_var", "disjoint_var", "count_moment", "sliding_count_cov",
                    "disjoint_count_cov", "xi", "ratio_sliding_var", "ratio_disjoint_var"):
            _require(math.isfinite(getattr(rep, key)), f"{rep.functional}.{key} is not finite")

    def _check_excess_mass(self, rep) -> None:
        self._check_finite(rep)
        want = _excess_mass_xi(self.head, self.u, REPORT_S)
        # the vectorized sum adds in another order: equal to rounding only
        _require(math.isclose(rep.xi, want, rel_tol=1e-12), f"excess_mass xi {rep.xi} != {want}")

    def _check_block_max(self, rep) -> None:
        self._check_finite(rep)
        want = theta_sliding(self.head, self.u, REPORT_S).theta_hat
        _require(rep.xi == want, f"block_max xi {rep.xi} != theta_sliding {want}")

    def report(self, ledger: Ledger) -> dict:
        return {
            "simulate_csv_s": (median(ledger.walls["series.simulate"]), "s"),
            "estimate_s": (median(ledger.walls["series.estimate"]), "s"),
            "custom_report_s": (median(ledger.walls["series.report.excess_mass"]), "s"),
        }

    def layer_metrics(self, tracer, untraced: Ledger, traced: Ledger) -> dict:
        """Per-layer metrics as (value, unit) pairs."""

        def ms(name):
            return 1e3 * median(tracer.durations(name)), "ms"

        spans, self_times = tracer.spans, tracer.self_times()
        (estimate,) = [i for i, s in enumerate(spans) if s[0] == "cli.estimate"]
        (cli_simulate,) = tracer.durations("cli.simulate")
        (model_simulate,) = tracer.durations("models.simulate")
        out = {
            "blocks.generic_sliding_sum_ms": ms("blocks.sliding_block_sum.excess_mass"),
            "blocks.generic_calls": (self.generic_calls, "count"),
            "variance.count_second_moment_ms": ms("variance.count_second_moment"),
            "variance.variance_report_ms.excess_mass": ms("variance.variance_report.excess_mass"),
            "variance.variance_report_ms.block_max": ms("variance.variance_report.block_max"),
            "cli.simulate_write_s": (cli_simulate - model_simulate, "s"),
            "cli.csv_bytes": (self.csv_bytes, "bytes"),
            "cli.estimate_read_s": (self_times[estimate], "s"),
            "trace.overhead_ratio.series": (traced.pass_walls[0] / untraced.pass_walls[0], "ratio"),
            "trace.coverage.series":
                (tracer.child_coverage(lambda n: n.startswith("bench.")), "ratio"),
        }
        for m in ("disjoint", "runs", "sliding_random_u"):
            out[f"estimators.{m}_ms.series"] = ms(f"estimators.{m}")
        for layer in ("cli", "models", "blocks", "estimators", "variance"):
            out[f"{layer}.self_s.series"] = (tracer.layer_self_time(layer), "s")
        return out


WORKLOADS = {w.name: w for w in (Experiment, Crosscheck, Series)}
