"""Benchmark of exindex on three workloads.

    python3 perfbench/run.py --workload {experiment,crosscheck,series}
        --seconds S [--seed N] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed.  Inputs come from the seed,
whose default is the workload's reference seed.

``--trace 0`` measures the end-to-end metrics with tracing off: it repeats
passes of the workload's operations for about ``--seconds`` seconds (give
``run_seconds`` of BENCHMARK.json, on which the bounds were measured) and
reports the median pass.  ``--trace 1`` is the separate traced run for the
per-layer metrics.  Each layer metric is defined on the workload that
reaches that layer, so the traced run makes one untraced and one traced
pass of every workload, whichever one is named; the name then only picks
the default seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, and a provenance record.  Spans
of the traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("experiment", "crosscheck", "series")
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 7

SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed}, {workdir!r})
sys.stdout.write(repr(time.perf_counter()))
"""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, help="input seed (default: the reference seed)")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of a --trace 0 run (run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(name: str, seed: int, workdir: str) -> float:
    """Fresh interpreter to inputs built: start, import exindex, build inputs."""
    code = SETUP_PROBE.format(src=SRC, here=HERE, name=name, seed=seed, workdir=workdir)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout) - start


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child
    (KiB on Linux); taken before any set-up probe runs."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seeds: dict) -> dict:
    import numpy
    import scipy

    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "exindex")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "seeds": seeds,
    }


def measure(name: str, seed: int, seconds: float, workdir: str):
    """End-to-end metrics of one workload, tracing off."""
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.warm_up()
    ledger = workloads.Ledger()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.run_pass(ledger)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    # the only children so far are the workload's own pool workers; the
    # set-up probes run after this reading, so that they stay out of it
    rss = peak_rss_mb()
    setups = sorted(setup_seconds(name, seed, workdir) for _ in range(SETUP_SAMPLES))
    metrics = {
        "setup_s": (setups[len(setups) // 2], "s"),
        "peak_rss_mb": (rss, "MB"),
        "pass_s": (workloads.median(ledger.pass_walls), "s"),
    }
    notes = dict(wl.report(ledger)) if ledger.failed == 0 else {}
    notes["passes"] = (len(ledger.pass_walls), "count")
    return ledger.attempted, ledger.failed, metrics, notes


def traced(seeds: dict, workdir: str):
    """Per-layer metrics: one untraced and one traced pass of every workload."""
    import workloads

    attempted = failed = 0
    metrics, sections = {}, {}
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](seeds[name], workdir)
        wl.warm_up()
        untraced = workloads.Ledger()
        wl.run_pass(untraced)
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            traced_ledger = workloads.Ledger(tracer)
            wl.run_pass(traced_ledger)
        sections[name] = tracer
        metrics[f"trace.spans.{name}"] = (len(tracer.spans), "count")
        attempted += untraced.attempted + traced_ledger.attempted
        failed += untraced.failed + traced_ledger.failed
        if untraced.failed or traced_ledger.failed:
            continue
        metrics.update(wl.layer_metrics(tracer, untraced, traced_ledger))
    metrics["trace.span_cost_us"] = (1e6 * tracing.span_cost(), "us")
    return attempted, failed, metrics, sections


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exindex", "__init__.py")):
        print(f"perfbench: no exindex package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import exindex

    if not os.path.abspath(exindex.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported exindex from {exindex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.seed is None:
        seeds = dict(workloads.REFERENCE_SEEDS)
    else:
        seeds = {name: args.seed for name in WORKLOAD_NAMES}
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            attempted, failed, metrics, sections = traced(seeds, workdir)
            notes = {}
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{seeds[args.workload]}.json")
            tracing.dump(spans, sections)
            print(f"spans: {spans}")
        else:
            seed = seeds[args.workload]
            seeds = {args.workload: seed}
            attempted, failed, metrics, notes = measure(args.workload, seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("provenance: " + json.dumps(provenance(seeds), sort_keys=True))
    print(f"failed_ratio: {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for name, (value, unit) in sorted({**notes, **metrics}.items()):
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
