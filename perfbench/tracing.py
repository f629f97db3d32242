"""In-memory spans around calls into the layers of exindex.

A span is one call into a layer: its name (``<layer>.<function>[.<tag>]``,
where the layer is the module the function lives in), its start and end on
``time.perf_counter``, the span that was open when it started, and a trace
id that every span of one replicate or one request shares.  Spans stay in
memory; ``Tracer.dump`` writes them out once, when the benchmark ends.

``instrumented`` installs the spans without editing the package: it swaps
the functions that one layer imports from another for traced wrappers, in
the namespace of the calling module, and restores the originals on exit.
The calls covered are the cross-layer calls on the benchmark's paths, plus
the per-replicate, summary and write steps inside ``harness``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# span record fields
NAME, START, END, PARENT, TRACE = range(5)


class Tracer:
    """Collects spans for one workload section of the traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._traces = 0

    def _open(self, name: str, new_trace: bool) -> int:
        parent = self._stack[-1] if self._stack else -1
        if new_trace or parent < 0:
            self._traces += 1
            trace = self._traces
        else:
            trace = self.spans[parent][TRACE]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, trace])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        index = self._open(name, new_trace)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str, tag=None, new_trace: bool = False):
        """``fn`` with a span around every call; ``tag(*args, **kw)`` names it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if tag is None else f"{name}.{tag(*args, **kwargs)}"
            index = self._open(label, new_trace)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def layer_self_time(self, layer: str) -> float:
        return sum(
            t for s, t in zip(self.spans, self.self_times())
            if s[NAME].split(".", 1)[0] == layer
        )

    def child_coverage(self, unit) -> float:
        """Share of the time of the spans selected by ``unit(name)`` that
        their child spans cover."""
        total = covered = 0.0
        units = set()
        for i, s in enumerate(self.spans):
            if unit(s[NAME]):
                units.add(i)
                total += s[END] - s[START]
        for s in self.spans:
            if s[PARENT] in units:
                covered += s[END] - s[START]
        return covered / total

    def records(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "trace": s[TRACE]}
            for s in self.spans
        ]


def span_cost(calls: int = 20_000, batches: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op against the bare one,
    median over batches."""

    def noop():
        return None

    costs = []
    for _ in range(batches):
        traced = Tracer().wrap(noop, "calibration")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - bare) / calls)
    return sorted(costs)[batches // 2]


def dump(path: str, sections: dict[str, Tracer]) -> None:
    with open(path, "w") as fh:
        json.dump({name: t.records() for name, t in sections.items()}, fh)


def _functional(g, *args, **kwargs) -> str:
    return g.name


def _mode(g, ns, scheme, mode) -> str:
    return mode


def _kind(spec, *args, **kwargs) -> str:
    return spec.kind


@contextmanager
def instrumented(tracer: Tracer):
    """Trace the cross-layer calls of exindex while the block runs."""
    from exindex import blocks, cli, estimators, harness, variance

    patches = [
        # callers of models
        (harness, "simulate", "models.simulate", None, False),
        (harness, "count_variance_limit", "models.count_variance_limit", None, False),
        (cli, "simulate", "models.simulate", None, False),
        # callers of blocks (the two methods are shared by every caller)
        (blocks.NormalizedSeries, "__init__", "blocks.normalize", None, False),
        (blocks.ThresholdSpec, "resolve", "blocks.threshold_resolve", _kind, False),
        (blocks, "as_series", "blocks.as_series", None, False),
        (estimators, "as_series", "blocks.as_series", None, False),
        (variance, "as_series", "blocks.as_series", None, False),
        (estimators, "sliding_window_max", "blocks.sliding_window_max", None, False),
        (estimators, "sliding_block_sum", "blocks.sliding_block_sum", _functional, False),
        (estimators, "disjoint_block_sum", "blocks.disjoint_block_sum", _functional, False),
        (harness, "sliding_block_sum", "blocks.sliding_block_sum", _functional, False),
        (harness, "disjoint_block_sum", "blocks.disjoint_block_sum", _functional, False),
        (variance, "big_block_sums", "blocks.big_block_sums", _mode, False),
        # callers of estimators
        (harness, "theta_disjoint", "estimators.disjoint", None, False),
        (harness, "theta_sliding", "estimators.sliding", None, False),
        (harness, "theta_runs", "estimators.runs", None, False),
        (harness, "theta_sliding_random_u", "estimators.sliding_random_u", None, False),
        (cli, "theta_sliding_random_u", "estimators.sliding_random_u", None, False),
        (cli._ESTIMATORS, "disjoint", "estimators.disjoint", None, False),
        (cli._ESTIMATORS, "sliding", "estimators.sliding", None, False),
        (cli._ESTIMATORS, "runs", "estimators.runs", None, False),
        (variance, "ratio_estimate", "estimators.ratio_estimate", _functional, False),
        # callers of variance
        (harness, "sliding_sum_variance", "variance.sliding_sum_variance", _functional, False),
        (harness, "disjoint_sum_variance", "variance.disjoint_sum_variance", _functional, False),
        (harness, "plugin_asymptotic_variance", "variance.plugin_asymptotic_variance", None, False),
        (cli, "count_second_moment", "variance.count_second_moment", None, False),
        # steps inside harness: one trace id per replicate
        (harness, "_replicate", "harness.replicate", None, True),
        (harness, "summarize", "harness.summarize", None, False),
        (harness, "loewner_check", "harness.loewner_check", None, False),
        (harness.ExperimentResult, "write", "harness.write", None, False),
    ]
    saved = []
    try:
        for owner, attr, name, tag, new_trace in patches:
            get, put = _accessors(owner, attr)
            original = get()
            put(tracer.wrap(original, name, tag, new_trace))
            saved.append((put, original))
        yield tracer
    finally:
        for put, original in reversed(saved):
            put(original)


def _accessors(owner, attr):
    if isinstance(owner, dict):
        return (lambda: owner[attr]), (lambda value: owner.__setitem__(attr, value))
    return (lambda: getattr(owner, attr)), (lambda value: setattr(owner, attr, value))
