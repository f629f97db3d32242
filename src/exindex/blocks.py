"""Block statistics over threshold-normalized series.

This is the computational kernel the estimators and variance estimators
reuse.  A series is any finite 1-d float array.  Observations are
normalized against a threshold u as x/u where x > u and 0 otherwise, so a
block functional sees a window of zeros and values strictly greater than 1.

``NormalizedSeries`` is the exceedance index of a (series, threshold)
pair: the exceedance mask and its prefix counts, built once.  Every
built-in indicator functional reads its per-window values off these
counts in O(n), whatever the block length; any other functional is
evaluated only on the windows that hold an exceedance.

Window sums come in two flavours: sliding (every start index) and disjoint
(starts at multiples of the block length).  Big blocks group r consecutive
indices; per-big-block sums are the raw material for the pre-asymptotic
variance estimators.

All functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InsufficientBlocksError,
    InvalidThresholdError,
    SchemeError,
    WindowError,
)

__all__ = [
    "as_series",
    "ThresholdSpec",
    "BlockScheme",
    "BlockFunctional",
    "NormalizedSeries",
    "BLOCK_MAX",
    "FIRST_EXCEED",
    "RUNS",
    "BUILTIN_FUNCTIONALS",
    "normalize",
    "scheme_advisories",
    "sliding_window_max",
    "sliding_block_sum",
    "disjoint_block_sum",
    "big_block_sums",
    "window_values",
]


def as_series(values) -> np.ndarray:
    """Validate and freeze raw observations.

    Returns a read-only float64 1-d array of length >= 1 with all entries
    finite.  A copy is made, so later mutation of the input cannot change
    results computed from the returned array.
    """
    x = np.array(values, dtype=np.float64, copy=True)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-d, got shape {x.shape}")
    if x.size < 1:
        raise ValueError("series must contain at least one observation")
    if not np.all(np.isfinite(x)):
        raise ValueError("series entries must all be finite")
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class ThresholdSpec:
    """A threshold level, either given directly or resolved from a rank.

    ``rank(k)`` resolves to the k-th largest order statistic of the series
    it is resolved against.  ``v_hat`` is the empirical exceedance rate
    #{i <= n : x_i > u}/n under strict exceedance; for a rank-k threshold
    on distinct values this equals (k-1)/n, because the k-th largest value
    itself does not strictly exceed the level.
    """

    kind: str  # "deterministic" | "rank"
    u: float | None = None
    k: int | None = None
    v_hat: float | None = None

    @staticmethod
    def deterministic(u: float) -> "ThresholdSpec":
        return ThresholdSpec(kind="deterministic", u=float(u))

    @staticmethod
    def rank(k: int) -> "ThresholdSpec":
        if k < 1:
            raise ValueError(f"rank k must be >= 1, got {k}")
        return ThresholdSpec(kind="rank", k=int(k))

    def resolve(self, values) -> "ThresholdSpec":
        """Resolve the level against a series and fill in ``v_hat``.

        For rank thresholds, ``u`` becomes the k-th largest order
        statistic; rank k must satisfy 1 <= k <= n.  ``values`` may be a
        prebuilt ``NormalizedSeries``; see ``NormalizedSeries.of``.
        """
        x = values.values if isinstance(values, NormalizedSeries) else as_series(values)
        n = x.size
        if self.kind == "rank":
            if not 1 <= self.k <= n:
                raise ValueError(f"rank k={self.k} out of range for n={n}")
            u = float(np.partition(x, n - self.k)[n - self.k])
        else:
            u = float(self.u)
        v_hat = float(np.count_nonzero(x > u)) / n
        return ThresholdSpec(self.kind, u=u, k=self.k, v_hat=v_hat)


@dataclass(frozen=True)
class BlockScheme:
    """Sample size n, block length s, big-block length r, and count m.

    m = floor((n - s + 1) / r) is always derived, never stored.  The
    variance-comparison results additionally require r to be a multiple of
    s; ``require_divisible`` enforces that where needed.
    """

    n: int
    s: int
    r: int

    def __post_init__(self) -> None:
        if not 1 <= self.s <= self.r <= self.n:
            raise SchemeError(
                f"need 1 <= s <= r <= n, got s={self.s}, r={self.r}, n={self.n}"
            )

    @property
    def m(self) -> int:
        return (self.n - self.s + 1) // self.r

    def require_divisible(self) -> None:
        if self.r % self.s != 0:
            raise SchemeError(
                f"big-block length r={self.r} must be a multiple of s={self.s}"
            )


def scheme_advisories(n: int, s: int, r: int, v_hat: float) -> list[tuple[str, str, float]]:
    """Finite-sample health checks on the block-scheme orders.

    Returns (level, message, value) triples with level in
    {"green", "yellow", "red"}.  Advisory only, and deliberately usable
    on inconsistent (s, r) combinations: the asymptotic theory needs
    s*v -> 0, r*v -> 0, r = o(sqrt(n*v)) and (for the variance
    comparison) r divisible by s; these bands are pragmatic defaults for
    judging a single finite configuration.
    """
    out = []
    sv = s * v_hat
    out.append(("green" if sv < 0.5 else "yellow", f"s*v_hat = {sv:.4g} (want small)", sv))
    rv = r * v_hat
    out.append(("green" if rv < 1.0 else "yellow", f"r*v_hat = {rv:.4g} (want small)", rv))
    root = np.sqrt(n * v_hat) if v_hat > 0 else np.inf
    ratio = r / root if root > 0 else np.inf
    out.append(
        (
            "green" if ratio <= 2.0 else "yellow",
            f"r / sqrt(n*v_hat) = {ratio:.4g} (want <= 2)",
            float(ratio),
        )
    )
    if s >= r:
        out.append(("red", f"s={s} >= r={r}: small/big block ordering broken", 0.0))
    elif r % s != 0:
        out.append(
            (
                "yellow",
                f"r={r} not a multiple of s={s}: "
                "the sliding-vs-disjoint variance comparison requires r/s to be an integer",
                float(r % s),
            )
        )
    else:
        out.append(("green", f"r mod s = 0 (r/s = {r // s})", 0.0))
    return out


@dataclass(frozen=True)
class BlockFunctional:
    """A named map from a normalized block to a real number.

    ``func`` receives a 1-d array of normalized values (zeros and values
    > 1) and must return 0.0 on an all-zero block: ``window_values``
    checks this once and then evaluates ``func`` only on the windows that
    hold an exceedance.  ``scale`` is the normalizing constant a > 0
    applied by the ratio statistics.
    """

    name: str
    func: Callable[[np.ndarray], float]
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def __call__(self, window: np.ndarray) -> float:
        return float(self.func(np.asarray(window, dtype=np.float64)))


def _block_max_func(x: np.ndarray) -> float:
    return 1.0 if x.size and np.max(x) > 1.0 else 0.0


def _first_exceed_func(x: np.ndarray) -> float:
    return 1.0 if x.size and x[0] > 1.0 else 0.0


def _runs_func(x: np.ndarray) -> float:
    if x.size == 0 or x[0] <= 1.0:
        return 0.0
    return 1.0 if np.max(x[1:], initial=0.0) <= 1.0 else 0.0


#: 1 if any entry of the block exceeds the threshold.
BLOCK_MAX = BlockFunctional("block_max", _block_max_func)

#: 1 if the first entry of the block exceeds the threshold.
FIRST_EXCEED = BlockFunctional("first_exceed", _first_exceed_func)

#: 1 if the first entry exceeds and no later entry of the block does
#: (the declustering indicator behind the runs estimator).
RUNS = BlockFunctional("runs", _runs_func)

BUILTIN_FUNCTIONALS = {f.name: f for f in (BLOCK_MAX, FIRST_EXCEED, RUNS)}


class NormalizedSeries:
    """A series together with a resolved threshold: its exceedance index.

    ``exceed_mask()[i]`` is x_i > u and ``counts[i]`` the number of
    exceedances among the first i observations (length n+1,
    ``counts[0] == 0``), so the exceedances in any stretch i..j-1 are
    ``counts[j] - counts[i]``.  Both are built once, read-only.
    Normalized values (x/u where x > u, else 0) are computed on demand for
    generic functionals.

    ``values`` may itself be a ``NormalizedSeries``; see ``of``.
    """

    def __init__(self, values, u: float):
        if isinstance(values, NormalizedSeries):
            self.values = values.values
        else:
            self.values = as_series(values)
        u = float(u)
        if not math.isfinite(u):
            raise InvalidThresholdError(f"threshold u={u} must be finite")
        if u <= 0 and np.any(self.values > 0):
            raise InvalidThresholdError(
                f"threshold u={u} must be positive when the series has positive entries"
            )
        self.u = u
        self.n = self.values.size
        self._mask = self.values > u
        # int64 prefix sums of the mask: a bool->int64 cumsum casts element
        # by element, so copy the mask into the counts and accumulate in place
        self.counts = np.zeros(self.n + 1, dtype=np.int64)
        self.counts[1:] = self._mask
        np.add.accumulate(self.counts, out=self.counts)
        self._mask.setflags(write=False)
        self.counts.setflags(write=False)

    @classmethod
    def of(cls, values, u: float) -> "NormalizedSeries":
        """The exceedance index of (values, u), reusing what ``values`` holds.

        Every public function that takes ``values`` follows this rule, so
        callers that run several statistics on one (series, u) build the
        index once and pass it to each.  An index built at the same level
        (exact float equality) is returned as it is; an index built at
        another level lends its validated, read-only series to a new index
        (no copy); raw values are validated and copied.
        """
        if isinstance(values, cls) and values.u == u:
            return values
        return cls(values, u)

    def exceed_mask(self) -> np.ndarray:
        """Boolean array: strict exceedances of the threshold (read-only)."""
        return self._mask

    def normalized(self) -> np.ndarray:
        """The full normalized array."""
        return np.where(self._mask, self.values / self.u, 0.0)


def normalize(values, thr: ThresholdSpec) -> NormalizedSeries:
    """Attach a resolved threshold to a series.

    Resolves ``thr`` against the data if it is not already resolved.
    Element i of the result is x_i/u when x_i > u and 0 otherwise.
    """
    if thr.u is None:
        thr = thr.resolve(values)
    return NormalizedSeries.of(values, thr.u)


def sliding_window_max(x: np.ndarray, s: int) -> np.ndarray:
    """Maxima over all windows of length s: out[i] = max(x[i:i+s]).

    O(n) via per-block prefix/suffix maxima (the vectorized equivalent of
    a monotone-deque sliding max), so overlapping windows do not cost
    O(n*s).  A standalone helper: the block kernels read the exceedance
    index instead.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if not 1 <= s <= n:
        raise WindowError(f"window length s={s} does not fit series of length {n}")
    if s == 1:
        return x.copy()
    pad = (-n) % s
    xp = np.concatenate([x, np.full(pad, -np.inf)]) if pad else x
    blocks = xp.reshape(-1, s)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[: n - s + 1], prefix[s - 1 : n])


def window_values(g: BlockFunctional, ns: NormalizedSeries, s: int) -> np.ndarray:
    """g evaluated on every block start: out[i] = g(block starting at i+1).

    The built-ins are read off the exceedance index.  Any other g must
    vanish on a block with no exceedance (checked once, ``ValueError``
    otherwise), so it is evaluated only on the windows that hold one.
    """
    n = ns.n
    if not 1 <= s <= n:
        raise WindowError(f"block length s={s} does not fit series of length {n}")
    c, mask = ns.counts, ns.exceed_mask()
    if g == FIRST_EXCEED:
        return mask[: n - s + 1].astype(np.float64)
    if g == RUNS:
        return (mask[: n - s + 1] & (c[s:] == c[1 : n - s + 2])).astype(np.float64)
    hit = c[s:] > c[: n - s + 1]
    if g == BLOCK_MAX:
        return hit.astype(np.float64)
    if g(np.zeros(s)) != 0:
        raise ValueError(f"functional {g.name!r} must return 0 on a block with no exceedance")
    norm, out = ns.normalized(), np.zeros(n - s + 1)
    for i in np.flatnonzero(hit).tolist():
        out[i] = g(norm[i : i + s])
    return out


def sliding_block_sum(g: BlockFunctional, ns: NormalizedSeries, s: int) -> float:
    """Sum of g over all n-s+1 sliding blocks of length s."""
    return float(window_values(g, ns, s).sum())


def disjoint_block_sum(g: BlockFunctional, ns: NormalizedSeries, s: int) -> float:
    """Sum of g over the floor(n/s) disjoint blocks starting at 1, s+1, ...

    The last disjoint block always fits inside the series: its window ends
    at floor(n/s)*s <= n.
    """
    n = ns.n
    if not 1 <= s <= n:
        raise WindowError(f"block length s={s} does not fit series of length {n}")
    return float(window_values(g, ns, s)[: (n // s) * s : s].sum())


def big_block_sums(
    g: BlockFunctional, ns: NormalizedSeries, scheme: BlockScheme, mode: str
) -> np.ndarray:
    """Per-big-block inner sums of g, one value per big block.

    mode="sliding": block i sums g over window starts (i-1)r+1 .. i*r.
    mode="disjoint": block i sums g over the r/s disjoint starts
    (i-1)r+1, (i-1)r+s+1, ...; requires r divisible by s.
    """
    if scheme.n != ns.n:
        raise SchemeError(f"scheme n={scheme.n} does not match series length {ns.n}")
    m, r, s = scheme.m, scheme.r, scheme.s
    if m == 0:
        raise InsufficientBlocksError(
            f"no complete big block: n={scheme.n}, s={s}, r={r}"
        )
    if mode == "sliding":
        vals = window_values(g, ns, s)[: m * r]
        return vals.reshape(m, r).sum(axis=1)
    if mode == "disjoint":
        scheme.require_divisible()
        vals = window_values(g, ns, s)
        starts = np.arange(0, m * r, s)  # 0-based starts, r/s per big block
        return vals[starts].reshape(m, r // s).sum(axis=1)
    raise ValueError(f"mode must be 'sliding' or 'disjoint', got {mode!r}")
