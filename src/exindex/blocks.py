"""Block statistics over threshold-normalized series.

This is the computational kernel the estimators and variance estimators
reuse.  A series is any finite 1-d float array.  Observations are
normalized against a threshold u as x/u where x > u and 0 otherwise, so a
block functional sees a window of zeros and values strictly greater than 1.

``NormalizedSeries`` is the exceedance index of a (series, threshold)
pair: the sorted positions of its K exceedances and their values, built
once, from the series or from the exceedances alone.  Each functional is
kept in one form per block length: the sorted window starts where it may
be nonzero, read off these positions in O(K) whatever the block length
(at most min(K*s, n-s+1) of them), and its values there.  A built-in
indicator is 1 on its starts, so its sums count them; any other functional
is evaluated once per window that holds an exceedance, cut from the points
such windows cover, and its sums add those.  One range-union kernel,
``_cover``, gives those points, the ``BLOCK_MAX`` starts and the simulators' covers.

Window sums come in two flavours: sliding (every start index) and disjoint
(starts at multiples of the block length).  Big blocks group r consecutive
indices; per-big-block sums are the raw material for the pre-asymptotic
variance estimators.

All functions are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, ClassVar

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
    "scheme_advisories",
    "sliding_window_max",
    "sliding_block_sum",
    "disjoint_block_sum",
    "big_block_sums",
]


def as_series(values) -> np.ndarray:
    """Validate and freeze raw observations.

    Returns a read-only float64 1-d array of length >= 1 with all entries
    finite.  An array that is already such a series (a read-only float64
    1-d ``np.ndarray`` that owns its data) is checked and returned as it
    is, so a long series is held once; anything else is copied, a
    read-only view of a writable array included, so later mutation of the
    input cannot change results computed from the returned array.
    """
    x = values
    if not (type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1
            and x.base is None and not x.flags.writeable):
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
    """A rank threshold: the k-th largest order statistic of a series.

    ``rank(k)`` makes the spec and ``resolve`` fills in the level ``u``.
    Under strict exceedance a rank-k level leaves at most k-1 points above
    it, exactly k-1 on distinct values; the exceedance index
    ``NormalizedSeries(values, u)`` counts them.
    """

    kind: ClassVar[str] = "rank"
    k: int
    u: float | None = None

    @staticmethod
    def rank(k: int) -> "ThresholdSpec":
        return ThresholdSpec(k=_count(k, "rank k"))

    def resolve(self, values) -> "ThresholdSpec":
        """Resolve ``u`` to the k-th largest value; 1 <= k <= n is required.

        ``values`` may be a prebuilt ``NormalizedSeries``; see
        ``NormalizedSeries.of``.  An index with at least k exceedances
        holds the k largest values, so only those are partitioned.  On an
        index that holds the whole series, fewer than k exceedances and at
        least k values at or above its level make that level the k-th
        largest value, ties included, and nothing is partitioned.
        """
        ns = values if isinstance(values, NormalizedSeries) else None
        if (ns is not None and ns.values is not None and ns.positions.size < self.k <= ns.n
                and np.count_nonzero(ns.values == ns.u) >= self.k - ns.positions.size):
            return ThresholdSpec(self.k, ns.u)
        x = as_series(values) if ns is None else (
            ns.exceeding if ns.positions.size >= self.k else ns.values)
        n = x.size if ns is None else ns.n
        _count(self.k, "rank k", 1, n)
        if x is None:
            raise ValueError(f"rank k={self.k} needs the whole series, which an index built "
                             f"from its {ns.positions.size} exceedances lacks")
        return ThresholdSpec(self.k, float(np.partition(x, x.size - self.k)[x.size - self.k]))


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
        for name in ("n", "s", "r"):  # stored as ints; the range has its own message below
            object.__setattr__(self, name, _count(getattr(self, name), name, -math.inf,
                                                  error=SchemeError))
        if not 1 <= self.s <= self.r <= self.n:
            raise SchemeError(
                f"need 1 <= s <= r <= n, got s={self.s}, r={self.r}, n={self.n}"
            )

    @property
    def m(self) -> int:
        return (self.n - self.s + 1) // self.r

    def fit(self, n: int, blocks: int = 1) -> None:
        """Refuse a series of length n other than the scheme's (``SchemeError``),
        then fewer than ``blocks`` big blocks (``InsufficientBlocksError``)."""
        if self.n != n:
            raise SchemeError(f"scheme n={self.n} does not match series length {n}")
        if self.m < blocks:
            raise InsufficientBlocksError(f"m={self.m} big blocks (n={self.n}, s={self.s}, "
                                          f"r={self.r}), need at least {blocks}")

    def require_divisible(self) -> None:
        if self.r % self.s != 0:
            raise SchemeError(
                f"big-block length r={self.r} must be a multiple of s={self.s}"
            )


def scheme_advisories(n: int, s: int, r: int, v_hat: float) -> list[tuple[str, str]]:
    """Finite-sample health checks on the block-scheme orders.

    Returns (level, message) pairs with level in {"green", "yellow",
    "red"}.  Advisory only, and deliberately usable on inconsistent
    (s, r) combinations: the asymptotic theory needs s*v -> 0, r*v -> 0,
    r = o(sqrt(n*v)) and (for the variance comparison) r divisible by s;
    these bands are pragmatic defaults for judging a single finite
    configuration.
    """
    n, s, r = _count(n, "n"), _count(s, "block length s"), _count(r, "big-block length r")
    out = []
    sv = s * v_hat
    out.append(("green" if sv < 0.5 else "yellow", f"s*v_hat = {sv:.4g} (want small)"))
    rv = r * v_hat
    out.append(("green" if rv < 1.0 else "yellow", f"r*v_hat = {rv:.4g} (want small)"))
    root = math.sqrt(n * v_hat) if v_hat > 0 else math.inf
    ratio = r / root if root > 0 else np.inf
    out.append(("green" if ratio <= 2.0 else "yellow",
                f"r / sqrt(n*v_hat) = {ratio:.4g} (want <= 2)"))
    if s >= r:
        out.append(("red", f"s={s} >= r={r}: small/big block ordering broken"))
    elif r % s != 0:
        out.append(("yellow", f"r={r} not a multiple of s={s}: the sliding-vs-disjoint "
                    "variance comparison requires r/s to be an integer"))
    else:
        out.append(("green", f"r mod s = 0 (r/s = {r // s})"))
    return out


@dataclass(frozen=True)
class BlockFunctional:
    """A named map from a normalized block to a real number.

    ``func`` receives a 1-d array of normalized values (zeros and values
    > 1) and must return 0.0 on an all-zero block: the block sums check
    this once per series and block length, then evaluate ``func`` once on
    each window that holds an exceedance and keep only those values.  The
    statistics carry no normalizing constant: a caller with one divides a
    ratio by a, and a variance by a^2.
    """

    name: str
    func: Callable[[np.ndarray], float]

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

    ``positions`` holds the indices i with x_i > u in increasing order
    (int64, read-only, one entry per exceedance), ``exceeding`` their
    values x_i (read-only), and ``count(stop)`` the number of exceedances
    among the first ``stop`` observations, so the exceedances in any
    stretch i..j-1 are ``count(j) - count(i)``.

    It also keeps, per functional and block length, the starts where the
    functional may be nonzero (at most min(K*s, n-s+1) ints) and, for a
    custom functional, one value per start, once they are first built,
    keyed by the functional object (by identity, with a reference held:
    names may repeat, ``func`` need not hash).

    ``values`` may itself be a ``NormalizedSeries``; see ``of``.  At or
    above its level, its exceedances are filtered, not the n values.
    Given ``positions`` (zero or more strictly increasing integers in
    0..n-1, one per value, holding every point above u of a series of
    length ``n``; ``ValueError`` otherwise), ``values`` holds the values
    there alone; the whole series ``values`` is then None, and a level
    below u or a rank k past the exceedance count
    (``ThresholdSpec.resolve``) raises ``ValueError``.
    """

    def __init__(self, values, u: float, *, positions=None, n: int | None = None):
        ns = values if isinstance(values, NormalizedSeries) else None
        if positions is not None:
            self.values, self.n = None, _count(n, "series length n")
            p = np.asarray(positions)
            x = as_series(values) if np.size(values) else np.empty(0)  # as_series refuses none
            if p.shape != x.shape or p.size and (p.dtype.kind not in "iu" or p[0] < 0
                                                 or p[-1] >= self.n or np.any(p[1:] <= p[:-1])):
                raise ValueError(f"positions must be {x.size} strictly increasing integers "
                                 f"in 0..{self.n - 1}, one for each value")
            p = p.astype(np.int64, copy=False)
        elif ns is not None:
            self.values, self.n, p, x = ns.values, ns.n, ns.positions, ns.exceeding
        else:
            self.values = x = as_series(values)
            self.n, p = x.size, None
        if not (isinstance(u, numbers.Real) and math.isfinite(u)):  # an array is no level
            raise InvalidThresholdError(f"threshold u={u} must be finite")
        u = float(u)
        if ns is not None and u < ns.u:  # below its level only the whole series serves
            p, x = None, self.values
        if x is None:
            raise ValueError(f"threshold u={u} lies below the level u={ns.u} of an index "
                             "built from its exceedances")
        keep = x > u
        self.positions = np.flatnonzero(keep) if p is None else p[keep]
        self.exceeding = x[keep]
        if u <= 0 and np.any(self.exceeding > 0):  # every positive entry exceeds such a u
            raise InvalidThresholdError(
                f"threshold u={u} must be positive when the series has positive entries"
            )
        self.u = u
        self.positions.setflags(write=False)
        self.exceeding.setflags(write=False)
        self._kept = {}  # (id(g), s) -> (g, its read-only starts, its values there or None)

    @classmethod
    def of(cls, values, u: float) -> "NormalizedSeries":
        """The exceedance index of (values, u), reusing what ``values`` holds.

        Every public function that takes ``values`` follows this rule, so
        callers that run several statistics on one (series, u) build the
        index once and pass it to each.  An index built at the same level
        (exact float equality) is returned as it is; an index built at
        another level lends a new index its validated, read-only series,
        or at a level above its own its exceedances (no copy); raw values
        are validated and copied.
        """
        if isinstance(values, cls) and values.u == u:
            return values
        return cls(values, u)

    def count(self, stop):
        """Exceedances among the first ``stop`` observations (an int or an array)."""
        return np.searchsorted(self.positions, stop)


def _count(k, name: str, lo=1, hi=math.inf, error=ValueError) -> int:
    """``k`` as an int if it is an integer in lo..hi (a numpy integer is, a
    bool or 2.0 is not); otherwise ``error``, naming it, its value and its range.
    Every count argument of the library is refused here."""
    if isinstance(k, numbers.Integral) and not isinstance(k, bool) and lo <= k <= hi:
        return int(k)
    raise error(f"{name}={k} must be an integer in {lo}..{hi}")


def sliding_window_max(x: np.ndarray, s: int) -> np.ndarray:
    """Maxima over all windows of length s: out[i] = max(x[i:i+s]).

    O(n) via per-block prefix/suffix maxima (the vectorized equivalent of
    a monotone-deque sliding max), so overlapping windows do not cost
    O(n*s).  A standalone helper: the block kernels read the exceedance
    index instead.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    _count(s, "block length s", 1, n, WindowError)
    if s == 1:
        return x.copy()
    pad = (-n) % s
    xp = np.concatenate([x, np.full(pad, -np.inf)]) if pad else x
    blocks = xp.reshape(-1, s)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[: n - s + 1], prefix[s - 1 : n])


def _cover(lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """The points of 0..size-1 in the union of the ranges lo..hi, in
    order (int64); ``lo`` is ascending.  Each range adds its points past
    the running maximum of the ends before it, which hold all the rest."""
    a = np.maximum(lo, 0)
    a[1:] = np.maximum(a[1:], np.maximum.accumulate(hi[:-1]) + 1)
    c = np.maximum(np.minimum(hi, size - 1) - a + 1, 0)
    out = np.repeat(a - np.cumsum(c) + c, c)
    out += np.arange(out.size)  # in place: a third array of the output's size would raise the peak
    return out


def _starts(g: BlockFunctional, ns: NormalizedSeries, s: int) -> tuple:
    """The sorted, read-only 0-based starts where g may be nonzero, and g's
    read-only values there (None for a built-in, which is 1 at each), kept
    per (g, s).  ``FIRST_EXCEED`` starts at each position p <= n - s,
    ``RUNS`` at those whose next p is s or more further on, ``BLOCK_MAX``
    wherever the window holds a p.  Any other g must vanish on a block with
    no exceedance (checked once, ``ValueError`` otherwise), so it is
    evaluated once per ``BLOCK_MAX`` start, in order, on its window of the
    points that such windows cover (x/u at each p, else 0)."""
    n, p = ns.n, ns.positions
    _count(s, "block length s", 1, n, WindowError)
    if (id(g), s) in ns._kept:
        return ns._kept[id(g), s][1:]
    k, vals = ns.count(n - s + 1), None
    if g not in BUILTIN_FUNCTIONALS.values():
        if g(np.zeros(s)) != 0:
            raise ValueError(f"functional {g.name!r} must return 0 on a block with no exceedance")
        hits, t = _starts(BLOCK_MAX, ns, s)[0], _cover(p - s + 1, p + s - 1, n)
        z = np.zeros(t.size)
        z[np.searchsorted(t, p)] = ns.exceeding / ns.u
        vals = np.array([g(z[j : j + s]) for j in np.searchsorted(t, hits).tolist()])
        vals.setflags(write=False)
    elif g == FIRST_EXCEED:
        hits = p[:k]
    elif g == RUNS:
        gap = np.concatenate((p[1:], [n])) - p  # to the next position, or past the end
        hits = p[:k][gap[:k] >= s]
    else:  # BLOCK_MAX
        hits = _cover(p - s + 1, p, n - s + 1)
    hits.setflags(write=False)
    ns._kept[id(g), s] = (g, hits, vals)
    return hits, vals


def _select(g: BlockFunctional, ns: NormalizedSeries, s: int, stop: int, step: int):
    """g's kept starts below ``stop`` that are multiples of ``step``, and its values."""
    starts, vals = _starts(g, ns, s)
    on = slice(np.searchsorted(starts, stop))
    if step > 1:
        on = np.flatnonzero(starts[on] % step == 0)
    return starts[on], None if vals is None else vals[on]


def sliding_block_sum(g: BlockFunctional, ns: NormalizedSeries, s: int) -> float:
    """Sum of g over all n-s+1 sliding blocks of length s."""
    starts, vals = _select(g, ns, s, ns.n, 1)
    return float(starts.size if vals is None else vals.sum())


def disjoint_block_sum(g: BlockFunctional, ns: NormalizedSeries, s: int) -> float:
    """Sum of g over the floor(n/s) disjoint blocks starting at 1, s+1, ...

    These are the kept starts that are multiples of s: every kept start
    is at most n - s, so its block fits inside the series.
    """
    starts, vals = _select(g, ns, s, ns.n, s)
    return float(starts.size if vals is None else vals.sum())


def big_block_sums(
    g: BlockFunctional, ns: NormalizedSeries, scheme: BlockScheme, mode: str
) -> np.ndarray:
    """Per-big-block inner sums of g, one value per big block, each added
    in start order.

    mode="sliding": block i sums g over window starts (i-1)r+1 .. i*r.
    mode="disjoint": block i sums g over the r/s disjoint starts
    (i-1)r+1, (i-1)r+s+1, ...; requires r divisible by s.
    """
    scheme.fit(ns.n)
    m, r, s = scheme.m, scheme.r, scheme.s
    if mode not in ("sliding", "disjoint"):
        raise ValueError(f"mode must be 'sliding' or 'disjoint', got {mode!r}")
    if mode == "disjoint":  # a disjoint start is a multiple of s
        scheme.require_divisible()
    starts, vals = _select(g, ns, s, m * r, 1 if mode == "sliding" else s)
    return np.bincount(starts // r, vals, minlength=m).astype(np.float64, copy=False)
