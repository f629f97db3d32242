"""Stationary heavy-tailed simulators with known extremal index.

Three families, all with exact unit Frechet margins (P{X <= x} =
exp(-1/x)) so thresholds, quantiles and cluster constants are available
in closed form:

* ``iid_frechet``          - independent unit Frechet; theta = 1.
* ``armax(alpha)``         - max-autoregression
  X_t = max(alpha * X_{t-1}, (1-alpha) * Z_t); theta = 1 - alpha.
* ``moving_max(q, weights)`` - X_t = max_j w_j * Z_{t-j}, weights
  summing to 1 over lags 0..q; theta = max_j w_j (equal weights give
  1/(q+1)).

Each family also knows its forward tail chain (W_k), the weak limit of
(X_k / u | X_0 > u): the per-lag exceedance probabilities P{W_k > 1} are
available both analytically and by Monte Carlo, and they determine the
limiting normalized variance of the exceedance count,

    count variance constant = 1 + 2 * sum_k P{W_k > 1}.

Monte Carlo cross-checks (``theta_oracle_mc``,
``conditional_exceedance_profile``) estimate the same quantities directly
from simulated paths, independent of the tail-chain algebra.

Each family's recursion is written once, as a kernel over (initial state,
innovations): ``_armax`` in logs, ``_moving_max`` over lagged innovations.
The same kernels give full paths (``simulate``), batches of independent
windows (``theta_oracle_mc``) and exceedance positions alone
(``conditional_exceedance_profile``).  Positions are drawn a tile at a
time into one buffer, which keeps only the candidates: the draws small
enough that their innovation could exceed u.  The kernel then runs on the
points the candidates can lift, with +inf (which lifts nothing) as every
other draw, and the original expression for x > u confirms each point, so
the event set is exactly that of the full path, from the same draws in the
same order, and no chunk-sized array is held.
The profile counts its pairs on the joined positions of the whole path;
its chunks are only the batches of its batch-means standard error.

All randomness flows through counter-based Philox streams keyed by
(master seed, stream members), so every function here is deterministic
given its seed and insensitive to execution order or thread count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientEventsError, InvalidThresholdError

__all__ = [
    "ModelSpec",
    "ConditionalExceedanceProfile",
    "stream",
    "simulate",
    "theta_oracle_mc",
    "tail_chain_probs",
    "count_variance_limit",
    "conditional_exceedance_profile",
]

# the parameters each family takes; any other must stay None
_FAMILY_PARAMETERS = {"iid_frechet": (), "armax": ("alpha",), "moving_max": ("q", "weights")}

_PATH_CHUNK = 1 << 20  # points per simulation chunk; fixed so output is chunk-invariant
_TILE = 1 << 14  # points per tile inside a chunk (kernels, and positions draws), sized for L2
_MAX_Q = 1000  # moving_max window cap: bounds the 50*q burn-in and the q+1 passes per point
_MIN_EVENTS = 500  # fewest exceedances a conditional exceedance profile is estimated from


def stream(*keys: int) -> np.random.Generator:
    """Counter-based RNG stream keyed by a tuple of non-negative ints."""
    for k in keys:
        if k < 0:
            raise ValueError(f"seed components must be non-negative, got {k}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(keys))))


@dataclass(frozen=True)
class ModelSpec:
    """A simulator family plus parameters, with its ground-truth constants."""

    family: str  # "iid_frechet" | "armax" | "moving_max"
    alpha: float | None = None
    q: int | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        takes = _FAMILY_PARAMETERS.get(self.family) if isinstance(self.family, str) else None
        if takes is None:
            raise ValueError(f"unknown family {self.family!r}")
        extra = [k for k in ("alpha", "q", "weights")
                 if k not in takes and getattr(self, k) is not None]
        if extra:
            raise ValueError(f"{self.family} does not take {', '.join(extra)}")
        if self.family == "armax":
            if not isinstance(self.alpha, numbers.Real) or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"armax needs alpha in (0,1), got {self.alpha!r}")
        elif self.family == "moving_max":
            if not isinstance(self.q, numbers.Integral) or isinstance(self.q, bool) or self.q < 1:
                raise ValueError(f"moving_max needs an integer q >= 1, got {self.q!r}")
            if self.q > _MAX_Q:
                raise ValueError(f"moving_max needs q <= {_MAX_Q}, got {self.q}")
            if self.weights is not None:
                w = np.asarray(self.weights, dtype=np.float64)
                # a NaN weight compares False, and a nested list has the wrong shape
                if w.shape != (self.q + 1,) or not np.all(w > 0):
                    raise ValueError(
                        f"moving_max weights must be {self.q + 1} positive numbers"
                    )
                if abs(float(w.sum()) - 1.0) > 1e-12:
                    raise ValueError("moving_max weights must sum to 1")

    @staticmethod
    def iid() -> "ModelSpec":
        return ModelSpec("iid_frechet")

    @staticmethod
    def armax(alpha: float) -> "ModelSpec":
        return ModelSpec("armax", alpha=float(alpha))

    @staticmethod
    def moving_max(q: int, weights=None) -> "ModelSpec":
        if weights is not None:
            weights = tuple(float(w) for w in weights)
        return ModelSpec("moving_max", q=int(q), weights=weights)

    @property
    def lag_weights(self) -> np.ndarray:
        """Moving-max weights (equal by default)."""
        if self.family != "moving_max":
            raise ValueError("lag_weights only defined for moving_max")
        if self.weights is None:
            return np.full(self.q + 1, 1.0 / (self.q + 1))
        return np.asarray(self.weights, dtype=np.float64)

    @property
    def theta_true(self) -> float:
        """Known extremal index of the family."""
        if self.family == "iid_frechet":
            return 1.0
        if self.family == "armax":
            return 1.0 - self.alpha
        return float(np.max(self.lag_weights))

    @property
    def max_ties(self) -> int:
        """How many points the series maximum is tied at: 1, or for
        moving_max the count of weights equal to the largest, at whose
        lags the largest innovation gives the same value."""
        if self.family != "moving_max":
            return 1
        w = self.lag_weights
        return int(np.count_nonzero(w == w.max()))

    @property
    def burn_in(self) -> int:
        q = self.q or 0
        return max(1000, 50 * q)

    def marginal_quantile(self, p: float) -> float:
        """Exact unit Frechet quantile: the level u with P{X <= u} = p."""
        if not 0.0 < p < 1.0:
            raise InvalidThresholdError(f"quantile level must be in (0,1), got {p}")
        return -1.0 / math.log(p)

    def label(self) -> str:
        if self.family == "armax":
            return f"armax(alpha={self.alpha})"
        if self.family == "moving_max":
            return f"moving_max(q={self.q})"
        return "iid_frechet"


def _frechet(rng: np.random.Generator, size) -> np.ndarray:
    """Unit Frechet draws: 1/E with E standard exponential."""
    return 1.0 / rng.standard_exponential(size)


def _armax(e: np.ndarray, aj: np.ndarray, offset: float, m) -> np.ndarray:
    """Armax in logs, in place along the last axis: exponential draws E = 1/Z
    become log X_j = a*j + max(m, max_{i<=j} (log((1-alpha)*Z_i) - a*i)), the
    unrolled X_t = max(alpha*X_{t-1}, (1-alpha)*Z_t), with ``aj`` = a*j
    counted from the chunk start, a = log(alpha), and ``m`` the running max
    before ``e``.  Returns the running max after ``e``."""
    np.log(e, out=e)
    np.subtract(offset, e, out=e)
    np.subtract(e, aj, out=e)
    np.maximum.accumulate(e, axis=-1, out=e)
    np.maximum(e, m, out=e)
    m = e[..., -1:].copy()
    np.add(e, aj, out=e)
    return m


def _moving_max(w: np.ndarray, lagged, out=None) -> np.ndarray:
    """The moving-max recursion X_t = max_j w_j * Z_{t-j}, with
    ``lagged(j)`` the innovations Z_{t-j} at the points wanted, written
    into ``out`` if given; each product is taken ``_TILE`` rows at a time."""
    x = np.multiply(w[0], lagged(0), out=out)
    for j in range(1, w.size):
        z = lagged(j)
        for t in range(0, len(x), _TILE):
            np.maximum(x[t : t + _TILE], w[j] * z[t : t + _TILE], out=x[t : t + _TILE])
    return x


def _path_chunks(spec: ModelSpec, total: int, rng: np.random.Generator, u=None,
                 chunk: int = _PATH_CHUNK, tile: int = _TILE, out=None):
    """Yield consecutive chunks of one stationary path of length ``total``,
    or, given a level ``u``, exactly ``np.flatnonzero(chunk > u)`` of each
    (see ``_exceedance_chunks``).  Given ``out`` (length ``total``), each
    chunk is built in its slice of ``out``, so that the path is held once.

    The chunk length is a fixed constant (armax counts a*j from each chunk
    start), so the emitted values do not depend on how the consumer
    assembles them; only tests pass a shorter ``chunk`` or ``tile``.  The
    armax tiles leave the values unchanged.  Initial states are drawn from
    the exact stationary law (unit Frechet start for armax, q extra
    innovations for moving_max), so the path is stationary from index 0.
    """
    if u is not None:
        yield from _exceedance_chunks(spec, total, rng, u, chunk, tile)
        return
    if spec.family == "armax":
        offset = math.log1p(-spec.alpha)
        aj = np.arange(1.0, min(chunk, total) + 1.0)
        aj *= math.log(spec.alpha)
        y = -math.log(rng.standard_exponential())  # log of a Frechet start
    elif spec.family == "moving_max":
        w, q = spec.lag_weights, spec.q
        tail = rng.standard_exponential(q)  # innovations Z_{-q+1} .. Z_0, as 1/Z
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        e = rng.standard_exponential(size, out=None if out is None else out[start : start + size])
        if spec.family == "iid_frechet":
            yield np.divide(1.0, e, out=e)
        elif spec.family == "armax":
            m = y
            for t in range(0, size, tile):
                part = e[t : t + tile]
                m = _armax(part, aj[t : t + part.size], offset, m)
                y = part[-1]
                np.exp(part, out=part)
            yield e
        else:
            dest, e = e, np.concatenate([tail, e])
            tail = e[-q:].copy()
            np.divide(1.0, e, out=e)  # no second name: rebinding e frees it for the next chunk
            yield _moving_max(w, lambda j: e[q - j : q - j + size], out=dest)


def _candidates(rng: np.random.Generator, size: int, thr: float, buf: np.ndarray):
    """Draw ``size`` exponentials, ``buf.size`` at a time into ``buf``, and
    return the indices of those below ``thr`` and their draws.  Philox fills
    sequentially, so the draws are those of one call of ``size``."""
    idx, val = [], []
    for t in range(0, size, buf.size):
        e = rng.standard_exponential(out=buf[: size - t])
        c = np.flatnonzero(e < thr)
        idx.append(c + t)
        val.append(e[c])
    return np.concatenate(idx), np.concatenate(val)


def _cover(lo: np.ndarray, hi: np.ndarray, size: int) -> np.ndarray:
    """The points of 0..size-1 in the union of the ranges lo..hi, in
    order; ``lo`` is ascending."""
    if not lo.size:
        return lo
    hi = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1]])  # where a run of overlapping ranges starts
    a = np.maximum(lo[first], 0)
    n = np.maximum(np.minimum(hi[np.r_[first[1:] - 1, -1]], size - 1) - a + 1, 0)
    return np.repeat(a - np.cumsum(n) + n, n) + np.arange(n.sum())


def _draws_at(c: np.ndarray, ec: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The draws at the points ``k``: ``ec`` at the candidates ``c``
    (ascending), +inf at every other point."""
    if not c.size:
        return np.full(k.size, np.inf)
    i = np.minimum(np.searchsorted(c, k), c.size - 1)
    return np.where(c[i] == k, ec[i], np.inf)


def _exceedance_chunks(spec: ModelSpec, total: int, rng: np.random.Generator, u: float,
                       chunk: int, tile: int):
    """The positions branch of ``_path_chunks``, drawn from the same stream.

    Each chunk is drawn ``tile`` points at a time into one buffer, keeping
    only the candidates: the draws E below bound/u*(1+tol), with bound 1
    for iid, 1-alpha for armax and max w for moving_max.  Any other draw
    gives an innovation at or below u/(1+tol), which lifts no point above
    u.  Each family's kernel then runs on the points the candidates (and
    the carried state) can lift, with +inf, which lifts nothing, as the
    draw of every other point; ``max`` is exact, so each point that can
    exceed u gets its full-path value and the test x > u its full-path
    answer.  Armax carries its log state, exact wherever it can lift a
    point; moving_max carries the candidates among its last q innovations.
    """
    buf = np.empty(min(tile, total))
    tol = 1e-9
    if spec.family == "armax":
        offset, a = math.log1p(-spec.alpha), math.log(spec.alpha)
        tol += -a * chunk * 2.0**-50  # rounding a*j (up to |a|*chunk) and sums with it moves log x
        bound, log_u = 1.0 - spec.alpha, math.log(u)
        y = -math.log(rng.standard_exponential())  # log of a Frechet start

        def reach(v):  # a log value v at point i lifts the points i+j with j*(-a) < v - log u
            return np.clip(np.floor((v - log_u + tol) / -a), -1, chunk).astype(np.int64)
    elif spec.family == "moving_max":
        w, q = spec.lag_weights, spec.q
        bound = float(np.max(w))
        e = rng.standard_exponential(q)  # innovations Z_{-q+1} .. Z_0, as 1/Z
    else:
        bound = 1.0
    thr = bound / u * (1.0 + tol)
    if spec.family == "moving_max":
        c = np.flatnonzero(e < thr)
        tail = c - q, e[c]
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        c, ec = _candidates(rng, size, thr, buf)
        if spec.family == "iid_frechet":
            yield c[1.0 / ec > u]
        elif spec.family == "armax":
            lo = np.concatenate([[0], c, [size - 1]])
            hi = np.concatenate([[reach(y)], c + reach(offset - np.log(ec)) + 1, [size - 1]])
            t = _cover(lo, hi, size)  # ends with size-1, which the next chunk's state is read from
            x = _draws_at(c, ec, t)
            _armax(x, (t + 1.0) * a, offset, y)
            y = x[-1]
            yield t[np.exp(x) > u]
        else:
            c, ec = np.concatenate([tail[0], c]), np.concatenate([tail[1], ec])
            t = _cover(c, c + q, size)
            x = _moving_max(w, lambda j: 1.0 / _draws_at(c, ec, t - j))
            keep = c >= size - q
            tail = c[keep] - size, ec[keep]
            yield t[x > u]


def simulate(spec: ModelSpec, n: int, seed) -> np.ndarray:
    """One stationary path of length n, deterministic given (spec, n, seed).

    ``seed`` is an int or a tuple of ints (e.g. (master_seed, replicate)),
    keying an independent counter-based stream either way.  A burn-in of
    max(1000, 50*q) initial steps is generated and discarded (the initial
    states are already drawn from the stationary law, so the burn-in is
    belt and braces rather than a necessity).
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    keys = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    rng = stream(*keys, 1)
    out = np.empty(n + spec.burn_in)
    for _ in _path_chunks(spec, out.size, rng, out=out):
        pass
    return out[spec.burn_in :]


def _window_batch(spec: ModelSpec, reps: int, s: int, rng: np.random.Generator):
    """Yield (rows, s) batches of independent stationary windows."""
    rows_per = max(1, (1 << 22) // max(s, 1))
    if spec.family == "armax":
        offset = math.log1p(-spec.alpha)
        aj = math.log(spec.alpha) * np.arange(1.0, s + 1.0)
    done = 0
    while done < reps:
        rows = min(rows_per, reps - done)
        if spec.family == "iid_frechet":
            yield _frechet(rng, (rows, s))
        elif spec.family == "armax":
            y0 = -np.log(rng.standard_exponential((rows, 1)))
            e = rng.standard_exponential((rows, s))
            _armax(e, aj, offset, y0)
            yield np.exp(e, out=e)
        else:
            w, q = spec.lag_weights, spec.q
            z = _frechet(rng, (rows, s + q))
            yield _moving_max(w, lambda j: z[:, q - j : q - j + s])
        done += rows


def theta_oracle_mc(
    spec: ModelSpec, s: int, quantile: float, reps: int, seed: int
) -> float:
    """Brute-force extremal index oracle, independent of the estimators.

    Estimates P{max of a stationary window of length s > u} over ``reps``
    independent windows and divides by s * P{X > u}, with u the exact
    marginal quantile.  Converges to theta as the quantile rises and the
    window grows; at any fixed (s, quantile) it carries a known
    finite-level bias, so tolerances must be set against the exact
    estimand, not against theta alone.
    """
    if reps < 100:
        raise ValueError(f"need reps >= 100, got {reps}")
    u = spec.marginal_quantile(quantile)
    v = 1.0 - quantile
    rng = stream(seed, 2)
    hits = 0
    for batch in _window_batch(spec, reps, s, rng):
        hits += int(np.count_nonzero(batch.max(axis=1) > u))
    return hits / (reps * s * v)


def tail_chain_probs(
    spec: ModelSpec,
    lags: int,
    method: str = "analytic",
    reps: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """P{W_k > 1} for k = 1..lags, where (W_k) is the forward tail chain.

    method="analytic" uses the closed forms (iid: 0; armax: alpha^k;
    moving_max: sum_j min(w_j, w_{j+k})).  method="mc" samples W_0 from
    the standard Pareto law P{W_0 > w} = 1/w and pushes it through the
    family's multiplier recursion.
    """
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    k = np.arange(1, lags + 1)
    if method == "analytic":
        if spec.family == "iid_frechet":
            return np.zeros(lags)
        if spec.family == "armax":
            return spec.alpha ** k.astype(np.float64)
        w = spec.lag_weights
        probs = np.zeros(lags)
        for kk in range(1, min(lags, spec.q) + 1):
            probs[kk - 1] = float(np.minimum(w[: spec.q + 1 - kk], w[kk:]).sum())
        return probs
    if method != "mc":
        raise ValueError(f"method must be 'analytic' or 'mc', got {method!r}")
    rng = stream(seed, 3)
    w0 = 1.0 / rng.uniform(size=reps)  # Pareto(1): P{W_0 > w} = 1/w, w >= 1
    if spec.family == "iid_frechet":
        return np.zeros(lags)
    if spec.family == "armax":
        # W_k = alpha^k W_0 exactly: the autoregressive branch dominates.
        return np.array(
            [np.mean(spec.alpha ** kk * w0 > 1.0) for kk in range(1, lags + 1)]
        )
    w = spec.lag_weights
    j = rng.choice(spec.q + 1, size=reps, p=w)  # index of the dominating innovation
    probs = np.zeros(lags)
    for kk in range(1, lags + 1):
        alive = j + kk <= spec.q
        if not np.any(alive):
            break
        mult = np.zeros(reps)
        mult[alive] = w[j[alive] + kk] / w[j[alive]]
        probs[kk - 1] = float(np.mean(mult * w0 > 1.0))
    return probs


def count_variance_limit(spec: ModelSpec) -> float:
    """Limiting normalized variance of the exceedance count.

    This is the constant 1 + 2 * sum_{k>=1} P{W_k > 1} that enters the
    common asymptotic variance theta*(theta*c - 1) of the extremal index
    estimators, summed in closed form (iid: 1; armax: (1+alpha)/(1-alpha);
    moving_max: a finite sum, 1+q for equal weights).
    """
    if spec.family == "iid_frechet":
        return 1.0
    if spec.family == "armax":
        return (1.0 + spec.alpha) / (1.0 - spec.alpha)
    probs = tail_chain_probs(spec, spec.q, method="analytic")
    return 1.0 + 2.0 * float(probs.sum())


@dataclass(frozen=True)
class ConditionalExceedanceProfile:
    """Path-based estimates of P(X_k > u | X_0 > u) for k = 1..k_max.

    Primary payload is ``probs``; the rest supports error bars.  The
    count-variance estimate subtracts the marginal rate from each lag
    (1 + 2*sum_k (p_k - v)): at any finite level each conditional
    probability carries an additive independent-overlap contribution of
    about v that the limit kills but a truncated finite-level sum does
    not, and centering removes it exactly for independent lags.
    ``batch_values`` holds per-batch count-variance estimates for a
    batch-means standard error.
    """

    probs: np.ndarray
    u: float
    quantile: float
    n_events: int
    n_points: int
    v_hat: float
    batch_values: np.ndarray = field(repr=False)

    def count_variance_estimate(self) -> tuple[float, float]:
        """(estimate, standard error) of the count variance constant."""
        c_hat = 1.0 + 2.0 * float(np.sum(self.probs - self.v_hat))
        b = self.batch_values[np.isfinite(self.batch_values)]
        if b.size >= 2:
            se = float(np.std(b, ddof=1) / np.sqrt(b.size))
        else:
            se = float("nan")
        return c_hat, se


def conditional_exceedance_profile(
    spec: ModelSpec,
    k_max: int,
    quantile: float,
    target_events: int,
    seed: int,
) -> ConditionalExceedanceProfile:
    """Estimate the conditional exceedance profile from one long path.

    Simulates enough points that about ``target_events`` exceedances of
    the marginal ``quantile`` occur, then estimates
    P(X_k > u | X_0 > u) for each lag by pair counting.  This is the
    simulator-level cross-check for the tail-chain computations: it sees
    only the path, never the tail-chain algebra.  Fewer than 500
    exceedances raise ``InsufficientEventsError``.

    Pairs are counted on the sorted exceedance positions of the whole
    path.  Each 1M-point simulation chunk is one batch of ``batch_values``,
    with its events and the pairs (t, t+k) whose t+k it holds.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    u = spec.marginal_quantile(quantile)
    total = int(math.ceil(target_events / (1.0 - quantile))) + k_max
    starts = np.arange(0, total, _PATH_CHUNK)
    chunks = _path_chunks(spec, total, stream(seed, 4), u=u)
    pos = np.concatenate([p + start for start, p in zip(starts, chunks)])
    n_events = pos.size
    if n_events < _MIN_EVENTS:
        raise InsufficientEventsError(n_events, _MIN_EVENTS)
    # pairs (t, t+k): t+k is an exceedance, counted in the chunk that holds it
    pairs = np.empty((starts.size, k_max), dtype=np.int64)
    for k in range(1, k_max + 1):
        right = pos + k
        right = right[pos[np.minimum(np.searchsorted(pos, right), n_events - 1)] == right]
        pairs[:, k - 1] = np.bincount(right // _PATH_CHUNK, minlength=starts.size)
    # batch means over the chunks that hold an exceedance
    ev = np.bincount(pos // _PATH_CHUNK, minlength=starts.size)
    size = np.minimum(_PATH_CHUNK, total - starts)
    has = ev > 0
    batch_values = 1.0 + 2.0 * np.sum(pairs[has] / ev[has, None] - (ev / size)[has, None], axis=1)
    # lag k conditions only on events with room for a partner k steps ahead
    n_cond = np.searchsorted(pos, total - np.arange(1, k_max + 1))
    probs = pairs.sum(axis=0) / np.maximum(n_cond, 1)
    return ConditionalExceedanceProfile(
        probs=probs,
        u=u,
        quantile=quantile,
        n_events=n_events,
        n_points=total,
        v_hat=n_events / total,
        batch_values=batch_values,
    )
