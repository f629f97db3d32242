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
(X_k / u | X_0 > u): the per-lag exceedance probabilities P{W_k > 1} have
closed forms (``tail_chain_probs``), and they determine the limiting
normalized variance of the exceedance count,

    count variance constant = 1 + 2 * sum_k P{W_k > 1}.

The closed forms are checked on the path: ``conditional_exceedance_profile``
estimates the same probabilities from simulated paths of the simulators
the harness uses, independent of the tail-chain algebra, as
``theta_oracle_mc`` does for theta.

Each family's recursion is written once, as a kernel over (initial state,
innovations): ``_armax`` in logs, ``_moving_max`` over lagged innovations.
Two drivers run the kernels.  ``_path_chunks`` builds full paths, one
(``simulate``) or a batch of independent ones stacked on a leading axis
(the windows of ``theta_oracle_mc``).  ``_exceedance_chunks`` builds the
exceedances alone (``simulate(..., above=u)``,
``conditional_exceedance_profile``), confirmed from the candidates, the
draws small enough that their innovation could exceed u: the first picks
them out of the path's own draws, the second samples them by their
geometric gaps.  The kernel then runs on the points the candidates can
lift (a union of ranges, ``blocks._cover``), with +inf (which lifts
nothing) as every other draw, and the original expression for x > u
confirms each point, so the events and their values are exactly those of
the full path those draws stand for.
The profile counts its pairs by the position gaps of the whole path; its
chunks are only the batches of its batch-means standard error.

All randomness flows through counter-based Philox streams keyed by
(master seed, stream members), so every function here is deterministic
given its seed and insensitive to execution order or thread count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .blocks import _count, _cover
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
_TILE = 1 << 14  # points per tile of the moving-max products and of armax's a*j, sized for L2
_MAX_Q = 1000  # moving_max window cap: bounds the 50*q burn-in and the q+1 passes per point
_MIN_EVENTS = 500  # fewest exceedances a conditional exceedance profile is estimated from
# the longest path, and the most of any count that sets how much a call draws:
# a path of n floats must fit in memory
_MAX_N = 10**8


def stream(*keys: int) -> np.random.Generator:
    """Counter-based RNG stream keyed by a tuple of non-negative ints."""
    keys = [_count(k, "seed component", 0) for k in keys]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(keys)))


@dataclass(frozen=True)
class ModelSpec:
    """A simulator family plus parameters, with its ground-truth constants."""

    family: str  # "iid_frechet" | "armax" | "moving_max"
    alpha: float | None = None
    q: int | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "q"):  # a numpy integer is checked and kept as the int it is
            if isinstance(getattr(self, name), np.integer):
                object.__setattr__(self, name, int(getattr(self, name)))
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
        if np.ndim(weights) == 1:  # kept as floats; anything else is refused as it is
            weights = tuple(float(w) for w in weights)
        return ModelSpec("moving_max", q=q, weights=weights)

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


def _armax(e: np.ndarray, aj: np.ndarray, offset: float, carry):
    """Armax in logs, in place along the last axis: exponential draws E = 1/Z
    become log X_j = a*j + max(carry, max_{i<=j} (log((1-alpha)*Z_i) - a*i)),
    the unrolled X_t = max(alpha*X_{t-1}, (1-alpha)*Z_t), with ``aj`` = a*j
    at the points of ``e``, counted from the chunk start, a = log(alpha),
    and ``carry`` the running maximum before ``e``: at the chunk start, the
    log state before it.  Returns the running maximum at the last point,
    taken before a*j is added back, which continues the chunk in a later
    call; ``max`` is exact, so a chunk built in pieces is bit-identical."""
    np.log(e, out=e)
    np.subtract(offset, e, out=e)
    np.subtract(e, aj, out=e)
    np.maximum.accumulate(e, axis=-1, out=e)
    np.maximum(e, carry, out=e)
    carry = e[..., -1:].copy()  # the in-place add would overwrite a view
    np.add(e, aj, out=e)
    return carry


def _moving_max(w: np.ndarray, lagged, out=None) -> np.ndarray:
    """The moving-max recursion X_t = max_j w_j * Z_{t-j}, with
    ``lagged(j)`` the innovations Z_{t-j} at the points wanted, written
    into ``out`` if given; each product is taken about ``_TILE`` points (whole rows) at a time."""
    x = np.multiply(w[0], lagged(0), out=out)
    rows = max(1, _TILE * len(x) // max(x.size, 1))
    for j in range(1, w.size):
        z = lagged(j)
        for t in range(0, len(x), rows):
            np.maximum(x[t : t + rows], w[j] * z[t : t + rows], out=x[t : t + rows])
    return x


def _path_chunks(spec: ModelSpec, total: int, rng: np.random.Generator,
                 chunk: int | None = None, out=None, paths: int | None = None):
    """Yield consecutive chunks of one stationary path of length ``total``,
    or of ``paths`` independent ones stacked on a leading axis.  Given
    ``out`` (length ``total``), each chunk of one path is built in its
    slice of ``out``, so that the path is held once.

    The chunk length is ``_PATH_CHUNK`` unless given (armax counts a*j from
    each chunk start), so the emitted values do not depend on how the
    consumer assembles them.  Armax builds a*j one ``_TILE`` at a time and
    carries ``_armax``'s running maximum from tile to tile, so beside the
    path it holds one tile of a*j, not a chunk of it.  Initial states are
    drawn from the exact stationary law (unit Frechet start for armax, q
    extra innovations for moving_max), for every path before its first
    chunk, so each path is stationary from index 0.  ``_exceedance_chunks``
    samples the same law for positions.
    """
    chunk = chunk or _PATH_CHUNK

    def draw(size, into=None):  # an int size for one path, as tests replay it
        return rng.standard_exponential(size if paths is None else (paths, size), out=into)

    if spec.family == "armax":
        offset, a = math.log1p(-spec.alpha), math.log(spec.alpha)
        y = -np.log(draw(1))  # log of a Frechet start
    elif spec.family == "moving_max":
        w, q = spec.lag_weights, spec.q
        tail = draw(q)  # innovations Z_{-q+1} .. Z_0, as 1/Z
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        e = draw(size, None if out is None else out[start : start + size])
        if spec.family == "iid_frechet":
            yield np.divide(1.0, e, out=e)
        elif spec.family == "armax":
            for t in range(0, size, _TILE):  # y carries the running maximum between tiles
                tile = e[..., t : t + _TILE]
                y = _armax(tile, np.arange(t + 1.0, t + 1.0 + tile.shape[-1]) * a, offset, y)
            y = e[..., -1:].copy()  # the log state; the in-place exp would overwrite a view
            yield np.exp(e, out=e)
        else:
            dest, e = e, np.concatenate([tail, e], axis=-1)
            tail = e[..., -q:].copy()
            np.divide(1.0, e, out=e)  # no second name: rebinding e frees it for the next chunk
            yield _moving_max(w, lambda j: e[..., q - j : q - j + size], out=dest)


def _candidates(rng: np.random.Generator, size: int, thr: float):
    """The indices of the draws below ``thr`` among ``size`` standard
    exponentials, a Bernoulli(p) set with p = P{E < thr} drawn by its
    geometric gaps, and their draws, exponentials truncated to [0, thr)."""
    p = -math.expm1(-thr)
    c = np.cumsum(rng.geometric(p, int(size * p + 4.0 * math.sqrt(size * p)) + 1)) - 1
    while c[-1] < size:  # the gaps fell short of the chunk: draw as many again
        c = np.concatenate([c, c[-1] + np.cumsum(rng.geometric(p, c.size))])
    c = c[: np.searchsorted(c, size)]
    return c, -np.log1p(-p * rng.random(c.size))


def _dense_candidates(rng: np.random.Generator, size: int, thr: float):
    """``_candidates`` picked out of ``size`` draws made as ``_path_chunks`` does."""
    e = rng.standard_exponential(size)
    c = np.flatnonzero(e < thr)
    return c, e[c]


def _draws_at(c: np.ndarray, ec: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The draws at the points ``k`` (strictly ascending, as a cover is): ``ec``
    at the candidates ``c``, each looked up among the points, +inf elsewhere."""
    x = np.full(k.size, np.inf)
    if k.size:
        i = np.minimum(np.searchsorted(k, c), k.size - 1)
        on = k[i] == c
        x[i[on]] = ec[on]
    return x


def _exceedance_chunks(spec: ModelSpec, total: int, rng: np.random.Generator, u: float,
                       candidates, chunk: int = _PATH_CHUNK):
    """Yield the positions above ``u`` (from the path start) and their
    values, chunk by chunk, of a path with the law of ``_path_chunks``',
    from the candidates that ``candidates(rng, size, thr)`` draws: the draws
    E below theta/u*(1+tol), theta the largest multiplier of an
    innovation: 1 for iid, 1-alpha for armax and max w for moving_max.  Any
    other draw gives an innovation at or below u/(1+tol), which lifts no
    point above u.  The rest is a function of the candidates: each
    family's kernel runs on the points they (and the carried state) can
    lift, with +inf, which lifts nothing, as every other draw.  ``max`` is
    exact, so these are exactly the points of ``c > u`` and their values for
    each chunk ``c`` that ``_path_chunks`` yields from the same ``chunk`` and
    armax start draw, with the candidates' draws and any draws >= thr elsewhere.
    Armax covers each candidate c through c + reach(v), v its log innovation:
    v lifts c + j only while v + a*j > log u, up to rounding that tol bounds,
    and its log state y, the value at point -1, lifts 0..reach(y)-1; it
    carries that state, exact wherever it can lift a point; moving_max
    carries the candidates among its last q innovations.
    """
    tol = 1e-9
    if spec.family == "armax":
        offset, a = math.log1p(-spec.alpha), math.log(spec.alpha)
        tol += -a * chunk * 2.0**-50  # rounding a*j (up to |a|*chunk) and sums with it moves log x
        log_u = math.log(u)
        y = -np.log(rng.standard_exponential())  # log of a Frechet start, as _path_chunks takes it

        def reach(v):  # a log value v at point i lifts the points i+j with j*(-a) < v - log u
            return np.clip(np.floor((v - log_u + tol) / -a), -1, chunk).astype(np.int64)
    thr = spec.theta_true / u * (1.0 + tol)
    if spec.family == "moving_max":
        w, q = spec.lag_weights, spec.q
        c, ec = candidates(rng, q, thr)  # among the innovations Z_{-q+1} .. Z_0, as 1/Z
        tail = c - q, ec
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        c, ec = candidates(rng, size, thr)
        if spec.family == "iid_frechet":
            t, x = c, 1.0 / ec
        elif spec.family == "armax":
            lo = np.concatenate([[0], c, [size - 1]])
            hi = np.concatenate([[reach(y) - 1], c + reach(offset - np.log(ec)), [size - 1]])
            t = _cover(lo, hi, size)  # ends with size-1, which the next chunk's state is read from
            x = _draws_at(c, ec, t)
            _armax(x, (t + 1.0) * a, offset, y)
            y = x[-1]
            np.exp(x, out=x)
        else:
            c, ec = np.concatenate([tail[0], c]), np.concatenate([tail[1], ec])
            t = _cover(c, c + q, size)
            x = _moving_max(w, lambda j: 1.0 / _draws_at(c, ec, t - j))
            keep = c >= size - q
            tail = c[keep] - size, ec[keep]
        hit = x > u
        yield start + t[hit], x[hit]


def simulate(spec: ModelSpec, n: int, seed, above: float | None = None):
    """One stationary path of length n, deterministic given (spec, n, seed).

    ``seed`` is a non-negative int or a tuple of them (e.g. (master_seed,
    replicate)), keying an independent counter-based stream either way;
    any other seed raises ``ValueError``.  A burn-in of
    max(1000, 50*q) initial steps is generated and discarded (the initial
    states are already drawn from the stationary law, so the burn-in is
    belt and braces rather than a necessity).  The path is read-only and
    owns its data, so ``blocks.as_series`` takes it without a copy.
    Given a level ``above`` > 0, the result is (``np.flatnonzero(x >
    above)``, their values) of that path x, bit for bit, and x is never
    built: the kernel runs on the candidates among the same draws.
    """
    n = _count(n, "path length n", 1, _MAX_N)
    rng = stream(*(seed if isinstance(seed, tuple) else (seed,)), 1)
    if above is not None:
        if not above > 0:
            raise ValueError(f"level above={above} must be positive")
        chunks = _exceedance_chunks(spec, n + spec.burn_in, rng, above, _dense_candidates)
        p, x = map(np.concatenate, zip(*chunks))
        return p[spec.burn_in <= p] - spec.burn_in, x[spec.burn_in <= p]
    out = np.empty(n + spec.burn_in)
    for chunk in _path_chunks(spec, out.size, rng, out=out):
        pass
    del chunk  # a view of out, which would make resize refuse
    out[:n] = out[spec.burn_in :]  # over the burn-in, in place: no second path
    out.resize(n)
    out.setflags(write=False)
    return out


def theta_oracle_mc(
    spec: ModelSpec, s: int, quantile: float, reps: int, seed: int
) -> float:
    """Brute-force extremal index oracle, independent of the estimators.

    Estimates P{max of a stationary window of length s > u} over ``reps``
    independent windows and divides by s * P{X > u}, with u the exact
    marginal quantile.  The windows are batches of about 4M/s independent
    length-s paths from ``_path_chunks``, each one chunk, so each is
    counted once at any s.  Converges to theta as the quantile rises and
    the window grows; at any fixed (s, quantile) it carries a known
    finite-level bias, so tolerances must be set against the exact
    estimand, not against theta alone.  ``reps`` is an integer in
    100..10**8 and s one in 1..10**8 (``_MAX_N``).
    """
    reps = _count(reps, "reps", 100, _MAX_N)
    s = _count(s, "window length s", 1, _MAX_N)
    u = spec.marginal_quantile(quantile)
    v = 1.0 - quantile
    rng = stream(seed, 2)
    paths = max(1, (1 << 22) // s)
    hits = 0
    for done in range(0, reps, paths):
        (windows,) = _path_chunks(spec, s, rng, chunk=s, paths=min(paths, reps - done))
        hits += int(np.count_nonzero(windows.max(axis=1) > u))
    return hits / (reps * s * v)


def tail_chain_probs(spec: ModelSpec, lags: int) -> np.ndarray:
    """P{W_k > 1} for k = 1..lags, where (W_k) is the forward tail chain,
    in closed form: iid 0, armax alpha^k and moving_max
    sum_j min(w_j, w_{j+k}).  ``conditional_exceedance_profile`` checks
    them on simulated paths.
    """
    lags = _count(lags, "lags", 1, _MAX_N)
    if spec.family == "iid_frechet":
        return np.zeros(lags)
    if spec.family == "armax":
        return spec.alpha ** np.arange(1.0, lags + 1.0)
    w = spec.lag_weights
    probs = np.zeros(lags)
    for k in range(1, min(lags, spec.q) + 1):
        probs[k - 1] = float(np.minimum(w[: spec.q + 1 - k], w[k:]).sum())
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
    probs = tail_chain_probs(spec, spec.q)
    return 1.0 + 2.0 * float(probs.sum())


def _pair_counts(pos: np.ndarray, k_max: int, chunks: int) -> np.ndarray:
    """Pairs (t, t+k) of the strictly ascending ``pos`` by the chunk that holds
    t+k (rows) and k = 1..k_max: t+k is pos[i+d] for t = pos[i] and one d <= k."""
    pairs = np.zeros(chunks * k_max, dtype=np.int64)
    for d in range(1, min(k_max, pos.size - 1) + 1):
        gap = pos[d:] - pos[:-d]
        near = gap <= k_max
        pairs += np.bincount(pos[d:][near] // _PATH_CHUNK * k_max + gap[near] - 1,
                             minlength=pairs.size)
    return pairs.reshape(chunks, k_max)


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
        se = float(np.std(b, ddof=1) / np.sqrt(b.size)) if b.size >= 2 else float("nan")
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

    Only the draws that can exceed u are drawn (``_exceedance_chunks``),
    so the cost grows with the events, not the points.  Pairs are counted
    by the gaps between the sorted exceedance positions of the whole path,
    one pass per gap d = 1..k_max between their indices.  Each 1M-point
    chunk is one batch of ``batch_values``, with its events and the pairs
    (t, t+k) whose t+k it holds.
    """
    k_max = _count(k_max, "k_max", 1, _MAX_N)
    target_events = _count(target_events, "target_events", 1, _MAX_N)
    u = spec.marginal_quantile(quantile)
    total = int(math.ceil(target_events / (1.0 - quantile))) + k_max
    starts = np.arange(0, total, _PATH_CHUNK)
    pos = np.concatenate([p for p, _ in _exceedance_chunks(spec, total, stream(seed, 4), u,
                                                            _candidates)])
    n_events = pos.size
    if n_events < _MIN_EVENTS:
        raise InsufficientEventsError(n_events, _MIN_EVENTS)
    pairs = _pair_counts(pos, k_max, starts.size)
    # batch means over the chunks that hold an exceedance
    ev = np.bincount(pos // _PATH_CHUNK, minlength=starts.size)
    size = np.minimum(_PATH_CHUNK, total - starts)
    has = ev > 0
    batch_values = 1.0 + 2.0 * np.sum(pairs[has] / ev[has, None] - (ev / size)[has, None], axis=1)
    # lag k conditions only on events with room for a partner k steps ahead
    n_cond = np.searchsorted(pos, total - np.arange(1, k_max + 1))
    probs = pairs.sum(axis=0) / np.maximum(n_cond, 1)
    return ConditionalExceedanceProfile(
        probs=probs, u=u, quantile=quantile, n_events=n_events, n_points=total,
        v_hat=n_events / total, batch_values=batch_values)
