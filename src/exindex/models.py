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
    "count_variance_truncation_bound",
    "conditional_exceedance_profile",
]

# the parameters each family takes; any other must stay None
_FAMILY_PARAMETERS = {"iid_frechet": (), "armax": ("alpha",), "moving_max": ("q", "weights")}

_PATH_CHUNK = 1 << 20  # points per simulation chunk; fixed so output is chunk-invariant


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
            if self.weights is not None:
                w = np.asarray(self.weights, dtype=np.float64)
                if w.size != self.q + 1 or np.any(w <= 0):
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


def _path_chunks(spec: ModelSpec, total: int, rng: np.random.Generator):
    """Yield consecutive chunks of one stationary path of length ``total``.

    The chunk length is a fixed constant, so the emitted values do not
    depend on how the consumer assembles them.  Initial states are drawn
    from the exact stationary law (unit Frechet start for armax, q extra
    innovations for moving_max), so the path is stationary from index 0.
    """
    if spec.family == "iid_frechet":
        done = 0
        while done < total:
            size = min(_PATH_CHUNK, total - done)
            yield _frechet(rng, size)
            done += size
    elif spec.family == "armax":
        a = math.log(spec.alpha)
        offset = math.log1p(-spec.alpha)
        y_carry = -math.log(rng.standard_exponential())  # log of a Frechet start
        done = 0
        while done < total:
            size = min(_PATH_CHUNK, total - done)
            # X_t = max(alpha*X_{t-1}, (1-alpha)*Z_t) unrolls, in logs, to a
            # running max of innovations discounted linearly in log-space.
            log_z = -np.log(rng.standard_exponential(size))
            j = np.arange(1.0, size + 1.0)
            g = offset + log_z - a * j
            y = a * j + np.maximum(y_carry, np.maximum.accumulate(g))
            y_carry = y[-1]
            yield np.exp(y)
            done += size
    else:  # moving_max
        w = spec.lag_weights
        q = spec.q
        tail = _frechet(rng, q)  # innovations Z_{-q+1} .. Z_0
        done = 0
        while done < total:
            size = min(_PATH_CHUNK, total - done)
            z = np.concatenate([tail, _frechet(rng, size)])
            x = w[0] * z[q:]
            for j in range(1, q + 1):
                np.maximum(x, w[j] * z[q - j : q - j + size], out=x)
            tail = z[-q:]
            yield x
            done += size


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
    total = n + spec.burn_in
    out = np.concatenate(list(_path_chunks(spec, total, rng)))
    return out[spec.burn_in :]


def _window_batch(spec: ModelSpec, reps: int, s: int, rng: np.random.Generator):
    """Yield (rows, s) batches of independent stationary windows."""
    rows_per = max(1, (1 << 22) // max(s, 1))
    done = 0
    while done < reps:
        rows = min(rows_per, reps - done)
        if spec.family == "iid_frechet":
            yield _frechet(rng, (rows, s))
        elif spec.family == "armax":
            a = math.log(spec.alpha)
            offset = math.log1p(-spec.alpha)
            y0 = -np.log(rng.standard_exponential((rows, 1)))
            log_z = -np.log(rng.standard_exponential((rows, s)))
            j = np.arange(1.0, s + 1.0)
            g = offset + log_z - a * j
            y = a * j + np.maximum(y0, np.maximum.accumulate(g, axis=1))
            yield np.exp(y)
        else:
            w = spec.lag_weights
            q = spec.q
            z = _frechet(rng, (rows, s + q))
            x = w[0] * z[:, q:]
            for j in range(1, q + 1):
                np.maximum(x, w[j] * z[:, q - j : q - j + s], out=x)
            yield x
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


def count_variance_limit(
    spec: ModelSpec,
    method: str = "analytic",
    lags: int = 64,
    reps: int = 200_000,
    seed: int = 0,
) -> float:
    """Limiting normalized variance of the exceedance count.

    This is the constant 1 + 2 * sum_{k>=1} P{W_k > 1} that enters the
    common asymptotic variance theta*(theta*c - 1) of the extremal index
    estimators.  The analytic path sums the series in closed form (iid: 1;
    armax: (1+alpha)/(1-alpha); moving_max: a finite sum, 1+q for equal
    weights).  The MC path truncates at ``lags``; see
    ``count_variance_truncation_bound`` for the remainder envelope.
    """
    if method == "analytic":
        if spec.family == "iid_frechet":
            return 1.0
        if spec.family == "armax":
            return (1.0 + spec.alpha) / (1.0 - spec.alpha)
        probs = tail_chain_probs(spec, spec.q, method="analytic")
        return 1.0 + 2.0 * float(probs.sum())
    probs = tail_chain_probs(spec, lags, method="mc", reps=reps, seed=seed)
    return 1.0 + 2.0 * float(probs.sum())


def count_variance_truncation_bound(spec: ModelSpec, lags: int) -> float:
    """Upper envelope on the tail-chain mass ignored beyond ``lags``."""
    if spec.family == "armax":
        return 2.0 * spec.alpha ** (lags + 1) / (1.0 - spec.alpha)
    return 0.0  # iid and moving_max tail chains die after finitely many lags


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
    min_events: int = 500,
) -> ConditionalExceedanceProfile:
    """Estimate the conditional exceedance profile from one long path.

    Simulates enough points that about ``target_events`` exceedances of
    the marginal ``quantile`` occur, then estimates
    P(X_k > u | X_0 > u) for each lag by pair counting.  This is the
    simulator-level cross-check for the tail-chain computations: it sees
    only the path, never the tail-chain algebra.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    u = spec.marginal_quantile(quantile)
    v = 1.0 - quantile
    total = int(math.ceil(target_events / v)) + k_max
    rng = stream(seed, 4)

    pair_counts = np.zeros(k_max, dtype=np.int64)
    batch_vals = []
    n_events = 0
    n_seen = 0
    recent = np.zeros(0, dtype=np.int64)  # absolute exceedance positions, last k_max pts
    for chunk in _path_chunks(spec, total, rng):
        size = chunk.size
        abs_idx = np.flatnonzero(chunk > u).astype(np.int64) + n_seen
        ev = abs_idx.size
        # pairs (t, t+k): counted by the chunk holding the right endpoint, with
        # left endpoints drawn from this chunk or the carried-over recent ones
        lefts = np.concatenate([recent, abs_idx])
        chunk_pairs = np.zeros(k_max, dtype=np.int64)
        for kk in range(1, k_max + 1):
            chunk_pairs[kk - 1] = int(
                np.count_nonzero(np.isin(lefts + kk, abs_idx, assume_unique=True))
            )
        pair_counts += chunk_pairs
        if ev > 0:
            batch_vals.append(
                1.0 + 2.0 * float(np.sum(chunk_pairs / ev - ev / size))
            )
        n_events += ev
        n_seen += size
        all_idx = lefts
        recent = all_idx[all_idx >= n_seen - k_max]
    if n_events < min_events:
        raise InsufficientEventsError(n_events, min_events)
    # lag k conditions only on events with room for a partner k steps ahead
    n_cond = np.array(
        [n_events - int(np.count_nonzero(recent >= n_seen - kk)) for kk in range(1, k_max + 1)]
    )
    probs = pair_counts / np.maximum(n_cond, 1)
    return ConditionalExceedanceProfile(
        probs=probs,
        u=u,
        quantile=quantile,
        n_events=n_events,
        n_points=n_seen,
        v_hat=n_events / n_seen,
        batch_values=np.asarray(batch_vals, dtype=np.float64),
    )
