"""Extremal index estimators and the generic block-ratio estimator.

Four estimators of the extremal index theta (the reciprocal mean cluster
size of extremes) are provided, all of the form

    theta_hat = block statistic / number of exceedances.

* ``theta_disjoint``  - disjoint block maxima over u, divided by the
  exceedance count.
* ``theta_sliding``   - sliding block maxima over u, scaled by 1/s.
* ``theta_runs``      - exceedances followed by s-1 sub-threshold values
  (runs declustering).
* ``theta_sliding_random_u`` - the sliding estimator at a rank-resolved
  threshold (k-th largest order statistic).

Exceedance is strict (x > u) everywhere.  The denominators of the
deterministic-threshold estimators count exceedances among the first
n-s+1 observations ("trimmed"); pass denominator="full" to count over the
whole series instead (the difference is O(s/n)).  The rank-threshold
estimator defaults to the full count, which for distinct values equals
k-1: the k-th largest observation is the threshold itself and does not
strictly exceed it.

Raw values are returned: the disjoint and sliding estimators can exceed 1
in finite samples.  Clip at the reporting layer if desired.

Every ``values`` argument may be a prebuilt ``NormalizedSeries``; see
``NormalizedSeries.of``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blocks import (
    BLOCK_MAX,
    RUNS,
    BlockFunctional,
    NormalizedSeries,
    ThresholdSpec,
    as_series,  # noqa: F401 - not called here; perfbench/tracing.py patches it
    disjoint_block_sum,
    sliding_block_sum,
    sliding_window_max,  # noqa: F401 - not called here; perfbench/tracing.py patches it
)
from .errors import NoExceedancesError, WindowError

__all__ = [
    "ThetaEstimate",
    "RatioEstimate",
    "default_block_length",
    "theta_disjoint",
    "theta_sliding",
    "theta_runs",
    "theta_sliding_random_u",
    "ratio_estimate",
]


@dataclass(frozen=True)
class ThetaEstimate:
    """One extremal index estimate with the ingredients that produced it."""

    method: str
    theta_hat: float
    u_used: float
    s: int
    n: int
    n_exceed: int
    stderr_hat: float | None = None


@dataclass(frozen=True)
class RatioEstimate:
    """A self-normalized block statistic: numerator / exceedance count."""

    functional: str
    xi_hat: float
    numerator: float
    denominator: float
    scale: float


def default_block_length(n: int, k: int) -> int:
    """Default block length for a rank-k threshold: ceil(sqrt(n/k)).

    Grows without bound while s * (k/n) -> 0 whenever k/n -> 0, which is
    what the block asymptotics ask of the tuning sequence.
    """
    return max(1, math.ceil(math.sqrt(n / k)))


def _index(values, u: float, s: int, denominator: str) -> tuple[NormalizedSeries, int]:
    """The exceedance index of (values, u) and the exceedance count that
    the ratio estimators divide by."""
    ns = NormalizedSeries.of(values, u)
    n = ns.n
    if not 1 <= s <= n:
        raise WindowError(f"block length s={s} does not fit series of length {n}")
    if denominator == "trimmed":
        den = int(ns.counts[n - s + 1])
    elif denominator == "full":
        den = int(ns.counts[n])
    else:
        raise ValueError(f"denominator must be 'trimmed' or 'full', got {denominator!r}")
    if den == 0:
        raise NoExceedancesError(n, u)
    return ns, den


def theta_disjoint(
    values, u: float, s: int, denominator: str = "trimmed"
) -> ThetaEstimate:
    """Disjoint blocks estimator: exceeding block maxima / exceedance count.

    Numerator counts the disjoint length-s blocks whose maximum exceeds u
    (floor(n/s) blocks); the denominator counts strict exceedances.
    """
    ns, den = _index(values, u, s, denominator)
    num = disjoint_block_sum(BLOCK_MAX, ns, s)
    return ThetaEstimate("disjoint", num / den, float(u), s, ns.n, den)


def theta_sliding(
    values, u: float, s: int, denominator: str = "trimmed"
) -> ThetaEstimate:
    """Sliding blocks estimator: (1/s) * exceeding window maxima / count."""
    ns, den = _index(values, u, s, denominator)
    num = sliding_block_sum(BLOCK_MAX, ns, s)
    # (num / s) / den, not num / (s * den): keeps the estimate bit-identical
    # to ratio_estimate(BLOCK_MAX, ..., mode="sliding") with unit scale
    return ThetaEstimate("sliding", num / s / den, float(u), s, ns.n, den)


def theta_runs(values, u: float, s: int, denominator: str = "trimmed") -> ThetaEstimate:
    """Runs estimator: exceedances with no further exceedance in the next
    s-1 observations, divided by the exceedance count.

    Always lies in [0, 1]: every numerator event is itself an exceedance
    counted by the denominator.  For s=1 the run condition is vacuous and
    the estimate is exactly 1.
    """
    ns, den = _index(values, u, s, denominator)
    num = sliding_block_sum(RUNS, ns, s)
    return ThetaEstimate("runs", num / den, float(u), s, ns.n, den)


def theta_sliding_random_u(
    values,
    k: int,
    s: int | None = None,
    denominator: str = "full",
) -> ThetaEstimate:
    """Sliding blocks estimator at the rank-k threshold (k-th largest value).

    Resolves u_hat = the k-th largest order statistic and delegates to
    ``theta_sliding`` at that level.  Exceedance stays strict, so under
    distinct values the full-range count is exactly k-1; ties can push it
    lower, and a count of zero (e.g. k=1, or an all-equal series) raises.
    The resolved level is ``u_used`` of the result.
    """
    thr = ThresholdSpec.rank(k).resolve(values)
    ns = NormalizedSeries.of(values, thr.u)
    if s is None:
        s = default_block_length(ns.n, k)
    est = theta_sliding(ns, thr.u, s, denominator=denominator)
    return ThetaEstimate(
        "sliding_random_u", est.theta_hat, est.u_used, est.s, est.n, est.n_exceed
    )


def ratio_estimate(
    g: BlockFunctional,
    values,
    u: float,
    s: int,
    mode: str = "sliding",
    denominator: str = "trimmed",
) -> RatioEstimate:
    """Self-normalized block statistic for an arbitrary functional.

    sliding:  (1/(s*a)) * sum of g over all sliding blocks, over the
    exceedance count;  disjoint: (1/a) * sum over disjoint blocks, over
    the same count.  With g = BLOCK_MAX, a = 1 and mode="sliding" this
    reproduces ``theta_sliding`` exactly.
    """
    ns, den = _index(values, u, s, denominator)
    if mode == "sliding":
        num = sliding_block_sum(g, ns, s) / (s * g.scale)
    elif mode == "disjoint":
        num = disjoint_block_sum(g, ns, s) / g.scale
    else:
        raise ValueError(f"mode must be 'sliding' or 'disjoint', got {mode!r}")
    return RatioEstimate(g.name, num / den, num, float(den), g.scale)
