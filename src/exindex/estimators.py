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
whole series instead (the difference is O(s/n)).  ``ratio_estimate``
always uses the trimmed count.  The rank-threshold estimator always uses
the full count, which for distinct values equals k-1: the k-th largest
observation is the threshold itself and does not strictly exceed it.

Raw values are returned: the disjoint and sliding estimators can exceed 1
in finite samples.  Clip at the reporting layer if desired.

Every ``values`` argument may be a prebuilt ``NormalizedSeries``; see
``NormalizedSeries.of``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .blocks import (
    BLOCK_MAX,
    RUNS,
    BlockFunctional,
    NormalizedSeries,
    ThresholdSpec,
    _check_length,
    _is_count,
    as_series,  # noqa: F401 - not called here; perfbench/tracing.py patches it
    disjoint_block_sum,
    sliding_block_sum,
    sliding_window_max,  # noqa: F401 - not called here; perfbench/tracing.py patches it
)
from .errors import NoExceedancesError

__all__ = [
    "ThetaEstimate",
    "RatioEstimate",
    "default_block_length",
    "default_big_block_length",
    "theta_disjoint",
    "theta_sliding",
    "theta_runs",
    "theta_sliding_random_u",
    "ratio_estimate",
]


@dataclass(frozen=True)
class ThetaEstimate:
    """One extremal index estimate with what produced it: the level, the
    block length, the series length and the exceedance count it divides by."""

    method: str
    theta_hat: float
    u_used: float
    s: int
    n: int
    n_exceed: int


@dataclass(frozen=True)
class RatioEstimate:
    """A functional's (1/s) * sliding block sum over the exceedance count."""

    functional: str
    xi_hat: float


def default_block_length(n: int, k: int) -> int:
    """Default block length for a rank-k threshold: ceil(sqrt(n/k)).

    Grows without bound while s * (k/n) -> 0 whenever k/n -> 0, which is
    what the block asymptotics ask of the tuning sequence.
    """
    if not (_is_count(n, 1) and _is_count(k, 1)):
        raise ValueError(f"n={n!r} and k={k!r} must be integers >= 1")
    return max(1, math.ceil(math.sqrt(n / k)))


def default_big_block_length(n: int, v: float, s: int) -> int:
    """Default big-block length at exceedance rate v: the multiple of s
    nearest sqrt(n * v), and at least 2s."""
    return s * max(2, round(math.sqrt(n * v) / s))


def _index(values, u: float, s: int, denominator: str) -> tuple[NormalizedSeries, int]:
    """The exceedance index of (values, u) and the exceedance count that
    the ratio estimators divide by."""
    ns = NormalizedSeries.of(values, u)
    n = ns.n
    _check_length(s, n)
    if denominator not in ("trimmed", "full"):
        raise ValueError(f"denominator must be 'trimmed' or 'full', got {denominator!r}")
    den = int(ns.count(n - s + 1 if denominator == "trimmed" else n))
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
    # to ratio_estimate(BLOCK_MAX, ...)
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


def theta_sliding_random_u(values, k: int, s: int) -> ThetaEstimate:
    """Sliding blocks estimator at the rank-k threshold (k-th largest value).

    Resolves u_hat = the k-th largest order statistic and delegates to
    ``theta_sliding`` at that level.  Exceedance stays strict, so under
    distinct values the full-range count is exactly k-1; ties can push it
    lower, and a count of zero (e.g. k=1, or an all-equal series) raises.
    The resolved level is ``u_used`` of the result.
    """
    u = ThresholdSpec.rank(k).resolve(values).u
    return replace(theta_sliding(values, u, s, denominator="full"), method="sliding_random_u")


def ratio_estimate(g: BlockFunctional, values, u: float, s: int) -> RatioEstimate:
    """Self-normalized sliding block statistic for an arbitrary functional:
    (1/s) * sum of g over all sliding blocks, over the exceedance count.
    With g = BLOCK_MAX this reproduces ``theta_sliding`` exactly.
    """
    ns, den = _index(values, u, s, "trimmed")
    return RatioEstimate(g.name, sliding_block_sum(g, ns, s) / s / den)
