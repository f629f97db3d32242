"""Pre-asymptotic variance estimation for block statistics.

The asymptotic variances of sliding and disjoint block statistics are
limits of normalized variances of sums over "big blocks" of r consecutive
indices.  The estimators here are the natural plug-ins: split the series
into m = floor((n-s+1)/r) big blocks, form the per-block inner sums B_i
and exceedance counts N_i, and take sample moments across blocks.

Each plug-in divides by r * v_hat from one preparation, v_hat the exceedance
rate over the series, with k = s for sliding sums, 1 for disjoint (needs s | r):

* sum variance:          Var(B) / (r * v_hat * k^2)
* count second moment:   mean(N_i^2) / (r * v_hat)
* sum/count covariance:  Cov(B, N) / (r * v_hat * k)

Sample variance and covariance use the unbiased m-1 divisor; the count
second moment is uncentered, matching its limit definition.  The mode of
a sum ("sliding" or "disjoint") is checked once, by ``big_block_sums``.

``variance_report`` builds the exceedance index once and calls the five
single plug-ins on it.  The index holds the exceedance positions, from
which N is counted in O(K) per plug-in for K exceedances, and after first
use each functional's kept window starts, with a custom g's values there:
B counts a built-in's starts per big block and adds g's values, so one
report calls g once per window that holds an exceedance.

``plugin_asymptotic_variance`` assembles theta*(theta*c - 1), the common
limit variance of the extremal index estimators under sqrt(n*v) scaling,
and ``loewner_compare`` decides whether one small covariance matrix
dominates another in the Loewner (positive semi-definite) order.

Every ``values`` argument may be a prebuilt ``NormalizedSeries`` (``NormalizedSeries.of``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockFunctional,
    BlockScheme,
    NormalizedSeries,
    as_series,  # noqa: F401 - not called here; perfbench/tracing.py patches it
    big_block_sums,
)
from .errors import DegenerateVarianceWarning, NoExceedancesError
from .estimators import ratio_estimate

__all__ = [
    "VarianceReport",
    "CovMatrixPair",
    "LoewnerResult",
    "MAX_FUNCTIONAL_SET",
    "sliding_sum_variance",
    "disjoint_sum_variance",
    "count_second_moment",
    "sum_count_covariance",
    "plugin_asymptotic_variance",
    "loewner_compare",
    "variance_report",
    "block_covariance_pair",
]

#: Largest functional set the Loewner comparison accepts.
MAX_FUNCTIONAL_SET = 16


def _prepare(values, u: float, scheme: BlockScheme, min_blocks: int = 2):
    """The index and the plug-in divisor r * v_hat, after checking the
    scheme against the series."""
    ns = NormalizedSeries.of(values, u)
    scheme.fit(ns.n, min_blocks)
    v_hat = int(ns.count(ns.n)) / ns.n
    if v_hat == 0.0:
        raise NoExceedancesError(ns.n, u)
    return ns, scheme.r * v_hat


def _big_block_counts(ns: NormalizedSeries, scheme: BlockScheme) -> np.ndarray:
    """The exceedance counts N_i per big block (raw positions 1..m*r)."""
    big_block = ns.positions[: ns.count(scheme.m * scheme.r)] // scheme.r
    return np.bincount(big_block, minlength=scheme.m).astype(np.float64)


def sliding_sum_variance(g: BlockFunctional, values, u: float, scheme: BlockScheme) -> float:
    """Plug-in for the asymptotic variance of the sliding blocks statistic.

    Sample variance of the per-big-block sliding sums of g, divided by
    r * v_hat * s^2.
    """
    ns, rv = _prepare(values, u, scheme)
    return float(np.var(big_block_sums(g, ns, scheme, "sliding"), ddof=1)) / (rv * scheme.s**2)


def disjoint_sum_variance(g: BlockFunctional, values, u: float, scheme: BlockScheme) -> float:
    """Plug-in for the asymptotic variance of the disjoint blocks statistic.

    Sample variance of the per-big-block disjoint sums of g, divided by
    r * v_hat.  Requires r to be a multiple of s.
    """
    scheme.require_divisible()
    ns, rv = _prepare(values, u, scheme)
    return float(np.var(big_block_sums(g, ns, scheme, "disjoint"), ddof=1)) / rv


def count_second_moment(values, u: float, scheme: BlockScheme) -> float:
    """Normalized second moment of per-big-block exceedance counts.

    mean over big blocks of (count of exceedances)^2, divided by
    r * v_hat.  Estimates the count variance constant: about 1 for
    independent exceedances, larger under clustering.
    """
    ns, rv = _prepare(values, u, scheme, min_blocks=1)
    return float(np.mean(_big_block_counts(ns, scheme) ** 2)) / rv


def sum_count_covariance(
    g: BlockFunctional, values, u: float, scheme: BlockScheme, mode: str
) -> float:
    """Covariance between per-block g-sums and per-block exceedance counts.

    mode picks the g-sum flavour and the normalizer: sliding divides by
    r * v_hat * s, disjoint by r * v_hat; ``big_block_sums`` checks it.
    """
    if mode == "disjoint":
        scheme.require_divisible()
    ns, rv = _prepare(values, u, scheme)
    cov = float(np.cov(big_block_sums(g, ns, scheme, mode), _big_block_counts(ns, scheme),
                       ddof=1)[0, 1])
    return cov / (rv * (scheme.s if mode == "sliding" else 1))


def plugin_asymptotic_variance(theta: float, count_variance: float) -> float:
    """theta * (theta * c - 1): the common limit variance of the estimators.

    theta must lie in (0, 1].  The limit is nonnegative (c >= 1/theta
    always holds asymptotically), but finite-sample plug-ins can produce
    c < 1/theta; the raw, possibly negative number is returned with a
    warning so callers can route to their degenerate-case handling.
    A theta * c within 4 epsilons of 1 (equal-weight moving maxima land
    there by rounding) is the degenerate limit and gives 0.0.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    tc = theta * count_variance
    out = 0.0 if abs(tc - 1.0) <= 4 * np.finfo(float).eps else float(theta * (tc - 1.0))
    if out < 0.0:
        warnings.warn(
            f"plug-in variance {out:.6g} is negative (count variance "
            f"{count_variance:.6g} < 1/theta={1.0 / theta:.6g}); treating as degenerate",
            DegenerateVarianceWarning,
            stacklevel=2,
        )
    return out


@dataclass(frozen=True)
class CovMatrixPair:
    """Covariance matrices of sliding and disjoint statistics over one
    functional set, in matching row/column order."""

    names: tuple[str, ...]
    sliding: np.ndarray
    disjoint: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sliding, dtype=np.float64)
        d = np.asarray(self.disjoint, dtype=np.float64)
        if s.shape != d.shape or s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(
                f"matrices must be square and same shape, got {s.shape} vs {d.shape}"
            )
        if s.shape[0] > MAX_FUNCTIONAL_SET:
            raise ValueError(
                f"functional sets larger than {MAX_FUNCTIONAL_SET} are not supported"
            )
        if not np.allclose(s, s.T, atol=1e-12) or not np.allclose(d, d.T, atol=1e-12):
            raise ValueError("covariance matrices must be symmetric")
        object.__setattr__(self, "sliding", s)
        object.__setattr__(self, "disjoint", d)


@dataclass(frozen=True)
class LoewnerResult:
    """The Loewner verdict on ``disjoint - sliding`` and its minimum eigenvalue."""

    dominated: bool
    min_eigenvalue: float


def loewner_compare(pair: CovMatrixPair, tol: float | None = None) -> LoewnerResult:
    """Is the sliding covariance dominated by the disjoint one?

    Computes the minimum eigenvalue of disjoint - sliding (symmetric
    eigensolve); dominated unless it is below -tol, so an undefined (NaN)
    tol decides nothing against it.  tol defaults to 1e-8 *
    trace(disjoint), suited to exactness checks; Monte Carlo callers
    should pass a tolerance scaled to their sampling noise.
    """
    diff = pair.disjoint - pair.sliding
    if tol is None:
        tol = 1e-8 * float(np.trace(pair.disjoint))
    lam_min = float(np.linalg.eigvalsh(diff)[0])
    return LoewnerResult(dominated=not lam_min < -tol, min_eigenvalue=lam_min)


@dataclass(frozen=True)
class VarianceReport:
    """All five big-block plug-ins for one functional, plus the adjusted
    (self-normalized ratio) variances and the xi and v_hat behind them.

    ``ratio_sliding_var`` and ``ratio_disjoint_var`` follow the
    delta-method combination  c + xi^2 * c_count - 2 * xi * c_cross  with
    the same xi used on both sides so the two are comparable.
    """

    functional: str
    sliding_var: float
    disjoint_var: float
    count_moment: float
    sliding_count_cov: float
    disjoint_count_cov: float
    xi: float
    ratio_sliding_var: float
    ratio_disjoint_var: float
    v_hat: float


def variance_report(g: BlockFunctional, values, u: float, scheme: BlockScheme) -> VarianceReport:
    """Assemble the full variance report for one functional.

    xi is the realized sliding ratio estimate of the functional (for the
    block-maximum indicator, an estimate of the extremal index); the ratio
    variances at any other xi follow from the report's other fields.
    """
    ns = NormalizedSeries.of(values, u)
    xi = ratio_estimate(g, ns, u, scheme.s).xi_hat
    c_s = sliding_sum_variance(g, ns, u, scheme)
    c_d = disjoint_sum_variance(g, ns, u, scheme)
    c_v = count_second_moment(ns, u, scheme)
    c_sv = sum_count_covariance(g, ns, u, scheme, "sliding")
    c_dv = sum_count_covariance(g, ns, u, scheme, "disjoint")
    return VarianceReport(
        functional=g.name,
        sliding_var=c_s,
        disjoint_var=c_d,
        count_moment=c_v,
        sliding_count_cov=c_sv,
        disjoint_count_cov=c_dv,
        xi=xi,
        ratio_sliding_var=c_s + xi**2 * c_v - 2.0 * xi * c_sv,
        ratio_disjoint_var=c_d + xi**2 * c_v - 2.0 * xi * c_dv,
        v_hat=int(ns.count(ns.n)) / ns.n,
    )


def block_covariance_pair(
    functionals: list[BlockFunctional], values, u: float, scheme: BlockScheme
) -> CovMatrixPair:
    """Within-series covariance matrices of big-block sums over a
    functional set, normalized like the variance plug-ins.

    Entry (g, h) of the sliding matrix is Cov(B(g), B(h)) over big blocks
    divided by r * v_hat * s^2; the disjoint matrix divides by r * v_hat.
    """
    if not 1 <= len(functionals) <= MAX_FUNCTIONAL_SET:
        raise ValueError(
            f"need between 1 and {MAX_FUNCTIONAL_SET} functionals, got {len(functionals)}"
        )
    scheme.require_divisible()
    ns, rv = _prepare(values, u, scheme)
    slide = np.vstack([big_block_sums(g, ns, scheme, "sliding") for g in functionals])
    disj = np.vstack([big_block_sums(g, ns, scheme, "disjoint") for g in functionals])
    c_s = np.cov(slide, ddof=1) / (rv * scheme.s**2)
    c_d = np.cov(disj, ddof=1) / rv
    return CovMatrixPair(
        names=tuple(g.name for g in functionals),
        sliding=np.atleast_2d(c_s),
        disjoint=np.atleast_2d(c_d),
    )
