"""Pre-asymptotic variance estimation for block statistics.

The asymptotic variances of sliding and disjoint block statistics are
limits of normalized variances of sums over "big blocks" of r consecutive
indices.  The estimators here are the natural plug-ins: split the series
into m = floor((n-s+1)/r) big blocks, form the per-block inner sums B_i
and exceedance counts N_i, and take sample moments across blocks.

With a the functional's scale, v_hat the empirical exceedance rate over
the full series, and k = s for sliding sums, 1 for disjoint ones (which
require s | r):

* sum variance:          Var(B) / (r * v_hat * k^2 * a^2)
* count second moment:   mean(N_i^2) / (r * v_hat)
* sum/count covariance:  Cov(B, N) / (r * v_hat * a * k)

Sample variance and covariance use the unbiased m-1 divisor; the count
second moment is uncentered, matching its limit definition.

``variance_report`` checks the scheme and builds N once and B once per
mode, and reads its five plug-ins off those arrays.  Unless ``xi`` is
given, the ratio estimate of g is a third pass over the windows.  One pass
per (g, index, s) would do, but ``perfbench/tracing.py`` times
``ratio_estimate`` and ``big_block_sums`` by patching these names.

``plugin_asymptotic_variance`` assembles theta*(theta*c - 1), the common
limit variance of the extremal index estimators under sqrt(n*v) scaling,
and ``loewner_compare`` decides whether one small covariance matrix
dominates another in the Loewner (positive semi-definite) order.

Every ``values`` argument may be a prebuilt ``NormalizedSeries``; see
``NormalizedSeries.of``.
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
from .errors import (
    DegenerateVarianceWarning,
    InsufficientBlocksError,
    NoExceedancesError,
)
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


def _prepare(values, u: float, scheme: BlockScheme, min_blocks: int):
    """The index, v_hat and the exceedance counts per big block (raw
    positions 1..m*r), after checking the scheme against the series."""
    ns = NormalizedSeries.of(values, u)
    if scheme.n != ns.n:
        raise ValueError(f"scheme n={scheme.n} does not match series length {ns.n}")
    if scheme.m < min_blocks:
        raise InsufficientBlocksError(
            f"need at least {min_blocks} big blocks, have m={scheme.m} "
            f"(n={scheme.n}, s={scheme.s}, r={scheme.r})"
        )
    v_hat = int(ns.counts[ns.n]) / ns.n
    if v_hat == 0.0:
        raise NoExceedancesError(ns.n, u)
    edges = ns.counts[: scheme.m * scheme.r + 1 : scheme.r]
    return ns, v_hat, np.diff(edges).astype(np.float64)


def _var_norm(scheme: BlockScheme, v_hat: float, k: int, a2):
    """r * v_hat * k^2 * a^2, given a^2 (a_g * a_h for a matrix)."""
    return scheme.r * v_hat * k**2 * a2


def _cov_norm(scheme: BlockScheme, v_hat: float, k: int, a: float) -> float:
    return scheme.r * v_hat * a * k


def sliding_sum_variance(g: BlockFunctional, values, u: float, scheme: BlockScheme) -> float:
    """Plug-in for the asymptotic variance of the sliding blocks statistic.

    Sample variance of the per-big-block sliding sums of g, divided by
    r * v_hat * s^2 * a^2.
    """
    ns, v_hat, _ = _prepare(values, u, scheme, min_blocks=2)
    var = float(np.var(big_block_sums(g, ns, scheme, "sliding"), ddof=1))
    return var / _var_norm(scheme, v_hat, scheme.s, g.scale**2)


def disjoint_sum_variance(g: BlockFunctional, values, u: float, scheme: BlockScheme) -> float:
    """Plug-in for the asymptotic variance of the disjoint blocks statistic.

    Sample variance of the per-big-block disjoint sums of g, divided by
    r * v_hat * a^2.  Requires r to be a multiple of s.
    """
    scheme.require_divisible()
    ns, v_hat, _ = _prepare(values, u, scheme, min_blocks=2)
    var = float(np.var(big_block_sums(g, ns, scheme, "disjoint"), ddof=1))
    return var / _var_norm(scheme, v_hat, 1, g.scale**2)


def count_second_moment(values, u: float, scheme: BlockScheme) -> float:
    """Normalized second moment of per-big-block exceedance counts.

    mean over big blocks of (count of exceedances)^2, divided by
    r * v_hat.  Estimates the count variance constant: about 1 for
    independent exceedances, larger under clustering.
    """
    _, v_hat, counts = _prepare(values, u, scheme, min_blocks=1)
    return float(np.mean(counts**2)) / _var_norm(scheme, v_hat, 1, 1.0)


def sum_count_covariance(
    g: BlockFunctional, values, u: float, scheme: BlockScheme, mode: str
) -> float:
    """Covariance between per-block g-sums and per-block exceedance counts.

    mode picks the g-sum flavour and the normalizer: sliding divides by
    r * v_hat * s * a, disjoint by r * v_hat * a.
    """
    if mode not in ("sliding", "disjoint"):
        raise ValueError(f"mode must be 'sliding' or 'disjoint', got {mode!r}")
    if mode == "disjoint":
        scheme.require_divisible()
    ns, v_hat, counts = _prepare(values, u, scheme, min_blocks=2)
    cov = float(np.cov(big_block_sums(g, ns, scheme, mode), counts, ddof=1)[0, 1])
    k = scheme.s if mode == "sliding" else 1
    return cov / _cov_norm(scheme, v_hat, k, g.scale)


def plugin_asymptotic_variance(theta: float, count_variance: float) -> float:
    """theta * (theta * c - 1): the common limit variance of the estimators.

    theta must lie in (0, 1].  The limit is nonnegative (c >= 1/theta
    always holds asymptotically), but finite-sample plug-ins can produce
    c < 1/theta; the raw, possibly negative number is returned with a
    warning so callers can route to their degenerate-case handling.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    out = theta * (theta * count_variance - 1.0)
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
    """Outcome of a Loewner-order comparison of ``disjoint - sliding``."""

    dominated: bool
    min_eigenvalue: float
    tol: float


def loewner_compare(pair: CovMatrixPair, tol: float | None = None) -> LoewnerResult:
    """Is the sliding covariance dominated by the disjoint one?

    Computes the minimum eigenvalue of disjoint - sliding (symmetric
    eigensolve); dominated iff it is >= -tol.  tol defaults to
    1e-8 * trace(disjoint), suited to exactness checks; Monte Carlo
    callers should pass a tolerance scaled to their sampling noise.
    """
    diff = pair.disjoint - pair.sliding
    if tol is None:
        tol = 1e-8 * float(np.trace(pair.disjoint))
    lam_min = float(np.linalg.eigvalsh(diff)[0])
    return LoewnerResult(dominated=lam_min >= -tol, min_eigenvalue=lam_min, tol=float(tol))


@dataclass(frozen=True)
class VarianceReport:
    """All five big-block plug-ins for one functional, plus the adjusted
    (self-normalized ratio) variances.

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
    scheme: BlockScheme


def variance_report(
    g: BlockFunctional, values, u: float, scheme: BlockScheme, xi: float | None = None
) -> VarianceReport:
    """Assemble the full variance report for one functional.

    If ``xi`` is not given, the realized sliding ratio estimate of the
    functional is plugged in (for the block-maximum indicator this
    estimates the extremal index itself).
    """
    ns = NormalizedSeries.of(values, u)
    if xi is None:
        xi = ratio_estimate(g, ns, u, scheme.s, mode="sliding").xi_hat
    ns, v_hat, counts = _prepare(ns, u, scheme, min_blocks=2)
    slide = big_block_sums(g, ns, scheme, "sliding")
    disj = big_block_sums(g, ns, scheme, "disjoint")  # requires s | r
    s, a = scheme.s, g.scale
    c_s = float(np.var(slide, ddof=1)) / _var_norm(scheme, v_hat, s, a**2)
    c_d = float(np.var(disj, ddof=1)) / _var_norm(scheme, v_hat, 1, a**2)
    c_v = float(np.mean(counts**2)) / _var_norm(scheme, v_hat, 1, 1.0)
    c_sv = float(np.cov(slide, counts, ddof=1)[0, 1]) / _cov_norm(scheme, v_hat, s, a)
    c_dv = float(np.cov(disj, counts, ddof=1)[0, 1]) / _cov_norm(scheme, v_hat, 1, a)
    return VarianceReport(
        functional=g.name,
        sliding_var=c_s,
        disjoint_var=c_d,
        count_moment=c_v,
        sliding_count_cov=c_sv,
        disjoint_count_cov=c_dv,
        xi=float(xi),
        ratio_sliding_var=c_s + xi**2 * c_v - 2.0 * xi * c_sv,
        ratio_disjoint_var=c_d + xi**2 * c_v - 2.0 * xi * c_dv,
        v_hat=v_hat,
        scheme=scheme,
    )


def block_covariance_pair(
    functionals: list[BlockFunctional], values, u: float, scheme: BlockScheme
) -> CovMatrixPair:
    """Within-series covariance matrices of big-block sums over a
    functional set, normalized like the variance plug-ins.

    Entry (g, h) of the sliding matrix is Cov(B(g), B(h)) over big blocks
    divided by r * v_hat * s^2 * a_g * a_h; the disjoint matrix divides by
    r * v_hat * a_g * a_h.
    """
    if not 1 <= len(functionals) <= MAX_FUNCTIONAL_SET:
        raise ValueError(
            f"need between 1 and {MAX_FUNCTIONAL_SET} functionals, got {len(functionals)}"
        )
    scheme.require_divisible()
    ns, v_hat, _ = _prepare(values, u, scheme, min_blocks=2)
    scales = np.array([g.scale for g in functionals])
    slide = np.vstack([big_block_sums(g, ns, scheme, "sliding") for g in functionals])
    disj = np.vstack([big_block_sums(g, ns, scheme, "disjoint") for g in functionals])
    outer = np.outer(scales, scales)
    c_s = np.cov(slide, ddof=1) / _var_norm(scheme, v_hat, scheme.s, outer)
    c_d = np.cov(disj, ddof=1) / _var_norm(scheme, v_hat, 1, outer)
    return CovMatrixPair(
        names=tuple(g.name for g in functionals),
        sliding=np.atleast_2d(c_s),
        disjoint=np.atleast_2d(c_d),
    )
