"""Exception types shared across the package.

Every data-degenerate condition gets its own class so callers can
distinguish "your data has no exceedances" from "your block scheme is
inconsistent" without string matching.  Each class states the CLI exit
code it ends a run with: 2 for a usage or configuration error, 3 for
degenerate data, and 4, on the base class, for an internal error.
"""

from __future__ import annotations


class ExindexError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class InvalidThresholdError(ExindexError):
    """Threshold level is unusable (e.g. u <= 0 with positive observations)."""

    exit_code = 2


class WindowError(ExindexError):
    """Block length is not an integer in 1..n (a bool is refused too)."""

    exit_code = 2


class SchemeError(ExindexError):
    """Block scheme violates 1 <= s <= r <= n or a divisibility requirement."""

    exit_code = 2


class NoExceedancesError(ExindexError):
    """No observation exceeds the threshold, so a ratio estimate is undefined."""

    exit_code = 3

    def __init__(self, n: int, u: float) -> None:
        super().__init__(f"no exceedances above u={u!r} in a series of length {n}")
        self.n = n
        self.u = u


class InsufficientBlocksError(ExindexError):
    """Fewer big blocks than the variance estimator needs (m < 2)."""

    exit_code = 3


class InsufficientEventsError(ExindexError):
    """A conditional Monte Carlo estimate collected too few conditioning events."""

    exit_code = 3

    def __init__(self, achieved: int, required: int) -> None:
        super().__init__(
            f"only {achieved} conditioning events occurred, need at least {required}"
        )
        self.achieved = achieved
        self.required = required


class InsufficientSampleError(ExindexError):
    """Too few values for a distributional diagnostic."""

    exit_code = 3


class ConfigError(ExindexError):
    """Experiment or CLI configuration is invalid; message lists all violations."""

    exit_code = 2

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class HarnessAbort(ExindexError):
    """Too many replicates failed for the experiment summary to be meaningful."""

    exit_code = 3


class DegenerateVarianceWarning(UserWarning):
    """Plug-in asymptotic variance came out non-positive (degenerate limit)."""
