"""Peaks-over-threshold block statistics for stationary time series.

Block functionals over sliding/disjoint windows, four extremal index
estimators, pre-asymptotic variance estimators for comparing sliding and
disjoint block statistics, heavy-tailed simulators with known extremal
index, and a reproducible Monte Carlo harness that checks the estimators'
limit behavior against the simulators' ground truth.
"""

from .blocks import (
    BLOCK_MAX,
    BUILTIN_FUNCTIONALS,
    FIRST_EXCEED,
    RUNS,
    BlockFunctional,
    BlockScheme,
    NormalizedSeries,
    ThresholdSpec,
    as_series,
    big_block_sums,
    disjoint_block_sum,
    sliding_block_sum,
    sliding_window_max,
)
from .errors import (
    ConfigError,
    DegenerateVarianceWarning,
    ExindexError,
    HarnessAbort,
    InsufficientBlocksError,
    InsufficientEventsError,
    InsufficientSampleError,
    InvalidThresholdError,
    NoExceedancesError,
    SchemeError,
    WindowError,
)
from .estimators import (
    RatioEstimate,
    ThetaEstimate,
    default_big_block_length,
    default_block_length,
    ratio_estimate,
    theta_disjoint,
    theta_runs,
    theta_sliding,
    theta_sliding_random_u,
)
from .harness import (
    Bands,
    ExperimentConfig,
    ExperimentResult,
    NormalityDiagnostic,
    equal_limit_law_check,
    loewner_check,
    normality_diagnostic,
    run_experiment,
    summarize,
    variance_dominance_check,
)
from .models import (
    ConditionalExceedanceProfile,
    ModelSpec,
    conditional_exceedance_profile,
    count_variance_limit,
    simulate,
    tail_chain_probs,
    theta_oracle_mc,
)
from .variance import (
    CovMatrixPair,
    LoewnerResult,
    VarianceReport,
    block_covariance_pair,
    count_second_moment,
    disjoint_sum_variance,
    loewner_compare,
    plugin_asymptotic_variance,
    sliding_sum_variance,
    sum_count_covariance,
    variance_report,
)

__version__ = "0.1.0"
