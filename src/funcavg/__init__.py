"""Functional average estimation: estimators, range-based intervals,
regression adjustment, diagnostics, and the Monte Carlo harness that
exercises them.

The package estimates the uniform average of a bounded variable's
support, a target that stays identified under kinds of confounding that
break mean-based contrasts, and builds conservative confidence sets for
it from bootstrap ranges rather than variance estimates.
"""

from .bootstrap import (
    BootstrapConfig,
    BootstrapDistribution,
    hoeffding_ci,
    hoeffding_u_ci,
    percentile_ci,
    popoviciu_check,
    resample,
    sqrt_resample_size,
)
from .dataset import Dataset, TwoArmSample
from .diagnostics import (
    EcdfCurve,
    SupportSymmetryReport,
    ecdf,
    mean_midrange_distance,
    residual_support_symmetry,
    sum_symmetry_gap,
    support_areas,
)
from .distributions import (
    BernoulliSpec,
    BinomialSpec,
    TruncatedNormalSpec,
    round_to_integers,
    sample_bernoulli,
    sample_bernoulli_probs,
    sample_binomial,
    sample_truncated_normal,
    true_functional_average,
)
from .errors import (
    ConvergenceError,
    CsvParseError,
    DataError,
    FuncavgError,
    ParameterError,
    ResampleError,
    SchemaError,
    SingularDesignError,
    StratificationError,
)
from .estimators import discrete_plugin_average, midrange, sample_mean
from .formula import ModelSpec, Term
from .intervals import IntervalEstimate
from .regression import (
    DesignMatrix,
    LogisticFit,
    RegressionFit,
    build_design,
    design_from_columns,
    logistic_fit,
    ols_fit,
    propensity_strata,
    ps_stratified_contrast,
    standardization_bootstrap_se,
    standardization_contrast,
    t_ci,
    u_concentration_ci,
)
from .rng import RngStream
from .simharness import (
    ExperimentReport,
    ExperimentSpec,
    ReportRow,
    desk_spec,
    empirical_coverage,
    empirical_power,
    full_spec,
    report_csv,
    report_text,
    run_experiment,
    variant_labels,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliSpec",
    "BinomialSpec",
    "BootstrapConfig",
    "BootstrapDistribution",
    "ConvergenceError",
    "CsvParseError",
    "DataError",
    "Dataset",
    "DesignMatrix",
    "EcdfCurve",
    "ExperimentReport",
    "ExperimentSpec",
    "FuncavgError",
    "IntervalEstimate",
    "LogisticFit",
    "ModelSpec",
    "ParameterError",
    "RegressionFit",
    "ReportRow",
    "ResampleError",
    "RngStream",
    "SchemaError",
    "SingularDesignError",
    "StratificationError",
    "SupportSymmetryReport",
    "Term",
    "TruncatedNormalSpec",
    "TwoArmSample",
    "build_design",
    "desk_spec",
    "design_from_columns",
    "discrete_plugin_average",
    "ecdf",
    "empirical_coverage",
    "empirical_power",
    "full_spec",
    "hoeffding_ci",
    "hoeffding_u_ci",
    "logistic_fit",
    "mean_midrange_distance",
    "midrange",
    "ols_fit",
    "percentile_ci",
    "popoviciu_check",
    "propensity_strata",
    "ps_stratified_contrast",
    "report_csv",
    "report_text",
    "resample",
    "residual_support_symmetry",
    "round_to_integers",
    "run_experiment",
    "sample_bernoulli",
    "sample_bernoulli_probs",
    "sample_binomial",
    "sample_mean",
    "sample_truncated_normal",
    "sqrt_resample_size",
    "standardization_bootstrap_se",
    "standardization_contrast",
    "sum_symmetry_gap",
    "support_areas",
    "t_ci",
    "true_functional_average",
    "u_concentration_ci",
    "variant_labels",
    "write_report",
    "__version__",
]
