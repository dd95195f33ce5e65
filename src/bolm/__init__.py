"""Bivariate ordered logistic models fit by penalized maximum likelihood.

The response is a pair of ordinal variables.  Marginal distributions
enter through global logits, the association through log global odds
ratios, and both may depend on covariates.  Fitting is penalized Fisher
scoring; smoothness and ordering penalties stabilize or constrain the
category-dependent coefficient profiles.
"""

from .estimator import (
    FitOptions,
    FitResult,
    deviance_g2,
    fit,
    fit_batch,
    unpenalized_fisher,
)
from .inference import (
    LambdaNullSummary,
    LrpNullResult,
    LrpResult,
    NullReplicateRecord,
    default_null_calibration_truth,
    effective_dimension,
    gray_flattening_law,
    gray_null_weights,
    gray_weights_from_information,
    is_nested,
    lrp_statistic,
    ppom_chi2_test,
    simulate_lrp_null,
    structural_df,
    weighted_chisq_pvalue,
    weighted_chisq_quantile,
    with_global_effect,
)
from .link_map import (
    IncompatibleEta,
    compatible_eta_mask,
    d_pi_d_eta,
    empirical_log_gors,
    eta_to_pi,
    eta_to_pi_batch,
    pi_to_eta,
)
from .model_core import (
    INTERCEPT,
    Dataset,
    EquationTerms,
    Group,
    ModelSpec,
    OrdinalPair,
    ParamLayout,
    build_design_matrix,
    flatten_index,
)
from .penalties import (
    PenaltyConfig,
    build_penalty_matrix,
    difference_matrix,
    penalty_value,
)
from .simulation import (
    BenchmarkResult,
    CovariateLaw,
    GeneratingModel,
    TableRow,
    default_loss_benchmark_truth,
    run_table1_experiment,
    sample_dataset,
    smoothing_config,
    uniform_proportional_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "CovariateLaw",
    "Dataset",
    "EquationTerms",
    "FitOptions",
    "FitResult",
    "GeneratingModel",
    "Group",
    "INTERCEPT",
    "IncompatibleEta",
    "LambdaNullSummary",
    "LrpNullResult",
    "LrpResult",
    "ModelSpec",
    "NullReplicateRecord",
    "OrdinalPair",
    "ParamLayout",
    "PenaltyConfig",
    "TableRow",
    "build_design_matrix",
    "build_penalty_matrix",
    "compatible_eta_mask",
    "d_pi_d_eta",
    "default_loss_benchmark_truth",
    "default_null_calibration_truth",
    "deviance_g2",
    "difference_matrix",
    "effective_dimension",
    "empirical_log_gors",
    "eta_to_pi",
    "eta_to_pi_batch",
    "fit",
    "fit_batch",
    "flatten_index",
    "gray_flattening_law",
    "gray_null_weights",
    "gray_weights_from_information",
    "is_nested",
    "lrp_statistic",
    "penalty_value",
    "pi_to_eta",
    "ppom_chi2_test",
    "run_table1_experiment",
    "sample_dataset",
    "simulate_lrp_null",
    "smoothing_config",
    "structural_df",
    "uniform_proportional_spec",
    "unpenalized_fisher",
    "weighted_chisq_pvalue",
    "weighted_chisq_quantile",
    "with_global_effect",
    "__version__",
]
