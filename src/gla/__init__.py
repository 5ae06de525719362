"""Label-prior estimation, logit debiasing and generalized logit-adjusted
ensembling, with a synthetic label-shift laboratory."""

from .numerics import (
    LabelledLogits,
    LogitTable,
    ProbabilitySimplex,
    l1_distance,
    log_prior,
    project_to_simplex,
    softmax_row,
)
from .prior_estimation import (
    BoundQuery,
    TransitionMatrix,
    build_transition_matrix,
    estimate_prior_m1,
    estimate_prior_m2,
    estimate_prior_naive,
    m2_error_bound,
    power_iterate,
)
from .ensemble import (
    AdjustmentSpec,
    MixSpec,
    alpha_mix,
    debias_zero_shot,
    gla_combine,
    logit_adjust,
    naive_ensemble,
)
from .evaluation import (
    ConvergenceStudy,
    EvalReport,
    balanced_error,
    breakdown_groups,
    breakdown_report,
    run_convergence_study,
    top1_error,
)
from .synthlab import (
    SyntheticTaskConfig,
    bayes_risk,
    binary_naive_bias,
    make_task,
    sample_batch,
    sample_shots,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
