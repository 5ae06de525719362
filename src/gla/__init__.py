"""Label-prior estimation, logit debiasing and generalized logit-adjusted
ensembling, with a synthetic label-shift laboratory.

The public names and the submodules are loaded on first use (PEP 562), so
`import gla` alone imports none of them, and a `gla` command loads only
the modules it runs.
"""

from importlib import import_module as _import_module

# the public names, by home module; each module named here is public too
_EXPORTS = {
    "errors": (),
    "numerics": (
        "LabelledLogits",
        "LogitTable",
        "ProbabilitySimplex",
        "l1_distance",
        "log_prior",
        "project_to_simplex",
        "softmax_row",
    ),
    "prior_estimation": (
        "TransitionMatrix",
        "build_transition_matrix",
        "estimate_prior_m1",
        "estimate_prior_m2",
        "estimate_prior_naive",
        "m2_error_bound",
        "power_iterate",
    ),
    "ensemble": (
        "AdjustmentSpec",
        "alpha_mix",
        "debias_zero_shot",
        "gla_combine",
        "logit_adjust",
        "naive_ensemble",
    ),
    "evaluation": (
        "ConvergenceStudy",
        "EvalReport",
        "balanced_error",
        "breakdown_groups",
        "breakdown_report",
        "run_convergence_study",
        "top1_error",
    ),
    "synthlab": (
        "SyntheticTaskConfig",
        "bayes_risk",
        "binary_naive_bias",
        "make_task",
        "sample_batch",
        "sample_shots",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
