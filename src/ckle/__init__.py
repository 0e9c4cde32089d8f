"""Minimum cumulative Kullback-Leibler estimation.

Point estimation for parametric families on the real line by minimizing the
cumulative KL divergence between the empirical and model survival/CDF
curves, with the matching asymptotic-inference layer (variances, sandwich
estimator, Wald and divergence intervals, divergence-difference testing,
power and sample-size calculations) and a seeded Monte Carlo harness.
"""

from .empirical import (Sample, build_sample, ecdf_eval,
                        empirical_entropy_constant, esf_eval)
from .errors import (CkleError, DataError, DomainError, InferenceError,
                     ParseError, SupportViolation)
from .inference import (AsymptoticVariance, IntervalResult, SampleSizeResult,
                        SandwichEstimate, TestResult, avar_matrix, avar_scalar,
                        c_value, chi2_quantile_df1, chi2_sf_df1,
                        divergence_interval, gddt_test, pivotal_q,
                        power_approx, required_sample_size, sandwich, wald_ci)
from .models import (EXPONENTIAL, FAMILIES, LAPLACE, NORMAL, PARETO,
                     TWOPARAMEXP, ParamVector, get_family)
from .objective import (ObjectiveContext, ckl_divergence, g_objective, gee_sum,
                        psi_matrix)
from .rng import make_rng, uniform_open
from .simulate import (BiasReport, CoverageReport, RegionCutoffs,
                       SimulationReport, StudyConfig, bias_check_exponential,
                       coverage_study, divergence_region_cutoffs, run_study)
from .solver import (FitResult, NMResult, fit, minimize_nelder_mead,
                     solve_pareto_profile)

__version__ = "0.1.0"

__all__ = [
    "Sample", "build_sample", "ecdf_eval", "esf_eval", "empirical_entropy_constant",
    "CkleError", "DataError", "DomainError", "InferenceError", "ParseError",
    "SupportViolation",
    "AsymptoticVariance", "IntervalResult", "RegionCutoffs", "SampleSizeResult",
    "SandwichEstimate", "TestResult", "avar_matrix", "avar_scalar", "c_value",
    "chi2_quantile_df1", "chi2_sf_df1", "divergence_interval",
    "divergence_region_cutoffs", "gddt_test", "pivotal_q", "power_approx",
    "required_sample_size", "sandwich", "wald_ci",
    "EXPONENTIAL", "FAMILIES", "LAPLACE", "NORMAL", "PARETO", "TWOPARAMEXP",
    "ParamVector", "get_family",
    "ObjectiveContext", "ckl_divergence", "g_objective", "gee_sum",
    "psi_matrix", "make_rng", "uniform_open",
    "BiasReport", "CoverageReport", "SimulationReport", "StudyConfig",
    "bias_check_exponential", "coverage_study", "run_study",
    "FitResult", "NMResult", "fit",
    "minimize_nelder_mead", "solve_pareto_profile",
]
