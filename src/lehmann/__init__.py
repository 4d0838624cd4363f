"""Distributions generated by powering a base CDF or survival function.

The package builds the two powered families G(x) = F(x)**lam and
G(x) = 1 - (1 - F(x))**lam over pluggable base laws, and provides
sampling, moments, closed-form exponent MLEs, profile likelihood fits,
KL divergences, the closed-form power loss of the mis-specified LRT,
and a calibrated Monte Carlo power study, plus a CLI (``lehmann``).
"""

from .base_dist import (
    FAMILIES,
    BaseDistribution,
    Exponential,
    Support,
    Uniform,
    Weibull,
    register_family,
)
from .descriptors import parse_base, parse_distribution
from .errors import (
    DegenerateSampleError,
    DomainError,
    LehmannError,
    NumericalError,
    ParseError,
    SupportError,
)
from .estimate import FitResult, fit_full, fit_restricted, loglik, mle_lambda
from .extend import (
    ExtendedDistribution,
    Kind,
    Sample,
    extend,
    sample,
    sample_from_csv,
    sample_to_csv,
)
from .infotheory import (
    KlResult,
    empirical_kl_objective,
    kl_numeric,
    mean_log_ratio_mc,
    power_loss_closed,
)
from .lrt_sim import (
    CellResult,
    LrtReport,
    SimConfig,
    calibrate,
    config_hash,
    lrt_statistics,
    parse_sim_config,
    run_power_study,
)
from .rng import GENERATOR_ID, open_uniform, substream

__version__ = "0.1.0"

__all__ = [
    "BaseDistribution",
    "CellResult",
    "DegenerateSampleError",
    "DomainError",
    "ExtendedDistribution",
    "Exponential",
    "FAMILIES",
    "FitResult",
    "GENERATOR_ID",
    "Kind",
    "KlResult",
    "LehmannError",
    "LrtReport",
    "NumericalError",
    "ParseError",
    "Sample",
    "SimConfig",
    "Support",
    "SupportError",
    "Uniform",
    "Weibull",
    "calibrate",
    "config_hash",
    "empirical_kl_objective",
    "extend",
    "fit_full",
    "fit_restricted",
    "kl_numeric",
    "loglik",
    "lrt_statistics",
    "mean_log_ratio_mc",
    "mle_lambda",
    "open_uniform",
    "parse_base",
    "parse_distribution",
    "parse_sim_config",
    "power_loss_closed",
    "register_family",
    "run_power_study",
    "sample",
    "sample_from_csv",
    "sample_to_csv",
    "substream",
    "__version__",
]
