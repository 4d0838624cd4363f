"""Kullback-Leibler divergence and the closed-form power loss.

Everything here is in nats. The headline identity: a powered law of
either kind against its own base at the same base parameters theta has

    KL(G(lam, theta) || F(theta)) = ln(lam) + (1 - lam)/lam,

whatever the base. :func:`power_loss_closed` is that formula, and says
how it bounds the power study's ``mean_log_ratio``; :func:`kl_numeric`
reproduces it by quadrature for any pair of laws.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._quadrature import integrate_unit
from .base_dist import BaseDistribution, _finite_positive
from .errors import DomainError
from .estimate import loglik
from .extend import ExtendedDistribution, _node_map, extend, sample, sample_values

METHOD_CLOSED_FORM = "closed_form"
METHOD_QUADRATURE = "quadrature"
METHOD_MONTE_CARLO = "monte_carlo"
_METHODS = (METHOD_CLOSED_FORM, METHOD_QUADRATURE, METHOD_MONTE_CARLO)


@dataclass(frozen=True)
class KlResult:
    """A divergence estimate with provenance."""

    value: float
    error_estimate: float
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.error_estimate >= 0.0:
            raise DomainError(f"error_estimate must be >= 0, got {self.error_estimate!r}")
        if self.method == METHOD_CLOSED_FORM and self.error_estimate != 0.0:
            raise DomainError("closed_form results carry a zero error_estimate")

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _as_extended(d) -> ExtendedDistribution:
    """``d`` as a powered law; a base becomes its lambda = 1 first-kind law."""
    if isinstance(d, ExtendedDistribution):
        return d
    if isinstance(d, BaseDistribution):
        return extend(d, 1.0)
    raise DomainError(f"expected a distribution, got {d!r}")


def power_loss_closed(lam: float) -> float:
    """KL(G(lam, theta) || F(theta)) = ln(lam) + (1 - lam)/lam; zero at lam = 1.

    Either kind, any base, one theta. The power study reports it as
    ``delta_closed``. Its ``mean_log_ratio`` tends to min over theta of
    KL(G(lam, theta0) || F(theta)), which this value bounds from above:
    equal for the uniform base, which has no theta, and 0 for the
    second-kind exponential and Weibull, whose powered law stays in the
    family.
    """
    lam = _finite_positive("lambda", lam)
    return math.log(lam) + (1.0 - lam) / lam


def kl_numeric(p, q) -> KlResult:
    """KL(p || q) by quadrature on the unit interval.

    Change of variables through the p-side CDF: with t the quadrature
    variable, x(t) = Q_p(t**(1/lam_p)) (first kind; the second kind uses
    the survival analogue), the integrand is just the log density ratio
    and every endpoint weight cancels. x(t) is p's sampling inverse, which
    inverts through the other side where t**(1/lam_p) >= 1/2. Requires
    equal supports; q must be positive wherever p is (violations surface
    as nonconvergent quadrature).
    """
    p = _as_extended(p)
    q = _as_extended(q)
    if p.support != q.support:
        raise DomainError(
            f"support mismatch: {p.describe()} has {p.support}, "
            f"{q.describe()} has {q.support}"
        )
    x_at = _node_map(p)

    def integrand(t: np.ndarray) -> np.ndarray:
        x = x_at(t)
        # a node rounded onto a support end can make a log density
        # infinite; the quadrature's non-finite check reports that
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return p._log_pdf(x) - q._log_pdf(x)

    value, err = integrate_unit(integrand)
    return KlResult(
        value=value,
        error_estimate=err,
        method=METHOD_QUADRATURE,
        meta={"p": p.describe(), "q": q.describe()},
    )


def _mean_and_se(values) -> tuple[float, float]:
    """The mean of ``values`` and its standard error, inf below two values."""
    mean = float(np.mean(values))
    if len(values) < 2:
        return mean, math.inf
    return mean, float(np.std(values, ddof=1)) / math.sqrt(len(values))


def mean_log_ratio_mc(p, q, n: int, seed: int) -> KlResult:
    """Monte Carlo KL(p || q): mean of ln(p/q) over n draws from p.

    The error_estimate is one standard error of the mean.
    """
    p = _as_extended(p)
    q = _as_extended(q)
    s = sample(p, n, seed)
    lr = np.asarray(p.log_pdf(s.values)) - np.asarray(q.log_pdf(s.values))
    value, se = _mean_and_se(lr)
    return KlResult(
        value=value,
        error_estimate=se,
        method=METHOD_MONTE_CARLO,
        meta={"p": p.describe(), "q": q.describe(), "n": int(n), "seed": int(seed)},
    )


def empirical_kl_objective(kind, base_family, theta, lam, s) -> float:
    """-(1/n) * loglik: the parameter-dependent part of the divergence
    between the model and the empirical distribution of the sample.

    Minimizing this over the exponent is the same problem as maximizing
    the likelihood; the sample-entropy term it omits is constant in the
    parameters.
    """
    x = sample_values(s)
    return -loglik(kind, base_family, theta, lam, x) / x.size
