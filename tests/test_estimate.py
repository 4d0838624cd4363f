"""Likelihood evaluation, closed-form exponent MLE, profile fitting."""

import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from lehmann import (
    DegenerateSampleError,
    DomainError,
    Exponential,
    FitResult,
    Kind,
    SimConfig,
    SupportError,
    Uniform,
    Weibull,
    extend,
    fit_full,
    fit_restricted,
    loglik,
    lrt_statistics,
    mle_lambda,
    sample,
)
from lehmann import estimate
from lehmann.base_dist import BaseDistribution
from lehmann.estimate import _unit_starts

EXP_BOUNDS = ((0.05, 20.0),)
WEI_BOUNDS = ((0.2, 8.0), (0.2, 8.0))


def test_loglik_hand_example():
    assert loglik(Kind.FIRST, Uniform, (), 2.0, [0.5]) == pytest.approx(0.0, abs=1e-15)


def test_loglik_lambda_one_is_base_loglik():
    x = np.array([0.3, 1.2, 0.7])
    base = Exponential(2.0)
    want = base.log_pdf(x).sum()
    assert loglik(Kind.FIRST, base, (2.0,), 1.0, x) == pytest.approx(want, abs=1e-12)
    assert loglik(Kind.SECOND, base, (2.0,), 1.0, x) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
@pytest.mark.parametrize(
    "base,theta",
    [(Uniform(), ()), (Exponential(1.3), (1.3,)), (Weibull(1.8, 0.9), (1.8, 0.9))],
)
def test_loglik_matches_extended_log_pdf_sum(kind, base, theta):
    g = extend(base, 2.7, kind)
    x = sample(g, 200, 5).values
    want = g.log_pdf(x).sum()
    got = loglik(kind, base, theta, 2.7, x)
    assert got == pytest.approx(want, abs=1e-10)


def test_loglik_rejects_out_of_support_with_index():
    with pytest.raises(SupportError) as info:
        loglik(Kind.FIRST, Exponential, (1.0,), 2.0, [0.5, -1.0, 0.3])
    assert "x[1]=-1.0" in str(info.value)


@pytest.mark.parametrize("fit", [
    lambda x: fit_full(1, "uniform", x),
    lambda x: fit_restricted(1, "uniform", x, 2.0),
], ids=["fit_full", "fit_restricted"])
def test_parameter_free_fit_rejects_out_of_support_with_index(monkeypatch, fit):
    # checked by the fit itself, before the search engine runs
    monkeypatch.setattr(estimate, "_fit_block", None)
    with pytest.raises(SupportError) as info:
        fit([0.2, 1.5])
    assert str(info.value) == (
        "sample value x[1]=1.5 lies outside the support [0.0, 1.0] of the uniform family"
    )


def test_fit_rejects_what_is_not_a_base_family():
    with pytest.raises(DomainError, match=r"not a base family: 3\.5"):
        fit_full(1, 3.5, [0.2, 0.5])


def test_loglik_rejects_bad_lambda():
    with pytest.raises(DomainError):
        loglik(Kind.FIRST, Uniform, (), 0.0, [0.5])


def test_mle_lambda_hand_examples():
    x = math.exp(-1.0)
    assert mle_lambda(Kind.FIRST, Uniform, (), [x]) == pytest.approx(1.0, abs=1e-12)
    y = math.exp(-2.0)
    assert mle_lambda(Kind.FIRST, Uniform, (), [y, y]) == pytest.approx(0.5, abs=1e-12)
    # second kind mirrors through the survival function
    z = 1.0 - math.exp(-1.0)
    assert mle_lambda(Kind.SECOND, Uniform, (), [z]) == pytest.approx(1.0, abs=1e-12)


def test_mle_lambda_consistency_uniform():
    g = extend(Uniform(), 2.5)
    lam_hat = mle_lambda(Kind.FIRST, Uniform, (), sample(g, 10_000, 3).values)
    assert abs(lam_hat - 2.5) < 3.0 * 2.5 / 100.0


@pytest.mark.parametrize(
    "kind,x",
    [
        (Kind.FIRST, [1000.0]),  # F rounds to 1, log F to -0.0
        (Kind.SECOND, [0.0]),  # survival is exactly 1, log to 0.0
    ],
)
def test_mle_lambda_degenerate_saturation(kind, x):
    with pytest.raises(DegenerateSampleError):
        mle_lambda(kind, Exponential, (1.0,), x)


def test_mle_lambda_degenerate_zero_cdf():
    # F(0) = 0 under the first kind: the log-sum is -inf, not usable
    with pytest.raises(DegenerateSampleError):
        mle_lambda(Kind.FIRST, Exponential, (1.0,), [0.0, 1.0])


@pytest.mark.parametrize("kind,x,terms,law", [
    (Kind.FIRST, [1000.0], "ln F", "CDF"),
    (Kind.SECOND, [0.0], "ln(1 - F)", "survival function"),
], ids=["first", "second"])
def test_mle_lambda_error_names_the_kernel_of_its_kind(kind, x, terms, law):
    with pytest.raises(DegenerateSampleError) as info:
        mle_lambda(kind, Exponential, (1.0,), x)
    assert str(info.value) == (
        f"sum of {terms} terms is 0.0; the sample saturates the base {law} under "
        "exponential(rate=1.0) and the exponent MLE is undefined")


@dataclass(frozen=True)
class _NudgedKernel(Exponential):
    """Test-only: the fused kernel's w sits one ulp below ``_log_cdf``."""

    def _log_hazard_and_kernel(self, x, first):
        w = np.nextafter(self._log_cdf(x) if first else self._log_sf(x), -np.inf)
        return self._log_pdf(x) - w, w


def test_exponent_mle_sums_the_fused_kernel():
    # the profile search and the reported lambda_hat read the same w
    x = sample(extend(Exponential(1.3), 2.0), 200, 5).values
    fit = fit_full(Kind.FIRST, _NudgedKernel, x, theta_bounds=EXP_BOUNDS)
    base = _NudgedKernel.from_theta(fit.theta_hat)
    with np.errstate(divide="ignore"):
        w = base._log_hazard_and_kernel(x[None, :], True)[1]
    assert fit.lambda_hat == -x.size / float(w.sum(axis=1)[0])


def test_closed_form_is_profile_max():
    x = sample(extend(Exponential(1.0), 3.0), 400, 9).values
    theta = (1.1,)
    lam_hat = mle_lambda(Kind.FIRST, Exponential, theta, x)
    best = loglik(Kind.FIRST, Exponential, theta, lam_hat, x)
    for lam in np.linspace(0.1, 10.0, 100):
        assert best >= loglik(Kind.FIRST, Exponential, theta, lam, x)


def test_fit_full_uniform_reduces_to_mle_lambda():
    x = sample(extend(Uniform(), 4.0), 500, 21).values
    fit = fit_full(Kind.FIRST, Uniform, x)
    assert fit.lambda_hat == mle_lambda(Kind.FIRST, Uniform, (), x)
    assert fit.theta_hat == ()
    assert fit.profile_trace is None
    assert fit.warnings == ()
    assert fit.loglik == pytest.approx(
        loglik(Kind.FIRST, Uniform, (), fit.lambda_hat, x), abs=1e-10
    )


@pytest.mark.parametrize("fit", [
    lambda x, box: fit_full(Kind.FIRST, "uniform", x, theta_bounds=box),
    lambda x, box: fit_restricted(Kind.FIRST, "uniform", x, 1.5, theta_bounds=box),
], ids=["fit_full", "fit_restricted"])
def test_parameter_free_fit_refuses_a_box(fit):
    x = sample(extend(Uniform(), 2.0), 50, 3).values
    with pytest.raises(DomainError, match="component"):
        fit(x, ((1.0, 2.0),))
    assert fit(x, None) == fit(x, ())


def test_fit_full_dominates_any_fixed_point():
    x = sample(extend(Exponential(1.0), 1.0), 300, 8).values
    fit = fit_full(Kind.FIRST, Exponential, x, EXP_BOUNDS)
    assert fit.loglik >= loglik(Kind.FIRST, Exponential, (1.0,), 1.0, x)
    assert fit.loglik == pytest.approx(
        loglik(Kind.FIRST, Exponential, fit.theta_hat, fit.lambda_hat, x), abs=1e-10
    )
    assert fit.profile_trace and all(len(p) == 2 for p in fit.profile_trace)


def test_fit_full_recovers_truth_exponential():
    lams, rates = [], []
    for seed in range(20):
        x = sample(extend(Exponential(1.0), 3.0), 10_000, seed).values
        fit = fit_full(Kind.FIRST, Exponential, x, EXP_BOUNDS)
        lams.append(fit.lambda_hat)
        rates.append(fit.theta_hat[0])
    assert abs(np.median(lams) - 3.0) < 0.3
    assert abs(np.median(rates) - 1.0) < 0.1


def test_fit_full_recovers_truth_weibull_two_params():
    x = sample(extend(Weibull(1.5, 2.0), 2.0), 8_000, 14).values
    fit = fit_full(Kind.FIRST, Weibull, x, WEI_BOUNDS)
    assert abs(fit.theta_hat[0] - 1.5) < 0.3
    assert abs(fit.theta_hat[1] - 2.0) < 0.4
    assert fit.lambda_hat == pytest.approx(2.0, abs=0.8)


# _unit_starts(3) before the Halton bases came from a prime list: the
# columns of bases 2, 3 and 5
THREE_BASE_STARTS = np.array([
    [0.5, 0.5, 0.5],
    [0.5, 0.3333333333333333, 0.2],
    [0.25, 0.6666666666666666, 0.4],
    [0.75, 0.1111111111111111, 0.6000000000000001],
    [0.125, 0.4444444444444444, 0.8],
])


@pytest.mark.parametrize("dim", range(1, 7))
def test_unit_starts_take_one_prime_base_per_dimension(dim):
    starts = _unit_starts(dim)
    assert starts.shape == (5, dim)
    assert (starts[0] == 0.5).all()
    assert ((starts > 0.0) & (starts < 1.0)).all()
    # distinct bases give distinct columns
    assert len({tuple(col) for col in starts.T}) == dim
    k = min(dim, 3)
    assert np.array_equal(starts[:, :k], THREE_BASE_STARTS[:, :k])


@dataclass(frozen=True)
class _FourRateExponential(BaseDistribution):
    """The exponential law of rate a*b/(c*d): four parameters, one identified."""

    a: float
    b: float
    c: float
    d: float

    family_id: ClassVar[str] = "four_rate_exponential"
    param_names: ClassVar[tuple[str, ...]] = ("a", "b", "c", "d")

    @property
    def rate(self):
        return self.a * self.b / (self.c * self.d)

    support = Exponential.support
    _log_pdf = Exponential._log_pdf
    _log_sf = Exponential._log_sf
    _log_hazard_and_kernel = Exponential._log_hazard_and_kernel
    _quantile = Exponential._quantile


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_four_parameter_family_fits_like_its_one_parameter_form(seed):
    # every (a, b, c, d) of one rate is the same law, so the profile
    # maximum over the four-dimensional box is the exponential's
    x = sample(extend(Exponential(1.5), 2.0), 40, seed).values
    want = fit_full(Kind.FIRST, "exponential", x, EXP_BOUNDS).loglik
    got = fit_full(Kind.FIRST, _FourRateExponential, x, ((0.5, 2.0),) * 4).loglik
    assert got == pytest.approx(want, abs=1e-9)


def test_fit_restricted_at_lambda_hat_matches_full():
    x = sample(extend(Exponential(1.0), 2.0), 2_000, 33).values
    full = fit_full(Kind.FIRST, Exponential, x, EXP_BOUNDS)
    restr = fit_restricted(Kind.FIRST, Exponential, x, full.lambda_hat, EXP_BOUNDS)
    assert restr.lambda_hat == full.lambda_hat
    assert restr.theta_hat[0] == pytest.approx(full.theta_hat[0], abs=1e-5)
    assert restr.loglik == pytest.approx(full.loglik, abs=1e-7)


def test_fit_restricted_uniform_is_plain_evaluation():
    x = sample(extend(Uniform(), 2.0), 100, 2).values
    fit = fit_restricted(Kind.FIRST, Uniform, x, 1.7)
    assert fit.lambda_hat == 1.7
    assert fit.theta_hat == ()
    assert fit.loglik == pytest.approx(loglik(Kind.FIRST, Uniform, (), 1.7, x), abs=1e-12)


def test_fit_restricted_lambda_one_matches_base_mle():
    x = sample(extend(Exponential(2.0), 1.0), 5_000, 4).values
    fit = fit_restricted(Kind.FIRST, Exponential, x, 1.0, EXP_BOUNDS)
    closed = x.size / x.sum()
    assert fit.theta_hat[0] == pytest.approx(closed, rel=1e-15)


@pytest.mark.parametrize("lam,seed", [(1.0, 5), (0.4, 6), (3.0, 7)])
def test_weibull_fit_restricted_lambda_one_is_the_base_mle(lam, seed):
    # at lambda = 1 the law is the base whatever the kind, so both kinds
    # give one fit, and it is scipy's Weibull MLE or better
    from scipy.stats import weibull_min

    x = sample(extend(Weibull(2.0, 1.0), lam), 200, seed).values
    box = ((0.1, 40.0), (0.05, 20.0))
    first, second = (fit_restricted(kind, "weibull", x, 1.0, box)
                     for kind in (Kind.FIRST, Kind.SECOND))
    assert (first.theta_hat, first.loglik) == (second.theta_hat, second.loglik)
    shape, _, scale = weibull_min.fit(x, floc=0)
    assert first.loglik >= loglik(Kind.FIRST, Weibull, (shape, scale), 1.0, x) - 1e-9


@pytest.mark.parametrize("lambda_fixed", [0.5, 1.0, 2.0, 5.0])
def test_nesting_full_dominates_restricted(lambda_fixed):
    x = sample(extend(Exponential(1.0), 2.0), 500, 77).values
    full = fit_full(Kind.FIRST, Exponential, x, EXP_BOUNDS)
    restr = fit_restricted(Kind.FIRST, Exponential, x, lambda_fixed, EXP_BOUNDS)
    assert full.loglik >= restr.loglik


def test_compose_rescales_lambda_hat():
    lams = []
    for seed in range(20):
        g = extend(Uniform(), 2.0).compose(3.0)
        x = sample(g, 2_000, seed).values
        lams.append(mle_lambda(Kind.FIRST, Uniform, (), x))
    assert abs(np.median(lams) - 6.0) < 0.6


@pytest.mark.parametrize("box,edge", [((3.0, 9.0), "lower"), ((0.1, 0.99), "upper")],
                         ids=["lower", "upper"])
@pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
def test_boundary_solution_warns(box, edge, restricted):
    # truth rate 1.0 sits outside the box, the fit pins to its edge: the
    # full fit's search closes 2-3e-8 short of it, more than twice its 1e-8
    # tolerance, and the restricted fit's 1 / mean is clipped one ulp inside
    x = sample(extend(Exponential(1.0), 1.0), 1_000, 6).values
    if restricted:
        fit = fit_restricted(Kind.FIRST, Exponential, x, 1.0, (box,))
    else:
        fit = fit_full(Kind.FIRST, Exponential, x, (box,))
    (rate,) = fit.theta_hat
    assert 0.0 < min(rate - box[0], box[1] - rate) < 1e-7
    if restricted:
        edge_value = box[edge == "upper"]
        assert rate == np.nextafter(edge_value, box[edge == "lower"])
    assert fit.warnings == (f"theta[0]={rate!r} sits at the {edge} bound {box[edge == 'upper']!r}",)


def test_interior_solution_does_not_warn():
    x = sample(extend(Exponential(1.0), 1.0), 1_000, 6).values
    assert fit_full(Kind.FIRST, Exponential, x, ((0.1, 1.5),)).warnings == ()
    assert fit_restricted(Kind.FIRST, Exponential, x, 1.0, ((0.1, 1.5),)).warnings == ()


def test_fit_requires_bounds_for_parametric_family():
    x = sample(extend(Exponential(1.0), 1.0), 50, 1).values
    with pytest.raises(DomainError):
        fit_full(Kind.FIRST, Exponential, x)
    with pytest.raises(DomainError):
        fit_full(Kind.FIRST, Exponential, x, ((1.0, math.inf),))
    with pytest.raises(DomainError):
        fit_full(Kind.FIRST, Exponential, x, ((0.1, 5.0), (0.1, 5.0)))


def test_fit_rejects_all_equal_sample():
    with pytest.raises(DegenerateSampleError):
        fit_full(Kind.FIRST, Exponential, [1.3, 1.3, 1.3], EXP_BOUNDS)
    # one value identifies no base parameter either; no value is not a sample
    for family, bounds in ((Exponential, EXP_BOUNDS), (Weibull, WEI_BOUNDS)):
        with pytest.raises(DegenerateSampleError, match="only one"):
            fit_full(Kind.FIRST, family, [0.7], bounds)
        with pytest.raises(DegenerateSampleError, match="only one"):
            fit_restricted(Kind.SECOND, family, [0.7], 2.0, bounds)
        with pytest.raises(DomainError, match="at least one value"):
            fit_full(Kind.FIRST, family, [], bounds)
        # nor is a sample of the wrong shape
        with pytest.raises(DomainError, match=r"one-dimensional .* shape \(3, 4\)"):
            fit_full(Kind.FIRST, family, np.ones((3, 4)), bounds)
    with pytest.raises(DomainError, match=r"one-dimensional .* shape \(\)"):
        loglik(Kind.FIRST, Exponential, (1.0,), 1.0, np.float64(3.0))
    # a parameter-free family fits its exponent to one value
    fit = fit_full(Kind.FIRST, Uniform, [0.7])
    assert fit.lambda_hat == pytest.approx(-1.0 / math.log(0.7))


def test_fit_result_validates_and_serializes():
    with pytest.raises(DomainError):
        FitResult(lambda_hat=-1.0, theta_hat=(), loglik=0.0, n=3)
    # the profile trace is left out of the serialization
    fit = FitResult(2.0, (1.5,), -12.5, 40, profile_trace=(((1.5,), -12.5),),
                    warnings=("w",))
    blob = json.loads(fit.to_json())
    assert blob == {
        "lambda_hat": 2.0,
        "theta_hat": [1.5],
        "loglik": -12.5,
        "n": 40,
        "warnings": ["w"],
    }


@pytest.mark.filterwarnings("error")
def test_fits_through_the_support_end_stop_without_warnings():
    # ln F(0) = -inf under the first kind, so every search value is -inf
    # and the searches' stop rules must not form -inf + inf
    x = [0.0, 1.0, 2.0]
    with pytest.raises(DegenerateSampleError):
        fit_full(Kind.FIRST, "exponential", x, theta_bounds=EXP_BOUNDS)
    fit = fit_restricted(Kind.FIRST, "weibull", x, 2.0,
                         theta_bounds=((0.1, 20.0), (0.05, 20.0)))
    assert fit.loglik == -math.inf
    cfg = SimConfig(kind=Kind.FIRST, base=Exponential(1.0),
                    lambda_grid=(2.0,), n=3, replications=100, alpha=0.05, seed=1,
                    calibration_replications=1000)
    with pytest.raises(DegenerateSampleError):
        lrt_statistics(x, cfg)


def test_fit_is_deterministic():
    x = sample(extend(Weibull(1.5, 2.0), 2.0), 800, 10).values
    a = fit_full(Kind.FIRST, Weibull, x, WEI_BOUNDS)
    b = fit_full(Kind.FIRST, Weibull, x, WEI_BOUNDS)
    assert a.to_json() == b.to_json()
    assert a.theta_hat == b.theta_hat


def test_second_kind_weibull_profile_keeps_its_digits_at_large_shape():
    # ln f = ... - z and (lam - 1) ln(1 - F) = -(lam - 1) z, with z up to
    # ~1e20 here: summed separately they cancel every digit (the value was
    # 0.0); the engine sums the log hazard ln f - w, in which z cancels
    x = sample(extend(Weibull(2.0, 1.0), 0.5, Kind.SECOND), 50, 7).values
    k, s = 38.0, 0.85
    lam = mle_lambda(Kind.SECOND, "weibull", (k, s), x)
    got = loglik(Kind.SECOND, "weibull", (k, s), lam, x)
    # closed form: sum(ln k - ln s + (k - 1) ln(x/s)) + n ln lam + lam sum w,
    # with w = -(x/s)**k and lam sum w = -n at the exponent MLE
    n = len(x)
    z = [(v / s) ** k for v in x.tolist()]
    hazard = math.fsum(math.log(k / s) + (k - 1.0) * math.log(v / s) for v in x.tolist())
    want = hazard + n * math.log(n / math.fsum(z)) - n
    assert want == pytest.approx(-1930.18, abs=0.01)
    assert got == pytest.approx(want, rel=1e-12)


# seeded first-kind Weibull samples whose profile has a curved
# (shape, scale) ridge: the fit must reach the top, not just climb
GAP_SEEDS = (2026, 1, 2, 3)
GAP_BOX = ((0.1, 40.0), (0.05, 20.0))


def _nelder_mead_optimum(kind, x, starts) -> float:
    """Best public profile value of scipy's bounded Nelder-Mead from ``starts``."""
    from scipy.optimize import minimize

    def negative_profile(theta):
        theta = tuple(float(t) for t in theta)
        try:
            return -loglik(kind, "weibull", theta, mle_lambda(kind, "weibull", theta, x), x)
        except DegenerateSampleError:
            return math.inf

    best = -math.inf
    for start in starts:
        res = minimize(negative_profile, np.asarray(start, dtype=float),
                       method="Nelder-Mead", bounds=list(GAP_BOX),
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        best = max(best, -float(res.fun))
    return best


@pytest.mark.parametrize("seed", GAP_SEEDS)
@pytest.mark.parametrize("lam,n", [(0.5, 50), (0.5, 200), (2.0, 50), (2.0, 200)])
def test_first_kind_weibull_fit_reaches_the_nelder_mead_optimum(lam, n, seed):
    x = sample(extend(Weibull(2.0, 1.0), lam, Kind.FIRST), n, seed).values
    fit = fit_full(Kind.FIRST, "weibull", x, theta_bounds=GAP_BOX)
    reference = _nelder_mead_optimum(Kind.FIRST, x, [fit.theta_hat, (2.0, 1.0)])
    assert reference - fit.loglik <= 1e-7


@pytest.mark.parametrize("c", [0.3, 7.0])
@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
@pytest.mark.parametrize("base", [Exponential(1.0), Weibull(2.0, 1.0)],
                         ids=lambda b: b.family_id)
def test_fit_full_is_scale_equivariant(base, kind, lam, c):
    # c * x under the base scale c * s (rate r / c) is x under s: the
    # density picks up 1/c per value, so ln L shifts by exactly -n ln c
    x = sample(extend(base, lam, kind), 50, 2026).values
    if isinstance(base, Exponential):
        box, scaled = ((0.05, 20.0),), ((0.05 / c, 20.0 / c),)
    else:
        box, scaled = GAP_BOX, (GAP_BOX[0], (0.05 * c, 20.0 * c))
    fit = fit_full(kind, type(base), x, theta_bounds=box)
    moved = fit_full(kind, type(base), c * x, theta_bounds=scaled)
    want = fit.loglik - len(x) * math.log(c)
    assert moved.loglik == pytest.approx(want, rel=1e-9, abs=0.0)


def test_profiled_exponent_of_exactly_one_keeps_the_density_sum():
    # sum ln(1 - F) = -(0.5 + 1.5) = -n under rate 1, so lambda_hat is
    # exactly 1, where loglik sums ln f alone; the profiled value must too
    from lehmann.estimate import _evaluate

    x = np.array([[0.5, 1.5]])
    assert mle_lambda(Kind.SECOND, Exponential, (1.0,), x[0]) == 1.0
    value, degenerate = _evaluate(Kind.SECOND, Exponential(1.0), x, None)
    assert not degenerate[0]
    assert value[0] == loglik(Kind.SECOND, Exponential, (1.0,), 1.0, x[0])


def test_profiled_exponent_of_exactly_one_takes_the_plain_sum():
    # ln F(x) rounds to exactly -1 here, so lambda_hat is 1; the hazard
    # form (ln f - w) + w rounds to another float than ln f alone
    from lehmann.estimate import _evaluate

    x = np.array([[0.45867514538708193]])
    assert mle_lambda(Kind.FIRST, Exponential, (1.0,), x[0]) == 1.0
    hazard, w = Exponential(1.0)._log_hazard_and_kernel(x, True)
    want = loglik(Kind.FIRST, Exponential, (1.0,), 1.0, x[0])
    assert hazard.sum() + w.sum() != want
    assert _evaluate(Kind.FIRST, Exponential(1.0), x, None)[0][0] == want


@pytest.mark.parametrize("kind,family,theta,lam,x,want", [
    (Kind.FIRST, "uniform", (), 2.0, [0.0, 0.5], -math.inf),
    (Kind.FIRST, "uniform", (), 0.5, [0.0, 0.5], math.inf),
    (Kind.SECOND, "uniform", (), 2.0, [1.0, 0.5], -math.inf),
    (Kind.FIRST, "exponential", (1.0,), 0.5, [0.0, 0.5], math.inf),
    (Kind.FIRST, "weibull", (1.0, 1.0), 2.0, [0.0, 0.5], -math.inf),
    (Kind.FIRST, "weibull", (2.0, 1.0), 2.0, [0.0, 0.5], -math.inf),
    (Kind.SECOND, "weibull", (0.5, 1.0), 2.0, [0.0, 0.5], math.inf),
])
def test_loglik_at_a_support_end_takes_the_limit(kind, family, theta, lam, x, want):
    # ln F = -inf (first kind) or ln(1 - F) = -inf (second kind) at a
    # sample value: the density of the powered law is 0 or unbounded
    # there, as lam > 1 or lam < 1, unless the base density decides
    assert loglik(kind, family, theta, lam, x) == want
