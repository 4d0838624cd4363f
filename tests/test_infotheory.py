"""KL divergence routes, the closed-form power loss, and their cross-checks."""

import json
import math

import numpy as np
import pytest

from lehmann import (
    DomainError,
    Exponential,
    Kind,
    KlResult,
    NumericalError,
    Uniform,
    Weibull,
    empirical_kl_objective,
    extend,
    kl_numeric,
    mean_log_ratio_mc,
    mle_lambda,
    power_loss_closed,
    power_loss_integrand_check,
    sample,
)
from lehmann import infotheory

BASES = [Uniform(), Exponential(1.0), Weibull(2.0, 1.0)]


def test_kl_of_identical_pair_is_zero():
    g = extend(Exponential(1.0), 2.0)
    r = kl_numeric(g, g)
    assert abs(r.value) < 1e-10
    assert r.method == "quadrature"


def test_kl_exponential_pair_oracle():
    # second-kind extension of Exponential(1) at lam is Exponential(lam)
    p = extend(Exponential(1.0), 2.0, Kind.SECOND)
    q = extend(Exponential(1.0), 1.0, Kind.SECOND)
    r = kl_numeric(p, q)
    assert r.value == pytest.approx(math.log(2.0) - 0.5, abs=1e-10)
    assert r.error_estimate < 1e-8
    assert r.meta["p"].startswith("lehmann2(")


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
def test_kl_matches_closed_form_power_loss(base, lam):
    r = kl_numeric(extend(base, lam), extend(base, 1.0))
    assert r.value == pytest.approx(power_loss_closed(lam), abs=1e-8)


@pytest.mark.parametrize("lam", [0.5, 2.0, 5.0])
def test_kl_base_independence(lam):
    values = [kl_numeric(extend(b, lam), extend(b, 1.0)).value for b in BASES]
    assert max(values) - min(values) < 1e-8


def test_kl_non_finite_quadrature_raises_with_the_estimate():
    # ln q diverges at the upper end of the unit interval faster than the
    # quadrature can refine; quad reports inf with an infinite error bound
    p = extend(Uniform(), 0.2, Kind.SECOND)
    q = extend(Uniform(), 1.0, Kind.SECOND)
    with pytest.raises(NumericalError) as info:
        kl_numeric(p, q)
    assert info.value.value == math.inf
    assert info.value.error_estimate == math.inf


def test_kl_rejects_support_mismatch():
    with pytest.raises(DomainError):
        kl_numeric(extend(Uniform(), 2.0), extend(Exponential(1.0), 2.0))


def test_kl_accepts_plain_bases():
    r = kl_numeric(Exponential(2.0), Exponential(1.0))
    assert r.value == pytest.approx(math.log(2.0) - 0.5, abs=1e-10)


def test_kl_is_asymmetric():
    p = extend(Uniform(), 2.0)
    q = extend(Uniform(), 1.0)
    forward = kl_numeric(p, q).value
    backward = kl_numeric(q, p).value
    assert abs(forward - backward) > 1e-3


def test_power_loss_closed_values():
    assert power_loss_closed(1.0) == 0.0
    assert power_loss_closed(2.0) == pytest.approx(0.193147, abs=1e-6)
    assert power_loss_closed(0.5) == pytest.approx(0.306853, abs=1e-6)
    assert power_loss_closed(10.0) == pytest.approx(math.log(10.0) - 0.9, abs=1e-12)


def test_power_loss_closed_rejects_nonpositive():
    with pytest.raises(DomainError):
        power_loss_closed(0.0)
    with pytest.raises(DomainError):
        power_loss_closed(-3.0)


def test_power_loss_shape_on_grid():
    grid = np.concatenate([np.linspace(0.02, 1.0, 200), np.linspace(1.0, 30.0, 300)])
    vals = np.array([power_loss_closed(t) for t in grid])
    assert np.all(vals >= 0.0)
    left = vals[grid < 1.0]
    assert np.all(np.diff(left) < 0.0)
    right = vals[grid > 1.0]
    assert np.all(np.diff(right) > 0.0)
    assert vals[grid == 1.0].max() == 0.0


@pytest.mark.parametrize("lam", [1.0, 2.0, 5.0, 0.5, 0.2, 7.7])
def test_integrand_route_matches_closed_form(lam):
    assert power_loss_integrand_check(lam) == pytest.approx(
        power_loss_closed(lam), abs=1e-10
    )


def test_integrand_route_integrates_one_integrand_for_every_lambda(monkeypatch):
    # the integrand is u**(lam-1) * ln(u) whatever lam is, so it tells
    # exponents below 1 apart
    at_quarter = []
    real = infotheory.integrate_unit

    def record(f):
        at_quarter.append(float(f(np.array([0.25]))[0]))
        return real(f)

    monkeypatch.setattr(infotheory, "integrate_unit", record)
    for lam in (0.3, 0.6):
        power_loss_integrand_check(lam)
    want = [0.25 ** (lam - 1.0) * math.log(0.25) for lam in (0.3, 0.6)]
    assert at_quarter == pytest.approx(want, rel=1e-15)


def test_mean_log_ratio_identical_pair():
    g = extend(Uniform(), 3.0)
    r = mean_log_ratio_mc(g, g, 10_000, 1)
    assert r.value == 0.0
    assert r.method == "monte_carlo"


def test_mean_log_ratio_matches_closed_form():
    p = extend(Uniform(), 3.0)
    q = extend(Uniform(), 1.0)
    r = mean_log_ratio_mc(p, q, 100_000, 2)
    assert abs(r.value - power_loss_closed(3.0)) < 4.0 * r.error_estimate
    assert r.meta["n"] == 100_000


def test_mean_log_ratio_matches_quadrature():
    p = extend(Exponential(1.0), 2.0, Kind.SECOND)
    q = extend(Exponential(1.0), 1.0, Kind.SECOND)
    mc = mean_log_ratio_mc(p, q, 100_000, 3)
    assert abs(mc.value - kl_numeric(p, q).value) < 4.0 * mc.error_estimate


def test_mean_log_ratio_is_deterministic():
    p = extend(Uniform(), 2.0)
    q = extend(Uniform(), 1.0)
    assert mean_log_ratio_mc(p, q, 5000, 9).value == mean_log_ratio_mc(p, q, 5000, 9).value


def test_gibbs_inequality_beyond_noise():
    # E_p[ln p] must exceed E_p[ln q] decisively once the pair is far apart
    p = extend(Uniform(), 2.0)
    q = extend(Uniform(), 1.0)
    x = sample(p, 50_000, 4).values
    diff = p.log_pdf(x) - q.log_pdf(x)
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert diff.mean() > 4.0 * se


def test_empirical_objective_grid_argmin_is_the_mle():
    grid = np.arange(0.05, 20.0 + 1e-9, 0.05)
    for seed in (0, 1, 2):
        x = sample(extend(Uniform(), 2.5), 400, seed).values
        vals = [empirical_kl_objective(Kind.FIRST, Uniform, (), lam, x) for lam in grid]
        best = grid[int(np.argmin(vals))]
        lam_hat = mle_lambda(Kind.FIRST, Uniform, (), x)
        assert abs(best - lam_hat) <= 0.05 + 1e-12


def test_empirical_objective_is_a_per_observation_mean():
    x = sample(extend(Uniform(), 2.0), 200, 5).values
    doubled = np.concatenate([x, x])
    for lam in (0.7, 1.0, 3.1):
        a = empirical_kl_objective(Kind.FIRST, Uniform, (), lam, x)
        b = empirical_kl_objective(Kind.FIRST, Uniform, (), lam, doubled)
        assert a == pytest.approx(b, abs=1e-12)


def test_empirical_objective_local_optimality_at_mle():
    x = sample(extend(Uniform(), 2.0), 300, 6).values
    lam_hat = mle_lambda(Kind.FIRST, Uniform, (), x)
    at_hat = empirical_kl_objective(Kind.FIRST, Uniform, (), lam_hat, x)
    assert at_hat <= empirical_kl_objective(Kind.FIRST, Uniform, (), lam_hat * 1.1, x)
    assert at_hat <= empirical_kl_objective(Kind.FIRST, Uniform, (), lam_hat * 0.9, x)


def test_kl_result_validation():
    with pytest.raises(DomainError):
        KlResult(value=1.0, error_estimate=0.0, method="guesswork", meta={})
    with pytest.raises(DomainError):
        KlResult(value=1.0, error_estimate=-1.0, method="quadrature", meta={})
    with pytest.raises(DomainError):
        KlResult(value=1.0, error_estimate=0.5, method="closed_form", meta={})


def test_kl_result_serializes():
    r = KlResult(value=0.25, error_estimate=0.0, method="closed_form", meta={"lam": 2.0})
    blob = json.loads(r.to_json())
    assert blob == {
        "value": 0.25,
        "error_estimate": 0.0,
        "method": "closed_form",
        "meta": {"lam": 2.0},
    }
