"""Power-study numbers checked against laws known in closed form.

scipy supplies the exact laws; the critical values are the library's own
calibrated ones.

- Uniform base, first kind: X = U**(1/lam), so S = -sum ln X is
  Gamma(n, rate lam), and the full statistic is 2[n ln(n/S) - n + S],
  which exceeds c exactly when S leaves the interval between the two
  roots of that convex function of S.
- Exponential(1) base, first kind, under H0: the restricted fit is the
  rate 1/xbar, so the mis-specified statistic is 2n[(xbar - 1) - ln xbar]
  with n xbar ~ Gamma(n, 1).
- Exponential(1) base, second kind: the powered law is the exponential
  law of rate lam, so n xbar ~ Gamma(n, lam) and the mis-specified
  statistic is the same function of xbar. The rate absorbs the exponent,
  so the full statistic equals it.

The seeds are fixed; each Monte Carlo check allows 4 binomial standard
errors.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import beta, gamma

from lehmann import Exponential, Kind, SimConfig, Uniform, extend, lrt_statistics, run_power_study
from lehmann.lrt_sim import _draw_block, _lrt_rows, calibrate


def _roots(h, centre, crit):
    """The two solutions of h(v) = crit either side of h's minimum at centre."""
    lo = brentq(lambda v: h(v) - crit, centre * 1e-9, centre)
    hi = brentq(lambda v: h(v) - crit, centre, centre * 1e9)
    return lo, hi


def _full_of_s(n):
    return lambda s: 2.0 * (n * math.log(n / s) - n + s)


def _misspec_of_mean(n):
    return lambda t: 2.0 * n * ((t - 1.0) - math.log(t))


def test_uniform_full_statistic_is_its_closed_form():
    cfg = SimConfig(Kind.FIRST, Uniform(), (2.0,), 20, 100, 0.05, 3, 1000)
    x = np.random.default_rng(3).random(20) ** 0.5
    full, misspec = lrt_statistics(x, cfg)
    assert full == pytest.approx(_full_of_s(20)(-np.log(x).sum()), rel=1e-12)
    assert misspec == 0.0


def test_uniform_full_power_matches_the_gamma_law():
    n, reps = 20, 2000
    cfg = SimConfig(Kind.FIRST, Uniform(), (1.0, 1.5, 2.0), n, reps, 0.05, 2026, 2000)
    report = run_power_study(cfg)
    lo, hi = _roots(_full_of_s(n), n, report.crit_full)
    for cell in report.cells:
        s = gamma(a=n, scale=1.0 / cell.lam)
        exact = s.cdf(lo) + s.sf(hi)
        se = math.sqrt(exact * (1.0 - exact) / reps)
        assert abs(cell.power_full - exact) <= 4.0 * se, (cell.lam, cell.power_full, exact)
        assert cell.failures == 0


def test_exponential_misspec_statistic_is_its_closed_form():
    cfg = SimConfig(Kind.FIRST, Exponential(1.0), (1.0,), 50, 100, 0.05, 3, 1000)
    x = extend(Exponential(1.0), 1.0).quantile(np.random.default_rng(4).random(50))
    _, misspec = lrt_statistics(x, cfg)
    assert misspec == pytest.approx(_misspec_of_mean(50)(x.mean()), rel=1e-12)


def test_exponential_null_misspec_law_bounds_the_calibration_and_the_size():
    n, reps, cal, alpha = 50, 2000, 2000, 0.05
    cfg = SimConfig(Kind.FIRST, Exponential(1.0), (1.0,), n, reps, alpha, 2027, cal)
    mean = gamma(a=n, scale=1.0 / n)

    def null_cdf(crit):
        lo, hi = _roots(_misspec_of_mean(n), 1.0, crit)
        return mean.cdf(hi) - mean.cdf(lo)

    # the "higher" (1 - alpha) quantile of cal values is their k-th order
    # statistic, whose null CDF value is Beta(k, cal - k + 1)
    crit = calibrate(cfg)[1]
    k = int(np.quantile(np.arange(cal), 1.0 - alpha, method="higher")) + 1
    assert beta(k, cal - k + 1).ppf(0.0005) <= null_cdf(crit) <= beta(k, cal - k + 1).ppf(0.9995)

    cell, = run_power_study(cfg).cells
    assert cell.crit_misspec == crit and cell.failures == 0
    exact = 1.0 - null_cdf(crit)
    se = math.sqrt(exact * (1.0 - exact) / reps)
    assert abs(cell.power_misspec - exact) <= 4.0 * se, (cell.power_misspec, exact)


def test_second_kind_exponential_power_matches_the_gamma_law():
    n, reps = 20, 2000
    cfg = SimConfig(Kind.SECOND, Exponential(1.0), (1.0, 1.3, 1.6), n, reps, 0.05, 2028, 2000)
    report = run_power_study(cfg)
    lo, hi = _roots(_misspec_of_mean(n), 1.0, report.crit_misspec)
    for i, cell in enumerate(report.cells):
        mean = gamma(a=n, scale=1.0 / (n * cell.lam))
        exact = 1.0 - (mean.cdf(hi) - mean.cdf(lo))
        se = math.sqrt(exact * (1.0 - exact) / reps)
        assert abs(cell.power_misspec - exact) <= 4.0 * se, (cell.lam, cell.power_misspec, exact)
        assert cell.failures == 0
        X = _draw_block(cfg, extend(cfg.base, cell.lam, cfg.kind), i + 1, range(reps))
        stats, failed = _lrt_rows(cfg, X)
        assert not failed.any()
        assert np.max(np.abs(stats[:, 0] - stats[:, 1])) <= 1e-9, cell.lam
