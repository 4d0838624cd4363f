"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test asserts the criterion at its stated tolerance and prints one
summary line (visible with `pytest -rA` or on failure). Criterion 8's
power-gap clause is asserted exactly as stated; see the test docstring
for why it cannot pass at lambda = 3 with this design size.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from lehmann import (
    Exponential,
    Kind,
    SimConfig,
    Uniform,
    Weibull,
    empirical_kl_objective,
    extend,
    fit_full,
    kl_numeric,
    mean_log_ratio_mc,
    mle_lambda,
    power_loss_closed,
    run_power_study,
    sample,
    sample_to_csv,
)
from lehmann.cli import main

BASES = [Uniform(), Exponential(1.0), Weibull(2.0, 1.0)]


def test_criterion_01_closed_form_matches_quadrature_kl():
    lams = [0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
    worst = 0.0
    for base in BASES:
        for lam in lams:
            got = kl_numeric(extend(base, lam), extend(base, 1.0)).value
            diff = abs(got - power_loss_closed(lam))
            worst = max(worst, diff)
            assert diff < 1e-8, (
                f"criterion 1 FAIL: base={base.describe()} lam={lam}: "
                f"|kl - closed| = {diff:.3e} >= 1e-8"
            )
    print(f"criterion 1 PASS: 18 checks, worst |kl - closed| = {worst:.3e} < 1e-8")


def test_criterion_02_power_loss_curve_values():
    res = CliRunner().invoke(
        main,
        ["powerloss", "--lambda-min", "1", "--lambda-max", "10", "--steps", "10"],
        catch_exceptions=False,
    )
    assert res.exit_code == 0
    rows = [tuple(map(float, line.split(","))) for line in res.output.splitlines()[1:]]
    grid = [r[0] for r in rows]
    vals = [r[1] for r in rows]
    assert grid == [float(v) for v in range(1, 11)]
    assert vals[0] == 0.0, "criterion 2 FAIL: curve does not start at (1, 0)"
    assert all(b > a for a, b in zip(vals, vals[1:])), "criterion 2 FAIL: not increasing"
    assert abs(vals[1] - 0.193147) < 1e-6, f"criterion 2 FAIL at lam=2: {vals[1]}"
    assert abs(vals[-1] - (math.log(10.0) - 0.9)) < 1e-6, (
        f"criterion 2 FAIL at lam=10: {vals[-1]}"
    )
    print(
        "criterion 2 PASS: curve starts at (1,0), strictly increasing, "
        f"end values {vals[1]:.6f} and {vals[-1]:.6f}"
    )


def test_criterion_03_monte_carlo_kl_bridge():
    q = extend(Uniform(), 1.0)
    for lam, seed in [(2.0, 101), (3.0, 102), (5.0, 103)]:
        r = mean_log_ratio_mc(extend(Uniform(), lam), q, 100_000, seed)
        gap = abs(r.value - power_loss_closed(lam))
        assert gap < 4.0 * r.error_estimate, (
            f"criterion 3 FAIL: lam={lam}: |mc - closed| = {gap:.5f} "
            f">= 4*se = {4 * r.error_estimate:.5f}"
        )
    print("criterion 3 PASS: mc estimate within 4 se of closed form at lam in {2,3,5}")


def test_criterion_04_mle_consistency_and_hand_values():
    x = math.exp(-1.0)
    assert abs(mle_lambda(Kind.FIRST, Uniform, (), [x]) - 1.0) < 1e-12
    y = math.exp(-2.0)
    assert abs(mle_lambda(Kind.FIRST, Uniform, (), [y, y]) - 0.5) < 1e-12

    estimates = [
        mle_lambda(Kind.FIRST, Uniform, (), sample(extend(Uniform(), 2.5), 10_000, seed).values)
        for seed in range(20)
    ]
    med = float(np.median(estimates))
    assert abs(med - 2.5) <= 0.075, (
        f"criterion 4 FAIL: median lambda_hat = {med:.4f} not in 2.5 +/- 0.075"
    )
    print(f"criterion 4 PASS: hand values exact, median lambda_hat = {med:.4f}")


def test_criterion_05_composition_closure():
    rng = np.random.default_rng(2024)
    u = np.linspace(0.0005, 0.9995, 1000)
    for base in BASES:
        x = base.quantile(u)
        for _ in range(10):
            a, b = rng.uniform(0.1, 10.0, size=2)
            left = extend(base, a).compose(b)
            right = extend(base, a * b)
            assert np.max(np.abs(left.cdf(x) - right.cdf(x))) <= 1e-12
            assert np.max(np.abs(left.quantile(u) - right.quantile(u))) <= 1e-12 * max(
                1.0, float(np.max(np.abs(right.quantile(u))))
            )
            lp, rp = left.pdf(x), right.pdf(x)
            ok = np.isfinite(rp)
            assert np.max(np.abs(lp[ok] - rp[ok])) <= 1e-12 * max(1.0, float(np.max(rp[ok])))
    print("criterion 5 PASS: compose(extend(F,a),b) = extend(F,ab) at 1e3 points, 30 pairs")


def test_criterion_06_max_min_laws_within_dkw_bands():
    n_stats = 10_000
    eps = math.sqrt(math.log(2.0 / 0.001) / (2.0 * n_stats))
    rng = np.random.default_rng(606)
    for base in BASES:
        for m in (2, 5):
            draws = base.quantile(rng.uniform(1e-12, 1 - 1e-12, size=(n_stats, m)))
            for kind, stat in [
                (Kind.FIRST, draws.max(axis=1)),
                (Kind.SECOND, draws.min(axis=1)),
            ]:
                g = extend(base, float(m), kind)
                xs = np.sort(stat)
                ecdf = np.arange(1, n_stats + 1) / n_stats
                dist = float(np.max(np.abs(g.cdf(xs) - ecdf)))
                assert dist < eps, (
                    f"criterion 6 FAIL: {base.describe()} m={m} kind={kind}: "
                    f"sup|ecdf - cdf| = {dist:.4f} >= {eps:.4f}"
                )
    print(f"criterion 6 PASS: 12 DKW checks at band half-width {eps:.4f}")


def test_criterion_07_moment_identities():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 7.0):
        got = extend(Uniform(), lam).moment(1)
        worst = max(worst, abs(got - lam / (lam + 1.0)))
        assert abs(got - lam / (lam + 1.0)) < 1e-9, (
            f"criterion 7 FAIL: uniform mean at lam={lam}: {got!r}"
        )
        for rate in (1.0, 2.5):
            got = extend(Exponential(rate), lam, Kind.SECOND).moment(1)
            worst = max(worst, abs(got - 1.0 / (lam * rate)))
            assert abs(got - 1.0 / (lam * rate)) < 1e-9, (
                f"criterion 7 FAIL: exponential mean at lam={lam}, rate={rate}: {got!r}"
            )
    print(f"criterion 7 PASS: moment oracles within 1e-9 (worst {worst:.2e})")


def test_criterion_08_lrt_power_ordering():
    """Sizes at the null and the power gap at lambda = 3.

    The gap clause is asserted exactly as stated. At n = 50 draws of the
    first-kind exponentiated exponential with lambda = 3 both tests
    reject in essentially every replication (the data mean sits ~8 null
    standard errors above the acceptance region), so power_full and
    power_misspec are both 1 to Monte Carlo resolution, the pooled
    standard error is 0, and a strict '> 3 se' ordering cannot be
    observed at any feasible replication count. The printed diagnostics
    record the saturation; the identifiable ordering away from
    saturation is demonstrated at lambda = 1.5 in the module tests.
    """
    cfg = SimConfig(
        kind=Kind.FIRST,
        base=Exponential(1.0),
        lambda_grid=(1.0, 3.0),
        n=50,
        replications=2000,
        alpha=0.05,
        seed=808,
        calibration_replications=10_000,
    )
    report = run_power_study(cfg)
    null_cell, alt_cell = report.cells

    se_bin = math.sqrt(0.05 * 0.95 / 2000)
    for name, size in [
        ("full", null_cell.power_full),
        ("misspec", null_cell.power_misspec),
    ]:
        assert abs(size - 0.05) <= 3.0 * se_bin, (
            f"criterion 8 FAIL: {name} size {size:.4f} outside 0.05 +/- {3 * se_bin:.4f}"
        )
    print(
        f"criterion 8 sizes PASS: full {null_cell.power_full:.4f}, "
        f"misspec {null_cell.power_misspec:.4f} within 0.05 +/- {3 * se_bin:.4f}"
    )

    gap = alt_cell.power_full - alt_cell.power_misspec
    pooled = math.hypot(alt_cell.se_full, alt_cell.se_misspec)
    print(
        "criterion 8 gap diagnostics: "
        f"power_full = {alt_cell.power_full:.4f} (se {alt_cell.se_full:.2e}), "
        f"power_misspec = {alt_cell.power_misspec:.4f} (se {alt_cell.se_misspec:.2e}), "
        f"gap = {gap:.2e}, 3*pooled se = {3 * pooled:.2e}; "
        f"crit_full = {report.crit_full:.3f}, crit_misspec = {report.crit_misspec:.3f}; "
        f"mean_log_ratio = {alt_cell.mean_log_ratio:.4f} vs "
        f"delta_closed = {alt_cell.delta_closed:.4f} "
        f"(se {alt_cell.se_mean_log_ratio:.2e})"
    )
    assert gap > 3.0 * pooled, (
        "criterion 8 FAIL (expected): both tests saturate at lambda = 3 "
        f"(power_full = {alt_cell.power_full:.4f}, "
        f"power_misspec = {alt_cell.power_misspec:.4f}, gap = {gap:.2e}, "
        f"3*pooled se = {3 * pooled:.2e}); with zero observed acceptances in "
        "2000 replications the rule-of-three bound puts each miss "
        "probability below 1.5e-3, so no ordering is resolvable here"
    )
    print("criterion 8 PASS: power gap exceeds 3 pooled standard errors")


def test_criterion_09_grid_argmin_matches_mle():
    grid = np.arange(0.05, 20.0 + 1e-9, 0.05)
    for seed in range(20):
        x = sample(extend(Uniform(), 2.5), 300, seed).values
        vals = [empirical_kl_objective(Kind.FIRST, Uniform, (), lam, x) for lam in grid]
        best = float(grid[int(np.argmin(vals))])
        lam_hat = mle_lambda(Kind.FIRST, Uniform, (), x)
        assert abs(best - lam_hat) <= 0.05 + 1e-12, (
            f"criterion 9 FAIL: seed {seed}: grid argmin {best} vs mle {lam_hat}"
        )
    print("criterion 9 PASS: objective argmin within one grid step of the mle, 20 seeds")


def test_criterion_10_byte_identical_serialized_outputs():
    g = extend(Weibull(1.5, 2.0), 2.0)
    assert sample_to_csv(sample(g, 200, 4321)) == sample_to_csv(sample(g, 200, 4321))

    x = sample(g, 500, 99)
    fit_a = fit_full(Kind.FIRST, Weibull, x, ((0.2, 8.0), (0.2, 8.0)))
    fit_b = fit_full(Kind.FIRST, Weibull, x, ((0.2, 8.0), (0.2, 8.0)))
    assert fit_a.to_json() == fit_b.to_json()

    cfg = SimConfig(
        kind=Kind.FIRST,
        base=Uniform(),
        lambda_grid=(1.0, 2.0),
        n=60,
        replications=120,
        alpha=0.1,
        seed=5,
        calibration_replications=1000,
    )
    rep_a = run_power_study(cfg)
    rep_b = run_power_study(cfg)
    assert rep_a.to_csv() == rep_b.to_csv()
    assert rep_a.to_json() == rep_b.to_json()

    runner = CliRunner()
    args = ["sample", "--dist", "uniform()", "--lambda", "2", "--n", "10", "--seed", "7"]
    out_a = runner.invoke(main, args, catch_exceptions=False).output
    out_b = runner.invoke(main, args, catch_exceptions=False).output
    assert out_a == out_b
    print("criterion 10 PASS: repeated seeded runs byte-identical (csv, json, cli)")
