"""The block likelihood engine: blocks of samples against the R = 1 path."""

import hashlib
import math

import numpy as np
import pytest
from scipy import optimize

from lehmann import (
    DegenerateSampleError,
    Exponential,
    Kind,
    SimConfig,
    Uniform,
    Weibull,
    extend,
    fit_full,
    fit_restricted,
    loglik,
    lrt_statistics,
    mle_lambda,
    run_power_study,
    sample,
)
from lehmann.estimate import (
    _GOLDEN_MAX_ITER,
    _GOLDEN_TOL,
    _coordinate_max,
    _fit_block,
    _golden_max,
    _multistarts,
)
from lehmann.lrt_sim import (
    _cell_statistics,
    _draw_block,
    _fitted_rows,
    _lrt_rows,
    _null_loglik,
)

BASES = [Uniform(), Exponential(1.3), Weibull(2.0, 1.0)]


def _cfg(base, kind, **overrides) -> SimConfig:
    fields = dict(
        kind=kind,
        base_family=base.family_id,
        theta0=base.theta,
        lambda_grid=(1.0,),
        n=12,
        replications=100,
        alpha=0.1,
        seed=31,
        calibration_replications=1000,
    )
    fields.update(overrides)
    return SimConfig(**fields)


def _block(cfg, lam, rows=4):
    """``rows`` draws from G(lam, theta0), then one all-equal row."""
    X = _draw_block(cfg, extend(cfg.base, lam, cfg.kind), 1, range(rows))
    return np.vstack([X, np.full((1, cfg.n), X[0, 0])])


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
@pytest.mark.parametrize("base", BASES, ids=lambda b: b.family_id)
def test_block_rows_equal_the_single_sample_path(base, kind, lam):
    cfg = _cfg(base, kind)
    X = _block(cfg, lam)
    full, misspec, failed = _lrt_rows(cfg, X, _null_loglik(cfg, X))

    parametric = bool(base.theta)
    # the all-equal row cannot identify base parameters: excluded as a failure
    assert failed.tolist() == [False] * (len(X) - 1) + [parametric]
    kept_stats = iter(zip(full, misspec))
    for x, fails in zip(X, failed):
        if fails:
            with pytest.raises(DegenerateSampleError):
                lrt_statistics(x, cfg)
        else:  # bit for bit, not approximately
            assert next(kept_stats) == lrt_statistics(x, cfg)

    if not parametric:
        return
    bounds = cfg.effective_theta_bounds()
    kept = X[~failed]
    theta_f, ll_f, _ = _fit_block(kind, type(base), kept, bounds, None)
    theta_r, ll_r, _ = _fit_block(kind, type(base), kept, bounds, 1.0)
    for r, x in enumerate(kept):
        f = fit_full(kind, type(base), x, theta_bounds=bounds)
        g = fit_restricted(kind, type(base), x, 1.0, theta_bounds=bounds)
        assert (tuple(theta_f[r]), ll_f[r]) == (f.theta_hat, f.loglik)
        assert (tuple(theta_r[r]), ll_r[r]) == (g.theta_hat, g.loglik)


# -- scipy's scalar search, as the reference of the lockstep one -------------


def _brent(f, lo, hi):
    """scipy's bounded Brent search for the maximum of scalar ``f`` on [lo, hi]."""
    return optimize.minimize_scalar(lambda v: -f(v), bounds=(lo, hi), method="bounded",
                                    options={"xatol": _GOLDEN_TOL, "maxiter": _GOLDEN_MAX_ITER})


def test_golden_max_rows_equal_scipy_bounded_brent():
    # bracket widths from 1e-7 to 100 close after different numbers of
    # steps, so the lockstep search runs both with every row open and with
    # some closed; peaks inside and outside the brackets (the search then
    # closes at an edge) and a kink at the peak give both parabolic and
    # golden-section steps
    rng = np.random.default_rng(7)
    rows = 200
    lo = rng.uniform(-5.0, 5.0, rows)
    width = 10.0 ** np.linspace(-7.0, 2.0, rows)
    hi = lo + width
    peak = lo + rng.uniform(-0.3, 1.3, rows) * width
    scale = rng.uniform(0.1, 10.0, rows)

    def h(points, peak=peak, scale=scale):
        u = (points - peak) / scale
        return -np.abs(u) ** 1.5 - 0.1 * u ** 4 + np.cos(3.0 * u)

    at, value = _golden_max(h, lo, hi)
    steps = []
    for r in range(rows):
        alone = _brent(lambda v, r=r: h(np.array([v]), peak[r:r + 1], scale[r:r + 1])[0],
                       lo[r], hi[r])
        assert (at[r], value[r]) == (alone.x, -alone.fun)  # bit for bit
        steps.append(alone.nfev)
    assert min(steps) <= 2 and max(steps) >= 30


def test_coordinate_max_drops_converged_rows_and_matches_lone_runs():
    # the cross term couples the coordinates, so the rows need different
    # numbers of sweeps; a row is evaluated only in the sweeps it needs
    peak = np.array([[0.3, 0.6], [0.7, 0.2], [0.5, 0.5], [0.4, 0.8]])
    coupling = np.array([0.0, 0.1, 0.3, 0.6])
    start = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1], [0.2, 0.2]])
    bounds = ((0.0, 1.0), (0.0, 1.0))

    def searched(rows_of):
        sweeps = []

        def objective(rows):
            sweeps.append(rows_of[rows].tolist())
            p, c = peak[rows_of[rows]], coupling[rows_of[rows]]

            def h(theta):
                assert theta.shape == (rows.size, 2)
                u, v = theta[:, 0] - p[:, 0], theta[:, 1] - p[:, 1]
                return -(u * u + v * v + c * u * v)

            return h

        theta, value = _coordinate_max(objective, start[rows_of], bounds)
        return theta, value, sweeps

    theta, value, sweeps = searched(np.arange(len(peak)))
    needed = []
    for r in range(len(peak)):
        alone_theta, alone_value, alone_sweeps = searched(np.array([r]))
        assert (tuple(theta[r]), value[r]) == (tuple(alone_theta[0]), alone_value[0])
        # row r is in the first len(alone_sweeps) sweeps and in none after
        assert [r in rows for rows in sweeps] == [True] * len(alone_sweeps) + [False] * (
            len(sweeps) - len(alone_sweeps))
        needed.append(len(alone_sweeps))
    assert needed == [2, 4, 5, 8] and len(sweeps) == 8


def test_coordinate_max_stops_a_row_flat_along_a_coordinate():
    # the value is flat along theta[1] up to 1e-13 of noise, as along an
    # unidentified scale under rounding: the point wanders from sweep to
    # sweep (a stop on movement runs all 10 sweeps here), but the value
    # stops rising after the second
    sweeps = []

    def objective(rows):
        sweeps.append(rows.tolist())

        def h(theta):
            u, v = theta[:, 0], theta[:, 1]
            return -(u - 0.3) ** 2 + 1e-13 * np.sin(1e12 * u * v)

        return h

    theta, value = _coordinate_max(objective, np.array([[0.9, 0.5]]), ((0.0, 1.0), (0.0, 2.0)))
    assert sweeps == [[0], [0]]
    assert abs(theta[0, 0] - 0.3) < 1e-7 and abs(value[0]) < 1e-12


def _reference_fit(kind, family, x, bounds, lam, extras):
    """Best theta by one public loglik call per objective evaluation.

    Each coordinate is searched by scipy's bounded Brent over its box
    side mapped to [0, 1], and a start stops sweeping once a sweep raises
    its value by at most 1e-12 * (1 + |value|).
    """

    def h(theta):
        try:
            at = mle_lambda(kind, family, theta, x) if lam is None else lam
        except DegenerateSampleError:
            return -math.inf
        value = loglik(kind, family, theta, at, x)
        return -math.inf if math.isnan(value) else value

    finals = []
    for start in _multistarts(bounds):
        theta, value = list(start), -math.inf
        for _ in range(10):
            before = value
            for i, (lo, hi) in enumerate(bounds):
                res = _brent(
                    lambda s: h(theta[:i] + [lo + s * (hi - lo)] + theta[i + 1:]), 0.0, 1.0)
                theta[i], value = lo + res.x * (hi - lo), -res.fun
            if len(bounds) == 1 or not value > before + 1e-12 * (1.0 + abs(value)):
                break
        finals.append((tuple(theta), value))
    finals += [(tuple(t), h(list(t))) for t in extras]
    best_theta, best = finals[0]
    for theta, value in finals[1:]:
        if value > best + 1e-10 or (
            abs(value - best) <= 1e-10 and math.hypot(*theta) < math.hypot(*best_theta)
        ):
            best_theta, best = theta, value
    return best_theta


def _reference_lrt(x, cfg):
    kind, family, theta0 = cfg.kind, type(cfg.base), cfg.theta0
    ll0 = loglik(kind, family, theta0, 1.0, x)
    if theta0:
        bounds = cfg.effective_theta_bounds()
        theta_r = _reference_fit(kind, family, x, bounds, 1.0, [theta0])
        restr = loglik(kind, family, theta_r, 1.0, x)
        if restr < ll0:
            theta_r, restr = theta0, ll0
        theta_f = _reference_fit(kind, family, x, bounds, None, [theta_r])
    else:
        restr, theta_f = ll0, ()
    full = loglik(kind, family, theta_f, mle_lambda(kind, family, theta_f, x), x)
    return 2.0 * (max(full, restr) - ll0), 2.0 * (restr - ll0)


@pytest.mark.parametrize("lam", [0.5, 3.0])
@pytest.mark.parametrize("base,kind", [
    (Uniform(), Kind.FIRST), (Exponential(1.3), Kind.FIRST),
    (Exponential(1.3), Kind.SECOND), (Weibull(2.0, 1.0), Kind.SECOND),
], ids=["uniform-1", "exponential-1", "exponential-2", "weibull-2"])
def test_block_rows_equal_the_scalar_reference(base, kind, lam):
    cfg = _cfg(base, kind)
    X = _draw_block(cfg, extend(cfg.base, lam, kind), 2, range(3))
    full, misspec, failed = _lrt_rows(cfg, X, _null_loglik(cfg, X))
    assert not failed.any()
    assert list(zip(full, misspec)) == [_reference_lrt(x, cfg) for x in X]


@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
@pytest.mark.parametrize("base,reps", [(Exponential(1.0), 400), (Weibull(2.0, 1.0), 60)],
                         ids=["exponential", "weibull"])
def test_nesting_holds_on_every_row(base, kind, reps):
    cfg = _cfg(base, kind, n=20)
    for cell, lam in enumerate((1.0, 0.4, 2.5)):
        full, misspec, failures = _cell_statistics(
            cfg, extend(cfg.base, lam, kind), cell, reps
        )
        assert failures == 0 and full.size == reps
        assert np.all(full >= misspec) and np.all(misspec >= 0.0)


@pytest.mark.parametrize("base", BASES, ids=lambda b: b.family_id)
def test_fitted_rows_go_through_lrt_statistics_like_lone_samples(base):
    cfg = _cfg(base, Kind.SECOND)
    X = _block(cfg, 3.0)
    rows = _fitted_rows(cfg, X, _null_loglik(cfg, X))
    assert [row.stats is None for row in rows] == [False] * (len(X) - 1) + [bool(base.theta)]
    for row, x in zip(rows, X):
        if row.stats is None:
            with pytest.raises(DegenerateSampleError, match="all sample values are equal"):
                lrt_statistics(row, cfg)
        else:
            assert lrt_statistics(row, cfg) == lrt_statistics(x, cfg)

def _float_fingerprint() -> str:
    """Digest of the transcendental functions the reports are built from."""
    u = np.linspace(1e-3, 1.0 - 1e-3, 4001)
    parts = [np.log(u), np.exp(-30.0 * u), np.expm1(-3.0 * u), np.log1p(-u),
             u ** (4.0 * u + 0.1), np.array([math.log(t) for t in (7.0 * u).tolist()])]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


# the platform the digests below were recorded on (numpy 2.4, AVX-512 CPU);
# numpy's SIMD log/exp differ in the last ulp between CPU feature sets, and
# report bytes with them
RECORDED_FLOATS = "8062d9b35ed497d6ef59bb33124e1ab044cd9db6fe1028142b3fe33bc9713b66"

# SHA-256 of LrtReport.to_json(), recorded with the Brent line searches
# ("weibull-second-kind" re-recorded with the log-space Weibull kernels:
# its statistics moved by at most 5.0e-13 and every power count was the
# same; "exponential" re-recorded when first-kind draws whose base
# fraction is at least 1/2 began inverting through the survival side:
# same critical values and power counts, mean_log_ratio moved by at most
# 8.3e-17)
PINNED_REPORTS = {
    "exponential": (
        dict(kind=Kind.FIRST, base_family="exponential", theta0=(1.0,),
             lambda_grid=(1.0, 2.0), n=30, replications=100, alpha=0.1,
             seed=2024, calibration_replications=1000),
        "2971ee987a508ffb6089701c9c85df61feea08edb68519f7924e82dc154b7d8d",
    ),
    "weibull-second-kind": (
        dict(kind=Kind.SECOND, base_family="weibull", theta0=(2.0, 1.0),
             lambda_grid=(1.0, 0.5), n=20, replications=100, alpha=0.1,
             seed=2025, calibration_replications=1000),
        "429c4d6c946ab5430afcb7b8fcdb85bca4acbf4fe07274ec3321e330a42ce8c0",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(name):
    if _float_fingerprint() != RECORDED_FLOATS:
        pytest.skip("log/exp round differently here than where the digests were recorded")
    fields, digest = PINNED_REPORTS[name]
    report = run_power_study(SimConfig(**fields))
    assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == digest


# SHA-256 of LrtReport.to_csv() for the "exponential" study above, recorded
# with the survival-side first-kind draws
PINNED_CSV = "42a380b68c2fbb4a4acd5b203070bfd0f98c2ac8aa5c50ddc9a1976f4f5a55bf"


def test_report_csv_bytes_are_pinned():
    if _float_fingerprint() != RECORDED_FLOATS:
        pytest.skip("log/exp round differently here than where the digests were recorded")
    report = run_power_study(SimConfig(**PINNED_REPORTS["exponential"][0]))
    assert hashlib.sha256(report.to_csv().encode("utf-8")).hexdigest() == PINNED_CSV


# SHA-256 of FitResult.to_json() for first-kind Weibull fit_full on
# sample(extend(Weibull(2, 1), lam, FIRST), n, 2026), recorded with the
# survival-side first-kind draws (loglik moved by +4.3e-8, +7.4e-7,
# +1.9e-5 and +0.076 nats in table order); the search does not reach the
# MLE on this ridge, so these pin the search, not the optimum, and a
# last-ulp change in the kernels or the sample moves them
PINNED_WEIBULL_FITS = {
    (0.5, 50): "649dc40f36d230e76b32aa71e4dccf3c289996fbd3da1e8bd36d4113c729366d",
    (0.5, 200): "d58619ef2782648776a365304f007ed3b2afcb885c2be1656ecf2f9b1ef826e9",
    (2.0, 50): "9b458b898759c2f0c232358c0c4f3170c8ab643d1ddeb5f3761f6d49bfd99c55",
    (2.0, 200): "598f1b66ba3ff1097b4dcaf21cbb23b182bd0d8a94da419a5e8f0692245b2fa0",
}


@pytest.mark.parametrize("lam,n", sorted(PINNED_WEIBULL_FITS))
def test_first_kind_weibull_fit_bytes_are_pinned(lam, n):
    if _float_fingerprint() != RECORDED_FLOATS:
        pytest.skip("log/exp round differently here than where the digests were recorded")
    x = sample(extend(Weibull(2.0, 1.0), lam, Kind.FIRST), n, 2026)
    fit = fit_full(Kind.FIRST, "weibull", x, theta_bounds=((0.1, 40.0), (0.05, 20.0)))
    digest = hashlib.sha256(fit.to_json().encode("utf-8")).hexdigest()
    assert digest == PINNED_WEIBULL_FITS[lam, n]
