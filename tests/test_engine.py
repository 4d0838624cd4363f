"""The block likelihood engine: blocks of samples against the R = 1 path."""

import hashlib
import math

import numpy as np
import pytest

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
from lehmann.estimate import _coordinate_max, _fit_block, _golden_max, _multistarts
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


# -- the scalar search the engine replaced, as a reference -------------------

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(f, a, b):
    c, d = b - INVPHI * (b - a), a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= 1e-8:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def test_golden_max_rows_with_different_brackets_match_lone_searches():
    # unequal bracket widths close after different numbers of steps, so the
    # lockstep search runs both with every row open and with some closed
    lo = np.array([0.0, -1.0, 2.0, 0.5, 3.0])
    hi = np.array([1.0, 5.0, 2.5, 100.0, 3.0 + 1e-7])
    peak = np.array([0.3, 4.0, 2.49, 7.0, 3.0])

    def h(points):
        return -(points - peak) * (points - peak)

    at, value = _golden_max(h, lo, hi)
    for r in range(len(lo)):
        alone = _golden(lambda v, r=r: -(v - peak[r]) * (v - peak[r]), lo[r], hi[r])
        assert (at[r], value[r]) == alone


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
    assert needed == [2, 5, 7, 9] and len(sweeps) == 9


def _reference_fit(kind, family, x, bounds, lam, extras):
    """Best theta by one public loglik call per objective evaluation."""

    def h(theta):
        try:
            at = mle_lambda(kind, family, theta, x) if lam is None else lam
        except DegenerateSampleError:
            return -math.inf
        value = loglik(kind, family, theta, at, x)
        return -math.inf if math.isnan(value) else value

    finals = []
    for start in _multistarts(bounds):
        theta = list(start)
        for _ in range(10):
            moved = 0.0
            for i, (lo, hi) in enumerate(bounds):
                xi, value = _golden(lambda v: h(theta[:i] + [v] + theta[i + 1:]), lo, hi)
                moved = max(moved, abs(xi - theta[i]))
                theta[i] = xi
            if len(bounds) == 1 or moved < 1e-8:
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

# SHA-256 of LrtReport.to_json(), recorded with the per-replication scalar
# loop the block engine replaced; the engine must reproduce every byte
PINNED_REPORTS = {
    "exponential": (
        dict(kind=Kind.FIRST, base_family="exponential", theta0=(1.0,),
             lambda_grid=(1.0, 2.0), n=30, replications=100, alpha=0.1,
             seed=2024, calibration_replications=1000),
        "244926fb65031e5346a2fa37f02a93a621b6f7298be79096c8f1529f487fd0c2",
    ),
    "weibull-second-kind": (
        dict(kind=Kind.SECOND, base_family="weibull", theta0=(2.0, 1.0),
             lambda_grid=(1.0, 0.5), n=20, replications=100, alpha=0.1,
             seed=2025, calibration_replications=1000),
        "c6b30a6587a563f5c0a2cc57840eab997be0117520ae2468974c3055d2ce5d4b",
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
# when the CSV columns were spelled out apart from CellResult.as_dict()
PINNED_CSV = "306ce5a6aa399dbe735becdb9374b676b12b89711e5369c574bf8ce63793f328"


def test_report_csv_bytes_are_pinned():
    if _float_fingerprint() != RECORDED_FLOATS:
        pytest.skip("log/exp round differently here than where the digests were recorded")
    report = run_power_study(SimConfig(**PINNED_REPORTS["exponential"][0]))
    assert hashlib.sha256(report.to_csv().encode("utf-8")).hexdigest() == PINNED_CSV


# SHA-256 of FitResult.to_json() for first-kind Weibull fit_full on
# sample(extend(Weibull(2, 1), lam, FIRST), n, 2026), recorded before the
# fused Weibull kernel: the 2-D profile search must reproduce every byte
PINNED_WEIBULL_FITS = {
    (0.5, 50): "05580a3d50e7374037a7abb08f0d10fdfdead6add35febdcf732ceb26acc5e05",
    (0.5, 200): "17c8c607124383e3b75ebe35f787f053d52d1778bd194cba0b2d3d7479798b16",
    (2.0, 50): "2bf0c2f736b71d96a554223489f0ff9ac270eb75f3f5c845fb806b90cb6487fa",
    (2.0, 200): "c91b94e712d0e5f6fa91c77d369d2e72280b49e95a28d0f0eb2275bfdf84b187",
}


@pytest.mark.parametrize("lam,n", sorted(PINNED_WEIBULL_FITS))
def test_first_kind_weibull_fit_bytes_are_pinned(lam, n):
    if _float_fingerprint() != RECORDED_FLOATS:
        pytest.skip("log/exp round differently here than where the digests were recorded")
    x = sample(extend(Weibull(2.0, 1.0), lam, Kind.FIRST), n, 2026)
    fit = fit_full(Kind.FIRST, "weibull", x, theta_bounds=((0.1, 40.0), (0.05, 20.0)))
    digest = hashlib.sha256(fit.to_json().encode("utf-8")).hexdigest()
    assert digest == PINNED_WEIBULL_FITS[lam, n]
