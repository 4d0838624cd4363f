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
from lehmann import estimate
from lehmann.estimate import (
    _GOLDEN_MAX_ITER,
    _GOLDEN_TOL,
    _fit_block,
    _golden_max,
    _newton_max,
    _unit_map,
    _unit_starts,
)
from lehmann.lrt_sim import (
    _cell_statistics,
    _draw_block,
    _fitted_rows,
    _lrt_rows,
)

BASES = [Uniform(), Exponential(1.3), Weibull(2.0, 1.0)]


def _cfg(base, kind, **overrides) -> SimConfig:
    fields = dict(
        kind=kind,
        base=base,
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
    stats, failed = _lrt_rows(cfg, X)
    full, misspec = stats.T

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
    bounds = cfg.theta_bounds
    kept = X[~failed]
    theta_f, ll_f, *_ = _fit_block(kind, type(base), kept, bounds, None)
    theta_r, ll_r, *_ = _fit_block(kind, type(base), kept, bounds, 1.0)
    for r, x in enumerate(kept):
        f = fit_full(kind, type(base), x, theta_bounds=bounds)
        g = fit_restricted(kind, type(base), x, 1.0, theta_bounds=bounds)
        assert (tuple(theta_f[r]), ll_f[r]) == (f.theta_hat, f.loglik)
        assert (tuple(theta_r[r]), ll_r[r]) == (g.theta_hat, g.loglik)


@pytest.mark.parametrize("max_iter", [estimate._NEWTON_MAX_ITER, 2], ids=["cap-100", "cap-2"])
@pytest.mark.parametrize("lam", [None, 1.0, 2.5], ids=["full", "restricted-1", "restricted-2.5"])
@pytest.mark.parametrize("base,kind", [
    (Exponential(1.3), Kind.FIRST), (Exponential(1.3), Kind.SECOND),
    (Weibull(2.0, 1.0), Kind.FIRST), (Weibull(2.0, 1.0), Kind.SECOND),
], ids=["exponential-1", "exponential-2", "weibull-1", "weibull-2"])
def test_block_search_record_is_the_lone_fits_trace(monkeypatch, base, kind, lam, max_iter):
    # a lone fit is the one-row block fit: its profile_trace is its row of
    # the block's scored candidates, and its warnings name that row's
    # starts left at the iteration cap (a cap of 2 leaves some there)
    monkeypatch.setattr(estimate, "_NEWTON_MAX_ITER", max_iter)
    cfg = _cfg(base, kind)
    X = _draw_block(cfg, extend(base, 2.0, kind), 1, range(4))
    bounds = cfg.theta_bounds
    theta_hat, _, _, candidates, capped = _fit_block(kind, type(base), X, bounds, lam)
    if len(bounds) > 1 and max_iter == 2:
        assert capped.any()
    for r, x in enumerate(X):
        if lam is None:
            fit = fit_full(kind, type(base), x, theta_bounds=bounds)
        else:
            fit = fit_restricted(kind, type(base), x, lam, theta_bounds=bounds)
        assert fit.theta_hat == tuple(theta_hat[r])
        assert fit.profile_trace == tuple((tuple(t[r]), v[r]) for t, v in candidates)
        cap_notes = [w for w in fit.warnings if "iteration cap" in w]
        assert cap_notes == ([f"{capped[r]} of 5 starts stopped at the search's iteration "
                              f"cap ({max_iter})"] if capped[r] else [])


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


def _searched(peaks, scales, starts):
    """_newton_max on a smooth, non-quadratic, coupled objective, one
    (peak, scale) per row; returns its result and the rows of every call."""
    calls = []

    def h(rows, u):
        calls.append(rows.tolist())
        a = scales[rows, None] * (u - peaks[rows])
        return -np.cosh(a[:, 0]) - np.cosh(a[:, 1] + 0.5 * a[:, 0]) + 0.3 * a[:, 0] * a[:, 1]

    return (*_newton_max(h, starts), calls)


def test_newton_max_drops_converged_rows_and_matches_lone_runs():
    # far and near starts and steep and gentle objectives need different
    # numbers of iterations; a row is evaluated only in the calls it needs
    peaks = np.array([[0.3, 0.6], [0.7, 0.2], [0.5, 0.5], [0.4, 0.8]])
    scales = np.array([1.0, 3.0, 8.0, 20.0])
    starts = np.array([[0.31, 0.59], [0.5, 0.5], [0.9, 0.1], [0.1, 0.1]])
    u, value, capped, calls = _searched(peaks, scales, starts)
    assert not capped.any()
    needed = []
    for r in range(len(peaks)):
        lone_u, lone_value, _, lone_calls = _searched(peaks[r:r + 1], scales[r:r + 1],
                                                      starts[r:r + 1])
        # bit for bit, at the peak (the cosh terms give no other maximum)
        assert (tuple(u[r]), value[r]) == (tuple(lone_u[0]), lone_value[0])
        assert np.abs(u[r] - peaks[r]).max() < 1e-7
        # row r is evaluated in as many calls as alone, and in none after
        # its last one
        mine = [i for i, rows in enumerate(calls) if r in rows]
        assert len(mine) == len(lone_calls)
        needed.append(mine[-1])
    assert len(set(needed)) == len(needed) and max(needed) == len(calls) - 1


def test_newton_max_stops_a_row_flat_along_a_coordinate():
    # the value is flat along u[1] up to 1e-13 of noise, as along an
    # unidentified scale under rounding: the noise steers u[1], but the
    # value stops rising within a few iterations, far from the cap
    calls = []

    def h(rows, u):
        calls.append(len(rows))
        return -(u[:, 0] - 0.3) ** 2 + 1e-13 * np.sin(1e12 * u[:, 0] * u[:, 1])

    u, value, capped = _newton_max(h, np.array([[0.9, 0.5]]))
    assert not capped.any() and len(calls) < 40
    assert abs(u[0, 0] - 0.3) < 1e-7 and abs(value[0]) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_newton_max_climbs_out_of_a_convex_tail(dim):
    # a coupled Gaussian bump: its Hessian is indefinite or positive
    # definite away from the peak, where the Levenberg shift must still
    # give an ascent step
    peak = np.linspace(0.4, 0.6, dim)
    coupling = 0.4 * (np.ones((dim, dim)) - np.eye(dim)) + np.eye(dim)

    def h(rows, u):
        a = 6.0 * (u - peak)
        return np.exp(-0.5 * np.einsum("ri,ij,rj->r", a, coupling, a))

    starts = np.array([[0.2] * dim, [0.8] * dim, [0.2] + [0.8] * (dim - 1)])
    u, value, capped = _newton_max(h, starts)
    assert not capped.any()
    assert np.abs(u - peak).max() < 1e-6 and np.all(value > 1.0 - 1e-12)


def test_rows_at_the_iteration_cap_are_reported(monkeypatch):
    monkeypatch.setattr(estimate, "_NEWTON_MAX_ITER", 2)
    peaks = np.array([[0.3, 0.6], [0.4, 0.8]])
    u, value, capped, _ = _searched(peaks, np.array([1.0, 20.0]),
                                    np.array([[0.3, 0.6], [0.1, 0.1]]))
    assert capped.tolist() == [False, True]
    x = sample(extend(Weibull(2.0, 1.0), 0.5, Kind.FIRST), 50, 2026)
    fit = fit_full(Kind.FIRST, "weibull", x, theta_bounds=((0.1, 40.0), (0.05, 20.0)))
    assert fit.warnings[-1].endswith("starts stopped at the search's iteration cap (2)")


def _reference_fit(kind, family, x, bounds, lam, extras):
    """Best theta by one public loglik call per objective evaluation.

    One parameter: scipy's bounded Brent over its box side mapped to
    [0, 1]. More: the engine's Newton search on the unit cube, from the
    engine's starts, with every stencil and trial point evaluated alone.
    """

    def h(theta):
        try:
            at = mle_lambda(kind, family, theta, x) if lam is None else lam
        except DegenerateSampleError:
            return -math.inf
        value = loglik(kind, family, theta, at, x)
        return -math.inf if math.isnan(value) else value

    if len(bounds) == 1:
        (lo, hi), = bounds
        res = _brent(lambda s: h([lo + s * (hi - lo)]), 0.0, 1.0)
        finals = [((lo + res.x * (hi - lo),), -res.fun)]
    else:
        to_theta = _unit_map(bounds)
        u, value, _ = _newton_max(
            lambda rows, u: np.array([h(tuple(t)) for t in to_theta(u)]),
            _unit_starts(len(bounds)))
        finals = [(tuple(t), v) for t, v in zip(to_theta(u), value)]
    finals += [(tuple(t), h(list(t))) for t in extras]
    best_theta, best = finals[0]
    for theta, value in finals[1:]:
        if value > best + 1e-10 or (
            abs(value - best) <= 1e-10 and math.hypot(*theta) < math.hypot(*best_theta)
        ):
            best_theta, best = theta, value
    return best_theta


def _reference_lrt(x, cfg):
    kind, family, theta0 = cfg.kind, type(cfg.base), cfg.base.theta
    ll0 = loglik(kind, family, theta0, 1.0, x)
    if theta0:
        bounds = cfg.theta_bounds
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
    stats, failed = _lrt_rows(cfg, X)
    full, misspec = stats.T
    assert not failed.any()
    assert list(zip(full, misspec)) == [_reference_lrt(x, cfg) for x in X]


def test_objective_calls_are_chunked_without_changing_a_bit(monkeypatch):
    # the Newton stencil multiplies the rows by 9; calls are cut to at most
    # _EVAL_VALUES sample values each, here 7 points of n = 12 values
    cfg = _cfg(Weibull(2.0, 1.0), Kind.FIRST)
    X = _draw_block(cfg, extend(cfg.base, 2.0, Kind.FIRST), 1, range(4))
    bounds = cfg.theta_bounds
    whole = _fit_block(Kind.FIRST, Weibull, X, bounds, None)
    sizes = []

    def recorded(kind, base, X, lam):
        sizes.append(base.shape.shape[0] * X.shape[1])
        return evaluate(kind, base, X, lam)

    evaluate = estimate._evaluate
    monkeypatch.setattr(estimate, "_EVAL_VALUES", 7 * cfg.n)
    monkeypatch.setattr(estimate, "_evaluate", recorded)
    chunked = _fit_block(Kind.FIRST, Weibull, X, bounds, None)

    def arrays(fit):
        """Every array of a _fit_block result, the scored candidates included."""
        *head, candidates, capped = fit
        return head + [capped] + [a for pair in candidates for a in pair]

    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays(whole), arrays(chunked)))
    # the final evaluation at theta_hat is one call for the whole block
    assert max(sizes[:-1]) == 7 * cfg.n and sizes[-1] == len(X) * cfg.n


@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
@pytest.mark.parametrize("base,reps", [(Exponential(1.0), 400), (Weibull(2.0, 1.0), 60)],
                         ids=["exponential", "weibull"])
def test_nesting_holds_on_every_row(base, kind, reps):
    cfg = _cfg(base, kind, n=20)
    for cell, lam in enumerate((1.0, 0.4, 2.5)):
        stats, failures = _cell_statistics(cfg, extend(cfg.base, lam, kind), cell, reps)
        full, misspec = stats.T
        assert failures == 0 and full.size == reps
        assert np.all(full >= misspec) and np.all(misspec >= 0.0)


@pytest.mark.parametrize("base", BASES, ids=lambda b: b.family_id)
def test_fitted_rows_go_through_lrt_statistics_like_lone_samples(base):
    cfg = _cfg(base, Kind.SECOND)
    X = _block(cfg, 3.0)
    rows = _fitted_rows(cfg, X)
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

# SHA-256 of LrtReport.to_json(), recorded when the engine began summing
# ln f - w (the log hazard) and two-parameter fits began using the Newton
# search: "exponential" moved in the last ulps (crit_full by 1.4e-14,
# mean_log_ratio by 5.6e-17), "weibull-second-kind" by at most 1.7e-13
# (critical values); every power count was the same
PINNED_REPORTS = {
    "exponential": (
        dict(kind=Kind.FIRST, base=Exponential(1.0),
             lambda_grid=(1.0, 2.0), n=30, replications=100, alpha=0.1,
             seed=2024, calibration_replications=1000),
        "f92314fea83ce97e1067184e1397e4de49e75d1f636176bbf6c71403be1efdb5",
    ),
    "weibull-second-kind": (
        dict(kind=Kind.SECOND, base=Weibull(2.0, 1.0),
             lambda_grid=(1.0, 0.5), n=20, replications=100, alpha=0.1,
             seed=2025, calibration_replications=1000),
        "e578e01df86d609f8b1bb71b304117df5499d66e984a865e52736da244c389d0",
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
# with the log-hazard sums
PINNED_CSV = "2064cf20d1f46b267cecdc5232ce3db3c5cc7220b66365f6591f9c307dd3ac9a"


def test_report_csv_bytes_are_pinned():
    if _float_fingerprint() != RECORDED_FLOATS:
        pytest.skip("log/exp round differently here than where the digests were recorded")
    report = run_power_study(SimConfig(**PINNED_REPORTS["exponential"][0]))
    assert hashlib.sha256(report.to_csv().encode("utf-8")).hexdigest() == PINNED_CSV


# SHA-256 of FitResult.to_json() for first-kind Weibull fit_full on
# sample(extend(Weibull(2, 1), lam, FIRST), n, 2026), recorded with the
# Newton search, which reaches the maximum of this ridge (loglik rose by
# 0.77, 0.86, 1.57 and 3.18 nats in table order over the coordinate
# search before it; test_estimate.py checks the optimum itself)
PINNED_WEIBULL_FITS = {
    (0.5, 50): "f6315cc9881c27a8a15c68c22bbbbbd887ca17dcbcc0743a508fa11f97f94c4c",
    (0.5, 200): "e06e06e52b8e77f80e413abd8f05d498075157641c278744f74dda13125dcce3",
    (2.0, 50): "05dfa84d0a3e22f0058b16247c4f023fc1eec08edfa80f4616386c119844721e",
    (2.0, 200): "aab2d316d9d5a419e2d5b54aae7637ba8e28c5092d4bfc7704adb8e0e05be357",
}


@pytest.mark.parametrize("lam,n", sorted(PINNED_WEIBULL_FITS))
def test_first_kind_weibull_fit_bytes_are_pinned(lam, n):
    if _float_fingerprint() != RECORDED_FLOATS:
        pytest.skip("log/exp round differently here than where the digests were recorded")
    x = sample(extend(Weibull(2.0, 1.0), lam, Kind.FIRST), n, 2026)
    fit = fit_full(Kind.FIRST, "weibull", x, theta_bounds=((0.1, 40.0), (0.05, 20.0)))
    digest = hashlib.sha256(fit.to_json().encode("utf-8")).hexdigest()
    assert digest == PINNED_WEIBULL_FITS[lam, n]
