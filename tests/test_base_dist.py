"""Base family behavior: densities, CDFs, quantiles, validation."""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from lehmann import (
    DomainError,
    Exponential,
    Kind,
    Support,
    Uniform,
    Weibull,
    extend,
    fit_full,
    kl_numeric,
    parse_distribution,
    register_family,
    sample,
)
from lehmann.base_dist import FAMILIES, BaseDistribution, log1mexp

FAMILY_CASES = [
    (Uniform, ()),
    (Exponential, (1.0,)),
    (Exponential, (2.5,)),
    (Weibull, (2.0, 1.0)),
    (Weibull, (0.7, 3.0)),
]


def test_pdf_point_values():
    assert Uniform().pdf(0.3) == 1.0
    assert Exponential(1.0).pdf(0.0) == 1.0
    assert Weibull(2.0, 1.0).pdf(1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)
    assert round(Weibull(2.0, 1.0).pdf(1.0), 6) == 0.735759


def test_cdf_point_values():
    assert Uniform().cdf(0.3) == 0.3
    assert Exponential(1.0).cdf(1e6) == 1.0
    assert Exponential(2.0).cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-12)
    assert round(Exponential(2.0).cdf(1.0), 6) == 0.864665


def test_quantile_point_values():
    assert Uniform().quantile(0.25) == 0.25
    assert Exponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)
    assert Weibull(2.0, 1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)


def test_pdf_zero_outside_support():
    for fam, theta in FAMILY_CASES:
        d = fam(*theta)
        assert d.pdf(-0.5) == 0.0
        assert d.log_pdf(-0.5) == -math.inf
    assert Uniform().pdf(1.5) == 0.0


def test_cdf_clamped_total_function():
    for fam, theta in FAMILY_CASES:
        d = fam(*theta)
        assert d.cdf(-3.0) == 0.0
    assert Uniform().cdf(2.0) == 1.0


@pytest.mark.parametrize("fam,theta", FAMILY_CASES)
def test_quantile_cdf_round_trip(fam, theta):
    d = fam(*theta)
    rng = np.random.default_rng(5)
    u = rng.uniform(1e-6, 1.0 - 1e-6, size=1000)
    back = d.cdf(d.quantile(u))
    assert np.max(np.abs(back - u)) < 1e-9


@pytest.mark.parametrize("fam,theta", FAMILY_CASES)
def test_cdf_matches_pdf_by_finite_difference(fam, theta):
    d = fam(*theta)
    rng = np.random.default_rng(6)
    u = rng.uniform(0.01, 0.99, size=1000)
    x = d.quantile(u)
    h = 1e-6 * np.maximum(np.abs(x), 1.0)
    fd = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h)
    p = d.pdf(x)
    assert np.all(np.abs(fd - p) <= np.maximum(1e-6, 1e-4 * p))


@pytest.mark.parametrize("fam,theta", FAMILY_CASES)
def test_cdf_monotone_on_grid(fam, theta):
    d = fam(*theta)
    grid = np.linspace(-1.0, 8.0, 500)
    vals = d.cdf(grid)
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("fam,theta", FAMILY_CASES)
def test_log_paths_agree_with_direct(fam, theta):
    d = fam(*theta)
    u = np.linspace(0.05, 0.95, 19)
    x = d.quantile(u)
    assert np.allclose(np.exp(d.log_cdf(x)), d.cdf(x), rtol=1e-12)
    assert np.allclose(np.exp(d.log_sf(x)), 1.0 - d.cdf(x), rtol=1e-9)
    assert np.allclose(np.exp(d.log_pdf(x)), d.pdf(x), rtol=1e-12)


def test_quantile_rejects_out_of_range():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            Exponential(1.0).quantile(bad)


def test_construction_validates_parameters():
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        Exponential(-1.0)
    with pytest.raises(DomainError):
        Weibull(2.0, math.inf)
    with pytest.raises(DomainError):
        Weibull(-2.0, 1.0)
    # evaluation never raises on a validly constructed law
    Exponential(1e-8).pdf(1e9)


def test_theta_and_from_theta_round_trip():
    d = Weibull(2.0, 3.0)
    assert d.theta == (2.0, 3.0)
    assert Weibull.from_theta(d.theta) == d
    with pytest.raises(DomainError):
        Weibull.from_theta((2.0,))


def test_describe_format():
    assert Uniform().describe() == "uniform()"
    assert Exponential(1.5).describe() == "exponential(rate=1.5)"
    assert Weibull(2.0, 1.0).describe() == "weibull(shape=2.0,scale=1.0)"


def test_support_membership():
    s = Support(0.0, 1.0)
    assert s.contains(1.0)
    assert list(s.contains(np.array([-0.1, 0.5, 1.1]))) == [False, True, False]
    assert Exponential(1.0).support.contains(0.0)
    # members are finite reals, on a half-line too
    for support in (s, Exponential(1.0).support, Weibull(2.0, 1.0).support):
        assert list(support.contains(np.array([-np.inf, np.inf, np.nan]))) == [False] * 3
        assert not support.contains(math.inf)
    assert Weibull(2.0, 1.0).support.contains(1e308)


def test_scalar_in_scalar_out():
    v = Exponential(2.0).pdf(0.5)
    assert isinstance(v, float)
    arr = Exponential(2.0).pdf(np.array([0.5, 1.0]))
    assert isinstance(arr, np.ndarray)


def test_log1mexp_both_branches():
    # against the direct formula where it is safe, both sides of -ln 2
    for z in (-1e-10, -0.1, -0.6, -0.70, -1.0, -30.0, -700.0):
        direct = math.log(-math.expm1(z)) if z > -0.7 else math.log1p(-math.exp(z))
        assert log1mexp(z) == pytest.approx(direct, rel=1e-13)
    assert log1mexp(0.0) == -math.inf
    assert log1mexp(-np.inf) == 0.0


def test_weibull_shape_one_is_exponential():
    w = Weibull(1.0, 2.0)
    e = Exponential(0.5)
    x = np.linspace(0.0, 10.0, 50)
    assert np.allclose(w.pdf(x), e.pdf(x), rtol=1e-13)
    assert np.allclose(w.cdf(x), e.cdf(x), rtol=1e-13)


@dataclass(frozen=True)
class _Rayleigh(BaseDistribution):
    """F(x) = 1 - exp(-x**2 / (2 sigma**2)) on [0, inf). Test-only: it
    implements the family contract and nothing more."""

    sigma: float = 1.0

    family_id: ClassVar[str] = "rayleigh"
    param_names: ClassVar[tuple[str, ...]] = ("sigma",)

    @property
    def support(self):
        return Support(0.0, math.inf)

    def _log_pdf(self, x):
        s = self.sigma
        with np.errstate(divide="ignore", invalid="ignore"):
            body = np.log(x) - 2.0 * np.log(s) - x * x / (2.0 * s * s)
        return np.where(x >= 0.0, body, -np.inf)

    def _log_sf(self, x):
        x = np.maximum(x, 0.0)
        return -x * x / (2.0 * self.sigma * self.sigma)

    def _quantile(self, u):
        return self.sigma * np.sqrt(-2.0 * np.log1p(-u))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
def test_weibull_public_methods_emit_no_floating_point_warnings(shape):
    # ln(0) and an overflowing exp sit inside the log-space kernel
    d = Weibull(shape, 1.0)
    x = [-1.0, 0.0, 5e-324, 1.0, 1e308]
    for method in (d.pdf, d.log_pdf, d.cdf, d.log_cdf, d.log_sf):
        method(np.array(x))
        for v in x:
            method(v)


def _weibull_sweep():
    # shapes 1/2, 1 and 2 are where numpy's scalar and column arithmetic
    # could part (square root, square, the exponential form), with their
    # float neighbours; the rest are seeded draws across the box
    # ((0.1, 40), (0.05, 20)) the pinned fits search
    shapes = [float(v) for k in (0.5, 1.0, 2.0)
              for v in (np.nextafter(k, 0.0), k, np.nextafter(k, np.inf))]
    rng = np.random.default_rng(14)
    shapes += rng.uniform(0.1, 40.0, size=6).tolist()
    scales = rng.uniform(0.05, 20.0, size=len(shapes)).tolist()
    return list(zip(shapes, scales))


@pytest.mark.parametrize("family,theta", [
    (Uniform, [(), ()]),
    (Exponential, [(1.0,), (0.3,), (7.5,)]),
    (Weibull, [(1.0, 0.7), (2.0, 1.3), (0.5, 2.0), (1.7, 0.9)]),
    (Weibull, _weibull_sweep()),
    (_Rayleigh, [(1.5,), (0.2,), (9.0,)]),
])
@pytest.mark.parametrize("shared", [False, True], ids=["block", "one-row"])
def test_column_kernels_match_scalar_instances(family, theta, shared):
    # kernels on (R, 1) parameter columns give each row the bits of its
    # scalar instance, at 0 and below the support too, on one row per
    # parameter point or on one (1, n) row shared by all of them
    x = np.abs(np.random.default_rng(3).normal(size=(len(theta), 30))) + 0.01
    x[:, :2] = 0.0, -1.0
    columns = family._at_columns(np.array(theta, dtype=float).reshape(len(theta), -1))
    sample = x[:1] if shared else x
    for kernel in ("_log_pdf", "_log_cdf", "_log_sf"):
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = [getattr(family(*t), kernel)(xi)
                    for t, xi in zip(theta, np.broadcast_to(sample, x.shape))]
            block = getattr(columns, kernel)(sample)
        assert _same_bits(np.broadcast_to(block, x.shape), np.stack(rows)), kernel


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("family,theta", [
    (Uniform, [(), ()]),
    (Exponential, [(1.0,), (0.3,), (7.5,)]),
    (Weibull, _weibull_sweep()),
    (_Rayleigh, [(1.5,), (0.2,), (9.0,)]),
])
@pytest.mark.parametrize("shared", [False, True], ids=["block", "one-row"])
def test_column_hazard_kernel_matches_scalar_instances(family, theta, first, shared):
    x = np.abs(np.random.default_rng(3).normal(size=(len(theta), 30))) + 0.01
    x[:, 0] = 0.0
    columns = family._at_columns(np.array(theta, dtype=float).reshape(len(theta), -1))
    # one row per parameter point, or one (1, n) row shared by all of them
    sample = x[:1] if shared else x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows = [family(*t)._log_hazard_and_kernel(xi, first)
                for t, xi in zip(theta, np.broadcast_to(sample, x.shape))]
        block = columns._log_hazard_and_kernel(sample, first)
    for j in range(2):
        assert _same_bits(np.broadcast_to(block[j], x.shape),
                          np.stack([np.broadcast_to(r[j], x.shape[1:]) for r in rows]))


@pytest.fixture()
def rayleigh():
    register_family(_Rayleigh)
    yield _Rayleigh
    del FAMILIES[_Rayleigh.family_id]


def test_family_implementing_only_the_contract(rayleigh):
    assert BaseDistribution.__abstractmethods__ == {
        "support", "_log_pdf", "_log_sf", "_quantile"}
    d = rayleigh(1.5)
    x = np.array([-1.0, 0.0, 0.5, 1.5, 4.0])
    cdf = np.where(x > 0.0, -np.expm1(-x * x / 4.5), 0.0)
    assert np.allclose(d.cdf(x), cdf, rtol=1e-15, atol=0.0)
    assert np.allclose(d.pdf(x), np.maximum(x, 0.0) / 2.25 * np.exp(-x * x / 4.5),
                       rtol=1e-14, atol=0.0)
    assert np.allclose(d.log_cdf(x[2:]), np.log(cdf[2:]), rtol=1e-14, atol=0.0)
    u = np.linspace(0.01, 0.99, 50)
    assert np.allclose(d.cdf(d.quantile(u)), u, rtol=1e-13, atol=0.0)

    # the minimum of two Rayleigh(sigma) draws is Rayleigh(sigma / sqrt 2)
    g2 = extend(d, 2.0, Kind.SECOND)
    assert np.allclose(g2.cdf(x), rayleigh(1.5 / math.sqrt(2.0)).cdf(x), rtol=1e-14)
    g1 = parse_distribution("lehmann1(base=rayleigh(sigma=1.5),lambda=2.0)")
    assert np.allclose(g1.cdf(x), cdf ** 2, rtol=1e-14, atol=0.0)
    for g in (g1, g2):
        assert np.allclose(g.cdf(g.quantile(u)), u, rtol=1e-12, atol=0.0)

    s = sample(g1, 2000, 3)
    assert d.support.contains(s.values).all()
    fit = fit_full(Kind.FIRST, "rayleigh", s, theta_bounds=((0.1, 10.0),))
    assert abs(fit.lambda_hat - 2.0) < 0.3
    assert abs(fit.theta_hat[0] - 1.5) < 0.1
    assert kl_numeric(g1, d).value == pytest.approx(math.log(2.0) - 0.5, abs=1e-9)


# -- the hazard kernel ----------------------------------------------------------

# 0, next to 0, the body and far in the tail: the engine calls it on the
# support only
HAZARD_X = np.array([0.0, 1e-300, 0.01, 0.4, 1.0, 2.5, 30.0, 1e3, 1e6])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _separate_kernels(d, x, first):
    with np.errstate(divide="ignore", invalid="ignore"):
        return d._log_pdf(x), (d._log_cdf(x) if first else d._log_sf(x))


@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
@pytest.mark.parametrize("d", [
    Weibull(1.0, 0.7), Weibull(2.0, 1.3), Weibull(0.5, 2.0), Weibull(0.7, 3.0),
    Weibull(38.0, 0.85), Uniform(), Exponential(1.0), Exponential(0.3),
    _Rayleigh(1.5),  # implements the contract only, so it takes the default
], ids=lambda d: d.describe())
def test_hazard_kernel_is_ln_f_less_the_kernel(d, first):
    # w has the bits of the separate kernel, so the exponent MLE is the
    # same; ln f - w agrees with the subtraction up to the digits the
    # subtraction loses to |ln f| + |w| (the closed forms keep them)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hazard, w = d._log_hazard_and_kernel(HAZARD_X, first)
    lp, kernel = _separate_kernels(d, HAZARD_X, first)
    assert _same_bits(w, kernel)
    with np.errstate(invalid="ignore"):
        want = lp - w
    finite = np.isfinite(want)
    hazard = np.broadcast_to(hazard, want.shape)
    assert np.array_equal(hazard[~finite], want[~finite], equal_nan=True)
    err = np.abs(hazard[finite] - want[finite])
    assert np.all(err <= 1e-13 * (np.abs(lp) + np.abs(w))[finite] + 1e-12)


def test_second_kind_weibull_hazard_is_closed_form_at_large_shape():
    x = np.array([0.5, 2.767137403252649, 40.0])
    d = Weibull(38.36343365, 0.85183933)
    with np.errstate(over="ignore"):
        hazard, _ = d._log_hazard_and_kernel(x, False)
    want = [math.log(d.shape / d.scale) + (d.shape - 1.0) * math.log(v / d.scale)
            for v in x.tolist()]
    assert np.allclose(hazard, want, rtol=1e-14, atol=0.0)
