"""Powered laws: evaluation, composition, sampling, moments, CSV."""

import dataclasses
import logging
import math
import pickle

import numpy as np
import pytest
from scipy import integrate

from lehmann import (
    DomainError,
    Exponential,
    ExtendedDistribution,
    Kind,
    NumericalError,
    ParseError,
    Support,
    Uniform,
    Weibull,
    extend,
    sample,
    sample_from_csv,
    sample_to_csv,
)
from lehmann.base_dist import BaseDistribution

BASES = [Uniform(), Exponential(1.0), Weibull(2.0, 1.0)]
LAMBDAS = [0.2, 0.5, 1.0, 2.0, 10.0]


def test_cdf_examples():
    assert extend(Uniform(), 2.0).cdf(0.5) == 0.25
    for base in BASES:
        x = base.quantile(0.37)
        assert extend(base, 1.0, Kind.SECOND).cdf(x) == base.cdf(x)
    g = extend(Exponential(1.0), 3.0, Kind.SECOND)
    assert g.cdf(1.0) == pytest.approx(1.0 - math.exp(-3.0), abs=1e-12)
    assert round(g.cdf(1.0), 6) == 0.950213


def test_pdf_examples():
    assert extend(Uniform(), 2.0).pdf(0.5) == pytest.approx(1.0, abs=1e-15)
    g = extend(Exponential(1.0), 3.0, Kind.SECOND)
    assert g.pdf(1.0) == pytest.approx(3.0 * math.exp(-3.0), rel=1e-12)
    assert round(g.pdf(1.0), 6) == 0.149361


_KERNELS = ("_log_pdf", "_log_sf", "_log_cdf", "_cdf", "_pdf", "_quantile")


def _takes_the_base_kernels(g):
    """Whether g holds its base's own bound kernels, as a lambda = 1 law does."""
    return all(getattr(g, name) == getattr(g.base, name) for name in _KERNELS)


@pytest.mark.parametrize("base", BASES + [Exponential(2.5), Weibull(0.7, 3.0), Weibull(1.0, 0.5)],
                         ids=lambda b: b.describe())
@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
def test_lambda_one_is_the_base_exactly(base, kind):
    # the support ends and their neighbours on either side (an infinite end is open)
    ends = [e for e in (base.support.lower, base.support.upper) if math.isfinite(e)]
    x = np.concatenate([np.linspace(-0.5, 3.0, 40), [-np.inf, np.inf, np.nan], ends,
                        np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    u = np.linspace(0.01, 0.99, 40)
    g = extend(base, 1.0, kind)
    assert _takes_the_base_kernels(g)
    for method in ("pdf", "log_pdf", "cdf", "log_cdf", "log_sf", "quantile"):
        arg = u if method == "quantile" else x
        got, want = getattr(g, method)(arg), getattr(base, method)(arg)
        assert got.tobytes() == want.tobytes(), (g.describe(), method)
    assert not _takes_the_base_kernels(extend(base, 2.0, kind))


def test_compose_and_replace_rebind_the_kernels_at_lambda_one():
    base = Weibull(0.7, 3.0)
    for kind in Kind:
        g = extend(base, 2.0, kind)
        one = g.compose(0.5)
        assert one == extend(base, 1.0, kind) and _takes_the_base_kernels(one)
        assert one.compose(3.0) == extend(base, 3.0, kind)
        assert not _takes_the_base_kernels(one.compose(3.0))
        assert _takes_the_base_kernels(dataclasses.replace(g, lam=1.0))
        assert not _takes_the_base_kernels(dataclasses.replace(one, lam=2.0))
        moved = dataclasses.replace(one, base=Exponential(2.0))
        assert _takes_the_base_kernels(moved)
        assert moved._log_pdf.__self__ is moved.base


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_pickle_round_trip_keeps_the_law_and_its_kernels(lam):
    x = np.array([-1.0, 0.0, 0.3, 1.0, 2.5, np.inf])
    for kind in Kind:
        g = extend(Weibull(0.7, 3.0), lam, kind)
        h = pickle.loads(pickle.dumps(g))
        assert h == g and hash(h) == hash(g)
        assert _takes_the_base_kernels(h) == (lam == 1.0)
        if lam == 1.0:
            assert all(getattr(h, name).__self__ is h.base for name in _KERNELS)
        for method in ("pdf", "log_pdf", "cdf", "log_cdf", "log_sf"):
            assert getattr(h, method)(x).tobytes() == getattr(g, method)(x).tobytes()


def test_quantile_examples():
    assert extend(Uniform(), 2.0).quantile(0.25) == pytest.approx(0.5, abs=1e-15)
    g = extend(Exponential(1.0), 2.0, Kind.SECOND)
    assert g.quantile(1.0 - math.exp(-2.0)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        g.quantile(0.0)
    with pytest.raises(DomainError):
        g.quantile(1.0)


def test_boundary_density_divergence_for_small_lambda():
    # F(0) = 0 and lam < 1: the first-kind density blows up at the edge
    g = extend(Exponential(1.0), 0.5, Kind.FIRST)
    assert g.pdf(0.0) == math.inf
    assert g.pdf(-1.0) == 0.0
    assert extend(Exponential(1.0), 2.0).pdf(0.0) == 0.0
    # second kind mirrors it where F = 1
    h = extend(Uniform(), 0.5, Kind.SECOND)
    assert h.pdf(1.0) == math.inf
    assert h.pdf(1.5) == 0.0


def _log_pdf_by_separate_kernels(g, x):
    """The powered log density from the base's separate log kernels."""
    lp = g.base._log_pdf(x)
    w = g.base._log_cdf(x) if g.kind is Kind.FIRST else g.base._log_sf(x)
    with np.errstate(invalid="ignore"):
        out = math.log(g.lam) + lp + (g.lam - 1.0) * w
    return np.where(np.isneginf(lp), -np.inf, out)


@pytest.mark.parametrize("base", BASES + [Weibull(1.0, 0.7), Weibull(2.0, 1.3), Weibull(0.5, 2.0),
                                          Weibull(0.7, 3.0), Exponential(0.3)],
                         ids=lambda b: b.describe())
@pytest.mark.parametrize("lam", [0.5, 3.0])
@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
def test_log_pdf_equals_the_separate_kernels_bit_for_bit(base, lam, kind):
    x = np.array([-1.0, 0.0, 1e-300, 0.01, 0.3, 0.999, 1.0, 2.0, 40.0, 1e3])
    g = extend(base, lam, kind)
    assert g._log_pdf(x).tobytes() == _log_pdf_by_separate_kernels(g, x).tobytes()


def test_support_is_the_base_support():
    for base in BASES:
        assert extend(base, 7.3).support == base.support
    assert extend(Uniform(), 2.0).support == Support(0.0, 1.0)


def test_lambda_validation():
    with pytest.raises(DomainError):
        extend(Uniform(), 0.0)
    with pytest.raises(DomainError):
        extend(Uniform(), -2.0)
    with pytest.raises(DomainError):
        extend(Uniform(), math.nan)
    # True == 1 and float("2") parses, but neither is an exponent
    with pytest.raises(DomainError, match="must be a real number"):
        extend(Uniform(), True)
    with pytest.raises(DomainError, match="must be a real number"):
        extend(Uniform(), "2")
    with pytest.raises(DomainError, match="must be a real number"):
        extend(Uniform(), 2.0).compose(np.bool_(True))
    with pytest.raises(DomainError):
        ExtendedDistribution(Uniform(), 2.0, kind=3)
    # True == 1 and 1.0 == 1, but neither names a kind
    with pytest.raises(DomainError):
        ExtendedDistribution(Uniform(), 2.0, kind=True)
    with pytest.raises(DomainError):
        ExtendedDistribution(Uniform(), 2.0, kind=1.0)
    assert ExtendedDistribution(Uniform(), 2.0, kind=np.int64(2)).kind is Kind.SECOND


def test_huge_lambda_flagged_in_log(caplog):
    with caplog.at_level(logging.WARNING, logger="lehmann.extend"):
        extend(Uniform(), 2e8)
    assert "likely a user error" in caplog.text


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
def test_quantile_cdf_round_trip(base, lam, kind):
    g = extend(base, lam, kind)
    rng = np.random.default_rng(17)
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=1000)
    err = np.abs(g.cdf(g.quantile(u)) - u)
    if kind is Kind.SECOND and lam < 1.0 and math.isfinite(base.support.upper):
        # when the target survival fraction s = (1-u)**(1/lam) drops
        # toward one ulp of the finite endpoint, no double x can resolve
        # it and cdf jumps by ~lam*s**(lam-1)*ulp per representable step;
        # full precision is only attainable where s is resolvable
        s = np.exp(np.log1p(-u) / lam)
        assert np.max(err[s > 1e-7]) < 1e-9
        assert np.max(err) < 2e-3
    else:
        assert np.max(err) < 1e-9


@pytest.mark.parametrize("base", [Exponential(1.0), Weibull(2.0, 1.0), Weibull(0.5, 3.0)],
                         ids=lambda d: d.describe())
@pytest.mark.parametrize("lam", [0.5, 3.0, 7.5])
def test_first_kind_upper_tail_quantile_round_trip(base, lam):
    # the base fraction u**(1/lam) sits within 1e-15 of 1 here, so the
    # first kind must invert through the survival side: 1 - u**(1/lam)
    # would keep only the leading digits of the tail
    g = extend(base, lam, Kind.FIRST)
    u = 1.0 - 10.0 ** np.arange(-15, 0)
    np.testing.assert_allclose(g.log_sf(g.quantile(u)), np.log1p(-u), rtol=1e-13, atol=0.0)


EDGE_X = [-np.inf, -1e308, -1.0, 0.0, 5e-324, 1.0, 1e308, np.inf]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("base", [Uniform(), Exponential(1.0), Weibull(0.5, 3.0),
                                  Weibull(1.0, 1.0), Weibull(2.0, 1.0)],
                         ids=lambda d: d.describe())
def test_public_methods_are_warning_free_at_the_ends(base):
    laws = [base] + [extend(base, lam, kind) for lam in (0.5, 2.0) for kind in Kind]
    for g in laws:
        for method in (g.pdf, g.log_pdf, g.cdf, g.log_cdf, g.log_sf):
            method(np.array(EDGE_X))
            for v in EDGE_X:
                method(v)
        assert g.pdf(-np.inf) == 0.0 and g.pdf(np.inf) == 0.0, g.describe()
        assert g.log_pdf(-np.inf) == -np.inf and g.log_pdf(np.inf) == -np.inf, g.describe()
        assert g.cdf(-np.inf) == 0.0 and g.cdf(np.inf) == 1.0, g.describe()


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("kind", [Kind.FIRST, Kind.SECOND])
def test_pdf_integrates_to_one(base, lam, kind):
    g = extend(base, lam, kind)
    upper = base.support.upper if math.isfinite(base.support.upper) else np.inf
    total, _ = integrate.quad(g.pdf, base.support.lower, upper, limit=400)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_compose_multiplies_exponents():
    g = extend(Uniform(), 2.0)
    assert g.compose(3.0).lam == 6.0
    assert g.compose(1.0) == g
    with pytest.raises(DomainError):
        g.compose(0.0)


def test_compose_matches_direct_extension_pointwise():
    grid = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    for base in BASES:
        x = base.quantile(grid)
        composed = extend(base, 2.0).compose(3.0)
        direct = extend(base, 6.0)
        assert np.max(np.abs(composed.cdf(x) - direct.cdf(x))) < 1e-12


def test_compose_closure_random_pairs():
    rng = np.random.default_rng(23)
    u = np.linspace(0.001, 0.999, 500)
    for base in BASES:
        for _ in range(3):
            a, b = rng.uniform(0.1, 10.0, size=2)
            left = extend(base, a, Kind.SECOND).compose(b)
            right = extend(base, a * b, Kind.SECOND)
            x = base.quantile(u)
            assert np.max(np.abs(left.cdf(x) - right.cdf(x))) < 1e-12
            assert np.max(np.abs(left.quantile(u) - right.quantile(u))) <= 1e-12 * np.maximum(1.0, np.abs(right.quantile(u))).max()
            finite = np.isfinite(right.pdf(x))
            assert np.allclose(left.pdf(x)[finite], right.pdf(x)[finite], rtol=1e-12)


def test_sample_rejects_bad_n():
    with pytest.raises(DomainError):
        sample(extend(Uniform(), 2.0), 0, 1)
    with pytest.raises(DomainError):
        sample(extend(Uniform(), 2.0), -5, 1)
    # True == 1, but a count is no truth value; nor is a seed, and a
    # fractional seed names no stream (the sample CSV rejects both)
    with pytest.raises(DomainError):
        sample(extend(Uniform(), 2.0), True, 0)
    with pytest.raises(DomainError):
        sample(Uniform(), 2, True)
    with pytest.raises(DomainError):
        sample(Uniform(), 2, 1.5)
    # an integral float is no integer either: a float seed would be
    # truncated by the generator, as SimConfig refuses it
    with pytest.raises(DomainError, match="sample size n must be a positive integer"):
        sample(Uniform(), 10.0, 3)
    with pytest.raises(DomainError, match="seed must be an integer"):
        sample(Uniform(), 10, 3.0)
    # numpy integers and negative seeds are integers
    s = sample(Uniform(), np.int64(2), np.int32(-3))
    assert len(s) == 2 and s.seed == -3 and type(s.seed) is int


def test_sample_is_deterministic_and_in_support():
    g = extend(Weibull(2.0, 1.0), 3.0, Kind.SECOND)
    s1 = sample(g, 1000, 99)
    s2 = sample(g, 1000, 99)
    assert np.array_equal(s1.values, s2.values)
    assert np.all(g.support.contains(s1.values))
    assert s1.source == g.describe()
    assert s1.generator == "pcg64"
    assert not np.array_equal(s1.values, sample(g, 1000, 100).values)


def test_sample_lambda_one_equals_base_sample():
    base = Exponential(1.7)
    s_base = sample(base, 500, 31)
    s_ext = sample(extend(base, 1.0), 500, 31)
    assert np.array_equal(s_base.values, s_ext.values)


def test_sample_mean_matches_beta_mean():
    # first kind over Uniform(0,1) is Beta(lam, 1)
    s = sample(extend(Uniform(), 4.0), 100_000, 7)
    se = math.sqrt(4.0 / (25.0 * 6.0) / len(s))
    assert abs(s.values.mean() - 0.8) < 4.0 * se


@pytest.mark.parametrize("m,kind", [(3, Kind.FIRST), (3, Kind.SECOND)])
def test_integer_lambda_is_max_min_law(m, kind):
    base = Weibull(2.0, 1.0)
    g = extend(base, float(m), kind)
    rng = np.random.default_rng(11)
    draws = base.quantile(rng.uniform(1e-12, 1.0 - 1e-12, size=(4000, m)))
    stat = draws.max(axis=1) if kind is Kind.FIRST else draws.min(axis=1)
    stat = np.sort(stat)
    ecdf = np.arange(1, len(stat) + 1) / len(stat)
    eps = math.sqrt(math.log(2.0 / 0.001) / (2.0 * len(stat)))
    assert np.max(np.abs(g.cdf(stat) - ecdf)) < eps


def test_moment_oracles():
    assert extend(Uniform(), 2.0).moment(1) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert extend(Exponential(2.0), 1.0).moment(1) == pytest.approx(0.5, abs=1e-10)
    g2 = extend(Exponential(1.0), 2.0, Kind.SECOND)
    assert g2.moment(1) == pytest.approx(0.5, abs=1e-10)


def test_moment_rejects_bad_order():
    g = extend(Uniform(), 2.0)
    with pytest.raises(DomainError):
        g.moment(0)
    with pytest.raises(DomainError):
        g.moment(1.5)
    with pytest.raises(DomainError, match="positive integer"):
        g.moment(2.0)
    assert g.moment(np.int64(2)) == g.moment(2)
    with pytest.raises(DomainError):
        extend(Exponential(1.0), 2.0).moment(True)


def test_moment_matches_monte_carlo_beta_expectation():
    lam, k = 3.0, 2
    base = Weibull(2.0, 1.0)
    rng = np.random.default_rng(41)
    u = rng.beta(lam, 1.0, size=200_000)
    vals = base.quantile(np.clip(u, 1e-15, 1.0 - 1e-15)) ** k
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(extend(base, lam).moment(k) - vals.mean()) < 4.0 * se


class _UnitPareto(BaseDistribution):
    """F(x) = 1 - 1/x on [1, inf); mean infinite. Test-only."""

    family_id = "unitpareto"
    param_names = ()

    @property
    def support(self):
        return Support(1.0, math.inf)

    def _log_pdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            body = -2.0 * np.log(x)
        return np.where(x >= 1.0, body, -np.inf)

    def _log_sf(self, x):
        return -np.log(np.maximum(x, 1.0))

    def _quantile(self, u):
        return 1.0 / (1.0 - u)


def test_divergent_moment_raises_numerical_error():
    with pytest.raises(NumericalError) as info:
        extend(_UnitPareto(), 1.0).moment(1)
    assert info.value.value is not None


def test_moment_past_the_float_range_fails_without_a_warning():
    # x**400 overflows at the upper nodes; the quadrature reports the inf
    with pytest.raises(NumericalError):
        extend(Exponential(1.0), 2.0).moment(400)


def test_sample_csv_round_trip():
    s = sample(extend(Exponential(1.0), 2.0), 50, 12345)
    text = sample_to_csv(s)
    lines = text.splitlines()
    assert lines[0] == "# seed: 12345"
    assert lines[1].startswith("# source: lehmann1(base=exponential")
    assert lines[2] == "# generator: pcg64"
    assert lines[3] == "value"
    back = sample_from_csv(text)
    assert np.array_equal(back.values, s.values)
    assert back.seed == s.seed and back.source == s.source


def test_sample_csv_rejects_malformed_input():
    with pytest.raises(ParseError):
        sample_from_csv("0.5\n0.7\n")  # no header
    with pytest.raises(ParseError, match="has no 'value' header row"):
        sample_from_csv("# seed: 1\n\n")  # metadata only
    with pytest.raises(ParseError, match="bad seed metadata 'abc'"):
        sample_from_csv("# seed: abc\nvalue\n0.5\n")


@pytest.mark.parametrize("text, message", [
    ("# seed: 1\n0.5\n", "line 2: sample CSV must start with a 'value' header row "
                          "(expected value)"),
    ("value\n0.5\nnot-a-number\n", "line 3: bad numeric row 'not-a-number' "
                                    "(expected a real number)"),
])
def test_sample_csv_errors_name_the_line(text, message):
    # a line number is not the character offset ``position`` stands for
    with pytest.raises(ParseError) as info:
        sample_from_csv(text)
    assert str(info.value) == message
    assert info.value.position is None
