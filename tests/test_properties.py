"""Hypothesis properties of the powered laws: descriptor round trips,
quantile/CDF inversion, closure under composition, and the nesting and
block-row identity of the power study's statistics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lehmann import (
    DegenerateSampleError,
    Exponential,
    Kind,
    SimConfig,
    Uniform,
    Weibull,
    extend,
    lrt_statistics,
    parse_distribution,
)
from lehmann.lrt_sim import _draw_block, _lrt_rows

_ANY_POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
_LAMBDA = st.one_of(st.just(1.0), st.sampled_from([0.25, 0.5, 2.0, 4.0]), _ANY_POSITIVE)
_KINDS = st.sampled_from(Kind)
_KERNELS = ("_log_pdf", "_log_sf", "_log_cdf", "_cdf", "_pdf", "_quantile")


def _bases(rate, shape, scale):
    return st.one_of(st.just(Uniform()), st.builds(Exponential, rate),
                     st.builds(Weibull, shape, scale))


_ANY_BASE = _bases(_ANY_POSITIVE, _ANY_POSITIVE, _ANY_POSITIVE)
# parameters whose laws keep their quantiles and densities inside the float range
_MODERATE_BASE = _bases(st.floats(1e-3, 1e3), st.floats(0.2, 20.0), st.floats(1e-3, 1e3))


@given(st.one_of(_ANY_BASE, st.builds(extend, _ANY_BASE, _LAMBDA, _KINDS)))
def test_describe_parses_back_to_the_same_law(g):
    parsed = parse_distribution(g.describe())
    assert parsed == g
    if getattr(g, "lam", None) == 1.0:
        assert all(getattr(parsed, k) == getattr(parsed.base, k) for k in _KERNELS)


@given(_MODERATE_BASE, st.one_of(st.just(1.0), st.floats(0.05, 50.0)), _KINDS,
       st.floats(1e-6, 1.0 - 1e-6))
def test_quantile_inverts_the_cdf(base, lam, kind, t):
    # the fraction keeps at least 1e-6 on either side, so rounding it to a
    # float moves its smaller side, and the quantile, by about 1e-10 at most.
    # Where x itself rounds onto a support end (a second-kind uniform law with
    # a small exponent puts 1 - x below 1e-16), its fraction is 0 or 1 and
    # there is nothing to invert.
    g = extend(base, lam, kind)
    x = g.quantile(t)
    u = g.cdf(x)
    assume(0.0 < u < 1.0)
    assert g.quantile(u) == pytest.approx(x, rel=1e-9, abs=0.0)


@given(_MODERATE_BASE, _LAMBDA, _LAMBDA, _KINDS)
def test_compose_is_the_law_of_the_product_exponent(base, a, c, kind):
    assume(0.0 < a * c < math.inf)
    composed, direct = extend(base, a, kind).compose(c), extend(base, a * c, kind)
    assert composed == direct
    x = np.array([-1.0, 0.0, 1e-300, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 1e3,
                  -np.inf, np.inf, np.nan])
    for method in ("pdf", "log_pdf", "cdf", "log_cdf", "log_sf"):
        got, want = getattr(composed, method)(x), getattr(direct, method)(x)
        assert got.tobytes() == want.tobytes(), method
    u = np.array([1e-12, 0.01, 0.5, 0.99, 1.0 - 1e-12])
    assert composed.quantile(u).tobytes() == direct.quantile(u).tobytes()


# a few rows per example keep the Weibull fits cheap; the seed picks the
# streams the rows are drawn from
@settings(max_examples=40)
@given(_MODERATE_BASE, _KINDS, st.integers(2, 40),
       st.one_of(st.just(1.0), st.floats(0.2, 5.0)), st.integers(0, 2**32))
def test_study_rows_nest_and_equal_their_lone_sample_statistics(base, kind, n, lam, seed):
    cfg = SimConfig(kind, base, (lam,), n, 100, 0.05, seed, 1000)
    X = _draw_block(cfg, extend(base, lam, kind), 1, range(3))
    stats, failed = _lrt_rows(cfg, X)
    assert len(stats) == np.count_nonzero(~failed)
    kept = iter(stats)
    for x, fails in zip(X, failed):
        if fails:
            with pytest.raises(DegenerateSampleError):
                lrt_statistics(x, cfg)
            continue
        full, misspec = row = next(kept)
        assert full >= misspec >= 0.0
        # bit for bit, not approximately
        assert np.array(lrt_statistics(x, cfg)).tobytes() == row.tobytes()
