"""Generator streams and the shared quadrature kernel."""

import numpy as np
import pytest

from lehmann import GENERATOR_ID, NumericalError, open_uniform, substream
from lehmann._quadrature import integrate_unit


def test_generator_id_is_pinned():
    assert GENERATOR_ID == "pcg64"


def test_substream_deterministic():
    a = substream(42, 3, 7).random(16)
    b = substream(42, 3, 7).random(16)
    assert np.array_equal(a, b)


def test_substream_paths_are_distinct():
    base = substream(42).random(16)
    cell = substream(42, 0).random(16)
    rep = substream(42, 0, 1).random(16)
    other_seed = substream(43).random(16)
    assert not np.array_equal(base, cell)
    assert not np.array_equal(cell, rep)
    assert not np.array_equal(base, other_seed)


def test_substream_accepts_wide_and_negative_components():
    # components are reduced to 64-bit words, not rejected
    g = substream(-1, 2**80 + 5)
    assert 0.0 <= g.random() < 1.0


def test_open_uniform_strictly_inside_unit_interval():
    g = substream(0)
    u = open_uniform(g, 200_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_integrate_unit_smooth():
    value, err = integrate_unit(lambda t: t * t)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert 0.0 <= err < 1e-10


def test_integrate_unit_endpoint_singularity():
    value, _ = integrate_unit(np.log)
    assert value == pytest.approx(-1.0, abs=1e-10)
    value, _ = integrate_unit(lambda t: t ** -0.8)
    assert value == pytest.approx(5.0, abs=1e-8)


def test_integrate_unit_divergence_raises_with_estimate():
    def diverging(t):
        gap = 1.0 - t
        with np.errstate(divide="ignore"):
            return np.where(gap > 0.0, 1.0 / gap, 1e300)

    with pytest.raises(NumericalError) as info:
        integrate_unit(diverging)
    assert info.value.value is not None
    assert info.value.error_estimate is not None
