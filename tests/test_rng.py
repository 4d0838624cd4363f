"""Generator streams and the shared quadrature kernel."""

import numpy as np
import pytest

from lehmann import GENERATOR_ID, NumericalError, open_uniform, substream
from lehmann._quadrature import integrate_unit
from lehmann.rng import _row_seed_type, block_uniforms


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
    # components are reduced to 64-bit words, not rejected: each acts as
    # its residue mod 2**64
    g = substream(-1, 2**80 + 5)
    assert 0.0 <= g.random() < 1.0
    for k in (0, 3, 2**40):
        assert np.array_equal(substream(-1, k).random(8), substream(2**64 - 1, k).random(8))
    assert np.array_equal(substream(7, -3).random(8), substream(7, 2**64 - 3).random(8))
    assert np.array_equal(substream(2**80 + 5, 1).random(8), substream(5, 1).random(8))


# one block mixes one-word and two-word reps (a negative rep is a wide residue)
_BLOCK_REPS = [0, 2**32 - 1, 2**32, 2**40, -3]


@pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**63 - 1, 2**64 - 1, -1, 2**80 + 5])
@pytest.mark.parametrize("cell", [0, 4, 2**31, 2**33, -1])
def test_block_uniforms_rows_are_the_substream_draws(seed, cell):
    for n in (1, 2, 50, 200):
        block = block_uniforms(seed, cell, _BLOCK_REPS, n)
        rows = np.array([open_uniform(substream(seed, cell, rep), n) for rep in _BLOCK_REPS])
        assert block.shape == (len(_BLOCK_REPS), n)
        assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))


def test_block_uniforms_of_a_study_block():
    # the shape a study draws: a range of one-word reps in one cell
    reps = range(300, 420)
    block = block_uniforms(42, 3, reps, 50)
    rows = np.array([open_uniform(substream(42, 3, rep), 50) for rep in reps])
    assert np.array_equal(block.view(np.uint64), rows.view(np.uint64))
    assert block_uniforms(42, 3, [], 50).shape == (0, 50)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64),
                                            (4, np.int64)])
def test_row_seed_refuses_all_but_four_uint64_words(n_words, dtype):
    words = np.arange(4, dtype=np.uint64)
    seed = _row_seed_type()(words)
    assert seed.generate_state(4, np.uint64) is words
    with pytest.raises(ValueError, match="4 uint64 words"):
        seed.generate_state(n_words, dtype)


def test_open_uniform_strictly_inside_unit_interval():
    g = substream(0)
    u = open_uniform(g, 200_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_open_uniform_raises_only_an_exact_zero():
    class Stub:
        def random(self, n):
            return np.array([0.0, 2.0**-53, 0.5])[:n]

    u = open_uniform(Stub(), 3)
    assert u.tolist() == [np.nextafter(0.0, 1.0), 2.0**-53, 0.5]


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
