"""Seedable, splittable uniform variate streams.

All randomness in the package flows through PCG64 bit generators keyed by
a 64-bit user seed plus an integer path. Streams with distinct paths are
statistically independent, and the same ``(seed, *path)`` always
reproduces the same stream, so parallel simulation cells stay
reproducible regardless of execution order. The algorithm name is
recorded in sample metadata via :data:`GENERATOR_ID`.

:func:`substream` is the definition of every stream. A power study draws
the streams of a whole block of replications with :func:`block_uniforms`,
whose rows equal :func:`open_uniform` on :func:`substream` bit for bit:
it runs numpy's SeedSequence mixing for all rows in one numpy pass, then
hands each row's four seed words to numpy's own PCG64, which draws the row.
"""

from __future__ import annotations

import functools

import numpy as np

from .base_dist import _open_unit

GENERATOR_ID = "pcg64"

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence mixing constants
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

_LO32 = np.uint64(0xFFFFFFFF)
_W32 = np.uint64(32)


def _hash_constants(first: int, mult: int, count: int) -> np.ndarray:
    """``first * mult**j mod 2**32`` for ``j < count``: one hash constant per step."""
    return np.array([first * pow(mult, j, 1 << 32) % (1 << 32) for j in range(count)],
                    dtype=np.uint32)


# SeedSequence's two hash sequences (INIT_A, MULT_A for mixing entropy,
# INIT_B, MULT_B for generate_state). A block takes at most
# 16 + 4 * (2 cell + 2 rep words) + 1 of the first and 8 + 1 of the second
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 33)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the deterministic generator for ``(seed, *path)``.

    ``seed`` is reduced to 64 bits. Path elements (for example a
    simulation cell index followed by a replication index) select
    independent child streams of the same seed; each is reduced to 64
    bits too, so a negative or wide element acts as its residue.
    """
    key = tuple(int(p) & _UINT64_MASK for p in path)
    ss = np.random.SeedSequence(int(seed) & _UINT64_MASK, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def open_uniform(gen: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` uniforms strictly inside (0, 1).

    ``Generator.random`` yields multiples of 2**-53 in [0, 1); an exact
    zero (mass 2**-53) is raised to the smallest positive double, so
    quantile functions never see an endpoint.
    """
    return _open_unit(gen.random(n))


def block_uniforms(seed: int, cell: int, reps, n: int) -> np.ndarray:
    """The ``(len(reps), n)`` block whose row i is ``open_uniform(substream(seed, cell, reps[i]), n)``.

    Bit for bit, for any integer components. SeedSequence mixes its
    entropy words into its pool in order: the seed's words padded to the
    pool's four, the cell's, then the rep's. The first two are shared by
    the block, so every row resumes from the pool of ``(seed, cell)``.
    A rep of 2**32 or more (a negative one too, reduced mod 2**64) has two
    words instead of one, so such rows form a group of their own. Each
    row's seed words then key numpy's PCG64, which draws the row in place.
    """
    cell = int(cell) & _UINT64_MASK
    reps = np.fromiter((int(r) & _UINT64_MASK for r in reps), dtype=np.uint64)
    pool = np.random.SeedSequence(int(seed) & _UINT64_MASK, spawn_key=(cell,)).pool
    # 4 initial and 12 cross hashes, then 4 per cell word
    used = 16 + 4 * (1 if cell <= 0xFFFFFFFF else 2)
    wide = reps > _LO32
    out = np.empty((reps.size, n))
    row_seed, generator, pcg64 = _row_seed_type(), np.random.Generator, np.random.PCG64
    for rows, width in ((~wide, 1), (wide, 2)):
        if rows.any():
            words = [(reps[rows] >> np.uint64(32 * j) & _LO32).astype(np.uint32)
                     for j in range(width)]
            for i, state in zip(np.flatnonzero(rows), _seed_state(pool, used, words)):
                generator(pcg64(row_seed(state))).random(out=out[i])
    return _open_unit(out)


def _seed_state(pool, used: int, words) -> np.ndarray:
    """Each row's SeedSequence ``generate_state(4, uint64)``, a C-contiguous ``(rows, 4)`` block.

    ``pool`` is the mixer after the shared entropy and ``used`` the number
    of hash constants it took; ``words`` are the rows' remaining entropy
    words, each mixed into all four pool entries. PCG64 reads a row's
    words straight from its buffer, hence the contiguous layout.
    """
    mixer = pool
    for word in words:
        h = _HASH_A[used:used + 5]
        hashed = (word[:, None] ^ h[:4]) * h[1:]
        hashed ^= hashed >> _XSHIFT
        mixed = _MIX_L * mixer - _MIX_R * hashed
        mixer = mixed ^ (mixed >> _XSHIFT)
        used += 4
    # eight 32-bit words from the pool read twice, paired little-endian
    state = (np.concatenate([mixer, mixer], axis=1) ^ _HASH_B[:8]) * _HASH_B[1:]
    state = (state ^ (state >> _XSHIFT)).astype(np.uint64)
    return np.ascontiguousarray(state[:, 0::2] | (state[:, 1::2] << _W32))


@functools.cache
def _row_seed_type():
    """The seed class that keys PCG64 with one row of :func:`_seed_state`.

    Defined on first use, so that importing the package loads no
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        """A SeedSequence stand-in whose state is one row's four uint64 words."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly this; any other request would draw
            # a different stream, so it fails instead
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"RowSeed holds 4 uint64 words, not {n_words} {np.dtype(dtype)}")
            return self.words

    return RowSeed
