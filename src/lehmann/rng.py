"""Seedable, splittable uniform variate streams.

All randomness in the package flows through PCG64 bit generators keyed by
a 64-bit user seed plus an integer path. Streams with distinct paths are
statistically independent, and the same ``(seed, *path)`` always
reproduces the same stream, so parallel simulation cells stay
reproducible regardless of execution order. The algorithm name is
recorded in sample metadata via :data:`GENERATOR_ID`.

:func:`substream` is the definition of every stream. A power study draws
the streams of a whole block of replications in one numpy pass with
:func:`block_uniforms`, whose rows equal :func:`open_uniform` on
:func:`substream` bit for bit: it runs numpy's SeedSequence mixing and
PCG64 seeding on one column per row, and reaches all ``n`` outputs of a
stream at once by jumping the generator ahead.
"""

from __future__ import annotations

import functools

import numpy as np

from .base_dist import _open_unit

GENERATOR_ID = "pcg64"

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
_UINT128_MASK = (1 << 128) - 1

# numpy's SeedSequence mixing constants, and the multiplier of PCG64's
# 128-bit linear congruential step (O'Neill's PCG_DEFAULT_MULTIPLIER_128)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

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
    words instead of one, so such rows form a group of their own.
    """
    cell = int(cell) & _UINT64_MASK
    reps = np.fromiter((int(r) & _UINT64_MASK for r in reps), dtype=np.uint64)
    pool = np.random.SeedSequence(int(seed) & _UINT64_MASK, spawn_key=(cell,)).pool
    # 4 initial and 12 cross hashes, then 4 per cell word
    used = 16 + 4 * (1 if cell <= 0xFFFFFFFF else 2)
    wide = reps > _LO32
    out = np.empty((reps.size, n))
    for rows, width in ((~wide, 1), (wide, 2)):
        if rows.any():
            words = [(reps[rows] >> np.uint64(32 * j) & _LO32).astype(np.uint32)
                     for j in range(width)]
            out[rows] = _open_unit(_pcg64_doubles(_seed_state(pool, used, words), n))
    return out


def _seed_state(pool, used: int, words) -> np.ndarray:
    """``generate_state(4, uint64)`` of each row's SeedSequence, a ``(4, rows)`` block.

    ``pool`` is the mixer after the shared entropy and ``used`` the number
    of hash constants it took; ``words`` are the rows' remaining entropy
    words, each mixed into all four pool entries.
    """
    mixer = pool[:, None]
    for word in words:
        h = _HASH_A[used:used + 5, None]
        hashed = (word ^ h[:4]) * h[1:]
        hashed ^= hashed >> _XSHIFT
        mixed = _MIX_L * mixer - _MIX_R * hashed
        mixer = mixed ^ (mixed >> _XSHIFT)
        used += 4
    # eight 32-bit words from the pool read twice, paired little-endian
    state = (np.concatenate([mixer, mixer]) ^ _HASH_B[:8, None]) * _HASH_B[1:, None]
    state = (state ^ (state >> _XSHIFT)).astype(np.uint64)
    return state[0::2] | (state[1::2] << _W32)


def _pcg64_doubles(v: np.ndarray, n: int) -> np.ndarray:
    """``PCG64(seed words v).random(n)`` for each column of ``v``, one row each.

    Seeding (``pcg_setseq_128_srandom_r``) sets inc = 2 (v2 2**64 + v3) + 1
    and state = (inc + v0 2**64 + v1) M + inc. Output k first steps
    state -> state M + inc, so it reads the state M**(k+1) t + S_(k+1) inc
    with t = inc + v0 2**64 + v1 and S_m = sum_{j<m} M**j. Every 128-bit
    number is a (hi, lo) pair of uint64 arrays; the ``(rows, n)`` ones are
    updated in place, which keeps a study block's temporaries near 1 MB.
    """
    v0, v1, v2, v3 = v
    inc_hi = (v2 << np.uint64(1)) | (v3 >> np.uint64(63))
    inc_lo = (v3 << np.uint64(1)) | np.uint64(1)
    t_lo = inc_lo + v1
    t_hi = inc_hi + v0 + (t_lo < v1)
    powers, sums = _jump_table(n)
    hi, lo = _mul128(powers, t_hi, t_lo)
    s_hi, s_lo = _mul128(sums, inc_hi, inc_lo)
    lo += s_lo
    hi += s_hi
    hi += lo < s_lo
    # XSL-RR: the xor of the halves rotated right by the top six bits
    rot = hi >> np.uint64(58)
    x = np.bitwise_xor(hi, lo, out=hi)
    lo = np.left_shift(x, (np.uint64(64) - rot) & np.uint64(63), out=lo)
    x >>= rot
    x |= lo
    # Generator.random: the top 53 bits over 2**53
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u *= 2.0**-53
    return u


def _mul128(c, x_hi: np.ndarray, x_lo: np.ndarray):
    """``c * x mod 2**128`` for table columns ``c`` and row values ``x``, as (hi, lo).

    The carry into the high word, the high half of ``c_lo * x_lo``, is
    taken over 32-bit limbs (Warren, Hacker's Delight, ``mulhu``).
    """
    c_hi, c_lo, c0, c1 = c
    x_hi, x_lo = x_hi[:, None], x_lo[:, None]
    x0, x1 = x_lo & _LO32, x_lo >> _W32
    t = c0 * x0
    t >>= _W32
    t += c1 * x0
    w = t & _LO32
    w += c0 * x1
    w >>= _W32
    t >>= _W32
    hi = c1 * x1
    hi += t
    hi += w
    hi += c_hi * x_lo
    hi += c_lo * x_hi
    return hi, c_lo * x_lo


@functools.lru_cache(maxsize=8)
def _jump_table(n: int):
    """Columns M**(k+1) and S_(k+1) for outputs k = 1..n, as :func:`_limbs`."""
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(n):
        total = (total + power) & _UINT128_MASK
        power = power * _PCG_MULT & _UINT128_MASK
        powers.append(power)
        sums.append(total)
    return _limbs(powers), _limbs(sums)


def _limbs(values):
    """128-bit ints as uint64 arrays: hi, lo, and lo's low and high 32 bits."""
    hi = np.array([v >> 64 for v in values], dtype=np.uint64)
    lo = np.array([v & _UINT64_MASK for v in values], dtype=np.uint64)
    return hi, lo, lo & _LO32, lo >> _W32
