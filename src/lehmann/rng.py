"""Seedable, splittable uniform variate streams.

All randomness in the package flows through PCG64 bit generators keyed by
a 64-bit user seed plus an integer path. Streams with distinct paths are
statistically independent, and the same ``(seed, *path)`` always
reproduces the same stream, so parallel simulation cells stay
reproducible regardless of execution order. The algorithm name is
recorded in sample metadata via :data:`GENERATOR_ID`.
"""

from __future__ import annotations

import numpy as np

GENERATOR_ID = "pcg64"

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the deterministic generator for ``(seed, *path)``.

    ``seed`` is reduced to 64 bits. Path elements (for example a
    simulation cell index followed by a replication index) select
    independent child streams of the same seed.
    """
    key = tuple(int(p) & _UINT64_MASK for p in path)
    ss = np.random.SeedSequence(int(seed) & _UINT64_MASK, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def open_uniform(gen: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` uniforms strictly inside (0, 1).

    ``Generator.random`` yields multiples of 2**-53 in [0, 1); an exact
    zero (mass 2**-53) is raised to the smallest positive double, 5e-324,
    so quantile functions never see an endpoint.
    """
    return np.maximum(gen.random(n), 5e-324)
