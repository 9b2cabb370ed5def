"""Deterministic random numbers: xoshiro256++ seeded via splitmix64.

Every stochastic operation in this package owns a private generator built
from a 64-bit seed, so results are reproducible bit-for-bit across runs and
platforms.  Uniform doubles take the top 53 bits of each 64-bit output;
parallel/structured work derives child seeds with :func:`child_seed` instead
of splitting generator state.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / (1 << 53)


def splitmix64_stream(seed: int, n: int) -> list[int]:
    """First ``n`` outputs of splitmix64 started at ``seed``."""
    x = seed & _MASK64
    out = []
    for _ in range(n):
        x = (x + _GOLDEN) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def child_seed(base_seed: int, task_index: int) -> int:
    """Derived seed for subtask ``task_index``: base*golden + index, mod 2^64."""
    return ((base_seed & _MASK64) * _GOLDEN + task_index) & _MASK64


class Xoshiro256PP:
    """xoshiro256++ with its 256-bit state expanded from ``seed`` by splitmix64."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        s = splitmix64_stream(seed, 4)
        self._s = tuple(s)

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s0 + s3) & _MASK64
        result = ((((x << 23) & _MASK64) | (x >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._s = (s0, s1, s2, s3)
        return result

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits."""
        return (self.next_uint64() >> 11) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1), consumed in sequence order."""
        # Hot path: state kept in locals, generator logic inlined.
        s0, s1, s2, s3 = self._s
        out = np.empty(n)
        for i in range(n):
            x = (s0 + s3) & _MASK64
            r = ((((x << 23) & _MASK64) | (x >> 41)) + s0) & _MASK64
            out[i] = (r >> 11) * _INV_2_53
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._s = (s0, s1, s2, s3)
        return out

    def normal(self) -> float:
        """Standard normal via Box-Muller (cosine branch; 2 uniforms, no cache)."""
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        u = self.uniforms(2 * n)
        return np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * np.pi * u[1::2])

    def subset_without_replacement(self, n: int, b: int) -> np.ndarray:
        """Sorted ``b``-subset of {0..n-1} by partial Fisher-Yates selection."""
        pool = list(range(n))
        for i in range(b):
            j = i + int(self.uniform() * (n - i))
            j = min(j, n - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(sorted(pool[:b]), dtype=np.int64)


def draw_indices(gen: Xoshiro256PP, probs: np.ndarray, n: int) -> np.ndarray:
    """``n`` i.i.d. category draws from ``probs``: smallest i with u < cumsum[i]."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0  # guard the last edge against accumulated rounding
    u = gen.uniforms(n)
    return np.searchsorted(cum, u, side="right").astype(np.int64)
