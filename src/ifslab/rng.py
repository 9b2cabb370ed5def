"""Deterministic random numbers: xoshiro256++ seeded via splitmix64.

Every stochastic operation in this package owns a private generator built
from a 64-bit seed.  The streams are integer arithmetic, so they are
identical bit for bit across runs and platforms.  Results computed from them
(chain steps, norms) go through numpy and BLAS, whose float rounding may
differ between BLAS builds and CPUs; those are byte-identical across runs on
one machine and BLAS build.  Uniform doubles take the top 53 bits of each
64-bit output; parallel/structured work derives child seeds with
:func:`child_seed` instead of splitting generator state.

Streams of 4,096 draws or more are drawn in 1024 lanes: the state update is
linear over GF(2), so the state ``k`` draws ahead is ``q(T)·s`` with
``q = x^k mod P`` and ``P`` the characteristic polynomial of the update ``T``
(Haramoto et al., *Efficient jump ahead for F2-linear random number
generators*, 2008).  Every lane's start state is one GF(2) product: the lane
polynomials ``x^(j·m) mod P``, found by doubling, select XORs of the 256
states ``T^i·s``, read from byte tables.  The lane polynomials depend only on
the lane count and the draws per lane ``m``, never on the state, so their
table is built once per ``(lanes, m)`` and cached; a stream then pays only
for its 256 states and the one product.  Every lane draw is bit-equal to the
scalar loop.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / (1 << 53)

# Characteristic polynomial of the xoshiro256 state update over GF(2), bit i
# the coefficient of x^i (Berlekamp-Massey on 512 bits of the state sequence;
# x^(2^128) and x^(2^192) mod P are the published JUMP and LONG_JUMP words).
_CHARPOLY = 0x1_0003C03C_3F3ECB19_04B4EDCF_26259F85_0280002B_CEFD1A5E_9D116F2B_B0F0F001
# Streams of _LANE_MIN_DRAWS or more draws run in _LANES lanes.  A lane build
# costs about 3.3 ms when its jump table is new (cold) and 0.5 ms when it is
# cached (warm); the scalar loop about 1.1 us a draw.  Medians of 40
# interleaved triples (2 vCPUs, Python 3.11.7, numpy 2.4.6), scalar / cold
# lanes / warm lanes: 2,048 draws 2.24 / 3.38 / 0.73 ms, 3,072 draws 3.39 /
# 3.45 / 0.75 ms, 4,096 draws 4.88 / 3.82 / 0.83 ms (cold lanes faster in 39
# of 40), 8,192 draws 9.58 / 4.17 / 0.92 ms.  The cut-over is the first
# multiple of the lane count past the cold break-even, so a stream with a new
# length never pays more than the scalar loop would.
_LANES = 1024
_LANE_MIN_DRAWS = 4_096
# Rows per table gather in _gf2_product: each row reads 32 table rows of 32
# bytes, so a block's gather is 128 KiB.  Gathering all 1024 lanes at once
# took 1 MiB and raised a fresh process's peak RSS by 2.7 MiB, against
# 0.5 MiB in blocks, at the same build time.
_GATHER_ROWS = 128
# Jump tables kept by _jump_table, 32 KiB each at 1024 lanes.  A `clouds`
# benchmark round draws lane streams of two lengths, `cli_logistic` of one.
_JUMP_TABLES = 8
# draw_indices counts edges up to this many maps, and binary-searches past it.
# Best of 21, searchsorted -> edge counts: at 110,000 draws 2 maps 1.21 ->
# 0.08 ms, 5 maps 1.87 -> 0.14 ms, 32 maps 4.41 -> 0.70 ms and 128 maps
# 5.96 -> 2.31 ms; at 4,000 draws 32 maps 0.116 -> 0.062 ms and 128 maps
# 0.253 -> 0.243 ms; at 2,000 draws 32 maps 0.037 -> 0.049 ms.  Each edge is
# one pass over the draws plus about 1 us of call overhead, so many edges
# lose on short streams.
_EDGE_MAX_MAPS = 32


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
        """``n`` doubles in [0, 1), consumed in sequence order.

        From ``_LANE_MIN_DRAWS`` draws on, the first ``L·(n // L)`` come from
        ``L = _LANES`` jump-ahead lanes; the rest, and all of a shorter
        stream, from the scalar loop.  Both give the same bits.
        """
        _check_count(n)
        out = np.empty(n)
        start = 0
        if n >= _LANE_MIN_DRAWS:
            start = _LANES * (n // _LANES)
            self._s = _fill_lanes(self._s, out[:start].reshape(_LANES, -1))
        # Hot path: state kept in locals, generator logic inlined.
        s0, s1, s2, s3 = self._s
        for i in range(start, n):
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
        _check_count(n)
        u = self.uniforms(2 * n)
        return np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * np.pi * u[1::2])

    def subset_without_replacement(self, n: int, b: int) -> np.ndarray:
        """Sorted ``b``-subset of {0..n-1} by partial Fisher-Yates selection."""
        if not 0 <= b <= n:
            raise ConfigError(f"a subset of {{0..n-1}} needs 0 <= b <= n, got n={n}, b={b}")
        pool = list(range(n))
        for i in range(b):
            j = i + int(self.uniform() * (n - i))
            j = min(j, n - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(sorted(pool[:b]), dtype=np.int64)


def _check_count(n: int) -> None:
    if n < 0:
        raise ConfigError(f"n must be >= 0 draws, got n={n}")


def _gf2_mulmod(a: int, b: int) -> int:
    """``a·b mod _CHARPOLY`` over GF(2), polynomials as ints (bit i = x^i)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> 256:
            a ^= _CHARPOLY
    return r


def _x_pow_mod(k: int) -> int:
    """``x^k mod _CHARPOLY``: the jump polynomial for ``k`` draws."""
    r = 1
    for bit in bin(k)[2:]:
        r = _gf2_mulmod(r, r)
        if bit == "1":
            r = _gf2_mulmod(r, 2)
    return r


def _advance(s: list[np.ndarray], t: np.ndarray) -> None:
    """One xoshiro256 state update, in place, on every lane; ``t`` is scratch."""
    s0, s1, s2, s3 = s
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.right_shift(s3, 19, out=t)
    s3 <<= 45
    s3 |= t


def _pack(values: list[int]) -> np.ndarray:
    """256-bit ints as a ``(len, 4)`` uint64 array, word w holding bits 64w..64w+63."""
    raw = b"".join(v.to_bytes(32, "little") for v in values)
    return np.frombuffer(raw, dtype="<u8").reshape(-1, 4).astype(np.uint64)


def _gf2_product(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Row r of the result is the XOR of ``cols[i]`` over the set bits i of ``rows[r]``.

    ``rows`` is ``(n, 4)`` uint64, 256 selector bits each; ``cols`` is
    ``(256, 4)`` uint64.  Four Russians: for each of the 32 selector bytes a
    table of all 256 XOR combinations of its 8 columns, so a row costs 32
    table reads instead of up to 256 XORs.
    """
    tables = np.empty((256, 32, 4), dtype=np.uint64)  # [v, b]: XOR of cols[8b + t], bits t of v
    tables[0] = 0
    by_bit = cols.reshape(32, 8, 4).transpose(1, 0, 2)
    for t in range(8):
        h = 1 << t
        np.bitwise_xor(tables[:h], by_bit[t], out=tables[h : 2 * h])
    sel = rows.astype("<u8", copy=False).view(np.uint8)  # (n, 32): byte b holds bits 8b..8b+7
    tables = tables.reshape(-1, 4)
    offsets = np.arange(32)[:, None]
    out = np.empty((len(rows), 4), dtype=np.uint64)
    for lo in range(0, len(rows), _GATHER_ROWS):
        flat = 32 * sel[lo : lo + _GATHER_ROWS].T.astype(np.intp) + offsets
        np.bitwise_xor.reduce(tables.take(flat, axis=0), axis=0, out=out[lo : lo + _GATHER_ROWS])
    return out


@functools.lru_cache(maxsize=_JUMP_TABLES)
def _jump_table(n_lanes: int, m: int) -> np.ndarray:
    """``(n_lanes, 4)`` uint64, read-only: row j is ``q_j = x^(j·m) mod P``.

    The ``q_j`` are found by doubling in polynomial space (rows ``0..h-1``
    times ``x^(h·m)`` are rows ``h..2h-1``), each step one product with the
    256 images ``x^i·x^(h·m) mod P``.  They depend on ``(n_lanes, m)`` alone,
    never on a generator state, so each table is built once and shared.
    """
    q = np.zeros((n_lanes, 4), dtype=np.uint64)
    q[0, 0] = 1
    step = _x_pow_mod(m)  # x^(h·m) mod P for the h rows filled so far
    h = 1
    while h < n_lanes:
        images = []
        a = step
        for _ in range(256):
            images.append(a)
            a <<= 1
            if a >> 256:
                a ^= _CHARPOLY
        take = min(h, n_lanes - h)
        q[h : h + take] = _gf2_product(q[:take], _pack(images))
        step = _gf2_mulmod(step, step)
        h *= 2
    q.flags.writeable = False
    return q


def _lane_states(state: tuple[int, ...], n_lanes: int, m: int) -> np.ndarray:
    """``(n_lanes, 4)`` uint64: row j is the state ``j·m`` draws after ``state``.

    Row j is ``q_j(T)·s``: the XOR of ``T^i·s`` over the set bits i of the
    jump polynomial ``q_j`` from :func:`_jump_table`, so one product with
    the 256 states ``T^i·s`` gives every lane.
    """
    powers = []  # T^i·s, i < 256
    s0, s1, s2, s3 = state
    for _ in range(256):
        powers.append((s0, s1, s2, s3))
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
    return _gf2_product(_jump_table(n_lanes, m), np.array(powers, dtype=np.uint64))


def _fill_lanes(state: tuple[int, ...], out: np.ndarray) -> tuple[int, ...]:
    """Fill ``out`` (L, m) row j with draws ``j·m .. j·m+m-1`` from ``state``.

    Lane start states come from :func:`_lane_states`.  Returns the state
    after ``L·m`` draws.
    """
    n_lanes, m = out.shape
    s = [np.ascontiguousarray(w) for w in _lane_states(state, n_lanes, m).T]
    s0, s1, s2, s3 = s
    x, y, t = (np.empty(n_lanes, dtype=np.uint64) for _ in range(3))
    for i in range(m):
        np.add(s0, s3, out=x)
        np.right_shift(x, 41, out=y)
        x <<= 23
        x |= y
        x += s0
        x >>= 11
        np.multiply(x, _INV_2_53, out=out[:, i])
        _advance(s, t)
    return tuple(int(a[-1]) for a in s)


def require_probs(probs) -> np.ndarray:
    """``probs`` as floats: a nonempty 1-D table of finite positive numbers
    summing to 1 within 1e-12, so its cumulative sums rise to 1 up to
    rounding.  Anything else is a ConfigError."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or not probs.size:
        raise ConfigError(f"probs must be a nonempty 1-D table, got shape {probs.shape}")
    bad = np.flatnonzero(~(np.isfinite(probs) & (probs > 0.0)))
    if bad.size:
        raise ConfigError(f"probs must be finite and positive, but entry {bad[0]} is {probs[bad[0]]}")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise ConfigError(f"probs must sum to 1 within 1e-12, but they sum to {total!r}")
    return probs


def draw_indices(gen: Xoshiro256PP, probs: np.ndarray, n: int) -> np.ndarray:
    """``n`` i.i.d. category draws from ``probs``: smallest i with u < cumsum[i].

    ``probs`` must pass :func:`require_probs`.  Up to ``_EDGE_MAX_MAPS``
    maps, each draw is the number of edges ``cumsum[k] <= u`` among the first
    ``len(probs) - 1``: one vector compare per edge, counted in uint8.  On
    the sorted table that is exactly ``searchsorted(side="right")``, ties
    included; the last edge is set to 1.0, which no uniform reaches.  A
    binary search per draw costs several times more at a few maps, but each
    edge is a pass of its own, so past 32 maps short streams would lose and
    the search is kept.
    """
    cum = np.cumsum(require_probs(probs))
    cum[-1] = 1.0  # guard the last edge against accumulated rounding
    u = gen.uniforms(n)
    if len(cum) > _EDGE_MAX_MAPS:
        return np.searchsorted(cum, u, side="right").astype(np.int64, copy=False)
    counts = np.zeros(n, dtype=np.uint8)
    above = np.empty(n, dtype=bool)
    for edge in cum[:-1]:
        np.greater_equal(u, edge, out=above)
        counts += above.view(np.uint8)
    idx = u.view(np.int64)  # the uniforms are spent: their buffer holds the indices
    idx[:] = counts
    return idx
