"""Bit-exactness tests for the xoshiro256++ / splitmix64 stack.

The oracle is an independent reimplementation written against the published
algorithm rather than sharing any code with ifslab.rng: splitmix64 on numpy
uint64 scalars (wrapping arithmetic for free), xoshiro256++ on Python ints
masked to 64 bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import rng
from ifslab.errors import ConfigError
from ifslab.rng import Xoshiro256PP, child_seed, draw_indices, splitmix64_stream


def _oracle_splitmix(seed, n):
    x = np.uint64(seed)
    golden = np.uint64(0x9E3779B97F4A7C15)
    m1 = np.uint64(0xBF58476D1CE4E5B9)
    m2 = np.uint64(0x94D049BB133111EB)
    out = []
    with np.errstate(over="ignore"):
        for _ in range(n):
            x = x + golden
            z = x
            z = (z ^ (z >> np.uint64(30))) * m1
            z = (z ^ (z >> np.uint64(27))) * m2
            out.append(int(z ^ (z >> np.uint64(31))))
    return out


_MASK = (1 << 64) - 1


def _oracle_run(seed, n, keep=()):
    """First ``n`` outputs as uint64, and the state after k draws for each k
    in ``keep`` (which may pass ``n``; the steps beyond ``n`` update the state
    alone)."""
    s0, s1, s2, s3 = _oracle_splitmix(seed, 4)
    out = []
    states = {}
    for i in range(max(n, max(keep, default=0)) + 1):
        if i in keep:
            states[i] = (s0, s1, s2, s3)
        if i < n:
            x = (s0 + s3) & _MASK
            out.append((((x << 23) & _MASK | x >> 41) + s0) & _MASK)
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45) & _MASK | s3 >> 19
    return np.array(out, dtype=np.uint64), states


def _oracle_xoshiro(seed, n):
    return [int(v) for v in _oracle_run(seed, n)[0]]


def _words(values):
    """256-bit ints as (len, 4) uint64 rows, word w holding bits 64w..64w+63."""
    mask = (1 << 64) - 1
    return np.array([[(v >> (64 * w)) & mask for w in range(4)] for v in values], dtype=np.uint64)


def _top53(raw):
    return (raw >> np.uint64(11)).astype(np.float64) / float(1 << 53)


# One long oracle stream serves every lane-path test: a fresh generator's
# first n draws are a prefix of it.
_LONG_SEED = 0xC0FFEE
_JUMPS = (0, 1, 255, 256, 2**20 + 3)
_LANE_NS = (
    rng._LANE_MIN_DRAWS - 1,
    rng._LANE_MIN_DRAWS,
    rng._LANE_MIN_DRAWS + 1,
    21_000,
    45_678,  # not a multiple of the lane count
    1_000_003,
)


@pytest.fixture(scope="module")
def long_oracle():
    n = max(_JUMPS + _LANE_NS) + 1
    return _oracle_run(_LONG_SEED, n, keep=frozenset(_JUMPS + _LANE_NS))


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_splitmix_matches_oracle(seed):
    assert splitmix64_stream(seed, 8) == _oracle_splitmix(seed, 8)


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_xoshiro_matches_oracle(seed):
    gen = Xoshiro256PP(seed)
    ours = [gen.next_uint64() for _ in range(32)]
    assert ours == _oracle_xoshiro(seed, 32)


def test_uniform_is_top_53_bits():
    raw = _oracle_xoshiro(12345, 100)
    gen = Xoshiro256PP(12345)
    u = gen.uniforms(100)
    expected = np.array([(r >> 11) / float(1 << 53) for r in raw])
    assert np.array_equal(u, expected)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_bulk_matches_scalar_path():
    g1 = Xoshiro256PP(777)
    g2 = Xoshiro256PP(777)
    bulk = g1.uniforms(257)
    scalar = np.array([g2.uniform() for _ in range(257)])
    assert np.array_equal(bulk, scalar)


def test_determinism_across_instances():
    a = Xoshiro256PP(42).uniforms(1000)
    b = Xoshiro256PP(42).uniforms(1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Xoshiro256PP(43).uniforms(1000))


def test_child_seed_wraps_mod_2_64():
    assert child_seed(0, 0) == 0
    assert child_seed(0, 7) == 7
    assert child_seed(1, 0) == 0x9E3779B97F4A7C15
    # wrapping: (2^64-1)*golden + 3  ==  -golden + 3  (mod 2^64)
    expected = ((2**64 - 1) * 0x9E3779B97F4A7C15 + 3) % 2**64
    assert child_seed(2**64 - 1, 3) == expected
    assert child_seed(5, 1) != child_seed(5, 2)


def test_normals_consume_two_uniforms_each():
    g1 = Xoshiro256PP(9)
    z = g1.normals(10)
    g2 = Xoshiro256PP(9)
    u = g2.uniforms(20)
    expected = np.sqrt(-2.0 * np.log(1.0 - u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
    assert np.array_equal(z, expected)
    # scalar and bulk agree
    g3 = Xoshiro256PP(9)
    assert g3.normal() == z[0]


def test_normal_moments_roughly_standard():
    z = Xoshiro256PP(2024).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_draw_indices_frozen_convention():
    # u < 0.5 -> 0, else 1, for p = (1/2, 1/2)
    gen = Xoshiro256PP(3)
    u = Xoshiro256PP(3).uniforms(50)
    idx = draw_indices(gen, np.array([0.5, 0.5]), 50)
    assert np.array_equal(idx, (u >= 0.5).astype(np.int64))


def test_draw_indices_hits_all_categories():
    gen = Xoshiro256PP(11)
    idx = draw_indices(gen, np.array([0.2, 0.3, 0.5]), 30_000)
    counts = np.bincount(idx, minlength=3) / 30_000
    assert np.allclose(counts, [0.2, 0.3, 0.5], atol=0.02)


def test_subset_without_replacement_valid():
    gen = Xoshiro256PP(5)
    for _ in range(200):
        s = gen.subset_without_replacement(10, 4)
        assert len(set(s.tolist())) == 4
        assert np.all((s >= 0) & (s < 10))
        assert np.array_equal(s, np.sort(s))


@pytest.mark.parametrize("n", _LANE_NS)
def test_lane_path_matches_oracle(n, long_oracle):
    raw, states = long_oracle
    gen = Xoshiro256PP(_LONG_SEED)
    assert np.array_equal(gen.uniforms(n), _top53(raw[:n]))
    assert gen._s == states[n]
    assert all(type(v) is int for v in gen._s)
    assert gen.next_uint64() == int(raw[n])


def test_lane_path_normals_and_indices_match_oracle(long_oracle):
    raw, _ = long_oracle
    u = _top53(raw)
    n = rng._LANE_MIN_DRAWS // 2 + 7  # 2n uniforms: above the cut-over
    z = Xoshiro256PP(_LONG_SEED).normals(n)
    expected = np.sqrt(-2.0 * np.log(1.0 - u[0 : 2 * n : 2])) * np.cos(2.0 * np.pi * u[1 : 2 * n : 2])
    assert np.array_equal(z, expected)
    probs = np.array([0.2, 0.3, 0.5])
    n = 45_678
    idx = draw_indices(Xoshiro256PP(_LONG_SEED), probs, n)
    assert np.array_equal(idx, np.searchsorted([0.2, 0.5, 1.0], u[:n], side="right"))


class _PlantedUniforms:
    """Stands in for a generator: ``uniforms`` hands back a fresh copy of
    fixed values (draw_indices writes its indices into that buffer)."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniforms(self, n):
        assert n == len(self.u)
        return self.u.copy()


def _search_indices(probs, u):
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


_EDGE_MAP_COUNTS = (1, 2, 5, 31, 32, 33, 64)


@pytest.mark.parametrize("n_maps", _EDGE_MAP_COUNTS)
@pytest.mark.parametrize("n", (rng._LANE_MIN_DRAWS - 1, rng._LANE_MIN_DRAWS + 5))
def test_edge_counts_equal_the_binary_search(n_maps, n):
    """Edge counting up to _EDGE_MAX_MAPS maps and searchsorted past it give
    the indices of searchsorted(side="right"), on both sides of the lane
    cut-over and on uniforms planted exactly on, just below and just above
    every edge."""
    gen = np.random.default_rng(n_maps)
    probs = gen.uniform(0.05, 1.0, n_maps)
    probs /= probs.sum()
    seed = 1000 + n_maps
    idx = draw_indices(Xoshiro256PP(seed), probs, n)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, _search_indices(probs, Xoshiro256PP(seed).uniforms(n)))
    edges = np.cumsum(probs)[:-1]
    planted = np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0, np.nextafter(1.0, 0.0)]]
    )
    planted = np.resize(planted, n)  # repeated up to the stream length
    idx = draw_indices(_PlantedUniforms(planted), probs, n)
    assert np.array_equal(idx, _search_indices(probs, planted))
    assert np.array_equal(idx[: n_maps - 1], np.arange(1, n_maps))  # u == cum[k] draws map k + 1


def test_edge_counts_count_tied_edges():
    """A map too light to move the cumulative sum ties two edges; a uniform
    on the tie skips both, as searchsorted(side="right") does."""
    probs = np.array([0.5, 1e-17, 0.25, 0.25])
    assert np.cumsum(probs)[0] == np.cumsum(probs)[1]
    u = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, 0.75, np.nextafter(1.0, 0.0)])
    idx = draw_indices(_PlantedUniforms(u), probs, len(u))
    assert np.array_equal(idx, [0, 0, 2, 3, 3])
    assert np.array_equal(idx, _search_indices(probs, u))


@pytest.mark.parametrize(
    "probs, message",
    [
        ([0.3, 0.3], r"sum to 1 within 1e-12, but they sum to 0\.6"),
        ([0.5, 0.5 + 2e-12], "sum to 1 within 1e-12"),
        ([np.nan, 1.0], "finite and positive, but entry 0 is nan"),
        ([0.5, np.nan, 0.5], "entry 1 is nan"),
        ([np.inf, 0.5], "entry 0 is inf"),
        ([1.0, 0.0], "entry 1 is 0.0"),
        ([1.5, -0.5], "entry 1 is -0.5"),
        ([], r"nonempty 1-D table, got shape \(0,\)"),
        ([[0.5, 0.5]], r"got shape \(1, 2\)"),
    ],
)
def test_draw_indices_rejects_a_bad_probability_table(probs, message):
    gen = Xoshiro256PP(4)
    with pytest.raises(ConfigError, match=message):
        draw_indices(gen, np.array(probs), 10)
    assert gen._s == Xoshiro256PP(4)._s  # rejected before any draw


def test_draw_indices_accepts_a_sum_within_the_tolerance():
    probs = np.array([0.5, 0.5 + 5e-13])
    u = Xoshiro256PP(4).uniforms(20)
    assert np.array_equal(draw_indices(Xoshiro256PP(4), probs, 20), _search_indices(probs, u))


@pytest.mark.parametrize("n, b", [(3, -1), (3, 4), (3, 5), (0, 1)])
def test_subset_without_replacement_rejects_a_size_outside_0_to_n(n, b):
    gen = Xoshiro256PP(5)
    with pytest.raises(ConfigError, match=rf"0 <= b <= n, got n={n}, b={b}"):
        gen.subset_without_replacement(n, b)
    assert gen._s == Xoshiro256PP(5)._s


def test_subset_without_replacement_takes_the_ends_of_the_range():
    gen = Xoshiro256PP(5)
    assert np.array_equal(gen.subset_without_replacement(3, 3), [0, 1, 2])
    assert gen.subset_without_replacement(3, 0).size == 0
    assert gen.subset_without_replacement(0, 0).size == 0


_SHARED_M = 107


def test_lane_states_are_the_same_from_a_cold_and_a_warm_jump_table():
    """Several states share one draws-per-lane m: each gets its own lanes,
    bit-equal whether its jump table was cached or rebuilt."""
    states = [Xoshiro256PP(seed)._s for seed in (0, 1, 2, 2**63 + 5)]
    cold = []
    for state in states:
        rng._jump_table.cache_clear()
        cold.append(rng._lane_states(state, rng._LANES, _SHARED_M))
    rng._jump_table.cache_clear()
    warm = [rng._lane_states(state, rng._LANES, _SHARED_M) for state in states]
    assert rng._jump_table.cache_info().misses == 1
    for c, w, state in zip(cold, warm, states):
        assert np.array_equal(c, w)
        assert tuple(int(v) for v in w[0]) == state
    assert len({w[1].tobytes() for w in warm}) == len(states)
    g = Xoshiro256PP(2)
    g.uniforms(_SHARED_M)
    assert tuple(int(v) for v in warm[2][1]) == g._s


def test_jump_table_is_read_only():
    table = rng._jump_table(rng._LANES, _SHARED_M)
    with pytest.raises(ValueError, match="read-only"):
        table[1, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        table ^= table
    rng._jump_table.cache_clear()
    assert np.array_equal(rng._jump_table(rng._LANES, _SHARED_M), table)


def test_jump_table_cache_is_bounded():
    rng._jump_table.cache_clear()
    assert rng._jump_table.cache_info().maxsize == rng._JUMP_TABLES
    for m in range(1, rng._JUMP_TABLES + 4):
        rng._jump_table(2, m)
    info = rng._jump_table.cache_info()
    assert info.misses == rng._JUMP_TABLES + 3
    assert info.currsize == rng._JUMP_TABLES


def test_linreg2d_eta_streams_build_one_jump_table(tmp_path):
    """The four etas of a linreg2d run draw streams of one length, so the
    first builds the jump table and the other three reuse it."""
    from ifslab.experiments import run_linreg2d

    n_samples, burn_in = 6_000, 1_000
    assert burn_in + n_samples >= rng._LANE_MIN_DRAWS
    rng._jump_table.cache_clear()
    records = run_linreg2d([0.3, 0.5, 0.7, 0.9], 0, str(tmp_path), n_samples, burn_in)
    assert not any(r.error for r in records)
    info = rng._jump_table.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("k", _JUMPS)
def test_jump_equals_k_scalar_steps(k, long_oracle):
    _, states = long_oracle
    lanes = rng._lane_states(states[0], 2, k)
    assert tuple(int(v) for v in lanes[0]) == states[0]
    assert tuple(int(v) for v in lanes[1]) == states[k]


_LANE_JS = (0, 1, 2, 511, 1023)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=400))
@settings(max_examples=12, deadline=None)
def test_lane_start_states_match_oracle(seed, m):
    _, states = _oracle_run(seed, 0, keep=frozenset(j * m for j in _LANE_JS))
    lanes = rng._lane_states(tuple(_oracle_splitmix(seed, 4)), 1024, m)
    assert lanes.shape == (1024, 4) and lanes.dtype == np.uint64
    for j in _LANE_JS:
        assert tuple(int(v) for v in lanes[j]) == states[j * m]


@pytest.mark.parametrize("seed", range(4))
def test_byte_table_product_matches_xor_loop(seed):
    gen = np.random.default_rng(seed)

    def bits256(n):
        return [int.from_bytes(gen.bytes(32), "little") for _ in range(n)]

    cols = bits256(256)
    rows = [0, 1, 1 << 255, (1 << 256) - 1, 1 | 1 << 255] + bits256(300)  # spans 3 gather blocks
    expected = []
    for r in rows:
        acc = 0
        for i in range(256):
            if r >> i & 1:
                acc ^= cols[i]
        expected.append(acc)
    got = rng._gf2_product(_words(rows), _words(cols))
    assert np.array_equal(got, _words(expected))
    assert np.array_equal(got[1:3], _words([cols[0], cols[255]]))


def _berlekamp_massey(bits):
    """Shortest LFSR of a GF(2) sequence: (connection polynomial, its length)."""
    c, b, length, shift = 1, 1, 0, 1
    for i, bit in enumerate(bits):
        d = bit
        for j in range(1, length + 1):
            d ^= (c >> j) & bits[i - j]
        if not d:
            shift += 1
            continue
        prev = c
        c ^= b << shift
        if 2 * length <= i:
            length, b, shift = i + 1 - length, prev, 1
        else:
            shift += 1
    return c, length


def test_charpoly_rederived_from_state_bits():
    _, states = _oracle_run(99, 512, keep=frozenset(range(512)))
    c, length = _berlekamp_massey([states[i][0] & 1 for i in range(512)])
    assert length == 256
    # The characteristic polynomial is the connection polynomial reversed.
    assert rng._CHARPOLY == int(format(c, "0257b")[::-1], 2)
    # x^(2^128) mod P is the published xoshiro256 JUMP polynomial.
    jump = (0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C, 0xA9582618E03FC9AA, 0x39ABDC4529B1661C)
    assert rng._x_pow_mod(2**128) == sum(w << (64 * i) for i, w in enumerate(jump))


@pytest.mark.parametrize(
    "draw",
    [
        lambda g: g.uniforms(-1),
        lambda g: g.normals(-1),
        lambda g: draw_indices(g, np.array([0.5, 0.5]), -1),
    ],
    ids=["uniforms", "normals", "draw_indices"],
)
def test_negative_count_raises_config_error(draw):
    with pytest.raises(ConfigError, match=r"\bn=-1\b"):
        draw(Xoshiro256PP(1))
