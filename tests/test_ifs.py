"""IFS iteration, invariant sampling, contractivity, Lyapunov exponents."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab import ifs
from ifslab.errors import ConfigError, NonFiniteState
from ifslab.ifs import (
    AffineSystem,
    IfsSystem,
    SgdSystem,
    contractivity_report,
    iterate,
    lyapunov_exponent,
    read_cloud_csv,
    sample_invariant,
)
from ifslab.optimizers import (PreconditionerSpec, build_precond_sgd_ifs, build_sgd_ifs,
                               build_stoch_newton_ifs, partition_batches)
from ifslab.problems import (Dataset, LeastSquares, Logistic, OneHiddenLayer, RobustRegression,
                             SmoothHingeSVM)
from ifslab.rng import Xoshiro256PP, draw_indices


def scalar_system(slopes, offsets, probs) -> AffineSystem:
    """The scalar affine maps w -> slopes[i] * w + offsets[i]."""
    return AffineSystem(np.reshape(slopes, (-1, 1, 1)), np.reshape(offsets, (-1, 1)), probs)


def cantor_system() -> AffineSystem:
    return scalar_system([1.0 / 3.0, 1.0 / 3.0], [0.0, 2.0 / 3.0], [0.5, 0.5])


def quadratic_pair_system(eta: float) -> IfsSystem:
    """SGD maps for the two scalar losses w^2/2 and w^2/2 - w, b=1."""
    data = Dataset([[1.0], [1.0]], [0.0, 1.0])
    return build_sgd_ifs(LeastSquares(lam=0.0), data, partition_batches(2, 1), eta)


# ---------------------------------------------------------------------------
# iterate


def test_single_contraction_trajectory():
    system = scalar_system([0.5], [0.0], [1.0])
    traj = iterate(system, np.array([1.0]), 3, seed=9)
    np.testing.assert_allclose(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125], rtol=1e-15)
    assert traj.indices.shape == (3,)
    assert np.all(traj.indices == 0)


def test_trajectory_shape_and_replay():
    system = cantor_system()
    traj = iterate(system, np.array([0.0]), 50, seed=4)
    assert traj.states.shape == (51, 1)
    for j, idx in enumerate(traj.indices):
        expected = system.matrices[idx] @ traj.states[j] + system.offsets[idx]
        np.testing.assert_array_equal(traj.states[j + 1], expected)


def test_cantor_iterates_stay_in_unit_interval():
    traj = iterate(cantor_system(), np.array([0.0]), 2000, seed=123)
    assert traj.states.min() >= 0.0
    assert traj.states.max() <= 1.0


def test_quadratic_pair_at_two_thirds_matches_cantor_maps():
    system = quadratic_pair_system(2.0 / 3.0)
    assert isinstance(system, AffineSystem)
    for matrix, q, offset in zip(system.matrices, system.offsets, (0.0, 2.0 / 3.0)):
        assert matrix[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert q[0] == pytest.approx(offset, abs=1e-15)


def test_iterate_determinism():
    system = quadratic_pair_system(0.5)
    a = iterate(system, np.array([0.3]), 500, seed=77)
    b = iterate(system, np.array([0.3]), 500, seed=77)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.indices, b.indices)


def test_iterate_divergence_raises():
    system = scalar_system([3.0], [0.0], [1.0])
    with pytest.raises(NonFiniteState):
        iterate(system, np.array([1.0]), 5000, seed=0)


def test_system_validation():
    with pytest.raises(ConfigError):
        scalar_system([], [], np.array([]))
    with pytest.raises(ConfigError):
        scalar_system([0.5], [0.0], [0.7])  # probs must sum to 1
    with pytest.raises(ConfigError):
        scalar_system([0.5, 0.5], [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ConfigError, match="entry 1 is nan"):
        scalar_system([0.5, 0.5], [0.0, 0.0], [1.0, np.nan])  # NaN used to pass the sum test
    with pytest.raises(ConfigError, match="the system has 2 maps"):
        scalar_system([0.5, 0.5], [0.0, 0.0], [1.0])


def three_rows() -> Dataset:
    return Dataset([[1.0, 0.5], [-0.5, 1.0], [0.2, 0.3]], [1.0, -1.0, 1.0])


def test_system_rejects_batches_of_different_lengths():
    """The SGD loop steps on the rows of a (maps, b) batch table, so the
    system names the lengths instead of failing later in the gather."""
    batches = [np.array([0, 1]), np.array([2])]
    with pytest.raises(ConfigError, match=r"batches of one length, got lengths \[1, 2\]"):
        SgdSystem(Logistic(lam=0.1), three_rows(), batches, 0.5, np.array([0.5, 0.5]))


def test_system_rejects_a_batch_row_outside_the_dataset():
    """Row 5 of 3 used to end the chain in a bare IndexError mid-run."""
    with pytest.raises(ConfigError, match=r"batch 0, entry 1 is row 5, but the dataset has rows 0\.\.2"):
        SgdSystem(Logistic(lam=0.1), three_rows(), [[0, 5]], 0.5, np.array([1.0]))
    with pytest.raises(ConfigError, match="batch 1, entry 0 is row -1"):
        SgdSystem(Logistic(lam=0.1), three_rows(), [[0], [-1]], 0.5, np.array([0.5, 0.5]))


def test_system_rejects_non_integer_batch_entries():
    """A batch [0.5, 1.2] used to be truncated to rows [0, 1] without a word."""
    with pytest.raises(ConfigError, match="batch 0, entry 0 is 0.5: a batch holds integer row indices"):
        SgdSystem(Logistic(lam=0.1), three_rows(), [[0.5, 1.2]], 0.5, np.array([1.0]))
    with pytest.raises(ConfigError, match="batch 1, entry 1 is 1.5"):
        SgdSystem(Logistic(lam=0.1), three_rows(), [[0.0, 1.0], [2.0, 1.5]], 0.5, np.array([0.5, 0.5]))


def test_systems_compare_and_hash_by_identity():
    """Two systems built from equal tables are distinct systems: comparing
    them does not reach numpy's ambiguous truth value, and both hash."""
    for make in (lambda: AffineSystem(np.eye(2)[None], np.zeros((1, 2)), [1.0]), lambda: sgd_system("logistic")):
        a, b = make(), make()
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


# ---------------------------------------------------------------------------
# sample_invariant


def test_fixed_point_collapse():
    system = scalar_system([0.5], [0.0], [1.0])
    cloud = sample_invariant(system, np.array([1.0]), burn_in=200, n_samples=50, seed=1)
    assert np.abs(cloud.points).max() < 1e-30


def test_cantor_cloud_has_middle_third_gap():
    cloud = sample_invariant(cantor_system(), np.array([0.0]), 1000, 100_000, seed=5)
    x = cloud.points[:, 0]
    assert x.min() >= 0.0 and x.max() <= 1.0
    inside_gap = np.count_nonzero((x > 1.0 / 3.0 + 1e-12) & (x < 2.0 / 3.0 - 1e-12))
    assert inside_gap == 0


def test_eta_third_quadratic_fills_interval():
    # maps (2/3)w and (2/3)w + 1/3 overlap, so the support is all of [0,1];
    # the density vanishes like a power law at the endpoints, so assert no
    # gaps over the interior bins where the expected occupancy is large
    cloud = sample_invariant(quadratic_pair_system(1.0 / 3.0), np.array([0.0]),
                             1000, 400_000, seed=8)
    x = cloud.points[:, 0]
    assert x.min() >= 0.0 and x.max() <= 1.0
    counts, _ = np.histogram(x, bins=1000, range=(0.0, 1.0))
    assert counts[20:980].min() > 0


def test_affine_2d_sample_invariant_matches_reference_loop():
    """The chain driver reproduces w = M[i] @ w + q[i] bit for bit."""
    rng = np.random.default_rng(21)
    M = 0.6 * rng.uniform(-1.0, 1.0, size=(3, 2, 2))
    q = rng.uniform(-1.0, 1.0, size=(3, 2))
    probs = np.array([0.2, 0.3, 0.5])
    system = AffineSystem(M, q, probs)
    burn_in, n_samples, thin, seed = 50, 400, 3, 22
    cloud = sample_invariant(system, np.array([0.5, -0.5]), burn_in, n_samples, thin, seed)

    idx = draw_indices(Xoshiro256PP(seed), probs, burn_in + n_samples * thin)
    w = np.array([0.5, -0.5])
    expected = []
    for t, i in enumerate(idx, start=1):
        w = M[i] @ w + q[i]
        if t > burn_in and (t - burn_in) % thin == 0:
            expected.append(w)
    assert np.array_equal(cloud.points, np.array(expected))


# ---------------------------------------------------------------------------
# segmented affine kernel


def reference_chain(M, q, idx, w0, record_from, thin, n_record):
    """The serial loop w = M[i] @ w + q[i] that the affine kernel must equal."""
    w = np.asarray(w0, dtype=float)
    out = []
    for t, i in enumerate(idx, start=1):
        w = M[i] @ w + q[i]
        if t > record_from and (t - record_from) % thin == 0 and len(out) < n_record:
            out.append(w)
    return np.array(out)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def count_rounds(monkeypatch, calls):
    """Adds each ``_settle`` call's rounds to ``calls["rounds"]``."""
    settle = ifs._settle

    def counted_settle(*args):
        w, settled, rounds = settle(*args)
        calls["rounds"] += rounds
        return w, settled, rounds

    monkeypatch.setattr(ifs, "_settle", counted_settle)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the settle rounds, the lockstep steps, the segments each
    lockstep call carries and the steps of the serial lane."""
    calls = {"rounds": 0, "lockstep_steps": 0, "widths": [], "lane_steps": 0}
    lockstep, lane = ifs._lockstep, ifs._lane

    def counted_lockstep(M, Q, idx, w, rec):
        calls["lockstep_steps"] += idx.shape[1]
        calls["widths"].append(idx.shape[0])
        return lockstep(M, Q, idx, w, rec)

    def counted_lane(M, Q, idx, w, rec):
        calls["lane_steps"] += idx.shape[0]
        return lane(M, Q, idx, w, rec)

    count_rounds(monkeypatch, calls)
    monkeypatch.setattr(ifs, "_lockstep", counted_lockstep)
    monkeypatch.setattr(ifs, "_lane", counted_lane)
    return calls


def rounds_and_lane(calls) -> tuple:
    return calls["rounds"], calls["lane_steps"]


@pytest.fixture
def small_segments(monkeypatch, kernel_calls):
    """Segments of 64 steps, lockstep from two segments on, counted."""
    monkeypatch.setattr(ifs, "SEG", 64)
    monkeypatch.setattr(ifs, "MIN_SEGMENTS", 2)
    monkeypatch.setattr(ifs, "MIN_SEGMENTS_SCALAR", 2)
    return kernel_calls


def random_affine(d, scale, seed, n_maps=3):
    rng = np.random.default_rng(seed)
    M = scale * rng.uniform(-1.0, 1.0, size=(n_maps, d, d)) / math.sqrt(d)
    q = rng.uniform(-1.0, 1.0, size=(n_maps, d))
    return M, q, AffineSystem(M, q, np.full(n_maps, 1.0 / n_maps))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("burn_in", [0, 100])
@pytest.mark.parametrize("n", [64 * 5 - 1, 64 * 5, 64 * 5 + 3])
def test_affine_kernel_matches_reference_loop(small_segments, d, thin, burn_in, n):
    """Segment-cut lengths SEG*k - 1, SEG*k and SEG*k + remainder, bit for bit."""
    M, q, system = random_affine(d, 0.6, seed=10 * d + thin)
    idx = np.random.default_rng(n + burn_in).integers(0, 3, size=n)
    w0 = np.linspace(-0.5, 0.5, d)
    n_record = (n - burn_in) // thin
    got = ifs._run_system(system, w0, idx, burn_in, thin, n_record)
    assert small_segments["rounds"] >= 1
    assert same_bits(got, reference_chain(M, q, idx, w0, burn_in, thin, n_record))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("burn_in", [0, 200])
def test_affine_kernel_settles_contracting_chain_in_two_rounds(small_segments, d, burn_in):
    """A strongly contracting family coalesces within a segment: two lockstep
    rounds settle every segment and the serial lane runs only the tail.  With
    burn_in = 200 the first three segments are not stored."""
    M, q, system = random_affine(d, 0.2, seed=3)
    n = 64 * 20 + 7  # 20 segments of 64 steps and a tail of 7
    idx = np.random.default_rng(4).integers(0, 3, size=n)
    got = ifs._run_system(system, np.zeros(d), idx, burn_in, 1, n - burn_in)
    assert rounds_and_lane(small_segments) == (2, 7)
    assert same_bits(got, reference_chain(M, q, idx, np.zeros(d), burn_in, 1, n - burn_in))


@pytest.mark.parametrize("d", [1, 2])
def test_affine_kernel_settles_only_behind_a_settled_segment(small_segments, d):
    """From w0 = 0 every segment without the rare map ends at exactly 0 in
    round 1, so in round 2 segments 2, 3, ... start and end at 0 and match
    each other; only the true chain, kicked away from 0 in segment 0, tells
    them apart.  A segment settles only behind a settled one."""
    M = np.stack([0.9 * np.eye(d), 0.9 * np.eye(d)])
    q = np.stack([np.zeros(d), np.ones(d)])
    system = AffineSystem(M, q, np.array([0.5, 0.5]))
    idx = np.zeros(64 * 6, dtype=np.int64)
    idx[10] = 1
    got = ifs._run_system(system, np.zeros(d), idx, 0, 1, idx.size)
    assert same_bits(got, reference_chain(M, q, idx, np.zeros(d), 0, 1, idx.size))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [5, 64 * 6 + 1])  # one serial lane; lockstep segments
def test_affine_kernel_negative_zero_start(small_segments, d, n):
    """A -0.0 start with a q = 0 map and a q = -0.0 one, taken first: the
    reference loop's matmul turns m * (-0.0) into +0.0 before adding q."""
    M = np.stack([0.5 * np.eye(d), 0.25 * np.eye(d)])
    q = np.stack([np.zeros(d), np.full(d, -0.0)])
    system = AffineSystem(M, q, np.array([0.5, 0.5]))
    idx = np.random.default_rng(5).integers(0, 2, size=n)
    idx[0] = 1
    w0 = np.full(d, -0.0)
    got = ifs._run_system(system, w0, idx, 0, 1, n)
    assert same_bits(got, reference_chain(M, q, idx, w0, 0, 1, n))


def test_affine_kernel_rotation_family_falls_back_to_one_lane(small_segments):
    """Rotations never coalesce: after the second round settles only its first
    segment, the rest runs serially, still bit-equal to the loop."""
    M = np.stack([rotation(0.3), rotation(1.1)])
    q = np.array([[1.0, 0.0], [0.0, 0.5]])
    system = AffineSystem(M, q, np.array([0.5, 0.5]))
    n = 64 * 30 + 5
    idx = np.random.default_rng(6).integers(0, 2, size=n)
    w0 = np.array([0.1, 0.2])
    got = ifs._run_system(system, w0, idx, 50, 1, n - 50)
    assert rounds_and_lane(small_segments) == (2, n - 2 * 64)
    assert same_bits(got, reference_chain(M, q, idx, w0, 50, 1, n - 50))


def test_affine_kernel_settles_slowly_coalescing_chain(kernel_calls):
    """Slope 0.99 on both maps (Cantor maps at eta = 0.01) coalesces over about
    3,700 steps, more than one segment: the rounds go on while the largest
    start/end mismatch halves, and settle every segment."""
    system = quadratic_pair_system(0.01)
    n = ifs.MIN_SEGMENTS_SCALAR * ifs.SEG + 5
    idx = draw_indices(Xoshiro256PP(0), system.probs, n)
    M, q = system.matrices, system.offsets
    got = ifs._run_system(system, np.zeros(1), idx, 0, 1, n)
    assert rounds_and_lane(kernel_calls) == (4, 5)
    assert same_bits(got, reference_chain(M, q, idx, np.zeros(1), 0, 1, n))


def test_preset_chains_settle_in_two_rounds(kernel_calls):
    """The Cantor (eta = 2/3) and the four linreg2d chains at the sizes the
    benchmark samples settle in two lockstep rounds, and round 2 stops each
    segment once it meets its first run: Cantor's 151 segments of 2,052
    steps take at most 2,300 lockstep steps, not 2 * 2,052, and each
    linreg2d chain's 53 segments of 2,075 fewer than 2 * 2,075."""
    from ifslab.experiments import UniformLinReg, generate_synthetic

    data = generate_synthetic(UniformLinReg(n=5, d=2), 0)
    chains = [(quadratic_pair_system(2.0 / 3.0), np.zeros(1), 300_000, 2_300)] + [
        (build_sgd_ifs(LeastSquares(lam=0.0), data, partition_batches(5, 1), eta), np.zeros(2), 100_000,
         2 * 2_075 - 1)
        for eta in (0.3, 0.5, 0.7, 0.9)
    ]
    for system, w0, n_samples, max_steps in chains:
        kernel_calls["rounds"] = kernel_calls["lockstep_steps"] = 0
        sample_invariant(system, w0, 10_000, n_samples, 1, 0)
        assert kernel_calls["rounds"] == 2
        assert kernel_calls["lockstep_steps"] <= max_steps


def test_affine_kernel_expanding_map_raises(small_segments):
    system = AffineSystem([2.0 * np.eye(2)], [[1.0, -1.0]], np.array([1.0]))
    idx = np.zeros(64 * 40, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is reported as NonFiniteState only
        with pytest.raises(NonFiniteState):
            ifs._run_system(system, np.ones(2), idx, 0, 1, idx.size)


def test_affine_kernel_default_segments_match_reference_loop():
    """At the module's own SEG and MIN_SEGMENTS, through sample_invariant."""
    M, q, system = random_affine(2, 0.6, seed=7)
    burn_in, n_samples, seed = 1_000, ifs.MIN_SEGMENTS * ifs.SEG + 5, 8
    cloud = sample_invariant(system, np.array([0.5, -0.5]), burn_in, n_samples, 1, seed)
    idx = draw_indices(Xoshiro256PP(seed), system.probs, burn_in + n_samples)
    expected = reference_chain(M, q, idx, np.array([0.5, -0.5]), burn_in, 1, n_samples)
    assert same_bits(cloud.points, expected)


# ---------------------------------------------------------------------------
# segments that leave a settle round once they meet their previous run


@pytest.fixture
def chunked_segments(small_segments, monkeypatch):
    """Segments of 64 steps settled in chunks of 16, counted: a segment can
    leave a round inside a segment, not only at its end."""
    monkeypatch.setattr(ifs, "SETTLE_CHUNK", 16)
    return small_segments


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("burn_in", [0, 200])
@pytest.mark.parametrize("n", [64 * 20 + 7, 64 * 5 + 30])  # segments of 64 steps; of 70, not a multiple of 16
def test_meeting_exit_matches_reference_loop(chunked_segments, d, thin, burn_in, n):
    """Slope 0.4 coalesces in about 40 steps, so in round 2 each segment
    meets its first run after a chunk or three and leaves the round.  With
    burn_in = 200 the first segments are never recorded; the chain is still
    bit-equal to the serial loop."""
    M, q, system = random_affine(d, 0.4, seed=13)
    idx = np.random.default_rng(n + d).integers(0, 3, size=n)
    w0 = np.linspace(-0.5, 0.5, d)
    n_record = (n - burn_in) // thin
    got = ifs._run_system(system, w0, idx, burn_in, thin, n_record)
    S = n // (n // 64)
    assert chunked_segments["rounds"] == 2
    assert S + 16 <= chunked_segments["lockstep_steps"] < 2 * S
    assert same_bits(got, reference_chain(M, q, idx, w0, burn_in, thin, n_record))


def test_meeting_exit_in_later_rounds(kernel_calls, monkeypatch):
    """The slowly coalescing pair (slope 0.99) in chunks of 16: round 1 runs
    its 128 segments in full and round 2 its 127 (none meets yet), round 3
    drops segments one chunk after another, and round 4 drops all but one
    after its first chunk.  Every record is still the serial loop's."""
    monkeypatch.setattr(ifs, "SETTLE_CHUNK", 16)
    system = quadratic_pair_system(0.01)
    n = ifs.MIN_SEGMENTS_SCALAR * ifs.SEG + 5
    idx = draw_indices(Xoshiro256PP(0), system.probs, n)
    M, q = system.matrices, system.offsets
    got = ifs._run_system(system, np.zeros(1), idx, 0, 1, n)
    assert rounds_and_lane(kernel_calls) == (4, 5)
    widths = kernel_calls["widths"]
    assert widths[:256] == [128] * 128 + [127] * 128
    round_3 = widths[256:256 + 128]
    assert round_3[0] == 126 and min(round_3) < 126 and widths[-1] == 1
    assert same_bits(got, reference_chain(M, q, idx, np.zeros(1), 0, 1, n))


@pytest.mark.parametrize("d", [1, 2])
def test_meeting_exit_negative_zero_start(chunked_segments, d):
    """The -0.0 start of ``test_affine_kernel_negative_zero_start``, in chunks."""
    M = np.stack([0.5 * np.eye(d), 0.25 * np.eye(d)])
    q = np.stack([np.zeros(d), np.full(d, -0.0)])
    system = AffineSystem(M, q, np.array([0.5, 0.5]))
    n = 64 * 6 + 1
    idx = np.random.default_rng(5).integers(0, 2, size=n)
    idx[0] = 1
    w0 = np.full(d, -0.0)
    got = ifs._run_system(system, w0, idx, 0, 1, n)
    assert chunked_segments["lockstep_steps"] < 2 * 64
    assert same_bits(got, reference_chain(M, q, idx, w0, 0, 1, n))


def test_meeting_exit_rotation_family_never_meets(chunked_segments):
    """Rotations never coalesce, so no segment leaves a round early: both
    rounds run their 64 steps, and the rest runs in the serial lane."""
    M = np.stack([rotation(0.3), rotation(1.1)])
    q = np.array([[1.0, 0.0], [0.0, 0.5]])
    system = AffineSystem(M, q, np.array([0.5, 0.5]))
    n = 64 * 30 + 5
    idx = np.random.default_rng(6).integers(0, 2, size=n)
    w0 = np.array([0.1, 0.2])
    got = ifs._run_system(system, w0, idx, 50, 1, n - 50)
    assert rounds_and_lane(chunked_segments) == (2, n - 2 * 64)
    assert chunked_segments["lockstep_steps"] == 2 * 64
    assert same_bits(got, reference_chain(M, q, idx, w0, 50, 1, n - 50))


def test_meeting_exit_expanding_map_raises(chunked_segments):
    system = AffineSystem([2.0 * np.eye(2)], [[1.0, -1.0]], np.array([1.0]))
    idx = np.zeros(64 * 40, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is reported as NonFiniteState only
        with pytest.raises(NonFiniteState):
            ifs._run_system(system, np.ones(2), idx, 0, 1, idx.size)


def test_sgd_stack_records_each_chain_as_sample_invariant():
    """Three one-hidden-layer chains stepped in lockstep by ``run_sgd``
    record, each, what ``sample_invariant`` records for it alone, bit for
    bit.  The divergent middle chain is flagged not finite, which
    ``sample_invariant`` reports as NonFiniteState, and leaves the others
    alone."""
    rng = np.random.default_rng(9)
    data = Dataset(rng.uniform(-1.0, 1.0, size=(12, 2)), rng.uniform(-1.0, 1.0, size=12))
    problem = OneHiddenLayer(lam=0.1, out_weights=(1.0, -1.0, 0.5), activation="tanh")
    scheme = partition_batches(data.n, 3)
    etas, seeds = (0.05, 1e6, 0.2), (1, 2, 3)
    w0 = rng.normal(size=(3, 6))
    burn_in, n_samples, thin = 20, 30, 2
    idx = np.stack([draw_indices(Xoshiro256PP(s), scheme.probs, burn_in + n_samples * thin) for s in seeds])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is reported as NonFiniteState only
        got, finite = ifs.run_sgd(problem, data, np.stack(scheme.batches), np.array(etas)[:, None], w0, idx,
                                  burn_in, thin, n_samples)
    assert finite.tolist() == [True, False, True]
    for k in (0, 2):
        system = build_sgd_ifs(problem, data, scheme, etas[k])
        cloud = sample_invariant(system, w0[k], burn_in, n_samples, thin, seeds[k])
        assert same_bits(got[k], cloud.points)
    system = build_sgd_ifs(problem, data, scheme, etas[1])
    with pytest.raises(NonFiniteState, match="system appears to diverge"):
        sample_invariant(system, w0[1], burn_in, n_samples, thin, seeds[1])


def apply_loop(system, idx, w0, record_from, thin, n_record):
    """What a plain ``SgdSystem.apply`` loop records along the map indices ``idx``."""
    w, out = np.asarray(w0, dtype=float), []
    for t, i in enumerate(idx.tolist(), start=1):
        w = system.apply(i, w)
        if t > record_from and (t - record_from) % thin == 0 and len(out) < n_record:
            out.append(w)
    return np.array(out)


def chunk_steps(data, b, lanes):
    """The steps per row-gather chunk of ``ifs.run_sgd``."""
    return max(1, ifs.ROW_CHUNK_BYTES // (8 * (data.d + 1) * b * lanes))


def chunked_chains(offset, lanes):
    """A solo logistic system, or a one-hidden-layer problem for a stack of
    ``lanes`` chains, and a schedule whose T = chunk + offset steps record,
    every 2nd step, from 5 steps before the first chunk boundary on."""
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(-1.0, 1.0, size=(12, 2)), rng.choice([-1.0, 1.0], size=12))
    scheme = partition_batches(data.n, 3)
    chunk = chunk_steps(data, 3, lanes)
    T = chunk + offset
    record_from = max(chunk - 5, 0)
    return data, scheme, T, record_from, (T - record_from) // 2


def solo_across_chunks(data, scheme, T, record_from, n_record):
    """A logistic system's chain through ``_run_system``, and its plain apply loop."""
    system = build_sgd_ifs(Logistic(lam=0.1), data, scheme, 0.5)
    idx = draw_indices(Xoshiro256PP(3), system.probs, T)
    got = ifs._run_system(system, np.array([0.3, -0.2]), idx, record_from, 2, n_record)
    return got, apply_loop(system, idx, [0.3, -0.2], record_from, 2, n_record)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_solo_chain_across_row_chunks_records_the_apply_loop(offset):
    data, scheme, T, record_from, n_record = chunked_chains(offset, 1)
    got, want = solo_across_chunks(data, scheme, T, record_from, n_record)
    assert got.shape == (n_record, 2) and n_record >= 2 and same_bits(got, want)


def stack_across_chunks(data, scheme, T, record_from, n_record):
    """Three one-hidden-layer chains stepped in lockstep on chunked rows,
    and each chain's plain apply loop."""
    problem = OneHiddenLayer(lam=0.1, out_weights=(1.0, -1.0, 0.5), activation="sigmoid")
    etas = (0.05, 0.1, 0.2)
    w0 = np.random.default_rng(12).normal(size=(3, 6))
    idx = np.stack([draw_indices(Xoshiro256PP(s), scheme.probs, T) for s in (1, 2, 3)])
    got, finite = ifs.run_sgd(problem, data, np.stack(scheme.batches), np.array(etas)[:, None], w0, idx,
                              record_from, 2, n_record)
    assert finite.all()
    for k, eta in enumerate(etas):
        system = build_sgd_ifs(problem, data, scheme, eta)
        yield got[k], apply_loop(system, idx[k], w0[k], record_from, 2, n_record)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chain_stack_across_row_chunks_records_the_apply_loop(offset):
    data, scheme, T, record_from, n_record = chunked_chains(offset, 3)
    for got, want in stack_across_chunks(data, scheme, T, record_from, n_record):
        assert got.shape == (n_record, 6) and same_bits(got, want)


def test_one_step_row_chunks_record_the_apply_loop(monkeypatch):
    """A byte budget below one step's rows still gathers one step at a time."""
    monkeypatch.setattr(ifs, "ROW_CHUNK_BYTES", 1)
    data, scheme, _, _, _ = chunked_chains(0, 1)
    assert chunk_steps(data, 3, 3) == 1
    for got, want in [solo_across_chunks(data, scheme, 9, 2, 3), *stack_across_chunks(data, scheme, 9, 2, 3)]:
        assert got.shape[0] == 3 and same_bits(got, want)


# ---------------------------------------------------------------------------
# plain-SGD chains in lockstep segments


@pytest.fixture
def sgd_segments(monkeypatch):
    """SGD segments of 64 steps, at most 6 at once, at any b * dim; counts
    the lockstep rounds and the steps of the serial lane."""
    monkeypatch.setattr(ifs, "SGD_SEG", 64)
    monkeypatch.setattr(ifs, "SGD_MAX_SEGMENTS", 6)
    monkeypatch.setattr(ifs, "SGD_MAX_WORK", 10**9)
    calls = {"rounds": 0, "lockstep_steps": 0, "lane_steps": 0}
    lockstep, lane = ifs._sgd_lockstep, ifs._sgd_lane

    def counted_lockstep(system, idx, w, rec):
        calls["lockstep_steps"] += idx.shape[1]
        return lockstep(system, idx, w, rec)

    def counted_lane(system, idx, w, rec):
        calls["lane_steps"] += idx.shape[0]
        return lane(system, idx, w, rec)

    count_rounds(monkeypatch, calls)
    monkeypatch.setattr(ifs, "_sgd_lockstep", counted_lockstep)
    monkeypatch.setattr(ifs, "_sgd_lane", counted_lane)
    return calls


def sgd_system(family: str, eta: float = 0.3) -> SgdSystem:
    """A problem-backed system of each GLM family (least squares as an
    SgdSystem, which ``build_sgd_ifs`` would make affine) or a
    one-hidden-layer net, on 12 rows in batches of 3."""
    rng = np.random.default_rng(21)
    A = rng.uniform(-1.0, 1.0, size=(12, 2))
    labels = rng.choice([-1.0, 1.0], size=12)
    problem, y = {
        "logistic": (Logistic(lam=0.2), labels),
        "svm": (SmoothHingeSVM(lam=0.2, sigma_smooth=0.5), labels),
        "exp_squared": (RobustRegression(lam_r=0.2, t0=1.0), A @ [1.0, -0.5]),
        "tukey": (RobustRegression(lam_r=0.2, t0=1.0, rho="tukey"), A @ [1.0, -0.5]),
        "least_squares": (LeastSquares(lam=0.2), A @ [1.0, -0.5]),
        "one_hidden": (OneHiddenLayer(lam=0.1, out_weights=(1.0, -1.0), activation="tanh"), A @ [1.0, -0.5]),
        "one_hidden_sigmoid": (OneHiddenLayer(lam=0.1, out_weights=(1.0, -1.0)), A @ [1.0, -0.5]),
    }[family]
    data, scheme = Dataset(A, y), partition_batches(12, 3)
    return SgdSystem(problem, data, scheme.batches, eta, scheme.probs)


SGD_FAMILIES = ["logistic", "svm", "exp_squared", "tukey", "least_squares", "one_hidden"]


def run_sgd_case(family, K, precond=False):
    """``ifs.run_sgd`` on a system of ``sgd_system``: one chain (K None) or a
    stack of K, chain k at its own step size and map indices, and each
    chain's system.  ``precond`` adds a preconditioner to a solo chain."""
    system = sgd_system(family)
    solve = None
    if precond:
        Q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(system.dim, system.dim)))
        solve = PreconditionerSpec(Q @ np.diag(np.linspace(1.0, 2.0, system.dim)) @ Q.T, (0.99, 2.01)).solve
    n = 1 if K is None else K
    etas = np.linspace(0.2, 0.4, n)
    systems = [SgdSystem(system.problem, system.dataset, system.batches, eta, system.probs, solve) for eta in etas]
    idx = np.stack([draw_indices(Xoshiro256PP(s), system.probs, 150) for s in range(n)])
    w0 = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, system.dim))
    if K is None:
        idx, w0, eta = idx[0], w0[0], float(etas[0])
    else:
        eta = etas[:, None]
    return system, solve, eta, w0, idx, systems


@pytest.mark.parametrize("family", SGD_FAMILIES + ["one_hidden_sigmoid"])
@pytest.mark.parametrize("K", [None, 1, 2, 6])
def test_run_sgd_records_the_apply_loop(family, K):
    """``run_sgd`` steps its state in place through one gradient workspace;
    each chain, solo or in a stack of 1, 2 or 6, records what a plain
    ``SgdSystem.apply`` loop records, bit for bit."""
    system, _, eta, w0, idx, systems = run_sgd_case(family, K)
    got, finite = ifs.run_sgd(system.problem, system.dataset, system.batches, eta, w0, idx, 20, 3, 40)
    assert np.all(finite)
    for k, chain in enumerate(systems):
        want = apply_loop(chain, idx if K is None else idx[k], w0 if K is None else w0[k], 20, 3, 40)
        assert same_bits(got if K is None else got[k], want)


@pytest.mark.parametrize("family", SGD_FAMILIES + ["one_hidden_sigmoid"])
def test_preconditioned_run_sgd_records_the_apply_loop(family):
    system, solve, eta, w0, idx, (chain,) = run_sgd_case(family, None, precond=True)
    got, finite = ifs.run_sgd(system.problem, system.dataset, system.batches, eta, w0, idx, 20, 3, 40, solve)
    assert finite and same_bits(got, apply_loop(chain, idx, w0, 20, 3, 40))


@pytest.mark.parametrize("K, precond", [(None, False), (None, True), (3, False), (3, True)])
def test_run_sgd_leaves_w0_unchanged(K, precond):
    """The chain copies its start once and steps the copy: the caller's w0
    keeps its bytes, solo or stacked, with or without a preconditioner (a
    scalar one for the stack)."""
    system, solve, eta, w0, idx, _ = run_sgd_case("one_hidden", K, precond=precond and K is None)
    if precond and K is not None:
        solve = lambda g: 0.5 * g  # noqa: E731
    before = w0.tobytes()
    got, _ = ifs.run_sgd(system.problem, system.dataset, system.batches, eta, w0, idx, 0, 1, idx.shape[-1], solve)
    assert w0.tobytes() == before
    assert not np.shares_memory(got, w0) and not (got[..., -1, :] == w0).all()


@pytest.mark.parametrize("family", SGD_FAMILIES)
@pytest.mark.parametrize("thin", [1, 2, 3])
@pytest.mark.parametrize("cut", [-1, 0, 1])
def test_sgd_segments_record_the_apply_loop(sgd_segments, family, thin, cut):
    """Six segments of 64 steps and a tail of 5, recorded from a segment
    boundary -1, 0 or +1 on, bit-equal to a plain ``apply`` loop."""
    system = sgd_system(family)
    n = 6 * 64 + 5
    idx = draw_indices(Xoshiro256PP(thin), system.probs, n)
    w0 = np.linspace(-0.5, 0.5, system.dim)
    record_from = 3 * 64 + cut
    n_record = (n - record_from) // thin
    got = ifs._run_system(system, w0, idx, record_from, thin, n_record)
    assert sgd_segments["rounds"] >= 1
    assert got.shape == (n_record, system.dim)
    assert same_bits(got, apply_loop(system, idx, w0, record_from, thin, n_record))


def benchmark_logistic(seed: int, lam: float = 1.0) -> IfsSystem:
    """L2 logistic regression as ``perfbench`` runs it: 20 rows of norm 1.6,
    in batches of two rows 60 degrees apart, eta = 0.5."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 2.0 * math.pi, size=10)
    angles = (base[:, None] + (math.pi / 3) * np.arange(2)[None, :]).ravel()
    A = 1.6 * np.column_stack([np.cos(angles), np.sin(angles)])
    return build_sgd_ifs(Logistic(lam=lam), Dataset(A, rng.choice([-1.0, 1.0], size=20)),
                         partition_batches(20, 2), 0.5)


@pytest.mark.parametrize("burn_in", [0, 100])
def test_coalescing_sgd_chain_settles_in_two_rounds(sgd_segments, burn_in):
    """The benchmark's logistic chain coalesces within a segment: two lockstep
    rounds settle every segment, and the serial lane runs only the tail."""
    system = benchmark_logistic(3)
    n = 6 * 64 + 5
    idx = draw_indices(Xoshiro256PP(4), system.probs, n)
    w0 = np.array([0.5, -0.5])
    got = ifs._run_system(system, w0, idx, burn_in, 1, n - burn_in)
    assert rounds_and_lane(sgd_segments) == (2, 5)
    assert same_bits(got, apply_loop(system, idx, w0, burn_in, 1, n - burn_in))


@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("burn_in", [0, 100])
def test_meeting_exit_on_sgd_segments(sgd_segments, monkeypatch, thin, burn_in):
    """The benchmark's logistic chain in chunks of 16: in round 2 each
    segment leaves once it meets its first run, and the records are the
    plain apply loop's."""
    monkeypatch.setattr(ifs, "SETTLE_CHUNK", 16)
    system = benchmark_logistic(3)
    n = 6 * 64 + 5
    idx = draw_indices(Xoshiro256PP(4), system.probs, n)
    w0 = np.array([0.5, -0.5])
    n_record = (n - burn_in) // thin
    got = ifs._run_system(system, w0, idx, burn_in, thin, n_record)
    assert rounds_and_lane(sgd_segments) == (2, 5)
    assert sgd_segments["lockstep_steps"] < 2 * 64
    assert same_bits(got, apply_loop(system, idx, w0, burn_in, thin, n_record))


def test_sgd_chain_that_never_coalesces_stops_by_the_rule(sgd_segments):
    """Logistic regression without a regularizer on separable data drifts off
    to infinity, and chains from different starts never meet.  The rounds
    stop once a round settles only its first segment and the largest
    mismatch stops halving; the rest runs in the serial lane."""
    rng = np.random.default_rng(5)
    A = rng.normal(size=(20, 2))
    data = Dataset(A, np.where(A[:, 0] > 0.0, 1.0, -1.0))
    system = build_sgd_ifs(Logistic(lam=0.0), data, partition_batches(20, 2), 0.5)
    n = 6 * 64 + 5
    idx = draw_indices(Xoshiro256PP(6), system.probs, n)
    got = ifs._run_system(system, np.zeros(2), idx, 50, 1, n - 50)
    assert rounds_and_lane(sgd_segments) == (3, n - 3 * 64)
    assert same_bits(got, apply_loop(system, idx, np.zeros(2), 50, 1, n - 50))


def test_divergent_sgd_segments_raise_non_finite_state(sgd_segments):
    """Least squares at eta = 50 blows up: NonFiniteState, and no numpy warning."""
    system = sgd_system("least_squares", eta=50.0)
    idx = draw_indices(Xoshiro256PP(7), system.probs, 6 * 64 + 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteState, match="system appears to diverge"):
            ifs._run_system(system, np.ones(2), idx, 0, 1, idx.size)
    assert sgd_segments["rounds"] >= 1


def test_preconditioned_sgd_chain_stays_serial(sgd_segments):
    """A preconditioner keeps the chain out of the segments, and bit-equal."""
    rng = np.random.default_rng(8)
    A = rng.normal(size=(12, 2))
    precond = PreconditionerSpec(np.diag([1.0, 2.5]), (1.0, 2.5))
    system = build_precond_sgd_ifs(Logistic(lam=0.1), Dataset(A, np.where(A[:, 1] > 0, 1.0, -1.0)),
                                   partition_batches(12, 3), 0.5, precond)
    n = 6 * 64 + 5
    idx = draw_indices(Xoshiro256PP(9), system.probs, n)
    got = ifs._run_system(system, np.full(2, 0.1), idx, 10, 2, 150)
    assert rounds_and_lane(sgd_segments) == (0, 0)
    assert same_bits(got, apply_loop(system, idx, np.full(2, 0.1), 10, 2, 150))


@pytest.mark.parametrize("kind", ["logistic", "one_hidden"])
def test_lyapunov_is_bit_equal_on_sgd_segments(sgd_segments, kind):
    """The reference cases' rho, with their states from lockstep segments."""
    system, w0, k = lyapunov_case(kind)
    est = lyapunov_exponent(system, w0, k, seed=7)
    assert sgd_segments["rounds"] >= 2
    assert float.hex(est.rho) == float.hex(reference_lyapunov(system, w0, k, seed=7))


def test_wide_sgd_steps_stay_serial(monkeypatch):
    """A chain with b * dim above SGD_MAX_WORK (here 12 against 11) runs
    serially, as the sweep's student (16 * 32) does at the module's value."""
    calls = []
    monkeypatch.setattr(ifs, "_sgd_lockstep", lambda *args: calls.append(args))
    system = sgd_system("one_hidden")  # b * dim = 3 * 4
    monkeypatch.setattr(ifs, "SGD_MAX_WORK", 11)
    idx = draw_indices(Xoshiro256PP(10), system.probs, 4 * ifs.SGD_SEG)
    got = ifs._run_system(system, np.full(4, 0.1), idx, 0, 1, idx.size)
    assert calls == [] and same_bits(got, apply_loop(system, idx, np.full(4, 0.1), 0, 1, idx.size))


def test_benchmark_logistic_chain_settles_at_the_default_segments(monkeypatch):
    """At the module's constants, the benchmark's logistic chain through
    sample_invariant settles in two rounds, bit-equal to the serial chain."""
    system = benchmark_logistic(1)
    burn_in, n_samples = 1_000, 20_000
    assert burn_in + n_samples >= ifs.SGD_SEG * ifs.SGD_MAX_SEGMENTS
    calls = {"rounds": 0}
    count_rounds(monkeypatch, calls)
    cloud = sample_invariant(system, np.zeros(2), burn_in, n_samples, 1, 1)
    assert calls["rounds"] == 2
    monkeypatch.setattr(ifs, "SGD_MAX_WORK", 0)  # the serial chain
    serial = sample_invariant(system, np.zeros(2), burn_in, n_samples, 1, 1)
    assert calls["rounds"] == 2 and same_bits(cloud.points, serial.points)


def test_sample_invariant_thinning_and_determinism():
    system = cantor_system()
    a = sample_invariant(system, np.array([0.0]), 100, 500, thin=3, seed=2)
    b = sample_invariant(system, np.array([0.0]), 100, 500, thin=3, seed=2)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.points.shape == (500, 1)
    assert a.iterations[0] == 103
    assert a.iterations[-1] == 100 + 3 * 500


def test_cantor_stationarity_by_ks_distance():
    """Two disjoint post-burn-in windows agree in distribution (KS < 0.01)."""
    cloud = sample_invariant(cantor_system(), np.array([0.0]), 1000, 200_000, seed=3)
    x = np.sort(cloud.points[:100_000, 0])
    y = np.sort(cloud.points[100_000:, 0])
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    assert np.abs(cdf_x - cdf_y).max() < 0.01


def test_cloud_csv_round_trip(tmp_path):
    cloud = sample_invariant(quadratic_pair_system(0.9), np.array([0.2]), 50, 200, thin=2, seed=6)
    path = tmp_path / "cloud.csv"
    cloud.write_csv(str(path))
    back = read_cloud_csv(str(path))
    np.testing.assert_array_equal(back.points, cloud.points)
    assert back.burn_in == cloud.burn_in
    assert back.thin == cloud.thin


@pytest.mark.parametrize(
    "text, row",
    [
        ("iter\n1\n2\n3\n", "row 1"),  # no w columns: was read as a single-point cloud
        ("iter,w0\n5,0.1\n3,0.2\n4,0.3\n", "row 3"),  # was thin = -2, burn_in = 7
        ("iter,w0\n2,0.1\n4,0.2\n5,0.3\n", "row 4"),
        ("iter,w0\n2,0.1\n2,0.2\n", "row 3"),
        ("iter,w0\n1,0.1\n1.5,0.2\n", "row 3"),  # iters are integer literals, not floats
        ("iter,w0\n1000,0.1\n1e3,0.2\n", "row 3"),
        ("iter,w0\n1,0.1\n2,0.2,0.3\n", "row 3"),
        ("iter,w0\n", "no data rows"),
    ],
)
def test_cloud_csv_rejects_malformed_clouds(tmp_path, text, row):
    path = tmp_path / "cloud.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=row):
        read_cloud_csv(str(path))


def test_cloud_csv_reads_crlf_line_endings(tmp_path):
    # a CRLF file used to fail with "bad sample-cloud header ['iter', 'w0', 'w1\\r']"
    cloud = sample_invariant(cantor_system(), np.array([0.2]), 10, 40, thin=3, seed=2)
    cloud.points = np.column_stack([cloud.points, -cloud.points])
    lf = tmp_path / "lf.csv"
    cloud.write_csv(str(lf))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    back = read_cloud_csv(str(crlf))
    assert back.points.view(np.uint64).tolist() == cloud.points.view(np.uint64).tolist()
    assert (back.burn_in, back.thin) == (10, 3)


@settings(max_examples=25, deadline=None)
@given(
    slopes=st.tuples(st.floats(0.05, 0.9), st.floats(0.05, 0.9)),
    mix=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32),
)
def test_box_invariance_property(slopes, mix, seed):
    """Maps sending [0,1] into itself keep every post-burn-in sample inside."""
    s1, s2 = slopes
    system = scalar_system([s1, s2], [0.0, 1.0 - s2], [mix, 1.0 - mix])
    cloud = sample_invariant(system, np.array([0.5]), 50, 500, seed=seed)
    assert cloud.points.min() >= 0.0
    assert cloud.points.max() <= 1.0


# ---------------------------------------------------------------------------
# contractivity


def test_cantor_contractivity_analytic():
    report = contractivity_report(cantor_system())
    assert report.lipschitz == pytest.approx((1.0 / 3.0, 1.0 / 3.0), rel=1e-9)
    assert report.mean_log == pytest.approx(math.log(1.0 / 3.0), rel=1e-9)
    assert report.contractive


def test_average_contractivity_with_one_expanding_map():
    system = AffineSystem([2.0 * np.eye(2), 0.1 * np.eye(2)], np.zeros((2, 2)), np.array([0.5, 0.5]))
    report = contractivity_report(system)
    assert report.lipschitz == pytest.approx((2.0, 0.1), rel=1e-9)
    assert report.mean_log == pytest.approx(0.5 * (math.log(2.0) + math.log(0.1)), rel=1e-9)
    assert report.contractive


def test_least_squares_lipschitz_is_exact():
    """Affine norms up to DENSE_ORACLE_MAX_DIM come from an SVD, not power iteration."""
    rng = np.random.default_rng(0)
    data = Dataset(rng.uniform(-1.0, 1.0, size=(4, 2)), rng.uniform(-1.0, 1.0, size=4))
    lam, eta = 1.0, 0.2
    system = build_sgd_ifs(LeastSquares(lam=lam), data, partition_batches(4, 1), eta)
    report = contractivity_report(system)
    assert report.lipschitz == pytest.approx((1.0 - eta * lam,) * 4, rel=1e-12)


def test_affine_norm_exact_above_dense_cap():
    diag = np.linspace(-0.9, 0.5, 65)
    report = contractivity_report(AffineSystem([np.diag(diag)], np.zeros((1, 65)), np.array([1.0])))
    assert report.lipschitz[0] == pytest.approx(0.9, rel=1e-12)


def test_contractivity_report_sees_one_expanding_direction():
    """diag(1.2, 0.5 x 15) stretches one coordinate of 16: its exact norm is
    1.2, so the mean log is log 1.2 and the system is not contractive."""
    m = np.diag([1.2] + [0.5] * 15)
    system = AffineSystem([m, m], [np.zeros(16), np.ones(16)], np.array([0.5, 0.5]))
    report = contractivity_report(system)
    assert report.mean_log == pytest.approx(math.log(1.2), rel=1e-12)
    assert not report.contractive


def test_contractivity_report_rejects_problem_backed_systems():
    data = Dataset([[0.8], [-0.5]], [1.0, -1.0])
    system = build_sgd_ifs(Logistic(lam=0.5), data, partition_batches(2, 1), 0.1)
    with pytest.raises(ConfigError, match="rams_ratio or complexity.log_norm_table"):
        contractivity_report(system)


# ---------------------------------------------------------------------------
# lyapunov


def test_lyapunov_cantor_constant_jacobian():
    est = lyapunov_exponent(cantor_system(), np.array([0.0]), 2000, seed=1)
    assert est.rho == pytest.approx(math.log(1.0 / 3.0), abs=1e-3)


def test_lyapunov_identity_map_is_zero():
    system = AffineSystem([np.eye(2)], np.zeros((1, 2)), np.array([1.0]))
    est = lyapunov_exponent(system, np.zeros(2), 1500, seed=2)
    assert est.rho == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_dominant_direction_of_diagonal_map():
    system = AffineSystem([np.diag([0.9, 0.5])], np.zeros((1, 2)), np.array([1.0]))
    est = lyapunov_exponent(system, np.zeros(2), 100_000, seed=3)
    assert est.rho == pytest.approx(math.log(0.9), abs=1e-2)


def test_lyapunov_matches_contractivity_for_constant_slope():
    system = quadratic_pair_system(2.0 / 3.0)
    report = contractivity_report(system)
    est = lyapunov_exponent(system, np.array([0.0]), 5000, seed=4)
    assert est.rho == pytest.approx(report.mean_log, abs=1e-3)


def test_lyapunov_requires_long_chain():
    with pytest.raises(ConfigError):
        lyapunov_exponent(cantor_system(), np.array([0.0]), 10, seed=0)


def reference_lyapunov(system: IfsSystem, w0: np.ndarray, k: int, seed: int) -> float:
    """The serial loop: the system's ``apply`` steps the state, renormalizing the
    tangent every 16 steps and measuring it once more after the last."""
    w = np.asarray(w0, dtype=float)
    gen = Xoshiro256PP(seed)
    v = gen.normals(system.dim)
    v /= np.linalg.norm(v)
    idx = draw_indices(gen, system.probs, k)
    total = 0.0
    for t in range(k):
        v = system.jacobian_matvec(idx[t], w, v)
        w = system.apply(idx[t], w)
        if (t + 1) % 16 == 0:
            nv = float(np.linalg.norm(v))
            if nv == 0.0:
                return -math.inf
            total += math.log(nv)
            v /= nv
    if k % 16:
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return -math.inf
        total += math.log(nv)
    return total / k


def lyapunov_case(kind: str) -> tuple:
    """(system, w0, k): three problem-backed families at k = 1017, and a 2-D
    affine system at a k that crosses two block boundaries, k % 16 = 1."""
    rng = np.random.default_rng(11)
    A = rng.normal(size=(8, 2))
    labels = np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
    scheme = partition_batches(8, 2)
    if kind == "logistic":
        return build_sgd_ifs(Logistic(lam=0.1), Dataset(A, labels), scheme, 0.5), np.full(2, 0.1), 1017
    if kind == "precond_logistic":
        precond = PreconditionerSpec(np.diag([1.0, 2.5]), (1.0, 2.5))
        system = build_precond_sgd_ifs(Logistic(lam=0.1), Dataset(A, labels), scheme, 0.5, precond)
        return system, np.full(2, 0.1), 1017
    if kind == "one_hidden":
        net = OneHiddenLayer(lam=0.01, out_weights=(1.0, -1.0), activation="tanh")
        return build_sgd_ifs(net, Dataset(A, A @ [0.5, -1.0]), scheme, 0.2), np.full(4, 0.3), 1017
    system = AffineSystem([[[0.6, 0.2], [-0.1, 0.5]], [[0.4, -0.3], [0.2, 0.7]]], [[1.0, 0.0], [0.0, -1.0]],
                          np.array([0.3, 0.7]))
    return system, np.zeros(2), 2 * ifs.SEG * ifs.MIN_SEGMENTS + 4465


@pytest.mark.parametrize("kind", ["logistic", "precond_logistic", "one_hidden", "affine_2d"])
def test_lyapunov_is_bit_equal_to_the_serial_loop(kind):
    system, w0, k = lyapunov_case(kind)
    est = lyapunov_exponent(system, w0, k, seed=7)
    assert math.isfinite(est.rho)
    assert float.hex(est.rho) == float.hex(reference_lyapunov(system, w0, k, seed=7))


def counted_run_system(monkeypatch) -> list:
    """Patch ``ifs._run_system`` to record the length of each index block it steps."""
    run_system, steps = ifs._run_system, []

    def counted(system, w0, idx, *args, **kwargs):
        steps.append(len(idx))
        return run_system(system, w0, idx, *args, **kwargs)

    monkeypatch.setattr(ifs, "_run_system", counted)
    return steps


def test_lyapunov_steps_its_chain_in_blocks_through_run_system(monkeypatch):
    """Blocks of 1024 steps, doubling up to SEG * MIN_SEGMENTS, then the rest."""
    system, w0, k = lyapunov_case("affine_2d")
    steps = counted_run_system(monkeypatch)
    lyapunov_exponent(system, w0, k, seed=0)
    cap = ifs.SEG * ifs.MIN_SEGMENTS
    expected = [1024 << j for j in range((cap // 1024).bit_length())]  # 1024, ..., cap
    assert expected[-1] == cap and 0 < k - sum(expected) <= cap
    assert steps == expected + [k - sum(expected)]


def test_lyapunov_newton_eta_one_is_minus_inf():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(6, 3))
    system = build_stoch_newton_ifs(LeastSquares(lam=0.1), Dataset(A, A @ [1.0, 0.0, -1.0]),
                                    partition_batches(6, 2), 1.0)
    assert lyapunov_exponent(system, np.zeros(3), 1017, seed=0).rho == -math.inf


def test_lyapunov_zero_jacobian_stops_within_the_first_block(monkeypatch):
    """Stochastic Newton at eta = 1 has the zero Jacobian: -inf after at
    most 1024 states, however long the chain asked for."""
    rng = np.random.default_rng(2)
    A = rng.normal(size=(6, 3))
    system = build_stoch_newton_ifs(LeastSquares(lam=0.1), Dataset(A, A @ [1.0, 0.0, -1.0]),
                                    partition_batches(6, 2), 1.0)
    steps = counted_run_system(monkeypatch)
    assert lyapunov_exponent(system, np.zeros(3), 70_001, seed=0).rho == -math.inf
    assert sum(steps) <= 1024


@pytest.mark.parametrize("slope, w0", [
    (2.0, [1.0]),  # the state overflows
    (1e30, [0.0]),  # the state stays at 0; only the tangent overflows
])
def test_lyapunov_divergence_is_typed_without_numpy_warnings(slope, w0):
    system = scalar_system([slope], [0.0], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteState, match="system appears to diverge"):
            lyapunov_exponent(system, np.array(w0), 2000, seed=0)
