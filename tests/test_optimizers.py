"""Batch schemes and the SGD / preconditioned / Newton map builders."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROBLEM_KINDS, make_problem_config
from ifslab.complexity import PowerIterConfig, jacobian_norms
from ifslab.dimension import subset_map_count
from ifslab.errors import ConfigError, IndivisibleBatch, NotPositiveDefinite
from ifslab import ifs
from ifslab.ifs import contractivity_report, iterate, lyapunov_exponent, sample_invariant
from ifslab.optimizers import (
    BatchScheme,
    PreconditionerSpec,
    SubsetScheme,
    build_precond_sgd_ifs,
    build_sgd_ifs,
    build_stoch_newton_ifs,
    iterate_subset_sgd,
    partition_batches,
    sample_invariant_subset,
)
from ifslab.problems import Dataset, LeastSquares, Logistic, grad, hvp, norm_envelopes
from ifslab.rng import Xoshiro256PP, draw_indices


# ---------------------------------------------------------------------------
# partition_batches


def test_partition_contiguous_blocks():
    scheme = partition_batches(6, 2)
    assert scheme.batches.shape == (3, 2)
    np.testing.assert_array_equal(scheme.batches[0], [0, 1])
    np.testing.assert_array_equal(scheme.batches[1], [2, 3])
    np.testing.assert_array_equal(scheme.batches[2], [4, 5])
    np.testing.assert_allclose(scheme.probs, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)


def test_partition_indivisible():
    with pytest.raises(IndivisibleBatch):
        partition_batches(6, 4)


def test_partition_singletons():
    scheme = partition_batches(5, 1)
    assert scheme.batches.shape == (5, 1)
    np.testing.assert_allclose(scheme.probs, np.full(5, 0.2), rtol=1e-15)


def test_partition_validates_sizes():
    with pytest.raises(ConfigError):
        partition_batches(0, 1)
    with pytest.raises(ConfigError):
        partition_batches(4, 5)


def test_partition_shuffle_is_a_permutation():
    scheme = partition_batches(12, 3, shuffle=True, seed=9)
    flat = np.concatenate(scheme.batches)
    assert sorted(flat.tolist()) == list(range(12))
    assert not np.array_equal(flat, np.arange(12))  # seed 9 actually shuffles


def test_partition_shuffled_table_is_pinned():
    """The shuffled table, bit for bit, as the tuple-of-batches scheme built it."""
    scheme = partition_batches(10, 2, seed=3, shuffle=True)
    assert np.array_equal(scheme.batches, [[0, 6], [8, 2], [7, 5], [1, 3], [9, 4]])


def test_partition_scheme_is_one_table():
    scheme = partition_batches(12, 3, shuffle=True, seed=9)
    assert scheme.batches.dtype == np.int64 and scheme.batches.flags.c_contiguous
    assert scheme.batches.shape == scheme.probs.shape + (3,)


def test_partition_draw_takes_table_rows_at_the_drawn_indices():
    scheme = partition_batches(12, 3, shuffle=True, seed=9)
    got = scheme.draw(Xoshiro256PP(4), 50)
    assert got.dtype == np.int64 and got.shape == (50, 3)
    assert np.array_equal(got, scheme.batches[draw_indices(Xoshiro256PP(4), scheme.probs, 50)])


@pytest.mark.parametrize("batches, probs, message", [
    ([[0], [1]], [0.3, 0.3], "probs must sum to 1"),
    # one probability for two batches used to draw batch 0 only, silently
    (np.array([[0], [1]]), np.array([1.0]), r"probs has shape \(1,\), but the system has 2 maps"),
    # a float table used to be drawn as floats
    ([[0.5], [1]], [0.5, 0.5], r"batch 0, entry 0 is 0\.5: a batch holds integer row indices, not float64"),
    ([[0, 1], [2]], [0.5, 0.5], "nonempty batches of one length"),
])
def test_batch_scheme_checks_its_table_and_probs(batches, probs, message):
    """A scheme checks its table's shape and dtype, and one valid probability
    per batch, when it is made; its rows meet a dataset only later."""
    with pytest.raises(ConfigError, match=message):
        BatchScheme(batches, probs)


def test_batch_scheme_takes_a_table_as_a_list():
    """A list of integer batches becomes the scheme's int64 table and draws
    its rows; it used to end in numpy's TypeError at draw time."""
    scheme = BatchScheme([[0], [1]], [0.5, 0.5])
    assert scheme.batches.dtype == np.int64 and scheme.batches.flags.c_contiguous
    got = scheme.draw(Xoshiro256PP(3), 3)
    assert np.array_equal(got, np.array([[0], [1]])[draw_indices(Xoshiro256PP(3), scheme.probs, 3)])


def test_batch_scheme_owns_its_table():
    """A scheme copies an int64 table too, so a later write to the caller's
    array cannot put an unchecked row into the scheme or its systems."""
    table = np.array([[0], [1]], dtype=np.int64)
    scheme = BatchScheme(table, np.array([0.5, 0.5]))
    table[0, 0] = -1
    assert scheme.batches[0, 0] == 0


def test_subset_scheme_counts_maps():
    scheme = SubsetScheme(6, 2)
    assert subset_map_count(scheme.n, scheme.b) == math.comb(6, 2)


def test_subset_draw_takes_one_subset_per_row_in_stream_order():
    got = SubsetScheme(7, 3).draw(Xoshiro256PP(8), 40)
    gen = Xoshiro256PP(8)
    expected = [gen.subset_without_replacement(7, 3) for _ in range(40)]
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert np.array_equal(got, expected)
    assert SubsetScheme(7, 3).draw(Xoshiro256PP(8), 0).shape == (0, 3)


@pytest.mark.parametrize("n, b", [(6, 0), (6, 7), (0, 0), (3, -1)])
def test_subset_scheme_rejects_a_size_outside_1_to_n(n, b):
    with pytest.raises(ConfigError, match=f"need 0 < b <= n, got n={n}, b={b}"):
        SubsetScheme(n, b)


# ---------------------------------------------------------------------------
# build_sgd_ifs


def test_quadratic_pair_maps_are_exact():
    data = Dataset([[1.0], [1.0]], [0.0, 1.0])
    system = build_sgd_ifs(LeastSquares(lam=0.0), data, partition_batches(2, 1), 2.0 / 3.0)
    (m1, m2), (q1, q2) = system.matrices, system.offsets
    assert m1[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert q1[0] == 0.0
    assert m2[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert q2[0] == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_full_batch_gd_fixed_point():
    data = Dataset([[1.0]], [1.0])
    system = build_sgd_ifs(LeastSquares(lam=0.0), data, partition_batches(1, 1), 0.5)
    (m,), (q,) = system.matrices, system.offsets
    assert m[0, 0] == pytest.approx(0.5, rel=1e-15)
    assert q[0] == pytest.approx(0.5, rel=1e-15)
    traj = iterate(system, np.array([0.0]), 60, seed=0)
    assert traj.states[-1, 0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_one_step_equivalence(kind):
    """Every built map evaluates to w - eta * grad on its batch."""
    problem, dataset, w, _ = make_problem_config(kind, seed=21)
    scheme = partition_batches(dataset.n, 1)
    eta = 0.05
    system = build_sgd_ifs(problem, dataset, scheme, eta)
    for i, batch in enumerate(scheme.batches):
        expected = w - eta * grad(problem, w, dataset, batch)
        np.testing.assert_allclose(system.apply(i, w), expected, atol=1e-12)


def test_affine_fidelity_on_many_points():
    rng = np.random.default_rng(3)
    data = Dataset(rng.uniform(-1, 1, size=(6, 3)), rng.uniform(-1, 1, size=6))
    scheme = partition_batches(6, 2)
    problem = LeastSquares(lam=0.3)
    system = build_sgd_ifs(problem, data, scheme, 0.1)
    for _ in range(1000):
        w = rng.normal(size=3)
        i = int(rng.integers(0, len(scheme.batches)))
        direct = w - 0.1 * grad(problem, w, data, scheme.batches[i])
        np.testing.assert_allclose(system.apply(i, w), direct, atol=1e-12)


def test_sgd_builder_validates_eta_and_labels():
    data = Dataset([[1.0]], [0.5])
    with pytest.raises(ConfigError):
        build_sgd_ifs(LeastSquares(), data, partition_batches(1, 1), 0.0)
    with pytest.raises(ConfigError):
        build_sgd_ifs(Logistic(lam=1.0), data, partition_batches(1, 1), 0.1)


# ---------------------------------------------------------------------------
# preconditioned SGD


def test_preconditioner_spec_validation():
    with pytest.raises(ConfigError):
        PreconditionerSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), (0.5, 2.0))  # not symmetric
    with pytest.raises(NotPositiveDefinite):
        PreconditionerSpec(np.array([[1.0, 0.0], [0.0, -1.0]]), (0.5, 2.0))
    with pytest.raises(NotPositiveDefinite):
        # eigenvalues are (1, 3) but the declared ceiling is 2
        PreconditionerSpec(np.diag([1.0, 3.0]), (0.5, 2.0))


def test_identity_preconditioner_matches_sgd():
    rng = np.random.default_rng(5)
    data = Dataset(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, size=4))
    scheme = partition_batches(4, 2)
    problem = LeastSquares(lam=0.5)
    spec = PreconditionerSpec(np.eye(2), (1.0, 1.0))
    plain = build_sgd_ifs(problem, data, scheme, 0.2)
    precond = build_precond_sgd_ifs(problem, data, scheme, 0.2, spec)
    a = iterate(plain, np.array([0.3, -0.4]), 1000, seed=7)
    b = iterate(precond, np.array([0.3, -0.4]), 1000, seed=7)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.states, b.states)


def test_identity_preconditioner_matches_sgd_nonaffine():
    rng = np.random.default_rng(55)
    data = Dataset(rng.uniform(-1, 1, size=(4, 2)), np.array([1.0, -1.0, 1.0, -1.0]))
    scheme = partition_batches(4, 2)
    spec = PreconditionerSpec(np.eye(2), (1.0, 1.0))
    plain = build_sgd_ifs(Logistic(lam=0.5), data, scheme, 0.2)
    precond = build_precond_sgd_ifs(Logistic(lam=0.5), data, scheme, 0.2, spec)
    a = iterate(plain, np.array([0.3, -0.4]), 500, seed=7)
    b = iterate(precond, np.array([0.3, -0.4]), 500, seed=7)
    np.testing.assert_array_equal(a.states, b.states)


def test_scalar_preconditioner_halves_the_step():
    rng = np.random.default_rng(6)
    data = Dataset(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, size=4))
    scheme = partition_batches(4, 1)
    problem = LeastSquares(lam=1.0)
    spec = PreconditionerSpec(2.0 * np.eye(2), (2.0, 2.0))
    halved = build_sgd_ifs(problem, data, scheme, 0.1)
    precond = build_precond_sgd_ifs(problem, data, scheme, 0.2, spec)
    np.testing.assert_allclose(precond.matrices, halved.matrices, atol=1e-14)
    np.testing.assert_allclose(precond.offsets, halved.offsets, atol=1e-14)


def test_preconditioned_map_hand_value():
    # H = diag(1,4), lam = 1, eta = 0.1, single point a = (1,0):
    # M = I - 0.1 diag(1, 1/4) - 0.1 diag(1, 1/4) diag(1, 0) = diag(0.8, 0.975)
    data = Dataset([[1.0, 0.0]], [1.0])
    spec = PreconditionerSpec(np.diag([1.0, 4.0]), (1.0, 4.0))
    system = build_precond_sgd_ifs(
        LeastSquares(lam=1.0), data, partition_batches(1, 1), 0.1, spec
    )
    np.testing.assert_allclose(system.matrices[0], np.diag([0.8, 0.975]), atol=1e-12)


def test_preconditioned_logistic_chain_matches_reference_loop():
    """sample_invariant on a non-identity preconditioner, with burn-in and
    thinning, records w - eta * P^{-1} grad(...) bit for bit."""
    rng = np.random.default_rng(21)
    data = Dataset(rng.uniform(-1, 1, size=(8, 2)), np.where(rng.uniform(size=8) < 0.5, -1.0, 1.0))
    spec = PreconditionerSpec(np.array([[2.0, 0.3], [0.3, 1.0]]), (0.5, 3.0))
    problem, scheme, eta = Logistic(lam=0.1), partition_batches(8, 2), 0.3
    burn_in, n_samples, thin, seed = 15, 40, 3, 22
    w0 = np.array([0.4, -0.2])
    system = build_precond_sgd_ifs(problem, data, scheme, eta, spec)
    cloud = sample_invariant(system, w0, burn_in, n_samples, thin, seed)

    idx = draw_indices(Xoshiro256PP(seed), scheme.probs, burn_in + n_samples * thin)
    w = w0
    expected = []
    for t, i in enumerate(idx, start=1):
        w = w - eta * spec.solve(grad(problem, w, data, scheme.batches[i]))
        if t > burn_in and (t - burn_in) % thin == 0:
            expected.append(w)
    assert np.array_equal(cloud.points, np.array(expected))


def test_preconditioned_problem_map_norm_matches_dense_svd():
    """Nonsymmetric J = I - eta P^{-1} H(w): the exact norm is the top singular value."""
    rng = np.random.default_rng(56)
    d = 4
    data = Dataset(rng.uniform(-1, 1, size=(6, d)), rng.choice([-1.0, 1.0], size=6))
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    P = Q @ np.diag([1.0, 1.5, 2.5, 4.0]) @ Q.T
    P = 0.5 * (P + P.T)
    spec = PreconditionerSpec(P, (1.0, 4.0))
    problem = Logistic(lam=0.5)
    system = build_precond_sgd_ifs(problem, data, partition_batches(6, 2), 0.8, spec)
    assert system.solve is not None
    for batch in system.batches:
        for _ in range(3):
            w = rng.normal(size=d)
            H = np.column_stack([hvp(problem, w, data, batch, e) for e in np.eye(d)])
            J = np.eye(d) - 0.8 * np.linalg.solve(P, H)
            assert not np.allclose(J, J.T)
            dense = np.linalg.svd(J, compute_uv=False)[0]
            (norm,), _ = jacobian_norms(problem, data, [batch], 0.8, w, PowerIterConfig(), [0], system.solve)
            assert norm == pytest.approx(dense, rel=1e-12)


def test_preconditioned_problem_map_norm_above_dense_cap_matches_svd():
    """dim 65 > DENSE_ORACLE_MAX_DIM: power iteration on J^T J, then a square root."""
    rng = np.random.default_rng(57)
    d = 65
    data = Dataset(rng.uniform(-1, 1, size=(8, d)), rng.choice([-1.0, 1.0], size=8))
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    P = Q @ np.diag(np.linspace(1.0, 4.0, d)) @ Q.T
    spec = PreconditionerSpec(0.5 * (P + P.T), (1.0, 4.0))
    problem = Logistic(lam=0.5)
    system = build_precond_sgd_ifs(problem, data, partition_batches(8, 4), 0.8, spec)
    for s, batch in enumerate(system.batches):
        w = rng.normal(size=d)
        H = hvp(problem, w, data, batch, np.eye(d))
        J = np.eye(d) - 0.8 * np.linalg.solve(spec.matrix, H)
        dense = np.linalg.svd(J, compute_uv=False)[0]
        (norm,), _ = jacobian_norms(
            problem, data, [batch], 0.8, w, PowerIterConfig(1e-12, 20_000), [s], system.solve
        )
        assert norm == pytest.approx(dense, rel=1e-8)


def test_preconditioner_spec_rejects_bound_below_a_near_tied_top_eigenvalue():
    """The top eigenvalue 2.001 exceeds the declared 2.00099 by 1e-5, next to
    an eigenvalue 2 that a stopped-early iterative estimate can mistake for it."""
    with pytest.raises(NotPositiveDefinite):
        PreconditionerSpec(np.diag([1.0, 2.0, 2.001]), (1.0, 2.00099))


# ---------------------------------------------------------------------------
# stochastic Newton


def test_newton_scalar_map():
    data = Dataset([[1.0]], [2.0])
    system = build_stoch_newton_ifs(LeastSquares(lam=1.0), data, partition_batches(1, 1), 0.5)
    (m,), (q,) = system.matrices, system.offsets
    assert m[0, 0] == pytest.approx(0.5, rel=1e-15)
    # q = eta * (a^2 + lam)^{-1} a y = 0.5 * (2)^{-1} * 2 = 0.5
    assert q[0] == pytest.approx(0.5, rel=1e-15)


def test_newton_eta_one_jumps_to_batch_minimizer():
    rng = np.random.default_rng(8)
    data = Dataset(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, size=4))
    scheme = partition_batches(4, 2)
    system = build_stoch_newton_ifs(LeastSquares(lam=0.7), data, scheme, 1.0)
    for i, (m, q) in enumerate(zip(system.matrices, system.offsets)):
        np.testing.assert_allclose(m, np.zeros((2, 2)), atol=1e-15)
        A = data.features[scheme.batches[i]]
        y = data.targets[scheme.batches[i]]
        H = A.T @ A / 2 + 0.7 * np.eye(2)
        np.testing.assert_allclose(q, np.linalg.solve(H, A.T @ y / 2), atol=1e-12)


def test_newton_jacobian_norm_is_one_minus_eta():
    rng = np.random.default_rng(9)
    data = Dataset(rng.uniform(-1, 1, size=(6, 2)), rng.uniform(-1, 1, size=6))
    system = build_stoch_newton_ifs(LeastSquares(lam=0.2), data, partition_batches(6, 2), 0.25)
    for lipschitz in contractivity_report(system).lipschitz:
        assert lipschitz == pytest.approx(0.75, rel=1e-9)


def test_newton_requires_least_squares_and_positive_lam():
    data = Dataset([[1.0]], [1.0])
    with pytest.raises(ConfigError):
        build_stoch_newton_ifs(Logistic(lam=1.0), data, partition_batches(1, 1), 0.5)
    with pytest.raises(ConfigError):
        build_stoch_newton_ifs(LeastSquares(lam=0.0), data, partition_batches(1, 1), 0.5)


def test_newton_coupled_chains_contract_geometrically():
    """Same seed, different w0: the gap shrinks by exactly |1-eta| per step."""
    rng = np.random.default_rng(10)
    data = Dataset(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, size=4))
    system = build_stoch_newton_ifs(LeastSquares(lam=0.5), data, partition_batches(4, 1), 0.6)
    a = iterate(system, np.array([5.0, -3.0]), 40, seed=11)
    b = iterate(system, np.array([-1.0, 2.0]), 40, seed=11)
    gaps = np.linalg.norm(a.states - b.states, axis=1)
    # beyond ~20 steps the gap is below 1e-7 and rounding noise dominates
    ratios = gaps[1:21] / gaps[:20]
    np.testing.assert_allclose(ratios, np.full(20, 0.4), rtol=1e-6)


# ---------------------------------------------------------------------------
# subset mode


def test_subset_iteration_shapes_and_determinism():
    rng = np.random.default_rng(12)
    data = Dataset(rng.uniform(-1, 1, size=(6, 2)), rng.uniform(-1, 1, size=6))
    problem = LeastSquares(lam=0.5)
    a = iterate_subset_sgd(problem, data, 2, 0.1, np.zeros(2), 100, seed=13)
    b = iterate_subset_sgd(problem, data, 2, 0.1, np.zeros(2), 100, seed=13)
    assert a.states.shape == (101, 2)
    assert a.indices.size == 0
    np.testing.assert_array_equal(a.states, b.states)


def test_subset_sampling_matches_partition_when_b_equals_n():
    """b = n leaves a single possible batch, so subset SGD is full-batch GD."""
    rng = np.random.default_rng(14)
    data = Dataset(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, size=4))
    problem = LeastSquares(lam=0.5)
    scheme = partition_batches(4, 4)
    system = build_sgd_ifs(problem, data, scheme, 0.2)
    a = iterate(system, np.array([1.0, 1.0]), 50, seed=15)
    b = iterate_subset_sgd(problem, data, 4, 0.2, np.array([1.0, 1.0]), 50, seed=99)
    np.testing.assert_allclose(a.states, b.states, atol=1e-12)


def test_subset_sampling_matches_reference_loop():
    """b < n: the drawn subset maps reproduce w - eta * grad(...) bit for bit."""
    rng = np.random.default_rng(18)
    data = Dataset(rng.uniform(-1, 1, size=(7, 3)), np.where(rng.uniform(size=7) < 0.5, -1.0, 1.0))
    problem, b, eta = Logistic(lam=0.1), 3, 0.3
    burn_in, n_samples, thin, seed = 20, 60, 2, 19
    w0 = np.array([0.1, -0.2, 0.3])
    cloud = sample_invariant_subset(problem, data, b, eta, w0, burn_in, n_samples, thin, seed)

    gen = Xoshiro256PP(seed)
    w = w0
    expected = []
    for t in range(1, burn_in + n_samples * thin + 1):
        w = w - eta * grad(problem, w, data, gen.subset_without_replacement(data.n, b))
        if t > burn_in and (t - burn_in) % thin == 0:
            expected.append(w)
    assert np.array_equal(cloud.points, np.array(expected))


def subset_grad_loop(problem, data, b, eta, w0, seed, record_from, thin, n_record):
    """What a plain ``grad`` loop records on subset mode's draws, one per step."""
    gen = Xoshiro256PP(seed)
    w, out = w0, []
    for t in range(1, record_from + n_record * thin + 1):
        w = w - eta * grad(problem, w, data, gen.subset_without_replacement(data.n, b))
        if t > record_from and (t - record_from) % thin == 0:
            out.append(w)
    return np.array(out)


# the steps in one default row-gather chunk of the subset chains below (d = 2, b = 3)
SUBSET_CHUNK = ifs.ROW_CHUNK_BYTES // (8 * 3 * 3)


@pytest.mark.parametrize("chunk_bytes", [1, ifs.ROW_CHUNK_BYTES])
def test_subset_mode_across_row_chunks_matches_the_grad_loop(monkeypatch, chunk_bytes):
    """Subset chains of T steps past one default row chunk, their rows gathered
    one step a chunk (ROW_CHUNK_BYTES = 1) or in default chunks, record the
    plain ``grad`` loop on the same draws bit for bit: every state, and every
    2nd one from 5 steps before the first default chunk boundary on."""
    monkeypatch.setattr(ifs, "ROW_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(21)
    data = Dataset(rng.uniform(-1, 1, size=(9, 2)), np.where(rng.uniform(size=9) < 0.5, -1.0, 1.0))
    problem, b, eta, seed, w0 = Logistic(lam=0.1), 3, 0.3, 22, np.array([0.2, -0.4])
    T = SUBSET_CHUNK + 7
    traj = iterate_subset_sgd(problem, data, b, eta, w0, T, seed)
    assert np.array_equal(traj.states[1:], subset_grad_loop(problem, data, b, eta, w0, seed, 0, 1, T))
    burn_in = SUBSET_CHUNK - 5
    cloud = sample_invariant_subset(problem, data, b, eta, w0, burn_in, 6, 2, seed)
    expected = subset_grad_loop(problem, data, b, eta, w0, seed, burn_in, 2, 6)
    assert cloud.points.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


NAN_START = np.array([math.nan, 0.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, d: iterate_subset_sgd(p, d, 2, 0.1, np.zeros(2), -1, 0), "k must be nonnegative"),
        (lambda p, d: iterate_subset_sgd(p, d, 0, 0.1, np.zeros(2), 5, 0), "need 0 < b <= n"),
        (lambda p, d: iterate_subset_sgd(p, d, 7, 0.1, np.zeros(2), 5, 0), "need 0 < b <= n"),
        (lambda p, d: iterate_subset_sgd(p, d, 2, 0.0, np.zeros(2), 5, 0), "eta must be positive"),
        (lambda p, d: sample_invariant_subset(p, d, 2, -0.1, np.zeros(2), 5, 5), "eta must be positive"),
        (lambda p, d: sample_invariant_subset(p, d, 0, 0.1, np.zeros(2), 5, 5), "need 0 < b <= n"),
        (lambda p, d: iterate_subset_sgd(p, d, 2, 0.1, np.zeros(3), 5, 0), "w0 has shape"),
        (lambda p, d: sample_invariant_subset(p, d, 2, 0.1, np.zeros(1), 5, 5), "w0 has shape"),
        (lambda p, d: iterate(build_sgd_ifs(p, d, partition_batches(6, 2), 0.1), np.zeros(3), 5, 0),
         "w0 has shape"),
        (lambda p, d: sample_invariant(build_sgd_ifs(p, d, partition_batches(6, 2), 0.1), np.zeros(3), 5, 5),
         "w0 has shape"),
        (lambda p, d: sample_invariant(build_sgd_ifs(LeastSquares(), d, partition_batches(6, 2), 0.1),
                                       np.zeros((1, 2)), 5, 5), "w0 has shape"),
        (lambda p, d: lyapunov_exponent(build_sgd_ifs(p, d, partition_batches(6, 2), 0.1), np.zeros(3), 1000),
         "w0 has shape"),
        # a NaN start used to be stepped and reported as a diverging chain
        (lambda p, d: iterate(build_sgd_ifs(p, d, partition_batches(6, 2), 0.1), NAN_START, 5, 0),
         "w0 has non-finite"),
        (lambda p, d: sample_invariant(build_sgd_ifs(p, d, partition_batches(6, 2), 0.1), NAN_START, 5, 5),
         "w0 has non-finite"),
        (lambda p, d: sample_invariant(build_sgd_ifs(LeastSquares(), d, partition_batches(6, 2), 0.1),
                                       NAN_START, 5, 5), "w0 has non-finite"),
        (lambda p, d: lyapunov_exponent(build_sgd_ifs(p, d, partition_batches(6, 2), 0.1), NAN_START, 1000),
         "w0 has non-finite"),
        (lambda p, d: iterate_subset_sgd(p, d, 2, 0.1, NAN_START, 5, 0), "w0 has non-finite"),
    ],
)
def test_chain_inputs_are_checked_before_any_step(call, message):
    rng = np.random.default_rng(20)
    data = Dataset(rng.uniform(-1, 1, size=(6, 2)), np.array([1.0, -1.0] * 3))
    with pytest.raises(ConfigError, match=message):
        call(Logistic(lam=0.1), data)


BAD_BATCHES = [
    ([-1], r"batch 0, entry 0 is row -1, but the dataset has rows 0\.\.1"),  # used to read row 1
    ([0.5], r"batch 0, entry 0 is 0\.5: a batch holds integer row indices, not float64"),
    ([5], r"batch 0, entry 0 is row 5, but the dataset has rows 0\.\.1"),
]
TABLE_CONSUMERS = {
    "sgd": lambda data, scheme: build_sgd_ifs(LeastSquares(lam=0.1), data, scheme, 0.1),
    "precond": lambda data, scheme: build_precond_sgd_ifs(
        LeastSquares(lam=0.1), data, scheme, 0.1, PreconditionerSpec(np.array([[2.0]]), (2.0, 2.0))),
    "newton": lambda data, scheme: build_stoch_newton_ifs(LeastSquares(lam=0.1), data, scheme, 0.1),
    "norm_envelopes": lambda data, scheme: norm_envelopes(LeastSquares(lam=0.1), data, scheme, 0.1),
}


@pytest.mark.parametrize("consumer", list(TABLE_CONSUMERS))
@pytest.mark.parametrize("batch, message", BAD_BATCHES)
def test_least_squares_consumers_check_the_batch_table(consumer, batch, message):
    """The affine builders and ``norm_envelopes`` read a scheme's batch table
    only through ``problems.require_batch_table``: a negative, fractional or
    out-of-range row is a ConfigError, not a silently read row or a bare
    IndexError.  The good table passes."""
    data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ConfigError, match=message):
        TABLE_CONSUMERS[consumer](data, BatchScheme(np.array([batch]), np.array([1.0])))
    TABLE_CONSUMERS[consumer](data, BatchScheme(np.array([[1]]), np.array([1.0])))


def test_subset_invariant_cloud():
    rng = np.random.default_rng(16)
    data = Dataset(rng.uniform(-1, 1, size=(6, 3)), rng.uniform(-1, 1, size=6))
    cloud = sample_invariant_subset(
        LeastSquares(lam=1.0), data, 2, 0.1, np.zeros(3), burn_in=100, n_samples=400, seed=17
    )
    assert cloud.points.shape == (400, 3)
    assert np.isfinite(cloud.points).all()
    # the bytes of the cloud the per-step subset draw loop sampled
    assert hashlib.sha256(cloud.points.tobytes()).hexdigest() == (
        "d18f4c95b621f9f1271a3a0a68f0c632d5cc908dbe981fc9a861d44b9d811ad5"
    )


def test_thinned_subset_cloud_pin():
    """A subset-mode logistic cloud recorded every 2nd step, pinned to its bytes."""
    rng = np.random.default_rng(14)
    A = rng.normal(size=(10, 2))
    cloud = sample_invariant_subset(Logistic(lam=0.2), Dataset(A, np.where(A[:, 0] > 0, 1.0, -1.0)), 3, 0.4,
                                    np.array([0.2, -0.1]), 50, 300, 2, 9)
    assert hashlib.sha256(cloud.points.tobytes()).hexdigest() == (
        "a0ec1e767cd793ef844bc57d628cf59c81f08bf67c7e2b370d2bfe238b64a8c7"
    )


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 10_000),
)
def test_partition_covers_every_index(n, seed):
    divisors = [b for b in range(1, n + 1) if n % b == 0]
    b = divisors[seed % len(divisors)]
    scheme = partition_batches(n, b, shuffle=seed % 2 == 1, seed=seed)
    flat = np.concatenate(scheme.batches)
    assert sorted(flat.tolist()) == list(range(n))
    assert all(len(batch) == b for batch in scheme.batches)
    assert np.allclose(scheme.probs.sum(), 1.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sgd_maps_agree_with_gradient_step(seed):
    problem, dataset, w, _ = make_problem_config("least_squares", seed)
    divisors = [b for b in range(1, dataset.n + 1) if dataset.n % b == 0]
    b = divisors[seed % len(divisors)]
    scheme = partition_batches(dataset.n, b)
    system = build_sgd_ifs(problem, dataset, scheme, 0.05)
    for i, batch in enumerate(scheme.batches):
        step = w - 0.05 * grad(problem, w, dataset, batch)
        np.testing.assert_allclose(system.apply(i, w), step, atol=1e-12)
