"""Power iteration, the R estimator, and the generalization bounds."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem_config
from ifslab import complexity, problems
from ifslab.complexity import (
    ComplexityConfig,
    GeneralizationInputs,
    PowerIterConfig,
    bound_corollary1,
    bound_theorem1,
    dense_jacobian_oracle,
    estimate_R,
    generalization_gap,
    spectral_norm_power_iter,
)
from ifslab.dimension import RamsBound
from ifslab.errors import (
    ConfigError,
    DimensionTooLarge,
    NonContractiveEstimate,
    ZeroMeanLogNorm,
    ZeroOperator,
)
from ifslab.ifs import SampleCloud, norm_rounding
from ifslab.optimizers import SubsetScheme, partition_batches
from ifslab.problems import (
    Dataset,
    LeastSquares,
    Logistic,
    OneHiddenLayer,
    jacobian_apply,
    mean_loss,
    param_dim,
)
from ifslab.rng import Xoshiro256PP, child_seed, draw_indices


def cloud_of(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return SampleCloud(points=pts, burn_in=0, thin=1, seed=0)


# ---------------------------------------------------------------------------
# spectral_norm_power_iter


def test_power_iter_diagonal():
    D = np.diag([0.9, 0.8, 0.7])
    res = spectral_norm_power_iter(lambda v: D @ v, 3)
    assert res.converged
    assert res.value == pytest.approx(0.9, rel=1e-5)


def test_power_iter_negative_identity():
    res = spectral_norm_power_iter(lambda v: -v, 4)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_power_iter_opposite_sign_tie():
    # eigenvalues +1 and -1: the norm estimate still converges to 1
    D = np.diag([1.0, -1.0])
    res = spectral_norm_power_iter(lambda v: D @ v, 2)
    assert res.value == pytest.approx(1.0, rel=1e-6)


def test_power_iter_zero_operator():
    with pytest.raises(ZeroOperator):
        spectral_norm_power_iter(lambda v: np.zeros_like(v), 3)


def test_power_iter_nonconverged_flag():
    D = np.diag([1.0, 0.9999])
    res = spectral_norm_power_iter(
        lambda v: D @ v, 2, PowerIterConfig(tol=1e-14, max_iters=3)
    )
    assert not res.converged
    assert res.iterations == 3


def test_power_iter_seed_determinism():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    A = Q @ np.diag([2.0, 1.5, 1.0, 0.5, 0.2, 0.1]) @ Q.T
    a = spectral_norm_power_iter(lambda v: A @ v, 6, PowerIterConfig(seed=3))
    b = spectral_norm_power_iter(lambda v: A @ v, 6, PowerIterConfig(seed=3))
    assert a.value == b.value and a.iterations == b.iterations


def test_power_iter_matches_dense_eigensolver():
    rng = np.random.default_rng(1)
    for trial in range(10):
        d = int(rng.integers(2, 21))
        eigs = np.sort(rng.uniform(0.1, 2.0, size=d))
        eigs[-1] = eigs[-2] + max(1e-2, eigs[-2] * 0.05)  # enforce a spectral gap
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        A = Q @ np.diag(eigs) @ Q.T
        res = spectral_norm_power_iter(
            lambda v: A @ v, d, PowerIterConfig(tol=1e-10, max_iters=10_000)
        )
        dense = float(np.max(np.abs(np.linalg.eigvalsh(A))))
        assert res.converged
        assert res.value == pytest.approx(dense, rel=1e-6)


# ---------------------------------------------------------------------------
# dense_jacobian_oracle


def test_dense_oracle_least_squares_diagonal():
    data = Dataset([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0])
    batch = np.array([0, 1])
    J, norm = dense_jacobian_oracle(
        LeastSquares(lam=0.2), np.zeros(2), data, batch, 0.1
    )
    # H = lam I + A^T A / 2 = diag(0.7, 0.7)... columns give I - 0.1 * diag(0.7)
    np.testing.assert_allclose(J, np.diag([0.93, 0.93]), atol=1e-12)
    assert norm == pytest.approx(0.93, rel=1e-12)


def test_dense_oracle_example_values():
    # singleton batch a=(1,0), y=1, lam=0.5, eta=0.1:
    # J = I - 0.1 (0.5 I + a a^T) = diag(0.85, 0.95)
    data = Dataset([[1.0, 0.0]], [1.0])
    J, norm = dense_jacobian_oracle(
        LeastSquares(lam=0.5), np.zeros(2), data, np.array([0]), 0.1
    )
    np.testing.assert_allclose(J, np.diag([0.85, 0.95]), atol=1e-12)
    assert norm == pytest.approx(0.95, rel=1e-12)


def test_dense_oracle_eta_zero_is_identity():
    problem, dataset, w, batch = make_problem_config("one_hidden", seed=4)
    J, norm = dense_jacobian_oracle(problem, w, dataset, batch, 0.0)
    np.testing.assert_allclose(J, np.eye(param_dim(problem, dataset)), atol=1e-12)
    assert norm == pytest.approx(1.0, rel=1e-12)


def test_dense_oracle_dimension_cap():
    rng = np.random.default_rng(2)
    data = Dataset(rng.normal(size=(3, 65)), rng.normal(size=3))
    with pytest.raises(DimensionTooLarge):
        dense_jacobian_oracle(LeastSquares(lam=0.1), np.zeros(65), data, np.array([0]), 0.1)


# ---------------------------------------------------------------------------
# estimate_R


def quadratic_pair_setup():
    data = Dataset([[1.0], [1.0]], [0.0, 1.0])
    return LeastSquares(lam=0.0), data, partition_batches(2, 1)


def test_estimate_r_cantor_constant_jacobian():
    problem, data, scheme = quadratic_pair_setup()
    cloud = cloud_of(np.linspace(0, 1, 300))
    est = estimate_R(problem, data, scheme, 2.0 / 3.0, cloud, ComplexityConfig(n_w=8, n_u=6))
    assert est.inverse_R == pytest.approx(math.log(1.0 / 3.0), rel=1e-12)
    assert est.R == pytest.approx(1.0 / math.log(1.0 / 3.0), rel=1e-12)
    assert est.R == pytest.approx(-0.9102, abs=1e-4)
    assert est.converged_fraction == 1.0


def test_estimate_r_two_batch_limit():
    """Batch Hessians 1 and 2 at eta=0.1: lognorms are ln0.9 / ln0.8 and the
    mean tends to their average as the batch draw count grows."""
    data = Dataset([[1.0], [math.sqrt(2.0)]], [0.0, 0.0])
    scheme = partition_batches(2, 1)
    cloud = cloud_of(np.zeros(64))
    est = estimate_R(
        LeastSquares(lam=0.0), data, scheme, 0.1, cloud, ComplexityConfig(n_w=4, n_u=4000)
    )
    exact = (math.log(0.9) + math.log(0.8)) / 2.0
    assert est.inverse_R == pytest.approx(exact, abs=5e-3)
    assert est.R == pytest.approx(1.0 / exact, abs=0.25)
    # every cell is exactly one of the two closed-form lognorms
    cells = est.per_sample_lognorms
    match = np.isclose(cells, math.log(0.9), atol=1e-12) | np.isclose(
        cells, math.log(0.8), atol=1e-12
    )
    assert match.all()
    # and the mean is the drawn mixture of those two values, bit for bit
    draws = draw_indices(Xoshiro256PP(child_seed(0, 0)), scheme.probs, 4000)
    k = np.bincount(draws, minlength=2)
    mix = (k[0] * math.log(0.9) + k[1] * math.log(0.8)) / 4000.0
    assert est.inverse_R == pytest.approx(mix, rel=1e-12)


def test_complexity_config_rejects_a_power_iteration_seed():
    # each R-table cell seeds its power iteration from a child seed of
    # ComplexityConfig.seed, so a power_iter seed would be silently ignored
    with pytest.raises(ConfigError, match="complexity.power_iter.seed is never read.*complexity.seed"):
        ComplexityConfig(power_iter=PowerIterConfig(seed=3))
    assert ComplexityConfig(seed=3, power_iter=PowerIterConfig(tol=1e-8)).seed == 3


def test_estimate_r_eta_scaling_linearity():
    data = Dataset([[1.0]], [0.0])
    scheme = partition_batches(1, 1)
    cloud = cloud_of(np.zeros(16))
    cfg = ComplexityConfig(n_w=4, n_u=4)
    for eta in (0.3, 0.6, 0.9):
        est = estimate_R(LeastSquares(lam=0.0), data, scheme, eta, cloud, cfg)
        np.testing.assert_allclose(
            est.per_sample_lognorms, math.log(abs(1.0 - eta)), atol=1e-12
        )


def test_estimate_r_matches_dense_oracle_on_mlp():
    problem, dataset, _, _ = make_problem_config("one_hidden", seed=11)
    scheme = partition_batches(dataset.n, 1)
    rng = np.random.default_rng(12)
    dim = param_dim(problem, dataset)
    cloud = cloud_of(rng.normal(scale=0.4, size=(40, dim)))
    W = cloud.points[(np.arange(5, dtype=np.int64) * 40) // 5]
    draws = draw_indices(Xoshiro256PP(child_seed(0, 0)), scheme.probs, 6)
    # near eta=0 the top eigenvalues of I - eta*H nearly tie; exact spectra
    # must match the column-by-column oracle there as well as at a large step
    for eta in (2.0, 0.05):
        est = estimate_R(problem, dataset, scheme, eta, cloud, ComplexityConfig(n_w=5, n_u=6))
        assert est.converged_fraction == 1.0
        for i in range(5):
            for j in range(6):
                _, dense = dense_jacobian_oracle(
                    problem, W[i], dataset, scheme.batches[draws[j]], eta
                )
                assert math.exp(est.per_sample_lognorms[i, j]) == pytest.approx(dense, rel=1e-10)


def test_estimate_r_zero_jacobian_raises():
    # J = 1 - eta * a^2 = 0 at eta = 1: the log norm is undefined
    data = Dataset([[1.0]], [0.0])
    scheme = partition_batches(1, 1)
    with pytest.raises(ZeroOperator):
        estimate_R(
            LeastSquares(lam=0.0), data, scheme, 1.0, cloud_of(np.zeros(4)),
            ComplexityConfig(n_w=2, n_u=2),
        )


def test_estimate_r_power_iteration_above_dense_cap(monkeypatch):
    """dim 65 > DENSE_ORACLE_MAX_DIM: one power iteration per cell.

    The top eigenvalue of J is 1 - eta*lam = 0.9, on the null space of the
    two batch rows; rows of squared norm about 2 put the other two near 0.4."""
    rng = np.random.default_rng(18)
    data = Dataset(rng.uniform(-0.3, 0.3, size=(4, 65)), rng.uniform(-1, 1, size=4))
    scheme = partition_batches(4, 2)
    cloud = cloud_of(rng.normal(size=(20, 65)))
    calls = []
    real = complexity.spectral_norm_power_iter
    monkeypatch.setattr(
        complexity, "spectral_norm_power_iter", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    est = estimate_R(
        LeastSquares(lam=0.2), data, scheme, 0.5, cloud, ComplexityConfig(n_w=3, n_u=4)
    )
    assert len(calls) == 12
    assert np.isfinite(est.R)
    assert est.converged_fraction == 1.0
    np.testing.assert_allclose(est.per_sample_lognorms, math.log(0.9), rtol=1e-5)


def test_estimate_r_determinism_and_json():
    problem, data, scheme = quadratic_pair_setup()
    cloud = cloud_of(np.linspace(0, 1, 50))
    cfg = ComplexityConfig(n_w=6, n_u=5, seed=42)
    a = estimate_R(problem, data, scheme, 0.5, cloud, cfg)
    b = estimate_R(problem, data, scheme, 0.5, cloud, cfg)
    assert a.R == b.R
    np.testing.assert_array_equal(a.per_sample_lognorms, b.per_sample_lognorms)
    blob = a.to_json_dict()
    assert set(blob) == {"R", "inverse_R", "n_w", "n_u", "converged_fraction"}


def test_estimate_r_zero_mean_lognorm():
    # |1 - eta * 4| = 1 exactly at eta = 0.5: every factor has unit norm
    data = Dataset([[2.0]], [0.0])
    scheme = partition_batches(1, 1)
    with pytest.raises(ZeroMeanLogNorm, match=r"rounding bound dim \* eps \(2\.22e-16\)"):
        estimate_R(
            LeastSquares(lam=0.0),
            data,
            scheme,
            0.5,
            cloud_of(np.zeros(8)),
            ComplexityConfig(n_w=2, n_u=2),
        )


def test_estimate_r_zero_test_is_the_norm_rounding_bound():
    """A mean log norm of 2 eps, between the rounding bound eps at dim 1 and
    the 1e-12 that estimate_R used to apply, is an R, as in rams_ratio."""
    # float(sqrt(2))**2 = 2 + 2 eps: |1 - 1.0 * a^2| = 1 + 2 eps, log 2 eps
    data = Dataset([[math.sqrt(2.0)]], [0.0])
    est = estimate_R(
        LeastSquares(lam=0.0),
        data,
        partition_batches(1, 1),
        1.0,
        cloud_of(np.zeros(8)),
        ComplexityConfig(n_w=2, n_u=2),
    )
    eps = np.finfo(float).eps
    assert norm_rounding(1) == eps
    assert est.inverse_R == pytest.approx(2 * eps, rel=1e-12)
    assert est.R == 1.0 / est.inverse_R


def test_estimate_r_cloud_too_small():
    problem, data, scheme = quadratic_pair_setup()
    with pytest.raises(ConfigError):
        estimate_R(problem, data, scheme, 0.5, cloud_of(np.zeros(3)), ComplexityConfig(n_w=10, n_u=2))


@pytest.mark.parametrize("n_w, points, message", [
    (0, np.zeros((10, 1)), "n_w must be a positive integer"),
    (-1, np.zeros((10, 1)), "n_w must be a positive integer"),
    (11, np.zeros((10, 1)), "cloud has 10 points; need at least n_w=11"),
    (4, np.zeros((10, 2)), "cloud dimension 2 != parameter dimension 1"),
])
def test_log_norm_table_rejects_bad_n_w_and_cloud(n_w, points, message):
    problem, data, scheme = quadratic_pair_setup()
    with pytest.raises(ConfigError, match=message):
        complexity.log_norm_table(problem, data, scheme.batches, 0.5, points, n_w, PowerIterConfig(), 0)


def reference_log_norm_table(problem, data, batches, eta, points, n_w, solve=None):
    """The exact table cell by cell: one ``jacobian_apply`` on the identity
    and one ``stacked_spectral_norms`` per (point, batch)."""
    W = points[(np.arange(n_w, dtype=np.int64) * points.shape[0]) // n_w]
    eye = np.eye(W.shape[1])
    table = np.empty((n_w, len(batches)))
    for i in range(n_w):
        for j, batch in enumerate(batches):
            J = jacobian_apply(problem, W[i], data, batch, eta, eye, solve)
            table[i, j] = np.log(complexity.stacked_spectral_norms(J[None], solve is None)[0])
    return table


def table_problem(kind, d):
    rng = np.random.default_rng(7 * d)
    if kind == "logistic":
        data = Dataset(rng.normal(size=(24, d)), rng.choice([-1.0, 1.0], size=24))
        return Logistic(lam=0.3), data
    data = Dataset(rng.normal(size=(24, d)), rng.normal(size=24))
    hidden = 64 // d if d > 8 else 3
    return OneHiddenLayer(lam=0.01, out_weights=tuple(rng.uniform(-2, 2, hidden)), activation="tanh"), data


def chunk_cap(problem, data, b, cells):
    """A TABLE_CHUNK_BYTES that gives ``cells`` cells per chunk."""
    dim = param_dim(problem, data)
    hidden = problem.hidden if isinstance(problem, OneHiddenLayer) else 1
    return cells * 8 * dim * max(dim, b * hidden)


@pytest.mark.parametrize("kind, d", [("logistic", 2), ("logistic", 64), ("one_hidden", 3), ("one_hidden", 16)])
@pytest.mark.parametrize("cells", [None, 1, 4, 7])
def test_log_norm_table_is_bit_equal_to_the_per_cell_loop(monkeypatch, kind, d, cells):
    """Every cell's bits match the per-cell loop, in one chunk (None) or in
    chunks of 1, 4 or 7 cells, 4 and 7 not dividing the 5 x 6 table; each
    chunk is one ``problems.hvp`` call.  d = 64 and d = 16 with 4 hidden
    units are dim 64, the largest exact dimension."""
    problem, data = table_problem(kind, d)
    dim = param_dim(problem, data)
    rng = np.random.default_rng(d)
    batches = [rng.choice(24, size=4, replace=False) for _ in range(6)]
    points = rng.normal(scale=0.5, size=(17, dim))
    expected = reference_log_norm_table(problem, data, batches, 0.4, points, 5)
    if cells is not None:
        monkeypatch.setattr(complexity, "TABLE_CHUNK_BYTES", chunk_cap(problem, data, 4, cells))
    calls = []
    real = problems.hvp
    monkeypatch.setattr(problems, "hvp", lambda *a: calls.append(a[1].shape[0]) or real(*a))
    table, converged = complexity.log_norm_table(
        problem, data, batches, 0.4, points, 5, PowerIterConfig(), 0
    )
    assert table.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert converged == 30
    chunk = min(30, complexity.TABLE_CHUNK_BYTES // chunk_cap(problem, data, 4, 1))
    assert chunk == (cells or (8 if dim == 64 else 30))
    assert calls == [chunk] * (30 // chunk) + [30 % chunk] * (30 % chunk > 0)


def test_preconditioned_log_norm_table_is_bit_equal_to_the_per_cell_loop(monkeypatch):
    from ifslab.optimizers import PreconditionerSpec

    problem, data = table_problem("logistic", 3)
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    spec = PreconditionerSpec(Q @ np.diag([1.0, 2.0, 3.0]) @ Q.T, (1.0 - 1e-9, 3.0 + 1e-9))
    batches = [rng.choice(24, size=4, replace=False) for _ in range(6)]
    points = rng.normal(size=(11, 3))
    expected = reference_log_norm_table(problem, data, batches, 0.4, points, 5, spec.solve)
    monkeypatch.setattr(complexity, "TABLE_CHUNK_BYTES", chunk_cap(problem, data, 4, 7))
    table, _ = complexity.log_norm_table(
        problem, data, batches, 0.4, points, 5, PowerIterConfig(), 0, spec.solve
    )
    assert table.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def rams_systems():
    """Problem-backed systems and the mean log Jacobian ``rams_ratio`` gave
    them with one ``jacobian_norms`` call per cloud point (n_w = 23)."""
    from ifslab.optimizers import PreconditionerSpec, build_precond_sgd_ifs, build_sgd_ifs

    rng = np.random.default_rng(41)
    data = Dataset(rng.uniform(-1, 1, size=(12, 3)), rng.choice([-1.0, 1.0], size=12))
    yield build_sgd_ifs(Logistic(lam=0.5), data, partition_batches(12, 3), 0.6), "-0x1.762263c9a4752p-2"
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    spec = PreconditionerSpec(Q @ np.diag([1.0, 2.0, 3.0]) @ Q.T, (1.0 - 1e-9, 3.0 + 1e-9))
    yield (
        build_precond_sgd_ifs(Logistic(lam=0.5), data, partition_batches(12, 3), 0.6, spec),
        "-0x1.f1eb53a85f6d0p-4",
    )
    mlp = Dataset(rng.normal(size=(16, 3)), rng.normal(size=16))
    problem = OneHiddenLayer(lam=0.5, out_weights=(0.8, -0.4, 0.3), activation="tanh")
    yield build_sgd_ifs(problem, mlp, partition_batches(16, 4), 0.3), "-0x1.bdb4faac9cd83p-4"


@pytest.mark.parametrize("cells", [None, 5])
def test_rams_ratio_mean_log_jacobian_is_unchanged(monkeypatch, cells):
    from ifslab.dimension import rams_ratio
    from ifslab.ifs import sample_invariant

    for system, expected in rams_systems():
        if cells is not None:
            b = system.batches.shape[1]
            monkeypatch.setattr(complexity, "TABLE_CHUNK_BYTES", chunk_cap(system.problem, system.dataset, b, cells))
        cloud = sample_invariant(system, np.zeros(system.dim), 50, 40, seed=5)
        assert rams_ratio(system, cloud, n_w=23).mean_log_jacobian.hex() == expected


def test_zero_cell_in_mid_chunk_is_named(monkeypatch):
    """Logistic at w = 0 has curvature 1/4: a row of norm 2, lam = 0 and
    eta = 1 give J = 0 exactly, at cloud point 0 only.  It is cell (row 2,
    batch 1), flat cell 7, in the middle of the chunk of cells 5..9."""
    data = Dataset([[1.0], [1.0], [2.0]], [1.0, -1.0, 1.0])
    batches = [np.array([0]), np.array([2]), np.array([1])]
    points = np.array([[1.0], [-1.0], [0.0], [0.5]])
    monkeypatch.setattr(complexity, "TABLE_CHUNK_BYTES", chunk_cap(Logistic(lam=0.0), data, 1, 5))
    with pytest.raises(ZeroOperator, match=r"cell \(row 2, batch 1\) is numerically zero \(norm 0\.000e\+00\)"):
        complexity.log_norm_table(Logistic(lam=0.0), data, batches, 1.0, points, 4, PowerIterConfig(), 0)
    points[2] = 0.25
    table, _ = complexity.log_norm_table(Logistic(lam=0.0), data, batches, 1.0, points, 4, PowerIterConfig(), 0)
    assert np.isfinite(table).all()


def test_jacobian_norms_rejects_batches_of_two_lengths_and_points_of_another_dimension():
    problem, data, _ = quadratic_pair_setup()
    with pytest.raises(ConfigError, match=r"batches of one length, got lengths \[1, 2\]"):
        complexity.jacobian_norms(
            problem, data, [np.array([0]), np.array([0, 1])], 0.5, np.zeros(1), PowerIterConfig(), [0, 1]
        )
    with pytest.raises(ConfigError, match="point dimension 2 != parameter dimension 1"):
        complexity.jacobian_norms(problem, data, [np.array([0])], 0.5, np.zeros((3, 2)), PowerIterConfig(), [0])


def subset_mode_setup():
    rng = np.random.default_rng(13)
    data = Dataset(rng.uniform(-1, 1, size=(6, 2)), rng.uniform(-1, 1, size=6))
    return data, cloud_of(rng.normal(size=(30, 2)))


def test_estimate_r_subset_mode():
    data, cloud = subset_mode_setup()
    est = estimate_R(
        LeastSquares(lam=0.5), data, SubsetScheme(6, 2), 0.1, cloud, ComplexityConfig(n_w=4, n_u=8)
    )
    assert np.isfinite(est.R)
    assert est.inverse_R < 0.0  # small eta: contractive on average


@pytest.mark.parametrize("scheme, pinned", [
    (SubsetScheme(6, 2), "-0x1.1f6d5b46edba6p-4"),
    (partition_batches(6, 2, seed=5, shuffle=True), "-0x1.2fcf852d3fc4ep-4"),
])
def test_estimate_r_is_pinned(scheme, pinned):
    """1/R bit for bit as estimated from a list of per-draw batch arrays."""
    data, cloud = subset_mode_setup()
    est = estimate_R(LeastSquares(lam=0.5), data, scheme, 0.1, cloud, ComplexityConfig(n_w=4, n_u=8))
    assert est.inverse_R.hex() == pinned


@pytest.mark.parametrize("batches, message", [
    ([[-1]], "batch 0, entry 0 is row -1, but the dataset has rows 0..1"),
    ([[0], [0.5]], "batch 1, entry 0 is 0.5: a batch holds integer row indices"),
    (np.array([[1], [5]]), "batch 1, entry 0 is row 5, but the dataset has rows 0..1"),
    ([], "a batch table needs at least one batch"),
])
def test_jacobian_norms_rejects_bad_batch_entries(batches, message):
    """On rows [1], [2] a batch [-1] read row 1 (norm 0.6), [0.5] was cut to
    row 0 (0.9) and [5] ended in a bare IndexError."""
    data = Dataset([[1.0], [2.0]], [0.0, 0.0])
    with pytest.raises(ConfigError, match=re.escape(message)):
        complexity.jacobian_norms(LeastSquares(lam=0.0), data, batches, 0.1, np.zeros(1), PowerIterConfig(), [0])
    with pytest.raises(ConfigError, match=re.escape(message)):
        complexity.log_norm_table(LeastSquares(lam=0.0), data, batches, 0.1, np.zeros((4, 1)), 2,
                                  PowerIterConfig(), 0)


# ---------------------------------------------------------------------------
# generalization bounds


def std_inputs(**overrides):
    base = dict(nu=1.0, lipschitz=1.0, n=10_000, m_const=1.0, zeta=0.05)
    base.update(overrides)
    return GeneralizationInputs(**base)


def test_theorem1_hand_value():
    got = bound_theorem1(2.0, std_inputs())
    expected = 8.0 * math.sqrt(2.0 * math.log(1e4) ** 2 / 1e4 + math.log(260.0) / 1e4)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.0590, abs=1e-3)


def test_theorem1_zero_dimension_form():
    for zeta in (0.01, 0.05, 0.5):
        got = bound_theorem1(0.0, std_inputs(zeta=zeta))
        assert got == pytest.approx(8.0 * math.sqrt(math.log(13.0 / zeta) / 1e4), rel=1e-12)


def test_theorem1_monotone_in_dimension():
    vals = [bound_theorem1(d, std_inputs()) for d in (0.0, 0.5, 1.0, 2.0, 10.0, 43.7)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_theorem1_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        bound_theorem1(-1.0, std_inputs())
    with pytest.raises(ConfigError):
        std_inputs(zeta=1.0)
    with pytest.raises(ConfigError):
        std_inputs(n=0)
    with pytest.raises(ConfigError):
        std_inputs(nu=0.0)


def test_corollary1_hand_value():
    ratio = math.log(100.0) / math.log(1.0 / 0.9)
    rams = RamsBound(
        neg_entropy=math.log(100.0),
        mean_log_jacobian=math.log(0.9),
        ratio=ratio,
        n_mc_samples=1,
    )
    got = bound_corollary1(rams, std_inputs())
    assert got == pytest.approx(bound_theorem1(ratio, std_inputs()), rel=1e-15)
    assert got == pytest.approx(4.875, abs=1e-3)


def test_corollary1_cantor_value():
    rams = RamsBound(
        neg_entropy=math.log(2.0),
        mean_log_jacobian=math.log(1.0 / 3.0),
        ratio=math.log(2.0) / math.log(3.0),
        n_mc_samples=1,
    )
    got = bound_corollary1(rams, std_inputs())
    expected = 8.0 * math.sqrt(
        math.log(2.0) / math.log(3.0) * math.log(1e4) ** 2 / 1e4 + math.log(260.0) / 1e4
    )
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.6149, abs=1e-3)


def test_corollary1_noncontractive():
    rams = RamsBound(
        neg_entropy=math.log(2.0), mean_log_jacobian=0.1, ratio=-6.93, n_mc_samples=1
    )
    with pytest.raises(NonContractiveEstimate):
        bound_corollary1(rams, std_inputs())


@settings(max_examples=30, deadline=None)
@given(
    dim=st.floats(0.0, 100.0),
    nu=st.floats(0.1, 5.0),
    n=st.integers(10, 10**6),
)
def test_theorem1_positive_and_scales_with_nu(dim, nu, n):
    inputs = GeneralizationInputs(nu=nu, lipschitz=1.0, n=n, m_const=1.0, zeta=0.05)
    base = GeneralizationInputs(nu=1.0, lipschitz=1.0, n=n, m_const=1.0, zeta=0.05)
    assert bound_theorem1(dim, inputs) == pytest.approx(
        nu * bound_theorem1(dim, base), rel=1e-12
    )
    assert bound_theorem1(dim, inputs) > 0.0


# ---------------------------------------------------------------------------
# generalization_gap


def test_gap_identical_sets_is_zero():
    rng = np.random.default_rng(14)
    data = Dataset(rng.uniform(-1, 1, size=(8, 2)), rng.uniform(-1, 1, size=8))
    w = rng.normal(size=2)
    assert generalization_gap(LeastSquares(lam=0.3), data, data, w) == 0.0


def test_gap_permutation_invariant():
    rng = np.random.default_rng(15)
    feats = rng.uniform(-1, 1, size=(8, 2))
    ys = rng.uniform(-1, 1, size=8)
    perm = rng.permutation(8)
    train = Dataset(feats, ys)
    test = Dataset(feats[perm], ys[perm])
    rng2 = np.random.default_rng(16)
    other = Dataset(rng2.uniform(-1, 1, size=(6, 2)), rng2.uniform(-1, 1, size=6))
    w = rng.normal(size=2)
    problem = LeastSquares(lam=0.3)
    a = generalization_gap(problem, train, other, w)
    b = generalization_gap(problem, test, other, w)
    assert a == pytest.approx(b, rel=1e-12)


def test_gap_is_mean_loss_difference():
    rng = np.random.default_rng(17)
    train = Dataset(rng.uniform(-1, 1, size=(8, 2)), rng.uniform(-1, 1, size=8))
    test = Dataset(rng.uniform(-1, 1, size=(5, 2)), rng.uniform(-1, 1, size=5))
    w = rng.normal(size=2)
    problem = LeastSquares(lam=0.1)
    got = generalization_gap(problem, train, test, w)
    assert got == pytest.approx(
        abs(mean_loss(problem, w, train) - mean_loss(problem, w, test)), rel=1e-15
    )
    assert got >= 0.0
