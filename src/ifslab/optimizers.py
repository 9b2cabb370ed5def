"""Mini-batch schemes and the SGD-variant -> IFS builders.

``partition_batches`` splits {0..n-1} into blocks of size b (seeded shuffle
optional): a ``BatchScheme``, one (n/b, b) int64 table with a map per row.
``SubsetScheme`` is the without-replacement family of all C(n, b) b-subsets,
never enumerated (its map count is m_b = C(n, b) as a plain number).  Each
scheme's ``draw(gen, count)`` draws a (count, b) table of batches: a subset
chain's T steps up front, stepped in order by ``ifs.run_sgd``, and the batch
draws of ``complexity.estimate_R``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import problems as pr
from .errors import ConfigError, IndivisibleBatch, NotPositiveDefinite, SingularBatchHessian
from .ifs import (AffineSystem, IfsSystem, SampleCloud, SgdSystem, Trajectory, require_eta, require_map_probs,
                  require_schedule, require_start, run_chain, run_sgd)
from .rng import Xoshiro256PP, draw_indices

# --------------------------------------------------------------------------
# batch schemes


def require_batch_size(n: int, b: int) -> None:
    """Reject a batch size b outside 1..n for n data rows."""
    if not 0 < b <= n:
        raise ConfigError(f"need 0 < b <= n, got n={n}, b={b}")


@dataclass(frozen=True, eq=False)
class BatchScheme:
    """Row i of the C-contiguous (m, b) int64 table ``batches`` is batch i,
    drawn with probability ``probs[i]``.  The table's shape and dtype, and
    one probability per batch, are checked here; its rows are checked
    against a dataset where a chain or an R table meets one
    (``problems.require_batch_table``)."""

    batches: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "batches", pr.require_batch_shape(self.batches))
        object.__setattr__(self, "probs", require_map_probs(self.probs, len(self.batches)))

    def draw(self, gen: Xoshiro256PP, count: int) -> np.ndarray:
        """``count`` rows of ``batches`` drawn i.i.d. from ``probs`` off ``gen``."""
        return self.batches[draw_indices(gen, self.probs, count)]


@dataclass(frozen=True)
class SubsetScheme:
    """Every b-subset of {0..n-1}, C(n, b) maps, drawn uniformly."""

    n: int
    b: int

    def __post_init__(self):
        require_batch_size(self.n, self.b)

    def draw(self, gen: Xoshiro256PP, count: int) -> np.ndarray:
        """A (count, b) int64 table of sorted b-subsets drawn off ``gen`` in row order."""
        table = np.empty((count, self.b), dtype=np.int64)
        for t in range(count):
            table[t] = gen.subset_without_replacement(self.n, self.b)
        return table


def partition_batches(n: int, b: int, seed: int = 0, shuffle: bool = False) -> BatchScheme:
    """The partition scheme: contiguous blocks {0..b-1}, {b..2b-1}, ... of
    ``order``, the table ``order.reshape(n // b, b)``, with uniform
    probabilities b/n.  ``order`` is 0..n-1, or its Fisher-Yates shuffle
    off Xoshiro256PP(seed) when ``shuffle``."""
    require_batch_size(n, b)
    if n % b != 0:
        raise IndivisibleBatch(f"batch size {b} does not divide n={n}")
    order = np.arange(n, dtype=np.int64)
    if shuffle:
        gen = Xoshiro256PP(seed)
        for i in range(n - 1):  # Fisher-Yates with the mandated stream
            j = i + min(int(gen.uniform() * (n - i)), n - i - 1)
            order[i], order[j] = order[j], order[i]
    m = n // b
    return BatchScheme(order.reshape(m, b), np.full(m, 1.0 / m))


# --------------------------------------------------------------------------
# preconditioner


class PreconditionerSpec:
    """SPD matrix H with certified eigenvalue bounds m_low <= eig <= m_high.

    Cholesky-factored once at construction (NotPositiveDefinite on failure);
    the bounds are checked against the exact extreme eigenvalues (eigvalsh)
    with slack 1e-8 * max(1, bound).  ``solve`` applies H^{-1} via the factor.
    """

    def __init__(self, matrix: np.ndarray, eigen_bounds: tuple[float, float]):
        H = np.asarray(matrix, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ConfigError("preconditioner matrix must be square")
        if not np.allclose(H, H.T, atol=1e-12, rtol=0.0):
            raise ConfigError("preconditioner matrix must be symmetric (1e-12)")
        m_low, m_high = eigen_bounds
        if not 0.0 < m_low <= m_high:
            raise ConfigError("eigen_bounds must satisfy 0 < m_low <= m_high")
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("preconditioner failed Cholesky factorization") from None
        self.matrix = H
        self.eigen_bounds = (float(m_low), float(m_high))
        self._l_inv = np.linalg.inv(L)  # triangular; H^{-1} = L^{-T} L^{-1}
        lam_min, lam_max = np.linalg.eigvalsh(H)[[0, -1]]
        if lam_max > m_high + 1e-8 * max(1.0, m_high) or lam_min < m_low - 1e-8 * max(1.0, m_low):
            raise NotPositiveDefinite(
                f"eigen bounds violated: spectrum within [{lam_min:.9g}, {lam_max:.9g}] "
                f"but declared [{m_low:.9g}, {m_high:.9g}]"
            )

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self._l_inv.T @ (self._l_inv @ v)


# --------------------------------------------------------------------------
# builders (partition schemes; subset chains are iterated directly)


def _validate_labels(problem: pr.Problem, dataset: pr.Dataset) -> None:
    if isinstance(problem, (pr.Logistic, pr.SmoothHingeSVM)):
        pr.require_pm1_labels(dataset, type(problem).__name__)


def _affine_system(
    dataset: pr.Dataset, scheme: BatchScheme, step: Callable[[np.ndarray, np.ndarray, int], tuple]
) -> AffineSystem:
    """One affine map per batch of ``scheme``, its (M, q) = ``step(A, y, b)``
    from the batch's feature rows A, targets y and size b.  The batch table
    is checked by ``problems.require_batch_table`` first.  A failed linear
    solve in ``step`` (Newton's batch Hessian) raises SingularBatchHessian."""
    batches = pr.require_batch_table(scheme.batches, dataset.n)
    d = dataset.d
    M, q = np.empty((len(batches), d, d)), np.empty((len(batches), d))
    for i, batch in enumerate(batches):
        try:
            M[i], q[i] = step(dataset.features[batch], dataset.targets[batch], len(batch))
        except np.linalg.LinAlgError:
            raise SingularBatchHessian(
                f"batch Hessian solve failed for batch starting at index {int(batch[0])}"
            ) from None
    return AffineSystem(M, q, scheme.probs)


def build_sgd_ifs(
    problem: pr.Problem,
    dataset: pr.Dataset,
    scheme: BatchScheme,
    eta: float,
) -> IfsSystem:
    """One map per batch: h_i(w) = w - eta * grad_batch_i(w).

    Least squares yields explicit affine maps
    M_i = (1 - eta lam) I - (eta/b) A_i^T A_i,  q_i = (eta/b) A_i^T y_i;
    other kinds yield an SgdSystem on the scheme's batches.
    """
    _validate_labels(problem, dataset)
    require_eta(eta)
    if isinstance(problem, pr.LeastSquares):
        eye = np.eye(dataset.d)

        def step(A: np.ndarray, y: np.ndarray, b: int) -> tuple:
            return (1.0 - eta * problem.lam) * eye - (eta / b) * (A.T @ A), (eta / b) * (A.T @ y)

        return _affine_system(dataset, scheme, step)
    return SgdSystem(problem, dataset, scheme.batches, eta, scheme.probs)


def build_precond_sgd_ifs(
    problem: pr.Problem,
    dataset: pr.Dataset,
    scheme: BatchScheme,
    eta: float,
    precond: PreconditionerSpec,
) -> IfsSystem:
    """Preconditioned steps h_i(w) = w - eta H^{-1} grad_batch_i(w).

    Least squares again reduces to affine maps
    M_i = I - eta H^{-1}(lam I + (1/b) A_i^T A_i),  q_i = (eta/b) H^{-1} A_i^T y_i.
    """
    _validate_labels(problem, dataset)
    require_eta(eta)
    if np.array_equal(precond.matrix, np.eye(dataset.d)):
        # exact identity: skip the solves so trajectories match plain SGD bit-for-bit
        return build_sgd_ifs(problem, dataset, scheme, eta)
    if isinstance(problem, pr.LeastSquares):
        eye = np.eye(dataset.d)

        def step(A: np.ndarray, y: np.ndarray, b: int) -> tuple:
            M = eye - eta * precond.solve(problem.lam * eye + (A.T @ A) / b)
            return M, (eta / b) * precond.solve(A.T @ y)

        return _affine_system(dataset, scheme, step)
    return SgdSystem(problem, dataset, scheme.batches, eta, scheme.probs, precond.solve)


def build_stoch_newton_ifs(
    problem: pr.Problem, dataset: pr.Dataset, scheme: BatchScheme, eta: float
) -> IfsSystem:
    """Stochastic Newton on regularized least squares (lam > 0 required):

    h_i(w) = (1-eta) w + eta Htilde_i^{-1} c_i with
    Htilde_i = (1/b) A_i^T A_i + lam I and c_i = (1/b) A_i^T y_i, so every
    Jacobian is the constant (1-eta) I.
    """
    if not isinstance(problem, pr.LeastSquares):
        raise ConfigError("stochastic Newton is defined for least squares only")
    if problem.lam <= 0.0:
        raise ConfigError("stochastic Newton needs lam > 0")
    require_eta(eta)
    eye = np.eye(dataset.d)

    def step(A: np.ndarray, y: np.ndarray, b: int) -> tuple:
        H = (A.T @ A) / b + problem.lam * eye
        return (1.0 - eta) * eye, eta * np.linalg.solve(H, (A.T @ y) / b)

    return _affine_system(dataset, scheme, step)


# --------------------------------------------------------------------------
# subset-mode iteration


def _run_subset(
    problem: pr.Problem, dataset: pr.Dataset, b: int, eta: float, w0: np.ndarray, seed: int,
    record_from: int, thin: int, n_record: int,
) -> np.ndarray:
    """Subset-mode SGD from ``w0``: step t's batch is the t-th b-subset drawn
    from Xoshiro256PP(seed) by ``SubsetScheme.draw``, all drawn before the
    first step into a (T, b) table that ``ifs.run_sgd`` steps along in order,
    one serial ``ifs.run_chain`` lane.  The inputs are checked before any
    draw; records and NonFiniteState as ``ifs.run_chain``."""
    _validate_labels(problem, dataset)
    scheme = SubsetScheme(dataset.n, b)
    require_eta(eta)
    w0 = require_start(w0, pr.param_dim(problem, dataset))
    total = record_from + n_record * thin
    table = scheme.draw(Xoshiro256PP(seed), total)
    lane = functools.partial(run_sgd, problem, dataset, table, eta)
    return run_chain(lane, lane, 1, w0, np.arange(total), record_from, thin, n_record)


def iterate_subset_sgd(
    problem: pr.Problem, dataset: pr.Dataset, b: int, eta: float, w0: np.ndarray, k: int, seed: int
) -> Trajectory:
    """SGD with a fresh without-replacement b-subset each step.

    Stream order: one b-subset draw per step.  Map indices are not recorded
    (the family is combinatorially large); Trajectory.indices stays empty.
    """
    if k < 0:
        raise ConfigError("k must be nonnegative")
    rows = _run_subset(problem, dataset, b, eta, w0, seed, 0, 1, k)
    states = np.vstack([np.asarray(w0, dtype=float), rows])
    return Trajectory(states=states, indices=np.empty(0, dtype=np.int64), seed=seed)


def sample_invariant_subset(
    problem: pr.Problem,
    dataset: pr.Dataset,
    b: int,
    eta: float,
    w0: np.ndarray,
    burn_in: int,
    n_samples: int,
    thin: int = 1,
    seed: int = 0,
) -> SampleCloud:
    """Subset-mode analogue of ifs.sample_invariant."""
    require_schedule(burn_in, n_samples, thin)
    pts = _run_subset(problem, dataset, b, eta, w0, seed, burn_in, thin, n_samples)
    return SampleCloud(points=pts, burn_in=burn_in, thin=thin, seed=seed)
