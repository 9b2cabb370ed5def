"""Mini-batch schemes and the SGD-variant -> IFS builders.

Partition mode splits {0..n-1} into contiguous blocks of size b (seeded
shuffle optional) and enumerates one map per block.  Subset mode (the
without-replacement C(n,b) family) is never enumerated: a chain of T steps
draws its T batches up front into a (T, b) table (T * b * 8 bytes), which
``ifs.run_sgd`` steps in order, and operations needing the map count use
m_b = C(n,b) as a plain number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import problems as pr
from .errors import (
    ConfigError,
    IndivisibleBatch,
    NonFiniteState,
    NotPositiveDefinite,
    SingularBatchHessian,
)
from .ifs import (AffineSystem, IfsSystem, SampleCloud, SgdSystem, Trajectory, require_eta, require_schedule,
                  require_start, run_sgd)
from .rng import Xoshiro256PP

# --------------------------------------------------------------------------
# batch schemes


@dataclass(frozen=True)
class BatchScheme:
    mode: str  # "partition" | "subset"
    n: int
    batch_size: int
    batches: Optional[tuple[np.ndarray, ...]]  # None in subset mode
    probs: Optional[np.ndarray]  # None in subset mode (implicitly uniform)
    m_b: int  # number of maps: n/b, or C(n,b) in subset mode


def partition_batches(
    n: int, b: int, mode: str = "partition", seed: int = 0, shuffle: bool = False
) -> BatchScheme:
    """Build the batching scheme.

    Partition: contiguous blocks ({0..b-1}, {b..2b-1}, ...) with uniform
    probabilities p_i = b/n; ``shuffle`` permutes the indices first with the
    seeded generator.  Subset: stores only (n, b) and m_b = C(n, b).
    """
    if n <= 0 or b <= 0 or b > n:
        raise ConfigError(f"need 0 < b <= n, got n={n}, b={b}")
    if mode == "partition":
        if n % b != 0:
            raise IndivisibleBatch(f"batch size {b} does not divide n={n}")
        order = np.arange(n, dtype=np.int64)
        if shuffle:
            gen = Xoshiro256PP(seed)
            for i in range(n - 1):  # Fisher-Yates with the mandated stream
                j = i + min(int(gen.uniform() * (n - i)), n - i - 1)
                order[i], order[j] = order[j], order[i]
        m = n // b
        batches = tuple(order[i * b : (i + 1) * b].copy() for i in range(m))
        probs = np.full(m, 1.0 / m)
        return BatchScheme("partition", n, b, batches, probs, m)
    if mode == "subset":
        return BatchScheme("subset", n, b, None, None, math.comb(n, b))
    raise ConfigError(f"unknown batch mode {mode!r}")


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
# builders (Partition schemes only; Subset systems are iterated directly)


def _require_enumerated(scheme: BatchScheme, op: str) -> None:
    if scheme.batches is None:
        raise ConfigError(f"{op} needs an enumerated Partition scheme; Subset mode is not enumerated")


def _validate_labels(problem: pr.Problem, dataset: pr.Dataset) -> None:
    if isinstance(problem, (pr.Logistic, pr.SmoothHingeSVM)):
        pr.require_pm1_labels(dataset, type(problem).__name__)


def _affine_system(
    dataset: pr.Dataset, scheme: BatchScheme, step: Callable[[np.ndarray, np.ndarray, int], tuple]
) -> AffineSystem:
    """One affine map per batch of ``scheme``, its (M, q) = ``step(A, y, b)``
    from the batch's feature rows A, targets y and size b.  A failed linear
    solve in ``step`` (Newton's batch Hessian) raises SingularBatchHessian."""
    d = dataset.d
    M, q = np.empty((scheme.m_b, d, d)), np.empty((scheme.m_b, d))
    for i, batch in enumerate(scheme.batches):
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
    _require_enumerated(scheme, "build_sgd_ifs")
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
    _require_enumerated(scheme, "build_precond_sgd_ifs")
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
    _require_enumerated(scheme, "build_stoch_newton_ifs")
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
    from Xoshiro256PP(seed), one draw per step in step order, all drawn
    before the first step into a (T, b) table that ``ifs.run_sgd`` steps
    along in order.  The inputs are checked before any draw; records as
    ``ifs.run_sgd``."""
    _validate_labels(problem, dataset)
    partition_batches(dataset.n, b, "subset")  # rejects b outside 1..n
    require_eta(eta)
    w0 = require_start(w0, pr.param_dim(problem, dataset))
    gen = Xoshiro256PP(seed)
    total = record_from + n_record * thin
    table = np.empty((total, b), dtype=np.int64)
    for t in range(total):
        table[t] = gen.subset_without_replacement(dataset.n, b)
    rows, finite = run_sgd(problem, dataset, table, eta, w0, np.arange(total), record_from, thin, n_record)
    if not finite:
        raise NonFiniteState()
    return rows


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
