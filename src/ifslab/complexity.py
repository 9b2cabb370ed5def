"""Jacobian-norm complexity R and the dimension-based generalization bounds.

1/R is the Monte-Carlo average of log ||J_{h_U}(W)|| over cloud points W and
batch draws U; ``dimension.rams_ratio`` averages the same ``log_norm_table``
over a system's maps.  Every step Jacobian norm comes from ``jacobian_norms``:
exact up to DENSE_ORACLE_MAX_DIM = 64 parameters, where the table's cells go
in chunks, each one stacked Hessian product on the identity block and one
stacked eigendecomposition (SVD when preconditioned); a hand-rolled power
iteration per cell with its own seed above that.  The dense
column-by-column oracle stays the independent cross-check.
R is reported signed: contractive systems give negative R, expanding ones
positive.  No absolute values are taken silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from . import problems as pr
from .errors import (
    ConfigError,
    DimensionTooLarge,
    NonContractiveEstimate,
    ZeroMeanLogNorm,
    ZeroOperator,
)
from .ifs import norm_rounding
from .rng import Xoshiro256PP, child_seed

if TYPE_CHECKING:  # pragma: no cover
    from .ifs import SampleCloud
    from .optimizers import BatchScheme, SubsetScheme

# --------------------------------------------------------------------------
# power iteration


@dataclass(frozen=True)
class PowerIterConfig:
    tol: float = 1e-6  # relative change of the norm estimate
    max_iters: int = 100
    seed: int = 0


@dataclass(frozen=True)
class PowerIterResult:
    value: float
    converged: bool
    iterations: int


def spectral_norm_power_iter(
    apply: Callable[[np.ndarray], np.ndarray], dim: int, config: PowerIterConfig = PowerIterConfig()
) -> PowerIterResult:
    """Dominant |eigenvalue| of a symmetric operator given only matvecs.

    Starts from a seeded Gaussian unit vector, renormalizes each step, and
    stops once the norm estimate's relative change drops below ``tol``
    (``converged=False`` after ``max_iters`` otherwise).  For symmetric
    operators the estimate converges to the spectral norm even when the
    top eigenvalues tie in magnitude with opposite signs.
    """
    gen = Xoshiro256PP(config.seed)
    v = gen.normals(dim)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:  # astronomically unlikely; retry deterministically
        v = gen.normals(dim)
        nv = float(np.linalg.norm(v))
    v = v / nv
    estimate = 0.0
    for it in range(1, config.max_iters + 1):
        u = apply(v)
        nu = float(np.linalg.norm(u))
        if nu < 1e-300:
            raise ZeroOperator("operator annihilated the probe vector")
        if it > 1 and abs(nu - estimate) <= config.tol * max(abs(nu), 1e-300):
            return PowerIterResult(nu, True, it)
        estimate = nu
        v = u / nu
    return PowerIterResult(estimate, False, config.max_iters)


# --------------------------------------------------------------------------
# step Jacobian norms

DENSE_ORACLE_MAX_DIM = 64
# Byte cap on one chunk of exact cells.  A cell's largest temporary is
# 8 * dim * max(dim, b * hidden) bytes (J, the batch rows times the block,
# or the one-hidden-layer curvature terms of shape (hidden, b, dim)), and a
# few such coexist.  Measured on one core: cells/s plateau from about 32 KiB
# of chunk at dim 2 and from 128 KiB at dim 32, and fall at 4 MiB with
# b = 32; at 1 MiB the sweep's peak RSS rose by 3 MiB, at 256 KiB by 0.3 MiB.
TABLE_CHUNK_BYTES = 1 << 18


def stacked_spectral_norms(
    J: np.ndarray, symmetric: bool = True, name: Callable[[int], str] = lambda k: f"{k} of the stack"
) -> np.ndarray:
    """Exact ||J_k||_2 for a stack J of shape (..., dim, dim).

    Symmetric Jacobians (plain SGD steps, J = I - eta*H) take max|eigvalsh| of
    the symmetrised matrix; others (preconditioned steps) take the largest
    singular value.  Raises ZeroOperator when a norm is numerically zero:
    at most dim * eps times max(1, largest entry of I - J), the rounding
    error of forming J = I - eta*H.  The message gives the first such
    norm and ``name`` of its flat stack index.
    """
    dim = J.shape[-1]
    if symmetric:
        eigs = np.linalg.eigvalsh(0.5 * (J + np.swapaxes(J, -1, -2)))
        norms = np.abs(eigs).max(axis=-1)
    else:
        norms = np.linalg.norm(J, 2, axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(J - np.eye(dim)).max(axis=(-2, -1)))
    zero = np.flatnonzero(norms <= dim * np.finfo(float).eps * scale)
    if zero.size:
        k = int(zero[0])
        raise ZeroOperator(
            f"Jacobian {name(k)} is numerically zero (norm {norms.flat[k]:.3e}); "
            "its log norm is undefined"
        )
    return norms


def jacobian_norms(
    problem: pr.Problem,
    dataset: pr.Dataset,
    batches: np.ndarray,
    eta: float,
    w: np.ndarray,
    power_iter: PowerIterConfig,
    seeds: Iterable[int],
    solve: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, int]:
    """||J_B|| = ||I - eta * P * H_B(w)||_2 for each batch B, and how many converged.

    P is the preconditioner ``solve`` (identity when None).  ``batches`` is
    an (n_u, b) table of row indices, checked by ``problems.require_batch_table``.
    ``w`` is one point (dim,), giving (n_u,) norms, or rows (n_w, dim),
    giving the (n_w, n_u) table; cell (i, j) is flat cell i*n_u + j.  Up to
    DENSE_ORACLE_MAX_DIM parameters the norms are exact and all count as
    converged: the cells go in chunks of at most TABLE_CHUNK_BYTES of
    temporaries, each chunk one stacked ``jacobian_apply`` on the identity
    block and one ``stacked_spectral_norms``.  Above that, power iteration
    per cell on J, or on J^T J when preconditioned, with the tolerance and
    cap of ``power_iter`` and the cell's entry of ``seeds``, which only this
    path reads.
    """
    dim = pr.param_dim(problem, dataset)
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != dim:
        raise ConfigError(f"point dimension {w.shape[-1]} != parameter dimension {dim}")
    rows = w.reshape(-1, dim)
    idx = pr.require_batch_table(batches, dataset.n)
    n_u = idx.shape[0]
    n_cells = rows.shape[0] * n_u
    norms = np.empty(n_cells)
    if dim <= DENSE_ORACLE_MAX_DIM:
        hidden = problem.hidden if isinstance(problem, pr.OneHiddenLayer) else 1
        chunk = max(1, TABLE_CHUNK_BYTES // (8 * dim * max(dim, idx.shape[1] * hidden)))
        eye = np.eye(dim)
        for start in range(0, n_cells, chunk):
            cells = np.arange(start, min(start + chunk, n_cells))
            J = pr.jacobian_apply(problem, rows[cells // n_u], dataset, idx[cells % n_u], eta, eye, solve)
            norms[start : start + cells.size] = stacked_spectral_norms(
                J, solve is None, lambda k: f"of cell (row {cells[k] // n_u}, batch {cells[k] % n_u})"
            )
        return norms.reshape(w.shape[:-1] + (n_u,)), n_cells
    converged = 0
    for c, seed in zip(range(n_cells), seeds, strict=True):
        w_c, batch = rows[c // n_u], idx[c % n_u]

        def op(v: np.ndarray) -> np.ndarray:  # J v, or J^T J v with J^T = I - eta * H P
            u = pr.jacobian_apply(problem, w_c, dataset, batch, eta, v, solve)
            return u if solve is None else u - eta * pr.hvp(problem, w_c, dataset, batch, solve(u))

        config = PowerIterConfig(power_iter.tol, power_iter.max_iters, seed)
        res = spectral_norm_power_iter(op, dim, config)
        norms[c] = res.value if solve is None else math.sqrt(res.value)
        converged += res.converged
    return norms.reshape(w.shape[:-1] + (n_u,)), converged


# --------------------------------------------------------------------------
# dense oracle


def dense_jacobian_oracle(
    problem: pr.Problem, w: np.ndarray, dataset: pr.Dataset, batch: np.ndarray, eta: float
) -> tuple[np.ndarray, float]:
    """Assemble J = I - eta*H column-by-column and eigendecompose it.

    The independent route for validating power-iteration norms; refuses
    dimensions above 64 to stay an oracle rather than a workhorse.
    """
    dim = pr.param_dim(problem, dataset)
    if dim > DENSE_ORACLE_MAX_DIM:
        raise DimensionTooLarge(f"dense oracle supports dim <= {DENSE_ORACLE_MAX_DIM}, got {dim}")
    J = np.empty((dim, dim))
    eye = np.eye(dim)
    for k in range(dim):
        J[:, k] = pr.jacobian_apply(problem, w, dataset, batch, eta, eye[k])
    norm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (J + J.T)))))
    return J, norm


# --------------------------------------------------------------------------
# R estimator


@dataclass(frozen=True)
class ComplexityConfig:
    n_w: int = 200
    n_u: int = 50
    seed: int = 0
    power_iter: PowerIterConfig = field(default_factory=PowerIterConfig)

    def __post_init__(self):
        if self.n_w < 1 or self.n_u < 1:
            raise ConfigError("n_w and n_u must be positive integers")
        if self.power_iter.seed != PowerIterConfig.seed:  # each cell's seed is a child of complexity.seed
            raise ConfigError("complexity.power_iter.seed is never read; seed the R table with complexity.seed")


@dataclass
class ComplexityEstimate:
    R: float
    inverse_R: float
    per_sample_lognorms: np.ndarray  # (n_w, n_u)
    n_w: int
    n_u: int
    seed: int
    converged_fraction: float

    def to_json_dict(self) -> dict:
        return {
            "R": self.R,
            "inverse_R": self.inverse_R,
            "n_w": self.n_w,
            "n_u": self.n_u,
            "converged_fraction": self.converged_fraction,
        }


def log_norm_table(
    problem: pr.Problem, dataset: pr.Dataset, batches: np.ndarray, eta: float,
    points: np.ndarray, n_w: int, power_iter: PowerIterConfig, seed: int,
    solve: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, int]:
    """The (n_w, n_u) table of log ||J_{B_j}(W_i)||, and how many cells converged.

    B_j is row j of the (n_u, b) batch table ``batches``, W_i row
    floor(i*N/n_w), i < n_w, of the (N, dim) cloud ``points``.  The whole
    table is one ``jacobian_norms`` call on the rows W (exact cells count as
    converged); above DENSE_ORACLE_MAX_DIM parameters cell (i, j) is a power
    iteration seeded with child 1 + i*n_u + j of ``seed``, so the cells
    parallelize without changing results.
    """
    if n_w < 1:
        raise ConfigError(f"n_w must be a positive integer, got {n_w}")
    if points.shape[0] < n_w:
        raise ConfigError(f"cloud has {points.shape[0]} points; need at least n_w={n_w}")
    dim = pr.param_dim(problem, dataset)
    if points.shape[1] != dim:
        raise ConfigError(f"cloud dimension {points.shape[1]} != parameter dimension {dim}")
    W = points[(np.arange(n_w, dtype=np.int64) * points.shape[0]) // n_w]
    seeds = (child_seed(seed, 1 + c) for c in range(n_w * len(batches)))
    norms, converged = jacobian_norms(problem, dataset, batches, eta, W, power_iter, seeds, solve)
    return np.log(norms), converged


def estimate_R(
    problem: pr.Problem,
    dataset: pr.Dataset,
    scheme: "BatchScheme | SubsetScheme",
    eta: float,
    cloud: "SampleCloud",
    config: ComplexityConfig = ComplexityConfig(),
) -> ComplexityEstimate:
    """1/R = mean over (W_i, U_j) of log ||I - eta * Hessian_{U_j}(W_i)||.

    U_j are the rows of ``scheme.draw``'s (n_u, b) table (i.i.d. draws from a
    partition's probabilities, or without-replacement b-subsets) off the
    stream of child seed 0, W_i the ``n_w`` strided cloud points of
    ``log_norm_table``, whose cells take their seeds from ``config.seed``;
    ``converged_fraction`` is the share of cells that met the tolerance.
    Accumulation is a row-major pairwise sum over the full (n_w, n_u) table,
    and a numerically zero Jacobian raises ZeroOperator.  A mean within
    ``ifs.norm_rounding(dim)`` of 0, the bound ``dimension.rams_ratio`` and
    ``ifs.contractivity_report`` apply, raises ZeroMeanLogNorm.
    """
    batches = scheme.draw(Xoshiro256PP(child_seed(config.seed, 0)), config.n_u)
    lognorms, converged = log_norm_table(
        problem, dataset, batches, eta, cloud.points, config.n_w, config.power_iter, config.seed
    )
    inverse_r = float(lognorms.sum() / lognorms.size)
    bound = norm_rounding(pr.param_dim(problem, dataset))
    if abs(inverse_r) <= bound:
        raise ZeroMeanLogNorm(
            f"mean log norm {inverse_r:.3e} is 0 within the norms' rounding bound dim * eps "
            f"({bound:.3g}); R undefined"
        )
    return ComplexityEstimate(
        R=1.0 / inverse_r,
        inverse_R=inverse_r,
        per_sample_lognorms=lognorms,
        n_w=config.n_w,
        n_u=config.n_u,
        seed=config.seed,
        converged_fraction=converged / lognorms.size,
    )


# --------------------------------------------------------------------------
# generalization bounds


@dataclass(frozen=True)
class GeneralizationInputs:
    """Constants of the high-probability bound: loss scale nu (losses in
    [0, 2 nu]), Lipschitz constant L, sample count n, covering constant M,
    and failure probability zeta."""

    nu: float
    lipschitz: float
    n: int
    m_const: float
    zeta: float

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigError("n must be positive")
        if not 0.0 < self.zeta < 1.0:
            raise ConfigError("zeta must lie in (0, 1)")
        if self.nu <= 0 or self.lipschitz <= 0 or self.m_const <= 0:
            raise ConfigError("nu, lipschitz, m_const must be positive")


def bound_theorem1(dim_h: float, inputs: GeneralizationInputs) -> float:
    """8 nu sqrt(dim_h log^2(n L^2)/n + log(13 M / zeta)/n), natural logs."""
    if dim_h < 0:
        raise ConfigError("dim_h must be nonnegative")
    n = inputs.n
    t1 = dim_h * math.log(n * inputs.lipschitz**2) ** 2 / n
    t2 = math.log(13.0 * inputs.m_const / inputs.zeta) / n
    return 8.0 * inputs.nu * math.sqrt(t1 + t2)


def bound_corollary1(rams, inputs: GeneralizationInputs) -> float:
    """Theorem-1 bound with the Rams ratio standing in for the dimension."""
    if rams.mean_log_jacobian >= 0.0:
        raise NonContractiveEstimate(
            f"mean log Jacobian {rams.mean_log_jacobian:.6g} >= 0: ratio is not a dimension bound"
        )
    return bound_theorem1(rams.ratio, inputs)


def generalization_gap(
    problem: pr.Problem, train: pr.Dataset, test: pr.Dataset, w: np.ndarray
) -> float:
    """|mean train loss - mean test loss| at the fixed parameter ``w``."""
    return abs(pr.mean_loss(problem, w, train) - pr.mean_loss(problem, w, test))
