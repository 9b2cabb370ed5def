"""Loss families whose SGD steps generate the iterated-function systems.

Each problem kind provides per-sample losses, mini-batch gradients,
Hessian-vector products, the step Jacobian J = I - eta*P*H applied to a vector,
and per-batch norm envelopes (gamma_i, Gamma_i) bounding ||J|| under the
step-size hypotheses of the corresponding contraction propositions.  The four
GLM families are margin losses phi(a.w, y): each one's phi, phi' and phi'' is
one entry of ``_MARGIN``, which ``batch_losses``, ``grad`` and ``hvp`` read
beside their one-hidden-layer branch (``grad`` through its one kernel,
``GradWorkspace``).  Each
proposition is one record of ``PROPOSITIONS``, which ``check_step_size``,
``norm_envelopes`` and ``dimension.analytic_bound`` all read.

Conventions: parameters ``w`` are flat float64 vectors; a mini-batch is an
integer index array into the dataset; batch quantities are averages
(1/b)*sum over the batch; the regularizer is lam/2*||w||^2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigError, PreconditionViolation
from .fileio import read_csv

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .optimizers import BatchScheme

# --------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Supervised data: ``features`` (n, d) and ``targets`` (n,)."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2:
            raise ConfigError("features must be a 2-D array")
        if self.targets.shape != (self.features.shape[0],):
            raise ConfigError("targets must be 1-D with one entry per row")
        if not (np.isfinite(self.features).all() and np.isfinite(self.targets).all()):
            raise ConfigError("dataset contains non-finite entries")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def radius(self) -> float:
        """R = max_i ||a_i||."""
        return float(np.sqrt((self.features**2).sum(axis=1).max()))

    def rows(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The feature rows and targets at ``idx`` (any shape of indices)."""
        return self.features.take(idx, axis=0), self.targets.take(idx)

    def batch_radius(self, batch: np.ndarray) -> float:
        """R_i = max over the batch of ||a_j||."""
        rows = self.features[np.asarray(batch, dtype=np.int64)]
        return float(np.sqrt((rows**2).sum(axis=1).max()))


def load_dataset_csv(path: str) -> Dataset:
    """Read a dataset CSV with header ``x0,...,x{d-1},y``, d >= 1 (errors name the bad row)."""
    table = read_csv(path, "dataset", lambda n: [f"x{i}" for i in range(n - 1)] + ["y"] if n > 1 else None)
    return Dataset(table[:, :-1].copy(), table[:, -1].copy())


def require_pm1_labels(dataset: Dataset, context: str) -> None:
    """Classification kinds demand targets in {-1, +1}."""
    if not np.all(np.isin(dataset.targets, (-1.0, 1.0))):
        raise ConfigError(f"{context}: targets must be +/-1")


def require_batch_shape(batches) -> np.ndarray:
    """``batches``, a 2-D array or a sequence of batches, as a C-contiguous
    (n_batches, b) int64 table.  An empty, ragged or non-integer table is a
    ConfigError that names the bad batch or entry.  The table is always a
    new array, never the caller's."""
    rows = [np.asarray(batch) for batch in batches]
    if not rows:
        raise ConfigError("a batch table needs at least one batch")
    for i, row in enumerate(rows):
        if row.ndim != 1 or not row.size or row.size != rows[0].size:
            raise ConfigError(
                f"a batch table needs nonempty batches of one length, got lengths "
                f"{sorted({r.size for r in rows})}: batch {i} has shape {row.shape}"
            )
    table = np.stack(rows)
    if table.dtype.kind not in "iu":
        off = np.argwhere(table != np.round(table)) if table.dtype.kind == "f" else ()
        i, j = off[0] if len(off) else (0, 0)
        raise ConfigError(
            f"batch {i}, entry {j} is {table[i, j].item()!r}: a batch holds integer row indices, not {table.dtype}"
        )
    return np.ascontiguousarray(table, dtype=np.int64)


def require_batch_table(batches, n_rows: int) -> np.ndarray:
    """``require_batch_shape(batches)``, whose entries must also be row
    indices into a dataset of ``n_rows`` rows: an out-of-range entry is a
    ConfigError that names it."""
    table = require_batch_shape(batches)
    bad = np.argwhere((table < 0) | (table >= n_rows))
    if bad.size:
        i, j = bad[0]
        raise ConfigError(f"batch {i}, entry {j} is row {table[i, j]}, but the dataset has rows 0..{n_rows - 1}")
    return table


# --------------------------------------------------------------------------
# problem kinds


@dataclass(frozen=True)
class LeastSquares:
    """l(w; a, y) = (a.w - y)^2 / 2 + lam/2 ||w||^2."""

    lam: float = 0.0


@dataclass(frozen=True)
class Logistic:
    """l(w; a, y) = log(1 + exp(-y a.w)) + lam/2 ||w||^2, labels +/-1."""

    lam: float = 0.0


@dataclass(frozen=True)
class RobustRegression:
    """l(w; a, y) = rho(y - a.w) + lam_r/2 ||w||^2.

    rho is the exponential-squared loss 1 - exp(-t^2/t0) by default
    (||rho''||_inf = 2/t0) or Tukey's biweight (exact sup 6/t0^2).
    """

    lam_r: float
    t0: float
    rho: str = "exp_squared"  # or "tukey"

    def __post_init__(self):
        if self.rho not in ("exp_squared", "tukey"):
            raise ConfigError(f"robust regression rho must be 'exp_squared' or 'tukey', got {self.rho!r}")
        if not self.t0 > 0.0:
            raise ConfigError(f"robust regression t0 must be > 0, got {self.t0}")

    def rho_double_sup(self) -> float:
        return 2.0 / self.t0 if self.rho == "exp_squared" else 6.0 / self.t0**2


@dataclass(frozen=True)
class SmoothHingeSVM:
    """l(w; a, y) = l_sig(y a.w) + lam/2 ||w||^2 with the smoothed hinge

    l_sig(z) = 1 - z + sig*log(1 + exp(-(1-z)/sig)),  ||l_sig''||_inf = 1/(4 sig).
    """

    lam: float
    sigma_smooth: float

    def __post_init__(self):
        if not self.sigma_smooth > 0.0:
            raise ConfigError(f"smooth-hinge SVM sigma_smooth must be > 0, got {self.sigma_smooth}")


@dataclass(frozen=True)
class OneHiddenLayer:
    """Scalar-output one-hidden-layer net with frozen output weights.

    yhat = sum_r b_r * act(w_r . a);  l = (y - yhat)^2 / 2 + lam/2 ||w||^2.
    The trainable parameter is the flattened (m, d) first layer.
    """

    lam: float
    out_weights: tuple[float, ...]
    activation: str = "sigmoid"  # or "tanh"

    def __post_init__(self):
        if self.hidden == 0:
            raise ConfigError("a one-hidden-layer net needs at least one hidden unit; out_weights is empty")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def hidden(self) -> int:
        return len(self.out_weights)

    @cached_property
    def out_array(self) -> np.ndarray:
        """``out_weights`` as a read-only float array, built on first use."""
        b = np.array(self.out_weights, dtype=float)
        b.flags.writeable = False
        return b


def alternating_out_weights(hidden: int, scale: float) -> tuple[float, ...]:
    """Frozen output weights +scale, -scale, +scale, ... for ``hidden`` units."""
    return tuple(scale * (1.0 if r % 2 == 0 else -1.0) for r in range(hidden))


Problem = Union[LeastSquares, Logistic, RobustRegression, SmoothHingeSVM, OneHiddenLayer]


def param_dim(problem: Problem, dataset: Dataset) -> int:
    if isinstance(problem, OneHiddenLayer):
        return problem.hidden * dataset.d
    return dataset.d


def regularizer_weight(problem: Problem) -> float:
    return problem.lam_r if isinstance(problem, RobustRegression) else problem.lam


# --------------------------------------------------------------------------
# scalar helpers

SIGMOID_SECOND_SUP = 1.0 / (6.0 * math.sqrt(3.0))
TANH_SECOND_SUP = 4.0 / (3.0 * math.sqrt(3.0))


def _sigmoid(x):
    """1 / (1 + exp(-x)) without overflow: with e = exp(-|x|), 1 / (1 + e)
    where x >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _sigmoid_prime(s, one=1.0, out=None):
    """s (1 - s), with ``one`` for the 1 and written into ``out`` when given."""
    out = np.subtract(one, s, out)
    return np.multiply(s, out, out)


def _tanh_prime(t, one=1.0, out=None):
    """1 - t^2, with ``one`` for the 1 and written into ``out`` when given."""
    out = np.square(t, out)
    return np.subtract(one, out, out)


# (act, act' and act'' as functions of the activation value a = act(x), sup|act''|);
# act' also takes its 1 as a ones block of the value's shape and writes into a
# given ``out``, so that its calls in the gradient kernel broadcast no operand
_ACTIVATIONS = {
    "sigmoid": (_sigmoid, _sigmoid_prime, lambda s: s * (1.0 - s) * (1.0 - 2.0 * s), SIGMOID_SECOND_SUP),
    "tanh": (np.tanh, _tanh_prime, lambda t: -2.0 * t * (1.0 - t**2), TANH_SECOND_SUP),
}


# The GLM families are margin losses: with z = a.w the per-sample loss is
# phi(z, y) + lam/2 ||w||^2, the batch gradient A^T phi'(z, y) / b + lam w and
# the batch Hessian A^T diag(phi''(z, y)) A / b + lam I, derivatives in z.  Each
# entry is (phi, phi', phi'') as functions of (problem, z, y).  Robust
# regression is keyed by its rho, read at the residual t = y - z (so
# phi' = -rho'(t)).  Least squares' phi'' is the constant 1, given as None so
# that its Hessian needs no margin.
_MARGIN = {
    LeastSquares: (lambda p, z, y: 0.5 * (z - y) ** 2, lambda p, z, y: z - y, None),
    Logistic: (  # log(1 + exp(-y z))
        lambda p, z, y: np.logaddexp(0.0, -y * z),
        lambda p, z, y: -y * _sigmoid(-(y * z)),
        lambda p, z, y: (s := _sigmoid(y * z)) * (1.0 - s) * y**2,
    ),
    "exp_squared": (  # rho(t) = 1 - exp(-t^2/t0); |rho''| peaks at t = 0
        lambda p, z, y: 1.0 - np.exp(-((y - z) ** 2) / p.t0),
        lambda p, z, y: -((2.0 * (t := y - z) / p.t0) * np.exp(-(t**2) / p.t0)),
        lambda p, z, y: (
            p.rho_double_sup() * (1.0 - 2.0 * (t := y - z) ** 2 / p.t0) * np.exp(-(t**2) / p.t0)
        ),
    ),
    "tukey": (  # rho(t) = 1 - (1 - (t/t0)^2)^3 for |t| <= t0, else 1
        lambda p, z, y: np.where(np.abs(t := y - z) <= p.t0, 1.0 - (1.0 - (t / p.t0) ** 2) ** 3, 1.0),
        lambda p, z, y: -np.where(
            np.abs(t := y - z) <= p.t0, 6.0 * t / p.t0**2 * (1.0 - (t / p.t0) ** 2) ** 2, 0.0
        ),
        lambda p, z, y: np.where(
            np.abs(t := y - z) <= p.t0, p.rho_double_sup() * (1.0 - (s := (t / p.t0) ** 2)) * (1.0 - 5.0 * s),
            0.0,
        ),
    ),
    SmoothHingeSVM: (  # l_sig(y z), l_sig(m) = 1 - m + sig log(1 + exp(-(1 - m)/sig))
        lambda p, z, y: 1.0 - (m := y * z) + p.sigma_smooth * np.logaddexp(0.0, -(1.0 - m) / p.sigma_smooth),
        lambda p, z, y: y * -_sigmoid((1.0 - y * z) / p.sigma_smooth),
        lambda p, z, y: (s := _sigmoid((1.0 - y * z) / p.sigma_smooth)) * (1.0 - s) / p.sigma_smooth * y**2,
    ),
}


def _margin(problem: Problem) -> tuple:
    """The ``_MARGIN`` entry (phi, phi', phi'') of a GLM problem."""
    return _MARGIN[problem.rho if isinstance(problem, RobustRegression) else type(problem)]


def _mlp_parts(problem: OneHiddenLayer, w: np.ndarray, A: np.ndarray):
    """Per-sample predictions and hidden activations for feature rows A.

    Returns (b, H, yhat, d1, d2): the output weights, the (..., nb, m)
    activations H = act(A W^T) of the (..., m, d) first layer W, the
    predictions H b, and act', act'' as functions of H.  ``w`` is one flat
    parameter (m*d,) or a stack (c, m*d) of them; a stack adds a leading
    axis of length c to ``H`` and ``yhat``.  ``A`` is (nb, d) rows shared by
    the stack, or (c, nb, d) rows for each member.
    """
    b = problem.out_array
    m = problem.hidden
    d = A.shape[-1]
    W = w.reshape(w.shape[:-1] + (m, d))
    f, d1, d2, _ = _ACTIVATIONS[problem.activation]
    H = f(A @ W.swapaxes(-1, -2))
    return b, H, H @ b, d1, d2


# --------------------------------------------------------------------------
# core evaluations


def batch_losses(problem: Problem, w: np.ndarray, dataset: Dataset, batch: np.ndarray) -> np.ndarray:
    """Per-sample losses (regularizer included) at the given batch indices."""
    w = np.asarray(w, dtype=float)
    idx = np.asarray(batch, dtype=np.int64)
    A, y = dataset.rows(idx)
    reg = 0.5 * regularizer_weight(problem) * float(w @ w)
    if isinstance(problem, OneHiddenLayer):
        _, _, yhat, _, _ = _mlp_parts(problem, w, A)
        return 0.5 * (y - yhat) ** 2 + reg
    return _margin(problem)[0](problem, A @ w, y) + reg


def loss(problem: Problem, w: np.ndarray, dataset: Dataset, i: int) -> float:
    """Loss of sample ``i``: data term plus lam/2 ||w||^2."""
    return float(batch_losses(problem, w, dataset, np.array([i]))[0])


def mean_loss(problem: Problem, w: np.ndarray, dataset: Dataset) -> float:
    """Average loss over the whole dataset."""
    return float(batch_losses(problem, w, dataset, np.arange(dataset.n)).mean())


def _stack_args(w, batch, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``w`` and ``batch`` as float and index arrays: one point (dim,) and one
    batch (b,), or a stack w (K, dim) and batch (K, b); ConfigError otherwise."""
    w = np.asarray(w, dtype=float)
    idx = np.asarray(batch, dtype=np.int64)
    if (idx.ndim != 1 or w.ndim != 1) and (idx.ndim != 2 or w.shape[:-1] != idx.shape[:-1]):
        raise ConfigError(
            f"a stacked {name} needs w (K, dim) and batch (K, b), got {w.shape} and {idx.shape}"
        )
    return w, idx


def grad(problem: Problem, w: np.ndarray, dataset: Dataset, batch: np.ndarray) -> np.ndarray:
    """Mini-batch gradient (1/b) sum_j grad l(w, z_j): the batch's rows
    gathered and passed to ``grad_rows``.

    Every family also takes a stack: ``w`` (K, dim) and ``batch`` (K, b)
    give the (K, dim) gradients, row k bit-equal to that of w[k] on batch[k]
    alone.
    """
    w, idx = _stack_args(w, batch, "grad")
    A, y = dataset.rows(idx)
    return grad_rows(problem, w, A, y)


def grad_rows(problem: Problem, w: np.ndarray, A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``grad`` on gathered rows: features ``A`` (b, d) and targets ``y`` (b,),
    or for a stack w (K, dim), A (K, b, d) and y (K, b).  This is the
    ``GradWorkspace`` kernel run once on a fresh workspace, so it returns a
    new array and leaves ``w`` as it was.  The arguments are not checked."""
    ws = GradWorkspace(problem, w.shape, y.shape[-1], A.shape[-1])
    ws.w[...] = w
    return ws.grad(A, y)


class GradWorkspace:
    """The batch-gradient kernel of ``problem``: one expression per family,
    each step of it written into a buffer allocated here, and the problem's
    constants, read here once.

    Built for a state of shape ``shape``, one point (dim,) or a stack
    (K, dim), and batches of ``nb`` rows of ``d`` features.  ``grad(A, y)``
    writes the gradient at the state buffer ``w`` on rows A (nb, d) and
    y (nb,), or A (K, nb, d) and y (K, nb) for a stack, into the buffer
    ``g`` and returns ``g``.  Every step has the operands and the order of
    the plain expression, each stacked product a BLAS call per member with
    the solo call's operands, so the result is bit-equal to the plain
    expression and row k of a stack to the solo gradient.  Each constant of
    an elementwise step (the output weights, the 1 of act', nb and lam) is
    held as a C-contiguous block of that step's shape, so that only the
    residual column is broadcast: a call on same-shape contiguous operands
    costs a third of a broadcast one at the sweep's sizes.  The next call
    overwrites ``g``.  ``grad_rows`` runs the kernel on a fresh workspace;
    ``ifs.run_sgd`` builds one per call and steps ``w`` in place.
    """

    def __init__(self, problem: Problem, shape: tuple, nb: int, d: int):
        lead = shape[:-1]
        self.w, self.g, self._reg = np.empty(shape), np.empty(shape), np.empty(shape)
        self._problem = problem
        self._lam, self._nb = np.full(shape, regularizer_weight(problem)), np.full(shape, float(nb))
        self._mlp = isinstance(problem, OneHiddenLayer)
        if self._mlp:
            m = problem.hidden
            self._out = problem.out_array
            self._out_block, self._ones = np.full(lead + (nb, m), self._out), np.ones(lead + (nb, m))
            self._act, self._act1 = _ACTIVATIONS[problem.activation][:2]
            self._act_in_place = isinstance(self._act, np.ufunc)
            self._wt = self.w.reshape(lead + (m, d)).swapaxes(-1, -2)  # W^T of the (m, d) layer, a view of w
            self._z = np.empty(lead + (nb, m))
            self._resid = np.empty(lead + (nb,))
            self._coef = np.empty(lead + (nb, m))
            self._resid_col, self._coef_t = self._resid[..., None], self._coef.swapaxes(-1, -2)
            self._g_out = self.g.reshape(lead + (m, d))
        else:
            self._phi1 = _margin(problem)[1]
            self._w_col, self._g_out = self.w[..., None], self.g[..., None]
            self._z_col = np.empty(lead + (nb, 1))
            self._z = self._z_col[..., 0]

    def grad(self, A: np.ndarray, y: np.ndarray) -> np.ndarray:
        g = self.g
        if self._mlp:
            # V[j] = flatten_r(b_r f'(z_jr) a_j); grad = -(1/b) sum resid_j V_j + lam w
            z, resid, coef = self._z, self._resid, self._coef
            np.matmul(A, self._wt, z)
            H = self._act(z, z) if self._act_in_place else self._act(z)  # (..., nb, m)
            np.subtract(np.matmul(H, self._out, resid), y, resid)  # yhat - y
            np.multiply(self._out_block, self._act1(H, self._ones, coef), coef)
            np.multiply(self._resid_col, coef, coef)
            np.matmul(self._coef_t, A, self._g_out)
        else:
            # grad = A^T phi'(A w, y) / b + lam w
            np.matmul(A, self._w_col, self._z_col)
            phi1 = self._phi1(self._problem, self._z, y)
            np.matmul(A.swapaxes(-1, -2), phi1[..., None], self._g_out)
        np.divide(g, self._nb, g)
        return np.add(g, np.multiply(self._lam, self.w, self._reg), g)


def hvp(problem: Problem, w: np.ndarray, dataset: Dataset, batch: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mini-batch Hessian-vector product (1/b) sum_j H_j(w) v.

    ``v`` is a vector (dim,) or a block (dim, k); a block returns H V of the
    same shape, column k equal to the product with ``v[:, k]``.  A stack
    ``w`` (K, dim) and ``batch`` (K, b) shares ``v`` and returns (K,) +
    v.shape, entry k bit-equal to the product of w[k] on batch[k] alone:
    each family has one expression for both, every stacked product a BLAS
    call per member with the solo call's operands.
    """
    w, idx = _stack_args(w, batch, "hvp")
    v = np.asarray(v, dtype=float)
    A, y = dataset.rows(idx)
    nb = idx.shape[-1]
    lam = regularizer_weight(problem)
    X = v.reshape(v.shape[0], -1)  # k columns; k = 1 for a vector
    if isinstance(problem, OneHiddenLayer):
        b, H, yhat, d1, d2 = _mlp_parts(problem, w, A)
        m, d = problem.hidden, A.shape[-1]
        V = (b * d1(H))[..., None] * A[..., None, :]  # (..., nb, m, d)
        V = V.reshape(V.shape[:-2] + (m * d,))
        gauss = V.swapaxes(-1, -2) @ (V @ X) / nb  # Gauss-Newton part (V V^T) X
        A1 = A[..., None, :, :]  # rows shared by the m hidden units
        T = A1 @ X.reshape(m, d, -1)  # (..., m, nb, k): a_j . u_r per column
        c = (y - yhat)[..., None] * b * d2(H)  # resid * b_r * f''(z_jr)
        block = A1.swapaxes(-1, -2) @ (c.swapaxes(-1, -2)[..., None] * T) / nb  # (..., m, d, k)
        HX = gauss - block.reshape(gauss.shape) + lam * X
    else:
        phi2 = _margin(problem)[2]
        AX = A @ X
        if phi2 is not None:
            AX = phi2(problem, np.matmul(A, w[..., None])[..., 0], y)[..., None] * AX
        HX = A.swapaxes(-1, -2) @ AX / nb + lam * X
    return HX.reshape(w.shape[:-1] + v.shape)


def jacobian_apply(
    problem: Problem, w: np.ndarray, dataset: Dataset, batch: np.ndarray, eta: float, v: np.ndarray,
    solve: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Apply the SGD-step Jacobian (I - eta * P * batch Hessian) to ``v``.

    P is the preconditioner application ``solve`` (identity when None),
    given blocks (dim, k) or stacks of them.  ``v`` may be a block (dim, k);
    ``v = np.eye(dim)`` gives the dense J.  A stack ``w`` (K, dim) and
    ``batch`` (K, b) gives (K,) + v.shape, as in ``hvp``.
    """
    w, idx = _stack_args(w, batch, "jacobian_apply")
    v = np.asarray(v, dtype=float)
    if eta == 0.0:
        return np.broadcast_to(v, w.shape[:-1] + v.shape).copy()
    X = v.reshape(v.shape[0], -1)  # a vector as a block, so that ``solve`` sees blocks only
    h = hvp(problem, w, dataset, idx, X)
    return (X - eta * (h if solve is None else solve(h))).reshape(w.shape[:-1] + v.shape)


# --------------------------------------------------------------------------
# contraction propositions


class PropositionArgs(NamedTuple):
    """Inputs of a contraction proposition; m = M = 1 is plain SGD."""

    eta: float
    R: float  # data radius
    lam: float  # regularizer weight (lambda, or lambda_r for robust)
    C: float | None = None  # one-hidden-layer curvature constant
    rho: float = 0.0  # ||rho''||_inf, robust only
    sigma: float = 0.0  # smoothing width, svm only
    m: float = 1.0  # preconditioner eigenvalue bounds
    M: float = 1.0


@dataclass(frozen=True)
class Proposition:
    """One contraction proposition: hypotheses, factor Gamma, norm envelope.

    Each hypothesis is (relation, quantity, bound) and holds when
    args.<quantity> compares with bound(args) as the relation's operator
    says; a pair of relation texts gives the plain and the preconditioned
    wording.  ``gamma`` at the envelope radius is the upper envelope Gamma_i,
    and ``lower`` is gamma_i (plain kinds only).  The envelope radius is the
    batch radius R_i when ``batch_radius`` is set, else the global R.
    """

    hypotheses: tuple
    gamma: Callable[[PropositionArgs], float]
    lower: Callable[[PropositionArgs], float] | None = None
    batch_radius: bool = False


def violation(name: str, relation: str, value: float, bound: float) -> PreconditionViolation:
    return PreconditionViolation(
        f"{name}: requires {relation}, got value={value:.6g} vs bound={bound:.6g} "
        f"(margin {bound - value:.6g})"
    )


def require_hypotheses(name: str, hypotheses: tuple, args: PropositionArgs, precond: bool = False) -> None:
    """Check ``hypotheses`` in order; raise PreconditionViolation at the first that fails."""
    for relation, quantity, bound_of in hypotheses:
        if not isinstance(relation, str):
            relation = relation[precond]
        value, bound = getattr(args, quantity), bound_of(args)
        if not (value > bound if " > " in relation else value < bound):
            raise violation(name, relation, value, bound)


def _convex_gamma(a: PropositionArgs) -> float:
    return 1.0 - a.eta * a.lam / a.M


LAMBDA_POSITIVE = ("lambda > 0", "lam", lambda a: 0.0)
_LSQ = Proposition(
    ((("eta < 1/(R^2 + lambda)", "eta < m/(R^2 + lambda)"), "eta", lambda a: a.m / (a.R**2 + a.lam)),),
    gamma=_convex_gamma,
    lower=lambda a: 1.0 - a.eta * a.lam - a.eta * a.R**2,
    batch_radius=True,
)
_LOGISTIC = Proposition(
    (
        LAMBDA_POSITIVE,
        (("eta < 1/lambda", "eta < m/lambda"), "eta", lambda a: a.m / a.lam),
        (("R < 2 sqrt(lambda)", "R < 2 sqrt(m lambda / M)"), "R",
         lambda a: 2.0 * math.sqrt(a.m * a.lam / a.M)),
    ),
    gamma=lambda a: 1.0 - a.eta * a.lam / a.M + 0.25 * a.eta * a.R**2 / a.m,
    lower=lambda a: 1.0 - a.eta * a.lam - 0.25 * a.eta * a.R**2,
    batch_radius=True,
)
_ROBUST = Proposition(
    (
        LAMBDA_POSITIVE,
        (("eta < 1/(lambda_r + ||rho''|| R^2)", "eta < m/(lambda_r + ||rho''|| R^2)"), "eta",
         lambda a: a.m / (a.lam + a.rho * a.R**2)),
        (("R < sqrt(lambda_r / ||rho''||)", "R < sqrt(m lambda_r / (M ||rho''||))"), "R",
         lambda a: math.sqrt(a.m * a.lam / (a.M * a.rho))),
    ),
    gamma=lambda a: 1.0 - a.eta * a.lam / a.M + a.eta * a.rho * a.R**2 / a.m,
    lower=lambda a: 1.0 - a.eta * a.lam - a.eta * a.rho * a.R**2,
)
_SVM = Proposition(
    ((("eta < 1/(lambda + R^2/(4 sigma))", "eta < m/(lambda + R^2/(4 sigma))"), "eta",
      lambda a: a.m / (a.lam + a.R**2 / (4.0 * a.sigma))),),
    gamma=_convex_gamma,
    lower=lambda a: 1.0 - a.eta * a.lam - a.eta * a.R**2 / (4.0 * a.sigma),
)

# The 11 bound kinds.  Each plain family kind is its precond_* proposition at
# m = M = 1; the one-hidden-layer pair are two different propositions.
PROPOSITIONS: dict[str, Proposition] = {
    "lsq": _LSQ,
    "logistic": _LOGISTIC,
    "robust": _ROBUST,
    "svm": _SVM,
    "one_hidden": Proposition(
        (
            LAMBDA_POSITIVE,
            ("eta < 1/(2 lambda)", "eta", lambda a: 1.0 / (2.0 * a.lam)),
            ("C < lambda", "C", lambda a: a.lam),
        ),
        gamma=lambda a: 1.0 - a.eta * (a.lam - a.C),
        lower=lambda a: 1.0 - a.eta * (a.C + a.lam),
    ),
    "precond_lsq": _LSQ,
    "precond_logistic": _LOGISTIC,
    "precond_robust": _ROBUST,
    "precond_svm": _SVM,
    "precond_one_hidden": Proposition(
        (
            LAMBDA_POSITIVE,
            ("eta < m/(C + lambda)", "eta", lambda a: a.m / (a.C + a.lam)),
            ("lambda > (M/m) C", "lam", lambda a: (a.M / a.m) * a.C),
        ),
        gamma=lambda a: 1.0 - a.eta * (a.lam / a.M - a.C / a.m),
    ),
    "newton": Proposition((("eta < 1", "eta", lambda a: 1.0),), gamma=lambda a: 1.0 - a.eta),
}
_PROBLEM_KIND = {LeastSquares: "lsq", Logistic: "logistic", RobustRegression: "robust",
                 SmoothHingeSVM: "svm", OneHiddenLayer: "one_hidden"}


def _checked_proposition(problem: Problem, radius: float, eta: float, c_const: float | None):
    """The plain-SGD proposition for ``problem`` and its arguments, hypotheses checked."""
    kind = _PROBLEM_KIND.get(type(problem))
    if kind is None:
        raise ConfigError(f"unknown problem kind {type(problem).__name__}")
    if kind == "one_hidden" and c_const is None:
        raise ConfigError("one-hidden-layer envelopes need c_const (see compute_one_layer_C)")
    rho = problem.rho_double_sup() if kind == "robust" else 0.0
    sigma = problem.sigma_smooth if kind == "svm" else 0.0
    args = PropositionArgs(eta, radius, regularizer_weight(problem), c_const, rho, sigma)
    require_hypotheses(kind, PROPOSITIONS[kind].hypotheses, args)
    return PROPOSITIONS[kind], args


def check_step_size(problem: Problem, radius: float, eta: float, c_const: float | None = None) -> None:
    """Raise PreconditionViolation unless the proposition's hypotheses hold."""
    _checked_proposition(problem, radius, eta, c_const)


def norm_envelopes(
    problem: Problem,
    dataset: Dataset,
    scheme: "BatchScheme",
    eta: float,
    *,
    c_const: float | None = None,
) -> list[tuple[float, float]]:
    """Per-batch (gamma_i, Gamma_i) with gamma_i <= ||J_{h_i}(w)|| <= Gamma_i.

    Validity requires the proposition's step-size hypotheses, which are
    checked first (PreconditionViolation otherwise).  Least squares and
    logistic use per-batch radii R_i; robust and SVM use the global R,
    matching their proofs; the one-hidden-layer pair is batch-independent
    and needs the cloud constant ``c_const``.
    """
    batches = require_batch_table(scheme.batches, dataset.n)
    prop, args = _checked_proposition(problem, dataset.radius(), eta, c_const)
    out = []
    for batch in batches:
        at = args._replace(R=dataset.batch_radius(batch)) if prop.batch_radius else args
        out.append((prop.lower(at), prop.gamma(at)))
    return out


_C_CHUNK_BYTES = 1 << 17


def compute_one_layer_C(
    problem: OneHiddenLayer, dataset: Dataset, cloud_points: np.ndarray, *, stop_at: float = math.inf
) -> float:
    """Curvature-deviation constant C for the one-hidden-layer contraction.

    C = M_y * ||b||_inf * sup|act''| * R^2 + (max_j ||v_j||_inf)^2, with
    M_y and the v_j sup taken over all (cloud point, data row) pairs.
    Note the second term uses the entrywise max norm of v_j, following the
    source convention (exact only when v has a single entry; a loose
    surrogate for ||v||_2^2 otherwise).

    The cloud is scanned in chunks, in cloud order, as a running max; after
    each chunk the running C is formed with the expression above.  The scan
    stops at the first chunk where that value is >= ``stop_at``: the result
    is then a lower bound of C that is >= ``stop_at``, which is all that
    the hypothesis C < lambda needs to fail (pass ``stop_at=lam``).  Without
    an early stop the result is the exact C, independent of ``stop_at``.

    ``cloud_points`` is (N, m*d), or one point (m*d,); any other shape, an
    empty cloud or a non-finite point is a ConfigError.
    """
    pts = np.asarray(cloud_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    dim = param_dim(problem, dataset)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigError(
            f"compute_one_layer_C needs cloud points of shape (N, {dim}) for m={problem.hidden}, "
            f"d={dataset.d}; got shape {np.shape(cloud_points)}"
        )
    if pts.shape[0] == 0:
        raise ConfigError("compute_one_layer_C needs a nonempty cloud")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ConfigError(f"compute_one_layer_C needs a finite cloud; point {first} is not finite")
    sup2 = _ACTIVATIONS[problem.activation][3]
    A = dataset.features
    row_inf = np.abs(A).max(axis=1)
    R = dataset.radius()
    binf = float(np.abs(problem.out_array).max())
    # cloud points per chunk: each (chunk, n, m) temporary stays near 128 KiB.
    # Half a dozen coexist; at 1 MiB each the sweep's peak RSS rose by 4 MiB.
    chunk = max(1, _C_CHUNK_BYTES // (8 * A.shape[0] * problem.hidden))
    m_y = 0.0
    v_sup = 0.0
    for start in range(0, pts.shape[0], chunk):
        bvec, H, yhat, d1, _ = _mlp_parts(problem, pts[start : start + chunk], A)
        m_y = max(m_y, float(np.abs(dataset.targets - yhat).max()))
        # ||v_j||_inf = max_r |b_r f'(z_jr)| * ||a_j||_inf; one flat max over (point, j, r)
        v_sup = max(v_sup, float((np.abs(bvec * d1(H)) * row_inf[:, None]).max()))
        c = m_y * binf * sup2 * R**2 + v_sup**2
        if c >= stop_at:
            break
    return c
