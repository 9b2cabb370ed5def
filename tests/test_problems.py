"""Loss families: exact values, derivative oracles, envelopes, CSV loading."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROBLEM_KINDS, fd_grad, fd_hvp, make_problem_config
from ifslab.dimension import analytic_bound
from ifslab import problems as pr
from ifslab.errors import ConfigError, PreconditionViolation
from ifslab.optimizers import partition_batches
from ifslab.problems import (
    Dataset,
    LeastSquares,
    Logistic,
    OneHiddenLayer,
    RobustRegression,
    SmoothHingeSVM,
    check_step_size,
    compute_one_layer_C,
    grad,
    hvp,
    jacobian_apply,
    load_dataset_csv,
    loss,
    norm_envelopes,
    param_dim,
    require_pm1_labels,
)

# ---------------------------------------------------------------------------
# point values


def test_least_squares_loss_at_origin():
    data = Dataset([[1.0, 0.0]], [1.0])
    assert loss(LeastSquares(lam=0.5), np.zeros(2), data, 0) == pytest.approx(0.5, abs=1e-15)


def test_logistic_loss_at_origin():
    data = Dataset([[1.0, 0.0]], [1.0])
    assert loss(Logistic(lam=1.0), np.zeros(2), data, 0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_svm_loss_at_margin():
    # z = y a.w = 1, ||w|| = 1: l_sig(1) + lam/2 = log 2 + 0.5
    data = Dataset([[1.0, 0.0]], [1.0])
    w = np.array([1.0, 0.0])
    value = loss(SmoothHingeSVM(lam=1.0, sigma_smooth=1.0), w, data, 0)
    assert value == pytest.approx(1.1931471805599453, rel=1e-15)


def test_least_squares_grad_single_point():
    data = Dataset([[1.0, 0.0]], [0.0])
    g = grad(LeastSquares(lam=0.0), np.array([2.0, 3.0]), data, np.array([0]))
    np.testing.assert_allclose(g, [2.0, 0.0], atol=1e-15)


def test_logistic_grad_at_origin():
    data = Dataset([[1.0, 0.0]], [1.0])
    g = grad(Logistic(lam=0.0), np.zeros(2), data, np.array([0]))
    np.testing.assert_allclose(g, [-0.5, 0.0], atol=1e-15)


def test_least_squares_hvp():
    data = Dataset([[1.0, 0.0]], [0.3])
    out = hvp(LeastSquares(lam=0.5), np.zeros(2), data, np.array([0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [1.5, 0.5], atol=1e-15)


def test_logistic_hvp_quarter_curvature():
    data = Dataset([[1.0, 0.0]], [1.0])
    out = hvp(Logistic(lam=0.0), np.zeros(2), data, np.array([0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [0.25, 0.0], atol=1e-15)


def test_jacobian_apply_identity_at_zero_step():
    problem, dataset, w, batch = make_problem_config("robust", seed=5)
    v = np.linspace(-1.0, 1.0, w.size)
    np.testing.assert_array_equal(jacobian_apply(problem, w, dataset, batch, 0.0, v), v)


def test_jacobian_apply_least_squares_example():
    data = Dataset([[1.0, 0.0]], [0.0])
    out = jacobian_apply(
        LeastSquares(lam=0.5), np.zeros(2), data, np.array([0]), 0.1, np.array([1.0, 1.0])
    )
    np.testing.assert_allclose(out, [0.85, 0.95], atol=1e-15)


# ---------------------------------------------------------------------------
# derivative oracles (small sweep here; the acceptance suite runs 100/family)


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
@pytest.mark.parametrize("seed", range(10))
def test_grad_matches_finite_differences(kind, seed):
    problem, dataset, w, batch = make_problem_config(kind, seed)
    g = grad(problem, w, dataset, batch)
    fd = fd_grad(problem, w, dataset, batch)
    assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
@pytest.mark.parametrize("seed", range(10))
def test_hvp_matches_grad_differences(kind, seed):
    problem, dataset, w, batch = make_problem_config(kind, seed)
    rng = np.random.default_rng(1000 + seed)
    v = rng.normal(size=w.size)
    out = hvp(problem, w, dataset, batch, v)
    fd = fd_hvp(problem, w, dataset, batch, v)
    assert np.linalg.norm(out - fd) <= 1e-5 * (1.0 + np.linalg.norm(out))


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
@pytest.mark.parametrize("seed", range(10))
def test_hessian_symmetry(kind, seed):
    problem, dataset, w, batch = make_problem_config(kind, seed)
    rng = np.random.default_rng(2000 + seed)
    u = rng.normal(size=w.size)
    v = rng.normal(size=w.size)
    huv = float(hvp(problem, w, dataset, batch, u) @ v)
    hvu = float(hvp(problem, w, dataset, batch, v) @ u)
    assert abs(huv - hvu) <= 1e-10 * (1.0 + abs(huv))


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
@pytest.mark.parametrize("seed", range(10))
def test_block_hvp_matches_columns(kind, seed):
    problem, dataset, w, batch = make_problem_config(kind, seed)
    rng = np.random.default_rng(3000 + seed)
    V = rng.normal(size=(w.size, 5))
    block = hvp(problem, w, dataset, batch, V)
    cols = np.stack([hvp(problem, w, dataset, batch, V[:, k]) for k in range(5)], axis=1)
    assert block.shape == V.shape
    np.testing.assert_allclose(block, cols, rtol=0.0, atol=1e-13 * (1.0 + np.abs(cols).max()))
    eye = np.eye(w.size)
    J = jacobian_apply(problem, w, dataset, batch, 0.3, eye)
    np.testing.assert_allclose(J, eye - 0.3 * hvp(problem, w, dataset, batch, eye), atol=1e-15)


def reference_student():
    """The reference sweep's student (dim 32) on its training data."""
    from ifslab.experiments import _student_problem, generate_synthetic, reference_sweep_config

    cfg = reference_sweep_config()
    return _student_problem(cfg), generate_synthetic(cfg.data, cfg.seed)


@pytest.mark.parametrize("K", [1, 2, 6])
@pytest.mark.parametrize("b", [16, 32])
def test_stacked_grad_rows_equal_solo_grad_bits(K, b):
    problem, data = reference_student()
    rng = np.random.default_rng(100 * K + b)
    W = rng.normal(size=(K, param_dim(problem, data)))
    batches = np.stack(partition_batches(data.n, b).batches)[rng.integers(0, data.n // b, size=K)]
    G = grad(problem, W, data, batches)
    assert G.shape == W.shape
    for k in range(K):
        solo = grad(problem, W[k], data, batches[k])
        assert np.array_equal(G[k].view(np.uint64), solo.view(np.uint64))


def masked_sigmoid(x):
    """The logistic function as once written, with boolean masks: the oracle
    for ``problems._sigmoid``."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def same_bits_or_both_nan(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    same_nan = np.array_equal(nan, np.isnan(b))
    return same_nan and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def test_sigmoid_equals_the_masked_formula(monkeypatch):
    """The mask-free sigmoid gives the masked formula's value for every input
    (a NaN may differ only in its sign bit), so the margin derivatives of
    logistic and SVM and the sigmoid activation keep their bits."""
    edges = [0.0, -0.0, 1e-300, -1e-300, 20.0, -20.0, 709.0, -709.0, 745.0, -745.0,
             math.inf, -math.inf, math.nan]
    x = np.concatenate([edges, 30.0 * np.random.default_rng(16).normal(size=100_000)])
    assert same_bits_or_both_nan(pr._sigmoid(x), masked_sigmoid(x))

    rng = np.random.default_rng(17)
    data = Dataset(rng.normal(size=(40, 3)), rng.choice([-1.0, 1.0], size=40))
    w, v, batch = 30.0 * rng.normal(size=3), rng.normal(size=3), np.arange(5, 29)
    net = OneHiddenLayer(lam=0.1, out_weights=(1.0, -0.5, 2.0), activation="sigmoid")
    w_net = 30.0 * rng.normal(size=param_dim(net, data))
    glms = [Logistic(lam=0.3), SmoothHingeSVM(lam=0.3, sigma_smooth=0.05)]

    def outputs():
        glm = [(grad(p, w, data, batch), hvp(p, w, data, batch, v)) for p in glms]
        return glm + [grad(net, w_net, data, batch)]

    new = outputs()
    monkeypatch.setattr(pr, "_sigmoid", masked_sigmoid)
    monkeypatch.setitem(pr._ACTIVATIONS, "sigmoid", (masked_sigmoid,) + pr._ACTIVATIONS["sigmoid"][1:])
    for got, want in zip(new, outputs()):
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


@pytest.mark.parametrize("kind", [k for k in PROBLEM_KINDS if k != "one_hidden"])
def test_stacked_grad_rejects_mismatched_glm_stacks(kind):
    """A GLM family takes a stack too, but only w (K, dim) with batch (K, b)."""
    problem, dataset, w, batch = make_problem_config(kind, 0)
    G = grad(problem, np.stack([w, -w]), dataset, np.stack([batch, batch]))
    assert G.shape == (2, w.size)
    for w_, batch_ in [(w, np.stack([batch, batch])), (np.stack([w, w]), batch),
                       (np.stack([w, w, w]), np.stack([batch, batch]))]:
        with pytest.raises(ConfigError, match="stacked grad needs"):
            grad(problem, w_, dataset, batch_)


def solo_glm_grad(problem, w, A, y):
    """The GLM batch gradient A^T phi'(A w, y) / b + lam w as written for one
    chain before ``grad_rows`` took stacks: the oracle of its bits."""
    return A.T @ pr._margin(problem)[1](problem, A @ w, y) / y.shape[0] + pr.regularizer_weight(problem) * w


GLM_FAMILIES = {
    "logistic": Logistic(lam=0.3),
    "svm": SmoothHingeSVM(lam=0.2, sigma_smooth=0.4),
    "exp_squared": RobustRegression(lam_r=0.1, t0=1.5),
    "tukey": RobustRegression(lam_r=0.1, t0=1.5, rho="tukey"),
    "least_squares": LeastSquares(lam=0.05),
}


@pytest.mark.parametrize("family", list(GLM_FAMILIES))
@pytest.mark.parametrize("d", [1, 2, 3, 17, 65])
@pytest.mark.parametrize("b", [1, 2, 16])
def test_stacked_glm_grad_rows_equal_the_solo_bits(family, d, b):
    """Each row of a stacked GLM ``grad_rows`` is bit-equal to the solo call,
    and that to the one-chain formula, at stack sizes 1, 3 and 64."""
    problem = GLM_FAMILIES[family]
    rng = np.random.default_rng(1000 * d + b)
    for K in (1, 3, 64):
        A = rng.normal(size=(K, b, d))
        y = rng.choice([-1.0, 1.0], size=(K, b)) if family in ("logistic", "svm") else rng.normal(size=(K, b))
        W = 2.0 * rng.normal(size=(K, d))
        G = pr.grad_rows(problem, W, A, y)
        assert G.shape == (K, d)
        for k in range(K):
            solo = pr.grad_rows(problem, W[k], A[k], y[k])
            assert np.array_equal(G[k].view(np.uint64), solo.view(np.uint64))
            assert np.array_equal(solo.view(np.uint64), solo_glm_grad(problem, W[k], A[k], y[k]).view(np.uint64))


def solo_mlp_grad(problem, w, A, y):
    """The one-hidden-layer batch gradient as a plain expression for one
    chain: with output weights b, H = act(A W^T) and residuals r = H b - y
    on nb rows, it is (r b act'(H))^T A / nb + lam w, act' = 1 - H^2 (tanh)
    or H (1 - H) (sigmoid).  The oracle of ``grad_rows``' bits."""
    b = np.array(problem.out_weights, dtype=float)
    W = w.reshape(len(b), A.shape[1])
    if problem.activation == "tanh":
        H = np.tanh(A @ W.T)
        d1 = 1.0 - H**2
    else:
        H = masked_sigmoid(A @ W.T)
        d1 = H * (1.0 - H)
    coef = (H @ b - y)[:, None] * (b * d1)
    return (coef.T @ A).reshape(-1) / y.shape[0] + problem.lam * w


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
@pytest.mark.parametrize("lam", [0.0, 0.001])
@pytest.mark.parametrize("b", [1, 3, 16])
def test_mlp_grad_rows_equal_the_plain_expression_bits(activation, lam, b):
    """Solo ``grad_rows`` of a one-hidden-layer net, and each row of a stack
    of 1, 2 or 6, is bit-equal to the plain expression (at b = 3, 1/b is
    not a power of two, so a changed division shows)."""
    problem = OneHiddenLayer(lam=lam, out_weights=pr.alternating_out_weights(8, 3.0), activation=activation)
    rng = np.random.default_rng(10 * b + (activation == "tanh"))
    for K in (1, 2, 6):
        A, y = rng.normal(size=(K, b, 4)), rng.normal(size=(K, b))
        W = 0.5 * rng.normal(size=(K, 32))
        G = pr.grad_rows(problem, W, A, y)
        for k in range(K):
            want = solo_mlp_grad(problem, W[k], A[k], y[k])
            assert same_bits(pr.grad_rows(problem, W[k], A[k], y[k]), want)
            assert same_bits(G[k], want)


def test_stacked_grad_rejects_mismatched_leading_shapes():
    problem, data = reference_student()
    dim = param_dim(problem, data)
    batches = np.arange(48).reshape(3, 16)
    for w, batch in [
        (np.zeros((2, dim)), batches),  # 2 chains, 3 batches
        (np.zeros(dim), batches),  # one w, a stack of batches
        (np.zeros((3, dim)), batches[0]),  # a stack of w, one batch
        (np.zeros((1, 3, dim)), batches[None]),  # a stack of stacks
    ]:
        with pytest.raises(ConfigError, match="stacked grad needs"):
            grad(problem, w, data, batch)


HVP_FAMILIES = dict(
    GLM_FAMILIES,
    one_hidden_sigmoid=OneHiddenLayer(lam=0.01, out_weights=(1.5, -0.7), activation="sigmoid"),
    one_hidden_tanh=OneHiddenLayer(lam=0.01, out_weights=(1.5, -0.7), activation="tanh"),
)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("family", list(GLM_FAMILIES) + ["one_hidden_tanh", "one_hidden_sigmoid"])
def test_consecutive_gradients_share_no_memory(family):
    """Each ``grad`` and ``grad_rows`` call returns its own array: a second
    call, solo or stacked, leaves the first result as it was."""
    problem = HVP_FAMILIES[family]
    rng = np.random.default_rng(23)
    data = Dataset(rng.normal(size=(20, 3)), rng.choice([-1.0, 1.0], size=20))
    dim = param_dim(problem, data)
    W, batches = rng.normal(size=(2, dim)), np.array([[0, 3, 5], [7, 9, 11]])
    A, y = data.rows(batches)
    for first, second in [
        (lambda: grad(problem, W[0], data, batches[0]), lambda: grad(problem, W[1], data, batches[1])),
        (lambda: grad(problem, W, data, batches), lambda: grad(problem, -W, data, batches)),
        (lambda: pr.grad_rows(problem, W[0], A[0], y[0]), lambda: pr.grad_rows(problem, W[1], A[1], y[1])),
        (lambda: pr.grad_rows(problem, W, A, y), lambda: pr.grad_rows(problem, -W, A, y)),
    ]:
        g1 = first()
        kept = g1.copy()
        g2 = second()
        assert not np.shares_memory(g1, g2)
        assert same_bits(g1, kept) and not same_bits(g2, kept)


def solo_hvp(problem, w, data, batch, v):
    """The batch Hessian product as written for one point before ``hvp``
    took stacks: the oracle of its bits."""
    A, y = data.rows(batch)
    nb, lam = len(batch), pr.regularizer_weight(problem)
    if isinstance(problem, OneHiddenLayer):
        b, H, yhat, d1, d2 = pr._mlp_parts(problem, w, A)
        m, d = problem.hidden, A.shape[1]
        X = v.reshape(m * d, -1)
        V = ((b[None, :] * d1(H))[:, :, None] * A[:, None, :]).reshape(nb, -1)
        gauss = V.T @ (V @ X) / nb
        T = A @ X.reshape(m, d, -1)
        c = (y - yhat)[:, None] * b[None, :] * d2(H)
        block = A.T @ (c.T[:, :, None] * T) / nb
        return (gauss - block.reshape(m * d, -1) + lam * X).reshape(v.shape)
    phi2 = pr._margin(problem)[2]
    Av = A @ v
    if phi2 is not None:
        coef = phi2(problem, A @ w, y)
        Av = coef.reshape(coef.shape + (1,) * (v.ndim - 1)) * Av
    return A.T @ Av / nb + lam * v


@pytest.mark.parametrize("family", list(HVP_FAMILIES))
@pytest.mark.parametrize("d", [1, 2, 3, 17])
@pytest.mark.parametrize("b", [1, 2, 16, 32])
def test_stacked_hvp_rows_equal_the_solo_bits(family, d, b):
    """Entry k of a stacked ``hvp`` and ``jacobian_apply`` is bit-equal to the
    solo call on w[k] and batch[k], and that to the one-point formula, for a
    vector, a block and the identity, at eta = 0 and 0.3, with and without a
    preconditioner."""
    from ifslab.optimizers import PreconditionerSpec

    problem = HVP_FAMILIES[family]
    rng = np.random.default_rng(100 * d + b)
    n = 40
    y = rng.choice([-1.0, 1.0], size=n) if family in ("logistic", "svm") else rng.normal(size=n)
    data = Dataset(rng.normal(size=(n, d)), y)
    dim = param_dim(problem, data)
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    spec = PreconditionerSpec(Q @ np.diag(np.linspace(1.0, 3.0, dim)) @ Q.T, (1.0 - 1e-9, 3.0 + 1e-9))
    K = 5
    W = rng.normal(size=(K, dim))
    idx = np.stack([rng.choice(n, size=b, replace=False) for _ in range(K)])
    for v in (rng.normal(size=dim), rng.normal(size=(dim, 3)), np.eye(dim)):
        H = hvp(problem, W, data, idx, v)
        assert H.shape == (K,) + v.shape
        for k in range(K):
            assert same_bits(H[k], hvp(problem, W[k], data, idx[k], v))
            assert same_bits(H[k], solo_hvp(problem, W[k], data, idx[k], v))
        for eta in (0.0, 0.3):
            for solve in (None, spec.solve):
                J = jacobian_apply(problem, W, data, idx, eta, v, solve)
                for k in range(K):
                    assert same_bits(J[k], jacobian_apply(problem, W[k], data, idx[k], eta, v, solve))


@pytest.mark.parametrize("family", ["logistic", "one_hidden_tanh"])
def test_stacked_hvp_rejects_mismatched_stacks(family):
    problem = HVP_FAMILIES[family]
    data = Dataset(np.ones((6, 2)), np.ones(6))
    dim = param_dim(problem, data)
    batches = np.arange(6).reshape(3, 2)
    v = np.eye(dim)
    for w, batch in [
        (np.zeros((2, dim)), batches),  # 2 points, 3 batches
        (np.zeros(dim), batches),  # one point, a stack of batches
        (np.zeros((3, dim)), batches[0]),  # a stack of points, one batch
        (np.zeros((1, 3, dim)), batches[None]),  # a stack of stacks
    ]:
        with pytest.raises(ConfigError, match="stacked hvp needs"):
            hvp(problem, w, data, batch, v)
        for eta in (0.0, 0.3):  # eta = 0 skips the product but not the check
            with pytest.raises(ConfigError, match="stacked jacobian_apply needs"):
                jacobian_apply(problem, w, data, batch, eta, v)


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_regularizer_dominance_with_zero_features(kind):
    """With features zeroed the Hessian collapses to lambda*I exactly."""
    problem, dataset, w, batch = make_problem_config(kind, seed=3)
    zeroed = Dataset(np.zeros_like(dataset.features), dataset.targets)
    lam = problem.lam_r if isinstance(problem, RobustRegression) else problem.lam
    v = np.linspace(1.0, 2.0, w.size)
    np.testing.assert_array_equal(hvp(problem, w, zeroed, batch, v), lam * v)


# ---------------------------------------------------------------------------
# envelopes


def _envelope_problem(kind, seed):
    """A config whose step size respects the per-kind envelope hypothesis."""
    problem, dataset, w, batch = make_problem_config(kind, seed)
    R = dataset.radius()
    if isinstance(problem, LeastSquares):
        problem = LeastSquares(lam=max(problem.lam, 0.1))
        cap = 1.0 / (R**2 + problem.lam)
    elif isinstance(problem, Logistic):
        lam = max(problem.lam, 0.3 * R**2)  # keep R < 2 sqrt(lam)
        problem = Logistic(lam=lam)
        cap = 1.0 / lam
    elif isinstance(problem, RobustRegression):
        t0 = max(problem.t0, 3.0 * R**2 / problem.lam_r)  # keep R < sqrt(lam_r t0 / 2)
        problem = RobustRegression(lam_r=problem.lam_r, t0=t0, rho=problem.rho)
        cap = 1.0 / (problem.lam_r + 2.0 * R**2 / t0)
    elif isinstance(problem, SmoothHingeSVM):
        cap = 1.0 / (problem.lam + R**2 / (4.0 * problem.sigma_smooth))
    else:
        raise ValueError(kind)
    rng = np.random.default_rng(seed + 77)
    eta = float(rng.uniform(0.2, 0.9)) * cap
    return problem, dataset, w, eta


@pytest.mark.parametrize("kind", ("least_squares", "logistic", "robust", "svm"))
def test_envelopes_bracket_jacobian_norms(kind):
    """gamma_i - tol <= ||J v|| <= Gamma_i + tol over random unit directions."""
    checks = 0
    for seed in range(5):
        problem, dataset, w, eta = _envelope_problem(kind, seed)
        scheme = partition_batches(dataset.n, 1)
        pairs = norm_envelopes(problem, dataset, scheme, eta)
        rng = np.random.default_rng(seed)
        for i, batch in enumerate(scheme.batches):
            gamma, upper = pairs[i]
            for _ in range(40):
                v = rng.normal(size=w.size)
                v /= np.linalg.norm(v)
                nrm = np.linalg.norm(jacobian_apply(problem, w, dataset, batch, eta, v))
                assert nrm <= upper + 1e-9
                assert nrm >= gamma - 1e-9
                checks += 1
    assert checks >= 1000


def test_envelopes_least_squares_values():
    data = Dataset([[0.6, 0.0], [0.0, 1.0]], [0.2, -0.4])
    scheme = partition_batches(2, 1)
    pairs = norm_envelopes(LeastSquares(lam=1.0), data, scheme, 0.1)
    assert pairs[0] == pytest.approx((0.9 - 0.1 * 0.36, 0.9), rel=1e-12)
    assert pairs[1] == pytest.approx((0.9 - 0.1 * 1.0, 0.9), rel=1e-12)


def test_envelopes_violation_past_step_cap():
    data = Dataset([[1.0]], [1.0])
    scheme = partition_batches(1, 1)
    with pytest.raises(PreconditionViolation):
        norm_envelopes(LeastSquares(lam=1.0), data, scheme, 0.6)


def test_envelopes_one_hidden_needs_c_const():
    data = Dataset([[1.0]], [1.0])
    scheme = partition_batches(1, 1)
    problem = OneHiddenLayer(lam=1.0, out_weights=(1.0,))
    with pytest.raises(ConfigError):
        norm_envelopes(problem, data, scheme, 0.1)
    lo, hi = norm_envelopes(problem, data, scheme, 0.1, c_const=0.5)[0]
    assert (lo, hi) == pytest.approx((1.0 - 0.1 * 1.5, 1.0 - 0.1 * 0.5), rel=1e-12)


def test_envelopes_zero_lambda():
    """Caps that divide by lambda raise a typed violation; least squares needs none."""
    data = Dataset([[0.6, 0.0], [0.0, 1.0]], [1.0, -1.0])
    scheme = partition_batches(2, 1)
    for problem in (Logistic(lam=0.0), OneHiddenLayer(lam=0.0, out_weights=(1.0,))):
        with pytest.raises(PreconditionViolation, match="lambda > 0"):
            norm_envelopes(problem, data, scheme, 0.1, c_const=0.5)
    pairs = norm_envelopes(LeastSquares(lam=0.0), data, scheme, 0.1)
    assert pairs == [(1.0 - 0.1 * 0.36, 1.0), (1.0 - 0.1 * 1.0, 1.0)]


def test_bound_nonpositive_lambda_checked_before_caps():
    """lambda <= 0 is named before a cap divides by R^2 + lambda or takes a square root."""
    for kind in ("lsq", "robust", "svm", "precond_lsq", "precond_robust"):
        for lam in (0.0, -0.5):
            with pytest.raises(PreconditionViolation, match="lambda > 0"):
                analytic_bound(
                    kind, n=10, b=1, eta=0.1, lam=lam, radius=0.0, t0=0.1, sigma_smooth=0.5,
                    m_low=1.0, m_high=2.0,
                )


def test_robust_step_size_check_names_lambda_first():
    """lambda_r <= 0 is named before the radius cap takes sqrt(lambda_r / ||rho''||)
    or the step cap divides by lambda_r + ||rho''|| R^2."""
    data = Dataset([[1.0], [-1.0]], [0.0, 1.0])
    scheme = partition_batches(2, 1)
    for lam_r, radius in ((-0.1, 0.5), (0.0, 0.0)):
        problem = RobustRegression(lam_r=lam_r, t0=1.0)
        with pytest.raises(PreconditionViolation, match="lambda > 0"):
            check_step_size(problem, radius, 0.01)
    with pytest.raises(PreconditionViolation, match="lambda > 0"):
        norm_envelopes(RobustRegression(lam_r=-0.1, t0=1.0), data, scheme, 0.01)


def _accepts(check) -> bool:
    try:
        check()
    except PreconditionViolation:
        return False
    return True


def test_step_size_check_agrees_with_analytic_bound():
    """With lambda > 0 the hypotheses imply 0 < Gamma < 1, so both accept the same inputs."""
    rng = np.random.default_rng(5)
    outcomes = {}
    for _ in range(400):
        lam, t0, sigma = rng.uniform(0.01, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
        eta, R, C = 10 ** rng.uniform(-3.0, 0.5), rng.uniform(0.0, 2.5), rng.uniform(0.0, 2.0)
        for kind, problem in (
            ("lsq", LeastSquares(lam=lam)),
            ("logistic", Logistic(lam=lam)),
            ("robust", RobustRegression(lam_r=lam, t0=t0)),
            ("svm", SmoothHingeSVM(lam=lam, sigma_smooth=sigma)),
            ("one_hidden", OneHiddenLayer(lam=lam, out_weights=(1.0,))),
        ):
            by_check = _accepts(lambda: check_step_size(problem, R, eta, c_const=C))
            by_bound = _accepts(lambda: analytic_bound(
                kind, n=100, b=1, eta=eta, lam=lam, radius=R, t0=t0, sigma_smooth=sigma, c_const=C
            ))
            assert by_check == by_bound, (kind, lam, t0, sigma, eta, R, C)
            outcomes.setdefault(kind, set()).add(by_check)
    assert all(seen == {True, False} for seen in outcomes.values())

    # Tukey's rho has ||rho''|| = 6/t0^2, which check_step_size takes from the
    # problem; analytic_bound("robust") is the exponential-squared rho (2/t0).
    tukey = RobustRegression(lam_r=0.5, t0=0.1, rho="tukey")
    with pytest.raises(PreconditionViolation, match=r"R < sqrt\(lambda_r / \|\|rho''\|\|\)") as info:
        check_step_size(tukey, 0.1, 0.1)
    assert "bound=0.0288675" in str(info.value)
    check_step_size(RobustRegression(lam_r=0.5, t0=0.1), 0.1, 0.1)
    value = analytic_bound("robust", n=100, b=1, eta=0.1, lam=0.5, radius=0.1, t0=0.1)
    assert value == pytest.approx(151.19, abs=0.01)


# ---------------------------------------------------------------------------
# one-hidden-layer curvature constant


def test_one_layer_c_zero_output_weights():
    data = Dataset([[1.0]], [1.0])
    problem = OneHiddenLayer(lam=0.1, out_weights=(0.0, 0.0))
    assert compute_one_layer_C(problem, data, np.zeros((1, 2))) == 0.0


def test_one_layer_c_hand_value():
    # sigmoid, m=1, b=1, a=(1,), y=1, w=0: M_y=0.5, sup|f''|=1/(6 sqrt 3),
    # ||v||_inf = f'(0) = 1/4  ->  C = 0.5/(6 sqrt 3) + 1/16
    data = Dataset([[1.0]], [1.0])
    problem = OneHiddenLayer(lam=0.1, out_weights=(1.0,), activation="sigmoid")
    c = compute_one_layer_C(problem, data, np.zeros((1, 1)))
    assert c == pytest.approx(0.5 / (6.0 * math.sqrt(3.0)) + 0.0625, rel=1e-12)


def test_one_layer_c_monotone_in_cloud():
    problem, dataset, w, _ = make_problem_config("one_hidden", seed=11)
    rng = np.random.default_rng(4)
    cloud = rng.normal(size=(30, w.size))
    c_small = compute_one_layer_C(problem, dataset, cloud[:10])
    c_full = compute_one_layer_C(problem, dataset, cloud)
    assert c_full >= c_small


def chunked_c_case():
    """n = 256 rows and m = 8 units: the C scan takes 8 cloud points a chunk."""
    rng = np.random.default_rng(21)
    dataset = Dataset(rng.uniform(-1, 1, size=(256, 4)), rng.uniform(-1, 1, size=256))
    problem = OneHiddenLayer(lam=0.01, out_weights=(3.0, -3.0) * 4, activation="tanh")
    return problem, dataset, rng.normal(scale=0.5, size=(300, 32))


def test_one_layer_c_chunks_match_point_loop():
    """Chunked evaluation equals the per-point loop it replaced (1e-12 rel)."""
    problem, dataset, cloud = chunked_c_case()
    b = np.asarray(problem.out_weights)
    A = dataset.features
    m_y = v_sup = 0.0
    for w in cloud:
        Z = A @ w.reshape(8, 4).T
        m_y = max(m_y, float(np.abs(dataset.targets - np.tanh(Z) @ b).max()))
        per_row = np.abs(b * (1.0 - np.tanh(Z) ** 2)).max(axis=1) * np.abs(A).max(axis=1)
        v_sup = max(v_sup, float(per_row.max()))
    sup2 = 4.0 / (3.0 * math.sqrt(3.0))
    expected = m_y * 3.0 * sup2 * dataset.radius() ** 2 + v_sup**2
    assert compute_one_layer_C(problem, dataset, cloud) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.99999])
def test_one_layer_c_stop_below_c_is_the_scanned_prefix(monkeypatch, fraction):
    problem, dataset, cloud = chunked_c_case()
    full = compute_one_layer_C(problem, dataset, cloud)
    first = compute_one_layer_C(problem, dataset, cloud[:8])
    stop = first + fraction * (full - first)
    assert stop < full
    counts, parts = [], pr._mlp_parts  # the point count of each chunk read
    monkeypatch.setattr(pr, "_mlp_parts", lambda problem, w, A: counts.append(len(w)) or parts(problem, w, A))
    early = compute_one_layer_C(problem, dataset, cloud, stop_at=stop)
    scanned = sum(counts)
    assert set(counts) == {8} and scanned < len(cloud)
    assert stop <= early <= full
    assert early == compute_one_layer_C(problem, dataset, cloud[:scanned])
    if scanned > 8:  # the scan stopped at the first chunk that met stop_at
        assert compute_one_layer_C(problem, dataset, cloud[: scanned - 8]) < stop


def test_one_layer_c_stop_at_or_above_c_is_c():
    problem, dataset, cloud = chunked_c_case()
    full = compute_one_layer_C(problem, dataset, cloud)
    for stop in (full, math.nextafter(full, math.inf), 2.0 * full, math.nan):
        assert compute_one_layer_C(problem, dataset, cloud, stop_at=stop) == full


def test_one_layer_c_single_point_is_one_row():
    problem, dataset, cloud = chunked_c_case()
    assert compute_one_layer_C(problem, dataset, cloud[3]) == compute_one_layer_C(problem, dataset, cloud[3:4])


@pytest.mark.parametrize("rows, message", [
    (slice(None), "point 0 is not finite"),  # a running max from 0.0 would read C = 0
    (slice(13, 20), "point 13 is not finite"),  # and would skip a NaN chunk, reading C low
])
def test_one_layer_c_rejects_non_finite_cloud(rows, message):
    problem, dataset, cloud = chunked_c_case()
    cloud[rows] = math.nan
    cloud[250, 0] = math.inf
    with pytest.raises(ConfigError, match=message):
        compute_one_layer_C(problem, dataset, cloud)


@pytest.mark.parametrize("shape", [(2, 2, 4), (3, 5), (5,), (0,)])
def test_one_layer_c_rejects_cloud_shape(shape):
    data = Dataset([[1.0, 0.5], [-0.5, 1.0]], [1.0, -1.0])
    problem = OneHiddenLayer(lam=0.1, out_weights=(1.0, -1.0), activation="tanh")  # points of width 4
    with pytest.raises(ConfigError, match=rf"shape \(N, 4\).*got shape {re.escape(str(shape))}"):
        compute_one_layer_C(problem, data, np.full(shape, 0.1))


def test_one_layer_out_array_built_once_read_only():
    problem = OneHiddenLayer(lam=0.1, out_weights=(1.0, -0.5, 2.0))
    b = problem.out_array
    assert b is problem.out_array and not b.flags.writeable
    assert b.dtype == np.float64 and b.tolist() == [1.0, -0.5, 2.0]
    twin = OneHiddenLayer(lam=0.1, out_weights=(1.0, -0.5, 2.0))
    assert twin == problem and hash(twin) == hash(problem)


# ---------------------------------------------------------------------------
# dataset plumbing


def test_dataset_radius():
    data = Dataset([[3.0, 4.0], [1.0, 0.0]], [0.0, 0.0])
    assert data.radius() == pytest.approx(5.0, rel=1e-15)
    assert data.batch_radius(np.array([1])) == pytest.approx(1.0, rel=1e-15)


def test_pm1_label_validation():
    data = Dataset([[1.0]], [0.5])
    with pytest.raises(ConfigError):
        require_pm1_labels(data, "logistic")


def test_param_dim_one_hidden_layer():
    data = Dataset([[1.0, 2.0, 3.0]], [1.0])
    problem = OneHiddenLayer(lam=0.1, out_weights=(1.0, -1.0))
    assert param_dim(problem, data) == 6


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: RobustRegression(lam_r=0.5, t0=0.0), "t0"),
        (lambda: RobustRegression(lam_r=0.5, t0=-1.0, rho="tukey"), "t0"),
        (lambda: RobustRegression(lam_r=0.5, t0=math.nan), "t0"),
        (lambda: RobustRegression(lam_r=0.5, t0=1.0, rho="huber"), "rho"),
        (lambda: SmoothHingeSVM(lam=0.5, sigma_smooth=0.0), "sigma_smooth"),
        (lambda: SmoothHingeSVM(lam=0.5, sigma_smooth=-0.5), "sigma_smooth"),
        (lambda: OneHiddenLayer(lam=0.1, out_weights=(1.0,), activation="relu"), "activation"),
    ],
    ids=["t0=0", "tukey-t0=-1", "t0=nan", "rho=huber", "sigma=0", "sigma=-0.5", "relu"],
)
def test_problem_rejects_parameters_outside_its_formulas(make, field):
    # t0 <= 0 made the robust chains overflow; sigma_smooth <= 0 gave a NaN or
    # a finite but meaningless R; unknown rho/activation failed only when used
    with pytest.raises(ConfigError, match=field):
        make()


def test_csv_loader_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,x1,y\n0.5,-0.25,1\n-1,0.125,-1\n")
    data = load_dataset_csv(str(path))
    np.testing.assert_array_equal(data.features, [[0.5, -0.25], [-1.0, 0.125]])
    np.testing.assert_array_equal(data.targets, [1.0, -1.0])


def test_csv_loader_reports_bad_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,y\n1.0,2.0\nbogus,3.0\n")
    with pytest.raises(ConfigError, match="row 3"):
        load_dataset_csv(str(path))


def test_csv_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        load_dataset_csv(str(path))


def test_csv_loader_reads_crlf_line_endings(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"x0,x1,y\r\n0.5,-0.25,1\r\n-1,0.125,-1\r\n")
    data = load_dataset_csv(str(path))
    np.testing.assert_array_equal(data.features, [[0.5, -0.25], [-1.0, 0.125]])
    np.testing.assert_array_equal(data.targets, [1.0, -1.0])


# ---------------------------------------------------------------------------
# property sweeps


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PROBLEM_KINDS))
def test_grad_oracle_property(seed, kind):
    problem, dataset, w, batch = make_problem_config(kind, seed)
    g = grad(problem, w, dataset, batch)
    fd = fd_grad(problem, w, dataset, batch)
    assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(g))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(PROBLEM_KINDS))
def test_loss_is_finite_and_regularized(seed, kind):
    problem, dataset, w, batch = make_problem_config(kind, seed)
    values = [loss(problem, w, dataset, int(j)) for j in batch]
    assert np.isfinite(values).all()
    lam = problem.lam_r if isinstance(problem, RobustRegression) else problem.lam
    # every data term in these families is nonnegative, so each per-example
    # loss is at least the (lam/2)||w||^2 regularizer
    assert min(values) >= 0.5 * lam * float(w @ w) - 1e-12
