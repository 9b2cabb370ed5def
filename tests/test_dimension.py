"""Box-counting estimates, closed-form dimension bounds, and the Rams ratio."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifslab.dimension import (
    BoxCountConfig,
    DimensionEstimate,
    RamsBound,
    analytic_bound,
    box_counting_dimension,
    cloud_extents,
    rams_ratio,
    subset_map_count,
)
from ifslab.errors import (
    ConfigError,
    InsufficientScales,
    NonContractiveEstimate,
    PreconditionViolation,
)
from ifslab.ifs import (AffineSystem, SampleCloud, SgdSystem, contractivity_report, norm_rounding,
                        sample_invariant)
from ifslab.optimizers import (
    PreconditionerSpec,
    build_precond_sgd_ifs,
    build_sgd_ifs,
    build_stoch_newton_ifs,
    partition_batches,
)
from ifslab.problems import Dataset, LeastSquares, Logistic, hvp


def scalar_system(slopes, offsets, probs):
    """The scalar affine maps w -> slopes[i] * w + offsets[i]."""
    return AffineSystem(np.reshape(slopes, (-1, 1, 1)), np.reshape(offsets, (-1, 1)), probs)


def cloud_of(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return SampleCloud(points=pts, burn_in=0, thin=1, seed=0)


def cantor_system():
    data = Dataset([[1.0], [1.0]], [0.0, 1.0])
    return build_sgd_ifs(LeastSquares(lam=0.0), data, partition_batches(2, 1), 2.0 / 3.0)


# ---------------------------------------------------------------------------
# analytic_bound: the closed-form table


def test_bound_least_squares_value():
    got = analytic_bound("lsq", n=1000, b=10, eta=0.1, lam=1.0, radius=1.0)
    assert got == pytest.approx(math.log(100.0) / math.log(1.0 / 0.9), rel=1e-12)
    assert got == pytest.approx(43.708, abs=1e-3)


def test_bound_logistic_value():
    got = analytic_bound("logistic", n=1000, b=10, eta=0.1, lam=1.0, radius=1.0)
    assert got == pytest.approx(math.log(100.0) / math.log(1.0 / 0.925), rel=1e-12)
    assert got == pytest.approx(59.069, abs=1e-3)


def test_bound_newton_value():
    got = analytic_bound("newton", n=1000, b=10, eta=0.5)
    assert got == pytest.approx(math.log(100.0) / math.log(2.0), rel=1e-12)
    assert got == pytest.approx(6.644, abs=1e-3)


def test_bound_precond_least_squares_value():
    got = analytic_bound(
        "precond_lsq", n=1000, b=10, eta=0.1, lam=1.0, radius=1.0, m_low=1.0, m_high=2.0
    )
    assert got == pytest.approx(math.log(100.0) / math.log(1.0 / 0.95), rel=1e-12)
    assert got == pytest.approx(89.781, abs=1e-3)


def test_bound_robust_value():
    # Gamma = 1 - eta*lam_r + 2*eta*R^2/t0 = 1 - 0.05 + 0.02 = 0.97
    got = analytic_bound("robust", n=100, b=1, eta=0.1, lam=0.5, radius=0.1, t0=0.1)
    assert got == pytest.approx(math.log(100.0) / math.log(1.0 / 0.97), rel=1e-12)


def test_bound_svm_value():
    got = analytic_bound("svm", n=100, b=1, eta=0.1, lam=1.0, radius=1.0, sigma_smooth=0.5)
    assert got == pytest.approx(math.log(100.0) / math.log(1.0 / 0.9), rel=1e-12)


def test_bound_one_hidden_value():
    # Gamma = 1 - eta (lam - C) = 1 - 0.1 * 0.6 = 0.94
    got = analytic_bound("one_hidden", n=100, b=1, eta=0.1, lam=1.0, c_const=0.4)
    assert got == pytest.approx(math.log(100.0) / math.log(1.0 / 0.94), rel=1e-12)


def test_bound_subset_count_override():
    got = analytic_bound("newton", n=6, b=2, eta=0.5, m_b=subset_map_count(6, 2))
    assert got == pytest.approx(math.log(15.0) / math.log(2.0), rel=1e-12)


def test_subset_map_count():
    assert subset_map_count(6, 2) == 15
    assert subset_map_count(5, 5) == 1
    assert subset_map_count(10, 3) == 120


def test_bound_violations_at_exact_boundaries():
    # LS: eta < 1/(R^2 + lam) = 0.5
    with pytest.raises(PreconditionViolation):
        analytic_bound("lsq", n=1000, b=10, eta=0.6, lam=1.0, radius=1.0)
    with pytest.raises(PreconditionViolation):
        analytic_bound("lsq", n=1000, b=10, eta=0.5, lam=1.0, radius=1.0)
    assert analytic_bound("lsq", n=1000, b=10, eta=0.5 - 1e-12, lam=1.0, radius=1.0) > 0
    # logistic: eta < 1/lam and R < 2 sqrt(lam)
    with pytest.raises(PreconditionViolation):
        analytic_bound("logistic", n=100, b=1, eta=1.0, lam=1.0, radius=1.0)
    with pytest.raises(PreconditionViolation):
        analytic_bound("logistic", n=100, b=1, eta=0.1, lam=1.0, radius=2.0)
    # newton: eta < 1
    with pytest.raises(PreconditionViolation):
        analytic_bound("newton", n=100, b=1, eta=1.0)
    # precond LS: eta < m/(R^2 + lam)
    with pytest.raises(PreconditionViolation):
        analytic_bound(
            "precond_lsq", n=100, b=1, eta=0.5, lam=1.0, radius=1.0, m_low=1.0, m_high=2.0
        )


def test_bound_violation_message_names_inequality():
    with pytest.raises(PreconditionViolation, match="eta < 1/\\(R\\^2 \\+ lambda\\)"):
        analytic_bound("lsq", n=1000, b=10, eta=0.6, lam=1.0, radius=1.0)


def test_bound_nonpositive_lambda_is_a_violation():
    for kind in ("lsq", "logistic", "svm", "one_hidden"):
        with pytest.raises(PreconditionViolation):
            analytic_bound(kind, n=100, b=1, eta=0.1, lam=0.0, radius=0.1, sigma_smooth=0.5)


def test_bound_robust_radius_condition():
    # R < sqrt(lam_r t0 / 2) = sqrt(0.025) ~ 0.158
    with pytest.raises(PreconditionViolation):
        analytic_bound("robust", n=100, b=1, eta=0.01, lam=0.5, radius=0.2, t0=0.1)


def test_bound_one_hidden_requires_c_below_lambda():
    with pytest.raises(PreconditionViolation):
        analytic_bound("one_hidden", n=100, b=1, eta=0.1, lam=0.5, c_const=0.5)


def test_bound_rejects_bad_sizes_and_kinds():
    with pytest.raises(ConfigError):
        analytic_bound("lsq", n=10, b=20, eta=0.1, lam=1.0)
    with pytest.raises(ConfigError):
        analytic_bound("ridge", n=10, b=2, eta=0.1, lam=1.0)
    with pytest.raises(ConfigError):
        analytic_bound("precond_lsq", n=10, b=2, eta=0.1, lam=1.0, m_low=0.0, m_high=1.0)


@pytest.mark.parametrize("kind, arg, value, message", [
    *[("lsq", name, math.nan, f"{name} must be finite")
      for name in ("eta", "lam", "radius", "t0", "sigma_smooth", "c_const", "m_low", "m_high")],
    ("lsq", "eta", math.inf, "eta must be finite"),
    ("lsq", "radius", -1.0, "radius must be >= 0"),
    ("one_hidden", "c_const", -0.1, "c_const must be >= 0"),
    ("svm", "sigma_smooth", 0.0, "sigma_smooth must be > 0"),
    ("lsq", "m_b", 0, "m_b must be a finite map count >= 1"),  # was a math domain error
    ("lsq", "m_b", math.nan, "m_b must be a finite map count >= 1"),
])
def test_bound_rejects_non_finite_or_negative_inputs(kind, arg, value, message):
    """Each used to end in a "margin nan" violation, return a bound, or (svm)
    fail in a check of its own."""
    args = dict(n=100, b=1, eta=0.1, lam=1.0, radius=0.5, sigma_smooth=0.5, c_const=0.4)
    with pytest.raises(ConfigError, match=message):
        analytic_bound(kind, **{**args, arg: value})


def test_bound_monotone_in_eta_b_n():
    etas = [0.05, 0.1, 0.2, 0.3, 0.4]
    vals = [analytic_bound("lsq", n=1000, b=10, eta=e, lam=1.0, radius=1.0) for e in etas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    bs = [1, 2, 5, 10, 25]
    vals = [analytic_bound("lsq", n=1000, b=b, eta=0.1, lam=1.0, radius=1.0) for b in bs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    ns = [100, 200, 500, 1000]
    vals = [analytic_bound("lsq", n=n, b=1, eta=0.1, lam=1.0, radius=1.0) for n in ns]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@settings(max_examples=40, deadline=None)
@given(
    eta=st.floats(1e-3, 0.45),
    lam=st.floats(0.1, 1.0),
    n=st.integers(2, 2000),
)
def test_bound_lsq_matches_closed_form(eta, lam, n):
    value = analytic_bound("lsq", n=n, b=1, eta=eta, lam=lam, radius=1.0)
    assert value == pytest.approx(math.log(n) / math.log(1.0 / (1.0 - eta * lam)), rel=1e-9)


def test_bound_precond_values_and_radius_caps():
    """Preconditioned kinds place m and M as their propositions state."""
    pre = dict(n=100, b=1, eta=0.1, m_low=0.5, m_high=2.0)
    for kind, kwargs, gamma in (
        # 1 - eta lam / M + eta R^2 / (4 m)
        ("precond_logistic", dict(lam=1.0, radius=0.5), 0.9625),
        # 1 - eta lam_r / M + eta (2/t0) R^2 / m
        ("precond_robust", dict(lam=0.5, radius=0.05, t0=0.1), 0.985),
        # 1 - eta lam / M
        ("precond_svm", dict(lam=1.0, radius=1.0, sigma_smooth=0.5), 0.95),
        # 1 - eta (lam / M - C / m)
        ("precond_one_hidden", dict(lam=1.0, c_const=0.2, m_high=1.0), 0.94),
    ):
        got = analytic_bound(kind, **{**pre, **kwargs})
        assert got == pytest.approx(math.log(100.0) / math.log(1.0 / gamma), rel=1e-12), kind
    # radius caps 2 sqrt(m lambda / M) = 1 and sqrt(m lambda_r t0 / (2 M)) ~ 0.079
    with pytest.raises(PreconditionViolation, match=r"R < 2 sqrt\(m lambda / M\)"):
        analytic_bound("precond_logistic", lam=1.0, radius=1.5, **pre)
    with pytest.raises(PreconditionViolation, match="R < sqrt"):
        analytic_bound("precond_robust", lam=0.5, radius=0.1, t0=0.1, **pre)


# ---------------------------------------------------------------------------
# rams_ratio


def test_rams_cantor_exact():
    bound = rams_ratio(cantor_system(), cloud_of(np.zeros(10)))
    assert bound.neg_entropy == pytest.approx(math.log(2.0), rel=1e-12)
    assert bound.mean_log_jacobian == pytest.approx(math.log(1.0 / 3.0), rel=1e-9)
    assert bound.ratio == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-6)


def test_rams_two_slope_hand_value():
    system = scalar_system([0.9, 0.8], [0.0, 0.1], np.array([0.5, 0.5]))
    bound = rams_ratio(system, cloud_of(np.zeros(5)))
    expected = math.log(2.0) / abs((math.log(0.9) + math.log(0.8)) / 2.0)
    assert bound.ratio == pytest.approx(expected, rel=1e-9)
    assert bound.ratio == pytest.approx(4.2200219129643197723, rel=1e-9)


def test_rams_noncontractive_raises():
    system = scalar_system([1.5, 1.2], [0.0, 0.1], np.array([0.5, 0.5]))
    with pytest.raises(NonContractiveEstimate):
        rams_ratio(system, cloud_of(np.zeros(5)))


@pytest.mark.parametrize("eta", [0.3, 0.5, 0.7, 0.9])
def test_rams_norm_neutral_maps_are_not_contractions(eta):
    """linreg2d's maps I - eta a a^T have norm exactly 1; their computed mean
    log norm is +-1e-16 of rounding, which used to read as a contraction at
    eta = 0.3 and 0.7 (ratio 7.2e16) and as an expansion at 0.5 and 0.9.
    The same steps as an SgdSystem, whose norms come from a Jacobian table,
    used to give 7.2e16 at eta = 0.3, 0.5 and 0.7."""
    from ifslab.experiments import UniformLinReg, generate_synthetic

    data = generate_synthetic(UniformLinReg(n=5, d=2), 0)
    scheme = partition_batches(5, 1)
    system = build_sgd_ifs(LeastSquares(lam=0.0), data, scheme, eta)
    report = contractivity_report(system)
    assert abs(report.mean_log) <= norm_rounding(2) and not report.contractive
    steps = SgdSystem(LeastSquares(lam=0.0), data, scheme.batches, eta, scheme.probs)
    cloud = cloud_of(np.random.default_rng(0).normal(size=(20, 2)))
    for system in (system, steps):
        with pytest.raises(NonContractiveEstimate, match="every map is norm-neutral"):
            rams_ratio(system, cloud)


def test_rams_cantor_preset_is_unchanged_by_the_rounding_bound():
    from ifslab.experiments import cantor_system as preset

    bound = rams_ratio(preset(2.0 / 3.0), cloud_of(np.zeros(10)))
    assert bound.ratio == pytest.approx(math.log(2.0) / math.log(3.0), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(2, 8),
    c=st.floats(0.05, 0.95),
    seed=st.integers(0, 1000),
)
def test_rams_similitudes_ignore_cloud(m, c, seed):
    rng = np.random.default_rng(seed)
    system = scalar_system([c] * m, [float(rng.uniform(-1, 1)) for _ in range(m)], np.full(m, 1.0 / m))
    cloud = cloud_of(rng.normal(size=17))
    bound = rams_ratio(system, cloud)
    assert bound.ratio == pytest.approx(math.log(m) / math.log(1.0 / c), abs=1e-6)


def test_rams_matches_lsq_analytic_bound():
    """For LS similitude systems the MC ratio equals the closed form."""
    rng = np.random.default_rng(0)
    # all rows unit norm -> every singleton-batch map has slope 1 - eta(lam + 1)
    feats = rng.normal(size=(4, 1))
    feats /= np.abs(feats)
    data = Dataset(feats, rng.uniform(-1, 1, size=4))
    system = build_sgd_ifs(LeastSquares(lam=0.5), data, partition_batches(4, 1), 0.2)
    bound = rams_ratio(system, cloud_of(np.zeros(8)))
    slope = 1.0 - 0.2 * (0.5 + 1.0)
    assert bound.ratio == pytest.approx(math.log(4.0) / math.log(1.0 / slope), rel=1e-6)


def test_rams_newton_eta_one_is_zero_ratio():
    """Every map is the zero matrix: mean log norm -inf, ratio 0 (was a math
    domain error from log 0)."""
    rng = np.random.default_rng(8)
    data = Dataset(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, size=4))
    system = build_stoch_newton_ifs(LeastSquares(lam=0.7), data, partition_batches(4, 2), 1.0)
    bound = rams_ratio(system, cloud_of(np.zeros((5, 2))))
    assert bound.mean_log_jacobian == -math.inf
    assert bound.ratio == 0.0


def logistic_rams_system(precond):
    rng = np.random.default_rng(31)
    d = 3
    data = Dataset(rng.uniform(-1, 1, size=(8, d)), rng.choice([-1.0, 1.0], size=8))
    problem, scheme = Logistic(lam=0.5), partition_batches(8, 4)  # full-rank batch Hessians
    if not precond:
        return build_sgd_ifs(problem, data, scheme, 0.6), None
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    P = Q @ np.diag([1.0, 2.0, 3.0]) @ Q.T
    spec = PreconditionerSpec(0.5 * (P + P.T), (1.0, 3.0))
    return build_precond_sgd_ifs(problem, data, scheme, 0.6, spec), spec.matrix


@pytest.mark.parametrize("precond", [False, True])
def test_rams_problem_backed_matches_dense_average(precond):
    """sum_i p_i mean_k log ||J_i(W_k)|| by hand: dense eigvalsh, or SVD when
    preconditioned, at the 5 strided points of a 17-point cloud."""
    system, P = logistic_rams_system(precond)
    cloud = sample_invariant(system, np.zeros(3), 100, 17, seed=2)
    points = cloud.points[[0, 3, 6, 10, 13]]
    mean_log = 0.0
    for p, batch in zip(system.probs, system.batches):
        logs = []
        for w in points:
            H = hvp(system.problem, w, system.dataset, batch, np.eye(3))
            if P is None:
                logs.append(math.log(np.abs(np.linalg.eigvalsh(np.eye(3) - 0.6 * H)).max()))
            else:
                J = np.eye(3) - 0.6 * np.linalg.solve(P, H)
                logs.append(math.log(np.linalg.svd(J, compute_uv=False)[0]))
        mean_log += p * sum(logs) / len(logs)
    bound = rams_ratio(system, cloud, n_w=5)
    assert bound.mean_log_jacobian == pytest.approx(mean_log, rel=1e-12, abs=1e-12)
    assert bound.n_mc_samples == 5


@pytest.mark.parametrize("n_w, points, message", [
    (0, np.zeros((10, 3)), "n_w must be a positive integer, got 0"),
    (-1, np.zeros((10, 3)), "n_w must be a positive integer, got -1"),
    (4, np.zeros((10, 2)), "cloud dimension 2 != parameter dimension 3"),
])
def test_rams_problem_backed_rejects_bad_n_w_and_cloud(n_w, points, message):
    """Were a ZeroDivisionError, a false NonContractiveEstimate and a numpy error."""
    system, _ = logistic_rams_system(False)
    with pytest.raises(ConfigError, match=message):
        rams_ratio(system, cloud_of(points), n_w=n_w)


# ---------------------------------------------------------------------------
# box_counting_dimension


def test_box_config_validation():
    with pytest.raises(ConfigError):
        BoxCountConfig(num_scales=3)
    with pytest.raises(ConfigError):
        BoxCountConfig(scale_ratio=1.0)
    with pytest.raises(ConfigError):
        BoxCountConfig(mass_truncation=1.0)
    with pytest.raises(ConfigError):
        BoxCountConfig(fit_range=(5, 3))
    with pytest.raises(ConfigError):
        BoxCountConfig(fit_range=(0, 13))
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ConfigError, match="coarsest_scale must be a finite number above 0"):
            BoxCountConfig(coarsest_scale=bad)


def test_box_uniform_interval():
    rng = np.random.default_rng(1)
    est = box_counting_dimension(cloud_of(rng.uniform(0, 1, size=200_000)))
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.ambient_dim == 1
    assert est.fit_r2 > 0.99


def test_box_segment_in_the_plane():
    rng = np.random.default_rng(2)
    t = rng.uniform(0, 1, size=200_000)
    pts = np.column_stack([t, np.full_like(t, 0.5)])
    est = box_counting_dimension(cloud_of(pts))
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.ambient_dim == 2


def test_box_cantor_cloud():
    cloud = sample_invariant(
        cantor_system(), np.array([0.0]), burn_in=1000, n_samples=300_000, seed=3
    )
    est = box_counting_dimension(cloud)
    assert est.value == pytest.approx(math.log(2.0) / math.log(3.0), abs=0.07)


def test_box_scaling_invariance():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=100_000)
    base = box_counting_dimension(cloud_of(pts)).value
    for factor in (0.1, 0.37, 10.0):
        scaled = box_counting_dimension(cloud_of(factor * pts)).value
        assert scaled == pytest.approx(base, abs=0.02)


def test_box_counts_monotone_and_exposed():
    rng = np.random.default_rng(5)
    est = box_counting_dimension(cloud_of(rng.uniform(0, 1, size=50_000)))
    scales = np.array(est.scales)
    counts = np.array(est.counts)
    assert np.all(np.diff(scales) < 0)  # finer and finer
    assert np.all(np.diff(counts) >= 0)  # more cells at finer scales
    assert len(scales) == len(counts)


def test_box_single_point_raises():
    with pytest.raises(InsufficientScales):
        box_counting_dimension(cloud_of(np.zeros(2000)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_rejects_non_finite_points(bad):
    pts = np.linspace(0.0, 1.0, 2000)
    pts[7] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        box_counting_dimension(cloud_of(pts))


def test_box_rejects_an_extent_past_float64():
    """Such a cloud used to end in a math domain error traceback."""
    pts = np.linspace(-1.0, 1.0, 2000) * 1.7e308
    with pytest.raises(ConfigError, match="cloud's extent overflows float64"):
        box_counting_dimension(cloud_of(pts))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("factor", [1e-200, 1e200])
def test_box_diameter_past_the_squared_range(d, factor):
    """The squared extent under- or overflows: at 1e-200 the cloud used to
    read as a single point, at 1e200 its diameter as inf.  The scaled norm
    reads the unscaled cloud's dimension."""
    pts = np.random.default_rng(17).uniform(0.0, 1.0, size=(5_000, d))
    base = box_counting_dimension(cloud_of(pts)).value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = box_counting_dimension(cloud_of(factor * pts)).value
    assert scaled == pytest.approx(base, abs=1e-9)


def test_box_saturation_can_exhaust_scales():
    # 1000 distinct points with a huge min_occupied guard: everything saturates
    pts = np.linspace(0.0, 1.0, 1000)
    with pytest.raises(InsufficientScales):
        box_counting_dimension(cloud_of(pts), BoxCountConfig(min_occupied=1, num_scales=4))


def test_box_fit_range_windows_the_fit():
    """100 clusters of width 1e-4: counts grow ~1/delta at coarse scales and
    plateau at ~100 once boxes separate the clusters, so the fitted slope
    depends on which scale window is selected."""
    rng = np.random.default_rng(6)
    centers = (np.arange(100) + 0.5) / 100.0
    pts = (centers[:, None] + rng.uniform(0, 1e-4, size=(100, 200))).ravel()
    cfg = dict(coarsest_scale=0.5, mass_truncation=0.0)
    coarse = box_counting_dimension(cloud_of(pts), BoxCountConfig(fit_range=(0, 5), **cfg))
    fine = box_counting_dimension(cloud_of(pts), BoxCountConfig(fit_range=(7, 12), **cfg))
    assert coarse.value > 0.7
    assert fine.value < 0.15


def test_box_exact_dyadic_lattice():
    # 2^14 points k/2^14 on [0, 1): counts at delta = 0.25 * 2^-j are exactly 2^(j+2)
    pts = np.linspace(0.0, 1.0, 2**14, endpoint=False)
    est = box_counting_dimension(
        cloud_of(pts), BoxCountConfig(coarsest_scale=0.25, mass_truncation=0.0)
    )
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.fit_r2 > 0.999999


def test_box_mass_truncation_drops_outlier_cells():
    rng = np.random.default_rng(7)
    pts = np.concatenate([rng.uniform(0, 1, size=20_000), [50.0]])
    plain = box_counting_dimension(
        cloud_of(pts), BoxCountConfig(coarsest_scale=1.0, mass_truncation=0.0)
    )
    trunc = box_counting_dimension(
        cloud_of(pts), BoxCountConfig(coarsest_scale=1.0, mass_truncation=0.01)
    )
    assert all(t <= p for t, p in zip(trunc.counts, plain.counts))


def test_box_value_clipped_to_ambient():
    rng = np.random.default_rng(8)
    est = box_counting_dimension(cloud_of(rng.uniform(0, 1, size=(60_000, 2))))
    assert 0.0 <= est.value <= 2.0
    assert est.value == pytest.approx(2.0, abs=0.1)


def test_dimension_estimate_json_keys():
    rng = np.random.default_rng(9)
    est = box_counting_dimension(cloud_of(rng.uniform(0, 1, size=30_000)))
    blob = est.to_json_dict()
    assert set(blob) == {"value", "scales", "counts", "fit_r2"}
    assert all(isinstance(c, int) for c in blob["counts"])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_box_counts_monotone_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2000, 8000))
    pts = rng.normal(size=n) * float(rng.uniform(0.5, 3.0))
    est = box_counting_dimension(
        cloud_of(pts), BoxCountConfig(mass_truncation=0.0, min_occupied=1_000_000)
    )
    assert np.all(np.diff(np.array(est.counts)) >= 0)


def test_empirical_dimension_below_analytic_bound():
    """Contractive LS chains: box estimate <= min(d, closed-form bound) + slack."""
    data = Dataset([[1.0], [1.0]], [0.0, 1.0])
    system = build_sgd_ifs(LeastSquares(lam=0.1), data, partition_batches(2, 1), 0.3)
    cloud = sample_invariant(system, np.array([0.0]), burn_in=500, n_samples=100_000, seed=10)
    est = box_counting_dimension(cloud)
    bound = analytic_bound("lsq", n=2, b=1, eta=0.3, lam=0.1, radius=1.0)
    assert est.value <= min(1.0, bound) + 0.1


# ---------------------------------------------------------------------------
# one-sort box counting: bit-equal to counting each scale on its own


def reference_occupied_count(pts, mins, delta, mass_truncation):
    """The per-scale count as box counting did it before the one-sort path."""
    idx = np.floor((pts - mins) / delta).astype(np.int64)
    if idx.shape[1] == 1:
        codes = idx[:, 0]
    else:
        dims = idx.max(axis=0) + 1
        if float(np.prod(dims.astype(float))) < 2**62:
            codes = np.ravel_multi_index(idx.T, dims)
        else:
            _, counts = np.unique(idx, axis=0, return_counts=True)
            return reference_truncate(counts, pts.shape[0], mass_truncation)
    _, counts = np.unique(codes, return_counts=True)
    return reference_truncate(counts, pts.shape[0], mass_truncation)


def distinct_tuple_count(pts, mins, delta, mass_truncation):
    """The per-scale count from the distinct cell index tuples themselves,
    counted by a Counter: no cell codes and no ``np.unique``."""
    idx = np.floor((pts - mins) / delta).astype(np.int64)
    counts = np.array(list(Counter(map(tuple, idx.tolist())).values()))
    return reference_truncate(counts, pts.shape[0], mass_truncation)


def reference_truncate(counts, n_points, mass_truncation):
    if mass_truncation == 0.0:
        return int(len(counts))
    order = np.sort(counts)
    cum = np.cumsum(order)
    k_drop = int(np.searchsorted(cum, mass_truncation * n_points, side="right"))
    return int(len(counts) - min(k_drop, len(counts) - 1))


@pytest.fixture
def per_scale_calls(monkeypatch):
    """Records each call of the per-scale counter."""
    from ifslab import dimension

    calls = []
    inner = dimension._occupied_count
    monkeypatch.setattr(dimension, "_occupied_count", lambda *args: calls.append(1) or inner(*args))
    return calls


def scale_deltas(pts, config):
    extent = pts.max(axis=0) - pts.min(axis=0)
    delta0 = config.coarsest_scale or float(np.linalg.norm(extent)) / 4.0
    return [delta0 * config.scale_ratio**j for j in range(config.num_scales)]


def bits(a):
    return a.view(f"u{a.itemsize}")


def assert_extents_match_axis_reductions(pts):
    """cloud_extents is bit-equal to the axis-0 reductions, dtype included."""
    mins, maxs = cloud_extents(pts)
    for got, want in ((mins, pts.min(axis=0)), (maxs, pts.max(axis=0))):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(bits(got), bits(want))


def all_scale_counts(pts, config):
    """Counts at every scale, before the saturation filter, and their reference."""
    from ifslab import dimension

    assert_extents_match_axis_reductions(pts)
    mins = pts.min(axis=0)
    extent = pts.max(axis=0) - mins
    deltas = scale_deltas(pts, config)
    got = dimension._scale_counts(pts, mins, extent, deltas, config.scale_ratio, config.mass_truncation)
    want = [reference_occupied_count(pts, mins, d, config.mass_truncation) for d in deltas]
    return got, want


def linreg2d_cloud(eta, n_samples):
    from ifslab.experiments import UniformLinReg, generate_synthetic

    data = generate_synthetic(UniformLinReg(n=5, d=2), 3)
    system = build_sgd_ifs(LeastSquares(lam=0.0), data, partition_batches(data.n, 1), eta)
    return sample_invariant(system, np.zeros(2), burn_in=2000, n_samples=n_samples, seed=3).points


def dyadic_lattice(dim, bits):
    axis = np.arange(2**bits) / 2**bits
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def random_pattern_box(dim, n, seed):
    """Doubles of random sign and mantissa with exponents 2^-30 .. 2^3."""
    rng = np.random.default_rng(seed)
    sign = rng.integers(0, 2, size=(n, dim), dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1023 - 30, 1023 + 4, size=(n, dim), dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, size=(n, dim), dtype=np.uint64)
    return (sign | exponent | mantissa).view(np.float64)


def uniform_box(dim):
    return np.random.default_rng(12 + dim).uniform(-1.0, 3.0, size=(20_000, dim))


# name -> (cloud builder, coarsest_scale); None keeps the default diameter / 4
ONE_SORT_CLOUDS = {
    "cantor": (lambda: sample_invariant(
        cantor_system(), np.array([0.0]), burn_in=1000, n_samples=60_000, seed=3).points, None),
    **{f"linreg2d-{eta}": (lambda eta=eta: linreg2d_cloud(eta, 40_000), None)
       for eta in (0.3, 0.5, 0.7, 0.9)},
    **{f"lattice-{dim}d-{tag}": (lambda dim=dim, bits=bits: dyadic_lattice(dim, bits), coarsest)
       for dim, bits in ((1, 14), (2, 7), (3, 5)) for tag, coarsest in (("dyadic", 0.25), ("default", None))},
    **{f"patterns-{dim}d": (lambda dim=dim: random_pattern_box(dim, 20_000, dim), None) for dim in (1, 2, 3)},
    # a coarsest scale far below the extent 4: 22-bit finest indices (19 in 3-D)
    **{f"fine-coarsest-{dim}d": (lambda dim=dim: uniform_box(dim), 2e-3 if dim < 3 else 2e-2)
       for dim in (1, 2, 3)},
}


@pytest.mark.parametrize("name", list(ONE_SORT_CLOUDS))
def test_one_sort_counts_match_per_scale_counts(per_scale_calls, name):
    build, coarsest = ONE_SORT_CLOUDS[name]
    pts = build()
    for mass_truncation in (0.0, 0.01):
        config = BoxCountConfig(coarsest_scale=coarsest, mass_truncation=mass_truncation)
        got, want = all_scale_counts(pts, config)
        assert got == want
    assert not per_scale_calls


@pytest.mark.parametrize("mass_truncation", [0.0, 0.01])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("extra_bit", [0, 1])
def test_one_sort_bit_budget_edge(per_scale_calls, dim, extra_bit, mass_truncation):
    """A finest index of exactly 62 // d bits per axis takes the one-sort
    path; one bit more counts each scale on its own, with equal counts."""
    bits = 62 // dim + extra_bit
    rng = np.random.default_rng(dim)
    pts = np.vstack([np.zeros(dim), np.ones(dim), rng.uniform(0.0, 1.0, size=(5_000, dim))])
    finest = 0.75 * 2.0 ** -(bits - 1)  # the unit extent spans 1.33 * 2^(bits-1) cells
    config = BoxCountConfig(coarsest_scale=finest * 2.0**11, mass_truncation=mass_truncation)
    assert int(1.0 / finest).bit_length() == bits
    got, want = all_scale_counts(pts, config)
    assert got == want
    assert bool(per_scale_calls) == bool(extra_bit)


@pytest.mark.parametrize("pts, config", [
    (np.random.default_rng(13).uniform(size=(5_000, 2)), BoxCountConfig(scale_ratio=0.3)),
    (np.random.default_rng(14).uniform(size=(5_000, 8)), BoxCountConfig()),
    # a subnormal finest delta, 1e-306 / 2^11
    (np.random.default_rng(16).uniform(size=(5_000, 1)) * 1e-300, BoxCountConfig(coarsest_scale=1e-306)),
    (np.random.default_rng(17).uniform(size=(5_000, 2)).astype(np.float32), BoxCountConfig()),
], ids=["ratio-0.3", "8d", "subnormal-finest", "float32"])
def test_other_grids_count_each_scale(per_scale_calls, pts, config):
    """Each scale's count is also the number of distinct index tuples.  The
    8-D cloud is past 2^62 cells at its 4 finest scales, where the counter
    takes ``np.unique`` over index rows."""
    got, want = all_scale_counts(pts, config)
    assert got == want
    assert len(per_scale_calls) == config.num_scales
    mins = pts.min(axis=0)
    assert got == [distinct_tuple_count(pts, mins, d, config.mass_truncation) for d in scale_deltas(pts, config)]


def signed_zero_columns():
    """Columns of +0 and -0 in both orders, alone and beside other values."""
    z, n = 0.0, -0.0
    cols = [[z, n, z, n], [n, z, n, z], [n, n, n, n], [z, z, z, z], [1.0, n, z, -1.0], [n, 2.0, z, 3.0]]
    pts = np.array(cols).T
    return np.vstack([pts, pts[::-1]] * 20)


def nan_columns(dim):
    pts = np.random.default_rng(dim).normal(size=(1_000, dim))
    pts[17, 0] = np.nan
    pts[:, -1] = np.nan
    pts[3, dim // 2] = -np.nan
    return pts


@pytest.mark.parametrize("pts", [
    *[np.random.default_rng(dim).normal(size=(3_001, dim)) for dim in (1, 2, 3, 32)],
    np.random.default_rng(9).normal(size=(2_000, 2)).astype(np.float32),
    np.random.default_rng(9).integers(-5, 1 << 40, size=(2_000, 3)),
    signed_zero_columns(),
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    *[nan_columns(dim) for dim in (1, 2, 3, 32)],
    np.array([[np.inf, -np.inf], [1.0, 2.0]]),
    np.ones((1, 5)),
], ids=["1d", "2d", "3d", "32d", "float32", "int64", "signed-zeros", "two-signed-zeros",
        "nan-1d", "nan-2d", "nan-3d", "nan-32d", "infs", "one-row"])
def test_cloud_extents_match_axis_reductions(pts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_extents_match_axis_reductions(pts)


@pytest.mark.parametrize("config", [
    BoxCountConfig(coarsest_scale=1e-300),
    BoxCountConfig(num_scales=2000),
    BoxCountConfig(num_scales=100, scale_ratio=0.6),
    BoxCountConfig(coarsest_scale=0.9 * 2.0 ** (11 - 63)),  # 1.1 * 2^63 finest cells per axis
], ids=["tiny-coarsest", "underflow", "ratio-0.6", "just-past-int64"])
def test_box_rejects_a_grid_past_int64(config):
    """Such a grid used to end in a ValueError from np.ravel_multi_index."""
    pts = np.vstack([np.zeros(2), np.ones(2), np.random.default_rng(15).uniform(size=(2_000, 2))])
    with pytest.raises(ConfigError, match="box-count grid too fine: the finest delta .* cells per axis"):
        box_counting_dimension(cloud_of(pts), config)
