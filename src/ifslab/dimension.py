"""Fractal-dimension estimates: box counting, closed-form bounds, Rams ratio.

The box counter snaps points to grids anchored at the cloud's coordinate-wise
minimum at geometrically shrinking scales and fits log counts against
log(1/delta).  At the default scale ratio 0.5 every scale's cell index is the
finest cell's index shifted right by the scale's number of halvings, exactly
in float64; for 1- to 3-D clouds whose finest index fits in 62 // d bits per
axis, the counts of every scale come from one sort of the finest cells'
Morton codes (run lengths, merged scale by scale).  Any other grid floors and
sorts the whole cloud again at each scale.  The analytic bounds evaluate
log(n/b)/log(1/Gamma) with each proposition's contraction factor Gamma, read
from ``problems.PROPOSITIONS``.
The Rams ratio divides selection entropy by the mean log Jacobian norm under
the sampled invariant measure: ``ifs.contractivity_report``'s for affine
systems, else the mean of ``complexity.log_norm_table``, the table behind R.

All bounds are treated as upper bounds only; no tightness is claimed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .complexity import PowerIterConfig, log_norm_table
from .errors import ConfigError, InsufficientScales, NonContractiveEstimate
from .ifs import AffineSystem, IfsSystem, SampleCloud, contractivity_report, norm_rounding
from .optimizers import require_batch_size
from .problems import (
    LAMBDA_POSITIVE,
    PROPOSITIONS,
    PropositionArgs,
    RobustRegression,
    SmoothHingeSVM,
    require_hypotheses,
    violation,
)

# --------------------------------------------------------------------------
# box counting


@dataclass(frozen=True)
class BoxCountConfig:
    num_scales: int = 12
    scale_ratio: float = 0.5
    coarsest_scale: Optional[float] = None  # delta_0; default diameter/4
    mass_truncation: float = 0.01  # drop lowest-count cells up to this point mass
    min_occupied: int = 10  # saturation guard: counts > sqrt(N)*min_occupied
    fit_range: Optional[tuple[int, int]] = None  # half-open scale-index window

    def __post_init__(self):
        if self.num_scales < 4:
            raise ConfigError("num_scales must be at least 4")
        if not 0.0 < self.scale_ratio < 1.0:
            raise ConfigError("scale_ratio must lie in (0, 1)")
        if self.coarsest_scale is not None and not 0.0 < self.coarsest_scale < math.inf:
            raise ConfigError(
                f"coarsest_scale must be a finite number above 0, got {self.coarsest_scale}"
            )
        if not 0.0 <= self.mass_truncation < 1.0:
            raise ConfigError("mass_truncation must lie in [0, 1)")
        if self.min_occupied < 1:
            raise ConfigError("min_occupied must be a positive integer")
        if self.fit_range is not None:
            lo, hi = self.fit_range
            if not (0 <= lo < hi <= self.num_scales):
                raise ConfigError("fit_range must satisfy 0 <= lo < hi <= num_scales")


@dataclass
class DimensionEstimate:
    value: float  # slope clipped to [0, ambient]
    scales: tuple[float, ...]  # the deltas that survived saturation
    counts: tuple[int, ...]  # truncated occupied-cell counts at those deltas
    fit_r2: float
    raw_slope: float  # unclipped diagnostic
    ambient_dim: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "scales": list(self.scales),
            "counts": [int(c) for c in self.counts],
            "fit_r2": self.fit_r2,
        }


def _cloud_points(cloud: Union[SampleCloud, np.ndarray]) -> np.ndarray:
    pts = cloud.points if isinstance(cloud, SampleCloud) else np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ConfigError("cloud must be a nonempty (N, d) array")
    if not np.isfinite(pts).all():
        raise ConfigError("cloud has non-finite points (nan or inf)")
    return pts


def cloud_extents(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise (minimum, maximum) of an (N, d) array, in its dtype.

    Bit-equal to ``pts.min(axis=0)`` and ``pts.max(axis=0)``, signed zeros
    and NaN propagation included.
    """
    # One reduction per column: min and max of a C-ordered float64 (1e5, 2)
    # array over axis 0 take 5.0 ms, its columns' 0.36 ms; 7x at (1e5, 3),
    # equal at (3e5, 1), 0.15 ms slower at (2000, 32) (Xeon x86-64, numpy 2.4).
    mins = np.array([col.min() for col in pts.T], dtype=pts.dtype)
    maxs = np.array([col.max() for col in pts.T], dtype=pts.dtype)
    return mins, maxs


def _occupied_count(pts: np.ndarray, mins: np.ndarray, delta: float, mass_truncation: float) -> int:
    idx = np.floor((pts - mins) / delta).astype(np.int64)
    if idx.shape[1] == 1:
        codes = idx[:, 0]
    else:
        dims = np.array([col.max() for col in idx.T]) + 1  # per column, as in cloud_extents
        if float(np.prod(dims.astype(float))) < 2**62:
            codes = np.ravel_multi_index(idx.T, dims)
        else:  # 2^62 cells or more, as at the fine scales of clouds of about 6-D and up
            # (an 8-D cloud of 2,000 uniform points: 4 of the 12 default scales; 32-D: 9)
            _, counts = np.unique(idx, axis=0, return_counts=True)
            return _truncate(counts, pts.shape[0], mass_truncation)
    _, counts = np.unique(codes, return_counts=True)
    return _truncate(counts, pts.shape[0], mass_truncation)


def _truncate(counts: np.ndarray, n_points: int, mass_truncation: float) -> int:
    """Drop lowest-count cells while the removed mass stays <= the budget."""
    if mass_truncation == 0.0:
        return int(len(counts))
    order = np.sort(counts)
    cum = np.cumsum(order)
    k_drop = int(np.searchsorted(cum, mass_truncation * n_points, side="right"))
    return int(len(counts) - min(k_drop, len(counts) - 1))


# (shift, mask) steps spreading an index's bits d apart: 31 bits in 2-D, 20 in 3-D
_SPREAD = {
    1: (),
    2: ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333), (1, 0x5555555555555555)),
    3: ((32, 0x001F00000000FFFF), (16, 0x001F0000FF0000FF), (8, 0x100F00F00F00F00F),
        (4, 0x10C30C30C30C30C3), (2, 0x1249249249249249)),
}


def _run_starts(codes: np.ndarray) -> np.ndarray:
    """Start of each run of equal values in a sorted array."""
    new = np.empty(len(codes), dtype=bool)
    new[0] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    return np.flatnonzero(new)


def _one_sort_counts(
    pts: np.ndarray, mins: np.ndarray, finest: float, num_scales: int, mass_truncation: float
) -> list[int]:
    """Truncated counts at finest * 2**k, k = num_scales-1 .. 0, from one sort.

    Bit b of every axis's finest index sits at bits [d*b, d*b + d) of the
    Morton code, so dropping the lowest d bits halves every axis: the sorted
    codes shifted right stay sorted, and each scale's cells and counts are the
    finer scale's runs merged.
    """
    n, d = pts.shape
    codes = None
    for axis in range(d):  # one column at a time: in 1-D the index itself is the code
        idx = np.floor((pts[:, axis] - mins[axis]) / finest).astype(np.int64)
        for shift, mask in _SPREAD[d]:
            idx |= idx << shift
            idx &= mask
        if codes is None:
            codes = idx
        else:
            idx <<= axis
            codes |= idx
    codes.sort()
    starts = _run_starts(codes)
    cell_counts = np.diff(starts, append=n)
    cells = codes[starts]
    counts = [_truncate(cell_counts, n, mass_truncation)]
    for _ in range(num_scales - 1):
        cells >>= d
        starts = _run_starts(cells)
        cell_counts = np.add.reduceat(cell_counts, starts)
        cells = cells[starts]
        counts.append(_truncate(cell_counts, n, mass_truncation))
    return counts[::-1]


def _scale_counts(
    pts: np.ndarray, mins: np.ndarray, extent: np.ndarray, deltas: list[float],
    scale_ratio: float, mass_truncation: float,
) -> list[int]:
    """Truncated occupied-cell counts at every delta, coarsest first.

    At ratio 0.5 with a normal finest delta, on a float64 cloud (the
    arithmetic the per-scale count does), delta_j is the finest delta
    times 2**(J-j) exactly, so each quotient (p - min)/delta_j is the finest
    quotient over 2**(J-j) exactly and its floor is the finest index shifted
    right by J-j: one sort of Morton codes gives every scale.  That holds in
    1-3 dimensions while the finest index fits in 62 // d bits per axis;
    every other grid counts each scale on its own.
    """
    finest = deltas[-1]
    per_axis = float(extent.max()) / finest if finest > 0.0 else math.inf
    if not per_axis < 2.0**63:
        raise ConfigError(
            f"box-count grid too fine: the finest delta {finest:.6g} needs {per_axis + 1:.6g} "
            "cells per axis, past the int64 index range; raise coarsest_scale or lower num_scales"
        )
    d = pts.shape[1]
    if (
        scale_ratio == 0.5
        and d in _SPREAD
        and pts.dtype == np.float64
        and finest >= sys.float_info.min
        and per_axis < 2.0 ** (62 // d)
    ):
        return _one_sort_counts(pts, mins, finest, len(deltas), mass_truncation)
    return [_occupied_count(pts, mins, delta, mass_truncation) for delta in deltas]


def box_counting_dimension(
    cloud: Union[SampleCloud, np.ndarray], config: BoxCountConfig = BoxCountConfig()
) -> DimensionEstimate:
    """Box-counting (Minkowski) dimension of a sample cloud.

    Grids are anchored at the coordinate-wise minimum of ``cloud_extents``
    (one reduction per column); delta_j =
    delta_0 * ratio^j; the coarsest scale defaults to a quarter of the
    bounding-box diagonal.  Scales whose counts exceed sqrt(N)*min_occupied
    are discarded as saturated (too few points per box for a measure
    estimate); the slope is fitted over ``fit_range`` intersected with the
    survivors, defaulting to the middle six surviving scales.

    At the default ratio 0.5, a 1- to 3-D cloud whose finest cell index fits
    in 62 // d bits per axis is floored once at the finest scale and sorted
    once by Morton code; every coarser scale's counts are the run lengths of
    the codes shifted right, bit-equal to counting each scale on its own.
    Other ratios, other dimensions and finer grids count each scale on its
    own.  A finest grid whose index would pass int64 is a ConfigError.
    """
    pts = _cloud_points(cloud)
    n_points, ambient = pts.shape
    mins, maxs = cloud_extents(pts)
    with np.errstate(over="ignore"):
        extent = maxs - mins
        if not np.isfinite(extent).all():
            raise ConfigError("cloud's extent overflows float64; rescale the points")
        diameter = float(np.linalg.norm(extent))
    if not (math.isfinite(diameter) and diameter >= sys.float_info.min):
        # the norm squares the extent, which under- or overflows past about 1e±154
        top = float(extent.max())
        diameter = top * float(np.linalg.norm(extent / top)) if top > 0.0 else 0.0
    if diameter == 0.0:
        raise InsufficientScales("cloud is a single point; no scales to fit")
    delta0 = config.coarsest_scale if config.coarsest_scale is not None else diameter / 4.0

    deltas = [delta0 * config.scale_ratio**j for j in range(config.num_scales)]
    counts = _scale_counts(pts, mins, extent, deltas, config.scale_ratio, config.mass_truncation)
    saturation = math.sqrt(n_points) * config.min_occupied
    surviving = [j for j in range(config.num_scales) if counts[j] <= saturation]
    if len(surviving) < 4:
        raise InsufficientScales(
            f"only {len(surviving)} scales survive the saturation filter (need 4)"
        )
    if config.fit_range is None:
        if len(surviving) > 6:
            start = (len(surviving) - 6) // 2
            window = surviving[start : start + 6]
        else:
            window = surviving
    else:
        lo, hi = config.fit_range
        window = [j for j in surviving if lo <= j < hi]
        if len(window) < 2:
            raise InsufficientScales("fit_range intersects fewer than 2 surviving scales")

    x = np.array([math.log(1.0 / deltas[j]) for j in window])
    y = np.array([math.log(counts[j]) for j in window])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    fit_r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    value = min(max(float(slope), 0.0), float(ambient))
    return DimensionEstimate(
        value=value,
        scales=tuple(deltas[j] for j in surviving),
        counts=tuple(counts[j] for j in surviving),
        fit_r2=fit_r2,
        raw_slope=float(slope),
        ambient_dim=ambient,
    )


# --------------------------------------------------------------------------
# closed-form dimension bounds


def analytic_bound(
    kind: str,
    *,
    n: int,
    b: int,
    eta: float,
    lam: float = 0.0,
    radius: float = 0.0,
    t0: float = 0.0,
    sigma_smooth: float = 0.0,
    c_const: float = 0.0,
    m_low: float = 0.0,
    m_high: float = 0.0,
    m_b: Optional[int] = None,
) -> float:
    """Closed-form upper bound log(m_b)/log(1/Gamma) on the support dimension.

    ``kind`` selects the proposition in ``problems.PROPOSITIONS``, one of the
    11 kinds lsq, logistic, robust, svm, one_hidden, precond_lsq,
    precond_logistic, precond_robust, precond_svm, precond_one_hidden and
    newton.  A plain family kind is its precond_* proposition at m = M = 1;
    precond_* kinds take m = m_low and M = m_high.  ``robust`` means the
    exponential-squared rho with ||rho''|| = 2/t0, the only rho these
    arguments can name.  Every kind but newton needs lambda > 0, because the
    bound needs a strict contraction.  m_b defaults to n/b (Partition); pass
    the subset count C(n, b) explicitly for Subset mode.  A non-finite real
    argument, a negative radius or c_const, or m_b < 1 is a ConfigError
    naming it; violated step-size/radius hypotheses raise
    PreconditionViolation naming the inequality and its margin.
    """
    require_batch_size(n, b)
    reals = dict(eta=eta, lam=lam, radius=radius, t0=t0, sigma_smooth=sigma_smooth,
                 c_const=c_const, m_low=m_low, m_high=m_high)
    for name, value in reals.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if name in ("radius", "c_const") and value < 0.0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    if m_b is not None and not 1 <= m_b < math.inf:
        raise ConfigError(f"m_b must be a finite map count >= 1, got {m_b}")
    if eta <= 0.0:
        raise violation(kind, "eta > 0", eta, 0.0)
    precond = kind.startswith("precond_")
    if precond and not 0.0 < m_low <= m_high:
        raise ConfigError("preconditioned kinds need 0 < m_low <= m_high")
    prop = PROPOSITIONS.get(kind)
    if prop is None:
        raise ConfigError(f"unknown bound kind {kind!r}")
    family = kind.removeprefix("precond_")
    rho = 0.0
    if family == "robust":  # RobustRegression rejects t0 <= 0
        rho = RobustRegression(lam_r=lam, t0=t0).rho_double_sup()
    elif family == "svm":  # SmoothHingeSVM rejects sigma_smooth <= 0
        SmoothHingeSVM(lam, sigma_smooth)
    m, M = (m_low, m_high) if precond else (1.0, 1.0)
    args = PropositionArgs(eta, radius, lam, c_const, rho, sigma_smooth, m, M)
    if family != "newton":
        require_hypotheses(kind, (LAMBDA_POSITIVE,), args)
    require_hypotheses(kind, prop.hypotheses, args, precond)
    gamma = prop.gamma(args)
    if not 0.0 < gamma < 1.0:
        raise violation(kind, "0 < Gamma < 1 (contractive factor)", gamma, 1.0)
    count = float(m_b) if m_b is not None else n / b
    return math.log(count) / math.log(1.0 / gamma)


def subset_map_count(n: int, b: int) -> int:
    """m_b = C(n, b) for the without-replacement batch family."""
    return math.comb(n, b)


# --------------------------------------------------------------------------
# Rams ratio


@dataclass
class RamsBound:
    neg_entropy: float  # -sum p_i log p_i
    mean_log_jacobian: float  # sum_i p_i E_w log ||J_{h_i}(w)||
    ratio: float  # neg_entropy / |mean_log_jacobian|
    n_mc_samples: int  # number of measure points the Jacobians were evaluated at


def rams_ratio(
    system: IfsSystem,
    cloud: SampleCloud,
    power_config: PowerIterConfig = PowerIterConfig(),
    n_w: Optional[int] = None,
) -> RamsBound:
    """Entropy-to-contraction dimension bound for contractive-on-average IFS.

    Affine maps have position-free Jacobians: the mean log norm is
    ``contractivity_report``'s (-inf, ratio 0, when a map is zero).  An
    SgdSystem weights by p_i the column means of a
    ``complexity.log_norm_table`` over ``n_w`` cloud points (default
    min(N, 128)), one column per batch; above DENSE_ORACLE_MAX_DIM
    parameters cell (point i, batch j) is seeded with child
    1 + i*n_maps + j of ``power_config.seed``, as in ``estimate_R``.  A
    mean log norm within the rounding bound ``ifs.norm_rounding`` of 0, as
    that of norm-neutral maps such as linreg2d's I - eta a a^T, is a
    NonContractiveEstimate.
    """
    probs = system.probs
    neg_entropy = float(-(probs * np.log(probs)).sum())

    if isinstance(system, AffineSystem):
        report = contractivity_report(system)
        mean_log, n_mc = report.mean_log, 1
        with np.errstate(divide="ignore"):
            logs = np.log(report.lipschitz)
    else:
        n_mc = min(cloud.points.shape[0], 128) if n_w is None else n_w
        logs, _ = log_norm_table(
            system.problem, system.dataset, system.batches, system.eta, cloud.points, n_mc,
            power_config, power_config.seed, system.solve,
        )
        mean_log = float(probs @ logs.mean(axis=0))

    bound = norm_rounding(system.dim)
    if abs(mean_log) <= bound:
        raise NonContractiveEstimate(
            ("every map is norm-neutral: each Jacobian norm is 1" if (np.abs(logs) <= bound).all()
             else "the mean log norm is 0")
            + f" within rounding ({bound:.3g}), so mean log Jacobian norm {mean_log:.6g} shows no contraction"
        )
    if mean_log >= 0.0:
        raise NonContractiveEstimate(
            f"mean log Jacobian norm {mean_log:.6g} >= 0; system is not contractive on average"
        )
    return RamsBound(
        neg_entropy=neg_entropy,
        mean_log_jacobian=mean_log,
        ratio=neg_entropy / abs(mean_log),
        n_mc_samples=n_mc,
    )
