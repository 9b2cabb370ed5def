"""Experiment presets: Cantor chain, 2-D regression heatmaps, and (eta, b) sweeps.

Each runner is a pure function of its config (seeds included) that writes its
artifacts atomically into an output directory and returns the in-memory
results.  File formats: CSV with LF endings and 17-significant-digit floats,
binary PGM (P5) heatmaps, and JSON summaries.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import problems as pr
from .complexity import ComplexityConfig, estimate_R, generalization_gap
from .dimension import (BoxCountConfig, DimensionEstimate, analytic_bound, box_counting_dimension,
                        cloud_extents)
from .errors import (ComputeError, ConfigError, DegenerateVariance, IfslabError, NonFiniteState,
                     PreconditionViolation)
from .fileio import FLOAT, atomic_write_bytes, atomic_write_text, csv_text, write_json
from .ifs import IfsSystem, SampleCloud, require_eta, require_schedule, run_chain, run_sgd, sample_invariant
from .optimizers import BatchScheme, build_sgd_ifs, partition_batches
from .rng import Xoshiro256PP, child_seed, draw_indices

# --------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class _DataSize:
    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ConfigError("synthetic data needs n >= 1 and d >= 1")


@dataclass(frozen=True)
class UniformLinReg(_DataSize):
    """n rows of d features and a target, every entry i.i.d. uniform on [-1, 1]."""


@dataclass(frozen=True)
class MlpRegression(_DataSize):
    """Teacher-generated regression: uniform inputs, noisy one-hidden-layer targets."""

    teacher_seed: int = 1234
    teacher_hidden: int = 8
    noise_sigma: float = 0.1


DataSpec = Union[UniformLinReg, MlpRegression]


def _teacher_predict(spec: MlpRegression, features: np.ndarray) -> np.ndarray:
    gen = Xoshiro256PP(spec.teacher_seed)
    m, d = spec.teacher_hidden, spec.d
    W = gen.normals(m * d).reshape(m, d) / math.sqrt(d)
    b = gen.normals(m) / math.sqrt(m)
    return np.tanh(features @ W.T) @ b


def generate_synthetic(spec: DataSpec, seed: int) -> pr.Dataset:
    """Deterministic synthetic dataset for the given spec and seed.

    Stream order: features first (row-major), then targets.  The MLP teacher's
    weights come from ``teacher_seed`` (hidden layer first, then output), and
    its additive noise from the child stream ``child_seed(seed, 1)``, so the
    same teacher can label many input draws.
    """
    gen = Xoshiro256PP(seed)
    features = gen.uniforms(spec.n * spec.d).reshape(spec.n, spec.d) * 2.0 - 1.0
    if isinstance(spec, UniformLinReg):
        targets = gen.uniforms(spec.n) * 2.0 - 1.0
    else:
        clean = _teacher_predict(spec, features)
        noise_gen = Xoshiro256PP(child_seed(seed, 1))
        targets = clean + spec.noise_sigma * noise_gen.normals(spec.n)
    return pr.Dataset(features, targets)


# --------------------------------------------------------------------------
# histogram / heatmap emitters


HIST_BINS = 1000
HIST_RANGE = (-0.1, 1.1)


def histogram_csv_text(samples: np.ndarray) -> str:
    counts, edges = np.histogram(samples, bins=HIST_BINS, range=HIST_RANGE)
    rows = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
    return csv_text(["bin_left", "bin_right", "count"], f"{FLOAT},{FLOAT},%d", rows)


def density_grid(points: np.ndarray, resolution: int = 512) -> np.ndarray:
    """Occupancy counts of a 2-D cloud on a resolution^2 grid over its bbox.

    Row iy, column ix counts the points with floor((p - min) / span *
    resolution) = (ix, iy), the top edge clamped into the last bin; a
    constant axis puts every point in bin 0.  The bbox comes from
    ``dimension.cloud_extents`` and the counts from one ``np.bincount`` of
    the flat cell index iy * resolution + ix.  An empty or non-2-D cloud,
    a non-finite point or an extent past float64 is a ConfigError.
    """
    if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
        raise ConfigError("density grid needs a nonempty (N, 2) cloud")
    mins, maxs = cloud_extents(points)
    if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):  # min and max propagate nan
        raise ConfigError("density grid: cloud has non-finite points (nan or inf)")
    with np.errstate(over="ignore"):
        spans = maxs - mins
    if not np.isfinite(spans).all():
        raise ConfigError("density grid: cloud's extent overflows float64; rescale the points")
    spans[spans == 0.0] = 1.0  # degenerate axis: everything lands in bin 0
    ix = np.minimum((points[:, 0] - mins[0]) / spans[0] * resolution, resolution - 1).astype(np.int64)
    iy = np.minimum((points[:, 1] - mins[1]) / spans[1] * resolution, resolution - 1).astype(np.int64)
    counts = np.bincount(iy * resolution + ix, minlength=resolution * resolution)
    return counts.reshape(resolution, resolution)


def pgm_bytes(grid: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255), log-scaled: round(255*log(1+c)/log(1+c_max)).

    Row 0 of the image is the top of the plot (largest second coordinate), so
    the picture reads like a conventional x-right / y-up scatter plot.  The
    formula is evaluated once per count 0..c_max and the grid indexes that
    uint8 table.  A grid that is not 2-D non-negative integer counts is a
    ConfigError, an all-zero grid a ComputeError.
    """
    if grid.ndim != 2 or not np.issubdtype(grid.dtype, np.integer) or grid.size == 0:
        raise ConfigError("pgm needs a nonempty 2-D grid of integer counts")
    if grid.min() < 0:
        raise ConfigError(f"pgm needs non-negative counts, got {int(grid.min())}")
    c_max = int(grid.max())
    if c_max <= 0:
        raise ComputeError("cannot render an empty density grid")
    table = np.round(255.0 * np.log1p(np.arange(c_max + 1)) / math.log1p(c_max)).astype(np.uint8)
    scaled = table[grid]
    h, w = scaled.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + scaled[::-1, :].tobytes()


# --------------------------------------------------------------------------
# per-eta presets: Cantor chain and 2-D regression heatmaps


@dataclass
class EtaRunRecord:
    eta: float
    files: dict[str, str]
    dimension: Optional[DimensionEstimate]
    error: str = ""


def _run_per_eta(
    etas: list[float],
    out_dir: str,
    n_samples: int,
    burn_in: int,
    seed: int,
    box_config: BoxCountConfig,
    system_for: Callable[[float], IfsSystem],
    w0: np.ndarray,
    picture: tuple[str, str, Callable[[SampleCloud], bytes]],
) -> list[EtaRunRecord]:
    """Per eta: sample the chain, write its picture, box-count it and write the
    dimension JSON; then one summary.json over all etas.

    ``picture`` is (summary key, file name pattern, renderer).  A per-eta
    IfslabError (a divergent step size, too few scales) lands in that eta's
    ``error`` field and the remaining etas still run.
    """
    require_schedule(burn_in, n_samples, 1)
    os.makedirs(out_dir, exist_ok=True)
    key, pattern, render = picture
    records = []
    for i, eta in enumerate(etas):
        record = EtaRunRecord(eta, {}, None)
        try:
            cloud = sample_invariant(system_for(eta), w0, burn_in, n_samples, 1, seed)
            pic_name, dim_name = pattern.format(i), f"dim_{i:02d}.json"
            atomic_write_bytes(os.path.join(out_dir, pic_name), render(cloud))
            record.files[key] = pic_name
            est = box_counting_dimension(cloud, box_config)
            write_json(os.path.join(out_dir, dim_name), {"eta": eta, **est.to_json_dict()})
            record.files["dimension"] = dim_name
            record.dimension = est
        except IfslabError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
        records.append(record)
    runs = [
        {
            "eta": r.eta,
            "files": r.files,
            "dimension": r.dimension.to_json_dict() if r.dimension is not None else None,
            "error": r.error,
        }
        for r in records
    ]
    write_json(os.path.join(out_dir, "summary.json"), {"runs": runs})
    return records


def cantor_dataset() -> pr.Dataset:
    """Two scalar least-squares rows giving the losses w^2/2 and (w-1)^2/2."""
    return pr.Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))


def cantor_system(eta: float) -> IfsSystem:
    data = cantor_dataset()
    scheme = partition_batches(data.n, 1)
    return build_sgd_ifs(pr.LeastSquares(lam=0.0), data, scheme, eta)


# A config-less ``ifslab experiment cantor`` runs these etas with the defaults below.
CANTOR_REFERENCE = {"etas": (0.01, 1.0 / 3.0, 2.0 / 3.0)}


def run_cantor(
    etas: list[float],
    out_dir: str,
    n_samples: int = 1_000_000,
    burn_in: int = 10_000,
    seed: int = 0,
    box_config: BoxCountConfig = BoxCountConfig(),
) -> list[EtaRunRecord]:
    """Scalar quadratic-pair chains (batch size 1): histogram CSV + dimension JSON per eta."""
    for eta in etas:
        if not 0.0 < eta < 1.0:
            raise ConfigError(f"cantor preset needs eta in (0, 1), got {eta}")
    histogram = ("histogram", "hist_{:02d}.csv",
                 lambda cloud: histogram_csv_text(cloud.points[:, 0]).encode("utf-8"))
    return _run_per_eta(etas, out_dir, n_samples, burn_in, seed, box_config,
                        cantor_system, np.array([0.0]), histogram)


# A config-less ``ifslab experiment linreg2d`` runs these settings with the defaults below.
LINREG2D_REFERENCE = {"etas": (0.3, 0.5, 0.7, 0.9), "seed": 0}


def run_linreg2d(
    etas: list[float],
    seed: int,
    out_dir: str,
    n_samples: int = 400_000,
    burn_in: int = 10_000,
    box_config: BoxCountConfig = BoxCountConfig(),
) -> list[EtaRunRecord]:
    """Unregularized 2-D least squares, b=1: PGM heatmap + dimension JSON per eta.

    Divergent step sizes are recorded in the per-eta ``error`` field without
    aborting the remaining etas.
    """
    for eta in etas:
        require_eta(eta)
    data = generate_synthetic(UniformLinReg(n=5, d=2), seed)
    scheme = partition_batches(data.n, 1)
    problem = pr.LeastSquares(lam=0.0)
    heatmap = ("heatmap", "heatmap_{:02d}.pgm", lambda cloud: pgm_bytes(density_grid(cloud.points)))
    return _run_per_eta(etas, out_dir, n_samples, burn_in, seed, box_config,
                        lambda eta: build_sgd_ifs(problem, data, scheme, eta), np.zeros(2), heatmap)


# --------------------------------------------------------------------------
# correlation statistics


def _rank_average_ties(xs: np.ndarray) -> np.ndarray:
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs), dtype=float)
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average of ranks i+1 .. j+1
        i = j + 1
    return ranks


def correlation_stats(xs, ys) -> tuple[float, float]:
    """(Pearson r, Spearman rho with average ranks on ties)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ConfigError("correlation needs two equal-length 1-D inputs with >= 2 entries")

    def pearson(a: np.ndarray, b: np.ndarray) -> float:
        a = a - a.mean()
        b = b - b.mean()
        na, nb = float(np.sqrt((a * a).sum())), float(np.sqrt((b * b).sum()))
        if na == 0.0 or nb == 0.0:
            raise DegenerateVariance("correlation undefined for a constant input")
        # rounding can carry an exact +/-1 (e.g. any two points) one ulp past the bound
        return float(np.clip((a * b).sum() / (na * nb), -1.0, 1.0))

    return pearson(x, y), pearson(_rank_average_ties(x), _rank_average_ties(y))


# --------------------------------------------------------------------------
# (eta, b) sweep


@dataclass(frozen=True)
class SweepConfig:
    data: MlpRegression
    etas: tuple[float, ...]
    batch_sizes: tuple[int, ...]
    hidden: int = 8
    activation: str = "tanh"
    lam: float = 0.01
    out_scale: float = 2.0  # student output weights alternate +/- this value
    n_test: Optional[int] = None  # default: same size as training set
    loss_tol: float = 1e-3
    max_iters: int = 100_000
    check_every: int = 250
    burn_in: int = 1_000
    n_cloud: int = 2_000
    thin: int = 1
    n_w: int = 64
    n_u: int = 32
    seed: int = 0

    def __post_init__(self):
        if not self.etas or not self.batch_sizes:
            raise ConfigError("sweep grid must be nonempty")
        for e in self.etas:
            require_eta(e)
        if self.n_test is not None and self.n_test < 1:
            raise ConfigError(f"n_test must be >= 1, got {self.n_test}")
        if self.check_every < 1:
            raise ConfigError("check_every must be a positive integer")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be >= 0, got {self.max_iters}")
        if math.isnan(self.loss_tol):  # no loss is below nan, so no chain could stop early
            raise ConfigError("loss_tol must be a number, got nan")
        require_schedule(self.burn_in, self.n_cloud, self.thin)  # before any point trains
        ComplexityConfig(n_w=self.n_w, n_u=self.n_u)  # rejects an empty R table
        _student_problem(self)  # rejects an unknown activation
        for b in self.batch_sizes:
            partition_batches(self.data.n, b)


@dataclass
class SweepRow:
    eta: float
    b: int
    R: float
    box_dim: float
    analytic_bound: float
    gen_gap: float
    error: str = ""


@dataclass
class SweepResult:
    rows: list[SweepRow]
    stats: dict[str, dict[str, float]]  # pair name -> {"pearson": r, "spearman": rho}
    warnings: list[str]


SWEEP_COLUMNS = ("eta", "b", "R", "box_dim", "analytic_bound", "gen_gap", "error")
SWEEP_ROW_FORMAT = f"{FLOAT},%d,{FLOAT},{FLOAT},{FLOAT},{FLOAT},%s"


def _student_problem(config: SweepConfig) -> pr.OneHiddenLayer:
    outs = pr.alternating_out_weights(config.hidden, config.out_scale)
    return pr.OneHiddenLayer(lam=config.lam, out_weights=outs, activation=config.activation)


def _sgd_lane(problem: pr.Problem, train: pr.Dataset, scheme: BatchScheme, etas, live: list[int]):
    """``run_sgd`` along the scheme's batch table as a lane of the chains
    ``live``, chain k at step size etas[k]: the stepper of a ``run_chain`` stack."""
    return functools.partial(run_sgd, problem, train, scheme.batches, np.array([etas[k] for k in live])[:, None])


def _train_point(
    problem: pr.OneHiddenLayer, train: pr.Dataset, scheme: BatchScheme, config: SweepConfig, seeds: list[int],
) -> list:
    """Constant-step SGD of one batch size's chains, stepped in lockstep
    along the scheme's batch table.

    Chain k (step size config.etas[k]) starts from 0.5 * normals of
    Xoshiro256PP(seeds[k]) and then draws its max_iters map indices from that
    stream, in one call.  Each ``check_every`` block of the live chains is one
    ``run_chain`` stack that records each chain's last state (the schedule
    (block - 1, 1, 1)); ``run_chain`` reports a chain whose block went
    non-finite.  Then each chain's mean train loss is checked: a chain below
    loss_tol leaves the stack, the rest go on until max_iters steps.  Returns
    per chain the trained parameter, or the NonFiniteState of a block that
    ended on a non-finite iterate or loss.
    """
    gens = [Xoshiro256PP(seed) for seed in seeds]
    dim = pr.param_dim(problem, train)
    w = np.stack([0.5 * gen.normals(dim) for gen in gens])
    idx = np.stack([draw_indices(gen, scheme.probs, config.max_iters) for gen in gens])
    out: list = [None] * len(seeds)
    live = list(range(len(seeds)))  # the chains in the stack, in stack order
    steps = 0
    while live and steps < config.max_iters:
        block = min(config.check_every, config.max_iters - steps)
        lane = _sgd_lane(problem, train, scheme, config.etas, live)
        ends = run_chain(lane, lane, 1, w, idx[live, steps : steps + block], block - 1, 1, 1)
        steps += block
        keep = []
        for k, end in zip(live, ends):
            if isinstance(end, NonFiniteState):
                out[k] = end
                continue
            end = end[0]  # the one record, the state after the block
            with np.errstate(over="ignore", invalid="ignore"):  # as in the driver
                loss = pr.mean_loss(problem, end, train)
            if not math.isfinite(loss):
                out[k] = NonFiniteState(f"training loss is {loss} (system appears to diverge)")
            elif loss < config.loss_tol:
                out[k] = end
            else:
                keep.append((k, end))
        live = [k for k, _ in keep]
        w = np.stack([wk for _, wk in keep]) if keep else w
    for k, wk in zip(live, w):
        out[k] = wk
    return out


def _failed_row(eta: float, b: int, exc: IfslabError) -> SweepRow:
    return SweepRow(eta, b, math.nan, math.nan, math.nan, math.nan, error=f"{type(exc).__name__}: {exc}")


def _point_row(
    config: SweepConfig, problem: pr.OneHiddenLayer, train: pr.Dataset, test: pr.Dataset,
    scheme: BatchScheme, eta: float, w_trained: np.ndarray, cloud: SampleCloud, point_seed: int,
) -> SweepRow:
    """R, box dimension, analytic bound and gap of one trained point and its cloud."""
    b = scheme.batches.shape[1]
    gap = generalization_gap(problem, train, test, w_trained)
    est = estimate_R(
        problem, train, scheme, eta, cloud,
        ComplexityConfig(n_w=config.n_w, n_u=config.n_u, seed=child_seed(point_seed, 2)),
    )

    dim = pr.param_dim(problem, train)
    box_dim = math.nan
    if dim <= 3:
        try:
            box_dim = box_counting_dimension(cloud).value
        except IfslabError:
            pass
    bound = math.nan
    try:
        # C >= lam settles the failed hypothesis C < lam; the scan stops there
        c_const = pr.compute_one_layer_C(problem, train, cloud.points, stop_at=config.lam)
        bound = analytic_bound(
            "one_hidden", n=train.n, b=b, eta=eta, lam=config.lam, c_const=c_const
        )
    except (PreconditionViolation, ConfigError):
        pass
    return SweepRow(eta=eta, b=b, R=est.R, box_dim=box_dim, analytic_bound=bound, gen_gap=gap)


def _sweep_group(
    config: SweepConfig, train: pr.Dataset, test: pr.Dataset, b: int, seeds: list[int]
) -> list[SweepRow]:
    """The rows (eta, b) for every eta of the grid, point k seeded by seeds[k].

    The chains train in lockstep (``_train_point``), and those that trained
    draw their clouds in one ``run_chain`` stack, chain k's map indices from
    child_seed(seeds[k], 1); R, the dimensions, the bound and the gap are
    then computed per point.  A failure, such as a cloud chain's
    NonFiniteState, lands in its point's row.
    """
    problem = _student_problem(config)
    scheme = partition_batches(train.n, b)
    trained = _train_point(problem, train, scheme, config, seeds)
    live = [k for k, w in enumerate(trained) if not isinstance(w, IfslabError)]
    clouds: dict = {}
    if live:
        total = config.burn_in + config.n_cloud * config.thin
        gens = [Xoshiro256PP(child_seed(seeds[k], 1)) for k in live]
        idx = np.stack([draw_indices(gen, scheme.probs, total) for gen in gens])
        lane = _sgd_lane(problem, train, scheme, config.etas, live)
        starts = np.stack([trained[k] for k in live])
        clouds = dict(zip(live, run_chain(lane, lane, 1, starts, idx, config.burn_in, config.thin, config.n_cloud)))
    rows = []
    for k, eta in enumerate(config.etas):
        points = clouds.get(k, trained[k])  # a chain that failed training has no cloud
        if isinstance(points, IfslabError):
            rows.append(_failed_row(eta, b, points))
            continue
        cloud = SampleCloud(points, config.burn_in, config.thin, child_seed(seeds[k], 1))
        try:
            rows.append(_point_row(config, problem, train, test, scheme, eta, trained[k], cloud, seeds[k]))
        except IfslabError as exc:
            rows.append(_failed_row(eta, b, exc))
    return rows


def run_sweep(config: SweepConfig, out_dir: str) -> SweepResult:
    """Grid sweep over (eta, b): train, collect cloud, compute R / dims / gap.

    Per-point failures land in the row's ``error`` column and the sweep
    continues.  Correlations are computed over the rows that produced finite
    values; with fewer than two such rows they are NaN and a warning is
    recorded.  Points use seeds derived from the config seed by grid index,
    so any execution order (or a parallel driver) yields identical artifacts.
    """
    os.makedirs(out_dir, exist_ok=True)
    train = generate_synthetic(config.data, config.seed)
    test_spec = dataclasses.replace(
        config.data, n=config.n_test if config.n_test is not None else config.data.n
    )
    test = generate_synthetic(test_spec, child_seed(config.seed, 2))

    rows: list[SweepRow] = []
    n_eta = len(config.etas)
    for i, b in enumerate(config.batch_sizes):  # grid point g = i * n_eta + k is (etas[k], b)
        seeds = [child_seed(config.seed, 10 + i * n_eta + k) for k in range(n_eta)]
        rows.extend(_sweep_group(config, train, test, b, seeds))

    warnings: list[str] = []
    stats: dict[str, dict[str, float]] = {}
    ok = [r for r in rows if not r.error and math.isfinite(r.R) and math.isfinite(r.gen_gap)]
    for name, xs, ys in (
        ("R_vs_gen_gap", [r.R for r in ok], [r.gen_gap for r in ok]),
        ("R_vs_eta", [r.R for r in ok], [r.eta for r in ok]),
    ):
        try:
            p, s = correlation_stats(xs, ys)
        except (ConfigError, DegenerateVariance) as exc:
            p, s = math.nan, math.nan
            warnings.append(f"{name}: correlation undefined ({exc})")
        stats[name] = {"pearson": p, "spearman": s}

    cells = ((r.eta, r.b, r.R, r.box_dim, r.analytic_bound, r.gen_gap, r.error.replace(",", ";")) for r in rows)
    atomic_write_text(os.path.join(out_dir, "sweep.csv"), csv_text(SWEEP_COLUMNS, SWEEP_ROW_FORMAT, cells))
    write_json(os.path.join(out_dir, "sweep_stats.json"), {"stats": stats, "warnings": warnings})
    return SweepResult(rows=rows, stats=stats, warnings=warnings)


def reference_sweep_config(
    etas: tuple[float, ...] = (0.07, 0.09, 0.11, 0.13, 0.15, 0.17),
    batch_sizes: tuple[int, ...] = (16, 32),
    seed: int = 0,
) -> SweepConfig:
    """The calibrated grid of the acceptance run and of a config-less ``ifslab experiment sweep``.

    Sized so the trained chains sit in the locally expanding regime (R > 0,
    falling with eta).  The gap correlations are noisy at this problem scale;
    the signs quoted in the README hold for the default seed.
    """
    return SweepConfig(
        data=MlpRegression(n=256, d=4, teacher_hidden=16),
        etas=tuple(etas),
        batch_sizes=tuple(batch_sizes),
        hidden=8,
        activation="tanh",
        lam=0.001,
        out_scale=3.0,
        seed=seed,
    )
