"""Synthetic data, artifact emitters, preset experiments, and the sweep."""

import dataclasses
import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifslab import experiments
from ifslab import problems as pr
from ifslab.errors import ComputeError, ConfigError, DegenerateVariance, IndivisibleBatch, NonFiniteState
from ifslab.experiments import (
    MlpRegression,
    SweepConfig,
    UniformLinReg,
    _student_problem,
    _train_point,
    cantor_system,
    correlation_stats,
    density_grid,
    generate_synthetic,
    histogram_csv_text,
    pgm_bytes,
    reference_sweep_config,
    run_cantor,
    run_linreg2d,
    run_sweep,
)
from ifslab.ifs import sample_invariant
from ifslab.optimizers import build_sgd_ifs, partition_batches
from ifslab.problems import grad, mean_loss, param_dim
from ifslab.rng import Xoshiro256PP, child_seed, draw_indices


# ---------------------------------------------------------------------------
# correlation_stats


def test_correlation_perfect():
    p, s = correlation_stats((1, 2, 3), (2, 4, 6))
    assert p == pytest.approx(1.0, rel=1e-15)
    assert s == pytest.approx(1.0, rel=1e-15)
    p, s = correlation_stats((1, 2, 3), (3, 2, 1))
    assert p == pytest.approx(-1.0, rel=1e-15)
    assert s == pytest.approx(-1.0, rel=1e-15)


def test_correlation_hand_value():
    p, s = correlation_stats((1, 2, 3, 4), (1, 4, 2, 8))
    assert p == pytest.approx(9.5 / math.sqrt(5.0 * 28.75), rel=1e-12)
    assert p == pytest.approx(0.7923547734168841, rel=1e-12)
    assert s == pytest.approx(0.8, rel=1e-12)


def test_correlation_ties_get_average_ranks():
    # ys has a tie: ranks (1, 2.5, 2.5, 4)
    p, s = correlation_stats((1, 2, 3, 4), (1, 2, 2, 3))
    rx = np.array([1.0, 2.0, 3.0, 4.0])
    ry = np.array([1.0, 2.5, 2.5, 4.0])
    expected = np.corrcoef(rx, ry)[0, 1]
    assert s == pytest.approx(expected, rel=1e-12)


def test_correlation_degenerate_and_config_errors():
    with pytest.raises(DegenerateVariance):
        correlation_stats((1, 1, 1), (1, 2, 3))
    with pytest.raises(DegenerateVariance):
        correlation_stats((1, 2, 3), (5, 5, 5))
    with pytest.raises(ConfigError):
        correlation_stats((1,), (2,))
    with pytest.raises(ConfigError):
        correlation_stats((1, 2, 3), (1, 2))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
@example(seed=790)  # n=2: the exact r=1 rounded to 1.0000000000000002
def test_correlation_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    xs = rng.normal(size=n)
    ys = rng.normal(size=n)
    p, s = correlation_stats(xs, ys)
    assert -1.0 <= p <= 1.0
    assert -1.0 <= s <= 1.0
    assert p == pytest.approx(np.corrcoef(xs, ys)[0, 1], rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# generate_synthetic


def test_uniform_linreg_shape_range_determinism():
    spec = UniformLinReg(n=50, d=3)
    a = generate_synthetic(spec, seed=7)
    b = generate_synthetic(spec, seed=7)
    c = generate_synthetic(spec, seed=8)
    assert a.features.shape == (50, 3) and a.targets.shape == (50,)
    assert np.all(np.abs(a.features) <= 1.0) and np.all(np.abs(a.targets) <= 1.0)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)
    assert not np.array_equal(a.features, c.features)


def test_mlp_regression_teacher_and_noise():
    clean_spec = MlpRegression(n=40, d=2, teacher_seed=5, teacher_hidden=4, noise_sigma=0.0)
    noisy_spec = MlpRegression(n=40, d=2, teacher_seed=5, teacher_hidden=4, noise_sigma=0.3)
    clean = generate_synthetic(clean_spec, seed=3)
    noisy = generate_synthetic(noisy_spec, seed=3)
    # same seed => same inputs; noise only perturbs the targets
    np.testing.assert_array_equal(clean.features, noisy.features)
    resid = noisy.targets - clean.targets
    assert np.std(resid) == pytest.approx(0.3, rel=0.5)
    assert not np.allclose(resid, 0.0)
    # a different teacher seed relabels the same draw
    other = generate_synthetic(
        MlpRegression(n=40, d=2, teacher_seed=6, teacher_hidden=4, noise_sigma=0.0), seed=3
    )
    np.testing.assert_array_equal(clean.features, other.features)
    assert not np.allclose(clean.targets, other.targets)


def test_mlp_regression_targets_bounded_by_teacher_scale():
    # tanh features through unit-scaled output weights: |clean target| <= sum|b|
    spec = MlpRegression(n=200, d=3, teacher_seed=11, teacher_hidden=8, noise_sigma=0.0)
    data = generate_synthetic(spec, seed=0)
    assert np.all(np.isfinite(data.targets))
    assert np.max(np.abs(data.targets)) < 8.0


def test_generate_synthetic_validates():
    with pytest.raises(ConfigError):
        generate_synthetic(UniformLinReg(n=0, d=2), seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(UniformLinReg(n=2, d=0), seed=0)


# ---------------------------------------------------------------------------
# artifact emitters


def test_histogram_csv_layout():
    samples = np.array([0.0, 0.5, 0.5, 1.0])
    text = histogram_csv_text(samples)
    lines = text.splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 1001
    assert text.endswith("\n")
    counts = np.array([int(line.rsplit(",", 1)[1]) for line in lines[1:]])
    assert counts.sum() == 4


def test_density_grid_placement():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    grid = density_grid(pts, resolution=2)
    assert grid.shape == (2, 2)
    assert grid[0, 0] == 1  # (x=0, y=0) -> column 0, row 0
    assert grid[1, 1] == 2  # both copies of (1, 1)
    assert grid.sum() == 3


def test_density_grid_degenerate_axis():
    pts = np.column_stack([np.linspace(0, 1, 100), np.full(100, 0.5)])
    grid = density_grid(pts, resolution=4)
    assert grid.sum() == 100
    assert grid[1:, :].sum() == 0  # constant axis collapses to bin 0


def test_density_grid_rejects_non_planar():
    with pytest.raises(ConfigError):
        density_grid(np.zeros((10, 3)))
    with pytest.raises(ConfigError, match="nonempty"):
        density_grid(np.zeros((0, 2)))


def reference_density_grid(points, resolution):
    """The scatter-add grid over the axis-0 extents, as drawn before bincount."""
    mins = points.min(axis=0)
    spans = points.max(axis=0) - mins
    spans[spans == 0.0] = 1.0
    ix = np.minimum((points[:, 0] - mins[0]) / spans[0] * resolution, resolution - 1).astype(np.int64)
    iy = np.minimum((points[:, 1] - mins[1]) / spans[1] * resolution, resolution - 1).astype(np.int64)
    grid = np.zeros((resolution, resolution), dtype=np.int64)
    np.add.at(grid, (iy, ix), 1)
    return grid


def max_edge_cloud():
    """Points on every bbox edge and corner, the top ones clamped into the last bin."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 3.0, size=(3_000, 2))
    pts[:40, 0] = pts[:, 0].max()
    pts[40:80, 1] = pts[:, 1].max()
    pts[80:90] = pts.max(axis=0)
    pts[90:100] = pts.min(axis=0)
    return pts


DENSITY_CLOUDS = {
    "uniform": lambda: np.random.default_rng(0).uniform(0.0, 1.0, size=(20_000, 2)),
    "normal-skewed": lambda: np.random.default_rng(1).normal(size=(20_000, 2)) * [1e-3, 50.0] + [7.0, -3.0],
    "clustered": lambda: np.round(np.random.default_rng(2).normal(size=(20_000, 2)), 1),
    "degenerate-x": lambda: np.column_stack([np.full(500, -0.25), np.linspace(0, 1, 500)]),
    "degenerate-y": lambda: np.column_stack([np.linspace(0, 1, 100), np.full(100, 0.5)]),
    "single-point": lambda: np.full((7, 2), 3.5),
    "max-edge": max_edge_cloud,
    "signed-zeros": lambda: np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, -1.0], [-0.0, 2.0]]),
}


@pytest.mark.parametrize("resolution", [1, 2, 7, 512])
@pytest.mark.parametrize("name", list(DENSITY_CLOUDS))
def test_density_grid_matches_the_scatter_add(name, resolution):
    pts = DENSITY_CLOUDS[name]()
    grid = density_grid(pts, resolution=resolution)
    want = reference_density_grid(pts, resolution)
    assert grid.dtype == want.dtype == np.int64
    assert grid.shape == (resolution, resolution)
    np.testing.assert_array_equal(grid, want)
    assert grid.sum() == len(pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (17, 1)])
def test_density_grid_rejects_a_non_finite_cloud(bad, where):
    """Used to end in RuntimeWarnings and an IndexError from the scatter-add."""
    pts = np.random.default_rng(3).uniform(size=(50, 2))
    pts[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"non-finite points \(nan or inf\)"):
            density_grid(pts)


def test_density_grid_rejects_an_extent_past_float64():
    with pytest.raises(ConfigError, match="extent overflows float64"):
        density_grid(np.array([[-1e308, 0.0], [1e308, 1.0]]))


def test_pgm_bytes_format():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(5000, 2))
    blob = pgm_bytes(density_grid(pts, resolution=512))
    assert blob.startswith(b"P5\n512 512\n255\n")
    assert len(blob) == len(b"P5\n512 512\n255\n") + 512 * 512
    assert len(blob) == 262159
    assert max(blob[15:]) == 255  # the densest cell saturates the gray scale


def test_pgm_flips_rows_for_y_up():
    # single occupied cell at max y: must appear in the first written row
    pts = np.array([[0.0, 0.0], [0.5, 1.0]])
    grid = density_grid(pts, resolution=4)
    blob = pgm_bytes(grid)
    header_len = len(b"P5\n4 4\n255\n")
    rows = np.frombuffer(blob[header_len:], dtype=np.uint8).reshape(4, 4)
    assert rows[0].max() > 0  # y = 1 renders at the top
    assert rows[3].max() > 0  # y = 0 renders at the bottom


def test_pgm_rejects_empty_grid():
    with pytest.raises(ComputeError):
        pgm_bytes(np.zeros((4, 4), dtype=np.int64))


def reference_pgm_bytes(grid):
    """The log scale evaluated over every grid cell, as rendered before the lookup table."""
    c_max = int(grid.max())
    scaled = np.round(255.0 * np.log1p(grid) / math.log1p(c_max)).astype(np.uint8)
    h, w = scaled.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + scaled[::-1, :].tobytes()


def count_grid(c_max, shape, seed):
    """Random counts 0..c_max with c_max present and, room allowing, every count up to 1000."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, c_max + 1, size=shape, dtype=np.int64)
    flat = grid.reshape(-1)
    low = np.arange(min(c_max, 1000, flat.size - 1) + 1)
    flat[: len(low)] = low
    flat[-1] = c_max
    return grid


@pytest.mark.parametrize("c_max", [1, 2, 255, 100_000])
@pytest.mark.parametrize("shape", [(512, 512), (4, 3), (1, 1)])
def test_pgm_bytes_match_the_per_cell_formula(c_max, shape):
    """The small grids hold counts far past their cell count, so the table
    outgrows the grid there."""
    grid = count_grid(c_max, shape, c_max)
    assert pgm_bytes(grid) == reference_pgm_bytes(grid)


def linreg2d_cloud(eta):
    data = generate_synthetic(UniformLinReg(n=5, d=2), 0)
    system = build_sgd_ifs(pr.LeastSquares(lam=0.0), data, partition_batches(data.n, 1), eta)
    return sample_invariant(system, np.zeros(2), burn_in=1_000, n_samples=30_000, seed=0).points


@pytest.mark.parametrize("eta", [0.3, 0.9])
def test_pgm_bytes_of_a_preset_density_grid(eta):
    cloud = linreg2d_cloud(eta)
    assert pgm_bytes(density_grid(cloud)) == reference_pgm_bytes(reference_density_grid(cloud, 512))


@pytest.mark.parametrize("grid, match", [
    (np.array([[1, -1], [0, 2]]), "non-negative counts, got -1"),
    (np.array([[0.0, 1.0], [0.5, 2.0]]), "integer counts"),
    (np.ones((2, 2), dtype=bool), "integer counts"),
    (np.ones(4, dtype=np.int64), "2-D grid"),
    (np.ones((0, 3), dtype=np.int64), "nonempty"),
])
def test_pgm_rejects_a_grid_of_non_counts(grid, match):
    """A -1 count used to render as silently wrong bytes after two RuntimeWarnings."""
    with pytest.raises(ConfigError, match=match):
        pgm_bytes(grid)


# ---------------------------------------------------------------------------
# preset experiments (reduced sizes; the acceptance suite runs full scale)


def test_run_cantor_smoke(tmp_path):
    out = str(tmp_path / "cantor")
    records = run_cantor([2.0 / 3.0], out, n_samples=40_000, burn_in=1_000, seed=0)
    assert len(records) == 1
    rec = records[0]
    assert rec.error == ""
    assert rec.dimension is not None
    assert rec.dimension.value == pytest.approx(math.log(2) / math.log(3), abs=0.1)
    for name in ("hist_00.csv", "dim_00.json", "summary.json"):
        assert os.path.exists(os.path.join(out, name))
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["runs"][0]["files"]["histogram"] == "hist_00.csv"
    assert summary["runs"][0]["dimension"]["value"] == rec.dimension.value


def test_run_cantor_middle_third_gap(tmp_path):
    out = str(tmp_path / "cantor_gap")
    run_cantor([2.0 / 3.0], out, n_samples=50_000, burn_in=1_000, seed=1)
    lines = open(os.path.join(out, "hist_00.csv")).read().splitlines()[1:]
    inner = 0
    total = 0
    for line in lines:
        left, right, count = line.split(",")
        lo, hi, c = float(left), float(right), int(count)
        total += c
        if lo >= 1.0 / 3.0 + 1e-9 and hi <= 2.0 / 3.0 - 1e-9:
            inner += c
    assert total == 50_000
    assert inner / total < 0.001


def test_run_cantor_validates_eta(tmp_path):
    with pytest.raises(ConfigError):
        run_cantor([1.0], str(tmp_path / "x"))


def test_run_linreg2d_smoke_and_error_rows(tmp_path):
    out = str(tmp_path / "lin2d")
    records = run_linreg2d([0.3, 80.0], seed=0, out_dir=out, n_samples=30_000, burn_in=1_000)
    ok, bad = records
    assert ok.error == "" and ok.dimension is not None
    assert 0.0 <= ok.dimension.value <= 2.0
    assert os.path.exists(os.path.join(out, "heatmap_00.pgm"))
    assert os.path.exists(os.path.join(out, "dim_00.json"))
    # the divergent step size is recorded, not raised
    assert bad.error.startswith("NonFiniteState")
    assert "dimension" not in bad.files
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["runs"][1]["error"].startswith("NonFiniteState")


def test_run_linreg2d_heatmap_is_valid_pgm(tmp_path):
    out = str(tmp_path / "lin2d_pgm")
    run_linreg2d([0.5], seed=2, out_dir=out, n_samples=20_000, burn_in=500)
    blob = open(os.path.join(out, "heatmap_00.pgm"), "rb").read()
    assert blob.startswith(b"P5\n512 512\n255\n")
    assert len(blob) == 262159


# digests of every artifact of the reference-eta presets at 20,000 samples,
# seed 0, file contents concatenated in file-name order, so no change to
# sampling, box counting or the emitters can move a byte (x86-64, numpy 2.4)
CANTOR_SHA256 = "c1cd9814d0c851bdbdcf7609480ee70994f5d1e57047c8d27311607b4136d17a"
LINREG2D_SHA256 = "2d5a534e0de5bc4ff3a9d2e52c5a801d276cf21bc429dde973f09f65462afd0b"


def artifacts_sha256(out):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_preset_artifacts_are_pinned(tmp_path):
    cantor, linreg2d = str(tmp_path / "cantor"), str(tmp_path / "linreg2d")
    records = run_cantor(list(experiments.CANTOR_REFERENCE["etas"]), cantor,
                         n_samples=20_000, burn_in=1_000, seed=0)
    records += run_linreg2d(list(experiments.LINREG2D_REFERENCE["etas"]), 0, linreg2d,
                            n_samples=20_000, burn_in=1_000)
    assert [r.error for r in records] == [""] * 7
    assert sorted(os.listdir(linreg2d)) == [f"dim_0{i}.json" for i in range(4)] + [
        f"heatmap_0{i}.pgm" for i in range(4)] + ["summary.json"]
    assert artifacts_sha256(cantor) == CANTOR_SHA256
    assert artifacts_sha256(linreg2d) == LINREG2D_SHA256


def test_cantor_system_maps():
    system = cantor_system(2.0 / 3.0)
    assert len(system.probs) == 2
    for m in system.matrices:
        assert m[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# run_sweep (miniature grids)


def tiny_sweep_config(**overrides):
    base = dict(
        data=MlpRegression(n=24, d=2, teacher_seed=3, teacher_hidden=4, noise_sigma=0.1),
        etas=(0.05,),
        batch_sizes=(4,),
        hidden=2,
        activation="tanh",
        lam=0.01,
        out_scale=1.0,
        max_iters=3_000,
        check_every=100,
        burn_in=200,
        n_cloud=300,
        n_w=16,
        n_u=8,
        seed=0,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_single_point_grid_warns_nan(tmp_path):
    out = str(tmp_path / "sweep1")
    result = run_sweep(tiny_sweep_config(), out)
    assert len(result.rows) == 1
    assert result.warnings  # correlation undefined on one point
    for pair in ("R_vs_gen_gap", "R_vs_eta"):
        assert math.isnan(result.stats[pair]["pearson"])
        assert math.isnan(result.stats[pair]["spearman"])
    stats_blob = json.loads(open(os.path.join(out, "sweep_stats.json")).read())
    assert stats_blob["warnings"]
    assert stats_blob["stats"]["R_vs_eta"]["pearson"] is None or math.isnan(
        stats_blob["stats"]["R_vs_eta"]["pearson"]
    )


SWEEP_CSV_SHA256 = "209811158416562188491f4a226012d66923e183ef29bae832f822753e071423"
SWEEP_STATS_SHA256 = "774c80e16a8709a9e6f9b713af78713dc7007a60753de6fd6131cf098c321375"


def test_sweep_csv_layout_and_determinism(tmp_path):
    cfg = tiny_sweep_config(etas=(0.05, 0.1), batch_sizes=(4, 8))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    res_a = run_sweep(cfg, out_a)
    res_b = run_sweep(cfg, out_b)
    csv_a = open(os.path.join(out_a, "sweep.csv"), "rb").read()
    csv_b = open(os.path.join(out_b, "sweep.csv"), "rb").read()
    assert csv_a == csv_b
    stats_a = open(os.path.join(out_a, "sweep_stats.json"), "rb").read()
    stats_b = open(os.path.join(out_b, "sweep_stats.json"), "rb").read()
    assert stats_a == stats_b
    # digests of the artifacts of the one-point-at-a-time sweep, so the
    # lockstep trainer and cloud cannot drift (x86-64, OpenBLAS, numpy 2.4)
    assert hashlib.sha256(csv_a).hexdigest() == SWEEP_CSV_SHA256
    assert hashlib.sha256(stats_a).hexdigest() == SWEEP_STATS_SHA256
    lines = csv_a.decode().splitlines()
    assert lines[0] == "eta,b,R,box_dim,analytic_bound,gen_gap,error"
    assert len(lines) == 5
    assert len(res_a.rows) == 4
    for row in res_a.rows:
        assert row.error == ""
        assert math.isfinite(row.R) and math.isfinite(row.gen_gap)
        assert row.gen_gap >= 0.0


@pytest.mark.parametrize("overrides, bound_finite", [
    ({}, False),  # C >= lam: the whole 300-point cloud is one chunk
    ({"n_cloud": 1000}, False),  # C >= lam, and the scan stops after the first of three chunks
    ({"n_cloud": 1000, "out_scale": 1e-3, "lam": 1.0}, True),  # C < lam and eta < 1/(2 lam)
])
def test_sweep_c_stop_keeps_csv_bytes(tmp_path, monkeypatch, overrides, bound_finite):
    """The sweep's C scan stops once C >= lam; a full scan writes the same sweep.csv."""
    cfg = tiny_sweep_config(**overrides)
    stopped = run_sweep(cfg, str(tmp_path / "stopped"))
    full_c = pr.compute_one_layer_C
    monkeypatch.setattr(experiments.pr, "compute_one_layer_C",
                        lambda problem, data, points, stop_at: full_c(problem, data, points))
    run_sweep(cfg, str(tmp_path / "full"))
    csv = [open(tmp_path / out / "sweep.csv", "rb").read() for out in ("stopped", "full")]
    assert csv[0] == csv[1]
    (row,) = stopped.rows
    assert row.error == "" and math.isfinite(row.analytic_bound) == bound_finite


def test_reference_sweep_c_scan_reads_one_chunk(tmp_path, monkeypatch):
    """On the reference sweep's student (n = 256, m = 8: 8 points a chunk),
    the first chunk of a trained cloud already gives C >= lam."""
    cfg = dataclasses.replace(
        reference_sweep_config(etas=(0.07,), batch_sizes=(16,)), max_iters=1000, n_cloud=200, n_w=8, n_u=4,
    )
    chunks, scans = [], []
    parts, compute_c = pr._mlp_parts, pr.compute_one_layer_C

    def spy_parts(problem, w, A):
        chunks.append(len(w))
        return parts(problem, w, A)

    def spy_c(problem, data, points, stop_at):
        chunks.clear()
        c = compute_c(problem, data, points, stop_at=stop_at)
        scans.append((list(chunks), c, stop_at))
        return c

    monkeypatch.setattr(pr, "_mlp_parts", spy_parts)
    monkeypatch.setattr(experiments.pr, "compute_one_layer_C", spy_c)
    result = run_sweep(cfg, str(tmp_path / "ref"))
    assert result.rows[0].error == "" and math.isnan(result.rows[0].analytic_bound)
    ((read, c, stop_at),) = scans
    assert read == [8] and stop_at == cfg.lam and c >= cfg.lam


def reference_training(problem, train, scheme, eta, cfg, seed):
    """One chain of plain SGD steps: the oracle of the lockstep trainer."""
    gen = Xoshiro256PP(seed)
    w = 0.5 * gen.normals(param_dim(problem, train))
    steps = 0
    while steps < cfg.max_iters:
        block = min(cfg.check_every, cfg.max_iters - steps)
        for k in draw_indices(gen, scheme.probs, block):
            w = w - eta * grad(problem, w, train, scheme.batches[k])
        steps += block
        if mean_loss(problem, w, train) < cfg.loss_tol:
            break
    return w, steps


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def train_group(cfg, etas, seeds, b=4):
    """The lockstep chains of ``etas`` at batch size b, and their solo oracle."""
    cfg = dataclasses.replace(cfg, etas=etas)
    train = generate_synthetic(cfg.data, cfg.seed)
    problem = _student_problem(cfg)
    scheme = partition_batches(train.n, b)
    trained = _train_point(problem, train, scheme, cfg, seeds)
    return trained, lambda eta, seed, c=cfg: reference_training(problem, train, scheme, eta, c, seed)


def test_train_point_matches_reference_loop():
    """Three chains of one batch size, two check_every blocks in lockstep:
    each equals its own plain SGD steps bit for bit."""
    cfg = tiny_sweep_config(max_iters=200, check_every=100, loss_tol=0.0)
    etas, seeds = (0.05, 0.02, 0.1), (31, 32, 33)
    trained, reference = train_group(cfg, etas, seeds)
    for w, eta, seed in zip(trained, etas, seeds):
        assert same_bits(w, reference(eta, seed)[0])


def test_train_point_stops_each_chain_at_its_own_check():
    """A chain that meets loss_tol at its first check leaves the stack; the
    other trains on, and both equal their solo runs."""
    cfg = tiny_sweep_config(max_iters=600, check_every=100, loss_tol=0.0)
    etas, seeds = (0.1, 0.01), (41, 42)
    _, reference = train_group(cfg, etas, seeds)
    train = generate_synthetic(cfg.data, cfg.seed)
    one_block = dataclasses.replace(cfg, max_iters=100)
    first = [mean_loss(_student_problem(cfg), reference(eta, seed, one_block)[0], train)
             for eta, seed in zip(etas, seeds)]
    assert first[0] < first[1]
    cfg = dataclasses.replace(cfg, loss_tol=math.sqrt(first[0] * first[1]))
    trained, reference = train_group(cfg, etas, seeds)
    solo = [reference(eta, seed) for eta, seed in zip(etas, seeds)]
    assert solo[0][1] == 100 and solo[1][1] > 100
    for w, (w_solo, _) in zip(trained, solo):
        assert same_bits(w, w_solo)


@pytest.mark.parametrize("check_every, message", [
    (100, "training loss is inf (system appears to diverge)"),  # a block ends huge but finite
    (300, "iterate overflowed (system appears to diverge)"),  # the block itself overflows
])
def test_train_point_divergent_chain_between_sane_ones(check_every, message):
    cfg = tiny_sweep_config(max_iters=300, check_every=check_every, loss_tol=0.0)
    etas, seeds = (0.05, 5000.0, 0.1), (51, 52, 53)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trained, reference = train_group(cfg, etas, seeds)
    assert isinstance(trained[1], NonFiniteState) and str(trained[1]) == message
    for k in (0, 2):
        assert same_bits(trained[k], reference(etas[k], seeds[k])[0])


def test_sweep_group_thinned_pin(monkeypatch):
    """One batch size's trained points and their clouds, recorded every 2nd
    step in lockstep, pinned to their bytes."""
    cfg = dataclasses.replace(reference_sweep_config((0.07, 0.17), (16,), 3),
                              max_iters=600, n_cloud=150, burn_in=100, thin=2, n_w=4, n_u=2)
    train = generate_synthetic(cfg.data, cfg.seed)
    test = generate_synthetic(cfg.data, child_seed(cfg.seed, 2))
    seen, point_row = [], experiments._point_row

    def capture(config, problem, train, test, scheme, eta, w_trained, cloud, point_seed):
        seen.extend([w_trained, cloud.points])
        return point_row(config, problem, train, test, scheme, eta, w_trained, cloud, point_seed)

    monkeypatch.setattr(experiments, "_point_row", capture)
    rows = experiments._sweep_group(cfg, train, test, 16, [child_seed(cfg.seed, 10 + k) for k in range(2)])
    assert [r.error for r in rows] == ["", ""] and seen[1].shape == (150, param_dim(_student_problem(cfg), train))
    digest = hashlib.sha256()
    for a in seen:
        digest.update(a.tobytes())
    assert digest.hexdigest() == "24e34d51822d5b7302b72d9695ff7767317aa53c62b61473f282f48d52b6e8db"


def test_sweep_records_typed_training_divergence(tmp_path):
    cfg = dataclasses.replace(
        reference_sweep_config(etas=(0.07, 5000.0), batch_sizes=(16,)),
        max_iters=1000, n_cloud=200, n_w=8, n_u=4,
    )
    result = run_sweep(cfg, str(tmp_path / "div"))
    ok, diverged = result.rows
    assert ok.error == "" and math.isfinite(ok.R) and math.isfinite(ok.gen_gap)
    assert diverged.error.startswith("NonFiniteState")
    lines = open(tmp_path / "div" / "sweep.csv").read().splitlines()
    assert len(lines) == 3 and lines[2].split(",")[-1].startswith("NonFiniteState")


def test_sweep_training_divergence_raises_no_numpy_warning(tmp_path):
    """The loss check on a huge but finite iterate reports NonFiniteState, not an overflow warning."""
    cfg = dataclasses.replace(
        reference_sweep_config(etas=(0.07, 5000.0), batch_sizes=(16,)),
        max_iters=1000, n_cloud=200, n_w=8, n_u=4,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_sweep(cfg, str(tmp_path / "div"))
    assert result.rows[0].error == ""
    assert result.rows[1].error.startswith("NonFiniteState")


def test_sweep_rejects_empty_or_bad_grid():
    with pytest.raises(ConfigError):
        tiny_sweep_config(etas=())
    for etas in ((0.0,), (math.nan,), (0.05, math.nan)):
        with pytest.raises(ConfigError, match="eta must be positive"):
            tiny_sweep_config(etas=etas)
    with pytest.raises(ConfigError, match="n_test"):
        tiny_sweep_config(n_test=0)
    with pytest.raises(ConfigError):  # zero-step blocks would never advance training
        tiny_sweep_config(check_every=0)
    with pytest.raises(ConfigError, match="max_iters must be >= 0, got -5"):  # used to fail in the draws
        tiny_sweep_config(max_iters=-5)
    tiny_sweep_config(max_iters=0)  # trains no step: the starts are the trained points
    with pytest.raises(ConfigError, match="loss_tol must be a number, got nan"):  # used to run to the end
        tiny_sweep_config(loss_tol=math.nan)
    for table in ({"n_w": 0}, {"n_u": 0}):
        with pytest.raises(ConfigError):
            tiny_sweep_config(**table)
    with pytest.raises(ConfigError, match="activation"):
        tiny_sweep_config(activation="relu")
    with pytest.raises(IndivisibleBatch):  # n = 24: rejected before b = 4 trains
        tiny_sweep_config(batch_sizes=(4, 5))
    with pytest.raises(ConfigError, match="b <= n"):
        tiny_sweep_config(batch_sizes=(4, 30))


@pytest.mark.parametrize("hidden", [0, -1])
def test_sweep_rejects_an_empty_hidden_layer(hidden):
    with pytest.raises(ConfigError, match="at least one hidden unit"):
        tiny_sweep_config(hidden=hidden)


def test_scripts_run_end_to_end(tmp_path):
    # `python -m ifslab.cli experiment` in a subprocess: the module entry point
    # and the preset summary print loops
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    common = {"cwd": str(tmp_path), "capture_output": True, "text": True, "timeout": 120,
              "env": {**os.environ, "PYTHONPATH": path}}

    def experiment(kind, out, etas):
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps({"etas": etas, "n_samples": 20_000, "burn_in": 1_000}))
        return subprocess.run(
            [sys.executable, "-m", "ifslab.cli", "experiment", kind,
             "--config", str(config), "--out", out],
            **common,
        )

    proc = experiment("cantor", "cantor", [2.0 / 3.0])
    assert proc.returncode == 0, proc.stderr
    assert "dimension=" in proc.stdout
    assert os.path.exists(tmp_path / "cantor" / "summary.json")

    proc = experiment("linreg2d", "lin", [0.5, 80.0])
    assert proc.returncode == 0, proc.stderr
    assert "dimension=" in proc.stdout  # healthy eta
    assert "error: NonFiniteState" in proc.stdout  # divergent eta
    assert os.path.exists(tmp_path / "lin" / "summary.json")
