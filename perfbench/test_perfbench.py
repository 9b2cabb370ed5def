"""Tests of the benchmark itself: span arithmetic, wrapping, and that every
correctness check passes on a good output and fails on a corrupted one.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# --------------------------------------------------------------------------
# spans


def test_self_times_of_a_synthetic_span_tree():
    s = spans.SpanStats()
    s.enter("run", "experiments", 0.0)
    s.enter("chain", "ifs", 1.0)
    s.enter("draws", "rng", 2.0)
    s.exit(3.0)
    s.exit(4.0)
    s.enter("chain", "ifs", 5.0)
    s.exit(6.0)
    s.exit(10.0)
    assert s.self_s("run") == pytest.approx(6.0)  # 10 - (3 + 1)
    assert s.total_s("chain") == pytest.approx(4.0)
    assert s.self_s("chain") == pytest.approx(3.0)  # (3 - 1) + 1
    assert s.self_s("draws") == pytest.approx(1.0)
    assert s.calls("chain") == 2
    assert dict(s.layer_self) == pytest.approx({"experiments": 6.0, "ifs": 3.0, "rng": 1.0})
    assert sum(s.layer_self.values()) == pytest.approx(10.0)  # self times tile the root span


def test_grad_context_separates_chain_and_training_calls():
    s = spans.SpanStats()
    s.enter("problems.grad", "problems", 0.0)
    s.exit(1.0)
    s.enter("ifs.sample_invariant", "ifs", 2.0)
    s.enter("problems.grad", "problems", 3.0)
    s.exit(4.0)
    s.exit(5.0)
    assert s.calls("problems.grad", "") == 1
    assert s.calls("problems.grad", "ifs") == 1
    assert s.calls("problems.grad") == 2
    assert spans.per_layer_metrics(s)["experiments.train_steps"] == 1


def test_tracer_wraps_every_alias_and_restores_them():
    import ifslab.cli
    import ifslab.complexity
    import ifslab.experiments
    from ifslab.experiments import cantor_system

    original = ifslab.complexity.estimate_R
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = ifslab.complexity.estimate_R
        assert wrapped is not original
        assert ifslab.experiments.estimate_R is wrapped
        assert ifslab.cli.estimate_R is wrapped
        assert "ifslab.cli.box_counting_dimension" in tracer.wrapped
        stats = tracer.fresh()
        ifslab.ifs.sample_invariant(cantor_system(2 / 3), np.zeros(1), 100, 1000, 1, 0)
    finally:
        tracer.uninstall()
    assert ifslab.complexity.estimate_R is original
    assert ifslab.cli.estimate_R is original
    m = spans.per_layer_metrics(stats)
    assert m["ifs.chain_steps"] == 1100
    assert m["rng.draws"] == 1100
    assert m["ifs.chain_self_s"] > 0.0


# --------------------------------------------------------------------------
# clouds checks


def _cantor_points(n: int, seed: int) -> np.ndarray:
    digits = np.random.default_rng(seed).integers(0, 2, size=(n, 30))
    return (2.0 * digits * 3.0 ** -np.arange(1, 31)).sum(axis=1)


def _write_cantor(out: Path, counts: np.ndarray, edges: np.ndarray, dim: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = ["bin_left,bin_right,count"]
    lines += [f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(counts[i])}" for i in range(len(counts))]
    (out / "hist_00.csv").write_text("\n".join(lines) + "\n")
    (out / "dim_00.json").write_text(json.dumps({"value": dim}))
    (out / "summary.json").write_text(json.dumps({"runs": [{"error": ""}]}))


@pytest.fixture
def cantor_hist():
    n = 200_000
    counts, edges = np.histogram(_cantor_points(n, 0), bins=1000, range=(-0.1, 1.1))
    return n, counts, edges


def test_cantor_check_passes_on_cantor_samples(tmp_path, cantor_hist):
    n, counts, edges = cantor_hist
    _write_cantor(tmp_path, counts, edges, math.log(2) / math.log(3))
    checks.check_cantor(str(tmp_path), n)


@pytest.mark.parametrize(
    "corrupt, name",
    [
        ("gap", "cantor.gap_bins_empty"),
        ("drop", "cantor.histogram_holds_every_sample"),
        ("shift", "cantor.mean"),
        ("dim", "cantor.box_dimension"),
    ],
)
def test_cantor_check_fails_on_corruption(tmp_path, cantor_hist, corrupt, name):
    n, counts, edges = cantor_hist
    counts = counts.copy()
    dim = math.log(2) / math.log(3)
    occupied = int(np.flatnonzero(counts)[0])
    if corrupt == "gap":  # one count moved into the middle gap
        counts[occupied] -= 1
        counts[int(np.searchsorted(edges, 0.5))] += 1
    elif corrupt == "drop":
        counts[occupied] -= 1
    elif corrupt == "shift":  # the right half mirrored onto the left: gaps stay empty
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = np.where(centers < 0.5, counts + counts[::-1], 0)
    else:
        dim += 0.08
    _write_cantor(tmp_path, counts, edges, dim)
    with pytest.raises(checks.CheckFailed) as info:
        checks.check_cantor(str(tmp_path), n)
    assert info.value.name == name


def _pgm(max_value: int = 255, side: int = 512) -> bytes:
    pixels = np.zeros(side * side, dtype=np.uint8)
    pixels[7] = max_value
    return f"P5\n{side} {side}\n255\n".encode() + pixels.tobytes()


def test_pgm_check():
    checks.check_pgm(_pgm())
    for bad in (_pgm(254), _pgm()[:-1], _pgm(side=256), b"P2" + _pgm()[2:]):
        with pytest.raises(checks.CheckFailed, match="linreg2d.pgm"):
            checks.check_pgm(bad)


# --------------------------------------------------------------------------
# sweep checks


def _sweep_rows():
    return [
        SimpleNamespace(eta=0.07, b=16, R=4.1, box_dim=math.nan, analytic_bound=math.nan, gen_gap=0.002, error=""),
        SimpleNamespace(eta=0.17, b=16, R=2.5, box_dim=math.nan, analytic_bound=math.nan, gen_gap=0.0003, error=""),
        SimpleNamespace(eta=0.07, b=32, R=3.9, box_dim=math.nan, analytic_bound=math.nan, gen_gap=0.0015, error=""),
    ]


def _write_sweep(out: Path, rows, flip: str = "") -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = [checks.SWEEP_HEADER]
    for r in rows:
        nums = [format(r.eta, ".17g"), str(r.b)] + [format(v, ".17g") for v in (r.R, r.box_dim, r.analytic_bound, r.gen_gap)]
        lines.append(",".join(nums + [r.error]))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    R = np.array([r.R for r in rows])
    stats = {}
    for name, ys in (("R_vs_gen_gap", [r.gen_gap for r in rows]), ("R_vs_eta", [r.eta for r in rows])):
        y = np.array(ys)
        stats[name] = {
            "pearson": float(np.corrcoef(R, y)[0, 1]),
            "spearman": float(np.corrcoef(checks.average_ranks(R), checks.average_ranks(y))[0, 1]),
        }
    if flip:
        stats["R_vs_gen_gap"][flip] *= -1.0
    (out / "sweep_stats.json").write_text(json.dumps({"stats": stats, "warnings": []}))


def test_sweep_check_passes(tmp_path):
    rows = _sweep_rows()
    _write_sweep(tmp_path, rows)
    checks.check_sweep(str(tmp_path), rows)


@pytest.mark.parametrize("flip", ["pearson", "spearman"])
def test_sweep_check_fails_on_flipped_statistic(tmp_path, flip):
    rows = _sweep_rows()
    _write_sweep(tmp_path, rows, flip=flip)
    with pytest.raises(checks.CheckFailed, match="sweep.stats_recomputed"):
        checks.check_sweep(str(tmp_path), rows)


def test_sweep_check_fails_on_bad_rows(tmp_path):
    rows = _sweep_rows()
    _write_sweep(tmp_path, rows)
    rows[1].R = 2.5000000000000004  # one ulp away from the CSV
    with pytest.raises(checks.CheckFailed, match="sweep.csv_round_trip"):
        checks.check_sweep(str(tmp_path), rows)
    for field, value in (("error", "ComputeError: diverged"), ("R", math.nan), ("gen_gap", -1e-9)):
        rows = _sweep_rows()
        setattr(rows[0], field, value)
        _write_sweep(tmp_path, rows)
        with pytest.raises(checks.CheckFailed, match="sweep.rows_ok"):
            checks.check_sweep(str(tmp_path), rows)


def test_average_ranks_with_ties():
    assert checks.average_ranks(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [3.5, 1.0, 3.5, 2.0]


# --------------------------------------------------------------------------
# cli_logistic checks

LAM, ETA = workloads.LOGISTIC_LAM, workloads.LOGISTIC_ETA


def test_closed_form_norms_match_the_program_hessian():
    from ifslab.problems import Dataset, Logistic, hvp

    A, y = workloads.logistic_dataset(3)
    data = Dataset(A, y)
    batches = np.arange(len(y)).reshape(-1, workloads.LOGISTIC_B)
    W = np.random.default_rng(1).normal(scale=0.3, size=(5, 2))
    moduli = checks.logistic_jacobian_moduli(W, A, y, batches, LAM, ETA)
    for i, w in enumerate(W):
        for k, batch in enumerate(batches):
            H = np.column_stack([hvp(Logistic(lam=LAM), w, data, batch, e) for e in np.eye(2)])
            dense = np.sort(np.abs(np.linalg.eigvalsh(np.eye(2) - ETA * H)))
            assert moduli[i, k] == pytest.approx(dense, abs=1e-12)


@pytest.fixture
def cli_outputs(tmp_path):
    """A consistent simulate/dimension/complexity output set."""
    A, y = workloads.logistic_dataset(0)
    batches = np.arange(len(y)).reshape(-1, workloads.LOGISTIC_B)
    n, burn_in, n_w, n_u = 400, 10, 40, 25
    points = np.random.default_rng(2).normal(scale=0.2, size=(n, 2))
    cloud = SimpleNamespace(points=points)
    lines = ["iter,w0,w1"] + [f"{burn_in + j + 1},{p[0]!r},{p[1]!r}" for j, p in enumerate(points.tolist())]
    (tmp_path / "samples.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "dimension.json").write_text(json.dumps({"value": 1.7}))
    W = points[(np.arange(n_w) * n) // n_w]
    exact = float(np.log(checks.logistic_jacobian_moduli(W, A, y, batches, LAM, ETA)[..., -1]).mean())
    (tmp_path / "complexity.json").write_text(json.dumps({"inverse_R": exact}))
    args = dict(A=A, y=y, batches=batches, lam=LAM, eta=ETA, burn_in=burn_in, n_w=n_w, n_u=n_u)
    return tmp_path, cloud, exact, args


def test_cli_check_passes(cli_outputs):
    out, cloud, _, args = cli_outputs
    checks.check_cli_logistic(str(out), [0, 0, 0], [cloud, cloud], **args)


def test_cli_check_fails_on_scaled_inverse_R(cli_outputs):
    out, cloud, exact, args = cli_outputs
    (out / "complexity.json").write_text(json.dumps({"inverse_R": 1.1 * exact}))
    with pytest.raises(checks.CheckFailed, match="cli.inverse_R_matches_exact"):
        checks.check_cli_logistic(str(out), [0, 0, 0], [cloud, cloud], **args)


def test_cli_check_fails_on_changed_samples(cli_outputs):
    out, cloud, _, args = cli_outputs
    other = SimpleNamespace(points=cloud.points.copy())
    other.points[5, 1] = np.nextafter(other.points[5, 1], 1.0)
    with pytest.raises(checks.CheckFailed, match="cli.samples_csv_bit_equal"):
        checks.check_cli_logistic(str(out), [0, 0, 0], [other, other], **args)
    with pytest.raises(checks.CheckFailed, match="cli.same_cloud"):
        checks.check_cli_logistic(str(out), [0, 0, 0], [cloud, other], **args)
    with pytest.raises(checks.CheckFailed, match="cli.exit_codes"):
        checks.check_cli_logistic(str(out), [0, 2, 0], [cloud, cloud], **args)


def test_cli_check_fails_outside_the_envelope(cli_outputs):
    out, cloud, _, args = cli_outputs
    args["A"] = args["A"] * 1.3  # radius 2.08 > 2 sqrt(lambda): Gamma_k > 1
    with pytest.raises(checks.CheckFailed, match="cli.envelope"):
        checks.check_cli_logistic(str(out), [0, 0, 0], [cloud, cloud], **args)


# --------------------------------------------------------------------------
# the command itself


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_traced_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * workloads.WORKLOADS[workload].ops_per_round
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} <= set(result["metrics"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clouds", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
