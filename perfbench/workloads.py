"""The three workloads: their inputs, one timed round each, and their checks.

A workload is built from the benchmark seed by ``prepare`` (the set-up that
``setup_s`` times), then ``run_round`` makes one closed-loop pass over its
operations, each call waiting for the last, and returns per-stage times.
``check`` verifies the first round's outputs (see checks.py).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import time
from typing import Any

import numpy as np

import checks

# Sizes are chosen so that one round takes a few seconds on a 2-core
# machine, so a run measures several rounds and reports their median.
CANTOR_ETA = 2.0 / 3.0
CANTOR_SAMPLES = 300_000
CANTOR_BURN_IN = 10_000
LINREG_ETAS = (0.3, 0.5, 0.7, 0.9)
LINREG_SAMPLES = 100_000
LINREG_BURN_IN = 10_000

# The cost of the power iterations in R depends on the dataset, so one
# round sweeps SWEEP_DATASETS datasets (two grid points each, both ends of
# the eta range; batch sizes alternate) and its time averages over them.
SWEEP_ETAS = (0.07, 0.17)
SWEEP_BATCH_SIZES = (16, 32)
SWEEP_DATASETS = 4
SWEEP_STEPS = 4_000
SWEEP_N_CLOUD = 1_000
SWEEP_N_W = 8
SWEEP_N_U = 4

LOGISTIC_N = 20
LOGISTIC_B = 2
LOGISTIC_LAM = 1.0
LOGISTIC_ETA = 0.5
LOGISTIC_RADIUS = 1.6  # every row has this norm; R < 2 sqrt(lam) = 2
LOGISTIC_ANGLE = math.pi / 3  # angle between the two rows of each batch
LOGISTIC_SAMPLES = 20_000
LOGISTIC_BURN_IN = 1_000
LOGISTIC_N_W = 100
LOGISTIC_N_U = 50


def _timed(stages: dict, name: str, fn, *args, **kwargs) -> Any:
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    stages[name] = time.perf_counter() - t0
    return result


class Clouds:
    """Cantor preset, then linreg2d: rng, the affine chains, box counting."""

    name = "clouds"
    ops_per_round = 1 + len(LINREG_ETAS)

    def prepare(self, seed: int, work_dir: str) -> None:
        from ifslab import experiments

        self.experiments = experiments
        self.seed = seed
        self.cantor_dir = os.path.join(work_dir, "cantor")
        self.linreg_dir = os.path.join(work_dir, "linreg2d")

    def run_round(self) -> tuple[dict, int]:
        ex, stages = self.experiments, {}
        cantor = _timed(
            stages, "cantor_s", ex.run_cantor,
            [CANTOR_ETA], self.cantor_dir, CANTOR_SAMPLES, CANTOR_BURN_IN, self.seed,
        )
        linreg = _timed(
            stages, "linreg2d_s", ex.run_linreg2d,
            list(LINREG_ETAS), self.seed, self.linreg_dir, LINREG_SAMPLES, LINREG_BURN_IN,
        )
        return stages, sum(bool(r.error) for r in cantor + linreg)

    def check(self) -> None:
        checks.check_cantor(self.cantor_dir, CANTOR_SAMPLES)
        checks.check_linreg2d(self.linreg_dir, len(LINREG_ETAS))

    def artifact_dirs(self) -> list[str]:
        return [self.cantor_dir, self.linreg_dir]


class Sweep:
    """run_sweep on reference-grid corners: grad/hvp at dim 32, training, R."""

    name = "sweep"
    ops_per_round = SWEEP_DATASETS * len(SWEEP_ETAS)

    def prepare(self, seed: int, work_dir: str) -> None:
        from ifslab import experiments

        self.experiments = experiments
        self.configs = []
        for k in range(SWEEP_DATASETS):
            b = SWEEP_BATCH_SIZES[k % len(SWEEP_BATCH_SIZES)]
            base = experiments.reference_sweep_config(SWEEP_ETAS, (b,), SWEEP_DATASETS * seed + k)
            self.configs.append(dataclasses.replace(
                base, max_iters=SWEEP_STEPS, n_cloud=SWEEP_N_CLOUD, n_w=SWEEP_N_W, n_u=SWEEP_N_U
            ))
        self.out_dirs = [os.path.join(work_dir, f"sweep_{k}") for k in range(SWEEP_DATASETS)]
        self.rows: list = []

    def run_round(self) -> tuple[dict, int]:
        stages: dict = {}
        run = self.experiments.run_sweep
        self.rows = [
            _timed(stages, f"sweep_{k}_s", run, config, out).rows
            for k, (config, out) in enumerate(zip(self.configs, self.out_dirs))
        ]
        return stages, sum(bool(r.error) for rows in self.rows for r in rows)

    def check(self) -> None:
        for out_dir, rows in zip(self.out_dirs, self.rows):
            checks.check_sweep(out_dir, rows)

    def artifact_dirs(self) -> list[str]:
        return self.out_dirs


def logistic_dataset(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of norm LOGISTIC_RADIUS in pairs LOGISTIC_ANGLE apart, each pair
    rotated by a seeded angle; labels are seeded fair +/-1 coins.  Every
    batch Hessian then has the same eigenvalue ratio up to the curvature
    weights, so the cost of a power iteration hardly depends on the seed."""
    gen = np.random.default_rng(seed)
    m = LOGISTIC_N // LOGISTIC_B
    base = gen.uniform(0.0, 2.0 * math.pi, size=m)
    angles = (base[:, None] + LOGISTIC_ANGLE * np.arange(LOGISTIC_B)[None, :]).ravel()
    features = LOGISTIC_RADIUS * np.column_stack([np.cos(angles), np.sin(angles)])
    labels = np.where(gen.uniform(size=LOGISTIC_N) < 0.5, -1.0, 1.0)
    return features, labels


class CliLogistic:
    """ifslab simulate, dimension, complexity on an L2 logistic CSV config."""

    name = "cli_logistic"
    ops_per_round = 3

    def prepare(self, seed: int, work_dir: str) -> None:
        from ifslab import cli

        self.cli = cli
        self.out_dir = os.path.join(work_dir, "cli_logistic")
        os.makedirs(self.out_dir, exist_ok=True)
        self.A, self.y = logistic_dataset(seed)
        data_path = os.path.join(work_dir, "logistic.csv")
        with open(data_path, "w") as fh:
            fh.write("x0,x1,y\n")
            for (a0, a1), label in zip(self.A, self.y):
                fh.write(f"{float(a0)!r},{float(a1)!r},{float(label)!r}\n")
        config = {
            "problem": {"kind": "logistic", "lam": LOGISTIC_LAM},
            "dataset": {"kind": "csv", "path": os.path.abspath(data_path)},
            "scheme": {"b": LOGISTIC_B},
            "optimizer": {"kind": "sgd", "eta": LOGISTIC_ETA},
            "simulation": {"burn_in": LOGISTIC_BURN_IN, "n_samples": LOGISTIC_SAMPLES, "seed": seed},
            "complexity": {"n_w": LOGISTIC_N_W, "n_u": LOGISTIC_N_U, "seed": seed},
        }
        self.config_path = os.path.join(work_dir, "logistic.json")
        with open(self.config_path, "w") as fh:
            json.dump(config, fh, indent=2)
        self.commands = (
            ("simulate_s", ["simulate", "--config", self.config_path, "--out", self.out_dir]),
            ("dimension_s", ["dimension", "--samples", os.path.join(self.out_dir, "samples.csv"),
                             "--out", os.path.join(self.out_dir, "dimension.json")]),
            ("complexity_s", ["complexity", "--config", self.config_path,
                              "--out", os.path.join(self.out_dir, "complexity.json")]),
        )
        self.exit_codes: list[int] = []
        self.clouds: list = []

    def run_round(self) -> tuple[dict, int]:
        stages: dict = {}
        self.exit_codes, self.clouds = [], []
        sample = self.cli.sample_invariant

        def capture(*args, **kwargs):  # keeps the clouds the commands sample, for the check
            cloud = sample(*args, **kwargs)
            self.clouds.append(cloud)
            return cloud

        self.cli.sample_invariant = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for stage, argv in self.commands:
                    self.exit_codes.append(_timed(stages, stage, self.cli.main, argv))
        finally:
            self.cli.sample_invariant = sample
        return stages, sum(code != 0 for code in self.exit_codes)

    def check(self) -> None:
        batches = np.arange(LOGISTIC_N).reshape(-1, LOGISTIC_B)  # unshuffled partition
        checks.check_cli_logistic(
            self.out_dir, self.exit_codes, self.clouds, self.A, self.y, batches,
            LOGISTIC_LAM, LOGISTIC_ETA, LOGISTIC_BURN_IN, LOGISTIC_N_W, LOGISTIC_N_U,
        )

    def artifact_dirs(self) -> list[str]:
        return [self.out_dir]


WORKLOADS = {w.name: w for w in (Clouds, Sweep, CliLogistic)}
