#!/usr/bin/env python3
"""ifslab benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload {clouds,sweep,cli_logistic} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from that
checkout's ``src/``.  The run repeats whole rounds of the workload until S
seconds have passed (at least one round), checks the first round's outputs
and that every later round rewrote them byte for byte, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, from
untraced rounds; with ``--trace 1`` untraced and traced rounds alternate and
the metrics are the per-layer ones (see README.md).  The line before it
gives the median time of each stage, the round count and the BLAS setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Median of reference_s() on the machine where the benchmark was defined
# (2 vCPUs, Python 3.11.7, numpy 2.4.6); see "Machine speed" in README.md.
REFERENCE_NOMINAL_S = 0.195
_MASK64 = (1 << 64) - 1


def set_up(workload: str, seed: int, work_dir: Path):
    """Everything before the first timed call: BLAS pinning, imports, inputs."""
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    try:
        import ifslab
        import ifslab.cli  # noqa: F401  (cli and config are not imported by the package)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ifslab from {SRC}: {exc}")
    if not Path(ifslab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: ifslab came from {ifslab.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]()
    wl.prepare(seed, str(work_dir))
    return wl


def probe_setup_s(args: argparse.Namespace) -> float:
    """Wall time from spawning a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def reference_s() -> float:
    """Time of a fixed loop that uses no ifslab code, mixing the kinds of work
    the workloads do.  Rounds are scaled by it to remove the machine's drift
    in speed."""
    import numpy as np

    t0 = time.perf_counter()
    s0, s1 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
    for _ in range(240_000):  # 64-bit integer mixing, like the xoshiro loop
        s1 ^= s0
        s0 = (((s0 << 24) | (s0 >> 40)) & _MASK64) ^ s1 ^ ((s1 << 16) & _MASK64)
    w = 0.0
    for i in range(240_000):  # scalar float recurrence, like the affine chain
        w = w / 3.0 + (i & 1) * 0.6666666666666666
    A = np.linspace(-1.0, 1.0, 64).reshape(16, 4)
    v = np.full(32, 0.1)
    for _ in range(6_000):  # small array products, like grad and hvp
        Z = A @ v.reshape(8, 4).T
        v = v - 1e-3 * ((1.0 - np.tanh(Z) ** 2).T @ A).ravel()
    return time.perf_counter() - t0


def digest(dirs: list[str]) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(Path(d).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(d)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("clouds", "sweep", "cli_logistic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    tag = f"{args.workload}-{os.getpid()}"
    work_dir = OUT / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, work_dir)
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else [probe_setup_s(args) for _ in range(SETUP_PROBES)]
        wl = set_up(args.workload, args.seed, work_dir)
        return measure(args, wl, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args: argparse.Namespace, wl, setup: list[float]) -> int:
    import checks
    import spans

    tracer = spans.Tracer() if args.trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}  # traced? -> round times
    scaled: list[float] = []  # untraced round times at the nominal reference speed
    reference = [] if tracer else [reference_s()]
    stages: dict[str, list[float]] = {}
    layer_rounds: list[dict[str, float]] = []
    attempted = failed = 0
    artifacts = None
    correct = True
    t_start = time.perf_counter()
    rnd = 0
    while rnd < (2 if tracer else 1) or time.perf_counter() - t_start < args.seconds:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
            stats = tracer.fresh()
        t0 = time.perf_counter()
        try:
            round_stages, round_failed = wl.run_round()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if not tracer:
            reference.append(reference_s())
            scaled.append(wall * REFERENCE_NOMINAL_S / (0.5 * (reference[-2] + reference[-1])))
        attempted += wl.ops_per_round
        failed += round_failed
        if traced:
            layer = spans.per_layer_metrics(stats)
            layer["trace.unattributed_s"] = wall - sum(stats.layer_self.values())
            layer_rounds.append(layer)
        else:
            for name, seconds in round_stages.items():
                stages.setdefault(name, []).append(seconds)
        try:
            if artifacts is None:
                wl.check()
                artifacts = digest(wl.artifact_dirs())
            elif digest(wl.artifact_dirs()) != artifacts:
                raise checks.CheckFailed("rerun.byte_identical", f"round {rnd + 1} outputs differ from round 1")
        except checks.CheckFailed as exc:
            print(f"perfbench: CHECK FAILED {exc}", file=sys.stderr)
            correct = False
            break
        rnd += 1

    if not correct:
        metrics = {}
    elif tracer:
        metrics = {name: (statistics.median(r[name] for r in layer_rounds), unit_of(name))
                   for name in layer_rounds[0]}
        traced_wall = statistics.median(walls[True])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls[False]), "s")
    else:
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "round_s": {"untraced": walls[False], "traced": walls[True]},
        "raw_wall_s": statistics.median(walls[False]),
        "reference_s": reference,
        "stages_median_s": {k: statistics.median(v) for k, v in stages.items()},
        "setup_samples_s": setup,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
    if tracer and layer_rounds:
        info["wrapped"] = tracer.wrapped
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            rows = [{"name": n, "context": c, "calls": r[0], "total_s": r[1], "self_s": r[2]}
                    for (n, c), r in sorted(stats.table.items())]
            json.dump({"last_traced_round": rows}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("fraction"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
