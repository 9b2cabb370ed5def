"""Spans around the calls into each ifslab layer, recorded from outside.

``install`` replaces every module attribute (and class method) through which
the program reaches a traced function with a wrapper that opens a span on
entry and closes it on return.  Spans are aggregated in memory by
``SpanStats`` as they close: per (name, context) the call count, the total
duration and the self time (duration minus the time covered by child spans),
plus work counters taken from each call's arguments and result.  Nothing is
written while a round runs; ``per_layer_metrics`` turns one round's
aggregate into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

# A grad/hvp call is attributed to the first of these layers that has an
# open span when it is called; "" means neither (the sweep training loop).
CONTEXT_LAYERS = ("ifs", "complexity")


class SpanStats:
    """Aggregate of closed spans; ``enter``/``exit`` take explicit times."""

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []  # [name, layer, start, child_time, context]
        self._open_layers: Counter = Counter()
        self.table: dict[tuple[str, str], list[float]] = {}  # -> [calls, total_s, self_s]
        self.layer_self: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans = 0

    def enter(self, name: str, layer: str, t: float) -> None:
        context = next((lay for lay in CONTEXT_LAYERS if self._open_layers[lay]), "")
        self._stack.append([name, layer, t, 0.0, context])
        self._open_layers[layer] += 1

    def exit(self, t: float) -> None:
        name, layer, start, child, context = self._stack.pop()
        self._open_layers[layer] -= 1
        duration = t - start
        own = duration - child
        if self._stack:
            self._stack[-1][3] += duration
        row = self.table.setdefault((name, context), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += own
        self.layer_self[layer] += own
        self.spans += 1

    def calls(self, name: str, context: Optional[str] = None) -> int:
        return int(self._sum(name, context, 0))

    def total_s(self, name: str, context: Optional[str] = None) -> float:
        return self._sum(name, context, 1)

    def self_s(self, name: str, context: Optional[str] = None) -> float:
        return self._sum(name, context, 2)

    def _sum(self, name: str, context: Optional[str], column: int) -> float:
        return sum(
            row[column]
            for (n, ctx), row in self.table.items()
            if n == name and (context is None or ctx == context)
        )


# --------------------------------------------------------------------------
# work counters taken at each traced call


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_uniforms(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["rng.draws"] += len(result)


def _count_chain(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    burn_in = _arg(args, kwargs, 2, "burn_in")
    n_samples = _arg(args, kwargs, 3, "n_samples")
    thin = _arg(args, kwargs, 4, "thin", 1)
    c["ifs.chain_steps"] += burn_in + n_samples * thin


def _count_csv_write(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["ifs.csv_rows"] += args[0].points.shape[0]


def _count_csv_read(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["ifs.csv_rows"] += result.points.shape[0]


def _count_box(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    cloud = _arg(args, kwargs, 0, "cloud")
    points = getattr(cloud, "points", cloud)
    config = _arg(args, kwargs, 1, "config")
    num_scales = config.num_scales if config is not None else _default_num_scales()
    c["dimension.point_scales"] += len(points) * num_scales


def _default_num_scales() -> int:
    from ifslab.dimension import BoxCountConfig

    return BoxCountConfig().num_scales


def _count_power_iter(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["complexity.power_calls"] += 1
    c["complexity.power_iters"] += result.iterations
    c["complexity.power_converged"] += int(result.converged)


def _count_estimate(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["complexity.cells"] += result.per_sample_lognorms.size


def _count_write(c: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    c["fileio.bytes_written"] += len(_arg(args, kwargs, 1, "data"))


@dataclass(frozen=True)
class Target:
    """One traced function: ``owner`` is a module or class path in ifslab."""

    owner: str
    attr: str
    layer: str
    count: Optional[Callable[[Counter, tuple, dict, Any], None]] = None

    @property
    def name(self) -> str:
        return f"{self.owner.rsplit('.', 1)[-1]}.{self.attr}"


TARGETS = (
    Target("ifslab.rng.Xoshiro256PP", "uniforms", "rng", _count_uniforms),
    Target("ifslab.problems", "grad", "problems"),
    Target("ifslab.problems", "hvp", "problems"),
    Target("ifslab.ifs", "sample_invariant", "ifs", _count_chain),
    Target("ifslab.ifs.SampleCloud", "write_csv", "ifs", _count_csv_write),
    Target("ifslab.ifs", "read_cloud_csv", "ifs", _count_csv_read),
    Target("ifslab.dimension", "box_counting_dimension", "dimension", _count_box),
    Target("ifslab.complexity", "estimate_R", "complexity", _count_estimate),
    Target("ifslab.complexity", "spectral_norm_power_iter", "complexity", _count_power_iter),
    Target("ifslab.complexity", "generalization_gap", "complexity"),
    Target("ifslab.experiments", "run_cantor", "experiments"),
    Target("ifslab.experiments", "run_linreg2d", "experiments"),
    Target("ifslab.experiments", "run_sweep", "experiments"),
    # the training loop has no public entry point; this private helper is it
    Target("ifslab.experiments", "_train_point", "experiments"),
    Target("ifslab.experiments", "generate_synthetic", "experiments"),
    Target("ifslab.experiments", "histogram_csv_text", "experiments"),
    Target("ifslab.experiments", "density_grid", "experiments"),
    Target("ifslab.experiments", "pgm_bytes", "experiments"),
    Target("ifslab.fileio", "atomic_write_bytes", "fileio", _count_write),
    Target("ifslab.config", "load_json", "config"),
    Target("ifslab.config", "parse_experiment_config", "config"),
    Target("ifslab.config", "parse_box_config", "config"),
    Target("ifslab.cli", "main", "cli"),
)

EMITTERS = ("experiments.histogram_csv_text", "experiments.density_grid", "experiments.pgm_bytes")


def _resolve(path: str) -> Any:
    obj = sys.modules["ifslab"]
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def _wrap(stats_ref: list, target: Target, fn: Callable) -> Callable:
    name, layer, count = target.name, target.layer, target.count
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stats = stats_ref[0]
        stats.enter(name, layer, clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            stats.exit(clock())
        if count is not None:
            count(stats.counters, args, kwargs, result)
        return result

    return traced


class Tracer:
    """Installs and removes the wrappers; ``fresh`` starts a new aggregate."""

    def __init__(self) -> None:
        self._stats_ref = [SpanStats()]
        self._patches: list[tuple[Any, str, Any]] = []
        self.wrapped: list[str] = []  # "module.attr" for every patched attribute

    def fresh(self) -> SpanStats:
        self._stats_ref[0] = SpanStats()
        return self._stats_ref[0]

    def install(self) -> None:
        self.wrapped = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ifslab" or n.startswith("ifslab.")]
        for target in TARGETS:
            owner = _resolve(target.owner)
            original = getattr(owner, target.attr)
            traced = _wrap(self._stats_ref, target, original)
            if isinstance(owner, type):
                self._patch(owner, target.attr, traced, f"{target.owner}.{target.attr}")
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, traced, f"{module.__name__}.{attr}")

    def _patch(self, owner: Any, attr: str, new: Any, label: str) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)
        self.wrapped.append(label)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


# --------------------------------------------------------------------------
# per-layer metrics of one traced round


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(stats: SpanStats) -> dict[str, float]:
    """Per-layer metrics of one round; rates with nothing measured read 0."""
    c = stats.counters
    s = stats
    grad_calls, hvp_calls = s.calls("problems.grad"), s.calls("problems.hvp")
    grad_self, hvp_self = s.self_s("problems.grad"), s.self_s("problems.hvp")
    chain_self = s.self_s("ifs.sample_invariant")
    estimate_s = s.total_s("complexity.estimate_R")
    box_s = s.total_s("dimension.box_counting_dimension")
    train_steps = s.calls("problems.grad", "")
    train_s = s.total_s("experiments._train_point")
    rng_self = s.self_s("Xoshiro256PP.uniforms")
    return {
        "rng.draws": c["rng.draws"],
        "rng.self_s": rng_self,
        "rng.draws_per_s": _rate(c["rng.draws"], rng_self),
        "ifs.chain_steps": c["ifs.chain_steps"],
        "ifs.chain_self_s": chain_self,
        "ifs.chain_steps_per_s": _rate(c["ifs.chain_steps"], chain_self),
        "ifs.csv_write_s": s.self_s("SampleCloud.write_csv"),
        "ifs.csv_read_s": s.self_s("ifs.read_cloud_csv"),
        "ifs.csv_rows": c["ifs.csv_rows"],
        "problems.grad_calls": grad_calls,
        "problems.grad_self_s": grad_self,
        "problems.grad_us": 1e6 * _rate(grad_self, grad_calls),
        "problems.hvp_calls": hvp_calls,
        "problems.hvp_self_s": hvp_self,
        "problems.hvp_us": 1e6 * _rate(hvp_self, hvp_calls),
        "complexity.estimate_R_s": estimate_s,
        "complexity.self_s": s.layer_self["complexity"],
        "complexity.cells": c["complexity.cells"],
        "complexity.cells_per_s": _rate(c["complexity.cells"], estimate_s),
        "complexity.power_iters": c["complexity.power_iters"],
        "complexity.converged_fraction": _rate(
            c["complexity.power_converged"], c["complexity.power_calls"]
        ),
        "dimension.box_count_calls": s.calls("dimension.box_counting_dimension"),
        "dimension.box_count_s": box_s,
        "dimension.points_per_s": _rate(c["dimension.point_scales"], box_s),
        "experiments.train_steps": train_steps,
        "experiments.train_s": train_s,
        "experiments.train_steps_per_s": _rate(train_steps, train_s),
        "experiments.self_s": s.layer_self["experiments"],
        "experiments.emit_s": sum(s.total_s(name) for name in EMITTERS),
        "fileio.bytes_written": c["fileio.bytes_written"],
        "fileio.write_s": s.total_s("fileio.atomic_write_bytes"),
        "config.parse_s": s.layer_self["config"],
        "cli.self_s": s.layer_self["cli"],
        "trace.spans": s.spans,
    }
