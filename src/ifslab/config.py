"""Strict JSON configuration parsing for the command-line front end.

Every command reads a single JSON document.  Unknown keys are rejected
(typos should fail loudly, not silently fall back to defaults), required
keys raise ConfigError with the offending path, and every parsed value is
type-checked before it reaches a builder.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import typing
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

from .complexity import ComplexityConfig
from .dimension import BoxCountConfig
from .errors import ConfigError
from .experiments import MlpRegression, SweepConfig, UniformLinReg, generate_synthetic
from .ifs import sample_invariant
from .optimizers import BatchScheme, PreconditionerSpec, partition_batches
from .problems import (
    Dataset,
    LeastSquares,
    Logistic,
    OneHiddenLayer,
    Problem,
    RobustRegression,
    SmoothHingeSVM,
    alternating_out_weights,
    load_dataset_csv,
    param_dim,
)

_MISSING = object()


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be a JSON object")
    return doc


class Section:
    """A dict view that tracks which keys were consumed and rejects leftovers."""

    def __init__(self, obj: Any, context: str):
        if not isinstance(obj, dict):
            raise ConfigError(f"{context} must be a JSON object")
        self.obj = obj
        self.context = context
        self._seen: set[str] = set()

    def take(self, key: str, default: Any = _MISSING) -> Any:
        self._seen.add(key)
        if key in self.obj:
            return self.obj[key]
        if default is _MISSING:
            raise ConfigError(f"{self.context}: missing required key {key!r}")
        return default

    def finish(self) -> None:
        unknown = sorted(set(self.obj) - self._seen)
        if unknown:
            raise ConfigError(f"{self.context}: unknown keys {unknown}")


def _real(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    return float(value)


def _integer(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    return value


def _boolean(value: Any, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{context} must be a boolean, got {value!r}")
    return value


def _string(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context} must be a string, got {value!r}")
    return value


def _real_list(value: Any, context: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{context} must be a nonempty list of numbers")
    return [_real(v, f"{context}[{i}]") for i, v in enumerate(value)]


_SCALARS = {int: _integer, float: _real, str: _string, bool: _boolean}


def _typed(hint: Any, value: Any, context: str) -> Any:
    """``value`` checked against a dataclass field annotation (never null)."""
    if hint in _SCALARS:
        return _SCALARS[hint](value, context)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union:  # Optional[X]: a present key holds an X
        (inner,) = [a for a in args if a is not type(None)]
        return _typed(inner, value, context)
    if typing.get_origin(hint) is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{context} must be a nonempty list")
            args = (args[0],) * len(value)
        elif not isinstance(value, list) or len(value) != len(args):
            raise ConfigError(f"{context} must be a list of {len(args)} values")
        return tuple(_typed(a, v, f"{context}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if dataclasses.is_dataclass(hint):
        return _fill(hint, Section(value, context))
    raise TypeError(f"no JSON reader for annotation {hint!r}")


def _fill(fn: Any, sec: Section, **given: Any) -> Any:
    """``fn(**given, ...)`` with every other parameter read from its key in ``sec``.

    ``fn`` is a dataclass or a function.  A present key is type-checked
    against the parameter's annotation; an absent key keeps the parameter's
    default, or is a missing required key when it has none.  Keys of ``sec``
    that name no parameter are rejected.
    """
    hints = typing.get_type_hints(fn)
    for name, param in inspect.signature(fn).parameters.items():
        if name not in given and (name in sec.obj or param.default is param.empty):
            given[name] = _typed(hints[name], sec.take(name), f"{sec.context}.{name}")
    sec.finish()
    return fn(**given)


def _default(fn: Any, name: str) -> Any:
    """The default of parameter ``name`` of ``fn``, written once there."""
    return inspect.signature(fn).parameters[name].default


def _out_dir(sec: Section) -> Optional[str]:
    return _string(sec.take("out_dir"), f"{sec.context}.out_dir") if "out_dir" in sec.obj else None


# --------------------------------------------------------------------------
# component parsers


_SIMPLE_PROBLEMS = {
    "least_squares": LeastSquares,
    "logistic": Logistic,
    "robust_regression": RobustRegression,
    "smooth_hinge_svm": SmoothHingeSVM,
}
_DATA_SPECS = {"uniform_linreg": UniformLinReg, "mlp_regression": MlpRegression}


def parse_problem(raw: Any, context: str = "problem") -> Problem:
    sec = Section(raw, context)
    kind = _string(sec.take("kind"), f"{context}.kind")
    if kind in _SIMPLE_PROBLEMS:
        return _fill(_SIMPLE_PROBLEMS[kind], sec)
    if kind != "one_hidden_layer":
        raise ConfigError(f"{context}.kind: unknown problem kind {kind!r}")
    weights = sec.take("out_weights", None)
    hidden = sec.take("hidden", None)
    if (weights is None) == (hidden is None):
        raise ConfigError(
            f"{context}: give exactly one of 'out_weights' or 'hidden'+'out_scale'"
        )
    if weights is not None:
        if "out_scale" in sec.obj:
            raise ConfigError(f"{context}: 'out_scale' only applies with 'hidden'")
        outs = tuple(_real_list(weights, f"{context}.out_weights"))
    else:
        m = _integer(hidden, f"{context}.hidden")
        scale = _real(sec.take("out_scale", 1.0), f"{context}.out_scale")
        outs = alternating_out_weights(m, scale)
    return _fill(OneHiddenLayer, sec, out_weights=outs)


def parse_dataset(raw: Any, context: str = "dataset") -> Dataset:
    sec = Section(raw, context)
    kind = _string(sec.take("kind"), f"{context}.kind")
    if kind == "csv":
        path = _string(sec.take("path"), f"{context}.path")
        sec.finish()
        return load_dataset_csv(path)
    if kind not in _DATA_SPECS:
        raise ConfigError(f"{context}.kind: unknown dataset kind {kind!r}")
    seed = _integer(sec.take("seed", 0), f"{context}.seed")
    return generate_synthetic(_fill(_DATA_SPECS[kind], sec), seed)


def parse_scheme(raw: Any, n: int, context: str = "scheme") -> BatchScheme:
    return _fill(partition_batches, Section(raw, context), n=n)


def parse_box_config(raw: Any, context: str = "box_count") -> BoxCountConfig:
    return _fill(BoxCountConfig, Section(raw, context))


def parse_preconditioner(raw: Any, context: str) -> PreconditionerSpec:
    sec = Section(raw, context)
    matrix_raw = sec.take("matrix")
    if not isinstance(matrix_raw, list) or not matrix_raw:
        raise ConfigError(f"{context}.matrix must be a nonempty list of rows")
    matrix = np.array(
        [_real_list(row, f"{context}.matrix[{i}]") for i, row in enumerate(matrix_raw)]
    )
    bounds = _real_list(sec.take("eigen_bounds"), f"{context}.eigen_bounds")
    if len(bounds) != 2:
        raise ConfigError(f"{context}.eigen_bounds must be a [m_low, m_high] pair")
    sec.finish()
    return PreconditionerSpec(matrix, (bounds[0], bounds[1]))


# --------------------------------------------------------------------------
# whole-document parsers


@dataclass
class ExperimentSetup:
    """Parsed `simulate` / `complexity` configuration."""

    problem: Problem
    dataset: Dataset
    scheme: BatchScheme
    optimizer_kind: str
    eta: float
    preconditioner: Optional[PreconditionerSpec]
    w0: np.ndarray
    burn_in: int
    n_samples: int
    thin: int
    seed: int
    complexity_config: ComplexityConfig
    out_dir: Optional[str]


def parse_experiment_config(doc: dict, context: str = "config") -> ExperimentSetup:
    sec = Section(doc, context)
    problem = parse_problem(sec.take("problem"), f"{context}.problem")
    dataset = parse_dataset(sec.take("dataset"), f"{context}.dataset")
    scheme = parse_scheme(sec.take("scheme"), dataset.n, f"{context}.scheme")

    opt = Section(sec.take("optimizer"), f"{context}.optimizer")
    optimizer_kind = _string(opt.take("kind", "sgd"), f"{context}.optimizer.kind")
    if optimizer_kind not in ("sgd", "precond_sgd", "newton"):
        raise ConfigError(f"{context}.optimizer.kind: unknown kind {optimizer_kind!r}")
    eta = _real(opt.take("eta"), f"{context}.optimizer.eta")
    precond_raw = opt.take("preconditioner", None)
    preconditioner = None
    if optimizer_kind == "precond_sgd":
        if precond_raw is None:
            raise ConfigError(f"{context}.optimizer: precond_sgd needs a 'preconditioner'")
        preconditioner = parse_preconditioner(precond_raw, f"{context}.optimizer.preconditioner")
    elif precond_raw is not None:
        raise ConfigError(f"{context}.optimizer: 'preconditioner' only applies to precond_sgd")
    opt.finish()

    sim = Section(sec.take("simulation"), f"{context}.simulation")
    burn_in = _integer(sim.take("burn_in", 1000), f"{context}.simulation.burn_in")
    n_samples = _integer(sim.take("n_samples", 100_000), f"{context}.simulation.n_samples")
    thin = _integer(sim.take("thin", _default(sample_invariant, "thin")), f"{context}.simulation.thin")
    seed = _integer(sim.take("seed", _default(sample_invariant, "seed")), f"{context}.simulation.seed")
    w0 = np.array(_real_list(sim.take("w0"), f"{context}.simulation.w0")) if "w0" in sim.obj else None
    sim.finish()
    dim = param_dim(problem, dataset)
    if w0 is None:
        w0 = np.zeros(dim)
    elif w0.shape != (dim,):
        raise ConfigError(
            f"{context}.simulation.w0 has length {w0.size}, expected {dim} "
            f"for this problem/dataset"
        )

    complexity_config = (
        _fill(ComplexityConfig, Section(sec.take("complexity"), f"{context}.complexity"))
        if "complexity" in sec.obj
        else ComplexityConfig()
    )
    out_dir = _out_dir(sec)
    sec.finish()
    return ExperimentSetup(
        problem=problem,
        dataset=dataset,
        scheme=scheme,
        optimizer_kind=optimizer_kind,
        eta=eta,
        preconditioner=preconditioner,
        w0=w0,
        burn_in=burn_in,
        n_samples=n_samples,
        thin=thin,
        seed=seed,
        complexity_config=complexity_config,
        out_dir=out_dir,
    )


def parse_preset_config(doc: dict, context: str = "config") -> tuple[dict[str, Any], Optional[str]]:
    """Keyword arguments for ``run_cantor`` / ``run_linreg2d``, and the out_dir.

    Only the keys present become arguments; the runner's defaults and the
    preset's reference settings cover the rest.
    """
    sec = Section(doc, context)
    kwargs: dict[str, Any] = {}
    if "etas" in sec.obj:
        kwargs["etas"] = _real_list(sec.take("etas"), f"{context}.etas")
    for key in ("n_samples", "burn_in", "seed"):
        if key in sec.obj:
            kwargs[key] = _integer(sec.take(key), f"{context}.{key}")
    if "box_count" in sec.obj:
        kwargs["box_config"] = parse_box_config(sec.take("box_count"))
    out_dir = _out_dir(sec)
    sec.finish()
    return kwargs, out_dir


def parse_sweep_config(doc: dict, context: str = "config") -> tuple[SweepConfig, Optional[str]]:
    sec = Section(doc, context)
    data_sec = Section(sec.take("data"), f"{context}.data")
    data_kind = _string(data_sec.take("kind", "mlp_regression"), f"{context}.data.kind")
    if data_kind != "mlp_regression":
        raise ConfigError(f"{context}.data.kind: sweep training data must be mlp_regression")
    data = _fill(MlpRegression, data_sec)
    out_dir = _out_dir(sec)
    return _fill(SweepConfig, sec, data=data), out_dir
