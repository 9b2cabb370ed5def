"""Strict JSON configuration parsing for the command-line front end.

Every command reads a single JSON document.  Unknown keys are rejected
(typos should fail loudly, not silently fall back to defaults), required
keys raise ConfigError with the offending path, and every parsed value is
type-checked before it reaches a builder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .complexity import ComplexityConfig, PowerIterConfig
from .dimension import BoxCountConfig
from .errors import ConfigError
from .experiments import MlpRegression, SweepConfig, UniformLinReg, generate_synthetic
from .optimizers import BatchScheme, PreconditionerSpec, partition_batches
from .problems import (
    Dataset,
    LeastSquares,
    Logistic,
    OneHiddenLayer,
    Problem,
    RobustRegression,
    SmoothHingeSVM,
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

    def sub(self, key: str, required: bool = False) -> Optional["Section"]:
        raw = self.take(key, _MISSING if required else None)
        if raw is None:
            return None
        return Section(raw, f"{self.context}.{key}")

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


def _int_list(value: Any, context: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{context} must be a nonempty list of integers")
    return [_integer(v, f"{context}[{i}]") for i, v in enumerate(value)]


# --------------------------------------------------------------------------
# component parsers


def parse_problem(raw: Any, context: str = "problem") -> Problem:
    sec = Section(raw, context)
    kind = _string(sec.take("kind"), f"{context}.kind")
    if kind == "least_squares":
        problem: Problem = LeastSquares(lam=_real(sec.take("lam", 0.0), f"{context}.lam"))
    elif kind == "logistic":
        problem = Logistic(lam=_real(sec.take("lam", 0.0), f"{context}.lam"))
    elif kind == "robust_regression":
        problem = RobustRegression(
            lam_r=_real(sec.take("lam_r"), f"{context}.lam_r"),
            t0=_real(sec.take("t0"), f"{context}.t0"),
            rho=_string(sec.take("rho", "exp_squared"), f"{context}.rho"),
        )
    elif kind == "smooth_hinge_svm":
        problem = SmoothHingeSVM(
            lam=_real(sec.take("lam"), f"{context}.lam"),
            sigma_smooth=_real(sec.take("sigma_smooth"), f"{context}.sigma_smooth"),
        )
    elif kind == "one_hidden_layer":
        lam = _real(sec.take("lam"), f"{context}.lam")
        activation = _string(sec.take("activation", "sigmoid"), f"{context}.activation")
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
            if m < 1:
                raise ConfigError(f"{context}.hidden must be >= 1")
            scale = _real(sec.take("out_scale", 1.0), f"{context}.out_scale")
            outs = tuple(scale * (1.0 if r % 2 == 0 else -1.0) for r in range(m))
        problem = OneHiddenLayer(lam=lam, out_weights=outs, activation=activation)
    else:
        raise ConfigError(f"{context}.kind: unknown problem kind {kind!r}")
    sec.finish()
    return problem


def parse_data_spec(sec: Section, kind: str, context: str):
    if kind == "uniform_linreg":
        spec = UniformLinReg(
            n=_integer(sec.take("n"), f"{context}.n"),
            d=_integer(sec.take("d"), f"{context}.d"),
        )
    elif kind == "mlp_regression":
        spec = MlpRegression(
            n=_integer(sec.take("n"), f"{context}.n"),
            d=_integer(sec.take("d"), f"{context}.d"),
            teacher_seed=_integer(sec.take("teacher_seed", 1234), f"{context}.teacher_seed"),
            teacher_hidden=_integer(sec.take("teacher_hidden", 8), f"{context}.teacher_hidden"),
            noise_sigma=_real(sec.take("noise_sigma", 0.1), f"{context}.noise_sigma"),
        )
    else:
        raise ConfigError(f"{context}.kind: unknown dataset kind {kind!r}")
    if spec.n < 1 or spec.d < 1:
        raise ConfigError(f"{context}: need n >= 1 and d >= 1")
    return spec


def parse_dataset(raw: Any, context: str = "dataset") -> Dataset:
    sec = Section(raw, context)
    kind = _string(sec.take("kind"), f"{context}.kind")
    if kind == "csv":
        path = _string(sec.take("path"), f"{context}.path")
        sec.finish()
        return load_dataset_csv(path)
    spec = parse_data_spec(sec, kind, context)
    seed = _integer(sec.take("seed", 0), f"{context}.seed")
    sec.finish()
    return generate_synthetic(spec, seed)


def parse_scheme(raw: Any, n: int, context: str = "scheme") -> BatchScheme:
    sec = Section(raw, context)
    mode = _string(sec.take("mode", "partition"), f"{context}.mode")
    b = _integer(sec.take("b"), f"{context}.b")
    shuffle = _boolean(sec.take("shuffle", False), f"{context}.shuffle")
    seed = _integer(sec.take("seed", 0), f"{context}.seed")
    sec.finish()
    return partition_batches(n, b, mode=mode, seed=seed, shuffle=shuffle)


def parse_box_config(raw: Any, context: str = "box_count") -> BoxCountConfig:
    sec = Section(raw, context)
    kwargs: dict[str, Any] = {}
    if "num_scales" in sec.obj:
        kwargs["num_scales"] = _integer(sec.take("num_scales"), f"{context}.num_scales")
    if "scale_ratio" in sec.obj:
        kwargs["scale_ratio"] = _real(sec.take("scale_ratio"), f"{context}.scale_ratio")
    if "coarsest_scale" in sec.obj:
        kwargs["coarsest_scale"] = _real(sec.take("coarsest_scale"), f"{context}.coarsest_scale")
    if "mass_truncation" in sec.obj:
        kwargs["mass_truncation"] = _real(sec.take("mass_truncation"), f"{context}.mass_truncation")
    if "min_occupied" in sec.obj:
        kwargs["min_occupied"] = _integer(sec.take("min_occupied"), f"{context}.min_occupied")
    if "fit_range" in sec.obj:
        pair = _int_list(sec.take("fit_range"), f"{context}.fit_range")
        if len(pair) != 2:
            raise ConfigError(f"{context}.fit_range must be a [lo, hi] pair")
        kwargs["fit_range"] = (pair[0], pair[1])
    sec.finish()
    return BoxCountConfig(**kwargs)


def parse_power_config(raw: Any, context: str = "power_iter") -> PowerIterConfig:
    sec = Section(raw, context)
    cfg = PowerIterConfig(
        tol=_real(sec.take("tol", 1e-6), f"{context}.tol"),
        max_iters=_integer(sec.take("max_iters", 100), f"{context}.max_iters"),
        seed=_integer(sec.take("seed", 0), f"{context}.seed"),
    )
    sec.finish()
    return cfg


def parse_complexity_config(raw: Any, context: str = "complexity") -> ComplexityConfig:
    sec = Section(raw, context)
    power_raw = sec.take("power_iter", None)
    power = (
        parse_power_config(power_raw, f"{context}.power_iter")
        if power_raw is not None
        else PowerIterConfig()
    )
    cfg = ComplexityConfig(
        n_w=_integer(sec.take("n_w", 200), f"{context}.n_w"),
        n_u=_integer(sec.take("n_u", 50), f"{context}.n_u"),
        seed=_integer(sec.take("seed", 0), f"{context}.seed"),
        power_iter=power,
    )
    sec.finish()
    return cfg


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
    thin = _integer(sim.take("thin", 1), f"{context}.simulation.thin")
    seed = _integer(sim.take("seed", 0), f"{context}.simulation.seed")
    w0_raw = sim.take("w0", None)
    sim.finish()
    dim = param_dim(problem, dataset)
    if w0_raw is None:
        w0 = np.zeros(dim)
    else:
        w0 = np.array(_real_list(w0_raw, f"{context}.simulation.w0"))
        if w0.shape != (dim,):
            raise ConfigError(
                f"{context}.simulation.w0 has length {w0.size}, expected {dim} "
                f"for this problem/dataset"
            )

    cplx_raw = sec.take("complexity", None)
    complexity_config = (
        parse_complexity_config(cplx_raw) if cplx_raw is not None else ComplexityConfig()
    )
    out_dir_raw = sec.take("out_dir", None)
    out_dir = _string(out_dir_raw, f"{context}.out_dir") if out_dir_raw is not None else None
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


@dataclass
class CantorSetup:
    etas: list[float]
    n_samples: int
    burn_in: int
    seed: int
    box_config: BoxCountConfig
    out_dir: Optional[str]


def parse_cantor_config(doc: dict, context: str = "config") -> CantorSetup:
    sec = Section(doc, context)
    etas = _real_list(sec.take("etas", [0.01, 1.0 / 3.0, 2.0 / 3.0]), f"{context}.etas")
    setup = CantorSetup(
        etas=etas,
        n_samples=_integer(sec.take("n_samples", 1_000_000), f"{context}.n_samples"),
        burn_in=_integer(sec.take("burn_in", 10_000), f"{context}.burn_in"),
        seed=_integer(sec.take("seed", 0), f"{context}.seed"),
        box_config=(
            parse_box_config(sec.take("box_count"))
            if "box_count" in sec.obj
            else BoxCountConfig()
        ),
        out_dir=(
            _string(sec.take("out_dir"), f"{context}.out_dir") if "out_dir" in sec.obj else None
        ),
    )
    sec.finish()
    return setup


@dataclass
class Linreg2dSetup:
    etas: list[float]
    seed: int
    n_samples: int
    burn_in: int
    box_config: BoxCountConfig
    out_dir: Optional[str]


def parse_linreg2d_config(doc: dict, context: str = "config") -> Linreg2dSetup:
    sec = Section(doc, context)
    etas = _real_list(sec.take("etas", [0.3, 0.5, 0.7, 0.9]), f"{context}.etas")
    setup = Linreg2dSetup(
        etas=etas,
        seed=_integer(sec.take("seed", 0), f"{context}.seed"),
        n_samples=_integer(sec.take("n_samples", 400_000), f"{context}.n_samples"),
        burn_in=_integer(sec.take("burn_in", 10_000), f"{context}.burn_in"),
        box_config=(
            parse_box_config(sec.take("box_count"))
            if "box_count" in sec.obj
            else BoxCountConfig()
        ),
        out_dir=(
            _string(sec.take("out_dir"), f"{context}.out_dir") if "out_dir" in sec.obj else None
        ),
    )
    sec.finish()
    return setup


def parse_sweep_config(doc: dict, context: str = "config") -> tuple[SweepConfig, Optional[str]]:
    sec = Section(doc, context)
    data_sec = Section(sec.take("data"), f"{context}.data")
    data_kind = _string(data_sec.take("kind", "mlp_regression"), f"{context}.data.kind")
    if data_kind != "mlp_regression":
        raise ConfigError(f"{context}.data.kind: sweep training data must be mlp_regression")
    data = parse_data_spec(data_sec, data_kind, f"{context}.data")
    data_sec.finish()

    etas = tuple(_real_list(sec.take("etas"), f"{context}.etas"))
    batch_sizes = tuple(_int_list(sec.take("batch_sizes"), f"{context}.batch_sizes"))
    kwargs: dict[str, Any] = {}
    int_fields = ("hidden", "n_test", "max_iters", "check_every", "burn_in", "n_cloud",
                  "thin", "n_w", "n_u", "seed")
    real_fields = ("lam", "out_scale", "loss_tol")
    for key in int_fields:
        if key in sec.obj:
            kwargs[key] = _integer(sec.take(key), f"{context}.{key}")
    for key in real_fields:
        if key in sec.obj:
            kwargs[key] = _real(sec.take(key), f"{context}.{key}")
    if "activation" in sec.obj:
        kwargs["activation"] = _string(sec.take("activation"), f"{context}.activation")
    out_dir = _string(sec.take("out_dir"), f"{context}.out_dir") if "out_dir" in sec.obj else None
    sec.finish()
    return SweepConfig(data=data, etas=etas, batch_sizes=batch_sizes, **kwargs), out_dir
