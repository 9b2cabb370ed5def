"""Command-line front end.

Subcommands: simulate (sample an invariant cloud), dimension (box-count a
saved cloud), bound (analytic dimension bound), complexity (Monte-Carlo R
estimate), experiment (cantor | linreg2d | sweep presets).

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import config as cfgmod
from .complexity import estimate_R
from .dimension import analytic_bound, box_counting_dimension
from .errors import ConfigError, IfslabError
from .experiments import (CANTOR_REFERENCE, LINREG2D_REFERENCE, reference_sweep_config, run_cantor,
                          run_linreg2d, run_sweep)
from .fileio import fmt_float, write_json
from .ifs import IfsSystem, read_cloud_csv, sample_invariant
from .optimizers import build_precond_sgd_ifs, build_sgd_ifs, build_stoch_newton_ifs


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors map to exit code 1, not 2."""

    def error(self, message: str):
        raise ConfigError(message)


def _build_system(setup: cfgmod.ExperimentSetup) -> IfsSystem:
    if setup.optimizer_kind == "sgd":
        return build_sgd_ifs(setup.problem, setup.dataset, setup.scheme, setup.eta)
    if setup.optimizer_kind == "precond_sgd":
        return build_precond_sgd_ifs(
            setup.problem, setup.dataset, setup.scheme, setup.eta, setup.preconditioner
        )
    return build_stoch_newton_ifs(setup.problem, setup.dataset, setup.scheme, setup.eta)


def _resolve_out(flag: Optional[str], from_config: Optional[str], what: str) -> str:
    out = flag or from_config
    if out is None:
        raise ConfigError(f"{what}: give --out or set 'out_dir' in the config")
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    setup = cfgmod.parse_experiment_config(cfgmod.load_json(args.config))
    out_dir = _resolve_out(args.out, setup.out_dir, "simulate")
    system = _build_system(setup)
    cloud = sample_invariant(
        system, setup.w0, setup.burn_in, setup.n_samples, setup.thin, setup.seed
    )
    os.makedirs(out_dir, exist_ok=True)
    samples_path = os.path.join(out_dir, "samples.csv")
    cloud.write_csv(samples_path)
    write_json(
        os.path.join(out_dir, "simulate.json"),
        {
            "optimizer": setup.optimizer_kind,
            "eta": setup.eta,
            "n_maps": len(system.probs),
            "n_samples": setup.n_samples,
            "burn_in": setup.burn_in,
            "thin": setup.thin,
            "seed": setup.seed,
            "dim": int(cloud.points.shape[1]),
        },
    )
    print(f"wrote {samples_path} ({cloud.points.shape[0]} samples, d={cloud.points.shape[1]})")
    return 0


def cmd_dimension(args: argparse.Namespace) -> int:
    cloud = read_cloud_csv(args.samples)
    box = (
        cfgmod.parse_box_config(cfgmod.load_json(args.config))
        if args.config
        else cfgmod.BoxCountConfig()
    )
    est = box_counting_dimension(cloud.points, box)
    payload = est.to_json_dict()
    if args.out:
        write_json(args.out, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    value = analytic_bound(
        args.kind,
        n=args.n,
        b=args.b,
        eta=args.eta,
        lam=args.lam,
        radius=args.radius,
        t0=args.t0,
        sigma_smooth=args.sigma_smooth,
        c_const=args.c_const,
        m_low=args.m_low,
        m_high=args.m_high,
        m_b=args.m_b,
    )
    print(fmt_float(value))
    return 0


def cmd_complexity(args: argparse.Namespace) -> int:
    setup = cfgmod.parse_experiment_config(cfgmod.load_json(args.config))
    if setup.optimizer_kind != "sgd":
        raise ConfigError("complexity estimation is defined for the sgd optimizer")
    system = _build_system(setup)
    cloud = sample_invariant(
        system, setup.w0, setup.burn_in, setup.n_samples, setup.thin, setup.seed
    )
    est = estimate_R(
        setup.problem, setup.dataset, setup.scheme, setup.eta, cloud, setup.complexity_config
    )
    payload = est.to_json_dict()
    if args.out:
        write_json(args.out, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    doc = cfgmod.load_json(args.config) if args.config else {}
    if args.kind in ("cantor", "linreg2d"):
        runner, reference = (
            (run_cantor, CANTOR_REFERENCE) if args.kind == "cantor"
            else (run_linreg2d, LINREG2D_REFERENCE)
        )
        kwargs, cfg_out = cfgmod.parse_preset_config(doc)
        out_dir = _resolve_out(args.out, cfg_out, f"experiment {args.kind}")
        records = runner(out_dir=out_dir, **{**reference, **kwargs})
    else:
        sweep_cfg, cfg_out = (
            cfgmod.parse_sweep_config(doc) if args.config else (reference_sweep_config(), None)
        )
        out_dir = _resolve_out(args.out, cfg_out, "experiment sweep")
        result = run_sweep(sweep_cfg, out_dir)
        for name, pair in result.stats.items():
            print(
                f"{name}: pearson={fmt_float(pair['pearson'])} "
                f"spearman={fmt_float(pair['spearman'])}"
            )
        for warning in result.warnings:
            print(f"warning: {warning}")
        print(f"wrote {os.path.join(out_dir, 'sweep.csv')} ({len(result.rows)} rows)")
        return 0
    for rec in records:
        if rec.error:
            print(f"eta={fmt_float(rec.eta)}: error: {rec.error}")
        else:
            print(f"eta={fmt_float(rec.eta)}: dimension={fmt_float(rec.dimension.value)}")
    print(f"wrote {out_dir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ifslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample an invariant cloud to CSV")
    p_sim.add_argument("--config", required=True, help="experiment config JSON")
    p_sim.add_argument("--out", help="output directory (overrides config out_dir)")
    p_sim.set_defaults(func=cmd_simulate)

    p_dim = sub.add_parser("dimension", help="box-counting dimension of a saved cloud")
    p_dim.add_argument("--samples", required=True, help="cloud CSV written by simulate")
    p_dim.add_argument("--config", help="box-count config JSON")
    p_dim.add_argument("--out", help="write the estimate JSON here as well")
    p_dim.set_defaults(func=cmd_dimension)

    p_bound = sub.add_parser("bound", help="analytic dimension bound")
    p_bound.add_argument(
        "--kind",
        required=True,
        help="one of lsq, logistic, robust, svm, one_hidden, precond_lsq, precond_logistic, "
        "precond_robust, precond_svm, precond_one_hidden, newton; a plain kind is its precond_* "
        "kind at m = M = 1, and robust is the exponential-squared rho (||rho''|| = 2/t0)",
    )
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--b", type=int, required=True)
    p_bound.add_argument("--eta", type=float, required=True)
    p_bound.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_bound.add_argument("--radius", type=float, default=0.0)
    p_bound.add_argument("--t0", type=float, default=0.0)
    p_bound.add_argument("--sigma-smooth", type=float, default=0.0)
    p_bound.add_argument("--c-const", type=float, default=0.0)
    p_bound.add_argument("--m-low", type=float, default=0.0)
    p_bound.add_argument("--m-high", type=float, default=0.0)
    p_bound.add_argument("--m-b", type=float, default=None)
    p_bound.set_defaults(func=cmd_bound)

    p_cplx = sub.add_parser("complexity", help="Monte-Carlo complexity estimate R")
    p_cplx.add_argument("--config", required=True, help="experiment config JSON")
    p_cplx.add_argument("--out", help="write the estimate JSON here as well")
    p_cplx.set_defaults(func=cmd_complexity)

    p_exp = sub.add_parser("experiment", help="run a preset experiment")
    p_exp.add_argument("kind", choices=("cantor", "linreg2d", "sweep"))
    p_exp.add_argument("--config", help="experiment config JSON (default: reference settings)")
    p_exp.add_argument("--out", help="output directory (overrides config out_dir)")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"ifslab: config error: {exc}", file=sys.stderr)
        return 1
    except IfslabError as exc:
        print(f"ifslab: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
