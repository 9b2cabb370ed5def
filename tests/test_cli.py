"""End-to-end CLI behavior: exit codes, outputs, determinism."""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from ifslab.cli import main
from ifslab.fileio import fmt_float


def write_config(tmp_path, name, payload):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def experiment_config(tmp_path, **overrides):
    doc = {
        "problem": {"kind": "least_squares", "lam": 0.5},
        "dataset": {"kind": "uniform_linreg", "n": 6, "d": 2, "seed": 3},
        "scheme": {"b": 2},
        "optimizer": {"kind": "sgd", "eta": 0.2},
        "simulation": {"burn_in": 200, "n_samples": 1500, "seed": 1},
    }
    doc.update(overrides)
    return write_config(tmp_path, "experiment.json", doc)


# ---------------------------------------------------------------------------
# bound


def test_bound_prints_value(capsys):
    code = main(
        ["bound", "--kind", "lsq", "--n", "1000", "--b", "10",
         "--eta", "0.1", "--lambda", "1", "--radius", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == fmt_float(math.log(100.0) / math.log(1.0 / 0.9))
    assert float(out) == pytest.approx(43.708, abs=1e-3)


def test_bound_violation_exit_code(capsys):
    code = main(
        ["bound", "--kind", "lsq", "--n", "1000", "--b", "10",
         "--eta", "0.6", "--lambda", "1", "--radius", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "eta < 1/(R^2 + lambda)" in err


def test_bound_missing_flag_is_usage_error(capsys):
    code = main(["bound", "--kind", "lsq", "--n", "1000", "--b", "10"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--kind", "svm", "--lambda", "1", "--radius", "1", "--sigma-smooth", "nan"],
     "sigma_smooth must be finite"),
    (["--kind", "lsq", "--lambda", "1", "--radius", "-1"], "radius must be >= 0"),
])
def test_bound_rejects_non_finite_or_negative_input(capsys, argv, message):
    """The NaN case used to exit 2 with a "margin nan" violation; a negative
    radius printed a bound."""
    assert main(["bound", "--n", "100", "--b", "1", "--eta", "0.1", *argv]) == 1
    assert message in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["transmogrify"]) == 1


# ---------------------------------------------------------------------------
# simulate / dimension / complexity


def test_simulate_writes_cloud(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    csv_path = os.path.join(out, "samples.csv")
    assert os.path.exists(csv_path)
    header = open(csv_path).readline().strip()
    assert header == "iter,w0,w1"
    meta = json.loads(open(os.path.join(out, "simulate.json")).read())
    assert meta["n_samples"] == 1500
    assert meta["dim"] == 2
    assert "1500 samples" in capsys.readouterr().out


def test_simulate_determinism_byte_identical(tmp_path):
    cfg = experiment_config(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_b]) == 0
    a = open(os.path.join(out_a, "samples.csv"), "rb").read()
    b = open(os.path.join(out_b, "samples.csv"), "rb").read()
    assert a == b


def test_simulate_unknown_key_rejected(tmp_path, capsys):
    cfg = experiment_config(tmp_path, problem={"kind": "least_squares", "lamb": 0.5})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown keys ['lamb']" in capsys.readouterr().err


def test_simulate_rejects_removed_top_level_keys(tmp_path, capsys):
    """box_count and power_iter are read from `dimension --config` and
    `complexity.power_iter`; at the top level they are unknown keys."""
    for key, value in (("box_count", {"num_scales": 8}), ("power_iter", {"tol": 1e-6})):
        cfg = experiment_config(tmp_path, **{key: value})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"unknown keys ['{key}']" in capsys.readouterr().err


def test_simulate_rejects_non_finite_start(tmp_path, capsys):
    """JSON readers accept NaN; the start used to run and exit 2 as a divergence."""
    cfg = experiment_config(tmp_path, simulation={"burn_in": 20, "n_samples": 50, "w0": [math.nan, 0.0]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "w0 has non-finite entries" in capsys.readouterr().err


def test_simulate_requires_out_somewhere(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    assert main(["simulate", "--config", cfg]) == 1
    assert "--out" in capsys.readouterr().err


def test_simulate_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1


def test_simulate_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    # used to end in an uncaught UnicodeDecodeError traceback
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"problem": {"kind": "\xff"}}')
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ifslab: config error: cannot read config file {cfg}: not UTF-8")


def test_config_and_csv_files_read_as_utf8_in_an_ascii_locale(tmp_path):
    """Both readers used to decode with the locale's encoding, ASCII here,
    and fail on non-ASCII text that ``atomic_write_text`` writes as UTF-8."""
    import subprocess
    import sys

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"note": "\u00e9t\u00e9 \u2264 \u4e2d"}, ensure_ascii=False), encoding="utf-8")
    data = tmp_path / "d.csv"
    data.write_text("x0,y\n\u0663,1\n2,-1\n", encoding="utf-8")  # an Arabic-Indic 3
    script = (
        "import sys; from ifslab.config import load_json; from ifslab.problems import load_dataset_csv\n"
        "print(ascii(load_json(sys.argv[1])['note']), load_dataset_csv(sys.argv[2]).features.tolist())"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(data)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["'\\xe9t\\xe9", "\\u2264", "\\u4e2d'", "[[3.0],", "[2.0]]"]


def test_simulate_missing_dataset_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    cfg = experiment_config(tmp_path, dataset={"kind": "csv", "path": missing})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ifslab: config error: cannot read dataset file") and missing in err


def test_simulate_rejects_a_dataset_without_features(tmp_path, capsys):
    # such a dataset used to exit 0 with a samples.csv headed "iter," that
    # `ifslab dimension` then rejected
    path = tmp_path / "y.csv"
    path.write_text("y\n1\n2\n3\n")
    cfg = experiment_config(tmp_path, dataset={"kind": "csv", "path": str(path)})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ifslab: config error: ") and "row 1: bad dataset header ['y']" in err
    assert not os.path.exists(tmp_path / "o" / "samples.csv")


def test_divergent_simulate_is_numerical_failure(tmp_path, capsys):
    cfg = experiment_config(
        tmp_path, optimizer={"kind": "sgd", "eta": 80.0}, problem={"kind": "least_squares"}
    )
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "complexity"])
@pytest.mark.parametrize(
    "problem",
    [
        {"kind": "robust_regression", "lam_r": 0.5, "t0": 0},
        {"kind": "robust_regression", "lam_r": 0.5, "t0": -1},
        {"kind": "smooth_hinge_svm", "lam": 0.5, "sigma_smooth": 0},
        {"kind": "smooth_hinge_svm", "lam": 0.5, "sigma_smooth": -0.5},
    ],
)
def test_problem_parameter_outside_formula_is_config_error(tmp_path, capsys, command, problem):
    # the robust t0 cases used to diverge (exit 2) and the SVM cases to exit 0
    # with R = NaN or a finite R from a non-convex loss
    path = tmp_path / "cls.csv"
    path.write_text("x0,x1,y\n0.5,0.1,1\n-0.3,0.2,-1\n0.2,-0.4,1\n-0.1,-0.3,-1\n")
    cfg = experiment_config(tmp_path, problem=problem, dataset={"kind": "csv", "path": str(path)})
    out = ["--out", str(tmp_path / "o")] if command == "simulate" else []
    assert main([command, "--config", cfg, *out]) == 1
    field = "t0" if "t0" in problem else "sigma_smooth"
    assert f"{field} must be > 0" in capsys.readouterr().err


def test_dimension_roundtrip(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    out = str(tmp_path / "out")
    main(["simulate", "--config", cfg, "--out", out])
    capsys.readouterr()
    est_path = str(tmp_path / "est.json")
    code = main(
        ["dimension", "--samples", os.path.join(out, "samples.csv"), "--out", est_path]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"value", "scales", "counts", "fit_r2"}
    assert 0.0 <= printed["value"] <= 2.0
    assert json.loads(open(est_path).read()) == printed


def test_dimension_missing_samples_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["dimension", "--samples", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ifslab: config error: cannot read sample-cloud file") and missing in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_dimension_rejects_non_finite_cloud(tmp_path, capsys, bad):
    """Such a cloud used to end in a LinAlgError (nan) or math domain error (inf) traceback."""
    samples = tmp_path / "cloud.csv"
    samples.write_text("iter,w0\n1,0.1\n2," + bad + "\n3,0.5\n4,0.7\n5,0.9\n")
    assert main(["dimension", "--samples", str(samples)]) == 1
    assert "config error: cloud has non-finite points" in capsys.readouterr().err


def test_dimension_with_box_config(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    out = str(tmp_path / "out")
    main(["simulate", "--config", cfg, "--out", out])
    capsys.readouterr()
    box = write_config(tmp_path, "box.json", {"num_scales": 8, "mass_truncation": 0.0})
    code = main(["dimension", "--samples", os.path.join(out, "samples.csv"), "--config", box])
    assert code == 0
    bad = write_config(tmp_path, "badbox.json", {"scales": 8})
    code = main(["dimension", "--samples", os.path.join(out, "samples.csv"), "--config", bad])
    assert code == 1
    assert "unknown keys ['scales']" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ('{"coarsest_scale": 1e999}', "coarsest_scale must be a finite number above 0, got inf"),
    ('{"coarsest_scale": 1e-300}', "box-count grid too fine: the finest delta 4.88281e-304 needs"),
    ('{"num_scales": 2000}', "box-count grid too fine: the finest delta 0 needs inf cells per axis"),
])
def test_dimension_rejects_a_bad_grid(tmp_path, capsys, text, message):
    """These used to end in a math domain error or np.ravel_multi_index traceback."""
    samples = tmp_path / "cloud.csv"
    samples.write_text("iter,w0,w1\n1,0,0\n2,1,0.5\n3,0.25,1\n")
    box = tmp_path / "box.json"
    box.write_text(text)
    assert main(["dimension", "--samples", str(samples), "--config", str(box)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_complexity_estimate(tmp_path, capsys):
    cfg = experiment_config(
        tmp_path,
        complexity={"n_w": 20, "n_u": 10},
    )
    code = main(["complexity", "--config", cfg])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"R", "inverse_R", "n_w", "n_u", "converged_fraction"}
    assert printed["inverse_R"] < 0.0  # small eta, contractive


@pytest.mark.parametrize("key", ["n_w", "n_u"])
def test_complexity_rejects_empty_table(tmp_path, capsys, key):
    cfg = experiment_config(tmp_path, complexity={key: 0})
    assert main(["complexity", "--config", cfg]) == 1
    assert "n_w and n_u must be positive" in capsys.readouterr().err


def test_config_sections_fill_their_dataclasses(tmp_path):
    from ifslab.complexity import ComplexityConfig, PowerIterConfig
    from ifslab.config import (parse_box_config, parse_experiment_config, parse_problem,
                               parse_sweep_config)
    from ifslab.dimension import BoxCountConfig
    from ifslab.experiments import MlpRegression, _student_problem
    from ifslab.problems import OneHiddenLayer, RobustRegression

    setup = parse_experiment_config({
        "problem": {"kind": "robust_regression", "lam_r": 1, "t0": 4.0},
        "dataset": {"kind": "uniform_linreg", "n": 6, "d": 2},
        "scheme": {"b": 2},
        "optimizer": {"eta": 0.1},
        "simulation": {},
        "complexity": {"n_u": 7, "power_iter": {"max_iters": 9}},
    })
    assert setup.problem == RobustRegression(lam_r=1.0, t0=4.0)
    assert isinstance(setup.problem.lam_r, float)
    assert setup.complexity_config == ComplexityConfig(n_u=7, power_iter=PowerIterConfig(max_iters=9))
    box = parse_box_config({"coarsest_scale": 1, "fit_range": [2, 6]})
    assert box == BoxCountConfig(coarsest_scale=1.0, fit_range=(2, 6))
    sweep, out_dir = parse_sweep_config(
        {"data": {"n": 8, "d": 2, "noise_sigma": 0}, "etas": [0.1, 1], "batch_sizes": [2]}
    )
    assert sweep.data == MlpRegression(n=8, d=2, noise_sigma=0.0)
    assert sweep.etas == (0.1, 1.0) and sweep.batch_sizes == (2,) and out_dir is None
    assert parse_problem({"kind": "one_hidden_layer", "lam": 0.5, "hidden": 2}) == OneHiddenLayer(
        lam=0.5, out_weights=(1.0, -1.0)
    )
    # a config's hidden + out_scale net is the sweep's student for the same settings
    student = {"lam": 0.01, "hidden": 3, "out_scale": 2.5, "activation": "tanh"}
    assert parse_problem({"kind": "one_hidden_layer", **student}) == _student_problem(
        dataclasses.replace(sweep, **student)
    ) == OneHiddenLayer(lam=0.01, out_weights=(2.5, -2.5, 2.5), activation="tanh")


def test_config_omitted_keys_take_the_callee_defaults():
    """Scheme shuffle/seed and simulation thin/seed default to the
    parameters of ``partition_batches`` and ``sample_invariant``."""
    import inspect

    from ifslab.config import parse_experiment_config, parse_scheme
    from ifslab.errors import ConfigError
    from ifslab.ifs import sample_invariant
    from ifslab.optimizers import partition_batches

    setup = parse_experiment_config({
        "problem": {"kind": "least_squares"},
        "dataset": {"kind": "uniform_linreg", "n": 6, "d": 2},
        "scheme": {"b": 2},
        "optimizer": {"eta": 0.1},
        "simulation": {},
    })
    scheme = partition_batches(6, 2)
    assert np.array_equal(setup.scheme.batches, scheme.batches)
    assert np.array_equal(setup.scheme.probs, scheme.probs)
    params = inspect.signature(sample_invariant).parameters
    assert (setup.thin, setup.seed) == (params["thin"].default, params["seed"].default)
    shuffled = parse_scheme({"b": 2, "shuffle": True, "seed": 5}, 6)
    expected = partition_batches(6, 2, seed=5, shuffle=True)
    assert np.array_equal(shuffled.batches, expected.batches)
    for doc, message in [({"b": 2, "shuffle": 1}, "scheme.shuffle must be a boolean"),
                         ({"b": 2, "mode": "partition"}, "scheme: unknown keys ['mode']"),
                         ({}, "scheme: missing required key 'b'"),
                         ({"b": 2, "n": 4}, "scheme: unknown keys ['n']")]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_scheme(doc, 6)


@pytest.mark.parametrize("parser, doc, message", [
    ("parse_box_config", {"fit_range": [1, 2, 3]}, "box_count.fit_range must be a list of 2 values"),
    ("parse_box_config", {"fit_range": [1, 2.5]}, "box_count.fit_range[1] must be an integer"),
    ("parse_box_config", {"coarsest_scale": None}, "box_count.coarsest_scale must be a number"),
    ("parse_box_config", {"num_scales": True}, "box_count.num_scales must be an integer"),
    ("parse_problem", {"kind": "smooth_hinge_svm", "lam": 1.0},
     "problem: missing required key 'sigma_smooth'"),
    ("parse_box_config", {"coarsest_scale": math.inf}, "coarsest_scale must be a finite number above 0, got inf"),
    ("parse_box_config", {"coarsest_scale": math.nan}, "coarsest_scale must be a finite number above 0, got nan"),
    ("parse_box_config", {"coarsest_scale": 0}, "coarsest_scale must be a finite number above 0, got 0.0"),
])
def test_config_section_errors(parser, doc, message):
    from ifslab import config
    from ifslab.errors import ConfigError

    with pytest.raises(ConfigError) as info:
        getattr(config, parser)(doc)
    assert message in str(info.value)


@pytest.mark.parametrize("complexity, message", [
    ({"power_iter": 3}, "complexity.power_iter must be a JSON object"),
    ({"power_iter": None}, "complexity.power_iter must be a JSON object"),
    ({"power_iter": {"tol": "small"}}, "complexity.power_iter.tol must be a number"),
    ({"seed": None}, "complexity.seed must be an integer"),
    ({"power_iter": {"seed": 4}}, "complexity.power_iter.seed is never read; seed the R table with complexity.seed"),
])
def test_complexity_section_type_errors(tmp_path, capsys, complexity, message):
    cfg = experiment_config(tmp_path, complexity=complexity)
    assert main(["complexity", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"complexity": None}, "config.complexity must be a JSON object"),
    ({"complexity": {"n_w": None}}, "config.complexity.n_w must be an integer"),
    ({"out_dir": None}, "config.out_dir must be a string"),
    ({"simulation": {"burn_in": 200, "n_samples": 1500, "w0": None}},
     "config.simulation.w0 must be a nonempty list of numbers"),
])
def test_experiment_config_rejects_null(tmp_path, capsys, overrides, message):
    """A null key is an error, as in every dataclass section, not "absent"."""
    cfg = experiment_config(tmp_path, **overrides)
    assert main(["complexity", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


def test_complexity_rejects_non_sgd(tmp_path, capsys):
    cfg = experiment_config(
        tmp_path,
        optimizer={"kind": "newton", "eta": 0.5},
        problem={"kind": "least_squares", "lam": 0.5},
    )
    assert main(["complexity", "--config", cfg]) == 1
    assert "sgd" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment presets


def test_experiment_cantor_end_to_end(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cantor.json",
        {"etas": [2.0 / 3.0], "n_samples": 30_000, "burn_in": 500, "seed": 0},
    )
    out = str(tmp_path / "cantor_out")
    code = main(["experiment", "cantor", "--config", cfg, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "dimension=" in text
    for name in ("hist_00.csv", "dim_00.json", "summary.json"):
        assert os.path.exists(os.path.join(out, name))
    # atomic writers leave no temp droppings behind
    assert not [f for f in os.listdir(out) if f.startswith(".tmp-")]


def test_experiment_cantor_rerun_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "cantor.json",
        {"etas": [2.0 / 3.0, 1.0 / 3.0], "n_samples": 20_000, "burn_in": 300, "seed": 4},
    )
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "cantor", "--config", cfg, "--out", out_a]) == 0
    assert main(["experiment", "cantor", "--config", cfg, "--out", out_b]) == 0
    for name in ("hist_00.csv", "hist_01.csv", "dim_00.json", "dim_01.json", "summary.json"):
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b, name


def test_experiment_linreg2d_records_divergence(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "lin.json",
        {"etas": [0.3, 80.0], "seed": 0, "n_samples": 20_000, "burn_in": 500},
    )
    out = str(tmp_path / "lin_out")
    code = main(["experiment", "linreg2d", "--config", cfg, "--out", out])
    assert code == 0  # per-eta failures are recorded, not fatal
    text = capsys.readouterr().out
    assert "error: NonFiniteState" in text
    assert os.path.exists(os.path.join(out, "heatmap_00.pgm"))


def test_experiment_sweep_cli(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "data": {"kind": "mlp_regression", "n": 24, "d": 2, "teacher_seed": 3,
                     "teacher_hidden": 4, "noise_sigma": 0.1},
            "etas": [0.05, 0.1],
            "batch_sizes": [4],
            "hidden": 2,
            "lam": 0.01,
            "out_scale": 1.0,
            "max_iters": 2000,
            "check_every": 100,
            "burn_in": 200,
            "n_cloud": 300,
            "n_w": 16,
            "n_u": 8,
            "seed": 0,
        },
    )
    out = str(tmp_path / "sweep_out")
    code = main(["experiment", "sweep", "--config", cfg, "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "R_vs_gen_gap: pearson=" in text
    assert "R_vs_eta: pearson=" in text
    assert os.path.exists(os.path.join(out, "sweep.csv"))
    assert os.path.exists(os.path.join(out, "sweep_stats.json"))


@pytest.mark.parametrize("setting", [{"n_cloud": 0}, {"thin": 0}, {"burn_in": -1}])
def test_experiment_sweep_rejects_empty_schedule(tmp_path, capsys, monkeypatch, setting):
    from ifslab import experiments

    def no_training(*args):
        raise AssertionError("a sweep point trained")

    monkeypatch.setattr(experiments, "_train_point", no_training)
    cfg = write_config(tmp_path, "s.json", {"data": {"n": 8, "d": 2}, "etas": [0.1],
                                            "batch_sizes": [2], **setting})
    out = tmp_path / "o"
    assert main(["experiment", "sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "need burn_in >= 0, n_samples > 0, thin > 0" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("kind, doc, message", [
    ("linreg2d", {"etas": [math.nan, 0.5], "n_samples": 1_000}, "eta must be positive, got nan"),
    ("sweep", {"data": {"n": 8, "d": 2}, "etas": [math.nan], "batch_sizes": [2]}, "eta must be positive, got nan"),
    ("sweep", {"data": {"n": 8, "d": 2}, "etas": [0.1], "batch_sizes": [2], "n_test": 0}, "n_test must be >= 1"),
    ("sweep", {"data": {"n": 8, "d": 2}, "etas": [0.1], "batch_sizes": [2], "max_iters": -5},
     "config error: max_iters must be >= 0, got -5"),
    ("sweep", {"data": {"n": 8, "d": 2}, "etas": [0.1], "batch_sizes": [2], "loss_tol": math.nan},
     "config error: loss_tol must be a number, got nan"),
])
def test_experiment_rejects_nan_eta_and_empty_test_set(tmp_path, capsys, kind, doc, message):
    """A NaN eta used to pass the eta <= 0 checks and run (exit 0); n_test 0
    failed only after the sweep had made its output directory.  A negative
    max_iters failed in the index draws with a message that named no key,
    and a NaN loss_tol trained every chain to max_iters, since no loss is
    below it."""
    cfg = write_config(tmp_path, "c.json", doc)
    out = tmp_path / "o"
    assert main(["experiment", kind, "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


def test_experiment_sweep_rejects_empty_hidden_layer(tmp_path, capsys, monkeypatch):
    from ifslab import experiments

    def no_training(*args):
        raise AssertionError("a sweep point trained")

    monkeypatch.setattr(experiments, "_train_point", no_training)
    cfg = write_config(tmp_path, "s.json", {"data": {"n": 8, "d": 2}, "etas": [0.1],
                                            "batch_sizes": [2], "hidden": 0})
    out = tmp_path / "o"
    assert main(["experiment", "sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "config error: a one-hidden-layer net needs at least one hidden unit" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


def test_simulate_rejects_empty_hidden_layer(tmp_path, capsys):
    cfg = experiment_config(tmp_path, problem={"kind": "one_hidden_layer", "lam": 0.1, "hidden": 0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "at least one hidden unit" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["cantor", "linreg2d"])
@pytest.mark.parametrize("setting", [{"n_samples": 0}, {"burn_in": -1}])
def test_experiment_preset_rejects_empty_schedule(tmp_path, capsys, kind, setting):
    cfg = write_config(tmp_path, "c.json", {"etas": [0.5], "n_samples": 1_000, **setting})
    out = tmp_path / "o"
    assert main(["experiment", kind, "--config", cfg, "--out", str(out)]) == 1
    assert "need burn_in >= 0, n_samples > 0" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


def test_experiment_config_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"etas": [0.5], "nsamples": 100})
    assert main(["experiment", "cantor", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown keys ['nsamples']" in capsys.readouterr().err


def test_experiment_without_config_runs_reference_settings(tmp_path, monkeypatch):
    """No --config: each preset gets the settings its reference run uses."""
    import inspect

    from ifslab import cli
    from ifslab.dimension import BoxCountConfig
    from ifslab.experiments import SweepResult, reference_sweep_config

    calls = {}

    def stub(kind, runner, result):
        def run(*args, **kwargs):  # the runner's arguments by name, defaults filled in
            bound = inspect.signature(runner).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[kind] = dict(bound.arguments)
            return result
        return run

    monkeypatch.setattr(cli, "run_cantor", stub("cantor", cli.run_cantor, []))
    monkeypatch.setattr(cli, "run_linreg2d", stub("linreg2d", cli.run_linreg2d, []))
    monkeypatch.setattr(cli, "run_sweep", stub("sweep", cli.run_sweep, SweepResult([], {}, [])))
    out = str(tmp_path / "o")
    for kind in ("cantor", "linreg2d", "sweep"):
        assert main(["experiment", kind, "--out", out]) == 0
    box = BoxCountConfig()
    for kind, etas, n_samples in (("cantor", [0.01, 1.0 / 3.0, 2.0 / 3.0], 1_000_000),
                                  ("linreg2d", [0.3, 0.5, 0.7, 0.9], 400_000)):
        args = calls[kind]
        assert list(args.pop("etas")) == etas
        assert args == {"out_dir": out, "n_samples": n_samples, "burn_in": 10_000, "seed": 0,
                        "box_config": box}
    assert calls["sweep"] == {"config": reference_sweep_config(), "out_dir": out}
    assert main(["experiment", "sweep"]) == 1  # no config and no --out: nowhere to write
