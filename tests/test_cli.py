"""Command-line interface: subcommands, outputs, exit codes."""

import configparser
import inspect
import json
import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

import sgdlab
from conftest import INVALID_CONFIGS, make_cfg
from sgdlab.cli import _cleanup, main
from sgdlab.config import ExperimentConfig, manifest_dict, parse_config_file
from sgdlab.problems import least_squares_sum

INI = """\
[problem]
kind = quadratic
spectrum = 1.0, 4.0

[oracle]
kind = gaussian
sigma = 0.5

[schedule]
alpha = 0.3, 0.6

[run]
method = vsgd
horizon = 50
replicas = 4
seed = 11
x0 = 2.0, -1.0
checkpoint_stride = 10
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(INI)
    return str(path)


def test_classify_reports_the_schedule_class(capsys):
    assert main(["classify", "--alpha-c", "0.5", "--alpha-a", "0.6",
                 "--horizon", "1000"]) == 0
    text = capsys.readouterr().out
    assert "thm22_condition" in text and "tail_product" in text
    assert main(["classify", "--alpha-c", "0.5", "--alpha-a", "0.6",
                 "--mu-m", "1.0", "--mu-b", "0.2", "--horizon", "1000",
                 "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"]["diverges"] is True
    assert out["class"]["square_summable"] is True
    assert out["class"]["thm22_condition"] is True
    assert out["class"]["damping_admissible"] is True
    assert out["partial_sums"]["horizon"] == 1000


def test_run_writes_a_trajectory(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", config_path, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "k,alpha,mu,f,grad_sq"
    assert len(lines) == 1 + 6  # checkpoints 0,10,...,50
    assert "wrote" in capsys.readouterr().out
    assert main(["run", config_path, "--out", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "vsgd" and len(payload["points"]) == 6


def test_experiment_writes_manifest_estimates_summary(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["experiment", config_path, "--out", str(out), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["replicas"] == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "sgdlab-experiment"
    assert manifest["config"]["seed"] == 11
    assert (out / "estimates.csv").read_text().startswith("checkpoint,")
    assert json.loads((out / "summary.json").read_text()) == summary
    assert not (out / "curve.svg").exists()
    assert main(["experiment", config_path, "--out", str(out), "--plot"]) == 0
    assert (out / "curve.svg").read_text().startswith("<svg ")


def test_experiment_replays_a_manifest_byte_identically(config_path, tmp_path):
    lsq_path = tmp_path / "lsq.ini"
    lsq_path.write_text(LSQ_INI)   # a least-squares sum with a minibatch oracle
    for name, path in (("quadratic", config_path), ("lsq", str(lsq_path))):
        first = tmp_path / name / "a"
        again = tmp_path / name / "b"
        assert main(["experiment", path, "--out", str(first), "--seed", "23"]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 23
        assert main(["experiment", "--from-manifest", str(first / "manifest.json"),
                     "--out", str(again)]) == 0
        assert (first / "estimates.csv").read_bytes() == \
            (again / "estimates.csv").read_bytes(), name


# One wrong-typed value for each field of a manifest's config block.
WRONG_TYPES = {
    "problem": ["quadratic"], "oracle": "gaussian", "schedule": None, "method": 3,
    "horizon": "200", "replicas": 4.0, "seed": True, "x0": "2.0, -1.0",
    "checkpoint_stride": "10", "lyapunov": "false", "lyap_coeff": "0.5",
    "averaged": 0, "beta": "0.9", "divergence_tolerance": None,
}
# A non-numeric value nested in each object field.
NESTED = {
    "problem": {"kind": "quadratic", "spectrum": [1.0, "x"]},
    "oracle": {"kind": "gaussian", "sigma": "abc"},
    "schedule": {"alpha_c": 0.5, "alpha_a": "abc"},
}


def test_wrong_types_cover_every_manifest_field():
    assert set(WRONG_TYPES) == set(ExperimentConfig.__dataclass_fields__)


def _manifest_with(name, value) -> bytes:
    manifest = manifest_dict(make_cfg())
    manifest["config"][name] = value
    return json.dumps(manifest).encode()


@pytest.mark.parametrize(
    "data,message",
    [(_manifest_with(name, value), f"manifest field {name!r}")
     for name, value in sorted(WRONG_TYPES.items())]
    + [(_manifest_with(name, value), f"[{name}]") for name, value in sorted(NESTED.items())]
    + [(b'{"format": ', "is not JSON"), (b"[1, 2]", "manifest format"),
       (b'{"format": "\xff"}', "is not JSON")],
    ids=sorted(WRONG_TYPES) + [f"nested-{name}" for name in sorted(NESTED)]
    + ["not-json", "not-an-object", "not-utf-8"])
def test_experiment_rejects_a_malformed_manifest(data, message, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_bytes(data)
    out = tmp_path / "out"
    assert main(["experiment", "--from-manifest", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,extra,message", [
    ("experiment", ["--set", "oracle.sigma=abc"], "[oracle] sigma must be a finite number"),
    ("experiment", ["--set", "problem.spectrum=1.0, x"],
     "[problem] spectrum must be a list of numbers"),
    ("run", ["--set", "problem.design=[1,"], "[problem] unknown keys for kind 'quadratic'"),
    ("lyapunov", ["--set", "schedule.alpha=0.5, x"],
     "[schedule] alpha must be a list of numbers"),
    ("run", ["--set", "run.x0=2.0, x"], "[run] x0 must be a list of numbers"),
    ("sweep", [], "[sweep] alpha_a must be a list of numbers"),
])
def test_a_non_numeric_config_value_is_a_usage_error(command, extra, message, config_path,
                                                    tmp_path, capsys):
    with open(config_path, "a") as fh:
        fh.write("\n[sweep]\nalpha_a = 0.5, x\n")
    out = tmp_path / "out"
    assert main([command, config_path, "--out", str(out)] + extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "sweep"])
@pytest.mark.parametrize("kind,extra,message", [
    ("manifest", [], "cannot parse config file {path!r}: File contains no section headers"),
    ("duplicate", [], "option 'kind' in section 'problem' already exists"),
    ("percent", [], "cannot parse config file {path!r}: '%' must be followed by"),
    ("config", ["--set", "oracle.sigma=5%"],
     "override 'oracle.sigma=5%': invalid interpolation syntax"),
    ("config", ["--set", "DEFAULT.sigma=1"], "override 'DEFAULT.sigma=1': Invalid section"),
], ids=["manifest", "duplicate-key", "percent", "override-percent", "override-default"])
def test_a_file_configparser_rejects_is_a_usage_error(command, kind, extra, message,
                                                      config_path, tmp_path, capsys):
    with open(config_path, "a") as fh:
        fh.write("\n[sweep]\nalpha_a = 0.5, 0.6\n")
    if kind == "manifest":   # a manifest passed as a config, without --from-manifest
        assert main(["experiment", config_path, "--out", str(tmp_path / "first")]) == 0
        path = str(tmp_path / "first" / "manifest.json")
    elif kind == "config":
        path = config_path
    else:
        text = pathlib.Path(config_path).read_text()
        path = str(tmp_path / f"{kind}.ini")
        pathlib.Path(path).write_text(
            text.replace("kind = quadratic", "kind = quadratic\nkind = quadratic")
            if kind == "duplicate" else text.replace("sigma = 0.5", "sigma = 5%"))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, path, "--out", str(out)] + extra) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["file", "set", "manifest"])
def test_a_key_its_kind_does_not_read_is_a_usage_error(source, config_path, tmp_path,
                                                       capsys):
    # A misspelled x_star would leave the minimum at the origin.
    message = "[problem] unknown keys for kind 'quadratic': ['xstar']"
    extra = []
    if source == "file":
        text = pathlib.Path(config_path).read_text()
        pathlib.Path(config_path).write_text(
            text.replace("spectrum = 1.0, 4.0", "spectrum = 1.0, 4.0\nxstar = 1.0, 1.0"))
        argv = ["experiment", config_path]
    elif source == "set":
        extra = ["--set", "oracle.sigmas=0.5"]
        message = "[oracle] unknown keys for kind 'gaussian': ['sigmas']"
        argv = ["experiment", config_path]
    else:
        manifest = manifest_dict(make_cfg(problem={"kind": "quadratic",
                                                   "spectrum": [1.0, 4.0],
                                                   "xstar": [1.0, 1.0]}))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        argv = ["experiment", "--from-manifest", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)] + extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# (section, key, INI text, manifest value) of a value of the wrong type,
# which would otherwise be coerced: a boolean that is not true or false, an
# integer key given a fraction or a boolean, a number given a boolean.
WRONG_VALUES = [
    ("run", "averaged", "maybe", "maybe"),
    ("oracle", "replace", "1", "false"),
    ("problem", "dim", "2.9", 2.9),
    ("oracle", "batch", "2.5", 2.5),
    ("oracle", "batch", "true", True),
    ("oracle", "sigma", "true", True),
    ("problem", "design", "[[1.0, 0.0], [0.0, 2.0], [1.0, x]]",
     [[1.0, 0.0], [0.0, 2.0], [1.0, "x"]]),
]


@pytest.mark.parametrize("source", ["file", "set", "manifest"])
@pytest.mark.parametrize("section,key,text,value", WRONG_VALUES,
                         ids=["averaged", "replace", "dim", "batch-fraction",
                              "batch-boolean", "sigma-boolean", "design"])
def test_a_value_of_the_wrong_type_is_a_usage_error(section, key, text, value, source,
                                                   tmp_path, capsys):
    base = LSQ_INI if key in ("replace", "batch", "design") else INI
    if key == "dim":
        base = base.replace("kind = quadratic\nspectrum = 1.0, 4.0",
                            "kind = pseudo_huber\ndim = 2")
    path = tmp_path / "exp.ini"
    path.write_text(base)
    argv, extra = ["experiment", str(path)], []
    message = f"[{section}] {key} must be"
    if source == "file":
        cp = configparser.ConfigParser()
        cp.read_string(base)
        cp.set(section, key, text)
        with open(path, "w") as fh:
            cp.write(fh)
    elif source == "set":
        extra = ["--set", f"{section}.{key}={text}"]
    else:
        manifest = manifest_dict(parse_config_file(str(path)))
        (manifest["config"] if section == "run" else manifest["config"][section])[key] = value
        if section == "run":   # checked with every field of the manifest
            message = f"manifest field {key!r} must be"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        argv = ["experiment", "--from-manifest", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)] + extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# A nested design that is checked as one array must still be rejected for
# any one bad entry: a boolean, a string, a non-finite number, or a row of
# another length.
BAD_DESIGNS = [
    ("boolean", [[1.0, 0.0], [0.0, True], [1.0, 1.0]]),
    ("string", [[1.0, 0.0], [0.0, "2.0"], [1.0, 1.0]]),
    ("non-finite", [[1.0, 0.0], [0.0, float("inf")], [1.0, 1.0]]),
    ("ragged", [[1.0, 0.0], [0.0], [1.0, 1.0]]),
]


@pytest.mark.parametrize("source", ["file", "manifest"])
@pytest.mark.parametrize("design", [d for _, d in BAD_DESIGNS],
                         ids=[name for name, _ in BAD_DESIGNS])
def test_a_bad_entry_of_a_nested_design_is_a_usage_error(design, source, tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(LSQ_INI)
    if source == "file":
        path.write_text(LSQ_INI.replace("[[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]",
                                        json.dumps(design)))
        argv = ["experiment", str(path)]
    else:
        manifest = manifest_dict(parse_config_file(str(path)))
        manifest["config"]["problem"]["design"] = design
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        argv = ["experiment", "--from-manifest", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "[problem] design must be a list of lists of numbers, all finite" \
        in capsys.readouterr().err
    assert not out.exists()


# (make_cfg overrides, section, key, a JSON string in its place): a number
# written as a string is not taken as the number.
STRING_NUMBERS = [
    ({}, "oracle", "sigma", "0.5"),
    (dict(oracle={"kind": "relative_noise", "eta": 0.1}), "oracle", "eta", "0.1"),
    (dict(problem={"kind": "smooth_rastrigin", "dim": 2, "amplitude": 1.0}),
     "problem", "amplitude", "1.0"),
    ({}, "schedule", "alpha_c", "0.5"),
    ({}, "problem", "spectrum", ["1", "4"]),
    (dict(problem={"kind": "least_squares", "design": [[1.0, 0.0], [0.0, 2.0]],
                   "targets": [1.0, -1.0]}),
     "problem", "design", [["1.0", "0.0"], ["0.0", "2.0"]]),
]


@pytest.mark.parametrize("overrides,section,key,value", STRING_NUMBERS,
                         ids=[row[2] for row in STRING_NUMBERS])
def test_a_manifest_number_written_as_a_string_is_a_usage_error(overrides, section, key,
                                                                value, tmp_path, capsys):
    manifest = manifest_dict(make_cfg(**overrides))
    manifest["config"][section][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["experiment", "--from-manifest", str(path), "--out", str(out)]) == 2
    assert f"[{section}] {key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["set", "manifest"])
@pytest.mark.parametrize("key,text,value", [("x0", "nan, 1.0", [float("nan"), 1.0]),
                                            ("lyap_coeff", "inf", float("inf"))])
def test_a_non_finite_value_fails_before_any_step(key, text, value, source, config_path,
                                                 tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr("sgdlab.harness._steps", no_step)
    energy = ["--set", "run.lyapunov=true", "--set", "run.checkpoint_stride=1"]
    if source == "set":
        commands = [[command, config_path, "--set", f"run.{key}={text}"] + energy
                    for command in ("run", "experiment", "lyapunov")]
        message = f"[run] {key} must be"
    else:
        manifest = manifest_dict(make_cfg(lyapunov=True, checkpoint_stride=1))
        manifest["config"][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        commands = [["experiment", "--from-manifest", str(path)]]
        message = f"manifest field {key!r} must be"
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_experiment_requires_a_source(capsys):
    assert main(["experiment"]) == 2
    assert "config file or --from-manifest" in capsys.readouterr().err


@pytest.mark.parametrize("extra,ignored", [
    (["CONFIG"], "the config file"),
    (["--set", "run.horizon=7"], "--set run.horizon=7"),
    (["CONFIG", "--set", "run.horizon=7"], "--set run.horizon=7"),
], ids=["config", "set", "config-and-set"])
def test_experiment_from_a_manifest_rejects_what_it_would_ignore(extra, ignored, config_path,
                                                                 tmp_path, capsys):
    first = tmp_path / "first"
    assert main(["experiment", config_path, "--out", str(first)]) == 0
    capsys.readouterr()
    manifest = str(first / "manifest.json")
    out = tmp_path / "out"
    argv = ["experiment"] + [config_path if a == "CONFIG" else a for a in extra]
    assert main(argv + ["--from-manifest", manifest, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--from-manifest" in err and ignored in err
    assert not out.exists()
    # --seed still replaces the manifest's seed.
    assert main(["experiment", "--from-manifest", manifest, "--seed", "5",
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_reports_an_overflowing_probe_as_a_usage_error(capsys):
    argv = ["classify", "--alpha-c", "1e300", "--alpha-a", "0", "--horizon", "1000"]
    assert main(argv) == 2
    assert "error: schedule partial sums overflow" in capsys.readouterr().err


@pytest.mark.parametrize("source,settings", [
    ("config", {"horizon": 1}),
    ("config", {"checkpoint_stride": 50}),   # the horizon: checkpoints 0 and 50
    ("config", {"checkpoint_stride": 80}),
    ("manifest", {"horizon": 1}),
    ("manifest", {"checkpoint_stride": 50}),
], ids=["horizon-1", "stride-at-horizon", "stride-past-horizon", "manifest-horizon-1",
        "manifest-stride-at-horizon"])
def test_an_experiment_of_two_checkpoints_fails_before_any_step(source, settings, config_path,
                                                                tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr("sgdlab.harness._steps", no_step)
    if source == "config":
        argv = ["experiment", config_path]
        for key, value in settings.items():
            argv += ["--set", f"run.{key}={value}"]
    else:
        manifest = manifest_dict(make_cfg(horizon=50, checkpoint_stride=10))
        manifest["config"].update(settings)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        argv = ["experiment", "--from-manifest", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "at least 3 checkpoints" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,extra,message", [
    ("lyapunov", ["--set", "run.horizon=2000", "--burn-in", "1000"],
     "burn_in must lie in [0, horizon/2)"),
    ("lyapunov", ["--set", "run.horizon=8"], "descent fit needs at least 10 checkpoints"),
    # the summary's descent fit, on an experiment with energies
    ("experiment", ["--set", "run.horizon=8", "--set", "run.lyapunov=true",
                    "--set", "run.checkpoint_stride=1"],
     "descent fit needs at least 10 checkpoints"),
], ids=["burn-in", "short-horizon", "experiment-short-horizon"])
def test_lyapunov_rejects_a_bad_fit_grid_before_any_step(command, extra, message, config_path,
                                                         tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr("sgdlab.harness._steps", no_step)
    out = tmp_path / "out"
    argv = [command, config_path, "--set", "run.method=msgd_damped",
            "--set", "schedule.mu=1.0, 0.0", "--out", str(out)]
    assert main(argv + extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_lyapunov_writes_series_and_fit(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["lyapunov", config_path, "--out", str(out),
                 "--set", "run.method=msgd_damped", "--set", "schedule.mu=1.0, 0.0",
                 "--set", "schedule.alpha=0.3, 0.7"])
    assert code == 0
    lines = (out / "lyapunov.csv").read_text().strip().split("\n")
    assert lines[0] == "k,alpha,mu,mean_Ht,mean_Hbar,se_delta_Ht"
    assert len(lines) == 52  # stride forced to 1
    fit = json.loads((out / "descent_fit.json").read_text())
    assert set(fit) == {"k_hat", "c_hat", "violation_fraction", "burn_in",
                        "status"}


def test_lyapunov_forces_its_fields_before_validating(config_path, tmp_path):
    # the file asks for stride 10, which lyapunov = true alone would reject;
    # the command forces stride 1 and runs it like the lyapunov = false file
    damped = ["--set", "run.method=msgd_damped", "--set", "schedule.mu=1.0, 0.0"]
    outs = []
    for flag in ("true", "false"):
        path = tmp_path / f"lyap-{flag}.ini"
        path.write_text(INI + f"lyapunov = {flag}\n")
        outs.append(tmp_path / flag)
        assert main(["lyapunov", str(path), "--out", str(outs[-1])] + damped) == 0
    for name in ("lyapunov.csv", "descent_fit.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert len((outs[0] / "lyapunov.csv").read_text().strip().split("\n")) == 52


LSQ_INI = """\
[problem]
kind = least_squares
design = [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]
targets = 1.0, -1.0, 0.5

[oracle]
kind = minibatch
batch = 2

[schedule]
alpha = 0.3, 0.6
mu = 1.0, 0.2

[run]
method = vsgd
horizon = 40
replicas = 4
seed = 5
x0 = 0.0, 0.0
"""


def test_each_command_builds_its_problem_once(tmp_path, monkeypatch):
    calls = []

    def counting(design, targets):
        calls.append(1)
        return least_squares_sum(design, targets)

    monkeypatch.setattr("sgdlab.config.least_squares_sum", counting)
    path = tmp_path / "lsq.ini"
    path.write_text(LSQ_INI)
    sweep_path = tmp_path / "sweep.ini"
    sweep_path.write_text(LSQ_INI + "\n[sweep]\nalpha_a = 0.4, 0.5, 0.6\n")
    out = tmp_path / "out"

    def builds(*argv):
        calls.clear()
        assert main(list(argv) + ["--out", str(out)]) == 0
        return len(calls)

    assert builds("experiment", str(path)) == 1
    assert builds("experiment", str(path), "--set", "run.method=nasgd") == 1
    assert builds("experiment", "--from-manifest", str(out / "manifest.json")) == 1
    assert builds("run", str(path)) == 1
    assert builds("lyapunov", str(path), "--set", "run.method=msgd_damped") == 1
    assert builds("sweep", str(sweep_path)) == 1 + 1   # the base, then each draw group


def _ini(cfg) -> str:
    """An ExperimentConfig as config-file text (lists written as JSON)."""
    fmt = lambda v: v if isinstance(v, str) else json.dumps(v)
    sched = cfg.schedule
    lines = ["[problem]"] + [f"{k} = {fmt(v)}" for k, v in cfg.problem.items()]
    lines += ["[oracle]"] + [f"{k} = {fmt(v)}" for k, v in cfg.oracle.items()]
    lines += ["[schedule]", f"alpha = {sched['alpha_c']}, {sched['alpha_a']}"]
    if "mu_m" in sched:
        lines.append(f"mu = {sched['mu_m']}, {sched['mu_b']}")
    lines.append("[run]")
    for key, value in asdict(cfg).items():
        if key not in ("problem", "oracle", "schedule") and value is not None:
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def _config_commands(cfg, tmp_path) -> dict:
    """argv of every command that takes cfg, written as a config file, a
    sweep file and a manifest, keyed by the command's name."""
    path = tmp_path / "cfg.ini"
    path.write_text(_ini(cfg))
    sweep_path = tmp_path / "sweep.ini"
    sweep_path.write_text(_ini(cfg) + "[sweep]\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(manifest_dict(cfg)))
    return {"run": ["run", str(path)], "experiment": ["experiment", str(path)],
            "replay": ["experiment", "--from-manifest", str(manifest)],
            "sweep": ["sweep", str(sweep_path)], "lyapunov": ["lyapunov", str(path)]}


@pytest.mark.parametrize("overrides,message", INVALID_CONFIGS)
def test_every_config_command_rejects_an_invalid_config(overrides, message, tmp_path,
                                                        capsys):
    commands = _config_commands(make_cfg(**overrides), tmp_path)
    if "checkpoint_stride" in overrides:   # lyapunov forces the stride
        del commands["lyapunov"]
    for i, argv in enumerate(commands.values()):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert re.search(message, capsys.readouterr().err), argv
        assert not out.exists() or not any(out.iterdir()), argv


def test_experiment_commands_need_two_replicas_and_run_needs_none(tmp_path, capsys):
    commands = _config_commands(make_cfg(replicas=1), tmp_path)
    del commands["run"]
    for i, argv in enumerate(commands.values()):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert "[run] replicas must be >= 2, got 1" in capsys.readouterr().err, argv
        assert not out.exists() or not any(out.iterdir()), argv
    # a single run simulates one replica whatever the count, or without one
    ini = _ini(make_cfg(replicas=8))
    texts = {}
    for name, text in [("8", ini), ("1", ini.replace("replicas = 8", "replicas = 1")),
                       ("absent", ini.replace("replicas = 8\n", ""))]:
        path = tmp_path / f"run-{name}.ini"
        path.write_text(text)
        out = tmp_path / f"run-{name}"
        assert main(["run", str(path), "--out", str(out)]) == 0, name
        texts[name] = (out / "trajectory.csv").read_text()
    assert "replicas" not in (tmp_path / "run-absent.ini").read_text()
    assert texts["1"] == texts["8"] and texts["absent"] == texts["8"]


def test_sweep_writes_per_cell_rows(config_path, tmp_path):
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(INI + "\n[sweep]\nalpha_a = 0.4, 1.6\n")
    out = tmp_path / "out"
    assert main(["sweep", str(sweep_ini), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert ",ok," in lines[1] and ",failed," in lines[2]


# Six cells: per method, one diverges (a = 0), one runs and one has an
# exponent out of range.
SWEEP_INI = INI.replace("alpha = 0.3, 0.6", "alpha = 0.9, 0.6") + """\
beta = 0.5

[sweep]
methods = vsgd, msgd_classical
alpha_a = 0.0, 0.4, 1.6
"""


@pytest.fixture
def sweep_path(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP_INI)
    return str(path)


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes this process forks."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def test_sweep_output_does_not_depend_on_the_worker_count(sweep_path, tmp_path, monkeypatch,
                                                         capsys, forks):
    monkeypatch.setattr("sgdlab.harness._POOL_MIN_WORK", 0)   # workers for any grid
    real_cpus = sgdlab.harness._usable_cpus()
    outputs = {}
    for cpus in sorted({1, 2, 3, real_cpus}):
        monkeypatch.setattr("sgdlab.harness._usable_cpus", lambda: cpus)
        workers = min(4, cpus)   # one per valid cell at most
        for flag in ([], ["--json"]):
            out = tmp_path / f"out{len(outputs)}"
            forks.clear()
            assert main(["sweep", sweep_path, "--out", str(out)] + flag) == 0
            assert len(forks) == (workers if workers > 1 else 0)
            outputs[cpus, bool(flag)] = ((out / "sweep.csv").read_bytes(),
                                         capsys.readouterr().out.replace(str(out), ""))
    assert len(set(outputs.values())) == 2   # one per output format
    rows = json.loads(outputs[2, True][1])
    assert [r["status"] for r in rows] == ["failed", "ok", "failed"] * 2
    assert "replicas diverged" in rows[0]["error"] and "exp_alpha" in rows[2]["error"]


def test_a_dead_sweep_worker_fails_the_sweep(sweep_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sgdlab.harness._POOL_MIN_WORK", 0)
    monkeypatch.setattr("sgdlab.harness._usable_cpus", lambda: 2)
    parent = os.getpid()
    real_steps = sgdlab.harness._steps

    def dying(problem, oracle, method, beta, alphas, *args):
        alpha_a_04 = np.isclose(alphas[1], 0.9 * 2.0 ** -0.4)
        if method == "msgd_classical" and alpha_a_04:
            assert os.getpid() != parent, "the cell ran in the test process"
            os._exit(1)
        return real_steps(problem, oracle, method, beta, alphas, *args)

    monkeypatch.setattr("sgdlab.harness._steps", dying)
    out = tmp_path / "out"
    assert main(["sweep", sweep_path, "--out", str(out)]) == 3
    assert ("experiment failed: a worker process died: exit code 1"
            in capsys.readouterr().err)
    assert not (out / "sweep.csv").exists()
    assert multiprocessing.active_children() == []


def test_a_sweep_worker_that_dies_while_its_sibling_waits_at_the_barrier_fails_the_sweep(
        sweep_path, tmp_path, monkeypatch, capsys):
    # The four valid cells of sweep_path draw alike, so two workers share
    # their noise: the second dies once the first waits for it at the
    # barrier, where the first would wait for ever.
    monkeypatch.setattr("sgdlab.harness._POOL_MIN_WORK", 0)
    monkeypatch.setattr("sgdlab.harness._usable_cpus", lambda: 2)
    parent = os.getpid()
    marker = tmp_path / "waiting"
    real_blocks = sgdlab.harness._Exchange.blocks

    def dying(exchange, w, *args):   # worker w's shared draws
        assert os.getpid() != parent, "a share ran in the test process"
        if w == 1:
            deadline = time.monotonic() + 20
            while exchange.barrier.n_waiting < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            if exchange.barrier.n_waiting == 1:
                marker.touch()
            os._exit(1)
        yield from real_blocks(exchange, w, *args)

    monkeypatch.setattr("sgdlab.harness._Exchange.blocks", dying)
    out = tmp_path / "out"
    t0 = time.monotonic()
    assert main(["sweep", sweep_path, "--out", str(out)]) == 3
    assert time.monotonic() - t0 < 30
    assert marker.exists()   # the first worker waited at the barrier
    assert ("experiment failed: a worker process died: exit code 1"
            in capsys.readouterr().err)
    assert not (out / "sweep.csv").exists()
    assert multiprocessing.active_children() == []


_POOL_MODULES = """
import json, sys
import sgdlab.harness as harness
from sgdlab.cli import main
if sys.argv[1] == "pooled":   # worker processes for any grid
    harness._POOL_MIN_WORK, harness._usable_cpus = 0, lambda: 2
loaded = lambda: sorted(m for m in ("multiprocessing", "concurrent.futures",
                                    "scipy") if m in sys.modules)
before = loaded()
assert main(sys.argv[2:]) == 0
print(json.dumps([before, loaded()]))
"""


@pytest.mark.parametrize("pooled", [False, True], ids=["small", "pooled"])
def test_a_sweep_loads_no_process_pool_module(pooled, sweep_path, tmp_path):
    # A small sweep runs in-process and loads no process module; a pooled
    # one forks its workers with multiprocessing alone.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_MODULES, "pooled" if pooled else "-", "sweep",
         sweep_path, "--out", str(tmp_path / "out"), "--json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().split("\n")[-1]) == \
        [[], ["multiprocessing"] if pooled else []]


@pytest.fixture
def wide_path(tmp_path):
    """An experiment of two 256-replica blocks."""
    path = tmp_path / "wide.ini"
    path.write_text(INI.replace("replicas = 4", "replicas = 512"))
    return str(path)


@pytest.mark.parametrize("command,path", [("experiment", "config_path"),
                                          ("experiment", "wide_path"),
                                          ("lyapunov", "config_path")],
                         ids=["config_path", "wide_path", "lyapunov-config_path"])
def test_a_small_experiment_loads_no_process_module(command, path, tmp_path, request):
    # wide_path holds two blocks but 25 600 replica-steps, below the work
    # that pays for a worker process or a draw helper; `lyapunov` runs
    # config_path at stride 1, 4 replicas x 50 steps.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_MODULES, "-", command, request.getfixturevalue(path),
         "--out", str(tmp_path / "out"), "--json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().split("\n")[-1]) == [[], []]


def _first_replica(args, kwargs) -> int:
    """The first replica of the range a `_step_range` call runs."""
    return inspect.signature(sgdlab.harness._step_range).bind(*args, **kwargs).arguments["first"]


def test_a_dead_experiment_worker_fails_the_experiment(wide_path, tmp_path, monkeypatch,
                                                       capsys, forks):
    monkeypatch.setattr("sgdlab.harness._SPLIT_MIN_WORK", 0)
    monkeypatch.setattr("sgdlab.harness._usable_cpus", lambda: 2)
    parent = os.getpid()
    real_step_range = sgdlab.harness._step_range

    def dying(*args, **kwargs):   # the first range's child dies, the other stalls
        assert os.getpid() != parent, "a range ran in the test process"
        if _first_replica(args, kwargs) == 0:
            os._exit(1)
        time.sleep(60)
        return real_step_range(*args, **kwargs)

    monkeypatch.setattr("sgdlab.harness._step_range", dying)
    out = tmp_path / "out"
    t0 = time.monotonic()
    assert main(["experiment", wide_path, "--out", str(out)]) == 3
    assert time.monotonic() - t0 < 30
    assert len(forks) == 2   # one child per range
    assert ("experiment failed: a worker process died: exit code 1"
            in capsys.readouterr().err)
    assert not out.exists() or not os.listdir(out)
    assert multiprocessing.active_children() == []


def test_an_interrupted_experiment_stops_its_workers(wide_path, tmp_path, monkeypatch,
                                                     forks):
    monkeypatch.setattr("sgdlab.harness._SPLIT_MIN_WORK", 0)
    monkeypatch.setattr("sgdlab.harness._usable_cpus", lambda: 2)
    pids = tmp_path / "pids"
    pids.mkdir()

    def stalling(*args, **kwargs):   # a child: report, then stall
        (pids / str(os.getpid())).touch()
        time.sleep(60)

    def interrupt():   # a real SIGINT once both children run
        deadline = time.monotonic() + 20
        while len(os.listdir(pids)) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr("sgdlab.harness._step_range", stalling)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    interrupter = threading.Thread(target=interrupt)
    t0 = time.monotonic()
    try:
        interrupter.start()
        with pytest.raises(KeyboardInterrupt):
            main(["experiment", wide_path, "--out", str(tmp_path / "out")])
    finally:
        interrupter.join(30)
        signal.signal(signal.SIGINT, handler)
    assert time.monotonic() - t0 < 30
    assert len(forks) == 2   # one child per range
    assert multiprocessing.active_children() == []
    children = [int(name) for name in os.listdir(pids)]
    assert len(children) == 2
    for pid in children:
        with pytest.raises(ProcessLookupError):   # terminated and reaped
            os.kill(pid, 0)


def test_an_interrupt_ends_a_wait_on_children_in_fresh_processes(tmp_path):
    # A SIGINT only sets a flag that the main thread reads between two
    # bytecodes, so one that lands just before the caller blocks on a child,
    # or in another thread, ends no single blocking read: the caller would
    # see it once a child sends, here after 60 s.  Landing just before the
    # read is a matter of microseconds, so `interrupted_caller.py` runs in
    # 20 fresh processes, every other one interrupted in another thread.
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "interrupted_caller.py")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    for i in range(20):
        workdir = tmp_path / str(i)
        try:
            proc = subprocess.run(
                [sys.executable, script, str(workdir), ("process", "thread")[i % 2]],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                timeout=10)
        except subprocess.TimeoutExpired:
            for name in os.listdir(workdir / "pids"):   # the stalling children
                os.kill(int(name), signal.SIGKILL)
            pytest.fail(f"run {i} was still waiting on its children after 10 s")
        assert proc.returncode == 0, proc.stderr


_KILLED_PARENT = """
import inspect, os, signal, sys, time
import sgdlab.harness as harness
from sgdlab.cli import main
pid_dir, config, out = sys.argv[1:]
harness._usable_cpus = lambda: 2
real_step_range = harness._step_range

def step_range(*args):   # a child: report, then run its range
    open(os.path.join(pid_dir, str(os.getpid())), "w").close()
    first = inspect.signature(real_step_range).bind(*args).arguments["first"]
    if first > 0:   # the last child kills the caller once both have reported
        while len(os.listdir(pid_dir)) < 2:
            time.sleep(0.01)
        os.kill(os.getppid(), signal.SIGKILL)
    return real_step_range(*args)

harness._step_range = step_range
main(["experiment", config, "--out", out])
"""


def _running(pid: int) -> bool:
    """Whether a process exists and is not a zombie (an orphan's new parent
    may never reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_worker_whose_caller_was_killed_exits(tmp_path):
    # At stride 1 each worker's block sums (5001 checkpoints x 2 blocks x 4
    # quantities) outgrow a pipe's buffer, so its send blocks until the
    # caller reads, or fails once no read end is open.
    config = tmp_path / "wide.ini"
    config.write_text(INI.replace("replicas = 4", "replicas = 1024")
                      .replace("horizon = 50", "horizon = 5000")
                      .replace("checkpoint_stride = 10", "checkpoint_stride = 1"))
    pids = tmp_path / "pids"
    pids.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    # Output goes to a file: a worker left running would hold a pipe open.
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_PARENT, str(pids), str(config),
             str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL, stderr=err,
            timeout=60)
    assert proc.returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
    workers = [int(name) for name in os.listdir(pids)]
    assert len(workers) == 2
    deadline = time.monotonic() + 60
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    if left:
        pytest.fail("a worker outlived its killed caller")


_KILLED_SWEEP_CALLER = """
import os, signal, sys, time
import sgdlab.harness as harness
from sgdlab.cli import main
pid_dir, config, out = sys.argv[1:]
harness._POOL_MIN_WORK, harness._usable_cpus = 0, lambda: 2
real_blocks = harness._Exchange.blocks

def blocks(exchange, w, *args):   # a worker: report, then share the draws
    open(os.path.join(pid_dir, str(os.getpid())), "w").close()
    if w == 1:   # once the first waits for it, kill the caller and die
        while len(os.listdir(pid_dir)) < 2 or exchange.barrier.n_waiting < 1:
            time.sleep(0.01)
        os.kill(os.getppid(), signal.SIGKILL)
        os._exit(1)
    yield from real_blocks(exchange, w, *args)

harness._Exchange.blocks = blocks
main(["sweep", config, "--out", out])
"""


def test_a_sweep_worker_at_the_barrier_exits_once_its_caller_was_killed(sweep_path,
                                                                        tmp_path):
    # The caller dies before it can see its second worker die, so nothing
    # stops the first, which waits at the barrier for the second.
    pids = tmp_path / "pids"
    pids.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_SWEEP_CALLER, str(pids), sweep_path,
             str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL, stderr=err,
            timeout=60)
    assert proc.returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
    workers = [int(name) for name in os.listdir(pids)]
    assert len(workers) == 2
    deadline = time.monotonic() + 20
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    if left:
        pytest.fail("a sweep worker outlived its killed caller")


_STALLED_CALLER = """
import dataclasses, os, signal, sys, time
import sgdlab.harness as harness
from sgdlab.cli import main
from sgdlab.config import parse_config_file
pid_dir, kind, config, out = sys.argv[1:]
caller = os.getpid()
harness._POOL_MIN_WORK, harness._SPLIT_MIN_WORK, harness._usable_cpus = 0, 0, lambda: 2

def stalling(*args):   # a child: report, then stall in its range
    open(os.path.join(pid_dir, str(os.getpid())), "w").close()
    while len(os.listdir(pid_dir)) < 2:
        time.sleep(0.01)
    try:   # the first child to see both reported kills the caller
        os.mkdir(pid_dir + ".killed")
        os.kill(caller, signal.SIGKILL)
    except FileExistsError:
        pass
    time.sleep(60)

harness._step_range = stalling
if kind == "experiment":   # two replica ranges
    main(["experiment", config, "--out", out])
else:   # two cells that draw alike, one stepped by each worker of a pool
    cfg = parse_config_file(config)
    harness.sweep([cfg, dataclasses.replace(cfg, method="msgd_classical")])
"""


@pytest.mark.parametrize("kind", ["experiment", "sweep"],
                         ids=["split-range", "pooled-sweep-worker"])
def test_a_stalled_child_exits_once_its_caller_was_killed(kind, wide_path, tmp_path):
    # Each child stalls in its range, where it neither sends nor receives,
    # so only a watch on its caller can end it before the stall does.
    pids = tmp_path / "pids"
    pids.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.run(
            [sys.executable, "-c", _STALLED_CALLER, str(pids), kind, wide_path,
             str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL, stderr=err,
            timeout=60)
    assert proc.returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
    children = [int(name) for name in os.listdir(pids)]
    assert len(children) == 2
    deadline = time.monotonic() + 5
    while any(map(_running, children)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in children if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    if left:
        pytest.fail("a stalled child outlived its killed caller")


def test_pooled_sweep_cells_run_each_experiment_in_one_process(wide_path, tmp_path,
                                                                monkeypatch):
    # Forks in every process append a line, so a cell that split its
    # replicas inside a sweep worker would add one.
    log = tmp_path / "forks"
    real_fork = os.fork

    def logging_fork():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", logging_fork)
    monkeypatch.setattr("sgdlab.harness._POOL_MIN_WORK", 0)
    monkeypatch.setattr("sgdlab.harness._SPLIT_MIN_WORK", 0)
    monkeypatch.setattr("sgdlab.harness._usable_cpus", lambda: 2)
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(pathlib.Path(wide_path).read_text()
                         + "\n[sweep]\nmethods = vsgd\nalpha_a = 0.5, 0.6\n")
    assert main(["sweep", str(sweep_ini), "--out", str(tmp_path / "pooled")]) == 0
    assert log.read_text().split() == [str(os.getpid())] * 2   # the two sweep workers
    # One cell per sweep: no sweep workers, and the cell's experiment splits.
    log.unlink()
    cells = []
    for a in ("0.5", "0.6"):
        cell_ini = tmp_path / f"cell{a}.ini"
        cell_ini.write_text(sweep_ini.read_text().replace("0.5, 0.6", a))
        out = tmp_path / f"cell{a}"
        assert main(["sweep", str(cell_ini), "--out", str(out)]) == 0
        cells.append((out / "sweep.csv").read_text().splitlines())
    assert log.read_text().split() == [str(os.getpid())] * 4   # two children per cell
    pooled = (tmp_path / "pooled" / "sweep.csv").read_text().splitlines()
    assert pooled == cells[0] + cells[1][1:]


@pytest.fixture
def long_path(tmp_path):
    """A narrow experiment of 5000 iterations, five blocks of draws: 4
    replicas x 5001 checkpoints under `lyapunov`."""
    path = tmp_path / "long.ini"
    path.write_text(INI.replace("horizon = 50", "horizon = 5000"))
    return str(path)


def _force_helper(monkeypatch):
    monkeypatch.setattr("sgdlab.harness._HELPER_MIN_WORK", 0)
    monkeypatch.setattr("sgdlab.harness._usable_cpus", lambda: 2)


def test_a_dead_draw_helper_fails_the_experiment(long_path, tmp_path, monkeypatch, capsys):
    _force_helper(monkeypatch)
    marker = tmp_path / "drawn"

    def dying(conn, oracle, gens, horizon, slots, books):
        # Sends the first block, then dies while drawing the second.
        conn.send(len(next(sgdlab.harness._draws(oracle, gens, horizon, slots))))
        marker.touch()
        os._exit(1)

    monkeypatch.setattr("sgdlab.harness._draw_ahead", dying)
    out = tmp_path / "out"
    assert main(["lyapunov", long_path, "--out", str(out)]) == 3
    # The fake ran as the helper, rather than failing on its signature.
    assert marker.exists()
    assert ("experiment failed: a worker process died: exit code 1"
            in capsys.readouterr().err)
    assert not out.exists() or not os.listdir(out)
    assert multiprocessing.active_children() == []


def _in_helper(caller: int, action):
    """`_Checkpoints.reduce` that runs action(*args) first in any process
    but `caller`, that is, in the draw helper."""
    real = sgdlab.harness._Checkpoints.reduce

    def reduce(*args):
        if os.getpid() != caller:
            action(*args)
        real(*args)

    return reduce


def test_a_draw_helper_that_dies_while_reducing_fails_the_experiment(long_path, tmp_path,
                                                                     monkeypatch, capsys):
    _force_helper(monkeypatch)
    marker = tmp_path / "reducing"

    def die(*args):
        marker.touch()
        os._exit(1)

    monkeypatch.setattr("sgdlab.harness._Checkpoints.reduce", _in_helper(os.getpid(), die))
    out = tmp_path / "out"
    assert main(["lyapunov", long_path, "--out", str(out)]) == 3
    assert marker.exists()
    assert ("experiment failed: a worker process died: exit code 1"
            in capsys.readouterr().err)
    assert not out.exists() or not os.listdir(out)
    assert multiprocessing.active_children() == []


def test_an_interrupt_while_the_draw_helper_reduces_stops_it(long_path, tmp_path,
                                                             monkeypatch):
    _force_helper(monkeypatch)
    pid_file = tmp_path / "pid"

    def stall(*args):   # the helper: report, then stall in its first reduce
        with open(f"{pid_file}.tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(f"{pid_file}.tmp", pid_file)
        time.sleep(60)

    def interrupt():   # a real SIGINT once the helper reduces
        deadline = time.monotonic() + 20
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr("sgdlab.harness._Checkpoints.reduce", _in_helper(os.getpid(), stall))
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    interrupter = threading.Thread(target=interrupt)
    t0 = time.monotonic()
    try:
        interrupter.start()
        with pytest.raises(KeyboardInterrupt):
            main(["lyapunov", long_path, "--out", str(tmp_path / "out")])
    finally:
        interrupter.join(30)
        signal.signal(signal.SIGINT, handler)
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):   # terminated and reaped
        os.kill(int(pid_file.read_text()), 0)


def _reporting_helper(pid_file):
    """`_draw_ahead` that first writes its process id to pid_file."""
    real = sgdlab.harness._draw_ahead

    def reporting(*args):
        with open(f"{pid_file}.tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(f"{pid_file}.tmp", pid_file)
        real(*args)

    return reporting


def test_an_interrupted_experiment_stops_its_draw_helper(long_path, tmp_path, monkeypatch):
    _force_helper(monkeypatch)
    pid_file = tmp_path / "pid"
    monkeypatch.setattr("sgdlab.harness._draw_ahead", _reporting_helper(pid_file))
    real_blocks = sgdlab.harness._Helper.blocks

    def interrupted(*args):   # the third block of draws, with the helper running
        for i, block in enumerate(real_blocks(*args)):
            if i == 2:
                deadline = time.monotonic() + 20
                while not pid_file.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise KeyboardInterrupt
            yield block

    monkeypatch.setattr("sgdlab.harness._Helper.blocks", interrupted)
    # `info` keeps the traceback, and with it the stepper: the helper must be
    # stopped as the interrupt propagates, not when the stepper is collected.
    with pytest.raises(KeyboardInterrupt) as info:
        main(["lyapunov", long_path, "--out", str(tmp_path / "out")])
    assert multiprocessing.active_children() == [], info
    with pytest.raises(ProcessLookupError):   # terminated and reaped
        os.kill(int(pid_file.read_text()), 0)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity call")
def test_the_draw_helper_and_its_caller_keep_the_callers_cpus(long_path, tmp_path,
                                                              monkeypatch):
    _force_helper(monkeypatch)
    cpus = os.sched_getaffinity(0)
    seen = tmp_path / "helper"

    def report(*args):   # the helper's CPUs, from its first reduce
        if not seen.exists():
            seen.write_text(json.dumps(sorted(os.sched_getaffinity(0))))

    monkeypatch.setattr("sgdlab.harness._Checkpoints.reduce", _in_helper(os.getpid(), report))
    real_blocks = sgdlab.harness._Helper.blocks
    caller = []

    def recording(*args):   # the caller's CPUs at the first block
        for block in real_blocks(*args):
            caller.append(os.sched_getaffinity(0))
            yield block

    monkeypatch.setattr("sgdlab.harness._Helper.blocks", recording)
    assert main(["lyapunov", long_path, "--out", str(tmp_path / "out")]) == 0
    assert caller[0] == cpus
    assert os.sched_getaffinity(0) == cpus
    assert set(json.loads(seen.read_text())) == cpus


@pytest.mark.parametrize("command,path", [("experiment", "wide_path"),
                                          ("lyapunov", "long_path")],
                         ids=["worker", "draw-helper"])
def test_an_interrupt_inside_a_fork_stops_the_child(command, path, tmp_path, monkeypatch,
                                                    request):
    # A real SIGINT lands after the fork, before `_fork` returns the child
    # to a caller that lists it; the child (a stalling split range, or a
    # draw helper waiting for a slot to refill) would run on if nothing held
    # it.
    monkeypatch.setattr("sgdlab.harness._SPLIT_MIN_WORK", 0)
    _force_helper(monkeypatch)
    if command == "experiment":
        monkeypatch.setattr("sgdlab.harness._step_range", lambda *args: time.sleep(60))
    real_fork = sgdlab.harness._fork
    pids = []

    def interrupted(*args, **kwargs):
        child, conn = real_fork(*args, **kwargs)
        pids.append(child.pid)
        signal.raise_signal(signal.SIGINT)
        return child, conn

    monkeypatch.setattr("sgdlab.harness._fork", interrupted)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    t0 = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            main([command, request.getfixturevalue(path), "--out", str(tmp_path / "out")])
    finally:
        signal.signal(signal.SIGINT, handler)
    assert time.monotonic() - t0 < 30
    assert len(pids) == 1
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):   # terminated and reaped
        os.kill(pids[0], 0)


_KILLED_HELPER_CALLER = """
import os, signal, sys, time
import sgdlab.harness as harness
from sgdlab.cli import main
pid_file, config, out = sys.argv[1:]
harness._usable_cpus = lambda: 2
harness._HELPER_MIN_WORK = 0
real_draw_ahead, real_blocks = harness._draw_ahead, harness._Helper.blocks

def draw_ahead(*args):
    with open(pid_file + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(pid_file + ".tmp", pid_file)
    real_draw_ahead(*args)

def blocks(*args):   # the second block of draws, with the helper running
    for i, block in enumerate(real_blocks(*args)):
        if i == 1:
            while not os.path.exists(pid_file):
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)
        yield block

harness._draw_ahead, harness._Helper.blocks = draw_ahead, blocks
main(["lyapunov", config, "--out", out])
"""


def test_a_draw_helper_whose_caller_was_killed_exits(long_path, tmp_path):
    pid_file = tmp_path / "pid"
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_HELPER_CALLER, str(pid_file), long_path,
             str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL, stderr=err,
            timeout=60)
    assert proc.returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
    helper = int(pid_file.read_text())
    deadline = time.monotonic() + 60
    while _running(helper) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _running(helper):
        os.kill(helper, signal.SIGKILL)
        pytest.fail("the draw helper outlived its killed caller")


def test_split_children_and_pool_workers_start_no_draw_helper(wide_path, tmp_path,
                                                              monkeypatch):
    # Forks in every process append a line, so a helper started by a split
    # child or a sweep worker would add one from that process.
    log = tmp_path / "forks"
    real_fork = os.fork

    def logging_fork():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", logging_fork)
    _force_helper(monkeypatch)
    me = [str(os.getpid())]
    # One range: the caller starts a helper.
    assert main(["lyapunov", wide_path, "--out", str(tmp_path / "helped")]) == 0
    assert log.read_text().split() == me
    # Two ranges: two split children, and no helper in either.
    log.unlink()
    monkeypatch.setattr("sgdlab.harness._SPLIT_MIN_WORK", 0)
    assert main(["lyapunov", wide_path, "--out", str(tmp_path / "split")]) == 0
    assert log.read_text().split() == me * 2
    assert ((tmp_path / "split" / "lyapunov.csv").read_bytes()
            == (tmp_path / "helped" / "lyapunov.csv").read_bytes())
    # A pooled stride-1 sweep: the two sweep workers, and no helper in them.
    log.unlink()
    monkeypatch.setattr("sgdlab.harness._POOL_MIN_WORK", 0)
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(pathlib.Path(wide_path).read_text()
                         .replace("checkpoint_stride = 10", "checkpoint_stride = 1")
                         + "\n[sweep]\nmethods = vsgd\nalpha_a = 0.5, 0.6\n")
    assert main(["sweep", str(sweep_ini), "--out", str(tmp_path / "pooled")]) == 0
    assert log.read_text().split() == me * 2


def test_plot_renders_an_estimates_csv(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["experiment", config_path, "--out", str(out)]) == 0
    capsys.readouterr()
    csv = str(out / "estimates.csv")
    svg = str(tmp_path / "fig.svg")
    assert main(["plot", csv, "--out", svg, "--title", "demo", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["output"] == svg
    assert ">demo<" in open(svg).read()
    # default output lands next to the input
    assert main(["plot", csv]) == 0
    assert (out / "curve.svg").exists()


def test_exit_codes(config_path, tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.ini"), "--out", str(tmp_path)]) == 2
    assert main(["experiment", config_path, "--out", str(tmp_path / "x"),
                 "--set", "run.replicas=1"]) == 2
    assert "replicas" in capsys.readouterr().err
    out = tmp_path / "diverged"
    code = main(["experiment", config_path, "--out", str(out),
                 "--set", "schedule.alpha=3.0, 0.0"])
    assert code == 3
    assert "experiment failed" in capsys.readouterr().err
    assert not (out / "estimates.csv").exists()
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("k,v\n1,2\n")
    assert main(["plot", str(bad_csv)]) == 2
    assert main(["plot", str(tmp_path / "absent.csv")]) == 2
    capsys.readouterr()
    # OS errors other than a missing file: a directory read as a file, and
    # an output directory that is an existing file.
    assert main(["plot", str(tmp_path)]) == 2
    assert main(["experiment", "--from-manifest", str(tmp_path),
                 "--out", str(tmp_path / "y")]) == 2
    assert main(["experiment", config_path, "--out", str(bad_csv)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 3 and "Traceback" not in err
    # Unknown [schedule] and [sweep] keys are usage errors that name the key.
    assert main(["experiment", config_path, "--out", str(tmp_path / "z"),
                 "--set", "schedule.step=0.25, 0.6"]) == 2
    assert "step" in capsys.readouterr().err
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(INI + "\n[sweep]\nmethod = vsgd, msgd_damped\n")
    assert main(["sweep", str(sweep_ini), "--out", str(tmp_path / "z")]) == 2
    assert "'method'" in capsys.readouterr().err


def test_cleanup_tolerates_missing_files(tmp_path):
    kept = tmp_path / "a.txt"
    kept.write_text("x")
    _cleanup([str(kept), str(tmp_path / "never-written.txt")])
    assert not kept.exists()


def test_module_entry_point(config_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sgdlab.cli", "classify",
         "--alpha-c", "1.0", "--alpha-a", "0.3", "--horizon", "100", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"]["square_summable"] is False


_WITHOUT_SCIPY = """
import json, sys

class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, _BlockScipy())
from sgdlab.cli import main
from sgdlab.oracles import minibatch_oracle
from sgdlab.problems import least_squares_sum

config, out = sys.argv[1:]
assert main(["lyapunov", config, "--out", out, "--json",
             "--set", "run.method=msgd_damped", "--set", "schedule.mu=1.0, 0.0",
             "--set", "schedule.alpha=0.3, 0.7"]) == 0
lsq = least_squares_sum([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], [1.0, 0.0, -1.0])
assert minibatch_oracle(lsq, 1, seed=0).bound.empirical
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_lyapunov_and_empirical_minibatch_bound_run_without_scipy(config_path, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, config_path, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().split("\n")[-1]) == []
    assert json.loads((tmp_path / "out" / "descent_fit.json").read_text())["status"] == "ok"
