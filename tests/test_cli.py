"""Command-line interface: subcommands, outputs, exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict

import pytest

import sgdlab
from conftest import INVALID_CONFIGS, make_cfg
from sgdlab.cli import _cleanup, main
from sgdlab.config import manifest_dict
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
    first = tmp_path / "a"
    again = tmp_path / "b"
    assert main(["experiment", config_path, "--out", str(first), "--seed", "23"]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 23
    assert main(["experiment", "--from-manifest", str(first / "manifest.json"),
                 "--out", str(again)]) == 0
    assert (first / "estimates.csv").read_bytes() == (again / "estimates.csv").read_bytes()


def test_experiment_requires_a_source(capsys):
    assert main(["experiment"]) == 2
    assert "config file or --from-manifest" in capsys.readouterr().err


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
    assert builds("sweep", str(sweep_path)) == 1 + 3


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


@pytest.mark.parametrize("overrides,message", INVALID_CONFIGS)
def test_every_config_command_rejects_an_invalid_config(overrides, message, tmp_path,
                                                        capsys):
    cfg = make_cfg(**overrides)
    path = tmp_path / "bad.ini"
    path.write_text(_ini(cfg))
    sweep_path = tmp_path / "bad-sweep.ini"
    sweep_path.write_text(_ini(cfg) + "[sweep]\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(manifest_dict(cfg)))
    commands = [["run", str(path)], ["experiment", str(path)],
                ["experiment", "--from-manifest", str(manifest)],
                ["sweep", str(sweep_path)]]
    if "checkpoint_stride" not in overrides:   # lyapunov forces the stride
        commands.append(["lyapunov", str(path)])
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert re.search(message, capsys.readouterr().err), argv
        assert not out.exists() or not any(out.iterdir()), argv


def test_sweep_writes_per_cell_rows(config_path, tmp_path):
    sweep_ini = tmp_path / "sweep.ini"
    sweep_ini.write_text(INI + "\n[sweep]\nalpha_a = 0.4, 1.6\n")
    out = tmp_path / "out"
    assert main(["sweep", str(sweep_ini), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert ",ok," in lines[1] and ",failed," in lines[2]


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
fsp = least_squares_sum([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], [1.0, 0.0, -1.0])
assert minibatch_oracle(fsp, 1, seed=0).bound.empirical
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
