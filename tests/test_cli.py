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
from sgdlab.config import ExperimentConfig, manifest_dict
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
    ("experiment", ["--set", "oracle.sigma=abc"], "[oracle] could not convert"),
    ("experiment", ["--set", "problem.spectrum=1.0, x"],
     "[problem] spectrum must be a list of numbers"),
    ("run", ["--set", "problem.design=[1,"], "[problem] design is not JSON"),
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
    """Counts the processes this process forks; the pool forks its workers."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def test_sweep_output_does_not_depend_on_the_worker_count(sweep_path, tmp_path, monkeypatch,
                                                         capsys, forks):
    monkeypatch.setattr("sgdlab.harness._POOL_MIN_WORK", 0)   # pool for any grid
    real_cpus = sgdlab.harness._usable_cpus()
    outputs = {}
    for cpus in (1, 2, real_cpus):
        monkeypatch.setattr("sgdlab.harness._usable_cpus", lambda: cpus)
        workers = min(6, cpus)
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
    real_run = sgdlab.harness.run_experiment

    def dying(cfg):
        if cfg.method == "msgd_classical" and cfg.schedule["alpha_a"] == 0.4:
            assert os.getpid() != parent, "the cell ran in the test process"
            os._exit(1)
        return real_run(cfg)

    monkeypatch.setattr("sgdlab.harness.run_experiment", dying)
    out = tmp_path / "out"
    assert main(["sweep", sweep_path, "--out", str(out)]) == 3
    assert "experiment failed: a sweep worker process died" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


_POOL_MODULES = """
import json, sys
from sgdlab.cli import main
loaded = lambda: sorted(m for m in ("multiprocessing", "concurrent.futures.process",
                                    "scipy") if m in sys.modules)
before = loaded()
assert main(sys.argv[1:]) == 0
print(json.dumps([before, loaded()]))
"""


def test_a_small_sweep_loads_no_process_pool_module(sweep_path, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_MODULES, "sweep", sweep_path, "--out",
         str(tmp_path / "out"), "--json"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().split("\n")[-1]) == [[], []]


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
