"""Config file grammar, static validation, manifests, sweep specs."""

import copy

import pytest

from conftest import INVALID_CONFIGS, make_cfg
from sgdlab.config import (build_oracle, build_problem, config_from_manifest,
                           manifest_dict, parse_config_file, parse_sweep_file,
                           sweep_grid, validate_config)
from sgdlab.errors import ConfigError
from sgdlab.harness import sweep

BASE_INI = """\
[problem]
kind = quadratic
spectrum = 1.0, 4.0

[oracle]
kind = gaussian
sigma = 0.5

[schedule]
alpha = 0.5, 0.6   # c, a
mu = 1.0, 0.2

[run]
method = msgd_damped
horizon = 100
replicas = 8
seed = 42
x0 = 2.0, -1.0
checkpoint_stride = 10
averaged = yes
"""


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_file_pair_grammar(tmp_path):
    cfg = parse_config_file(_write(tmp_path, BASE_INI))
    assert cfg.problem == {"kind": "quadratic", "spectrum": [1.0, 4.0]}
    assert cfg.oracle == {"kind": "gaussian", "sigma": 0.5}
    assert cfg.schedule == {"alpha_c": 0.5, "alpha_a": 0.6, "mu_m": 1.0, "mu_b": 0.2}
    assert cfg.method == "msgd_damped"
    assert cfg.horizon == 100 and cfg.replicas == 8 and cfg.seed == 42
    assert cfg.x0 == [2.0, -1.0]
    assert cfg.checkpoint_stride == 10
    assert cfg.averaged is True and cfg.lyapunov is False
    assert cfg.beta is None and cfg.lyap_coeff is None
    assert cfg.divergence_tolerance == 0.01


def test_overrides_apply_before_validation(tmp_path):
    path = _write(tmp_path, BASE_INI)
    cfg = parse_config_file(path, ["run.method=vsgd", "schedule.alpha=0.4, 0.0",
                                   "oracle.sigma=0"])
    assert cfg.method == "vsgd"
    assert cfg.schedule["alpha_c"] == 0.4 and cfg.schedule["alpha_a"] == 0.0
    assert cfg.oracle["sigma"] == 0
    with pytest.raises(ConfigError, match="section.key=value"):
        parse_config_file(path, ["runseed=3"])


def test_malformed_files_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "absent.ini"))
    no_oracle = BASE_INI.replace("[oracle]", "[oracles]")
    with pytest.raises(ConfigError, match=r"\[oracle\] section"):
        parse_config_file(_write(tmp_path, no_oracle))
    triple = BASE_INI.replace("alpha = 0.5, 0.6   # c, a", "alpha = 0.5, 0.6, 0.7")
    with pytest.raises(ConfigError, match="pair"):
        parse_config_file(_write(tmp_path, triple))
    unknown = BASE_INI + "momentum = 0.9\n"
    with pytest.raises(ConfigError, match="unknown keys.*momentum"):
        parse_config_file(_write(tmp_path, unknown))
    misspelled = BASE_INI.replace("mu = 1.0, 0.2", "mu = 1.0, 0.2\nstep = 0.25, 0.6")
    with pytest.raises(ConfigError, match=r"\[schedule\] unknown keys.*step"):
        parse_config_file(_write(tmp_path, misspelled))


def test_default_x0_is_the_origin(tmp_path):
    text = BASE_INI.replace("spectrum = 1.0, 4.0", "spectrum = 2.0") \
                   .replace("x0 = 2.0, -1.0\n", "")
    cfg = parse_config_file(_write(tmp_path, text))
    assert cfg.x0 == [0.0]


def test_least_squares_design_and_minibatch(tmp_path):
    text = """\
[problem]
kind = least_squares
design = [[1.0, 0.0], [0.0, 2.0]]
targets = 1.0, -1.0

[oracle]
kind = minibatch
batch = 1

[schedule]
alpha = 0.1, 0.5

[run]
method = vsgd
horizon = 50
replicas = 4
seed = 7
x0 = 0.0, 0.0
"""
    cfg = parse_config_file(_write(tmp_path, text))
    assert cfg.problem["design"] == [[1.0, 0.0], [0.0, 2.0]]
    assert cfg.problem["targets"] == [1.0, -1.0]
    problem = build_problem(cfg.problem)
    assert problem.design is not None and len(problem.targets) == 2
    orc = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    assert not orc.zero_noise


def test_manifest_round_trip():
    cfg = make_cfg(method="nasgd",
                   schedule={"alpha_c": 0.3, "alpha_a": 0.6, "mu_m": 1.0, "mu_b": 0.2})
    man = manifest_dict(cfg)
    assert man["format"] == "sgdlab-experiment"
    assert config_from_manifest(man) == cfg
    with pytest.raises(ConfigError, match="format"):
        config_from_manifest({"format": "other", "config": {}})
    with pytest.raises(ConfigError, match="config block"):
        config_from_manifest({"format": "sgdlab-experiment"})
    broken = manifest_dict(cfg)
    broken["config"]["bogus"] = 1
    with pytest.raises(ConfigError, match="mismatch"):
        config_from_manifest(broken)


@pytest.mark.parametrize("overrides,message", INVALID_CONFIGS)
def test_validate_config_rejections(overrides, message):
    with pytest.raises(ConfigError, match=message):
        validate_config(make_cfg(**overrides))


def test_validate_accepts_the_damping_boundary():
    validate_config(make_cfg(
        method="msgd_damped",
        schedule={"alpha_c": 1.0, "alpha_a": 0.0, "mu_m": 1.0, "mu_b": 0.0}))


def test_unknown_oracle_kind_is_a_config_error():
    problem = build_problem({"kind": "quadratic", "spectrum": [1.0]})
    with pytest.raises(ConfigError, match="unknown kind"):
        build_oracle({"kind": "uniform"}, problem, seed=0)
    with pytest.raises(ConfigError, match="missing key 'sigma'"):
        build_oracle({"kind": "gaussian"}, problem, seed=0)
    with pytest.raises(ConfigError, match="finite-sum"):
        build_oracle({"kind": "minibatch", "batch": 1}, problem, seed=0)


def test_sweep_file_spans_a_grid(tmp_path):
    text = BASE_INI + """
[sweep]
methods = vsgd, msgd_damped
alpha_a = 0.4, 0.6
"""
    spec = parse_sweep_file(_write(tmp_path, text))
    assert spec.methods == ["vsgd", "msgd_damped"]
    assert spec.alpha_a == [0.4, 0.6]
    assert spec.mu_b == [0.2]  # falls back to the base schedule
    grid = sweep_grid(spec)
    assert len(grid) == 4
    assert [c.method for c in grid] == ["vsgd", "vsgd", "msgd_damped", "msgd_damped"]
    assert grid[0].schedule["alpha_a"] == 0.4
    assert grid[0].schedule["mu_b"] == 0.2
    # cells are independent copies
    grid[0].schedule["alpha_a"] = 9.9
    assert grid[1].schedule["alpha_a"] == 0.6
    with pytest.raises(ConfigError, match=r"\[sweep\] section"):
        parse_sweep_file(_write(tmp_path, BASE_INI, name="plain.ini"))


def test_sweep_overrides_set_the_grid(tmp_path):
    path = _write(tmp_path, BASE_INI + "\n[sweep]\nmethods = vsgd\n")
    spec = parse_sweep_file(path, ["sweep.alpha_a=0.5, 0.7", "sweep.methods=vsgd, nasgd",
                                   "run.horizon=60"])
    assert spec.methods == ["vsgd", "nasgd"]
    assert spec.alpha_a == [0.5, 0.7]
    assert spec.base.horizon == 60
    assert len(sweep_grid(spec)) == 4


def test_unknown_sweep_keys_are_rejected(tmp_path):
    path = _write(tmp_path, BASE_INI + "\n[sweep]\nmethod = vsgd, msgd_damped\n")
    with pytest.raises(ConfigError, match=r"\[sweep\] unknown keys.*'method'"):
        parse_sweep_file(path)


def test_a_sweep_leaves_its_base_config_unchanged(tmp_path):
    text = BASE_INI + "\n[sweep]\nmethods = vsgd, msgd_damped\nalpha_a = 0.4, 0.6\n"
    spec = parse_sweep_file(_write(tmp_path, text))
    base = copy.deepcopy(spec.base)
    grid = sweep_grid(spec)
    assert [r.status for r in sweep(grid).rows] == ["ok"] * 4
    assert spec.base == base
    schedules = [spec.base.schedule] + [c.schedule for c in grid]
    assert len({id(s) for s in schedules}) == len(schedules)
