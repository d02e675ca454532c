"""Config file grammar, static validation, manifests, sweep specs."""

import copy
import json
import os
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INVALID_CONFIGS, make_cfg
from sgdlab import config
from sgdlab.config import (build_oracle, build_problem, build_schedule,
                           config_from_manifest, manifest_dict, parse_config_file,
                           parse_sweep_file, sweep_grid, validate_config)
from sgdlab.errors import ConfigError, ParameterError
from sgdlab.harness import sweep
from sgdlab.optimizers import run

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


# The rows of INVALID_CONFIGS that `optimizers.validate_run` decides, plus a
# beta out of [0, 1) on a method that does not use it.
_METHOD_PATTERNS = ("method must be one of", "horizon", "positive damping",
                    "requires .run. beta", "beta must lie", "x0 has length", "exceeds 1")
METHOD_CONFIGS = [row for row in INVALID_CONFIGS if row[1] in _METHOD_PATTERNS] \
    + [(dict(method="vsgd", beta=1.5), "beta must lie")]


@pytest.mark.parametrize("overrides,message", METHOD_CONFIGS)
def test_a_run_and_an_experiment_reject_the_same_methods(overrides, message):
    cfg = make_cfg(**overrides)
    with pytest.raises(ConfigError, match=message):
        validate_config(cfg)
    problem = build_problem(cfg.problem)
    oracle = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    with pytest.raises(ParameterError, match=message):
        run(cfg.method, problem, oracle, build_schedule(cfg.schedule), cfg.horizon, cfg.seed,
            cfg.x0, beta=cfg.beta)


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


def test_keys_a_kind_does_not_read_are_rejected():
    # Misspelled optional keys: without the check the minimum would sit at
    # the origin, and the minibatch would sample with replacement.
    with pytest.raises(ConfigError,
                       match=r"\[problem\] unknown keys for kind 'quadratic': \['xstar'\]"):
        build_problem({"kind": "quadratic", "spectrum": [1, 4], "xstar": [1, 1]})
    lsq = build_problem({"kind": "least_squares", "design": [[1.0, 0.0], [0.0, 2.0]],
                         "targets": [1.0, -1.0]})
    with pytest.raises(ConfigError, match=r"\[oracle\] unknown keys for kind "
                                          r"'minibatch': \['replacement'\]"):
        build_oracle({"kind": "minibatch", "batch": 2, "replacement": False}, lsq, seed=0)
    # The keys each kind reads still pass.
    assert build_problem({"kind": "quadratic", "spectrum": [1, 4], "x_star": [1, 1]}).dim == 2
    assert not build_oracle({"kind": "minibatch", "batch": 2, "replace": False}, lsq,
                            seed=0).replace
    with pytest.raises(ConfigError, match="unknown kind"):
        build_problem({"kind": "cubic", "spectrum": [1]})


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


def test_the_readme_grammar_names_exactly_the_keys_of_the_type_table():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config grammar", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    named, section = {}, None
    for line in block.splitlines():
        header, key = re.match(r"\[(\w+)\]", line), re.match(r"#?\s*(\w+)\s*=", line)
        if header:
            section = header.group(1)
            named[section] = set()
        elif key:
            named[section].add(key.group(1))
    kinds = lambda table: {"kind"}.union(*(keys for keys, _ in table.values()))
    assert named == {"problem": kinds(config._PROBLEMS), "oracle": kinds(config._ORACLES),
                     "schedule": set(config._SCHEDULE), "run": set(config._RUN),
                     "sweep": set(config._SWEEP)}
    # ... and is itself a sweep file the grammar accepts.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "readme.ini"
        path.write_text(block)
        assert parse_sweep_file(str(path)).base.method == "vsgd"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER_TEXT = st.one_of(st.integers(-10 ** 18, 10 ** 18).map(str), _FINITE.map(repr))


def _list_text(xs):
    return st.sampled_from([", ".join(map(repr, xs)), " ".join(map(repr, xs)),
                            "{" + ", ".join(map(repr, xs)) + "}", json.dumps(xs)])


# INI text of each type in the config's type table.
_TEXT = {
    config._NUMBER: _NUMBER_TEXT,
    config._FLOAT: _NUMBER_TEXT,
    config._FLOAT_OR_NONE: _NUMBER_TEXT,
    config._INTEGER: st.integers(-10 ** 18, 10 ** 18).map(str),
    config._BOOLEAN: st.sampled_from(["true", "Yes", "ON", "false", "no", "Off"]),
    config._STRING: st.text("abcdefghijklmnopqrstuvwxyz_0123456789", max_size=12),
    config._NUMBERS: st.lists(_FINITE, max_size=4).flatmap(_list_text),
    config._MATRIX: st.integers(0, 3).flatmap(lambda width: st.lists(
        st.lists(st.one_of(st.integers(-99, 99), _FINITE), min_size=width, max_size=width),
        max_size=3)).map(json.dumps),   # rows of one width: a ragged matrix is no matrix
}


def _keys(types):
    """Some of the keys of `types`, each with INI text of its type."""
    return st.fixed_dictionaries({}, optional={key: _TEXT[kind] for key, kind in types.items()})


@st.composite
def _config_texts(draw) -> str:
    sections = {}
    for name, kinds in (("problem", config._PROBLEMS), ("oracle", config._ORACLES)):
        kind = draw(st.sampled_from(sorted(kinds)))
        sections[name] = {"kind": kind, **draw(_keys(kinds[kind][0]))}
    pair = st.lists(_FINITE, min_size=2, max_size=2).flatmap(_list_text)
    sections["schedule"] = draw(st.fixed_dictionaries({}, optional=dict.fromkeys(
        config._SCHEDULE, pair)))
    sections["run"] = draw(_keys(config._RUN))
    return "".join(f"[{name}]\n" + "".join(f"{key} = {text}\n" for key, text in keys.items())
                   for name, keys in sections.items())


@settings(max_examples=150, deadline=None)
@given(_config_texts())
def test_every_config_the_grammar_accepts_replays_from_its_manifest(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.ini")
        with open(path, "w") as fh:
            fh.write(text)
        cfg = parse_config_file(path)
    dumped = json.dumps(manifest_dict(cfg), indent=2)
    again = config_from_manifest(json.loads(dumped))
    assert again == cfg
    assert json.dumps(manifest_dict(again), indent=2) == dumped
