"""Experiment configuration: file format, validation, manifests.

Config files are INI-style with four sections:

    [problem]   kind = quadratic | pseudo_huber | smooth_rastrigin | least_squares
                plus kind-specific keys (spectrum, x_star, dim, amplitude,
                design, targets)
    [oracle]    kind = gaussian | minibatch | relative_noise
                plus sigma / batch, replace / eta
    [schedule]  alpha = c, a   and   mu = m, b   (pairs; braces optional)
    [run]       method, horizon, replicas, seed, x0, checkpoint_stride,
                lyapunov, averaged, beta, divergence_tolerance

A manifest is the fully resolved config as JSON; re-running from a manifest
reproduces the experiment byte for byte.

Parsing checks the grammar only.  `validate_config` checks the constraints
between fields and builds the problem to do so; a command calls it once, on
the config it finally runs, and uses what it built.  The replica count
matters only to experiments, which check it with `validate_replicas`; a
single run ignores it.
"""

from __future__ import annotations

import configparser
import functools
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .optimizers import METHODS
from .oracles import (GradientOracle, gaussian_oracle, minibatch_oracle,
                      relative_noise_oracle)
from .problems import (Problem, least_squares_sum, pseudo_huber, quadratic,
                       smooth_rastrigin)
from .schedules import PowerSchedule, make_power_schedule

MANIFEST_FORMAT = "sgdlab-experiment"


@dataclass
class ExperimentConfig:
    problem: dict
    oracle: dict
    schedule: dict
    method: str
    horizon: int
    replicas: int
    seed: int
    x0: list
    checkpoint_stride: int = 0
    lyapunov: bool = False
    lyap_coeff: float | None = None
    averaged: bool = False
    beta: float | None = None
    divergence_tolerance: float = 0.01


def _number(value, key: str):
    """value, the config value of key, unless it is or holds a boolean: a
    value of true is not the number 1."""
    if _holds_bool(value):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return value


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_holds_bool, value)))


def _integer(value, key: str) -> int:
    """value, the config value of key, which must be an integer."""
    if not _is_int(value):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _boolean(value, key: str) -> bool:
    """value, the config value of key, which must be a boolean."""
    if not isinstance(value, bool):
        raise TypeError(f"{key} must be true or false, got {value!r}")
    return value


def build_schedule(spec: dict) -> PowerSchedule:
    try:
        return make_power_schedule(
            float(_number(spec.get("alpha_c", 1.0), "alpha_c")),
            float(_number(spec.get("alpha_a", 0.0), "alpha_a")),
            float(_number(spec.get("mu_m", 0.0), "mu_m")),
            float(_number(spec.get("mu_b", 0.0), "mu_b")))
    except (ValueError, TypeError) as e:   # ParameterError, or not a number
        raise ConfigError(f"[schedule] {e}") from e


# Each kind of [problem] and [oracle]: the keys it reads besides `kind`,
# and how it builds from the section (and, for an oracle, the problem and
# seed).
_PROBLEMS = {
    "quadratic": (("spectrum", "x_star"), lambda spec: quadratic(
        _number(spec["spectrum"], "spectrum"), _number(spec.get("x_star"), "x_star"))),
    "pseudo_huber": (("dim",), lambda spec: pseudo_huber(_integer(spec["dim"], "dim"))),
    "smooth_rastrigin": (("dim", "amplitude"), lambda spec: smooth_rastrigin(
        _integer(spec["dim"], "dim"), float(_number(spec["amplitude"], "amplitude")))),
    "least_squares": (("design", "targets"), lambda spec: least_squares_sum(
        _number(spec["design"], "design"), _number(spec["targets"], "targets"))),
}
_ORACLES = {
    "gaussian": (("sigma",), lambda spec, problem, seed: gaussian_oracle(
        problem, float(_number(spec["sigma"], "sigma")), seed=seed)),
    "relative_noise": (("eta",), lambda spec, problem, seed: relative_noise_oracle(
        problem, float(_number(spec["eta"], "eta")), seed=seed)),
    "minibatch": (("batch", "replace"), lambda spec, problem, seed: minibatch_oracle(
        problem, _integer(spec["batch"], "batch"),
        replace=_boolean(spec.get("replace", True), "replace"), seed=seed)),
}


def _build(section: str, kinds: dict, spec: dict, *args):
    """What the [section] spec's kind builds from spec and args.  A key the
    kind does not read is rejected, lest a misspelled optional key silently
    take its default; so are an unknown kind, a missing key and a bad
    value."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"[{section}] unknown kind {kind!r}")
    keys, build = kinds[kind]
    unread = sorted(set(spec) - {"kind", *keys})
    if unread:
        raise ConfigError(f"[{section}] unknown keys for kind {kind!r}: {unread}")
    try:
        return build(spec, *args)
    except KeyError as e:
        raise ConfigError(f"[{section}] kind {kind!r} is missing key {e.args[0]!r}") from e
    except (ValueError, TypeError) as e:   # ParameterError, or not a number
        raise ConfigError(f"[{section}] {e}") from e


def build_problem(spec: dict) -> Problem:
    """The [problem] section's Problem; kind = least_squares gives a
    least-squares sum, the one kind a minibatch oracle samples."""
    return _build("problem", _PROBLEMS, spec)


def build_oracle(spec: dict, problem: Problem, seed: int) -> GradientOracle:
    return _build("oracle", _ORACLES, spec, problem, seed)


def validate_config(cfg: ExperimentConfig, built=None):
    """Static checks with messages naming the violated constraint.  Returns
    the (problem, schedule) built to check them; unless None, `built` is
    the Problem that an equal [problem] section built, and serves as cfg's
    own."""
    if cfg.method not in METHODS:
        raise ConfigError(f"[run] method must be one of {METHODS}, got {cfg.method!r}")
    if cfg.horizon < 1:
        raise ConfigError(f"[run] horizon must be >= 1, got {cfg.horizon}")
    if not 0.0 <= cfg.divergence_tolerance <= 1.0:
        raise ConfigError("[run] divergence_tolerance must lie in [0, 1]")
    if cfg.method in ("msgd_damped", "nasgd") and float(cfg.schedule.get("mu_m", 0.0)) <= 0:
        raise ConfigError(f"[run] method {cfg.method} requires a positive damping "
                          "coefficient: set [schedule] mu = m, b with m > 0")
    if cfg.method in ("msgd_classical", "nesterov_classical") and cfg.beta is None:
        raise ConfigError(f"[run] method {cfg.method} requires [run] beta")
    if cfg.beta is not None and not 0.0 <= cfg.beta < 1.0:
        raise ConfigError(f"[run] beta must lie in [0, 1), got {cfg.beta}")
    if cfg.lyapunov and cfg.checkpoint_stride != 1:
        raise ConfigError("[run] lyapunov = true requires checkpoint_stride = 1 "
                          "(the descent fit needs consecutive checkpoints)")
    schedule = build_schedule(cfg.schedule)
    problem = build_problem(cfg.problem) if built is None else built
    if len(cfg.x0) != problem.dim:
        raise ConfigError(f"[run] x0 has length {len(cfg.x0)}, problem dim is {problem.dim}")
    if problem.minimum is None:
        raise ConfigError("[problem] experiments require a problem with a known minimum")
    if cfg.method in ("msgd_damped", "nasgd"):
        worst = schedule.alpha(1) * schedule.mu(1)
        if worst > 1.0:
            raise ConfigError(
                f"[schedule] mu_1 * alpha_1 = {worst} exceeds 1; the velocity "
                "decay factor 1 - mu_k * alpha_k would be negative")
    return problem, schedule


def validate_replicas(cfg: ExperimentConfig) -> None:
    """An experiment needs two replicas for its standard errors."""
    if cfg.replicas < 2:
        raise ConfigError(f"[run] replicas must be >= 2, got {cfg.replicas}")


# ---------------------------------------------------------------------------
# File parsing


def _parse_scalar(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def _parse_floats(text: str, where: str) -> list:
    """A list of floats: JSON, or comma/space separated, braces tolerated.
    `where` names the value in the ConfigError raised for anything else."""
    t = text.strip()
    try:
        if t.startswith("["):
            return [float(v) for v in json.loads(t)]
        return [float(p) for p in t.strip("{}()").replace(",", " ").split()]
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{where} must be a list of numbers, got {text!r}") from e


def _parse_nested(text: str, where: str):
    try:
        return json.loads(text.strip())
    except ValueError as e:
        raise ConfigError(f"{where} is not JSON: {e}") from e


def _ini_errors(parse):
    """Report configparser's errors in a config file (no section header, a
    duplicate key, a bad % interpolation) as ConfigError."""
    @functools.wraps(parse)
    def wrapped(path: str, overrides: list[str] | None = None):
        try:
            return parse(path, overrides)
        except configparser.Error as e:
            raise ConfigError(f"cannot parse config file {path!r}: {e}") from e
    return wrapped


def _read_ini(path: str, overrides: list[str] | None) -> configparser.ConfigParser:
    """The config file at path, with its `section.key=value` overrides applied."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override {ov!r} must look like section.key=value")
        key, value = ov.split("=", 1)
        section, name = key.split(".", 1)
        try:
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section.strip(), name.strip(), value.strip())
        except ValueError as e:   # a bad % interpolation, or the DEFAULT section
            raise ConfigError(f"override {ov!r}: {e}") from e
    return cp


def _reject_unknown(cp: configparser.ConfigParser, section: str, known: tuple) -> None:
    unknown = sorted(set(cp.options(section)) - set(known))
    if unknown:
        raise ConfigError(f"[{section}] unknown keys: {unknown}")


@_ini_errors
def parse_config_file(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read an experiment config, applying `section.key=value` overrides."""
    return _experiment_config(_read_ini(path, overrides))


def _experiment_config(cp: configparser.ConfigParser) -> ExperimentConfig:
    for section in ("problem", "oracle", "schedule", "run"):
        if not cp.has_section(section):
            raise ConfigError(f"config file is missing the [{section}] section")

    prob: dict = {}
    for key, raw in cp.items("problem"):
        if key in ("spectrum", "x_star", "targets"):
            prob[key] = _parse_floats(raw, f"[problem] {key}")
        elif key == "design":
            prob[key] = _parse_nested(raw, "[problem] design")
        else:
            prob[key] = _parse_scalar(raw)

    orac = {key: _parse_scalar(raw) for key, raw in cp.items("oracle")}

    _reject_unknown(cp, "schedule", ("alpha", "mu"))
    sched: dict = {}
    for key, raw in cp.items("schedule"):
        if key == "alpha":
            pair = _parse_floats(raw, "[schedule] alpha")
            if len(pair) != 2:
                raise ConfigError("[schedule] alpha must be a pair: c, a")
            sched["alpha_c"], sched["alpha_a"] = pair
        elif key == "mu":
            pair = _parse_floats(raw, "[schedule] mu")
            if len(pair) != 2:
                raise ConfigError("[schedule] mu must be a pair: m, b")
            sched["mu_m"], sched["mu_b"] = pair

    run = dict(cp.items("run"))

    def run_get(key, default=None):
        return run.pop(key) if key in run else default

    lyap_coeff_raw = run_get("lyap_coeff")
    beta_raw = run_get("beta")
    try:
        cfg = ExperimentConfig(
            problem=prob,
            oracle=orac,
            schedule=sched,
            method=str(run_get("method", "")),
            horizon=int(run_get("horizon", 0)),
            replicas=int(run_get("replicas", 0)),
            seed=int(run_get("seed", 0)),
            x0=_parse_floats(run_get("x0", "0"), "x0"),
            checkpoint_stride=int(run_get("checkpoint_stride", 0)),
            lyapunov=_boolean(_parse_scalar(run_get("lyapunov", "false")), "lyapunov"),
            lyap_coeff=None if lyap_coeff_raw is None else float(lyap_coeff_raw),
            averaged=_boolean(_parse_scalar(run_get("averaged", "false")), "averaged"),
            beta=None if beta_raw is None else float(beta_raw),
            divergence_tolerance=float(run_get("divergence_tolerance", 0.01)),
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(f"[run] {e}") from e
    if run:
        raise ConfigError(f"[run] unknown keys: {sorted(run)}")
    return cfg


def manifest_dict(cfg: ExperimentConfig) -> dict:
    from . import __version__

    return {
        "format": MANIFEST_FORMAT,
        "version": __version__,
        "config": asdict(cfg),
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# (description, check) for each field of a manifest's config block.
_MANIFEST_TYPES = {
    "problem": ("an object", lambda v: isinstance(v, dict)),
    "oracle": ("an object", lambda v: isinstance(v, dict)),
    "schedule": ("an object", lambda v: isinstance(v, dict)),
    "method": ("a string", lambda v: isinstance(v, str)),
    "horizon": ("an integer", _is_int),
    "replicas": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
    "x0": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "checkpoint_stride": ("an integer", _is_int),
    "lyapunov": ("a boolean", lambda v: isinstance(v, bool)),
    "lyap_coeff": ("a number or null", lambda v: v is None or _is_number(v)),
    "averaged": ("a boolean", lambda v: isinstance(v, bool)),
    "beta": ("a number or null", lambda v: v is None or _is_number(v)),
    "divergence_tolerance": ("a number", _is_number),
}


def config_from_manifest(manifest: dict) -> ExperimentConfig:
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"manifest format must be {MANIFEST_FORMAT!r}")
    raw = manifest.get("config")
    if not isinstance(raw, dict):
        raise ConfigError("manifest is missing the config block")
    try:
        cfg = ExperimentConfig(**raw)
    except TypeError as e:
        raise ConfigError(f"manifest config mismatch: {e}") from e
    for name, (kind, ok) in _MANIFEST_TYPES.items():
        value = getattr(cfg, name)
        if not ok(value):
            raise ConfigError(f"manifest field {name!r} must be {kind}, got {value!r}")
    return cfg


@dataclass
class SweepSpec:
    base: ExperimentConfig
    methods: list = field(default_factory=list)
    alpha_a: list = field(default_factory=list)
    mu_b: list = field(default_factory=list)


@_ini_errors
def parse_sweep_file(path: str, overrides: list[str] | None = None) -> SweepSpec:
    """A sweep file is an experiment config plus a [sweep] section whose
    methods / alpha_a / mu_b lists span a cartesian grid.  The base config
    is validated here, so a bad base fails before any cell runs."""
    cp = _read_ini(path, overrides)
    if not cp.has_section("sweep"):
        raise ConfigError("sweep requires a [sweep] section")
    _reject_unknown(cp, "sweep", ("methods", "alpha_a", "mu_b"))
    base = _experiment_config(cp)
    validate_config(base)
    validate_replicas(base)
    methods = [m.strip() for m in cp.get("sweep", "methods", fallback="").split(",") if m.strip()]
    alpha_a = _parse_floats(cp.get("sweep", "alpha_a", fallback=""), "[sweep] alpha_a")
    mu_b = _parse_floats(cp.get("sweep", "mu_b", fallback=""), "[sweep] mu_b")
    return SweepSpec(base=base, methods=methods or [base.method],
                     alpha_a=alpha_a or [float(base.schedule.get("alpha_a", 0.0))],
                     mu_b=mu_b or [float(base.schedule.get("mu_b", 0.0))])


def sweep_grid(spec: SweepSpec) -> list[ExperimentConfig]:
    """One config per (method, alpha_a, mu_b) cell.  Each cell has its own
    schedule dict; the problem, oracle and x0 of the base are shared, and
    nothing modifies them."""
    return [replace(spec.base, method=method,
                    schedule={**spec.base.schedule, "alpha_a": float(a), "mu_b": float(b)})
            for method in spec.methods for a in spec.alpha_a for b in spec.mu_b]
