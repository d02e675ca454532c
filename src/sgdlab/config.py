"""Experiment configuration: file format, validation, manifests.

Config files are INI-style with four sections:

    [problem]   kind = quadratic | pseudo_huber | smooth_rastrigin | least_squares
                plus kind-specific keys (spectrum, x_star, dim, amplitude,
                design, targets)
    [oracle]    kind = gaussian | minibatch | relative_noise
                plus sigma / batch, replace / eta
    [schedule]  alpha = c, a   and   mu = m, b   (pairs; braces optional)
    [run]       method, horizon, replicas, seed, x0, checkpoint_stride,
                lyapunov, lyap_coeff, averaged, beta, divergence_tolerance

A manifest is the fully resolved config as JSON; re-running from a manifest
reproduces the experiment byte for byte.

Each key's type is declared once, in `_PROBLEMS`, `_ORACLES`, `_SCHEDULE`,
`_RUN` and `_SWEEP`.  A config file (with its `--set` overrides) is read
through them, and a manifest or a config built in Python is checked
against them, so the builders take checked values.  Parsing checks the
grammar and the types only.  `validate_config` checks the constraints
between fields and builds the problem to do so; a command calls it once, on
the config it finally runs, and uses what it built.  Its method constraints
are `optimizers.validate_run`, which `optimizers.run` applies too.  The
replica count matters only to experiments, which check it with
`validate_replicas`; a single run ignores it.
"""

from __future__ import annotations

import configparser
import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, ParameterError
from .optimizers import validate_run
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


# A type is (what a value must be, the test a value of it passes, how INI
# text reads as it).  A number is finite, and never a boolean: true is not
# the number 1.

def _is_number(v) -> bool:
    return (isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
            and math.isfinite(v))


def _is_numbers(v, depth: int = 1) -> bool:
    """v is a sequence of numbers, nested depth deep, its rows of one
    length.  An array is checked whole, which takes microseconds for a
    4096 x 8 design."""
    if isinstance(v, np.ndarray):
        return v.ndim == depth and v.dtype.kind in "iuf" and bool(np.isfinite(v).all())
    if not isinstance(v, (list, tuple)):
        return False
    if depth == 1:
        return all(map(_is_number, v))
    return all(_is_numbers(row, depth - 1) for row in v) and len(set(map(len, v))) <= 1


def _read_number(text: str):
    """An integer-looking number stays an int, as the manifest records it."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read_numbers(text: str) -> list:
    """A list of floats: JSON, or comma/space separated, braces tolerated."""
    if text.startswith("["):
        return [float(v) for v in json.loads(text)]
    return [float(p) for p in text.strip("{}()").replace(",", " ").split()]


_NUMBER = ("a finite number", _is_number, _read_number)
_FLOAT = ("a finite number", _is_number, float)
_FLOAT_OR_NONE = ("a finite number or null", lambda v: v is None or _is_number(v), float)
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int)
_BOOLEAN = ("true or false", lambda v: isinstance(v, bool), lambda text: {
    "true": True, "yes": True, "on": True,
    "false": False, "no": False, "off": False}[text.lower()])
_STRING = ("a string", lambda v: isinstance(v, str), str)
_NUMBERS = ("a list of numbers, all finite", _is_numbers, _read_numbers)
_MATRIX = ("a list of lists of numbers, all finite", lambda v: _is_numbers(v, 2), json.loads)
_NAMES = ("a list of names", lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
          lambda text: [n.strip() for n in text.split(",") if n.strip()])
_OBJECT = ("an object", lambda v: isinstance(v, dict), None)   # a section, in a manifest

# Each kind of [problem] and [oracle]: the type of each key it reads
# besides `kind`, and how it builds from the checked section (and, for an
# oracle, the problem and seed).
_PROBLEMS = {
    "quadratic": ({"spectrum": _NUMBERS, "x_star": _NUMBERS},
                  lambda spec: quadratic(spec["spectrum"], spec.get("x_star"))),
    "pseudo_huber": ({"dim": _INTEGER}, lambda spec: pseudo_huber(spec["dim"])),
    "smooth_rastrigin": ({"dim": _INTEGER, "amplitude": _NUMBER},
                         lambda spec: smooth_rastrigin(spec["dim"], spec["amplitude"])),
    "least_squares": ({"design": _MATRIX, "targets": _NUMBERS},
                      lambda spec: least_squares_sum(spec["design"], spec["targets"])),
}
_ORACLES = {
    "gaussian": ({"sigma": _NUMBER}, lambda spec, problem, seed: gaussian_oracle(
        problem, spec["sigma"], seed=seed)),
    "relative_noise": ({"eta": _NUMBER}, lambda spec, problem, seed: relative_noise_oracle(
        problem, spec["eta"], seed=seed)),
    "minibatch": ({"batch": _INTEGER, "replace": _BOOLEAN},
                  lambda spec, problem, seed: minibatch_oracle(
                      problem, spec["batch"], replace=spec.get("replace", True), seed=seed)),
}
# [schedule]: each key of a config file is a pair of numbers, which sets
# two keys of the config, each a number.
_SCHEDULE = {"alpha": ("alpha_c", "alpha_a"), "mu": ("mu_m", "mu_b")}
_RUN = {
    "method": _STRING, "horizon": _INTEGER, "replicas": _INTEGER, "seed": _INTEGER,
    "x0": _NUMBERS, "checkpoint_stride": _INTEGER, "lyapunov": _BOOLEAN,
    "lyap_coeff": _FLOAT_OR_NONE, "averaged": _BOOLEAN, "beta": _FLOAT_OR_NONE,
    "divergence_tolerance": _FLOAT,
}
_SWEEP = {"methods": _NAMES, "alpha_a": _NUMBERS, "mu_b": _NUMBERS}


def _value(label: str, typ: tuple, value, read: bool = False):
    """value, which must be of the type `typ`; with read, it is INI text,
    and what it reads as is returned.  label names the value in the
    ConfigError raised otherwise."""
    what, ok, parse = typ
    try:
        if read:
            value = parse(value)
        if ok(value):
            return value
    except (ArithmeticError, LookupError, TypeError, ValueError):
        pass
    raise ConfigError(f"{label} must be {what}, got {value!r}")


def _checked(section: str, types: dict, spec: dict, read: bool = False, kind=None) -> dict:
    """spec, the [section] values by key, each checked (or with read, read
    from INI text) as the type that `types` gives its key.  A key without a
    type is rejected, lest a misspelled optional key silently take its
    default."""
    unknown = sorted(set(spec) - set(types))
    if unknown:
        of = "" if kind is None else f" for kind {kind!r}"
        raise ConfigError(f"[{section}] unknown keys{of}: {unknown}")
    return {key: _value(f"[{section}] {key}", types[key], value, read)
            for key, value in spec.items()}


def _of_kind(section: str, kinds: dict, spec: dict, read: bool = False) -> dict:
    """The [section] spec checked, or read, as the keys of its kind, which
    must be one of kinds."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"[{section}] unknown kind {kind!r}")
    return _checked(section, {"kind": _STRING, **kinds[kind][0]}, spec, read, kind)


def _build(section: str, kinds: dict, spec: dict, *args):
    """What the [section] spec's kind builds from spec and args; a missing
    key and a value the builder rejects are ConfigErrors too."""
    spec = _of_kind(section, kinds, spec)
    try:
        return kinds[spec["kind"]][1](spec, *args)
    except KeyError as e:
        raise ConfigError(f"[{section}] kind {spec['kind']!r} is missing key {e.args[0]!r}") from e
    except (ValueError, TypeError) as e:   # ParameterError
        raise ConfigError(f"[{section}] {e}") from e


def build_schedule(spec: dict) -> PowerSchedule:
    _checked("schedule", {key: _FLOAT for pair in _SCHEDULE.values() for key in pair}, spec)
    try:
        return make_power_schedule(spec.get("alpha_c", 1.0), spec.get("alpha_a", 0.0),
                                   spec.get("mu_m", 0.0), spec.get("mu_b", 0.0))
    except ValueError as e:   # ParameterError
        raise ConfigError(f"[schedule] {e}") from e


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
    for name, typ in _RUN.items():
        _value(f"[run] {name}", typ, getattr(cfg, name))
    if cfg.checkpoint_stride < 0:
        raise ConfigError(f"[run] checkpoint_stride must be >= 0, got {cfg.checkpoint_stride}")
    if not 0.0 <= cfg.divergence_tolerance <= 1.0:
        raise ConfigError("[run] divergence_tolerance must lie in [0, 1]")
    if cfg.lyapunov and cfg.checkpoint_stride != 1:
        raise ConfigError("[run] lyapunov = true requires checkpoint_stride = 1 "
                          "(the descent fit needs consecutive checkpoints)")
    schedule = build_schedule(cfg.schedule)
    problem = build_problem(cfg.problem) if built is None else built
    try:
        validate_run(cfg.method, schedule, cfg.horizon, cfg.beta, cfg.x0, problem.dim)
    except ParameterError as e:
        raise ConfigError(f"[run] {e}") from e
    if problem.minimum is None:
        raise ConfigError("[problem] experiments require a problem with a known minimum")
    return problem, schedule


def validate_replicas(cfg: ExperimentConfig) -> None:
    """An experiment needs two replicas for its standard errors."""
    if cfg.replicas < 2:
        raise ConfigError(f"[run] replicas must be >= 2, got {cfg.replicas}")


# ---------------------------------------------------------------------------
# File parsing


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


@_ini_errors
def parse_config_file(path: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read an experiment config, applying `section.key=value` overrides."""
    return _experiment_config(_read_ini(path, overrides))


def _experiment_config(cp: configparser.ConfigParser) -> ExperimentConfig:
    for section in ("problem", "oracle", "schedule", "run"):
        if not cp.has_section(section):
            raise ConfigError(f"config file is missing the [{section}] section")
    problem = _of_kind("problem", _PROBLEMS, dict(cp.items("problem")), read=True)
    oracle = _of_kind("oracle", _ORACLES, dict(cp.items("oracle")), read=True)
    pairs = _checked("schedule", dict.fromkeys(_SCHEDULE, _NUMBERS),
                     dict(cp.items("schedule")), read=True)
    schedule: dict = {}
    for key, pair in pairs.items():
        if len(pair) != 2:
            raise ConfigError(f"[schedule] {key} must be a pair: {', '.join(_SCHEDULE[key])}")
        schedule.update(zip(_SCHEDULE[key], pair))
    # The fields that ExperimentConfig gives no default, as a file that
    # leaves them out reads.
    run = {"method": "", "horizon": "0", "replicas": "0", "seed": "0", "x0": "0",
           **dict(cp.items("run"))}
    return ExperimentConfig(problem, oracle, schedule, **_checked("run", _RUN, run, read=True))


def manifest_dict(cfg: ExperimentConfig) -> dict:
    from . import __version__

    return {
        "format": MANIFEST_FORMAT,
        "version": __version__,
        "config": asdict(cfg),
    }


def config_from_manifest(manifest: dict) -> ExperimentConfig:
    """The config a manifest records, its fields checked as the types of
    `_RUN`; the sections are checked when they build."""
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"manifest format must be {MANIFEST_FORMAT!r}")
    raw = manifest.get("config")
    if not isinstance(raw, dict):
        raise ConfigError("manifest is missing the config block")
    try:
        cfg = ExperimentConfig(**raw)
    except TypeError as e:
        raise ConfigError(f"manifest config mismatch: {e}") from e
    for name, typ in {"problem": _OBJECT, "oracle": _OBJECT, "schedule": _OBJECT,
                      **_RUN}.items():
        _value(f"manifest field {name!r}", typ, getattr(cfg, name))
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
    grid = _checked("sweep", _SWEEP, dict(cp.items("sweep")), read=True)
    base = _experiment_config(cp)
    validate_config(base)
    validate_replicas(base)
    return SweepSpec(base=base, methods=grid.get("methods") or [base.method],
                     alpha_a=grid.get("alpha_a") or [base.schedule.get("alpha_a", 0.0)],
                     mu_b=grid.get("mu_b") or [base.schedule.get("mu_b", 0.0)])


def sweep_grid(spec: SweepSpec) -> list[ExperimentConfig]:
    """One config per (method, alpha_a, mu_b) cell.  Each cell has its own
    schedule dict; the problem, oracle and x0 of the base are shared, and
    nothing modifies them."""
    return [replace(spec.base, method=method,
                    schedule={**spec.base.schedule, "alpha_a": float(a), "mu_b": float(b)})
            for method in spec.methods for a in spec.alpha_a for b in spec.mu_b]
