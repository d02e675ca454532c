"""Benchmark workloads: CLI operations generated from a seed, and their checks.

Each workload is a list of `Op`s, one per `sgdlab` CLI invocation.  Inputs
come from the stdlib `random` module seeded with the workload name and the
benchmark seed, so the same seed gives byte-identical config files on every
machine and every numpy version.  `minimal=True` gives the same configs at 2
replicas and a few iterations; the set-up measurement and the self-test use
it.

Every generated config sets `divergence_tolerance = 0`, so an invocation that
exits 0 (or a sweep cell whose status is `ok`) has lost no replica.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

METHODS = ("vsgd", "msgd_damped", "msgd_classical", "nasgd", "nesterov_classical")
_DAMPED = ("msgd_damped", "nasgd")
_CLASSICAL = ("msgd_classical", "nesterov_classical")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `sgdlab <command> <config> --out <dir> <extra>`."""

    label: str           # unique within the workload; names the output directory
    command: str
    config: str          # config file text
    extra: tuple         # extra CLI arguments
    outputs: tuple       # files the invocation must write
    digested: tuple      # outputs compared byte for byte by SHA-256
    replica_steps: int   # replicas x horizon summed over its experiments
    rows: int            # data rows the main output must hold
    cells: int = 1       # operations it counts for: 1, or the sweep's grid cells

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.command, config_path, "--out", out_dir, *self.extra]


def _ini(sections: dict) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
        lines.append("")
    return "\n".join(lines)


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"sgdlab-bench/{workload}/{int(seed)}")


def wide_gaussian(seed: int, minimal: bool = False) -> list:
    """`experiment --plot` once per method: 2-D quadratic, 4096 replicas, stride 0."""
    rng = _rng("wide_gaussian", seed)
    replicas, horizon = (2, 50) if minimal else (4096, 1000)
    x0 = [rng.uniform(-3.0, 3.0) for _ in range(2)]
    exp_seed = rng.randrange(2 ** 31)
    ops = []
    for method in METHODS:
        schedule = {"alpha": "0.25, 0.6"}
        run = {"method": method, "horizon": horizon, "replicas": replicas,
               "seed": exp_seed, "x0": _floats(x0), "checkpoint_stride": 0,
               "divergence_tolerance": 0}
        if method in _DAMPED:
            schedule["mu"] = "1.0, 0.2"
        if method in _CLASSICAL:
            run["beta"] = 0.9
        config = _ini({
            "problem": {"kind": "quadratic", "spectrum": "1, 4"},
            "oracle": {"kind": "gaussian", "sigma": 0.5},
            "schedule": schedule,
            "run": run,
        })
        ops.append(Op(label=method, command="experiment", config=config,
                      extra=("--plot",),
                      outputs=("manifest.json", "estimates.csv", "summary.json",
                               "curve.svg"),
                      digested=("estimates.csv",),
                      replica_steps=replicas * horizon, rows=0))
    return ops


def lyapunov_stride1(seed: int, minimal: bool = False) -> list:
    """`lyapunov` on the constant-damping msgd_damped config, 200 replicas."""
    rng = _rng("lyapunov_stride1", seed)
    replicas, horizon = (2, 40) if minimal else (200, 20_000)
    config = _ini({
        "problem": {"kind": "quadratic", "spectrum": "1, 4"},
        "oracle": {"kind": "gaussian", "sigma": 0.5},
        "schedule": {"alpha": "0.5, 0.7", "mu": "1.0, 0"},
        "run": {"method": "msgd_damped", "horizon": horizon, "replicas": replicas,
                "seed": rng.randrange(2 ** 31), "x0": "3, 1",
                "checkpoint_stride": 1, "lyapunov": "true",
                "divergence_tolerance": 0},
    })
    return [Op(label="msgd_damped", command="lyapunov", config=config, extra=(),
               outputs=("lyapunov.csv", "descent_fit.json"),
               digested=("lyapunov.csv",),
               replica_steps=replicas * horizon, rows=horizon + 1)]


def lsq_minibatch_sweep(seed: int, minimal: bool = False) -> list:
    """`sweep` over 5 methods x 2 alpha_a x 2 mu_b on a 64 x 8 least-squares sum."""
    rng = _rng("lsq_minibatch_sweep", seed)
    replicas, horizon = (2, 20) if minimal else (200, 500)
    rows, dim = 64, 8
    x_true = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    design = [[rng.gauss(0.0, 1.0) for _ in range(dim)] for _ in range(rows)]
    targets = [sum(a * x for a, x in zip(row, x_true)) + 0.1 * rng.gauss(0.0, 1.0)
               for row in design]
    x0 = [rng.gauss(0.0, 3.0) for _ in range(dim)]
    alpha_a, mu_b = (0.5, 0.7), (0.0, 0.3)
    config = _ini({
        "problem": {"kind": "least_squares", "design": json.dumps(design),
                    "targets": _floats(targets)},
        "oracle": {"kind": "minibatch", "batch": 4, "replace": "false"},
        "schedule": {"alpha": "0.1, 0.6", "mu": "1.0, 0"},
        "run": {"method": "vsgd", "horizon": horizon, "replicas": replicas,
                "seed": rng.randrange(2 ** 31), "x0": _floats(x0), "beta": 0.9,
                "checkpoint_stride": 0, "divergence_tolerance": 0},
        "sweep": {"methods": ", ".join(METHODS), "alpha_a": _floats(alpha_a),
                  "mu_b": _floats(mu_b)},
    })
    cells = len(METHODS) * len(alpha_a) * len(mu_b)
    return [Op(label="sweep", command="sweep", config=config, extra=(),
               outputs=("sweep.csv",), digested=("sweep.csv",),
               replica_steps=cells * replicas * horizon, rows=cells, cells=cells)]


WORKLOADS = {
    "wide_gaussian": wide_gaussian,
    "lyapunov_stride1": lyapunov_stride1,
    "lsq_minibatch_sweep": lsq_minibatch_sweep,
}


def generate(name: str, seed: int, minimal: bool = False) -> list:
    return WORKLOADS[name](seed, minimal)


def write_configs(ops: list, directory: str) -> list:
    """Write each op's config file into `directory`; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for op in ops:
        path = os.path.join(directory, f"{op.label}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(op.config)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Output check


def _csv_rows(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _all_finite(rows: list, skip=()) -> bool:
    return all(math.isfinite(float(v)) for row in rows
               for k, v in row.items() if k not in skip)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check(op: Op, out_dir: str, exit_code: int) -> tuple:
    """(failed cells, {"<label>/<file>": sha256}) for one finished invocation.

    The invocation must exit 0, write every expected file, hold only finite
    estimates with no diverged replica, and, for a sweep, report every cell
    `ok`.
    """
    if exit_code != 0 or not all(os.path.isfile(os.path.join(out_dir, f))
                                 for f in op.outputs):
        return op.cells, {}
    path = lambda name: os.path.join(out_dir, name)
    digests = {f"{op.label}/{name}": sha256(path(name)) for name in op.digested}
    if op.command == "sweep":
        rows = _csv_rows(path("sweep.csv"))
        if len(rows) != op.rows:
            return op.cells, digests
        good = sum(1 for r in rows if r["status"] == "ok" and
                   _all_finite([r], skip=("method", "status", "error")))
        return op.cells - good, digests
    if op.command == "experiment":
        with open(path("summary.json"), "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(path("curve.svg"), "r", encoding="utf-8") as fh:
            svg_ok = fh.read(4) == "<svg"
        rows = _csv_rows(path("estimates.csv"))
        ok = summary["diverged"] == 0 and svg_ok and rows and _all_finite(rows)
    else:  # lyapunov
        with open(path("descent_fit.json"), "r", encoding="utf-8") as fh:
            fit = json.load(fh)
        rows = _csv_rows(path("lyapunov.csv"))
        ok = (len(rows) == op.rows and _all_finite(rows)
              and all(math.isfinite(float(fit[k]))
                      for k in ("k_hat", "c_hat", "violation_fraction")))
    return (0 if ok else op.cells), digests
