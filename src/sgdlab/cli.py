"""Command-line front end.

Subcommands: classify, run, experiment, lyapunov, sweep, plot.  Exit codes
are a fixed contract: 0 success, 2 usage/config error, 3 experiment failure
(divergence tolerance exceeded or replicas lost).  A command that runs out
of memory in its own process (a config too large for the machine) prints
one `error:` line and exits 2; a worker or helper that runs out of memory
dies, which fails the command with exit code 3.

Each command returns its files, its `--json` report and its text lines,
and `main` alone writes and prints them: it writes every file whole into a
fresh `.sgdlab-*` directory inside `--out`, then moves each into place.  A
command that fails or is killed leaves `--out` as it was, except that a
kill may leave a `.sgdlab-*` directory; files move one at a time, so only a
kill during those final moves can leave some files new and some old.
`plot` creates a missing output directory, as the other commands do.  An
empty `--out`, or one that is or lies under an existing file other than a
directory, is a usage error found before any step.

Config grammar (INI sections; `#`/`;` start inline comments):

    [problem]   kind = quadratic | pseudo_huber | smooth_rastrigin | least_squares
                spectrum = 1, 4        x_star = 0, 0        (quadratic)
                dim = 2                                     (pseudo_huber)
                dim = 2   amplitude = 10                    (smooth_rastrigin)
                design = [[...], ...]  targets = ...        (least_squares)
    [oracle]    kind = gaussian | relative_noise | minibatch
                sigma = 0.5 | eta = 0.1 | batch = 2  replace = true
    [schedule]  alpha = 0.5, 0.6       mu = 1, 0.2
    [run]       method = vsgd | msgd_damped | msgd_classical | nasgd
                         | nesterov_classical
                horizon = 100000   replicas = 200   seed = 1   x0 = 3, -2
                checkpoint_stride = 0   lyapunov = false   lyap_coeff = 0.1
                averaged = false   beta = 0.9   divergence_tolerance = 0.01
    [sweep]     methods = vsgd, msgd_damped   alpha_a = 0.6, 0.7   mu_b = 0, 0.2

Overrides: `--set section.key=value` (repeatable) applies after parsing;
`--seed` replaces the seed last.  The config is validated once, after both
(and for `lyapunov`, after it forces lyapunov = true and stride 1).

`sweep` gives its cells the same noise streams on purpose (common random
numbers): cells that draw alike step together in memory-bounded batches,
each of which draws each block of noise once and is planned as an
experiment is; a large batch's cells are shared by a pool of worker
processes, one per usable CPU, and the command builds every row.
`experiment` and `lyapunov` split a wide experiment's replicas over the
CPUs, and have a helper process on a second CPU draw a long narrow run's
noise and reduce its checkpoints while the command steps; a worker or
helper starts no process.  The output does not depend on their number;
small runs stay in one process, a worker or helper that dies fails the
command with exit code 3, and each exits within about 50 ms once the
command has died.
`experiment --from-manifest` takes no config file or `--set` (only
`--seed`); a grid or `--burn-in` unfit for the output fails before a step.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict

from .config import (build_oracle, config_from_manifest, manifest_dict,
                     parse_config_file, parse_sweep_file, sweep_grid,
                     validate_config)
from .errors import ConfigError, DivergenceError, ExperimentError, ParameterError
from .harness import (default_burn_in, estimates_csv, lyapunov_csv,
                      resolve_lyapunov, run_experiment, summary_dict, sweep,
                      sweep_csv)
from .lyapunov import check_fit_grid, descent_fit
from .optimizers import checkpoint_grid, run, trajectory_csv, trajectory_json
from .plotting import parse_estimates_csv, svg_plot
from .schedules import classify, make_power_schedule, numeric_probe


def _check_out(out_dir: str) -> None:
    """Raise ConfigError if out_dir is empty, or it or the nearest of its
    ancestors that exists is not a directory, so a bad `--out` fails before
    any step.  It creates nothing; `_publish` makes the missing directories."""
    if not out_dir:
        raise ConfigError("--out must name a directory, got ''")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out_dir!r}: {path!r} exists and is not a directory")


def _publish(out_dir: str, files: dict) -> list:
    """Write {file name: text} whole into a fresh `.sgdlab-*` directory in
    out_dir, then move each file into place; return the destinations.  The
    staging directory goes however this ends, and an error names the
    destination it concerns."""
    dests = {name: os.path.join(out_dir, name) for name in files}
    for dest in dests.values():
        if os.path.lexists(dest) and not os.path.isfile(dest):
            raise ConfigError(f"{dest!r} exists and is not a regular file")
    where = out_dir or os.curdir   # `plot`'s file may be named without a directory
    os.makedirs(where, exist_ok=True)
    dest = where   # the path that an error names
    try:
        stage = tempfile.mkdtemp(prefix=".sgdlab-", dir=where)
        try:
            for name, dest in dests.items():
                with open(os.path.join(stage, name), "w", encoding="utf-8") as fh:
                    fh.write(files[name])
            for name, dest in dests.items():
                os.replace(os.path.join(stage, name), dest)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except OSError as e:
        raise OSError(e.errno, e.strerror, dest) from e
    return list(dests.values())


def _load_config(args):
    cfg = parse_config_file(args.config, args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_classify(args) -> tuple:
    s = make_power_schedule(args.alpha_c, args.alpha_a, args.mu_m, args.mu_b)
    cls = classify(s)
    try:
        report = numeric_probe(s, args.horizon)
    except OverflowError as e:   # a usage error at the command line
        raise ParameterError(str(e)) from e
    lines = [f"schedule: alpha_k = {s.coeff_alpha} * k^(-{s.exp_alpha}), "
             f"mu_k = {s.coeff_mu} * k^(-{s.exp_mu})"]
    lines += [f"  {name:<20} {getattr(cls, name)}" for name in
              ("diverges", "square_summable", "thm22_condition", "damping_admissible")]
    lines.append(f"  {'l_mu':<20} {cls.l_mu if cls.l_mu is not None else '-'}")
    lines.append(f"partial sums at horizon {report.horizon}:")
    lines += [f"  {name:<20} {getattr(report, name):.6g}" for name in
              ("sum_alpha", "sum_alpha_sq", "tail_product", "ratio_alpha_mu", "sum_alpha_mu")]
    return {}, {"class": asdict(cls), "partial_sums": asdict(report)}, lines


def cmd_run(args) -> tuple:
    cfg = _load_config(args)
    problem, schedule = validate_config(cfg)
    oracle = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    traj = run(cfg.method, problem, oracle, schedule, cfg.horizon, cfg.seed,
               cfg.x0, checkpoint_stride=cfg.checkpoint_stride, beta=cfg.beta,
               lyap_mode=resolve_lyapunov(cfg, problem, schedule), averaged=cfg.averaged)
    last = traj.points[-1]
    return ({"trajectory.csv": trajectory_csv(traj)},
            trajectory_json(traj) if args.json else None,   # a dict per checkpoint
            [f"final k={last.k} f={last.f:.6g} grad_sq={last.grad_sq:.6g}"])


def cmd_experiment(args) -> tuple:
    if args.from_manifest:
        ignored = ([f"the config file {args.config!r}"] if args.config else []) \
            + [f"--set {item}" for item in args.set]
        if ignored:
            raise ConfigError("--from-manifest replays the manifest as written, so it "
                              f"would ignore {' and '.join(ignored)}")
        with open(args.from_manifest, "r", encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except ValueError as e:   # not UTF-8, or not JSON
                raise ConfigError(f"manifest {args.from_manifest!r} is not JSON: {e}") from e
        cfg = config_from_manifest(manifest)
        if args.seed is not None:
            cfg.seed = args.seed
    elif args.config:
        cfg = _load_config(args)
    else:
        raise ConfigError("experiment needs a config file or --from-manifest")
    grid = checkpoint_grid(cfg.horizon, cfg.checkpoint_stride)
    if len(grid) < 3:   # checked before any step, not by the summary's probe
        raise ConfigError(f"experiment needs at least 3 checkpoints for its liminf probe; "
                          f"horizon {cfg.horizon} at checkpoint_stride "
                          f"{cfg.checkpoint_stride} gives {len(grid)}")
    if cfg.lyapunov and cfg.checkpoint_stride == 1:   # other strides fail validation
        check_fit_grid(grid, default_burn_in(cfg.horizon))   # the summary's descent fit
    est = run_experiment(cfg)
    summary = summary_dict(est)
    csv_text = estimates_csv(est)
    files = {"manifest.json": json.dumps(manifest_dict(cfg), indent=2) + "\n",
             "estimates.csv": csv_text,
             "summary.json": json.dumps(summary, indent=2) + "\n"}
    if args.plot:
        files["curve.svg"] = svg_plot(parse_estimates_csv(csv_text))
    fin = summary["final"]
    return files, summary, [f"replicas={cfg.replicas} diverged={est.diverged} "
                            f"final mean_grad_sq={fin['mean_grad_sq']:.6g} "
                            f"mean_gap={fin['mean_gap']:.6g}"]


def cmd_lyapunov(args) -> tuple:
    cfg = _load_config(args)
    cfg.lyapunov = True
    cfg.checkpoint_stride = 1
    burn_in = args.burn_in if args.burn_in is not None else default_burn_in(cfg.horizon)
    check_fit_grid(checkpoint_grid(cfg.horizon, 1), burn_in)   # before any step
    est = run_experiment(cfg)
    fit = descent_fit(est.lyap, burn_in)
    fit_json = asdict(fit)
    return ({"lyapunov.csv": lyapunov_csv(est),
             "descent_fit.json": json.dumps(fit_json, indent=2) + "\n"},
            fit_json,
            [f"k_hat={fit.k_hat:.6g} c_hat={fit.c_hat:.6g} "
             f"violation_fraction={fit.violation_fraction:.4f} "
             f"burn_in={fit.burn_in} status={fit.status}"])


def cmd_sweep(args) -> tuple:
    spec = parse_sweep_file(args.config, args.set)
    if args.seed is not None:
        spec.base.seed = args.seed
    result = sweep(sweep_grid(spec))
    lines = []
    for r in result.rows:
        tail = (f"mean_grad_sq={r.mean_grad_sq:.6g}" if r.status == "ok"
                else f"error: {r.error}")
        lines.append(f"  {r.method:<20} a={r.alpha_a:<6g} b={r.mu_b:<6g} "
                     f"{r.status:<8} {tail}")
    return {"sweep.csv": sweep_csv(result)}, [asdict(r) for r in result.rows], lines


def cmd_plot(args) -> tuple:
    out = args.out or os.path.join(os.path.dirname(args.csv) or ".", "curve.svg")
    with open(args.csv, "r", encoding="utf-8") as fh:
        svg = svg_plot(parse_estimates_csv(fh.read()), title=args.title)
    # Published into the file's directory, cut from `out` as given, so
    # `main` prints `out` as given (`p.svg`, not `./p.svg`).
    name = os.path.basename(out)
    if not name:
        raise ConfigError(f"--out {out!r} names no file")
    args.out = out[:len(out) - len(name)]
    return {name: svg}, {"input": args.csv, "output": out}, []


def _add_config_args(p: argparse.ArgumentParser, config_required: bool = True):
    if config_required:
        p.add_argument("config", help="experiment config file")
    p.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                   help="override a config value (repeatable)")
    p.add_argument("--seed", type=int, default=None,
                   help="replace the master seed from the config")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--json", action="store_true", help="print machine-readable JSON")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sgdlab",
        description="Stochastic gradient experiments under power-law schedules.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a schedule and report partial sums")
    p.add_argument("--alpha-c", type=float, required=True, help="step coefficient c")
    p.add_argument("--alpha-a", type=float, required=True, help="step exponent a")
    p.add_argument("--mu-m", type=float, default=0.0, help="damping coefficient m")
    p.add_argument("--mu-b", type=float, default=0.0, help="damping exponent b")
    p.add_argument("--horizon", type=int, default=1_000_000,
                   help="horizon for the numeric partial-sum probe")
    p.add_argument("--json", action="store_true", help="print machine-readable JSON")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("run", help="run one trajectory, write trajectory.csv")
    _add_config_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment",
                       help="run a Monte Carlo experiment, write estimates + manifest")
    p.add_argument("config", nargs="?", default=None, help="experiment config file")
    p.add_argument("--from-manifest", default=None, metavar="MANIFEST",
                   help="replay a previously written manifest.json")
    _add_config_args(p, config_required=False)
    p.add_argument("--plot", action="store_true", help="also write curve.svg")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("lyapunov",
                       help="run with energy tracking, write series + descent fit")
    _add_config_args(p)
    p.add_argument("--burn-in", type=int, default=None,
                   help="checkpoints to skip in the fit (default: 5%% of horizon)")
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("sweep", help="run a (method, a, b) grid, write sweep.csv")
    _add_config_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render an estimates.csv as a log-log SVG")
    p.add_argument("csv", help="estimates.csv produced by experiment")
    p.add_argument("--out", default=None, help="output SVG path (default: curve.svg)")
    p.add_argument("--title", default="convergence", help="plot title")
    p.add_argument("--json", action="store_true", help="print machine-readable JSON")
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command in ("run", "experiment", "lyapunov", "sweep"):
            _check_out(args.out)
        files, report, lines = args.func(args)
        if files:
            lines = [f"wrote {', '.join(_publish(args.out, files))}", *lines]
        print(json.dumps(report) if args.json else "\n".join(lines))
        return 0
    except (ConfigError, ParameterError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 2
    except (ExperimentError, DivergenceError) as e:
        print(f"experiment failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
