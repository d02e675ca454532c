"""Command-line front end.

Subcommands: classify, run, experiment, lyapunov, sweep, plot.  Exit codes
are a fixed contract: 0 success, 2 usage/config error, 3 experiment failure
(divergence tolerance exceeded or replicas lost).  Files written by a
failing invocation are removed, so an output directory never holds partial
results.

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
import sys
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
from .plotting import parse_estimates_csv, plot_file, svg_plot
from .schedules import classify, make_power_schedule, numeric_probe


def _cleanup(written: list) -> None:
    for p in written:
        try:
            os.remove(p)
        except OSError:
            pass


def _write_outputs(out_dir: str, texts: dict) -> list:
    """Write {file name: text} into out_dir and return the paths written.
    If any write fails, the files already written are removed."""
    os.makedirs(out_dir, exist_ok=True)
    written: list = []
    try:
        for name, text in texts.items():
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except BaseException:
        _cleanup(written)
        raise
    return written


def _load_config(args):
    cfg = parse_config_file(args.config, args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_classify(args) -> int:
    s = make_power_schedule(args.alpha_c, args.alpha_a, args.mu_m, args.mu_b)
    cls = classify(s)
    try:
        report = numeric_probe(s, args.horizon)
    except OverflowError as e:   # a usage error at the command line
        raise ParameterError(str(e)) from e
    if args.json:
        print(json.dumps({"class": asdict(cls), "partial_sums": asdict(report)}))
        return 0
    print(f"schedule: alpha_k = {s.coeff_alpha} * k^(-{s.exp_alpha}), "
          f"mu_k = {s.coeff_mu} * k^(-{s.exp_mu})")
    for name in ("diverges", "square_summable", "thm22_condition", "damping_admissible"):
        print(f"  {name:<20} {getattr(cls, name)}")
    print(f"  {'l_mu':<20} {cls.l_mu if cls.l_mu is not None else '-'}")
    print(f"partial sums at horizon {report.horizon}:")
    for name in ("sum_alpha", "sum_alpha_sq", "tail_product", "ratio_alpha_mu",
                 "sum_alpha_mu"):
        print(f"  {name:<20} {getattr(report, name):.6g}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    problem, schedule = validate_config(cfg)
    oracle = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    traj = run(cfg.method, problem, oracle, schedule, cfg.horizon, cfg.seed,
               cfg.x0, checkpoint_stride=cfg.checkpoint_stride, beta=cfg.beta,
               lyap_mode=resolve_lyapunov(cfg, problem, schedule), averaged=cfg.averaged)
    written = _write_outputs(args.out, {"trajectory.csv": trajectory_csv(traj)})
    last = traj.points[-1]
    if args.json:
        print(json.dumps(trajectory_json(traj)))
    else:
        print(f"wrote {written[0]}")
        print(f"final k={last.k} f={last.f:.6g} grad_sq={last.grad_sq:.6g}")
    return 0


def cmd_experiment(args) -> int:
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
    texts = {"manifest.json": json.dumps(manifest_dict(cfg), indent=2) + "\n",
             "estimates.csv": csv_text,
             "summary.json": json.dumps(summary, indent=2) + "\n"}
    if args.plot:
        texts["curve.svg"] = svg_plot(parse_estimates_csv(csv_text))
    written = _write_outputs(args.out, texts)
    if args.json:
        print(json.dumps(summary))
    else:
        fin = summary["final"]
        print(f"wrote {', '.join(written)}")
        print(f"replicas={cfg.replicas} diverged={est.diverged} "
              f"final mean_grad_sq={fin['mean_grad_sq']:.6g} "
              f"mean_gap={fin['mean_gap']:.6g}")
    return 0


def cmd_lyapunov(args) -> int:
    cfg = _load_config(args)
    cfg.lyapunov = True
    cfg.checkpoint_stride = 1
    burn_in = args.burn_in if args.burn_in is not None else default_burn_in(cfg.horizon)
    check_fit_grid(checkpoint_grid(cfg.horizon, 1), burn_in)   # before any step
    est = run_experiment(cfg)
    fit = descent_fit(est.lyap, burn_in)
    fit_json = asdict(fit)
    written = _write_outputs(args.out, {
        "lyapunov.csv": lyapunov_csv(est),
        "descent_fit.json": json.dumps(fit_json, indent=2) + "\n"})
    if args.json:
        print(json.dumps(fit_json))
    else:
        print(f"wrote {', '.join(written)}")
        print(f"k_hat={fit.k_hat:.6g} c_hat={fit.c_hat:.6g} "
              f"violation_fraction={fit.violation_fraction:.4f} "
              f"burn_in={fit.burn_in} status={fit.status}")
    return 0


def cmd_sweep(args) -> int:
    spec = parse_sweep_file(args.config, args.set)
    if args.seed is not None:
        spec.base.seed = args.seed
    result = sweep(sweep_grid(spec))
    written = _write_outputs(args.out, {"sweep.csv": sweep_csv(result)})
    if args.json:
        print(json.dumps([asdict(r) for r in result.rows]))
    else:
        print(f"wrote {written[0]}")
        for r in result.rows:
            tail = (f"mean_grad_sq={r.mean_grad_sq:.6g}" if r.status == "ok"
                    else f"error: {r.error}")
            print(f"  {r.method:<20} a={r.alpha_a:<6g} b={r.mu_b:<6g} "
                  f"{r.status:<8} {tail}")
    return 0


def cmd_plot(args) -> int:
    out = args.out or os.path.join(os.path.dirname(args.csv) or ".", "curve.svg")
    plot_file(args.csv, out, title=args.title)
    if args.json:
        print(json.dumps({"input": args.csv, "output": out}))
    else:
        print(f"wrote {out}")
    return 0


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
        return args.func(args)
    except (ConfigError, ParameterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ExperimentError, DivergenceError) as e:
        print(f"experiment failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
