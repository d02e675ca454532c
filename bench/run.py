"""sgdlab benchmark: end-to-end and per-layer metrics of the `sgdlab` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in `workloads.py`, or `all` to run each in turn.
The load model is a closed loop with one client: invocations run back to
back in one process, with the harness on its default single thread
(SGDLAB_THREADS is removed from the environment).

With `--trace 0` a run measures, per workload:

- setup_s: median time, spawn to exit, of fresh interpreters running the
  workload's first CLI invocation on its minimal config;
- wall_s: median time of one pass over the workload's invocations,
  measured in a fresh worker process (`worker.py`) after a warm-up pass;
- replica_steps_per_s: replicas x horizon summed over the pass, / wall_s;
- peak_rss_mb: peak resident set of the worker process after its warm-up
  and first timed pass.

The times are wall times rescaled to a fixed machine speed by the reference
kernel run around each of them (`speed.py`), because the shared host's own
speed drifts more than the bounds allow.  The raw wall times are printed as
raw_wall_s and raw_setup_s and kept in the results file.  BLAS libraries are
held to one thread, as the harness is: their worker threads on a shared
2-CPU host make `descent_fit` take anywhere from 7 ms to 1 s.

With `--trace 1` it reports the per-layer metrics of `tracing.METRICS`
from traced passes, which alternate with untraced ones.

Every invocation's outputs are checked (`workloads.check`); `failed` counts
operations (invocations, or sweep cells) that failed the check.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The environment and all samples of a run are written to
`.bench_out/results/` in the checkout; span logs of traced runs to
`.bench_out/spans-<workload>.csv`.  `predictions.json` says which layer
metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": list(os.getloadavg())}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SGDLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def measure_setup(name: str, seed: int, work: str) -> tuple:
    """(spawn-to-exit seconds of each fresh CLI process, the reference times
    around them, failed ops, attempted ops)."""
    op = workloads.generate(name, seed, minimal=True)[0]
    (config,) = workloads.write_configs([op], os.path.join(work, "setup"))
    times, refs, failed = [], [speed.reference()], 0
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, "setup", f"out{i}")
        os.makedirs(out)
        argv = [sys.executable, "-m", "sgdlab.cli", *op.argv(config, out)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=work, capture_output=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        refs.append(speed.reference())
        failed += workloads.check(op, out, proc.returncode)[0]
    return times, refs, failed, SETUP_REPEATS * op.cells


def run_worker(name: str, seed: int, seconds: float, trace: int, work: str) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", work]
    proc = subprocess.run(argv, env=child_env(), cwd=work, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.commonpath([result["sgdlab"], SRC]) != SRC:
        raise RuntimeError(f"worker imported sgdlab from {result['sgdlab']}, not {SRC}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup, setup_refs, setup_failed, setup_attempted = ([], [], 0, 0) if trace else \
            measure_setup(name, seed, work)
        worker = run_worker(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = {}
    if trace:
        metrics = {k: (worker["layers"][k], unit) for k, unit in tracing.METRICS.items()}
    else:
        metrics = {
            "wall_s": (worker["wall_s"], "s"),
            "replica_steps_per_s": (worker["replica_steps"] / worker["wall_s"], "1/s"),
            "setup_s": (statistics.median(speed.normalized(setup, setup_refs)), "s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        }
        raw = {"raw_wall_s": worker["raw_wall_s"], "raw_setup_s": statistics.median(setup)}
    attempted = worker["attempted"] + setup_attempted
    failed = worker["failed"] + setup_failed
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "raw": raw, "setup_samples": setup, "setup_refs": setup_refs,
            "worker": worker}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the sgdlab CLI.")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sgdlab", "__init__.py")):
        print(f"error: no sgdlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        res["env"] = env
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        path = os.path.join(OUT, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=2)
        for key, m in res["metrics"].items():
            print(f"{name:<20} {key:<24} {m['value']:>16.6g} {m['unit']}")
        for key, value in res["raw"].items():
            print(f"{name:<20} {key:<24} {value:>16.6g} s")
        print(f"{name:<20} {'failed_frac':<24} {res['failed_frac']:>16.6g} 1"
              f"  ({res['failed']} of {res['attempted']} operations)")
        for err in res["worker"]["errors"]:
            print(f"{name:<20} check failed: {err}", file=sys.stderr)
        results.append(res)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
