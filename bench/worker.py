"""Runs one workload in this process and prints its measurements as JSON.

`run.py` starts this script in a fresh interpreter with the checkout's `src`
on PYTHONPATH.  It drives `sgdlab.cli.main` in-process: one untimed warm-up
pass over the minimal configs (lazy imports, first-call caches), then timed
passes over the full workload until `--seconds` have elapsed.  A run of
`speed.reference()` follows the warm-up and every untraced pass, so each
pass's wall time can be rescaled to the machine's speed around it.  With
`--trace 1` the passes alternate untraced and traced, and the traced ones
give the per-layer metrics.

Every invocation is checked by `workloads.check`.  Digests must agree across
all passes of the run, traced or not, and at the default seed with the ones
recorded in `expected.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def expected_digests(name: str, seed: int):
    with open(os.path.join(HERE, "expected.json"), "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    return expected["digests"].get(name) if seed == expected["default_seed"] else None


class Runner:
    """Runs passes over one list of ops and accumulates their check results."""

    def __init__(self, ops: list, work: str, main, expected=None):
        self.ops = ops
        self.configs = workloads.write_configs(ops, os.path.join(work, "configs"))
        self.out = os.path.join(work, "out")
        self.main = main
        self.expected = expected
        self.digests = None
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run_pass(self, tracer=None) -> float:
        """Runs every op once; returns the summed wall time of the invocations."""
        main = self.main if tracer is None else tracer.wrap("cli.main", self.main)
        wall = 0.0
        digests = {}
        failures = {}
        for op, config in zip(self.ops, self.configs):
            out = os.path.join(self.out, op.label)
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    code = main(op.argv(config, out))
                except Exception as e:  # a crash fails this op, not the run
                    code = f"{type(e).__name__}: {e}"
                wall += time.perf_counter() - t0
            if tracer is not None:
                tracer.run_id += 1
                tracer.counters["cli.bytes_written"] += sum(
                    os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
            failed, op_digests = workloads.check(op, out, code)
            if failed:
                failures[op.label] = failed
                self.errors.append(f"{op.label}: exit {code}: {sink.getvalue()[-400:]}")
            digests.update(op_digests)
        reference = self.expected if self.expected is not None else self.digests
        for key, value in digests.items():
            if reference is not None and reference.get(key) != value:
                label = key.split("/")[0]
                failures.setdefault(label, next(op.cells for op in self.ops if op.label == label))
                self.errors.append(f"{key}: digest {value} differs from {reference.get(key)}")
        if self.digests is None:
            self.digests = digests
        self.attempted += sum(op.cells for op in self.ops)
        self.failed += sum(failures.values())
        return wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="scratch directory for configs and outputs")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import sgdlab
    from sgdlab.cli import main as cli_main

    ops = workloads.generate(args.workload, args.seed)
    warm = Runner(workloads.generate(args.workload, args.seed, minimal=True),
                  os.path.join(args.work, "warm"), cli_main)
    full = Runner(ops, os.path.join(args.work, "full"), cli_main,
                  expected_digests(args.workload, args.seed))
    warm.run_pass()

    walls, traced_walls, layer_passes = [], [], []
    refs = [speed.reference()]
    tracer = tracing.Tracer() if args.trace else None
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < args.seconds:
        walls.append(full.run_pass())
        refs.append(speed.reference())
        if len(walls) == 1:
            # Peak after a fixed amount of work (warm-up and one pass), so
            # the number of passes that fit in --seconds cannot change it.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            lo, tracer.counters = len(tracer.start), Counter()
            tracer.install()
            try:
                traced_walls.append(full.run_pass(tracer))
            finally:
                tracer.uninstall()
            layer_passes.append(tracer.metrics(lo, len(tracer.start), tracer.counters))

    result = {
        "sgdlab": os.path.dirname(os.path.abspath(sgdlab.__file__)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "walls": walls,
        "refs": refs,
        "raw_wall_s": statistics.median(walls),
        "wall_s": statistics.median(speed.normalized(walls, refs)),
        "replica_steps": sum(op.replica_steps for op in ops),
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": warm.attempted + full.attempted,
        "failed": warm.failed + full.failed,
        "errors": (warm.errors + full.errors)[:20],
        "digests": full.digests,
    }
    if tracer is not None:
        layers = {}
        for key in layer_passes[0]:
            values = [p[key] for p in layer_passes]
            median = statistics.median(values)
            layers[key] = int(median) if all(isinstance(v, int) for v in values) else median
        layers["trace.wall_s"] = statistics.median(traced_walls)
        # Each traced pass runs right after an untraced one; pairing them
        # cancels most of the machine's slow drift in speed.
        layers["trace.overhead_s"] = statistics.median(
            t - u for u, t in zip(walls, traced_walls))
        result["layers"] = layers
        result["trace_missing"] = tracer.missing
        result["traced_walls"] = traced_walls
        tracer.write_spans(os.path.join(os.path.dirname(os.path.abspath(args.work)),
                                        f"spans-{args.workload}.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
