"""Self-test of the benchmark: python3 bench/selftest.py

Checks that workload generation is deterministic, that a minimal-size run of
every workload passes the output check, that a changed output is caught, that
tracing leaves every output byte-identical, the span arithmetic and the
speed normalization.
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sgdlab.cli import main as cli_main  # noqa: E402


def scratch_dir():
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


class GenerationTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for name in workloads.WORKLOADS:
            for minimal in (False, True):
                self.assertEqual(workloads.generate(name, 7, minimal),
                                 workloads.generate(name, 7, minimal))

    def test_seed_changes_inputs(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual([op.config for op in workloads.generate(name, 7)],
                                [op.config for op in workloads.generate(name, 8)])


class MinimalRunTest(unittest.TestCase):
    def test_minimal_runs_pass_and_tracing_keeps_outputs(self):
        for name in workloads.WORKLOADS:
            ops = workloads.generate(name, 3, minimal=True)
            with scratch_dir() as work:
                plain = worker.Runner(ops, os.path.join(work, "plain"), cli_main)
                plain.run_pass()
                traced = worker.Runner(ops, os.path.join(work, "traced"), cli_main)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced.run_pass(tracer)
                finally:
                    tracer.uninstall()
            cells = sum(op.cells for op in ops)
            self.assertEqual((plain.failed, plain.attempted), (0, cells), plain.errors)
            self.assertEqual((traced.failed, traced.attempted), (0, cells), traced.errors)
            self.assertEqual(plain.digests, traced.digests)
            self.assertEqual(len(plain.digests), sum(len(op.digested) for op in ops))
            self.assertEqual(tracer.missing, [])
            metrics = tracer.metrics(0, len(tracer.start), tracer.counters)
            self.assertEqual(set(metrics) | {"trace.wall_s", "trace.overhead_s"},
                             set(tracing.METRICS))
            self.assertEqual(metrics["harness.replica_steps"],
                             sum(op.replica_steps for op in ops))
            self.assertGreater(metrics["problems.gradient_calls"], 0)
            self.assertGreater(metrics["oracles.draw_bytes"], 0)

    def test_changed_digest_fails_every_cell(self):
        ops = workloads.generate("lsq_minibatch_sweep", 3, minimal=True)
        with scratch_dir() as work:
            runner = worker.Runner(ops, work, cli_main, expected={"sweep/sweep.csv": "0" * 64})
            runner.run_pass()
        self.assertEqual(runner.failed, ops[0].cells)

    def test_failed_invocation_fails_its_cells(self):
        op = workloads.generate("wide_gaussian", 3, minimal=True)[0]
        with scratch_dir() as work:
            self.assertEqual(workloads.check(op, work, 3), (op.cells, {}))
            self.assertEqual(workloads.check(op, work, 0), (op.cells, {}))


class SpeedTest(unittest.TestCase):
    def test_normalized_uses_the_references_around_each_time(self):
        nominal = speed.REF_NOMINAL_S
        refs = [nominal, nominal, 2 * nominal, 2 * nominal]
        self.assertEqual(speed.normalized([1.0, 3.0, 4.0], refs), [1.0, 2.0, 2.0])


class SpanArithmeticTest(unittest.TestCase):
    def test_self_and_busy_times(self):
        t = tracing.Tracer()
        spans = [  # name, start, end, parent
            ("cli.main", 0.0, 10.0, -1),
            ("harness.run_experiment", 1.0, 9.0, 0),
            ("problems.gradient", 2.0, 3.0, 1),
            ("config.validate_config", 4.0, 6.0, 1),
            ("config.build_problem", 4.5, 5.5, 3),
        ]
        for name, start, end, parent in spans:
            t.name.append(t._name_id(name))
            t.start.append(start)
            t.end.append(end)
            t.parent.append(parent)
            t.run.append(0)
        m = t.metrics(0, len(spans), Counter())
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["harness.self_s"], 5.0)
        self.assertEqual(m["harness.busy_s"], 8.0)
        self.assertEqual(m["config.busy_s"], 2.0)
        self.assertEqual(m["config.calls"], 2)
        self.assertEqual(m["problems.busy_s"], 1.0)
        self.assertEqual(m["problems.gradient_calls"], 1)


if __name__ == "__main__":
    unittest.main()
