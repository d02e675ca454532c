"""Spans around calls into sgdlab's modules, installed from outside the package.

`Tracer.install()` replaces every entry point in `ENTRY_POINTS` with a wrapper
that records one span per call: name, start, end, parent span and run id (the
CLI invocation it belongs to).  A function is replaced wherever it is bound in
a loaded `sgdlab` module, so names re-imported into `sgdlab.harness` and
`sgdlab.cli` are traced too.  Problems built while tracing get traced
`value`/`gradient` callables.  `uninstall()` restores every original, so an
untraced pass runs the unmodified program.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the durations of its direct children (calls are nested and
sequential, so the children never overlap).  A layer is busy during the spans
of its module that have no ancestor in the same module.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

ENTRY_POINTS = {
    "config": ("parse_config_file", "parse_sweep_file", "validate_config",
               "build_problem", "build_oracle", "build_schedule", "sweep_grid",
               "manifest_dict", "config_from_manifest"),
    "harness": ("run_experiment", "sweep", "resolve_lyapunov", "estimates_csv",
                "lyapunov_csv", "summary_dict", "sweep_csv", "liminf_probe",
                "averaged_bound_probe", "nasgd_hypothesis", "default_burn_in"),
    "rng": ("replica_stream",),
    "oracles": ("GradientOracle.raw_block", "GradientOracle.stoch_grad",
                "gaussian_oracle", "relative_noise_oracle", "minibatch_oracle"),
    "problems": ("quadratic", "pseudo_huber", "smooth_rastrigin",
                 "least_squares_sum"),
    "schedules": ("make_power_schedule", "classify", "numeric_probe",
                  "PowerSchedule.alpha", "PowerSchedule.mu",
                  "PowerSchedule.alphas", "PowerSchedule.mus"),
    "lyapunov": ("descent_fit", "select_zeta", "select_lambda"),
    "plotting": ("svg_plot", "parse_estimates_csv"),
}
SERIALIZERS = ("estimates_csv", "lyapunov_csv", "summary_dict", "sweep_csv")

# Per-layer metrics reported by the traced run, with their units.
METRICS = {
    "harness.busy_s": "s", "harness.self_s": "s", "harness.experiments": "count",
    "harness.replica_steps": "count", "harness.checkpoints": "count",
    "harness.serialize_s": "s", "harness.serialize_bytes": "bytes",
    "oracles.draw_s": "s", "oracles.draw_calls": "count",
    "oracles.draw_bytes": "bytes", "oracles.apply_s": "s",
    "oracles.apply_calls": "count", "rng.streams": "count", "rng.stream_s": "s",
    "problems.value_calls": "count", "problems.gradient_calls": "count",
    "problems.busy_s": "s", "config.calls": "count", "config.busy_s": "s",
    "schedules.busy_s": "s", "lyapunov.fit_s": "s", "plotting.svg_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes", "trace.spans": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.run_id = 0
        self.counters = Counter()
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def exit(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording one span per call; `hook(args, result)` may replace
        the result and runs after the span closes."""
        nid = self._name_id(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(sid)
            return result if hook is None else hook(args, result)

        return traced

    # -- hooks ---------------------------------------------------------------

    def _count_draw(self, args, raw):
        self.counters["oracles.draw_bytes"] += raw.nbytes
        return raw

    def _count_experiment(self, args, est):
        cfg = args[0]
        self.counters["harness.replica_steps"] += cfg.replicas * cfg.horizon
        self.counters["harness.checkpoints"] += len(est.checkpoints)
        return est

    def _count_serialized(self, args, out):
        text = out if isinstance(out, str) else json.dumps(out, indent=2) + "\n"
        self.counters["harness.serialize_bytes"] += len(text.encode("utf-8"))
        return out

    def _trace_problem(self, args, built):
        if hasattr(built, "aggregate"):   # FiniteSumProblem
            return dataclasses.replace(built, aggregate=self._trace_problem(args, built.aggregate))
        return dataclasses.replace(
            built, value=self.wrap("problems.value", built.value),
            gradient=self.wrap("problems.gradient", built.gradient))

    def _hook(self, layer: str, attr: str):
        if layer == "problems":
            return self._trace_problem
        if attr == "raw_block":
            return self._count_draw
        if attr == "run_experiment":
            return self._count_experiment
        if attr in SERIALIZERS:
            return self._count_serialized
        return None

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sgdlab" or n.startswith("sgdlab."))]
        self.missing = []
        for layer, entries in ENTRY_POINTS.items():
            home = sys.modules.get(f"sgdlab.{layer}")
            for entry in entries:
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                fn = vars(owner).get(attr) if owner is not None else None
                if not callable(fn):
                    self.missing.append(f"{layer}.{entry}")
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn, self._hook(layer, attr))
                if owner_name:
                    self._patch(owner, attr, traced)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, name, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def metrics(self, lo: int, hi: int, counters: Counter) -> dict:
        """Per-layer metrics over spans [lo, hi), which hold whole invocations."""
        n = hi - lo
        layer_bits = {}
        bit_of = [layer_bits.setdefault(nm.split(".")[0], 1 << len(layer_bits))
                  for nm in self.names]
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * n
        above = [0] * n          # layers of each span's ancestors
        for i in range(n):
            p = self.parent[lo + i] - lo
            if p >= 0:
                child[p] += dur[i]
                above[i] = above[p] | bit_of[self.name[lo + p]]
        total, own, calls, busy = Counter(), Counter(), Counter(), Counter()
        for i in range(n):
            nid = self.name[lo + i]
            name = self.names[nid]
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
            if not above[i] & bit_of[nid]:
                busy[name.split(".")[0]] += dur[i]
        return {
            "harness.busy_s": busy["harness"],
            "harness.self_s": own["harness.run_experiment"],
            "harness.experiments": calls["harness.run_experiment"],
            "harness.replica_steps": counters["harness.replica_steps"],
            "harness.checkpoints": counters["harness.checkpoints"],
            "harness.serialize_s": sum(total[f"harness.{s}"] for s in SERIALIZERS),
            "harness.serialize_bytes": counters["harness.serialize_bytes"],
            "oracles.draw_s": total["oracles.raw_block"],
            "oracles.draw_calls": calls["oracles.raw_block"],
            "oracles.draw_bytes": counters["oracles.draw_bytes"],
            "oracles.apply_s": total["oracles.stoch_grad"],
            "oracles.apply_calls": calls["oracles.stoch_grad"],
            "rng.streams": calls["rng.replica_stream"],
            "rng.stream_s": total["rng.replica_stream"],
            "problems.value_calls": calls["problems.value"],
            "problems.gradient_calls": calls["problems.gradient"],
            "problems.busy_s": busy["problems"],
            "config.calls": sum(c for k, c in calls.items() if k.startswith("config.")),
            "config.busy_s": busy["config"],
            "schedules.busy_s": busy["schedules"],
            "lyapunov.fit_s": total["lyapunov.descent_fit"],
            "plotting.svg_s": busy["plotting"],
            "cli.self_s": own["cli.main"],
            "cli.bytes_written": counters["cli.bytes_written"],
            "trace.spans": n,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.run[i]}\n")
