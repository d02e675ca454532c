"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.6x over tens of seconds to minutes.  A wall time alone then measures
the host as much as the program.  So every timed unit of work (one pass of a
workload, one set-up process) is bracketed by runs of `reference()`, a fixed
kernel that does not touch sgdlab: a pure-Python loop and a loop of small
numpy array operations, the two kinds of work that dominate sgdlab's CLI.
The time of the unit is then rescaled to the speed at which `reference()`
takes `REF_NOMINAL_S`:

    normalized = wall * REF_NOMINAL_S / mean(reference before, reference after)

A change to sgdlab moves `wall` and leaves `reference()` alone, so the
normalized time moves with the program and hardly with the host.  The raw
wall times are reported next to the normalized ones.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds `reference()` takes on the machine the normalized times refer to
# (2 vCPU Intel Xeon at its usual speed, Python 3.11, numpy 2.4).
REF_NOMINAL_S = 0.2

_STATE = np.linspace(-1.0, 1.0, 400).reshape(200, 2)


def reference() -> float:
    """Runs the fixed reference kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(600_000):
        s += i * i
    x = _STATE.copy()
    for _ in range(6_000):
        x = x - 0.01 * (x * 2.0)
        x.mean(axis=0)
        (x * x).sum(axis=1).mean()
    return time.perf_counter() - t0


def normalized(walls: list, refs: list) -> list:
    """Each wall time rescaled by the references around it (len(refs) == len(walls) + 1)."""
    return [w * REF_NOMINAL_S / ((refs[i] + refs[i + 1]) / 2.0)
            for i, w in enumerate(walls)]

