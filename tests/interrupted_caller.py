"""An interrupt ends a caller's wait on its children.

    PYTHONPATH=src python tests/interrupted_caller.py DIR process|thread

Runs `sgdlab experiment` on a config of two 256-replica blocks split into
two replica ranges, in DIR, whose children each stall for 60 s, and sends
SIGINT once both children have started.  With `process` the signal goes to
this process, as a Ctrl-C does; it may land just before the caller blocks
on a child.  With `thread` it goes to the thread that sends it: Python's
C-level handler flags it there, and nothing wakes the main thread blocked
on a child.  Either way the command must end
with KeyboardInterrupt at once, with both children stopped and reaped: the
script then exits 0, and otherwise 1.  A caller that waits until a child
sends takes 60 s.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time

import sgdlab.harness as harness
from sgdlab.cli import main

INI = """\
[problem]
kind = quadratic
spectrum = 1.0, 4.0
[oracle]
kind = gaussian
sigma = 0.5
[schedule]
alpha = 0.3, 0.6
[run]
method = vsgd
horizon = 50
replicas = 512
seed = 11
x0 = 2.0, -1.0
"""


def run(workdir: str, target: str) -> int:
    pids = os.path.join(workdir, "pids")
    os.makedirs(pids)
    config = os.path.join(workdir, "wide.ini")
    with open(config, "w") as fh:
        fh.write(INI)

    def stalling(*args):   # a child: report, then stall
        open(os.path.join(pids, str(os.getpid())), "w").close()
        time.sleep(60)

    def interrupt():   # a real SIGINT once both children run
        while len(os.listdir(pids)) < 2:
            time.sleep(0.01)
        if target == "thread":
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)
        else:
            os.kill(os.getpid(), signal.SIGINT)

    harness._SPLIT_MIN_WORK = 0
    harness._usable_cpus = lambda: 2
    harness._step_range = stalling
    interrupter = threading.Thread(target=interrupt, daemon=True)
    interrupter.start()
    try:
        main(["experiment", config, "--out", os.path.join(workdir, "out")])
    except KeyboardInterrupt:
        pass
    else:
        print("the command was not interrupted", file=sys.stderr)
        return 1
    if multiprocessing.active_children():
        print("a child was left running", file=sys.stderr)
        return 1
    for name in os.listdir(pids):
        try:
            os.kill(int(name), 0)
        except ProcessLookupError:   # stopped and reaped
            continue
        print(f"child {name} still exists", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
