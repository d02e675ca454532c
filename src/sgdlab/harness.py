"""Monte Carlo experiments over independent replicas.

`run_experiment` simulates `replicas` independent trajectories of one
configuration and aggregates per-checkpoint estimates.  Replica i draws its
noise from the counter-based stream keyed by (master_seed, i).
`optimizers.run` is this engine at one replica, so replica 0 of an
experiment and a single run with the same seed are one computation.

Execution model: the engine advances a range of replicas in lock-step as
a single (replicas, dim) state; one process runs every replica, or each
usable CPU runs one range, and a long one-range run has its noise drawn
and its checkpoints reduced in a helper process (see Processes below).
It is a stepper (`_steps`) that steps through one block of raw draws at a
time, as `_step_together` hands them to it, and keeps its state, alive
mask, checkpoint buffers and sums between blocks.  Each
iteration calls the method's kernel from
`optimizers.KERNELS` and folds the running average with
`optimizers.averaged_update`, the same code the step functions call on one
(dim,) state, so each iteration costs one set of numpy calls whatever the
replica count.  Raw noise is pre-drawn into one iteration-major
(iterations, replicas, ...) buffer, so step k reads the C-contiguous
(replicas, ...) slice of row k.  A stream fills only contiguous rows, so
each block of `_BLOCK_REPLICAS` replicas draws into a staging buffer,
each replica's rows in place, and one copy moves the block into its
columns.  Philox draws do not depend on how they are chunked, so no
stream's contents change with the buffer depth, which shrinks as the
replica count grows to keep the buffer's size fixed.  After each step one
reduction over the whole state tests every replica against the divergence
radius; only when it fails does the engine test each replica.  At a
checkpoint the engine evaluates grad f on the live state (the gradient is
reused by the next step), passes it with the state to the caller's
checkpoint hook if there is one (this is how `run` records its
trajectory), and copies x, grad f(x), v and xbar into a preallocated
(chunk, replicas, dim) slot of `_Checkpoints`, which keeps its place in
the current chunk, with chunk x replicas <= 16384 (fewer for states of
more than 2 coordinates).  Reducing a chunk evaluates f(x), and f(xbar),
in one call each on the whole chunk, then one set of numpy calls reduces
it: a row of each quantity of `_QUANTITIES` that applies to the run (the
last tilted energy carries into the next chunk), the squares of those it
flags, and the block sums.  A chunk is reduced when it is full, before a
divergence changes the alive mask (so one mask holds for every checkpoint
of a chunk), and at the end of the run, in order: by the stepper's
process, or by the draw helper.  None of this checkpoint work but the
gradient feeds a later step.
Sums run over fixed consecutive blocks of `_BLOCK_REPLICAS`
replicas: each block's sum is numpy's pairwise sum of its alive replicas
in replica order, and the block sums are folded in block order, so the
reductions depend neither on the replica array's width nor on the chunk
length.

Processes: every process the engine starts is a child forked by `_fork`
in `_children`, which stops and reaps it however the caller exits.
`_stepped` steps every batch of experiments that draw alike, a lone
experiment or a batch of a sweep's cells, as `_plan`, the one planner,
lays it out.  Only the caller plans, so a child forks no further.
`_in_processes` runs a list of jobs, each in its own child if there are
two or more, and collects their results in order.
Every range of replicas is stepped by one call, `_step_range`; a
replica's Philox stream gives the same bits in any process, so where its
noise is drawn is an argument of the call (see `_step_together`).  One
experiment of at least two blocks and enough work runs one contiguous,
block-aligned range of replicas per usable CPU in a child; the caller
folds the children's block sums in block order, so the sums are the same
float additions in the same order as in one process.  A lone experiment
that runs as one range (a least-squares one always does), with a second
usable CPU and at least `_HELPER_MIN_WORK` replica-steps, forks a draw
helper (see `_ahead`).  The draws depend on no state, so the helper
owns the replica streams and draws each block of noise into one of two
shared slots while the caller steps through the other.  Nor does a step
depend on a reduced checkpoint, so the caller records its checkpoints
into one of two shared chunk slots and hands each chunk over, in a
message that carries its alive mask, and the helper reduces it between
two replicas' draws: the same `_Checkpoints.reduce` on the same chunks in
the same order, so the same sums.  The caller only steps, and `_Helper`,
its end of the helper's pipe, frees draw slots, receives block lengths
and counts the chunks reduced.  The cells of a sweep share their noise on
purpose (common random numbers): cells that draw alike step together as
one range, a memory-bounded batch at a time, each batch draws each block
of noise once, and cells that would step alike are stepped once.  Once
its work pays for them, a batch of cells runs in a pool of one worker
per usable CPU and per cell, each in a child: for each block, each
worker draws its contiguous part of the replicas into one shared slot,
all wait at a barrier, each steps its share of the cells through the
whole block, and all wait again before the slot is refilled (see
`_Exchange`).  Every child has a
duplex pipe to its caller, which waits on all of them at once, in short
polls, so that an interrupt ends any wait for a child and a child that
dies is seen even while its siblings block at the barrier.  A child that
dies raises ExperimentError; every child exits within a poll of its
caller's death, whatever it is doing (see `_child`).

Diverged replicas (non-finite coordinate or ||x|| > 1e12) are recorded
with their failing iteration, frozen, and excluded from every later
checkpoint; once none of its replicas is alive an engine stops stepping
and drawing.  The experiment fails if more than `divergence_tolerance` of
replicas diverge.  Zero-noise oracles short-circuit to a single replica:
all replicas would be identical, so means are that trajectory's values and
standard errors are exactly 0.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from .config import ExperimentConfig, build_oracle, validate_config, validate_replicas
from .errors import ConfigError, DivergenceError, ExperimentError, ParameterError
from .lyapunov import (LyapunovSeries, checkpoint_coefficients, descent_fit, energies,
                       select_lambda, select_zeta)
from .optimizers import (DAMPED, KERNELS, all_within_radius, averaged_update,
                         checkpoint_grid, init_average, within_radius)
from .oracles import GradientOracle
from .problems import Convexity, Problem, row_dot
from .rng import replica_streams
from .schedules import PowerSchedule, classify

_BLOCK_REPLICAS = 256   # fixed reduction grid, independent of the array width
_RAW_BLOCK = 1024       # iterations of raw noise pre-drawn per replica, at most
# A checkpoint slot's state buffers (x, grad f(x), ...) each hold at most
# this many replica-checkpoint coordinates (counting at least 2 per state),
# so chunk x replicas <= 16384; and an experiment splits only if each
# range's unfolded sums hold at most this many checkpoint-blocks per
# quantity.
_CHUNK_VALUES = 32768
# A batch of cells of less work than this (replicas simulated x horizon x
# cells, each distinct cell once) runs in-process: below it, starting a
# pool (about 25 ms on a 2-vCPU host to import multiprocessing, fork two
# workers and join them) can cost more than two workers save on small
# least-squares cells, which run about 0.6 M replica-steps/s.
_POOL_MIN_WORK = 100_000
# A sweep steps the cells of a draw group together in batches, each drawing
# the group's noise once, in which each share of up to one per usable CPU
# (see `_batches`) holds at most this many floats (8 MB); a batch below
# `_POOL_MIN_WORK` holds all its shares in one process.
_GROUP_VALUES = 1 << 20
# An experiment of less work than this (replicas x horizon) runs in one
# process.  The split costs an import of multiprocessing, a fork and a join
# per range, and copy-on-write faults, and it halves only the per-replica
# part of a step, so narrow ranges gain less.  Timed as fresh stride-0
# msgd_damped `sgdlab experiment` calls on a 2-vCPU host, split against
# `taskset -c 0` (medians of 10 alternated pairs): at 1.0 M replica-steps
# 1.4x slower at 512 replicas and even at 1024; at 1.5 M 8-14% slower at
# 512, even at 768 and 6-9% faster at 1024; at 2.05 M 6-11% faster at 512,
# 768 and 1024 (8-9 pairs of 10 won); 512 replicas even at 2.3 M and 16%
# faster at 3.1 M.
_SPLIT_MIN_WORK = 2_000_000
# An experiment of less work than this (replicas x horizon) draws its noise
# and reduces its checkpoints in-process.  In a fresh process the draw
# helper costs about 25-30 ms to import multiprocessing, fork and wait for
# its first block; the caller then only steps.  Timed as fresh msgd_damped
# `sgdlab experiment` (stride 0) and `sgdlab lyapunov` (stride 1) calls at
# 200 and 1024 replicas on a 2-vCPU host, BLAS on one thread, the helper
# against the same call with `_plan` denying it (not under `taskset -c 0`,
# which also moves the run onto one particular CPU), in two rounds of 10
# alternated pairs: at 0.5 M the medians read from 5% slower to 1% faster
# (2-6 pairs won); at 1 M from 9% slower to 10% faster (3-9 won), slower at
# 1024 replicas in 3 of 4 readings; at 2 M from 5% slower to 10% faster
# (5-9 won), faster in 7 of 8 readings.  It lost at most 7 pairs of 10 at
# 1 M and won at most 6 at 0.5 M, so the threshold stays.
_HELPER_MIN_WORK = 1_000_000
# The quantities each checkpoint reduces, in row order: (name, the runs it
# applies to: "always", "averaged" or "energies", whether the sum of its
# squares is kept).  An estimate holds mean_<name>, and se_<name> if squared.
_QUANTITIES = (
    ("grad_sq", "always", True),
    ("gap", "always", True),
    ("avg_gap", "averaged", True),
    ("delta_ht", "energies", True),   # H~_k - H~ at the previous checkpoint
    ("ht", "energies", False),
    ("hbar", "energies", False),
)


def _sum_keys(averaged: bool, energies: bool) -> tuple:
    """(names, keys): the names of the quantities that apply to a run, in
    table order, and its sums' keys, those names and "sq_" + each squared."""
    applies = {"always": True, "averaged": averaged, "energies": energies}
    kept = [(name, squared) for name, when, squared in _QUANTITIES if applies[when]]
    names = [name for name, _ in kept]
    return names, names + ["sq_" + name for name, squared in kept if squared]


@dataclass
class MonteCarloEstimate:
    checkpoints: np.ndarray
    mean_grad_sq: np.ndarray
    se_grad_sq: np.ndarray
    mean_gap: np.ndarray
    se_gap: np.ndarray
    mean_avg_gap: Optional[np.ndarray]
    se_avg_gap: Optional[np.ndarray]
    lyap: Optional[LyapunovSeries]
    replicas: int
    diverged: int
    diverged_iterations: tuple
    config: ExperimentConfig
    problem: Problem            # as built by the one validation of config
    schedule: PowerSchedule


def resolve_lyapunov(cfg: ExperimentConfig, problem: Problem,
                     schedule: PowerSchedule):
    """(mode, coeff) actually used for energy tracking, or None.

    Constant damping uses the tilt zeta = select_zeta(L, m, m); vanishing
    damping uses the scale lambda = select_lambda(L, l_mu) multiplied by
    mu_k at each step.  Without damping the tilt is 0 (plain energy).
    """
    if not cfg.lyapunov:
        return None
    m, b = schedule.coeff_mu, schedule.exp_mu
    vanishing = m > 0 and b > 0
    if cfg.lyap_coeff is not None:
        return ("vanishing" if vanishing else "constant", float(cfg.lyap_coeff))
    if vanishing:
        cls = classify(schedule)
        l_mu = cls.l_mu if cls.l_mu is not None else 0.0
        return ("vanishing", select_lambda(problem.smoothness_l, l_mu))
    if m > 0:
        return ("constant", select_zeta(problem.smoothness_l, m, m))
    return ("constant", 0.0)


def _refill(buf, stage, oracle, gens, nb: int, serve=None) -> None:
    """Draw the next nb iterations of every replica's raw noise into
    buf[:nb], where buf is shaped (iterations, replicas, ...), one block of
    replicas at a time: each replica's stream fills its C-contiguous rows
    of stage, shaped (block, iterations, ...), in place, and one copy moves
    them into the block's columns of buf.  Both are viewed as arrays of one
    np.void item per draw, so the copy moves whole draws in one loop.  buf
    may be a view of some columns of a wider buffer.  Unless None, serve()
    runs after each replica's draw."""
    draws, staged = _draw_items(buf), _draw_items(stage)
    for lo in range(0, len(gens), _BLOCK_REPLICAS):
        block = gens[lo:lo + _BLOCK_REPLICAS]
        for rows, g in zip(stage, block):
            oracle.raw_block(g, nb, out=rows[:nb])
            if serve is not None:
                serve()
        np.copyto(draws[:nb, lo:lo + len(block)], staged[:len(block), :nb].T)


def _draws(oracle, gens, horizon: int, slots: list, wait=None, serve=None):
    """Yield each successive block of every replica's raw noise, replica
    i's from gens[i], as drawn by `_refill` (which calls serve) into the
    (iterations, replicas, ...) slots in turn.  A slot is refilled once the
    block it holds has been stepped through: with one slot, when the next
    block is asked for; with more, once wait() returns."""
    nb_max = len(slots[0])
    stage = np.empty((min(len(gens), _BLOCK_REPLICAS), nb_max) + slots[0].shape[2:],
                     dtype=slots[0].dtype)
    for i, lo in enumerate(range(0, horizon, nb_max)):
        if wait is not None and i >= len(slots):
            wait()
        buf, nb = slots[i % len(slots)], min(nb_max, horizon - lo)
        _refill(buf, stage, oracle, gens, nb, serve)
        yield buf[:nb]


def _block_shape(oracle, r_count: int, horizon: int) -> tuple:
    """The shape of a buffer of one block of r_count replicas' raw draws
    (see `_draws`): deep enough for `_RAW_BLOCK` iterations of
    `_BLOCK_REPLICAS` replicas, and no deeper than the horizon."""
    nb_max = max(1, min(_RAW_BLOCK, _BLOCK_REPLICAS * _RAW_BLOCK // r_count, horizon))
    return (nb_max, r_count) + oracle.raw_shape


def _draw_items(a: np.ndarray) -> np.ndarray:
    """The C-contiguous (m, n, *raw_shape) array a as an (m, n) array of
    one np.void item per draw."""
    size = int(np.prod(a.shape[2:]))
    return a.reshape(a.shape[:2] + (size,)).view((np.void, a.itemsize * size))[..., 0]


def _block_sums(vals: np.ndarray, alive: np.ndarray, frozen_blocks) -> np.ndarray:
    """(chunk, rows, blocks) sums of each (checkpoint, row) of vals, shaped
    (chunk, rows, replicas), over the alive replicas of each block of
    `_BLOCK_REPLICAS`; `frozen_blocks` names the blocks that hold a diverged
    replica.  Every sum runs numpy's pairwise summation over one C-contiguous
    run of values in replica order, so it does not depend on the chunk."""
    r_count = vals.shape[-1]
    full = r_count - r_count % _BLOCK_REPLICAS
    parts = []
    if full:
        parts.append(vals[..., :full].reshape(vals.shape[:-1] + (-1, _BLOCK_REPLICAS))
                     .sum(axis=-1))
    if full < r_count:
        parts.append(vals[..., full:].sum(axis=-1, keepdims=True))
    sums = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    for b in frozen_blocks:
        lo, hi = b * _BLOCK_REPLICAS, (b + 1) * _BLOCK_REPLICAS
        # compress returns C-contiguous rows; a boolean column index would
        # return column-major data, whose row sums run sequentially.
        sums[..., b] = np.compress(alive[lo:hi], vals[..., lo:hi], axis=-1).sum(axis=-1)
    return sums


def _fold(totals: np.ndarray, sums: np.ndarray) -> None:
    """Add (..., blocks) block sums onto totals in block order."""
    for b in range(sums.shape[-1]):
        totals += sums[..., b]


def _frozen_blocks(alive: np.ndarray):
    """The blocks of `_BLOCK_REPLICAS` that hold a replica not alive."""
    return np.unique(np.flatnonzero(~alive) // _BLOCK_REPLICAS) if not alive.all() else ()


def _chunk(points: int, r_count: int, dim: int) -> int:
    """Checkpoints a checkpoint buffer holds (see `_Checkpoints`)."""
    return max(1, min(points, _CHUNK_VALUES // (r_count * max(2, dim))))


class _Checkpoints:
    """The per-checkpoint sums of one stepper (see `_steps`).  `record`
    copies each checkpoint's state into the current one of `slots`, each of
    which holds up to `chunk` checkpoints of x, grad f(x), v (None without
    energies) and xbar (None unless averaged), and `flush` has `reduce`
    evaluate f on the checkpoints buffered and reduce them into `totals`
    and `counts` with one set of numpy calls; `tilts` holds each
    checkpoint's energy tilt (None without energies).

    In this process there is one slot, reduced in place.  A draw helper
    (see `_ahead`) reduces instead once `share` has put two slots and the
    sums in shared maps and `helper` is set: `flush` hands the
    chunk over, as the message (slot, first, count, alive) that `reduce`
    takes, and recording moves on to the other slot, waiting first, if need
    be, until the helper has reduced the chunk that slot held.  `results`
    waits for the last chunk."""

    def __init__(self, problem, grid, tilts, averaged: bool, f_star: float,
                 r_count: int, dim: int, fold: bool):
        self.names, self.keys = _sum_keys(averaged, tilts is not None)
        blocks = -(-r_count // _BLOCK_REPLICAS)
        self.totals = np.zeros((len(grid), len(self.keys)) + (() if fold else (blocks,)))
        self.counts = np.zeros(len(grid), dtype=np.int64)
        self.problem, self.tilts, self.f_star, self.fold = problem, tilts, f_star, fold
        self.chunk = _chunk(len(grid), r_count, dim)
        self.averaged, self.rows = averaged, (self.chunk, r_count, dim)
        self.slots = [self._slot(np.zeros)]
        self.helper = None
        self.flushes = 0   # chunks flushed
        self.first = self.held = 0   # the current chunk's first checkpoint, and its count
        self.vals = np.empty((self.chunk, len(self.keys), r_count))   # quantities, squares
        self.ht_prev = None

    def _slot(self, alloc) -> list:
        """Buffers for one chunk of x, grad f(x), v and xbar, from alloc."""
        rows, lyap = self.rows, self.tilts is not None
        return [alloc(rows), alloc(rows), alloc(rows) if lyap else None,
                alloc(rows) if self.averaged else None]

    def share(self) -> None:
        """Hold two slots and the sums in shared maps, for a draw helper
        forked after this to reduce; nothing may be recorded yet."""
        self.slots = [self._slot(_shared_array) for _ in range(2)]
        self.totals = _shared_array(self.totals.shape)
        self.counts = _shared_array(self.counts.shape, np.int64)

    def record(self, x, gr, v, xbar, alive) -> None:
        """Copy the next checkpoint, x, grad f(x) = gr, v and xbar, into the
        current chunk, and flush the chunk once full; `alive` is the alive
        mask it was recorded under."""
        j = self.held
        if j == 0 and self.helper is not None:
            self.helper.wait_reduced(self.flushes - 1)   # the slot's last chunk
        xs, gs, vs, bs = self.slots[self.flushes % len(self.slots)]
        xs[j] = x
        gs[j] = gr
        if vs is not None:
            vs[j] = v
        if bs is not None:
            bs[j] = xbar
        self.held = j + 1
        if self.held == self.chunk:
            self.flush(alive)

    def flush(self, alive) -> None:
        """Reduce the checkpoints buffered, if any, all recorded under the
        alive mask `alive`: here, or by handing them over to the helper."""
        if not self.held:
            return
        message = (self.flushes % len(self.slots), self.first, self.held, alive)
        self.flushes += 1
        self.first += self.held
        self.held = 0
        if self.helper is None:
            self.reduce(*message)
        else:
            self.helper.send(message)

    def results(self) -> tuple:
        """(counts, sums keyed by quantity) once every chunk is reduced."""
        if self.helper is not None:
            self.helper.wait_reduced(self.flushes)
        return self.counts, dict(zip(self.keys, np.moveaxis(self.totals, 1, 0)))

    def reduce(self, slot: int, first: int, c: int, alive) -> None:
        """Reduce the first c checkpoints of the slot, checkpoints
        first..first+c-1, which were all recorded under the alive mask
        `alive`.  f(x), and f(xbar) when averaged, are each one `value`
        call on the (c, replicas, dim) rows, which gives every checkpoint's
        row the bits a call on its (replicas, dim) state gives (see
        `problems`)."""
        xs, gs, vs, bs = self.slots[slot]
        gr = gs[:c]
        gsq = row_dot(gr, gr)
        gap = self.problem.value(xs[:c]) - self.f_star
        rows = {"grad_sq": gsq, "gap": gap}   # each quantity's (c, replicas) row
        if bs is not None:
            rows["avg_gap"] = self.problem.value(bs[:c]) - self.f_star
        if self.tilts is not None:
            _, hbar, _, ht = energies(gap, gsq, gr, vs[:c], self.tilts[first:first + c, None])
            dht = np.empty_like(ht)
            dht[0] = 0.0 if self.ht_prev is None else ht[0] - self.ht_prev
            np.subtract(ht[1:], ht[:-1], out=dht[1:])
            rows.update(delta_ht=dht, ht=ht, hbar=hbar)
            self.ht_prev = ht[-1]
        out, q = self.vals[:c], len(self.names)
        np.stack([rows[name] for name in self.names], axis=1, out=out[:, :q])
        # Squared from rows: columns of out squared into out would be
        # checked for overlap and copied first.
        for i, key in enumerate(self.keys[q:], q):
            np.square(rows[key.removeprefix("sq_")], out=out[:, i])
        sums = _block_sums(out, alive, _frozen_blocks(alive))
        if self.fold:
            _fold(self.totals[first:first + c], sums)
        else:
            self.totals[first:first + c] = sums
        self.counts[first:first + c] = np.count_nonzero(alive)


def _shared_array(shape: tuple, dtype=float) -> np.ndarray:
    """A zeroed array in an anonymous shared map, which forked processes
    share."""
    import mmap

    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype,
                         count).reshape(shape)


def _fork(target, args: tuple):
    """Start a forked daemon child that runs target(conn, *args) (see
    `_child`), and return it with this process's end of a new duplex pipe
    whose other end is conn."""
    # Imported here so that runs in one process never load it.  Fork rather
    # than spawn: the child inherits the problem and oracle, whose closures
    # do not pickle, and every module this process has loaded.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_child, args=(os.getpid(), theirs, target, args), daemon=True)
    child.start()
    theirs.close()
    return child, ours


def _child(caller: int, conn, target, args: tuple) -> None:
    """A forked child's start (see `_fork`): run target(conn, *args), and
    exit within a poll of the death of the caller, whose process id it took
    before the fork, whatever the child waits on or does."""
    def watch():
        while os.getppid() == caller:
            time.sleep(0.05)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()
    target(conn, *args)


@contextmanager
def _children(target, arg_lists: list):
    """Fork a child that runs target(conn, *args) for each args of
    arg_lists (see `_fork`), and yield the (child, conn) pairs.  An
    interrupt is held while a child is forked and listed, lest it leave a
    child that nothing stops.  However the block exits, every child still
    running is terminated and each is reaped."""
    children = []
    try:
        for args in arg_lists:
            with _interrupt_held():
                children.append(_fork(target, args))
        yield children
    finally:
        for child, _ in children:
            child.terminate()   # a no-op for a child that has exited
        for child, conn in children:
            child.join()
            conn.close()


def _died(child) -> ExperimentError:
    child.join()   # its pipe broke, so it has exited
    return ExperimentError(f"a worker process died: exit code {child.exitcode}")


def _received(child, conn):
    """The next message from child on conn; raises ExperimentError if the
    pipe broke.  It waits in short polls, not in one blocking read: a SIGINT
    that lands just before such a read, or in another thread, runs its
    handler only once the read returns, which may be when the child next
    sends."""
    try:
        while not conn.poll(0.05):
            pass
        return conn.recv()
    except (EOFError, OSError):
        raise _died(child) from None


@contextmanager
def _interrupt_held():
    """Hold back a SIGINT that arrives in the block, and deliver it once the
    block ends.  Python runs signal handlers only in the main thread, so in
    any other thread no interrupt can land and nothing is held.  A child
    forked in the block keeps the holding handler, so it ignores SIGINT;
    its caller stops it."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    held = []
    previous = signal.signal(signal.SIGINT, lambda *_: held.append(True))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
        if held:
            signal.raise_signal(signal.SIGINT)


def _in_processes(jobs: list) -> list:
    """The results of calling each of jobs, in order.  A single job runs in
    this process; otherwise each runs in its own forked child (see
    `_children`) and sends its result back.  It waits on every child's
    pipe at once, in short polls (see `_received`), so that a child that
    dies fails the call even while a sibling blocks waiting for it, as the
    workers of a pool do at their barrier (see `_Exchange`)."""
    if len(jobs) < 2:
        return [job() for job in jobs]
    from multiprocessing.connection import wait

    results = [None] * len(jobs)
    with _children(_send_result, [(job,) for job in jobs]) as children:
        waiting = {conn: i for i, (_, conn) in enumerate(children)}
        while waiting:
            for conn in wait(list(waiting), 0.05):
                i = waiting.pop(conn)
                results[i] = _received(*children[i])
    return results


def _send_result(conn, job) -> None:
    conn.send(job())


def _steps(problem, oracle, method: str, beta, alphas, mus, x0, grid, lyap_mode,
           averaged: bool, f_star: float, r_count: int, on_point, first: int = 0,
           fold: bool = True):
    """Stepper of replicas first..first+r_count-1, which advance in
    lock-step; `first` is a multiple of `_BLOCK_REPLICAS`.

    A generator: `next` returns its `_Checkpoints`, which the caller may
    `share` with a draw helper, then each `send` hands it an (iterations,
    replicas, ...) block of raw draws and it steps through the block's
    iterations, each a C-contiguous (replicas, ...) slice, until the
    horizon or until none of its replicas is alive; the first records
    checkpoint 0 first if the grid holds it.  It then returns (as
    StopIteration's value) (counts, sums, diverged, final): alive replicas
    per checkpoint; a dict of per-checkpoint sums over alive replicas keyed
    by quantity (sums of squares under "sq_" + name), each with the block
    sums folded in block order or, unless fold, shaped (checkpoints,
    blocks); the (replica, iteration) divergences; and the last (x, v,
    x_prev, running average or None).  Unless None, on_point(k, x, v, xbar,
    grad) sees every checkpoint's (replicas, ...) state, xbar (None unless
    averaged) and grad f(x).  The stepper records its checkpoints in its
    `_Checkpoints` and flushes them there, which reduces them in this
    process or in the draw helper.  It only reads the blocks it is handed.
    """
    horizon = len(alphas)
    kernel = KERNELS[method]
    x = np.tile(np.asarray(x0, dtype=float), (r_count, 1))
    v = np.zeros_like(x)
    x_prev = x.copy()
    avg = init_average(x) if averaged else None
    alive = np.ones(r_count, dtype=bool)
    n_alive = r_count
    diverged = []
    tilts = checkpoint_coefficients(grid, alphas, mus, lyap_mode)[2]
    checkpoints = _Checkpoints(problem, grid, tilts, averaged, f_star, r_count, x.shape[1],
                               fold)
    grad_cache = None
    ci = 0   # checkpoints recorded

    def record():
        """Buffer checkpoint ci's state; return grad f(x)."""
        nonlocal ci
        gr = problem.gradient(x)
        xbar = (x if avg.weight_sum == 0.0 else avg.xbar) if averaged else None
        checkpoints.record(x, gr, v, xbar, alive)
        if on_point is not None:
            on_point(int(grid[ci]), x, v, xbar, gr)
        ci += 1
        return gr

    def grad_at(point):
        """Stochastic gradients at point from this iteration's draws; grad f
        at the current state is reused from its checkpoint when recorded."""
        return oracle.stoch_grad(point, raw_t, grad=grad_cache if point is x else None)

    block = yield checkpoints
    if grid[ci] == 0:
        grad_cache = record()

    k = 0
    while True:
        for raw_t in block:
            k += 1
            alpha = alphas[k - 1]
            if averaged:
                avg = averaged_update(avg, x, alpha)
            x_new, v = kernel(x, v, x_prev, grad_at, alpha,
                              alphas[k - 2] if k >= 2 else alpha, mus[k - 1], beta)
            x_prev, x = x, x_new
            grad_cache = None

            # One reduction clears every replica, frozen ones included
            # (they keep stepping); only when it fails is each replica
            # tested.  Frozen replicas are never flagged again.
            if not all_within_radius(x) and not (ok := within_radius(x) | ~alive).all():
                checkpoints.flush(alive)   # the buffered checkpoints keep the old mask
                bad = ~ok
                diverged += [(first + int(i), k) for i in np.nonzero(bad)[0]]
                alive &= ok
                n_alive = int(alive.sum())
                if n_alive == 0:
                    break
                for arr in (x, v, x_prev) + ((avg.xbar,) if averaged else ()):
                    arr[bad] = 0.0

            if ci < len(grid) and k == grid[ci]:
                grad_cache = record()
        if k == horizon or not n_alive:
            break
        block = yield
    checkpoints.flush(alive)
    return (*checkpoints.results(), diverged, (x, v, x_prev, avg))


def _here(oracle, seed: int, horizon: int, first: int, count: int, books: list, done):
    """The blocks of raw noise of replicas first..first+count-1 (see
    `_step_together`), drawn in this process into one buffer (see
    `_draws`), until done() holds."""
    slot = np.empty(_block_shape(oracle, count, horizon), oracle.raw_dtype)
    for block in _draws(oracle, replica_streams(seed, count, first), horizon, [slot]):
        yield block
        if done():
            return


def _step_together(oracle, seed: int, horizon: int, first: int, count: int, steppers: list,
                   source=_here) -> list:
    """Drive steppers (see `_steps`), each of replicas first..first+count-1
    over the same horizon, through one draw of each block of their raw
    noise, replica i's from its stream under seed: each block goes to every
    stepper still running.  Returns their results in order.

    The caller picks where the blocks are drawn: source(oracle, seed,
    horizon, first, count, books, done) is a generator of them, given the
    steppers' `_Checkpoints` (books) and whether every stepper is done
    (done()).  The source owns the replica streams, and it stops at the
    horizon or once done() holds; `_here` draws in this process, `_ahead`
    in a draw helper, and `_Exchange.blocks` together with the other
    workers of a pool.  It is closed however the steppers end,
    which stops a draw helper."""
    books = [next(stepper) for stepper in steppers]
    results = [None] * len(steppers)
    running = list(range(len(steppers)))
    blocks = source(oracle, seed, horizon, first, count, books, lambda: not running)
    try:
        # A helper forked in here reduces under the same error state.
        with np.errstate(over="ignore", invalid="ignore"):
            for block in blocks:
                for i in list(running):
                    try:
                        steppers[i].send(block)
                    except StopIteration as done:
                        results[i] = done.value
                        running.remove(i)
    finally:
        blocks.close()
        for stepper in steppers:   # a no-op for those done
            stepper.close()
    return results


def _ahead(oracle, seed: int, horizon: int, first: int, count: int, books: list, done):
    """The blocks of raw noise of replicas first..first+count-1 for a single
    stepper (see `_step_together`), drawn by a forked draw helper
    (`_draw_ahead`), which owns the streams and the stepper's checkpoint
    reductions.  It draws every block into two shared slots in turn, one
    block ahead: while the stepper steps through one slot it fills the
    other, and sends each block's length once drawn.  This process's end of
    its pipe, a `_Helper`, yields each block once drawn and tells the
    helper that a slot is free only when a later block still needs that
    slot.  The stepper records its checkpoints into two shared chunk slots
    in turn and hands each full or flushed chunk over with its alive mask
    (see `_Checkpoints`); the helper reduces it between two replicas'
    draws, or at once if it is waiting, and acknowledges it.  So this
    process only steps.  The helper is a child of `_children`, stopped
    once the stepper is done or on an error.  Both run on the CPUs this
    process was given, as split ranges and pool workers do."""
    slots = list(_shared_array((2,) + _block_shape(oracle, count, horizon), oracle.raw_dtype))
    books[0].share()
    helper = (oracle, replica_streams(seed, count, first), horizon, slots, books[0])
    with _children(_draw_ahead, [helper]) as children:
        books[0].helper = _Helper(*children[0])
        yield from books[0].helper.blocks(slots, -(-horizon // len(slots[0])), done)


class _Helper:
    """This process's end of the draw helper's pipe (see `_ahead`).  It
    sends the helper None for a draw slot freed and a chunk's (slot, first,
    count, alive) for a chunk handed over (see `_Checkpoints`), and sorts
    what comes back: a block's length once drawn, None once a chunk is
    reduced."""

    def __init__(self, child, conn):
        self.child, self.conn = child, conn
        self.drawn = []        # lengths of blocks drawn and not yet stepped
        self.reduced = 0       # chunks reduced

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:
            raise _died(self.child) from None

    def _receive(self) -> None:
        message = _received(self.child, self.conn)
        if message is None:
            self.reduced += 1
        else:
            self.drawn.append(message)

    def blocks(self, slots: list, count: int, done):
        """Yield the count blocks that the helper draws into the two slots
        in turn, each once drawn, until done() holds; asking for the next
        block frees the slot of the last, if a later block needs it."""
        for i in range(count):
            if 0 < i < count - 1:
                self.send(None)
            while not self.drawn:
                self._receive()
            yield slots[i % 2][:self.drawn.pop(0)]
            if done():
                return

    def wait_reduced(self, chunks: int) -> None:
        """Return once the helper has reduced `chunks` chunks."""
        while self.reduced < chunks:
            self._receive()


def _draw_ahead(conn, oracle, gens: list, horizon: int, slots: list,
                books: _Checkpoints) -> None:
    """The draw helper's loop (see `_ahead`): draw the blocks into the two
    slots in turn and send each block's length, refilling a slot only once
    the caller has freed it.  Between two replicas' draws, while it waits
    for a slot and after the last block, reduce each chunk of books that
    the caller hands over, in order, and send None for it.  The caller
    stops it."""
    import select   # only a draw helper polls

    pending = select.poll()
    pending.register(conn, select.POLLIN)
    freed = 0   # draw slots freed and not yet refilled

    def take(message):
        nonlocal freed
        if message is None:
            freed += 1
        else:
            books.reduce(*message)
            conn.send(None)

    def serve():
        while pending.poll(0):
            take(conn.recv())

    def wait():
        nonlocal freed
        while not freed:
            take(conn.recv())
        freed -= 1

    for block in _draws(oracle, gens, horizon, slots, wait, serve):
        conn.send(len(block))
    while True:
        take(conn.recv())


def _mean_se(s, q, n):
    n = n.astype(float)
    mean = s / n
    if q is None:   # squares not summed: no standard error
        return mean, None
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(n > 1, np.maximum(q - s * s / n, 0.0) / np.maximum(n - 1, 1), 0.0)
        se = np.sqrt(var / n)
    return mean, se


@dataclass
class _Experiment:
    """A validated experiment, built and ready to step.  Its schedules and
    checkpoint grid are computed when asked for, so that the prepared cells
    of a sweep hold no horizon-long array until they step."""
    cfg: ExperimentConfig
    problem: Problem
    schedule: PowerSchedule
    oracle: GradientOracle
    lyap_mode: Optional[tuple]
    effective: int   # replicas simulated

    @property
    def grid(self) -> np.ndarray:
        return checkpoint_grid(self.cfg.horizon, self.cfg.checkpoint_stride)

    @property
    def alphas(self) -> np.ndarray:
        return self.schedule.alphas(self.cfg.horizon)

    @property
    def mus(self) -> np.ndarray:
        return self.schedule.mus(self.cfg.horizon)

    def engine_args(self) -> tuple:
        """The leading arguments of `_steps`, up to its replica count."""
        c = self.cfg
        return (self.problem, self.oracle, c.method, c.beta, self.alphas, self.mus, c.x0,
                self.grid, self.lyap_mode, c.averaged, self.problem.minimum.f_star)

    def steps_key(self) -> tuple:
        """What `_steps` reads of this experiment besides the problem,
        oracle and replica count that its draw group shares (see
        `_draw_groups`): experiments of one group with equal keys are one
        computation.  The damping schedule counts only where the update
        (`optimizers.DAMPED`) or the energy's tilt (vanishing mode) reads
        mu_k."""
        c, s = self.cfg, self.schedule
        reads_mu = c.method in DAMPED or (self.lyap_mode is not None
                                          and self.lyap_mode[0] == "vanishing")
        return (c.method, c.beta, s.coeff_alpha, s.exp_alpha,
                (s.coeff_mu, s.exp_mu) if reads_mu else None,
                np.asarray(c.x0, dtype=float).tobytes(), c.checkpoint_stride, self.lyap_mode,
                c.averaged)

    def values(self) -> int:
        """About how many floats it holds while it steps in this process:
        schedules and state, and exactly the arrays of its `_Checkpoints`,
        the buffers of x, grad f(x), v and xbar as held, the reduced rows,
        and the per-checkpoint sums and tilts."""
        r, dim, points = self.effective, len(self.cfg.x0), len(self.grid)
        lyap, avg = self.lyap_mode is not None, self.cfg.averaged
        sums = len(_sum_keys(avg, lyap)[1])
        return (2 * self.cfg.horizon + 5 * r * dim
                + _chunk(points, r, dim) * r * (sums + (2 + lyap + avg) * dim)
                + points * (sums + 1 + lyap))


def _prepare(cfg: ExperimentConfig, like: Optional[_Experiment] = None) -> _Experiment:
    """Validate cfg and build what its experiment steps with.  Unless None,
    `like` is a prepared experiment that draws alike (see `_draw_groups`),
    whose problem and oracle, built from equal configs, serve as cfg's."""
    validate_replicas(cfg)
    if like is None:
        problem, schedule = validate_config(cfg)
        oracle = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    else:
        problem, schedule = validate_config(cfg, like.problem)
        oracle = like.oracle
    # Zero-noise oracles make every replica identical: one trajectory gives
    # the exact means, and with n = 1 `_mean_se` gives standard errors of
    # exactly 0.
    return _Experiment(cfg, problem, schedule, oracle,
                       resolve_lyapunov(cfg, problem, schedule),
                       1 if oracle.zero_noise else cfg.replicas)


def _plan(exps: list) -> tuple:
    """(ranges, ahead, pool) for experiments that draw alike (see
    `_draw_groups`): contiguous, block-aligned (first, count) replica
    ranges, each stepped in its own child if there are two or more; whether
    a single range draws its noise in a draw helper (see `_ahead`); and the
    number of workers in a pool that share the experiments, 1 for none.  A
    batch of two or more experiments runs as one range, in a pool of one
    worker per usable CPU and per experiment if its work (replicas x
    horizon x experiments) is at least `_POOL_MIN_WORK`, and in this
    process otherwise.  Only a lone experiment of at least two blocks and
    `_SPLIT_MIN_WORK` replica-steps splits, one range per usable CPU, if
    each range's unfolded sums (see `_steps`) hold at most `_CHUNK_VALUES`
    checkpoint-blocks per quantity; a least-squares one, whose problem has
    a `design`, never does: its sums evaluate through BLAS, whose rounding
    depends on the batch's row count (one row takes gemv, not gemm).  A
    lone range draws ahead from `_HELPER_MIN_WORK` replica-steps with a
    second usable CPU.  Only the caller plans (see `_stepped`): a child
    steps what it is given in this process."""
    exp = exps[0]
    r_count, work = exp.effective, exp.effective * exp.cfg.horizon * len(exps)
    cpus = _usable_cpus()
    if len(exps) > 1:
        return [(0, r_count)], False, (min(cpus, len(exps)) if work >= _POOL_MIN_WORK else 1)
    blocks = -(-r_count // _BLOCK_REPLICAS)
    parts = min(cpus, blocks)
    if (exp.problem.design is None and parts >= 2 and work >= _SPLIT_MIN_WORK
            and len(exp.grid) * -(-blocks // parts) <= _CHUNK_VALUES):
        bounds = [_BLOCK_REPLICAS * (blocks * p // parts) for p in range(parts)] + [r_count]
        return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])], False, 1
    return [(0, r_count)], work >= _HELPER_MIN_WORK and cpus >= 2, 1


def _stepped(exps: list) -> list:
    """(counts, sums, diverged) of each of exps, experiments that draw alike
    (see `_draw_groups`): a lone experiment or a batch of a sweep's cells,
    stepped as `_plan` lays them out, each block of noise drawn once for
    all.  Every child that steps is forked here, by the caller.  Worker w
    of a pool of W steps exps[w::W] over every replica, through the blocks
    that the workers draw together (`_Exchange.blocks`).  Only a lone
    experiment splits; its ranges each send back their unfolded block
    sums, which are folded onto zeros in block order: the same float
    additions in the same order as one range over every replica."""
    ranges, ahead, pool = _plan(exps)
    if pool > 1:
        exchange = _Exchange(exps[0], pool)
        shares = _in_processes([partial(_step_range, exps[w::pool], *ranges[0], True,
                                        partial(exchange.blocks, w)) for w in range(pool)])
        results = [None] * len(exps)
        for w, share in enumerate(shares):
            results[w::pool] = share
        return results
    whole = len(ranges) == 1
    source = _ahead if ahead else _here
    parts = _in_processes([partial(_step_range, exps, first, count, whole, source)
                           for first, count in ranges])
    if whole:
        return parts[0]
    ranged = [result for result, in parts]   # each range's one result
    sums = {key: np.zeros(block_sums.shape[:-1]) for key, block_sums in ranged[0][1].items()}
    for _, block_sums, _ in ranged:
        for key, total in sums.items():
            _fold(total, block_sums[key])
    return [(sum(r[0] for r in ranged), sums, [d for r in ranged for d in r[2]])]


def _step_range(exps: list, first: int, count: int, fold: bool = True, source=_here) -> list:
    """(counts, sums, diverged) of each of exps over replicas
    first..first+count-1 (see `_steps`), stepped through one draw of each
    block of exps[0]'s noise from source (see `_step_together`)."""
    lead = exps[0]
    steppers = [_steps(*e.engine_args(), count, None, first, fold) for e in exps]
    results = _step_together(lead.oracle, lead.cfg.seed, lead.cfg.horizon, first, count,
                             steppers, source)
    return [r[:3] for r in results]


class _Exchange:
    """What the workers of a pool share (see `_stepped`), made before they
    are forked: a slot that holds one block of the raw draws of exp, and of
    every experiment that draws alike, a barrier with one party per
    worker, and each worker's flag that its steppers are done."""

    def __init__(self, exp: _Experiment, workers: int):
        import multiprocessing

        self.slot = _shared_array(_block_shape(exp.oracle, exp.effective, exp.cfg.horizon),
                                  exp.oracle.raw_dtype)
        self.done = _shared_array((workers,), bool)
        self.barrier = multiprocessing.get_context("fork").Barrier(workers)

    def blocks(self, w: int, oracle, seed: int, horizon: int, first: int, count: int,
               books: list, done):
        """Worker w's source of the blocks of raw noise of replicas
        first..first+count-1 (see `_step_together`), which the W workers
        draw together into the slot: worker w draws the w-th of W
        contiguous parts of the replicas, from its own streams, into those
        columns (see `_draws`).  A block is yielded once every worker has
        drawn its part, and the slot is refilled once every worker has
        stepped through it, until the horizon or until done() held in
        every worker after the same block."""
        workers = len(self.done)
        lo, hi = count * w // workers, count * (w + 1) // workers
        gens = replica_streams(seed, hi - lo, first + lo)
        for drawn in _draws(oracle, gens, horizon, [self.slot[:, lo:hi]]):
            self.barrier.wait()   # every part drawn
            yield self.slot[:len(drawn)]
            self.done[w] = done()
            self.barrier.wait()   # every worker through the block
            if self.done.all():
                return


def run_experiment(cfg: ExperimentConfig, stepped=None) -> MonteCarloEstimate:
    """The estimates of cfg's experiment.  A sweep passes `stepped`, the
    cell's prepared experiment and its (counts, sums, diverged) from its
    batch (see `_stepped`), and only the tolerance check and aggregation
    run here."""
    if stepped is None:
        exp = _prepare(cfg)
        stepped = exp, _stepped([exp])[0]
    exp, (n, sums, diverged) = stepped
    cfg, grid, lyap_mode = exp.cfg, exp.grid, exp.lyap_mode
    diverged = sorted(diverged)
    diverged_count = len(diverged) if not exp.oracle.zero_noise else \
        len(diverged) * cfg.replicas
    if diverged_count > cfg.divergence_tolerance * cfg.replicas:
        first_iter = min(it for _, it in diverged)
        raise ExperimentError(
            f"{diverged_count} of {cfg.replicas} replicas diverged "
            f"(tolerance {cfg.divergence_tolerance:.0%}); first failure at "
            f"iteration {first_iter}")
    if np.any(n == 0):
        raise ExperimentError("no replica survived to some checkpoint")

    stats = {}   # mean_<name> and se_<name> of each quantity (see `_QUANTITIES`)
    for name in _sum_keys(cfg.averaged, lyap_mode is not None)[0]:
        stats["mean_" + name], stats["se_" + name] = _mean_se(sums[name],
                                                              sums.get("sq_" + name), n)
    stat_fields = lambda cls: {f.name: stats.get(f.name) for f in fields(cls)   # None if absent
                               if f.name.startswith(("mean_", "se_"))}

    lyap_series = None
    if lyap_mode is not None:
        alphas, mus, _ = checkpoint_coefficients(grid, exp.alphas, exp.mus)
        lyap_series = LyapunovSeries(checkpoints=grid.copy(), alphas=alphas, mus=mus,
                                     replicas=cfg.replicas, vanishing=lyap_mode[0] == "vanishing",
                                     **stat_fields(LyapunovSeries))
    return MonteCarloEstimate(checkpoints=grid, lyap=lyap_series, replicas=cfg.replicas,
                              diverged=diverged_count, diverged_iterations=tuple(diverged),
                              config=cfg, problem=exp.problem, schedule=exp.schedule,
                              **stat_fields(MonteCarloEstimate))


# ---------------------------------------------------------------------------
# Probes


def liminf_probe(est: MonteCarloEstimate) -> np.ndarray:
    """Running minimum of mean ||grad f||^2 across checkpoints."""
    if len(est.checkpoints) < 3:
        raise ExperimentError("liminf probe needs at least 3 checkpoints")
    return np.minimum.accumulate(est.mean_grad_sq)


@dataclass(frozen=True)
class AveragedBoundProbe:
    checkpoints: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    median_ratio: float
    burn_in_count: int

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 2.0 * self.median_ratio


_SUM_CHUNK = 1 << 18   # schedule values per step of _partial_sums_at


def _partial_sums_at(s: PowerSchedule, ks: np.ndarray):
    """sum_{j<=k} alpha_j and sum_{j<=k} alpha_j^2 at the sorted checkpoints ks.

    The sums run over fixed chunks of the schedule, each cumsum starting from
    the carry of the last: cumsum adds in order, so the result equals the
    whole-vector cumsum bitwise while memory stays O(chunk).
    """
    end = int(ks[-1]) + 1
    sum_a = np.zeros(len(ks))
    sum_q = np.zeros(len(ks))
    carry_a = carry_q = 0.0
    for lo in range(1, end, _SUM_CHUNK):
        hi = min(lo + _SUM_CHUNK, end)
        a = s.alpha(np.arange(lo, hi, dtype=float))
        q = a * a
        a[0] += carry_a
        q[0] += carry_q
        cum_a, cum_q = np.cumsum(a), np.cumsum(q)
        at = slice(*np.searchsorted(ks, [lo, hi]))
        sum_a[at] = cum_a[ks[at] - lo]
        sum_q[at] = cum_q[ks[at] - lo]
        carry_a, carry_q = cum_a[-1], cum_q[-1]
    return sum_a, sum_q


def averaged_bound_probe(est: MonteCarloEstimate,
                         burn_in_frac: float = 0.05) -> AveragedBoundProbe:
    """Scale-invariance check of the averaged-iterate gap.

    ratio_n = mean_avg_gap(n) * sum_{k<=n} alpha_k / (1 + sum_{k<=n} alpha_k^2)
    should stay bounded along checkpoints; the probe passes when its
    post-burn-in maximum is at most twice its post-burn-in median.
    """
    if est.mean_avg_gap is None:
        raise ExperimentError("averaged bound probe requires an averaged run")
    keep = est.checkpoints > 0
    ks = est.checkpoints[keep]
    sum_a, sum_q = _partial_sums_at(est.schedule, ks)
    ratios = est.mean_avg_gap[keep] * sum_a / (1.0 + sum_q)
    burn = int(np.ceil(burn_in_frac * len(ratios)))
    tail = ratios[burn:] if burn < len(ratios) else ratios
    return AveragedBoundProbe(
        checkpoints=ks,
        ratios=ratios,
        max_ratio=float(tail.max()),
        median_ratio=float(np.median(tail)),
        burn_in_count=burn,
    )


def nasgd_hypothesis(est: MonteCarloEstimate) -> dict:
    """Annotation for accelerated runs: the look-ahead factor limit
    beta_hat = limsup (1 - mu_k alpha_k) alpha_k / alpha_{k-1}, whether
    L * beta_hat < inf_k mu_k holds, and whether convexity covers for it."""
    problem, s = est.problem, est.schedule
    limit_mu_alpha = s.coeff_mu * s.coeff_alpha if (s.exp_alpha + s.exp_mu) == 0 else 0.0
    beta_hat = 1.0 - limit_mu_alpha
    mu_lower = s.coeff_mu if s.exp_mu == 0 else 0.0
    l_beta = problem.smoothness_l * beta_hat
    convex = problem.convexity in (Convexity.CONVEX, Convexity.STRONGLY_CONVEX)
    return {
        "beta_hat": beta_hat,
        "l_times_beta_hat": l_beta,
        "mu_lower": mu_lower,
        "l_beta_lt_mu": bool(l_beta < mu_lower),
        "convex": convex,
        "hypothesis_ok": bool(l_beta < mu_lower or convex),
    }


# ---------------------------------------------------------------------------
# Serialization


def _columns_csv(header: list, checkpoints, *columns) -> str:
    """CSV text of the header and one row per checkpoint: the checkpoint as
    an int, then each column's value as the repr of a float."""
    cells = [map(str, np.asarray(checkpoints, dtype=np.int64).tolist())]
    cells += [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


# The mean and SE columns of estimates.csv and summary.json's "final" entry.
_ESTIMATE_COLUMNS = [f"{stat}_{name}" for name in _sum_keys(True, False)[0]
                     for stat in ("mean", "se")]


def estimates_csv(est: MonteCarloEstimate) -> str:
    cols = [col for col in _ESTIMATE_COLUMNS if getattr(est, col) is not None]
    return _columns_csv(["checkpoint"] + cols, est.checkpoints,
                        *(getattr(est, col) for col in cols))


def lyapunov_csv(est: MonteCarloEstimate) -> str:
    if est.lyap is None:
        raise ExperimentError("no energy series recorded")
    ser = est.lyap
    return _columns_csv(["k", "alpha", "mu", "mean_Ht", "mean_Hbar", "se_delta_Ht"],
                        ser.checkpoints, ser.alphas, ser.mus, ser.mean_ht, ser.mean_hbar,
                        ser.se_delta_ht)


def default_burn_in(horizon: int) -> int:
    """First 5% of iterations."""
    return int(horizon) // 20


def summary_dict(est: MonteCarloEstimate) -> dict:
    cfg = est.config
    final = {"checkpoint": int(est.checkpoints[-1])}
    final.update((col, float(getattr(est, col)[-1])) for col in _ESTIMATE_COLUMNS
                 if getattr(est, col) is not None)
    out = {
        "method": cfg.method,
        "horizon": cfg.horizon,
        "replicas": cfg.replicas,
        "seed": cfg.seed,
        "diverged": est.diverged,
        "divergence_tolerance": cfg.divergence_tolerance,
        "final": final,
        "running_min_grad_sq": float(liminf_probe(est)[-1]),
    }
    if est.mean_avg_gap is not None:
        probe = averaged_bound_probe(est)
        out["averaged_bound_probe"] = {
            "max_ratio": probe.max_ratio,
            "median_ratio": probe.median_ratio,
            "passed": probe.passed,
        }
    if est.lyap is not None:
        out["descent_fit"] = asdict(descent_fit(est.lyap, default_burn_in(cfg.horizon)))
    if cfg.method == "nasgd":
        out["nasgd_hypothesis"] = nasgd_hypothesis(est)
    return out


@dataclass(frozen=True)
class SweepRow:
    method: str
    alpha_a: float
    mu_b: float
    status: str
    mean_grad_sq: float | None = None
    se_grad_sq: float | None = None
    mean_gap: float | None = None
    se_gap: float | None = None
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    rows: tuple


_CELL_ERRORS = (ExperimentError, DivergenceError, ParameterError, ConfigError)
# The mean and SE columns of sweep.csv, among `SweepRow`'s fields.
_SWEEP_COLUMNS = [f"{stat}_{name}" for name in _sum_keys(False, False)[0]
                  for stat in ("mean", "se")]


def _sweep_row(cfg: ExperimentConfig, est=None, error=None) -> SweepRow:
    """A cell's row from its estimate, or from the error that failed it."""
    cell = dict(method=cfg.method, alpha_a=float(cfg.schedule.get("alpha_a", 0.0)),
                mu_b=float(cfg.schedule.get("mu_b", 0.0)))
    if error is not None:
        return SweepRow(**cell, status="failed", error=str(error))
    return SweepRow(**cell, status="ok",
                    **{col: float(getattr(est, col)[-1]) for col in _SWEEP_COLUMNS})


def _draw_groups(configs: list) -> list:
    """Indices of configs grouped by the noise their replicas draw, in order
    of first appearance.  Replica i of every cell draws from stream (seed,
    i), so cells with the same seed, replica count, horizon, problem and
    oracle draw the same blocks."""
    keys, groups = [], []
    for i, c in enumerate(configs):
        key = (c.seed, c.replicas, c.horizon, c.problem, c.oracle)
        for k, group in zip(keys, groups):
            try:
                if k == key:
                    group.append(i)
                    break
            except ValueError:   # numpy arrays in a config dict: cells draw apart
                pass
        else:
            keys.append(key)
            groups.append([i])
    return groups


def _batches(cells: list, workers: int):
    """Consecutive batches of cells, each cell a list of (index, prepared
    experiment) members that step alike (see `sweep`), in which each of
    workers' shares, batch[w::workers], holds at most `_GROUP_VALUES`
    floats as it steps, or one cell."""
    batch, held = [], [0] * workers
    for cell in cells:
        values, w = cell[0][1].values(), len(batch) % workers
        if held[w] and held[w] + values > _GROUP_VALUES:
            yield batch
            batch, held, w = [], [0] * workers, 0
        batch.append(cell)
        held[w] += values
    if batch:
        yield batch


def _rows(cells: list, results: list) -> list:
    """(index, row) of every member of each of cells (see `_batches`),
    from the (counts, sums, diverged) that its members share."""
    rows = []
    for members, result in zip(cells, results):
        for i, exp in members:
            try:
                rows.append((i, _sweep_row(exp.cfg, run_experiment(exp.cfg, (exp, result)))))
            except _CELL_ERRORS as e:
                rows.append((i, _sweep_row(exp.cfg, error=e)))
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on: the most processes that step an
    experiment's replicas or a batch of cells."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def sweep(configs: list[ExperimentConfig]) -> SweepResult:
    """Run a grid of configs; per-cell failures are recorded, not raised.

    This process validates and prepares the cells, one draw group at a
    time.  Cells that draw alike (see `_draw_groups`; all cells of
    `sweep_grid` do) share one problem and oracle, and those of a group
    that `_steps` would step alike (see `_Experiment.steps_key`) are one
    cell, stepped once; each of them is still aggregated by
    `run_experiment` with its own config, here, so each keeps its own
    tolerance check and row.  A group steps in batches (`_batches`), each
    sized for up to one worker per usable CPU and per cell, and each batch
    is stepped by `_stepped` as `_plan` lays it out: like an experiment,
    a batch of one cell may split its replicas or draw ahead, and a batch
    of more, once its work pays for it, runs in a pool whose workers draw
    each block together.  So each block of a group's noise is drawn once
    per batch, and a sweep of several draw groups, which only the Python
    API builds, runs group after group.  Rows keep the grid's order, and a
    cell's arithmetic is the same in a batch or alone, so the result does
    not depend on the number of workers.  A worker that dies raises
    ExperimentError.
    """
    rows = [None] * len(configs)
    for group in _draw_groups(configs):
        like, cells = None, {}
        for i in group:
            try:
                exp = _prepare(configs[i], like)
            except _CELL_ERRORS as e:
                rows[i] = _sweep_row(configs[i], error=e)
                continue
            like = like or exp
            cells.setdefault(exp.steps_key(), []).append((i, exp))
        cells = list(cells.values())
        for batch in _batches(cells, min(_usable_cpus(), len(cells))):
            for i, row in _rows(batch, _stepped([members[0][1] for members in batch])):
                rows[i] = row
    return SweepResult(rows=tuple(rows))


def sweep_csv(result: SweepResult) -> str:
    lines = [",".join(["method", "alpha_a", "mu_b", "status", *_SWEEP_COLUMNS, "error"])]
    for r in result.rows:
        fmt = lambda v: "" if v is None else repr(v)
        lines.append(",".join([
            r.method, repr(r.alpha_a), repr(r.mu_b), r.status,
            *(fmt(getattr(r, col)) for col in _SWEEP_COLUMNS),
            '"%s"' % r.error.replace('"', "'") if r.error else "",
        ]))
    return "\n".join(lines) + "\n"
