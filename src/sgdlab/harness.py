"""Monte Carlo experiments over independent replicas.

`run_experiment` simulates `replicas` independent trajectories of one
configuration and aggregates per-checkpoint estimates.  Replica i draws its
noise from the counter-based stream keyed by (master_seed, i).
`optimizers.run` is this engine at one replica, so replica 0 of an
experiment and a single run with the same seed are one computation.

Execution model: the engine advances a range of replicas in lock-step as
a single (replicas, dim) state; one process runs every replica, or each
usable CPU runs one range, and a long one-range run has its noise drawn
in a helper process (see Processes below).  It is a stepper
(`_steps`) that steps through one block of raw draws at a time, as
`_step_together` hands them to it, and keeps its state, alive mask,
checkpoint buffers and sums between blocks.  Each
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
(chunk, replicas, dim) slot of `_Checkpoints`, with chunk x replicas <=
16384 (fewer for states of more than 2 coordinates).  Reducing a chunk
evaluates f(x), and f(xbar), in one call each on the whole chunk, then one
set of numpy calls reduces it: gradient and velocity norms, the cross
term, the energies and their increments (the last tilted energy carries
into the next chunk), their squares and the block sums.  A chunk is
reduced when it is full, before a divergence changes the alive mask (so
one mask holds for every checkpoint of a chunk), and at the end of the
run.  None of this checkpoint work but the gradient feeds a later step.
Sums run over fixed consecutive blocks of `_BLOCK_REPLICAS`
replicas: each block's sum is numpy's pairwise sum of its alive replicas
in replica order, and the block sums are folded in block order, so the
reductions depend neither on the replica array's width nor on the chunk
length.

Processes: every process the engine starts is a child forked by `_fork`
in `_children`, which stops and reaps it however the caller exits, and a
child forks no further.  `_in_processes` runs a list of jobs, each in its
own child if there are two or more, and collects their results in order.
`_plan` decides how experiments use the CPUs.  One of at least two blocks
and enough work runs one contiguous, block-aligned range of replicas per
usable CPU in a child; a replica's stream depends only on its index, and
the caller folds the children's block sums in block order, so the sums
are the same float additions in the same order as in one process.  A lone
experiment that runs as one range (a least-squares one always does), with
a second usable CPU and at least `_HELPER_MIN_WORK` replica-steps, forks a
draw helper (see `_step_together`).  The draws depend on no state, and a
Philox stream gives the same bits in any process, so the helper owns the
replica streams and draws each block of noise into one of two shared
slots while the caller steps through the other, and reduces its own
checkpoints.  The cells of a sweep share their noise on purpose (common
random numbers): cells that draw alike step together as one range, a
memory-bounded batch at a time, and each batch draws each block of noise
once.  Once its total work pays for them, a sweep runs an interleaved
share of every group per usable CPU, each in a child (see `sweep`).  A
child that dies raises ExperimentError, and a child whose caller dies
fails its next send or receive and exits.

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
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional

import numpy as np

from .config import ExperimentConfig, build_oracle, validate_config, validate_replicas
from .errors import ConfigError, DivergenceError, ExperimentError, ParameterError
from .lyapunov import LyapunovSeries, descent_fit, select_lambda, select_zeta
from .optimizers import (KERNELS, all_within_radius, averaged_update, checkpoint_grid,
                         init_average, within_radius)
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
# A sweep of less work than this (replicas x horizon summed over its cells)
# runs in-process: below it, starting workers (about 25 ms on a 2-vCPU host
# to import multiprocessing, fork two and join them) can cost more than two
# workers save on small least-squares cells, which run about 0.6 M
# replica-steps/s.
_POOL_MIN_WORK = 100_000
# A sweep steps the cells of a draw group together in batches whose
# experiments hold at most this many floats (8 MB), each batch drawing the
# group's noise once.
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
# in-process.  In a fresh process the draw helper costs about 25-30 ms to
# import multiprocessing, fork and wait for its first block; the caller
# then no longer draws.  Timed as fresh msgd_damped `sgdlab experiment`
# (stride 0) and `sgdlab lyapunov` (stride 1) calls at 200 and 1024
# replicas on a 2-vCPU host, BLAS on one thread, the helper against the
# same call without it on both CPUs (medians of 8 alternated pairs): at
# 0.5 M 6-14% slower (0-2 pairs won) but 8% faster at 200 replicas and
# stride 1 (4 won); at 1 M 4-6% faster (6-8 won) but 7% slower at 1024
# replicas and stride 0 (3 won); at 1.9 M 4-23% faster (6-8 won).  Against
# `taskset -c 0`, which also moves the run onto one particular CPU, the
# same calls read from 6% faster to 15% slower at 0.25-0.5 M, from 5%
# faster to 30% slower at 1 M, and 5-19% faster at 1.9 M but 15% slower at
# 1024 replicas and stride 0.
_HELPER_MIN_WORK = 1_000_000
# Set in a forked child (see `_fork`), which forks no further: the other
# CPUs already run its siblings or its caller.
_forked = False


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


def _refill(buf, stage, oracle, gens, nb: int) -> None:
    """Draw the next nb iterations of every replica's raw noise into
    buf[:nb], where buf is shaped (iterations, replicas, ...), one block of
    replicas at a time: each replica's stream fills its C-contiguous rows
    of stage, shaped (block, iterations, ...), in place, and one copy moves
    them into the block's columns of buf.  Both are viewed as arrays of one
    np.void item per draw, so the copy moves whole draws in one loop."""
    draws, staged = _draw_items(buf), _draw_items(stage)
    for lo in range(0, len(gens), len(stage)):
        block = gens[lo:lo + len(stage)]
        for rows, g in zip(stage, block):
            oracle.raw_block(g, nb, out=rows[:nb])
        np.copyto(draws[:nb, lo:lo + len(block)], staged[:len(block), :nb].T)


def _draws(oracle, gens, horizon: int, slots: list, wait=None):
    """Yield each successive block of every replica's raw noise, replica
    i's from gens[i], as drawn by `_refill` into the (iterations, replicas,
    ...) slots in turn.  A slot is refilled once the block it holds has been
    stepped through: with one slot, when the next block is asked for; with
    more, once wait() returns."""
    nb_max = len(slots[0])
    stage = np.empty((min(len(gens), _BLOCK_REPLICAS), nb_max) + slots[0].shape[2:],
                     dtype=slots[0].dtype)
    for i, lo in enumerate(range(0, horizon, nb_max)):
        if wait is not None and i >= len(slots):
            wait()
        buf, nb = slots[i % len(slots)], min(nb_max, horizon - lo)
        _refill(buf, stage, oracle, gens, nb)
        yield buf[:nb]


def _draw_items(a: np.ndarray) -> np.ndarray:
    """The C-contiguous (m, n, *raw_shape) array a as an (m, n) array of
    one np.void item per draw."""
    item = np.dtype((np.void, a.itemsize * int(np.prod(a.shape[2:]))))
    return a.reshape(a.shape[:2] + (-1,)).view(item)[..., 0]


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
    copies a checkpoint's state into `buffers`, which hold up to `chunk`
    checkpoints of x, grad f(x), v (None without energies) and xbar (None
    unless averaged), and `reduce` evaluates f on the buffered checkpoints
    and reduces them into `totals` and `counts` with one set of numpy
    calls."""

    def __init__(self, problem, grid, mus, lyap_mode, averaged: bool, f_star: float,
                 r_count: int, dim: int, fold: bool):
        squared = ["grad_sq", "gap"] + (["avg_gap"] if averaged else []) \
            + (["delta_ht"] if lyap_mode is not None else [])
        names = squared + (["ht", "hbar"] if lyap_mode is not None else [])
        self.keys = names + ["sq_" + name for name in squared]
        self.n_q, self.n_sq = len(names), len(squared)
        blocks = -(-r_count // _BLOCK_REPLICAS)
        self.totals = np.zeros((len(grid), len(self.keys)) + (() if fold else (blocks,)))
        self.counts = np.zeros(len(grid), dtype=np.int64)
        self.problem, self.grid, self.mus = problem, grid, mus
        self.lyap_mode, self.f_star, self.fold = lyap_mode, f_star, fold
        self.chunk = _chunk(len(grid), r_count, dim)
        rows = (self.chunk, r_count, dim)
        self.buffers = [np.zeros(rows), np.zeros(rows),
                        np.zeros(rows) if lyap_mode is not None else None,
                        np.zeros(rows) if averaged else None]
        self.vals = np.empty((self.chunk, len(self.keys), r_count))   # quantities, squares
        self.ht_prev = None

    def record(self, j: int, x, gr, v, xbar) -> None:
        """Copy checkpoint j of the buffers: x, grad f(x) = gr, v and xbar."""
        xs, gs, vs, bs = self.buffers
        xs[j] = x
        gs[j] = gr
        if vs is not None:
            vs[j] = v
        if bs is not None:
            bs[j] = xbar

    def reduce(self, first: int, c: int, alive) -> None:
        """Reduce the first c buffered checkpoints, checkpoints
        first..first+c-1, which were all recorded under the alive mask
        `alive`.  f(x), and f(xbar) when averaged, are each one `value`
        call on the (c, replicas, dim) rows, which gives every checkpoint's
        row the bits a call on its (replicas, dim) state gives (see
        `problems`)."""
        xs, gs, vs, bs = self.buffers
        gr = gs[:c]
        f_star, n_q, n_sq = self.f_star, self.n_q, self.n_sq
        gsq = row_dot(gr, gr)
        gap = self.problem.value(xs[:c]) - f_star
        rows = [gsq, gap]
        if bs is not None:
            rows.append(self.problem.value(bs[:c]) - f_star)
        if self.lyap_mode is not None:
            mode, coeff = self.lyap_mode
            vc = vs[:c]
            vsq = row_dot(vc, vc)
            zt = row_dot(vc, gr)
            h = gap + 0.5 * vsq
            hbar = gsq + vsq
            tilt = coeff
            if mode == "vanishing":
                # k = 0 records mu = 0, so the vanishing tilt starts at plain H.
                ks = self.grid[first:first + c]
                tilt = (coeff * np.where(ks >= 1, self.mus[ks - 1], 0.0))[:, None]
            ht = h + tilt * zt
            dht = np.empty_like(ht)
            dht[0] = 0.0 if self.ht_prev is None else ht[0] - self.ht_prev
            np.subtract(ht[1:], ht[:-1], out=dht[1:])
            rows += [dht, ht, hbar]
            self.ht_prev = ht[-1]
        out = self.vals[:c]
        np.stack(rows, axis=1, out=out[:, :n_q])
        # Squared from rows: columns of out squared into out would be
        # checked for overlap and copied first.
        for i, row in enumerate(rows[:n_sq]):
            np.multiply(row, row, out=out[:, n_q + i])
        sums = _block_sums(out, alive, _frozen_blocks(alive))
        if self.fold:
            _fold(self.totals[first:first + c], sums)
        else:
            self.totals[first:first + c] = sums
        self.counts[first:first + c] = np.count_nonzero(alive)


def _shared_array(shape: tuple, dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared map, which forked processes
    share."""
    import mmap

    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype,
                         count).reshape(shape)


def _fork(target, args: tuple, duplex: bool = False, inherited: list = ()):
    """Start a forked daemon child that runs target(conn, *args), and return
    it with this process's end of a new pipe whose other end is conn (with
    duplex False, the child only sends).  The child first closes this
    process's end and `inherited`, ends of other pipes this process reads,
    so that once this process dies the child's sends and receives fail and
    it exits, rather than wait on a pipe that it holds open itself."""
    # Imported here so that runs in one process never load it.  Fork rather
    # than spawn: the child inherits the problem and oracle, whose closures
    # do not pickle, and every module this process has loaded.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe(duplex)
    child = ctx.Process(target=_child, args=(theirs, [ours, *inherited], target, args),
                        daemon=True)
    child.start()
    theirs.close()
    return child, ours


def _child(conn, inherited: list, target, args: tuple) -> None:
    """A forked child's start (see `_fork`); it marks itself forked."""
    global _forked
    _forked = True
    for end in inherited:
        end.close()
    target(conn, *args)


class _Died(Exception):
    """The pipe of a forked child, args[0], broke: it died."""


@contextmanager
def _children(target, arg_lists: list, duplex: bool = False):
    """Fork a child that runs target(conn, *args) for each args of
    arg_lists (see `_fork`), and yield the (child, conn) pairs.  An
    interrupt is held while a child is forked and listed, lest it leave a
    child that nothing stops.  However the block exits, every child still
    running is terminated and each is reaped; one that died (see
    `_received`) then raises ExperimentError."""
    children, dead = [], None
    try:
        for args in arg_lists:
            with _interrupt_held():
                children.append(_fork(target, args, duplex, [c for _, c in children]))
        yield children
    except _Died as died:
        dead = died.args[0]
    finally:
        for child, _ in children:
            child.terminate()   # a no-op for a child that has exited
        for child, conn in children:
            child.join()
            conn.close()
    if dead is not None:
        raise ExperimentError(f"a worker process died: exit code {dead.exitcode}")


def _received(child, conn, reply: bool = False):
    """The next message from child on conn, after sending it None if reply;
    raises `_Died` if the pipe broke."""
    try:
        if reply:
            conn.send(None)
        return conn.recv()
    except (EOFError, OSError):
        raise _Died(child) from None


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
    `_children`) and sends its result back."""
    if len(jobs) < 2:
        return [job() for job in jobs]
    with _children(_send_result, [(job,) for job in jobs]) as children:
        return [_received(child, conn) for child, conn in children]


def _send_result(conn, job) -> None:
    conn.send(job())


def _steps(problem, oracle, method: str, beta, alphas, mus, x0, grid, lyap_mode,
           averaged: bool, f_star: float, r_count: int, on_point, first: int = 0,
           fold: bool = True):
    """Stepper of replicas first..first+r_count-1, which advance in
    lock-step; `first` is a multiple of `_BLOCK_REPLICAS`.

    A generator: `next` records checkpoint 0 if the grid holds it, then
    each `send` hands it an (iterations, replicas, ...) block of raw draws
    and it steps through the block's iterations, each a C-contiguous
    (replicas, ...) slice, until the horizon or until
    none of its replicas is alive.  It then returns (as StopIteration's
    value) (counts, sums, diverged, final): alive replicas per checkpoint; a
    dict of per-checkpoint sums over alive replicas keyed by quantity (sums
    of squares under "sq_" + name), each with the block sums folded in
    block order or, unless fold, shaped (checkpoints, blocks); the
    (replica, iteration) divergences; and the last (x, v, x_prev, running
    average or None).  Unless None, on_point(k, x, v, xbar, grad) sees
    every checkpoint's (replicas, ...) state, xbar (None unless averaged)
    and grad f(x).  The stepper buffers its checkpoints in `_Checkpoints`
    and reduces them there, in this process.  It only reads the blocks it
    is handed.
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
    checkpoints = _Checkpoints(problem, grid, mus, lyap_mode, averaged, f_star, r_count,
                               x.shape[1], fold)
    grad_cache = None
    ci = flushed = 0   # checkpoints recorded, and reduced

    def record():
        """Buffer checkpoint ci's state; return grad f(x)."""
        nonlocal ci
        gr = problem.gradient(x)
        xbar = (x if avg.weight_sum == 0.0 else avg.xbar) if averaged else None
        checkpoints.record(ci - flushed, x, gr, v, xbar)
        if on_point is not None:
            on_point(int(grid[ci]), x, v, xbar, gr)
        ci += 1
        if ci - flushed == checkpoints.chunk:
            flush()
        return gr

    def flush():
        """Reduce the buffered checkpoints; all were recorded under the
        current alive mask."""
        nonlocal flushed
        if ci > flushed:
            checkpoints.reduce(flushed, ci - flushed, alive)
            flushed = ci

    def grad_at(point):
        """Stochastic gradients at point from this iteration's draws; grad f
        at the current state is reused from its checkpoint when recorded."""
        return oracle.stoch_grad(point, raw_t, grad=grad_cache if point is x else None)

    if grid[ci] == 0:
        grad_cache = record()

    k = 0
    while k < horizon and n_alive:
        for raw_t in (yield):
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
                flush()   # the buffered checkpoints keep the old alive mask
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
    flush()
    sums = dict(zip(checkpoints.keys, np.moveaxis(checkpoints.totals, 1, 0)))
    return checkpoints.counts, sums, diverged, (x, v, x_prev, avg)


def _step_together(oracle, gens: list, horizon: int, steppers: list,
                   ahead: bool = False) -> list:
    """Drive steppers (see `_steps`) of len(gens) replicas each over the
    same horizon through one draw of each block of raw noise (see
    `_draws`), replica i's from gens[i]: each block goes to every stepper
    still running, until the last one is done.  Returns their results in
    order.

    With ahead, a forked draw helper (`_draw_ahead`) owns the streams and
    draws every block into two shared slots in turn, one block ahead: while
    the steppers step through one slot it fills the other, and sends each
    block's length once drawn.  This process tells it that a slot is free
    only when a later block still needs that slot.  The helper is a child
    of `_children`, stopped once the steppers are done or on an error.

    While the helper runs, it has one of this process's CPUs and the caller
    the others.  Left to the scheduler, the two were seen to share one CPU
    for whole benchmark runs, taking turns, while the other CPU idled."""
    for stepper in steppers:
        next(stepper)
    results = [None] * len(steppers)
    running = list(range(len(steppers)))
    # Deep enough for _RAW_BLOCK iterations of _BLOCK_REPLICAS replicas.
    nb_max = max(1, min(_RAW_BLOCK, _BLOCK_REPLICAS * _RAW_BLOCK // len(gens), horizon))
    shape = (nb_max, len(gens)) + oracle.raw_shape
    helpers = []
    if ahead:
        slots = list(_shared_array((2,) + shape, oracle.raw_dtype))
        cpus = os.sched_getaffinity(0)
        helpers = [(max(cpus), oracle, gens, horizon, slots)]
    try:
        with _children(_draw_ahead, helpers, duplex=True) as children:
            if ahead:
                os.sched_setaffinity(0, cpus - {max(cpus)})
                blocks = _drawn_ahead(*children[0], slots, -(-horizon // nb_max))
            else:
                blocks = _draws(oracle, gens, horizon,
                                [np.empty(shape, dtype=oracle.raw_dtype)])
            with np.errstate(over="ignore", invalid="ignore"):
                for block in blocks:
                    for i in list(running):
                        try:
                            steppers[i].send(block)
                        except StopIteration as done:
                            results[i] = done.value
                            running.remove(i)
                    if not running:
                        break
    finally:
        for stepper in steppers:   # a no-op for those done
            stepper.close()
        if ahead:
            os.sched_setaffinity(0, cpus)
    return results


def _drawn_ahead(helper, conn, slots: list, count: int):
    """Yield the count blocks that the draw helper sends (see
    `_step_together`), each once drawn; asking for the next block frees the
    slot of the last, if a later block needs it."""
    for i in range(count):
        yield slots[i % 2][:_received(helper, conn, reply=0 < i < count - 1)]


def _draw_ahead(conn, cpu: int, oracle, gens: list, horizon: int, slots: list) -> None:
    """The draw helper's loop (see `_step_together`), on CPU `cpu`: draw the
    blocks into the two slots in turn and send each block's length,
    refilling a slot only once the caller has freed it; exit after the last
    block, or once the caller has died."""
    os.sched_setaffinity(0, {cpu})
    try:
        for block in _draws(oracle, gens, horizon, slots, conn.recv):
            conn.send(len(block))
    except (EOFError, OSError):   # the caller died
        pass


def _simulate(problem, oracle, method: str, beta, alphas, mus, x0, grid, lyap_mode,
              averaged: bool, f_star: float, master_seed: int, r_count: int, on_point):
    """The result of `_steps` for replicas 0..r_count-1, each drawing from
    its own stream under master_seed, in this process."""
    stepper = _steps(problem, oracle, method, beta, alphas, mus, x0, grid, lyap_mode,
                     averaged, f_star, r_count, on_point)
    return _step_together(oracle, replica_streams(master_seed, r_count), len(alphas),
                          [stepper])[0]


def _mean_se(s, q, n):
    n = n.astype(float)
    mean = s / n
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(n > 1, np.maximum(q - s * s / n, 0.0) / np.maximum(n - 1, 1), 0.0)
        se = np.sqrt(var / n)
    return mean, se


@dataclass
class _Experiment:
    """A validated experiment, built and ready to step."""
    cfg: ExperimentConfig
    problem: Problem
    schedule: PowerSchedule
    oracle: GradientOracle
    lyap_mode: Optional[tuple]
    grid: np.ndarray
    alphas: np.ndarray
    mus: np.ndarray
    effective: int   # replicas simulated

    def engine_args(self) -> tuple:
        """The leading arguments of `_steps` and `_simulate`, up to the
        replica count of `_steps` and the seed of `_simulate`."""
        c = self.cfg
        return (self.problem, self.oracle, c.method, c.beta, self.alphas, self.mus, c.x0,
                self.grid, self.lyap_mode, c.averaged, self.problem.minimum.f_star)

    def values(self) -> int:
        """About how many floats it holds while it steps in this process:
        schedules and state, and exactly the arrays of its `_Checkpoints`,
        the buffers of x, grad f(x), v and xbar as held, the reduced rows
        and the per-checkpoint sums."""
        r, dim, points = self.effective, len(self.cfg.x0), len(self.grid)
        lyap, avg = self.lyap_mode is not None, self.cfg.averaged
        sums = 4 + 2 * avg + 4 * lyap
        return (2 * len(self.alphas) + 5 * r * dim
                + _chunk(points, r, dim) * r * (sums + (2 + lyap + avg) * dim)
                + points * (sums + 1))


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
                       checkpoint_grid(cfg.horizon, cfg.checkpoint_stride),
                       schedule.alphas(cfg.horizon), schedule.mus(cfg.horizon),
                       1 if oracle.zero_noise else cfg.replicas)


def _plan(exps: list) -> tuple:
    """(ranges, ahead) for experiments that draw alike (see `_draw_groups`):
    contiguous, block-aligned (first, count) replica ranges, one per usable
    CPU and each stepped in its own child, and whether a single range draws
    its noise in a draw helper (see `_step_together`).  Only a lone
    experiment of at least two blocks and `_SPLIT_MIN_WORK` replica-steps
    splits, if each range's unfolded sums (see `_steps`) hold at most
    `_CHUNK_VALUES` checkpoint-blocks per quantity; a least-squares one,
    whose problem has a `design`, never does: its sums evaluate through
    BLAS, whose rounding depends on the batch's row count (one row takes
    gemv, not gemm).  A lone range draws ahead from `_HELPER_MIN_WORK`
    replica-steps with a second usable CPU that the platform lets it pin
    the helper to.  A forked child does neither."""
    exp = exps[0]
    r_count, work = exp.effective, exp.effective * exp.cfg.horizon
    whole = [(0, r_count)]
    if _forked:
        return whole, False
    cpus = _usable_cpus()
    blocks = -(-r_count // _BLOCK_REPLICAS)
    parts = min(cpus, blocks)
    if (len(exps) == 1 and exp.problem.design is None and parts >= 2
            and work >= _SPLIT_MIN_WORK
            and len(exp.grid) * -(-blocks // parts) <= _CHUNK_VALUES):
        bounds = [_BLOCK_REPLICAS * (blocks * p // parts) for p in range(parts)] + [r_count]
        return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])], False
    return whole, (len(exps) == 1 and work >= _HELPER_MIN_WORK and cpus >= 2
                   and hasattr(os, "sched_setaffinity"))


def _stepped(exps: list) -> list:
    """(counts, sums, diverged) of each of exps, experiments that draw alike
    (see `_draw_groups`), stepped together over the replica ranges of
    `_plan`, each block of noise drawn once for all.  Split ranges each send
    back their unfolded block sums, which are folded onto zeros in block
    order: the same float additions in the same order as one range over
    every replica."""
    ranges, ahead = _plan(exps)
    whole = len(ranges) == 1
    parts = _in_processes([partial(_step_range, exps, first, count, whole, ahead)
                           for first, count in ranges])
    if whole:
        return parts[0]
    results = []
    for ranged in zip(*parts):
        sums = {key: np.zeros(block_sums.shape[:-1])
                for key, block_sums in ranged[0][1].items()}
        for _, block_sums, _ in ranged:
            for key, total in sums.items():
                _fold(total, block_sums[key])
        results.append((sum(r[0] for r in ranged), sums, [d for r in ranged for d in r[2]]))
    return results


def _step_range(exps: list, first: int, count: int, fold: bool, ahead: bool) -> list:
    """(counts, sums, diverged) of each of exps over replicas
    first..first+count-1 (see `_steps`), stepped through one draw of each
    block, in a draw helper with ahead (see `_step_together`)."""
    steppers = [_steps(*e.engine_args(), count, None, first, fold) for e in exps]
    lead = exps[0]
    results = _step_together(lead.oracle, replica_streams(lead.cfg.seed, count, first),
                             lead.cfg.horizon, steppers, ahead)
    return [r[:3] for r in results]


def run_experiment(cfg: ExperimentConfig, stepped=None) -> MonteCarloEstimate:
    """The estimates of cfg's experiment.  A sweep passes `stepped`, the
    cell's prepared experiment and its (counts, sums, diverged) from its
    batch (see `_stepped`), and only the tolerance check and aggregation
    run here."""
    if stepped is None:
        exp = _prepare(cfg)
        stepped = exp, _stepped([exp])[0]
    exp, (n, sums, diverged) = stepped
    cfg, grid, lyap_mode, schedule = exp.cfg, exp.grid, exp.lyap_mode, exp.schedule
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

    mean_gsq, se_gsq = _mean_se(sums["grad_sq"], sums["sq_grad_sq"], n)
    mean_gap, se_gap = _mean_se(sums["gap"], sums["sq_gap"], n)
    mean_avg = se_avg = None
    if cfg.averaged:
        mean_avg, se_avg = _mean_se(sums["avg_gap"], sums["sq_avg_gap"], n)

    lyap_series = None
    if lyap_mode is not None:
        alpha_at = np.where(grid > 0, schedule.alpha(np.maximum(grid, 1)), 0.0)
        mu_at = np.where(grid > 0, schedule.mu(np.maximum(grid, 1)), 0.0)
        lyap_series = LyapunovSeries(
            checkpoints=grid.copy(),
            alphas=alpha_at,
            mus=mu_at,
            mean_ht=sums["ht"] / n,
            mean_hbar=sums["hbar"] / n,
            se_delta_ht=_mean_se(sums["delta_ht"], sums["sq_delta_ht"], n)[1],
            replicas=cfg.replicas,
            vanishing=lyap_mode[0] == "vanishing",
        )

    return MonteCarloEstimate(
        checkpoints=grid,
        mean_grad_sq=mean_gsq,
        se_grad_sq=se_gsq,
        mean_gap=mean_gap,
        se_gap=se_gap,
        mean_avg_gap=mean_avg,
        se_avg_gap=se_avg,
        lyap=lyap_series,
        replicas=cfg.replicas,
        diverged=diverged_count,
        diverged_iterations=tuple(diverged),
        config=cfg,
        problem=exp.problem,
        schedule=schedule,
    )


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


def estimates_csv(est: MonteCarloEstimate) -> str:
    cols = ["checkpoint", "mean_grad_sq", "se_grad_sq", "mean_gap", "se_gap"]
    values = [est.mean_grad_sq, est.se_grad_sq, est.mean_gap, est.se_gap]
    if est.mean_avg_gap is not None:
        cols += ["mean_avg_gap", "se_avg_gap"]
        values += [est.mean_avg_gap, est.se_avg_gap]
    return _columns_csv(cols, est.checkpoints, *values)


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
    i = len(est.checkpoints) - 1
    final = {
        "checkpoint": int(est.checkpoints[i]),
        "mean_grad_sq": float(est.mean_grad_sq[i]),
        "se_grad_sq": float(est.se_grad_sq[i]),
        "mean_gap": float(est.mean_gap[i]),
        "se_gap": float(est.se_gap[i]),
    }
    if est.mean_avg_gap is not None:
        final["mean_avg_gap"] = float(est.mean_avg_gap[i])
        final["se_avg_gap"] = float(est.se_avg_gap[i])
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


def _sweep_row(cfg: ExperimentConfig, est=None, error=None) -> SweepRow:
    """A cell's row from its estimate, or from the error that failed it."""
    a = float(cfg.schedule.get("alpha_a", 0.0))
    b = float(cfg.schedule.get("mu_b", 0.0))
    if error is not None:
        return SweepRow(method=cfg.method, alpha_a=a, mu_b=b, status="failed",
                        error=str(error))
    i = len(est.checkpoints) - 1
    return SweepRow(
        method=cfg.method, alpha_a=a, mu_b=b, status="ok",
        mean_grad_sq=float(est.mean_grad_sq[i]),
        se_grad_sq=float(est.se_grad_sq[i]),
        mean_gap=float(est.mean_gap[i]),
        se_gap=float(est.se_gap[i]))


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


def _sweep_cells(configs: list) -> list:
    """Rows of configs, in order, computed in this process.  The cells of
    each draw group that pass validation share one problem and oracle and
    step together (`_stepped`) in batches whose experiments hold at
    most `_GROUP_VALUES` floats; a cell's failure is recorded in its row."""
    rows = [None] * len(configs)

    def finish(batch):
        for (i, exp), result in zip(batch, _stepped([e for _, e in batch])):
            try:
                rows[i] = _sweep_row(configs[i], run_experiment(configs[i], (exp, result)))
            except _CELL_ERRORS as e:
                rows[i] = _sweep_row(configs[i], error=e)

    for group in _draw_groups(configs):
        like, batch, held = None, [], 0
        for i in group:
            try:
                exp = _prepare(configs[i], like)
            except _CELL_ERRORS as e:
                rows[i] = _sweep_row(configs[i], error=e)
                continue
            like = like or exp
            if batch and held + exp.values() > _GROUP_VALUES:
                finish(batch)
                batch, held = [], 0
            batch.append((i, exp))
            held += exp.values()
        if batch:
            finish(batch)
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on: the most processes that run an
    experiment's replicas or a sweep's cells."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def sweep(configs: list[ExperimentConfig]) -> SweepResult:
    """Run a grid of configs; per-cell failures are recorded, not raised.

    Cells that draw alike (see `_draw_groups`; all cells of `sweep_grid`
    do) step together through one draw of each block (`_sweep_cells`).
    Each of up to one process per CPU this process may use takes an
    interleaved share of each group (`_in_processes`).  Rows keep the
    grid's order, and a cell's arithmetic is the same in a group or alone,
    so the result does not depend on the number of shares.  A grid of less
    than `_POOL_MIN_WORK` replica-steps is one share, as is any grid when
    one CPU is usable; only there, in this process, may a batch of one
    cell split its replicas over the CPUs.  A process that dies raises
    ExperimentError.
    """
    workers = min(_usable_cpus(), len(configs))
    if sum(c.replicas * c.horizon for c in configs) < _POOL_MIN_WORK:
        workers = 1
    order = [i for group in _draw_groups(configs) for i in group]
    shares = [order[w::workers] for w in range(workers)]
    rows = [None] * len(configs)
    done = _in_processes([partial(_sweep_cells, [configs[i] for i in share])
                          for share in shares])
    for share, share_rows in zip(shares, done):
        for i, row in zip(share, share_rows):
            rows[i] = row
    return SweepResult(rows=tuple(rows))


def sweep_csv(result: SweepResult) -> str:
    lines = ["method,alpha_a,mu_b,status,mean_grad_sq,se_grad_sq,mean_gap,se_gap,error"]
    for r in result.rows:
        fmt = lambda v: "" if v is None else repr(v)
        lines.append(",".join([
            r.method, repr(r.alpha_a), repr(r.mu_b), r.status,
            fmt(r.mean_grad_sq), fmt(r.se_grad_sq), fmt(r.mean_gap), fmt(r.se_gap),
            '"%s"' % r.error.replace('"', "'") if r.error else "",
        ]))
    return "\n".join(lines) + "\n"
