"""Monte Carlo experiments over independent replicas.

`run_experiment` simulates `replicas` independent trajectories of one
configuration and aggregates per-checkpoint estimates.  Replica i draws its
noise from the counter-based stream keyed by (master_seed, i).
`optimizers.run` is this engine at one replica, so replica 0 of an
experiment and a single run with the same seed are one computation.

Execution model: the engine advances a range of replicas in lock-step as
a single (replicas, dim) state; one process runs every replica, or each
usable CPU runs one range (see Processes below).  It is a stepper
(`_steps`) that steps through one block of raw draws at a time, as
`_step_together` hands them to it, and keeps its state, alive mask,
checkpoint buffers and sums between blocks.  Each
iteration calls the method's kernel from
`optimizers.KERNELS` and folds the running average with
`optimizers.averaged_update`, the same code the step functions call on one
(dim,) state, so each iteration costs one set of numpy calls whatever the
replica count.  Raw noise is pre-drawn into one replica-major (replicas,
iterations, ...) buffer: each replica's stream fills its own contiguous
rows in place, and step k reads the strided (replicas, ...) slice of
column k.  Philox draws do not depend on how they are chunked, so no
stream's contents change with the buffer depth, which shrinks as the
replica count grows to keep the buffer's size fixed.  After each step one
reduction over the whole state tests every replica against the divergence
radius; only when it fails does the engine test each replica.  At a
checkpoint the engine evaluates f and grad f on the live state (the
gradient is reused by the next step), passes them with the state to the
caller's checkpoint hook if there is one (this is how
`run` records its trajectory), and copies f(x), grad f(x), v and f(xbar)
into preallocated (chunk, replicas, ...) buffers, with chunk x replicas <=
16384 (fewer for states of more than 2 coordinates).  One set of numpy
calls then reduces the whole chunk: gradient and velocity norms, the cross
term, the energies and their increments (the last tilted energy carries
into the next chunk), their squares and the block sums.  A chunk is
reduced when it is full, before a divergence changes the alive mask (so
one mask holds for every checkpoint of a chunk), and at the end of the
run.  Sums run over fixed consecutive blocks of `_BLOCK_REPLICAS`
replicas: each block's sum is numpy's pairwise sum of its alive replicas
in replica order, and the block sums are folded in block order, so the
reductions depend neither on the replica array's width nor on the chunk
length.

Processes: an experiment of at least two blocks and enough work runs its
replicas as one contiguous, block-aligned range per usable CPU (see
`_replica_ranges`).  The calling process runs the first range and a forked
child runs each other one; a replica's stream depends only on its index,
and each child sends back its unfolded block sums, which the caller folds
onto its own in block order, so the sums are the same float additions in
the same order as in one process.  Least-squares experiments stay in one
process (see `_simulate_alone`).  The cells of a sweep share their noise
on purpose (common random numbers): cells that draw alike step together,
a memory-bounded batch at a time, and each batch draws each block of noise
once.  Once its total work pays for starting them, a sweep runs in forked
worker processes, each taking an interleaved share of every group (see
`sweep`).  A child or worker that dies raises ExperimentError; a child
whose caller dies fails its send and exits.

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
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .config import ExperimentConfig, build_oracle, validate_config, validate_replicas
from .errors import ConfigError, DivergenceError, ExperimentError, ParameterError
from .lyapunov import LyapunovSeries, descent_fit, select_lambda, select_zeta
from .optimizers import (KERNELS, all_within_radius, averaged_update, checkpoint_grid,
                         init_average, within_radius)
from .oracles import GradientOracle
from .problems import Convexity, FiniteSumProblem, Problem
from .rng import replica_streams
from .schedules import PowerSchedule, classify

_BLOCK_REPLICAS = 256   # fixed reduction grid, independent of the array width
_RAW_BLOCK = 1024       # iterations of raw noise pre-drawn per replica, at most
# Checkpoint buffers hold at most this many replica-checkpoint coordinates
# (counting at least 2 per state), so chunk x replicas <= 16384; and an
# experiment splits only if each range's unfolded sums hold at most this
# many checkpoint-blocks per quantity.
_CHUNK_VALUES = 32768
# A sweep of less work than this (replicas x horizon summed over its cells)
# runs in-process: below it, starting the pool (about 35 ms on a 2-vCPU host
# for its imports, forks and shutdown) can cost more than two workers save
# on small least-squares cells, which run about 0.6 M replica-steps/s.
_POOL_MIN_WORK = 100_000
# A sweep steps the cells of a draw group together in batches whose
# experiments hold at most this many floats (8 MB), each batch drawing the
# group's noise once.
_GROUP_VALUES = 1 << 20
# An experiment of less work than this (replicas x horizon) runs in one
# process.  Quadratic replicas run 9-12 M replica-steps/s, and the split
# costs about 17 ms to import multiprocessing, fork and join, plus the
# copy-on-write faults of both processes and the scheduler's delay in
# moving the child to the other CPU.  Timed as fresh `sgdlab experiment`
# calls of 512-4096 replicas on a 2-vCPU host, split against one process:
# 1.4-1.7x slower at 10^5 replica-steps, anywhere from 1.4x slower to 1.4x
# faster at 1.0-1.2 M, 15-23% faster at 1.5 M and about 2x faster at 4 M.
_SPLIT_MIN_WORK = 1_500_000
# Cleared in a sweep's pool workers, where every CPU already runs a cell.
_split_experiments = True


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


def _refill(buf, oracle, gens, nb: int) -> None:
    """Draw the next nb iterations of every replica's raw noise into
    buf[:, :nb], where buf is shaped (replicas, iterations, ...): replica i's
    stream fills the C-contiguous rows buf[i, :nb] in place."""
    for rows, g in zip(buf, gens):
        oracle.raw_block(g, nb, out=rows[:nb])


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


def _steps(problem, oracle, method: str, beta, alphas, mus, x0, grid, lyap_mode,
           averaged: bool, f_star: float, r_count: int, on_point, first: int = 0,
           fold: bool = True):
    """Stepper of replicas first..first+r_count-1, which advance in
    lock-step; `first` is a multiple of `_BLOCK_REPLICAS`.

    A generator: `next` records checkpoint 0 if the grid holds it, then
    each `send` hands it a (replicas, iterations, ...) block of raw draws
    and it steps through the block's iterations, until the horizon or until
    none of its replicas is alive.  It then returns (as StopIteration's
    value) (counts, sums, diverged, final): alive replicas per checkpoint; a
    dict of per-checkpoint sums over alive replicas keyed by quantity (sums
    of squares under "sq_" + name), each with the block sums folded in
    block order or, unless fold, shaped (checkpoints, blocks); the
    (replica, iteration) divergences; and the last (x, v, x_prev, running
    average or None).  Unless None, on_point(k, x, v, xbar, f, grad) sees
    every checkpoint's (replicas, ...) state, xbar (None unless averaged),
    f(x) and grad f(x).  The stepper only reads the blocks it is handed.
    """
    horizon = len(alphas)
    kernel = KERNELS[method]
    x = np.tile(np.asarray(x0, dtype=float), (r_count, 1))
    v = np.zeros_like(x)
    x_prev = x.copy()
    avg = init_average(x) if averaged else None
    alive = np.ones(r_count, dtype=bool)
    n_alive = r_count
    frozen_blocks = set()
    diverged = []

    squared = ["grad_sq", "gap"] + (["avg_gap"] if averaged else []) \
        + (["delta_ht"] if lyap_mode is not None else [])
    names = squared + (["ht", "hbar"] if lyap_mode is not None else [])
    n_q, n_sq = len(names), len(squared)
    blocks = -(-r_count // _BLOCK_REPLICAS)
    totals = np.zeros((len(grid), n_q + n_sq) + (() if fold else (blocks,)))
    counts = np.zeros(len(grid), dtype=np.int64)
    # Checkpoint buffers: f(x), grad f(x), v and f(xbar) per replica for up
    # to `chunk` checkpoints, reduced together by `flush`.
    dim = x.shape[1]
    chunk = max(1, min(len(grid), _CHUNK_VALUES // (r_count * max(2, dim))))
    f_buf = np.empty((chunk, r_count))
    g_buf = np.empty((chunk, r_count, dim))
    v_buf = np.empty_like(g_buf) if lyap_mode is not None else None
    a_buf = np.empty_like(f_buf) if averaged else None
    vals = np.empty((chunk, n_q + n_sq, r_count))   # quantities, then their squares
    ht_prev = None
    grad_cache = None
    ci = flushed = 0   # checkpoints recorded, and reduced

    def record():
        """Buffer checkpoint ci's per-replica values; return grad f(x)."""
        nonlocal ci
        j = ci - flushed
        f_buf[j] = problem.value(x)
        gr = problem.gradient(x)
        g_buf[j] = gr
        xbar = None
        if averaged:
            xbar = x if avg.weight_sum == 0.0 else avg.xbar
            a_buf[j] = problem.value(xbar)
        if v_buf is not None:
            v_buf[j] = v
        if on_point is not None:
            on_point(int(grid[ci]), x, v, xbar, f_buf[j], gr)
        ci += 1
        if ci - flushed == chunk:
            flush()
        return gr

    def flush():
        """Reduce the buffered checkpoints; all were recorded under the
        current alive mask."""
        nonlocal ht_prev, flushed
        c = ci - flushed
        if c == 0:
            return
        gr = g_buf[:c]
        gsq = np.einsum("...i,...i->...", gr, gr)
        gap = f_buf[:c] - f_star
        rows = [gsq, gap]
        if averaged:
            rows.append(a_buf[:c] - f_star)
        if lyap_mode is not None:
            mode, coeff = lyap_mode
            vc = v_buf[:c]
            vsq = np.einsum("...i,...i->...", vc, vc)
            zt = np.einsum("...i,...i->...", vc, gr)
            h = gap + 0.5 * vsq
            hbar = gsq + vsq
            tilt = coeff
            if mode == "vanishing":
                # k = 0 records mu = 0, so the vanishing tilt starts at plain H.
                ks = grid[flushed:ci]
                tilt = (coeff * np.where(ks >= 1, mus[ks - 1], 0.0))[:, None]
            ht = h + tilt * zt
            dht = np.empty_like(ht)
            dht[0] = 0.0 if ht_prev is None else ht[0] - ht_prev
            np.subtract(ht[1:], ht[:-1], out=dht[1:])
            rows += [dht, ht, hbar]
            ht_prev = ht[-1]
        out = vals[:c]
        np.stack(rows, axis=1, out=out[:, :n_q])
        np.multiply(out[:, :n_sq], out[:, :n_sq], out=out[:, n_q:])
        sums = _block_sums(out, alive, frozen_blocks)
        if fold:
            _fold(totals[flushed:ci], sums)
        else:
            totals[flushed:ci] = sums
        counts[flushed:ci] = n_alive
        flushed = ci

    def grad_at(point):
        """Stochastic gradients at point from this iteration's draws; grad f
        at the current state is reused from its checkpoint when recorded."""
        return oracle.stoch_grad(point, raw_t, grad=grad_cache if point is x else None)

    if grid[ci] == 0:
        grad_cache = record()

    k = 0
    while k < horizon and n_alive:
        for raw_t in (yield).swapaxes(0, 1):
            k += 1
            alpha = alphas[k - 1]
            if averaged:
                avg = averaged_update(avg, x, alpha)
            x_new, v = kernel(x, v, x_prev, grad_at, alpha,
                              alphas[k - 2] if k >= 2 else alpha, mus[k - 1], beta)
            x_prev, x = x, x_new
            grad_cache = None

            # One reduction clears every replica, frozen ones included (they
            # keep stepping); only when it fails is each replica tested.
            # Frozen replicas are never flagged again.
            if not all_within_radius(x) and not (ok := within_radius(x) | ~alive).all():
                flush()   # the buffered checkpoints keep the old alive mask
                bad = ~ok
                for i in np.nonzero(bad)[0]:
                    diverged.append((first + int(i), k))
                    frozen_blocks.add(int(i) // _BLOCK_REPLICAS)
                alive &= ok
                n_alive = int(alive.sum())
                if n_alive == 0:
                    break
                for arr in (x, v, x_prev) + ((avg.xbar,) if averaged else ()):
                    arr[bad] = 0.0

            if ci < len(grid) and k == grid[ci]:
                grad_cache = record()
    flush()
    keys = names + ["sq_" + name for name in squared]
    return counts, dict(zip(keys, np.moveaxis(totals, 1, 0))), diverged, (x, v, x_prev, avg)


def _step_together(oracle, gens: list, horizon: int, steppers: list) -> list:
    """Drive steppers (see `_steps`) of len(gens) replicas each over the
    same horizon through one draw buffer: each block of raw noise is drawn
    once, replica i's from gens[i], and handed to every stepper still
    running, until the last one is done.  Returns their results in order."""
    for stepper in steppers:
        next(stepper)
    results = [None] * len(steppers)
    running = list(range(len(steppers)))
    r_count = len(gens)
    # Deep enough for _RAW_BLOCK iterations of _BLOCK_REPLICAS replicas.
    nb_max = max(1, min(_RAW_BLOCK, _BLOCK_REPLICAS * _RAW_BLOCK // r_count, horizon))
    buf = np.empty((r_count, nb_max) + oracle.raw_shape, dtype=oracle.raw_dtype)
    drawn = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while running:
            nb = min(nb_max, horizon - drawn)
            _refill(buf, oracle, gens, nb)
            drawn += nb
            for i in list(running):
                try:
                    steppers[i].send(buf[:, :nb])
                except StopIteration as done:
                    results[i] = done.value
                    running.remove(i)
    return results


def _simulate(problem, oracle, method: str, beta, alphas, mus, x0, grid, lyap_mode,
              averaged: bool, f_star: float, master_seed: int, r_count: int, on_point,
              first: int = 0, fold: bool = True):
    """The result of `_steps` for replicas first..first+r_count-1, each
    drawing from its own stream under master_seed."""
    stepper = _steps(problem, oracle, method, beta, alphas, mus, x0, grid, lyap_mode,
                     averaged, f_star, r_count, on_point, first, fold)
    return _step_together(oracle, replica_streams(master_seed, r_count, first), len(alphas),
                          [stepper])[0]


def _mean_se(s, q, n):
    n = n.astype(float)
    mean = s / n
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(n > 1, np.maximum(q - s * s / n, 0.0) / np.maximum(n - 1, 1), 0.0)
        se = np.sqrt(var / n)
    return mean, se


def _replica_ranges(r_count: int, horizon: int, n_points: int) -> list:
    """Contiguous (first, count) replica ranges split at block boundaries,
    one per usable CPU; a single range unless the run has at least two
    blocks and `_SPLIT_MIN_WORK` replica-steps, and each range's unfolded
    sums (see `_steps`) hold at most `_CHUNK_VALUES` checkpoint-blocks
    per quantity."""
    blocks = -(-r_count // _BLOCK_REPLICAS)
    if blocks < 2 or r_count * horizon < _SPLIT_MIN_WORK or not _split_experiments:
        return [(0, r_count)]
    parts = min(_usable_cpus(), blocks)
    if parts < 2 or n_points * -(-blocks // parts) > _CHUNK_VALUES:
        return [(0, r_count)]
    bounds = [_BLOCK_REPLICAS * (blocks * p // parts) for p in range(parts)] + [r_count]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def _simulate_ranges(simulate, ranges: list):
    """(counts, sums, diverged) of `simulate(first, count, fold)` over the
    replica ranges: this process runs the first, a forked child runs each
    other one, and the children's block sums are folded onto this process's
    sums in block order, the same additions in the same order as one range
    over every replica.  A child that dies raises ExperimentError."""
    if len(ranges) == 1:
        return simulate(*ranges[0], True)[:3]
    # Imported here so that runs that do not split never load it.  Forked
    # children inherit the problem and oracle, whose closures do not pickle.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for first, count in ranges[1:]:
            receive, send = ctx.Pipe(duplex=False)
            readers = [r for _, r in children] + [receive]
            child = ctx.Process(target=_simulate_child,
                                args=(send, readers, simulate, first, count), daemon=True)
            child.start()
            send.close()
            children.append((child, receive))
        counts, sums, diverged, _ = simulate(*ranges[0], True)
        for child, receive in children:
            try:
                child_counts, block_sums, child_diverged = receive.recv()
            except EOFError:
                child.join()
                raise ExperimentError("an experiment worker process died: exit code "
                                      f"{child.exitcode}") from None
            counts += child_counts
            for key, total in sums.items():
                _fold(total, block_sums[key])
            diverged += child_diverged
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    return counts, sums, diverged


def _simulate_child(send, readers: list, simulate, first: int, count: int) -> None:
    """A forked child's work: send one replica range's unfolded sums.

    The child first closes the read ends it inherited, its own among them,
    so that if the caller dies its send fails with BrokenPipeError and the
    child exits, rather than block forever on a pipe that it holds open."""
    for reader in readers:
        reader.close()
    counts, block_sums, diverged, _ = simulate(first, count, False)
    send.send((counts, block_sums, diverged))
    send.close()


@dataclass
class _Experiment:
    """A validated experiment, built and ready to step."""
    cfg: ExperimentConfig
    problem: Problem
    fsp: Optional[FiniteSumProblem]
    schedule: PowerSchedule
    oracle: GradientOracle
    lyap_mode: Optional[tuple]
    grid: np.ndarray
    alphas: np.ndarray
    mus: np.ndarray
    effective: int   # replicas simulated

    def engine_args(self) -> tuple:
        """The leading arguments of `_steps` and `_simulate`, up to the
        seed that `_simulate` takes next."""
        c = self.cfg
        return (self.problem, self.oracle, c.method, c.beta, self.alphas, self.mus, c.x0,
                self.grid, self.lyap_mode, c.averaged, self.problem.minimum.f_star)

    def values(self) -> int:
        """About how many floats it holds while it steps: schedules, state,
        checkpoint buffers and per-checkpoint sums (see `_steps`)."""
        r, dim, points = self.effective, len(self.cfg.x0), len(self.grid)
        sums = 4 + 2 * self.cfg.averaged + 4 * (self.lyap_mode is not None)
        chunk = max(1, min(points, _CHUNK_VALUES // (r * max(2, dim))))
        return (2 * len(self.alphas) + 5 * r * dim + chunk * r * (sums + 2 * dim + 2)
                + points * (sums + 1))


def _prepare(cfg: ExperimentConfig, like: Optional[_Experiment] = None) -> _Experiment:
    """Validate cfg and build what its experiment steps with.  Unless None,
    `like` is a prepared experiment that draws alike (see `_draw_groups`),
    whose problem and oracle, built from equal configs, serve as cfg's."""
    validate_replicas(cfg)
    if like is None:
        problem, fsp, schedule = validate_config(cfg)
        oracle = build_oracle(cfg.oracle, problem, fsp, seed=cfg.seed)
    else:
        problem, fsp, schedule = validate_config(cfg, (like.problem, like.fsp))
        oracle = like.oracle
    # Zero-noise oracles make every replica identical: one trajectory gives
    # the exact means, and with n = 1 `_mean_se` gives standard errors of
    # exactly 0.
    return _Experiment(cfg, problem, fsp, schedule, oracle,
                       resolve_lyapunov(cfg, problem, schedule),
                       checkpoint_grid(cfg.horizon, cfg.checkpoint_stride),
                       schedule.alphas(cfg.horizon), schedule.mus(cfg.horizon),
                       1 if oracle.zero_noise else cfg.replicas)


def _simulate_alone(exp: _Experiment):
    """(counts, sums, diverged) of one experiment, over one replica range
    per process (see `_replica_ranges`)."""
    def simulate(first, count, fold):
        return _simulate(*exp.engine_args(), exp.cfg.seed, count, None, first, fold)

    # Least-squares sums evaluate through BLAS, whose rounding depends on the
    # batch's row count (a single row takes gemv, not gemm), so they run in
    # one process: a range of other rows could change their last bits.
    ranges = [(0, exp.effective)] if exp.fsp is not None else \
        _replica_ranges(exp.effective, exp.cfg.horizon, len(exp.grid))
    return _simulate_ranges(simulate, ranges)


def _simulate_batch(exps: list) -> list:
    """(counts, sums, diverged) of each of experiments that draw alike (see
    `_draw_groups`).  A lone one runs as `run_experiment` runs it; several
    step together in this process, each block of noise drawn once for all."""
    if len(exps) == 1:
        return [_simulate_alone(exps[0])]
    lead = exps[0]
    steppers = [_steps(*e.engine_args(), e.effective, None) for e in exps]
    results = _step_together(lead.oracle, replica_streams(lead.cfg.seed, lead.effective),
                             lead.cfg.horizon, steppers)
    return [r[:3] for r in results]


def run_experiment(cfg: ExperimentConfig, stepped=None) -> MonteCarloEstimate:
    """The estimates of cfg's experiment.  A sweep passes `stepped`, the
    cell's prepared experiment and its (counts, sums, diverged) from its
    draw group, and only the tolerance check and aggregation run here."""
    if stepped is None:
        exp = _prepare(cfg)
        n, sums, diverged = _simulate_alone(exp)
    else:
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


def _partial_sums_at(s: PowerSchedule, ks: np.ndarray):
    horizon = int(ks[-1])
    if horizon <= 2_000_000:
        alphas = s.alphas(horizon)
        cum_a = np.concatenate([[0.0], np.cumsum(alphas)])
        cum_q = np.concatenate([[0.0], np.cumsum(alphas * alphas)])
        return cum_a[ks], cum_q[ks]
    sum_a = np.empty(len(ks))
    sum_q = np.empty(len(ks))
    acc_a = acc_q = 0.0
    prev = 0
    for i, k in enumerate(ks):
        if k > prev:
            j = np.arange(prev + 1, k + 1, dtype=float)
            a = s.coeff_alpha * j ** (-s.exp_alpha)
            acc_a += float(a.sum())
            acc_q += float((a * a).sum())
            prev = int(k)
        sum_a[i] = acc_a
        sum_q[i] = acc_q
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


def estimates_csv(est: MonteCarloEstimate) -> str:
    cols = ["checkpoint", "mean_grad_sq", "se_grad_sq", "mean_gap", "se_gap"]
    with_avg = est.mean_avg_gap is not None
    if with_avg:
        cols += ["mean_avg_gap", "se_avg_gap"]
    lines = [",".join(cols)]
    for i, k in enumerate(est.checkpoints):
        row = [str(int(k)), repr(float(est.mean_grad_sq[i])), repr(float(est.se_grad_sq[i])),
               repr(float(est.mean_gap[i])), repr(float(est.se_gap[i]))]
        if with_avg:
            row += [repr(float(est.mean_avg_gap[i])), repr(float(est.se_avg_gap[i]))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def lyapunov_csv(est: MonteCarloEstimate) -> str:
    if est.lyap is None:
        raise ExperimentError("no energy series recorded")
    ser = est.lyap
    lines = ["k,alpha,mu,mean_Ht,mean_Hbar,se_delta_Ht"]
    for i, k in enumerate(ser.checkpoints):
        lines.append(",".join([
            str(int(k)), repr(float(ser.alphas[i])), repr(float(ser.mus[i])),
            repr(float(ser.mean_ht[i])), repr(float(ser.mean_hbar[i])),
            repr(float(ser.se_delta_ht[i])),
        ]))
    return "\n".join(lines) + "\n"


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
    step together (`_simulate_batch`) in batches whose experiments hold at
    most `_GROUP_VALUES` floats; a cell's failure is recorded in its row."""
    rows = [None] * len(configs)

    def finish(batch):
        for (i, exp), result in zip(batch, _simulate_batch([e for _, e in batch])):
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


def _run_experiments_whole() -> None:
    """Keep each experiment in one process (a sweep worker's initializer)."""
    global _split_experiments
    _split_experiments = False


def sweep(configs: list[ExperimentConfig]) -> SweepResult:
    """Run a grid of configs; per-cell failures are recorded, not raised.

    Cells that draw alike (see `_draw_groups`; all cells of `sweep_grid`
    do) step together through one draw of each block (`_sweep_cells`).  Up
    to one forked worker per CPU this process may use takes an interleaved
    share of each group.  Rows keep the grid's order, and a cell's
    arithmetic is the same in a group or alone, so the result does not
    depend on the number of workers.  A grid of less than `_POOL_MIN_WORK`
    replica-steps runs in-process, as does any grid when only one worker
    would run; only there may a batch of one cell split its replicas over
    the CPUs.  A worker that dies raises ExperimentError.
    """
    workers = min(_usable_cpus(), len(configs))
    if workers <= 1 or sum(c.replicas * c.horizon for c in configs) < _POOL_MIN_WORK:
        return SweepResult(rows=tuple(_sweep_cells(configs)))
    # Imported here so that commands and small sweeps never load them.  Fork
    # rather than spawn: a forked worker starts from the modules this process
    # has loaded, where a spawned one would import numpy and sgdlab again.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    order = [i for group in _draw_groups(configs) for i in group]
    shares = [order[w::workers] for w in range(workers)]
    rows = [None] * len(configs)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_run_experiments_whole) as ex:
            done = ex.map(_sweep_cells, [[configs[i] for i in share] for share in shares])
            for share, share_rows in zip(shares, done):
                for i, row in zip(share, share_rows):
                    rows[i] = row
    except BrokenProcessPool as e:
        raise ExperimentError(f"a sweep worker process died: {e}") from e
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
