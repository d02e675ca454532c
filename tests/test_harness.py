"""Monte Carlo engine: exactness, replica accounting, probes, serialization."""

import copy
import json
import os
import time
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cfg
from sgdlab import harness
from sgdlab.config import (SweepSpec, build_oracle, build_problem, build_schedule,
                           sweep_grid, validate_config)
from sgdlab.errors import DivergenceError, ExperimentError
from sgdlab.harness import (MonteCarloEstimate, averaged_bound_probe, default_burn_in,
                            estimates_csv, liminf_probe, lyapunov_csv, nasgd_hypothesis,
                            resolve_lyapunov, run_experiment, summary_dict, sweep,
                            SweepResult, sweep_csv)
from sgdlab.lyapunov import LyapunovSeries, select_lambda, select_zeta
from sgdlab.optimizers import (DAMPED, DIVERGENCE_RADIUS, METHODS, averaged_update,
                               checkpoint_grid, init_average, init_state,
                               msgd_classical_step, msgd_damped_step, nasgd_step,
                               nesterov_classical_step, run, vsgd_step)
from sgdlab.oracles import GradientOracle
from sgdlab.problems import least_squares_sum
from sgdlab.rng import replica_stream, replica_streams
from sgdlab.schedules import PowerSchedule


def test_zero_noise_experiment_equals_the_single_trajectory():
    cfg = make_cfg(oracle={"kind": "gaussian", "sigma": 0.0}, replicas=16,
                   horizon=100, checkpoint_stride=10, averaged=True)
    est = run_experiment(cfg)
    problem = build_problem(cfg.problem)
    orc = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    s = build_schedule(cfg.schedule)
    traj = run("vsgd", problem, orc, s, cfg.horizon, cfg.seed, cfg.x0,
               checkpoint_stride=10, averaged=True)
    f_star = problem.minimum.f_star
    assert np.array_equal(est.mean_grad_sq, [p.grad_sq for p in traj.points])
    assert np.array_equal(est.mean_gap, [p.f - f_star for p in traj.points])
    assert np.array_equal(est.mean_avg_gap,
                          [float(problem.value(p.xbar)) - f_star for p in traj.points])
    # identical replicas: standard errors are exactly zero, full count reported
    assert np.array_equal(est.se_grad_sq, np.zeros(len(est.checkpoints)))
    assert np.array_equal(est.se_gap, np.zeros(len(est.checkpoints)))
    assert np.array_equal(est.se_avg_gap, np.zeros(len(est.checkpoints)))
    assert est.replicas == 16
    assert est.diverged == 0


_BLOCK = 256   # the engine's fixed reduction block


def _replica_states(cfg):
    """Every replica stepped alone on its own stream by the single-state step
    functions.  Returns {k: [(x, v, xbar) or None, one per replica]} over the
    checkpoint grid, an entry being None from the iteration its replica
    diverged at, and the (replica, iteration) divergences in replica order."""
    problem = build_problem(cfg.problem)
    oracle = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    s = build_schedule(cfg.schedule)
    grid = [int(k) for k in checkpoint_grid(cfg.horizon, cfg.checkpoint_stride)]
    states = {k: [None] * cfg.replicas for k in grid}
    diverged = []
    for i in range(cfg.replicas):
        orc = copy.copy(oracle)
        orc._rng = replica_stream(cfg.seed, i)
        state = init_state(cfg.x0)
        avg = init_average(cfg.x0)
        alpha_prev = None
        for k in range(cfg.horizon + 1):
            if k >= 1:
                alpha, mu = s.alpha(k), s.mu(k)
                if cfg.averaged:
                    avg = averaged_update(avg, state.x, alpha)
                try:
                    if cfg.method == "vsgd":
                        state = vsgd_step(state, orc.sample(state.x), alpha)
                    elif cfg.method == "msgd_damped":
                        state = msgd_damped_step(state, orc.sample(state.x), alpha, mu)
                    elif cfg.method == "msgd_classical":
                        state = msgd_classical_step(state, orc.sample(state.x), alpha,
                                                    cfg.beta)
                    elif cfg.method == "nasgd":
                        state = nasgd_step(state, orc, alpha,
                                           alpha_prev if alpha_prev else alpha, mu)
                    else:
                        state = nesterov_classical_step(state, orc, alpha, cfg.beta)
                except DivergenceError:
                    diverged.append((i, k))
                    break
                alpha_prev = alpha
                if not (np.einsum("...i,...i->...", state.x, state.x)
                        <= DIVERGENCE_RADIUS ** 2):
                    diverged.append((i, k))
                    break
            if k in states:
                xbar = avg.xbar if avg.weight_sum > 0 else state.x
                states[k][i] = (state.x.copy(), state.v.copy(), xbar.copy())
    return states, diverged


def _reference_estimate(cfg):
    """Per-checkpoint means and standard errors from `_replica_states`: each
    block's alive replicas summed in replica order, block sums folded in
    block order."""
    problem = build_problem(cfg.problem)
    s = build_schedule(cfg.schedule)
    lyap = resolve_lyapunov(cfg, problem, s)
    f_star = problem.minimum.f_star
    states, diverged = _replica_states(cfg)
    out = {}
    ht_prev = None
    for k, entries in states.items():
        idx = np.array([i for i, e in enumerate(entries) if e is not None])
        x, v, xbar = (np.stack([entries[i][j] for i in idx]) for j in range(3))
        gr = problem.gradient(x)
        gsq = np.einsum("...i,...i->...", gr, gr)
        gap = problem.value(x) - f_star
        vals = {"grad_sq": gsq, "gap": gap}
        if cfg.averaged:
            vals["avg_gap"] = problem.value(xbar) - f_star
        if lyap is not None:
            mode, coeff = lyap
            vsq = np.einsum("...i,...i->...", v, v)
            zt = np.einsum("...i,...i->...", v, gr)
            mu_here = s.mu(k) if k >= 1 else 0.0
            ht_all = np.full(cfg.replicas, np.nan)
            ht_all[idx] = gap + 0.5 * vsq + (coeff * mu_here if mode == "vanishing"
                                             else coeff) * zt
            vals["ht"] = ht_all[idx]
            vals["hbar"] = gsq + vsq
            vals["delta_ht"] = (np.zeros(len(idx)) if ht_prev is None
                                else ht_all[idx] - ht_prev[idx])
            ht_prev = ht_all
        n = float(len(idx))
        for name, val in vals.items():
            s_sum = q_sum = 0.0
            for lo in range(0, cfg.replicas, _BLOCK):
                blk = val[(idx >= lo) & (idx < lo + _BLOCK)]
                s_sum += blk.sum()
                q_sum += (blk * blk).sum()
            var = np.maximum(q_sum - s_sum * s_sum / n, 0.0) / (n - 1.0)
            out.setdefault("mean_" + name, []).append(s_sum / n)
            out.setdefault("se_" + name, []).append(np.sqrt(var / n))
    return {key: np.array(val) for key, val in out.items()}, diverged


_METHOD_SETUPS = [
    ("vsgd", {}, None),
    ("msgd_damped", {"mu_m": 1.0, "mu_b": 0.2}, None),
    ("msgd_classical", {}, 0.6),
    ("nasgd", {"mu_m": 1.0, "mu_b": 0.2}, None),
    ("nesterov_classical", {}, 0.5),
]
# 300 replicas span one full block and a 44-replica tail; the 3-replica
# cases keep their established test ids.
_ENGINE_CASES = [
    pytest.param(method, extra, beta, replicas, {},
                 id=f"{method}-sched_extra{j}-{beta}" + ("" if replicas == 3 else f"-{replicas}"))
    for replicas in (3, 300) for j, (method, extra, beta) in enumerate(_METHOD_SETUPS)
]
# Stride 1 at 200 replicas: 1001 checkpoints fill 12 chunks of 81 and end in
# a partial chunk of 29.
_STRIDE1 = dict(horizon=1000, checkpoint_stride=1)
_CONSTANT_MU = {"mu_m": 1.0, "mu_b": 0.0}
_VANISHING_MU = {"mu_m": 1.0, "mu_b": 0.2}
_ENGINE_CASES += [
    pytest.param(method, mu, None, 200, dict(_STRIDE1, lyapunov=True),
                 id=f"{method}-{tilt}-lyapunov-stride1-200")
    for method in ("msgd_damped", "nasgd")
    for tilt, mu in (("constant", _CONSTANT_MU), ("vanishing", _VANISHING_MU))
] + [pytest.param("vsgd", {}, None, 200, dict(_STRIDE1, averaged=True),
                  id="vsgd-averaged-stride1-200")]


@pytest.mark.parametrize("method,sched_extra,beta,replicas,run_extra", _ENGINE_CASES)
def test_engine_matches_manual_replica_stepping_bitwise(method, sched_extra, beta, replicas,
                                                        run_extra):
    schedule = {"alpha_c": 0.3, "alpha_a": 0.6, **sched_extra}
    cfg = make_cfg(**{**dict(method=method, schedule=schedule, beta=beta, horizon=120,
                             replicas=replicas, seed=77, checkpoint_stride=30,
                             oracle={"kind": "gaussian", "sigma": 0.5}), **run_extra})
    est = run_experiment(cfg)
    ref, diverged = _reference_estimate(cfg)
    assert diverged == []
    assert np.array_equal(est.mean_grad_sq, ref["mean_grad_sq"]), method
    assert np.array_equal(est.se_grad_sq, ref["se_grad_sq"]), method
    assert np.array_equal(est.mean_gap, ref["mean_gap"]), method
    assert np.array_equal(est.se_gap, ref["se_gap"]), method
    if cfg.averaged:
        assert np.array_equal(est.mean_avg_gap, ref["mean_avg_gap"])
        assert np.array_equal(est.se_avg_gap, ref["se_avg_gap"])
    if cfg.lyapunov:
        assert np.array_equal(est.lyap.mean_ht, ref["mean_ht"])
        assert np.array_equal(est.lyap.mean_hbar, ref["mean_hbar"])
        assert np.array_equal(est.lyap.se_delta_ht, ref["se_delta_ht"])


@pytest.mark.parametrize("method,sched_extra,beta", _METHOD_SETUPS,
                         ids=[m for m, _, _ in _METHOD_SETUPS])
def test_zero_noise_averaged_experiment_equals_the_single_run_for_every_method(
        method, sched_extra, beta):
    cfg = make_cfg(method=method, schedule={"alpha_c": 0.3, "alpha_a": 0.6, **sched_extra},
                   beta=beta, oracle={"kind": "gaussian", "sigma": 0.0}, replicas=4,
                   horizon=90, checkpoint_stride=7, averaged=True)
    est = run_experiment(cfg)
    problem = build_problem(cfg.problem)
    orc = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    traj = run(method, problem, orc, build_schedule(cfg.schedule), cfg.horizon, cfg.seed,
               cfg.x0, checkpoint_stride=7, beta=beta, averaged=True)
    f_star = problem.minimum.f_star
    assert np.array_equal(est.checkpoints, traj.checkpoints())
    assert np.array_equal(est.mean_grad_sq, [p.grad_sq for p in traj.points])
    assert np.array_equal(est.mean_gap, [p.f - f_star for p in traj.points])
    assert np.array_equal(est.mean_avg_gap,
                          [float(problem.value(p.xbar)) - f_star for p in traj.points])


_LSQ = {"kind": "least_squares", "design": [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
        "targets": [1.0, -1.0, 0.5]}


@pytest.mark.parametrize("problem,oracle", [
    ({"kind": "quadratic", "spectrum": [1.0, 4.0]}, {"kind": "gaussian", "sigma": 0.5}),
    ({"kind": "quadratic", "spectrum": [1.0, 4.0]}, {"kind": "relative_noise", "eta": 0.5}),
    (_LSQ, {"kind": "minibatch", "batch": 2}),
], ids=["gaussian", "relative_noise", "least_squares-minibatch"])
@pytest.mark.parametrize("method,sched_extra,beta", _METHOD_SETUPS,
                         ids=[m for m, _, _ in _METHOD_SETUPS])
def test_run_is_replica_zero_at_every_point(method, sched_extra, beta, problem, oracle):
    cfg = make_cfg(method=method, schedule={"alpha_c": 0.3, "alpha_a": 0.6, **sched_extra},
                   beta=beta, problem=problem, oracle=oracle, replicas=1, horizon=90,
                   checkpoint_stride=7, averaged=True)
    states, diverged = _replica_states(cfg)
    assert diverged == []
    built = build_problem(cfg.problem)
    orc = build_oracle(cfg.oracle, built, seed=cfg.seed)
    traj = run(method, built, orc, build_schedule(cfg.schedule), cfg.horizon, cfg.seed,
               cfg.x0, checkpoint_stride=7, beta=beta, averaged=True)
    assert [p.k for p in traj.points] == list(states)
    for p in traj.points:
        x, v, xbar = states[p.k][0]
        assert p.x.tobytes() == x.tobytes(), p.k
        assert p.v.tobytes() == v.tobytes(), p.k
        assert p.xbar.tobytes() == xbar.tobytes(), p.k


def test_experiment_builds_its_problem_once(monkeypatch):
    calls = []

    def counting(design, targets):
        calls.append(1)
        return least_squares_sum(design, targets)

    monkeypatch.setattr("sgdlab.config.least_squares_sum", counting)
    cfg = make_cfg(problem={"kind": "least_squares", "design": [[1.0, 0.0], [0.0, 2.0],
                                                                [1.0, 1.0]],
                            "targets": [1.0, -1.0, 0.5]},
                   oracle={"kind": "minibatch", "batch": 2}, horizon=20, replicas=4)
    run_experiment(cfg)
    assert len(calls) == 1


_PARTIAL_DIVERGENCE = dict(
    problem={"kind": "quadratic", "spectrum": [4.0]},
    oracle={"kind": "relative_noise", "eta": 2.0},
    x0=[1e6], horizon=400, replicas=600, divergence_tolerance=0.95, seed=3)


@pytest.mark.parametrize("cfg", [
    make_cfg(method="vsgd", averaged=True, checkpoint_stride=40,
             schedule={"alpha_c": 0.1375, "alpha_a": 0.0}, **_PARTIAL_DIVERGENCE),
    make_cfg(method="msgd_damped", lyapunov=True, checkpoint_stride=1,
             schedule={"alpha_c": 0.3, "alpha_a": 0.0, "mu_m": 1.0, "mu_b": 0.0},
             **_PARTIAL_DIVERGENCE),
], ids=["vsgd-averaged", "msgd_damped-lyapunov"])
def test_partial_divergence_matches_manual_replica_stepping_bitwise(cfg):
    est = run_experiment(cfg)
    ref, diverged = _reference_estimate(cfg)
    assert est.diverged_iterations == tuple(diverged)
    assert est.diverged == len(diverged)
    # some, but not all, replicas of each of the three blocks diverge
    per_block = np.bincount([i // _BLOCK for i, _ in diverged], minlength=3)
    assert len(per_block) == 3 and np.all(per_block > 0)
    assert np.all(per_block < [256, 256, 88])
    for name in ("grad_sq", "gap"):
        assert np.array_equal(getattr(est, "mean_" + name), ref["mean_" + name]), name
        assert np.array_equal(getattr(est, "se_" + name), ref["se_" + name]), name
    if cfg.averaged:
        assert np.array_equal(est.mean_avg_gap, ref["mean_avg_gap"])
        assert np.array_equal(est.se_avg_gap, ref["se_avg_gap"])
    if cfg.lyapunov:
        assert np.array_equal(est.lyap.mean_ht, ref["mean_ht"])
        assert np.array_equal(est.lyap.mean_hbar, ref["mean_hbar"])
        assert np.array_equal(est.lyap.se_delta_ht, ref["se_delta_ht"])


def _outputs(est):
    """Everything an experiment writes or reports, as one string."""
    text = estimates_csv(est) + json.dumps(summary_dict(est), sort_keys=True)
    return text + (lyapunov_csv(est) if est.lyap is not None else "") \
        + repr(est.diverged_iterations)


def _split_and_whole(cfg, monkeypatch, cpus=2):
    """(planned replica ranges, outputs) of cfg run split over `cpus` CPUs
    whatever its work, then the outputs of the same run in one process."""
    ranges = []
    real_plan = harness._plan

    def recording(*args):
        plan = real_plan(*args)
        ranges.append(plan[0])
        return plan

    monkeypatch.setattr(harness, "_plan", recording)
    monkeypatch.setattr(harness, "_SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    split = _outputs(run_experiment(cfg))
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    whole = _outputs(run_experiment(cfg))
    return ranges[0], split, whole


@pytest.mark.parametrize("cpus,ranges", [
    (2, [(0, 768), (768, 532)]),
    (3, [(0, 512), (512, 512), (1024, 276)]),
    (8, [(0, 256), (256, 256), (512, 256), (768, 256), (1024, 256), (1280, 20)]),
])
def test_a_split_run_with_a_tail_block_equals_the_whole_run(cpus, ranges, monkeypatch):
    cfg = make_cfg(method="msgd_classical", beta=0.6, replicas=1300, horizon=120,
                   checkpoint_stride=30, oracle={"kind": "gaussian", "sigma": 0.5})
    got, split, whole = _split_and_whole(cfg, monkeypatch, cpus)
    assert got == ranges
    assert split == whole


@pytest.mark.parametrize("cfg", [
    make_cfg(method="vsgd", averaged=True, checkpoint_stride=40,
             schedule={"alpha_c": 0.1375, "alpha_a": 0.0}, **_PARTIAL_DIVERGENCE),
    make_cfg(method="msgd_damped", lyapunov=True, checkpoint_stride=1,
             schedule={"alpha_c": 0.3, "alpha_a": 0.0, "mu_m": 1.0, "mu_b": 0.0},
             **_PARTIAL_DIVERGENCE),
], ids=["vsgd-averaged", "msgd_damped-lyapunov"])
def test_a_split_run_with_divergence_in_every_range_equals_the_whole_run(cfg, monkeypatch):
    ranges, split, whole = _split_and_whole(cfg, monkeypatch)
    assert ranges == [(0, 256), (256, 344)]
    assert split == whole
    diverged = run_experiment(cfg).diverged_iterations
    assert {i < 256 for i, _ in diverged} == {True, False}


def test_a_child_range_that_dies_entirely_adds_nothing(monkeypatch):
    # The child runs replicas 256 and 257, which diverge at iterations 252
    # and 389 while most of the parent's replicas live to the horizon.
    cfg = make_cfg(method="vsgd", averaged=True, checkpoint_stride=40,
                   schedule={"alpha_c": 0.1375, "alpha_a": 0.0},
                   **dict(_PARTIAL_DIVERGENCE, replicas=258, seed=26))
    ranges, split, whole = _split_and_whole(cfg, monkeypatch)
    assert ranges == [(0, 256), (256, 2)]
    assert split == whole
    est = run_experiment(cfg)
    assert [d for d in est.diverged_iterations if d[0] >= 256] == [(256, 252), (257, 389)]
    assert est.diverged < 256


def test_a_split_lyapunov_run_with_a_vanishing_tilt_equals_the_whole_run(monkeypatch):
    cfg = make_cfg(method="nasgd", lyapunov=True, averaged=True, checkpoint_stride=1,
                   replicas=600, horizon=200,
                   schedule={"alpha_c": 0.3, "alpha_a": 0.6, **_VANISHING_MU})
    ranges, split, whole = _split_and_whole(cfg, monkeypatch)
    assert ranges == [(0, 256), (256, 344)]
    assert split == whole


@pytest.mark.parametrize("oracle", [{"kind": "gaussian", "sigma": 0.5},
                                    {"kind": "minibatch", "batch": 2}],
                         ids=["gaussian", "minibatch"])
def test_least_squares_experiments_run_as_one_range(oracle, monkeypatch):
    # BLAS evaluates a one-row batch (gemv) differently from a row of a
    # larger one (gemm), so a one-replica range could change the last bits.
    cfg = make_cfg(problem=_LSQ, oracle=oracle, replicas=257, horizon=200,
                   checkpoint_stride=20, x0=[2.0, -1.0])
    ranges, split, whole = _split_and_whole(cfg, monkeypatch)
    assert ranges == [(0, 257)]
    assert split == whole


_LIMIT = harness._HELPER_MIN_WORK


def _plan_of(exps: int, replicas: int, horizon: int, points: int = 41, design=None):
    """`_plan` of exps experiments that draw alike, each of replicas x
    horizon and points checkpoints, on a problem with this design."""
    exp = SimpleNamespace(effective=replicas, cfg=SimpleNamespace(horizon=horizon),
                          grid=range(points), problem=SimpleNamespace(design=design))
    return harness._plan([exp] * exps)


@pytest.mark.parametrize("cpus,replicas,horizon,points,kind,ranges,ahead", [
    # A lone experiment splits with two blocks, enough work and small child
    # sums; one range draws ahead with enough work and a second CPU.
    (2, 256, 10 ** 6, 41, "alone", [(0, 256)], True),
    (2, 257, 10 ** 6, 41, "alone", [(0, 256), (256, 1)], False),
    (2, 512, 3906, 41, "alone", [(0, 512)], True),   # 1 999 872 replica-steps
    (2, 512, 3907, 41, "alone", [(0, 256), (256, 256)], False),
    # each range holds 8 blocks: 4096 checkpoints x 8 = 32768 values per quantity
    (2, 4096, 4095, 4096, "alone", [(0, 2048), (2048, 2048)], False),
    (2, 4096, 4096, 4097, "alone", [(0, 4096)], True),
    (1, 4096, 1000, 41, "alone", [(0, 4096)], False),
    (64, 600, 3400, 41, "alone", [(0, 256), (256, 256), (512, 88)], False),
    (2, _LIMIT // 100, 100, 41, "alone", [(0, _LIMIT // 100)], True),
    (2, 1, _LIMIT - 1, 41, "alone", [(0, 1)], False),
    (1, _LIMIT, 100, 41, "alone", [(0, _LIMIT)], False),
    (2, _LIMIT, 100, 41, "alone", [(0, _LIMIT)], True),
    # A least-squares experiment runs as one range and may draw ahead.
    (2, 600, 3400, 41, "least-squares", [(0, 600)], True),
])
def test_plan_splits_or_draws_ahead_only_where_it_pays(cpus, replicas, horizon, points, kind,
                                                       ranges, ahead, monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    design = object() if kind == "least-squares" else None
    assert _plan_of(1, replicas, horizon, points, design) == (ranges, ahead, 1)   # no pool


_POOL = harness._POOL_MIN_WORK


@pytest.mark.parametrize("cpus,cells,replicas,horizon,pool", [
    # A batch of cells runs as one range in a pool of one worker per usable
    # CPU and per cell, from _POOL_MIN_WORK replica-steps over its cells,
    # and in this process below it; it never splits or draws ahead.
    (2, 3, 600, 3400, 2),
    (64, 3, 600, 3400, 3),
    (1, 3, 600, 3400, 1),
    (3, 8, 4096, 4096, 3),   # each cell alone would split
    (2, 4, 1, _LIMIT, 2),    # each cell alone would draw ahead
    (2, 2, _POOL // 200, 100, 2),
    (2, 2, _POOL // 200, 99, 1),
    (64, 4, 1, _POOL // 4, 4),
    (64, 4, 1, _POOL // 4 - 1, 1),
])
def test_plan_pools_a_batch_only_for_enough_work(cpus, cells, replicas, horizon, pool,
                                                 monkeypatch):
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    assert _plan_of(cells, replicas, horizon) == ([(0, replicas)], False, pool)
    assert _plan_of(cells, replicas, horizon, design=object()) == ([(0, replicas)], False, pool)


def test_a_batch_of_alike_cells_forks_nothing(monkeypatch):
    # With every threshold at 0 a lone cell would split or start a draw
    # helper; cells that step together in this process do neither.
    cells = [make_cfg(replicas=300, horizon=200, checkpoint_stride=20,
                      schedule={"alpha_c": 0.5, "alpha_a": a}) for a in (0.5, 0.6, 0.7)]
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    alone = sweep(cells)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 10 ** 9)   # no pool, one range
    monkeypatch.setattr(harness, "_SPLIT_MIN_WORK", 0)
    monkeypatch.setattr(harness, "_HELPER_MIN_WORK", 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert sweep(cells) == alone
    assert forks == []
    # The cells' lone twins do fork: one split child per range.
    assert sweep(cells[:1]) == SweepResult(rows=alone.rows[:1])
    assert forks == [1, 1]


def test_a_child_forks_no_further(monkeypatch, tmp_path):
    # With every threshold at 0, a sweep of three draw groups runs two
    # batches of two cells each in a pool of two workers, and splits its
    # lone cell's replicas into two ranges, as an experiment would.  Every
    # child is forked by this process: no pool worker or range forks.
    cells = [make_cfg(replicas=300, horizon=200, checkpoint_stride=20, seed=seed,
                      schedule={"alpha_c": 0.5, "alpha_a": a})
             for seed, a in ((3, 0.5), (3, 0.6), (4, 0.5), (4, 0.6), (5, 0.5))]
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    alone = sweep(cells)
    log = tmp_path / "forks"
    real_fork = os.fork

    def logging_fork():   # in every process
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", logging_fork)
    for name in ("_POOL_MIN_WORK", "_SPLIT_MIN_WORK", "_HELPER_MIN_WORK"):
        monkeypatch.setattr(harness, name, 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert sweep(cells) == alone
    assert log.read_text().split() == [str(os.getpid())] * 6   # 2 pools, 2 ranges


def _results_bytes(cfg):
    """cfg's (counts, sums, diverged) as computed by `run_experiment`, with
    every array as its bytes, and its outputs or the error that failed it."""
    counts, sums, diverged = harness._stepped([harness._prepare(cfg)])[0]
    raw = (counts.tobytes(), {key: total.tobytes() for key, total in sums.items()},
           sorted(diverged))
    try:
        return raw, _outputs(run_experiment(cfg))
    except ExperimentError as e:
        return raw, str(e)


def _helper_and_in_process(cfg, monkeypatch):
    """(draw helpers started, results with the helper, results in one
    process) of cfg (see `_results_bytes`, which runs it twice): the helper
    at any size on two CPUs, then one CPU, where no helper starts."""
    started = []
    real = harness._Helper.blocks

    def recording(*args):
        started.append(1)
        return real(*args)

    monkeypatch.setattr(harness._Helper, "blocks", recording)
    monkeypatch.setattr(harness, "_HELPER_MIN_WORK", 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    helper = _results_bytes(cfg)
    helpers = len(started)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    whole = _results_bytes(cfg)
    assert len(started) == helpers
    return helpers, helper, whole


_LYAP_STRIDE1 = dict(method="msgd_damped", lyapunov=True, checkpoint_stride=1,
                     replicas=200, horizon=600)


@pytest.mark.parametrize("cfg", [
    make_cfg(schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU}, **_LYAP_STRIDE1),
    # 5000 iterations take five blocks of 1024, so each slot is refilled.
    make_cfg(schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU},
             **dict(_LYAP_STRIDE1, horizon=5000)),
    # 1025 iterations take two blocks, of 1024 and 1, so no slot is freed.
    make_cfg(schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU},
             **dict(_LYAP_STRIDE1, horizon=1025)),
    make_cfg(schedule={"alpha_c": 0.3, "alpha_a": 0.6, **_VANISHING_MU},
             **dict(_LYAP_STRIDE1, method="nasgd", averaged=True)),
    make_cfg(method="vsgd", averaged=True, checkpoint_stride=1, replicas=300, horizon=500),
    make_cfg(method="msgd_classical", beta=0.6, averaged=True, checkpoint_stride=7,
             replicas=300, horizon=2000),
    make_cfg(problem=_LSQ, oracle={"kind": "gaussian", "sigma": 0.5}, x0=[2.0, -1.0],
             checkpoint_stride=1, replicas=257, horizon=400, averaged=True),
    make_cfg(problem=_LSQ, oracle={"kind": "minibatch", "batch": 2}, x0=[2.0, -1.0],
             schedule={"alpha_c": 0.3, "alpha_a": 0.6, **_CONSTANT_MU}, **_LYAP_STRIDE1),
    make_cfg(oracle={"kind": "gaussian", "sigma": 0.0}, averaged=True,
             schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU}, **_LYAP_STRIDE1),
    # 1000 two-coordinate replicas: chunks of 16 checkpoints and blocks of
    # 262 iterations, so the helper reduces 16 or 17 chunks per block; 704
    # checkpoints fill 44 chunks, and 701 leave a last chunk of 13.
    make_cfg(schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU},
             **dict(_LYAP_STRIDE1, replicas=1000, horizon=703)),
    make_cfg(schedule={"alpha_c": 0.3, "alpha_a": 0.6, **_VANISHING_MU},
             **dict(_LYAP_STRIDE1, method="nasgd", averaged=True, replicas=1000,
                    horizon=700)),
], ids=["constant-tilt", "constant-tilt-five-blocks", "constant-tilt-two-blocks",
        "vanishing-tilt-averaged", "averaged-stride1", "averaged-stride7",
        "lsq-gaussian", "lsq-minibatch-lyapunov", "zero-noise", "many-chunks-per-block",
        "partial-last-chunk"])
def test_the_draw_helper_gives_the_in_process_results_bitwise(cfg, monkeypatch):
    helpers, helper, whole = _helper_and_in_process(cfg, monkeypatch)
    assert helpers == 2   # one per run
    assert helper == whole
    assert isinstance(whole[1], str) and "," in whole[1]   # the run succeeded


def test_the_draw_helper_reduces_a_chunk_handed_over_mid_block(monkeypatch, tmp_path):
    # The helper logs the events: "draw" before each replica's draw (through
    # the oracle that `_refill` is handed), "reduce" for each chunk.  It
    # draws block 1 while this process steps block 0, and holds its first
    # draw of block 1 until this process has handed chunk 0 (checkpoints
    # 0..80) over; that chunk must then be reduced before the block's last
    # replica is drawn, not once the block is drawn.
    log, handed = tmp_path / "events", tmp_path / "handed"
    real_refill, real_reduce = harness._refill, harness._Checkpoints.reduce
    real_send = harness._Helper.send

    def event(text):
        with open(log, "a") as fh:
            fh.write(text + "\n")

    refills = []   # in the helper, which alone draws

    class LoggingOracle:
        def __init__(self, oracle):
            self.oracle, self.drawn = oracle, 0

        def raw_block(self, g, n, out):
            if len(refills) == 2 and not self.drawn:   # block 1's first draw
                deadline = time.monotonic() + 20
                while not handed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            self.drawn += 1
            event("draw")
            return self.oracle.raw_block(g, n, out=out)

    def logging_refill(buf, stage, oracle, gens, nb, serve):
        refills.append(nb)
        event("refill")
        real_refill(buf, stage, LoggingOracle(oracle), gens, nb, serve)

    def logging_reduce(self, slot, first, c, alive):
        event(f"reduce:{first}")
        real_reduce(self, slot, first, c, alive)

    def marking_send(self, message):
        real_send(self, message)
        if message is not None:
            handed.touch()

    monkeypatch.setattr(harness, "_refill", logging_refill)
    monkeypatch.setattr(harness._Checkpoints, "reduce", logging_reduce)
    monkeypatch.setattr(harness._Helper, "send", marking_send)
    monkeypatch.setattr(harness, "_HELPER_MIN_WORK", 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    run_experiment(make_cfg(schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU},
                            **dict(_LYAP_STRIDE1, horizon=3000)))
    events = log.read_text().split()
    starts = [i for i, e in enumerate(events) if e == "refill"]
    assert len(starts) == 3   # blocks of 1024 iterations
    block1 = events[starts[1] + 1:starts[2]]
    draws = [i for i, e in enumerate(block1) if e == "draw"]
    assert len(draws) == 200
    assert block1.index("reduce:0") < draws[-1]
    assert "reduce:0" not in events[:starts[1]]


_DIVERGING_LYAPUNOV = make_cfg(
    method="msgd_damped", lyapunov=True, checkpoint_stride=1,
    schedule={"alpha_c": 0.3, "alpha_a": 0.0, "mu_m": 1.0, "mu_b": 0.0},
    **_PARTIAL_DIVERGENCE)


@pytest.mark.parametrize("chunk", [27, 29], ids=["mid-chunk", "chunk-boundary"])
def test_the_draw_helper_keeps_partial_divergence_bitwise(chunk, monkeypatch):
    # Chunks of 600 one-coordinate replicas hold _CHUNK_VALUES // 1200
    # checkpoints (27 by default).  The first divergence, at iteration 87,
    # comes with 6 checkpoints buffered in chunks of 27 and none in chunks
    # of 29.
    monkeypatch.setattr(harness, "_CHUNK_VALUES", chunk * 1200)
    helpers, helper, whole = _helper_and_in_process(_DIVERGING_LYAPUNOV, monkeypatch)
    assert helpers == 2   # one per run
    assert helper == whole
    first = min(k for _, k in run_experiment(_DIVERGING_LYAPUNOV).diverged_iterations)
    assert first == 87 and (first % chunk == 0) == (chunk == 29)


def test_the_draw_helper_stops_when_every_replica_dies(monkeypatch):
    cfg = make_cfg(schedule={"alpha_c": 3.0, "alpha_a": 0.0}, checkpoint_stride=1,
                   oracle={"kind": "gaussian", "sigma": 0.1},
                   problem={"kind": "quadratic", "spectrum": [1.0]},
                   x0=[1.0], horizon=3000, replicas=4, divergence_tolerance=1.0)
    helpers, helper, whole = _helper_and_in_process(cfg, monkeypatch)
    assert helpers == 2   # one per run
    assert helper == whole
    assert whole[1] == "no replica survived to some checkpoint"
    counts = np.frombuffer(whole[0][0], dtype=np.int64)
    assert counts[0] == 4 and counts[-1] == 0


def _record_draws(monkeypatch):
    """Record (generator, n) for every raw_block call."""
    calls = []
    original = GradientOracle.raw_block

    def recording(self, rng, n, out=None):
        calls.append((rng, n))
        return original(self, rng, n, out=out)

    monkeypatch.setattr(GradientOracle, "raw_block", recording)
    return calls


def _stepped_in_one_process(engine_args, seed, replicas):
    """The result of `_steps` for replicas 0..replicas-1 of an experiment
    whose leading `_steps` arguments are engine_args, each drawing from its
    own stream under seed, driven by `_step_together` in this process."""
    stepper = harness._steps(*engine_args, replicas, None)
    return harness._step_together(engine_args[1], seed, len(engine_args[4]), 0, replicas,
                                  [stepper])[0]


def _simulate_in_one_process(cfg):
    """`_stepped_in_one_process` over every replica of cfg, as
    `run_experiment` steps it when it does not split the replicas."""
    problem, s = validate_config(cfg)
    oracle = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    return _stepped_in_one_process(
        (problem, oracle, cfg.method, cfg.beta, s.alphas(cfg.horizon), s.mus(cfg.horizon),
         cfg.x0, checkpoint_grid(cfg.horizon, cfg.checkpoint_stride),
         resolve_lyapunov(cfg, problem, s), cfg.averaged, problem.minimum.f_star),
        cfg.seed, cfg.replicas)


def test_draw_buffer_stays_within_one_block_of_rows(monkeypatch):
    calls = _record_draws(monkeypatch)
    _simulate_in_one_process(make_cfg(replicas=4096, horizon=300))
    assert max(n for _, n in calls) * 4096 <= 256 * 1024
    drawn = {}
    for rng, n in calls:
        drawn[rng] = drawn.get(rng, 0) + n
    assert len(drawn) == 4096
    assert set(drawn.values()) == {300}
    # up to one block of replicas, each replica draws 1024 iterations at a time
    calls.clear()
    _simulate_in_one_process(make_cfg(replicas=200, horizon=2500))
    assert len(calls) == 200 * 3


def _lsq_problem(dim: int) -> dict:
    rng = np.random.default_rng(dim)
    return {"kind": "least_squares", "design": rng.normal(size=(12, dim)).tolist(),
            "targets": rng.normal(size=12).tolist()}


def _stepped_replica_major(exp):
    """`_steps`'s result when every replica draws its whole horizon in one
    call into a replica-major (replicas, iterations, ...) array, and the
    stepper reads iteration k as the strided slice of column k."""
    raw = np.stack([exp.oracle.raw_block(g, exp.cfg.horizon)
                    for g in replica_streams(exp.cfg.seed, exp.effective)])
    stepper = harness._steps(*exp.engine_args(), exp.effective, None)
    next(stepper)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StopIteration) as done:
            stepper.send(raw.swapaxes(0, 1))
    return done.value.value


@pytest.mark.parametrize("replicas", [257, 513])
@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("oracle", ["gaussian", "relative_noise", "minibatch"])
def test_iteration_major_draw_blocks_step_as_replica_major_draws(oracle, dim, replicas):
    # 257 and 513 replicas leave a last staging block of one replica, and
    # 1100 iterations take two and three refills of the draw buffer.
    problem = {"kind": "quadratic", "spectrum": np.linspace(0.5, 4.0, dim).tolist()}
    spec = {"gaussian": {"kind": "gaussian", "sigma": 0.5},
            "relative_noise": {"kind": "relative_noise", "eta": 0.5},
            "minibatch": {"kind": "minibatch", "batch": 3, "replace": False}}[oracle]
    if oracle == "minibatch":
        problem = _lsq_problem(dim)
    exp = harness._prepare(make_cfg(
        problem=problem, oracle=spec, x0=np.linspace(-2.0, 2.0, dim).tolist(),
        averaged=True, schedule={"alpha_c": 0.1, "alpha_a": 0.6, **_CONSTANT_MU},
        **dict(_LYAP_STRIDE1, replicas=replicas, horizon=1100)))
    blocked = _stepped_in_one_process(exp.engine_args(), exp.cfg.seed, replicas)
    reference = _stepped_replica_major(exp)
    counts, sums, diverged, final = blocked
    assert np.array_equal(counts, reference[0])
    assert sums.keys() == reference[1].keys()
    for key, total in sums.items():
        assert total.tobytes() == reference[1][key].tobytes(), key
    assert diverged == reference[2]
    for arr, ref in zip(final[:3] + (final[3].xbar,), reference[3][:3] + (reference[3][3].xbar,)):
        assert arr.tobytes() == ref.tobytes()


def test_fully_diverged_experiment_stops_drawing_within_one_raw_block(monkeypatch):
    # constant alpha = 3 on a unit quadratic: |x_k| ~ 2^k leaves the radius
    # near k = 40, inside the first block of 1024 raw draws
    calls = _record_draws(monkeypatch)
    cfg = make_cfg(schedule={"alpha_c": 3.0, "alpha_a": 0.0},
                   oracle={"kind": "gaussian", "sigma": 0.1},
                   problem={"kind": "quadratic", "spectrum": [1.0]},
                   x0=[1.0], horizon=100_000, replicas=4)
    with pytest.raises(ExperimentError) as info:
        run_experiment(cfg)
    assert str(info.value) == ("4 of 4 replicas diverged (tolerance 1%); "
                               "first failure at iteration 40")
    drawn = {}
    for rng, n in calls:
        drawn[rng] = drawn.get(rng, 0) + n
    assert len(drawn) == 4
    assert set(drawn.values()) == {1024}
    calls.clear()
    cfg.divergence_tolerance = 1.0
    with pytest.raises(ExperimentError, match="^no replica survived to some checkpoint$"):
        run_experiment(cfg)
    assert sum(n for _, n in calls) == 4 * 1024


def test_a_fully_diverged_experiment_stops_its_draw_helper_one_block_ahead(monkeypatch,
                                                                          tmp_path):
    # The run above with its draws in a draw helper: this process draws
    # nothing, and the helper, which draws one block ahead, has drawn at
    # most the block after the first when it is stopped.
    calls = _record_draws(monkeypatch)   # in this process only
    log = tmp_path / "refills"
    real_refill = harness._refill

    def logging_refill(buf, stage, oracle, gens, nb, serve):
        with open(log, "a") as fh:
            fh.write(f"{len(gens)}x{nb}\n")
        real_refill(buf, stage, oracle, gens, nb, serve)

    monkeypatch.setattr(harness, "_refill", logging_refill)
    monkeypatch.setattr(harness, "_HELPER_MIN_WORK", 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = make_cfg(schedule={"alpha_c": 3.0, "alpha_a": 0.0},
                   oracle={"kind": "gaussian", "sigma": 0.1},
                   problem={"kind": "quadratic", "spectrum": [1.0]},
                   x0=[1.0], horizon=100_000, replicas=4, divergence_tolerance=1.0)
    with pytest.raises(ExperimentError, match="^no replica survived to some checkpoint$"):
        run_experiment(cfg)
    assert calls == []
    assert log.read_text().split() in (["4x1024"], ["4x1024"] * 2)


def test_checkpoint_buffers_stay_within_16384_replica_checkpoints(monkeypatch):
    chunks = []
    original = harness._block_sums

    def recording(vals, alive, frozen_blocks):
        chunks.append(vals.shape[0])
        assert vals.shape[-1] == replicas
        return original(vals, alive, frozen_blocks)

    monkeypatch.setattr(harness, "_block_sums", recording)
    lyap = dict(method="msgd_damped", checkpoint_stride=1, lyapunov=True,
                schedule={"alpha_c": 0.3, "alpha_a": 0.6, **_CONSTANT_MU})
    replicas = 4096
    _simulate_in_one_process(make_cfg(replicas=replicas, horizon=30, **lyap))
    assert chunks == [4] * 7 + [3]   # 31 checkpoints; 4 x 4096 = 16384
    chunks.clear()
    replicas = 200
    _simulate_in_one_process(make_cfg(replicas=replicas, horizon=1000, **lyap))
    assert chunks == [81] * 12 + [29]


def test_standard_errors_shrink_with_the_replica_count():
    small = run_experiment(make_cfg(replicas=64, horizon=80))
    large = run_experiment(make_cfg(replicas=256, horizon=80))
    ratio = large.se_gap[-1] / small.se_gap[-1]
    assert 0.3 < ratio < 0.75  # about 1/sqrt(4)


def test_diverging_experiment_reports_the_earliest_iteration():
    cfg = make_cfg(schedule={"alpha_c": 3.0, "alpha_a": 0.0},
                   oracle={"kind": "gaussian", "sigma": 0.1},
                   problem={"kind": "quadratic", "spectrum": [1.0]},
                   x0=[1.0], horizon=100, replicas=4)
    with pytest.raises(ExperimentError, match="replicas diverged") as info:
        run_experiment(cfg)
    assert "first failure at iteration" in str(info.value)


def test_zero_noise_divergence_counts_all_replicas():
    cfg = make_cfg(schedule={"alpha_c": 3.0, "alpha_a": 0.0},
                   oracle={"kind": "gaussian", "sigma": 0.0},
                   problem={"kind": "quadratic", "spectrum": [1.0]},
                   x0=[1.0], horizon=100, replicas=4)
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_zero_noise_energy_series_matches_the_single_run():
    cfg = make_cfg(method="msgd_damped",
                   schedule={"alpha_c": 0.3, "alpha_a": 0.7, "mu_m": 1.0, "mu_b": 0.0},
                   oracle={"kind": "gaussian", "sigma": 0.0},
                   horizon=60, replicas=8, checkpoint_stride=1, lyapunov=True,
                   x0=[1.5, -0.5])
    est = run_experiment(cfg)
    ser = est.lyap
    assert ser is not None and not ser.vanishing
    assert np.array_equal(ser.se_delta_ht, np.zeros(61))
    problem = build_problem(cfg.problem)
    s = build_schedule(cfg.schedule)
    lyap_mode = resolve_lyapunov(cfg, problem, s)
    assert lyap_mode == ("constant", select_zeta(problem.smoothness_l, 1.0, 1.0))
    orc = build_oracle(cfg.oracle, problem, seed=cfg.seed)
    traj = run("msgd_damped", problem, orc, s, 60, cfg.seed, cfg.x0,
               checkpoint_stride=1, lyap_mode=lyap_mode)
    assert np.array_equal(ser.mean_ht, [p.lyap.h_tilde for p in traj.points])
    assert np.array_equal(ser.mean_hbar, [p.lyap.h_bar for p in traj.points])
    assert ser.alphas[0] == 0.0 and ser.mus[0] == 0.0
    assert ser.alphas[5] == s.alpha(5)
    assert ser.replicas == 8


def test_resolve_lyapunov_modes():
    problem = build_problem({"kind": "quadratic", "spectrum": [1.0, 4.0]})
    off = make_cfg()
    assert resolve_lyapunov(off, problem, build_schedule(off.schedule)) is None
    const = make_cfg(method="msgd_damped", lyapunov=True, checkpoint_stride=1,
                     schedule={"alpha_c": 0.3, "alpha_a": 0.7, "mu_m": 0.5, "mu_b": 0.0})
    mode, coeff = resolve_lyapunov(const, problem, build_schedule(const.schedule))
    assert mode == "constant" and coeff == select_zeta(4.0, 0.5, 0.5)
    vanish = make_cfg(method="msgd_damped", lyapunov=True, checkpoint_stride=1,
                      schedule={"alpha_c": 0.3, "alpha_a": 0.7, "mu_m": 1.0, "mu_b": 0.2})
    mode, coeff = resolve_lyapunov(vanish, problem, build_schedule(vanish.schedule))
    assert mode == "vanishing" and coeff == select_lambda(4.0, 0.0)
    plain = make_cfg(lyapunov=True, checkpoint_stride=1)
    assert resolve_lyapunov(plain, problem, build_schedule(plain.schedule)) == ("constant", 0.0)
    override = make_cfg(lyapunov=True, checkpoint_stride=1, lyap_coeff=0.3)
    assert resolve_lyapunov(override, problem, build_schedule(override.schedule))[1] == 0.3


def _fake_estimate(ks, mean_gsq, mean_avg=None, cfg=None, schedule=None):
    n = len(ks)
    zeros = np.zeros(n)
    cfg = cfg or make_cfg()
    problem, built = validate_config(cfg)
    return MonteCarloEstimate(
        checkpoints=np.asarray(ks), mean_grad_sq=np.asarray(mean_gsq, dtype=float),
        se_grad_sq=zeros, mean_gap=zeros.copy(), se_gap=zeros.copy(),
        mean_avg_gap=None if mean_avg is None else np.asarray(mean_avg, dtype=float),
        se_avg_gap=None if mean_avg is None else zeros.copy(),
        lyap=None, replicas=8, diverged=0, diverged_iterations=(),
        config=cfg, problem=problem, schedule=schedule or built)


def test_liminf_probe_is_the_running_minimum():
    est = _fake_estimate([0, 1, 2, 3], [5.0, 3.0, 4.0, 2.0])
    assert np.array_equal(liminf_probe(est), [5.0, 3.0, 3.0, 2.0])
    with pytest.raises(ExperimentError):
        liminf_probe(_fake_estimate([0, 1], [1.0, 1.0]))


def test_averaged_bound_probe_ratio_scale():
    s = PowerSchedule(1.0, 0.6)
    ks = np.array([0, 10, 100, 1000, 10000])
    alphas = s.alphas(10000)
    cum_a = np.cumsum(alphas)
    cum_q = np.cumsum(alphas * alphas)
    flat = (1.0 + cum_q[ks[1:] - 1]) / cum_a[ks[1:] - 1]
    est = _fake_estimate(ks, np.ones(5), mean_avg=np.concatenate([[9.9], flat]), schedule=s)
    probe = averaged_bound_probe(est)
    assert np.allclose(probe.ratios, 1.0, rtol=1e-12)
    assert probe.passed
    spiked = flat.copy()
    spiked[-1] *= 5.0
    est = _fake_estimate(ks, np.ones(5), mean_avg=np.concatenate([[9.9], spiked]), schedule=s)
    assert not averaged_bound_probe(est).passed
    with pytest.raises(ExperimentError):
        averaged_bound_probe(_fake_estimate(ks, np.ones(5), schedule=s))


def test_averaged_probe_partial_sums_handle_long_horizons():
    # the sums are accumulated in chunks and equal the whole-vector cumsum bitwise
    s = PowerSchedule(1.0, 0.6)
    ks = np.array([0, 10, 1000, 2_500_000])
    est = _fake_estimate(ks, np.ones(4), mean_avg=np.ones(4), schedule=s)
    probe = averaged_bound_probe(est)
    alphas = s.alphas(2_500_000)
    direct = np.cumsum(alphas)[ks[1:] - 1] / (1.0 + np.cumsum(alphas * alphas)[ks[1:] - 1])
    assert np.array_equal(probe.ratios, direct)


def test_partial_sums_carry_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(harness, "_SUM_CHUNK", 4)
    s = PowerSchedule(0.5, 0.7)
    ks = np.array([1, 3, 4, 5, 8, 9, 17, 40])   # on, before and after edges of 4-chunks
    sum_a, sum_q = harness._partial_sums_at(s, ks)
    alphas = s.alphas(40)
    assert np.array_equal(sum_a, np.cumsum(alphas)[ks - 1])
    assert np.array_equal(sum_q, np.cumsum(alphas * alphas)[ks - 1])


def test_nasgd_hypothesis_annotation():
    constant = make_cfg(method="nasgd",
                        problem={"kind": "pseudo_huber", "dim": 2}, x0=[1.0, 1.0],
                        schedule={"alpha_c": 0.2, "alpha_a": 0.0,
                                  "mu_m": 1.0, "mu_b": 0.0})
    note = nasgd_hypothesis(_fake_estimate([0], [0.0], cfg=constant))
    assert note["beta_hat"] == pytest.approx(0.8)
    assert note["l_times_beta_hat"] == pytest.approx(0.8)
    assert note["mu_lower"] == 1.0
    assert note["l_beta_lt_mu"] and note["convex"] and note["hypothesis_ok"]
    decaying = make_cfg(method="nasgd",
                        schedule={"alpha_c": 0.5, "alpha_a": 0.7,
                                  "mu_m": 1.0, "mu_b": 0.0})
    note = nasgd_hypothesis(_fake_estimate([0], [0.0], cfg=decaying))
    assert note["beta_hat"] == 1.0
    assert note["l_times_beta_hat"] == 4.0   # smoothness of the default quadratic
    assert not note["l_beta_lt_mu"]
    assert note["convex"] and note["hypothesis_ok"]


def test_estimates_csv_layout_and_exact_round_trip():
    est = run_experiment(make_cfg(horizon=40, replicas=8, checkpoint_stride=10,
                                  averaged=True))
    text = estimates_csv(est)
    lines = text.strip().split("\n")
    assert lines[0] == "checkpoint,mean_grad_sq,se_grad_sq,mean_gap,se_gap,mean_avg_gap,se_avg_gap"
    assert len(lines) == 1 + len(est.checkpoints)
    row = lines[2].split(",")
    assert int(row[0]) == int(est.checkpoints[1])
    assert float(row[1]) == est.mean_grad_sq[1]
    assert float(row[6]) == est.se_avg_gap[1]
    bare = estimates_csv(run_experiment(make_cfg(horizon=40, replicas=8)))
    assert bare.startswith("checkpoint,mean_grad_sq,se_grad_sq,mean_gap,se_gap\n")


def test_lyapunov_csv_layout():
    cfg = make_cfg(method="msgd_damped",
                   schedule={"alpha_c": 0.3, "alpha_a": 0.7, "mu_m": 1.0, "mu_b": 0.0},
                   horizon=30, replicas=4, checkpoint_stride=1, lyapunov=True)
    est = run_experiment(cfg)
    lines = lyapunov_csv(est).strip().split("\n")
    assert lines[0] == "k,alpha,mu,mean_Ht,mean_Hbar,se_delta_Ht"
    assert len(lines) == 32
    with pytest.raises(ExperimentError):
        lyapunov_csv(run_experiment(make_cfg(horizon=30, replicas=4)))


def _rowwise_csv(header, checkpoints, *columns) -> str:
    """The CSV writers' former row-by-row formatting, the reference of
    `test_csv_writers_format_every_value_as_its_float_repr`."""
    lines = [",".join(header)]
    for i, k in enumerate(checkpoints):
        lines.append(",".join([str(int(k))] + [repr(float(col[i])) for col in columns]))
    return "\n".join(lines) + "\n"


_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300,
                     -1e300, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1, 1 / 3]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 10 ** 9), min_size=n, max_size=n),
    st.lists(st.lists(_CSV_FLOATS, min_size=n, max_size=n), min_size=9, max_size=9))),
    st.booleans())
def test_csv_writers_format_every_value_as_its_float_repr(data, averaged):
    ks, cols = data
    ks = np.array(sorted(ks))
    cols = [np.array(c, dtype=float) for c in cols]
    est = _fake_estimate(ks, cols[0], cols[4] if averaged else None)
    est.se_grad_sq, est.mean_gap, est.se_gap = cols[1:4]
    if averaged:
        est.se_avg_gap = cols[5]
    est.lyap = LyapunovSeries(checkpoints=ks, alphas=cols[5], mus=cols[6], mean_ht=cols[7],
                              mean_hbar=cols[8], se_delta_ht=cols[0], replicas=8,
                              vanishing=False)
    header = ["checkpoint", "mean_grad_sq", "se_grad_sq", "mean_gap", "se_gap"]
    values = cols[:4] + ([cols[4], cols[5]] if averaged else [])
    if averaged:
        header += ["mean_avg_gap", "se_avg_gap"]
    assert estimates_csv(est) == _rowwise_csv(header, ks, *values)
    assert lyapunov_csv(est) == _rowwise_csv(
        ["k", "alpha", "mu", "mean_Ht", "mean_Hbar", "se_delta_Ht"], ks,
        cols[5], cols[6], cols[7], cols[8], cols[0])


def test_summary_dict_contents():
    assert default_burn_in(100000) == 5000
    cfg = make_cfg(method="nasgd",
                   schedule={"alpha_c": 0.3, "alpha_a": 0.6, "mu_m": 1.0, "mu_b": 0.2},
                   horizon=60, replicas=8, checkpoint_stride=5, averaged=True)
    out = summary_dict(run_experiment(cfg))
    assert out["method"] == "nasgd"
    assert out["replicas"] == 8 and out["diverged"] == 0
    assert set(out["final"]) == {"checkpoint", "mean_grad_sq", "se_grad_sq",
                                 "mean_gap", "se_gap", "mean_avg_gap", "se_avg_gap"}
    assert out["final"]["checkpoint"] == 60
    assert "running_min_grad_sq" in out
    assert set(out["averaged_bound_probe"]) == {"max_ratio", "median_ratio", "passed"}
    assert set(out["nasgd_hypothesis"]) == {"beta_hat", "l_times_beta_hat", "mu_lower",
                                            "l_beta_lt_mu", "convex", "hypothesis_ok"}
    lyap_cfg = make_cfg(method="msgd_damped",
                        schedule={"alpha_c": 0.3, "alpha_a": 0.7,
                                  "mu_m": 1.0, "mu_b": 0.0},
                        horizon=30, replicas=4, checkpoint_stride=1, lyapunov=True)
    out = summary_dict(run_experiment(lyap_cfg))
    assert set(out["descent_fit"]) == {"k_hat", "c_hat", "violation_fraction",
                                       "burn_in", "status"}


def test_sweep_records_per_cell_failures():
    good = make_cfg(horizon=30, replicas=4)
    bad = make_cfg(horizon=30, replicas=4,
                   schedule={"alpha_c": 0.5, "alpha_a": 1.6})  # exponent out of range
    result = sweep([good, bad])
    assert [r.status for r in result.rows] == ["ok", "failed"]
    assert result.rows[0].mean_grad_sq is not None
    assert result.rows[1].mean_grad_sq is None
    assert "exp_alpha" in result.rows[1].error
    text = sweep_csv(result)
    lines = text.strip().split("\n")
    assert lines[0].startswith("method,alpha_a,mu_b,status")
    assert len(lines) == 3
    assert ",failed," in lines[2]


def test_sweep_starts_at_most_one_worker_per_cell_and_only_for_enough_work(monkeypatch,
                                                                         tmp_path):
    # Each batch of cells is planned on its own (see `_plan`): a pool of
    # one worker per usable CPU and per cell once its work (replicas x
    # horizon x cells) reaches _POOL_MIN_WORK, and this process below it.
    started = []
    real_in_processes = harness._in_processes

    def recording(jobs):
        if len(jobs) > 1:
            started.append(len(jobs))
        return real_in_processes(jobs)

    monkeypatch.setattr(harness, "_in_processes", recording)
    # The cells of each `_step_range` call, as seed:alpha_a, in any process.
    cell = lambda e: f"{e.cfg.seed}:{e.cfg.schedule['alpha_a']}"
    stepped = _log_calls(monkeypatch, tmp_path, harness, "_step_range",
                         lambda exps, *args: ",".join(map(cell, exps)))
    cells = [make_cfg(horizon=20, replicas=2, schedule={"alpha_c": 0.5, "alpha_a": a})
             for a in (0.5, 0.6, 0.7)]
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    serial = sweep(cells)
    assert started == []   # 120 replica-steps, below the constant
    assert stepped() == {"1234:0.5,1234:0.6,1234:0.7": 1}   # one range, in this process
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 121)
    assert sweep(cells) == serial and started == []
    assert stepped() == {"1234:0.5,1234:0.6,1234:0.7": 1}
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 120)
    assert sweep(cells) == serial
    assert started == [3]   # one worker per cell
    assert stepped() == {"1234:0.5": 1, "1234:0.6": 1, "1234:0.7": 1}
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    started.clear()
    assert sweep(cells) == serial
    assert started == [2]   # one worker per CPU: cells w, w + 2, ...
    assert stepped() == {"1234:0.5,1234:0.7": 1, "1234:0.6": 1}
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    started.clear()
    assert sweep(cells) == serial and started == []   # one CPU: in-process
    assert stepped() == {"1234:0.5,1234:0.6,1234:0.7": 1}
    # A budget of one cell per worker: a pool for the first batch's two
    # cells, then the last cell alone, in this process.
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 80)
    budget = harness._GROUP_VALUES
    monkeypatch.setattr(harness, "_GROUP_VALUES", harness._prepare(cells[0]).values())
    started.clear()
    assert sweep(cells) == serial and started == [2]
    assert stepped() == {"1234:0.5": 1, "1234:0.6": 1, "1234:0.7": 1}
    monkeypatch.setattr(harness, "_GROUP_VALUES", budget)
    # A cell that steps as another does is not stepped again: one cell, 40
    # replica-steps stepped, so no worker starts.
    twins = [cells[0], replace(cells[0], divergence_tolerance=0.5)]
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 40)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
    started.clear()
    assert sweep(twins).rows == (serial.rows[0],) * 2
    assert started == [] and stepped() == {"1234:0.5": 1}
    # Draw groups run one after another, each planned on its own: cells 0
    # and 1 draw alike, so do cells 2 and 4, and cell 3 draws alone.
    seeds = [1234, 1234, 7, 5, 7]
    cells = [make_cfg(horizon=20, replicas=2, seed=seed,
                      schedule={"alpha_c": 0.5, "alpha_a": 0.5 + i / 10})
             for i, seed in enumerate(seeds)]
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 80)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    pooled = sweep(cells)
    assert started == [2, 2]   # a pool per group of two; cell 3 in this process
    assert stepped() == {"1234:0.5": 1, "1234:0.6": 1, "7:0.7": 1, "7:0.9": 1, "5:0.8": 1}
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert pooled == sweep(cells)


def test_alike_cells_draw_each_block_once(monkeypatch):
    # 300 replicas draw 873 iterations a refill: 3 refills over 2500.
    calls = _record_draws(monkeypatch)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)   # in-process
    mu = {"mu_m": 1.0, "mu_b": 0.2}
    cells = [make_cfg(replicas=300, horizon=2500, method=method, beta=0.6,
                      schedule={"alpha_c": 0.5, "alpha_a": a, **mu})
             for method, a in (("vsgd", 0.6), ("vsgd", 0.7), ("msgd_damped", 0.6),
                               ("msgd_classical", 0.6))]
    finished = []
    real_run = harness.run_experiment

    def recording_run(cfg, stepped=None):
        finished.append(cfg)
        return real_run(cfg, stepped)

    monkeypatch.setattr(harness, "run_experiment", recording_run)
    rows = sweep(cells).rows
    assert [r.status for r in rows] == ["ok"] * 4
    assert len(calls) == 300 * 3
    assert sorted(n for _, n in calls) == [754] * 300 + [873] * 600
    assert len({rng for rng, _ in calls}) == 300
    # Each cell's estimates still come out of run_experiment, where
    # bench/tracing.py counts the cell's replica-steps.
    assert [id(c) for c in finished] == [id(c) for c in cells]
    # A budget of two cells' experiments steps the group in two batches.
    monkeypatch.setattr(harness, "_GROUP_VALUES", 2 * harness._prepare(cells[0]).values())
    calls.clear()
    assert sweep(cells).rows == rows
    assert len(calls) == 2 * 300 * 3


@pytest.mark.parametrize("cfg", [
    make_cfg(horizon=50, replicas=4, checkpoint_stride=10),
    make_cfg(schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU}, averaged=True,
             **dict(_LYAP_STRIDE1, replicas=600, x0=[1e6],
                    problem={"kind": "quadratic", "spectrum": [4.0]})),
    make_cfg(problem={"kind": "quadratic", "spectrum": [1.0, 2.0, 4.0]}, x0=[1.0, 2.0, 3.0],
             checkpoint_stride=1, replicas=300, horizon=100),
    make_cfg(averaged=True, checkpoint_stride=1, replicas=300, horizon=100),
    make_cfg(schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU},
             **dict(_LYAP_STRIDE1, replicas=300, horizon=100)),
], ids=["chunk-of-the-whole-grid", "one-coordinate", "three-coordinates", "averaged-only",
        "energies-only"])
def test_experiment_values_count_the_checkpoint_buffers_it_allocates(cfg):
    # A sweep batches cells by values(), so it must count exactly the arrays
    # that _Checkpoints allocates: its buffers (x, grad f(x), and v and xbar
    # as held), the reduced rows and the totals.
    exp = harness._prepare(cfg)
    ck = _assert_values_count_the_allocation(exp)
    assert 1 < ck.chunk <= len(exp.grid)


def _assert_values_count_the_allocation(exp):
    """Assert that exp.values() counts the arrays its stepper allocates;
    return the stepper's _Checkpoints."""
    r, dim = exp.effective, len(exp.cfg.x0)
    ck = next(harness._steps(*exp.engine_args(), r, None))
    held = sum(buf.size for buf in ck.slots[0] + [ck.vals, ck.totals, ck.counts, ck.tilts]
               if buf is not None)
    assert exp.values() == 2 * len(exp.alphas) + 5 * r * dim + held
    return ck


def test_a_quantity_flagged_squared_in_the_table_adds_only_its_sum_of_squares(monkeypatch):
    # The table of checkpoint quantities is the one place that says which
    # sums a run keeps: flagging hbar's squares adds "sq_hbar" to the sums
    # and to values(), and leaves every other sum's bits, and every output,
    # as they were.
    cfg = make_cfg(schedule={"alpha_c": 0.5, "alpha_a": 0.7, **_CONSTANT_MU}, averaged=True,
                   **dict(_LYAP_STRIDE1, replicas=300, horizon=100))

    def stepped():
        exp = harness._prepare(cfg)
        return exp, harness._step_range([exp], 0, exp.effective)[0]

    def outputs():
        est = run_experiment(cfg)
        return estimates_csv(est), lyapunov_csv(est), summary_dict(est)

    _, (counts, sums, _) = stepped()
    before = outputs()
    flipped = tuple((name, when, squared or name == "hbar")
                    for name, when, squared in harness._QUANTITIES)
    assert flipped != harness._QUANTITIES
    monkeypatch.setattr(harness, "_QUANTITIES", flipped)
    exp, (flipped_counts, flipped_sums, _) = stepped()
    assert list(flipped_sums) == list(sums) + ["sq_hbar"]
    assert flipped_counts.tobytes() == counts.tobytes()
    for key, total in sums.items():
        assert flipped_sums[key].tobytes() == total.tobytes(), key
    # Each checkpoint's sum of squares bounds its squared sum over n.
    hbar, sq_hbar = flipped_sums["hbar"], flipped_sums["sq_hbar"]
    assert np.all(sq_hbar * counts >= hbar * hbar * (1 - 1e-12))
    _assert_values_count_the_allocation(exp)
    assert outputs() == before


def _alone(cfg):
    """cfg's sweep row from its experiment run alone."""
    try:
        return harness._sweep_row(cfg, run_experiment(cfg))
    except harness._CELL_ERRORS as e:
        return harness._sweep_row(cfg, error=e)


# The relative-noise family of _PARTIAL_DIVERGENCE at 900 iterations: 600
# replicas draw 436 iterations a refill, so each draw group refills 3 times.
_GROUPED = dict(_PARTIAL_DIVERGENCE, horizon=900, beta=0.6, divergence_tolerance=0.01)
_GROUPED_ZERO_NOISE = dict(_GROUPED, oracle={"kind": "relative_noise", "eta": 0.0})
_STEADY = {"alpha_c": 0.1375, "alpha_a": 0.0}
_GROUPED_CELLS = [
    make_cfg(**dict(_GROUPED, divergence_tolerance=0.95), schedule=_STEADY),
    make_cfg(**_GROUPED_ZERO_NOISE, schedule={"alpha_c": 0.1, "alpha_a": 0.5}),
    make_cfg(**_GROUPED, schedule=_STEADY),   # over its divergence tolerance
    make_cfg(**dict(_GROUPED, divergence_tolerance=0.95, seed=4), schedule=_STEADY),
    make_cfg(**dict(_GROUPED, divergence_tolerance=1.0),   # every replica dies
             schedule={"alpha_c": 3.0, "alpha_a": 0.0}),
    make_cfg(**_GROUPED, schedule={"alpha_c": 0.1, "alpha_a": 1.6}),   # invalid
    make_cfg(**_GROUPED_ZERO_NOISE, method="nasgd",
             schedule={"alpha_c": 0.1, "alpha_a": 0.5, **_VANISHING_MU}),
    make_cfg(**_GROUPED, method="msgd_classical", schedule={"alpha_c": 0.05, "alpha_a": 0.3}),
    make_cfg(**dict(_GROUPED, seed=4), method="msgd_classical",
             schedule={"alpha_c": 0.05, "alpha_a": 0.3}),
    # Cells 0 and 7 but for mu_b, which neither method reads.
    make_cfg(**dict(_GROUPED, divergence_tolerance=0.95),
             schedule={**_STEADY, "mu_m": 1.0, "mu_b": 0.3}),
    make_cfg(**_GROUPED, method="msgd_classical",
             schedule={"alpha_c": 0.05, "alpha_a": 0.3, "mu_m": 1.0, "mu_b": 0.3}),
] + [make_cfg(**dict(_GROUPED, divergence_tolerance=0.95), method=method,
              schedule={**_STEADY, "mu_m": 1.0, "mu_b": b})
     for method in DAMPED for b in (0.0, 0.3)] + [
    make_cfg(**_GROUPED, schedule={**_STEADY, "mu_m": 1.0, "mu_b": 1.5}),   # invalid mu_b
]


def _log_calls(monkeypatch, tmp_path, owner, name: str, line):
    """Wrap owner.name so that each call, in this process or in a forked
    one, logs line(*args) to a file; return a function that counts the
    lines logged since it was last called."""
    log = tmp_path / name
    log.write_text("")
    real = getattr(owner, name)

    def logging(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{line(*args)}\n")
        return real(*args, **kwargs)

    def logged():
        lines = Counter(log.read_text().split())
        log.write_text("")
        return lines

    monkeypatch.setattr(owner, name, logging)
    return logged


def _count_steppers(monkeypatch, tmp_path):
    """How many steppers `_steps` has built of each method (see
    `_log_calls`)."""
    return _log_calls(monkeypatch, tmp_path, harness, "_steps", lambda *args: args[2])


def test_grouped_sweep_rows_equal_each_cell_run_alone(monkeypatch, tmp_path):
    assert harness._draw_groups(_GROUPED_CELLS) == [[0, 2, 4, 5, 7, 9, 10, 11, 12, 13, 14, 15],
                                                    [1, 6], [3, 8]]
    alone = tuple(map(_alone, _GROUPED_CELLS))
    assert [r.status for r in alone] == ["ok", "ok", "failed", "ok", "failed", "failed",
                                         "ok", "ok", "ok"] + ["ok"] * 6 + ["failed"]
    assert "206 of 600 replicas diverged" in alone[2].error
    assert alone[4].error == "no replica survived to some checkpoint"
    assert "exp_alpha" in alone[5].error
    assert "exp_mu" in alone[15].error
    assert alone[1].se_gap == alone[6].se_gap == 0.0   # zero noise
    assert replace(alone[9], mu_b=0.0) == alone[0]
    assert replace(alone[10], mu_b=0.0) == alone[7]
    assert alone[11].mean_gap != alone[12].mean_gap and alone[13].mean_gap != alone[14].mean_gap
    # Cells 0, 2 and 9 step alike, and so do cells 7 and 10; each damped
    # cell steps apart.
    built = _count_steppers(monkeypatch, tmp_path)
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 0)   # workers whenever 2 CPUs are usable
    for cpus, budget in ((1, harness._GROUP_VALUES), (2, harness._GROUP_VALUES),
                         (64, harness._GROUP_VALUES), (1, 0), (2, 0)):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "_GROUP_VALUES", budget)   # 0: batches of one
        assert sweep(_GROUPED_CELLS).rows == alone, (cpus, budget)
        assert built() == {"vsgd": 4, "msgd_classical": 2, "msgd_damped": 2, "nasgd": 3}


def _lsq_grid(**run) -> list:
    """The 5 x 2 x 2 grid of methods, alpha_a and mu_b on a least-squares
    sum with a minibatch oracle, as the benchmark's sweep."""
    base = make_cfg(problem=_LSQ, oracle={"kind": "minibatch", "batch": 2, "replace": False},
                    x0=[2.0, -1.0], beta=0.6,
                    schedule={"alpha_c": 0.3, "alpha_a": 0.5, "mu_m": 1.0, "mu_b": 0.0},
                    **{"horizon": 300, "replicas": 40, **run})
    return sweep_grid(SweepSpec(base=base, methods=list(METHODS), alpha_a=[0.5, 0.7],
                                mu_b=[0.0, 0.3]))


def test_a_least_squares_grid_steps_each_distinct_cell_once(monkeypatch, tmp_path):
    # vsgd, msgd_classical and nesterov_classical read no mu_k: 2 cells
    # each, and 4 for each damped method.
    cells = _lsq_grid()
    alone = tuple(map(_alone, cells))
    assert [r.status for r in alone] == ["ok"] * 20
    built = _count_steppers(monkeypatch, tmp_path)
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 0)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        assert sweep(cells).rows == alone, cpus
        steppers = built()
        assert sum(steppers.values()) == 14
        assert steppers == {method: 4 if method in DAMPED else 2 for method in METHODS}


def test_a_worker_whose_cells_all_diverged_draws_its_share_to_the_horizon(monkeypatch,
                                                                          tmp_path):
    # 300 replicas draw 873 iterations a block: 3 blocks over 2500.  Of two
    # workers, the second steps cells 1 and 3, whose replicas all diverge
    # within the first block; the first still steps cells 0 and 2, so the
    # second draws its 150 replicas' part of every block.
    steady, wild = {"alpha_c": 0.1, "alpha_a": 0.5}, {"alpha_c": 3.0, "alpha_a": 0.0}
    cells = [make_cfg(replicas=300, horizon=2500, divergence_tolerance=1.0,
                      schedule={**schedule, "alpha_c": schedule["alpha_c"] + i / 100})
             for i, schedule in enumerate([steady, wild, steady, wild])]
    # The draws made in each process: one raw_block call per replica.
    logged = _log_calls(monkeypatch, tmp_path, GradientOracle, "raw_block",
                        lambda *args: os.getpid())
    drawn = lambda: sorted(logged().values())
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    serial = sweep(cells).rows
    assert [r.status for r in serial] == ["ok", "failed"] * 2
    assert serial[1].error == "no replica survived to some checkpoint"
    assert drawn() == [3 * 300]
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    assert sweep(cells).rows == serial
    assert drawn() == [3 * 150, 3 * 150]
    # Once every worker's cells are done, the workers stop drawing: here
    # after the first block.
    wild_cells = cells[1::2]
    serial = tuple(map(_alone, wild_cells))
    drawn()
    assert sweep(wild_cells).rows == serial
    assert drawn() == [150, 150]


def test_cells_whose_configs_hold_arrays_draw_apart():
    # == on two equal arrays gives no truth value, so these cells cannot be
    # shown to draw alike; each runs alone.
    cells = [make_cfg(horizon=20, replicas=2,
                      problem={"kind": "quadratic", "spectrum": np.array([1.0, 4.0])})
             for _ in range(2)]
    assert harness._draw_groups(cells) == [[0], [1]]
    assert sweep(cells).rows == tuple(map(_alone, cells))
