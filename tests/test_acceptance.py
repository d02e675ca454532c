"""Acceptance gate: one test per shipped guarantee.

The Monte Carlo experiments are expensive, so each lives in a module-scoped
fixture shared between its criterion test and the manifest-replay test at the
end.  Constants marked pilot-fixed were frozen from independent calibration
runs (seeds 99/101/103) before this suite was written, so the thresholds are
not tuned to the runs they judge.
"""

import time

import numpy as np
import pytest

from sgdlab import (ExperimentConfig, averaged_bound_probe, check_gradient,
                    classify, config_from_manifest, descent_fit, estimates_csv,
                    gaussian_oracle, init_state, least_squares_sum,
                    liminf_probe, make_power_schedule, manifest_dict,
                    minibatch_oracle, numeric_probe, pseudo_huber, quadratic,
                    relative_noise_oracle, run_experiment, select_zeta,
                    smooth_rastrigin, summary_dict, triplet_probe,
                    verify_bound, vsgd_step)
from sgdlab.config import build_problem, build_schedule
from sgdlab.harness import (default_burn_in, lyapunov_csv, nasgd_hypothesis,
                            resolve_lyapunov)

SEED = 20260814          # acceptance seed, disjoint from the pilot seeds
REPLICAS = 200
HORIZON = 100_000

# Pilot-fixed constants, frozen before this suite existed:
LIMINF_THRESHOLD = 0.08540655360218354  # 2x the worse of two pilot finals
TRIPLET_C_Y = 0.25                      # dissipation share retained per step
TRIPLET_C_Z = 340335.1049015572         # 1.25x the pilot p99.9 noise demand
AVG_PROBE_BURN_IN = 0.2                 # ratio series settles past 20% of checkpoints


def _timed(cfg):
    t0 = time.perf_counter()
    est = run_experiment(cfg)
    return est, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rastrigin_run():
    """Plain SGD on a nonconvex landscape, square-summable steps."""
    return _timed(ExperimentConfig(
        problem={"kind": "smooth_rastrigin", "dim": 2, "amplitude": 10.0},
        oracle={"kind": "gaussian", "sigma": 0.5},
        schedule={"alpha_c": 0.5, "alpha_a": 0.6},
        method="vsgd", horizon=HORIZON, replicas=REPLICAS, seed=SEED,
        x0=[2.5, -1.5], checkpoint_stride=1,
    ))


@pytest.fixture(scope="module")
def slow_decay_run():
    """Plain SGD with non-square-summable steps (vanishing tail product)."""
    return _timed(ExperimentConfig(
        problem={"kind": "pseudo_huber", "dim": 2},
        oracle={"kind": "gaussian", "sigma": 0.5},
        schedule={"alpha_c": 1.0, "alpha_a": 0.4},
        method="vsgd", horizon=HORIZON, replicas=REPLICAS, seed=SEED,
        x0=[3.0, -2.0], checkpoint_stride=1000,
    ))


@pytest.fixture(scope="module")
def const_damping_run():
    """Damped momentum with constant damping, energy series recorded."""
    return _timed(ExperimentConfig(
        problem={"kind": "quadratic", "spectrum": [1.0, 4.0]},
        oracle={"kind": "gaussian", "sigma": 0.5},
        schedule={"alpha_c": 0.5, "alpha_a": 0.7, "mu_m": 1.0, "mu_b": 0.0},
        method="msgd_damped", horizon=HORIZON, replicas=REPLICAS, seed=SEED,
        x0=[3.0, 1.0], checkpoint_stride=1, lyapunov=True,
    ))


@pytest.fixture(scope="module")
def vanishing_damping_run():
    """Damped momentum with admissible vanishing damping."""
    return _timed(ExperimentConfig(
        problem={"kind": "quadratic", "spectrum": [1.0, 4.0]},
        oracle={"kind": "gaussian", "sigma": 0.5},
        schedule={"alpha_c": 1.0, "alpha_a": 0.7, "mu_m": 1.0, "mu_b": 0.2},
        method="msgd_damped", horizon=HORIZON, replicas=REPLICAS, seed=SEED,
        x0=[3.0, 1.0], checkpoint_stride=100,
    ))


@pytest.fixture(scope="module")
def noiseless_damping_run():
    """The constant-damping experiment with the noise turned off."""
    return _timed(ExperimentConfig(
        problem={"kind": "quadratic", "spectrum": [1.0, 4.0]},
        oracle={"kind": "gaussian", "sigma": 0.0},
        schedule={"alpha_c": 0.5, "alpha_a": 0.7, "mu_m": 1.0, "mu_b": 0.0},
        method="msgd_damped", horizon=HORIZON, replicas=REPLICAS, seed=SEED,
        x0=[3.0, 1.0], checkpoint_stride=1, lyapunov=True,
    ))


@pytest.fixture(scope="module")
def lookahead_run():
    """Schedule-coupled look-ahead momentum on a convex problem."""
    return _timed(ExperimentConfig(
        problem={"kind": "pseudo_huber", "dim": 2},
        oracle={"kind": "gaussian", "sigma": 0.5},
        schedule={"alpha_c": 0.5, "alpha_a": 0.7, "mu_m": 1.0, "mu_b": 0.0},
        method="nasgd", horizon=HORIZON, replicas=REPLICAS, seed=SEED,
        x0=[3.0, -2.0], checkpoint_stride=100,
    ))


@pytest.fixture(scope="module")
def averaged_run():
    """Plain SGD with step-weighted iterate averaging."""
    return _timed(ExperimentConfig(
        problem={"kind": "pseudo_huber", "dim": 2},
        oracle={"kind": "gaussian", "sigma": 0.5},
        schedule={"alpha_c": 1.0, "alpha_a": 0.6},
        method="vsgd", horizon=HORIZON, replicas=REPLICAS, seed=SEED,
        x0=[3.0, -2.0], checkpoint_stride=1000, averaged=True,
    ))


def _at(est, ks):
    idx = np.searchsorted(est.checkpoints, ks)
    assert np.array_equal(est.checkpoints[idx], ks)
    return idx


def test_criterion_01_gradients_certified_at_seeded_points():
    t0 = time.perf_counter()
    lsq = least_squares_sum([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]],
                            [1.0, -0.5, 2.0])
    problems = [quadratic([1.0, 4.0]), pseudo_huber(3),
                smooth_rastrigin(2, 10.0), lsq]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for p in problems:
        for x in rng.uniform(-4.0, 4.0, size=(100, p.dim)):
            worst = max(worst, check_gradient(p, x))
    assert worst < 1e-5
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_noiseless_sgd_contracts_bitwise():
    t0 = time.perf_counter()
    p = quadratic([1.0], [0.0])
    orc = gaussian_oracle(p, 0.0, seed=SEED)
    state = init_state([1.0])
    closed = 1.0
    for _ in range(50):
        state = vsgd_step(state, orc.sample(state.x), 0.5)
        closed *= 0.5
        assert state.x[0] == closed
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_classifier_matches_numeric_partial_sums():
    t0 = time.perf_counter()
    for a in (0.2, 1.0 / 3.0, 0.4, 0.5, 0.6, 1.0, 1.2):
        for b in (0.0, 0.2, 0.4):
            s = make_power_schedule(1.0, a, 1.0, b)
            cls = classify(s)
            lo = numeric_probe(s, 10 ** 5)
            hi = numeric_probe(s, 10 ** 6)
            tail_shrinks = hi.tail_product < 0.95 * lo.tail_product
            sum_grows = hi.sum_alpha > 1.10 * lo.sum_alpha
            assert tail_shrinks == cls.thm22_condition, (a, b)
            assert sum_grows == cls.diverges, (a, b)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_gradient_norms_vanish_on_rastrigin(rastrigin_run):
    est, secs = rastrigin_run
    assert est.diverged == 0
    rm = liminf_probe(est)[_at(est, [1_000, 10_000, 100_000])]
    assert rm[0] > rm[1] > rm[2]
    assert rm[2] < LIMINF_THRESHOLD
    assert secs < 180.0


def test_criterion_05_gap_shrinks_without_square_summability(slow_decay_run):
    est, secs = slow_decay_run
    assert est.diverged == 0
    idx = _at(est, [1_000, 10_000, 100_000])
    gap, se = est.mean_gap[idx], est.se_gap[idx]
    assert gap[2] < gap[0]
    # Monotone within error bands at consecutive decades.
    assert gap[1] <= gap[0] + 2.0 * (se[0] + se[1])
    assert gap[2] <= gap[1] + 2.0 * (se[1] + se[2])
    assert secs < 180.0


def test_criterion_06_damped_momentum_drives_gradients_down(
        const_damping_run, vanishing_damping_run):
    total = 0.0
    for est, secs in (const_damping_run, vanishing_damping_run):
        total += secs
        assert est.diverged == 0
        rm = liminf_probe(est)[_at(est, [100, 1_000, 10_000, 100_000])]
        assert np.all(np.diff(rm) < 0.0)
    cls = classify(build_schedule(vanishing_damping_run[0].config.schedule))
    assert cls.damping_admissible and cls.l_mu == 0.0
    assert total < 240.0


def test_criterion_07_energy_descent_bound_fits(const_damping_run,
                                                noiseless_damping_run):
    est, _ = const_damping_run
    problem = build_problem(est.config.problem)
    mode, coeff = resolve_lyapunov(est.config, problem,
                                   build_schedule(est.config.schedule))
    assert mode == "constant"
    assert coeff == select_zeta(problem.smoothness_l, 1.0, 1.0)
    t0 = time.perf_counter()
    fit = descent_fit(est.lyap, default_burn_in(est.config.horizon))
    assert fit.status == "ok"
    assert fit.violation_fraction <= 0.05
    zero_est, zero_secs = noiseless_damping_run
    zero_fit = descent_fit(zero_est.lyap, default_burn_in(zero_est.config.horizon))
    assert zero_fit.status == "ok"
    assert zero_fit.violation_fraction == 0.0
    assert (time.perf_counter() - t0) + zero_secs < 120.0


def test_criterion_08_lookahead_converges_and_records_hypothesis(lookahead_run):
    est, secs = lookahead_run
    assert est.diverged == 0
    rm = liminf_probe(est)[_at(est, [1_000, 10_000, 100_000])]
    assert rm[0] > rm[1] > rm[2]
    note = summary_dict(est)["nasgd_hypothesis"]
    assert note == nasgd_hypothesis(est)
    # L * beta_hat = 1 * 1 fails the strict inequality against inf mu = 1;
    # convexity is what licenses the run, and both facts are on record.
    assert note["l_beta_lt_mu"] is False
    assert note["convex"] is True
    assert note["hypothesis_ok"] is True
    assert secs < 180.0


def test_criterion_09_averaged_iterates_obey_scale_bound(averaged_run):
    est, secs = averaged_run
    assert est.diverged == 0
    probe = averaged_bound_probe(est, burn_in_frac=AVG_PROBE_BURN_IN)
    assert probe.passed
    avg = est.mean_avg_gap[_at(est, [1_000, 100_000])]
    assert avg[1] < avg[0]
    assert secs < 180.0


def test_criterion_10_noise_bounds_hold_empirically():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    quad = quadratic([1.0, 4.0])
    hub = pseudo_huber(2)
    lsq = least_squares_sum([[1.0], [1.0]], [1.0, -1.0])
    # One seed per oracle: a shared seed would hand the gaussian and
    # relative-noise oracles identical raw normal streams.
    suites = [
        (gaussian_oracle(quad, 0.5, seed=SEED), quad,
         rng.uniform(-3.0, 3.0, size=(20, 2))),
        (relative_noise_oracle(hub, 0.5, seed=SEED + 1), hub,
         rng.uniform(-3.0, 3.0, size=(20, 2))),
        (minibatch_oracle(lsq, 1, seed=SEED + 2), lsq,
         rng.uniform(-3.0, 3.0, size=(20, 1))),
    ]
    for orc, p, pts in suites:
        assert verify_bound(orc, p, pts, 100_000).all_passed
    # Two equal rows with opposite targets: at x = 0 the aggregate gradient
    # is 0 while every single-row draw returns -1 or +1, so the noise has
    # squared norm 1 on each draw and the empirical second moment is exact.
    rep = verify_bound(minibatch_oracle(lsq, 1, seed=SEED + 2), lsq,
                       [[0.0]], 100_000)
    chk = rep.checks[0]
    assert chk.passed
    assert abs(chk.second_moment - 1.0) <= chk.second_tol
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_value_recursion_holds_with_frozen_constants(rastrigin_run):
    est, _ = rastrigin_run
    assert np.array_equal(est.checkpoints, np.arange(est.config.horizon + 1))
    s = build_schedule(est.config.schedule)
    alphas = np.concatenate([[0.0], s.alphas(est.config.horizon)])
    x = est.mean_gap
    y = np.concatenate([[0.0], TRIPLET_C_Y * est.mean_grad_sq[:-1]])
    z = TRIPLET_C_Z * alphas
    report = triplet_probe(x, y, z, alphas, tol=0.0)
    assert report.fraction_holding >= 0.95


def test_criterion_12_manifest_replays_are_byte_identical(
        rastrigin_run, slow_decay_run, const_damping_run,
        vanishing_damping_run, noiseless_damping_run, lookahead_run,
        averaged_run):
    runs = (rastrigin_run, slow_decay_run, const_damping_run,
            vanishing_damping_run, noiseless_damping_run, lookahead_run,
            averaged_run)
    for est, _ in runs:
        replay = run_experiment(config_from_manifest(manifest_dict(est.config)))
        assert estimates_csv(replay) == estimates_csv(est)
        if est.lyap is not None:
            assert lyapunov_csv(replay) == lyapunov_csv(est)
