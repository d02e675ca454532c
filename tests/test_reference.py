"""The engine against exact moments on a linear problem.

On the diagonal quadratic f(x) = 1/2 (x_1^2 + 4 x_2^2) with the Gaussian
oracle F = grad f(x) - xi, xi ~ N(0, sigma^2 I), every update rule of
`optimizers` is linear in each coordinate's state s = (x, v, x_prev):
s_k = A_k s_{k-1} + b_k xi_k, where xi_k is that coordinate's noise and
A_k and b_k are read off the update equations of the `optimizers`
docstring, written out by hand in `_transition`.  The second moment
S_k = E[s_k s_k^T] then follows S_k = A_k S_{k-1} A_k^T + sigma^2 b_k b_k^T
from S_0 = s_0 s_0^T, and E gap = 1/2 sum_i lambda_i S_xx and
E ||grad f||^2 = sum_i lambda_i^2 S_xx hold exactly.  Each Monte Carlo mean
must lie within z standard errors of its exact value, z sized by
Bonferroni for a family-wise false-alarm rate of 1e-3 over every
comparison in this file; the seeds and the bound are fixed.
"""

from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from conftest import make_cfg
from sgdlab import harness
from sgdlab.config import SweepSpec, sweep_grid
from sgdlab.harness import run_experiment, sweep
from sgdlab.optimizers import METHODS, checkpoint_grid

SPECTRUM, SIGMA, X0, BETA = (1.0, 4.0), 0.5, (3.0, -2.0), 0.5
ALPHA_C, ALPHA_A, MU_M, MU_B = 0.25, 0.6, 1.0, 0.2
BASE = make_cfg(problem={"kind": "quadratic", "spectrum": list(SPECTRUM)},
                oracle={"kind": "gaussian", "sigma": SIGMA},
                schedule={"alpha_c": ALPHA_C, "alpha_a": ALPHA_A, "mu_m": MU_M, "mu_b": MU_B},
                beta=BETA, x0=list(X0), horizon=400, replicas=4000, seed=2026)
SWEEP_SEED = 2027

# Every comparison: both quantities at each checkpoint after 0 for each
# method's experiment, and at the last checkpoint for each sweep cell.
_POINTS = len(checkpoint_grid(BASE.horizon)) - 1
_COMPARISONS = 2 * len(METHODS) * (_POINTS + 1)
Z = NormalDist().inv_cdf(1 - 1e-3 / (2 * _COMPARISONS))


def _transition(method: str, lam: float, a: float, a_prev: float, mu: float) -> tuple:
    """(A, b) of one step of method on the coordinate of eigenvalue lam, with
    step size a = alpha_k, a_prev = alpha_{k-1} and damping mu = mu_k: the
    step's -a F is -a lam x + a xi."""
    d = 1.0 - mu * a
    if method == "vsgd":   # x_k = (1 - a lam) x + a xi; v stays 0
        return [[1 - a * lam, 0, 0], [0, 1, 0], [1, 0, 0]], [a, 0, 0]
    if method == "msgd_damped":   # v_k = d v - a lam x + a xi; x_k = x + a v_k
        return [[1 - a * a * lam, a * d, 0], [-a * lam, d, 0], [1, 0, 0]], [a * a, a, 0]
    if method == "msgd_classical":   # v_k = beta v - a lam x + a xi; x_k = x + v_k
        return [[1 - a * lam, BETA, 0], [-a * lam, BETA, 0], [1, 0, 0]], [a, a, 0]
    if method == "nasgd":   # y = (1 + c) x - c x_prev; v_k = d v - a lam y + a xi
        c = d * a / a_prev
        return ([[1 - a * a * lam * (1 + c), a * d, a * a * lam * c],
                 [-a * lam * (1 + c), d, a * lam * c], [1, 0, 0]], [a * a, a, 0])
    # nesterov_classical: y = (1 + beta) x - beta x_prev; x_k = (1 - a lam) y
    # + a xi; v_k = x_k - x
    g = 1 - a * lam
    return ([[g * (1 + BETA), 0, -g * BETA], [g * (1 + BETA) - 1, 0, -g * BETA], [1, 0, 0]],
            [a, a, 0])


def _exact(method: str, horizon: int) -> tuple:
    """(E gap, E ||grad f||^2) at iterations 0..horizon."""
    moments = [np.outer([x, 0.0, x], [x, 0.0, x]) for x in X0]
    gap, grad_sq = np.empty(horizon + 1), np.empty(horizon + 1)
    for k in range(horizon + 1):
        if k:
            a, a_prev = ALPHA_C * k ** -ALPHA_A, ALPHA_C * max(k - 1, 1) ** -ALPHA_A
            for i, lam in enumerate(SPECTRUM):
                A, b = map(np.array, _transition(method, lam, a, a_prev, MU_M * k ** -MU_B))
                moments[i] = A @ moments[i] @ A.T + SIGMA ** 2 * np.outer(b, b)
        sxx = np.array([s[0, 0] for s in moments])
        gap[k] = 0.5 * np.dot(SPECTRUM, sxx)
        grad_sq[k] = np.dot(np.square(SPECTRUM), sxx)
    return gap, grad_sq


def _assert_within_z(mean, se, exact, what: str) -> None:
    mean, se, exact = map(np.atleast_1d, (mean, se, exact))
    noisy = se > 0
    # Before the first step every replica sits at x0: no noise, no error.
    assert np.allclose(mean[~noisy], exact[~noisy], rtol=1e-12, atol=0), what
    z = np.abs(mean[noisy] - exact[noisy]) / se[noisy]
    assert z.max() <= Z, f"{what}: z = {z.max():.2f} > {Z:.2f}"


@pytest.mark.parametrize("method", METHODS)
def test_experiment_means_match_the_exact_moments(method):
    est = run_experiment(replace(BASE, method=method))
    assert est.diverged == 0
    gap, grad_sq = _exact(method, BASE.horizon)
    ks = est.checkpoints
    assert len(ks) == _POINTS + 1 and ks[0] == 0
    _assert_within_z(est.mean_gap, est.se_gap, gap[ks], f"{method} gap")
    _assert_within_z(est.mean_grad_sq, est.se_grad_sq, grad_sq[ks], f"{method} grad_sq")


def test_pooled_sweep_rows_match_the_exact_moments(monkeypatch):
    plans = []
    real_plan = harness._plan

    def recording(exps):
        plans.append(real_plan(exps))
        return plans[-1]

    monkeypatch.setattr(harness, "_plan", recording)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_POOL_MIN_WORK", 0)
    cells = sweep_grid(SweepSpec(base=replace(BASE, seed=SWEEP_SEED), methods=list(METHODS),
                                 alpha_a=[ALPHA_A], mu_b=[MU_B]))
    rows = sweep(cells).rows
    assert [plan[2] for plan in plans] == [2]   # one batch, in a pool of two workers
    for row in rows:
        assert row.status == "ok", row.error
        gap, grad_sq = _exact(row.method, BASE.horizon)
        _assert_within_z(row.mean_gap, row.se_gap, gap[-1], f"{row.method} gap")
        _assert_within_z(row.mean_grad_sq, row.se_grad_sq, grad_sq[-1],
                         f"{row.method} grad_sq")
