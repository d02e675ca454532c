"""The engine against exact moments on a linear problem.

On the diagonal quadratic f(x) = 1/2 (x_1^2 + 4 x_2^2) with the Gaussian
oracle F = grad f(x) - xi, xi ~ N(0, sigma^2 I), every update rule of
`optimizers` is linear in each coordinate's state s = (x, v, x_prev):
s_k = A_k s_{k-1} + b_k xi_k, where xi_k is that coordinate's noise and
A_k and b_k are read off the update equations of the `optimizers`
docstring, written out by hand in `_transition`.  The second moment
S_k = E[s_k s_k^T] then follows S_k = A_k S_{k-1} A_k^T + sigma^2 b_k b_k^T
from S_0 = s_0 s_0^T, and E gap = 1/2 sum_i lambda_i S_xx and
E ||grad f||^2 = sum_i lambda_i^2 S_xx hold exactly.  The running average
joins the state as a fourth entry, xbar_k = xbar_{k-1} + (alpha_k / W_k)
(x_{k-1} - xbar_{k-1}) with W_k = sum_{j<=k} alpha_j and xbar_0 = x_0, so
E f(xbar) - f* = 1/2 sum_i lambda_i S_xbarxbar; and the tilted energy
H~ = f - f* + 1/2 ||v||^2 + zeta_k <v, grad f> has
E H~ = 1/2 sum_i lambda_i S_xx + 1/2 sum_i S_vv + zeta_k sum_i lambda_i S_xv.
Each Monte Carlo mean must lie within z standard errors of its exact
value, z sized by Bonferroni for a family-wise false-alarm rate of 1e-3
over every comparison in this file; the seeds and the bound are fixed.
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
                beta=BETA, x0=list(X0), horizon=400, replicas=4000, seed=2026,
                averaged=True)
SWEEP_SEED = 2027
# The energy runs: stride 1, tilt zeta_k = LYAP_COEFF * mu_k (mu_b > 0 makes
# the mode "vanishing").
ENERGY_SEED, LYAP_COEFF = 2028, 0.5

# Every comparison: gap, grad_sq and avg_gap at each checkpoint after 0 for
# each method's experiment, gap and grad_sq at the last checkpoint for each
# sweep cell, and each of the horizon's increments of H~ for each method.
_POINTS = len(checkpoint_grid(BASE.horizon)) - 1
_COMPARISONS = len(METHODS) * (3 * _POINTS + 2 + BASE.horizon)
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


def _exact(method: str, horizon: int) -> dict:
    """E gap, E ||grad f||^2, E f(xbar) - f* and E H~ (tilt LYAP_COEFF mu_k)
    at iterations 0..horizon, keyed "gap", "grad_sq", "avg_gap" and "ht"."""
    moments = [np.outer([x, 0.0, x, x], [x, 0.0, x, x]) for x in X0]   # (x, v, x_prev, xbar)
    lam = np.array(SPECTRUM)
    out = {name: np.empty(horizon + 1) for name in ("gap", "grad_sq", "avg_gap", "ht")}
    weight = 0.0   # W_k
    for k in range(horizon + 1):
        mu = MU_M * k ** -MU_B if k else 0.0
        if k:
            a, a_prev = ALPHA_C * k ** -ALPHA_A, ALPHA_C * max(k - 1, 1) ** -ALPHA_A
            weight += a
            for i, l in enumerate(SPECTRUM):
                A, b = np.zeros((4, 4)), np.zeros(4)
                A[:3, :3], b[:3] = _transition(method, l, a, a_prev, mu)
                A[3, 0], A[3, 3] = a / weight, 1 - a / weight   # xbar takes x_{k-1}
                moments[i] = A @ moments[i] @ A.T + SIGMA ** 2 * np.outer(b, b)
        s = np.array(moments)
        out["gap"][k] = 0.5 * lam @ s[:, 0, 0]
        out["grad_sq"][k] = np.square(lam) @ s[:, 0, 0]
        out["avg_gap"][k] = 0.5 * lam @ s[:, 3, 3]
        out["ht"][k] = out["gap"][k] + 0.5 * s[:, 1, 1].sum() + LYAP_COEFF * mu * lam @ s[:, 0, 1]
    return out


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
    exact = _exact(method, BASE.horizon)
    ks = est.checkpoints
    assert len(ks) == _POINTS + 1 and ks[0] == 0
    for name in ("gap", "grad_sq", "avg_gap"):
        _assert_within_z(getattr(est, "mean_" + name), getattr(est, "se_" + name),
                         exact[name][ks], f"{method} {name}")


@pytest.mark.parametrize("method", METHODS)
def test_energy_increments_match_the_exact_moments(method):
    est = run_experiment(replace(BASE, method=method, seed=ENERGY_SEED, averaged=False,
                                 checkpoint_stride=1, lyapunov=True, lyap_coeff=LYAP_COEFF))
    assert est.diverged == 0 and est.lyap.vanishing
    assert np.array_equal(est.checkpoints, np.arange(BASE.horizon + 1))
    ht = _exact(method, BASE.horizon)["ht"]
    assert est.lyap.mean_ht[0] == pytest.approx(ht[0], rel=1e-12)
    # Each increment's standard error is that of the paired difference.
    _assert_within_z(np.diff(est.lyap.mean_ht), est.lyap.se_delta_ht[1:], np.diff(ht),
                     f"{method} H~ increments")


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
        exact = _exact(row.method, BASE.horizon)
        for name in ("gap", "grad_sq"):
            _assert_within_z(getattr(row, "mean_" + name), getattr(row, "se_" + name),
                             exact[name][-1], f"{row.method} {name}")
