"""Energy scalars, tilt selection, descent-bound fitting, triplet recursion probe."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgdlab
from sgdlab.errors import ParameterError
from sgdlab import lyapunov
from sgdlab.lyapunov import (LyapunovSeries, descent_fit, scalars, select_lambda,
                             select_zeta, triplet_probe)
from sgdlab.problems import quadratic
from sgdlab.rng import stream
from sgdlab.schedules import PowerSchedule


def test_energy_scalars_hand_values():
    p = quadratic([1.0, 4.0])
    x = np.array([1.0, 0.5])
    v = np.array([0.5, -1.0])
    s = scalars(p, x, v, coeff=0.25)
    assert s.h == 1.0 + 1.25 / 2.0          # gap + ||v||^2 / 2
    assert s.h_bar == 5.0 + 1.25            # ||grad||^2 + ||v||^2
    assert s.z_tilde == 0.5 * 1.0 - 1.0 * 2.0
    assert s.h_tilde == s.h + 0.25 * s.z_tilde


def test_energy_scalars_require_a_known_minimum():
    unknown = dataclasses.replace(quadratic([1.0]), minimum=None)
    with pytest.raises(ParameterError):
        scalars(unknown, np.zeros(1), np.zeros(1), 0.1)


def test_tilt_selection_frozen_values():
    assert select_zeta(1.0, 1.0, 1.0) == 0.4
    assert select_zeta(10.0, 1.0, 1.0) == pytest.approx(1.0 / 20.5, rel=1e-15)
    assert select_zeta(4.0, 1.0, 1.0) == pytest.approx(2.0 / 17.0, rel=1e-15)
    # the selected tilt satisfies zeta * (mu_hi^2/4 + L) = mu_lo / 2
    for l_smooth, mu_lo, mu_hi in [(2.0, 0.5, 1.0), (7.0, 0.2, 0.3)]:
        zeta = select_zeta(l_smooth, mu_lo, mu_hi)
        assert zeta * (mu_hi ** 2 / 4.0 + l_smooth) == pytest.approx(mu_lo / 2.0)


def test_tilt_scale_for_vanishing_damping():
    assert select_lambda(2.0, 0.0) == 0.25
    assert select_lambda(1.0, 2.0) == 0.25
    # non-increasing in the drift constant
    vals = [select_lambda(3.0, l_mu) for l_mu in (0.0, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_tilt_selection_validates_arguments():
    with pytest.raises(ParameterError):
        select_zeta(0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        select_zeta(1.0, 2.0, 1.0)   # mu_lo > mu_hi
    with pytest.raises(ParameterError):
        select_zeta(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        select_lambda(-1.0, 0.0)
    with pytest.raises(ParameterError):
        select_lambda(1.0, -0.1)


@given(xs=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       vs=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_cross_term_is_dominated_by_the_dissipation(xs, vs):
    # |<v, grad>| <= (||grad||^2 + ||v||^2) / 2, whatever the state
    p = quadratic([1.0, 2.0, 3.0])
    s = scalars(p, np.array(xs), np.array(vs), coeff=0.0)
    assert abs(s.z_tilde) - 0.5 * s.h_bar <= 1e-9 * max(1.0, s.h_bar)


def _synthetic_series(n: int, k_true: float, c_true: float, vanishing: bool):
    """Means following the descent recursion exactly (zero standard errors)."""
    s = PowerSchedule(0.5, 0.7, 1.0, 0.2 if vanishing else 0.0)
    ks = np.arange(0, n + 1)
    alphas = np.concatenate([[0.0], s.alphas(n)])
    mus = np.concatenate([[0.0], s.mus(n)])
    hbar = stream(31).uniform(0.5, 2.0, size=n + 1)
    w = alphas * mus if vanishing else alphas
    mean_ht = np.empty(n + 1)
    mean_ht[0] = 5.0
    for i in range(1, n + 1):
        mean_ht[i] = mean_ht[i - 1] - k_true * (w[i] * hbar[i - 1]) + c_true * alphas[i] ** 2
    return LyapunovSeries(checkpoints=ks, alphas=alphas, mus=mus, mean_ht=mean_ht,
                          mean_hbar=hbar, se_delta_ht=np.zeros(n + 1), replicas=4,
                          vanishing=vanishing)


@pytest.mark.parametrize("vanishing", [False, True])
def test_descent_fit_recovers_planted_constants(vanishing):
    series = _synthetic_series(80, k_true=0.35, c_true=0.6, vanishing=vanishing)
    fit = descent_fit(series, burn_in=0)
    assert fit.status == "ok"
    assert fit.k_hat == pytest.approx(0.35, rel=1e-5)
    assert fit.c_hat == pytest.approx(0.6, rel=1e-5)
    # zero-slack series: the fitted envelope must hold at every checkpoint
    assert fit.violation_fraction == 0.0


def test_descent_fit_burn_in_is_respected():
    series = _synthetic_series(80, k_true=0.2, c_true=0.1, vanishing=False)
    # corrupt the early checkpoints only; a burn-in past them restores the fit
    bad = series.mean_ht.copy()
    bad[1:6] += np.array([0.5, -0.4, 0.3, -0.2, 0.1])
    corrupted = LyapunovSeries(checkpoints=series.checkpoints, alphas=series.alphas,
                               mus=series.mus, mean_ht=bad, mean_hbar=series.mean_hbar,
                               se_delta_ht=series.se_delta_ht, replicas=4,
                               vanishing=False)
    fit = descent_fit(corrupted, burn_in=10)
    assert fit.violation_fraction == 0.0
    assert fit.k_hat == pytest.approx(0.2, rel=1e-5)
    assert fit.burn_in == 10


def test_descent_fit_without_dissipation_signal():
    # flat dissipation: K is unidentifiable; drift must be explained by C alone
    s = PowerSchedule(0.5, 0.7)
    n = 40
    alphas = np.concatenate([[0.0], s.alphas(n)])
    zeros = np.zeros(n + 1)
    drift = np.concatenate([[2.0], 2.0 + np.cumsum(0.3 * s.alphas(n) ** 2)])
    series = LyapunovSeries(checkpoints=np.arange(n + 1), alphas=alphas, mus=zeros,
                            mean_ht=drift, mean_hbar=zeros, se_delta_ht=zeros,
                            replicas=2, vanishing=False)
    fit = descent_fit(series, burn_in=0)
    assert fit.status == "inconclusive"
    assert fit.k_hat == 0.0
    assert fit.c_hat == pytest.approx(0.3, rel=1e-6)
    flat = LyapunovSeries(checkpoints=np.arange(n + 1), alphas=alphas, mus=zeros,
                          mean_ht=np.full(n + 1, 2.0), mean_hbar=zeros,
                          se_delta_ht=zeros, replicas=2, vanishing=False)
    fit = descent_fit(flat, burn_in=0)
    assert fit.status == "ok"
    assert fit.k_hat == 0.0 and fit.c_hat == 0.0 and fit.violation_fraction == 0.0


def test_descent_fit_validates_its_inputs():
    good = _synthetic_series(80, 0.3, 0.5, vanishing=False)
    with pytest.raises(ParameterError):
        descent_fit(_synthetic_series(8, 0.3, 0.5, False), burn_in=0)
    strided = LyapunovSeries(checkpoints=good.checkpoints[::2], alphas=good.alphas[::2],
                             mus=good.mus[::2], mean_ht=good.mean_ht[::2],
                             mean_hbar=good.mean_hbar[::2],
                             se_delta_ht=good.se_delta_ht[::2], replicas=4,
                             vanishing=False)
    with pytest.raises(ParameterError):
        descent_fit(strided, burn_in=0)
    with pytest.raises(ParameterError):
        descent_fit(good, burn_in=40)   # >= horizon / 2
    with pytest.raises(ParameterError):
        descent_fit(good, burn_in=-1)
    lone = LyapunovSeries(checkpoints=good.checkpoints, alphas=good.alphas,
                          mus=good.mus, mean_ht=good.mean_ht,
                          mean_hbar=good.mean_hbar, se_delta_ht=good.se_delta_ht,
                          replicas=1, vanishing=False)
    with pytest.raises(ParameterError):
        descent_fit(lone, burn_in=0)


@pytest.mark.parametrize("name", ["mean_ht", "mean_hbar", "se_delta_ht", "alphas", "mus"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_descent_fit_rejects_a_non_finite_series(name, bad):
    good = _synthetic_series(40, 0.3, 0.5, vanishing=True)
    values = getattr(good, name).copy()
    values[10] = bad
    series = dataclasses.replace(good, **{name: values})
    with pytest.raises(ParameterError, match=f"{name} is not finite"):
        descent_fit(series, burn_in=0)


def _exact_triplet(n: int):
    rng = stream(101)
    y = np.abs(rng.normal(size=n)) + 0.1
    z = rng.normal(size=n) * 0.1 + 0.3
    # rising tail keeps the minimum interior, so the partial-sum slack has a
    # real margin instead of sitting at 0 up to rounding
    z[-10:] = y[-10:] + 0.5
    a = PowerSchedule(1.0, 0.6).alphas(n)
    x = np.empty(n)
    x[0] = 4.0
    for k in range(1, n):
        x[k] = x[k - 1] - a[k] * y[k] + a[k] * z[k]
    return x, y, z, a


def test_triplet_probe_accepts_an_exact_recursion():
    x, y, z, a = _exact_triplet(50)
    report = triplet_probe(x, y, z, a)
    assert report.holds_everywhere
    assert report.violations == 0
    assert report.fraction_holding == 1.0
    assert report.k_const >= 0.0
    assert report.partial_sum_ok
    assert np.array_equal(report.running_min_y, np.minimum.accumulate(y))


def test_triplet_probe_counts_planted_violations():
    x, y, z, a = _exact_triplet(50)
    x[20] += 1.0
    report = triplet_probe(x, y, z, a)
    assert not report.holds_everywhere
    assert report.violations == 1
    assert report.fraction_holding == pytest.approx(48.0 / 49.0)
    # a tolerance wide enough absorbs the bump
    assert triplet_probe(x, y, z, a, tol=2.0).holds_everywhere


def test_triplet_probe_validates_inputs():
    x, y, z, a = _exact_triplet(50)
    with pytest.raises(ParameterError):
        triplet_probe(x[:-1], y, z, a)
    with pytest.raises(ParameterError):
        triplet_probe(x[:5], y[:5], z[:5], a[:5])
    bad_y = y.copy()
    bad_y[3] = -0.5
    with pytest.raises(ParameterError):
        triplet_probe(x, bad_y, z, a)
    bad_a = a.copy()
    bad_a[3] = 0.0
    with pytest.raises(ParameterError):
        triplet_probe(x, y, z, bad_a)


_FIT_IN_SUBPROCESS = """
from sgdlab import ExperimentConfig
from sgdlab.harness import default_burn_in, run_experiment
from sgdlab.lyapunov import descent_fit
cfg = ExperimentConfig(
    problem={"kind": "quadratic", "spectrum": [1.0, 4.0]},
    oracle={"kind": "gaussian", "sigma": 0.5},
    schedule={"alpha_c": 0.5, "alpha_a": 0.7, "mu_m": 1.0, "mu_b": 0.0},
    method="msgd_damped", horizon=20000, replicas=50, seed=2026, x0=[3.0, 1.0],
    checkpoint_stride=1, lyapunov=True)
fit = descent_fit(run_experiment(cfg).lyap, default_burn_in(cfg.horizon))
print(fit.k_hat.hex(), fit.c_hat.hex())
"""


def test_descent_fit_does_not_depend_on_the_blas_thread_count():
    # A 19000-checkpoint fit: long enough for a threaded BLAS to split its
    # dot products across threads.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgdlab.__file__)))
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        procs.append(subprocess.Popen([sys.executable, "-c", _FIT_IN_SUBPROCESS], env=env,
                                      stdout=subprocess.PIPE, text=True))
    outs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0].split() and outs[0] == outs[1]


def _random_fit_problem(seed):
    """Random (d, reg_k, reg_c, slack): reg_k over seven decades, noise over
    five, and zero slack on about half of the draws."""
    rng = stream(seed)
    n = int(rng.integers(5, 200))
    reg_k = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.integers(-3, 4)
    reg_c = rng.uniform(0.1, 1.0, n) ** 2
    d = (-rng.uniform() * reg_k + rng.uniform() * reg_c
         + rng.normal(0.0, 10.0 ** rng.integers(-4, 1), n))
    slack = np.abs(rng.normal(0.0, 1e-2, n)) * rng.integers(0, 2)
    return d, reg_k, reg_c, slack


def _residual_sq(d, reg_k, reg_c, k, c):
    r = d + k * reg_k - c * reg_c
    return float(r @ r)


def _violations(d, reg_k, reg_c, slack, k, c):
    return int(np.sum(d > -k * reg_k + c * reg_c + slack))


def _search_range(d, reg_k):
    """The K interval [0, k_hi] that a bounded scalar search would scan."""
    k_ls = max(0.0, -float(reg_k @ d) / float(reg_k @ reg_k))
    return 4.0 * k_ls + 10.0 * float(np.max(np.abs(d))) / float(np.max(reg_k))


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_constrained_fit_is_feasible_and_no_worse_than_a_dense_grid(seed):
    d, reg_k, reg_c, slack = _random_fit_problem(seed)
    k_hat, c_hat = lyapunov._constrained_fit(d, reg_k, reg_c, slack)
    assert k_hat >= 0.0 and c_hat >= 0.0
    # every constraint holds up to rounding in its own terms
    excess = d + k_hat * reg_k - c_hat * reg_c - slack
    assert np.all(excess <= 1e-12 * (np.abs(d) + k_hat * reg_k + c_hat * reg_c + slack))

    def profile(k):
        # the fit's C at K, written out here: the least-squares C, or the
        # smallest feasible C inflated by one part in 1e12 if that is larger
        c_ls = float(reg_c @ (d + k * reg_k)) / float(reg_c @ reg_c)
        c_env = max(0.0, float(np.max((d + k * reg_k - slack) / reg_c))) * (1.0 + 1e-12)
        return _residual_sq(d, reg_k, reg_c, k, max(c_ls, c_env))

    grid = np.concatenate([np.linspace(0.0, max(_search_range(d, reg_k), 2.0 * k_hat), 401),
                           k_hat * np.linspace(0.99, 1.01, 101)])
    best = min(profile(k) for k in grid)
    assert _residual_sq(d, reg_k, reg_c, k_hat, c_hat) <= best + 1e-12 * float(d @ d)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_constrained_fit_is_no_worse_than_scipys_bounded_search(seed):
    minimize_scalar = pytest.importorskip("scipy.optimize").minimize_scalar
    d, reg_k, reg_c, slack = _random_fit_problem(seed)
    k_hat, c_hat = lyapunov._constrained_fit(d, reg_k, reg_c, slack)

    def c_for(k):
        c_ls = float(reg_c @ (d + k * reg_k)) / float(reg_c @ reg_c)
        return max(c_ls, lyapunov._envelope_c(k, d, reg_k, reg_c, slack))

    def objective(k):
        return _residual_sq(d, reg_k, reg_c, k, c_for(k))

    k_hi = _search_range(d, reg_k)
    k_ref = float(minimize_scalar(objective, bounds=(0.0, k_hi), method="bounded",
                                  options={"xatol": 1e-12 * max(1.0, k_hi)}).x)
    if objective(0.0) <= objective(k_ref):
        k_ref = 0.0
    c_ref = c_for(k_ref)
    assert (_residual_sq(d, reg_k, reg_c, k_hat, c_hat)
            <= _residual_sq(d, reg_k, reg_c, k_ref, c_ref) + 1e-12 * float(d @ d))
    assert (_violations(d, reg_k, reg_c, slack, k_hat, c_hat)
            <= _violations(d, reg_k, reg_c, slack, k_ref, c_ref))


@pytest.mark.parametrize("vanishing", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_descent_fit_on_a_zero_slack_series_has_no_violations(seed, vanishing):
    # noise off the model makes constraints active; with zero standard
    # errors the envelope must still hold exactly at every checkpoint
    series = _synthetic_series(200, k_true=0.35, c_true=0.6, vanishing=vanishing)
    noisy = series.mean_ht + stream(seed).normal(0.0, 1e-3, series.mean_ht.size)
    fit = descent_fit(dataclasses.replace(series, mean_ht=noisy), burn_in=0)
    assert fit.status == "ok"
    assert fit.violation_fraction == 0.0
