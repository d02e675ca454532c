"""Update rules, iterate averaging, the single-run driver, trajectory formats."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sgdlab.errors import DivergenceError, ParameterError
from sgdlab.lyapunov import scalars
from sgdlab.optimizers import (DIVERGENCE_RADIUS, METHODS, all_within_radius,
                               averaged_update, checkpoint_grid, init_average,
                               init_state, msgd_classical_step, msgd_damped_step,
                               nasgd_step, nesterov_classical_step, run, trajectory_csv,
                               trajectory_json, vsgd_step, within_radius)
from sgdlab.oracles import gaussian_oracle
from sgdlab.problems import pseudo_huber, quadratic
from sgdlab.rng import stream
from sgdlab.schedules import PowerSchedule


def test_vsgd_contraction_is_bitwise_exact():
    # deterministic gradient, lambda = 1, alpha = 1/2: x_k = x_0 / 2^k exactly
    p = quadratic([1.0])
    state = init_state([1.0])
    closed = 1.0
    for _ in range(50):
        state = vsgd_step(state, p.gradient(state.x), 0.5)
        closed = closed * 0.5
        assert state.x[0] == closed


def test_msgd_damped_velocity_and_position_update():
    state = init_state([1.0, 0.0])
    state.v = np.array([0.2, -0.1])
    g = np.array([1.0, 2.0])
    out = msgd_damped_step(state, g, alpha=0.1, mu=0.5)
    v_expected = state.v - 0.5 * 0.1 * state.v - 0.1 * g
    assert np.array_equal(out.v, v_expected)
    assert np.array_equal(out.x, state.x + 0.1 * v_expected)
    assert np.array_equal(out.x_prev, state.x)
    assert out.k == 1


def test_classical_momentum_with_beta_zero_equals_vsgd_bitwise():
    g_draws = stream(3).normal(size=(20, 2))
    a = init_state([1.0, -1.0])
    b = init_state([1.0, -1.0])
    for g in g_draws:
        a = vsgd_step(a, g, 0.3)
        b = msgd_classical_step(b, g, 0.3, beta=0.0)
        assert np.array_equal(a.x, b.x)


def test_damped_and_classical_momentum_are_conjugate():
    # constant alpha: damped(alpha, mu) and classical(alpha^2, beta = 1 - mu*alpha)
    # generate the same x sequence with v_classical = alpha * v_damped
    p = quadratic([1.0, 4.0], [0.5, -0.5])
    alpha, mu = 0.1, 1.0
    d = init_state([2.0, 1.0])
    c = init_state([2.0, 1.0])
    for _ in range(200):
        d = msgd_damped_step(d, p.gradient(d.x), alpha, mu)
        c = msgd_classical_step(c, p.gradient(c.x), alpha * alpha, beta=1.0 - mu * alpha)
        assert np.allclose(c.x, d.x, rtol=1e-12, atol=1e-14)
        assert np.allclose(c.v, alpha * d.v, rtol=1e-12, atol=1e-14)


def test_nasgd_from_rest_equals_damped_step_bitwise():
    # x_prev = x and v = 0: the look-ahead vanishes and both rules coincide
    p = quadratic([1.0, 4.0])
    orc = gaussian_oracle(p, 0.5, seed=11)
    state = init_state([1.0, -2.0])
    raw = orc.raw_block(stream(42), 1)[0]
    nast = nasgd_step(state, orc, alpha=0.2, alpha_prev=0.2, mu=1.0, raw=raw)
    g = orc.stoch_grad(state.x, raw)
    damped = msgd_damped_step(init_state([1.0, -2.0]), g, alpha=0.2, mu=1.0)
    assert np.array_equal(nast.x, damped.x)
    assert np.array_equal(nast.v, damped.v)


def test_nasgd_lookahead_point_and_momentum_factor():
    # hand-computed step in one dimension with a moving history
    p = quadratic([1.0])
    orc = gaussian_oracle(p, 0.0, seed=0)
    state = init_state([1.0])
    state.x = np.array([0.8])
    state.x_prev = np.array([1.0])
    state.v = np.array([-0.5])
    alpha, alpha_prev, mu = 0.1, 0.2, 1.0
    out = nasgd_step(state, orc, alpha, alpha_prev, mu, raw=np.zeros(1))
    beta = (1.0 - mu * alpha) * alpha / alpha_prev            # 0.45
    y = 0.8 + beta * (0.8 - 1.0)                              # 0.71
    v = (1.0 - mu * alpha) * (-0.5) - alpha * y               # gradient of q at y is y
    assert out.v[0] == pytest.approx(v, rel=1e-15)
    assert out.x[0] == pytest.approx(0.8 + alpha * v, rel=1e-15)


def test_nesterov_classical_geometry_and_velocity():
    p = quadratic([1.0])
    orc = gaussian_oracle(p, 0.0, seed=0)
    state = init_state([1.0])
    state.x = np.array([0.9])
    state.x_prev = np.array([1.0])
    out = nesterov_classical_step(state, orc, alpha=0.2, beta=0.5, raw=np.zeros(1))
    y = 0.9 + 0.5 * (0.9 - 1.0)
    x_new = y - 0.2 * y
    assert out.x[0] == pytest.approx(x_new, rel=1e-15)
    assert np.array_equal(out.v, out.x - np.array([0.9]))
    assert out.x_prev[0] == 0.9


def test_damping_boundary_is_allowed_and_excess_rejected():
    state = init_state([1.0])
    g = np.array([1.0])
    out = msgd_damped_step(state, g, alpha=1.0, mu=1.0)  # mu*alpha == 1: memoryless
    assert np.array_equal(out.v, -g)
    with pytest.raises(ParameterError):
        msgd_damped_step(state, g, alpha=1.0, mu=1.1)
    with pytest.raises(ParameterError):
        msgd_damped_step(state, g, alpha=0.5, mu=0.0)


@pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5])
def test_momentum_factor_range_is_enforced(beta):
    state = init_state([1.0])
    with pytest.raises(ParameterError):
        msgd_classical_step(state, np.array([1.0]), 0.1, beta)


def test_averaged_update_matches_direct_weighted_average():
    rng = stream(17)
    xs = rng.normal(size=(30, 3))
    alphas = PowerSchedule(1.0, 0.6).alphas(30)
    avg = init_average(xs[0])
    for k in range(30):
        avg = averaged_update(avg, xs[k], alphas[k])
    direct = (alphas[:, None] * xs).sum(axis=0) / alphas.sum()
    assert np.allclose(avg.xbar, direct, rtol=1e-12)
    assert avg.weight_sum == pytest.approx(float(alphas.sum()), rel=1e-12)


def test_averaged_iterate_obeys_jensen_on_a_convex_problem():
    p = pseudo_huber(3)
    rng = stream(23)
    xs = rng.normal(size=(40, 3)) * 2.0
    alphas = PowerSchedule(0.7, 0.4).alphas(40)
    avg = init_average(xs[0])
    for k in range(40):
        avg = averaged_update(avg, xs[k], alphas[k])
    avg_of_f = float(np.sum(alphas * np.array([p.value(x) for x in xs]))) / float(alphas.sum())
    assert float(p.value(avg.xbar)) <= avg_of_f + 1e-10


def test_checkpoint_grid_arithmetic_and_geometric():
    grid = checkpoint_grid(100, stride=10)
    assert np.array_equal(grid, np.arange(0, 101, 10))
    grid = checkpoint_grid(100, stride=0)
    assert grid[0] == 0 and grid[-1] == 100
    for p in (1, 2, 4, 8, 16, 32, 64):
        assert p in grid
    assert np.all(np.diff(grid) > 0)
    # horizon always present even off the stride
    assert 101 in checkpoint_grid(101, stride=10)
    with pytest.raises(ParameterError):
        checkpoint_grid(0)


@given(st.integers(1, 5000), st.integers(1, 6000))
@example(1, 1)
@example(10, 1)
@example(10, 10)
@example(10, 11)
@example(100, 7)
def test_strided_checkpoint_grid_is_the_stride_multiples_plus_the_horizon(horizon, stride):
    expected = sorted(set(range(0, horizon + 1, stride)) | {horizon})
    grid = checkpoint_grid(horizon, stride)
    assert grid.dtype == np.array(expected).dtype
    assert grid.tolist() == expected
    assert checkpoint_grid(horizon, 1).tolist() == list(range(horizon + 1))


def test_run_records_checkpoints_with_start_conventions():
    p = quadratic([1.0, 4.0])
    orc = gaussian_oracle(p, 0.3, seed=5)
    s = PowerSchedule(0.5, 0.6)
    traj = run("vsgd", p, orc, s, 64, seed=5, x0=[1.0, -1.0],
               checkpoint_stride=8, averaged=True)
    assert np.array_equal(traj.checkpoints(), np.arange(0, 65, 8))
    first = traj.points[0]
    assert first.k == 0 and first.alpha == 0.0 and first.mu == 0.0
    assert np.array_equal(first.x, [1.0, -1.0])
    assert np.array_equal(first.xbar, first.x)  # single-term average
    later = traj.points[2]
    assert later.alpha == s.alpha(later.k)
    assert traj.final is not None and traj.final.k == 64
    assert traj.averaged_final is not None


def test_run_matches_manual_stepping_bitwise():
    p = quadratic([1.0, 4.0])
    orc = gaussian_oracle(p, 0.0, seed=9)
    s = PowerSchedule(0.4, 0.7)
    traj = run("vsgd", p, orc, s, 30, seed=9, x0=[2.0, 1.0], checkpoint_stride=1)
    state = init_state([2.0, 1.0])
    for k in range(1, 31):
        state = vsgd_step(state, p.gradient(state.x), s.alpha(k))
        assert np.array_equal(traj.points[k].x, state.x), k


def test_run_raises_divergence_with_the_offending_iteration():
    # constant alpha = 3 on a unit quadratic: |x_k| = 2^k crosses 1e12 at k = 40
    p = quadratic([1.0])
    orc = gaussian_oracle(p, 0.0, seed=1)
    with pytest.raises(DivergenceError) as err:
        run("vsgd", p, orc, PowerSchedule(3.0, 0.0), 100, seed=1, x0=[1.0])
    assert err.value.iteration == 40


def test_run_validates_method_requirements():
    p = quadratic([1.0])
    orc = gaussian_oracle(p, 0.1, seed=0)
    s = PowerSchedule(0.5, 0.6)
    damped = PowerSchedule(0.5, 0.6, 1.0, 0.0)
    with pytest.raises(ParameterError):
        run("sgd", p, orc, s, 10, seed=0, x0=[1.0])
    with pytest.raises(ParameterError):
        run("msgd_damped", p, orc, s, 10, seed=0, x0=[1.0])  # no damping schedule
    with pytest.raises(ParameterError):
        run("msgd_classical", p, orc, s, 10, seed=0, x0=[1.0])  # no beta
    with pytest.raises(ParameterError):
        run("vsgd", p, orc, s, 10, seed=0, x0=[1.0, 2.0])  # wrong x0 shape
    with pytest.raises(ParameterError):
        run("vsgd", p, orc, s, 0, seed=0, x0=[1.0])
    assert run("msgd_damped", p, orc, damped, 10, seed=0, x0=[1.0]).final.k == 10
    assert "vsgd" in METHODS


def test_run_rejects_energy_tracking_without_a_known_minimum():
    unknown = dataclasses.replace(quadratic([1.0]), minimum=None)
    orc = gaussian_oracle(unknown, 0.1, seed=0)
    with pytest.raises(ParameterError):
        run("vsgd", unknown, orc, PowerSchedule(0.5, 0.6), 10, seed=0, x0=[0.0],
            lyapunov_coeff=0.1)


def test_run_records_vanishing_tilt_energies():
    p = quadratic([1.0, 4.0])
    orc = gaussian_oracle(p, 0.2, seed=3)
    s = PowerSchedule(0.5, 0.7, 1.0, 0.2)
    lam = 0.125
    traj = run("msgd_damped", p, orc, s, 20, seed=3, x0=[1.0, 1.0],
               checkpoint_stride=1, lyapunov_coeff=lam, lyapunov_vanishing=True)
    for point in traj.points:
        expected = scalars(p, point.x, point.v, lam * point.mu)
        assert point.lyap == expected
    # at k = 0 the recorded damping is 0, so the tilt vanishes there
    assert traj.points[0].lyap.h_tilde == traj.points[0].lyap.h


def test_trajectory_csv_round_trips_floats():
    p = quadratic([1.0, 4.0])
    orc = gaussian_oracle(p, 0.3, seed=7)
    traj = run("vsgd", p, orc, PowerSchedule(0.5, 0.6), 16, seed=7, x0=[1.0, -1.0],
               checkpoint_stride=4)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "k,alpha,mu,f,grad_sq"
    assert len(lines) == 1 + len(traj.points)
    for line, point in zip(lines[1:], traj.points):
        k, alpha, mu, f, gsq = line.split(",")
        assert int(k) == point.k
        assert float(alpha) == point.alpha  # repr round trip is exact
        assert float(f) == point.f
        assert float(gsq) == point.grad_sq


def test_trajectory_csv_gains_energy_columns_when_tracked():
    p = quadratic([1.0])
    orc = gaussian_oracle(p, 0.0, seed=1)
    traj = run("vsgd", p, orc, PowerSchedule(0.5, 0.6), 8, seed=1, x0=[1.0],
               checkpoint_stride=1, lyapunov_coeff=0.2)
    lines = trajectory_csv(traj).strip().split("\n")
    assert lines[0] == "k,alpha,mu,f,grad_sq,H,Zt,Ht"
    out = trajectory_json(traj)
    assert out["method"] == "vsgd"
    assert {"k", "alpha", "mu", "f", "grad_sq", "H", "Zt", "Ht"} <= set(out["points"][1])


def _row_near(norm: float, d: int):
    """Rows of d equal-magnitude entries whose norm is within a few ulps of
    norm, with random signs."""
    base = norm / np.sqrt(d)
    entry = st.tuples(st.integers(-4, 4), st.sampled_from([1.0, -1.0])).map(
        lambda t: t[1] * (base + t[0] * np.spacing(base)))
    return st.lists(entry, min_size=d, max_size=d)


@st.composite
def _replica_states(draw):
    """(replicas, d) states mixing rows near the divergence radius and near
    the whole-array test's margin, rows of inf, NaN and overflowing squares,
    arbitrary floats and small rows; and an alive mask, so that some frozen
    rows are not zero."""
    r, d = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e160,
                               DIVERGENCE_RADIUS, -DIVERGENCE_RADIUS])
    rows = st.one_of(
        _row_near(DIVERGENCE_RADIUS, d),
        _row_near(DIVERGENCE_RADIUS * np.sqrt(1.0 - 1e-6), d),
        st.lists(st.one_of(special, st.floats()), min_size=d, max_size=d),
        st.lists(st.floats(-1e11, 1e11), min_size=d, max_size=d))
    x = np.array(draw(st.lists(rows, min_size=r, max_size=r)), dtype=float)
    alive = np.array(draw(st.lists(st.booleans(), min_size=r, max_size=r)))
    return x, alive


@given(_replica_states())
@example((np.array([[1e200, 0.0]]), np.array([True])))
@example((np.array([[np.nan, 0.0], [1.0, 1.0]]), np.array([False, True])))
@example((np.array([[DIVERGENCE_RADIUS, 0.0], [0.0, 1.0]]), np.array([True, True])))
def test_whole_array_divergence_test_never_passes_a_rejected_state(state):
    x, alive = state
    with np.errstate(over="ignore", invalid="ignore"):
        whole = all_within_radius(x)
        each = within_radius(x)
    if whole:
        assert each.all()
    # the engine's decision equals testing every replica, frozen ones excused
    assert (whole or (each | ~alive).all()) == bool((each | ~alive).all())


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0],
                                 [1e200, 0.0], [-1e200, 1e200]],
                         ids=["nan", "inf", "-inf", "overflow", "overflow-both"])
def test_whole_array_divergence_test_rejects_non_finite_and_overflowing_rows(bad):
    x = np.full((1000, 2), 3.0)
    x[417] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        assert not all_within_radius(x)
        assert not within_radius(x)[417]


def test_whole_array_divergence_test_sees_one_row_over_the_radius_among_many():
    # 10**5 rows well inside the radius, one a few ulps outside it: the sum of
    # squares exceeds the radius squared whatever order the dot product adds in.
    x = np.full((10 ** 5, 2), 1.0)
    x[54321] = [np.nextafter(DIVERGENCE_RADIUS, np.inf), 0.0]
    assert not within_radius(x)[54321]
    assert not all_within_radius(x)
    x[54321] = [DIVERGENCE_RADIUS * 0.999, 0.0]
    assert all_within_radius(x)


def test_whole_array_divergence_test_passes_ordinary_states():
    x = np.full((4096, 2), 1e5)
    x[7] = [DIVERGENCE_RADIUS * 0.999, 0.0]
    assert all_within_radius(x)
    x[7, 1] = np.inf
    assert not all_within_radius(x)

