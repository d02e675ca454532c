"""Test problems: closed-form values/gradients, certified constants, gradient checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgdlab.errors import ParameterError
from sgdlab.problems import (Convexity, Problem, check_gradient, least_squares_sum,
                             pseudo_huber, quadratic, row_dot, row_sum, smooth_rastrigin)
from sgdlab.rng import stream


def test_quadratic_values_gradients_and_constants():
    p = quadratic([1.0, 4.0], [1.0, -2.0])
    x = np.array([2.0, 0.0])
    assert float(p.value(x)) == 0.5 * (1.0 * 1.0 + 4.0 * 4.0)
    assert np.array_equal(p.gradient(x), [1.0, 8.0])
    assert p.smoothness_l == 4.0
    assert p.convexity is Convexity.STRONGLY_CONVEX
    assert p.strong_convexity_mu == 1.0
    assert np.array_equal(p.minimum.x_star, [1.0, -2.0])
    assert p.minimum.f_star == 0.0


def test_quadratic_scalar_x_star_broadcasts():
    p = quadratic([2.0, 2.0, 2.0], 1.0)
    assert np.array_equal(p.minimum.x_star, np.ones(3))
    assert float(p.value(np.ones(3))) == 0.0


def test_quadratic_with_a_zero_eigenvalue_is_convex_only():
    p = quadratic([0.0, 1.0])
    assert p.convexity is Convexity.CONVEX
    assert p.strong_convexity_mu is None


_SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -2.5, 1e200])


@pytest.mark.parametrize("x_star", [None, 0.0, -0.0, [0.0, -0.0, 0.0], [0.0, 1.5, -0.0]],
                         ids=["none", "plus-zero", "minus-zero", "mixed-zeros", "nonzero"])
@given(x=st.lists(st.lists(st.one_of(_SPECIAL, st.floats()), min_size=3, max_size=3),
                  min_size=1, max_size=5))
def test_quadratic_equals_the_subtracting_formula_bitwise(x_star, x):
    # a minimizer of +0.0 entries skips x - x_star; the results must not move
    lam = np.array([1.0, 4.0, 0.5])
    p = quadratic(lam, x_star)
    xs = np.zeros(3) if x_star is None else np.broadcast_to(np.asarray(x_star, float), (3,))
    x = np.array(x, dtype=float)
    # value and gradient tile lam and x_star to each input's shape, once per
    # shape: the second round of calls reuses the tiles of the first.
    with np.errstate(over="ignore", invalid="ignore"):
        for pts in (x, x[0], np.stack([x, x[::-1]]), x, x[0], np.stack([x, x[::-1]])):
            assert p.value(pts).tobytes() == \
                (0.5 * np.sum(lam * (pts - xs) ** 2, axis=-1)).tobytes()
            assert p.gradient(pts).tobytes() == (lam * (pts - xs)).tobytes()


def _lsq_sum(dim: int):
    rng = np.random.default_rng(dim)
    return least_squares_sum(rng.normal(size=(12, dim)), rng.normal(size=12))


_BLOCK_PROBLEMS = {
    "quadratic": lambda: quadratic([1.0, 4.0]),
    "quadratic-signed-zero-minimizer": lambda: quadratic([1.0, 4.0, 0.5], [-0.0, 1.5, 0.0]),
    "pseudo_huber": lambda: pseudo_huber(3),
    "smooth_rastrigin": lambda: smooth_rastrigin(2, 0.06),
    "least_squares": lambda: _lsq_sum(2),
    "least_squares-8": lambda: _lsq_sum(8),
}


@pytest.mark.parametrize("replicas", [1, 2, 200, 257])
@pytest.mark.parametrize("name", list(_BLOCK_PROBLEMS))
def test_value_on_a_block_of_checkpoints_equals_each_row_bitwise(name, replicas):
    # The engine evaluates f once on a (checkpoints, replicas, dim) block of
    # checkpoint states; each row must keep the bits of a call on its own
    # (replicas, dim) state, as the least-squares BLAS path would not unless
    # it goes one slab at a time.
    p = _BLOCK_PROBLEMS[name]()
    rng = np.random.default_rng(replicas)
    for chunk in (1, 3, 81):
        block = rng.normal(scale=3.0, size=(chunk, replicas, p.dim))
        block[0, 0, 0] = -0.0
        rows = np.stack([p.value(x) for x in block])
        assert p.value(block).tobytes() == rows.tobytes()
        assert p.value(block).shape == (chunk, replicas)


def _special_rows(shape, seed):
    """Normal values with +-0.0, +-inf and NaNs of both signs at half the
    entries, so that many rows hold only signed zeros or specials."""
    rng = np.random.default_rng(seed)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    pick = rng.integers(0, 2 * len(specials), size=shape)
    return np.where(pick < len(specials), specials[pick % len(specials)],
                    rng.normal(size=shape))


@pytest.mark.parametrize("shape", [(), (5,), (81, 200), (3, 257)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_row_sum_and_row_dot_keep_the_bits_of_add_reduce_and_einsum(dim, shape):
    # Columns are added at dim <= 2; dim 3 takes the reduction itself.
    a, b = _special_rows(shape + (dim,), 1), _special_rows(shape + (dim,), 2)
    with np.errstate(invalid="ignore"):
        assert row_sum(a).tobytes() == np.add.reduce(a, axis=-1).tobytes()
        assert np.shape(row_sum(a)) == shape
        for u, w in ((a, a), (b, b)):
            assert row_dot(u, w).tobytes() == np.einsum("...i,...i->...", u, w).tobytes()
        # Two NaNs of opposite signs may multiply to a NaN of either sign.
        for u, w in ((a, b), (b, a)):
            got, want = row_dot(u, w), np.einsum("...i,...i->...", u, w)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.asarray(got)[~nan].tobytes() == np.asarray(want)[~nan].tobytes()


@pytest.mark.parametrize("spectrum", [[], [-1.0], [np.inf], [[1.0, 2.0]]])
def test_quadratic_rejects_bad_spectra(spectrum):
    with pytest.raises(ParameterError):
        quadratic(spectrum)


def test_pseudo_huber_values_and_gradients():
    p = pseudo_huber(3)
    assert float(p.value(np.zeros(3))) == 0.0
    x = np.array([3.0, -4.0, 0.5])
    assert float(p.value(x)) == pytest.approx(float(np.sum(np.sqrt(1.0 + x * x) - 1.0)))
    assert np.allclose(p.gradient(x), x / np.sqrt(1.0 + x * x))
    assert p.smoothness_l == 1.0
    assert p.convexity is Convexity.CONVEX
    assert np.array_equal(p.minimum.x_star, np.zeros(3))


def test_pseudo_huber_certificate_is_frozen_and_holds_on_its_region():
    cert = pseudo_huber(2).weak_convexity
    assert cert.delta == 0.25
    assert cert.k0 == pytest.approx(0.3666028190000001, abs=1e-15)
    # on the region ||grad||^2 <= delta: (f - f*)^2 <= k0 * ||grad||^2
    pts = stream(2024).uniform(-0.7, 0.7, size=(4000, 2))
    g = pts / np.sqrt(1.0 + pts * pts)
    gsq = np.sum(g * g, axis=1)
    keep = gsq <= cert.delta
    assert keep.sum() > 100
    f = np.sum(np.sqrt(1.0 + pts * pts) - 1.0, axis=1)
    assert np.all(f[keep] ** 2 <= cert.k0 * gsq[keep] + 1e-15)


def test_smooth_rastrigin_values_and_convexity_split():
    p = smooth_rastrigin(2, 10.0)
    assert float(p.value(np.zeros(2))) == 0.0
    x = np.array([0.25, -0.5])
    expected = float(np.sum(x * x + 10.0 * (1.0 - np.cos(2.0 * np.pi * x))))
    assert float(p.value(x)) == pytest.approx(expected)
    assert np.allclose(p.gradient(x), 2.0 * x + 20.0 * np.pi * np.sin(2.0 * np.pi * x))
    assert p.smoothness_l == pytest.approx(2.0 + 40.0 * np.pi ** 2)
    assert p.convexity is Convexity.NONCONVEX
    # tiny amplitude keeps the per-coordinate curvature positive
    small = smooth_rastrigin(3, 0.01)
    assert small.convexity is Convexity.STRONGLY_CONVEX
    assert small.strong_convexity_mu == pytest.approx(2.0 - 0.04 * np.pi ** 2)


@pytest.mark.parametrize("factory", [
    lambda: pseudo_huber(0),
    lambda: smooth_rastrigin(0, 1.0),
    lambda: smooth_rastrigin(2, 0.0),
    lambda: smooth_rastrigin(2, float("inf")),
])
def test_problem_constructors_reject_bad_arguments(factory):
    with pytest.raises(ParameterError):
        factory()


def test_certified_smoothness_bounds_gradient_differences():
    rng = stream(99)
    problems = [quadratic([0.5, 2.0, 5.0]), pseudo_huber(4), smooth_rastrigin(3, 2.0)]
    for p in problems:
        xs = rng.normal(size=(200, p.dim)) * 2.0
        ys = rng.normal(size=(200, p.dim)) * 2.0
        dg = np.linalg.norm(p.gradient(xs) - p.gradient(ys), axis=-1)
        dx = np.linalg.norm(xs - ys, axis=-1)
        assert np.all(dg <= p.smoothness_l * dx * (1.0 + 1e-12) + 1e-12), p.name


def test_least_squares_aggregate_matches_direct_formulas():
    rng = stream(7)
    a = rng.normal(size=(12, 3))
    b = rng.normal(size=12)
    agg = least_squares_sum(a, b)
    x = rng.normal(size=3)
    r = a @ x - b
    assert float(agg.value(x)) == pytest.approx(0.5 * float(np.mean(r * r)))
    assert np.allclose(agg.gradient(x), a.T @ r / 12.0)
    top = float(np.linalg.eigvalsh(a.T @ a / 12.0)[-1])
    assert top <= agg.smoothness_l <= top * (1.0 + 1e-5)
    assert agg.convexity is Convexity.STRONGLY_CONVEX
    # the recorded minimum solves the normal equations
    assert np.linalg.norm(agg.gradient(agg.minimum.x_star)) < 1e-10
    assert agg.minimum.f_star == pytest.approx(float(agg.value(agg.minimum.x_star)))


def test_least_squares_components_average_to_the_aggregate():
    rng = stream(13)
    a = rng.normal(size=(6, 2))
    b = rng.normal(size=6)
    p = least_squares_sum(a, b)
    assert np.array_equal(p.design, a)
    assert np.array_equal(p.targets, b)
    x = np.array([0.3, -1.2])
    # per-row f_i(x) = 1/2 * (a_i . x - b_i)^2 and grad f_i(x) = (a_i . x - b_i) a_i
    rows = [(float(ai @ x) - bi, ai) for ai, bi in zip(p.design, p.targets)]
    comp_grads = np.stack([r * ai for r, ai in rows])
    assert np.allclose(comp_grads.mean(axis=0), p.gradient(x))
    comp_vals = [0.5 * r * r for r, _ in rows]
    assert float(np.mean(comp_vals)) == pytest.approx(float(p.value(x)))


@pytest.mark.parametrize("design,targets", [
    (np.zeros((0, 2)), np.zeros(0)),
    (np.ones((3, 2)), np.ones(2)),
    (np.ones(3), np.ones(3)),
    (np.array([[np.nan, 1.0]]), np.ones(1)),
])
def test_least_squares_rejects_bad_shapes(design, targets):
    with pytest.raises(ParameterError):
        least_squares_sum(design, targets)


def test_check_gradient_accepts_analytic_gradients():
    rng = stream(11)
    for p in (quadratic([1.0, 3.0]), pseudo_huber(3), smooth_rastrigin(2, 5.0)):
        worst = max(check_gradient(p, rng.normal(size=p.dim) * 2.0) for _ in range(20))
        assert worst < 1e-7, p.name


def test_check_gradient_flags_a_broken_gradient():
    broken = Problem(
        name="broken", dim=2,
        value=lambda x: float(np.sum(np.asarray(x) ** 2)),
        gradient=lambda x: 3.0 * np.asarray(x, dtype=float),
        smoothness_l=2.0, convexity=Convexity.CONVEX)
    assert check_gradient(broken, np.array([1.0, 2.0])) > 1e-2


def test_check_gradient_validates_inputs():
    p = pseudo_huber(3)
    with pytest.raises(ParameterError):
        check_gradient(p, np.zeros(2))
    with pytest.raises(ParameterError):
        check_gradient(p, np.zeros(3), step=0.0)
