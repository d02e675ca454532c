"""Test objectives with certified smoothness constants.

Every problem carries a gradient-Lipschitz upper bound `smoothness_l`, a
convexity label, and (where known) the exact minimizer.  Convex instances
whose gap can be controlled by the gradient near the optimum additionally
carry a weak-convexity certificate: constants (k0, delta) such that

    (f(x) - f_star)^2 <= k0 * ||grad f(x)||^2   wherever ||grad f(x)||^2 <= delta.

`value` and `gradient` are batch-aware: they accept arrays of shape
(..., dim) and evaluate along the last axis.  `value` on a (..., rows,
dim) block gives each (rows, dim) slab the bits of a call on that slab
alone, so the experiment engine evaluates a chunk of checkpoint states in
one call.

A least-squares sum is a Problem like any other; it also keeps its raw
(A, b) data in `design` and `targets`, from which the minibatch oracle
computes subsampled gradients.  Every other problem leaves them None.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError


class Convexity(enum.Enum):
    STRONGLY_CONVEX = "strongly_convex"
    CONVEX = "convex"
    NONCONVEX = "nonconvex"


@dataclass(frozen=True)
class Minimum:
    x_star: np.ndarray
    f_star: float


@dataclass(frozen=True)
class WeakConvexityCertificate:
    """(f - f_star)^2 <= k0 * ||grad||^2 on the region ||grad||^2 <= delta."""

    k0: float
    delta: float


@dataclass(frozen=True)
class Problem:
    name: str
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    smoothness_l: float
    convexity: Convexity
    strong_convexity_mu: Optional[float] = None
    minimum: Optional[Minimum] = None
    weak_convexity: Optional[WeakConvexityCertificate] = None
    design: Optional[np.ndarray] = None    # (S, dim) rows of a least-squares sum
    targets: Optional[np.ndarray] = None   # its (S,) targets


def row_sum(t: np.ndarray) -> np.ndarray:
    """np.add.reduce(t, axis=-1) bit for bit.  On a last axis of at most 2
    it adds the columns onto +0.0, as the reduction does, in one pass each
    where the reduction would run one short loop per row; longer axes, which
    the reduction may associate otherwise, go through it."""
    if t.shape[-1] > 2:
        return np.add.reduce(t, axis=-1)
    s = t[..., 0] + 0.0
    if t.shape[-1] == 2:
        s += t[..., 1]
    return s


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.einsum("...i,...i->...", a, b) bit for bit, but for the sign of
    a NaN: for a last axis of at most 2, einsum adds the products onto +0.0
    as `row_sum` does.  The product of two NaNs of opposite signs may take
    either sign (numpy fixes no NaN's sign); the engine excludes NaN rows,
    the states of diverged replicas, from every sum."""
    if a.shape[-1] > 2:
        return np.einsum("...i,...i->...", a, b)
    return row_sum(a * b)


def quadratic(spectrum, x_star=None) -> Problem:
    """f(x) = 1/2 * sum_i lambda_i * (x_i - x_star_i)^2.

    smoothness_l = max(lambda); strongly convex iff min(lambda) > 0.
    """
    lam = np.atleast_1d(np.asarray(spectrum, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise ParameterError("spectrum must be a non-empty 1-d sequence")
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise ParameterError("spectrum entries must be finite and non-negative")
    d = lam.size
    if x_star is None:
        xs = np.zeros(d)
    else:
        xs = np.broadcast_to(np.asarray(x_star, dtype=float), (d,)).astype(float)
    lam = lam.copy()
    lam.setflags(write=False)
    xs.setflags(write=False)
    # x - (+0.0) is x bit for bit (-0.0 included), so a minimizer of
    # all +0.0 entries skips the subtraction; -0.0 entries keep it.
    centred = not np.any(xs) and not np.any(np.signbit(xs))
    # lam and xs tiled to the shapes of recent inputs.  Against a broadcast
    # (d,) operand numpy runs one d-element loop per row, several times
    # slower than one loop over the whole input; the products are the same.
    tiles = {}

    def coefficients(x):
        """(lam, xs) tiled to x's shape when x holds rows of d coordinates."""
        if x.ndim < 2 or x.shape[-1] != d:
            return lam, xs
        tiled = tiles.get(x.shape)
        if tiled is None:
            if len(tiles) == 8:   # a run's inputs take a few shapes
                tiles.clear()
            tiled = tiles[x.shape] = (np.broadcast_to(lam, x.shape).copy(),
                                      np.broadcast_to(xs, x.shape).copy())
        return tiled

    def value(x):
        x = np.asarray(x, dtype=float)
        lam_x, xs_x = coefficients(x)
        z = x if centred else x - xs_x
        # 0.5 * sum(lam * z ** 2) by the same float operations, in fewer calls.
        t = z * z
        t *= lam_x
        f = row_sum(t)
        f *= 0.5
        return f

    def gradient(x):
        x = np.asarray(x, dtype=float)
        lam_x, xs_x = coefficients(x)
        return lam_x * (x if centred else x - xs_x)

    lmin = float(lam.min())
    if lmin > 0.0:
        conv, mu = Convexity.STRONGLY_CONVEX, lmin
    else:
        conv, mu = Convexity.CONVEX, None
    return Problem(
        name="quadratic",
        dim=d,
        value=value,
        gradient=gradient,
        smoothness_l=float(lam.max()),
        convexity=conv,
        strong_convexity_mu=mu,
        minimum=Minimum(xs, 0.0),
    )


def pseudo_huber(dim: int) -> Problem:
    """f(x) = sum_i (sqrt(1 + x_i^2) - 1): convex, 1-smooth, quadratic near 0
    and linear far out, minimized at the origin.

    The weak-convexity certificate uses delta = 1/4.  On the low-gradient
    region sum x_i^2/(1+x_i^2) <= delta, the squared radius sum x_i^2 is
    maximized by concentrating all of it in a single coordinate, so the
    one-dimensional grid supremum below bounds every dimension.  k0 is that
    supremum inflated by 10%.
    """
    dim = int(dim)
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.sum(np.sqrt(1.0 + x * x) - 1.0, axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return x / np.sqrt(1.0 + x * x)

    delta = 0.25
    t = np.linspace(0.0, 2.0, 20001)
    inside = (t * t) / (1.0 + t * t) <= delta
    radius_sq = float(np.max(t[inside]) ** 2)
    cert = WeakConvexityCertificate(k0=1.1 * radius_sq, delta=delta)

    return Problem(
        name="pseudo_huber",
        dim=dim,
        value=value,
        gradient=gradient,
        smoothness_l=1.0,
        convexity=Convexity.CONVEX,
        minimum=Minimum(np.zeros(dim), 0.0),
        weak_convexity=cert,
    )


def smooth_rastrigin(dim: int, amplitude: float) -> Problem:
    """f(x) = sum_i [x_i^2 + amplitude * (1 - cos 2 pi x_i)].

    Second derivative per coordinate lies in [2 - 4 pi^2 A, 2 + 4 pi^2 A],
    so smoothness_l = 2 + 4 pi^2 A, and the problem is nonconvex exactly when
    the lower end is negative.  Global minimum at the origin with value 0.
    """
    dim = int(dim)
    amplitude = float(amplitude)
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if amplitude <= 0 or not np.isfinite(amplitude):
        raise ParameterError(f"amplitude must be positive and finite, got {amplitude}")
    two_pi = 2.0 * np.pi

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x + amplitude * (1.0 - np.cos(two_pi * x)), axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x + amplitude * two_pi * np.sin(two_pi * x)

    curvature_lo = 2.0 - amplitude * two_pi ** 2
    if curvature_lo > 0.0:
        conv, mu = Convexity.STRONGLY_CONVEX, curvature_lo
    elif curvature_lo == 0.0:
        conv, mu = Convexity.CONVEX, None
    else:
        conv, mu = Convexity.NONCONVEX, None
    return Problem(
        name="smooth_rastrigin",
        dim=dim,
        value=value,
        gradient=gradient,
        smoothness_l=2.0 + amplitude * two_pi ** 2,
        convexity=conv,
        strong_convexity_mu=mu,
        minimum=Minimum(np.zeros(dim), 0.0),
    )


def least_squares_sum(design, targets) -> Problem:
    """f = (1/S) sum_i f_i over least-squares rows f_i(x) = 1/2 * (a_i . x - b_i)^2,
    with smoothness lambda_max((1/S) A^T A), the top eigenvalue from
    `eigvalsh` inflated by 1e-6 so the constant stays a certified upper
    bound.  Read-only copies of A and b are its `design` and `targets`.

    It evaluates through BLAS (`tensordot`), whose rounding can depend on
    the batch shape: a single row takes gemv, not gemm.  So its `value`
    evaluates an input of more than 2 dimensions one (rows, dim) slab at a
    time, and a (checkpoints, replicas, dim) block gets, row for row, the
    bits of a call on each (replicas, dim) state.
    """
    a = np.array(design, dtype=float)
    b = np.array(targets, dtype=float)
    if a.ndim != 2 or 0 in a.shape:
        raise ParameterError("design must be a non-empty (S, dim) matrix")
    s_count, d = a.shape
    if b.shape != (s_count,):
        raise ParameterError("targets must have one entry per design row")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("design and targets must be finite")
    a.setflags(write=False)
    b.setflags(write=False)

    gram = (a.T @ a) / s_count

    def value(x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 2:
            slabs = x.reshape((-1,) + x.shape[-2:])
            return np.array([value(slab) for slab in slabs]).reshape(x.shape[:-1])
        r = np.tensordot(x, a, axes=([-1], [1])) - b
        return 0.5 * np.sum(r * r, axis=-1) / s_count

    def gradient(x):
        x = np.asarray(x, dtype=float)
        r = np.tensordot(x, a, axes=([-1], [1])) - b
        return np.tensordot(r, a, axes=([-1], [0])) / s_count

    eigs = np.linalg.eigvalsh(gram)
    lmax = float(eigs[-1]) * (1.0 + 1e-6)
    lmin = float(eigs[0])
    if lmin > 1e-12 * max(1.0, float(eigs[-1])):
        conv, mu = Convexity.STRONGLY_CONVEX, lmin
    else:
        conv, mu = Convexity.CONVEX, None
    x_star = np.linalg.lstsq(a, b, rcond=None)[0]
    f_star = float(value(x_star))
    return Problem(
        name="least_squares_sum",
        dim=d,
        value=value,
        gradient=gradient,
        smoothness_l=lmax,
        convexity=conv,
        strong_convexity_mu=mu,
        minimum=Minimum(x_star, f_star),
        design=a,
        targets=b,
    )


def check_gradient(p: Problem, x, step: float | None = None) -> float:
    """Max relative error between p.gradient and central differences at x.

    Relative error per coordinate is |fd_i - g_i| / (1 + |g_i|); the default
    step is 1e-6 * (1 + ||x||).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.dim,):
        raise ParameterError(f"x must have shape ({p.dim},)")
    if step is None:
        step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    if step <= 0:
        raise ParameterError("step must be positive")
    g = p.gradient(x)
    worst = 0.0
    for i in range(p.dim):
        e = np.zeros(p.dim)
        e[i] = step
        fd = (float(p.value(x + e)) - float(p.value(x - e))) / (2.0 * step)
        rel = abs(fd - g[i]) / (1.0 + abs(g[i]))
        worst = max(worst, rel)
    return worst
