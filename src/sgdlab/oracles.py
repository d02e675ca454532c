"""Stochastic gradient oracles with declared noise bounds.

An oracle returns F(x, xi) = grad f(x) - xi where the noise xi has zero
conditional mean and declared second-moment bound

    E[ ||xi||^2 | x ] <= m_const + v_const * ||grad f(x)||^2.

Three families are provided: additive Gaussian noise, minibatch subsampling
of the rows of a least-squares sum (unbiased by construction; it reads the
problem's `design` and `targets`), and relative noise of magnitude
proportional to the gradient.  `verify_bound` checks the declared constants
against empirical moments.

Each oracle owns one counter-based random stream, from which `sample`
draws.  The experiment engine keeps replicas independent, and every stream
replayable, by drawing replica i's noise from its own stream
(`rng.replica_streams`).  Raw randomness (normals, index draws) is separated
from its deterministic application to a point, which lets the experiment
driver pre-draw blocks per replica without changing any stream's contents.
`raw_block` is the one way to draw it: it fills a caller's (n, *raw_shape)
array of `raw_dtype` in place (the engine passes each replica's contiguous
rows of its staging buffer) or a new one, and a stream's draws do not depend
on how they are split into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .problems import Problem, row_sum
from .rng import stream, derive_key


@dataclass(frozen=True)
class NoiseBound:
    """Declared constants of the conditional second-moment bound."""

    m_const: float
    v_const: float
    empirical: bool = False

    def __post_init__(self):
        if self.m_const < 0 or self.v_const < 0:
            raise ParameterError("noise bound constants must be non-negative")


@dataclass(frozen=True)
class OracleSample:
    """One stochastic gradient; stoch_grad + noise = grad f(x) exactly."""

    stoch_grad: np.ndarray
    noise: np.ndarray


class GradientOracle:
    """Base class: owns a stream, declares a bound, applies raw draws.

    One iteration's raw draw has shape `raw_shape` ((dim,) unless a subclass
    sets another) and dtype `raw_dtype`.  Subclasses implement `_raw(rng,
    out)`, which fills the C-contiguous (n, *raw_shape) array out with n
    iterations of raw randomness, and `_apply(x, grad, raw)` -> stochastic
    gradients, vectorized over leading axes of raw (and of x where shapes
    allow).
    """

    kind = "abstract"
    needs_gradient = True   # whether _apply requires grad f at the point
    zero_noise = False      # True iff the noise is identically the zero vector
    raw_dtype = np.float64

    def __init__(self, problem: Problem, bound: NoiseBound, key: int):
        self.problem = problem
        self.bound = bound
        self.raw_shape = (problem.dim,)
        self._rng = stream(int(key))

    # -- sampling ----------------------------------------------------------

    def _raw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        raise NotImplementedError

    def _apply(self, x: np.ndarray, grad, raw: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def raw_block(self, rng: np.random.Generator, n: int, out=None) -> np.ndarray:
        """Draw raw randomness for n consecutive iterations from ``rng`` into
        out, a C-contiguous (n, *raw_shape) array of `raw_dtype` (allocated
        when None), and return it.  Filling out equals drawing a new array,
        bit for bit."""
        if out is None:
            out = np.empty((n,) + self.raw_shape, dtype=self.raw_dtype)
        self._raw(rng, out)
        return out

    def stoch_grad(self, x: np.ndarray, raw: np.ndarray, grad=None) -> np.ndarray:
        """Apply one (or a batch of) raw draws at x."""
        if grad is None and self.needs_gradient:
            grad = self.problem.gradient(x)
        return self._apply(x, grad, raw)

    def sample(self, x) -> OracleSample:
        """Draw one stochastic gradient at x from the oracle's own stream."""
        x = np.asarray(x, dtype=float)
        grad = self.problem.gradient(x)
        raw = self.raw_block(self._rng, 1)[0]
        sg = self._apply(x, grad, raw)
        return OracleSample(stoch_grad=sg, noise=grad - sg)


class _GaussianOracle(GradientOracle):
    kind = "gaussian"

    def __init__(self, problem: Problem, sigma: float, key: int):
        if sigma < 0 or not np.isfinite(sigma):
            raise ParameterError(f"sigma must be non-negative and finite, got {sigma}")
        self.sigma = float(sigma)
        self.zero_noise = self.sigma == 0.0
        bound = NoiseBound(m_const=self.sigma ** 2 * problem.dim, v_const=0.0)
        super().__init__(problem, bound, key)

    def _raw(self, rng, out):
        rng.standard_normal(out=out)

    def _apply(self, x, grad, raw):
        # xi = sigma * standard normal; sigma = 0 gives exactly grad back.
        return grad - self.sigma * raw


class _RelativeNoiseOracle(GradientOracle):
    kind = "relative_noise"

    def __init__(self, problem: Problem, eta: float, key: int):
        if eta < 0 or not np.isfinite(eta):
            raise ParameterError(f"eta must be non-negative and finite, got {eta}")
        self.eta = float(eta)
        self.zero_noise = self.eta == 0.0
        bound = NoiseBound(m_const=0.0, v_const=self.eta ** 2)
        super().__init__(problem, bound, key)

    def _raw(self, rng, out):
        rng.standard_normal(out=out)

    def _apply(self, x, grad, raw):
        # xi = eta * ||grad|| * u with u uniform on the sphere.
        # np.linalg.norm(., axis=-1, keepdims=True) bit for bit.
        nrm = np.sqrt(row_sum(raw * raw))[..., None]
        u = np.divide(raw, nrm, out=np.zeros_like(raw), where=nrm > 0)
        grad = np.asarray(grad, dtype=float)
        gnorm = np.sqrt(row_sum(grad * grad))[..., None]
        return grad - self.eta * gnorm * u


class _MinibatchOracle(GradientOracle):
    kind = "minibatch"
    needs_gradient = False
    raw_dtype = np.int64

    def __init__(self, problem: Problem, batch: int, replace: bool, key: int):
        if problem.design is None:
            raise ParameterError("minibatch requires a finite-sum problem "
                                 "(kind = least_squares)")
        batch = int(batch)
        s_count = len(problem.targets)
        if not 1 <= batch <= s_count:
            raise ParameterError(f"batch must lie in [1, {s_count}], got {batch}")
        self.batch = batch
        self.replace = bool(replace)
        bound = _minibatch_bound(problem, batch, self.replace)
        super().__init__(problem, bound, key)
        self.raw_shape = (batch,)

    def _raw(self, rng, out):
        # integers takes no out=, and the permutation needs all S uniforms.
        s_count = len(self.problem.targets)
        if self.replace:
            out[...] = rng.integers(0, s_count, size=out.shape, dtype=np.int64)
            return
        # Random distinct indices per draw: argsort of iid uniforms is a
        # uniform permutation; keep the first `batch` entries.
        u = rng.random((len(out), s_count))
        out[...] = np.argsort(u, axis=-1)[:, : self.batch]

    def _apply(self, x, grad, raw):
        # One code path for every input shape, so single states and replica
        # batches run the identical arithmetic (bitwise).
        x = np.asarray(x, dtype=float)
        raw = np.asarray(raw)
        single_draw = raw.ndim == 1
        idx = raw[None, :] if single_draw else raw
        xs = x[None, :] if x.ndim == 1 else x
        if xs.shape[0] == 1 and idx.shape[0] != 1:
            xs = np.broadcast_to(xs, (idx.shape[0], xs.shape[1]))
        # Least-squares rows: one gather + two contractions.
        a_sel = np.take(self.problem.design, idx, axis=0)     # (R, batch, d)
        b_sel = np.take(self.problem.targets, idx)            # (R, batch)
        resid = np.einsum("rbd,rd->rb", a_sel, xs) - b_sel
        out = np.einsum("rb,rbd->rd", resid, a_sel) / self.batch
        return out[0] if single_draw else out


def _minibatch_bound(problem: Problem, batch: int, replace: bool) -> NoiseBound:
    """Declared (M, V) for subsampling noise.

    With replacement, E||xi||^2 = (1/batch) * (mean_i ||grad f_i||^2 - ||grad f||^2),
    and sampling without replacement only shrinks it, so one bound covers both.
    For a least-squares sum that is strongly convex (the
    `strong_convexity_mu` that `least_squares_sum` sets from its Gram
    eigenvalues, lmin = mu) there is a closed form: writing x_hat for the
    least-squares solution and r for its residual,
    ||grad f_i(x)||^2 <= 2 max||a_i||^2 max r_i^2 + 2 max||a_i||^4 ||x - x_hat||^2
    and ||grad f(x)||^2 >= lmin^2 ||x - x_hat||^2.  Otherwise (M, V) are the
    non-negative least-squares fit (`_nonneg_line_fit`) to exact per-point
    second moments on a fixed point grid, inflated by 50%, flagged empirical.
    """
    lmin = problem.strong_convexity_mu
    a, b = problem.design, problem.targets
    if lmin is not None:
        row_sq = np.sum(a * a, axis=1)
        x_hat = problem.minimum.x_star
        resid = a @ x_hat - b
        m_const = (2.0 / batch) * float(row_sq.max()) * float(np.max(resid ** 2))
        v_const = (2.0 / batch) * float(row_sq.max()) ** 2 / lmin ** 2
        return NoiseBound(m_const=m_const, v_const=v_const, empirical=False)

    # Empirical fallback: exact conditional second moments on a fixed grid.
    # At each point the (S, dim) row gradients (a_i . x - b_i) a_i are
    # one elementwise expression, with no BLAS call, and grad f is their mean.
    pts = stream(derive_key(0xB0D5, 0)).standard_normal((64, problem.dim)) * 3.0
    s_count = len(b)
    fpc = 1.0 if replace else 1.0 - (batch - 1.0) / max(s_count - 1.0, 1.0)
    e2 = np.empty(len(pts))
    gsq = np.empty(len(pts))
    for i, x in enumerate(pts):
        comp = (np.sum(a * x, axis=1) - b)[:, None] * a
        g = comp.mean(axis=0)
        e2[i] = fpc * float(np.mean(np.sum((comp - g) ** 2, axis=1))) / batch
        gsq[i] = float(np.sum(g * g))
    m_const, v_const = _nonneg_line_fit(gsq, e2)
    slack = e2 - (m_const + v_const * gsq)
    m_const += max(0.0, float(slack.max()))
    return NoiseBound(m_const=1.5 * m_const, v_const=1.5 * v_const, empirical=True)


def _nonneg_line_fit(g, y):
    """(m, v) minimizing ||m + v * g - y|| over m, v >= 0.

    The exact active-set solution for two columns: the unconstrained fit
    when both of its coefficients are non-negative, else the better of the
    two one-column fits clipped at 0 (which includes m = v = 0).
    """
    g_mean, y_mean = float(g.mean()), float(y.mean())
    gc = g - g_mean
    sxx = float(gc @ gc)
    if sxx > 0.0:
        v = float(gc @ y) / sxx
        m = y_mean - v * g_mean
        if m >= 0.0 and v >= 0.0:
            return m, v
    gg = float(g @ g)
    candidates = [(max(0.0, y_mean), 0.0),
                  (0.0, max(0.0, float(g @ y) / gg) if gg > 0.0 else 0.0)]
    return min(candidates, key=lambda c: float(np.sum((c[0] + c[1] * g - y) ** 2)))


def gaussian_oracle(p: Problem, sigma: float, seed: int = 0) -> GradientOracle:
    """F = grad f(x) - xi with xi ~ N(0, sigma^2 I): M = sigma^2 * dim, V = 0."""
    return _GaussianOracle(p, sigma, derive_key(seed, 0))


def relative_noise_oracle(p: Problem, eta: float, seed: int = 0) -> GradientOracle:
    """xi = eta * ||grad f(x)|| * u, u uniform on the sphere: M = 0, V = eta^2."""
    return _RelativeNoiseOracle(p, eta, derive_key(seed, 0))


def minibatch_oracle(problem: Problem, batch: int, replace: bool = True,
                     seed: int = 0) -> GradientOracle:
    """Average of the gradients of `batch` uniformly sampled rows of a
    least-squares sum from `least_squares_sum` (unbiased)."""
    return _MinibatchOracle(problem, batch, replace, derive_key(seed, 0))


@dataclass(frozen=True)
class PointCheck:
    x: np.ndarray
    mean_norm: float
    mean_tol: float
    second_moment: float
    declared_bound: float
    second_tol: float
    mean_ok: bool
    second_ok: bool

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.second_ok


@dataclass(frozen=True)
class BoundReport:
    checks: tuple
    samples: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_bound(oracle: GradientOracle, p: Problem, points, samples: int) -> BoundReport:
    """Empirically check zero mean and the declared second-moment bound.

    At each point the empirical mean noise must satisfy
    ||mean xi|| <= 3 * sqrt(sum_j var_j / samples) (per-coordinate standard
    errors summed in quadrature) and the empirical second moment must stay
    within 4 standard errors of the declared bound, plus a relative rounding
    epsilon: oracles whose noise magnitude is deterministic (e.g. relative
    noise, where ||xi|| = eta * ||grad|| exactly) have zero-variance second
    moments, so the standard-error band alone cannot absorb float rounding.
    """
    samples = int(samples)
    if samples < 1000:
        raise ParameterError(f"samples must be >= 1000, got {samples}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != p.dim:
        raise ParameterError(f"points must have dimension {p.dim}")
    checks = []
    for x in pts:
        grad = p.gradient(x)
        raw = oracle.raw_block(oracle._rng, samples)
        sg = oracle.stoch_grad(x, raw, grad=grad)
        xi = grad - sg
        mean = xi.mean(axis=0)
        coord_var = xi.var(axis=0, ddof=1)
        mean_tol = 3.0 * float(np.sqrt(coord_var.sum() / samples))
        sq = np.sum(xi * xi, axis=1)
        m2 = float(sq.mean())
        se2 = float(sq.std(ddof=1) / np.sqrt(samples))
        declared = oracle.bound.m_const + oracle.bound.v_const * float(grad @ grad)
        mean_norm = float(np.linalg.norm(mean))
        second_tol = 4.0 * se2 + 1e-12 * max(1.0, declared)
        checks.append(PointCheck(
            x=x.copy(),
            mean_norm=mean_norm,
            mean_tol=mean_tol,
            second_moment=m2,
            declared_bound=declared,
            second_tol=second_tol,
            mean_ok=mean_norm <= mean_tol,
            second_ok=m2 <= declared + second_tol,
        ))
    return BoundReport(checks=tuple(checks), samples=samples)
