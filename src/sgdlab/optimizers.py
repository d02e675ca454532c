"""First-order update rules and single trajectories.

Update rules, all with step size alpha_k and (where applicable) damping
mu_k or momentum factor beta:

    vsgd                x_k = x_{k-1} - alpha_k F_k
    msgd_damped         v_k = v_{k-1} - mu_k alpha_k v_{k-1} - alpha_k F_k
                        x_k = x_{k-1} + alpha_k v_k
    msgd_classical      v_k = beta v_{k-1} - alpha_k F_k
                        x_k = x_{k-1} + v_k
    nasgd               beta_k = (1 - mu_k alpha_k) alpha_k / alpha_{k-1}
                        y_k = x_{k-1} + beta_k (x_{k-1} - x_{k-2})
                        v_k = (1 - mu_k alpha_k) v_{k-1} - alpha_k F(y_k)
                        x_k = x_{k-1} + alpha_k v_k
    nesterov_classical  y_k = x_{k-1} + beta (x_{k-1} - x_{k-2})
                        x_k = y_k - alpha_k F(y_k)

F_k denotes the oracle draw at x_{k-1} (at y_k for the look-ahead rules).
All states start with v_0 = 0 and x_{-1} = x_0, which makes the first
look-ahead step coincide with the plain damped step.

The damped and classical momentum forms are conjugate: running
msgd_classical with beta = 1 - mu * alpha and step size alpha^2 reproduces
the msgd_damped iterates with v_classical_k = alpha * v_damped_k, on any
problem, for constant alpha.

The weighted running average follows x_bar_n = sum_{k<=n} alpha_k x_{k-1}
/ sum_{k<=n} alpha_k, updated incrementally; the weight of iteration k is
the step size applied to the *previous* iterate.

Each rule's arithmetic is written once, as a kernel in `KERNELS` acting on
arrays of shape (d,) or (replicas, d) with scalar coefficients.  The step
functions and the Monte Carlo engine in `harness` call these kernels.  `run`
has no loop of its own: it builds that engine's stepper for one replica and
drives it through the engine's draws, recording each checkpoint from the
state, f and grad f the engine has evaluated, so a single run is replica 0
of an experiment by construction.  The two share each rule: the method
constraints are `validate_run` (which `config.validate_config` calls), the
divergence rule `within_radius`, the energies `lyapunov.energies`, and what
a checkpoint records `lyapunov.checkpoint_coefficients`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError, ParameterError
from .lyapunov import LyapunovScalars, checkpoint_coefficients, scalars_at
from .oracles import GradientOracle, OracleSample
from .problems import Problem, row_dot
from .rng import replica_streams
from .schedules import PowerSchedule

METHODS = ("vsgd", "msgd_damped", "msgd_classical", "nasgd", "nesterov_classical")
# The methods whose update reads the damping mu_k.
DAMPED = ("msgd_damped", "nasgd")

# A trajectory is declared divergent as soon as an iterate has a non-finite
# coordinate or leaves the ball of this radius.
DIVERGENCE_RADIUS = 1e12


@dataclass
class IterState:
    """Iteration counter plus (x, v, previous x).  v is the velocity of the
    momentum rules and stays 0 for plain SGD; x_prev feeds look-ahead."""

    k: int
    x: np.ndarray
    v: np.ndarray
    x_prev: np.ndarray


@dataclass
class AveragedState:
    """Running weighted average and total weight so far."""

    xbar: np.ndarray
    weight_sum: float


def init_state(x0) -> IterState:
    x0 = np.asarray(x0, dtype=float).copy()
    return IterState(k=0, x=x0, v=np.zeros_like(x0), x_prev=x0.copy())


def init_average(x0) -> AveragedState:
    x0 = np.asarray(x0, dtype=float)
    return AveragedState(xbar=np.zeros_like(x0), weight_sum=0.0)


# ---------------------------------------------------------------------------
# Update kernels
#
# KERNELS[method](x, v, x_prev, grad_at, alpha, alpha_prev, mu, beta) returns
# the new (x, v); grad_at(point) is the stochastic gradient at x or at the
# look-ahead point.  Kernels neither validate nor build state objects.


def _vsgd(x, v, x_prev, grad_at, alpha, alpha_prev, mu, beta):
    return x - alpha * grad_at(x), v


def _msgd_damped(x, v, x_prev, grad_at, alpha, alpha_prev, mu, beta):
    v = v - mu * alpha * v - alpha * grad_at(x)
    return x + alpha * v, v


def _msgd_classical(x, v, x_prev, grad_at, alpha, alpha_prev, mu, beta):
    v = beta * v - alpha * grad_at(x)
    return x + v, v


def _nasgd(x, v, x_prev, grad_at, alpha, alpha_prev, mu, beta):
    y = x + (1.0 - mu * alpha) * alpha / alpha_prev * (x - x_prev)
    v = (1.0 - mu * alpha) * v - alpha * grad_at(y)
    return x + alpha * v, v


def _nesterov_classical(x, v, x_prev, grad_at, alpha, alpha_prev, mu, beta):
    y = x + beta * (x - x_prev)
    x_new = y - alpha * grad_at(y)
    return x_new, x_new - x


KERNELS = {"vsgd": _vsgd, "msgd_damped": _msgd_damped, "msgd_classical": _msgd_classical,
           "nasgd": _nasgd, "nesterov_classical": _nesterov_classical}


def within_radius(x):
    """Per-state test ||x|| <= DIVERGENCE_RADIUS along the last axis; NaN,
    an infinite coordinate and an overflowing norm all fail it."""
    return np.einsum("...i,...i->...", x, x) <= DIVERGENCE_RADIUS ** 2


def all_within_radius(x) -> bool:
    """Whether every row of the (replicas, d) array x passes `within_radius`,
    by one dot product of the flattened array with itself.  It may answer
    False when every row passes, never True when one fails: the 1e-6 margin
    covers the rounding of the sum for fewer than 10**9 entries, and NaN,
    infinity and overflow make the total fail."""
    return bool(np.vdot(x, x) <= DIVERGENCE_RADIUS ** 2 * (1.0 - 1e-6))


def _step(state: IterState, method: str, grad_at, alpha: float, alpha_prev=None,
          mu=None, beta=None) -> IterState:
    x, v = KERNELS[method](state.x, state.v, state.x_prev, grad_at, alpha, alpha_prev,
                           mu, beta)
    # A single state raises on the engine's divergence rule.
    if x.ndim == 1 and not within_radius(x):
        raise DivergenceError(state.k + 1)
    return IterState(k=state.k + 1, x=x, v=v, x_prev=state.x)


def _given(g):
    """A supplied stochastic gradient (array or OracleSample), whatever the point."""
    sg = g.stoch_grad if isinstance(g, OracleSample) else g
    return lambda point: sg


def _drawn(oracle: GradientOracle, raw):
    """Stochastic gradients from one raw draw (the oracle's next draw when
    raw is None), applied at whatever point the rule asks for."""
    if raw is None:
        raw = oracle.raw_block(oracle._rng, 1)[0]
    return lambda point: oracle.stoch_grad(point, raw)


def vsgd_step(state: IterState, g, alpha: float) -> IterState:
    """Plain stochastic gradient step."""
    _validate_alpha(alpha)
    return _step(state, "vsgd", _given(g), alpha)


def msgd_damped_step(state: IterState, g, alpha: float, mu: float) -> IterState:
    """Damped momentum step (velocity updated first, x uses the new v)."""
    _validate_damping(alpha, mu)
    return _step(state, "msgd_damped", _given(g), alpha, mu=mu)


def msgd_classical_step(state: IterState, g, alpha: float, beta: float) -> IterState:
    """Textbook momentum: v accumulates, x moves by v itself."""
    _validate_alpha(alpha)
    _validate_beta(beta)
    return _step(state, "msgd_classical", _given(g), alpha, beta=beta)


def nasgd_step(state: IterState, oracle: GradientOracle, alpha: float,
               alpha_prev: float, mu: float, raw=None) -> IterState:
    """Accelerated step with schedule-coupled look-ahead factor.

    beta_k = (1 - mu*alpha) * alpha / alpha_prev; the gradient is drawn at
    the look-ahead point y.  With x_prev = x (the start convention) the
    look-ahead vanishes and the step equals msgd_damped_step.
    """
    _validate_damping(alpha, mu)
    if alpha_prev <= 0:
        raise ParameterError(f"alpha_prev must be positive, got {alpha_prev}")
    return _step(state, "nasgd", _drawn(oracle, raw), alpha, alpha_prev, mu)


def nesterov_classical_step(state: IterState, oracle: GradientOracle,
                            alpha: float, beta: float, raw=None) -> IterState:
    """Classical look-ahead step with fixed momentum factor beta."""
    _validate_alpha(alpha)
    _validate_beta(beta)
    return _step(state, "nesterov_classical", _drawn(oracle, raw), alpha, beta=beta)


def _validate_alpha(alpha: float):
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")


def _validate_beta(beta: float):
    if not 0.0 <= beta < 1.0:
        raise ParameterError(f"beta must lie in [0, 1), got {beta}")


def _validate_damping(alpha: float, mu: float):
    _validate_alpha(alpha)
    if mu <= 0:
        raise ParameterError(f"mu must be positive, got {mu}")
    # The velocity decay factor 1 - mu*alpha must not turn negative; the
    # boundary mu*alpha == 1 (memoryless velocity) is allowed so schedules
    # with mu_1 * alpha_1 == 1 remain runnable.
    if mu * alpha > 1.0:
        raise ParameterError(
            f"mu * alpha = {mu * alpha} exceeds 1; the velocity update would flip sign")


def validate_run(method: str, s: PowerSchedule, horizon: int, beta: Optional[float],
                 x0, dim: int) -> None:
    """Raise ParameterError unless method is known, horizon >= 1, a damped
    method has a positive damping schedule with mu_1 * alpha_1 <= 1, a
    classical one has beta, beta (if any) lies in [0, 1) and x0 has shape
    (dim,).  The messages name the config keys."""
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    if method in DAMPED:
        if s.coeff_mu <= 0:
            raise ParameterError(f"method {method} requires a positive damping "
                                 "coefficient: set [schedule] mu = m, b with m > 0")
        # alpha_k * mu_k is non-increasing, so k = 1 bounds every step.
        _validate_damping(s.alpha(1), s.mu(1))
    if beta is not None:
        _validate_beta(beta)
    elif method in ("msgd_classical", "nesterov_classical"):
        raise ParameterError(f"method {method} requires [run] beta")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (dim,):
        got = f"length {x0.size}" if x0.ndim == 1 else f"shape {x0.shape}"
        raise ParameterError(f"x0 has {got}, problem dim is {dim}")


def averaged_update(avg: AveragedState, x_prev_iterate, alpha: float) -> AveragedState:
    """Fold iterate x_{k-1} with weight alpha_k into the running average."""
    _validate_alpha(alpha)
    x_prev_iterate = np.asarray(x_prev_iterate, dtype=float)
    w = avg.weight_sum + alpha
    xbar = avg.xbar + (alpha / w) * (x_prev_iterate - avg.xbar)
    return AveragedState(xbar=xbar, weight_sum=w)


# ---------------------------------------------------------------------------
# Trajectory recording


@dataclass(frozen=True)
class TrajectoryPoint:
    k: int
    x: np.ndarray
    v: np.ndarray
    alpha: float
    mu: float
    f: float
    grad_sq: float
    lyap: Optional[LyapunovScalars] = None
    xbar: Optional[np.ndarray] = None


@dataclass
class Trajectory:
    method: str
    points: list = field(default_factory=list)
    checkpoint_stride: int = 0
    final: Optional[IterState] = None
    averaged_final: Optional[AveragedState] = None
    seed: int = 0

    def checkpoints(self) -> np.ndarray:
        return np.array([p.k for p in self.points], dtype=int)


def checkpoint_grid(horizon: int, stride: int = 0) -> np.ndarray:
    """Checkpoint iterations: an arithmetic grid for stride >= 1, otherwise
    powers of two plus a short tail window.  Always includes 0 and horizon."""
    horizon = int(horizon)
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    if stride >= 1:
        ks = np.arange(0, horizon + 1, int(stride))
        return ks if ks[-1] == horizon else np.append(ks, horizon)
    ks = {0}
    p = 1
    while p <= horizon:
        ks.add(p)
        p *= 2
    ks.update(range(max(1, horizon - 7), horizon + 1))
    return np.array(sorted(ks), dtype=int)


def run(method: str, problem: Problem, oracle: GradientOracle, s: PowerSchedule,
        iters: int, seed: int, x0, *, checkpoint_stride: int = 0,
        beta: Optional[float] = None, lyap_mode: Optional[tuple] = None,
        averaged: bool = False) -> Trajectory:
    """Run one trajectory, recording checkpoints.

    This is the experiment engine at one replica on stream (seed, 0): a
    `harness._steps` stepper driven by `harness._step_together`, in this
    process, so a single run is replica 0 of an experiment with the same
    master seed.  With lyap_mode, the (mode, coeff) pair that
    `harness.resolve_lyapunov` returns, energy scalars are recorded at each
    checkpoint with the tilt of `lyapunov.checkpoint_coefficients`.  Raises
    ParameterError for what `validate_run` rejects, and DivergenceError
    with the offending iteration on blow-up.
    """
    from .harness import _step_together, _steps   # harness imports this module

    iters = int(iters)
    validate_run(method, s, iters, beta, x0, problem.dim)
    if lyap_mode is not None and problem.minimum is None:
        raise ParameterError("energy recording requires a problem with a known minimum")

    alphas, mus = s.alphas(iters), s.mus(iters)
    grid = checkpoint_grid(iters, checkpoint_stride)
    alpha_at, mu_at, tilts = checkpoint_coefficients(grid, alphas, mus, lyap_mode)
    f_star = 0.0 if problem.minimum is None else problem.minimum.f_star
    traj = Trajectory(method=method, checkpoint_stride=checkpoint_stride, seed=seed)

    def record(k, x, v, xbar, grad):
        i = len(traj.points)
        f = float(problem.value(x)[0])
        x, v, grad = x[0].copy(), v[0].copy(), grad[0]
        traj.points.append(TrajectoryPoint(
            k=k, x=x, v=v, alpha=float(alpha_at[i]), mu=float(mu_at[i]),
            f=f, grad_sq=float(row_dot(grad, grad)),
            lyap=None if tilts is None else scalars_at(f - f_star, grad, v, tilts[i]),
            xbar=None if xbar is None else xbar[0].copy()))

    stepper = _steps(problem, oracle, method, beta, alphas, mus, x0, grid, None, averaged,
                     f_star, 1, record)
    _, _, diverged, (x, v, x_prev, avg) = _step_together(
        oracle, replica_streams(seed, 1), iters, [stepper])[0]
    if diverged:
        raise DivergenceError(diverged[0][1])
    traj.final = IterState(k=iters, x=x[0], v=v[0], x_prev=x_prev[0])
    if avg is not None:
        traj.averaged_final = AveragedState(xbar=avg.xbar[0], weight_sum=float(avg.weight_sum))
    return traj


def trajectory_csv(traj: Trajectory) -> str:
    """CSV with header k,alpha,mu,f,grad_sq and H,Zt,Ht appended when
    energy scalars were recorded."""
    with_lyap = any(p.lyap is not None for p in traj.points)
    cols = ["k", "alpha", "mu", "f", "grad_sq"]
    if with_lyap:
        cols += ["H", "Zt", "Ht"]
    lines = [",".join(cols)]
    for p in traj.points:
        row = [str(p.k), repr(p.alpha), repr(p.mu), repr(p.f), repr(p.grad_sq)]
        if p.lyap is not None:   # recorded at every checkpoint or none
            row += [repr(p.lyap.h), repr(p.lyap.z_tilde), repr(p.lyap.h_tilde)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def trajectory_json(traj: Trajectory) -> dict:
    out = {
        "method": traj.method,
        "seed": traj.seed,
        "checkpoint_stride": traj.checkpoint_stride,
        "points": [],
    }
    for p in traj.points:
        row = {"k": p.k, "alpha": p.alpha, "mu": p.mu, "f": p.f, "grad_sq": p.grad_sq}
        if p.lyap is not None:
            row.update({"H": p.lyap.h, "Zt": p.lyap.z_tilde, "Ht": p.lyap.h_tilde})
        out["points"].append(row)
    return out
