"""Energy diagnostics for momentum iterations.

For a state (x, v) on a problem with minimum value f_star, define

    H      = f(x) - f_star + ||v||^2 / 2        (total energy)
    H_bar  = ||grad f(x)||^2 + ||v||^2          (dissipation rate proxy)
    Z~     = <v, grad f(x)>                     (cross term)
    H~     = H + coeff * Z~                     (tilted energy)

With a well-chosen tilt coefficient the expected tilted energy of a damped
momentum run obeys a per-step descent bound

    E H~_k <= E H~_{k-1} - K * w_k * E H_bar_{k-1} + C * alpha_k^2

with K, C >= 0, where the rate weight w_k is alpha_k for constant damping
and alpha_k * mu_k for vanishing damping.  `descent_fit` recovers (K, C)
from recorded checkpoint means, and `triplet_probe` checks the generic
almost-supermartingale recursion X_k <= X_{k-1} - alpha_k Y_k + alpha_k Z_k
on observed series.  `energies` and `checkpoint_coefficients` define the
energies and what a checkpoint records for a single run and the engine alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .problems import Problem, row_dot


@dataclass(frozen=True)
class LyapunovScalars:
    h: float
    h_bar: float
    z_tilde: float
    h_tilde: float


def scalars(p: Problem, x, v, coeff: float) -> LyapunovScalars:
    """Energy scalars at (x, v); coeff is the tilt multiplying the cross term.

    Callers tracking a vanishing-damping run pass coeff = lambda * mu_k.
    """
    if p.minimum is None:
        raise ParameterError("energy scalars require a problem with a known minimum")
    x = np.asarray(x, dtype=float)
    return scalars_at(float(p.value(x)) - p.minimum.f_star, p.gradient(x),
                      np.asarray(v, dtype=float), coeff)


def scalars_at(gap: float, grad, v, coeff: float) -> LyapunovScalars:
    """Energy scalars from an already evaluated gap f(x) - f_star and grad f(x)."""
    h, h_bar, z, h_tilde = energies(gap, row_dot(grad, grad), grad, v, coeff)
    return LyapunovScalars(h=float(h), h_bar=float(h_bar), z_tilde=float(z),
                           h_tilde=float(h_tilde))


def energies(gap, grad_sq, grad, v, tilt):
    """(H, H_bar, Z~, H~) of the states whose gradients and velocities lie
    along the last axis of grad and v, given their gaps f(x) - f_star,
    squared gradient norms and tilts; by `row_dot`, so a state has the
    same energies alone and in a batch."""
    vsq = row_dot(v, v)
    z = row_dot(v, grad)
    h = gap + 0.5 * vsq
    return h, grad_sq + vsq, z, h + tilt * z


def checkpoint_coefficients(ks, schedule, lyap_mode=None):
    """(alpha, mu, tilt) at each checkpoint of ks, evaluated by schedule,
    a `PowerSchedule`, at the checkpoints alone; its evaluation is
    elementwise, so they are the bits of its whole-horizon vectors.
    Checkpoint k records alpha_k and mu_k, with 0 at k = 0, before any
    step.  Under lyap_mode = (mode, coeff) its energy's tilt is coeff * mu_k
    for mode "vanishing" and coeff for "constant"; without it, tilt is
    None."""
    at = np.maximum(ks, 1.0)
    alpha_at, mu_at = (np.where(ks >= 1, f(at), 0.0) for f in (schedule.alpha, schedule.mu))
    if lyap_mode is None:
        return alpha_at, mu_at, None
    mode, coeff = lyap_mode
    if mode not in ("constant", "vanishing"):
        raise ParameterError(f"energy mode must be 'constant' or 'vanishing', got {mode!r}")
    return alpha_at, mu_at, coeff * mu_at if mode == "vanishing" else np.full(len(ks), coeff)


def select_zeta(l_smooth: float, mu_lo: float, mu_hi: float) -> float:
    """Tilt coefficient for constant damping mu in [mu_lo, mu_hi]:

        zeta = mu_lo / (2 * (mu_hi^2 / 4 + l_smooth))

    which guarantees zeta * (mu_hi^2/4 + l_smooth) = mu_lo / 2, the margin
    the descent bound needs.
    """
    if l_smooth <= 0:
        raise ParameterError(f"l_smooth must be positive, got {l_smooth}")
    if not 0 < mu_lo <= mu_hi:
        raise ParameterError(f"need 0 < mu_lo <= mu_hi, got ({mu_lo}, {mu_hi})")
    return mu_lo / (2.0 * (mu_hi ** 2 / 4.0 + l_smooth))


def select_lambda(l_smooth: float, l_mu: float) -> float:
    """Tilt scale for vanishing damping with drift constant l_mu:

        lambda = 1/2 * min(1 / l_smooth, 1 / (l_smooth + l_mu^2 / 4)).
    """
    if l_smooth <= 0:
        raise ParameterError(f"l_smooth must be positive, got {l_smooth}")
    if l_mu < 0:
        raise ParameterError(f"l_mu must be non-negative, got {l_mu}")
    return 0.5 * min(1.0 / l_smooth, 1.0 / (l_smooth + l_mu ** 2 / 4.0))


@dataclass(frozen=True)
class LyapunovSeries:
    """Per-checkpoint Monte Carlo means of the tilted energy and dissipation.

    se_delta_ht[i] is the standard error of the paired difference
    mean H~_{k_i} - mean H~_{k_{i-1}} across replicas (0 at the first entry
    and everywhere for deterministic runs).
    """

    checkpoints: np.ndarray
    alphas: np.ndarray
    mus: np.ndarray
    mean_ht: np.ndarray
    mean_hbar: np.ndarray
    se_delta_ht: np.ndarray
    replicas: int
    vanishing: bool


@dataclass(frozen=True)
class DescentFit:
    k_hat: float
    c_hat: float
    violation_fraction: float
    burn_in: int
    status: str = "ok"   # "ok" or "inconclusive" (degenerate regressors)


def check_fit_grid(ks, burn_in: int) -> int:
    """burn_in as an int, once it and the checkpoint grid ks admit a descent
    fit; neither depends on a run, so a command checks them before it steps."""
    if len(ks) < 10:
        raise ParameterError("descent fit needs at least 10 checkpoints")
    if np.any(np.diff(ks) != 1):
        raise ParameterError("descent fit requires a stride-1 checkpoint grid")
    if not 0 <= int(burn_in) < int(ks[-1]) / 2:
        raise ParameterError(f"burn_in must lie in [0, horizon/2), got {int(burn_in)}")
    return int(burn_in)


def descent_fit(series: LyapunovSeries, burn_in: int) -> DescentFit:
    """Fit the descent bound constants (K, C) to recorded checkpoint means.

    Writing D_i = mean_ht[i] - mean_ht[i-1] and w_i for the rate weight
    (alpha_i, or alpha_i * mu_i when the series is from vanishing damping),
    the model is D_i <= -K * w_i * mean_hbar[i-1] + C * alpha_i^2.  The fit
    minimizes the squared residuals subject to K, C >= 0 *and* to the bound
    holding at every post-burn-in checkpoint within the 3-standard-error
    band of D_i.  A plain non-negative least-squares fit cannot satisfy the
    bound pointwise: its residuals are orthogonal to the strictly positive
    regressor columns and therefore change sign.  The constrained fit keeps
    the least-squares objective while making violation counting meaningful:
    violations can only come from constraint degeneracy, and a deterministic
    series (zero standard errors) yields violation_fraction = 0 exactly.

    The fit is exact.  Each checkpoint's constraint is a line C >= a_i + b_i*K
    with b_i >= 0, so the feasible region lies above the upper envelope of
    those lines and of C = 0.  The minimizer of the two-variable quadratic is
    either the least-squares point with C free (K clipped to K >= 0) or, on
    one piece of that envelope, the vertex of the parabola the objective
    restricts to, clipped to the piece (see `_constrained_fit`).

    Checkpoints must be consecutive iterations (stride 1): the per-step
    descent bound does not telescope across strided checkpoints without
    unobserved intermediate terms.
    """
    ks = np.asarray(series.checkpoints, dtype=int)
    burn_in = check_fit_grid(ks, burn_in)
    if series.replicas < 2:
        raise ParameterError("descent fit needs means from at least 2 replicas")
    for name in ("mean_ht", "mean_hbar", "se_delta_ht", "alphas", "mus"):
        if not np.all(np.isfinite(getattr(series, name))):
            raise ParameterError(f"descent fit needs a finite series; {name} is not finite")

    # Differences are indexed by the arriving checkpoint i (>= 1).
    d = np.diff(series.mean_ht)
    hbar_prev = series.mean_hbar[:-1]
    alpha = series.alphas[1:]
    mu = series.mus[1:]
    se = series.se_delta_ht[1:]
    keep = ks[1:] > burn_in
    d, hbar_prev, alpha, mu, se = (v[keep] for v in (d, hbar_prev, alpha, mu, se))
    w = alpha * mu if series.vanishing else alpha
    reg_k = w * hbar_prev          # multiplies -K
    reg_c = alpha * alpha          # multiplies +C
    slack = 3.0 * se

    if np.all(reg_c == 0.0):
        raise ParameterError("degenerate step sizes: alpha_k^2 vanished")
    status = "ok"
    if np.all(reg_k == 0.0):
        # No dissipation signal at all: fit C alone.
        status = "inconclusive" if np.any(d != 0.0) else "ok"
        k_hat = 0.0
        c_hat = _envelope_c(0.0, d, reg_k, reg_c, slack)
    else:
        k_hat, c_hat = _constrained_fit(d, reg_k, reg_c, slack)

    bound = -k_hat * reg_k + c_hat * reg_c + slack
    violations = int(np.sum(d > bound))
    frac = violations / d.size if d.size else 0.0
    return DescentFit(k_hat=float(k_hat), c_hat=float(c_hat),
                      violation_fraction=float(frac), burn_in=burn_in, status=status)


def _envelope_c(k_val: float, d, reg_k, reg_c, slack) -> float:
    """Smallest C >= 0 making the bound hold everywhere at fixed K.

    The result is inflated by one part in 1e12: the divide-then-multiply
    round trip through reg_c can otherwise land a few ulp below the data,
    which would register as a spurious violation on zero-slack series.
    """
    need = (d + k_val * reg_k - slack) / reg_c
    return max(0.0, float(need.max())) * (1.0 + 1e-12)


def _constrained_fit(d, reg_k, reg_c, slack):
    """Exact minimizer of sum (d + K*reg_k - C*reg_c)^2 over K, C >= 0 subject
    to C >= a_i + b_i*K at every point, a_i = (d_i - slack_i) / reg_c_i and
    b_i = reg_k_i / reg_c_i >= 0.

    With the line C >= 0 added, the feasible C lie above the upper envelope
    g(K) of these lines, a convex piecewise-linear function.  The objective is
    a convex quadratic, so its minimizer either has C > g(K), where C is the
    least-squares C for its K and K minimizes the objective with reg_c
    projected out, or lies on one piece C = a_j + b_j*K of the envelope.
    There the objective is ||u + K*w||^2 with u = d - a_j*reg_c and
    w = reg_k - b_j*reg_c, a parabola whose vertex -(u.w)/(w.w), clipped to
    the piece's K interval, is the piece's best point.  The fit takes the best
    of these candidates; no search and no tolerance are involved.
    """
    # Dot products go through einsum, not BLAS: a threaded BLAS splits long
    # vectors across threads, so its rounding depends on the thread count.
    dot = lambda a, b: float(np.einsum("i,i->", a, b))
    cc = dot(reg_c, reg_c)

    def c_for(k_val: float) -> float:
        c_ls = dot(reg_c, d + k_val * reg_k) / cc
        return max(c_ls, _envelope_c(k_val, d, reg_k, reg_c, slack))

    def objective(k_val: float) -> float:
        r = d + k_val * reg_k - c_for(k_val) * reg_c
        return dot(r, r)

    # Drop every line that one other line lies above for all K >= 0: by
    # descending slope, keep a line only if it is the highest at K = 0 so far.
    a = np.append((d - slack) / reg_c, 0.0)
    b = np.append(reg_k / reg_c, 0.0)
    order = np.lexsort((-a, -b))
    a, b = a[order], b[order]
    keep = np.append(True, a[1:] > np.maximum.accumulate(a)[:-1])
    # Upper envelope on K >= 0 by ascending slope: (a_j, b_j, K where piece j starts).
    pieces = []
    for aj, bj in zip(a[keep][::-1], b[keep][::-1]):
        start = 0.0
        while pieces:
            a0, b0, k0 = pieces[-1]
            start = (a0 - aj) / (bj - b0)
            if start > k0:
                break
            pieces.pop()
            start = 0.0
        pieces.append((aj, bj, start))
    ends = [k0 for _, _, k0 in pieces[1:]] + [np.inf]
    # The least-squares C for K is (c.d + K * c.r_k) / c.c: a line with C free.
    segments = [(dot(reg_c, d) / cc, dot(reg_c, reg_k) / cc, 0.0, np.inf)]
    segments += [(aj, bj, lo, hi) for (aj, bj, lo), hi in zip(pieces, ends)]
    candidates = []
    for aj, bj, lo, hi in segments:
        u = d - aj * reg_c
        w = reg_k - bj * reg_c
        ww = dot(w, w)
        vertex = -dot(u, w) / ww if ww > 0.0 else lo
        candidates.append(min(max(vertex, lo), hi))
    k_hat = min(candidates, key=objective)
    return k_hat, c_for(k_hat)


@dataclass(frozen=True)
class TripletReport:
    holds_everywhere: bool
    fraction_holding: float
    violations: int
    running_min_y: np.ndarray
    k_const: float
    partial_sum_slack: float

    @property
    def partial_sum_ok(self) -> bool:
        return self.partial_sum_slack >= 0.0


def triplet_probe(x_series, y_series, z_series, alpha_series,
                  tol: float | np.ndarray = 0.0) -> TripletReport:
    """Check the recursion X_k <= X_{k-1} - alpha_k Y_k + alpha_k Z_k.

    All four series share one index; entries at position 0 describe the
    initial point and the recursion is checked for k >= 1.  Reports the
    fraction of indices where the inequality holds within `tol`, the
    running minimum of Y (whose decay the recursion forces when the alpha
    sums diverge), and the slack in the partial-sum consequence

        sum alpha_k Y_k <= K + sum alpha_k Z_k,  K = max(X_0 - min X, 0).
    """
    x = np.asarray(x_series, dtype=float)
    y = np.asarray(y_series, dtype=float)
    z = np.asarray(z_series, dtype=float)
    a = np.asarray(alpha_series, dtype=float)
    n = x.size
    if not (y.size == z.size == a.size == n):
        raise ParameterError("all series must have equal length")
    if n < 10:
        raise ParameterError("triplet probe needs series of length >= 10")
    if np.any(y[1:] < 0):
        raise ParameterError("Y must be non-negative")
    if np.any(a[1:] <= 0):
        raise ParameterError("alpha must be positive")

    tol = np.broadcast_to(np.asarray(tol, dtype=float), (n,))
    lhs = x[1:]
    rhs = x[:-1] - a[1:] * y[1:] + a[1:] * z[1:]
    ok = lhs <= rhs + tol[1:]
    violations = int(np.sum(~ok))
    k_const = max(float(x[0] - x.min()), 0.0)
    partial_slack = k_const + float(np.sum(a[1:] * z[1:])) - float(np.sum(a[1:] * y[1:]))
    return TripletReport(
        holds_everywhere=violations == 0,
        fraction_holding=float(np.mean(ok)),
        violations=violations,
        running_min_y=np.minimum.accumulate(y),
        k_const=k_const,
        partial_sum_slack=partial_slack,
    )
