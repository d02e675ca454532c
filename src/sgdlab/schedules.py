"""Power-law step-size and damping schedules.

A schedule is the pair of sequences

    alpha_k = c * k^(-a)      (step size,  k >= 1)
    mu_k    = m * k^(-b)      (damping,    k >= 1; m = 0 means no damping)

together with the analytic facts the experiment layer needs: whether the
step sums diverge while alpha_k -> 0, whether the squares are summable,
whether the tail product alpha_n * sum_{k<=n} alpha_k^2 vanishes, and
whether (alpha_k, mu_k) form an admissible vanishing-damping pair.  The
classification is closed-form in (a, b); `numeric_probe` cross-checks it
with finite partial sums from `partial_sums`, the one routine that sums
the schedule, in chunks, so that no horizon-long array is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Admissible exponent ranges.  a is allowed past 1 so that convergent-sum
# schedules can be probed; b >= 1 would make sum(alpha_k * mu_k) useless
# for every a in range, so it is rejected outright.
_A_MAX = 1.5


@dataclass(frozen=True)
class PowerSchedule:
    """alpha_k = coeff_alpha * k^(-exp_alpha), mu_k = coeff_mu * k^(-exp_mu)."""

    coeff_alpha: float
    exp_alpha: float
    coeff_mu: float = 0.0
    exp_mu: float = 0.0

    def __post_init__(self):
        c, a, m, b = (self.coeff_alpha, self.exp_alpha, self.coeff_mu, self.exp_mu)
        for name, val in (("coeff_alpha", c), ("exp_alpha", a),
                          ("coeff_mu", m), ("exp_mu", b)):
            if not np.isfinite(val):
                raise ParameterError(f"{name} must be finite, got {val!r}")
        if c <= 0:
            raise ParameterError(f"coeff_alpha must be positive, got {c!r}")
        if not 0.0 <= a <= _A_MAX:
            raise ParameterError(f"exp_alpha must lie in [0, {_A_MAX}], got {a!r}")
        if m < 0:
            raise ParameterError(f"coeff_mu must be non-negative, got {m!r}")
        if not 0.0 <= b < 1.0:
            raise ParameterError(f"exp_mu must lie in [0, 1), got {b!r}")

    def alpha(self, k: int | np.ndarray) -> float | np.ndarray:
        """Step size at iteration k (k >= 1)."""
        k = np.asarray(k, dtype=float)
        out = self.coeff_alpha * k ** (-self.exp_alpha)
        return float(out) if out.ndim == 0 else out

    def mu(self, k: int | np.ndarray) -> float | np.ndarray:
        """Damping at iteration k (identically 0 when coeff_mu == 0)."""
        k = np.asarray(k, dtype=float)
        out = self.coeff_mu * k ** (-self.exp_mu)
        return float(out) if out.ndim == 0 else out

    def alphas(self, horizon: int) -> np.ndarray:
        """alpha_1 .. alpha_horizon as a vector."""
        return self.alpha(np.arange(1, horizon + 1, dtype=float))

    def mus(self, horizon: int) -> np.ndarray:
        return self.mu(np.arange(1, horizon + 1, dtype=float))


def make_power_schedule(coeff_alpha: float, exp_alpha: float,
                        coeff_mu: float = 0.0, exp_mu: float = 0.0) -> PowerSchedule:
    """Validated constructor for PowerSchedule."""
    return PowerSchedule(coeff_alpha, exp_alpha, coeff_mu, exp_mu)


@dataclass(frozen=True)
class ScheduleClass:
    """Closed-form classification of a PowerSchedule.

    diverges            sum(alpha_k) = inf while alpha_k -> 0
    square_summable     sum(alpha_k^2) < inf
    thm22_condition     alpha_n * sum_{k<=n} alpha_k^2 -> 0
    damping_admissible  the (alpha_k, mu_k) pair supports vanishing damping
    l_mu                limit constant in mu_{k-1} - mu_k ~ l_mu * alpha_k * mu_k,
                        defined only when damping_admissible
    """

    diverges: bool
    square_summable: bool
    thm22_condition: bool
    damping_admissible: bool
    l_mu: float | None = None


def classify(s: PowerSchedule) -> ScheduleClass:
    """Classify a power schedule in closed form.

    For alpha_k = c*k^(-a): the sum diverges with alpha_k -> 0 iff a in (0, 1];
    squares are summable iff a > 1/2; the tail product alpha_n * sum alpha_k^2
    vanishes iff a > 1/3 (at a = 1/3 it tends to a positive constant, so the
    boundary classifies false).  A damping pair is admissible iff m > 0, b > 0,
    b < a and a + b <= 1: then alpha_k -> 0, mu_k -> 0, alpha_k/mu_k -> 0 and
    sum(alpha_k * mu_k) = inf.  Admissibility forces a < 1, where the damping
    drift constant is 0.
    """
    a, m, b = (s.exp_alpha, s.coeff_mu, s.exp_mu)
    diverges = 0.0 < a <= 1.0
    square_summable = a > 0.5
    thm22 = a > 1.0 / 3.0
    admissible = (m > 0.0) and (b > 0.0) and (a > b) and (a + b <= 1.0)
    return ScheduleClass(diverges, square_summable, thm22, admissible,
                         0.0 if admissible else None)


@dataclass(frozen=True)
class PartialSumReport:
    """Finite-horizon sums backing up `classify`.

    ratio_alpha_mu and sum_alpha_mu refer to the damping sequence and are 0
    when the schedule has no damping (coeff_mu == 0); sum_alpha_mu = 0 is then
    exact since mu_k is identically zero.
    """

    horizon: int
    sum_alpha: float
    sum_alpha_sq: float
    tail_product: float
    ratio_alpha_mu: float
    sum_alpha_mu: float


_SUM_CHUNK = 1 << 18   # schedule values per step of partial_sums


def partial_sums(s: PowerSchedule, ks) -> np.ndarray:
    """Rows sum_{j<=k} alpha_j, sum_{j<=k} alpha_j^2 and sum_{j<=k} alpha_j mu_j
    at the sorted checkpoints ks >= 1, as a (3, len(ks)) array.

    The sums run over fixed chunks of the schedule, each cumsum starting from
    the carry of the last: cumsum adds in order, so the result equals the
    whole-vector cumsum bitwise while memory stays O(chunk).
    """
    ks = np.asarray(ks, dtype=np.int64)
    end = int(ks[-1]) + 1
    sums = np.zeros((3, len(ks)))
    carry = np.zeros(3)
    for lo in range(1, end, _SUM_CHUNK):
        k = np.arange(lo, min(lo + _SUM_CHUNK, end), dtype=float)
        cum = np.empty((3, len(k)))   # the terms, then their running sums
        a, q, am = cum
        a[:] = s.alpha(k)
        np.multiply(a, a, out=q)
        np.multiply(a, s.mu(k), out=am)
        cum[:, 0] += carry
        np.cumsum(cum, axis=1, out=cum)
        at = slice(*np.searchsorted(ks, [lo, lo + len(k)]))
        sums[:, at] = cum[:, ks[at] - lo]
        carry = cum[:, -1].copy()   # not a view, which would keep the chunk alive
    return sums


def numeric_probe(s: PowerSchedule, horizon: int) -> PartialSumReport:
    """Partial sums of the schedule up to ``horizon`` (see `partial_sums`).

    tail_product = alpha_horizon * sum_{k<=horizon} alpha_k^2, the quantity
    whose decay `thm22_condition` asserts.  Raises OverflowError if any
    partial sum leaves the representable range.
    """
    horizon = int(horizon)
    if horizon < 10:
        raise ParameterError(f"probe horizon must be >= 10, got {horizon}")
    with np.errstate(all="ignore"):
        sum_alpha, sum_alpha_sq, sum_alpha_mu = partial_sums(s, [horizon])[:, 0]
        alpha_h = np.float64(s.alpha(horizon))
        tail_product = alpha_h * sum_alpha_sq
        ratio_alpha_mu = alpha_h / s.mu(horizon) if s.coeff_mu > 0.0 else 0.0
    values = (sum_alpha, sum_alpha_sq, tail_product, ratio_alpha_mu, sum_alpha_mu)
    if not all(np.isfinite(v) for v in values):
        raise OverflowError("schedule partial sums overflow at this horizon")
    return PartialSumReport(horizon, *map(float, values))
