"""Power-law schedules: evaluation, closed-form classification, partial sums."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab import schedules
from sgdlab.errors import ParameterError
from sgdlab.lyapunov import checkpoint_coefficients
from sgdlab.schedules import PowerSchedule, classify, make_power_schedule, numeric_probe


def test_alpha_and_mu_follow_the_power_law():
    s = PowerSchedule(0.5, 0.6, 1.0, 0.2)
    assert s.alpha(1) == 0.5
    assert s.alpha(16) == 0.5 * 16.0 ** -0.6
    assert s.mu(1) == 1.0
    assert s.mu(32) == 32.0 ** -0.2


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@given(c=st.floats(1e-3, 10.0), a=st.floats(0.0, 1.5), m=st.floats(0.0, 10.0),
       b=st.floats(0.0, 0.99), horizon=st.integers(1, 5000), data=st.data())
@settings(max_examples=100, deadline=None)
def test_vector_and_scalar_evaluation_agree_bitwise(c, a, m, b, horizon, data):
    # The engine evaluates the schedule one block of raw draws at a time,
    # with the step before the block (alpha_1 before the first step), and
    # at the checkpoints alone; a single k and any block must give the bits
    # of the whole-horizon vectors alphas(H) and mus(H).
    s = PowerSchedule(c, a, m, b)
    alphas, mus = s.alphas(horizon), s.mus(horizon)
    for k in data.draw(st.lists(st.integers(1, horizon), min_size=1, max_size=10)):
        assert _bits(s.alpha(k)) == _bits(alphas[k - 1])
        assert _bits(s.mu(k)) == _bits(mus[k - 1])
    lengths = st.one_of(st.just(1), st.integers(1, 3000))   # many blocks of one
    k = 0
    while k < horizon:
        n = min(data.draw(lengths), horizon - k)
        ks = np.maximum(np.arange(k, k + n + 1), 1.0)   # as `harness._steps` builds it
        before = alphas[max(k, 1) - 1]
        assert _bits(s.alpha(ks)) == _bits(np.append(before, alphas[k:k + n]))
        assert _bits(s.mu(ks)) == _bits(np.append(mus[max(k, 1) - 1], mus[k:k + n]))
        k += n
    grid = np.unique([0] + data.draw(st.lists(st.integers(0, horizon), max_size=200)))
    alpha_at, mu_at, _ = checkpoint_coefficients(grid, s)
    assert _bits(alpha_at) == _bits(np.where(grid >= 1, alphas[grid - 1], 0.0))
    assert _bits(mu_at) == _bits(np.where(grid >= 1, mus[grid - 1], 0.0))


def test_undamped_schedule_has_identically_zero_mu():
    s = PowerSchedule(1.0, 0.5)
    assert s.mu(1) == 0.0
    assert np.array_equal(s.mus(50), np.zeros(50))


@pytest.mark.parametrize("kwargs", [
    dict(coeff_alpha=0.0),
    dict(coeff_alpha=-1.0),
    dict(exp_alpha=-0.1),
    dict(exp_alpha=1.6),
    dict(coeff_mu=-0.2),
    dict(exp_mu=1.0),
    dict(exp_mu=-0.5),
    dict(coeff_alpha=float("nan")),
    dict(exp_alpha=float("inf")),
])
def test_invalid_parameters_are_rejected(kwargs):
    base = dict(coeff_alpha=1.0, exp_alpha=0.5, coeff_mu=0.0, exp_mu=0.0)
    base.update(kwargs)
    with pytest.raises(ParameterError):
        make_power_schedule(**base)


def test_classify_truth_table_over_alpha_exponents():
    # (a, diverges, square_summable, thm22_condition); boundaries:
    # a = 1/2 is not square-summable, a = 1/3 leaves the tail product at a
    # positive constant, a = 1 still diverges, a = 0 does not send alpha -> 0.
    rows = [
        (0.0, False, False, False),
        (0.2, True, False, False),
        (1.0 / 3.0, True, False, False),
        (0.4, True, False, True),
        (0.5, True, False, True),
        (0.6, True, True, True),
        (1.0, True, True, True),
        (1.2, False, True, True),
    ]
    for a, div, sq, thm in rows:
        cls = classify(PowerSchedule(1.0, a))
        assert cls.diverges == div, f"a={a}"
        assert cls.square_summable == sq, f"a={a}"
        assert cls.thm22_condition == thm, f"a={a}"


def test_damping_admissibility_conditions():
    assert classify(PowerSchedule(1.0, 0.7, 1.0, 0.2)).damping_admissible
    # each failure mode separately: m = 0, b = 0, b >= a, a + b > 1
    assert not classify(PowerSchedule(1.0, 0.7, 0.0, 0.2)).damping_admissible
    assert not classify(PowerSchedule(1.0, 0.7, 1.0, 0.0)).damping_admissible
    assert not classify(PowerSchedule(1.0, 0.3, 1.0, 0.4)).damping_admissible
    assert not classify(PowerSchedule(1.0, 0.9, 1.0, 0.2)).damping_admissible


def test_drift_constant_is_zero_for_admissible_pairs():
    # admissibility forces a < 1, where the mu-decrement over alpha_k * mu_k
    # tends to zero; l_mu is undefined (None) for inadmissible pairs
    cls = classify(PowerSchedule(1.0, 0.7, 1.0, 0.2))
    assert cls.l_mu == 0.0
    assert classify(PowerSchedule(1.0, 0.7)).l_mu is None


def test_partial_sums_frozen_harmonic_values():
    probe = numeric_probe(PowerSchedule(1.0, 1.0), 10)
    assert probe.sum_alpha == 2.9289682539682538
    assert probe.sum_alpha_sq == 1.5497677311665408
    assert probe.tail_product == probe.sum_alpha_sq * PowerSchedule(1.0, 1.0).alpha(10)
    assert probe.horizon == 10


def test_probe_damping_fields():
    s = PowerSchedule(0.5, 0.7, 2.0, 0.2)
    probe = numeric_probe(s, 1000)
    assert probe.ratio_alpha_mu == pytest.approx(s.alpha(1000) / s.mu(1000), rel=1e-15)
    alphas, mus = s.alphas(1000), s.mus(1000)
    assert probe.sum_alpha_mu == pytest.approx(float(np.sum(alphas * mus)), rel=1e-15)


def test_probe_reports_exact_zeros_without_damping():
    probe = numeric_probe(PowerSchedule(1.0, 0.5), 100)
    assert probe.ratio_alpha_mu == 0.0
    assert probe.sum_alpha_mu == 0.0


def test_probe_overflow_and_short_horizon_are_rejected():
    with pytest.raises(OverflowError):
        numeric_probe(PowerSchedule(1e308, 0.0), 1000)
    with pytest.raises(ParameterError):
        numeric_probe(PowerSchedule(1.0, 0.5), 9)


def test_partial_sums_carry_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(schedules, "_SUM_CHUNK", 4)
    s = PowerSchedule(0.5, 0.7, 2.0, 0.2)
    ks = np.array([1, 3, 4, 5, 8, 9, 17, 40])   # on, before and after edges of 4-chunks
    sum_a, sum_q, sum_am = schedules.partial_sums(s, ks)
    alphas, mus = s.alphas(40), s.mus(40)
    cum_a, cum_q, cum_am = (np.cumsum(alphas), np.cumsum(alphas * alphas),
                            np.cumsum(alphas * mus))
    assert np.array_equal(sum_a, cum_a[ks - 1])
    assert np.array_equal(sum_q, cum_q[ks - 1])
    assert np.array_equal(sum_am, cum_am[ks - 1])
    for horizon in (12, 13, 40):
        probe = numeric_probe(s, horizon)
        assert probe.sum_alpha == cum_a[horizon - 1]
        assert probe.sum_alpha_sq == cum_q[horizon - 1]
        assert probe.sum_alpha_mu == cum_am[horizon - 1]
        assert probe.tail_product == alphas[horizon - 1] * cum_q[horizon - 1]


def test_probe_memory_does_not_grow_with_the_horizon():
    # both horizons span several chunks of the partial sums; vectors of
    # alpha_k and mu_k up to the horizon would add about 24 bytes per
    # iteration, 84 MB between the two
    s = PowerSchedule(0.5, 0.7, 2.0, 0.2)
    peaks = []
    for horizon in (500_000, 4_000_000):
        tracemalloc.start()
        try:
            numeric_probe(s, horizon)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 << 20, peaks


def test_classifier_matches_observed_trends_on_a_small_grid():
    # decade-ratio surrogates for the asymptotic statements; the acceptance
    # suite runs the full grid at a longer horizon
    for a in (0.2, 0.4, 0.6, 1.2):
        s = PowerSchedule(1.0, a)
        lo, hi = numeric_probe(s, 10 ** 4), numeric_probe(s, 10 ** 5)
        cls = classify(s)
        tail_decays = hi.tail_product < 0.95 * lo.tail_product
        sums_grow = hi.sum_alpha > 1.10 * lo.sum_alpha
        assert tail_decays == cls.thm22_condition, f"a={a}"
        assert sums_grow == cls.diverges, f"a={a}"


@given(c=st.floats(0.05, 2.0), a=st.floats(0.0, 1.5), k=st.integers(1, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_alpha_is_positive_and_non_increasing(c, a, k):
    s = PowerSchedule(c, a)
    assert s.alpha(k) > 0.0
    assert s.alpha(k + 1) <= s.alpha(k)
