"""Power-law schedules: evaluation, closed-form classification, partial sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab.errors import ParameterError
from sgdlab.schedules import PowerSchedule, classify, make_power_schedule, numeric_probe


def test_alpha_and_mu_follow_the_power_law():
    s = PowerSchedule(0.5, 0.6, 1.0, 0.2)
    assert s.alpha(1) == 0.5
    assert s.alpha(16) == 0.5 * 16.0 ** -0.6
    assert s.mu(1) == 1.0
    assert s.mu(32) == 32.0 ** -0.2


def test_vector_and_scalar_evaluation_agree_bitwise():
    # The experiment engine precomputes alphas(horizon) while the single-run
    # driver calls alpha(k) per step; they must be interchangeable exactly.
    s = PowerSchedule(0.7, 0.4, 0.3, 0.1)
    ks = np.arange(1, 200)
    assert np.array_equal(s.alphas(199), np.array([s.alpha(int(k)) for k in ks]))
    assert np.array_equal(s.mus(199), np.array([s.mu(int(k)) for k in ks]))


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
