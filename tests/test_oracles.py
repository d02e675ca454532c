"""Noise oracles: stream management, unbiasedness, declared second-moment bounds."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlab.errors import ParameterError
from sgdlab.oracles import (NoiseBound, _nonneg_line_fit, gaussian_oracle,
                            minibatch_oracle, relative_noise_oracle, verify_bound)
from sgdlab.problems import least_squares_sum, pseudo_huber, quadratic
from sgdlab.rng import replica_stream, replica_streams, stream


def test_same_seed_reproduces_samples():
    p = quadratic([1.0, 2.0])
    a = gaussian_oracle(p, 0.3, seed=5)
    b = gaussian_oracle(p, 0.3, seed=5)
    x = np.array([1.0, -1.0])
    for _ in range(5):
        assert np.array_equal(a.sample(x).stoch_grad, b.sample(x).stoch_grad)


def test_sample_decomposition_is_exact():
    p = pseudo_huber(2)
    orc = gaussian_oracle(p, 0.4, seed=8)
    x = np.array([1.5, -0.5])
    s = orc.sample(x)
    assert np.array_equal(s.stoch_grad + s.noise, p.gradient(x))


def test_block_draws_equal_sequential_and_in_place_draws():
    # pre-drawing raw noise for many iterations, in one block, in chunks or
    # into the rows of a replica-major buffer, must not change any stream
    p = quadratic([1.0, 2.0, 3.0])
    lsq = least_squares_sum(stream(1).normal(size=(8, 3)), stream(2).normal(size=8))
    sized = {  # the draws each oracle made before it filled arrays in place
        "gaussian": replica_stream(3, 7).standard_normal((50, 3)),
        "relative_noise": replica_stream(3, 7).standard_normal((50, 3)),
        "minibatch-True": replica_stream(3, 7).integers(0, 8, size=(50, 3), dtype=np.int64),
        "minibatch-False": np.argsort(replica_stream(3, 7).random((50, 8)), axis=-1)[:, :3],
    }
    oracles = [gaussian_oracle(p, 0.5, seed=3),
               relative_noise_oracle(p, 0.2, seed=3),
               minibatch_oracle(lsq, 3, replace=True, seed=3),
               minibatch_oracle(lsq, 3, replace=False, seed=3)]
    for orc in oracles:
        name = orc.kind if orc.kind != "minibatch" else f"minibatch-{orc.replace}"
        block = orc.raw_block(replica_stream(3, 7), 50)
        assert block.shape == (50,) + orc.raw_shape and block.dtype == orc.raw_dtype
        assert block.tobytes() == sized[name].astype(orc.raw_dtype).tobytes(), name
        seq_rng = replica_stream(3, 7)
        seq = np.concatenate([orc.raw_block(seq_rng, n) for n in (13, 17, 20)])
        assert seq.tobytes() == block.tobytes(), name
        buf = np.full((2, 64) + orc.raw_shape, -1, dtype=orc.raw_dtype)
        fill_rng = replica_stream(3, 7)
        for lo, hi in ((0, 13), (13, 30), (30, 50)):
            rows = buf[1, lo:hi]
            assert orc.raw_block(fill_rng, hi - lo, out=rows) is rows
        assert buf[1, :50].tobytes() == block.tobytes(), name
        assert np.all(buf[0] == -1) and np.all(buf[1, 50:] == -1), name
        # refilling the same rows in place continues the stream
        again = orc.raw_block(fill_rng, 20, out=buf[0, :20])
        assert again.base is buf and again.tobytes() == \
            orc.raw_block(seq_rng, 20).tobytes(), name


def test_batched_apply_matches_single_rows_bitwise():
    # one state per raw row: the batched path must equal row-at-a-time exactly,
    # since the experiment engine relies on it for replica vectorization
    p = quadratic([1.0, 4.0])
    lsq = least_squares_sum(stream(21).normal(size=(5, 2)), stream(22).normal(size=5))
    oracles = [gaussian_oracle(p, 0.7, seed=9),
               relative_noise_oracle(p, 0.3, seed=9),
               minibatch_oracle(lsq, 2, seed=9)]
    xs = stream(4).normal(size=(6, 2))
    for orc in oracles:
        raws = orc.raw_block(replica_stream(9, 0), 6)
        prob = orc.problem
        one_at_a_time = np.stack([
            orc.stoch_grad(xs[i], raws[i], grad=prob.gradient(xs[i]))
            for i in range(6)
        ])
        together = orc.stoch_grad(xs, raws, grad=prob.gradient(xs))
        assert np.array_equal(one_at_a_time, together), orc.kind


def test_gaussian_bound_constants_and_verification():
    p = quadratic([2.0, 3.0], [0.5, -0.5])
    orc = gaussian_oracle(p, 0.4, seed=21)
    assert orc.bound == NoiseBound(m_const=0.4 ** 2 * 2, v_const=0.0)
    report = verify_bound(orc, p, stream(33).normal(size=(5, 2)) * 2.0, samples=20000)
    assert report.all_passed
    assert report.samples == 20000


def test_relative_noise_magnitude_is_exactly_proportional():
    p = pseudo_huber(3)
    eta = 0.3
    orc = relative_noise_oracle(p, eta, seed=2)
    assert orc.bound == NoiseBound(m_const=0.0, v_const=eta ** 2)
    x = np.array([1.0, -2.0, 0.5])
    gnorm = float(np.linalg.norm(p.gradient(x)))
    for _ in range(10):
        s = orc.sample(x)
        assert float(np.linalg.norm(s.noise)) == pytest.approx(eta * gnorm, rel=1e-12)


def _relative_noise_by_linalg_norm(eta, grad, raw):
    """The relative-noise gradient with both norms taken by np.linalg.norm."""
    nrm = np.linalg.norm(raw, axis=-1, keepdims=True)
    u = np.divide(raw, nrm, out=np.zeros_like(raw), where=nrm > 0)
    return grad - eta * np.linalg.norm(grad, axis=-1, keepdims=True) * u


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_relative_noise_norms_keep_the_bits_of_linalg_norm(dim):
    orc = relative_noise_oracle(quadratic(np.linspace(0.5, 4.0, dim)), 0.7, seed=1)
    rng = np.random.default_rng(dim)
    raw, grad = rng.normal(size=(2, 2048, dim))
    # zero rows, signed zeros, and rows whose squares underflow or overflow
    raw[:5] = grad[3:8] = 0.0
    raw[10:20][rng.random((10, dim)) < 0.5] = -0.0
    grad[10:20][rng.random((10, dim)) < 0.5] = -0.0
    raw[20:30] *= 1e-160
    grad[25:35] *= 1e160
    with np.errstate(all="ignore"):
        for r, g in ((raw, grad), (raw[0], grad[0]), (raw[12], grad[12])):
            got = orc.stoch_grad(None, r, grad=g)
            assert got.tobytes() == _relative_noise_by_linalg_norm(0.7, g, r).tobytes()


def test_relative_noise_at_the_minimum_is_zero():
    p = pseudo_huber(2)
    orc = relative_noise_oracle(p, 0.5, seed=4)
    s = orc.sample(np.zeros(2))
    assert np.array_equal(s.noise, np.zeros(2))


def test_zero_noise_flags_and_exact_gradients():
    p = quadratic([1.0])
    assert gaussian_oracle(p, 0.0).zero_noise
    assert not gaussian_oracle(p, 0.1).zero_noise
    assert relative_noise_oracle(p, 0.0).zero_noise
    s = gaussian_oracle(p, 0.0).sample(np.array([2.0]))
    assert np.array_equal(s.noise, np.zeros(1))
    assert np.array_equal(s.stoch_grad, p.gradient(np.array([2.0])))


def test_minibatch_is_unbiased():
    rng = stream(5)
    lsq = least_squares_sum(rng.normal(size=(9, 2)), rng.normal(size=9))
    orc = minibatch_oracle(lsq, 2, seed=17)
    x = np.array([0.7, -1.1])
    raws = orc.raw_block(replica_stream(17, 0), 40000)
    sg = orc.stoch_grad(np.broadcast_to(x, (40000, 2)).copy(), raws)
    err = sg.mean(axis=0) - lsq.gradient(x)
    se = sg.std(axis=0, ddof=1) / np.sqrt(len(sg))
    assert np.all(np.abs(err) <= 4.0 * se + 1e-12)


def test_full_batch_without_replacement_recovers_the_exact_gradient():
    rng = stream(6)
    lsq = least_squares_sum(rng.normal(size=(6, 2)), rng.normal(size=6))
    orc = minibatch_oracle(lsq, 6, replace=False, seed=1)
    x = np.array([1.3, 0.2])
    s = orc.sample(x)
    assert np.allclose(s.stoch_grad, lsq.gradient(x), rtol=1e-12, atol=1e-12)
    assert float(np.linalg.norm(s.noise)) < 1e-12


def test_minibatch_two_point_bound_closed_form():
    lsq = least_squares_sum([[1.0], [1.0]], [1.0, -1.0])
    orc = minibatch_oracle(lsq, 1, seed=0)
    assert not orc.bound.empirical
    assert orc.bound.m_const == pytest.approx(2.0, rel=1e-12)
    assert orc.bound.v_const == pytest.approx(2.0, rel=1e-12)


def test_minibatch_degenerate_gram_falls_back_to_an_empirical_bound():
    # rank-deficient design: no closed-form variance transfer constant exists
    lsq = least_squares_sum([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], [1.0, 0.0, -1.0])
    orc = minibatch_oracle(lsq, 1, seed=0)
    assert orc.bound.empirical
    report = verify_bound(orc, lsq, stream(8).normal(size=(5, 2)), samples=5000)
    assert report.all_passed


def test_minibatch_ill_conditioned_gram_gets_an_empirical_bound():
    # lambda_min = 5e-9 passes an absolute 1e-12 test but fails the problem's
    # relative one (1e-12 * lambda_max = 6.7e-7): the closed form would
    # divide by lambda_min^2 and declare V near 1e29.
    lsq = least_squares_sum([[1e3, 0.0], [0.0, 1e-4], [1e3, 1e-4]], [1.0, 0.0, -1.0])
    assert lsq.strong_convexity_mu is None
    orc = minibatch_oracle(lsq, 1, seed=0)
    assert orc.bound.empirical
    report = verify_bound(orc, lsq, stream(8).normal(size=(5, 2)), samples=5000)
    assert report.all_passed


def test_least_squares_minibatch_build_makes_one_eigendecomposition(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    lsq = least_squares_sum([[1.0, 0.5], [0.2, 2.0], [1.5, -1.0]], [1.0, 0.0, -1.0])
    assert not minibatch_oracle(lsq, 2, seed=0).bound.empirical
    assert len(calls) == 1


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_two_column_fit_matches_nnls(seed):
    nnls = pytest.importorskip("scipy.optimize").nnls
    rng = stream(seed)
    n = int(rng.integers(2, 80))
    g = rng.exponential(10.0 ** rng.integers(-3, 4), n)
    y = (rng.uniform(-1.0, 1.0) * rng.uniform(0.0, 2.0) * g
         + rng.normal(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0), n))
    ref, _ = nnls(np.column_stack([np.ones_like(g), g]), y)
    ours = np.array(_nonneg_line_fit(g, y))
    assert np.all(ours >= 0.0)
    assert np.max(np.abs(ours - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1e-300)


def test_minibatch_rejects_out_of_range_batches():
    lsq = least_squares_sum([[1.0], [1.0]], [1.0, -1.0])
    with pytest.raises(ParameterError):
        minibatch_oracle(lsq, 0)
    with pytest.raises(ParameterError):
        minibatch_oracle(lsq, 3)


def test_minibatch_requires_a_least_squares_sum():
    with pytest.raises(ParameterError, match="finite-sum"):
        minibatch_oracle(quadratic([1.0, 4.0]), 1)


@pytest.mark.parametrize("sigma_or_eta", [-0.1, float("nan")])
def test_noise_scales_must_be_finite_and_non_negative(sigma_or_eta):
    p = quadratic([1.0])
    with pytest.raises(ParameterError):
        gaussian_oracle(p, sigma_or_eta)
    with pytest.raises(ParameterError):
        relative_noise_oracle(p, sigma_or_eta)


def test_verify_bound_validates_inputs():
    p = quadratic([1.0, 1.0])
    orc = gaussian_oracle(p, 0.1)
    with pytest.raises(ParameterError):
        verify_bound(orc, p, np.zeros((2, 2)), samples=10)
    with pytest.raises(ParameterError):
        verify_bound(orc, p, np.zeros((2, 3)), samples=2000)


# SHA-256 of the first 8 raw draws of replicas 0, 1 and 257 under master
# seed 1, recorded at numpy 2.4.6 (the version CI pins).  numpy keeps its bit
# generators stable but not the values of Generator methods, so an upgrade
# that changes them would move every estimate and digest; this names the
# oracle and the replica whose draws moved.
_GOLDEN_DRAWS = {
    "gaussian": ("f10cf8c43b12ef1438a698aff930807ade26c9a61eb38d0136d88b875ec7edb9",
                 "459515c358ecd3981b67bc3aae9a3eff2d0f63f2b6831cf44058e67a5daf8a9c",
                 "d0e6c3a66cb5d6c7f1c466a106528ebb95b98dfaf1ffcd0c3014248c2d35befa"),
    "relative_noise": ("f10cf8c43b12ef1438a698aff930807ade26c9a61eb38d0136d88b875ec7edb9",
                       "459515c358ecd3981b67bc3aae9a3eff2d0f63f2b6831cf44058e67a5daf8a9c",
                       "d0e6c3a66cb5d6c7f1c466a106528ebb95b98dfaf1ffcd0c3014248c2d35befa"),
    "minibatch, replace": ("67d71bb2f5b983836bc2c833448e5f36820cff70f8a5abef32b3df011587c9f1",
                           "a62d732e63bb09fdd0f1cb75bd6851a7afc0cf2b59b20d277fa6770f050a1981",
                           "a6258f9e1d4c246393926003e100f17d4ca28759db0a4d20d779860f5c8222b5"),
    "minibatch, no replace": ("8e4f42fbdc9689966020fffa61c5933f0962ac4c878c946a6d8b2058e6c10308",
                              "1062c62dea69b04969f802482bc5f3ec80a9a7ad3ba02475b0f75141762754ca",
                              "3fbde1869c098259395f9f4ce45c863ba709b8fa383c7512115720e55447f4eb"),
}


def test_golden_raw_draws_of_each_oracle_kind():
    q = quadratic([1.0, 4.0])
    lsq = least_squares_sum([[1.0, 0.5, -0.3], [0.2, 1.5, 0.7], [-0.8, 0.1, 1.2],
                             [0.9, -1.1, 0.4], [0.3, 0.6, -1.4], [1.3, 0.2, 0.5]],
                            [1.0, -0.5, 0.8, 0.2, -1.1, 0.6])
    oracles = {"gaussian": gaussian_oracle(q, 0.5),
               "relative_noise": relative_noise_oracle(q, 0.1),
               "minibatch, replace": minibatch_oracle(lsq, 2, replace=True),
               "minibatch, no replace": minibatch_oracle(lsq, 2, replace=False)}
    for kind, oracle in oracles.items():
        gens = replica_streams(1, 258)
        for replica, digest in zip((0, 1, 257), _GOLDEN_DRAWS[kind]):
            raw = oracle.raw_block(gens[replica], 8)
            assert hashlib.sha256(raw.tobytes()).hexdigest() == digest, (
                f"{kind} oracle, replica {replica}: raw draws differ from those "
                f"recorded at numpy 2.4.6 (this is numpy {np.__version__})")
