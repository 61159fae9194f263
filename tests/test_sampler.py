"""DDIM stepping, grids, and the skipping baseline."""

import numpy as np
import pytest

from ltc_accel import NoiseSchedule, NumericError, OrderingError, build_linear_beta
from ltc_accel.model import DiagGmmDenoiser, PointMassDenoiser
from ltc_accel.sampler import (
    ddim_step,
    initial_noise,
    make_timesteps,
    sample_full,
    sample_skipping,
)

# Hand arithmetic, frozen before the module was written:
# abar_t = 0.5, abar_prev = 0.9, x = 1.0, eps = 0.2
#   x0 = (1 - sqrt(0.5) * 0.2) / sqrt(0.5) = 1.214213562373095
#   out = sqrt(0.9) * x0 + sqrt(0.1) * 0.2 = 1.2151496800931385
DDIM_GOLDEN_OUT = 1.2151496800931385


@pytest.fixture(scope="module")
def sched():
    return build_linear_beta(1000, 1e-4, 0.02)


def test_make_timesteps_golden_grid():
    ts = make_timesteps(1000, 40)
    assert ts[0] == 1000 and ts[1] == 975 and ts[-2] == 25 and ts[-1] == 0
    assert len(ts) == 41
    assert np.all(np.diff(ts) == -25)


def test_make_timesteps_rejects_unrepresentable_grid():
    with pytest.raises(OrderingError):
        make_timesteps(5, 10)
    with pytest.raises(OrderingError):
        make_timesteps(1000, 0)


def test_ddim_step_golden_value():
    s = NoiseSchedule.from_alpha_bar([1.0, 0.9, 0.5])
    out = ddim_step(np.array([1.0]), np.array([0.2]), s, t=2, t_prev=1)
    assert out[0] == pytest.approx(DDIM_GOLDEN_OUT, rel=1e-15)


def test_ddim_step_zero_noise_scales_state(sched):
    x = np.array([2.0, -1.0])
    out = ddim_step(x, np.zeros(2), sched, t=500, t_prev=250)
    ratio = sched.sqrt_alpha_bar[250] / sched.sqrt_alpha_bar[500]
    assert np.allclose(out, ratio * x, rtol=1e-15)


def test_ddim_step_rejects_bad_ordering(sched):
    x = np.zeros(2)
    with pytest.raises(OrderingError):
        ddim_step(x, x, sched, t=100, t_prev=100)
    with pytest.raises(OrderingError):
        ddim_step(x, x, sched, t=100, t_prev=200)
    with pytest.raises(IndexError):
        ddim_step(x, x, sched, t=1001, t_prev=0)
    with pytest.raises(ValueError):
        ddim_step(np.zeros(2), np.zeros(3), sched, t=10, t_prev=5)


def test_point_mass_run_ends_exactly_at_mu(sched):
    mu = np.array([0.4, -0.9, 2.2])
    den = PointMassDenoiser(mu, sched)
    x0 = initial_noise(3, seed=5)
    traj = sample_full(den, sched, x0, make_timesteps(1000, 40))
    assert np.allclose(traj.final, mu, rtol=0, atol=1e-9)


def test_point_mass_states_are_grid_independent(sched):
    # epsilon_hat is constant along the trajectory, so every grid lands on
    # the same curve.
    mu = np.array([1.0, -0.5])
    den = PointMassDenoiser(mu, sched)
    x0 = initial_noise(2, seed=1)
    fine = sample_full(den, sched, x0, make_timesteps(1000, 40))
    coarse = sample_full(den, sched, x0, make_timesteps(1000, 8))
    # both grids contain t = 500
    xf = fine.states[list(fine.timesteps).index(500)]
    xc = coarse.states[list(coarse.timesteps).index(500)]
    assert np.allclose(xf, xc, rtol=1e-12, atol=1e-12)


def test_sample_full_bookkeeping(sched, counting):
    den = counting(PointMassDenoiser(np.zeros(2), sched))
    ts = make_timesteps(1000, 10)
    traj = sample_full(den, sched, initial_noise(2, 0), ts)
    assert traj.nfe == 10 == traj.iterations
    assert den.calls == [(int(t), 1) for t in ts[:-1]]
    assert traj.states.shape == (11, 2)
    assert np.all(np.isfinite(traj.states))


def test_sample_full_rejects_bad_inputs(sched):
    den = PointMassDenoiser(np.zeros(2), sched)
    with pytest.raises(OrderingError):
        sample_full(den, sched, np.zeros(2), [100, 100, 0])
    with pytest.raises(OrderingError):
        sample_full(den, sched, np.zeros(2), [100, 200, 0])
    with pytest.raises(OrderingError):
        sample_full(den, sched, np.zeros(2), [1200, 600, 0])
    with pytest.raises(NumericError):
        sample_full(den, sched, np.array([np.inf, 0.0]), [100, 0])


@pytest.fixture(scope="module")
def gmm(sched):
    return DiagGmmDenoiser(
        [0.5, 0.5], [[-1.0, 0.5], [1.0, -0.5]], [[0.02, 0.02], [0.02, 0.02]], sched)


def test_skipping_nothing_equals_full_bit_exactly(sched, gmm):
    ts = make_timesteps(1000, 20)
    x0 = initial_noise(2, 9)
    a = sample_full(gmm, sched, x0, ts)
    b = sample_skipping(gmm, sched, x0, ts, skipped=set())
    assert np.array_equal(a.states, b.states)
    assert a.nfe == b.nfe


def test_skipping_matches_full_on_surviving_grid(sched, gmm):
    ts = make_timesteps(1000, 40)
    x0 = initial_noise(2, 9)
    skipped = {13, 20, 39}
    a = sample_skipping(gmm, sched, x0, ts, skipped)
    keep = [j for j in range(41) if j not in skipped]
    b = sample_full(gmm, sched, x0, ts[keep])
    assert np.array_equal(a.states, b.states)


def test_skipping_odd_positions_gives_golden_nfe(sched, gmm):
    ts = make_timesteps(1000, 40)
    skipped = {i for i in range(13, 40, 2)}
    assert len(skipped) == 14
    traj = sample_skipping(gmm, sched, initial_noise(2, 1), ts, skipped)
    assert traj.nfe == 26


def test_skipping_endpoints_is_rejected(sched, gmm):
    ts = make_timesteps(1000, 10)
    for bad in ({0}, {10}, {0, 3}):
        with pytest.raises(ValueError):
            sample_skipping(gmm, sched, initial_noise(2, 1), ts, bad)


def test_initial_noise_is_seed_deterministic():
    assert np.array_equal(initial_noise(4, 42), initial_noise(4, 42))
    assert not np.array_equal(initial_noise(4, 42), initial_noise(4, 43))
