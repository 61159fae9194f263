"""Noise-schedule construction, phi lookups, and the gamma ratio."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltc_accel import (
    ConfigError,
    NoiseSchedule,
    NumericError,
    PhiMode,
    build_linear_beta,
    gamma,
    phi,
)
from ltc_accel.harness import PRESETS
from ltc_accel.ltc import AccelerationPlan, _setup
from ltc_accel.sampler import make_timesteps

# Independent product loop over the same beta ramp, frozen before the
# module was written.
ALPHA_BAR_1000_ORACLE = 4.0358297653756754e-05

# gamma at t=20 on build_linear_beta(40, 1e-4, 0.02), sqrt-SNR phi,
# computed by a standalone script from its own alpha_bar table.
GAMMA_T20_ORACLE = 1.0988177617477557


def test_linear_beta_endpoint_matches_product_oracle():
    s = build_linear_beta(1000, 1e-4, 0.02)
    assert s.alpha_bar[0] == 1.0
    got = float(s.alpha_bar[1000])
    assert abs(got - ALPHA_BAR_1000_ORACLE) <= 1e-12 * ALPHA_BAR_1000_ORACLE


def test_constant_beta_gives_exact_powers():
    s = build_linear_beta(3, 0.1, 0.1)
    assert np.array_equal(s.alpha_bar, [1.0, 0.9, 0.9 * 0.9, 0.9 * 0.9 * 0.9])


def test_alpha_bar_strictly_decreasing_and_positive():
    s = build_linear_beta(1000)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[-1] > 0


@pytest.mark.parametrize(
    "t_train,b0,b1",
    [(1, 1e-4, 0.02), (40, 0.0, 0.02), (40, 0.02, 1e-4), (40, 1e-4, 1.0),
     (40, -0.1, 0.02)],
)
def test_build_rejects_invalid_parameters(t_train, b0, b1):
    match = "t_train must be at least 2" if t_train < 2 else "betas must satisfy"
    with pytest.raises(ConfigError, match=match):
        build_linear_beta(t_train, b0, b1)


def test_from_alpha_bar_validates_table():
    NoiseSchedule.from_alpha_bar([1.0, 0.5, 0.25])
    with pytest.raises(ConfigError, match="clean endpoint"):
        NoiseSchedule.from_alpha_bar([0.9, 0.5])
    with pytest.raises(ConfigError, match="strictly decreasing"):
        NoiseSchedule.from_alpha_bar([1.0, 0.5, 0.5])
    with pytest.raises(ConfigError, match="strictly positive"):
        NoiseSchedule.from_alpha_bar([1.0, 0.5, -0.1])
    with pytest.raises(ConfigError, match="non-finite"):
        NoiseSchedule.from_alpha_bar([1.0, 0.5, np.nan])
    with pytest.raises(ConfigError, match="one-dimensional"):
        NoiseSchedule.from_alpha_bar([[1.0, 0.5], [0.25, 0.125]])
    with pytest.raises(ConfigError, match="t_train \\+ 1 = 4 entries, got 3"):
        NoiseSchedule(t_train=3, alpha_bar=[1.0, 0.5, 0.25])


def test_tables_are_immutable():
    s = build_linear_beta(40)
    with pytest.raises(ValueError):
        s.alpha_bar[3] = 0.5
    with pytest.raises(ValueError):
        s.sqrt_snr[3] = 0.5


def test_phi_simple_table():
    # alpha_bar = 0.5 gives SNR = 1, so both modes return 1 at t = 1.
    s = NoiseSchedule.from_alpha_bar([1.0, 0.5])
    assert phi(s, 1, PhiMode.SQRT_SNR) == pytest.approx(1.0, abs=1e-15)
    assert phi(s, 1, PhiMode.SNR) == pytest.approx(1.0, abs=1e-15)
    # alpha_bar = 0.8: SNR = 4, sqrt-SNR = 2.
    s = NoiseSchedule.from_alpha_bar([1.0, 0.8])
    assert phi(s, 1, PhiMode.SNR) == pytest.approx(4.0, rel=1e-14)
    assert phi(s, 1, PhiMode.SQRT_SNR) == pytest.approx(2.0, rel=1e-14)


def test_phi_rejects_out_of_range_t():
    # a bool or a float is refused too, not taken as a mask or an index
    s = build_linear_beta(40)
    for t in (0, -1, 41, True, False, 2.0, np.array([3.0, 2.0]), np.array([True, False])):
        with pytest.raises(IndexError, match="integer"):
            phi(s, t)


@pytest.mark.parametrize("mode", [PhiMode.SQRT_SNR, PhiMode.SNR])
def test_phi_strictly_decreasing_in_t(mode):
    s = build_linear_beta(200)
    vals = [phi(s, t, mode) for t in range(1, 201)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gamma_golden_value():
    s = build_linear_beta(40, 1e-4, 0.02)
    g = gamma(phi(s, 20), phi(s, 21), phi(s, 22))
    assert g == pytest.approx(GAMMA_T20_ORACLE, rel=1e-12)


def test_gamma_is_one_for_affine_phi():
    # Build alpha_bar so that sqrt-SNR is affine over the grid.
    phis = np.array([3.0, 2.5, 2.0, 1.5])
    ab = np.concatenate(([1.0], phis**2 / (1.0 + phis**2)))
    s = NoiseSchedule.from_alpha_bar(ab)
    g = gamma(phi(s, 1), phi(s, 2), phi(s, 3))
    assert g == pytest.approx(1.0, abs=1e-12)
    g = gamma(phi(s, 2), phi(s, 3), phi(s, 4))
    assert g == pytest.approx(1.0, abs=1e-12)


def test_gamma_rejects_non_decreasing_phi():
    with pytest.raises(NumericError, match="phi must strictly decrease in t: phi_t1="):
        gamma(3.0, 2.0, 2.0)
    with pytest.raises(NumericError, match="phi must strictly decrease in t: phi_t1="):
        gamma(3.0, 2.0, 2.5)
    with pytest.raises(NumericError, match="phi must strictly decrease in t: phi_t="):
        gamma(2.0, 2.0, 1.0)
    with pytest.raises(NumericError, match="phi must strictly decrease in t: phi_t="):
        gamma(1.5, 2.0, 1.0)


@pytest.mark.parametrize("mode", list(PhiMode))
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_array_gamma_equals_scalar_calls_on_preset_grids(name, mode):
    # one array lookup of phi and one array gamma give the bits of the
    # scalar calls, at every iteration that has two prior grid points
    cfg = PRESETS[name]
    s = build_linear_beta(cfg.t_train, cfg.beta_start, cfg.beta_end)
    ts = make_timesteps(cfg.t_train, cfg.steps)
    its = np.arange(2, cfg.steps)  # the final iteration's target t = 0 has no phi
    scalar = [gamma(*(phi(s, int(ts[j]), mode) for j in (i, i - 1, i - 2)))
              for i in its]
    looked_up = phi(s, ts[np.stack((its, its - 1, its - 2))], mode)
    assert looked_up.shape == (3, its.size)
    assert gamma(*looked_up).tolist() == scalar
    plan = AccelerationPlan(interval=cfg.interval, r=cfg.r, phi_mode=mode)
    _, gammas, *_ = _setup(s, ts, plan, None, None)
    assert gammas == {i: scalar[i - 2] for i in plan.selected()}


def test_gamma_checks_every_entry_of_an_array():
    # one bad entry among good ones fails the whole array, as a scalar would
    with pytest.raises(NumericError, match="phi must strictly decrease in t: phi_t1="):
        gamma(np.array([4.0, 3.0]), np.array([3.0, 2.0]), np.array([2.0, 2.0]))
    with pytest.raises(NumericError, match="phi must strictly decrease in t: phi_t="):
        gamma(np.array([4.0, 2.0]), np.array([3.0, 2.0]), np.array([2.0, 1.0]))
    with pytest.raises(NumericError, match="gamma overflowed"):
        gamma(np.array([1e308, 3.0]), np.array([1.0, 2.0]), np.array([1.0 - 1e-16, 1.0]))
    with pytest.raises(IndexError):
        phi(build_linear_beta(40), np.array([[1, 2], [40, 41]]))


@given(
    base=st.floats(0.01, 50.0),
    d1=st.floats(1e-6, 10.0),
    d2=st.floats(1e-6, 10.0),
)
def test_gamma_positive_finite_for_decreasing_phi(base, d1, d2):
    g = gamma(base + d1 + d2, base + d2, base)
    assert np.isfinite(g) and g > 0


@settings(max_examples=50)
@given(
    t_train=st.integers(2, 300),
    b0=st.floats(1e-6, 0.05),
    spread=st.floats(0.0, 0.5),
)
def test_build_invariants_hold_for_valid_parameters(t_train, b0, spread):
    s = build_linear_beta(t_train, b0, min(b0 + spread, 0.999))
    assert s.alpha_bar.shape == (t_train + 1,)
    assert s.alpha_bar[0] == 1.0
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all(s.alpha_bar > 0)
    # SNR finite and positive everywhere t >= 1
    assert np.all(np.isfinite(s.snr[1:])) and np.all(s.snr[1:] > 0)
