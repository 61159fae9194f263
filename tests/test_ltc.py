"""Transition reuse: operators, angles, interval detection, calibration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltc_accel import (
    AccelerationPlan,
    DegenerateTransitionError,
    DiagGmmDenoiser,
    PhiMode,
    PlanError,
    Trajectory,
    TransitionOperator,
    accelerated_sample,
    angle,
    angle_trace,
    approx_step,
    build_linear_beta,
    calibrate_wg,
    detect_interval,
    golden_section_max,
    initial_noise,
    make_timesteps,
    refine_bias,
    relative_error,
    sample_full,
    transition,
    wg_closed_form,
    write_trace,
)
from ltc_accel.ltc import _bias_objective, _extrapolation, _search_bias
from ltc_accel.metrics import psnr
from ltc_accel.model import PointMassDenoiser, RecordedTraceDenoiser
from ltc_accel.sampler import _chain, ddim_step


@pytest.fixture(scope="module")
def sched():
    return build_linear_beta(1000, 1e-4, 0.02)


@pytest.fixture(scope="module")
def gmm(sched):
    rng = np.random.default_rng(1)
    return DiagGmmDenoiser([0.5, 0.3, 0.2], rng.normal(size=(3, 8)),
                           np.full((3, 8), 0.1), sched)


@pytest.fixture(scope="module")
def recorded_data(sched, gmm):
    """The GMM's predictions along full-resolution runs from seeds 0..11."""
    ts = make_timesteps(1000, 1000)
    data = np.empty((12, 1000, 8), dtype=np.float32)
    for k in range(12):
        x = initial_noise(8, k)
        for j in range(1000):
            data[k, j] = gmm.epsilon_hat(x, int(ts[j]))
            x = ddim_step(x, data[k, j].astype(np.float64), sched,
                          int(ts[j]), int(ts[j + 1]))
    return data


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, recorded_data):
    """Trace denoisers replaying the GMM along full-resolution runs."""
    path = str(tmp_path_factory.mktemp("trace") / "eps.trace")
    write_trace(path, recorded_data)
    return lambda seed: RecordedTraceDenoiser.from_manifest(path, seed)


@pytest.fixture(scope="module")
def zero_trace(tmp_path_factory):
    """All-zero trace: from x_init = 0 every displacement is exactly 0."""
    path = str(tmp_path_factory.mktemp("zero") / "z.trace")
    write_trace(path, np.zeros((1, 8, 2), dtype=np.float32))
    return RecordedTraceDenoiser.from_manifest(path, seed=0)


def _vec(*xs):
    return np.asarray(xs, dtype=np.float64)


class TestTransition:
    def test_delta_orientation(self):
        op = transition(_vec(1.0, 2.0), _vec(0.5, 3.0), hi=7)
        assert np.array_equal(op.delta, [0.5, -1.0])
        assert op.hi == 7 and op.lo == 6

    def test_explicit_lo_for_coarse_grids(self):
        op = transition(_vec(1.0), _vec(0.0), hi=550, lo=525)
        assert op.lo == 525

    def test_rejects_inverted_endpoints_and_mismatch(self):
        with pytest.raises(ValueError):
            TransitionOperator(hi=5, lo=5, delta=_vec(1.0))
        with pytest.raises(ValueError):
            transition(_vec(1.0), _vec(1.0, 2.0), hi=3)


class TestAngle:
    def test_cardinal_angles(self):
        d = lambda v: TransitionOperator(hi=2, lo=1, delta=v)
        assert angle(d(_vec(1, 0)), d(_vec(0, 1))) == pytest.approx(np.pi / 2)
        assert angle(d(_vec(1, 0)), d(_vec(3, 0))) == pytest.approx(0.0)
        assert angle(d(_vec(1, 0)), d(_vec(-2, 0))) == pytest.approx(np.pi)

    def test_cosine_is_clipped_against_rounding(self):
        # nearly parallel vectors can push the raw cosine above 1
        u = _vec(1.0, 1e-8)
        d = lambda v: TransitionOperator(hi=2, lo=1, delta=v)
        out = angle(d(u), d(u * (1 + 1e-12)))
        assert np.isfinite(out) and 0.0 <= out < 1e-6

    def test_zero_displacement_rejected(self):
        d = lambda v: TransitionOperator(hi=2, lo=1, delta=v)
        with pytest.raises(DegenerateTransitionError):
            angle(d(_vec(0, 0)), d(_vec(1, 0)))
        with pytest.raises(ValueError):
            angle(d(_vec(1, 0)), d(_vec(1, 0, 0)))

    @given(
        u=arrays(np.float64, 3, elements=st.floats(-10, 10)),
        v=arrays(np.float64, 3, elements=st.floats(-10, 10)),
        a=st.floats(0.01, 100.0),
        b=st.floats(0.01, 100.0),
    )
    def test_range_and_scale_invariance(self, u, v, a, b):
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            return
        d = lambda w: TransitionOperator(hi=2, lo=1, delta=w)
        th = angle(d(u), d(v))
        assert 0.0 <= th <= np.pi
        assert angle(d(a * u), d(b * v)) == pytest.approx(th, abs=1e-6)


class TestDetectInterval:
    def test_plain_dip(self):
        out = detect_interval([0.5, 0.05, 0.05, 0.05, 0.5], tau=0.1)
        assert out == (1, 3)

    def test_profile_with_high_shoulders(self):
        # high plateau, long dip over positions 12..38, high tail
        trace = np.concatenate([
            np.full(12, 0.4), np.full(27, 0.03), np.full(3, 0.5)])
        assert detect_interval(trace, tau=0.1) == (12, 38)

    def test_ties_break_toward_earliest(self):
        assert detect_interval([0.05, 0.5, 0.05], tau=0.1) == (0, 0)
        assert detect_interval([0.05, 0.05, 0.5, 0.05, 0.05], tau=0.1) == (0, 1)

    def test_no_coherent_steps_is_none(self):
        assert detect_interval([0.5, 0.2, 0.9], tau=0.1) is None
        assert detect_interval([0.1, 0.1], tau=0.1) is None  # strict <

    def test_everything_below_tau(self):
        assert detect_interval([0.01] * 7, tau=0.1) == (0, 6)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            detect_interval([0.1], tau=0.0)

    @settings(max_examples=200)
    @given(st.lists(st.floats(0.0, 0.3), min_size=1, max_size=40))
    def test_matches_brute_force(self, seq):
        tau = 0.1
        got = detect_interval(seq, tau)
        runs = []
        start = None
        for p, v in enumerate(seq + [tau]):
            if v < tau and start is None:
                start = p
            elif v >= tau and start is not None:
                runs.append((start, p - 1))
                start = None
        want = max(runs, key=lambda ab: ab[1] - ab[0], default=None)
        assert got == want


class TestWgClosedForm:
    def test_hand_value(self):
        d1 = TransitionOperator(hi=2, lo=1, delta=_vec(1, 0))
        d2 = TransitionOperator(hi=3, lo=2, delta=_vec(1, 1))
        # dot = 1, ||d2||^2 = 2, gamma = 2 -> wg = 1 / 4
        assert wg_closed_form(d1, d2, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_rejects_degenerate_inputs(self):
        d1 = TransitionOperator(hi=2, lo=1, delta=_vec(1, 0))
        z = TransitionOperator(hi=3, lo=2, delta=_vec(0, 0))
        with pytest.raises(DegenerateTransitionError):
            wg_closed_form(d1, z, 1.0)
        with pytest.raises(ValueError):
            wg_closed_form(d1, d1, 0.0)
        with pytest.raises(ValueError):
            wg_closed_form(d1, d1, -1.0)

    @given(
        d1=arrays(np.float64, 4, elements=st.floats(-5, 5)),
        d2=arrays(np.float64, 4, elements=st.floats(-5, 5)),
        g=st.floats(0.5, 2.0),
    )
    def test_residual_is_orthogonal_to_previous_delta(self, d1, d2, g):
        if np.linalg.norm(d2) < 1e-6:
            return
        o1 = TransitionOperator(hi=2, lo=1, delta=d1)
        o2 = TransitionOperator(hi=3, lo=2, delta=d2)
        w = wg_closed_form(o1, o2, g)
        resid = d1 - w * g * d2
        scale = max(float(np.linalg.norm(d1)) * float(np.linalg.norm(d2)), 1e-9)
        assert abs(float(resid @ d2)) <= 1e-9 * scale

    def test_matches_golden_section_minimizer(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d1 = rng.normal(size=6)
            d2 = rng.normal(size=6)
            g = rng.uniform(0.5, 2.0)
            o1 = TransitionOperator(hi=2, lo=1, delta=d1)
            o2 = TransitionOperator(hi=3, lo=2, delta=d2)
            w = wg_closed_form(o1, o2, g)
            span = abs(w) + 1.0
            w_search, _ = golden_section_max(
                lambda u: -float(np.sum((d1 - u * g * d2) ** 2)),
                w - span, w + span, tol=1e-10)
            assert abs(w - w_search) < 1e-7


class TestApproxStepAndError:
    def test_approx_step_arithmetic(self):
        d2 = TransitionOperator(hi=3, lo=2, delta=_vec(1.0, -2.0))
        out = approx_step(_vec(10.0, 10.0), d2, wg=0.5, g=2.0)
        assert np.array_equal(out, [11.0, 8.0])
        with pytest.raises(ValueError):
            approx_step(_vec(1.0), d2, 1.0, 1.0)

    def test_relative_error_zero_for_exact_hit(self):
        d = TransitionOperator(hi=2, lo=1, delta=_vec(1.0, 1.0))
        assert relative_error(_vec(2, 2), _vec(2, 2), d) == 0.0

    def test_relative_error_is_sin_squared_at_optimum(self):
        # true delta at 45 degrees to the reused one, optimal wg
        d_true = _vec(1.0, 1.0)
        d_prev = _vec(1.0, 0.0)
        o_true = TransitionOperator(hi=2, lo=1, delta=d_true)
        o_prev = TransitionOperator(hi=3, lo=2, delta=d_prev)
        g = 1.3
        w = wg_closed_form(o_true, o_prev, g)
        x_hi = _vec(5.0, 5.0)
        x_true = x_hi + d_true
        x_star = approx_step(x_hi, o_prev, w, g)
        got = relative_error(x_true, x_star, o_true)
        th = angle(o_true, o_prev)
        assert got == pytest.approx(np.sin(th) ** 2, rel=1e-12)

    def test_relative_error_rejects_zero_reference_delta(self):
        z = TransitionOperator(hi=2, lo=1, delta=_vec(0.0))
        with pytest.raises(DegenerateTransitionError):
            relative_error(_vec(1.0), _vec(2.0), z)


class TestAngleTrace:
    def test_degenerate_steps_become_pi(self):
        states = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        traj = Trajectory(timesteps=np.array([3, 2, 1, 0]), states=states)
        tr = angle_trace(traj)
        # iteration 2 delta is zero, so angles at iterations 2 and 3 degenerate
        assert tr.start == 2
        assert tr.angles[0] == np.pi and tr.angles[1] == np.pi
        assert tr.degenerate == (2, 3)

    def test_iteration_mapping(self, sched, gmm):
        traj = sample_full(gmm, sched, initial_noise(8, 3), make_timesteps(1000, 20))
        tr = angle_trace(traj)
        assert len(tr.angles) == 19
        assert tr.iteration_interval((0, 18)) == (2, 20)

    @pytest.mark.filterwarnings("error")  # zero norms must not warn
    def test_batch_rows_equal_single_runs_and_angle(self, sched, gmm):
        ts = make_timesteps(1000, 20)
        x0 = np.stack([initial_noise(8, k) for k in range(3)])
        states = sample_full(gmm, sched, x0, ts).states.copy()
        # zero displacements: row 1 at iteration 5, row 2 at iteration 3
        states[1, 5], states[2, 3] = states[1, 4], states[2, 2]
        batch = Trajectory(timesteps=ts, states=states, nfe=np.full(3, 20))
        tr = angle_trace(batch)
        assert tr.angles.shape == (3, 19)
        assert tr.degenerate == ((2, 3), (2, 4), (1, 5), (1, 6))
        for j in range(3):
            one = angle_trace(batch.row(j))
            assert np.array_equal(tr.angles[j], one.angles)
            assert one.degenerate == tuple(i for r, i in tr.degenerate if r == j)
            for i in range(2, 21):
                d_i, d_prev = (transition(states[j, k], states[j, k - 1],
                                          hi=int(ts[k - 1]), lo=int(ts[k]))
                               for k in (i, i - 1))
                try:
                    want = angle(d_i, d_prev)
                except DegenerateTransitionError:
                    want = np.pi
                    assert i in one.degenerate
                assert tr.angles[j, i - 2] == want


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 20), n=st.integers(1, 6), d=st.integers(1, 4097),
       log_scale=st.floats(-3.0, 8.0), seed=st.integers(0, 2**32 - 1))
def test_vecdot_matches_per_row_dot(rows, n, d, log_scale, seed):
    # The batched angle, calibration and end-error reductions rely on
    # np.vecdot giving the bits of a per-row np.dot, and sqrt(vecdot(u, u))
    # those of np.linalg.norm. No numpy documentation promises either.
    buf = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(
        (rows, n + 1, d))
    for u, v in ((buf[:, 1:], buf[:, :-1]),                # strided views
                 (buf[:, 0].copy(), buf[:, -1].copy())):  # contiguous
        dots, norms = np.vecdot(u, v), np.sqrt(np.vecdot(u, u))
        for idx in np.ndindex(dots.shape):
            assert dots[idx] == np.dot(u[idx], v[idx])
            assert norms[idx] == np.linalg.norm(u[idx])


class TestAccelerationPlan:
    def test_parity_selection(self):
        plan = AccelerationPlan(interval=(13, 39))
        assert plan.selected() == tuple(range(13, 40, 2))
        plan = AccelerationPlan(interval=(12, 38))
        assert plan.selected() == tuple(range(13, 38, 2))
        assert len(plan.selected()) == 13

    def test_validate_bounds(self):
        with pytest.raises(PlanError):
            AccelerationPlan(interval=(0, 10)).validate(40, require_wg=False)
        with pytest.raises(PlanError):
            AccelerationPlan(interval=(13, 40)).validate(40, require_wg=False)
        with pytest.raises(PlanError):
            AccelerationPlan(interval=(20, 13)).validate(40, require_wg=False)
        # iteration 1 would be selected but has only one prior state
        with pytest.raises(PlanError):
            AccelerationPlan(interval=(1, 9)).validate(40, require_wg=False)
        AccelerationPlan(interval=(2, 39)).validate(40, require_wg=False)

    def test_validate_parameters(self):
        with pytest.raises(PlanError):
            AccelerationPlan(interval=None, r=1).validate(40, require_wg=False)
        with pytest.raises(PlanError):
            AccelerationPlan(interval=None, tau=0.0).validate(40, require_wg=False)
        with pytest.raises(PlanError):
            AccelerationPlan(interval=None, bias=np.nan).validate(40, require_wg=False)
        wg = dict.fromkeys(range(13, 40, 2), 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            plan = AccelerationPlan(interval=(13, 39), wg={**wg, 13: bad, 27: bad})
            with pytest.raises(PlanError, match=r"\[13, 27\]"):
                plan.validate(40, require_wg=True)
        with pytest.warns(UserWarning, match="ceiling"):
            AccelerationPlan(interval=None, tau=0.2).validate(40, require_wg=False)
        with pytest.warns(UserWarning, match="r="):
            AccelerationPlan(interval=(6, 10), r=3).validate(40, require_wg=False)

    def test_missing_wg_entries_rejected(self):
        plan = AccelerationPlan(interval=(13, 39), wg={13: 1.0})
        with pytest.raises(PlanError, match="wg entry"):
            plan.validate(40, require_wg=True)
        plan.validate(40, require_wg=False)

    def test_empty_plan_selects_nothing(self):
        plan = AccelerationPlan.empty()
        assert plan.selected() == ()
        assert plan.validate(40, require_wg=True) == ()


INTERVALS_100 = [(2, 38), (13, 39), (21, 99)]  # on a 100-step grid


class TestCalibrateAndApply:
    def test_error_identity_on_benchmark(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39))
        cal = calibrate_wg(gmm, sched, initial_noise(8, 0), ts, plan)
        assert sorted(cal.wg) == list(plan.selected())
        for i in cal.wg:
            assert cal.eps_r[i] <= np.sin(cal.theta[i]) ** 2 + 1e-12
        assert cal.trajectory.nfe == 40

    @pytest.mark.parametrize("interval", INTERVALS_100, ids="{0[0]}-{0[1]}".format)
    @pytest.mark.parametrize("phi_mode", list(PhiMode))
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("kind", ["gmm", "trace"])
    def test_apply_reproduces_calibration_chain(self, sched, gmm, recorded,
                                                interval, phi_mode, seed, kind):
        # same seed, same wg: the approximated chain is the calibration chain
        den = gmm if kind == "gmm" else recorded(seed)
        ts = make_timesteps(1000, 100)
        x0 = initial_noise(8, seed)
        plan = AccelerationPlan(interval=interval, phi_mode=phi_mode)
        cal = calibrate_wg(den, sched, x0, ts, plan)
        acc = accelerated_sample(den, sched, x0, ts, plan.with_wg(cal.wg))
        assert np.array_equal(acc.states, cal.trajectory.states)
        assert acc.approximated == cal.trajectory.approximated == plan.selected()

    @pytest.mark.parametrize("interval", INTERVALS_100, ids="{0[0]}-{0[1]}".format)
    @pytest.mark.parametrize("phi_mode", list(PhiMode))
    @pytest.mark.parametrize("seed", [2, 9])
    @pytest.mark.parametrize("kind", ["gmm", "trace"])
    def test_nfe_accounting(self, sched, gmm, recorded, interval, phi_mode,
                            seed, kind, counting):
        den = gmm if kind == "gmm" else recorded(seed)
        ts = make_timesteps(1000, 100)
        x0 = initial_noise(8, seed)
        plan = AccelerationPlan(interval=interval, phi_mode=phi_mode)
        cal = calibrate_wg(den, sched, x0, ts, plan)
        counted = counting(den)
        acc = accelerated_sample(counted, sched, x0, ts, plan.with_wg(cal.wg))
        assert cal.trajectory.nfe == 100
        assert acc.nfe + len(acc.approximated) == 100
        assert acc.nfe == 100 - len(plan.selected())
        assert acc.approximated == plan.selected()
        # only the non-selected iterations reach the denoiser, once each
        assert counted.calls == [(int(ts[i - 1]), 1) for i in range(1, 101)
                                 if i not in plan.selected()]

    @pytest.mark.parametrize("steps", [20, 100])
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("kind", ["gmm", "trace"])
    def test_empty_plan_is_bit_exact_full_run(self, sched, gmm, recorded,
                                              steps, seed, kind):
        den = gmm if kind == "gmm" else recorded(seed)
        ts = make_timesteps(1000, steps)
        x0 = initial_noise(8, seed)
        full = sample_full(den, sched, x0, ts)
        acc = accelerated_sample(den, sched, x0, ts, AccelerationPlan.empty())
        cal = calibrate_wg(den, sched, x0, ts, AccelerationPlan.empty())
        assert np.array_equal(full.states, acc.states)
        assert np.array_equal(full.states, cal.trajectory.states)
        assert full.nfe == acc.nfe == cal.trajectory.nfe == steps
        assert cal.wg == {}

    def test_bias_shifts_the_result(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        x0 = initial_noise(8, 5)
        plan = AccelerationPlan(interval=(13, 39))
        cal = calibrate_wg(gmm, sched, x0, ts, plan)
        a = accelerated_sample(gmm, sched, x0, ts, plan.with_wg(cal.wg))
        import dataclasses
        biased = dataclasses.replace(plan.with_wg(cal.wg), bias=0.05)
        b = accelerated_sample(gmm, sched, x0, ts, biased)
        assert not np.array_equal(a.final, b.final)

    def test_zero_displacement_falls_back_to_real_step(self, tmp_path, sched):
        # all-zero trace with x_init = 0 keeps every displacement at exactly 0
        path = str(tmp_path / "z.trace")
        write_trace(path, np.zeros((1, 8, 2), dtype=np.float32))
        den = RecordedTraceDenoiser.from_manifest(path, seed=0)
        flat = build_linear_beta(8, 0.01, 0.05)
        ts = np.arange(8, -1, -1)
        plan = AccelerationPlan(interval=(3, 7), wg={3: 1.0, 5: 1.0, 7: 1.0})
        acc = accelerated_sample(den, flat, np.zeros(2), ts, plan)
        assert acc.fallbacks == (3, 5, 7)
        assert acc.approximated == ()
        assert acc.nfe == 8  # fallbacks pay real evaluations
        cal = calibrate_wg(den, flat, np.zeros(2), ts, plan)
        assert cal.fallbacks == (3, 5, 7)
        assert all(cal.wg[i] == 1.0 for i in (3, 5, 7))

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["gmm", "trace", "zero"]),
           seed=st.integers(0, 11), bias=st.floats(-0.05, 0.10),
           interval=st.sampled_from(INTERVALS_100),
           phi_mode=st.sampled_from(list(PhiMode)))
    def test_resuming_from_full_prefix_is_bit_exact(
            self, sched, gmm, recorded, zero_trace, kind, seed, bias,
            interval, phi_mode):
        # no iteration before the first selected one is approximated, so a
        # full run's states up to there are the accelerated run's too
        if kind == "zero":  # every selected iteration falls back
            den, s, ts, x0 = (zero_trace, build_linear_beta(8, 0.01, 0.05),
                              np.arange(8, -1, -1), np.zeros(2))
            plan = AccelerationPlan(interval=(3, 7), phi_mode=phi_mode,
                                    wg={3: 1.0, 5: 1.0, 7: 1.0})
        else:
            den = gmm if kind == "gmm" else recorded(seed)
            s, ts, x0 = sched, make_timesteps(1000, 100), initial_noise(8, seed)
            plan = AccelerationPlan(interval=interval, phi_mode=phi_mode)
            plan = plan.with_wg(calibrate_wg(den, s, x0, ts, plan).wg)
        plan = dataclasses.replace(plan, bias=bias)
        sel = plan.selected()
        full = sample_full(den, s, x0, ts)
        acc = accelerated_sample(den, s, x0, ts, plan)
        resumed = _chain(den, s, x0, ts, set(sel), _extrapolation(s, ts, plan),
                         prefix=full.states[:sel[0]])
        assert np.array_equal(resumed.states, acc.states)
        assert resumed.approximated == acc.approximated
        assert resumed.fallbacks == acc.fallbacks
        assert resumed.nfe == acc.nfe
        if kind == "zero":
            assert acc.fallbacks == sel  # psnr is undefined on a 0 reference
        else:
            objective = _bias_objective(den, s, full,
                                        dataclasses.replace(plan, bias=0.0))
            assert objective(bias) == psnr(full.final, acc.final)

    @settings(max_examples=30, deadline=None)
    @example(kind="stall", seeds=[0], interval=(21, 99),
             phi_mode=PhiMode.SQRT_SNR, bias=0.0, per_row=True)
    @given(kind=st.sampled_from(["gmm", "point", "trace", "mixed", "stall"]),
           seeds=st.lists(st.integers(0, 11), min_size=1, max_size=5,
                          unique=True),
           interval=st.sampled_from(INTERVALS_100),
           phi_mode=st.sampled_from(list(PhiMode)),
           bias=st.floats(-0.05, 0.10), per_row=st.booleans())
    def test_batched_runs_equal_solo_runs(self, sched, gmm, recorded_data,
                                          counting, kind, seeds, interval,
                                          phi_mode, bias, per_row):
        # "mixed": row 0 replays a trace of zeros from x_init = 0, so its
        # selected iterations fall back while the other rows extrapolate.
        # "stall": row 0 replays it from a state so small that squared
        # displacements underflow to 0 late in the run: on (21, 99) a shadow
        # real step of zero length follows a moving one.
        data = recorded_data
        x0 = np.stack([initial_noise(8, k) for k in seeds])
        if kind in ("mixed", "stall"):
            data = np.concatenate([data, np.zeros((1, 1000, 8), np.float32)])
            seeds = [12] + seeds
            x0 = np.vstack([np.zeros(8) if kind == "mixed"
                            else 5.5e-163 * initial_noise(8, 0), x0])
        point = PointMassDenoiser(np.linspace(-1.0, 1.0, 8), sched)
        solo = {"gmm": lambda k: gmm, "point": lambda k: point}.get(
            kind, lambda k: RecordedTraceDenoiser(data, k))
        den = solo(seeds)
        ts = make_timesteps(1000, 100)
        plan = AccelerationPlan(interval=interval, phi_mode=phi_mode)
        full = sample_full(den, sched, x0, ts)
        cal = calibrate_wg(den, sched, x0, ts, plan)
        shared = calibrate_wg(solo(seeds[-1]), sched, x0[-1], ts, plan).wg
        applied = dataclasses.replace(
            plan.with_wg(cal.wg if per_row else shared), bias=bias)
        counted = counting(den)
        acc = accelerated_sample(counted, sched, x0, ts, applied)
        # only rows taking a real step reach the denoiser
        assert sum(rows for _, rows in counted.calls) == sum(acc.nfe)
        if kind != "mixed":  # psnr is undefined on the zero row
            probe = _bias_objective(den, sched, full, applied)(bias)
        for j, k in enumerate(seeds):
            s_full = sample_full(solo(k), sched, x0[j], ts)
            s_cal = calibrate_wg(solo(k), sched, x0[j], ts, plan)
            wg = ({i: w[j] for i, w in cal.wg.items()} if per_row else shared)
            s_acc = accelerated_sample(solo(k), sched, x0[j], ts,
                                       dataclasses.replace(applied, wg=wg))
            for batched, one in ((full.row(j), s_full),
                                 (cal.trajectory.row(j), s_cal.trajectory),
                                 (acc.row(j), s_acc)):
                assert np.array_equal(batched.states, one.states)
                assert batched.nfe == one.nfe
                assert batched.approximated == one.approximated
                assert batched.fallbacks == one.fallbacks
            assert {i: w[j] for i, w in cal.wg.items()} == s_cal.wg
            for got, want in ((cal.theta, s_cal.theta), (cal.eps_r, s_cal.eps_r)):
                assert {i: v[j] for i, v in got.items()
                        if not np.isnan(v[j])} == want
            if kind != "mixed":
                assert probe[j] == psnr(s_full.final, s_acc.final)
        if kind == "mixed":  # both kinds of row were in one batch
            assert acc.row(0).fallbacks == plan.selected()
            assert acc.row(1).approximated == plan.selected()
        if kind == "stall" and interval == (21, 99):  # zero true step: (pi, 0)
            assert any(cal.theta[i][0] == np.pi and cal.eps_r[i][0] == 0.0
                       for i in plan.selected())

    def test_per_row_wg_must_match_rows(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39))
        x0 = np.stack([initial_noise(8, k) for k in range(3)])
        wg = calibrate_wg(gmm, sched, x0, ts, plan).wg
        accelerated_sample(gmm, sched, x0, ts, plan.with_wg(wg))
        with pytest.raises(PlanError, match="per-row wg"):
            accelerated_sample(gmm, sched, x0, ts,
                               plan.with_wg({i: w[:2] for i, w in wg.items()}))
        with pytest.raises(PlanError, match="per-row wg"):
            accelerated_sample(gmm, sched, x0[0], ts, plan.with_wg(wg))

    def test_missing_wg_rejected_at_apply(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39), wg={})
        with pytest.raises(PlanError):
            accelerated_sample(gmm, sched, initial_noise(8, 0), ts, plan)


class TestGoldenSection:
    def test_finds_quadratic_peak(self):
        x, evals = golden_section_max(lambda x: -(x - 1.0) ** 2, 0.0, 3.0, tol=1e-8)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 <= p <= 3.0 for p, _ in evals)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            golden_section_max(lambda x: x, 1.0, 0.0)


class TestRefineBias:
    def test_stub_recovers_analytic_argmax(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39), wg={})
        stub = lambda b: 40.0 - 100.0 * (b - 0.02) ** 2
        for mode in ("grid", "binary"):
            res = refine_bias(gmm, sched, initial_noise(8, 0), ts, plan,
                              mode=mode, evaluator=stub)
            assert res.bias == pytest.approx(0.02, abs=1e-4)

    def test_zero_is_always_a_candidate(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39), wg={})
        # maximum far from zero; zero still probed
        res = refine_bias(gmm, sched, initial_noise(8, 0), ts, plan,
                          evaluator=lambda b: b)
        assert any(b == 0.0 for b, _ in res.evaluations)
        assert res.psnr >= dict(res.evaluations)[0.0] - 1e-9

    def test_real_objective_never_below_unbiased(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        x0 = initial_noise(8, 1)
        plan = AccelerationPlan(interval=(13, 39))
        cal = calibrate_wg(gmm, sched, x0, ts, plan)
        res = refine_bias(gmm, sched, x0, ts, plan.with_wg(cal.wg))
        at_zero = dict(res.evaluations)[0.0]
        assert res.psnr >= at_zero - 1e-9

    def test_degenerate_interval_returns_endpoint(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39), wg={})
        res = refine_bias(gmm, sched, initial_noise(8, 0), ts, plan,
                          interval=(0.03, 0.03), evaluator=lambda b: b)
        assert res.bias == 0.03

    def test_known_scores_are_never_reevaluated(self):
        grid = np.linspace(-0.05, 0.10, 11)
        known = [(b, 40.0 - 100.0 * (b - 0.02) ** 2) for b in grid]
        probed = []

        def objective(b):
            probed.append(b)
            return 40.0 - 100.0 * (b - 0.02) ** 2

        res = _search_bias(objective, -0.05, 0.10, tol=1e-5, known=known)
        assert probed and not set(probed) & {float(b) for b in grid}
        assert probed[0] == 0.0  # zero is still probed, first
        assert res.bias == pytest.approx(0.02, abs=1e-4)
        assert len(res.evaluations) == len(grid) + len(probed)

    def test_invalid_interval_and_mode_rejected(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39), wg={})
        with pytest.raises(ValueError):
            refine_bias(gmm, sched, initial_noise(8, 0), ts, plan,
                        interval=(0.1, -0.1), evaluator=lambda b: b)
        with pytest.raises(ValueError):
            refine_bias(gmm, sched, initial_noise(8, 0), ts, plan,
                        mode="ternary", evaluator=lambda b: b)
