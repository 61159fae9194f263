"""Transition reuse: formulas, angles, interval detection, calibration."""

import contextlib
import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltc_accel import (
    AccelerationPlan,
    ConfigError,
    DiagGmmDenoiser,
    NumericError,
    PhiMode,
    Trajectory,
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
    read_trace,
    refine_bias,
    relative_error,
    sample_full,
    wg_closed_form,
    write_trace,
)
from ltc_accel import ltc
from ltc_accel.ltc import (
    BIAS_INTERVAL_DEFAULT,
    _bias_objective,
    _extrapolation,
    _search_bias,
    _setup,
)
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
    return lambda seed: RecordedTraceDenoiser(read_trace(path)[1], seed)


@pytest.fixture(scope="module")
def zero_trace(tmp_path_factory):
    """All-zero trace: from x_init = 0 every displacement is exactly 0."""
    path = str(tmp_path_factory.mktemp("zero") / "z.trace")
    write_trace(path, np.zeros((1, 8, 2), dtype=np.float32))
    return RecordedTraceDenoiser(read_trace(path)[1], 0)


def _vec(*xs):
    return np.asarray(xs, dtype=np.float64)


class TestAngle:
    def test_cardinal_angles(self):
        assert angle(_vec(1, 0), _vec(0, 1)) == pytest.approx(np.pi / 2)
        assert angle(_vec(1, 0), _vec(3, 0)) == pytest.approx(0.0)
        assert angle(_vec(1, 0), _vec(-2, 0)) == pytest.approx(np.pi)

    def test_cosine_is_clipped_against_rounding(self):
        # nearly parallel vectors can push the raw cosine above 1
        u = _vec(1.0, 1e-8)
        out = angle(u, u * (1 + 1e-12))
        assert np.isfinite(out) and 0.0 <= out < 1e-6

    def test_zero_displacement_rejected(self):
        # a zero displacement has no direction: pi, nothing coherent to reuse
        assert angle(_vec(0, 0), _vec(1, 0)) == np.pi
        assert angle(_vec(1, 0), _vec(0, 0)) == np.pi
        with pytest.raises(ValueError):
            angle(_vec(1, 0), _vec(1, 0, 0))

    @given(
        u=arrays(np.float64, 3, elements=st.floats(-10, 10)),
        v=arrays(np.float64, 3, elements=st.floats(-10, 10)),
        a=st.floats(0.01, 100.0),
        b=st.floats(0.01, 100.0),
    )
    def test_range_and_scale_invariance(self, u, v, a, b):
        if np.linalg.norm(u) < 1e-6 or np.linalg.norm(v) < 1e-6:
            return
        th = angle(u, v)
        assert 0.0 <= th <= np.pi
        assert angle(a * u, b * v) == pytest.approx(th, abs=1e-6)


def _state_machine(angles, tau):
    """The longest run below tau as 0-based angle positions, in one pass
    over the mask: detect_interval's reference, through _plan_interval."""
    best, best_len, run_start = None, 0, None
    for p, below in enumerate(np.append(np.asarray(angles) < tau, False)):
        if below and run_start is None:
            run_start = p
        elif not below and run_start is not None:
            if p - run_start > best_len:
                best, best_len = (run_start, p - 1), p - run_start
            run_start = None
    return best


def _plan_interval(pos, n_angles):
    """0-based angle positions (p, q) as plan iterations: angle p belongs to
    iteration p + 2, and the final iteration, n_angles + 1, stays real, so a
    run on the last angle alone (a > b) is None."""
    if pos is None or pos[0] + 2 > n_angles:
        return None
    return pos[0] + 2, min(pos[1] + 2, n_angles)


class TestDetectInterval:
    def test_plain_dip(self):
        out = detect_interval([0.5, 0.05, 0.05, 0.05, 0.5], tau=0.1)
        assert out == _plan_interval((1, 3), 5) == (3, 5)

    def test_profile_with_high_shoulders(self):
        # high plateau, long dip over positions 12..38, high tail
        trace = np.concatenate([
            np.full(12, 0.4), np.full(27, 0.03), np.full(3, 0.5)])
        assert detect_interval(trace, tau=0.1) == _plan_interval((12, 38), 42)

    def test_ties_break_toward_earliest(self):
        assert detect_interval([0.05, 0.5, 0.05], tau=0.1) == (2, 2)
        assert detect_interval([0.05, 0.05, 0.5, 0.05, 0.05], tau=0.1) == (2, 3)

    def test_no_coherent_steps_is_none(self):
        assert detect_interval([0.5, 0.2, 0.9], tau=0.1) is None
        assert detect_interval([0.1, 0.1], tau=0.1) is None  # strict <

    def test_everything_below_tau(self):
        # positions 0..6 are iterations 2..8; b stops before the final one
        assert detect_interval([0.01] * 7, tau=0.1) == (2, 7)

    def test_rejects_nonpositive_tau(self):
        for tau in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="tau must be positive"):
                detect_interval([0.01, 0.02, 0.5], tau=tau)

    def test_rejects_a_batch(self, sched, gmm):
        with pytest.raises(ValueError, match="1-D"):
            detect_interval([[0.05, 0.05]], tau=0.1)
        x0 = np.stack([initial_noise(8, k) for k in range(2)])
        batch = sample_full(gmm, sched, x0, make_timesteps(1000, 10))
        with pytest.raises(ValueError, match="1-D"):
            detect_interval(angle_trace(batch), tau=0.1)

    @settings(max_examples=500)
    @given(st.lists(st.one_of(st.floats(0.0, 0.3),
                              st.sampled_from([0.0, 0.1, 0.2, np.nan])),
                    max_size=60),
           st.sampled_from([0.1, 0.2, 0.3, 1e-300]))
    @example([], 0.1)
    @example([0.05] * 9, 0.1)
    @example([0.5, np.nan, 0.1], 0.1)
    @example([np.nan, 0.05, np.nan, 0.05, 0.05, np.nan, 0.05, 0.05], 0.1)
    def test_matches_the_state_machine(self, seq, tau):
        got = detect_interval(seq, tau)
        assert got == _plan_interval(_state_machine(seq, tau), len(seq))
        assert got is None or all(type(p) is int for p in got)

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.floats(0.0, 0.3), st.just(np.nan)),
                    max_size=60),
           st.sampled_from([0.1, 0.2, 0.3]))
    @example([0.5, 0.05], 0.1)  # a run on the last angle alone: a > b
    @example([0.05, 0.5, 0.05, 0.05], 0.1)
    def test_returns_a_plan_interval(self, seq, tau):
        # for angle_trace of an n-iteration run, len(seq) = n - 1
        got = detect_interval(seq, tau)
        assert got == _plan_interval(_state_machine(seq, tau), len(seq))
        if got is not None:
            AccelerationPlan(interval=got).validate(len(seq) + 1)

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
        assert got == _plan_interval(want, len(seq))


class TestWgClosedForm:
    def test_hand_value(self):
        d1, d2 = _vec(1, 0), _vec(1, 1)
        # dot = 1, ||d2||^2 = 2, gamma = 2 -> wg = 1 / 4
        assert wg_closed_form(d1, d2, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_rejects_degenerate_inputs(self):
        d1, z = _vec(1, 0), _vec(0, 0)
        with pytest.raises(NumericError, match="previous displacement is zero"):
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
        w = wg_closed_form(d1, d2, g)
        resid = d1 - w * g * d2
        scale = max(float(np.linalg.norm(d1)) * float(np.linalg.norm(d2)), 1e-9)
        assert abs(float(resid @ d2)) <= 1e-9 * scale

    def test_matches_golden_section_minimizer(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d1 = rng.normal(size=6)
            d2 = rng.normal(size=6)
            g = rng.uniform(0.5, 2.0)
            w = wg_closed_form(d1, d2, g)
            span = abs(w) + 1.0
            w_search, _ = golden_section_max(
                lambda us: [-float(np.sum((d1 - u * g * d2) ** 2)) for u in us],
                w - span, w + span, tol=1e-10)
            assert abs(w - w_search) < 1e-7


class TestApproxStepAndError:
    def test_approx_step_arithmetic(self):
        d2 = _vec(1.0, -2.0)
        out = approx_step(_vec(10.0, 10.0), d2, wg=0.5, g=2.0)
        assert np.array_equal(out, [11.0, 8.0])
        with pytest.raises(ValueError):
            approx_step(_vec(1.0), d2, 1.0, 1.0)

    def test_relative_error_zero_for_exact_hit(self):
        assert relative_error(_vec(2, 2), _vec(2, 2), _vec(1.0, 1.0)) == 0.0

    def test_relative_error_is_sin_squared_at_optimum(self):
        # true delta at 45 degrees to the reused one, optimal wg
        d_true = _vec(1.0, 1.0)
        d_prev = _vec(1.0, 0.0)
        g = 1.3
        w = wg_closed_form(d_true, d_prev, g)
        x_hi = _vec(5.0, 5.0)
        x_true = x_hi + d_true
        x_star = approx_step(x_hi, d_prev, w, g)
        got = relative_error(x_true, x_star, d_true)
        th = angle(d_true, d_prev)
        assert got == pytest.approx(np.sin(th) ** 2, rel=1e-12)

    def test_relative_error_rejects_zero_reference_delta(self):
        # a zero true displacement leaves nothing to approximate: 0.0
        assert relative_error(_vec(1.0), _vec(2.0), _vec(0.0)) == 0.0


class TestAngleTrace:
    def test_degenerate_steps_become_pi(self):
        states = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        traj = Trajectory(timesteps=np.array([3, 2, 1, 0]), states=states)
        tr = angle_trace(traj)
        # iteration 2 delta is zero, so angles at iterations 2 and 3 degenerate
        assert len(tr) == 2  # iterations 2 and 3
        assert tr[0] == np.pi and tr[1] == np.pi

    def test_iteration_mapping(self, sched, gmm):
        traj = sample_full(gmm, sched, initial_noise(8, 3), make_timesteps(1000, 20))
        tr = angle_trace(traj)
        assert len(tr) == 19
        d = np.diff(traj.states, axis=0)
        assert tr[0] == angle(d[1], d[0])  # iteration 2
        assert tr[18] == angle(d[19], d[18])  # iteration 20

    @pytest.mark.filterwarnings("error")  # zero norms must not warn
    def test_batch_rows_equal_single_runs_and_angle(self, sched, gmm):
        ts = make_timesteps(1000, 20)
        x0 = np.stack([initial_noise(8, k) for k in range(3)])
        states = sample_full(gmm, sched, x0, ts).states.copy()
        # zero displacements: row 1 at iteration 5, row 2 at iteration 3
        states[1, 5], states[2, 3] = states[1, 4], states[2, 2]
        batch = Trajectory(timesteps=ts, states=states, nfe=np.full(3, 20))
        tr = angle_trace(batch)
        assert tr.shape == (3, 19)
        for j in range(3):
            one = angle_trace(batch.row(j))
            assert np.array_equal(tr[j], one)
            for i in range(2, 21):
                u, v = (states[j, k] - states[j, k - 1] for k in (i, i - 1))
                nn = np.linalg.norm(u) * np.linalg.norm(v)
                if nn == 0.0:
                    want = np.pi
                else:
                    want = np.arccos(np.clip(np.dot(u, v) / nn, -1, 1))
                assert tr[j, i - 2] == want


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


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 8), d=st.integers(1, 300),
       log_scale=st.floats(-3.0, 8.0), g=st.floats(0.5, 2.0),
       zero_row=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_formulas_batch_rows_equal_single_calls_and_oracles(
        rows, d, log_scale, g, zero_row, seed):
    # Each formula on an (S, d) batch, strided or contiguous, gives the bits
    # of its (d,) call on every row and of the inline np.dot / norm formula.
    # Row `zero_row` (if any) of the true displacement is exactly zero.
    buf = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(
        (rows, 4, d))
    if zero_row < rows:
        buf[zero_row, 1] = 0.0
    w_rows = np.linspace(0.5, 1.5, rows)
    for x, d_true, d_prev, x_true in (
            (buf[:, 0], buf[:, 1], buf[:, 2], buf[:, 3]),  # strided views
            tuple(buf[:, k].copy() for k in range(4))):    # contiguous
        w = wg_closed_form(d_true, d_prev, g)
        batched = (angle(d_true, d_prev), w,
                   approx_step(x, d_prev, w_rows, g),
                   approx_step(x, d_prev, 0.75, g),
                   relative_error(x_true, x, d_true))
        for k in range(rows):
            u, v, xk, tk = d_true[k], d_prev[k], x[k], x_true[k]
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            miss, tn = tk - xk, np.dot(u, u)
            oracle = (np.pi if nu * nv == 0.0 else
                      np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1, 1)),
                      np.dot(u, v) / (g * np.dot(v, v)),
                      xk + (w_rows[k] * g) * v,
                      xk + (0.75 * g) * v,
                      np.dot(miss, miss) / tn if tn != 0.0 else 0.0)
            single = (angle(u, v), wg_closed_form(u, v, g),
                      approx_step(xk, v, w_rows[k], g),
                      approx_step(xk, v, 0.75, g), relative_error(tk, xk, u))
            for got, one, want in zip(batched, single, oracle):
                assert np.array_equal(got[k], one) and np.array_equal(one, want)
        assert all(isinstance(one, float) for one in single[:2] + single[4:])
        if zero_row < rows:
            assert batched[0][zero_row] == np.pi and batched[4][zero_row] == 0.0


class TestAccelerationPlan:
    def test_parity_selection(self):
        plan = AccelerationPlan(interval=(13, 39))
        assert plan.selected() == tuple(range(13, 40, 2))
        plan = AccelerationPlan(interval=(12, 38))
        assert plan.selected() == tuple(range(13, 38, 2))
        assert len(plan.selected()) == 13

    def test_validate_bounds(self):
        with pytest.raises(ConfigError, match=r"interval \[0, 10\] must satisfy"):
            AccelerationPlan(interval=(0, 10)).validate(40)
        with pytest.raises(ConfigError, match=r"interval \[13, 40\] must satisfy"):
            AccelerationPlan(interval=(13, 40)).validate(40)
        with pytest.raises(ConfigError, match=r"interval \[20, 13\] must satisfy"):
            AccelerationPlan(interval=(20, 13)).validate(40)
        # iteration 1 would be selected but has only one prior state
        with pytest.raises(ConfigError, match="lacks two prior states"):
            AccelerationPlan(interval=(1, 9)).validate(40)
        AccelerationPlan(interval=(2, 39)).validate(40)

    def test_validate_parameters(self):
        with pytest.raises(ConfigError, match="r must be at least 2"):
            AccelerationPlan(interval=None, r=1).validate(40)
        with pytest.raises(ConfigError, match="bias must be finite"):
            AccelerationPlan(interval=None, bias=np.nan).validate(40)
        wg = dict.fromkeys(range(13, 40, 2), 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            plan = AccelerationPlan(interval=(13, 39), wg={**wg, 13: bad, 27: bad})
            with pytest.raises(ConfigError, match=r"\[13, 27\]"):
                plan.validate(40, rows=())
        with pytest.warns(UserWarning, match="r="):
            AccelerationPlan(interval=(6, 10), r=3).validate(40)
        for mode in ("bogus", None, 1):  # a plan fault, before any gamma is formed
            with pytest.raises(ConfigError, match="unknown phi_mode"):
                AccelerationPlan(interval=None, phi_mode=mode).validate(40)
        assert AccelerationPlan(interval=(2, 4), phi_mode="snr").validate(40) == (3,)
        # r and the bounds: an int or numpy integer, not a bool
        for r, interval in ((2.5, (13, 39)), (2.0, (13, 39)), (True, (13, 39)),
                            (2, (13.0, 39)), (2, (13, 39.0)), (2, (np.True_, 39)),
                            (2, (13, False)), ("2", None), (np.True_, None), (1.5, None),
                            ("3", None), (2, (1.5, 39)), (2, ("3", 39)), (2, (0, True)),
                            (2, (True, 3)), ([2], None), ((), None)):
            with pytest.raises(ConfigError, match="r and the interval must be integers"):
                AccelerationPlan(interval=interval, r=r).validate(40)
        for r in (np.int32(2), np.uint64(2)):
            plan = AccelerationPlan(interval=(np.int32(13), np.uint64(39)), r=r)
            assert plan.validate(40) == tuple(range(13, 40, 2))
        for interval in ((0, 39), (13, 40), (13, 2**70)):
            with pytest.raises(ConfigError, match=r"interval \[\d+, \d+\] must satisfy"):
                AccelerationPlan(interval=interval).validate(40)
        for interval in ((1, 2, 3), (13,), ()):
            with pytest.raises(ConfigError, match="tuple of two integers"):
                AccelerationPlan(interval=interval).validate(40)

    def test_one_bad_wg_entry_among_40_is_named(self):
        # all entries are checked in one array pass; a failure is then named
        # entry by entry, with the verdict of a scan over every entry
        plan = AccelerationPlan(interval=(3, 83))  # 41 selected iterations
        sel = plan.selected()
        message = (r"wg must be finite, and a per-row wg must have one scale per "
                   r"state row; bad at iterations \[41\]$")
        for good, bad, rows in ((1.0, np.nan, None), (1.0, -np.inf, ()),
                                (np.ones(3), np.array([1.0, np.nan, 1.0]), (3,)),
                                (np.ones(3), np.ones(4), (3,)),
                                (np.ones(3), np.ones((3, 1)), (3,)),
                                (np.ones(3), np.inf, (3,)), (1.0, np.ones(3), ())):
            wg = {**dict.fromkeys(sel, good), 41: bad}
            with pytest.raises(ConfigError, match=message):
                dataclasses.replace(plan, wg=wg).validate(84, rows=rows)
        # entries that stack into one array of the wrong row count
        every = ", ".join(map(str, sel))
        with pytest.raises(ConfigError, match=rf"bad at iterations \[{every}\]$"):
            dataclasses.replace(plan, wg=dict.fromkeys(sel, np.ones(4))).validate(84, rows=(3,))
        # entries that do not stack into one array are scanned: a scalar
        # serves every row beside per-row arrays
        mixed = {**dict.fromkeys(sel, np.ones(3)), 41: 0.5}
        assert dataclasses.replace(plan, wg=mixed).validate(84, rows=(3,)) == sel
        assert dataclasses.replace(plan, wg=mixed).validate(84) == sel

    def test_missing_wg_entries_rejected(self):
        plan = AccelerationPlan(interval=(13, 39), wg={13: 1.0})
        for rows in ((), (3,)):  # a wg is required wherever a chain applies it
            with pytest.raises(ConfigError, match="wg entry"):
                plan.validate(40, rows=rows)
        assert plan.validate(40) == tuple(range(13, 40, 2))

    def test_empty_plan_selects_nothing(self):
        plan = AccelerationPlan(interval=None)
        assert plan.selected() == ()
        assert plan.validate(40, rows=()) == ()


INTERVALS_100 = [(2, 38), (13, 39), (21, 99)]  # on a 100-step grid


def _kind_batch(kind, seeds, sched, gmm, recorded_data):
    """(solo, seeds, x0): a batch of the named kind, with solo(k) the
    denoiser of seed k and solo(seeds) the batch's.

    "mixed": row 0 replays a trace of zeros from x_init = 0, so its
    selected iterations fall back while the other rows extrapolate.
    "stall": row 0 replays it from a state so small that squared
    displacements underflow to 0 late in the run.
    """
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
    return solo, seeds, x0


@contextlib.contextmanager
def _sampler_log():
    """The messages the sampler logs inside the block."""
    seen, handler, log = [], logging.Handler(), logging.getLogger("ltc_accel.sampler")
    handler.emit = lambda record: seen.append(record.getMessage())
    log.addHandler(handler)
    try:
        yield seen
    finally:
        log.removeHandler(handler)


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
        acc = accelerated_sample(den, sched, x0, ts, dataclasses.replace(plan, wg=cal.wg))
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
        acc = accelerated_sample(counted, sched, x0, ts,
                                 dataclasses.replace(plan, wg=cal.wg))
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
        acc = accelerated_sample(den, sched, x0, ts, AccelerationPlan(interval=None))
        cal = calibrate_wg(den, sched, x0, ts, AccelerationPlan(interval=None))
        assert np.array_equal(full.states, acc.states)
        assert np.array_equal(full.states, cal.trajectory.states)
        assert full.nfe == acc.nfe == cal.trajectory.nfe == steps
        assert cal.wg == {}

    def test_bias_shifts_the_result(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        x0 = initial_noise(8, 5)
        plan = AccelerationPlan(interval=(13, 39))
        cal = calibrate_wg(gmm, sched, x0, ts, plan)
        a = accelerated_sample(gmm, sched, x0, ts, dataclasses.replace(plan, wg=cal.wg))
        biased = dataclasses.replace(plan, wg=cal.wg, bias=0.05)
        b = accelerated_sample(gmm, sched, x0, ts, biased)
        assert not np.array_equal(a.final, b.final)

    def test_zero_displacement_falls_back_to_real_step(self, tmp_path, sched):
        # all-zero trace with x_init = 0 keeps every displacement at exactly 0
        path = str(tmp_path / "z.trace")
        write_trace(path, np.zeros((1, 8, 2), dtype=np.float32))
        den = RecordedTraceDenoiser(read_trace(path)[1], 0)
        flat = build_linear_beta(8, 0.01, 0.05)
        ts = np.arange(8, -1, -1)
        plan = AccelerationPlan(interval=(3, 7), wg={3: 1.0, 5: 1.0, 7: 1.0})
        acc = accelerated_sample(den, flat, np.zeros(2), ts, plan)
        assert acc.fallbacks == (3, 5, 7)
        assert acc.approximated == ()
        assert acc.nfe == 8  # fallbacks pay real evaluations
        cal = calibrate_wg(den, flat, np.zeros(2), ts, plan)
        assert cal.trajectory.fallbacks == (3, 5, 7)
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
            plan = dataclasses.replace(plan, wg=calibrate_wg(den, s, x0, ts, plan).wg)
        plan = dataclasses.replace(plan, bias=bias)
        sel = plan.selected()
        full = sample_full(den, s, x0, ts)
        acc = accelerated_sample(den, s, x0, ts, plan)
        _, gammas, *_ = _setup(s, ts, plan, x0, None)
        assert tuple(gammas) == sel
        coef = np.array([[(plan.wg[i] + plan.bias) * g] for i, g in gammas.items()])
        resumed = _chain(den, s, x0, ts, gammas, _extrapolation(gammas, coef),
                         prefix=full.states[:sel[0]])
        assert np.array_equal(resumed.states, acc.states)
        assert resumed.approximated == acc.approximated
        assert resumed.fallbacks == acc.fallbacks
        assert resumed.nfe == acc.nfe
        if kind == "zero":
            assert acc.fallbacks == sel  # psnr is undefined on a 0 reference
        else:  # the (d,) run as a 1-row batch
            objective = _bias_objective(den, s, sample_full(den, s, x0[None], ts),
                                        dataclasses.replace(plan, bias=0.0))
            assert objective([bias])[0] == psnr(full.final, acc.final)

    @pytest.mark.parametrize("kind", ["gmm", "stall"])
    def test_diagnostics_equal_per_iteration_recomputation(self, sched, gmm,
                                                           recorded_data, kind):
        # theta and eps_r come from one angle and one relative_error call
        # after the chain; recompute them iteration by iteration from the
        # trajectory, over the rows each shadow step saw. Rows that fell
        # back stay NaN ("stall": row 0 up to iteration 49 and from 89 on).
        # rows=[0, 1] carries the batch's full runs ahead of those rows.
        solo, seeds, x0 = _kind_batch(kind, [0, 3], sched, gmm, recorded_data)
        ts = make_timesteps(1000, 100)
        plan = AccelerationPlan(interval=(21, 99))
        _, gammas, *_ = _setup(sched, ts, plan, x0, None)
        den = solo(seeds)
        for rows in (None, [0, 1]):
            cal = calibrate_wg(den, sched, x0, ts, plan, rows=rows)
            lane = den if rows is None else den.take(rows)  # the calibrated rows
            assert (cal.full is None) == (rows is None)
            states, fell = cal.trajectory.states, set(cal.trajectory.fallbacks)
            n_rows = len(states)
            assert bool(fell) == (kind == "stall")
            assert sorted(cal.theta) == sorted(cal.eps_r) == list(plan.selected())
            for i in plan.selected():
                moved = np.array([r for r in range(n_rows) if (r, i) not in fell])
                lost = [r for r in range(n_rows) if (r, i) in fell]
                assert np.isnan(cal.theta[i][lost]).all() and np.isnan(cal.eps_r[i][lost]).all()
                assert (cal.wg[i][lost] == 1.0).all()
                t, t_prev = int(ts[i - 1]), int(ts[i])
                x = states[moved, i - 1]
                x_real = ddim_step(x, lane.take(moved).epsilon_hat(x, t), sched, t, t_prev)
                d_true, d_prev = x_real - x, x - states[moved, i - 2]
                x_star = approx_step(x, d_prev, cal.wg[i][moved], gammas[i])
                assert np.array_equal(x_star, states[moved, i])  # the chain went on from x*
                assert np.array_equal(cal.theta[i][moved], angle(d_true, d_prev))
                assert np.array_equal(cal.eps_r[i][moved],
                                      relative_error(x_real, x_star, d_true))

    @pytest.mark.parametrize("kind", ["gmm", "stall"])
    def test_batch_bookkeeping_is_pinned(self, sched, gmm, recorded_data, kind):
        # pairs run iteration by iteration, rows ascending within one. The
        # "stall" row's squared displacements are 0 up to iteration 49 and
        # again from 89 on, so it falls back there and moves in between.
        solo, seeds, x0 = _kind_batch(kind, [0, 3], sched, gmm, recorded_data)
        ts = make_timesteps(1000, 100)
        plan = AccelerationPlan(interval=(21, 99))  # 40 selected iterations
        stalled = [*range(21, 50, 2), *range(89, 100, 2)] if kind == "stall" else []
        fallbacks = tuple((0, i) for i in stalled)
        approximated = tuple((r, i) for i in plan.selected()
                             for r in range(len(seeds)) if (r, i) not in fallbacks)
        cal = calibrate_wg(solo(seeds), sched, x0, ts, plan)
        acc = accelerated_sample(solo(seeds), sched, x0, ts,
                                 dataclasses.replace(plan, wg=cal.wg))
        for traj, nfe in ((cal.trajectory, [100] * len(seeds)),
                          (acc, [60 + len(stalled)] + [60] * (len(seeds) - 1))):
            assert traj.approximated == approximated
            assert traj.fallbacks == fallbacks
            assert traj.nfe.tolist() == nfe

    def test_step_kinds_are_one_int8_array(self, sched, gmm, recorded_data):
        # 0 real, 1 approximated, 2 fallback, one per state; the pairs, the
        # rows and nfe are read off it
        solo, seeds, x0 = _kind_batch("stall", [0, 3], sched, gmm, recorded_data)
        ts = make_timesteps(1000, 100)
        plan = AccelerationPlan(interval=(21, 99))
        cal = calibrate_wg(solo(seeds), sched, x0, ts, plan)
        acc = accelerated_sample(solo(seeds), sched, x0, ts,
                                 dataclasses.replace(plan, wg=cal.wg))
        real = [i for i in range(101) if i not in plan.selected()]
        for traj in (cal.trajectory, acc):
            assert traj.kind.dtype == np.int8 and traj.kind.shape == (3, 101)
            assert (traj.kind[:, real] == 0).all()
            assert sorted(traj.approximated + traj.fallbacks) == [
                (r, i) for r in range(3) for i in plan.selected()]
            assert all(np.array_equal(traj.row(j).kind, traj.kind[j]) for j in range(3))
            with pytest.raises(AttributeError):
                traj.approximated = ()
        assert acc.nfe.tolist() == (100 - np.sum(acc.kind == 1, axis=1)).tolist()
        assert Trajectory(ts, cal.trajectory.states).kind.tolist() == [[0] * 101] * 3

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
        applied = dataclasses.replace(plan, wg=cal.wg if per_row else shared,
                                      bias=bias)
        counted = counting(den)
        acc = accelerated_sample(counted, sched, x0, ts, applied)
        # only rows taking a real step reach the denoiser
        assert sum(rows for _, rows in counted.calls) == sum(acc.nfe)
        if kind != "mixed":  # psnr is undefined on the zero row
            probe = _bias_objective(den, sched, full, applied)([bias])[0]
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

    @settings(max_examples=30, deadline=None)
    @example(kind="stall", seeds=[0, 3], interval=(21, 99), r=2, picks=[0])
    @example(kind="stall", seeds=[0, 3], interval=(21, 99), r=2, picks=[2, 1])
    @example(kind="trace", seeds=[4, 1, 7], interval=(13, 39), r=3, picks=[2])
    @example(kind="mixed", seeds=[5, 2], interval=(2, 38), r=2, picks=[0, 1, 2])
    @example(kind="gmm", seeds=[0, 1], interval=None, r=2, picks=[1, 0])
    @given(kind=st.sampled_from(["gmm", "trace", "mixed", "stall"]),
           seeds=st.lists(st.integers(0, 11), min_size=1, max_size=4,
                          unique=True),
           interval=st.sampled_from([*INTERVALS_100, None]),
           r=st.sampled_from([2, 3]),
           picks=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    @pytest.mark.filterwarnings("ignore:r=3 approximates")
    def test_calibration_carrying_full_runs_equals_solo_runs(
            self, sched, gmm, recorded_data, counting, kind, seeds, interval, r,
            picks):
        # The full runs of the whole batch ride in the calls of the
        # calibration of its rows `rows` (any order; all of them is what
        # per_seed_wg calibrates): row for row and bit for bit a solo
        # sample_full and a solo calibrate_wg.
        solo, seeds, x0 = _kind_batch(kind, seeds, sched, gmm, recorded_data)
        rows = list(dict.fromkeys(p % len(seeds) for p in picks))
        ts = make_timesteps(1000, 100)
        plan = AccelerationPlan(interval=interval, r=r)
        counted = counting(solo(seeds))
        with _sampler_log() as logged:
            cal = calibrate_wg(counted, sched, x0, ts, plan, rows=rows)
        # one batched call per iteration, which carries the calibration's
        # rows from the first selected iteration on; with no interval it is
        # sample_full's own: no call and no row more
        first = min(plan.selected(), default=101)
        assert counted.calls == [(int(ts[i - 1]), len(seeds) + len(rows) * (i >= first))
                                 for i in range(1, 101)]
        # the calibrated rows as one batch of their own: the same values,
        # the same lane-relative pairs, and the same warnings, which name
        # calibrated rows only
        with _sampler_log() as alone_logged:
            alone = calibrate_wg(solo([seeds[k] for k in rows]), sched, x0[rows], ts,
                                 plan)
        assert logged == alone_logged
        assert bool(logged) == (kind in ("mixed", "stall") and 0 in rows
                                and alone.trajectory.fallbacks != ())
        assert alone.full is None
        for got, want in ((cal.wg, alone.wg), (cal.theta, alone.theta),
                          (cal.eps_r, alone.eps_r)):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[i], want[i], equal_nan=True) for i in want)
        for j, k in enumerate(seeds):
            one, row = sample_full(solo(k), sched, x0[j], ts), cal.full.row(j)
            assert np.array_equal(row.states, one.states)
            assert row.nfe == one.nfe == 100
            assert row.approximated == row.fallbacks == ()
        for j, k in enumerate(rows):
            one = calibrate_wg(solo(seeds[k]), sched, x0[k], ts, plan)
            for got in (cal.trajectory.row(j), alone.trajectory.row(j)):
                assert np.array_equal(got.states, one.trajectory.states)
                assert got.nfe == one.trajectory.nfe == 100
                assert got.approximated == one.trajectory.approximated
                assert got.fallbacks == one.trajectory.fallbacks
            assert {i: w[j] for i, w in cal.wg.items()} == one.wg
            for got, want in ((cal.theta, one.theta), (cal.eps_r, one.eps_r)):
                assert {i: v[j] for i, v in got.items() if not np.isnan(v[j])} == want

    def test_carrying_full_runs_needs_a_batch_and_no_full(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39))
        x0 = np.stack([initial_noise(8, k) for k in range(2)])
        full = sample_full(gmm, sched, x0, ts).states
        for x, given in ((x0[0], None), (x0, full)):
            with pytest.raises(ValueError, match="rows need"):
                calibrate_wg(gmm, sched, x, ts, plan, full=given, rows=[0])

    def test_calibrated_rows_must_be_row_indices(self, sched, gmm, counting):
        # refused before any denoiser call, as sample_skipping refuses a bad
        # position: a float or bool would pick row 1, -1 the last row
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39))
        x0 = np.stack([initial_noise(8, k) for k in range(3)])
        for rows in ([1.5], [True], [-1], [5], []):
            den = counting(gmm)
            with pytest.raises(ValueError, match="rows need"):
                calibrate_wg(den, sched, x0, ts, plan, rows=rows)
            assert den.calls == []

    @settings(max_examples=30, deadline=None)
    @example(kind="stall", seeds=[0], interval=(21, 99),
             phi_mode=PhiMode.SQRT_SNR, bias=0.0)
    @given(kind=st.sampled_from(["gmm", "point", "trace", "mixed", "stall"]),
           seeds=st.lists(st.integers(0, 11), min_size=1, max_size=5,
                          unique=True),
           interval=st.sampled_from(INTERVALS_100),
           phi_mode=st.sampled_from(list(PhiMode)),
           bias=st.floats(-0.05, 0.10))
    def test_resumed_runs_equal_scratch_runs(self, sched, gmm, recorded_data,
                                             kind, seeds, interval, phi_mode,
                                             bias):
        solo, seeds, x0 = _kind_batch(kind, seeds, sched, gmm, recorded_data)
        ts = make_timesteps(1000, 100)
        plan = AccelerationPlan(interval=interval, phi_mode=phi_mode)
        # the whole batch, and its last row as a (d,) run
        for den, x in ((solo(seeds), x0), (solo(seeds[-1]), x0[-1])):
            full = sample_full(den, sched, x, ts).states
            cal, cal_resumed = (calibrate_wg(den, sched, x, ts, plan, full=p)
                                for p in (None, full))
            for got, want in ((cal_resumed.wg, cal.wg),
                              (cal_resumed.theta, cal.theta),
                              (cal_resumed.eps_r, cal.eps_r)):
                assert got.keys() == want.keys()
                assert all(np.array_equal(got[i], want[i], equal_nan=True)
                           for i in want)
            assert cal_resumed.trajectory.fallbacks == cal.trajectory.fallbacks
            applied = dataclasses.replace(plan, wg=cal.wg, bias=bias)
            acc, acc_resumed = (accelerated_sample(den, sched, x, ts, applied,
                                                   full=p)
                                for p in (None, full))
            for one, resumed in ((cal.trajectory, cal_resumed.trajectory),
                                 (acc, acc_resumed)):
                assert np.array_equal(resumed.states, one.states)
                assert np.array_equal(resumed.nfe, one.nfe)
                assert resumed.approximated == one.approximated
                assert resumed.fallbacks == one.fallbacks

    def test_prefix_must_be_a_full_run_before_the_first_selection(self, sched,
                                                                  gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39))
        x0 = np.stack([initial_noise(8, k) for k in range(2)])
        states = sample_full(gmm, sched, x0, ts).states
        wg = calibrate_wg(gmm, sched, x0, ts, plan, full=states).wg
        # every cut prefix, wrong rows, shapes and starts
        for bad in (states[:, :13], states[:, :14], states[:, :0],
                    states[:1, :13], states[:, 1:13], states[0, :13],
                    states[:, :40], states[:1], states[:, 1:], states[0],
                    states[::-1], states[..., :4]):
            with pytest.raises(ValueError, match="not a full run"):
                calibrate_wg(gmm, sched, x0, ts, plan, full=bad)
            with pytest.raises(ValueError, match="not a full run"):
                accelerated_sample(gmm, sched, x0, ts, dataclasses.replace(plan, wg=wg),
                                   full=bad)

    @pytest.mark.parametrize("interval", [(13, 39), (3, 39), None])
    def test_accelerated_run_from_full_runs_equals_scratch_run(
            self, sched, gmm, counting, interval):
        ts = make_timesteps(1000, 40)
        x0 = np.stack([initial_noise(8, k) for k in range(3)])
        plan = AccelerationPlan(interval=interval)
        for x in (x0, x0[1]):  # a batch, and one (d,) run
            full = sample_full(gmm, sched, x, ts)
            applied = dataclasses.replace(plan, wg=calibrate_wg(gmm, sched, x, ts, plan).wg)
            counted = counting(gmm)
            resumed = accelerated_sample(counted, sched, x, ts, applied,
                                         full=full.states)
            scratch = accelerated_sample(gmm, sched, x, ts, applied)
            assert np.array_equal(resumed.states, scratch.states)
            assert np.array_equal(resumed.nfe, scratch.nfe)
            assert resumed.approximated == scratch.approximated
            # only the iterations from the first selected one reach the denoiser
            first = plan.selected()[0] if interval else 41
            assert [t for t, _ in counted.calls] == [
                int(ts[i - 1]) for i in range(first, 41)
                if i not in plan.selected()]

    @settings(max_examples=20, deadline=None)
    @example(kind="stall", seeds=[0, 3], interval=(21, 99),
             biases=[0.0, 0.05, -0.05])
    @given(kind=st.sampled_from(["gmm", "point", "trace", "stall"]),
           seeds=st.lists(st.integers(0, 11), min_size=1, max_size=4,
                          unique=True),
           interval=st.sampled_from(INTERVALS_100),
           biases=st.lists(st.floats(-0.05, 0.10), min_size=1, max_size=4))
    def test_batched_biases_equal_scalar_calls(self, sched, gmm, recorded_data,
                                               kind, seeds, interval, biases):
        solo, seeds, x0 = _kind_batch(kind, seeds, sched, gmm, recorded_data)
        ts = make_timesteps(1000, 100)
        plan = AccelerationPlan(interval=interval)
        per_row = calibrate_wg(solo(seeds), sched, x0, ts, plan).wg
        shared = {i: float(w[-1]) for i, w in per_row.items()}
        # per-row and shared wg on the batch, shared wg on its last row alone
        for den, x, wg in ((solo(seeds), x0, per_row), (solo(seeds), x0, shared),
                           (solo(seeds[-1]), x0[-1:], shared)):
            objective = _bias_objective(den, sched, sample_full(den, sched, x, ts),
                                        dataclasses.replace(plan, wg=wg))
            batch = objective(np.array(biases))
            assert batch.shape == (len(biases),) + x.shape[:-1]
            for b, got in zip(biases, batch):
                assert np.array_equal(got, objective([b])[0])
        for bad in (np.array([0.0, np.nan]), 0.0, [[0.0]]):
            with pytest.raises(ConfigError, match="bias must be finite"):
                objective(bad)
        # the shared wg as one float and as one scale per row: the same bits
        den, spread = solo(seeds), {i: np.full(len(x0), w) for i, w in shared.items()}
        full = sample_full(den, sched, x0, ts)
        for b in biases:
            one, rows = (accelerated_sample(den, sched, x0, ts, dataclasses.replace(
                plan, wg=wg, bias=b)) for wg in (shared, spread))
            assert np.array_equal(one.states, rows.states)
        one, rows = (_bias_objective(den, sched, full, dataclasses.replace(plan, wg=wg))(
            np.array(biases)) for wg in (shared, spread))
        assert np.array_equal(one, rows)

    def test_per_row_wg_must_match_rows(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39))
        x0 = np.stack([initial_noise(8, k) for k in range(3)])
        wg = calibrate_wg(gmm, sched, x0, ts, plan).wg
        accelerated_sample(gmm, sched, x0, ts, dataclasses.replace(plan, wg=wg))
        with pytest.raises(ConfigError, match="per-row wg"):
            accelerated_sample(gmm, sched, x0, ts, dataclasses.replace(
                plan, wg={i: w[:2] for i, w in wg.items()}))
        with pytest.raises(ConfigError, match="per-row wg"):
            accelerated_sample(gmm, sched, x0[0], ts, dataclasses.replace(plan, wg=wg))

    def test_missing_wg_rejected_at_apply(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        plan = AccelerationPlan(interval=(13, 39), wg={})
        with pytest.raises(ConfigError, match="wg entry"):
            accelerated_sample(gmm, sched, initial_noise(8, 0), ts, plan)


class TestGoldenSection:
    def test_finds_quadratic_peak(self):
        x, evals = golden_section_max(lambda x: -(x - 1.0) ** 2, 0.0, 3.0, tol=1e-8)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 <= p <= 3.0 for p, _ in evals)

    def test_rejects_empty_interval(self):
        probes = []
        for lo, hi in ((1.0, 0.0), (np.nan, 1.0), (0.0, np.nan),
                       (0.0, np.inf), (-np.inf, 0.0), (np.inf, np.inf),
                       (-1e308, 1e308)):  # finite bounds, a width that overflows
            with pytest.raises(ValueError, match="finite and non-empty"):
                golden_section_max(probes.append, lo, hi)
        assert probes == []  # refused before the first probe

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-1e3, 1e3),
           width=st.sampled_from([0.0, 1e-12]) | st.floats(0.0, 1e3),
           tol=st.sampled_from([1e-6, 0.0, -1.0]) | st.floats(-1.0, 1.0),
           levels=st.lists(st.integers(-2, 2), min_size=1, max_size=6),
           wiggle=st.sampled_from([0.0, 1.0]), freq=st.floats(0.0, 50.0))
    @example(lo=0.0, width=0.0, tol=-1.0, levels=[0], wiggle=0.0, freq=0.0)
    @example(lo=0.0, width=1.0, tol=0.0, levels=[1, 0, 1], wiggle=0.0, freq=0.0)
    def test_look_ahead_probes_as_one_at_a_time(self, lo, width, tol, levels,
                                                wiggle, freq):
        hi = lo + width

        def g(x):  # equal steps, ties among them, plus a sine: several peaks
            k = int((x - lo) / (width or 1.0) * len(levels))
            return levels[min(max(k, 0), len(levels) - 1)] + wiggle * math.sin(freq * x)

        calls = []

        def f(xs):
            calls.append(len(xs))
            return [g(x) for x in xs]

        def bits(pairs):
            return [(float(x).hex(), float(y).hex()) for x, y in pairs]

        x_best, evals = golden_section_max(f, lo, hi, tol)
        x_ref, ref = _one_probe_at_a_time(g, lo, hi, tol)
        assert float(x_best).hex() == float(x_ref).hex()
        assert bits(evals) == bits(ref)
        assert max(calls) <= 3 and len(calls) <= math.ceil((len(ref) - 2) / 2) + 1


def _one_probe_at_a_time(f, lo, hi, tol):
    """golden_section_max without its look-ahead: f scores one point a call."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    evals = []

    def ev(x):
        evals.append((x, f(x)))
        return evals[-1][1]

    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = ev(d)
    return 0.5 * (a + b), evals


def _stub(biases):
    """Batched concave PSNR stub with its argmax at 0.02, one row."""
    return (40.0 - 100.0 * (np.asarray(biases) - 0.02) ** 2)[:, None]


def _ramp(biases):
    return np.asarray(biases)[:, None]


class TestRefineBias:
    def test_stub_recovers_analytic_argmax(self):
        grid = np.linspace(*BIAS_INTERVAL_DEFAULT, 11)
        for mode in ("grid", "binary"):
            res = _search_bias(_stub, *BIAS_INTERVAL_DEFAULT, mode=mode)
            assert res.bias == pytest.approx(0.02, abs=1e-4)
            # both modes score the grid, so binary can only gain from it
            assert set(grid.tolist()) <= set(dict(res.evaluations))
            assert np.array_equal(res.grid, grid)
            assert np.array_equal(res.grid_psnr, _stub(grid))

    def test_zero_is_always_a_candidate(self):
        # maximum far from zero; zero still probed
        res = _search_bias(_ramp, *BIAS_INTERVAL_DEFAULT)
        assert any(b == 0.0 for b, _ in res.evaluations)
        assert res.psnr >= dict(res.evaluations)[0.0] - 1e-9

    def test_real_objective_never_below_unbiased(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        x0 = initial_noise(8, 1)
        plan = AccelerationPlan(interval=(13, 39))
        cal = calibrate_wg(gmm, sched, x0, ts, plan)
        res = refine_bias(gmm, sched, sample_full(gmm, sched, x0[None], ts),
                          dataclasses.replace(plan, wg=cal.wg))
        at_zero = dict(res.evaluations)[0.0]
        assert res.psnr >= at_zero - 1e-9

    def test_refuses_an_unbatched_reference(self, sched, gmm):
        ts = make_timesteps(1000, 40)
        x0 = initial_noise(8, 1)
        plan = AccelerationPlan(interval=(13, 39))
        cal = calibrate_wg(gmm, sched, x0, ts, plan)
        with pytest.raises(ValueError, match="not a batch"):
            refine_bias(gmm, sched, sample_full(gmm, sched, x0, ts),
                        dataclasses.replace(plan, wg=cal.wg))

    def test_degenerate_interval_returns_endpoint(self):
        calls = []

        def objective(biases):
            calls.append(biases.tolist())
            return _ramp(biases)

        res = _search_bias(objective, 0.03, 0.03)
        assert res.bias == 0.03
        assert calls == [[0.03] * 11]  # the grid alone: no golden section on [lo, lo]

    def test_known_scores_are_never_reevaluated(self, monkeypatch):
        calls, probes = [], []
        search = ltc.golden_section_max

        def objective(biases):
            calls.append(biases.tolist())
            return _stub(biases)

        def recording(*args, **kwargs):
            found = search(*args, **kwargs)
            probes.extend(b for b, _ in found[1])
            return found

        monkeypatch.setattr(ltc, "golden_section_max", recording)
        res = _search_bias(objective, -0.05, 0.10)
        grid = np.linspace(-0.05, 0.10, 11).tolist()
        assert calls[0] == grid + [0.0]  # the grid and zero in one call
        # golden section scores its first 2 probes in one call, then each
        # probe not yet scored with the 2 that can follow it, and the last
        # alone: every bias once, never a grid point or zero
        golden = [b for call in calls[1:] for b in call]
        assert [len(call) for call in calls[1:]] == [2] + [3] * 8 + [1]
        assert len(set(golden)) == len(golden)
        assert not set(golden) & set(calls[0])
        # the result holds the grid call and the 19 sequential probes
        assert len(probes) == 19 and set(probes) <= set(golden)
        assert [b for b, _ in res.evaluations] == sorted(calls[0] + probes)
        assert res.bias == pytest.approx(0.02, abs=1e-4)

    def test_non_finite_bounds_rejected_before_any_call(self):
        calls = []

        def objective(biases):
            calls.append(biases.tolist())
            return _ramp(biases)

        for lo, hi in ((np.nan, 0.1), (-0.05, np.inf), (-np.inf, 0.1), (0.0, np.nan),
                       (-1e308, 1e308)):  # finite bounds, a width that overflows
            with pytest.raises(ValueError, match="finite and non-empty"):
                _search_bias(objective, lo, hi)
        assert calls == []

    def test_invalid_interval_and_mode_rejected(self):
        with pytest.raises(ValueError):
            _search_bias(_ramp, 0.1, -0.1)
        with pytest.raises(ValueError):
            _search_bias(_ramp, *BIAS_INTERVAL_DEFAULT, mode="ternary")
