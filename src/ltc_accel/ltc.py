"""Transition-operator reuse: approximate a denoising step from the last one.

A sampler iteration moves the state from timestep t+1 to t; its transition
operator is the displacement Delta = x_t - x_{t+1}. When consecutive
displacements point in nearly the same direction (small angle theta), the
upcoming one can be approximated from the previous one instead of paying a
denoiser call:

    x*_t = x_{t+1} + w * gamma * Delta_prev

gamma rescales for uneven step sizes (ratio of phi increments) and w is a
per-step scale. The least-squares w for a known true displacement
Delta_true is

    w = <Delta_true, Delta_prev> / (gamma * ||Delta_prev||^2)

at which the approximation error is exactly sin^2(theta) of the angle
between the two displacements, relative to ||Delta_true||^2. Calibration
measures these w once on a cheap run and reuses the table; an optional
scalar bias on top of w is picked by maximizing end-state PSNR.

Iterations are counted 1-based from the noisy end: iteration i produces
the state at timesteps[i]. Iteration i is approximated when it lies in
the plan's interval [a, b] and i mod r = r - 1. The first iteration of a
run and the final one (its target t = 0 has no progress coordinate) are
never approximated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateTransitionError, PlanError
from .metrics import psnr
from .sampler import Trajectory, _chain, check_timesteps, ddim_step, sample_full
from .schedule import NoiseSchedule, PhiMode, gamma, phi

TAU_DEFAULT = 0.1
TAU_CEILING = 0.15
BIAS_INTERVAL_DEFAULT = (-0.05, 0.10)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TransitionOperator:
    """Displacement across one grid step; hi is the noisier endpoint."""

    hi: int
    lo: int
    delta: np.ndarray

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"need lo < hi, got lo={self.lo}, hi={self.hi}")
        d = np.asarray(self.delta, dtype=np.float64)
        if d.ndim != 1:
            raise ValueError("delta must be a vector")
        object.__setattr__(self, "delta", d)


def transition(x_lo, x_hi, hi: int, lo: int | None = None) -> TransitionOperator:
    """Operator for the step that moved x_hi (at timestep hi) to x_lo."""
    x_lo = np.asarray(x_lo, dtype=np.float64)
    x_hi = np.asarray(x_hi, dtype=np.float64)
    if x_lo.shape != x_hi.shape:
        raise ValueError(f"shape mismatch: {x_lo.shape} vs {x_hi.shape}")
    return TransitionOperator(hi=hi, lo=hi - 1 if lo is None else lo,
                              delta=x_lo - x_hi)


def angle(d1: TransitionOperator, d2: TransitionOperator) -> float:
    """Angle in [0, pi] between two transition displacements."""
    if d1.delta.shape != d2.delta.shape:
        raise ValueError("operators act on different dimensions")
    nu = float(np.linalg.norm(d1.delta))
    nv = float(np.linalg.norm(d2.delta))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateTransitionError("angle undefined for zero displacement")
    c = float(np.dot(d1.delta, d2.delta)) / (nu * nv)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _angles(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles over the last axis, and the mask of zero norms, which get pi.
    vecdot gives the bits of a per-row np.dot, and sqrt(vecdot(u, u)) those of
    np.linalg.norm, so each entry equals `angle` on that row."""
    nn = np.sqrt(np.vecdot(u, u)) * np.sqrt(np.vecdot(v, v))
    zero = nn == 0.0
    c = np.vecdot(u, v) / np.where(zero, 1.0, nn)
    return np.where(zero, np.pi, np.arccos(np.clip(c, -1.0, 1.0))), zero


@dataclass(frozen=True)
class AngleTrace:
    """Per-iteration angles; angles[..., p] belongs to iteration p + start.

    The angle at iteration i compares that iteration's displacement with
    the preceding one, so a trace from a full run starts at iteration 2.
    Zero displacements get theta = pi (nothing coherent to reuse) and are
    listed in `degenerate`. A batched run gives (S, n - 1) angles and
    (row, iteration) pairs in `degenerate`, ordered as a Trajectory's.
    """

    angles: np.ndarray
    start: int = 2
    degenerate: tuple = ()

    def iteration_interval(self, positions: tuple[int, int]) -> tuple[int, int]:
        a, b = positions
        return a + self.start, b + self.start


def angle_trace(traj: Trajectory) -> AngleTrace:
    """Angles between consecutive displacements of a trajectory or a batch."""
    deltas = np.diff(np.asarray(traj.states, dtype=np.float64), axis=-2)
    out, zero = _angles(deltas[..., 1:, :], deltas[..., :-1, :])
    if zero.ndim == 1:
        degenerate = tuple(int(p) + 2 for p in np.flatnonzero(zero))
    else:
        degenerate = tuple((int(r), int(p) + 2) for p, r in np.argwhere(zero.T))
    return AngleTrace(angles=out, start=2, degenerate=degenerate)


def detect_interval(trace, tau: float) -> tuple[int, int] | None:
    """Longest contiguous run of angles strictly below tau.

    Accepts an AngleTrace or a plain sequence; returns 0-based positions
    into it, ties broken toward the earliest run, None when no angle is
    below tau.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    angles = np.asarray(trace.angles if isinstance(trace, AngleTrace) else trace,
                        dtype=np.float64)
    best: tuple[int, int] | None = None
    best_len = 0
    run_start = None
    for p, below in enumerate(np.append(angles < tau, False)):
        if below and run_start is None:
            run_start = p
        elif not below and run_start is not None:
            if p - run_start > best_len:
                best, best_len = (run_start, p - 1), p - run_start
            run_start = None
    return best


def wg_closed_form(d_prev: TransitionOperator, d_prev2: TransitionOperator,
                   g: float) -> float:
    """Least-squares scale minimizing ||d_prev.delta - w * g * d_prev2.delta||."""
    if g <= 0.0 or not np.isfinite(g):
        raise ValueError(f"gamma must be positive and finite, got {g}")
    den = float(np.dot(d_prev2.delta, d_prev2.delta))
    if den == 0.0:
        raise DegenerateTransitionError("previous displacement is zero")
    return float(np.dot(d_prev.delta, d_prev2.delta)) / (g * den)


def approx_step(x_hi, d_prev2: TransitionOperator, wg: float, g: float) -> np.ndarray:
    """Approximated next state: x_hi + wg * g * d_prev2.delta."""
    x_hi = np.asarray(x_hi, dtype=np.float64)
    if x_hi.shape != d_prev2.delta.shape:
        raise ValueError(f"shape mismatch: {x_hi.shape} vs {d_prev2.delta.shape}")
    return x_hi + (wg * g) * d_prev2.delta


def relative_error(x_true, x_approx, d_true: TransitionOperator) -> float:
    """||x_true - x_approx||^2 / ||d_true.delta||^2."""
    x_true = np.asarray(x_true, dtype=np.float64)
    x_approx = np.asarray(x_approx, dtype=np.float64)
    den = float(np.dot(d_true.delta, d_true.delta))
    if den == 0.0:
        raise DegenerateTransitionError("true displacement is zero")
    diff = x_true - x_approx
    return float(np.dot(diff, diff)) / den


@dataclass(frozen=True)
class AccelerationPlan:
    """Which iterations to approximate, and with what scales.

    interval are 1-based iteration bounds [a, b] inclusive; None disables
    acceleration entirely. Iteration i is selected when a <= i <= b and
    i mod r = r - 1. wg maps selected iterations to calibrated scales, one
    per iteration or, for a batched run, an (S,) array of per-row scales;
    bias is added to every wg at apply time.
    """

    interval: tuple[int, int] | None
    r: int = 2
    tau: float = TAU_DEFAULT
    wg: dict | None = None
    bias: float = 0.0
    phi_mode: PhiMode = PhiMode.SQRT_SNR

    @classmethod
    def empty(cls, **kw) -> "AccelerationPlan":
        return cls(interval=None, **kw)

    def selected(self) -> tuple[int, ...]:
        if self.interval is None:
            return ()
        a, b = self.interval
        return tuple(i for i in range(a, b + 1) if i % self.r == self.r - 1)

    def validate(self, n_iterations: int, require_wg: bool,
                 rows: tuple | None = None) -> tuple[int, ...]:
        """Selected iterations; per-row wg arrays must have shape `rows`."""
        if self.r < 2:
            raise PlanError(f"r must be at least 2, got {self.r}")
        if self.r > 2:
            warnings.warn(
                f"r={self.r} approximates consecutive iterations; only r=2 is validated",
                stacklevel=2)
        if not self.tau > 0.0:
            raise PlanError(f"tau must be positive, got {self.tau}")
        if self.tau > TAU_CEILING:
            warnings.warn(
                f"tau={self.tau} above the validated ceiling {TAU_CEILING}",
                stacklevel=2)
        if not np.isfinite(self.bias):
            raise PlanError(f"bias must be finite, got {self.bias}")
        bad = sorted(i for i, w in (self.wg or {}).items()
                     if not np.all(np.isfinite(w)) or rows is not None
                     and np.ndim(w) and np.shape(w) != rows)
        if bad:
            raise PlanError("wg must be finite, and a per-row wg must have one "
                            f"scale per state row; bad at iterations {bad}")
        if self.interval is None:
            return ()
        a, b = self.interval
        if not 1 <= a <= b <= n_iterations - 1:
            raise PlanError(
                f"interval [{a}, {b}] must satisfy 1 <= a <= b <= "
                f"{n_iterations - 1} (the final iteration is always real)"
            )
        sel = self.selected()
        if sel and sel[0] < 2:
            raise PlanError(
                f"iteration {sel[0]} cannot be approximated: it lacks two prior states"
            )
        if require_wg:
            missing = [i for i in sel if self.wg is None or i not in self.wg]
            if missing:
                raise PlanError(f"plan has no wg entry for iterations {missing}")
        return sel

    def with_wg(self, wg: dict) -> "AccelerationPlan":
        return replace(self, wg=dict(wg))


def _grid_gamma(schedule: NoiseSchedule, ts: np.ndarray, i: int,
                mode: PhiMode) -> float:
    """gamma for iteration i: target ts[i], sources ts[i-1], ts[i-2]."""
    return gamma(
        phi(schedule, int(ts[i]), mode),
        phi(schedule, int(ts[i - 1]), mode),
        phi(schedule, int(ts[i - 2]), mode),
    )


def accelerated_sample(denoiser, schedule: NoiseSchedule, x_init, timesteps,
                       plan: AccelerationPlan) -> Trajectory:
    """Sampling loop with selected iterations replaced by approximations.

    A selected iteration whose previous displacement is exactly zero falls
    back to a real denoiser call (counted in nfe, logged, recorded in
    Trajectory.fallbacks) instead of failing mid-run.
    """
    ts = check_timesteps(timesteps, schedule.t_train)
    selected = set(plan.validate(len(ts) - 1, require_wg=True,
                                 rows=np.shape(x_init)[:-1]))
    return _chain(denoiser, schedule, x_init, ts, selected,
                  _extrapolation(schedule, ts, plan))


def _extrapolation(schedule: NoiseSchedule, ts: np.ndarray,
                   plan: AccelerationPlan):
    """_chain's reuse hook for a plan: x + (wg[i] + bias) * gamma * d_prev."""

    def extrapolate(i, x, d_prev, rows):
        g = _grid_gamma(schedule, ts, i, plan.phi_mode)
        w = plan.wg[i] if np.ndim(plan.wg[i]) == 0 else plan.wg[i][rows]
        return x + np.reshape((w + plan.bias) * g, (-1, 1)) * d_prev

    return extrapolate


def _bias_objective(denoiser, schedule: NoiseSchedule, reference: Trajectory,
                    plan: AccelerationPlan):
    """bias -> PSNR of the accelerated end state against the full run.

    `reference` is the full run, one state or a batch; for a batch a call
    returns the per-row PSNRs. Its states before the first selected
    iteration are the accelerated run's at any bias, so calls resume there.
    """
    ts, x_init = reference.timesteps, reference.states[..., 0, :]
    n = len(ts) - 1
    selected = set(plan.validate(n, require_wg=True, rows=x_init.shape[:-1]))
    prefix = reference.states[..., :min(selected, default=n + 1), :]

    def objective(bias: float):
        biased = replace(plan, bias=bias)
        biased.validate(n, require_wg=True)
        traj = _chain(denoiser, schedule, x_init, ts, selected,
                      _extrapolation(schedule, ts, biased), prefix=prefix)
        return psnr(reference.final, traj.final)

    return objective


@dataclass
class CalibrationResult:
    """Per-iteration scales plus the diagnostics behind them.

    wg[i] is the least-squares scale measured at iteration i. theta[i] is
    the angle between the true displacement and the reused one; eps_r[i]
    the squared approximation error relative to the true displacement,
    both measured against the shadow real step. The chain continues from
    the approximated state, so later measurements see accumulated drift,
    matching deployment. nfe covers every iteration: calibration pays the
    full run it measures. For a batch each value is an (S,) array over the
    rows, and theta and eps_r are NaN on a row that fell back.
    """

    wg: dict
    theta: dict
    eps_r: dict
    fallbacks: tuple
    trajectory: Trajectory


def calibrate_wg(denoiser, schedule: NoiseSchedule, x_init, timesteps,
                 plan: AccelerationPlan) -> CalibrationResult:
    """Measure per-iteration scales with shadow real steps.

    At every selected iteration the real next state is computed, the
    closed-form wg recorded against it, and the chain then continues from
    the approximated state. A zero previous displacement takes the real
    step and records the neutral scale 1.0; the value is never
    extrapolated because apply-time degeneracy independently falls back
    to a real step.
    """
    ts = check_timesteps(timesteps, schedule.t_train)
    n = len(ts) - 1
    selected = set(plan.validate(n, require_wg=False))
    n_rows = len(np.atleast_2d(x_init))
    wg = {i: np.ones(n_rows) for i in sorted(selected)}  # fallbacks: neutral 1.0
    theta = {i: np.full(n_rows, np.nan) for i in sorted(selected)}
    eps_r = {i: np.full(n_rows, np.nan) for i in sorted(selected)}

    def shadow(i, x, d_prev, rows):
        t, t_prev = int(ts[i - 1]), int(ts[i])
        x_real = ddim_step(x, denoiser.take(rows).epsilon_hat(x, t),
                           schedule, t, t_prev)
        g = _grid_gamma(schedule, ts, i, plan.phi_mode)
        d_true = x_real - x
        w = np.vecdot(d_true, d_prev) / (g * np.vecdot(d_prev, d_prev))
        x_star = x + (w * g)[:, None] * d_prev
        # a zero true displacement has theta = pi (from _angles) and eps_r = 0
        tn, miss = np.vecdot(d_true, d_true), x_real - x_star
        wg[i][rows], theta[i][rows] = w, _angles(d_true, d_prev)[0]
        eps_r[i][rows] = np.divide(np.vecdot(miss, miss), tn,
                                   out=np.zeros_like(tn), where=tn != 0.0)
        return x_star

    traj = _chain(denoiser, schedule, x_init, ts, selected, shadow)
    traj.nfe = np.full(n_rows, n) if np.ndim(x_init) == 2 else n
    if np.ndim(x_init) == 1:
        moved = [i for i in theta if not np.isnan(theta[i][0])]
        wg = {i: float(w[0]) for i, w in wg.items()}
        theta, eps_r = ({i: float(d[i][0]) for i in moved} for d in (theta, eps_r))
    return CalibrationResult(wg=wg, theta=theta, eps_r=eps_r,
                             fallbacks=traj.fallbacks, trajectory=traj)


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-6,
                       max_iter: int = 200):
    """Golden-section maximization of a unimodal scalar function.

    Returns (x_best, evaluations) where evaluations collects every
    (x, f(x)) probed.
    """
    if hi < lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    evals = []

    def ev(x):
        y = f(x)
        evals.append((x, y))
        return y

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = ev(c), ev(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = ev(d)
    return 0.5 * (a + b), evals


@dataclass
class BiasSearchResult:
    bias: float
    psnr: float
    evaluations: list  # (bias, psnr) pairs actually probed


def _search_bias(objective, lo: float, hi: float, mode: str = "grid",
                 grid_points: int = 11, tol: float = 1e-6,
                 known=()) -> BiasSearchResult:
    """The bias search behind refine_bias and the harness's refine mode.

    Maximizes objective(bias) over [lo, hi] as refine_bias documents.
    `known` holds (bias, score) pairs already measured; the objective is
    never called at those biases. Equal scores go to the smallest |bias|.
    """
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise ValueError(f"empty bias interval [{lo}, {hi}]")
    if mode not in ("grid", "binary"):
        raise ValueError(f"unknown search mode {mode!r}")
    cache = {float(b): float(v) for b, v in known}

    def ev(b: float) -> float:
        b = float(b)
        if b not in cache:
            cache[b] = float(objective(b))
        return cache[b]

    if lo <= 0.0 <= hi:
        ev(0.0)
    if mode == "grid":
        grid = np.linspace(lo, hi, grid_points)
        k = int(np.argmax([ev(b) for b in grid]))
        golden_section_max(ev, float(grid[max(k - 1, 0)]),
                           float(grid[min(k + 1, grid_points - 1)]), tol=tol)
    else:
        golden_section_max(ev, lo, hi, tol=tol)
    best = max(cache, key=lambda b: (cache[b], -abs(b)))
    return BiasSearchResult(bias=best, psnr=cache[best],
                            evaluations=sorted(cache.items()))


def refine_bias(denoiser, schedule: NoiseSchedule, x_init, timesteps,
                plan: AccelerationPlan,
                interval: tuple[float, float] = BIAS_INTERVAL_DEFAULT,
                mode: str = "grid", grid_points: int = 11, tol: float = 1e-6,
                evaluator=None) -> BiasSearchResult:
    """Pick the wg bias maximizing PSNR against the full run.

    mode "grid" scans a uniform grid then refines around the best point by
    golden section; "binary" runs golden section on the whole interval.
    Zero is always a candidate when the interval contains it, so the
    refined bias can never score below the unbiased plan. `evaluator`
    overrides the PSNR-vs-full objective (used for testing the search).
    """
    if evaluator is None:
        reference = sample_full(denoiser, schedule, x_init, timesteps)
        evaluator = _bias_objective(denoiser, schedule, reference, plan)
    return _search_bias(evaluator, interval[0], interval[1], mode=mode,
                        grid_points=grid_points, tol=tol)
