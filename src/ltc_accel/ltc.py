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
from dataclasses import dataclass

import numpy as np

from . import errors  # errors._integral: harness holds no private name of ltc
from .errors import ConfigError, NumericError
from .metrics import aggregate, psnr
from .sampler import Trajectory, _chain, check_timesteps, sample_full
from .schedule import NoiseSchedule, PhiMode, gamma, phi

BIAS_INTERVAL_DEFAULT = (-0.05, 0.10)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 200
_GRID_POINTS = 11
_BIAS_TOL = 1e-5  # golden section stops once the bias bracket is this narrow


def angle(u, v):
    """Angle in [0, pi] between displacements over the last axis: a float for
    a (d,) pair, one per row for (S, d). A zero displacement has no direction
    and gets pi. vecdot gives the bits of a per-row np.dot, and
    sqrt(vecdot(u, u)) those of np.linalg.norm."""
    if np.shape(u) != np.shape(v):
        raise ValueError(f"shape mismatch: {np.shape(u)} vs {np.shape(v)}")
    nn = np.sqrt(np.vecdot(u, u)) * np.sqrt(np.vecdot(v, v))
    zero = nn == 0.0
    c = np.vecdot(u, v) / np.where(zero, 1.0, nn)
    return np.where(zero, np.pi, np.arccos(np.clip(c, -1.0, 1.0)))[()]


def angle_trace(traj: Trajectory) -> np.ndarray:
    """Angles between consecutive displacements of a trajectory, (n - 1,),
    or of a batch, (S, n - 1). angles[..., p] belongs to iteration p + 2:
    the angle at iteration i compares its displacement with the preceding
    one. A zero displacement gets pi (nothing coherent to reuse)."""
    deltas = np.diff(np.asarray(traj.states, dtype=np.float64), axis=-2)
    return angle(deltas[..., 1:, :], deltas[..., :-1, :])


def detect_interval(angles, tau: float) -> tuple[int, int] | None:
    """Plan interval of the longest run of 1-D angles below tau: angles[p] is
    iteration p + 2, and b stops at len(angles), the final iteration being
    real. Ties go to the earliest run; None when no angle is below tau, or
    only the last one (a > b: nothing but the final iteration to skip)."""
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    below = np.asarray(angles, dtype=np.float64) < tau
    if below.ndim != 1:
        raise ValueError(f"angles must be 1-D, got shape {below.shape}")
    edges = np.diff(np.pad(below, 1).astype(np.int8))  # +1 opens a run, -1 ends it
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if not starts.size:
        return None
    k = int(np.argmax(ends - starts))
    a, b = int(starts[k]) + 2, min(int(ends[k]) + 1, below.size)
    return (a, b) if a <= b else None


def wg_closed_form(d_true, d_prev, g: float):
    """Least-squares scale minimizing ||d_true - w * g * d_prev||, over the
    last axis: one float for (d,) displacements, one per row for (S, d)."""
    if not 0.0 < g < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {g}")
    den = np.vecdot(d_prev, d_prev)
    if not den.all():
        raise NumericError("previous displacement is zero")
    return np.vecdot(d_true, d_prev) / (g * den)


def approx_step(x, d_prev, wg, g: float) -> np.ndarray:
    """Approximated next state x + wg * g * d_prev; wg is a scalar or, for
    (S, d) states, one scale per row."""
    if np.shape(x) != np.shape(d_prev):
        raise ValueError(f"shape mismatch: {np.shape(x)} vs {np.shape(d_prev)}")
    return x + np.asarray(wg * g)[..., None] * d_prev


def relative_error(x_true, x_approx, d_true):
    """||x_true - x_approx||^2 / ||d_true||^2 over the last axis; 0.0 where
    d_true is zero (nothing to approximate)."""
    miss = np.subtract(x_true, x_approx)
    den = np.vecdot(d_true, d_true)
    return np.divide(np.vecdot(miss, miss), den, out=np.zeros(np.shape(den)),
                     where=den != 0.0)[()]


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
    wg: dict | None = None
    bias: float = 0.0
    phi_mode: PhiMode = PhiMode.SQRT_SNR

    def selected(self) -> tuple[int, ...]:
        if self.interval is None:
            return ()
        a, b = self.interval
        return tuple(i for i in range(a, b + 1) if i % self.r == self.r - 1)

    def validate(self, n_iterations: int, rows: tuple | None = None) -> tuple[int, ...]:
        """Selected iterations; given `rows`, the states' batch shape, each
        needs a wg, and a per-row wg must have shape `rows`."""
        if not (self.interval is None or isinstance(self.interval, tuple)
                and len(self.interval) == 2):
            raise ConfigError("interval must be None or a tuple of two integers, "
                              f"got {self.interval!r}")
        if not errors._integral((self.r, *(self.interval or ()))):
            raise ConfigError(f"r and the interval must be integers, got {self.r!r}, {self.interval!r}")
        if self.r < 2:
            raise ConfigError(f"r must be at least 2, got {self.r}")
        # one source line: the default filter shows the warning once per run
        if self.r > 2:
            warnings.warn(f"r={self.r} approximates one iteration in {self.r}; "
                          "only r=2 is validated")
        if not np.isfinite(self.bias):
            raise ConfigError(f"bias must be finite, got {self.bias}")
        if self.phi_mode not in list(PhiMode):
            raise ConfigError(f"unknown phi_mode {self.phi_mode!r}")
        try:  # one pass when the entries stack; otherwise the scan below decides
            w = np.array(list((self.wg or {}).values()))
            ok = np.isfinite(w).all() and (rows is None or w.ndim < 2 or w.shape[1:] == rows)
        except (TypeError, ValueError):
            ok = False
        bad = [] if ok else sorted(i for i, w in (self.wg or {}).items()
                                   if not np.all(np.isfinite(w)) or rows is not None
                                   and np.ndim(w) and np.shape(w) != rows)
        if bad:
            raise ConfigError("wg must be finite, and a per-row wg must have one "
                              f"scale per state row; bad at iterations {bad}")
        if self.interval is None:
            return ()
        a, b = self.interval
        if not 1 <= a <= b <= n_iterations - 1:
            raise ConfigError(
                f"interval [{a}, {b}] must satisfy 1 <= a <= b <= "
                f"{n_iterations - 1} (the final iteration is always real)"
            )
        sel = self.selected()
        if sel and sel[0] < 2:
            raise ConfigError(
                f"iteration {sel[0]} cannot be approximated: it lacks two prior states"
            )
        missing = [i for i in sel if i not in (self.wg or {})]
        if rows is not None and missing:
            raise ConfigError(f"plan has no wg entry for iterations {missing}")
        return sel


def _setup(schedule: NoiseSchedule, timesteps, plan: AccelerationPlan, x_init,
           full, rows: tuple | None = None):
    """What every chain applies: the checked grid ts, gamma of each selected
    iteration i (target ts[i], sources ts[i-1], ts[i-2]) keyed by i in
    ascending order, validated as plan.validate(n, rows), and the states of
    `full` before the first of them, `full` checked to hold all n + 1 states
    of a full run from x_init, or None; then, given `rows`, plan.wg as
    (n_sel, S), else None, and the gammas as an (n_sel, 1) column."""
    ts = check_timesteps(timesteps, schedule.t_train)
    sel = plan.validate(len(ts) - 1, rows)
    j = np.add.outer((0, -1, -2), np.array(sel, dtype=np.int64))  # i, i - 1, i - 2
    g = gamma(*phi(schedule, ts[j], plan.phi_mode))
    gammas = dict(zip(sel, g.tolist()))
    wg = None if rows is None else np.empty((len(sel), *(rows or (1,))))  # a (d,) run: one row
    for k, i in enumerate(sel if rows is not None else ()):
        wg[k] = plan.wg[i]
    if full is not None:
        full = np.asarray(full, dtype=np.float64)
        if (full.shape[:-2] + full.shape[-1:] != np.shape(x_init)
                or full.shape[-2:-1] != ts.shape
                or not np.array_equal(full[..., 0, :], x_init)):
            raise ValueError(f"full of shape {full.shape} is not a full run from x_init")
        full = full[..., :min(gammas, default=len(ts)), :]
    return ts, gammas, full, wg, g[:, None]


def accelerated_sample(denoiser, schedule: NoiseSchedule, x_init, timesteps,
                       plan: AccelerationPlan, full=None) -> Trajectory:
    """Sampling loop with selected iterations replaced by approximations.

    A selected iteration whose previous displacement is exactly zero falls
    back to a real denoiser call (counted in nfe, logged, recorded in
    Trajectory.fallbacks) instead of failing mid-run.

    `full`, the (n + 1, d) or (S, n + 1, d) states of the full runs from
    x_init, starts the loop at the plan's first selected iteration: the
    real steps before it are the full runs'. Those steps count in nfe;
    the result is the same.
    """
    ts, gammas, prefix, wg, g = _setup(schedule, timesteps, plan, x_init, full,
                                       rows=np.shape(x_init)[:-1])
    return _chain(denoiser, schedule, x_init, ts, gammas,
                  _extrapolation(gammas, (wg + plan.bias) * g), prefix=prefix)


def _extrapolation(gammas: dict, coef: np.ndarray):
    """_chain's reuse hook x + coef * d_prev, coef the (n_sel, S) (wg + bias) * gamma."""
    coef = dict(zip(gammas, coef[..., None]))
    return lambda i, x, d_prev, rows, x_real: x + coef[i][rows] * d_prev


def _bias_objective(denoiser, schedule: NoiseSchedule, reference: Trajectory,
                    plan: AccelerationPlan):
    """A 1-D array of B biases -> the (B, S) PSNRs of the accelerated end
    states against the S full runs of `reference`, from one chain over its
    rows tiled B times. The reference's states before the first selected
    iteration are the accelerated run's at any bias, so every call resumes
    there.
    """
    if np.ndim(reference.states) != 3:
        raise ValueError(f"reference is not a batch: states {np.shape(reference.states)}")
    x_init = reference.states[:, 0]
    n_rows = len(x_init)
    ts, gammas, prefix, wg, g = _setup(schedule, reference.timesteps, plan, x_init,
                                       reference.states, rows=(n_rows,))

    def objective(biases):
        b = np.asarray(biases, dtype=np.float64)
        if b.ndim != 1 or not np.all(np.isfinite(b)):
            raise ConfigError(f"bias must be finite, in a 1-D array, got {biases}")
        tile = np.tile(np.arange(n_rows), b.size)  # batch row -> reference row
        bias = np.repeat(b, n_rows)  # each batch row's bias, for plan.bias
        traj = _chain(denoiser.take(tile), schedule, x_init[tile], ts, gammas,
                      _extrapolation(gammas, (wg[:, tile] + bias) * g), prefix=prefix[tile])
        return psnr(reference.final[tile], traj.final).reshape(b.size, n_rows)

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
    calibrated rows, and theta and eps_r are NaN on a row that fell back.
    full holds the batch's full runs when they rode in the same calls.
    """

    wg: dict
    theta: dict
    eps_r: dict
    trajectory: Trajectory
    full: Trajectory | None = None


def calibrate_wg(denoiser, schedule: NoiseSchedule, x_init, timesteps,
                 plan: AccelerationPlan, full=None, rows=None) -> CalibrationResult:
    """Measure per-iteration scales with shadow real steps.

    At every selected iteration the real next state is computed, the
    closed-form wg recorded against it, and the chain then continues from
    the approximated state. A zero previous displacement takes the real
    step and records the neutral scale 1.0; the value is never
    extrapolated because apply-time degeneracy independently falls back
    to a real step. `full` resumes the run as in accelerated_sample.

    Given `rows` instead, those rows of the (S, d) batch x_init ride in its full
    runs' calls (after one sample_full of the grid's head), returned as `full`.
    """
    ts, gammas, prefix, *_ = _setup(schedule, timesteps, plan, x_init, full)
    n, lead = len(ts) - 1, 0
    if rows is not None:
        if (full is not None or np.ndim(x_init) != 2 or not len(rows)
                or not errors._integral(rows, 0, len(x_init) - 1)):
            raise ValueError(f"rows need an (S, d) x_init, no full and its row indices: {rows!r}")
        lead, take = len(x_init), np.r_[:len(x_init), rows].astype(np.int64)
        head = sample_full(denoiser, schedule, x_init, ts[:min(gammas, default=n + 1)])
        denoiser, x_init, prefix = denoiser.take(take), x_init[take], head.states[take]
    n_rows = len(np.atleast_2d(x_init)) - lead
    wg = dict(zip(gammas, np.ones((len(gammas), n_rows))))  # fallbacks: neutral 1.0
    slot = {i: k for k, i in enumerate(gammas)}
    # x_real by selected iteration and row, NaN on fallbacks; x, d_prev, x* come off the states
    reals = np.full((len(gammas), n_rows, *np.shape(x_init)[-1:]), np.nan)

    def shadow(i, x, d_prev, rows, x_real):
        w = wg_closed_form(x_real - x, d_prev, gammas[i])
        wg[i][rows], reals[slot[i], rows] = w, x_real
        return approx_step(x, d_prev, w, gammas[i])

    traj = _chain(denoiser, schedule, x_init, ts, gammas, shadow, prefix=prefix,
                  shadow=True, full_rows=lead)
    traj.nfe = np.full(len(traj.nfe), n) if np.ndim(x_init) == 2 else n
    if lead:
        full = Trajectory(ts, traj.states[:lead], traj.nfe[:lead], traj.kind[:lead])
        traj = Trajectory(ts, traj.states[lead:], traj.nfe[lead:], traj.kind[lead:])
    states = np.reshape(traj.states, (n_rows, n + 1, -1)).swapaxes(0, 1)
    sel = np.array(list(gammas), dtype=np.int64)
    d_true = reals - states[sel - 1]
    # a zero true displacement has theta = pi and eps_r = 0
    theta = dict(zip(gammas, angle(d_true, states[sel - 1] - states[sel - 2])))
    eps_r = dict(zip(gammas, relative_error(reals, states[sel], d_true)))
    if np.ndim(x_init) == 1:
        moved = [i for i in theta if not np.isnan(theta[i][0])]
        wg = {i: float(w[0]) for i, w in wg.items()}
        theta, eps_r = ({i: float(d[i][0]) for i in moved} for d in (theta, eps_r))
    return CalibrationResult(wg, theta, eps_r, traj, full if lead else None)


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-6):
    """Golden-section maximization of a unimodal scalar function; f maps a
    1-D array of points to their values.

    Returns (x_best, evaluations) where evaluations collects every
    (x, f(x)) probed, in order. f scores each probe not yet scored with
    the two that can follow it (the next step's own expressions) while
    the bracket is wider than tol, so the next probe is found scored.
    """
    if not 0 <= hi - lo < math.inf:  # also refuses a NaN, or a width that overflows
        raise ValueError(f"search interval [{lo}, {hi}] must be finite and non-empty")
    evals, scored = [], {}

    def score(*xs):
        scored.update(zip(xs, map(float, f(np.array(xs))), strict=True))

    def ev(x):
        if x not in scored:
            score(x, *((d - _INVPHI * (d - a), c + _INVPHI * (b - c))
                       if b - a > tol else ()))
        evals.append((x, scored[x]))
        return scored[x]

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    score(c, d)
    fc, fd = ev(c), ev(d)
    for _ in range(_GOLDEN_MAX_ITER):
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
    evaluations: list  # (bias, score) pairs actually probed
    grid: np.ndarray  # the grid biases
    grid_psnr: np.ndarray  # (grid points, S) PSNRs at those biases


def _search_bias(objective, lo: float, hi: float,
                 mode: str = "grid") -> BiasSearchResult:
    """The bias search behind refine_bias.

    `objective` maps a 1-D array of B biases to their (B, S) PSNRs. A bias
    scores metrics.aggregate's mean of its S PSNRs, whatever the batch or
    the row order. One call scores the grid, plus zero when [lo, hi] holds
    it off the grid; golden section then scores each probe with the two
    that can follow it. Equal scores go to the smallest |bias|.
    """
    lo, hi = float(lo), float(hi)
    if not 0 <= hi - lo < math.inf:  # also refuses a NaN, or a width that overflows
        raise ValueError(f"bias interval [{lo}, {hi}] must be finite and non-empty")
    if mode not in ("grid", "binary"):
        raise ValueError(f"unknown search mode {mode!r}")
    grid = np.linspace(lo, hi, _GRID_POINTS)
    first = np.append(grid, [0.0] if lo <= 0.0 <= hi and 0.0 not in grid else [])
    first_psnr = objective(first)
    mean = aggregate(first_psnr.T)[0]
    scores = dict(zip(first.tolist(), mean.tolist()))
    if mode == "grid":
        k = int(np.argmax(mean[:_GRID_POINTS]))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)]
    if hi > lo:  # on [lo, lo] golden section would only re-probe the grid
        scores.update(golden_section_max(
            lambda b: aggregate(objective(b).T)[0],
            float(lo), float(hi), tol=_BIAS_TOL)[1])
    best = max(scores, key=lambda b: (scores[b], -abs(b)))
    return BiasSearchResult(bias=best, psnr=scores[best],
                            evaluations=sorted(scores.items()), grid=grid,
                            grid_psnr=first_psnr[:_GRID_POINTS])


def refine_bias(denoiser, schedule: NoiseSchedule, reference: Trajectory,
                plan: AccelerationPlan,
                interval: tuple[float, float] = BIAS_INTERVAL_DEFAULT,
                mode: str = "grid") -> BiasSearchResult:
    """Pick the wg bias maximizing mean PSNR against the batched full runs
    `reference` (states (S, n + 1, d)); the refine mode's search.

    Both modes score the grid; then "grid" refines around its best point
    by golden section and "binary" runs golden section on the whole
    interval. Zero is always a candidate when the interval contains it, so
    the refined bias never scores below the unbiased plan.
    """
    return _search_bias(_bias_objective(denoiser, schedule, reference, plan),
                        interval[0], interval[1], mode=mode)
