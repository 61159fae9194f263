"""Deterministic DDIM sampling over a descending timestep grid.

A trajectory holds the full state history: n iterations over a grid of
n + 1 timesteps running from high noise (t = T) down to t = 0. Iteration
i (1-based, counted from the noisy end) consumes the state at
timesteps[i-1] and produces the state at timesteps[i]. One denoiser
evaluation per real iteration; nfe counts exactly those.

A run of S seeds at once is one (S, d) batch: every entry point takes an
(S, d) x_init as well as a (d,) one, and each row of a batched run equals
the (d,) run from that row bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .schedule import NoiseSchedule

log = logging.getLogger(__name__)


@dataclass
class Trajectory:
    """States for one run, ordered from t = T down to t = 0. A batched run
    holds (S, n + 1, d) states, (S,) nfe and (row, iteration) pairs."""

    timesteps: np.ndarray                    # (n + 1,) descending ints
    states: np.ndarray                       # (n + 1, d), or (S, n + 1, d)
    nfe: int = 0
    approximated: tuple = ()                 # approximated iterations; (row, iteration) in a batch
    fallbacks: tuple = ()                    # selected iterations that took real steps, likewise

    @property
    def iterations(self) -> int:
        return len(self.timesteps) - 1

    @property
    def final(self) -> np.ndarray:
        return self.states[..., -1, :]

    def row(self, j: int) -> "Trajectory":
        """Row j of a batched run as a run of its own."""
        return Trajectory(self.timesteps, self.states[j], int(self.nfe[j]),
                          tuple(i for r, i in self.approximated if r == j),
                          tuple(i for r, i in self.fallbacks if r == j))


def make_timesteps(t_train: int, n_steps: int) -> np.ndarray:
    """Evenly spaced descending grid from t_train to 0 with n_steps + 1 points."""
    if n_steps < 1:
        raise ConfigError("need at least one sampling step")
    ts = np.rint(np.linspace(t_train, 0, n_steps + 1)).astype(np.int64)
    if not np.all(np.diff(ts) < 0):
        raise ConfigError(
            f"{n_steps} steps cannot be placed distinctly on 0..{t_train}"
        )
    return ts


def check_timesteps(timesteps, t_train: int) -> np.ndarray:
    ts = np.asarray(timesteps, dtype=np.int64)
    if ts.ndim != 1 or ts.shape[0] < 2:
        raise ConfigError("timesteps must be a sequence of at least 2 indices")
    if not np.all(np.diff(ts) < 0):
        raise ConfigError("timesteps must be strictly descending")
    if ts[0] > t_train or ts[-1] < 0:
        raise ConfigError(
            f"timesteps must lie within [0, {t_train}], got [{ts[-1]}, {ts[0]}]"
        )
    return ts


def ddim_step(x, eps, schedule: NoiseSchedule, t: int, t_prev: int) -> np.ndarray:
    """One deterministic update from timestep t to t_prev < t.

    Reconstructs x0_hat from the noise prediction, then re-corrupts it to
    the t_prev noise level along the same predicted direction.
    """
    if t_prev >= t:
        raise ConfigError(f"t_prev must be below t, got t={t}, t_prev={t_prev}")
    if not 1 <= t <= schedule.t_train or t_prev < 0:
        raise IndexError(f"step {t} -> {t_prev} outside schedule 0..{schedule.t_train}")
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x.shape != eps.shape or x.ndim not in (1, 2):
        raise ValueError(f"state/noise shape mismatch: {x.shape} vs {eps.shape}")
    s = schedule
    # x0 = (x - s.sqrt_one_minus_alpha_bar[t] * eps) / s.sqrt_alpha_bar[t], then
    # s.sqrt_alpha_bar[t_prev] * x0 + s.sqrt_one_minus_alpha_bar[t_prev] * eps
    out = np.multiply(s.sqrt_one_minus_alpha_bar[t], eps)
    np.subtract(x, out, out=out)
    np.divide(out, s.sqrt_alpha_bar[t], out=out)
    np.multiply(s.sqrt_alpha_bar[t_prev], out, out=out)
    out += s.sqrt_one_minus_alpha_bar[t_prev] * eps
    if not np.isfinite(out).all():
        raise NumericError(f"ddim_step produced non-finite state at t={t}")
    return out


def initial_noise(dim: int, seed: int) -> np.ndarray:
    """Standard normal starting state from a recorded 64-bit seed."""
    return np.random.default_rng(seed).standard_normal(dim)


def _chain(denoiser, schedule: NoiseSchedule, x_init, ts: np.ndarray,
           selected=(), reuse=None, prefix=None) -> Trajectory:
    """The one sampling loop behind full, accelerated and calibration runs.

    `ts` is an already checked grid; x_init is a (d,) state or an (S, d)
    batch, carried as (S, d) into one (S, n + 1, d) buffer. At a selected
    iteration, each row calls `reuse(i, x, d_prev, rows)` (for its states,
    previous displacements and row indices, or slice(None) when all rows
    move) for the next state instead of taking a real step, unless its
    previous displacement d_prev is exactly zero: then that row falls back
    to a real step (logged, listed in `fallbacks`, counted in nfe). Only
    rows taking a real step reach the denoiser.

    `prefix` resumes a run: states 0..k-1 of a run from x_init that took
    only real steps (no selected iteration below k). The loop starts at
    iteration k; the prefix's steps count in nfe.
    """
    x0 = np.asarray(x_init, dtype=np.float64)
    if x0.ndim not in (1, 2) or not np.all(np.isfinite(x0)):
        raise NumericError("x_init must be a finite vector or (S, d) batch")
    S, n = len(np.atleast_2d(x0)), len(ts) - 1
    prefix = x0[..., None, :] if prefix is None else prefix
    k = prefix.shape[-2]
    states = np.empty((S, n + 1, x0.shape[-1]))
    states[:, :k] = prefix.reshape(S, k, -1)
    nfe = np.full(S, n)
    approximated = []
    fallbacks = []
    for i in range(k, n + 1):
        x = states[:, i - 1]
        real = slice(None)
        if i in selected:
            d_prev = x - states[:, i - 2]
            moving = np.vecdot(d_prev, d_prev) != 0.0  # exact: terms >= 0
            rows = moving.nonzero()[0]
            sel = slice(None) if len(rows) == S else rows  # a slice indexes faster
            if len(rows):
                states[sel, i] = reuse(i, x[sel], d_prev[sel], sel)
                nfe[sel] -= 1
                approximated += zip(rows.tolist(), [i] * len(rows))
            if len(rows) == S:
                continue
            real = (~moving).nonzero()[0]
            log.warning("iteration %d: zero previous displacement, real step "
                        "taken (rows %s)", i, real.tolist())
            fallbacks += zip(real.tolist(), [i] * len(real))
        t, t_prev = int(ts[i - 1]), int(ts[i])
        den = denoiser if isinstance(real, slice) else denoiser.take(real)
        states[real, i] = ddim_step(x[real], den.epsilon_hat(x[real], t),
                                    schedule, t, t_prev)
    traj = Trajectory(timesteps=ts, states=states, nfe=nfe,
                      approximated=tuple(approximated),
                      fallbacks=tuple(fallbacks))
    return traj if x0.ndim == 2 else traj.row(0)


def sample_full(denoiser, schedule: NoiseSchedule, x_init, timesteps) -> Trajectory:
    """Run every iteration through the denoiser."""
    ts = check_timesteps(timesteps, schedule.t_train)
    return _chain(denoiser, schedule, x_init, ts)


def sample_skipping(denoiser, schedule: NoiseSchedule, x_init, timesteps,
                    skipped) -> Trajectory:
    """Baseline that simply drops grid positions instead of approximating.

    `skipped` holds interior positions into `timesteps` (the endpoints at
    t = T and t = 0 stay). The run is sample_full on the surviving grid,
    so an empty set reproduces sample_full bit for bit.
    """
    ts = check_timesteps(timesteps, schedule.t_train)
    n = len(ts) - 1
    positions = set(skipped)
    for p in positions:
        if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or not 1 <= p <= n - 1:
            raise ValueError(
                f"only interior grid positions 1..{n - 1} can be skipped, got {p!r}"
            )
    keep = [j for j in range(n + 1) if j not in positions]
    return sample_full(denoiser, schedule, x_init, ts[keep])
