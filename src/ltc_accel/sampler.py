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
    holds (S, n + 1, d) states, (S,) nfe and (S, n + 1) kinds."""

    timesteps: np.ndarray                    # (n + 1,) descending ints
    states: np.ndarray                       # (n + 1, d), or (S, n + 1, d)
    nfe: int = 0
    kind: np.ndarray = None                  # int8 per state: 0 real, 1 approximated, 2 fallback

    def __post_init__(self) -> None:
        if self.kind is None:
            self.kind = np.zeros(np.shape(self.states)[:-1], np.int8)

    @property
    def iterations(self) -> int:
        return len(self.timesteps) - 1

    @property
    def final(self) -> np.ndarray:
        return self.states[..., -1, :]

    def _pairs(self, k: int) -> tuple:  # iterations of kind k; (row, iteration) in a batch
        found = [a.tolist() for a in np.nonzero(self.kind.T == k)[::-1]]  # iteration-major
        return tuple(zip(*found)) if len(found) == 2 else tuple(found[0])

    approximated = property(lambda self: self._pairs(1))
    fallbacks = property(lambda self: self._pairs(2))  # selected, yet real steps

    def row(self, j: int) -> "Trajectory":
        """Row j of a batched run as a run of its own."""
        return Trajectory(self.timesteps, self.states[j], int(self.nfe[j]),
                          self.kind[j])


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
    ts = np.asarray(timesteps)
    if ts.ndim != 1 or ts.shape[0] < 2:
        raise ConfigError("timesteps must be a sequence of at least 2 indices")
    kind = ts.dtype.kind  # an integral float such as 40.0 counts as its integer
    if kind not in "iuf" or (kind == "f" and np.any(ts != np.trunc(ts))) or (not isinstance(
            timesteps, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in timesteps)):
        raise ConfigError(f"timesteps must be integers, got {timesteps!r}")
    if not np.all(ts[1:] < ts[:-1]):
        raise ConfigError("timesteps must be strictly descending")
    if ts[0] > t_train or ts[-1] < 0:
        raise ConfigError(
            f"timesteps must lie within [0, {t_train}], got [{ts[-1]}, {ts[0]}]"
        )
    return ts.astype(np.int64, copy=False)


def ddim_step(x, eps, schedule: NoiseSchedule, t: int, t_prev: int) -> np.ndarray:
    """One deterministic update from timestep t to t_prev < t.

    Reconstructs x0_hat from the noise prediction, then re-corrupts it to
    the t_prev noise level along the same predicted direction.
    """
    if t_prev >= t:
        raise ConfigError(f"t_prev must be below t, got t={t}, t_prev={t_prev}")
    if isinstance(t, bool) or isinstance(t_prev, bool) or not (isinstance(t, (int, np.integer))
            and isinstance(t_prev, (int, np.integer)) and 0 <= t_prev < t <= schedule.t_train):
        raise IndexError(f"step {t!r} -> {t_prev!r} is not in the integers 0..{schedule.t_train}")
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
           selected=(), reuse=None, prefix=None, shadow=False,
           full_rows=0) -> Trajectory:
    """The one sampling loop behind full, accelerated and calibration runs.

    `ts` is an already checked grid; x_init is a (d,) state or an (S, d)
    batch, carried as (S, d) into one (S, n + 1, d) buffer. Its first
    `full_rows` rows take real steps only; at a selected iteration each
    other (lane) row gets its next state from `reuse(i, x, d_prev, rows,
    x_real)` (lane row indices, or slice(None) for the whole lane) unless
    its d_prev is exactly zero: then it falls back to a real step (logged
    by lane row, kind 2, counted in nfe). Only rows taking a real step
    reach the denoiser; with `shadow` every row takes it in the one call,
    and x_real holds the reused rows' real next states, else None.

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
    kind = np.zeros((S, n + 1), np.int8)
    lane, lane_kind = states[full_rows:], kind[full_rows:]  # the rows that follow the plan
    for i in range(k, n + 1):
        x = states[:, i - 1]
        real = slice(None)
        if i in selected:
            d_prev = lane[:, i - 1] - lane[:, i - 2]
            moving = np.vecdot(d_prev, d_prev) != 0.0  # exact: terms >= 0
            lane_kind[:, i] = moving
            rows = moving.nonzero()[0]
            sel = slice(None) if len(rows) == len(moving) else rows  # a slice indexes faster
            if sel is rows:
                still = (~moving).nonzero()[0]
                log.warning("iteration %d: zero previous displacement, real step "
                            "taken (rows %s)", i, still.tolist())
                lane_kind[still, i] = 2
            if not shadow:
                real = np.flatnonzero(kind[:, i] != 1) if sel is rows else np.arange(full_rows)
        t, t_prev = int(ts[i - 1]), int(ts[i])
        if isinstance(real, slice) or len(real):
            den = denoiser if isinstance(real, slice) else denoiser.take(real)
            states[real, i] = ddim_step(x[real], den.epsilon_hat(x[real], t),
                                        schedule, t, t_prev)
        if i in selected and len(rows):
            lane[sel, i] = reuse(i, lane[sel, i - 1], d_prev[sel], sel,
                                 lane[sel, i] if shadow else None)
    traj = Trajectory(ts, states, n - np.count_nonzero(kind == 1, axis=1), kind)
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
