"""Variance-preserving noise schedules and the step-size ratio gamma.

A schedule is a precomputed table alpha_bar[0..T] with alpha_bar[0] = 1
(the clean endpoint) and strictly decreasing entries. Every derived
quantity (SNR and its square root) is computed once at construction and
served by lookup, so repeated queries cannot drift numerically.

The progress coordinate phi orders timesteps by how far denoising has
come: phi(t) = sqrt(SNR_t) by default, or SNR_t itself as a variant.
phi is strictly decreasing in t and undefined at t = 0, where the SNR
diverges. The ratio

    gamma = (phi(t) - phi(t+1)) / (phi(t+1) - phi(t+2))

rescales a transition taken between two earlier steps to the step about
to be taken; it is 1 exactly when phi is affine on the three points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, NumericError


class PhiMode(str, Enum):
    """Which monotone progress coordinate gamma is computed from."""

    SQRT_SNR = "sqrt_snr"
    SNR = "snr"


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable discrete schedule: alpha_bar[t] for t = 0..t_train."""

    t_train: int
    alpha_bar: np.ndarray
    snr: np.ndarray = field(init=False, repr=False)
    sqrt_snr: np.ndarray = field(init=False, repr=False)
    sqrt_alpha_bar: np.ndarray = field(init=False, repr=False)
    sqrt_one_minus_alpha_bar: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ab = np.array(self.alpha_bar, dtype=np.float64, copy=True)
        if ab.ndim != 1:
            raise ConfigError("alpha_bar must be one-dimensional")
        if self.t_train < 1 or ab.shape[0] != self.t_train + 1:
            raise ConfigError(
                f"alpha_bar must have t_train + 1 = {self.t_train + 1} entries, "
                f"got {ab.shape[0]}"
            )
        if not np.all(np.isfinite(ab)):
            raise ConfigError("alpha_bar contains non-finite entries")
        if ab[0] != 1.0:
            raise ConfigError("alpha_bar[0] must be exactly 1 (clean endpoint)")
        if ab[-1] <= 0.0:
            raise ConfigError("alpha_bar must stay strictly positive")
        if not np.all(np.diff(ab) < 0.0):
            raise ConfigError("alpha_bar must be strictly decreasing in t")

        # SNR diverges at t = 0; the slot is filled with inf and guarded by phi().
        snr = np.empty_like(ab)
        snr[0] = np.inf
        snr[1:] = ab[1:] / (1.0 - ab[1:])
        for name, arr in (
            ("alpha_bar", ab),
            ("snr", snr),
            ("sqrt_snr", np.sqrt(snr)),
            ("sqrt_alpha_bar", np.sqrt(ab)),
            ("sqrt_one_minus_alpha_bar", np.sqrt(1.0 - ab)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_alpha_bar(cls, alpha_bar) -> "NoiseSchedule":
        """Wrap an explicit alpha_bar table (index 0..T, alpha_bar[0] = 1)."""
        ab = np.asarray(alpha_bar, dtype=np.float64)
        return cls(t_train=ab.shape[0] - 1, alpha_bar=ab)


def build_linear_beta(t_train: int, beta_start: float = 1e-4,
                      beta_end: float = 0.02) -> NoiseSchedule:
    """Schedule from a linear beta ramp: beta_s from beta_start to beta_end.

    alpha_bar_t = prod_{s<=t} (1 - beta_s) with beta_s evaluated on an
    evenly spaced grid of t_train points.
    """
    if t_train < 2:
        raise ConfigError("t_train must be at least 2")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"betas must satisfy 0 < beta_start <= beta_end < 1, "
            f"got ({beta_start}, {beta_end})"
        )
    betas = np.linspace(beta_start, beta_end, t_train)
    alpha_bar = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
    return NoiseSchedule(t_train=t_train, alpha_bar=alpha_bar)


def phi(schedule: NoiseSchedule, t, mode: PhiMode = PhiMode.SQRT_SNR):
    """Progress coordinate at t, a float, or an array for an integer array t. Undefined at t = 0."""
    ts = np.asarray(t)
    if ts.dtype.kind not in "iu" or not ((1 <= ts) & (ts <= schedule.t_train)).all():
        raise IndexError(
            f"phi is defined for integer 1 <= t <= {schedule.t_train}, got t={t}"
        )
    mode = PhiMode(mode)
    table = schedule.sqrt_snr if mode is PhiMode.SQRT_SNR else schedule.snr
    return table[ts] if ts.ndim else float(table[t])


def gamma(phi_t, phi_t1, phi_t2):
    """Step-size ratio (phi_t - phi_t1) / (phi_t1 - phi_t2), elementwise.

    phi_t belongs to the step being taken (smallest timestep, largest phi),
    phi_t1 and phi_t2 to the two preceding grid points.
    """
    den = np.subtract(phi_t1, phi_t2)
    if not (den > 0.0).all():
        raise NumericError(
            f"phi must strictly decrease in t: phi_t1={phi_t1}, phi_t2={phi_t2}"
        )
    num = np.subtract(phi_t, phi_t1)
    if not (num > 0.0).all():
        raise NumericError(
            f"phi must strictly decrease in t: phi_t={phi_t}, phi_t1={phi_t1}"
        )
    with np.errstate(over="ignore"):  # an overflow is refused just below
        out = num / den
    if not np.isfinite(out).all():
        raise NumericError(f"gamma overflowed: {num} / {den}")
    return out
