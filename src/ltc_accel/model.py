"""Denoisers with closed-form noise predictions, plus recorded traces.

Every denoiser exposes epsilon_hat(x, t): the predicted noise for state x
at timestep t under a shared noise schedule. x is one (d,) state or an
(S, d) batch of rows; the result has the same shape, and each row equals
the (d,) call on that row bit for bit. take(rows) gives the denoiser for a
subset of a batch's rows. Three families:

* PointMassDenoiser: the data distribution is a single point mu, so the
  posterior mean is mu at every (x, t) and epsilon_hat inverts the
  forward corruption exactly.
* DiagGmmDenoiser: the data distribution is a mixture of axis-aligned
  Gaussians. The corrupted marginal at t is again a diagonal mixture with
  means sqrt(alpha_bar_t) * mu_k and variances
  alpha_bar_t * sigma_k^2 + (1 - alpha_bar_t), and
  epsilon_hat = -sqrt(1 - alpha_bar_t) * grad log p_t(x). Component
  responsibilities go through log-sum-exp so far-field states cannot
  overflow. In epsilon_hat, a state so far out that every log term
  underflows to -inf (|x| near 1e160) gives all responsibility to its
  nearest component; numpy warns about the overflow on the way. The
  constants of each t are cached, up to _CACHE_BYTES per denoiser.
* RecordedTraceDenoiser: replays externally dumped epsilon_hat vectors
  keyed by (seed, t), read from a checksummed manifest + raw float32 file.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, TraceError
from .schedule import NoiseSchedule

_MANIFEST_KEYS = ("dim", "steps", "seeds", "data", "endian", "crc32")
_CACHE_BYTES = 1 << 21


def _check_state(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(f"state must be (d,) or (S, d) with d = {dim}, got {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError("state contains non-finite entries")
    return x


def _check_t(t: int, t_train: int):
    if isinstance(t, bool) or not (isinstance(t, (int, np.integer)) and 1 <= t <= t_train):
        raise IndexError(f"epsilon_hat is defined for integer t in [1, {t_train}], got {t!r}")


class PointMassDenoiser:
    """All probability mass at a single point mu."""

    def __init__(self, mu, schedule: NoiseSchedule):
        try:
            self.mu = np.array(mu, dtype=np.float64)
        except ValueError as e:  # not numbers, or ragged
            raise ConfigError(f"mu must be a finite vector: {e}") from None
        if self.mu.ndim != 1 or not np.all(np.isfinite(self.mu)):
            raise ConfigError("mu must be a finite vector")
        self.schedule = schedule
        self.dim = self.mu.shape[0]

    def epsilon_hat(self, x, t: int) -> np.ndarray:
        x = _check_state(x, self.dim)
        _check_t(t, self.schedule.t_train)
        s = self.schedule
        return (x - s.sqrt_alpha_bar[t] * self.mu) / s.sqrt_one_minus_alpha_bar[t]

    def take(self, rows) -> "PointMassDenoiser":
        return self


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis; a -inf row stays -inf."""
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    s = m + np.log(np.add.reduce(np.exp(a - m), axis=-1, keepdims=True))
    return np.where(np.isfinite(m), s, m)[..., 0]


class DiagGmmDenoiser:
    """Mixture of diagonal Gaussians with an exact marginal score."""

    def __init__(self, weights, means, variances, schedule: NoiseSchedule):
        try:
            w = np.asarray(weights, dtype=np.float64)
            mu = np.asarray(means, dtype=np.float64)
            var = np.asarray(variances, dtype=np.float64)
        except ValueError as e:  # ragged rows
            raise ConfigError(f"mixture parameters must be arrays: {e}") from None
        if w.ndim != 1 or mu.ndim != 2 or var.shape != mu.shape:
            raise ConfigError("need weights (k,), means (k, d), variances (k, d)")
        if w.shape[0] != mu.shape[0]:
            raise ConfigError("one weight per component required")
        if mu.shape[1] < 1:
            raise ConfigError("mixture dimension must be at least 1")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu))
                and np.all(np.isfinite(var))):
            raise ConfigError("mixture parameters must be finite")
        if np.any(w <= 0.0):
            raise ConfigError("mixture weights must be strictly positive")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ConfigError("mixture weights must sum to 1 within 1e-12")
        if np.any(var < 0.0):
            raise ConfigError("variances must be nonnegative")
        self.weights = w
        self.means = mu
        self.variances = var
        self.schedule = schedule
        self.dim = mu.shape[1]
        self._log_w = np.log(w)
        self._per_t = {}  # t -> (m, v, log(2 pi v)), 24 * mu.size bytes each

    def _constants(self, t: int):
        # Forward corruption keeps the mixture diagonal: component k becomes
        # N(sqrt(ab) * mu_k, ab * var_k + (1 - ab)).
        if t not in self._per_t:
            if (len(self._per_t) + 1) * 24 * self.means.size > _CACHE_BYTES:
                self._per_t.clear()
            ab = self.schedule.alpha_bar[t]
            v = ab * self.variances + (1.0 - ab)
            self._per_t[t] = (self.schedule.sqrt_alpha_bar[t] * self.means, v,
                              np.log(2.0 * np.pi * v))
        return self._per_t[t]

    def _log_terms(self, x: np.ndarray, t: int):
        """(m - x, v, log terms) at t: residuals to the marginal means, the
        variances, and per component log weight plus log density of x."""
        m, v, log_2pi_v = self._constants(t)
        r = m - x[..., None, :]  # squared, the same bits as x - m
        return r, v, self._log_w - 0.5 * np.add.reduce(log_2pi_v + r ** 2 / v, axis=-1)

    def log_density(self, x, t: int):
        """log p_t(x) of the corrupted marginal, one value per row."""
        x = _check_state(x, self.dim)
        _check_t(t, self.schedule.t_train)
        out = _logsumexp(self._log_terms(x, t)[2])
        return float(out) if x.ndim == 1 else out

    def score(self, x, t: int) -> np.ndarray:
        """grad_x log p_t(x), responsibilities via log-sum-exp."""
        x = _check_state(x, self.dim)
        _check_t(t, self.schedule.t_train)
        r, v, logt = self._log_terms(x, t)
        resp = np.exp(logt - _logsumexp(logt)[..., None])
        return np.add.reduce(resp[..., None] * r / v, axis=-2)

    def epsilon_hat(self, x, t: int) -> np.ndarray:
        score = self.score(x, t)  # checks t before the schedule is indexed
        out = -self.schedule.sqrt_one_minus_alpha_bar[t] * score
        if not np.isfinite(out).all():
            out = self._far_field(np.asarray(x, dtype=np.float64), t, out)
            if not np.isfinite(out).all():
                raise NumericError("epsilon_hat produced non-finite values")
        return out

    def _far_field(self, x: np.ndarray, t: int, out: np.ndarray) -> np.ndarray:
        """out with the rows whose log terms are all -inf recomputed from the
        nearest component, chosen by a residual scaled to stay finite."""
        m, v = self._constants(t)[:2]
        far = np.all(np.atleast_2d(self._log_terms(x, t)[2]) == -np.inf, axis=-1)
        res = np.atleast_2d(x)[far][:, None, :] - m
        scaled = res / np.max(np.abs(res), axis=(1, 2), keepdims=True)
        k = np.argmin(np.sum(scaled ** 2 / v, axis=-1), axis=-1)
        # the score's own arithmetic with one-hot responsibilities
        np.atleast_2d(out)[far] = (self.schedule.sqrt_one_minus_alpha_bar[t]
                                   * (res[np.arange(len(k)), k] / v[k]))
        return out

    def take(self, rows) -> "DiagGmmDenoiser":
        return self


@dataclass(frozen=True)
class TraceManifest:
    """Sidecar description of a raw float32 trace file."""

    dim: int
    steps: int
    seeds: int
    data: str
    crc32: str


def write_trace(manifest_path: str, data: np.ndarray) -> TraceManifest:
    """Store epsilon_hat dumps of shape (seeds, steps, dim), float32.

    The steps axis runs from t = steps down to t = 1. The payload lands
    next to the manifest as raw little-endian float32, seed-major.
    """
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise TraceError(f"trace data must have shape (seeds, steps, dim), got {arr.shape}")
    seeds, steps, dim = arr.shape
    if steps < 1 or dim < 1:
        raise TraceError("steps and dim must be at least 1")
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    data_name = os.path.splitext(os.path.basename(manifest_path))[0] + ".f32"
    manifest = TraceManifest(
        dim=dim, steps=steps, seeds=seeds, data=data_name,
        crc32=f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}",
    )
    with open(os.path.join(os.path.dirname(manifest_path) or ".", data_name), "wb") as f:
        f.write(payload)
    with open(manifest_path, "w", encoding="ascii") as f:
        f.write(f"dim={manifest.dim}\n")
        f.write(f"steps={manifest.steps}\n")
        f.write(f"seeds={manifest.seeds}\n")
        f.write(f"data={manifest.data}\n")
        f.write("endian=little\n")
        f.write(f"crc32={manifest.crc32}\n")
    return manifest


def read_trace(manifest_path: str) -> tuple[TraceManifest, np.ndarray]:
    """Load a trace; length and crc32 must match the manifest exactly."""
    fields = {}
    try:
        with open(manifest_path, "r", encoding="ascii") as f:
            lines = list(f)
    except UnicodeDecodeError as e:
        raise TraceError(f"manifest is not ASCII: {e}") from None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise TraceError(f"malformed manifest line: {line!r}")
        key, _, value = line.partition("=")
        if key not in _MANIFEST_KEYS:
            raise TraceError(f"unknown manifest field: {key!r}")
        if key in fields:
            raise TraceError(f"duplicate manifest field: {key!r}")
        fields[key] = value
    missing = [k for k in _MANIFEST_KEYS if k not in fields]
    if missing:
        raise TraceError(f"manifest missing fields: {missing}")
    if fields["endian"] != "little":
        raise TraceError(f"unsupported endianness: {fields['endian']!r}")
    try:
        dim = int(fields["dim"])
        steps = int(fields["steps"])
        seeds = int(fields["seeds"])
    except ValueError as e:
        raise TraceError(f"non-integer manifest field: {e}") from None
    if dim < 1 or steps < 1 or seeds < 0:
        raise TraceError("dim and steps must be >= 1, seeds >= 0")
    data_path = os.path.join(os.path.dirname(manifest_path) or ".", fields["data"])
    expected = seeds * steps * dim * 4
    try:
        with open(data_path, "rb") as f:
            size = os.fstat(f.fileno()).st_size  # 0 for a pipe or a device
            if size == expected or size == 0 and f.peek(1):  # else not read
                payload = f.read(expected + 1)
                size = len(payload)
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the name
        raise TraceError(f"cannot read trace payload: {e}") from None
    except (OverflowError, MemoryError):  # a device read for more than fits
        raise TraceError(f"cannot hold the {expected} bytes the manifest implies") from None
    if size != expected:
        raise TraceError(f"trace payload is {size} bytes, manifest implies {expected}")
    crc = f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}"
    if crc != fields["crc32"]:
        raise TraceError(f"checksum mismatch: payload {crc}, manifest {fields['crc32']}")
    arr = np.frombuffer(payload, dtype="<f4").reshape(seeds, steps, dim)
    manifest = TraceManifest(dim=dim, steps=steps, seeds=seeds,
                             data=fields["data"], crc32=fields["crc32"])
    return manifest, arr


class RecordedTraceDenoiser:
    """Replays stored epsilon_hat vectors of one trace seed, or of a sequence
    of seeds (one per batch row); the state is ignored beyond checks."""

    def __init__(self, data: np.ndarray, seed):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise TraceError(f"trace data must have shape (seeds, steps, dim), got {arr.shape}")
        rows = np.atleast_1d(np.asarray(seed))  # any int size; cast once in range
        if np.any((rows < 0) | (rows >= arr.shape[0])):
            raise TraceError(f"trace holds seeds 0..{arr.shape[0] - 1}, got {seed}")
        self._data = arr
        self._rows = rows.astype(np.int64)
        self.t_train = arr.shape[1]
        self.dim = arr.shape[2]

    def take(self, rows) -> "RecordedTraceDenoiser":
        """The denoiser for the batch rows `rows` of this one."""
        return RecordedTraceDenoiser(self._data, self._rows[rows])

    def epsilon_hat(self, x, t: int) -> np.ndarray:
        x = _check_state(x, self.dim)
        if x.shape[:-1] != self._rows.shape and not (x.ndim == 1 and len(self._rows) == 1):
            raise ValueError(
                f"{len(self._rows)} seed rows cannot serve a state of shape {x.shape}")
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise IndexError(f"epsilon_hat is defined for integer t, got {t!r}")
        if not 1 <= t <= self.t_train:
            raise TraceError(f"trace covers 1 <= t <= {self.t_train}, got t={t}")
        # steps axis is ordered t = t_train down to 1
        return self._data[self._rows, self.t_train - t].astype(np.float64).reshape(x.shape)
