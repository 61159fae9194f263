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
  overflow. In score, and so in epsilon_hat, a state so far out that
  every log term underflows to -inf (|x| near 1e160) gives all
  responsibility to its nearest component; numpy warns about the
  overflow on the way. The constants of each t are cached, up to
  _CACHE_BYTES per denoiser.
* RecordedTraceDenoiser: replays externally dumped epsilon_hat vectors
  keyed by (seed, t), read from a checksummed manifest + raw float32 file.
  read_trace checksums every byte of a regular payload file in 1 MiB chunks
  on two threads and holds only the rows of the t values asked for.
"""

from __future__ import annotations

import os
import stat
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, TraceError
from .schedule import NoiseSchedule

_MANIFEST_KEYS = ("dim", "steps", "seeds", "data", "endian", "crc32")
_CACHE_BYTES = 1 << 21
_CHUNK = 1 << 20  # bytes a trace read takes at once, rounded down to whole rows


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
        """grad_x log p_t(x), responsibilities via log-sum-exp; a row whose
        log terms all underflow to -inf takes its nearest component's."""
        x = _check_state(x, self.dim)
        _check_t(t, self.schedule.t_train)
        r, v, logt = self._log_terms(x, t)
        resp = np.exp(logt - _logsumexp(logt)[..., None])
        out = np.add.reduce(resp[..., None] * r / v, axis=-2)
        if not np.isfinite(out).all():
            far = np.all(np.atleast_2d(logt) == -np.inf, axis=-1)
            res = r.reshape((-1,) + v.shape)[far]
            # nearest by a residual scaled to stay finite
            scaled = res / np.max(np.abs(res), axis=(1, 2), keepdims=True)
            k = np.argmin(np.sum(scaled ** 2 / v, axis=-1), axis=-1)
            np.atleast_2d(out)[far] = res[np.arange(len(k)), k] / v[k]
            if not np.isfinite(out).all():
                raise NumericError("score produced non-finite values")
        return out

    def epsilon_hat(self, x, t: int) -> np.ndarray:
        score = self.score(x, t)  # checks t before the schedule is indexed
        return -self.schedule.sqrt_one_minus_alpha_bar[t] * score

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
    data_name = os.path.splitext(os.path.basename(manifest_path))[0] + ".f32"
    if data_name == os.path.basename(manifest_path):
        raise TraceError(f"manifest {manifest_path!r} would be its own payload")
    payload = np.ascontiguousarray(arr, dtype="<f4")
    manifest = TraceManifest(
        dim=dim, steps=steps, seeds=seeds, data=data_name,
        crc32=f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}",
    )
    with open(os.path.join(os.path.dirname(manifest_path) or ".", data_name), "wb") as f:
        f.write(payload)
    with open(manifest_path, "w", encoding="ascii") as f:  # endian: always little
        f.writelines(f"{k}={getattr(manifest, k, 'little')}\n" for k in _MANIFEST_KEYS)
    return manifest


def _crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """zlib's crc32_combine: the CRC-32 of a + b from crc32(a), crc32(b)
    and len(b), crc1 * x^(8 len2) + crc2 modulo the CRC-32 polynomial."""
    def mul(a, b):  # bit-reflected polynomials: x^0 is bit 31
        p = 0
        while a:
            if a & 0x80000000:
                p ^= b
            a, b = (a << 1) & 0xFFFFFFFF, (b >> 1) ^ (0xEDB88320 if b & 1 else 0)
        return p
    power = 1 << 31  # x^0, squared per bit of len2 and times x^8 per 1 bit
    for bit in bin(len2)[2:]:
        power = mul(power, power)
        if bit == "1":
            power = mul(1 << 23, power)
    return mul(power, crc1) ^ crc2


def _read_rows(fd: int, seeds: int, steps: int, dim: int, cols):
    """Rows of the (seeds, steps, dim) <f4 payload open as fd at step indices cols (all if
    None) and its CRC-32. Two threads each read a half in chunks of about _CHUNK bytes,
    checksum each chunk in cache and copy out its rows."""
    out = np.empty((seeds, steps if cols is None else len(cols), dim), "<f4")
    flat, row, per = out.reshape(-1, dim), 4 * dim, max(1, _CHUNK // (4 * dim))
    total, mid = seeds * steps, seeds * steps // 2
    if cols is not None:  # payload row of each result row, in payload order
        order = np.argsort(at := (np.arange(seeds)[:, None] * steps + cols).ravel())
        at = at[order]
    crcs = [0, 0]  # of each half, or the exception that ended it

    def half(k, lo, hi):
        buf = None if cols is None else np.empty((min(per, hi - lo), dim), "<f4")
        try:
            for r0 in range(lo, hi, per):
                r1 = min(r0 + per, hi)
                chunk = flat[r0:r1] if cols is None else buf[:r1 - r0]
                try:  # a short read leaves bytes that fail the checksum
                    os.preadv(fd, [chunk], row * r0)
                except OSError as e:
                    raise TraceError(f"cannot read trace payload: {e}") from None
                crcs[k] = zlib.crc32(chunk, crcs[k])
                if cols is not None:
                    a, b = np.searchsorted(at, (r0, r1))
                    flat[order[a:b]] = chunk[at[a:b] - r0]
        except BaseException as e:  # raised again by the calling thread
            crcs[k] = e

    worker = threading.Thread(target=half, args=(1, mid, total))
    worker.start()
    half(0, 0, mid)
    worker.join()
    for crc in crcs:
        if isinstance(crc, BaseException):
            raise crc
    return out, _crc32_combine(*crcs, (total - mid) * row)


def read_trace(manifest_path: str, ts=None) -> tuple[TraceManifest, np.ndarray]:
    """Load a trace, the steps of the t values ts or all; size and crc32 must match exactly."""
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
    cols = None if ts is None else steps - _integers(ts, "t values", 1, steps)
    if cols is not None and (cols.ndim != 1 or len(np.unique(cols)) < len(cols)):
        raise TraceError(f"trace t values must be distinct, got {ts!r}")
    data_path = os.path.join(os.path.dirname(manifest_path) or ".", fields["data"])
    expected = seeds * steps * dim * 4
    try:  # non-blocking: a FIFO with no writer opens at once, to be refused below
        fd = os.open(data_path, os.O_RDONLY | os.O_NONBLOCK)
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the name
        raise TraceError(f"cannot read trace payload: {e}") from None
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise TraceError(f"trace payload {data_path} is not a regular file")
        if info.st_size != expected:
            raise TraceError(f"trace payload is {info.st_size} bytes, manifest implies {expected}")
        arr, crc = _read_rows(fd, seeds, steps, dim, cols)
    finally:
        os.close(fd)
    if f"{crc:08x}" != fields["crc32"]:
        raise TraceError(f"checksum mismatch: payload {crc:08x}, manifest {fields['crc32']}")
    manifest = TraceManifest(dim=dim, steps=steps, seeds=seeds,
                             data=fields["data"], crc32=fields["crc32"])
    return manifest, arr


def _integers(values, what: str, lo: int, hi: int) -> np.ndarray:
    """values as an int64 array in lo..hi; a float or a bool is refused."""
    given = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if given.dtype.kind not in "iu" and not all(  # as given: [0, True] is int64
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in given.flat):
        raise TraceError(f"trace {what} must be integers, got {values!r}")
    out = np.atleast_1d(np.asarray(values))
    if np.any((out < lo) | (out > hi)):
        raise TraceError(f"trace holds {what} {lo}..{hi}, got {values}")
    return out.astype(np.int64)


class RecordedTraceDenoiser:
    """Replays stored epsilon_hat vectors of one trace seed, or of a sequence
    of seeds (one per batch row); the state is ignored beyond checks. Column
    j of data holds t = ts[j], or t = steps - j if ts is None."""

    def __init__(self, data: np.ndarray, seed, ts=None):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise TraceError(f"trace data must have shape (seeds, steps, dim), got {arr.shape}")
        ts = None if ts is None else _integers(ts, "t values", 1, np.iinfo(np.int64).max)
        if ts is not None and (ts.shape != arr.shape[1:2] or len(np.unique(ts)) < len(ts)):
            raise TraceError(f"need {arr.shape[1]} distinct t values, got {ts.tolist()}")
        self._data = arr
        self._rows = _integers(seed, "seeds", 0, arr.shape[0] - 1)
        self._ts = ts
        self._held = f"1 <= t <= {arr.shape[1]}" if ts is None else f"t in {ts.tolist()}"
        self._col = dict(zip(range(arr.shape[1], 0, -1) if ts is None else ts.tolist(),
                             range(arr.shape[1])))
        self.dim = arr.shape[2]

    def take(self, rows) -> "RecordedTraceDenoiser":
        """The denoiser for the batch rows `rows` of this one."""
        return RecordedTraceDenoiser(self._data, self._rows[rows], self._ts)

    def epsilon_hat(self, x, t: int) -> np.ndarray:
        x = _check_state(x, self.dim)
        if x.shape[:-1] != self._rows.shape and not (x.ndim == 1 and len(self._rows) == 1):
            raise ValueError(
                f"{len(self._rows)} seed rows cannot serve a state of shape {x.shape}")
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise IndexError(f"epsilon_hat is defined for integer t, got {t!r}")
        if t not in self._col:
            raise TraceError(f"trace covers {self._held}, got t={t}")
        return self._data[self._rows, self._col[t]].astype(np.float64).reshape(x.shape)
