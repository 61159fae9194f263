"""Run metrics, seedwise aggregation, and the CSV output contract.

Every emitted CSV has a registered schema (exact header) and is written
from one 1-D column per name, ints with str and floats with repr, so files
are deterministic and round-trip exactly. Each file is written in one pass
over any older file of the same name, read back through the same
descriptor and compared byte for byte; its sha256 is that of those bytes.
"""

from __future__ import annotations

import errno
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

PSNR_CAP = 99.0
_MSE_FLOOR_REL = 1e-12

SCHEMAS = {
    "angle": ("Timestep", "Angle"),
    "error_summary": ("Timestep", "Average Error", "Min Error", "Max Error"),
    "latent_wg_summary": ("Timestep", "Mean", "Min", "Max"),
    "psnr_summary": ("Bias", "Mean PSNR", "Min PSNR", "Max PSNR"),
    "report": ("Seed", "NFE", "Iterations", "Speedup", "PSNR",
               "End Error", "End Error (%)"),
    "ablation": ("Seed", "Accel PSNR", "Skip PSNR", "Accel NFE", "Skip NFE"),
}


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise NumericError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def psnr(reference, test):
    """Peak signal-to-noise ratio in dB, peak taken from the reference.

    Returns the cap for (near-)identical inputs; a constant reference has
    no peak-to-peak range and is rejected. A (d,) input gives a float, an
    (S, d) batch the (S,) per-row values.
    """
    reference, test = _pair(reference, test)
    if not (np.all(np.isfinite(reference)) and np.all(np.isfinite(test))):
        raise NumericError("psnr inputs must be finite")
    peak = np.ptp(reference, axis=-1)
    if np.any(peak == 0.0):
        raise NumericError("psnr undefined for a constant reference")
    mse = np.mean((reference - test) ** 2, axis=-1)
    near = mse <= _MSE_FLOOR_REL * peak * peak
    ratio = np.divide(peak * peak, mse, out=np.full_like(mse, np.inf), where=~near)
    return np.minimum(10.0 * np.log10(ratio), PSNR_CAP)


def end_error(x_full, x_accel):
    """Final-state deviation: (L2 norm, percent of the reference norm), per
    row for an (S, d) batch."""
    x_full, x_accel = _pair(x_full, x_accel)
    ref = np.sqrt(np.vecdot(x_full, x_full))
    if np.any(ref == 0.0):
        raise NumericError("relative end error undefined for a zero reference")
    diff = x_full - x_accel
    err = np.sqrt(np.vecdot(diff, diff))
    return err, 100.0 * err / ref


def nfe_speedup(total_iterations: int, nfe):
    """Iterations per denoiser evaluation, elementwise over an array of nfe."""
    n = np.asarray(nfe)
    if not (np.all(1 <= n) and np.all(n <= total_iterations)):
        raise NumericError(
            f"need 1 <= nfe <= iterations, got nfe={nfe}, iterations={total_iterations}"
        )
    return total_iterations / nfe


def aggregate(series) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise (mean, min, max) across equally long 1-D series.

    Each column is sorted, then summed in order: the mean is exactly
    permutation-invariant, and a column gets the same bits alone as inside
    a wider stack, where numpy's mean would sum it pairwise.
    """
    arrays = [np.asarray(s, dtype=np.float64) for s in series]
    if not arrays:
        raise NumericError("nothing to aggregate")
    length = arrays[0].shape
    if any(a.ndim != 1 or a.shape != length for a in arrays):
        raise NumericError("series must all be 1-D with equal length")
    stack = np.sort(np.vstack(arrays), axis=0)
    return np.add.accumulate(stack, axis=0)[-1] / len(stack), stack[0], stack[-1]


def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _cells(column):
    """A 1-D column's cells as _format_cell writes them. A tuple or list
    goes cell by cell: numpy would make an int beyond int64 a float."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind in "iu" or (kind == "f" and column.itemsize <= 8):
        return map(str if kind in "iu" else repr, column.tolist())
    return map(_format_cell, column)


def _write_verified(path: str, data: bytes) -> bytes:
    """Write data over path in place and return the bytes read back.

    The file is opened without truncation, written, then cut at the end of
    the data: truncating an existing file to zero first makes some file
    systems flush it on close. Reading back through the same descriptor, one
    byte past the data, must give data, else it is an OSError (EIO).
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
        back = os.pread(fd, len(data) + 1, 0)
    finally:
        os.close(fd)
    if back != data:
        raise OSError(errno.EIO,
                      f"verification re-read of {path} differs from the write")
    return back


def write_csv(path: str, schema: str, columns) -> str:
    """Write one 1-D column per name of a registered schema, checked before
    any byte is written; return the sha256 of the verified bytes."""
    header = SCHEMAS[schema]
    if len(columns) != len(header):
        raise NumericError(f"{schema} needs {len(header)} columns, got {len(columns)}")
    if any(isinstance(c, np.ndarray) and c.ndim != 1 for c in columns):
        raise NumericError(f"{schema} columns must be 1-D")
    if len({len(c) for c in columns}) != 1:
        raise NumericError(f"{schema} columns differ in length: {[len(c) for c in columns]}")
    lines = map(",".join, zip(*map(_cells, columns)))
    text = "\r\n".join([",".join(header), *lines]) + "\r\n"
    back = _write_verified(path, text.encode("ascii"))
    return hashlib.sha256(back).hexdigest()


@dataclass
class RunReport:
    """What one harness run chose and wrote."""

    bias: float | None  # the searched bias; None when the run searched none
    files: dict         # emitted name -> sha256
