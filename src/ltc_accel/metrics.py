"""Run metrics, seedwise aggregation, and the CSV output contract.

Every emitted CSV has a registered schema (exact header). Writers format
floats with repr so files are deterministic and round-trip exactly, and
each write is verified by parsing the file straight back.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError

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


def psnr(reference, test) -> float:
    """Peak signal-to-noise ratio in dB, peak taken from the reference.

    Returns the cap for (near-)identical inputs; a constant reference has
    no peak-to-peak range and is rejected.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise MetricError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if not (np.all(np.isfinite(reference)) and np.all(np.isfinite(test))):
        raise MetricError("psnr inputs must be finite")
    peak = float(np.ptp(reference))
    if peak == 0.0:
        raise MetricError("psnr undefined for a constant reference")
    mse = float(np.mean((reference - test) ** 2))
    if mse < _MSE_FLOOR_REL * peak * peak:
        return PSNR_CAP
    return min(10.0 * np.log10(peak * peak / mse), PSNR_CAP)


def end_error(x_full, x_accel) -> tuple[float, float]:
    """Final-state deviation: (L2 norm, percent of the reference norm)."""
    x_full = np.asarray(x_full, dtype=np.float64)
    x_accel = np.asarray(x_accel, dtype=np.float64)
    if x_full.shape != x_accel.shape:
        raise MetricError(f"shape mismatch: {x_full.shape} vs {x_accel.shape}")
    ref = float(np.linalg.norm(x_full))
    if ref == 0.0:
        raise MetricError("relative end error undefined for a zero reference")
    err = float(np.linalg.norm(x_full - x_accel))
    return err, 100.0 * err / ref


def nfe_speedup(total_iterations: int, nfe: int) -> float:
    """Iterations per denoiser evaluation."""
    if not 1 <= nfe <= total_iterations:
        raise MetricError(
            f"need 1 <= nfe <= iterations, got nfe={nfe}, iterations={total_iterations}"
        )
    return total_iterations / nfe


def aggregate(series) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise (mean, min, max) across equally long 1-D series.

    Columns are sorted before summation so the result is exactly
    permutation-invariant in the series order.
    """
    arrays = [np.asarray(s, dtype=np.float64) for s in series]
    if not arrays:
        raise MetricError("nothing to aggregate")
    length = arrays[0].shape
    if any(a.ndim != 1 or a.shape != length for a in arrays):
        raise MetricError("series must all be 1-D with equal length")
    stack = np.sort(np.vstack(arrays), axis=0)
    return stack.mean(axis=0), stack[0], stack[-1]


def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: str, schema: str, rows) -> None:
    """Write rows under a registered schema, then verify by re-reading."""
    header = SCHEMAS[schema]
    rows = [tuple(row) for row in rows]
    for row in rows:
        if len(row) != len(header):
            raise MetricError(
                f"{schema} rows need {len(header)} cells, got {len(row)}"
            )
    with open(path, "w", encoding="ascii", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_format_cell(v) for v in row])
    back_header, back = read_csv(path, schema)
    if back_header != tuple(header) or len(back) != len(rows):
        raise MetricError(f"verification re-read failed for {path}")


def read_csv(path: str, schema: str | None = None):
    """Parse a CSV back; header must match its schema, cells must be numeric."""
    with open(path, "r", encoding="ascii", newline="") as f:
        reader = csv.reader(f)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise MetricError(f"{path} is empty") from None
        if schema is not None and header != SCHEMAS[schema]:
            raise MetricError(
                f"{path} header {header} does not match schema {SCHEMAS[schema]}"
            )
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise MetricError(f"{path} row width {len(row)} != {len(header)}")
            rows.append(tuple(float(c) for c in row))
    return header, rows


@dataclass
class RunReport:
    """Aggregated outcome of one harness run."""

    fingerprint: str
    mode: str
    seeds: tuple
    rows: list = field(default_factory=list)          # per-seed report rows
    bias: float | None = None
    files: dict = field(default_factory=dict)          # emitted name -> sha256
