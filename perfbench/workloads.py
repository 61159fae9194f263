"""The three benchmark workloads: their inputs and their output checks.

Every workload drives ``ltc_accel.harness.run(cfg, mode)``. The workload
seed picks the run's seed set (GMM workloads) or the recorded mixture
(``trace-wide``); seed 0 reproduces the preset's seed set.
"""

from __future__ import annotations

import csv
import hashlib
import os
import statistics
from dataclasses import dataclass, replace

import numpy as np

from ltc_accel import (
    DiagGmmDenoiser,
    build_linear_beta,
    ddim_step,
    initial_noise,
    preset,
    write_trace,
)
from ltc_accel.harness import ExperimentConfig

MAX_END_ERROR_PCT = 10.0
TRACE_DIM = 1024
TRACE_SEEDS = 8
TRACE_T_TRAIN = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    n_seeds: int
    nfe: int          # exact NFE of every accelerated row in report.csv
    jobs: int


WORKLOADS = {
    w.name: w for w in (
        # Why each workload is here: see "why" in BENCHMARK.json.
        Workload("report-gmm16", "report", 20, 26, 1),
        Workload("refine-gmm16", "refine", 10, 27, 1),
        Workload("trace-wide", "sample", TRACE_SEEDS, 60, 2),
    )
}


def trace_mixture(seed: int, schedule) -> DiagGmmDenoiser:
    """d=1024, k=3 mixture drawn from the workload seed."""
    rng = np.random.default_rng([seed, TRACE_DIM])
    means = rng.uniform(-4.5, 4.5, size=(3, TRACE_DIM))
    variances = rng.uniform(0.6, 1.4, size=(3, TRACE_DIM))
    return DiagGmmDenoiser([0.5, 0.3, 0.2], means, variances, schedule)


def record_trace(manifest_path: str, seed: int) -> int:
    """Write the trace-wide input; returns its payload size in bytes.

    Row k holds the noise predictions of a full-resolution DDIM run of the
    seed's mixture from ``initial_noise(TRACE_DIM, k)``, t = t_train .. 1.
    """
    schedule = build_linear_beta(TRACE_T_TRAIN)
    den = trace_mixture(seed, schedule)
    data = np.empty((TRACE_SEEDS, TRACE_T_TRAIN, TRACE_DIM), dtype=np.float32)
    for k in range(TRACE_SEEDS):
        x = initial_noise(TRACE_DIM, k)
        for row, t in enumerate(range(TRACE_T_TRAIN, 0, -1)):
            eps = den.epsilon_hat(x, t)
            data[k, row] = eps
            x = ddim_step(x, eps, schedule, t, t - 1)
    write_trace(manifest_path, data)
    sync_trace(manifest_path)
    return data.nbytes


def sync_trace(manifest_path: str) -> None:
    """Flush a freshly written trace to disk, so that its write-back does not
    land inside a timed run."""
    directory = os.path.dirname(manifest_path)
    for name in os.listdir(directory):
        fd = os.open(os.path.join(directory, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def config(workload: Workload, seed: int, out: str,
           manifest: str = "") -> ExperimentConfig:
    """The workload's resolved config for one workload seed."""
    if workload.name == "trace-wide":
        return ExperimentConfig(
            t_train=TRACE_T_TRAIN, steps=100, kind="trace", manifest=manifest,
            interval=(21, 99), seeds=tuple(range(TRACE_SEEDS)),
            jobs=workload.jobs, out=out)
    base = preset("sd2-ddim-40" if workload.mode == "report" else "fig4-bias")
    n = workload.n_seeds
    return replace(base, seeds=tuple(range(seed * n, seed * n + n)),
                   jobs=workload.jobs, out=out)


def read_report(out_dir: str) -> dict:
    """report.csv as columns of floats keyed by header."""
    with open(os.path.join(out_dir, "report.csv"), newline="",
              encoding="ascii") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError("report.csv has no rows")
    return {k: [float(r[k]) for r in rows] for k in rows[0]}


def quality(report: dict) -> dict:
    """End-to-end quality figures read from report.csv columns."""
    return {
        "psnr_db": statistics.fmean(report["PSNR"]),
        "end_error_pct": statistics.median(report["End Error (%)"]),
        "nfe_speedup": statistics.fmean(report["Speedup"]),
    }


def read_manifest(out_dir: str) -> str:
    with open(os.path.join(out_dir, "manifest.txt"), encoding="ascii") as f:
        return f.read()


def check_outputs(workload: Workload, out_dir: str, reference_manifest: str,
                  zero_bias_psnr: float | None = None) -> list[str]:
    """Problems with one run's outputs; an empty list means it passed.

    The manifest must match the workload's first run byte for byte, every
    file must match its manifest digest, every row must have the exact NFE,
    the median end error must stay within MAX_END_ERROR_PCT, and on refine
    the refined bias must score at least the zero bias.
    """
    problems = []
    try:
        manifest = read_manifest(out_dir)
        report = read_report(out_dir)
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable outputs: {e}"]
    if manifest != reference_manifest:
        problems.append("manifest differs from the workload's first run")
    for line in manifest.splitlines():
        if not line.startswith("file."):
            continue
        name, _, digest = line[len("file."):].partition("=")
        try:
            with open(os.path.join(out_dir, name), "rb") as f:
                actual = hashlib.sha256(f.read()).hexdigest()
        except OSError as e:
            problems.append(f"{name}: {e}")
            continue
        if actual != digest:
            problems.append(f"{name}: digest differs from manifest")
    nfe = set(report["NFE"])
    if nfe != {float(workload.nfe)}:
        problems.append(f"NFE column {sorted(nfe)} != {workload.nfe}")
    q = quality(report)
    if not q["end_error_pct"] <= MAX_END_ERROR_PCT:
        problems.append(f"median end error {q['end_error_pct']}% "
                        f"> {MAX_END_ERROR_PCT}%")
    if zero_bias_psnr is not None and not q["psnr_db"] >= zero_bias_psnr:
        problems.append(f"refined PSNR {q['psnr_db']} below zero-bias "
                        f"PSNR {zero_bias_psnr}")
    return problems
