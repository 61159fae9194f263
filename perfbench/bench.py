"""Measurement of one workload: warm untraced runs, or a traced split.

Every run of a workload made here is checked (see
``workloads.check_outputs``); a run that raises or fails the check counts
toward ``failed`` and its time is not used.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ltc_accel import harness
from micro import micro_points, small_trace
from tracing import Tracer
from workloads import (
    TRACE_DIM,
    Workload,
    check_outputs,
    config,
    quality,
    read_manifest,
    read_report,
    record_trace,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10
WARM_UP_S = 1.5
# Nominal duration of reference_kernel(); run times are reported in seconds
# at the host speed where the kernel takes this long.
REFERENCE_S = 0.003

# Boundaries each workload must cross; a traced run that records zero calls
# at one of them means the tracer missed a layer, and fails the run.
_EXPECTED = ("schedule.build_linear_beta", "model.epsilon_hat",
             "sampler.ddim_step", "sampler.sample_full", "ltc.calibrate_wg",
             "ltc.accelerated_sample", "metrics.write_csv", "metrics.psnr",
             "metrics.aggregate", "harness.run", "harness.build_denoiser")
_EXPECTED_BY_MODE = {
    "report": ("harness.benchmark_gmm", "ltc.angle_trace"),
    "refine": ("harness.benchmark_gmm", "ltc.golden_section_max"),
    "sample": ("model.read_trace",),
}


@dataclass
class Outcomes:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> bool:
        """Count one attempted run; it failed if there are problems."""
        self.attempted += 1
        self.flag(label, problems)
        return not problems

    def flag(self, label: str, problems: list) -> None:
        """Fail one already counted run that passed its output check."""
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


class Runner:
    """One workload seed's inputs and its checked runs."""

    def __init__(self, workload: Workload, seed: int, work_dir: str,
                 outcomes: Outcomes, jobs: int | None = None):
        self.workload = workload
        self.outcomes = outcomes
        self.manifest = ""
        self.trace_bytes = 0
        if workload.name == "trace-wide":
            os.makedirs(os.path.join(work_dir, "input"), exist_ok=True)
            self.manifest = os.path.join(work_dir, "input", "eps.trace")
            self.trace_bytes = record_trace(self.manifest, seed)
        cfg = config(workload, seed, os.path.join(work_dir, "run"), self.manifest)
        self.cfg = cfg if jobs is None else replace(cfg, jobs=jobs)
        self.zero_bias_psnr = None
        if workload.mode == "refine":
            zero = replace(self.cfg, bias=0.0,
                           out=os.path.join(work_dir, "zero-bias"))
            harness.run(zero, "sample")
            self.zero_bias_psnr = quality(read_report(zero.out))["psnr_db"]
        self.reference_manifest = None

    def check(self, out_dir: str, label: str) -> bool:
        if self.reference_manifest is None:
            try:
                self.reference_manifest = read_manifest(out_dir)
            except OSError as e:
                return self.outcomes.record(label, [f"no manifest: {e}"])
        return self.outcomes.record(label, check_outputs(
            self.workload, out_dir, self.reference_manifest,
            self.zero_bias_psnr))

    def warm_up(self) -> None:
        """Checked runs for at least WARM_UP_S, so that caches and the
        processor settle before timing starts."""
        deadline = time.perf_counter() + WARM_UP_S
        while True:
            self.attempt()
            if time.perf_counter() >= deadline:
                break

    def attempt(self, tracer: Tracer | None = None) -> float | None:
        """Seconds of one checked run() call, None if it failed."""
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                # Looked up at call time so a tracer's wrapper is used.
                harness.run(self.cfg, self.workload.mode)
            except Exception as e:  # counted as a failed run, never dropped
                elapsed = None
                self.outcomes.record("run", [f"{type(e).__name__}: {e}"])
            else:
                elapsed = time.perf_counter() - start
        if elapsed is None or not self.check(self.cfg.out, "run"):
            return None
        return elapsed


def reference_kernel() -> float:
    """Seconds of a fixed loop of small array operations, independent of
    ltc_accel. Timed between runs, it tracks the host's momentary speed."""
    a = np.ones(16)
    start = time.perf_counter()
    for _ in range(600):
        a = np.sqrt(a * 1.0000001 + 0.5) + float(np.dot(a, a)) * 1e-9
    return time.perf_counter() - start


class SpeedProbe:
    """Normalises run times by the reference kernel timed around each run.

    The host's speed can shift by up to 2x for seconds at a time. On such
    a host the median wall time of a 30 s measurement moved by 17-32%
    between runs, and the ratio to the reference kernel by 2-9%.
    """

    def __init__(self):
        self.last = reference_kernel()
        self.kernel_s: list[float] = [self.last]

    def normalise(self, elapsed: float | None) -> float | None:
        """Call right after each run: elapsed * REFERENCE_S over the mean
        kernel time just before and just after the run."""
        before, self.last = self.last, reference_kernel()
        self.kernel_s.append(self.last)
        if elapsed is None:
            return None
        return elapsed * REFERENCE_S * 2.0 / (before + self.last)


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it; the minimum when there are too few."""
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing ltc_accel.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ltc_accel.cli"], env=env,
                       cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb(runner: Runner, seed: int, work_dir: str) -> float:
    """Peak RSS of a fresh child process running the workload once."""
    out = os.path.join(work_dir, "rss")
    cmd = [sys.executable, os.path.join(HERE, "rss_child.py"),
           runner.workload.name, str(seed), out]
    if runner.manifest:
        cmd.append(runner.manifest)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        runner.outcomes.record("rss child", [proc.stderr.strip()[-500:]])
        raise RuntimeError("peak RSS child failed")
    runner.check(out, "rss child")
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def environment(workload: Workload, seed: int, runner: Runner) -> dict:
    cfg = runner.cfg
    return {
        "workload": workload.name, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
        "seeds": len(cfg.seeds), "steps": cfg.steps,
        "dim": TRACE_DIM if cfg.kind == "trace" else cfg.dim,
        "trace_bytes": runner.trace_bytes, "jobs": cfg.jobs,
    }


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       work_dir: str) -> tuple[dict, Outcomes, dict]:
    """Untraced warm runs for `seconds`, plus set-up, memory and quality.

    Quality figures come from the preset's seed set (workload seed 0) so
    they compare code, not inputs; every seed's runs are still checked.
    """
    outcomes = Outcomes()
    runner = Runner(workload, seed, os.path.join(work_dir, "seed"), outcomes)
    ref = runner if seed == 0 else Runner(
        workload, 0, os.path.join(work_dir, "seed0"), outcomes)
    if ref is not runner:
        ref.attempt()
    runner.warm_up()
    figures = quality(read_report(ref.cfg.out))

    probe = SpeedProbe()
    wall, samples = [], []
    deadline = time.perf_counter() + seconds
    while True:
        elapsed = runner.attempt()
        normalised = probe.normalise(elapsed)
        if elapsed is not None:
            wall.append(elapsed)
            samples.append(normalised)
        if time.perf_counter() >= deadline:
            break
    if not samples:
        raise RuntimeError("no run passed its output check")
    tail_s, tail_pct = tail(samples)
    metrics = {
        "run_s": statistics.median(samples),
        "run_s_tail": tail_s,
        "setup_s": setup_seconds(),
        "peak_rss_mb": peak_rss_mb(runner, seed, work_dir),
        **figures,
    }
    info = environment(workload, seed, runner)
    info.update(samples=len(samples), samples_s=samples, wall_s=wall,
                wall_run_s=statistics.median(wall), wall_run_s_tail=tail(wall)[0],
                kernel_s=statistics.median(probe.kernel_s),
                tail_percentile=tail_pct,
                failed_frac=outcomes.failed / outcomes.attempted)
    return metrics, outcomes, info


def measure_layers(workload: Workload, seed: int, seconds: float,
                   work_dir: str, names) -> tuple[dict, Outcomes, dict, Tracer]:
    """The per-layer metrics `names`, from alternating untraced and traced
    runs at jobs=1 (spans in pool workers would be lost), plus micro points."""
    outcomes = Outcomes()
    runner = Runner(workload, seed, work_dir, outcomes, jobs=1)
    runner.warm_up()
    tracer = Tracer()
    probe = SpeedProbe()
    untraced, traced = [], {}
    deadline = time.perf_counter() + seconds
    while True:
        elapsed = probe.normalise(runner.attempt())
        if elapsed is not None:
            untraced.append(elapsed)
        tracer.run_id += 1
        elapsed = probe.normalise(runner.attempt(tracer))
        if elapsed is not None:
            traced[tracer.run_id] = elapsed
        if time.perf_counter() >= deadline:
            break
    if not traced or not untraced:
        raise RuntimeError("no traced or untraced run passed its output check")

    all_totals = tracer.layer_totals()
    totals = {rid: all_totals[rid] for rid in traced}
    counters = {rid: tracer.run_counters(rid) for rid in traced}
    first = min(traced)
    calls = {name: t["calls"] for name, t in totals[first].items()}
    problems = [f"run {rid} counts differ from run {first}" for rid in traced
                if {n: t["calls"] for n, t in totals[rid].items()} != calls
                or counters[rid] != counters[first]]
    expected = _EXPECTED + _EXPECTED_BY_MODE[workload.mode]
    problems += [f"no calls recorded at {n}" for n in expected if not calls.get(n)]
    outcomes.flag("traced run", problems)

    def self_s(name: str) -> float:
        return statistics.median(t.get(name, {"self_s": 0.0})["self_s"]
                                 for t in totals.values())

    ctr = counters[first]
    approximated = ctr.get("ltc.accelerated_sample.approximated", 0)
    fallbacks = ctr.get("ltc.accelerated_sample.fallbacks", 0)
    cfg = runner.cfg
    if cfg.kind == "trace":
        dim, manifest = TRACE_DIM, runner.manifest
    else:
        dim, manifest = cfg.dim, os.path.join(work_dir, "micro", "eps.trace")
        os.makedirs(os.path.dirname(manifest), exist_ok=True)
        small_trace(manifest, len(cfg.seeds), dim)
    extra = {
        "trace.overhead_s": (statistics.median(traced.values())
                             - statistics.median(untraced)),
        "ltc.approximated": approximated,
        "ltc.fallbacks": fallbacks,
        "ltc.approx_ratio": (approximated / (approximated + fallbacks)
                             if approximated + fallbacks else 0.0),
        "ltc.golden_section_max.probes": ctr.get("ltc.golden_section_max.probes", 0),
        "metrics.write_csv.bytes": ctr.get("metrics.write_csv.bytes", 0),
        "model.read_trace.bytes_computed": ctr.get("model.read_trace.bytes_computed", 0),
        **micro_points(dim, cfg.steps, manifest),
    }
    metrics = {name: _layer_metric(name, extra, calls, self_s) for name in names}
    info = environment(workload, seed, runner)
    info.update(traced_runs=len(traced), untraced_runs=len(untraced),
                traced_jobs=1, failed_frac=outcomes.failed / outcomes.attempted,
                layers={n: {"calls": calls[n], "self_s": self_s(n)}
                        for n in sorted(calls)})
    return metrics, outcomes, info, tracer


def _layer_metric(name: str, extra: dict, calls: dict, self_s):
    """A per-layer metric: a derived figure, or a span's .calls / .self_s."""
    if name in extra:
        return extra[name]
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return calls.get(span, 0)
    if kind == "self_s":
        return self_s(span)
    raise KeyError(f"no measurement defined for per-layer metric {name!r}")
