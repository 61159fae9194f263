"""Micro points: single layer calls timed from outside through public calls.

Each point runs at the size of the workload it is reported under, so a
layer change shows below the run-to-run noise of ``run_s``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ltc_accel import (
    angle_trace,
    benchmark_gmm,
    build_linear_beta,
    ddim_step,
    make_timesteps,
    read_trace,
    sample_full,
    write_trace,
)
from workloads import sync_trace

BATCHES = 5


def _seconds_per_call(fn, calls: int) -> float:
    """Median over BATCHES batches of the mean time of one call."""
    per_call = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - start) / calls)
    return statistics.median(per_call)


def micro_points(dim: int, steps: int, trace_manifest: str) -> dict:
    """us per call of epsilon_hat, ddim_step and angle_trace at (dim, steps),
    and us per MB of one read_trace of the given trace."""
    schedule = build_linear_beta(1000)
    ts = make_timesteps(1000, steps)
    den = benchmark_gmm(schedule, dim)
    traj = sample_full(den, schedule, np.random.default_rng(0).standard_normal(dim), ts)
    pairs = [(traj.states[i], int(ts[i])) for i in range(steps)]
    eps = [den.epsilon_hat(x, t) for x, t in pairs]
    steps_args = [(x, e, int(ts[i]), int(ts[i + 1]))
                  for i, ((x, _), e) in enumerate(zip(pairs, eps))]

    def eps_pass():
        for x, t in pairs:
            den.epsilon_hat(x, t)

    def ddim_pass():
        for x, e, t, t_prev in steps_args:
            ddim_step(x, e, schedule, t, t_prev)

    reps = max(1, 2000 // steps)
    mb = read_trace(trace_manifest)[1].nbytes / 1e6
    return {
        "model.epsilon_hat.us_per_call":
            1e6 * _seconds_per_call(eps_pass, reps) / steps,
        "sampler.ddim_step.us_per_call":
            1e6 * _seconds_per_call(ddim_pass, reps) / steps,
        "ltc.angle_trace.us_per_call":
            1e6 * _seconds_per_call(lambda: angle_trace(traj), reps),
        "model.read_trace.us_per_mb":
            1e6 * _seconds_per_call(lambda: read_trace(trace_manifest), 1) / mb,
    }


def small_trace(manifest_path: str, seeds: int, dim: int) -> None:
    """A recorded trace of a GMM workload's shape (seeds, 1000, dim)."""
    data = np.random.default_rng(seeds).standard_normal((seeds, 1000, dim))
    write_trace(manifest_path, data.astype(np.float32))
    sync_trace(manifest_path)
