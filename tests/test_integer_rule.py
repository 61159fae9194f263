"""One integer rule at every input site that takes a count, an index or a step.

Each site gets the same inputs through its public entry point and answers
with its own exception and message, so each keeps its exit code. phi, the
timestep grids, the plan's r and interval, and a trace's t values and seeds
take the same inputs in their modules' own tests. Every site that takes a
sequence serves one that mixes numpy integer types, which numpy itself would
turn into floats.
"""

from dataclasses import replace

import numpy as np
import pytest

from ltc_accel import (AccelerationPlan, ConfigError, DiagGmmDenoiser, NoiseSchedule,
                       RecordedTraceDenoiser, TraceError, benchmark_gmm, build_linear_beta,
                       calibrate_wg, ddim_step, make_timesteps, phi, preset, sample_skipping)

SCHED = build_linear_beta(1000)
X = np.full(4, 0.3)
X3 = np.stack([X, -X, 2 * X])
GMM = DiagGmmDenoiser([1.0], np.ones((1, 4)), np.ones((1, 4)), SCHED)
TRACE = RecordedTraceDenoiser(np.ones((1, 5, 4), np.float32), 0)
TS10 = make_timesteps(1000, 10)

# refused by every site: as given, none is an integer
NOT_INTEGERS = (True, np.True_, 2.0, 1.5, "3", [0, True], [True, 3])


def _seq(v):
    """A site that takes a sequence gets a list as it is and a lone value as its element."""
    return list(v) if isinstance(v, list) else [v]


# id -> (call on one input, exception and message of the site, out-of-range
# inputs with the exception and message they get, what [] gets: None when
# it is served, an integer the site accepts)
SITES = {
    "config-interval": (
        lambda v: replace(preset("sd2-ddim-40"), interval=tuple(v) if isinstance(
            v, list) else (v, 39)),
        ConfigError, r"interval must be None, 'auto' or a tuple of two integers",
        ((), None, None), "same", 13),  # the plan checks the range when it runs
    "config-seeds": (
        lambda v: replace(preset("sd2-ddim-40"), seeds=tuple(_seq(v))),
        ConfigError, "seeds must be non-negative integers",
        ((-1,), None, None), "at least one seed is required", 3),
    "calibrate_wg-rows": (
        lambda v: calibrate_wg(GMM, SCHED, X3, TS10, AccelerationPlan(interval=(3, 9)),
                               rows=_seq(v)),
        ValueError, "rows need an \\(S, d\\) x_init, no full and its row indices",
        ((3, -1, 2**70), None, None), "same", 1),
    "epsilon_hat-t": (
        lambda v: GMM.epsilon_hat(X, v),
        IndexError, r"epsilon_hat is defined for integer t in \[1, 1000\]",
        ((0, 1001, 2**70), None, None), "same", 500),
    "trace-epsilon_hat-t": (
        lambda v: TRACE.epsilon_hat(X, v),
        IndexError, "epsilon_hat is defined for integer t, got",
        ((0, 6, 2**70), TraceError, r"trace covers 1 <= t <= 5"), "same", 3),
    "ddim_step": (
        lambda v: ddim_step(X, X, SCHED, v, 0),
        IndexError, r"-> 0 is not in the integers 0\.\.1000",
        ((1001, 2**70), None, None), "same", 500),
    "sample_skipping": (
        lambda v: sample_skipping(GMM, SCHED, X, TS10, set(_seq(v))),
        ValueError, r"only interior grid positions 1\.\.9 can be skipped",
        ((0, 10, 2**70), None, None), None, 3),
    "make_timesteps-n_steps": (
        lambda v: make_timesteps(1000, v),
        ConfigError, "need at least one sampling step on integer t_train, n_steps >= 1",
        ((0, -1), None, None), "same", 10),
    "make_timesteps-t_train": (
        lambda v: make_timesteps(v, 10),
        ConfigError, "need at least one sampling step on integer t_train, n_steps >= 1",
        ((0, -10), None, None), "same", 1000),
    "build_linear_beta": (
        lambda v: build_linear_beta(v),
        ConfigError, "t_train must be at least 2 and an integer",
        ((1, 0), None, None), "same", 40),
    "NoiseSchedule": (
        lambda v: NoiseSchedule(t_train=v, alpha_bar=[1.0, 0.5]),
        ConfigError, "t_train must be at least 1 and an integer",
        ((0, -1), None, None), "same", 1),
    "benchmark_gmm": (
        lambda v: benchmark_gmm(SCHED, v),
        ConfigError, "benchmark mixture dim must be at least 1 and an integer",
        ((0, -1), None, None), "same", 4),
}


@pytest.mark.parametrize("site", SITES)
def test_every_site_keeps_one_integer_rule(site):
    call, exc, match, (out, out_exc, out_match), empty, good = SITES[site]
    for v in NOT_INTEGERS + ([],) * (empty == "same"):
        with pytest.raises(exc, match=match):
            call(v)
    for v in out:
        with pytest.raises(out_exc or exc, match=out_match or match):
            call(v)
    if empty is None:
        call([])
    elif empty != "same":
        with pytest.raises(exc, match=empty):
            call([])
    for v in (good, np.int32(good), np.uint64(good)):
        call(v)


# np.asarray([np.int32(3), np.uint64(4)]) is float64
MIXED = (np.int32(3), np.uint64(4))
SEQUENCE_SITES = {
    "config-interval": lambda: replace(preset("sd2-ddim-40"), interval=MIXED),
    "config-seeds": lambda: replace(preset("sd2-ddim-40"), seeds=MIXED),
    "calibrate_wg-rows": lambda: calibrate_wg(
        GMM, SCHED, np.vstack([X3, X3]), TS10, AccelerationPlan(interval=(3, 9)),
        rows=list(MIXED)),
    "sample_skipping": lambda: sample_skipping(GMM, SCHED, X, TS10, set(MIXED)),
    "phi": lambda: phi(SCHED, list(MIXED)),
}


@pytest.mark.parametrize("site", SEQUENCE_SITES)
def test_a_sequence_of_mixed_integer_types_is_served(site):
    SEQUENCE_SITES[site]()
