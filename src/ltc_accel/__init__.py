"""Training-free acceleration of diffusion sampling by reusing the
previous step's transition operator, with analytically solvable
denoisers for end-to-end verification."""

from .errors import (
    ConfigError,
    LtcError,
    NumericError,
    TraceError,
)
from .ltc import (
    AccelerationPlan,
    BiasSearchResult,
    CalibrationResult,
    accelerated_sample,
    angle,
    angle_trace,
    approx_step,
    calibrate_wg,
    detect_interval,
    golden_section_max,
    refine_bias,
    relative_error,
    wg_closed_form,
)
from .harness import (
    ExperimentConfig,
    benchmark_gmm,
    parse_config,
    preset,
    run,
)
from .metrics import RunReport, aggregate, end_error, nfe_speedup, psnr
from .model import (
    DiagGmmDenoiser,
    PointMassDenoiser,
    RecordedTraceDenoiser,
    TraceManifest,
    read_trace,
    write_trace,
)
from .sampler import (
    Trajectory,
    ddim_step,
    initial_noise,
    make_timesteps,
    sample_full,
    sample_skipping,
)
from .schedule import NoiseSchedule, PhiMode, build_linear_beta, gamma, phi

__all__ = [
    "AccelerationPlan",
    "BiasSearchResult",
    "CalibrationResult",
    "DiagGmmDenoiser",
    "ExperimentConfig",
    "PointMassDenoiser",
    "RecordedTraceDenoiser",
    "RunReport",
    "TraceManifest",
    "Trajectory",
    "accelerated_sample",
    "aggregate",
    "angle",
    "angle_trace",
    "approx_step",
    "benchmark_gmm",
    "calibrate_wg",
    "ddim_step",
    "detect_interval",
    "end_error",
    "golden_section_max",
    "initial_noise",
    "make_timesteps",
    "nfe_speedup",
    "parse_config",
    "preset",
    "psnr",
    "read_trace",
    "run",
    "refine_bias",
    "relative_error",
    "sample_full",
    "sample_skipping",
    "wg_closed_form",
    "write_trace",
    "ConfigError",
    "LtcError",
    "NoiseSchedule",
    "NumericError",
    "PhiMode",
    "TraceError",
    "build_linear_beta",
    "gamma",
    "phi",
]
