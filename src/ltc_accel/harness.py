"""Experiment harness: configs, presets, seed fan-out, CSV bundles.

Configs are INI files parsed strictly: unknown sections or keys are
rejected, seeds are always explicit, and reruns of the same config write
byte-identical files. Each config field declares its INI key, and a
config is checked when it is built or replaced. A run is one in-process
pass over one (S, d) batch whose rows are the seeds in sorted order: it
reads a trace once, and each step of a chain is one batched call. The
full runs carry the calibration's rows from the first selected iteration
on; the accelerated runs resume from them after the real steps before
it, and the bias grid with its zero probe is one chain. `--jobs` is
accepted but has no effect, so it stays out of the manifest.

Modes
-----
angles       full runs, per-seed angle traces plus mean/min/max
calibrate    wg tables with shadow real steps, aggregated over seeds
sample       accelerated vs full runs: error traces, PSNR, NFE, speedup
refine       PSNR-vs-bias sweep plus golden refinement of the bias, over
             per-seed reference runs computed once
ablate-skip  accelerated runs vs skipping the same iterations outright
report       angles + calibrate + sample in one bundle
"""

from __future__ import annotations

import configparser
import hashlib
import os
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .ltc import (
    BIAS_INTERVAL_DEFAULT,
    AccelerationPlan,
    accelerated_sample,
    angle_trace,
    calibrate_wg,
    detect_interval,
    refine_bias,
)
from .metrics import (
    PSNR_CAP,
    RunReport,
    aggregate,
    end_error,
    nfe_speedup,
    psnr,
    write_csv,
    _write_verified,
)
from .model import (DiagGmmDenoiser, PointMassDenoiser, RecordedTraceDenoiser,
                    read_trace)
from .sampler import initial_noise, make_timesteps, sample_full, sample_skipping
from .schedule import PhiMode, build_linear_beta

MODES = ("angles", "calibrate", "sample", "refine", "ablate-skip", "report")

_KINDS = ("point", "gmm", "gmm-bench", "trace")
TAU_CEILING = 0.15
# the type of a field's value by its annotation, as the INI parser yields it
_TYPES = {"int": (int, np.integer), "float": float, "str": str, "bool": bool,
          "tuple": tuple}


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from None


def _parse_matrix(text: str) -> tuple:
    return tuple(_parse_floats(row) for row in text.split(";") if row.strip() != "")


def _parse_interval(text: str):
    t = text.strip().lower()
    if t in ("auto", "none"):
        return t if t == "auto" else None
    parts = [v for v in text.split(",") if v.strip() != ""]
    if len(parts) != 2:
        raise ConfigError(f"interval must be 'a,b', 'auto' or 'none', got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_bias(text: str):
    t = text.strip().lower()
    if t == "refine":
        return "refine"
    try:
        return float(t)
    except ValueError:
        raise ConfigError(f"bias must be a number or 'refine', got {text!r}") from None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _key(section: str, parse, default, key: str = ""):
    """A config field read through `parse` from `key` (default: the field's
    name) of INI section `section`."""
    return field(default=default, metadata={"ini": (section, parse, key)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description, checked when built or replaced."""

    t_train: int = _key("schedule", int, 1000)
    beta_start: float = _key("schedule", float, 1e-4)
    beta_end: float = _key("schedule", float, 0.02)
    steps: int = _key("sampling", int, 40)
    kind: str = _key("denoiser", str.strip, "gmm-bench")
    dim: int = _key("denoiser", int, 16)
    mu: tuple = _key("denoiser", _parse_floats, ())
    weights: tuple = _key("denoiser", _parse_floats, ())
    means: tuple = _key("denoiser", _parse_matrix, ())
    variances: tuple = _key("denoiser", _parse_matrix, ())
    manifest: str = _key("denoiser", str.strip, "")
    interval: object = _key("plan", _parse_interval, (13, 39))  # (a, b) | "auto" | None
    r: int = _key("plan", int, 2)
    tau: float = _key("plan", float, 0.1)
    bias: object = _key("plan", _parse_bias, 0.0)  # float | "refine"
    phi_mode: str = _key("plan", str.strip, "sqrt_snr")
    per_seed_wg: bool = _key("plan", _parse_bool, False)
    calibration_seed: int = _key("plan", int, -1)  # -1: first seed
    bias_lo: float = _key("bias", float, BIAS_INTERVAL_DEFAULT[0], "lo")
    bias_hi: float = _key("bias", float, BIAS_INTERVAL_DEFAULT[1], "hi")
    bias_search: str = _key("bias", str.strip, "grid", "search")
    seeds: tuple = _key("run", lambda v: tuple(int(x) for x in v.split(",") if x.strip()),
                        tuple(range(20)))
    out: str = _key("run", str.strip, "")
    jobs: int = _key("run", int, 1)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown denoiser kind {self.kind!r}; known: {_KINDS}")
        if self.kind == "point" and not self.mu:
            raise ConfigError("denoiser kind 'point' requires mu")
        if self.kind == "gmm" and not (self.weights and self.means and self.variances):
            raise ConfigError("denoiser kind 'gmm' requires weights, means, variances")
        if self.kind == "trace" and not self.manifest:
            raise ConfigError("denoiser kind 'trace' requires manifest")
        if not (isinstance(self.bias, float) or isinstance(self.bias, str)
                and self.bias == "refine"):
            raise ConfigError(f"bias must be a float or 'refine', got {self.bias!r}")
        iv = self.interval
        pair = isinstance(iv, tuple) and len(iv) == 2 and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in iv)
        if not (pair or iv is None or isinstance(iv, str) and iv == "auto"):
            raise ConfigError("interval must be None, 'auto' or a tuple of two "
                              f"integers, got {iv!r}")
        for f in fields(self):
            v = getattr(self, f.name)
            want = _TYPES.get(f.type, object)  # bias and interval: checked above
            if not isinstance(v, want) or isinstance(v, bool) and f.type != "bool":
                raise ConfigError(f"{f.name} must be {f.type}, got {v!r}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                   for s in self.seeds):
            raise ConfigError(f"seeds must be integers, got {self.seeds!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.phi_mode not in tuple(m.value for m in PhiMode):
            raise ConfigError(f"unknown phi_mode {self.phi_mode!r}")
        if self.bias_search not in ("grid", "binary"):
            raise ConfigError(f"unknown bias search {self.bias_search!r}")
        if not np.isfinite([self.bias_lo, self.bias_hi]).all():
            raise ConfigError(f"bias bounds must be finite, got [{self.bias_lo}, {self.bias_hi}]")
        if not self.bias_lo <= self.bias_hi:
            raise ConfigError(f"empty bias interval [{self.bias_lo}, {self.bias_hi}]")
        if self.calibration_seed != -1 and self.calibration_seed not in self.seeds:
            raise ConfigError(
                f"calibration_seed {self.calibration_seed} is not among the seeds")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")

    def canonical_lines(self) -> list[str]:
        """Deterministic key=value lines; execution-only keys excluded."""
        skip = {"out", "jobs"}
        lines = []
        for f in fields(self):
            if f.name in skip:
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"config.{f.name}={v}")
        return sorted(lines)

    def fingerprint(self) -> str:
        text = "\n".join(self.canonical_lines())
        return hashlib.sha256(text.encode("ascii")).hexdigest()


# (section, key) -> (ExperimentConfig field, parser of the raw value)
_KEYS = {(section, key or f.name): (f.name, parse)
         for f in fields(ExperimentConfig)
         for section, parse, key in [f.metadata["ini"]]}


PRESETS = {
    "sd2-ddim-40": ExperimentConfig(steps=40, interval=(13, 39)),
    "sd2-ddim-50": ExperimentConfig(steps=50, interval=(11, 49)),
    "sd2-ddim-100": ExperimentConfig(steps=100, interval=(21, 99)),
    "fig2-trace": ExperimentConfig(steps=40, interval=(12, 38), per_seed_wg=True),
    "fig4-bias": ExperimentConfig(steps=40, interval=(12, 38), bias="refine",
                                  seeds=tuple(range(10))),
}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]


def parse_config(path: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Overlay an INI file onto a base config, rejecting unknown keys."""
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as f:
            cp.read_file(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    cfg = base if base is not None else ExperimentConfig()
    updates: dict = {}
    for section in cp.sections():
        if section not in {s for s, _ in _KEYS}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in cp.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, parse = _KEYS[section, key]
            try:
                updates[name] = parse(value)
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(
                    f"bad value for {section}.{key}: {value!r}") from None
    return replace(cfg, **updates)


def benchmark_gmm(schedule, dim: int = 16) -> DiagGmmDenoiser:
    """The frozen mixture used by the canned experiments.

    Three well-separated components with asymmetric weights and broad
    anisotropic covariances; parameters are drawn once from a fixed
    generator so every caller sees the same distribution. The scales are
    chosen so a 40-iteration run shows the studied phases: directional
    oscillation while the state commits to a mode, then a long coherent
    stretch where consecutive transitions stay nearly parallel.
    """
    if dim < 1:
        raise ConfigError(f"benchmark mixture dim must be at least 1, got {dim}")
    rng = np.random.default_rng(20240601)
    means = rng.uniform(-4.5, 4.5, size=(3, dim))
    variances = rng.uniform(0.6, 1.4, size=(3, dim))
    return DiagGmmDenoiser([0.5, 0.3, 0.2], means, variances, schedule)


def build_denoiser(cfg: ExperimentConfig, schedule, seeds):
    """The denoiser of a batch whose rows are `seeds`; for kind "trace" it
    reads the steps of the run's grid from the trace."""
    if cfg.kind == "point":
        return PointMassDenoiser(cfg.mu, schedule)
    if cfg.kind == "gmm":
        return DiagGmmDenoiser(cfg.weights, cfg.means, cfg.variances, schedule)
    if cfg.kind == "gmm-bench":
        return benchmark_gmm(schedule, cfg.dim)
    ts = make_timesteps(cfg.t_train, cfg.steps)[:-1]  # every t a chain calls
    return RecordedTraceDenoiser(read_trace(cfg.manifest, ts)[1], seeds, ts)


def _base_plan(cfg: ExperimentConfig, interval, n: int) -> AccelerationPlan:
    if not cfg.tau > 0.0:
        raise ConfigError(f"tau must be positive, got {cfg.tau}")
    # one source line: the default filter shows it once per run
    if cfg.tau > TAU_CEILING:
        warnings.warn(f"tau={cfg.tau} above the validated ceiling {TAU_CEILING}")
    plan = AccelerationPlan(interval=interval, r=cfg.r,
                            bias=0.0 if cfg.bias == "refine" else cfg.bias,
                            phi_mode=PhiMode(cfg.phi_mode))
    plan.validate(n)
    return plan


def _rows(seeds, full, run) -> tuple:
    """Report columns: each row of batch `run` against that row of `full`."""
    n = full.iterations
    err, rel = end_error(full.final, run.final)
    return (seeds, run.nfe, [n] * len(seeds), nfe_speedup(n, run.nfe),
            psnr(full.final, run.final), err, rel)


def _write_manifest(out_dir: str, mode: str, cfg: ExperimentConfig,
                    results: dict, files: dict) -> None:
    lines = [f"mode={mode}", f"fingerprint={cfg.fingerprint()}"]
    lines += cfg.canonical_lines()
    lines += [f"result.{k}={v}" for k, v in sorted(results.items())]
    lines += [f"file.{name}={digest}" for name, digest in sorted(files.items())]
    _write_verified(os.path.join(out_dir, "manifest.txt"),
                    ("\n".join(lines) + "\n").encode("ascii"))


def run(cfg: ExperimentConfig, mode: str) -> RunReport:
    """Execute one mode and write its CSV bundle into cfg.out."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
    if not cfg.out:
        raise ConfigError("no output directory configured")
    schedule = build_linear_beta(cfg.t_train, cfg.beta_start, cfg.beta_end)
    ts = make_timesteps(cfg.t_train, cfg.steps)
    n = len(ts) - 1
    # The plan is checked before any file is touched, so a configuration
    # error wins over an I/O one; under interval = auto all of it but the
    # interval, which the full runs decide.
    base = _base_plan(cfg, None if cfg.interval == "auto" else cfg.interval, n)
    out_dir = cfg.out
    seeds = tuple(sorted(cfg.seeds))
    den = build_denoiser(cfg, schedule, seeds)
    os.makedirs(out_dir, exist_ok=True)
    x0 = np.stack([initial_noise(den.dim, seed) for seed in seeds])
    cal_row = seeds.index(cfg.seeds[0] if cfg.calibration_seed == -1
                          else cfg.calibration_seed)

    traces = mode in ("angles", "report")
    table = mode in ("calibrate", "report")
    accel = mode in ("sample", "refine", "ablate-skip", "report")
    refine = mode == "refine" or cfg.bias == "refine"
    calibrated = table or accel or refine
    files: dict = {}
    result_lines: dict = {}
    # The full runs ride in the calibration's calls unless the plan needs them first.
    auto = cfg.interval == "auto"
    full = sample_full(den, schedule, x0, ts) if auto or not calibrated else None
    if auto:
        base = _base_plan(cfg, detect_interval(angle_trace(full.row(cal_row)), cfg.tau), n)
        result_lines["interval"] = ("none" if base.interval is None else
                                    "{},{}".format(*base.interval))

    def emit(name: str, schema: str, *columns) -> None:
        files[name] = write_csv(os.path.join(out_dir, name), schema, columns)

    # Every later chain shares the full runs' real steps before the first selected
    # iteration, so an empty plan adds no call to the full runs' own.
    if calibrated:
        # Every row when each needs its own wg, else the calibration seed's
        # alone; calibrate_wg ignores the base plan's wg and bias.
        cal_rows = (list(range(len(seeds))) if table or cfg.per_seed_wg
                    else [cal_row])
        cal = (calibrate_wg(den, schedule, x0, ts, base, rows=cal_rows) if full is None
               else calibrate_wg(den.take(cal_rows), schedule, x0[cal_rows], ts, base,
                                 full=full.states[cal_rows]))
        full = cal.full if full is None else full
        k = cal_rows.index(cal_row)
        plan = replace(base, wg=cal.wg if cfg.per_seed_wg else
                       {i: float(w[k]) for i, w in cal.wg.items()})

    # Resolve the bias first so every CSV below reflects the chosen value.
    bias = None
    if refine:
        found = refine_bias(den, schedule, full, plan, (cfg.bias_lo, cfg.bias_hi),
                            cfg.bias_search)
        emit("psnr_summary.csv", "psnr_summary", found.grid,
             *aggregate(found.grid_psnr.T))
        bias = found.bias
        result_lines["bias"] = repr(bias)
        plan = replace(plan, bias=bias)

    if traces:
        iters = np.arange(2, n + 1)
        angles = angle_trace(full)
        for seed, a in zip(seeds, angles):
            emit(f"angle_seed{seed}.csv", "angle", iters, a)
        mean, lo, hi = aggregate(angles)
        emit("angle_mean.csv", "angle", iters, mean)
        emit("angle_min.csv", "angle", iters, lo)
        emit("angle_max.csv", "angle", iters, hi)

    if table:
        sel = base.selected()
        # one series per seed; the reshape keeps them when sel is empty
        mean, lo, hi = aggregate(
            np.reshape([cal.wg[i] for i in sel], (len(sel), len(seeds))).T)
        emit("latent_wg_summary.csv", "latent_wg_summary", sel, mean, lo, hi)

    if accel:
        acc = accelerated_sample(den, schedule, x0, ts, plan, full=full.states)
        err_abs = [np.linalg.norm(f - a, axis=1)
                   for f, a in zip(full.states, acc.states)]
        norms = [np.linalg.norm(f, axis=1) for f in full.states]
        err_rel = [100.0 * d / np.where(m == 0.0, np.inf, m)
                   for d, m in zip(err_abs, norms)]
        positions = np.arange(n + 1)
        emit("error_summary.csv", "error_summary", positions, *aggregate(err_rel))
        emit("error_abs_summary.csv", "error_summary", positions, *aggregate(err_abs))

    if mode == "ablate-skip":
        skip = sample_skipping(den, schedule, x0, ts, set(base.selected()))
        emit("ablation.csv", "ablation", seeds, psnr(full.final, acc.final),
             psnr(full.final, skip.final), acc.nfe, skip.nfe)

    # In angles mode a full run is compared to itself: unit speedup, zero end
    # error. Its constant rows also serve dim = 1, where psnr has no peak.
    emit("report.csv", "report", *(
        (seeds, *([v] * len(seeds) for v in (n, n, 1.0, PSNR_CAP, 0.0, 0.0)))
        if mode == "angles" else _rows(seeds, full, acc if accel else cal.trajectory)))

    _write_manifest(out_dir, mode, cfg, result_lines, files)
    return RunReport(bias=bias, files=files)

