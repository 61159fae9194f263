"""Harness and CLI behavior: config parsing, presets, mode bundles,
byte-level determinism, exit codes."""

import configparser
import contextlib
import errno
import functools
import hashlib
import io
import multiprocessing.process
import operator
import os
import sys
import threading
import tracemalloc
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltc_accel import (
    AccelerationPlan,
    ConfigError,
    DiagGmmDenoiser,
    ExperimentConfig,
    LtcError,
    NumericError,
    TraceError,
    accelerated_sample,
    aggregate,
    benchmark_gmm,
    build_linear_beta,
    calibrate_wg,
    initial_noise,
    make_timesteps,
    parse_config,
    preset,
    psnr,
    run,
    sample_full,
    write_trace,
)
from ltc_accel import harness, ltc, model
from ltc_accel.cli import main
from ltc_accel.harness import PRESETS

from conftest import read_csv


def write_ini(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def manifest_lines(out_dir):
    with open(os.path.join(out_dir, "manifest.txt"), encoding="ascii") as f:
        return f.read().splitlines()


def dir_digests(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


SMALL = replace(preset("sd2-ddim-40"), seeds=(0, 1, 2))


# ---------------------------------------------------------------- config

def test_defaults_are_valid():
    cfg = ExperimentConfig()
    assert cfg.kind == "gmm-bench"
    assert cfg.interval == (13, 39)
    assert cfg.seeds == tuple(range(20))


FULL_INI = """
[schedule]
t_train = 500
beta_start = 2e-4
beta_end = 0.01

[sampling]
steps = 25

[denoiser]
kind = gmm
dim = 4
weights = 0.5,0.5
means = 0.0,0.0;1.0,1.0
variances = 0.1,0.1;0.2,0.2

[plan]
interval = 5,21
r = 3
tau = 0.12
bias = 0.01
phi_mode = snr
per_seed_wg = true
calibration_seed = 3

[bias]
lo = -0.02
hi = 0.05
search = binary

[run]
seeds = 3,4
out = somewhere
jobs = 2
"""

POINT_TRACE_INI = """
[denoiser]
kind = trace
mu = 0.5,-0.25
manifest = eps.trace
"""


def test_parse_full_overlay(tmp_path):
    cfg = parse_config(write_ini(tmp_path / "e.ini", FULL_INI))
    assert cfg.t_train == 500 and cfg.steps == 25
    assert cfg.beta_start == 2e-4 and cfg.beta_end == 0.01
    assert cfg.kind == "gmm" and cfg.dim == 4 and cfg.weights == (0.5, 0.5)
    assert cfg.means == ((0.0, 0.0), (1.0, 1.0))
    assert cfg.variances == ((0.1, 0.1), (0.2, 0.2))
    assert cfg.interval == (5, 21) and cfg.r == 3
    assert cfg.tau == 0.12 and cfg.bias == 0.01
    assert cfg.phi_mode == "snr" and cfg.per_seed_wg is True
    assert cfg.calibration_seed == 3
    assert cfg.bias_lo == -0.02 and cfg.bias_hi == 0.05
    assert cfg.bias_search == "binary"
    assert cfg.seeds == (3, 4) and cfg.out == "somewhere" and cfg.jobs == 2

    cfg = parse_config(write_ini(tmp_path / "p.ini", POINT_TRACE_INI))
    assert cfg.kind == "trace" and cfg.manifest == "eps.trace"
    assert cfg.mu == (0.5, -0.25)

    # together the two files set every key the parser knows
    seen = set()
    for text in (FULL_INI, POINT_TRACE_INI):
        cp = configparser.ConfigParser()
        cp.read_string(text)
        seen |= {(sec, key) for sec in cp.sections() for key in cp[sec]}
    assert seen == set(harness._KEYS)


def test_parse_overlays_base_preserving_unset_keys(tmp_path):
    ini = write_ini(tmp_path / "e.ini", "[sampling]\nsteps = 50\n")
    cfg = parse_config(ini, base=preset("sd2-ddim-50"))
    assert cfg.steps == 50
    assert cfg.interval == (11, 49)  # from the preset


@pytest.mark.parametrize("text,fragment", [
    ("[nosuch]\nx = 1\n", "unknown config section"),
    ("[plan]\nintervall = 1,2\n", "unknown key"),
    ("[sampling]\nsteps = many\n", "bad value"),
    ("[plan]\ninterval = 1,2,3\n", "interval"),
    ("[plan]\ninterval = 13.7, 39.9\n", "bad value for plan.interval"),
    ("[plan]\ninterval = inf, 4\n", "bad value for plan.interval"),
    ("[plan]\nbias = maybe\n", "bias"),
    ("[plan]\nper_seed_wg = probably\n", "boolean"),
    ("[denoiser]\nkind = point\n", "requires mu"),
    ("[denoiser]\nkind = gmm\n", "requires weights"),
    ("[denoiser]\nkind = trace\n", "requires manifest"),
    ("[denoiser]\nkind = vae\n", "unknown denoiser kind"),
    ("[run]\nseeds = 1,1\n", "distinct"),
    ("[run]\nseeds =\n", "at least one seed"),
    ("[run]\nseeds = 0,1.5\n", "bad value for run.seeds"),
    ("[run]\nseeds = 1e3\n", "bad value for run.seeds"),
    ("[run]\nseeds = 3,-1\n", "non-negative"),
    ("[run]\njobs = 0\n", "jobs"),
    ("[plan]\nphi_mode = log_snr\n", "phi_mode"),
    ("[bias]\nsearch = random\n", "search"),
    ("[bias]\nlo = 0.2\nhi = 0.1\n", "bias interval"),
    ("[plan]\ncalibration_seed = 99\n", "calibration_seed"),
    # [DEFAULT] is an ordinary section, and so an unknown one
    ("[DEFAULT]\nseeds = 5\n", r"unknown config section \[DEFAULT\]"),
    ("[DEFAULT]\nr = 3\n[plan]\ntau = 0.1\n", r"unknown config section \[DEFAULT\]"),
    ("[DEFAULT]\nr = 3\n[run]\nseeds = 0\n", r"unknown config section \[DEFAULT\]"),
    ("[denoiser]\nkind = point\nmu = 1,x\n", "expected comma-separated floats, got '1,x'"),
    ("steps = 40\n", "malformed config: File contains no section headers"),
])
def test_parse_rejections(tmp_path, text, fragment):
    ini = write_ini(tmp_path / "bad.ini", text)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(ini)


def test_interval_spellings(tmp_path):
    for text, want in [("auto", "auto"), ("none", None), ("7,19", (7, 19))]:
        ini = write_ini(tmp_path / "i.ini", f"[plan]\ninterval = {text}\n")
        assert parse_config(ini).interval == want


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "absent.ini"))


def test_seeds_parse_as_exact_integers(tmp_path):
    # through a float, 2**53 + 1 would come back as 2**53
    ini = write_ini(tmp_path / "s.ini", "[run]\nseeds = 9007199254740993, 7\n")
    assert parse_config(ini).seeds == (2**53 + 1, 7)


def test_fingerprint_ignores_out_and_jobs():
    a = ExperimentConfig()
    b = replace(a, out="/elsewhere", jobs=8)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != replace(a, steps=50).fingerprint()


def _ini_value(name, canonical):
    # matrices echo as Python tuples, "(1.0, 2.0),(3.0,)"; the INI splits rows by ";"
    if name in ("means", "variances"):
        return canonical.replace("),(", ";").strip("()")
    return canonical


_floats = st.floats(width=64)
_row = st.lists(_floats, min_size=1, max_size=3).map(tuple)


@st.composite
def _configs(draw):
    seeds = tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                                max_size=5, unique=True)))
    lo, hi = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2,
                                  max_size=2)))
    return ExperimentConfig(
        t_train=draw(st.integers(-10**9, 10**9)),
        beta_start=draw(_floats), beta_end=draw(_floats),
        steps=draw(st.integers(-10**9, 10**9)),
        kind=draw(st.sampled_from(harness._KINDS)),
        dim=draw(st.integers(-10**9, 10**9)),
        mu=tuple(draw(st.lists(_floats, min_size=1, max_size=3))),
        weights=tuple(draw(st.lists(_floats, min_size=1, max_size=3))),
        means=tuple(draw(st.lists(_row, min_size=1, max_size=3))),
        variances=tuple(draw(st.lists(_row, min_size=1, max_size=3))),
        manifest=draw(st.text(st.characters(min_codepoint=33, max_codepoint=126),
                              min_size=1, max_size=12)),
        interval=draw(st.one_of(
            st.none(), st.just("auto"),
            st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)))),
        r=draw(st.integers(-10**9, 10**9)),
        tau=draw(_floats),
        bias=draw(st.one_of(st.just("refine"), _floats)),
        phi_mode=draw(st.sampled_from([m.value for m in harness.PhiMode])),
        per_seed_wg=draw(st.booleans()),
        calibration_seed=draw(st.sampled_from((-1,) + seeds)),
        bias_lo=lo, bias_hi=hi,
        bias_search=draw(st.sampled_from(["grid", "binary"])),
        seeds=seeds,
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_configs())
def test_canonical_lines_round_trip_through_ini(tmp_path_factory, cfg):
    key_of = {name: key for key, (name, _) in harness._KEYS.items()}
    values = dict(line[len("config."):].split("=", 1)
                  for line in cfg.canonical_lines())
    assert set(values) == set(key_of) - {"out", "jobs"}
    sections: dict = {}
    for name, value in values.items():
        section, key = key_of[name]
        sections.setdefault(section, []).append(
            f"{key} = {_ini_value(name, value)}")
    text = "".join(f"[{sec}]\n" + "\n".join(lines) + "\n\n"
                   for sec, lines in sections.items())
    ini = write_ini(tmp_path_factory.mktemp("ini") / "c.ini", text)
    back = parse_config(ini)
    assert back.canonical_lines() == cfg.canonical_lines()
    assert back.fingerprint() == cfg.fingerprint()


def test_presets():
    assert set(PRESETS) == {"sd2-ddim-40", "sd2-ddim-50", "sd2-ddim-100",
                            "fig2-trace", "fig4-bias"}
    assert preset("sd2-ddim-40").interval == (13, 39)
    assert preset("sd2-ddim-50").steps == 50
    assert preset("sd2-ddim-100").interval == (21, 99)
    assert preset("fig2-trace").per_seed_wg is True
    assert preset("fig4-bias").bias == "refine"
    assert preset("fig4-bias").seeds == tuple(range(10))
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("sd3")


def test_benchmark_gmm_is_frozen():
    sched = build_linear_beta(1000)
    a = benchmark_gmm(sched)
    b = benchmark_gmm(sched)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.variances, b.variances)
    assert np.allclose(a.weights, [0.5, 0.3, 0.2])
    assert a.means.shape == (3, 16)
    assert np.all(np.abs(a.means) <= 4.5)
    assert np.all((a.variances >= 0.6) & (a.variances <= 1.4))
    for dim in (0, -1):
        with pytest.raises(ConfigError, match="dim must be at least 1"):
            benchmark_gmm(sched, dim)


def test_benchmark_angle_profile_has_midrun_low_band(tmp_path):
    """Mean transition angle: oscillation early, a low mid-run band,
    and a rise at the very end."""
    cfg = replace(preset("sd2-ddim-40"), out=str(tmp_path))
    run(cfg, "angles")
    _, rows = read_csv(tmp_path / "angle_mean.csv", "angle")
    ang = np.array([r[1] for r in rows])  # iterations 2..40
    early = ang[:7].mean()       # iterations 2..8
    mid = ang[18:31].mean()      # iterations 20..32
    end = ang[-3:].mean()        # iterations 38..40
    assert mid < early and mid < end
    assert 2 + 18 <= np.argmin(ang) + 2 <= 2 + 30  # minimum inside the band


# ---------------------------------------------------------------- modes

def test_sample_mode_bundle(tmp_path):
    rep = run(replace(SMALL, out=str(tmp_path)), "sample")
    assert set(rep.files) == {"error_summary.csv", "error_abs_summary.csv",
                              "report.csv"}
    header, rows = read_csv(tmp_path / "report.csv", "report")
    assert header[0] == "Seed" and len(rows) == 3
    for row in rows:
        assert row[1] == 26.0 and row[2] == 40.0  # NFE, iterations
        assert row[3] == pytest.approx(40 / 26)
    _, errs = read_csv(tmp_path / "error_summary.csv", "error_summary")
    assert len(errs) == 41
    assert errs[0][1:] == (0.0, 0.0, 0.0)  # shared initial state
    for _, mean, lo, hi in errs:
        assert lo <= mean <= hi


def test_angles_mode_bundle(tmp_path):
    rep = run(replace(SMALL, out=str(tmp_path)), "angles")
    for seed in (0, 1, 2):
        assert f"angle_seed{seed}.csv" in rep.files
    _, mean = read_csv(tmp_path / "angle_mean.csv", "angle")
    _, lo = read_csv(tmp_path / "angle_min.csv", "angle")
    _, hi = read_csv(tmp_path / "angle_max.csv", "angle")
    assert len(mean) == 39  # iterations 2..40
    assert [r[0] for r in mean] == list(range(2, 41))
    for m, l, h in zip(mean, lo, hi):
        assert l[1] <= m[1] <= h[1]


def test_calibrate_mode_bundle(tmp_path):
    rep = run(replace(SMALL, out=str(tmp_path)), "calibrate")
    _, rows = read_csv(tmp_path / "latent_wg_summary.csv", "latent_wg_summary")
    assert [r[0] for r in rows] == list(range(13, 40, 2))
    for _, mean, lo, hi in rows:
        assert lo <= mean <= hi
    header, report_rows = read_csv(tmp_path / "report.csv", "report")
    assert all(r[1] == 40.0 for r in report_rows)  # calibration pays full NFE


def test_ablate_mode_bundle(tmp_path):
    rep = run(replace(SMALL, out=str(tmp_path)), "ablate-skip")
    _, rows = read_csv(tmp_path / "ablation.csv", "ablation")
    assert len(rows) == 3
    for seed, accel_psnr, skip_psnr, accel_nfe, skip_nfe in rows:
        assert accel_nfe == skip_nfe == 26.0


def test_refine_mode_bundle(tmp_path):
    cfg = replace(preset("fig4-bias"), seeds=(0, 1), out=str(tmp_path))
    rep = run(cfg, "refine")
    _, rows = read_csv(tmp_path / "psnr_summary.csv", "psnr_summary")
    assert len(rows) == 11
    assert rows[0][0] == -0.05 and rows[-1][0] == 0.1
    assert rep.bias is not None and -0.05 <= rep.bias <= 0.1
    assert f"result.bias={rep.bias!r}" in manifest_lines(str(tmp_path))


def test_refine_call_count_and_grid_psnr(tmp_path, monkeypatch):
    calls = []
    epsilon_hat = DiagGmmDenoiser.epsilon_hat

    def counting(self, x, t):
        calls.append(len(np.atleast_2d(x)))
        return epsilon_hat(self, x, t)

    monkeypatch.setattr(DiagGmmDenoiser, "epsilon_hat", counting)
    cfg = replace(preset("fig4-bias"), seeds=(0, 1), out=str(tmp_path))
    run(cfg, "refine")
    # The 2 reference runs (40 steps, 80 rows) carry the calibration seed's
    # 28 steps from iteration 13, the first selected one (28 rows). Every
    # later chain resumes after the 12 real steps before it: the 11 grid
    # biases and zero as one batch of 12 * 2 rows (15 real steps of 24 rows),
    # the 19 golden probes as 10 chains of 15 steps (one of 2 biases, 8 of
    # 3 and one of 1: 27 biases of 2 rows) and the final rows (15 * 2)
    assert sum(calls) == 80 + 28 + 15 * 24 + 27 * 15 * 2 + 15 * 2
    # Calls: each step above is one call, the reference runs' with the
    # calibration's rows in it
    assert len(calls) == 40 + 15 + 10 * 15 + 15
    monkeypatch.undo()

    # From scratch: every grid bias re-runs both chains on every seed.
    sched = build_linear_beta(cfg.t_train, cfg.beta_start, cfg.beta_end)
    ts = make_timesteps(cfg.t_train, cfg.steps)
    den = benchmark_gmm(sched, cfg.dim)
    plan = AccelerationPlan(interval=cfg.interval)
    plan = replace(plan, wg=calibrate_wg(den, sched, initial_noise(den.dim, 0),
                                         ts, plan).wg)
    _, rows = read_csv(tmp_path / "psnr_summary.csv", "psnr_summary")
    grid = np.linspace(cfg.bias_lo, cfg.bias_hi, 11)
    assert [r[0] for r in rows] == list(grid)
    for b, (_, mean, lo, hi) in zip(grid, rows):
        vals = []
        for seed in cfg.seeds:
            x0 = initial_noise(den.dim, seed)
            full = sample_full(den, sched, x0, ts)
            acc = accelerated_sample(den, sched, x0, ts,
                                     replace(plan, bias=float(b)))
            vals.append(psnr(full.final, acc.final))
        assert (lo, hi) == (min(vals), max(vals))
        assert mean == np.mean(sorted(vals))


def test_report_call_count(tmp_path, monkeypatch):
    """(batched epsilon_hat calls, rows) of every mode on sd2-ddim-40 with
    seeds (0, 1), with its interval and with none."""
    calls = []
    epsilon_hat = DiagGmmDenoiser.epsilon_hat

    def counting(self, x, t):
        calls.append(len(np.atleast_2d(x)))
        return epsilon_hat(self, x, t)

    monkeypatch.setattr(DiagGmmDenoiser, "epsilon_hat", counting)
    # Every mode pays the 2 full runs (40 calls, 80 rows). From iteration
    # 13, the first selected one, the calibration's rows ride in their
    # calls: both seeds in report (28 steps of 2 more rows), one seed in
    # sample. Every later chain resumes after the 12 real steps before
    # iteration 13: the accelerated runs (14 real steps); ablate-skip adds
    # the 26-step skipping runs; refine adds the grid chain and the 10
    # chains of the 19 golden probes (one of 2 biases, 8 of 3 and one of 1).
    # Angles mode never calibrates, and with no interval only the skipping
    # runs cost more than the full runs.
    want = {
        (13, 39): {"angles": (40, 80), "calibrate": (40, 136),
                   "sample": (54, 136), "refine": (208, 1228),
                   "ablate-skip": (80, 188), "report": (54, 164)},
        None: {"angles": (40, 80), "calibrate": (40, 80), "sample": (40, 80),
               "refine": (40, 80), "ablate-skip": (80, 160),
               "report": (40, 80)},
    }
    got = {}
    for interval in want:
        got[interval] = {}
        for mode in harness.MODES:
            calls.clear()
            cfg = replace(preset("sd2-ddim-40"), interval=interval, seeds=(0, 1),
                          out=str(tmp_path / f"{interval}-{mode}"))
            run(cfg, mode)
            got[interval][mode] = (len(calls), sum(calls))
    assert got == want


def test_harness_holds_no_private_name_of_ltc():
    private = {name for name in vars(ltc) if name[0] == "_" and name[-1] != "_"}
    assert not private & set(vars(harness))


@pytest.mark.parametrize("mode", ["refine", "report", "sample"])
def test_plan_warnings_show_once_per_run(tmp_path, mode):
    # every caller validates the plan, and each warning still shows once
    cfg = replace(preset("fig4-bias"), r=3, tau=0.2, out=str(tmp_path))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("default")
        run(cfg, mode)
    assert sorted(str(w.message) for w in seen) == [
        "r=3 approximates one iteration in 3; only r=2 is validated",
        "tau=0.2 above the validated ceiling 0.15"]


def test_refine_grid_is_one_batch_with_zero_only_in_range(tmp_path, monkeypatch):
    batches, probes, found = [], [], []
    make, search, golden_search = (ltc._bias_objective, ltc._search_bias,
                                   ltc.golden_section_max)

    def recording(*args):
        objective = make(*args)

        def probe(bias):
            batches.append(np.atleast_1d(bias).tolist())
            return objective(bias)

        return probe

    def sequential(*args, **kwargs):
        result = golden_search(*args, **kwargs)
        probes.extend(b for b, _ in result[1])
        return result

    def searching(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(ltc, "_bias_objective", recording)
    monkeypatch.setattr(ltc, "golden_section_max", sequential)
    monkeypatch.setattr(ltc, "_search_bias", searching)
    for lo, hi, zero in ((-0.05, 0.10, [0.0]), (0.01, 0.10, []),
                         (-0.10, -0.02, []), (0.0, 0.10, [])):
        batches.clear()
        probes.clear()
        cfg = replace(preset("fig4-bias"), seeds=(0, 1), bias_lo=lo, bias_hi=hi,
                      out=str(tmp_path / f"{lo}_{hi}"))
        run(cfg, "refine")
        grid = np.linspace(lo, hi, 11).tolist()
        assert batches[0] == grid + zero
        # golden section scores at most 3 biases a call, each once, never a
        # known one; the result holds the grid call and its sequential probes
        golden = [b for batch in batches[1:] for b in batch]
        assert all(len(batch) <= 3 for batch in batches[1:]) and golden
        assert len(set(golden)) == len(golden)
        assert not set(golden) & set(grid + [0.0])
        assert set(probes) <= set(golden)
        assert [b for b, _ in found[-1].evaluations] == sorted(batches[0] + probes)


def test_bias_score_does_not_depend_on_the_batch(tmp_path, monkeypatch):
    # Every bias the search scores, in the grid batch or alone, gets
    # aggregate's Mean over the seeds; so a grid bias scored alone equals
    # its psnr_summary.csv Mean bit for bit, whatever the row order.
    objectives = []
    make = ltc._bias_objective

    def recording(*args):
        objectives.append(make(*args))
        return objectives[-1]

    monkeypatch.setattr(ltc, "_bias_objective", recording)
    run(replace(preset("fig4-bias"), out=str(tmp_path)), "refine")
    _, rows = read_csv(tmp_path / "psnr_summary.csv", "psnr_summary")
    rng = np.random.default_rng(0)
    for bias, mean, _, _ in rows:
        alone = objectives[0](np.array([bias]))
        assert alone.shape == (1, 10)
        assert aggregate(alone.T)[0][0] == mean
        assert aggregate(alone[:, rng.permutation(10)].T)[0][0] == mean
    # The rule rests on np.add.accumulate summing an (S, 1) column in the
    # same order as each column of a wider stack. np.mean does not: once
    # S >= 8 it sums one column pairwise but several row by row.
    for S in (8, 10, 20):
        for seed in range(5):
            stack = rng.standard_normal((S, 12)) * 10.0 ** rng.uniform(-3, 8, 12)
            wide = aggregate(stack)[0]
            for j in range(12):
                col = np.sort(stack[:, j])
                assert aggregate(stack[:, [j]])[0][0] == wide[j]
                assert wide[j] == functools.reduce(operator.add, col) / S


def test_report_mode_bundle(tmp_path):
    rep = run(replace(SMALL, out=str(tmp_path)), "report")
    assert {"angle_mean.csv", "latent_wg_summary.csv", "error_summary.csv",
            "report.csv"} <= set(rep.files)


def test_empty_interval_means_no_acceleration(tmp_path):
    cfg = replace(SMALL, interval=None, out=str(tmp_path))
    run(cfg, "sample")
    _, rows = read_csv(tmp_path / "report.csv", "report")
    for row in rows:
        assert row[1] == 40.0 and row[3] == 1.0  # full NFE, no speedup
        assert row[5] == 0.0 and row[4] == 99.0  # bit-identical end state


def test_auto_interval_recorded_in_manifest(tmp_path):
    cfg = replace(SMALL, interval="auto", tau=0.15, out=str(tmp_path))
    run(cfg, "sample")
    lines = manifest_lines(str(tmp_path))
    assert "config.interval=auto" in lines
    resolved = [l for l in lines if l.startswith("result.interval=")]
    assert len(resolved) == 1
    a, b = map(int, resolved[0].split("=")[1].split(","))
    assert 2 <= a <= b <= 39


def test_trace_denoiser_through_harness(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((3, 24, 4)).astype("<f4")
    man = tmp_path / "eps.trace"
    write_trace(str(man), data)
    ini = write_ini(tmp_path / "t.ini", f"""
[schedule]
t_train = 24

[sampling]
steps = 6

[denoiser]
kind = trace
manifest = {man}

[plan]
interval = 3,5

[run]
seeds = 0,1,2
""")
    cfg = replace(parse_config(ini), out=str(tmp_path / "out"))
    run(cfg, "sample")
    _, rows = read_csv(tmp_path / "out" / "report.csv", "report")
    assert len(rows) == 3
    for row in rows:
        assert row[1] == 4.0  # 6 iterations, 2 approximated


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(replace(SMALL, out=str(a)), "report")
    run(replace(SMALL, out=str(b)), "report")
    assert dir_digests(str(a)) == dir_digests(str(b))


def test_report_over_a_larger_bundle_equals_a_fresh_run(tmp_path):
    # files are rewritten in place: report.csv shrinks from 6 rows to 3, and
    # the extra seeds' angle files stay behind untouched
    old, fresh = tmp_path / "old", tmp_path / "fresh"
    run(replace(SMALL, seeds=tuple(range(6)), out=str(old)), "report")
    size = os.path.getsize(old / "report.csv")
    rep = run(replace(SMALL, out=str(old)), "report")
    assert rep.files == run(replace(SMALL, out=str(fresh)), "report").files
    assert os.path.getsize(old / "report.csv") < size
    got, want = dir_digests(str(old)), dir_digests(str(fresh))
    assert {name: got[name] for name in want} == want
    assert set(got) - set(want) == {f"angle_seed{k}.csv" for k in (3, 4, 5)}


def _small_trace_config(tmp_path):
    rng = np.random.default_rng(7)
    man = tmp_path / "eps.trace"
    write_trace(str(man), rng.standard_normal((3, 24, 4)).astype("<f4"))
    return ExperimentConfig(t_train=24, steps=6, kind="trace",
                            manifest=str(man), interval=(3, 5),
                            seeds=(2, 0, 1))


@pytest.mark.parametrize("mode,make_cfg", [
    ("report", lambda tmp_path: SMALL),
    ("refine", lambda tmp_path: replace(preset("fig4-bias"), seeds=(0, 1, 2))),
    ("refine", _small_trace_config),
], ids=["report-sd2-ddim-40", "refine-fig4-bias", "refine-trace"])
def test_jobs_do_not_change_output(tmp_path, monkeypatch, mode, make_cfg):
    def no_process(*args, **kwargs):
        raise AssertionError("a run started a process")

    # jobs has no effect: every seed runs in this process
    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        no_process)
    cfg = make_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    run(replace(cfg, out=str(a), jobs=1), mode)
    run(replace(cfg, out=str(b), jobs=2), mode)
    da, db = dir_digests(str(a)), dir_digests(str(b))
    da.pop("manifest.txt"), db.pop("manifest.txt")  # jobs is execution-only
    assert da == db
    # and the manifests agree too, because jobs is excluded from them
    assert dir_digests(str(a)) == dir_digests(str(b))


def _auto_refine_trace_config(tmp_path):
    # nearly constant predictions: the auto interval is not empty (2, 5)
    rng = np.random.default_rng(7)
    man = tmp_path / "smooth.trace"
    write_trace(str(man),
                (1.0 + 0.01 * rng.standard_normal((3, 24, 4))).astype("<f4"))
    return ExperimentConfig(t_train=24, steps=6, kind="trace",
                            manifest=str(man), interval="auto", bias="refine",
                            seeds=(2, 0, 1))


@pytest.mark.parametrize("name,mode,make_cfg,want", [
    ("read_trace", "report", _auto_refine_trace_config, 1),
    ("calibrate_wg", "refine",
     lambda tmp_path: replace(preset("fig4-bias"), per_seed_wg=True,
                              seeds=(0, 1, 2)), 3),
    ("calibrate_wg", "report",
     lambda tmp_path: replace(preset("sd2-ddim-40"), seeds=(0, 1)), 2),
    ("calibrate_wg", "angles",
     lambda tmp_path: replace(preset("sd2-ddim-40"), seeds=(0, 1)), 0),
], ids=["read-trace-auto-refine", "calibrate-per-seed-refine",
        "calibrate-shared-report", "calibrate-none-angles"])
def test_each_trace_read_and_calibration_happens_once(
        tmp_path, monkeypatch, name, mode, make_cfg, want):
    calls = []
    fn = getattr(harness, name)

    def counting(*args, **kwargs):
        # calibrate_wg counts calibrated rows: args[2] is x_init
        calls.append(len(np.atleast_2d(args[2])) if name == "calibrate_wg" else 1)
        return fn(*args, **kwargs)

    for module in {harness, sys.modules[fn.__module__]}:
        monkeypatch.setattr(module, name, counting)
    run(replace(make_cfg(tmp_path), out=str(tmp_path / "o")), mode)
    assert sum(calls) == want


def test_manifest_digests_match_files(tmp_path):
    rep = run(replace(SMALL, out=str(tmp_path)), "sample")
    digests = dir_digests(str(tmp_path))
    for line in manifest_lines(str(tmp_path)):
        if line.startswith("file."):
            name, digest = line[5:].split("=")
            assert digests[name] == digest
    assert rep.files == {k: v for k, v in digests.items()
                         if k != "manifest.txt"}


def test_unknown_mode_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown mode"):
        run(replace(SMALL, out=str(tmp_path)), "teleport")


def test_missing_out_rejected():
    with pytest.raises(ConfigError, match="output directory"):
        run(SMALL, "sample")


# ---------------------------------------------------------------- cli

def test_cli_sample_happy_path(tmp_path, capsys):
    """The whole stdout of sample and refine: the run line, refine's bias as
    the manifest records it, then the written files in sorted order."""
    fingerprint = replace(preset("sd2-ddim-40"), seeds=(0, 1)).fingerprint()
    for mode, extra in (("sample", []), ("refine", ["psnr_summary.csv"])):
        out = tmp_path / mode
        rc = main([mode, "--preset", "sd2-ddim-40",
                   "--seed-set", "0", "1", "--out", str(out)])
        assert rc == 0
        bias = [line.replace("result.", "", 1)
                for line in (out / "manifest.txt").read_text().splitlines()
                if line.startswith("result.bias=")]
        assert len(bias) == (mode == "refine")
        names = sorted(["error_abs_summary.csv", "error_summary.csv",
                        "report.csv", *extra])
        assert capsys.readouterr().out.splitlines() == [
            f"mode={mode} seeds=2 fingerprint={fingerprint[:12]}", *bias,
            *(os.path.join(str(out), name) for name in names)]


def test_cli_precedence_preset_config_flags(tmp_path):
    ini = write_ini(tmp_path / "e.ini",
                    "[sampling]\nsteps = 20\n\n[plan]\ninterval = 11,19\n")
    rc = main(["sample", "--preset", "sd2-ddim-40", "--config", ini,
               "--seed-set", "5", "--out", str(tmp_path / "o")])
    assert rc == 0
    _, rows = read_csv(tmp_path / "o" / "report.csv", "report")
    assert len(rows) == 1 and rows[0][0] == 5.0   # flag beat preset seeds
    assert rows[0][2] == 20.0                     # config beat preset steps


def test_cli_env_out_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("LTC_OUT", str(tmp_path / "env_out"))
    rc = main(["angles", "--seed-set", "0"])
    assert rc == 0
    assert (tmp_path / "env_out" / "angle_seed0.csv").exists()


def test_cli_config_error_exit(tmp_path, capsys):
    ini = write_ini(tmp_path / "bad.ini", "[plan]\nintervall = 1,2\n")
    rc = main(["sample", "--config", ini, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("seeds,flags", [
    ("0", ["--seed-set", "0", "-3"]), ("0,-3", []), ("0,1.5", []),
], ids=["flag", "ini", "float"])
def test_cli_bad_seed_exit(tmp_path, capsys, seeds, flags):
    ini = write_ini(tmp_path / "s.ini", f"[run]\nseeds = {seeds}\n")
    assert main(["sample", "--config", ini, "--out", str(tmp_path / "o"), *flags]) == 2
    assert capsys.readouterr().err.startswith("ltc: configuration error")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("denoiser", [
    "kind = gmm-bench\ndim = 0",
    "kind = gmm\nweights = 0.5,0.5\nmeans = 0.0,0.0;1.0\nvariances = 1.0,1.0;1.0,1.0",
    "kind = point\nmu = 1,nan",
], ids=["dim", "ragged", "nan-mu"])
def test_cli_bad_denoiser_parameters_exit_2_and_create_nothing(tmp_path, capsys,
                                                               denoiser):
    # found only when the denoiser is built, still before any file is touched
    ini = write_ini(tmp_path / "d.ini", f"[denoiser]\n{denoiser}\n")
    blocker = tmp_path / "file"
    blocker.write_text("x")
    for out in (tmp_path / "o", blocker / "o"):
        assert main(["sample", "--config", ini, "--seed-set", "0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ltc: configuration error")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,key", [
    ("sampling", "steps"), ("schedule", "t_train"), ("denoiser", "dim")])
def test_cli_count_too_large_to_size_exits_2(tmp_path, capsys, section, key):
    # 2**70 is refused where it enters, with its value, before numpy would
    # size an array by it; a steps above t_train is never placed distinctly
    ini = write_ini(tmp_path / "h.ini", f"[{section}]\n{key} = {2**70}\n")
    assert main(["sample", "--config", ini, "--seed-set", "0",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ltc: configuration error") and str(2**70) in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seeds", [
    ["3", "18446744073709551615", "1180591620717411303424"],
    ["3", "18446744073709551615"],  # one uint64 apart, float64 with a 3
], ids=["2**70", "2**64-1"])
def test_cli_writes_seeds_beyond_64_bits_exactly(tmp_path, seeds):
    out = tmp_path / "o"
    assert main(["sample", "--preset", "sd2-ddim-40", "--seed-set", *seeds,
                 "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text(encoding="ascii").splitlines()
    assert [line.split(",", 1)[0] for line in lines] == ["Seed", *seeds]


@pytest.mark.parametrize("mode", ["sample", "refine"])
@pytest.mark.parametrize("bound", ["lo = -inf", "hi = inf", "lo = nan"])
def test_cli_non_finite_bias_bound_exits_2(tmp_path, capsys, mode, bound):
    ini = write_ini(tmp_path / "b.ini", f"[bias]\n{bound}\n")
    assert main([mode, "--preset", "fig4-bias", "--config", ini,
                 "--seed-set", "0", "--out", str(tmp_path / "o")]) == 2
    assert "bias bounds must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tau", ["0", "-1", "nan"])
def test_cli_non_positive_tau_exits_2(tmp_path, capsys, tau):
    # parse_config accepts any float tau; run refuses it before any file
    ini = write_ini(tmp_path / "t.ini", f"[plan]\ntau = {tau}\n")
    parse_config(ini)
    assert main(["sample", "--preset", "sd2-ddim-40", "--config", ini,
                 "--seed-set", "0", "--out", str(tmp_path / "o")]) == 2
    assert "tau must be positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [
    ("bias", 1), ("bias", True), ("bias", "Refine"),
    ("interval", "AUTO"), ("interval", "none"), ("interval", (13, 39, 1)),
    ("interval", (13.0, 39)), ("interval", [13, 39]),
    ("r", 2.5), ("per_seed_wg", "no"), ("seeds", [0, 1]), ("tau", "0.1"),
    ("steps", 40.0), ("t_train", 1000.0), ("dim", True), ("jobs", "2"),
    ("seeds", "0,1"), ("seeds", (True, 2)), ("seeds", (0.5, 1)), ("seeds", ("1", 2)),
])
def test_run_refuses_wrongly_typed_bias_or_interval(tmp_path, field, value):
    # the INI parser never yields these; a config built in Python can
    with pytest.raises(ConfigError, match=field):
        cfg = replace(preset("sd2-ddim-40"), out=str(tmp_path / "o"),
                      **{"seeds": (0, 1), field: value})
        run(cfg, "sample")
    assert not (tmp_path / "o").exists()


def test_run_refuses_a_point_mu_that_is_not_numbers(tmp_path):
    cfg = replace(preset("sd2-ddim-40"), seeds=(0, 1), out=str(tmp_path / "o"),
                  kind="point", mu=("a",))
    with pytest.raises(ConfigError, match="mu must be a finite vector"):
        run(cfg, "sample")
    assert not (tmp_path / "o").exists()


def test_run_accepts_numpy_scalars_where_the_parser_yields_numbers(tmp_path):
    cfg = replace(preset("sd2-ddim-40"), seeds=(0, 1), out=str(tmp_path / "o"),
                  r=np.int64(2), tau=np.float64(0.1))
    assert "report.csv" in run(cfg, "sample").files


def test_config_checks_itself_when_built_or_replaced():
    # no unchecked ExperimentConfig exists for run to meet
    with pytest.raises(ConfigError, match="at least one seed"):
        replace(preset("sd2-ddim-40"), seeds=())
    with pytest.raises(ConfigError, match="unknown denoiser kind"):
        ExperimentConfig(kind="vae")


def test_cli_config_that_is_not_utf8_exit(tmp_path, capsys):
    ini = tmp_path / "l1.ini"
    ini.write_bytes("[run]\n# caf\xe9\nseeds = 0\n".encode("latin-1"))
    assert main(["sample", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("section", [
    "[schedule]\nt_train = 10000000000000000",   # 71 PiB of betas
    "[denoiser]\ndim = 10000000000000000",       # 213 PiB of mixture means
], ids=["t_train", "dim"])
def test_cli_sizes_that_cannot_be_allocated_exit_2(tmp_path, capsys, section):
    # 1e16 float64 entries exceed any address space, so the allocation
    # fails at once: one line, no traceback, and no output directory
    ini = write_ini(tmp_path / "m.ini", section + "\n")
    assert main(["sample", "--config", ini, "--seed-set", "0",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ltc: configuration error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_missing_out_exit(monkeypatch, capsys):
    monkeypatch.delenv("LTC_OUT", raising=False)
    assert main(["sample", "--seed-set", "0"]) == 2
    assert "output directory" in capsys.readouterr().err


def test_cli_numeric_error_exit(tmp_path, capsys):
    # scalar states admit no peak range, so PSNR is undefined
    ini = write_ini(tmp_path / "p.ini",
                    "[denoiser]\nkind = point\nmu = 0.5\n")
    rc = main(["sample", "--config", ini, "--seed-set", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("fault,code,err", [
    (ConfigError("c"), 2, "ltc: configuration error: c\n"),
    (NumericError("n"), 3, "ltc: numeric error: n\n"),
    (TraceError("t"), 4, "ltc: i/o error: t\n"),
    (OSError("o"), 4, "ltc: i/o error: o\n"),
    (KeyboardInterrupt(), 130, "ltc: interrupted\n"),
], ids=["config", "numeric", "trace", "os", "interrupt"])
def test_cli_interrupt_exit(tmp_path, monkeypatch, capsys, fault, code, err):
    # one exception class per exit code, and nothing else derives from LtcError
    assert set(LtcError.__subclasses__()) == {ConfigError, NumericError, TraceError}

    def failing(cfg, mode):
        raise fault

    monkeypatch.setattr(sys.modules["ltc_accel.cli"], "run", failing)
    rc = main(["sample", "--seed-set", "0", "--out", str(tmp_path / "o")])
    assert rc == code
    assert capsys.readouterr().err == err


def test_cli_io_error_exit(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["sample", "--preset", "sd2-ddim-40", "--seed-set", "0",
               "--out", str(blocker / "nested")])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_failed_write_check_exit(tmp_path, monkeypatch, capsys):
    write = os.write

    def corrupting(fd, data):  # the file system stores other bytes
        return write(fd, bytes(data).replace(b"0", b"1"))

    with monkeypatch.context() as m:
        m.setattr(os, "write", corrupting)
        rc = main(["angles", "--preset", "sd2-ddim-40", "--seed-set", "0",
                   "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("ltc: i/o error:") and "differs" in err
    assert "Traceback" not in err


def test_cli_plan_error_exit(tmp_path, capsys):
    # interval extends past the final iteration of a 20-step grid
    ini = write_ini(tmp_path / "e.ini", "[sampling]\nsteps = 20\n")
    rc = main(["sample", "--preset", "sd2-ddim-40", "--config", ini,
               "--seed-set", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_auto_interval_on_the_last_angle_alone_is_none(tmp_path, monkeypatch):
    # a run below tau on the final angle alone leaves nothing to approximate
    real = harness.angle_trace

    def last_only(traj):
        angles = np.full_like(real(traj), 0.5)
        angles[..., -1] = 0.0
        return angles

    monkeypatch.setattr(harness, "angle_trace", last_only)
    ini = write_ini(tmp_path / "a.ini", "[plan]\ninterval = auto\n")
    out = tmp_path / "o"
    assert main(["report", "--preset", "sd2-ddim-40", "--config", ini,
                 "--seed-set", "0", "1", "--out", str(out)]) == 0
    assert "result.interval=none" in manifest_lines(str(out))
    _, rows = read_csv(out / "report.csv", "report")
    assert len(rows) == 2 and all(row[1] == 40.0 for row in rows)


def _trace_cli_args(tmp_path, interval="3,5", seeds="0,1,2", r=2):
    manifest = _small_trace_config(tmp_path).manifest  # 3 seeds, t_train 24
    ini = write_ini(tmp_path / "t.ini", f"""
[schedule]
t_train = 24

[sampling]
steps = 6

[denoiser]
kind = trace
manifest = {manifest}

[plan]
interval = {interval}
r = {r}

[run]
seeds = {seeds}
""")
    return ["report", "--config", ini, "--out", str(tmp_path / "o")]


def test_cli_corrupt_trace_exit(tmp_path, capsys):
    args = _trace_cli_args(tmp_path)
    payload = tmp_path / "eps.f32"
    raw = bytearray(payload.read_bytes())
    raw[5] ^= 0xFF
    payload.write_bytes(bytes(raw))
    assert main(args) == 4
    assert "checksum" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.csv").exists()


@pytest.fixture
def overlapped(monkeypatch):
    # chunks of 16 of the small trace's 72 rows: its 1,152 bytes span more
    # than two chunks, so a run checks them on a thread while it samples
    monkeypatch.setattr(model, "_CHUNK", 256)


def test_cli_checksum_worker_failure_is_one_line(tmp_path, capsys, monkeypatch, overlapped):
    # zlib failing in the checker, off the calling thread: the CLI reports
    # it as any OSError, one line and no thread traceback
    args = _trace_cli_args(tmp_path)

    class OffThreadFailure:
        @staticmethod
        def crc32(data, value=0):
            if threading.current_thread() is not threading.main_thread():
                raise OSError("crc32 failed off the calling thread")
            return zlib.crc32(data, value)

    monkeypatch.setattr(model, "zlib", OffThreadFailure)
    assert main(args) == 4
    assert capsys.readouterr().err == (
        "ltc: i/o error: crc32 failed off the calling thread\n")


def _exits_4_with_nothing_made(tmp_path, capsys, args, message):
    # the checker is joined before the output directory is made, and always
    threads = threading.active_count()
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("ltc: i/o error: ") and message in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    assert threading.active_count() == threads


def test_cli_flipped_byte_in_a_row_not_kept_exits_4(tmp_path, capsys, overlapped):
    # the 6-step grid on t_train = 24 keeps t = 24, 20, ..., 4: step index
    # 1 (t = 23) of trace seed 0, 16 bytes in, is never sampled
    args = _trace_cli_args(tmp_path)
    payload = tmp_path / "eps.f32"
    raw = bytearray(payload.read_bytes())
    raw[16 + 1] ^= 0xFF
    payload.write_bytes(bytes(raw))
    _exits_4_with_nothing_made(tmp_path, capsys, args, "checksum mismatch")


def test_cli_checksum_wins_over_a_numeric_error_its_rows_caused(tmp_path, capsys, overlapped):
    # a NaN in the first row sampled (t = 24 of trace seed 0): with a
    # manifest that vouches for it the run fails in sampling (exit 3); with
    # the recorded checksum, sampling fails the same way before the join,
    # and the mismatch is what the CLI reports
    args = _trace_cli_args(tmp_path)
    manifest, payload = tmp_path / "eps.trace", tmp_path / "eps.f32"
    raw = bytearray(payload.read_bytes())
    raw[0:4] = np.array([np.nan], "<f4").tobytes()
    payload.write_bytes(bytes(raw))
    recorded = manifest.read_text(encoding="ascii")
    manifest.write_text(recorded.replace(
        recorded.split("crc32=")[1].strip(), f"{zlib.crc32(bytes(raw)):08x}"),
        encoding="ascii")
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("ltc: numeric error: ")
    assert not (tmp_path / "o").exists()
    manifest.write_text(recorded, encoding="ascii")
    _exits_4_with_nothing_made(tmp_path, capsys, args, "checksum mismatch")


def test_cli_kept_row_that_differs_from_the_checked_bytes_exits_4(tmp_path, capsys,
                                                                 monkeypatch, overlapped):
    # the first read of a kept row returns other bytes than the payload holds,
    # as a payload rewritten after that read would; the checker sums the kept
    # rows as they were read
    args = _trace_cli_args(tmp_path)
    preadv, reads = os.preadv, []

    def changing(fd, buffers, offset):
        n = preadv(fd, buffers, offset)
        if threading.current_thread() is threading.main_thread() and not reads:
            reads.append(offset)
            np.asarray(buffers[0]).view(np.uint8).reshape(-1)[0] ^= 0xFF
        return n

    monkeypatch.setattr(os, "preadv", changing)
    _exits_4_with_nothing_made(tmp_path, capsys, args, "checksum mismatch")
    assert reads == [0]


def test_cli_failing_read_in_the_checker_exits_4(tmp_path, capsys, monkeypatch, overlapped):
    args = _trace_cli_args(tmp_path)
    preadv = os.preadv

    def failing(fd, buffers, offset):
        if threading.current_thread() is not threading.main_thread():
            raise OSError(errno.EIO, "Input/output error")
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", failing)
    _exits_4_with_nothing_made(tmp_path, capsys, args,
                               "cannot read trace payload: [Errno 5] Input/output error")


@pytest.mark.parametrize("payload,size,implied", [
    ("sparse", 1 << 30, 1152), ("/dev/zero", 1153, 1152), ("empty", 0, 384 * 10**12)])
def test_cli_trace_payload_read_is_bounded(tmp_path, capsys, payload, size, implied):
    # a regular file of the wrong size is refused by its size, even when the
    # manifest implies 10**12 seeds, and a device by its type: none is read
    args = _trace_cli_args(tmp_path)
    manifest, data = tmp_path / "eps.trace", tmp_path / "eps.f32"
    os.truncate(data, size if payload != "/dev/zero" else 0)
    text = manifest.read_text(encoding="ascii")
    if payload == "/dev/zero":
        text = text.replace("data=eps.f32", f"data={payload}")
    if payload == "empty":
        text = text.replace("seeds=3", f"seeds={10**12}")
    manifest.write_text(text, encoding="ascii")
    tracemalloc.start()
    try:
        assert main(args) == 4
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (f"trace payload is {size} bytes, manifest implies {implied}"
            if payload != "/dev/zero" else "trace payload /dev/zero is not a regular file") in (
        capsys.readouterr().err)
    assert peak < 16 << 20


def test_cli_oversized_trace_manifest_exits_4(tmp_path, capsys):
    # 10**20 and 10**12 seeds of /dev/zero: refused by the payload's type
    # before anything is read or allocated
    args = _trace_cli_args(tmp_path)  # 384 payload bytes per seed
    manifest = tmp_path / "eps.trace"
    text = manifest.read_text(encoding="ascii").replace("data=eps.f32",
                                                        "data=/dev/zero")
    for seeds in (10**20, 10**12):
        manifest.write_text(text.replace("seeds=3", f"seeds={seeds}"),
                            encoding="ascii")
        tracemalloc.start()
        try:
            assert main(args) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == (
            "ltc: i/o error: trace payload /dev/zero is not a regular file\n")
        assert peak < 1 << 20


def test_cli_t_train_beyond_the_trace_exits_4(tmp_path, capsys):
    # a 30-step schedule asks the 24-step trace for t = 30 and t = 25
    args = _trace_cli_args(tmp_path)
    ini = tmp_path / "t.ini"
    ini.write_text(ini.read_text().replace("t_train = 24", "t_train = 30"))
    assert main(args) == 4
    assert "trace holds t values 1..24, got [30 25 20 15 10  5]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_trace_run_holds_less_than_its_payload(tmp_path, capsys):
    # a 10-step run keeps 10 of the trace's 1000 steps: its traced peak
    # stays below the 4.1 MB payload that it checksums
    write_trace(str(tmp_path / "big.trace"), np.random.default_rng(1).standard_normal(
        (4, 1000, 256), dtype=np.float32))
    ini = write_ini(tmp_path / "b.ini", f"""
[sampling]
steps = 10

[denoiser]
kind = trace
manifest = {tmp_path / "big.trace"}

[plan]
interval = 3,9

[run]
seeds = 0,1,2,3
""")
    tracemalloc.start()
    try:
        assert main(["sample", "--config", ini, "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1000 * 256 * 4
    capsys.readouterr()


def test_cli_trace_with_too_few_seeds_exit(tmp_path, capsys):
    assert main(_trace_cli_args(tmp_path, seeds="0,1,2,3")) == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_bad_interval_is_reported_before_trace_read(tmp_path, capsys):
    # a 6-step grid has no iteration 9; the trace is never opened
    args = _trace_cli_args(tmp_path, interval="5,9")
    os.remove(tmp_path / "eps.trace")
    assert main(args) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("interval", ["auto", "3,5"])
def test_cli_plan_error_wins_over_trace_error(tmp_path, capsys, interval):
    # the trace lacks seed 3 (exit 4); with r = 1 the plan is bad too, and
    # the plan is checked before the trace is read, under auto as well
    assert main(_trace_cli_args(tmp_path, interval, "0,1,2,3")) == 4
    assert "i/o error" in capsys.readouterr().err
    assert main(_trace_cli_args(tmp_path, interval, "0,1,2,3", r=1)) == 2
    assert "r must be at least 2" in capsys.readouterr().err


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


_line_chars = st.characters(max_codepoint=127, blacklist_characters="\n\r")


@st.composite
def _manifest_faults(draw):
    """(kind, detail) of one fault in the 3-seed trace of _trace_cli_args."""
    kind = draw(st.sampled_from(["missing", "duplicate", "integer", "crc",
                                 "truncated", "non-ascii", "data", "endian",
                                 "seed"]))
    keys = ["dim", "steps", "seeds", "data", "endian", "crc32"]
    detail = {
        "missing": st.sampled_from(keys),
        "duplicate": st.tuples(st.sampled_from(keys), st.booleans()),
        "integer": st.tuples(st.sampled_from(["dim", "steps", "seeds"]), st.one_of(
            st.integers(max_value=-1).map(str),
            st.text(_line_chars, max_size=8).filter(_not_an_int))),
        "crc": st.tuples(st.just("crc32"), st.text(_line_chars, max_size=10)),
        "truncated": st.integers(0, 3 * 24 * 4 * 4 - 1),
        "non-ascii": st.tuples(st.integers(0, 10**6), st.integers(0x80, 0xFF)),
        "data": st.tuples(st.just("data"), st.text(_line_chars, max_size=12).filter(
            lambda v: os.path.basename(v.strip()) != "eps.f32")),
        "endian": st.tuples(st.just("endian"), st.text(_line_chars, max_size=8).filter(
            lambda v: v.strip() != "little")),
        "seed": st.integers(3, 2**70),
    }[kind]
    return kind, draw(detail)


@settings(max_examples=150, deadline=None)
@example(fault=("non-ascii", (0, 0xE9)))
@example(fault=("data", ("data", "eps\x00.f32")))
@example(fault=("seed", 2**64))
@given(fault=_manifest_faults())
def test_cli_faulty_trace_manifest_exits_4(tmp_path_factory, fault):
    # every fault in a trace or in the seeds it is asked for is an i/o error
    # (exit 4) with a message, never a traceback
    kind, detail = fault
    tmp_path = tmp_path_factory.mktemp("fuzz")
    seeds = f"0,{detail}" if kind == "seed" else "0,1,2"
    args = _trace_cli_args(tmp_path, seeds=seeds)
    manifest, payload = tmp_path / "eps.trace", tmp_path / "eps.f32"
    lines = manifest.read_text(encoding="ascii").splitlines()
    fields = dict(line.split("=", 1) for line in lines)
    if kind == "missing":
        lines = [ln for ln in lines if not ln.startswith(detail + "=")]
    elif kind == "duplicate":
        key, same = detail
        lines.append(f"{key}={fields[key] if same else fields[key] + '0'}")
    elif kind in ("integer", "crc", "data", "endian"):
        key, value = detail
        if kind == "crc" and value.strip() == fields["crc32"]:
            return  # the right checksum after all
        lines = [f"{key}={value}" if ln.startswith(key + "=") else ln
                 for ln in lines]
    elif kind == "truncated":
        payload.write_bytes(payload.read_bytes()[:detail])
    raw = ("\n".join(lines) + "\n").encode("ascii")
    if kind == "non-ascii":
        at, byte = detail
        at %= len(raw) + 1
        raw = raw[:at] + bytes([byte]) + raw[at:]
    manifest.write_bytes(raw)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(args) == 4
    err = err.getvalue()
    assert err.startswith("ltc: i/o error: ") and "Traceback" not in err
    assert not (tmp_path / "o" / "report.csv").exists()


_BAD = ["0", "-1", "nan", "inf", "-inf"]
_cells = st.sampled_from(["0.5", "1", "-2", "3", *_BAD])


def _joined(lists, sep=","):
    return lists.map(lambda xs: sep.join(xs))


_rows = _joined(st.lists(_cells, min_size=1, max_size=3))
# ';'-separated rows, ragged when the row lengths differ
_matrices = _joined(st.lists(_rows, min_size=1, max_size=3), ";")

# (valid values, faulty values) a user can type for each config key but
# run.out. The faulty ones are zero, negative, NaN, inf, non-summing,
# wrong-count, ragged or unknown; sizes stay small: dim <= 64, steps <= 60,
# at most 4 seeds. The valid gmm values make a 2-component mixture in d = 1
# or d = 2, and the trace of _small_trace_config has t_train 24 and 3 seeds.
_INI_VALUES = {
    ("schedule", "t_train"): (["24", "1000"], ["-1", "0", "1", "2"]),
    ("schedule", "beta_start"): (["1e-4", "0.02"], ["1", *_BAD]),
    ("schedule", "beta_end"): (["0.02", "0.05"], ["1", "1e-5", *_BAD]),
    ("sampling", "steps"): (["6", "20", "40", "60"], ["-1", "0", "1", "2"]),
    ("denoiser", "kind"): (list(harness._KINDS), ["vae"]),
    ("denoiser", "dim"): (["1", "2", "16", "64"], ["-1", "0"]),
    ("denoiser", "mu"): (["0.5,-1", "1,2,3"], _joined(st.lists(_cells, max_size=4))),
    ("denoiser", "weights"): (["0.5,0.5", "0.3,0.7"],
                              st.sampled_from(["1", "0.5,0.6", "1,0"]) | _rows),
    ("denoiser", "means"): (["-1;1", "0,0;2,2"], _matrices),
    ("denoiser", "variances"): (["0.5;0.5", "1,1;1,1"], _matrices),
    ("denoiser", "manifest"): (["eps.trace"], ["absent.trace"]),
    ("plan", "interval"): (["auto", "none", "3,5", "13,39"],
                           ["0,4", "5,3", "2,99", "-1,4", "1.5,4", "inf,4"]),
    ("plan", "r"): (["2"], ["-1", "0", "1", "3"]),
    ("plan", "tau"): (["0.1", "0.15"], ["0.2", *_BAD]),
    ("plan", "bias"): (["refine", "0", "0.05"], ["-1", "nan", "inf"]),
    ("plan", "phi_mode"): ([m.value for m in harness.PhiMode], ["log_snr"]),
    ("plan", "per_seed_wg"): (["true", "false"], ["maybe"]),
    ("plan", "calibration_seed"): (["-1", "0"], ["-2", "3", "99"]),
    ("bias", "lo"): (["-0.05", "0"], ["0.2", *_BAD]),
    ("bias", "hi"): (["0.10", "0"], ["-0.1", *_BAD]),
    ("bias", "search"): (["grid", "binary"], ["random"]),
    ("run", "seeds"): (["0", "0,1", "2,0,1"], _joined(
        st.lists(st.integers(-1, 5).map(str), max_size=4))),
    ("run", "jobs"): (["1", "2"], ["-1", "0"]),
}


@st.composite
def _config_values(draw):
    """Every [denoiser] key and some others with valid values, and up to two
    keys with faulty ones."""
    keys = sorted(_INI_VALUES)
    faulty = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    present = set(draw(st.lists(st.sampled_from(keys), unique=True)))
    present |= {k for k in keys if k[0] == "denoiser"}
    values = {}
    for key in sorted(present) + faulty:
        valid, bad = _INI_VALUES[key]
        bad = bad if isinstance(bad, st.SearchStrategy) else st.sampled_from(bad)
        values[key] = draw(bad if key in faulty else st.sampled_from(valid))
    return values


@settings(max_examples=150, deadline=None)
@example(values={("denoiser", "kind"): "point", ("denoiser", "mu"): "nan"},
         mode="sample")
@example(values={("denoiser", "kind"): "gmm", ("denoiser", "weights"): "0.5,0.5",
                 ("denoiser", "means"): "0;1,2", ("denoiser", "variances"): "1;1"},
         mode="sample")
@example(values={("denoiser", "dim"): "0"}, mode="refine")
@given(values=_config_values(), mode=st.sampled_from(harness.MODES))
def test_cli_fuzzed_config_never_tracebacks(tmp_path_factory, values, mode):
    # any config a user can type ends in exit 0, 2, 3 or 4 with a message
    assert set(_INI_VALUES) == set(harness._KEYS) - {("run", "out")}
    tmp_path = tmp_path_factory.mktemp("cfg")
    _small_trace_config(tmp_path)  # eps.trace
    values = {**values, ("run", "out"): "o"}
    sections: dict = {}
    for (section, key), value in values.items():
        if key in ("manifest", "out"):
            value = str(tmp_path / value)
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    ini = write_ini(tmp_path / "c.ini", "".join(
        f"[{sec}]\n" + "".join(lines) for sec, lines in sections.items()))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main([mode, "--config", ini])
    err = err.getvalue()
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert rc == 0 or err.startswith("ltc: ")
