"""Harness and CLI behavior: config parsing, presets, mode bundles,
byte-level determinism, exit codes."""

import configparser
import hashlib
import multiprocessing.process
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from ltc_accel import (
    AccelerationPlan,
    ConfigError,
    DiagGmmDenoiser,
    ExperimentConfig,
    accelerated_sample,
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
from ltc_accel import harness
from ltc_accel.cli import main
from ltc_accel.harness import PRESETS
from ltc_accel.metrics import read_csv


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
    ("[plan]\nbias = maybe\n", "bias"),
    ("[plan]\nper_seed_wg = probably\n", "boolean"),
    ("[denoiser]\nkind = point\n", "requires mu"),
    ("[denoiser]\nkind = gmm\n", "requires weights"),
    ("[denoiser]\nkind = trace\n", "requires manifest"),
    ("[denoiser]\nkind = vae\n", "unknown denoiser kind"),
    ("[run]\nseeds = 1,1\n", "distinct"),
    ("[run]\nseeds =\n", "at least one seed"),
    ("[run]\njobs = 0\n", "jobs"),
    ("[plan]\nphi_mode = log_snr\n", "phi_mode"),
    ("[bias]\nsearch = random\n", "search"),
    ("[bias]\nlo = 0.2\nhi = 0.1\n", "bias interval"),
    ("[plan]\ncalibration_seed = 99\n", "calibration_seed"),
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


def test_fingerprint_ignores_out_and_jobs():
    a = ExperimentConfig()
    b = replace(a, out="/elsewhere", jobs=8)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != replace(a, steps=50).fingerprint()


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
    # Rows evaluated: 2 reference runs (80) + calibration (40) + 31 bias
    # probes per seed (11 grid, zero, 19 golden), each resuming after the 12
    # shared real steps (2 * 31 * 15) + the final accelerated runs (2 * 27);
    # the final rows reuse the search's two reference runs
    assert sum(calls) == 80 + 40 + 930 + 54
    # Calls: both seeds are one batch, so each step above is one call
    assert len(calls) == 40 + 40 + 31 * 15 + 27
    monkeypatch.undo()

    # From scratch: every grid bias re-runs both chains on every seed.
    sched = build_linear_beta(cfg.t_train, cfg.beta_start, cfg.beta_end)
    ts = make_timesteps(cfg.t_train, cfg.steps)
    den = benchmark_gmm(sched, cfg.dim)
    plan = AccelerationPlan(interval=cfg.interval)
    plan = plan.with_wg(calibrate_wg(den, sched, initial_noise(den.dim, 0),
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
    rc = main(["sample", "--preset", "sd2-ddim-40",
               "--seed-set", "0", "1", "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode=sample" in out and "report.csv" in out
    assert (tmp_path / "o" / "manifest.txt").exists()


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


def test_cli_interrupt_exit(tmp_path, monkeypatch, capsys):
    def interrupted(cfg, mode):
        raise KeyboardInterrupt

    monkeypatch.setattr(sys.modules["ltc_accel.cli"], "run", interrupted)
    rc = main(["sample", "--seed-set", "0", "--out", str(tmp_path / "o")])
    assert rc == 130
    assert capsys.readouterr().err == "ltc: interrupted\n"


def test_cli_io_error_exit(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["sample", "--preset", "sd2-ddim-40", "--seed-set", "0",
               "--out", str(blocker / "nested")])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_plan_error_exit(tmp_path, capsys):
    # interval extends past the final iteration of a 20-step grid
    ini = write_ini(tmp_path / "e.ini", "[sampling]\nsteps = 20\n")
    rc = main(["sample", "--preset", "sd2-ddim-40", "--config", ini,
               "--seed-set", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def _trace_cli_args(tmp_path, interval="3,5", seeds="0,1,2"):
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


def test_cli_trace_with_too_few_seeds_exit(tmp_path, capsys):
    assert main(_trace_cli_args(tmp_path, seeds="0,1,2,3")) == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_bad_interval_is_reported_before_trace_read(tmp_path, capsys):
    # a 6-step grid has no iteration 9; the trace is never opened
    args = _trace_cli_args(tmp_path, interval="5,9")
    os.remove(tmp_path / "eps.trace")
    assert main(args) == 2
    assert "configuration error" in capsys.readouterr().err
