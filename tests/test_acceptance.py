"""Acceptance gate: nine criteria with pinned tolerances.

Each test records a verdict line; conftest prints the table after the
run. Tolerances are fixed here, not imported, so a library change that
moves a measured quantity fails loudly.
"""

import hashlib
import math
import os
import time
from dataclasses import replace

import numpy as np

from ltc_accel import (
    AccelerationPlan,
    NoiseSchedule,
    PointMassDenoiser,
    RecordedTraceDenoiser,
    accelerated_sample,
    angle_trace,
    benchmark_gmm,
    build_linear_beta,
    calibrate_wg,
    detect_interval,
    end_error,
    golden_section_max,
    initial_noise,
    make_timesteps,
    nfe_speedup,
    preset,
    psnr,
    read_trace,
    refine_bias,
    run,
    sample_full,
    sample_skipping,
    wg_closed_form,
    write_trace,
)
from ltc_accel.ltc import _search_bias

from conftest import read_csv

VERDICTS = {}

# Regression constant: cross-seed wg band over the second half of the
# interval, measured once on the frozen benchmark (10 seeds, interval
# (12, 38), per-seed calibration) at 0.016901 and pinned with ~0.6%
# headroom for reduction-order noise.
WG_BAND_CEILING = 0.017

SCHED = build_linear_beta(1000)
TS40 = make_timesteps(1000, 40)
BENCH = benchmark_gmm(SCHED)


def record(n, ok, detail):
    VERDICTS[n] = (bool(ok), detail)
    return bool(ok)


def test_criterion_1_wg_optimality_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        d_true = rng.standard_normal(8)
        d_prev2 = rng.standard_normal(8)
        g = float(rng.uniform(0.5, 2.0))
        closed = wg_closed_form(d_true, d_prev2, g)

        def objective(w):
            r = d_true - (w * g) * d_prev2
            return -float(r @ r)

        reach = float(np.linalg.norm(d_true)
                      / (g * np.linalg.norm(d_prev2))) + 1.0
        gold, _ = golden_section_max(lambda ws: [objective(w) for w in ws],
                                     -reach, reach, tol=1e-8)
        worst = max(worst, abs(closed - gold))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 5.0
    record(1, ok, f"closed-form wg vs golden-section minimizer, 1000 pairs: "
                  f"max |dw| = {worst:.2e} (< 1e-6) in {dt:.1f}s (< 5s)")
    assert ok


def test_criterion_2_error_bound():
    t0 = time.perf_counter()
    tau = 0.15
    worst_gap = -math.inf
    cond_ok = True
    n_steps = 0
    for seed in range(20):
        x0 = initial_noise(16, seed)
        trace = angle_trace(sample_full(BENCH, SCHED, x0, TS40))
        interval = detect_interval(trace, tau)
        assert interval is not None
        plan = AccelerationPlan(interval=interval, r=2)
        cal = calibrate_wg(BENCH, SCHED, x0, TS40, plan)
        for i, eps_r in cal.eps_r.items():
            theta = cal.theta[i]
            worst_gap = max(worst_gap, eps_r - math.sin(theta) ** 2)
            if theta <= tau:
                cond_ok = cond_ok and eps_r <= tau * tau
            n_steps += 1
    dt = time.perf_counter() - t0
    ok = n_steps > 0 and worst_gap <= 1e-9 and cond_ok and dt < 60.0
    record(2, ok, f"eps_r <= sin^2(theta) + 1e-9 at {n_steps}/{n_steps} "
                  f"approximated steps (max gap {worst_gap:.1e}) and "
                  f"eps_r <= tau^2 whenever theta <= tau; "
                  f"20 seeds in {dt:.1f}s (< 60s)")
    assert ok


def test_criterion_3_nfe_speedup_goldens():
    cases = [(40, (13, 39), 26, 1.538),
             (50, (11, 49), 30, 1.667),
             (100, (21, 99), 60, 1.667)]
    got = []
    ok = True
    for steps, interval, nfe_want, ratio_want in cases:
        ts = make_timesteps(1000, steps)
        plan = AccelerationPlan(interval=interval)
        x0 = initial_noise(16, 0)
        cal = calibrate_wg(BENCH, SCHED, x0, ts, plan)
        acc = accelerated_sample(BENCH, SCHED, x0, ts, replace(plan, wg=cal.wg))
        ratio = nfe_speedup(steps, acc.nfe)
        got.append(f"{steps}it->{acc.nfe}nfe/{ratio:.3f}x")
        ok = ok and acc.nfe == nfe_want
        ok = ok and len(acc.approximated) == steps - nfe_want
        ok = ok and abs(ratio - ratio_want) <= 1e-3
    record(3, ok, "exact NFE counts and speedups within 1e-3: "
                  + ", ".join(got) + " (want 26/1.538, 30/1.667, 60/1.667)")
    assert ok


def test_criterion_4_skipping_ablation():
    t0 = time.perf_counter()
    plan = AccelerationPlan(interval=(13, 39))
    skipped = set(plan.selected())
    wins = 0
    for seed in range(50):
        x0 = initial_noise(16, seed)
        full = sample_full(BENCH, SCHED, x0, TS40)
        cal = calibrate_wg(BENCH, SCHED, x0, TS40, plan)
        acc = accelerated_sample(BENCH, SCHED, x0, TS40, replace(plan, wg=cal.wg))
        skip = sample_skipping(BENCH, SCHED, x0, TS40, skipped)
        assert acc.nfe == skip.nfe  # matched positions give equal NFE
        wins += psnr(full.final, acc.final) > psnr(full.final, skip.final)
    dt = time.perf_counter() - t0
    ok = wins >= 40 and dt < 120.0
    record(4, ok, f"extrapolation beats skipping in {wins}/50 seeds "
                  f"(need >= 40) at equal NFE, {dt:.1f}s (< 2 min)")
    assert ok


def test_criterion_5_end_to_end_error():
    plan = AccelerationPlan(interval=(12, 38))
    sel = plan.selected()
    assert len(sel) == 13  # 13 of 40 iterations approximated (32.5%)
    cal = calibrate_wg(BENCH, SCHED, initial_noise(16, 0), TS40, plan)
    p = replace(plan, wg=cal.wg)
    rels = []
    for seed in range(20):
        x0 = initial_noise(16, seed)
        full = sample_full(BENCH, SCHED, x0, TS40)
        acc = accelerated_sample(BENCH, SCHED, x0, TS40, p)
        rels.append(end_error(full.final, acc.final)[1])
    med = float(np.median(rels))
    ok = med <= 10.0
    record(5, ok, f"13/40 iterations approximated: median relative end "
                  f"error {med:.2f}% over 20 seeds (<= 10%)")
    assert ok


def test_ltc_beats_uniform_ddim_at_equal_nfe():
    # sd2-ddim-40 at d = 16: LTC's 26 NFE against a uniform 26-step DDIM,
    # each scored by relative L2 distance from a 1000-step run's end state,
    # the sampler's converged endpoint (the criteria score against the
    # same-grid full run instead)
    plan = AccelerationPlan(interval=(13, 39))
    plan = replace(plan, wg=calibrate_wg(BENCH, SCHED, initial_noise(16, 0), TS40, plan).wg)
    x0 = np.stack([initial_noise(16, seed) for seed in range(50)])
    ref = sample_full(BENCH, SCHED, x0, make_timesteps(1000, 1000)).final
    acc = accelerated_sample(BENCH, SCHED, x0, TS40, plan)
    ddim = sample_full(BENCH, SCHED, x0, make_timesteps(1000, 26))
    assert acc.nfe.tolist() == ddim.nfe.tolist() == [26] * 50
    ltc_err, ddim_err = end_error(ref, acc.final)[1], end_error(ref, ddim.final)[1]
    wins = int(np.sum(ltc_err < ddim_err))
    assert wins >= 40, f"LTC closer in {wins} of 50 seeds (need >= 40)"
    assert np.median(ltc_err) < np.median(ddim_err)


def test_criterion_6_bias_refinement(tmp_path):
    # analytic concave stub: argmax at 0.02
    stub_ok = True
    stub_err = 0.0
    for mode in ("grid", "binary"):
        res = _search_bias(lambda b: (40.0 - 100.0 * (b - 0.02) ** 2)[:, None],
                           -0.05, 0.10, mode=mode)
        stub_err = max(stub_err, abs(res.bias - 0.02))
        stub_ok = stub_ok and abs(res.bias - 0.02) <= 1e-4

    # real objective on the benchmark: refined never below unbiased
    plan = AccelerationPlan(interval=(12, 38))
    x0 = initial_noise(16, 0)
    cal = calibrate_wg(BENCH, SCHED, x0, TS40, plan)
    res = refine_bias(BENCH, SCHED, sample_full(BENCH, SCHED, x0[None], TS40),
                      replace(plan, wg=cal.wg))
    at_zero = [v for b, v in res.evaluations if b == 0.0]
    zero_ok = bool(at_zero) and res.psnr >= at_zero[0] - 1e-9

    # harness sweep: single local maximum within a 0.5 dB noise band
    cfg = replace(preset("fig4-bias"), out=str(tmp_path))
    run(cfg, "refine")
    _, rows = read_csv(tmp_path / "psnr_summary.csv", "psnr_summary")
    vals = [r[1] for r in rows]
    k = int(np.argmax(vals))
    band_ok = all(vals[j + 1] >= vals[j] - 0.5 for j in range(k)) and \
        all(vals[j + 1] <= vals[j] + 0.5 for j in range(k, len(vals) - 1))

    ok = stub_ok and zero_ok and band_ok
    record(6, ok, f"stub argmax recovered to {stub_err:.1e} (<= 1e-4, both "
                  f"modes); PSNR(bias*) >= PSNR(0); benchmark sweep unimodal "
                  f"within 0.5 dB (peak at grid index {k})")
    assert ok


def test_criterion_7_wg_convergence():
    plan = AccelerationPlan(interval=(12, 38))
    sel = plan.selected()
    table = []
    for seed in range(10):
        cal = calibrate_wg(BENCH, SCHED, initial_noise(16, seed), TS40, plan)
        table.append([cal.wg[i] for i in sel])
    w = np.asarray(table)
    band = w.max(axis=0) - w.min(axis=0)
    first_two = float(band[:2].max())
    second_half = float(band[len(sel) // 2:].max())
    ok = second_half <= first_two and second_half <= WG_BAND_CEILING
    record(7, ok, f"cross-seed wg band: second half {second_half:.4f} <= "
                  f"first two accelerated iterations {first_two:.4f} and "
                  f"<= frozen ceiling {WG_BAND_CEILING}")
    assert ok


def test_criterion_8_exactness_degeneracies(tmp_path):
    # (a) point mass: both runs end at mu
    mu = np.random.default_rng(5).normal(size=8)
    point = PointMassDenoiser(mu, SCHED)
    x0 = initial_noise(8, 123)
    plan = AccelerationPlan(interval=(13, 39))
    full = sample_full(point, SCHED, x0, TS40)
    cal = calibrate_wg(point, SCHED, x0, TS40, plan)
    acc = accelerated_sample(point, SCHED, x0, TS40, replace(plan, wg=cal.wg))
    dev_mu = max(float(np.abs(full.final - mu).max()),
                 float(np.abs(acc.final - mu).max()))
    point_ok = dev_mu <= 1e-6

    # (b) empty interval reproduces the full run bit for bit
    xb = initial_noise(16, 0)
    fb = sample_full(BENCH, SCHED, xb, TS40)
    eb = accelerated_sample(BENCH, SCHED, xb, TS40, AccelerationPlan(interval=None))
    empty_ok = np.array_equal(fb.states, eb.states) and fb.nfe == eb.nfe

    # (c) linear drift trace with affine phi: wg = 1 despite f32 storage
    phi_lo, h, t_train, delta = 0.03, 5e-4, 24, 1.0
    phi_mid = phi_lo + h * (t_train / 2)
    growth = h / (phi_mid * (1 + phi_mid * phi_mid))
    c0 = delta / growth - (t_train / 2) * delta
    ab = np.empty(t_train + 1)
    ab[0] = 1.0
    for t in range(1, t_train + 1):
        p = phi_lo + h * (t_train - t)
        ab[t] = p * p / (1.0 + p * p)
    drift_sched = NoiseSchedule.from_alpha_bar(ab)
    u = np.array([1.0, 0.5, -0.25, 2.0])
    ts = np.arange(t_train, -1, -1)
    rows = np.empty((1, t_train, 4), dtype="<f4")
    for j in range(t_train):
        t_hi, t_lo = int(ts[j]), int(ts[j + 1])
        a_j = np.sqrt(ab[t_lo] / ab[t_hi])
        b_j = np.sqrt(1.0 - ab[t_lo]) - a_j * np.sqrt(1.0 - ab[t_hi])
        c_j = c0 + j * delta
        s = ((c_j + delta) - a_j * c_j) / b_j
        rows[0, j] = (s * u).astype(np.float32)
    man = os.path.join(tmp_path, "drift.trace")
    write_trace(man, rows)
    den = RecordedTraceDenoiser(read_trace(man)[1], 0)
    cal = calibrate_wg(den, drift_sched, c0 * u, ts,
                       AccelerationPlan(interval=(5, 23)))
    dev_wg = max(abs(w - 1.0) for w in cal.wg.values())
    drift_ok = len(cal.wg) == 10 and dev_wg <= 1e-9

    ok = point_ok and empty_ok and drift_ok
    record(8, ok, f"point-mass endpoints at mu (dev {dev_mu:.1e} <= 1e-6); "
                  f"empty interval bit-identical to full sampling; "
                  f"drift-trace wg within {dev_wg:.1e} of 1.0 (<= 1e-9)")
    assert ok


def test_criterion_9_determinism(tmp_path):
    def digests(d):
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
        return out

    base = replace(preset("sd2-ddim-40"), seeds=(0, 1, 2))
    run(replace(base, out=str(tmp_path / "a")), "report")
    run(replace(base, out=str(tmp_path / "b")), "report")
    report_ok = digests(tmp_path / "a") == digests(tmp_path / "b")

    bias_cfg = replace(preset("fig4-bias"), seeds=(0, 1))
    run(replace(bias_cfg, out=str(tmp_path / "c")), "refine")
    run(replace(bias_cfg, out=str(tmp_path / "d")), "refine")
    refine_ok = digests(tmp_path / "c") == digests(tmp_path / "d")

    n_files = len(digests(tmp_path / "a")) + len(digests(tmp_path / "c"))
    ok = report_ok and refine_ok
    record(9, ok, f"reruns byte-identical across {n_files} emitted files "
                  f"(report and refine bundles)")
    assert ok
