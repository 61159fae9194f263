"""Bench two checkouts against each other and write one JSON record.

Usage: python scripts/bench_record.py PARENT_DIR CHANGE_DIR OUT_JSON [PAIRS [SECONDS]]
       python scripts/bench_record.py --wall-speedup CHECKOUT_DIR
       python scripts/bench_record.py --counts CHECKOUT_DIR
       python scripts/bench_record.py --read-trace CHECKOUT_DIR
       python scripts/bench_record.py --epsilon-hat CHECKOUT_DIR

For every workload named in CHANGE_DIR/BENCHMARK.json and workload seeds
1..PAIRS (default 10), runs

    python3 perfbench/run.py --workload W --seed i --seconds SECONDS --trace 0

once in each checkout (SECONDS defaults to 10), the parent first for odd i
and the change first for even i, so that drift of the host's speed hits
both sides alike. OUT_JSON gets, per workload and side, the median, the
first and third quartiles and the per-pair values ("pairs", in seed order) of
every end-to-end metric, the failed and attempted run counts, and the
seeds used; per workload, under "change_won", the number of pairs in
which the change beat the parent on each metric, by its "better"
direction in CHANGE_DIR/BENCHMARK.json (a tie is not a win); plus the
Python and numpy versions and nproc that the runs report. Progress goes
to stderr.

Next to perfbench's peak_rss_mb, each run of a pair also records
own_peak_mb (lower is better): the workload's own peak, VmHWM in MiB of a
fresh interpreter that runs the workload's config once for that seed, on
an input that another fresh interpreter recorded. perfbench's figure is
the larger of the workload's peak and that of the bench process, which
ru_maxrss carries across execve.

OUT_JSON also gets each side's wall_speedup, from WALL_ROUNDS rounds of
`--wall-speedup`, in alternating order. That mode imports CHECKOUT_DIR's
src/ in-process and, at each point of WALL_POINTS (a preset's grid and
plan at a benchmark-mixture dimension, 20 seeds as one batch), times
interleaved pairs of sample_full and accelerated_sample with a wg that
calibrate_wg measured on the first seed. Each side has its own
denoiser object, so neither sees the other's per-t cache. It prints, per
point, nfe_speedup (the NFE ratio), the ratio of the two minimum times
and the quartiles of the per-pair ratios full / accelerated.

OUT_JSON also gets each side's denoiser counts, which do not depend on
the machine, from `--counts`. That mode runs CHECKOUT_DIR's harness once
on each of COUNT_POINTS (a preset, a mode and a bias search), and once on
trace-wide's own input and config at workload seed 1, and prints the
number of batched epsilon_hat calls and the rows they evaluated.

OUT_JSON also gets each side's read_trace timing, from READ_TRACE_ROUNDS
rounds of `--read-trace`, in alternating order. That mode writes a
float32 trace of each of READ_TRACE_SHAPES (trace-wide's shape, and
64-byte rows) with CHECKOUT_DIR's write_trace and times, in-process and
interleaved, READ_TRACE_CALLS full reads and as many grid-selected reads
(the t values of a READ_TRACE_GRID-step grid, as a run reads them), after
one dropped warm-up pair. It prints the median, the quartiles and the
minimum in ms, per shape and read.

OUT_JSON also gets each side's epsilon_hat timing, from EPS_ROUNDS
rounds of `--epsilon-hat`, in alternating order. That mode imports
CHECKOUT_DIR's src/ in-process and, at each of EPS_POINTS (an (S, d)
batch of benchmark-mixture states: S = 1, 10 and 20 at d = 16, and 8
rows at d = 1024; the mixture has k = 3 components), times EPS_CALLS
calls of epsilon_hat that cycle over the t's of the sd2-ddim-40 grid,
as a run does, after one dropped warm-up pass over the grid. It prints
the median, the quartiles and the minimum in us per call.

OUT_JSON also gets each side's src_lines, the line count of its
src/ltc_accel/*.py, which aim 2 of ROADMAP.md tracks.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# (preset, dim, pairs): the three sd2 presets at the benchmark dimension,
# and the headline preset on a mixture too large to keep every t cached
WALL_POINTS = (("sd2-ddim-40", 16, 300), ("sd2-ddim-50", 16, 300),
               ("sd2-ddim-100", 16, 300), ("sd2-ddim-40", 1024, 60))
WALL_ROUNDS = 2
WALL_SEEDS = 20
# (preset, mode, bias search): the bias search in both modes, and the
# headline report
COUNT_POINTS = (("fig4-bias", "refine", "grid"), ("fig4-bias", "refine", "binary"),
                ("sd2-ddim-40", "report", "grid"))
# (seeds, steps, dim): trace-wide's shape, and 64-byte rows
READ_TRACE_SHAPES = ((8, 1000, 1024), (20, 1000, 16))
READ_TRACE_GRID = 100
READ_TRACE_CALLS = 150
READ_TRACE_ROUNDS = 4
# (rows, dim): the batches a run calls on the benchmark mixture
EPS_POINTS = ((1, 16), (10, 16), (20, 16), (8, 1024))
EPS_CALLS = 2000
EPS_ROUNDS = 4


def bench(checkout: str, workload: str, seed: int, seconds: float):
    """(metrics name -> value, failed, attempted, '# key = value' lines)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    info = dict(line[2:].split(" = ", 1) for line in lines
                if line.startswith("# ") and " = " in line)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, result["failed"], result["attempted"], info


# Run in a fresh interpreter from a checkout's root: one run of a workload's
# config (argv: workload, seed, out dir, trace manifest or ""), then VmHWM in kB.
OWN_PEAK = """\
import sys
sys.path[:0] = ["src", "perfbench"]
from ltc_accel import run
from workloads import WORKLOADS, config
w = WORKLOADS[sys.argv[1]]
run(config(w, int(sys.argv[2]), sys.argv[3], sys.argv[4]), w.mode)
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")))
"""
RECORD_INPUT = """\
import sys
sys.path[:0] = ["src", "perfbench"]
from workloads import record_trace
record_trace(sys.argv[1], int(sys.argv[2]))
"""


def own_peak_mb(checkout: str, workload: str, seed: int) -> float:
    """VmHWM in MiB of a fresh interpreter that runs WORKLOAD's config once
    for SEED on CHECKOUT (see the module docstring)."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = ""
        if workload == "trace-wide":
            manifest = os.path.join(tmp, "input", "eps.trace")
            os.mkdir(os.path.dirname(manifest))
            subprocess.run([sys.executable, "-c", RECORD_INPUT, manifest, str(seed)],
                           cwd=checkout, check=True)
        out = subprocess.run(
            [sys.executable, "-c", OWN_PEAK, workload, str(seed),
             os.path.join(tmp, "run"), manifest],
            cwd=checkout, capture_output=True, text=True, check=True).stdout
    return int(out.split()[-1]) / 1024.0


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wall_speedup(checkout: str) -> dict:
    """point name -> nfe_speedup, min times and ratios, measured in-process
    on CHECKOUT's src/ (see the module docstring)."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    import numpy as np
    from ltc_accel.harness import PRESETS, benchmark_gmm
    from ltc_accel.ltc import AccelerationPlan, accelerated_sample, calibrate_wg
    from ltc_accel.sampler import initial_noise, make_timesteps, sample_full
    from ltc_accel.schedule import PhiMode, build_linear_beta

    out = {}
    for preset, dim, pairs in WALL_POINTS:
        cfg = PRESETS[preset]
        schedule = build_linear_beta(cfg.t_train, cfg.beta_start, cfg.beta_end)
        ts = make_timesteps(cfg.t_train, cfg.steps)
        x = np.stack([initial_noise(dim, seed) for seed in range(WALL_SEEDS)])
        plan = AccelerationPlan(interval=cfg.interval, r=cfg.r,
                                phi_mode=PhiMode(cfg.phi_mode))
        plan = dataclasses.replace(plan, wg=calibrate_wg(
            benchmark_gmm(schedule, dim), schedule, x[0], ts, plan).wg)
        full_den, acc_den = benchmark_gmm(schedule, dim), benchmark_gmm(schedule, dim)
        times = {"full": [], "accelerated": []}
        for k in range(pairs + 1):  # pair 0 warms both sides and is dropped
            for name in (times if k % 2 else reversed(list(times))):
                start = time.perf_counter()
                if name == "full":
                    sample_full(full_den, schedule, x, ts)
                else:
                    traj = accelerated_sample(acc_den, schedule, x, ts, plan)
                times[name].append(time.perf_counter() - start)
        full, acc = times["full"][1:], times["accelerated"][1:]
        ratios = [f / a for f, a in zip(full, acc)]
        out[f"{preset}-d{dim}"] = {
            "pairs": pairs,
            "nfe_speedup": (len(ts) - 1) * WALL_SEEDS / int(traj.nfe.sum()),
            "full_min_s": min(full), "accelerated_min_s": min(acc),
            "ratio_of_minima": min(full) / min(acc),
            "paired_ratio": summary(ratios)}
    return out


def denoiser_counts(checkout: str) -> dict:
    """point name -> batched epsilon_hat calls and rows evaluated by one
    run of CHECKOUT's harness (see the module docstring)."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import numpy as np
    from ltc_accel.harness import PRESETS, run
    from ltc_accel.model import DiagGmmDenoiser, RecordedTraceDenoiser
    from workloads import WORKLOADS, config, record_trace

    rows = []

    def counting(epsilon_hat):
        def counted(self, x, t):
            rows.append(len(np.atleast_2d(x)))
            return epsilon_hat(self, x, t)
        return counted

    for cls in (DiagGmmDenoiser, RecordedTraceDenoiser):
        cls.epsilon_hat = counting(cls.epsilon_hat)
    out = {}

    def count(name, mode, cfg):
        rows.clear()
        run(cfg, mode)
        out[name] = {"calls": len(rows), "rows": sum(rows)}

    with tempfile.TemporaryDirectory() as tmp:
        for preset, mode, search in COUNT_POINTS:
            name = f"{preset}-{mode}-{search}"
            count(name, mode, dataclasses.replace(
                PRESETS[preset], bias_search=search, out=os.path.join(tmp, name)))
        manifest = os.path.join(tmp, "input", "eps.trace")
        os.mkdir(os.path.dirname(manifest))
        record_trace(manifest, 1)
        trace_wide = WORKLOADS["trace-wide"]
        count("trace-wide-sample", trace_wide.mode,
              config(trace_wide, 1, os.path.join(tmp, "trace-wide"), manifest))
    return out


def read_trace_ms(checkout: str) -> dict:
    """Per shape and read, median, quartiles and minimum in ms of CHECKOUT's
    read_trace (see the module docstring)."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    import numpy as np
    from ltc_accel.model import read_trace, write_trace
    from ltc_accel.sampler import make_timesteps

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for shape in READ_TRACE_SHAPES:
            manifest = os.path.join(tmp, "eps.trace")
            write_trace(manifest, np.random.default_rng(0).standard_normal(
                shape, dtype=np.float32))
            ts = make_timesteps(shape[1], READ_TRACE_GRID)[:-1]
            reads = {"full": (manifest,), "grid": (manifest, ts)}
            times = {name: [] for name in reads}
            for _ in range(READ_TRACE_CALLS + 1):  # the first pair warms up, dropped
                for name, args in reads.items():
                    start = time.perf_counter()
                    read_trace(*args)
                    times[name].append(1e3 * (time.perf_counter() - start))
            for name, t in times.items():
                out["x".join(map(str, shape)) + "-" + name] = {
                    "calls": READ_TRACE_CALLS, "min_ms": min(t[1:]),
                    **{f"{k}_ms": v for k, v in summary(t[1:]).items()}}
    return out


def src_lines(checkout: str) -> int:
    """Lines of CHECKOUT's src/ltc_accel/*.py."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "ltc_accel", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def epsilon_hat_us(checkout: str) -> dict:
    """point name -> median, quartiles and minimum in us per call of
    CHECKOUT's epsilon_hat (see the module docstring)."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    import numpy as np
    from ltc_accel.harness import PRESETS, benchmark_gmm
    from ltc_accel.sampler import initial_noise, make_timesteps
    from ltc_accel.schedule import build_linear_beta

    cfg = PRESETS["sd2-ddim-40"]
    schedule = build_linear_beta(cfg.t_train, cfg.beta_start, cfg.beta_end)
    ts = [int(t) for t in make_timesteps(cfg.t_train, cfg.steps)[:-1]]
    out = {}
    for rows, dim in EPS_POINTS:
        den = benchmark_gmm(schedule, dim)
        x = np.stack([initial_noise(dim, seed) for seed in range(rows)])
        times = []
        for k in range(len(ts) + EPS_CALLS):  # the first pass warms up, dropped
            t = ts[k % len(ts)]
            start = time.perf_counter()
            den.epsilon_hat(x, t)
            times.append(1e6 * (time.perf_counter() - start))
        kept = times[len(ts):]
        out[f"S{rows}-d{dim}"] = {"calls": EPS_CALLS, "min_us": min(kept),
                                  **{f"{k}_us": v for k, v in summary(kept).items()}}
    return out


def main(argv) -> int:
    modes = {"--wall-speedup": wall_speedup, "--counts": denoiser_counts,
             "--read-trace": read_trace_ms, "--epsilon-hat": epsilon_hat_us}
    if len(argv) == 3 and argv[1] in modes:
        json.dump(modes[argv[1]](os.path.abspath(argv[2])), sys.stdout, indent=1,
                  sort_keys=True)
        return 0
    if len(argv) not in (4, 5, 6):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = {"parent": os.path.abspath(argv[1]),
             "change": os.path.abspath(argv[2])}
    pairs = int(argv[4]) if len(argv) > 4 else 10
    seconds = float(argv[5]) if len(argv) > 5 else 10.0
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    better["own_peak_mb"] = "lower"
    record = {"pairs": pairs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in sides}
        seeds = list(range(1, pairs + 1))
        for seed in seeds:
            order = list(sides) if seed % 2 else list(reversed(list(sides)))
            for side in order:
                metrics, failed, attempted, info = bench(
                    sides[side], workload, seed, seconds)
                metrics["own_peak_mb"] = own_peak_mb(sides[side], workload, seed)
                runs[side].append((metrics, failed, attempted))
                for key in ("python", "numpy", "nproc"):
                    record.setdefault(key, info[key])
                print(f"{workload} seed {seed} {side}: "
                      f"run_s {metrics['run_s']:.4f} "
                      f"peak_rss_mb {metrics['peak_rss_mb']:.1f} "
                      f"own_peak_mb {metrics['own_peak_mb']:.1f}", file=sys.stderr)
        values = {side: {name: [r[0][name] for r in rs] for name in rs[0][0]}
                  for side, rs in runs.items()}
        won = {name: sum(c < p if better[name] == "lower" else c > p
                         for p, c in zip(values["parent"][name], values["change"][name]))
               for name in values["change"] if name in better}
        record["workloads"][workload] = {"seeds": seeds, "change_won": won, **{
            side: {
                "failed": sum(r[1] for r in rs),
                "attempted": sum(r[2] for r in rs),
                "metrics": {name: {**summary(v), "pairs": v}
                            for name, v in values[side].items()},
            } for side, rs in runs.items()}}
    for key, flag, rounds in (("wall_speedup", "--wall-speedup", WALL_ROUNDS),
                              ("read_trace", "--read-trace", READ_TRACE_ROUNDS),
                              ("epsilon_hat", "--epsilon-hat", EPS_ROUNDS)):
        record[key] = {side: [] for side in sides}
        for k in range(rounds):
            for side in (sides if k % 2 == 0 else reversed(list(sides))):
                print(f"{key} round {k + 1} {side}", file=sys.stderr)
                record[key][side].append(json.loads(subprocess.run(
                    [sys.executable, os.path.abspath(__file__), flag, sides[side]],
                    capture_output=True, text=True, check=True).stdout))
    record["src_lines"] = {side: src_lines(path) for side, path in sides.items()}
    record["denoiser_counts"] = {side: json.loads(subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--counts", path],
        capture_output=True, text=True, check=True).stdout)
        for side, path in sides.items()}
    with open(argv[3], "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
