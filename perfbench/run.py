"""Benchmark of ltc_accel: one workload, one workload seed, one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload report-gmm16 --seed 0 --seconds 20 --trace 0

It imports the package from ``src/`` of the same checkout and drives
``ltc_accel.harness.run(cfg, mode)`` in-process. ``--trace 0`` times warm
runs with tracing off and reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports its per-layer metrics from traced
runs and micro points. Every metric is printed as ``name = value unit``;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Work files go to ``.bench_out/`` under the
checkout; the spans of a traced run and one JSON record per invocation
stay there, everything else is removed on exit.

Exit codes: 0 measured (see "correct"), 1 the measurement itself failed,
2 no ltc_accel package under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXIT_NO_PACKAGE = 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def import_package() -> bool:
    """Put this checkout's src/ first on sys.path and import ltc_accel from it."""
    pkg = os.path.join(SRC, "ltc_accel")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    import ltc_accel
    return os.path.dirname(os.path.abspath(ltc_accel.__file__)) == pkg


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    """Measure and print every metric; returns the result object."""
    import bench
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    section = spec["per_layer" if trace else "end_to_end"]
    work_dir = os.path.join(OUT, f"{workload.name}-seed{seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        if trace:
            metrics, outcomes, info, tracer = bench.measure_layers(
                workload, seed, seconds, work_dir, [m["name"] for m in section])
            spans = os.path.join(OUT, f"spans-{workload.name}.csv")
            tracer.write_spans(spans)
            info["spans"] = os.path.relpath(spans, ROOT)
        else:
            metrics, outcomes, info = bench.measure_end_to_end(
                workload, seed, seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for key in ("python", "numpy", "nproc", "loadavg", "seeds", "steps",
                "dim", "trace_bytes", "jobs"):
        print(f"# {key} = {info[key]}")
    if trace:
        print(f"# per-layer split from {info['traced_runs']} traced runs at "
              f"jobs={info['traced_jobs']} (spans in pool workers are lost); "
              f"{info['untraced_runs']} untraced runs at the same jobs; "
              f"spans in {info['spans']}")
        for name, t in info["layers"].items():
            print(f"# span {name}: calls = {t['calls']}, self_s = {t['self_s']!r}")
    else:
        print(f"# run_s over {info['samples']} samples; run_s_tail is "
              f"p{info['tail_percentile']:.1f}; both scaled to a "
              f"{bench.REFERENCE_S * 1e3:g} ms reference kernel, which took "
              f"{info['kernel_s'] * 1e3:.3f} ms here; unscaled wall "
              f"run_s = {info['wall_run_s']!r} s, "
              f"run_s_tail = {info['wall_run_s_tail']!r} s")
    for problem in outcomes.problems:
        print(f"# FAILED {problem}")
    print(f"failed_frac = {info['failed_frac']!r} ratio "
          f"({outcomes.failed}/{outcomes.attempted})")
    for m in section:
        print(f"{m['name']} = {metrics[m['name']]!r} {m['unit']}")

    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps({"info": info, "result": result}) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_package():
        print(f"perfbench: no ltc_accel package under {SRC}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     load_spec())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
