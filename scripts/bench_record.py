"""Bench two checkouts against each other and write one JSON record.

Usage: python scripts/bench_record.py PARENT_DIR CHANGE_DIR OUT_JSON [PAIRS [SECONDS]]

For every workload named in CHANGE_DIR/BENCHMARK.json and workload seeds
1..PAIRS (default 10), runs

    python3 perfbench/run.py --workload W --seed i --seconds SECONDS --trace 0

once in each checkout (SECONDS defaults to 10), the parent first for odd i
and the change first for even i, so that drift of the host's speed hits
both sides alike. OUT_JSON gets, per workload and side, the median and
the first and third quartiles of every end-to-end metric, the failed and
attempted run counts, and the seeds used; plus the Python and numpy
versions and nproc that the runs report. Progress goes to stderr.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys


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


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv) -> int:
    if len(argv) not in (4, 5, 6):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = {"parent": os.path.abspath(argv[1]),
             "change": os.path.abspath(argv[2])}
    pairs = int(argv[4]) if len(argv) > 4 else 10
    seconds = float(argv[5]) if len(argv) > 5 else 10.0
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    record = {"pairs": pairs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = {side: [] for side in sides}
        seeds = list(range(1, pairs + 1))
        for seed in seeds:
            order = list(sides) if seed % 2 else list(reversed(list(sides)))
            for side in order:
                metrics, failed, attempted, info = bench(
                    sides[side], workload, seed, seconds)
                runs[side].append((metrics, failed, attempted))
                for key in ("python", "numpy", "nproc"):
                    record.setdefault(key, info[key])
                print(f"{workload} seed {seed} {side}: "
                      f"run_s {metrics['run_s']:.4f}", file=sys.stderr)
        record["workloads"][workload] = {"seeds": seeds, **{
            side: {
                "failed": sum(r[1] for r in rs),
                "attempted": sum(r[2] for r in rs),
                "metrics": {name: summary([r[0][name] for r in rs])
                            for name in rs[0][0]},
            } for side, rs in runs.items()}}
    with open(argv[3], "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
