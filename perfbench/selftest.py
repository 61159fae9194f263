"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It measures every workload once at minimal length, with tracing off and
on, printing every metric of BENCHMARK.json with its unit. Then it
corrupts the outputs of a checked run in several ways and confirms that
the output check catches each one. Exit code 0 when all of that holds,
1 otherwise, 2 when there is no ltc_accel package under src/.
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil
import sys

import run as entry


def _flip_byte(out_dir: str, name: str) -> None:
    path = os.path.join(out_dir, name)
    with open(path, "r+b") as f:
        first = f.read(1)
        f.seek(0)
        f.write(bytes([first[0] ^ 1]))


def _rewrite_report(out_dir: str, column: str, change) -> None:
    """Change one report.csv column and re-sign the manifest, so that only
    the content checks, not the digests, can catch it."""
    path = os.path.join(out_dir, "report.csv")
    with open(path, newline="", encoding="ascii") as f:
        rows = list(csv.reader(f))
    col = rows[0].index(column)
    for row in rows[1:]:
        row[col] = repr(change(float(row[col])))
    with open(path, "w", newline="", encoding="ascii") as f:
        csv.writer(f).writerows(rows)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, encoding="ascii") as f:
        lines = [f"file.report.csv={digest}" if ln.startswith("file.report.csv=")
                 else ln for ln in f.read().splitlines()]
    with open(manifest, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


# (label, corruption of an output directory, whether it re-signs the manifest)
CORRUPTIONS = (
    ("a flipped byte in a CSV",
     lambda d: _flip_byte(d, "psnr_summary.csv"), False),
    ("NFE off by one",
     lambda d: _rewrite_report(d, "NFE", lambda v: v + 1), True),
    ("end error above the limit",
     lambda d: _rewrite_report(d, "End Error (%)", lambda v: 50.0), True),
    ("PSNR below the zero-bias PSNR",
     lambda d: _rewrite_report(d, "PSNR", lambda v: v - 10.0), True),
)


def corruption_failures(work_dir: str) -> list[str]:
    """Corruptions of a passing refine-gmm16 run that the check missed."""
    import bench
    from workloads import WORKLOADS, check_outputs, read_manifest

    workload = WORKLOADS["refine-gmm16"]
    runner = bench.Runner(workload, 0, work_dir, bench.Outcomes())
    if runner.attempt() is None:
        return ["the uncorrupted run failed its check: "
                + "; ".join(runner.outcomes.problems)]
    missed = []
    for i, (label, corrupt, resigned) in enumerate(CORRUPTIONS):
        out = os.path.join(work_dir, f"corrupt{i}")
        shutil.copytree(runner.cfg.out, out)
        corrupt(out)
        reference = read_manifest(out) if resigned else runner.reference_manifest
        problems = check_outputs(workload, out, reference,
                                 runner.zero_bias_psnr)
        print(f"# corrupted: {label} -> {'; '.join(problems) or 'NOT CAUGHT'}")
        if not problems:
            missed.append(f"check missed {label}")
    return missed


def main() -> int:
    if not entry.import_package():
        print(f"selftest: no ltc_accel package under {entry.SRC}", file=sys.stderr)
        return entry.EXIT_NO_PACKAGE
    from workloads import WORKLOADS

    spec = entry.load_spec()
    failures = []
    for name in WORKLOADS:
        for trace in (False, True):
            print(f"## {name} --trace {int(trace)}")
            result = entry.measure(name, 0, 0.0, trace, spec)
            section = spec["per_layer" if trace else "end_to_end"]
            if not result["correct"]:
                failures.append(f"{name} trace={int(trace)}: outputs failed")
            if set(result["metrics"]) != {m["name"] for m in section}:
                failures.append(f"{name} trace={int(trace)}: metrics differ")
    work_dir = os.path.join(entry.OUT, f"selftest-{os.getpid()}")
    try:
        failures += corruption_failures(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in failures:
        print(f"selftest: FAIL {failure}")
    print("selftest: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
