"""Run one workload once in this fresh process and print its peak RSS.

Usage: rss_child.py WORKLOAD SEED OUT_DIR [TRACE_MANIFEST]

Prints one JSON line {"peak_rss_mb": ...}: the larger of this process's
peak resident set and that of its largest waited-for child (the pool
workers at jobs=2).
"""

import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ltc_accel import run  # noqa: E402
from workloads import WORKLOADS, config  # noqa: E402


def main(argv) -> int:
    name, seed, out = argv[1], int(argv[2]), argv[3]
    manifest = argv[4] if len(argv) > 4 else ""
    workload = WORKLOADS[name]
    run(config(workload, seed, out, manifest), workload.mode)
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"peak_rss_mb": kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
