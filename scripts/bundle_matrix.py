"""Write a fixed matrix of 68 run bundles and print the digest of every file.

Usage: python scripts/bundle_matrix.py OUT_DIR

Runs ``ltc_accel.harness.run`` from this checkout's ``src/`` on:

* the 5 presets x 6 modes;
* a ``kind = trace`` config x 6 modes, plus ``sample`` with
  ``bias = refine``, ``refine`` with ``per_seed_wg``, and ``report`` with
  ``per_seed_wg``, ``interval = auto`` and ``bias = refine``;
* ``interval = auto`` x 6 modes, plus ``sample`` with ``bias = refine``,
  and ``report`` with a tau no angle reaches (``result.interval=none``);
* ``per_seed_wg`` ``refine``, and ``fig2-trace`` ``report`` with
  ``bias = refine``;
* ``bias_search = binary`` ``refine`` and ``sample``;
* ``interval = none`` x 6 modes;
* a numeric bias on ``refine`` and ``report``;
* a non-default ``calibration_seed`` on ``report``, ``refine`` and an
  ``auto`` ``sample``;
* ``sd2-ddim-40`` with the seeds 3 and 2**64 - 1 on ``report`` and
  ``ablate-skip``, whose Seed cells numpy would not hold as int64.
* a ``kind = point`` and an explicit ``kind = gmm`` denoiser on ``report``
  and ``refine``, so the manifest lines of ``mu``, ``weights``, ``means``
  and ``variances`` are checked too.

Each bundle lands in OUT_DIR/<name>/, and one line ``<name>/<file>
<sha256>`` is printed per file of each bundle, ``manifest.txt`` included,
in sorted order. So two checkouts wrote byte-identical bundles exactly
when their printed lines are equal, and a difference names the file:

    python scripts/bundle_matrix.py /tmp/a > a.txt   # in one checkout
    python scripts/bundle_matrix.py /tmp/b > b.txt   # in the other
    diff a.txt b.txt

The trace config reads OUT_DIR/input/eps.trace through the relative path
``input/eps.trace`` (the script works inside OUT_DIR), so its manifests
do not depend on OUT_DIR.
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ltc_accel.harness import (  # noqa: E402
    MODES, PRESETS, ExperimentConfig, benchmark_gmm, run)
from ltc_accel.model import write_trace  # noqa: E402
from ltc_accel.sampler import ddim_step, initial_noise  # noqa: E402
from ltc_accel.schedule import build_linear_beta  # noqa: E402

TRACE = os.path.join("input", "eps.trace")


def record_trace(path: str, t_train: int = 200, dim: int = 16,
                 seeds: int = 3) -> None:
    """Noise predictions of the benchmark mixture along full-resolution
    DDIM runs from initial_noise(dim, k), t = t_train .. 1."""
    schedule = build_linear_beta(t_train)
    den = benchmark_gmm(schedule, dim)
    data = np.empty((seeds, t_train, dim), dtype=np.float32)
    for k in range(seeds):
        x = initial_noise(dim, k)
        for row, t in enumerate(range(t_train, 0, -1)):
            eps = den.epsilon_hat(x, t)
            data[k, row] = eps
            x = ddim_step(x, eps, schedule, t, t - 1)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_trace(path, data)


def matrix() -> list[tuple[str, ExperimentConfig, str]]:
    """(name, config, mode) of every bundle, in output order."""
    out = [(f"{p}-{m}", PRESETS[p], m) for p in sorted(PRESETS) for m in MODES]
    trace = ExperimentConfig(t_train=200, kind="trace", manifest=TRACE,
                             seeds=(2, 0, 1), jobs=2)
    out += [(f"trace-{m}", trace, m) for m in MODES]
    out += [
        ("trace-sample-bias-refine", replace(trace, bias="refine"), "sample"),
        ("trace-refine-per-seed", replace(trace, per_seed_wg=True), "refine"),
        ("trace-report-per-seed-auto-refine",
         replace(trace, per_seed_wg=True, interval="auto", bias="refine"),
         "report"),
    ]
    auto = replace(PRESETS["sd2-ddim-40"], interval="auto", tau=0.15,
                   seeds=tuple(range(6)))
    out += [(f"auto-{m}", auto, m) for m in MODES]
    out += [("auto-none", replace(auto, tau=1e-9), "report")]
    fig4 = PRESETS["fig4-bias"]
    out += [
        ("auto-sample-bias-refine", replace(auto, bias="refine"), "sample"),
        ("per-seed-refine", replace(fig4, per_seed_wg=True, seeds=(3, 1, 4, 0)),
         "refine"),
        ("fig2-trace-report-bias-refine",
         replace(PRESETS["fig2-trace"], bias="refine"), "report"),
        ("binary-refine", replace(fig4, bias_search="binary",
                                  seeds=tuple(range(5))), "refine"),
        ("binary-sample", replace(fig4, bias_search="binary",
                                  seeds=tuple(range(5))), "sample"),
    ]
    none = replace(fig4, interval=None, seeds=(0, 1, 2))
    out += [(f"none-{m}", none, m) for m in MODES]
    out += [
        ("numeric-bias-refine", replace(fig4, bias=0.03), "refine"),
        ("numeric-bias-report", replace(fig4, bias=0.03), "report"),
    ]
    cal = replace(PRESETS["sd2-ddim-40"], seeds=(5, 2, 7), calibration_seed=7)
    out += [
        ("cal-seed-report", cal, "report"),
        ("cal-seed-refine", replace(fig4, seeds=(5, 2, 7), calibration_seed=7),
         "refine"),
        ("cal-seed-auto-sample", replace(cal, interval="auto", tau=0.15),
         "sample"),
    ]
    wide = replace(PRESETS["sd2-ddim-40"], seeds=(3, 2**64 - 1))
    out += [(f"wide-seed-{m}", wide, m) for m in ("report", "ablate-skip")]
    point = ExperimentConfig(kind="point", mu=(1.0, -0.5, 2.0, 0.25),
                             seeds=(0, 1, 2))
    gmm = ExperimentConfig(kind="gmm", weights=(0.6, 0.4),
                           means=((-1.0, 0.5, 2.0), (1.5, -0.5, 0.0)),
                           variances=((0.3, 0.2, 0.5), (0.4, 0.6, 0.2)),
                           seeds=(0, 1, 2))
    out += [(f"{name}-{m}", cfg, m) for name, cfg in (("point", point), ("gmm", gmm))
            for m in ("report", "refine")]
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    os.makedirs(argv[1], exist_ok=True)
    os.chdir(argv[1])
    record_trace(TRACE)
    for name, cfg, mode in matrix():
        run(replace(cfg, out=name), mode)
        for file in sorted(os.listdir(name)):
            with open(os.path.join(name, file), "rb") as f:
                print(f"{name}/{file}", hashlib.sha256(f.read()).hexdigest(),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
