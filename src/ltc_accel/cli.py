"""Command line front end.

One subcommand per harness mode. Settings layer as preset < config file
< command line flags. Exit codes: 0 success, 2 configuration problems,
3 numeric failures, 4 I/O failures, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import ConfigError, NumericError, TraceError
from .harness import MODES, PRESETS, ExperimentConfig, parse_config, preset, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltc",
        description="Training-free accelerated sampling experiments on "
                    "analytically solvable denoisers.",
    )
    sub = parser.add_subparsers(dest="mode", required=True, metavar="mode")
    descriptions = {
        "angles": "record per-iteration transition angles over full runs",
        "calibrate": "measure per-iteration wg scales with shadow real steps",
        "sample": "compare accelerated runs against full runs",
        "refine": "sweep and refine the wg bias, then report at the best value",
        "ablate-skip": "compare acceleration against skipping the same iterations",
        "report": "angles + calibrate + sample in one bundle",
    }
    for mode in MODES:
        p = sub.add_parser(mode, help=descriptions[mode])
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="start from a canned experiment")
        p.add_argument("--config", metavar="FILE",
                       help="INI file overriding the preset or the defaults")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (falls back to $LTC_OUT)")
        p.add_argument("--jobs", type=int, metavar="N",
                       help="no effect; every seed runs in-process")
        p.add_argument("--seed-set", type=int, nargs="+", metavar="SEED",
                       help="explicit seeds, overriding preset and config")
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = preset(args.preset) if args.preset else ExperimentConfig()
    if args.config:
        cfg = parse_config(args.config, base=cfg)
    overrides = {}
    if args.seed_set is not None:
        overrides["seeds"] = tuple(args.seed_set)
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    out = args.out or cfg.out or os.environ.get("LTC_OUT", "")
    if not out:
        raise ConfigError("no output directory: pass --out, set run.out "
                          "in the config, or export LTC_OUT")
    overrides["out"] = out
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        report = run(cfg, args.mode)
    except (ConfigError, MemoryError) as e:  # MemoryError: sizes too large to hold
        print(f"ltc: configuration error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"ltc: numeric error: {e}", file=sys.stderr)
        return 3
    except (TraceError, OSError) as e:
        print(f"ltc: i/o error: {e}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("ltc: interrupted", file=sys.stderr)
        return 130
    print(f"mode={args.mode} seeds={len(cfg.seeds)} "
          f"fingerprint={cfg.fingerprint()[:12]}")
    if report.bias is not None:
        print(f"bias={report.bias!r}")
    for name in sorted(report.files):
        print(os.path.join(cfg.out, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
