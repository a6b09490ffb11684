"""Command-line interface.

    cfsim run --config cfg.yaml [--drops N] [--seed S]
              [--preset paper|desk|mmimo|desk-mmimo] [--out DIR] [--jobs J]
              [--dump-debug]
    cfsim validate --config cfg.yaml

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import PRESETS, SimConfig, load_config
from .errors import CfsimError, ConfigError, NumericsError
from .harness import emit_cdf, mirror_threshold, run_campaign


def _resolve_config(args):
    cfg = PRESETS[args.preset]() if args.preset else SimConfig()
    if args.config:
        cfg = load_config(args.config, base=cfg)
    overrides = {}
    if args.drops is not None:
        overrides["drops"] = args.drops
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def cmd_run(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _resolve_config(args)
    debug_dir = os.path.join(args.out, "debug") if args.dump_debug else None
    try:  # before any drop runs, not after the whole campaign
        os.makedirs(debug_dir or args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot make directory {exc.filename}: {exc.strerror}") from exc
    result = run_campaign(
        cfg, n_drops=cfg.drops, master_seed=cfg.seed, jobs=args.jobs,
        debug_dir=debug_dir,
    )
    written = emit_cdf(result, args.out)
    for role in ("gue", "uav"):
        pct = result.percentiles(role, "ul", "lb")
        if pct:
            print(
                f"{role} UL LB rates [Mbit/s]: "
                f"99%-likely {pct[1] / 1e6:.3f}, median {pct[50] / 1e6:.3f}, "
                f"95th {pct[95] / 1e6:.3f}"
            )
    if cfg.mc.ub_samples > 0:
        worst = max(result.reports, key=lambda rep: rep.mirror_z)
        print(f"UB mirror vs closed-form LB: max |z| {worst.mirror_z:.2f} at drop "
              f"{worst.drop_id}; {sum(rep.mirror_over for rep in result.reports)} user-links "
              f"above {mirror_threshold(cfg):.2f}, the 0.1% family-wise t threshold at "
              f"mc.batch_count {cfg.mc.batch_count}")
    mm = cfg.power.maxmin
    for link, bound in (("dl", f" (power.maxmin.max_outer_iters {mm.max_outer_iters}, "
                               f"max_inner_iters {mm.max_inner_iters})"), ("ul", "")):
        stopped = [rep.drop_id for rep in result.reports
                   if not rep.power_info[link].get("converged", True)]
        if stopped:
            print(f"{link.upper()} max-min did not converge on {len(stopped)} of "
                  f"{len(result.reports)} drops, first drop {stopped[0]}{bound}")
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_validate(args):
    cfg = load_config(args.config)
    print("config OK:", args.config)
    print(
        f"  {cfg.n_ap} APs x {cfg.n_ap_antennas} antennas, "
        f"{cfg.n_gue} GUEs + {cfg.n_uav} UAVs, "
        f"tau_c={cfg.frame.tau_c}, tau_p={cfg.frame.tau_p}"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="cfsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation campaign")
    run.add_argument("--config", help="YAML config file")
    run.add_argument("--preset", choices=sorted(PRESETS), help="base preset")
    run.add_argument("--drops", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default="out")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument(
        "--dump-debug", action="store_true",
        help="write per-drop diagnostic CSVs (beta/gamma tables, serving map, solver traces)",
    )
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="schema-check a config file")
    val.add_argument("--config", required=True)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CfsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

