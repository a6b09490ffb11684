"""Command-line interface.

    cfsim run --config cfg.yaml [--drops N] [--seed S]
              [--preset paper|desk|mmimo|desk-mmimo] [--out DIR] [--jobs J]
    cfsim validate --config cfg.yaml
    cfsim oracle <fourth-moment|uatf-dl|uatf-ul> [--seed S]

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import PRESETS, SimConfig, load_config
from .errors import CfsimError, ConfigError, NumericsError


def _resolve_config(args):
    base = None
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}", field="--preset")
        base = PRESETS[args.preset]()
    if getattr(args, "config", None):
        cfg = load_config(args.config, base=base)
    elif base is not None:
        cfg = base
    else:
        cfg = SimConfig()
    overrides = {}
    if getattr(args, "drops", None) is not None:
        overrides["drops"] = args.drops
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def cmd_run(args):
    import os

    from .harness import emit_cdf, run_campaign

    cfg = _resolve_config(args)
    debug_dir = os.path.join(args.out, "debug") if args.dump_debug else None
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


def _oracle_fourth_moment(seed):
    from .mc import fourth_moment_check

    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(3):
        n = 4
        beta = rng.uniform(0.5, 2.0)
        rice = rng.uniform(0.0, 5.0)
        phases = rng.uniform(0, 2 * np.pi, n)
        steering = np.exp(1j * phases)
        D = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sampled, stderr, analytic = fourth_moment_check(
            beta, rice, steering, D, 200_000, rng
        )
        dev = abs(sampled - analytic) / stderr
        worst = max(worst, dev)
        print(
            f"fourth-moment trial {trial}: sampled={sampled:.6g} "
            f"analytic={analytic:.6g} |dev|={dev:.2f} stderr"
        )
    if worst > 4.0:
        raise NumericsError(f"fourth-moment oracle deviates by {worst:.1f} stderr")
    return 0


def _oracle_uatf(seed, link):
    from .association import associate_cf
    from .channel import build_large_scale
    from .estimation import assign_pilots, build_estimation
    from .geometry import generate_topology
    from .mc import uatf_dl_mc, uatf_ul_mc
    from .power import fpc_ul, ppa_dl
    from .se import build_se_tables, dl_sinr_lb, se_from_sinr, ul_sinr_lb

    cfg = PRESETS["desk"]()
    from dataclasses import replace

    cfg = replace(cfg, n_ap=3, n_ap_antennas=2, n_gue=2, n_uav=2,
                  frame=replace(cfg.frame, tau_p=2))
    rng = np.random.default_rng(seed)
    geom = generate_topology(cfg, rng)
    ls = build_large_scale(cfg, geom, rng)
    book = assign_pilots(cfg.n_users, 2, rng)
    assoc = associate_cf(cfg.n_ap, cfg.n_users)
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.sigma_w2)
    tables = build_se_tables(ls, est, book, assoc)
    budgets = np.full(cfg.n_ap, cfg.power.dl_budget_per_ap_w)
    n_samples = 100_000
    if link == "dl":
        eta = ppa_dl(tables.gamma, tables.serving, budgets)
        prelog = cfg.frame.tau_d / cfg.frame.tau_c
        closed = se_from_sinr(dl_sinr_lb(tables, eta, cfg.sigma_z2), prelog)
        mc = uatf_dl_mc(ls, est, book, assoc.serving, eta, cfg.sigma_z2, prelog,
                        n_samples, rng)
    else:
        p_max = np.full(cfg.n_users, cfg.power.ul_max_w)
        eta = fpc_ul(est.G, assoc.serving, p_max, cfg.power.fpc.p0_watts,
                     cfg.power.fpc.alpha)
        prelog = cfg.frame.tau_u / cfg.frame.tau_c
        closed = se_from_sinr(ul_sinr_lb(tables, eta, cfg.sigma_w2), prelog)
        mc = uatf_ul_mc(ls, est, book, assoc.serving, eta, prelog, n_samples, rng)
    worst = 0.0
    for k in range(cfg.n_users):
        dev = abs(closed[k] - mc.se[k]) / mc.se_stderr[k]
        worst = max(worst, dev)
        print(
            f"uatf-{link} user {k}: closed={closed[k]:.6f} sampled={mc.se[k]:.6f} "
            f"(stderr {mc.se_stderr[k]:.2e}, |dev|={dev:.2f})"
        )
    if worst > 4.0:
        raise NumericsError(f"uatf-{link} oracle deviates by {worst:.1f} stderr")
    return 0


def cmd_oracle(args):
    if args.name == "fourth-moment":
        return _oracle_fourth_moment(args.seed)
    if args.name in {"uatf-dl", "uatf-ul"}:
        return _oracle_uatf(args.seed, args.name.split("-")[1])
    raise ConfigError(f"unknown oracle {args.name!r}", field="oracle")


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

    orc = sub.add_parser("oracle", help="run a named MC oracle check")
    orc.add_argument("name", choices=["fourth-moment", "uatf-dl", "uatf-ul"])
    orc.add_argument("--seed", type=int, default=0)
    orc.set_defaults(func=cmd_oracle)
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


if __name__ == "__main__":
    sys.exit(main())
