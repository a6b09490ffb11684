"""Write the reference outputs the benchmark's correctness gate compares against.

    python3 perfbench/make_reference.py [--workload NAME ...] [--toy] [--out DIR]

Runs each workload's campaign once (jobs=1, threads pinned to 1) and stores
every drop's per-user LB and UB spectral efficiencies with full precision.
The committed files in perfbench/reference/ were made this way from the
commit that introduced the benchmark; regenerate them only when a change is
meant to alter the simulator's outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import MASTER_SEED, WORKLOADS, build_config, pin_threads

pin_threads()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cfsim import __version__  # noqa: E402
from cfsim.harness import run_campaign  # noqa: E402

FIELDS = ("se_lb_dl", "se_lb_ul", "se_ub_dl", "se_ub_ul", "se_ub_dl_stderr", "se_ub_ul_stderr")


def reference(name, toy=False):
    config, n_drops = build_config(name, toy=toy)
    result = run_campaign(config, n_drops=n_drops, master_seed=MASTER_SEED, jobs=1)
    fields = FIELDS if config.mc.ub_samples > 0 else FIELDS[:2]
    return {
        "workload": name,
        "toy": toy,
        "master_seed": MASTER_SEED,
        "cfsim_version": __version__,
        "drops": [
            {"drop_id": rep.drop_id, **{f: getattr(rep, f).tolist() for f in fields}}
            for rep in result.reports
        ],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--out", default=os.path.join(HERE, "reference"))
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(reference(name, toy=args.toy), fh)
            fh.write("\n")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
