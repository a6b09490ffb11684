"""Workload definitions shared by the benchmark worker and the reference maker.

Each workload is a preset plus config overrides, as a user would pass them
with ``cfsim run --preset <preset> --config <overrides.yaml>``. Every workload
runs master seed 1, the seed its stored reference outputs were made with.
"""

from __future__ import annotations

import os

MASTER_SEED = 1

# BLAS/OpenMP pools pinned to one thread: runs are single-core and comparable.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Set every THREAD_VARS to 1; call before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


WORKLOADS = {
    # Campaign shape behind the paper's LB CDFs: large-scale, estimation and
    # SE tables do the work; mc and max-min do none.
    "paper-lb": {
        "preset": "paper",
        "overrides": {"mc": {"ub_samples": 0}},
        "drops": 4,
    },
    # Sampled upper bound at paper scale, 100-sample batches: mc dominates
    # time and the batch size sets peak memory.
    "paper-ub": {
        "preset": "paper",
        "overrides": {"mc": {"ub_samples": 200, "batch_count": 2}},
        "drops": 1,
    },
    # Same overrides as configs/maxmin.yaml on the desk preset: the SLSQP
    # block solver dominates.
    "desk-maxmin": {
        "preset": "desk",
        "overrides": {"power": {"dl": "maxmin", "ul": "maxmin"}, "mc": {"ub_samples": 0}},
        "drops": 1,
    },
}

# Toy sizes for the smoke test: desk shape, 2 drops, 64 UB samples, and a
# max-min solver cut to a few iterations so every code path runs in seconds.
TOY_OVERRIDES = {
    "paper-lb": {"mc": {"ub_samples": 0}},
    "paper-ub": {"mc": {"ub_samples": 64, "batch_count": 2}},
    "desk-maxmin": {
        "power": {
            "dl": "maxmin",
            "ul": "maxmin",
            "maxmin": {"max_outer_iters": 1, "max_inner_iters": 2},
        },
        "mc": {"ub_samples": 0},
    },
}
TOY_DROPS = 2


def build_config(name, toy=False):
    """Return (SimConfig, n_drops) for a workload."""
    from cfsim.config import PRESETS, config_from_dict

    if toy:
        return config_from_dict(TOY_OVERRIDES[name], base=PRESETS["desk"]()), TOY_DROPS
    spec = WORKLOADS[name]
    return config_from_dict(spec["overrides"], base=PRESETS[spec["preset"]]()), spec["drops"]
