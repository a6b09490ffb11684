"""Property test: any perturbation of a tiny desk-shaped config either runs one
drop to finite outputs or is rejected with ConfigError (never a bare
exception, a hang or a NaN)."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfsim.config import config_from_dict, preset_desk
from cfsim.errors import ConfigError
from cfsim.harness import run_drop

TINY = config_from_dict({
    "n_ap": 4, "n_ap_antennas": 2, "n_gue": 3, "n_uav": 1, "drops": 1,
    "frame": {"tau_p": 2},
    "power": {"maxmin": {"max_outer_iters": 2, "max_inner_iters": 5}},
    "mc": {"ub_samples": 0, "batch_count": 2},
}, base=preset_desk())

# invalid values: validate() must reject each with ConfigError
_EDGE_FLOATS = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]
# finite values whose derived power (noise variance, FPC P0) leaves the float range
_EXTREMES = [1e300, -1e300, 1e-300]


def _floats(lo, hi, extremes=False):
    """Values in [lo, hi], the edge values and a few wrong types, YAML bools among them."""
    edges = _EDGE_FLOATS + (_EXTREMES if extremes else [])
    return st.one_of(st.floats(lo, hi), st.sampled_from(edges),
                     st.sampled_from([None, True, False, "x", [1.0]]))


def _ints(lo, hi):
    """Values in [lo, hi] and edge values; sizes stay small, as every drop
    allocates (K, A, N, N) complex arrays."""
    return st.one_of(st.integers(lo, hi), st.sampled_from([-1, 0, 2.5, None, True, "x"]))


def _choice(*values):
    return st.one_of(st.sampled_from(values),
                     st.sampled_from(["bogus", None, 1, [values[0]], {values[0]: 1}]))


FIELDS = {
    "area_side_m": _floats(1.0, 2000.0),
    "n_ap": _ints(1, 6),
    "n_ap_antennas": _ints(1, 3),
    "n_gue": _ints(0, 4),
    "n_uav": _ints(0, 3),
    "ap_height_m": _floats(0.0, 50.0),
    "gue_height_m": _floats(0.0, 5.0),
    "uav_height_range_m": st.one_of(st.lists(_floats(1.0, 400.0), min_size=1, max_size=3),
                                    st.sampled_from([None, 5.0])),
    "ap_placement": _choice("uniform", "grid"),
    "carrier_freq_hz": _floats(1e8, 1e11),
    "bandwidth_hz": _floats(1e3, 1e9),
    "seed": _ints(0, 2**32),
    "frame.tau_c": _ints(2, 300),
    "frame.tau_p": _ints(1, 6),
    "power.dl_budget_per_ap_w": _floats(1e-6, 10.0),
    "power.ul_max_w": _floats(1e-6, 1.0),
    "power.train_per_sample_w": _floats(1e-6, 1.0),
    "power.dl": _choice("ppa", "wfpa", "maxmin", "uniform"),
    "power.ul": _choice("fpc", "maxmin"),
    "power.kappa": _floats(0.0, 1.0),
    "power.fpc.alpha": _floats(0.0, 1.0),
    "power.fpc.p0_dbm": _floats(-60.0, 30.0, extremes=True),
    "power.maxmin.outer_tol": _floats(0.0, 1e-1),
    "power.maxmin.max_outer_iters": _ints(1, 3),
    "power.maxmin.max_inner_iters": _ints(1, 6),
    "noise.psd_dbm_hz": _floats(-200.0, -100.0, extremes=True),
    "noise.figure_db": _floats(0.0, 20.0, extremes=True),
    "association.mode": _choice("cf", "uc"),
    "association.uc_cluster_size": _ints(1, 6),
    "channel.gue_shadow_sigma_db": _floats(0.0, 12.0),
    "channel.shadow_corr_dist_m": _floats(0.1, 100.0),
    "channel.uav.shadow_nlos_db": _floats(0.0, 12.0),
    "channel.uav.shadow_los_scale_db": _floats(0.0, 12.0),
    "mc.ub_samples": _ints(0, 40),
    "mc.batch_count": _ints(2, 4),
}


def _nested(flat):
    data = {}
    for key, value in flat.items():
        *sections, name = key.split(".")
        node = data
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    return data


# a tiny drop takes tens of ms; the deadline flags one that does not end
@settings(max_examples=300, deadline=5000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.sampled_from(sorted(FIELDS)), st.none(), max_size=5).flatmap(
    lambda keys: st.fixed_dictionaries({k: FIELDS[k] for k in keys})))
def test_config_perturbation_runs_finite_or_raises_config_error(flat):
    try:
        cfg = config_from_dict(_nested(flat), base=TINY).validate()
    except ConfigError:
        return
    # a bool is never a number, not even in a list (yes/no read as 1.0/0.0 before)
    values = [x for v in flat.values() for x in (v if isinstance(v, list) else [v])]
    assert not any(isinstance(x, bool) for x in values), flat
    report = run_drop(cfg, 0)
    assert np.isfinite(report.se_lb_dl).all() and np.isfinite(report.se_lb_ul).all()
    if cfg.mc.ub_samples > 0:
        assert np.isfinite(report.se_ub_dl).all() and np.isfinite(report.se_ub_ul).all()
