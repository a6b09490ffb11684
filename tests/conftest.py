"""Shared fixtures: small deterministic network states for the unit tests."""

from dataclasses import replace

import numpy as np
import pytest

from cfsim.association import build_association
from cfsim.channel import build_large_scale
from cfsim.config import config_from_dict, preset_desk, preset_paper
from cfsim.estimation import PilotBook, assign_pilots, build_estimation
from cfsim.geometry import generate_topology
from cfsim.harness import drop_seed_sequence
from cfsim.power import wfpa_dl
from cfsim.se import build_se_tables


def one_ap_waterfill(levels, budget):
    """(levels, powers) that wfpa_dl gives one AP whose users have the noise
    levels `levels` (sigma_z^2 = 1, gamma = 1 / level). The levels returned are
    the ones it fills, 1 / gamma, which may differ from the given ones in the
    last bit."""
    gamma = 1.0 / np.asarray(levels, dtype=float)[:, None]
    eta = wfpa_dl(gamma, np.ones(gamma.shape, dtype=bool), budget, 1.0)
    return 1.0 / gamma[:, 0], (eta * gamma)[:, 0]


def make_state(
    seed=0,
    n_ap=3,
    n_ap_antennas=2,
    n_gue=2,
    n_uav=2,
    tau_p=2,
    assignment=None,
    association_mode="cf",
    uc_cluster_size=None,
    config=None,
):
    """Run the drop pipeline on a small config and return every stage."""
    cfg = config or preset_paper()
    frame = replace(cfg.frame, tau_p=tau_p)
    overrides = dict(
        n_ap=n_ap, n_ap_antennas=n_ap_antennas, n_gue=n_gue, n_uav=n_uav, frame=frame
    )
    if association_mode != cfg.association.mode or uc_cluster_size is not None:
        overrides["association"] = replace(
            cfg.association,
            mode=association_mode,
            uc_cluster_size=uc_cluster_size or cfg.association.uc_cluster_size,
        )
    cfg = replace(cfg, **overrides)
    rng = np.random.default_rng(seed)
    geom = generate_topology(cfg, rng)
    ls = build_large_scale(cfg, geom, rng)
    if assignment is not None:
        book = PilotBook(assignment=np.asarray(assignment), tau_p=tau_p)
    else:
        book = assign_pilots(cfg.n_users, tau_p, rng)
    serving = build_association(cfg, ls.beta)
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
    tables = build_se_tables(ls, est, book, serving)
    return {
        "cfg": cfg,
        "geom": geom,
        "ls": ls,
        "book": book,
        "serving": serving,
        "est": est,
        "tables": tables,
        "rng": rng,
    }


def drop_state(cfg, drop):
    """(ls, book) of a drop of cfg, from the generator run_drop draws them with."""
    rng = np.random.default_rng(drop_seed_sequence(cfg.seed, drop).spawn(2)[0])
    ls = build_large_scale(cfg, generate_topology(cfg, rng), rng)
    return ls, assign_pilots(cfg.n_users, cfg.frame.tau_p, rng)


def low_uav_desk():
    """Desk with UAVs at 15-25 m whose LOS probability exp(-d / 0.2 m) underflows
    to 0 beyond about 150 m: a UAV has a LOS term at some APs only, and one of
    drop 0 (user 14) has a subnormal LOS probability at AP 18, which gives it no
    LOS term there."""
    los_prob = {"d1_log_coef": 0.0, "d1_offset": 0.0, "d1_floor_m": 0.0,
                "p1_log_coef": 0.0, "p1_offset": 0.2}
    cfg = config_from_dict({"uav_height_range_m": [15.0, 25.0],
                            "channel": {"uav": {"los_prob": los_prob}}}, base=preset_desk())
    return replace(cfg, mc=replace(cfg.mc, ub_samples=200, batch_count=2))


@pytest.fixture(scope="session")
def gate_fixture():
    """The acceptance fixture: 3 APs x 2 antennas, 2 GUEs + 2 UAVs, tau_p=2.

    Pilot assignment [0, 1, 0, 1] pairs each GUE with a UAV on a shared pilot,
    so every user suffers exactly one (cross-role) collision.
    """
    return make_state(seed=11, assignment=[0, 1, 0, 1])


@pytest.fixture(scope="module")
def collided_uc():
    """6 users on 3 pilots (collisions), user-centric clusters of 2 out of 4 APs."""
    st = make_state(seed=21, n_ap=4, n_ap_antennas=3, n_gue=4, n_uav=2, tau_p=3,
                    association_mode="uc", uc_cluster_size=2)
    assert len(np.unique(st["book"].assignment)) < st["cfg"].n_users
    assert not st["serving"].all()
    return st


@pytest.fixture(scope="session")
def desk_cfg():
    return preset_desk()
