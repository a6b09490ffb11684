"""End-to-end coverage of the non-default operating modes: user-centric
association, the UAV power share, per-drop LOS phases, UAV LOS shadowing."""

from dataclasses import replace

import numpy as np
import pytest

from cfsim.channel import build_large_scale, path_gain_uav, rice_factor
from cfsim.config import preset_desk, preset_desk_mmimo
from cfsim.geometry import ROLE_UAV, generate_topology, user_ap_distances
from cfsim.harness import run_drop
from cfsim.power import maxmin_dl
from cfsim.se import dl_sinr_lb, se_from_sinr

from conftest import make_state


def _uc_cfg(**kw):
    cfg = preset_desk()
    cfg = replace(
        cfg,
        n_ap=8,
        n_gue=4,
        n_uav=2,
        association=replace(cfg.association, mode="uc", uc_cluster_size=3),
        mc=replace(cfg.mc, ub_samples=1000, batch_count=5),
    )
    return replace(cfg, **kw) if kw else cfg


def test_uc_drop_end_to_end():
    rep = run_drop(_uc_cfg(), 0, 7)
    assert np.isfinite(rep.se_lb_dl).all() and (rep.se_lb_dl >= 0).all()
    assert np.isfinite(rep.se_lb_ul).all()
    assert (rep.se_lb_dl <= rep.se_ub_dl + 3 * rep.se_ub_dl_stderr).all()


def test_uc_maxmin_respects_partial_serving():
    st = make_state(seed=3, n_ap=6, n_gue=4, n_uav=1, tau_p=4,
                    association_mode="uc", uc_cluster_size=2)
    tables, cfg = st["tables"], st["cfg"]
    budget = 0.2
    prelog = cfg.frame.prelog
    eta, info = maxmin_dl(tables, budget, cfg.noise_w, prelog, max_outer_iters=6)
    assert (eta[~tables.serving] == 0.0).all()  # nothing outside A_k
    used = (eta * tables.gamma).sum(axis=0)
    assert (used <= budget * (1 + 1e-9)).all()
    rates = se_from_sinr(dl_sinr_lb(tables, eta, cfg.noise_w), prelog)
    assert rates.min() >= info["min_rate_trace"][0] * (1 - 1e-9)


def test_uc_with_kappa_strategies():
    cfg = _uc_cfg(power=replace(_uc_cfg().power, kappa=0.15, dl="wfpa"),
                  mc=replace(_uc_cfg().mc, ub_samples=0))
    rep = run_drop(cfg, 0, 9)
    assert np.isfinite(rep.se_lb_dl).all()


def test_mmimo_preset_drop_end_to_end():
    cfg = replace(preset_desk_mmimo(), mc=replace(preset_desk_mmimo().mc, ub_samples=0))
    rep = run_drop(cfg, 0, 11)
    assert np.isfinite(rep.se_lb_dl).all()
    assert rep.se_lb_dl.shape == (cfg.n_users,)


def test_uav_los_shadow_flag():
    # LOS UAV links always carry the TR 36.777 shadowing; a zero scale gives the
    # unshadowed LOS links the removed channel.uav.shadow_in_los switch gave
    cfg = preset_desk()
    cfg = replace(cfg, n_ap=4, n_gue=1, n_uav=6,
                  uav_height_range_m=(150.0, 300.0))  # always-LOS heights
    unshadowed = replace(cfg, channel=replace(cfg.channel, uav=replace(cfg.channel.uav,
                                                                       shadow_los_scale_db=0.0)))
    betas = []
    for c in (cfg, unshadowed):
        rng = np.random.default_rng(5)
        geometry = generate_topology(c, rng)
        ls = build_large_scale(c, geometry, rng)
        uav = ls.roles == ROLE_UAV
        # heights above the always-LOS threshold: p_LOS = 1, so K sits at its clamp
        assert np.all(ls.rice_k[uav] == rice_factor(1.0))
        betas.append(ls.beta[uav])
    los_gain = path_gain_uav(user_ap_distances(geometry)[0][uav], True, cfg.channel.uav,
                             cfg.carrier_freq_ghz, geometry.user_positions[uav, 2, None], 0.0)
    assert np.all(betas[0] != betas[1])  # every LOS link shadowed
    np.testing.assert_allclose(betas[1], los_gain, rtol=1e-14, atol=0)  # none shadowed


def test_fixed_ula_azimuth_key_rejected(tmp_path, capsys):
    # the fixed-azimuth switch is gone: every AP's ULA azimuth is drawn per drop
    from cfsim.cli import main

    path = tmp_path / "cfg.yaml"
    path.write_text("channel:\n  ula_azimuth: 0.0\n")
    out = tmp_path / "out"
    args = ["run", "--preset", "desk", "--config", str(path), "--drops", "1", "--out", str(out)]
    assert main(args) == 2
    assert "channel.ula_azimuth: unknown key" in capsys.readouterr().err
    assert not out.exists()
