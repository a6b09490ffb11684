import math
from dataclasses import replace

import pytest
import yaml

from cfsim.config import (
    config_from_dict,
    config_to_dict,
    load_config,
    preset_desk,
    preset_desk_mmimo,
    preset_mmimo,
    preset_paper,
)
from cfsim.errors import ConfigError


def test_reference_defaults():
    cfg = preset_paper()
    assert cfg.n_ap == 100 and cfg.n_ap_antennas == 4
    assert cfg.n_gue == 48 and cfg.n_uav == 12
    assert cfg.carrier_freq_hz == pytest.approx(1.9e9)
    assert cfg.bandwidth_hz == pytest.approx(20e6)
    assert cfg.frame.tau_c == 200 and cfg.frame.tau_p == 32
    assert cfg.frame.prelog == 84.0 / 200.0  # DL and UL each get (tau_c - tau_p) / 2
    assert cfg.power.dl_budget_per_ap_w == pytest.approx(0.2)
    assert cfg.power.ul_max_w == pytest.approx(0.1)
    assert cfg.power.train_per_sample_w == pytest.approx(0.1)
    assert cfg.train_energy_w == pytest.approx(3.2)  # tau_p * per-sample power
    assert cfg.power.fpc.alpha == 0.5
    assert cfg.power.fpc.p0_dbm == -10.0
    assert cfg.noise.psd_dbm_hz == -174.0 and cfg.noise.figure_db == 9.0
    assert cfg.channel.gue_shadow_sigma_db == 4.0
    assert cfg.channel.shadow_corr_dist_m == 9.0
    # half-wavelength spacing at 1.9 GHz
    assert cfg.spacing_m == pytest.approx(299792458.0 / 1.9e9 / 2.0)


def test_noise_variance_formula():
    cfg = preset_paper()
    expected_dbm = -174.0 + 10.0 * math.log10(20e6) + 9.0
    expected_w = 10.0 ** ((expected_dbm - 30.0) / 10.0)
    assert cfg.noise_w == pytest.approx(expected_w, rel=1e-12)


def test_mmimo_preset_conserves_power_and_antennas():
    cf, mm = preset_paper(), preset_mmimo()
    assert mm.n_ap * mm.n_ap_antennas == cf.n_ap * cf.n_ap_antennas
    assert mm.n_ap * mm.power.dl_budget_per_ap_w == pytest.approx(
        cf.n_ap * cf.power.dl_budget_per_ap_w
    )
    assert mm.association.uc_cluster_size == 1
    assert mm.power.dl == "uniform"
    desk, dmm = preset_desk(), preset_desk_mmimo()
    assert dmm.n_ap * dmm.n_ap_antennas == desk.n_ap * desk.n_ap_antennas
    assert dmm.n_ap * dmm.power.dl_budget_per_ap_w == pytest.approx(
        desk.n_ap * desk.power.dl_budget_per_ap_w
    )


def _maxmin(cfg, **changes):
    return replace(cfg.power, maxmin=replace(cfg.power.maxmin, **changes))


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda c: replace(c, area_side_m=-1.0), "area_side_m"),
        (lambda c: replace(c, n_ap_antennas=0), "n_ap_antennas"),
        (lambda c: replace(c, frame=replace(c.frame, tau_p=200)), "frame.tau_p"),
        (lambda c: replace(c, power=replace(c.power, kappa=1.5)), "power.kappa"),
        (lambda c: replace(c, power=replace(c.power, dl="greedy")), "power.dl"),
        (
            lambda c: replace(c, association=replace(c.association, mode="uc", uc_cluster_size=0)),
            "association.uc_cluster_size",
        ),
        (lambda c: replace(c, uav_height_range_m=(10.0, 5.0)), "uav_height_range_m"),
        (lambda c: replace(c, mc=replace(c.mc, batch_count=0)), "mc.batch_count"),
        (lambda c: replace(c, mc=replace(c.mc, batch_count=1)), "mc.batch_count"),
        (lambda c: replace(c, mc=replace(c.mc, ub_samples=5)), "mc.ub_samples"),
        (lambda c: replace(c, power=_maxmin(c, max_outer_iters=0)), "power.maxmin.max_outer_iters"),
        (lambda c: replace(c, power=_maxmin(c, max_inner_iters=0)), "power.maxmin.max_inner_iters"),
        (lambda c: replace(c, power=_maxmin(c, outer_tol=-1e-4)), "power.maxmin.outer_tol"),
    ],
)
def test_validation_names_violated_field(mutate, field):
    with pytest.raises(ConfigError) as err:
        mutate(preset_paper())
    assert field in str(err.value)


@pytest.mark.parametrize("kappa, n_uav, ok", [(0.0, 2, False), (1.0, 2, False), (0.0, 0, True),
                                           (0.5, 2, True)])
def test_maxmin_kappa_that_starves_a_class_rejected(kappa, n_uav, ok):
    base = preset_paper()
    power = replace(base.power, dl="maxmin", kappa=kappa)
    if ok:
        replace(base, n_uav=n_uav, power=power)
    else:
        with pytest.raises(ConfigError, match="power.kappa"):
            replace(base, n_uav=n_uav, power=power)


def test_yaml_round_trip(tmp_path):
    cfg = replace(preset_desk(), seed=77)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
    loaded = load_config(path)
    assert loaded == cfg
    assert config_to_dict(loaded) == config_to_dict(cfg)


def test_yaml_partial_override(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("n_ap: 7\npower:\n  dl: wfpa\n")
    cfg = load_config(path, base=preset_paper())
    assert cfg.n_ap == 7
    assert cfg.power.dl == "wfpa"
    assert cfg.n_gue == 48  # untouched base values survive


def test_yaml_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("n_apz: 7\n")
    with pytest.raises(ConfigError, match="n_apz"):
        load_config(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ("power:\n  maxmin:\n    inner_tol: 1.0e-6\n", "inner_tol"),
        ("power:\n  maxmin:\n    anchor_floor: 1.0e-12\n", "anchor_floor"),
        ("power:\n  paper_literal_g2: false\n", "paper_literal_g2"),
        ("estimation:\n  paper_literal_b: false\n", "paper_literal_b"),
        ("estimation:\n  orthogonal_forced: false\n", "orthogonal_forced"),
        ("mc:\n  literal_ub_no_log: false\n", "literal_ub_no_log"),
        ("mc:\n  chunk: 2048\n", "mc.chunk"),
        ("channel:\n  los_phase_policy: per_drop\n", "channel.los_phase_policy"),
        ("channel:\n  rice_clamp_eps: 1.0e-6\n", "channel.rice_clamp_eps"),
        ("estimation:\n  condition_limit: 1.0e+12\n", "estimation.condition_limit"),
    ],
    ids=["inner_tol", "anchor_floor", "paper_literal_g2", "paper_literal_b",
         "orthogonal_forced", "literal_ub_no_log", "chunk", "los_phase_policy",
         "rice_clamp_eps", "condition_limit"],
)
def test_yaml_removed_block_solver_keys_rejected(tmp_path, text, key):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"{key}: unknown key"):
        load_config(path)


@pytest.mark.parametrize(
    "text, field",
    [
        ("channel:\n  uav: null\n", "channel.uav"),
        ("channel:\n  gue_gain: null\n", "channel.gue_gain"),
        ("frame: null\n", "frame"),
        ("mc: null\n", "mc"),
        ("power:\n  maxmin: null\n", "power.maxmin"),
        ("channel:\n  uav:\n    pathloss_nlos: null\n", "channel.uav.pathloss_nlos"),
        ("channel:\n  uav:\n    los_prob: null\n", "channel.uav.los_prob"),
    ],
)
def test_yaml_null_section_rejected_naming_field(tmp_path, capsys, text, field):
    from cfsim.cli import main

    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    args = ["run", "--preset", "desk", "--config", str(path), "--drops", "1", "--out", str(out)]
    assert main(args) == 2
    assert f"{field}: expected a mapping" in capsys.readouterr().err
    assert not out.exists()


def test_uav_default_constants_documented_shape():
    # the externally-sourced UMa-AV constants ship as plain config values
    cfg = preset_paper()
    uav = cfg.channel.uav
    assert uav.pathloss_los.offset_db == pytest.approx(28.0)
    assert uav.pathloss_nlos.dist_height_coef == pytest.approx(-7.0)
    assert uav.los_prob.always_los_above_m == pytest.approx(100.0)
    assert uav.shadow_nlos_db == pytest.approx(6.0)


def test_shipped_config_files_load(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    assert load_config(root / "paper.yaml") == preset_paper()
    desk = load_config(root / "desk.yaml")
    assert desk.n_ap == 25 and desk.n_uav == 3
    mm = load_config(root / "mmimo.yaml")
    assert mm.ap_placement == "grid" and mm.power.dl == "uniform"


def test_yaml_unsigned_exponent_floats(tmp_path):
    # pyyaml parses `1.9e9` as a string; the loader must still coerce it
    path = tmp_path / "cfg.yaml"
    path.write_text("carrier_freq_hz: 1.9e9\nbandwidth_hz: 20e6\n")
    cfg = load_config(path)
    assert cfg.carrier_freq_hz == pytest.approx(1.9e9)
    assert cfg.bandwidth_hz == pytest.approx(20e6)


def test_config_from_dict_nested():
    cfg = config_from_dict(
        {"n_ap": 5, "channel": {"uav": {"shadow_nlos_db": 7.5}}},
        base=preset_paper(),
    )
    assert cfg.n_ap == 5
    assert cfg.channel.uav.shadow_nlos_db == 7.5
    assert cfg.channel.uav.pathloss_los.offset_db == 28.0
