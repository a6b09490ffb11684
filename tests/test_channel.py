import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cfsim.channel import (
    LargeScaleState,
    build_large_scale,
    los_probability,
    rice_factor,
    shadow_field,
    steering_vector,
)
from cfsim.config import (
    LogDistanceModel,
    SimConfig,
    UavChannelModel,
    UavLosModel,
    preset_desk,
    preset_desk_mmimo,
    preset_paper,
)
from cfsim.errors import CfsimError
from cfsim.estimation import build_estimation
from cfsim.geometry import (
    ROLE_GUE,
    ROLE_UAV,
    NetworkGeometry,
    generate_topology,
    nearest_image,
    user_ap_distances,
)
from cfsim.harness import allocate_dl, allocate_ul
from cfsim.mc import se_ub_mc
from cfsim.se import build_se_tables, dl_sinr_lb, se_from_sinr, ul_sinr_lb

from conftest import make_state
from per_pair import TABLES, covariance_G, draw_channels

GUE_MODEL = LogDistanceModel(offset_db=-22.7, dist_coef=-36.7, freq_coef=-26.0)


# ---------------------------------------------------------------------------
# LOS probability and Ricean factor
# ---------------------------------------------------------------------------

def test_los_probability_gue_always_zero():
    model = UavLosModel()
    for d in (0.0, 10.0, 5000.0):
        assert los_probability(ROLE_GUE, d, 1.65, model) == 0.0


def test_los_probability_uav_zero_distance():
    assert los_probability(ROLE_UAV, 0.0, 50.0, UavLosModel()) == 1.0


def test_los_probability_uav_matches_hand_evaluation():
    # independent evaluation of the configured piecewise formula
    h, d = 80.0, 500.0
    d1 = max(460.0 * math.log10(h) - 700.0, 18.0)
    p1 = 4300.0 * math.log10(h) - 3800.0
    expected = d1 / d + math.exp(-d / p1) * (1.0 - d1 / d)
    assert los_probability(ROLE_UAV, d, h, UavLosModel()) == pytest.approx(expected, rel=1e-12)
    # heights above the always-LOS threshold short-circuit to 1
    assert los_probability(ROLE_UAV, 500.0, 150.0, UavLosModel()) == 1.0
    assert los_probability(ROLE_UAV, 5000.0, 120.0, UavLosModel()) == 1.0


def test_rice_factor_values():
    assert rice_factor(0.0) == 0.0
    assert rice_factor(0.5) == pytest.approx(1.0)
    # a subnormal K is no LOS term: a pilot with it would take the dense path
    tiny = np.finfo(float).tiny
    assert rice_factor(4.0e-318) == 0.0 and rice_factor(tiny) == tiny
    clamped = rice_factor(1.0)
    assert clamped == pytest.approx((1.0 - 1e-6) / 1e-6, rel=1e-9)
    with pytest.raises(CfsimError, match=r"p_los=1.5 outside \[0, 1\]"):
        rice_factor(1.5)


# ---------------------------------------------------------------------------
# Path gains
# ---------------------------------------------------------------------------

def test_path_gain_gue_hand_values():
    expected_db = -36.7 * 2.0 - 22.7 - 26.0 * math.log10(1.9)
    assert GUE_MODEL.evaluate(100.0, 1.9) == pytest.approx(expected_db, abs=0.01)
    assert GUE_MODEL.evaluate(1.0, 1.0) == pytest.approx(-22.7)


def test_path_gain_gue_shadow_ratio():
    # build_large_scale offsets each GUE link's gain by sigma times the unit field
    # in dB, and refuses a zero user-AP distance
    cfg = replace(preset_desk(), n_uav=0)
    ch = cfg.channel
    geom = generate_topology(cfg, np.random.default_rng(2))
    bare, shadowed = (build_large_scale(replace(cfg, channel=replace(ch, gue_shadow_sigma_db=s)),
                                        geom, np.random.default_rng(1)).beta for s in (0.0, 10.0))
    field = shadow_field(geom, ch.shadow_corr_dist_m, np.random.default_rng(1))
    np.testing.assert_allclose(10.0 * np.log10(shadowed / bare), 10.0 * field, rtol=0, atol=1e-9)
    users = geom.user_positions.copy()
    users[1] = geom.ap_reference[3]  # GUE 1 on AP 3's reference antenna
    with pytest.raises(CfsimError, match="distance must be > 0"):
        build_large_scale(cfg, replace(geom, user_positions=users), np.random.default_rng(0))


def test_path_gain_uav_degenerate_equal_branches():
    # with one model for both LOS states a UAV link's gain is that model's, whatever
    # its LOS state
    same = LogDistanceModel(offset_db=30.0, dist_coef=20.0, freq_coef=20.0)
    cfg = replace(preset_desk(), n_gue=0)
    cfg = replace(cfg, channel=replace(cfg.channel, uav=replace(
        cfg.channel.uav, pathloss_los=same, pathloss_nlos=same, shadow_nlos_db=0.0,
        shadow_los_scale_db=0.0)))
    geom = generate_topology(cfg, np.random.default_rng(2))
    beta = build_large_scale(cfg, geom, np.random.default_rng(1)).beta
    d3 = user_ap_distances(geom)[0]
    np.testing.assert_allclose(beta, 10.0 ** (-same.evaluate(d3, cfg.carrier_freq_ghz) / 10.0),
                               rtol=1e-15)


def test_path_gain_uav_log_law():
    pure = LogDistanceModel(offset_db=10.0, dist_coef=25.0, freq_coef=0.0)
    delta_db = pure.evaluate(200.0, 1.9, height_m=80.0) - pure.evaluate(100.0, 1.9, height_m=80.0)
    assert delta_db == pytest.approx(25.0 * math.log10(2.0), rel=1e-12)


def test_path_gain_uav_uma_av_los_hand_value():
    model = UavChannelModel()
    pl = 28.0 + 22.0 * math.log10(200.0) + 20.0 * math.log10(1.9)
    assert model.pathloss_los.evaluate(200.0, 1.9, height_m=80.0) == pytest.approx(pl, abs=1e-9)
    # NLOS branch, independent evaluation
    pl = (
        -17.5
        + (46.0 - 7.0 * math.log10(80.0)) * math.log10(200.0)
        + 20.0 * math.log10(40.0 * math.pi * 1.9 / 3.0)
    )
    assert model.pathloss_nlos.evaluate(200.0, 1.9, height_m=80.0) == pytest.approx(pl, abs=1e-9)


def test_uav_shadow_sigma_per_link_hand_values():
    heights = np.array([[50.0], [200.0]])
    los = np.array([[True, False], [True, False]])
    expected = [[4.64 * math.exp(-0.0066 * 50.0), 6.0], [4.64 * math.exp(-0.0066 * 200.0), 6.0]]
    np.testing.assert_allclose(UavChannelModel().shadow_sigma_db(heights, los), expected,
                               rtol=1e-14)


# ---------------------------------------------------------------------------
# Shadowing
# ---------------------------------------------------------------------------

def _flat_geometry(user_xy, n_ap=2, side=1000.0):
    users = np.column_stack([np.asarray(user_xy, dtype=float), np.full(len(user_xy), 1.65)])
    ap_xy = np.linspace(100, 900, n_ap)
    ants = np.stack(
        [np.column_stack([ap_xy, np.full(n_ap, 500.0), np.full(n_ap, 10.0)])], axis=1
    )
    return NetworkGeometry(
        ap_antennas=ants,
        user_positions=users,
        roles=np.zeros(len(user_xy), dtype=int),
        area_side=side,
    )


def test_shadow_field_zero_sigma():
    # build_large_scale scales the unit field per link: zero sigmas leave every
    # link its bare gain, a UAV's LOS or NLOS one as its LOS state (drawn right
    # after the field) picks
    ch = preset_desk().channel
    ch = replace(ch, gue_shadow_sigma_db=0.0,
                 uav=replace(ch.uav, shadow_nlos_db=0.0, shadow_los_scale_db=0.0))
    cfg = replace(preset_desk(), channel=ch)
    geom = generate_topology(cfg, np.random.default_rng(2))  # UAVs at 289, 39 and 81 m
    ls = build_large_scale(cfg, geom, np.random.default_rng(1))
    (d3, d2), f = user_ap_distances(geom), cfg.carrier_freq_ghz
    gue, h = geom.roles == ROLE_GUE, geom.user_positions[:, 2, None]
    assert (ls.beta[gue] == 10.0 ** (ch.gue_gain.evaluate(d3[gue], f) / 10.0)).all()
    rng = np.random.default_rng(1)
    shadow_field(geom, ch.shadow_corr_dist_m, rng)
    los = rng.random(d3[~gue].shape) < los_probability(ROLE_UAV, d2[~gue], h[~gue],
                                                        ch.uav.los_prob)
    assert los.any() and not los.all()
    loss = np.where(los, ch.uav.pathloss_los.evaluate(d3[~gue], f, height_m=h[~gue]),
                    ch.uav.pathloss_nlos.evaluate(d3[~gue], f, height_m=h[~gue]))
    assert (ls.beta[~gue] == 10.0 ** (-loss / 10.0)).all()


def test_shadow_field_projects_an_indefinite_kernel_to_psd():
    # on a 20 m side the min-image distances of the paper's 60 users make the
    # kernel 2^(-rho/d0) indefinite; the field's root is that of the nearest PSD
    # matrix, close to the kernel
    cfg = replace(preset_paper(), area_side_m=20.0, n_ap=4)
    geom = generate_topology(cfg, np.random.default_rng(1))
    users, side, K = geom.user_positions, geom.area_side, geom.n_users
    delta = users[:, None] - users[None]
    delta[..., :2] = (delta[..., :2] + side / 2.0) % side - side / 2.0
    kernel = 2.0 ** (-np.linalg.norm(delta, axis=-1) / cfg.channel.shadow_corr_dist_m)
    assert np.linalg.eigvalsh(kernel).min() < -1e-2
    # K APs and unit draws that are the identity: the field is the root itself
    identity = SimpleNamespace(standard_normal=lambda shape: np.eye(*shape))
    root = shadow_field(replace(geom, ap_antennas=np.zeros((K, 1, 3))),
                        cfg.channel.shadow_corr_dist_m, identity)
    cov = root @ root.T
    assert np.linalg.eigvalsh(cov).min() > -1e-12
    np.testing.assert_allclose(cov, kernel, rtol=0, atol=0.03)


def test_shadow_field_colocated_users_identical():
    geom = _flat_geometry([(5, 5), (5, 5)])
    z = shadow_field(geom, 9.0, np.random.default_rng(1))
    np.testing.assert_allclose(z[0], z[1], atol=1e-10)


def test_shadow_field_covariance_oracle():
    # 3 users at chosen spacings; sample covariance vs sigma^2 2^(-rho/d0)
    xy = [(0.0, 0.0), (4.5, 0.0), (20.0, 0.0)]
    geom = _flat_geometry(xy, n_ap=2)
    sigma, d0 = 4.0, 9.0
    rng = np.random.default_rng(2)
    n = 100_000
    draws = np.empty((n, 3, 2))
    for i in range(n):
        draws[i] = sigma * shadow_field(geom, d0, rng)
    rho = np.abs(np.subtract.outer([0.0, 4.5, 20.0], [0.0, 4.5, 20.0]))
    expected = sigma**2 * 2.0 ** (-rho / d0)
    for a in range(2):
        sample_cov = np.cov(draws[:, :, a].T, bias=True)
        np.testing.assert_allclose(sample_cov, expected, rtol=0.03)
    # independence across APs
    cross = np.mean(draws[:, 0, 0] * draws[:, 0, 1])
    assert abs(cross) < 3.0 * sigma**2 / np.sqrt(n)


# ---------------------------------------------------------------------------
# Steering vectors
# ---------------------------------------------------------------------------

def test_steering_first_entry_unity():
    ants = np.array([[0, 0, 0], [0.07, 0, 0], [0.14, 0, 0], [0.21, 0, 0]])
    a = steering_vector(ants, np.array([300.0, 400.0, 30.0]), 0.15)
    assert a[0] == pytest.approx(1.0 + 0.0j)
    assert np.allclose(np.abs(a), 1.0)


def test_steering_broadside_equidistant_all_ones():
    # two-element array; any point on the bisector plane is equidistant
    ants = np.array([[0, 0, 0], [0.1, 0, 0]])
    a = steering_vector(ants, np.array([0.05, 50.0, 0.0]), 0.15)
    np.testing.assert_allclose(a, np.ones(2), atol=1e-12)


def test_steering_norm_squared_is_antenna_count(gate_fixture):
    ls = gate_fixture["ls"]
    steer = ls.steering[ls.rice_k.any(axis=1)]  # the rows of the users with a LOS link
    assert len(steer)
    norms = np.sum(np.abs(steer) ** 2, axis=-1)
    np.testing.assert_allclose(norms, steer.shape[-1], rtol=1e-12)


def _drop_outputs(st, ls):
    """What a drop computes from ls: the estimation state, the SE tables, both LB
    columns and a 40-sample UB with its stderr."""
    cfg, book, serving = st["cfg"], st["book"], st["serving"]
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
    tables = build_se_tables(ls, est, book, serving)
    eta_dl, _ = allocate_dl(cfg, tables, ls.roles)
    eta_ul, _ = allocate_ul(cfg, tables, est)
    prelog = cfg.frame.prelog
    ub_dl, ub_ul = se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, cfg.noise_w,
                            prelog, 40, np.random.default_rng(0), batch_count=2)
    return dict(
        d=est.d, D=est.D_dense, gamma=est.gamma, tr_G=est.tr_G, tr_B=est.tr_B,
        **{name: getattr(tables, name) for name in TABLES},
        lb_dl=se_from_sinr(dl_sinr_lb(tables, eta_dl, cfg.noise_w), prelog),
        lb_ul=se_from_sinr(ul_sinr_lb(tables, eta_ul, cfg.noise_w), prelog),
        ub_dl=ub_dl.ub, ub_ul=ub_ul.ub, err_dl=ub_dl.ub_stderr, err_ul=ub_ul.ub_stderr,
    )


@pytest.mark.parametrize("name", ["gate", "collided_uc", "paper"])
def test_nothing_reads_the_steering_rows_of_users_without_los(name, gate_fixture, collided_uc):
    # build_large_scale builds steering vectors only for the users with a LOS link;
    # NaN on the other rows must leave every output of the drop as it was
    paper = preset_paper()
    st = {"gate": gate_fixture, "collided_uc": collided_uc}.get(name) or make_state(
        seed=1, n_ap=paper.n_ap, n_ap_antennas=paper.n_ap_antennas, n_gue=paper.n_gue,
        n_uav=paper.n_uav, tau_p=paper.frame.tau_p)
    ls = st["ls"]
    los = (ls.rice_k > 0).any(axis=1)
    assert los.any() and not los.all()
    np.testing.assert_allclose(np.abs(ls.steering[los]), 1.0, rtol=1e-12)
    assert (ls.steering[~los] == 0).all()
    steering = ls.steering.copy()
    steering[~los] = np.nan
    base, nan_rows = _drop_outputs(st, ls), _drop_outputs(st, replace(ls, steering=steering))
    for key, value in base.items():
        np.testing.assert_array_equal(nan_rows[key], value, err_msg=key)


def test_steering_far_field_limit():
    lam = 0.15
    d = lam / 2.0
    ants = np.array([[i * d, 0.0, 0.0] for i in range(4)])
    theta = 0.4  # angle from broadside, in the horizontal plane
    R = 1e5
    user = np.array([R * math.sin(theta), R * math.cos(theta), 0.0])
    a = steering_vector(ants, user, lam)
    # far-field: ||z_1 - u|| - ||z_l - u|| -> (l-1) d sin(theta)
    expected = np.exp(-1j * np.pi * np.arange(4) * math.sin(theta))
    phase_err = np.abs(np.angle(a * np.conj(expected)))
    assert phase_err.max() < 1e-3


def test_steering_coincident_point_rejected():
    ants = np.array([[0, 0, 0], [0.1, 0, 0]])
    with pytest.raises(CfsimError, match="user coincides with an antenna element"):
        steering_vector(ants, np.array([0.0, 0.0, 0.0]), 0.15)


def test_distances_and_steering_equal_their_literal_forms():
    # both on nearest-image offsets, with users on the wrap boundary: np.linalg.norm and one exp
    geom = generate_topology(preset_paper(), np.random.default_rng(11))
    ants = geom.ap_antennas.copy()
    ants[0] += np.array([250.0, 0.0, 10.0]) - ants[0, 0]  # AP 0's reference at (250, 0, 10)
    # users on AP 0's wrap boundary: |dx| or |dy| is side / 2, or dy is a full side
    edge = np.array([[750.0, 1000.0, 1.65], [0.0, 500.0, 100.0], [750.0, 500.0, 60.0]])
    users = np.vstack([geom.user_positions, edge])
    roles = np.concatenate([geom.roles, [ROLE_GUE, ROLE_UAV, ROLE_UAV]])
    geom = NetworkGeometry(ap_antennas=ants, user_positions=users, roles=roles,
                           area_side=geom.area_side)
    side = geom.area_side
    delta = users[:, None, :] - geom.ap_reference[None, :, :]
    delta[..., :2] = (delta[..., :2] + side / 2.0) % side - side / 2.0
    assert np.abs(delta[-3:, 0, :2]).max() == side / 2.0
    d3, d2 = user_ap_distances(geom)
    np.testing.assert_array_equal(d3, np.linalg.norm(delta, axis=-1))
    np.testing.assert_array_equal(d2, np.linalg.norm(delta[..., :2], axis=-1))

    lam = 0.15
    images = nearest_image(users[:, None], geom.ap_reference[None], side)
    d = np.linalg.norm(ants[None] - images[..., None, :], axis=-1)
    np.testing.assert_array_equal(steering_vector(ants[None], images, lam),
                                  np.exp(-1j * (2.0 * np.pi / lam) * (d[..., :1] - d)))


# ---------------------------------------------------------------------------
# Channel draws
# ---------------------------------------------------------------------------

def _single_pair_state(beta, rice, n_ant=4, seed=0):
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, n_ant)
    steer = np.exp(1j * phases)
    steer[0] = 1.0
    return LargeScaleState(
        beta=np.array([[beta]]),
        rice_k=np.array([[rice]]),
        steering=steer[None, None, :],
        roles=np.array([0]),
    )


def test_draw_channel_rayleigh_moment():
    ls = _single_pair_state(2.5, 0.0)
    g = draw_channels(ls, np.random.default_rng(3), 100_000)[:, 0, 0, :]
    energy = np.mean(np.sum(np.abs(g) ** 2, axis=1))
    assert energy == pytest.approx(2.5 * 4, rel=0.02)


def test_draw_channel_los_limit_deterministic_energy():
    ls = _single_pair_state(1.7, 1e6)
    g = draw_channels(ls, np.random.default_rng(4), 2000)[:, 0, 0, :]
    energies = np.sum(np.abs(g) ** 2, axis=1)
    np.testing.assert_allclose(energies, 1.7 * 4, rtol=0.01)


def test_draw_channel_zero_mean_and_covariance_matches_G():
    beta, rice = 1.3, 2.0
    ls = _single_pair_state(beta, rice, seed=5)
    g = draw_channels(ls, np.random.default_rng(6), 100_000)[:, 0, 0, :]
    assert np.abs(g.mean(axis=0)).max() < 0.02
    cov = (g[:, :, None] * np.conj(g[:, None, :])).mean(axis=0)
    G = covariance_G(beta, rice, ls.steering[0, 0])
    np.testing.assert_allclose(cov, G, atol=0.03 * np.abs(G).max())


def test_build_large_scale_shapes_and_roles():
    cfg = SimConfig(n_ap=4, n_gue=3, n_uav=2, n_ap_antennas=2)
    geom = generate_topology(cfg, np.random.default_rng(8))
    ls = build_large_scale(cfg, geom, np.random.default_rng(9))
    assert ls.beta.shape == (5, 4)
    assert (ls.beta > 0).all()
    assert (ls.rice_k[ls.roles == ROLE_GUE] == 0.0).all()  # GUEs are NLOS
    assert np.isfinite(ls.rice_k).all()
    los = ls.rice_k.any(axis=1)
    assert ls.steering.shape == (5, 4, 2) and los.any() and not los.all()
    assert np.allclose(np.abs(ls.steering[los]), 1.0)
    assert (ls.steering[~los] == 0).all()  # no LOS term, so no steering vector


def _per_link_large_scale(config, geometry, rng):
    """Reference: build_large_scale written one (user, AP) link at a time."""
    ch = config.channel
    K, A = geometry.n_users, geometry.n_ap
    d3, d2 = user_ap_distances(geometry)
    roles = geometry.roles
    heights = geometry.user_positions[:, 2]
    f = config.carrier_freq_ghz

    p_los = np.zeros((K, A))
    for k in range(K):
        for a in range(A):
            p_los[k, a] = los_probability(roles[k], d2[k, a], heights[k], ch.uav.los_prob)
    rice = np.vectorize(rice_factor)(p_los)

    los_state = np.zeros((K, A), dtype=bool)
    uav_rows = roles == ROLE_UAV
    sigma = np.full((K, A), ch.gue_shadow_sigma_db)
    unit_field = shadow_field(geometry, ch.shadow_corr_dist_m, rng)
    if uav_rows.any():
        los_state[uav_rows] = rng.random((int(uav_rows.sum()), A)) < p_los[uav_rows]
        for k in np.flatnonzero(uav_rows):
            for a in range(A):
                sigma[k, a] = ch.uav.shadow_sigma_db(heights[k], los_state[k, a])
    shadow_db = sigma * unit_field

    beta = np.zeros((K, A))
    steering = np.zeros((K, A, geometry.n_ap_antennas), dtype=complex)
    for k in range(K):
        for a in range(A):
            if roles[k] == ROLE_UAV:
                model = ch.uav.pathloss_los if los_state[k, a] else ch.uav.pathloss_nlos
                gain_db = -model.evaluate(d3[k, a], f, height_m=heights[k])
            else:
                gain_db = ch.gue_gain.evaluate(d3[k, a], f)
            beta[k, a] = 10.0 ** ((gain_db + shadow_db[k, a]) / 10.0)
            if rice[k].any():  # only a LOS link has a steering vector
                image = nearest_image(
                    geometry.user_positions[k], geometry.ap_reference[a], geometry.area_side
                )
                steering[k, a] = steering_vector(geometry.ap_antennas[a], image,
                                                 config.wavelength_m)
    rng.uniform(0.0, 2.0 * np.pi, size=(K, A))  # the per-drop LOS phases nothing reads
    return dict(beta=beta, rice_k=rice, steering=steering)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "cfg",
    [
        preset_desk(),
        preset_desk_mmimo(),
        replace(preset_desk(), n_gue=0),
        replace(preset_desk(), n_uav=0),
    ],
    ids=["desk", "desk-mmimo", "uav-only", "gue-only"],
)
def test_build_large_scale_matches_per_link_loop(cfg, seed):
    geom = generate_topology(cfg, np.random.default_rng(seed))
    rng_ref, rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
    ref = _per_link_large_scale(cfg, geom, rng_ref)
    ls = build_large_scale(cfg, geom, rng)
    np.testing.assert_array_equal(ls.steering, ref["steering"])
    assert rng.random() == rng_ref.random()
    for name in ("beta", "rice_k"):  # beta carries the LOS states and the shadowing
        np.testing.assert_allclose(getattr(ls, name), ref[name], rtol=1e-13, atol=0,
                                   err_msg=name)
