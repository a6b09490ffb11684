import numpy as np
import pytest
from scipy import stats

from cfsim.config import SimConfig, preset_mmimo
from cfsim.errors import ConfigError
from cfsim.geometry import (
    ROLE_GUE,
    ROLE_UAV,
    generate_topology,
    grid_centers,
    nearest_image,
    wrapped_delta,
)


def wrapped_distance(p, q, area_side):
    """3D distance with wrap-around on the two horizontal axes, as the channel
    model measures it (geometry.user_ap_distances)."""
    return np.linalg.norm(wrapped_delta(p, q, area_side), axis=-1)


def test_topology_counts_and_heights():
    cfg = SimConfig(n_ap=100, n_gue=48, n_uav=12)
    geom = generate_topology(cfg, np.random.default_rng(0))
    assert geom.n_ap == 100
    assert geom.n_users == 60
    assert np.allclose(geom.ap_reference[:, 2], 10.0)
    gue = geom.user_positions[geom.roles == ROLE_GUE]
    uav = geom.user_positions[geom.roles == ROLE_UAV]
    assert np.allclose(gue[:, 2], 1.65)
    assert (uav[:, 2] >= 22.5).all() and (uav[:, 2] <= 300.0).all()
    assert (geom.user_positions[:, :2] >= 0).all()
    assert (geom.user_positions[:, :2] < cfg.area_side_m).all()


def test_topology_no_uavs():
    cfg = SimConfig(n_gue=5, n_uav=0, n_ap=4)
    geom = generate_topology(cfg, np.random.default_rng(1))
    assert (geom.roles == ROLE_GUE).all()
    assert geom.n_users == 5


def test_topology_deterministic():
    cfg = SimConfig(n_ap=10, n_gue=6, n_uav=2)
    g1 = generate_topology(cfg, np.random.default_rng(123))
    g2 = generate_topology(cfg, np.random.default_rng(123))
    np.testing.assert_array_equal(g1.ap_antennas, g2.ap_antennas)
    np.testing.assert_array_equal(g1.user_positions, g2.user_positions)


def test_topology_invalid_config_names_field():
    # an invalid config cannot be built, so no drop draws a topology for one
    from dataclasses import replace

    cfg = SimConfig()
    with pytest.raises(ConfigError, match="tau_p"):
        replace(cfg, frame=replace(cfg.frame, tau_p=300))


def test_ula_geometry():
    cfg = SimConfig(n_ap=5, n_gue=1, n_uav=0, n_ap_antennas=4)
    geom = generate_topology(cfg, np.random.default_rng(2))
    d = cfg.spacing_m
    for a in range(5):
        ants = geom.ap_antennas[a]
        assert ants.shape == (4, 3)
        steps = np.diff(ants, axis=0)
        # collinear with uniform spacing d
        assert np.allclose(np.linalg.norm(steps, axis=1), d)
        assert np.allclose(steps, steps[0][None, :])


def test_wrapped_distance_wrap_edge():
    assert wrapped_distance((0, 0, 0), (999, 0, 0), 1000.0) == pytest.approx(1.0)


def test_wrapped_distance_vertical_only():
    assert wrapped_distance((0, 0, 10.0), (0, 0, 1.65), 1000.0) == pytest.approx(8.35)


def _brute_force_wrapped(p, q, side):
    best = np.inf
    for dx in (-side, 0.0, side):
        for dy in (-side, 0.0, side):
            img = np.array(q, dtype=float) + np.array([dx, dy, 0.0])
            best = min(best, float(np.linalg.norm(np.array(p, dtype=float) - img)))
    return best


def test_wrapped_distance_matches_image_translate_oracle():
    rng = np.random.default_rng(3)
    side = 1000.0
    assert wrapped_distance((100, 200, 10), (900, 700, 50), side) == pytest.approx(
        _brute_force_wrapped((100, 200, 10), (900, 700, 50), side)
    )
    for _ in range(200):
        p = np.append(rng.uniform(0, side, 2), rng.uniform(0, 300))
        q = np.append(rng.uniform(0, side, 2), rng.uniform(0, 300))
        assert wrapped_distance(p, q, side) == pytest.approx(
            _brute_force_wrapped(p, q, side), rel=1e-12
        )


def test_wrapped_distance_properties():
    rng = np.random.default_rng(4)
    side = 1000.0
    for _ in range(100):
        p = np.append(rng.uniform(0, side, 2), rng.uniform(0, 50))
        q = np.append(rng.uniform(0, side, 2), rng.uniform(0, 50))
        d_pq = wrapped_distance(p, q, side)
        assert d_pq == pytest.approx(wrapped_distance(q, p, side))  # symmetry
        assert d_pq >= 0
        assert d_pq <= np.linalg.norm(p - q) + 1e-12  # never exceeds unwrapped
        assert wrapped_distance(p, p, side) == 0.0
    # zero iff coincident within the wrap equivalence
    assert wrapped_distance((0, 0, 5), (1000.0 % 1000.0, 0, 5), 1000.0) == 0.0


def test_wrapped_distance_2d_ignores_height():
    delta = wrapped_delta((0, 0, 0), (999, 0, 300), 1000.0)
    assert np.linalg.norm(delta[:2]) == pytest.approx(1.0)


def test_nearest_image_round_trip():
    side = 1000.0
    img = nearest_image(np.array([999.0, 0.0, 5.0]), np.array([1.0, 0.0, 5.0]), side)
    assert np.allclose(img, [-1.0, 0.0, 5.0])


def test_horizontal_coordinates_uniform_ks():
    cfg = SimConfig(n_ap=2, n_gue=10_000, n_uav=0)
    geom = generate_topology(cfg, np.random.default_rng(5))
    for axis in (0, 1):
        coords = geom.user_positions[:, axis] / cfg.area_side_m
        pvalue = stats.kstest(coords, "uniform").pvalue
        assert pvalue > 0.01


def test_grid_centers_mmimo_preset():
    centers = grid_centers(1000.0, 4)
    expected = {(250.0, 250.0), (250.0, 750.0), (750.0, 250.0), (750.0, 750.0)}
    assert {tuple(c) for c in centers} == expected
    cfg = preset_mmimo()
    geom = generate_topology(cfg, np.random.default_rng(6))
    assert geom.n_ap == 4
    assert geom.n_ap_antennas == 100
    with pytest.raises(ConfigError, match="n_ap"):
        SimConfig(n_ap=3, ap_placement="grid")
