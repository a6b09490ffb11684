"""Network topology on a wrap-around square: AP/user placement and distance queries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROLE_GUE = 0
ROLE_UAV = 1


@dataclass(frozen=True)
class NetworkGeometry:
    """Positions of all radiating elements for one drop.

    ap_antennas[a, q] is the 3D position of antenna q of AP a (ULA, uniform
    spacing); ap_antennas[a, 0] is the reference element. user_positions[k]
    holds 3D user positions; roles[k] is ROLE_GUE or ROLE_UAV.
    """

    ap_antennas: np.ndarray  # (A, N, 3)
    user_positions: np.ndarray  # (K, 3)
    roles: np.ndarray  # (K,) int
    area_side: float

    @property
    def n_ap(self):
        return self.ap_antennas.shape[0]

    @property
    def n_ap_antennas(self):
        return self.ap_antennas.shape[1]

    @property
    def n_users(self):
        return self.user_positions.shape[0]

    @property
    def ap_reference(self):
        return self.ap_antennas[:, 0, :]


def wrapped_delta(p, q, area_side):
    """Horizontal-wrapped displacement p - q; heights subtract directly.

    Each horizontal coordinate difference is mapped to [-side/2, side/2) so
    the nearest periodic image of q (relative to p) is used.
    """
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    d[..., :2] = (d[..., :2] + area_side / 2.0) % area_side - area_side / 2.0
    return d


def nearest_image(point, reference, area_side):
    """Translate `point` to its periodic image nearest to `reference`."""
    ref = np.asarray(reference, dtype=float)
    return ref - wrapped_delta(ref, point, area_side)


def grid_centers(area_side, n_cells):
    """Regular sqrt(n)-by-sqrt(n) grid of cell centers (the mMIMO baseline layout);
    SimConfig.validate admits grid placement with a square AP count only."""
    per_side = int(round(np.sqrt(n_cells)))
    step = area_side / per_side
    coords = step / 2.0 + step * np.arange(per_side)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def generate_topology(config, rng) -> NetworkGeometry:
    """Drop one random topology.

    APs are placed uniformly (or on the grid layout) at the AP height with a
    horizontal ULA whose azimuth is drawn uniformly per AP; GUEs sit at the
    GUE height; UAV heights are uniform over the configured range.
    """
    side = config.area_side_m
    n_ap, n_ant = config.n_ap, config.n_ap_antennas

    if config.ap_placement == "grid":
        ap_xy = grid_centers(side, n_ap)
    else:
        ap_xy = rng.uniform(0.0, side, size=(n_ap, 2))
    azimuth = rng.uniform(0.0, 2.0 * np.pi, size=n_ap)

    axis = np.stack([np.cos(azimuth), np.sin(azimuth), np.zeros(n_ap)], axis=1)
    offsets = config.spacing_m * np.arange(n_ant)[None, :, None] * axis[:, None, :]
    ref = np.column_stack([ap_xy, np.full(n_ap, config.ap_height_m)])
    ap_antennas = ref[:, None, :] + offsets

    gue_xy = rng.uniform(0.0, side, size=(config.n_gue, 2))
    uav_xy = rng.uniform(0.0, side, size=(config.n_uav, 2))
    lo, hi = config.uav_height_range_m
    uav_z = rng.uniform(lo, hi, size=config.n_uav)

    gue = np.column_stack([gue_xy, np.full(config.n_gue, config.gue_height_m)])
    uav = np.column_stack([uav_xy, uav_z])
    users = np.vstack([gue, uav])
    roles = np.concatenate(
        [np.full(config.n_gue, ROLE_GUE, dtype=int), np.full(config.n_uav, ROLE_UAV, dtype=int)]
    )
    return NetworkGeometry(
        ap_antennas=ap_antennas, user_positions=users, roles=roles, area_side=side
    )


def user_ap_distances(geometry: NetworkGeometry):
    """(K, A) wrapped 3D and 2D distances from users to AP reference antennas."""
    users = geometry.user_positions[:, None, :]
    aps = geometry.ap_reference[None, :, :]
    sq = wrapped_delta(users, aps, geometry.area_side)
    sq *= sq
    d2 = sq[..., 0] + sq[..., 1]  # summed left to right as np.linalg.norm sums: its bits
    d3 = np.sqrt(d2 + sq[..., 2])
    return d3, np.sqrt(d2, out=d2)


def user_user_distances(geometry: NetworkGeometry):
    """(K, K) wrapped 3D distances between users (shadowing correlation kernel)."""
    users = geometry.user_positions
    delta = wrapped_delta(users[:, None, :], users[None, :, :], geometry.area_side)
    return np.linalg.norm(delta, axis=-1)
