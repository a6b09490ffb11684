"""Large-scale channel state and Ricean small-scale realizations.

Builds, per (user, AP) pair: path gain beta, Ricean K-factor, LOS steering
vector and correlated shadowing, and scales unit normals into channel vectors

    g = sqrt(beta/(K+1)) * (sqrt(K) e^{j theta} a + h),   h ~ CN(0, I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ROLE_UAV, NetworkGeometry, nearest_image, user_ap_distances, wrapped_delta


@dataclass(frozen=True)
class LargeScaleState:
    """Per-(user, AP) large-scale quantities, immutable once built for a drop."""

    beta: np.ndarray  # (K, A) linear power gain
    rice_k: np.ndarray  # (K, A)
    steering: np.ndarray  # (K, A, N) complex, unit modulus; 0 on users without a LOS link
    roles: np.ndarray  # (K,)

    @property
    def n_ap_antennas(self):
        return self.steering.shape[2]

    @property
    def los_users(self):
        """(K,) bool: the users with a LOS term (Ricean K > 0) on some link."""
        return (self.rice_k > 0).any(axis=1)


def los_probability(role, horizontal_distance, user_height, model):
    """LOS probability per link: GUEs are always NLOS; UAVs follow the piecewise model.

    All arguments but `model` broadcast against each other.
    """
    d = np.asarray(horizontal_distance, dtype=float)
    if np.any(d < 0):
        raise DomainError("horizontal distance must be >= 0")
    # d = 0 gives inf/nan in the formula, overridden below by d <= d1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_h = np.log10(user_height)
        d1 = np.maximum(model.d1_log_coef * log_h + model.d1_offset, model.d1_floor_m)
        p1 = model.p1_log_coef * log_h + model.p1_offset
        p = np.clip(d1 / d + np.exp(-d / p1) * (1.0 - d1 / d), 0.0, 1.0)
    p = np.where((user_height > model.always_los_above_m) | (d <= d1), 1.0, p)
    return np.where(np.asarray(role) == ROLE_UAV, p, 0.0)


RICE_CLAMP_EPS = 1e-6


def rice_factor(p_los):
    """K = p/(1-p) per link, with p clamped to 1 - RICE_CLAMP_EPS so K stays finite,
    and 0 where K is subnormal: a LOS term that small is no LOS term."""
    p = np.asarray(p_los, dtype=float)
    outside = ~((p >= 0.0) & (p <= 1.0))
    if outside.any():
        raise DomainError(f"p_los={p[outside].flat[0]} outside [0, 1]")
    p = np.minimum(p, 1.0 - RICE_CLAMP_EPS)
    k = p / (1.0 - p)
    return np.where(k < np.finfo(float).tiny, 0.0, k)


def shadow_field(geometry: NetworkGeometry, d0, rng):
    """Unit-variance correlated shadowing draws, one value per (user, AP), which
    build_large_scale scales by each link's sigma in dB.

    Covariance: independent across APs; the kernel 2^(-rho_{k,j}/d0) of the
    wrapped user-user distances rho across users at the same AP. Min-image
    distances make that kernel indefinite on a small area, so its negative
    eigenvalues are floored at 0, which gives the nearest PSD matrix (Higham,
    IMA J. Numer. Anal. 22, 2002).
    """
    if d0 <= 0:
        raise DomainError("d0 must be > 0")
    users = geometry.user_positions
    rho = np.linalg.norm(wrapped_delta(users[:, None], users[None], geometry.area_side), axis=-1)
    vals, vecs = np.linalg.eigh(np.power(2.0, -rho / d0))
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return root @ rng.standard_normal((geometry.n_users, geometry.n_ap))


def steering_vector(ap_antennas, user_pos, wavelength):
    """Array response: entry l is exp(-j 2pi/lambda (||z_1 - u|| - ||z_l - u||)).

    `ap_antennas` is (..., N, 3) and `user_pos` (..., 3); leading axes broadcast.
    """
    if wavelength <= 0:
        raise DomainError("wavelength must be > 0")
    user = np.asarray(user_pos, dtype=float)
    d = np.linalg.norm(np.asarray(ap_antennas, dtype=float) - user[..., None, :], axis=-1)
    if np.any(d == 0.0):
        raise DomainError("user coincides with an antenna element")
    return np.exp(-1j * (2.0 * np.pi / wavelength) * (d[..., :1] - d))


def build_large_scale(config, geometry: NetworkGeometry, rng) -> LargeScaleState:
    """Assemble the full large-scale state for one drop.

    RNG consumption order is fixed (shadowing, LOS states, LOS phases) so a
    drop is reproducible from its seed. `steering` keeps its (K, A, N) shape, but
    only the rows of the LOS users (`los_users`) are built; the others are
    zeros, which no consumer reads.
    """
    ch = config.channel
    d3, d2 = user_ap_distances(geometry)
    if not np.all(d3 > 0):
        raise DomainError("distance must be > 0")
    roles = geometry.roles
    uav = roles == ROLE_UAV
    heights = geometry.user_positions[:, 2, None]
    f = config.carrier_freq_ghz

    p_los = los_probability(roles[:, None], d2, heights, ch.uav.los_prob)
    rice = rice_factor(p_los)

    # draw the unit field first so LOS-state draws don't perturb it
    unit_field = shadow_field(geometry, ch.shadow_corr_dist_m, rng)
    los_state = np.zeros(d3.shape, dtype=bool)
    los_state[uav] = rng.random((int(uav.sum()), geometry.n_ap)) < p_los[uav]
    sigma = np.where(
        uav[:, None], ch.uav.shadow_sigma_db(heights, los_state), ch.gue_shadow_sigma_db
    )
    shadow_db = sigma * unit_field

    # gain in dB: the GUE gain formula, or minus a UAV's LOS or NLOS path loss
    gain_db = ch.gue_gain.evaluate(d3, f)
    d, h = d3[uav], heights[uav]
    gain_db[uav] = -np.where(los_state[uav], ch.uav.pathloss_los.evaluate(d, f, height_m=h),
                             ch.uav.pathloss_nlos.evaluate(d, f, height_m=h))
    ls = LargeScaleState(
        beta=10.0 ** ((gain_db + shadow_db) / 10.0),
        rice_k=rice,
        steering=np.zeros((*d3.shape, geometry.n_ap_antennas), dtype=complex),
        roles=roles.copy(),
    )
    # steer towards the periodic user image nearest to each AP so wrap-around
    # and steering geometry agree; only the LOS users have a LOS term
    los = ls.los_users
    images = nearest_image(
        geometry.user_positions[los, None], geometry.ap_reference[None], geometry.area_side
    )
    ls.steering[los] = steering_vector(geometry.ap_antennas[None], images, config.wavelength_m)

    # per-drop LOS phases that nothing reads (the sampler draws a phase per
    # sample). The draw stays because the pilots are drawn next from this
    # generator: without it every pilot assignment, and so every LB, would move
    rng.uniform(0.0, 2.0 * np.pi, size=d3.shape)
    return ls


# Bytes per block of samples: what is derived from a draw is built one block at
# a time, so only the raw draws are ever full-size. Smaller blocks pay for more
# per-block calls (the LMMSE step loops over the user-AP pairs)
BLOCK_BYTES = 4 << 20


def sample_blocks(n, row_bytes):
    """Slices of range(n) holding about BLOCK_BYTES of rows of row_bytes each."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def fill_normal(rng, part, slices):
    """Fill the float array part (or the real or imaginary view of a complex one)
    with standard normals, slice by slice: the values of one full-size call."""
    for s in slices:
        part[s] = rng.standard_normal(part[s].shape)


def channel_scaler(ls: LargeScaleState):
    """(users, scale): the LOS users' indices, and scale(blk, theta), which turns a
    block (S, K, A, N) of unit complex normals into channels in place; theta
    (S, len(users), A) holds the block's LOS phases of those users."""
    nlos = ls.beta / (ls.rice_k + 1.0)
    users = np.flatnonzero(ls.los_users)  # the LOS term is 0 for the others
    root = np.sqrt(nlos / 2.0)[..., None]
    los = (np.sqrt(nlos) * np.sqrt(ls.rice_k))[users, :, None] * ls.steering[users]

    def scale(blk, theta):
        blk *= root
        blk[:, users] += np.exp(1j * theta)[..., None] * los

    return users, scale
