"""Large-scale channel state and Ricean small-scale realizations.

Builds, per (user, AP) pair: path gain beta, Ricean K-factor, LOS steering
vector and correlated shadowing, then draws channel vectors

    g = sqrt(beta/(K+1)) * (sqrt(K) e^{j theta} a + h),   h ~ CN(0, I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .geometry import (
    ROLE_UAV,
    NetworkGeometry,
    nearest_image,
    user_ap_distances,
    user_user_distances,
)


@dataclass(frozen=True)
class LargeScaleState:
    """Per-(user, AP) large-scale quantities, immutable once built for a drop."""

    beta: np.ndarray  # (K, A) linear power gain
    rice_k: np.ndarray  # (K, A)
    steering: np.ndarray  # (K, A, N) complex, unit-modulus entries
    shadow_db: np.ndarray  # (K, A)
    los_state: np.ndarray  # (K, A) bool, Bernoulli(p_LOS) draw used by UAV path loss
    los_phase: np.ndarray  # (K, A) phases used when los_phase_policy == per_drop
    roles: np.ndarray  # (K,)
    los_phase_policy: str = "per_draw"

    @property
    def n_users(self):
        return self.beta.shape[0]

    @property
    def n_ap(self):
        return self.beta.shape[1]

    @property
    def n_ap_antennas(self):
        return self.steering.shape[2]


def los_probability(role, horizontal_distance, user_height, model):
    """LOS probability of one link: GUEs are always NLOS; UAVs follow the piecewise model."""
    if horizontal_distance < 0:
        raise DomainError("horizontal distance must be >= 0")
    if role != ROLE_UAV:
        return 0.0
    if model is None:
        raise ConfigError("UAV LOS model constants missing", field="channel.uav.los_prob")
    if user_height > model.always_los_above_m:
        return 1.0
    d1 = max(model.d1_log_coef * math.log10(user_height) + model.d1_offset, model.d1_floor_m)
    p1 = model.p1_log_coef * math.log10(user_height) + model.p1_offset
    d = horizontal_distance
    if d <= d1:
        return 1.0
    p = d1 / d + math.exp(-d / p1) * (1.0 - d1 / d)
    return min(max(p, 0.0), 1.0)


def rice_factor(p_los, clamp_eps=1e-6):
    """K = p/(1-p), with p clamped to 1 - clamp_eps so K stays finite."""
    if not 0.0 <= p_los <= 1.0:
        raise DomainError(f"p_los={p_los} outside [0, 1]")
    p = min(p_los, 1.0 - clamp_eps)
    return p / (1.0 - p)


def path_gain_gue(dist_m, f_ghz, shadow_db, model):
    """Linear gain from the GUE log-distance gain formula plus shadowing."""
    if dist_m <= 0:
        raise DomainError("distance must be > 0")
    gain_db = model.evaluate(dist_m, f_ghz) + shadow_db
    return 10.0 ** (gain_db / 10.0)


def path_gain_uav(dist_m, los, model, f_ghz, user_height_m, shadow_db):
    """Linear gain for a UAV link: configured LOS/NLOS path loss plus shadowing."""
    if dist_m <= 0:
        raise DomainError("distance must be > 0")
    if model is None:
        raise ConfigError("UAV path-loss constants missing", field="channel.uav")
    pl_model = model.pathloss_los if los else model.pathloss_nlos
    loss_db = pl_model.evaluate(dist_m, f_ghz, height_m=user_height_m)
    return 10.0 ** ((-loss_db + shadow_db) / 10.0)


def shadow_correlation(geometry: NetworkGeometry, d0):
    """User-correlation matrix 2^(-rho_{k,j}/d0) of the shadowing field."""
    rho = user_user_distances(geometry)
    return np.power(2.0, -rho / d0)


def correlation_sqrt(corr, tol=1e-10):
    """Matrix square root via eigen-decomposition; small negative modes clipped at 0."""
    vals, vecs = np.linalg.eigh(corr)
    if vals.min() < -tol * max(vals.max(), 1.0):
        raise NumericsError(
            f"shadow correlation matrix not PSD (min eigenvalue {vals.min():.3e})"
        )
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)[None, :]


def shadow_field(geometry: NetworkGeometry, sigma_db, d0, rng):
    """Correlated shadowing draws, one value per (user, AP).

    Covariance: independent across APs; sigma_k*sigma_j*2^(-rho_{k,j}/d0)
    across users at the same AP. `sigma_db` is a scalar or per-(user, AP)
    array of shadowing standard deviations in dB.
    """
    if d0 <= 0:
        raise DomainError("d0 must be > 0")
    sigma = np.broadcast_to(
        np.asarray(sigma_db, dtype=float), (geometry.n_users, geometry.n_ap)
    )
    if np.any(sigma < 0):
        raise DomainError("shadowing sigma must be >= 0")
    root = correlation_sqrt(shadow_correlation(geometry, d0))
    white = rng.standard_normal((geometry.n_users, geometry.n_ap))
    return sigma * (root @ white)


def steering_vector(ap_antennas, user_pos, wavelength):
    """Array response: entry l is exp(-j 2pi/lambda (||z_1 - u|| - ||z_l - u||))."""
    if wavelength <= 0:
        raise DomainError("wavelength must be > 0")
    ants = np.asarray(ap_antennas, dtype=float)
    dists = np.linalg.norm(ants - np.asarray(user_pos, dtype=float)[None, :], axis=1)
    if np.any(dists == 0.0):
        raise DomainError("user coincides with an antenna element")
    return np.exp(-1j * (2.0 * np.pi / wavelength) * (dists[0] - dists))


def build_large_scale(config, geometry: NetworkGeometry, rng) -> LargeScaleState:
    """Assemble the full large-scale state for one drop.

    RNG consumption order is fixed (shadowing, LOS states, LOS phases) so a
    drop is reproducible from its seed.
    """
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
    rice = np.vectorize(lambda p: rice_factor(p, ch.rice_clamp_eps))(p_los)

    # shadowing: correlated unit field scaled by the per-link sigma
    los_state = np.zeros((K, A), dtype=bool)
    uav_rows = roles == ROLE_UAV
    sigma = np.full((K, A), ch.gue_shadow_sigma_db)
    # draw the field first with unit sigma so LOS-state draws don't perturb it
    unit_field = shadow_field(geometry, 1.0, ch.shadow_corr_dist_m, rng)
    if uav_rows.any():
        los_state[uav_rows] = rng.random((int(uav_rows.sum()), A)) < p_los[uav_rows]
        for k in np.flatnonzero(uav_rows):
            for a in range(A):
                sigma[k, a] = ch.uav.shadow_sigma_db(heights[k], los_state[k, a])
    shadow_db = sigma * unit_field

    beta = np.zeros((K, A))
    for k in range(K):
        for a in range(A):
            if roles[k] == ROLE_UAV:
                beta[k, a] = path_gain_uav(
                    d3[k, a], los_state[k, a], ch.uav, f, heights[k], shadow_db[k, a]
                )
            else:
                beta[k, a] = path_gain_gue(d3[k, a], f, shadow_db[k, a], ch.gue_gain)

    steering = np.zeros((K, A, geometry.n_ap_antennas), dtype=complex)
    lam = config.wavelength_m
    for k in range(K):
        for a in range(A):
            # use the periodic user image nearest to the AP so wrap-around and
            # steering geometry agree
            image = nearest_image(
                geometry.user_positions[k], geometry.ap_reference[a], geometry.area_side
            )
            steering[k, a] = steering_vector(geometry.ap_antennas[a], image, lam)

    phase = rng.uniform(0.0, 2.0 * np.pi, size=(K, A))
    return LargeScaleState(
        beta=beta,
        rice_k=rice,
        steering=steering,
        shadow_db=shadow_db,
        los_state=los_state,
        los_phase=phase,
        roles=roles.copy(),
        los_phase_policy=ch.los_phase_policy,
    )


def draw_channels(ls: LargeScaleState, rng, n_draws=1):
    """Draw n_draws joint channel realizations, shape (n_draws, K, A, N).

    The scattered component is i.i.d. CN(0,1); the LOS phase is redrawn per
    call (per_draw policy) or frozen at the drop's phases (per_drop).
    """
    K, A, N = ls.steering.shape
    shape = (n_draws, K, A, N)
    g = np.empty(shape, dtype=complex)
    g.real = rng.standard_normal(shape)
    g.imag = rng.standard_normal(shape)
    nlos = ls.beta / (ls.rice_k + 1.0)
    g *= np.sqrt(nlos / 2.0)[..., None]
    los = (np.sqrt(nlos) * np.sqrt(ls.rice_k))[..., None] * ls.steering
    if ls.los_phase_policy == "per_drop":
        theta = ls.los_phase
    else:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(n_draws, K, A))
    g += np.exp(1j * theta)[..., None] * los
    return g
