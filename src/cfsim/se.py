"""Closed-form spectral-efficiency lower bounds for conjugate beamforming /
matched filtering with LMMSE estimation.

The per-user downlink SINR is assembled as

    num = (sum_{a in A_k} sqrt(eta_dl[k,a]) gamma[k,a])^2
    den = sum_{a in A_k} eta_dl[k,a] (eta_k delta[k,k,a] - gamma[k,a]^2)      (gain uncertainty)
        + sum_j sqrt(eta_j) sum_{a in A_j} eta_dl[j,a] tr(G_j D_j^H G_k)     (average interference)
        + sigma_z^2
        + sum_{j!=k} eta_k |phi_k^H phi_j|^2 [ sum_a eta_dl[j,a] delta[k,j,a]
              + |sum_a sqrt(eta_dl[j,a]) tr(D_j G_k)|^2
              - sum_a eta_dl[j,a] |tr(D_j G_k)|^2 ]                          (pilot contamination)

and the uplink counterpart swaps which user owns the estimator and which owns
the transmit power. delta[s, e, a] is the fourth-moment constant of user s's
channel quadratic form under user e's estimator,

    delta = c^4 |tr D|^2 + 2 K c^4 Re{(a^H D a) conj(tr D)},  c^2 = beta/(K+1),

the remainder of E|g^H D g|^2 being tr(D G D^H G). Everything here is a
deterministic function of the estimation state; the Monte-Carlo mirror used to
validate these expressions lives in cfsim.mc and never calls this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import AssociationMap
from .channel import LargeScaleState
from .errors import NumericsError
from .estimation import EstimationState, PilotBook


def delta_term(beta, rice_k, steering, D):
    """Fourth-moment constant of one (channel stats, estimator) pair."""
    c2 = beta / (rice_k + 1.0)
    tr = np.trace(D)
    aDa = np.einsum("n,nm,m->", np.conj(steering), D, steering)
    return float(c2**2 * (abs(tr) ** 2 + 2.0 * rice_k * np.real(aDa * np.conj(tr))))


@dataclass(frozen=True)
class SETables:
    """Per-drop scalar tables shared by the SINR assembly and the optimizer.

    Index convention: delta[s, e, a] pairs user s's channel statistics with
    user e's estimator; tr_gdg[e, s, a] = tr(G_e D_e^H G_s) (real, >= 0);
    t_dg[e, s, a] = tr(D_e G_s) (complex).
    """

    gamma: np.ndarray  # (K, A)
    delta: np.ndarray  # (K, K, A)
    tr_gdg: np.ndarray  # (K, K, A)
    t_dg: np.ndarray  # (K, K, A) complex
    gram2: np.ndarray  # (K, K)
    eta_train: np.ndarray  # (K,)
    serving: np.ndarray  # (K, A) bool

    @property
    def n_users(self):
        return self.gamma.shape[0]

    @property
    def n_ap(self):
        return self.gamma.shape[1]


def build_se_tables(
    ls: LargeScaleState, est: EstimationState, book: PilotBook, assoc: AssociationMap
) -> SETables:
    G, D = est.G, est.D
    steer = ls.steering

    tr_d = np.trace(D, axis1=2, axis2=3)  # (K, A), estimator index
    aDa = np.einsum("san,eanm,sam->sea", np.conj(steer), D, steer)
    c2 = ls.beta / (ls.rice_k + 1.0)  # (K, A)
    delta = c2[:, None, :] ** 2 * (
        np.abs(tr_d[None, :, :]) ** 2
        + 2.0 * ls.rice_k[:, None, :] * np.real(aDa * np.conj(tr_d)[None, :, :])
    )

    gdh = np.einsum("eanm,eapm->eanp", G, np.conj(D))  # G_e D_e^H
    tr_gdg_c = np.einsum("eanp,sapn->esa", gdh, G)
    if np.abs(tr_gdg_c.imag).max() > 1e-6 * max(np.abs(tr_gdg_c).max(), 1e-300):
        raise NumericsError("tr(G D^H G) acquired a non-negligible imaginary part")
    t_dg = np.einsum("eanm,samn->esa", D, G)

    return SETables(
        gamma=est.gamma,
        delta=delta,
        tr_gdg=tr_gdg_c.real,
        t_dg=t_dg,
        gram2=book.copilot_gram2(),
        eta_train=est.eta_train,
        serving=assoc.serving,
    )


def _masked_dl_powers(tables: SETables, eta_dl):
    eta = np.asarray(eta_dl, dtype=float)
    if eta.shape != tables.serving.shape:
        raise ValueError(f"eta_dl shape {eta.shape} != (K, A) {tables.serving.shape}")
    return np.where(tables.serving, eta, 0.0)


def dl_sinr_quadratic(tables: SETables):
    """The downlink bound's denominator as a quadratic form in theta = sqrt(eta_dl):

        den_k = sum_{j,a} C[k,j,a] theta_ja^2
              + sum_j W[k,j] |sum_a theta_ja T[k,j,a]|^2 + sigma_z^2,

    with T[k,j,a] = tr(D_j G_k), W[k,j] = eta_k |phi_k^H phi_j|^2 for j != k and
    C the gain uncertainty (j = k), the average interference and the
    pilot-contamination variances. Each C entry is a variance, so C >= 0 and
    W >= 0 entrywise. Returns (C, W, T).
    """
    t = tables
    K = t.n_users
    W = t.eta_train[:, None] * t.gram2 * (1.0 - np.eye(K))
    T = np.swapaxes(t.t_dg, 0, 1)
    C = np.sqrt(t.eta_train)[None, :, None] * np.swapaxes(t.tr_gdg, 0, 1)
    C += W[:, :, None] * (t.delta - np.abs(T) ** 2)
    own = np.arange(K)
    C[own, own] += t.eta_train[:, None] * t.delta[own, own] - t.gamma**2
    return C, W, T


def dl_sinr_parts(tables: SETables, eta_dl, sigma_z2):
    """(numerator, denominator) of the downlink bound, per user."""
    eta = _masked_dl_powers(tables, eta_dl)
    root = np.sqrt(eta)
    C, W, T = dl_sinr_quadratic(tables)
    num = (root * tables.gamma).sum(axis=1) ** 2
    cross = np.einsum("kja,ja->kj", T, root)
    den = np.einsum("kja,ja->k", C, eta) + (W * np.abs(cross) ** 2).sum(axis=1) + sigma_z2
    if not np.all(den > 0):
        raise NumericsError("downlink SINR denominator not positive; upstream state corrupt")
    return num, den


def dl_sinr_lb(tables: SETables, eta_dl, sigma_z2):
    """Vector of deterministic downlink SINR lower bounds, one per user."""
    num, den = dl_sinr_parts(tables, eta_dl, sigma_z2)
    return num / den


def ul_sinr_affine(tables: SETables, sigma_w2):
    """Uplink bound as an affine form in the user powers eta:

        SINR_k = num_coef[k] eta_k / (den_mat @ eta + den_const)[k].

    den_mat[k, j] collects the gain uncertainty (j = k), the average
    interference and the pilot contamination of user j's power on user k's
    combiner; all are second moments, so den_mat is entrywise non-negative.
    """
    t = tables
    K = t.n_users
    mask = t.serving.astype(float)  # sums below run over a in A_k
    gsum = (mask * t.gamma).sum(axis=1)
    own_delta = np.einsum("kka->ka", t.delta)
    own_bu = (mask * (t.eta_train[:, None] * own_delta - t.gamma**2)).sum(axis=1)
    mid = np.sqrt(t.eta_train)[:, None] * np.einsum("ka,kja->kj", mask, t.tr_gdg)

    s_cross = np.einsum("ka,kja->kj", mask, t.t_dg)  # sum_{a in A_k} tr(D_k G_j)
    q_cross = np.einsum("ka,kja->kj", mask, np.abs(t.t_dg) ** 2)
    d_cross = np.einsum("ka,jka->kj", mask, t.delta)
    contamination = d_cross + np.abs(s_cross) ** 2 - q_cross  # (k, j)
    off = t.gram2 * (1.0 - np.eye(K))
    den_mat = mid + t.eta_train[None, :] * off * contamination
    den_mat[np.arange(K), np.arange(K)] += own_bu
    return gsum**2, den_mat, sigma_w2 * gsum


def ul_sinr_parts(tables: SETables, eta_ul, sigma_w2):
    """(numerator, denominator) of the uplink bound, per user."""
    eta = np.asarray(eta_ul, dtype=float)
    K = tables.n_users
    if eta.shape != (K,):
        raise ValueError(f"eta_ul shape {eta.shape} != ({K},)")
    num_coef, den_mat, den_const = ul_sinr_affine(tables, sigma_w2)
    num = num_coef * eta
    den = den_mat @ eta + den_const
    if not np.all(den > 0):
        raise NumericsError("uplink SINR denominator not positive; upstream state corrupt")
    return num, den


def ul_sinr_lb(tables: SETables, eta_ul, sigma_w2):
    """Vector of deterministic uplink SINR lower bounds, one per user."""
    num, den = ul_sinr_parts(tables, eta_ul, sigma_w2)
    return num / den


def se_from_sinr(sinr, prelog):
    return prelog * np.log2(1.0 + np.asarray(sinr))
