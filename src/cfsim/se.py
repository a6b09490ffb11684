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

where delta[k, j, a] is the fourth-moment constant of user k's channel
quadratic form under user j's estimator,

    delta = c^4 |tr D|^2 + 2 K c^4 Re{(a^H D a) conj(tr D)},  c^2 = beta/(K+1),

the remainder of E|g^H D g|^2 being tr(D G D^H G). SETables holds this
denominator as one quadratic form (C, W, T). The uplink bound reads the same
form by UL-DL duality: user j's power reaches user k's combiner D_k through
the DL terms with the two users swapped, summed over the serving mask A_k.
Everything here is a deterministic function of the estimation state; the
Monte-Carlo mirror used to validate these expressions lives in cfsim.mc and
never calls this module.
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
    """Per-drop tables: the downlink bound's denominator as a quadratic form in
    theta = sqrt(eta_dl),

        den_k = sum_{j,a} C[k,j,a] theta_ja^2
              + sum_j W[k,j] |sum_a theta_ja T[k,j,a]|^2 + sigma_z^2,

    with T[k,j,a] = tr(D_j G_k), W[k,j] = eta_k |phi_k^H phi_j|^2 for j != k and
    C the gain uncertainty (j = k), the average interference and the
    pilot-contamination variances, so C >= 0 and W >= 0 entrywise.
    """

    gamma: np.ndarray  # (K, A)
    C: np.ndarray  # (K, K, A)
    W: np.ndarray  # (K, K)
    T: np.ndarray  # (K, K, A) complex
    eta_train: np.ndarray  # (K,)
    serving: np.ndarray  # (K, A) bool

    @property
    def n_users(self):
        return self.gamma.shape[0]

    @property
    def n_ap(self):
        return self.gamma.shape[1]


def _steered_forms(steering, M):
    """q[k, j, a] = a_{k,a}^H M[j, a] a_{k,a} as one batched matmul per AP:
    (A, K, N^2) steering outer products @ (A, N^2, K) matrices."""
    K, A, N = steering.shape
    outer = (np.conj(steering)[..., :, None] * steering[..., None, :]).reshape(K, A, N * N)
    q = outer.transpose(1, 0, 2) @ M.reshape(K, A, N * N).transpose(1, 2, 0)
    return q.transpose(1, 2, 0)


def build_se_tables(
    ls: LargeScaleState, est: EstimationState, book: PilotBook, assoc: AssociationMap
) -> SETables:
    """C, W and T of one drop. Every trace against the Ricean covariance
    G_k = c_k^2 (K_k a_k a_k^H + I) is c_k^2 (K_k a_k^H M a_k + tr M), so the
    raw terms come from _steered_forms at M = G D^H and M = D."""
    D, K, eta = est.D, est.n_users, est.eta_train
    c2 = (ls.beta / (ls.rice_k + 1.0))[:, None, :]  # channel user k
    rice = ls.rice_k[:, None, :]
    gdh = est.G @ np.conj(np.swapaxes(D, 2, 3))  # G_j D_j^H
    tr_gdg = c2 * (rice * _steered_forms(ls.steering, gdh) + np.trace(gdh, axis1=2, axis2=3))
    if np.abs(tr_gdg.imag).max() > 1e-6 * max(np.abs(tr_gdg).max(), 1e-300):
        raise NumericsError("tr(G D^H G) acquired a non-negligible imaginary part")
    C = np.sqrt(eta)[None, :, None] * tr_gdg.real
    del tr_gdg

    tr_d = np.trace(D, axis1=2, axis2=3)  # estimator user j
    T = _steered_forms(ls.steering, D)  # a_k^H D_j a_k until scaled in place below
    delta = c2**2 * (np.abs(tr_d) ** 2 + 2.0 * rice * np.real(T * np.conj(tr_d)))
    T *= rice
    T += tr_d
    T *= c2  # tr(D_j G_k)
    W = eta[:, None] * book.copilot_gram2() * (1.0 - np.eye(K))
    own = np.arange(K)
    C[own, own] += eta[:, None] * delta[own, own] - est.gamma**2
    C += W[:, :, None] * (delta - np.abs(T) ** 2)
    return SETables(gamma=est.gamma, C=C, W=W, T=T, eta_train=eta, serving=assoc.serving)


def dl_sinr_parts(tables: SETables, eta_dl, sigma_z2):
    """(numerator, denominator) of the downlink bound, per user."""
    t = tables
    eta = np.asarray(eta_dl, dtype=float)
    if eta.shape != t.serving.shape:
        raise ValueError(f"eta_dl shape {eta.shape} != (K, A) {t.serving.shape}")
    eta = np.where(t.serving, eta, 0.0)
    root = np.sqrt(eta)
    num = (root * t.gamma).sum(axis=1) ** 2
    cross = np.einsum("kja,ja->kj", t.T, root)
    den = np.einsum("kja,ja->k", t.C, eta) + (t.W * np.abs(cross) ** 2).sum(axis=1) + sigma_z2
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

    By UL-DL duality user j's power meets user k's combiner through the DL
    form with the two users swapped, summed over a in A_k:

        den_mat[k, j] = sum_{a in A_k} C[j,k,a] + W[j,k] |sum_{a in A_k} T[j,k,a]|^2,

    so den_mat is entrywise non-negative because C and W are.
    """
    t = tables
    mask = t.serving.astype(float)
    gsum = (mask * t.gamma).sum(axis=1)
    cross = np.einsum("jka,ka->jk", t.T, mask)
    den_mat = (np.einsum("jka,ka->jk", t.C, mask) + t.W * np.abs(cross) ** 2).T
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
