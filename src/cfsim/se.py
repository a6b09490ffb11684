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
denominator as a dense variance table C plus the pilot-contamination cross
terms of the copilot pairs only: |phi_k^H phi_j|^2 is 1 for users on the same
pilot (rows of one unitary DFT matrix) and 0 otherwise, so delta and tr(D_j G_k)
are computed on the ordered copilot pairs (k, j) and the own pairs (k, k)
alone. The uplink bound reads the same form by UL-DL duality: user j's power
reaches user k's combiner D_k through the DL terms with the two users swapped,
summed over the serving mask A_k. Everything here is a deterministic function
of the estimation state; the Monte-Carlo mirror used to validate these
expressions lives in cfsim.mc and never calls this module.
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
              + sum_{p: pair_k[p] = k} pair_w[p] |sum_a theta_{pair_j[p],a} pair_t[p,a]|^2
              + sigma_z^2,

    over the P ordered copilot pairs p = (k, j), j != k, that share a pilot:
    pair_t[p, a] = tr(D_j G_k) and pair_w[p] = eta_k (|phi_k^H phi_j|^2 = 1).
    C holds the gain uncertainty (j = k), the average interference and the
    pilot-contamination variances, so C >= 0 and pair_w >= 0 entrywise.
    """

    gamma: np.ndarray  # (K, A)
    C: np.ndarray  # (K, K, A)
    pair_k: np.ndarray  # (P,) int, the user whose channel the pair's term is on
    pair_j: np.ndarray  # (P,) int, the copilot whose estimator (and power) it is
    pair_w: np.ndarray  # (P,)
    pair_t: np.ndarray  # (P, A) complex
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
    """C and the copilot pair terms of one drop. Every trace against the Ricean
    covariance G_k = c_k^2 (K_k a_k a_k^H + I) is c_k^2 (K_k a_k^H M a_k + tr M):
    for M = G_j D_j^H on every (k, j) as one batched matmul per AP, for M = D_j
    on the own and copilot pairs only."""
    D, eta = est.D, est.eta_train
    K, A, N = ls.steering.shape
    c2 = ls.beta / (ls.rice_k + 1.0)  # (K, A), channel user k
    rice = ls.rice_k
    outer = (np.conj(ls.steering)[..., :, None] * ls.steering[..., None, :]).reshape(K, A, N * N)
    gdh = est.G @ np.conj(np.swapaxes(D, 2, 3))  # G_j D_j^H
    # a_k^H (G_j D_j^H) a_k for every (k, j): (A, K, N^2) @ (A, N^2, K)
    steered = outer.transpose(1, 0, 2) @ gdh.reshape(K, A, N * N).transpose(1, 2, 0)
    tr_gdg = c2[:, None, :] * (rice[:, None, :] * steered.transpose(1, 2, 0)
                               + np.trace(gdh, axis1=2, axis2=3))
    if np.abs(tr_gdg.imag).max() > 1e-6 * max(np.abs(tr_gdg).max(), 1e-300):
        raise NumericsError("tr(G D^H G) acquired a non-negligible imaginary part")
    C = np.sqrt(eta)[None, :, None] * tr_gdg.real
    del tr_gdg, steered

    copilot = book.assignment[:, None] == book.assignment[None, :]
    np.fill_diagonal(copilot, False)
    pair_k, pair_j = np.nonzero(copilot)
    own = np.arange(K)
    k, j = np.concatenate([own, pair_k]), np.concatenate([own, pair_j])
    tr_d = np.trace(D, axis1=2, axis2=3)[j]  # estimator user j
    q = np.einsum("pax,pax->pa", outer[k], D.reshape(K, A, N * N)[j])  # a_k^H D_j a_k
    delta = c2[k] ** 2 * (np.abs(tr_d) ** 2 + 2.0 * rice[k] * np.real(q * np.conj(tr_d)))
    t = c2[k] * (rice[k] * q + tr_d)  # tr(D_j G_k)
    pair_w, pair_t = eta[pair_k], t[K:]
    C[own, own] += eta[:, None] * delta[:K] - est.gamma**2
    C[pair_k, pair_j] += pair_w[:, None] * (delta[K:] - np.abs(pair_t) ** 2)
    return SETables(gamma=est.gamma, C=C, pair_k=pair_k, pair_j=pair_j, pair_w=pair_w,
                    pair_t=pair_t, eta_train=eta, serving=assoc.serving)


def _pair_sums(tables: SETables, x):
    """sum_a pair_t[p, a] x[pair_j[p], a] for each copilot pair p."""
    return np.einsum("pa,pa->p", tables.pair_t, x[tables.pair_j])


def dl_sinr_parts(tables: SETables, eta_dl, sigma_z2):
    """(numerator, denominator) of the downlink bound, per user."""
    t = tables
    eta = np.asarray(eta_dl, dtype=float)
    if eta.shape != t.serving.shape:
        raise ValueError(f"eta_dl shape {eta.shape} != (K, A) {t.serving.shape}")
    eta = np.where(t.serving, eta, 0.0)
    root = np.sqrt(eta)
    num = (root * t.gamma).sum(axis=1) ** 2
    contamination = np.bincount(t.pair_k, t.pair_w * np.abs(_pair_sums(t, root)) ** 2,
                                minlength=t.n_users)
    den = t.C.reshape(t.n_users, -1) @ eta.ravel() + contamination + sigma_z2
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

        den_mat[k, j] = sum_{a in A_k} C[j,k,a]
                      + pair_w[p] |sum_{a in A_k} pair_t[p,a]|^2 for the pair p = (j, k),

    so den_mat is entrywise non-negative because C and pair_w are.
    """
    t = tables
    mask = t.serving.astype(float)
    gsum = (mask * t.gamma).sum(axis=1)
    den_mat = np.einsum("jka,ka->kj", t.C, mask)
    den_mat[t.pair_j, t.pair_k] += t.pair_w * np.abs(_pair_sums(t, mask)) ** 2
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
