"""Closed-form spectral-efficiency lower bounds for conjugate beamforming /
matched filtering with LMMSE estimation.

The per-user downlink SINR is assembled as

    num = (sum_{a in A_k} sqrt(eta_dl[k,a]) gamma[k,a])^2
    den = sum_{a in A_k} eta_dl[k,a] (eta delta[k,k,a] - gamma[k,a]^2)        (gain uncertainty)
        + sqrt(eta) sum_j sum_{a in A_j} eta_dl[j,a] tr(G_j D_j^H G_k)       (average interference)
        + sigma_z^2
        + sum_{j!=k} eta |phi_k^H phi_j|^2 [ sum_a eta_dl[j,a] delta[k,j,a]
              + |sum_a sqrt(eta_dl[j,a]) tr(D_j G_k)|^2
              - sum_a eta_dl[j,a] |tr(D_j G_k)|^2 ]                          (pilot contamination)

where eta is the training energy of every user and delta[k, j, a] is the
fourth-moment constant of user k's channel quadratic form under user j's
estimator,

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

from .channel import LargeScaleState
from .errors import NumericsError
from .estimation import EstimationState, PilotBook
from .threads import ap_slices, over_aps


@dataclass(frozen=True)
class SETables:
    """Per-drop tables: the downlink bound's denominator as a quadratic form in
    theta = sqrt(eta_dl),

        den_k = sum_{j,a} C[k,j,a] theta_ja^2
              + sum_{p: pair_k[p] = k} pair_w |sum_a theta_{pair_j[p],a} pair_t[p,a]|^2
              + sigma_z^2,

    over the P ordered copilot pairs p = (k, j), j != k, that share a pilot:
    pair_t[p, a] = tr(D_j G_k) and pair_w = eta, the one training energy of every
    user (|phi_k^H phi_j|^2 = 1).
    C holds the gain uncertainty (j = k), the average interference and the
    pilot-contamination variances, so C >= 0 entrywise and pair_w >= 0.
    """

    gamma: np.ndarray  # (K, A)
    C: np.ndarray  # (K, K, A)
    pair_k: np.ndarray  # (P,) int, the user whose channel the pair's term is on
    pair_j: np.ndarray  # (P,) int, the copilot whose estimator (and power) it is
    pair_w: float
    pair_t: np.ndarray  # (P, A) complex
    serving: np.ndarray  # (K, A) bool

    @property
    def n_users(self):
        return self.gamma.shape[0]


def _interference(steering, rice, is_los, c2, est, aps, k, j, C):
    """Fill C[k, j, a] = sqrt(eta) Re tr(G_j D_j^H G_k), the average interference
    of every (k, j, a), and return (q, tr_d, guard): q = a_k^H D_j a_k (0 where
    K_k = 0) and tr D_j on the pairs (k[p], j[p]), and the largest imaginary part
    and modulus of tr(G_j D_j^H G_k). Every array but is_los (the users with a LOS
    link at any AP of the drop) and est holds the APs aps of the drop; C is a view.

    A trace against the Ricean covariance G_k = c_k^2 (K_k a_k a_k^H + I) is
    c_k^2 (K_k a_k^H M a_k + tr M), so on the rows with no LOS link (every GUE)
    tr(G_j D_j^H G_k) is c_k^2 tr(G_j D_j^H), and q = a_l^H D_j a_l is needed on
    the LOS rows l only. There, with the Gram a_l^H a_j,
    a_l^H G_j D_j^H a_l = c_j^2 (conj(q) + K_j (a_l^H a_j) conj(a_l^H D_j a_j)).
    Off est.dense_users D_j = d_j I, so tr D_j = N d_j and q = N d_j; the whole D_j
    is read on the dense rows only, and every LOS user is one of them.
    The (L, K, A) temporaries are freed on return, before the caller's pair terms.
    """
    K, A, N = steering.shape
    los = np.flatnonzero(is_los)
    row = np.where(is_los, np.cumsum(is_los) - 1, -1)  # LOS row of user k; -1: the zero row
    a, ca = steering[los], (c2 * rice)[los]
    d, D, dense = est.d[:, aps], est.D_dense[:, aps], est.dense_users
    outer = (np.conj(a)[..., :, None] * a[..., None, :]).reshape(len(los), A, N * N)
    # q[l, j] = a_l^H D_j a_l: (A, R, N^2) @ (A, N^2, L) on the dense rows, above a zero row
    q = np.zeros((len(los) + 1, K, A), dtype=complex)
    q[:-1] = N * d
    q[:-1, dense] = (D.reshape(len(dense), A, N * N).transpose(1, 0, 2)
                     @ outer.transpose(1, 2, 0)).transpose(2, 1, 0)
    del outer
    # [a_l^H a_m | a_l^H D_m a_m] over the LOS users, one (L, 2L) matmul per AP
    right = np.concatenate([a, np.einsum("lanm,lam->lan", D[np.searchsorted(dense, los)], a)])
    gram, adm = np.split((np.conj(a).transpose(1, 0, 2) @ right.transpose(1, 2, 0))
                         .transpose(1, 2, 0), 2, axis=1)
    tr_d = (N * d).astype(complex)
    tr_d[dense] = np.einsum("raii->ra", D)
    tr_gd = np.conj(c2 * tr_d)  # tr(G_j D_j^H)
    tr_gd[los] += np.conj(ca * q[np.arange(len(los)), los])
    q_pair = q[row[k], j]
    tr_los = q[:-1]  # the LOS rows of q become tr(G_j D_j^H G_l), in place
    np.conjugate(tr_los, out=tr_los)
    tr_los *= c2  # s = a_l^H G_j D_j^H a_l
    tr_los[:, los] += ca * gram * np.conj(adm)
    del right, gram, adm
    tr_los *= rice[los, None]
    tr_los += tr_gd
    tr_los *= c2[los, None]  # c_l^2 (K_l s + tr(G_j D_j^H))
    # every (k, j, a) the guard sees: on the NLOS rows only the largest c_k can set a
    # maximum. np.max of the two parts' maxima keeps a NaN, as one max over both
    # would; max |x| is max(max x, -min x), without an |x| temporary
    parts = (tr_los, c2[~is_los].max(axis=0, initial=0.0) * tr_gd)
    guard = [np.max([np.maximum(p.imag.max(initial=0.0), -p.imag.min(initial=0.0))
                     for p in parts]),
             np.max([np.abs(p).max(initial=0.0) for p in parts])]
    root_eta = np.sqrt(est.eta_train)
    nlos_c = root_eta * tr_gd.real
    tr_los.real *= root_eta
    # C row by row, each run of like rows in one ufunc call: c_k^2 sqrt(eta)
    # Re tr(G_j D_j^H) off the LOS rows, sqrt(eta) Re tr_los on them
    edges = [0, *(np.flatnonzero(np.diff(is_los)) + 1).tolist(), K]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if is_los[lo]:
            C[lo:hi] = tr_los.real[row[lo]:row[lo] + hi - lo]
        else:
            np.multiply(c2[lo:hi, None, :], nlos_c, out=C[lo:hi])
    return q_pair, tr_d[j], guard


def build_se_tables(
    ls: LargeScaleState, est: EstimationState, book: PilotBook, serving
) -> SETables:
    """C and the copilot pair terms of one drop: the average interference table plus
    the gain uncertainty (j = k) and the copilots' variances, from delta and
    tr(D_j G_k) on the own and copilot pairs only; serving is the (K, A) bool
    serving mask the tables carry for the bounds. Built per AP slice
    (threads.over_aps), each slice writing its APs of C and pair_t; the guard on
    the imaginary part of tr(G_j D_j^H G_k) reads the whole drop."""
    K, A = ls.beta.shape
    eta = est.eta_train
    copilot = book.assignment[:, None] == book.assignment[None, :]
    np.fill_diagonal(copilot, False)
    pair_k, pair_j = np.nonzero(copilot)
    own = np.arange(K)
    k, j = np.concatenate([own, pair_k]), np.concatenate([own, pair_j])
    is_los = ls.los_users
    C = np.empty((K, K, A))
    pair_t = np.empty((len(pair_k), A), dtype=complex)

    def build(aps):
        rice = ls.rice_k[:, aps]
        c2 = ls.beta[:, aps] / (rice + 1.0)  # (K, A), channel user k
        Ca = C[:, :, aps]
        q, tr_d, guard = _interference(ls.steering[:, aps], rice, is_los, c2, est, aps,
                                       k, j, Ca)  # a_k^H D_j a_k, tr D_j on the pairs
        delta = c2[k] ** 2 * (np.abs(tr_d) ** 2 + 2.0 * rice[k] * np.real(q * np.conj(tr_d)))
        t = c2[k] * (rice[k] * q + tr_d)  # tr(D_j G_k)
        pair_t[:, aps] = t[K:]
        Ca[own, own] += eta * delta[:K] - est.gamma[:, aps] ** 2
        Ca[pair_k, pair_j] += eta * (delta[K:] - np.abs(t[K:]) ** 2)
        return guard

    imag, size = np.max(over_aps(ap_slices(A, K * A * est.n_ap_antennas**2), build), axis=0)
    if imag > 1e-6 * max(size, 1e-300):
        raise NumericsError("tr(G D^H G) acquired a non-negligible imaginary part")
    return SETables(gamma=est.gamma, C=C, pair_k=pair_k, pair_j=pair_j, pair_w=eta,
                    pair_t=pair_t, serving=serving)


def _pair_sums(tables: SETables, x):
    """sum_a pair_t[p, a] x[pair_j[p], a] for each copilot pair p."""
    return np.einsum("pa,pa->p", tables.pair_t, x[tables.pair_j])


def dl_sinr_lb(tables: SETables, eta_dl, sigma_z2):
    """Vector of deterministic downlink SINR lower bounds, one per user."""
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
    return num / den


def ul_sinr_affine(tables: SETables, sigma_w2):
    """Uplink bound as an affine form in the user powers eta:

        SINR_k = num_coef[k] eta_k / (den_mat @ eta + den_const)[k].

    By UL-DL duality user j's power meets user k's combiner through the DL
    form with the two users swapped, summed over a in A_k:

        den_mat[k, j] = sum_{a in A_k} C[j,k,a]
                      + pair_w |sum_{a in A_k} pair_t[p,a]|^2 for the pair p = (j, k),

    so den_mat is entrywise non-negative because C and pair_w are.
    """
    t = tables
    mask = t.serving.astype(float)
    gsum = (mask * t.gamma).sum(axis=1)
    den_mat = np.einsum("jka,ka->kj", t.C, mask)
    den_mat[t.pair_j, t.pair_k] += t.pair_w * np.abs(_pair_sums(t, mask)) ** 2
    return gsum**2, den_mat, sigma_w2 * gsum


def ul_sinr_lb(tables: SETables, eta_ul, sigma_w2):
    """Vector of deterministic uplink SINR lower bounds, one per user."""
    eta = np.asarray(eta_ul, dtype=float)
    K = tables.n_users
    if eta.shape != (K,):
        raise ValueError(f"eta_ul shape {eta.shape} != ({K},)")
    num_coef, den_mat, den_const = ul_sinr_affine(tables, sigma_w2)
    den = den_mat @ eta + den_const
    if not np.all(den > 0):
        raise NumericsError("uplink SINR denominator not positive; upstream state corrupt")
    return num_coef * eta / den


def se_from_sinr(sinr, prelog):
    return prelog * np.log2(1.0 + np.asarray(sinr))
