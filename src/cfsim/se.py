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
denominator as the factors of a variance table C (rank one per AP off the LOS
users' rows) plus the pilot-contamination cross terms of the copilot pairs
only: |phi_k^H phi_j|^2 is 1 for users on the same pilot (rows of one unitary
DFT matrix) and 0 otherwise, so delta and tr(D_j G_k) are computed on the
ordered copilot pairs (k, j) and the own pairs (k, k) alone. The uplink bound
reads the same form by UL-DL duality: user j's power reaches user k's combiner
D_k through the DL terms with the two users swapped, summed over the serving
mask A_k. Everything here is a deterministic function of the estimation state;
the Monte-Carlo mirror used to validate these expressions lives in cfsim.mc
and never calls this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LargeScaleState
from .errors import NumericsError
from .estimation import EstimationState, PilotBook


@dataclass(frozen=True)
class SETables:
    """Per-drop tables: the downlink bound's denominator as a quadratic form in
    theta = sqrt(eta_dl),

        den_k = sum_{j,a} C[k,j,a] theta_ja^2
              + sum_{p: pair_k[p] = k} pair_w |sum_a theta_{pair_j[p],a} pair_t[p,a]|^2
              + sigma_z^2,

    over the P ordered copilot pairs p = (k, j), j != k, that share a pilot:
    pair_t[p, a] = tr(D_j G_k) and pair_w = eta, the one training energy of every
    user (|phi_k^H phi_j|^2 = 1). C is held as its factors: the average interference
    C[k,j,a] = scale[k,a] col[j,a], or los_rows[l,j,a] on a LOS row k = los[l], plus
    the gain uncertainty own[k,a] at j = k and the copilot variance pair_var[p,a] at
    (k, j) = (pair_k, pair_j)[p], with col = sqrt(eta) Re tr(G_j D_j^H) and scale =
    c_k^2 (0 on the LOS rows). So C >= 0 entrywise and pair_w >= 0.
    """

    gamma: np.ndarray  # (K, A)
    scale: np.ndarray  # (K, A), 0 on the LOS rows
    col: np.ndarray  # (K, A)
    los: np.ndarray  # (L,) int, the users with a LOS link at some AP
    los_rows: np.ndarray  # (L, K, A)
    own: np.ndarray  # (K, A)
    pair_k: np.ndarray  # (P,) int, the user whose channel the pair's term is on
    pair_j: np.ndarray  # (P,) int, the copilot whose estimator (and power) it is
    pair_w: float
    pair_t: np.ndarray  # (P, A) complex
    pair_var: np.ndarray  # (P, A)
    serving: np.ndarray  # (K, A) bool

    @property
    def n_users(self):
        return self.gamma.shape[0]


def _interference(steering, rice, is_los, c2, est, k, j):
    """The average interference sqrt(eta) Re tr(G_j D_j^H G_k) as col (K, A) and
    los_rows (L, K, A) (see SETables), and q = a_k^H D_j a_k (0 where K_k = 0) and
    tr D_j on the pairs (k[p], j[p]): returns (col, los_rows, q, tr_d). Raises
    NumericsError when tr(G_j D_j^H G_k) has a non-negligible imaginary part.

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
    d, D, dense = est.d, est.D_dense, est.dense_users
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
    imag = np.max([np.maximum(p.imag.max(initial=0.0), -p.imag.min(initial=0.0))
                   for p in parts])
    if imag > 1e-6 * max(np.max([np.abs(p).max(initial=0.0) for p in parts]), 1e-300):
        raise NumericsError("tr(G D^H G) acquired a non-negligible imaginary part")
    root_eta = np.sqrt(est.eta_train)
    return tr_gd.real * root_eta, tr_los.real * root_eta, q_pair, tr_d[j]


def build_se_tables(
    ls: LargeScaleState, est: EstimationState, book: PilotBook, serving
) -> SETables:
    """The factors of C and the copilot pair terms of one drop: the average
    interference plus the gain uncertainty (j = k) and the copilots' variances,
    from delta and tr(D_j G_k) on the own and copilot pairs only; serving is the
    (K, A) bool serving mask the tables carry for the bounds."""
    K = ls.beta.shape[0]
    eta = est.eta_train
    copilot = book.assignment[:, None] == book.assignment[None, :]
    np.fill_diagonal(copilot, False)
    pair_k, pair_j = np.nonzero(copilot)
    users = np.arange(K)
    k, j = np.concatenate([users, pair_k]), np.concatenate([users, pair_j])
    is_los, rice = ls.los_users, ls.rice_k
    c2 = ls.beta / (rice + 1.0)  # (K, A), channel user k
    col, los_rows, q, tr_d = _interference(ls.steering, rice, is_los, c2, est, k, j)
    delta = c2[k] ** 2 * (np.abs(tr_d) ** 2 + 2.0 * rice[k] * np.real(q * np.conj(tr_d)))
    t = c2[k] * (rice[k] * q + tr_d)  # tr(D_j G_k)
    return SETables(gamma=est.gamma, scale=np.where(is_los[:, None], 0.0, c2), col=col,
                    los=np.flatnonzero(is_los), los_rows=los_rows,
                    own=eta * delta[:K] - est.gamma**2, pair_k=pair_k, pair_j=pair_j,
                    pair_w=eta, pair_t=t[K:], pair_var=eta * (delta[K:] - np.abs(t[K:]) ** 2),
                    serving=serving)


def _pair_terms(t: SETables, root, eta):
    """Each copilot pair p's term in the denominator of pair_k[p], at amplitudes root
    and powers eta (K, A): pair_w |sum_a pair_t root[j]|^2 + sum_a pair_var eta[j]."""
    return (t.pair_w * np.abs(np.einsum("pa,pa->p", t.pair_t, root[t.pair_j])) ** 2
            + np.einsum("pa,pa->p", t.pair_var, eta[t.pair_j]))


def dl_sinr_lb(tables: SETables, eta_dl, sigma_z2):
    """Vector of deterministic downlink SINR lower bounds, one per user."""
    t = tables
    eta = np.asarray(eta_dl, dtype=float)
    if eta.shape != t.serving.shape:
        raise ValueError(f"eta_dl shape {eta.shape} != (K, A) {t.serving.shape}")
    eta = np.where(t.serving, eta, 0.0)
    root = np.sqrt(eta)
    num = (root * t.gamma).sum(axis=1) ** 2
    den = (t.scale @ (t.col * eta).sum(axis=0) + (t.own * eta).sum(axis=1) + sigma_z2
           + np.bincount(t.pair_k, _pair_terms(t, root, eta), minlength=t.n_users))
    den[t.los] += t.los_rows.reshape(-1, eta.size) @ eta.ravel()
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
    den_mat = (mask * t.col) @ t.scale.T
    den_mat[:, t.los] += np.einsum("lka,ka->kl", t.los_rows, mask)
    np.einsum("kk->k", den_mat)[:] += (mask * t.own).sum(axis=1)  # a view: the diagonal
    den_mat[t.pair_j, t.pair_k] += _pair_terms(t, mask, mask)
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
