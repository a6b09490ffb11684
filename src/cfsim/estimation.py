"""Uplink training and LMMSE channel estimation.

Per (user, AP) pair the estimator is D = sqrt(eta) G B^{-1} applied to the
pilot-projected observation y_hat; G is the Ricean channel covariance and B
the covariance of y_hat. gamma = sqrt(eta) tr(G D) is the mean estimate
energy that the spectral-efficiency and power-control formulas consume.
G is c I plus a rank-one LOS term and B is b I plus the LOS terms of the
pilot's users, so D is built in closed form on the subspace those terms span
(build_estimation), and it is a real d I wherever a pilot has no LOS user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LargeScaleState
from .errors import NumericsError


@dataclass(frozen=True)
class PilotBook:
    """User -> pilot-index assignment over tau_p mutually orthogonal pilots: two
    users share a pilot exactly when their assignments are equal."""

    assignment: np.ndarray  # (K,) int
    tau_p: int


def assign_pilots(n_users, tau_p, rng) -> PilotBook:
    """Random pilot assignment; collisions occur whenever n_users > tau_p."""
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    assignment = rng.integers(0, tau_p, size=n_users)
    return PilotBook(assignment=np.asarray(assignment, dtype=int), tau_p=tau_p)


# Largest condition number of a training covariance B that estimation accepts
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class EstimationState:
    """Immutable per-drop estimator state shared by SE, power control and the
    sampler. Where a pilot has no LOS user at an AP, D is a real d I, so D is kept
    whole only on the rows of the LOS-pilot users (dense_users: their pilot has a
    LOS user at some AP); every other user's estimate is d times the observation.
    Of the covariances G and B only the traces are kept: nothing reads more."""

    d: np.ndarray  # (K, A) real, sqrt(eta) c / b
    dense_users: np.ndarray  # (R,) int, ascending
    D_dense: np.ndarray  # (R, A, N, N), D of the dense users at every AP
    gamma: np.ndarray  # (K, A)
    tr_G: np.ndarray  # (K, A) real
    tr_B: np.ndarray  # (K, A) real
    eta_train: float
    sigma_w2: float


def build_estimation(
    ls: LargeScaleState,
    book: PilotBook,
    eta_train,
    sigma_w2,
) -> EstimationState:
    """d and gamma of every (user, AP) pair, D on the dense users' rows, and the
    traces of G and B, in closed form from the LOS subspace: no dense G or B and
    no N x N solve.

    G_k = c_k (I + K_k a_k a_k^H), so B = b I + sum_i w_i a_i a_i^H, with b =
    sigma_w^2 + sum_i eta c_i over the users on the pilot and w_i = eta c_i K_i over
    its LOS users, eta = eta_train being the training energy of every user. Per
    (LOS pilot, AP), Q is an orthonormal basis of those users' steering vectors:
    the QR factor of V, the vectors side by side and zero columns padding every
    pilot to the widest, so Q spans them however many or collinear they are.
    B_S = Q^H B Q = b I + R diag(w) R^H (V = Q R) is r x r, and
        B^{-1} = (I - Q Q^H) / b + Q B_S^{-1} Q^H,   D = sqrt(eta) G B^{-1},
    which is d I, d = sqrt(eta) c / b, where the pilot has no LOS term at the AP.
    A pilot whose cond(B) = lam_max(B_S) / lam_min(B) exceeds CONDITION_LIMIT
    raises; lam_min(B) = b unless Q is square, and cond(B) <= tr(B) / sigma_w^2
    clears most pilots before eigvalsh. Matches the per-pair references and the
    exact-rational oracle in tests/per_pair.py.
    """
    A = ls.beta.shape[1]
    N = ls.n_ap_antennas
    pilot = book.assignment
    on_pilot = pilot == np.arange(book.tau_p)[:, None]  # (tau_p, K)
    c = ls.beta / (ls.rice_k + 1.0)
    los = np.flatnonzero(ls.los_users)
    rice, steering = ls.rice_k[los], ls.steering[los]
    w = eta_train * c[los] * rice  # (L, A): the LOS terms' weights in B
    norm2 = (steering.real**2 + steering.imag**2).sum(axis=2)
    b = sigma_w2 + on_pilot @ (eta_train * c)  # (tau_p, A)
    tr_B = N * b + on_pilot[:, los] @ (w * norm2)
    if not np.isfinite(tr_B).all():  # eigvalsh would raise a bare LinAlgError
        raise NumericsError("training covariance is not finite")
    tr_G = N * c
    tr_G[los] += c[los] * rice * norm2

    # one basis per (LOS pilot, AP), a LOS pilot being one that carries a LOS user and
    # the dense users those on such pilots. Column slot[l] holds LOS user l where
    # K_l > 0 and zeros elsewhere, so without a LOS term at an AP, B_S = b I
    lp = np.unique(pilot[los])
    rank = np.searchsorted(lp, pilot)  # the LOS pilot of each dense user
    dense = np.flatnonzero(np.isin(pilot, lp))
    slot = np.tril(pilot[los, None] == pilot[los], -1).sum(axis=1)
    li, la = np.nonzero(rice > 0)
    cols = rank[los[li]], la, slot[li]
    V = np.zeros((len(lp), A, N, slot.max(initial=0) + 1), dtype=complex)
    V[cols[0], cols[1], :, cols[2]] = steering[li, la]
    weights = np.zeros(V.shape[:2] + V.shape[3:])
    weights[cols] = w[li, la]
    Q, R = np.linalg.qr(V)
    r = Q.shape[3]
    diag = ..., np.arange(r), np.arange(r)
    B_S = np.einsum("...im,...jm->...ij", R * weights[..., None, :], np.conj(R))
    B_S[diag] += b[lp, :, None]

    # eigvalsh only where the bound tr(B) / sigma_w^2 tops half the limit: the half
    # leaves room for rounding, so the raise decision is that of the full check
    check = tr_B[lp] / sigma_w2 > CONDITION_LIMIT / 2
    lam = np.linalg.eigvalsh(B_S[check])
    low = lam[:, 0] if r == N else b[lp][check]
    usable = low > 0
    cond = np.full(len(lam), np.inf)
    cond[usable] = lam[usable, -1] / low[usable]
    if not np.all(np.isfinite(cond)) or cond.max(initial=0.0) > CONDITION_LIMIT:
        raise NumericsError(
            f"training covariance ill-conditioned (cond={cond.max():.3e})"
        )

    # B^{-1} = I / b + Q (H - I / b) Q^H, H = B_S^{-1}, per (LOS pilot, AP), or Q H Q^H
    # once Q is square and I - Q Q^H = 0. Then D = s (B^{-1} + K a (B^{-1} a)^H),
    # s = sqrt(eta) c, where B^{-1} a = Q H u, u = Q^H a, comes from H: clear of the
    # I / b that B^{-1} cancels along a
    inv_b = 1.0 / b
    H = np.linalg.inv(B_S)
    u = R[rank[los, None], np.arange(A), :, slot[:, None]]  # (L, A, r), 0 where K_l = 0
    Hu = np.einsum("laij,laj->lai", H[rank[los]], u)
    shift = inv_b[lp] * (r < N)
    H[diag] -= shift[..., None]
    B_inv = (Q @ H) @ np.conj(Q).swapaxes(-1, -2)
    B_inv.reshape(len(lp), A, N * N)[..., :: N + 1] += shift[..., None]
    s = np.sqrt(eta_train) * c
    d = s * inv_b[pilot]
    D = B_inv[rank[dense]]
    D *= s[dense, :, None, None]
    left = (s[los] * rice)[..., None] * steering  # s K a
    right = np.conj(np.einsum("lanr,lar->lan", Q[rank[los]], Hu))  # conj(B^{-1} a)
    for row, x, y in zip(np.searchsorted(dense, los), left, right):
        D[row] += x[..., :, None] * y[..., None, :]
    # gamma = sqrt(eta) tr(G D) = s^2 (tr B^{-1} + (2 K + K^2 |a|^2) a^H B^{-1} a)
    gamma = N * inv_b[pilot]
    gamma[dense] = N * shift[rank[dense]] + np.trace(H, axis1=2, axis2=3).real[rank[dense]]
    gamma[los] += (2.0 + rice * norm2) * rice * np.einsum("lai,lai->la", np.conj(u), Hu).real
    gamma *= s * s
    return EstimationState(
        d=d, dense_users=dense, D_dense=D, gamma=gamma, tr_G=tr_G, tr_B=tr_B[pilot],
        eta_train=float(eta_train), sigma_w2=sigma_w2,
    )
