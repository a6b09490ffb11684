"""Uplink training and LMMSE channel estimation.

Per (user, AP) pair the estimator is D = sqrt(eta) G B^{-1} applied to the
pilot-projected observation y_hat; G is the Ricean channel covariance and B
the covariance of y_hat. gamma = sqrt(eta) tr(G D) is the mean estimate
energy that the spectral-efficiency and power-control formulas consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LargeScaleState
from .errors import NumericsError
from .threads import ap_slices, over_aps


@dataclass(frozen=True)
class PilotBook:
    """Orthonormal pilot set (rows) plus the user -> pilot-index assignment."""

    pilots: np.ndarray  # (tau_p, tau_p) complex, orthonormal rows
    assignment: np.ndarray  # (K,) int

    @property
    def tau_p(self):
        return self.pilots.shape[0]

    @property
    def n_users(self):
        return self.assignment.shape[0]


def pilot_set(tau_p):
    """Deterministic orthonormal pilot set: rows of the unitary DFT matrix."""
    n = np.arange(tau_p)
    dft = np.exp(-2j * np.pi * np.outer(n, n) / tau_p)
    return dft / np.sqrt(tau_p)


def assign_pilots(n_users, tau_p, rng) -> PilotBook:
    """Random pilot assignment; collisions occur whenever n_users > tau_p."""
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    assignment = rng.integers(0, tau_p, size=n_users)
    return PilotBook(pilots=pilot_set(tau_p), assignment=np.asarray(assignment, dtype=int))


def covariance_G(beta, rice_k, steering):
    """Channel covariance beta/(K+1) * (K a a^H + I)."""
    a = np.asarray(steering)
    n = a.shape[-1]
    outer = a[..., :, None] * a.conj()[..., None, :]
    eye = np.eye(n)
    scale = beta / (rice_k + 1.0)
    return scale * (rice_k * outer + eye)


# Largest condition number of a training covariance B that estimation accepts
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class EstimationState:
    """Immutable per-drop estimator state shared by SE and power control. Of the
    covariances G and B only the traces are kept: nothing reads more of them."""

    D: np.ndarray  # (K, A, N, N)
    gamma: np.ndarray  # (K, A)
    tr_G: np.ndarray  # (K, A) real
    tr_B: np.ndarray  # (K, A) real
    eta_train: np.ndarray  # (K,)
    sigma_w2: float

    @property
    def n_users(self):
        return self.D.shape[0]

    @property
    def n_ap(self):
        return self.D.shape[1]

    @property
    def n_ap_antennas(self):
        return self.D.shape[2]


def build_estimation(
    ls: LargeScaleState,
    book: PilotBook,
    eta_train,
    sigma_w2,
) -> EstimationState:
    """Construct D and gamma for every (user, AP) pair, and the traces of G and B.

    Batched over pairs; numerically equivalent to applying the per-pair
    references matrix_B, estimator_D and gamma_coefficient in tests/per_pair.py.
    G = c (K a a^H + I), so B = b I plus the LOS copilots' rank-one terms;
    without them B^{-1} G = G / b, unsolved. A pair whose cond(B) exceeds
    CONDITION_LIMIT raises; cond(B) <= tr(B) / sigma_w^2 clears most pairs
    before eigvalsh. The pairs are built per AP slice (threads.over_aps), each
    slice writing its APs of the outputs; the checks read the whole drop.
    """
    K, A = ls.beta.shape
    N = ls.n_ap_antennas
    eta_train = np.broadcast_to(np.asarray(eta_train, dtype=float), (K,))
    root_eta = np.sqrt(eta_train)
    los = np.flatnonzero((ls.rice_k > 0).any(axis=1))  # users with a LOS term at any AP
    same = book.assignment[:, None] == book.assignment[None, :]
    weights = same * eta_train[None, :]  # (k, i)
    D = np.empty((K, A, N, N), dtype=complex)
    gamma_c = np.empty((K, A), dtype=complex)
    tr_G, tr_B = np.empty((K, A)), np.empty((K, A))
    slices = ap_slices(A, D.size)
    # each slice's G and B, made here: what the worker thread allocates stays in its
    # malloc arena after the drop
    GB = {aps.start: np.empty((2, K, aps.stop - aps.start, N, N), dtype=complex)
          for aps in slices}

    def build(aps):
        """Fill the outputs on the APs aps; return (B finite, cond(B) of the pairs
        eigvalsh checked). D is left unwritten once the drop is bound to raise."""
        beta, rice = ls.beta[:, aps], ls.rice_k[:, aps]
        G, B = GB[aps.start]
        n = beta.shape[1]
        G.fill(0.0)
        G.reshape(K, n, N * N)[..., :: N + 1] = (beta / (rice + 1.0))[..., None]
        G[los] = covariance_G(beta[los, :, None, None], rice[los, :, None, None],
                              ls.steering[los, aps])
        np.matmul(weights, G.reshape(K, -1), out=B.reshape(K, -1))
        B.reshape(K, n, N * N)[..., :: N + 1] += sigma_w2  # the diagonals, in place
        flat = B.reshape(K * n, N, N)
        if not np.isfinite(flat).all():  # eigvalsh would raise a bare LinAlgError
            return False, None
        tr_G[:, aps], tr_B[:, aps] = (np.trace(M, axis1=2, axis2=3).real for M in (G, B))
        # eigvalsh only where the bound tr(B) / sigma_w^2 tops half the limit: the half
        # leaves room for rounding, so the raise decision is that of the full check
        bound = tr_B[:, aps].ravel() / sigma_w2
        lam = np.linalg.eigvalsh(flat[bound > CONDITION_LIMIT / 2])  # cond = lam_max / lam_min
        usable = lam[:, 0] > 0
        cond = np.full(len(lam), np.inf)
        cond[usable] = lam[usable, -1] / lam[usable, 0]
        if not np.all(np.isfinite(cond)) or cond.max(initial=0.0) > CONDITION_LIMIT:
            return True, cond
        # D = sqrt(eta) (B^{-1} G)^H; G is Hermitian, so G / b where B = b I. numpy divides
        # a complex by a real b as (re, im) * (1 / b), so the float view gives the bits.
        # D is built in B's memory, then copied into its APs of the drop's D: einsum sums
        # a contiguous D in the order it sums the whole drop's, a strided slice not
        k, a = np.nonzero(weights @ (rice > 0) > 0)  # pairs with a LOS copilot term
        X = np.linalg.solve(B[k, a], G[k, a])
        Dh = B
        np.multiply(G.view(float), 1.0 / B[..., :1, :1].real, out=Dh.view(float))
        Dh[k, a] = np.swapaxes(np.conjugate(X, out=X), 1, 2)
        Dh *= root_eta[:, None, None, None]
        gamma_c[:, aps] = root_eta[:, None] * np.einsum("kanm,kamn->ka", G, Dh)
        D[:, aps] = Dh
        return True, cond

    finite, conds = zip(*over_aps(slices, build))
    if not all(finite):
        raise NumericsError("training covariance is not finite")
    cond = np.concatenate(conds)
    if not np.all(np.isfinite(cond)) or cond.max(initial=0.0) > CONDITION_LIMIT:
        raise NumericsError(
            f"training covariance ill-conditioned (cond={cond.max():.3e})"
        )
    scale = np.maximum(np.abs(gamma_c), 1e-300)
    if (np.abs(gamma_c.imag) / scale).max() > 1e-6:
        raise NumericsError("gamma acquired a non-negligible imaginary part")
    return EstimationState(
        D=D, gamma=gamma_c.real, tr_G=tr_G, tr_B=tr_B,
        eta_train=np.array(eta_train), sigma_w2=sigma_w2,
    )
