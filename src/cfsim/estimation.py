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

    def copilot_gram2(self):
        """|phi_i^H phi_k|^2 matrix; 1 on shared pilots, 0 otherwise."""
        same = self.assignment[:, None] == self.assignment[None, :]
        return same.astype(float)

    def sequences(self):
        """(K, tau_p) pilot sequence of each user."""
        return self.pilots[self.assignment]


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


def matrix_B(k, a, G, book: PilotBook, eta_train, sigma_w2):
    """Covariance of the pilot-projected observation y_hat for pair (k, a):
    B = sum_i eta_i G_{i,a} |phi_i^H phi_k|^2 + sigma_w^2 I."""
    n = G.shape[-1]
    same = book.assignment == book.assignment[k]
    weights = np.asarray(eta_train, dtype=float) * same
    B = np.tensordot(weights, G[:, a], axes=(0, 0))
    return B + sigma_w2 * np.eye(n)


def estimator_D(G_ka, B_ka, eta_k, condition_limit=1e12):
    """LMMSE estimator D = sqrt(eta) G B^{-1} via a Hermitian solve."""
    cond = np.linalg.cond(B_ka)
    if not np.isfinite(cond) or cond > condition_limit:
        raise NumericsError(f"training covariance ill-conditioned (cond={cond:.3e})")
    # B X = G  =>  X = B^{-1} G; D = sqrt(eta) G B^{-1} = sqrt(eta) X^H
    X = np.linalg.solve(B_ka, G_ka)
    return np.sqrt(eta_k) * X.conj().T


def gamma_coefficient(G_ka, D_ka, eta_k, imag_tol=1e-6):
    """gamma = sqrt(eta) tr(G D); must be real up to numerical residue."""
    val = np.sqrt(eta_k) * np.trace(G_ka @ D_ka)
    scale = max(abs(val), 1e-300)
    if abs(val.imag) / scale > imag_tol:
        raise NumericsError(f"gamma has relative imaginary residue {abs(val.imag) / scale:.3e}")
    return float(val.real)


@dataclass(frozen=True)
class EstimationState:
    """Immutable per-drop estimator state shared by SE and power control."""

    G: np.ndarray  # (K, A, N, N)
    B: np.ndarray  # (K, A, N, N)
    D: np.ndarray  # (K, A, N, N)
    gamma: np.ndarray  # (K, A)
    eta_train: np.ndarray  # (K,)
    sigma_w2: float

    @property
    def n_users(self):
        return self.G.shape[0]

    @property
    def n_ap(self):
        return self.G.shape[1]

    @property
    def n_ap_antennas(self):
        return self.G.shape[2]


def build_estimation(
    ls: LargeScaleState,
    book: PilotBook,
    eta_train,
    sigma_w2,
    condition_limit=1e12,
) -> EstimationState:
    """Construct G, B, D, gamma for every (user, AP) pair.

    Batched over pairs; numerically equivalent to applying matrix_B /
    estimator_D / gamma_coefficient per pair.
    """
    K, A = ls.beta.shape
    N = ls.n_ap_antennas
    eta_train = np.broadcast_to(np.asarray(eta_train, dtype=float), (K,))
    G = covariance_G(ls.beta[..., None, None], ls.rice_k[..., None, None], ls.steering)

    same = book.assignment[:, None] == book.assignment[None, :]
    weights = same * eta_train[None, :]  # (k, i)
    B = (weights @ G.reshape(K, -1)).reshape(K, A, N, N)
    B = B + sigma_w2 * np.eye(N)

    flat = B.reshape(K * A, N, N)
    if not np.isfinite(flat).all():  # eigvalsh would raise a bare LinAlgError
        raise NumericsError("training covariance is not finite")
    lam = np.linalg.eigvalsh(flat)  # B is Hermitian, so cond(B) = lam_max / lam_min
    usable = lam[:, 0] > 0
    cond = np.full(K * A, np.inf)
    cond[usable] = lam[usable, -1] / lam[usable, 0]
    if not np.all(np.isfinite(cond)) or cond.max() > condition_limit:
        raise NumericsError(
            f"training covariance ill-conditioned (cond={cond.max():.3e})"
        )
    X = np.linalg.solve(B.reshape(K * A, N, N), G.reshape(K * A, N, N))
    D = np.sqrt(eta_train)[:, None, None, None] * np.conj(
        np.swapaxes(X.reshape(K, A, N, N), 2, 3)
    )

    gamma_c = np.sqrt(eta_train)[:, None] * np.einsum("kanm,kamn->ka", G, D)
    scale = np.maximum(np.abs(gamma_c), 1e-300)
    if (np.abs(gamma_c.imag) / scale).max() > 1e-6:
        raise NumericsError("gamma acquired a non-negligible imaginary part")
    return EstimationState(
        G=G, B=B, D=D, gamma=gamma_c.real,
        eta_train=np.array(eta_train), sigma_w2=sigma_w2,
    )


def training_observable(g, book: PilotBook, eta_train, sigma_w2, rng):
    """Simulated uplink training for one channel realization.

    g is (K, A, N). Returns (Y, y_hat): the raw per-AP received matrices
    Y_a = sum_k sqrt(eta_k) g_{k,a} phi_k^H + W_a of shape (A, N, tau_p), and
    the pilot projections y_hat[k, a] = Y_a phi_k of shape (K, A, N).
    """
    K, A, N = g.shape
    tau_p = book.tau_p
    eta_train = np.broadcast_to(np.asarray(eta_train, dtype=float), (K,))
    phi = book.sequences()  # (K, tau_p)
    W = np.sqrt(sigma_w2 / 2.0) * (
        rng.standard_normal((A, N, tau_p)) + 1j * rng.standard_normal((A, N, tau_p))
    )
    Y = np.einsum("k,kan,kt->ant", np.sqrt(eta_train), g, phi.conj()) + W
    y_hat = np.einsum("ant,kt->kan", Y, phi)
    return Y, y_hat


def estimate_channels(D, y_hat):
    """Apply the LMMSE estimators: g_hat[k, a] = D[k, a] y_hat[k, a]."""
    return np.einsum("kanm,kam->kan", D, y_hat)
