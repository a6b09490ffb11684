"""Per-pair references for the batched estimation in cfsim.estimation: the
literal B, D and gamma of one (user, AP) pair, and uplink training through the
raw per-AP observation. Tests compare the batched build against these. Also
the pilot and DL budget helpers that only the tests read."""

import numpy as np

from cfsim.errors import NumericsError
from cfsim.estimation import PilotBook
from cfsim.power import transmitted_dl_power


def copilot_gram2(book: PilotBook):
    """|phi_i^H phi_k|^2 matrix; 1 on shared pilots, 0 otherwise."""
    same = book.assignment[:, None] == book.assignment[None, :]
    return same.astype(float)


def pilot_sequences(book: PilotBook):
    """(K, tau_p) pilot sequence of each user."""
    return book.pilots[book.assignment]


def dl_budget_violation(eta_dl, gamma, budgets):
    """Max relative budget excess over APs (negative when strictly inside)."""
    used = transmitted_dl_power(eta_dl, gamma).sum(axis=0)
    return float(((used - budgets) / budgets).max())


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


def training_observable(g, book: PilotBook, eta_train, sigma_w2, rng):
    """Simulated uplink training for one channel realization.

    g is (K, A, N). Returns (Y, y_hat): the raw per-AP received matrices
    Y_a = sum_k sqrt(eta_k) g_{k,a} phi_k^H + W_a of shape (A, N, tau_p), and
    the pilot projections y_hat[k, a] = Y_a phi_k of shape (K, A, N).
    """
    K, A, N = g.shape
    tau_p = book.tau_p
    eta_train = np.broadcast_to(np.asarray(eta_train, dtype=float), (K,))
    phi = pilot_sequences(book)  # (K, tau_p)
    W = np.sqrt(sigma_w2 / 2.0) * (
        rng.standard_normal((A, N, tau_p)) + 1j * rng.standard_normal((A, N, tau_p))
    )
    Y = np.einsum("k,kan,kt->ant", np.sqrt(eta_train), g, phi.conj()) + W
    y_hat = np.einsum("ant,kt->kan", Y, phi)
    return Y, y_hat


def estimate_channels(D, y_hat):
    """Apply the LMMSE estimators: g_hat[k, a] = D[k, a] y_hat[k, a]."""
    return np.einsum("kanm,kam->kan", D, y_hat)
