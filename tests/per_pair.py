"""References that only the tests call.

- Per-pair estimation: the Ricean covariance G of one (user, AP) pair
  (covariance_G), the literal B, D and gamma of one pair (matrix_B,
  estimator_D, gamma_coefficient), the covariances G and B of a whole drop
  built from them (covariances), every pair's D read out of an estimation
  state (dense_D), and uplink training through the raw per-AP observation
  (training_observable, estimate_channels). Tests compare the closed-form
  cfsim.estimation build against these.
- An exact-rational reference of one pair's estimator (exact_estimator), from
  the pair's float inputs with stdlib fractions only.
- Channel draws: draw_channels, full-size channel realizations in the order
  the Monte-Carlo sampler draws them.
- The fourth moment behind the closed forms' delta: delta_term for one
  (channel stats, estimator) pair and fourth_moment_check, its sampled check.
- Pilot and DL budget helpers: pilot_set, copilot_gram2, pilot_sequences and
  dl_budget_violation.
- The scalar sort-and-scan of one waterfilling level (water_level), the
  reference that cfsim.power.wfpa_dl's all-levels-at-once scan is checked
  against.
- The SE tables' variance table C made whole from its factors (dense_C), and
  the names of the tables' per-drop arrays (TABLES).
"""

from fractions import Fraction

import numpy as np

from cfsim.channel import LargeScaleState, channel_scaler, fill_normal, sample_blocks
from cfsim.errors import NumericsError
from cfsim.estimation import EstimationState, PilotBook
from cfsim.mc import _batched, _stderr
from cfsim.se import SETables

# the factors of C and the pair terms: every array of SETables but gamma and serving
TABLES = ("scale", "col", "los", "los_rows", "own", "pair_t", "pair_var")


def copilot_gram2(book: PilotBook):
    """|phi_i^H phi_k|^2 matrix; 1 on shared pilots, 0 otherwise."""
    same = book.assignment[:, None] == book.assignment[None, :]
    return same.astype(float)


def pilot_set(tau_p):
    """Deterministic orthonormal pilot set: rows of the unitary DFT matrix."""
    n = np.arange(tau_p)
    dft = np.exp(-2j * np.pi * np.outer(n, n) / tau_p)
    return dft / np.sqrt(tau_p)


def pilot_sequences(book: PilotBook):
    """(K, tau_p) pilot sequence of each user: row assignment[k] of pilot_set."""
    return pilot_set(book.tau_p)[book.assignment]


def dl_budget_violation(eta_dl, gamma, budget):
    """Max relative budget excess over APs (negative when strictly inside)."""
    used = (eta_dl * gamma).sum(axis=0)
    return float(((used - budget) / budget).max())


def water_level(noise_levels, budget):
    """Water level nu with sum_k (nu - L_k)^+ = budget, by sort-and-scan."""
    levels = np.sort(np.asarray(noise_levels, dtype=float))
    csum = np.cumsum(levels)
    for m in range(1, levels.size + 1):
        nu = (budget + csum[m - 1]) / m
        if nu >= levels[m - 1] and (m == levels.size or nu <= levels[m]):
            return nu
    return (budget + csum[-1]) / levels.size


def covariance_G(beta, rice_k, steering):
    """Channel covariance beta/(K+1) * (K a a^H + I)."""
    a = np.asarray(steering)
    outer = a[..., :, None] * a.conj()[..., None, :]
    return beta / (rice_k + 1.0) * (rice_k * outer + np.eye(a.shape[-1]))


def dense_C(tables: SETables):
    """(K, K, A): the variance table C of the DL denominator, entry by entry as the
    SETables docstring writes it."""
    K, A = tables.gamma.shape
    C = np.einsum("ka,ja->kja", tables.scale, tables.col)
    C[tables.los] = tables.los_rows
    C[np.arange(K), np.arange(K)] += tables.own
    for k, j, var in zip(tables.pair_k, tables.pair_j, tables.pair_var):
        C[k, j] += var
    return C


def dense_D(est: EstimationState):
    """(K, A, N, N): every pair's D, d I off the dense users' rows."""
    D = est.d[..., None, None] * np.eye(est.D_dense.shape[2], dtype=complex)
    D[est.dense_users] = est.D_dense
    return D


def matrix_B(k, a, G, book: PilotBook, eta_train, sigma_w2):
    """Covariance of the pilot-projected observation y_hat for pair (k, a):
    B = sum_i eta_i G_{i,a} |phi_i^H phi_k|^2 + sigma_w^2 I."""
    n = G.shape[-1]
    same = book.assignment == book.assignment[k]
    weights = np.asarray(eta_train, dtype=float) * same
    B = np.tensordot(weights, G[:, a], axes=(0, 0))
    return B + sigma_w2 * np.eye(n)


def covariances(ls: LargeScaleState, book: PilotBook, eta_train, sigma_w2):
    """(G, B), each (K, A, N, N): covariance_G and matrix_B of every (user, AP) pair."""
    K, A = ls.beta.shape
    G = np.array([[covariance_G(ls.beta[k, a], ls.rice_k[k, a], ls.steering[k, a])
                   for a in range(A)] for k in range(K)])
    B = np.array([[matrix_B(k, a, G, book, eta_train, sigma_w2) for a in range(A)]
                  for k in range(K)])
    return G, B


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


def exact_estimator(ls: LargeScaleState, book: PilotBook, eta_train, sigma_w2, k, a):
    """(D / sqrt(eta_k), gamma) of pair (k, a), D = sqrt(eta_k) G_k B^{-1}, computed in
    exact rationals from the float beta, K, steering, eta and sigma_w^2 and rounded
    once: G_k B^{-1} as an (N, N) complex array, gamma = eta_k tr(G_k B^{-1} G_k)."""
    eta = np.broadcast_to(np.asarray(eta_train, dtype=float), (ls.beta.shape[0],))
    N = ls.n_ap_antennas

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def covariance(i):  # c (K a_n conj(a_m) + [n = m])
        c, K = Fraction(ls.beta[i, a]) / (Fraction(ls.rice_k[i, a]) + 1), Fraction(ls.rice_k[i, a])
        v = [(Fraction(z.real), Fraction(z.imag)) for z in ls.steering[i, a].tolist()]
        return [[tuple(c * (K * p + (n == m and part == 0))
                       for part, p in enumerate(mul(v[n], (v[m][0], -v[m][1]))))
                 for m in range(N)] for n in range(N)]

    G = covariance(k)
    B = [[(Fraction(sigma_w2) * (n == m), Fraction(0)) for m in range(N)] for n in range(N)]
    for i in np.flatnonzero(book.assignment == book.assignment[k]):
        e, Gi = Fraction(eta[i]), covariance(i)
        B = [[(x[0] + e * y[0], x[1] + e * y[1]) for x, y in zip(rb, rg)] for rb, rg in zip(B, Gi)]
    # Gauss-Jordan on [B | G]: X = B^{-1} G, and G B^{-1} = X^H (both Hermitian)
    M = [rb + rg for rb, rg in zip(B, G)]
    for col in range(N):
        piv = M[col][col]  # B is positive definite: no pivoting needed
        den = piv[0] ** 2 + piv[1] ** 2
        inv = (piv[0] / den, -piv[1] / den)
        M[col] = [mul(x, inv) for x in M[col]]
        for r in range(N):
            if r != col:
                f = M[r][col]
                M[r] = [(x[0] - p[0], x[1] - p[1]) for x, p in
                        zip(M[r], (mul(f, y) for y in M[col]))]
    GB = [[(M[m][N + n][0], -M[m][N + n][1]) for m in range(N)] for n in range(N)]
    gamma = Fraction(eta[k]) * sum(mul(GB[n][m], G[m][n])[0] for n in range(N) for m in range(N))
    return np.array([[complex(float(x[0]), float(x[1])) for x in row] for row in GB]), float(gamma)


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


def draw_channels(ls: LargeScaleState, rng, n_draws=1):
    """Draw n_draws joint channel realizations, shape (n_draws, K, A, N).

    The scattered component is i.i.d. CN(0,1); the LOS phase is uniform and
    drawn anew for every realization, so each link's channel has zero mean.
    Draw order: all real parts, all imaginary parts, then the (n_draws, K, A)
    phases block by block.
    """
    K, A, N = ls.steering.shape
    g = np.empty((n_draws, K, A, N), dtype=complex)
    blocks = sample_blocks(n_draws, g.itemsize * K * A * N)
    fill_normal(rng, g.real, blocks)
    fill_normal(rng, g.imag, blocks)
    users, scale = channel_scaler(ls)
    for b in blocks:
        theta = rng.uniform(0.0, 2.0 * np.pi, g[b].shape[:3])
        scale(g[b], theta[:, users])
    return g


def delta_term(beta, rice_k, steering, D):
    """Fourth-moment constant of one (channel stats, estimator) pair."""
    c2 = beta / (rice_k + 1.0)
    tr = np.trace(D)
    aDa = np.einsum("n,nm,m->", np.conj(steering), D, steering)
    return float(c2**2 * (abs(tr) ** 2 + 2.0 * rice_k * np.real(aDa * np.conj(tr))))


def fourth_moment_check(beta, rice_k, steering, D, n_samples, rng, batch_count=20):
    """Sampled E|g^H D g|^2 against the closed-form delta + tr(D G D^H G).

    Returns (sampled_mean, stderr, analytic).
    """
    steering = np.asarray(steering)
    G = covariance_G(beta, rice_k, steering)
    analytic = delta_term(beta, rice_k, steering, D) + float(
        np.trace(D @ G @ D.conj().T @ G).real
    )
    ls = LargeScaleState(  # one (user, AP) pair
        beta=np.array([[beta]]), rice_k=np.array([[rice_k]]), steering=steering[None, None],
        roles=np.zeros(1, dtype=int),
    )
    vals = []
    for size in _batched(n_samples, batch_count):
        g = draw_channels(ls, rng, size)[:, 0, 0]
        quad = ((np.conj(g) @ D) * g).sum(axis=1)
        vals.append(np.mean(np.abs(quad) ** 2))
    return float(np.mean(vals)), _stderr(vals), analytic
