import numpy as np
import pytest

from cfsim.channel import draw_channels
from cfsim.config import config_from_dict, preset_desk
from cfsim.errors import NumericsError
from cfsim.estimation import (
    PilotBook,
    assign_pilots,
    build_estimation,
    covariance_G,
    estimator_D,
    gamma_coefficient,
    matrix_B,
    pilot_set,
    training_observable,
)
from cfsim.harness import run_drop

from conftest import make_state


# ---------------------------------------------------------------------------
# Pilot assignment
# ---------------------------------------------------------------------------

def test_pilot_collisions_pigeonhole():
    book = assign_pilots(60, 32, np.random.default_rng(0))
    counts = np.bincount(book.assignment, minlength=32)
    shared = sum(c for c in counts if c > 1)
    assert shared >= 28


def test_pilot_gram_identity():
    for tau_p in (2, 7, 32):
        phi = pilot_set(tau_p)
        gram = phi @ phi.conj().T
        np.testing.assert_allclose(gram, np.eye(tau_p), atol=1e-12)


# ---------------------------------------------------------------------------
# Covariance G
# ---------------------------------------------------------------------------

def test_covariance_rayleigh_is_scaled_identity():
    steer = np.exp(1j * np.array([0.0, 0.3, 1.1, 2.0]))
    G = covariance_G(2.0, 0.0, steer)
    np.testing.assert_allclose(G, 2.0 * np.eye(4), atol=1e-15)


def test_covariance_trace_identity():
    steer = np.exp(1j * np.array([0.0, 0.4, 0.9]))
    for rice in (0.0, 0.7, 5.0, 1e6):
        G = covariance_G(1.8, rice, steer)
        assert np.trace(G).real == pytest.approx(1.8 * 3, rel=1e-12)
        # Hermitian PSD
        np.testing.assert_allclose(G, G.conj().T, atol=1e-14)
        assert np.linalg.eigvalsh(G).min() >= -1e-12


# ---------------------------------------------------------------------------
# B matrix and the LMMSE estimator
# ---------------------------------------------------------------------------

def _two_user_shared_pilot(beta=(1.0, 0.5), rice=(0.0, 2.0), n_ant=2, eta=(3.2, 3.2),
                           sigma_w2=0.1, seed=0):
    """Hand-built two-user, one-AP state with a shared pilot."""
    rng = np.random.default_rng(seed)
    steer = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, n_ant)))
    steer[:, 0] = 1.0
    G = np.stack([covariance_G(beta[i], rice[i], steer[i]) for i in range(2)])[:, None]
    book = PilotBook(pilots=pilot_set(2), assignment=np.array([0, 0]))
    return G, book, np.array(eta), sigma_w2, steer


def test_matrix_B_single_user_rayleigh():
    steer = np.ones((1, 3))
    G = covariance_G(1.5, 0.0, steer[0])[None, None]
    book = PilotBook(pilots=pilot_set(2), assignment=np.array([0]))
    B = matrix_B(0, 0, G, book, np.array([2.0]), 0.3)
    np.testing.assert_allclose(B, (2.0 * 1.5 + 0.3) * np.eye(3), atol=1e-14)


def test_matrix_B_orthogonal_pilots_only_own_term():
    G, book, eta, sw2, _ = _two_user_shared_pilot()
    book2 = PilotBook(pilots=pilot_set(2), assignment=np.array([0, 1]))
    B = matrix_B(0, 0, G, book2, eta, sw2)
    np.testing.assert_allclose(B, eta[0] * G[0, 0] + sw2 * np.eye(2), atol=1e-14)


def _ricean_draws(beta, rice, steer, rng, n):
    N = len(steer)
    h = (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))) / np.sqrt(2)
    theta = rng.uniform(0, 2 * np.pi, n)
    return np.sqrt(beta / (rice + 1.0)) * (
        np.sqrt(rice) * np.exp(1j * theta)[:, None] * steer[None, :] + h
    )


def _sample_joint_pair(betas, rices, steers, eta, sigma_w2, rng, n):
    """Draw (g_0, y_hat_0) for a shared-pilot pair, straight from the channel model."""
    g0 = _ricean_draws(betas[0], rices[0], steers[0], rng, n)
    g1 = _ricean_draws(betas[1], rices[1], steers[1], rng, n)
    N = steers[0].shape[0]
    w = np.sqrt(sigma_w2 / 2) * (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N)))
    y = np.sqrt(eta[0]) * g0 + np.sqrt(eta[1]) * g1 + w
    return g0, y


def test_estimator_minimizes_mse_against_perturbations():
    # MC-MMSE optimality oracle: sample E||g - D y||^2 for the implemented D
    # and for +-5% perturbations; the implemented D must win.
    G, book, eta, sw2, steer = _two_user_shared_pilot(seed=3)
    B = matrix_B(0, 0, G, book, eta, sw2)
    D = estimator_D(G[0, 0], B, eta[0])
    rng = np.random.default_rng(4)
    g, y = _sample_joint_pair((1.0, 0.5), (0.0, 2.0), steer, eta, sw2, rng, 1_000_000)

    def mse(Dmat):
        err = g - y @ Dmat.T
        return float(np.mean(np.sum(np.abs(err) ** 2, axis=1)))

    base = mse(D)
    rng_p = np.random.default_rng(5)
    for _ in range(6):
        direction = rng_p.standard_normal(D.shape) + 1j * rng_p.standard_normal(D.shape)
        pert = D + 0.05 * np.abs(D).max() * direction
        assert mse(pert) > base
    assert mse(1.05 * D) > base
    assert mse(0.95 * D) > base


def test_estimator_vanishes_with_infinite_noise():
    G, book, eta, sw2, _ = _two_user_shared_pilot()
    B = matrix_B(0, 0, G, book, eta, 1e12)
    D = estimator_D(G[0, 0], B, eta[0])
    assert np.abs(D).max() < 1e-9


def test_estimator_scalar_closed_form():
    # single user, orthogonal pilots, Rayleigh: D = sqrt(eta) beta / (eta beta + s2) I
    beta, eta, s2 = 1.5, 2.0, 0.3
    G = covariance_G(beta, 0.0, np.ones(3))[None, None]
    book = PilotBook(pilots=pilot_set(2), assignment=np.array([0]))
    B = matrix_B(0, 0, G, book, np.array([eta]), s2)
    D = estimator_D(G[0, 0], B, eta)
    expected = np.sqrt(eta) * beta / (eta * beta + s2) * np.eye(3)
    np.testing.assert_allclose(D, expected, atol=1e-13)


def test_lmmse_error_orthogonality():
    G, book, eta, sw2, steer = _two_user_shared_pilot(seed=6)
    B = matrix_B(0, 0, G, book, eta, sw2)
    D = estimator_D(G[0, 0], B, eta[0])
    rng = np.random.default_rng(7)
    n = 1_000_000
    g, y = _sample_joint_pair((1.0, 0.5), (0.0, 2.0), steer, eta, sw2, rng, n)
    ghat = y @ D.T
    err = g - ghat
    corr = (err[:, :, None] * np.conj(ghat[:, None, :])).mean(axis=0)
    scale = np.sqrt((np.abs(err) ** 2).mean() * (np.abs(ghat) ** 2).mean())
    assert np.abs(corr).max() < 4.0 * scale / np.sqrt(n) * 3


def test_training_observable_noise_free_single_user():
    state = make_state(seed=2, n_gue=1, n_uav=0, n_ap=2, tau_p=2)
    ls, book = state["ls"], state["book"]
    g = draw_channels(ls, np.random.default_rng(8), 1)[0]
    _, y_hat = training_observable(g, book, 3.2, 0.0, np.random.default_rng(9))
    np.testing.assert_allclose(y_hat[0], np.sqrt(3.2) * g[0], atol=1e-12)


def test_training_observable_contamination_sum():
    state = make_state(seed=3, n_gue=2, n_uav=0, n_ap=1, tau_p=2, assignment=[0, 0])
    ls, book = state["ls"], state["book"]
    g = draw_channels(ls, np.random.default_rng(10), 1)[0]
    eta = np.array([3.2, 1.8])
    _, y_hat = training_observable(g, book, eta, 0.0, np.random.default_rng(11))
    expected = np.sqrt(eta[0]) * g[0] + np.sqrt(eta[1]) * g[1]
    np.testing.assert_allclose(y_hat[0], expected, atol=1e-12)
    np.testing.assert_allclose(y_hat[1], expected, atol=1e-12)


def test_training_observable_second_moment_matches_trB(gate_fixture):
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    rng = np.random.default_rng(12)
    n = 100_000
    acc = np.zeros((ls.n_users, ls.n_ap))
    for _ in range(20):
        g = draw_channels(ls, rng, n // 20)
        for s in range(g.shape[0]):
            _, y_hat = training_observable(g[s], book, est.eta_train, est.sigma_w2, rng)
            acc += np.sum(np.abs(y_hat) ** 2, axis=-1)
    mean_energy = acc / n
    tr_B = np.trace(est.B, axis1=2, axis2=3).real
    np.testing.assert_allclose(mean_energy, tr_B, rtol=0.03)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def test_gamma_vanishes_with_noise():
    G, book, eta, sw2, _ = _two_user_shared_pilot()
    B = matrix_B(0, 0, G, book, eta, 1e15)
    D = estimator_D(G[0, 0], B, eta[0])
    assert gamma_coefficient(G[0, 0], D, eta[0]) < 1e-9


def test_gamma_scalar_closed_form():
    beta, eta, s2, n_ant = 1.5, 2.0, 0.3, 4
    G = covariance_G(beta, 0.0, np.ones(n_ant))[None, None]
    book = PilotBook(pilots=pilot_set(2), assignment=np.array([0]))
    B = matrix_B(0, 0, G, book, np.array([eta]), s2)
    D = estimator_D(G[0, 0], B, eta)
    gamma = gamma_coefficient(G[0, 0], D, eta)
    assert gamma == pytest.approx(n_ant * eta * beta**2 / (eta * beta + s2), rel=1e-12)


def test_gamma_matches_mc_estimate_energy(gate_fixture):
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    from cfsim.mc import joint_blocks

    rng = np.random.default_rng(13)
    n = 1_000_000
    acc = np.zeros((ls.n_users, ls.n_ap))
    for _ in range(n // 20_000):  # batches of 20 000 samples
        for g, ghat in joint_blocks(ls, est, book, rng, 20_000):
            acc += np.sum(np.abs(ghat) ** 2, axis=-1).sum(axis=0)
    mean_energy = acc / n
    np.testing.assert_allclose(mean_energy, est.gamma, rtol=0.01)


def test_gamma_bounded_by_channel_energy(gate_fixture):
    est = gate_fixture["est"]
    tr_G = np.trace(est.G, axis1=2, axis2=3).real
    assert (est.gamma <= tr_G * (1.0 + 1e-9)).all()


def test_contamination_locality(gate_fixture):
    # moving a non-copilot user's channel leaves D_{k,a} untouched
    state = make_state(seed=4, n_gue=3, n_uav=0, n_ap=2, tau_p=3, assignment=[0, 0, 1])
    ls, book, est = state["ls"], state["book"], state["est"]
    beta2 = ls.beta.copy()
    beta2[2] *= 7.0  # user 2 is alone on pilot 1
    import dataclasses

    ls2 = dataclasses.replace(ls, beta=beta2)
    est2 = build_estimation(ls2, book, est.eta_train, est.sigma_w2)
    np.testing.assert_allclose(est2.D[0], est.D[0], atol=1e-14)
    np.testing.assert_allclose(est2.D[1], est.D[1], atol=1e-14)
    assert np.abs(est2.D[2] - est.D[2]).max() > 1e-9  # its own estimator did change


def test_batched_build_matches_per_pair_operations(gate_fixture):
    ls, book, est0 = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    eta, sigma_w2 = est0.eta_train, est0.sigma_w2
    G = np.array([[covariance_G(ls.beta[k, a], ls.rice_k[k, a], ls.steering[k, a])
                   for a in range(est0.n_ap)] for k in range(est0.n_users)])
    est = build_estimation(ls, book, eta, sigma_w2)
    for k in range(est.n_users):
        for a in range(est.n_ap):
            B = matrix_B(k, a, G, book, eta, sigma_w2)
            D = estimator_D(G[k, a], B, eta[k])
            g = gamma_coefficient(G[k, a], D, eta[k])
            np.testing.assert_allclose(est.G[k, a], G[k, a], rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(est.B[k, a], B, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(est.D[k, a], D, rtol=1e-10, atol=1e-300)
            assert est.gamma[k, a] == pytest.approx(g, rel=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_covariance_raises():
    # a 1e300 m antenna spacing overflows the phase of every antenna but the
    # reference one to NaN; eigvalsh then raised a bare LinAlgError
    cfg = config_from_dict({"antenna_spacing_m": 1e300, "mc": {"ub_samples": 0}},
                           base=preset_desk())
    with pytest.raises(NumericsError, match="training covariance is not finite"):
        run_drop(cfg, 0, master_seed=1)


def test_batched_condition_limit_brackets_max_cond(gate_fixture):
    # the batched check must raise exactly when some B exceeds the limit,
    # judged against the SVD condition number of every B in the drop
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    N = est.n_ap_antennas
    worst = np.linalg.cond(est.B.reshape(-1, N, N)).max()
    args = (ls, book, est.eta_train, est.sigma_w2)
    build_estimation(*args, condition_limit=worst * (1 + 1e-6))
    with pytest.raises(NumericsError, match="ill-conditioned"):
        build_estimation(*args, condition_limit=worst * (1 - 1e-6))


def test_estimation_state_invariants(gate_fixture):
    est = gate_fixture["est"]
    # B Hermitian PD, G Hermitian PSD, gamma real >= 0
    for k in range(est.n_users):
        for a in range(est.n_ap):
            np.testing.assert_allclose(est.B[k, a], est.B[k, a].conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(est.B[k, a]).min() > 0
            assert est.gamma[k, a] >= 0
            tr = np.sqrt(est.eta_train[k]) * np.trace(est.G[k, a] @ est.D[k, a])
            assert abs(tr.imag) <= 1e-9 * max(abs(tr.real), 1e-300)
