from dataclasses import replace

import numpy as np
import pytest

import cfsim.estimation
from cfsim.errors import NumericsError
from cfsim.config import preset_paper
from cfsim.estimation import PilotBook, assign_pilots, build_estimation

from conftest import drop_state, low_uav_desk, make_state
from per_pair import (
    covariance_G,
    covariances,
    dense_D,
    draw_channels,
    estimator_D,
    exact_estimator,
    gamma_coefficient,
    matrix_B,
    pilot_set,
    training_observable,
)


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
    book = PilotBook(assignment=np.array([0, 0]), tau_p=2)
    return G, book, np.array(eta), sigma_w2, steer


def test_matrix_B_single_user_rayleigh():
    steer = np.ones((1, 3))
    G = covariance_G(1.5, 0.0, steer[0])[None, None]
    book = PilotBook(assignment=np.array([0]), tau_p=2)
    B = matrix_B(0, 0, G, book, np.array([2.0]), 0.3)
    np.testing.assert_allclose(B, (2.0 * 1.5 + 0.3) * np.eye(3), atol=1e-14)


def test_matrix_B_orthogonal_pilots_only_own_term():
    G, book, eta, sw2, _ = _two_user_shared_pilot()
    book2 = PilotBook(assignment=np.array([0, 1]), tau_p=2)
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
    book = PilotBook(assignment=np.array([0]), tau_p=2)
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
    acc = np.zeros((ls.beta.shape[0], ls.beta.shape[1]))
    for _ in range(20):
        g = draw_channels(ls, rng, n // 20)
        for s in range(g.shape[0]):
            _, y_hat = training_observable(g[s], book, est.eta_train, est.sigma_w2, rng)
            acc += np.sum(np.abs(y_hat) ** 2, axis=-1)
    mean_energy = acc / n
    np.testing.assert_allclose(mean_energy, est.tr_B, rtol=0.03)


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
    book = PilotBook(assignment=np.array([0]), tau_p=2)
    B = matrix_B(0, 0, G, book, np.array([eta]), s2)
    D = estimator_D(G[0, 0], B, eta)
    gamma = gamma_coefficient(G[0, 0], D, eta)
    assert gamma == pytest.approx(n_ant * eta * beta**2 / (eta * beta + s2), rel=1e-12)


def test_gamma_matches_mc_estimate_energy(gate_fixture):
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    from cfsim.mc import _batch_sums

    rng = np.random.default_rng(13)
    n = 1_000_000
    total, _ = _batch_sums(  # batches of 20 000 samples
        ls, est, book, rng, n, n // 20_000,
        lambda g, ghat: [np.sum(np.abs(ghat) ** 2, axis=-1).sum(axis=0)],
    )
    mean_energy = total[0] / n
    np.testing.assert_allclose(mean_energy, est.gamma, rtol=0.01)


def test_gamma_bounded_by_channel_energy(gate_fixture):
    est = gate_fixture["est"]
    assert (est.gamma <= est.tr_G * (1.0 + 1e-9)).all()


def test_contamination_locality(gate_fixture):
    # moving a non-copilot user's channel leaves D_{k,a} untouched
    state = make_state(seed=4, n_gue=3, n_uav=0, n_ap=2, tau_p=3, assignment=[0, 0, 1])
    ls, book, est = state["ls"], state["book"], state["est"]
    beta2 = ls.beta.copy()
    beta2[2] *= 7.0  # user 2 is alone on pilot 1
    import dataclasses

    ls2 = dataclasses.replace(ls, beta=beta2)
    est2 = build_estimation(ls2, book, est.eta_train, est.sigma_w2)
    D, D2 = dense_D(est), dense_D(est2)
    np.testing.assert_allclose(D2[0], D[0], atol=1e-14)
    np.testing.assert_allclose(D2[1], D[1], atol=1e-14)
    assert np.abs(D2[2] - D[2]).max() > 1e-9  # its own estimator did change


def _assert_build_matches_per_pair_operations(ls, book, est0):
    eta, sigma_w2 = est0.eta_train, est0.sigma_w2
    G, B = covariances(ls, book, eta, sigma_w2)
    est = build_estimation(ls, book, eta, sigma_w2)
    for name, M in (("tr_G", G), ("tr_B", B)):
        np.testing.assert_allclose(getattr(est, name), np.trace(M, axis1=2, axis2=3).real,
                                   rtol=1e-12, atol=1e-300, err_msg=name)
    est_D = dense_D(est)
    for k in range(est.d.shape[0]):
        for a in range(est.d.shape[1]):
            D = estimator_D(G[k, a], B[k, a], eta)
            g = gamma_coefficient(G[k, a], D, eta)
            np.testing.assert_allclose(est_D[k, a], D, rtol=1e-10, atol=1e-300)
            assert est.gamma[k, a] == pytest.approx(g, rel=1e-10)


def test_batched_build_matches_per_pair_operations(gate_fixture):
    _assert_build_matches_per_pair_operations(
        gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"])


def test_batched_build_matches_per_pair_with_diagonal_and_dense_B():
    # GUEs 0 and 1 share pilot 0 with no LOS term, so their B is a scaled
    # identity (divided, not solved); GUE 2 shares pilot 1 with UAV 3, so
    # B carries the UAV's rank-one LOS term for both
    st = make_state(seed=12, n_gue=3, n_uav=1, tau_p=2, assignment=[0, 0, 1, 1])
    est = st["est"]
    _, B = covariances(st["ls"], st["book"], est.eta_train, est.sigma_w2)
    off = B * (1.0 - np.eye(est.D_dense.shape[2]))
    diagonal = (off == 0).all(axis=(2, 3))
    assert diagonal[:2].all() and not diagonal[2:].any()
    _assert_build_matches_per_pair_operations(st["ls"], st["book"], est)


def _worst_conditioned():
    """The four pairs of K ~ 1e6 UAVs with the largest cond(B) of paper drop 0."""
    cfg = preset_paper()
    ls, book = drop_state(cfg, 0)

    def cond(k, a):
        users = np.flatnonzero(book.assignment == book.assignment[k])
        B = sum(cfg.train_energy_w * covariance_G(ls.beta[i, a], ls.rice_k[i, a],
                                                  ls.steering[i, a]) for i in users)
        return np.linalg.cond(B + cfg.noise_w * np.eye(cfg.n_ap_antennas))

    pairs = [(k, a) for k, a in zip(*np.nonzero(ls.rice_k > 1e5))]
    return ls, book, cfg, sorted(pairs, key=lambda p: -cond(*p))[:4]


def _two_los_uavs():
    """Every user of a paper drop 0 pilot that carries two LOS UAVs (r = 2), at two APs."""
    cfg = preset_paper()
    ls, book = drop_state(cfg, 0)
    pilots, counts = np.unique(book.assignment[ls.los_users], return_counts=True)
    users = np.flatnonzero(book.assignment == pilots[counts == 2][0])
    return ls, book, cfg, [(k, a) for k in users for a in (0, 57)]


def _collinear():
    """UAVs 2 and 3 on one pilot with steering 1j a and a at every AP: rank 1 of 2."""
    st = make_state(seed=4, n_ap=3, n_ap_antennas=3, n_gue=2, n_uav=2, tau_p=1)
    steering = np.zeros_like(st["ls"].steering)
    steering[3] = np.exp(2j * np.pi * np.random.default_rng(5).random((3, 3)))
    steering[2] = 1j * steering[3]
    rice = np.zeros((4, 3))
    rice[2], rice[3] = 1e6, 40.0
    ls = replace(st["ls"], rice_k=rice, steering=steering)
    return ls, st["book"], st["cfg"], [(k, a) for k in range(4) for a in range(3)]


def _square_basis():
    """Four LOS UAVs on the one pilot of a 2-antenna AP: Q is square, I - Q Q^H = 0."""
    st = make_state(seed=9, n_ap=3, n_ap_antennas=2, n_gue=1, n_uav=4, tau_p=1)
    assert (st["ls"].rice_k > 0).sum(axis=0).min() > 2
    return st["ls"], st["book"], st["cfg"], [(k, a) for k in range(5) for a in range(3)]


def _subnormal_k():
    """User 14 of the low-UAV desk drop 0 with, set by hand as its only LOS term, the
    subnormal Ricean factor its LOS probability gives at AP 18 (rice_factor makes
    it 0), and its copilots, at that AP."""
    cfg = low_uav_desk()
    ls, book = drop_state(cfg, 0)
    assert not ls.los_users[14]
    rice, steering = ls.rice_k.copy(), ls.steering.copy()
    rice[14, 18] = 4.0e-318
    steering[14, 18] = np.exp(-1j * np.pi * np.sin(0.3) * np.arange(cfg.n_ap_antennas))
    users = np.flatnonzero(book.assignment == book.assignment[14])
    return replace(ls, rice_k=rice, steering=steering), book, cfg, [(k, 18) for k in users]


@pytest.mark.parametrize("case", [_worst_conditioned, _two_los_uavs, _collinear, _square_basis,
                                  _subnormal_k],
                         ids=["worst-conditioned", "two-los-uavs", "collinear", "square-basis",
                              "subnormal-K"])
def test_estimator_matches_exact_rational_oracle(case):
    # D = sqrt(eta) G B^{-1} and gamma against the same pair computed in exact
    # rationals from the float inputs: within 1e-13 of the pair's largest entry
    ls, book, cfg, pairs = case()
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
    D = dense_D(est)
    assert pairs
    for k, a in pairs:
        exact, gamma = exact_estimator(ls, book, est.eta_train, est.sigma_w2, k, a)
        exact *= np.sqrt(est.eta_train)
        assert np.abs(D[k, a] - exact).max() <= 1e-13 * np.abs(exact).max(), (k, a)
        assert est.gamma[k, a] == pytest.approx(gamma, rel=1e-13), (k, a)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_covariance_raises(gate_fixture):
    # NaN steering phases reach B through the LOS terms; eigvalsh then raised a
    # bare LinAlgError. A 1e300 m antenna spacing made them in a drop before
    # SimConfig.validate rejected AP arrays wider than the area
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    assert ls.rice_k.any()
    steering = ls.steering.copy()
    steering[..., 1:] = np.nan
    with pytest.raises(NumericsError, match="training covariance is not finite"):
        build_estimation(replace(ls, steering=steering), book, est.eta_train, est.sigma_w2)


def test_batched_condition_limit_brackets_max_cond(gate_fixture, monkeypatch):
    # the batched check must raise exactly when some B exceeds the limit,
    # judged against the SVD condition number of every B in the drop
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    N = est.D_dense.shape[2]
    _, B = covariances(ls, book, est.eta_train, est.sigma_w2)
    worst = np.linalg.cond(B.reshape(-1, N, N)).max()
    args = (ls, book, est.eta_train, est.sigma_w2)
    monkeypatch.setattr(cfsim.estimation, "CONDITION_LIMIT", worst * (1 + 1e-6))
    build_estimation(*args)
    monkeypatch.setattr(cfsim.estimation, "CONDITION_LIMIT", worst * (1 - 1e-6))
    with pytest.raises(NumericsError, match="ill-conditioned"):
        build_estimation(*args)


def test_condition_limit_below_trace_bound_falls_back_to_eigvalsh(gate_fixture, monkeypatch):
    # cond(B) <= tr(B) / sigma_w^2 clears most pairs without eigvalsh; a limit
    # between the worst true cond and the largest bound sends some pairs
    # through it, and none of them exceeds the limit
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    N = est.D_dense.shape[2]
    _, B = covariances(ls, book, est.eta_train, est.sigma_w2)
    worst = np.linalg.cond(B.reshape(-1, N, N)).max()
    bound = (est.tr_B / est.sigma_w2).max()
    assert bound > worst * (1 + 1e-4)
    checked = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda b: checked.append(len(b)) or eigvalsh(b))
    monkeypatch.setattr(cfsim.estimation, "CONDITION_LIMIT", np.sqrt(worst * bound))
    build_estimation(ls, book, est.eta_train, est.sigma_w2)
    assert checked[0] > 0


def test_estimation_state_invariants(gate_fixture):
    est = gate_fixture["est"]
    G, B = covariances(gate_fixture["ls"], gate_fixture["book"], est.eta_train, est.sigma_w2)
    D = dense_D(est)
    # B Hermitian PD, gamma real >= 0
    for k in range(est.d.shape[0]):
        for a in range(est.d.shape[1]):
            np.testing.assert_allclose(B[k, a], B[k, a].conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(B[k, a]).min() > 0
            assert est.gamma[k, a] >= 0
            tr = np.sqrt(est.eta_train) * np.trace(G[k, a] @ D[k, a])
            assert abs(tr.imag) <= 1e-9 * max(abs(tr.real), 1e-300)
