import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from cfsim import mc
from cfsim.association import build_association
from cfsim.channel import LargeScaleState
from cfsim.config import preset_desk, preset_paper
from cfsim.errors import NumericsError
from cfsim.estimation import build_estimation
from cfsim.mc import se_ub_mc
from cfsim.power import ppa_dl
from cfsim.se import (
    build_se_tables,
    dl_sinr_lb,
    se_from_sinr,
    ul_sinr_affine,
    ul_sinr_lb,
)

from conftest import drop_state, make_state
from per_pair import (
    copilot_gram2,
    covariance_G,
    covariances,
    delta_term,
    dense_C,
    dense_D,
    draw_channels,
    fourth_moment_check,
)


# ---------------------------------------------------------------------------
# delta and the fourth-moment identity
# ---------------------------------------------------------------------------

def _unit_steering(rng, n):
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    a[0] = 1.0
    return a


def test_delta_rayleigh_reduces_to_trace_square():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = _unit_steering(rng, 4)
    beta = 1.7
    assert delta_term(beta, 0.0, a, D) == pytest.approx(
        beta**2 * abs(np.trace(D)) ** 2, rel=1e-12
    )


def test_delta_identity_estimator_hand_value():
    # D = I: a^H D a = N and tr(D) = N, so delta = c^4 (N^2 + 2 K N^2)
    rng = np.random.default_rng(1)
    n = 4
    a = _unit_steering(rng, n)
    beta, rice = 1.3, 2.5
    c2 = beta / (rice + 1.0)
    expected = c2**2 * (n**2 + 2.0 * rice * n**2)
    assert delta_term(beta, rice, a, np.eye(n)) == pytest.approx(expected, rel=1e-12)
    # cross-check against the raw moment E||g||^4 - tr(G^2)
    ls = LargeScaleState(
        beta=np.array([[beta]]), rice_k=np.array([[rice]]), steering=a[None, None],
        roles=np.zeros(1, dtype=int),
    )
    g = draw_channels(ls, np.random.default_rng(2), 400_000)[:, 0, 0]
    e4 = np.mean(np.sum(np.abs(g) ** 2, axis=1) ** 2)
    G = covariance_G(beta, rice, a)
    sampled_delta = e4 - np.trace(G @ G).real
    assert sampled_delta == pytest.approx(expected, rel=0.02)


def test_fourth_moment_zero_estimator():
    rng = np.random.default_rng(3)
    a = _unit_steering(rng, 3)
    sampled, stderr, analytic = fourth_moment_check(
        1.0, 1.0, a, np.zeros((3, 3)), 1000, rng
    )
    assert sampled == 0.0 and analytic == 0.0


def test_fourth_moment_classical_gaussian_identity():
    # K=0, D=I, beta=1: E|g^H g|^2 = N^2 + N
    rng = np.random.default_rng(14)
    n = 4
    a = _unit_steering(rng, n)
    sampled, stderr, analytic = fourth_moment_check(1.0, 0.0, a, np.eye(n), 1_000_000, rng)
    assert analytic == pytest.approx(n**2 + n, rel=1e-12)
    assert abs(sampled - analytic) < 3.0 * stderr


def test_fourth_moment_random_fixture():
    rng = np.random.default_rng(5)
    n = 4
    a = _unit_steering(rng, n)
    D = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sampled, stderr, analytic = fourth_moment_check(0.8, 3.0, a, D, 1_000_000, rng)
    assert abs(sampled - analytic) < 3.0 * stderr


# ---------------------------------------------------------------------------
# Closed-form SINR assembly
# ---------------------------------------------------------------------------

def test_dl_sinr_zero_powers(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    sinr = dl_sinr_lb(tables, np.zeros_like(tables.gamma), cfg.noise_w)
    np.testing.assert_array_equal(sinr, 0.0)


def test_ul_sinr_zero_power_for_one_user(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    eta = np.full(tables.n_users, 0.1)
    eta[2] = 0.0
    sinr = ul_sinr_lb(tables, eta, cfg.noise_w)
    assert sinr[2] == 0.0
    assert (sinr[[0, 1, 3]] > 0).all()


def test_sinr_nan_power_raises(gate_fixture):
    # NaN <= 0 is False, so the denominator guard must test den > 0
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    eta_ul = np.full(tables.n_users, 0.1)
    eta_ul[1] = np.nan
    with pytest.raises(NumericsError):
        ul_sinr_lb(tables, eta_ul, cfg.noise_w)
    eta_dl = np.where(tables.serving, 0.01, 0.0)
    k, a = np.argwhere(tables.serving)[0]
    eta_dl[k, a] = np.nan
    with pytest.raises(NumericsError):
        dl_sinr_lb(tables, eta_dl, cfg.noise_w)


def test_trace_imaginary_guard_decisions(gate_fixture):
    # the guard reads its maxima over the LOS and the NLOS parts separately: a
    # rotated estimator still raises, and a NaN still silences it as one max over
    # both parts would, leaving the NaN to the SINR denominator guard
    ls, est, book, serving = (gate_fixture[k] for k in ("ls", "est", "book", "serving"))
    assert est.dense_users.tolist() == [0, 1, 2, 3]  # each pilot carries a UAV
    D = est.D_dense.copy()
    D[2] *= np.exp(1e-3j)  # a UAV's estimator, so both parts see it
    with pytest.raises(NumericsError, match="imaginary part"):
        build_se_tables(ls, dataclasses.replace(est, D_dense=D), book, serving)
    D[1, 0, 0, 0] = np.nan
    tables = build_se_tables(ls, dataclasses.replace(est, D_dense=D), book, serving)
    eta_dl = np.where(tables.serving, 0.01, 0.0)
    with pytest.raises(NumericsError, match="denominator"):
        dl_sinr_lb(tables, eta_dl, gate_fixture["cfg"].noise_w)


_DESK = preset_desk()
DL_FORM_STATES = {
    "gate": dict(seed=11, assignment=[0, 1, 0, 1]),
    "user-centric": dict(seed=3, n_ap=6, n_gue=4, n_uav=1, tau_p=4,
                         association_mode="uc", uc_cluster_size=2),
    "desk": dict(seed=5000, n_ap=_DESK.n_ap, n_ap_antennas=4, n_gue=_DESK.n_gue,
                 n_uav=_DESK.n_uav, tau_p=_DESK.frame.tau_p),
    "40-users-8-pilots": dict(seed=7, n_ap=10, n_gue=32, n_uav=8, tau_p=8),
    "16-antennas": dict(seed=21, n_ap=3, n_ap_antennas=16, n_gue=5, n_uav=1, tau_p=2),
    # the LOS corrections run on no row, and on every row
    "no-los": dict(seed=31, n_ap=5, n_ap_antennas=3, n_gue=6, n_uav=0, tau_p=3),
    "all-los": dict(seed=32, n_ap=5, n_ap_antennas=3, n_gue=0, n_uav=6, tau_p=3),
}


def test_los_states_cover_no_and_every_los_user():
    assert (make_state(**DL_FORM_STATES["no-los"])["ls"].rice_k == 0).all()
    assert (make_state(**DL_FORM_STATES["all-los"])["ls"].rice_k > 0).any(axis=1).all()


@functools.lru_cache(maxsize=None)
def _state_and_pair_terms(name):
    """A DL_FORM_STATES state and its raw terms, one (k, j, a) at a time from
    the per-pair G, D and the large-scale state: delta[k,j,a] (user k's channel under user
    j's estimator), tr_gdg[k,j,a] = tr(G_j D_j^H G_k) and t_dg[k,j,a] = tr(D_j G_k)."""
    st = make_state(**DL_FORM_STATES[name])
    ls, est = st["ls"], st["est"]
    G, _ = covariances(ls, st["book"], est.eta_train, est.sigma_w2)
    D = dense_D(est)
    K, A = est.gamma.shape
    delta, tr_gdg = np.zeros((K, K, A)), np.zeros((K, K, A))
    t_dg = np.zeros((K, K, A), dtype=complex)
    for k, j, a in np.ndindex(K, K, A):
        G_j, D_j, G_k = G[j, a], D[j, a], G[k, a]
        delta[k, j, a] = delta_term(ls.beta[k, a], ls.rice_k[k, a], ls.steering[k, a], D_j)
        tr_gdg[k, j, a] = np.trace(G_j @ D_j.conj().T @ G_k).real
        t_dg[k, j, a] = np.trace(D_j @ G_k)
    return st, (delta, tr_gdg, t_dg)


def _dl_den_term_by_term(st, terms, eta, sigma_z2):
    """The denominator of the module docstring, one named term at a time."""
    t, gram2, eta_train = st["tables"], copilot_gram2(st["book"]), st["est"].eta_train
    delta, tr_gdg, t_dg = terms
    eta = np.where(t.serving, eta, 0.0)
    K = t.n_users
    own = (eta * (eta_train * np.einsum("kka->ka", delta) - t.gamma**2)).sum(1)
    mid = np.sqrt(eta_train) * np.einsum("ja,kja->k", eta, tr_gdg)
    s = np.einsum("ja,kja->jk", np.sqrt(eta), t_dg)
    q = np.einsum("ja,kja->jk", eta, np.abs(t_dg) ** 2)
    d = np.einsum("ja,kja->jk", eta, delta)
    off = gram2 * (1.0 - np.eye(K))
    pc = eta_train * np.einsum("kj,jk->k", off, d + np.abs(s) ** 2 - q)
    return own + mid + sigma_z2 + pc


def _ul_den_term_by_term(st, terms, eta, sigma_w2):
    """The uplink denominator: the DL terms with the estimator on user k's
    side and the power on user j's, summed over a in A_k."""
    t, gram2, eta_train = st["tables"], copilot_gram2(st["book"]), st["est"].eta_train
    delta, tr_gdg, t_dg = terms
    m = t.serving.astype(float)
    K = t.n_users
    own = eta * (m * (eta_train * np.einsum("kka->ka", delta) - t.gamma**2)).sum(1)
    mid = np.sqrt(eta_train) * np.einsum("ka,j,jka->k", m, eta, tr_gdg)
    s = np.einsum("ka,jka->kj", m, t_dg)  # sum_{a in A_k} tr(D_k G_j)
    q = np.einsum("ka,jka->kj", m, np.abs(t_dg) ** 2)
    d = np.einsum("ka,jka->kj", m, delta)
    off = gram2 * (1.0 - np.eye(K))
    pc = (off * (d + np.abs(s) ** 2 - q)) @ (eta_train * eta)
    return own + mid + pc + sigma_w2 * (m * t.gamma).sum(1)


@pytest.mark.parametrize("name", list(DL_FORM_STATES))
def test_dl_quadratic_form_matches_term_by_term_assembly(name):
    st, terms = _state_and_pair_terms(name)
    tables, cfg = st["tables"], st["cfg"]
    eta = ppa_dl(tables.gamma, tables.serving, 0.2)
    num = (np.sqrt(eta) * tables.gamma).sum(axis=1) ** 2
    np.testing.assert_allclose(dl_sinr_lb(tables, eta, cfg.noise_w),
                               num / _dl_den_term_by_term(st, terms, eta, cfg.noise_w), rtol=1e-13)
    C, W = dense_C(tables), tables.pair_w
    assert C.min() >= -1e-12 * np.abs(C).max()  # every entry is a variance
    assert W >= 0.0


@pytest.mark.parametrize("name", list(DL_FORM_STATES))
def test_ul_affine_form_matches_term_by_term_assembly(name):
    st, terms = _state_and_pair_terms(name)
    tables, cfg = st["tables"], st["cfg"]
    eta = np.linspace(0.02, 0.1, tables.n_users)
    num = eta * (tables.serving * tables.gamma).sum(axis=1) ** 2
    np.testing.assert_allclose(ul_sinr_lb(tables, eta, cfg.noise_w),
                               num / _ul_den_term_by_term(st, terms, eta, cfg.noise_w), rtol=1e-13)
    _, den_mat, _ = ul_sinr_affine(tables, cfg.noise_w)
    assert den_mat.min() >= 0.0  # maxmin_ul's premise


# build_se_tables peaked at 4.47-4.61 MB on paper drops 0-3 (tracemalloc; 6.59-6.70
# MB with a dense (K, K, A) C in the tables): the bound is the highest with 15% headroom.
# The tables run on the calling thread, so the bound holds at either thread budget
SE_TABLES_PEAK_BYTES = 5.3e6


@pytest.mark.parametrize("budget", [1, 2])
def test_se_tables_hold_no_k_k_a_array(monkeypatch, budget):
    monkeypatch.setattr(mc, "BUDGET", budget)
    cfg = preset_paper()
    for drop in range(4):
        ls, book = drop_state(cfg, drop)
        est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
        serving = build_association(cfg, ls.beta)
        tracemalloc.start()
        try:
            tables = build_se_tables(ls, est, book, serving)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        K, A = tables.gamma.shape
        sizes = {f.name: np.size(getattr(tables, f.name)) for f in dataclasses.fields(tables)}
        assert max(sizes.values()) < K * K * A, sizes
        assert peak < SE_TABLES_PEAK_BYTES, (drop, peak)


def test_dl_sinr_scalar_assembly_oracle():
    # single user, single AP, orthogonal pilots: assemble the SINR by hand
    # from gamma, delta and trace terms computed directly from G and D
    state = make_state(seed=5, n_ap=1, n_gue=1, n_uav=0, tau_p=2, n_ap_antennas=3)
    tables, est, ls, cfg = state["tables"], state["est"], state["ls"], state["cfg"]
    eta_dl = np.array([[0.037]])
    G, D = covariances(ls, state["book"], est.eta_train, est.sigma_w2)[0][0, 0], dense_D(est)[0, 0]
    gamma = est.gamma[0, 0]
    eta_tr = est.eta_train
    delta = delta_term(ls.beta[0, 0], ls.rice_k[0, 0], ls.steering[0, 0], D)
    num = eta_dl[0, 0] * gamma**2
    mid = np.sqrt(eta_tr) * eta_dl[0, 0] * np.trace(G @ D.conj().T @ G).real
    den = eta_dl[0, 0] * (eta_tr * delta - gamma**2) + mid + cfg.noise_w
    expected = num / den
    assert dl_sinr_lb(tables, eta_dl, cfg.noise_w)[0] == pytest.approx(expected, rel=1e-12)


def test_ul_sinr_scalar_assembly_oracle():
    state = make_state(seed=6, n_ap=1, n_gue=1, n_uav=0, tau_p=2, n_ap_antennas=3)
    tables, est, ls, cfg = state["tables"], state["est"], state["ls"], state["cfg"]
    eta_ul = np.array([0.08])
    G, D = covariances(ls, state["book"], est.eta_train, est.sigma_w2)[0][0, 0], dense_D(est)[0, 0]
    gamma = est.gamma[0, 0]
    eta_tr = est.eta_train
    delta = delta_term(ls.beta[0, 0], ls.rice_k[0, 0], ls.steering[0, 0], D)
    num = eta_ul[0] * gamma**2
    den = (
        eta_ul[0] * (eta_tr * delta - gamma**2)
        + eta_ul[0] * np.sqrt(eta_tr) * np.trace(G @ D.conj().T @ G).real
        + cfg.noise_w * gamma
    )
    assert ul_sinr_lb(tables, eta_ul, cfg.noise_w)[0] == pytest.approx(num / den, rel=1e-12)


def test_sinr_invariant_under_per_ap_unitary_rotation(gate_fixture):
    state = gate_fixture
    ls, book, serving, cfg = state["ls"], state["book"], state["serving"], state["cfg"]
    tables = state["tables"]
    eta_dl = ppa_dl(tables.gamma, tables.serving, 0.2)
    base_dl = dl_sinr_lb(tables, eta_dl, cfg.noise_w)
    base_ul = ul_sinr_lb(tables, np.full(cfg.n_users, 0.1), cfg.noise_w)

    rng = np.random.default_rng(7)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(z)  # unitary rotation of AP 1's antenna space
    steer2 = ls.steering.copy()
    steer2[:, 1, :] = steer2[:, 1, :] @ U.T
    ls2 = dataclasses.replace(ls, steering=steer2)
    est2 = build_estimation(ls2, book, state["est"].eta_train, cfg.noise_w)
    tables2 = build_se_tables(ls2, est2, book, serving)
    np.testing.assert_allclose(
        dl_sinr_lb(tables2, eta_dl, cfg.noise_w), base_dl, rtol=1e-9
    )
    np.testing.assert_allclose(
        ul_sinr_lb(tables2, np.full(cfg.n_users, 0.1), cfg.noise_w), base_ul, rtol=1e-9
    )


def test_silencing_interferers_never_hurts(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    eta_dl = ppa_dl(tables.gamma, tables.serving, 0.2)
    base = dl_sinr_lb(tables, eta_dl, cfg.noise_w)
    k = 0
    muted = eta_dl.copy()
    muted[[j for j in range(tables.n_users) if j != k], :] = 0.0
    alone = dl_sinr_lb(tables, muted, cfg.noise_w)
    assert alone[k] >= base[k]

    eta_ul = np.full(tables.n_users, 0.1)
    base_ul = ul_sinr_lb(tables, eta_ul, cfg.noise_w)
    muted_ul = np.zeros_like(eta_ul)
    muted_ul[k] = eta_ul[k]
    assert ul_sinr_lb(tables, muted_ul, cfg.noise_w)[k] >= base_ul[k]


def test_prelog_factors(gate_fixture):
    cfg = gate_fixture["cfg"]
    # DL and UL split tau_c - tau_p equally, so each link's prelog is half of it over tau_c
    assert cfg.frame.prelog == (cfg.frame.tau_c - cfg.frame.tau_p) / 2 / cfg.frame.tau_c
    se = se_from_sinr(np.array([1.0]), cfg.frame.prelog)
    assert se[0] == pytest.approx((cfg.frame.tau_c - cfg.frame.tau_p) / 2 / cfg.frame.tau_c)


# ---------------------------------------------------------------------------
# Upper bounds
# ---------------------------------------------------------------------------

def test_ub_zero_power_is_zero(gate_fixture):
    state = gate_fixture
    ls, est, book, serving, cfg = (
        state["ls"], state["est"], state["book"], state["serving"], state["cfg"]
    )
    res, _ = se_ub_mc(
        ls, est, book, serving, np.zeros_like(est.gamma), np.full(cfg.n_users, 0.1),
        cfg.noise_w, 0.42, 2000, np.random.default_rng(8),
    )
    np.testing.assert_array_equal(res.ub, 0.0)


def test_ub_dominates_lb(gate_fixture):
    state = gate_fixture
    ls, est, book, serving, cfg, tables = (
        state["ls"], state["est"], state["book"], state["serving"], state["cfg"],
        state["tables"],
    )
    prelog = cfg.frame.prelog
    eta_dl = ppa_dl(tables.gamma, tables.serving, 0.2)
    eta_ul = np.full(cfg.n_users, 0.1)
    rng = np.random.default_rng(9)
    lb_dl = se_from_sinr(dl_sinr_lb(tables, eta_dl, cfg.noise_w), prelog)
    lb_ul = se_from_sinr(ul_sinr_lb(tables, eta_ul, cfg.noise_w), prelog)
    ub_dl, ub_ul = se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, cfg.noise_w,
                            prelog, 30_000, rng)
    assert (lb_dl <= ub_dl.ub + 3.0 * ub_dl.ub_stderr).all()
    assert (lb_ul <= ub_ul.ub + 3.0 * ub_ul.ub_stderr).all()


def test_closed_form_matches_mc_in_user_centric_mode():
    # the serving-set masking must agree between the closed form and the MC
    # sampler when A_k is a strict subset of the APs
    from cfsim.power import fpc_ul

    st = make_state(seed=77, n_ap=4, n_ap_antennas=2, n_gue=2, n_uav=2, tau_p=2,
                    assignment=[0, 1, 0, 1], association_mode="uc",
                    uc_cluster_size=2)
    tables, cfg, ls, est, book, serving = (
        st["tables"], st["cfg"], st["ls"], st["est"], st["book"], st["serving"]
    )
    eta_dl = ppa_dl(tables.gamma, tables.serving, 0.2)
    eta_ul = fpc_ul(est.tr_G, tables.serving, np.full(4, 0.1),
                    cfg.power.fpc.p0_watts, 0.5)
    prelog = cfg.frame.prelog
    lb_dl = se_from_sinr(dl_sinr_lb(tables, eta_dl, cfg.noise_w), prelog)
    lb_ul = se_from_sinr(ul_sinr_lb(tables, eta_ul, cfg.noise_w), prelog)
    mc_dl, mc_ul = se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, cfg.noise_w, prelog,
                            50_000, np.random.default_rng(1))
    assert (np.abs(lb_dl - mc_dl.lb) <= 3.0 * mc_dl.lb_stderr).all()
    assert (np.abs(lb_ul - mc_ul.lb) <= 3.0 * mc_ul.lb_stderr).all()


def test_uatf_interference_zero_for_silent_user(gate_fixture):
    state = gate_fixture
    ls, est, book, serving, cfg, tables = (
        state["ls"], state["est"], state["book"], state["serving"], state["cfg"],
        state["tables"],
    )
    eta_dl = ppa_dl(tables.gamma, tables.serving, 0.2)
    eta_dl[1, :] = 0.0  # user 1 transmitless
    res, _ = se_ub_mc(ls, est, book, serving, eta_dl, np.full(cfg.n_users, 0.1), cfg.noise_w,
                      0.42, 2000, np.random.default_rng(11))
    np.testing.assert_array_equal(res.interference[:, 1], 0.0)


@pytest.fixture(scope="module")
def literal_ub():
    """Both UBs through the literal training op (raw per-AP Y matrices) next to
    the projected fast path, on independent streams."""
    from per_pair import estimate_channels, training_observable

    state = make_state(seed=8, n_ap=2, n_gue=2, n_uav=0, tau_p=2, assignment=[0, 1])
    ls, est, book, cfg = state["ls"], state["est"], state["book"], state["cfg"]
    serving = state["serving"]
    tables = state["tables"]
    eta_dl = ppa_dl(tables.gamma, tables.serving, 0.2)
    eta_ul = np.full(ls.beta.shape[0], 0.1)
    prelog = cfg.frame.prelog
    fast = se_ub_mc(ls, est, book, serving, eta_dl, eta_ul, cfg.noise_w, prelog,
                    40_000, np.random.default_rng(12))

    rng = np.random.default_rng(13)
    n = 40_000
    D = dense_D(est)
    root = np.sqrt(np.where(serving, eta_dl, 0.0))
    mask = serving.astype(float)
    acc_dl = np.zeros(ls.beta.shape[0])
    acc_ul = np.zeros(ls.beta.shape[0])
    for _ in range(n):
        g = draw_channels(ls, rng, 1)[0]
        _, y_hat = training_observable(g, book, est.eta_train, est.sigma_w2, rng)
        g_hat = estimate_channels(D, y_hat)
        cross = np.einsum("kan,ja,jan->kj", np.conj(g), root, g_hat)
        num = np.abs(np.diag(cross)) ** 2
        tot = (np.abs(cross) ** 2).sum(axis=1)
        acc_dl += np.log2(1.0 + num / (tot - num + cfg.noise_w))
        # UL: MR combining over A_k, sum_{a in A_k} ghat_{k,a}^H g_{j,a}
        cross = np.einsum("ka,kan,jan->kj", mask, np.conj(g_hat), g)
        noise = est.sigma_w2 * np.einsum("ka,kan->k", mask, np.abs(g_hat) ** 2)
        pw = eta_ul[None, :] * np.abs(cross) ** 2
        num = np.diag(pw)
        acc_ul += np.log2(1.0 + num / (pw.sum(axis=1) - num + noise))
    return fast, (prelog * acc_dl / n, prelog * acc_ul / n)


def test_ub_matches_independent_literal_path_oracle(literal_ub):
    # the DL UB recomputed through the literal training op must agree
    # statistically with the fast path
    (fast, _), (literal, _) = literal_ub
    np.testing.assert_allclose(literal, fast.ub, atol=4.0 * np.sqrt(2) * fast.ub_stderr.max())


def test_ub_ul_matches_independent_literal_path_oracle(literal_ub):
    (_, fast), (_, literal) = literal_ub
    np.testing.assert_allclose(literal, fast.ub, atol=4.0 * np.sqrt(2) * fast.ub_stderr.max())
