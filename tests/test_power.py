import dataclasses
import math

import numpy as np
import pytest

from cfsim.config import dbm_to_watts
from cfsim.errors import DegenerateInputError
from cfsim.estimation import build_estimation
from cfsim.geometry import ROLE_GUE, ROLE_UAV
from cfsim.power import (
    DlPowerModel,
    dl_budget_violation,
    dl_normalizers,
    fpc_ul,
    maxmin_dl,
    maxmin_ul,
    ppa_dl,
    solve_block_subproblem,
    solve_water_level,
    transmitted_dl_power,
    uniform_dl,
    wfpa_dl,
)
from cfsim.se import build_se_tables, dl_sinr_lb, se_from_sinr, ul_sinr_lb

from conftest import make_state


# ---------------------------------------------------------------------------
# PPA
# ---------------------------------------------------------------------------

def test_ppa_equal_gamma_splits_evenly():
    gamma = np.array([[2.0], [2.0]])
    serving = np.ones((2, 1), dtype=bool)
    eta = ppa_dl(gamma, serving, np.array([0.4]))
    power = transmitted_dl_power(eta, gamma)
    np.testing.assert_allclose(power[:, 0], [0.2, 0.2])


def test_ppa_kappa_single_member_classes():
    gamma = np.array([[1.0], [3.0]])
    serving = np.ones((2, 1), dtype=bool)
    roles = np.array([ROLE_GUE, ROLE_UAV])
    eta = ppa_dl(gamma, serving, np.array([1.0]), roles=roles, kappa=0.2)
    power = transmitted_dl_power(eta, gamma)
    assert power[1, 0] == pytest.approx(0.2)  # the lone UAV gets exactly kappa
    assert power[0, 0] == pytest.approx(0.8)


def test_ppa_budget_exact_random(gate_fixture):
    tables = gate_fixture["tables"]
    budgets = np.full(tables.n_ap, 0.2)
    eta = ppa_dl(tables.gamma, tables.serving, budgets)
    used = transmitted_dl_power(eta, tables.gamma).sum(axis=0)
    np.testing.assert_allclose(used, budgets, rtol=1e-12)


def test_ppa_degenerate_zero_gamma():
    gamma = np.zeros((2, 1))
    serving = np.ones((2, 1), dtype=bool)
    with pytest.raises(DegenerateInputError):
        ppa_dl(gamma, serving, np.array([0.2]))


def test_uniform_dl_equal_transmit_power():
    gamma = np.array([[1.0], [4.0], [0.5]])
    serving = np.ones((3, 1), dtype=bool)
    eta = uniform_dl(gamma, serving, np.array([0.9]))
    power = transmitted_dl_power(eta, gamma)
    np.testing.assert_allclose(power[:, 0], 0.3)


# ---------------------------------------------------------------------------
# Water filling
# ---------------------------------------------------------------------------

def test_water_level_analytic_case():
    nu = solve_water_level([1.0, 2.0, 10.0], 3.0)
    assert nu == pytest.approx(3.0)


def test_water_level_single_and_equal_levels():
    assert solve_water_level([7.0], 2.0) == pytest.approx(9.0)
    assert solve_water_level([3.0, 3.0, 3.0], 6.0) == pytest.approx(3.0 + 2.0)


def test_water_level_errors():
    with pytest.raises(DegenerateInputError):
        solve_water_level([], 1.0)
    with pytest.raises(DegenerateInputError):
        solve_water_level([1.0], 0.0)


def test_water_level_kkt_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(1, 12)
        levels = rng.uniform(0.01, 10.0, n)
        budget = rng.uniform(0.1, 20.0)
        nu = solve_water_level(levels, budget)
        powers = np.maximum(nu - levels, 0.0)
        assert powers.sum() == pytest.approx(budget, rel=1e-9)  # budget exact
        active = powers > 0
        assert active.any()
        # all zero-power users sit at or above the water level
        assert (levels[~active] >= nu - 1e-12).all()


def test_wfpa_single_user_gets_budget():
    gamma = np.array([[0.3]])
    serving = np.ones((1, 1), dtype=bool)
    eta = wfpa_dl(gamma, serving, np.array([0.7]), sigma_z2=1e-9)
    power = transmitted_dl_power(eta, gamma)
    assert power[0, 0] == pytest.approx(0.7)


def test_wfpa_analytic_three_user_case():
    # L = sigma_z^2/gamma = (1, 2, 10) with sigma_z^2 = 1, budget 3 -> (2, 1, 0)
    gamma = np.array([[1.0], [0.5], [0.1]])
    serving = np.ones((3, 1), dtype=bool)
    eta = wfpa_dl(gamma, serving, np.array([3.0]), sigma_z2=1.0)
    power = transmitted_dl_power(eta, gamma)
    np.testing.assert_allclose(power[:, 0], [2.0, 1.0, 0.0], atol=1e-12)


def test_wfpa_kkt_and_budget(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    budgets = np.full(tables.n_ap, 0.2)
    eta = wfpa_dl(tables.gamma, tables.serving, budgets, cfg.sigma_z2)
    power = transmitted_dl_power(eta, tables.gamma)
    np.testing.assert_allclose(power.sum(axis=0), budgets, rtol=1e-9)
    levels = cfg.sigma_z2 / tables.gamma
    for a in range(tables.n_ap):
        active = power[:, a] > 0
        nu = levels[active, a] + power[active, a]
        np.testing.assert_allclose(nu, nu[0], rtol=1e-9)  # one shared water level
        assert (levels[~active, a] >= nu[0] * (1 - 1e-12)).all()


def test_wfpa_kappa_budget_split(gate_fixture):
    tables, cfg, ls = gate_fixture["tables"], gate_fixture["cfg"], gate_fixture["ls"]
    budgets = np.full(tables.n_ap, 0.2)
    for kappa in (0.1, 0.2):
        eta = wfpa_dl(tables.gamma, tables.serving, budgets, cfg.sigma_z2,
                      roles=ls.roles, kappa=kappa)
        power = transmitted_dl_power(eta, tables.gamma)
        uav_power = power[ls.roles == ROLE_UAV].sum(axis=0)
        np.testing.assert_allclose(uav_power, kappa * budgets, rtol=1e-9)


# ---------------------------------------------------------------------------
# FPC
# ---------------------------------------------------------------------------

def _diag_G(betas):
    """(K, 1, N, N) diagonal covariances with given per-user traces/N."""
    K = len(betas)
    return np.stack([b * np.eye(2) for b in betas])[:, None]


def test_fpc_compensation_branch():
    p0 = dbm_to_watts(-10.0)
    G = _diag_G([1e3])  # zeta = sqrt(2e3) huge -> compensation branch
    eta = fpc_ul(G, np.ones((1, 1), dtype=bool), 0.1, p0, 0.5)
    zeta = math.sqrt(2e3)
    assert eta[0] == pytest.approx(p0 * zeta**-0.5)
    assert eta[0] < 0.1


def test_fpc_cap_branch():
    p0 = dbm_to_watts(-10.0)
    G = _diag_G([1e-14])  # tiny zeta: compensation would exceed P_max -> cap
    eta = fpc_ul(G, np.ones((1, 1), dtype=bool), 0.1, p0, 0.5)
    assert eta[0] == pytest.approx(0.1)


def test_fpc_alpha_zero_no_compensation():
    p0 = dbm_to_watts(-10.0)
    G = _diag_G([1e3, 1e-9])
    eta = fpc_ul(G, np.ones((2, 1), dtype=bool), 0.1, p0, 0.0)
    np.testing.assert_allclose(eta, min(0.1, p0))


# ---------------------------------------------------------------------------
# Surrogate machinery
# ---------------------------------------------------------------------------

def _dl_model(state, kappa=None):
    tables, cfg, ls = state["tables"], state["cfg"], state["ls"]
    budgets = np.full(tables.n_ap, 0.2)
    roles = ls.roles if kappa is not None else None
    rho = dl_normalizers(tables.gamma, tables.serving, roles=roles, kappa=kappa)
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    model = DlPowerModel(tables, rho, cfg.sigma_z2, prelog)
    eta = ppa_dl(tables.gamma, tables.serving, budgets, roles=roles, kappa=kappa)
    bar = np.where(rho > 0, eta / np.where(rho > 0, rho, 1.0), 0.0)
    return model, bar, budgets


def _surrogates(model, eta_bar, anchor_bar, ap, users):
    """All K block surrogates at eta_bar, linearized around anchor_bar, and
    their gradients w.r.t. the block's eta_bar entries."""
    co = model.block_coeffs(anchor_bar, ap, users)
    u = np.sqrt(np.asarray(eta_bar, dtype=float)[users, ap])
    u0 = np.sqrt(np.asarray(anchor_bar, dtype=float)[users, ap])
    vals, grads_u = model.surrogates_all(co, u, u0)
    return vals, grads_u / (2.0 * u)  # d/d eta_bar = (d/du) / (2u)


def test_surrogate_tangent_at_anchor(gate_fixture):
    model, bar, _ = _dl_model(gate_fixture)
    tables = gate_fixture["tables"]
    users = np.flatnonzero(tables.serving[:, 0])
    rates = model.rates(bar)
    vals, _ = _surrogates(model, bar, bar, 0, users)
    for k in range(tables.n_users):
        assert vals[k] == pytest.approx(rates[k], rel=1e-12)


def test_surrogate_lower_bounds_rate_at_random_points(gate_fixture):
    model, anchor, budgets = _dl_model(gate_fixture)
    tables = gate_fixture["tables"]
    rng = np.random.default_rng(1)
    ap = 0
    users = np.flatnonzero(tables.serving[:, ap])
    w = model.rho[users, ap] * tables.gamma[users, ap]
    for _ in range(100):
        cand = anchor.copy()
        x = rng.uniform(0.0, 1.0, users.size)
        cand[users, ap] = x * (rng.uniform(0.2, 1.0) * budgets[ap] / (w @ x))
        rates = model.rates(cand)
        vals, _ = _surrogates(model, cand, anchor, ap, users)
        for k in range(tables.n_users):
            assert vals[k] <= rates[k] + 1e-9


def test_surrogate_gradient_matches_finite_differences(gate_fixture):
    model, anchor, _ = _dl_model(gate_fixture)
    tables = gate_fixture["tables"]
    ap = 1
    users = np.flatnonzero(tables.serving[:, ap])
    point = anchor.copy()
    point[users, ap] *= np.linspace(0.6, 1.3, users.size)  # interior, off-anchor
    _, grads = _surrogates(model, point, anchor, ap, users)
    fd = np.zeros_like(grads)
    for pos, j in enumerate(users):
        h = max(point[j, ap], 1e-4) * 1e-5
        up, dn = point.copy(), point.copy()
        up[j, ap] += h
        dn[j, ap] -= h
        fd[:, pos] = (
            _surrogates(model, up, anchor, ap, users)[0]
            - _surrogates(model, dn, anchor, ap, users)[0]
        ) / (2 * h)
    for k in range(tables.n_users):
        assert np.linalg.norm(grads[k] - fd[k]) <= 1e-5 * np.linalg.norm(grads[k])


def test_paper_literal_g2_changes_surrogate_only(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    rho = dl_normalizers(tables.gamma, tables.serving)
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    exact = DlPowerModel(tables, rho, cfg.sigma_z2, prelog)
    literal = DlPowerModel(tables, rho, cfg.sigma_z2, prelog, paper_literal_g2=True)
    _, bar, _ = _dl_model(gate_fixture)
    np.testing.assert_allclose(literal.rates(bar), exact.rates(bar))  # rates unchanged
    g1e, g2e = exact.g1g2(bar)
    g1l, g2l = literal.g1g2(bar)
    np.testing.assert_allclose(g1l, g1e)
    assert np.abs(g2l - g2e).max() > 0  # printed denominator differs


# ---------------------------------------------------------------------------
# Block subproblem
# ---------------------------------------------------------------------------

def _golden_section_max(fun, lo, hi, tol=1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while abs(b - a) > tol * max(1.0, abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = (a + b) / 2.0
    return x, fun(x)


def test_subproblem_single_user_matches_golden_section():
    state = make_state(seed=9, n_ap=2, n_gue=1, n_uav=0, tau_p=2, n_ap_antennas=2)
    model, anchor, budgets = _dl_model(state)
    tables = state["tables"]
    ap = 0
    users = np.array([0])
    new_bar, t_star = solve_block_subproblem(model, anchor, ap, users, budgets[ap])

    cap = budgets[ap] / (model.rho[0, ap] * tables.gamma[0, ap])

    def f(x):
        cand = anchor.copy()
        cand[0, ap] = x
        return _surrogates(model, cand, anchor, ap, users)[0][0]

    x_gs, t_gs = _golden_section_max(f, 0.0, cap)
    assert t_star == pytest.approx(t_gs, rel=1e-6, abs=1e-12)


def test_subproblem_kkt_balance_inactive_budget():
    # huge budget: one subproblem solve ends at an interior surrogate optimum
    # where the min-achieving users' gradients admit a vanishing convex
    # combination (the linearized-g2 penalty keeps the optimum finite)
    state = make_state(seed=12, n_ap=1, n_gue=2, n_uav=0, tau_p=2, assignment=[0, 0])
    tables, cfg = state["tables"], state["cfg"]
    rho = dl_normalizers(tables.gamma, tables.serving)
    model = DlPowerModel(tables, rho, cfg.sigma_z2, cfg.frame.tau_d / cfg.frame.tau_c)
    users = np.array([0, 1])
    huge = 1e9
    anchor = np.full((2, 1), 0.2)
    new_block, t_star = solve_block_subproblem(model, anchor, 0, users, huge)
    assert (new_block > 1e-12).all()  # interior: bounds inactive
    w = rho[users, 0] * tables.gamma[users, 0]
    assert w @ new_block < 0.5 * huge  # budget inactive

    co = model.block_coeffs(anchor, 0, users)
    u0 = np.sqrt(anchor[users, 0])
    u = np.sqrt(new_block)
    vals, grads = model.surrogates_all(co, u, u0)
    active = vals <= vals.min() + 1e-6 * max(abs(vals.min()), 1.0)
    g_act = grads[active]
    if g_act.shape[0] == 1:
        residual = np.linalg.norm(g_act[0])
    else:
        lam = np.linspace(0, 1, 20001)
        combos = lam[:, None] * g_act[0] + (1 - lam[:, None]) * g_act[1]
        residual = np.linalg.norm(combos, axis=1).min()
    scale = max(np.linalg.norm(g) for g in grads)
    assert residual <= 1e-3 * scale


def test_subproblem_fixed_point_keeps_anchor(gate_fixture):
    model, bar, budgets = _dl_model(gate_fixture)
    tables = gate_fixture["tables"]
    ap = 2
    users = np.flatnonzero(tables.serving[:, ap])
    cur = bar
    for _ in range(40):
        new_block, t1 = solve_block_subproblem(model, cur, ap, users, budgets[ap])
        nxt = cur.copy()
        nxt[users, ap] = new_block
        if np.allclose(nxt[users, ap], cur[users, ap], rtol=1e-9, atol=1e-15):
            break
        cur = nxt
    again, t2 = solve_block_subproblem(model, cur, ap, users, budgets[ap])
    np.testing.assert_allclose(again, cur[users, ap], rtol=1e-5, atol=1e-12)


# ---------------------------------------------------------------------------
# Max-min, downlink
# ---------------------------------------------------------------------------

def test_maxmin_dl_single_user_takes_full_budget():
    state = make_state(seed=15, n_ap=2, n_gue=1, n_uav=0, tau_p=2)
    tables, cfg = state["tables"], state["cfg"]
    budgets = np.full(tables.n_ap, 0.2)
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    eta, info = maxmin_dl(tables, budgets, cfg.sigma_z2, prelog)
    used = transmitted_dl_power(eta, tables.gamma).sum(axis=0)
    np.testing.assert_allclose(used, budgets, rtol=1e-6)
    rate = se_from_sinr(dl_sinr_lb(tables, eta, cfg.sigma_z2), prelog)
    assert info["min_rate_trace"][-1] == pytest.approx(rate.min(), rel=1e-9)


def _symmetric_two_user_state():
    """Two users with identical large-scale statistics to every AP."""
    state = make_state(seed=18, n_ap=2, n_gue=2, n_uav=0, tau_p=2, assignment=[0, 1])
    ls = state["ls"]
    beta = np.tile(ls.beta[0], (2, 1))
    rice = np.tile(ls.rice_k[0], (2, 1))
    steer = np.tile(ls.steering[0][None], (2, 1, 1))
    shadow = np.tile(ls.shadow_db[0], (2, 1))
    ls_sym = dataclasses.replace(
        ls, beta=beta, rice_k=rice, steering=steer, shadow_db=shadow
    )
    est = build_estimation(ls_sym, state["book"], state["est"].eta_train,
                           state["cfg"].sigma_w2)
    tables = build_se_tables(ls_sym, est, state["book"], state["assoc"])
    return state["cfg"], tables


def test_maxmin_dl_symmetric_users_equal_rates():
    cfg, tables = _symmetric_two_user_state()
    budgets = np.full(tables.n_ap, 0.2)
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    eta, _ = maxmin_dl(tables, budgets, cfg.sigma_z2, prelog)
    rates = se_from_sinr(dl_sinr_lb(tables, eta, cfg.sigma_z2), prelog)
    assert abs(rates[0] - rates[1]) <= 0.01 * rates.max()


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_maxmin_dl_dominates_ppa(seed):
    state = make_state(seed=seed, n_ap=4, n_gue=3, n_uav=1, tau_p=2)
    tables, cfg, ls = state["tables"], state["cfg"], state["ls"]
    budgets = np.full(tables.n_ap, 0.2)
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    eta_ppa = ppa_dl(tables.gamma, tables.serving, budgets)
    min_ppa = se_from_sinr(dl_sinr_lb(tables, eta_ppa, cfg.sigma_z2), prelog).min()
    eta, info = maxmin_dl(tables, budgets, cfg.sigma_z2, prelog, max_outer_iters=10)
    min_mm = se_from_sinr(dl_sinr_lb(tables, eta, cfg.sigma_z2), prelog).min()
    assert min_mm >= min_ppa * (1 - 1e-9)
    trace = info["min_rate_trace"]
    assert all(trace[i + 1] >= trace[i] - 1e-12 for i in range(len(trace) - 1))
    assert dl_budget_violation(eta, tables.gamma, budgets) <= 1e-9


def test_maxmin_dl_kappa_class_budgets(gate_fixture):
    tables, cfg, ls = (
        gate_fixture["tables"], gate_fixture["cfg"], gate_fixture["ls"]
    )
    budgets = np.full(tables.n_ap, 0.2)
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    kappa = 0.2
    eta, _ = maxmin_dl(tables, budgets, cfg.sigma_z2, prelog, roles=ls.roles,
                       kappa=kappa, max_outer_iters=6)
    power = transmitted_dl_power(eta, tables.gamma)
    uav = power[ls.roles == ROLE_UAV].sum(axis=0)
    gue = power[ls.roles == ROLE_GUE].sum(axis=0)
    assert (uav <= kappa * budgets * (1 + 1e-9)).all()
    assert (gue <= (1 - kappa) * budgets * (1 + 1e-9)).all()


# ---------------------------------------------------------------------------
# Max-min, uplink
# ---------------------------------------------------------------------------

def test_maxmin_ul_single_user_maxes_out():
    state = make_state(seed=25, n_ap=2, n_gue=1, n_uav=0, tau_p=2)
    tables, cfg = state["tables"], state["cfg"]
    prelog = cfg.frame.tau_u / cfg.frame.tau_c
    eta, _ = maxmin_ul(tables, cfg.sigma_w2, prelog, p_max=np.array([0.1]))
    assert eta[0] == pytest.approx(0.1, rel=1e-6)


def test_maxmin_ul_symmetric_users_equal_rates():
    cfg, tables = _symmetric_two_user_state()
    prelog = cfg.frame.tau_u / cfg.frame.tau_c
    eta, _ = maxmin_ul(tables, cfg.sigma_w2, prelog, p_max=np.full(2, 0.1))
    rates = se_from_sinr(ul_sinr_lb(tables, eta, cfg.sigma_w2), prelog)
    assert abs(rates[0] - rates[1]) <= 0.01 * rates.max()


@pytest.mark.parametrize("seed", [31, 32, 26, 34, 40, 48])
def test_maxmin_ul_dominates_fpc(seed):
    state = make_state(seed=seed, n_ap=4, n_gue=3, n_uav=1, tau_p=2)
    tables, cfg, est = state["tables"], state["cfg"], state["est"]
    p_max = np.full(tables.n_users, 0.1)
    fpc = fpc_ul(est.G, tables.serving, p_max, cfg.power.fpc.p0_watts, 0.5)
    prelog = cfg.frame.tau_u / cfg.frame.tau_c
    min_fpc = se_from_sinr(ul_sinr_lb(tables, fpc, cfg.sigma_w2), prelog).min()
    eta, info = maxmin_ul(tables, cfg.sigma_w2, prelog, p_max)
    sinr = ul_sinr_lb(tables, eta, cfg.sigma_w2)
    min_mm = se_from_sinr(sinr, prelog).min()
    assert min_mm >= min_fpc * (1 - 1e-9)
    assert (eta >= -1e-15).all() and (eta <= p_max * (1 + 1e-9)).all()
    trace = info["min_rate_trace"]
    assert all(trace[i + 1] >= trace[i] - 1e-12 for i in range(len(trace) - 1))
    # optimality certificate: SINRs balanced and one user at full power
    np.testing.assert_allclose(sinr, sinr.max(), rtol=1e-6)
    assert (eta / p_max).max() == pytest.approx(1.0, abs=1e-9)
