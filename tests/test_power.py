import dataclasses
import math

import numpy as np
import pytest

from cfsim.config import dbm_to_watts, preset_desk
from cfsim.errors import DegenerateInputError, NumericsError, SolverError
from cfsim.estimation import build_estimation
from cfsim.geometry import ROLE_GUE, ROLE_UAV
from cfsim.harness import allocate_dl
from cfsim.power import (
    _DlObjective,
    dl_budget_violation,
    fpc_ul,
    maxmin_dl,
    maxmin_ul,
    ppa_dl,
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


def test_uniform_dl_kappa_splits_each_ap_budget(gate_fixture):
    # at each AP the GUEs share 1 - kappa and the UAVs kappa of the budget,
    # equally within each class
    cfg, tables, roles = gate_fixture["cfg"], gate_fixture["tables"], gate_fixture["ls"].roles
    cfg = dataclasses.replace(cfg, power=dataclasses.replace(cfg.power, dl="uniform", kappa=0.05))
    assert tables.serving.all()
    eta, _ = allocate_dl(cfg, tables, roles)
    power = transmitted_dl_power(eta, tables.gamma)
    budget, uav = cfg.power.dl_budget_per_ap_w, roles == ROLE_UAV
    np.testing.assert_allclose(power[uav].sum(axis=0), 0.05 * budget, rtol=1e-12)
    np.testing.assert_allclose(power[~uav].sum(axis=0), 0.95 * budget, rtol=1e-12)
    np.testing.assert_allclose(power[uav], 0.05 * budget / uav.sum(), rtol=1e-12)
    np.testing.assert_allclose(power[~uav], 0.95 * budget / (~uav).sum(), rtol=1e-12)


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
    for kappa in (0.0, 0.1, 0.2, 1.0):  # 0 and 1 leave one class without power
        eta = wfpa_dl(tables.gamma, tables.serving, budgets, cfg.sigma_z2,
                      roles=ls.roles, kappa=kappa)
        power = transmitted_dl_power(eta, tables.gamma)
        uav_power = power[ls.roles == ROLE_UAV].sum(axis=0)
        np.testing.assert_allclose(uav_power, kappa * budgets, rtol=1e-9)
        gue_power = power[ls.roles == ROLE_GUE].sum(axis=0)
        np.testing.assert_allclose(gue_power, (1.0 - kappa) * budgets, rtol=1e-9)


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


# the objective's copilot terms at their edges: no user shares a pilot (P = 0,
# empty pair arrays), and 6 users on 2 pilots with user-centric serving sets
NO_SHARED_PILOT = dict(seed=4, n_ap=3, n_gue=2, n_uav=1, tau_p=4, assignment=[0, 1, 2])
MANY_COPILOTS = dict(seed=9, n_ap=6, n_gue=4, n_uav=2, tau_p=2, assignment=[0, 1] * 3,
                     association_mode="uc", uc_cluster_size=3)


def test_dl_smoothed_min_gradient_matches_finite_differences(gate_fixture):
    states = [gate_fixture, make_state(**NO_SHARED_PILOT), make_state(**MANY_COPILOTS)]
    assert [len(st["tables"].pair_k) for st in states] == [4, 0, 12]
    for state in states:
        tables, cfg = state["tables"], state["cfg"]
        obj = _DlObjective(tables, tables.serving, cfg.sigma_z2)
        rng = np.random.default_rng(3)
        y = np.where(tables.serving, rng.uniform(0.05, 0.3, tables.gamma.shape), 0.0)
        for mu in (5.0, 80.0):
            _, _, grad = obj.smooth_min(y, mu, grad=True)
            fd = np.zeros_like(y)
            for k, a in np.argwhere(tables.serving):
                h = 1e-6 * y[k, a]
                up, dn = y.copy(), y.copy()
                up[k, a] += h
                dn[k, a] -= h
                fd[k, a] = (obj.smooth_min(up, mu)[0] - obj.smooth_min(dn, mu)[0]) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7 * np.abs(fd).max())


def test_maxmin_dl_converges_without_shared_pilots():
    state = make_state(**NO_SHARED_PILOT)
    tables, cfg = state["tables"], state["cfg"]
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    eta, info = maxmin_dl(tables, np.full(tables.n_ap, 0.2), cfg.sigma_z2, prelog)
    assert info["converged"]
    min_se = se_from_sinr(dl_sinr_lb(tables, eta, cfg.sigma_z2), prelog).min()
    assert min_se == pytest.approx(info["min_rate_trace"][-1], rel=1e-9)
    assert min_se >= info["min_rate_trace"][0]  # at least the PPA start


def test_maxmin_dl_zero_budgets_raise_naming_ap(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    with pytest.raises(DegenerateInputError, match="AP 0"):
        maxmin_dl(tables, np.zeros(tables.n_ap), cfg.sigma_z2, prelog)


def test_maxmin_dl_user_without_gamma_raises_naming_user(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    gamma = tables.gamma.copy()
    gamma[2] = 0.0
    tables = dataclasses.replace(tables, gamma=gamma)
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    with pytest.raises(DegenerateInputError, match="user 2"):
        maxmin_dl(tables, np.full(tables.n_ap, 0.2), cfg.sigma_z2, prelog)


def test_maxmin_dl_nan_objective_raises_single_user():
    # one user: the smoothing schedule must stay finite (ln K = 0) and a NaN
    # objective must end the run, not spin in the step search
    state = make_state(seed=15, n_ap=2, n_gue=1, n_uav=0, tau_p=2)
    tables, cfg = state["tables"], state["cfg"]
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    with pytest.raises(SolverError, match="nan"):
        maxmin_dl(tables, np.full(tables.n_ap, 0.2), float("nan"), prelog)


def _maxmin_min_se(state, max_outer_iters=50, kappa=None, **kw):
    tables, cfg = state["tables"], state["cfg"]
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    roles = state["ls"].roles if kappa is not None else None
    eta, info = maxmin_dl(tables, np.full(tables.n_ap, 0.2), cfg.sigma_z2, prelog, roles=roles,
                          kappa=kappa, max_outer_iters=max_outer_iters, **kw)
    return se_from_sinr(dl_sinr_lb(tables, eta, cfg.sigma_z2), prelog).min(), info


# Min SE that the per-AP block-SLSQP solver this one replaced reached on each
# instance, with the same cap on its outer passes as here on stages (CHANGES.md
# gives the command that produced them): (state, cap, kappa, min SE).
BLOCK_SOLVER_MIN_SE = {
    "dominates-ppa-21": (dict(seed=21, n_ap=4, n_gue=3, n_uav=1, tau_p=2), 10, None,
                         2.2284470584263885e-07),
    "dominates-ppa-22": (dict(seed=22, n_ap=4, n_gue=3, n_uav=1, tau_p=2), 10, None,
                         0.002971326695793993),
    "dominates-ppa-23": (dict(seed=23, n_ap=4, n_gue=3, n_uav=1, tau_p=2), 10, None,
                         0.004103434726284628),
    **{
        f"criterion-5-{seed}": ("desk", 15, None, value)
        for seed, value in zip(range(5000, 5010), [
            0.06918523071034856, 0.04405619964555448, 0.08373368907439667,
            0.15653368167366524, 0.11021344290110001, 0.09268030602781989,
            0.20142420535593816, 0.07788483594851532, 0.03270190528074063,
            0.11251176933911855,
        ])
    },
    "user-centric": (dict(seed=3, n_ap=6, n_gue=4, n_uav=1, tau_p=4, association_mode="uc",
                          uc_cluster_size=2), 6, None, 0.16524965714856535),
    "gate-kappa-0.2": (dict(seed=11, assignment=[0, 1, 0, 1]), 6, 0.2, 0.018963704446983882),
}


def _instance(name):
    state_kw = BLOCK_SOLVER_MIN_SE[name][0]
    if state_kw == "desk":  # the drops of acceptance criterion 5
        desk = preset_desk()
        state_kw = dict(seed=int(name.rsplit("-", 1)[1]), n_ap=desk.n_ap, n_ap_antennas=4,
                        n_gue=desk.n_gue, n_uav=desk.n_uav, tau_p=desk.frame.tau_p)
    return make_state(**state_kw)


@pytest.mark.parametrize("name", list(BLOCK_SOLVER_MIN_SE))
def test_maxmin_dl_beats_parent_block_solver(name):
    _, stages, kappa, block_min_se = BLOCK_SOLVER_MIN_SE[name]
    min_se, _ = _maxmin_min_se(_instance(name), max_outer_iters=stages, kappa=kappa)
    assert min_se >= block_min_se


def test_maxmin_dl_matches_grid_oracle():
    # one AP, two copilot users: the feasible set is the quarter disk
    # y1^2 + y2^2 <= budget in amplitudes y = sqrt(gamma * eta); search it on
    # a polar grid, then on a finer grid around the best coarse point
    state = make_state(seed=12, n_ap=1, n_gue=2, n_uav=0, tau_p=2, assignment=[0, 0])
    tables, cfg = state["tables"], state["cfg"]
    prelog = cfg.frame.tau_d / cfg.frame.tau_c
    budget = 0.2
    gamma = tables.gamma[:, 0]

    def min_se(r, phi):
        eta = (r * np.array([np.cos(phi), np.sin(phi)])) ** 2 / gamma
        return se_from_sinr(dl_sinr_lb(tables, eta[:, None], cfg.sigma_z2), prelog).min()

    r_hi, dphi, dr = math.sqrt(budget), math.pi / 2 / 200, math.sqrt(budget) / 20
    best = max((min_se(r, p), r, p) for r in np.linspace(dr, r_hi, 20)
               for p in np.linspace(0.0, math.pi / 2, 201))
    _, r0, p0 = best
    best = max((min_se(r, p), r, p)
               for r in np.linspace(max(r0 - dr, dr / 10), min(r0 + dr, r_hi), 21)
               for p in np.linspace(max(p0 - dphi, 0.0), min(p0 + dphi, math.pi / 2), 201))
    eta, info = maxmin_dl(tables, np.array([budget]), cfg.sigma_z2, prelog)
    got = se_from_sinr(dl_sinr_lb(tables, eta, cfg.sigma_z2), prelog).min()
    assert got == pytest.approx(best[0], rel=1e-3)
    assert info["converged"]


@pytest.mark.parametrize("name", ["criterion-5-5000", "criterion-5-5001", "criterion-5-5002",
                                  "dominates-ppa-23"])
def test_maxmin_dl_converged_is_truthful(name):
    # two runs that both claim convergence agree: the default one and one with
    # a 1000x tighter tolerance and 30x more steps per stage
    state = _instance(name)
    min_se, info = _maxmin_min_se(state)
    tight, tight_info = _maxmin_min_se(state, outer_tol=1e-7, max_inner_iters=3000)
    assert info["converged"] and tight_info["converged"]
    assert min_se == pytest.approx(tight, rel=1e-2)
    # converged only after a stage at mu_end = ln K / outer_tol, reached from 5 in 4x steps
    mu_end = math.log(state["tables"].n_users) / 1e-4
    assert info["iterations"] >= 1 + math.ceil(math.log(mu_end / 5.0, 4))
    assert info["se_spread"] <= 1e-3
    _, capped = _maxmin_min_se(state, max_outer_iters=1)
    assert not capped["converged"] and capped["iterations"] == 1


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


def test_maxmin_ul_negative_interference_raises(gate_fixture):
    # rounding can push a variance in C below 0 (the own term cancels to ~1e-3
    # of its parts on high-K UAV links); the bisection premise den_mat >= 0
    # then fails, and without the check it would loop forever
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    C = tables.C.copy()
    C[0, 1, 0] = -10.0 * np.abs(C).max()
    tables = dataclasses.replace(tables, C=C)
    with pytest.raises(NumericsError, match="negative interference"):
        maxmin_ul(tables, cfg.sigma_w2, 0.42, np.full(tables.n_users, 0.1))


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
