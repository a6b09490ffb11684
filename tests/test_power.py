import dataclasses
import math

import numpy as np
import pytest

from cfsim import power
from cfsim.config import dbm_to_watts, preset_desk
from cfsim.errors import DegenerateInputError, NumericsError, SolverError
from cfsim.estimation import build_estimation
from cfsim.geometry import ROLE_GUE, ROLE_UAV
from cfsim.harness import allocate_dl
from cfsim.power import (
    _DlObjective,
    fpc_ul,
    maxmin_dl,
    maxmin_ul,
    ppa_dl,
    uniform_dl,
    wfpa_dl,
)
from cfsim.se import build_se_tables, dl_sinr_lb, se_from_sinr, ul_sinr_lb

from conftest import make_state, one_ap_waterfill
from per_pair import dense_C, dl_budget_violation, water_level


# ---------------------------------------------------------------------------
# PPA
# ---------------------------------------------------------------------------

def test_ppa_equal_gamma_splits_evenly():
    gamma = np.array([[2.0], [2.0]])
    serving = np.ones((2, 1), dtype=bool)
    eta = ppa_dl(gamma, serving, 0.4)
    power = eta * gamma
    np.testing.assert_allclose(power[:, 0], [0.2, 0.2])


def test_ppa_kappa_single_member_classes():
    gamma = np.array([[1.0], [3.0]])
    serving = np.ones((2, 1), dtype=bool)
    roles = np.array([ROLE_GUE, ROLE_UAV])
    eta = ppa_dl(gamma, serving, 1.0, roles=roles, kappa=0.2)
    power = eta * gamma
    assert power[1, 0] == pytest.approx(0.2)  # the lone UAV gets exactly kappa
    assert power[0, 0] == pytest.approx(0.8)


def test_ppa_budget_exact_random(gate_fixture):
    tables = gate_fixture["tables"]
    budget = 0.2
    eta = ppa_dl(tables.gamma, tables.serving, budget)
    used = (eta * tables.gamma).sum(axis=0)
    np.testing.assert_allclose(used, budget, rtol=1e-12)


def test_ppa_degenerate_zero_gamma():
    gamma = np.zeros((2, 1))
    serving = np.ones((2, 1), dtype=bool)
    with pytest.raises(DegenerateInputError):
        ppa_dl(gamma, serving, 0.2)


def test_uniform_dl_equal_transmit_power():
    gamma = np.array([[1.0], [4.0], [0.5]])
    serving = np.ones((3, 1), dtype=bool)
    eta = uniform_dl(gamma, serving, 0.9)
    power = eta * gamma
    np.testing.assert_allclose(power[:, 0], 0.3)


def test_uniform_dl_kappa_splits_each_ap_budget(gate_fixture):
    # at each AP the GUEs share 1 - kappa and the UAVs kappa of the budget,
    # equally within each class
    cfg, tables, roles = gate_fixture["cfg"], gate_fixture["tables"], gate_fixture["ls"].roles
    cfg = dataclasses.replace(cfg, power=dataclasses.replace(cfg.power, dl="uniform", kappa=0.05))
    assert tables.serving.all()
    eta, _ = allocate_dl(cfg, tables, roles)
    power = eta * tables.gamma
    budget, uav = cfg.power.dl_budget_per_ap_w, roles == ROLE_UAV
    np.testing.assert_allclose(power[uav].sum(axis=0), 0.05 * budget, rtol=1e-12)
    np.testing.assert_allclose(power[~uav].sum(axis=0), 0.95 * budget, rtol=1e-12)
    np.testing.assert_allclose(power[uav], 0.05 * budget / uav.sum(), rtol=1e-12)
    np.testing.assert_allclose(power[~uav], 0.95 * budget / (~uav).sum(), rtol=1e-12)


# ---------------------------------------------------------------------------
# Water filling
# ---------------------------------------------------------------------------

def test_water_level_analytic_case():
    # levels (1, 2, 10) with budget 3: water level 3, powers (2, 1, 0)
    levels, powers = one_ap_waterfill([1.0, 2.0, 10.0], 3.0)
    assert levels[0] + powers[0] == pytest.approx(3.0)
    np.testing.assert_allclose(powers, [2.0, 1.0, 0.0], atol=1e-12)


def test_water_level_single_and_equal_levels():
    assert one_ap_waterfill([7.0], 2.0)[1] == pytest.approx([2.0])
    levels, powers = one_ap_waterfill([3.0, 3.0, 3.0], 6.0)
    np.testing.assert_allclose(levels + powers, 3.0 + 2.0)


def test_water_level_errors():
    serving = np.ones((2, 1), dtype=bool)
    with pytest.raises(DegenerateInputError, match="AP 0: zero gamma"):
        wfpa_dl(np.array([[1.0], [0.0]]), serving, 1.0, 1.0)
    with pytest.raises(DegenerateInputError, match="budget"):
        wfpa_dl(np.ones((2, 1)), serving, -1.0, 1.0)


def test_water_level_kkt_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(1, 12)
        budget = rng.uniform(0.1, 20.0)
        levels, powers = one_ap_waterfill(rng.uniform(0.01, 10.0, n), budget)
        assert powers.sum() == pytest.approx(budget, rel=1e-9)  # budget exact
        active = powers > 0
        assert active.any()
        nu = levels[active] + powers[active]
        np.testing.assert_allclose(nu, nu[0], rtol=1e-12)  # one water level
        # all zero-power users sit at or above the water level
        assert (levels[~active] >= nu.max() - 1e-12).all()


@pytest.mark.parametrize("mode", ["cf", "uc"])
@pytest.mark.parametrize("kappa", [None, 0.0, 0.2, 1.0])
def test_wfpa_matches_per_pair_water_level(mode, kappa):
    # every (class, AP) water level, bit for bit against the scalar sort-and-scan
    for seed in range(3):
        state = make_state(seed=seed, n_ap=7, n_gue=6, n_uav=3, tau_p=4, association_mode=mode,
                           uc_cluster_size=3 if mode == "uc" else None)
        gamma, serving, roles = state["tables"].gamma, state["tables"].serving, state["ls"].roles
        sigma_z2, budget = state["cfg"].noise_w, 0.2
        eta = wfpa_dl(gamma, serving, budget, sigma_z2, roles=roles, kappa=kappa)
        expected = np.zeros_like(gamma)
        classes = [(roles >= 0, budget)] if kappa is None else [
            (roles == ROLE_GUE, (1.0 - kappa) * budget), (roles == ROLE_UAV, kappa * budget)]
        for members, cap in classes:
            for a in range(gamma.shape[1]):
                users = np.flatnonzero(serving[:, a] & members)
                if users.size and cap > 0:
                    levels = sigma_z2 / gamma[users, a]
                    power = np.maximum(water_level(levels, cap) - levels, 0.0)
                    expected[users, a] = power / gamma[users, a]
        np.testing.assert_array_equal(eta, expected)
        assert (eta[serving] > 0).any() and (eta[serving] == 0).any()  # users above the level


def test_wfpa_single_user_gets_budget():
    gamma = np.array([[0.3]])
    serving = np.ones((1, 1), dtype=bool)
    eta = wfpa_dl(gamma, serving, 0.7, sigma_z2=1e-9)
    power = eta * gamma
    assert power[0, 0] == pytest.approx(0.7)


def test_wfpa_analytic_three_user_case():
    # L = sigma_z^2/gamma = (1, 2, 10) with sigma_z^2 = 1, budget 3 -> (2, 1, 0)
    gamma = np.array([[1.0], [0.5], [0.1]])
    serving = np.ones((3, 1), dtype=bool)
    eta = wfpa_dl(gamma, serving, 3.0, sigma_z2=1.0)
    power = eta * gamma
    np.testing.assert_allclose(power[:, 0], [2.0, 1.0, 0.0], atol=1e-12)


def test_wfpa_kkt_and_budget(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    budget = 0.2
    eta = wfpa_dl(tables.gamma, tables.serving, budget, cfg.noise_w)
    power = eta * tables.gamma
    np.testing.assert_allclose(power.sum(axis=0), budget, rtol=1e-9)
    levels = cfg.noise_w / tables.gamma
    for a in range(tables.gamma.shape[1]):
        active = power[:, a] > 0
        nu = levels[active, a] + power[active, a]
        np.testing.assert_allclose(nu, nu[0], rtol=1e-9)  # one shared water level
        assert (levels[~active, a] >= nu[0] * (1 - 1e-12)).all()


def test_wfpa_kappa_budget_split(gate_fixture):
    tables, cfg, ls = gate_fixture["tables"], gate_fixture["cfg"], gate_fixture["ls"]
    budget = 0.2
    for kappa in (0.0, 0.1, 0.2, 1.0):  # 0 and 1 leave one class without power
        eta = wfpa_dl(tables.gamma, tables.serving, budget, cfg.noise_w,
                      roles=ls.roles, kappa=kappa)
        power = eta * tables.gamma
        uav_power = power[ls.roles == ROLE_UAV].sum(axis=0)
        np.testing.assert_allclose(uav_power, kappa * budget, rtol=1e-9)
        gue_power = power[ls.roles == ROLE_GUE].sum(axis=0)
        np.testing.assert_allclose(gue_power, (1.0 - kappa) * budget, rtol=1e-9)


# ---------------------------------------------------------------------------
# FPC
# ---------------------------------------------------------------------------

def _diag_tr_G(betas):
    """(K, 1) traces of the 2x2 covariances b I, one per user."""
    return 2.0 * np.asarray(betas, dtype=float)[:, None]


def test_fpc_compensation_branch():
    p0 = dbm_to_watts(-10.0)
    tr_G = _diag_tr_G([1e3])  # zeta = sqrt(2e3) huge -> compensation branch
    eta = fpc_ul(tr_G, np.ones((1, 1), dtype=bool), 0.1, p0, 0.5)
    zeta = math.sqrt(2e3)
    assert eta[0] == pytest.approx(p0 * zeta**-0.5)
    assert eta[0] < 0.1


def test_fpc_cap_branch():
    p0 = dbm_to_watts(-10.0)
    tr_G = _diag_tr_G([1e-14])  # tiny zeta: compensation would exceed P_max -> cap
    eta = fpc_ul(tr_G, np.ones((1, 1), dtype=bool), 0.1, p0, 0.5)
    assert eta[0] == pytest.approx(0.1)


def test_fpc_alpha_zero_no_compensation():
    p0 = dbm_to_watts(-10.0)
    tr_G = _diag_tr_G([1e3, 1e-9])
    eta = fpc_ul(tr_G, np.ones((2, 1), dtype=bool), 0.1, p0, 0.0)
    np.testing.assert_allclose(eta, min(0.1, p0))


# ---------------------------------------------------------------------------
# Max-min, downlink
# ---------------------------------------------------------------------------

def test_maxmin_dl_single_user_takes_full_budget():
    state = make_state(seed=15, n_ap=2, n_gue=1, n_uav=0, tau_p=2)
    tables, cfg = state["tables"], state["cfg"]
    budget = 0.2
    prelog = cfg.frame.prelog
    eta, info = maxmin_dl(tables, budget, cfg.noise_w, prelog)
    used = (eta * tables.gamma).sum(axis=0)
    np.testing.assert_allclose(used, budget, rtol=1e-6)
    rate = se_from_sinr(dl_sinr_lb(tables, eta, cfg.noise_w), prelog)
    assert info["min_rate_trace"][-1] == pytest.approx(rate.min(), rel=1e-9)


def _symmetric_two_user_state():
    """Two users with identical large-scale statistics to every AP."""
    state = make_state(seed=18, n_ap=2, n_gue=2, n_uav=0, tau_p=2, assignment=[0, 1])
    ls = state["ls"]
    beta = np.tile(ls.beta[0], (2, 1))
    rice = np.tile(ls.rice_k[0], (2, 1))
    steer = np.tile(ls.steering[0][None], (2, 1, 1))
    ls_sym = dataclasses.replace(ls, beta=beta, rice_k=rice, steering=steer)
    est = build_estimation(ls_sym, state["book"], state["est"].eta_train,
                           state["cfg"].noise_w)
    tables = build_se_tables(ls_sym, est, state["book"], state["serving"])
    return state["cfg"], tables


def test_maxmin_dl_symmetric_users_equal_rates():
    cfg, tables = _symmetric_two_user_state()
    budget = 0.2
    prelog = cfg.frame.prelog
    eta, _ = maxmin_dl(tables, budget, cfg.noise_w, prelog)
    rates = se_from_sinr(dl_sinr_lb(tables, eta, cfg.noise_w), prelog)
    assert abs(rates[0] - rates[1]) <= 0.01 * rates.max()


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_maxmin_dl_dominates_ppa(seed):
    state = make_state(seed=seed, n_ap=4, n_gue=3, n_uav=1, tau_p=2)
    tables, cfg, ls = state["tables"], state["cfg"], state["ls"]
    budget = 0.2
    prelog = cfg.frame.prelog
    eta_ppa = ppa_dl(tables.gamma, tables.serving, budget)
    min_ppa = se_from_sinr(dl_sinr_lb(tables, eta_ppa, cfg.noise_w), prelog).min()
    eta, info = maxmin_dl(tables, budget, cfg.noise_w, prelog, max_outer_iters=10)
    min_mm = se_from_sinr(dl_sinr_lb(tables, eta, cfg.noise_w), prelog).min()
    assert min_mm >= min_ppa * (1 - 1e-9)
    trace = info["min_rate_trace"]
    assert all(trace[i + 1] >= trace[i] - 1e-12 for i in range(len(trace) - 1))
    assert dl_budget_violation(eta, tables.gamma, budget) <= 1e-9


def test_maxmin_dl_kappa_class_budgets(gate_fixture):
    tables, cfg, ls = (
        gate_fixture["tables"], gate_fixture["cfg"], gate_fixture["ls"]
    )
    budget = 0.2
    prelog = cfg.frame.prelog
    kappa = 0.2
    eta, _ = maxmin_dl(tables, budget, cfg.noise_w, prelog, roles=ls.roles,
                       kappa=kappa, max_outer_iters=6)
    power = eta * tables.gamma
    uav = power[ls.roles == ROLE_UAV].sum(axis=0)
    gue = power[ls.roles == ROLE_GUE].sum(axis=0)
    assert (uav <= kappa * budget * (1 + 1e-9)).all()
    assert (gue <= (1 - kappa) * budget * (1 + 1e-9)).all()


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
        obj = _DlObjective(tables, tables.serving, cfg.noise_w)
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
    prelog = cfg.frame.prelog
    eta, info = maxmin_dl(tables, 0.2, cfg.noise_w, prelog)
    assert info["converged"]
    min_se = se_from_sinr(dl_sinr_lb(tables, eta, cfg.noise_w), prelog).min()
    assert min_se == pytest.approx(info["min_rate_trace"][-1], rel=1e-9)
    assert min_se >= info["min_rate_trace"][0]  # at least the PPA start


def test_maxmin_dl_zero_budgets_raise_naming_ap(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    prelog = cfg.frame.prelog
    with pytest.raises(DegenerateInputError, match="AP 0"):
        maxmin_dl(tables, 0.0, cfg.noise_w, prelog)


def test_maxmin_dl_user_without_gamma_raises_naming_user(gate_fixture):
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    gamma = tables.gamma.copy()
    gamma[2] = 0.0
    tables = dataclasses.replace(tables, gamma=gamma)
    prelog = cfg.frame.prelog
    with pytest.raises(DegenerateInputError, match="user 2"):
        maxmin_dl(tables, 0.2, cfg.noise_w, prelog)


def test_maxmin_dl_nan_objective_raises_single_user():
    # one user: the smoothing schedule must stay finite (ln K = 0) and a NaN
    # objective must end the run, not spin in the step search
    state = make_state(seed=15, n_ap=2, n_gue=1, n_uav=0, tau_p=2)
    tables, cfg = state["tables"], state["cfg"]
    prelog = cfg.frame.prelog
    with pytest.raises(SolverError, match="nan"):
        maxmin_dl(tables, 0.2, float("nan"), prelog)


def _maxmin_min_se(state, max_outer_iters=50, kappa=None, **kw):
    tables, cfg = state["tables"], state["cfg"]
    prelog = cfg.frame.prelog
    roles = state["ls"].roles if kappa is not None else None
    eta, info = maxmin_dl(tables, 0.2, cfg.noise_w, prelog, roles=roles,
                          kappa=kappa, max_outer_iters=max_outer_iters, **kw)
    return se_from_sinr(dl_sinr_lb(tables, eta, cfg.noise_w), prelog).min(), info


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


# Min SE of this solver on the same instances with every stage run to
# max_inner_iters steps (commit 8422235); ending stalled stages early may give
# up at most 5e-5 of it (it gives up 2.4e-5 at most)
FULL_STAGE_MIN_SE = {
    "dominates-ppa-21": 0.020946001579039853,
    "dominates-ppa-22": 0.08556701887435075,
    "dominates-ppa-23": 0.13921415935618803,
    "criterion-5-5000": 1.0110529442600296,
    "criterion-5-5001": 1.1115837785182303,
    "criterion-5-5002": 0.9599640875800409,
    "criterion-5-5003": 1.145468534553618,
    "criterion-5-5004": 1.0723617633370592,
    "criterion-5-5005": 1.025577716235413,
    "criterion-5-5006": 1.0477860037206133,
    "criterion-5-5007": 1.0641664717555768,
    "criterion-5-5008": 1.131622707700293,
    "criterion-5-5009": 1.1579827878906686,
    "user-centric": 0.3387638516218572,
    "gate-kappa-0.2": 0.020206187966098788,
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
    assert min_se >= FULL_STAGE_MIN_SE[name] * (1 - 5e-5)


def test_maxmin_dl_stalled_stages_end_early():
    _, info = _maxmin_min_se(_instance("criterion-5-5000"))
    steps = info["steps"]
    assert info["converged"] and len(steps) == info["iterations"]
    assert min(steps) < 100
    assert sum(steps) < 0.7 * len(steps) * 100


def test_maxmin_dl_stall_stop_only_ends_a_stage(monkeypatch):
    # a first stage that stalls after n steps ends where a stage capped at n
    # steps without the stall test ends, bit for bit
    state = _instance("dominates-ppa-23")
    tables, cfg = state["tables"], state["cfg"]
    args = (tables, 0.2, cfg.noise_w, cfg.frame.prelog)
    eta, info = maxmin_dl(*args, max_outer_iters=1)
    (n,) = info["steps"]
    assert n < 100
    monkeypatch.setattr(power, "DL_STALL_STEPS", 10**9)
    assert maxmin_dl(*args, max_outer_iters=1)[1]["steps"] == [100]
    capped, capped_info = maxmin_dl(*args, max_outer_iters=1, max_inner_iters=n)
    assert capped_info["steps"] == [n]
    np.testing.assert_array_equal(capped, eta)
    assert capped_info["min_rate_trace"] == info["min_rate_trace"]


def test_maxmin_dl_matches_grid_oracle():
    # one AP, two copilot users: the feasible set is the quarter disk
    # y1^2 + y2^2 <= budget in amplitudes y = sqrt(gamma * eta); search it on
    # a polar grid, then on a finer grid around the best coarse point
    state = make_state(seed=12, n_ap=1, n_gue=2, n_uav=0, tau_p=2, assignment=[0, 0])
    tables, cfg = state["tables"], state["cfg"]
    prelog = cfg.frame.prelog
    budget = 0.2
    gamma = tables.gamma[:, 0]

    def min_se(r, phi):
        eta = (r * np.array([np.cos(phi), np.sin(phi)])) ** 2 / gamma
        return se_from_sinr(dl_sinr_lb(tables, eta[:, None], cfg.noise_w), prelog).min()

    r_hi, dphi, dr = math.sqrt(budget), math.pi / 2 / 200, math.sqrt(budget) / 20
    best = max((min_se(r, p), r, p) for r in np.linspace(dr, r_hi, 20)
               for p in np.linspace(0.0, math.pi / 2, 201))
    _, r0, p0 = best
    best = max((min_se(r, p), r, p)
               for r in np.linspace(max(r0 - dr, dr / 10), min(r0 + dr, r_hi), 21)
               for p in np.linspace(max(p0 - dphi, 0.0), min(p0 + dphi, math.pi / 2), 201))
    eta, info = maxmin_dl(tables, budget, cfg.noise_w, prelog)
    got = se_from_sinr(dl_sinr_lb(tables, eta, cfg.noise_w), prelog).min()
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
    prelog = cfg.frame.prelog
    eta, _ = maxmin_ul(tables, cfg.noise_w, prelog, p_max=0.1)
    assert eta[0] == pytest.approx(0.1, rel=1e-6)


def test_maxmin_ul_symmetric_users_equal_rates():
    cfg, tables = _symmetric_two_user_state()
    prelog = cfg.frame.prelog
    eta, _ = maxmin_ul(tables, cfg.noise_w, prelog, p_max=0.1)
    rates = se_from_sinr(ul_sinr_lb(tables, eta, cfg.noise_w), prelog)
    assert abs(rates[0] - rates[1]) <= 0.01 * rates.max()


def test_maxmin_ul_negative_interference_raises(gate_fixture):
    # rounding can push a variance in C below 0 (the own term cancels to ~1e-3
    # of its parts on high-K UAV links); the bisection premise den_mat >= 0
    # then fails, and without the check it would loop forever
    tables, cfg = gate_fixture["tables"], gate_fixture["cfg"]
    own = tables.own.copy()
    own[0, tables.serving[0].argmax()] = -10.0 * np.abs(dense_C(tables)).max()
    tables = dataclasses.replace(tables, own=own)
    with pytest.raises(NumericsError, match="negative interference"):
        maxmin_ul(tables, cfg.noise_w, 0.42, 0.1)


@pytest.mark.parametrize("seed", [31, 32, 26, 34, 40, 48])
def test_maxmin_ul_dominates_fpc(seed):
    state = make_state(seed=seed, n_ap=4, n_gue=3, n_uav=1, tau_p=2)
    tables, cfg, est = state["tables"], state["cfg"], state["est"]
    p_max = 0.1
    fpc = fpc_ul(est.tr_G, tables.serving, p_max, cfg.power.fpc.p0_watts, 0.5)
    prelog = cfg.frame.prelog
    min_fpc = se_from_sinr(ul_sinr_lb(tables, fpc, cfg.noise_w), prelog).min()
    eta, info = maxmin_ul(tables, cfg.noise_w, prelog, p_max)
    sinr = ul_sinr_lb(tables, eta, cfg.noise_w)
    min_mm = se_from_sinr(sinr, prelog).min()
    assert min_mm >= min_fpc * (1 - 1e-9)
    assert (eta >= -1e-15).all() and (eta <= p_max * (1 + 1e-9)).all()
    trace = info["min_rate_trace"]
    assert all(trace[i + 1] >= trace[i] - 1e-12 for i in range(len(trace) - 1))
    # optimality certificate: SINRs balanced and one user at full power
    np.testing.assert_allclose(sinr, sinr.max(), rtol=1e-6)
    assert (eta / p_max).max() == pytest.approx(1.0, abs=1e-9)
