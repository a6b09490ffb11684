"""A global-optimality oracle for DL max-min.

In theta = sqrt(eta_dl) the DL bound's numerator is (sum_a gamma_ka theta_ka)^2
and its denominator a sum of non-negative quadratic forms plus sigma_z^2
(se.SETables: C >= 0, pair_w >= 0). So SINR_k >= t is a second-order cone in
theta, and each per-AP budget (per AP and class under kappa) is a ball. The max
over the budgets of the min SINR is then quasi-concave, and bisection on the
target t, with a convex feasibility problem per step, brackets its global
optimum (Ngo et al., "Cell-Free Massive MIMO Versus Small Cells", IEEE TWC
2017). scipy's SLSQP solves each feasibility problem. The oracle reads the
SETables fields only and shares no code with power.maxmin_dl.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from cfsim.geometry import ROLE_UAV
from cfsim.power import maxmin_dl

from conftest import make_state

BUDGET = 0.2  # W per AP

# multi-AP states: (make_state arguments, kappa)
STATES = {
    **{f"cell-free-{seed}": (dict(seed=seed, n_ap=4, n_gue=3, n_uav=1, tau_p=2), None)
       for seed in (21, 22, 23)},
    "cell-free-22-kappa-0.3": (dict(seed=22, n_ap=4, n_gue=3, n_uav=1, tau_p=2), 0.3),
    "gate-kappa-0.2": (dict(seed=11, assignment=[0, 1, 0, 1]), 0.2),
    "user-centric": (dict(seed=3, n_ap=6, n_gue=4, n_uav=1, tau_p=4, association_mode="uc",
                          uc_cluster_size=2), None),
    "user-centric-collided": (dict(seed=21, n_ap=4, n_ap_antennas=3, n_gue=4, n_uav=2, tau_p=3,
                                   association_mode="uc", uc_cluster_size=2), None),
}


def _dense_c(t):
    """The (K, K, A) variance table C, made whole from its factors."""
    C = t.scale[:, None] * t.col
    C[t.los] = t.los_rows
    C[np.arange(t.n_users), np.arange(t.n_users)] += t.own
    np.add.at(C, (t.pair_k, t.pair_j), t.pair_var)
    return C


def _min_sinr(t, eta, sigma2):
    """Min over the users of the DL bound's SINR at the powers eta."""
    theta = np.sqrt(np.where(t.serving, eta, 0.0))
    den = np.einsum("kja,ja->k", _dense_c(t), theta**2) + sigma2
    np.add.at(den, t.pair_k,
              t.pair_w * np.abs((t.pair_t * theta[t.pair_j]).sum(axis=1)) ** 2)
    return ((t.gamma * theta).sum(axis=1) ** 2 / den).min()


def bracket(t, sigma2, group, share, rtol=1e-7):
    """(lower, upper) around the max over the budgets of the min DL SINR: user k
    draws on the budget share[k] of each AP, which it shares with the users of its
    group[k]. lower is the min SINR at a point that meets every budget; upper is
    the least target found infeasible. Stops once upper <= lower (1 + rtol)."""
    usable = t.serving & (t.gamma > 0) & (share > 0)[:, None]
    user, ap = np.nonzero(usable)
    n, K = len(user), t.n_users
    # variables x, with theta = root x, so that each budget is sum x^2 <= 1 over its entries
    root = np.sqrt(share[user] / t.gamma[user, ap])
    sigma = math.sqrt(sigma2)
    signal = np.zeros((K, n))  # the numerator's root over sigma is signal @ x
    signal[user, np.arange(n)] = t.gamma[user, ap] * root / sigma
    # den / sigma^2 = quad @ x^2 + 1 + pairs @ |cross @ x|^2
    quad = _dense_c(t)[:, user, ap] * root**2 / sigma2
    cross = np.sqrt(t.pair_w) * t.pair_t[:, ap] * root / sigma * (user == t.pair_j[:, None])
    pairs = (t.pair_k == np.arange(K)[:, None]).astype(float)
    keys = np.unique(np.stack([group[user], ap]), axis=1)
    budgets = ((group[user] == keys[0][:, None]) & (ap == keys[1][:, None])).astype(float)

    def den(x):
        c = cross @ x
        return quad @ (x * x) + 1.0 + pairs @ np.abs(c) ** 2, c

    def sinr_at(x):
        """(min SINR, x) at x put on the budgets: a solver's point may overshoot them."""
        x = np.maximum(x, 0.0)
        x /= np.sqrt(np.maximum(budgets @ (x * x), 1.0)) @ budgets
        eta = np.zeros(usable.shape)
        eta[user, ap] = (root * x) ** 2
        return _min_sinr(t, eta, sigma2), x

    def feasibility(target, x0):
        """x of the max margin r with signal_k - sqrt(target den_k) >= r for all k."""
        rt = math.sqrt(target)

        def margins(z):
            return signal @ z[:-1] - rt * np.sqrt(den(z[:-1])[0]) - z[-1]

        def margins_jac(z):
            x = z[:-1]
            d, c = den(x)
            grad = 2.0 * quad * x + pairs @ (2.0 * np.real(np.conj(c)[:, None] * cross))
            return np.hstack([signal - (rt / (2.0 * np.sqrt(d)))[:, None] * grad,
                              -np.ones((K, 1))])

        z0 = np.append(x0, (signal @ x0 - rt * np.sqrt(den(x0)[0])).min())
        res = minimize(
            lambda z: -z[-1], z0, jac=lambda z: np.append(np.zeros(n), -1.0), method="SLSQP",
            bounds=[(0.0, 1.0)] * n + [(None, None)],
            constraints=[dict(type="ineq", fun=margins, jac=margins_jac),
                         dict(type="ineq", fun=lambda z: 1.0 - budgets @ (z[:-1] ** 2),
                              jac=lambda z: np.hstack([-2.0 * budgets * z[:-1],
                                                       np.zeros((len(budgets), 1))]))],
            options=dict(ftol=1e-14, maxiter=500))
        return res.x[:-1]

    lower, x = sinr_at(budgets.T @ (1.0 / np.sqrt(budgets.sum(axis=1))))  # equal split
    upper = (signal.sum(axis=1) ** 2).min()  # every budget to one user, no interference
    while upper > lower * (1.0 + rtol):
        target = math.sqrt(lower * upper)
        value, candidate = sinr_at(feasibility(target, x))
        if value >= target:
            lower, x = value, candidate
        else:
            upper = target
    return lower, upper


@pytest.fixture(scope="module")
def brackets():
    """name -> (state, kappa, lower, upper)."""
    out = {}
    for name, (kw, kappa) in STATES.items():
        st = make_state(**kw)
        # under kappa GUEs share 1 - kappa of each AP's budget and UAVs kappa
        group = (st["ls"].roles == ROLE_UAV).astype(int) * (kappa is not None)
        share = BUDGET * (np.ones(1) if kappa is None else np.array([1.0 - kappa, kappa]))[group]
        out[name] = (st, kappa, *bracket(st["tables"], st["cfg"].noise_w, group, share))
    return out


def _solver_min_sinr(st, kappa, **maxmin):
    t, cfg = st["tables"], st["cfg"]
    eta, _ = maxmin_dl(t, BUDGET, cfg.noise_w, cfg.frame.prelog, roles=st["ls"].roles,
                       kappa=kappa, **maxmin)
    return _min_sinr(t, eta, cfg.noise_w)


def _assert_in_brackets(brackets, **maxmin):
    # below the bracket the solver stopped short; above it the bound or the
    # projection is wrong
    for name, (st, kappa, lower, upper) in brackets.items():
        got = _solver_min_sinr(st, kappa, **maxmin)
        assert (1.0 - 1e-4) * lower <= got <= upper * (1.0 + 1e-6), (name, got, lower, upper)


def test_maxmin_dl_reaches_the_global_optimum(brackets):
    # stopped at a tenth of the default outer_tol, with 10x the default steps
    _assert_in_brackets(brackets, outer_tol=1e-5, max_inner_iters=1000)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the default stop ends 1.2e-4 to 1.9e-4 below the "
                   "optimum on 3 of these 7 states (CHANGES.md)")
def test_maxmin_dl_default_stop_reaches_the_global_optimum(brackets):
    _assert_in_brackets(brackets)
