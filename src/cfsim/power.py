"""Power allocation strategies.

Downlink: proportional (PPA), waterfilling (WFPA), uniform per served user,
and min-rate maximization over all (AP, user) powers at once. Uplink:
fractional power control (FPC) and exact min-rate maximization. Every
strategy returns the *coefficients* eta (transmitted power is eta * gamma in
DL), with per-AP budgets sum_k eta[k,a] gamma[k,a] <= budget_a and per-user
UL boxes 0 <= eta_k <= P_max. Both max-min solvers return (eta, info) with the
min-rate trace, a converged flag and the iteration count.

DL max-min runs accelerated projected gradient on a smoothed min of log SINR
over the DL quadratic form (se.SETables); see maxmin_dl (Farooq, Ngo
& Tran, PIMRC 2020; Chakraborty et al., IEEE OJ-COMS 2021).

The UL bound's SINR is affine in the powers over both numerator and
denominator, so UL max-min is solved to global optimality by bisection on the
common SINR target, one linear solve per step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AssociationError, DegenerateInputError, NumericsError, SolverError
from .geometry import ROLE_UAV
from .se import SETables, se_from_sinr, ul_sinr_affine


def transmitted_dl_power(eta_dl, gamma):
    """P[k, a] = eta[k, a] * gamma[k, a]."""
    return np.asarray(eta_dl) * np.asarray(gamma)


def dl_budget_violation(eta_dl, gamma, budgets):
    """Max relative budget excess over APs (negative when strictly inside)."""
    used = transmitted_dl_power(eta_dl, gamma).sum(axis=0)
    return float(((used - budgets) / budgets).max())


def _budget_groups(n_users, roles, kappa, budgets):
    """(group, caps, onehot): user k draws on the DL budget share caps[group[k], a]
    of AP a, and onehot @ x sums the (K, A) array x over each group's users.
    Without kappa all users share the whole budget; with it GUEs share
    1 - kappa and UAVs kappa of each AP budget."""
    budgets = np.asarray(budgets, dtype=float)
    if kappa is None:
        group, caps = np.zeros(n_users, dtype=int), budgets[None, :]
    else:
        group = (np.asarray(roles) == ROLE_UAV).astype(int)
        caps = np.array([1.0 - kappa, kappa])[:, None] * budgets[None, :]
    return group, caps, (group[None, :] == np.arange(len(caps))[:, None]).astype(float)


# ---------------------------------------------------------------------------
# Heuristic DL strategies
# ---------------------------------------------------------------------------

def ppa_dl(gamma, serving, budgets, roles=None, kappa=None):
    """Proportional power allocation: P[k,a] = share_a * gamma / sum(gamma)
    over the users of k's budget group (see _budget_groups) served by AP a."""
    gamma = np.asarray(gamma, dtype=float)
    group, caps, onehot = _budget_groups(gamma.shape[0], roles, kappa, budgets)
    total = onehot @ np.where(serving, gamma, 0.0)  # (group, AP)
    bad = np.flatnonzero(((onehot @ serving > 0) & (total <= 0)).any(axis=0))
    if bad.size:
        raise DegenerateInputError(f"AP {bad[0]}: all served users have zero gamma; PPA undefined")
    # P = cap*gamma/total, so eta = P/gamma is uniform in the group
    share = np.divide(caps, total, out=np.zeros_like(total), where=total > 0)
    return np.where(serving, share[group], 0.0)


def uniform_dl(gamma, serving, budgets, roles=None, kappa=None):
    """Equal transmitted power per served user: P[k,a] = share_a / |K_a| over
    the users of k's budget group (see _budget_groups) served by AP a."""
    gamma = np.asarray(gamma, dtype=float)
    serving = np.asarray(serving, dtype=bool)
    group, caps, onehot = _budget_groups(gamma.shape[0], roles, kappa, budgets)
    bad = np.flatnonzero((serving & (gamma <= 0)).any(axis=0))
    if bad.size:
        raise DegenerateInputError(f"AP {bad[0]}: zero gamma among served users")
    count = onehot @ serving  # (group, AP)
    power = np.divide(caps, count, out=np.zeros_like(caps), where=count > 0)[group]
    return np.divide(power, gamma, out=np.zeros_like(gamma), where=serving)


def solve_water_level(noise_levels, budget):
    """Water level nu with sum_k (nu - L_k)^+ = budget, by sort-and-scan."""
    levels = np.sort(np.asarray(noise_levels, dtype=float))
    if levels.size == 0:
        raise DegenerateInputError("no noise levels given")
    if budget <= 0:
        raise DegenerateInputError("budget must be > 0")
    csum = np.cumsum(levels)
    for m in range(1, levels.size + 1):
        nu = (budget + csum[m - 1]) / m
        if nu >= levels[m - 1] and (m == levels.size or nu <= levels[m]):
            return float(nu)
    # numerically unreachable: the last candidate always satisfies the scan
    return float((budget + csum[-1]) / levels.size)


def wfpa_dl(gamma, serving, budgets, sigma_z2, roles=None, kappa=None):
    """Waterfilling on the noise levels L = sigma_z^2 / gamma, per AP(-class);
    a class without budget share (kappa 0 or 1) gets no power."""
    gamma = np.asarray(gamma, dtype=float)
    K, A = gamma.shape
    group, caps, _ = _budget_groups(K, roles, kappa, budgets)
    eta = np.zeros((K, A))
    for a in range(A):
        for g in range(len(caps)):
            users = np.flatnonzero(serving[:, a] & (group == g))
            if users.size == 0 or caps[g, a] == 0:
                continue
            if np.any(gamma[users, a] <= 0):
                raise DegenerateInputError(f"AP {a}: zero gamma among served users")
            levels = sigma_z2 / gamma[users, a]
            nu = solve_water_level(levels, caps[g, a])
            power = np.maximum(nu - levels, 0.0)
            eta[users, a] = power / gamma[users, a]
    return eta


# ---------------------------------------------------------------------------
# Uplink FPC
# ---------------------------------------------------------------------------

def fpc_ul(G, serving, p_max, p0, alpha):
    """Fractional power control: eta_k = min(P_max, P0 * zeta_k^(-alpha)).

    zeta_k = sqrt(sum_{a in A_k} tr(G_{k,a})) aggregates the serving-set
    large-scale gain.
    """
    serving = np.asarray(serving, dtype=bool)
    if not serving.any(axis=1).all():
        raise AssociationError("FPC needs a nonempty serving set per user")
    tr_g = np.trace(G, axis1=2, axis2=3).real  # (K, A)
    zeta = np.sqrt((tr_g * serving).sum(axis=1))
    return np.minimum(p_max, p0 * zeta ** (-alpha))


# ---------------------------------------------------------------------------
# Min-rate maximization, downlink
# ---------------------------------------------------------------------------

class _DlObjective:
    """log SINR_k = log (sum_a sqrt(gamma_ka) y_ka)^2 / den_k of the DL bound in
    the amplitudes y = sqrt(gamma * eta_dl), and its log-sum-exp smoothed min
    with gradient. One stacked product gives the signal sums s_k and the
    copilot sums sqrt(pair_w) sum_a pair_t[p,a] y[pair_j[p],a], the latter over
    the P pairs only as real rows R = [Re; Im] (2P, A); bincount adds their
    squares into den of pair_k. A user without signal has log SINR -inf;
    maxmin_dl silences that warning."""

    def __init__(self, tables: SETables, usable, sigma_z2):
        gamma = np.where(usable, tables.gamma, 1.0)
        self.K, self.A = gamma.shape
        self.amp = np.where(usable, np.sqrt(gamma), 0.0)
        self.C = np.where(usable, tables.C / gamma, 0.0).reshape(self.K, -1)
        pj, pk = tables.pair_j, tables.pair_k
        scale = np.sqrt(tables.pair_w)[:, None] / np.sqrt(gamma[pj])
        t = np.where(usable[pj], tables.pair_t * scale, 0.0)
        self.stacked = np.concatenate([self.amp, t.real, t.imag])  # row i meets y[self.rows[i]]
        self.R = self.stacked[self.K :]
        rows = np.concatenate([pj, pj])  # the y row each R row meets
        self.rows = np.concatenate([np.arange(self.K), rows])
        self.users = np.concatenate([pk, pk])  # the user whose den each R row enters
        self.onehot = (rows == np.arange(self.K)[:, None]).astype(float)  # (K, 2P)
        self.ones = np.ones(self.A)
        self.sigma_z2 = sigma_z2

    def log_sinr(self, y):
        sums = (self.stacked * y[self.rows]) @ self.ones
        s, cross = sums[: self.K], sums[self.K :]
        den = (self.C @ (y * y).ravel() + self.sigma_z2
               + np.bincount(self.users, cross * cross, minlength=self.K))
        return np.log(s * s / den), (s, cross, den)

    def smooth_min(self, y, mu, grad=False):
        """(smoothed min, true min, gradient or None) of log SINR at y."""
        L, (s, cross, den) = self.log_sinr(y)
        low = L.min()
        if not math.isfinite(low):
            return low, low, None
        L -= low
        L *= -mu
        e = np.exp(L, out=L)
        total = e.sum()
        value = low - math.log(total) / mu
        if not grad:
            return value, low, None
        w2 = e * (2.0 / total)  # twice the softmin weights
        v2 = w2 / den
        g = (w2 / s)[:, None] * self.amp
        g -= y * (v2 @ self.C).reshape(self.K, self.A)
        g -= (self.onehot * (v2[self.users] * cross)) @ self.R
        return value, low, g


@np.errstate(divide="ignore")  # a starved user's log SINR is -inf
def maxmin_dl(
    tables: SETables,
    budgets,
    sigma_z2,
    prelog,
    roles=None,
    kappa=None,
    outer_tol=1e-4,
    max_outer_iters=50,
    max_inner_iters=100,
):
    """Downlink min-rate maximization over all (AP, user) powers at once.

    In stages, FISTA (backtracking, gradient restart, at most max_inner_iters
    steps) ascends the smoothed min of log SINR with smoothing mu = 5, 20, ...
    up to mu_end = max(ln K, 1) / outer_tol, where the smoothing gap ln K / mu
    is at most outer_tol, each stage from the best true-min point so far. It
    has converged once a stage at mu_end raises the best min SE by at most
    outer_tol (relative); the trace holds the best min SE after each stage.
    Starts from PPA. A serving AP without budget or a user who can get no
    power (min rate 0 under any allocation) raises DegenerateInputError."""
    serving, gamma = tables.serving, tables.gamma
    budgets = np.asarray(budgets, dtype=float)
    bad = np.flatnonzero(serving.any(axis=0) & ~(budgets > 0))
    if bad.size:
        raise DegenerateInputError(f"AP {bad[0]}: budget {budgets[bad[0]]} W; its users get no power")
    # in y = sqrt(gamma * eta) each AP(-class) budget is a ball:
    # sum_{k in group} y[k, a]^2 <= caps[group, a]
    group, caps, onehot = _budget_groups(tables.n_users, roles, kappa, budgets)
    usable = serving & (gamma > 0) & (caps[group] > 0)
    stranded = np.flatnonzero(~usable.any(axis=1))
    if stranded.size:
        raise DegenerateInputError(f"user {stranded[0]}: zero gamma or budget on all serving APs")

    mask = usable.astype(float)
    room = np.where(caps > 0, caps, 1.0)  # a zero cap only meets unusable (zero) rows

    def project(y):
        """Projection onto the budget balls, in place: callers pass temporaries."""
        np.maximum(y, 0.0, out=y)
        y *= mask
        used = onehot @ (y * y)
        y *= np.sqrt(room / np.maximum(used, room))[group]
        return y

    obj = _DlObjective(tables, usable, sigma_z2)
    best = project(np.sqrt(gamma * ppa_dl(gamma, serving, budgets, roles=roles, kappa=kappa)))
    best_low = obj.smooth_min(best, 1.0)[1]
    trace = [float(se_from_sinr(np.exp(best_low), prelog))]
    mu_end = max(math.log(tables.n_users), 1.0) / outer_tol if outer_tol > 0 else np.inf
    mu = min(5.0, mu_end)
    diameter = 2.0 * math.sqrt(caps.sum())  # no useful step is longer
    converged = False
    stage = 0
    for stage in range(1, max_outer_iters + 1):
        x = z = best
        fz, _, gz = obj.smooth_min(z, mu, grad=True)
        if gz is None:
            raise SolverError(f"DL max-min objective is {fz} at the start of stage {stage}")
        # each stage, and each step, first tries a longer step (a stationary
        # point inflates step_inv, as rounding fails the ascent test there)
        t, step_inv = 1.0, 0.0
        for _ in range(max_inner_iters):
            step_inv = max(0.5 * step_inv, math.sqrt(np.vdot(gz, gz)) / diameter)
            for _ in range(60):  # bounded: a NaN candidate fails every halving
                xn = project(z + gz / step_inv)
                fn, low, _ = obj.smooth_min(xn, mu)
                d = xn - z
                if fn >= fz + np.vdot(gz, d) - 0.5 * step_inv * np.vdot(d, d):
                    break
                step_inv *= 2.0
            else:
                break  # no ascent step left at working precision
            if low > best_low:
                best, best_low = xn, low
            dx = xn - x
            if np.vdot(d, dx) < 0.0:  # momentum points downhill: restart
                z, t = xn, 1.0
            else:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                z, t = project(xn + ((t - 1.0) / t_next) * dx), t_next
            x = xn
            fz, low, gz = obj.smooth_min(z, mu, grad=True)
            if gz is None:  # extrapolation starved a user: restart from x
                z, t = x, 1.0
                fz, low, gz = obj.smooth_min(z, mu, grad=True)
            if low > best_low:
                best, best_low = z, low
        trace.append(float(se_from_sinr(np.exp(best_low), prelog)))
        if mu == mu_end and trace[-1] <= trace[-2] * (1.0 + outer_tol):
            converged = True
            break
        mu = min(4.0 * mu, mu_end)

    se = se_from_sinr(np.exp(obj.log_sinr(best)[0]), prelog)
    eta = np.where(usable, best * best / np.where(usable, gamma, 1.0), 0.0)
    info = {"min_rate_trace": trace, "converged": converged, "iterations": stage,
            "se_spread": float(se.max() / se.min() - 1.0)}
    return eta, info


# ---------------------------------------------------------------------------
# Min-rate maximization, uplink
# ---------------------------------------------------------------------------

UL_BISECTION_RTOL = 1e-12  # relative width of the final SINR-target bracket


def maxmin_ul(tables: SETables, sigma_w2, prelog, p_max):
    """Exact uplink min-rate maximization under per-user boxes 0 <= eta <= p_max.

    The bound's SINR is num_k eta_k / (den_mat @ eta + den_const)_k with
    den_mat >= 0 entrywise, so the least powers reaching a common target t
    solve (diag(num) - t den_mat) eta = t den_const, and t is achievable iff
    that solution lies in the box (Yates 1995). Bisection on t between the
    full-power min SINR and the interference-free bound converges to the global
    optimum; the trace holds the SE of the best achievable target so far.
    """
    K = tables.n_users
    p_max = np.broadcast_to(np.asarray(p_max, dtype=float), (K,))
    num, den_mat, den_const = ul_sinr_affine(tables, sigma_w2)
    if not np.all(den_mat >= 0):  # else the bisection below never ends
        raise NumericsError("uplink bound has a negative interference coefficient")
    lo = float((num * p_max / (den_mat @ p_max + den_const)).min())
    hi = float((num * p_max / (np.diag(den_mat) * p_max + den_const)).min())
    best = p_max.copy()
    trace = [float(se_from_sinr(lo, prelog))]
    it = 0
    # halving reaches the width in ~40 + log2(hi/lo) steps; NaN ends the loop
    while hi - lo > UL_BISECTION_RTOL * hi:
        it += 1
        t = 0.5 * (lo + hi)
        try:
            eta = np.linalg.solve(np.diag(num) - t * den_mat, t * den_const)
        except np.linalg.LinAlgError:
            eta = None
        if eta is not None and np.all(eta >= 0.0) and np.all(eta <= p_max):
            lo, best = t, eta
        else:
            hi = t
        trace.append(float(se_from_sinr(lo, prelog)))
    # scaling all powers up raises every SINR; the binding user ends at p_max
    best = best / (best / p_max).max()
    converged = hi - lo <= UL_BISECTION_RTOL * hi
    return best, {"min_rate_trace": trace, "converged": converged, "iterations": it}
