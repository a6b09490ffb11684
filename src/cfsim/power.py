"""Power allocation strategies.

Downlink: proportional (PPA), waterfilling (WFPA), uniform per served user,
and min-rate maximization over all (AP, user) powers at once. Uplink:
fractional power control (FPC) and exact min-rate maximization. Every
strategy returns the *coefficients* eta (transmitted power is eta * gamma in
DL), with one budget per AP, sum_k eta[k,a] gamma[k,a] <= budget at each AP,
and one UL box 0 <= eta_k <= P_max. Both max-min solvers return (eta, info)
with the min-rate trace, a converged flag and the iteration count.

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


def _budget_groups(n_users, roles, kappa, budget):
    """(group, caps, onehot): user k draws on the DL budget share caps[group[k]]
    of each AP, and onehot @ x sums the (K, A) array x over each group's users.
    Without kappa all users share the whole budget; with it GUEs share
    1 - kappa and UAVs kappa of it."""
    if not budget >= 0:
        raise DegenerateInputError(f"DL budget {budget} W is not >= 0")
    if kappa is None:
        group, caps = np.zeros(n_users, dtype=int), np.array([float(budget)])
    else:
        group = (np.asarray(roles) == ROLE_UAV).astype(int)
        caps = np.array([1.0 - kappa, kappa]) * budget
    return group, caps, (group[None, :] == np.arange(len(caps))[:, None]).astype(float)


# ---------------------------------------------------------------------------
# Heuristic DL strategies
# ---------------------------------------------------------------------------

def _split_dl(gamma, serving, budget, weight, roles, kappa):
    """Each AP splits each group's budget share cap (see _budget_groups) over the
    group's served users in proportion to weight: P[k,a] = share_a * weight[k,a]
    with share_a = cap / sum(weight), so eta = P / gamma = share_a / (gamma / weight)."""
    gamma = np.asarray(gamma, dtype=float)
    serving = np.asarray(serving, dtype=bool)
    group, caps, onehot = _budget_groups(gamma.shape[0], roles, kappa, budget)
    total = onehot @ np.where(serving, weight, 0.0)  # (group, AP)
    per_weight = np.divide(gamma, weight, out=np.ones_like(gamma), where=weight > 0)
    bad = np.flatnonzero(((onehot @ serving > 0) & (total <= 0)).any(axis=0)
                         | (serving & (per_weight <= 0)).any(axis=0))
    if bad.size:
        raise DegenerateInputError(f"AP {bad[0]}: zero gamma among served users")
    share = np.divide(caps[:, None], total, out=np.zeros_like(total), where=total > 0)
    return np.divide(share[group], per_weight, out=np.zeros_like(gamma), where=serving)


def ppa_dl(gamma, serving, budget, roles=None, kappa=None):
    """Proportional power allocation: P[k,a] = share * gamma / sum(gamma), so
    eta is the same for all served users of a group at an AP. Undefined (raises)
    where all of them have zero gamma."""
    gamma = np.asarray(gamma, dtype=float)
    return _split_dl(gamma, serving, budget, gamma, roles, kappa)


def uniform_dl(gamma, serving, budget, roles=None, kappa=None):
    """Equal transmitted power per served user: P[k,a] = share / |K_a|. Raises
    where a served user has zero gamma."""
    return _split_dl(gamma, serving, budget, 1.0, roles, kappa)


def wfpa_dl(gamma, serving, budget, sigma_z2, roles=None, kappa=None):
    """Waterfilling on the noise levels L = sigma_z^2 / gamma, per AP(-class);
    a class without budget share (kappa 0 or 1) gets no power.

    All (class, AP) water levels nu, with sum_k (nu - L_k)^+ = cap, come from
    one sort-and-scan (Palomar & Fonollosa, IEEE TSP 2005) along the user axis:
    with the n levels sorted, nu = (cap + L_1 + ... + L_m) / m for the first m
    with L_m <= nu <= L_{m+1} (L_{n+1} = inf), else for m = n."""
    gamma = np.asarray(gamma, dtype=float)
    K, A = gamma.shape
    group, caps, onehot = _budget_groups(K, roles, kappa, budget)
    fill = serving & (caps[group] > 0)[:, None]
    bad = np.flatnonzero((fill & (gamma <= 0)).any(axis=0))
    if bad.size:
        raise DegenerateInputError(f"AP {bad[0]}: zero gamma among served users")
    L = np.where(fill, sigma_z2 / np.where(fill, gamma, 1.0), np.inf)
    # (group, K + 1, AP): each group's levels sorted, padded with inf
    levels = np.full((len(caps), K + 1, A), np.inf)
    levels[:, :K] = np.sort(np.where(onehot[:, :, None] > 0, L, np.inf), axis=1)
    nu = (caps[:, None, None] + np.cumsum(levels, axis=1)) / np.arange(1.0, K + 2.0)[:, None]
    fits = nu >= levels
    fits[:, :K] &= nu[:, :K] <= levels[:, 1:]
    n = (levels < np.inf).sum(axis=1)
    # past the n levels every candidate fits, and the scan keeps m = n
    first = np.minimum(fits.argmax(axis=1), n - 1)
    water = np.take_along_axis(nu, first[:, None], axis=1)[:, 0][group]  # (K, A)
    power = np.subtract(water, L, out=np.zeros_like(L), where=fill)
    return np.divide(np.maximum(power, 0.0), gamma, out=np.zeros_like(L), where=fill)


# ---------------------------------------------------------------------------
# Uplink FPC
# ---------------------------------------------------------------------------

def fpc_ul(tr_G, serving, p_max, p0, alpha):
    """Fractional power control: eta_k = min(P_max, P0 * zeta_k^(-alpha)).

    zeta_k = sqrt(sum_{a in A_k} tr(G_{k,a})) aggregates the serving-set
    large-scale gain; tr_G is the (K, A) array of tr(G_{k,a}).
    """
    serving = np.asarray(serving, dtype=bool)
    if not serving.any(axis=1).all():
        raise AssociationError("FPC needs a nonempty serving set per user")
    zeta = np.sqrt((tr_G * serving).sum(axis=1))
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
        C = tables.scale[:, None] * tables.col  # the (K, K, A) C, made whole from its factors
        C[tables.los] = tables.los_rows
        np.einsum("kka->ka", C)[:] += tables.own  # a view: the diagonal j = k
        C[tables.pair_k, tables.pair_j] += tables.pair_var
        self.C = np.where(usable, np.divide(C, gamma, out=C), 0.0).reshape(self.K, -1)
        pj, pk = tables.pair_j, tables.pair_k
        scale = np.sqrt(tables.pair_w) / np.sqrt(gamma[pj])
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


# a DL max-min stage stalls once the best smoothed value at its gradient points
# rose by at most DL_STALL_RTOL * outer_tol in the last DL_STALL_STEPS steps
DL_STALL_STEPS = 10
DL_STALL_RTOL = 0.03


@np.errstate(divide="ignore")  # a starved user's log SINR is -inf
def maxmin_dl(
    tables: SETables,
    budget,
    sigma_z2,
    prelog,
    roles=None,
    kappa=None,
    outer_tol=1e-4,
    max_outer_iters=50,
    max_inner_iters=100,
):
    """Downlink min-rate maximization over all (AP, user) powers at once.

    In stages, FISTA (backtracking, gradient restart) ascends the smoothed min
    of log SINR with smoothing mu = 5, 20, ... up to mu_end = max(ln K, 1) /
    outer_tol, where the smoothing gap ln K / mu is at most outer_tol, each
    stage from the best true-min point so far, for max_inner_iters steps or
    until it stalls (DL_STALL_STEPS; no step before the stop changes). It has
    converged once a stage at mu_end raises the best min SE by at most
    outer_tol (relative); the trace holds the best min SE after each stage,
    "steps" the steps of each stage. Starts from PPA. A serving AP without
    budget or a user who can get no power (min rate 0 under any allocation)
    raises DegenerateInputError."""
    serving, gamma = tables.serving, tables.gamma
    if serving.any() and not budget > 0:
        raise DegenerateInputError(f"AP {serving.any(axis=0).argmax()}: budget {budget} W; "
                                   "its users get no power")
    # in y = sqrt(gamma * eta) each AP(-class) budget is a ball:
    # sum_{k in group} y[k, a]^2 <= caps[group]
    group, caps, onehot = _budget_groups(tables.n_users, roles, kappa, budget)
    usable = serving & (gamma > 0) & (caps[group] > 0)[:, None]
    stranded = np.flatnonzero(~usable.any(axis=1))
    if stranded.size:
        raise DegenerateInputError(f"user {stranded[0]}: zero gamma or budget on all serving APs")

    mask = usable.astype(float)
    room = np.where(caps > 0, caps, 1.0)[:, None]  # a zero cap only meets unusable (zero) rows

    def project(y):
        """Projection onto the budget balls, in place: callers pass temporaries."""
        np.maximum(y, 0.0, out=y)
        y *= mask
        used = onehot @ (y * y)
        y *= np.sqrt(room / np.maximum(used, room))[group]
        return y

    obj = _DlObjective(tables, usable, sigma_z2)
    best = project(np.sqrt(gamma * ppa_dl(gamma, serving, budget, roles=roles, kappa=kappa)))
    best_low = obj.smooth_min(best, 1.0)[1]
    trace = [float(se_from_sinr(np.exp(best_low), prelog))]
    mu_end = max(math.log(tables.n_users), 1.0) / outer_tol if outer_tol > 0 else np.inf
    mu = min(5.0, mu_end)
    diameter = 2.0 * math.sqrt(caps.repeat(tables.gamma.shape[1]).sum())  # no useful step is longer
    converged = False
    stage, steps = 0, []
    for stage in range(1, max_outer_iters + 1):
        x = z = best
        fz, _, gz = obj.smooth_min(z, mu, grad=True)
        if gz is None:
            raise SolverError(f"DL max-min objective is {fz} at the start of stage {stage}")
        # each stage, and each step, first tries a longer step (a stationary
        # point inflates step_inv, as rounding fails the ascent test there)
        t, step_inv = 1.0, 0.0
        peaks = [fz]  # best smoothed value at the gradient points, after each step
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
            peaks.append(max(peaks[-1], fz))
            if (len(peaks) > DL_STALL_STEPS
                    and peaks[-1] - peaks[-1 - DL_STALL_STEPS] <= DL_STALL_RTOL * outer_tol):
                break
        steps.append(len(peaks) - 1)
        trace.append(float(se_from_sinr(np.exp(best_low), prelog)))
        if mu == mu_end and trace[-1] <= trace[-2] * (1.0 + outer_tol):
            converged = True
            break
        mu = min(4.0 * mu, mu_end)

    se = se_from_sinr(np.exp(obj.log_sinr(best)[0]), prelog)
    eta = np.where(usable, best * best / np.where(usable, gamma, 1.0), 0.0)
    info = {"min_rate_trace": trace, "converged": converged, "iterations": stage,
            "steps": steps, "se_spread": float(se.max() / se.min() - 1.0)}
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
