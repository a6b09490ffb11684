"""Power allocation strategies.

Downlink: proportional (PPA), waterfilling (WFPA), uniform per served user,
and min-rate maximization via successive lower-bound maximization over
per-AP blocks. Uplink: fractional power control (FPC) and exact min-rate
maximization. Every strategy returns the *coefficients* eta (transmitted
power is eta * gamma in DL), with per-AP budgets sum_k eta[k,a] gamma[k,a]
<= budget_a and per-user UL boxes 0 <= eta_k <= P_max. Both max-min solvers
return (eta, info) with the min-rate trace, a converged flag and the
iteration count.

The DL optimizer works on normalized powers eta_bar (eta = eta_bar * rho with
rho the per-AP(-class) inverse gamma sums), expresses each convex subproblem
in u = sqrt(eta_bar) variables (all constraints become smooth quadratics or
logs of quadratics) and solves it with SLSQP. A safeguarded accept step keeps
the true closed-form min-rate non-decreasing regardless of surrogate quality.

The UL bound's SINR is affine in the powers over both numerator and
denominator, so UL max-min is solved to global optimality by bisection on the
common SINR target, one linear solve per step.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.optimize import minimize


def _quiet_minimize(*args, **kwargs):
    # SLSQP emits a benign warning when its line search steps outside bounds
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Values in x were outside bounds")
        return minimize(*args, **kwargs)

from .errors import AssociationError, DegenerateInputError, SolverError
from .geometry import ROLE_GUE, ROLE_UAV
from .se import SETables, dl_sinr_lb, dl_sinr_parts, se_from_sinr, ul_sinr_affine

LN2 = math.log(2.0)


def transmitted_dl_power(eta_dl, gamma):
    """P[k, a] = eta[k, a] * gamma[k, a]."""
    return np.asarray(eta_dl) * np.asarray(gamma)


def dl_budget_violation(eta_dl, gamma, budgets):
    """Max relative budget excess over APs (negative when strictly inside)."""
    used = transmitted_dl_power(eta_dl, gamma).sum(axis=0)
    return float(((used - budgets) / budgets).max())


def _class_groups(serving_col, roles, kappa):
    """Per-AP user groups with their budget fractions."""
    served = np.flatnonzero(serving_col)
    if kappa is None:
        return [(served, 1.0)]
    gues = served[roles[served] == ROLE_GUE]
    uavs = served[roles[served] == ROLE_UAV]
    return [(gues, 1.0 - kappa), (uavs, kappa)]


# ---------------------------------------------------------------------------
# Heuristic DL strategies
# ---------------------------------------------------------------------------

def ppa_dl(gamma, serving, budgets, roles=None, kappa=None):
    """Proportional power allocation: P[k,a] = share_a * gamma / sum(gamma).

    With kappa set, GUEs split (1-kappa) and UAVs kappa of each AP budget.
    """
    gamma = np.asarray(gamma, dtype=float)
    K, A = gamma.shape
    eta = np.zeros((K, A))
    for a in range(A):
        for users, frac in _class_groups(serving[:, a], roles, kappa):
            if users.size == 0:
                continue
            total = gamma[users, a].sum()
            if total <= 0:
                raise DegenerateInputError(
                    f"AP {a}: all served users have zero gamma; PPA undefined"
                )
            # P = frac*budget*gamma/total, so eta = P/gamma is uniform in the group
            eta[users, a] = frac * budgets[a] / total
    return eta


def uniform_dl(gamma, serving, budgets):
    """Equal transmitted power per served user: P[k,a] = budget_a / |K_a|."""
    gamma = np.asarray(gamma, dtype=float)
    K, A = gamma.shape
    eta = np.zeros((K, A))
    for a in range(A):
        users = np.flatnonzero(serving[:, a])
        if users.size == 0:
            continue
        if np.any(gamma[users, a] <= 0):
            raise DegenerateInputError(f"AP {a}: zero gamma among served users")
        eta[users, a] = budgets[a] / users.size / gamma[users, a]
    return eta


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
    """Waterfilling on the noise levels L = sigma_z^2 / gamma, per AP(-class)."""
    gamma = np.asarray(gamma, dtype=float)
    K, A = gamma.shape
    eta = np.zeros((K, A))
    for a in range(A):
        for users, frac in _class_groups(serving[:, a], roles, kappa):
            if users.size == 0:
                continue
            if np.any(gamma[users, a] <= 0):
                raise DegenerateInputError(f"AP {a}: zero gamma among served users")
            levels = sigma_z2 / gamma[users, a]
            nu = solve_water_level(levels, frac * budgets[a])
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

def dl_normalizers(gamma, serving, roles=None, kappa=None):
    """rho[k, a] = inverse gamma sum over AP a's served users (or user k's class)."""
    gamma = np.asarray(gamma, dtype=float)
    K, A = gamma.shape
    rho = np.zeros((K, A))
    for a in range(A):
        for users, _frac in _class_groups(serving[:, a], roles, kappa):
            if users.size == 0:
                continue
            total = gamma[users, a].sum()
            if total <= 0:
                raise DegenerateInputError(f"AP {a}: zero gamma sum; normalizer undefined")
            rho[users, a] = 1.0 / total
    return rho


class DlPowerModel:
    """Closed-form DL rate (SE units) and its block surrogate in normalized powers.

    g1 is the SINR numerator, g2 the full denominator of the deterministic
    bound (including the gain-uncertainty term, so g1 + g2 reproduces the
    closed form exactly). `paper_literal_g2` switches to the printed surrogate
    denominator: no gain-uncertainty term and the evaluation user's normalizer
    applied to every interferer.
    """

    def __init__(self, tables: SETables, rho, sigma_z2, prelog, paper_literal_g2=False):
        self.t = tables
        self.rho = np.asarray(rho, dtype=float)
        self.sigma_z2 = sigma_z2
        self.prelog = prelog
        self.literal = paper_literal_g2
        self.K, self.A = tables.gamma.shape

    # -- exact quantities ---------------------------------------------------

    def eta_from_bar(self, eta_bar):
        return np.where(self.t.serving, np.asarray(eta_bar) * self.rho, 0.0)

    def rates(self, eta_bar):
        sinr = dl_sinr_lb(self.t, self.eta_from_bar(eta_bar), self.sigma_z2)
        return se_from_sinr(sinr, self.prelog)

    def g1g2(self, eta_bar):
        """Numerator / denominator split of the closed form, per user."""
        eta = self.eta_from_bar(eta_bar)
        g1, g2 = dl_sinr_parts(self.t, eta, self.sigma_z2)
        if self.literal:
            g2 = self._g2_literal(eta_bar)
        return g1, g2

    def _g2_literal(self, eta_bar):
        """Printed surrogate denominator (no uncertainty term, rho of the eval user)."""
        t = self.t
        K = self.K
        g2 = np.zeros(K)
        bar = np.where(t.serving, np.asarray(eta_bar, dtype=float), 0.0)
        for k in range(K):
            eta_k = bar * self.rho[k][None, :]  # rho_{a,k} applied to every j
            root = np.sqrt(eta_k)
            mid = np.einsum("j,ja,ja->", np.sqrt(t.eta_train), eta_k, t.tr_gdg[:, k, :])
            pc = 0.0
            for j in range(K):
                if j == k or t.gram2[k, j] == 0.0:
                    continue
                s = (root[j] * t.t_dg[j, k]).sum()
                q = (eta_k[j] * np.abs(t.t_dg[j, k]) ** 2).sum()
                d = (eta_k[j] * t.delta[k, j]).sum()
                pc += t.eta_train[k] * t.gram2[k, j] * (d + abs(s) ** 2 - q)
            g2[k] = mid + self.sigma_z2 + pc
        return g2

    # -- block-restricted quadratic view -------------------------------------

    def block_coeffs(self, eta_bar, ap, users):
        """Quadratic data of g1+g2 and g2 restricted to block (ap, users).

        In u = sqrt(eta_bar[users, ap]) variables every user's g2 is
        sum_j alpha[k,j] u_j^2 + beta[k,j] u_j + const[k], and
        g1_k = (c1[k] + w1[k] @ u)^2 with w1 zero outside the block. The
        block/out-of-block PC cross products are linear in u, so this split
        is exact, not an approximation.
        """
        t = self.t
        K = self.K
        users = np.asarray(users, dtype=int)
        nb = users.size
        eta = self.eta_from_bar(eta_bar)
        eta_out = eta.copy()
        eta_out[users, ap] = 0.0  # out-of-block contributions
        root_out = np.sqrt(eta_out)

        rho_b = self.rho[users, ap]  # (nb,)
        gamma_b = t.gamma[users, ap]

        # g1: c1 + w1 @ u for block members, constant otherwise
        c1 = (root_out * t.gamma).sum(axis=1)  # (K,)
        w1 = np.zeros((K, nb))
        w1[users, np.arange(nb)] = np.sqrt(rho_b) * gamma_b

        alpha = np.zeros((K, nb))
        beta = np.zeros((K, nb))

        own_delta = np.einsum("kka->ka", t.delta)
        sqrt_tr = np.sqrt(t.eta_train)
        all_k = np.arange(K)
        for pos, j in enumerate(users):
            # rho applied to j's power: its own class normalizer, or the
            # evaluation user's one in the printed-literal variant
            rho_j = np.full(K, rho_b[pos]) if not self.literal else self.rho[:, ap]
            # average interference of j's power at AP `ap` on every k
            alpha[:, pos] += rho_j * sqrt_tr[j] * t.tr_gdg[j, :, ap]
            if not self.literal:
                # j's own gain-uncertainty term
                alpha[j, pos] += rho_b[pos] * (
                    t.eta_train[j] * own_delta[j, ap] - t.gamma[j, ap] ** 2
                )
            # pilot contamination of j onto copilot users k != j
            copilot = (t.gram2[:, j] > 0.0) & (all_k != j)
            if copilot.any():
                scale = t.eta_train[copilot] * t.gram2[copilot, j]
                alpha[copilot, pos] += scale * rho_j[copilot] * t.delta[copilot, j, ap]
                if self.literal:
                    bar_row = np.where(
                        t.serving[j], np.asarray(eta_bar, dtype=float)[j], 0.0
                    ).copy()
                    bar_row[ap] = 0.0
                    root_lit = np.sqrt(bar_row[None, :] * self.rho[copilot, :])
                    c_rest = (root_lit * t.t_dg[j, copilot, :]).sum(axis=1)
                else:
                    c_rest = (root_out[j][None, :] * t.t_dg[j, copilot, :]).sum(axis=1)
                beta[copilot, pos] += scale * 2.0 * np.sqrt(rho_j[copilot]) * np.real(
                    t.t_dg[j, copilot, ap] * np.conj(c_rest)
                )

        if self.literal:
            bar_out = np.asarray(eta_bar, dtype=float).copy()
            bar_out[users, ap] = 0.0
            const = self._g2_literal(bar_out)
        else:
            const = self._g2_of_eta(eta_out)
        return {
            "alpha": alpha,
            "beta": beta,
            "const": const,
            "c1": c1,
            "w1": w1,
            "users": users,
            "ap": ap,
            "rho_b": rho_b,
            "gamma_b": gamma_b,
        }

    def _g2_of_eta(self, eta):
        """Denominator of the closed form at actual coefficients eta."""
        _num, den = dl_sinr_parts(self.t, eta, self.sigma_z2)
        return den

    # quadratic-form helpers (u-space)
    def _g2_block(self, co, u):
        return co["alpha"] @ (u**2) + co["beta"] @ u + co["const"]

    def _q_block(self, co, u):
        g1 = (co["c1"] + co["w1"] @ u) ** 2
        return g1 + self._g2_block(co, u)

    def _lincoef(self, co, u0):
        """d g2 / d eta_bar at the anchor (beta terms give 1/(2 u0))."""
        return co["alpha"] + co["beta"] / (2.0 * u0)[None, :]

    def surrogates_all(self, co, u, u0):
        """Vector of all K surrogates and their (K, nb) u-gradients."""
        q = self._q_block(co, u)
        g20 = self._g2_block(co, u0)
        lin = self._lincoef(co, u0)
        corr = lin @ (u**2 - u0**2)
        vals = self.prelog * (np.log2(q) - np.log2(g20) - corr / (LN2 * g20))
        s = co["c1"] + co["w1"] @ u
        dq = 2.0 * co["alpha"] * u[None, :] + co["beta"] + 2.0 * co["w1"] * s[:, None]
        grads = self.prelog * (dq / (LN2 * q[:, None]) - 2.0 * lin * u[None, :] / (LN2 * g20[:, None]))
        return vals, grads


def solve_block_subproblem(model: DlPowerModel, eta_bar, ap, users, budget, anchor_floor=1e-15):
    """One convex subproblem: max t s.t. budget, u >= 0, surrogate_k(u) >= t.

    Returns (new_eta_bar_block (nb,), t_star). eta_bar supplies both the
    anchor and the fixed out-of-block powers.
    """
    users = np.asarray(users, dtype=int)
    nb = users.size
    anchor = np.asarray(eta_bar, dtype=float).copy()
    anchor[users, ap] = np.maximum(anchor[users, ap], anchor_floor)
    co = model.block_coeffs(anchor, ap, users)
    u0 = np.sqrt(anchor[users, ap])
    w = co["rho_b"] * co["gamma_b"]  # budget weights on u^2

    vals0, _ = model.surrogates_all(co, u0, u0)
    x0 = np.concatenate([u0, [vals0.min()]])

    def budget_fun(x):
        return np.array([budget - w @ (x[:nb] ** 2)])

    def budget_jac(x):
        j = np.zeros((1, nb + 1))
        j[0, :nb] = -2.0 * w * x[:nb]
        return j

    def rate_fun(x):
        vals, _ = model.surrogates_all(co, x[:nb], u0)
        return vals - x[nb]

    def rate_jac(x):
        _, grads = model.surrogates_all(co, x[:nb], u0)
        out = np.zeros((model.K, nb + 1))
        out[:, :nb] = grads
        out[:, nb] = -1.0
        return out

    u_cap = np.sqrt(budget / np.maximum(w, 1e-300))
    bounds = [(0.0, float(c)) for c in u_cap] + [(None, None)]
    res = _quiet_minimize(
        lambda x: -x[nb],
        x0,
        jac=lambda x: np.concatenate([np.zeros(nb), [-1.0]]),
        bounds=bounds,
        constraints=[
            {"type": "ineq", "fun": budget_fun, "jac": budget_jac},
            {"type": "ineq", "fun": rate_fun, "jac": rate_jac},
        ],
        method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-12},
    )
    u_star = np.clip(res.x[:nb], 0.0, u_cap)
    # rescale onto the budget if SLSQP ended marginally outside
    used = w @ (u_star**2)
    if used > budget:
        u_star *= np.sqrt(budget / used)
    vals, _ = model.surrogates_all(co, u_star, u0)
    return u_star**2, float(vals.min())


def maxmin_dl(
    tables: SETables,
    budgets,
    sigma_z2,
    prelog,
    roles=None,
    kappa=None,
    init_eta=None,
    outer_tol=1e-4,
    max_outer_iters=50,
    inner_tol=1e-6,
    max_inner_iters=20,
    paper_literal_g2=False,
    anchor_floor_frac=1e-12,
):
    """Alternating per-AP(-class) successive lower-bound maximization.

    Starts from PPA unless init_eta (coefficients) is given. The candidate of
    every block solve is accepted only if the true closed-form min rate does
    not decrease, so the returned trace is non-decreasing up to round-off.
    """
    serving = tables.serving
    gamma = tables.gamma
    budgets = np.asarray(budgets, dtype=float)
    rho = dl_normalizers(gamma, serving, roles=roles, kappa=kappa)
    model = DlPowerModel(tables, rho, sigma_z2, prelog, paper_literal_g2=paper_literal_g2)

    if init_eta is None:
        init_eta = ppa_dl(gamma, serving, budgets, roles=roles, kappa=kappa)
    eta_bar = np.where(rho > 0, np.asarray(init_eta, dtype=float) / np.where(rho > 0, rho, 1.0), 0.0)

    blocks = []
    for a in range(tables.n_ap):
        for users, frac in _class_groups(serving[:, a], roles, kappa):
            if users.size > 0:
                blocks.append((a, users, frac * budgets[a]))
    if not blocks:
        raise SolverError("no served users; nothing to optimize")

    cur_min = float(model.rates(eta_bar).min())
    trace = [cur_min]
    converged = False
    it = 0
    for it in range(1, max_outer_iters + 1):
        for a, users, share in blocks:
            floor = anchor_floor_frac * share
            anchor_bar = eta_bar
            t_prev = -np.inf
            best_block = eta_bar[users, a].copy()
            for _ in range(max_inner_iters):
                new_block, t_star = solve_block_subproblem(
                    model, anchor_bar, a, users, share, anchor_floor=floor
                )
                cand = anchor_bar.copy()
                cand[users, a] = new_block
                anchor_bar = cand
                best_block = new_block
                if t_prev > -np.inf and abs(t_star - t_prev) <= inner_tol * max(abs(t_star), 1e-12):
                    break
                t_prev = t_star
            cand = eta_bar.copy()
            cand[users, a] = best_block
            cand_min = float(model.rates(cand).min())
            # safeguarded accept: the true min rate never decreases
            if cand_min >= cur_min:
                eta_bar = cand
                cur_min = cand_min
        trace.append(cur_min)
        if trace[-2] > 0 and (trace[-1] - trace[-2]) <= outer_tol * trace[-2]:
            converged = True
            break
    info = {"min_rate_trace": trace, "converged": converged, "iterations": it}
    return model.eta_from_bar(eta_bar), info


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
