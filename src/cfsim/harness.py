"""Drop and campaign orchestration.

A drop is one Monte-Carlo realization of topology, shadowing, pilot
assignment and association over which the closed-form SE lower bounds (and,
optionally, the sampled upper bounds) are evaluated for every user. A
campaign aggregates many drops into per-(role, link, bound) rate CDFs.

Reproducibility contract: (config, master_seed) determines every output
byte. Drop i consumes generators spawned from SeedSequence(master_seed,
spawn_key=(i,)), so results are independent of the parallelism degree.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
import yaml

from . import __version__, mc
from .association import build_association
from .channel import build_large_scale
from .config import SimConfig, config_to_dict
from .errors import CfsimError, NumericsError
from .estimation import assign_pilots, build_estimation
from .geometry import generate_topology
from .mc import se_ub_mc
from .power import fpc_ul, maxmin_dl, maxmin_ul, ppa_dl, uniform_dl, wfpa_dl
from .se import build_se_tables, dl_sinr_lb, se_from_sinr, ul_sinr_lb

ROLE_NAMES = {0: "gue", 1: "uav"}


@dataclass
class RateReport:
    """Per-user spectral efficiencies and rates for one drop."""

    drop_id: int
    roles: np.ndarray  # (K,)
    se_lb_dl: np.ndarray
    se_lb_ul: np.ndarray
    se_ub_dl: np.ndarray  # NaN when the UB evaluation is disabled
    se_ub_ul: np.ndarray
    se_ub_dl_stderr: np.ndarray
    se_ub_ul_stderr: np.ndarray
    bandwidth_hz: float
    # max over users and links of |mirror SE - closed-form LB| / mirror stderr
    # (NaN without UB), and the user-links above mirror_threshold (0 without UB)
    mirror_z: float
    mirror_over: int
    power_info: dict = field(default_factory=dict)


def mirror_threshold(config):
    """The |z| that a user-link's mirror exceeds with probability 1e-3 / 2K, 0.1% over
    a drop's 2K user-links: Student's t quantile for batch_count - 1 dof, by bisection
    on theta = atan(t / sqrt(dof)) of A(t | dof) (Abramowitz & Stegun 26.7.3-4)."""
    dof, lo, hi = config.mc.batch_count - 1, 0.0, math.pi / 2
    for _ in range(64):
        theta = (lo + hi) / 2
        cos, total, term = math.cos(theta), 1.0, 1.0
        for m in range(1 + dof % 2, dof - 1, 2):  # term ratios 1/2, 3/4, ... or 2/3, 4/5, ...
            term *= m / (m + 1) * cos * cos
            total += term
        inside = (2 / math.pi * (theta + (dof > 1) * math.sin(theta) * cos * total) if dof % 2
                  else math.sin(theta) * total)  # A = P(|T| <= sqrt(dof) tan theta)
        lo, hi = (theta, hi) if inside < 1 - 1e-3 / (2 * config.n_users) else (lo, theta)
    return math.sqrt(dof) * math.tan(lo)


def drop_seed_sequence(master_seed, drop_index):
    """Stable splittable per-drop seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(drop_index,))


def allocate_dl(config: SimConfig, tables, roles):
    p = config.power
    if p.dl == "maxmin":
        return maxmin_dl(tables, p.dl_budget_per_ap_w, config.noise_w, config.frame.prelog,
                         roles=roles, kappa=p.kappa, **asdict(p.maxmin))
    # built per call, so a wrapper put in a module global's place is the one called
    split = {"ppa": ppa_dl, "uniform": uniform_dl,
             "wfpa": partial(wfpa_dl, sigma_z2=config.noise_w)}[p.dl]
    return split(tables.gamma, tables.serving, p.dl_budget_per_ap_w, roles=roles, kappa=p.kappa), {}


def allocate_ul(config: SimConfig, tables, est):
    p = config.power
    if p.ul == "fpc":
        return fpc_ul(est.tr_G, tables.serving, p.ul_max_w, p.fpc.p0_watts, p.fpc.alpha), {}
    return maxmin_ul(tables, config.noise_w, config.frame.prelog, p.ul_max_w)


def run_drop(config: SimConfig, drop_index, master_seed=None, debug_dir=None) -> RateReport:
    """Execute the full pipeline for one drop, deterministically from its seed.

    debug_dir, when set, receives per-drop diagnostic CSVs (large-scale state,
    estimation scalars, serving sets, solver traces).
    """
    config.validate()
    if master_seed is None:
        master_seed = config.seed
    ss = drop_seed_sequence(master_seed, drop_index)
    rng_state, rng_mc = [np.random.default_rng(s) for s in ss.spawn(2)]

    try:
        geometry = generate_topology(config, rng_state)
        ls = build_large_scale(config, geometry, rng_state)
        book = assign_pilots(config.n_users, config.frame.tau_p, rng_state)
        serving = build_association(config, ls.beta)
        est = build_estimation(ls, book, eta_train=config.train_energy_w, sigma_w2=config.noise_w)
        tables = build_se_tables(ls, est, book, serving)

        eta_dl, dl_info = allocate_dl(config, tables, ls.roles)
        eta_ul, ul_info = allocate_ul(config, tables, est)

        prelog = config.frame.prelog
        se_lb_dl = se_from_sinr(dl_sinr_lb(tables, eta_dl, config.noise_w), prelog)
        se_lb_ul = se_from_sinr(ul_sinr_lb(tables, eta_ul, config.noise_w), prelog)

        outputs = {"se_lb_dl": se_lb_dl, "se_lb_ul": se_lb_ul}
        mirror_z, mirror_over = np.nan, 0
        if config.mc.ub_samples > 0:
            mc_dl, mc_ul = se_ub_mc(
                ls, est, book, serving, eta_dl, eta_ul, config.noise_w,
                prelog, config.mc.ub_samples, rng_mc,
                batch_count=config.mc.batch_count,
            )
            outputs.update(se_ub_dl=mc_dl.ub, se_ub_ul=mc_ul.ub,
                           se_ub_dl_stderr=mc_dl.ub_stderr, se_ub_ul_stderr=mc_ul.ub_stderr)
            # reported, never raised; a zero stderr counts z = 0 where the two agree
            diff = np.abs(np.concatenate([mc_dl.lb - se_lb_dl, mc_ul.lb - se_lb_ul]))
            err = np.concatenate([mc_dl.lb_stderr, mc_ul.lb_stderr])
            z = np.divide(diff, err, out=np.where(diff > 0, np.inf, 0.0), where=err > 0)
            mirror_z, mirror_over = float(z.max()), int((z > mirror_threshold(config)).sum())
        for name, values in outputs.items():
            if not np.isfinite(values).all():
                raise NumericsError(f"{name} is not finite")
    except CfsimError as exc:
        raise type(exc)(f"drop {drop_index} (seed {master_seed}): {exc}") from exc

    if debug_dir is not None:
        dump_drop_debug(
            debug_dir, drop_index, ls, est, serving,
            {"dl": dl_info, "ul": ul_info},
        )
    nan = np.full(config.n_users, np.nan)  # the UB columns of a run without UB
    return RateReport(
        drop_id=drop_index,
        roles=ls.roles,
        **(dict.fromkeys(("se_ub_dl", "se_ub_ul", "se_ub_dl_stderr", "se_ub_ul_stderr"), nan)
           | outputs),
        bandwidth_hz=config.bandwidth_hz,
        mirror_z=mirror_z,
        mirror_over=mirror_over,
        power_info={"dl": dl_info, "ul": ul_info},
    )


def dump_drop_debug(debug_dir, drop_id, ls, est, serving, power_info):
    """Diagnostic CSVs for one drop: channel state, estimator scalars, serving
    map and min-rate solver traces (DL also with each stage's FISTA steps)."""
    os.makedirs(debug_dir, exist_ok=True)
    K, A = ls.beta.shape
    _write_pair_csv(os.path.join(debug_dir, f"drop_{drop_id}_beta.csv"),
                    "beta_db,rice_k", 10.0 * np.log10(ls.beta), ls.rice_k)
    _write_pair_csv(os.path.join(debug_dir, f"drop_{drop_id}_estimation.csv"),
                    "gamma,tr_G,tr_B", est.gamma, est.tr_G, est.tr_B)
    with open(os.path.join(debug_dir, f"drop_{drop_id}_association.csv"), "w") as fh:
        fh.write("user_id,ap_ids\n")
        for k in range(K):
            fh.write(f"{k}," + " ".join(str(a) for a in np.flatnonzero(serving[k])) + "\n")
    for link, info in power_info.items():
        trace = info.get("min_rate_trace")
        if trace:
            steps = [f",{n}" for n in [0] + info["steps"]] if "steps" in info else [""] * len(trace)
            path = os.path.join(debug_dir, f"drop_{drop_id}_maxmin_{link}_trace.csv")
            with open(path, "w") as fh:
                fh.write("outer_iter,min_rate" + (",steps" if "steps" in info else "") + "\n")
                for i, (v, n) in enumerate(zip(trace, steps)):
                    fh.write(f"{i},{float(v)!r}{n}\n")


def _write_pair_csv(path, header, *columns):
    """One row per (user, AP) pair of the (K, A) columns, in row-major order."""
    A = columns[0].shape[1]
    rows = np.stack([c.ravel() for c in columns], axis=1).tolist()
    with open(path, "w") as fh:
        fh.write(f"user_id,ap_id,{header}\n")
        fh.writelines(f"{i // A},{i % A}," + ",".join(map(repr, row)) + "\n"
                      for i, row in enumerate(rows))


def _drop_task(args):
    config, drop_index, master_seed, debug_dir = args
    return run_drop(config, drop_index, master_seed, debug_dir=debug_dir)


@dataclass
class CampaignResult:
    reports: list
    config: SimConfig
    master_seed: int

    def rate_samples(self, role_name, link, bound):
        """Pooled per-user rates (bit/s) across drops for one (role, link, bound),
        without the NaN UB of a run that evaluates none."""
        role_id = {v: k for k, v in ROLE_NAMES.items()}[role_name]
        chunks = [getattr(rep, f"se_{bound}_{link}")[rep.roles == role_id] * rep.bandwidth_hz
                  for rep in self.reports]
        samples = np.concatenate(chunks) if chunks else np.array([])
        return samples[~np.isnan(samples)]

    def cdf_table(self, role_name, link, bound):
        """Sorted rates with empirical CDF values (i+1)/n."""
        x = np.sort(self.rate_samples(role_name, link, bound))
        return x, np.arange(1, x.size + 1) / max(x.size, 1)

    def percentiles(self, role_name, link, bound):
        """{1: 99%-likely rate, 5, 50, 95} percentiles in bit/s."""
        samples = self.rate_samples(role_name, link, bound)
        if samples.size == 0:
            return {}
        return {p: float(np.percentile(samples, p)) for p in (1, 5, 50, 95)}


def run_campaign(
    config: SimConfig, n_drops=None, master_seed=None, jobs=1, debug_dir=None
) -> CampaignResult:
    """Run n_drops independent drops; results are invariant to `jobs`.

    Each drop is reached through the module global run_drop, so a wrapper put in
    its place sees every drop of a serial campaign. With jobs > 1 each process
    runs with the thread budget mc.sampler_workers(jobs); a serial campaign
    keeps the process's own budget."""
    config.validate()
    if n_drops is None:
        n_drops = config.drops
    if master_seed is None:
        master_seed = config.seed
    if n_drops < 1:
        raise CfsimError("n_drops must be >= 1")
    if jobs < 1:
        raise CfsimError("jobs must be >= 1")
    tasks = [(config, i, master_seed, debug_dir) for i in range(n_drops)]
    jobs = min(jobs, n_drops)  # the pool starts all its workers at the first submit
    if jobs <= 1:
        reports = [_drop_task(t) for t in tasks]
    else:
        # each process's threads share the CPUs with the other processes
        with ProcessPoolExecutor(max_workers=jobs, initializer=mc.set_budget,
                                 initargs=(mc.sampler_workers(jobs),)) as pool:
            reports = list(pool.map(_drop_task, tasks))
    reports.sort(key=lambda r: r.drop_id)
    return CampaignResult(reports=reports, config=config, master_seed=master_seed)


# ---------------------------------------------------------------------------
# Output emission
# ---------------------------------------------------------------------------

RATES_HEADER = (
    "drop_id,user_id,role,se_lb_dl,se_ub_dl,se_lb_ul,se_ub_ul,"
    "rate_lb_dl,rate_ub_dl,rate_lb_ul,rate_ub_ul,se_ub_dl_stderr,se_ub_ul_stderr"
)


def write_rates_csv(result: CampaignResult, path):
    """One row per (drop, user). Every value is repr() of a Python float from
    .tolist(), the shortest string that reads back to the same double."""
    lines = [RATES_HEADER]
    for rep in result.reports:
        se = [rep.se_lb_dl, rep.se_ub_dl, rep.se_lb_ul, rep.se_ub_ul]
        W = rep.bandwidth_hz
        rows = np.stack(se + [v * W for v in se]
                        + [rep.se_ub_dl_stderr, rep.se_ub_ul_stderr], axis=1).tolist()
        lines += [f"{rep.drop_id},{k},{ROLE_NAMES[role]}," + ",".join(map(repr, row))
                  for k, (role, row) in enumerate(zip(rep.roles.tolist(), rows))]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_cdf(result: CampaignResult, out_dir):
    """Write rates.csv, cdf_<role>_<link>_<bound>.csv files and the run manifest.

    Returns the list of written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    rates_path = os.path.join(out_dir, "rates.csv")
    write_rates_csv(result, rates_path)
    written.append(rates_path)

    bounds = ["lb", "ub"] if result.config.mc.ub_samples > 0 else ["lb"]
    present_roles = set()
    for rep in result.reports:
        present_roles.update(int(r) for r in np.unique(rep.roles))
    for role_id in sorted(present_roles):
        role = ROLE_NAMES[role_id]
        for link in ("dl", "ul"):
            for bound in bounds:
                x, f = result.cdf_table(role, link, bound)
                path = os.path.join(out_dir, f"cdf_{role}_{link}_{bound}.csv")
                lines = ["rate_bps,cdf"] + [
                    f"{xi!r},{fi!r}" for xi, fi in zip(x.tolist(), f.tolist())
                ]
                with open(path, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                written.append(path)

    manifest = {
        "cfsim_version": __version__,
        "master_seed": int(result.master_seed),
        "n_drops": len(result.reports),
        "seed_derivation": "SeedSequence(master_seed, spawn_key=(drop_index,)).spawn(2)",
        "config": config_to_dict(result.config),
        "outputs": [os.path.basename(p) for p in written],
    }
    manifest_path = os.path.join(out_dir, "manifest.yaml")
    # libyaml's emitter when PyYAML has it: the same text, several times faster
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    with open(manifest_path, "w") as fh:
        yaml.dump(manifest, fh, Dumper=dumper, sort_keys=False)
    written.append(manifest_path)
    return written
