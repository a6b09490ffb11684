"""One fresh benchmark process: set up, run one workload, check it, report JSON.

    python3 perfbench/worker.py --workload NAME --mode {setup,timed,traced}
        --t0 EPOCH_SECONDS [--seconds S] [--toy] [--reference-dir DIR]

``setup`` stops once cfsim is imported and the config is resolved; ``timed``
repeats ``run_campaign`` + ``emit_cdf`` until ``--seconds`` have passed, with
only a per-drop timer installed and ``calibrate`` timed between campaigns;
``traced`` runs the campaign once with every
stage wrapped by the span tracer. The last stdout line is one JSON object.
perfbench/run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

from tracer import Tracer
from workloads import MASTER_SEED, THREAD_VARS, build_config, pin_threads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# Tolerances of the correctness gate.
LB_RTOL = 1e-6  # per-user closed-form SE against the reference
MAXMIN_TOL = 1e-2  # max-min links: per-drop min SE >= reference * (1 - tol)
UB_Z = 5.0  # UB within UB_Z combined standard errors of the reference
LB_UB_Z = 3.0  # LB <= UB + LB_UB_Z * stderr

LAYERS = ("geometry", "channel", "association", "estimation", "se", "power", "mc", "harness")

# (module, attribute looked up by the caller, span name)
WRAPS = [
    ("harness", "generate_topology", "geometry.generate_topology"),
    ("harness", "build_large_scale", "channel.build_large_scale"),
    ("harness", "assign_pilots", "estimation.assign_pilots"),
    ("harness", "build_association", "association.build_association"),
    ("harness", "build_estimation", "estimation.build_estimation"),
    ("harness", "build_se_tables", "se.build_se_tables"),
    ("harness", "dl_sinr_lb", "se.lb_eval"),
    ("harness", "ul_sinr_lb", "se.lb_eval"),
    ("harness", "se_from_sinr", "se.lb_eval"),
    ("harness", "ppa_dl", "power.dl"),
    ("harness", "wfpa_dl", "power.dl"),
    ("harness", "uniform_dl", "power.dl"),
    ("harness", "maxmin_dl", "power.dl"),
    ("harness", "fpc_ul", "power.ul"),
    ("harness", "maxmin_ul", "power.ul"),
    ("harness", "se_ub_dl_mc", "mc.ub_dl"),
    ("harness", "se_ub_ul_mc", "mc.ub_ul"),
    ("harness", "run_drop", "harness.run_drop"),
    ("mc", "draw_channels", "channel.draw_channels"),
    ("power", "minimize", "power.slsqp"),
]

SPAN_TIMES = (
    "geometry.generate_topology",
    "association.build_association",
    "estimation.assign_pilots",
    "channel.build_large_scale",
    "estimation.build_estimation",
    "se.build_se_tables",
    "se.lb_eval",
    "power.dl",
    "power.ul",
    "power.slsqp",
    "mc.ub_dl",
    "mc.ub_ul",
    "channel.draw_channels",
    "harness.run_drop",
    "harness.emit_cdf",
)


# Median host_speed() on the reference host (2-vCPU Intel Xeon VM, Python
# 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31, one thread).
CAL_REF_S = 0.075


def calibrate():
    """Seconds for a fixed piece of work unrelated to cfsim: an interpreter
    loop, small complex matmuls and elementwise work on a 3 MB array, the mix
    a drop consists of. Timed next to each campaign, it measures how fast the
    shared host is running at that moment."""
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    v = rng.standard_normal(200_000)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += i * 0.5
    a = m
    for _ in range(20):
        a = (m @ a) * 0.01
    for _ in range(4):
        np.abs(np.exp(1j * v) * v).sum()
    return time.perf_counter() - t0


def host_speed():
    """Median of three calibration timings."""
    return sorted(calibrate() for _ in range(3))[1]


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_versions():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def drop_problems(rep, ref, config):
    """Reasons one drop's output fails the gate (empty when it passes)."""
    import numpy as np

    arrays = {k: np.asarray(getattr(rep, k)) for k in ("se_lb_dl", "se_lb_ul")}
    has_ub = config.mc.ub_samples > 0
    if has_ub:
        for k in ("se_ub_dl", "se_ub_ul", "se_ub_dl_stderr", "se_ub_ul_stderr"):
            arrays[k] = np.asarray(getattr(rep, k))
    bad = [k for k, v in arrays.items() if not np.all(np.isfinite(v))]
    if bad:
        return [f"non-finite {', '.join(bad)}"]
    if ref is None:
        return [f"no reference for drop {rep.drop_id}"]
    problems = []
    for link, strategy in (("dl", config.power.dl), ("ul", config.power.ul)):
        lb, lb_ref = arrays[f"se_lb_{link}"], np.asarray(ref[f"se_lb_{link}"])
        if lb.shape != lb_ref.shape:
            problems.append(f"{link} LB has {lb.size} users, reference {lb_ref.size}")
            continue
        if strategy == "maxmin":
            if lb.min() < lb_ref.min() * (1.0 - MAXMIN_TOL):
                problems.append(f"{link} max-min min SE {lb.min():.6g} < reference {lb_ref.min():.6g}")
        elif not np.allclose(lb, lb_ref, rtol=LB_RTOL, atol=0.0):
            worst = float(np.max(np.abs(lb - lb_ref) / np.abs(lb_ref)))
            problems.append(f"{link} LB differs from reference by up to {worst:.3g} (rel)")
        if not has_ub:
            continue
        ub, err = arrays[f"se_ub_{link}"], arrays[f"se_ub_{link}_stderr"]
        ub_ref, err_ref = np.asarray(ref[f"se_ub_{link}"]), np.asarray(ref[f"se_ub_{link}_stderr"])
        # Two-batch stderr estimates are noisy; floor each at the link's
        # median relative stderr so one lucky batch pair cannot fail a user.
        sigma = np.hypot(err, err_ref)
        sigma = np.maximum(sigma, np.median(sigma / np.abs(ub_ref)) * np.abs(ub_ref))
        if np.any(np.abs(ub - ub_ref) > UB_Z * sigma):
            problems.append(f"{link} UB differs from reference by more than {UB_Z} stderr")
        if np.any(lb > ub + LB_UB_Z * err):
            problems.append(f"{link} LB exceeds UB + {LB_UB_Z} stderr")
    return problems


def check_outputs(written, n_rows):
    """The emitted files exist and rates.csv has one row per user and drop."""
    names = {os.path.basename(p) for p in written}
    if not {"rates.csv", "manifest.yaml"} <= names or not all(os.path.isfile(p) for p in written):
        return "emit_cdf did not write rates.csv, the CDF files and manifest.yaml"
    with open(os.path.join(os.path.dirname(written[0]), "rates.csv")) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != n_rows:
        return f"rates.csv has {rows} rows, expected {n_rows}"
    return None


def csv_rows(written):
    rows = 0
    for path in written:
        if path.endswith(".csv"):
            with open(path) as fh:
                rows += sum(1 for _ in fh) - 1
    return rows


# ---------------------------------------------------------------------------
# Campaign repetitions
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, cfsim, config, n_drops, seed, reference):
        self.cfsim = cfsim
        self.config = config
        self.n_drops = n_drops
        self.seed = seed
        self.reference = {d["drop_id"]: d for d in reference["drops"]} if reference else {}
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.min_se = None
        self.result = None
        self.written = []

    def rep(self, tracer, out_dir):
        """One timed campaign; returns its wall seconds, or None if it raised."""
        harness = self.cfsim.harness
        t0 = time.perf_counter()
        try:
            result = tracer.call(
                "harness.run_campaign", harness.run_campaign,
                self.config, n_drops=self.n_drops, master_seed=self.seed, jobs=1,
            )
            self.written = tracer.call("harness.emit_cdf", harness.emit_cdf, result, out_dir)
        except Exception as exc:  # a drop raised: the whole campaign is lost
            self.attempted += self.n_drops
            self.failed += self.n_drops
            self.problems.append(f"campaign raised {type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None
        wall = time.perf_counter() - t0
        self.result = result
        self.check(result)
        return wall

    def check(self, result):
        import numpy as np

        self.attempted += self.n_drops
        bad = set()
        output_problem = check_outputs(self.written, self.n_drops * self.config.n_users)
        if output_problem:
            self.problems.append(output_problem)
            bad = set(range(self.n_drops))
        if len(result.reports) != self.n_drops:
            self.problems.append(f"{len(result.reports)} reports for {self.n_drops} drops")
            bad = set(range(self.n_drops))
        for rep in result.reports:
            for p in drop_problems(rep, self.reference.get(rep.drop_id), self.config):
                self.problems.append(f"drop {rep.drop_id}: {p}")
                bad.add(rep.drop_id)
        self.failed += len(bad)
        if self.min_se is None and result.reports:
            self.min_se = {
                link: float(np.median([getattr(r, f"se_lb_{link}").min() for r in result.reports]))
                for link in ("dl", "ul")
            }


def traced_metrics(tracer, bench, wall, rss):
    """Per-layer metrics of one traced campaign."""
    import numpy as np

    inclusive, self_time = tracer.totals()
    m = {f"{name}.s": inclusive.get(name, 0.0) for name in SPAN_TIMES}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, t in self_time.items():
        layer_self[name.split(".")[0]] += t
    m.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    c = tracer.counts
    m["power.slsqp.calls"] = c["slsqp.calls"]
    m["power.slsqp.nit"] = c["slsqp.nit"]
    m["power.slsqp.nonsuccess"] = c["slsqp.nonsuccess"]
    m["power.slsqp.status8"] = c["slsqp.status8"]
    m["power.slsqp.status9"] = c["slsqp.status9"]
    outer = not_converged = 0
    rel_err = []
    has_ub = bench.config.mc.ub_samples > 0
    for rep in bench.result.reports:
        for link in ("dl", "ul"):
            info = rep.power_info.get(link, {})
            if "iterations" in info:
                outer += info["iterations"]
                not_converged += not info.get("converged", False)
            if has_ub:
                rel_err.append(getattr(rep, f"se_ub_{link}_stderr") / getattr(rep, f"se_ub_{link}"))
    m["power.outer_iters"] = outer
    m["power.not_converged"] = not_converged
    ub_s = m["mc.ub_dl.s"] + m["mc.ub_ul.s"]
    m["mc.ub.self_s"] = self_time.get("mc.ub_dl", 0.0) + self_time.get("mc.ub_ul", 0.0)
    m["channel.draw_channels.samples"] = c["draw_channels.samples"]
    m["mc.samples"] = c["mc.samples"]
    m["mc.samples_per_s"] = c["mc.samples"] / ub_s if ub_s > 0 else 0.0
    m["mc.ub_rel_stderr_p50"] = float(np.median(np.concatenate(rel_err))) if rel_err else 0.0
    m["mc.rss_growth_mb"] = max(0.0, rss["after_ub"] - rss["before_ub"]) if "before_ub" in rss else 0.0
    m["harness.rows_written"] = csv_rows(bench.written)
    uncovered = self_time.get("harness.run_campaign", 0.0) + self_time.get("harness.run_drop", 0.0)
    m["trace.uncovered_frac"] = uncovered / wall
    m["trace.absent"] = len(tracer.absent)
    return m


def install_traced(tracer, cfsim, ub_samples, rss):
    modules = {"harness": cfsim.harness, "mc": cfsim.mc, "power": cfsim.power}
    c = tracer.counts

    def after_slsqp(res):
        c["slsqp.calls"] += 1
        c["slsqp.nit"] += int(getattr(res, "nit", 0))
        if not res.success:
            c["slsqp.nonsuccess"] += 1
            c[f"slsqp.status{res.status}"] += 1

    def after_draw(g):
        c["draw_channels.samples"] += g.shape[0]

    def before_ub():
        rss.setdefault("before_ub", rss_mb())

    def after_ub(res):
        c["mc.samples"] += ub_samples
        rss["after_ub"] = rss_mb()

    hooks = {
        "power.slsqp": (None, after_slsqp),
        "channel.draw_channels": (None, after_draw),
        "mc.ub_dl": (before_ub, after_ub),
        "mc.ub_ul": (before_ub, after_ub),
    }
    for mod, attr, span in WRAPS:
        before, after = hooks.get(span, (None, None))
        tracer.wrap(modules[mod], attr, span, before=before, after=after)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--reference-dir", default=os.path.join(HERE, "reference"))
    args = ap.parse_args(argv)

    pin_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cfsim
    import cfsim.harness
    import cfsim.mc
    import cfsim.power

    if not os.path.abspath(cfsim.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"cfsim imported from {cfsim.__file__}, not from this checkout")
    config, n_drops = build_config(args.workload, toy=args.toy)
    setup_s = time.time() - args.t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    ref_path = os.path.join(args.reference_dir, f"{args.workload}.json")
    reference = None
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            reference = json.load(fh)
    bench = Bench(cfsim, config, n_drops, MASTER_SEED, reference)
    out_dir = os.path.join(OUT_ROOT, f"run-{args.workload}-{os.getpid()}")
    reps = []
    try:
        if args.mode == "timed":
            deadline = time.perf_counter() + args.seconds
            calibrate()  # first calls pay one-off allocation costs
            cal_before = host_speed()
            while True:
                tracer = Tracer()
                tracer.wrap(cfsim.harness, "run_drop", "harness.run_drop")
                try:
                    wall = bench.rep(tracer, out_dir)
                finally:
                    tracer.restore()
                if wall is None:
                    break
                cal_after = host_speed()
                drop_s = [t1 - t0 for name, t0, t1, _ in tracer.spans if name == "harness.run_drop"]
                reps.append({"wall_s": wall, "drop_s": drop_s, "cal_s": (cal_before + cal_after) / 2})
                cal_before = cal_after
                if time.perf_counter() + wall > deadline:
                    break
        else:
            tracer, rss = Tracer(), {}
            install_traced(tracer, cfsim, config.mc.ub_samples, rss)
            try:
                wall = bench.rep(tracer, out_dir)
            finally:
                tracer.restore()
            if wall is not None:
                reps.append({"wall_s": wall})
                out["per_layer"] = traced_metrics(tracer, bench, wall, rss)
                out["absent"] = tracer.absent
                out["slsqp_status"] = {
                    k: v for k, v in tracer.counts.items() if k.startswith("slsqp.status")
                }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    out.update(
        reps=reps,
        n_drops=n_drops,
        attempted=bench.attempted,
        failed=bench.failed,
        problems=bench.problems[:20],
        min_se=bench.min_se,
        peak_rss_mb=rss_mb(),
        host=host_versions(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
