"""cfsim benchmark: run one workload, check its outputs, print every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it imports cfsim from ./src; there is
nothing to build). The workloads are defined in perfbench/workloads.py and
listed with their rationale in BENCHMARK.json.

--trace 0 measures the end-to-end metrics with tracing off: a few fresh
processes that only import cfsim and resolve the config give ``setup_s``;
then one fresh process repeats ``run_campaign(jobs=1)`` + ``emit_cdf`` for
``--seconds`` with only a per-drop timer installed. A fixed calibration
kernel (worker.calibrate) is timed between campaigns; ``wall_norm_s`` and
``drop_norm_s_p50`` are the campaign and drop wall times scaled by it to the
reference host's speed, because the shared host's speed drifts by tens of
percent over seconds to minutes. The unscaled times are in the result file.
--trace 1 alternates an untraced and a traced campaign, each in a fresh
process, for ``--seconds``, and reports the per-layer metrics (unscaled) of
the traced ones; their difference in wall time is the tracing overhead.

Every campaign runs master seed 1, the seed the stored reference outputs in
perfbench/reference/ were made with: the max-min solver's work and the
min-SE quality metrics depend on the drop, so they are only comparable run
to run on the same drops. ``--seed`` is recorded in the result file.

Every drop is checked against the reference (perfbench/worker.py,
``drop_problems``). A drop that raises or fails the check counts as failed;
any failure makes the exit code 1. Human-readable lines come first; the last
stdout line is the JSON result. A full record with the host description is
written to .bench_out/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from worker import CAL_REF_S, LAYERS
from workloads import THREAD_VARS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 4  # setup-only processes per run, besides the measuring one
TIME_LIMIT_S = 170.0  # every run ends well inside 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "drop_norm_s_p50": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "min_se_dl_p50": "bit/s/Hz",
    "min_se_ul_p50": "bit/s/Hz",
}

PER_LAYER = {
    "geometry.generate_topology.s": "s",
    "association.build_association.s": "s",
    "estimation.assign_pilots.s": "s",
    "channel.build_large_scale.s": "s",
    "estimation.build_estimation.s": "s",
    "se.build_se_tables.s": "s",
    "se.lb_eval.s": "s",
    "power.dl.s": "s",
    "power.ul.s": "s",
    "power.slsqp.s": "s",
    "power.slsqp.calls": "count",
    "power.slsqp.nit": "count",
    "power.slsqp.nonsuccess": "count",
    "power.slsqp.status8": "count",
    "power.slsqp.status9": "count",
    "power.outer_iters": "count",
    "power.not_converged": "count",
    "mc.ub_dl.s": "s",
    "mc.ub_ul.s": "s",
    "mc.ub.self_s": "s",
    "channel.draw_channels.s": "s",
    "channel.draw_channels.samples": "count",
    "mc.samples": "count",
    "mc.samples_per_s": "1/s",
    "mc.ub_rel_stderr_p50": "ratio",
    "mc.rss_growth_mb": "MB",
    "harness.run_drop.s": "s",
    "harness.emit_cdf.s": "s",
    "harness.rows_written": "count",
    "geometry.self_s": "s",
    "channel.self_s": "s",
    "association.self_s": "s",
    "estimation.self_s": "s",
    "se.self_s": "s",
    "power.self_s": "s",
    "mc.self_s": "s",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_frac": "ratio",
    "trace.absent": "count",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed drop)."""


class Runner:
    def __init__(self, workload, toy, reference_dir):
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.common = ["--workload", workload]
        if toy:
            self.common.append("--toy")
        if reference_dir:
            self.common += ["--reference-dir", os.path.abspath(reference_dir)]
        self.env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
        self.outputs = []

    def spawn(self, *args):
        """Run one fresh worker process to completion; return its JSON record."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached")
        t0 = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, *self.common, *args, "--t0", repr(t0)],
                capture_output=True, text=True, timeout=timeout, env=self.env, cwd=ROOT,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        if proc.stderr.strip():
            sys.stderr.write(proc.stderr)
        record = json.loads(lines[-1])
        self.outputs.append(record)
        return record


def timed_run(runner, seconds, probes):
    setups = [runner.spawn("--mode", "setup")["setup_s"] for _ in range(probes)]
    main = runner.spawn("--mode", "timed", "--seconds", str(seconds))
    setups.append(main["setup_s"])
    reps = main["reps"]
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": main["peak_rss_mb"]}
    raw = {}
    if reps:
        # The shared host changes speed by up to ~40% for seconds to minutes
        # at a time; scaling each campaign by the calibration timed next to it
        # gives seconds at the reference host speed, which stay comparable.
        scale = [CAL_REF_S / r["cal_s"] for r in reps]
        metrics["wall_norm_s"] = statistics.median(r["wall_s"] * k for r, k in zip(reps, scale))
        metrics["drop_norm_s_p50"] = statistics.median(
            t * k for r, k in zip(reps, scale) for t in r["drop_s"]
        )
        raw = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "drop_s_p50": statistics.median(t for r in reps for t in r["drop_s"]),
            "host_slowdown": statistics.median(r["cal_s"] for r in reps) / CAL_REF_S,
        }
    n_drops = sum(len(r["drop_s"]) for r in reps)
    notes = [
        f"setup_s: median of {len(setups)} fresh processes",
        f"wall_norm_s: median of {len(reps)} campaigns of {main['n_drops']} drops",
        f"drop_norm_s_p50: median of {n_drops} drops",
    ] + [f"unscaled {k} = {v:.6g}" for k, v in raw.items()]
    return metrics, notes, raw


def traced_run(runner, seconds):
    untraced, traced = [], []
    end = time.monotonic() + seconds
    while True:
        t = time.monotonic()
        untraced.append(runner.spawn("--mode", "timed", "--seconds", "0"))
        traced.append(runner.spawn("--mode", "traced"))
        now = time.monotonic()
        if now + (now - t) > end:
            break
    layers = [r["per_layer"] for r in traced if "per_layer" in r]
    metrics, notes = {}, [f"{len(layers)} traced and {len(untraced)} untraced campaigns"]
    if layers:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        walls = [r["reps"][0]["wall_s"] for r in untraced if r["reps"]]
        traced_walls = [r["reps"][0]["wall_s"] for r in traced if r["reps"]]
        if walls:
            metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        self_s = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
        total = sum(self_s.values())
        for layer in sorted(self_s, key=self_s.get, reverse=True):
            notes.append(f"self time {layer:<11} {self_s[layer]:10.4f} s  {self_s[layer] / total:6.1%}")
        notes.append(f"dominant layer: {max(self_s, key=self_s.get)}")
        absent = sorted({name for r in traced for name in r.get("absent", [])})
        if absent:
            notes.append("wrapped names absent: " + ", ".join(absent))
    return metrics, notes, {}


def host_record(worker_host):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    except (ValueError, OSError):
        ram_gb = None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        top, head = rev.stdout.split()
        git_rev = head if rev.returncode == 0 and os.path.samefile(top, ROOT) else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        git_rev = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "ram_gb": ram_gb, "git_revision": git_rev, **worker_host}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="smoke-test sizes (desk shape, 2 drops)")
    ap.add_argument("--reference-dir", help="reference outputs (default perfbench/reference)")
    args = ap.parse_args(argv)

    # Exit through SystemExit on SIGTERM so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "cfsim", "__init__.py")):
        print(f"error: no cfsim source tree under {ROOT}/src", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.toy, args.reference_dir)
    try:
        if args.trace:
            metrics, notes, raw = traced_run(runner, args.seconds)
            wanted = PER_LAYER
        else:
            metrics, notes, raw = timed_run(runner, args.seconds, 1 if args.toy else SETUP_PROBES)
            wanted = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outs = runner.outputs
    attempted = sum(o.get("attempted", 0) for o in outs)
    failed = sum(o.get("failed", 0) for o in outs)
    min_se = next((o["min_se"] for o in outs if o.get("min_se")), None)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
        if min_se:
            metrics["min_se_dl_p50"] = min_se["dl"]
            metrics["min_se_ul_p50"] = min_se["ul"]
    problems = [p for o in outs for p in o.get("problems", [])]
    correct = attempted > 0 and failed == 0 and not problems and set(metrics) >= set(wanted)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "host": host_record(outs[-1].get("host", {})),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "notes": notes,
        "metrics": {k: {"value": metrics[k], "unit": wanted[k]} for k in wanted if k in metrics},
        "unscaled": raw,
        "reps": [r for o in outs for r in o.get("reps", [])],
        "slsqp_status": [o["slsqp_status"] for o in outs if "slsqp_status" in o],
    }
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}, {attempted} drops attempted, {failed} failed")
    for note in notes:
        print(note)
    for p in problems[:20]:
        print("FAILED:", p)
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
