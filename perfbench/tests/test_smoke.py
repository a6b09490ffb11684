"""Smoke test of the benchmark at toy size (desk shape, 2 drops, 64 UB samples).

    python3 -m pytest perfbench/tests -q

Runs every workload's code path with tracing off and on, against toy
reference outputs made on the fly, and checks that every metric named in
BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "1", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def toy_reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "make_reference.py"), "--toy", "--out", str(out)],
        cwd=ROOT, check=True, capture_output=True, timeout=150,
    )
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_emits_every_metric(workload, trace, toy_reference):
    proc = run_bench(
        "--workload", workload, "--trace", str(trace), "--toy", "--reference-dir", str(toy_reference)
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["trace.absent"]["value"] == 0


def test_gate_fails_drops_that_differ_from_reference(toy_reference, tmp_path):
    with open(toy_reference / "paper-lb.json") as fh:
        ref = json.load(fh)
    ref["drops"][1]["se_lb_dl"][0] *= 1.001
    with open(tmp_path / "paper-lb.json", "w") as fh:
        json.dump(ref, fh)
    proc = run_bench("--workload", "paper-lb", "--trace", "0", "--toy", "--reference-dir", str(tmp_path))
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]


def test_fails_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "paper-lb", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_records_absent_names_and_self_time():
    mod = types.ModuleType("fake")
    mod.outer = lambda: mod.inner()
    mod.inner = lambda: None
    tracer = Tracer()
    tracer.wrap(mod, "outer", "a.outer")
    tracer.wrap(mod, "inner", "b.inner")
    tracer.wrap(mod, "renamed_away", "c.gone")
    mod.outer()
    tracer.restore()
    assert tracer.absent == ["fake.renamed_away"]
    inclusive, self_time = tracer.totals()
    assert inclusive["a.outer"] >= inclusive["b.inner"]
    assert self_time["a.outer"] == pytest.approx(inclusive["a.outer"] - inclusive["b.inner"])
    assert not hasattr(mod.outer, "__wrapped__")
