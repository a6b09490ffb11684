"""The process's thread budget: the sampler's workers give every output byte of
the one-thread run."""

import importlib.util
import os
import pathlib
import threading
from dataclasses import replace

import numpy as np
import pytest

import cfsim.harness
from cfsim import mc
from cfsim.cli import main
from cfsim.config import load_config, preset_desk, preset_mmimo, preset_paper
from cfsim.estimation import build_estimation
from cfsim.harness import run_drop

from conftest import drop_state, low_uav_desk

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"
OUTPUTS = ("se_lb_dl", "se_lb_ul", "se_ub_dl", "se_ub_ul", "se_ub_dl_stderr", "se_ub_ul_stderr")


def _ub(cfg, samples=200):
    return replace(cfg, mc=replace(cfg.mc, ub_samples=samples, batch_count=2))


def _uc(cfg, size):
    return replace(cfg, association=replace(cfg.association, mode="uc", uc_cluster_size=size))


CONFIGS = {
    "paper-lb": lambda: _ub(preset_paper(), 0),
    "desk-ub": lambda: _ub(preset_desk()),
    "desk-maxmin": lambda: load_config(CONFIG_DIR / "maxmin.yaml", base=preset_desk()),
    "mmimo": lambda: _ub(preset_mmimo(), 0),
    "desk-uc-5": lambda: _uc(_ub(preset_desk()), 5),
    "desk-low-uav": low_uav_desk,
}


def _run(monkeypatch, budget, *args, **kwargs):
    monkeypatch.setattr(mc, "BUDGET", budget)
    return run_drop(*args, **kwargs)


@pytest.mark.parametrize("cpus, budget", [(1, 1), (2, 2), (8, 2)])
def test_budget_starts_at_the_one_job_rule(monkeypatch, cpus, budget):
    # a serial run keeps min(2, CPUs) threads busy, so one thread on one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    spec = importlib.util.find_spec("cfsim.mc")
    fresh = importlib.util.module_from_spec(spec)  # an import of its own, beside cfsim.mc
    spec.loader.exec_module(fresh)
    assert fresh.BUDGET == budget


@pytest.mark.parametrize("name", ["paper", "desk", "mmimo", "desk-low-uav", "collided_uc"])
def test_scalar_users_are_those_whose_d_is_d_times_identity(collided_uc, name):
    # estimation keeps D whole on the users whose pilot carries a LOS user at some
    # AP (dense_users); every other user's D is the real d I, which the sampler
    # applies as a multiply. A dense row is exactly d I at the APs where its pilot
    # has no LOS term, and not diagonal where one has a Ricean factor above 1e-3.
    # No subnormal K reaches estimation: rice_factor makes the one a low-UAV desk
    # UAV's LOS probability underflows to (4e-318 at one AP) a 0, so its pilot's
    # users are no dense rows for it (the exact oracle test sets that K by hand)
    if name == "collided_uc":
        cfg, ls, book = collided_uc["cfg"], collided_uc["ls"], collided_uc["book"]
    else:
        cfg = {"paper": preset_paper, "desk": preset_desk, "mmimo": preset_mmimo,
               "desk-low-uav": low_uav_desk}[name]()
        ls, book = drop_state(cfg, 0)
    same = book.assignment[:, None] == book.assignment[None, :]
    los_term = same @ (ls.rice_k > 0)  # (K, A): the pilot has a LOS term at the AP
    normal = same @ (ls.rice_k >= np.finfo(float).tiny)
    assert not (los_term & ~normal).any()
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
    rows = est.dense_users
    assert rows.tolist() == np.flatnonzero(los_term.any(axis=1)).tolist()
    d_eye = est.d[rows, :, None, None] * np.eye(est.D_dense.shape[2])
    diagonal = (est.D_dense == d_eye).all(axis=(2, 3))
    assert diagonal[~los_term[rows]].all()
    assert not diagonal[(same @ (ls.rice_k > 1e-3))[rows]].any()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_do_not_depend_on_thread_budget(monkeypatch, name):
    cfg = CONFIGS[name]()
    one, two = (_run(monkeypatch, budget, cfg, 0) for budget in (1, 2))
    for field in OUTPUTS:
        assert getattr(two, field).tobytes() == getattr(one, field).tobytes(), field
    assert repr(two.power_info) == repr(one.power_info)


def _nan_in_one_block(cross):
    """mc._cross, but with NaN DL cross terms for the first 45-sample block: on
    desk at 200 UB samples in 2 batches a batch is blocks of 55 and 45 samples,
    so that is the first batch's second block at either budget."""
    hit = []

    def faulty(g, *args):
        ul, norms, dl = cross(g, *args)
        if len(g) == 45 and not hit:
            hit.append(True)
            dl[0, 0, 0] = np.nan
        return ul, norms, dl

    return faulty


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_cross_terms_give_one_message_and_exit_3_at_either_budget(monkeypatch, tmp_path,
                                                                       capsys):
    # NaN in one block's cross terms, made on a worker thread: the drop fails at
    # budget 2 as it does at budget 1, with the same message and exit 3 from
    # `cfsim run`, and no worker outlives the run
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("mc:\n  ub_samples: 200\n  batch_count: 2\n")
    entry, cross, errors = threading.active_count(), mc._cross, []
    for budget in (1, 2):
        monkeypatch.setattr(mc, "BUDGET", budget)
        monkeypatch.setattr(mc, "_cross", _nan_in_one_block(cross))
        code = main(["run", "--preset", "desk", "--config", str(cfg_path), "--drops", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert threading.active_count() == entry
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "drop 0 (seed 1): se_ub_dl is not finite" in errors[1]


def test_serial_campaign_calls_run_drop_through_the_module_global(monkeypatch):
    # perfbench times each drop by wrapping harness.run_drop: a serial campaign
    # must reach every drop through that name, once per drop
    calls = []
    run = cfsim.harness.run_drop

    def counted(config, drop_index, *args, **kwargs):
        calls.append(drop_index)
        return run(config, drop_index, *args, **kwargs)

    monkeypatch.setattr(cfsim.harness, "run_drop", counted)
    cfg = preset_desk()
    cfg = replace(cfg, n_ap=5, n_gue=3, n_uav=1, mc=replace(cfg.mc, ub_samples=0))
    result = cfsim.harness.run_campaign(cfg, n_drops=3, master_seed=2, jobs=1)
    assert calls == [0, 1, 2]
    assert [r.drop_id for r in result.reports] == [0, 1, 2]

