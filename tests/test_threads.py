"""The process's thread budget: estimation and the SE tables over AP halves, and
the sampler's workers, give every output byte of the one-thread run."""

import pathlib
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import cfsim.harness
from cfsim import threads
from cfsim.channel import build_large_scale
from cfsim.cli import main
from cfsim.config import config_from_dict, load_config, preset_desk, preset_mmimo, preset_paper
from cfsim.errors import NumericsError
from cfsim.estimation import build_estimation
from cfsim.geometry import generate_topology
from cfsim.harness import drop_seed_sequence, run_drop

from per_pair import covariances

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"
OUTPUTS = ("se_lb_dl", "se_lb_ul", "se_ub_dl", "se_ub_ul", "se_ub_dl_stderr", "se_ub_ul_stderr")


def _ub(cfg, samples=200):
    return replace(cfg, mc=replace(cfg.mc, ub_samples=samples, batch_count=2))


def _uc(cfg, size):
    return replace(cfg, association=replace(cfg.association, mode="uc", uc_cluster_size=size))


def low_uav_desk():
    """Desk with UAVs at 15-25 m whose LOS probability exp(-d / 0.2 m) underflows
    to 0 beyond about 150 m: a UAV has a LOS term at some APs only."""
    los_prob = {"d1_log_coef": 0.0, "d1_offset": 0.0, "d1_floor_m": 0.0,
                "p1_log_coef": 0.0, "p1_offset": 0.2}
    return _ub(config_from_dict({"uav_height_range_m": [15.0, 25.0],
                                 "channel": {"uav": {"los_prob": los_prob}}}, base=preset_desk()))


CONFIGS = {
    "paper-lb": lambda: _ub(preset_paper(), 0),
    "desk-ub": lambda: _ub(preset_desk()),
    "desk-maxmin": lambda: load_config(CONFIG_DIR / "maxmin.yaml", base=preset_desk()),
    "mmimo": lambda: _ub(preset_mmimo(), 0),
    "desk-uc-5": lambda: _uc(_ub(preset_desk()), 5),
    "desk-low-uav": low_uav_desk,
}


def _large_scale(cfg, drop):
    rng = np.random.default_rng(drop_seed_sequence(cfg.seed, drop).spawn(2)[0])
    return build_large_scale(cfg, generate_topology(cfg, rng), rng)


def _run(monkeypatch, budget, *args, **kwargs):
    monkeypatch.setattr(threads, "BUDGET", budget)
    return run_drop(*args, **kwargs)


@pytest.fixture
def split_all(monkeypatch):
    """Every drop's per-AP stages split at budget 2, however small the drop."""
    monkeypatch.setattr(threads, "SPLIT_MIN_ENTRIES", 0)


def test_only_large_drops_split(monkeypatch):
    monkeypatch.setattr(threads, "BUDGET", 2)
    assert threads.ap_slices(25, 25 * 15 * 4**2) == [slice(0, 25)]  # desk
    assert threads.ap_slices(100, 100 * 60 * 4**2) == [slice(0, 50), slice(50, 100)]  # paper
    monkeypatch.setattr(threads, "BUDGET", 1)
    assert threads.ap_slices(100, 100 * 60 * 4**2) == [slice(0, 100)]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_do_not_depend_on_thread_budget(monkeypatch, split_all, name):
    cfg = CONFIGS[name]()
    one, two = (_run(monkeypatch, budget, cfg, 0) for budget in (1, 2))
    for field in OUTPUTS:
        assert getattr(two, field).tobytes() == getattr(one, field).tobytes(), field
    assert repr(two.power_info) == repr(one.power_info)


def test_low_uav_halves_see_different_los_users(monkeypatch, split_all):
    # the halves must take the LOS users of the whole drop, not of their own APs
    monkeypatch.setattr(threads, "BUDGET", 2)
    cfg = low_uav_desk()
    los = _large_scale(cfg, 0).rice_k > 0
    first, second = (los[:, aps].any(axis=1) for aps in threads.ap_slices(cfg.n_ap, 0))
    assert (first != second).any()
    assert (los.any(axis=1) & ~los.all(axis=1)).any()


def test_estimation_at_budget_2_under_frequent_thread_switches(monkeypatch, split_all,
                                                              gate_fixture):
    # the halves write disjoint AP slices of shared outputs; switches as often as
    # the interpreter allows must leave every byte of the one-thread state
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    monkeypatch.setattr(threads, "BUDGET", 1)
    serial = build_estimation(ls, book, est.eta_train, est.sigma_w2)
    monkeypatch.setattr(threads, "BUDGET", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        states = [build_estimation(ls, book, est.eta_train, est.sigma_w2) for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    for state in states:
        for field in ("D", "gamma", "tr_G", "tr_B"):
            assert getattr(state, field).tobytes() == getattr(serial, field).tobytes(), field


def test_over_aps_raises_the_workers_exception():
    class SecondHalf(Exception):
        pass

    def work(aps):
        if aps.start > 0:
            raise SecondHalf
        return aps

    entry = threading.active_count()
    with pytest.raises(SecondHalf):
        threads.over_aps(threads.ap_slices(4, threads.SPLIT_MIN_ENTRIES), work)
    assert threading.active_count() == entry  # no worker outlives the call


def _nan_steering_at(aps):
    """build_large_scale whose steering is NaN on the APs aps of the LOS users."""
    def build(*args):
        ls = build_large_scale(*args)
        steering = ls.steering.copy()
        steering[(ls.rice_k > 0).any(axis=1), aps] = np.nan
        return replace(ls, steering=steering)
    return build


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_worker_half_failure_gives_the_serial_message_and_exit_3(monkeypatch, split_all,
                                                                   tmp_path, capsys):
    # NaN steering reaches B on the worker's APs only; the drop fails as it does
    # on one thread: the same message, exit 3 from `cfsim run`
    monkeypatch.setattr(threads, "BUDGET", 2)
    worker_aps = threads.ap_slices(preset_desk().n_ap, 0)[1]
    monkeypatch.setattr(cfsim.harness, "build_large_scale", _nan_steering_at(worker_aps))
    errors = []
    for budget in (1, 2):
        monkeypatch.setattr(threads, "BUDGET", budget)
        code = main(["run", "--preset", "desk", "--drops", "1", "--out", str(tmp_path / "out")])
        assert code == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "training covariance is not finite" in errors[1]


@pytest.mark.parametrize("worst", [1, 0])
def test_condition_raise_reads_the_whole_drop(monkeypatch, split_all, gate_fixture, worst):
    # the limit sits just below the worst cond(B) of the half given by `worst`:
    # the raise and its cond.max() message are those of one thread
    ls, book, est = gate_fixture["ls"], gate_fixture["book"], gate_fixture["est"]
    monkeypatch.setattr(threads, "BUDGET", 2)
    aps = threads.ap_slices(est.n_ap, 0)[worst]
    N = est.n_ap_antennas
    _, B = covariances(ls, book, est.eta_train, est.sigma_w2)
    limit = np.linalg.cond(B[:, aps].reshape(-1, N, N)).max() * (1 - 1e-6)
    monkeypatch.setattr("cfsim.estimation.CONDITION_LIMIT", limit)
    messages = []
    for budget in (1, 2):
        monkeypatch.setattr(threads, "BUDGET", budget)
        with pytest.raises(NumericsError, match="ill-conditioned") as exc:
            build_estimation(ls, book, est.eta_train, est.sigma_w2)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


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

