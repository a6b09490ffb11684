import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import cfsim.harness
from cfsim.association import build_association
from cfsim.channel import build_large_scale
from cfsim.config import PRESETS, config_from_dict, config_to_dict, preset_desk, preset_paper
from cfsim.errors import CfsimError
from cfsim.estimation import assign_pilots, build_estimation
from cfsim.geometry import generate_topology
from cfsim.harness import (
    RATES_HEADER,
    ROLE_NAMES,
    CampaignResult,
    _write_pair_csv,
    drop_seed_sequence,
    emit_cdf,
    mirror_threshold,
    run_campaign,
    run_drop,
    write_rates_csv,
)
from cfsim.power import ppa_dl
from cfsim.se import build_se_tables, dl_sinr_lb, se_from_sinr

from per_pair import covariances


def tiny_cfg(**kw):
    cfg = preset_desk()
    cfg = replace(cfg, n_ap=5, n_gue=3, n_uav=1,
                  mc=replace(cfg.mc, ub_samples=1500, batch_count=5))
    return replace(cfg, **kw) if kw else cfg


def test_run_drop_deterministic(tmp_path):
    cfg = tiny_cfg()
    r1 = run_drop(cfg, 0, 5)
    r2 = run_drop(cfg, 0, 5)
    np.testing.assert_array_equal(r1.se_lb_dl, r2.se_lb_dl)
    np.testing.assert_array_equal(r1.se_ub_dl, r2.se_ub_dl)
    np.testing.assert_array_equal(r1.se_ub_ul_stderr, r2.se_ub_ul_stderr)


def test_identical_seed_identical_csv_bytes(tmp_path):
    cfg = tiny_cfg()
    res1 = run_campaign(cfg, n_drops=2, master_seed=3)
    res2 = run_campaign(cfg, n_drops=2, master_seed=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rates_csv(res1, p1)
    write_rates_csv(res2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_jobs_invariance(tmp_path):
    cfg = tiny_cfg()
    res1 = run_campaign(cfg, n_drops=3, master_seed=4, jobs=1)
    res8 = run_campaign(cfg, n_drops=3, master_seed=4, jobs=8)
    p1, p8 = tmp_path / "j1.csv", tmp_path / "j8.csv"
    write_rates_csv(res1, p1)
    write_rates_csv(res8, p8)
    assert p1.read_bytes() == p8.read_bytes()


def test_mmimo_lb_bytes_do_not_depend_on_blas_threads(tmp_path):
    # (config, seed) fixes every output byte whatever OpenBLAS's thread count: an
    # mmimo LB drop (4 BSs x 100 antennas) writes the same rates.csv with one BLAS
    # thread and with two, each run in a process of its own
    src = pathlib.Path(cfsim.harness.__file__).parents[1]
    config = tmp_path / "lb.yaml"
    config.write_text("mc:\n  ub_samples: 0\n")
    rates = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "cfsim", "run", "--preset", "mmimo", "--config", str(config),
             "--drops", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        rates.append((out / "rates.csv").read_bytes())
    assert rates[0] == rates[1]


def test_jobs_capped_at_drop_count(monkeypatch):
    # the pool forks all max_workers processes at the first submit, so --jobs
    # beyond the drop count would start idle workers; a serial fake records it
    import cfsim.harness as harness

    started = []

    class SerialPool:
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    cfg = tiny_cfg(mc=replace(preset_desk().mc, ub_samples=0))
    assert len(run_campaign(cfg, n_drops=2, master_seed=4, jobs=500).reports) == 2
    assert len(run_campaign(cfg, n_drops=1, master_seed=4, jobs=500).reports) == 1
    assert started == [2]  # a single drop runs serially, without a pool


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_campaign_rejects_jobs_below_one(jobs):
    # jobs 0 and -2 once ran the whole campaign serially
    with pytest.raises(CfsimError, match="jobs must be >= 1"):
        run_campaign(tiny_cfg(), n_drops=2, master_seed=4, jobs=jobs)


def test_debug_estimation_csv_matches_per_pair_references(tmp_path):
    # the estimation state keeps only the traces of G and B, in closed form; the
    # debug CSV must hold the bytes written from the state, and those traces must
    # be the per-pair reference matrices' to rounding
    cfg = preset_paper()
    cfg = replace(cfg, mc=replace(cfg.mc, ub_samples=0))
    run_drop(cfg, 0, 3, debug_dir=tmp_path)
    rng = np.random.default_rng(drop_seed_sequence(3, 0).spawn(2)[0])
    geom = generate_topology(cfg, rng)
    ls = build_large_scale(cfg, geom, rng)
    book = assign_pilots(cfg.n_users, cfg.frame.tau_p, rng)
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
    G, B = covariances(ls, book, est.eta_train, est.sigma_w2)
    for name, M in (("tr_G", G), ("tr_B", B)):
        np.testing.assert_allclose(getattr(est, name), np.trace(M, axis1=2, axis2=3).real,
                                   rtol=1e-12, atol=1e-300, err_msg=name)
    _write_pair_csv(tmp_path / "reference.csv", "gamma,tr_G,tr_B", est.gamma, est.tr_G,
                    est.tr_B)
    assert ((tmp_path / "drop_0_estimation.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


def test_debug_maxmin_traces_hold_the_solver_steps(tmp_path):
    # the DL trace gains each stage's FISTA steps (0 on the PPA row); both traces
    # carry the solver's converged flag on every row: False on a run capped at 2
    # stages, True at the defaults
    for maxmin, converged in (({"max_outer_iters": 2}, "False"), ({}, "True")):
        out = tmp_path / converged
        cfg = config_from_dict({"power": {"dl": "maxmin", "ul": "maxmin", "maxmin": maxmin},
                                "mc": {"ub_samples": 0}}, base=preset_desk())
        info = run_drop(cfg, 0, 1, debug_dir=out).power_info
        assert str(info["dl"]["converged"]) == converged and info["ul"]["converged"]
        dl = (out / "drop_0_maxmin_dl_trace.csv").read_text().splitlines()
        assert dl[0] == "outer_iter,min_rate,steps,converged"
        rows = [line.split(",") for line in dl[1:]]
        assert [int(r[2]) for r in rows] == [0] + info["dl"]["steps"]
        assert [float(r[1]) for r in rows] == info["dl"]["min_rate_trace"]
        assert [r[3] for r in rows] == [converged] * len(rows)
        ul = (out / "drop_0_maxmin_ul_trace.csv").read_text().splitlines()
        assert ul[0] == "outer_iter,min_rate,converged"
        assert [line.count(",") for line in ul[1:]] == [2] * len(info["ul"]["min_rate_trace"])
        assert {line.rsplit(",", 1)[1] for line in ul[1:]} == {"True"}


@pytest.mark.parametrize("cpus, jobs, workers", [
    (2, 1, 2), (2, 2, 1), (2, 3, 1), (1, 1, 1), (8, 2, 2), (8, 4, 2), (8, 5, 1), (8, 8, 1),
])
def test_sampler_workers_share_the_cpus(monkeypatch, cpus, jobs, workers):
    import cfsim.mc as mc

    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert mc.sampler_workers(jobs) == workers


def test_campaign_pool_sets_sampler_workers(monkeypatch):
    # a campaign of 2 processes on 2 CPUs gives each a thread budget of 1; a
    # serial fake pool runs its initializer here, as a worker process would
    import cfsim.harness as harness
    import cfsim.mc as mc

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(mc, "BUDGET", 2)
    cfg = tiny_cfg(mc=replace(preset_desk().mc, ub_samples=0))
    run_campaign(cfg, n_drops=2, master_seed=4, jobs=1)
    assert mc.BUDGET == 2  # a serial campaign keeps the default
    run_campaign(cfg, n_drops=2, master_seed=4, jobs=2)
    assert mc.BUDGET == 1


# names perfbench/worker.py still wraps that the UB folding into se_ub_mc removed
PERFBENCH_STALE = {"se_ub_dl_mc", "se_ub_ul_mc"}


def _perfbench_harness_wraps():
    """The cfsim.harness names in perfbench/worker.py's WRAPS, read without importing it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]:
            return {attr for module, attr, _ in ast.literal_eval(node.value) if module == "harness"}
    raise AssertionError("perfbench/worker.py defines no WRAPS")


def test_perfbench_wraps_reach_harness_through_module_globals(monkeypatch):
    # perfbench times each stage by patching these names: a name that is gone, or
    # that run_drop no longer calls through the module global, zeroes its metric
    names = _perfbench_harness_wraps()
    assert not {n for n in names if not hasattr(cfsim.harness, n)} - PERFBENCH_STALE
    names -= PERFBENCH_STALE
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cfsim.harness, name, counted(name, getattr(cfsim.harness, name)))
    desk = preset_desk()
    for dl, ul, ub_samples in [("ppa", "fpc", 40), ("wfpa", "fpc", 0), ("uniform", "fpc", 0),
                               ("maxmin", "maxmin", 0)]:
        cfg = replace(desk, power=replace(desk.power, dl=dl, ul=ul),
                      mc=replace(desk.mc, ub_samples=ub_samples))
        run_campaign(cfg, n_drops=1, jobs=1)
    assert set(counts) == names


def _fmt(x):
    return repr(float(x))


def _per_value_rates_csv(result):
    """rates.csv as written one value at a time: the reference for the bulk writer."""
    lines = [RATES_HEADER]
    for rep in result.reports:
        W = rep.bandwidth_hz
        for k in range(len(rep.roles)):
            vals = [
                rep.se_lb_dl[k], rep.se_ub_dl[k], rep.se_lb_ul[k], rep.se_ub_ul[k],
                rep.se_lb_dl[k] * W, rep.se_ub_dl[k] * W,
                rep.se_lb_ul[k] * W, rep.se_ub_ul[k] * W,
                rep.se_ub_dl_stderr[k], rep.se_ub_ul_stderr[k],
            ]
            lines.append(
                f"{rep.drop_id},{k},{ROLE_NAMES[int(rep.roles[k])]},"
                + ",".join(_fmt(v) for v in vals)
            )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("ub_samples", [0, 100])
def test_output_fields_are_repr_of_their_values(tmp_path, ub_samples):
    cfg = tiny_cfg(mc=replace(tiny_cfg().mc, ub_samples=ub_samples))
    res = run_campaign(cfg, n_drops=2, master_seed=9)
    emit_cdf(res, tmp_path)
    text = (tmp_path / "rates.csv").read_text()
    assert text == _per_value_rates_csv(res)
    assert ("nan" in text) == (ub_samples == 0)  # the UB columns are NaN without samples
    n_cdf = 0
    for path in tmp_path.glob("cdf_*.csv"):
        role, link, bound = path.stem.split("_")[1:]
        x, f = res.cdf_table(role, link, bound)
        lines = ["rate_bps,cdf"] + [f"{_fmt(xi)},{_fmt(fi)}" for xi, fi in zip(x, f)]
        assert path.read_text() == "\n".join(lines) + "\n"
        n_cdf += 1
    assert n_cdf == (8 if ub_samples else 4)


@pytest.mark.parametrize("name", sorted(PRESETS) + ["kappa-maxmin"])
def test_manifest_same_with_either_yaml_emitter(tmp_path, monkeypatch, name):
    # (config, seed) fixes every byte only if PyYAML without libyaml writes the
    # manifest libyaml writes
    import yaml

    if not hasattr(yaml, "CSafeDumper"):
        pytest.skip("PyYAML is built without libyaml")
    if name == "kappa-maxmin":
        cfg = preset_desk()
        cfg = replace(cfg, power=replace(cfg.power, dl="maxmin", ul="maxmin", kappa=0.3))
    else:
        cfg = PRESETS[name]()
    res = CampaignResult(reports=[], config=cfg, master_seed=3)
    emit_cdf(res, tmp_path / "c")
    monkeypatch.delattr(yaml, "CSafeDumper")
    emit_cdf(res, tmp_path / "py")
    manifest = (tmp_path / "c" / "manifest.yaml").read_bytes()
    assert manifest == (tmp_path / "py" / "manifest.yaml").read_bytes()
    assert yaml.safe_load(manifest)["config"] == config_to_dict(cfg)


def test_no_uav_report_has_only_gue_rows(tmp_path):
    cfg = tiny_cfg(n_uav=0)
    res = run_campaign(cfg, n_drops=1, master_seed=1)
    emit_cdf(res, tmp_path)
    lines = (tmp_path / "rates.csv").read_text().strip().splitlines()[1:]
    assert all(line.split(",")[2] == "gue" for line in lines)
    assert not (tmp_path / "cdf_uav_dl_lb.csv").exists()


def test_pipeline_equals_module_composition():
    # run_drop must reproduce a by-hand composition of the module calls
    cfg = tiny_cfg(mc=replace(tiny_cfg().mc, ub_samples=0))
    master = 11
    rep = run_drop(cfg, 2, master)

    ss = drop_seed_sequence(master, 2)
    rng_state, _ = [np.random.default_rng(s) for s in ss.spawn(2)]
    geom = generate_topology(cfg, rng_state)
    ls = build_large_scale(cfg, geom, rng_state)
    book = assign_pilots(cfg.n_users, cfg.frame.tau_p, rng_state)
    serving = build_association(cfg, ls.beta)
    est = build_estimation(ls, book, cfg.train_energy_w, cfg.noise_w)
    tables = build_se_tables(ls, est, book, serving)
    eta_dl = ppa_dl(tables.gamma, tables.serving, 0.2)
    prelog = cfg.frame.prelog
    se = se_from_sinr(dl_sinr_lb(tables, eta_dl, cfg.noise_w), prelog)
    np.testing.assert_array_equal(rep.se_lb_dl, se)


def test_campaign_cdf_counts_and_monotonicity(tmp_path):
    cfg = tiny_cfg()
    res = run_campaign(cfg, n_drops=3, master_seed=8)
    x, f = res.cdf_table("gue", "dl", "lb")
    assert x.size == 3 * cfg.n_gue  # drops x users-per-role
    assert (np.diff(x) >= 0).all()
    assert (np.diff(f) >= 0).all()
    assert 0 < f[0] <= 1 and f[-1] == pytest.approx(1.0)


def test_percentiles_match_raw_csv_recompute(tmp_path):
    cfg = tiny_cfg()
    res = run_campaign(cfg, n_drops=2, master_seed=6)
    emit_cdf(res, tmp_path)
    rows = (tmp_path / "rates.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    i_role, i_rate = header.index("role"), header.index("rate_lb_ul")
    vals = np.array(
        [float(r.split(",")[i_rate]) for r in rows[1:] if r.split(",")[i_role] == "gue"]
    )
    expected = {p: float(np.percentile(vals, p)) for p in (1, 5, 50, 95)}
    assert res.percentiles("gue", "ul", "lb") == pytest.approx(expected)


def test_campaign_aggregation_permutation_invariant():
    cfg = tiny_cfg(mc=replace(tiny_cfg().mc, ub_samples=0))
    res = run_campaign(cfg, n_drops=3, master_seed=2)
    shuffled = replace(res) if False else res
    reports = list(res.reports)
    reports.reverse()
    from cfsim.harness import CampaignResult

    res2 = CampaignResult(reports=reports, config=cfg, master_seed=2)
    np.testing.assert_array_equal(
        res.cdf_table("gue", "dl", "lb")[0], res2.cdf_table("gue", "dl", "lb")[0]
    )


def test_manifest_contents(tmp_path):
    import yaml

    cfg = tiny_cfg(mc=replace(tiny_cfg().mc, ub_samples=0))
    res = run_campaign(cfg, n_drops=1, master_seed=5)
    emit_cdf(res, tmp_path)
    manifest = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    assert manifest["master_seed"] == 5
    assert manifest["n_drops"] == 1
    assert manifest["config"]["n_ap"] == cfg.n_ap
    assert "rates.csv" in manifest["outputs"]


def test_drop_error_reports_seed():
    from cfsim.errors import ConfigError

    cfg = tiny_cfg()
    bad = replace(cfg, frame=replace(cfg.frame, tau_p=500))
    with pytest.raises(ConfigError):
        run_drop(bad, 0, 1)


def test_non_finite_output_raises_numerics_error(monkeypatch, tmp_path, capsys):
    import cfsim.harness as harness
    from cfsim.cli import main
    from cfsim.errors import NumericsError

    def nan_sinr(tables, eta, sigma2):
        sinr = dl_sinr_lb(tables, eta, sigma2)
        sinr[-1] = np.nan
        return sinr

    monkeypatch.setattr(harness, "dl_sinr_lb", nan_sinr)
    with pytest.raises(NumericsError, match=r"drop 2 \(seed 7\): se_lb_dl is not finite"):
        run_drop(tiny_cfg(), 2, 7)
    cfg_path, out = tmp_path / "cfg.yaml", tmp_path / "out"
    cfg_path.write_text("n_ap: 5\nn_gue: 3\nn_uav: 1\nmc:\n  ub_samples: 0\n")
    args = ["run", "--config", str(cfg_path), "--drops", "1", "--seed", "7", "--out", str(out)]
    assert main(args) == 3
    assert "se_lb_dl is not finite" in capsys.readouterr().err
    assert not (out / "rates.csv").exists()


def test_mirror_z_flags_a_broken_closed_form(monkeypatch):
    # the UB pass mirrors each drop's closed-form LB without the SE tables: one
    # user's row of C scaled by 1.1 (its DL denominator, and by duality the UL
    # interference it sees from the others: its row scale or LOS row, its own term
    # and its pair corrections) moves the LB off the mirror. At the
    # default 10,000 samples in 20 batches every broken drop reads max |z| > 6
    # and no unbroken one does
    cfg = preset_desk()
    unbroken = [run_drop(cfg, d).mirror_z for d in range(3)]

    def broken_tables(*args):
        tables = build_se_tables(*args)
        for rows in (tables.scale[0], tables.own[0]):
            rows *= 1.1
        tables.los_rows[tables.los == 0] *= 1.1
        tables.pair_var[tables.pair_k == 0] *= 1.1
        return tables

    monkeypatch.setattr(cfsim.harness, "build_se_tables", broken_tables)
    broken = [run_drop(cfg, d).mirror_z for d in range(3)]
    assert max(unbroken) <= 6.0 < min(broken), (unbroken, broken)


@pytest.mark.parametrize("batch_count", [2, 4, 20])
def test_mirror_threshold_is_the_family_wise_t_quantile(batch_count):
    # P(|T| > threshold) = 1e-3 / 2K with batch_count - 1 degrees of freedom
    cfg = preset_paper()
    cfg = replace(cfg, mc=replace(cfg.mc, batch_count=batch_count))
    want = stats.t.ppf(1.0 - 1e-3 / (4 * cfg.n_users), batch_count - 1)
    assert mirror_threshold(cfg) == pytest.approx(want, rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_mirror_z_of_a_zero_stderr(monkeypatch):
    # kappa 0 leaves the UAVs no DL power: their DL LB and mirror SE are both
    # exactly 0, with a 0 stderr, which counts z = 0 and warns of nothing; a
    # closed form off the mirror there counts z = inf
    cfg = preset_desk()
    cfg = replace(cfg, power=replace(cfg.power, kappa=0.0), mc=replace(cfg.mc, ub_samples=400))
    rep = run_drop(cfg, 0)
    uav = rep.roles == 1
    assert uav[-1] and (rep.se_lb_dl[uav] == 0).all() and (rep.se_ub_dl[uav] == 0).all()
    assert np.isfinite(rep.mirror_z)

    def off_mirror(tables, eta, sigma2):
        sinr = dl_sinr_lb(tables, eta, sigma2)
        sinr[-1] += 1e-3
        return sinr

    monkeypatch.setattr(cfsim.harness, "dl_sinr_lb", off_mirror)
    assert run_drop(cfg, 0).mirror_z == np.inf
    assert np.isnan(run_drop(replace(cfg, mc=replace(cfg.mc, ub_samples=0)), 0).mirror_z)
