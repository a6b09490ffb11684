import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml

import cfsim
from cfsim.cli import main


def test_validate_ok(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("n_ap: 9\nn_gue: 4\nn_uav: 1\n")
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert "config OK" in capsys.readouterr().out


def test_validate_bad_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("frame:\n  tau_p: 500\n")
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "tau_p" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # once accepted here, the AP count then failed in drop 0's grid layout
    ("ap_placement: grid\nn_ap: 5\n", "n_ap: grid placement needs a square AP count"),
    # removed switches: every AP array is half-wavelength spaced, and LOS UAV
    # links always carry their shadowing
    ("antenna_spacing_m: 0.05\n", "antenna_spacing_m: unknown key"),
    ("channel:\n  uav:\n    shadow_in_los: false\n", "channel.uav.shadow_in_los: unknown key"),
    # a list or a mapping where a strategy or mode name belongs
    ("ap_placement: [uniform]\n", "ap_placement: expected a string, got list"),
    ("power:\n  dl: {x: 1}\n", "power.dl: expected a string, got dict"),
    ("power:\n  ul: [fpc]\n", "power.ul: expected a string, got list"),
    ("association:\n  mode: {cf: 1}\n", "association.mode: expected a string, got dict"),
    # a YAML bool where a number belongs: once read as 1.0, so every DL watt went
    # to the UAVs, or as a 1 m area
    ("power:\n  kappa: yes\n", "power.kappa: expected a number, got True"),
    ("area_side_m: true\n", "area_side_m: expected a number, got True"),
    ("uav_height_range_m: [22.5, false]\n", "uav_height_range_m: expected a number, got False"),
])
def test_validate_rejected_config_exit_2(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


def test_validate_rejects_state_beyond_physical_memory(tmp_path, capsys):
    # a drop's (K, A, N, N) estimators at a million antennas, if every user's pilot
    # carries a LOS user, need about 85 PiB; validate refuses the config before
    # anything of that size exists
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("n_ap_antennas: 1000000\n")
    tracemalloc.start()
    try:
        assert main(["validate", "--config", str(cfg_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert "physical memory" in capsys.readouterr().err


def test_validate_missing_file_exit_2(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) == 2


def _config_path(tmp_path, kind):
    """A config path that cfsim must refuse with exit 2, and what the message names."""
    if kind == "directory":
        return tmp_path, str(tmp_path)
    path = tmp_path / "cfg.yaml"
    if kind == "bad-bytes":
        path.write_bytes(b"n_ap: 9\nn_gue: \xff\n")
        return path, str(path)
    # one UB batch of 5e10 samples: its raw draws exceed any RAM, so it must not be allocated
    path.write_text("mc:\n  ub_samples: 1000000000000\n")
    return path, "mc.batch_count"


@pytest.mark.parametrize("kind", ["directory", "bad-bytes", "ub-batch-beyond-memory"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unusable_config_exit_2(tmp_path, capsys, kind, command):
    path, named = _config_path(tmp_path, kind)
    args = [command, "--config", str(path)]
    if command == "run":
        args += ["--preset", "desk", "--drops", "1", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["file", "under-a-file", "debug-file"])
def test_unusable_out_exit_2_before_any_drop(tmp_path, capsys, monkeypatch, kind):
    # each once ended in a traceback (FileExistsError, NotADirectoryError), exit 1,
    # after every drop had run
    import cfsim.harness

    def no_drop(*args, **kwargs):
        raise AssertionError("a drop ran")

    monkeypatch.setattr(cfsim.harness, "run_drop", no_drop)
    (tmp_path / "file").write_text("")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "debug").write_text("")
    out, named, args = {"file": ("file", "file", []),
                        "under-a-file": ("file/sub", "file/sub", []),
                        "debug-file": ("out", "out/debug", ["--dump-debug"])}[kind]
    code = main(["run", "--preset", "desk", "--drops", "1", "--out", str(tmp_path / out), *args])
    assert code == 2
    assert f"--out: cannot make directory {tmp_path / named}" in capsys.readouterr().err


def test_run_tiny_campaign(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    yaml.safe_dump(
        {
            "n_ap": 4,
            "n_gue": 3,
            "n_uav": 1,
            "drops": 2,
            "mc": {"ub_samples": 500, "batch_count": 5},
        },
        cfg_path.open("w"),
    )
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(cfg_path), "--seed", "3", "--out", str(out), "--jobs", "2"]
    )
    assert code == 0
    assert (out / "rates.csv").exists()
    assert (out / "manifest.yaml").exists()
    assert (out / "cdf_uav_ul_lb.csv").exists()
    header = (out / "rates.csv").read_text().splitlines()[0]
    assert header.startswith("drop_id,user_id,role,se_lb_dl,se_ub_dl,se_lb_ul,se_ub_ul")


def test_run_with_preset_override(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["run", "--preset", "desk", "--drops", "1", "--seed", "1", "--out", str(out)]
    )
    assert code == 0


def test_run_prints_the_mirror_check_only_with_ub(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    for ub_samples in (40, 0):
        cfg_path.write_text(f"mc:\n  ub_samples: {ub_samples}\n  batch_count: 2\n")
        code = main(["run", "--preset", "desk", "--config", str(cfg_path), "--drops", "2",
                     "--out", str(tmp_path / f"out{ub_samples}")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        lines = [line for line in out if line.startswith("UB mirror")]
        if ub_samples:
            assert len(lines) == 1 and "at drop" in lines[0]
            assert "user-links above 19098.59, the 0.1% family-wise t threshold" in lines[0]
            assert lines[0].endswith("mc.batch_count 2")
        else:
            assert lines == []


@pytest.mark.parametrize("power, expected", [
    # two smoothing stages end DL max-min before a stage at mu_end stops gaining
    pytest.param("{dl: maxmin, ul: maxmin, maxmin: {max_outer_iters: 2}}",
                 ["DL max-min did not converge on 3 of 3 drops, first drop 0 "
                  "(power.maxmin.max_outer_iters 2, max_inner_iters 100)"], id="capped"),
    pytest.param("{dl: maxmin, ul: maxmin}", [], id="default"),
    pytest.param("{}", [], id="no-maxmin"),
])
def test_run_names_the_links_whose_maxmin_stopped_short(tmp_path, capsys, power, expected):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(f"power: {power}\nmc: {{ub_samples: 0}}\n")
    code = main(["run", "--preset", "desk", "--config", str(cfg_path), "--drops", "3",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "did not converge" in line] == expected


def test_run_unknown_preset_exit_2():
    # argparse's choices reject the preset before any config is built
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "nope"])
    assert exc.value.code == 2


def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    import cfsim.harness
    from cfsim.errors import NumericsError

    def boom(*args, **kwargs):
        raise NumericsError("synthetic failure")

    monkeypatch.setattr(cfsim.harness, "build_se_tables", boom)
    code = main(["run", "--preset", "desk", "--drops", "1", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "drop 0 (seed" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ("carrier_freq_hz: 0\n", "carrier_freq_hz"),
        ("bandwidth_hz: -5\n", "bandwidth_hz"),
        ("channel:\n  shadow_corr_dist_m: 0\n", "channel.shadow_corr_dist_m"),
        ("channel:\n  gue_shadow_sigma_db: -1\n", "channel.gue_shadow_sigma_db"),
        ("channel:\n  uav:\n    shadow_nlos_db: -1.0\n", "channel.uav.shadow_nlos_db"),
        ("channel:\n  uav:\n    shadow_los_scale_db: -1.0\n",
         "channel.uav.shadow_los_scale_db"),
        ("seed: -3\n", "seed"),
        ("seed: null\n", "seed"),
        ("n_ap: null\n", "n_ap"),
        ("n_ap: .inf\n", "n_ap"),
        ("n_ap: 7.9\n", "n_ap"),
        ("frame:\n  tau_p: true\n", "frame.tau_p"),
        ("seed: 2.5\n", "seed"),
        ("power:\n  train_per_sample_w: .nan\n", "power.train_per_sample_w"),
        ("power:\n  train_per_sample_w: .inf\n", "power.train_per_sample_w"),
        ("power:\n  train_per_sample_w: 0\n", "power.train_per_sample_w"),
        ("power:\n  train_per_sample_w: -0.1\n", "power.train_per_sample_w"),
        ("gue_height_m: .nan\n", "gue_height_m"),
        ("ap_height_m: .inf\n", "ap_height_m"),
        ("noise:\n  psd_dbm_hz: .nan\n", "noise.psd_dbm_hz"),
        ("noise:\n  figure_db: .nan\n", "noise.figure_db"),
        ("area_side_m: .inf\n", "area_side_m"),
        ("uav_height_range_m: [22.5, .inf]\n", "uav_height_range_m"),
        ("uav_height_range_m: [low, 300]\n", "uav_height_range_m"),
        ("power:\n  fpc:\n    alpha: .nan\n", "power.fpc.alpha"),
        ("power:\n  fpc:\n    p0_dbm: .nan\n", "power.fpc.p0_dbm"),
        ("power:\n  dl_budget_per_ap_w: .inf\n", "power.dl_budget_per_ap_w"),
        ("power:\n  ul_max_w: .inf\n", "power.ul_max_w"),
        # absurd but finite magnitudes that used to fail inside the drop
        ("carrier_freq_hz: 1e300\n", "carrier_freq_hz"),
        # removed keys: an unknown key, not a spacing
        ("antenna_spacing_m: 1e300\n", "antenna_spacing_m"),
        ("channel:\n  uav:\n    shadow_in_los: true\n", "channel.uav.shadow_in_los"),
        # a 3 km wavelength spaces 4 antennas over 4.5 km: the aperture rule
        ("carrier_freq_hz: 1.0e+5\n", "n_ap_antennas"),
        # one antenna passes the aperture rule; the path gain overflows
        ("carrier_freq_hz: 1.0e-100\nn_ap_antennas: 1\nmc:\n  ub_samples: 0\n", "carrier_freq_hz"),
    ],
)
def test_run_bad_physical_field_exit_2(tmp_path, capsys, text, field):
    cfg_path = tmp_path / "x.yaml"
    cfg_path.write_text(text)
    code = main(["run", "--preset", "desk", "--config", str(cfg_path), "--drops", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "carrier_freq_hz: 1e63\n",
    "carrier_freq_hz: 1e79\nn_gue: 0\n",
    "carrier_freq_hz: 4e-53\nn_ap_antennas: 1\n",
    "carrier_freq_hz: 3e-71\nn_ap_antennas: 1\nn_gue: 0\n",
])
def test_run_just_inside_the_path_gain_rule(tmp_path, text):
    # validate rejects a mean path gain whose square underflows at the longest
    # in-area distance (1e63 Hz is just inside for GUEs, 1e79 Hz for UAVs) or
    # overflows at the smallest height gap (4e-53 Hz and 3e-71 Hz are just
    # inside); a drop just inside the rule still runs to finite rates
    cfg_path = tmp_path / "x.yaml"
    cfg_path.write_text(text + "mc:\n  ub_samples: 20\n  batch_count: 2\n")
    code = main(["run", "--preset", "desk", "--config", str(cfg_path), "--drops", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 0


def test_python_m_cfsim_runs_the_cli():
    src = Path(cfsim.__file__).parents[1]
    config = src.parent / "configs" / "paper.yaml"
    proc = subprocess.run(
        [sys.executable, "-m", "cfsim", "validate", "--config", str(config)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "config OK" in proc.stdout


def test_run_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--preset", "desk", "--drops", "1", "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_jobs_below_one_exit_2(tmp_path, capsys, monkeypatch, jobs):
    # --jobs 0 and -2 once ran the whole campaign serially; now no drop starts
    import cfsim.harness

    def no_drop(*args, **kwargs):
        raise AssertionError("a drop ran")

    monkeypatch.setattr(cfsim.harness, "run_drop", no_drop)
    out = tmp_path / "out"
    code = main(["run", "--preset", "desk", "--out", str(out), "--jobs", jobs])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()
