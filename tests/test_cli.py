"""Command-line interface: files, exit codes, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavetrain.cli import main

GAP_1 = 1.515684575117475
GAP_4 = 0.094520930738
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("prof") / "q03.json"
    code = main(["profile", "--model", "rgl", "--param", "q=0.3",
                 "--out", str(path)])
    assert code == 0
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_profile_writes_a_manifest(profile_file):
    manifest = profile_file.parent / "manifest.json"
    assert manifest.exists()
    data = read_json(manifest)
    assert data["command"] == "profile"
    assert str(profile_file.name) in " ".join(data["argv"])
    assert "schema_version" in data


def test_profile_manifest_records_newton_health(tmp_path):
    out = tmp_path / "nagumo.json"
    assert main(["profile", "--model", "nagumo", "--param", "alpha=0.25",
                 "--tol", "1e-10", "--out", str(out)]) == 0
    manifest = read_json(tmp_path / "manifest.json")
    residuals = manifest["health"]["newton_residuals"]
    rconds = manifest["health"]["newton_rcond"]
    assert len(residuals) == manifest["step_counts"]["newton_iterations"]
    assert residuals[-1] < 1e-10
    # every iteration but the converged last one solves a Newton system
    assert len(rconds) == len(residuals) - 1
    assert min(rconds) >= np.finfo(float).eps
    assert "health" not in read_json(out)


def test_profile_output_is_deterministic(tmp_path):
    outs = [tmp_path / f"run{i}" / "nagumo.json" for i in range(2)]
    for out in outs:
        assert main(["profile", "--model", "nagumo", "--param", "alpha=0.25",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _cold_python(*args, cwd):
    """Run ``python -X importtime ARGS`` on the source tree; return the
    process and the names of the modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    modules = {line.rsplit("|", 1)[-1].strip()
               for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    return proc, modules


def test_commands_start_without_scipy(tmp_path):
    prof = str(tmp_path / "q03.json")
    runs = [
        ["-c", "import wavetrain.cli"],
        ["-m", "wavetrain", "profile", "--model", "rgl", "--param", "q=0.3",
         "--out", prof],
        ["-m", "wavetrain", "spectrum", "--profile", prof, "--scan", "16",
         "--out-dir", str(tmp_path / "spec")],
    ]
    for args in runs:
        proc, modules = _cold_python(*args, cwd=tmp_path)
        assert proc.returncode == 0, (args, proc.stderr[-2000:])
        assert "wavetrain.cli" in modules, args
        assert not [m for m in modules if m.split(".")[0] == "scipy"], args


def test_commands_load_only_the_modules_they_use(tmp_path):
    prof = str(tmp_path / "q03.json")
    runs = [
        (["-c", "import wavetrain; wavetrain.fourier"], {"fourier"},
         {"bloch", "errors", "evolve", "grids", "models", "profiles",
          "semigroup"}),
        (["-m", "wavetrain", "profile", "--model", "rgl", "--param", "q=0.3",
          "--out", prof], {"errors", "fourier", "models", "profiles"},
         {"bloch", "evolve", "grids", "semigroup"}),
        (["-m", "wavetrain", "spectrum", "--profile", prof, "--scan", "16",
          "--out-dir", str(tmp_path / "spec")], {"bloch", "grids"},
         {"evolve", "semigroup"}),
    ]
    for args, used, unused in runs:
        proc, modules = _cold_python(*args, cwd=tmp_path)
        assert proc.returncode == 0, (args, proc.stderr[-2000:])
        loaded = {m.split(".", 1)[1] for m in modules
                  if m.startswith("wavetrain.")}
        assert used <= loaded, args
        assert not unused & loaded, args


def test_package_namespace_resolves_on_first_use():
    import wavetrain

    for name in wavetrain.__all__:
        obj = getattr(wavetrain, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("wavetrain."), name
    assert wavetrain.evolve is sys.modules["wavetrain.evolve"]
    assert set(wavetrain.__all__) <= set(dir(wavetrain))
    namespace = {}
    exec("from wavetrain import *", namespace)
    assert set(wavetrain.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        wavetrain.no_such_name


def test_profile_file_round_trips(profile_file):
    from wavetrain.profiles import load_profile
    prof = load_profile(profile_file)
    assert prof.k == pytest.approx(0.3 / (2 * np.pi), rel=1e-12)
    assert prof.amplitude() == pytest.approx(np.sqrt(0.91), abs=1e-8)


def test_profile_unknown_model_is_a_usage_error(tmp_path, capsys):
    code = main(["profile", "--model", "nosuch", "--out",
                 str(tmp_path / "x.json")])
    assert code == 64
    assert "known: ['brusselator', 'nagumo', 'rgl']" in capsys.readouterr().err


def test_profile_bad_param_syntax_is_a_usage_error(tmp_path):
    code = main(["profile", "--model", "rgl", "--param", "q", "--out",
                 str(tmp_path / "x.json")])
    assert code == 64


def test_profile_inadmissible_wavenumber_is_a_validation_error(tmp_path, capsys):
    code = main(["profile", "--model", "rgl", "--param", "q=1.5",
                 "--out", str(tmp_path / "x.json")])
    assert code == 65
    assert "q" in capsys.readouterr().err


def test_spectrum_outputs(profile_file, tmp_path, capsys):
    out = tmp_path / "spec"
    code = main(["spectrum", "--profile", str(profile_file), "--scan", "64",
                 "--out-dir", str(out)])
    assert code == 0
    report = read_json(out / "stability_report.json")
    assert report["verdict"] is True
    assert report["d"] == pytest.approx(0.0383, rel=1e-2)
    assert report["conditions"]["quadratic_bound"] is True
    header = (out / "spectrum.csv").read_text().splitlines()[0]
    assert header.startswith("xi,")
    assert "branch" in header


def test_spectrum_scan_too_small_is_a_usage_error(profile_file, tmp_path):
    code = main(["spectrum", "--profile", str(profile_file), "--scan", "4",
                 "--out-dir", str(tmp_path / "s")])
    assert code == 64


def test_missing_profile_file_is_an_input_error(tmp_path):
    code = main(["spectrum", "--profile", str(tmp_path / "absent.json"),
                 "--out-dir", str(tmp_path / "s")])
    assert code == 66


def test_gap_table_on_stdout(profile_file, capsys):
    code = main(["gap", "--profile", str(profile_file), "--N", "1,4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("N,")
    table = {int(row.split(",")[0]): float(row.split(",")[1])
             for row in lines[1:]}
    assert table[1] == pytest.approx(GAP_1, rel=1e-6)
    assert table[4] == pytest.approx(GAP_4, rel=1e-6)


def test_gap_files_when_out_dir_given(profile_file, tmp_path):
    out = tmp_path / "gaps"
    code = main(["gap", "--profile", str(profile_file), "--N", "2,4",
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "gaps.csv").exists()
    report = read_json(out / "gap_report.json")
    assert {rec["N"] for rec in report["records"]} == {2, 4}


def test_simulate_reports_the_delta_n_that_gap_prints(profile_file, tmp_path):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path / "cfg.json", profile_file, out, N=16,
                       t_max=20.0)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["gap", "--profile", str(profile_file), "--N", "16",
                 "--out-dir", str(tmp_path / "gap")]) == 0
    gap = read_json(tmp_path / "gap" / "gap_report.json")["records"][0]
    assert read_json(out / "report.json")["delta_N"] == gap["delta_N"]


@pytest.fixture(scope="module")
def brusselator_file(brusselator_profile, tmp_path_factory):
    from wavetrain.profiles import save_profile

    path = tmp_path_factory.mktemp("bru") / "bru.json"
    save_profile(brusselator_profile, path)
    return path


@pytest.mark.parametrize("command", [["spectrum", "--scan", "16"],
                                     ["linear-decay", "--N", "4"]])
def test_a_lost_critical_branch_is_a_validation_error(brusselator_file,
                                                      tmp_path, capsys,
                                                      command):
    code = main([command[0], "--profile", str(brusselator_file), *command[1:],
                 "--out-dir", str(tmp_path / "out")])
    assert code == 65
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "BranchTrackingError: critical branch lost" in err[0]


def test_a_degenerate_profile_is_a_validation_error(tmp_path, capsys):
    code = main(["profile", "--model", "nagumo", "--param", "alpha=0.25",
                 "--param", "amplitude=0", "--out", str(tmp_path / "x.json")])
    assert code == 65
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "DegenerateProfileError" in err[0]


def test_linear_decay_run(profile_file, tmp_path):
    out = tmp_path / "dec"
    code = main(["linear-decay", "--profile", str(profile_file), "--N", "8",
                 "--tmax", "60", "--samples", "20", "--out-dir", str(out)])
    assert code == 0
    header = (out / "decay.csv").read_text().splitlines()[0]
    for col in ("t", "norm_sp", "norm_stilde"):
        assert col in header
    fit = read_json(out / "decay_fit.json")
    assert [rec["N"] for rec in fit["fits"]] == [8]
    # engine health: every fiber diagonalizes, none falls back to expm
    assert 1.0 <= fit["fits"][0]["max_eigvec_cond"] < 1e10
    assert fit["fits"][0]["expm_fibers"] == []


def test_linear_decay_short_horizon_is_a_validation_error(profile_file,
                                                          tmp_path, capsys):
    code = main(["linear-decay", "--profile", str(profile_file), "--N", "8",
                 "--tmax", "5", "--out-dir", str(tmp_path / "d")])
    assert code == 65
    assert "tmax" in capsys.readouterr().err


def test_sum_bounds_run(tmp_path):
    out = tmp_path / "sums"
    code = main(["sum-bounds", "--d", "1.0", "--r", "0,1", "--N", "4,8",
                 "--tmax", "1e3", "--out-dir", str(out)])
    assert code == 0
    summary = read_json(out / "sum_summary.json")
    assert summary["C_global"] > 0
    assert len(summary["per_pair"]) == 4


def test_sum_bounds_rejects_nonpositive_d(tmp_path):
    code = main(["sum-bounds", "--d", "-2", "--out-dir", str(tmp_path / "s")])
    assert code == 64


def write_config(path, profile_file, out_dir, **overrides):
    config = {
        "model": "rgl",
        "profile": str(profile_file),
        "N": 4,
        "dt": 0.01,
        "t_max": 12.0,
        "scheme": "imex",
        "K": 3,
        "perturbation": {"shape": "fourier", "amplitude": 1e-4, "seed": 5},
        "extraction": {"mode": "projection"},
        "output_dir": str(out_dir),
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def test_simulate_run_and_outputs(profile_file, tmp_path):
    out = tmp_path / "sim"
    cfg = write_config(tmp_path / "cfg.json", profile_file, out)
    code = main(["simulate", "--config", str(cfg)])
    assert code == 0
    report = read_json(out / "report.json")
    assert report["E0"] == 1e-4
    assert "phase" in report and "zeta" in report and "delta_N" in report
    assert 0.0 <= report["snapshot_tail"] < 1e-20
    # t_max = 12 passes 1/delta_4 = 10.6: the crossover rate is judged
    assert isinstance(report["crossover"]["pass"], bool)
    assert "reason" not in report["crossover"]
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("t,gamma,gamma_t")
    snaps = sorted((out / "snapshots").iterdir())
    assert snaps and snaps[0].name.startswith("snap_")
    manifest = read_json(out / "manifest.json")
    assert sorted(manifest["outputs"])== manifest["outputs"]


def test_simulate_reports_an_unreachable_crossover_unjudged(profile_file,
                                                            tmp_path, capsys):
    # the ACCEPTANCE 10 run: t_max = 20 lies far below 1/delta_16 ~ 169,
    # near which the knee of the decay falls
    out = tmp_path / "a10"
    cfg = write_config(
        tmp_path / "a10.json", profile_file, out, N=16, t_max=20.0,
        perturbation={"shape": "fourier", "amplitude": 1e-5, "band": 16,
                      "normalize": "sup", "seed": 7},
        extraction={"mode": "both"})
    assert main(["simulate", "--config", str(cfg)]) == 0
    report = read_json(out / "report.json")
    delta = report["delta_N"]
    assert 20.0 < 1.0 / delta
    cross = report["crossover"]
    assert cross["pass"] is None
    assert cross["reason"] == "horizon shorter than 1/delta_N"
    assert np.isfinite(cross["value"]) and np.isfinite(cross["t_knee"])
    assert cross["band"] == [0.5 * delta, 1.1 * delta]
    assert "crossover=n/a" in capsys.readouterr().out
    # the keys perfbench/workloads.py reads
    assert isinstance(report["delta_N"], float)
    assert report["extraction_failures"] == 0
    assert isinstance(report["phase"]["gamma_inf"], float)
    assert report["phase"]["pass"] is True
    assert report["route_agreement"]["relative"] <= 1e-3
    assert report["duhamel"]["v2_defect"] <= 1e-7


@pytest.mark.parametrize("mode", ["projection", "both"])
def test_simulate_is_deterministic(profile_file, tmp_path, mode):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}"
        cfg = write_config(tmp_path / f"cfg_{tag}.json", profile_file, out)
        assert main(["simulate", "--config", str(cfg), "--extract", mode]) == 0
        outs.append(out)
    names = ["trace.csv", "report.json"]
    if mode == "both":
        names.append("trace_duhamel.csv")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    snaps0 = sorted(os.listdir(outs[0] / "snapshots"))
    assert snaps0 == sorted(os.listdir(outs[1] / "snapshots"))
    for snap in snaps0:
        assert ((outs[0] / "snapshots" / snap).read_bytes()
                == (outs[1] / "snapshots" / snap).read_bytes())


def test_simulate_rejects_large_dt(profile_file, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", profile_file, tmp_path / "o",
                       dt=0.2)
    code = main(["simulate", "--config", str(cfg)])
    assert code == 65
    assert "dt" in capsys.readouterr().err


def test_simulate_rejects_short_horizon(profile_file, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", profile_file, tmp_path / "o",
                       t_max=8.0)
    assert main(["simulate", "--config", str(cfg)]) == 65


@pytest.mark.parametrize("section, key, value", [
    (None, "t_max", float("inf")),
    ("perturbation", "amplitude", float("inf")),
    ("extraction", "chi", [0.5, float("inf")]),
    ("extraction", "tol", float("inf")),
])
def test_simulate_rejects_non_finite_numbers(profile_file, tmp_path, capsys,
                                             monkeypatch, section, key, value):
    from wavetrain import bloch

    def no_scan(*args, **kwargs):
        raise AssertionError("the stability scan ran")

    monkeypatch.setattr(bloch, "verify_diffusive_stability", no_scan)
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "cfg.json", profile_file, out)
    config = json.loads(cfg.read_text())
    (config if section is None else config[section])[key] = value
    cfg.write_text(json.dumps(config))
    assert "Infinity" in cfg.read_text()
    assert main(["simulate", "--config", str(cfg)]) == 65
    assert "config:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_unknown_config_keys(profile_file, tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", profile_file, tmp_path / "o",
                       typo_key=1)
    assert main(["simulate", "--config", str(cfg)]) == 65
    assert "typo_key" in capsys.readouterr().err


def test_simulate_blow_up_exit_code(profile_file, tmp_path):
    out = tmp_path / "boom"
    cfg = write_config(tmp_path / "cfg.json", profile_file, out)
    config = json.loads(cfg.read_text())
    config["perturbation"]["amplitude"] = 80.0
    config["perturbation"]["normalize"] = "sup"
    cfg.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(cfg)])
    assert code == 70
    manifest = read_json(out / "manifest.json")
    assert manifest["step_counts"]["blow_up_time"] is not None


def test_simulate_divergent_extraction_exit_code(profile_file, tmp_path):
    out = tmp_path / "div"
    cfg = write_config(tmp_path / "cfg.json", profile_file, out)
    config = json.loads(cfg.read_text())
    config["perturbation"]["amplitude"] = 0.4
    config["perturbation"]["normalize"] = "sup"
    config["extraction"] = {"mode": "duhamel"}
    cfg.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(cfg)])
    assert code == 71
    # the projection artifacts are still on disk
    assert (out / "trace.csv").exists()


def test_simulate_phase_warp_failure_exit_code(profile_file, tmp_path, capsys):
    # the Duhamel sweep drives psi_x past 1 for this large perturbation
    out = tmp_path / "warp"
    cfg = write_config(tmp_path / "cfg.json", profile_file, out, N=8,
                       t_max=11.0)
    config = json.loads(cfg.read_text())
    config["perturbation"] = {"shape": "fourier", "amplitude": 2.0, "band": 2,
                              "normalize": "sup", "seed": 3}
    config["extraction"] = {"mode": "both"}
    cfg.write_text(json.dumps(config))
    # the derived m_x = 17 under-resolves it (snapshot tail 1.4e-5); the
    # profile's storage grid m_x = 65 resolves it (tail 7.7e-15)
    assert main(["simulate", "--config", str(cfg)]) == 65
    assert "set a larger m_x" in capsys.readouterr().err
    config["m_x"] = 65
    cfg.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(cfg)])
    assert code == 71
    assert "psi_x" in capsys.readouterr().err
    assert (out / "trace.csv").exists()
    report = read_json(out / "report.json")
    assert "duhamel" not in report and "delta_N" in report


def test_simulate_zero_amplitude_run(profile_file, tmp_path):
    out = tmp_path / "zero"
    cfg = write_config(tmp_path / "cfg.json", profile_file, out)
    config = json.loads(cfg.read_text())
    config["perturbation"]["amplitude"] = 0.0
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg), "--extract", "both"]) == 0
    report = read_json(out / "report.json")
    assert report["phase"]["pass"] is True
    # both routes read rounding noise: judged on absolute differences
    assert report["route_agreement"]["pass"] is True
    assert report["route_agreement"]["absolute"] <= 1e-12
    assert report["crossover"]["pass"] is None
    assert report["crossover"]["reason"] == "zero perturbation"
    checks = [v for v in report.values() if isinstance(v, dict) and "pass" in v]
    assert len(checks) == 7
    assert not any(check["pass"] is False for check in checks)


@pytest.mark.parametrize("case, code", [
    ({"m_x": 66}, 65),
    ({"m_x": 7}, 65),       # below rgl's floor 2M + 1 = 9 (Hill M = 4)
    ({"perturbation": {"shape": "fourier", "amplitude": 1e-4, "band": -1}}, 65),
    # N = 4 on the derived m_x = 17: P = 68 holds the modes |m| <= 33
    ({"perturbation": {"shape": "fourier", "amplitude": 1e-4, "band": 34}}, 65),
    ({"perturbation": {"shape": "fourier", "amplitude": 1e-4,
                       "normalize": "l2"}}, 65),
    ({"snapshot": {"stride": "0.25"}}, 65),
    ({"extraction": {"mode": "projection", "cutoff": "1.0"}}, 65),
    ({"N": True}, 65),
    ({"scheme": "etdrk4"}, 65),
    # a dense part that ends at t = 0 cannot grow geometrically
    ({"snapshot": {"dense_until": 0}}, 65),
    ({"snapshot": {"dense_until": 0.1}}, 65),     # below the stride 0.25
    ({"extraction": {"mode": "duhamel", "tol": "1e-8"}}, 65),
    ({"extraction": {"mode": "duhamel", "tol": 0}}, 65),
    ({"extraction": {"mode": "projection", "chi": ["a", "b"]}}, 65),
    ({"perturbation": {"shape": "fourier", "amplitude": 1e-4, "seed": -1}}, 65),
    ({"perturbation": {"shape": "fourier", "amplitude": 1e-4,
                       "seed": 2 ** 128}}, 65),
    (["--modes", "0"], 64),
    (["--modes", "-2"], 64),
    (["--tol", "0"], 64),
    (["--tol", "-1"], 64),
    (["--tol", "nan"], 64),
], ids=["even_m_x", "short_m_x", "negative_band", "wide_band",
        "unknown_normalize", "text_stride", "text_cutoff", "bool_N",
        "unknown_scheme", "zero_dense_until", "short_dense_until", "text_tol",
        "zero_tol", "text_chi", "negative_seed", "huge_seed", "zero_modes",
        "negative_modes",
        "zero_newton_tol", "negative_newton_tol", "nan_newton_tol"])
def test_malformed_input_exits_with_its_code(profile_file, tmp_path, capsys,
                                            case, code):
    if isinstance(case, dict):
        cfg = write_config(tmp_path / "cfg.json", profile_file, tmp_path / "o",
                           **case)
        argv = ["simulate", "--config", str(cfg)]
    else:
        argv = ["profile", "--model", "rgl", "--param", "q=0.3", *case,
                "--out", str(tmp_path / "x.json")]
    assert main(argv) == code
    assert capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sum-bounds", "--d", "nan"],
    ["sum-bounds", "--d", "inf"],
    ["sum-bounds", "--d", "1", "--tmax", "0"],
    ["sum-bounds", "--d", "1", "--tmax", "-3"],
    ["sum-bounds", "--d", "1", "--tmax", "nan"],
    ["sum-bounds", "--d", "1", "--tmax", "inf"],
    ["sum-bounds", "--d", "1", "--tmax", "1e-2"],
    ["linear-decay", "--N", "8", "--tmax", "nan"],
    ["linear-decay", "--N", "8", "--tmax", "inf"],
    ["linear-decay", "--N", "8", "--seed", "-1"],
    ["sum-bounds", "--d", "1", "--r", "nan"],
    ["sum-bounds", "--d", "1", "--r", "inf"],
], ids=["nan_d", "inf_d", "zero_tmax", "negative_tmax",
        "nan_tmax", "inf_tmax", "tmax_at_grid_start", "nan_decay_tmax",
        "inf_decay_tmax", "negative_seed", "nan_r", "inf_r"])
def test_malformed_flags_are_usage_errors(profile_file, tmp_path, capsys,
                                          argv):
    out = tmp_path / "out"
    argv = [*argv, "--out-dir", str(out)]
    if argv[0] == "linear-decay":
        argv += ["--profile", str(profile_file)]
    assert main(argv) == 64
    assert capsys.readouterr().err
    # rejected before any work: nothing is written
    assert not out.exists()


def test_simulate_refuses_an_under_resolved_run(profile_file, tmp_path,
                                                capsys):
    # at m_x = 9 a quarter of the band of 64 global modes lies above
    # P/3 = 48 at t = 0
    cfg = write_config(tmp_path / "cfg.json", profile_file, tmp_path / "o",
                       N=16, m_x=9)
    config = json.loads(cfg.read_text())
    config["perturbation"].update(band=64, amplitude=1e-2, normalize="sup")
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg)]) == 65
    err = capsys.readouterr().err
    assert "t = 0.0000" in err and "set a larger m_x" in err


def test_unreadable_config_is_an_input_error(tmp_path):
    code = main(["simulate", "--config", str(tmp_path / "missing.json")])
    assert code == 66


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wavetrain" in capsys.readouterr().out


def test_manifests_carry_stages(profile_file, tmp_path):
    prof = str(profile_file)
    runs = {
        "spectrum": ["--profile", prof, "--scan", "16"],
        "gap": ["--profile", prof, "--N", "2,4"],
        "linear-decay": ["--profile", prof, "--N", "4", "--tmax", "20",
                         "--samples", "6"],
        "sum-bounds": ["--d", "1", "--N", "4,8", "--tmax", "100"],
    }
    for name, argv in runs.items():
        assert main([name, *argv, "--out-dir", str(tmp_path / name)]) == 0
    cfg = write_config(tmp_path / "cfg.json", profile_file,
                       tmp_path / "simulate")
    assert main(["simulate", "--config", str(cfg)]) == 0
    stage_names = {
        "spectrum": {"stability_scan", "outputs"},
        "gap": {"spectra", "outputs"},
        "linear-decay": {"stability_scan", "engine_build", "evolution",
                         "outputs"},
        "simulate": {"stability_scan", "engine_build", "evolution",
                     "extraction", "outputs"},
        "sum-bounds": {"lattice_sums", "outputs"},
    }
    # N = 4: the engine decomposes its fibers j = 0, 1, 2
    engine_fibers = {"spectrum": 0, "gap": 0, "linear-decay": 3,
                     "simulate": 3}
    for name, names in stage_names.items():
        stages = read_json(tmp_path / name / "manifest.json")["stages"]
        assert set(stages["seconds"]) == names, name
        assert all(s >= 0.0 for s in stages["seconds"].values())
        if name == "sum-bounds":
            # the lattice sums decompose no Bloch fiber
            assert stages["fibers"] == {}
        else:
            assert stages["fibers"]["store"] > 0, name
            assert stages["fibers"]["engine"] == engine_fibers[name], name
        # the mean time step, where the command counts its steps
        assert ("evolution_step_us" in stages) == (name == "simulate"), name
    manifest = read_json(tmp_path / "simulate" / "manifest.json")
    stages = manifest["stages"]
    assert stages["evolution_step_us"] == pytest.approx(
        1e6 * stages["seconds"]["evolution"]
        / manifest["step_counts"]["time_steps"])
    # the truncation evidence goes into the reports, timings do not
    for path in (tmp_path / "spectrum" / "stability_report.json",
                 tmp_path / "simulate" / "report.json"):
        report = read_json(path)
        assert report["hill_modes"] == 4
        assert report["hill_tail"] <= 1e-13
        assert report["hill_check"] <= 1e-9
        assert "stages" not in report
    report = read_json(tmp_path / "spectrum" / "stability_report.json")
    assert report["tolerances"]["m_f"] == 4
    # the grid the engines ran on, derived from the Hill truncation
    for name in ("linear-decay", "simulate"):
        health = read_json(tmp_path / name / "manifest.json")["health"]
        assert health == {"m_x": 17, "hill_modes": 4}, name
