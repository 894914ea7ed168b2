import json
import subprocess
import sys

import numpy as np
import pytest

from framelab.cli import main
from framelab.core import VectorSystem, standard_basis


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_system(tmp_path, name, system):
    path = tmp_path / name
    path.write_text(json.dumps(system.to_json_dict()))
    return str(path)


def test_bspline_props_exit_and_json(capsys):
    code, out, _ = run_cli(["bspline", "props", "--N", "3"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["result"]["report"]["verdict"] == "pass"


def test_exp_crude_value(capsys):
    code, out, _ = run_cli(["exp", "crude", "--N", "2", "--delta", "0.5"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == pytest.approx(9.3027e-24, rel=1e-4)
    assert result["log10"] == pytest.approx(-23.0314, abs=1e-3)


def test_gabor_duality_deterministic_bytes(capsys):
    args = ["gabor", "duality", "--L", "6", "--a", "2", "--b", "3",
            "--window", "random", "--seed", "7"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_gabor_sweep_csv_deterministic(capsys):
    args = ["gabor", "sweep", "--L-list", "4,6", "--windows", "2",
            "--seed", "11", "--format", "csv"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "L,a,b,lowerA,upperB,adjoint_lower,adjoint_upper,residual"


def test_verdict_fail_exit_code(tmp_path, capsys):
    onb = write_system(tmp_path, "onb.json", standard_basis(2))
    skew = write_system(tmp_path, "skew.json", VectorSystem([[1, 0], [1, 1]]))
    code, out, _ = run_cli(["frame", "check-dual", "--f", onb, "--g", skew], capsys)
    assert code == 1
    assert json.loads(out)["result"]["report"]["verdict"] == "fail"


def test_usage_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["frame", "bounds", "--file", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    assert "error" in err


def test_frame_bounds_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(3)
    sys_path = write_system(tmp_path, "sys.json",
                            VectorSystem(rng.standard_normal((4, 3)) + 0j))
    code, out, _ = run_cli(["frame", "bounds", "--file", sys_path], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["bounds"]["upper"] >= result["bounds"]["lower"] >= 0


def test_rdual_verify_random(capsys):
    code, out, _ = run_cli(["rdual", "verify", "--random-dim", "6", "--seed", "5"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["passes"] is True
    assert result["bound_gap"] <= 1e-10


def test_extend_run_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(4)
    f = write_system(tmp_path, "f.json", VectorSystem(rng.standard_normal((2, 4)) + 0j))
    g = write_system(tmp_path, "g.json", VectorSystem(rng.standard_normal((2, 4)) + 0j))
    code, out, _ = run_cli(["extend", "run", "--f", f, "--g", g], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["report"]["verdict"] == "pass"
    assert len(result["p"]["vectors"]) == 4


def test_wavelet_check_dual_shannon(capsys):
    code, out, _ = run_cli(["wavelet", "check-dual"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["report"]["verdict"] == "pass"


def test_wavelet_check_dual_zero_fails(capsys):
    code, out, _ = run_cli(["wavelet", "check-dual", "--psit", "zero"], capsys)
    assert code == 1
    result = json.loads(out)["result"]
    assert result["report"]["residuals"]["scaling_sum"] == 1.0


def test_gabor_ron_shen_indicator(capsys):
    code, out, _ = run_cli([
        "gabor", "ron-shen", "--window-g", "indicator:0:1", "--window-h", "indicator:0:1",
        "--a", "1.0", "--b", "1.0",
    ], capsys)
    assert code == 0
    assert json.loads(out)["result"]["report"]["residuals"]["ron_shen"] <= 1e-12


def test_gabor_hrt_lattice(capsys):
    from framelab.gabor import HRT_CAVEAT

    code, out, _ = run_cli([
        "gabor", "hrt", "--window", "gaussian:6", "--points", "0,0;1,0;0,1;1,1",
    ], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["report"]["details"]["sigma_min"] > 1e-3
    assert HRT_CAVEAT in result["report"]["notes"]


def test_bspline_scan_csv(capsys):
    code, out, _ = run_cli([
        "bspline", "scan", "--N", "2", "--a-grid", "0.5:1.0:0.5", "--b-grid", "0.25",
        "--format", "csv", "--no-estimates",
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,status,A,B,method"
    assert len(lines) == 3
    assert all("frame_certified" in line for line in lines[1:])


def test_bspline_dual_window_cli(capsys):
    code, out, _ = run_cli(["bspline", "dual-window", "--N", "2", "--b", "0.25"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["report"]["verdict"] == "pass"


def test_exp_decay_csv(capsys):
    code, out, _ = run_cli([
        "exp", "decay", "--family", "half_integer", "--n-max", "6", "--format", "csv",
    ], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,lower,crude,ratio,log10_lower,log10_crude"
    assert len(lines) == 6


def test_wavepacket_bounds_tight_case(capsys):
    code, out, _ = run_cli([
        "wavepacket", "bounds", "--g", "indicator:0:1", "--a-values", "1",
        "--b", "1.0", "--c-values=-8:8:1",
    ], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["bounds"]["lower"] == pytest.approx(1.0, abs=1e-12)
    assert result["bessel_bound"] == pytest.approx(1.0, abs=1e-12)


def test_wavepacket_bessel_probe(capsys):
    code, out, _ = run_cli([
        "wavepacket", "bessel-probe", "--ceiling", "1e4", "--amplitude", "4",
    ], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["report"]["residuals"]["ceiling_not_exceeded"] == 0.0


def test_jobs_flag_keeps_output_identical(capsys):
    base = ["bspline", "scan", "--N", "2", "--a-grid", "0.5,1.0", "--b-grid", "0.2,0.25",
            "--format", "csv", "--no-estimates"]
    _, seq_out, _ = run_cli(base, capsys)
    _, par_out, _ = run_cli(base + ["--jobs", "2"], capsys)
    assert seq_out == par_out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["bspline", "props", "--N", "2", "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["result"]["report"]["verdict"] == "pass"


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    onb = write_system(tmp_path, "onb.json", standard_basis(2))
    near = VectorSystem([[1 + 1e-8, 0], [0, 1]])
    near_path = write_system(tmp_path, "near.json", near)
    code, _, _ = run_cli(["frame", "check-dual", "--f", onb, "--g", near_path], capsys)
    assert code == 1  # residual ~1e-8 fails the 1e-10 default
    monkeypatch.setenv("FRAMELAB_TOLERANCE", "1e-6")
    code, _, _ = run_cli(["frame", "check-dual", "--f", onb, "--g", near_path], capsys)
    assert code == 0


def test_exp_bound_from_file(tmp_path, capsys):
    path = tmp_path / "lambdas.json"
    path.write_text(json.dumps({"lambdas": [0.0, 0.5]}))
    code, out, _ = run_cli(["exp", "bound", "--file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["result"]["lower_bound"] == pytest.approx(2 * np.pi - 4, abs=1e-10)


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "framelab.cli", "gabor", "duality", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "duality principle" in proc.stdout


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "framelab.cli", "nonsense"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_gabor_nan_window_is_usage_error(tmp_path):
    window = [[1.0, 0.0], [float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "window.json"
    path.write_text(json.dumps({"window": window}))
    proc = subprocess.run(
        [sys.executable, "-m", "framelab.cli", "gabor", "duality",
         "--L", "4", "--a", "2", "--b", "2", "--window", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
