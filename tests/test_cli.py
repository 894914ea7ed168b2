import hashlib
import json
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from framelab import bspline as bsp
from framelab import cli, gabor, rdual
from framelab import dilation as dil
from framelab import exponentials as expo
from framelab.cli import build_parser, main
from framelab.core import VectorSystem, standard_basis
from framelab.dilation import FreqFunction

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
# stdout bytes and exit codes of fixed invocations, recorded once so that any
# change to the CLI output shows; "{data}" in a command stands for tests/data/cli
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


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


def test_wavelet_check_dual_at_a_tiny_step_fails(capsys):
    # b = 1e-300 is read as a rational of denominator about 1e300: the scaling sum
    # is 1, not b, and the shift classes a^j n / b are far past the band
    code, out, _ = run_cli(["wavelet", "check-dual", "--b", "1e-300"], capsys)
    assert code == 1
    report = json.loads(out)["result"]["report"]
    assert report["verdict"] == "fail"
    assert report["residuals"] == {"scaling_sum": 1.0, "shifted_sums": 0.0}


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


def test_bspline_scan_past_the_painless_regime_is_not_tight(capsys):
    # b N = 1 + 2^-52: B_1(x) B_1(x - 1/b) = 1 on [1/b, 1), so the upper bound is not 1/b
    code, out, _ = run_cli(["bspline", "scan", "--N", "1", "--a-grid", "0.5", "--b-grid",
                            "1.0000000000000002", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1] == ("0.5,1.0000000000000002,frame_certified,0.9999999999999998,"
                                   "2.9999999999999996,translation-overlap sufficient condition")
    code, out, _ = run_cli(["bspline", "scan", "--N", "1", "--a-grid", "1", "--b-grid", "1",
                            "--format", "csv"], capsys)
    assert out.splitlines()[1] == "1.0,1.0,frame_certified,1.0,1.0,painless periodization"


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


def assert_one_line_error(argv):
    """In a fresh process: exit 2, empty stdout, a single `error:` line, no traceback."""
    proc = subprocess.run([sys.executable, "-m", "framelab.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_gabor_nan_window_is_usage_error(tmp_path):
    window = [[1.0, 0.0], [float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "window.json"
    path.write_text(json.dumps({"window": window}))
    assert_one_line_error(["gabor", "duality", "--L", "4", "--a", "2", "--b", "2",
                           "--window", str(path)])


def replay(cmd, capsys):
    argv = [arg.replace("{data}", str(DATA / "cli")) for arg in shlex.split(cmd)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", GOLDEN, ids=[case["cmd"] for case in GOLDEN])
def test_golden_output(case, capsys):
    code, out = replay(case["cmd"], capsys)
    assert code == case["exit"]
    if "stdout" in case:
        assert out == case["stdout"]
    if "stdout_line_sha256" in case:  # as tests/data/rerecord.py records it: the first line that moved shows
        lines = out.splitlines(keepends=True)
        assert [hashlib.sha256(line.encode()).hexdigest()[:16] for line in lines] == case["stdout_line_sha256"]
    assert len(out.encode()) == case["stdout_bytes"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]


def test_every_golden_stores_its_stdout():
    # so that tests/data/rerecord.py can show a re-record value by value or line by line
    assert [case["cmd"] for case in GOLDEN
            if "stdout" not in case and "stdout_line_sha256" not in case] == []


def readme_commands():
    """The `framelab ...` examples of the README "Command line" section."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [line[len("framelab "):] for line in section.splitlines() if line.startswith("framelab ")]


def test_readme_examples_are_golden():
    cmds = readme_commands()
    assert len(cmds) == 9
    golden = {case["cmd"] for case in GOLDEN}
    assert [cmd for cmd in cmds if cmd not in golden] == []


def test_benchmark_argvs_still_parse(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import cli_layer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    parser = build_parser()
    argvs = [argv for _, argv, _ in cli_layer.commands(np.random.default_rng(0), str(tmp_path))]
    assert {"--jobs", "--seed"} <= {arg for argv in argvs for arg in argv}
    for argv in argvs:
        parser.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["bspline", "props", "--N", "3", "--seed", "1"],
    ["exp", "crude", "--N", "2", "--delta", "0.5", "--tolerance", "1e-3"],
    ["gabor", "duality", "--L", "6", "--a", "2", "--b", "3", "--jobs", "2"],
    ["frame", "gram", "--f", "x.json", "--g", "y.json", "--seed", "0"],
    # the scanner reads each piece at its Chebyshev nodes: the grid size is gone
    ["bspline", "scan", "--N", "2", "--a-grid", "1.9", "--b-grid", "0.25", "--period-points", "256"],
])
def test_options_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def assert_usage_error(argv, capsys, bad):
    """Exit 2, nothing on stdout, and an `error:` line that names the bad input."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and bad in errors[0], captured.err
    # argparse prefixes its line with the command, e.g. "framelab gabor bounds: error: ..."
    assert errors[0].startswith(("error:", f"framelab {argv[0]} {argv[1]}: error:")), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, bad", [
    (["bspline", "scan", "--N", "2", "--a-grid", "x", "--b-grid", "0.25"], "'x'"),
    (["bspline", "scan", "--N", "2", "--a-grid", "1:0:0.5", "--b-grid", "0.25"], "1:0:0.5"),
    (["bspline", "scan", "--N", "2", "--a-grid", "0.5", "--b-grid", "0.25", "--jobs", "0"], "'0'"),
    (["gabor", "hrt", "--window", "gaussian:6", "--points", "0,0;1"], "'1'"),
    (["gabor", "hrt", "--window", "gaussian:x", "--points", "0,0"], "gaussian:x"),
    (["wavepacket", "bounds", "--g", "indicator:0:1", "--c-values", "1:0:0"], "zero step"),
    (["gabor", "sweep", "--L-list", "4,6.5"], "4,6.5"),
    (["gabor", "sweep", "--L-list", "0"], "'0'"),
    (["gabor", "sweep", "--windows", "-1"], "'-1'"),
    (["exp", "bound", "--lambdas", "0,nan"], "nan"),
    (["exp", "bound", "--lambdas", "0,0.5", "--dps", "1"], "dps"),
    (["bspline", "props", "--N", "3", "--tolerance", "-1"], "tolerance"),
    (["bspline", "props", "--N", "3", "--tolerance", "inf"], "tolerance"),
    (["exp", "decay", "--n-max", "-1"], "'-1'"),
    (["exp", "decay", "--n-max", "0"], "'0'"),
    (["exp", "decay", "--n-max", "1"], "n_max must be at least 2"),
    (["wavepacket", "check-dual", "--psi", "indicator:2:1"], "width of -1"),
    (["gabor", "ron-shen", "--window-g", "indicator:1:0", "--window-h", "indicator:0:1",
      "--a", "1", "--b", "1"], "width of -1"),
    (["gabor", "hrt", "--window", "indicator:0:1", "--points", "0,1e300"], "1e+300"),
    (["bspline", "scan", "--N", "2", "--a-grid", "0:1e8:1", "--b-grid", "0.25"], "work budget"),
    (["wavepacket", "check-dual", "--psi", "indicator:0:1e300"], "support across 0"),
    (["wavepacket", "check-dual", "--psi", "indicator:1:1e300"], "work budget"),
    (["wavelet", "check-dual", "--b", "1e300"], "work budget"),
    (["gabor", "sweep", "--L-list", "1e300"], "1e300"),
    (["gabor", "ron-shen", "--window-g", "indicator:0:1", "--window-h", "indicator:0:1",
      "--a", "1e-300", "--b", "1"], "less than one grid step"),
    (["gabor", "ron-shen", "--window-g", "indicator:0:1", "--window-h", "indicator:0:1",
      "--a", "1.5", "--b", "1e300"], "work budget"),
    (["gabor", "ron-shen", "--window-g", "indicator:0:1", "--window-h", "indicator:0:1",
      "--a", "1", "--b", "1e-300"], "work budget"),
    # the verification grid of step 1/64 would have to reach the shift 1/b = 1e300
    (["bspline", "dual-window", "--N", "1", "--b", "1e-300"], "work budget"),
    (["gabor", "bounds", "--L", "4", "--a", "2", "--b", "2", "--seed", "-1"], "'-1'"),
    (["bspline", "eval", "--N", "9" * 400, "--x", "0.5"], "too large"),
    # the differences overflowed to inf and the float Gram to NaN, printing 0.0
    (["exp", "bound", "--lambdas=-1e308,1e308"], "finite range"),
    (["exp", "bound", "--lambdas=-1e308,1e308", "--dps", "30"], "finite range"),
])
def test_malformed_option_values_exit_2(argv, bad, capsys):
    assert_usage_error(argv, capsys, bad)


@pytest.mark.parametrize("argv", [["exp", "bound", "--lambdas", "0,1"], ["exp", "decay", "--n-max", "3"]])
def test_dps_over_the_cap_exits_2_before_any_gram(argv, capsys, monkeypatch):
    def no_gram(*args):
        raise AssertionError("a Gram matrix was built")

    monkeypatch.setattr(expo, "_fixed_gram", no_gram)
    assert_usage_error(argv + ["--dps", str(expo.MAX_DPS + 1)], capsys, f"(got {expo.MAX_DPS + 1})")


def test_oversized_scan_cell_exits_2_before_any_grid(capsys, monkeypatch):
    def no_sums(*args, **kwargs):
        raise AssertionError("the cell was evaluated")

    monkeypatch.setattr(bsp, "_overlap_sums", no_sums)
    assert_usage_error(["bspline", "scan", "--N", "2", "--a-grid", "1e-5", "--b-grid", "0.3"],
                       capsys, "a=1e-05")


EXTEND = ["gabor", "extend", "--window-g", "indicator:0:1", "--window-h", "indicator:0:1",
          "--a", "1", "--b", "0.5", "--step", "0.25"]


# each request is far over core.MAX_WORK; the evaluator that would do its work
# is replaced, so a request that reaches it fails the test
@pytest.mark.parametrize("argv, module, evaluator", [
    (["bspline", "dual-window", "--N", "2", "--b", "0.25", "--K", "100000"], bsp, "bspline_eval"),
    # the least-squares solve and the sampled re-check are charged with the design
    (["bspline", "dual-window", "--N", "2", "--b", "0.25", "--K", "104"], bsp, "bspline_eval"),
    (["bspline", "dual-window", "--N", "4", "--b", "0.14285714285714285", "--K", "96"], bsp, "bspline_eval"),
    (EXTEND + ["--L", "100000"], gabor, "_apply_blocks"),
    (["gabor", "commute", "--L", "1024", "--a", "4", "--b", "4"], gabor, "frame_operator"),
    (["gabor", "duality", "--L", "512", "--a", "512", "--b", "512"], gabor, "riesz_bounds"),
    # the suite's integer work is charged before any table is built: 271 is the last order
    (["bspline", "props", "--N", "2000"], bsp, "_piece_table"),
    (["bspline", "props", "--N", "272"], bsp, "_piece_table"),
    (["bspline", "eval", "--N", "1000000", "--x", "0.5"], np, "empty"),
    (["exp", "decay", "--n-max", "100000"], expo, "lower_bound"),
    # a 60-digit integer, the default, is charged 4 units: N = 100 and 293 frequencies
    (["exp", "decay", "--n-max", "100"], expo, "lower_bound"),
    (["exp", "bound", "--lambdas", ",".join(map(str, range(293)))], expo, "_fixed_gram"),
    (["gabor", "sweep", "--L-list", "4", "--windows", "1000000"], cli, "_sweep_task"),
    # 9.66e7 block entries: most of the 4002 shifts k/1000 meet the band from every point
    (["wavepacket", "bounds", "--g", "shannon", "--b", "1000"], dil.FreqFunction, "values_at"),
    (["rdual", "verify", "--random-dim", "100000"], rdual, "verify_rdual_theorem"),
    (["gabor", "wexler-raz", "--L", "8192", "--a", "8192", "--b", "1", "--window-h", "random"],
     np, "exp"),
    (["gabor", "bounds", "--L", "8192", "--a", "8192", "--b", "8192"], np.linalg, "eigvalsh"),
    # and no lattice table is built for a refused request
    (["gabor", "bounds", "--L", "8192", "--a", "8192", "--b", "8192"], gabor, "_walnut_index"),
    (EXTEND + ["--L", "100000"], gabor, "_walnut_index"),
    (["gabor", "duality", "--L", "512", "--a", "512", "--b", "512"], gabor, "_shift_index"),
    (["gabor", "wexler-raz", "--L", "8192", "--a", "8192", "--b", "1", "--window-h", "random"],
     gabor, "_adjoint_phases"),
    (["gabor", "commute", "--L", "1024", "--a", "4", "--b", "4"], gabor, "_commutation_phase"),
    (["exp", "gram", "--lambdas", ",".join(map(str, range(5001)))], np, "sinc"),
    (["gabor", "hrt", "--window", "indicator:0:1", "--step", "0.001", "--points", "0,0;0,20000"],
     gabor.SampledWindow, "values_interpolated"),
    (["bspline", "eval", "--N", "343", "--x", "0.5"], bsp, "_piece_table"),
])
def test_requests_over_the_work_budget_exit_2_before_evaluating(argv, module, evaluator, capsys,
                                                                 monkeypatch):
    def evaluated(*args, **kwargs):
        raise AssertionError(f"{evaluator} was reached")

    monkeypatch.setattr(module, evaluator, evaluated)
    assert_usage_error(argv, capsys, "work budget")


@pytest.mark.parametrize("count, dim", [(1, 7072), (7072, 1)])
def test_wide_or_long_input_families_exit_2_before_any_dense_matrix(count, dim, tmp_path, capsys,
                                                                    monkeypatch):
    # 2 max(count, dim)^2 work units for the dense matrices of frame, rdual and extend commands
    def evaluated(*args):
        raise AssertionError("frame_bounds was reached")

    path = tmp_path / "family.csv"
    path.write_text("\n".join([",".join(["1,0"] * dim)] * count) + "\n")
    monkeypatch.setattr(cli.core, "frame_bounds", evaluated)
    assert_usage_error(["frame", "bounds", "--file", str(path)], capsys, f"{count} vectors in dimension {dim}")


def test_many_offsets_of_a_many_piece_generator_exit_2_before_any_offset_piece_array(
        tmp_path, capsys, monkeypatch):
    # 1000 pieces and 1000 offsets under a budget of 10^6: the breakpoints are
    # refused (1001 edges x 3 or more dilations x 1000 offsets), and nothing of
    # the 10^6 (offset, piece) pairs, 8 MB per float64 array, is built before:
    # the traced peak stays under 4 MiB
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(FreqFunction(1.0, 0.002, [1, 2] * 500, (1.0, 3.0)).to_json_dict()))
    offsets = ",".join(str(i / 1000) for i in range(1000))
    monkeypatch.setattr(cli.core, "MAX_WORK", 10 ** 6)
    tracemalloc.start()
    try:
        assert_usage_error(["wavepacket", "check-dual", "--psi", str(path), "--c-values", offsets],
                           capsys, "the breakpoints of the frequency sums")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 22, peak


class Reached(Exception):
    """The evaluator behind a budget check was called."""


# goldens and README examples run in full above; these are the larger runs the
# budget must admit (ROADMAP baselines and the README timings)
@pytest.mark.parametrize("argv, module, evaluator", [
    (["bspline", "dual-window", "--N", "2", "--b", "0.25", "--K", "64"], bsp, "bspline_eval"),
    (["bspline", "dual-window", "--N", "2", "--b", "0.25", "--K", "103"], bsp, "bspline_eval"),
    (["bspline", "dual-window", "--N", "4", "--b", "0.14285714285714285", "--K", "95"], bsp, "bspline_eval"),
    (["bspline", "props", "--N", "24"], bsp, "_piece_table"),
    (["bspline", "props", "--N", "60"], bsp, "_piece_table"),
    (["bspline", "props", "--N", "271"], bsp, "_piece_table"),
    (["exp", "decay", "--n-max", "40", "--dps", "60"], expo, "lower_bound"),
    (["exp", "decay", "--n-max", "99"], expo, "lower_bound"),
    (["exp", "bound", "--lambdas", ",".join(map(str, range(292)))], expo, "_fixed_gram"),
    (["exp", "decay", "--n-max", "40", "--dps", "1000"], expo, "lower_bound"),
    (["gabor", "sweep", "--L-list", "48,64", "--windows", "2"], cli, "_sweep_task"),
    (["bspline", "scan", "--N", "4", "--a-grid", "0.1:3.9:0.1", "--b-grid", "0.05:0.5:0.025"],
     bsp, "_overlap_sums"),
    (["gabor", "bounds", "--L", "65536", "--a", "64", "--b", "64"], np.linalg, "eigvalsh"),
    (["bspline", "eval", "--N", "342", "--x", "0.5"], bsp, "_piece_table"),
    # charged by the 1.9e6 entries of its blocks, not by points times offsets and shifts (4.5e8)
    (["wavepacket", "bounds", "--g", "shannon", "--c-values=-2000:2000:1"], dil.FreqFunction,
     "values_at"),
])
def test_requests_within_the_work_budget_reach_their_evaluator(argv, module, evaluator, monkeypatch):
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(module, evaluator, reached)
    with pytest.raises(Reached):
        main(argv)


def test_every_cell_of_the_baseline_scan_is_within_the_work_budget():
    for a in cli._range("0.1:3.9:0.1"):
        for b in cli._range("0.05:0.5:0.025"):
            bsp._check_cell(4, a, b)


def test_range_points_are_the_typed_decimals():
    # point i is the float nearest start + i step: no drift such as
    # b = 0.25000000000000006 or a = 2.0000000000000004
    assert cli._range("0.05:0.5:0.025") == [float(Fraction(10 + 5 * i, 200)) for i in range(19)]
    assert cli._range("0.1:3.9:0.1") == [float(Fraction(i, 10)) for i in range(1, 40)]
    assert cli._range("1:0:-0.25") == [1.0, 0.75, 0.5, 0.25, 0.0]
    # stop is included when it lies within half a step, and a token that reads as
    # 0.0 is 0 whatever its exponent
    assert cli._range("0:1.2:0.5") == [0.0, 0.5, 1.0]
    assert cli._range("0:1.3:0.5") == [0.0, 0.5, 1.0, 1.5]
    assert cli._range("0e999999999:1:0.5") == [0.0, 0.5, 1.0]


def test_range_token_that_fraction_rejects_exits_2(capsys, monkeypatch):
    # Python 3.10's Fraction rejects the underscores that float accepts
    def strict(token):
        if "_" in str(token):
            raise ValueError(f"Invalid literal for Fraction: {token!r}")
        return Fraction(token)

    monkeypatch.setattr(cli, "Fraction", strict)
    assert_usage_error(["bspline", "scan", "--N", "2", "--a-grid", "0.5:1_0:0.5", "--b-grid", "0.25"],
                       capsys, "0.5:1_0:0.5")


def test_cli_import_loads_neither_the_process_pool_nor_mpmath():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, framelab.cli; "
         "print(sorted({'concurrent.futures.process', 'mpmath'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"


def test_csv_for_a_command_without_rows_exits_2_before_running(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(bsp, "dual_window_solve", no_solve)
    assert_usage_error(["bspline", "dual-window", "--N", "2", "--b", "0.25", "--format", "csv"],
                       capsys, "no tabular output")


def test_exp_decay_prints_no_negative_extended_precision_bound(capsys):
    # at dps 15 the rounded Gram is indefinite from N = 25 on; those rows are clamped
    code, out, _ = run_cli(["exp", "decay", "--n-max", "30", "--dps", "15", "--format", "csv"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(float(row[1]) >= 0.0 for row in rows)
    assert [int(row[0]) for row in rows if row[1] == "0.0"] == list(range(25, 31))
    assert all(row[3] == "inf" and row[4] == "-inf" for row in rows if row[1] == "0.0")


@pytest.mark.parametrize("argv, bad", [
    (["gabor", "bounds", "--L", "-6", "--a", "2", "--b", "3"], "'-6'"),
    (["gabor", "ron-shen", "--window-g", "indicator:0:1", "--window-h", "indicator:0:1",
      "--a", "1", "--b", "1", "--step", "0"], "'0'"),
    (["rdual", "verify", "--random-dim", "-1"], "'-1'"),
    (["frame", "bounds", "--file", "{dir}"], "Is a directory"),
])
def test_nonpositive_sizes_and_unreadable_files_exit_2(argv, bad, tmp_path, capsys):
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    assert_usage_error(argv, capsys, bad)


@pytest.mark.parametrize("argv", [
    ["wavepacket", "bounds", "--g", "indicator:0:1"],
    ["wavepacket", "bessel-probe"],
])
@pytest.mark.parametrize("ceiling", ["nan", "0", "-1"])
def test_nonpositive_ceiling_exits_2(argv, ceiling, capsys):
    assert_usage_error(argv + ["--ceiling", ceiling], capsys, "ceiling")


def test_infinite_ceiling_accepted(capsys):
    code, out, _ = run_cli(["wavepacket", "bounds", "--g", "indicator:0:1",
                            "--c-values=-8:8:1", "--ceiling", "inf"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["report"]["verdict"] == "pass"


def test_wavepacket_bounds_overflow_on_inf_grid_fails(tmp_path, capsys):
    # a tall cell inside the trimmed inf window passes the ceiling: verdict
    # fail with (0, inf), not a traceback
    values = np.ones(1024)
    values[3] = 10.0
    path = tmp_path / "g.json"
    path.write_text(json.dumps(FreqFunction(0.0, 1 / 1024, values, (0.0, 1.0)).to_json_dict()))
    code, out, _ = run_cli(["wavepacket", "bounds", "--g", str(path), "--a-values", "1",
                            "--b", "1.0", "--c-values", "0:5.6:0.7", "--ceiling", "51.5"], capsys)
    result = json.loads(out)["result"]
    assert code == 1 and result["report"]["verdict"] == "fail"
    assert result["bounds"] == {"lower": 0.0, "upper": "inf"}
    assert result["bessel_bound"] == "inf"


@pytest.mark.parametrize("value", ["abc", "-1", "0", "nan"])
def test_bad_env_tolerance_exits_2(value, capsys, monkeypatch):
    monkeypatch.setenv("FRAMELAB_TOLERANCE", value)
    assert_usage_error(["bspline", "props", "--N", "3"], capsys, "FRAMELAB_TOLERANCE")


@pytest.mark.parametrize("argv, name, content, bad", [
    (["frame", "bounds", "--file"], "f.json", {"vectors": [[[1.0, 0.0]]]}, "ambient_dim"),
    (["frame", "bounds", "--file"], "f.json", {"ambient_dim": "x", "vectors": [[[1.0, 0.0]]]}, "'x'"),
    (["frame", "bounds", "--file"], "f.json", {"ambient_dim": 2, "vectors": [[1.0, 0.0, 2.0]]}, "[re, im]"),
    (["frame", "bounds", "--file"], "f.csv", "1,0,x,0\n", "'x'"),
    (["exp", "bound", "--file"], "l.json", {"lambdas": ["a"]}, "'a'"),
    (["exp", "bound", "--file"], "l.json", {"freqs": [0, 1]}, "'lambdas'"),
    (["gabor", "bounds", "--L", "2", "--a", "1", "--b", "1", "--window"], "w.json", {"window": [1, 2, 3]},
     "[re, im]"),
    (["frame", "bounds", "--file"], "f.csv", "1,0,2,0\n3,0\n", "same number of columns"),
    (["wavepacket", "bounds", "--g"], "g.json",
     {"grid": {"start": 0.0, "step": 0.5, "count": 2}, "values": [[1, 0], [1, 0]], "band": 5},
     "band must be two numbers"),
    (["wavepacket", "bounds", "--g"], "g.json",
     {"grid": {"start": 0.0, "step": 0.5, "count": 2}, "values": [[1, 0], [1, 0]], "band": [0, 1, 2]},
     "band must be two numbers"),
    (["wavepacket", "bounds", "--g"], "g.json",
     {"grid": {"start": 0.0, "step": 0.5, "count": "x"}, "values": [[1, 0], [1, 0]], "band": [0, 1]},
     "grid count 'x'"),
    (["gabor", "hrt", "--points", "0,0;1,0", "--window"], "w.json",
     {"x0": "a", "step": 0.5, "samples": [[1, 0], [1, 0]], "support_hint": [0, 1]}, "'a'"),
    (["gabor", "hrt", "--points", "0,0;1,0", "--window"], "w.json",
     {"x0": 0.0, "step": 0.5, "samples": [[1, 0], [1, 0]], "support_hint": [0, 1, 2]},
     "support hint must be two numbers"),
    # a number or a nested list was flattened and answered as a frequency set
    (["exp", "bound", "--file"], "l.json", {"lambdas": 5}, "flat list of numbers, got 5"),
    (["exp", "bound", "--file"], "l.json", {"lambdas": [[0, 1]]}, "flat list of numbers, got [["),
    # a fractional dimension was truncated to 2
    (["frame", "bounds", "--file"], "f.json", {"ambient_dim": 2.5, "vectors": [[[1, 0], [0, 0]]]},
     "ambient_dim must be an integer, got 2.5"),
])
def test_malformed_input_files_exit_2(argv, name, content, bad, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert_usage_error(argv + [str(path)], capsys, bad)


def test_env_tolerance_reaches_duality_and_rdual_verify(capsys, monkeypatch):
    monkeypatch.setenv("FRAMELAB_TOLERANCE", "1e-7")
    code, out, _ = run_cli(["gabor", "duality", "--L", "6", "--a", "2", "--b", "3"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["report"]["tolerance_used"] == 1e-7
    # residuals of ~1e-16 pass the 1e-10 default but not a tolerance of 1e-300
    argv = ["rdual", "verify", "--file", str(DATA / "cli" / "sq.json"), "--random-pair", "--seed", "2"]
    monkeypatch.setenv("FRAMELAB_TOLERANCE", "1e-300")
    code, out, _ = run_cli(argv, capsys)
    assert code == 1 and json.loads(out)["result"]["passes"] is False


def test_nan_vector_file_is_usage_error(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"ambient_dim": 2, "vectors": [[[1.0, 0.0], [float("nan"), 0.0]]]}))
    assert_one_line_error(["frame", "bounds", "--file", str(path)])


READERS = {
    "--tolerance": {"frame dual", "frame check-dual", "rdual verify", "rdual check-dual-pair",
                    "rdual nseq", "extend run", "gabor duality", "gabor wexler-raz",
                    "gabor commute", "gabor ron-shen", "gabor hrt", "wavelet check-dual",
                    "wavepacket check-dual", "bspline props", "bspline dual-window"},
    "--seed": {"rdual transform", "rdual verify", "rdual check-dual-pair", "rdual nseq",
               "gabor bounds", "gabor duality", "gabor wexler-raz", "gabor commute", "gabor sweep"},
    "--jobs": {"gabor sweep", "bspline scan"},
}


def test_common_options_only_where_read():
    from framelab.cli import COMMANDS

    flags = {f"{group} {cmd.op}": {flag for names, _ in cmd.options for flag in names}
             for (group, _), cmds in COMMANDS.items() for cmd in cmds}
    assert len(flags) == 32
    for option, readers in READERS.items():
        assert {name for name, opts in flags.items() if option in opts} == readers
