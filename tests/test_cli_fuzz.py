"""The exit-code contract under argv drawn from the command table.

Every command of `framelab.cli.COMMANDS` is called with options drawn from
its own option specs: plausible values, hostile numbers (0, negatives, NaN,
infinities, 1e300), reversed ranges, empty lists, missing files and specs
of the wrong kind.  Whatever the input, the exit code is 0, 1 or 2, nothing
escapes as an exception, and exit 1 means a JSON verdict "fail" or
"passes": false.  Integer values reach 10^6, so every size option meets
values far over the work budget (`core.MAX_WORK`), which must exit 2 before
anything large is built; `--jobs` stays at most 2.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from framelab import cli
from framelab.cli import COMMANDS, main

DATA = Path(__file__).resolve().parent / "data" / "cli"


def data(*names):
    return [str(DATA / name) for name in names]


HOSTILE = ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e300", "1e-300", ""]
NUMBERS = ["0.25", "0.5", "1", "1.5", "2", "3"]
INTEGERS = ["1", "2", "3", "4", "6", "8", "12", "16", "64", "4096", "65536", "1000000"]
VECTORS = data("f.json", "f.csv", "g.json", "f_dual.json", "sq.json", "sq_dual.json", "omega.json",
               "ext_f.json", "ext_g.json", "e_basis.json", "h_basis.json")
FREQ = ["shannon", "zero", "indicator:1:2", "indicator:0.5:1:2", "indicator:0:1"] + data("freq.json")
SAMPLED = ["indicator:0:1", "indicator:0:0.5", "gaussian:4", "bspline:2"] + data("sampled.json")
LATTICE = ["random", "delta", "ones"] + data("window6.json")
HOSTILE_STRINGS = ["bogus", "random", str(DATA), str(DATA / "missing.json"), "indicator:2:1",
                   "indicator:1:1", "indicator:0", "bspline:2.5"] + data(
    "f.json", "freq.json", "window6.json", "lambdas.json") + [
    f"{name}:{value}" for name in ("indicator:0", "gaussian", "bspline") for value in HOSTILE]


def plausible_strings(group, op, flag):
    """Values of the right kind for an option whose type is a plain string."""
    if flag == "--family":
        return ["half_integer", "integer"]
    if group in ("wavelet", "wavepacket"):
        return FREQ
    if group == "exp":
        return data("lambdas.json")
    if group == "gabor" and op in ("hrt", "ron-shen", "extend"):
        return SAMPLED
    if group == "gabor":
        return LATTICE + (["canonical-dual"] if flag == "--window-h" else [])
    return VECTORS


def mostly(plausible, hostile):
    """A plausible value five times in six, a hostile one otherwise."""
    return st.tuples(st.sampled_from(range(6)), st.sampled_from(plausible),
                     st.sampled_from(hostile)).map(lambda t: t[2] if t[0] == 5 else t[1])


def joined(plausible, hostile, sep):
    return st.lists(mostly(plausible, hostile), min_size=0, max_size=3).map(sep.join)


def ranges():
    number = mostly(NUMBERS, HOSTILE)
    return st.one_of(joined(NUMBERS, HOSTILE, ","),
                     st.tuples(number, number, number).map(":".join),
                     st.sampled_from(["1:0:0.5", "2:1:0.25", "0:1", ","]))


def values_for(group, op, flags, kwargs):
    """Strategy for the value token of one option, from its spec."""
    kind = kwargs.get("type")
    if "choices" in kwargs:
        return mostly(list(kwargs["choices"]), ["bogus", ""])
    if flags[0] == "--jobs":
        return mostly(["1", "2"], ["0", "-1", "nan", ""])
    if kind in (int, cli._natural, cli._positive_int):
        return mostly(INTEGERS, HOSTILE + ["-64", "2.5"])
    if kind in (float, cli._number, cli._positive_number):
        return mostly(NUMBERS, HOSTILE)
    if kind is cli.core.resolve_tolerance:
        return mostly(["1e-10", "1e-6", "0.5"], HOSTILE)
    if kind is cli._float_list:
        return joined(NUMBERS, HOSTILE, ",")
    if kind is cli._int_list:
        return joined(INTEGERS, HOSTILE + ["-64", "2.5"], ",")
    if kind is cli._range:
        return ranges()
    if kind is cli._points:
        return joined(["0,0", "1,0", "0,1", "0.5,0.5"], ["0,1e300", "1e300,0", "nan,0", "1", ""], ";")
    assert kind is None, f"no strategy for {flags[0]} of type {kind}"
    return mostly(plausible_strings(group, op, flags[0]), HOSTILE_STRINGS)


TABLE = [(group, cmd) for (group, _), cmds in COMMANDS.items() for cmd in cmds]


@st.composite
def argvs(draw, output_dir):
    group, cmd = draw(st.sampled_from(TABLE))
    argv = [group, cmd.op]
    for flags, kwargs in cli.COMMON + cmd.options:
        if not draw(st.booleans()) and not (kwargs.get("required") and draw(st.sampled_from(range(8)))):
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flags[0])
        elif flags[0] == "--output":
            argv += [flags[0], draw(mostly([str(output_dir / "out.txt")], [str(output_dir)]))]
        else:
            argv += [flags[0], draw(values_for(group, cmd.op, flags, kwargs))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def without_output_options(argv):
    """argv with --format and --output dropped, so the result is JSON on stdout."""
    kept, skip = [], False
    for token in argv:
        if skip:
            skip = False
        elif token in ("--format", "--output"):
            skip = True
        else:
            kept.append(token)
    return kept


@pytest.fixture(scope="module")
def output_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_exit_code_contract_under_drawn_argv(output_dir):
    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(argvs(output_dir))
    def check(argv):
        code, _, err = run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code == 1:
            json_argv = without_output_options(argv)
            code, out, _ = run(json_argv)
            result = json.loads(out)["result"]
            verdict = result.get("report", {}).get("verdict")
            assert code == 1 and (verdict == "fail" or result.get("passes") is False), json_argv

    check()
