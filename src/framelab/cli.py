"""Command-line entry point.

One binary with a subcommand tree mirroring the library modules, built from
one command table; every analysis prints a deterministic JSON envelope
(schema 1, sorted keys) or CSV rows, so fixed-seed sweeps are byte-identical
across runs.  Exit code 0 means success or verdict pass, 1 a verdict fail
(or a failed `rdual verify`), 2 a usage or input error, such as a request
over the work budget core.MAX_WORK (float64 entries filled, checked before
anything large is built; MAX_DPS and MAX_AUTO_CYCLE remain domain limits).

Every command takes --format and --output; the others exist only where they
are read, as the README lists them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import bspline as bsp
from . import core, extension, gabor, rdual
from . import dilation as dil
from . import exponentials as expo
from .core import DomainError, FrameLabError, _decode_pairs, _encode_pairs

SCHEMA_VERSION = 1


# -- typed converters for option values -----------------------------------------


def _number(token):
    """A finite float."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid number {token!r}")
    return value


def _positive_number(token):
    """A finite float > 0."""
    value = _number(token)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {token!r}")
    return value


def _float_list(text):
    """Comma-separated numbers, at least one."""
    values = [_number(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


def _int_list(text):
    """Comma-separated positive integers in digits (1e9 is not one), at least one."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
    if not tokens or not all(tok.isdigit() and int(tok) >= 1 for tok in tokens):
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return [int(tok) for tok in tokens]


def _range(text):
    """Comma list of values, or start:stop:step with stop included within half a
    step; point i is the float nearest start + i step in the decimals typed."""
    if ":" not in text:
        return _float_list(text)
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (_number(tok) for tok in parts)
    if step == 0:
        raise argparse.ArgumentTypeError(f"zero step in {text!r}")
    core._check_work(core._PASS_WORK * ((stop - start) / step + 1), f"the range {text!r}")
    try:  # a token that reads as 0.0 is 0, whatever the exponent typed
        start, stop, step = (Fraction(tok) if value else Fraction(0)
                             for tok, value in zip(parts, (start, stop, step)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected decimal numbers in {text!r}") from None
    values = [float(start + i * step) for i in range(math.ceil((stop - start) / step + Fraction(1, 2)))]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


def _points(text):
    """Semicolon-separated lam,mu pairs."""
    points = []
    for chunk in text.split(";"):
        pair = [_number(tok) for tok in chunk.split(",")]
        if len(pair) != 2:
            raise argparse.ArgumentTypeError(f"expected lam,mu pairs, got {chunk!r} in {text!r}")
        points.append(gabor.TFPoint(*pair))
    return points


def _natural(text, least=0):
    """An integer >= least; seeds take 0 and up, as numpy's generators do."""
    if not text.isdigit() or int(text) < least:
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return int(text)


_positive_int = partial(_natural, least=1)


# -- input files and window specs ------------------------------------------------


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _vector_system(path) -> core.VectorSystem:
    with open(path) as fh:
        f = (core.VectorSystem.from_csv(fh.read()) if path.endswith(".csv")
             else core.VectorSystem.from_json_dict(json.load(fh)))
    # the largest dense matrix a frame, rdual or extend command forms: max(count, dim)^2 complex
    core._check_work(2 * max(f.count, f.ambient_dim) ** 2, f"{f.count} vectors in dimension {f.ambient_dim}")
    return f


def _spec_params(spec, defaults):
    """Numbers after the name in 'name:p1:p2...', the missing ones from defaults."""
    given = spec.split(":")[1:]
    try:
        values = [float(tok) for tok in given]
    except ValueError:
        values = [math.nan]
    if len(given) > len(defaults) or not all(map(math.isfinite, values)):
        raise DomainError(f"invalid parameters in {spec!r}")
    values += defaults[len(given):]
    if None in values:
        raise DomainError(f"{spec!r} needs {len(defaults)} parameters")
    return values


def _lattice_window(spec: str, L: int, rng) -> np.ndarray:
    core._check_work(4 * L, f"a window of length {L}")
    if spec == "random":
        return rng.standard_normal(L) + 1j * rng.standard_normal(L)
    if spec == "delta":
        w = np.zeros(L, dtype=complex)
        w[0] = 1.0
        return w
    if spec == "ones":
        return np.ones(L, dtype=complex)
    data = _load_json(spec)
    if isinstance(data, dict) and "window" in data:
        data = data["window"]
    return _decode_pairs(data, "window")


def _sampled_window(spec: str, step: float) -> gabor.SampledWindow:
    name = spec.split(":")[0]
    if name == "indicator":
        return gabor.sampled_indicator(*_spec_params(spec, [0.0, 1.0]), step)
    if name == "gaussian":
        return gabor.sampled_gaussian(*_spec_params(spec, [8.0]), step)
    if name == "bspline":
        (order,) = _spec_params(spec, [None])
        if order != int(order):
            raise DomainError(f"spline order must be an integer in {spec!r}")
        return bsp.sample_bspline(int(order), step)
    return gabor.SampledWindow.from_json_dict(_load_json(spec))


def _freq_function(spec: str) -> dil.FreqFunction:
    if spec == "shannon":
        return dil.shannon_wavelet()
    if spec == "zero":
        return dil.freq_indicator(-1.0, 1.0, amplitude=0.0)
    if spec.split(":")[0] == "indicator":
        lo, hi, amp = _spec_params(spec, [None, None, 1.0])
        return dil.freq_indicator(lo, hi, amplitude=amp)
    return dil.FreqFunction.from_json_dict(_load_json(spec))


def _psi_pair(args):
    psi = _freq_function(args.psi)
    return psi, (_freq_function(args.psit) if args.psit else psi)


# -- output ----------------------------------------------------------------------


def _json_ready(obj):
    """JSON-ready copy: non-finite floats as their repr text, complex values as [re, im]
    pairs, systems via their to_json_dict, results (reports, bounds, rows) by their
    dataclass fields."""
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else repr(value)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex) or (isinstance(obj, np.ndarray) and np.iscomplexobj(obj)):
        return _json_ready(_encode_pairs(obj))
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if hasattr(obj, "to_json_dict"):
        return _json_ready(obj.to_json_dict())
    if dataclasses.is_dataclass(obj):
        return {f.name: _json_ready(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def emit(args, command: str, result: dict, rows=None, fieldnames=None) -> None:
    fmt = args.format
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in map(_json_ready, rows):
            writer.writerow({k: row[k] for k in fieldnames})
        text = buf.getvalue()
    elif fmt == "pretty":
        lines = [f"# {command}"]
        for key, value in sorted(_json_ready(result).items()):
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    else:
        envelope = {"schema": SCHEMA_VERSION, "command": command, "result": _json_ready(result)}
        text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- command bodies longer than one expression ------------------------------------


def _pair(args, dim) -> rdual.OrthonormalPair:
    if args.e_basis and args.h_basis:
        return rdual.OrthonormalPair(_vector_system(args.e_basis), _vector_system(args.h_basis))
    if args.random_pair:
        return rdual.OrthonormalPair.random(np.random.default_rng(args.seed), dim)
    return rdual.OrthonormalPair.standard(dim)


def _rdual_transform(args):
    f = _vector_system(args.file)
    return {"system": rdual.r_dual(f, _pair(args, f.ambient_dim))}


def _rdual_verify(args):
    if args.file:
        f = _vector_system(args.file)
    else:
        f = core.random_system(np.random.default_rng(args.seed), args.random_dim, args.random_dim)
    rep = rdual.verify_rdual_theorem(f, _pair(args, f.ambient_dim))
    return {"frame_bounds": rep.frame_f, "riesz_bounds": rep.riesz_omega,
            "bound_gap": rep.bound_gap, "involution_residual": rep.involution_residual,
            "passes": rep.passes(core.resolve_tolerance(args.tolerance))}


def _rdual_check_dual_pair(args):
    f = _vector_system(args.f)
    return {"report": rdual.verify_dual_pair_biorthogonality(
        f, _vector_system(args.g), _pair(args, f.ambient_dim), args.tolerance)}


def _rdual_nseq(args):
    f = _vector_system(args.f)
    ns = rdual.n_sequence(f, _vector_system(args.omega), _pair(args, f.ambient_dim), args.tolerance)
    return {"bounds_on_span": ns.tight_bound_estimate, "report": ns.report, "system": ns.vectors}


def _extend_run(args):
    f, g = _vector_system(args.f), _vector_system(args.g)
    a, b = (_vector_system(path) if path else None for path in (args.a, args.b))
    p, q = extension.extend_to_dual_pair(f, g, a, b, args.tolerance, prune_zero=args.prune)
    return {"p": p, "q": q, "report": extension.verify_extension(f, g, p, q, args.tolerance)}


def _lattice_spec(args) -> gabor.GaborSpec:
    window = _lattice_window(args.window, args.L, np.random.default_rng(args.seed))
    return gabor.GaborSpec(args.L, args.a, args.b, window)


def _gabor_wexler_raz(args):
    rng = np.random.default_rng(args.seed)
    spec_g = gabor.GaborSpec(args.L, args.a, args.b, _lattice_window(args.window_g, args.L, rng))
    if args.window_h == "canonical-dual":
        wh = gabor.canonical_dual_window(spec_g)
    else:
        wh = _lattice_window(args.window_h, args.L, rng)
    spec_h = gabor.GaborSpec(args.L, args.a, args.b, wh)
    return {"report": gabor.wexler_raz_check(spec_g, spec_h, args.tolerance)}


def _gabor_extend(args):
    g1, h1 = (_sampled_window(spec, args.step) for spec in (args.window_g, args.window_h))
    g2, h2 = gabor.gabor_extension(g1, h1, args.a, args.b, L=args.L)
    return {"g2": g2, "h2": h2}


def _map(fn, tasks, jobs, chunksize):
    """[fn(t) for t in tasks], in order, on a pool of `jobs` processes if jobs > 1."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # about 15 ms of start, paid only here
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks, chunksize=chunksize))
    return [fn(t) for t in tasks]


def _sweep_task(task):
    """One duality-principle sweep row on a random window."""
    L, a, b, seed = task
    rng = np.random.default_rng(seed)
    spec = gabor.GaborSpec(L, a, b, rng.standard_normal(L) + 1j * rng.standard_normal(L))
    report = gabor.duality_principle_check(spec)
    det = report.details
    return {"L": L, "a": a, "b": b, "lowerA": det["frame_lower"], "upperB": det["frame_upper"],
            "adjoint_lower": det["adjoint_riesz_lower"], "adjoint_upper": det["adjoint_riesz_upper"],
            "residual": max(report.residuals.values())}


def _gabor_sweep(args):
    core._check_work(4 * core._PASS_WORK * args.windows * sum(args.L_list),
                     "the sweep's lattices (at most 4L per length L), each a pass per window")
    tasks = []
    for L in args.L_list:
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for a in divisors:
            for b in divisors:
                for _ in range(args.windows):
                    tasks.append((L, a, b, args.seed + 1_000_003 * len(tasks)))
    rows = _map(_sweep_task, tasks, args.jobs, chunksize=16)
    return {"rows": rows, "worst_residual": max((row["residual"] for row in rows), default=0.0)}


def _wavepacket_bounds(args):
    g, grid = _freq_function(args.g), dil.WavePacketGrid(args.a_values, args.b, args.c_values)
    bounds, report = dil.wave_packet_frame_bounds(g, grid, ceiling=args.ceiling)
    return {"bounds": bounds, "bessel_bound": bounds.upper, "report": report}


def _wavepacket_lic(args):
    grid = dil.WavePacketGrid(args.a_values, args.b, args.c_values)
    value, report = dil.lic_estimate(_freq_function(args.psi), grid, _freq_function(args.f))
    return {"value": value, "report": report}


def _wavepacket_bessel_probe(args):
    g = dil.freq_indicator(0.0, 1.0, amplitude=args.amplitude)
    rows, report = dil.bessel_divergence_probe(
        g, b=args.b, c_step=args.c_step, ceiling=args.ceiling, rule=args.rule)
    return {"rows": [{"terms": t, "partial_sum": v} for t, v in rows], "report": report}


def _scan_task(task):
    cell = bsp.classify_cell(*task)
    return {"a": cell.a, "b": cell.b, "status": cell.status, "A": cell.bounds_estimate.lower,
            "B": cell.bounds_estimate.upper, "method": cell.method}


def _bspline_scan(args):
    core._check_work(core._PASS_WORK * len(args.a_grid) * len(args.b_grid), "the cells of the scan")
    tasks = [(args.N, a, b, not args.no_estimates)
             for a in args.a_grid for b in args.b_grid]
    return {"rows": _map(_scan_task, tasks, args.jobs, chunksize=4)}


def _bspline_dual_window(args):
    window, report = bsp.dual_window_solve(args.N, args.b, shift_range=args.K, tolerance=args.tolerance)
    return {"window": window, "report": report}


def _lambda_set(args) -> expo.LambdaSet:
    if args.file:
        return expo.LambdaSet.from_json_dict(_load_json(args.file))
    if not args.lambdas:
        raise FrameLabError("supply --lambdas or --file")
    return expo.LambdaSet(args.lambdas)


# -- the command table -----------------------------------------------------------


def _opt(*flags, **kwargs):
    return flags, kwargs


def _required(*flags, **kwargs):
    return _opt(*flags, required=True, **kwargs)


COMMON = (
    _opt("--format", choices=("json", "csv", "pretty"), default="json"),
    _opt("--output", default=None, help="write to a file instead of stdout"),
)
TOLERANCE = _opt("--tolerance", type=core.resolve_tolerance, default=None,
                 help="override the pass tolerance (default: FRAMELAB_TOLERANCE or 1e-10)")
SEED = _opt("--seed", type=_natural, default=0, help="seed for randomized inputs")
JOBS = _opt("--jobs", type=_positive_int, default=1, help="worker processes")
FILE = _required("--file")
F_G = (_required("--f"), _required("--g"))
MODE = _opt("--mode", choices=("full_space", "span"), default="full_space")
PAIR = (_opt("--e-basis"), _opt("--h-basis"), _opt("--random-pair", action="store_true"), SEED)
LATTICE = tuple(_required(flag, type=_positive_int) for flag in ("--L", "--a", "--b"))
WINDOW = (_opt("--window", default="random"), SEED)
STEP = _opt("--step", type=_positive_number, default=gabor.DEFAULT_STEP)
SAMPLED_PAIR = (_required("--window-g"), _required("--window-h"),
                _required("--a", type=_number), _required("--b", type=_number), STEP)
PSI_PAIR = (_opt("--psit", default=None), _opt("--b", type=_number, default=1.0), TOLERANCE)
WAVE_PACKET_GRID = (
    _opt("--a-values", type=_float_list, default="1"),
    _opt("--b", type=_number, default=1.0),
    _opt("--c-values", type=_range, default="-8:8:1"),
)
ORDER = _required("--N", type=int)
LAMBDAS = (_opt("--lambdas", type=_float_list, default=None), _opt("--file", default=None))
DPS = _opt("--dps", type=int, default=expo.DEFAULT_DPS,
           help=f"extended-precision digits, {expo.MIN_DPS} to {expo.MAX_DPS} (default: {expo.DEFAULT_DPS})")


class Command(NamedTuple):
    op: str
    help: str
    options: tuple
    #: parsed args -> result dict; a "report" with verdict "fail" or "passes" False exits 1
    run: Callable[[argparse.Namespace], dict]
    #: CSV columns of result["rows"]; empty for commands without tabular output
    fields: tuple = ()


COMMANDS = {
    ("frame", "synthesis/analysis operators, bounds, duals"): (
        Command("bounds", "optimal frame bounds (extreme eigenvalues of the frame operator)",
                (FILE, MODE),
                lambda a: {"bounds": core.frame_bounds(_vector_system(a.file), a.mode), "mode": a.mode}),
        Command("riesz", "optimal Riesz-sequence bounds (extreme Gram eigenvalues)", (FILE,),
                lambda a: {"bounds": core.riesz_bounds(_vector_system(a.file))}),
        Command("dual", "canonical dual family via the inverse frame operator",
                (FILE, MODE, TOLERANCE),
                lambda a: {"system": core.canonical_dual(_vector_system(a.file), a.mode, a.tolerance)}),
        Command("check-dual", "dual-pair reconstruction identity for two families",
                F_G + (TOLERANCE,),
                lambda a: {"report": core.duality_check(_vector_system(a.f), _vector_system(a.g),
                                                        a.tolerance)}),
        Command("gram", "cross Gram matrix <f_j, g_k> (biorthogonality when it is the identity)",
                F_G, lambda a: {"matrix": core.cross_gram(_vector_system(a.f), _vector_system(a.g))}),
    ),
    ("rdual", "R-dual transform and its duality theorems"): (
        Command("transform", "the R-dual family across two orthonormal bases",
                (FILE,) + PAIR, _rdual_transform),
        Command("verify",
                "R-dual bound transfer: frame bounds become Riesz-sequence bounds, with involution",
                (_opt("--file", default=None), _opt("--random-dim", type=_positive_int, default=8))
                + PAIR + (TOLERANCE,), _rdual_verify),
        Command("check-dual-pair", "dual frames if and only if the R-duals are biorthogonal",
                F_G + PAIR + (TOLERANCE,), _rdual_check_dual_pair),
        Command("nseq", "tight-frame-with-bound-1 criterion on the span of a Riesz sequence",
                (_required("--f"), _required("--omega")) + PAIR + (TOLERANCE,), _rdual_nseq),
    ),
    ("extend", "complete Bessel family pairs to dual frames"): (
        Command("run", "dual-frame extension: append the deficiency image of an auxiliary dual pair",
                F_G + (_opt("--a", default=None), _opt("--b", default=None),
                       _opt("--prune", action="store_true",
                            help="drop zero extension vectors and their partners"), TOLERANCE),
                _extend_run),
    ),
    ("gabor", "finite cyclic lattices and sampled-line checks"): (
        Command("bounds", "optimal bounds of the lattice system", LATTICE + WINDOW,
                lambda a: {"bounds": gabor.gabor_frame_bounds(_lattice_spec(a))}),
        Command("duality",
                "duality principle: lattice frame bounds equal adjoint-lattice Riesz bounds",
                LATTICE + WINDOW + (TOLERANCE,),
                lambda a: {"report": gabor.duality_principle_check(_lattice_spec(a), a.tolerance)}),
        Command("wexler-raz",
                "Wexler-Raz: dual frames iff the scaled adjoint systems are biorthogonal",
                LATTICE + (_opt("--window-g", default="random"),
                           _opt("--window-h", default="canonical-dual"), SEED, TOLERANCE),
                _gabor_wexler_raz),
        Command("commute",
                "inverse frame operator commutes with the lattice generators T_a and M_b; "
                "the residual bounds every lattice shift",
                LATTICE + WINDOW + (TOLERANCE,),
                lambda a: {"report": gabor.frame_operator_commutation_check(_lattice_spec(a),
                                                                            a.tolerance)}),
        Command("ron-shen",
                "Ron-Shen / Janssen criterion: translation sums equal b at shift zero and vanish otherwise",
                SAMPLED_PAIR + (TOLERANCE,),
                lambda a: {"report": gabor.ron_shen_duality_check(
                    _sampled_window(a.window_g, a.step), _sampled_window(a.window_h, a.step),
                    a.a, a.b, a.tolerance)}),
        Command("extend", "Gabor-structured dual-pair extension on a cyclic realization",
                SAMPLED_PAIR + (_opt("--L", type=_positive_int, default=None),), _gabor_extend),
        Command("hrt",
                "Heil-Ramanathan-Topiwala probe: smallest singular value of finite time-frequency shifts",
                (_required("--window"),
                 _required("--points", type=_points,
                           help="semicolon-separated lam,mu pairs, e.g. '0,0;1,0;0,1'"),
                 STEP, TOLERANCE),
                lambda a: {"report": gabor.hrt_independence(_sampled_window(a.window, a.step),
                                                            a.points, a.tolerance)}),
        Command("sweep", "duality-principle sweep over all divisor lattices with random windows",
                (_opt("--L-list", type=_int_list, default="4,6,8,12"),
                 _opt("--windows", type=_positive_int, default=5), SEED, JOBS),
                _gabor_sweep,
                ("L", "a", "b", "lowerA", "upperB", "adjoint_lower", "adjoint_upper", "residual")),
    ),
    ("wavelet", "dyadic dilation systems on the frequency side"): (
        Command("check-dual",
                "dual dyadic wavelet frames at translation step b (the wave-packet criterion at "
                "a = 2, c = {0}): scaling sums equal b, shift classes 2^j (1/b)Z vanish",
                (_opt("--psi", default="shannon"),) + PSI_PAIR,
                lambda a: {"report": dil.wavelet_duality_check(*_psi_pair(a), b=a.b,
                                                               tolerance=a.tolerance)}),
    ),
    ("wavepacket", "combined dilation/translation/modulation systems"): (
        Command("bounds", "translation-overlap sufficient bounds (Bessel bound and frame certificate)",
                (_required("--g"),) + WAVE_PACKET_GRID + (_opt("--ceiling", type=float, default=1e15),),
                _wavepacket_bounds),
        Command("check-dual",
                "dual wave-packet frames: offset sums, shifted products, exact ratio classes",
                (_required("--psi"), _opt("--a", type=_number, default=2.0),
                 _opt("--c-values", type=_range, default="0"),
                 _opt("--skip-full", action="store_true")) + PSI_PAIR,
                lambda a: {"report": dil.wave_packet_duality_check(
                    *_psi_pair(a), a=a.a, b=a.b, c_values=a.c_values, tolerance=a.tolerance,
                    full_check=not a.skip_full)}),
        Command("lic", "local integrability sum of a class-D test function",
                (_required("--psi"), _required("--f")) + WAVE_PACKET_GRID, _wavepacket_lic),
        Command("bessel-probe",
                "divergence probe: covering offsets with bounded dilations defeat the Bessel bound",
                (_opt("--b", type=_number, default=1.0), _opt("--c-step", type=_number, default=1.0),
                 _opt("--amplitude", type=_number, default=4.0),
                 _opt("--ceiling", type=float, default=1e6),
                 _opt("--rule", choices=("inverse_linear", "dyadic"), default="inverse_linear")),
                _wavepacket_bessel_probe, ("terms", "partial_sum")),
    ),
    ("bspline", "cardinal B-splines and their lattice phase diagram"): (
        Command("eval", "values by Horner's rule on the exact piece polynomials",
                (ORDER, _required("--x", type=_float_list)),
                lambda a: {"x": a.x, "values": bsp.bspline_eval(a.N, a.x)}),
        Command("fourier", "closed-form transform values",
                (ORDER, _required("--gamma", type=_float_list)),
                lambda a: {"gamma": a.gamma, "values": np.atleast_1d(bsp.bspline_fourier(a.N, a.gamma))}),
        Command("props", "support, positivity, unit integral, partition of unity", (ORDER, TOLERANCE),
                lambda a: {"report": bsp.property_suite(a.N, a.tolerance)}),
        Command("scan",
                "phase diagram over (a, b): certified frame cells, certified failures, undecided",
                (ORDER, _required("--a-grid", type=_range), _required("--b-grid", type=_range),
                 _opt("--no-estimates", action="store_true"), JOBS),
                _bspline_scan, ("a", "b", "status", "A", "B", "method")),
        Command("dual-window", "dual window as a finite combination of integer shifts of the spline",
                (ORDER, _required("--b", type=_number), _opt("--K", type=int, default=None), TOLERANCE),
                _bspline_dual_window),
    ),
    ("exp", "finite exponential systems on (-pi, pi)"): (
        Command("gram", "exact Gram matrix of the exponential system", LAMBDAS,
                lambda a: {"matrix": expo.exp_gram(_lambda_set(a))}),
        Command("bound", "optimal lower bound on the span (smallest Gram eigenvalue)",
                LAMBDAS + (DPS,),
                lambda a: {"lower_bound": expo.lower_bound(_lambda_set(a), dps=a.dps)}),
        Command("crude", "factorial lower-bound estimate, evaluated in log space",
                (ORDER, _required("--delta", type=_number)),
                lambda a: expo.crude_bound(a.N, a.delta)._asdict()),
        Command("decay", "lower-bound decay table for nested frequency families",
                (_opt("--family", default="half_integer"),
                 _opt("--n-max", type=_positive_int, default=20), DPS),
                lambda a: {"rows": expo.decay_study(a.family, a.n_max, a.dps)},
                ("N", "lower", "crude", "ratio", "log10_lower", "log10_crude")),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="framelab", description="Numerical laboratory for frame theory at desk scale.")
    groups = root.add_subparsers(dest="group", required=True)
    for (group, group_help), commands in COMMANDS.items():
        ops = groups.add_parser(group, help=group_help).add_subparsers(dest="op", required=True)
        for cmd in commands:
            parser = ops.add_parser(cmd.op, help=cmd.help, description=cmd.help)
            for flags, kwargs in COMMON + cmd.options:
                parser.add_argument(*flags, **kwargs)
            parser.set_defaults(command=cmd)
    return root


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cmd = args.command
        if args.format == "csv" and not cmd.fields:
            raise FrameLabError(f"{args.group} {cmd.op} has no tabular output; use --format json")
        result = cmd.run(args)
        emit(args, f"{args.group} {cmd.op}", result,
             result["rows"] if cmd.fields else None, cmd.fields)
    except (FrameLabError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input ({exc})", file=sys.stderr)
        return 2
    failed = getattr(result.get("report"), "verdict", None) == "fail" or result.get("passes") is False
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
