"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them); the
assertions carry the same conditions.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from framelab.core import (
    canonical_dual,
    frame_bounds,
    frame_operator,
    random_system,
    standard_basis,
    synthesis,
    analysis,
)
from framelab.rdual import OrthonormalPair, verify_dual_pair_biorthogonality, \
    verify_rdual_theorem
from framelab.extension import extend_to_dual_pair, verify_extension
from framelab.gabor import (
    GaborSpec,
    HRT_CAVEAT,
    TFPoint,
    canonical_dual_window,
    duality_principle_check,
    frame_operator_commutation_check,
    gabor_frame_bounds,
    hrt_independence,
    ron_shen_duality_check,
    sampled_gaussian,
    sampled_indicator,
    wexler_raz_check,
)
from framelab.dilation import (
    FreqFunction,
    WavePacketGrid,
    bessel_divergence_probe,
    freq_indicator,
    shannon_wavelet,
    wave_packet_bessel_bound,
    wave_packet_frame_bounds,
    wavelet_duality_check,
)
from framelab.bspline import (
    STATUS_FRAME,
    STATUS_ZERO,
    bspline_eval,
    bspline_fourier,
    classify_cell,
    dual_window_solve,
)
from framelab.exponentials import LambdaSet, decay_study, lower_bound
from oracles import rayleigh_extremes

SWEEP_LENGTHS = (4, 6, 8, 12, 16, 24)
WINDOWS_PER_LATTICE = 20


def report_line(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_01_frame_core_oracle():
    rng = np.random.default_rng(2024)
    bounds_ok = True
    dual_ok = True
    produced = 0
    while produced < 200:
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(0, 7))
        system = random_system(rng, count, dim)
        produced += 1
        fb = frame_bounds(system)
        S = frame_operator(system)
        lo, hi = rayleigh_extremes(S, rng, samples=4096, iterations=1200)
        bounds_ok &= abs(fb.upper - hi) <= 1e-3 and abs(fb.lower - lo) <= 1e-3

        if count == 0:
            continue
        span_lower = frame_bounds(system, "span").lower
        if span_lower <= 1e-8:
            continue  # degenerate draw: canonical dual is ill-posed by design
        mode = "full_space" if fb.lower > 1e-8 else "span"
        dual = canonical_dual(system, mode, tolerance=1e-9)
        scale = max(1.0, float(np.abs(system.vectors).max()))
        for probe in system.vectors:
            rebuilt = synthesis(system, analysis(dual, probe))
            dual_ok &= float(np.linalg.norm(rebuilt - probe)) <= 1e-10 * scale

    report_line(1, "spectral bounds match Rayleigh-quotient search to 1e-3 "
                   "and canonical-dual reconstruction is below 1e-10", bounds_ok and dual_ok)


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_rdual_theorem_suite():
    rng = np.random.default_rng(7)
    involution_ok = True
    bounds_ok = True
    agreement = 0
    for trial in range(100):
        pair = OrthonormalPair.random(rng, 8)
        f = random_system(rng, 8, 8)
        rep = verify_rdual_theorem(f, pair)
        involution_ok &= rep.involution_residual <= 1e-12 * max(1.0, float(np.abs(f.vectors).max()))
        bounds_ok &= rep.bound_gap <= 1e-10

        if trial % 2 == 0 and frame_bounds(f).lower > 1e-6:
            g = canonical_dual(f)
        else:
            g = random_system(rng, 8, 8)
        if verify_dual_pair_biorthogonality(f, g, pair).passed:
            agreement += 1
    report_line(2, "R-dual involution at 1e-12, bound transfer at relative 1e-10, "
                   f"verdict agreement {agreement}/100",
                involution_ok and bounds_ok and agreement == 100)


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_03_extension_suite():
    rng = np.random.default_rng(11)
    union_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        count = int(rng.integers(0, dim + 1))
        f = random_system(rng, count, dim)
        g = random_system(rng, count, dim)
        p, q = extend_to_dual_pair(f, g)
        rep = verify_extension(f, g, p, q)
        union_ok &= rep.passed and rep.residuals["duality"] <= 1e-10

    onb = standard_basis(5)
    p, q = extend_to_dual_pair(onb, onb)
    zero_ok = float(np.abs(p.vectors).max()) <= 1e-12
    report_line(3, "100 random Bessel pairs extend with union residual below 1e-10; "
                   "already-dual input yields zero extension windows", union_ok and zero_ok)


# -- criteria 4 and 5 (shared sweep) --------------------------------------------


@pytest.fixture(scope="module")
def lattice_sweep():
    rng = np.random.default_rng(99)
    records = []
    for L in SWEEP_LENGTHS:
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for a in divisors:
            for b in divisors:
                windows = [rng.standard_normal(L) + 1j * rng.standard_normal(L)
                           for _ in range(WINDOWS_PER_LATTICE)]
                records.append((L, a, b, windows))
    return records


def test_criterion_04_duality_principle_and_wexler_raz(lattice_sweep):
    duality_failures = 0
    wr_disagreements = 0
    checked = 0
    for L, a, b, windows in lattice_sweep:
        for i, w in enumerate(windows):
            spec = GaborSpec(L, a, b, w)
            if not duality_principle_check(spec, tolerance=1e-10).passed:
                duality_failures += 1
            partner = GaborSpec(L, a, b, windows[(i + 1) % len(windows)])
            if not wexler_raz_check(spec, partner).passed:
                wr_disagreements += 1
            checked += 1
            if i == 0:
                fb = gabor_frame_bounds(spec)
                if fb.is_frame(1e-8):
                    dual = GaborSpec(L, a, b, canonical_dual_window(spec))
                    if not wexler_raz_check(spec, dual).passed:
                        wr_disagreements += 1
    ok = duality_failures == 0 and wr_disagreements == 0
    report_line(4, f"duality principle equality and Wexler-Raz equivalence on "
                   f"{checked} lattice systems (L in {SWEEP_LENGTHS}), zero failures", ok)


def test_criterion_05_commutation(lattice_sweep):
    worst = 0.0
    checked = 0
    for L, a, b, windows in lattice_sweep:
        for w in windows[:5]:
            spec = GaborSpec(L, a, b, w)
            fb = gabor_frame_bounds(spec)
            if fb.lower < 1e-6:
                continue
            rep = frame_operator_commutation_check(spec, tolerance=1e-10)
            worst = max(worst, rep.residuals["commutator"])
            checked += 1
    report_line(5, f"frame-operator commutation below 1e-10 on {checked} frames "
                   f"(worst {worst:.2e})", worst <= 1e-10 and checked > 0)


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06_ron_shen_and_dual_window():
    chi = sampled_indicator(0.0, 1.0)
    base = ron_shen_duality_check(chi, chi, 1.0, 1.0)
    chi_ok = base.residuals["ron_shen"] <= 1e-12

    solve_ok = True
    for b in (0.25, 1.0 / 3.0):
        _, rep = dual_window_solve(2, b, tolerance=1e-8)
        solve_ok &= rep.passed and rep.residuals["ron_shen"] <= 1e-8
    report_line(6, "unit-indicator self-duality at 1e-12 and order-2 dual-window "
                   "solves at 1e-8 for b = 1/4, 1/3", chi_ok and solve_ok)


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_07_bspline_suite():
    # recurrence vs repeated trapezoidal convolution
    inv_step = 131072
    h = 1.0 / inv_step
    first = np.ones(inv_step + 1)
    first[0] = first[-1] = 0.5
    cur = first
    conv_ok = True
    rng = np.random.default_rng(42)
    for N in range(2, 9):
        m = len(cur) + len(first) - 1
        nfft = 1 << (m - 1).bit_length()
        cur = np.fft.irfft(np.fft.rfft(cur, nfft) * np.fft.rfft(first, nfft), nfft)[:m] * h
        x = rng.uniform(-0.5, N + 0.5, 1000)
        oracle = np.interp(x, h * np.arange(len(cur)), cur, left=0.0, right=0.0)
        conv_ok &= float(np.abs(oracle - bspline_eval(N, x)).max()) <= 1e-10

    nodes, weights = np.polynomial.legendre.leggauss(64)
    fourier_ok = True
    for N in range(1, 7):
        for gamma in np.linspace(-8, 8, 33):
            total = 0.0j
            for k in range(N):
                xs = k + (nodes + 1) / 2
                total += np.sum(weights * bspline_eval(N, xs) * np.exp(-2j * np.pi * xs * gamma)) / 2
            fourier_ok &= abs(bspline_fourier(N, gamma) - total) <= 1e-8

    partition_ok = True
    xs = np.linspace(0.0, 3.0, 4001)
    for N in range(1, 9):
        acc = np.zeros_like(xs)
        for k in range(-N - 2, N + 5):
            acc += bspline_eval(N, xs - k)
        partition_ok &= float(np.abs(acc - 1.0).max()) <= 1e-10

    a_grid = np.arange(0.25, 1.76, 0.25)
    b_grid = np.arange(0.10, 0.46, 0.05)
    region = [classify_cell(2, a, b, attach_estimates=False) for a in a_grid for b in b_grid]
    region_ok = all(c.status == STATUS_FRAME for c in region)
    zero_ok = all(classify_cell(2, 2.0, b).status == STATUS_ZERO for b in b_grid)
    b2_ok = all(classify_cell(2, a, 2.0, attach_estimates=False).status != STATUS_FRAME
                for a in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 1.9))

    ok = conv_ok and fourier_ok and partition_ok and region_ok and zero_ok and b2_ok
    report_line(7, "spline recurrence/transform/partition oracles and the order-2 "
                   "phase-diagram certificates", ok)


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_wave_packet_soundness_and_divergence():
    rng = np.random.default_rng(13)
    P = 64
    step = 1.0 / P
    sound_ok = True
    for _ in range(20):
        vals = rng.uniform(0.1, 1.0, P) * np.exp(2j * np.pi * rng.uniform(0, 1, P))
        g = FreqFunction(0.0, step, vals, (0.0, 1.0))
        offsets = list(range(int(rng.integers(3, 6))))
        grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=offsets)
        centers = (np.arange(len(offsets) * P) + 0.5) * step + min(offsets)
        bounds, _ = wave_packet_frame_bounds(g, grid, gamma_grid=centers)
        bessel, _ = wave_packet_bessel_bound(g, grid, gamma_grid=centers)

        rows = []
        for c in offsets:
            gu = g.values_at(centers - c)
            for k in range(P):
                rows.append(np.exp(-2j * np.pi * k * centers) * gu)
        V = np.array(rows) * math.sqrt(step)
        S = V.T @ V.conj()
        ev = np.linalg.eigvalsh((S + S.conj().T) / 2)
        sound_ok &= bessel >= ev[-1] - 1e-6
        if bounds.lower > 0:
            sound_ok &= bounds.lower <= ev[0] + 1e-6

    g = freq_indicator(0.0, 1.0, step=1 / 16, amplitude=4.0)
    rows, probe = bessel_divergence_probe(g, b=1.0, c_step=1.0, ceiling=1e6)
    diverged = probe.residuals["ceiling_not_exceeded"] == 0.0 and rows[-1][1] > 1e6

    report_line(8, "translation-overlap bounds sandwich the spectral estimates on 20 "
                   "band-limited instances (1e-6) and the covering-offset probe "
                   "exceeds the 1e6 ceiling", sound_ok and diverged)


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_09_wavelet_duality():
    psi = shannon_wavelet()
    shannon = wavelet_duality_check(psi, psi, b=1.0)
    shannon_ok = (shannon.passed
                  and shannon.residuals["scaling_sum"] <= 1e-12
                  and shannon.residuals["shifted_sums"] <= 1e-12)

    zero = FreqFunction(psi.start, psi.step, np.zeros(psi.count), psi.band)
    zero_ok = True
    for b in (1.0, 0.5, 2.0):
        rep = wavelet_duality_check(psi, zero, b=b)
        zero_ok &= (not rep.passed) and rep.residuals["scaling_sum"] == b
    report_line(9, "band-limited tiling pair passes at 1e-12; zero generator fails "
                   "with residual exactly b", shannon_ok and zero_ok)


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_exponentials():
    pair_ok = abs(lower_bound(LambdaSet([0.0, 0.5])) - (2 * np.pi - 4)) <= 1e-10

    half_rows = decay_study("half_integer", 40, dps=60)
    lows = [r.lower for r in half_rows]
    decreasing_ok = all(v2 < v1 for v1, v2 in zip(lows, lows[1:]))
    small_ok = lows[-1] < 1e-3
    crude_half_ok = all(r.crude <= r.lower for r in half_rows)

    int_rows = decay_study("integer", 40)
    crude_int_ok = all(r.crude <= r.lower for r in int_rows)

    ok = pair_ok and decreasing_ok and small_ok and crude_half_ok and crude_int_ok
    report_line(10, "crude factorial bound below the optimal bound up to N = 40, "
                    "half-integer decay strictly decreasing and below 1e-3 at N = 40, "
                    "two-point bound equals 2 pi - 4", ok)


# -- criterion 11 --------------------------------------------------------------


def test_criterion_11_hrt_probe():
    g = sampled_gaussian(half_width=6.0)
    pts = [TFPoint(0, 0), TFPoint(1, 0), TFPoint(0, 1), TFPoint(1, 1)]
    rep = hrt_independence(g, pts)
    ok = rep.details["sigma_min"] > 1e-3 and HRT_CAVEAT in rep.notes
    single = hrt_independence(g, [TFPoint(0.3, -0.7)])
    ok &= HRT_CAVEAT in single.notes
    report_line(11, "Gaussian unit-lattice square is numerically independent "
                    "(sigma_min above 1e-3) and every report carries the "
                    "non-proof caveat", ok)


# -- criterion 12 --------------------------------------------------------------


def test_criterion_12_cli_determinism():
    cmd = [sys.executable, "-m", "framelab.cli", "gabor", "sweep",
           "--L-list", "4,6,8", "--windows", "3", "--seed", "7", "--format", "csv"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout

    jcmd = [sys.executable, "-m", "framelab.cli", "gabor", "duality", "--L", "6",
            "--a", "2", "--b", "3", "--window", "random", "--seed", "7"]
    jfirst = subprocess.run(jcmd, capture_output=True)
    jsecond = subprocess.run(jcmd, capture_output=True)
    ok &= jfirst.returncode == 0 and jfirst.stdout == jsecond.stdout
    report_line(12, "fixed-seed sweeps and reports are byte-identical across runs", ok)
