"""Bitwise oracles for the shared translation-overlap kernel.

The B-spline scanner and the wave-packet bounds both run on
dilation._overlap_sums.  The oracles below are the separate loops it
replaced, kept verbatim in substance: painless_bounds and the wide-range
translation_overlap_bounds of the scanner, and the per-function
triple-sum passes of the wave-packet bounds.  Every value must agree to
the last bit wherever the oracle returns.
"""

import math

import numpy as np
import pytest

from framelab import bspline, dilation
from framelab.bspline import (
    STATUS_FRAME,
    STATUS_UNDECIDED,
    STATUS_ZERO,
    _scan_grid,
    bspline_eval,
    classify_cell,
    translation_overlap_bounds,
)
from framelab.dilation import (
    FreqFunction,
    WavePacketGrid,
    _coverage_box,
    _edge_margin,
    _k_range,
    wave_packet_bessel_bound,
    wave_packet_frame_bounds,
)


def bits(*values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# -- scanner oracles ----------------------------------------------------------


def painless_oracle(N, a, b, period_points):
    xs = _scan_grid(a, period_points, (k for k in range(N + 1)))
    diag = np.zeros_like(xs)
    for n in range(-int(math.ceil(N / a)) - 1, 2):
        diag += bspline_eval(N, xs - n * a) ** 2
    slack = 0.0 if N == 1 else 2.0 * (int(math.floor(N / a)) + 1) * (a / period_points) / 2
    return float(diag.min()), float(diag.max()), slack


def overlap_oracle(N, a, b, period_points):
    k_max = int(math.ceil(b * N)) + 1
    shifts = [k / b for k in range(-k_max, k_max + 1) if k != 0]
    xs = _scan_grid(a, period_points, [k + s for k in range(N + 1) for s in [0.0] + shifts])
    n_max = int(math.ceil(2 * N / a)) + 1
    diag = np.zeros_like(xs)
    off = np.zeros_like(xs)
    for n in range(-n_max, n_max + 1):
        g0 = bspline_eval(N, xs - n * a)
        if not np.any(g0):
            continue
        diag += g0 ** 2
        for s in shifts:
            off += np.abs(g0 * bspline_eval(N, xs - n * a - s))
    terms = (int(math.floor(N / a)) + 1) * (len(shifts) + 1)
    slack = 0.0 if N == 1 else 2.0 * terms * (a / period_points) / 2
    return float((diag - off).min()), float((diag + off).max()), slack


def classify_oracle(N, a, b, period_points=1024):
    """(status, lower, upper, method) of the scanner without finite-section estimates."""
    if b * N <= 1 + 1e-12:
        inf_, sup_, slack = painless_oracle(N, a, b, period_points)
        if inf_ == 0.0:
            return STATUS_ZERO, 0.0, (sup_ + slack) / b, "painless diagonal vanishes exactly"
        if inf_ - slack > 0:
            return STATUS_FRAME, (inf_ - slack) / b, (sup_ + slack) / b, "painless periodization"
        return STATUS_UNDECIDED, 0.0, (sup_ + slack) / b, "painless grid estimate below slack"
    lo, hi, slack = overlap_oracle(N, a, b, max(period_points, 2048))
    if lo - slack > 0:
        return (STATUS_FRAME, (lo - slack) / b, (hi + slack) / b,
                "translation-overlap sufficient condition")
    return STATUS_UNDECIDED, 0.0, (hi + slack) / b, "sufficient condition inconclusive"


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_classify_cell_matches_oracle_bitwise(N):
    # b*N on both sides of the painless threshold b*N = 1; a = N - 0.1 puts
    # the painless inf below the slack, a = N + 0.5 makes it vanish
    for a in (0.3, 0.75, 1.0, 1.6, N - 0.1, N + 0.5):
        for bN in (0.5, 1.0, 1.2, 2.5):
            b = bN / N
            cell = classify_cell(N, a, b, period_points=256, attach_estimates=False)
            status, lower, upper, method = classify_oracle(N, a, b, period_points=256)
            assert (cell.status, cell.method) == (status, method)
            assert bits(cell.bounds_estimate.lower, cell.bounds_estimate.upper) == bits(lower, upper)


def test_classify_cell_matches_oracle_bitwise_on_the_benchmark_grid():
    # the scan_decay cells: N = 2..5, a = 0.25..1.75, b = 0.10..0.45 and 1.0,
    # default period_points
    for N in (2, 3, 4, 5):
        for a in (0.25 * k for k in range(1, 8)):
            for b in [round(0.10 + 0.05 * k, 2) for k in range(8)] + [1.0]:
                cell = classify_cell(N, a, b, attach_estimates=False)
                status, lower, upper, method = classify_oracle(N, a, b)
                assert (cell.status, cell.method) == (status, method)
                assert bits(cell.bounds_estimate.lower, cell.bounds_estimate.upper) == \
                    bits(lower, upper)


def test_overlap_bounds_match_oracles_bitwise():
    for N, a, b, points in ((1, 0.7, 0.5, 64), (2, 0.5, 0.25, 1024), (2, 1.9, 0.5, 100),
                            (3, 1.25, 0.6, 512), (4, 0.9, 0.4, 300), (5, 2.2, 0.2, 128)):
        oracle = painless_oracle if b * N <= 1 else overlap_oracle
        assert bits(*translation_overlap_bounds(N, a, b, points)) == bits(*oracle(N, a, b, points))


# -- wave-packet oracles --------------------------------------------------------


def triple_sums_oracle(g_hat, grid, gammas, ceiling):
    diag = np.zeros(gammas.shape)
    off = np.zeros(gammas.shape)
    ks = [k for k in _k_range(g_hat.band, grid.b) if k != 0]
    for a in grid.a_values:
        base = gammas / a
        for c in grid.c_values:
            u = base - c
            g0 = np.abs(g_hat.values_at(u))
            if not np.any(g0):
                continue
            diag += g0 ** 2
            for k in ks:
                off += g0 * np.abs(g_hat.values_at(u - k / grid.b))
            if float((diag + off).max()) > ceiling * grid.b:
                return None, None
    return diag, off


def _midpoint_grids(lo, hi, p):
    return [lo + (hi - lo) * (np.arange(n) + 0.5) / n for n in (p, 2 * p)]


def bessel_oracle(g_hat, grid, ceiling, gamma_grid):
    """(bound, details) or (inf, None) on overflow, the trimmed inf grids of
    the frame bounds included."""
    lo, hi = _coverage_box(g_hat, grid)
    margin = _edge_margin(g_hat, grid)
    t_lo, t_hi = lo + margin, hi - margin
    grids = ([np.asarray(gamma_grid, dtype=float)] if gamma_grid is not None
             else _midpoint_grids(lo, hi, grid.gamma_points))
    best, estimates = 0.0, []
    for gammas in grids:
        diag, off = triple_sums_oracle(g_hat, grid, gammas, ceiling)
        if diag is None:
            return math.inf, None
        estimates.append(float((diag + off).max()) / grid.b)
        best = max(best, estimates[-1])
    if gamma_grid is None and t_hi > t_lo:
        for gammas in _midpoint_grids(t_lo, t_hi, grid.gamma_points):
            if triple_sums_oracle(g_hat, grid, gammas, ceiling)[0] is None:
                return math.inf, None
    return best, {"bessel_bound": best,
                  **{f"estimate_resolution_{i}": e for i, e in enumerate(estimates)}}


def frame_oracle(g_hat, grid, ceiling, gamma_grid):
    """(lower, upper, details) or (0, inf, None) on overflow; raises TypeError
    where only the inf-grid pass overflows, as the replaced code did."""
    lo, hi = _coverage_box(g_hat, grid)
    margin = _edge_margin(g_hat, grid)
    t_lo, t_hi = lo + margin, hi - margin
    if gamma_grid is not None:
        sup_grids = inf_grids = [np.asarray(gamma_grid, dtype=float)]
    else:
        p = grid.gamma_points
        sup_grids = _midpoint_grids(lo, hi, p)
        inf_grids = _midpoint_grids(t_lo, t_hi, p) if t_hi > t_lo else []
    upper = 0.0
    for gammas in sup_grids:
        diag, off = triple_sums_oracle(g_hat, grid, gammas, ceiling)
        if diag is None:
            return 0.0, math.inf, None
        upper = max(upper, float((diag + off).max()) / grid.b)
    lower_raw = -math.inf if not inf_grids else math.inf
    for gammas in inf_grids:
        diag, off = triple_sums_oracle(g_hat, grid, gammas, ceiling)
        lower_raw = min(lower_raw, float((diag - off).min()) / grid.b)
    conclusive = lower_raw > 0 and math.isfinite(lower_raw)
    details = {"lower_raw": lower_raw if math.isfinite(lower_raw) else -1.0, "upper": upper,
               "inf_window_lo": t_lo, "inf_window_hi": t_hi, "edge_margin": margin}
    return (max(lower_raw, 0.0) if conclusive else 0.0), upper, details


def random_instance(rng):
    step = 1.0 / int(rng.integers(4, 33))
    count = int(rng.integers(2, 40))
    start = step * int(rng.integers(-20, 20))
    values = rng.uniform(0.0, 2.0, count) * (rng.uniform(size=count) < 0.8)
    g = FreqFunction(start, step, values + 1j * rng.uniform(-1, 1, count),
                     (start, start + step * count))
    grid = WavePacketGrid(
        a_values=rng.uniform(0.3, 3.0, int(rng.integers(1, 4))),
        b=float(rng.uniform(0.2, 2.0)),
        c_values=rng.uniform(-4.0, 4.0, int(rng.integers(1, 6))),
        gamma_points=int(rng.integers(2, 48)),
    )
    lo, hi = _coverage_box(g, grid)
    gamma_grid = rng.uniform(lo - 1.0, hi + 1.0, int(rng.integers(1, 64)))
    return g, grid, gamma_grid


@pytest.mark.parametrize("ceiling", [1e15, 3.0, math.inf])
def test_wave_packet_bounds_match_oracles_bitwise(ceiling):
    rng = np.random.default_rng(20261018)
    seen = {"overflow": 0, "finite": 0}
    for _ in range(120):
        g, grid, points = random_instance(rng)
        for gamma_grid in (None, points):
            value, rep_b = wave_packet_bessel_bound(g, grid, ceiling, gamma_grid)
            bounds, rep_f = wave_packet_frame_bounds(g, grid, ceiling, gamma_grid)
            o_value, o_details = bessel_oracle(g, grid, ceiling, gamma_grid)
            assert bits(value) == bits(o_value)
            if o_details is None:
                assert "Bessel violated" in rep_b.notes
            else:
                assert rep_b.details.keys() == o_details.keys()
                assert bits(*rep_b.details.values()) == bits(*o_details.values())
            assert bits(value) == bits(bounds.upper)  # the Bessel bound is the frame upper bound
            try:
                lower, upper, details = frame_oracle(g, grid, ceiling, gamma_grid)
            except TypeError:  # only the inf-grid pass overflowed
                assert bits(bounds.lower, bounds.upper) == bits(0.0, math.inf)
                assert "Bessel violated" in rep_f.notes
                continue
            assert bits(bounds.lower, bounds.upper) == bits(lower, upper)
            if details is None:
                assert "Bessel violated" in rep_f.notes
                seen["overflow"] += 1
            else:
                assert rep_f.details.keys() == details.keys()
                assert bits(*rep_f.details.values()) == bits(*details.values())
                seen["finite"] += 1
    assert seen["finite"] > 0
    if ceiling == 3.0:
        assert seen["overflow"] > 0


def test_kernel_calls_stay_within_the_block(monkeypatch):
    # no values_at call of the kernel gets more than 2^14 points unless one
    # grid row alone is larger
    kernel = dilation._overlap_sums
    calls = []

    def recording(values_at, dilations, offsets, shifts, gammas, *args):
        def wrapped(u):
            calls.append((np.size(u), np.size(gammas)))
            return values_at(u)
        return kernel(wrapped, dilations, offsets, shifts, gammas, *args)

    monkeypatch.setattr(bspline, "_overlap_sums", recording)
    monkeypatch.setattr(dilation, "_overlap_sums", recording)
    for N, a, b in ((2, 0.25, 0.45), (5, 0.25, 1.0), (3, 1.75, 0.1)):
        classify_cell(N, a, b, attach_estimates=False)
    rng = np.random.default_rng(5)
    g, grid, _ = random_instance(rng)
    lo, hi = _coverage_box(g, grid)
    wave_packet_frame_bounds(g, grid, gamma_grid=np.linspace(lo, hi, 20000))
    wave_packet_frame_bounds(g, grid)
    assert calls
    assert all(points <= max(2 ** 14, row) for points, row in calls)
    # rows are batched, and a row above the block size is evaluated alone
    assert any(points > row for points, row in calls)
    assert any(points == row > 2 ** 14 for points, row in calls)
