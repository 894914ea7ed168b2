"""Bitwise oracles for the shared translation-overlap kernel.

The B-spline scanner and the wave-packet bounds both run on
dilation._overlap_sums.  The oracles below are the separate loops it
replaced, kept verbatim in substance: the painless and the wide-range
translation-overlap bounds of the scanner, and the per-function
triple-sum passes of the wave-packet bounds, read at the library's piece
points (_bound_points).  Every value must agree to the last bit wherever
the oracle returns.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from framelab import bspline, core, dilation
from framelab.bspline import (
    STATUS_FRAME,
    STATUS_UNDECIDED,
    STATUS_ZERO,
    _overlap_bounds,
    _scan_grid,
    bspline_eval,
    classify_cell,
)
from framelab.core import DomainError
from framelab.dilation import (
    FreqFunction,
    WavePacketGrid,
    _bound_points,
    _coverage_box,
    _edge_margin,
    _k_range,
    lic_estimate,
    wave_packet_bessel_bound,
    wave_packet_frame_bounds,
)


@pytest.fixture(autouse=True)
def empty_painless_memo():
    """Each test starts and ends with an empty memo of painless bounds, so no test reads
    a column that another one left, computed with _overlap_sums, _scan_grid or _horner
    replaced."""
    bspline._painless_bounds.cache_clear()
    yield
    bspline._painless_bounds.cache_clear()


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


def overlap_sums_oracle(N, offsets, shifts, xs):
    """diag and off of the scanner, one masked spline call per (offset, shift) term."""
    diag = np.zeros_like(xs)
    off = np.zeros_like(xs)
    for c in offsets:
        g0 = bspline_eval(N, xs - c)
        if not np.any(g0):
            continue
        diag += g0 ** 2
        for s in shifts:
            off += np.abs(g0 * bspline_eval(N, xs - c - s))
    return diag, off


def scanner_shifts(N, b):
    k_max = int(math.ceil(b * N)) + 1
    return [k / b for k in range(-k_max, k_max + 1) if k != 0]


def overlap_oracle(N, a, b, period_points):
    shifts = scanner_shifts(N, b)
    xs = _scan_grid(a, period_points, [k + s for k in range(N + 1) for s in [0.0] + shifts])
    n_max = int(math.ceil(2 * N / a)) + 1
    diag, off = overlap_sums_oracle(N, [n * a for n in range(-n_max, n_max + 1)], shifts, xs)
    terms = (int(math.floor(N / a)) + 1) * (len(shifts) + 1)
    slack = 0.0 if N == 1 else 2.0 * terms * (a / period_points) / 2
    return float((diag - off).min()), float((diag + off).max()), slack


def density_oracle(N, a, b):
    """The method of a density-theorem zero certificate, or None: a b > 1, or
    a b = 1 for a continuous window (N >= 2), on the exact product."""
    ab = Fraction(a) * Fraction(b)
    if ab > 1:
        return "density theorem: a b > 1"
    if ab == 1 and N >= 2:
        return "density theorem: a b = 1 and the Zak transform of B_N vanishes"
    return None


def classify_oracle(N, a, b, period_points=1024):
    """(status, lower, upper, method) of the scanner without finite-section estimates."""
    density = density_oracle(N, a, b)
    if b * N <= 1 + 1e-12:
        inf_, sup_, slack = painless_oracle(N, a, b, period_points)
        if inf_ == 0.0:
            return STATUS_ZERO, 0.0, (sup_ + slack) / b, "painless diagonal vanishes exactly"
        if density:
            return STATUS_ZERO, 0.0, (sup_ + slack) / b, density
        if inf_ - slack > 0:
            return STATUS_FRAME, (inf_ - slack) / b, (sup_ + slack) / b, "painless periodization"
        return STATUS_UNDECIDED, 0.0, (sup_ + slack) / b, "painless grid estimate below slack"
    lo, hi, slack = overlap_oracle(N, a, b, max(period_points, 2048))
    if density:
        return STATUS_ZERO, 0.0, (hi + slack) / b, density
    if b >= 2 and b == int(b):  # never painless: b N > 1
        return (STATUS_ZERO, 0.0, (hi + slack) / b,
                "integer b >= 2: the transform of B_N vanishes at every 1 - k b")
    if lo - slack > 0:
        return (STATUS_FRAME, (lo - slack) / b, (hi + slack) / b,
                "translation-overlap sufficient condition")
    return STATUS_UNDECIDED, 0.0, (hi + slack) / b, "sufficient condition inconclusive"


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_classify_cell_matches_oracle_bitwise(N):
    # b*N on both sides of the painless threshold b*N = 1; a = N - 0.1 puts
    # the painless inf below the slack, a = N + 0.5 makes it vanish; b = 2 and 3
    # are integers, below and past the density bound
    for a in (0.3, 0.75, 1.0, 1.6, N - 0.1, N + 0.5):
        for bN in (0.5, 1.0, 1.2, 2.5, 2 * N, 3 * N):
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
        # _overlap_bounds keeps these grids below the scanner's 2048-point floor
        painless = b * N <= 1
        oracle = painless_oracle if painless else overlap_oracle
        shifts = [] if painless else scanner_shifts(N, b)
        assert bits(*_overlap_bounds(N, a, shifts, points)) == bits(*oracle(N, a, b, points))


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


def oracle_points(g_hat, grid, gamma_grid):
    """(points, inner, window) of the library: its pieces or the given grid."""
    shifts = [k / grid.b for k in _k_range(g_hat.band, grid.b) if k != 0]
    return _bound_points(g_hat, grid, shifts, gamma_grid)


def bessel_oracle(g_hat, grid, ceiling, gamma_grid):
    """(bound, details) or (inf, None) on overflow."""
    gammas, _, _ = oracle_points(g_hat, grid, gamma_grid)
    diag, off = triple_sums_oracle(g_hat, grid, gammas, ceiling)
    if diag is None:
        return math.inf, None
    best = max(0.0, float((diag + off).max()) / grid.b)
    return best, {"bessel_bound": best}


def frame_oracle(g_hat, grid, ceiling, gamma_grid):
    """(lower, upper, details) or (0, inf, None) on overflow."""
    gammas, inner, (t_lo, t_hi, margin) = oracle_points(g_hat, grid, gamma_grid)
    diag, off = triple_sums_oracle(g_hat, grid, gammas, ceiling)
    if diag is None:
        return 0.0, math.inf, None
    upper = max(0.0, float((diag + off).max()) / grid.b)
    lower_raw = float((diag - off)[inner].min()) / grid.b if inner.any() else -math.inf
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
            lower, upper, details = frame_oracle(g, grid, ceiling, gamma_grid)
            assert bits(bounds.lower, bounds.upper) == bits(lower, upper)
            if details is None:
                assert "Bessel violated" in rep_f.notes
                seen["overflow"] += 1
            else:
                assert rep_f.details.keys() == details.keys()
                assert bits(*rep_f.details.values()) == bits(*details.values())
                if gamma_grid is not None:  # a minimum over given points is only a sample
                    assert "not a certificate" in rep_f.notes and rep_f.verdict == "undecided"
                    assert "not a certificate" in rep_b.notes and rep_b.verdict == "undecided"
                seen["finite"] += 1
    assert seen["finite"] > 0
    if ceiling == 3.0:
        assert seen["overflow"] > 0


def recording_horner(N, evaluated):
    """_horner that records every point it is given; each must lie in [0, N)."""
    def values_at(x):
        assert np.all((x >= 0) & (x < N)), "a point outside the support was evaluated"
        evaluated.append(x.size)
        return bspline._horner(N, x)
    return values_at


@pytest.mark.parametrize("N, a, b", [(2, 0.5, 0.6), (3, 1.25, 0.6), (4, 0.9, 0.4), (5, 0.25, 1.0),
                                     (1, 1.3, 1.0), (3, 2.7, 1.0)])
def test_support_skips_dead_shifts_bitwise(N, a, b):
    # offsets and shifts whose translates miss [0, N) add only +0.0: the live
    # slices evaluate fewer spline points, only inside the support, and keep
    # every bit of the per-term oracle
    shifts = scanner_shifts(N, b)
    xs = _scan_grid(a, 256, [k + s for k in range(N + 1) for s in [0.0] + shifts])
    offsets = [n * a for n in range(-int(math.ceil(N / a)) - 3, 4)]
    evaluated = []
    sums = dilation._overlap_sums(recording_horner(N, evaluated), [1.0], offsets, shifts, xs,
                                  (0.0, float(N)))
    oracle = overlap_sums_oracle(N, offsets, shifts, xs)
    assert bits(*np.concatenate(sums)) == bits(*np.concatenate(oracle))
    assert 0 < sum(evaluated) < xs.size * len(offsets) * (1 + len(shifts))


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 3.0), (-0.7, 1.9), (0.3, 2.1)])
def test_live_slices_end_where_the_computed_difference_leaves_the_support(lo, hi):
    # the indicator of [lo, hi) at points within an ulp of every slice end
    # fl(bound + s + c): a binary search for bound + s + c alone misplaces
    # many of these ends, and only the computed fl(fl(x - c) - s) decides
    def indicator(u):
        return ((u >= lo) & (u < hi)).astype(float)

    def values_at(u):
        assert np.all((u >= lo) & (u < hi)), "a point outside the support was evaluated"
        return indicator(u)

    rng = np.random.default_rng(19)
    offsets = rng.uniform(-5.0, 5.0, 40)
    shifts = [-1.0, 0.6, 1.0]
    ends = np.add.outer([lo, hi], np.add.outer([0.0] + shifts, offsets)).ravel()
    xs = np.sort(np.concatenate([np.nextafter(ends, -np.inf), ends, np.nextafter(ends, np.inf)]))
    diag, off = np.zeros_like(xs), np.zeros_like(xs)
    for c in offsets:
        g0 = indicator(xs - c)
        diag += g0 ** 2
        for s in shifts:
            off += np.abs(g0 * indicator(xs - c - s))
    sums = dilation._overlap_sums(values_at, [1.0], offsets, shifts, xs, (lo, hi))
    assert bits(*np.concatenate(sums)) == bits(*diag, *off)


def test_kernel_callers_pass_ascending_points(monkeypatch):
    # the kernel slices the points by binary search and does not sort them:
    # every production caller hands it ascending points
    kernel = dilation._overlap_sums
    callers = []

    def checked(values_at, dilations, offsets, shifts, gammas, support, *args, **kwargs):
        pts = np.ravel(gammas)
        assert np.all(pts[1:] >= pts[:-1]), "the kernel was given points out of order"
        callers.append(pts.size)
        return kernel(values_at, dilations, offsets, shifts, gammas, support, *args, **kwargs)

    monkeypatch.setattr(bspline, "_overlap_sums", checked)
    monkeypatch.setattr(dilation, "_overlap_sums", checked)
    for N in (2, 3, 4, 5):
        for k in range(1, 8):
            for b in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 1.0):
                classify_cell(N, 0.25 * k, b)
    scanner_calls = len(callers)
    # one call per non-painless cell and one per painless (N, a) column, whose bounds
    # do not depend on b: 112 cells and 28 columns
    assert scanner_calls == 112 + 28
    rng = np.random.default_rng(7)
    for _ in range(10):
        g, grid, points = random_instance(rng)
        wave_packet_frame_bounds(g, grid)
        wave_packet_frame_bounds(g, grid, gamma_grid=rng.permutation(points))
        lic_estimate(g, grid, FreqFunction(-1.0, 0.25, rng.uniform(0.0, 1.0, 12), (-1.0, 2.0)))
    # two bound calls and one per dilation and side of the local-integrability sum
    assert len(callers) > scanner_calls + 20


def test_painless_bounds_are_computed_once_per_column(monkeypatch):
    # b sweeps inside each (N, a) column: its painless cells share one kernel call,
    # every other cell makes its own, and a column scanned again after another one
    # is computed again, since the memo holds one column
    kernel = dilation._overlap_sums
    shifts = []

    def counted(values_at, dilations, offsets, cell_shifts, *args, **kwargs):
        shifts.append(len(cell_shifts))
        return kernel(values_at, dilations, offsets, cell_shifts, *args, **kwargs)

    monkeypatch.setattr(bspline, "_overlap_sums", counted)
    columns = [(2, 0.5, (0.1, 0.6, 0.2, 1.0, 0.3)), (3, 0.75, (0.3, 0.2, 0.5, 0.1))]
    for N, a, bs in columns:
        for b in bs:
            classify_cell(N, a, b, attach_estimates=False)
    assert shifts.count(0) == 2 and len(shifts) == 2 + 3
    N, a, bs = columns[0]
    classify_cell(N, a, bs[0], attach_estimates=False)
    classify_cell(N, a, bs[2], attach_estimates=False)
    assert shifts.count(0) == 3 and len(shifts) == 6


@pytest.mark.parametrize("a_values, c_values", [
    ([3.0], [-2.0, 0.0, 1.5]),           # a > 1
    ([1.7, 2.9, 0.35], [-1.0, 0.25, 3.0]),  # non-dyadic dilations
    ([1.0, 2.0, 4.0], list(range(-3, 4))),
])
def test_wave_packet_sums_match_the_triple_sums_at_b_1(a_values, c_values):
    # b = 1.0 makes the shifts integers, so shifted pieces meet the cell
    # edges of g; a shuffled gamma_grid reads the same sums at the same points
    rng = np.random.default_rng(11)
    g = FreqFunction(-0.5, 0.125, rng.uniform(0.0, 2.0, 20) * (rng.uniform(size=20) < 0.7),
                     (-0.5, 2.0))
    grid = WavePacketGrid(a_values, 1.0, c_values)
    lo, hi = _coverage_box(g, grid)
    shuffled = rng.permutation(np.linspace(lo - 1, hi + 1, 3001))
    for gamma_grid in (None, shuffled):
        bounds, report = wave_packet_frame_bounds(g, grid, math.inf, gamma_grid)
        lower, upper, details = frame_oracle(g, grid, math.inf, gamma_grid)
        assert bits(bounds.lower, bounds.upper) == bits(lower, upper)
        assert bits(*report.details.values()) == bits(*details.values())


def test_kernel_calls_stay_within_the_block(monkeypatch):
    # every values_at call of the kernel gets at most 2^14 points, all inside
    # the support it was given; rows are batched, and a row above the block
    # size is split
    kernel = dilation._overlap_sums
    calls = []

    def recording(values_at, dilations, offsets, shifts, gammas, support, *args, **kwargs):
        def wrapped(u):
            assert np.all((u >= support[0]) & (u < support[1]))
            calls.append((np.size(u), np.size(gammas)))
            return values_at(u)
        return kernel(wrapped, dilations, offsets, shifts, gammas, support, *args, **kwargs)

    monkeypatch.setattr(bspline, "_overlap_sums", recording)
    monkeypatch.setattr(dilation, "_overlap_sums", recording)
    for N, a, b in ((2, 0.25, 0.45), (5, 0.25, 1.0), (3, 1.75, 0.1)):
        classify_cell(N, a, b, attach_estimates=False)
    rng = np.random.default_rng(5)
    g, grid, _ = random_instance(rng)
    lo, hi = _coverage_box(g, grid)
    wave_packet_frame_bounds(g, grid, gamma_grid=np.linspace(lo, hi, 40000))
    wave_packet_frame_bounds(g, grid)
    assert calls
    assert all(points <= 2 ** 14 for points, _ in calls)
    assert any(points > row for points, row in calls)
    assert any(points == 2 ** 14 < row for points, row in calls)


def test_kernel_charges_its_cost_before_any_evaluation(monkeypatch):
    # with a per-point cost the kernel charges 16 units per term for the slice
    # search, then the cost per live point, and refuses before values_at is
    # called; without one it charges nothing and returns the same sums
    rng = np.random.default_rng(23)
    g = FreqFunction(-0.5, 0.125, rng.uniform(0.5, 2.0, 20), (-0.5, 2.0))
    grid = WavePacketGrid([1.0, 2.0], 1.0, [-1.0, 0.0, 1.5])
    shifts = [k / grid.b for k in _k_range(g.band, grid.b) if k != 0]
    gammas = np.linspace(-3.0, 6.0, 4001)
    live = []

    def values_at(u):
        live.append(u.size)
        return g.values_at(u)

    expected = dilation._overlap_sums(values_at, grid.a_values, grid.c_values, shifts, gammas,
                                      g.support(), cost=2)
    terms = 16 * len(grid.a_values) * len(grid.c_values) * (1 + len(shifts))
    assert terms < 2 * sum(live)

    def refused(*args):
        raise AssertionError("values_at was called on a refused call")

    for budget, match in ((terms - 1, "live slices"), (2 * sum(live) - 1, "live points")):
        monkeypatch.setattr(core, "MAX_WORK", budget)
        with pytest.raises(DomainError, match=match):
            dilation._overlap_sums(refused, grid.a_values, grid.c_values, shifts, gammas,
                                   g.support(), cost=2)
    monkeypatch.setattr(core, "MAX_WORK", 0)
    sums = dilation._overlap_sums(g.values_at, grid.a_values, grid.c_values, shifts, gammas,
                                  g.support())
    assert bits(*np.concatenate(sums)) == bits(*np.concatenate(expected))

    # lic_estimate passes the same cost: a test function of 4000 cells, whose
    # first kernel call (110223 live points) is charged more than the shift
    # window and the breakpoints before it, is refused by the kernel
    monkeypatch.undo()
    rng = np.random.default_rng(29)
    f = FreqFunction(0.0, 1 / 2000, rng.uniform(0.5, 1.0, 4000), (0.0, 2.0))
    psi = FreqFunction(1.0, 0.125, rng.uniform(0.5, 2.0, 8), (1.0, 2.0))
    lic_grid = WavePacketGrid([1.0], 3.0, [-1.0, 0.0, 1.5])
    value, _ = lic_estimate(psi, lic_grid, f)
    assert value.hex() == "0x1.098504d001d5fp+4"  # where the work is charged moves no bit
    monkeypatch.setattr(core, "MAX_WORK", 2 * 110223 - 1)
    monkeypatch.setattr(FreqFunction, "values_at", refused)
    with pytest.raises(DomainError, match="110223 live points"):
        lic_estimate(psi, lic_grid, f)


def dyadic_instance(rng):
    """Few-valued g on a 2^-s grid, b = 1, a in {1, 2}, and offsets on the
    grid of g moved by a few 2^-12, so some pieces of the sums are 2^-12
    wide.  Every breakpoint, window edge and piece midpoint is then a dyadic
    number computed exactly, on the 2^-12 grid or halfway between two of its
    points."""
    step = 2.0 ** -int(rng.integers(1, 5))
    count = int(rng.integers(2, 13))
    start = step * int(rng.integers(-8, 8))
    values = rng.choice(np.append(rng.uniform(0.1, 2.0, 3), 0.0), count)
    g = FreqFunction(start, step, values, (start, start + step * count))
    offsets = int(rng.integers(1, 5))
    grid = WavePacketGrid(
        a_values=[[1.0], [2.0], [1.0, 2.0]][int(rng.integers(3))],
        b=1.0,
        c_values=(step * rng.integers(-int(2 / step), int(2 / step), offsets)
                  + 2.0 ** -12 * rng.integers(-3, 4, offsets)),
    )
    return g, grid


def test_piece_extremes_equal_a_scan_finer_than_every_piece():
    # each cell [i, i + 1) 2^-12 of the scan lies in one piece of the sums, so
    # its midpoints meet every piece: their extremes are the exact sup and inf
    rng = np.random.default_rng(16)
    for _ in range(25):
        g, grid = dyadic_instance(rng)
        lo, hi = _coverage_box(g, grid)
        margin = _edge_margin(g, grid)
        scan = lo + (np.arange(int((hi - lo) * 2 ** 12)) + 0.5) * 2.0 ** -12
        diag, off = triple_sums_oracle(g, grid, scan, math.inf)
        inner = (scan > lo + margin) & (scan < hi - margin)
        _, report = wave_packet_frame_bounds(g, grid)
        assert report.details["upper"] == max(0.0, float((diag + off).max()))
        assert report.details["lower_raw"] == (float((diag - off)[inner].min())
                                               if inner.any() else -1.0)
