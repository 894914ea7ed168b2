"""Bitwise oracles for the shared translation-overlap kernel.

The B-spline scanner and the wave-packet bounds both run on
dilation._overlap_sums.  The oracles below are the separate loops it
replaced, kept verbatim in substance: one masked spline call per
(translate, shift) term of the scanner, read at the scanner's own Chebyshev
nodes, and the per-function triple-sum passes of the wave-packet bounds,
read at the library's piece points (_bound_points).  Every value must agree
to the last bit wherever the oracle returns.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from framelab import bspline, core, dilation
from framelab.bspline import (
    STATUS_FRAME,
    STATUS_UNDECIDED,
    STATUS_ZERO,
    _check_cell,
    _overlap_bounds,
    bspline_eval,
    classify_cell,
)
from framelab.core import DomainError, _as_rational
from framelab.dilation import (
    FreqFunction,
    freq_indicator,
    WavePacketGrid,
    _bound_points,
    _coverage_box,
    _edge_margin,
    _k_range,
    lic_estimate,
    wave_packet_bessel_bound,
    wave_packet_frame_bounds,
)
from oracles import greedy_row_blocks, order_one_bounds, scan_grid, scanner_shifts


def bits(*values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# -- scanner oracles ----------------------------------------------------------


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


def oracle_bounds(N, a, b, monkeypatch):
    """_overlap_bounds of the cell with the kernel replaced by the per-term loop, on the
    same points; the spline is read by bspline_eval, with masks."""
    def per_term(values_at, dilations, offsets, shifts, gammas, support):
        assert list(dilations) == [1.0] and support == (0.0, float(N))
        return overlap_sums_oracle(N, offsets, shifts, gammas)

    with monkeypatch.context() as patch:
        patch.setattr(bspline, "_overlap_sums", per_term)
        return _overlap_bounds(N, a, scanner_shifts(N, b))


def density_oracle(N, a, b):
    """The method of a density-theorem zero certificate, or None: a b > 1, or
    a b = 1 for a continuous window (N >= 2), on the exact product of the
    rationals a and b (core._as_rational)."""
    ab = _as_rational(a, "a") * _as_rational(b, "b")
    if ab > 1:
        return "density theorem: a b > 1"
    if ab == 1 and N >= 2:
        return "density theorem: a b = 1 and the Zak transform of B_N vanishes"
    return None


def classify_oracle(N, a, b, monkeypatch):
    """(status, lower, upper, method) of the scanner without finite-section estimates."""
    density = density_oracle(N, a, b)
    # order 1 counts its translates exactly, without the kernel
    lo, hi = map(float, order_one_bounds(a, b)) if N == 1 else oracle_bounds(N, a, b, monkeypatch)
    if _as_rational(b, "b") * N <= 1:
        if (a >= N if N > 1 else a > 1):
            return STATUS_ZERO, 0.0, hi / b, "painless diagonal vanishes exactly"
        if density:
            return STATUS_ZERO, 0.0, hi / b, density
        if lo > 0:
            return STATUS_FRAME, lo / b, hi / b, "painless periodization"
        return STATUS_UNDECIDED, 0.0, hi / b, "painless enclosure not positive"
    if density:
        return STATUS_ZERO, 0.0, hi / b, density
    if b >= 2 and b == int(b):  # never painless: b N > 1
        return (STATUS_ZERO, 0.0, hi / b,
                "integer b >= 2: the transform of B_N vanishes at every 1 - k b")
    if lo > 0:
        return STATUS_FRAME, lo / b, hi / b, "translation-overlap sufficient condition"
    return STATUS_UNDECIDED, 0.0, hi / b, "sufficient condition inconclusive"


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_classify_cell_matches_oracle_bitwise(N, monkeypatch):
    # b*N on both sides of the painless threshold b*N = 1; a = N - 0.1 puts
    # the painless inf near 0, a = N + 0.5 makes it vanish; b = 2 and 3
    # are integers, below and past the density bound
    for a in (0.3, 0.75, 1.0, 1.6, N - 0.1, N + 0.5):
        for bN in (0.5, 1.0, 1.2, 2.5, 2 * N, 3 * N):
            b = bN / N
            bspline._painless_bounds.cache_clear()
            cell = classify_cell(N, a, b, attach_estimates=False)
            status, lower, upper, method = classify_oracle(N, a, b, monkeypatch)
            assert (cell.status, cell.method) == (status, method)
            assert bits(cell.bounds_estimate.lower, cell.bounds_estimate.upper) == bits(lower, upper)


def test_classify_cell_matches_oracle_bitwise_on_the_benchmark_grid(monkeypatch):
    # the scan_decay cells: N = 2..5, a = 0.25..1.75, b = 0.10..0.45 and 1.0
    for N in (2, 3, 4, 5):
        for a in (0.25 * k for k in range(1, 8)):
            for b in [round(0.10 + 0.05 * k, 2) for k in range(8)] + [1.0]:
                cell = classify_cell(N, a, b, attach_estimates=False)
                status, lower, upper, method = classify_oracle(N, a, b, monkeypatch)
                assert (cell.status, cell.method) == (status, method)
                assert bits(cell.bounds_estimate.lower, cell.bounds_estimate.upper) == \
                    bits(lower, upper)


def test_overlap_bounds_match_oracles_bitwise(monkeypatch):
    for N, a, b in ((2, 0.5, 0.25), (2, 1.9, 0.5), (3, 1.25, 0.6), (4, 0.9, 0.4),
                    (5, 2.2, 0.2), (7, 0.8, 0.3), (12, 11.5, 0.05)):
        shifts = _check_cell(N, a, b)[0]
        assert shifts == scanner_shifts(N, b)
        assert bits(*_overlap_bounds(N, a, shifts)) == bits(*oracle_bounds(N, a, b, monkeypatch))


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
    xs = scan_grid(a, 256, [k + s for k in range(N + 1) for s in [0.0] + shifts])
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
    # the kernel finds windows of points and runs of shifts by binary search and
    # monotone tests, and sorts neither: every production caller hands it
    # ascending points and shifts
    kernel = dilation._overlap_sums
    callers = []

    def checked(values_at, dilations, offsets, shifts, gammas, support, *args, **kwargs):
        pts = np.ravel(gammas)
        assert np.all(pts[1:] >= pts[:-1]), "the kernel was given points out of order"
        assert np.all(np.diff(shifts) > 0), "the kernel was given shifts out of order"
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
    # do not depend on b: 112 cells and 28 columns (N = 5 at b = 0.2, read as 1/5, is painless)
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
    # the support it was given; the rows of a block share one call, and a
    # kernel call whose rows hold more than a block makes several calls
    kernel = dilation._overlap_sums
    calls = []

    def recording(values_at, dilations, offsets, shifts, gammas, support, *args, **kwargs):
        kernel_call = len({call for _, _, call in calls})

        def wrapped(u):
            assert np.all((u >= support[0]) & (u < support[1]))
            calls.append((np.size(u), np.size(gammas), kernel_call))
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
    assert all(points <= 2 ** 14 for points, _, _ in calls)
    assert any(points > row for points, row, _ in calls)
    split = [call for _, row, call in calls if row == 40000]
    assert len(split) > 2 and len(set(split)) == 1


def test_row_blocks_cover_every_window_within_the_block_size():
    # windows of rows in any order, empty ones and rows wider than a block:
    # the rows stay in order, a block holds at most 2^14 (row, term, point)
    # entries over its union window or is one row wider than that, and every
    # row's window is covered once
    rng = np.random.default_rng(41)
    for terms in (1, 3, 40, 2 ** 12, 2 ** 14 + 5):
        for _ in range(20):
            rows = int(rng.integers(1, 60))
            starts = rng.integers(0, 30000, rows)
            stops = starts + rng.choice([0, 1, 5, 400, 20000], rows) // (1 + terms // 64)
            if rng.uniform() < 0.5:
                starts, stops = np.sort(starts)[::-1], np.sort(stops)[::-1]
            blocks = dilation._row_blocks(starts, stops, terms)
            flat = [int(r) for block, _, _ in blocks for r in block]
            assert flat == sorted(flat) == [r for r in range(rows) if stops[r] > starts[r]]
            for block, start, stop in blocks:
                assert len(block) * terms * (stop - start) <= max(2 ** 14, terms) or len(block) == 1
                assert start == min(starts[block]) and stop == max(stops[block])


@st.composite
def row_windows(draw):
    """(starts, stops, terms): windows over 30000 points, empty ones anywhere, among them
    between nonempty ones and outside their union, and now and then one wider than a
    block."""
    terms = draw(st.sampled_from([1, 2, 9, 40, 2 ** 12, 2 ** 14 + 5]))
    starts, stops = [], []
    for _ in range(draw(st.integers(1, 30))):
        first = draw(st.integers(0, 30000))
        width = draw(st.sampled_from([0, 0, 1, 3, 8, 60, 500, 20000]))
        starts.append(first)
        stops.append(min(30000, first + width))
    return np.array(starts), np.array(stops), terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row_windows())
def test_the_closed_form_plan_is_the_greedy_grouping(windows):
    # when every nonempty row fits one block it is read off the arrays in one
    # step; the grouping is the row-by-row one either way, over the union of
    # the nonempty windows only
    starts, stops, terms = windows
    blocks = dilation._row_blocks(starts, stops, terms)
    assert [([int(r) for r in rows], start, stop) for rows, start, stop in blocks] == \
        greedy_row_blocks(starts.tolist(), stops.tolist(), terms)


def test_the_closed_form_plan_skips_empty_rows_outside_the_union():
    # rows 1 and 3 are empty, at points 0 and 900, outside the union [10, 40) of the
    # others; row 4 is wider than a block of 2^14 // 9 = 1820 points
    starts, stops = np.array([10, 0, 20, 900, 30]), np.array([30, 0, 25, 900, 40])
    assert [(rows.tolist(), start, stop) for rows, start, stop in
            dilation._row_blocks(starts, stops, 9)] == [([0, 2, 4], 10, 40)]
    stops[4] = 30 + 1821
    assert [(list(rows), start, stop) for rows, start, stop in
            dilation._row_blocks(starts, stops, 9)] == [([0, 2], 10, 30), ([4], 30, 1851)]


@st.composite
def shift_lists(draw, u, bound):
    """Ascending shifts around u - bound, where fl(u - s) crosses bound, some of them a
    few ulps apart there."""
    edge = u - bound
    ulps = draw(st.integers(0, 4))
    far = draw(st.lists(st.floats(-4.0, 4.0), max_size=12))
    return sorted({*(edge + k * math.ulp(edge) for k in range(-ulps, ulps + 1)),
                   *(edge + s for s in far)})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.floats(-1e3, 1e3), st.floats(-8.0, 8.0), st.data())
@example(0.1, 0.3, None)
@example(1.0, 2.0 ** -60, None)
def test_bisected_shift_runs_equal_the_array_predicates(u, bound, data):
    # a run's end is fl(u - s) >= bound counted over every shift, as one array
    # pass counts it; at the rounding boundary fl(u - s) can equal bound for an
    # s other than u - bound
    if data is None:
        edge = u - bound
        shifts, start = sorted({edge + k * math.ulp(edge) for k in range(-3, 4)} | {edge - 1.0}), 1
    else:
        shifts = data.draw(shift_lists(u, bound))
        start = data.draw(st.integers(0, len(shifts)))
    counted = int(np.count_nonzero(u - np.array(shifts) >= bound))
    assert dilation._run_end(shifts, u, bound) == counted
    assert dilation._run_end(shifts, u, bound, start) == max(start, counted)


def test_kernel_charges_its_cost_before_any_evaluation(monkeypatch):
    # with a per-entry cost the kernel charges 64 units per (dilation, offset)
    # row for the window search, then the cost per (row, term, point) entry of
    # its blocks, and refuses before values_at is called; without one it
    # charges nothing and returns the same sums
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
    windows = 64 * len(grid.a_values) * len(grid.c_values)
    # the chunks hold every evaluated entry, and less than every (row, term, point)
    entries = 47785
    assert sum(live) <= entries < len(grid.a_values) * len(grid.c_values) * (1 + len(shifts)) * 4001

    def refused(*args):
        raise AssertionError("values_at was called on a refused call")

    for budget, match in ((windows - 1, "row windows"), (2 * entries - 1, f"{entries} entries")):
        monkeypatch.setattr(core, "MAX_WORK", budget)
        with pytest.raises(DomainError, match=match):
            dilation._overlap_sums(refused, grid.a_values, grid.c_values, shifts, gammas,
                                   g.support(), cost=2)
    monkeypatch.setattr(core, "MAX_WORK", 2 * entries)
    sums = dilation._overlap_sums(g.values_at, grid.a_values, grid.c_values, shifts, gammas,
                                  g.support(), cost=2)
    assert bits(*np.concatenate(sums)) == bits(*np.concatenate(expected))
    monkeypatch.setattr(core, "MAX_WORK", 0)
    sums = dilation._overlap_sums(g.values_at, grid.a_values, grid.c_values, shifts, gammas,
                                  g.support())
    assert bits(*np.concatenate(sums)) == bits(*np.concatenate(expected))

    # lic_estimate passes the same cost: a test function of 4000 cells, whose
    # first kernel call (116093 entries) is charged more than the shift
    # window and the breakpoints before it, is refused by the kernel
    monkeypatch.undo()
    rng = np.random.default_rng(29)
    f = FreqFunction(0.0, 1 / 2000, rng.uniform(0.5, 1.0, 4000), (0.0, 2.0))
    psi = FreqFunction(1.0, 0.125, rng.uniform(0.5, 2.0, 8), (1.0, 2.0))
    lic_grid = WavePacketGrid([1.0], 3.0, [-1.0, 0.0, 1.5])
    value, _ = lic_estimate(psi, lic_grid, f)
    assert value.hex() == "0x1.098504d001d5fp+4"  # where the work is charged moves no bit
    monkeypatch.setattr(core, "MAX_WORK", 2 * 116093 - 1)
    monkeypatch.setattr(FreqFunction, "values_at", refused)
    with pytest.raises(DomainError, match="116093 entries"):
        lic_estimate(psi, lic_grid, f)


def per_term_sums(values_at, dilations, offsets, shifts, xs, support):
    """diag and off of _overlap_sums, one masked values_at call per (dilation, offset,
    shift) term at every point, added in that order."""
    lo, hi = support
    diag, off = np.zeros(xs.shape), np.zeros(xs.shape)

    def magnitude(u):
        inside = (u >= lo) & (u < hi)
        value = np.zeros(u.shape)
        value[inside] = np.abs(values_at(u[inside]))
        return value

    for a in dilations:
        for c in offsets:
            u = xs / a - c
            g0 = magnitude(u)
            diag += g0 * g0
            for s in shifts:
                off += magnitude(u - s) * g0
    return diag, off


def random_pieces(rng, lo, hi, count):
    """A FreqFunction of count complex pieces on [lo, hi)."""
    step = (hi - lo) / count
    values = rng.uniform(0.1, 2.0, count) + 1j * rng.uniform(-1.0, 1.0, count)
    return FreqFunction(lo, step, values * (rng.uniform(size=count) < 0.85), (lo, hi))


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_offsets_in_any_order_match_the_per_term_sums_bitwise(order):
    # lic_estimate passes its offsets descending; the windows of consecutive
    # rows then move down the points, and a block's union window must still
    # hold every row's own
    rng = np.random.default_rng(43)
    for _ in range(20):
        g = random_pieces(rng, -1.5, 2.5, int(rng.integers(3, 30)))
        offsets = np.sort(rng.uniform(-6.0, 6.0, int(rng.integers(1, 80))))
        offsets = {"ascending": offsets, "descending": offsets[::-1],
                   "shuffled": rng.permutation(offsets)}[order]
        shifts = np.sort(rng.uniform(-3.0, 3.0, int(rng.integers(0, 6))))
        dilations = rng.uniform(0.5, 2.0, int(rng.integers(1, 3)))
        xs = np.sort(rng.uniform(-10.0, 10.0, int(rng.integers(1, 700))))
        sums = dilation._overlap_sums(g.values_at, dilations, offsets, shifts, xs, g.support())
        oracle = per_term_sums(g.values_at, dilations, offsets, shifts, xs, g.support())
        assert bits(*np.concatenate(sums)) == bits(*np.concatenate(oracle))


def test_one_point_window_adds_its_terms_in_sequence():
    # 30 rows and 12 shifts meet the one point: a sum over the rows that adds
    # pairwise, as numpy's reductions do along a contiguous axis of more than 8
    # terms, rounds differently from adding them in order on these values
    rng = np.random.default_rng(47)
    g = random_pieces(rng, 0.0, 1.0, 64)
    offsets = rng.uniform(-0.2, 0.2, 30)
    shifts = np.sort(rng.uniform(-0.25, 0.25, 12))
    xs = np.array([0.5])
    diag, off = dilation._overlap_sums(g.values_at, [1.0], offsets, shifts, xs, g.support())
    o_diag, o_off = per_term_sums(g.values_at, [1.0], offsets, shifts, xs, g.support())
    assert bits(*diag, *off) == bits(*o_diag, *o_off)
    squares = np.abs(g.values_at(xs[0] - offsets)) ** 2
    assert np.add.reduce(squares) != o_diag[0]  # the values tell the two orders apart


def test_points_at_the_window_margin_add_nothing():
    # the windows reach a few ulps past the support: a row whose window holds
    # only such points, where fl(x - c) = hi, adds nothing, though its shifted
    # term lies inside the support there
    g = freq_indicator(0.0, 1.0, amplitude=3.0)
    xs = np.array([1.0, 2.0])
    for offsets, diag in (([0.0], 0.0), ([0.0, 1.0], 9.0)):  # x = 1 is live for c = 1
        sums = dilation._overlap_sums(g.values_at, [1.0], offsets, [0.5], xs, g.support())
        oracle = per_term_sums(g.values_at, [1.0], offsets, [0.5], xs, g.support())
        assert bits(*np.concatenate(sums)) == bits(*np.concatenate(oracle)) == \
            bits(diag, 0.0, 0.0, 0.0)


def test_a_row_wider_than_a_block_is_split_along_its_points_bitwise():
    # one row of 16500 live points and 4 terms, of which a chunk keeps only the
    # shifts that can meet [0, 1) in it: -0.5 below x = 0.5, 0.25 from 0.25 on
    # and 0.75 from 0.75 on; so the row takes 4 calls of 3 terms or fewer where
    # 4096 points a call took 5, and the next row, live on the last 165 points,
    # a call of its own
    rng = np.random.default_rng(53)
    g = random_pieces(rng, 0.0, 1.0, 40)
    xs = np.sort(rng.uniform(0.0, 1.0, 16500))
    sizes = []

    def values_at(u):
        sizes.append(u.size)
        return g.values_at(u)

    shifts = [-0.5, 0.25, 0.75]
    sums = dilation._overlap_sums(values_at, [1.0], [0.0, 0.99], shifts, xs, g.support())
    oracle = per_term_sums(g.values_at, [1.0], [0.0, 0.99], shifts, xs, g.support())
    assert bits(*np.concatenate(sums)) == bits(*np.concatenate(oracle))
    assert len(sizes) == 5 and max(sizes) <= 2 ** 14


@pytest.mark.parametrize("rows, count, shifts", [(1, 16500, 3), (1, 3000, 400), (1, 20, 2 ** 14 + 3),
                                                  (3, 4000, 60)])
def test_block_cuts_are_the_longest_chunks_within_the_block_size(rows, count, shifts):
    # each chunk keeps the run of shifts the array predicates give at its ends,
    # holds at most 2^14 (row, term, point) entries (or is one point), and one
    # point more would not fit; the chunks cover the points in order
    rng = np.random.default_rng(count)
    x = np.sort(rng.uniform(-1.0, 3.0, count))
    c_min, c_max = -0.25, -0.25 + 0.1 * (rows - 1)
    shift_list = np.sort(rng.uniform(-2.0, 2.0, shifts)).tolist()
    lo, hi = 0.0, 1.5
    cuts = dilation._block_cuts(x.tolist(), rows, c_min, c_max, shift_list, (lo, hi))
    assert [p for p, *_ in cuts] == [0] + [q for _, q, *_ in cuts[:-1]] and cuts[-1][1] == count

    def run(p, q):
        first = int(np.count_nonzero(x[p] - c_max - np.array(shift_list) >= hi))
        return first, max(first, int(np.count_nonzero(x[q - 1] - c_min - np.array(shift_list) >= lo)))

    for p, q, first, last in cuts:
        assert (first, last) == run(p, q)
        assert rows * (1 + last - first) * (q - p) <= 2 ** 14 or q == p + 1
        if q < count:
            first, last = run(p, q + 1)
            assert rows * (1 + last - first) * (q + 1 - p) > 2 ** 14


def test_a_cell_with_hundreds_of_shifts_matches_the_oracle_bitwise(monkeypatch):
    # b = 100 gives 402 shifts, most of which miss a block of the cell's points
    N, a, b = 2, 0.5, 100.0
    shifts = _check_cell(N, a, b)[0]
    assert len(shifts) == 402
    assert bits(*_overlap_bounds(N, a, shifts)) == bits(*oracle_bounds(N, a, b, monkeypatch))


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
