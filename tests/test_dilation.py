import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from framelab.core import DomainError
from framelab.dilation import (
    FreqFunction,
    WavePacketGrid,
    _fold,
    bessel_divergence_probe,
    freq_indicator,
    lic_estimate,
    shannon_wavelet,
    wave_packet_bessel_bound,
    wave_packet_duality_check,
    wave_packet_frame_bounds,
    wavelet_duality_check,
)
from oracles import grid_values_at, probe_oracle, rational_indicator_bounds


def test_freq_function_cell_semantics():
    fn = freq_indicator(0.5, 1.0)
    assert fn.values_at(0.5) == 1.0
    assert fn.values_at(0.999) == 1.0
    assert fn.values_at(1.0) == 0.0
    assert fn.values_at(0.49) == 0.0
    np.testing.assert_allclose(fn.values_at([0.6, 1.2]), [1.0, 0.0])


# -- exact pieces ----------------------------------------------------------------


def grid_functions():
    """Grid functions whose cells repeat values, so neighbours merge into pieces; the
    steps 1/3, 0.1 and 1/2000 are not dyadic."""
    rng = np.random.default_rng(3)
    fns = [shannon_wavelet(), freq_indicator(0.5, 1.0), narrow_cell_wavelet_pair()[1]]
    for step in (1 / 3, 0.1, 2.0 ** -6, 1 / 2000):
        count = int(rng.integers(4, 400))
        start = float(rng.uniform(-50.0, 50.0))
        values = rng.choice([0.0, 0.5, 1.0, 2j], count, p=[0.4, 0.2, 0.2, 0.2])
        fns.append(FreqFunction(start, step, values, (start, start + step * count)))
    return fns


def test_pieces_read_the_grid_bitwise_at_every_piece_and_cell_midpoint():
    for fn in grid_functions():
        pieces = (fn.edges[:-1] + fn.edges[1:]) / 2
        cells = fn.start + (np.arange(fn.count) + 0.5) * fn.step
        for points in (pieces, cells):
            assert fn.values_at(points).tobytes() == grid_values_at(fn, points).tobytes()


def test_pieces_are_exact_at_every_edge_and_at_the_float_below_it():
    for fn in grid_functions():
        assert np.all(np.diff(fn.edges) > 0) and fn.edges.size == fn.pieces.size + 1
        held = np.concatenate(([0], fn.pieces, [0]))
        assert np.all(held[1:] != held[:-1])  # equal neighbouring cells are merged
        assert fn.values_at(fn.edges).tolist() == held[1:].tolist()
        assert fn.values_at(np.nextafter(fn.edges, -np.inf)).tolist() == held[:-1].tolist()
        assert fn.support() == (fn.edges[0], fn.edges[-1])


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.tuples(finite, finite).map(sorted).filter(lambda pair: pair[0] < pair[1]))
@example([-0.3, 0.7])
@example([-849.5002778359652, 533.9330124270582])
@example([-1.0, 2.0 ** 53 + 2])
def test_indicator_edges_are_exactly_lo_and_hi(pair):
    # one cell of step hi - lo ends at lo + (hi - lo), an ulp off hi for about
    # half of the mixed-sign intervals, and refused for (-1, 2^53 + 2)
    lo, hi = pair
    fn = freq_indicator(lo, hi, amplitude=2.5)
    assert fn.edges.tolist() == [lo, hi] and fn.pieces.tolist() == [2.5]
    assert fn.support() == (lo, hi) and [x.tolist() for x in fn.nonzero_cells()] == [[lo], [hi]]
    with np.errstate(over="ignore"):  # below the most negative float is -inf
        below_lo, below_hi = np.nextafter([lo, hi], -np.inf)
    assert fn.values_at([below_lo, lo, below_hi, hi]).tolist() == [0.0, 2.5, 2.5, 0.0]


@pytest.mark.parametrize("lo, hi, exact", [
    (-0.3, 0.7, True),
    (-849.5002778359652, 533.9330124270582, False),  # the grid ends at 533.9330124270583
    (-1.0, 2.0 ** 53 + 2, False),  # at 2^53 + 4, past the band
    (-1e308, 1e308, False),  # its step overflows
])
def test_indicator_json_round_trips_its_edges_or_is_refused(lo, hi, exact):
    fn = freq_indicator(lo, hi)
    if exact:
        data = json.loads(json.dumps(fn.to_json_dict()))
        assert FreqFunction.from_json_dict(data).edges.tolist() == [lo, hi]
    else:
        with pytest.raises(DomainError, match="edges"):
            fn.to_json_dict()


def test_empty_and_reversed_indicators():
    assert freq_indicator(1.0, 1.0).is_zero() and freq_indicator(1.0, 1.0).band == (1.0, 1.0)
    for lo, hi in ((2.0, 1.0), (math.nan, 1.0), (0.0, math.inf)):
        with pytest.raises(DomainError, match="must be finite and not negative"):
            freq_indicator(lo, hi)


def test_off_grid_indicator_bounds_match_an_exact_rational_oracle():
    # `wavepacket bounds --g indicator:1:2.3 --a-values 1,2 --b 0.5 --c-values 0,1`:
    # 2.3 is on no 2^-k grid
    g, grid = freq_indicator(1.0, 2.3), WavePacketGrid([1.0, 2.0], 0.5, [0.0, 1.0])
    bounds, report = wave_packet_frame_bounds(g, grid)
    window = report.details["inf_window_lo"], report.details["inf_window_hi"]
    assert (bounds.lower, bounds.upper) == (2.0, 6.0) == rational_indicator_bounds(
        1.0, 2.3, grid.a_values, grid.b, grid.c_values, window)
    # three dilations; at b = 2 the shifts k/2 overlap the interval and the lower sum is negative
    for b, c_values in ((0.5, [0.0, 0.7, 1.9]), (2.0, [0.0, 0.61, 1.37, 2.93]), (0.75, [-0.4, 0.0, 1.37])):
        grid = WavePacketGrid([1.0, 2.0, 3.0], b, c_values)
        bounds, report = wave_packet_frame_bounds(g, grid)
        window = report.details["inf_window_lo"], report.details["inf_window_hi"]
        lower, upper = rational_indicator_bounds(1.0, 2.3, grid.a_values, b, c_values, window)
        assert (report.details["lower_raw"], bounds.upper) == (float(lower), float(upper))


def test_freq_function_band_validation():
    with pytest.raises(DomainError):
        FreqFunction(0.0, 0.5, [1.0, 1.0], (0.0, 0.5))


def test_shannon_pair_passes_exactly():
    psi = shannon_wavelet()
    report = wavelet_duality_check(psi, psi, b=1.0)
    assert report.passed
    assert report.residuals["scaling_sum"] <= 1e-12
    assert report.residuals["shifted_sums"] <= 1e-12


def test_zero_generator_fails_with_residual_b():
    psi = shannon_wavelet()
    zero = FreqFunction(-1.0, psi.step, np.zeros(psi.count), (-1.0, 1.0))
    for b in (1.0, 0.5):
        report = wavelet_duality_check(psi, zero, b=b)
        assert not report.passed
        assert report.residuals["scaling_sum"] == pytest.approx(b, abs=0.0)


def test_product_scaling_invariance():
    psi = shannon_wavelet()
    report = wavelet_duality_check(psi.scaled(2.0), psi.scaled(0.5), b=1.0)
    assert report.passed


def test_perturbation_moves_residual_linearly():
    psi = shannon_wavelet()
    devs = []
    for eps in (1e-3, 2e-3, 4e-3):
        bumped = psi.scaled(1.0 + eps)
        report = wavelet_duality_check(psi, bumped, b=1.0)
        devs.append(report.residuals["scaling_sum"])
        assert devs[-1] == pytest.approx(eps, rel=1e-9)
    assert devs[1] / devs[0] == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("lo, hi, c", [
    (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (-1.0, 1.0, 0.0), (1.0, 2.0, -1.5), (1.0, 2.0, -2.0), (1.0, 2.0, -1.0),
])
def test_support_touching_zero_is_not_bessel(lo, hi, c):
    # a piece holding -c, or starting or ending at it, meets a^-j gamma - c at every large j
    # on a half-line of gamma: the diagonal diverges, so the system is not Bessel, at every
    # tolerance, whichever side carries the piece
    bad, good = freq_indicator(lo, hi), freq_indicator(4.0, 5.0)
    reports = [(wave_packet_duality_check(bad, bad, a=2, b=1.0, c_values=[10.0, c]), "psi"),
               (wave_packet_duality_check(good, bad, a=3, b=0.5, c_values=[c], tolerance=2,
                                          full_check=False), "psi_tilde")]
    if c == 0:
        reports.append((wavelet_duality_check(bad, bad, b=1.0, tolerance=2), "psi"))
    for report, name in reports:
        assert report.verdict == "fail" and report.residuals == {"divergent_diagonal": math.inf}
        assert report.details == {"offset": c, "piece_lo": lo, "piece_hi": hi}
        assert f"offset c={c} puts the nonzero piece [{lo}, {hi}) of {name} at 0" in report.notes


def test_shifted_sum_violation_detected():
    # partner carrying an extra copy one unit up: the scaling sums still hit
    # b on part of the axis, but the integer-shift class alpha = 1 picks up
    # a product of size 1
    step = 2.0 ** -10
    psi = freq_indicator(0.5, 1.0)
    count = int(round(1.5 / step))
    starts = 0.5 + step * np.arange(count)
    values = np.where((starts < 1.0) | (starts >= 1.5), 1.0, 0.0)
    partner = FreqFunction(0.5, step, values, (0.5, 2.0))
    report = wavelet_duality_check(psi, partner, b=1.0)
    assert not report.passed
    assert report.residuals["shifted_sums"] == pytest.approx(1.0, abs=1e-12)


def test_wave_packet_c2_violation_detected():
    # overlapping 1/b-shifted supports with matching values break c2
    psi = freq_indicator(1.0, 3.0)  # diameter 2 > 1/b = 1
    report = wave_packet_duality_check(psi, psi, a=2, b=1.0, c_values=[0.0],
                                       full_check=True)
    assert not report.passed
    assert report.residuals["c2"] == pytest.approx(1.0, abs=1e-12)
    # the grouped full criterion must flag the same defect
    assert report.residuals["g1_offdiagonal"] > 0.5


def test_wave_packet_single_dilation_tight():
    g = freq_indicator(0.0, 1.0)
    offsets = list(range(-8, 9))
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=offsets)
    B, rep_b = wave_packet_bessel_bound(g, grid)
    assert B == pytest.approx(1.0, abs=1e-12)
    bounds, rep = wave_packet_frame_bounds(g, grid)
    assert bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)
    assert "certificate" in rep.notes


def test_wave_packet_zero_window():
    g = FreqFunction(0.0, 0.25, np.zeros(4), (0.0, 1.0))
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0.0])
    B, _ = wave_packet_bessel_bound(g, grid)
    assert B == 0.0


def test_wave_packet_spectral_gap_inconclusive():
    g = freq_indicator(0.0, 1.0)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0.0, 2.0])
    bounds, rep = wave_packet_frame_bounds(g, grid)
    assert bounds.lower == 0.0
    assert rep.verdict == "undecided"
    assert "inconclusive" in rep.notes


def test_wave_packet_bessel_soundness_against_spectral_estimate():
    # single dilation, integer offsets, full discrete period in k: the
    # discretized frame operator is diagonal and its eigenvalues are exactly
    # the diagonal sums, so A <= min eig and B >= max eig to rounding
    rng = np.random.default_rng(0)
    P = 64
    step = 1.0 / P
    for _ in range(5):
        vals = rng.uniform(0.2, 1.0, P)
        g = FreqFunction(0.0, step, vals, (0.0, 1.0))
        offsets = list(range(0, 4))
        grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=offsets)
        centers = (np.arange(4 * P) + 0.5) * step
        bounds, _ = wave_packet_frame_bounds(g, grid, gamma_grid=centers)
        B, _ = wave_packet_bessel_bound(g, grid, gamma_grid=centers)
        rows = []
        for c in offsets:
            gu = g.values_at(centers - c)
            for k in range(P):
                rows.append(np.exp(-2j * np.pi * k * centers) * gu)
        V = np.array(rows) * math.sqrt(step)
        S = V.T @ V.conj()
        ev = np.linalg.eigvalsh((S + S.conj().T) / 2)
        assert B >= ev[-1] - 1e-6
        assert bounds.lower <= ev[ev > 1e-12][0] + 1e-6 if bounds.lower > 0 else True


def test_wave_packet_duality_c2_vacuous_when_bands_small():
    psi = freq_indicator(1.0, 1.5)
    report = wave_packet_duality_check(psi, psi.scaled(0.5), a=2, b=1.0, c_values=[0.0],
                                       full_check=False)
    assert report.residuals["c2"] == 0.0


def test_wave_packet_duality_zero_partner_fails_with_b():
    psi = shannon_wavelet()
    zero = FreqFunction(-1.0, psi.step, np.zeros(psi.count), (-1.0, 1.0))
    report = wave_packet_duality_check(psi, zero, a=2, b=1.0, c_values=[0.0])
    assert not report.passed
    assert report.residuals["c1"] == pytest.approx(1.0, abs=0.0)


def test_wave_packet_duality_matches_wavelet_for_shannon():
    psi = shannon_wavelet()
    wp = wave_packet_duality_check(psi, psi, a=2, b=1.0, c_values=[0.0])
    wl = wavelet_duality_check(psi, psi, b=1.0)
    assert wp.passed == wl.passed
    assert wp.residuals["c1"] <= 1e-12
    assert wp.residuals["g1_offdiagonal"] <= 1e-12


def test_wave_packet_duality_rational_string_dilation():
    # "5/2" is the rational 5/2 of the exact class grouping, the float 2.5 elsewhere
    psi = freq_indicator(1.0, 2.5)
    as_string = wave_packet_duality_check(psi, psi, a="5/2", b=1.0, c_values=[0.0])
    as_float = wave_packet_duality_check(psi, psi, a=2.5, b=1.0, c_values=[0.0])
    assert as_string == as_float
    for bad in ("abc", "1/0"):
        with pytest.raises(DomainError, match="a must be a rational number"):
            wave_packet_duality_check(psi, psi, a=bad, b=1.0, c_values=[0.0])


def test_duality_checks_rational_string_translation_step():
    # "1/2" is the float 0.5 before the positivity test and the rational 1/2
    # of the exact class grouping, as b=0.5 is
    psi = shannon_wavelet()
    assert wavelet_duality_check(psi, psi.scaled(0.5), b="1/2") == \
        wavelet_duality_check(psi, psi.scaled(0.5), b=0.5)
    assert wave_packet_duality_check(psi, psi, a=2, b="1/2", c_values=[0.0]) == \
        wave_packet_duality_check(psi, psi, a=2, b=0.5, c_values=[0.0])
    for bad in ("x", "1/0"):
        with pytest.raises(DomainError, match="b must be a rational number"):
            wavelet_duality_check(psi, psi, b=bad)
        with pytest.raises(DomainError, match="b must be a rational number"):
            wave_packet_duality_check(psi, psi, a=2, b=bad, c_values=[0.0])


def test_corollary_consistency_c1_c2_imply_g1():
    # whenever (c1) and (c2) pass, the grouped full criterion passes too
    psi = shannon_wavelet()
    report = wave_packet_duality_check(psi, psi, a=2, b=1.0, c_values=[0.0])
    if report.residuals["c1"] <= 1e-12 and report.residuals["c2"] <= 1e-12:
        assert report.residuals["g1_offdiagonal"] <= 1e-12


def test_wave_packet_adapter_matches_spline_painless_bounds():
    # lattice systems are single-dilation wave packets: feeding the spline
    # into the translation-overlap formula with offsets m*a reproduces the
    # painless periodization bounds
    from framelab.bspline import _check_cell, _overlap_bounds, bspline_eval

    N, a, b = 2, 0.5, 0.25
    step = 1 / 64
    cells = int(round(N / step))
    cell_starts = step * np.arange(cells)
    g = FreqFunction(0.0, step, bspline_eval(N, cell_starts), (0.0, float(N)))
    offsets = [m * a for m in range(-12, 13)]
    grid = WavePacketGrid(a_values=[1.0], b=b, c_values=offsets)
    # evaluation points: one period of the diagonal, well inside the coverage
    gamma = cell_starts[cell_starts < a]
    bounds, _ = wave_packet_frame_bounds(g, grid, gamma_grid=gamma)

    diag = np.zeros_like(gamma)
    for n in range(-8, 9):
        diag += bspline_eval(N, gamma - n * a) ** 2
    assert bounds.lower == pytest.approx(diag.min() / b, abs=1e-12)
    assert bounds.upper == pytest.approx(diag.max() / b, abs=1e-12)

    # the scanner's enclosures hold these extremes, 5 and 6, within their tolerance
    inf_, sup_ = _overlap_bounds(N, a, _check_cell(N, a, b)[0])
    assert inf_ / b <= bounds.lower == pytest.approx(inf_ / b, rel=1e-3)
    assert sup_ / b >= bounds.upper == pytest.approx(sup_ / b, rel=1e-3)


def test_lic_zero_generator():
    f = freq_indicator(0.5, 1.5)
    zero = FreqFunction(0.0, 0.5, np.zeros(2), (0.0, 1.0))
    grid = WavePacketGrid(a_values=[1.0, 2.0], b=1.0, c_values=[0.0, 1.0])
    value, report = lic_estimate(zero, grid, f)
    assert value == 0.0


def test_lic_disjoint_supports():
    f = freq_indicator(10.0, 11.0)
    psi = freq_indicator(1.0, 2.0)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0.0])
    value, _ = lic_estimate(psi, grid, f)
    assert value == 0.0


def test_lic_single_dilation_matches_direct_quadrature():
    step = 1 / 128
    f = freq_indicator(0.5, 1.5)
    psi = freq_indicator(0.25, 1.25)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0.0, 1.0])
    value, report = lic_estimate(psi, grid, f)

    # independent double-sum quadrature oracle
    centers = 0.5 + step * (np.arange(128) + 0.5)
    expected = 0.0
    for n in range(-4, 5):
        for c in (0.0, 1.0):
            fsh = np.abs(f.values_at(centers + n)) ** 2
            ps = np.abs(psi.values_at(centers - c)) ** 2
            expected += float(np.sum(fsh * ps) * step)
    assert value == pytest.approx(expected, rel=1e-12)
    assert report.details["value"] == pytest.approx(value)


@pytest.mark.parametrize("b, expected", [(1.0, 1 / 32), (2.0, 1 / 16)])
def test_lic_integrates_exactly_below_the_test_function_cells(b, expected):
    # psi_hat lives on [0, 1/32), inside f_hat's one piece [0, 1) and off its
    # centre: a midpoint rule on f_hat's pieces reads 0.0.  At b = 2 the shift
    # n = 1 adds |f_hat(g + 1/2)|^2 = 1 on [0, 1/2) as well
    f = freq_indicator(0.0, 1.0)
    psi = freq_indicator(0.0, 1 / 32)
    value, report = lic_estimate(psi, WavePacketGrid(a_values=[1.0], b=b, c_values=[0.0]), f)
    assert value == expected
    assert report.details["value"] == expected


def test_divergence_probe_exceeds_ceiling():
    g = freq_indicator(0.0, 1.0, amplitude=4.0)
    rows, report = bessel_divergence_probe(g, b=1.0, c_step=1.0, ceiling=1e6)
    assert report.residuals["ceiling_not_exceeded"] == 0.0
    partials = [p for _, p in rows]
    assert all(p2 >= p1 for p1, p2 in zip(partials, partials[1:]))
    assert partials[-1] > 1e6


def test_divergence_probe_monotone_growth():
    g = freq_indicator(0.0, 1.0)
    rows, report = bessel_divergence_probe(g, b=1.0, c_step=1.0, ceiling=1e9)
    # every dilation adds 1: the orbit repeats after 4, and 10^9 + 1 terms pass 10^9
    assert report.residuals["ceiling_not_exceeded"] == 0.0
    assert report.details["dilations_used"] == 10 ** 9 + 1
    assert rows == [(4, 4.0), (10 ** 9 + 1, 1e9 + 1)]
    partials = [p for _, p in rows]
    assert all(p2 > p1 for p1, p2 in zip(partials, partials[1:]))


def test_divergence_flag_in_bessel_bound():
    # dyadic dilations with wide covering offsets blow past a small ceiling:
    # all ten dilations cover gamma < 200/512, where the diagonal sum is 1000
    g = freq_indicator(0.0, 1.0, amplitude=10.0)
    grid = WavePacketGrid(
        a_values=[2.0 ** -j for j in range(10)],
        b=1.0,
        c_values=list(range(0, 200)),
    )
    value, report = wave_packet_bessel_bound(g, grid, ceiling=500.0)
    assert value == math.inf
    assert "Bessel violated" in report.notes


def test_overflow_on_inf_grid_only_reports_bessel_violated():
    # one tall cell 2^-10 wide, inside the trimmed inf window, passes the
    # ceiling: the piece it makes is read like every other, which reports
    # the Bessel condition violated by the Bessel bound and the frame bounds
    # alike
    values = np.ones(1024)
    values[3] = 10.0
    g = FreqFunction(0.0, 1 / 1024, values, (0.0, 1.0))
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0.7 * k for k in range(9)])
    value, bessel_report = wave_packet_bessel_bound(g, grid, ceiling=51.5)
    assert value == math.inf
    assert "Bessel violated" in bessel_report.notes
    bounds, report = wave_packet_frame_bounds(g, grid, ceiling=51.5)
    assert (bounds.lower, bounds.upper) == (0.0, math.inf)
    assert "Bessel violated" in report.notes
    assert report.verdict == "fail"


def test_empty_gamma_grid_is_domain_error():
    g = freq_indicator(0.0, 1.0)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0.0])
    for bound in (wave_packet_frame_bounds, wave_packet_bessel_bound):
        with pytest.raises(DomainError, match="gamma_grid"):
            bound(g, grid, gamma_grid=[])


@pytest.mark.parametrize("ceiling", [math.nan, 0.0, -1.0, -math.inf])
def test_ceiling_must_be_positive(ceiling):
    g = freq_indicator(0.0, 1.0)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0.0])
    with pytest.raises(DomainError, match="ceiling"):
        wave_packet_frame_bounds(g, grid, ceiling=ceiling)
    with pytest.raises(DomainError, match="ceiling"):
        wave_packet_bessel_bound(g, grid, ceiling=ceiling)
    with pytest.raises(DomainError, match="ceiling"):
        bessel_divergence_probe(g, b=1.0, c_step=1.0, ceiling=ceiling)


def test_infinite_ceiling_allowed():
    g = freq_indicator(0.0, 1.0)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=list(range(-8, 9)))
    bounds, _ = wave_packet_frame_bounds(g, grid, ceiling=math.inf)
    assert bounds.lower == pytest.approx(1.0, abs=1e-12)
    value, _ = wave_packet_bessel_bound(g, grid, ceiling=math.inf)
    assert value == pytest.approx(1.0, abs=1e-12)
    _, report = bessel_divergence_probe(g, b=1.0, c_step=1.0, ceiling=math.inf)
    assert report.residuals["ceiling_not_exceeded"] == math.inf


# -- the exact periodized diagonal and the orbit walk of the probe ------------------------


def brute_force_fold(fn, period, u):
    """sum_m |fn(u - m period)|^2 in rationals, reading each piece by its edges."""
    edges, total = [Fraction(x) for x in fn.edges.tolist()] or [Fraction(0)], Fraction(0)
    for m in range(math.floor((u - edges[-1]) / period), math.floor((u - edges[0]) / period) + 1):
        for lo, hi, v in zip(edges, edges[1:], fn.pieces.tolist()):
            if lo <= u - m * period < hi:
                total += Fraction(v.real) ** 2 + Fraction(v.imag) ** 2
    return total


def piecewise(cells, values, denominator):
    """A FreqFunction with values[i] on cells i of width 1/denominator from cells[0]; its
    float edges k/denominator are rationals, read exactly when denominator is a power of 2."""
    return FreqFunction(cells / denominator, 1 / denominator, values,
                        (cells / denominator, (cells + len(values)) / denominator))


amplitudes = st.sampled_from([0, 1, 2, 3, 1 + 2j, 0.5, -1.5])
generators = st.tuples(st.integers(-12, 12), st.lists(amplitudes, min_size=1, max_size=6),
                       st.sampled_from([1, 2, 4, 8, 10])).map(lambda t: piecewise(*t))
rationals = st.tuples(st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 5, 8, 10])).map(
    lambda t: Fraction(*t))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(generators, rationals, st.lists(rationals, min_size=1, max_size=4))
def test_fold_is_the_periodized_diagonal_at_every_cut_and_between(fn, period, probes):
    cuts, values = _fold(fn, period)
    assert cuts[0] == 0 and cuts == sorted(set(cuts)) and cuts[-1] < period
    assert {Fraction(x) % period for x in fn.edges.tolist()} <= set(cuts)
    ends = cuts[1:] + [period]
    points = [(lo, v) for lo, v in zip(cuts, values)] + [
        ((lo + hi) / 2, v) for lo, hi, v in zip(cuts, ends, values)] + [
        (hi - Fraction(1, 10 ** 6) * (hi - lo), v) for lo, hi, v in zip(cuts, ends, values)]
    # and at points of several periods, read through the pieces
    for x in probes:
        k = max(i for i, lo in enumerate(cuts) if lo <= x % period)
        points.append((x, values[k]))
    for u, value in points:
        assert brute_force_fold(fn, period, u) == value


@settings(derandomize=True, max_examples=100, deadline=None)
@given(generators, rationals, rationals, st.integers(1, 10 ** 4),
       st.sampled_from(["inverse_linear", "dyadic"]))
def test_probe_first_j_equals_a_fraction_oracle(fn, b, c_step, ceiling, rule):
    # b and c_step as the decimals typed or as Fractions, both read by core._as_rational
    decimal = all(x.denominator in (1, 2, 4, 5, 8, 10) for x in (b, c_step))
    typed = (float(b), float(c_step)) if decimal else (b, c_step)
    rows, report = bessel_divergence_probe(fn, *typed, ceiling=float(ceiling), rule=rule)
    pieces = list(zip(fn.edges[:-1].tolist(), fn.edges[1:].tolist(), fn.pieces.tolist()))
    reached = probe_oracle(pieces, b, c_step, ceiling, rule, max_terms=1500)
    J = int(report.details["dilations_used"])
    if report.residuals["ceiling_not_exceeded"] == 0.0:
        if J <= 1500:
            assert reached is not None and (J, float(reached[1])) == rows[-1]
        else:
            assert reached is None
    else:  # the orbit repeats with no gain: no partial sum ever passes the ceiling
        assert reached is None and "repeats" in report.notes
    assert [t for t, _ in rows] == sorted({t for t, _ in rows}) and rows[-1][0] == J


@pytest.mark.parametrize("rule, ceiling, b, c_step, expected", [
    ("dyadic", 1e3, 1.0, 1.0, 63), ("inverse_linear", 1e4, 1.0, 1.0, 626),
    ("dyadic", 1e4, 1.0, 1.0, 626), ("dyadic", 1e6, 1.0, 1.0, 62501),
    ("dyadic", 1e6, 3.0, 0.25, 46876), ("inverse_linear", 1e6, 3.0, 0.25, 46876),
])
def test_probe_counts_of_the_old_float_draws(rule, ceiling, b, c_step, expected):
    # c_step divides 1, so every term is 16 / (b c_step) and J is the least with J 16 > C b c_step;
    # the dyadic counts are those a float walk misses: u = 0.75 2^j loses its offsets from j = 54
    # (58 read for 63) and overflows from j = 1024 (no answer for 62501 or 46876)
    g = freq_indicator(0.0, 1.0, amplitude=4.0)
    rows, report = bessel_divergence_probe(g, b=b, c_step=c_step, ceiling=ceiling, rule=rule)
    assert expected == math.floor(Fraction(ceiling) * Fraction(b) * Fraction(c_step) / 16) + 1
    assert report.details["dilations_used"] == expected and report.verdict == "pass"
    assert rows[-1] == (expected, expected * 16 / (b * c_step))
    if expected < 1000:
        assert probe_oracle([(0.0, 1.0, 4.0)], b, c_step, ceiling, rule, 1000)[0] == expected


def test_probe_walk_over_the_work_budget_is_a_domain_error():
    # u_j = 0.75 (1 + j) stays below c_step, and its orbit has 4 * 4999999 points, more steps
    # than the budget: neither the ceiling nor a repeat is reached
    with pytest.raises(DomainError, match="work budget"):
        bessel_divergence_probe(freq_indicator(0.0, 1.0), b=1.0, c_step=4999999.0, ceiling=1e6)


def test_tripped_flags_fail_at_tolerance_2(monkeypatch):
    # a tripped flag is inf, so no tolerance passes it, FRAMELAB_TOLERANCE=2 included
    monkeypatch.setenv("FRAMELAB_TOLERANCE", "2")
    for amplitude, ceiling in ((0.0, 10.0), (1.0, math.inf)):
        _, report = bessel_divergence_probe(freq_indicator(0.0, 1.0, amplitude=amplitude), b=1.0,
                                            c_step=1.0, ceiling=ceiling)
        assert report.verdict == "fail" and report.residuals == {"ceiling_not_exceeded": math.inf}
        assert report.tolerance_used == 2.0
    grid = WavePacketGrid(a_values=[1.0, 0.5, 0.25, 0.125], b=1.0, c_values=list(range(51)))
    _, report = wave_packet_frame_bounds(freq_indicator(0.0, 1.0), grid, ceiling=2.0)
    assert report.verdict == "fail" and report.residuals == {"partial_sum_overflow": math.inf}


def test_ten_dyadic_dilations_over_800_offsets_are_charged_by_their_live_points():
    # 4409 pieces against 8000 (dilation, offset) rows: each row is live on a
    # few pieces only, about 2.6e4 points in all (3.5e8 units when charged as
    # points times rows times shifts); every dilation covers gamma < 800 / 2^9
    # once, and no shift k != 0 overlaps [0, 1)
    grid = WavePacketGrid([2.0 ** -j for j in range(10)], 1.0, range(800))
    value, report = wave_packet_bessel_bound(freq_indicator(0, 1), grid)
    assert value == 10.0
    assert report.verdict == "pass" and report.details == {"bessel_bound": 10.0}


# -- pieces narrower than any sampling grid ------------------------------------


def test_overlap_sums_read_pieces_narrower_than_a_grid():
    # the offset -1.00005 leaves the diagonal sum 0 on [-5e-5, 0), inside the
    # inf window, and 2 on [-1.00005, -1): the system is no frame certificate
    # and its Bessel bound is 2
    g = freq_indicator(0.0, 1.0)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[-3, -2, -1.00005, 0, 1, 2])
    bounds, report = wave_packet_frame_bounds(g, grid)
    assert (bounds.lower, bounds.upper) == (0.0, 2.0)
    assert report.details["lower_raw"] == 0.0
    assert report.verdict == "undecided" and "inconclusive" in report.notes
    # the sum is 2 on [0, 5e-5)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0, -0.99995])
    assert wave_packet_bessel_bound(g, grid)[0] == 2.0


def narrow_cell_wavelet_pair():
    """psi = 1 on +-[16, 32) and its partner b psi at b = 1/32, but b/2 on
    the one cell [16, 16 + 2^-10): the scaling sum misses b by b/2 on
    [1, 1 + 2^-14) only."""
    step, b = 2.0 ** -10, 1 / 32
    starts = -32.0 + step * np.arange(64 * 1024)
    values = np.where(np.abs(starts + step / 2) >= 16, 1.0, 0.0)
    partner = b * values
    partner[48 * 1024] = b / 2
    return (FreqFunction(-32.0, step, values, (-32.0, 32.0)),
            FreqFunction(-32.0, step, partner, (-32.0, 32.0)), b)


def test_duality_checks_read_a_narrow_dilated_cell():
    psi, partner, b = narrow_cell_wavelet_pair()
    report = wavelet_duality_check(psi, partner, b=b)
    assert not report.passed
    assert report.residuals == {"scaling_sum": 1 / 64, "shifted_sums": 0.0}
    report = wave_packet_duality_check(psi, partner, a=2, b=b, c_values=[0.0])
    assert not report.passed
    assert report.residuals["c1"] == 1 / 64


def test_c2_reads_a_narrow_partner_cell():
    # psit is 1 only on [2 + 3 * 2^-10, 2 + 4 * 2^-10), so psi(g) psit(g + 1)
    # is 1 on a piece narrower than every cell of psi
    psi = freq_indicator(1.0, 2.0)
    values = np.zeros(8)
    values[3] = 1.0
    partner = FreqFunction(2.0, 2.0 ** -10, values, (2.0, 2.0 + 8 * 2.0 ** -10))
    report = wave_packet_duality_check(psi, partner, a=2, b=1.0, c_values=[0.0])
    assert report.residuals["c2"] == 1.0
    assert not report.passed


def test_bounds_on_a_given_grid_are_samples():
    # a minimum over the caller's points proves nothing: same numbers, verdict
    # undecided
    g = freq_indicator(0.0, 1.0)
    grid = WavePacketGrid(a_values=[1.0], b=1.0, c_values=list(range(-8, 9)))
    bounds, report = wave_packet_frame_bounds(g, grid, gamma_grid=[0.25, 0.5])
    assert (bounds.lower, bounds.upper) == (1.0, 1.0)
    assert report.verdict == "undecided"
    assert report.notes == "sampled at the given points; not a certificate"
    value, report = wave_packet_bessel_bound(g, grid, gamma_grid=[0.25, 0.5])
    assert value == 1.0 and report.verdict == "undecided"


@pytest.mark.parametrize("call", [
    lambda: WavePacketGrid(a_values=[1.0, math.inf], b=1.0, c_values=[0.0, 1.0]),
    lambda: WavePacketGrid(a_values=[math.nan], b=1.0, c_values=[0.0]),
    lambda: WavePacketGrid(a_values=[1.0], b=math.nan, c_values=[0.0]),
    lambda: WavePacketGrid(a_values=[1.0], b=math.inf, c_values=[0.0]),
    lambda: WavePacketGrid(a_values=[1.0], b=1.0, c_values=[math.nan]),
    lambda: WavePacketGrid(a_values=[1.0], b=1.0, c_values=[0.0, -math.inf]),
    lambda: WavePacketGrid(a_values=[1.0], b=1.0, c_values=[]),
    lambda: wave_packet_frame_bounds(freq_indicator(0.0, 1.0),
                                     WavePacketGrid([1.0], 1.0, [0.0]), gamma_grid=[0.5, math.nan]),
    lambda: wave_packet_bessel_bound(freq_indicator(0.0, 1.0),
                                     WavePacketGrid([1.0], 1.0, [0.0]), gamma_grid=[math.inf]),
    lambda: wave_packet_duality_check(shannon_wavelet(), shannon_wavelet(), a=2, b=1.0,
                                      c_values=[0.0, math.nan]),
    lambda: wave_packet_duality_check(shannon_wavelet(), shannon_wavelet(), a=2, b=1.0,
                                      c_values=[math.inf], full_check=False),
    lambda: wave_packet_duality_check(shannon_wavelet(), shannon_wavelet(), a=math.nan, b=1.0,
                                      c_values=[0.0]),
    lambda: wave_packet_duality_check(shannon_wavelet(), shannon_wavelet(), a=2, b=math.nan,
                                      c_values=[0.0]),
    lambda: wavelet_duality_check(shannon_wavelet(), shannon_wavelet(), b=math.inf),
])
def test_non_finite_wave_packet_parameters_are_domain_errors(call):
    # at the parent these reported a Bessel bound of 2.0 with a NaN inf window,
    # a local-integrability sum of 0.0, or raised a bare ValueError
    with pytest.raises(DomainError, match="finite|one offset"):
        call()
