import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from framelab import bspline
from framelab.core import MAX_WORK, DomainError, FrameBounds, LatticeError, _as_rational
from framelab.bspline import (
    PhaseDiagramCell,
    STATUS_FRAME,
    STATUS_UNDECIDED,
    STATUS_ZERO,
    _check_cell,
    _overlap_bounds,
    bspline_eval,
    bspline_fourier,
    classify_cell,
    dual_window_solve,
    finite_section_bounds,
    property_suite,
    sample_bspline,
)
from framelab.gabor import GaborSpec, _cycle_length, gabor_frame_bounds
from oracles import rational_cycle, recursive_bspline, triangular_bspline


def overlap_bounds(N, a, b):
    """The scanner's overlap bounds of a cell, checked as classify_cell checks it."""
    return _overlap_bounds(N, a, _check_cell(N, a, b)[0])


def convolution_oracle(n_max, inv_step):
    """Repeated trapezoidal convolution of samples, starting from the unit
    indicator with symmetric half-weight endpoints."""
    h = 1.0 / inv_step
    first = np.ones(inv_step + 1)
    first[0] = first[-1] = 0.5
    grids = {1: first}
    cur = first
    for order in range(2, n_max + 1):
        m = len(cur) + len(first) - 1
        nfft = 1 << (m - 1).bit_length()
        spec = np.fft.rfft(cur, nfft) * np.fft.rfft(first, nfft)
        cur = np.fft.irfft(spec, nfft)[:m] * h
        grids[order] = cur
    return grids, h


def test_order_one_is_unit_indicator():
    assert bspline_eval(1, 0.5) == 1.0
    assert bspline_eval(1, 0.0) == 1.0
    assert bspline_eval(1, 1.0) == 0.0
    np.testing.assert_allclose(bspline_eval(1, [-0.1, 0.3, 1.2]), [0, 1, 0])


def test_support_property():
    for N in range(1, 7):
        x = np.concatenate([np.linspace(-3, -1e-12, 50), np.linspace(N + 1e-12, N + 3, 50)])
        assert np.abs(bspline_eval(N, x)).max() == 0.0


def test_hat_apex():
    assert bspline_eval(2, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_recurrence_matches_convolution_oracle():
    inv_step = 131072
    grids, h = convolution_oracle(8, inv_step)
    rng = np.random.default_rng(42)
    for N in range(2, 9):
        arr = grids[N]
        x = rng.uniform(-0.5, N + 0.5, 1000)
        oracle = np.interp(x, h * np.arange(len(arr)), arr, left=0.0, right=0.0)
        exact = bspline_eval(N, x)
        assert np.abs(oracle - exact).max() <= 1e-10


def exact_bspline(N, x):
    """B_N(x) as a Fraction, from the truncated-power formula
    sum_{i <= x} (-1)^i C(N, i) (x - i)^(N-1) / (N - 1)! at the exact double x."""
    if not 0 <= x < N:
        return Fraction(0)
    p, q = x.as_integer_ratio()
    total = sum((-1) ** i * math.comb(N, i) * (p - i * q) ** (N - 1)
                for i in range(math.floor(x) + 1))
    return Fraction(total, q ** (N - 1) * math.factorial(N - 1))


@pytest.mark.parametrize("N", range(1, 45))
def test_eval_accuracy_against_exact_values(N):
    # random, knot-adjacent and end-adjacent points whose exact value is a normal
    # float; the triangle, which reads them without the mirror, meets the bound too
    bound = 2 * N * np.finfo(float).eps
    knots = np.arange(1, N)
    rng = np.random.default_rng(100 + N)
    points = np.concatenate([rng.uniform(0, N, 64), knots - 1e-9, knots + 1e-9, [1e-3, N - 1e-3]])
    xs = [x for x in points.tolist() if exact_bspline(N, x) >= np.finfo(float).tiny]
    exact = [exact_bspline(N, x) for x in xs]
    for kernel in (bspline_eval, triangular_bspline):
        values = kernel(N, np.array(xs))
        worst = max(abs(Fraction(v) - e) / e for v, e in zip(values.tolist(), exact))
        assert worst <= bound, (kernel.__name__, float(worst))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    # uint64 views make -0.0 differ from +0.0 and compare NaN payloads
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 16, 44])
def test_eval_special_values_shapes_and_symmetry(N):
    outside = [-1.5, -1e-300, N, N + 0.5, 1e300, -1e300]
    assert_same_bits(bspline_eval(N, outside), np.zeros(len(outside)))
    at_zero = 1.0 if N == 1 else 0.0
    assert_same_bits(bspline_eval(N, [-0.0, 0.0]), [at_zero, at_zero])
    special = bspline_eval(N, [np.nan, np.inf, -np.inf])
    assert np.isnan(special).all() if N > 1 else not special.any()
    assert bspline_eval(N, N / 2 + 0.25).shape == ()
    rng = np.random.default_rng(N)
    grid = rng.uniform(-1.0, N + 1.0, (6, 9))
    assert_same_bits(bspline_eval(N, grid), bspline_eval(N, grid.ravel()).reshape(6, 9))
    # N - x is exact for x in [N/2, N], so both points are read on the same piece
    knots = np.arange(N // 2 + 1, N)
    right = np.concatenate([rng.uniform(N / 2, N, 200), knots - 1e-9, knots, knots + 1e-9, [N / 2]])
    assert_same_bits(bspline_eval(N, right), bspline_eval(N, N - right))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_triangular_oracle_is_the_order_recursion_bit_for_bit():
    rng = np.random.default_rng(7)
    for N in range(1, 13):
        x = np.concatenate([rng.uniform(-1.5, N + 1.5, 200), np.linspace(-1.0, N + 1.0, 8 * N + 17),
                            [-0.0, 0.0, N, N - 1e-16, np.nan, np.inf, -np.inf]])
        assert_same_bits(triangular_bspline(N, x), recursive_bspline(N, x))


def test_piece_table_over_the_budget_is_refused_before_it_is_built(monkeypatch):
    # the build is about N^3 / 4 big-integer additions; N = 342 takes about a second
    assert bspline._table_work(342) <= MAX_WORK < bspline._table_work(343)
    monkeypatch.setattr(bspline, "_piece_table", no_evaluation)
    for N in (343, 4096, 10 ** 6, 10 ** 306):
        with pytest.raises(DomainError, match="work budget"):
            bspline_eval(N, np.array([0.5]))
    # no live point, no table
    assert bspline_eval(4096, np.array([-1.0, 4096.0])).tolist() == [0.0, 0.0]


def test_high_orders_run():
    # the identities are read on N // 2 + 1 integer pieces, O(N^3) additions in all
    assert property_suite(24).passed
    assert property_suite(40).passed
    assert property_suite(60).passed


def test_orders_whose_first_grid_value_underflows_pass_and_the_budget_ends_at_271(monkeypatch):
    # B_N = x^(N-1) / (N-1)! at the first point x = N / 2048 of the former interior grid
    # rounds to 0.0 from N = 114 on; no value is sampled, so these orders pass
    for N in (114, 115):
        report = property_suite(N)
        assert report.passed and report.residuals["interior_nonpositive"] == 0.0
    # the table and the shifts of N = 271 take about 0.7 s on a 2-CPU x86-64 VM
    assert bspline._suite_work(271) <= MAX_WORK < bspline._suite_work(272)
    monkeypatch.setattr(bspline, "_piece_table", no_evaluation)
    for N in (272, 2000, 10 ** 6, 10 ** 400):
        with pytest.raises(DomainError, match="work budget"):
            property_suite(N)


def test_fourier_at_zero_and_integers():
    for N in range(1, 7):
        assert bspline_fourier(N, 0.0) == pytest.approx(1.0, abs=1e-15)
        for k in (1, -2, 5):
            assert abs(bspline_fourier(N, k)) <= 1e-14


def test_fourier_half_frequency_value():
    # ((1 - exp(-i pi)) / (i pi)) = 2 / (i pi)
    expected = 2.0 / (1j * np.pi)
    assert bspline_fourier(1, 0.5) == pytest.approx(expected, abs=1e-15)


def test_fourier_matches_quadrature():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for N in range(1, 7):
        for gamma in (-8.0, -3.7, -0.5, 0.1, 1.25, 7.9):
            total = 0.0j
            for k in range(N):
                x = k + (nodes + 1) / 2
                total += np.sum(weights * bspline_eval(N, x) * np.exp(-2j * np.pi * x * gamma)) / 2
            assert abs(bspline_fourier(N, gamma) - total) <= 1e-8


def test_property_suite_passes():
    for N in range(1, 7):
        assert property_suite(N).passed


def test_partition_of_unity_negative_control():
    # stretching the shift lattice destroys the partition of unity
    xs = np.linspace(0.0, 3.0, 500)
    bad = np.zeros_like(xs)
    for k in range(-10, 14):
        bad += bspline_eval(3, xs - 1.5 * k)
    assert np.abs(bad - 1.0).max() > 1e-2


def test_unit_integral():
    # exact on the integer pieces, and a Gauss-Legendre rule on each knot interval,
    # exact for the polynomial pieces, agrees with it in floats
    nodes, weights = np.polynomial.legendre.leggauss(32)
    for N in range(1, 61):
        assert property_suite(N).residuals["unit_integral"] == 0.0
        if N <= 30:
            total = sum(float(np.sum(weights * bspline_eval(N, k + (nodes + 1) / 2)) / 2)
                        for k in range(N))
            assert total == pytest.approx(1.0, abs=1e-12)


#: dyadic points where bspline_eval is off by 1.39, 1.24 and 1.12 times u S, more than
#: the one rounding of each coefficient: the bound needs its Horner term
HORNER_WITNESSES = [(16, 8623796034 / 2 ** 30), (20, 10448981483 / 2 ** 30),
                    (60, 31756825232 / 2 ** 30)]


@st.composite
def dyadic_points(draw):
    """(N, x): N = 1..60 and x a multiple of 2^-30 in [-1, N + 1], so every x - k is exact."""
    N = draw(st.integers(1, 60))
    return N, draw(st.integers(-2 ** 30, (N + 1) * 2 ** 30)) / 2 ** 30


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dyadic_points())
@example(HORNER_WITNESSES[0])
@example(HORNER_WITNESSES[1])
@example(HORNER_WITNESSES[2])
@example((1, 0.0))
@example((2, 1.0))
def test_partition_sums_stay_within_the_reported_bound(point):
    # each term is within the kernel's bound of the exact truncated-power value, and
    # their float sum within the suite's partition residual of 1
    N, x = point
    bound = property_suite(N).residuals["partition_of_unity"]
    ks = range(math.floor(x) - N, math.floor(x) + 2)
    values = bspline_eval(N, np.array([x - k for k in ks])).tolist()
    for k, value in zip(ks, values):
        assert abs(Fraction(value) - exact_bspline(N, x - k)) <= 1.01 * bspline._kernel_error(N)
    assert abs(sum(values) - 1.0) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 60), st.floats(-1.0, 1.0), st.integers(-70, 70))
def test_partition_sums_at_inexact_differences_stay_within_the_reported_bound(N, t, shift):
    # x - k rounds here; B_N is 1-Lipschitz for N >= 2, so the bound still holds
    x = t + shift
    values = bspline_eval(N, x - np.arange(math.floor(x) - N, math.floor(x) + 2))
    assert abs(np.sum(values) - 1.0) <= property_suite(N).residuals["partition_of_unity"]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 10])
@pytest.mark.parametrize("delta", [1, -1])
def test_a_coefficient_off_by_one_fails_the_suite_and_names_the_identities(N, delta, monkeypatch):
    pieces, table = bspline._piece_table(N)
    assert property_suite(N).passed
    for j, piece in enumerate(pieces):
        for i in range(N):
            broken = [list(p) for p in pieces]
            broken[j][i] += delta
            monkeypatch.setattr(bspline, "_piece_table",
                                lambda order, broken=broken: (tuple(map(tuple, broken)), table))
            # no result is kept: every call reads the table it is given
            report = property_suite(N)
            assert not report.passed, (j, i)
            assert report.residuals["partition_of_unity"] == report.residuals["unit_integral"] == 1.0
            assert "broken on the integer pieces: partition_of_unity, unit_integral" in report.notes
    monkeypatch.undo()
    assert property_suite(N).passed


def test_interior_positivity_reads_the_bernstein_coefficients_and_the_knots(monkeypatch):
    # 2 B_3 is t^2 on [0, 1) and 1 + 2t - 2t^2 on [1, 2); a quadratic c0 + c1 t + c2 t^2
    # has the Bernstein coefficients c0, c0 + c1 / 2, c0 + c1 + c2
    pieces, table = bspline._piece_table(3)
    assert pieces == ((1, 0, 0), (-2, 2, 1))
    cases = [
        # 2t - 2t^2: Bernstein (0, 1, 0), positive inside, but 0 at the knot 1
        ((-2, 2, 0), ["partition_of_unity", "unit_integral", "interior_nonpositive"]),
        # (1 - t)^2: Bernstein (1, 0, 0), positive on [0, 1)
        ((1, -2, 1), ["partition_of_unity", "unit_integral"]),
        # 1 + 2t - 4t^2: Bernstein (1, 2, -1), negative at t = 1
        ((-4, 2, 1), ["partition_of_unity", "unit_integral", "interior_nonpositive"]),
    ]
    for piece, names in cases:
        monkeypatch.setattr(bspline, "_piece_table",
                            lambda order, piece=piece: ((pieces[0], piece), table))
        assert property_suite(3).notes.endswith("broken on the integer pieces: " + ", ".join(names))


def test_painless_cell_explicit_values():
    # order 2, a = 1/2, b = 1/4: periodized hat-squares give bounds (5, 6)
    cell = classify_cell(2, 0.5, 0.25)
    assert cell.status == STATUS_FRAME
    assert cell.bounds_estimate.lower == pytest.approx(5.0, abs=1e-2)
    assert cell.bounds_estimate.upper == pytest.approx(6.0, abs=1e-2)
    assert "painless" in cell.method


def test_painless_regime_is_decided_on_the_exact_product():
    # b N = 1 + 2^-52 is past the painless regime: the shifts k/b overlap the support
    cell = classify_cell(2, 0.5, math.nextafter(0.5, 1))
    assert (cell.status, cell.method) == (STATUS_FRAME, "translation-overlap sufficient condition")
    assert "painless" in classify_cell(2, 0.5, 0.5).method


@pytest.mark.parametrize("N", [True, 2.5, 2.0, 0])
@pytest.mark.parametrize("entry", [
    lambda N: classify_cell(N, 0.5, 0.5), lambda N: bspline_eval(N, [0.5]),
    lambda N: bspline_fourier(N, [0.5]), property_suite, sample_bspline,
    lambda N: dual_window_solve(N, 0.2),
], ids=["classify_cell", "bspline_eval", "bspline_fourier", "property_suite",
        "sample_bspline", "dual_window_solve"])
def test_every_entry_point_rejects_an_order_that_is_no_positive_integer(entry, N):
    with pytest.raises(DomainError, match="order must be a positive integer"):
        entry(N)


def test_zero_certificate_at_sparse_translates():
    for b in (0.1, 0.25, 0.5):
        cell = classify_cell(2, 2.0, b)
        assert cell.status == STATUS_ZERO
    cell = classify_cell(2, 2.5, 0.25)
    assert cell.status == STATUS_ZERO


@pytest.mark.parametrize("N, a, b", [(80, 79.5, 0.01), (90, 89.5, 0.008), (100, 99.5, 0.005)])
def test_underflowed_painless_diagonal_is_not_zero_certified(N, a, b):
    # a < N: every x has a translate inside (0, N), where B_N > 0, so the
    # diagonal is positive although its least values read underflow to 0.0
    lo, _ = overlap_bounds(N, a, b)
    assert lo < 0.0
    cell = classify_cell(N, a, b)
    assert (cell.status, cell.method) == (STATUS_UNDECIDED, "painless enclosure not positive")


@pytest.mark.parametrize("N, statuses", [
    (1, (STATUS_FRAME, STATUS_FRAME, STATUS_ZERO)),
    (2, (STATUS_FRAME, STATUS_ZERO, STATUS_ZERO)),
    (3, (STATUS_FRAME, STATUS_ZERO, STATUS_ZERO)),
    (4, (STATUS_FRAME, STATUS_ZERO, STATUS_ZERO)),
    (5, (STATUS_FRAME, STATUS_ZERO, STATUS_ZERO)),
])
def test_zero_certificate_is_decided_by_the_support(N, statuses):
    # the diagonal vanishes iff a >= N (a > 1 for N = 1); at a = N - 1/2 it is
    # positive, and the enclosures certify it (the slack of the former grid
    # left N = 3, 4 and 5 undecided)
    got = tuple(classify_cell(N, a, 1 / (2 * N)).status for a in (N - 0.5, N, N + 0.5))
    assert got == statuses


@pytest.mark.parametrize("N, a, b, method", [
    (1, 1.0, 1.0000000000000002, "density theorem: a b > 1"),
    (1, 0.9999999999999999, 1.0000000000000004, "density theorem: a b > 1"),
    (2, 0.5, 2.0, "density theorem: a b = 1 and the Zak transform of B_N vanishes"),
    (3, 0.25, 4.0, "density theorem: a b = 1 and the Zak transform of B_N vanishes"),
    (3, 1.25, 0.8, "density theorem: a b = 1 and the Zak transform of B_N vanishes"),  # 5/4 * 4/5
    (4, 1.5, 1.0, "density theorem: a b > 1"),
])
def test_density_theorem_zero_certificates(N, a, b, method):
    # the N = 1 cells were frame-certified: the one grid piece where the
    # shifted term is 1 is about 1e-16 wide, and no grid point hit it
    cell = classify_cell(N, a, b)
    assert (cell.status, cell.method) == (STATUS_ZERO, method)
    assert cell.bounds_estimate.lower == 0.0 and cell.bounds_estimate.upper > 0
    # the orthonormal basis at a = b = 1 stays a frame with bounds (1, 1)
    basis = classify_cell(1, 1.0, 1.0)
    assert (basis.status, basis.bounds_estimate) == (STATUS_FRAME, FrameBounds(1.0, 1.0))


@pytest.mark.parametrize("N, b", [(10, 0.1), (5, 0.2)])
def test_a_typed_b_on_the_painless_boundary_is_painless(N, b):
    # b N = 1 for the decimal typed; the float b lies above 1/N, and on the float the
    # cell took the sufficient condition, [3.066387617, 3.067805096] at N = 10
    assert _check_cell(N, 1.0, b) == ([], Fraction(1, N))
    cell = classify_cell(N, 1.0, b)
    assert (cell.status, cell.method) == (STATUS_FRAME, "painless periodization")
    # the bounds of the column at b, as one ulp below b, where b N < 1 for the float too
    below = classify_cell(N, 1.0, math.nextafter(b, 0.0))
    assert below.method == "painless periodization"
    for bound in ("lower", "upper"):
        assert getattr(cell.bounds_estimate, bound) * b == pytest.approx(
            getattr(below.bounds_estimate, bound) * math.nextafter(b, 0.0), rel=1e-15)


@st.composite
def density_edge_cells(draw):
    """(N, a, b) up to two ulps either side of a b = 1 or of b N = 1."""
    N = draw(st.integers(1, 6))
    a = draw(st.sampled_from([1.0, 0.5, 2.0, 0.75, 1.25, 3.0]) | st.floats(0.5, 6.0))
    b = 1 / a if draw(st.booleans()) else 1 / N
    for _ in range(abs(ulps := draw(st.integers(-2, 2)))):
        b = math.nextafter(b, math.inf if ulps > 0 else 0.0)
    return N, a, b


@settings(max_examples=120, deadline=None, derandomize=True)
@given(density_edge_cells())
@example((1, 1.0, 1.0000000000000002))
@example((1, 0.9999999999999999, 1.0000000000000004))
def test_no_frame_certificate_past_the_density_bound(cell_args):
    N, a, b = cell_args
    cell = classify_cell(N, a, b, attach_estimates=False)
    ab = _as_rational(a, "a") * _as_rational(b, "b")  # the cell the scanner decides on
    if ab > 1 or ab == 1 and N >= 2:
        assert cell.status == STATUS_ZERO and cell.bounds_estimate.lower == 0.0
    if cell.status == STATUS_FRAME:
        assert ab < 1 or ab == 1 and N == 1


@st.composite
def cells_past_the_support(draw):
    """(N, a, b) with a >= N (a > 1 for N = 1), b over 0.01..4 or one ulp either side of 1/N."""
    N = draw(st.integers(1, 6))
    a = draw(st.sampled_from([float(N), N + 0.5, 2.0 * N]) | st.floats(N, 4.0 * N))
    if N == 1 and a == 1.0:
        a = math.nextafter(1.0, math.inf)
    b = draw(st.floats(0.01, 4.0) | st.sampled_from(
        [math.nextafter(1 / N, 0.0), 1 / N, math.nextafter(1 / N, math.inf)]))
    return N, a, b


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cells_past_the_support())
@example((1, 1.0000000000000002, 1.0))
@example((4, 4.0, math.nextafter(0.25, math.inf)))
def test_a_at_least_N_is_zero_certified_at_every_b(cell_args):
    # inside the painless regime the diagonal vanishes; outside it b N > 1,
    # so a b > 1 and the density theorem applies
    N, a, b = cell_args
    cell = classify_cell(N, a, b, attach_estimates=False)
    assert cell.status == STATUS_ZERO and cell.bounds_estimate.lower == 0.0


def test_large_b_cells_never_frame_certified():
    for a in (0.1, 0.25, 0.5, 1.0, 1.5):
        cell = classify_cell(2, a, 2.0, attach_estimates=False)
        assert cell.status != STATUS_FRAME
    # below the density bound an integer b >= 2 is zero-certified: the transform of
    # B_N vanishes at every nonzero integer, so its b-periodization vanishes at 1
    for N in (1, 2, 3, 4):
        for b in (2.0, 3.0):
            for a in (0.1, 0.25, 0.3):
                cell = classify_cell(N, a, b, attach_estimates=False)
                assert (cell.status, cell.bounds_estimate.lower) == (STATUS_ZERO, 0.0)
                assert cell.method.startswith("integer b >= 2"), (N, a, b)
                assert cell.bounds_estimate.upper > 0


def test_known_region_recovery_order_two():
    a_grid = np.arange(0.25, 1.76, 0.25)
    b_grid = np.arange(0.10, 0.46, 0.05)
    cells = [classify_cell(2, a, b, attach_estimates=False) for a in a_grid for b in b_grid]
    assert all(c.status == STATUS_FRAME for c in cells)


def test_translation_overlap_certifies_beyond_painless():
    # ab = 0.3 with b above the painless threshold: still certified
    cell = classify_cell(2, 0.5, 0.6)
    assert cell.status == STATUS_FRAME
    assert "overlap" in cell.method


def test_monotone_degeneration_toward_a_equals_two():
    values = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        inf_, _sup = overlap_bounds(2, 2.0 - eps, 0.25)
        values.append(inf_ / 0.25)
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert values[-1] < 0.02


def no_evaluation(*args):
    raise AssertionError("the cell was evaluated")


@pytest.mark.parametrize("N, a, b, match", [
    (2, math.nan, 0.3, "finite"),
    (2, math.inf, 0.3, "finite"),
    (2, 0.5, math.nan, "finite"),
    (2, 0.5, -math.inf, "finite"),
    (2.5, 0.5, 0.3, "order"),
    (2.0, 0.5, 0.3, "order"),
    (10 ** 400, 0.5, 0.3, "spline evaluations"),
    # a = 1e-5 (2e5 offsets) and b = 1e4 (4e4 shifts), no smaller a and no
    # larger b: without the guard these lists are still small; each offset and
    # shift is a Python pass of the kernel
    (2, 1e-5, 0.3, "more than the limit"),
    (2, 0.5, 1e4, "more than the limit"),
    # few pieces, but each is converted and halved at (2N - 1)^2 = 1.6e7 units
    (2000, 2000.0, 1e-3, "more than the limit"),
])
def test_hostile_cells_rejected_before_any_read(N, a, b, match, monkeypatch):
    monkeypatch.setattr(bspline, "_overlap_sums", no_evaluation)
    monkeypatch.setattr(bspline, "_chebyshev", no_evaluation)
    with pytest.raises(DomainError, match=match):
        classify_cell(N, a, b)
    with pytest.raises(DomainError, match=match):
        overlap_bounds(N, a, b)


#: the acceptance grid of criterion 7 (order 2, with the a = 2 column and the b = 2
#: row) and the phase-diagram cells of the scan_decay benchmark (orders 2..5)
ACCEPTANCE_CELLS = (
    [(2, a, b, False) for a in np.arange(0.25, 1.76, 0.25) for b in np.arange(0.10, 0.46, 0.05)]
    + [(2, 2.0, b, True) for b in np.arange(0.10, 0.46, 0.05)]
    + [(2, a, 2.0, False) for a in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 1.9)])
BENCHMARK_CELLS = [(N, 0.25 * k, b, True) for N in (2, 3, 4, 5) for k in range(1, 8)
                   for b in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 1.0)]


def test_scanner_verdicts_match_the_triangular_oracle(monkeypatch):
    def scan():
        return [classify_cell(N, a, b, attach_estimates=estimates)
                for N, a, b, estimates in ACCEPTANCE_CELLS + BENCHMARK_CELLS]

    cells = scan()
    monkeypatch.setattr(bspline, "bspline_eval", triangular_bspline)
    for cell, want in zip(cells, scan()):
        assert (cell.status, cell.method) == (want.status, want.method), (cell, want)
        scale = 1e-14 * want.bounds_estimate.upper
        assert abs(cell.bounds_estimate.lower - want.bounds_estimate.lower) <= scale, (cell, want)
        assert abs(cell.bounds_estimate.upper - want.bounds_estimate.upper) <= scale, (cell, want)


def test_scan_order_moves_no_bit():
    # in order, the painless cells of a column read one memo entry; shuffled, almost
    # every painless cell computes its bounds afresh: the cells are the same bit for bit
    cells = ACCEPTANCE_CELLS + BENCHMARK_CELLS

    def classified(N, a, b, estimates):
        cell = classify_cell(N, a, b, attach_estimates=estimates)
        bounds = cell.bounds_estimate
        return cell.status, cell.method, bounds.lower.hex(), bounds.upper.hex()

    in_order = [classified(*args) for args in cells]
    for i in np.random.default_rng(41).permutation(len(cells)):
        assert classified(*cells[i]) == in_order[i], cells[i]


def test_finite_section_matches_painless_on_aligned_grids():
    for (a, b) in ((0.5, 0.25), (1.0, 0.5), (0.5, 0.5)):
        est = finite_section_bounds(2, a, b)
        inf_, sup_ = overlap_bounds(2, a, b)
        assert inf_ / b <= est.lower + 1e-9
        assert sup_ / b >= est.upper - 1e-9


def test_cycle_length_realizes_the_rational_period_search():
    # N = 1..6, a = 0.05..4.25 and b = 0.05..2.3 in steps of 1/20: the cycle
    # on which finite_section_bounds realizes a cell is the period search's,
    # and a cell is refused (a cycle past max_length = 8192) exactly where
    # the search refuses it
    seen = {True: 0, False: 0}
    for N in range(1, 7):
        for a in (k / 20 for k in range(1, 86)):
            for b in (k / 20 for k in range(1, 47)):
                M, L, a_int, b_int = rational_cycle(N, a, b, max_length=math.inf)
                try:
                    got = _cycle_length(a_int, _as_rational(b, "b") / M, M * (N + 1))
                except LatticeError:
                    got = None
                seen[L <= 8192] += 1
                if L <= 8192:
                    assert (got, round(b * got / M)) == (L, b_int), (N, a, b)
                else:
                    assert got is None or got == L, (N, a, b)
    assert min(seen.values()) > 10000


def test_finite_section_is_the_rational_cycle_bit_for_bit():
    # the 28 benchmark cells N = 2..5, a = 0.25..1.75, b = 1.0
    for N in range(2, 6):
        for a in (k / 4 for k in range(1, 8)):
            M, L, a_int, b_int = rational_cycle(N, a, 1.0)
            fb = gabor_frame_bounds(GaborSpec(L, a_int, b_int, bspline_eval(N, np.arange(L) / M)))
            est = finite_section_bounds(N, a, 1.0)
            assert (est.lower, est.upper) == (fb.lower / M, fb.upper / M), (N, a)


def test_scanner_soundness_certificates_sandwich_finite_section():
    for (a, b) in ((0.5, 0.25), (1.0, 0.25), (0.75, 0.25), (1.0, 0.5)):
        cell = classify_cell(2, a, b)
        assert cell.status == STATUS_FRAME
        est = finite_section_bounds(2, a, b)
        assert cell.bounds_estimate.lower <= est.lower + 1e-9
        assert cell.bounds_estimate.upper >= est.upper - 1e-9


def test_undecided_cell_carries_estimate():
    # a b = 3/4 < 1; (2, 0.5, 2.0) has a b = 1 and is zero-certified
    cell = classify_cell(2, 0.5, 1.5, attach_estimates=True)
    assert cell.status == STATUS_UNDECIDED
    assert cell.bounds_estimate.upper > 0
    assert "finite-section" in cell.method or "inconclusive" in cell.method


def test_cell_invariant_enforced():
    with pytest.raises(ValueError):
        PhaseDiagramCell(1.0, 1.0, STATUS_FRAME, FrameBounds(0.0, 1.0), "bogus")


def test_dual_window_order_one():
    window, report = dual_window_solve(1, 1.0, shift_range=0)
    assert report.passed
    # classical self-dual unit indicator: c_0 = 1
    assert window.values_interpolated(0.5) == pytest.approx(1.0, abs=1e-10)


def test_dual_window_order_two():
    for b in (0.25, 1.0 / 3.0):
        window, report = dual_window_solve(2, b)
        assert report.passed
        assert report.residuals["ron_shen"] <= 1e-8


def loop_design(N, b, K):
    """The dual-window design matrix as one spline call per (n, k, j) term,
    the order the batched design must reproduce bit for bit."""
    samples = 4 * K + 4
    xs = (np.arange(samples) + 0.5) / samples
    n_max = int(math.floor(b * (N + K) + 1e-9))
    blocks = []
    for n in range(-n_max, n_max + 1):
        M = np.zeros((samples, 2 * K + 1))
        for col, k in enumerate(range(-K, K + 1)):
            for j in range(-(N + K + 2), N + K + 3):
                M[:, col] += bspline_eval(N, xs - n / b - j) * bspline_eval(N, xs - j + k)
        blocks.append(M)
    return np.vstack(blocks)


@pytest.mark.parametrize("N, b, K", [(2, 1 / 4, 1), (2, 1 / 3, 1), (3, 1 / 5, 2), (2, 1 / 4, 8),
                                     (3, 1 / 5, 6), (2, 1 / 4, 16)])
def test_batched_dual_window_design_is_bit_identical_to_the_loop(N, b, K, monkeypatch):
    designs = []
    lstsq = np.linalg.lstsq

    def capture(design, target, rcond):
        designs.append(design)
        return lstsq(design, target, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", capture)
    dual_window_solve(N, b, shift_range=K)
    expected = loop_design(N, b, K)
    assert designs[0].shape == expected.shape
    assert np.array_equal(designs[0].view(np.uint64), expected.view(np.uint64))


def test_dual_window_range_check():
    with pytest.raises(DomainError):
        dual_window_solve(2, 0.6)
    with pytest.raises(DomainError):
        dual_window_solve(3, 0.2, shift_range=1)


def test_sample_bspline_window():
    w = sample_bspline(2)
    assert w.count == 129
    assert w.values_interpolated(1.0) == pytest.approx(1.0, abs=1e-12)


# an order past the float range is a DomainError, not an OverflowError
def test_eval_order_past_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="too large"):
        bspline_eval(10 ** 400, np.array([-1.0, 0.5]))
    with pytest.raises(DomainError, match="too large"):
        sample_bspline(10 ** 400)
    with pytest.raises(DomainError, match="too large"):
        bspline_fourier(10 ** 400, [0.5])
    # within the float range but past any array dimension: over the budget at
    # a point of [0, N), zeros without an (N, 0) table elsewhere
    with pytest.raises(DomainError, match="work budget"):
        bspline_eval(10 ** 306, np.array([0.5]))
    assert bspline_eval(10 ** 306, np.array([-1.0])).tolist() == [0.0]


def test_dual_window_order_past_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="too large"):
        dual_window_solve(10 ** 400, 1e-3)
