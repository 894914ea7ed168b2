"""The scanner's piece enclosures.

Each piece of the periodized overlap sums between their breakpoints is read
at its Chebyshev nodes and enclosed through its Chebyshev coefficients, less
or plus an a-priori rounding term.  The enclosures must hold every exact
rational value of the sums, and the scanner's bounds must never be looser
than the grid that read the sums before them (tests/oracles.py), with its
Lipschitz slack, nor lose a cell that grid certified.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import chebyshev

from framelab import bspline, cli
from framelab.core import FrameBounds, _as_rational
from framelab.bspline import (
    STATUS_FRAME,
    _chebyshev,
    _check_cell,
    _indicator_bounds,
    _least,
    _overlap_bounds,
    _piece_reads,
    _rounding_term,
    classify_cell,
)
from oracles import grid_overlap_bounds, order_one_bounds

BENCHMARK_CELLS = [(N, 0.25 * k, b) for N in (2, 3, 4, 5) for k in range(1, 8)
                   for b in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 1.0)]
README_CELLS = [(4, a, b) for a in cli._range("0.1:3.9:0.1") for b in cli._range("0.05:0.5:0.025")]


def exact_bspline(N, x):
    """B_N at the rational x, from the truncated-power formula."""
    if not 0 <= x < N:
        return Fraction(0)
    total = sum((-1) ** i * math.comb(N, i) * (x - i) ** (N - 1) for i in range(math.floor(x) + 1))
    return total / math.factorial(N - 1)


def exact_sums(N, a, shifts, x):
    """diag and off at the rational x, for the rational step a and shifts."""
    diag = off = Fraction(0)
    for n in range(math.ceil((x - N) / a), math.floor(x / a) + 1):
        g = exact_bspline(N, x - n * a)
        if g:
            diag += g * g
            off += sum(g * exact_bspline(N, x - n * a - s) for s in shifts)
    return diag, off


def piece_enclosures(N, a, b):
    """[(left, right, enclosure of diag - off, enclosure of diag + off)] of every piece,
    each read and halved on its own, the rounding term included."""
    shifts = _check_cell(N, a, b)[0]
    cuts, diag, off = _piece_reads(N, a, shifts)
    rounding = _rounding_term(N, a, shifts)
    pieces = []
    for i in range(cuts.size - 1):
        enclosures = []
        for values in (diag[i] - off[i], diag[i] + off[i]):
            least, most = _least(np.stack([values[None], -values[None]]), 0.0, [-math.inf] * 2)
            enclosures.append((Fraction(least - rounding), Fraction(rounding - most)))
        pieces.append((Fraction(cuts[i]), Fraction(cuts[i + 1]), *enclosures))
    return pieces


@st.composite
def rational_cells(draw, orders=st.integers(2, 6)):
    """(N, a, b): a in [1/2, N + 1] and b in (0, 1], dyadic or of a small denominator."""
    N = draw(orders)
    q = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 16]))
    a = draw(st.integers(math.ceil(q / 2), (N + 1) * q)) / q
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 10, 16]))
    return N, a, draw(st.integers(1, q)) / q


def assert_exact_values_inside(N, a, b, rng):
    # the sums of the rational cell the scanner decides on, 1/5 for the float 0.2
    step, inverse = _as_rational(a, "a"), 1 / _as_rational(b, "b")
    shifts = [k * inverse for k in range(-N * 4, N * 4 + 1) if k and abs(k * inverse) < N]
    for left, right, minus, plus in piece_enclosures(N, a, b):
        # the ends, the middle and two rational points between them
        points = [left, right, (left + right) / 2] + [left + (right - left) * Fraction(int(j), 97)
                                                      for j in rng.integers(1, 97, 2)]
        for x in points:
            diag, off = exact_sums(N, step, shifts, x)
            assert minus[0] <= diag - off <= minus[1], (N, a, b, x)
            assert plus[0] <= diag + off <= plus[1], (N, a, b, x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rational_cells())
@example((2, 1.0, 0.5))
@example((4, 3.9, 0.25))
@example((3, 1 / 3, 0.4))
@example((5, 1.0, 0.2))  # painless at b = 1/5: the float 0.2 lies above it
@example((4, 2.5, 0.4))  # a b = 1 for the rationals
def test_every_exact_value_lies_inside_its_piece_enclosure(cell):
    assert_exact_values_inside(*cell, np.random.default_rng(sum(map(hash, cell)) % 2 ** 32))


def order_one_cells():
    """(a, b): a = fl(1/k) or a float up to 3 ulps from it, or a dyadic a; b dyadic."""
    def near(a, ulps):
        for _ in range(abs(ulps)):
            a = math.nextafter(a, math.inf if ulps > 0 else 0.0)
        return a

    inverse = st.builds(near, st.integers(2, 40).map(lambda k: 1 / k), st.integers(-3, 3))
    return st.tuples(inverse | st.integers(1, 48).map(lambda m: m / 16),
                     st.integers(1, 40).map(lambda m: m / 16) | st.integers(-3, 3).map(lambda e: 2.0 ** e))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(order_one_cells())
@example((1 / 3, 0.5))
@example((1 / 7, 0.5))
def test_order_one_counts_its_translates_exactly(cell):
    # B_1 jumps, so a piece narrower than a rounding holds translates that floats miss;
    # the count is made on the rational cell its regime and density are decided on
    a, b = cell
    lo, hi = order_one_bounds(a, b)
    shifts, b_rational = _check_cell(1, a, b)
    assert _indicator_bounds(_as_rational(a, "a"), b_rational, len(shifts) // 2) == (lo, hi)
    got = classify_cell(1, a, b, attach_estimates=False)
    assert got.bounds_estimate == FrameBounds(lo / b if got.status == STATUS_FRAME else 0.0, hi / b)


def test_order_one_upper_bounds_at_fl_one_third_and_one_seventh():
    # fl(1/3) is read as 1/3: three translates cover each point, 4/b = 8 at the float
    # a < 1/3, where [0, 2^-54) has 4 (3 a < 1); likewise 1/7
    assert classify_cell(1, 1 / 3, 0.5).bounds_estimate == FrameBounds(6.0, 6.0)
    assert classify_cell(1, 1 / 7, 0.5).bounds_estimate == FrameBounds(14.0, 14.0)


def assert_within_the_grid(N, a, b):
    """The bounds lie between the grid's values and the grid's values widened by its
    slack, and a cell the grid certified stays certified."""
    shifts = _check_cell(N, a, b)[0]
    lo, hi = (_indicator_bounds(_as_rational(a, "a"), _as_rational(b, "b"), len(shifts) // 2)
              if N == 1 else _overlap_bounds(N, a, shifts))
    grid_lo, grid_hi, slack = grid_overlap_bounds(N, a, b)
    assert grid_hi <= hi <= grid_hi + slack, (N, a, b)
    if grid_lo - slack > 0 or lo > 0:
        assert grid_lo - slack <= lo <= grid_lo, (N, a, b)


@pytest.mark.parametrize("cells", [BENCHMARK_CELLS, README_CELLS], ids=["benchmark", "readme"])
def test_bounds_lie_within_the_grid_and_its_slack(cells):
    for cell in cells:
        assert_within_the_grid(*cell)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rational_cells(st.integers(1, 6)))
def test_bounds_lie_within_the_grid_and_its_slack_on_rational_cells(cell):
    assert_within_the_grid(*cell)


def test_the_painless_cells_the_grid_left_undecided_are_certified():
    # B_4 with a < 4 and b <= 1/4 is a frame (Daubechies, Grossmann & Meyer,
    # J. Math. Phys. 27, 1986); at a = 3.9 the least diagonal is about 9e-10,
    # below the slack of any grid
    cells = [classify_cell(4, a, b) for a, b in ((a, b) for _, a, b in README_CELLS)
             if a >= 2.7 and b <= 0.25]
    assert len(cells) == 117
    assert all((c.status, c.method) == (STATUS_FRAME, "painless periodization") for c in cells)
    assert 0 < min(c.bounds_estimate.lower for c in cells) <= 2 * 0.05 ** 6 / 36 / 0.25


def test_the_last_halving_level_certifies_the_edge_of_the_painless_region(monkeypatch):
    # B_3 at a = 2.99: the least diagonal, 2 (0.005)^4 / 4 = 3.1e-10, is lifted over
    # the rounding term by the last of the _MAX_HALVINGS levels, and not before
    cell = classify_cell(3, 2.99, 0.125)
    assert cell.status == STATUS_FRAME and cell.bounds_estimate.lower <= 2 * 0.005 ** 4 / 4 / 0.125
    monkeypatch.setattr(bspline, "_MAX_HALVINGS", bspline._MAX_HALVINGS - 1)
    bspline._painless_bounds.cache_clear()
    assert classify_cell(3, 2.99, 0.125).method == "painless enclosure not positive"


@pytest.mark.parametrize("m", [1, 3, 7, 11, 39])
def test_chebyshev_maps_convert_and_halve_a_polynomial(m):
    nodes, to_coefficients, halving, ends, h = _chebyshev(m)
    rng = np.random.default_rng(m)
    c = rng.uniform(-1, 1, m)
    assert np.all(np.diff(nodes) > 0) and np.all(np.abs(nodes) < 1)
    np.testing.assert_allclose(chebyshev.chebval(nodes, c) @ to_coefficients, c, atol=1e-13)
    left, right = (c @ halving).reshape(2, m)
    s = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(chebyshev.chebval(s, left), chebyshev.chebval((s - 1) / 2, c), atol=1e-13)
    np.testing.assert_allclose(chebyshev.chebval(s, right), chebyshev.chebval((s + 1) / 2, c), atol=1e-13)
    np.testing.assert_allclose(c @ ends, chebyshev.chebval([1.0, -1.0], c), atol=1e-13)
    assert h == pytest.approx({1: 1, 3: 1.5, 7: 2.34375, 11: 2.8203125, 39: 4.8051}[m], rel=1e-4)


def test_the_rounding_term_grows_as_stated():
    # about 5e-11 at N = 4, a = 1, b = 0.45 and 3e-9 at N = 80, a = 79.5, b = 0.01
    assert _rounding_term(4, 1.0, _check_cell(4, 1.0, 0.45)[0]) == pytest.approx(5.6e-11, rel=0.1)
    assert _rounding_term(80, 79.5, []) == pytest.approx(3.4e-9, rel=0.1)
