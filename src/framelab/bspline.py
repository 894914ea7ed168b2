"""Cardinal B-splines and their time-frequency lattice phase diagram.

B_1 is the half-open unit indicator and each further order is the moving
average of the previous one, so B_N is the piecewise polynomial supported
on [0, N] with the partition-of-unity property.  B_N is evaluated by
Horner's rule on its piece polynomials, whose Taylor coefficients are
computed exactly once per order and rounded once each; every point is read
on a left-half piece through the symmetry B_N(x) = B_N(N - x), O(N)
operations per point of the support.  The integer pieces also decide the
partition of unity, the unit integral and interior positivity exactly
(property_suite); what stays numerical, the rounded table and Horner's
rule, is covered by an a-priori bound.  The scanner classifies lattice
parameters (a, b) by sound certificates only, all from one set of
periodized translation-overlap sums (the kernel the wave-packet bounds use
too): exact bounds where the support fits one frequency period and the
overlap sum is empty, a sufficient condition beyond it, and an honest
"undecided" elsewhere.  Between their breakpoints the sums are polynomials
of degree 2N - 2: each piece is read once, at its 2N - 1 Chebyshev nodes,
enclosed through its Chebyshev coefficients, and halved only where that can
still move a bound, with an a-priori rounding term (Farouki & Rajan, CAGD 4,
1987; Trefethen, Approximation Theory and Approximation Practice, 2013);
order 1, an indicator, counts its translates exactly on the rational cell.  The
negative certificates are decided exactly, never read off a value: a
painless diagonal that vanishes, from the support of B_N, the density
theorem, on the exact product a b of the decimals typed (core._as_rational),
and the zeros of the transform of B_N, at an integer b >= 2.  The painless
bounds do not depend on b, so they are computed once per column of a scan.

There is one Horner path, _horner, with no masks: bspline_eval runs it on
the points of [0, N), and the scanner hands it to the kernel, which
evaluates each block of translates and their frequency shifts in one call,
on the entries that lie in [0, N).  Evaluation is pointwise, so
the sums are bit-identical to one call per term; cells too large to
evaluate are rejected before anything is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .core import (
    AnalysisReport,
    DomainError,
    FrameBounds,
    LatticeError,
    _as_float,
    _as_rational,
    _check_order,
    _check_work,
    _sample_count,
    resolve_tolerance,
)
from .dilation import _overlap_sums
from .gabor import DEFAULT_STEP, GaborSpec, SampledWindow, _cycle_length, gabor_frame_bounds


#: work units per big-integer addition of a piece table: one took about 100 ns up to
#: N = 450 on a 2-CPU x86-64 VM, where a work unit is about 10 ns, so the largest admitted
#: table, N = 342, builds in about a second
_TABLE_ADD_WORK = 10
_UNIT = 2.0 ** -53  # the unit roundoff of float64


def _table_work(N: int) -> int:
    """Work of _piece_table(N): N (N - 1) / 2 additions per Taylor shift, one shift per
    piece after the first."""
    return _TABLE_ADD_WORK * (N // 2) * (N * (N - 1) // 2)


def _taylor_shift(coefficients) -> list:
    """The integer coefficients of p(t + 1), highest power first, from those of p(t):
    len - 1 passes of prefix sums (Horner's synthetic division at -1), additions only."""
    shifted = list(coefficients)
    for n in range(len(shifted), 1, -1):
        shifted[:n] = accumulate(shifted[:n])
    return shifted


@functools.lru_cache(maxsize=16)
def _piece_table(N: int):
    """(pieces, table): B_N on its left-half pieces, exactly and rounded once each.

    pieces[j] holds the integer coefficients of (N - 1)! B_N(j + t) on
    [j, j + 1), highest power first, for j = 0..N // 2.  On that piece B_N(x)
    = sum_{i <= j} (-1)^i C(N, i) (x - i)^(N-1) / (N - 1)! (de Boor, A
    Practical Guide to Splines, ch. IX), so piece 0 is t^(N-1), and piece j is
    piece j - 1 shifted by t -> t + 1 (_taylor_shift) plus the new term
    (-1)^j C(N, j) t^(N-1).  table[k, j] is the coefficient of t^k of
    B_N(j + t), rounded by one correctly rounded int / int division; both are
    read-only.
    """
    fact = math.factorial(N - 1)
    pieces = [(1,) + (0,) * (N - 1)]
    for j in range(1, N // 2 + 1):
        scaled = _taylor_shift(pieces[-1])
        scaled[0] += (-1) ** j * math.comb(N, j)
        pieces.append(tuple(scaled))
    table = np.empty((N, N // 2 + 1))
    for j, scaled in enumerate(pieces):
        table[::-1, j] = [c / fact for c in scaled]
    table.flags.writeable = False
    return tuple(pieces), table


def bspline_eval(N: int, x) -> np.ndarray:
    """B_N at x (vectorized), by Horner's rule on the exact piece polynomials.

    B_N is a polynomial of degree N - 1 on each [j, j + 1) (_piece_table) and
    symmetric, B_N(x) = B_N(N - x), so each point is read at y = min(x, N - x)
    on a left-half piece: N - x is exact for x >= N / 2 (Sterbenz), and so is
    t = y - floor(y).  The N - 1 multiply-adds of Horner's rule in t then cost
    O(N) per point; the mirror keeps the last pieces, whose Taylor sums cancel
    near x = N, out of use.  Finite points outside [0, N) are not evaluated
    and give +0.0; NaN and +-inf give NaN (0.0 for N = 1).

    Each point of [0, N) and each non-finite point is charged N units, its
    N - 1 multiply-adds and the gather; the table of the order is charged
    once more, before it is built.
    """
    _check_order(N)
    x = np.asarray(x, dtype=float)
    n_float = _as_float(N, "the order N")
    live = ~(np.isfinite(x) & ((x < 0) | (x >= n_float)))
    _check_work(int(np.count_nonzero(live)) * N, f"B_{N} at {x.size} points")
    out = np.zeros(x.shape)
    if not live.any():  # no table: N may be past any array dimension
        return out
    _check_work(_table_work(N), f"the piece table of B_{N}")
    xl = x[live]
    special = ~np.isfinite(xl)
    xl[special] = 0.0
    value = _horner(N, xl)
    value[special] = np.nan if N > 1 else 0.0
    out[live] = value
    return out


def _horner(N: int, x) -> np.ndarray:
    """B_N at points x of [0, N), unchecked: Horner's rule in t on the left-half
    piece j of y = min(x, N - x), t = y - j (see bspline_eval).  The caller
    keeps x inside [0, N) and charges the work: bspline_eval its points and
    the table, the scanner its cell (_check_cell admits no order whose table
    is over the budget)."""
    table = _piece_table(N)[1]
    y = np.minimum(x, float(N) - x)
    j = y.astype(np.intp)  # in 0..N // 2: "clip" only skips the bounds check
    t = y - j
    value = table[N - 1].take(j, mode="clip")
    column = np.empty_like(value)
    for k in range(N - 2, -1, -1):
        value *= t
        value += table[k].take(j, out=column, mode="clip")
    return value


def bspline_fourier(N: int, gamma) -> np.ndarray:
    """((1 - exp(-2 pi i g)) / (2 pi i g))^N, with value 1 at g = 0.

    Evaluated as (exp(-i pi g) sinc(g))^N, which is exact and stable at the
    removable singularity.
    """
    _check_order(N)
    _as_float(N, "the order N")  # past the float range is a DomainError; the power keeps int N
    g = np.asarray(gamma, dtype=float)
    return (np.exp(-1j * np.pi * g) * np.sinc(g)) ** N


@functools.lru_cache(maxsize=16)
def _table_sum(N: int) -> float:
    """The largest sum of |Taylor coefficients| of a left-half piece of B_N."""
    return float(np.abs(_piece_table(N)[1]).sum(axis=0).max())


def _kernel_error(N: int) -> float:
    """(2N - 1) u S: _horner's value at a float of [0, N) is within this of B_N there,
    S = _table_sum(N).  One rounding per coefficient moves a piece by at most u S, and
    Horner's rule on the rounded piece, N - 1 multiply-adds at t in [0, 1), adds at most
    gamma_{2N-2} S (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 5.1);
    the products of u dropped here are below 1 % for N < 10^13."""
    return (2 * N - 1) * _UNIT * _table_sum(N)


def _partition_bound(N: int) -> float:
    """A-priori bound of |sum_k bspline_eval(N, x - k) - 1| at every float x, in any order
    of summation, given the exact partition of unity of the pieces.

    For N >= 2 at most N terms are nonzero, exact or computed: those with x - k
    in [0, N), as rounding is monotone and keeps 0 and N, so fl(x - k) lies in
    [0, N) only if x - k does (B_N(-0.0) = 0).  fl(x - k) is within u N of
    x - k, and B_N is 1-Lipschitz and 0 at 0 and N (B_N' = B_{N-1} -
    B_{N-1}(. - 1)), so each term is within _kernel_error(N) + u N of its exact
    value; the sum of N terms adds at most gamma_{N-1} times their sum, about
    1.  The factor 1.01 covers the products of u dropped here.
    For N = 1 the bound is 0 where each x - k is exact, as for every dyadic x of
    modest size: each term is 1.0 or 0.0, one of them 1.0.  An inexact
    difference can round to 1.0 from below (x = -1e-20, k = -1) and drop the
    one term, as B_1 jumps there.
    """
    if N == 1:
        return 0.0
    return 1.01 * (N * (_kernel_error(N) + N * _UNIT) + (N - 1) * _UNIT)


def _suite_work(N: int) -> int:
    """Work of property_suite(N): the table, then one Taylor shift of N (N - 1) / 2
    additions per piece for the Bernstein coefficients and one for the mirrored half."""
    return _table_work(N) + _TABLE_ADD_WORK * (N // 2 + 2) * (N * (N - 1) // 2)


def property_suite(N: int, tolerance=None) -> AnalysisReport:
    """Support, interior positivity, unit integral and partition of unity of B_N.

    The last three are decided exactly on the integer pieces p_j = (N - 1)!
    B_N(j + t) of _piece_table, recomputed at every call; the pieces of the
    right half are the mirrored left ones, p_j(t) = p_{N-1-j}(1 - t).
    - Partition of unity: sum_j p_j(t) = (N - 1)! as a polynomial.
    - Unit integral: sum_j sum_k c_jk / (k + 1) = (N - 1)!, over lcm(1..N).
    - Interior positivity: each piece has Bernstein coefficients >= 0, not all
      0, so it is positive on (0, 1), and B_N > 0 at the interior knots.
    A broken identity reports residual inf, failing at every tolerance, a
    holding one 0.0; the partition of unity then reports _partition_bound,
    the a-priori bound of the float sums of bspline_eval.  The support is read
    by one bspline_eval call at 400 points outside [0, N].  The table and the
    shifts are charged before either is built (_suite_work), so every
    admitted order runs in about a second.
    """
    _check_order(N)
    tol = resolve_tolerance(tolerance)
    _check_work(_suite_work(N), f"B_{N}'s property suite")
    outside = np.concatenate([
        np.linspace(-2.0, -1e-9, 200),
        np.linspace(N + 1e-9, N + 2.0, 200),
    ])
    support_leak = float(np.abs(bspline_eval(N, outside)).max())

    pieces = _piece_table(N)[0]
    fact, common = math.factorial(N - 1), math.lcm(*range(1, N + 1))
    # the sums of all left pieces and of those the right half mirrors; column i
    # multiplies t^(N-1-i)
    left, right = ([sum(column) for column in zip(*half)] if half else [0] * N
                   for half in (pieces, pieces[:N - 1 - N // 2]))
    # right(1 - t) is right(1 + s) at s = -t
    reflected = [-c if (N - 1 - i) % 2 else c for i, c in enumerate(_taylor_shift(right))]
    partition = [x + y for x, y in zip(left, reflected)] == [0] * (N - 1) + [fact]
    integral = sum((x + y) * (common // (N - i)) for i, (x, y) in enumerate(zip(left, right)))
    # (1 + s)^(N-1) p(s / (1 + s)) = sum_i C(N - 1, i) b_i s^i is the reversed piece
    # shifted by 1: its coefficients are the Bernstein coefficients b_i times C(N - 1, i)
    bernstein = [_taylor_shift(piece[::-1]) for piece in pieces]
    positive = (all(min(b) >= 0 and max(b) > 0 for b in bernstein)
                and all(piece[-1] > 0 for piece in pieces[1:]))  # at the knots 1..N // 2
    exact = {"partition_of_unity": partition, "unit_integral": integral == fact * common,
             "interior_nonpositive": positive}
    broken = [name for name, holds in exact.items() if not holds]
    residuals = {name: 0.0 if holds else math.inf for name, holds in exact.items()}
    if partition:
        residuals["partition_of_unity"] = _partition_bound(N)
    return AnalysisReport.from_residuals(
        {"support_leak": support_leak, **residuals},
        tol,
        notes=(f"order {N}: support [0, {N}]; " + (
            f"broken on the integer pieces: {', '.join(broken)}" if broken else
            "partition of unity, unit integral and interior positivity exact on the integer "
            "pieces; partition_of_unity is the a-priori bound of the float sums")),
    )


def sample_bspline(N: int, step: float = DEFAULT_STEP) -> SampledWindow:
    """B_N sampled on [0, N] with the given step."""
    _check_order(N)
    count = _sample_count(_as_float(N, "the order N"), step) + 1
    x = step * np.arange(count)
    return SampledWindow(0.0, step, bspline_eval(N, x), (0.0, float(N)))


# -- periodized bound computations -------------------------------------------


#: work units per (offset row, term) of a cell, for the kernel's window search, grouping
#: and block calls: a painless order-2 row takes about 0.56 us, 56 units of 10 ns, on a
#: 2-CPU x86-64 VM, 24 of them charged as spline values; so the 8e5 rows of the least
#: admitted a, 2.48e-6 at b = 0.3, take about half a second
_TERM_WORK = 100
#: halving levels of a piece at most; the bound of a piece still open after them is kept
_MAX_HALVINGS = 8
#: a piece is halved while its bound lies more than this share of the cell's largest value
#: beyond the extreme of the values read, i.e. while it can still move the reported extreme
_TOLERANCE = 2.0 ** -11


@functools.lru_cache(maxsize=8)
def _chebyshev(m: int):
    """(nodes, to_coefficients, halving, ends, h) of the polynomials of degree < m,
    read-only.

    nodes are the m first-kind Chebyshev points cos((j + 1/2) pi / m) of
    (-1, 1), ascending.  to_coefficients maps the values of p at them to its
    Chebyshev coefficients, p = sum_k c_k T_k (a discrete cosine transform):
    row 0 sums to 1, every other row to at most 2 in absolute value.
    coefficients @ halving are the coefficients on [-1, 0] and then those on
    [0, 1], each read on [-1, 1].  Row k of its right half holds the
    coefficients of T_k((s + 1) / 2), 2^-k times the integers of the exact
    recurrence T_{k+1}(x) = (s + 1) T_k(x) - T_{k-1}(x), with 2 s T_l =
    T_{l+1} + T_{|l-1|}, each rounded once; the left half is the right one
    times (-1)^(k + l).  coefficients @ ends are the values at s = 1 and
    s = -1.  h is the largest sum of absolute values of a row of a half,
    exact before rounding: 2.3 for m = 7 and 9.3 for m = 159.
    """
    theta = (np.arange(m, 0, -1) - 0.5) * (np.pi / m)
    to_coefficients = np.cos(np.outer(np.arange(m), theta)) * (2.0 / m)
    to_coefficients[0] /= 2
    rows = [[1], [1, 1]][:m]  # row k scaled by 2^k
    while len(rows) < m:
        last, before = rows[-1], rows[-2]
        row = [2 * c for c in last] + [0]
        for l, c in enumerate(last):
            row[l + 1] += c
            row[abs(l - 1)] += c
        for l, c in enumerate(before):
            row[l] -= 4 * c
        rows.append(row)
    right = np.zeros((m, m))
    for k, row in enumerate(rows):
        right[k, :k + 1] = [math.ldexp(float(c), -k) for c in row]
    signs = (-1.0) ** np.add.outer(np.arange(m), np.arange(m))
    ends = np.stack([np.ones(m), (-1.0) ** np.arange(m)], axis=1)
    parts = np.cos(theta), to_coefficients.T, np.hstack([signs * right, right]), ends
    for part in parts:
        part.flags.writeable = False
    return (*parts, float(max(Fraction(sum(map(abs, row)), 2 ** k) for k, row in enumerate(rows))))


def _least(values: np.ndarray, tolerance: float, floors) -> np.ndarray:
    """Lower bounds, rounding aside, of the least value on [-1, 1] of the polynomials of
    degree < m of each side, given by their values at the m nodes of _chebyshev:
    values[i, j] are those of piece j of side i, and floors[i] is its floor.

    Since |T_k| <= 1 on [-1, 1], c_0 - sum_{k >= 1} |c_k| bounds a piece from
    below.  A piece is halved, by the fixed map of _chebyshev, while its bound
    is below both the least value read on its side less the tolerance and
    the floor: then halving can still move the side's bound by more than the
    tolerance, or lift it over the floor.  Once the least value read on a
    side is at most its floor, no bound can rise above the floor, and none of
    the side is halved.  There are at most _MAX_HALVINGS levels, and they
    halve at most _MAX_HALVINGS times as many pieces as one side was given,
    the lowest first; the values at the ends of the halves join the values
    read.  That target only falls from level to level, so a piece left whole
    is never halved later: each level marks its halved pieces +inf and goes
    on with the halves alone, in the order they were made, and the bounds of
    every level are read once, at the end.
    """
    sides, pieces, m = values.shape
    _, to_coefficients, halving, ends, _ = _chebyshev(m)
    coefficients = values.reshape(-1, m) @ to_coefficients
    bounds = coefficients[:, 0] - np.abs(coefficients[:, 1:]).sum(axis=1)
    side = np.repeat(np.arange(sides), pieces)
    least, floors = values.min(axis=(1, 2)), np.asarray(floors, dtype=float)
    levels, budget, on_side = [(bounds, side)], pieces * _MAX_HALVINGS, np.arange(sides)[:, None]
    for _ in range(_MAX_HALVINGS):
        target = np.where(least > floors, np.maximum(least - tolerance, floors), -np.inf)
        halve = np.flatnonzero(bounds < target[side])
        if not (halve.size and budget):
            break
        halve = halve[np.argsort(bounds[halve], kind="stable")[:budget]]
        budget -= halve.size
        coefficients = (coefficients[halve] @ halving).reshape(-1, m)
        bounds[halve] = np.inf  # bounded by its halves from here on
        side = np.repeat(side[halve], 2)
        ends_read = np.where(side == on_side, (coefficients @ ends).min(axis=1), np.inf)
        least = np.minimum(least, ends_read.min(axis=1))
        bounds = coefficients[:, 0] - np.abs(coefficients[:, 1:]).sum(axis=1)
        levels.append((bounds, side))
    bounds, side = (np.concatenate(part) for part in zip(*levels))
    return np.where(side == on_side, bounds, np.inf).min(axis=1)


def _rounding_term(N: int, a: float, shifts) -> float:
    """E: the bounds of _overlap_bounds, less and plus E, hold for the exact sums of
    the floats a and k/b, and of the rational cell (a', b') of the regime
    decision (core._as_rational), whatever rounding did to the values read.

    With u = 2^-53, m = 2N - 1, s the largest |k/b| and T = (floor(N/a) + 2)
    (1 + len(shifts)) the live terms at a point, at a' too (each at most 1, as
    0 <= B_N <= 1, so diag + off <= T):
    - Placement.  A node, fl(n a) and fl(k/b), the arguments fl(fl(x - n a) -
      k/b) and the knots fl(j + k/b) mod a are each within d = 2u (3N + 11a +
      2s) of their exact values in either cell: rounding takes u (3N + 5a + s)
      of an argument (|n a| <= N + 2a), u (N + a + 2s) of a knot and 7ua of a
      node, and a' and b', in the rounding intervals of a and b, move an
      argument by u (N + 2a + s) (1 + u) more and a knot, less m a' <= N + s,
      by u (N + a + 2s) (1 + u).  The period a' exceeds a by u a at most, where
      the float sums repeat their first piece.
    - The kernel.  Horner's rule on the rounded table is within
      _kernel_error(N) = (2N - 1) u S of B_N at a float, S the largest sum of
      |coefficients| of a piece of _piece_table (2.5 at most, falling with
      N), and B_N is 1-Lipschitz for N >= 2 (B_N' = B_{N-1} - B_{N-1}(. -
      1)), so each term's factor is off by at most e = (2N - 1) u S + d.
      The products and the two sums of at most T terms, and diag -+ off,
      then keep a value within P = T (2e + e^2 + (T + 2) u).
    - The knots.  Between true breakpoints, diag -+ off is a polynomial of
      degree 2N - 2 and is 2T-Lipschitz.  A true breakpoint inside a piece
      lies within d of one of its ends, so on the piece diag -+ off is within
      4Td of one polynomial Q; a node is off its place by at most d.  So
      every value read is within D = P + 6Td of Q at the exact node.
    - The conversion.  The coefficients of data off by D are off by at most
      (2m - 1) D in sum, the sum of |entries| of to_coefficients.  The angle
      k theta_j of an entry carries a relative error of at most 4u, so the
      entry is off by at most (2/m) (4 pi k + 2) u; with the product (m
      terms) and c_0 - sum |c_k| that adds at most 20 m^2 u T.
    - Each halving.  A polynomial bounded by T has sum |c_k| <= (2m - 1) T
      (|c_k| <= 2 max |p|), so the rounded entries of a half map and the
      product with them add at most (m + 1) u h (2m - 1) T per level, h the
      row sum of _chebyshev; a halving moves no value, so earlier errors pass
      through it unchanged.  The halves of a piece cover it, wherever
      its midpoint rounds.

    So E = 1.03 ((2m - 1) D + 4Td + 20 m^2 u T + _MAX_HALVINGS (m + 1) u h
    (2m - 1) T), the 3 % covering the first-order products dropped above and
    the division of the bounds by the float b, not b' (2uT at most, below 1 %
    of E >= 18Td).  It grows as N^2 T^2 u for large T and as m^3 u T through
    the halvings: about 5e-11 at N = 4, a = 1, b = 0.45 and 3e-9 at N = 80,
    a = 79.5, b = 0.01.  It needs N >= 2: B_1 jumps, so a piece narrower than
    the rounding of its ends can be misread, and order 1 is counted exactly
    instead (_indicator_bounds).
    """
    m, u = 2 * N - 1, _UNIT
    s = max(map(abs, shifts), default=0.0)
    T = (math.floor(N / a) + 2) * (1 + len(shifts))
    d = 2 * u * (3 * N + 11 * a + 2 * s)
    e = _kernel_error(N) + d
    data = T * (2 * e + e * e + (T + 2) * u) + 6 * T * d
    h = _chebyshev(m)[4]
    return 1.03 * ((2 * m - 1) * data + 4 * T * d + 20 * m * m * u * T
                   + _MAX_HALVINGS * (m + 1) * u * h * (2 * m - 1) * T)


def _check_cell(N, a, b):
    """Reject a cell the scanner cannot or should not evaluate, before anything is
    built; return the shifts k/b of its overlap sum, none in the painless regime
    b N <= 1, and the rational b = p/q (core._as_rational) that decides it, as p N <= q.

    A cell is charged by what it reads: _TERM_WORK per term of each offset
    row, for the kernel's windows and blocks; N units per spline value at the
    2N - 1 nodes of every piece (Horner's N - 1 multiply-adds and the
    product), for each term; and (2N - 1)^2 per piece of both sides for
    the conversion, and per half for the halvings, at most _MAX_HALVINGS
    times as many as the period has pieces.  The 741 cells of the README
    scan need less than 3.6e5 units each.
    """
    _check_order(N)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"lattice steps must be finite (got a={a!r}, b={b!r})")
    if a <= 0 or b <= 0:
        raise DomainError("lattice steps must be positive")
    b_rational = _as_rational(b, "b")
    painless = b_rational.numerator * N <= b_rational.denominator
    try:
        k_max = 0 if painless else int(math.ceil(b * N)) + 1
        terms, m = 2 * k_max + 1, 2 * N - 1
        pieces = (N + 1) * terms + 1
        work = (_TERM_WORK * (math.ceil(N / a) + 3) * terms
                + pieces * m * (math.floor(N / a) + 2) * terms * N
                + 2 * pieces * m * m * (1 + _MAX_HALVINGS))
    except OverflowError:
        work = math.inf
    _check_work(work, f"spline evaluations of cell N={N}, a={a:g}, b={b:g}")
    return [k / b for k in range(-k_max, k_max + 1) if k != 0], b_rational


def _piece_reads(N: int, a: float, shifts):
    """(cuts, diag, off): the pieces [cuts[i], cuts[i + 1]] of [0, a] between the knots
    (j + k/b) mod a, j = 0..N, and the sums at the 2N - 1 nodes of _chebyshev of each
    piece, one row per piece, from one _overlap_sums call over the cell."""
    knots = {(k + s) % a for k in range(N + 1) for s in [0.0, *shifts]}
    cuts = np.array(sorted(knots | {0.0, a}))
    lefts, rights = cuts[:-1, None], cuts[1:, None]
    nodes = _chebyshev(2 * N - 1)[0]
    # nodes of a piece stay inside it, so the points ascend, as the kernel needs
    xs = np.clip((lefts + rights) / 2 + (rights - lefts) / 2 * nodes, lefts, rights)
    # points lie in [0, a]: translates n*a outside this range miss [0, N)
    offsets = [n * a for n in range(-int(math.ceil(N / a)) - 1, 2)]
    diag, off = _overlap_sums(functools.partial(_horner, N), [1.0], offsets, shifts, xs,
                              (0.0, float(N)))
    return cuts, diag, off


def _overlap_bounds(N: int, a: float, shifts):
    """(lo, hi), lo <= inf(diag - off) and hi >= sup(diag + off), before the division
    by b, for a cell of order N >= 2 that _check_cell admitted.

    diag sums the squared translates B_N(x - n a), off their overlaps at the
    shifts k/b, none in the painless regime, where the bounds are those of the
    periodized diagonal.  Both are a-periodic, and between the knots of
    _piece_reads both are polynomials of degree 2N - 2, read once at 2N - 1
    nodes per piece.  _least encloses and halves the pieces of diag - off and
    of -(diag + off), at a tolerance of _TOLERANCE times the largest value
    read, and diag - off only while it can still be certified positive.
    _rounding_term's E makes the bounds hold for the exact sums.
    """
    _, diag, off = _piece_reads(N, a, shifts)
    rounding = _rounding_term(N, a, shifts)
    sides = np.empty((2, *diag.shape))
    np.subtract(diag, off, out=sides[0])
    largest = float(np.add(diag, off, out=sides[1]).max())
    np.negative(sides[1], out=sides[1])
    lower, upper = _least(sides, _TOLERANCE * largest, [rounding, -math.inf])
    return float(lower) - rounding, rounding - float(upper)


@functools.lru_cache(maxsize=1)
def _painless_bounds(N: int, a: float):
    """_overlap_bounds of a painless cell, which has no shifts and so does not depend on b:
    the scanner sweeps b inside each (N, a) column, and one entry serves the column."""
    return _overlap_bounds(N, a, [])


def _indicator_bounds(a: Fraction, b: Fraction, k_max: int):
    """(inf(diag - off), sup(diag + off)) of order 1, exactly, for the rational cell
    (a, b) of core._as_rational, the one its regime and density are decided on, and the
    shifts k/b, 0 < |k| <= k_max.

    B_1 is the indicator of [0, 1), so diag and off count translates: diag
    those of [0, 1), off those of [max(0, s), min(1, 1 + s)) for each shift
    |s| < 1.  The count of [l, r), #{n : l <= x - n a < r}, is floor((x - l)/a)
    - floor((x - r)/a): it rises by 1 where x = l mod a and falls by 1 where
    x = r mod a.  So both sums are constant on the pieces between these
    Fraction breakpoints, and one sweep over them, from their exact values at
    x = 0, reads every piece.
    """
    shifts = (k / b for k in range(-k_max, k_max + 1) if k)
    intervals = [(0, 1, 0)] + [(max(0, s), min(1, 1 + s), 1) for s in shifts if -1 < s < 1]
    counts, jumps = [0, 0], {}  # diag and off at x = 0; their jumps at each breakpoint
    for left, right, sums in intervals:
        counts[sums] += math.floor(-left / a) - math.floor(-right / a)
        for end, jump in ((left % a, 1), (right % a, -1)):
            if end:
                jumps.setdefault(end, [0, 0])[sums] += jump
    (diag, off), lo, hi = counts, counts[0] - counts[1], sum(counts)
    for end in sorted(jumps):
        diag, off = diag + jumps[end][0], off + jumps[end][1]
        lo, hi = min(lo, diag - off), max(hi, diag + off)
    return float(lo), float(hi)


def finite_section_bounds(N: int, a: float, b: float):
    """Spectral bounds of an exact cyclic section of the lattice system.

    The rational (a, b) of core._as_rational is realized on a cyclic grid: the
    least sampling density M >= 16 with a M and M/b integral, and the cycle of
    gabor._cycle_length, the shortest on which b is an integral frequency
    step, that holds the support [0, N] and one sample more, up to 8192
    samples (else LatticeError).  The returned bounds are the extreme
    eigenvalues of the cyclic frame operator times the step 1/M, i.e.
    continuous normalization.
    """
    af, bf = _as_rational(a, "a"), _as_rational(b, "b")
    M0 = math.lcm(af.denominator, bf.numerator)
    M = M0 * max(1, math.ceil(16 / M0))
    a_int = int(af * M)
    L = _cycle_length(a_int, bf / M, M * (N + 1))
    if L > 8192:
        raise LatticeError(f"cyclic section too large (L = {L} > 8192)")
    fb = gabor_frame_bounds(GaborSpec(L, a_int, int(bf * L / M), bspline_eval(N, np.arange(L) / M)))
    return FrameBounds(fb.lower / M, fb.upper / M)


STATUS_FRAME = "frame_certified"
STATUS_ZERO = "lower_bound_zero_certified"
STATUS_UNDECIDED = "undecided"


@dataclass(frozen=True)
class PhaseDiagramCell:
    """One (a, b) classification with its certificate or estimate."""

    a: float
    b: float
    status: str
    bounds_estimate: FrameBounds
    method: str

    def __post_init__(self):
        if self.status == STATUS_FRAME and not self.bounds_estimate.lower > 0:
            raise ValueError("a frame certificate requires a positive lower bound")


def classify_cell(N: int, a: float, b: float, attach_estimates: bool = True) -> PhaseDiagramCell:
    """Sound classification of one lattice cell.

    Certificates: exact periodized bounds in the painless regime (including
    the negative certificate: B_N > 0 on (0, N), so the diagonal vanishes iff
    a >= N, and iff a > 1 for N = 1, never read off a value that underflows
    to 0.0), the translation-overlap sufficient condition outside it, and
    otherwise undecided with a cyclic finite-section estimate attached when
    feasible.  Both rest on the enclosures of _overlap_bounds: every piece of
    the sums between their breakpoints is read at 2N - 1 Chebyshev nodes and
    bounded through its Chebyshev coefficients, halved where that can still
    move a bound, less or plus an a-priori rounding term; a cell whose lower
    enclosure is not positive is not certified.  Order 1 counts its
    translates exactly instead (_indicator_bounds).  Before the sufficient
    conditions, the density theorem zero-certifies every cell with a b > 1,
    for any window (Rieffel, Math. Ann. 257, 1981; Heil, JFAA 13, 2007), and
    with a b = 1 for N >= 2: B_N is then continuous with compact support, so
    its Zak transform has a zero, and at a b = 1 that rules out a frame
    (Groechenig, Foundations of Time-Frequency Analysis, 2001, ch. 8).  N = 1
    at a = b = 1 is an orthonormal basis.  a b is the exact product of the
    rationals of core._as_rational, the decimals typed, as is every regime
    decision, each compared on integers (p p' against q q' for a b = (p/q)
    (p'/q')).  After them, an integer b >= 2 zero-certifies the cell: the
    transform of B_N vanishes at every nonzero integer, so sum_k |B_N^(w -
    k b)|^2 = 0 at w = 1 (Groechenig, Janssen, Kaiblinger & Pfander, IEEE
    Trans. Inf. Theory 49, 2003).  Input that _check_cell rejects raises
    DomainError before anything is built; a painless cell of order N >= 2
    then reads the bounds of its (N, a) column from _painless_bounds.
    """
    shifts, b_rational = _check_cell(N, a, b)
    a_rational, painless = _as_rational(a, "a"), not shifts
    lo, hi = (_indicator_bounds(a_rational, b_rational, len(shifts) // 2) if N == 1 else
              _painless_bounds(N, a) if painless else _overlap_bounds(N, a, shifts))
    lower, estimate = 0.0, None
    product = a_rational.numerator * b_rational.numerator
    unit = a_rational.denominator * b_rational.denominator
    if painless and (a >= N if N > 1 else a > 1):
        status, method = STATUS_ZERO, "painless diagonal vanishes exactly"
    elif product > unit or product == unit and N > 1:
        status, method = STATUS_ZERO, ("density theorem: a b > 1" if product > unit else
                                       "density theorem: a b = 1 and the Zak transform of B_N vanishes")
    elif b_rational.denominator == 1 and b_rational.numerator >= 2:
        status, method = STATUS_ZERO, "integer b >= 2: the transform of B_N vanishes at every 1 - k b"
    elif lo > 0:
        status, lower = STATUS_FRAME, lo / b
        method = "painless periodization" if painless else "translation-overlap sufficient condition"
    elif painless:
        status, method = STATUS_UNDECIDED, "painless enclosure not positive"
    else:
        status, method = STATUS_UNDECIDED, "sufficient condition inconclusive"
        if attach_estimates:
            try:
                estimate = finite_section_bounds(N, a, b)
                method += "; cyclic finite-section estimate"
            except LatticeError:
                pass
    return PhaseDiagramCell(a, b, status, estimate or FrameBounds(lower, hi / b), method)


def dual_window_solve(N: int, b: float, tolerance=None):
    """The classical dual window h = b sum_{|k| <= N-1} B_N(. + k) of B_N at unit
    time step and modulation b, for b <= 1/(2N - 1) (Christensen, ACHA 20, 2006).

    h = b on [0, N] by the partition of unity (proven on the integer pieces,
    property_suite), and for n != 0 the support [n/b, n/b + N] of B_N(. - n/b)
    meets supp h = [-(N - 1), 2N - 1] in at most a point exactly when
    b (2N - 1) <= 1, decided on the integers of b = p/q (core._as_rational) as
    p (2N - 1) <= q.  So the pair satisfies the Ron-Shen identity
    sum_k B_N(x - n/b - k) h(x - k) = b delta_n0 exactly: its residual is 0 by
    theorem, not by sampling, and passes at the tolerance, 1e-8 when None.
    The window is sampled on [-(N - 1), 2N - 1] at step 1/(64 p), which holds
    1 and 1/b, so gabor's sampled-line checks can read it; each of its samples
    is charged its 2N - 1 spline values, N units each.
    """
    _check_order(N)
    limit, bf = 1.0 / (2 * _as_float(N, "the order N") - 1), _as_rational(b, "b")
    p, q = bf.numerator, bf.denominator
    if not 0 < p * (2 * N - 1) <= q:
        raise DomainError(f"dual-window regime needs 0 < b <= 1/(2N-1) = {limit:g} (got {b})")
    tolerance = 1e-8 if tolerance is None else resolve_tolerance(tolerance)
    K, count = N - 1, 64 * p * (3 * N - 2) + 1
    _check_work((2 * K + 1) * count * N, f"the order-{N} dual window on {count} samples")
    step, scale = 1.0 / (64 * p), float(bf)  # b itself for a float b
    x = -K + step * np.arange(count)
    hvals = np.zeros(count)
    for k in range(-K, K + 1):
        hvals += scale * bspline_eval(N, x + k)
    window = SampledWindow(-float(K), step, hvals, (-float(K), float(N + K)))
    report = AnalysisReport.from_residuals(
        {"ron_shen": 0.0}, tolerance,
        notes=(f"h = b sum_{{|k| <= {K}}} B_{N}(. + k); dual by theorem, not by sampling: "
               f"p (2N - 1) = {p * (2 * N - 1)} <= q = {q} for b = p/q; grid step 1/{64 * p}"),
    )
    return window, report
