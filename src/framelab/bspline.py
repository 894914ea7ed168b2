"""Cardinal B-splines and their time-frequency lattice phase diagram.

B_1 is the half-open unit indicator and each further order is the moving
average of the previous one, so B_N is the piecewise polynomial supported
on [0, N] with the partition-of-unity property.  B_N is evaluated by
Horner's rule on its piece polynomials, whose Taylor coefficients are
computed exactly once per order and rounded once each; every point is read
on a left-half piece through the symmetry B_N(x) = B_N(N - x), O(N)
operations per point of the support.  The scanner classifies lattice
parameters (a, b) by sound certificates only, all from one set of
periodized translation-overlap sums (the kernel the wave-packet bounds use
too): exact bounds where the support fits one frequency period and the
overlap sum is empty, a sufficient condition beyond it, and an honest
"undecided" elsewhere.  The negative certificates are decided exactly, never
read off the grid: a painless diagonal that vanishes, from the support of
B_N, the density theorem, on the exact product a b of the float cell, and
the zeros of the transform of B_N, at an integer b >= 2.  The painless
bounds do not depend on b, so they are computed once per column of a scan.

There is one Horner path, _horner, with no masks: bspline_eval runs it on
the points of [0, N), and the scanner hands it to the kernel, which
evaluates each translate and each of its frequency shifts only on the slice
of the sorted grid where it lies in [0, N).  Evaluation is pointwise, so
the sums are bit-identical to one call per term; cells too large to
evaluate are rejected before any grid is built.
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
    GridError,
    LatticeError,
    _as_float,
    _check_order,
    _check_work,
    _sample_count,
    resolve_tolerance,
)
from .dilation import _overlap_sums
from .gabor import GaborSpec, SampledWindow, _cycle_length, gabor_frame_bounds, ron_shen_duality_check


#: work units per big-integer addition of a piece table: one took about 100 ns up to
#: N = 450 on a 2-CPU x86-64 VM, where a work unit is about 10 ns, so the largest admitted
#: table, N = 342, builds in about a second
_TABLE_ADD_WORK = 10


def _table_work(N: int) -> int:
    """Work of _piece_table(N): N (N - 1) / 2 additions per Taylor shift, one shift per
    piece after the first."""
    return _TABLE_ADD_WORK * (N // 2) * (N * (N - 1) // 2)


@functools.lru_cache(maxsize=16)
def _piece_table(N: int) -> np.ndarray:
    """Taylor coefficients of B_N on its left-half pieces, rounded once each.

    table[k, j] is the coefficient of t^k of B_N(j + t) on [j, j + 1), for
    j = 0..N // 2.  On that piece B_N(x) = sum_{i <= j} (-1)^i C(N, i)
    (x - i)^(N-1) / (N - 1)! (de Boor, A Practical Guide to Splines, ch. IX),
    so the scaled piece (N - 1)! B_N(j + t) has integer coefficients: piece 0
    is t^(N-1), and piece j is piece j - 1 shifted by t -> t + 1 plus the new
    term (-1)^j C(N, j) t^(N-1).  The shift runs as N - 1 passes of suffix
    sums over the integer coefficients, additions only (Horner's synthetic
    division at -1); each coefficient is then rounded by one correctly
    rounded int / int division.
    """
    fact = math.factorial(N - 1)
    scaled = [0] * N  # highest power first: scaled[i] multiplies t^(N-1-i)
    scaled[0] = 1
    table = np.empty((N, N // 2 + 1))
    for j in range(N // 2 + 1):
        if j:
            for n in range(N, 1, -1):
                scaled[:n] = accumulate(scaled[:n])
            scaled[0] += (-1) ** j * math.comb(N, j)
        table[::-1, j] = [c / fact for c in scaled]
    table.flags.writeable = False
    return table


def _point_work(N: int) -> int:
    """Work charged per value of B_N: the N (N + 1) / 2 entries of the order recurrence's
    triangle, an upper bound of Horner's N - 1 multiply-adds kept so no refusal moves."""
    return N * (N + 1) // 2


def bspline_eval(N: int, x) -> np.ndarray:
    """B_N at x (vectorized), by Horner's rule on the exact piece polynomials.

    B_N is a polynomial of degree N - 1 on each [j, j + 1) (_piece_table) and
    symmetric, B_N(x) = B_N(N - x), so each point is read at y = min(x, N - x)
    on a left-half piece: N - x is exact for x >= N / 2 (Sterbenz), and so is
    t = y - floor(y).  The N - 1 multiply-adds of Horner's rule in t then cost
    O(N) per point; the mirror keeps the last pieces, whose Taylor sums cancel
    near x = N, out of use.  Finite points outside [0, N) are not evaluated
    and give +0.0; NaN and +-inf give NaN (0.0 for N = 1).

    Each point of [0, N) and each non-finite point is charged _point_work(N);
    the table of the order is charged once more, before it is built.
    """
    _check_order(N)
    x = np.asarray(x, dtype=float)
    n_float = _as_float(N, "the order N")
    live = ~(np.isfinite(x) & ((x < 0) | (x >= n_float)))
    _check_work(int(np.count_nonzero(live)) * _point_work(N), f"B_{N} at {x.size} points")
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
    table = _piece_table(N)
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


def bspline_integral(N: int) -> float:
    """Integral over the support, by per-knot-interval Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(max(8, N))
    total = 0.0
    for k in range(N):
        x = k + (nodes + 1) / 2
        total += float(np.sum(weights * bspline_eval(N, x)) / 2)
    return total


_SUITE_POINTS = 2048  # interior and partition-of-unity points of property_suite


def property_suite(N: int, tolerance=None) -> AnalysisReport:
    """Support, interior positivity, unit integral, partition of unity."""
    _check_order(N)
    tol = resolve_tolerance(tolerance)
    # points in the support: interior, partition sums (N + 1 per point), Gauss nodes
    _check_work((_SUITE_POINTS * (N + 2) + N * max(8, N)) * _point_work(N), f"B_{N}'s property suite")
    outside = np.concatenate([
        np.linspace(-2.0, -1e-9, 200),
        np.linspace(N + 1e-9, N + 2.0, 200),
    ])
    support_leak = float(np.abs(bspline_eval(N, outside)).max())

    interior = np.linspace(0, N, _SUITE_POINTS + 1)[1:-1]
    min_interior = float(bspline_eval(N, interior).min())

    integral_dev = abs(bspline_integral(N) - 1.0)

    xs = np.linspace(0.0, 3.0, _SUITE_POINTS)
    partition = np.zeros_like(xs)
    for k in range(-N - 2, N + 5):
        partition += bspline_eval(N, xs - k)
    partition_dev = float(np.abs(partition - 1.0).max())

    return AnalysisReport.from_residuals(
        {
            "support_leak": support_leak,
            "interior_nonpositive": 0.0 if min_interior > 0 else 1.0,
            "unit_integral": integral_dev,
            "partition_of_unity": partition_dev,
        },
        tol,
        notes=f"order {N}: support [0, {N}], min interior value {min_interior:.3e}",
        details={"min_interior": min_interior},
    )


def sample_bspline(N: int, step: float = 1.0 / 64) -> SampledWindow:
    """B_N sampled on [0, N] with the given step."""
    _check_order(N)
    count = _sample_count(_as_float(N, "the order N"), step) + 1
    x = step * np.arange(count)
    return SampledWindow(0.0, step, bspline_eval(N, x), (0.0, float(N)))


# -- periodized bound computations -------------------------------------------


def _scan_grid(a: float, period_points: int, knots) -> np.ndarray:
    """Uniform grid over [0, a) augmented with knots and piece midpoints."""
    base = a * np.arange(period_points) / period_points
    ks = sorted({float(k) % a for k in knots} | {0.0, a})
    mids = [(u + v) / 2 for u, v in zip(ks, ks[1:]) if v > u]
    pts = np.unique(np.concatenate([base, np.array(ks[:-1]), np.array(mids)]))
    return pts[(pts >= 0) & (pts < a)]


def _check_cell(N, a, b, period_points):
    """Reject a cell the scanner cannot or should not evaluate, before anything is
    built, and decide its regime: (the shifts k/b of the overlap sum, none in the
    painless regime b N <= 1 (exact), and the grid size, at least 2048 outside it)."""
    _check_order(N)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"lattice steps must be finite (got a={a!r}, b={b!r})")
    if a <= 0 or b <= 0:
        raise DomainError("lattice steps must be positive")
    if period_points < 1:
        raise DomainError(f"period_points must be a positive integer (got {period_points!r})")
    # spline evaluations of the overlap bounds, in floats; the acceptance grids, the
    # benchmark cells and `bspline scan --N 4` over a = 0.1..3.9, b = 0.05..0.5 need < 1.3e7
    try:
        painless = Fraction(b) * N <= 1
        period_points = period_points if painless else max(period_points, 2048)
        shifts = 0 if painless else 2 * (b * N + 2)
        points = period_points + 2 * ((N + 1) * (1 + shifts) + 2)
        work = (N / a + 4) * (1 + shifts) * points * _point_work(N)
    except OverflowError:
        work = math.inf
    _check_work(work, f"spline evaluations of cell N={N}, a={a:g}, b={b:g}")
    k_max = 0 if painless else int(math.ceil(b * N)) + 1
    return [k / b for k in range(-k_max, k_max + 1) if k != 0], period_points


def _overlap_bounds(N: int, a: float, shifts, period_points: int):
    """Periodized translation-overlap bounds of a cell that _check_cell admitted, on the
    knot-augmented grid over [0, a) of the size it chose: (inf of diag - off, sup of
    diag + off, slack), all before the division by b.  diag sums the squared translates B_N(x - n a),
    off their overlaps at its shifts k/b; in the painless regime there are none, and the
    values are the exact periodized bounds.  The true inf/sup lie within slack of the
    grid values (Lipschitz bound; exact for order 1, whose piecewise-constant sums are
    sampled in every piece)."""
    knots = [k + s for k in range(N + 1) for s in [0.0] + shifts]
    xs = _scan_grid(a, period_points, knots)
    # points lie in [0, a): translates n*a outside this range miss [0, N)
    offsets = [n * a for n in range(-int(math.ceil(N / a)) - 1, 2)]
    diag, off = _overlap_sums(functools.partial(_horner, N), [1.0], offsets, shifts, xs,
                              (0.0, float(N)))
    # Lipschitz slack: translates meeting a point, times the terms per translate
    terms = (int(math.floor(N / a)) + 1) * (len(shifts) + 1)
    slack = 0.0 if N == 1 else 2.0 * terms * (a / period_points) / 2
    return float((diag - off).min()), float((diag + off).max()), slack


@functools.lru_cache(maxsize=1)
def _painless_bounds(N: int, a: float, period_points: int):
    """_overlap_bounds of a painless cell, which has no shifts and so does not depend on b:
    the scanner sweeps b inside each (N, a) column, and one entry serves the column."""
    return _overlap_bounds(N, a, [], period_points)


def finite_section_bounds(N: int, a: float, b: float):
    """Spectral bounds of an exact cyclic section of the lattice system.

    Rational (a, b) are realized on a cyclic grid: the least sampling density
    M >= 16 with a M and M/b integral, and the cycle of gabor._cycle_length,
    the shortest on which b is an integral frequency step, that holds the
    support [0, N] and one sample more, up to 8192 samples (else
    LatticeError).  The returned bounds are the extreme eigenvalues of the
    cyclic frame operator times the step 1/M, i.e. continuous normalization.
    """
    af = Fraction(a).limit_denominator(4096)
    bf = Fraction(b).limit_denominator(4096)
    if abs(float(af) - a) > 1e-9 or abs(float(bf) - b) > 1e-9:
        raise GridError("finite sections need rational lattice parameters")
    M0 = math.lcm(af.denominator, bf.numerator)
    M = M0 * max(1, math.ceil(16 / M0))
    a_int = int(af * M)
    L = _cycle_length(a_int, b, 1 / M, M * (N + 1))
    if L > 8192:
        raise LatticeError(f"cyclic section too large (L = {L} > 8192)")
    fb = gabor_frame_bounds(GaborSpec(L, a_int, round(b * L / M), bspline_eval(N, np.arange(L) / M)))
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


def classify_cell(N: int, a: float, b: float, period_points: int = 1024,
                  attach_estimates: bool = True) -> PhaseDiagramCell:
    """Sound classification of one lattice cell.

    Certificates: exact periodized bounds in the painless regime (including
    the negative certificate: B_N > 0 on (0, N), so the diagonal vanishes iff
    a >= N, and iff a > 1 for N = 1, never read off a grid value that
    underflows to 0.0), the translation-overlap sufficient condition outside
    it, and otherwise undecided with a cyclic finite-section estimate
    attached when feasible.  Before the sufficient conditions, the density
    theorem zero-certifies every cell with a b > 1, for any window (Rieffel,
    Math. Ann. 257, 1981; Heil, JFAA 13, 2007), and with a b = 1 for N >= 2:
    B_N is then continuous with compact support, so its Zak transform has a
    zero, and at a b = 1 that rules out a frame (Groechenig, Foundations of
    Time-Frequency Analysis, 2001, ch. 8).  N = 1 at a = b = 1 is an
    orthonormal basis.  a b is the exact product of the two floats.  After
    them, an integer b >= 2 zero-certifies the cell: the transform of B_N
    vanishes at every nonzero integer, so sum_k |B_N^(w - k b)|^2 = 0 at
    w = 1 (Groechenig, Janssen, Kaiblinger & Pfander, IEEE Trans. Inf.
    Theory 49, 2003).  Input that _check_cell rejects raises DomainError
    before anything is built; a painless cell then reads the bounds of its
    (N, a, period_points) column from _painless_bounds.
    """
    shifts, points = _check_cell(N, a, b, period_points)
    painless = not shifts
    lo, hi, slack = _painless_bounds(N, a, points) if painless else _overlap_bounds(N, a, shifts, points)
    lower, estimate = 0.0, None
    density = Fraction(a) * Fraction(b)
    if painless and (a >= N if N > 1 else a > 1):
        status, method = STATUS_ZERO, "painless diagonal vanishes exactly"
    elif density > 1 or density == 1 and N > 1:
        status, method = STATUS_ZERO, ("density theorem: a b > 1" if density > 1 else
                                       "density theorem: a b = 1 and the Zak transform of B_N vanishes")
    elif b >= 2 and float(b).is_integer():
        status, method = STATUS_ZERO, "integer b >= 2: the transform of B_N vanishes at every 1 - k b"
    elif lo - slack > 0:
        status, lower = STATUS_FRAME, (lo - slack) / b
        method = "painless periodization" if painless else "translation-overlap sufficient condition"
    elif painless:
        status, method = STATUS_UNDECIDED, "painless grid estimate below slack"
    else:
        status, method = STATUS_UNDECIDED, "sufficient condition inconclusive"
        if attach_estimates:
            try:
                estimate = finite_section_bounds(N, a, b)
                method += "; cyclic finite-section estimate"
            except (GridError, LatticeError):
                pass
    return PhaseDiagramCell(a, b, status, estimate or FrameBounds(lower, (hi + slack) / b), method)


def dual_window_solve(N: int, b: float, shift_range: int = None, tolerance=None):
    """Dual window as a combination of integer shifts of the spline itself.

    In the regime b <= 1/(2N-1) (unit time step), the ansatz
    h = sum_{|k| <= K} c_k B_N(. + k) with K >= N-1 turns the dual-pair
    conditions into a finite linear system on [0, 1), solved here in least
    squares; the returned report re-verifies the dual pair on a sampled
    grid at the tolerance, 1e-8 when None.  The classical solution c_k = b
    is reproduced up to the kernel of the (rank-deficient, symmetric-shift)
    design matrix.
    """
    _check_order(N)
    limit = 1.0 / (2 * _as_float(N, "the order N") - 1)
    if not 0 < b <= limit + 1e-12:
        raise DomainError(f"dual-window regime needs 0 < b <= 1/(2N-1) = {limit:g} (got {b:g})")
    tolerance = 1e-8 if tolerance is None else resolve_tolerance(tolerance)
    K = shift_range if shift_range is not None else max(N - 1, 0)
    if K < N - 1:
        raise DomainError(f"need at least K = N-1 = {N - 1} shifts (got {K})")
    bf = Fraction(b).limit_denominator(10 ** 6)
    if bf == 0 or abs(float(bf) - b) > 1e-12:
        raise GridError("b must be a rational of denominator at most 10^6 to sample the "
                        "verification grid")
    samples, n_max, table = 4 * K + 4, int(math.floor(b * (N + K) + 1e-9)), _point_work(N)
    output_step = 1.0 / (64 * bf.numerator)
    count = int(round((N + 2 * K) / output_step)) + 1
    n_count, k_count, j_count = 2 * n_max + 1, 2 * K + 1, 2 * (N + K + 2) + 1
    # the (n, j) and (j, k) factor tables, the design, the window's shifted splines
    _check_work(((n_count + k_count) * j_count * samples + k_count * count) * table
                + n_count * k_count * samples, f"the order-{N} dual window over {k_count} shifts")
    xs = (np.arange(samples) + 0.5) / samples
    ns, ks, js = (np.arange(-m, m + 1) for m in (n_max, K, N + K + 2))
    # design[n, k] = sum over j, in order, of B_N(xs - n/b - j) B_N(xs - j + k); a
    # product with a zero factor is +0.0, so each j adds only its live (n, k) block
    left = bspline_eval(N, xs - ns[:, None, None] / b - js[:, None])  # (n, j, sample)
    right = bspline_eval(N, xs - js[:, None, None] + ks[:, None])  # (j, k, sample)
    design = np.zeros((n_count, k_count, samples))
    for j in range(j_count):
        n_live, k_live = left[:, j].any(axis=1), right[j].any(axis=1)
        design[np.ix_(n_live, k_live)] += left[n_live, j, None] * right[None, j, k_live]
    target = np.repeat(np.where(ns == 0, b, 0.0), samples)
    coeff, _, rank, _ = np.linalg.lstsq(design.transpose(0, 2, 1).reshape(-1, k_count), target,
                                        rcond=None)

    x = -K + output_step * np.arange(count)
    hvals = np.zeros(count)
    for ck, k in zip(coeff, ks):
        hvals += ck * bspline_eval(N, x + k)
    window = SampledWindow(-float(K), output_step, hvals, (-float(K), float(N + K)))

    check = ron_shen_duality_check(sample_bspline(N, output_step), window, 1.0, b,
                                   tolerance=tolerance)
    report = AnalysisReport.from_residuals(
        check.residuals, tolerance,
        notes=(
            f"shift coefficients {np.round(coeff, 12).tolist()}; "
            f"design rank {rank} of {len(ks)} (shift symmetry halves it); "
            + check.notes
        ),
        details={"rank": float(rank), "shift_count": float(len(ks))},
    )
    return window, report
