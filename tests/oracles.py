"""Independent oracles shared by several test modules."""

import functools
import math
from fractions import Fraction
from operator import mul

import numpy as np

from framelab.core import AnalysisReport, LatticeError, _as_rational, _shift_window
from framelab.gabor import RON_SHEN_TOL_PER_STEP, _lookup, _steps_of, finite_gabor_system


def rayleigh_extremes(S: np.ndarray, rng, samples: int = 2048, iterations: int = 2000):
    """Brute-force extreme Rayleigh quotients of a Hermitian PSD matrix.

    Independent of the eigensolver path: dense random sampling of the unit
    sphere plus power-iteration refinement (matvecs and Rayleigh quotients
    only).  Used as the oracle for the spectral bound computations.
    """
    d = S.shape[0]
    if d == 0 or not np.any(S):
        return 0.0, 0.0

    def rayleigh(x):
        return float(np.real(np.vdot(x, S @ x) / np.vdot(x, x)))

    X = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    quots = np.real(np.einsum("ij,ij->i", X.conj(), X @ S.T.conj())) / np.real(
        np.einsum("ij,ij->i", X.conj(), X)
    )
    hi_start = X[int(np.argmax(quots))]
    lo_start = X[int(np.argmin(quots))]

    x = hi_start / np.linalg.norm(hi_start)
    for _ in range(iterations):
        y = S @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            break
        x = y / ny
    hi = rayleigh(x)

    # shifted power iteration: maximize c - lambda with c >= lambda_max
    c = hi * 1.5 + float(np.trace(np.abs(S)).real) + 1.0
    M = c * np.eye(d) - S
    x = lo_start / np.linalg.norm(lo_start)
    for _ in range(iterations):
        y = M @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            break
        x = y / ny
    lo = rayleigh(x)
    return max(min(lo, hi), 0.0), max(hi, 0.0)


def dense_adjoint_biorthogonality(spec_g, spec_h, rows: int = 256) -> float:
    """Wexler-Raz oracle: max |<g'_j, h'_k> - delta_jk| over the whole dense
    (a b) x (a b) cross Gram of the two scaled adjoint lattice systems.

    Generates both adjoint systems vector by vector and forms every Gram
    entry, `rows` rows at a time, O((a b)^2 L).
    """
    F = finite_gabor_system(spec_g.adjoint()).vectors
    H = finite_gabor_system(spec_h.adjoint()).vectors.conj().T
    worst = 0.0
    for i in range(0, F.shape[0], rows):
        block = F[i:i + rows] @ H
        block[np.arange(block.shape[0]), i + np.arange(block.shape[0])] -= 1.0
        worst = max(worst, float(np.abs(block).max()))
    return worst


def gathered_walnut_blocks(g, h, a: int, b: int) -> np.ndarray:
    """Walnut-block oracle: K[r][k, l] = (L/b) sum_n h(r + k L/b - n a) conj(g(r + l L/b - n a)).

    Gathers every term into (L/b, b, L/a) arrays and sums over n by a batched
    matrix product, O(L^2 b / a).
    """
    L = g.shape[0]
    q = L // b
    idx = (np.arange(q)[:, None, None] + q * np.arange(b)[None, :, None]
           - a * np.arange(L // a)[None, None, :]) % L  # (r, k, n)
    return q * (h[idx] @ g[idx].conj().transpose(0, 2, 1))


def lattice_tables(L: int, a: int, b: int) -> dict:
    """Lattice-table oracle: every index and phase table of the lattice (L, a, b), each formed by
    the inline formula the Gabor kernels used before the tables were memoized, by name."""
    t, q, k = np.arange(L), L // b, np.arange(b)
    g = math.gcd(q, a)
    kp = np.arange(a // g)[:, None]  # the rows k < a/g that canonical_dual_window writes back
    return {
        "shifts": (t[None, :] - a * np.arange(L // a)[:, None]) % L,
        "modulations": np.exp(2j * np.pi * b * np.outer(np.arange(L // b), t) / L),
        "walnut index": np.arange(L)[:, None] + np.arange(-L, 0, q),
        "class block rows": ((np.arange(g)[:, None] + q * k) % a)[:, :, None],
        "all block rows": ((np.arange(q)[:, None] + q * k) % a)[:, :, None],
        "block cols": k - k[:, None],
        "write-back rows": (np.arange(g)[:, None, None] + q * kp) % a,
        "write-back cols": np.arange(b) - kp,
        "adjoint shifts": (t - q * np.arange(b)[:, None]) % L,
        "adjoint phases": np.exp(2j * np.pi * (np.outer(t, np.arange(a)) % a) / a),
        "commutation phase": np.exp(2j * np.pi * ((b * (t[:, None] - t[None, :])) % L) / L),
    }


def looped_ron_shen(g, h, a: float, b: float, tolerance=None):
    """Ron-Shen oracle: r_n(x) = sum_k conj(g(x - n/b - k a)) h(x - k a) on the
    grid of [0, a), one n and one k at a time, k increasing; the report of
    gabor.ron_shen_duality_check, which must equal it repr for repr."""
    step = g.step
    tol = tolerance if tolerance is not None else RON_SHEN_TOL_PER_STEP * step
    rational_step = _as_rational(step, "the grid step")
    a_steps = _steps_of(a, rational_step, "a")
    shift_steps = _steps_of(1 / _as_rational(b, "b"), rational_step, "1/b")
    gs, ge = g.support_hint
    hs, he = h.support_hint
    n_max = _shift_window(b * (max(ge, he) - min(gs, hs) + a))
    k_lo = int(math.floor((-he) / a)) - 1
    k_hi = int(math.ceil((a - hs) / a)) + 1
    x_pos = np.arange(a_steps)
    worst, worst_n = 0.0, 0
    for n in range(-n_max, n_max + 1):
        r = np.zeros(a_steps, dtype=complex)
        for k in range(k_lo, k_hi + 1):
            hv = _lookup(h, x_pos - k * a_steps, rational_step)
            if not np.any(hv):
                continue
            r += np.conj(_lookup(g, x_pos - n * shift_steps - k * a_steps, rational_step)) * hv
        dev = float(np.abs(r - (b if n == 0 else 0.0)).max())
        if dev > worst:
            worst, worst_n = dev, n
    return AnalysisReport.from_residuals(
        {"ron_shen": worst}, tol,
        notes=f"worst deviation at n={worst_n}; grid step {step}",
        details={"a": a, "b": b, "n_range": float(n_max)},
    )


def full_update_tridiagonal(rows, frac_bits: int):
    """Householder reduction oracle: (diag, off_sq) of the symmetric integer
    matrix rows in fixed point, every entry of each rank-2 update formed.

    Products are shifted back by frac_bits and quotients floored.  Each
    reflection I - 2 v v^T / v^T v is formed from the exact integers of v and
    v^T v, so it is orthogonal, and the floors perturb each entry by about one
    unit of 2^-frac_bits per step.
    """
    diag, off_sq = [], []
    a = rows
    while len(a) > 1:
        diag.append(a[0][0])
        x = [r[0] for r in a[1:]]
        a = [r[1:] for r in a[1:]]
        s = sum(xi * xi for xi in x)
        off_sq.append(s)  # the squared subdiagonal entry, at scale 2^(2 frac_bits)
        if s == 0:
            continue
        alpha = math.isqrt(s) if x[0] < 0 else -math.isqrt(s)
        vtv = s - 2 * alpha * x[0] + alpha * alpha
        v = [x[0] - alpha] + x[1:]
        # A <- H A H = A - v w^T - w v^T with p = 2 A v / v^T v, w = p - (v^T p / v^T v) v
        p = [(sum(map(mul, r, v)) << (frac_bits + 1)) // vtv for r in a]
        k = (sum(map(mul, v, p)) << frac_bits) // vtv
        w = [pj - ((k * vj) >> frac_bits) for pj, vj in zip(p, v)]
        a = [[aij - ((vi * wj + wi * vj) >> frac_bits) for aij, wj, vj in zip(r, w, v)]
             for r, vi, wi in zip(a, v, w)]
    diag.append(a[0][0])
    return diag, off_sq


def bisected_tridiagonal_eigenvalue(diag, off_sq, frac_bits: int) -> float:
    """Sturm bisection oracle: smallest eigenvalue, rounded to float64, of the
    tridiagonal (diag / 2^frac_bits, off_sq / 2^(2 frac_bits)).

    Linear bisection on the Sturm sequence of T - x I (Barth, Martin &
    Wilkinson, Numer. Math. 9, 1967), starting from the Gershgorin lower end
    and the smallest diagonal entry, until both ends of the bracket round to
    the same float64.
    """
    def at_or_below(x):
        """Is a pivot of T - x I = L D L^T at most 0, i.e. is some eigenvalue <= x?"""
        q = diag[0] - x
        for d, e2 in zip(diag[1:], off_sq):
            if q <= 0:
                return True
            q = d - x - e2 // q
        return q <= 0

    radius = [math.isqrt(e2) + 1 for e2 in off_sq]
    lo = min(d - r1 - r2 for d, r1, r2 in zip(diag, [0] + radius, radius + [0])) - 1
    hi = min(diag)
    scale = 1 << frac_bits
    while hi - lo > 1 and lo / scale != hi / scale:
        mid = (lo + hi) >> 1
        if at_or_below(mid):
            hi = mid
        else:
            lo = mid
    return hi / scale


def unsplit_smallest_eigenvalue(rows, frac_bits: int) -> float:
    """Fixed-point eigenvalue oracle: the whole matrix reduced, no fold, and
    linear bisection from the Gershgorin lower end.

    Smallest eigenvalue, rounded to float64, of the symmetric matrix rows / 2^frac_bits.
    """
    return bisected_tridiagonal_eigenvalue(*full_update_tridiagonal(rows, frac_bits), frac_bits)


def recursive_bspline(N, x):
    """The order recursion B_N(x) = (x B_{N-1}(x) + (N-x) B_{N-1}(x-1)) / (N-1),
    2^(N-1) leaf calls: the bitwise oracle of triangular_bspline."""
    x = np.asarray(x, dtype=float)
    if N == 1:
        return np.where((x >= 0) & (x < 1), 1.0, 0.0)
    lower = recursive_bspline(N - 1, x)
    shifted = recursive_bspline(N - 1, x - 1)
    return (x * lower + (N - x) * shifted) / (N - 1)


def triangular_bspline(N, x):
    """B_N at x by the triangular scheme of the order recursion (de Boor),
    O(N^2) operations per point of [0, N).

    Row j of the table holds B_k(x_j) with x_0 = x and x_j = x_{j-1} - 1, the
    arguments the recursion forms, so the rounding is the recursion's.  Finite
    points outside [0, N) give +0.0; NaN and +-inf give NaN (0.0 for N = 1).
    """
    x = np.asarray(x, dtype=float)
    live = ~(np.isfinite(x) & ((x < 0) | (x >= N)))
    out = np.zeros(x.shape)
    if not live.any():
        return out
    xs = np.empty((N, np.count_nonzero(live)))
    xs[0] = x[live]
    for j in range(1, N):
        np.subtract(xs[j - 1], 1, out=xs[j])
    b = ((xs >= 0) & (xs < 1)).astype(float)
    right = np.empty_like(b)
    for k in range(2, N + 1):
        # rows [:m] become (t b[:-1] + (k - t) b[1:]) / (k - 1), in place
        m = N - k + 1
        t = xs[:m]
        np.subtract(k, t, out=right[:m])
        right[:m] *= b[1:m + 1]
        b[:m] *= t
        b[:m] += right[:m]
        b[:m] /= k - 1
    out[live] = b[0]
    return out


def rational_cycle(N, a, b, resolution=16, max_length=8192):
    """(M, L, a M, b P) of the cyclic section of the B_N lattice (a, b), by a rational
    period search, the reference for the closed-form gabor._cycle_length that
    bspline.finite_section_bounds calls: sampling density M with a M and M/b
    integral, the period P, the first multiple of a den(a b) at least N + 1, and
    L = M P, for the rationals a and b (core._as_rational).  LatticeError for
    L > max_length."""
    af, bf = _as_rational(a, "a"), _as_rational(b, "b")
    M0 = math.lcm(af.denominator, bf.numerator)
    M = M0 * max(1, math.ceil(resolution / M0))
    n_unit = (af * bf).denominator
    period = af * n_unit
    while period < N + 1:
        period += af * n_unit
    L = M * period
    assert L.denominator == 1
    if L > max_length:
        raise LatticeError(f"cyclic section too large (L = {L} > {max_length})")
    return M, int(L), int(af * M), int(bf * period)


def grid_values_at(fn, gamma):
    """A FreqFunction read on its grid: values[floor((gamma - start) / step)], zero outside
    the cells, the reading of values_at before the function was held by its pieces."""
    g = np.asarray(gamma, dtype=float)
    idx = np.floor((g - fn.start) / fn.step).astype(int)
    valid = (idx >= 0) & (idx < fn.count)
    out = np.zeros(g.shape, dtype=complex)
    out[valid] = fn.values[idx[valid]]
    return out


def rational_indicator_bounds(lo, hi, a_values, b, c_values, window):
    """(inf over window, sup) of (diag -+ off) / b for the indicator g of [lo, hi), in exact
    rationals: diag = sum |g(u)|^2 and off = sum_k |g(u)| |g(u - k/b)| at u = gamma/a - c,
    over the dilations a, offsets c and shifts k/b != 0 of the band, read at the midpoint of
    every piece between the dilated and shifted edges.  The floats are taken as given."""
    lo, hi, b = Fraction(lo), Fraction(hi), Fraction(b)
    k_max = math.ceil(b * (hi - lo)) + 1
    shifts = [k / b for k in range(-k_max, k_max + 1) if k]
    copies = [(Fraction(a), Fraction(c)) for a in a_values for c in c_values]
    cuts = sorted({a * (x + c + s) for a, c in copies for x in (lo, hi) for s in [0, *shifts]})
    w_lo, w_hi = Fraction(window[0]), Fraction(window[1])
    inside = lambda u: lo <= u < hi  # noqa: E731
    lower, upper = None, Fraction(0)
    for mid in ((x + y) / 2 for x, y in zip(cuts, cuts[1:])):
        us = [mid / a - c for a, c in copies]
        diag = sum(inside(u) for u in us)
        off = sum(inside(u) and inside(u - s) for u in us for s in shifts)
        upper = max(upper, (diag + off) / b)
        if w_lo < mid < w_hi:
            lower = (diag - off) / b if lower is None else min(lower, (diag - off) / b)
    return lower, upper


def order_one_bounds(a: float, b: float):
    """(min of diag - off, max of diag + off) of the order-1 scanner cell, before the
    division by b, in exact rationals: for the rational cell (a, b) of core._as_rational
    and its shifts k/b, the translates of B_1 = 1 on [0, 1) counted at the midpoint of
    every piece of [0, a) between the breakpoints (j + k/b) mod a, j = 0, 1.
    rational_indicator_bounds, given the offsets n a, counts the same sums, but reads
    every piece of every offset."""
    a, b = _as_rational(a, "a"), _as_rational(b, "b")
    shifts = [k / b for k in range(-math.ceil(b) - 1, math.ceil(b) + 2) if k]
    cuts = sorted({(j + s) % a for j in (0, 1) for s in [0, *shifts]} | {a})
    inside = lambda u: 0 <= u < 1  # noqa: E731
    minus, plus = [], []
    for mid in ((x + y) / 2 for x, y in zip(cuts, cuts[1:])):
        us = [mid - n * a for n in range(math.floor((mid - 1) / a), math.floor(mid / a) + 1)]
        diag = sum(inside(u) for u in us)
        off = sum(inside(u) and inside(u - s) for u in us for s in shifts)
        minus.append(diag - off)
        plus.append(diag + off)
    return min(minus), max(plus)


def scan_grid(a: float, period_points: int, knots) -> np.ndarray:
    """The uniform grid over [0, a) augmented with the knots and piece midpoints, which
    the scanner read before its piece enclosures."""
    base = a * np.arange(period_points) / period_points
    ks = sorted({float(k) % a for k in knots} | {0.0, a})
    mids = [(u + v) / 2 for u, v in zip(ks, ks[1:]) if v > u]
    pts = np.unique(np.concatenate([base, np.array(ks[:-1]), np.array(mids)]))
    return pts[(pts >= 0) & (pts < a)]


def scanner_shifts(N: int, b: float):
    """The shifts k/b of the scanner's overlap sums: none in the painless regime b N <= 1,
    decided on the rational b (core._as_rational)."""
    if _as_rational(b, "b") * N <= 1:
        return []
    k_max = int(math.ceil(b * N)) + 1
    return [k / b for k in range(-k_max, k_max + 1) if k != 0]


def grid_overlap_bounds(N: int, a: float, b: float, period_points: int = 1024):
    """(min of diag - off, max of diag + off, slack) on the scanner's former grid, before the
    division by b: period_points points (2048 at least outside the painless regime), and a
    Lipschitz slack within which the true inf and sup lie (0 for order 1, whose
    piecewise-constant sums the grid reads in every piece)."""
    from framelab.bspline import _horner
    from framelab.dilation import _overlap_sums

    shifts = scanner_shifts(N, b)
    period_points = period_points if not shifts else max(period_points, 2048)
    xs = scan_grid(a, period_points, [k + s for k in range(N + 1) for s in [0.0] + shifts])
    offsets = [n * a for n in range(-int(math.ceil(N / a)) - 1, 2)]
    diag, off = _overlap_sums(lambda x: _horner(N, x), [1.0], offsets, shifts, xs, (0.0, float(N)))
    terms = (int(math.floor(N / a)) + 1) * (len(shifts) + 1)
    slack = 0.0 if N == 1 else 2.0 * terms * (a / period_points) / 2
    return float((diag - off).min()), float((diag + off).max()), slack


def greedy_row_blocks(starts, stops, terms):
    """The grouping of dilation._row_blocks, row by row: each row with a nonempty window
    joins the block before it while their union window holds at most 2^14 (row, term,
    point) entries; a row wider than a block is a block of its own, which no row joins."""
    width = max(1, 2 ** 14 // terms)
    blocks = []
    for r, (first, last) in enumerate(zip(starts, stops)):
        if last <= first:
            continue
        if blocks and blocks[-1][3]:
            rows, start, stop, _ = blocks[-1]
            start, stop = min(start, first), max(stop, last)
            if (len(rows) + 1) * (stop - start) <= width:
                blocks[-1] = rows + [r], start, stop, True
                continue
        blocks.append(([r], first, last, last - first <= width))
    return [(rows, start, stop) for rows, start, stop, _ in blocks]


def least_oracle(values, tolerance, floors):
    """(bounds, budget_bound): bspline._least as it was written first, each level keeping
    the pieces left whole by a mask and concatenating them with the new halves, and
    whether the halving budget ever cut a level short."""
    from framelab.bspline import _MAX_HALVINGS, _chebyshev

    sides, pieces, m = values.shape
    _, to_coefficients, halving, ends, _ = _chebyshev(m)
    coefficients = values.reshape(-1, m) @ to_coefficients
    bounds = coefficients[:, 0] - np.abs(coefficients[:, 1:]).sum(axis=1)
    side = np.repeat(np.arange(sides), pieces)
    least, floors = values.min(axis=(1, 2)), np.asarray(floors, dtype=float)
    budget, budget_bound = pieces * _MAX_HALVINGS, False
    for _ in range(_MAX_HALVINGS):
        target = np.where(least > floors, np.maximum(least - tolerance, floors), -np.inf)
        halve = np.flatnonzero(bounds < target[side])
        if not (halve.size and budget):
            break
        budget_bound |= halve.size > budget
        halve = halve[np.argsort(bounds[halve], kind="stable")[:budget]]
        budget -= halve.size
        children = (coefficients[halve] @ halving).reshape(-1, m)
        halved = np.repeat(side[halve], 2)
        np.minimum.at(least, halved, (children @ ends).min(axis=1))
        keep = np.ones(bounds.size, dtype=bool)
        keep[halve] = False
        coefficients = np.concatenate([coefficients[keep], children])
        bounds = np.concatenate([bounds[keep], children[:, 0] - np.abs(children[:, 1:]).sum(axis=1)])
        side = np.concatenate([side[keep], halved])
    return np.array([bounds[side == i].min() for i in range(sides)]), budget_bound


@functools.lru_cache(maxsize=1 << 14)  # a sum reads each x + integer many times
def cox_de_boor(N, x):
    """B_N at a rational x by the Cox-de Boor recursion on the integer knots, in Fractions:
    B_{j,1} is the indicator of [j, j + 1) and B_{j,k}(x) = ((x - j) B_{j,k-1}(x)
    + (j + k - x) B_{j+1,k-1}(x)) / (k - 1), so B_N = B_{0,N} exactly, independent of
    bspline._piece_table and Horner's rule."""
    x = Fraction(x)
    values = [Fraction(int(j <= x < j + 1)) for j in range(N)]
    for k in range(2, N + 1):
        values = [((x - j) * values[j] + (j + k - x) * values[j + 1]) / (k - 1)
                  for j in range(N - k + 1)]
    return values[0]


def exact_shift_window(N, coefficients, x):
    """h(x) = sum_j c_j B_N(x + j) for the coefficients c_{-J..J}, exactly at a rational x."""
    J = len(coefficients) // 2
    return sum(c * cox_de_boor(N, Fraction(x) + j) for j, c in zip(range(-J, J + 1), coefficients))


def ron_shen_deviations(N, b, coefficients):
    """{n: max |sum_k B_N(x - n/b - k) h(x - k) - b delta_n0|} over x in [0, 1), exactly,
    for h = sum_j c_j B_N(. + j) (exact_shift_window) at time step 1 and modulation b.

    The sum is 1-periodic in x, and on [0, 1) each factor is a polynomial of degree
    N - 1 between the breakpoints 0 and n/b mod 1, so each sum is a polynomial of
    degree 2N - 2 on every open piece between them: it vanishes there if and only if
    it vanishes at 2N - 1 distinct points of the piece, which are the points read.  All
    deviations 0 prove the Ron-Shen identity almost everywhere, so the pair dual.
    Only n with |n| <= b (N + J + 1) can have a term: supp h lies in [-J, N + J].
    """
    b, J = Fraction(b), len(coefficients) // 2
    deviations = {}
    for n in range(-math.ceil(b * (N + J + 1)), math.ceil(b * (N + J + 1)) + 1):
        cuts = sorted({Fraction(0), (n / b) % 1, Fraction(1)})
        worst = Fraction(0)
        for lo, hi in zip(cuts, cuts[1:]):
            for i in range(1, 2 * N):
                x = lo + (hi - lo) * i / (2 * N)
                total = sum(cox_de_boor(N, x - n / b - k) * exact_shift_window(N, coefficients, x - k)
                            for k in range(-N - J, J + 1))
                worst = max(worst, abs(total - (b if n == 0 else 0)))
        deviations[n] = worst
    return deviations


def probe_oracle(pieces, b, c_step, ceiling, rule, max_terms):
    """(J, S_J) of the Bessel divergence probe in exact rationals, term by term: the first J
    with S_J = sum_{j < J} sum_m |g(u_j - m c_step)|^2 / b > ceiling, u_j = 3/4 (1 + j)
    (inverse_linear) or 3/4 2^j (dyadic), g = v on [lo, hi) for (lo, hi, v) in pieces,
    disjoint and ascending, zero elsewhere; each m whose argument can meet [pieces[0][0],
    pieces[-1][1]) is read.  No fold and no cycle; None when no J <= max_terms passes."""
    b, c, ceiling, total = Fraction(b), Fraction(c_step), Fraction(ceiling), Fraction(0)
    lo, hi = (Fraction(pieces[0][0]), Fraction(pieces[-1][1])) if pieces else (0, 0)
    for j in range(max_terms):
        u = Fraction(3, 4) * ((1 + j) if rule == "inverse_linear" else 2 ** j)
        for m in range(math.floor((u - hi) / c), math.floor((u - lo) / c) + 1):
            x = u - m * c
            for p_lo, p_hi, value in pieces:
                if Fraction(p_lo) <= x < Fraction(p_hi):
                    total += (Fraction(value.real) ** 2 + Fraction(value.imag) ** 2) / b
        if total > ceiling:
            return j + 1, total
    return None
