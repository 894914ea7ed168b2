"""Independent oracles shared by several test modules."""

import math
from operator import mul

import numpy as np

from framelab.core import AnalysisReport, _shift_window
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


def looped_ron_shen(g, h, a: float, b: float, tolerance=None):
    """Ron-Shen oracle: r_n(x) = sum_k conj(g(x - n/b - k a)) h(x - k a) on the
    grid of [0, a), one n and one k at a time, k increasing; the report of
    gabor.ron_shen_duality_check, which must equal it repr for repr."""
    step = g.step
    tol = tolerance if tolerance is not None else RON_SHEN_TOL_PER_STEP * step
    a_steps = _steps_of(a, step, "a")
    shift_steps = _steps_of(1.0 / b, step, "1/b")
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
            hv = _lookup(h, x_pos - k * a_steps)
            if not np.any(hv):
                continue
            r += np.conj(_lookup(g, x_pos - n * shift_steps - k * a_steps)) * hv
        dev = float(np.abs(r - (b if n == 0 else 0.0)).max())
        if dev > worst:
            worst, worst_n = dev, n
    return AnalysisReport.from_residuals(
        {"ron_shen": worst}, tol,
        notes=f"worst deviation at n={worst_n}; grid step {step}",
        details={"a": a, "b": b, "n_range": float(n_max)},
    )


def unsplit_smallest_eigenvalue(rows, frac_bits: int) -> float:
    """Fixed-point eigenvalue oracle: the whole matrix reduced, no fold, and
    linear bisection from the Gershgorin lower end.

    Smallest eigenvalue, rounded to float64, of the symmetric matrix rows / 2^frac_bits.

    Householder reflections reduce the integer matrix to tridiagonal form in
    fixed point: products are shifted back by frac_bits and quotients
    floored.  Each reflection I - 2 v v^T / v^T v is formed from the exact
    integers of v and v^T v, so it is orthogonal, and the floors perturb each
    entry by about one unit of 2^-frac_bits per step.  The smallest
    eigenvalue of the tridiagonal T is then bisected on the Sturm sequence of
    T - x I (Barth, Martin & Wilkinson, Numer. Math. 9, 1967), starting from
    the Gershgorin lower end and the smallest diagonal entry, until both ends
    of the bracket round to the same float64.
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
