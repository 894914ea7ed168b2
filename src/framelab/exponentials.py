"""Finite systems of complex exponentials on (-pi, pi).

The Gram matrix has the closed form G[j, k] = 2 sin(pi (l_j - l_k)) /
(l_j - l_k) with diagonal 2 pi, so the optimal lower bound of the system
as a frame for its span is an exact eigenvalue computation, always made in
extended precision: float64 loses it below about 1e-15 of the 2 pi scale,
long before N = 40 on overcomplete families.  The crude factorial
lower-bound estimate is evaluated in log space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

import numpy as np

from .core import DomainError, _check_order, _check_work, _field, _rounding_interval

#: the constant and exponents of the factorial lower-bound estimate
CRUDE_PREFACTOR = 1.6e-14
CRUDE_FACTORIAL_POWER = 8

#: decimal digits of lower_bound and decay_study: both decay families are exact to N = 62
DEFAULT_DPS = 60
#: fewest decimal digits accepted for extended precision (mpmath's default);
#: below it the eigenvalue is wrong, e.g. dps=1 gives 2.34 for 2 pi - 4
MIN_DPS = 15
#: most decimal digits accepted; the cost grows about as dps^1.6 (see README)
MAX_DPS = 1000

#: fraction bits beyond mp.prec in the fixed-point eigenvalue kernel
_GUARD_BITS = 40
#: Gram entries that _gram_entry keeps: one holds about 700 bytes at MAX_DPS, 4096 under 3 MB
_GRAM_ENTRIES = 4096


class LambdaSet:
    """Strictly increasing finite frequencies; delta is the minimal gap."""

    def __init__(self, lambdas):
        try:
            arr = np.asarray(lambdas, dtype=float)
        except (TypeError, ValueError):
            raise DomainError(f"frequencies must be numbers, got {lambdas!r}") from None
        if arr.ndim != 1:
            raise DomainError(f"frequencies must be a flat list of numbers, got {lambdas!r}")
        if arr.size == 0:
            raise DomainError("need at least one frequency")
        if not np.all(np.isfinite(arr)):
            raise DomainError("frequencies must be finite (no NaN or Inf)")
        if not math.isfinite(math.pi * (float(arr.max()) - float(arr.min()))):
            # the float64 Gram entries need pi (l_j - l_k)
            raise DomainError("frequencies must span a finite range: pi (max - min) overflows")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise DomainError("frequencies must be strictly increasing")
        arr = arr.copy()
        arr.flags.writeable = False
        self.lambdas = arr

    @property
    def count(self) -> int:
        return self.lambdas.shape[0]

    @property
    def delta(self) -> float:
        """Minimal gap; infinite for a singleton."""
        if self.count < 2:
            return math.inf
        return float(np.diff(self.lambdas).min())

    def to_json_dict(self):
        return {"lambdas": [float(v) for v in self.lambdas]}

    @classmethod
    def from_json_dict(cls, data):
        return cls(_field(data, "lambdas"))


def exp_gram(lset: LambdaSet) -> np.ndarray:
    """Exact Gram matrix of {exp(i l_n x)} in L2(-pi, pi).

    Entries 2 sin(pi d) / d = 2 pi sinc(d) at d = l_j - l_k; diagonal 2 pi.
    """
    _check_work(4 * lset.count ** 2, f"the Gram matrix of {lset.count} frequencies")  # d, G, complex G
    d = np.subtract.outer(lset.lambdas, lset.lambdas)
    G = 2 * np.pi * np.sinc(d)
    return G.astype(complex)


def _check_dps(dps, cubes, what):
    _check_order(dps, "dps")
    if not MIN_DPS <= dps <= MAX_DPS:
        raise DomainError(f"dps must be between {MIN_DPS} and {MAX_DPS} (got {dps})")
    _check_work(cubes * dps // 15, what)


def lower_bound(lset: LambdaSet, dps: int = DEFAULT_DPS) -> float:
    """Optimal lower bound on the span: smallest Gram eigenvalue, at least 0.

    dps is the decimal digits of extended precision, an integer from MIN_DPS
    to MAX_DPS (else DomainError).  The Gram matrix is formed in integers with
    P = mp.prec + 40 fraction bits at dps digits (_fixed_gram: one mpmath
    evaluation per distinct exact difference and precision in a process),
    and its smallest eigenvalue is found in fixed point by Householder
    tridiagonalization and a Sturm-certified Newton search
    (_smallest_eigenvalue).  A frequency set symmetric about its midpoint,
    such as both decay families, has a persymmetric Gram; it is split exactly
    into two half-size blocks first, a quarter of the reduction's work.  The
    cost is O(N^3) products of P-bit integers for the reduction and, for a
    positive definite matrix, a few Newton steps and Sturm counts of N
    divisions each (about log2(P) + 55 counts where the Newton search fails).
    The Gram matrix is positive semidefinite, so an eigenvalue that rounding
    leaves at most 0 is clamped to 0.0, decided by the Sturm count at 0.  See
    README for timings.
    """
    _check_dps(dps, lset.count ** 3, f"the smallest eigenvalue of {lset.count} frequencies")
    from mpmath.libmp import dps_to_prec
    frac_bits = dps_to_prec(dps) + _GUARD_BITS
    return _smallest_eigenvalue(_fixed_gram(lset, frac_bits), frac_bits, nonnegative=True)


@functools.lru_cache(maxsize=_GRAM_ENTRIES)
def _gram_entry(frac_bits: int, s: float, err: float) -> int:
    """floor(2^frac_bits 2 sin(pi d) / d), 2 pi at d = 0: d is the exact s + err, and it and
    the entry are rounded at frac_bits - _GUARD_BITS bits, whatever the caller's mp.prec."""
    from mpmath import libmp, mp, mpf, sin

    with mp.workprec(frac_bits - _GUARD_BITS):
        d = mpf(s) + err
        return libmp.to_fixed((2 * sin(mp.pi * d) / d if d else 2 * mp.pi)._mpf_, frac_bits)


def _fixed_gram(lset: LambdaSet, frac_bits: int):
    """Rows of integers floor(G[j, k] 2^frac_bits), G at frac_bits - _GUARD_BITS bits.

    Negation, sin, products and quotients round sign-symmetrically, so the
    entry at -d is the entry at d, and one entry serves (j, k) and (k, j).
    Each is read from _gram_entry, keyed by the precision and by the TwoSum
    float pair (s, err), s = fl(l_j - l_k) and err = l_j - l_k - s exactly:
    equal exact differences round to the same d, so every entry equals its
    own mpmath evaluation, and a difference is evaluated once per precision
    while it stays in the table.
    """
    lams = lset.lambdas.tolist()
    rows = [[_gram_entry(frac_bits, 0.0, 0.0)] * len(lams) for _ in lams]
    for j, x in enumerate(lams):
        for k, y in enumerate(lams[j + 1:], j + 1):
            s = x - y
            t = s - x
            rows[j][k] = rows[k][j] = _gram_entry(frac_bits, s, (x - (s - t)) - (y + t))
    return rows


def _tridiagonalize(a, frac_bits: int):
    """Householder reduction of the symmetric integer matrix a in fixed point.

    Returns (diag, off_sq): the diagonal of the tridiagonal T and its squared
    subdiagonal entries, at scales 2^frac_bits and 2^(2 frac_bits).  Products
    are shifted back by frac_bits and quotients floored.  Each reflection
    I - 2 v v^T / v^T v is formed from the exact integers of v and v^T v, so
    it is orthogonal, and the floors perturb each entry by about one unit of
    2^-frac_bits per step.  The rank-2 update v_i w_j + w_i v_j is symmetric
    in (i, j), so it is formed on the upper triangle only and mirrored: the
    integers of the full update with a third fewer big products.
    """
    diag, off_sq = [], []
    while len(a) > 1:
        diag.append(a[0][0])
        x = [r[0] for r in a[1:]]
        a = [r[1:] for r in a[1:]]
        s = sum(xi * xi for xi in x)
        off_sq.append(s)
        if s == 0:
            continue
        alpha = math.isqrt(s) if x[0] < 0 else -math.isqrt(s)
        vtv = s - 2 * alpha * x[0] + alpha * alpha
        v = [x[0] - alpha] + x[1:]
        # A <- H A H = A - v w^T - w v^T with p = 2 A v / v^T v, w = p - (v^T p / v^T v) v
        p = [(sum(map(mul, r, v)) << (frac_bits + 1)) // vtv for r in a]
        k = (sum(map(mul, v, p)) << frac_bits) // vtv
        w = [pj - ((k * vj) >> frac_bits) for pj, vj in zip(p, v)]
        upper = [[aij - ((vi * wj + wi * vj) >> frac_bits)
                  for aij, wj, vj in zip(r[i:], w[i:], v[i:])]
                 for i, (r, vi, wi) in enumerate(zip(a, v, w))]
        a = [[u[i - j] for j, u in enumerate(upper[:i])] + upper[i] for i in range(len(upper))]
    diag.append(a[0][0])
    return diag, off_sq


def _floor_sqrt2_times(c: int) -> int:
    """floor(sqrt(2) c); 2 c^2 is no perfect square unless c = 0."""
    root = math.isqrt(2 * c * c)
    return root if c >= 0 else -root - 1


def _at_or_below(diag, off_sq, x) -> bool:
    """Sturm count of the tridiagonal (diag, off_sq) at the integer x: is a pivot
    of T - x I = L D L^T at most 0, i.e. is some eigenvalue <= x?

    The pivots q_0 = d_0 - x, q_i = d_i - x - floor(e_(i-1)^2 / q_(i-1)) fall
    monotonically in x while they are positive, so the answer switches from
    False to True at one integer threshold.
    """
    q = diag[0] - x
    for d, e2 in zip(diag[1:], off_sq):
        if q <= 0:
            return True
        q = d - x - e2 // q
    return q <= 0


def _newton_sum(diag, off_sq, x, frac_bits: int):
    """The pivots of _at_or_below at x and their derivatives in one pass: None if
    a pivot is at most 0, else sum p_i / q_i at scale 2^frac_bits.

    With p_i = -dq_i/dx, p_0 = 1 and p_(i+1) = 1 + (e_i^2 / q_i) (p_i / q_i),
    the sum is -det'(T - x I) / det(T - x I) = sum over the eigenvalues l of
    1 / (l - x), so 2^(2 frac_bits) // sum is the Newton step on the
    determinant, in fixed point.
    """
    one = 1 << frac_bits
    q, p, total = diag[0] - x, one, 0
    for d, e2 in zip(diag[1:], off_sq):
        if q <= 0:
            return None
        ratio = (p << frac_bits) // q
        total += ratio
        u = e2 // q
        p = one + ((u * ratio) >> frac_bits)
        q = d - x - u
    if q <= 0:
        return None
    return total + (p << frac_bits) // q


def _rounding_range(f: float, frac_bits: int):
    """(first, last): the integers x with x / 2^frac_bits == f, read from the rounding
    interval of f; first > last if none."""
    lo, hi, s = _rounding_interval(f)
    scale = Fraction(2) ** (s + frac_bits)
    first, last = math.ceil(lo * scale), math.floor(hi * scale)
    # an integer on a midpoint rounds to the even neighbour
    return first + (first / (1 << frac_bits) != f), last - (last / (1 << frac_bits) != f)


def _smallest_eigenvalue(rows, frac_bits: int, *, nonnegative: bool = False) -> float:
    """Smallest eigenvalue, rounded to float64, of the symmetric matrix rows / 2^frac_bits;
    with nonnegative, 0.0 wherever that eigenvalue is at most 0.

    A persymmetric input (rows[i][j] == rows[n-1-i][n-1-j], so centrosymmetric,
    as is every symmetric Toeplitz matrix) is folded first (Cantoni & Butler,
    Linear Algebra Appl. 13, 1976): with m = n // 2, B the leading m x m block
    and C J the top-right one read right to left, the spectrum is that of
    B + C J and B - C J, whose entries are exact integer sums.  For odd n the
    middle row joins the + block as the column sqrt(2) c, floored, which adds
    one unit of 2^-frac_bits.  Each block, or else the whole matrix, is
    reduced to tridiagonal form by _tridiagonalize; the two tridiagonals are
    joined by a zero off-diagonal entry, and _tridiagonal_eigenvalue finds the
    smallest eigenvalue of the result, passed nonnegative.
    """
    n = len(rows)
    m = n // 2
    if n > 1 and all(r == s[::-1] for r, s in zip(rows, reversed(rows))):
        top = rows[:m]
        plus = [[b + c for b, c in zip(r, r[:-m - 1:-1])] for r in top]
        minus = [[b - c for b, c in zip(r, r[:-m - 1:-1])] for r in top]
        if n % 2:
            col = [_floor_sqrt2_times(r[m]) for r in top]
            plus = [r + [c] for r, c in zip(plus, col)] + [col + [rows[m][m]]]
        diag, off_sq = _tridiagonalize(plus, frac_bits)
        minus_diag, minus_off_sq = _tridiagonalize(minus, frac_bits)
        diag += minus_diag
        off_sq += [0] + minus_off_sq
    else:
        diag, off_sq = _tridiagonalize(rows, frac_bits)
    return _tridiagonal_eigenvalue(diag, off_sq, frac_bits, nonnegative=nonnegative)


def _tridiagonal_eigenvalue(diag, off_sq, frac_bits: int, *, nonnegative: bool = False) -> float:
    """Smallest eigenvalue, rounded to float64, of the symmetric tridiagonal T with
    diagonal diag / 2^frac_bits and squared subdiagonal off_sq / 2^(2 frac_bits);
    with nonnegative, 0.0 as soon as a Sturm count shows it is at most 0.

    It is the integer threshold t at which the Sturm count of T - x I
    (_at_or_below; Barth, Martin & Wilkinson, Numer. Math. 9, 1967) turns
    true, and the result is the float64 of t / 2^frac_bits.  t is bracketed by
    lo < t <= hi: hi is the smallest diagonal entry, lo the Gershgorin lower
    end, raised to 0 if it is negative and T is positive definite.  Then:

    - for a positive definite T, Newton steps on det(T - x I) from lo
      (_newton_sum), each also a Sturm count at its iterate.  From the left
      of the smallest eigenvalue they climb towards it, quadratically for a
      simple one.  They stop when a pivot is not positive, when the sum is 0,
      when a step is more than half the one before (a cluster), or when the
      float64 of the iterate repeats.  That float f is then certified by two
      Sturm counts, at both ends of the integers that round to f (the
      rounding floors can leave t a float away: then the neighbouring float
      on t's side is tried, up to three floats in all);
    - otherwise, with nonnegative, 0.0 (t <= 0, decided by the count at 0);
    - otherwise, or if that check fails, bisection of the bracket on the
      Sturm count, with geometric midpoints isqrt(lo hi) while 0 <= 4 lo < hi,
      until both ends round to the same float64 or hi = lo + 1.

    Every count moves one end of a bracket around t, so every path returns
    the float64 of the same threshold.
    """
    scale = 1 << frac_bits
    radius = [math.isqrt(e2) + 1 for e2 in off_sq]
    lo = min(d - r1 - r2 for d, r1, r2 in zip(diag, [0] + radius, radius + [0])) - 1
    hi = min(diag)

    def below(x):
        """Is t <= x?  Counts only inside the bracket, and narrows it."""
        nonlocal lo, hi
        if x <= lo or x >= hi:
            return x >= hi
        if _at_or_below(diag, off_sq, x):
            hi = x
            return True
        lo = x
        return False

    def undecided():
        return hi - lo > 1 and lo / scale != hi / scale

    if lo >= 0 or not below(0):
        x, step, guess = lo, None, None
        while undecided():
            total = _newton_sum(diag, off_sq, x, frac_bits)
            if total is None:  # a pivot is not positive: t <= x
                hi = guess = x
                break
            lo, prev = x, step
            step = (1 << 2 * frac_bits) // total if total else None
            if step is None or (prev is not None and 2 * step > prev):
                break
            x = min(x + step, hi)
            if x / scale == lo / scale or x == hi:
                guess = x
                break
        if guess is not None:
            for _ in range(3):  # the float of guess, then up to two on t's side of it
                f = guess / scale
                first, last = _rounding_range(f, frac_bits)
                if below(first - 1):
                    guess = first - 1
                elif below(last):
                    return f
                else:
                    guess = last + 1
    elif nonnegative:
        return 0.0
    while undecided():
        below(math.isqrt(max(lo, 1) * hi) if 0 <= 4 * lo < hi else (lo + hi) >> 1)
    return hi / scale


class CrudeBound(NamedTuple):
    value: float
    log10: float


def crude_bound(N: int, delta: float) -> CrudeBound:
    """Factorial lower-bound estimate for N gap-delta frequencies.

    prefactor * (delta/2)^(2N+1) / ((N+1)!)^8, evaluated in log space; the
    value field underflows to 0.0 for large N while log10 stays finite.
    """
    _check_order(N, "N")
    if not (0 < delta <= 1):
        raise DomainError(f"the estimate requires 0 < delta <= 1 (got {delta:g})")
    try:
        log_value = (
            math.log(CRUDE_PREFACTOR)
            + (2 * N + 1) * math.log(delta / 2)
            - CRUDE_FACTORIAL_POWER * math.lgamma(N + 2)
        )
    except OverflowError:
        raise DomainError("N is too large: its log-factorial is past the float range") from None
    value = math.exp(log_value) if log_value > -700 else 0.0
    return CrudeBound(value, log_value / math.log(10))


def integer_lambdas(N: int) -> LambdaSet:
    _check_order(N, "N")
    return LambdaSet(np.arange(N, dtype=float))


def half_integer_lambdas(N: int) -> LambdaSet:
    _check_order(N, "N")
    return LambdaSet(0.5 * np.arange(N, dtype=float))


FAMILIES = {"integer": integer_lambdas, "half_integer": half_integer_lambdas}


@dataclass(frozen=True)
class DecayRow:
    N: int
    lower: float
    crude: float
    ratio: float
    log10_lower: float
    log10_crude: float


def decay_study(family, n_max: int, dps: int = DEFAULT_DPS):
    """Table of (N, optimal lower bound, crude estimate, ratio) for N = 2..n_max.

    family is a name from FAMILIES or a callable N -> frequency sequence.
    The crude estimate is applied with delta clamped to its hypothesis
    (gaps at least delta and delta <= 1).  Each lower bound is lower_bound's
    at dps; its Gram entries come from one bounded table per process
    (_gram_entry), so a difference that several rows share is evaluated once.
    """
    _check_order(n_max, "n_max")
    _check_dps(dps, (n_max * (n_max + 1) // 2) ** 2 - 1, f"a decay table to N = {n_max}")
    if n_max < 2:
        raise DomainError(f"n_max must be at least 2 (got {n_max})")
    if isinstance(family, str):
        try:
            rule = FAMILIES[family]
        except KeyError:
            raise DomainError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    else:
        rule = lambda N: LambdaSet(family(N))
    rows = []
    for N in range(2, n_max + 1):
        lset = rule(N)
        if lset.count != N:
            raise DomainError("family rule returned the wrong number of frequencies")
        lo = lower_bound(lset, dps=dps)
        delta = min(1.0, lset.delta)
        crude = crude_bound(N, delta)
        log10_lower = math.log10(lo) if lo > 0 else -math.inf
        ratio = 10.0 ** (crude.log10 - log10_lower) if lo > 0 else math.inf
        rows.append(DecayRow(N, lo, crude.value, ratio, log10_lower, crude.log10))
    return rows
