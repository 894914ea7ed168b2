"""Dilation-based systems on the frequency side: wavelet and wave-packet checks.

All generators are band-limited functions held as piecewise-constant values
on a uniform frequency grid (class-D model: bounded, compactly supported on
the frequency side).  Band limitation is what makes every dilation,
translation and shift sum below finite, so truncation is exact rather than
approximate; inputs whose support reaches 0 are rejected where that would
make infinitely many dilations contribute.

Scale invariance is exploited throughout: the dyadic (resp. a-adic)
conditions are invariant under gamma -> 2 gamma (resp. a gamma), so
checking a grid over +-[1, 2) (resp. +-[1, a)) covers almost every gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    AnalysisReport,
    DimensionMismatch,
    DomainError,
    FrameBounds,
    GridError,
    TruncationUnsoundError,
    _all_finite,
    _decode_pairs,
    _encode_pairs,
    _field,
    resolve_tolerance,
)


class FreqFunction:
    """Band-limited function sampled on a uniform frequency grid.

    The value on the half-open cell [start + i*step, start + (i+1)*step) is
    values[i]; outside the grid the function is zero.  The band is an
    interval containing every nonzero cell.  Half-open indicators aligned to
    the grid are represented exactly.
    """

    def __init__(self, start: float, step: float, values, band):
        if step <= 0:
            raise GridError("step must be positive")
        vals = np.asarray(values, dtype=complex).reshape(-1)
        if not (math.isfinite(start) and math.isfinite(step) and _all_finite(vals)):
            raise DomainError("start, step and values must be finite (no NaN or Inf)")
        lo, hi = float(band[0]), float(band[1])
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise DomainError("band must be a finite interval")
        starts = start + step * np.arange(vals.shape[0])
        nz = np.abs(vals) > 0
        if np.any(nz):
            if starts[nz].min() < lo - 1e-12 or (starts[nz].max() + step) > hi + 1e-12:
                raise DomainError("band does not contain all nonzero cells")
        vals = vals.copy()
        vals.flags.writeable = False
        self.start = float(start)
        self.step = float(step)
        self.values = vals
        self.band = (lo, hi)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    def is_zero(self) -> bool:
        return not np.any(np.abs(self.values) > 0)

    def values_at(self, gamma) -> np.ndarray:
        """Piecewise-constant evaluation, zero outside the grid."""
        g = np.asarray(gamma, dtype=float)
        idx = np.floor((g - self.start) / self.step).astype(int)
        valid = (idx >= 0) & (idx < self.count)
        out = np.zeros(g.shape, dtype=complex)
        out[valid] = self.values[idx[valid]]
        return out

    def nonzero_cells(self):
        """(start, end) of every nonzero cell."""
        nz = np.nonzero(np.abs(self.values) > 0)[0]
        starts = self.start + self.step * nz
        return starts, starts + self.step

    def support_min_abs(self) -> float:
        """Infimum of |gamma| over the nonzero cells (0 if support touches 0)."""
        if self.is_zero():
            return math.inf
        starts, ends = self.nonzero_cells()
        best = math.inf
        for s, e in zip(starts, ends):
            if s < 1e-300 and e > -1e-300:  # cell touches or straddles 0
                if s <= 0.0 <= e:
                    return 0.0
            best = min(best, abs(s) if s > 0 else abs(e))
        return best

    def support_max_abs(self) -> float:
        if self.is_zero():
            return 0.0
        starts, ends = self.nonzero_cells()
        return float(max(np.abs(starts).max(), np.abs(ends).max()))

    def scaled(self, factor: complex) -> "FreqFunction":
        return FreqFunction(self.start, self.step, factor * self.values, self.band)

    def to_json_dict(self):
        return {
            "grid": {"start": self.start, "step": self.step, "count": self.count},
            "values": _encode_pairs(self.values),
            "band": [self.band[0], self.band[1]],
        }

    @classmethod
    def from_json_dict(cls, data):
        grid = _field(data, "grid")
        values = _decode_pairs(_field(data, "values"), "values")
        if len(values) != int(_field(grid, "count")):
            raise DimensionMismatch("value list does not match the declared grid count")
        return cls(_field(grid, "start"), _field(grid, "step"), values, tuple(_field(data, "band")))


DEFAULT_FREQ_STEP = 2.0 ** -10


def freq_indicator(lo: float, hi: float, step: float = DEFAULT_FREQ_STEP,
                   amplitude: complex = 1.0) -> FreqFunction:
    """Indicator of [lo, hi), exactly representable when the edges are on-grid."""
    count = int(round((hi - lo) / step))
    if abs(count * step - (hi - lo)) > 1e-12:
        raise GridError("interval length must be a multiple of the step")
    return FreqFunction(lo, step, amplitude * np.ones(count), (lo, hi))


def shannon_wavelet(step: float = DEFAULT_FREQ_STEP) -> FreqFunction:
    """Indicator of [-1, -1/2) union [1/2, 1): the dyadic tiling generator."""
    if abs(round(0.5 / step) * step - 0.5) > 1e-12:
        raise GridError("step must divide 1/2 for the exact tiling window")
    count = int(round(2.0 / step))
    starts = -1.0 + step * np.arange(count)
    values = np.where((starts >= -1.0) & (starts < -0.5) | (starts >= 0.5) & (starts < 1.0), 1.0, 0.0)
    return FreqFunction(-1.0, step, values, (-1.0, 1.0))


def _dyadic_j_window(psi: FreqFunction, psi_tilde: FreqFunction, gamma_abs_max: float = 2.0):
    """Range of j with 2^j gamma inside either support for |gamma| in [1, 2)."""
    m = min(psi.support_min_abs(), psi_tilde.support_min_abs())
    M = max(psi.support_max_abs(), psi_tilde.support_max_abs())
    if M == 0.0:
        return range(0, 0)  # both zero
    if m == 0.0:
        raise TruncationUnsoundError(
            "support reaches 0: infinitely many dilations contribute and the "
            "dilation sum cannot be truncated soundly"
        )
    j_lo = int(math.floor(math.log2(m))) - 1
    j_hi = int(math.ceil(math.log2(M))) + 1
    return range(j_lo, j_hi + 1)


def _representative_grids(lo: float, hi: float, points: int):
    """Midpoint grids over [lo, hi) and its mirror, at two resolutions."""
    grids = []
    for p in (points, 2 * points):
        pos = lo + (hi - lo) * (np.arange(p) + 0.5) / p
        grids.append(np.concatenate([pos, -pos]))
    return grids


def wavelet_duality_check(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction,
                          b: float = 1.0, tolerance=None, gamma_points: int = 4096) -> AnalysisReport:
    """Dual dyadic wavelet frames test for band-limited generators.

    Condition one: sum_j conj(psi_hat(2^j g)) psit_hat(2^j g) = b for a.e. g.
    Condition two: for every dyadic ratio alpha = m / 2^j != 0, the matching
    shifted sum vanishes.  Both are dilation invariant, so they are sampled
    on +-[1, 2) at two resolutions; shifted sums are grouped by the exact
    rational alpha, with one representative per dyadic scale class.
    """
    tol = resolve_tolerance(tolerance)
    if b <= 0:
        raise DomainError("b must be positive")
    js = _dyadic_j_window(psi_hat, psi_tilde_hat)

    residual_i = 0.0
    refinement = []
    for gammas in _representative_grids(1.0, 2.0, gamma_points):
        total = np.zeros(gammas.shape, dtype=complex)
        for j in js:
            pts = (2.0 ** j) * gammas
            total += np.conj(psi_hat.values_at(pts)) * psi_tilde_hat.values_at(pts)
        dev = float(np.abs(total - b).max()) if gammas.size else b
        refinement.append(dev)
        residual_i = max(residual_i, dev)
    if not list(js):  # zero generator: empty dilation sum
        residual_i = b
        refinement = [b, b]

    # shifted sums, grouped by exact alpha = m / 2^j
    lo1, hi1 = psi_hat.band
    lo2, hi2 = psi_tilde_hat.band
    m_lo = int(math.ceil(lo2 - hi1 - 1e-12))
    m_hi = int(math.floor(hi2 - lo1 + 1e-12))
    groups = {}
    for j in js:
        for m in range(m_lo, m_hi + 1):
            if m == 0:
                continue
            alpha = Fraction(m, 2 ** j) if j >= 0 else Fraction(m * 2 ** (-j))
            groups.setdefault(alpha, []).append((j, m))
    residual_ii = 0.0
    worst_alpha = None
    for gammas in _representative_grids(1.0, 2.0, gamma_points):
        for alpha, members in groups.items():
            total = np.zeros(gammas.shape, dtype=complex)
            for j, m in members:
                pts = (2.0 ** j) * gammas
                total += np.conj(psi_hat.values_at(pts)) * psi_tilde_hat.values_at(pts + m)
            dev = float(np.abs(total).max())
            if dev > residual_ii:
                residual_ii, worst_alpha = dev, alpha
    return AnalysisReport.from_residuals(
        {"scaling_sum": residual_i, "shifted_sums": residual_ii}, tol,
        notes=(
            f"dyadic dual-frame conditions at b={b}; {len(groups)} shift classes checked"
            + (f"; worst class alpha={worst_alpha}" if worst_alpha is not None else "")
        ),
        details={
            "scaling_sum_coarse": refinement[0],
            "scaling_sum_fine": refinement[1],
            "shift_classes": float(len(groups)),
        },
    )


@dataclass(frozen=True)
class WavePacketGrid:
    """Dilations a_j, translation step b, and modulation offsets c_m.

    The lists are finite by construction; optional truncation fields record
    how many entries of a conceptual infinite family they keep, and the
    gamma resolution drives every sup/inf estimate.
    """

    a_values: tuple
    b: float
    c_values: tuple
    j_truncation: Optional[int] = None
    m_truncation: Optional[int] = None
    k_truncation: Optional[int] = None
    gamma_points: int = 4096

    def __post_init__(self):
        object.__setattr__(self, "a_values", tuple(float(a) for a in self.a_values))
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        if not self.a_values:
            raise DomainError("need at least one dilation")
        if any(a <= 0 for a in self.a_values):
            raise DomainError("dilations must be positive")
        if self.b <= 0:
            raise DomainError("b must be positive")
        for name in ("j_truncation", "m_truncation", "k_truncation"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise DomainError(f"{name} must be a positive integer")
        if self.gamma_points < 2:
            raise DomainError("gamma_points must be at least 2")


def _k_range(g_band, b: float, cap: Optional[int]):
    diam = g_band[1] - g_band[0]
    k_max = int(math.ceil(b * diam)) + 1
    if cap is not None:
        k_max = min(k_max, cap)
    return range(-k_max, k_max + 1)


def _coverage_box(g_hat: FreqFunction, grid: WavePacketGrid):
    lo_b, hi_b = g_hat.band
    los = [a * (lo_b + c) for a in grid.a_values for c in grid.c_values]
    his = [a * (hi_b + c) for a in grid.a_values for c in grid.c_values]
    return min(los), max(his)


def _edge_margin(g_hat: FreqFunction, grid: WavePacketGrid) -> float:
    diam = g_hat.band[1] - g_hat.band[0]
    return max(grid.a_values) * diam


def _check_ceiling(ceiling):
    """A ceiling must be > 0 (inf allowed): NaN compares false with every
    partial sum and a nonpositive one makes the overflow test meaningless."""
    if not ceiling > 0:
        raise DomainError(f"ceiling must be > 0 (got {ceiling!r})")


def _triple_sums(g_hat: FreqFunction, grid: WavePacketGrid, gammas: np.ndarray,
                 ceiling: float):
    """diag(g) and offdiag(g) of the translation-overlap sums; None on overflow."""
    diag = np.zeros(gammas.shape)
    off = np.zeros(gammas.shape)
    ks = [k for k in _k_range(g_hat.band, grid.b, grid.k_truncation) if k != 0]
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


def wave_packet_bessel_bound(g_hat: FreqFunction, grid: WavePacketGrid,
                             ceiling: float = 1e15, gamma_grid=None):
    """Sufficient translation-overlap bound: the system is Bessel with bound

    B = (1/b) sup_gamma sum_{j,m,k} |g(a_j^-1 g - c_m) g(a_j^-1 g - c_m - k/b)|.

    Band limitation makes the k sum exact.  If the accumulating partial sums
    exceed the ceiling the computation stops and reports the Bessel condition
    as violated (value +inf) instead of returning a number.
    """
    _check_ceiling(ceiling)
    lo, hi = _coverage_box(g_hat, grid)
    if gamma_grid is not None:
        candidate_grids = [np.asarray(gamma_grid, dtype=float)]
    else:
        p = grid.gamma_points
        candidate_grids = [
            lo + (hi - lo) * (np.arange(n) + 0.5) / n for n in (p, 2 * p)
        ]
    best = 0.0
    estimates = []
    for gammas in candidate_grids:
        diag, off = _triple_sums(g_hat, grid, gammas, ceiling)
        if diag is None:
            report = AnalysisReport.from_residuals(
                {"partial_sum_overflow": 1.0}, resolve_tolerance(None),
                notes=f"unbounded (Bessel violated): partial sums exceeded ceiling {ceiling:g}",
                details={"ceiling": ceiling},
            )
            return math.inf, report
        estimates.append(float((diag + off).max()) / grid.b)
        best = max(best, estimates[-1])
    report = AnalysisReport.from_residuals(
        {}, resolve_tolerance(None),
        notes="k-sum exact by band limitation; finite dilation/offset lists have no tail",
        details={
            "bessel_bound": best,
            **{f"estimate_resolution_{i}": e for i, e in enumerate(estimates)},
        },
    )
    return best, report


def wave_packet_frame_bounds(g_hat: FreqFunction, grid: WavePacketGrid,
                             ceiling: float = 1e15, gamma_grid=None):
    """(A, B) from the translation-overlap sufficient condition.

    B is the sup of (diag + off)/b over the covered region; A is the inf of
    (diag - off)/b over the same region trimmed by one dilated band diameter
    at each edge, which removes the artificial dropoff caused by cutting the
    offset list short.  A <= 0 is reported as inconclusive, never as a
    disproof.
    """
    _check_ceiling(ceiling)
    lo, hi = _coverage_box(g_hat, grid)
    margin = _edge_margin(g_hat, grid)
    t_lo, t_hi = lo + margin, hi - margin
    if gamma_grid is not None:
        sup_grids = [np.asarray(gamma_grid, dtype=float)]
        inf_grids = [np.asarray(gamma_grid, dtype=float)]
    else:
        p = grid.gamma_points
        sup_grids = [lo + (hi - lo) * (np.arange(n) + 0.5) / n for n in (p, 2 * p)]
        if t_hi > t_lo:
            inf_grids = [t_lo + (t_hi - t_lo) * (np.arange(n) + 0.5) / n for n in (p, 2 * p)]
        else:
            inf_grids = []

    upper = 0.0
    for gammas in sup_grids:
        diag, off = _triple_sums(g_hat, grid, gammas, ceiling)
        if diag is None:
            return FrameBounds(0.0, math.inf), AnalysisReport.from_residuals(
                {"partial_sum_overflow": 1.0}, resolve_tolerance(None),
                notes=f"unbounded (Bessel violated) beyond ceiling {ceiling:g}",
                details={"ceiling": ceiling},
            )
        upper = max(upper, float((diag + off).max()) / grid.b)

    lower_raw = -math.inf if not inf_grids else math.inf
    for gammas in inf_grids:
        diag, off = _triple_sums(g_hat, grid, gammas, ceiling)
        lower_raw = min(lower_raw, float((diag - off).min()) / grid.b)
    conclusive = lower_raw > 0 and math.isfinite(lower_raw)
    bounds = FrameBounds(max(lower_raw, 0.0) if conclusive else 0.0, upper)
    notes = (
        "frame certificate: both bounds positive"
        if conclusive
        else "sufficient condition inconclusive (lower estimate not positive); no disproof implied"
    )
    report = AnalysisReport.from_residuals(
        {}, resolve_tolerance(None),
        notes=notes,
        details={
            "lower_raw": lower_raw if math.isfinite(lower_raw) else -1.0,
            "upper": upper,
            "inf_window_lo": t_lo,
            "inf_window_hi": t_hi,
            "edge_margin": margin,
        },
        undecided=not conclusive,
    )
    return bounds, report


def _as_fraction(x, name: str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    frac = Fraction(x).limit_denominator(10 ** 9)
    if abs(float(frac) - float(x)) > 1e-12 * max(1.0, abs(float(x))):
        raise DomainError(f"{name} must be rational for exact ratio grouping")
    return frac


def _adic_j_window(psi: FreqFunction, psi_tilde: FreqFunction, a: float, c_values):
    """j range with a^-j gamma inside some shifted support, |gamma| in [1, a)."""
    mins, maxs = [], []
    for fn in (psi, psi_tilde):
        if fn.is_zero():
            continue
        lo_b, hi_b = fn.band
        for c in c_values:
            lo_s, hi_s = lo_b + c, hi_b + c
            if lo_s <= 0.0 <= hi_s:
                # the shifted band may still avoid 0 on the nonzero cells
                starts, ends = fn.nonzero_cells()
                s_lo, s_hi = starts + c, ends + c
                if np.any((s_lo <= 0) & (s_hi >= 0)):
                    raise TruncationUnsoundError(
                        f"offset c={c} places the support across 0; the dilation "
                        "sum has no sound finite truncation"
                    )
                mins.append(float(np.minimum(np.abs(s_lo), np.abs(s_hi)).min()))
                maxs.append(float(np.maximum(np.abs(s_lo), np.abs(s_hi)).max()))
            else:
                mins.append(min(abs(lo_s), abs(hi_s)))
                maxs.append(max(abs(lo_s), abs(hi_s)))
    if not maxs:
        return range(0, 0)
    m, M = min(mins), max(maxs)
    if m == 0.0:
        raise TruncationUnsoundError("shifted support reaches 0")
    ln_a = math.log(a)
    j_lo = int(math.floor(-math.log(M) / ln_a)) - 1
    j_hi = int(math.ceil(-math.log(m) / ln_a)) + 1
    return range(j_lo, j_hi + 1)


def wave_packet_duality_check(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction,
                              a, b: float, c_values, tolerance=None,
                              full_check: bool = True, gamma_points: int = 2048) -> AnalysisReport:
    """Dual wave-packet frames: offset-sum, shifted-product and ratio-grouped tests.

    Condition c1: sum over dilations a^j and offsets c_m of
    psi(a^-j g - c_m) conj(psit(a^-j g - c_m)) equals b for a.e. g.
    Condition c2: psi(g) conj(psit(g + q)) vanishes for q in (1/b) Z, q != 0.
    With full_check, the complete ratio-grouped criterion is evaluated: for
    every reachable alpha = a^j n / b != 0 (grouped exactly via rational
    arithmetic) the corresponding double sum must vanish.
    """
    tol = resolve_tolerance(tolerance)
    a_f = float(a)
    if a_f <= 1:
        raise DomainError("the dilation base must exceed 1")
    if b <= 0:
        raise DomainError("b must be positive")
    c_values = [float(c) for c in c_values]
    js = _adic_j_window(psi_hat, psi_tilde_hat, a_f, c_values)

    residuals = {}
    details = {}

    # c1: offset/dilation sum against b on scale representatives
    dev_c1 = 0.0
    for gammas in _representative_grids(1.0, a_f, gamma_points):
        total = np.zeros(gammas.shape, dtype=complex)
        for j in js:
            pts = gammas / (a_f ** j)
            for c in c_values:
                total += psi_hat.values_at(pts - c) * np.conj(psi_tilde_hat.values_at(pts - c))
        dev = float(np.abs(total - b).max()) if gammas.size else b
        dev_c1 = max(dev_c1, dev)
    if not list(js):
        dev_c1 = b
    residuals["c1"] = dev_c1

    # c2: products of 1/b-shifted supports
    dev_c2 = 0.0
    lo1, hi1 = psi_hat.band
    lo2, hi2 = psi_tilde_hat.band
    k_lo = int(math.ceil((lo1 - hi2) * b - 1e-12))
    k_hi = int(math.floor((hi1 - lo2) * b + 1e-12))
    overlaps = 0
    starts, _ = psi_hat.nonzero_cells() if not psi_hat.is_zero() else (np.array([]), None)
    centers = starts + psi_hat.step / 2 if starts.size else np.array([])
    for k in range(k_lo, k_hi + 1):
        if k == 0:
            continue
        q = k / b
        if centers.size:
            prod = np.abs(psi_hat.values_at(centers) * np.conj(psi_tilde_hat.values_at(centers + q)))
            dev_c2 = max(dev_c2, float(prod.max()) if prod.size else 0.0)
            overlaps += 1
    residuals["c2"] = dev_c2
    details["c2_shifts_checked"] = float(overlaps)

    if full_check:
        a_frac = _as_fraction(a, "a")
        b_frac = _as_fraction(b, "b")
        # alpha = a^j n / b contributes only if n/b fits inside the difference
        # of the two offset-shifted bands, a j-independent window for n
        c_span = (max(c_values) - min(c_values)) if c_values else 0.0
        reach = (max(hi1, hi2) - min(lo1, lo2)) + c_span
        n_max = int(math.ceil(b * reach)) + 1
        groups = {}
        for j in js:
            for n in range(-n_max, n_max + 1):
                if n == 0:
                    continue
                alpha = (a_frac ** j) * n / b_frac
                groups.setdefault(alpha, []).append((j, n))
        dev_g1 = 0.0
        for gammas in _representative_grids(1.0, a_f, max(gamma_points // 2, 256)):
            for alpha, members in groups.items():
                alpha_f = float(alpha)
                total = np.zeros(gammas.shape, dtype=complex)
                for j, _n in members:
                    pts = gammas / (a_f ** j)
                    pts_shift = (gammas + alpha_f) / (a_f ** j)
                    for c in c_values:
                        total += psi_hat.values_at(pts - c) * np.conj(
                            psi_tilde_hat.values_at(pts_shift - c)
                        )
                dev_g1 = max(dev_g1, float(np.abs(total).max()))
        residuals["g1_offdiagonal"] = dev_g1
        details["g1_classes"] = float(len(groups))

    return AnalysisReport.from_residuals(
        residuals, tol,
        notes=f"wave-packet dual-frame conditions at a={a_f}, b={b}",
        details=details,
    )


def lic_estimate(psi_hat: FreqFunction, grid: WavePacketGrid, f_hat: FreqFunction):
    """Truncated local-integrability sum for a test function in class D.

    L(f) = sum_{j,m,n} integral over supp f_hat of
    |f_hat(g + a_j n / b)|^2 |psi_hat(a_j^-1 g - c_m)|^2 dg,
    computed cellwise on the f_hat grid.  The report carries a monotone
    partial-sum trace over the dilation list for a finiteness judgment.
    """
    if f_hat.is_zero():
        return 0.0, AnalysisReport.from_residuals(
            {}, resolve_tolerance(None), notes="zero test function", details={"value": 0.0}
        )
    starts, _ends = f_hat.nonzero_cells()
    centers = starts + f_hat.step / 2
    flo, fhi = f_hat.band
    fdiam = fhi - flo
    total = 0.0
    trace = []
    for a in grid.a_values:
        contrib = 0.0
        n_max = int(math.ceil(grid.b * fdiam / a)) + 1
        for n in range(-n_max, n_max + 1):
            shift = a * n / grid.b
            fshift2 = np.abs(f_hat.values_at(centers + shift)) ** 2
            if not np.any(fshift2):
                continue
            for c in grid.c_values:
                psi2 = np.abs(psi_hat.values_at(centers / a - c)) ** 2
                if not np.any(psi2):
                    continue
                contrib += float(np.sum(fshift2 * psi2) * f_hat.step)
        total += contrib
        trace.append(total)
    last_increment = trace[-1] - trace[-2] if len(trace) > 1 else trace[-1] if trace else 0.0
    notes = "partial sums over the dilation list: " + ", ".join(f"{t:.6g}" for t in trace)
    report = AnalysisReport.from_residuals(
        {}, resolve_tolerance(None),
        notes=notes,
        details={"value": total, "last_increment": last_increment},
    )
    return total, report


def bessel_divergence_probe(g_hat: FreqFunction, b: float, c_step: float,
                            gamma: float = 0.75, ceiling: float = 1e6,
                            rule: str = "inverse_linear", block: int = 4096,
                            max_terms: int = 10 ** 7):
    """Partial translation-overlap sums under covering offsets, until a ceiling.

    Models the obstruction hypotheses: |g| bounded below on an interval, the
    offsets c_m = m * c_step covering the line, and a dilation family bounded
    above on an infinite index set (a_j = 1/(1+j), or 2^-j with "dyadic").
    The diagonal partial sums at a fixed gamma are then monotone increasing
    and unbounded; rows of (J, partial sum) are returned together with the
    first J exceeding the ceiling.
    """
    if rule not in ("inverse_linear", "dyadic"):
        raise DomainError("rule must be 'inverse_linear' or 'dyadic'")
    if c_step <= 0 or b <= 0:
        raise DomainError("b and c_step must be positive")
    _check_ceiling(ceiling)
    lo_b, hi_b = g_hat.band
    offsets = np.arange(0, int(math.ceil((hi_b - lo_b) / c_step)) + 2)
    rows = []
    total = 0.0
    exceeded_at = None
    j0 = 0
    while j0 < max_terms:
        j = np.arange(j0, j0 + block)
        if rule == "inverse_linear":
            u = gamma * (1.0 + j)
        else:
            with np.errstate(over="ignore"):
                u = gamma * np.exp2(j.astype(float))
        finite = np.isfinite(u)
        u = np.where(finite, u, 0.0)
        base = np.floor((u - hi_b) / c_step)
        contrib = np.zeros(u.shape)
        for off in offsets:
            c = (base + off) * c_step
            contrib += np.abs(g_hat.values_at(u - c)) ** 2
        contrib[~finite] = 0.0
        csum = total + np.cumsum(contrib) / b
        total = float(csum[-1])
        j0 += block
        rows.append((j0, total))
        if exceeded_at is None and np.any(csum > ceiling):
            exceeded_at = int(j[np.argmax(csum > ceiling)]) + 1
            break
    exceeded = exceeded_at is not None
    report = AnalysisReport.from_residuals(
        {"ceiling_not_exceeded": 0.0 if exceeded else 1.0}, resolve_tolerance(None),
        notes=(
            f"diagonal partial sums at gamma={gamma} "
            + (f"exceeded ceiling {ceiling:g} after {exceeded_at} dilations"
               if exceeded else f"did not exceed ceiling {ceiling:g} within {j0} dilations")
        ),
        details={"ceiling": ceiling, "last_partial": total,
                 "dilations_used": float(exceeded_at if exceeded else j0)},
    )
    return rows, report
