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

The dual wavelet criterion is the a = 2, c = {0} case of the dual
wave-packet criterion, and both run on one loop (_class_deviations): b is
the translation step, the offset/dilation sum must equal b, and the sums of
every shift class alpha = a^j n / b != 0, i.e. over the lattices a^j (1/b)Z
grouped by the exact rational alpha, must vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    _sample_count,
    _shift_window,
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
    count = _sample_count(hi - lo, step)
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


def _midpoints(lo: float, hi: float, p: int):
    """Midpoint grids over [lo, hi) at two resolutions, p and 2p cells."""
    return [lo + (hi - lo) * (np.arange(n) + 0.5) / n for n in (p, 2 * p)]


def _representative_grids(lo: float, hi: float, points: int):
    """Midpoint grids over [lo, hi) and its mirror, at two resolutions."""
    if points < 1:
        raise DomainError("gamma_points must be at least 1")
    return [np.concatenate([pos, -pos]) for pos in _midpoints(lo, hi, points)]


@dataclass(frozen=True)
class WavePacketGrid:
    """Dilations a_j, translation step b, and modulation offsets c_m.

    The lists are finite by construction, and the gamma resolution drives
    every sup/inf estimate.
    """

    a_values: tuple
    b: float
    c_values: tuple
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
        if self.gamma_points < 2:
            raise DomainError("gamma_points must be at least 2")


def _k_range(g_band, b: float):
    k_max = _shift_window(b * (g_band[1] - g_band[0]))
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


class _CeilingExceeded(Exception):
    """A partial translation-overlap sum passed the ceiling."""


#: points per values_at call of _overlap_sums (one grid row if that is larger):
#: one call per whole cell is barely faster and multiplies the peak memory
_BLOCK_POINTS = 2 ** 14


def _overlap_sums(values_at, dilations, offsets, shifts, gammas: np.ndarray,
                  ceiling: float = math.inf):
    """diag = sum |g(u)|^2 and off = sum_s |g(u)| |g(u - s)| at u = gamma/a - c.

    The sums run over every dilation a, offset c and shift s; offsets whose
    |g(u)| vanishes everywhere are skipped.  This is the one translation-
    overlap loop: the wave-packet bounds use shifts k/b, the B-spline
    scanner one dilation, offsets n*a and shifts k/b (none when painless).
    Raises _CeilingExceeded once max(diag + off) passes the ceiling, tested
    after each offset.

    values_at is called on blocks of at most _BLOCK_POINTS points: the rows
    u of several offsets at once, and for each offset the shifted points
    u - s of all shifts at once, taken only where g(u) != 0.  The result is
    bit-identical to one call per (offset, shift) term: values_at is
    elementwise, every point is the same float expression, the terms are
    added in the same order, and a skipped column would add an exact +0.0
    to a nonnegative sum.
    """
    pts = np.ravel(gammas)
    diag = np.zeros(pts.shape)
    off = np.zeros(pts.shape)
    shifts = np.asarray(shifts, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    rows_per_call = max(1, _BLOCK_POINTS // max(pts.size, 1))
    for a in dilations:
        base = pts / a
        for first in range(0, offsets.size, rows_per_call):
            u_block = base - offsets[first:first + rows_per_call, None]
            for u, g0 in zip(u_block, np.abs(values_at(u_block))):
                if not np.any(g0):
                    continue
                diag += g0 ** 2
                if shifts.size:
                    live = np.flatnonzero(g0)
                    u_live, g_live, acc = u[live], g0[live], off[live]
                    shifts_per_call = max(1, _BLOCK_POINTS // live.size)
                    for first_s in range(0, shifts.size, shifts_per_call):
                        block = u_live - shifts[first_s:first_s + shifts_per_call, None]
                        for row in np.abs(values_at(block)):
                            acc += g_live * row
                    off[live] = acc
                if ceiling < math.inf and float((diag + off).max()) > ceiling:
                    raise _CeilingExceeded
    return diag.reshape(np.shape(gammas)), off.reshape(np.shape(gammas))


def _wave_packet_sums(g_hat: FreqFunction, grid: WavePacketGrid, grids, ceiling: float):
    """(diag, off) on each grid, with the ceiling scaled to ceiling * b."""
    shifts = [k / grid.b for k in _k_range(g_hat.band, grid.b) if k != 0]
    return [_overlap_sums(g_hat.values_at, grid.a_values, grid.c_values, shifts, gammas,
                          ceiling * grid.b) for gammas in grids]


def _bound_sums(g_hat: FreqFunction, grid: WavePacketGrid, ceiling: float, gamma_grid):
    """(sup (diag + off)/b per sup grid, the (diag, off) sums of the inf pass,
    the trimmed window (lo, hi, margin)).

    The trimmed window is the covered region less one dilated band diameter
    at each edge.  Without a gamma_grid the sup pass runs on the midpoint
    grids over the covered region and the inf pass on those over the trimmed
    window; a given gamma_grid serves both passes.  Raises _CeilingExceeded
    when a partial sum on any grid passes the ceiling.
    """
    lo, hi = _coverage_box(g_hat, grid)
    margin = _edge_margin(g_hat, grid)
    t_lo, t_hi = lo + margin, hi - margin
    if gamma_grid is not None:
        gammas = np.asarray(gamma_grid, dtype=float)
        if gammas.size == 0:
            raise DomainError("gamma_grid must not be empty")
        sup_sums = inf_sums = _wave_packet_sums(g_hat, grid, [gammas], ceiling)
    else:
        sup_sums = _wave_packet_sums(g_hat, grid, _midpoints(lo, hi, grid.gamma_points), ceiling)
        inf_grids = _midpoints(t_lo, t_hi, grid.gamma_points) if t_hi > t_lo else []
        inf_sums = _wave_packet_sums(g_hat, grid, inf_grids, ceiling)
    estimates = [float((diag + off).max()) / grid.b for diag, off in sup_sums]
    return estimates, inf_sums, (t_lo, t_hi, margin)


def _overflow_report(notes: str, ceiling: float) -> AnalysisReport:
    return AnalysisReport.from_residuals({"partial_sum_overflow": 1.0}, resolve_tolerance(None),
                                         notes=notes, details={"ceiling": ceiling})


def wave_packet_bessel_bound(g_hat: FreqFunction, grid: WavePacketGrid,
                             ceiling: float = 1e15, gamma_grid=None):
    """Sufficient translation-overlap bound: the system is Bessel with bound

    B = (1/b) sup_gamma sum_{j,m,k} |g(a_j^-1 g - c_m) g(a_j^-1 g - c_m - k/b)|.

    Band limitation makes the k sum exact.  If the accumulating partial sums
    exceed the ceiling on any grid that wave_packet_frame_bounds evaluates
    (the trimmed inf grids included) the computation stops and reports the
    Bessel condition as violated (value +inf) instead of returning a number,
    so the value is always the upper bound of wave_packet_frame_bounds.
    """
    _check_ceiling(ceiling)
    try:
        estimates, _, _ = _bound_sums(g_hat, grid, ceiling, gamma_grid)
    except _CeilingExceeded:
        return math.inf, _overflow_report(
            f"unbounded (Bessel violated): partial sums exceeded ceiling {ceiling:g}", ceiling)
    best = max(0.0, *estimates)
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
    offset list short.  A given gamma_grid serves both passes.  A <= 0 is
    reported as inconclusive, never as a disproof; a partial sum beyond the
    ceiling on any grid reports (0, inf) with the Bessel condition violated.
    """
    _check_ceiling(ceiling)
    try:
        estimates, inf_sums, (t_lo, t_hi, margin) = _bound_sums(g_hat, grid, ceiling, gamma_grid)
    except _CeilingExceeded:
        return FrameBounds(0.0, math.inf), _overflow_report(
            f"unbounded (Bessel violated) beyond ceiling {ceiling:g}", ceiling)
    upper = max(0.0, *estimates)
    lower_raw = min((float((diag - off).min()) / grid.b for diag, off in inf_sums),
                    default=-math.inf)
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
    if isinstance(x, (Fraction, int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"{name} must be a rational number, got {x!r}") from None
    frac = Fraction(x).limit_denominator(10 ** 9)
    if abs(float(frac) - float(x)) > 1e-12 * max(1.0, abs(float(x))) or (frac == 0) != (x == 0):
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


def _reachable_n(psi: FreqFunction, psi_tilde: FreqFunction, b: float, c_values):
    """n window of the shift classes alpha = a^j n / b.

    A class contributes only if n/b fits inside the difference of the two
    offset-shifted bands, a window that does not depend on j.
    """
    lo1, hi1 = psi.band
    lo2, hi2 = psi_tilde.band
    c_span = (max(c_values) - min(c_values)) if c_values else 0.0
    n_max = _shift_window(b * ((max(hi1, hi2) - min(lo1, lo2)) + c_span))
    return range(-n_max, n_max + 1)


def _class_deviations(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction, a, b: float,
                      c_values, js, ns, grids):
    """Per grid, {alpha: max over the grid of |T_alpha - b [alpha = 0]|}, where

    T_alpha(g) = sum over the j of the class and c in c_values of
    psi(a^-j g - c) conj(psit(a^-j (g + alpha) - c)),

    for the classes alpha = a^j n / b (j in js, n in ns) grouped exactly as
    rationals.  This is the one dilation/shift-class loop of the duality
    criteria: n = 0 puts every j in the class alpha = 0, the offset/dilation
    sum that must equal b, and every other class must vanish.  The psi side
    does not depend on alpha, so it is evaluated once per (grid, j, c), and
    the psit side only where the psi side is nonzero: the skipped terms are
    exact zeros, so each sum is that of the dense loop, in the order of js.
    """
    classes = {Fraction(0): list(js)} if 0 in ns else {}
    if any(ns):
        a_frac, b_frac = _as_fraction(a, "a"), _as_fraction(b, "b")
        for j in js:
            for n in ns:
                if n:
                    classes.setdefault((a_frac ** j) * n / b_frac, []).append(j)
    a_f = float(a)
    per_grid = []
    for gammas in grids:
        psi_side = {}
        for j in js:
            pts = gammas / (a_f ** j)
            psi_side[j] = []
            for c in c_values:
                vals = psi_hat.values_at(pts - c)
                nz = np.flatnonzero(vals)
                if nz.size:
                    psi_side[j].append((c, nz, vals[nz]))
        devs = {}
        for alpha, members in classes.items():
            shifted = gammas + float(alpha)
            total = np.zeros(gammas.shape, dtype=complex)
            for j in members:
                for c, nz, vals in psi_side[j]:
                    psit = psi_tilde_hat.values_at(shifted[nz] / (a_f ** j) - c)
                    total[nz] += vals * np.conj(psit)
            devs[alpha] = float(np.abs(total - b if alpha == 0 else total).max())
        per_grid.append(devs)
    return per_grid


def wavelet_duality_check(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction,
                          b: float = 1.0, tolerance=None, gamma_points: int = 4096) -> AnalysisReport:
    """Dual dyadic wavelet frames test for band-limited generators.

    b is the translation step, and the test is the a = 2, c = {0} case of
    wave_packet_duality_check.  Scaling sum: sum_j psi_hat(2^-j g)
    conj(psit_hat(2^-j g)) = b for a.e. g.  Shifted sums: for every shift
    class alpha = 2^j n / b != 0, i.e. 2^j times a point of (1/b)Z, grouped
    by the exact rational alpha, the sum over the j of the class of
    psi_hat(2^-j g) conj(psit_hat(2^-j (g + alpha))) vanishes.  Both are
    dilation invariant, so both are sampled on +-[1, 2) at gamma_points and
    2 * gamma_points midpoints.
    """
    tol = resolve_tolerance(tolerance)
    if isinstance(b, str):
        b = float(_as_fraction(b, "b"))
    if b <= 0:
        raise DomainError("b must be positive")
    js = _adic_j_window(psi_hat, psi_tilde_hat, 2.0, (0.0,))
    # decreasing j, i.e. increasing dilation 2^-j: where three or more scales
    # meet on one gamma the order fixes the last bits, and the dyadic sums
    # keep theirs
    per_grid = _class_deviations(psi_hat, psi_tilde_hat, 2, b, (0.0,), js[::-1],
                                 _reachable_n(psi_hat, psi_tilde_hat, b, (0.0,)),
                                 _representative_grids(1.0, 2.0, gamma_points))
    refinement = [devs.pop(0) for devs in per_grid]
    residual_ii, worst_alpha = 0.0, None
    for devs in per_grid:
        for alpha, dev in devs.items():
            if dev > residual_ii:
                residual_ii, worst_alpha = dev, alpha
    classes = len(per_grid[0])
    return AnalysisReport.from_residuals(
        {"scaling_sum": max(refinement), "shifted_sums": residual_ii}, tol,
        notes=(
            f"dyadic dual-frame conditions at b={b}; {classes} shift classes checked"
            + (f"; worst class alpha={worst_alpha}" if worst_alpha is not None else "")
        ),
        details={
            "scaling_sum_coarse": refinement[0],
            "scaling_sum_fine": refinement[1],
            "shift_classes": float(classes),
        },
    )


def wave_packet_duality_check(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction,
                              a, b: float, c_values, tolerance=None,
                              full_check: bool = True, gamma_points: int = 2048) -> AnalysisReport:
    """Dual wave-packet frames: offset-sum, shifted-product and ratio-grouped tests.

    Condition c1: sum over dilations a^j and offsets c_m of
    psi(a^-j g - c_m) conj(psit(a^-j g - c_m)) equals b for a.e. g.
    Condition c2: psi(g) conj(psit(g + q)) vanishes for q in (1/b) Z, q != 0.
    With full_check, the complete ratio-grouped criterion is evaluated: for
    every reachable alpha = a^j n / b != 0 (grouped exactly via rational
    arithmetic) the corresponding double sum must vanish.  c1 is sampled at
    gamma_points and the ratio classes at half that resolution (at least 256).
    """
    tol = resolve_tolerance(tolerance)
    if isinstance(a, str):
        a = _as_fraction(a, "a")
    a_f = float(a)
    if a_f <= 1:
        raise DomainError("the dilation base must exceed 1")
    if isinstance(b, str):
        b = float(_as_fraction(b, "b"))
    if b <= 0:
        raise DomainError("b must be positive")
    c_values = [float(c) for c in c_values]
    js = _adic_j_window(psi_hat, psi_tilde_hat, a_f, c_values)

    c1 = _class_deviations(psi_hat, psi_tilde_hat, a, b, c_values, js, (0,),
                           _representative_grids(1.0, a_f, gamma_points))
    residuals = {"c1": max(devs[0] for devs in c1)}
    details = {}

    # c2: products of 1/b-shifted supports, sampled at the centers of the psi cells
    lo1, hi1 = psi_hat.band
    lo2, hi2 = psi_tilde_hat.band
    starts, _ = psi_hat.nonzero_cells()
    centers = starts + psi_hat.step / 2
    psi_c = psi_hat.values_at(centers)
    _shift_window(b * ((hi1 - lo2) - (lo1 - hi2)))  # bounds the shifts k/b listed below
    k_lo = int(math.ceil((lo1 - hi2) * b - 1e-12))
    k_hi = int(math.floor((hi1 - lo2) * b + 1e-12))
    ks = [k for k in range(k_lo, k_hi + 1) if k != 0] if centers.size else []
    dev_c2 = 0.0
    for k in ks:
        prod = np.abs(psi_c * np.conj(psi_tilde_hat.values_at(centers + k / b)))
        dev_c2 = max(dev_c2, float(prod.max()))
    residuals["c2"] = dev_c2
    details["c2_shifts_checked"] = float(len(ks))

    if full_check:
        shifts = [n for n in _reachable_n(psi_hat, psi_tilde_hat, b, c_values) if n]
        per_grid = _class_deviations(psi_hat, psi_tilde_hat, a, b, c_values, js, shifts,
                                     _representative_grids(1.0, a_f, max(gamma_points // 2, 256)))
        residuals["g1_offdiagonal"] = max(
            (dev for devs in per_grid for dev in devs.values()), default=0.0)
        details["g1_classes"] = float(len(per_grid[0]))

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
        n_max = _shift_window(grid.b * fdiam / a)
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
    offsets = np.arange(0, _shift_window((hi_b - lo_b) / c_step) + 1)
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
