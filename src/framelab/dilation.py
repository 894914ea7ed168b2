"""Dilation-based systems on the frequency side: wavelet and wave-packet checks.

All generators are band-limited piecewise-constant functions, held by their
exact pieces (class-D model: bounded, compactly supported on the frequency
side).  Band limitation is what makes every dilation, translation and shift
sum below finite, so truncation is exact rather than approximate; inputs
whose support reaches 0 are rejected where that would make infinitely many
dilations contribute.

Scale invariance is exploited throughout: the dyadic (resp. a-adic)
conditions are invariant under gamma -> 2 gamma (resp. a gamma), so
checking +-[1, 2) (resp. +-[1, a)) covers almost every gamma.

Every sum is piecewise constant in gamma, with breakpoints at the dilated
and shifted edges of the generators, so it is read exactly, at one point per
piece (_pieces): its sup, inf and max |.| are true values, not samples.
The translation-overlap sums, the B-spline scanner's too, run on one kernel
(_overlap_sums): it takes the ascending points and shifts its callers build
and reads each block of consecutive rows in one masked evaluation.

The dual wavelet criterion is the a = 2, c = {0} case of the dual
wave-packet criterion, and both run on one front end (_dual_deviations) and
one loop (_class_deviations), in one dilation order, decreasing j: b is the
translation step, the offset/dilation sum must equal b, and the sums of
every shift class alpha = a^j n / b != 0, i.e. over the lattices a^j (1/b)Z
grouped by the exact rational alpha, must vanish.  Each dilation reads every
offset at once; its j window comes from the exact nonzero pieces.  The
shifted products psi(g) conj(psit(g + n/b)) are its classes n/b at j = 0,
c = 0.
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
    TruncationUnsoundError,
    _as_float,
    _as_rational,
    _check_work,
    _decode_pairs,
    _encode_pairs,
    _field,
    _grid_samples,
    _shift_window,
    resolve_tolerance,
)


class FreqFunction:
    """Band-limited piecewise-constant function on the frequency axis.

    It is held by its pieces: pieces[i] on [edges[i], edges[i + 1]), zero
    outside, with the ascending edges every x where the value changes.  The
    band is an interval holding every nonzero piece.  The constructor takes a
    uniform grid, values[i] on [start + i*step, start + (i+1)*step), kept as
    given (the input format), and merges equal neighbouring cells.
    """

    def __init__(self, start: float, step: float, values, band):
        self.start, self.step, self.values, self.band = _grid_samples(
            start, step, values, band, True, ("start", "values", "band", "cells"))
        self._hold(self.start + self.step * np.arange(self.count + 1), self.values)

    def _hold(self, cuts, cells):
        """Hold the cells [cuts[i], cuts[i + 1]) of value cells[i] by their pieces, read-only."""
        padded = np.concatenate(([0j], cells, [0j]))
        change = np.flatnonzero(padded[1:] != padded[:-1])
        self.edges = cuts[change]
        self._padded = np.concatenate(([0j], padded[change[:-1] + 1], [0j]))
        self.pieces = self._padded[1:-1]
        self.edges.flags.writeable = self._padded.flags.writeable = False
        return self

    @property
    def count(self) -> int:
        return self.values.shape[0]

    def is_zero(self) -> bool:
        return not self.edges.size

    def values_at(self, gamma) -> np.ndarray:
        """pieces[i] on [edges[i], edges[i + 1]), zero outside: exact at every float."""
        return self._padded[np.searchsorted(self.edges, np.asarray(gamma, dtype=float), "right")]

    def nonzero_cells(self):
        """(start, end) of every nonzero piece."""
        nz = np.flatnonzero(self.pieces)
        return self.edges[nz], self.edges[nz + 1]

    def support(self):
        """[edges[0], edges[-1]), outside which values_at is 0; (0, 0) for the zero function."""
        return (float(self.edges[0]), float(self.edges[-1])) if self.edges.size else (0.0, 0.0)

    def scaled(self, factor: complex) -> "FreqFunction":
        return _bare(self.start, self.step, factor * self.values, self.band)._hold(
            self.edges, factor * self.pieces)

    def to_json_dict(self):
        """The grid form; DomainError unless it reads back with exactly these edges, which
        an indicator whose lo + (hi - lo) misses hi, or overflows, does not."""
        data = {
            "grid": {"start": self.start, "step": self.step, "count": self.count},
            "values": _encode_pairs(self.values),
            "band": [self.band[0], self.band[1]],
        }
        try:
            exact = np.array_equal(FreqFunction.from_json_dict(data).edges, self.edges)
        except DomainError:
            exact = False
        if not exact:
            raise DomainError(f"the grid at {self.start!r} of step {self.step!r} does not "
                              "read back with this function's edges")
        return data

    @classmethod
    def from_json_dict(cls, data):
        grid = _field(data, "grid")
        values, count = _decode_pairs(_field(data, "values"), "values"), _field(grid, "count")
        if len(values) != count:
            raise DimensionMismatch(f"{len(values)} values do not match the declared grid count {count!r}")
        return cls(_field(grid, "start"), _field(grid, "step"), values, _field(data, "band"))


def _bare(start, step, values, band) -> FreqFunction:
    """A FreqFunction of this grid whose pieces _hold sets; only its values are checked."""
    fn = FreqFunction(0.0, 1.0, values, (0.0, len(values)))
    fn.start, fn.step, fn.band = start, step, band
    return fn


def freq_indicator(lo: float, hi: float, *, amplitude: complex = 1.0) -> FreqFunction:
    """amplitude times the indicator of [lo, hi), for any finite lo <= hi.

    Its edges are the floats lo and hi, none if lo = hi.  Its grid, which
    to_json_dict writes, is the one cell at lo of step hi - lo, whose end
    lo + (hi - lo) can be an ulp off hi: to_json_dict refuses it then.
    """
    lo, hi = _as_float(lo, "lo"), _as_float(hi, "hi")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise DomainError(f"an indicator from {lo:g} to {hi:g}, a width of {hi - lo:g}, "
                          "must be finite and not negative")
    if lo == hi:
        return FreqFunction(lo, 1.0, [], (lo, hi))
    return _bare(lo, hi - lo, [amplitude], (lo, hi))._hold(np.array([lo, hi]), [amplitude])


def shannon_wavelet() -> FreqFunction:
    """Indicator of [-1, -1/2) union [1/2, 1): the dyadic tiling generator."""
    return FreqFunction(-1.0, 0.5, [1.0, 0.0, 0.0, 1.0], (-1.0, 1.0))


def _breakpoints(edges, scales, offsets) -> np.ndarray:
    """s * (x + o) for every edge x, scale s and offset o; costed before it is built."""
    scales, offsets = np.asarray(scales, dtype=float), np.asarray(offsets, dtype=float)
    _check_work(edges.size * scales.size * offsets.size, "the breakpoints of the frequency sums")
    return (scales[:, None, None] * (edges + offsets[:, None])).ravel()


def _pieces(edges, windows):
    """(midpoints, widths) of the pieces of each window [lo, hi) cut at the edges inside it.

    A sum whose terms are constant between the edges has its sup, inf and
    max |.| over the windows at the midpoints, and its integral is the sum of
    value times width.  A piece narrower than a few ulps of its position is
    outside what float64 resolves: the edges and the evaluated arguments
    carry that much rounding.
    """
    lefts, rights = [], []
    for lo, hi in windows:
        cuts = np.unique(np.concatenate(([lo, hi], edges[(edges > lo) & (edges < hi)])))
        lefts.append(cuts[:-1])
        rights.append(cuts[1:])
    left, right = np.concatenate(lefts), np.concatenate(rights)
    return (left + right) / 2, right - left


@dataclass(frozen=True)
class WavePacketGrid:
    """Dilations a_j, translation step b, and modulation offsets c_m.

    The lists are finite by construction; the sums over them are read exactly,
    one point per piece between their known breakpoints.
    """

    a_values: tuple
    b: float
    c_values: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_values", tuple(float(a) for a in self.a_values))
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        if not (self.a_values and self.c_values):
            raise DomainError("need at least one dilation and one offset")
        if not all(map(math.isfinite, (*self.a_values, self.b, *self.c_values))):
            raise DomainError("dilations, b and offsets must be finite (no NaN or Inf)")
        if any(a <= 0 for a in self.a_values):
            raise DomainError("dilations must be positive")
        if self.b <= 0:
            raise DomainError("b must be positive")


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


#: (row, term, point) entries per block of _overlap_sums, each block one values_at call:
#: one block per dilation would read every row over the union of all its windows
_BLOCK_ENTRIES = 2 ** 14


def _row_blocks(starts, stops, terms):
    """[(rows, start, stop)]: the rows with a nonempty window [starts[r], stops[r]) in
    order, grouped into blocks over their union window [start, stop) of at most
    _BLOCK_ENTRIES (row, term, point) entries; a row wider than that is split along its
    points (one point of every term at least)."""
    width = max(1, _BLOCK_ENTRIES // terms)
    blocks, joinable = [], False
    for r, (first, last) in enumerate(zip(starts, stops)):
        if last <= first:
            continue
        if joinable:
            rows, start, stop = blocks[-1]
            start, stop = min(start, first), max(stop, last)
            if (len(rows) + 1) * (stop - start) <= width:
                rows.append(r)
                blocks[-1] = rows, start, stop
                continue
        blocks += [([r], p, min(p + width, last)) for p in range(first, last, width)]
        joinable = last - first <= width  # no row joins the pieces of a split one
    return blocks


def _overlap_sums(values_at, dilations, offsets, shifts, gammas: np.ndarray, support, cost=None):
    """diag = sum |g(u)|^2 and off = sum_s |g(u)| |g(u - s)| at u = gamma/a - c.

    The sums run over every dilation a, offset c and shift s.  This is the
    one translation-overlap loop: the wave-packet bounds use shifts k/b, the
    B-spline scanner one dilation, offsets n*a and shifts k/b (none when
    painless).  support = (lo, hi) must hold every point where g is nonzero,
    and values_at is called only on points of [lo, hi).

    The points and the shifts must be ascending, as every caller builds them:
    the scanner's nodes, the pieces of one window (_pieces) or a sorted
    gamma_grid, and the shifts k/b.  So the points x of each (dilation,
    offset) row with fl(x - c) in the support lie in one window, found by one
    binary search per end: fl(x - c) in [lo, hi) puts x - c within eps M /
    (1 - eps) of [lo, hi), M = max(|lo|, |hi|) and eps = 2^-53, and the keys
    fl(fl(lo + c) - r) and fl(fl(hi + c) + r), r = 4 eps (|c| + M), lie
    farther out, so the window holds every such x and a mask decides the rest.
    Consecutive rows form blocks over their union window (_row_blocks).  A
    block keeps, after the row itself (s = 0), the run of shifts whose term
    can meet the support: fl(fl(x - c) - s) is monotone in x, c and s, so the
    shifts whose term lies above the support at the block's least fl(x - c)
    are a prefix, and those below it at the largest a suffix.

    With a cost per entry given, the search and grouping (64 units per row)
    and then cost times the (row, term, point) entries of every block are
    charged before either is done; only the scanner gives none, its cells are
    charged by _check_cell.  Each block forms fl(fl(x - c) - s) for its rows,
    terms and points as one array, masks it by the support and calls values_at
    once, on the entries inside it.  The rows' squares are added to diag, and
    then the (row, shift) products to off, one after another by
    np.add.accumulate (a sum over the rows may add pairwise).  So the result
    is bit-identical to one call per (dilation, offset, shift) term at every
    point: values_at is elementwise, every point is the same float expression,
    the terms are added in the same order, and a masked or dropped term adds
    an exact +0.0 to a nonnegative sum.
    """
    pts = np.ravel(gammas)
    offsets, shifts = np.asarray(offsets, dtype=float), np.asarray(shifts, dtype=float)
    lo, hi = support
    if cost is not None:
        _check_work(64 * len(dilations) * offsets.size,
                    "the row windows of the translation-overlap sums")
    reach = 2.0 ** -51 * (np.abs(offsets) + max(abs(lo), abs(hi)))
    plan, entries = [], 0
    for a in dilations:
        base = pts / a
        starts = np.searchsorted(base, (lo + offsets) - reach).tolist()
        stops = np.searchsorted(base, (hi + offsets) + reach).tolist()
        for rows, start, stop in _row_blocks(starts, stops, 1 + shifts.size):
            c = offsets[rows]
            first = np.count_nonzero(base[start] - c.max() - shifts >= hi)
            last = max(first, np.count_nonzero(base[stop - 1] - c.min() - shifts >= lo))
            plan.append((base[start:stop], c[:, None, None], first, last, start, stop))
            entries += c.size * (1 + last - first) * (stop - start)
    if cost is not None:
        _check_work(cost * entries, f"translation-overlap sums on {entries} entries "
                                    f"of {pts.size} frequency points")

    diag, off = np.zeros(pts.shape), np.zeros(pts.shape)
    for x, c, first, last, start, stop in plan:
        u = (x - c) - np.concatenate(([0.0], shifts[first:last]))[:, None]  # 0: the row itself
        live = (u >= lo) & (u < hi)
        g = np.zeros(u.shape)
        g[live] = np.abs(values_at(u[live]))
        g *= g[:, :1]  # the row's square, then its products with each shift
        diag[start:stop] = np.add.accumulate(np.concatenate((diag[None, start:stop], g[:, 0])))[-1]
        if last > first:
            products = g[:, 1:].reshape(-1, stop - start)
            off[start:stop] = np.add.accumulate(np.concatenate((off[None, start:stop], products)))[-1]
    return diag.reshape(np.shape(gammas)), off.reshape(np.shape(gammas))


def _bound_points(g_hat: FreqFunction, grid: WavePacketGrid, shifts, gamma_grid):
    """(points, inner, (t_lo, t_hi, margin)): one point per piece of the sums
    over the covered region, and inner marks the pieces of the trimmed window
    [t_lo, t_hi), the region less one dilated band diameter at each edge, which
    is cut in.  |g(u)| |g(u - s)| at u = gamma/a_j - c_m is constant between the
    a_j (x_i + c_m + s), x_i an edge of g and s = 0 or k/b.  A given gamma_grid
    serves both the sup and the inf, sorted for the kernel."""
    lo, hi = _coverage_box(g_hat, grid)
    margin = _edge_margin(g_hat, grid)
    t_lo, t_hi = lo + margin, hi - margin
    if gamma_grid is not None:
        gammas = np.asarray(gamma_grid, dtype=float)
        if gammas.size == 0 or not np.isfinite(gammas).all():
            raise DomainError("gamma_grid must be nonempty and finite (no NaN or Inf)")
        return np.sort(gammas, axis=None), np.ones(gammas.size, dtype=bool), (t_lo, t_hi, margin)
    offsets = np.add.outer(grid.c_values, [0.0, *shifts]).ravel()
    edges = np.append(_breakpoints(g_hat.edges, grid.a_values, offsets), (t_lo, t_hi))
    gammas, _ = _pieces(edges, [(lo, hi)])
    return gammas, (gammas > t_lo) & (gammas < t_hi), (t_lo, t_hi, margin)


def wave_packet_frame_bounds(g_hat: FreqFunction, grid: WavePacketGrid,
                             ceiling: float = 1e15, gamma_grid=None):
    """(A, B) from the translation-overlap sufficient condition.

    B is the sup of (diag + off)/b over the covered region; A is the inf of
    (diag - off)/b over the same region trimmed by one dilated band diameter
    at each edge, which removes the artificial dropoff caused by cutting the
    offset list short.  Both are read on every piece of the sums.  A <= 0 is
    reported as inconclusive, never as a disproof.  Every term is
    nonnegative, so no partial sum passes the ceiling unless the final one
    does: a final sum beyond ceiling * b reports (0, inf) with the Bessel
    condition violated.  Bounds on a given gamma_grid are samples, reported
    undecided.
    """
    _check_ceiling(ceiling)
    shifts = [k / grid.b for k in _k_range(g_hat.band, grid.b) if k != 0]
    gammas, inner, (t_lo, t_hi, margin) = _bound_points(g_hat, grid, shifts, gamma_grid)
    # a complex value per live point
    diag, off = _overlap_sums(g_hat.values_at, grid.a_values, grid.c_values, shifts, gammas,
                              g_hat.support(), cost=2)
    peak = float((diag + off).max())
    if peak > ceiling * grid.b:
        return FrameBounds(0.0, math.inf), AnalysisReport.from_residuals(
            {"partial_sum_overflow": 1.0}, resolve_tolerance(None),
            notes=f"unbounded (Bessel violated) beyond ceiling {ceiling:g}", details={"ceiling": ceiling})
    upper = max(0.0, peak / grid.b)
    lower_raw = float((diag - off)[inner].min()) / grid.b if inner.any() else -math.inf
    conclusive = lower_raw > 0 and math.isfinite(lower_raw)
    bounds = FrameBounds(max(lower_raw, 0.0) if conclusive else 0.0, upper)
    report = AnalysisReport.from_residuals(
        {}, resolve_tolerance(None),
        notes=("sampled at the given points; not a certificate" if gamma_grid is not None
               else "frame certificate: both bounds positive" if conclusive
               else "sufficient condition inconclusive (lower estimate not positive); "
               "no disproof implied"),
        details={
            "lower_raw": lower_raw if math.isfinite(lower_raw) else -1.0,
            "upper": upper,
            "inf_window_lo": t_lo,
            "inf_window_hi": t_hi,
            "edge_margin": margin,
        },
        undecided=gamma_grid is not None or not conclusive,
    )
    return bounds, report


def wave_packet_bessel_bound(g_hat: FreqFunction, grid: WavePacketGrid,
                             ceiling: float = 1e15, gamma_grid=None):
    """Sufficient translation-overlap bound: the system is Bessel with bound

    B = (1/b) sup_gamma sum_{j,m,k} |g(a_j^-1 g - c_m) g(a_j^-1 g - c_m - k/b)|,

    the upper bound of wave_packet_frame_bounds, read in its one pass.  Band
    limitation makes the k sum exact, and the sup is read on every piece of
    the sums.  Sums beyond the ceiling report the Bessel condition as
    violated (value +inf, with the frame bounds' report).  On a given
    gamma_grid it is a sample, undecided.
    """
    bounds, report = wave_packet_frame_bounds(g_hat, grid, ceiling, gamma_grid)
    if report.verdict == "fail":
        return bounds.upper, report
    return bounds.upper, AnalysisReport.from_residuals(
        {}, resolve_tolerance(None),
        notes=("sampled at the given points; not a certificate" if gamma_grid is not None
               else "k-sum exact by band limitation; finite dilation/offset lists have no tail"),
        details={"bessel_bound": bounds.upper},
        undecided=gamma_grid is not None,
    )


def _adic_j_window(psi: FreqFunction, psi_tilde: FreqFunction, a: float, c_values):
    """j range with a^-j gamma inside some shifted nonzero piece, |gamma| in [1, a), read
    by binary search in the piece ends: x + c rounds monotonically in x and c, and to 0
    only at x = -c, so the shifted ends nearest 0 are the two around -c."""
    offsets = np.asarray(c_values, dtype=float)
    near, far = [], []
    for starts, ends in (fn.nonzero_cells() for fn in (psi, psi_tilde)
                         if offsets.size and not fn.is_zero()):
        # of the disjoint pieces, only the last one starting at or below -c can hold -c
        k = np.searchsorted(starts, -offsets, "right") - 1
        across = (k >= 0) & (ends[k] >= -offsets)
        if across.any():
            raise TruncationUnsoundError(f"offset c={c_values[np.argmax(across)]} places the support "
                                         "across 0; the dilation sum has no sound finite truncation")
        cuts = np.union1d(starts, ends)
        k = np.searchsorted(cuts, -offsets).clip(1, cuts.size - 1)
        near.append(np.minimum(np.abs(cuts[k - 1] + offsets), np.abs(cuts[k] + offsets)).min())
        far.append(max(abs(starts[0] + offsets.min()), abs(ends[-1] + offsets.max())))
    if not near:
        return range(0, 0)
    ln_a = math.log(a)
    return range(math.floor(-math.log(max(far)) / ln_a) - 1, math.ceil(-math.log(min(near)) / ln_a) + 2)


def _extent(fn: FreqFunction):
    """(start of the first, end of the last) nonzero piece of fn; its band if it has none,
    where every product with it vanishes whatever the window."""
    if fn.is_zero():
        return fn.band
    starts, ends = fn.nonzero_cells()
    return float(starts[0]), float(ends[-1])


def _reachable_n(psi: FreqFunction, psi_tilde: FreqFunction, b: float, c_values):
    """n window of the shift classes alpha = a^j n / b.

    A class contributes only if n/b fits inside the difference of the two
    offset-shifted extents of the nonzero pieces, a window that does not
    depend on j.
    """
    lo1, hi1 = _extent(psi)
    lo2, hi2 = _extent(psi_tilde)
    c_span = (max(c_values) - min(c_values)) if c_values else 0.0
    n_max = _shift_window(b * ((max(hi1, hi2) - min(lo1, lo2)) + c_span))
    return range(-n_max, n_max + 1)


def _class_points(psi_edges, psi_tilde_edges, a, c_values, alpha, members, windows=None):
    """One point per piece of T_alpha (see _class_deviations) on the windows, +-[1, a)
    by default: its terms are constant between the a^j (x_i + c) and a^j (x'_i + c) - alpha."""
    a_f = float(a)
    scales = [a_f ** j for j in members]
    edges = np.concatenate((_breakpoints(psi_edges, scales, c_values),
                            _breakpoints(psi_tilde_edges, scales, c_values) - float(alpha)))
    return _pieces(edges, windows or [(1.0, a_f), (-a_f, -1.0)])[0]


def _class_deviations(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction, a: Fraction,
                      b: Fraction, c_values, js, ns, windows=None):
    """{alpha: max over the windows (+-[1, a)) of |T_alpha - b [alpha = 0]|}, where

    T_alpha(g) = sum over the j of the class and c in c_values of
    psi(a^-j g - c) conj(psit(a^-j (g + alpha) - c)),

    for the classes alpha = a^j n / b (j in js, n in ns) of the rationals a, b,
    grouped exactly.  This is the one dilation/shift-class loop of the duality
    criteria: n = 0 puts every j in the class alpha = 0, the offset/dilation
    sum that must equal b, and every other class must vanish.  Each class is
    read on its own pieces (_class_points).  For each j of the class both
    sides are read once on every (offset, point), and the offset rows are
    added to the sum one at a time: its terms are added in the order of js,
    then of c_values.
    """
    classes = {Fraction(0): list(js)} if 0 in ns else {}
    for j in js:
        for n in ns:
            if n:
                classes.setdefault((a ** j) * n / b, []).append(j)
    edges = psi_hat.edges, psi_tilde_hat.edges
    points = {alpha: _class_points(*edges, a, c_values, alpha, members, windows)
              for alpha, members in classes.items()}
    # complex values per point, member and offset, on both sides
    _check_work(4 * len(c_values) * sum(points[al].size * len(m) for al, m in classes.items()),
                "the shift-class sums of the duality criteria")
    a_f, offsets = float(a), np.asarray(c_values, dtype=float)[:, None]
    devs = {}
    for alpha, members in classes.items():
        gammas = points[alpha]
        shifted = gammas + float(alpha)
        total = np.zeros(gammas.shape, dtype=complex)
        for j in members:
            terms = psi_hat.values_at(gammas / (a_f ** j) - offsets) * np.conj(
                psi_tilde_hat.values_at(shifted / (a_f ** j) - offsets))
            for row in terms:
                total += row
        devs[alpha] = float(np.abs(total - float(b) if alpha == 0 else total).max())
    return devs


def _dual_deviations(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction, a, b, c_values,
                     full_check: bool = True):
    """(a, b, _class_deviations) of the dual-frame criterion at dilation base a,
    translation step b and offsets c_values, the front end of both duality checks.

    a and b are read by core._as_rational, strings like "5/2" too, and returned
    so: the classes are grouped by them, the values read at their floats.  The
    j and n windows come from the nonzero pieces.  The dilations run in
    decreasing j, the dyadic order: where three or more scales meet on one gamma
    the order fixes the last bits.  Without full_check only alpha = 0 is read.
    """
    a, b = _as_rational(a, "a"), _as_rational(b, "b")
    if not (a > 1 and b > 0):
        raise DomainError(f"the dilation base must exceed 1 and b be positive (got a={a}, b={b})")
    c_values = [float(c) for c in c_values]
    if not all(map(math.isfinite, c_values)):
        raise DomainError("offsets must be finite (no NaN or Inf)")
    js = _adic_j_window(psi_hat, psi_tilde_hat, float(a), c_values)[::-1]
    ns = _reachable_n(psi_hat, psi_tilde_hat, float(b), c_values) if full_check else (0,)
    return a, b, _class_deviations(psi_hat, psi_tilde_hat, a, b, c_values, js, ns)


def wavelet_duality_check(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction,
                          b: float = 1.0, tolerance=None) -> AnalysisReport:
    """Dual dyadic wavelet frames test for band-limited generators.

    b is the translation step, and the test is the a = 2, c = {0} case of
    wave_packet_duality_check.  Scaling sum: sum_j psi_hat(2^-j g)
    conj(psit_hat(2^-j g)) = b for a.e. g.  Shifted sums: for every shift
    class alpha = 2^j n / b != 0, i.e. 2^j times a point of (1/b)Z, grouped
    by the exact rational alpha, the sum over the j of the class of
    psi_hat(2^-j g) conj(psit_hat(2^-j (g + alpha))) vanishes.  Both are
    dilation invariant, so both are read exactly on every piece over +-[1, 2).
    """
    tol = resolve_tolerance(tolerance)
    _, b, devs = _dual_deviations(psi_hat, psi_tilde_hat, 2, b, (0.0,))
    scaling = devs.pop(0)
    worst = max(devs, key=devs.get, default=None)
    residual_ii = devs[worst] if worst is not None else 0.0
    return AnalysisReport.from_residuals(
        {"scaling_sum": scaling, "shifted_sums": residual_ii}, tol,
        notes=(
            f"dyadic dual-frame conditions at b={float(b)}; {len(devs)} shift classes checked"
            + (f"; worst class alpha={worst}" if residual_ii > 0 else "")
        ),
        details={"shift_classes": float(len(devs))},
    )


def wave_packet_duality_check(psi_hat: FreqFunction, psi_tilde_hat: FreqFunction,
                              a, b: float, c_values, tolerance=None,
                              full_check: bool = True) -> AnalysisReport:
    """Dual wave-packet frames: offset-sum, shifted-product and ratio-grouped tests.

    Condition c1: sum over dilations a^j and offsets c_m of
    psi(a^-j g - c_m) conj(psit(a^-j g - c_m)) equals b for a.e. g.
    Condition c2: psi(g) conj(psit(g + q)) vanishes for q in (1/b) Z, q != 0.
    With full_check, the complete ratio-grouped criterion is evaluated: for
    every reachable alpha = a^j n / b != 0 (grouped exactly via rational
    arithmetic) the corresponding double sum must vanish.  c1 and the ratio
    classes are one _dual_deviations call, c2 the classes n/b of
    _class_deviations at j = 0, c = 0 on the extent of the nonzero pieces of
    psi, its shifts k/b from the extents of both; each is read exactly, at
    one point per piece.
    """
    tol = resolve_tolerance(tolerance)
    a, b, devs = _dual_deviations(psi_hat, psi_tilde_hat, a, b, c_values, full_check)
    residuals = {"c1": devs.pop(0)}

    # c2: distinct n are distinct classes, so b goes in exactly and each shift is n/b; psi
    # is read on the extent of its nonzero pieces, which meets psit at k/b in (lo2 - hi1, hi2 - lo1)
    lo1, hi1 = _extent(psi_hat)
    lo2, hi2 = _extent(psi_tilde_hat)
    _shift_window(float(b) * ((hi2 - lo1) - (lo2 - hi1)))  # bounds the shifts k/b listed below
    k_lo = math.ceil((Fraction(lo2) - Fraction(hi1)) * b)
    k_hi = math.floor((Fraction(hi2) - Fraction(lo1)) * b)
    ks = [k for k in range(k_lo, k_hi + 1) if k != 0] if not psi_hat.is_zero() else []
    c2 = _class_deviations(psi_hat, psi_tilde_hat, Fraction(1), b, (0.0,), (0,), ks, [(lo1, hi1)])
    residuals["c2"] = max(c2.values(), default=0.0)
    details = {"c2_shifts_checked": float(len(ks))}
    if full_check:
        residuals["g1_offdiagonal"] = max(devs.values(), default=0.0)
        details["g1_classes"] = float(len(devs))

    return AnalysisReport.from_residuals(
        residuals, tol,
        notes=f"wave-packet dual-frame conditions at a={float(a)}, b={float(b)}",
        details=details,
    )


def lic_estimate(psi_hat: FreqFunction, grid: WavePacketGrid, f_hat: FreqFunction):
    """Truncated local-integrability sum for a test function in class D.

    L(f) = sum_{j,m,n} integral over supp f_hat of
    |f_hat(g + a_j n / b)|^2 |psi_hat(a_j^-1 g - c_m)|^2 dg.
    For each dilation the sum over (n, m) is the product of the sums over n
    and over m (_overlap_sums), which is constant between the edges of f_hat
    moved by -a_j n / b and the edges a_j (x + c_m) of psi_hat, so it is
    integrated exactly: value times width on every piece of supp f_hat
    (_pieces).  The report carries a monotone partial-sum trace over the
    dilation list for a finiteness judgment.
    """
    if f_hat.is_zero():
        return 0.0, AnalysisReport.from_residuals(
            {}, resolve_tolerance(None), notes="zero test function", details={"value": 0.0}
        )
    f_support, psi_support = f_hat.support(), psi_hat.support()
    flo, fhi = f_hat.band
    fdiam = fhi - flo
    total = 0.0
    trace = []
    for a in grid.a_values:
        n_max = _shift_window(grid.b * fdiam / a)
        shifts = [-a * n / grid.b for n in range(-n_max, n_max + 1)]
        # n = 0 puts f_hat's own edges, the edges of its support, among the cuts
        edges = np.concatenate([_breakpoints(f_hat.edges, [1.0], shifts),
                                _breakpoints(psi_hat.edges, [a], grid.c_values)])
        mids, widths = _pieces(edges, [f_support])
        # a complex value per live point
        f_sum, _ = _overlap_sums(f_hat.values_at, [1.0], shifts, [], mids, f_support, cost=2)
        psi_sum, _ = _overlap_sums(psi_hat.values_at, [a], grid.c_values, [], mids, psi_support,
                                   cost=2)
        inside = np.abs(f_hat.values_at(mids)) > 0
        total += float(np.sum((widths * f_sum * psi_sum)[inside]))
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
                            ceiling: float = 1e6, rule: str = "inverse_linear"):
    """Partial translation-overlap sums under covering offsets, until a ceiling.

    Models the obstruction hypotheses: |g| bounded below on an interval, the
    offsets c_m = m * c_step covering the line, and a dilation family bounded
    above on an infinite index set (a_j = 1/(1+j), or 2^-j with "dyadic").
    The diagonal partial sums at gamma = 0.75 are then monotone increasing
    and unbounded; rows of (J, partial sum), one per 4096 dilations, are
    returned together with the first J exceeding the ceiling.  The probe
    gives up after the block that passes 10^7 dilations.
    """
    if rule not in ("inverse_linear", "dyadic"):
        raise DomainError("rule must be 'inverse_linear' or 'dyadic'")
    if not (0 < c_step < math.inf and 0 < b < math.inf):
        raise DomainError(f"b and c_step must be positive and finite (got {b!r} and {c_step!r})")
    _check_ceiling(ceiling)
    gamma, block = 0.75, 4096
    lo_b, hi_b = g_hat.band
    offsets = np.arange(0, _shift_window((hi_b - lo_b) / c_step) + 1)
    rows = []
    total = 0.0
    exceeded_at = None
    j0 = 0
    while j0 < 10 ** 7:
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
        for off in offsets if finite.any() else []:  # terms past the float range are zeroed
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
