"""Gabor systems: exact finite cyclic models and sampled-line checks.

The cyclic model replaces the real line by Z_L.  Time shifts move by a
(a divisor of L), modulations multiply by exp(2 pi i m b t / L) with b a
divisor of L, so the lattice identities (duality principle, Wexler-Raz,
frame-operator commutation, dual-pair extension) hold exactly and are
verified to rounding, not to a truncation error.

Lattice frame operators use Walnut's representation, L/b blocks of size
b x b: O(L b) to build from one table of class sums (_class_sums, which also
gives the Ron-Shen sums) and O(L b^2) to diagonalize, against O(L^3) for the
dense operator.  The other side of each theorem check is computed from the
windows by another route (the dense adjoint Riesz bounds, the a*b adjoint
inner products that hold the whole adjoint cross Gram, the commutation
check's dense S^-1), so no check verifies the blocks against themselves.
Commutation is checked on the two lattice generators T_a and M_b; their
residuals propagate to a bound for every lattice time-frequency shift.

Real-parameter checks (the translation-bound dual-pair criterion and the
time-frequency independence probe) run on sampled windows with compact
support hints; the k-sums are then finite and exact, and only grid effects
remain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AnalysisReport,
    DimensionMismatch,
    DomainError,
    FrameBounds,
    GridError,
    LatticeError,
    SingularSystemError,
    VectorSystem,
    frame_operator,
    _all_finite,
    _as_float,
    _bound_gaps,
    _check_work,
    _decode_pairs,
    _encode_pairs,
    _equivalence_report,
    _field,
    _grid_samples,
    _sample_count,
    _shift_window,
    _spectral_bounds,
    resolve_tolerance,
    riesz_bounds,
)

#: default sampling step for real-line windows
DEFAULT_STEP = 1.0 / 64

#: default tolerance of the translation-bound dual-pair check per unit step
RON_SHEN_TOL_PER_STEP = 6.4e-7


class GaborSpec:
    """Finite cyclic Gabor lattice: length L, steps a | L and b | L, window.

    Generates the (L/a)*(L/b) vectors exp(2 pi i m b t / L) w((t - n a) mod L),
    ordered lexicographically in (n, m).
    """

    def __init__(self, L: int, a: int, b: int, window):
        L, a, b = int(L), int(a), int(b)
        if L < 1 or a < 1 or b < 1:
            raise LatticeError("L, a, b must be positive integers")
        if L % a or L % b:
            raise LatticeError(f"a and b must divide L (got L={L}, a={a}, b={b})")
        w = np.asarray(window, dtype=complex).reshape(-1)
        if w.shape[0] != L:
            raise DimensionMismatch(f"window has length {w.shape[0]}, expected L={L}")
        if not _all_finite(w):
            raise DomainError("window entries must be finite (no NaN or Inf)")
        w = w.copy()
        w.flags.writeable = False
        self.L, self.a, self.b = L, a, b
        self.window = w

    def adjoint(self) -> "GaborSpec":
        """Adjoint lattice (time step L/b, frequency step L/a), window scaled.

        The scale sqrt(L/(a b)) is 1/sqrt(a' b') for the continuous-unit
        steps a' = a, b' = b/L of the cyclic model; it makes the duality
        principle an exact bound equality.
        """
        scale = math.sqrt(self.L / (self.a * self.b))
        return GaborSpec(self.L, self.L // self.b, self.L // self.a, scale * self.window)

    def __repr__(self):
        return f"GaborSpec(L={self.L}, a={self.a}, b={self.b})"


def finite_gabor_system(spec: GaborSpec) -> VectorSystem:
    """All lattice time-frequency shifts of the window, (n, m)-lexicographic."""
    L, a, b = spec.L, spec.a, spec.b
    count = (L // a) * (L // b)  # rows, then the smaller of S and the Gram that checks form
    _check_work(2 * (count * L + min(count, L) ** 2), f"the {count} generated vectors of {spec!r}")
    t = np.arange(L)
    phases = np.exp(2j * np.pi * b * np.outer(np.arange(L // b), t) / L)  # (m, t)
    shifts = spec.window[(t[None, :] - a * np.arange(L // a)[:, None]) % L]  # (n, t)
    rows = (shifts[:, None, :] * phases[None, :, :]).reshape(-1, L)
    return VectorSystem(rows, label=f"gabor(L={L},a={a},b={b})")


def _class_sums(h: np.ndarray, G: np.ndarray, a: int) -> np.ndarray:
    """C[u, j] = sum over p = u (mod a) of conj(G[p, j]) h[p], the blocks of a rows added in order
    (numpy sums pairwise only a one-entry table); the Walnut blocks and the Ron-Shen sums."""
    return (G.conj() * h[:, None]).reshape(-1, a, G.shape[1]).sum(axis=0)


def _walnut_blocks(g: np.ndarray, h: np.ndarray, a: int, b: int) -> np.ndarray:
    """(L/b, b, b) Walnut blocks of the mixed operator x -> sum <x, g_nm> h_nm.

    Block r acts on the samples x[r + k L/b], k < b:
    K[r][k, l] = (L/b) sum_n h(r + k L/b - n a) conj(g(r + l L/b - n a))
               = (L/b) C[(r + k L/b) mod a, (l - k) mod b], C the class sums of h, g(p + j L/b).
    """
    L = g.shape[0]
    # index, then shifted window, its conjugate, products and blocks (complex)
    _check_work(9 * L * b, f"the Walnut blocks of L={L}, a={a}, b={b}")
    q = L // b
    p, k = np.arange(L), np.arange(b)
    C = q * _class_sums(h, g[p[:, None] + np.arange(-L, 0, q)], a)  # negative indices wrap
    return C[(p % a).reshape(b, q).T[:, :, None], k - k[:, None]]  # l - k wraps too


def _apply_blocks(K: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("rkl,lr->kr", K, x.reshape(K.shape[1], -1)).reshape(-1)


def gabor_frame_bounds(spec: GaborSpec) -> FrameBounds:
    # a b > L: each block has rank <= L/a < b
    return _spectral_bounds(_walnut_blocks(spec.window, spec.window, spec.a, spec.b),
                            rank_deficient=spec.a * spec.b > spec.L)


def canonical_dual_window(spec: GaborSpec, tolerance=None) -> np.ndarray:
    """S^-1 w; by commutation this window generates the canonical dual system."""
    tol = resolve_tolerance(tolerance)
    ev, U = np.linalg.eigh(_walnut_blocks(spec.window, spec.window, spec.a, spec.b))
    if ev.min() <= tol * max(ev.max(), 1.0):
        raise SingularSystemError(f"lattice system is not a frame (lower bound {max(ev.min(), 0.0):.3e})")
    return _apply_blocks((U / ev[:, None, :]) @ U.conj().transpose(0, 2, 1), spec.window)


def duality_principle_check(spec: GaborSpec, tolerance=None) -> AnalysisReport:
    """Frame bounds on the lattice equal Riesz bounds on the adjoint lattice.

    Both optimal bound pairs are computed spectrally and compared at the
    given relative tolerance (default FRAMELAB_TOLERANCE, then 1e-10) with an
    absolute floor at the eigensolver resolution.
    """
    tol = resolve_tolerance(tolerance)
    fb = gabor_frame_bounds(spec)
    rb = riesz_bounds(finite_gabor_system(spec.adjoint()))
    return AnalysisReport.from_residuals(
        _bound_gaps(fb, rb, tol), tol,
        notes="lattice frame bounds vs adjoint-lattice Riesz bounds (duality principle)",
        details={
            "frame_lower": fb.lower, "frame_upper": fb.upper,
            "adjoint_riesz_lower": rb.lower, "adjoint_riesz_upper": rb.upper,
        },
    )


def _adjoint_inner_products(g: np.ndarray, h: np.ndarray, a: int, b: int) -> np.ndarray:
    """(b, a) table V[d, e] = (L/(a b)) sum_s exp(2 pi i e s / a) g(s - d L/b) conj(h(s)).

    The scaled adjoint systems g'_nm, h'_nm (time step L/b, frequency step L/a,
    n < b, m < a) have cross Gram <g'_(n1,m1), h'_(n2,m2)> = phase *
    V[(n1 - n2) mod b, (m1 - m2) mod a] with |phase| = 1, and phase = 1 on the
    diagonal (Wexler & Raz 1990; Janssen 1995): these a b inner products hold
    the whole (a b) x (a b) Gram.  Built from the windows alone, as one
    (b, L) product array times one (L, a) phase matrix, O(a b L).
    """
    L = g.shape[0]
    # index and products (b, L), exponents and phases (L, a), the table
    _check_work(3 * (a + b) * L + 2 * a * b, f"the adjoint inner products of L={L}, a={a}, b={b}")
    s = np.arange(L)
    products = g[(s - (L // b) * np.arange(b)[:, None]) % L] * h.conj()  # (d, s)
    phases = np.exp(2j * np.pi * (np.outer(s, np.arange(a)) % a) / a)  # (s, e)
    return (L / (a * b)) * (products @ phases)


def wexler_raz_check(spec_g: GaborSpec, spec_h: GaborSpec, tolerance=None) -> AnalysisReport:
    """Dual frames on the lattice iff biorthogonal on the adjoint lattice.

    The verdict is on the equivalence (Wexler-Raz): pass when the dual-pair
    check of the two lattice systems and the biorthogonality check of the
    two scaled adjoint systems agree.  The biorthogonality residual,
    max |<g'_j, h'_k> - delta_jk| over the adjoint cross Gram, is
    max(|V[0, 0] - 1|, max |V[d, e]| off (0, 0)) on the a b adjoint inner
    products V, O(a b L) instead of the O((a b)^2 L) dense Gram.  Raw
    residuals are in the details.
    """
    tol = resolve_tolerance(tolerance)
    if (spec_g.L, spec_g.a, spec_g.b) != (spec_h.L, spec_h.a, spec_h.b):
        raise LatticeError("both windows must share the same (L, a, b) lattice")
    a, b = spec_g.a, spec_g.b
    V = _adjoint_inner_products(spec_g.window, spec_h.window, a, b)
    V[0, 0] -= 1.0
    bio = float(np.abs(V).max())
    K = _walnut_blocks(spec_g.window, spec_h.window, a, b)
    duality = float(np.linalg.norm(np.eye(b) - K, 2, axis=(1, 2)).max())
    return _equivalence_report(duality, bio, tol, "Wexler-Raz equivalence",
                               "dual-pair check", "adjoint biorthogonality")


def frame_operator_commutation_check(spec: GaborSpec, tolerance=None) -> AnalysisReport:
    """S^-1 commutes with the lattice generators T_a and M_b, hence with
    every lattice time-frequency shift.

    Implies the canonical dual keeps the Gabor structure with window S^-1 w.
    S^-1 is the dense inverse of the generated system's frame operator.  With
    Y_P = S^-1 - P S^-1 P*, ||S^-1 P - P S^-1|| = ||Y_P|| and
    Y_PQ = Y_P + P Y_Q P*, so the lattice shift M_b^m T_a^n (|n| <= L/2a,
    |m| <= L/2b by cyclicity) has a commutator of norm at most
    floor(L/2a) r_T + floor(L/2b) r_M, r_T = ||Y_T_a||, r_M = ||Y_M_b||.
    The residual "commutator" is that bound times the lower frame bound A,
    i.e. relative to ||S^-1|| = 1/A, so scaling the window leaves it unchanged.
    """
    tol = resolve_tolerance(tolerance)
    bounds = gabor_frame_bounds(spec)
    if not bounds.is_frame(1e-10):
        raise SingularSystemError("commutation check needs a frame (invertible S)")
    Sinv = np.linalg.inv(frame_operator(finite_gabor_system(spec)))
    L, a, b = spec.L, spec.a, spec.b
    t = np.arange(L)
    # M_b S^-1 M_b* scales entry (s, t) by exp(2 pi i b (s - t) / L): exactly 1 where b (s - t) = 0 mod L
    phase = np.exp(2j * np.pi * ((b * (t[:, None] - t[None, :])) % L) / L)
    r_T = float(np.linalg.norm(Sinv - np.roll(Sinv, (a, a), axis=(0, 1)), 2))
    r_M = float(np.linalg.norm(Sinv - phase * Sinv, 2))
    return AnalysisReport.from_residuals(
        {"commutator": bounds.lower * ((L // (2 * a)) * r_T + (L // (2 * b)) * r_M)}, tol,
        notes=("A (floor(L/2a) ||S^-1 T_a - T_a S^-1|| + floor(L/2b) ||S^-1 M_b - M_b S^-1||) "
               "bounds the commutator of every lattice shift relative to ||S^-1|| = 1/A, "
               "A the lower frame bound; canonical dual window is S^-1 w"),
        details={"translation_generator": r_T, "modulation_generator": r_M},
    )


# -- sampled real-line windows ----------------------------------------------


class SampledWindow:
    """Uniform samples of a compactly supported function on the line.

    samples[i] is the value at x0 + i * step.  The support hint must contain
    the position of every nonzero sample; it is what makes translation sums
    finitely and exactly truncatable.
    """

    def __init__(self, x0: float, step: float, samples, support_hint):
        self.x0, self.step, self.samples, self.support_hint = _grid_samples(
            x0, step, samples, support_hint, False, ("x0", "samples", "support hint", "samples"))

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    def grid(self) -> np.ndarray:
        return self.x0 + self.step * np.arange(self.count)

    def values_interpolated(self, x) -> np.ndarray:
        """Linear interpolation, zero outside the sampled range."""
        x = np.asarray(x, dtype=float)
        g = self.grid()
        re = np.interp(x, g, self.samples.real, left=0.0, right=0.0)
        im = np.interp(x, g, self.samples.imag, left=0.0, right=0.0)
        return re + 1j * im

    def to_json_dict(self):
        return {
            "x0": self.x0, "step": self.step,
            "samples": _encode_pairs(self.samples),
            "support_hint": [self.support_hint[0], self.support_hint[1]],
        }

    @classmethod
    def from_json_dict(cls, data):
        samples = _decode_pairs(_field(data, "samples"), "samples")
        return cls(_field(data, "x0"), _field(data, "step"), samples, _field(data, "support_hint"))


def sampled_indicator(lo: float = 0.0, hi: float = 1.0, step: float = DEFAULT_STEP) -> SampledWindow:
    """Half-open indicator of [lo, hi) sampled on its own grid."""
    n = _sample_count(hi - lo, step)
    samples = np.ones(n, dtype=complex)
    return SampledWindow(lo, step, samples, (lo, hi))


def sampled_gaussian(half_width: float = 8.0, step: float = DEFAULT_STEP) -> SampledWindow:
    """exp(-pi x^2) on [-half_width, half_width]."""
    n = _sample_count(2 * half_width, step) + 1
    x = -half_width + step * np.arange(n)
    return SampledWindow(-half_width, step, np.exp(-np.pi * x ** 2), (-half_width, half_width))


def _steps_of(value: float, step: float, what: str) -> int:
    q = value / step
    r = round(q)
    if abs(q - r) > 1e-9:
        raise GridError(f"{what} = {value} is not an integer number of grid steps (step {step})")
    return int(r)


def _lookup(window: SampledWindow, positions: np.ndarray) -> np.ndarray:
    """Values at integer grid positions (in units of step, relative to 0)."""
    idx = positions - _steps_of(window.x0, window.step, "window origin")
    valid = (idx >= 0) & (idx < window.count)
    out = np.zeros(positions.shape, dtype=complex)
    out[valid] = window.samples[idx[valid]]
    return out


def ron_shen_duality_check(g: SampledWindow, h: SampledWindow, a: float, b: float,
                           tolerance=None) -> AnalysisReport:
    """Translation-bound dual-pair criterion for lattice steps (a, b).

    For each integer n with reachable overlap, evaluates
    r_n(x) = sum_k conj(g(x - n/b - k a)) h(x - k a) on the grid of [0, a)
    and compares with b * delta_{n,0}.  Compact support hints make the k-sum
    exact; the grid must be commensurate with a and 1/b.
    """
    if abs(g.step - h.step) > 1e-15:
        raise GridError("both windows must share the same sampling step")
    step = g.step
    tol = RON_SHEN_TOL_PER_STEP * step if tolerance is None else resolve_tolerance(tolerance)
    if a <= 0 or b <= 0:
        raise DomainError("a and b must be positive")
    _sample_count(a + 1.0 / b, step)  # the grid over [0, a) and the shift 1/b, in samples
    a_steps = _steps_of(a, step, "a")
    if a_steps < 1:
        raise DomainError(f"a = {a:g} is less than one grid step ({step:g})")
    shift_steps = _steps_of(1.0 / b, step, "1/b")

    (gs, ge), (hs, he) = g.support_hint, h.support_hint
    n_max = _shift_window(b * (max(ge, he) - min(gs, hs) + a))
    k_lo = int(math.floor((-he) / a)) - 1
    k_hi = int(math.ceil((a - hs) / a)) + 1
    # per (line, n) entry: positions, indices, then shifted window, its conjugate, products (complex)
    _check_work(8 * (2 * n_max + 1) * (k_hi - k_lo + 1) * a_steps, f"translation sums at a={a:g}, b={b:g}")
    # the line x - k a, x on the grid of [0, a), in blocks of increasing k
    line = (np.arange(a_steps) - a_steps * np.arange(k_lo, k_hi + 1)[:, None]).reshape(-1)
    n = np.arange(-n_max, n_max + 1)
    r = _class_sums(_lookup(h, line), _lookup(g, line[:, None] - shift_steps * n), a_steps)  # (x, n)
    r[:, n_max] -= b
    dev = np.abs(r).max(axis=0)
    first = int(np.argmax(dev))  # the first n of the largest deviation, n = 0 if none
    worst, worst_n = float(dev[first]), (first - n_max if dev[first] > 0 else 0)
    return AnalysisReport.from_residuals(
        {"ron_shen": worst}, tol,
        notes=f"worst deviation at n={worst_n}; grid step {step}",
        details={"a": a, "b": b, "n_range": float(n_max)},
    )


# -- dual-pair extension on the lattice --------------------------------------


def extend_gabor_windows(spec_g: GaborSpec, spec_h: GaborSpec, r1_window=None):
    """Windows (g2, h2) whose lattice systems complete (g1, h1) to a dual pair.

    Uses the operator Phi = I - U T* of the two given lattice systems; since
    Phi* commutes with the lattice shifts, Phi* applied to the window of any
    dual pair (r1, r2) on the same lattice yields the Gabor-structured
    extension g2 = Phi* r1, h2 = r2.  The default r1 is the indicator of one
    time-shift cell, whose lattice system is a tight painless frame.
    """
    if (spec_g.L, spec_g.a, spec_g.b) != (spec_h.L, spec_h.a, spec_h.b):
        raise LatticeError("both windows must share the same (L, a, b) lattice")
    L, a, b = spec_g.L, spec_g.a, spec_g.b
    if a * b > L:
        raise LatticeError(f"a*b = {a * b} > L = {L}: the lattice is too sparse, no dual pair exists")
    if r1_window is None:
        r1 = np.zeros(L, dtype=complex)
        r1[:a] = 1.0
        r2 = (b / L) * r1  # canonical dual: the block system is tight with bound L/b
    else:
        r1_spec = GaborSpec(L, a, b, r1_window)  # checks length and finiteness
        r1, r2 = r1_spec.window, canonical_dual_window(r1_spec)
    # Phi* r1 = r1 - sum <r1, h_nm> g_nm, from the (h, g) Walnut blocks
    g2 = r1 - _apply_blocks(_walnut_blocks(spec_h.window, spec_g.window, a, b), r1)
    return g2, r2


def _cyclic_embed(window: SampledWindow, L: int) -> np.ndarray:
    t0 = _steps_of(window.x0, window.step, "window origin")
    _check_work(2 * L, f"a cycle of length {L}")
    out = np.zeros(L, dtype=complex)
    if window.count > L:
        raise LatticeError(f"window ({window.count} samples) does not fit in a cycle of {L}")
    out[(t0 + np.arange(window.count)) % L] = window.samples
    return out


#: longest cycle gabor_extension chooses by itself; a longer one is passed as L
MAX_AUTO_CYCLE = 1 << 20


def _cycle_length(a_int: int, b: float, step: float, span: int) -> int:
    """Smallest multiple L of a_int, at least span, on which b_int = b step L
    is an integer dividing L: q = L / b_int = 1 / (b step) must be an integer,
    and L is the first multiple of lcm(a_int, q) from a_int ceil(span / a_int)."""
    q = 1 / (b * step) if b * step > 0 else math.inf
    if q < MAX_AUTO_CYCLE + 1 and round(q) >= 1:
        cell = math.lcm(a_int, round(q))
        L = cell * -(-a_int * math.ceil(span / a_int) // cell)
        b_int = round(b * step * L)
        if L <= MAX_AUTO_CYCLE and abs(b * step * L - b_int) < 1e-9 and L % b_int == 0:
            return L
    raise LatticeError("no feasible cycle length found; pass L explicitly")


def gabor_extension(g1: SampledWindow, h1: SampledWindow, a: float, b: float, L: int = None):
    """Complete two sampled windows to a dual pair on a cyclic realization.

    The real-line parameters are mapped onto integers: a becomes a/step
    samples and b becomes b * step * L cyclic frequency steps.  Exception:
    integer a, b with unit step and an explicit compatible L are taken as
    the lattice integers themselves (the unit-step continuous reading would
    alias every modulation away).  a*b > 1 in continuous units, equivalently
    a_int * b_int > L, is infeasible.

    Returns (g2, h2) as SampledWindows on the cyclic grid; the union systems
    on that lattice pass the dual-pair check exactly.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"a and b must be finite (got a={a:g}, b={b:g})")
    if abs(g1.step - h1.step) > 1e-15:
        raise GridError("both windows must share the same sampling step")
    step = g1.step
    a_int = _steps_of(a, step, "a")
    if a_int < 1 or not b > 0:
        raise DomainError(f"a must be at least one grid step and b positive (got a={a:g}, b={b:g})")
    direct = (
        L is not None and step == 1.0
        and abs(a - round(a)) < 1e-12 and abs(b - round(b)) < 1e-12
        and L % int(round(a)) == 0 and L % int(round(b)) == 0
    )
    if direct:
        a_int, b_int = int(round(a)), int(round(b))
    else:
        span = max(g1.count + max(_steps_of(g1.x0, step, "g1 origin"), 0),
                   h1.count + max(_steps_of(h1.x0, step, "h1 origin"), 0), a_int)
        if L is None:
            L = _cycle_length(a_int, b, step, span)
        b_float = b * step * _as_float(L, "the cycle length L")
        b_int = round(b_float)
        if abs(b_float - b_int) > 1e-9 or b_int < 1:
            raise LatticeError(f"b = {b} does not map to an integer frequency step on L = {L}")
        if L % a_int or L % b_int:
            raise LatticeError(f"(a_int, b_int) = ({a_int}, {b_int}) must divide L = {L}")
    if a_int * b_int > L:
        raise LatticeError(
            f"a*b = {a * b:g} exceeds 1 in continuous units (a_int*b_int = {a_int * b_int} > L = {L}); "
            "no dual pair exists on the lattice"
        )
    spec_g = GaborSpec(L, a_int, b_int, _cyclic_embed(g1, L))
    spec_h = GaborSpec(L, a_int, b_int, _cyclic_embed(h1, L))
    g2_vec, h2_vec = extend_gabor_windows(spec_g, spec_h)
    hint = (0.0, (L - 1) * step)
    return (
        SampledWindow(0.0, step, g2_vec, hint),
        SampledWindow(0.0, step, h2_vec, hint),
    )


# -- time-frequency independence probe ---------------------------------------


@dataclass(frozen=True)
class TFPoint:
    """A modulation/translation point (lambda, mu) in the time-frequency plane."""

    lam: float
    mu: float


HRT_CAVEAT = (
    "numerical evidence only: a large smallest singular value supports linear "
    "independence, but a small one never proves dependence"
)


def hrt_independence(g: SampledWindow, points, tolerance=None) -> AnalysisReport:
    """Smallest singular value of normalized shifts exp(2 pi i lam x) g(x - mu).

    Off-grid translates are linearly interpolated.  The verdict is
    "numerically independent" when sigma_min exceeds the tolerance (default
    1e-8 * sqrt(count)); otherwise undecided, since small sigma_min proves
    nothing.
    """
    points = [p if isinstance(p, TFPoint) else TFPoint(*p) for p in points]
    if not points:
        raise DomainError("need at least one time-frequency point")
    if not all(math.isfinite(p.lam) and math.isfinite(p.mu) for p in points):
        raise DomainError("time-frequency points must be finite (no NaN or Inf)")
    if len({(p.lam, p.mu) for p in points}) != len(points):
        raise DomainError("time-frequency points must be distinct")
    if not np.any(np.abs(g.samples) > 0):
        raise DomainError("window must not be identically zero")
    tol = 1e-8 * math.sqrt(len(points)) if tolerance is None else resolve_tolerance(tolerance)

    lo, hi = g.support_hint
    mus = [p.mu for p in points]
    x_lo = lo + min(min(mus), 0.0) - g.step
    x_hi = hi + max(max(mus), 0.0) + g.step
    count = _sample_count(x_hi - x_lo, g.step) + 1
    _check_work(4 * len(points) * count, f"{len(points)} shifts on {count} samples")  # rows, SVD copy
    x = x_lo + g.step * np.arange(count)

    rows = np.empty((len(points), count), dtype=complex)
    for i, p in enumerate(points):
        vals = g.values_interpolated(x - p.mu) * np.exp(2j * np.pi * p.lam * x)
        norm = np.linalg.norm(vals)
        if norm == 0.0:
            raise DomainError(f"translate by mu={p.mu} leaves the grid empty")
        rows[i] = vals / norm
    sigma_min = float(np.linalg.svd(rows, compute_uv=False)[-1])
    independent = sigma_min > tol
    return AnalysisReport.from_residuals(
        {"numerically_dependent": 0.0 if independent else 1.0},
        tol,
        undecided=not independent,
        notes=("numerically independent; " if independent else "small sigma_min; ") + HRT_CAVEAT,
        details={"sigma_min": sigma_min, "sigma_tolerance": tol, "count": float(len(points))},
    )
