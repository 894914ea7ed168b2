"""Finite-dimensional frame machinery.

Everything is modelled on ordered finite families of complex vectors in a
common ambient dimension.  The synthesis operator maps coefficient sequences
to vectors, the analysis operator maps a vector to its coefficient sequence,
and the frame operator is their composition.  Optimal frame and Riesz bounds
are computed spectrally (Hermitian eigensolvers only), so that every duality
statement downstream becomes an exact numerical identity.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

DEFAULT_TOLERANCE = 1e-10

#: lower/upper below this ratio is treated as "lower frame condition failed"
FRAME_RATIO_FLOOR = 1e-10


class FrameLabError(Exception):
    """Base class for all framelab errors."""


class DimensionMismatch(FrameLabError):
    """Operands do not have compatible shapes."""


class DomainError(FrameLabError):
    """Input outside the domain of the operation."""


class SingularSystemError(FrameLabError):
    """The system fails the lower bound needed for the operation."""


class GridError(FrameLabError):
    """Sampled data does not align with the requested parameters."""


class LatticeError(FrameLabError):
    """Lattice parameters are inconsistent or infeasible."""


class TruncationUnsoundError(FrameLabError):
    """A truncated sum cannot be certified to represent the full sum."""


def resolve_tolerance(tolerance=None) -> float:
    """Per-call tolerance, falling back to FRAMELAB_TOLERANCE, then 1e-10.

    A value that is not a finite positive number raises DomainError.
    """
    source = "tolerance"
    if tolerance is None:
        tolerance = os.environ.get("FRAMELAB_TOLERANCE")
        if tolerance is None:
            return DEFAULT_TOLERANCE
        source = "FRAMELAB_TOLERANCE"
    try:
        value = float(tolerance)
    except (TypeError, ValueError):
        raise DomainError(f"{source} must be a number, got {tolerance!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{source} must be finite and positive, got {tolerance!r}")
    return value


#: the work budget of one request, in float64 array entries filled (10^8 are 800 MB or
#: about a second of arithmetic): a complex entry counts 2, a spline value N (N + 1) / 2 (an
#: upper bound of its N - 1 multiply-adds, kept so that no refusal moves; the phase-diagram
#: scanner charges N), a dps-digit integer dps / 15, a Python loop pass (a shift, a range
#: value, a sweep task) _PASS_WORK, about what its numpy calls cost
MAX_WORK = 10 ** 8
_PASS_WORK = 10 ** 4


def _check_work(estimate, what: str) -> None:
    """DomainError, before anything is built, when `what` needs more than MAX_WORK."""
    if not estimate <= MAX_WORK:
        size = f"about {estimate:.3g}" if not estimate >= 1e300 else "over 1e+300"
        raise DomainError(f"{what}: {size} work units, more than the limit {MAX_WORK:.0e} "
                          "of the work budget (core.MAX_WORK)")


def _as_float(value, what: str) -> float:
    """float(value); DomainError for an integer past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} is too large: past the float range") from None


def _rounding_interval(x: float):
    """(lo, hi, s): the reals that round to the finite float x = n ulp(x) lie between
    lo 2^s and hi 2^s, at 4n -+ 2 quarter ulps (4n -+ 1 on the side of 0 at a power of
    two above the subnormals); the two ends round to x iff n is even."""
    ulp = math.ulp(x)
    n = int(x / ulp)  # exact: a division by a power of two
    narrow = abs(n) == 1 << 52 and ulp > 5e-324
    return 4 * n - 2 + (narrow and n > 0), 4 * n + 2 - (narrow and n < 0), math.frexp(ulp)[1] - 3


def _as_rational(value, what: str) -> Fraction:
    """The rational a lattice or dilation parameter names: a str ("5/2", "0.1"), an int
    or a Fraction exactly, a float as the fraction of least denominator strictly inside
    its rounding interval (itself if integral).  That is the decimal typed, m / 10^k,
    whenever m 10^k < 2^52, so for every decimal of at most 6 digits and 9 places: any
    other p/q with q <= 10^k lies 10^-2k from it, farther than the interval is wide."""
    try:
        if isinstance(value, (str, numbers.Rational)):
            return Fraction(value)
        x = float(value)
        lo, hi, s = _rounding_interval(abs(x))  # a ValueError at NaN and Inf
    except (TypeError, ValueError, ZeroDivisionError):
        raise DomainError(f"{what} must be a rational number (a finite float, an int, a Fraction "
                          f"or a string such as '5/2'), got {value!r}") from None
    if x.is_integer():
        return Fraction(int(x))
    # continued fractions: in (ln/ld, hn/hd) it is t + 1 if below hn/hd, t = ln // ld, else
    # t + 1/y for y in the inverted remainder; p1/q1 and p0/q0 are the last two convergents
    ln, ld, hn, hd, p0, q0, p1, q1 = lo, 1 << -s, hi, 1 << -s, 0, 1, 1, 0
    while True:
        t, rest = divmod(ln, ld)
        if (t + 1) * hd < hn:
            p, q = p1 * (t + 1) + p0, q1 * (t + 1) + q0
            return Fraction(p if x > 0 else -p, q)
        p0, q0, p1, q1 = p1, q1, t * p1 + p0, t * q1 + q0
        ln, ld, hn, hd = hd, hn - t * hd, ld, rest


def _check_order(N, what: str = "order") -> None:
    """DomainError unless N is an integer, not a bool, of at least 1."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 1:
        raise DomainError(f"{what} must be a positive integer (got {N!r})")


def _sample_count(width: float, step: float) -> int:
    """round(width / step), the samples over width; DomainError if negative or over budget."""
    if width / step < 0:
        raise DomainError(f"a width of {width:g} at step {step:g} is negative")
    _check_work(2 * width / step, f"a grid over a width of {width:g} at step {step:g}")
    return int(round(width / step))


def _shift_window(span: float) -> int:
    """ceil(span) + 1, the |k| window of the shifts k/b within span = b * width: 2 span + 3 passes."""
    _check_work(_PASS_WORK * (2 * span + 3), f"the translation shifts of a span {span:.3g}")
    return int(math.ceil(span)) + 1


def _field(data, key):
    """data[key] of a decoded JSON object; a missing field raises DomainError."""
    try:
        return data[key]
    except (KeyError, TypeError, IndexError):
        raise DomainError(f"input has no {key!r} field") from None


def _all_finite(values) -> bool:
    """No NaN or Inf in a complex array (its float64 view is the faster test)."""
    return bool(np.isfinite(np.ascontiguousarray(values, dtype=complex).view(np.float64)).all())


def _grid_samples(origin, step, values, interval, cell: bool, names):
    """(origin, step, read-only complex copy of values, (lo, hi)) of samples values[i] at
    origin + i step.  The step must be positive (GridError); origin, step and values
    finite, and the interval two finite numbers holding every nonzero sample, or with cell
    every nonzero cell [x, x + step) (DomainError).  names = (origin, values, interval,
    items) name the parts in the messages."""
    origin_name, values_name, interval_name, items = names
    pair = tuple(interval) if isinstance(interval, (list, tuple, np.ndarray)) else ()
    if not all(isinstance(v, numbers.Real) for v in (origin, step)):
        raise DomainError(f"{origin_name} and step must be numbers, got {origin!r} and {step!r}")
    if len(pair) != 2 or not all(isinstance(v, numbers.Real) for v in pair):
        raise DomainError(f"{interval_name} must be two numbers, got {interval!r}")
    if step <= 0:
        raise GridError("step must be positive")
    arr = np.asarray(values, dtype=complex).reshape(-1)
    if not (math.isfinite(origin) and math.isfinite(step) and _all_finite(arr)):
        raise DomainError(f"{origin_name}, step and {values_name} must be finite (no NaN or Inf)")
    lo, hi = float(pair[0]), float(pair[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise DomainError(f"{interval_name} must be a finite interval")
    nonzero = (origin + step * np.arange(arr.shape[0]))[np.abs(arr) > 0]
    if nonzero.size and (nonzero.min() < lo - 1e-12
                         or nonzero.max() + (step if cell else 0.0) > hi + 1e-12):
        raise DomainError(f"{interval_name} does not contain all nonzero {items}")
    arr = arr.copy()
    arr.flags.writeable = False
    return float(origin), float(step), arr, (lo, hi)


def _encode_pairs(values) -> list:
    """Nested [re, im] float pairs of a complex array, shape (...) -> (..., 2)."""
    arr = np.asarray(values, dtype=complex)
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def _decode_pairs(pairs, what="values") -> np.ndarray:
    """Complex array from nested [re, im] pairs, bit for bit.

    The contiguous float64 (..., 2) array is viewed as complex128, so signed
    zeros survive (re + 1j*im would not keep them).  An empty list gives an
    empty array; anything that is not a list of pairs raises DomainError.
    """
    message = f"{what} must be a list of [re, im] pairs"
    try:
        arr = np.array(pairs, dtype=np.float64)
    except (TypeError, ValueError):
        raise DomainError(message) from None
    if arr.size == 0:
        return np.zeros(0, dtype=complex)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise DomainError(message)
    return arr.view(np.complex128)[..., 0]


#: absolute resolution of dense Hermitian eigensolvers, as a fraction of the
#: spectral scale; quantities closer than this cannot be distinguished
SPECTRAL_ATOL = 1e-11


def bound_agreement_residual(x: float, y: float, scale: float, tolerance: float) -> float:
    """Relative gap between two spectral quantities of common scale.

    residual <= tolerance is equivalent to
    |x - y| <= max(tolerance * max(|x|, |y|), SPECTRAL_ATOL * scale),
    i.e. per-value relative agreement with an absolute floor at the
    eigensolver's resolution, which keeps two numerically zero eigenvalues
    from producing a spurious O(1) relative gap.
    """
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    denom = max(abs(x), abs(y), SPECTRAL_ATOL * scale / tolerance)
    return abs(x - y) / denom if denom else 0.0


def _bound_gaps(fb: FrameBounds, rb: FrameBounds, tol: float) -> dict:
    """lower_gap and upper_gap of frame bounds fb against the Riesz bounds rb
    that a duality theorem equates them with."""
    scale = max(fb.upper, rb.upper)
    return {
        "lower_gap": bound_agreement_residual(fb.lower, rb.lower, scale, tol),
        "upper_gap": bound_agreement_residual(fb.upper, rb.upper, scale, tol),
    }


@dataclass(frozen=True)
class FrameBounds:
    """Optimal lower/upper bounds of a system, 0 <= lower <= upper.

    lower == 0 signals failure of the lower condition on the stated space.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper * (1 + 1e-12) + 1e-300):
            raise ValueError(
                f"invalid bounds: need 0 <= lower <= upper, got ({self.lower}, {self.upper})"
            )

    @property
    def ratio(self) -> float:
        return self.lower / self.upper if self.upper > 0 else 0.0

    def is_frame(self, ratio_floor: float = FRAME_RATIO_FLOOR) -> bool:
        return self.upper > 0 and self.ratio >= ratio_floor


_VERDICTS = ("pass", "fail", "undecided")


@dataclass(frozen=True)
class AnalysisReport:
    """Pass/fail-with-residuals record emitted by every verification.

    ``residuals`` are the quantities the verdict is judged on: verdict
    "pass" guarantees every residual <= tolerance_used.  Informational
    numbers that are not pass criteria go in ``details``.
    """

    verdict: str
    residuals: dict
    tolerance_used: float
    notes: str = ""
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}")
        for name, value in self.residuals.items():
            if value < 0:
                raise ValueError(f"residual {name!r} is negative: {value}")
            if self.verdict == "pass" and value > self.tolerance_used:
                raise ValueError(
                    f"inconsistent report: verdict pass but residual {name!r}="
                    f"{value} > tolerance {self.tolerance_used}"
                )

    @classmethod
    def from_residuals(cls, residuals, tolerance, notes="", details=None, undecided=False):
        if undecided:
            verdict = "undecided"
        else:
            verdict = "pass" if all(v <= tolerance for v in residuals.values()) else "fail"
        return cls(verdict, dict(residuals), tolerance, notes, dict(details or {}))

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


class VectorSystem:
    """Ordered finite family of complex vectors in a common ambient dimension.

    The family may be empty, vectors are not normalized, and the instance is
    immutable after construction.  Rows of ``vectors`` are the family members.
    """

    def __init__(self, vectors, ambient_dim=None, label=""):
        arr = np.asarray(vectors, dtype=complex)
        if arr.size == 0:
            if ambient_dim is None:
                raise DimensionMismatch("empty system needs an explicit ambient_dim")
            arr = arr.reshape(0, int(ambient_dim))
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d array of row vectors, got shape {arr.shape}")
        if ambient_dim is not None and arr.shape[1] != int(ambient_dim):
            raise DimensionMismatch(
                f"vectors have length {arr.shape[1]}, expected ambient_dim {ambient_dim}"
            )
        if arr.shape[1] < 1:
            raise DimensionMismatch("ambient_dim must be a positive integer")
        if not _all_finite(arr):
            raise DomainError("vector entries must be finite (no NaN or Inf)")
        arr = arr.copy()
        arr.flags.writeable = False
        self._vectors = arr
        self._label = str(label)

    @property
    def vectors(self) -> np.ndarray:
        """(count, ambient_dim) read-only array; row k is the k-th vector."""
        return self._vectors

    @property
    def ambient_dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def count(self) -> int:
        return self._vectors.shape[0]

    @property
    def label(self) -> str:
        return self._label

    def __len__(self):
        return self.count

    def __repr__(self):
        return f"VectorSystem(count={self.count}, ambient_dim={self.ambient_dim}, label={self._label!r})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "ambient_dim": self.ambient_dim,
            "vectors": _encode_pairs(self._vectors),
            "label": self._label,
        }

    @classmethod
    def from_json_dict(cls, data) -> "VectorSystem":
        vectors = _decode_pairs(_field(data, "vectors"), "vectors")
        raw = _field(data, "ambient_dim")
        try:
            dim = int(raw)
        except (TypeError, ValueError, OverflowError):
            dim = None
        if dim is None or (isinstance(raw, numbers.Real) and dim != raw):
            raise DomainError(f"ambient_dim must be an integer, got {raw!r}")
        return cls(vectors, ambient_dim=dim, label=data.get("label", ""))

    @classmethod
    def from_csv(cls, text: str, label="") -> "VectorSystem":
        rows = []
        for record in csv.reader(io.StringIO(text)):
            if not record:
                continue
            try:
                vals = [float(v) for v in record]
            except ValueError:
                raise DomainError(f"CSV entries must be numbers, got {record!r}") from None
            if len(vals) % 2:
                raise DimensionMismatch("CSV rows must have an even number of columns (re,im pairs)")
            rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
        if not rows:
            raise DomainError("cannot infer ambient_dim from an empty CSV")
        if len({len(row) for row in rows}) > 1:
            raise DimensionMismatch("CSV rows must all have the same number of columns")
        return cls(np.array(rows, dtype=complex), label=label)


def standard_basis(dim: int, label="standard basis") -> VectorSystem:
    return VectorSystem(np.eye(dim, dtype=complex), label=label)


def concat_systems(first: VectorSystem, second: VectorSystem, label="") -> VectorSystem:
    if first.ambient_dim != second.ambient_dim:
        raise DimensionMismatch("cannot concatenate systems of different ambient dimension")
    return VectorSystem(np.vstack([first.vectors, second.vectors]), label=label)


def random_system(rng, count: int, dim: int, scale: float = 1.0, label="random") -> VectorSystem:
    """Complex Gaussian family; entries scale/sqrt(2) * (N(0,1) + i N(0,1))."""
    _check_work(4 * count * dim, f"a random family of {count} vectors in dimension {dim}")
    arr = (rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim)))
    return VectorSystem(arr * (scale / np.sqrt(2)), ambient_dim=dim, label=label)


# -- operators --------------------------------------------------------------


def synthesis(system: VectorSystem, coefficients) -> np.ndarray:
    """Map coefficients {c_k} to sum_k c_k f_k."""
    c = np.asarray(coefficients, dtype=complex).reshape(-1)
    if c.shape[0] != system.count:
        raise DimensionMismatch(
            f"got {c.shape[0]} coefficients for a system of {system.count} vectors"
        )
    return system.vectors.T @ c


def analysis(system: VectorSystem, vector) -> np.ndarray:
    """Map a vector f to its coefficient sequence {<f, f_k>}.

    Inner products are linear in the first argument.  The adjoint identity
    <synthesis(c), f> = sum_k c_k conj(analysis(f)_k) holds to rounding.
    """
    f = np.asarray(vector, dtype=complex).reshape(-1)
    if f.shape[0] != system.ambient_dim:
        raise DimensionMismatch(
            f"vector has length {f.shape[0]}, ambient_dim is {system.ambient_dim}"
        )
    return system.vectors.conj() @ f


def frame_operator(system: VectorSystem) -> np.ndarray:
    """S = T T*, Hermitian PSD (symmetrized to kill rounding skew)."""
    V = system.vectors
    S = V.T @ V.conj()
    return (S + S.conj().T) / 2


def gram_matrix(system: VectorSystem) -> np.ndarray:
    """Gram G[j, k] = <f_k, f_j>, Hermitian PSD."""
    V = system.vectors
    G = V.conj() @ V.T
    return (G + G.conj().T) / 2


def _spectral_bounds(M: np.ndarray, rank_deficient: bool = False) -> FrameBounds:
    """Optimal bounds, the extreme eigenvalues of a Hermitian PSD matrix or a stack of
    them (Walnut blocks) clamped at 0; the lower bound is exactly 0.0 when counting
    proves the rank deficient, and an empty matrix has (0, 0)."""
    if M.size == 0:
        return FrameBounds(0.0, 0.0)
    ev = np.linalg.eigvalsh(M)
    lower = 0.0 if rank_deficient else max(float(ev.min()), 0.0)
    return FrameBounds(lower, max(float(ev.max()), 0.0))


def frame_bounds(system: VectorSystem, mode: str = "full_space") -> FrameBounds:
    """Optimal frame bounds: extreme eigenvalues of the frame operator.

    mode="full_space": lower may be 0 (lower frame condition fails there).
    mode="span": smallest nonzero eigenvalue, i.e. bounds of the system as a
    frame for its own closed span; nonzero cutoff is dim * eps * largest.
    """
    if mode not in ("full_space", "span"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "full_space":
        if system.count < system.ambient_dim:
            # rank <= count < dim, and S = T T* shares its nonzero spectrum
            # with the smaller Gram matrix T* T (empty for an empty system)
            return _spectral_bounds(gram_matrix(system), rank_deficient=True)
        return _spectral_bounds(frame_operator(system))
    if system.count == 0:
        raise DomainError("span bounds of an empty system are undefined")
    return _span_bounds(system, np.linalg.eigvalsh(frame_operator(system)))


def _span_bounds(system: VectorSystem, ev: np.ndarray) -> FrameBounds:
    """Span bounds from the ascending eigenvalues ev of S: the smallest one above
    the nonzero cutoff dim * eps * largest, and the largest."""
    upper = max(float(ev[-1]), 0.0)
    nonzero = ev[ev > system.ambient_dim * np.finfo(float).eps * upper]
    return FrameBounds(float(nonzero[0]) if nonzero.size else 0.0, upper)


def riesz_bounds(system: VectorSystem) -> FrameBounds:
    """Optimal Riesz-sequence bounds: extreme eigenvalues of the Gram matrix.

    lower == 0 signals linear dependence (not a Riesz sequence).
    """
    if system.count == 0:
        raise DomainError("Riesz bounds of an empty system are undefined")
    if system.count > system.ambient_dim:
        # more vectors than dimensions: dependent, and the Gram matrix T* T
        # shares its nonzero spectrum with the smaller frame operator T T*
        return _spectral_bounds(frame_operator(system), rank_deficient=True)
    return _spectral_bounds(gram_matrix(system))


def canonical_dual(system: VectorSystem, mode: str = "full_space", tolerance=None) -> VectorSystem:
    """The family {S^-1 f_k} (pseudo-inverse of S in mode="span").

    Requires the relevant lower bound to exceed the tolerance; reconstruction
    f = sum_k <f, S^-1 f_k> f_k then holds on the full space (resp. span).
    """
    tol = resolve_tolerance(tolerance)
    if mode == "span" and system.count:  # one eigensolve: the lower bound and the pseudo-inverse
        ev, Q = np.linalg.eigh(frame_operator(system))
        bounds = _span_bounds(system, ev)
    else:
        bounds = frame_bounds(system, mode)
    if bounds.lower <= tol:
        raise SingularSystemError(
            f"lower bound {bounds.lower:.3e} is below tolerance {tol:.1e}; "
            "the canonical dual is not defined"
        )
    if mode == "full_space":
        duals = np.linalg.solve(frame_operator(system), system.vectors.T).T
    else:
        nonzero = ev >= bounds.lower  # ev ascends: the eigenvalues above the cutoff
        inv = np.where(nonzero, 1.0 / np.where(nonzero, ev, 1.0), 0.0)
        pinv = (Q * inv) @ Q.conj().T
        duals = (pinv @ system.vectors.T).T
    return VectorSystem(duals, label=f"canonical dual of {system.label}" if system.label else "canonical dual")


def mixed_frame_matrix(f_system: VectorSystem, g_system: VectorSystem) -> np.ndarray:
    """Matrix of U T*: x -> sum_i <x, f_i> g_i."""
    if f_system.ambient_dim != g_system.ambient_dim or f_system.count != g_system.count:
        raise DimensionMismatch("families must have equal counts and ambient dimensions")
    return g_system.vectors.T @ f_system.vectors.conj()


def _operator_norm(M: np.ndarray) -> np.ndarray:
    """Largest singular value of a matrix, or of each of a stack: the bits of np.linalg.norm(M, 2)."""
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def duality_check(f_system: VectorSystem, g_system: VectorSystem, tolerance=None) -> AnalysisReport:
    """Do the two families satisfy f = sum_k <f, f_k> g_k for all f?

    Residual is the operator 2-norm of (I - U T*), with T, U the synthesis
    operators of f_system and g_system.
    """
    tol = resolve_tolerance(tolerance)
    residual = float(_operator_norm(np.eye(f_system.ambient_dim) - mixed_frame_matrix(f_system, g_system)))
    return AnalysisReport.from_residuals(
        {"duality": residual}, tol,
        notes="operator-norm distance of the mixed frame operator from the identity",
    )


def cross_gram(f_system: VectorSystem, g_system: VectorSystem) -> np.ndarray:
    """Matrix M[j, k] = <f_j, g_k> between two families."""
    if f_system.ambient_dim != g_system.ambient_dim:
        raise DimensionMismatch("cross Gram needs equal ambient dimensions")
    return f_system.vectors @ g_system.vectors.conj().T


def biorthogonality_residual(f_system: VectorSystem, g_system: VectorSystem) -> float:
    """max entrywise |<f_j, g_k> - delta_jk| (counts must match)."""
    if f_system.count != g_system.count:
        raise DimensionMismatch("biorthogonality needs equally long families")
    if f_system.ambient_dim != g_system.ambient_dim:
        raise DimensionMismatch("cross Gram needs equal ambient dimensions")
    F, H = f_system.vectors, g_system.vectors.conj().T
    worst = 0.0
    # 64 rows of the cross Gram at a time: 256 KB for a dim-256 basis
    # instead of its whole 1 MB Gram
    for i in range(0, F.shape[0], 64):
        M = F[i:i + 64] @ H
        M[np.arange(M.shape[0]), i + np.arange(M.shape[0])] -= 1.0
        worst = max(worst, float(np.abs(M).max()))
    return worst


def _equivalence_report(duality: float, bio: float, tol: float,
                        theorem: str, first: str, second: str) -> AnalysisReport:
    """Verdict on "dual pair iff biorthogonal" (theorem, with sides first and
    second): pass when both residuals are within tol or both are above it."""
    dual_pass, bio_pass = duality <= tol, bio <= tol
    return AnalysisReport.from_residuals(
        {"verdict_disagreement": 0.0 if dual_pass == bio_pass else 1.0}, tol,
        notes=(f"{theorem}; {first} {'passed' if dual_pass else 'failed'}, "
               f"{second} {'passed' if bio_pass else 'failed'}"),
        details={"duality_residual": duality, "biorthogonality_residual": bio},
    )
