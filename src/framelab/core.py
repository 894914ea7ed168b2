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
import os
from dataclasses import dataclass, field

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


def _field(data, key):
    """data[key] of a decoded JSON object; a missing field raises DomainError."""
    try:
        return data[key]
    except (KeyError, TypeError, IndexError):
        raise DomainError(f"input has no {key!r} field") from None


def _all_finite(values) -> bool:
    """No NaN or Inf in a complex array (its float64 view is the faster test)."""
    return bool(np.isfinite(np.ascontiguousarray(values, dtype=complex).view(np.float64)).all())


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


def relative_gap(x: float, y: float, floor: float = 0.0) -> float:
    """|x - y| scaled by max(|x|, |y|, floor).

    The floor keeps rounding-level quantities (e.g. two numerically zero
    eigenvalues) from producing spurious O(1) relative errors.
    """
    denom = max(abs(x), abs(y), floor)
    if denom == 0.0:
        return 0.0
    return abs(x - y) / denom


#: absolute resolution of dense Hermitian eigensolvers, as a fraction of the
#: spectral scale; quantities closer than this cannot be distinguished
SPECTRAL_ATOL = 1e-11


def bound_agreement_residual(x: float, y: float, scale: float, tolerance: float) -> float:
    """Relative gap between two spectral quantities of common scale.

    residual <= tolerance is equivalent to
    |x - y| <= max(tolerance * max(|x|, |y|), SPECTRAL_ATOL * scale),
    i.e. per-value relative agreement with an absolute floor at the
    eigensolver's resolution.
    """
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    return relative_gap(x, y, floor=SPECTRAL_ATOL * scale / tolerance)


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

    def to_dict(self):
        return {"lower": self.lower, "upper": self.upper}


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

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "residuals": dict(self.residuals),
            "tolerance_used": self.tolerance_used,
            "notes": self.notes,
            "details": dict(self.details),
        }


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

    def with_label(self, label: str) -> "VectorSystem":
        return VectorSystem(self._vectors, label=label)

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
        try:
            dim = int(_field(data, "ambient_dim"))
        except (TypeError, ValueError):
            raise DomainError(f"ambient_dim must be an integer, got {data['ambient_dim']!r}") from None
        return cls(vectors, ambient_dim=dim, label=data.get("label", ""))

    def to_csv(self) -> str:
        """One row per vector, columns interleaved re,im,re,im,..."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self._vectors:
            flat = []
            for z in row:
                flat.extend((repr(float(z.real)), repr(float(z.imag))))
            writer.writerow(flat)
        return buf.getvalue()

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
        return cls(np.array(rows, dtype=complex), label=label)


def standard_basis(dim: int, label="standard basis") -> VectorSystem:
    return VectorSystem(np.eye(dim, dtype=complex), label=label)


def concat_systems(first: VectorSystem, second: VectorSystem, label="") -> VectorSystem:
    if first.ambient_dim != second.ambient_dim:
        raise DimensionMismatch("cannot concatenate systems of different ambient dimension")
    return VectorSystem(np.vstack([first.vectors, second.vectors]), label=label)


def random_system(rng, count: int, dim: int, scale: float = 1.0, label="random") -> VectorSystem:
    """Complex Gaussian family; entries scale/sqrt(2) * (N(0,1) + i N(0,1))."""
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


def synthesis_matrix(system: VectorSystem) -> np.ndarray:
    """(dim, count) matrix of the synthesis operator."""
    return system.vectors.T.copy()


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


def _hermitian_extremes(M: np.ndarray):
    if M.shape[0] == 0:
        return 0.0, 0.0
    ev = np.linalg.eigvalsh(M)
    return float(ev[0]), float(ev[-1])


def frame_bounds(system: VectorSystem, mode: str = "full_space") -> FrameBounds:
    """Optimal frame bounds: extreme eigenvalues of the frame operator.

    mode="full_space": lower may be 0 (lower frame condition fails there).
    mode="span": smallest nonzero eigenvalue, i.e. bounds of the system as a
    frame for its own closed span; nonzero cutoff is dim * eps * largest.
    """
    if mode not in ("full_space", "span"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "span" and system.count == 0:
        raise DomainError("span bounds of an empty system are undefined")
    if system.count == 0:
        return FrameBounds(0.0, 0.0)
    if mode == "full_space" and system.count < system.ambient_dim:
        # rank <= count < dim, and S = T T* shares its nonzero spectrum with
        # the smaller Gram matrix T* T
        return FrameBounds(0.0, max(_hermitian_extremes(gram_matrix(system))[1], 0.0))
    ev = np.linalg.eigvalsh(frame_operator(system))
    upper = max(float(ev[-1]), 0.0)
    if mode == "full_space":
        return FrameBounds(max(float(ev[0]), 0.0), upper)
    cutoff = system.ambient_dim * np.finfo(float).eps * upper
    nonzero = ev[ev > cutoff]
    lower = float(nonzero[0]) if nonzero.size else 0.0
    return FrameBounds(lower, upper)


def riesz_bounds(system: VectorSystem) -> FrameBounds:
    """Optimal Riesz-sequence bounds: extreme eigenvalues of the Gram matrix.

    lower == 0 signals linear dependence (not a Riesz sequence).
    """
    if system.count == 0:
        raise DomainError("Riesz bounds of an empty system are undefined")
    if system.count > system.ambient_dim:
        # more vectors than dimensions: dependent, and the Gram matrix T* T
        # shares its nonzero spectrum with the smaller frame operator T T*
        return FrameBounds(0.0, max(_hermitian_extremes(frame_operator(system))[1], 0.0))
    lo, hi = _hermitian_extremes(gram_matrix(system))
    return FrameBounds(max(lo, 0.0), max(hi, 0.0))


def canonical_dual(system: VectorSystem, mode: str = "full_space", tolerance=None) -> VectorSystem:
    """The family {S^-1 f_k} (pseudo-inverse of S in mode="span").

    Requires the relevant lower bound to exceed the tolerance; reconstruction
    f = sum_k <f, S^-1 f_k> f_k then holds on the full space (resp. span).
    """
    tol = resolve_tolerance(tolerance)
    bounds = frame_bounds(system, mode)
    if bounds.lower <= tol:
        raise SingularSystemError(
            f"lower bound {bounds.lower:.3e} is below tolerance {tol:.1e}; "
            "the canonical dual is not defined"
        )
    S = frame_operator(system)
    if mode == "full_space":
        duals = np.linalg.solve(S, system.vectors.T).T
    else:
        ev, Q = np.linalg.eigh(S)
        cutoff = system.ambient_dim * np.finfo(float).eps * max(ev[-1], 0.0)
        inv = np.where(ev > cutoff, 1.0 / np.where(ev > cutoff, ev, 1.0), 0.0)
        pinv = (Q * inv) @ Q.conj().T
        duals = (pinv @ system.vectors.T).T
    return VectorSystem(duals, label=f"canonical dual of {system.label}" if system.label else "canonical dual")


def duality_check(f_system: VectorSystem, g_system: VectorSystem, tolerance=None) -> AnalysisReport:
    """Do the two families satisfy f = sum_k <f, f_k> g_k for all f?

    Residual is the operator 2-norm of (I - U T*), with T, U the synthesis
    operators of f_system and g_system.
    """
    tol = resolve_tolerance(tolerance)
    if f_system.ambient_dim != g_system.ambient_dim or f_system.count != g_system.count:
        raise DimensionMismatch("dual-pair check needs equal counts and ambient dimensions")
    d = f_system.ambient_dim
    UTs = g_system.vectors.T @ f_system.vectors.conj()
    residual = float(np.linalg.norm(np.eye(d) - UTs, 2))
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
    M = cross_gram(f_system, g_system)
    return float(np.abs(M - np.eye(f_system.count)).max())


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
