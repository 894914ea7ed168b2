"""R-dual transform across a pair of orthonormal bases.

Given orthonormal bases {e_j} and {h_i} of C^N and a family {f_i} with
exactly N members, the R-dual is omega_j = sum_i <f_i, e_j> h_i.  The
transform is an involution (with the bases swapped), transfers optimal
frame bounds of {f_i} to optimal Riesz bounds of {omega_j}, and turns
dual-frame relations into biorthogonality of the transformed families.

The finite model forces the index count to equal dim H, so the "frame"
cases here are exactly the Riesz bases.  Genuinely redundant scenarios,
where the transformed family spans a proper subspace W, survive only in
``n_sequence``: there omega may have fewer members than N and f is plain
data, and the tight-frame-for-W criterion is evaluated on W itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AnalysisReport,
    DimensionMismatch,
    DomainError,
    FrameBounds,
    SingularSystemError,
    VectorSystem,
    _bound_gaps,
    _equivalence_report,
    biorthogonality_residual,
    cross_gram,
    duality_check,
    frame_bounds,
    gram_matrix,
    resolve_tolerance,
    riesz_bounds,
)

ORTHONORMALITY_TOL = 1e-10


class OrthonormalPair:
    """Two orthonormal bases of the same C^N, validated at construction."""

    def __init__(self, e_basis: VectorSystem, h_basis: VectorSystem):
        if e_basis.ambient_dim != h_basis.ambient_dim:
            raise DimensionMismatch("bases live in different ambient dimensions")
        dim = e_basis.ambient_dim
        for name, basis in (("e", e_basis), ("h", h_basis)):
            if basis.count != dim:
                raise DimensionMismatch(f"{name}-basis has {basis.count} vectors, needs {dim}")
            res = biorthogonality_residual(basis, basis)
            if res > ORTHONORMALITY_TOL:
                raise DomainError(f"{name}-basis is not orthonormal (residual {res:.3e})")
        self.e_basis = e_basis
        self.h_basis = h_basis

    @property
    def dim(self) -> int:
        return self.e_basis.ambient_dim

    def swapped(self) -> "OrthonormalPair":
        """The pair with the bases exchanged; both were validated at construction."""
        pair = object.__new__(OrthonormalPair)
        pair.e_basis, pair.h_basis = self.h_basis, self.e_basis
        return pair

    @classmethod
    def standard(cls, dim: int) -> "OrthonormalPair":
        eye = np.eye(dim, dtype=complex)
        return cls(VectorSystem(eye, label="e"), VectorSystem(eye, label="h"))

    @classmethod
    def random(cls, rng, dim: int) -> "OrthonormalPair":
        def unitary():
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, r = np.linalg.qr(z)
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        return cls(VectorSystem(unitary().T, label="e"), VectorSystem(unitary().T, label="h"))


@dataclass(frozen=True)
class RDualReport:
    """Bound transfer and involution data for one family and one basis pair.

    bound_gap is the largest relative deviation between the frame bounds of
    f and the Riesz bounds of its R-dual.
    """

    frame_f: FrameBounds
    riesz_omega: FrameBounds
    involution_residual: float
    bound_gap: float

    def passes(self, tolerance: float) -> bool:
        return self.bound_gap <= tolerance and self.involution_residual <= tolerance


@dataclass(frozen=True)
class NSequence:
    """Candidate tight system n_i on the span W of a Riesz sequence."""

    vectors: VectorSystem
    tight_bound_estimate: FrameBounds
    report: AnalysisReport


def r_dual(f_system: VectorSystem, pair: OrthonormalPair) -> VectorSystem:
    """omega_j = sum_i <f_i, e_j> h_i for j = 1..N."""
    N = pair.dim
    if f_system.ambient_dim != N:
        raise DimensionMismatch("family and bases have different ambient dimensions")
    if f_system.count != N:
        raise DomainError(
            f"the finite model needs exactly N = dim H = {N} family members "
            f"(got {f_system.count}); an index set larger or smaller than an "
            "orthonormal basis index set has no finite-dimensional realization"
        )
    omega = cross_gram(f_system, pair.e_basis).T @ pair.h_basis.vectors  # <f_i, e_j> at [j, i]
    return VectorSystem(omega, label=f"r-dual of {f_system.label}" if f_system.label else "r-dual")


def verify_rdual_theorem(f_system: VectorSystem, pair: OrthonormalPair) -> RDualReport:
    """Bound transfer: frame bounds of f equal Riesz bounds of its R-dual.

    The upper (Bessel) bounds agree even when the family is singular; the
    involution residual compares f with the R-dual of its R-dual taken
    across the swapped bases.
    """
    omega = r_dual(f_system, pair)
    fb = frame_bounds(f_system, "full_space")
    rb = riesz_bounds(omega)
    back = r_dual(omega, pair.swapped())
    involution = float(np.abs(back.vectors - f_system.vectors).max())
    return RDualReport(
        frame_f=fb,
        riesz_omega=rb,
        involution_residual=involution,
        bound_gap=max(_bound_gaps(fb, rb, 1e-10).values()),
    )


def verify_dual_pair_biorthogonality(f_system: VectorSystem, g_system: VectorSystem,
                                     pair: OrthonormalPair, tolerance=None) -> AnalysisReport:
    """Dual frames if and only if the R-duals are biorthogonal.

    The verdict is on the equivalence: pass when the direct dual-pair check
    and the biorthogonality of the two R-duals agree (both hold or both
    fail); the raw residuals are reported in the details.
    """
    tol = resolve_tolerance(tolerance)
    direct = duality_check(f_system, g_system, tol)
    bio = biorthogonality_residual(r_dual(f_system, pair), r_dual(g_system, pair))
    return _equivalence_report(
        direct.residuals["duality"], bio, tol,
        "equivalence of the dual-pair identity and R-dual biorthogonality",
        "direct check", "biorthogonality")


def n_sequence(f_system: VectorSystem, omega_system: VectorSystem,
               pair: OrthonormalPair, tolerance=None) -> NSequence:
    """n_i = sum_k <e_k, f_i> omega~_k with omega~ the dual Riesz sequence in W.

    W is the span of omega; the dual sequence comes from Gram inversion, and
    the bounds of {n_i} as a frame for W are computed in an orthonormal
    coordinate system of W.  The report judges tightness with bound 1, the
    criterion for omega being an R-dual of f with respect to e and some h.
    """
    tol = resolve_tolerance(tolerance)
    N = pair.dim
    if f_system.count != N:
        raise DimensionMismatch(f"f must have exactly N = {N} members")
    if omega_system.ambient_dim != N:
        raise DimensionMismatch("omega lives in the wrong ambient dimension")
    M = omega_system.count
    if M == 0 or M > N:
        raise DomainError("omega must have between 1 and N members")
    rb = riesz_bounds(omega_system)
    if rb.lower <= tol:
        raise SingularSystemError(
            f"omega is not a Riesz sequence at tolerance {tol:.1e} (lower bound {rb.lower:.3e})"
        )
    G = gram_matrix(omega_system)
    dual_rows = np.linalg.solve(G.T, omega_system.vectors)

    n_rows = cross_gram(f_system, pair.e_basis).conj()[:, :M] @ dual_rows  # <e_k, f_i> at [i, k]

    # orthonormal coordinates of W from the right singular vectors of omega
    _, _, Wh = np.linalg.svd(omega_system.vectors, full_matrices=False)
    coords = VectorSystem(n_rows @ Wh.conj().T, label="n-sequence coordinates on W")
    bounds = frame_bounds(coords, "full_space")
    report = AnalysisReport.from_residuals(
        {"lower_minus_one": abs(bounds.lower - 1.0), "upper_minus_one": abs(bounds.upper - 1.0)},
        tol,
        notes="tight frame for W with bound 1 iff both residuals vanish",
        details={"lower": bounds.lower, "upper": bounds.upper, "subspace_dim": float(M)},
    )
    return NSequence(
        vectors=VectorSystem(n_rows, label="n-sequence"),
        tight_bound_estimate=bounds,
        report=report,
    )
