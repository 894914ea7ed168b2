"""Constructive extension of two Bessel families to a dual-frame pair.

With T, U the synthesis operators of the given families f and g, and (a, b)
any dual pair, appending p_j = (I - U T*)* a_j to f and q_j = b_j to g
makes the two unions a dual pair: for every vector x,

    x = U T* x + (I - U T*) x
      = sum_i <x, f_i> g_i + sum_j <x, (I - U T*)* a_j> b_j.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AnalysisReport,
    DimensionMismatch,
    DomainError,
    VectorSystem,
    concat_systems,
    duality_check,
    frame_bounds,
    resolve_tolerance,
)


def mixed_frame_matrix(f_system: VectorSystem, g_system: VectorSystem) -> np.ndarray:
    """Matrix of U T*: x -> sum_i <x, f_i> g_i."""
    if f_system.ambient_dim != g_system.ambient_dim or f_system.count != g_system.count:
        raise DimensionMismatch("families must have equal counts and ambient dimensions")
    return g_system.vectors.T @ f_system.vectors.conj()


def extend_to_dual_pair(f_system: VectorSystem, g_system: VectorSystem,
                        a_system: VectorSystem = None, b_system: VectorSystem = None,
                        tolerance=None, prune_zero: bool = False):
    """Return (p, q) such that (f + p, g + q) is a dual pair.

    The auxiliary pair (a, b) defaults to two copies of the standard basis,
    which keeps the bounds of the extension as small as possible; a supplied
    pair must pass the dual-pair check.  p_j vectors that collapse to zero
    (this happens exactly when (f, g) is already dual) are kept so that the
    output lengths match a; pass prune_zero=True to drop them and their
    partners.
    """
    tol = resolve_tolerance(tolerance)
    dim = f_system.ambient_dim
    Phi = np.eye(dim) - mixed_frame_matrix(f_system, g_system)
    if a_system is None and b_system is None:
        # with a_j = e_j, p_j = Phi* e_j is row j of conj(Phi); adding 0.0
        # turns the -0.0 that conj gives real entries into 0.0
        p_rows = Phi.conj() + 0.0
        q_rows = np.eye(dim, dtype=complex)
    else:
        if a_system is None or b_system is None:
            raise DomainError("supply both auxiliary families or neither")
        if a_system.ambient_dim != dim or b_system.ambient_dim != dim:
            raise DimensionMismatch("auxiliary pair lives in the wrong ambient dimension")
        aux = duality_check(a_system, b_system, tol)
        if not aux.passed:
            raise DomainError(
                f"auxiliary pair is not dual (residual {aux.residuals['duality']:.3e} > {tol:.1e})"
            )
        p_rows = (Phi.conj().T @ a_system.vectors.T).T
        q_rows = b_system.vectors.copy()
    if prune_zero:
        keep = np.linalg.norm(p_rows, axis=1) > tol
        p_rows = p_rows[keep]
        q_rows = q_rows[keep]
    return (
        VectorSystem(p_rows, ambient_dim=dim, label="extension p"),
        VectorSystem(q_rows, ambient_dim=dim, label="extension q"),
    )


def verify_extension(f_system: VectorSystem, g_system: VectorSystem,
                     p_system: VectorSystem, q_system: VectorSystem,
                     tolerance=None) -> AnalysisReport:
    """Dual-pair residual of (f + p, g + q), with the union bounds reported.

    A residual below 1 already forces both unions to be frames; their lower
    bounds are attached as details.
    """
    tol = resolve_tolerance(tolerance)
    fu = concat_systems(f_system, p_system, label="f+p")
    gu = concat_systems(g_system, q_system, label="g+q")
    direct = duality_check(fu, gu, tol)
    fb = frame_bounds(fu)
    gb = frame_bounds(gu)
    return AnalysisReport.from_residuals(
        direct.residuals, tol,
        notes="dual-pair residual of the extended families",
        details={
            "f_union_lower": fb.lower, "f_union_upper": fb.upper,
            "g_union_lower": gb.lower, "g_union_upper": gb.upper,
        },
    )
