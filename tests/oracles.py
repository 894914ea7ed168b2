"""Independent oracles shared by several test modules."""

import numpy as np

from framelab.gabor import finite_gabor_system


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
