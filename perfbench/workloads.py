"""Workload definitions: seeded inputs, the program calls, and their gates.

A workload is a list of chains.  A chain is a short list of ops run in
order; an op may build its arguments from the result of the op before it
in the same chain (a canonical dual window feeding a Wexler-Raz check, an
extension feeding its verification).  Every op is one call to a public
framelab function, and every op carries a gate: a check of its result that
must hold for the op to count as verified.

Gates are computed here, without the program's own code paths wherever the
property can be checked independently (lattice reconstruction by FFT,
reconstruction of vector families on random probes, soundness of
certificates against the density bound a*b <= 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from framelab import bspline, core, dilation, exponentials, extension, gabor, rdual

MODULES = {
    "core": core,
    "rdual": rdual,
    "extension": extension,
    "gabor": gabor,
    "dilation": dilation,
    "bspline": bspline,
    "exponentials": exponentials,
}

#: relative reconstruction error allowed on random probes
PROBE_TOL = 1e-8


@dataclass
class Op:
    """One call framelab.<layer>.<name>(*args, **kwargs) and its gate.

    prepare(ctx) returns the positional arguments when they depend on an
    earlier op of the chain (ctx["prev"] is the last result); check(result,
    ctx) returns True when the result is verified.
    """

    layer: str
    name: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    check: Callable = lambda result, ctx: True
    prepare: Optional[Callable] = None

    @property
    def kind(self) -> str:
        return f"{self.layer}.{self.name}"


# -- independent oracles -------------------------------------------------------


def _lattice_rows(w, a):
    """Rows w((t - n a) mod L) for n = 0 .. L/a - 1."""
    L = w.shape[0]
    idx = (np.arange(L)[None, :] - a * np.arange(L // a)[:, None]) % L
    return w[idx]


def lattice_mixed_apply(g, h, a, b, x):
    """sum_{n,m} <x, M_mb T_na g> M_mb T_na h, by FFT along each time shift."""
    L = g.shape[0]
    G = _lattice_rows(np.asarray(g), a)
    H = _lattice_rows(np.asarray(h), a)
    coeff = np.fft.fft(x[None, :] * G.conj(), axis=1)[:, ::b]
    spread = np.zeros(G.shape, dtype=complex)
    spread[:, ::b] = coeff
    return (H * (np.fft.ifft(spread, axis=1) * L)).sum(axis=0)


def _probe_residual(apply, probes):
    return max(float(np.linalg.norm(apply(x) - x) / np.linalg.norm(x)) for x in probes)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _passed(report, ctx):
    return report.passed


def _lattice_lower_bound(w, a, b):
    """Optimal lower frame bound of the lattice system of w, from its dense synthesis matrix."""
    L = w.shape[0]
    if (L // a) * (L // b) < L:
        return 0.0
    shifts = _lattice_rows(w, a)
    waves = np.exp(2j * np.pi * np.outer(np.arange(0, L, b), np.arange(L)) / L)
    system = (waves[None, :, :] * shifts[:, None, :]).reshape(-1, L)
    return float(np.linalg.svd(system, compute_uv=False)[-1] ** 2)


# -- lattice_large --------------------------------------------------------------

LARGE_LATTICES = ((128, 4, 8), (128, 8, 8), (256, 8, 8), (256, 8, 16), (512, 8, 8), (512, 8, 16))
COMMUTE_LATTICES = ((48, 4, 4), (48, 4, 8), (48, 8, 4), (64, 4, 4), (64, 4, 8), (64, 8, 4))
#: ambient dimensions of the vector families run through the extension and
#: R-dual theorems; each extended pair has dim/2 members
FAMILY_DIMS = (128, 192, 256)


def _extension_check(f, g, probes):
    def check(result, ctx):
        p, q = result
        def apply(x):
            return (g.vectors.T @ (f.vectors.conj() @ x)
                    + q.vectors.T @ (p.vectors.conj() @ x))
        return _probe_residual(apply, probes) <= PROBE_TOL
    return check


def _unitary(rng, dim):
    q, r = np.linalg.qr(_complex(rng, dim, dim))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _rdual_check(f):
    scale = max(1.0, float(np.abs(f.vectors).max()))

    def check(rep, ctx):
        return rep.involution_residual <= 1e-12 * scale and rep.bound_gap <= 1e-10
    return check


def _dual_window_check(w, a, b, probes):
    def check(dual, ctx):
        return _probe_residual(lambda x: lattice_mixed_apply(w, dual, a, b, x), probes) <= PROBE_TOL
    return check


def _gabor_extension_check(g1, h1, a, b, probes):
    def check(result, ctx):
        g2, h2 = result
        def apply(x):
            return lattice_mixed_apply(g1, h1, a, b, x) + lattice_mixed_apply(g2, h2, a, b, x)
        return _probe_residual(apply, probes) <= PROBE_TOL
    return check


def _with_dual(spec):
    return lambda ctx: (spec, gabor.GaborSpec(spec.L, spec.a, spec.b, ctx["prev"]))


def _wexler_raz_dual_check(report, ctx):
    return report.passed and report.details["duality_residual"] <= 1e-10


def _family_chains(rng, dim):
    """A pair of dim/2-member families extended to dual frames, and an R-dual check."""
    f = core.VectorSystem(_complex(rng, dim // 2, dim) / math.sqrt(2))
    g = core.VectorSystem(_complex(rng, dim // 2, dim) / math.sqrt(2))
    probes = [_complex(rng, dim) for _ in range(3)]
    square = core.VectorSystem(_complex(rng, dim, dim) / math.sqrt(2))
    pair = rdual.OrthonormalPair(core.VectorSystem(_unitary(rng, dim).T),
                                 core.VectorSystem(_unitary(rng, dim).T))
    return [
        [Op("extension", "extend_to_dual_pair", (f, g), check=_extension_check(f, g, probes)),
         Op("extension", "verify_extension",
            prepare=lambda ctx: (f, g) + tuple(ctx["prev"]),
            check=lambda rep, ctx: rep.passed and rep.residuals["duality"] <= 1e-10)],
        [Op("rdual", "verify_rdual_theorem", (square, pair), check=_rdual_check(square))],
    ]


def lattice_large(rng, reduced=False):
    lattices = LARGE_LATTICES[:2] if reduced else LARGE_LATTICES
    commute = COMMUTE_LATTICES[:1] if reduced else COMMUTE_LATTICES
    chains = []
    for L, a, b in lattices:
        w, other = _complex(rng, L), _complex(rng, L)
        spec = gabor.GaborSpec(L, a, b, w)
        probes = [_complex(rng, L) for _ in range(3)]
        chains.append([
            Op("gabor", "duality_principle_check", (spec,), {"tolerance": 1e-10}, check=_passed),
            Op("gabor", "extend_gabor_windows", (spec, gabor.GaborSpec(L, a, b, other)),
               check=_gabor_extension_check(w, other, a, b, probes)),
        ])
        chains.append([
            Op("gabor", "canonical_dual_window", (spec,), check=_dual_window_check(w, a, b, probes)),
            Op("gabor", "wexler_raz_check", prepare=_with_dual(spec),
               check=_wexler_raz_dual_check),
        ])
    for L, a, b in commute:
        spec = gabor.GaborSpec(L, a, b, _complex(rng, L))
        chains.append([Op("gabor", "frame_operator_commutation_check", (spec,),
                          {"tolerance": 1e-10}, check=_passed)])
    for dim in FAMILY_DIMS[:1] if reduced else FAMILY_DIMS:
        chains.extend(_family_chains(rng, dim))
    return chains


# -- lattice_small --------------------------------------------------------------

SMALL_LENGTHS = (4, 6, 8, 12, 16, 24)
SMALL_WINDOWS = 3
#: vector families through the extension and R-dual theorems; the ambient
#: dimension cycles through 2 .. 32 so every seed gets the same sizes
SMALL_FAMILIES = 200
SMALL_DIMS = range(2, 33)


def lattice_small(rng, reduced=False):
    chains = []
    for L in SMALL_LENGTHS[:3] if reduced else SMALL_LENGTHS:
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for a in divisors:
            for b in divisors:
                windows = [_complex(rng, L) for _ in range(SMALL_WINDOWS)]
                specs = [gabor.GaborSpec(L, a, b, w) for w in windows]
                for i, spec in enumerate(specs):
                    chains.append([Op("gabor", "duality_principle_check", (spec,),
                                      {"tolerance": 1e-10}, check=_passed)])
                    chains.append([Op("gabor", "wexler_raz_check",
                                      (spec, specs[(i + 1) % len(specs)]), check=_passed)])
                frames = [spec for spec, w in zip(specs, windows)
                          if _lattice_lower_bound(w, a, b) > 1e-6]
                if frames:
                    chains.append([Op("gabor", "frame_operator_commutation_check", (frames[0],),
                                      {"tolerance": 1e-10}, check=_passed)])
    for k in range(SMALL_FAMILIES // 10 if reduced else SMALL_FAMILIES):
        dim = SMALL_DIMS[k % len(SMALL_DIMS)]
        chains.extend(_family_chains(rng, dim))
    return chains


# -- scan_decay -----------------------------------------------------------------

SCAN_ORDERS = (2, 3, 4, 5)
SCAN_A = tuple(0.25 * k for k in range(1, 8))                  # 0.25 .. 1.75
SCAN_B = tuple(round(0.10 + 0.05 * k, 2) for k in range(8))    # 0.10 .. 0.45
#: beyond the acceptance grid: the sufficient condition gives out and the
#: cells fall through to finite-section estimates
SCAN_B_EXTRA = (1.0,)
PROPERTY_ORDERS = range(2, 11)
DUAL_WINDOWS = ((2, 0.25), (2, 1.0 / 3.0), (3, 0.2))
DECAY_ORDERS = range(2, 31)
DECAY_DPS = 60
WAVE_PACKET_INSTANCES = 4


def _cell_check(N, a, b):
    def check(cell, ctx):
        if cell.status == bspline.STATUS_FRAME:
            # a certificate must be positive and may never claim a frame
            # above the density bound a*b <= 1
            ok = cell.bounds_estimate.lower > 0 and a * b <= 1 + 1e-12
        else:
            # the order-2 acceptance region must be certified
            ok = not (N == 2 and b in SCAN_B)
        return ok and cell.bounds_estimate.lower <= cell.bounds_estimate.upper
    return check


def _decay_check(N):
    def check(lower, ctx):
        last = ctx.get("decay_last")
        ctx["decay_last"] = lower
        crude = exponentials.crude_bound(N, 0.5).value
        return (last is None or lower < last) and crude <= lower
    return check


def _zero_fails(report, ctx):
    return (not report.passed) and report.residuals["scaling_sum"] == 1.0


def _random_band_function(rng, P):
    vals = rng.uniform(0.1, 1.0, P) * np.exp(2j * np.pi * rng.uniform(0, 1, P))
    return vals, dilation.FreqFunction(0.0, 1.0 / P, vals, (0.0, 1.0))


def _spectrum_of_packets(vals, offsets, centers):
    """Dense spectral oracle of the offset wave-packet system on a grid."""
    P = vals.shape[0]
    rows = []
    for c in offsets:
        u = centers - c
        cell = np.floor(u * P).astype(int)
        inside = (cell >= 0) & (cell < P)
        gu = np.where(inside, vals[np.clip(cell, 0, P - 1)], 0.0)
        for k in range(P):
            rows.append(np.exp(-2j * np.pi * k * centers) * gu)
    V = np.array(rows) / math.sqrt(P)
    ev = np.linalg.eigvalsh(V.T @ V.conj())
    return ev[0], ev[-1]


def _packet_bounds_check(lo, hi):
    def check(result, ctx):
        bounds = result[0]
        return bounds.upper >= hi - 1e-6 and (bounds.lower <= 0 or bounds.lower <= lo + 1e-6)
    return check


def _packet_bessel_check(hi):
    return lambda result, ctx: result[0] >= hi - 1e-6


def scan_decay(rng, reduced=False):
    orders = SCAN_ORDERS[:2] if reduced else SCAN_ORDERS
    chains = []
    for N in orders:
        for a in SCAN_A:
            for b in SCAN_B + SCAN_B_EXTRA:
                chains.append([Op("bspline", "classify_cell", (N, a, b),
                                  check=_cell_check(N, a, b))])
    for N in (PROPERTY_ORDERS[:3] if reduced else PROPERTY_ORDERS):
        chains.append([Op("bspline", "property_suite", (N,), check=_passed)])
    for N, b in DUAL_WINDOWS:
        chains.append([Op("bspline", "dual_window_solve", (N, b), {"tolerance": 1e-8},
                          check=lambda result, ctx: result[1].passed)])
    psi = dilation.shannon_wavelet()
    zero = dilation.FreqFunction(psi.start, psi.step, np.zeros(psi.count), psi.band)
    chains.append([
        Op("dilation", "wavelet_duality_check", (psi, psi), {"b": 1.0},
           check=lambda rep, ctx: rep.passed and max(rep.residuals.values()) <= 1e-12),
        Op("dilation", "wavelet_duality_check", (psi, zero), {"b": 1.0}, check=_zero_fails),
        Op("dilation", "wave_packet_duality_check", (psi, psi),
           {"a": 2, "b": 1.0, "c_values": [0.0]}, check=_passed),
    ])
    P = 64
    for _ in range(WAVE_PACKET_INSTANCES):
        vals, g = _random_band_function(rng, P)
        offsets = list(range(int(rng.integers(3, 6))))
        grid = dilation.WavePacketGrid(a_values=[1.0], b=1.0, c_values=offsets)
        centers = (np.arange(len(offsets) * P) + 0.5) / P + min(offsets)
        lo, hi = _spectrum_of_packets(vals, offsets, centers)
        chains.append([
            Op("dilation", "wave_packet_frame_bounds", (g, grid), {"gamma_grid": centers},
               check=_packet_bounds_check(lo, hi)),
            Op("dilation", "wave_packet_bessel_bound", (g, grid), {"gamma_grid": centers},
               check=_packet_bessel_check(hi)),
        ])
    decay = [Op("exponentials", "lower_bound", (exponentials.half_integer_lambdas(N),),
                {"dps": DECAY_DPS}, check=_decay_check(N))
             for N in (DECAY_ORDERS[:6] if reduced else DECAY_ORDERS)]
    chains.append(decay)
    return chains


WORKLOADS = {
    "lattice_small": lattice_small,
    "lattice_large": lattice_large,
    "scan_decay": scan_decay,
}
