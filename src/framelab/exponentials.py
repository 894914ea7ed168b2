"""Finite systems of complex exponentials on (-pi, pi).

The Gram matrix has the closed form G[j, k] = 2 sin(pi (l_j - l_k)) /
(l_j - l_k) with diagonal 2 pi, so the optimal lower bound of the system
as a frame for its span is an exact eigenvalue computation.  The crude
factorial lower-bound formula is evaluated in log space; for the decay
tables the eigenvalue can optionally be computed in extended precision,
since the float64 floor (~1e-15 relative) is reached long before N = 40 on
overcomplete families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DomainError, _field

#: the constant and exponents of the factorial lower-bound estimate
CRUDE_PREFACTOR = 1.6e-14
CRUDE_FACTORIAL_POWER = 8

#: fewest decimal digits accepted for extended precision (mpmath's default);
#: below it the eigenvalue is wrong, e.g. dps=1 gives 2.34 for 2 pi - 4
MIN_DPS = 15


class LambdaSet:
    """Strictly increasing finite frequencies; delta is the minimal gap."""

    def __init__(self, lambdas):
        try:
            arr = np.asarray(lambdas, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise DomainError(f"frequencies must be numbers, got {lambdas!r}") from None
        if arr.size == 0:
            raise DomainError("need at least one frequency")
        if not np.all(np.isfinite(arr)):
            raise DomainError("frequencies must be finite (no NaN or Inf)")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise DomainError("frequencies must be strictly increasing")
        arr = arr.copy()
        arr.flags.writeable = False
        self.lambdas = arr

    @property
    def count(self) -> int:
        return self.lambdas.shape[0]

    @property
    def delta(self) -> float:
        """Minimal gap; infinite for a singleton."""
        if self.count < 2:
            return math.inf
        return float(np.diff(self.lambdas).min())

    def shifted(self, c: float) -> "LambdaSet":
        return LambdaSet(self.lambdas + c)

    def to_json_dict(self):
        return {"lambdas": [float(v) for v in self.lambdas]}

    @classmethod
    def from_json_dict(cls, data):
        return cls(_field(data, "lambdas"))


def exp_gram(lset: LambdaSet) -> np.ndarray:
    """Exact Gram matrix of {exp(i l_n x)} in L2(-pi, pi).

    Entries 2 sin(pi d) / d = 2 pi sinc(d) at d = l_j - l_k; diagonal 2 pi.
    """
    d = np.subtract.outer(lset.lambdas, lset.lambdas)
    G = 2 * np.pi * np.sinc(d)
    return G.astype(complex)


def _check_dps(dps):
    if dps is not None and dps < MIN_DPS:
        raise DomainError(f"dps must be at least {MIN_DPS} (got {dps})")


def lower_bound(lset: LambdaSet, dps: int = None) -> float:
    """Optimal lower bound on the span: smallest Gram eigenvalue, at least 0.

    In float64, rounding in the eigensolver can make an eigenvalue below the
    resolution of the 2 pi scale (~1e-15) come out negative; the Gram matrix
    is positive semidefinite, so such values are clamped to 0.0.  Values below
    float64 resolution need dps, which switches to extended-precision
    arithmetic (decimal digits); fewer than MIN_DPS digits raise DomainError.
    The extended-precision Gram is built on the upper triangle and mirrored,
    with each entry 2 sin(pi d)/d computed once per distinct difference d.
    """
    if dps is None:
        lo = float(np.linalg.eigvalsh(exp_gram(lset).real)[0])
        return lo if lo > 0 else 0.0
    _check_dps(dps)
    from mpmath import mp, mpf, matrix, eigsy, sin, pi as mp_pi

    old = mp.dps
    mp.dps = dps
    try:
        n = lset.count
        A = matrix(n, n)
        lams = [mpf(float(v)) for v in lset.lambdas]
        # negation, sin, products and quotients round sign-symmetrically,
        # so the entry at -d is the entry at d
        entries = {}
        for j in range(n):
            A[j, j] = 2 * mp_pi
            for k in range(j + 1, n):
                d = lams[j] - lams[k]
                if d not in entries:
                    entries[d] = 2 * sin(mp_pi * d) / d
                A[j, k] = A[k, j] = entries[d]
        ev = eigsy(A, eigvals_only=True)
        return float(ev[0])
    finally:
        mp.dps = old


class CrudeBound(NamedTuple):
    value: float
    log10: float


def crude_bound(N: int, delta: float) -> CrudeBound:
    """Factorial lower-bound estimate for N gap-delta frequencies.

    prefactor * (delta/2)^(2N+1) / ((N+1)!)^8, evaluated in log space; the
    value field underflows to 0.0 for large N while log10 stays finite.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not (0 < delta <= 1):
        raise DomainError(f"the estimate requires 0 < delta <= 1 (got {delta:g})")
    log_value = (
        math.log(CRUDE_PREFACTOR)
        + (2 * N + 1) * math.log(delta / 2)
        - CRUDE_FACTORIAL_POWER * math.lgamma(N + 2)
    )
    value = math.exp(log_value) if log_value > -700 else 0.0
    return CrudeBound(value, log_value / math.log(10))


def integer_lambdas(N: int) -> LambdaSet:
    return LambdaSet(np.arange(N, dtype=float))


def half_integer_lambdas(N: int) -> LambdaSet:
    return LambdaSet(0.5 * np.arange(N, dtype=float))


FAMILIES = {"integer": integer_lambdas, "half_integer": half_integer_lambdas}


@dataclass(frozen=True)
class DecayRow:
    N: int
    lower: float
    crude: float
    ratio: float
    log10_lower: float
    log10_crude: float

    def to_dict(self):
        return {
            "N": self.N, "lower": self.lower, "crude": self.crude, "ratio": self.ratio,
            "log10_lower": self.log10_lower, "log10_crude": self.log10_crude,
        }


def decay_study(family, n_max: int, dps: int = None):
    """Table of (N, optimal lower bound, crude estimate, ratio) for N = 2..n_max.

    family is a name from FAMILIES or a callable N -> frequency sequence.
    The crude estimate is applied with delta clamped to its hypothesis
    (gaps at least delta and delta <= 1).
    """
    _check_dps(dps)
    if isinstance(family, str):
        try:
            rule = FAMILIES[family]
        except KeyError:
            raise DomainError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    else:
        rule = lambda N: LambdaSet(family(N))
    rows = []
    for N in range(2, n_max + 1):
        lset = rule(N)
        if lset.count != N:
            raise DomainError("family rule returned the wrong number of frequencies")
        lo = lower_bound(lset, dps=dps)
        delta = min(1.0, lset.delta)
        crude = crude_bound(N, delta)
        log10_lower = math.log10(lo) if lo > 0 else -math.inf
        ratio = 10.0 ** (crude.log10 - log10_lower) if lo > 0 else math.inf
        rows.append(DecayRow(N, lo, crude.value, ratio, log10_lower, crude.log10))
    return rows
