import math

import numpy as np
import pytest

from framelab.core import DomainError
from framelab.exponentials import (
    LambdaSet,
    crude_bound,
    decay_study,
    exp_gram,
    half_integer_lambdas,
    integer_lambdas,
    lower_bound,
)


def quad_gram_entry(lj, lk, panels=4096):
    """Trapezoid quadrature oracle for the defining inner-product integral."""
    x = np.linspace(-np.pi, np.pi, panels + 1)
    integrand = np.exp(1j * (lj - lk) * x)
    return np.trapezoid(integrand, x)


def test_gram_integer_orthogonality():
    G = exp_gram(LambdaSet([0, 1, 2]))
    np.testing.assert_allclose(G, 2 * np.pi * np.eye(3), atol=1e-14)


def test_gram_half_gap_entry():
    G = exp_gram(LambdaSet([0.0, 0.5]))
    assert G[0, 1] == pytest.approx(4.0, abs=1e-14)
    assert G[0, 0] == pytest.approx(2 * np.pi, abs=1e-15)


def test_gram_singleton():
    G = exp_gram(LambdaSet([3.7]))
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(2 * np.pi)


def test_gram_matches_quadrature():
    rng = np.random.default_rng(0)
    lams = np.sort(rng.uniform(-4, 4, 6))
    if np.diff(lams).min() < 1e-6:
        lams = np.arange(6) * 0.7
    ls = LambdaSet(lams)
    G = exp_gram(ls)
    for j in range(ls.count):
        for k in range(ls.count):
            oracle = quad_gram_entry(lams[j], lams[k], panels=1 << 16)
            assert abs(G[j, k] - oracle) <= 1e-8


def test_gram_psd_random_sets():
    rng = np.random.default_rng(1)
    for _ in range(100):
        lams = np.unique(np.round(rng.uniform(-10, 10, 8), 6))
        if lams.size < 2:
            continue
        ev = np.linalg.eigvalsh(exp_gram(LambdaSet(lams)).real)
        assert ev[0] >= -1e-10


def test_lower_bound_examples():
    assert lower_bound(integer_lambdas(5)) == pytest.approx(2 * np.pi, abs=1e-10)
    assert lower_bound(LambdaSet([0.0, 0.5])) == pytest.approx(2 * np.pi - 4, abs=1e-10)
    # colliding frequencies send the bound to zero
    vals = [lower_bound(LambdaSet([0.0, eps])) for eps in (0.1, 0.05, 0.01)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_float_lower_bound_never_negative():
    # the eigensolver's rounding pushed N = 23, 24 and 28..40 below zero
    for N in range(20, 41):
        assert lower_bound(half_integer_lambdas(N)) >= 0.0
    rows = decay_study("half_integer", 30)
    assert all(r.lower >= 0.0 for r in rows)
    assert all(r.ratio == math.inf and r.log10_lower == -math.inf
               for r in rows if r.lower == 0.0)


def full_mp_gram(lset):
    """Every one of the N^2 Gram entries by its own mpmath sine, at mp.dps."""
    from mpmath import mpf, matrix, sin, pi as mp_pi

    n = lset.count
    A = matrix(n, n)
    lams = [mpf(float(v)) for v in lset.lambdas]
    for j in range(n):
        for k in range(n):
            d = lams[j] - lams[k]
            A[j, k] = 2 * mp_pi if d == 0 else 2 * sin(mp_pi * d) / d
    return A


def full_mp_lower_bound(lset, dps):
    import mpmath

    with mpmath.mp.workdps(dps):
        return float(mpmath.eigsy(full_mp_gram(lset), eigvals_only=True)[0])


def test_mp_lower_bound_equals_full_gram_oracle_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(12):
        lams = np.sort(rng.uniform(-6.0, 6.0, int(rng.integers(2, 14))))
        lset = LambdaSet(lams)
        assert lower_bound(lset, dps=30) == full_mp_lower_bound(lset, 30)


@pytest.mark.parametrize("family", [half_integer_lambdas, integer_lambdas])
def test_mp_gram_equals_full_gram_oracle(family, monkeypatch):
    # entrywise equality of the matrix handed to eigsy implies equal
    # eigenvalues, at one eigsy per N instead of two
    import mpmath

    real_eigsy = mpmath.eigsy
    solved = []

    def recording_eigsy(A, **kwargs):
        ev = real_eigsy(A.copy(), **kwargs)
        solved.append((A.copy(), ev))
        return ev

    monkeypatch.setattr(mpmath, "eigsy", recording_eigsy)
    for N in range(2, 41):
        value = lower_bound(family(N), dps=60)
        A, ev = solved.pop()
        with mpmath.mp.workdps(60):
            assert A.tolist() == full_mp_gram(family(N)).tolist()
        assert value == float(ev[0])


def test_lower_bound_shift_invariance():
    rng = np.random.default_rng(2)
    lams = np.sort(rng.uniform(0, 5, 5))
    ls = LambdaSet(lams)
    for c in (-3.0, 1.7, 10.0):
        assert lower_bound(ls.shifted(c)) == pytest.approx(lower_bound(ls), abs=1e-12)


def test_strict_increase_enforced():
    with pytest.raises(DomainError):
        LambdaSet([0.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        LambdaSet([1.0, 0.5])


def test_crude_bound_frozen_values():
    got = crude_bound(2, 0.5)
    assert got.value == pytest.approx(9.3027e-24, rel=1e-4)
    assert got.log10 == pytest.approx(math.log10(9.302721574455123e-24), abs=1e-9)
    got = crude_bound(1, 1.0)
    assert got.value == pytest.approx(1.6e-14 / 2048, rel=1e-12)


def test_crude_bound_positive_and_log_finite():
    for N in (1, 5, 20, 40):
        got = crude_bound(N, 0.5)
        assert got.value >= 0.0
        assert math.isfinite(got.log10)
    # deep factorial regime underflows the value but not the log
    deep = crude_bound(40, 0.5)
    assert deep.value == 0.0
    assert deep.log10 < -400


def test_crude_bound_hypothesis_violation():
    with pytest.raises(DomainError):
        crude_bound(3, 1.5)
    with pytest.raises(DomainError):
        crude_bound(3, 0.0)


def test_decay_integer_family_constant():
    rows = decay_study("integer", 12)
    for row in rows:
        assert row.lower == pytest.approx(2 * np.pi, abs=1e-9)
        assert row.crude <= row.lower


def test_decay_half_integer_family_decreasing():
    # double precision resolves the decay until the eigensolver floor (~N 20)
    rows = decay_study("half_integer", 18)
    lows = [r.lower for r in rows]
    assert all(v2 < v1 for v1, v2 in zip(lows, lows[1:]))
    assert lows[-1] < 1e-10


def test_decay_extended_precision_reaches_strict_decrease():
    rows = decay_study("half_integer", 40, dps=60)
    lows = [r.lower for r in rows]
    assert all(v2 < v1 for v1, v2 in zip(lows, lows[1:]))
    assert 0 < lows[-1] < 1e-3
    for r in rows:
        assert r.crude <= r.lower


def test_decay_custom_family_callable():
    rows = decay_study(lambda N: 0.75 * np.arange(N), 6)
    assert [r.N for r in rows] == [2, 3, 4, 5, 6]


def test_low_precision_dps_rejected():
    # 2 pi - 4 at mpmath's default 15 digits; dps=1 used to return 2.34 and dps=0 3.0
    assert lower_bound(LambdaSet([0.0, 0.5]), dps=15) == pytest.approx(2 * np.pi - 4, abs=1e-12)
    for dps in (0, 1, 14):
        with pytest.raises(DomainError, match="dps"):
            lower_bound(LambdaSet([0.0, 0.5]), dps=dps)
        with pytest.raises(DomainError, match="dps"):
            decay_study("integer", 1, dps=dps)
