import math
import warnings

import numpy as np
import pytest

from framelab import exponentials
from framelab.core import DomainError
from framelab.exponentials import (
    FAMILIES,
    MAX_DPS,
    LambdaSet,
    crude_bound,
    decay_study,
    exp_gram,
    half_integer_lambdas,
    integer_lambdas,
    lower_bound,
)
from oracles import bisected_tridiagonal_eigenvalue, full_update_tridiagonal, unsplit_smallest_eigenvalue


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


@pytest.mark.parametrize("family", ["integer", "half_integer"])
def test_default_lower_bound_is_dps_60_with_no_zero_row(family):
    # a float64 eigensolve clamped half-integer N = 23, 24 and 28..40 to 0.0
    rows = decay_study(family, 40)
    assert rows == decay_study(family, 40, dps=60)
    assert all(r.lower > 0.0 and math.isfinite(r.log10_lower) for r in rows)
    rule = FAMILIES[family]
    for N in (2, 23, 40):
        assert lower_bound(rule(N)).hex() == lower_bound(rule(N), dps=60).hex()


@pytest.mark.parametrize("dps", [60.5, True, "60", None])
def test_dps_that_is_no_integer_is_a_domain_error(dps):
    with pytest.raises(DomainError, match="dps must be a positive integer"):
        lower_bound(LambdaSet([0.0, 0.5]), dps=dps)
    with pytest.raises(DomainError, match="dps must be a positive integer"):
        decay_study("integer", 3, dps=dps)


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


def floored_full_gram(lset, frac_bits):
    from mpmath.libmp import to_fixed

    full = full_mp_gram(lset)
    return [[to_fixed(full[j, k]._mpf_, frac_bits) for k in range(lset.count)]
            for j in range(lset.count)]


def unequal_exponent_sets(rng):
    """Negative and positive values of magnitude 1e-20 .. 1e5, and sets with
    repeated differences; their exact float differences need up to ~140 bits."""
    sets = []
    for n in (3, 6, 9, 12):
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20, 5, n)
        sets.append(LambdaSet(np.unique(values)))
    for c, h in ((-370.3, 0.3), (1e5 / 3, 1e-7), (-2.0 / 3, 1.1)):
        sets.append(LambdaSet(c + h * np.array([0.0, 1, 2, 4, 5, 7, 8, 9])))
    sets.append(LambdaSet(np.unique(np.concatenate([sets[0].lambdas, sets[4].lambdas]))))
    # 1e5 - l for the two middle values differ exactly, but not in 103 bits
    sets.append(LambdaSet([-1e5, -1e-20, np.nextafter(-1e-20, 0.0), 1e-20, 1e5]))
    return sets


@pytest.mark.parametrize("family", [half_integer_lambdas, integer_lambdas, "random"])
def test_mp_gram_equals_full_gram_oracle(family, monkeypatch):
    # the kernel starts from the full Gram, floored to its fixed point, and
    # returns the float of eigsy's smallest eigenvalue at the same dps
    import mpmath

    real_kernel = exponentials._smallest_eigenvalue
    solved = []

    def recording_kernel(rows, frac_bits, **kwargs):
        solved.append((rows, frac_bits))
        return real_kernel(rows, frac_bits, **kwargs)

    monkeypatch.setattr(exponentials, "_smallest_eigenvalue", recording_kernel)
    if family == "random":
        # at dps 30 distinct exact differences can round to one d
        for lset in unequal_exponent_sets(np.random.default_rng(5)):
            for dps in (30, 60):
                lower_bound(lset, dps=dps)
                rows, frac_bits = solved.pop()
                with mpmath.mp.workdps(dps):
                    assert rows == floored_full_gram(lset, frac_bits)
        return
    for N in range(2, 41):
        value = lower_bound(family(N), dps=60)
        rows, frac_bits = solved.pop()
        with mpmath.mp.workdps(60):
            assert frac_bits == mpmath.mp.prec + 40
            assert rows == floored_full_gram(family(N), frac_bits)
            assert value == float(mpmath.eigsy(full_mp_gram(family(N)), eigvals_only=True)[0])


@pytest.mark.parametrize("dps", [60, 100])
@pytest.mark.parametrize("family", [half_integer_lambdas, integer_lambdas])
def test_kernel_equals_unsplit_oracle_on_both_families(family, dps):
    # the folded reduction and the geometric bisection start give the float
    # of the whole matrix reduced and bisected linearly
    import mpmath

    with mpmath.mp.workdps(dps):
        frac_bits = mpmath.mp.prec + 40
        for N in range(1, 41):
            rows = exponentials._fixed_gram(family(N), frac_bits)
            assert exponentials._smallest_eigenvalue(rows, frac_bits) == \
                unsplit_smallest_eigenvalue(rows, frac_bits), N


def test_kernel_equals_unsplit_oracle_on_random_sets():
    import mpmath

    rng = np.random.default_rng(17)
    with mpmath.mp.workdps(30):
        frac_bits = mpmath.mp.prec + 40
        for _ in range(20):
            lset = LambdaSet(np.sort(rng.uniform(-3.0, 3.0, int(rng.integers(2, 16)))))
            rows = exponentials._fixed_gram(lset, frac_bits)
            assert exponentials._smallest_eigenvalue(rows, frac_bits) == \
                unsplit_smallest_eigenvalue(rows, frac_bits)


def test_kernel_equals_unsplit_oracle_on_small_integer_matrices():
    # indefinite, singular and positive definite matrices a few units wide:
    # every bracket ends on the same threshold, also when hi - lo reaches 1
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        frac_bits = int(rng.integers(0, 12))
        a = rng.integers(-40, 41, (n, n))
        a = a + a.T + np.diag(rng.integers(0, 400, n))
        if n >= 5 and rng.integers(2):
            # persymmetric but for one inner pair: still reduced whole
            a = a + a[::-1, ::-1]
            a[1, 2] += 1
            a[2, 1] += 1
        rows = a.tolist()
        if n > 1 and all(r == s[::-1] for r, s in zip(rows, reversed(rows))):
            continue
        assert exponentials._smallest_eigenvalue(rows, frac_bits) == \
            unsplit_smallest_eigenvalue(rows, frac_bits)


def counted_passes(monkeypatch):
    """{"sturm": n, "newton": n, "empty": n}: pivot passes of the eigenvalue search,
    and Newton passes whose sum of p_i / q_i was 0."""
    counts = {"sturm": 0, "newton": 0, "empty": 0}
    sturm, newton = exponentials._at_or_below, exponentials._newton_sum

    def counted_sturm(*args):
        counts["sturm"] += 1
        return sturm(*args)

    def counted_newton(*args):
        counts["newton"] += 1
        total = newton(*args)
        counts["empty"] += total == 0
        return total

    monkeypatch.setattr(exponentials, "_at_or_below", counted_sturm)
    monkeypatch.setattr(exponentials, "_newton_sum", counted_newton)
    return counts


@pytest.mark.parametrize("dps", [15, 60, 300])
@pytest.mark.parametrize("family", [half_integer_lambdas, integer_lambdas])
def test_newton_search_equals_bisection_oracle_on_both_families(family, dps, monkeypatch):
    # the search returns the float of the threshold that linear bisection from
    # the Gershgorin end finds on the same tridiagonal.  At dps 60 and 300 that
    # is also the float of the whole matrix reduced; at dps 15 the fold's floors
    # move the threshold of the half-integer family by a few units of
    # 2^-frac_bits, which shows where the eigenvalue has few bits (N >= 16)
    import mpmath

    real_search = exponentials._tridiagonal_eigenvalue
    searched = []

    def recording_search(diag, off_sq, frac_bits, **kwargs):
        searched.append((diag, off_sq))
        return real_search(diag, off_sq, frac_bits, **kwargs)

    monkeypatch.setattr(exponentials, "_tridiagonal_eigenvalue", recording_search)
    with mpmath.mp.workdps(dps):
        frac_bits = mpmath.mp.prec + 40
        for N in range(1, 41):
            rows = exponentials._fixed_gram(family(N), frac_bits)
            value = exponentials._smallest_eigenvalue(rows, frac_bits)
            diag, off_sq = searched.pop()
            assert value == bisected_tridiagonal_eigenvalue(diag, off_sq, frac_bits), N
            if dps > 15:
                assert value == unsplit_smallest_eigenvalue(rows, frac_bits), N


@pytest.mark.parametrize("family, N, dps", [
    # bisection took 64 (half-integer) and 61 (integer) Sturm counts
    (half_integer_lambdas, 30, 60), (integer_lambdas, 30, 60),
    # the floors leave the threshold a float above the Newton float: 65 passes
    # when that float is not followed by its neighbour
    (half_integer_lambdas, 19, 15),
])
def test_newton_search_pass_count(family, N, dps, monkeypatch):
    import mpmath

    counts = counted_passes(monkeypatch)
    with mpmath.mp.workdps(dps):
        frac_bits = mpmath.mp.prec + 40
        exponentials._smallest_eigenvalue(exponentials._fixed_gram(family(N), frac_bits), frac_bits)
    assert counts["sturm"] + counts["newton"] <= 16


def test_clamped_rows_stop_at_the_count_at_zero(monkeypatch):
    # at dps 15 the half-integer rows N = 25..40 have a smallest eigenvalue at most 0,
    # which lower_bound prints as 0.0: it stops at the Sturm count at 0, where bisecting
    # the eigenvalue took 94-96 counts.  A positive row makes the passes of the unclamped
    # search, and every row is the unclamped eigenvalue clamped, bit for bit
    import mpmath

    counts = counted_passes(monkeypatch)
    passes = []
    real_lower_bound = exponentials.lower_bound

    def counted_lower_bound(*args, **kwargs):
        before = counts["sturm"] + counts["newton"]
        value = real_lower_bound(*args, **kwargs)
        passes.append(counts["sturm"] + counts["newton"] - before)
        return value

    monkeypatch.setattr(exponentials, "lower_bound", counted_lower_bound)
    table = decay_study("half_integer", 40, dps=15)
    clamped = []
    with mpmath.mp.workdps(15):
        frac_bits = mpmath.mp.prec + 40
        for row, row_passes in zip(table, passes):
            before = counts["sturm"] + counts["newton"]
            value = exponentials._smallest_eigenvalue(
                exponentials._fixed_gram(half_integer_lambdas(row.N), frac_bits), frac_bits)
            unclamped_passes = counts["sturm"] + counts["newton"] - before
            assert row.lower.hex() == (value if value > 0 else 0.0).hex(), row.N
            if value <= 0:
                clamped.append(row.N)
                assert row_passes <= 1, row.N
            else:
                assert row_passes <= unclamped_passes, row.N
    assert clamped == list(range(25, 41))


def test_newton_search_on_small_definite_singular_and_clustered_matrices(monkeypatch):
    # a few units wide at frac_bits 0..11: a pivot ratio p_i / q_i floors to 0,
    # so the sum of a Newton pass can be 0, where a plain Newton loop divides by it
    counts = counted_passes(monkeypatch)
    rng = np.random.default_rng(23)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        frac_bits = int(rng.integers(0, 12))
        kind = rng.integers(3)
        if kind == 0:  # positive definite
            b = rng.integers(-6, 7, (n, n))
            a = b @ b.T + np.eye(n, dtype=int)
        elif kind == 1:  # singular: one column repeats another
            b = rng.integers(-6, 7, (n, n))
            b[:, -1] = b[:, 0]
            a = b @ b.T
        else:  # a cluster c I, up to small off-diagonal entries
            e = rng.integers(-2, 3, (n, n))
            a = e + e.T + int(rng.integers(1, 200)) * np.eye(n, dtype=int)
        rows = (a << frac_bits).tolist() if rng.integers(2) else a.tolist()
        diag, off_sq = full_update_tridiagonal(rows, frac_bits)
        assert exponentials._tridiagonal_eigenvalue(diag, off_sq, frac_bits) == \
            bisected_tridiagonal_eigenvalue(diag, off_sq, frac_bits)
    assert counts["newton"] > 0 and counts["empty"] > 0


def test_one_triangle_update_equals_full_update():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        frac_bits = int(rng.choice([0, 5, 64, 200]))
        a = rng.integers(-1 << 40, 1 << 40, (n, n), dtype=np.int64)
        rows = [[(int(a[min(i, j), max(i, j)]) << frac_bits) // 3 for j in range(n)] for i in range(n)]
        assert exponentials._tridiagonalize(rows, frac_bits) == full_update_tridiagonal(rows, frac_bits)


@pytest.mark.parametrize("family", [
    "half_integer", "integer",
    lambda N: np.cumsum([0.0] + [(0.25, 0.7, 0.45, 1.1)[k % 4] for k in range(N - 1)]),
], ids=["half_integer", "integer", "uneven"])
def test_decay_table_shares_entries_bitwise(family):
    # rows at two precisions in one process read one entry table: each row equals a
    # fresh lower_bound, and no entry of one precision is read at the other
    rule = exponentials.FAMILIES.get(family) if isinstance(family, str) else \
        (lambda N: LambdaSet(family(N)))
    for dps in (30, 45):
        rows = decay_study(family, 16, dps=dps)
        fresh = []
        for N in range(2, 17):
            exponentials._gram_entry.cache_clear()
            fresh.append(lower_bound(rule(N), dps=dps))
        assert [r.lower for r in rows] == fresh


def test_decay_chain_evaluates_each_difference_once(monkeypatch):
    # the half-integer rows N = 2..30 have 29 distinct differences; one call per row
    # with its own table evaluated 435 sines
    import mpmath

    sines = []
    real_sin = mpmath.sin

    def counted_sin(x):
        sines.append(x)
        return real_sin(x)

    monkeypatch.setattr(mpmath, "sin", counted_sin)
    for N in range(2, 31):
        lower_bound(half_integer_lambdas(N), dps=60)
    assert len(sines) == 29


def test_gram_entry_ignores_the_callers_precision():
    # d = -1 + 1e-20 needs about 67 bits: at 53 it would round to -1, where sin vanishes
    import mpmath

    frac_bits = 100 + exponentials._GUARD_BITS
    values = set()
    for dps in (15, 30, 200):
        exponentials._gram_entry.cache_clear()
        with mpmath.mp.workdps(dps):
            values.add(exponentials._gram_entry(frac_bits, -1.0, 1e-20))
    assert len(values) == 1


def mirrored_sets(rng, count):
    """Sets symmetric about a dyadic center, so each l_i + l_(n-1-i) is exact."""
    sets = []
    for n in rng.integers(2, 20, count):
        half = np.round(np.sort(rng.uniform(0.05, 0.2 * n, n // 2)) * 2 ** 20) / 2 ** 20
        middle = [0.0] if n % 2 else []
        center = float(rng.choice([0.0, 1.25, -3.5]))
        sets.append(LambdaSet(center + np.concatenate([-half[::-1], middle, half])))
    return sets


def recorded_reductions(monkeypatch):
    sizes = []
    real = exponentials._tridiagonalize

    def recording(a, frac_bits):
        sizes.append(len(a))
        return real(a, frac_bits)

    monkeypatch.setattr(exponentials, "_tridiagonalize", recording)
    return sizes


def test_mirrored_sets_are_folded_within_resolution(monkeypatch):
    # eigsy at dps + 40 on the same dps-digit entries; the fold adds at most
    # one unit of 2^-frac_bits (the sqrt(2) c column of odd n)
    import mpmath

    dps = 30
    sizes = recorded_reductions(monkeypatch)
    sets = mirrored_sets(np.random.default_rng(29), 12)
    assert {lset.count % 2 for lset in sets} == {0, 1}
    for lset in sets:
        n = lset.count
        with mpmath.mp.workdps(dps):
            gram, prec = full_mp_gram(lset), mpmath.mp.prec
        with mpmath.mp.workdps(dps + 40):
            reference = float(mpmath.eigsy(gram, eigvals_only=True)[0])
        value = lower_bound(lset, dps=dps)
        assert abs(value - max(reference, 0.0)) <= n * 2.0 ** (3 - prec)
        assert sizes == [n - n // 2, n // 2]
        sizes.clear()


def test_non_persymmetric_matrix_is_reduced_whole(monkeypatch):
    sizes = recorded_reductions(monkeypatch)
    lset = LambdaSet([0.0, 0.5, 1.25, 1.5, 2.75])
    lower_bound(lset, dps=30)
    assert sizes == [5]
    sizes.clear()
    # a set symmetric about its midpoint folds into blocks of 3 and 2
    lower_bound(LambdaSet([0.0, 1.25, 1.5, 1.75, 3.0]), dps=30)
    assert sizes == [3, 2]


@pytest.mark.parametrize("dps", [15, 20, 30])
def test_mp_lower_bound_within_resolution_where_eigsy_at_dps_cannot_resolve(dps):
    # the reference is eigsy at dps + 40 digits on the same dps-digit entries;
    # half-integer N = 26 (6.5e-18) sits below the resolution at dps 15
    import mpmath

    rng = np.random.default_rng(dps)
    sets = [half_integer_lambdas(26)] + [
        LambdaSet(np.sort(rng.uniform(0.0, 0.3 * n, n))) for n in rng.integers(2, 20, 6)]
    for lset in sets:
        with mpmath.mp.workdps(dps):
            gram, prec = full_mp_gram(lset), mpmath.mp.prec
        with mpmath.mp.workdps(dps + 40):
            reference = float(mpmath.eigsy(gram, eigvals_only=True)[0])
        value = lower_bound(lset, dps=dps)
        assert abs(value - max(reference, 0.0)) <= lset.count * 2.0 ** (3 - prec)


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_on_a_tridiagonal_matrix(n):
    # the second difference matrix with +1 off the diagonal: its first column
    # is already reduced, and its smallest eigenvalue is 4 sin^2(pi / (2n + 2))
    import mpmath

    frac_bits = 100
    one = 1 << frac_bits
    rows = [[2 * one if j == k else one if abs(j - k) == 1 else 0 for k in range(n)]
            for j in range(n)]
    with mpmath.mp.workdps(50):
        exact = float(4 * mpmath.sin(mpmath.pi / (2 * n + 2)) ** 2)
    assert exponentials._smallest_eigenvalue(rows, frac_bits) == exact


def test_mp_lower_bound_never_negative():
    # at dps 15 the rounded entries make the Gram indefinite from N = 25 on
    rows = decay_study("half_integer", 30, dps=15)
    assert all(r.lower >= 0.0 for r in rows)
    zero = [r.N for r in rows if r.lower == 0.0]
    assert zero == list(range(25, 31))
    assert all(r.ratio == math.inf and r.log10_lower == -math.inf
               for r in rows if r.lower == 0.0)
    assert lower_bound(half_integer_lambdas(30), dps=15) == 0.0


def test_lower_bound_shift_invariance():
    rng = np.random.default_rng(2)
    lams = np.sort(rng.uniform(0, 5, 5))
    ls = LambdaSet(lams)
    for c in (-3.0, 1.7, 10.0):
        assert lower_bound(LambdaSet(lams + c)) == pytest.approx(lower_bound(ls), abs=1e-12)


def test_overflowing_span_rejected_without_warnings():
    # the differences overflowed to inf, so the float Gram was NaN and the
    # bound a silent 0.0 (2 pi at dps 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lams in ([-1e308, 1e308], [0.0, 1e308], [-8e307, 0.0, 8e307]):
            with pytest.raises(DomainError, match="finite range"):
                LambdaSet(lams)
        assert lower_bound(LambdaSet([-5e306, 5e306]), dps=30) == pytest.approx(2 * np.pi)


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


def test_dps_over_the_cap_rejected_before_any_gram(monkeypatch):
    def no_gram(*args):
        raise AssertionError("a Gram matrix was built")

    assert lower_bound(LambdaSet([0.0, 0.5]), dps=MAX_DPS) == pytest.approx(2 * np.pi - 4, abs=1e-12)
    monkeypatch.setattr(exponentials, "_fixed_gram", no_gram)
    with pytest.raises(DomainError, match="dps"):
        lower_bound(LambdaSet([0.0, 1.0]), dps=MAX_DPS + 1)
    with pytest.raises(DomainError, match="dps"):
        decay_study("integer", 3, dps=MAX_DPS + 1)


def test_low_precision_dps_rejected():
    # 2 pi - 4 at mpmath's default 15 digits; dps=1 used to return 2.34 and dps=0 3.0
    assert lower_bound(LambdaSet([0.0, 0.5]), dps=15) == pytest.approx(2 * np.pi - 4, abs=1e-12)
    for dps in (0, 1, 14):
        with pytest.raises(DomainError, match="dps"):
            lower_bound(LambdaSet([0.0, 0.5]), dps=dps)
        with pytest.raises(DomainError, match="dps"):
            decay_study("integer", 1, dps=dps)


@pytest.mark.parametrize("N", [10 ** 400, 10 ** 306], ids=["1e400", "1e306"])
def test_crude_bound_past_the_float_range_is_a_domain_error(N):
    with pytest.raises(DomainError, match="too large"):
        crude_bound(N, 0.5)


@pytest.mark.parametrize("N", [True, 2.5, 2.0, 0])
@pytest.mark.parametrize("entry", [
    lambda N: crude_bound(N, 0.5), integer_lambdas, half_integer_lambdas,
    lambda N: decay_study("integer", N),
], ids=["crude_bound", "integer_lambdas", "half_integer_lambdas", "decay_study"])
def test_every_entry_point_rejects_a_size_that_is_no_positive_integer(entry, N):
    with pytest.raises(DomainError, match="must be a positive integer"):
        entry(N)
