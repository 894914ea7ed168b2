import math

import numpy as np
import pytest

import framelab.gabor as gabor_module
from framelab.core import (
    DomainError,
    GridError,
    LatticeError,
    biorthogonality_residual,
    concat_systems,
    duality_check,
    frame_bounds,
    frame_operator,
)
from framelab.gabor import (
    HRT_CAVEAT,
    GaborSpec,
    SampledWindow,
    TFPoint,
    canonical_dual_window,
    duality_principle_check,
    extend_gabor_windows,
    finite_gabor_system,
    frame_operator_commutation_check,
    gabor_extension,
    gabor_frame_bounds,
    hrt_independence,
    ron_shen_duality_check,
    sampled_gaussian,
    sampled_indicator,
    wexler_raz_check,
)

ACCEPTANCE_LENGTHS = (4, 6, 8, 12, 16, 24)


def rand_window(rng, L):
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def divisor_pairs(L):
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    return [(a, b) for a in divisors for b in divisors]


def dense_translation(L, shift):
    return np.roll(np.eye(L), shift % L, axis=0)


def dense_modulation(L, freq):
    return np.diag(np.exp(2j * np.pi * freq * np.arange(L) / L))


def dense_commutator_norm(A, a, b):
    """Oracle: max over the lattice of ||A M T - M T A||_2 with dense M, T."""
    L = A.shape[0]
    worst = 0.0
    for n in range(L // a):
        T = dense_translation(L, n * a)
        for m in range(L // b):
            P = dense_modulation(L, m * b) @ T
            worst = max(worst, float(np.linalg.norm(A @ P - P @ A, 2)))
    return worst


def dense_mixed_operator(spec_g, spec_h):
    """Oracle: the L x L matrix of x -> sum <x, g_nm> h_nm from the generated systems."""
    return finite_gabor_system(spec_h).vectors.T @ finite_gabor_system(spec_g).vectors.conj()


def dense_canonical_dual(spec):
    return np.linalg.solve(frame_operator(finite_gabor_system(spec)), spec.window)


def test_single_element_system():
    w = np.array([1, 2, 3, 4], dtype=complex)
    sys = finite_gabor_system(GaborSpec(4, 4, 4, w))
    assert sys.count == 1
    np.testing.assert_allclose(sys.vectors[0], w)


def test_delta_window_L2_full_lattice():
    # 4 vectors, frame operator 2 I, computed here by brute force
    spec = GaborSpec(2, 1, 1, [1, 0])
    sys = finite_gabor_system(spec)
    assert sys.count == 4
    S = np.zeros((2, 2), dtype=complex)
    for v in sys.vectors:
        S += np.outer(v, v.conj())
    np.testing.assert_allclose(S, 2 * np.eye(2), atol=1e-14)
    fb = gabor_frame_bounds(spec)
    assert fb.lower == pytest.approx(2.0, abs=1e-12)
    assert fb.upper == pytest.approx(2.0, abs=1e-12)


def test_full_lattice_tight_with_bound_L():
    rng = np.random.default_rng(0)
    w = rand_window(rng, 4)
    w /= np.linalg.norm(w)
    fb = gabor_frame_bounds(GaborSpec(4, 1, 1, w))
    assert fb.lower == pytest.approx(4.0, rel=1e-12)
    assert fb.upper == pytest.approx(4.0, rel=1e-12)


def test_lattice_divisibility_enforced():
    with pytest.raises(LatticeError):
        GaborSpec(6, 4, 2, np.zeros(6))


def test_gabor_vectors_inherit_window_norm():
    rng = np.random.default_rng(1)
    w = rand_window(rng, 12)
    sys = finite_gabor_system(GaborSpec(12, 3, 4, w))
    norms = np.linalg.norm(sys.vectors, axis=1)
    assert np.abs(norms - np.linalg.norm(w)).max() <= 1e-12 * np.linalg.norm(w)


def test_duality_principle_by_hand_case():
    # L=4, a=b=2, window = delta: both sides computed from 4-vector systems
    spec = GaborSpec(4, 2, 2, [1, 0, 0, 0])
    report = duality_principle_check(spec)
    assert report.passed


def test_duality_principle_adjoint_of_full_lattice():
    rng = np.random.default_rng(2)
    w = rand_window(rng, 4)
    report = duality_principle_check(GaborSpec(4, 1, 1, w))
    assert report.passed
    nrm2 = float(np.sum(np.abs(w) ** 2))
    assert report.details["frame_upper"] == pytest.approx(4 * nrm2, rel=1e-12)
    assert report.details["adjoint_riesz_upper"] == pytest.approx(4 * nrm2, rel=1e-12)


def test_duality_principle_detects_wrong_scaling():
    # negative control: comparing against the unscaled adjoint system must
    # fail whenever the correct scale differs from 1
    from framelab.core import bound_agreement_residual, riesz_bounds

    rng = np.random.default_rng(21)
    spec = GaborSpec(8, 2, 2, rand_window(rng, 8))
    fb = gabor_frame_bounds(spec)
    unscaled = GaborSpec(8, 4, 4, spec.window)
    rb = riesz_bounds(finite_gabor_system(unscaled))

    gap = bound_agreement_residual(fb.upper, rb.upper, max(fb.upper, rb.upper), 1e-10)
    assert gap > 1e-2  # scale sqrt(L/(ab)) = sqrt(2) is off by a factor 2


def test_duality_principle_sweep_small():
    rng = np.random.default_rng(3)
    for L in (4, 6):
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for a in divisors:
            for b in divisors:
                for _ in range(3):
                    spec = GaborSpec(L, a, b, rand_window(rng, L))
                    assert duality_principle_check(spec).passed


def test_wexler_raz_with_canonical_dual():
    rng = np.random.default_rng(4)
    spec = GaborSpec(12, 2, 3, rand_window(rng, 12))
    dual = GaborSpec(12, 2, 3, canonical_dual_window(spec))
    report = wexler_raz_check(spec, dual)
    assert report.passed
    assert report.details["duality_residual"] <= 1e-10
    assert report.details["biorthogonality_residual"] <= 1e-10


def test_wexler_raz_unrelated_windows_fail_consistently():
    rng = np.random.default_rng(5)
    g = GaborSpec(8, 2, 2, rand_window(rng, 8))
    h = GaborSpec(8, 2, 2, rand_window(rng, 8))
    report = wexler_raz_check(g, h)
    assert report.passed  # equivalence holds: both sides fail
    assert report.details["duality_residual"] > 1e-3
    assert report.details["biorthogonality_residual"] > 1e-3


def test_wexler_raz_lattice_mismatch():
    with pytest.raises(LatticeError):
        wexler_raz_check(GaborSpec(8, 2, 2, np.ones(8)), GaborSpec(8, 2, 4, np.ones(8)))


def test_commutation_delta_full_lattice():
    report = frame_operator_commutation_check(GaborSpec(4, 1, 1, [1, 0, 0, 0]))
    assert report.passed
    assert report.residuals["commutator"] <= 1e-14


def test_commutation_random_frame():
    rng = np.random.default_rng(6)
    spec = GaborSpec(12, 2, 3, rand_window(rng, 12))
    assert frame_operator_commutation_check(spec).passed


def test_commutation_breaks_off_lattice():
    # operators from a different lattice do not commute with S^-1
    rng = np.random.default_rng(7)
    spec = GaborSpec(12, 4, 3, rand_window(rng, 12))
    sys = finite_gabor_system(spec)
    if frame_bounds(sys).lower < 1e-8:
        pytest.skip("unlucky draw")
    S = frame_operator(sys)
    Sinv = np.linalg.inv(S)
    P = dense_modulation(12, 1) @ dense_translation(12, 1)  # not in the lattice
    assert np.linalg.norm(Sinv @ P - P @ Sinv, 2) > 1e-6


def test_ron_shen_orthonormal_indicator():
    g = sampled_indicator(0.0, 1.0)
    report = ron_shen_duality_check(g, g, 1.0, 1.0)
    assert report.passed
    assert report.residuals["ron_shen"] <= 1e-12


def test_ron_shen_scaled_indicator_dual():
    # for b < 1, h = b * chi is a dual window of chi at a = 1
    g = sampled_indicator(0.0, 1.0)
    h = SampledWindow(g.x0, g.step, 0.5 * g.samples, g.support_hint)
    assert ron_shen_duality_check(g, h, 1.0, 0.5).passed


def test_ron_shen_failure_detected():
    g = sampled_indicator(0.0, 1.0)
    h = SampledWindow(g.x0, g.step, 2.0 * g.samples, g.support_hint)
    report = ron_shen_duality_check(g, h, 1.0, 1.0)
    assert not report.passed
    assert report.residuals["ron_shen"] == pytest.approx(1.0, abs=1e-12)


def test_ron_shen_grid_mismatch():
    g = sampled_indicator(0.0, 1.0, step=1 / 64)
    with pytest.raises(GridError):
        ron_shen_duality_check(g, g, 1.0, 0.3)  # 1/b = 10/3 off-grid


def test_extension_already_dual_gives_zero_window():
    L, a, b = 8, 2, 2
    r1 = np.zeros(L, dtype=complex)
    r1[:a] = 1.0
    spec_g = GaborSpec(L, a, b, r1)
    spec_h = GaborSpec(L, a, b, (b / L) * r1)
    g2, h2 = extend_gabor_windows(spec_g, spec_h)
    assert np.abs(g2).max() <= 1e-12


def test_extension_zero_input_returns_auxiliary_pair():
    L, a, b = 8, 2, 2
    zero = GaborSpec(L, a, b, np.zeros(L))
    g2, h2 = extend_gabor_windows(zero, zero)
    expected_r1 = np.zeros(L); expected_r1[:a] = 1.0
    np.testing.assert_allclose(g2, expected_r1, atol=1e-14)
    np.testing.assert_allclose(h2, (b / L) * expected_r1, atol=1e-14)


def test_extension_random_bessel_windows():
    rng = np.random.default_rng(8)
    L, a, b = 12, 2, 3
    spec_g = GaborSpec(L, a, b, rand_window(rng, L))
    spec_h = GaborSpec(L, a, b, rand_window(rng, L))
    g2, h2 = extend_gabor_windows(spec_g, spec_h)
    union_f = concat_systems(finite_gabor_system(spec_g),
                             finite_gabor_system(GaborSpec(L, a, b, g2)))
    union_g = concat_systems(finite_gabor_system(spec_h),
                             finite_gabor_system(GaborSpec(L, a, b, h2)))
    report = duality_check(union_f, union_g)
    assert report.passed
    assert report.residuals["duality"] <= 1e-10


def test_extension_infeasible_lattice():
    with pytest.raises(LatticeError):
        extend_gabor_windows(GaborSpec(4, 4, 2, np.ones(4)), GaborSpec(4, 4, 2, np.ones(4)))


def test_gabor_extension_sampled_wrapper():
    # integer lattice reading: unit step, L=12, (a, b) = (2, 3) used directly
    rng = np.random.default_rng(9)
    g1 = SampledWindow(0.0, 1.0, rng.standard_normal(5), (0.0, 4.0))
    h1 = SampledWindow(0.0, 1.0, rng.standard_normal(5), (0.0, 4.0))
    g2, h2 = gabor_extension(g1, h1, a=2.0, b=3.0, L=12)
    L = g2.count
    assert L == 12
    spec_g1 = GaborSpec(L, 2, 3, np.concatenate([g1.samples, np.zeros(L - 5)]))
    spec_h1 = GaborSpec(L, 2, 3, np.concatenate([h1.samples, np.zeros(L - 5)]))
    union_f = concat_systems(finite_gabor_system(spec_g1),
                             finite_gabor_system(GaborSpec(L, 2, 3, g2.samples)))
    union_g = concat_systems(finite_gabor_system(spec_h1),
                             finite_gabor_system(GaborSpec(L, 2, 3, h2.samples)))
    assert duality_check(union_f, union_g).residuals["duality"] <= 1e-10


def test_gabor_extension_fractional_parameters():
    g1 = sampled_indicator(0.0, 1.0, step=1 / 8)
    h1 = sampled_indicator(0.0, 1.0, step=1 / 8)
    g2, h2 = gabor_extension(g1, h1, a=0.5, b=0.5)
    L = g2.count
    a_int = 4  # 0.5 / (1/8)
    b_int = int(round(0.5 * (1 / 8) * L))
    spec = GaborSpec(L, a_int, b_int, np.concatenate([g1.samples, np.zeros(L - g1.count)]))
    union_f = concat_systems(finite_gabor_system(spec),
                             finite_gabor_system(GaborSpec(L, a_int, b_int, g2.samples)))
    union_g = concat_systems(finite_gabor_system(spec),
                             finite_gabor_system(GaborSpec(L, a_int, b_int, h2.samples)))
    assert duality_check(union_f, union_g).residuals["duality"] <= 1e-10


def test_gabor_extension_infeasible_continuous():
    g1 = sampled_indicator(0.0, 1.0, step=0.25)
    with pytest.raises(LatticeError):
        gabor_extension(g1, g1, a=2.0, b=1.0, L=16)


def cycle_length_search(a_int, b, step, span, limit):
    """The linear search for the cycle length that the closed form replaced."""
    L = a_int * max(1, math.ceil(span / a_int))
    while L <= limit:
        b_float = b * step * L
        b_int = round(b_float)
        if abs(b_float - b_int) < 1e-9 and b_int >= 1 and L % b_int == 0:
            return L
        L += a_int
    return None


def test_cycle_length_closed_form_matches_linear_search(monkeypatch):
    limit = 2048  # keeps each infeasible search short; both sides use it
    monkeypatch.setattr(gabor_module, "MAX_AUTO_CYCLE", limit)
    found = {True: 0, False: 0}
    for step in (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 64, 0.1, 0.3):
        for b in (0.125, 0.2, 0.25, 0.3, 1 / 3, 0.5, 0.7, 1.0, 2.0, 4.0):
            for a_int in (1, 2, 3, 4, 5, 6, 8, 12):
                for span in (max(s, a_int) for s in (1, 3, 7, 16, 33, 100, 257)):
                    expected = cycle_length_search(a_int, b, step, span, limit)
                    found[expected is not None] += 1
                    if expected is None:
                        with pytest.raises(LatticeError, match="no feasible cycle length"):
                            gabor_module._cycle_length(a_int, b, step, span)
                    else:
                        assert gabor_module._cycle_length(a_int, b, step, span) == expected
    assert min(found.values()) > 1000


def test_gabor_extension_rejects_infeasible_cycles_and_nonpositive_steps():
    g1 = sampled_indicator(0.0, 1.0, step=1.0)
    with pytest.raises(LatticeError, match="no feasible cycle length"):
        gabor_extension(g1, g1, a=1.0, b=0.3)
    for a, b in ((0.0, 0.5), (-1.0, 0.5), (1.0, 0.0), (1.0, -0.5)):
        with pytest.raises(DomainError, match="must be at least one grid step"):
            gabor_extension(g1, g1, a=a, b=b)


def test_hrt_single_point():
    g = sampled_gaussian(half_width=4.0)
    report = hrt_independence(g, [TFPoint(0.0, 0.0)])
    assert report.passed
    assert report.details["sigma_min"] == pytest.approx(1.0, abs=1e-12)
    assert HRT_CAVEAT in report.notes


def test_hrt_gaussian_lattice_square():
    g = sampled_gaussian(half_width=6.0)
    pts = [TFPoint(0, 0), TFPoint(1, 0), TFPoint(0, 1), TFPoint(1, 1)]
    report = hrt_independence(g, pts)
    assert report.passed
    assert report.details["sigma_min"] > 1e-3


def test_hrt_special_four_function_case():
    g = sampled_gaussian(half_width=6.0)
    s = np.sqrt(2)
    pts = [TFPoint(0, 0), TFPoint(0, 1), TFPoint(1, 0), TFPoint(s, s)]
    report = hrt_independence(g, pts)
    assert "sigma_min" in report.details
    assert HRT_CAVEAT in report.notes


def test_hrt_clustering_shrinks_sigma_min():
    g = sampled_gaussian(half_width=6.0)
    sigmas = []
    for scale in (1.0, 0.5, 0.25, 0.125):
        pts = [TFPoint(0, 0), TFPoint(scale, 0), TFPoint(0, scale), TFPoint(scale, scale)]
        sigmas.append(hrt_independence(g, pts).details["sigma_min"])
    assert all(s2 < s1 for s1, s2 in zip(sigmas, sigmas[1:]))


def test_hrt_preconditions():
    g = sampled_gaussian(half_width=4.0)
    with pytest.raises(DomainError):
        hrt_independence(g, [TFPoint(0, 0), TFPoint(0, 0)])
    zero = SampledWindow(0.0, 0.5, np.zeros(4), (0.0, 2.0))
    with pytest.raises(DomainError):
        hrt_independence(zero, [TFPoint(0, 0)])


def test_ron_shen_with_cyclic_canonical_dual_window():
    # painless regime a=1, b=1/4 for a support-2 window: the canonical dual
    # from a matched cyclic grid (rescaled by 1/step for continuous
    # normalization) satisfies the translation-bound criterion exactly
    from framelab.bspline import sample_bspline
    from framelab.gabor import canonical_dual_window

    step = 1 / 16
    g = sample_bspline(2, step)
    L, a_int, b_int = 64, 16, 1  # one unit of time, 4 cyclic units, b = b_int/(L*step)
    embedded = np.zeros(L, dtype=complex)
    embedded[:g.count] = g.samples
    dual_vec = canonical_dual_window(GaborSpec(L, a_int, b_int, embedded)) / step
    h = SampledWindow(0.0, step, dual_vec[:g.count], g.support_hint)
    report = ron_shen_duality_check(g, h, a=1.0, b=0.25)
    assert report.passed
    assert report.residuals["ron_shen"] <= 1e-10


def test_duplicated_window_duality_and_wexler_raz_equivalence():
    rng = np.random.default_rng(10)
    for L in (4, 6, 8):
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for a in divisors:
            for b in divisors:
                g = GaborSpec(L, a, b, rand_window(rng, L))
                h = GaborSpec(L, a, b, rand_window(rng, L))
                assert wexler_raz_check(g, h).passed


# -- Walnut block engine vs the dense oracles -----------------------------------


def test_window_must_be_finite():
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        w = np.ones(8, dtype=complex)
        w[3] = bad
        with pytest.raises(DomainError):
            GaborSpec(8, 2, 2, w)


def _specs(rng, L, a, b):
    return GaborSpec(L, a, b, rand_window(rng, L)), GaborSpec(L, a, b, rand_window(rng, L))


def _is_frame(spec, ratio=1e-6):
    fb = frame_bounds(finite_gabor_system(spec))
    return fb.lower > ratio * fb.upper


def _assert_bounds_match_dense(spec):
    fb = gabor_frame_bounds(spec)
    dense = frame_bounds(finite_gabor_system(spec))
    assert fb.upper == pytest.approx(dense.upper, rel=1e-12)
    assert fb.lower == pytest.approx(dense.lower, rel=1e-12, abs=1e-12 * dense.upper)


def _assert_dual_matches_dense(spec):
    expected = dense_canonical_dual(spec)
    got = canonical_dual_window(spec)
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def _assert_duality_residual_matches_dense(spec_g, spec_h):
    details = wexler_raz_check(spec_g, spec_h).details
    dense = duality_check(finite_gabor_system(spec_g), finite_gabor_system(spec_h))
    expected = dense.residuals["duality"]
    assert details["duality_residual"] == pytest.approx(expected, rel=1e-10, abs=1e-12)
    # the row-blocked adjoint Gram against the whole one
    bio = biorthogonality_residual(finite_gabor_system(spec_g.adjoint()),
                                   finite_gabor_system(spec_h.adjoint()))
    assert details["biorthogonality_residual"] == pytest.approx(bio, rel=1e-12)


def _assert_extension_matches_dense(spec_g, spec_h, r1_window=None):
    L, a, b = spec_g.L, spec_g.a, spec_g.b
    if r1_window is None:
        r1 = np.zeros(L, dtype=complex)
        r1[:a] = 1.0
        r2 = (b / L) * r1
    else:
        r1, r2 = r1_window, dense_canonical_dual(GaborSpec(L, a, b, r1_window))
    phi = np.eye(L) - dense_mixed_operator(spec_g, spec_h)
    g2, h2 = extend_gabor_windows(spec_g, spec_h, r1_window)
    expected = phi.conj().T @ r1
    assert np.abs(g2 - expected).max() <= 1e-10 * max(np.abs(expected).max(), 1.0)
    assert np.abs(h2 - r2).max() <= 1e-10 * np.abs(r2).max()


@pytest.mark.parametrize("L", ACCEPTANCE_LENGTHS)
def test_block_bounds_and_dual_match_dense(L):
    rng = np.random.default_rng(100 + L)
    for a, b in divisor_pairs(L):
        spec, partner = _specs(rng, L, a, b)
        _assert_bounds_match_dense(spec)
        _assert_duality_residual_matches_dense(spec, partner)
        if _is_frame(spec):
            _assert_dual_matches_dense(spec)
            dual = GaborSpec(L, a, b, canonical_dual_window(spec))
            _assert_duality_residual_matches_dense(spec, dual)


@pytest.mark.parametrize("L", ACCEPTANCE_LENGTHS)
def test_block_extension_matches_dense(L):
    rng = np.random.default_rng(200 + L)
    for a, b in divisor_pairs(L):
        if a * b > L:
            continue
        spec_g, spec_h = _specs(rng, L, a, b)
        _assert_extension_matches_dense(spec_g, spec_h)
        r1 = rand_window(rng, L)
        if _is_frame(GaborSpec(L, a, b, r1)):
            _assert_extension_matches_dense(spec_g, spec_h, r1)


def test_block_engine_matches_dense_at_L512():
    rng = np.random.default_rng(512)
    spec, partner = _specs(rng, 512, 8, 8)
    _assert_bounds_match_dense(spec)
    _assert_dual_matches_dense(spec)
    _assert_duality_residual_matches_dense(spec, partner)
    _assert_extension_matches_dense(spec, partner)


def _assert_commutation_matches_dense(report, A, a, b, floor):
    """Generator residuals equal the dense ones, the reported commutator bounds
    the dense loop over every lattice point, and the verdicts at 1e-10 agree."""
    L = A.shape[0]
    for key, P in (("translation_generator", dense_translation(L, a)),
                   ("modulation_generator", dense_modulation(L, b))):
        dense = float(np.linalg.norm(A @ P - P @ A, 2))
        assert report.details[key] == pytest.approx(dense, rel=1e-12, abs=floor)
    exact = dense_commutator_norm(A, a, b)
    assert report.residuals["commutator"] >= exact * (1 - 1e-12)
    assert report.passed == (exact <= 1e-10)
    return exact


@pytest.mark.parametrize("L", [L for L in ACCEPTANCE_LENGTHS if L <= 12])
def test_commutation_matches_dense_loop(L, monkeypatch):
    rng = np.random.default_rng(300 + L)
    for a, b in divisor_pairs(L):
        spec = GaborSpec(L, a, b, rand_window(rng, L))
        if not _is_frame(spec):
            continue
        Sinv = np.linalg.inv(frame_operator(finite_gabor_system(spec)))
        report = frame_operator_commutation_check(spec, tolerance=1e-10)
        # S^-1 commutes up to rounding, which the dense products round differently
        _assert_commutation_matches_dense(report, Sinv, a, b, floor=1e-13 * np.linalg.norm(Sinv, 2))
        # a positive definite operator that commutes with no lattice shift: the
        # residuals are far above rounding and must match the dense ones
        X = rand_window(rng, L * L).reshape(L, L)
        A = X @ X.conj().T + L * np.eye(L)
        monkeypatch.setattr(gabor_module, "frame_operator", lambda system: A)
        report = frame_operator_commutation_check(spec, tolerance=1e-10)
        monkeypatch.undo()
        exact = _assert_commutation_matches_dense(report, np.linalg.inv(A), a, b, floor=1e-15)
        assert exact > 1e-4 or (a, b) == (L, L)
        assert report.passed == ((a, b) == (L, L))
