import math

import numpy as np
import pytest

import framelab.gabor as gabor_module
from framelab.bspline import dual_window_solve
from framelab.core import (
    DomainError,
    GridError,
    LatticeError,
    _as_rational,
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
from oracles import dense_adjoint_biorthogonality, gathered_walnut_blocks, lattice_tables, looped_ron_shen

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


def test_commutation_verdict_does_not_depend_on_window_scale():
    # S^-1 scales by 1 / scale^2; the residual is relative to ||S^-1|| = 1/A,
    # so the verdict and the residual stay put (the absolute commutator at
    # scale 1e-4 is about 1e-7)
    rng = np.random.default_rng(0)
    w = rand_window(rng, 24)
    reports = [frame_operator_commutation_check(GaborSpec(24, 4, 3, scale * w))
               for scale in (1e-4, 1.0, 1e4)]
    assert all(report.passed for report in reports)
    residuals = [report.residuals["commutator"] for report in reports]
    assert max(residuals) < 1e-12
    assert max(residuals) < 2 * min(residuals)


def test_commutation_passes_an_ill_conditioned_frame():
    rng = np.random.default_rng(4)
    w = rand_window(rng, 24)
    w[::4] *= 1e-3
    spec = GaborSpec(24, 4, 3, w)
    assert 1e-7 < gabor_frame_bounds(spec).ratio < 3e-7
    report = frame_operator_commutation_check(spec)
    assert report.passed
    # the absolute generator commutators are above 1e-10, ||S^-1|| = 1/A about 4e4
    assert report.details["translation_generator"] > 1e-10


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


def test_ron_shen_steps_are_exact_whole_numbers_of_the_grid():
    # a = 1.00000000001 is 64.00000000064 steps of 1/64: a slack of 1e-9 steps read it as 64
    g = sampled_indicator(0.0, 1.0, step=1 / 64)
    with pytest.raises(GridError, match="a = 1.00000000001 is not an integer number of grid steps"):
        ron_shen_duality_check(g, g, 1.00000000001, 1.0)


def _ron_shen_cases():
    """(g, h, a, b) sampled-line cases: Gaussians, indicators, splines, the
    dual_window_solve windows, random windows, and a = one grid step."""
    from framelab.bspline import dual_window_solve, sample_bspline

    chi = sampled_indicator(0.0, 1.0, 1 / 16)
    gauss = sampled_gaussian(4.0, 1 / 16)
    cases = [(chi, chi, 1.0, 1.0), (chi, chi, 0.5, 1.0), (chi, chi, 1.0, 0.5),
             (chi, sampled_indicator(0.0, 0.5, 1 / 16), 0.5, 2.0),
             (sampled_indicator(-0.5, 1.25, 1 / 16), chi, 0.25, 0.5),
             (gauss, gauss, 1.0, 1.0), (gauss, gauss, 0.5, 0.5), (gauss, chi, 0.25, 2.0),
             (chi, chi, 1 / 16, 1.0), (gauss, gauss, 1 / 16, 0.25)]
    chi_32 = sampled_indicator(0.0, 1.0, 1 / 32)
    for N in (1, 2, 3, 4):
        spline = sample_bspline(N, 1 / 32)
        cases += [(spline, spline, 1.0, 1 / (2 * N)), (spline, chi_32, 0.5, 1.0)]
    for N, b in ((2, 0.25), (2, 0.2), (3, 0.2), (2, 1 / 3)):
        window, _ = dual_window_solve(N, b)
        cases.append((sample_bspline(N, window.step), window, 1.0, b))
    rng = np.random.default_rng(46)
    for _ in range(30):
        step = 1 / int(rng.choice([4, 8, 16]))
        windows = []
        for _ in range(2):
            x0 = step * int(rng.integers(-20, 20))
            count = int(rng.integers(1, 40))
            samples = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            windows.append(SampledWindow(x0, step, samples, (x0, x0 + step * (count - 1))))
        a = step * int(rng.integers(1, 12))
        b = 1 / (step * int(rng.integers(1, 24)))
        cases.append((*windows, a, b))
    return cases


def test_ron_shen_matches_the_loop_over_n_and_k_repr_for_repr():
    for g, h, a, b in _ron_shen_cases():
        assert repr(ron_shen_duality_check(g, h, a, b)) == repr(looped_ron_shen(g, h, a, b))


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
                    frequency_step = _as_rational(b, "b") * _as_rational(step, "the step")
                    if expected is None:
                        with pytest.raises(LatticeError, match="no feasible cycle length"):
                            gabor_module._cycle_length(a_int, frequency_step, span)
                    else:
                        assert gabor_module._cycle_length(a_int, frequency_step, span) == expected
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
    # the a b adjoint inner products against the whole dense adjoint Gram; for
    # a b > L the a b adjoint vectors in C^L are dependent, never biorthogonal
    bio = dense_adjoint_biorthogonality(spec_g, spec_h)
    assert abs(details["biorthogonality_residual"] - bio) <= 1e-13 * max(1.0, bio)
    assert bio > 1e-3 or spec_g.a * spec_g.b <= spec_g.L


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


@pytest.mark.parametrize("L", tuple(range(4, 25)) + (48, 64))
def test_walnut_blocks_match_the_gather_over_n(L):
    # block r is class block r0 = r mod gcd(L/b, a), rows and columns cycled by t, t L/b = r - r0 (mod a)
    rng = np.random.default_rng(700 + L)
    for a, b in divisor_pairs(L):
        g, h = rand_window(rng, L), rand_window(rng, L)
        q = L // b
        expected = gathered_walnut_blocks(g, h, a, b)
        scale = np.abs(expected).max(axis=(1, 2))  # block by block
        classes = gabor_module._class_blocks(g, h, a, b)
        assert classes.shape == (math.gcd(q, a), b, b)
        for r in range(q):
            r0 = r % classes.shape[0]
            t = next(t for t in range(a) if (t * q - (r - r0)) % a == 0)
            cycled = np.roll(classes[r0], (-t, -t), axis=(0, 1))
            assert np.abs(cycled - expected[r]).max() <= 1e-13 * scale[r]
        every = gabor_module._walnut_blocks(gabor_module._walnut_table(g, h, a, b), q, q)
        assert np.all(np.abs(every - expected).max(axis=(1, 2)) <= 1e-13 * scale)


def _memoized_tables(L, a, b):
    """The tables of lattice (L, a, b) as the kernels look them up, named as in oracles.lattice_tables."""
    q = L // b
    g = math.gcd(q, a)
    G = gabor_module
    return {
        "shifts": G._shift_index(L, a),
        "modulations": G._modulations(L, b),
        "walnut index": G._walnut_index(L, q),
        "class block rows": G._block_rows(a, b, q, g)[:, :, None],
        "all block rows": G._block_rows(a, b, q, q)[:, :, None],
        "block cols": G._block_cols(b),
        "write-back rows": G._block_rows(a, b, q, g)[:, :a // g, None],
        "write-back cols": G._block_cols(b)[:a // g],
        "adjoint shifts": G._shift_index(L, q),
        "adjoint phases": G._adjoint_phases(L, a),
        "commutation phase": G._commutation_phase(L, b),
    }


def _bits(x):
    return (x.dtype, x.shape, x.tobytes())


@pytest.mark.parametrize("L", tuple(range(4, 25)) + (48, 64))
def test_lattice_tables_are_the_inline_formulas_bit_for_bit(L):
    pairs = divisor_pairs(L)
    for a, b in pairs:
        assert (L // b, L // a) in pairs  # so every adjoint lattice is checked too
        expected = lattice_tables(L, a, b)
        for _ in ("cold", "warm"):
            tables = _memoized_tables(L, a, b)
            assert tables.keys() == expected.keys()
            for name, table in tables.items():
                assert _bits(table) == _bits(expected[name]), (a, b, name)


def test_checks_give_equal_results_with_a_cold_and_a_warm_memo():
    rng = np.random.default_rng(29)

    def run(spec, partner, frame):
        out = [duality_principle_check(spec), wexler_raz_check(spec, partner)]
        if spec.a * spec.b <= spec.L:
            out += [_bits(w) for w in extend_gabor_windows(spec, partner)]
        if frame:
            out += [_bits(canonical_dual_window(spec)), frame_operator_commutation_check(spec)]
        return out

    for L in ACCEPTANCE_LENGTHS + (48,):
        for a, b in divisor_pairs(L):
            spec, partner = _specs(rng, L, a, b)
            frame = _is_frame(spec)
            gabor_module._lattice_tables.clear()
            cold = run(spec, partner, frame)
            assert gabor_module._lattice_tables
            assert run(spec, partner, frame) == cold


def test_lattice_tables_are_read_only():
    # the ones kept and, with 2^16 elements, one built per call
    for table in [*_memoized_tables(12, 2, 3).values(), gabor_module._commutation_phase(256, 2)]:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0


def test_memo_keeps_no_table_over_its_cap():
    G, cap = gabor_module, gabor_module._MEMO_ELEMENTS
    over = [G._shift_index(256, 2), G._modulations(256, 2), G._walnut_index(4096, 512),
            G._block_rows(256, 256, 128, 128), G._block_cols(256), G._adjoint_phases(8192, 4),
            G._commutation_phase(256, 2)]
    assert min(table.size for table in over) > cap
    assert G._lattice_tables == {}
    assert G._shift_index(128, 1).size == cap  # (128, 128): at the cap, kept
    assert len(G._lattice_tables) == 1


def test_memo_never_holds_more_than_its_bound():
    G, rng, most = gabor_module, np.random.default_rng(30), 0
    for L in (24, 48):
        for a, b in divisor_pairs(L):
            spec, partner = _specs(rng, L, a, b)
            for check in (lambda: duality_principle_check(spec), lambda: wexler_raz_check(spec, partner)):
                check()
                most = max(most, len(G._lattice_tables))
                assert len(G._lattice_tables) <= G._MEMO_TABLES
    assert most == G._MEMO_TABLES
    # 16 bytes an element at most: the worst case the gabor docstring states, within 8 MB
    assert sum(t.nbytes for t in G._lattice_tables.values()) <= G._MEMO_TABLES * G._MEMO_ELEMENTS * 16
    assert G._MEMO_TABLES * G._MEMO_ELEMENTS * 16 <= 8_000_000


def test_undersampled_lattice_lower_bound_is_zero_by_counting(monkeypatch):
    # a b > L: each block has rank at most L/a < b, so the lower bound is 0.0
    # whatever the eigensolver returns; here it is made to return a positive floor
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda K: eigvalsh(K) + 1.0)
    rng = np.random.default_rng(402)
    for L in ACCEPTANCE_LENGTHS:
        for a, b in divisor_pairs(L):
            fb = gabor_frame_bounds(GaborSpec(L, a, b, rand_window(rng, L)))
            assert (fb.lower == 0.0) == (a * b > L)
            assert fb.upper >= 1.0


@pytest.mark.parametrize("L", tuple(range(4, 33)) + (48, 64))
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


def _assert_commutation_matches_dense(report, A, a, b, floor, lower):
    """Generator residuals equal the dense ones, the reported commutator bounds
    the dense loop over every lattice point times the lower frame bound, and
    the verdicts at 1e-10 agree."""
    L = A.shape[0]
    for key, P in (("translation_generator", dense_translation(L, a)),
                   ("modulation_generator", dense_modulation(L, b))):
        dense = float(np.linalg.norm(A @ P - P @ A, 2))
        assert report.details[key] == pytest.approx(dense, rel=1e-12, abs=floor)
    exact = lower * dense_commutator_norm(A, a, b)
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
        lower = gabor_frame_bounds(spec).lower
        Sinv = np.linalg.inv(frame_operator(finite_gabor_system(spec)))
        report = frame_operator_commutation_check(spec, tolerance=1e-10)
        # S^-1 commutes up to rounding, which the dense products round differently
        _assert_commutation_matches_dense(report, Sinv, a, b,
                                          floor=1e-13 * np.linalg.norm(Sinv, 2), lower=lower)
        # a positive definite operator that commutes with no lattice shift: the
        # residuals are far above rounding and must match the dense ones
        X = rand_window(rng, L * L).reshape(L, L)
        A = X @ X.conj().T + L * np.eye(L)
        monkeypatch.setattr(gabor_module, "frame_operator", lambda system: A)
        report = frame_operator_commutation_check(spec, tolerance=1e-10)
        monkeypatch.undo()
        exact = _assert_commutation_matches_dense(report, np.linalg.inv(A), a, b, floor=1e-15,
                                                  lower=lower)
        assert exact > 1e-4 or (a, b) == (L, L)
        assert report.passed == ((a, b) == (L, L))


def test_extension_cycle_past_the_float_range_is_a_domain_error():
    g = sampled_indicator(0.0, 1.0, 0.25)
    with pytest.raises(DomainError, match="too large"):
        gabor_extension(g, g, 1.0, 0.5, L=10 ** 400)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0, "abc"])
@pytest.mark.parametrize("check", [
    lambda tol: ron_shen_duality_check(sampled_indicator(0.0, 1.0, 0.25),
                                       sampled_indicator(0.0, 1.0, 0.25), 1.0, 1.0, tol),
    lambda tol: hrt_independence(sampled_gaussian(4.0, 0.125), [(0, 0), (1, 0)], tol),
    lambda tol: dual_window_solve(2, 0.25, tolerance=tol),
], ids=["ron_shen", "hrt", "dual_window"])
def test_explicit_tolerance_must_be_finite_and_positive(check, tolerance):
    # the three checks with their own defaults validate a given tolerance like
    # every other check: unchecked, nan would fail the exact dual pair with
    # residual 0.0, inf would pass anything and -1 fail an independent pair
    with pytest.raises(DomainError, match="tolerance"):
        check(tolerance)
