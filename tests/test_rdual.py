import numpy as np
import pytest

import framelab.rdual as rdual_module

from framelab.core import (
    DomainError,
    SingularSystemError,
    VectorSystem,
    canonical_dual,
    frame_bounds,
    random_system,
    riesz_bounds,
    standard_basis,
)
from framelab.rdual import (
    OrthonormalPair,
    n_sequence,
    r_dual,
    r_dual_inverse_check,
    verify_dual_pair_biorthogonality,
    verify_rdual_theorem,
)


def test_r_dual_of_e_basis_is_h_basis():
    rng = np.random.default_rng(0)
    pair = OrthonormalPair.random(rng, 4)
    omega = r_dual(pair.e_basis, pair)
    np.testing.assert_allclose(omega.vectors, pair.h_basis.vectors, atol=1e-12)
    # linearity: scaling carries through
    scaled = r_dual(VectorSystem(2.5j * pair.e_basis.vectors), pair)
    np.testing.assert_allclose(scaled.vectors, 2.5j * pair.h_basis.vectors, atol=1e-12)


def test_r_dual_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    N = 3
    pair = OrthonormalPair.standard(N)
    f = random_system(rng, N, N)
    omega = r_dual(f, pair)
    for j in range(N):
        expected = np.zeros(N, dtype=complex)
        for i in range(N):
            inner = np.sum(f.vectors[i] * np.conj(pair.e_basis.vectors[j]))
            expected += inner * pair.h_basis.vectors[i]
        np.testing.assert_allclose(omega.vectors[j], expected, atol=1e-12)


def test_r_dual_count_constraint():
    pair = OrthonormalPair.standard(3)
    with pytest.raises(DomainError):
        r_dual(VectorSystem([[1, 0, 0]]), pair)


def test_inverse_check_round_trip_and_perturbation():
    rng = np.random.default_rng(2)
    pair = OrthonormalPair.random(rng, 5)
    f = random_system(rng, 5, 5)
    omega = r_dual(f, pair)
    assert r_dual_inverse_check(f, omega, pair).passed
    assert r_dual_inverse_check(f, omega, pair).residuals["inversion"] <= 1e-12

    bumped = VectorSystem(omega.vectors + 1e-3 * np.eye(5))
    report = r_dual_inverse_check(f, bumped, pair)
    assert not report.passed
    assert report.residuals["inversion"] == pytest.approx(1e-3, rel=0.2)

    trivial = OrthonormalPair.standard(2)
    assert r_dual_inverse_check(trivial.e_basis, trivial.h_basis, trivial).passed


def test_bound_transfer_onb_and_diagonal():
    pair = OrthonormalPair.standard(3)
    rep = verify_rdual_theorem(standard_basis(3), pair)
    for b in (rep.frame_f, rep.riesz_omega):
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(1.0, abs=1e-12)

    diag = VectorSystem(np.diag([1.0, 2.0, 3.0]))
    rep = verify_rdual_theorem(diag, pair)
    assert rep.frame_f.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.frame_f.upper == pytest.approx(9.0, abs=1e-12)
    assert rep.riesz_omega.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.riesz_omega.upper == pytest.approx(9.0, abs=1e-12)
    assert rep.bound_gap <= 1e-10


def test_bound_transfer_random_bases():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pair = OrthonormalPair.random(rng, 8)
        f = random_system(rng, 8, 8)
        rep = verify_rdual_theorem(f, pair)
        assert rep.bound_gap <= 1e-10
        assert rep.involution_residual <= 1e-12 * max(1.0, np.abs(f.vectors).max())


def test_bessel_transfer_for_singular_systems():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pair = OrthonormalPair.random(rng, 6)
        f_mat = random_system(rng, 6, 6).vectors.copy()
        f_mat[3] = f_mat[0]  # force linear dependence
        f = VectorSystem(f_mat)
        rep = verify_rdual_theorem(f, pair)
        floor = 1e-10 * rep.frame_f.upper
        assert abs(rep.frame_f.upper - rep.riesz_omega.upper) <= floor
        assert rep.frame_f.lower <= 1e-10 * rep.frame_f.upper
        assert rep.riesz_omega.lower <= 1e-10 * rep.riesz_omega.upper


def test_duality_biorthogonality_equivalence():
    rng = np.random.default_rng(5)
    pair = OrthonormalPair.random(rng, 4)
    onb = standard_basis(4)
    assert verify_dual_pair_biorthogonality(onb, onb, pair).passed

    basis = random_system(rng, 4, 4)
    assert frame_bounds(basis).lower > 1e-6
    dual = canonical_dual(basis)
    rep = verify_dual_pair_biorthogonality(basis, dual, pair)
    assert rep.passed
    assert rep.details["duality_residual"] <= 1e-10
    assert rep.details["biorthogonality_residual"] <= 1e-10

    # both sides must fail consistently on a scaled pair
    rep = verify_dual_pair_biorthogonality(onb, VectorSystem(2 * np.eye(4)), pair)
    assert rep.passed  # verdicts agree (both fail)
    assert rep.details["duality_residual"] > 0.5
    assert rep.details["biorthogonality_residual"] == pytest.approx(1.0, abs=1e-12)


def test_n_sequence_trivial_and_scaled():
    pair = OrthonormalPair.standard(3)
    onb = standard_basis(3)
    ns = n_sequence(onb, onb, pair)
    np.testing.assert_allclose(ns.vectors.vectors, np.eye(3), atol=1e-12)
    assert ns.tight_bound_estimate.lower == pytest.approx(1.0, abs=1e-12)
    assert ns.tight_bound_estimate.upper == pytest.approx(1.0, abs=1e-12)
    assert ns.report.passed

    scaled = VectorSystem(2 * np.eye(3))
    ns = n_sequence(onb, scaled, pair)
    np.testing.assert_allclose(ns.vectors.vectors, np.eye(3) / 2, atol=1e-12)
    assert ns.tight_bound_estimate.lower == pytest.approx(0.25, abs=1e-12)
    assert ns.tight_bound_estimate.upper == pytest.approx(0.25, abs=1e-12)
    assert not ns.report.passed  # tight, but bound differs from 1


def test_swapped_exchanges_the_bases_without_revalidating(monkeypatch):
    pair = OrthonormalPair.random(np.random.default_rng(7), 5)

    def revalidated(*args):
        raise AssertionError("an orthonormality check ran again")

    monkeypatch.setattr(rdual_module, "biorthogonality_residual", revalidated)
    swapped = pair.swapped()
    assert isinstance(swapped, OrthonormalPair)
    assert (swapped.e_basis, swapped.h_basis) == (pair.h_basis, pair.e_basis)
    assert (swapped.swapped().e_basis, swapped.swapped().h_basis) == (pair.e_basis, pair.h_basis)


def test_n_sequence_degenerate_omega_raises():
    pair = OrthonormalPair.standard(3)
    with pytest.raises(SingularSystemError):
        n_sequence(standard_basis(3), VectorSystem([[1, 0, 0], [1, 0, 0]]), pair)


def test_n_sequence_bound_sandwich():
    rng = np.random.default_rng(6)
    for _ in range(100):
        N = 6
        pair = OrthonormalPair.random(rng, N)
        f = random_system(rng, N, N)
        fb = frame_bounds(f)
        if fb.lower < 1e-6:
            continue
        M = int(rng.integers(2, N + 1))
        omega = random_system(rng, M, N)
        ob = riesz_bounds(omega)
        if ob.lower < 1e-6:
            continue
        ns = n_sequence(f, omega, pair)
        slack = 1e-9 * fb.upper / ob.lower
        assert ns.tight_bound_estimate.lower >= fb.lower / ob.upper - slack
        assert ns.tight_bound_estimate.upper <= fb.upper / ob.lower + slack
