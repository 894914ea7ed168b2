import numpy as np
import pytest

from framelab import extension
from framelab.core import (
    DomainError,
    VectorSystem,
    canonical_dual,
    frame_bounds,
    mixed_frame_matrix,
    random_system,
    standard_basis,
)
from framelab.extension import extend_to_dual_pair, verify_extension


def test_empty_input_returns_auxiliary_pair():
    empty = VectorSystem([], ambient_dim=3)
    p, q = extend_to_dual_pair(empty, empty)
    np.testing.assert_allclose(p.vectors, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(q.vectors, np.eye(3), atol=1e-15)
    assert verify_extension(empty, empty, p, q).passed


def test_already_dual_input_gives_zero_extension():
    onb = standard_basis(4)
    p, q = extend_to_dual_pair(onb, onb)
    assert np.abs(p.vectors).max() <= 1e-14
    np.testing.assert_allclose(q.vectors, np.eye(4), atol=1e-15)
    assert verify_extension(onb, onb, p, q).passed


def test_random_bessel_pair_with_canonical_dual_auxiliary():
    rng = np.random.default_rng(0)
    f = random_system(rng, 2, 4)
    g = random_system(rng, 2, 4)
    aux = random_system(rng, 6, 4)
    assert frame_bounds(aux).lower > 1e-6
    a, b = aux, canonical_dual(aux)
    p, q = extend_to_dual_pair(f, g, a, b)
    assert p.count == a.count == q.count
    report = verify_extension(f, g, p, q)
    assert report.passed
    assert report.residuals["duality"] <= 1e-10
    assert report.details["f_union_lower"] > 0
    assert report.details["g_union_lower"] > 0


def test_default_pair_equals_supplied_standard_basis_bitwise(monkeypatch):
    # the default skips the dual-pair check and the product with the identity
    rng = np.random.default_rng(5)
    cases = []
    for dim in (2, 3, 17, 64, 256):
        f = random_system(rng, dim // 2, dim)
        g = random_system(rng, dim // 2, dim)
        real = VectorSystem(f.vectors.real, ambient_dim=dim), VectorSystem(g.vectors.real, ambient_dim=dim)
        cases += [(f, g), real]
    supplied = [extend_to_dual_pair(f, g, standard_basis(f.ambient_dim), standard_basis(f.ambient_dim))
                for f, g in cases]

    def no_check(*args):
        raise AssertionError("the default pair was checked")

    monkeypatch.setattr(extension, "duality_check", no_check)
    for (f, g), (p_ref, q_ref) in zip(cases, supplied):
        p, q = extend_to_dual_pair(f, g)
        assert np.array_equal(p.vectors.view(np.uint64), p_ref.vectors.view(np.uint64))
        assert np.array_equal(q.vectors.view(np.uint64), q_ref.vectors.view(np.uint64))


def test_non_dual_auxiliary_rejected():
    rng = np.random.default_rng(1)
    f = random_system(rng, 2, 3)
    with pytest.raises(DomainError):
        extend_to_dual_pair(f, f, random_system(rng, 5, 3), random_system(rng, 5, 3))


def test_unrelated_families_fail_verification():
    rng = np.random.default_rng(2)
    f = random_system(rng, 3, 4)
    g = random_system(rng, 3, 4)
    a = random_system(rng, 4, 4)
    b = random_system(rng, 4, 4)
    report = verify_extension(f, g, a, b)
    assert not report.passed
    assert report.residuals["duality"] > 1e-6


def test_random_instances_sweep():
    rng = np.random.default_rng(3)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        count = int(rng.integers(0, dim + 1))
        f = random_system(rng, count, dim)
        g = random_system(rng, count, dim)
        p, q = extend_to_dual_pair(f, g)
        assert p.count == dim
        report = verify_extension(f, g, p, q)
        assert report.passed
        assert report.residuals["duality"] <= 1e-10


def test_prune_zero_drops_partner_rows():
    onb = standard_basis(3)
    p, q = extend_to_dual_pair(onb, onb, prune_zero=True)
    assert p.count == 0 and q.count == 0
    assert verify_extension(onb, onb, p, q).passed


def test_operator_identity_via_reconstruction_path():
    rng = np.random.default_rng(4)
    f = random_system(rng, 3, 5)
    g = random_system(rng, 3, 5)
    p, q = extend_to_dual_pair(f, g)
    Phi = np.eye(5) - mixed_frame_matrix(f, g)
    path = mixed_frame_matrix(p, q)  # x -> sum_j <x, p_j> q_j
    assert np.abs(Phi - path).max() <= 1e-12 * max(1.0, np.abs(Phi).max())
