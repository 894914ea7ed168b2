import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import framelab
from framelab.core import (
    AnalysisReport,
    DimensionMismatch,
    DomainError,
    FrameBounds,
    GridError,
    SingularSystemError,
    VectorSystem,
    _as_rational,
    _decode_pairs,
    _float_rational,
    _encode_pairs,
    _operator_norm,
    _rounding_interval,
    _spectral_bounds,
    analysis,
    biorthogonality_residual,
    canonical_dual,
    concat_systems,
    cross_gram,
    duality_check,
    frame_bounds,
    frame_operator,
    random_system,
    resolve_tolerance,
    riesz_bounds,
    standard_basis,
    synthesis,
)
from oracles import rayleigh_extremes

MERCEDES = VectorSystem(
    [[0, 1], [-np.sqrt(3) / 2, -0.5], [np.sqrt(3) / 2, -0.5]], label="mercedes"
)


def test_synthesis_basis_reproduction():
    onb = standard_basis(2)
    np.testing.assert_allclose(synthesis(onb, [1, 0]), [1, 0])


def test_synthesis_zero_coefficients():
    sys = VectorSystem([[1, 2], [3, 4j]])
    np.testing.assert_allclose(synthesis(sys, [0, 0]), [0, 0])


def test_synthesis_cancellation():
    sys = VectorSystem([[1, 0], [1, 0]])
    np.testing.assert_allclose(synthesis(sys, [1, -1]), [0, 0])


def test_synthesis_length_mismatch():
    with pytest.raises(DimensionMismatch):
        synthesis(standard_basis(2), [1, 0, 0])


def test_analysis_onb_coordinates():
    onb = standard_basis(3)
    np.testing.assert_allclose(analysis(onb, [1, 0, 0]), [1, 0, 0])


def test_analysis_empty_system():
    empty = VectorSystem([], ambient_dim=2)
    assert analysis(empty, [1, 1]).shape == (0,)


def test_analysis_by_hand():
    sys = VectorSystem([[1, 0], [0, 2]])
    np.testing.assert_allclose(analysis(sys, [1, 1]), [1, 2])


def test_analysis_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        analysis(standard_basis(2), [1, 0, 0])


def test_frame_operator_onb_identity():
    np.testing.assert_allclose(frame_operator(standard_basis(4)), np.eye(4), atol=1e-15)


def test_frame_operator_mercedes_tight():
    # explicit 2x2 sum of the three outer products gives (3/2) I
    np.testing.assert_allclose(frame_operator(MERCEDES), 1.5 * np.eye(2), atol=1e-14)


def test_frame_operator_tight_scaling():
    sys = VectorSystem(np.sqrt(2.0) * np.eye(3))
    np.testing.assert_allclose(frame_operator(sys), 2.0 * np.eye(3), atol=1e-14)


def test_frame_bounds_onb():
    fb = frame_bounds(standard_basis(3))
    assert fb.lower == pytest.approx(1.0, abs=1e-14)
    assert fb.upper == pytest.approx(1.0, abs=1e-14)


def test_frame_bounds_repeated_vector():
    fb = frame_bounds(VectorSystem([[1, 0], [1, 0], [0, 1]]))
    assert fb.lower == pytest.approx(1.0, abs=1e-14)
    assert fb.upper == pytest.approx(2.0, abs=1e-14)


def test_frame_bounds_rank_one_modes():
    single = VectorSystem([[1, 0]])
    full = frame_bounds(single, "full_space")
    assert full.lower == pytest.approx(0.0, abs=1e-14)
    assert full.upper == pytest.approx(1.0, abs=1e-14)
    span = frame_bounds(single, "span")
    assert span.lower == pytest.approx(1.0, abs=1e-14)
    assert span.upper == pytest.approx(1.0, abs=1e-14)


def test_frame_bounds_span_empty_raises():
    with pytest.raises(DomainError):
        frame_bounds(VectorSystem([], ambient_dim=2), "span")


def test_riesz_bounds_examples():
    onb = riesz_bounds(standard_basis(3))
    assert (onb.lower, onb.upper) == (pytest.approx(1.0), pytest.approx(1.0))

    dependent = riesz_bounds(VectorSystem([[1, 0], [1, 0]]))
    assert dependent.lower == pytest.approx(0.0, abs=1e-14)
    assert dependent.upper == pytest.approx(2.0, abs=1e-14)

    pair = riesz_bounds(VectorSystem([[1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)]]))
    assert pair.lower == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)
    assert pair.upper == pytest.approx(1 + 1 / np.sqrt(2), abs=1e-12)

    with pytest.raises(DomainError):
        riesz_bounds(VectorSystem([], ambient_dim=2))


@pytest.mark.parametrize("count,dim", [(1, 2), (3, 8), (7, 24), (24, 7), (40, 3), (576, 24)])
def test_rank_deficient_bounds_match_dense(count, dim):
    # fewer vectors than dimensions (frame bounds) or more (Riesz bounds):
    # the lower bound is exactly 0 and the upper bound comes from the smaller
    # of S and G; check it against the dense eigensolve of the larger one
    sys = random_system(np.random.default_rng(count * 100 + dim), count, dim)
    if count < dim:
        bounds, dense = frame_bounds(sys), np.linalg.eigvalsh(frame_operator(sys))
    else:
        V = sys.vectors
        bounds, dense = riesz_bounds(sys), np.linalg.eigvalsh(V.conj() @ V.T)
    assert bounds.lower == 0.0
    assert bounds.upper == pytest.approx(dense[-1], rel=1e-12)
    assert abs(dense[0]) <= 1e-12 * dense[-1]


def test_canonical_dual_onb_and_tight():
    onb = standard_basis(3)
    np.testing.assert_allclose(canonical_dual(onb).vectors, onb.vectors, atol=1e-14)
    # tight frame with bound A: dual is the 1/A rescaling
    np.testing.assert_allclose(canonical_dual(MERCEDES).vectors, (2 / 3) * MERCEDES.vectors, atol=1e-14)


def test_canonical_dual_singular_raises():
    with pytest.raises(SingularSystemError):
        canonical_dual(VectorSystem([[1, 0]]), "full_space")


def test_canonical_dual_span_mode_reconstructs_on_span():
    sys = VectorSystem([[2, 0, 0], [0, 1, 0]])
    dual = canonical_dual(sys, "span")
    # reconstruction of anything in the span of the system
    for probe in ([1, 0, 0], [0, 1, 0], [2, -3, 0]):
        rec = synthesis(sys, analysis(dual, probe))
        np.testing.assert_allclose(rec, probe, atol=1e-12)


def test_duality_check_examples():
    onb = standard_basis(2)
    assert duality_check(onb, onb).passed
    assert duality_check(onb, onb).residuals["duality"] == pytest.approx(0.0, abs=1e-15)

    rng = np.random.default_rng(5)
    frame = random_system(rng, 5, 3)
    assert duality_check(frame, canonical_dual(frame)).passed

    report = duality_check(onb, VectorSystem([[1, 0], [1, 1]]))
    assert not report.passed
    assert report.residuals["duality"] == pytest.approx(1.0, abs=1e-12)


def test_cross_gram_examples():
    onb = standard_basis(3)
    np.testing.assert_allclose(cross_gram(onb, onb), np.eye(3), atol=1e-15)
    single = VectorSystem([[1, 0]])
    np.testing.assert_allclose(cross_gram(single, VectorSystem([[2, 0]])), [[2]])
    assert biorthogonality_residual(onb, onb) < 1e-15


def test_cross_gram_riesz_basis_dual_biorthogonal():
    rng = np.random.default_rng(7)
    basis = random_system(rng, 4, 4)
    dual = canonical_dual(basis)
    assert biorthogonality_residual(basis, dual) < 1e-10


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        AnalysisReport("pass", {"r": 1.0}, 1e-10)
    with pytest.raises(ValueError):
        AnalysisReport("maybe", {}, 1e-10)


def test_frame_bounds_invariant():
    with pytest.raises(ValueError):
        FrameBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        FrameBounds(-1.0, 1.0)


def test_json_csv_round_trip():
    rng = np.random.default_rng(3)
    sys = random_system(rng, 3, 2, label="roundtrip")
    back = VectorSystem.from_json_dict(sys.to_json_dict())
    np.testing.assert_allclose(back.vectors, sys.vectors)
    assert back.label == "roundtrip"
    # one row per vector, columns interleaved re,im,re,im,...
    text = "".join(",".join(map(repr, row)) + "\n" for row in sys.vectors.view(float).tolist())
    again = VectorSystem.from_csv(text)
    np.testing.assert_array_equal(again.vectors, sys.vectors)


def test_vectors_are_immutable():
    sys = standard_basis(2)
    with pytest.raises(ValueError):
        sys.vectors[0, 0] = 5.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_adjointness_property(dim, count, seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, count, dim)
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    lhs = np.vdot(f, synthesis(sys, c))  # <synthesis(c), f> with <x,y> = y^H x
    rhs = np.sum(c * np.conj(analysis(sys, f)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 7), st.integers(0, 2**31 - 1))
def test_frame_operator_is_synthesis_compose_analysis(dim, count, seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, count, dim)
    V = sys.vectors
    composed = V.T @ V.conj()
    assert np.abs(frame_operator(sys) - composed).max() <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_riesz_basis_bounds_match_frame_bounds(dim, seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, dim, dim)
    fb = frame_bounds(sys)
    if fb.lower < 1e-8:
        return  # nearly singular draw; bounds still agree but relative scale degenerates
    rb = riesz_bounds(sys)
    sv = np.linalg.svd(sys.vectors.T, compute_uv=False)
    for got in (fb, rb):
        assert abs(got.lower - sv[-1] ** 2) <= 1e-10 * sv[0] ** 2
        assert abs(got.upper - sv[0] ** 2) <= 1e-10 * sv[0] ** 2


def test_canonical_dual_involution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys = random_system(rng, 6, 4)
        if frame_bounds(sys).lower < 1e-6:
            continue
        twice = canonical_dual(canonical_dual(sys))
        assert np.abs(twice.vectors - sys.vectors).max() <= 1e-10 * np.abs(sys.vectors).max()


def test_duality_with_canonical_dual_random_frames():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 25:
        sys = random_system(rng, 7, 4)
        if frame_bounds(sys).lower < 1e-6:
            continue
        assert duality_check(sys, canonical_dual(sys)).passed
        checked += 1


def test_rayleigh_oracle_agrees_with_spectral_bounds():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(0, 7))
        sys = random_system(rng, count, dim, scale=1.0)
        fb = frame_bounds(sys)
        lo, hi = rayleigh_extremes(frame_operator(sys), rng, samples=1024, iterations=800)
        assert abs(fb.upper - hi) <= 1e-3
        assert abs(fb.lower - lo) <= 1e-3


def test_concat_systems():
    both = concat_systems(standard_basis(2), VectorSystem([[1, 1]]))
    assert both.count == 3
    with pytest.raises(DimensionMismatch):
        concat_systems(standard_basis(2), standard_basis(3))


def test_bound_agreement_residual_semantics():
    from framelab.core import SPECTRAL_ATOL, bound_agreement_residual

    # rounding-level disagreement of tiny eigenvalues is absorbed by the
    # absolute floor at the eigensolver resolution
    scale, tol = 10.0, 1e-10
    tiny = bound_agreement_residual(0.0, 5e-12 * scale, scale, tol)
    assert tiny <= tol
    # a genuine mismatch of macroscopic quantities is still caught
    big = bound_agreement_residual(1.0, 1.001, scale, tol)
    assert big > 1e-4
    # values above the floor keep their per-value relative scale
    x = 0.5 * scale
    off = bound_agreement_residual(x, x * (1 + 5e-10), scale, tol)
    assert off == pytest.approx(5e-10, rel=1e-3)
    assert SPECTRAL_ATOL == 1e-11


# -- construction-time validation and the (re, im) codec ------------------------


def _non_finite_constructions():
    from framelab.dilation import FreqFunction
    from framelab.exponentials import LambdaSet
    from framelab.gabor import SampledWindow

    nan, inf = float("nan"), float("inf")
    return [
        ("VectorSystem nan", lambda: VectorSystem([[1.0, 0.0], [nan, 1.0]])),
        ("VectorSystem inf", lambda: VectorSystem([[1.0, complex(0, -inf)]])),
        ("SampledWindow samples", lambda: SampledWindow(0.0, 0.5, [1.0, nan], (0.0, 0.5))),
        ("SampledWindow x0", lambda: SampledWindow(nan, 0.5, [1.0, 1.0], (0.0, 0.5))),
        ("SampledWindow step", lambda: SampledWindow(0.0, inf, [1.0], (0.0, 0.5))),
        ("FreqFunction values", lambda: FreqFunction(0.0, 0.5, [1.0, inf], (0.0, 1.0))),
        ("FreqFunction start", lambda: FreqFunction(nan, 0.5, [1.0], (0.0, 1.0))),
        ("LambdaSet nan", lambda: LambdaSet([0.0, nan, 2.0])),
        ("LambdaSet inf", lambda: LambdaSet([0.0, inf])),
        ("LambdaSet span", lambda: LambdaSet([-1e308, 1e308])),
    ]


@pytest.mark.parametrize("name, build", _non_finite_constructions(),
                         ids=[name for name, _ in _non_finite_constructions()])
def test_non_finite_input_rejected_at_construction(name, build):
    with pytest.raises(DomainError, match="finite"):
        build()


def test_spectral_bounds_of_one_matrix_or_a_stack_of_blocks():
    M = np.diag([0.5, 2.0, 3.0]).astype(complex)
    assert _spectral_bounds(M) == FrameBounds(0.5, 3.0)
    lower = _spectral_bounds(M, rank_deficient=True).lower
    assert lower == 0.0 and math.copysign(1.0, lower) == 1.0
    blocks = np.stack([np.diag([1.0, 4.0]), np.diag([0.5, 2.0])])
    assert _spectral_bounds(blocks) == FrameBounds(0.5, 4.0)
    # rounding below zero is clamped at both ends, and an empty matrix has (0, 0)
    assert _spectral_bounds(np.diag([-1e-17, 1.0])) == FrameBounds(0.0, 1.0)
    assert _spectral_bounds(-np.eye(2)) == FrameBounds(0.0, 0.0)
    assert _spectral_bounds(np.zeros((0, 0))) == FrameBounds(0.0, 0.0)


def test_operator_norm_is_the_bits_of_numpy_norm_2():
    rng = np.random.default_rng(31)
    for shape in [(1, 1), (5, 5), (16, 16), (3, 7), (9, 2), (24, 40)]:
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert _operator_norm(M) == np.linalg.norm(M, 2)
    stack = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    assert np.array_equal(_operator_norm(stack), [np.linalg.norm(M, 2) for M in stack])


def _grid_classes():
    """(class, its values attribute, message names, cell) of both sampled-function types."""
    from framelab.dilation import FreqFunction
    from framelab.gabor import SampledWindow

    return [
        pytest.param(SampledWindow, "samples", ("x0", "samples", "support hint", "samples"), False,
                     id="SampledWindow"),
        pytest.param(FreqFunction, "values", ("start", "values", "band", "cells"), True,
                     id="FreqFunction"),
    ]


GRID_CLASSES = pytest.mark.parametrize("cls, attr, names, cell", _grid_classes())
NAN, INF = float("nan"), float("inf")


def _raises_exactly(exc, message):
    return pytest.raises(exc, match="^" + re.escape(message) + "$")


@GRID_CLASSES
@pytest.mark.parametrize("origin, step, values", [
    (NAN, 0.25, [1.0]), (INF, 0.25, [1.0]), (-INF, 0.25, [1.0]),
    (0.0, NAN, [1.0]), (0.0, INF, [1.0]),
    (0.0, 0.25, [1.0, NAN]), (0.0, 0.25, [complex(0.0, INF)]), (0.0, 0.25, [-INF, 0.0]),
], ids=["origin nan", "origin inf", "origin -inf", "step nan", "step inf",
        "values nan", "values imag inf", "values -inf"])
def test_sampled_function_rejects_non_finite_input(cls, attr, names, cell, origin, step, values):
    with _raises_exactly(DomainError, f"{names[0]}, step and {names[1]} must be finite (no NaN or Inf)"):
        cls(origin, step, values, (0.0, 1.0))


@GRID_CLASSES
@pytest.mark.parametrize("step", [0.0, -0.25, -INF])
def test_sampled_function_rejects_a_nonpositive_step(cls, attr, names, cell, step):
    with _raises_exactly(GridError, "step must be positive"):
        cls(0.0, step, [1.0], (0.0, 1.0))


@GRID_CLASSES
@pytest.mark.parametrize("interval", [(1.0, 0.0), (0.0, INF), (-INF, 1.0), (NAN, 1.0), (0.0, NAN)],
                         ids=["reversed", "hi inf", "lo -inf", "lo nan", "hi nan"])
def test_sampled_function_rejects_a_bad_interval(cls, attr, names, cell, interval):
    with _raises_exactly(DomainError, f"{names[2]} must be a finite interval"):
        cls(0.0, 0.25, [1.0], interval)


@GRID_CLASSES
@pytest.mark.parametrize("origin, values", [
    (-0.25, [1.0, 1.0, 1.0]),  # the first sample one step below lo
    (0.0, [1.0, 1.0, 1.0, 1.0, 0.0, 2.0]),  # a sample at 1.25, past hi
], ids=["below", "above"])
def test_sampled_function_rejects_a_nonzero_value_outside(cls, attr, names, cell, origin, values):
    with _raises_exactly(DomainError, f"{names[2]} does not contain all nonzero {names[3]}"):
        cls(origin, 0.25, values, (0.0, 1.0))


@GRID_CLASSES
def test_sampled_function_interval_tolerance_is_1e_12(cls, attr, names, cell):
    # the last sample, or the end of the last cell, is at 1.0
    values = [1.0] * (4 if cell else 5)
    assert cls(0.0, 0.25, values, (0.0, 1.0 - 1e-13)).count == len(values)
    with _raises_exactly(DomainError, f"{names[2]} does not contain all nonzero {names[3]}"):
        cls(0.0, 0.25, values, (0.0, 1.0 - 1e-9))


@GRID_CLASSES
def test_sampled_function_interval_holds_samples_or_cells(cls, attr, names, cell):
    # four values at 0, 0.25, 0.5, 0.75: the samples end at 0.75, the cells at 1.0
    if cell:
        with _raises_exactly(DomainError, "band does not contain all nonzero cells"):
            cls(0.0, 0.25, [1.0] * 4, (0.0, 0.75))
    else:
        assert cls(0.0, 0.25, [1.0] * 4, (0.0, 0.75)).count == 4
    # zeros may lie outside the interval
    assert cls(-0.25, 0.25, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], (0.0, 0.25)).count == 6


@GRID_CLASSES
def test_sampled_function_values_are_a_read_only_copy(cls, attr, names, cell):
    source = np.array([1.0, 2.0, 3.0])
    fn = cls(0, 0.25, source, (0, 1))
    values = getattr(fn, attr)
    assert values.dtype == complex and not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 5.0
    source[0] = 7.0
    assert values.tolist() == [1.0, 2.0, 3.0]
    origin, interval = (fn.x0, fn.support_hint) if attr == "samples" else (fn.start, fn.band)
    assert type(origin) is float and type(fn.step) is float
    assert interval == (0.0, 1.0) and all(type(v) is float for v in interval)


def test_pair_codec_is_bit_exact():
    values = np.array([[0.1 - 0.0j, complex(-0.0, 0.0)], [complex(0.0, -0.0), 1e-308 + 3j]])
    pairs = _encode_pairs(values)
    assert pairs[1][0] == [0.0, -0.0] and math.copysign(1, pairs[1][0][1]) == -1
    decoded = _decode_pairs(json.loads(json.dumps(pairs)))
    assert decoded.dtype == complex and decoded.shape == values.shape
    assert decoded.tobytes() == values.tobytes()
    assert _decode_pairs([]).shape == (0,)


@pytest.mark.parametrize("bad", [[[1.0, 2.0, 3.0]], [[1.0], [2.0, 3.0]], [["x", 0.0]], 5, [1.0, 2.0, 3.0]])
def test_malformed_pair_list_raises_domain_error(bad):
    with pytest.raises(DomainError, match=r"\[re, im\] pairs"):
        _decode_pairs(bad)


def test_json_round_trip_and_missing_fields():
    from framelab.dilation import freq_indicator, FreqFunction
    from framelab.exponentials import LambdaSet
    from framelab.gabor import sampled_indicator

    rng = np.random.default_rng(0)
    system = VectorSystem(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)), label="x")
    objects = [system, sampled_indicator(0.0, 1.0, 0.25), freq_indicator(1.0, 2.0),
               LambdaSet([0, 1.5])]
    for obj in objects:
        data = json.loads(json.dumps(obj.to_json_dict()))
        assert type(obj).from_json_dict(data).to_json_dict() == data
        for key in set(data) - {"label"}:  # only the label is optional
            with pytest.raises(DomainError, match=repr(key)):
                type(obj).from_json_dict({k: v for k, v in data.items() if k != key})
    empty = VectorSystem.from_json_dict({"ambient_dim": 3, "vectors": []})
    assert (empty.count, empty.ambient_dim) == (0, 3)
    with pytest.raises(DomainError, match="'start'"):
        FreqFunction.from_json_dict({"grid": {"step": 1.0, "count": 0}, "values": [], "band": [0, 1]})


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-9", None])
def test_resolve_tolerance_rejects_bad_values(value, monkeypatch):
    if value is None:
        monkeypatch.setenv("FRAMELAB_TOLERANCE", "-1")
        with pytest.raises(DomainError, match="FRAMELAB_TOLERANCE"):
            resolve_tolerance()
        return
    with pytest.raises(DomainError, match="tolerance"):
        resolve_tolerance(value)
    monkeypatch.setenv("FRAMELAB_TOLERANCE", value)
    with pytest.raises(DomainError, match="FRAMELAB_TOLERANCE"):
        resolve_tolerance()


def test_resolve_tolerance_sources(monkeypatch):
    monkeypatch.delenv("FRAMELAB_TOLERANCE", raising=False)
    assert resolve_tolerance() == 1e-10
    assert resolve_tolerance("1e-6") == 1e-6
    monkeypatch.setenv("FRAMELAB_TOLERANCE", "1e-7")
    assert resolve_tolerance() == 1e-7
    assert resolve_tolerance(1e-3) == 1e-3


def _library_calls_with_nan_or_inf():
    from framelab.bspline import dual_window_solve
    from framelab.dilation import bessel_divergence_probe, freq_indicator
    from framelab.gabor import gabor_extension, hrt_independence, sampled_indicator

    g, w = freq_indicator(0.0, 1.0), sampled_indicator(0.0, 1.0, 0.25)
    calls = {}
    for bad in (math.nan, math.inf):
        calls.update({
            f"bessel_divergence_probe b={bad}": lambda bad=bad: bessel_divergence_probe(g, bad, 1.0),
            f"bessel_divergence_probe c_step={bad}":
                lambda bad=bad: bessel_divergence_probe(g, 1.0, bad),
            f"dual_window_solve b={bad}": lambda bad=bad: dual_window_solve(2, bad),
            f"gabor_extension a={bad}": lambda bad=bad: gabor_extension(w, w, bad, 0.5),
            f"gabor_extension b={bad}": lambda bad=bad: gabor_extension(w, w, 1.0, bad),
            f"hrt_independence lam={bad}": lambda bad=bad: hrt_independence(w, [(0, 0), (bad, 0)]),
            f"hrt_independence mu={bad}": lambda bad=bad: hrt_independence(w, [(0, 0), (0, bad)]),
        })
    return calls


NAN_OR_INF_CALLS = _library_calls_with_nan_or_inf()


@pytest.mark.parametrize("name", NAN_OR_INF_CALLS)
def test_library_entry_points_refuse_nan_and_inf(name):
    # the CLI filters NaN and Inf while parsing; a library caller used to get a
    # probe run to 10^7 terms, a bare ValueError or a LinAlgError
    with pytest.raises(DomainError):
        NAN_OR_INF_CALLS[name]()


def rounding_interval(x):
    """(lo, hi): the midpoints between the float x and its neighbours, as Fractions."""
    return tuple((Fraction(x) + Fraction(math.nextafter(x, side))) / 2 for side in (-math.inf, math.inf))


FINITE_FLOATS = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(FINITE_FLOATS)
@example(0.1)
@example(5e-324)
@example(2.0 ** -1022)
@example(2.0 ** -1021)
@example(-0.5)
@example(1.7976931348623157e308)
def test_the_rational_of_a_float_rounds_back_to_it(x):
    assert float(_as_rational(x, "x")) == x
    lo, hi, s = _rounding_interval(x)
    if abs(x) < 1e300:  # the neighbour above the largest float is inf
        assert (Fraction(lo) * Fraction(2) ** s, Fraction(hi) * Fraction(2) ** s) == rounding_interval(x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FINITE_FLOATS.filter(lambda x: not x.is_integer()))
@example(1 / 3)
@example(1 / 192)
@example(1e-300)
@example(1.0000000000000002)
def test_the_rational_of_a_float_has_the_least_denominator_inside_its_interval(x):
    rational = _as_rational(x, "x")
    lo, hi = rounding_interval(x)
    assert lo < rational < hi
    # the fraction nearest x of any smaller denominator lies outside
    assert not lo < Fraction(x).limit_denominator(rational.denominator - 1) < hi


def test_the_rational_of_a_typed_decimal_is_that_decimal():
    # m / 10^k comes back from its float where m 10^k < 2^52, so every decimal of at most
    # 6 significant digits and 9 places does (all 9.1e6 of them take about a minute);
    # here the nearest to the bound: m >= 999000 at every k, and m >= 900000 of
    # denominator 10^9
    for k in range(10):
        for m in range(999_000, 10 ** 6):
            assert _as_rational(m / 10 ** k, "x") == Fraction(m, 10 ** k), (m, k)
    for m in range(900_001, 10 ** 6, 2):
        if m % 5:
            rational = _as_rational(m / 10 ** 9, "x")
            assert (rational.numerator, rational.denominator) == (m, 10 ** 9), m
    assert [_as_rational(v, "x") for v in (0.1, 0.2, 0.4, 2.5, 1 / 3, -0.05, 123456.0, 0.999999)] == [
        Fraction(1, 10), Fraction(1, 5), Fraction(2, 5), Fraction(5, 2), Fraction(1, 3),
        Fraction(-1, 20), Fraction(123456), Fraction(999999, 10 ** 6)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10 ** 6 - 1), st.integers(0, 9))
def test_every_short_decimal_comes_back_from_its_float(m, k):
    assert _as_rational(m / 10 ** k, "x") == Fraction(m, 10 ** k)


def test_strings_ints_and_fractions_are_read_exactly():
    assert _as_rational("5/2", "a") == Fraction(5, 2)
    assert _as_rational("0.1", "b") == Fraction(1, 10)
    assert _as_rational(3, "b") == 3 and _as_rational(Fraction(1, 7), "b") == Fraction(1, 7)
    # an integral float is itself, even where its rounding interval holds other integers
    assert _as_rational(2.0 ** 60, "b") == 2 ** 60


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "abc", "1/0", None])
def test_what_is_not_a_finite_rational_is_a_domain_error(bad):
    with pytest.raises(DomainError, match="b must be a rational number"):
        _as_rational(bad, "b")


def test_float_readings_are_kept_and_errors_still_name_their_parameter():
    # the scanner reads the same few floats cell after cell: one memo entry serves a
    # float under any name and as a numpy scalar, and a refused value is never kept
    _float_rational.cache_clear()
    first = _as_rational(0.35, "a")
    assert _as_rational(0.35, "b") is first and _as_rational(np.float64(0.35), "b") is first
    assert first == Fraction(7, 20) and _float_rational.cache_info().currsize == 1
    for what in ("a", "b"):
        with pytest.raises(DomainError, match=f"^{what} must be a rational number"):
            _as_rational(math.nan, what)
    assert _float_rational.cache_info().currsize == 1
    assert _float_rational.cache_info().maxsize == 1024


def test_no_module_snaps_floats_by_a_denominator_bound():
    # every parameter is read by one rule, core._as_rational; a second snapping rule,
    # Fraction.limit_denominator and its bound, must not come back
    source = Path(framelab.__file__).parent
    assert [p.name for p in sorted(source.glob("*.py")) if "limit_denominator" in p.read_text()] == []


def test_no_module_solves_by_least_squares():
    # the B-spline dual window is the classical one, dual by theorem; a sampled
    # least-squares design, lstsq, must not come back
    source = Path(framelab.__file__).parent
    assert [p.name for p in sorted(source.glob("*.py")) if "lstsq" in p.read_text()] == []
