"""Bitwise oracles for the shared dilation-duality kernel.

wavelet_duality_check and wave_packet_duality_check both run on
dilation._dual_deviations and _class_deviations, in decreasing j.  The
oracles below are the separate loops they replaced, kept verbatim in
substance: the dyadic check with its own j window and its integer shifts m
grouped by m / 2^j, and the wave-packet check with its c1 and g1 loops.
Each oracle sum is read at the library's piece points of its class
(_class_points), so the comparison checks the loops, not the points.  At
b = 1 the integer shifts are the shift classes of the translation lattice
(1/b)Z, so there every residual must agree to the last bit; the
wave-packet check must agree everywhere.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from framelab.core import FrameLabError, _as_rational
from framelab.dilation import (
    FreqFunction,
    _adic_j_window,
    _class_points,
    _pieces,
    freq_indicator,
    shannon_wavelet,
    wave_packet_duality_check,
    wavelet_duality_check,
)


def bits(*values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# -- oracles ------------------------------------------------------------------


def _support_abs(fn):
    """(min, max) of |gamma| over the nonzero cells; min 0 if a cell touches 0."""
    starts, ends = fn.nonzero_cells()
    if np.any((starts <= 0.0) & (ends >= 0.0)):
        return 0.0, None
    lo = np.where(starts > 0, np.abs(starts), np.abs(ends)).min()
    return float(lo), float(max(np.abs(starts).max(), np.abs(ends).max()))


def wavelet_oracle(psi_hat, psi_tilde_hat, b=1.0):
    """Residuals of the dyadic check with integer shifts m / 2^j."""
    supports = [_support_abs(fn) for fn in (psi_hat, psi_tilde_hat) if not fn.is_zero()]
    if not supports:
        js = range(0, 0)
    else:
        m = min(lo for lo, _ in supports)
        assert m > 0.0, "support reaches 0"
        M = max(hi for _, hi in supports)
        js = range(int(math.floor(math.log2(m))) - 1, int(math.ceil(math.log2(M))) + 2)

    # the oracle's 2^j gamma is the library's a^-j gamma: its j are negated
    edges = psi_hat.edges, psi_tilde_hat.edges
    gammas = _class_points(*edges, 2, [0.0], 0, [-j for j in js])
    total = np.zeros(gammas.shape, dtype=complex)
    for j in js:
        pts = (2.0 ** j) * gammas
        total += np.conj(psi_hat.values_at(pts)) * psi_tilde_hat.values_at(pts)
    residual_i = float(np.abs(total - b).max())

    lo1, hi1 = psi_hat.band
    lo2, hi2 = psi_tilde_hat.band
    groups = {}
    for j in js:
        for m in range(int(math.ceil(lo2 - hi1 - 1e-12)), int(math.floor(hi2 - lo1 + 1e-12)) + 1):
            if m != 0:
                groups.setdefault(Fraction(m, 2 ** j) if j >= 0 else Fraction(m * 2 ** (-j)),
                                  []).append((j, m))
    residual_ii = 0.0
    for alpha, members in groups.items():
        gammas = _class_points(*edges, 2, [0.0], alpha, [-j for j, _ in members])
        total = np.zeros(gammas.shape, dtype=complex)
        for j, m in members:
            pts = (2.0 ** j) * gammas
            total += np.conj(psi_hat.values_at(pts)) * psi_tilde_hat.values_at(pts + m)
        residual_ii = max(residual_ii, float(np.abs(total).max()))
    return {"scaling_sum": residual_i, "shifted_sums": residual_ii}


def nonzero_extent(fn):
    """The least and largest edge of a nonzero cell of fn, or its band if it has none."""
    values = np.append(fn.pieces, 0)
    nonzero = np.flatnonzero(values[:-1])
    if not nonzero.size:
        return fn.band
    return float(fn.edges[nonzero[0]]), float(fn.edges[nonzero[-1] + 1])


def wave_packet_oracle(psi_hat, psi_tilde_hat, a, b, c_values, full_check=True):
    """(residuals, details) of the wave-packet check with separate c1 and g1 loops."""
    a_f = float(a)
    c_values = [float(c) for c in c_values]
    js = _adic_j_window(psi_hat, psi_tilde_hat, a_f, c_values)
    if not isinstance(js, range):  # a piece at 0: the certificate that the system is not Bessel
        _, c, lo, hi = js
        return {"divergent_diagonal": math.inf}, {"offset": c, "piece_lo": lo, "piece_hi": hi}
    js = js[::-1]  # decreasing j
    residuals, details = {}, {}

    edges = psi_hat.edges, psi_tilde_hat.edges
    gammas = _class_points(*edges, a, c_values, 0, js)
    total = np.zeros(gammas.shape, dtype=complex)
    for j in js:
        pts = gammas / (a_f ** j)
        for c in c_values:
            total += psi_hat.values_at(pts - c) * np.conj(psi_tilde_hat.values_at(pts - c))
    residuals["c1"] = float(np.abs(total - b).max())

    dev_c2 = 0.0
    lo1, hi1 = nonzero_extent(psi_hat)
    lo2, hi2 = nonzero_extent(psi_tilde_hat)
    overlaps = 0
    # psi(g) psit(g + k/b) can be nonzero only for k/b in (lo2 - hi1, hi2 - lo1)
    k_lo = int(math.ceil((lo2 - hi1) * b - 1e-12))
    k_hi = int(math.floor((hi2 - lo1) * b + 1e-12))
    for k in range(k_lo, k_hi + 1):
        if k != 0 and not psi_hat.is_zero():
            pts, _ = _pieces(np.concatenate((edges[0], edges[1] - k / b)), [(lo1, hi1)])
            prod = np.abs(psi_hat.values_at(pts) * np.conj(psi_tilde_hat.values_at(pts + k / b)))
            dev_c2 = max(dev_c2, float(prod.max()))
            overlaps += 1
    residuals["c2"] = dev_c2
    details["c2_shifts_checked"] = float(overlaps)

    if full_check:
        a_frac, b_frac = _as_rational(a, "a"), _as_rational(b, "b")
        reach = (max(hi1, hi2) - min(lo1, lo2)) + (max(c_values) - min(c_values))
        n_max = int(math.ceil(b * reach)) + 1
        groups = {}
        for j in js:
            for n in range(-n_max, n_max + 1):
                if n != 0:
                    groups.setdefault((a_frac ** j) * n / b_frac, []).append(j)
        dev_g1 = 0.0
        for alpha, members in groups.items():
            gammas = _class_points(*edges, a, c_values, alpha, members)
            total = np.zeros(gammas.shape, dtype=complex)
            for j in members:
                pts = gammas / (a_f ** j)
                pts_shift = (gammas + float(alpha)) / (a_f ** j)
                for c in c_values:
                    total += psi_hat.values_at(pts - c) * np.conj(
                        psi_tilde_hat.values_at(pts_shift - c))
            dev_g1 = max(dev_g1, float(np.abs(total).max()))
        residuals["g1_offdiagonal"] = dev_g1
        details["g1_classes"] = float(len(groups))
    return residuals, details


# -- instances ----------------------------------------------------------------


def zero_like(fn):
    return FreqFunction(fn.start, fn.step, np.zeros(fn.count), fn.band)


def shifted_copy_pair():
    """psi on [1/2, 1) and a partner with an extra copy one unit up."""
    step = 2.0 ** -10
    count = int(round(1.5 / step))
    starts = 0.5 + step * np.arange(count)
    values = np.where((starts < 1.0) | (starts >= 1.5), 1.0, 0.0)
    return freq_indicator(0.5, 1.0), FreqFunction(0.5, step, values, (0.5, 2.0))


def random_band_function(rng, step=2.0 ** -6):
    """Complex values on one or two mirrored bands away from 0.

    Band ratios up to 8 put three or more dyadic scales on one gamma, so
    the summation order of the dilation sums is exercised too.
    """
    lo = step * int(rng.integers(8, 64))
    hi = lo + step * int(rng.integers(8, 256))
    count = int(round((hi - lo) / step))
    values = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
    values[rng.uniform(size=count) < 0.2] = 0.0
    side = int(rng.integers(3))
    if side == 0:
        return FreqFunction(lo, step, values, (lo, hi))
    if side == 1:
        return FreqFunction(-hi, step, values, (-hi, -lo))
    full = np.concatenate([values[::-1], np.zeros(int(round(2 * lo / step))), values])
    return FreqFunction(-hi, step, full, (-hi, hi))


def named_wavelet_pairs():
    psi = shannon_wavelet()
    pairs = {
        "shannon": (psi, psi),
        "zero partner": (psi, zero_like(psi)),
        "scaled": (psi.scaled(2.0), psi.scaled(0.5)),
        "shifted-sum violation": shifted_copy_pair(),
    }
    for eps in (1e-3, 2e-3, 4e-3):
        pairs[f"perturbed {eps}"] = (psi, psi.scaled(1.0 + eps))
    return pairs


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    return [(random_band_function(rng), random_band_function(rng)) for _ in range(count)]


# -- wavelet check against its oracle at b = 1 ------------------------------------


def wavelet_bits(residuals):
    return bits(residuals["scaling_sum"], residuals["shifted_sums"])


@pytest.mark.parametrize("name", sorted(named_wavelet_pairs()))
def test_wavelet_matches_oracle_bitwise_at_b1(name):
    psi, psit = named_wavelet_pairs()[name]
    assert wavelet_bits(wavelet_duality_check(psi, psit, b=1.0).residuals) == wavelet_bits(
        wavelet_oracle(psi, psit, b=1.0))


def test_wavelet_matches_oracle_bitwise_on_random_pairs():
    pairs = random_pairs(7, 48)
    nonzero_shifted = 0
    for psi, psit in pairs:
        new = wavelet_duality_check(psi, psit, b=1.0)
        residuals = wavelet_oracle(psi, psit, b=1.0)
        assert wavelet_bits(new.residuals) == wavelet_bits(residuals)
        nonzero_shifted += residuals["shifted_sums"] > 0
    assert nonzero_shifted >= 10  # the shift classes are exercised, not all vacuous


def test_wavelet_scaling_sum_matches_oracle_at_any_b():
    # the scaling sum does not depend on the shift lattice
    psi = shannon_wavelet()
    for psit, b in ((psi, 0.5), (psi.scaled(3.0), 3.0), (zero_like(psi), 0.25)):
        new = wavelet_duality_check(psi, psit, b=b)
        assert bits(new.residuals["scaling_sum"]) == bits(
            wavelet_oracle(psi, psit, b=b)["scaling_sum"])


# -- the shift lattice is (1/b)Z ----------------------------------------------------


@pytest.mark.parametrize("b", [2.0, 4.0])
def test_undersampled_shannon_system_fails(b):
    # b * psi is the partner whose scaling sum is b, but at translation step
    # b > 1 the shift classes (1/b)Z reach the mirrored band: the system is
    # the Shannon basis with translates removed, not a frame
    psi = shannon_wavelet()
    report = wavelet_duality_check(psi, psi.scaled(b), b=b)
    assert not report.passed
    assert report.residuals["scaling_sum"] == 0.0
    assert report.residuals["shifted_sums"] == pytest.approx(b, abs=1e-12)
    wp = wave_packet_duality_check(psi, psi.scaled(b), a=2, b=b, c_values=[0.0])
    assert wp.residuals["g1_offdiagonal"] == pytest.approx(b, abs=1e-12)


def test_oversampled_shannon_system_is_a_tight_frame():
    # b = 1/2 doubles the translates: a tight frame with bound 2 whose
    # canonical dual is psi / 2, i.e. the pair (psi, b * psi)
    psi = shannon_wavelet()
    report = wavelet_duality_check(psi, psi.scaled(0.5), b=0.5)
    assert report.passed
    assert report.residuals == {"scaling_sum": 0.0, "shifted_sums": 0.0}


# -- wave-packet check against its oracle ---------------------------------------------


def wave_packet_cases():
    psi = shannon_wavelet()
    cases = [
        (psi, psi, 2, 1.0, [0.0]),
        (psi, zero_like(psi), 2, 1.0, [0.0]),
        (psi, psi.scaled(2.0), 2, 2.0, [0.0]),
        (freq_indicator(1.0, 2.0), freq_indicator(1.0, 2.0), 2, 1.0, [0.0, 1.0]),
        (freq_indicator(1.0, 3.0), freq_indicator(1.0, 3.0), 2, 1.0, [0.0]),
    ]
    rng = np.random.default_rng(11)
    for (psi_r, psit_r), (a, b, c_values) in zip(
            random_pairs(12, 8),
            [(2, 1.0, [0.0]), (3, 0.5, [0.0, 0.5]), (1.5, 1.0, [0.0]), (2, 0.75, [-0.25, 0.25]),
             (4, 2.0, [0.0]), (2, 1.0, [0.0, 3.0]), (3, 1.0, [1.0]), (Fraction(5, 2), 1.5, [0.0])]):
        if rng.uniform() < 0.5:
            psit_r = psi_r
        cases.append((psi_r, psit_r, a, b, c_values))
    return cases


@pytest.mark.parametrize("full_check", [True, False])
def test_wave_packet_matches_oracle_bitwise(full_check):
    for psi, psit, a, b, c_values in wave_packet_cases():
        try:
            residuals, details = wave_packet_oracle(psi, psit, a, b, c_values, full_check)
        except FrameLabError as exc:  # the check must raise the same error
            with pytest.raises(type(exc)):
                wave_packet_duality_check(psi, psit, a=a, b=b, c_values=c_values,
                                          full_check=full_check)
            continue
        report = wave_packet_duality_check(psi, psit, a=a, b=b, c_values=c_values,
                                           full_check=full_check)
        assert sorted(report.residuals) == sorted(residuals)
        assert bits(*(report.residuals[k] for k in sorted(residuals))) == bits(
            *(residuals[k] for k in sorted(residuals)))
        assert report.details == details



# -- one path: the wavelet check is the wave-packet check at a = 2, c = {0} ---------------


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_wavelet_is_the_wave_packet_check_at_a2_c0_bitwise(b):
    for psi, psit in random_pairs(5, 32):
        wavelet = wavelet_duality_check(psi, psit, b=b)
        packet = wave_packet_duality_check(psi, psit, a=2, b=b, c_values=[0.0])
        assert bits(wavelet.residuals["scaling_sum"], wavelet.residuals["shifted_sums"]) == bits(
            packet.residuals["c1"], packet.residuals["g1_offdiagonal"])
        assert wavelet.details["shift_classes"] == packet.details["g1_classes"]


def test_padded_band_reads_the_j_window_of_its_pieces():
    # the band (0.25, 8) holds the pieces of [1, 2) loosely: the j window, the n
    # window and the c2 shifts all come from the pieces, so the padded band reads
    # what its tight twin reads
    padded = FreqFunction(1.0, 0.5, [1, 1], (0.25, 8.0))
    tight = FreqFunction(1.0, 0.5, [1, 1], (1.0, 2.0))
    for b in (0.5, 1.0, 2.0):
        wide, narrow = (wavelet_duality_check(fn, fn, b=b) for fn in (padded, tight))
        assert (wide.residuals, wide.verdict, wide.details) == (
            narrow.residuals, narrow.verdict, narrow.details)
        for a, c_values in ((2, [0.0, 0.5]), (3, [0.0]), (1.5, [0.5])):
            wide, narrow = (wave_packet_duality_check(fn, fn, a=a, b=b, c_values=c_values)
                            for fn in (padded, tight))
            assert (wide.residuals, wide.verdict, wide.details) == (
                narrow.residuals, narrow.verdict, narrow.details)
    # windows read from the band counted 48 shift classes and 14 c2 shifts
    assert wavelet_duality_check(padded, padded).details["shift_classes"] == 10
    assert wave_packet_duality_check(padded, padded, a=2, b=1.0, c_values=[0.0]).details == {
        "c2_shifts_checked": 2.0, "g1_classes": 10.0}


def j_window_oracle(psi, psit, a, c_values):
    """The j window from the dense (offset, piece end) sums, or the first offset
    that puts a piece at 0, holding it or ending there."""
    radii = []
    for fn in (psi, psit):
        s_lo, s_hi = (np.add.outer(c_values, x) for x in fn.nonzero_cells())
        across = np.any((s_lo <= 0) & (s_hi >= 0), axis=1)
        if across.any():
            return c_values[np.argmax(across)]
        radii += [np.abs(s_lo).ravel(), np.abs(s_hi).ravel()]
    radii = np.concatenate(radii)
    if not radii.size:
        return range(0, 0)
    return range(math.floor(-math.log(radii.max()) / math.log(a)) - 1,
                 math.ceil(-math.log(radii.min()) / math.log(a)) + 2)


def test_j_window_is_that_of_every_shifted_piece_end():
    rng = np.random.default_rng(21)
    for psi, psit in random_pairs(22, 100):
        edges = np.concatenate((psi.edges, psit.edges))
        # offsets on the step grid, some of them minus a piece end
        reach = int(rng.choice([8, 300]))
        c_values = [float(c) for c in 2.0 ** -6 * rng.integers(-reach, reach, int(rng.integers(1, 6)))]
        if rng.uniform() < 0.3:
            c_values.append(-float(rng.choice(edges)))
        a = float(rng.choice([1.5, 2.0, 3.0]))
        expected = j_window_oracle(psi, psit, a, c_values)
        if isinstance(expected, range):
            assert _adic_j_window(psi, psit, a, c_values) == expected
        else:  # the certificate: the offset and a nonzero piece of that side holding -c
            name, c, lo, hi = _adic_j_window(psi, psit, a, c_values)
            starts, ends = (psi if name == "psi" else psit).nonzero_cells()
            assert c == expected and lo <= -c <= hi and (lo, hi) in zip(starts.tolist(), ends.tolist())
            report = wave_packet_duality_check(psi, psit, a, 1.0, c_values)
            assert report.verdict == "fail" and report.details == {"offset": c, "piece_lo": lo, "piece_hi": hi}
