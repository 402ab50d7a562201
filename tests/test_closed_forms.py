"""Unit tests for the closed-form spectra, negativities and entropies."""

import math
import struct
import time

import numpy as np
import pytest

from vbsent.closed_forms import (
    CHANNEL_SIGNS,
    DISJOINT_MULTIPLICITIES,
    AdjacentNegativity,
    ChannelWeights,
    adjacent_negativity_asymptote,
    adjacent_negativity_equal,
    adjacent_pt_char_polys,
    adjacent_pt_negativity,
    adjacent_pt_spectrum,
    asymptotic_disjoint_spectrum,
    bipartition_L0_pt_spectrum,
    cubic_min_root_sine,
    cubic_roots_trig,
    decay_parameter,
    disjoint_char_polys,
    disjoint_spectrum,
    joint_entropy,
    mutual_information,
    pure_block_entanglement_xi,
    pure_block_spectrum,
    pure_pt_spectrum,
    quadratic_roots,
)

FOUR_LN2 = 4.0 * math.log(2.0)


# ---------------------------------------------------------------- weights


def test_decay_parameter_values():
    assert decay_parameter(0) == 1.0
    assert decay_parameter(1) == -1.0 / 3.0
    assert decay_parameter(2) == 1.0 / 9.0
    assert decay_parameter(3) == -1.0 / 27.0


def test_decay_parameter_underflow_is_exact_and_immediate():
    # the signed zero past underflow equals the exact ratio bit for bit
    for length in range(600, 801):
        exact = (-1 if length % 2 else 1) / 3**length
        assert struct.pack("<d", decay_parameter(length)) == struct.pack("<d", exact)
    start = time.perf_counter()
    assert struct.pack("<d", decay_parameter(10**8)) == struct.pack("<d", 0.0)
    assert time.perf_counter() - start < 0.01


def test_channel_signs():
    assert CHANNEL_SIGNS == (-1, -1, 3, -1)


def test_channel_weights_sum_to_one():
    for length in range(1, 8):
        w = ChannelWeights.from_length(length)
        assert math.fsum(w.weights) == pytest.approx(1.0, abs=1e-15)


def test_channel_weights_single_site():
    # the singlet channel dies exactly at length 1
    w = ChannelWeights.from_length(1)
    assert w.singlet == 0.0
    assert w.triplet == pytest.approx(1.0 / 3.0, abs=1e-16)


def _pair_factors_one_by_one(L1, L2, z):
    """The pair products and factor coefficients, as the closed forms first wrote them."""
    a = ChannelWeights.from_length(L1)
    b = ChannelWeights.from_length(L2)
    l00 = a.singlet * b.singlet
    l10 = a.singlet * b.triplet + b.singlet * a.triplet
    l11 = a.triplet * b.triplet
    p1_root = (1.0 - z) * l11
    p2 = (
        -(l00 + (1.0 + 2.0 * z) * l11),
        (1.0 - z) * (1.0 + 3.0 * z) * l00 * l11,
    )
    p3 = (
        -(l10 + l11 * (1.0 + z)),
        ((1.0 + z) * l00 + (1.0 + 2.0 * z) * l10) * (1.0 - z) * l11,
        -((1.0 - z) ** 2) * (1.0 + 3.0 * z) * l00 * l11**2,
    )
    return l00, l11, (p1_root, p2, p3)


def _adjacent_negativity_one_by_one(L1, L2):
    l00, l11, (_, _, p3) = _pair_factors_one_by_one(L1, L2, -1.0)
    y1 = 0.5 * (l00 - l11 - math.sqrt(l00 * l00 + 14.0 * l00 * l11 + l11 * l11))
    y2 = cubic_min_root_sine(*p3)
    total = y1 + 3.0 * y2
    return AdjacentNegativity(y1, y2, -total, math.log2(1.0 - 2.0 * total))


def test_pair_factors_equal_the_written_out_reference_bitwise():
    # short blocks zero the singlet weight (L=1) and from 679 on z is a
    # signed zero; repr tells every float, and -0.0, apart
    lengths = [*range(1, 41), 679, 680, 1000]
    gaps = [*range(1, 41), 679, 1000]
    for la in lengths:
        for lb in lengths:
            for gap in gaps:
                want = _pair_factors_one_by_one(la, lb, decay_parameter(gap))[2]
                assert repr(disjoint_char_polys(la, gap, lb)) == repr(want)
            want = _pair_factors_one_by_one(la, lb, -1.0)[2]
            assert repr(adjacent_pt_char_polys(la, lb)) == repr(want)
            want = _adjacent_negativity_one_by_one(la, lb)
            assert repr(adjacent_pt_negativity(la, lb)) == repr(want)


# ------------------------------------------------------ pure bipartition


def test_pure_block_spectrum_single_site():
    rep = pure_block_spectrum(1)
    assert rep.eigenvalues == pytest.approx((0.0, 1 / 3, 1 / 3, 1 / 3), abs=1e-15)
    assert rep.entropy == pytest.approx(math.log(3.0), abs=1e-14)


def test_pure_block_spectrum_approaches_maximal_mixing():
    rep = pure_block_spectrum(12)
    assert rep.entropy == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
    assert rep.purity == pytest.approx(0.25, abs=1e-9)


def test_pure_xi_levels():
    xi_s, xi_t = pure_block_entanglement_xi(2)
    rep = pure_block_spectrum(2)
    assert sorted(rep.entanglement_spectrum()) == pytest.approx(
        sorted([xi_s, xi_t, xi_t, xi_t]), abs=1e-14
    )
    assert pure_block_entanglement_xi(1)[0] == math.inf


def test_pure_pt_spectrum_single_site():
    # {1/3 x6, -1/3 x3, 0 x7}: negativity exactly 1
    rep = pure_pt_spectrum(1)
    assert rep.negativity == pytest.approx(1.0, abs=1e-15)
    assert rep.log_negativity == pytest.approx(math.log2(3.0), abs=1e-15)
    assert rep.trace == pytest.approx(1.0, abs=1e-15)


def test_pure_pt_spectrum_multiplicities():
    w = ChannelWeights.from_length(3)
    s, t = w.singlet, w.triplet
    cross = math.sqrt(s * t)
    rep = pure_pt_spectrum(3)
    expected = sorted([t] * 6 + [-t] * 3 + [cross] * 3 + [-cross] * 3 + [s])
    assert rep.eigenvalues == pytest.approx(tuple(expected), abs=1e-16)
    assert rep.negativity == pytest.approx(3.0 * (t + cross), abs=1e-15)


def test_pure_pt_rejects_zero_length():
    with pytest.raises(ValueError):
        pure_pt_spectrum(0)


def test_bond_cut_spectrum():
    rep = bipartition_L0_pt_spectrum()
    assert rep.eigenvalues == (-0.5, 0.5, 0.5, 0.5)
    assert rep.negativity == 0.5
    assert rep.log_negativity == 1.0


# ------------------------------------------------------------ polynomials


def test_quadratic_roots_match_numpy():
    rng = np.random.default_rng(31)
    for _ in range(50):
        b, c = rng.uniform(-2, 2, size=2)
        # force real roots
        c = min(c, b * b / 4.0 - 0.1)
        got = sorted(quadratic_roots(b, c))
        want = sorted(np.roots([1.0, b, c]).real)
        assert got == pytest.approx(want, abs=1e-12)


def test_quadratic_double_root_at_zero():
    assert quadratic_roots(0.0, 0.0) == (0.0, 0.0)


def test_cubic_roots_match_numpy():
    rng = np.random.default_rng(37)
    for _ in range(50):
        roots = np.sort(rng.uniform(-1.0, 1.0, size=3))
        b = -roots.sum()
        c = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
        d = -roots.prod()
        got = cubic_roots_trig(b, c, d)
        assert got == pytest.approx(tuple(roots), abs=1e-12)
        assert cubic_min_root_sine(b, c, d) == pytest.approx(
            roots[0], abs=1e-12
        )


def test_cubic_exact_zero_constant_term():
    # Y^2 (Y - r): the double root at zero must come out exact, not as a
    # pair of 1e-8 artifacts of the trig form
    coeffs = (-0.25, 0.0, 0.0)
    roots = cubic_roots_trig(*coeffs)
    assert roots == (0.0, 0.0, 0.25)
    assert cubic_min_root_sine(*coeffs) == 0.0


def test_cubic_triple_root():
    coeffs = (-0.3, 0.03, -0.001)
    roots = cubic_roots_trig(*coeffs)
    assert roots == pytest.approx((0.1, 0.1, 0.1), abs=1e-8)


def test_cubic_root_forms_share_guards():
    # both root forms see the same arccos range check ...
    coeffs = (0.0, -3.0, 4.0)
    for form in (cubic_roots_trig, cubic_min_root_sine):
        with pytest.raises(ValueError, match=r"^arccos argument -2\.0 out of range$"):
            form(*coeffs)
    # ... the same complex-root rejection ...
    coeffs = (0.0, 3.0, 1.0)
    for form in (cubic_roots_trig, cubic_min_root_sine):
        with pytest.raises(ValueError, match=r"^cubic has complex roots"):
            form(*coeffs)
    # ... the same triple root -b/3 at |p| <= 1e-14 ...
    coeffs = (-0.3, 0.03, -0.001)
    shift = 0.3 / 3.0
    assert cubic_roots_trig(*coeffs) == (shift, shift, shift)
    assert cubic_min_root_sine(*coeffs) == shift
    # ... and the same exact root 0.0 when d == 0
    coeffs = (-3.0, 2.0, 0.0)
    assert cubic_roots_trig(*coeffs) == (0.0, 1.0, 2.0)
    assert cubic_min_root_sine(*coeffs) == 0.0


# -------------------------------------------------------- disjoint blocks


def test_disjoint_anchor_point():
    rep = disjoint_spectrum(1, 1, 1)
    expected = sorted([4 / 27] * 5 + [2 / 27] * 3 + [1 / 27] + [0.0] * 7)
    assert rep.eigenvalues == pytest.approx(tuple(expected), abs=1e-14)
    assert rep.trace == pytest.approx(1.0, abs=1e-14)


def test_disjoint_spectrum_sums_to_one():
    for geo in [(1, 1, 2), (2, 1, 1), (2, 2, 2), (1, 3, 1), (3, 1, 2)]:
        rep = disjoint_spectrum(*geo)
        assert rep.trace == pytest.approx(1.0, abs=1e-13)


def test_disjoint_multiplicity_layout():
    assert DISJOINT_MULTIPLICITIES == (5, 1, 1, 3, 3, 3)
    r1, p2, p3 = disjoint_char_polys(2, 1, 2)
    # single root, quadratic pair, cubic triple: 5+1+1+3+3+3 = 16
    assert 5 * 1 + 1 + 1 + 3 * 3 == 16
    q = quadratic_roots(*p2)
    c = cubic_roots_trig(*p3)
    vals = sorted([r1] * 5 + list(q) + [v for v in c for _ in range(3)])
    rep = disjoint_spectrum(2, 1, 2)
    assert rep.eigenvalues == pytest.approx(tuple(vals), abs=1e-14)


def test_disjoint_rejects_touching_blocks():
    with pytest.raises(ValueError):
        disjoint_spectrum(1, 0, 1)
    with pytest.raises(ValueError):
        disjoint_spectrum(0, 1, 1)


def test_disjoint_positivity_far_apart():
    # all 16 eigenvalues nonnegative at any separation
    for gap in (1, 2, 4):
        rep = disjoint_spectrum(2, gap, 3)
        assert rep.eigenvalues[0] > -1e-14
        assert rep.negativity == 0.0


# ------------------------------------------------------ asymptotic model


def test_asymptotic_center_is_maximally_mixed():
    spec = asymptotic_disjoint_spectrum(0.0, 0.0, 0.0)
    assert spec.eigenvalues == (1.0 / 16.0,) * 16
    assert spec.report().entropy == pytest.approx(FOUR_LN2, abs=1e-14)
    assert all(v == pytest.approx(FOUR_LN2, abs=1e-14) for v in spec.xi_linear)


def test_asymptotic_rejects_large_parameters():
    with pytest.raises(ValueError):
        asymptotic_disjoint_spectrum(0.4, 0.0, 0.0)


def test_asymptotic_xi_exact_values():
    spec = asymptotic_disjoint_spectrum(0.01, -0.02, 0.005)
    for lam, xi in zip(spec.eigenvalues, spec.xi):
        assert xi == pytest.approx(-math.log(lam), abs=1e-15)
    assert spec.report().trace == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "x1, x2, z",
    [
        (0.0, 0.0, -1.0 / 3.0),
        (decay_parameter(30), decay_parameter(25), decay_parameter(1)),
    ],
)
def test_asymptotic_xi_is_infinite_at_vanishing_levels(x1, x2, z):
    # gap 1 with long blocks puts the high triplet (1 + 3t)/16 at 0,
    # or a round-off below it; the levels stay as computed
    spec = asymptotic_disjoint_spectrum(x1, x2, z)
    t = x1 + x2 + z
    assert spec.eigenvalues[11:14] == ((1.0 + 3.0 * t) / 16.0,) * 3
    assert any(lam <= 0.0 for lam in spec.eigenvalues)
    for lam, xi in zip(spec.eigenvalues, spec.xi):
        assert xi == (math.inf if lam <= 0.0 else -math.log(lam))


def test_asymptotic_linear_display_defect_is_first_order():
    # the quoted linearized xi display carries the radical with
    # coefficient 1, so its split-pair rows miss the exact xi by one
    # radical at FIRST order even along single-parameter directions.
    # Frozen behavior; the exact xi tuple is the trustworthy output.
    for args in [(1e-4, 0.0, 0.0), (0.0, 1e-4, 0.0), (0.0, 0.0, 1e-4)]:
        spec = asymptotic_disjoint_spectrum(*args)
        dev = max(abs(a - b) for a, b in zip(spec.xi, spec.xi_linear))
        assert 0.9e-4 < dev < 1.1e-4


def test_asymptotic_model_vs_exact_spectrum_band():
    # the 4-level asymptotic model cannot reproduce the 6 distinct exact
    # levels: at lengths (6,6,6) the eigenvalue gap saturates around
    # x/3 with x = 3^-6, far above the x^2 scale.  Frozen band so the
    # model's accuracy class is pinned, not oversold.
    x = decay_parameter(6)
    exact = np.array(disjoint_spectrum(6, 6, 6).eigenvalues)
    model = np.sort(asymptotic_disjoint_spectrum(x, x, x).eigenvalues)
    dev = float(np.max(np.abs(exact - model)))
    assert 3e-4 < dev < 6e-4


# -------------------------------------------------------- adjacent blocks


def test_adjacent_negativity_anchor():
    res = adjacent_pt_negativity(1, 1)
    assert isinstance(res, AdjacentNegativity)
    assert res.negativity == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert res.log_negativity == pytest.approx(math.log2(1.0 + 2.0 / 9.0), abs=1e-14)


def test_adjacent_negative_levels_are_negative():
    res = adjacent_pt_negativity(2, 3)
    assert res.y1 < 0.0
    assert res.y2 < 0.0
    assert res.negativity == pytest.approx(-(res.y1 + 3.0 * res.y2), abs=1e-16)


def test_adjacent_spectrum_has_four_negative_levels():
    rep = adjacent_pt_spectrum(2, 2)
    negative = [v for v in rep.eigenvalues if v < -1e-12]
    assert len(negative) == 4
    assert rep.trace == pytest.approx(1.0, abs=1e-13)


def test_adjacent_equal_blocks_formula_matches_general():
    for length in range(1, 7):
        special = adjacent_negativity_equal(length)
        general = adjacent_pt_negativity(length, length).negativity
        assert abs(special - general) < 1e-12


def test_adjacent_negativity_approaches_half():
    for l1, l2 in [(5, 5), (6, 6), (6, 5)]:
        got = adjacent_pt_negativity(l1, l2).negativity
        assert got == pytest.approx(adjacent_negativity_asymptote(l1, l2), abs=1e-5)
    assert adjacent_negativity_asymptote(30, 30) == pytest.approx(0.5, abs=1e-25)


def test_adjacent_rejects_zero_length():
    with pytest.raises(ValueError):
        adjacent_pt_negativity(0, 1)
    with pytest.raises(ValueError):
        adjacent_negativity_equal(0)


# ------------------------------------------------------ mutual information


def test_mutual_information_at_zero():
    assert mutual_information(0.0) == 0.0


def test_mutual_information_known_values():
    # gap 1 and gap 2 limits
    assert mutual_information(-1.0 / 3.0) == pytest.approx(
        math.log(4.0 / 3.0), abs=1e-14
    )
    assert mutual_information(1.0 / 9.0) == pytest.approx(0.017372, abs=5e-7)


def test_mutual_information_entropy_identity():
    for z in (-1.0 / 3.0, -0.1, 0.0, 0.2, 1.0 / 9.0):
        assert mutual_information(z) == pytest.approx(
            FOUR_LN2 - joint_entropy(z), abs=1e-14
        )


def test_joint_entropy_at_uncorrelated_point():
    assert joint_entropy(0.0) == pytest.approx(FOUR_LN2, abs=1e-15)
