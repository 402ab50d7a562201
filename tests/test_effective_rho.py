"""Tests of the 16x16 effective two-block density operators.

Cross-checks against the closed-form spectra live here too, so the two
independent derivations (coefficient tensor + Gram weighting vs the
characteristic polynomials) are never collapsed into one code path.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbsent import mps_oracle as mo
from vbsent.closed_forms import (
    CHANNEL_SIGNS,
    ChannelWeights,
    adjacent_pt_negativity,
    adjacent_pt_spectrum,
    decay_parameter,
    disjoint_spectrum,
    mutual_information,
)
from vbsent.effective_rho import (
    EffectiveDensityOperator,
    _obc_coefficients,
    _pbc_coefficients,
    contraction_defect,
    convexity_coefficients,
    measures,
    mode_partial_transpose,
    open_stack,
    rho_ab_adjacent,
    rho_ab_open,
    rho_ab_pbc,
    rho_ce_spectra,
    ring_stack,
    stacked_measures,
)
from vbsent.geometry import GEOMETRIES
from vbsent.linalg import (
    HermitianOperator,
    hermitian_eigvals,
    partial_trace,
)
from vbsent.pauli_algebra import calibrated_epsilon
from spectrum_reference import reference_report


def mode_partial_trace(op, over):
    """Trace the orthonormal 16x16 matrix over one block's mode factor.

    The per-operator reference for the block marginals, whose spectra
    `stacked_measures` reads off their diagonals without a solve.
    """
    if over not in ("A", "B"):
        raise ValueError(f"over must be 'A' or 'B', got {over!r}")
    kept = [1] if over == "A" else [0]
    return partial_trace(HermitianOperator(op.normalized, (4, 4)), kept)


# ---------------------------------------------------------------- geometry


def _oracle_runs(monkeypatch, name, **params):
    """The layout a geometry's oracle contracts: (n_bulk, ring, runs).

    The oracle's reports must be entanglement_report's on the ground state
    at those runs' sites.
    """
    calls = []
    layout = mo.layout_spectra

    def spy(n_bulk, ring, runs):
        calls.append((n_bulk, ring, runs))
        return layout(n_bulk, ring, runs)

    monkeypatch.setattr(mo, "layout_spectra", spy)
    result = GEOMETRIES[name].oracle(**params)
    [(n_bulk, ring, runs)] = calls
    state = (mo.build_ring if ring else mo.build_open_chain)(n_bulk)
    blocks = {True: [], False: []}
    for in_a, first, length in runs:
        blocks[in_a] += range(first, first + length)
    assert result == mo.entanglement_report(state, blocks[True], blocks[False])
    return n_bulk, ring, runs


def test_open_geometry_total(monkeypatch):
    # bulk sites start at 1, after the boundary spin at site 0
    layout = _oracle_runs(monkeypatch, "disjoint", la=2, gap=3, lb=1)
    assert layout == (6, False, [(True, 1, 2), (False, 6, 1)])
    layout = _oracle_runs(monkeypatch, "adjacent", la=2, lb=1)
    assert layout == (3, False, [(True, 1, 2), (False, 3, 1)])


def test_ring_geometry_total(monkeypatch):
    # the arcs run C, A, D, B from site 0
    layout = _oracle_runs(monkeypatch, "pbc", la=1, lb=2, lc=1, ld=3)
    assert layout == (7, True, [(True, 1, 1), (False, 5, 2)])


@pytest.mark.parametrize(
    "params", [dict(gap=gap) for gap in range(1, 5)] + [dict(la=40, lb=40, gap=40)]
)
def test_mutual_info_oracle_matches_its_mode_route(params):
    # the oracle reads the layout, so it answers past MAX_BULK_SITES,
    # at the geometry's own default blocks of 6 sites among them
    geo = GEOMETRIES["mutual-info"]
    params = geo.params(**params)
    [(mode, mode_pt, _)] = geo.reports([params])
    for got, want in zip(geo.oracle(**params), (mode, mode_pt)):
        size = max(len(got.eigenvalues), len(want.eigenvalues))
        gap = _padded(got.eigenvalues, size) - _padded(want.eigenvalues, size)
        assert np.max(np.abs(gap)) <= 1e-10


def _padded(values, size: int) -> np.ndarray:
    return np.sort(np.concatenate([values, np.zeros(size - len(values))]))


def test_geometry_validation():
    # every block is nonempty
    for geo in GEOMETRIES.values():
        for flag in set(geo.names) & {"length", "la", "lb"}:
            with pytest.raises(ValueError, match=f"--{flag} >= 1"):
                geo.params(**{**dict.fromkeys(geo.names, 1), flag: 0})
    # the open gap is 0 only for adjacent blocks, whose site map has no gap
    with pytest.raises(ValueError, match="--gap >= 1"):
        GEOMETRIES["disjoint"].params(la=1, gap=0, lb=1)
    assert GEOMETRIES["pbc"].params(la=1, lb=1, lc=0, ld=0)["lc"] == 0
    with pytest.raises(ValueError, match="--lc >= 0"):
        GEOMETRIES["pbc"].params(la=1, lb=1, lc=-1, ld=1)
    with pytest.raises(ValueError, match="needs --ld"):
        GEOMETRIES["pbc"].params(la=1, lb=1, lc=1)
    with pytest.raises(ValueError, match="takes no --gap"):
        GEOMETRIES["adjacent"].params(la=1, gap=1, lb=1)
    with pytest.raises(ValueError, match="equal blocks"):
        GEOMETRIES["mutual-info"].params(la=2, lb=3, gap=1)
    assert GEOMETRIES["mutual-info"].params(gap=2) == {"la": 6, "lb": 6, "gap": 2}


# ---------------------------------------------------- coefficient tensors


def test_m_tensor_contraction_closes():
    # chaining two three-block couplings across a middle block of any
    # length reproduces the two-block coefficients to round-off
    for gap in (1, 2, 3, 4):
        assert contraction_defect(gap) < 1e-15


def test_obc_coefficients_transpose_flip():
    # swapping the A-mode indices equals sending z -> -z, entry by entry
    for gap in (1, 2, 3):
        z = decay_parameter(gap)
        coeff = _obc_coefficients(z)
        flipped = _obc_coefficients(-z)
        assert np.array_equal(coeff.transpose(2, 1, 0, 3), flipped)


def test_obc_coefficients_identity_row():
    # the (0,0,0,0)-type diagonal carries weight 1 before Gram weighting
    coeff = _obc_coefficients(decay_parameter(2))
    for mu in range(4):
        for rho in range(4):
            assert coeff[mu, rho, mu, rho] == pytest.approx(
                1.0 if mu != rho else coeff[mu, mu, mu, mu]
            )


def test_pbc_coefficients_transpose_flip():
    zc, zd = decay_parameter(2), decay_parameter(1)
    zt = decay_parameter(6)
    coeff = _pbc_coefficients(zc, zd, zt)
    flipped = _pbc_coefficients(-zc, -zd, zt)
    assert np.max(np.abs(coeff.transpose(2, 1, 0, 3) - flipped)) < 1e-15


# ------------------------------------------------------------ open chains


def test_rho_open_rejects_touching():
    with pytest.raises(ValueError, match="adjacent"):
        rho_ab_open(1, 0, 1)


def test_rho_open_unit_trace_and_psd():
    for geo in [(1, 1, 1), (2, 1, 2), (1, 3, 2), (3, 2, 1)]:
        op = rho_ab_open(*geo)
        vals = np.real(hermitian_eigvals(op.normalized))
        assert np.trace(op.normalized).real == pytest.approx(1.0, abs=1e-13)
        assert vals.min() > -1e-13


def test_rho_open_matches_polynomial_route():
    for la, gap, lb in [(1, 1, 1), (2, 1, 2), (1, 2, 3), (2, 2, 2)]:
        mode = rho_ab_open(la, gap, lb).spectrum()
        poly = disjoint_spectrum(la, gap, lb)
        assert mode.eigenvalues == pytest.approx(poly.eigenvalues, abs=1e-12)


def test_rho_adjacent_pt_matches_polynomial_route():
    for la, lb in [(1, 1), (1, 2), (2, 2), (3, 2)]:
        op = mode_partial_transpose(rho_ab_adjacent(la, lb))
        got = op.spectrum()
        want = adjacent_pt_spectrum(la, lb)
        assert got.eigenvalues == pytest.approx(want.eigenvalues, abs=1e-12)
        assert got.negativity == pytest.approx(
            adjacent_pt_negativity(la, lb).negativity, abs=1e-12
        )


def test_mode_pt_is_involution():
    op = rho_ab_open(2, 1, 1)
    back = mode_partial_transpose(mode_partial_transpose(op))
    assert back.normalized.tobytes() == op.normalized.tobytes()


def test_mode_pt_positive_when_separated():
    for gap in (1, 2, 3):
        op = mode_partial_transpose(rho_ab_open(2, gap, 2))
        vals = np.real(hermitian_eigvals(op.normalized))
        assert vals.min() > -1e-13


def test_mode_partial_trace_gives_channel_weights():
    op = rho_ab_open(2, 1, 3)
    for side, length in (("B", 2), ("A", 3)):
        red = mode_partial_trace(op, side)
        vals = np.sort(np.real(hermitian_eigvals(red)))
        want = np.sort(ChannelWeights.from_length(length).weights)
        assert vals == pytest.approx(want, abs=1e-13)
    with pytest.raises(ValueError):
        mode_partial_trace(op, "C")


# -------------------------------------------------------------- end blocks


def test_rho_ce_spectra_middle_one():
    block, pt = rho_ce_spectra(1)
    w = ChannelWeights.from_length(1)
    assert block.eigenvalues == pytest.approx(
        tuple(sorted([w.singlet] + [w.triplet] * 3)), abs=1e-15
    )
    assert pt.eigenvalues == pytest.approx((1 / 6, 1 / 6, 1 / 6, 1 / 2), abs=1e-15)
    assert pt.negativity == 0.0


def test_rho_ce_no_negativity_any_middle():
    for mid in (1, 2, 3, 5):
        _, pt = rho_ce_spectra(mid)
        assert pt.negativity == 0.0


# ------------------------------------------------------------------- rings


def test_rho_pbc_unit_trace_and_psd():
    for geo in [(1, 1, 1, 1), (2, 1, 2, 1), (1, 2, 2, 3)]:
        op = rho_ab_pbc(*geo)
        vals = np.real(hermitian_eigvals(op.normalized))
        assert np.trace(op.normalized).real == pytest.approx(1.0, abs=1e-13)
        assert vals.min() > -1e-13


def test_rho_pbc_pt_positive_with_gaps():
    for geo in [(1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 3, 1), (2, 2, 2, 2)]:
        op = mode_partial_transpose(rho_ab_pbc(*geo))
        vals = np.real(hermitian_eigvals(op.normalized))
        assert vals.min() > -1e-12


def test_rho_pbc_large_ring_approaches_open():
    # with one huge gap the ring factorizes into the open-chain state
    ring = rho_ab_pbc(2, 2, 1, 9).spectrum()
    chain = rho_ab_open(2, 1, 2).spectrum()
    assert ring.eigenvalues == pytest.approx(chain.eigenvalues, abs=1e-4)


def test_convexity_coefficients_simplex():
    for gc in range(1, 7):
        for gd in range(1, 7):
            weights = convexity_coefficients(gc, gd)
            assert min(weights) >= 0.0
            assert max(weights) <= 1.0
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)


def test_convexity_coefficients_anchor_values():
    assert convexity_coefficients(1, 1) == pytest.approx(
        (0.25, 0.25, 0.25, 0.25), abs=1e-15
    )
    assert sorted(convexity_coefficients(2, 1)) == pytest.approx(
        sorted((1 / 12, 1 / 12, 5 / 12, 5 / 12)), abs=1e-15
    )


def test_convexity_mixture_closes():
    # the four corner tensors, weighted, must equal the transposed tensor
    for gc, gd in [(1, 1), (2, 1), (1, 3), (2, 2), (3, 4)]:
        zc, zd = decay_parameter(gc), decay_parameter(gd)
        zt = decay_parameter(gc + gd + 2)
        target = _pbc_coefficients(-zc, -zd, zt)
        # corner (z_d, z_c) values matching the documented weight order
        corners = [(1.0, 1.0), (-1 / 3, 1.0), (1.0, -1 / 3), (-1 / 3, -1 / 3)]
        weights = convexity_coefficients(gc, gd)
        mix = sum(
            w * _pbc_coefficients(cc, dd, zt)
            for w, (dd, cc) in zip(weights, corners)
        )
        assert np.max(np.abs(mix - target)) < 1e-14


def test_convexity_breaks_at_zero_gap():
    # gap 0 flips z to -1, outside the node interval: some weight must
    # leave [0, 1], matching the construction's stated limit
    weights = convexity_coefficients(0, 1)
    assert min(weights) < 0.0


# ---------------------------------------------------------------- measures


def test_measures_far_blocks_nearly_mixed():
    m = measures(rho_ab_open(6, 6, 6))
    assert m.report.entropy == pytest.approx(4.0 * math.log(2.0), abs=1e-4)
    assert m.report.purity == pytest.approx(1.0 / 16.0, abs=1e-5)
    assert m.mutual_information == pytest.approx(0.0, abs=1e-5)


def test_measures_mutual_information_tracks_closed_form():
    for gap in (1, 2, 3):
        m = measures(rho_ab_open(6, gap, 6))
        target = mutual_information(decay_parameter(gap))
        tol = 0.01 if gap == 1 else 0.002
        assert abs(m.mutual_information - target) < tol


def test_measures_entropy_symmetry():
    m = measures(rho_ab_open(3, 2, 3))
    assert m.entropy_a == pytest.approx(m.entropy_b, abs=1e-13)


def _measures_one_by_one(op):
    """The per-operator measures the stacked evaluation replaced."""
    report = reference_report(hermitian_eigvals(op.normalized))
    ent = {}
    for side in ("A", "B"):
        vals = hermitian_eigvals(mode_partial_trace(op, "B" if side == "A" else "A"))
        ent[side] = reference_report(vals).entropy
    return (
        report,
        reference_report(hermitian_eigvals(mode_partial_transpose(op).normalized)),
        ent["A"],
        ent["B"],
        ent["A"] + ent["B"] - report.entropy,
    )


def test_stacked_measures_equal_per_operator_calls_bitwise():
    # open, adjacent and ring operators, up to lengths where z underflows,
    # touching ring blocks included; repr tells every float (and -0.0) apart
    lengths = (1, 2, 3, 5, 12, 40, 1000)
    ops = [rho_ab_open(la, gap, lb) for la in lengths for gap in (1, 2, 7) for lb in (1, 4)]
    ops += [rho_ab_adjacent(la, lb) for la in lengths for lb in (1, 3, 1000)]
    ops += [rho_ab_pbc(la, lb, lc, ld) for la in (1, 2, 40) for lb in (1, 3)
            for lc in (0, 1, 5) for ld in (1, 2)]
    for size in (1, 7, 16, len(ops)):
        stacked = []
        for start in range(0, len(ops), size):
            chunk = ops[start : start + size]
            stacked += stacked_measures(
                EffectiveDensityOperator(np.array([op.normalized for op in chunk]))
            )
        for op, m in zip(ops, stacked, strict=True):
            got = (m.report, m.transpose, m.entropy_a, m.entropy_b, m.mutual_information)
            assert repr(got) == repr(_measures_one_by_one(op))
            assert repr(measures(op)) == repr(m)


# short blocks give clamped zeros (w_singlet(1) = 0) and negative transpose
# eigenvalues; from 679 on, z underflows to a signed zero
_LENGTHS = st.one_of(st.integers(1, 4), st.integers(1, 1000), st.integers(679, 1000))
_RING_GAPS = st.one_of(st.integers(0, 2), st.integers(0, 1000))
_OPEN_GAPS = st.one_of(st.integers(0, 2), st.integers(0, 1000), st.integers(679, 1000))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_LENGTHS, _OPEN_GAPS, _LENGTHS), min_size=1, max_size=16),
    st.lists(st.tuples(_LENGTHS, _LENGTHS, _RING_GAPS, _RING_GAPS), min_size=1, max_size=16),
)
@example([(1, 0, 1), (1, 1, 1), (679, 1000, 680)], [(1, 1, 0, 0), (700, 2, 0, 679)])
def test_block_marginals_are_diagonal_and_their_diagonal_is_their_spectrum(opens, rings):
    # stacked_measures reads each marginal's spectrum off its diagonal
    stacks = [open_stack(*zip(*opens)), ring_stack(*zip(*rings))]
    off = ~np.eye(4, dtype=bool)
    for stack in stacks:
        modes = stack.normalized.reshape(-1, 4, 4, 4, 4)
        for marginal in (np.einsum("pabcb->pac", modes), np.einsum("pabad->pbd", modes)):
            assert np.all(marginal[:, off] == 0.0)
            diagonal = np.sort(np.diagonal(marginal, axis1=1, axis2=2), axis=-1)
            assert hermitian_eigvals(marginal).tobytes() == diagonal.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_LENGTHS, _OPEN_GAPS, _LENGTHS), min_size=1, max_size=16),
    st.lists(st.tuples(_LENGTHS, _LENGTHS, _RING_GAPS, _RING_GAPS), min_size=1, max_size=16),
)
@example([(1, 0, 1), (2, 1, 1), (679, 1000, 680)], [(1, 1, 0, 0), (700, 2, 0, 679)])
def test_mode_pt_is_an_index_swap_that_keeps_the_diagonal(opens, rings):
    # two swaps restore the unit-trace operator bitwise, and the swap
    # leaves each member's diagonal, hence its trace, as built
    for stack in (open_stack(*zip(*opens)), ring_stack(*zip(*rings))):
        transposed = mode_partial_transpose(stack)
        back = mode_partial_transpose(transposed)
        assert back.normalized.tobytes() == stack.normalized.tobytes()
        diagonal = np.diagonal(transposed.normalized, axis1=1, axis2=2)
        assert diagonal.tobytes() == np.diagonal(stack.normalized, axis1=1, axis2=2).tobytes()


_SIGNS = np.array(CHANNEL_SIGNS, dtype=float)
_EYE = np.eye(4)
# calibrated epsilon in the coefficient-tensor index order [mu, rho, alpha, beta]
_EPS = np.einsum("abmr->mrab", calibrated_epsilon().astype(float))


def _obc_one_by_one(z):
    """The open-chain coefficients of one scalar z, in the per-point einsum form."""
    s_pair = (_SIGNS[:, None] + _SIGNS[None, :]) / 2.0
    s_ma = s_pair[:, None, :, None]
    s_rb = s_pair[None, :, None, :]
    d_mr_ab = np.einsum("mr,ab->mrab", _EYE, _EYE)
    d_ra_mb = np.einsum("ra,mb->mrab", _EYE, _EYE)
    linear = -(d_mr_ab - d_ra_mb) * s_ma + _EPS * (s_rb - s_ma) / 2.0
    return np.einsum("ma,rb->mrab", _EYE, _EYE) + z * linear


def _pbc_one_by_one(z_c, z_d, z_total):
    """The ring coefficients of one scalar triple, in the per-point einsum form."""
    s = _SIGNS
    norm = 1.0 + 3.0 * z_total
    x, y = z_d, z_c

    def lam(xx, yy):
        pair = s[:, None] * s[None, :] + s[:, None] + s[None, :]
        return (1.0 + pair * xx * yy) / norm

    def gam(xx, yy):
        return (s[:, None] + s[None, :]) * (xx * yy - (xx + yy) / 2.0) / norm

    r4 = (
        s[:, None, None, None]
        - s[None, :, None, None]
        + s[None, None, :, None]
        - s[None, None, None, :]
    ) * (x - y) / (4.0 * norm)
    term1 = np.einsum("ma,rb,ab->mrab", _EYE, _EYE, lam(x, y))
    term2 = np.einsum("ar,mb,am->mrab", _EYE, _EYE, gam(x, y))
    term3 = _EPS * np.einsum("rmba->mrab", r4)
    term4 = np.einsum("mr,ab,ma->mrab", _EYE, _EYE, gam(-x, -y))
    return term1 - term2 + term3 - term4


def _built_one_by_one(coeff4, block_a, block_b):
    """The per-point build the broadcast one replaced: one operator, its own trace."""
    w_a = np.array(ChannelWeights.from_length(block_a).weights)
    w_b = np.array(ChannelWeights.from_length(block_b).weights)
    gram = np.einsum("m,r->mr", w_a, w_b).reshape(16)
    coeff = coeff4.reshape(16, 16)
    half = np.sqrt(gram)
    normalized = half[:, None] * coeff * half[None, :]
    return EffectiveDensityOperator(normalized / float(np.trace(normalized)))


def _operator_one_by_one(name, params):
    la, lb = params["la"], params["lb"]
    if name == "pbc":
        lc, ld = params["lc"], params["ld"]
        z = [decay_parameter(length) for length in (lc, ld, la + lb + lc + ld)]
        return _built_one_by_one(_pbc_one_by_one(*z), la, lb)
    z = 1.0 if name == "adjacent" else decay_parameter(params["gap"])
    return _built_one_by_one(_obc_one_by_one(z), la, lb)


# a ring holds its two blocks, so its total length is at least 2
_RING_TOTALS = st.one_of(st.integers(2, 5), st.integers(2, 4000), st.integers(679, 4000))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_RING_GAPS, _RING_GAPS, _RING_TOTALS), min_size=1, max_size=40))
@example([(0, 0, 2), (0, 679, 700), (1, 2, 2000), (679, 680, 5)])
def test_broadcast_coefficients_equal_the_einsum_reference_bitwise(rings):
    # tobytes tells -0.0 from 0.0, which repr of a report need not show
    z_c, z_d, z_total = (
        np.array([decay_parameter(length) for length in column]) for column in zip(*rings)
    )
    stacked = _pbc_coefficients(z_c, z_d, z_total)
    for member, zs in zip(stacked, zip(z_c, z_d, z_total), strict=True):
        want = _pbc_one_by_one(*map(float, zs)).tobytes()
        assert member.tobytes() == want
        assert _pbc_coefficients(*map(float, zs)).tobytes() == want
    zs = np.append(z_c, 1.0)
    for member, z in zip(_obc_coefficients(zs), zs, strict=True):
        want = _obc_one_by_one(float(z)).tobytes()
        assert member.tobytes() == want
        assert _obc_coefficients(float(z)).tobytes() == want


@st.composite
def _geometry_points(draw):
    name = draw(st.sampled_from(["disjoint", "adjacent", "pbc", "mutual-info"]))
    geo = GEOMETRIES[name]
    points = []
    for _ in range(draw(st.integers(1, 40))):
        given = {f: draw(_RING_GAPS if f in ("lc", "ld") else _LENGTHS) for f in geo.names}
        if geo.equal_blocks:
            given["lb"] = given["la"]
        points.append(geo.params(**given))
    return name, points


@settings(max_examples=60, deadline=None)
@given(_geometry_points())
@example(("adjacent", [dict(la=1, lb=1), dict(la=1, lb=3), dict(la=2, lb=679)]))
@example(("disjoint", [dict(la=1, gap=1, lb=1), dict(la=679, gap=1000, lb=680)]))
@example(("pbc", [dict(la=1, lb=1, lc=0, ld=0), dict(la=700, lb=2, lc=0, ld=679)]))
def test_geometry_reports_equal_the_per_point_reference_bitwise(drawn):
    # the stacked route from broadcast build to report pass against one
    # operator built, solved and reported at a time
    name, points = drawn
    want = []
    for params in points:
        report, transpose, _, _, mutual = _measures_one_by_one(_operator_one_by_one(name, params))
        want.append((report, transpose, mutual))
    assert repr(GEOMETRIES[name].reports(points)) == repr(want)
