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

from vbsent import effective_rho as er
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
    SECTOR_RESIDUAL_BOUND,
    SECTOR_ROTATION,
    EffectiveDensityOperator,
    _obc_coefficients,
    _pbc_coefficients,
    contraction_defect,
    convexity_coefficients,
    measures,
    mode_partial_transpose,
    open_measures,
    open_stack,
    rho_ab_adjacent,
    rho_ab_open,
    rho_ab_pbc,
    rho_ce_spectra,
    ring_measures,
    ring_stack,
)
from vbsent.geometry import GEOMETRIES
from vbsent.linalg import (
    EIG_CLAMP,
    HermitianOperator,
    hermitian_eigvals,
    partial_trace,
)
from vbsent.pauli_algebra import calibrated_epsilon
from spectrum_reference import reference_report


def mode_partial_trace(op, over):
    """Trace the orthonormal 16x16 matrix over one block's mode factor.

    The per-operator reference for the block marginals, whose spectra
    `measures` and the sector route read off their diagonals without a solve.
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
    [(mode, mode_pt, _)], _ = geo.reports([params])
    for got, want in zip(geo.oracle(**params), (mode, mode_pt)):
        size = max(len(got.eigenvalues), len(want.eigenvalues))
        gap = _padded(got.eigenvalues, size) - _padded(want.eigenvalues, size)
        assert np.max(np.abs(gap)) <= 1e-10


def _padded(values, size: int) -> np.ndarray:
    return np.sort(np.concatenate([values, np.zeros(size - len(values))]))


def test_every_geometry_reports_no_points_as_no_reports():
    for geo in GEOMETRIES.values():
        assert geo.reports([]) == ([], [])


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
    report, _, mutual = measures(rho_ab_open(6, 6, 6))
    assert report.entropy == pytest.approx(4.0 * math.log(2.0), abs=1e-4)
    assert report.purity == pytest.approx(1.0 / 16.0, abs=1e-5)
    assert mutual == pytest.approx(0.0, abs=1e-5)


def test_measures_mutual_information_tracks_closed_form():
    for gap in (1, 2, 3):
        _, _, mutual = measures(rho_ab_open(6, gap, 6))
        target = mutual_information(decay_parameter(gap))
        tol = 0.01 if gap == 1 else 0.002
        assert abs(mutual - target) < tol


def _sector_values_one_by_one(matrix):
    """The 16 eigenvalues of one 16x16 operator, solved by sector on its own.

    One 2-D rotation, the singlet block S, the triplet block A of the
    first copy (rows and columns 2, 5, 8), solved three times over, and
    the first quintet entry five times: the per-operator reference for
    the stacked sector solve.
    """
    rotated = SECTOR_ROTATION.T @ matrix @ SECTOR_ROTATION
    singlets = hermitian_eigvals(rotated[:2, :2])
    triplets = hermitian_eigvals(rotated[2:11:3, 2:11:3])
    return [*singlets, *np.repeat(triplets, 3), *[rotated[11, 11]] * 5]


def _measures_one_by_one(op):
    """The per-operator measures the stacked evaluation replaced."""
    report = reference_report(_sector_values_one_by_one(op.normalized))
    ent = {}
    for side in ("A", "B"):
        vals = hermitian_eigvals(mode_partial_trace(op, "B" if side == "A" else "A"))
        ent[side] = reference_report(vals).entropy
    return (
        report,
        reference_report(_sector_values_one_by_one(mode_partial_transpose(op).normalized)),
        ent["A"] + ent["B"] - report.entropy,
    )


def test_measures_equal_the_per_operator_reference_bitwise():
    # open, adjacent and ring operators, up to lengths where z underflows,
    # touching ring blocks included; repr tells every float (and -0.0) apart
    lengths = (1, 2, 3, 5, 12, 40, 1000)
    ops = [rho_ab_open(la, gap, lb) for la in lengths for gap in (1, 2, 7) for lb in (1, 4)]
    ops += [rho_ab_adjacent(la, lb) for la in lengths for lb in (1, 3, 1000)]
    ops += [rho_ab_pbc(la, lb, lc, ld) for la in (1, 2, 40) for lb in (1, 3)
            for lc in (0, 1, 5) for ld in (1, 2)]
    for op in ops:
        assert repr(measures(op)) == repr(_measures_one_by_one(op))


# short blocks give clamped zeros (w_singlet(1) = 0) and negative transpose
# eigenvalues; from 679 on, z underflows to a signed zero
_LENGTHS = st.one_of(st.integers(1, 4), st.integers(1, 1000), st.integers(679, 1000))
_RING_GAPS = st.one_of(st.integers(0, 2), st.integers(0, 1000))
_OPEN_GAPS = st.one_of(st.integers(0, 2), st.integers(0, 1000), st.integers(679, 1000))


# u = 2^-53, the unit round-off of binary64
_U = np.finfo(float).eps / 2
# Each entry of a member's sector form is within 11 u of the exact
# Q^T rho Q (the rotation's round-off, derived in _off_sector) plus
# its residual, at most SECTOR_RESIDUAL_BOUND = 22 u; an entrywise gap of
# e moves the 2-norm by at most 16 e, hence each eigenvalue by at most
# 16 x 33 u (Weyl).  A LAPACK symmetric solve moves an eigenvalue by at
# most p(n) u ||rho||_2 more, taken as n u with ||rho||_2 <= ||rho||_F <= 1:
# 16 u for the dense referee, 3 u for the largest sector block.
_SECTOR_SPECTRUM_BOUND = 16 * 33 * _U + (16 + 3) * _U


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_LENGTHS, _OPEN_GAPS, _LENGTHS), min_size=1, max_size=16),
    st.lists(st.tuples(_LENGTHS, _LENGTHS), min_size=1, max_size=16),
    st.lists(st.tuples(_LENGTHS, _LENGTHS, _RING_GAPS, _RING_GAPS), min_size=1, max_size=16),
)
@example(
    [(1, 1, 1), (679, 1000, 680), (2, 679, 3)],
    [(1, 1), (1, 679), (1000, 1000)],
    [(1, 1, 0, 0), (700, 2, 0, 679), (1, 1000, 0, 1), (3, 2, 1, 0)],
)
def test_sector_spectra_equal_the_dense_solve_within_a_derived_bound(opens, adjacent, rings):
    # the open, adjacent and ring stacks, touching ring gaps included,
    # each solved by sector and by the dense complex 16x16 referee
    la, lb = zip(*adjacent)
    stacks = [open_stack(*zip(*opens)), open_stack(la, [0] * len(la), lb), ring_stack(*zip(*rings))]
    for stack in stacks:
        members = np.concatenate([stack.normalized, mode_partial_transpose(stack).normalized])
        values, residuals = er._sector_eigvals(members)
        assert residuals.shape == (len(members),)
        assert residuals.max() <= SECTOR_RESIDUAL_BOUND
        for solved, matrix in zip(values, members):
            dense = np.linalg.eigvalsh(matrix.astype(complex))
            assert np.max(np.abs(np.sort(solved) - dense)) <= _SECTOR_SPECTRUM_BOUND


def _rotation_from_its_columns(pairs):
    """Q from its column list, with the pair (i, j) of each triplet mode 0, 1, 3."""

    def pair(mu, rho):
        column = np.zeros(16)
        column[4 * mu + rho] = 1.0
        return column

    t = (0, 1, 3)
    columns = [pair(2, 2), (pair(0, 0) + pair(1, 1) + pair(3, 3)) / np.sqrt(3.0)]
    columns += [pair(2, k) for k in t] + [pair(k, 2) for k in t]
    columns += [(pair(i, j) - pair(j, i)) / np.sqrt(2.0) for i, j in pairs]
    columns += [(pair(i, j) + pair(j, i)) / np.sqrt(2.0) for i, j in pairs]
    columns += [
        (pair(0, 0) - pair(1, 1)) / np.sqrt(2.0),
        (pair(0, 0) + pair(1, 1) - 2.0 * pair(3, 3)) / np.sqrt(6.0),
    ]
    return np.array(columns).T


def test_sector_rotation_is_the_orthogonal_q_of_its_column_list():
    q = _rotation_from_its_columns([(1, 3), (3, 0), (0, 1)])
    assert np.array_equal(SECTOR_ROTATION, q)
    assert np.max(np.abs(q.T @ q - np.eye(16))) <= 4 * _U


def test_a_non_cyclic_triplet_order_fails_the_residual_check(monkeypatch):
    # (i, j) in sorted order flips the sign of the second antisymmetric
    # triplet column, so the three triplet copies no longer agree wherever
    # the triplet block couples that column: not at a block of length 1,
    # which has no singlet weight, nor on a ring with both gaps equal,
    # where the epsilon term vanishes
    opens = [(2, 1, 3), (2, 2, 2), (1, 0, 2)]
    rings = [(2, 3, 0, 1), (2, 1, 1, 2)]
    ops = [open_stack(*zip(*opens)), ring_stack(*zip(*rings))]
    assert open_measures(*zip(*opens))[1].max() <= SECTOR_RESIDUAL_BOUND
    assert ring_measures(*zip(*rings))[1].max() <= SECTOR_RESIDUAL_BOUND
    monkeypatch.setattr(er, "SECTOR_ROTATION", _rotation_from_its_columns([(1, 3), (0, 3), (0, 1)]))
    # every joint and transposed member, rotated by the broken Q
    members = np.concatenate([np.concatenate([op.normalized, mode_partial_transpose(op).normalized]) for op in ops])
    residuals = np.abs(er._off_sector(er._rotated(members))).max(axis=1)
    assert np.all(residuals > 100 * SECTOR_RESIDUAL_BOUND)
    for stack in ops:
        for member in range(len(stack.normalized)):
            with pytest.raises(ValueError, match="off-sector residual"):
                measures(stack[member])
            with pytest.raises(ValueError, match="off-sector residual"):
                stack[member].spectrum()
    # the sector route's constants, rotated by the broken Q
    monkeypatch.setattr(er, "_OPEN_SECTORS", er._sectors([er._OBC_BASE, er._OBC_LINEAR], [0, 1]))
    monkeypatch.setattr(er, "_RING_SECTORS", er._sectors(er._ring_parts(), [0, 1, 1, 2]))
    for point in opens:
        with pytest.raises(ValueError, match="off-sector residual"):
            open_measures(*zip(point))
    for point in rings:
        with pytest.raises(ValueError, match="off-sector residual"):
            ring_measures(*zip(point))


def test_the_sector_solve_rejects_a_broken_symmetry_and_a_nan_residual(monkeypatch):
    # a Hermitian operator that couples the two singlet-sector states to a
    # triplet one passes the Hermiticity check and fails the residual one
    broken = rho_ab_open(1, 1, 1).normalized.copy()
    broken[10, 0] = broken[0, 10] = 1e-14
    with pytest.raises(ValueError, match=r"off-sector residual 1\.\d+e-14"):
        measures(EffectiveDensityOperator(broken))
    monkeypatch.setattr(er, "_off_sector", lambda rotated: np.full((len(rotated), 256), np.nan))
    with pytest.raises(ValueError, match="off-sector residual nan"):
        measures(rho_ab_open(1, 1, 1))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_LENGTHS, _OPEN_GAPS, _LENGTHS), min_size=1, max_size=16),
    st.lists(st.tuples(_LENGTHS, _LENGTHS, _RING_GAPS, _RING_GAPS), min_size=1, max_size=16),
)
@example([(1, 0, 1), (1, 1, 1), (679, 1000, 680)], [(1, 1, 0, 0), (700, 2, 0, 679)])
def test_block_marginals_are_diagonal_and_their_diagonal_is_their_spectrum(opens, rings):
    # measures and the sector route read each marginal's spectrum off its diagonal
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


def _built(name, points):
    """The matrix route's one-point operators of a geometry's points, as one stack."""
    column = {f: [params[f] for params in points] for f in GEOMETRIES[name].names}
    if name == "pbc":
        return ring_stack(column["la"], column["lb"], column["lc"], column["ld"])
    gaps = [0] * len(points) if name == "adjacent" else column["gap"]
    return open_stack(column["la"], gaps, column["lb"])


def _sector_route(name, points):
    """The sector route's builder over all points in one call, stack cap aside."""
    column = {f: [params[f] for params in points] for f in GEOMETRIES[name].names}
    if name == "pbc":
        return ring_measures(column["la"], column["lb"], column["lc"], column["ld"])
    gaps = [0] * len(points) if name == "adjacent" else column["gap"]
    return open_measures(column["la"], gaps, column["lb"])


@st.composite
def _geometry_points(draw, sizes=st.integers(1, 40)):
    name = draw(st.sampled_from(["disjoint", "adjacent", "pbc", "mutual-info"]))
    geo = GEOMETRIES[name]
    points = []
    for _ in range(draw(sizes)):
        given = {f: draw(_RING_GAPS if f in ("lc", "ld") else _LENGTHS) for f in geo.names}
        if geo.equal_blocks:
            given["lb"] = given["la"]
        points.append(geo.params(**given))
    return name, points


# The sector route against the matrix route, entry by entry in units of u
# and at first order.  Every member's entries are bounded through
# B = max |Q|^T (sum_k |T_k|) |Q| / 8: a block's channel weights are at
# most 1/3, so D^(1/2) is at most 1/3 entrywise, and each |c_k| is at most
# 9/8 (1 + 3 z(N) >= 8/9 on a ring).  B is 3/8 on the open chain and 3/2
# on the ring.
#   - Sector route: 11 B from rotating each constant (the argument of
#     _off_sector applied to T_k), 8 B from the coefficients and the sum
#     over K <= 4 constants, 6 B from the two Gram factors and 17 from the
#     division by the 16-term trace: 25 B + 17.
#   - Matrix route: 11 from its rotation, plus 16 x 12 B from the built
#     operator's own round-off (at most 12 roundings of terms of size at
#     most B per entry, carried into every rotated entry through the
#     2-norm, which is at most 16 times the largest entry).
# Weyl on blocks of at most 3 rows, and LAPACK's 3 u on each side, give
# each eigenvalue's gap.  A marginal's value sums 4 diagonal entries, each
# within (25 B + 17) + 12 B.
_B = max(
    float((np.abs(SECTOR_ROTATION).T @ sum(np.abs(t.reshape(16, 16)) for t in parts)
           @ np.abs(SECTOR_ROTATION)).max()) / 8
    for parts in ([er._OBC_BASE, er._OBC_LINEAR], er._ring_parts())
)
_ROUTE_SPECTRUM_BOUND = (3 * (25 * _B + 17 + 11 + 16 * 12 * _B) + 6) * _U
_ROUTE_MARGINAL_BOUND = (4 * (25 * _B + 17 + 12 * _B) + 3) * _U


def _entropy_gap_bound(values, delta):
    """The largest move of the clamped entropy when each value moves by at most delta.

    No value may lie within delta of EIG_CLAMP, so a moved value keeps its
    side of the clamp; past it, |d(-x ln x)/dx| = |1 + ln x| <= 1 + |ln x|
    on (0, 1], taken at the smallest value the move allows.
    """
    values = np.asarray(values, dtype=float)
    assert not np.any(np.abs(values - EIG_CLAMP) <= delta)
    kept = values[values > EIG_CLAMP]
    return float(np.sum(delta * (1.0 + np.abs(np.log(kept - delta)))))


def test_the_route_bounds_read_the_constants():
    assert _B == pytest.approx(1.5)
    assert _ROUTE_SPECTRUM_BOUND < 1.2e-13 and _ROUTE_MARGINAL_BOUND < 4e-14


@settings(max_examples=60, deadline=None)
@given(_geometry_points())
@example(("adjacent", [dict(la=1, lb=1), dict(la=1, lb=3), dict(la=2, lb=679)]))
@example(("disjoint", [dict(la=1, gap=1, lb=1), dict(la=679, gap=1000, lb=680)]))
@example(("pbc", [dict(la=1, lb=1, lc=0, ld=0), dict(la=700, lb=2, lc=0, ld=679)]))
def test_geometry_reports_agree_with_the_matrix_route_within_a_derived_bound(drawn):
    # the sector route against each point's 16x16 operator, built as one
    # point at a time builds it, rotated and solved by _sector_eigvals
    name, points = drawn
    built = _built(name, points)
    reports, residuals = GEOMETRIES[name].reports(points)
    assert max(residuals) <= SECTOR_RESIDUAL_BOUND
    for params, op, (block, pt, mutual) in zip(points, built, reports, strict=True):
        assert op.normalized.tobytes() == _operator_one_by_one(name, params).normalized.tobytes()
        values, _ = er._sector_eigvals(np.stack([op.normalized, mode_partial_transpose(op).normalized]))
        want_block, want_pt, want_mutual = measures(op)
        for report, solved in ((block, values[0]), (pt, values[1])):
            gap = np.abs(np.array(report.eigenvalues) - np.sort(solved))
            assert gap.max() <= _ROUTE_SPECTRUM_BOUND
        marginals = [
            np.sort(hermitian_eigvals(mode_partial_trace(op, side)).real) for side in ("B", "A")
        ]
        bound = _entropy_gap_bound(want_block.eigenvalues, _ROUTE_SPECTRUM_BOUND)
        bound += sum(_entropy_gap_bound(m, _ROUTE_MARGINAL_BOUND) for m in marginals)
        assert abs(mutual - want_mutual) <= bound


_S = er.STACK_POINTS
# a stack of one, one short of the cap, the cap, one over it, and two
# full stacks and a partial third
_STACK_EDGES = (1, _S - 1, _S, _S + 1, 2 * _S + 8)


@settings(max_examples=20, deadline=None)
@given(_geometry_points(st.sampled_from(_STACK_EDGES)))
@example(("pbc", [dict(la=1, lb=1, lc=0, ld=0), dict(la=700, lb=2, lc=0, ld=679)] * (_S // 2)))
def test_each_member_equals_its_one_point_call_at_stack_edges(drawn):
    # the constants are combined by elementwise operations in a fixed
    # order, so no member's floats depend on its stack: tobytes and repr
    # tell every float (and -0.0) apart
    name, points = drawn
    geo = GEOMETRIES[name]
    singles = [geo.reports([params]) for params in points]
    reports, residuals = geo.reports(points)
    assert repr(reports) == repr([report for (report,), _ in singles])
    together, checked = _sector_route(name, points)
    assert repr(together) == repr(reports)
    count = len(points)
    for member, (_, (joint, transposed)) in enumerate(singles):
        assert checked[member].hex() == joint.hex()
        assert checked[count + member].hex() == transposed.hex()
    # Geometry.reports hands on each stack's joint, then transposed, residuals
    ends = [(start, min(start + _S, count)) for start in range(0, count, _S)]
    parts = [checked[shift + start : shift + end] for start, end in ends for shift in (0, count)]
    assert residuals == [x for part in parts for x in part.tolist()]


def test_each_rotated_constant_is_hermitian_and_in_sector_form_to_4_u():
    # the route's residual budget reads e = 4 u (see _off_sector)
    for parts in ([er._OBC_BASE, er._OBC_LINEAR], er._ring_parts()):
        rotated = er._rotated_constants(np.array([t.reshape(16, 16) for t in parts]))
        assert np.abs(rotated - rotated.swapaxes(1, 2)).max() <= 4 * _U
        assert np.abs(er._off_sector(rotated)).max() == 4 * _U


def test_each_constant_is_even_or_odd_under_the_mode_transpose():
    # the transpose flips the sign of every gap parameter, so of each
    # monomial of odd degree; the routes' flips are exact
    for sectors, parts in ((er._OPEN_SECTORS, [er._OBC_BASE, er._OBC_LINEAR]),
                           (er._RING_SECTORS, er._ring_parts())):
        _, flips, _, _ = sectors
        for flip, tensor in zip(flips, parts, strict=True):
            matrix = tensor.reshape(16, 16)
            assert np.array_equal(er._swap_a_modes(matrix), flip * matrix)


@pytest.mark.parametrize("z_c, z_d, z_total", [(1 / 3, -1 / 9, 1 / 81), (-1 / 3, 1.0, -1 / 27), (0.0, -0.0, 0.0)])
def test_ring_parts_rebuild_the_ring_coefficients(z_c, z_d, z_total):
    base, d, c, dc = er._ring_parts()
    mixed = (base + z_d * d + z_c * c + z_d * z_c * dc) / (1.0 + 3.0 * z_total)
    assert np.abs(mixed - _pbc_coefficients(z_c, z_d, z_total)).max() <= 4 * _U


@pytest.mark.parametrize("length_a, length_b", [(1, 1), (2, 7), (1000, 3), (679, 680)])
def test_gram_weighting_is_constant_on_each_sector_state(length_a, length_b):
    # h Q = Q diag(g): so Q^T (h C h) Q = G (Q^T C Q) G, exactly
    half = np.sqrt(np.outer(er._weights([length_a])[0], er._weights([length_b])[0]).reshape(16))
    g = half[er._SUPPORT]
    assert np.array_equal(half[:, None] * SECTOR_ROTATION, SECTOR_ROTATION * g[None, :])


def test_an_unequal_triplet_weight_fails_the_sector_route(monkeypatch):
    weights = er._weights

    def broken(lengths):
        w = weights(lengths)
        w[:, 3] = np.nextafter(w[:, 3], 1.0)
        return w

    assert open_measures([2], [1], [3])[1].max() <= SECTOR_RESIDUAL_BOUND
    monkeypatch.setattr(er, "_weights", broken)
    with pytest.raises(ValueError, match="triplet weights differ"):
        open_measures([2], [1], [3])
    with pytest.raises(ValueError, match="triplet weights differ"):
        ring_measures([2], [3], [1], [1])


@pytest.mark.parametrize(
    "family, constant", [("open", 0), ("open", 1), ("ring", 0), ("ring", 1), ("ring", 2), ("ring", 3)]
)
def test_an_off_sector_perturbation_of_a_rotated_constant_fails(monkeypatch, family, constant):
    # 1e-13 on one off-sector entry, between two triplet x triplet states
    # (quintet rows 11 and 12), of one rotated constant; at touching gaps
    # every constant enters with a coefficient near 1
    if family == "open":
        parts, degrees, name, call = [er._OBC_BASE, er._OBC_LINEAR], [0, 1], "_OPEN_SECTORS", open_measures
        point = ([2], [0], [2])
    else:
        parts, degrees, name, call = er._ring_parts(), [0, 1, 1, 2], "_RING_SECTORS", ring_measures
        point = ([2], [2], [0], [0])
    assert call(*point)[1].max() <= SECTOR_RESIDUAL_BOUND
    rotated = er._rotated_constants

    def perturbed(matrices):
        out = rotated(matrices)
        out[constant, 11, 12] += 1e-13
        return out

    with monkeypatch.context() as patch:
        patch.setattr(er, "_rotated_constants", perturbed)
        sectors = er._sectors(parts, degrees)
    monkeypatch.setattr(er, name, sectors)
    with pytest.raises(ValueError, match="off-sector residual"):
        call(*point)


def test_a_non_hermitian_rotated_constant_is_rejected_at_packing(monkeypatch):
    rotated = er._rotated_constants

    def perturbed(matrices):
        out = rotated(matrices)
        out[1, 0, 1] += 1e-11
        return out

    monkeypatch.setattr(er, "_rotated_constants", perturbed)
    with pytest.raises(ValueError, match="not Hermitian"):
        er._sectors([er._OBC_BASE, er._OBC_LINEAR], [0, 1])


def test_a_lost_unit_trace_is_rejected_by_both_builds(monkeypatch):
    # doubled coefficients double the trace, in sector form and as a matrix
    with pytest.raises(ValueError, match=r"lost the unit trace: 2\.0"):
        er._assemble(2.0 * _obc_coefficients(decay_parameter(1))[None], [2], [3])
    packed, flips, first, second = er._OPEN_SECTORS
    assert open_measures([2], [1], [3])[1].max() <= SECTOR_RESIDUAL_BOUND
    monkeypatch.setattr(er, "_OPEN_SECTORS", (2.0 * packed, flips, first, second))
    with pytest.raises(ValueError, match=r"lost the unit trace: 2\.0"):
        open_measures([2], [1], [3])
