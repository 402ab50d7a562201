"""Unit tests for the dense tensor-product linear algebra layer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbsent.linalg import (
    EIG_CLAMP,
    HermitianOperator,
    hermitian_eigvals,
    partial_trace,
    partial_transpose,
    reduced_density,
    spectrum_entropies,
    spectrum_report,
    spectrum_reports,
)
from spectrum_reference import reference_report


def random_hermitian(rng, dims):
    d = math.prod(dims)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(m + m.conj().T, dims)


def random_state(rng, dims):
    d = math.prod(dims)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return psi / np.linalg.norm(psi)


def test_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))


def test_operator_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        HermitianOperator(np.zeros((2, 3)), (2,))


def test_operator_rejects_wrong_site_dims():
    with pytest.raises(ValueError, match="site_dims"):
        HermitianOperator(np.eye(4), (2, 3))


def test_site_index_out_of_range():
    op = HermitianOperator(np.eye(4) / 4.0, (2, 2))
    with pytest.raises(IndexError):
        partial_trace(op, [2])
    with pytest.raises(IndexError):
        partial_transpose(op, [-1])


def test_spectrum_report_known_multiset():
    # the bond-cut multiset: trace 1, trace norm 2
    rep = spectrum_report([0.5, 0.5, 0.5, -0.5])
    assert rep.trace == pytest.approx(1.0, abs=1e-15)
    assert rep.negativity == pytest.approx(0.5, abs=1e-15)
    assert rep.log_negativity == pytest.approx(1.0, abs=1e-15)
    assert rep.purity == pytest.approx(1.0, abs=1e-15)
    assert rep.entropy == pytest.approx(1.5 * math.log(2.0), abs=1e-15)
    assert rep.eigenvalues == (-0.5, 0.5, 0.5, 0.5)


def test_spectrum_report_clamps_round_off():
    # tiny negatives are round-off, not entanglement
    rep = spectrum_report([1.0, -1e-15, 1e-15])
    assert rep.negativity == 0.0
    assert rep.entropy == pytest.approx(0.0, abs=1e-14)
    assert rep.entanglement_spectrum() == (pytest.approx(0.0, abs=1e-15),)


def test_entanglement_spectrum_is_minus_log():
    rep = spectrum_report([0.25, 0.75])
    xi = rep.entanglement_spectrum()
    assert xi == (
        pytest.approx(-math.log(0.25)),
        pytest.approx(-math.log(0.75)),
    )


def test_hermitian_eigvals_ascending():
    rng = np.random.default_rng(11)
    op = random_hermitian(rng, (2, 3))
    vals = hermitian_eigvals(op)
    assert np.all(np.diff(vals) >= 0)
    assert np.allclose(vals, np.sort(np.linalg.eigvals(op.entries).real))


def test_hermitian_eigvals_rejects_raw_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigvals(np.array([[0.0, 2.0], [0.0, 0.0]]))


def test_hermitian_eigvals_of_a_stack_check_every_member():
    rng = np.random.default_rng(3)
    stack = np.array([random_hermitian(rng, (4, 4)).entries for _ in range(3)])
    vals = hermitian_eigvals(stack)
    assert vals.shape == (3, 16)
    for member, row in zip(stack, vals):
        assert np.array_equal(row, hermitian_eigvals(HermitianOperator(member, (4, 4))))
    stack[1, 2, 5] += 1e-6
    with pytest.raises(ValueError, match=r"max \|M - M\^H\| = 1\.000e-06"):
        hermitian_eigvals(stack)


def test_hermitian_eigvals_rejects_a_nan_entry():
    # NaN - 2 is NaN, which fails every comparison with the tolerance
    m = np.array([[1.0, 2.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian: max .* = nan"):
        hermitian_eigvals(m)
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator(m, (2,))


def test_hermitian_eigvals_rejects_a_nan_stack_member():
    stack = np.array([np.eye(4)] * 3)
    stack[1, 3, 3] = np.nan
    with pytest.raises(ValueError, match="not Hermitian: max .* = nan"):
        hermitian_eigvals(stack)


# values around the clamp: clamped zeros of either sign, round-off and
# genuine negative eigenvalues, and weights down to underflow
_EIGENVALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-15, -1e-15, EIG_CLAMP, -EIG_CLAMP, 0.25, 1.0]),
    st.floats(-0.5, 1.0, allow_subnormal=True),
)


def _rows(n: int):
    # each row keeps one weight of at least 0.01, so its trace norm is positive
    row = st.tuples(st.lists(_EIGENVALUES, min_size=n - 1, max_size=n - 1), st.floats(0.01, 1.0))
    return st.lists(row.map(lambda drawn: drawn[0] + [drawn[1]]), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16).flatmap(_rows))
@example([[0.5, 0.5, 0.5, -0.5], [1.0, -1e-15, 1e-15, 0.0], [0.25, 0.25, 0.25, 0.25]])
@example([[0.5, 0.5, 0.25, -0.25], [1.0, -1e-15, 1e-15, 0.0]])  # every row its own group
def test_spectrum_reports_equal_spectrum_report_bitwise(rows):
    # rows of one length with any mix of negative, clamped and positive
    # counts; repr tells every float (and -0.0) apart
    want = [reference_report(row) for row in rows]
    assert repr(spectrum_reports(np.array(rows))) == repr(want)
    assert repr(spectrum_entropies(np.array(rows))) == repr([r.entropy for r in want])
    assert repr([spectrum_report(row) for row in rows]) == repr(want)


@pytest.mark.parametrize(
    "call, values, shape",
    [
        (spectrum_report, [[0.5, 0.5], [0.5, 0.5]], r"\(1, 2, 2\)"),
        (spectrum_reports, [0.5, 0.5], r"\(2,\)"),
        (spectrum_entropies, [0.5, 0.5], r"\(2,\)"),
    ],
)
def test_spectrum_statistics_reject_the_wrong_rank(call, values, shape):
    # one spectrum per row: a flat list is one spectrum, not many, and a
    # nested list is many, not one
    with pytest.raises(ValueError, match=f"got shape {shape}"):
        call(values)


def test_partial_trace_of_product_operator():
    # Tr_B(A (x) B) = Tr(B) * A
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = a + a.conj().T
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = b + b.conj().T
    op = HermitianOperator(np.kron(a, b), (3, 2))
    red = partial_trace(op, [0])
    assert red.site_dims == (3,)
    assert np.max(np.abs(red.entries - np.trace(b) * a)) < 1e-12


def test_partial_trace_keeps_nothing():
    op = HermitianOperator(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
    red = partial_trace(op, [])
    assert red.entries.shape == (1, 1)
    assert red.entries[0, 0] == pytest.approx(1.0)


def test_partial_trace_accepts_unsorted_sites():
    rng = np.random.default_rng(5)
    op = random_hermitian(rng, (2, 3, 2))
    a = partial_trace(op, [2, 0])
    b = partial_trace(op, [0, 2])
    assert a.site_dims == (2, 2)
    assert np.array_equal(a.entries, b.entries)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    op = random_hermitian(rng, (2, 2, 3))
    red = partial_trace(op, [1])
    assert np.trace(red.entries) == pytest.approx(np.trace(op.entries))


def test_partial_transpose_full_system_is_transpose():
    rng = np.random.default_rng(13)
    op = random_hermitian(rng, (2, 3))
    pt = partial_transpose(op, [0, 1])
    assert np.array_equal(pt.entries, op.entries.T)


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(17)
    op = random_hermitian(rng, (2, 2, 3))
    back = partial_transpose(partial_transpose(op, [1]), [1])
    assert np.array_equal(back.entries, op.entries)


def test_partial_transpose_matches_block_form():
    # on 2 x 2 blocks, transposing site 0 swaps the off-diagonal blocks
    rng = np.random.default_rng(19)
    op = random_hermitian(rng, (2, 2))
    m = op.entries
    expected = np.block(
        [[m[0:2, 0:2], m[2:4, 0:2]], [m[0:2, 2:4], m[2:4, 2:4]]]
    )
    pt = partial_transpose(op, [0])
    assert np.max(np.abs(pt.entries - expected)) == 0.0


def test_bell_pair_partial_transpose_spectrum():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    rho = HermitianOperator(np.outer(psi, psi.conj()), (2, 2))
    vals = hermitian_eigvals(partial_transpose(rho, [1]))
    rep = spectrum_report(vals)
    assert rep.negativity == pytest.approx(0.5, abs=1e-14)
    assert rep.eigenvalues == pytest.approx((-0.5, 0.5, 0.5, 0.5), abs=1e-14)


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(23)
    dims = (2, 3, 2, 3)
    psi = random_state(rng, dims)
    proj = HermitianOperator(np.outer(psi, psi.conj()), dims)
    for kept in ([0], [1, 3], [0, 2, 3]):
        direct = reduced_density(psi, dims, kept)
        via_trace = partial_trace(proj, kept)
        assert direct.site_dims == via_trace.site_dims
        assert np.max(np.abs(direct.entries - via_trace.entries)) < 1e-13


def test_reduced_density_unit_trace_and_psd():
    rng = np.random.default_rng(29)
    dims = (3, 2, 3)
    psi = random_state(rng, dims)
    red = reduced_density(psi, dims, [0, 2])
    vals = hermitian_eigvals(red)
    assert np.trace(red.entries).real == pytest.approx(1.0, abs=1e-13)
    assert vals.min() > -1e-13


def test_eig_clamp_is_far_below_physical_values():
    # negative PT eigenvalues of interest are O(1e-2); the clamp must not
    # be able to swallow them
    assert EIG_CLAMP <= 1e-10
