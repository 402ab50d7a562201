"""Exhaustive checks of the boundary-mode sigma algebra.

Everything here is integer or exact complex arithmetic on 2x2 matrices,
so the assertions demand zero residual, not a tolerance.
"""

import itertools

import numpy as np
import pytest

from vbsent.pauli_algebra import (
    METRIC,
    MODES,
    PARITY,
    SIGMA,
    SIGMA_BAR,
    TRACE4,
    calibrated_epsilon,
    closed_form_trace4,
    decide_epsilon_orientation,
    epsilon4,
    lorentz_commutator_residual,
    m4_tensor,
    m4_tensor_epsilon_form,
    verify_bilinear_completeness,
    verify_boundary_identity,
)


def test_sigma_zero_components():
    assert np.array_equal(SIGMA[0], 1j * np.eye(2))
    assert np.array_equal(SIGMA_BAR[0], -1j * np.eye(2))
    for mu in (1, 2, 3):
        assert np.array_equal(SIGMA[mu], SIGMA_BAR[mu])


def test_sigma2_sandwich_parity():
    # s2 s_mu s2 = parity(mu) s_mu, the relation that powers the
    # mode-space partial transpose
    s2 = SIGMA[2]
    for mu in MODES:
        lhs = s2 @ SIGMA[mu] @ s2
        assert np.array_equal(lhs, PARITY[mu] * SIGMA[mu])


def test_pair_trace_orthogonality():
    for mu, nu in itertools.product(MODES, repeat=2):
        tr = np.trace(SIGMA[mu] @ SIGMA_BAR[nu])
        assert tr == (2.0 if mu == nu else 0.0)


def test_bilinear_completeness_exact():
    ok, worst = verify_bilinear_completeness()
    assert ok
    assert worst == 0.0


def test_epsilon_antisymmetry():
    eps = epsilon4(1)
    assert eps[0, 1, 2, 3] == 1
    assert eps[1, 0, 2, 3] == -1
    assert eps[0, 0, 2, 3] == 0
    # swapping any adjacent pair flips the sign
    for idx in itertools.permutations(range(4)):
        swapped = (idx[1], idx[0]) + idx[2:]
        assert eps[idx] == -eps[swapped]


def test_epsilon_orientation_is_unique_and_negative():
    assert decide_epsilon_orientation() == -1
    assert np.array_equal(calibrated_epsilon(), epsilon4(-1))


def test_four_trace_closed_form_exhaustive():
    orientation = decide_epsilon_orientation()
    for idx in itertools.product(MODES, repeat=4):
        assert TRACE4[idx] == closed_form_trace4(*idx, orientation=orientation)


def test_four_trace_wrong_orientation_fails():
    # the orientation is fixed by the data, not a convention choice
    mismatches = sum(
        TRACE4[idx] != closed_form_trace4(*idx, orientation=1)
        for idx in itertools.product(MODES, repeat=4)
    )
    assert mismatches > 0


def test_four_traces_and_m4_match_explicit_products():
    # loop-built reference: one explicit 2x2 product per index tuple
    m = m4_tensor()
    for idx in itertools.product(MODES, repeat=4):
        mu, nu, rho, lam = idx
        direct = np.trace(SIGMA[mu] @ SIGMA_BAR[nu] @ SIGMA[rho] @ SIGMA_BAR[lam])
        assert TRACE4[idx] == direct, idx
        assert m[idx] == 0.5 * PARITY[nu] * METRIC[nu] * direct, idx


def test_four_trace_cyclic_shift_by_two():
    # Tr(s_m sb_n s_r sb_l) = Tr(s_r sb_l s_m sb_n)
    for mu, nu, rho, lam in itertools.product(MODES, repeat=4):
        assert TRACE4[mu, nu, rho, lam] == TRACE4[rho, lam, mu, nu]


def test_boundary_identities_exact():
    for n in (2, 3, 4):
        ok, worst = verify_boundary_identity(n)
        assert ok, f"{n}-bond identity residual {worst}"
        assert worst == 0.0


def test_boundary_identity_rejects_bad_order():
    with pytest.raises(ValueError):
        verify_boundary_identity(5)


def test_m4_tensor_real_integer_entries():
    m = m4_tensor()
    assert np.array_equal(m, np.real(m))
    assert np.array_equal(m, np.round(m))
    assert np.max(np.abs(m)) == 1.0


def test_m4_tensor_matches_epsilon_form():
    assert np.array_equal(m4_tensor(), m4_tensor_epsilon_form())


def test_m4_tensor_nonzero_count():
    # delta-delta terms plus the 24 epsilon entries; fixed support size
    m = m4_tensor()
    assert np.count_nonzero(m) == 64


def test_metric_and_parity_values():
    assert PARITY == (1, -1, 1, -1)
    assert METRIC == (-1, 1, 1, 1)


def test_lorentz_commutators_close():
    assert lorentz_commutator_residual() == 0.0


def _looped_commutator_residual(gen) -> float:
    # the per-tuple loop the table form replaced, kept as its reference
    worst = 0.0
    for mu, nu, al, be in itertools.product(MODES, repeat=4):
        lhs = gen(mu, nu) @ gen(al, be) - gen(al, be) @ gen(mu, nu)
        rhs = 2.0 * (
            (nu == al) * gen(mu, be)
            - (nu == be) * gen(mu, al)
            + (mu == be) * gen(nu, al)
            - (mu == al) * gen(nu, be)
        )
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def test_lorentz_residual_equals_the_per_tuple_loop(monkeypatch):
    from vbsent import pauli_algebra as pa

    assert lorentz_commutator_residual() == _looped_commutator_residual(pa.lorentz_generator)
    # generators that do not close must give the loop's nonzero residual
    skewed = [SIGMA[0] @ SIGMA_BAR[0] + 0.5 * SIGMA[m] for m in MODES]
    real = pa.lorentz_generator

    def wrong(mu, nu):
        return real(mu, nu) + (mu == 1) * skewed[nu]

    monkeypatch.setattr(pa, "lorentz_generator", wrong)
    looped = _looped_commutator_residual(wrong)
    assert looped > 0.1
    assert lorentz_commutator_residual() == looped
