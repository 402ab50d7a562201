"""Acceptance battery: one test per headline claim of the library.

Each test is numbered and self-contained, so ``pytest -v tests/test_acceptance.py``
prints a single pass/fail line per claim.  Tolerances are pinned in the
assertions; the exact-diagonalization oracle is rebuilt here from the public
API rather than reusing the verify module, so the two never share a bug.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from vbsent import closed_forms as cf
from vbsent import effective_rho as er
from vbsent import mps_oracle as mo
from vbsent import pauli_algebra as pa
from vbsent import sphere_mc as mc
from vbsent.linalg import hermitian_eigvals, reduced_density


@functools.lru_cache(maxsize=None)
def open_chain(n_bulk):
    return mo.build_open_chain(n_bulk)


@functools.lru_cache(maxsize=None)
def ring(n_bulk):
    return mo.build_ring(n_bulk)


def spectrum_gap(left, right):
    """Max elementwise gap between two spectra, padding the shorter with 0."""
    a = np.sort(np.asarray(left, dtype=float))[::-1]
    b = np.sort(np.asarray(right, dtype=float))[::-1]
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    return float(np.max(np.abs(a - b)))


def grouped(values, tol=1e-9):
    """(value, multiplicity) groups of a descending-sorted spectrum."""
    out = []
    for v in sorted(values, reverse=True):
        if out and abs(out[-1][0] - v) <= tol:
            out[-1][1] += 1
        else:
            out.append([v, 1])
    return [(v, m) for v, m in out]


def test_criterion_01_pure_bipartition_exactness():
    for n in range(1, 9):
        state = open_chain(n)
        for length in range(1, min(4, n) + 1):
            sites = list(range(1, 1 + length))
            w = cf.ChannelWeights.from_length(length)
            lam_s, lam_t = w.singlet, w.triplet

            rho = reduced_density(state.amplitudes, state.site_dims, sites)
            ed = np.real(hermitian_eigvals(rho))
            assert spectrum_gap(ed, [lam_s, lam_t, lam_t, lam_t]) < 1e-12

            cross = math.sqrt(lam_s * lam_t)
            expected = (
                [(lam_t, 6), (-lam_t, 3), (cross, 3), (-cross, 3), (lam_s, 1)]
            )
            expected = [(v, m) for v, m in expected if abs(v) > 1e-12]
            expected.sort(key=lambda p: -p[0])

            pt = mo.pure_block_pt_spectrum(state, sites)
            got = grouped([v for v in pt.eigenvalues if abs(v) > 1e-10])
            assert [m for _, m in got] == [m for _, m in expected]
            assert all(
                abs(gv - ev) <= 1e-10 for (gv, _), (ev, _) in zip(got, expected)
            )
            if length >= 2:
                assert sorted(m for _, m in got) == [1, 3, 3, 3, 6]
            if length == 1:
                assert abs(pt.negativity - 1.0) <= 1e-12

            if n <= 4:
                rest = [s for s in range(len(state.site_dims)) if s not in sites]
                _, dense_pt = mo.entanglement_report(state, sites, rest)
                nonzero = [v for v in dense_pt.eigenvalues if abs(v) > 1e-10]
                assert spectrum_gap(nonzero, pt.eigenvalues) < 1e-10


def test_criterion_02_boundary_bond_cut():
    state = open_chain(2)
    pt = mo.pure_block_pt_spectrum(state, [0])
    assert spectrum_gap(pt.eigenvalues, [0.5, 0.5, 0.5, -0.5]) < 1e-12
    assert abs(pt.negativity - 0.5) <= 1e-12
    rest = list(range(1, len(state.site_dims)))
    _, dense_pt = mo.entanglement_report(state, [0], rest)
    nonzero = [v for v in dense_pt.eigenvalues if abs(v) > 1e-12]
    assert spectrum_gap(nonzero, [0.5, 0.5, 0.5, -0.5]) < 1e-12


def geometries(limit=6):
    for la, gap, lb in itertools.product(range(1, limit + 1), repeat=3):
        if la + gap + lb <= limit:
            yield la, gap, lb


def disjoint_blocks_ed(la, gap, lb):
    """ED reports for two bulk blocks padded by one site on each side."""
    n = la + gap + lb + 2
    a = list(range(2, 2 + la))
    b = list(range(2 + la + gap, 2 + la + gap + lb))
    return mo.entanglement_report(open_chain(n), a, b)


def test_criterion_03_disjoint_block_spectra():
    for la, gap, lb in geometries():
        formula = cf.disjoint_spectrum(la, gap, lb)
        lin, quad, cubic = cf.disjoint_char_polys(la, gap, lb)
        roots = [lin] * 5 + list(cf.quadratic_roots(*quad))
        roots += list(cf.cubic_roots_trig(*cubic)) * 3
        assert spectrum_gap(formula.eigenvalues, roots) < 1e-10

        mode = er.rho_ab_open(la, gap, lb).spectrum()
        assert spectrum_gap(mode.eigenvalues, formula.eigenvalues) < 1e-10

        ed, _ = disjoint_blocks_ed(la, gap, lb)
        assert spectrum_gap(ed.eigenvalues, formula.eigenvalues) < 1e-10

    anchor = cf.disjoint_spectrum(1, 1, 1)
    expected = [4 / 27] * 5 + [2 / 27] * 3 + [1 / 27] + [0.0] * 7
    assert spectrum_gap(anchor.eigenvalues, expected) < 1e-12


def test_criterion_04_disjoint_transpose_positivity():
    for la, gap, lb in itertools.product(range(1, 5), repeat=3):
        op = er.mode_partial_transpose(er.rho_ab_open(la, gap, lb))
        assert min(op.spectrum().eigenvalues) >= -1e-12
    for la, gap, lb in geometries():
        _, pt = disjoint_blocks_ed(la, gap, lb)
        assert min(pt.eigenvalues) >= -1e-12


def test_criterion_05_adjacent_negativity():
    for la, lb in itertools.product(range(1, 4), repeat=2):
        n = la + lb + 2
        a = list(range(2, 2 + la))
        b = list(range(2 + la, 2 + la + lb))
        _, pt = mo.entanglement_report(open_chain(n), a, b)
        formula = cf.adjacent_pt_negativity(la, lb).negativity
        assert abs(pt.negativity - formula) <= 1e-10

    assert abs(cf.adjacent_pt_negativity(1, 1).negativity - 1 / 9) <= 1e-12

    for length in range(1, 7):
        general = cf.adjacent_pt_negativity(length, length).negativity
        special = cf.adjacent_negativity_equal(length)
        assert abs(general - special) <= 1e-12

    # deficit from 1/2 must shrink quadratically in x = 3^-l
    xs = [3.0**-l for l in range(2, 6)]
    ys = [0.5 - cf.adjacent_negativity_equal(l) for l in range(2, 6)]
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def ring_partitions(n):
    for lc, la, ld, lb in itertools.product(range(1, n - 2), repeat=4):
        if lc + la + ld + lb == n:
            yield la, lb, lc, ld


def test_criterion_06_ring_transpose_positivity():
    for la, lb, lc, ld in itertools.product(range(1, 4), repeat=4):
        op = er.mode_partial_transpose(er.rho_ab_pbc(la, lb, lc, ld))
        assert min(op.spectrum().eigenvalues) >= -1e-12

    for n in range(4, 9):
        state = ring(n)
        for la, lb, lc, ld in ring_partitions(n):
            a = [lc + k for k in range(la)]
            b = [lc + la + ld + k for k in range(lb)]
            ed, ed_pt = mo.entanglement_report(state, a, b)
            op = er.rho_ab_pbc(la, lb, lc, ld)
            assert spectrum_gap(op.spectrum().eigenvalues, ed.eigenvalues) < 1e-10
            assert min(ed_pt.eigenvalues) >= -1e-12

    for lc, ld in itertools.product(range(1, 7), repeat=2):
        coeffs = er.convexity_coefficients(lc, ld)
        assert all(0.0 <= c <= 1.0 for c in coeffs)
        assert abs(math.fsum(coeffs) - 1.0) <= 1e-15


def test_criterion_07_mutual_information():
    assert cf.mutual_information(0.0) == 0.0
    target1 = cf.mutual_information(cf.decay_parameter(1))
    assert target1 == pytest.approx(math.log(4 / 3), abs=1e-12)
    target2 = cf.mutual_information(cf.decay_parameter(2))
    assert target2 == pytest.approx(0.017372, abs=5e-7)

    for gap, bound in [(1, 0.01), (2, 0.002)]:
        _, _, finite = er.measures(er.rho_ab_open(6, gap, 6))
        target = cf.mutual_information(cf.decay_parameter(gap))
        assert abs(finite - target) < bound


def test_criterion_08_purity_second_order():
    for length in range(3, 7):
        x = abs(cf.decay_parameter(length))
        # x1 = x2 = z for the symmetric geometry, so the second-order
        # envelope collapses to six equal terms
        envelope = 6.0 * x * x
        purity = er.rho_ab_open(length, length, length).spectrum().purity
        ratio = abs(purity - 1 / 16) / envelope
        assert ratio <= 2.0


def test_criterion_09_pauli_identities():
    ok, residual = pa.verify_bilinear_completeness()
    assert ok and residual == 0.0
    for n in (2, 3, 4):
        ok, residual = pa.verify_boundary_identity(n)
        assert ok and residual == 0.0

    s2 = pa.SIGMA[2]
    for mu in range(4):
        sandwich = s2 @ pa.SIGMA[mu] @ s2
        assert np.array_equal(sandwich, pa.PARITY[mu] * pa.SIGMA[mu])

    for mu in range(4):
        for nu in range(4):
            tr = np.trace(pa.SIGMA[mu] @ pa.SIGMA_BAR[nu])
            assert tr == (2.0 if mu == nu else 0.0)

    orientation = pa.decide_epsilon_orientation()
    assert orientation == -1
    for idx in itertools.product(range(4), repeat=4):
        assert pa.TRACE4[idx] == pa.closed_form_trace4(*idx, orientation)
    assert np.array_equal(pa.m4_tensor(), pa.m4_tensor_epsilon_form())


def test_criterion_10_hamiltonian_ground_state():
    for n in range(1, 9):
        assert mo.hamiltonian_residual(open_chain(n)) < 1e-12
    for n in range(3, 9):
        assert mo.hamiltonian_residual(ring(n)) < 1e-12
    for n in range(1, 5):
        assert mo.zero_energy_degeneracy((2,) + (3,) * n + (2,)) == 1


def test_criterion_11_monte_carlo():
    for n in (1, 2, 3, 4):
        est = mc.estimate_vbs_norm(n, samples=100_000, seed=11 + n)
        assert est.sigmas_from(1.0) <= 4.0

    for length in (1, 2):
        for mu in range(4):
            for nu in range(4):
                est = mc.estimate_block_overlap(
                    mu, nu, length, samples=100_000, seed=20 + 4 * mu + nu
                )
                target = mc.block_overlap_target(mu, nu, length)
                assert est.sigmas_from(target) <= 4.0, (length, mu, nu)

    verdict = mc.sign_discrimination(samples=100_000, seed=0)
    assert verdict.sigmas_from_minus > 4.0
    assert verdict.rejects_minus


def test_criterion_12_correlation_law():
    for n in (5, 6, 7, 8):
        state = open_chain(n)
        mid = n // 2
        assert mo.spin_correlation(state, mid, mid + 1) == pytest.approx(
            -4 / 9, abs=1e-10
        )
        assert mo.spin_correlation(state, mid - 1, mid + 1) == pytest.approx(
            4 / 27, abs=1e-10
        )
