"""Named verification suites: every closed form against the dense oracle.

Each suite returns a list of CheckResult rows; the CLI `verify`
subcommand prints them and folds them into an exit code, and the test
suite reuses them.  A check passes when its measured deviation stays
within its bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import closed_forms as cf
from . import effective_rho as er
from . import mps_oracle as mo
from . import pauli_algebra as pa
from . import sphere_mc as mc
from .geometry import GEOMETRIES
from .linalg import hermitian_eigvals

EXACT = 0.0


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    worst: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.bound


def _result(suite: str, name: str, worst: float, bound: float) -> CheckResult:
    return CheckResult(suite, name, float(worst), float(bound))


@lru_cache(maxsize=32)
def _open_chain(n: int) -> mo.StateVector:
    return mo.build_open_chain(n)


@lru_cache(maxsize=32)
def _ring(n: int) -> mo.StateVector:
    return mo.build_ring(n)


def _spectrum_gap(a, b) -> float:
    """Worst entrywise gap between two spectra compared as multisets.

    The shorter list is padded with exact zeros, so comparing a truncated
    closed form against a full dense spectrum only works when the extra
    dense eigenvalues vanish, which is itself part of the claim.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    size = max(x.size, y.size)
    x = np.sort(np.concatenate([x, np.zeros(size - x.size)]))
    y = np.sort(np.concatenate([y, np.zeros(size - y.size)]))
    return float(np.max(np.abs(x - y)))


# ---------------------------------------------------------------- suites


def suite_sigma_identities(**_) -> list[CheckResult]:
    rows = []
    ok, worst = pa.verify_bilinear_completeness()
    rows.append(_result("sigma-identities", "bilinear completeness", worst, EXACT))
    for n in (2, 3, 4):
        ok, worst = pa.verify_boundary_identity(n)
        rows.append(
            _result("sigma-identities", f"{n}-bond contraction identity", worst, EXACT)
        )
    worst = max(
        float(
            np.max(
                np.abs(
                    pa.SIGMA[2] @ pa.SIGMA[mu] @ pa.SIGMA[2]
                    - pa.PARITY[mu] * pa.SIGMA[mu]
                )
            )
        )
        for mu in range(4)
    )
    rows.append(_result("sigma-identities", "sigma2 conjugation parity", worst, EXACT))
    worst = max(
        abs(
            complex(np.trace(pa.SIGMA[m] @ pa.SIGMA_BAR[n])) - 2.0 * (m == n)
        )
        for m, n in product(range(4), repeat=2)
    )
    rows.append(_result("sigma-identities", "pair trace orthogonality", worst, EXACT))
    orientation = pa.decide_epsilon_orientation()
    worst = max(
        abs(pa.trace4(*idx) - pa.closed_form_trace4(*idx, orientation=orientation))
        for idx in product(range(4), repeat=4)
    )
    rows.append(
        _result("sigma-identities", "calibrated four-trace closed form", worst, EXACT)
    )
    rows.append(
        _result(
            "sigma-identities",
            "rotation-generator commutators",
            pa.lorentz_commutator_residual(),
            EXACT,
        )
    )
    worst = float(np.max(np.abs(pa.m4_tensor() - pa.m4_tensor_epsilon_form())))
    rows.append(_result("sigma-identities", "M tensor: traces vs closed form", worst, EXACT))
    return rows


def suite_pure_bipartition(max_sites: int = 8, tol: float = 1e-10, **_) -> list[CheckResult]:
    rows = []
    worst_rho, worst_pt, worst_neg1 = 0.0, 0.0, 0.0
    for n in range(1, max_sites + 1):
        state = _open_chain(n)
        for block_len in range(1, min(4, n) + 1):
            starts = {0, (n - block_len) // 2}
            for start in starts:
                sites = [1 + start + k for k in range(block_len)]
                rho = mo.reduced_block_density(state, sites)
                ed_vals = np.real(hermitian_eigvals(rho))
                w = cf.ChannelWeights.from_length(block_len)
                formula = [w.singlet, w.triplet, w.triplet, w.triplet]
                worst_rho = max(worst_rho, _spectrum_gap(ed_vals, formula))
                pt_ed = mo.pure_block_pt_spectrum(state, sites)
                pt_formula = cf.pure_pt_spectrum(block_len)
                worst_pt = max(
                    worst_pt,
                    _spectrum_gap(pt_ed.eigenvalues, pt_formula.eigenvalues),
                )
                if block_len == 1:
                    worst_neg1 = max(worst_neg1, abs(pt_ed.negativity - 1.0))
    rows.append(_result("pure-bipartition", "block spectrum vs channel weights", worst_rho, 1e-12))
    rows.append(_result("pure-bipartition", "transpose spectrum vs closed form", worst_pt, tol))
    rows.append(_result("pure-bipartition", "negativity 1 at single-site block", worst_neg1, 1e-12))
    return rows


def suite_bond_cut(tol: float = 1e-10, **_) -> list[CheckResult]:
    rows = []
    target = [0.5, 0.5, 0.5, -0.5]
    worst_spec, worst_neg, worst_schmidt = 0.0, 0.0, 0.0
    for n in range(2, 5):
        state = _open_chain(n)
        for cut in range(1, n + 2):
            left = list(range(cut))
            right = list(range(cut, n + 2))
            _, pt = mo.entanglement_report(state, left, right)
            worst_spec = max(worst_spec, _spectrum_gap(pt.eigenvalues, target))
            worst_neg = max(worst_neg, abs(pt.negativity - 0.5))
            schmidt = mo.pure_block_pt_spectrum(state, left)
            worst_schmidt = max(
                worst_schmidt, _spectrum_gap(schmidt.eigenvalues, pt.eigenvalues)
            )
    rows.append(_result("bond-cut", "transpose spectrum (1/2 x3, -1/2)", worst_spec, 1e-12))
    rows.append(_result("bond-cut", "negativity 1/2", worst_neg, 1e-12))
    rows.append(
        _result("bond-cut", "schmidt route equals dense transpose", worst_schmidt, tol)
    )
    closed = cf.bipartition_L0_pt_spectrum()
    rows.append(
        _result(
            "bond-cut",
            "closed form row",
            _spectrum_gap(closed.eigenvalues, target),
            EXACT,
        )
    )
    return rows


def _disjoint_geometries(max_total: int = 6):
    for l1, gap, l2 in product(range(1, max_total + 1), repeat=3):
        if l1 + gap + l2 <= max_total:
            yield l1, gap, l2


def suite_disjoint_blocks(tol: float = 1e-10, **_) -> list[CheckResult]:
    rows = []
    worst_poly_mode, worst_mode_ed, worst_anchor = 0.0, 0.0, 0.0
    for l1, gap, l2 in _disjoint_geometries():
        closed = cf.disjoint_spectrum(l1, gap, l2)
        op = er.rho_ab_open(l1, gap, l2)
        mode = op.spectrum()
        worst_poly_mode = max(
            worst_poly_mode, _spectrum_gap(closed.eigenvalues, mode.eigenvalues)
        )
        n, a, b = GEOMETRIES["disjoint"].sites(la=l1, gap=gap, lb=l2)
        state = _open_chain(n)
        ed, _ = mo.entanglement_report(state, a, b)
        worst_mode_ed = max(
            worst_mode_ed, _spectrum_gap(mode.eigenvalues, ed.eigenvalues)
        )
    anchor = cf.disjoint_spectrum(1, 1, 1)
    target = [4.0 / 27.0] * 5 + [2.0 / 27.0] * 3 + [1.0 / 27.0] + [0.0] * 7
    worst_anchor = _spectrum_gap(anchor.eigenvalues, target)
    # blocks embedded in a longer chain see the same two-block operator
    state = _open_chain(5)
    a = [2]
    b = [4]
    ed, _ = mo.entanglement_report(state, a, b)
    worst_pad = _spectrum_gap(ed.eigenvalues, cf.disjoint_spectrum(1, 1, 1).eigenvalues)
    rows.append(_result("disjoint-blocks", "polynomial roots vs mode spectrum", worst_poly_mode, tol))
    rows.append(_result("disjoint-blocks", "mode spectrum vs dense oracle", worst_mode_ed, tol))
    rows.append(_result("disjoint-blocks", "anchor point (1,1,1)", worst_anchor, tol))
    rows.append(_result("disjoint-blocks", "independence from surroundings", worst_pad, tol))
    return rows


def suite_open_transpose_positivity(tol: float = 1e-10, **_) -> list[CheckResult]:
    rows = []
    worst_mode, worst_ed, worst_flip = 0.0, 0.0, 0.0
    for l1, gap, l2 in _disjoint_geometries():
        op = er.rho_ab_open(l1, gap, l2)
        pt = er.mode_partial_transpose(op)
        pt_vals = np.real(hermitian_eigvals(pt.normalized))
        worst_mode = min(worst_mode, float(pt_vals.min()))
        flipped = er._obc_coefficients(-cf.decay_parameter(gap))
        worst_flip = max(
            worst_flip,
            float(np.max(np.abs(pt.coeff - flipped.reshape(16, 16)))),
        )
        n, a, b = GEOMETRIES["disjoint"].sites(la=l1, gap=gap, lb=l2)
        state = _open_chain(n)
        _, ed_pt = mo.entanglement_report(state, a, b)
        worst_ed = min(worst_ed, min(ed_pt.eigenvalues))
    rows.append(_result("open-transpose", "mode transpose min eigenvalue", -worst_mode, 1e-12))
    rows.append(_result("open-transpose", "dense transpose min eigenvalue", -worst_ed, 1e-12))
    rows.append(_result("open-transpose", "transpose equals sign-flipped gap", worst_flip, EXACT))
    return rows


def suite_adjacent_blocks(tol: float = 1e-10, **_) -> list[CheckResult]:
    rows = []
    worst_ed, worst_mode = 0.0, 0.0
    for l1, l2 in product(range(1, 4), repeat=2):
        closed = cf.adjacent_pt_negativity(l1, l2)
        n, a, b = GEOMETRIES["adjacent"].sites(la=l1, lb=l2)
        state = _open_chain(n)
        _, ed_pt = mo.entanglement_report(state, a, b)
        worst_ed = max(worst_ed, abs(closed.negativity - ed_pt.negativity))
        op = er.mode_partial_transpose(er.rho_ab_adjacent(l1, l2))
        mode_vals = np.real(hermitian_eigvals(op.normalized))
        poly_vals = cf.adjacent_pt_spectrum(l1, l2).eigenvalues
        worst_mode = max(worst_mode, _spectrum_gap(mode_vals, poly_vals))
    worst_equal = max(
        abs(
            cf.adjacent_negativity_equal(l)
            - cf.adjacent_pt_negativity(l, l).negativity
        )
        for l in range(1, 7)
    )
    worst_sine = max(
        abs(
            cf.cubic_min_root_sine(cf.adjacent_pt_char_polys(l1, l2)[2])
            - cf.cubic_roots_trig(cf.adjacent_pt_char_polys(l1, l2)[2])[0]
        )
        for l1, l2 in product(range(1, 5), repeat=2)
    )
    rows.append(_result("adjacent-blocks", "negativity vs dense oracle", worst_ed, tol))
    rows.append(_result("adjacent-blocks", "transpose spectrum vs z=-1 polynomials", worst_mode, tol))
    rows.append(_result("adjacent-blocks", "equal-blocks radical formula", worst_equal, 1e-12))
    rows.append(_result("adjacent-blocks", "sine-form root is the cubic minimum", worst_sine, 1e-12))
    return rows


def _ring_partitions(n: int):
    for lc, la, ld, lb in product(range(1, n - 2), repeat=4):
        if lc + la + ld + lb == n:
            yield la, lb, lc, ld


def suite_ring_blocks(max_sites: int = 8, tol: float = 1e-10, **_) -> list[CheckResult]:
    rows = []
    worst_ed, worst_pt_mode, worst_pt_ed = 0.0, 0.0, 0.0
    worst_coeff_range, worst_coeff_sum = 0.0, 0.0
    for n in range(4, max_sites + 1):
        state = _ring(n)
        for la, lb, lc, ld in _ring_partitions(n):
            op = er.rho_ab_pbc(la, lb, lc, ld)
            _, a, b = GEOMETRIES["pbc"].sites(la=la, lb=lb, lc=lc, ld=ld)
            ed, ed_pt = mo.entanglement_report(state, a, b)
            worst_ed = max(
                worst_ed, _spectrum_gap(op.spectrum().eigenvalues, ed.eigenvalues)
            )
            pt_vals = np.real(
                hermitian_eigvals(er.mode_partial_transpose(op).normalized)
            )
            worst_pt_mode = min(worst_pt_mode, float(pt_vals.min()))
            worst_pt_ed = min(worst_pt_ed, min(ed_pt.eigenvalues))
            coeffs = er.convexity_coefficients(lc, ld)
            worst_coeff_range = max(
                worst_coeff_range,
                max(max(-c, c - 1.0) for c in coeffs),
            )
            worst_coeff_sum = max(worst_coeff_sum, abs(sum(coeffs) - 1.0))
    rows.append(_result("ring-blocks", "mode spectrum vs ring oracle", worst_ed, tol))
    rows.append(_result("ring-blocks", "mode transpose min eigenvalue", -worst_pt_mode, 1e-12))
    rows.append(_result("ring-blocks", "dense transpose min eigenvalue", -worst_pt_ed, 1e-12))
    rows.append(_result("ring-blocks", "mixture weights within [0,1]", worst_coeff_range, EXACT))
    rows.append(_result("ring-blocks", "mixture weights sum to 1", worst_coeff_sum, 1e-15))
    return rows


def suite_hamiltonian(max_sites: int = 8, **_) -> list[CheckResult]:
    rows = []
    worst_open = max(
        abs(mo.hamiltonian_residual(_open_chain(n))) for n in range(1, max_sites + 1)
    )
    worst_ring = max(
        abs(mo.hamiltonian_residual(_ring(n))) for n in range(3, max_sites + 1)
    )
    kernel_defect = max(
        abs(mo.zero_energy_degeneracy((2,) + (3,) * n + (2,)) - 1)
        for n in range(1, 5)
    )
    injectivity = mo.DEFAULT_CHAIN.injectivity_defect()
    rows.append(_result("hamiltonian", "open-chain energy", worst_open, 1e-12))
    rows.append(_result("hamiltonian", "ring energy", worst_ring, 1e-12))
    rows.append(_result("hamiltonian", "kernel dimension 1 (N<=4)", kernel_defect, EXACT))
    rows.append(_result("hamiltonian", "tensor completeness", injectivity, EXACT))
    return rows


def suite_correlations(max_sites: int = 8, tol: float = 1e-10, **_) -> list[CheckResult]:
    n = min(max_sites, 6)
    state = _open_chain(n)
    bulk = range(1, n + 1)
    worst = 0.0
    for i in bulk:
        for j in bulk:
            d = abs(i - j)
            target = 2.0 / 3.0 if d == 0 else (4.0 / 3.0) * cf.decay_parameter(d)
            worst = max(worst, abs(mo.spin_correlation(state, i, j) - target))
    return [_result("correlations", "z-z correlator law (all bulk pairs)", worst, tol)]


def suite_mutual_information(tol: float = 1e-10, **_) -> list[CheckResult]:
    rows = []
    worst_identity = max(
        abs(cf.mutual_information(z) - (4.0 * math.log(2.0) - cf.joint_entropy(z)))
        for z in [cf.decay_parameter(L) for L in range(1, 9)] + [0.0, 1.0, -1.0 / 3.0]
    )
    rows.append(_result("mutual-information", "I = 4 ln 2 - S identity", worst_identity, 1e-12))
    rows.append(
        _result("mutual-information", "I(0) = 0", abs(cf.mutual_information(0.0)), EXACT)
    )
    gap1 = abs(
        er.measures(er.rho_ab_open(6, 1, 6)).mutual_information
        - cf.mutual_information(cf.decay_parameter(1))
    )
    gap2 = abs(
        er.measures(er.rho_ab_open(6, 2, 6)).mutual_information
        - cf.mutual_information(cf.decay_parameter(2))
    )
    rows.append(_result("mutual-information", "finite blocks vs limit at gap 1", gap1, 0.01))
    rows.append(_result("mutual-information", "finite blocks vs limit at gap 2", gap2, 0.002))
    return rows


def suite_end_blocks(tol: float = 1e-10, **_) -> list[CheckResult]:
    rows = []
    worst_spec, worst_pt = 0.0, 0.0
    for mid in range(1, 4):
        state = _open_chain(mid + 2)
        n_sites = mid + 4
        left = [0, 1]
        right = [n_sites - 2, n_sites - 1]
        formula, formula_pt = er.rho_ce_spectra(mid)
        ed, ed_pt = mo.entanglement_report(state, right, left)
        worst_spec = max(
            worst_spec, _spectrum_gap(formula.eigenvalues, ed.eigenvalues)
        )
        worst_pt = max(
            worst_pt, _spectrum_gap(formula_pt.eigenvalues, ed_pt.eigenvalues)
        )
    rows.append(_result("end-blocks", "spectrum equals middle-length weights", worst_spec, tol))
    rows.append(_result("end-blocks", "one-sided transpose spectrum", worst_pt, tol))
    return rows


def suite_monte_carlo(samples: int = 20_000, seed: int = 7, **_) -> list[CheckResult]:
    rows = []
    est = mc.estimate_vbs_norm(1, samples=samples, seed=seed)
    rows.append(_result("monte-carlo", "norm, open chain N=1", est.sigmas_from(1.0), 4.0))
    est = mc.estimate_vbs_norm(4, samples=samples, seed=seed + 1)
    rows.append(_result("monte-carlo", "norm, open chain N=4", est.sigmas_from(1.0), 4.0))
    est = mc.estimate_vbs_norm(3, samples=samples, seed=seed + 2, ring=True)
    rows.append(
        _result(
            "monte-carlo",
            "ring partition N=3",
            est.sigmas_from(mc.vbs_norm_target(3, ring=True)),
            4.0,
        )
    )
    worst_diag = 0.0
    for mu, length in product(range(4), (1, 2)):
        est = mc.estimate_block_overlap(mu, mu, length, samples=samples, seed=seed + 3)
        worst_diag = max(
            worst_diag, est.sigmas_from(mc.block_overlap_target(mu, mu, length))
        )
    rows.append(_result("monte-carlo", "diagonal overlaps", worst_diag, 4.0))
    worst_off = 0.0
    for mu, nu in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        est = mc.estimate_block_overlap(mu, nu, 2, samples=samples, seed=seed + 4)
        worst_off = max(worst_off, est.sigmas_from(0.0))
    rows.append(_result("monte-carlo", "off-diagonal overlaps vanish", worst_off, 4.0))
    disc = mc.sign_discrimination(samples=samples, seed=seed + 5)
    rows.append(
        _result(
            "monte-carlo",
            "sign discrimination rejects the minus reading",
            0.0 if disc.rejects_minus else 1.0,
            EXACT,
        )
    )
    first = mc.estimate_vbs_norm(1, samples=samples, seed=seed)
    rerun = mc.estimate_vbs_norm(1, samples=samples, seed=seed)
    bit_identical = (
        first.mean == rerun.mean and first.standard_error == rerun.standard_error
    )
    rows.append(
        _result("monte-carlo", "determinism of reruns", 0.0 if bit_identical else 1.0, EXACT)
    )
    return rows


SUITES = {
    "sigma-identities": suite_sigma_identities,
    "pure-bipartition": suite_pure_bipartition,
    "bond-cut": suite_bond_cut,
    "disjoint-blocks": suite_disjoint_blocks,
    "open-transpose": suite_open_transpose_positivity,
    "adjacent-blocks": suite_adjacent_blocks,
    "ring-blocks": suite_ring_blocks,
    "hamiltonian": suite_hamiltonian,
    "correlations": suite_correlations,
    "mutual-information": suite_mutual_information,
    "end-blocks": suite_end_blocks,
    "monte-carlo": suite_monte_carlo,
}


def run_suites(
    names=None,
    max_sites: int = 8,
    tol: float = 1e-10,
    samples: int = 20_000,
    seed: int = 7,
) -> list[CheckResult]:
    if not 4 <= max_sites <= mo.MAX_BULK_SITES:
        raise ValueError(
            "battery needs max_sites >= 4 (the smallest ring with four nonempty "
            f"arcs) and <= {mo.MAX_BULK_SITES} (the largest dense state), "
            f"got {max_sites}"
        )
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; available: {sorted(SUITES)}")
    results: list[CheckResult] = []
    for name in names:
        results.extend(
            SUITES[name](max_sites=max_sites, tol=tol, samples=samples, seed=seed)
        )
    return results
