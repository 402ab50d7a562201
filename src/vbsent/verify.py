"""Named verification suites: every closed form against the dense oracle.

Each suite is a generator that yields one (check, bound, deviation)
triple per case, where the deviation is computed.  The `_suite` decorator
folds those triples into CheckResult rows: one row per check, in the
order the checks first appear, whose worst is the largest deviation
floored at 0.  A NaN deviation makes its row's worst NaN, so the row
fails; a check that yields no case has no row.  The decorator registers
the eager wrapper, which returns the list of rows, in SUITES and under
the suite's module name; the tracer in perfbench times each SUITES call,
so the entries must not be generators.

The CLI `verify` subcommand prints the rows and folds them into an exit
code, and the test suite reuses them.  A check passes when its worst
deviation stays within its bound.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache, wraps
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


Cases = Iterator[tuple[str, float, float]]

SUITES: dict[str, Callable[..., list[CheckResult]]] = {}


def _suite(name: str):
    """Register a generator of (check, bound, deviation) as suite `name`."""

    def register(cases: Callable[..., Cases]) -> Callable[..., list[CheckResult]]:
        @wraps(cases)
        def run(**kwargs) -> list[CheckResult]:
            bounds: dict[str, float] = {}
            worst: dict[str, float] = {}
            for check, bound, deviation in cases(**kwargs):
                bounds.setdefault(check, bound)
                # np.maximum keeps a NaN where max() would drop it
                worst[check] = np.maximum(worst.get(check, 0.0), deviation)
            return [
                CheckResult(name, check, float(worst[check]), float(bound))
                for check, bound in bounds.items()
            ]

        SUITES[name] = run
        return run

    return register


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


@_suite("sigma-identities")
def suite_sigma_identities(**_) -> Cases:
    yield "bilinear completeness", EXACT, pa.verify_bilinear_completeness()[1]
    for n in (2, 3, 4):
        yield f"{n}-bond contraction identity", EXACT, pa.verify_boundary_identity(n)[1]
    for mu in range(4):
        parity = pa.SIGMA[2] @ pa.SIGMA[mu] @ pa.SIGMA[2] - pa.PARITY[mu] * pa.SIGMA[mu]
        yield "sigma2 conjugation parity", EXACT, float(np.max(np.abs(parity)))
    for m, n in product(range(4), repeat=2):
        trace = complex(np.trace(pa.SIGMA[m] @ pa.SIGMA_BAR[n]))
        yield "pair trace orthogonality", EXACT, abs(trace - 2.0 * (m == n))
    orientation = pa.decide_epsilon_orientation()
    for idx in product(range(4), repeat=4):
        closed = pa.closed_form_trace4(*idx, orientation=orientation)
        yield "calibrated four-trace closed form", EXACT, abs(pa.trace4(*idx) - closed)
    yield "rotation-generator commutators", EXACT, pa.lorentz_commutator_residual()
    m4_gap = float(np.max(np.abs(pa.m4_tensor() - pa.m4_tensor_epsilon_form())))
    yield "M tensor: traces vs closed form", EXACT, m4_gap


@_suite("pure-bipartition")
def suite_pure_bipartition(max_sites: int = 8, tol: float = 1e-10, **_) -> Cases:
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
                yield "block spectrum vs channel weights", 1e-12, _spectrum_gap(ed_vals, formula)
                pt_ed = mo.pure_block_pt_spectrum(state, sites)
                pt_formula = cf.pure_pt_spectrum(block_len)
                pt_gap = _spectrum_gap(pt_ed.eigenvalues, pt_formula.eigenvalues)
                yield "transpose spectrum vs closed form", tol, pt_gap
                if block_len == 1:
                    yield "negativity 1 at single-site block", 1e-12, abs(pt_ed.negativity - 1.0)


@_suite("bond-cut")
def suite_bond_cut(tol: float = 1e-10, **_) -> Cases:
    target = [0.5, 0.5, 0.5, -0.5]
    for n in range(2, 5):
        state = _open_chain(n)
        for cut in range(1, n + 2):
            left = list(range(cut))
            right = list(range(cut, n + 2))
            _, pt = mo.entanglement_report(state, left, right)
            yield "transpose spectrum (1/2 x3, -1/2)", 1e-12, _spectrum_gap(pt.eigenvalues, target)
            yield "negativity 1/2", 1e-12, abs(pt.negativity - 0.5)
            schmidt = mo.pure_block_pt_spectrum(state, left)
            schmidt_gap = _spectrum_gap(schmidt.eigenvalues, pt.eigenvalues)
            yield "schmidt route equals dense transpose", tol, schmidt_gap
    closed = cf.bipartition_L0_pt_spectrum()
    yield "closed form row", EXACT, _spectrum_gap(closed.eigenvalues, target)


def _disjoint_geometries(max_total: int = 6):
    for l1, gap, l2 in product(range(1, max_total + 1), repeat=3):
        if l1 + gap + l2 <= max_total:
            yield l1, gap, l2


@_suite("disjoint-blocks")
def suite_disjoint_blocks(tol: float = 1e-10, **_) -> Cases:
    for l1, gap, l2 in _disjoint_geometries():
        closed = cf.disjoint_spectrum(l1, gap, l2)
        op = er.rho_ab_open(l1, gap, l2)
        mode = op.spectrum()
        poly_gap = _spectrum_gap(closed.eigenvalues, mode.eigenvalues)
        yield "polynomial roots vs mode spectrum", tol, poly_gap
        n, a, b = GEOMETRIES["disjoint"].sites(la=l1, gap=gap, lb=l2)
        state = _open_chain(n)
        ed, _ = mo.entanglement_report(state, a, b)
        yield "mode spectrum vs dense oracle", tol, _spectrum_gap(mode.eigenvalues, ed.eigenvalues)
    anchor = cf.disjoint_spectrum(1, 1, 1)
    target = [4.0 / 27.0] * 5 + [2.0 / 27.0] * 3 + [1.0 / 27.0] + [0.0] * 7
    yield "anchor point (1,1,1)", tol, _spectrum_gap(anchor.eigenvalues, target)
    # blocks embedded in a longer chain see the same two-block operator
    ed, _ = mo.entanglement_report(_open_chain(5), [2], [4])
    yield "independence from surroundings", tol, _spectrum_gap(ed.eigenvalues, anchor.eigenvalues)


@_suite("open-transpose")
def suite_open_transpose_positivity(tol: float = 1e-10, **_) -> Cases:
    for l1, gap, l2 in _disjoint_geometries():
        op = er.rho_ab_open(l1, gap, l2)
        pt = er.mode_partial_transpose(op)
        pt_vals = np.real(hermitian_eigvals(pt.normalized))
        yield "mode transpose min eigenvalue", 1e-12, -float(pt_vals.min())
        n, a, b = GEOMETRIES["disjoint"].sites(la=l1, gap=gap, lb=l2)
        state = _open_chain(n)
        _, ed_pt = mo.entanglement_report(state, a, b)
        yield "dense transpose min eigenvalue", 1e-12, -min(ed_pt.eigenvalues)
        flipped = er._obc_coefficients(-cf.decay_parameter(gap)).reshape(16, 16)
        yield "transpose equals sign-flipped gap", EXACT, float(np.max(np.abs(pt.coeff - flipped)))


@_suite("adjacent-blocks")
def suite_adjacent_blocks(tol: float = 1e-10, **_) -> Cases:
    for l1, l2 in product(range(1, 4), repeat=2):
        closed = cf.adjacent_pt_negativity(l1, l2)
        n, a, b = GEOMETRIES["adjacent"].sites(la=l1, lb=l2)
        state = _open_chain(n)
        _, ed_pt = mo.entanglement_report(state, a, b)
        yield "negativity vs dense oracle", tol, abs(closed.negativity - ed_pt.negativity)
        op = er.mode_partial_transpose(er.rho_ab_adjacent(l1, l2))
        mode_vals = np.real(hermitian_eigvals(op.normalized))
        poly_vals = cf.adjacent_pt_spectrum(l1, l2).eigenvalues
        yield "transpose spectrum vs z=-1 polynomials", tol, _spectrum_gap(mode_vals, poly_vals)
    for l in range(1, 7):
        radical = cf.adjacent_negativity_equal(l) - cf.adjacent_pt_negativity(l, l).negativity
        yield "equal-blocks radical formula", 1e-12, abs(radical)
    for l1, l2 in product(range(1, 5), repeat=2):
        cubic = cf.adjacent_pt_char_polys(l1, l2)[2]
        sine = cf.cubic_min_root_sine(cubic) - cf.cubic_roots_trig(cubic)[0]
        yield "sine-form root is the cubic minimum", 1e-12, abs(sine)


def _ring_partitions(n: int):
    for lc, la, ld, lb in product(range(1, n - 2), repeat=4):
        if lc + la + ld + lb == n:
            yield la, lb, lc, ld


@_suite("ring-blocks")
def suite_ring_blocks(max_sites: int = 8, tol: float = 1e-10, **_) -> Cases:
    for n in range(4, max_sites + 1):
        state = _ring(n)
        for la, lb, lc, ld in _ring_partitions(n):
            op = er.rho_ab_pbc(la, lb, lc, ld)
            _, a, b = GEOMETRIES["pbc"].sites(la=la, lb=lb, lc=lc, ld=ld)
            ed, ed_pt = mo.entanglement_report(state, a, b)
            ed_gap = _spectrum_gap(op.spectrum().eigenvalues, ed.eigenvalues)
            yield "mode spectrum vs ring oracle", tol, ed_gap
            pt_vals = np.real(
                hermitian_eigvals(er.mode_partial_transpose(op).normalized)
            )
            yield "mode transpose min eigenvalue", 1e-12, -float(pt_vals.min())
            yield "dense transpose min eigenvalue", 1e-12, -min(ed_pt.eigenvalues)
            coeffs = er.convexity_coefficients(lc, ld)
            yield "mixture weights within [0,1]", EXACT, max(max(-c, c - 1.0) for c in coeffs)
            yield "mixture weights sum to 1", 1e-15, abs(sum(coeffs) - 1.0)


@_suite("hamiltonian")
def suite_hamiltonian(max_sites: int = 8, **_) -> Cases:
    for n in range(1, max_sites + 1):
        yield "open-chain energy", 1e-12, abs(mo.hamiltonian_residual(_open_chain(n)))
    for n in range(3, max_sites + 1):
        yield "ring energy", 1e-12, abs(mo.hamiltonian_residual(_ring(n)))
    for n in range(1, 5):
        kernel = mo.zero_energy_degeneracy((2,) + (3,) * n + (2,))
        yield "kernel dimension 1 (N<=4)", EXACT, abs(kernel - 1)
    yield "tensor completeness", EXACT, mo.DEFAULT_CHAIN.injectivity_defect()


@_suite("correlations")
def suite_correlations(max_sites: int = 8, tol: float = 1e-10, **_) -> Cases:
    n = min(max_sites, 6)
    state = _open_chain(n)
    bulk = range(1, n + 1)
    for i in bulk:
        for j in bulk:
            d = abs(i - j)
            target = 2.0 / 3.0 if d == 0 else (4.0 / 3.0) * cf.decay_parameter(d)
            deviation = abs(mo.spin_correlation(state, i, j) - target)
            yield "z-z correlator law (all bulk pairs)", tol, deviation


@_suite("mutual-information")
def suite_mutual_information(tol: float = 1e-10, **_) -> Cases:
    for z in [cf.decay_parameter(L) for L in range(1, 9)] + [0.0, 1.0, -1.0 / 3.0]:
        identity = 4.0 * math.log(2.0) - cf.joint_entropy(z)
        yield "I = 4 ln 2 - S identity", 1e-12, abs(cf.mutual_information(z) - identity)
    yield "I(0) = 0", EXACT, abs(cf.mutual_information(0.0))
    for gap, bound in ((1, 0.01), (2, 0.002)):
        finite = er.measures(er.rho_ab_open(6, gap, 6)).mutual_information
        limit = cf.mutual_information(cf.decay_parameter(gap))
        yield f"finite blocks vs limit at gap {gap}", bound, abs(finite - limit)


@_suite("end-blocks")
def suite_end_blocks(tol: float = 1e-10, **_) -> Cases:
    for mid in range(1, 4):
        state = _open_chain(mid + 2)
        n_sites = mid + 4
        left = [0, 1]
        right = [n_sites - 2, n_sites - 1]
        formula, formula_pt = er.rho_ce_spectra(mid)
        ed, ed_pt = mo.entanglement_report(state, right, left)
        spec_gap = _spectrum_gap(formula.eigenvalues, ed.eigenvalues)
        yield "spectrum equals middle-length weights", tol, spec_gap
        pt_gap = _spectrum_gap(formula_pt.eigenvalues, ed_pt.eigenvalues)
        yield "one-sided transpose spectrum", tol, pt_gap


@_suite("monte-carlo")
def suite_monte_carlo(samples: int = 20_000, seed: int = 7, **_) -> Cases:
    est = mc.estimate_vbs_norm(1, samples=samples, seed=seed)
    yield "norm, open chain N=1", 4.0, est.sigmas_from(1.0)
    est = mc.estimate_vbs_norm(4, samples=samples, seed=seed + 1)
    yield "norm, open chain N=4", 4.0, est.sigmas_from(1.0)
    est = mc.estimate_vbs_norm(3, samples=samples, seed=seed + 2, ring=True)
    yield "ring partition N=3", 4.0, est.sigmas_from(mc.vbs_norm_target(3, ring=True))
    for mu, length in product(range(4), (1, 2)):
        est = mc.estimate_block_overlap(mu, mu, length, samples=samples, seed=seed + 3)
        target = mc.block_overlap_target(mu, mu, length)
        yield "diagonal overlaps", 4.0, est.sigmas_from(target)
    for mu, nu in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        est = mc.estimate_block_overlap(mu, nu, 2, samples=samples, seed=seed + 4)
        yield "off-diagonal overlaps vanish", 4.0, est.sigmas_from(0.0)
    disc = mc.sign_discrimination(samples=samples, seed=seed + 5)
    yield "sign discrimination rejects the minus reading", EXACT, 0.0 if disc.rejects_minus else 1.0
    first = mc.estimate_vbs_norm(1, samples=samples, seed=seed)
    rerun = mc.estimate_vbs_norm(1, samples=samples, seed=seed)
    bit_identical = (
        first.mean == rerun.mean and first.standard_error == rerun.standard_error
    )
    yield "determinism of reruns", EXACT, 0.0 if bit_identical else 1.0


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
