"""Named verification suites: each claim against an independent route.

Each suite is a generator that yields one (check, bound, deviation)
triple per case, where the deviation is computed.  The `_suite` decorator
folds those triples into CheckResult rows: one row per check, in the
order the checks first appear, whose worst is the largest deviation
floored at 0.  A NaN deviation makes its row's worst NaN, so the row
fails; a check that yields no case has no row.  The decorator registers
the eager wrapper, which returns the list of rows, in SUITES and under
the suite's module name; the tracer in perfbench times each SUITES call,
so the entries must not be generators.

The two-block suites read their mode and oracle routes from the geometry
table, the mode route through `Geometry.reports` as the CLI does.  The
other oracle rows pass the blocks' runs to `mps_oracle.layout_spectra`
as the table's oracles do, so only the `hamiltonian` and `correlations`
suites build a dense state: there the state is what is checked.  The CLI
`verify` subcommand prints the rows and folds them into an exit code, and
the test suite reuses them.  A check passes when its worst deviation
stays within its bound.  Suites take what they read as keywords and
default none of them; `run_suites` and the CLI take the battery's
defaults from the module constants below.  No row diagonalizes a dense
reduced density, which would cost more than the whole battery (see README).
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import wraps
from itertools import product

import numpy as np

from . import closed_forms as cf
from . import effective_rho as er
from . import mps_oracle as mo
from . import pauli_algebra as pa
from . import sphere_mc as mc
from .geometry import GEOMETRIES

EXACT = 0.0
# the battery's defaults, read by run_suites and by the CLI's verify parser
MAX_SITES = 8
TOL = 1e-10
SAMPLES = 20_000
SEED = 7


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


def _spectrum_gap(a, b) -> float:
    """Worst entrywise gap between two spectra compared as multisets.

    The shorter list is padded with exact zeros: a route lists only the
    eigenvalues it computes (the oracle its support), and every one it
    leaves out is 0, so the longer list's extra entries are checked
    against 0.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    size = max(x.size, y.size)
    x = np.sort(np.concatenate([x, np.zeros(size - x.size)]))
    y = np.sort(np.concatenate([y, np.zeros(size - y.size)]))
    return float(np.max(np.abs(x - y)))


# every disjoint layout of two blocks and their gap within six sites
DISJOINT_GRID = tuple(
    dict(la=la, gap=gap, lb=lb)
    for la, gap, lb in product(range(1, 7), repeat=3)
    if la + gap + lb <= 6
)


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
    for idx, direct in np.ndenumerate(pa.TRACE4):
        closed = pa.closed_form_trace4(*idx, orientation=orientation)
        yield "calibrated four-trace closed form", EXACT, abs(complex(direct) - closed)
    yield "rotation-generator commutators", EXACT, pa.lorentz_commutator_residual()
    m4_gap = float(np.max(np.abs(pa.m4_tensor() - pa.m4_tensor_epsilon_form())))
    yield "M tensor: traces vs closed form", EXACT, m4_gap


@_suite("pure-bipartition")
def suite_pure_bipartition(*, max_sites: int, tol: float, **_) -> Cases:
    for n in range(1, max_sites + 1):
        for block_len in range(1, min(4, n) + 1):
            starts = {0, (n - block_len) // 2}
            for start in starts:
                ed_vals = mo.layout_spectra(n, False, [(True, 1 + start, block_len)])[0].eigenvalues
                formula = cf.pure_block_spectrum(block_len).eigenvalues
                yield "block spectrum vs channel weights", 1e-12, _spectrum_gap(ed_vals, formula)
                pt_ed = mo.schmidt_pt_spectrum(ed_vals)
                pt_formula = cf.pure_pt_spectrum(block_len)
                pt_gap = _spectrum_gap(pt_ed.eigenvalues, pt_formula.eigenvalues)
                yield "transpose spectrum vs closed form", tol, pt_gap
                if block_len == 1:
                    yield "negativity 1 at single-site block", 1e-12, abs(pt_ed.negativity - 1.0)


@_suite("bond-cut")
def suite_bond_cut(*, tol: float, **_) -> Cases:
    target = [0.5, 0.5, 0.5, -0.5]
    for n in range(2, 5):
        for cut in range(1, n + 2):
            _, pt = mo.layout_spectra(n, False, [(True, 0, cut), (False, cut, n + 2 - cut)])
            yield "transpose spectrum (1/2 x3, -1/2)", 1e-12, _spectrum_gap(pt.eigenvalues, target)
            yield "negativity 1/2", 1e-12, abs(pt.negativity - 0.5)
            left, _ = mo.layout_spectra(n, False, [(True, 0, cut)])
            schmidt = mo.schmidt_pt_spectrum(left.eigenvalues)
            schmidt_gap = _spectrum_gap(schmidt.eigenvalues, pt.eigenvalues)
            yield "schmidt route equals transfer-oracle transpose", tol, schmidt_gap
    closed = cf.bipartition_L0_pt_spectrum()
    yield "closed form row", EXACT, _spectrum_gap(closed.eigenvalues, target)


@_suite("disjoint-blocks")
def suite_disjoint_blocks(*, max_sites: int, tol: float, **_) -> Cases:
    geo = GEOMETRIES["disjoint"]
    for params, (mode, _, _) in zip(DISJOINT_GRID, geo.reports(DISJOINT_GRID)):
        closed = cf.disjoint_spectrum(params["la"], params["gap"], params["lb"])
        poly_gap = _spectrum_gap(closed.eigenvalues, mode.eigenvalues)
        yield "polynomial roots vs mode spectrum", tol, poly_gap
        ed, _ = geo.oracle(**params)
        oracle_gap = _spectrum_gap(mode.eigenvalues, ed.eigenvalues)
        yield "mode spectrum vs transfer oracle", tol, oracle_gap
    anchor = cf.disjoint_spectrum(1, 1, 1)
    target = [4.0 / 27.0] * 5 + [2.0 / 27.0] * 3 + [1.0 / 27.0] + [0.0] * 7
    yield "anchor point (1,1,1)", tol, _spectrum_gap(anchor.eigenvalues, target)
    # blocks embedded in a longer chain see the same two-block operator
    ed, _ = mo.layout_spectra(5, False, [(True, 2, 1), (False, 4, 1)])
    yield "independence from surroundings", tol, _spectrum_gap(ed.eigenvalues, anchor.eigenvalues)
    # tracing out a middle block: two couplings chained across it give the
    # two-block coefficients at z(gap)
    for gap in range(1, max_sites + 1):
        yield "three-block contraction identity", 1e-15, er.contraction_defect(gap)


@_suite("open-transpose")
def suite_open_transpose_positivity(*, tol: float, **_) -> Cases:
    geo = GEOMETRIES["disjoint"]
    for params, (_, mode_pt, _) in zip(DISJOINT_GRID, geo.reports(DISJOINT_GRID)):
        yield "mode transpose min eigenvalue", 1e-12, -min(mode_pt.eigenvalues)
        _, ed_pt = geo.oracle(**params)
        yield "transfer-oracle transpose min eigenvalue", 1e-12, -min(ed_pt.eigenvalues)
        z = cf.decay_parameter(params["gap"])
        swapped = er._swap_a_modes(er._obc_coefficients(z).reshape(16, 16))
        flipped = er._obc_coefficients(-z).reshape(16, 16)
        yield "transpose equals sign-flipped gap", EXACT, float(np.max(np.abs(swapped - flipped)))


@_suite("adjacent-blocks")
def suite_adjacent_blocks(*, tol: float, **_) -> Cases:
    geo = GEOMETRIES["adjacent"]
    points = [dict(la=la, lb=lb) for la, lb in product(range(1, 4), repeat=2)]
    for params, (_, mode_pt, _) in zip(points, geo.reports(points)):
        closed = cf.adjacent_pt_negativity(params["la"], params["lb"])
        _, ed_pt = geo.oracle(**params)
        yield "negativity vs transfer oracle", tol, abs(closed.negativity - ed_pt.negativity)
        poly_vals = cf.adjacent_pt_spectrum(params["la"], params["lb"]).eigenvalues
        poly_gap = _spectrum_gap(mode_pt.eigenvalues, poly_vals)
        yield "transpose spectrum vs z=-1 polynomials", tol, poly_gap
    for l in range(1, 7):
        radical = cf.adjacent_negativity_equal(l) - cf.adjacent_pt_negativity(l, l).negativity
        yield "equal-blocks radical formula", 1e-12, abs(radical)
    for l1, l2 in product(range(1, 5), repeat=2):
        cubic = cf.adjacent_pt_char_polys(l1, l2)[2]
        sine = cf.cubic_min_root_sine(*cubic) - cf.cubic_roots_trig(*cubic)[0]
        yield "sine-form root is the cubic minimum", 1e-12, abs(sine)


@_suite("ring-blocks")
def suite_ring_blocks(*, max_sites: int, tol: float, **_) -> Cases:
    geo = GEOMETRIES["pbc"]
    # every ring of 4 to max_sites sites cut into four nonempty arcs
    arcs = product(range(1, max_sites - 2), repeat=4)
    points = [dict(la=a, lb=b, lc=c, ld=d) for a, b, c, d in arcs if a + b + c + d <= max_sites]
    for params, (mode, mode_pt, _) in zip(points, geo.reports(points)):
        ed, ed_pt = geo.oracle(**params)
        yield "mode spectrum vs ring oracle", tol, _spectrum_gap(mode.eigenvalues, ed.eigenvalues)
        yield "mode transpose min eigenvalue", 1e-12, -min(mode_pt.eigenvalues)
        yield "transfer-oracle transpose min eigenvalue", 1e-12, -min(ed_pt.eigenvalues)
        coeffs = er.convexity_coefficients(params["lc"], params["ld"])
        yield "mixture weights within [0,1]", EXACT, max(max(-c, c - 1.0) for c in coeffs)
        yield "mixture weights sum to 1", 1e-15, abs(sum(coeffs) - 1.0)


@_suite("hamiltonian")
def suite_hamiltonian(*, max_sites: int, **_) -> Cases:
    for n in range(1, max_sites + 1):
        yield "open-chain energy", 1e-12, abs(mo.hamiltonian_residual(mo.build_open_chain(n)))
    rings = {n: mo.build_ring(n) for n in range(3, max_sites + 1)}
    for ring in rings.values():
        yield "ring energy", 1e-12, abs(mo.hamiltonian_residual(ring))
    for n in range(1, 5):
        kernel = mo.zero_energy_degeneracy((2,) + (3,) * n + (2,))
        yield "kernel dimension 1 (N<=4)", EXACT, abs(kernel - 1)
    yield "tensor completeness", EXACT, mo.injectivity_defect()
    # the ring's amplitudes Tr(A...A) square to Tr E^N = 1 + 3 z(N)
    for n, ring in rings.items():
        norm = 1.0 + 3.0 * cf.decay_parameter(n)
        yield "ring norm 1 + 3 z(N)", 1e-12, abs(ring.raw_norm**2 - norm)


@_suite("correlations")
def suite_correlations(*, max_sites: int, tol: float, **_) -> Cases:
    n = min(max_sites, 6)
    state = mo.build_open_chain(n)
    bulk = range(1, n + 1)
    for i in bulk:
        for j in bulk:
            d = abs(i - j)
            target = 2.0 / 3.0 if d == 0 else (4.0 / 3.0) * cf.decay_parameter(d)
            deviation = abs(mo.spin_correlation(state, i, j) - target)
            yield "z-z correlator law (all bulk pairs)", tol, deviation


@_suite("mutual-information")
def suite_mutual_information(*, tol: float, **_) -> Cases:
    for z in [cf.decay_parameter(L) for L in range(1, 9)] + [0.0, 1.0, -1.0 / 3.0]:
        identity = 4.0 * math.log(2.0) - cf.joint_entropy(z)
        yield "I = 4 ln 2 - S identity", 1e-12, abs(cf.mutual_information(z) - identity)
    yield "I(0) = 0", EXACT, abs(cf.mutual_information(0.0))
    geo = GEOMETRIES["mutual-info"]
    for gap, bound in ((1, 0.01), (2, 0.002)):
        params = geo.params(gap=gap)
        [(_, _, finite)] = geo.reports([params])
        yield f"finite blocks vs limit at gap {gap}", bound, abs(finite - geo.limit(**params))


@_suite("end-blocks")
def suite_end_blocks(*, tol: float, **_) -> Cases:
    for mid in range(1, 4):
        formula, formula_pt = er.rho_ce_spectra(mid)
        # block A is the right end's two sites, block B the left end's
        ed, ed_pt = mo.layout_spectra(mid + 2, False, [(False, 0, 2), (True, mid + 2, 2)])
        spec_gap = _spectrum_gap(formula.eigenvalues, ed.eigenvalues)
        yield "spectrum equals middle-length weights", tol, spec_gap
        pt_gap = _spectrum_gap(formula_pt.eigenvalues, ed_pt.eigenvalues)
        yield "one-sided transpose spectrum", tol, pt_gap


@_suite("monte-carlo")
def suite_monte_carlo(*, samples: int, seed: int, **_) -> Cases:
    first = mc.estimate_vbs_norm(1, samples=samples, seed=seed)
    yield "norm, open chain N=1", mc.SIGMA_BOUND, first.sigmas_from(1.0)
    est = mc.estimate_vbs_norm(4, samples=samples, seed=seed + 1)
    yield "norm, open chain N=4", mc.SIGMA_BOUND, est.sigmas_from(1.0)
    est = mc.estimate_vbs_norm(3, samples=samples, seed=seed + 2, ring=True)
    yield "ring partition N=3", mc.SIGMA_BOUND, est.sigmas_from(mc.vbs_norm_target(3, ring=True))
    for mu, length in product(range(4), (1, 2)):
        est = mc.estimate_block_overlap(mu, mu, length, samples=samples, seed=seed + 3)
        target = mc.block_overlap_target(mu, mu, length)
        yield "diagonal overlaps", mc.SIGMA_BOUND, est.sigmas_from(target)
    for mu, nu in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        est = mc.estimate_block_overlap(mu, nu, 2, samples=samples, seed=seed + 4)
        yield "off-diagonal overlaps vanish", mc.SIGMA_BOUND, est.sigmas_from(0.0)
    disc = mc.sign_discrimination(samples=samples, seed=seed + 5)
    yield "sign discrimination rejects the minus reading", EXACT, 0.0 if disc.rejects_minus else 1.0
    rerun = mc.estimate_vbs_norm(1, samples=samples, seed=seed)
    bit_identical = (
        first.mean == rerun.mean and first.standard_error == rerun.standard_error
    )
    yield "determinism of reruns", EXACT, 0.0 if bit_identical else 1.0


def run_suites(
    names=None,
    max_sites: int = MAX_SITES,
    tol: float = TOL,
    samples: int = SAMPLES,
    seed: int = SEED,
) -> list[CheckResult]:
    if not 4 <= max_sites <= mo.MAX_BULK_SITES:
        raise ValueError(
            "battery needs max_sites >= 4 (the smallest ring with four nonempty "
            f"arcs) and <= {mo.MAX_BULK_SITES} (the largest dense state), "
            f"got {max_sites}"
        )
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    mc.check_seed(seed)
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown or not names:
        given = f"unknown suites: {unknown}" if unknown else "no suites"
        raise ValueError(f"{given}; available: {sorted(SUITES)}")
    if "monte-carlo" in names:
        # the suite's widest estimate: the open chain of 4 bulk sites
        mc.check_norm_args(4, samples)
    results: list[CheckResult] = []
    for name in names:
        results.extend(
            SUITES[name](max_sites=max_sites, tol=tol, samples=samples, seed=seed)
        )
    return results
