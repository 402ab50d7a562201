"""Brute-force ground truth for the decorated spin-1 chain.

Builds the exact valence-bond ground state from 2x2 matrix-product
tensors (N bulk spin-1 sites, and for open chains one spin-1/2 on each
end contracted straight onto the virtual bond), assembles the projector
Hamiltonian, and evaluates reduced densities, partial transposes and
correlators with dense linear algebra.  Two-block reports project the
state onto block ranges read off the same tensors the state is built
from: a run of neighbouring sites spans at most the 4 entries of its
2x2 matrix product, and a block is the product of its runs.  They
diagonalize at most (r_A r_B) x (r_A r_B) matrices, 16 x 16 for
contiguous blocks, so chains of up to MAX_BULK_SITES = 12 bulk sites
are accepted.  Everything downstream is checked against this module.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import (
    EIG_CLAMP,
    HermitianOperator,
    SpectrumReport,
    hermitian_eigvals,
    reduced_density,
    spectrum_report,
)

# physical order m = +1, 0, -1 on every spin-1 site; S_z = diag(1, 0, -1)
S1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
S1_PLUS = math.sqrt(2.0) * np.array(
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex
)
S1_MINUS = S1_PLUS.T.conj()
S1_X = (S1_PLUS + S1_MINUS) / 2.0
S1_Y = (S1_PLUS - S1_MINUS) / 2.0j

# boundary spin-1/2, basis (up, down)
SHALF_Z = np.diag([0.5, -0.5]).astype(complex)
SHALF_X = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
SHALF_Y = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)

_SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
_SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)

# bulk tensors A^m, stacked in the physical order above
AKLT_TENSORS = np.stack(
    [
        math.sqrt(2.0 / 3.0) * _SIGMA_PLUS,
        -math.sqrt(1.0 / 3.0) * np.diag([1.0, -1.0]).astype(complex),
        -math.sqrt(2.0 / 3.0) * _SIGMA_MINUS,
    ]
)

# boundary contractions: left vector indexed [physical b, virtual v],
# right vector indexed [virtual v, physical b]; b = 0 means spin up
LEFT_BOUNDARY = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
RIGHT_BOUNDARY = np.array([[-1.0, 0.0], [0.0, -1.0]], dtype=complex)

MAX_BULK_SITES = 12


@dataclass(frozen=True)
class MpsChain:
    """Bulk tensors plus the two boundary contraction vectors."""

    tensors: np.ndarray
    left_boundary: np.ndarray
    right_boundary: np.ndarray

    def injectivity_defect(self) -> float:
        """Max deviation of sum_m A^m (A^m)^dag from the identity (exact 0)."""
        acc = np.einsum("mab,mcb->ac", self.tensors, self.tensors.conj())
        return float(np.max(np.abs(acc - np.eye(2))))


DEFAULT_CHAIN = MpsChain(AKLT_TENSORS, LEFT_BOUNDARY, RIGHT_BOUNDARY)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over a site-major tensor-product basis."""

    amplitudes: np.ndarray
    site_dims: tuple[int, ...]
    raw_norm: float

    @property
    def array(self) -> np.ndarray:
        return self.amplitudes.reshape(self.site_dims)

    @property
    def bulk_count(self) -> int:
        return sum(1 for d in self.site_dims if d == 3)

    @property
    def is_ring(self) -> bool:
        return all(d == 3 for d in self.site_dims)


def _is_ring(site_dims: tuple[int, ...]) -> bool:
    """True for a ring layout (3, ..., 3), False for a chain (2, 3, ..., 3, 2)."""
    n = len(site_dims)
    if n >= 2 and all(d == 3 for d in site_dims):
        return True
    if n >= 3 and site_dims[0] == site_dims[-1] == 2 and all(
        d == 3 for d in site_dims[1:-1]
    ):
        return False
    raise ValueError(
        f"site dims {site_dims} are neither a chain (2, 3, ..., 3, 2) "
        f"nor a ring (3, ..., 3)"
    )


def _guard_bulk_count(n: int, low: int, kind: str) -> None:
    if not low <= n <= MAX_BULK_SITES:
        dim = 3**n * (4 if kind == "open" else 1)
        raise ValueError(
            f"{kind} chain needs {low} <= N <= {MAX_BULK_SITES}, got {n} "
            f"(state would hold {dim} complex amplitudes, "
            f"~{16 * dim / 1e6:.1f} MB)"
        )


def _mps_products(bulk: int, left_end: bool, right_end: bool) -> np.ndarray:
    """Matrix products of DEFAULT_CHAIN over a run of neighbouring sites.

    Indexed [physical, left virtual, right virtual], physical site major in
    run order.  An end spin contracts its boundary vector onto the run's
    outer bond, leaving that virtual index of dimension 1.
    """
    chain = DEFAULT_CHAIN
    g = chain.left_boundary[:, None, :] if left_end else np.eye(2, dtype=complex)[None]
    for _ in range(bulk):
        g = np.einsum("pab,mbc->pmac", g, chain.tensors).reshape(-1, g.shape[1], 2)
    if right_end:
        g = np.einsum("pab,bq->pqa", g, chain.right_boundary).reshape(-1, g.shape[1], 1)
    return g


def build_open_chain(n_bulk: int) -> StateVector:
    """Exact ground state of the terminated chain: spin-1/2, N spin-1, spin-1/2.

    Zero energy for the projector Hamiltonian (see hamiltonian_residual)
    and unique at the sizes where the dense kernel is computable.
    """
    _guard_bulk_count(n_bulk, 1, "open")
    amp = _mps_products(n_bulk, True, True).reshape(-1)
    raw = float(np.linalg.norm(amp))
    dims = (2,) + (3,) * n_bulk + (2,)
    return StateVector(amp / raw, dims, raw)


def build_ring(n_bulk: int) -> StateVector:
    """Exact ground state on a ring of N spin-1 sites (trace of tensor products)."""
    _guard_bulk_count(n_bulk, 2, "ring")
    amp = np.trace(_mps_products(n_bulk, False, False), axis1=1, axis2=2)
    raw = float(np.linalg.norm(amp))
    return StateVector(amp / raw, (3,) * n_bulk, raw)


def bond_projector() -> np.ndarray:
    """Projector onto total spin 2 of two neighboring spin-1 sites."""
    ss = sum(np.kron(a, a) for a in (S1_X, S1_Y, S1_Z))
    return ss @ ss / 6.0 + ss / 2.0 + np.eye(9) / 3.0


def boundary_projector(side: str) -> np.ndarray:
    """Projector onto total spin 3/2 of one boundary spin-1/2 and its neighbor."""
    if side == "left":
        pairs = ((SHALF_X, S1_X), (SHALF_Y, S1_Y), (SHALF_Z, S1_Z))
    elif side == "right":
        pairs = ((S1_X, SHALF_X), (S1_Y, SHALF_Y), (S1_Z, SHALF_Z))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    s_dot = sum(np.kron(a, b) for a, b in pairs)
    return (2.0 / 3.0) * (np.eye(6) + s_dot)


def _apply_two_site(arr: np.ndarray, op: np.ndarray, i: int, j: int) -> np.ndarray:
    di, dj = arr.shape[i], arr.shape[j]
    op4 = op.reshape(di, dj, di, dj)
    out = np.tensordot(op4, arr, axes=([2, 3], [i, j]))
    return np.moveaxis(out, [0, 1], [i, j])


def _apply_single_site(arr: np.ndarray, op: np.ndarray, i: int) -> np.ndarray:
    out = np.tensordot(op, arr, axes=([1], [i]))
    return np.moveaxis(out, 0, i)


def _hamiltonian_terms(site_dims: tuple[int, ...]):
    """(op, i, j) triples for every projector term of the geometry."""
    n = len(site_dims)
    bond = bond_projector()
    if _is_ring(site_dims):
        return [(bond, i, (i + 1) % n) for i in range(n)]
    terms = [(boundary_projector("left"), 0, 1)]
    terms += [(bond, i, i + 1) for i in range(1, n - 2)]
    terms.append((boundary_projector("right"), n - 2, n - 1))
    return terms


def apply_hamiltonian(state: StateVector) -> np.ndarray:
    arr = state.array
    out = np.zeros_like(arr)
    for op, i, j in _hamiltonian_terms(state.site_dims):
        out += _apply_two_site(arr, op, i, j)
    return out.reshape(-1)


def hamiltonian_residual(state: StateVector) -> float:
    """<state| H |state>; zero (to round-off) exactly on the ground states."""
    return float(np.real(np.vdot(state.amplitudes, apply_hamiltonian(state))))


def dense_hamiltonian(site_dims) -> np.ndarray:
    """Full H as a matrix; guarded to small geometries.

    Each term acts once on the identity, read as dim columns of shape
    site_dims; every output entry has at most one nonzero product, so the
    result equals applying H to each unit vector in turn, bit for bit.
    """
    dims = tuple(int(d) for d in site_dims)
    dim = math.prod(dims)
    if dim > 1000:
        raise ValueError(f"dense Hamiltonian limited to dim <= 1000, got {dim}")
    basis = np.eye(dim, dtype=complex).reshape(dims + (dim,))
    h = np.zeros_like(basis)
    for op, i, j in _hamiltonian_terms(dims):
        h += _apply_two_site(basis, op, i, j)
    return h.reshape(dim, dim)


def zero_energy_degeneracy(site_dims, tol: float = 1e-10) -> int:
    """Dimension of the kernel of the dense Hamiltonian."""
    vals = hermitian_eigvals(dense_hamiltonian(site_dims))
    return int(np.sum(vals < tol))


def spin_correlation(state: StateVector, i: int, j: int) -> float:
    """<S^z_i S^z_j> in the given state; i = j gives <(S^z_i)^2>.

    Sites of local dimension 2 are evaluated with spin-1/2 operators and
    flagged with a warning, since the power-law statements concern bulk
    spin-1 sites only.
    """
    dims = state.site_dims
    for s in (i, j):
        if not 0 <= s < len(dims):
            raise IndexError(f"site {s} out of range for {len(dims)} sites")
        if dims[s] == 2:
            warnings.warn(
                f"site {s} is a boundary spin-1/2; using spin-1/2 operators",
                stacklevel=2,
            )
    ops = {2: SHALF_Z, 3: S1_Z}
    arr = _apply_single_site(state.array, ops[dims[j]], j)
    arr = _apply_single_site(arr, ops[dims[i]], i)
    return float(np.real(np.vdot(state.array, arr)))


def reduced_block_density(state: StateVector, sites) -> HermitianOperator:
    return reduced_density(state.amplitudes, state.site_dims, sites)


def _runs(block: set[int], n: int, ring: bool) -> list[list[int]]:
    """Maximal runs of neighbouring block sites, each in chain order.

    On a ring the walk starts just past a site outside the block, so a run
    may wrap past site 0.
    """
    order = range(n)
    if ring and len(block) < n:
        first = next(s for s in range(n) if s not in block) + 1
        order = [(first + k) % n for k in range(n)]
    runs, run = [], []
    for s in order:
        if s in block:
            run.append(s)
        elif run:
            runs.append(run)
            run = []
    return runs + [run] if run else runs


@functools.lru_cache(maxsize=None)
def _run_range(bulk: int, left_end: bool, right_end: bool) -> np.ndarray | None:
    """Q^H for an orthonormal basis Q of a run's range, or None for its whole space.

    Every amplitude of the chain is an entry of the run's matrix product
    times the rest, so the range lies in the span of the product's entries:
    at most 4 columns, one per free virtual index pair.  Q of their QR is
    orthonormal even when the columns are dependent, so the span it gives
    can only be larger than the range.  Read-only, as it is cached; the
    bulk count is at most MAX_BULK_SITES, so there are a few dozen keys.
    """
    products = _mps_products(bulk, left_end, right_end)
    q = np.linalg.qr(products.reshape(products.shape[0], -1))[0]
    if q.shape[0] == q.shape[1]:
        return None
    q_h = q.conj().T.copy()
    q_h.flags.writeable = False
    return q_h


def entanglement_report(
    state: StateVector, block_a, block_b
) -> tuple[SpectrumReport, SpectrumReport]:
    """Spectra of the two-block reduced density and of its partial transpose.

    block_a / block_b are site indices into the full chain; they must not
    overlap.  The transpose acts on block_a's physical indices.

    rho_AB is never formed.  Each block splits into maximal runs of
    neighbouring sites (ring runs may wrap past site 0).  A run's range
    lies in the span of the entries of its DEFAULT_CHAIN matrix product,
    boundary vectors included at an end spin: at most 4 dimensions.  Q_A
    and Q_B are the tensor products of the runs' QR bases; a run that is
    a single bulk site or an end spin spans its whole space and is left
    unprojected.  The state, with each block's axes in run order, is
    contracted once onto Q_A x Q_B, giving sigma = (Q_A x Q_B)^H rho_AB
    (Q_A x Q_B), and rho_AB^{T_A} has the spectrum of sigma^{T_A} (its
    isometry is Q_A* x Q_B); both are (r_A r_B)-dimensional.  The
    remaining eigenvalues, one per basis state of the kept sites beyond
    the support, are exactly 0.0.

    Accepts states in the span of the chain's matrix products: those of
    build_open_chain and build_ring, up to a global phase.  Raises
    ValueError when the site dims are not a chain or ring layout, before
    any contraction, and when the ranges miss more than EIG_CLAMP of the
    state's weight, as any other state does.
    """
    set_a = {int(s) for s in block_a}
    set_b = {int(s) for s in block_b}
    if set_a & set_b:
        raise ValueError(f"blocks overlap on sites {sorted(set_a & set_b)}")
    dims = state.site_dims
    n = len(dims)
    ring = _is_ring(dims)
    kept = set_a | set_b
    outside = sorted(s for s in kept if not 0 <= s < n)
    if outside:
        raise IndexError(f"sites {outside} out of range for {n} sites")
    runs_a, runs_b = _runs(set_a, n, ring), _runs(set_b, n, ring)
    order = [s for run in runs_a + runs_b for s in run]
    order += [s for s in range(n) if s not in kept]
    phi = state.array.transpose(order)
    # project run by run: phi is (kept rows so far, this run, the rest)
    rows, ranks = 1, []
    for run in runs_a + runs_b:
        ends = (not ring and run[0] == 0, not ring and run[-1] == n - 1)
        bulk = len(run) - sum(ends)
        phi = phi.reshape(rows, 3**bulk * 2 ** sum(ends), -1)
        q_h = _run_range(bulk, *ends)
        if q_h is not None:
            phi = q_h @ phi
        ranks.append(phi.shape[1])
        rows *= phi.shape[1]
    r_a = math.prod(ranks[: len(runs_a)])
    r_b = rows // r_a
    phi = phi.reshape(rows, -1)
    sigma = phi @ phi.conj().T
    weight = np.vdot(state.amplitudes, state.amplitudes).real
    lost = float(weight - np.trace(sigma).real)
    if lost > EIG_CLAMP:
        raise ValueError(
            f"block ranges miss weight {lost:.3e} of the state "
            f"(more than {EIG_CLAMP:.0e})"
        )
    sigma_pt = sigma.reshape(r_a, r_b, r_a, r_b).transpose(2, 1, 0, 3).reshape(rows, -1)
    zeros = np.zeros(math.prod(dims[s] for s in kept) - rows)
    return (
        spectrum_report(np.concatenate([hermitian_eigvals(sigma), zeros])),
        spectrum_report(np.concatenate([hermitian_eigvals(sigma_pt), zeros])),
    )


def schmidt_values(state: StateVector, block_sites) -> np.ndarray:
    """Descending squared Schmidt coefficients of the block/rest bipartition."""
    n = len(state.site_dims)
    sites = sorted({int(s) for s in block_sites})
    if not sites or len(sites) == n:
        raise ValueError("block must be a proper nonempty subset of the sites")
    rho = reduced_density(state.amplitudes, state.site_dims, sites)
    vals = np.real(hermitian_eigvals(rho))[::-1]
    return np.clip(vals, 0.0, None)


def pure_block_pt_spectrum(state: StateVector, block_sites) -> SpectrumReport:
    """Nonzero partial-transpose spectrum of a pure-state bipartition.

    For a pure state with squared Schmidt coefficients {l_i}, transposing
    the block gives eigenvalues {l_i} plus a +sqrt(l_i l_j), -sqrt(l_i l_j)
    pair for each i < j; everything else is 0.  This needs only the cut's
    Schmidt data, so it reaches sizes where the dense transpose would not
    fit in memory.  Only Schmidt values above 1e-12 enter, so at Schmidt
    rank r (at most 4 for a contiguous block of the chain) the spectrum
    has r^2 entries.
    """
    lams = schmidt_values(state, block_sites)
    # numerical-noise Schmidt values would seed sqrt(eps * l) ~ 1e-8
    # phantom pairs, so cut at the rank rather than clamp later
    lams = lams[lams > 1e-12]
    values = list(lams)
    for a, b in combinations(lams, 2):
        root = math.sqrt(a * b)
        values.extend([root, -root])
    return spectrum_report(values)
