"""Brute-force ground truth for the decorated spin-1 chain.

Builds the exact valence-bond ground state from 2x2 matrix-product
tensors (N bulk spin-1 sites, and for open chains one spin-1/2 on each
end contracted straight onto the virtual bond), assembles the projector
Hamiltonian, and evaluates reduced densities, partial transposes and
correlators with dense linear algebra.  Two-block reports compress each
block to the range of its reduced density and diagonalize at most
(r_A r_B) x (r_A r_B) matrices, 16 x 16 for contiguous blocks, so chains
of up to MAX_BULK_SITES = 12 bulk sites are accepted.  Everything
downstream is checked against this module.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import (
    EIG_CLAMP,
    HermitianOperator,
    SpectrumReport,
    hermitian_eig,
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


def _guard_bulk_count(n: int, low: int, kind: str) -> None:
    if not low <= n <= MAX_BULK_SITES:
        dim = 3**n * (4 if kind == "open" else 1)
        raise ValueError(
            f"{kind} chain needs {low} <= N <= {MAX_BULK_SITES}, got {n} "
            f"(state would hold {dim} complex amplitudes, "
            f"~{16 * dim / 1e6:.1f} MB)"
        )


def build_open_chain(n_bulk: int) -> StateVector:
    """Exact ground state of the terminated chain: spin-1/2, N spin-1, spin-1/2.

    Zero energy for the projector Hamiltonian (see hamiltonian_residual)
    and unique at the sizes where the dense kernel is computable.
    """
    _guard_bulk_count(n_bulk, 1, "open")
    g = LEFT_BOUNDARY
    for _ in range(n_bulk):
        g = np.einsum("...a,mab->...mb", g, AKLT_TENSORS)
    amp = np.einsum("...a,ab->...b", g, RIGHT_BOUNDARY).reshape(-1)
    raw = float(np.linalg.norm(amp))
    dims = (2,) + (3,) * n_bulk + (2,)
    return StateVector(amp / raw, dims, raw)


def build_ring(n_bulk: int) -> StateVector:
    """Exact ground state on a ring of N spin-1 sites (trace of tensor products)."""
    _guard_bulk_count(n_bulk, 2, "ring")
    g = AKLT_TENSORS
    for _ in range(n_bulk - 1):
        g = np.einsum("...ab,mbc->...mac", g, AKLT_TENSORS)
    amp = np.trace(g, axis1=-2, axis2=-1).reshape(-1)
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
    if all(d == 3 for d in site_dims):
        bond = bond_projector()
        return [(bond, i, (i + 1) % n) for i in range(n)]
    if site_dims[0] == 2 and site_dims[-1] == 2 and all(
        d == 3 for d in site_dims[1:-1]
    ):
        terms = [(boundary_projector("left"), 0, 1)]
        bond = bond_projector()
        terms += [(bond, i, i + 1) for i in range(1, n - 2)]
        terms.append((boundary_projector("right"), n - 2, n - 1))
        return terms
    raise ValueError(f"unrecognized geometry with site dims {site_dims}")


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


def _range_basis(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of mat mat^H, eigenvalues above EIG_CLAMP.

    Diagonalizes the smaller of the two Gram matrices: mat mat^H directly,
    or mat^H mat, whose eigenvectors v map back to the range as
    mat v / sqrt(lambda).
    """
    rows, cols = mat.shape
    if rows <= cols:
        vals, vecs = hermitian_eig(mat @ mat.conj().T)
        return vecs[:, vals > EIG_CLAMP]
    vals, vecs = hermitian_eig(mat.conj().T @ mat)
    keep = vals > EIG_CLAMP
    return (mat @ vecs[:, keep]) / np.sqrt(vals[keep])


def entanglement_report(
    state: StateVector, block_a, block_b
) -> tuple[SpectrumReport, SpectrumReport]:
    """Spectra of the two-block reduced density and of its partial transpose.

    block_a / block_b are site indices into the full chain; they must not
    overlap.  The transpose acts on block_a's physical indices.

    rho_AB is never formed.  With Q_A, Q_B orthonormal bases of the ranges
    of rho_A and rho_B, range(rho_AB) lies in range(Q_A x Q_B), so rho_AB
    has the spectrum of sigma = (Q_A x Q_B)^H rho_AB (Q_A x Q_B), and
    rho_AB^{T_A} that of sigma^{T_A} (its isometry is Q_A* x Q_B); both
    are (r_A r_B)-dimensional.  The remaining eigenvalues, one per basis
    state of the kept sites beyond the support, are exactly 0.0.  Raises
    ValueError when the ranges miss more than EIG_CLAMP of the weight.
    """
    set_a = {int(s) for s in block_a}
    set_b = {int(s) for s in block_b}
    if set_a & set_b:
        raise ValueError(f"blocks overlap on sites {sorted(set_a & set_b)}")
    dims = state.site_dims
    kept = set_a | set_b
    a, b = sorted(set_a), sorted(set_b)
    rest = [s for s in range(len(dims)) if s not in kept]
    dim_a = math.prod(dims[s] for s in a)
    dim_b = math.prod(dims[s] for s in b)
    psi = state.array.transpose(a + b + rest).reshape(dim_a, dim_b, -1)
    mat_a = psi.reshape(dim_a, -1)
    q_a = _range_basis(mat_a)
    q_b = _range_basis(psi.transpose(1, 0, 2).reshape(dim_b, -1))
    r_a, r_b = q_a.shape[1], q_b.shape[1]
    phi = (q_a.conj().T @ mat_a).reshape(r_a, dim_b, -1)
    phi = (q_b.conj().T @ phi).reshape(r_a * r_b, -1)
    sigma = phi @ phi.conj().T
    lost = float(np.vdot(psi, psi).real - np.trace(sigma).real)
    if lost > EIG_CLAMP:
        raise ValueError(
            f"block ranges miss weight {lost:.3e} of the state "
            f"(more than {EIG_CLAMP:.0e})"
        )
    sigma_pt = (
        sigma.reshape(r_a, r_b, r_a, r_b).transpose(2, 1, 0, 3).reshape(r_a * r_b, -1)
    )
    zeros = np.zeros(dim_a * dim_b - r_a * r_b)
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


def pure_block_pt_spectrum(
    state: StateVector, block_sites, keep: int = 8
) -> SpectrumReport:
    """Nonzero partial-transpose spectrum of a pure-state bipartition.

    For a pure state with squared Schmidt coefficients {l_i}, transposing
    the block gives eigenvalues {l_i} plus a +sqrt(l_i l_j), -sqrt(l_i l_j)
    pair for each i < j; everything else is 0.  This needs only the cut's
    Schmidt data, so it reaches sizes where the dense transpose would not
    fit in memory.  Only the `keep` largest Schmidt values enter (the
    bipartitions handled here have rank at most 4).
    """
    lams = schmidt_values(state, block_sites)[:keep]
    # numerical-noise Schmidt values would seed sqrt(eps * l) ~ 1e-8
    # phantom pairs, so cut at the rank rather than clamp later
    lams = lams[lams > 1e-12]
    values = list(lams)
    for a, b in combinations(lams, 2):
        root = math.sqrt(a * b)
        values.extend([root, -root])
    return spectrum_report(values)
