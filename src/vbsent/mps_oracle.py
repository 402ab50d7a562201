"""Brute-force ground truth for the decorated spin-1 chain.

Builds the exact valence-bond ground state from 2x2 matrix-product
tensors (N bulk spin-1 sites, and for open chains one spin-1/2 on each
end contracted straight onto the virtual bond), and assembles the
projector Hamiltonian and the correlators with dense linear algebra.
MAX_BULK_SITES = 12 bounds these dense builders only; verify builds a
dense state only for its Hamiltonian and correlator rows, where the
state is what is checked.

Block spectra, of one block or two, trace out everything outside the
blocks on the same tensors: a traced-out bulk site is the 4x4 transfer
matrix E = sum_m A^m x conj(A^m), an end spin its doubled boundary
vector, and a run of neighbouring block sites the Gram factor W of its
matrix products, of rank at most 4.  With K the runs' environment,
rho_AB = Q (W K W^H) Q^H for an isometry Q, so contiguous blocks
diagonalize 16 x 16 matrices at any length.  layout_spectra does this
from the blocks' runs alone, with no state and no length limit, and
reports only the support's eigenvalues; entanglement_report checks a
dense state against the cached ground state and returns its reports as
they are.  One block is a report whose block B is empty, and
pure_block_pt_spectrum builds the pure-state transpose from its
spectrum by schmidt_pt_spectrum.  Nothing here reads a closed form, so
everything downstream is checked against this module.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import combinations, groupby

import numpy as np

from .linalg import EIG_CLAMP, SpectrumReport, hermitian_eigvals, spectrum_report, spectrum_reports

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

# transfer matrix E[(a a'), (b b')] = sum_m A^m[a, b] conj(A^m[a', b']) of
# one traced-out bulk site, and the traced-out end spins' doubled boundary
# vectors, l[(a a')] = sum_b L[b, a] conj(L[b, a']) and r alike
TRANSFER = sum(np.kron(a, a.conj()) for a in AKLT_TENSORS)
LEFT_ENV = np.einsum("pa,pc->ac", LEFT_BOUNDARY, LEFT_BOUNDARY.conj()).reshape(1, 4)
RIGHT_ENV = np.einsum("aq,cq->ac", RIGHT_BOUNDARY, RIGHT_BOUNDARY.conj()).reshape(4, 1)

# Gram eigenvalues of a run below RANK_CUT x the largest are round-off
RANK_CUT = 1e-12

MAX_BULK_SITES = 12


def injectivity_defect() -> float:
    """Max deviation of sum_m A^m (A^m)^dag from the identity (exact 0)."""
    acc = np.einsum("mab,mcb->ac", AKLT_TENSORS, AKLT_TENSORS.conj())
    return float(np.max(np.abs(acc - np.eye(2))))


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
    def is_ring(self) -> bool:
        return _is_ring(self.site_dims)


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
    """Matrix products of AKLT_TENSORS over a run of neighbouring sites.

    Indexed [physical, left virtual, right virtual], physical site major in
    run order.  An end spin contracts its boundary vector onto the run's
    outer bond, leaving that virtual index of dimension 1.
    """
    g = LEFT_BOUNDARY[:, None, :] if left_end else np.eye(2, dtype=complex)[None]
    for _ in range(bulk):
        g = np.einsum("pab,mbc->pmac", g, AKLT_TENSORS).reshape(-1, g.shape[1], 2)
    if right_end:
        g = np.einsum("pab,bq->pqa", g, RIGHT_BOUNDARY).reshape(-1, g.shape[1], 1)
    return g


def _normalized(amp: np.ndarray, dims: tuple[int, ...]) -> StateVector:
    raw = float(np.linalg.norm(amp))
    amp = amp / raw
    amp.flags.writeable = False
    return StateVector(amp, dims, raw)


@functools.lru_cache(maxsize=None)
def build_open_chain(n_bulk: int) -> StateVector:
    """Exact ground state of the terminated chain: spin-1/2, N spin-1, spin-1/2.

    Zero energy for the projector Hamiltonian (see hamiltonian_residual)
    and unique at the sizes where the dense kernel is computable.  Cached
    per N, so the amplitudes are read-only.
    """
    _guard_bulk_count(n_bulk, 1, "open")
    amp = _mps_products(n_bulk, True, True).reshape(-1)
    return _normalized(amp, (2,) + (3,) * n_bulk + (2,))


@functools.lru_cache(maxsize=None)
def build_ring(n_bulk: int) -> StateVector:
    """Exact ground state on a ring of N spin-1 sites (trace of tensor products).

    Cached per N, so the amplitudes are read-only.
    """
    _guard_bulk_count(n_bulk, 2, "ring")
    amp = np.trace(_mps_products(n_bulk, False, False), axis1=1, axis2=2)
    return _normalized(amp, (3,) * n_bulk)


@functools.lru_cache(maxsize=None)
def bond_projector() -> np.ndarray:
    """Projector onto total spin 2 of two neighboring spin-1 sites; read-only, as it is cached."""
    ss = sum(np.kron(a, a) for a in (S1_X, S1_Y, S1_Z))
    proj = ss @ ss / 6.0 + ss / 2.0 + np.eye(9) / 3.0
    proj.flags.writeable = False
    return proj


@functools.lru_cache(maxsize=None)
def boundary_projector(side: str) -> np.ndarray:
    """Projector onto total spin 3/2 of one boundary spin-1/2 and its neighbor.

    Read-only, as it is cached.
    """
    if side == "left":
        pairs = ((SHALF_X, S1_X), (SHALF_Y, S1_Y), (SHALF_Z, S1_Z))
    elif side == "right":
        pairs = ((S1_X, SHALF_X), (S1_Y, SHALF_Y), (S1_Z, SHALF_Z))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    s_dot = sum(np.kron(a, b) for a, b in pairs)
    proj = (2.0 / 3.0) * (np.eye(6) + s_dot)
    proj.flags.writeable = False
    return proj


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


def zero_energy_degeneracy(site_dims) -> int:
    """Dimension of the kernel of the dense Hamiltonian."""
    vals = hermitian_eigvals(dense_hamiltonian(site_dims))
    return int(np.sum(vals < 1e-10))


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


def _runs(n: int, ring: bool, set_a: set[int], set_b: set[int]) -> list[tuple[bool, int, int]]:
    """Maximal runs of neighbouring sites of one block, in chain order.

    Each run is (in block A, first position, length).  Positions count
    sites from the start of the walk: site 0 on a chain, and on a ring the
    first site whose neighbour before it carries another label (block A,
    block B or neither), so no run is cut by the walk's end; a run may
    still wrap past site 0.
    """
    labels = [s in set_a if s in set_a or s in set_b else None for s in range(n)]
    start = 0
    if ring:
        start = next((s for s in range(n) if labels[s] != labels[s - 1]), 0)
    runs, t = [], 0
    for label, group in groupby(labels[(start + k) % n] for k in range(n)):
        length = len(list(group))
        if label is not None:
            runs.append((label, t, length))
        t += length
    return runs


@functools.lru_cache(maxsize=None)
def _transfer_power(k: int) -> np.ndarray:
    """E^k, the transfer matrix of k traced-out bulk sites; read-only, as it is cached."""
    power = np.linalg.matrix_power(TRANSFER, k)
    power.flags.writeable = False
    return power


@functools.lru_cache(maxsize=None)
def _run_factor(bulk: int, left_end: bool, right_end: bool) -> np.ndarray:
    """A run's factor W, doubled: F[(a a'), (i i'), (b b')] = W[i, a, b] conj(W[i', a', b']).

    X[p, a, b] are the run's matrix products (see _mps_products): p runs
    over the run's physical basis, a and b over its free virtual indices,
    of dimension 1 on the side of an end spin.  Their Gram G = X^H X is
    read off E^bulk, with an end spin's boundary vector contracted in, and
    factored as G = W^H W over its eigenvalues above RANK_CUT x the
    largest; below the cut they are round-off, as one bulk site's
    products span 3 of their 4 entries.  Then X = Q W for an isometry Q,
    so W carries everything of the run that a reduced density sees.
    Read-only, as it is cached.
    """
    t = _transfer_power(bulk)
    if left_end:
        t = LEFT_ENV @ t
    if right_end:
        t = t @ RIGHT_ENV
    da, db = 1 if left_end else 2, 1 if right_end else 2
    # t[(a a'), (b b')] = sum_p X[p, a, b] conj(X[p, a', b'])
    gram = t.reshape(da, da, db, db).transpose(1, 3, 0, 2).reshape(da * db, -1)
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > RANK_CUT * vals[-1]
    w = (np.sqrt(vals[keep])[:, None] * vecs[:, keep].conj().T).reshape(-1, da, db)
    factor = np.einsum("iab,jcd->acijbd", w, w.conj()).reshape(da * da, len(w) ** 2, -1)
    factor.flags.writeable = False
    return factor


def layout_spectra(
    n_bulk: int, ring: bool, runs: list[tuple[bool, int, int]]
) -> tuple[SpectrumReport, SpectrumReport]:
    """Reports of sigma and sigma^{T_A}, from the layout alone.

    runs lays the blocks out as _runs returns them: one (in block A,
    first position, length) triple per maximal run of neighbouring block
    sites, in chain order, each starting at or after the previous one's
    end.  On a chain a position is a site index, the end spins at 0 and
    n_bulk + 1; on a ring positions count from a site where no run is
    cut, so every run ends by position n_bulk.  Raises ValueError, naming
    the run, for a run shorter than 1, one that starts before position 0
    or before the previous run ends, and one that ends past the last
    position.  The reports hold the support's eigenvalues only, at most
    16 for one run per block, at a cost of O(runs x log length).

    With X = Q W per run (see _run_factor), rho_AB =
    Q (W K W^H) Q^H for the environment K of the runs: on a chain the
    boundary vectors and E^gap between the runs, on a ring the E^gap
    between the runs closed by a trace.  sigma = W K W^H is contracted run
    by run in chain order, K never formed, and normalized by the state's
    squared norm, l E^N r on a chain and Tr E^N on a ring.  The transpose
    is sigma^{T_A} = (W_A* x W_B) K^{T_A} (W_A* x W_B)^H, read off sigma;
    with one block empty it is sigma or sigma^T, so sigma's report serves
    for both.  Each run has rank at most 4, so one run per block gives
    16 x 16.
    """
    n = n_bulk if ring else n_bulk + 2
    end = 0
    for run in runs:
        _, first, length = run
        if length < 1:
            raise ValueError(f"run {run} is shorter than 1 site")
        if first < end:
            raise ValueError(f"run {run} starts before position {end}")
        end = first + length
        if end > n:
            kind = "ring" if ring else "chain"
            raise ValueError(f"run {run} ends past the {n} positions of the {kind}")
    if not runs:
        one = spectrum_report([1.0])
        return one, one
    if ring:
        start = np.eye(4)
        norm = np.trace(_transfer_power(n)).real
    else:
        first = runs[0][1]
        start = LEFT_ENV @ _transfer_power(first - 1) if first else np.ones((1, 1))
        norm = (LEFT_ENV @ _transfer_power(n_bulk) @ RIGHT_ENV).real.item()
    links = []
    for k, (_, first, length) in enumerate(runs):
        left_end = not ring and first == 0
        right_end = not ring and first + length == n
        factor = _run_factor(length - left_end - right_end, left_end, right_end)
        end = first + length
        if k + 1 < len(runs):
            bridge = _transfer_power(runs[k + 1][1] - end)
        elif ring:
            bridge = _transfer_power(n + runs[0][1] - end)
        elif right_end:
            bridge = np.ones((1, 1))
        else:
            bridge = _transfer_power(n - 1 - end) @ RIGHT_ENV
        links.append(factor @ bridge)
    # env[s, x, b] = (start . link_0 ... link_k)[s, b] at the runs' pairs x;
    # the last link closes the trace over s
    env = start[:, None, :]
    for link in links[:-1]:
        env = (env @ link.reshape(len(link), -1)).reshape(len(start), -1, link.shape[2])
    flat = sum(env[s] @ links[-1][..., s] for s in range(len(start))) / norm
    # flat[(i_0 i_0'), (i_1 i_1'), ...] in chain order; put block A's runs first
    ranks = [math.isqrt(link.shape[1]) for link in links]
    order = sorted(range(len(runs)), key=lambda k: not runs[k][0])
    sigma = flat.reshape([r for rank in ranks for r in (rank, rank)])
    sigma = sigma.transpose([2 * k for k in order] + [2 * k + 1 for k in order])
    dim = math.prod(ranks)
    sigma = sigma.reshape(dim, dim)
    if len({in_a for in_a, _, _ in runs}) == 1:
        block = spectrum_report(hermitian_eigvals(sigma))
        return block, block
    r_a = math.prod(r for r, run in zip(ranks, runs) if run[0])
    sigma_pt = sigma.reshape(r_a, dim // r_a, r_a, -1).transpose(2, 1, 0, 3).reshape(dim, dim)
    block, transpose = spectrum_reports([hermitian_eigvals(sigma), hermitian_eigvals(sigma_pt)])
    return block, transpose


def entanglement_report(
    state: StateVector, block_a, block_b
) -> tuple[SpectrumReport, SpectrumReport]:
    """Spectra of the two-block reduced density and of its partial transpose.

    block_a / block_b are site indices into the full chain; they must not
    overlap.  The transpose acts on block_a's physical indices.

    The state must be the ground state of its layout, as build_open_chain
    and build_ring return it, up to a global phase: the report reads it
    only to check that its weight outside that state, weight -
    |<ground|state>|^2, is at most EIG_CLAMP, and not at all when its
    amplitudes are the cached ground-state array itself.  The spectra then
    come from the layout alone, by layout_spectra on the blocks' runs:
    each block splits into maximal runs of neighbouring sites, each run
    has rank at most 4, and rho_AB and rho_AB^{T_A} are diagonalized on
    the product of the runs' ranges, 16 x 16 for contiguous blocks,
    through 4x4 transfer matrices.  The reports hold that support's
    eigenvalues only, at most 16 for contiguous blocks; the rest of the
    kept sites' basis states have eigenvalue 0 and are not listed.

    Raises ValueError when the site dims are not a chain or ring layout,
    and when the state misses the ground state by more than EIG_CLAMP of
    its weight, as any other state does.
    """
    set_a = {int(s) for s in block_a}
    set_b = {int(s) for s in block_b}
    if set_a & set_b:
        raise ValueError(f"blocks overlap on sites {sorted(set_a & set_b)}")
    dims = state.site_dims
    n = len(dims)
    ring = _is_ring(dims)
    outside = sorted(s for s in set_a | set_b if not 0 <= s < n)
    if outside:
        raise IndexError(f"sites {outside} out of range for {n} sites")
    n_bulk = n if ring else n - 2
    ground = (build_ring if ring else build_open_chain)(n_bulk).amplitudes
    # the cached ground array is read-only, so being it passes the check
    lost = 0.0
    if state.amplitudes is not ground:
        weight = np.vdot(state.amplitudes, state.amplitudes).real
        lost = float(weight - abs(np.vdot(ground, state.amplitudes)) ** 2)
    if lost > EIG_CLAMP:
        raise ValueError(
            f"the ground state would miss weight {lost:.3e} of the state "
            f"(more than {EIG_CLAMP:.0e})"
        )
    return layout_spectra(n_bulk, ring, _runs(n, ring, set_a, set_b))


def schmidt_pt_spectrum(lams) -> SpectrumReport:
    """Nonzero partial-transpose spectrum of a pure-state bipartition.

    For a pure state with squared Schmidt coefficients {l_i}, transposing
    one side gives eigenvalues {l_i} plus a +sqrt(l_i l_j), -sqrt(l_i l_j)
    pair for each i < j; everything else is 0.  Only Schmidt values above
    EIG_CLAMP enter, so at Schmidt rank r the spectrum has r^2 entries.
    """
    lams = np.asarray(lams, dtype=float)
    # numerical-noise Schmidt values would seed sqrt(eps * l) ~ 1e-8
    # phantom pairs, so cut at the rank rather than clamp later
    lams = lams[lams > EIG_CLAMP]
    values = list(lams)
    for a, b in combinations(lams, 2):
        root = math.sqrt(a * b)
        values.extend([root, -root])
    return spectrum_report(values)


def pure_block_pt_spectrum(state: StateVector, block_sites) -> SpectrumReport:
    """schmidt_pt_spectrum of the block/rest cut, for a proper nonempty block.

    The Schmidt values are the block's entanglement_report with an empty
    block B, so the state is checked as there, and a contiguous block, of
    Schmidt rank at most 4, diagonalizes at most 16 x 16 at any length.
    """
    sites = {int(s) for s in block_sites}
    if not sites or sites == set(range(len(state.site_dims))):
        raise ValueError("block must be a proper nonempty subset of the sites")
    block, _ = entanglement_report(state, sites, ())
    return schmidt_pt_spectrum(block.eigenvalues)
