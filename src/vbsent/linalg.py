"""Dense linear algebra on multi-site tensor-product spaces.

Index layout is site major everywhere: the leftmost site is the
slowest-varying index of the flattened vector or matrix, i.e. plain
``reshape(site_dims)`` order.  All entropies use the natural log; the
logarithmic negativity uses log base 2.

`spectrum_reports` reads the measures of every row of a (R, n)
eigenvalue array in one pass, and `spectrum_entropies` only their
entropies; `spectrum_report` is the one-row call.  Eigensolves go
through `hermitian_eigvals`, which checks raw input for Hermiticity and
solves real input as real and any other as complex.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12

# Eigenvalues in (-CLAMP, 0) are treated as zero for negativity and
# entropy: genuine negative PT eigenvalues here are O(1e-2), far above
# round-off.
EIG_CLAMP = 1e-12


def check_hermitian(m: np.ndarray) -> None:
    """Raise unless m, one matrix or a stack (..., n, n), is Hermitian."""
    adjoint = m.swapaxes(-1, -2)
    if np.iscomplexobj(m):
        adjoint = adjoint.conj()
    asym = float(np.abs(m - adjoint).max()) if m.size else 0.0
    # a NaN asymmetry fails the comparison, so it is rejected too
    if not asym <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max |M - M^H| = {asym:.3e}")


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix together with the local dimensions it acts on."""

    entries: np.ndarray
    site_dims: tuple[int, ...]

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        dims = tuple(int(d) for d in self.site_dims)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "site_dims", dims)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        if math.prod(dims) != m.shape[0]:
            raise ValueError(f"site_dims {dims} do not multiply to dim {m.shape[0]}")
        check_hermitian(m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue multiset of a (possibly partially transposed) density matrix.

    eigenvalues are ascending.  negativity is the absolute sum of
    eigenvalues below -EIG_CLAMP, entropy is the von Neumann entropy with
    the 0*ln(0) = 0 convention, purity is sum(lambda^2) and
    log_negativity = log2 of the trace norm.
    """

    eigenvalues: tuple[float, ...]
    trace: float
    negativity: float
    log_negativity: float
    entropy: float
    purity: float

    def entanglement_spectrum(self) -> tuple[float, ...]:
        """xi_i = -ln(lambda_i) for the eigenvalues above the clamp."""
        return tuple(-math.log(v) for v in self.eigenvalues if v > EIG_CLAMP)


def _groups(counts: np.ndarray):
    """(count, row selector) for each distinct count of a (R,) array.

    Rows that are alone in their group, as the joint and transposed rows
    of one point often are, are selected by a slice, which indexes
    faster than a mask.
    """
    listed = counts.tolist()
    distinct = set(listed)
    if len(distinct) == 1:
        return [(distinct.pop(), slice(None))]
    if len(distinct) == len(listed):
        return [(count, slice(row, row + 1)) for row, count in enumerate(listed)]
    return [(count, counts == count) for count in distinct]


def _entropies(vals: np.ndarray) -> np.ndarray:
    """The entropy of each row of sorted values, over its values above EIG_CLAMP."""
    out = np.empty(len(vals))
    n = vals.shape[-1]
    for count, group in _groups((vals > EIG_CLAMP).sum(axis=-1)):
        positive = vals[group, n - count :]
        out[group] = -(positive * np.log(positive)).sum(axis=-1)
    return out


def _sorted_rows(rows) -> np.ndarray:
    """Each row of a (R, n) array of real eigenvalues, sorted ascending.

    The rows are laid out C-contiguous: numpy sums a strided row in
    another order than a contiguous one, so a Fortran-ordered input would
    make a row's sums depend on the rows beside it.
    """
    vals = np.asarray(rows, dtype=float, order="C")
    if vals.ndim != 2:
        raise ValueError(f"eigenvalues must form a (rows, values) array, got shape {vals.shape}")
    return np.sort(vals, axis=-1)


def spectrum_entropies(rows) -> list[float]:
    """The von Neumann entropy of each row of a (R, n) array, as spectrum_reports'."""
    return _entropies(_sorted_rows(rows)).tolist()


def spectrum_reports(rows) -> list[SpectrumReport]:
    """The SpectrumReport of each row of a (R, n) array of real eigenvalues.

    Trace, negativity, entropy and purity are computed for all rows at
    once, and each row's floats do not depend on the other rows.  numpy's
    pairwise sum depends on the summed length, so the negativity and the
    entropy are summed per group of rows with the same count of values
    below -EIG_CLAMP (above EIG_CLAMP): each row's sorted prefix (suffix)
    of that length is then the run of values that enters, summed alone.
    """
    vals = _sorted_rows(rows)
    trace = vals.sum(axis=-1)
    neg = np.empty_like(trace)
    for count, group in _groups((vals < -EIG_CLAMP).sum(axis=-1)):
        neg[group] = -vals[group, :count].sum(axis=-1)
    # Python floats, not numpy scalars, in each report's eigenvalue tuple
    columns = zip(
        vals.tolist(),
        trace.tolist(),
        neg.tolist(),
        (trace + 2.0 * neg).tolist(),
        _entropies(vals).tolist(),
        (vals**2).sum(axis=-1).tolist(),
    )
    return [
        SpectrumReport(
            eigenvalues=tuple(row),
            trace=t,
            negativity=ng,
            log_negativity=math.log2(trace_norm),
            entropy=e,
            purity=p,
        )
        for row, t, ng, trace_norm, e, p in columns
    ]


def spectrum_report(values) -> SpectrumReport:
    """The SpectrumReport of one list of real eigenvalues."""
    return spectrum_reports([values])[0]


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, HermitianOperator):
        return op.entries
    m = np.asarray(op)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    check_hermitian(m)
    return m


def hermitian_eigvals(op) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each in a stack.

    Accepts a HermitianOperator, a raw matrix or a raw stack (..., n, n),
    whose result is (..., n); raw input is checked for Hermiticity first
    and rejected with the maximal asymmetry in the message.  Real raw
    input is solved as real symmetric, other raw input as complex.
    """
    return np.linalg.eigvalsh(_as_matrix(op))


def _check_sites(sites, n: int) -> list[int]:
    out = sorted({int(s) for s in sites})
    for s in out:
        if s < 0 or s >= n:
            raise IndexError(f"site index {s} out of range for {n} sites")
    return out


def partial_trace(op: HermitianOperator, kept_sites) -> HermitianOperator:
    """Trace out every site not in kept_sites; kept sites keep their order."""
    dims = op.site_dims
    n = len(dims)
    kept = _check_sites(kept_sites, n)
    if not kept:
        tr = complex(np.trace(op.entries))
        return HermitianOperator(np.array([[tr]]), (1,))
    kept_set = set(kept)
    arr = op.entries.reshape(dims + dims)
    # traced sites share one einsum label between row and column slots
    row = list(range(n))
    col = [n + i if i in kept_set else i for i in range(n)]
    out = [i for i in kept] + [n + i for i in kept]
    red = np.einsum(arr, row + col, out)
    dk = math.prod(dims[i] for i in kept)
    return HermitianOperator(red.reshape(dk, dk), tuple(dims[i] for i in kept))


def partial_transpose(op: HermitianOperator, transposed_sites) -> HermitianOperator:
    """Transpose the row/column indices of the given sites.

    Pure data movement, so applying it twice restores the input bitwise.
    """
    dims = op.site_dims
    n = len(dims)
    swap = _check_sites(transposed_sites, n)
    arr = op.entries.reshape(dims + dims)
    perm = list(range(2 * n))
    for s in swap:
        perm[s], perm[n + s] = perm[n + s], perm[s]
    d = op.dim
    return HermitianOperator(arr.transpose(perm).reshape(d, d), dims)


def reduced_density(state: np.ndarray, site_dims, kept_sites) -> HermitianOperator:
    """Reduced density matrix of a pure state without forming |psi><psi|.

    Reshapes the amplitude vector to (kept, rest) and returns M M^H.
    """
    dims = tuple(int(d) for d in site_dims)
    n = len(dims)
    kept = _check_sites(kept_sites, n)
    rest = [i for i in range(n) if i not in set(kept)]
    arr = np.asarray(state, dtype=complex).reshape(dims)
    mat = arr.transpose(kept + rest).reshape(math.prod(dims[i] for i in kept), -1)
    rho = mat @ mat.conj().T
    return HermitianOperator(rho, tuple(dims[i] for i in kept))
