"""Two-block density operators in the 16-dimensional bond-mode basis.

A length-L block supports exactly four ground states |A_mu>, mutually
orthogonal with norms w_mu(L).  Two disjoint blocks therefore live in a
16-dimensional space.  An operator is the orthonormal-basis Hermitian
matrix D^(1/2) C D^(1/2) / trace, built from the coefficient matrix C
over the unnormalized product states and their diagonal Gram weights D.
Composite index order is A-major: (mu, rho) -> 4*mu+rho.

The state is SU(2)-invariant.  Each block's four modes are one singlet
(mode 2) and one triplet (modes 0, 1, 3), so the 16 two-block modes are
two singlets, three triplets and one quintet: the p1^5 p2 p3^3 of the
closed forms.  The fixed orthogonal SECTOR_ROTATION Q takes every
operator, joint or mode-transposed, to blockdiag(S, A (x) I_3, q I_5),
with a 2x2 singlet block S, a 3x3 triplet block A and a quintet scalar
q; a member's off-sector residual measures how far its rotation is
from that form.  The blocks come from the sigma-algebra coefficients,
not from the closed forms.

Every coefficient tensor is a fixed mix of constant tensors T_k:
_OBC_BASE + z _OBC_LINEAR on the open chain, and (T0 + z_d T_d + z_c T_c
+ z_d z_c T_dc) / (1 + 3 z(N)) on the ring.  The mode transpose flips the
sign of every gap parameter, so of each odd monomial.  D^(1/2) is
constant on the support of each column of Q, because each sector state
lies in singlet x singlet, singlet x triplet, triplet x singlet or
triplet x triplet, so Q^T D^(1/2) C D^(1/2) Q = G (sum_k c_k Q^T T_k Q) G
with diagonal G.  `open_measures` and `ring_measures` take the lengths of
P points and combine the constants, rotated once at import, into each
point's joint and transposed S, A and q, with the off-sector residual
entries and the mode-basis diagonal, by elementwise operations: a
member's floats do not depend on its stack.  They check the trace, the
triplet weights and the residual, solve the (2P, 2, 2) and (2P, 3, 3)
blocks as real stacks and read the measures in two report passes.  The
two block marginals need no solve: every coefficient that a partial
trace sums into an entry off a marginal's diagonal is exactly 0.0, so
each marginal's spectrum is its diagonal.  No 16x16 matrix is built,
rotated or diagonalized.  Callers evaluate at most STACK_POINTS points
at a time, which bounds the memory a long sweep holds.

An EffectiveDensityOperator holds one built 16x16 operator, or a stack
of P along a leading axis: `open_stack` and `ring_stack` build them, and
`rho_ab_open`, `rho_ab_adjacent` and `rho_ab_pbc` take element 0 of a
one-point build.  `EffectiveDensityOperator.spectrum` and `measures` solve
such a matrix by rotating it with Q.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from .closed_forms import CHANNEL_SIGNS, ChannelWeights, decay_parameter
from .linalg import (
    SpectrumReport,
    check_hermitian,
    hermitian_eigvals,
    spectrum_entropies,
    spectrum_report,
    spectrum_reports,
)
from .pauli_algebra import PARITY, calibrated_epsilon, m4_tensor

TRACE_TOL = 1e-12

# points per stacked evaluation (see the module docstring): 64 beat 16 by
# about a fifth on 200-point sweeps, and 128 was no faster on sweeps of
# 10 to 200 points
STACK_POINTS = 64

_SIGNS = np.array(CHANNEL_SIGNS, dtype=float)

# S_{mu alpha} = (s_mu + s_alpha)/2; integer valued for s = (-1,-1,3,-1)
_S_PAIR = (_SIGNS[:, None] + _SIGNS[None, :]) / 2.0

# calibrated epsilon in the coefficient-tensor index order [mu, rho, alpha, beta]
_EPS = np.einsum("abmr->mrab", calibrated_epsilon().astype(float))


@dataclass(frozen=True)
class EffectiveDensityOperator:
    """The unit-trace orthonormal-basis matrix D^(1/2) C D^(1/2) / trace.

    One operator is (16, 16); a stack of P has a leading axis of P.
    """

    normalized: np.ndarray

    def __getitem__(self, index) -> "EffectiveDensityOperator":
        return EffectiveDensityOperator(self.normalized[index])

    def spectrum(self) -> SpectrumReport:
        """The report of one operator, from its sector solve."""
        values, _ = _sector_eigvals(self.normalized[None])
        return spectrum_report(values[0])


def _decays(lengths: Sequence[int]) -> np.ndarray:
    return np.array([decay_parameter(length) for length in lengths], dtype=float)


def _weights(lengths: Sequence[int]) -> np.ndarray:
    """The (n, 4) channel weights of n block lengths, each row ChannelWeights' bitwise."""
    if any(length < 1 for length in lengths):
        raise ValueError(f"block length must be >= 1, got {min(lengths)}")
    return (1.0 + _SIGNS * _decays(lengths)[:, None]) / 4.0


def _check_trace(trace: np.ndarray) -> None:
    kept = np.abs(trace - 1.0) <= TRACE_TOL
    if not kept.all():
        raise ValueError(f"construction lost the unit trace: {float(trace[~kept][0])!r}")


def _assemble(
    coeff4: np.ndarray, block_a: Sequence[int], block_b: Sequence[int]
) -> EffectiveDensityOperator:
    """The stack of coefficient tensors (P, 4, 4, 4, 4) with its blocks' weights."""
    half = np.sqrt((_weights(block_a)[:, :, None] * _weights(block_b)[:, None, :]).reshape(-1, 16))
    normalized = half[:, :, None] * coeff4.reshape(-1, 16, 16) * half[:, None, :]
    trace = normalized.trace(axis1=1, axis2=2)
    _check_trace(trace)
    return EffectiveDensityOperator(normalized / trace[:, None, None])


_EYE = np.eye(4)

# Kronecker deltas in the coefficient-tensor index order [mu, rho, alpha, beta]
_D_MA_RB = np.einsum("ma,rb->mrab", _EYE, _EYE)
_D_MR_AB = np.einsum("mr,ab->mrab", _EYE, _EYE)
_D_RA_MB = np.einsum("ra,mb->mrab", _EYE, _EYE)


def _obc_parts() -> tuple[np.ndarray, np.ndarray]:
    """Integer base and linear tensors with coeff(z) = base + z * linear."""
    s_ma = _S_PAIR[:, None, :, None]
    s_rb = _S_PAIR[None, :, None, :]
    linear = -(_D_MR_AB - _D_RA_MB) * s_ma + _EPS * (s_rb - s_ma) / 2.0
    return _D_MA_RB, linear


_OBC_BASE, _OBC_LINEAR = _obc_parts()


def _obc_coefficients(z) -> np.ndarray:
    """coeff(z) of one z, or of each z of an array, along leading axes."""
    return _OBC_BASE + np.asarray(z)[..., None, None, None, None] * _OBC_LINEAR


def contraction_defect(gap: int) -> float:
    """Max |sum_{nu sigma} w_nu(gap) M_{mu nu rho sigma} M_{alpha nu beta sigma} - coeff|.

    M is the rank-4 coupling tensor of the three-block contraction
    identity; chaining two couplings across a middle block of length gap
    must give the two-block coefficient tensor at z(gap).
    """
    m = m4_tensor()
    w = np.array(ChannelWeights.from_length(gap).weights)
    direct = np.einsum("n,mnrs,anbs->mrab", w, m, m)
    return float(np.max(np.abs(direct - _obc_coefficients(decay_parameter(gap)))))


def open_stack(
    block_a: Sequence[int], gap: Sequence[int], block_b: Sequence[int]
) -> EffectiveDensityOperator:
    """Two blocks on an open chain per point of the equal-length sequences.

    A gap of 0 gives touching blocks: the coefficients at z(0) = 1.
    """
    return _assemble(_obc_coefficients(_decays(gap)), block_a, block_b)


def rho_ab_open(block_a: int, gap: int, block_b: int) -> EffectiveDensityOperator:
    """Two disjoint blocks on an open chain, separated by gap >= 1 bulk sites."""
    if gap < 1:
        raise ValueError("disjoint blocks need gap >= 1; use rho_ab_adjacent for 0")
    return open_stack([block_a], [gap], [block_b])[0]


def rho_ab_adjacent(block_a: int, block_b: int) -> EffectiveDensityOperator:
    """Two touching blocks: the gap-dependent coefficients at z = 1."""
    return open_stack([block_a], [0], [block_b])[0]


def rho_ce_spectra(middle_length: int) -> tuple[SpectrumReport, SpectrumReport]:
    """Spectra of the two-end-block state and of its one-sided transpose.

    Tracing out a middle segment of total length L_mid leaves the two
    chain ends in the rank-4 state diag(w_mu(L_mid)); its partial
    transpose has eigenvalues w_mu - (-1)^mu (w_2 - w_1)/2.
    """
    if middle_length < 1:
        raise ValueError(f"middle length must be >= 1, got {middle_length}")
    w = ChannelWeights.from_length(middle_length).weights
    shift = (w[2] - w[1]) / 2.0
    pt = [w[mu] - PARITY[mu] * shift for mu in range(4)]
    block, transpose = spectrum_reports([w, pt])
    return block, transpose


def _ring_signs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign tables of the ring coefficients: s s' + s + s', s + s' and R's."""
    s = _SIGNS
    pair = s[:, None] * s[None, :] + s[:, None] + s[None, :]
    # R_{rho mu beta alpha}: antisymmetrized sign combination
    r4 = (
        s[:, None, None, None]
        - s[None, :, None, None]
        + s[None, None, :, None]
        - s[None, None, None, :]
    )
    return pair, s[:, None] + s[None, :], r4


_RING_PAIR, _RING_SUM, _RING_R4 = _ring_signs()


def _pbc_coefficients(z_c, z_d, z_total) -> np.ndarray:
    """Ring coefficients of one (z_c, z_d, z_total), or of each along leading axes."""
    # every parameter carries two trailing axes for the 4x4 channel matrices
    norm = 1.0 + 3.0 * np.asarray(z_total)[..., None, None]
    x, y = np.asarray(z_d)[..., None, None], np.asarray(z_c)[..., None, None]

    def lam(xx: np.ndarray, yy: np.ndarray) -> np.ndarray:
        return (1.0 + _RING_PAIR * xx * yy) / norm

    def gam(xx: np.ndarray, yy: np.ndarray) -> np.ndarray:
        return _RING_SUM * (xx * yy - (xx + yy) / 2.0) / norm

    # R carries one factor (x - y)
    r4 = _RING_R4 * (x - y)[..., None, None] / (4.0 * norm[..., None, None])

    # delta_ma delta_rb lam_ab - delta_ar delta_mb gam_am + eps R_rmba - delta_mr delta_ab gam'_ma
    term1 = _D_MA_RB * lam(x, y)[..., None, None, :, :]
    term2 = _D_RA_MB * gam(x, y).swapaxes(-1, -2)[..., :, None, :, None]
    term3 = _EPS * r4.swapaxes(-4, -3).swapaxes(-2, -1)
    term4 = _D_MR_AB * gam(-x, -y)[..., :, None, :, None]
    return term1 - term2 + term3 - term4


def _ring_parts() -> tuple[np.ndarray, ...]:
    """T0, T_d, T_c and T_dc, with ring coefficients (T0 + z_d T_d + z_c T_c + z_d z_c T_dc) / norm.

    The coefficients are bilinear in (z_d, z_c): their values at the
    corners of the unit square, at norm 1, give the four tensors.  Every
    entry is a small dyadic rational, so the build and the differences are
    exact.
    """
    base = _pbc_coefficients(0.0, 0.0, 0.0)
    z_d = _pbc_coefficients(0.0, 1.0, 0.0) - base
    z_c = _pbc_coefficients(1.0, 0.0, 0.0) - base
    return base, z_d, z_c, _pbc_coefficients(1.0, 1.0, 0.0) - base - z_d - z_c


def ring_stack(
    block_a: Sequence[int],
    block_b: Sequence[int],
    gap_c: Sequence[int],
    gap_d: Sequence[int],
) -> EffectiveDensityOperator:
    """Two blocks on a ring per point, arcs in cyclic order C, A, D, B."""
    rings = [a + b + c + d for a, b, c, d in zip(block_a, block_b, gap_c, gap_d)]
    coeff4 = _pbc_coefficients(_decays(gap_c), _decays(gap_d), _decays(rings))
    return _assemble(coeff4, block_a, block_b)


def rho_ab_pbc(
    block_a: int, block_b: int, gap_c: int, gap_d: int
) -> EffectiveDensityOperator:
    """Two blocks on a ring, arcs in cyclic order: gap C, block A, gap D, block B.

    Gaps of 0 are constructed (the touching-on-ring case), but the
    positivity guarantee for transposed ring states needs both gaps >= 1.
    """
    return ring_stack([block_a], [block_b], [gap_c], [gap_d])[0]


def convexity_coefficients(gap_c: int, gap_d: int) -> tuple[float, float, float, float]:
    """Mixture weights certifying ring transpose positivity.

    The ring coefficient tensor is bilinear in (z_d, z_c), so its value
    at the sign-flipped point (-z_d, -z_c) is a weighted combination of
    the four members with gap parameters in {1, -1/3}, i.e. gap lengths
    0 and 1.  Matching the four bilinear monomials forces barycentric
    product weights; returned in corner order (1,1), (-1/3,1), (1,-1/3),
    (-1/3,-1/3) for the (z_d, z_c) slots.

    Each weight lies in [0, 1] exactly when both gaps are >= 1 (a 1D
    node weight leaves [0, 1] once a flipped parameter -z falls outside
    [-1/3, 1], which happens only at gap 0), and the four sum to 1
    identically.
    """
    zc = decay_parameter(gap_c)
    zd = decay_parameter(gap_d)
    # 1D weights for representing -z over the nodes {1, -1/3}
    high_d, low_d = (1.0 - 3.0 * zd) / 4.0, 3.0 * (1.0 + zd) / 4.0
    high_c, low_c = (1.0 - 3.0 * zc) / 4.0, 3.0 * (1.0 + zc) / 4.0
    return high_d * high_c, low_d * high_c, high_d * low_c, low_d * low_c


def _swap_a_modes(matrix: np.ndarray) -> np.ndarray:
    """Swap the two A-mode indices of 16x16 matrices, or of a stack along leading axes."""
    shape = matrix.shape
    return matrix.reshape(shape[:-2] + (4, 4, 4, 4)).swapaxes(-4, -2).reshape(shape)


def mode_partial_transpose(op: EffectiveDensityOperator) -> EffectiveDensityOperator:
    """Swap the two A-mode indices of the operator (of each member of a stack).

    Equivalent to flipping the sign of every gap parameter: z -> -z for
    the open constructions, (z_c, z_d) -> (-z_c, -z_d) on the ring: the
    Gram weighting scales entry [mu rho, alpha beta] by a factor symmetric
    in mu and alpha, so the swap commutes with it.  Pure index movement,
    so applying it twice restores the operator bitwise, and it maps the
    diagonal onto itself, so the transpose keeps the unit trace.
    """
    return EffectiveDensityOperator(_swap_a_modes(op.normalized))


def _sector_rotation() -> np.ndarray:
    """The orthogonal Q whose columns are the SU(2) sector states, in order.

    Column entries are integer combinations of the mode pairs
    (mu, rho) = 4*mu+rho, each column scaled to unit norm.  Mode 2 is the
    singlet and t = (0, 1, 3) the triplet modes; the pair (i, j) of
    triplet mode k is the cyclic one, (1, 3), (3, 0) and (0, 1):
      - singlets: (2, 2), then sum_k (t_k, t_k) / sqrt 3;
      - triplets, type-major and k-minor: the three (2, t_k), the three
        (t_k, 2), then the three ((i, j) - (j, i)) / sqrt 2;
      - quintet: the three ((i, j) + (j, i)) / sqrt 2, then
        ((0, 0) - (1, 1)) / sqrt 2 and ((0, 0) + (1, 1) - 2 (3, 3)) / sqrt 6.
    """
    pairs = np.eye(16).reshape(4, 4, 16)
    t = (0, 1, 3)
    cyclic = [(t[1], t[2]), (t[2], t[0]), (t[0], t[1])]
    columns = [pairs[2, 2], sum(pairs[k, k] for k in t)]
    columns += [pairs[2, k] for k in t] + [pairs[k, 2] for k in t]
    columns += [pairs[i, j] - pairs[j, i] for i, j in cyclic]
    columns += [pairs[i, j] + pairs[j, i] for i, j in cyclic]
    columns += [pairs[0, 0] - pairs[1, 1], pairs[0, 0] + pairs[1, 1] - 2.0 * pairs[3, 3]]
    q = np.array(columns).T
    return q / np.sqrt((q * q).sum(axis=0))


SECTOR_ROTATION = _sector_rotation()


def _sector_form() -> tuple[np.ndarray, np.ndarray]:
    """(index, mask) with R.flat[index] * mask the sector form of a rotated R.

    The form is blockdiag(S, A (x) I_3, q I_5): S is the singlet block
    itself, A the triplet block of the first copy (rows and columns 2, 5
    and 8), q the first quintet diagonal entry, and every other entry 0.
    """
    source = np.full((16, 16), -1)
    source[:2, :2] = [[0, 1], [16, 17]]
    for a, b, k in product(range(3), repeat=3):
        source[2 + 3 * a + k, 2 + 3 * b + k] = 16 * (2 + 3 * a) + 2 + 3 * b
    source[range(11, 16), range(11, 16)] = 16 * 11 + 11
    source = source.reshape(256)
    return np.maximum(source, 0), (source >= 0).astype(float)


_FORM_INDEX, _FORM_MASK = _sector_form()

# the two singlet levels once, the three triplet levels three times each
# and the quintet level five times
_MULTIPLIED = np.repeat(np.arange(6), (1, 1, 3, 3, 3, 5))

# 22 u with u = 2^-53 the unit round-off (derivation in _off_sector)
SECTOR_RESIDUAL_BOUND = 22 * (np.finfo(float).eps / 2)


def _rotated(modes: np.ndarray) -> np.ndarray:
    """Q^T M Q of each (16, 16) member of a stack."""
    return SECTOR_ROTATION.T @ modes @ SECTOR_ROTATION


def _off_sector(rotated: np.ndarray) -> np.ndarray:
    """R - blockdiag(S, A (x) I_3, q I_5) of each rotated member R, as (R, 256) rows.

    With R = fl(Q^T rho Q) and S, A and q read from R (see
    `_sector_form`), a member's off-sector residual is the largest of its
    entries.  SECTOR_RESIDUAL_BOUND = 22 u, u = 2^-53, bounds the residual
    that the rotation's round-off leaves:
      - Every entry of Q is 0, 1 or c / sqrt(n) with integer c and n, one
        square root and one division: |fl(Q) - Q| <= gamma_2 |Q|, with
        gamma_k = k u / (1 - k u).
      - Every column of Q has at most 3 nonzero entries and unit 2-norm,
        and adding an exact zero rounds nothing, so each of the two
        products rounds sums of at most 3 terms:
        |R - Q^T rho Q| <= (2 gamma_3 + 2 gamma_2 + O(u^2)) |Q|^T |rho| |Q|,
        under 11 u |Q|^T |rho| |Q|.
      - An entry of |Q|^T |rho| |Q| is at most || |rho| ||_2 <= ||rho||_F
        (Cauchy-Schwarz over unit columns), and ||rho||_F <= tr rho = 1
        for a unit-trace positive rho; the mode transpose permutes the
        same entries.  So every rotated entry is within 11 u of its exact
        value.
      - For an SU(2)-invariant rho the exact Q^T rho Q is the sector form.
        Each residual entry sets a rotated entry against another one (the
        copy the form reads) or against 0, so it is at most 2 x 11 u.
    Rotated in exact rational arithmetic, open-chain builds leave a
    residual of exactly 0 and ring builds one of at most 0.19 u.
    The sector route rotates only the integer-valued constants T_k.  Each
    is SU(2)-invariant (the coefficients are, at every z), so its entries
    here are round-off, at most e = 4 u (pinned by a test).  A member's
    entry is |sum_k c_k E_k| g_i g_j / trace, rounded in at most 8 steps,
    with g_i g_j <= 1/9 (no channel weight of a block exceeds 1/3), a
    trace within TRACE_TOL of 1, and sum_k |c_k| at most 1 + |z| <= 2 on
    the open chain and (1 + |z_d|)(1 + |z_c|) / (1 + 3 z(N)) <= 4 / (8/9)
    on a ring of N >= 2 sites: under 4.5 e / 9 (1 + 9 u) < 2.1 u.  The
    bound is not tightened to that: verify reports one bound for both
    routes, and the matrix route's budget is 22 u.
    """
    flat = rotated.reshape(-1, 256)
    return flat - np.take(flat, _FORM_INDEX, axis=1) * _FORM_MASK


def _check_residuals(residuals: np.ndarray) -> None:
    worst = float(residuals.max())
    # a NaN residual fails the comparison, so it is rejected too
    if not worst <= SECTOR_RESIDUAL_BOUND:
        raise ValueError(
            f"operator is not SU(2) block diagonal: off-sector residual {worst:.3e} "
            f"exceeds {SECTOR_RESIDUAL_BOUND:.3e}"
        )


# the rotated entries of S, A (first copy) and q, in that order
_BLOCK_ROWS, _BLOCK_COLUMNS = zip(
    *[(i, j) for block in ((0, 1), (2, 5, 8), (11,)) for i in block for j in block]
)


def _solved(blocks: np.ndarray) -> np.ndarray:
    """The 16 eigenvalues of each row of the 14 S, A and q entries, by sector."""
    singlets = hermitian_eigvals(blocks[:, :4].reshape(-1, 2, 2))
    triplets = hermitian_eigvals(blocks[:, 4:13].reshape(-1, 3, 3))
    levels = np.concatenate([singlets, triplets, blocks[:, 13:14]], axis=1)
    return np.take(levels, _MULTIPLIED, axis=1)


def _sector_eigvals(modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 16 eigenvalues, by sector, and the off-sector residual of each member.

    Raises, as `linalg.check_hermitian` does, on a non-Hermitian stack and
    on an off-sector residual above SECTOR_RESIDUAL_BOUND or NaN, so every
    residual it returns is within the bound.
    """
    check_hermitian(modes)
    rotated = _rotated(modes)
    residuals = np.abs(_off_sector(rotated)).max(axis=1)
    _check_residuals(residuals)
    return _solved(rotated[:, _BLOCK_ROWS, _BLOCK_COLUMNS]), residuals


Triple = tuple[SpectrumReport, SpectrumReport, float]


def _triples(values: np.ndarray, diagonals: np.ndarray) -> list[Triple]:
    """(block, transpose, I(A:B)) per point.

    values holds the (2P, 16) eigenvalues, joint members first, and
    diagonals the joint members' (P, 4, 4) mode diagonals, whose row and
    column sums are the block marginals' spectra.
    """
    count = len(diagonals)
    spectra = spectrum_reports(values)
    entropies = spectrum_entropies(np.concatenate([diagonals.sum(axis=2), diagonals.sum(axis=1)]))
    return [
        (report, transpose, entropy_a + entropy_b - report.entropy)
        for report, transpose, entropy_a, entropy_b in zip(
            spectra[:count], spectra[count:], entropies[:count], entropies[count:]
        )
    ]


def measures(op: EffectiveDensityOperator) -> Triple:
    """Joint and transpose spectra and the blocks' mutual information of one operator."""
    values, _ = _sector_eigvals(np.stack([op.normalized, mode_partial_transpose(op).normalized]))
    return _triples(values, np.diagonal(op.normalized).reshape(1, 4, 4))[0]


# a mode pair in the support of each sector state: D^(1/2) is constant there
_SUPPORT = np.argmax(SECTOR_ROTATION != 0, axis=0)
# columns of a packed row: the 14 block entries, the 16 mode diagonal
# entries, then the off-sector entries
_DIAGONAL, _OFF = slice(14, 30), slice(30, None)


def _rotated_constants(matrices: np.ndarray) -> np.ndarray:
    """Q^T T Q of each constant.

    An einsum, not a matmul: a matmul at import would start BLAS, and map
    its buffers, in every process that imports the package.
    """
    left = np.einsum("ia,kib->kab", SECTOR_ROTATION, matrices)
    return np.einsum("kai,ib->kab", left, SECTOR_ROTATION)


def _sectors(tensors: Sequence[np.ndarray], degrees: Sequence[int]):
    """(packed, flips, first, second) of constants whose monomials have the given degrees.

    packed holds one row per constant rotated by Q, checked for
    Hermiticity; the off-sector columns are those where some constant's
    entry is nonzero.  flips is each constant's sign under the mode
    transpose, and first and second index the mode pairs whose D^(1/2)
    scale each column.
    """
    matrices = np.array([tensor.reshape(16, 16) for tensor in tensors])
    rotated = _rotated_constants(matrices)
    check_hermitian(rotated)
    off = _off_sector(rotated)
    kept = np.flatnonzero((off != 0.0).any(axis=0))
    diagonals = np.diagonal(matrices, axis1=1, axis2=2)
    blocks = rotated[:, _BLOCK_ROWS, _BLOCK_COLUMNS]
    packed = np.concatenate([blocks, diagonals, off[:, kept]], axis=1)
    first = np.concatenate([_SUPPORT[list(_BLOCK_ROWS)], np.arange(16), _SUPPORT[kept // 16]])
    second = np.concatenate([_SUPPORT[list(_BLOCK_COLUMNS)], np.arange(16), _SUPPORT[kept % 16]])
    return packed, (-1.0) ** np.array(degrees), first, second


_OPEN_SECTORS = _sectors([_OBC_BASE, _OBC_LINEAR], [0, 1])
_RING_SECTORS = _sectors(_ring_parts(), [0, 1, 1, 2])


def _sector_measures(
    sectors, coefficients: np.ndarray, block_a: Sequence[int], block_b: Sequence[int]
) -> tuple[list[Triple], np.ndarray]:
    """The triples of P points from their (P, K) coefficients, and the (2P,) residuals.

    Raises when a block's three triplet weights differ (G would not
    commute with Q), on a trace off 1 by more than TRACE_TOL, and on an
    off-sector residual above SECTOR_RESIDUAL_BOUND or NaN.
    """
    packed, flips, first, second = sectors
    w_a, w_b = _weights(block_a), _weights(block_b)
    w = np.concatenate([w_a, w_b])
    if not (w[:, [1, 3]] == w[:, :1]).all():
        raise ValueError("a block's three triplet weights differ")
    half = np.sqrt((w_a[:, :, None] * w_b[:, None, :]).reshape(-1, 16))
    half = np.concatenate([half, half])
    coefficients = np.concatenate([coefficients, coefficients * flips])
    # one constant at a time, in a fixed order: each member's floats are its own
    entries = coefficients[:, :1] * packed[0]
    for k in range(1, len(packed)):
        entries = entries + coefficients[:, k : k + 1] * packed[k]
    entries = entries * half[:, first] * half[:, second]
    trace = entries[:, _DIAGONAL].sum(axis=1)
    _check_trace(trace)
    entries /= trace[:, None]
    residuals = np.abs(entries[:, _OFF]).max(axis=1, initial=0.0)
    _check_residuals(residuals)
    diagonals = entries[: len(w_a), _DIAGONAL].reshape(-1, 4, 4)
    return _triples(_solved(entries), diagonals), residuals


def open_measures(block_a: Sequence[int], gap: Sequence[int], block_b: Sequence[int]):
    """(block, transpose, I(A:B)) per open-chain point, and the residuals.

    A gap of 0 gives touching blocks.  The joint coefficients are (1, z).
    """
    z = _decays(gap)
    return _sector_measures(_OPEN_SECTORS, np.stack([np.ones_like(z), z], axis=1), block_a, block_b)


def ring_measures(
    block_a: Sequence[int], block_b: Sequence[int], gap_c: Sequence[int], gap_d: Sequence[int]
):
    """(block, transpose, I(A:B)) per ring point, arcs C, A, D, B, and the residuals.

    The joint coefficients are (1, z_d, z_c, z_d z_c) / (1 + 3 z(N)).
    """
    rings = [a + b + c + d for a, b, c, d in zip(block_a, block_b, gap_c, gap_d)]
    z_c, z_d, norm = _decays(gap_c), _decays(gap_d), 1.0 + 3.0 * _decays(rings)
    coefficients = np.stack([np.ones_like(norm), z_d, z_c, z_d * z_c], axis=1) / norm[:, None]
    return _sector_measures(_RING_SECTORS, coefficients, block_a, block_b)
