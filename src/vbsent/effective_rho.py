"""Two-block density operators in the 16-dimensional bond-mode basis.

A length-L block supports exactly four ground states |A_mu>, mutually
orthogonal with norms w_mu(L).  Two disjoint blocks therefore live in a
16-dimensional space.  An operator is stored only as its orthonormal-basis
Hermitian matrix D^(1/2) C D^(1/2) / trace, built from the coefficient
matrix C over the unnormalized product states and their diagonal Gram
weights D.  Composite index order is A-major: (mu, rho) -> 4*mu+rho.

An EffectiveDensityOperator holds one operator, or a stack of P along a
leading axis, and indexing it indexes the stack.  `open_stack` and
`ring_stack` take the lengths of P points and broadcast the coefficient
tensor, the Gram weights and the trace check over them; `rho_ab_open`,
`rho_ab_adjacent` and `rho_ab_pbc` take element 0 of a one-point build.

`stacked_measures` evaluates a stack as arrays.  Two `eigvalsh` calls
solve the (P, 16, 16) joint matrices and their mode transposes, each
stack checked for Hermiticity first and solved as complex: the real
solver moves the last bit of most joint and transposed eigenvalues.
The two block marginals need no solve: every coefficient that a
partial trace sums into an entry off a marginal's diagonal, [mu, rho,
alpha, rho] with mu != alpha or [mu, rho, mu, beta] with rho != beta,
is exactly 0.0, so each marginal is diagonal and its spectrum is its
diagonal.  The joint and transposed eigenvalues form one (2P, 16)
array, which `linalg.spectrum_reports` reads in one pass, and the
marginals' diagonals one (2P, 4) array, whose entropies
`linalg.spectrum_entropies` reads in one pass.  LAPACK solves every
member of a stack on its own, and the report passes read every row on
its own, so a member's measures do not depend on its stack; `measures`
is the one-operator call.  Callers build and evaluate at most
STACK_POINTS operators at a time, which bounds the memory a long sweep
holds.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .closed_forms import CHANNEL_SIGNS, ChannelWeights, decay_parameter
from .linalg import (
    SpectrumReport,
    hermitian_eigvals,
    spectrum_entropies,
    spectrum_report,
    spectrum_reports,
)
from .pauli_algebra import PARITY, calibrated_epsilon, m4_tensor

TRACE_TOL = 1e-12

# operators per stacked evaluation (see the module docstring)
STACK_POINTS = 16

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
        return spectrum_report(hermitian_eigvals(self.normalized))


def _decays(lengths: Sequence[int]) -> np.ndarray:
    return np.array([decay_parameter(length) for length in lengths], dtype=float)


def _assemble(
    coeff4: np.ndarray, block_a: Sequence[int], block_b: Sequence[int]
) -> EffectiveDensityOperator:
    """The stack of coefficient tensors (P, 4, 4, 4, 4) with its blocks' weights."""
    w = np.array([ChannelWeights.from_length(length).weights for length in [*block_a, *block_b]])
    count = len(block_a)
    half = np.sqrt((w[:count, :, None] * w[count:, None, :]).reshape(-1, 16))
    normalized = half[:, :, None] * coeff4.reshape(-1, 16, 16) * half[:, None, :]
    trace = normalized.trace(axis1=1, axis2=2)
    kept = np.abs(trace - 1.0) <= TRACE_TOL
    if not kept.all():
        raise ValueError(f"construction lost the unit trace: {float(trace[~kept][0])!r}")
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


@dataclass(frozen=True)
class Measures:
    report: SpectrumReport
    transpose: SpectrumReport
    entropy_a: float
    entropy_b: float
    mutual_information: float


def stacked_measures(stack: EffectiveDensityOperator) -> list[Measures]:
    """The measures of each operator of a stack, from stacked solves and reports.

    Two eigensolves, over the joint and transposed stacks however long
    the stack is (callers pass at most STACK_POINTS), then one report
    pass over their eigenvalues and one over the block marginals'
    spectra, which are the marginals' diagonals (see the module
    docstring).  A member's Measures do not depend on the rest of its
    stack, bitwise.
    """
    count = len(stack.normalized)
    transposed = mode_partial_transpose(stack).normalized
    modes = stack.normalized.reshape(-1, 4, 4, 4, 4)
    spectra = spectrum_reports(
        np.concatenate([hermitian_eigvals(stack.normalized), hermitian_eigvals(transposed)])
    )
    entropies = spectrum_entropies(
        np.concatenate([np.einsum("pabab->pa", modes), np.einsum("pabab->pb", modes)])
    )
    return [
        Measures(
            report=report,
            transpose=transpose,
            entropy_a=entropy_a,
            entropy_b=entropy_b,
            mutual_information=entropy_a + entropy_b - report.entropy,
        )
        for report, transpose, entropy_a, entropy_b in zip(
            spectra[:count], spectra[count:], entropies[:count], entropies[count:]
        )
    ]


def measures(op: EffectiveDensityOperator) -> Measures:
    """Joint and transpose spectra, the block entropies and their mutual information."""
    return stacked_measures(op[None])[0]
