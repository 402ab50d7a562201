"""Two-block density operators in the 16-dimensional bond-mode basis.

A length-L block supports exactly four ground states |A_mu>, mutually
orthogonal with norms w_mu(L).  Two disjoint blocks therefore live in a
16-dimensional space; the operators here are stored as the raw
coefficient matrix over the unnormalized product states together with
the diagonal Gram weights, and as the orthonormal-basis Hermitian matrix
D^(1/2) C D^(1/2).  Composite index order is A-major: (mu, rho) -> 4*mu+rho.

`stacked_measures` evaluates a list of operators as stacks: one
`eigvalsh` over the (P, 16, 16) joint matrices, one over their mode
transposes and one over each (P, 4, 4) stack of block marginals, each
stack checked for Hermiticity first.  LAPACK solves every member of a
stack on its own, so each float equals the one-operator result bitwise;
`measures` is the one-operator call.  Callers build and evaluate at most
STACK_POINTS operators at a time, which bounds the memory a long sweep
holds.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .closed_forms import CHANNEL_SIGNS, ChannelWeights, decay_parameter
from .linalg import SpectrumReport, hermitian_eigvals, spectrum_report
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
    """coeff over unnormalized modes, Gram weights, orthonormal matrix."""

    coeff: np.ndarray
    gram: np.ndarray
    normalized: np.ndarray
    note: str = ""

    def spectrum(self) -> SpectrumReport:
        return spectrum_report(hermitian_eigvals(self.normalized))


def _normalized(coeff: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """D^(1/2) C D^(1/2) of one coefficient matrix or of a stack (P, 16, 16)."""
    half = np.sqrt(gram)
    return half[..., :, None] * coeff * half[..., None, :]


def _transposed(coeff: np.ndarray) -> np.ndarray:
    """Swap the two A-mode indices of one coefficient matrix or of a stack."""
    coeff4 = coeff.reshape(coeff.shape[:-2] + (4, 4, 4, 4))
    return coeff4.swapaxes(-4, -2).reshape(coeff.shape)


def _assemble(
    coeff4: np.ndarray, block_a: int, block_b: int, note: str = ""
) -> EffectiveDensityOperator:
    w_a = np.array(ChannelWeights.from_length(block_a).weights)
    w_b = np.array(ChannelWeights.from_length(block_b).weights)
    gram = np.einsum("m,r->mr", w_a, w_b).reshape(16)
    coeff = coeff4.reshape(16, 16)
    normalized = _normalized(coeff, gram)
    trace = float(np.trace(normalized).real)
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"construction lost the unit trace: {trace!r}")
    return EffectiveDensityOperator(
        coeff=coeff,
        gram=gram,
        normalized=normalized / trace,
        note=note,
    )


def _obc_parts() -> tuple[np.ndarray, np.ndarray]:
    """Integer base and linear tensors with coeff(z) = base + z * linear."""
    eye = np.eye(4)
    base = np.einsum("ma,rb->mrab", eye, eye)
    d_mr_ab = np.einsum("mr,ab->mrab", eye, eye)
    d_ra_mb = np.einsum("ra,mb->mrab", eye, eye)
    s_ma = _S_PAIR[:, None, :, None]
    s_rb = _S_PAIR[None, :, None, :]
    linear = -(d_mr_ab - d_ra_mb) * s_ma + _EPS * (s_rb - s_ma) / 2.0
    return base, linear


_OBC_BASE, _OBC_LINEAR = _obc_parts()


def _obc_coefficients(z: float) -> np.ndarray:
    return _OBC_BASE + z * _OBC_LINEAR


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


def rho_ab_open(block_a: int, gap: int, block_b: int) -> EffectiveDensityOperator:
    """Two disjoint blocks on an open chain, separated by gap >= 1 bulk sites."""
    if gap < 1:
        raise ValueError("disjoint blocks need gap >= 1; use rho_ab_adjacent for 0")
    return _assemble(_obc_coefficients(decay_parameter(gap)), block_a, block_b)


def rho_ab_adjacent(block_a: int, block_b: int) -> EffectiveDensityOperator:
    """Two touching blocks: the gap-dependent coefficients at z = 1."""
    return _assemble(_obc_coefficients(1.0), block_a, block_b)


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
    return spectrum_report(list(w)), spectrum_report(pt)


def _pbc_coefficients(z_c: float, z_d: float, z_total: float) -> np.ndarray:
    s = _SIGNS
    norm = 1.0 + 3.0 * z_total
    x, y = z_d, z_c

    def lam(xx: float, yy: float) -> np.ndarray:
        pair = s[:, None] * s[None, :] + s[:, None] + s[None, :]
        return (1.0 + pair * xx * yy) / norm

    def gam(xx: float, yy: float) -> np.ndarray:
        return (s[:, None] + s[None, :]) * (xx * yy - (xx + yy) / 2.0) / norm

    eye = np.eye(4)
    # R_{rho mu beta alpha}: antisymmetrized sign combination, one factor (x - y)
    r4 = (
        s[:, None, None, None]
        - s[None, :, None, None]
        + s[None, None, :, None]
        - s[None, None, None, :]
    ) * (x - y) / (4.0 * norm)

    term1 = np.einsum("ma,rb,ab->mrab", eye, eye, lam(x, y))
    term2 = np.einsum("ar,mb,am->mrab", eye, eye, gam(x, y))
    term3 = _EPS * np.einsum("rmba->mrab", r4)
    term4 = np.einsum("mr,ab,ma->mrab", eye, eye, gam(-x, -y))
    return term1 - term2 + term3 - term4


def rho_ab_pbc(
    block_a: int, block_b: int, gap_c: int, gap_d: int
) -> EffectiveDensityOperator:
    """Two blocks on a ring, arcs in cyclic order: gap C, block A, gap D, block B.

    Gaps of 0 are constructed (the touching-on-ring case) but flagged,
    since the positivity guarantee for transposed ring states needs both
    gaps >= 1.
    """
    coeff4 = _pbc_coefficients(
        decay_parameter(gap_c),
        decay_parameter(gap_d),
        decay_parameter(block_a + block_b + gap_c + gap_d),
    )
    note = "" if gap_c >= 1 and gap_d >= 1 else "touching blocks on a ring"
    return _assemble(coeff4, block_a, block_b, note)


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


def mode_partial_transpose(op: EffectiveDensityOperator) -> EffectiveDensityOperator:
    """Swap the two A-mode indices of the coefficient tensor.

    Equivalent to flipping the sign of every gap parameter: z -> -z for
    the open constructions, (z_c, z_d) -> (-z_c, -z_d) on the ring.  Pure
    index movement, so applying it twice restores the input bitwise.
    """
    coeff = _transposed(op.coeff)
    return replace(op, coeff=coeff, normalized=_normalized(coeff, op.gram))


@dataclass(frozen=True)
class Measures:
    report: SpectrumReport
    transpose: SpectrumReport
    entropy_a: float
    entropy_b: float
    mutual_information: float


def stacked_measures(ops: Sequence[EffectiveDensityOperator]) -> list[Measures]:
    """The measures of each operator, from four stacked eigensolves.

    The joint, transposed and marginal matrices of all the operators are
    stacked and diagonalized in one call each, however many operators
    the call takes (callers pass at most STACK_POINTS).  Each Measures is
    the one `measures` gives for that operator alone, bitwise: the
    marginals trace the orthonormal 16x16 matrix over the other block's
    modes, and the transposes are those of `mode_partial_transpose`.
    """
    joint = np.array([op.normalized for op in ops], dtype=complex)
    gram = np.array([op.gram for op in ops])
    transposed = _normalized(_transposed(np.array([op.coeff for op in ops])), gram)
    modes = joint.reshape(-1, 4, 4, 4, 4)
    stacks = zip(
        hermitian_eigvals(joint),
        hermitian_eigvals(transposed),
        hermitian_eigvals(np.einsum("pabcb->pac", modes)),
        hermitian_eigvals(np.einsum("pabad->pbd", modes)),
    )
    out = []
    for vals, pt_vals, vals_a, vals_b in stacks:
        report = spectrum_report(vals)
        entropy_a = spectrum_report(vals_a).entropy
        entropy_b = spectrum_report(vals_b).entropy
        out.append(
            Measures(
                report=report,
                transpose=spectrum_report(pt_vals),
                entropy_a=entropy_a,
                entropy_b=entropy_b,
                mutual_information=entropy_a + entropy_b - report.entropy,
            )
        )
    return out


def measures(op: EffectiveDensityOperator) -> Measures:
    """Joint and transpose spectra, the block entropies and their mutual information."""
    return stacked_measures([op])[0]
