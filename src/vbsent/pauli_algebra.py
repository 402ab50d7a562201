"""Exact sigma-matrix algebra on the four-component bond-operator basis.

The basis is sigma_mu = (i*I, s1, s2, s3) and sigma_bar_mu = (-i*I, s1,
s2, s3) with the three Pauli matrices s_k.  Every entry is an exact
complex integer, so all identity checks below demand a residual of
exactly zero, not a float tolerance.

Two tables carry the algebra: TRACE4, every four-trace by direct
multiplication, and its delta/epsilon closed form for each epsilon
orientation.  The calibrated orientation, the coupling tensor M and the
bond-contraction identities are all read from them.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

_PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)

SIGMA = np.stack([1j * np.eye(2), _PAULI_1, _PAULI_2, _PAULI_3])
SIGMA_BAR = np.stack([-1j * np.eye(2), _PAULI_1, _PAULI_2, _PAULI_3])

# sign vector realizing (-1)^mu, fixed by s2 sigma_mu s2 = parity(mu) sigma_mu
PARITY = (1, -1, 1, -1)

# diagonal metric g = diag(-1, +1, +1, +1), stored as its diagonal
METRIC = (-1, 1, 1, 1)

MODES = range(4)

_DELTA = np.eye(4, dtype=int)

# Tr(sigma_mu sigma_bar_nu sigma_rho sigma_bar_lam), indexed [mu, nu, rho, lam];
# direct multiplication, independent of the closed form it referees
TRACE4 = np.einsum("mab,nbc,rcd,lda->mnrl", SIGMA, SIGMA_BAR, SIGMA, SIGMA_BAR)
TRACE4.setflags(write=False)


@functools.lru_cache(maxsize=None)
def epsilon4(orientation: int) -> np.ndarray:
    """Read-only totally antisymmetric rank-4 int tensor with e_0123 = orientation."""
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    # a permutation's sign is the product of sign(p_j - p_i) over i < j,
    # and a repeated index makes one factor 0
    idx = np.indices((4, 4, 4, 4))
    values = np.full((4, 4, 4, 4), orientation)
    for i, j in itertools.combinations(range(4), 2):
        values *= np.sign(idx[j] - idx[i])
    values.setflags(write=False)
    return values


@functools.lru_cache(maxsize=None)
def _closed_form_table(orientation: int) -> np.ndarray:
    """2(d_mn d_rl + d_ml d_rn - d_mr d_nl + eps_mnrl) for every index tuple."""
    d = (
        np.einsum("mn,rl->mnrl", _DELTA, _DELTA)
        + np.einsum("ml,rn->mnrl", _DELTA, _DELTA)
        - np.einsum("mr,nl->mnrl", _DELTA, _DELTA)
    )
    table = 2 * (d + epsilon4(orientation))
    table.setflags(write=False)
    return table


def closed_form_trace4(mu: int, nu: int, rho: int, lam: int, orientation: int) -> complex:
    """2(d_mn d_rl + d_ml d_rn - d_mr d_nl + eps_mnrl) for a given eps sign."""
    return complex(_closed_form_table(orientation)[mu, nu, rho, lam])


@functools.lru_cache(maxsize=None)
def decide_epsilon_orientation() -> int:
    """The unique sign of e_0123 that makes closed_form_trace4 match TRACE4.

    Checked over all 256 index tuples; raises with the mismatching tuples
    if neither (or both) orientations survive.
    """
    survivors = []
    mismatches = {}
    for orientation in (1, -1):
        closed = _closed_form_table(orientation)
        bad = [tuple(int(i) for i in idx) for idx in np.argwhere(TRACE4 != closed)]
        mismatches[orientation] = [
            (idx, complex(TRACE4[idx]), complex(closed[idx])) for idx in bad[:8]
        ]
        if not bad:
            survivors.append(orientation)
    if len(survivors) != 1:
        raise RuntimeError(
            f"epsilon orientation calibration failed: survivors={survivors}, "
            f"sample mismatches={mismatches}"
        )
    return survivors[0]


def calibrated_epsilon() -> np.ndarray:
    return epsilon4(decide_epsilon_orientation())


def verify_bilinear_completeness() -> tuple[bool, float]:
    """Check sum_mu parity(mu) (s_mu)_ab (s_mu)_cd = -2 d_ac d_bd over all tuples."""
    acc = np.einsum("m,mab,mcd->abcd", PARITY, SIGMA, SIGMA)
    target = -2.0 * np.einsum("ac,bd->abcd", np.eye(2), np.eye(2))
    worst = float(np.max(np.abs(acc - target)))
    return worst == 0.0, worst


def m4_tensor() -> np.ndarray:
    """Rank-4 coupling tensor M_mnrs = (1/2)(-1)^n g^nn Tr(s_m sb_n s_r sb_s).

    Built from direct matrix traces, which sidesteps the epsilon
    orientation ambiguity entirely; real integer valued.
    """
    sign = np.multiply(PARITY, METRIC)[None, :, None, None]
    m = 0.5 * sign * TRACE4
    complex_entries = np.argwhere(m.imag != 0.0)
    if len(complex_entries):
        idx = tuple(int(i) for i in complex_entries[0])
        raise RuntimeError(f"M tensor entry {idx} is not real: {complex(m[idx])}")
    return m.real.copy()


def m4_tensor_epsilon_form() -> np.ndarray:
    """Same tensor from the delta/epsilon expansion with the calibrated sign."""
    parity = np.array(PARITY)[None, :, None, None]
    metric_nu = np.array(METRIC)[None, :, None, None]
    m = np.einsum("m,mn,rs->mnrs", METRIC, _DELTA, _DELTA) + metric_nu * (
        np.einsum("nr,ms->mnrs", _DELTA, _DELTA)
        - np.einsum("ns,mr->mnrs", _DELTA, _DELTA)
        + calibrated_epsilon()
    )
    return (parity * m).astype(float)


def _bond_residual(n: int, coeff: np.ndarray, subscripts: str) -> float:
    """Max |(s2)_a1b1 ... (s2)_anbn - coeff . sigma ... sigma| over 2^(2n) tuples.

    subscripts contracts coeff with n copies of SIGMA into the output
    index order a1 b1 ... an bn of the left side.
    """
    lhs = functools.reduce(np.multiply.outer, [SIGMA[2]] * n)
    rhs = np.einsum(subscripts, coeff, *[SIGMA] * n)
    return float(np.max(np.abs(lhs - rhs)))


def verify_boundary_identity(n: int) -> tuple[bool, float]:
    """Coefficient-level check of the n-fold bond-contraction identity.

    n=2: (s2)_ab (s2)_cd = -1/2 sum_mu (s_mu)_bc (s_mu)_ad over 2^4 tuples.
    n=3: the three-bond expansion with coefficients M_mn2l / 4, which must
         equal the same slice of the delta/epsilon form, over 2^6 tuples.
    n=4: the four-bond expansion with coefficients -M / 8 over 2^8 tuples,
         which also pins down the M tensor conventions used for the
         effective density matrices; M must equal its delta/epsilon form.
    """
    if n == 2:
        worst = _bond_residual(2, -0.5 * _DELTA, "mn,mbc,nad->abcd")
    elif n == 3:
        coeff = m4_tensor()[:, :, 2, :] / 4
        gap = float(np.max(np.abs(coeff - m4_tensor_epsilon_form()[:, :, 2, :] / 4)))
        worst = max(gap, _bond_residual(3, coeff, "mnl,mbc,nde,laf->abcdef"))
    elif n == 4:
        m = m4_tensor()
        gap = float(np.max(np.abs(m - m4_tensor_epsilon_form())))
        worst = max(gap, _bond_residual(4, -m / 8, "mnrl,mbc,nde,rfg,lah->abcdefgh"))
    else:
        raise ValueError("identity order must be 2, 3 or 4")
    return worst == 0.0, worst


def lorentz_generator(mu: int, nu: int) -> np.ndarray:
    """sigma_mn = (sigma_mu sigma_bar_nu - sigma_nu sigma_bar_mu) / 2."""
    return (SIGMA[mu] @ SIGMA_BAR[nu] - SIGMA[nu] @ SIGMA_BAR[mu]) / 2.0


def lorentz_commutator_residual() -> float:
    """Max deviation of [s_mn, s_ab] from its delta expansion, all indices.

    One product table over the (4, 4, 2, 2) generator table holds every
    s_mn s_ab; the expansion 2 (d_na s_mb - d_nb s_ma + d_mb s_na - d_ma s_nb)
    is one delta term read in four index orders.
    """
    gen = np.array([[lorentz_generator(m, n) for n in MODES] for m in MODES])
    prod = np.einsum("mnij,abjk->mnabik", gen, gen)
    lhs = prod - prod.transpose(2, 3, 0, 1, 4, 5)
    term = np.einsum("na,mbik->mnabik", _DELTA, gen)  # d_na s_mb
    rhs = 2.0 * (
        term
        - term.transpose(0, 1, 3, 2, 4, 5)
        + term.transpose(1, 0, 3, 2, 4, 5)
        - term.transpose(1, 0, 2, 3, 4, 5)
    )
    return float(np.max(np.abs(lhs - rhs)))
