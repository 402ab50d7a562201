"""Exact sigma-matrix algebra on the four-component bond-operator basis.

The basis is sigma_mu = (i*I, s1, s2, s3) and sigma_bar_mu = (-i*I, s1,
s2, s3) with the three Pauli matrices s_k.  Every entry is an exact
complex integer, so all identity checks below demand a residual of
exactly zero, not a float tolerance.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

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


@dataclass(frozen=True)
class Epsilon4:
    """Totally antisymmetric rank-4 tensor with a chosen sign for e_0123."""

    values: np.ndarray
    orientation: int


def _permutation_sign(p) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def epsilon4(orientation: int) -> Epsilon4:
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    values = np.zeros((4, 4, 4, 4), dtype=int)
    for p in itertools.permutations(range(4)):
        values[p] = orientation * _permutation_sign(p)
    values.setflags(write=False)
    return Epsilon4(values, orientation)


def trace4(mu: int, nu: int, rho: int, lam: int) -> complex:
    """Tr(sigma_mu sigma_bar_nu sigma_rho sigma_bar_lam) by direct multiplication."""
    prod = SIGMA[mu] @ SIGMA_BAR[nu] @ SIGMA[rho] @ SIGMA_BAR[lam]
    return complex(prod[0, 0] + prod[1, 1])


def closed_form_trace4(mu: int, nu: int, rho: int, lam: int, orientation: int) -> complex:
    """2(d_mn d_rl + d_ml d_rn - d_mr d_nl + eps_mnrl) for a given eps sign."""
    eps = epsilon4(orientation).values
    d = (mu == nu) * (rho == lam) + (mu == lam) * (rho == nu) - (mu == rho) * (nu == lam)
    return complex(2 * (d + eps[mu, nu, rho, lam]))


@lru_cache(maxsize=None)
def decide_epsilon_orientation() -> int:
    """The unique sign of e_0123 that makes closed_form_trace4 match trace4.

    Checked over all 256 index tuples; raises with the mismatching tuples
    if neither (or both) orientations survive.
    """
    survivors = []
    mismatches = {1: [], -1: []}
    for orientation in (1, -1):
        ok = True
        for idx in itertools.product(MODES, repeat=4):
            direct = trace4(*idx)
            closed = closed_form_trace4(*idx, orientation=orientation)
            if direct != closed:
                ok = False
                if len(mismatches[orientation]) < 8:
                    mismatches[orientation].append((idx, direct, closed))
        if ok:
            survivors.append(orientation)
    if len(survivors) != 1:
        raise RuntimeError(
            f"epsilon orientation calibration failed: survivors={survivors}, "
            f"sample mismatches={mismatches}"
        )
    return survivors[0]


def calibrated_epsilon() -> Epsilon4:
    return epsilon4(decide_epsilon_orientation())


def verify_bilinear_completeness() -> tuple[bool, float]:
    """Check sum_mu parity(mu) (s_mu)_ab (s_mu)_cd = -2 d_ac d_bd over all tuples."""
    worst = 0.0
    for a, b, c, d in itertools.product(range(2), repeat=4):
        acc = 0j
        for mu in MODES:
            acc += PARITY[mu] * SIGMA[mu][a, b] * SIGMA[mu][c, d]
        target = -2.0 * (a == c) * (b == d)
        worst = max(worst, abs(acc - target))
    return worst == 0.0, worst


def _id2_residual() -> float:
    worst = 0.0
    for a, b, c, d in itertools.product(range(2), repeat=4):
        lhs = SIGMA[2][a, b] * SIGMA[2][c, d]
        rhs = -0.5 * sum(SIGMA[mu][b, c] * SIGMA[mu][a, d] for mu in MODES)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _id3_residual() -> float:
    # trace form and the explicit m-tensor form must both reproduce the
    # product of three bond contractions
    eps = calibrated_epsilon().values
    coeff_trace = np.zeros((4, 4, 4), dtype=complex)
    m_form = np.zeros((4, 4, 4), dtype=complex)
    for mu, nu, lam in itertools.product(MODES, repeat=3):
        coeff_trace[mu, nu, lam] = (
            0.125 * PARITY[nu] * METRIC[nu] * trace4(mu, nu, 2, lam)
        )
        m = 0.25 * (
            METRIC[mu] * (mu == nu) * (lam == 2)
            + METRIC[nu] * (nu == 2) * (mu == lam)
            - METRIC[lam] * (lam == nu) * (mu == 2)
            + METRIC[nu] * eps[mu, nu, 2, lam]
        )
        m_form[mu, nu, lam] = PARITY[nu] * m
    worst = float(np.max(np.abs(coeff_trace - m_form)))
    for idx in itertools.product(range(2), repeat=6):
        a1, b1, a2, b2, a3, b3 = idx
        lhs = SIGMA[2][a1, b1] * SIGMA[2][a2, b2] * SIGMA[2][a3, b3]
        rhs = 0j
        for mu, nu, lam in itertools.product(MODES, repeat=3):
            rhs += (
                coeff_trace[mu, nu, lam]
                * SIGMA[mu][b1, a2]
                * SIGMA[nu][b2, a3]
                * SIGMA[lam][a1, b3]
            )
        worst = max(worst, abs(lhs - rhs))
    return worst


def m4_tensor() -> np.ndarray:
    """Rank-4 coupling tensor M_mnrs = (1/2)(-1)^n g^nn Tr(s_m sb_n s_r sb_s).

    Built from direct matrix traces, which sidesteps the epsilon
    orientation ambiguity entirely; real integer valued.
    """
    m = np.zeros((4, 4, 4, 4))
    for idx in itertools.product(MODES, repeat=4):
        mu, nu, rho, sig = idx
        val = 0.5 * PARITY[nu] * METRIC[nu] * trace4(mu, nu, rho, sig)
        if val.imag != 0.0:
            raise RuntimeError(f"M tensor entry {idx} is not real: {val}")
        m[idx] = val.real
    return m


def m4_tensor_epsilon_form() -> np.ndarray:
    """Same tensor from the delta/epsilon expansion with the calibrated sign."""
    eps = calibrated_epsilon().values
    m = np.zeros((4, 4, 4, 4))
    for mu, nu, rho, sig in itertools.product(MODES, repeat=4):
        m[mu, nu, rho, sig] = PARITY[nu] * (
            METRIC[mu] * (mu == nu) * (rho == sig)
            + METRIC[nu] * (nu == rho) * (mu == sig)
            - METRIC[nu] * (nu == sig) * (mu == rho)
            + METRIC[nu] * eps[mu, nu, rho, sig]
        )
    return m


def _id4_residual() -> float:
    coeff = np.zeros((4, 4, 4, 4), dtype=complex)
    for mu, nu, rho, lam in itertools.product(MODES, repeat=4):
        coeff[mu, nu, rho, lam] = (
            -PARITY[nu] * METRIC[nu] * trace4(mu, nu, rho, lam) / 16.0
        )
    worst = float(np.max(np.abs(m4_tensor() - m4_tensor_epsilon_form())))
    sigma2 = SIGMA[2]
    for idx in itertools.product(range(2), repeat=8):
        a1, b1, a2, b2, a3, b3, a4, b4 = idx
        lhs = sigma2[a1, b1] * sigma2[a2, b2] * sigma2[a3, b3] * sigma2[a4, b4]
        rhs = np.einsum(
            "mnrl,m,n,r,l->",
            coeff,
            SIGMA[:, b1, a2],
            SIGMA[:, b2, a3],
            SIGMA[:, b3, a4],
            SIGMA[:, a1, b4],
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


def verify_boundary_identity(n: int) -> tuple[bool, float]:
    """Coefficient-level check of the n-fold bond-contraction identity.

    n=2: (s2)_ab (s2)_cd = -1/2 sum_mu (s_mu)_bc (s_mu)_ad over 2^4 tuples.
    n=3: the three-bond expansion, via the four-trace form and the
         explicit m tensor (both must agree), over 2^6 tuples.
    n=4: the four-bond expansion over 2^8 tuples, which also pins down the
         M tensor conventions used for the effective density matrices.
    """
    if n == 2:
        worst = _id2_residual()
    elif n == 3:
        worst = _id3_residual()
    elif n == 4:
        worst = _id4_residual()
    else:
        raise ValueError("identity order must be 2, 3 or 4")
    return worst == 0.0, worst


def lorentz_generator(mu: int, nu: int) -> np.ndarray:
    """sigma_mn = (sigma_mu sigma_bar_nu - sigma_nu sigma_bar_mu) / 2."""
    return (SIGMA[mu] @ SIGMA_BAR[nu] - SIGMA[nu] @ SIGMA_BAR[mu]) / 2.0


def lorentz_commutator_residual() -> float:
    """Max deviation of [s_mn, s_ab] from its delta expansion, all indices."""
    gen = {(m, n): lorentz_generator(m, n) for m in MODES for n in MODES}
    worst = 0.0
    for mu, nu, al, be in itertools.product(MODES, repeat=4):
        lhs = gen[mu, nu] @ gen[al, be] - gen[al, be] @ gen[mu, nu]
        rhs = 2.0 * (
            (nu == al) * gen[mu, be]
            - (nu == be) * gen[mu, al]
            + (mu == be) * gen[nu, al]
            - (mu == al) * gen[nu, be]
        )
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
