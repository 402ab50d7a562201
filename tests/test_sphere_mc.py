"""Monte Carlo estimator tests.

Seeds are fixed throughout, so every assertion is deterministic; the
4-sigma bounds still leave the estimates room to wiggle if numpy's
stream implementation details shift.
"""

import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from vbsent import sphere_mc
from vbsent.pauli_algebra import SIGMA
from vbsent.sphere_mc import (
    MIN_SAMPLES,
    ROW_BLOCK,
    McEstimate,
    SphereConfig,
    block_overlap_target,
    estimate_block_overlap,
    estimate_vbs_norm,
    sign_discrimination,
    vbs_norm_target,
)


def test_sphere_samples_are_unit_vectors():
    rng = np.random.default_rng(0)
    config = SphereConfig.sample(rng, 500, 3)
    norms = np.linalg.norm(config.omega, axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_spinor_reconstructs_direction():
    # omega = (2 Re(u v*), 2 Im(u v*), |u|^2 - |v|^2) up to round-off
    rng = np.random.default_rng(1)
    config = SphereConfig.sample(rng, 200, 2)
    cross = config.u * np.conj(config.v)
    assert np.max(np.abs(2.0 * np.real(cross) - config.omega[..., 0])) < 1e-12
    assert np.max(np.abs(2.0 * np.imag(cross) - config.omega[..., 1])) < 1e-12
    z = np.abs(config.u) ** 2 - np.abs(config.v) ** 2
    assert np.max(np.abs(z - config.omega[..., 2])) < 1e-12


def test_sigmas_from_semantics():
    est = McEstimate(mean=1.0, standard_error=0.1, samples=1000, seed=0)
    assert est.sigmas_from(1.2) == pytest.approx(2.0)
    exact = McEstimate(mean=0.5, standard_error=0.0, samples=1000, seed=0)
    assert exact.sigmas_from(0.5) == 0.0
    assert exact.sigmas_from(0.0) == float("inf")


def test_sample_count_guard():
    with pytest.raises(ValueError, match="at least"):
        estimate_vbs_norm(1, samples=10)
    with pytest.raises(ValueError, match="at least"):
        estimate_block_overlap(0, 0, 1, samples=MIN_SAMPLES - 1)


def test_sample_site_budget_rejects_before_drawing(monkeypatch):
    # the budget is samples x sites of the one estimate, checked before a draw
    monkeypatch.setattr(sphere_mc, "_draw_rows", lambda *a: pytest.fail("drew samples"))
    budget = sphere_mc.MAX_SAMPLE_SITES
    estimates = (
        lambda: estimate_vbs_norm(4, samples=budget // 6 + 1),
        lambda: estimate_vbs_norm(10**9, samples=MIN_SAMPLES, ring=True),
        lambda: estimate_block_overlap(0, 0, 10**9, samples=MIN_SAMPLES),
        lambda: sign_discrimination(samples=budget + 1),
    )
    for estimate in estimates:
        with pytest.raises(ValueError, match="exceed the budget of 100000000 sample-sites"):
            estimate()
    # the budget itself passes, and so do the CLI's default and verify's
    # estimates, the open chain of 4 bulk sites (6 sites) at most
    assert sphere_mc.check_norm_args(4, budget // 6) == budget // 6
    assert sphere_mc.check_overlap_args(0, 0, budget // MIN_SAMPLES, MIN_SAMPLES) == MIN_SAMPLES
    for samples in (sphere_mc.SAMPLES, 20_000):
        assert sphere_mc.check_norm_args(4, samples) == samples


def test_argument_guards():
    with pytest.raises(ValueError, match="bulk site"):
        estimate_vbs_norm(0)
    with pytest.raises(ValueError, match="mode index"):
        estimate_block_overlap(4, 0, 1, samples=MIN_SAMPLES)
    with pytest.raises(ValueError, match="block length"):
        estimate_block_overlap(0, 0, 0, samples=MIN_SAMPLES)


def test_each_estimator_rejects_a_negative_seed_by_name():
    estimates = (
        lambda: estimate_vbs_norm(1, samples=MIN_SAMPLES, seed=-1),
        lambda: estimate_vbs_norm(3, samples=MIN_SAMPLES, seed=-1, ring=True),
        lambda: estimate_block_overlap(0, 0, 1, samples=MIN_SAMPLES, seed=-1),
        lambda: sign_discrimination(samples=MIN_SAMPLES, seed=-1),
    )
    for estimate in estimates:
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            estimate()


def test_open_norm_within_four_sigma():
    for n, seed in ((1, 3), (2, 4), (4, 5)):
        est = estimate_vbs_norm(n, samples=20_000, seed=seed)
        assert est.sigmas_from(vbs_norm_target(n)) <= 4.0


def test_ring_norm_within_four_sigma():
    for n, seed in ((3, 6), (5, 7)):
        est = estimate_vbs_norm(n, samples=20_000, seed=seed, ring=True)
        target = vbs_norm_target(n, ring=True)
        assert target == pytest.approx(1.0 + 3.0 * (-1 / 3.0) ** n)
        assert est.sigmas_from(target) <= 4.0


def test_overlap_targets():
    assert block_overlap_target(0, 0, 1) == pytest.approx(1.0 / 3.0)
    assert block_overlap_target(2, 2, 1) == 0.0
    assert block_overlap_target(2, 2, 2) == pytest.approx(1.0 / 3.0)
    assert block_overlap_target(0, 1, 1) == 0.0


def test_diagonal_overlaps_within_four_sigma():
    for mu in range(4):
        for length in (1, 2):
            est = estimate_block_overlap(
                mu, mu, length, samples=20_000, seed=40 + mu
            )
            target = block_overlap_target(mu, mu, length)
            assert est.sigmas_from(target) <= 4.0, (mu, length)


def test_off_diagonal_overlaps_vanish():
    for mu, nu in [(0, 1), (0, 3), (1, 2), (2, 3)]:
        est = estimate_block_overlap(mu, nu, 2, samples=20_000, seed=50 + mu + nu)
        assert est.sigmas_from(0.0) <= 4.0, (mu, nu)


def test_singlet_single_site_is_identically_zero():
    # the antisymmetric mode on a single site cancels per sample, giving
    # a zero-variance exact zero; regression guard for the single site's
    # s_f s_l written as the kernel's 1 - c c in the end form
    est = estimate_block_overlap(2, 2, 1, samples=MIN_SAMPLES, seed=9)
    assert est.mean == 0.0
    assert est.standard_error == 0.0


# The Pauli basis (I, sigma_x, sigma_y, sigma_z) in SIGMA's matrices.
PAULI = (np.eye(2), SIGMA[1], SIGMA[2], SIGMA[3])


def _sigma_trace_table():
    """table[mu, nu, a, b]: F_mu_nu = sum_ab e_f^a table[mu, nu, a, b] e_l^b, e = (1, omega).

    T_mu = phi_f^T SIGMA[mu] phi_l gives conj(T_mu) T_nu = tr(SIGMA[mu]^dagger
    (phi_f^* phi_f^T) SIGMA[nu] (phi_l phi_l^dagger)).  The sampler's spinor
    (u, v) = (cos(theta/2), e^(-i phi) sin(theta/2)) has phi^* phi^T =
    (I + omega . sigma)/2 and phi phi^dagger = (I + omega' . sigma)/2 with
    omega' = (x, -y, z), so F_mu_nu = 2 Re(conj(T_mu) T_nu) is one half the
    real trace against PAULI, with sigma_y's sign flipped at the last site.
    """
    reflect = (1.0, 1.0, -1.0, 1.0)
    table = np.zeros((4, 4, 4, 4))
    for mu, nu, a, b in itertools.product(range(4), repeat=4):
        product = SIGMA[mu].conj().T @ PAULI[a] @ SIGMA[nu] @ PAULI[b]
        table[mu, nu, a, b] = 0.5 * reflect[b] * np.trace(product).real
    return table


def test_end_forms_are_the_sigma_traces():
    table = _sigma_trace_table()
    # signed unit entries, symmetric in (mu, nu)
    assert set(np.unique(table)) == {-1.0, 0.0, 1.0}
    assert np.array_equal(table, table.transpose(1, 0, 2, 3))
    rng = np.random.default_rng(3)
    config = SphereConfig.sample(rng, 500, 1)
    # the two projectors the derivation reads, at the sampler's spinors
    spinor = np.stack([config.u[:, 0], config.v[:, 0]], axis=-1)
    x, y, z = config.omega[:, 0].T
    for vector, outer in (((x, y, z), np.einsum("sa,sb->sab", spinor.conj(), spinor)),
                          ((x, -y, z), np.einsum("sa,sb->sab", spinor, spinor.conj()))):
        want = 0.5 * (np.eye(2) + sum(w[:, None, None] * p for w, p in zip(vector, PAULI[1:])))
        assert np.max(np.abs(outer - want)) < 1e-15
    # the forms written out in the sampler, on one, two and three sites,
    # against omega with s = sqrt((1 - c)(1 + c)), accurate at the poles
    for length in (1, 2, 3):
        config = SphereConfig.sample(rng, 500, length)
        c, phi = config.cos_theta, config.phi
        s = np.sqrt((1.0 - c) * (1.0 + c))
        e = np.stack([np.ones_like(c), s * np.cos(phi), s * np.sin(phi), c], axis=-1)
        for mu, nu in itertools.product(range(4), repeat=2):
            want = np.einsum("sa,ab,sb->s", e[:, 0], table[mu, nu], e[:, -1])
            got = sphere_mc._end_form(mu, nu, c, phi)
            assert np.max(np.abs(got - want)) < 1e-14, (mu, nu, length)


# ------------------------------------------------ standard errors
# At a single site the end forms reduce an overlap to a polynomial in one
# unit vector, and an open chain's norm factors over its bonds, so the
# variances the reported standard errors estimate are exact moments.  Over
# the sphere E[x^a y^b z^c] = (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!! for
# even a, b, c, and omega_i . omega_j is uniform on [-1, 1] given omega_j.


def _double_factorial(n):
    return math.prod(range(n, 0, -2))


def _sphere_moment(a, b, c):
    """E[x^a y^b z^c] over the unit sphere, exactly."""
    if a % 2 or b % 2 or c % 2:
        return Fraction(0)
    numerator = _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1)
    return Fraction(numerator, _double_factorial(a + b + c + 1))


def _raw_moments(case):
    """E[X^k], k = 1..4, of one sample's value X."""
    if case == "overlap mu=1 nu=0 L=1":  # X = F_10 / 4 = -(1/2) y z
        return [Fraction(-1, 2) ** k * _sphere_moment(0, k, k) for k in range(1, 5)]
    if case == "overlap mu=0 nu=0 L=1":  # X = F_00 / 4 = (1 - y^2) / 2
        return [
            sum(math.comb(k, j) * (-1) ** j * _sphere_moment(0, 2 * j, 0) for j in range(k + 1))
            / 2**k
            for k in range(1, 5)
        ]
    # open norm, N = 1: X = (1 - t_1)(1 - t_2), t_i uniform on [-1, 1],
    # E (1 - t)^k = 2^k / (k + 1)
    return [Fraction(2**k, k + 1) ** 2 for k in range(1, 5)]


def _variance_and_fourth_moment(case):
    m1, m2, m3, m4 = _raw_moments(case)
    return m2 - m1**2, m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4


SE_CASES = {
    "overlap mu=1 nu=0 L=1": lambda samples, seed: estimate_block_overlap(1, 0, 1, samples, seed),
    "overlap mu=0 nu=0 L=1": lambda samples, seed: estimate_block_overlap(0, 0, 1, samples, seed),
    "open norm N=1": lambda samples, seed: estimate_vbs_norm(1, samples, seed),
}


def _sample_variance_sigmas(estimate, case):
    """|samples SE^2 - variance| in standard deviations of the sample variance.

    samples SE^2 is the ddof=1 sample variance s^2 of the values, unbiased
    for the variance sigma^2, with Var(s^2) = (mu_4 - sigma^4 (n - 3) /
    (n - 1)) / n exactly for n samples and fourth central moment mu_4.
    """
    variance, fourth = (float(m) for m in _variance_and_fourth_moment(case))
    n = estimate.samples
    spread = math.sqrt((fourth - variance**2 * (n - 3) / (n - 1)) / n)
    return abs(n * estimate.standard_error**2 - variance) / spread


def test_standard_errors_estimate_the_exact_variances():
    want = {
        "overlap mu=1 nu=0 L=1": Fraction(1, 60),
        "overlap mu=0 nu=0 L=1": Fraction(1, 45),
        "open norm N=1": Fraction(7, 9),  # (4/3)^2 - 1
    }
    for case, variance in want.items():
        assert _variance_and_fourth_moment(case)[0] == variance, case
    # s^2 is a mean over n samples, near normal at these n: a bound of 4
    # spreads fails a randomly drawn seed's check with probability about
    # 6.3e-5, 6.3e-4 over the ten checks.  The relative spread is
    # sqrt((kappa - 1) / n), 0.34% and 0.46% at 10^5 samples (kappa =
    # mu_4 / sigma^4 is 15/7 for both overlaps and 3.15 for the norm), so
    # an SE 2% off lands at least 7 spreads out.  The last check is an
    # mc-sampling op that landed 4.81 sigmas from its target: its SE is the
    # exact sqrt(1/60) / 1000 = 1.291e-4, so that op was a tail draw of the
    # mean, not a misreported SE.
    checks = [(case, 100_000, seed) for case in SE_CASES for seed in (0, 1, 2)]
    checks.append(("overlap mu=1 nu=0 L=1", 10**6, 723987552))
    for case, samples, seed in checks:
        got = SE_CASES[case](samples, seed)
        assert _sample_variance_sigmas(got, case) <= sphere_mc.SIGMA_BOUND, (case, seed)
    assert 4.8 < got.sigmas_from(0.0) < 4.82


def test_sign_discrimination_rejects_minus():
    res = sign_discrimination(samples=20_000, seed=12)
    assert res.plus_target == 0.0
    assert res.minus_target == pytest.approx(0.5)
    assert res.sigmas_from_plus <= 4.0
    assert res.sigmas_from_minus > 4.0
    assert res.rejects_minus


def test_reruns_are_bit_identical():
    a = estimate_vbs_norm(3, samples=MIN_SAMPLES, seed=21)
    b = estimate_vbs_norm(3, samples=MIN_SAMPLES, seed=21)
    assert a.mean == b.mean
    assert a.standard_error == b.standard_error


def test_different_seeds_differ():
    a = estimate_vbs_norm(3, samples=MIN_SAMPLES, seed=21)
    b = estimate_vbs_norm(3, samples=MIN_SAMPLES, seed=22)
    assert a.mean != b.mean


# ------------------------------------------------ whole-array references
# The estimators written out over all samples at once, from angles drawn
# whole by default_rng(seed): every cos(theta), then every phi.  The
# row-blocked, threaded estimators must reproduce the one-cosine bonds and
# the end sites' bilinear forms bit for bit.  The trigonometric reference,
# the estimators as first written with spinors, is kept as a per-sample
# cross-check within round-off.

UNIT_ROUNDOFF = 2.0**-53


def _reference_angles(samples, sites, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=(samples, sites))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(samples, sites))
    return z, phi


def _bond_pairs(sites, ring):
    return [(i, i + 1) for i in range(sites - 1)] + ([(sites - 1, 0)] if ring else [])


def _reference_weight(z, phi, ring):
    """Bond factors 1 - (s_i s_j cos(phi_i - phi_j) + c_i c_j), multiplied in bond order."""
    s = np.sqrt(1.0 - z * z)
    weight = np.ones(z.shape[0])
    for i, j in _bond_pairs(z.shape[1], ring):
        dot = s[:, i] * s[:, j] * np.cos(phi[:, i] - phi[:, j]) + z[:, i] * z[:, j]
        weight = weight * (1.0 - dot)
    return weight


def _reference_overlap_values(mu, nu, z, phi):
    """(1/4) F_mu_nu w, F the end sites' form with s = sqrt((1 - c)(1 + c)).

    A single site's s_f s_l is 1 - c c.  Each form is written as the
    sampler evaluates it, term by term and in its order.
    """
    cf, cl, pf, pl = z[:, 0], z[:, -1], phi[:, 0], phi[:, -1]
    sf, sl = np.sqrt((1.0 - cf) * (1.0 + cf)), np.sqrt((1.0 - cl) * (1.0 + cl))
    ss = 1.0 - cf * cl if z.shape[1] == 1 else sf * sl
    xf, yf, xl, yl = sf * np.cos(pf), sf * np.sin(pf), sl * np.cos(pl), sl * np.sin(pl)
    forms = {
        (0, 0): lambda: (1.0 + cf * cl) + ss * np.cos(pf + pl),
        (3, 3): lambda: (1.0 + cf * cl) - ss * np.cos(pf + pl),
        (1, 1): lambda: (1.0 - cf * cl) + ss * np.cos(pf - pl),
        (2, 2): lambda: (1.0 - cf * cl) - ss * np.cos(pf - pl),
        (0, 3): lambda: ss * np.sin(pf + pl),
        (1, 2): lambda: ss * np.sin(pf - pl),
        (0, 1): lambda: -(yf * cl + cf * yl),
        (2, 3): lambda: yf * cl - cf * yl,
        (0, 2): lambda: xf * cl - cf * xl,
        (1, 3): lambda: xf * cl + cf * xl,
    }
    form = forms[min(mu, nu), max(mu, nu)]()
    return 0.25 * form * _reference_weight(z, phi, False)


def _trig_values(z, phi, ring, modes=None):
    """Per-sample values of the estimators as first written.

    Directions (s cos phi, s sin phi, c) with the bond dot product summed
    over a stacked component axis, spinors u = e^(i phi/2) cos(theta/2),
    v = e^(-i phi/2) sin(theta/2), and T_mu contracted with every entry of
    SIGMA[mu].  `modes` (mu, nu) asks for an overlap, None for a norm.
    """
    s = np.sqrt(1.0 - z * z)
    omega = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
    weight = np.ones(z.shape[0])
    for i, j in _bond_pairs(z.shape[1], ring):
        weight = weight * (1.0 - np.sum(omega[:, i] * omega[:, j], axis=-1))
    if modes is None:
        return weight
    u = np.exp(0.5j * phi) * np.sqrt((1.0 + z) / 2.0)
    v = np.exp(-0.5j * phi) * np.sqrt((1.0 - z) / 2.0)

    def amplitude(m):
        uf, vf, ul, vl = u[:, 0], v[:, 0], u[:, -1], v[:, -1]
        sigma = SIGMA[m]
        return (
            sigma[0, 0] * (uf * ul)
            + sigma[0, 1] * (uf * vl)
            + sigma[1, 0] * (ul * vf)
            + sigma[1, 1] * (vf * vl)
        )

    mu, nu = modes
    return 0.5 * np.real(np.conj(amplitude(mu)) * amplitude(nu)) * weight


def _round_off_bound(bonds):
    """How far one sample's value may move between the two sets of formulas.

    Take u = 2^-53 and library cos, sin and complex exp good to 2u in each
    component of a result of modulus at most 1.  Both sides read the same
    c and phi, and their bonds the same s = sqrt(1 - c^2).
    - A bond's dot product d, |d| <= 1: the trigonometric side rounds
      s cos(phi) and s sin(phi) to 2.5u each, their products to 5.5u and
      the sum of three to 12.5u of the exact d; the one-cosine side rounds
      phi_i - phi_j < 2 pi by at most 2 pi u, which moves its cosine as
      much, and is within 11u.  The factor 1 - d in [0, 2] rounds by u on
      each side: the two factors are within 26u.
    - B factors of at most 2 multiply to at most 2^B; a factor's
      difference moves the product by 26u 2^(B-1), and each of the 2B
      roundings of the products by u 2^(B-1): 14 B 2^B u in all.
    - An overlap's end value F/4 = (1/2) Re(conj(T_mu) T_nu) has |T| <= 1,
      so |F/4| <= 1/2.  The spinor side's T is a sum of two spinor
      products: each spinor component is within 3u of exact, a product
      within 11u and T within 24u, so its F/4 is within 25u of exact.
    - The forms' side: the ends' s = sqrt((1 - c)(1 + c)) is within 2.5u
      and c c within u.  Its one trig of phi_f +- phi_l, |phi_f +- phi_l| <
      4 pi, rounds the argument by at most 4 pi u, which moves the trig as
      much: within (2 + 4 pi) u < 15u; a trig of phi_f or phi_l is within
      2u.  So s_f s_l, or a single site's 1 - c c, is within 6u, its
      product with the trig within 22u and the kernel 1 +- c c within 3u:
      a diagonal F is within 27u, F_03 and F_12 within 22u.  x = s cos(phi)
      or y = s sin(phi) is within 5.5u and its product with c within 6.5u,
      so F_01, F_02, F_13 and F_23 are within 15u.  F/4 is within 7u.
    - The two end values are within 32u of each other; times weights of at
      most 2^B that are within 14 B 2^B u, and with the last product's
      rounding by u 2^(B-1) on each side, the values are within
      (33 + 7 B) 2^B u.
    So both are within 64 (B + 1) 2^B u.
    """
    return 64.0 * (bonds + 1) * 2.0**bonds * UNIT_ROUNDOFF


def _estimate(values, samples, seed):
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(samples))
    return McEstimate(mean=mean, standard_error=se, samples=samples, seed=seed)


def _reference_norm(n_bulk, samples, seed, ring):
    z, phi = _reference_angles(samples, n_bulk if ring else n_bulk + 2, seed)
    return _estimate(_reference_weight(z, phi, ring), samples, seed)


def _reference_overlap(mu, nu, length, samples, seed):
    z, phi = _reference_angles(samples, length, seed)
    return _estimate(_reference_overlap_values(mu, nu, z, phi), samples, seed)


BLOCK_EDGE_SAMPLES = (
    MIN_SAMPLES, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7
)


# worker counts to evaluate row blocks on, whatever the CPUs of the test host
WORKERS = (1, 2, 3)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("samples", BLOCK_EDGE_SAMPLES)
def test_norms_equal_the_whole_array_reference_bitwise(samples, workers, monkeypatch):
    monkeypatch.setattr(sphere_mc, "CPUS", workers)
    cases = [(n, False) for n in (1, 2, 3)] + [(n, True) for n in (2, 3)]
    for (n, ring), seed in itertools.product(cases, (0, 5)):
        got = estimate_vbs_norm(n, samples=samples, seed=seed, ring=ring)
        assert got == _reference_norm(n, samples, seed, ring), (n, ring, seed)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("samples", BLOCK_EDGE_SAMPLES)
def test_overlaps_equal_the_whole_array_reference_bitwise(samples, workers, monkeypatch):
    monkeypatch.setattr(sphere_mc, "CPUS", workers)
    for mu, nu, length in itertools.product(range(4), range(4), (1, 2, 3)):
        seed = 16 * length + 4 * mu + nu
        got = estimate_block_overlap(mu, nu, length, samples=samples, seed=seed)
        want = _reference_overlap(mu, nu, length, samples, seed)
        assert got == want, (mu, nu, length)


def test_values_stay_within_round_off_of_the_trigonometric_formulas():
    samples = 3 * ROW_BLOCK + 7
    worst = 0.0
    for sites, ring in [(s, False) for s in range(1, 11)] + [(s, True) for s in range(2, 11)]:
        z, phi = _reference_angles(samples, sites, sites)
        gap = np.abs(_reference_weight(z, phi, ring) - _trig_values(z, phi, ring))
        bound = _round_off_bound(len(_bond_pairs(sites, ring)))
        assert np.max(gap) <= bound, (sites, ring)
        worst = max(worst, np.max(gap) / bound)
    for mu, nu, length in itertools.product(range(4), range(4), (1, 2, 3, 6)):
        z, phi = _reference_angles(samples, length, 4 * mu + nu)
        values = _reference_overlap_values(mu, nu, z, phi)
        gap = np.abs(values - _trig_values(z, phi, False, modes=(mu, nu)))
        assert np.max(gap) <= _round_off_bound(length - 1), (mu, nu, length)
    # a single site's s_f s_l written 1 - c c in the forms, and the gauge
    # and the signed sums of the spinors, leave the singlet's single-site
    # zero without round-off: both sides are exactly 0 there
    z, phi = _reference_angles(samples, 1, 9)
    assert not np.any(_reference_overlap_values(2, 2, z, phi))
    assert not np.any(_trig_values(z, phi, False, modes=(2, 2)))
    assert worst > 0.0  # the formulas do differ, so the comparison is not vacuous


@pytest.mark.parametrize("workers", WORKERS)
def test_blocks_drawn_in_the_workers_are_the_whole_sample_bitwise(workers, monkeypatch):
    monkeypatch.setattr(sphere_mc, "CPUS", workers)
    draw_rows = sphere_mc._draw_rows
    drawn = []

    def recording(rng, at, rows, samples, sites):
        cos_theta, phi, after = draw_rows(rng, at, rows, samples, sites)
        drawn.append((rows.start, rows.stop, cos_theta, phi))
        return cos_theta, phi, after

    monkeypatch.setattr(sphere_mc, "_draw_rows", recording)
    zeros = lambda cos_theta, phi: np.zeros(len(phi))  # noqa: E731
    for seed, samples, sites in itertools.product(
        (0, 5, 2**40), BLOCK_EDGE_SAMPLES, range(1, 11)
    ):
        drawn.clear()
        sphere_mc._evaluate_blocks(samples, sites, seed, zeros)
        drawn.sort(key=lambda block: block[0])
        starts = [block[0] for block in drawn]
        assert starts == list(range(0, samples, ROW_BLOCK))
        assert drawn[-1][1] == samples
        got_z = np.concatenate([block[2] for block in drawn])
        got_phi = np.concatenate([block[3] for block in drawn])
        want = SphereConfig.sample(np.random.default_rng(seed), samples, sites)
        assert got_z.tobytes() == want.cos_theta.tobytes(), (seed, samples, sites)
        assert got_phi.tobytes() == want.phi.tobytes(), (seed, samples, sites)


def test_config_views_equal_the_reference_arrays():
    samples, sites, seed = ROW_BLOCK + 1, 3, 4
    z, phi = _reference_angles(samples, sites, seed)
    config = SphereConfig.sample(np.random.default_rng(seed), samples, sites)
    s = np.sqrt(1.0 - z * z)
    want = (
        (config.cos_theta, z),
        (config.phi, phi),
        (config.omega, np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)),
        (config.u, np.sqrt((1.0 + z) / 2.0)),
        (config.v, np.sqrt((1.0 - z) / 2.0) * np.exp(-1j * phi)),
    )
    for got, reference in want:
        assert got.dtype == reference.dtype
        assert got.tobytes() == reference.tobytes()


@pytest.mark.parametrize("workers", (1, 2))
def test_norm_memory_peak_is_the_values_plus_one_block_per_worker(workers, monkeypatch):
    # the 8 B per-sample values (0.8 MB here) and, per worker, its block's
    # cos(theta), phi and sin(theta) (3 x 0.33 MB) with as much again for
    # temporaries and its generator; peaks measured 2.15 and 3.50 MB against
    # bounds of 2.77 and 4.73 MB.  Whole angle arrays would add 16 MB.
    monkeypatch.setattr(sphere_mc, "CPUS", workers)
    samples, sites = 100_000, 10
    tracemalloc.start()
    try:
        estimate_vbs_norm(sites - 2, samples=samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = ROW_BLOCK * sites * 8
    assert peak < 8 * samples + workers * 6 * block, peak


def test_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(sphere_mc, "CPUS", 3)
    starts = []
    start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    estimate_vbs_norm(2, samples=ROW_BLOCK)
    estimate_block_overlap(0, 1, 2, samples=ROW_BLOCK)
    assert starts == []
    # two blocks: the calling thread takes one, one more thread the other
    estimate_vbs_norm(2, samples=ROW_BLOCK + 1)
    assert len(starts) == 1


def test_a_failing_block_raises_its_error_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(sphere_mc, "CPUS", 2)
    error = RuntimeError("second block")
    calls = itertools.count()
    bond_product = sphere_mc._bond_product

    def failing(cos_theta, phi, ring):
        if next(calls) == 1:
            raise error
        return bond_product(cos_theta, phi, ring)

    monkeypatch.setattr(sphere_mc, "_bond_product", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        estimate_vbs_norm(4, samples=3 * ROW_BLOCK + 7)
    assert raised.value is error
    assert threading.active_count() == before


def test_a_thread_that_fails_to_start_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(sphere_mc, "CPUS", 3)
    starts = itertools.count()
    start = threading.Thread.start
    error = RuntimeError("can't start new thread")

    def second_start_fails(thread):
        if next(starts) == 1:
            raise error
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", second_start_fails)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        estimate_vbs_norm(4, samples=3 * ROW_BLOCK + 7)
    assert raised.value is error
    assert threading.active_count() == before


def test_many_workers_switching_often_write_every_block_once(monkeypatch):
    # more workers than cores, switching every microsecond: a block skipped
    # (np.empty's garbage) or taken twice would show against the reference
    monkeypatch.setattr(sphere_mc, "CPUS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = estimate_vbs_norm(1, samples=40 * ROW_BLOCK + 3, seed=7)
    finally:
        sys.setswitchinterval(interval)
    assert got == _reference_norm(1, 40 * ROW_BLOCK + 3, 7, ring=False)
