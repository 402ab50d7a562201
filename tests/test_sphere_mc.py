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
    # a zero-variance exact zero; regression guard for the FMA-sensitive
    # product grouping in the amplitude
    est = estimate_block_overlap(2, 2, 1, samples=MIN_SAMPLES, seed=9)
    assert est.mean == 0.0
    assert est.standard_error == 0.0


def test_mode_amplitudes_are_the_sigma_contractions():
    # the signed sums written out in the sampler are phi_f^a SIGMA[mu]_ab phi_l^b
    rng = np.random.default_rng(3)
    first, last = (rng.normal(size=(2, 50)) + 1j * rng.normal(size=(2, 50)) for _ in range(2))
    for mu in range(4):
        want = np.einsum("as,ab,bs->s", first, SIGMA[mu], last)
        got = sphere_mc._mode_amplitude(tuple(first), tuple(last), mu)
        assert np.max(np.abs(got - want)) < 1e-13, mu


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
# row-blocked, threaded estimators must reproduce the one-cosine, real-u
# reference bit for bit.  The trigonometric reference, the estimators as
# first written, is kept as a per-sample cross-check within round-off.

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
    """(1/2) Re(conj(T_mu) T_nu) w with u = cos(theta/2), v = e^(-i phi) sin(theta/2)."""
    u = np.sqrt((1.0 + z) / 2.0)
    v = np.sqrt((1.0 - z) / 2.0) * np.exp(-1j * phi)
    uf, vf, ul, vl = u[:, 0], v[:, 0], u[:, -1], v[:, -1]
    amplitudes = (
        1j * (uf * ul + vf * vl),
        uf * vl + ul * vf,
        1j * (ul * vf - uf * vl),
        uf * ul - vf * vl,
    )
    t_mu, t_nu = amplitudes[mu], amplitudes[nu]
    return 0.5 * (t_mu.real * t_nu.real + t_mu.imag * t_nu.imag) * _reference_weight(z, phi, False)


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
    c, phi and s = sqrt(1 - c^2).
    - A bond's dot product d, |d| <= 1: the trigonometric side rounds
      s cos(phi) and s sin(phi) to 2.5u each, their products to 5.5u and
      the sum of three to 12.5u of the exact d; the one-cosine side rounds
      phi_i - phi_j < 2 pi by at most 2 pi u, which moves its cosine as
      much, and is within 11u.  The factor 1 - d in [0, 2] rounds by u on
      each side: the two factors are within 26u.
    - B factors of at most 2 multiply to at most 2^B; a factor's
      difference moves the product by 26u 2^(B-1), and each of the 2B
      roundings of the products by u 2^(B-1): 14 B 2^B u in all.
    - An overlap's amplitude |T| <= 1 is a sum of two spinor products:
      each spinor component is within 3u of exact, a product within 11u
      and T within 24u, so each side's (1/2) Re(conj(T_mu) T_nu) is within
      25u of exact, and the two values times their weights are within
      (51 + 7 B) 2^B u.
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
    # the gauge and the signed sums change the singlet's single-site zero
    # into no round-off: both sides are exactly 0 there
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
