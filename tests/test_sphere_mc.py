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


# ------------------------------------------------ whole-array reference
# The estimators as first written: every derived array built eagerly over
# all samples at once, the bond dot product summed over a stacked component
# axis.  Row-blocked evaluation must reproduce them bit for bit.


def _reference_angles(samples, sites, seed):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=(samples, sites))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(samples, sites))
    sin_theta = np.sqrt(1.0 - z * z)
    omega = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), z], axis=-1)
    u = np.exp(0.5j * phi) * np.sqrt((1.0 + z) / 2.0)
    v = np.exp(-0.5j * phi) * np.sqrt((1.0 - z) / 2.0)
    return omega, u, v


def _reference_weight(omega, ring):
    sites = omega.shape[1]
    pairs = [(i, i + 1) for i in range(sites - 1)] + ([(sites - 1, 0)] if ring else [])
    weight = np.ones(omega.shape[0])
    for i, j in pairs:
        weight = weight * (1.0 - np.sum(omega[:, i] * omega[:, j], axis=-1))
    return weight


def _reference_estimate(values, samples, seed):
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(samples))
    return McEstimate(mean=mean, standard_error=se, samples=samples, seed=seed)


def _reference_norm(n_bulk, samples, seed, ring):
    omega, _, _ = _reference_angles(samples, n_bulk if ring else n_bulk + 2, seed)
    return _reference_estimate(_reference_weight(omega, ring), samples, seed)


def _reference_overlap(mu, nu, length, samples, seed):
    omega, u, v = _reference_angles(samples, length, seed)

    def amplitude(m):
        uf, vf, ul, vl = u[:, 0], v[:, 0], u[:, -1], v[:, -1]
        s = SIGMA[m]
        return (
            s[0, 0] * (uf * ul)
            + s[0, 1] * (uf * vl)
            + s[1, 0] * (ul * vf)
            + s[1, 1] * (vf * vl)
        )

    values = 0.5 * np.real(np.conj(amplitude(mu)) * amplitude(nu))
    values = values * _reference_weight(omega, ring=False)
    return _reference_estimate(values, samples, seed)


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


def test_config_views_equal_the_reference_arrays():
    omega, u, v = _reference_angles(ROW_BLOCK + 1, 3, 4)
    config = SphereConfig.sample(np.random.default_rng(4), ROW_BLOCK + 1, 3)
    for got, want in ((config.omega, omega), (config.u, u), (config.v, v)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", (1, 2))
def test_norm_memory_peak_is_the_angles_plus_one_block(workers, monkeypatch):
    # 16 B per sample-site of angles (16 MB here), the 8 B per-sample values
    # and one block of temporaries per worker; the eager arrays took 112 MB
    monkeypatch.setattr(sphere_mc, "CPUS", workers)
    tracemalloc.start()
    try:
        estimate_vbs_norm(8, samples=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24e6, peak


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
