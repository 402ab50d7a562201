"""Tests of the exact-contraction oracle: state construction, Hamiltonian
properties, correlators, and the entanglement reports used to cross-check
every closed form."""

import math
import re
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from vbsent import effective_rho as er
from vbsent.linalg import (
    SpectrumReport,
    hermitian_eigvals,
    partial_transpose,
    reduced_density,
    spectrum_report,
)
from vbsent.mps_oracle import (
    AKLT_TENSORS,
    LEFT_BOUNDARY,
    MAX_BULK_SITES,
    RIGHT_BOUNDARY,
    StateVector,
    _mps_products,
    _real,
    apply_hamiltonian,
    bond_projector,
    boundary_projector,
    build_open_chain,
    build_ring,
    dense_hamiltonian,
    entanglement_report,
    hamiltonian_residual,
    injectivity_defect,
    layout_spectra,
    pure_block_pt_spectrum,
    spin_correlation,
    zero_energy_degeneracy,
)


# ------------------------------------------------------------ state shape


def test_open_chain_layout():
    state = build_open_chain(3)
    assert state.site_dims == (2, 3, 3, 3, 2)
    assert not state.is_ring
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_ring_layout():
    state = build_ring(4)
    assert state.site_dims == (3, 3, 3, 3)
    assert state.is_ring
    with pytest.raises(ValueError, match="neither a chain"):
        StateVector(np.ones(3), (3,), 1.0).is_ring
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_ring_raw_norm_formula():
    # squared pre-normalization norm is exactly 1 + 3 (-1/3)^N in the
    # tensor convention used here
    for n in (3, 4, 5, 6):
        got = build_ring(n).raw_norm ** 2
        assert got == pytest.approx(1.0 + 3.0 * (-1 / 3.0) ** n, rel=1e-12)


def test_builders_equal_the_explicit_contractions():
    # the builders read AKLT_TENSORS through the range builder's products;
    # the contractions they replaced are the reference, bit for bit
    for n in range(1, 7):
        g = LEFT_BOUNDARY
        for _ in range(n):
            g = np.einsum("...a,mab->...mb", g, AKLT_TENSORS)
        amp = np.einsum("...a,ab->...b", g, RIGHT_BOUNDARY).reshape(-1)
        assert build_open_chain(n).amplitudes.tobytes() == (amp / np.linalg.norm(amp)).tobytes()
    for n in range(2, 7):
        g = AKLT_TENSORS
        for _ in range(n - 1):
            g = np.einsum("...ab,mbc->...mac", g, AKLT_TENSORS)
        amp = np.trace(g, axis1=-2, axis2=-1).reshape(-1)
        assert build_ring(n).amplitudes.tobytes() == (amp / np.linalg.norm(amp)).tobytes()


def test_size_guard():
    with pytest.raises(ValueError, match="open chain needs"):
        build_open_chain(MAX_BULK_SITES + 1)
    with pytest.raises(ValueError, match="ring"):
        build_ring(1)


def test_tensors_injective():
    assert injectivity_defect() == 0.0
    # the three physical slices span the full 2x2 transfer space
    flat = AKLT_TENSORS.reshape(3, 4)
    assert np.linalg.matrix_rank(flat) == 3


# ------------------------------------------------------------- Hamiltonian


def test_bond_projector_is_projector():
    p = bond_projector()
    assert np.max(np.abs(p @ p - p)) < 1e-14
    assert np.max(np.abs(p - p.conj().T)) < 1e-14
    assert np.trace(p).real == pytest.approx(5.0, abs=1e-12)  # spin-2 multiplet
    assert bond_projector() is p and not p.flags.writeable  # cached, read-only


def test_boundary_projector_is_projector():
    for side in ("left", "right"):
        p = boundary_projector(side)
        assert np.max(np.abs(p @ p - p)) < 1e-14
        assert np.trace(p).real == pytest.approx(4.0, abs=1e-12)  # spin-3/2
        assert boundary_projector(side) is p and not p.flags.writeable
    with pytest.raises(ValueError):
        boundary_projector("top")


def test_open_chain_zero_energy():
    for n in range(1, 7):
        assert hamiltonian_residual(build_open_chain(n)) < 1e-12


def test_ring_zero_energy():
    for n in range(3, 7):
        assert hamiltonian_residual(build_ring(n)) < 1e-12


def test_ground_state_unique_small_sizes():
    for n in range(1, 5):
        dims = (2,) + (3,) * n + (2,)
        assert zero_energy_degeneracy(dims) == 1


def test_dense_hamiltonian_equals_column_by_column_application():
    for dims in ((2, 3, 3, 2), (2, 3, 3, 3, 2), (3, 3, 3, 3)):
        dim = math.prod(dims)
        reference = np.zeros((dim, dim), dtype=complex)
        for k in range(dim):
            unit = np.zeros(dim, dtype=complex)
            unit[k] = 1.0
            reference[:, k] = apply_hamiltonian(StateVector(unit, dims, 1.0))
        assert np.array_equal(dense_hamiltonian(dims), reference)


def test_dense_hamiltonian_is_built_from_the_real_projectors():
    for p in (bond_projector(), boundary_projector("left"), boundary_projector("right")):
        assert not np.any(p.imag)
    assert dense_hamiltonian((2, 3, 3, 2)).dtype == np.float64
    # a projector with an imaginary part is refused, not truncated
    with pytest.raises(RuntimeError, match="not real: imaginary part up to 1.000e-20"):
        _real(bond_projector() + 1e-20j)


def test_dense_hamiltonian_psd():
    h = dense_hamiltonian((2, 3, 3, 2))
    vals = np.linalg.eigvalsh(h)
    assert vals.min() > -1e-13


# ------------------------------------------------------------- correlators


def test_zz_nearest_neighbor():
    state = build_open_chain(5)
    # bulk sites are 1..5 in chain indexing
    for i in (2, 3):
        assert spin_correlation(state, i, i + 1) == pytest.approx(
            -4.0 / 9.0, abs=1e-12
        )


def test_zz_next_nearest():
    state = build_open_chain(6)
    assert spin_correlation(state, 2, 4) == pytest.approx(4.0 / 27.0, abs=1e-12)
    assert spin_correlation(state, 3, 5) == pytest.approx(4.0 / 27.0, abs=1e-12)


def test_zz_same_site():
    state = build_open_chain(4)
    assert spin_correlation(state, 2, 2) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_zz_boundary_site_warns():
    state = build_open_chain(2)
    with pytest.warns(UserWarning, match="boundary spin-1/2"):
        spin_correlation(state, 0, 1)


def test_correlation_index_range():
    state = build_open_chain(2)
    with pytest.raises(IndexError):
        spin_correlation(state, 1, 9)


# ------------------------------------------------------ entanglement data


def test_reduced_block_density_trace():
    state = build_open_chain(4)
    rho = reduced_density(state.amplitudes, state.site_dims, [1, 2])
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-13)
    assert rho.site_dims == (3, 3)


def test_single_site_block_spectrum():
    state = build_open_chain(5)
    rho = reduced_density(state.amplitudes, state.site_dims, [2])
    vals = np.sort(np.real(hermitian_eigvals(rho)))
    assert vals == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-13)


def test_entanglement_report_bond_cut():
    state = build_open_chain(3)
    left = [0, 1]
    right = [2, 3, 4]
    block, pt = entanglement_report(state, left, right)
    assert block.trace == pytest.approx(1.0, abs=1e-12)
    assert pt.negativity == pytest.approx(0.5, abs=1e-12)
    nonzero = [v for v in pt.eigenvalues if abs(v) > 1e-12]
    assert sorted(nonzero) == pytest.approx([-0.5, 0.5, 0.5, 0.5], abs=1e-12)


def test_entanglement_report_rejects_overlap():
    state = build_open_chain(2)
    with pytest.raises(ValueError, match="overlap"):
        entanglement_report(state, [0, 1], [1, 2])


def test_entanglement_report_rejects_sites_outside_the_chain():
    state = build_ring(4)
    for a in ([4], [-1]):
        with pytest.raises(IndexError, match="out of range for 4 sites"):
            entanglement_report(state, a, [1])


def _one_block(state, block) -> SpectrumReport:
    """The block's spectrum: an entanglement_report with an empty block B."""
    return entanglement_report(state, block, ())[0]


def test_one_block_spectrum_normalized():
    lams = _one_block(build_open_chain(4), [0, 1, 2]).eigenvalues
    assert math.fsum(lams) == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.diff(lams) >= 0)


def test_pure_block_pt_rejects_trivial_cut():
    for state in (build_open_chain(2), build_ring(3)):
        for block in ([], range(len(state.site_dims))):
            with pytest.raises(ValueError, match="proper nonempty subset"):
                pure_block_pt_spectrum(state, block)


def test_pure_pt_schmidt_route_matches_dense():
    # brute force cross-check of the Schmidt-side formula at small sizes
    for n in (2, 3, 4):
        state = build_open_chain(n)
        block = list(range(0, 1 + n // 2))
        rest = [s for s in range(n + 2) if s not in block]
        fast = pure_block_pt_spectrum(state, block)
        _, dense = entanglement_report(state, block, rest)
        dense_nonzero = sorted(v for v in dense.eigenvalues if abs(v) > 1e-12)
        fast_nonzero = sorted(v for v in fast.eigenvalues if abs(v) > 1e-12)
        assert fast_nonzero == pytest.approx(dense_nonzero, abs=1e-12)
        assert fast.negativity == pytest.approx(dense.negativity, abs=1e-12)


def test_pure_pt_spectrum_drops_noise_rank():
    # a bulk block has two cut surfaces, so rank 4: exactly
    # 4 + 2 * C(4,2) = 16 nonzero levels, never phantom sqrt(eps * l)
    # pairs seeded by noise-level Schmidt values
    state = build_open_chain(6)
    rep = pure_block_pt_spectrum(state, [2, 3, 4])
    nonzero = [v for v in rep.eigenvalues if v != 0.0]
    assert len(nonzero) == 16


def test_pure_pt_single_cut_has_rank_two():
    # including the boundary spin leaves one cut surface: rank 2, four
    # nonzero levels {l1, l2, +sqrt(l1 l2), -sqrt(l1 l2)}
    state = build_open_chain(6)
    rep = pure_block_pt_spectrum(state, [0, 1, 2, 3])
    nonzero = sorted(v for v in rep.eigenvalues if v != 0.0)
    assert nonzero == pytest.approx([-0.5, 0.5, 0.5, 0.5], abs=1e-12)


def _one_block_cases():
    # every contiguous block of open chains, end spins included, blocks of
    # rings, a block of two runs, one wrapping past site 0, a phased state
    for n in range(1, 7):
        state = build_open_chain(n)
        for start, stop in combinations(range(n + 3), 2):
            if stop - start <= n + 1:
                yield state, list(range(start, stop))
    for n in range(2, 8):
        for length in range(1, n):
            yield build_ring(n), list(range(length))
    yield build_open_chain(4), [1, 3, 4]
    yield build_ring(6), [5, 0, 1]
    ring = build_ring(5)
    yield StateVector(np.exp(0.7j) * ring.amplitudes, ring.site_dims, 1.0), [1, 2]


def test_one_block_route_matches_dense_reduced_density():
    for state, block in _one_block_cases():
        rho = reduced_density(state.amplitudes, state.site_dims, block)
        dense = np.clip(hermitian_eigvals(rho)[::-1], 0.0, None)
        lams = _one_block(state, block).eigenvalues
        # the support only: the dense values past it are checked against 0
        assert len(lams) <= len(dense)
        assert _padded(lams, len(dense)) == pytest.approx(np.sort(dense), abs=1e-13)
        # the transpose of a pure state from the dense Schmidt values
        kept = dense[dense > 1e-12]
        roots = [math.sqrt(a * b) for a, b in combinations(kept, 2)]
        expected = np.sort(np.concatenate([kept, roots, np.negative(roots)]))
        pt = pure_block_pt_spectrum(state, block).eigenvalues
        assert len(pt) == len(expected)
        assert pt == pytest.approx(expected, abs=1e-13)


def test_one_block_route_takes_only_the_ground_state():
    admixed = _admixed_ring(2.45e-12)
    for fn in (_one_block, pure_block_pt_spectrum):
        with pytest.raises(ValueError, match="miss weight 2.45"):
            fn(admixed, [0, 1])
        for block in ([5, 6], [0, 1, 2, 3, 4, 9]):
            with pytest.raises(IndexError, match="out of range for 6 sites"):
                fn(build_ring(6), block)


def _contiguous_pairs(n_sites: int, ring: bool):
    """Every placement of two disjoint contiguous blocks A, B.

    On a ring, A starts at site 0 and the two gaps may be empty; on an
    open chain the boundary spins are ordinary sites of the placement.
    """
    for la, lb in product(range(1, n_sites), repeat=2):
        for gap in range(n_sites - la - lb + 1):
            starts = [0] if ring else range(n_sites - la - gap - lb + 1)
            for start in starts:
                b0 = start + la + gap
                yield list(range(start, start + la)), list(range(b0, b0 + lb))


def test_dense_pt_of_reduced_density_matches_report():
    # the compressed report against the dense composition it replaces
    cases = [
        (build_open_chain(n), a, b)
        for n in range(1, 5)
        for a, b in _contiguous_pairs(n + 2, ring=False)
    ]
    cases += [
        (build_ring(n), a, b)
        for n in range(2, 7)
        for a, b in _contiguous_pairs(n, ring=True)
    ]
    cases.append((build_open_chain(4), [1, 3], [4, 5]))  # non-contiguous A
    cases.append((build_ring(6), [5, 0, 1], [3]))  # A wraps past site 0
    ring = build_ring(5)
    # a global phase makes the amplitudes complex and stays in the MPS span
    phased = StateVector(np.exp(0.7j) * ring.amplitudes, ring.site_dims, 1.0)
    cases.append((phased, [0, 1], [3, 4]))
    for state, a, b in cases:
        _assert_report_matches_dense(state, a, b, 1e-13)
    # a z rotation by a different angle on every site keeps every block
    # rank but takes the state off the chain's matrix products
    m = np.array([1.0, 0.0, -1.0])
    angle = sum(0.4 * (s + 1) * m.reshape((3,) + (1,) * (4 - s)) for s in range(5))
    rotated = ring.amplitudes * np.exp(1j * angle).reshape(-1)
    with pytest.raises(ValueError, match="miss weight"):
        entanglement_report(StateVector(rotated, ring.site_dims, 1.0), [0, 1], [3, 4])


def _assert_report_matches_dense(state, a, b, tol, pt_tol=None):
    block_rep, pt_rep = entanglement_report(state, a, b)
    kept = sorted(a + b)
    rho = reduced_density(state.amplitudes, state.site_dims, kept)
    pt = partial_transpose(rho, [kept.index(s) for s in a])
    for rep, dense, bound in ((block_rep, rho, tol), (pt_rep, pt, pt_tol or tol)):
        direct = np.sort(np.real(hermitian_eigvals(dense)))
        # the support only: the dense values past it are checked against 0
        assert len(rep.eigenvalues) <= len(direct)
        assert _padded(rep.eigenvalues, len(direct)) == pytest.approx(direct, abs=bound)


def _admixed_ring(weight: float) -> StateVector:
    # the all-(m=+1) basis state is orthogonal to the S_z = 0 ground state
    # and outside the range of every run of two or more sites
    ring = build_ring(6)
    up = np.zeros_like(ring.amplitudes)
    up[0] = 1.0
    amps = math.sqrt(1.0 - weight) * ring.amplitudes + math.sqrt(weight) * up
    return StateVector(amps, ring.site_dims, 1.0)


def test_report_rejects_lost_weight():
    with pytest.raises(ValueError, match="miss weight 2.45"):
        entanglement_report(_admixed_ring(2.45e-12), [0, 1], [3, 4])
    # below the guard the report drops the admixture: the block spectrum
    # moves by about the dropped weight, within the guard's 1e-12, and the
    # dense transpose by the admixture's cross terms, ~sqrt(weight)
    weight = 5e-13
    state = _admixed_ring(weight)
    _assert_report_matches_dense(state, [0, 1], [3, 4], 1e-12, 2 * math.sqrt(weight))
    # a layout that is neither a chain nor a ring fails before any contraction
    state = StateVector(np.eye(50).reshape(-1) / math.sqrt(50), (50, 50), 1.0)
    with pytest.raises(ValueError, match=r"site dims \(50, 50\)"):
        entanglement_report(state, [0], [1])


def test_report_matches_dense_for_blocks_of_several_runs():
    # verify asks only for contiguous blocks; here each block is any set of
    # sites: several runs, end spins, ring runs past site 0, either order
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    @st.composite
    def partitions(draw):
        ring = draw(st.booleans())
        n = draw(st.integers(2, 7)) if ring else draw(st.integers(1, 6))
        state = _cached_state(ring, n)
        size = len(state.site_dims)
        labels = draw(st.lists(st.sampled_from("AB-"), min_size=size, max_size=size))
        a = [s for s, label in enumerate(labels) if label == "A"]
        b = [s for s, label in enumerate(labels) if label == "B"]
        # the dense composition diagonalizes the whole kept space
        assume(a and b and math.prod(state.site_dims[s] for s in a + b) <= 729)
        return state, a, b

    @settings(max_examples=60, deadline=None)
    @given(partitions())
    def check(partition):
        _assert_report_matches_dense(*partition, 1e-13)

    check()


@lru_cache(maxsize=None)
def _cached_state(ring: bool, n: int):
    return build_ring(n) if ring else build_open_chain(n)


def _padded(values, size: int) -> np.ndarray:
    return np.sort(np.concatenate([values, np.zeros(size - len(values))]))


def test_report_matches_mode_operator_at_any_placement():
    # verify and the acceptance tests put ring arc C at site 0 and block A
    # first; here rings are rotated and the blocks swapped at random
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def placements(draw):
        ring = draw(st.booleans())
        n = draw(st.integers(2, MAX_BULK_SITES))
        la = draw(st.integers(1, n - 1))
        lb = draw(st.integers(1, n - la))
        gap = draw(st.integers(0, n - la - lb))
        if ring:
            ld = n - la - lb - gap
            rot = draw(st.integers(0, n - 1))
            a = [(rot + gap + j) % n for j in range(la)]
            b = [(rot + gap + la + ld + j) % n for j in range(lb)]
            if draw(st.booleans()):
                a, b = b, a
            op = er.rho_ab_pbc(la, lb, gap, ld)
            return _cached_state(True, n), a, b, op, gap >= 1 and ld >= 1
        offset = draw(st.integers(0, n - la - lb - gap))
        # bulk sites are 1..n, after the boundary spin at site 0
        a = [1 + offset + j for j in range(la)]
        b = [1 + offset + la + gap + j for j in range(lb)]
        op = er.rho_ab_open(la, gap, lb) if gap else er.rho_ab_adjacent(la, lb)
        return _cached_state(False, n), a, b, op, gap >= 1

    @settings(max_examples=60, deadline=None)
    @given(placements())
    def check(placement):
        state, a, b, op, gaps_apart = placement
        block, pt = entanglement_report(state, a, b)
        mode = op.spectrum().eigenvalues
        size = max(len(mode), len(block.eigenvalues))
        worst = np.max(np.abs(_padded(block.eigenvalues, size) - _padded(mode, size)))
        assert worst <= 1e-10
        if gaps_apart:
            assert min(pt.eigenvalues) >= -1e-12

    check()


def test_layout_spectra_match_mode_operator_at_any_length():
    # the layout entry needs no state, so it reaches lengths far past
    # MAX_BULK_SITES, including those >= 679 where z = (-1/3)^L underflows
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    length = st.integers(1, 10**6)

    @st.composite
    def layouts(draw):
        if draw(st.booleans()):
            la, lb = draw(length), draw(length)
            lc, ld = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
            runs = [(True, lc, la), (False, lc + la + ld, lb)]
            if draw(st.booleans()):
                # the walk starts at arc D, so block B's run comes first
                runs = [(False, ld, lb), (True, ld + lb + lc, la)]
            return la + lb + lc + ld, True, runs, er.rho_ab_pbc(la, lb, lc, ld)
        la, gap, lb = draw(length), draw(st.integers(0, 10**6)), draw(length)
        left, right = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        runs = [(True, 1 + left, la), (False, 1 + left + la + gap, lb)]
        op = er.rho_ab_open(la, gap, lb) if gap else er.rho_ab_adjacent(la, lb)
        return left + la + gap + lb + right, False, runs, op

    @settings(max_examples=80, deadline=None)
    @given(layouts())
    @example((679 + 1 + 680, False, [(True, 1, 1), (False, 681, 680)],
              er.rho_ab_open(1, 679, 680)))
    @example((3000, False, [(True, 1, 1000), (False, 2001, 1000)],
              er.rho_ab_open(1000, 1000, 1000)))
    @example((1000, False, [(True, 1, 699), (False, 700, 301)], er.rho_ab_adjacent(699, 301)))
    def check(layout):
        n_bulk, ring, runs, op = layout
        block, pt = layout_spectra(n_bulk, ring, runs)
        mode_pt = hermitian_eigvals(er.mode_partial_transpose(op).normalized)
        for got, mode in ((block.eigenvalues, op.spectrum().eigenvalues), (pt.eigenvalues, mode_pt)):
            size = max(len(got), len(mode))
            worst = np.max(np.abs(_padded(got, size) - _padded(mode, size)))
            assert worst <= 1e-10

    check()


def test_layout_spectra_reject_malformed_runs():
    # overlapping runs would bridge with E^-3, which matrix_power inverts;
    # an empty run, runs past a chain's or a ring's end and a run before
    # position 0 would still give a normalized spectrum
    cases = (
        (5, False, [(True, 3, 2), (False, 2, 1)], 1, "starts before position 5"),
        (5, False, [(True, 3, 2), (False, 6, 3)], 1, "ends past the 7 positions of the chain"),
        (5, False, [(True, 3, 0), (False, 6, 1)], 0, "is shorter than 1 site"),
        (4, True, [(True, 3, 3)], 0, "ends past the 4 positions of the ring"),
        (5, False, [(True, -1, 2), (False, 3, 1)], 0, "starts before position 0"),
    )
    for n_bulk, ring, runs, bad, message in cases:
        with pytest.raises(ValueError, match=re.escape(f"run {runs[bad]} {message}")):
            layout_spectra(n_bulk, ring, runs)


def test_empty_layout_reports_the_one_value_spectrum():
    # no kept site leaves the scalar trace of the normalized state, 1
    one = spectrum_report([1.0])
    assert one.eigenvalues == (1.0,)
    for n_bulk, ring in ((5, False), (4, True)):
        assert layout_spectra(n_bulk, ring, []) == (one, one)
    for state in (build_open_chain(3), build_ring(4)):
        assert entanglement_report(state, (), ()) == (one, one)


def test_reports_hold_only_the_support(monkeypatch):
    # a two-block report of 12 kept sites, and a Schmidt spectrum of 7,
    # list at most 16 and 4 values, not one per basis state of the block
    state = build_open_chain(12)
    for a, b in ((range(1, 7), range(7, 13)), (range(0, 7), range(7, 14))):
        dims = _recorded_eigensolves(monkeypatch)
        block, pt = entanglement_report(state, a, b)
        assert len(block.eigenvalues) <= 16 and len(pt.eigenvalues) <= 16
        assert len(dims) <= 2 and max(dims) <= 16
    dims = _recorded_eigensolves(monkeypatch)
    assert len(_one_block(state, range(0, 7)).eigenvalues) <= 4
    assert len(dims) <= 2 and max(dims) <= 16


def _recorded_eigensolves(monkeypatch) -> list[int]:
    """The dimension of every matrix the oracle diagonalizes from now on."""
    import vbsent.mps_oracle as mo

    dims = []

    def recording(op):
        dims.append(np.shape(op)[0])
        return hermitian_eigvals(op)

    monkeypatch.setattr(mo, "hermitian_eigvals", recording)
    return dims


def test_one_run_per_block_report_solves_at_most_16x16(monkeypatch):
    # the report's cost is set by the runs' ranks, not by the chain's length
    dims = _recorded_eigensolves(monkeypatch)
    open_chain, ring = build_open_chain(12), build_ring(12)
    for state, a, b in (
        (open_chain, [1], [3]),
        (open_chain, [0, 1, 2], [9, 10, 11, 12, 13]),
        (open_chain, [2, 3, 4, 5], [6, 7, 8]),
        (ring, [11, 0, 1], [5, 6]),
        (ring, list(range(6)), list(range(6, 12))),
    ):
        entanglement_report(state, a, b)
    assert len(dims) == 10 and max(dims) == 16


def test_one_block_of_a_long_chain_solves_at_most_16x16(monkeypatch):
    # a Schmidt spectrum is one report, not the block's 3^l-square density
    dims = _recorded_eigensolves(monkeypatch)
    open_chain, ring = build_open_chain(12), build_ring(12)
    blocks = (
        (open_chain, [0, 1, 2]),
        (open_chain, [3, 4, 5, 6, 7]),
        (open_chain, list(range(1, 13))),
        (ring, [10, 11, 0, 1]),
    )
    for state, block in blocks:
        pure_block_pt_spectrum(state, block)
    # one eigensolve each: with block B empty the transpose has sigma's spectrum
    assert len(dims) == len(blocks) and max(dims) <= 16


def test_geometry_oracles_at_a_billion_sites_solve_twice_at_most_16x16(monkeypatch):
    # the table's oracle reads the layout, so its cost is set by the runs' ranks
    from vbsent.geometry import GEOMETRIES

    for name, params in (
        ("disjoint", dict(la=10**9, gap=3, lb=10**9)),
        ("pbc", dict(la=10**9, lb=10**9, lc=3, ld=5)),
    ):
        dims = _recorded_eigensolves(monkeypatch)
        GEOMETRIES[name].oracle(**params)
        assert len(dims) == 2 and max(dims) <= 16


def test_report_reads_the_state_only_when_it_is_not_the_cached_ground_state(monkeypatch):
    ground = build_open_chain(6)
    vdot = np.vdot
    reads = []

    def counted(a, b):
        reads.append(1)
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", counted)
    expected = entanglement_report(ground, [1, 2], [5, 6])
    assert reads == []
    copy = ground.amplitudes.copy()
    assert copy.flags.writeable
    for amps in (copy, np.exp(0.7j) * ground.amplitudes):
        reads.clear()
        report = entanglement_report(StateVector(amps, ground.site_dims, 1.0), [1, 2], [5, 6])
        assert report == expected and len(reads) == 2
    perturbed = copy.copy()
    perturbed[0] += 1e-3
    perturbed /= np.linalg.norm(perturbed)
    with pytest.raises(ValueError, match="miss weight"):
        entanglement_report(StateVector(perturbed, ground.site_dims, 1.0), [1, 2], [5, 6])


def test_report_rejects_states_in_every_run_range_but_not_the_ground_state():
    # another right boundary vector keeps every amplitude an entry of each
    # run's matrix product, so the state lies in every run's range; it is
    # not the ground state, and the report reads only the ground state
    other_right = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    g = LEFT_BOUNDARY
    for _ in range(5):
        g = np.einsum("...a,mab->...mb", g, AKLT_TENSORS)
    amp = np.einsum("...a,ab->...b", g, other_right).reshape(-1)
    state = StateVector(amp / np.linalg.norm(amp), build_open_chain(5).site_dims, 1.0)
    assert hamiltonian_residual(state) > 0.1
    runs = [[1, 2], [4, 5]]
    arr = state.array
    for run in runs:
        products = _mps_products(len(run), False, False)
        q = np.linalg.qr(products.reshape(products.shape[0], -1))[0]
        rest = [s for s in range(7) if s not in run]
        phi = arr.transpose(run + rest).reshape(q.shape[0], -1)
        assert np.linalg.norm(q.conj().T @ phi) ** 2 == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="miss weight"):
        entanglement_report(state, *runs)
