"""The verify battery's row layout and the suite-call contract.

The rows are pinned literally: a suite that silently dropped, renamed,
reordered or re-bounded a check would change what `vbsent verify` claims
without failing any value.
"""

import contextlib
import io
import math
from types import SimpleNamespace

import pytest

from vbsent import closed_forms as cf
from vbsent import effective_rho as er
from vbsent import mps_oracle as mo
from vbsent import verify as vf
from vbsent.cli import main

ROWS = [
    ("sigma-identities", "bilinear completeness", 0.0),
    ("sigma-identities", "2-bond contraction identity", 0.0),
    ("sigma-identities", "3-bond contraction identity", 0.0),
    ("sigma-identities", "4-bond contraction identity", 0.0),
    ("sigma-identities", "sigma2 conjugation parity", 0.0),
    ("sigma-identities", "pair trace orthogonality", 0.0),
    ("sigma-identities", "calibrated four-trace closed form", 0.0),
    ("sigma-identities", "rotation-generator commutators", 0.0),
    ("sigma-identities", "M tensor: traces vs closed form", 0.0),
    ("pure-bipartition", "block spectrum vs channel weights", 1e-12),
    ("pure-bipartition", "transpose spectrum vs closed form", 1e-10),
    ("pure-bipartition", "negativity 1 at single-site block", 1e-12),
    ("bond-cut", "transpose spectrum (1/2 x3, -1/2)", 1e-12),
    ("bond-cut", "negativity 1/2", 1e-12),
    ("bond-cut", "schmidt route equals transfer-oracle transpose", 1e-10),
    ("bond-cut", "closed form row", 0.0),
    ("disjoint-blocks", "polynomial roots vs mode spectrum", 1e-10),
    ("disjoint-blocks", "mode spectrum vs transfer oracle", 1e-10),
    ("disjoint-blocks", "anchor point (1,1,1)", 1e-10),
    ("disjoint-blocks", "independence from surroundings", 1e-10),
    ("disjoint-blocks", "three-block contraction identity", 1e-15),
    ("open-transpose", "mode transpose min eigenvalue", 1e-12),
    ("open-transpose", "transfer-oracle transpose min eigenvalue", 1e-12),
    ("open-transpose", "transpose equals sign-flipped gap", 0.0),
    ("adjacent-blocks", "negativity vs transfer oracle", 1e-10),
    ("adjacent-blocks", "transpose spectrum vs z=-1 polynomials", 1e-10),
    ("adjacent-blocks", "equal-blocks radical formula", 1e-12),
    ("adjacent-blocks", "sine-form root is the cubic minimum", 1e-12),
    ("ring-blocks", "mode spectrum vs ring oracle", 1e-10),
    ("ring-blocks", "mode transpose min eigenvalue", 1e-12),
    ("ring-blocks", "transfer-oracle transpose min eigenvalue", 1e-12),
    ("ring-blocks", "mixture weights within [0,1]", 0.0),
    ("ring-blocks", "mixture weights sum to 1", 1e-15),
    ("hamiltonian", "open-chain energy", 1e-12),
    ("hamiltonian", "ring energy", 1e-12),
    ("hamiltonian", "kernel dimension 1 (N<=4)", 0.0),
    ("hamiltonian", "tensor completeness", 0.0),
    ("hamiltonian", "ring norm 1 + 3 z(N)", 1e-12),
    ("correlations", "z-z correlator law (all bulk pairs)", 1e-10),
    ("mutual-information", "I = 4 ln 2 - S identity", 1e-12),
    ("mutual-information", "I(0) = 0", 0.0),
    ("mutual-information", "finite blocks vs limit at gap 1", 0.01),
    ("mutual-information", "finite blocks vs limit at gap 2", 0.002),
    ("end-blocks", "spectrum equals middle-length weights", 1e-10),
    ("end-blocks", "one-sided transpose spectrum", 1e-10),
    ("monte-carlo", "norm, open chain N=1", 4.0),
    ("monte-carlo", "norm, open chain N=4", 4.0),
    ("monte-carlo", "ring partition N=3", 4.0),
    ("monte-carlo", "diagonal overlaps", 4.0),
    ("monte-carlo", "off-diagonal overlaps vanish", 4.0),
    ("monte-carlo", "sign discrimination rejects the minus reading", 0.0),
    ("monte-carlo", "determinism of reruns", 0.0),
]


@pytest.mark.parametrize("max_sites", [4, 8])
def test_battery_rows_are_pinned(max_sites):
    rows = vf.run_suites(max_sites=max_sites, samples=1000)
    assert [(r.suite, r.name, r.bound) for r in rows] == ROWS


@pytest.mark.parametrize("name", list(vf.SUITES))
def test_each_suite_returns_its_rows_eagerly(name):
    # the tracer times each SUITES entry's call, so the call must do the work
    rows = vf.SUITES[name](max_sites=4, tol=1e-10, samples=1000, seed=7)
    assert type(rows) is list and rows
    assert all(isinstance(r, vf.CheckResult) and r.suite == name for r in rows)


def _counted_layout_calls(monkeypatch) -> list:
    calls = []
    real = mo.layout_spectra

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mo, "layout_spectra", counted)
    return calls


@pytest.mark.parametrize(
    "name, max_sites, reports",
    [
        ("disjoint-blocks", 8, 21),  # 20 grid cases and the independence check
        ("open-transpose", 8, 20),
        ("adjacent-blocks", 8, 9),
        ("ring-blocks", 8, 70),  # every ring of 4 to 8 sites cut into four arcs
        ("ring-blocks", 4, 1),
        # one Schmidt solve per cut: the transpose rows reuse its values
        ("pure-bipartition", 8, 44),
    ],
)
def test_two_block_suites_keep_their_case_grids(monkeypatch, name, max_sites, reports):
    # one layout contraction per case, through the geometry table's oracle
    # or entanglement_report, so a grid that shrinks fails here
    calls = _counted_layout_calls(monkeypatch)
    rows = vf.SUITES[name](max_sites=max_sites, tol=1e-10)
    assert all(r.passed for r in rows)
    assert len(calls) == reports


def test_open_transpose_builds_its_grid_in_two_stacks(monkeypatch):
    # the mode rows read two report stacks of the 20-point grid; the
    # sign-flip row swaps the coefficients and builds no operator
    sizes = []
    real = er.open_stack

    def counted(block_a, gap, block_b):
        sizes.append(len(block_a))
        return real(block_a, gap, block_b)

    monkeypatch.setattr(er, "open_stack", counted)
    rows = vf.SUITES["open-transpose"](max_sites=8, tol=1e-10)
    assert all(r.passed for r in rows)
    assert sorted(sizes) == [4, 16]


@pytest.mark.parametrize("max_sites", [8, 12])
def test_only_the_state_claims_build_a_dense_state(monkeypatch, max_sites):
    # the oracle rows read block layouts; a dense state is built only by
    # the suites whose claim is about the state itself
    def no_state(n_bulk):
        raise AssertionError(f"a dense state of {n_bulk} bulk sites was built")

    monkeypatch.setattr(mo, "build_open_chain", no_state)
    monkeypatch.setattr(mo, "build_ring", no_state)
    for name in [n for n in vf.SUITES if n not in ("hamiltonian", "correlations")]:
        rows = vf.SUITES[name](max_sites=max_sites, tol=vf.TOL, samples=vf.SAMPLES, seed=vf.SEED)
        assert rows and all(r.passed for r in rows), name


def test_empty_suite_list_is_rejected():
    # a battery that checks nothing must not pass
    with pytest.raises(ValueError, match=r"no suites; available: \['adjacent-blocks'"):
        vf.run_suites([])


def test_nan_deviation_fails_its_row(monkeypatch):
    nan_spectrum = SimpleNamespace(eigenvalues=(math.nan,) * 16)
    monkeypatch.setattr(cf, "disjoint_spectrum", lambda *_: nan_spectrum)
    rows = {r.name: r for r in vf.run_suites(["disjoint-blocks"])}
    row = rows["polynomial roots vs mode spectrum"]
    assert math.isnan(row.worst) and not row.passed
    assert rows["mode spectrum vs transfer oracle"].passed
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", "--max-sites", "4", "--samples", "1000"])
    assert code == 1
    assert "disjoint-blocks: polynomial roots vs mode spectrum: worst nan" in err.getvalue()


def test_monte_carlo_estimates_each_norm_once_plus_one_rerun(monkeypatch):
    calls = []
    real = vf.mc.estimate_vbs_norm

    def counted(*args, **kwargs):
        calls.append((args, tuple(sorted(kwargs.items()))))
        return real(*args, **kwargs)

    monkeypatch.setattr(vf.mc, "estimate_vbs_norm", counted)
    rows = vf.SUITES["monte-carlo"](samples=1000, seed=7)
    assert all(r.passed for r in rows)
    # the determinism row reruns the first estimate once and computes no third
    assert calls.count(calls[0]) == 2
    assert len(calls) == 4
