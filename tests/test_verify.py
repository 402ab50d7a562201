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
    ("bond-cut", "schmidt route equals dense transpose", 1e-10),
    ("bond-cut", "closed form row", 0.0),
    ("disjoint-blocks", "polynomial roots vs mode spectrum", 1e-10),
    ("disjoint-blocks", "mode spectrum vs dense oracle", 1e-10),
    ("disjoint-blocks", "anchor point (1,1,1)", 1e-10),
    ("disjoint-blocks", "independence from surroundings", 1e-10),
    ("open-transpose", "mode transpose min eigenvalue", 1e-12),
    ("open-transpose", "dense transpose min eigenvalue", 1e-12),
    ("open-transpose", "transpose equals sign-flipped gap", 0.0),
    ("adjacent-blocks", "negativity vs dense oracle", 1e-10),
    ("adjacent-blocks", "transpose spectrum vs z=-1 polynomials", 1e-10),
    ("adjacent-blocks", "equal-blocks radical formula", 1e-12),
    ("adjacent-blocks", "sine-form root is the cubic minimum", 1e-12),
    ("ring-blocks", "mode spectrum vs ring oracle", 1e-10),
    ("ring-blocks", "mode transpose min eigenvalue", 1e-12),
    ("ring-blocks", "dense transpose min eigenvalue", 1e-12),
    ("ring-blocks", "mixture weights within [0,1]", 0.0),
    ("ring-blocks", "mixture weights sum to 1", 1e-15),
    ("hamiltonian", "open-chain energy", 1e-12),
    ("hamiltonian", "ring energy", 1e-12),
    ("hamiltonian", "kernel dimension 1 (N<=4)", 0.0),
    ("hamiltonian", "tensor completeness", 0.0),
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


def test_nan_deviation_fails_its_row(monkeypatch):
    nan_spectrum = SimpleNamespace(eigenvalues=(math.nan,) * 16)
    monkeypatch.setattr(cf, "disjoint_spectrum", lambda *_: nan_spectrum)
    rows = {r.name: r for r in vf.run_suites(["disjoint-blocks"])}
    row = rows["polynomial roots vs mode spectrum"]
    assert math.isnan(row.worst) and not row.passed
    assert rows["mode spectrum vs dense oracle"].passed
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", "--max-sites", "4", "--samples", "1000"])
    assert code == 1
    assert "disjoint-blocks: polynomial roots vs mode spectrum: worst nan" in err.getvalue()
