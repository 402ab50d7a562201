"""Each route module imports only what its independence allows.

The closed forms, the transfer oracle, the mode operator and the sphere
sampler are separate derivations of the same claims, and verify's
cross-checks between them are the point.  A route that borrows another
route's formula would pass those checks by construction.  The package
is read with `ast`, and every in-package import of a route module, at
any depth of its body, must be one that ROUTE_IMPORTS lists.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vbsent"

# route module -> {package module it may import from: the names it may
# take from it, or None for any name, the shared statistics and algebra}
ROUTE_IMPORTS = {
    "closed_forms": {"linalg": None},
    "mps_oracle": {"linalg": None},
    "effective_rho": {
        # today's allowed exceptions: the mode route's Gram weights and
        # sign table are the closed-form formulas, and z(L) = (-1/3)^L is
        # a shared definition
        "closed_forms": {"CHANNEL_SIGNS", "ChannelWeights", "decay_parameter"},
        "linalg": None,
        "pauli_algebra": None,
    },
    "sphere_mc": {
        # the sampler's targets, the claims its estimates test
        "closed_forms": {"CHANNEL_SIGNS", "ChannelWeights", "decay_parameter"},
        "pauli_algebra": None,
    },
}

# the functions of sphere_mc that turn the closed forms into targets
SAMPLER_TARGETS = {"vbs_norm_target", "block_overlap_target", "sign_discrimination"}


def _package_imports(tree: ast.Module):
    """(module, name) of every in-package import; name None for a whole module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "vbsent" and not module.startswith("vbsent."):
                    continue
                module = module.removeprefix("vbsent").removeprefix(".")
            if module:
                for alias in node.names:
                    yield module, alias.name
            else:
                for alias in node.names:
                    yield alias.name, None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("vbsent."):
                    yield alias.name.removeprefix("vbsent."), None


def _violations(route: str, source: str) -> list[tuple[str, str | None]]:
    allowed = ROUTE_IMPORTS[route]
    return [
        (module, name)
        for module, name in _package_imports(ast.parse(source))
        if module not in allowed
        or (allowed[module] is not None and name not in allowed[module])
    ]


def _source(route: str) -> str:
    return (SRC / f"{route}.py").read_text()


def test_every_route_imports_only_what_it_may():
    for route in ROUTE_IMPORTS:
        assert _violations(route, _source(route)) == [], route


def test_the_sampler_reads_the_closed_forms_only_in_its_targets():
    tree = ast.parse(_source("sphere_mc"))
    names = ROUTE_IMPORTS["sphere_mc"]["closed_forms"]
    readers = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    readers.add(node.name)
    assert readers <= SAMPLER_TARGETS


def test_a_borrowed_closed_form_is_reported():
    source = _source("mps_oracle") + "\nfrom .closed_forms import disjoint_spectrum\n"
    assert _violations("mps_oracle", source) == [("closed_forms", "disjoint_spectrum")]
    source = _source("effective_rho") + "\nfrom . import closed_forms as cf\n"
    assert _violations("effective_rho", source) == [("closed_forms", None)]
    source = _source("closed_forms") + "\ndef late():\n    from vbsent.mps_oracle import layout_spectra\n"
    assert _violations("closed_forms", source) == [("mps_oracle", "layout_spectra")]
