"""Every public function, class and method in the package has a caller.

A public name that no package code refers to is either a claim that
belongs in a verify row or a helper that belongs in the tests.  The
package is read with `ast`: a definition counts as used when package
code outside `__init__.py` and outside its own body refers to it (a
method only through attribute access), when the benchmark in perfbench/
binds it, or when ALLOWED names it with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vbsent"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    "cli.main": "the console script's entry point",
    "closed_forms.asymptotic_disjoint_spectrum": "a thermodynamic-limit claim, not yet a row",
    "closed_forms.adjacent_negativity_asymptote": "a thermodynamic-limit claim, not yet a row",
    "closed_forms.pure_block_entanglement_xi": "a thermodynamic-limit claim, not yet a row",
    "closed_forms.AsymptoticSpectrum.report": "the disjoint limit's spectrum report",
    "linalg.SpectrumReport.entanglement_spectrum": "library API for the paper's xi",
    "linalg.HermitianOperator.dim": "perfbench reads it",
    "mps_oracle.StateVector.is_ring": "perfbench reads it",
    "sphere_mc.SphereConfig.omega": "perfbench reads it",
    "sphere_mc.SphereConfig.u": "perfbench reads it",
    "sphere_mc.SphereConfig.v": "perfbench reads it",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _definitions(modules):
    """(qualified name, node, is a method) of every public definition."""
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{mod}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{mod}.{node.name}.{sub.name}", sub, True


def _references(modules):
    """(name, node, module, through an attribute) of every name package code reads."""
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, node, mod, False
            elif isinstance(node, ast.Attribute):
                yield node.attr, node, mod, True
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    yield alias.name, node, mod, False


def _is_suite(node) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_suite"
        for d in getattr(node, "decorator_list", ())
    )


def _bench_names(monkeypatch) -> set[str]:
    """Qualified names perfbench's tracer binds, and the names the bindings test pins."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import TARGETS

    names = {f"{mod}.{attr}" for mod, attr, _, _ in TARGETS}
    tree = ast.parse((ROOT / "tests" / "test_bench_bindings.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unused(modules, bench) -> list[str]:
    refs = list(_references(modules))
    out = []
    for qualname, node, is_method in _definitions(modules):
        mod = qualname.split(".")[0]
        in_bench = qualname in bench or (not is_method and node.name in bench)
        if in_bench or qualname in ALLOWED or _is_suite(node):
            continue
        used = any(
            name == node.name
            and (through_attr or not is_method)
            and not (where == mod and node.lineno <= ref.lineno <= node.end_lineno)
            for name, ref, where, through_attr in refs
        )
        if not used:
            out.append(qualname)
    return out


def test_every_public_name_in_src_has_a_caller(monkeypatch):
    assert _unused(_modules(), _bench_names(monkeypatch)) == []


def test_every_allowed_name_is_defined():
    # an entry whose definition is gone would silently allow its next holder
    defined = {qualname for qualname, _, _ in _definitions(_modules())}
    assert sorted(set(ALLOWED) - defined) == []


def test_a_function_called_only_by_itself_is_reported(monkeypatch):
    modules = _modules()
    source = "def orphan():\n    return orphan()\n\ndef used():\n    pass\n\nused()\n"
    modules["probe"] = ast.parse(source)
    assert _unused(modules, _bench_names(monkeypatch)) == ["probe.orphan"]
