"""In-memory spans around the public calls of every vbsent layer.

The tracer wraps functions from outside the package: it rebinds every
module attribute (and every entry of ``verify.SUITES``) that refers to a
traced function, so calls made through ``from .linalg import ...`` names
are caught as well as calls through module attributes.  Nothing in the
package is edited; ``Tracer.uninstall`` restores every binding.

A span is ``[name, layer, start_ns, end_ns, parent, op, attrs]``.  Spans
are recorded only while an op is open, so harness-side checks that call
the same functions leave no spans.  A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

from vbsent.linalg import EIG_CLAMP


def _dim_of_result(bound, result):
    return {"dim": int(result.dim)}


def _dim_of_first(bound, result):
    return {"dim": int(next(iter(bound.values())).dim)}


def _post_init_attrs(bound, result):
    return {"dim": int(bound["self"].entries.shape[0])}


def _eig_attrs(bound, result):
    return {
        "dim": int(len(result)),
        "useful": int((abs(result) > EIG_CLAMP).sum()),
    }


def _build_attrs(bound, result):
    return {"n": int(bound["n_bulk"]), "ring": result.is_ring}


def _report_attrs(bound, result):
    kept = {int(s) for s in bound["block_a"]} | {int(s) for s in bound["block_b"]}
    dims = bound["state"].site_dims
    return {"kept": len(kept), "dim": math.prod(dims[s] for s in kept)}


def _norm_attrs(bound, result):
    n = int(bound["n_bulk"])
    sites = n if bound["ring"] else n + 2
    return {"samples": int(bound["samples"]), "sites": sites}


def _overlap_attrs(bound, result):
    return {"samples": int(bound["samples"]), "sites": int(bound["length"])}


# (module, attribute, layer, attrs).  Attribute "Class.method" patches the
# class, which every instance and caller shares.
TARGETS = [
    ("cli", "main", "cli", None),
    ("closed_forms", "disjoint_spectrum", "closed_forms", None),
    ("closed_forms", "adjacent_pt_negativity", "closed_forms", None),
    ("closed_forms", "adjacent_pt_spectrum", "closed_forms", None),
    ("closed_forms", "pure_block_spectrum", "closed_forms", None),
    ("closed_forms", "pure_pt_spectrum", "closed_forms", None),
    ("closed_forms", "mutual_information", "closed_forms", None),
    ("closed_forms", "bipartition_L0_pt_spectrum", "closed_forms", None),
    ("effective_rho", "rho_ab_open", "effective_rho", None),
    ("effective_rho", "rho_ab_adjacent", "effective_rho", None),
    ("effective_rho", "rho_ab_pbc", "effective_rho", None),
    ("effective_rho", "EffectiveDensityOperator.spectrum", "effective_rho", None),
    ("effective_rho", "mode_partial_transpose", "effective_rho", None),
    ("effective_rho", "measures", "effective_rho", None),
    ("linalg", "reduced_density", "linalg", _dim_of_result),
    ("linalg", "partial_transpose", "linalg", _dim_of_result),
    ("linalg", "partial_trace", "linalg", _dim_of_first),
    ("linalg", "hermitian_eigvals", "linalg", _eig_attrs),
    ("linalg", "spectrum_report", "linalg", None),
    ("linalg", "HermitianOperator.__post_init__", "linalg", _post_init_attrs),
    ("mps_oracle", "build_open_chain", "mps_oracle", _build_attrs),
    ("mps_oracle", "build_ring", "mps_oracle", _build_attrs),
    ("mps_oracle", "entanglement_report", "mps_oracle", _report_attrs),
    ("mps_oracle", "dense_hamiltonian", "mps_oracle", None),
    ("mps_oracle", "zero_energy_degeneracy", "mps_oracle", None),
    ("mps_oracle", "hamiltonian_residual", "mps_oracle", None),
    ("mps_oracle", "pure_block_pt_spectrum", "mps_oracle", None),
    ("mps_oracle", "spin_correlation", "mps_oracle", None),
    ("pauli_algebra", "verify_bilinear_completeness", "pauli_algebra", None),
    ("pauli_algebra", "verify_boundary_identity", "pauli_algebra", None),
    ("pauli_algebra", "decide_epsilon_orientation", "pauli_algebra", None),
    ("sphere_mc", "estimate_vbs_norm", "sphere_mc", _norm_attrs),
    ("sphere_mc", "estimate_block_overlap", "sphere_mc", _overlap_attrs),
    ("sphere_mc", "sign_discrimination", "sphere_mc", None),
    ("verify", "run_suites", "verify", None),
]


class Tracer:
    """Span recorder; spans are kept in memory until the caller writes them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._undo: list = []

    # ----------------------------------------------------------- recording

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter_ns(), None, parent, self._op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top {popped}")

    def begin_op(self, op_id, name: str, layer: str = "bench") -> int:
        self._op = op_id
        return self.open(name, layer)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self._op = None

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under an open span."""
        base = len(self.spans)
        op = self.spans[parent][5]
        for name, layer, t0, t1, par, _, attrs in child_spans:
            self.spans.append(
                [name, layer, t0, t1, parent if par is None else base + par, op, attrs]
            )

    # ------------------------------------------------------------ patching

    def _wrap(self, fn, name: str, layer: str, attrs_fn):
        sig = inspect.signature(fn) if attrs_fn else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attrs_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx][6] = attrs_fn(bound.arguments, result)
            return result

        return traced

    def _rebind(self, original, replacement) -> None:
        for mod_name in _package_modules():
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every target; the parser's parse_args is wrapped per parser."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, layer, attrs_fn in TARGETS:
            mod = importlib.import_module(f"vbsent.{mod_name}")
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, layer, attrs_fn))
                continue
            original = getattr(mod, attr)
            self._rebind(original, self._wrap(original, name, layer, attrs_fn))
        self._install_suites()
        self._install_parser()
        return self

    def _install_suites(self) -> None:
        verify = importlib.import_module("vbsent.verify")
        suites = verify.SUITES
        for key, fn in list(suites.items()):
            wrapped = self._wrap(fn, f"verify.suite.{key}", "verify", None)
            self._undo.append((suites, key, fn))
            suites[key] = wrapped
            self._rebind(fn, wrapped)

    def _install_parser(self) -> None:
        cli = importlib.import_module("vbsent.cli")
        build = cli.build_parser
        tracer = self

        @functools.wraps(build)
        def traced_build():
            if tracer._op is None:
                return build()
            idx = tracer.open("cli.build_parser", "cli.parse")
            try:
                parser = build()
            finally:
                tracer.close(idx)
            parser.parse_args = tracer._wrap(
                parser.parse_args, "cli.parse_args", "cli.parse", None
            )
            return parser

        self._undo.append((cli, "build_parser", build))
        cli.build_parser = traced_build

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()


def _package_modules():
    return [m for m in list(sys.modules) if m == "vbsent" or m.startswith("vbsent.")]


# ---------------------------------------------------------------- analysis


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span in ns: duration minus its children's durations."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_self_ms_per_op(spans: list[list], op_ids: set) -> tuple[dict, int]:
    """Mean self time per op of each layer, over the ops in op_ids."""
    own = self_times(spans)
    totals: dict[str, int] = {}
    ops = set()
    for s, t in zip(spans, own):
        if s[5] in op_ids:
            totals[s[1]] = totals.get(s[1], 0) + t
            ops.add(s[5])
    n = max(len(ops), 1)
    return {k: v / n / 1e6 for k, v in sorted(totals.items())}, len(ops)


def durations_ms(spans: list[list], name: str, **match) -> list[float]:
    out = []
    for s in spans:
        if s[0] != name:
            continue
        attrs = s[6] or {}
        if all(attrs.get(k) == v for k, v in match.items()):
            out.append((s[3] - s[2]) / 1e6)
    return out
