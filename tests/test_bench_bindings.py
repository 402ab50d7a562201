"""The names the benchmark in perfbench/ binds in the package.

perfbench is frozen between benchmark changes, and it reaches into the
package by attribute name: the tracer rebinds every function it times,
and the workloads call entry points, read CLI headers, verify's suite
table and a few properties of results.  A deleted or renamed name ends
every benchmark run that touches it, so each one is checked here.  The
tracer's span attributes also read some bound arguments by parameter
name, so a renamed parameter ends every traced run: those names are
pinned too.
"""

import inspect
import random
from pathlib import Path

import numpy as np

import vbsent
from vbsent import cli
from vbsent import closed_forms as cf
from vbsent import effective_rho as er
from vbsent import mps_oracle as mo
from vbsent import sphere_mc as mc
from vbsent import verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_over_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_oracle_referee_accepts_support_only_reports(monkeypatch):
    # the referee pads the shorter spectrum itself and reads the lowest
    # transpose eigenvalue, so reports without zero padding must pass it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import OracleReferee

    referee = OracleReferee()
    ops = referee.round(random.Random(0))
    assert len(ops) == 51
    for op in ops:
        build = vbsent.build_ring if op.kind == "ring" else vbsent.build_open_chain
        result = vbsent.entanglement_report(build(op.params["n"]), op.params["a"], op.params["b"])
        outcome = referee.check(op, result)
        assert outcome.ok, outcome.note


def test_workloads_find_every_name_they_read():
    entry_points = {
        vbsent: ("build_open_chain", "build_ring", "entanglement_report",
                 "estimate_vbs_norm", "estimate_block_overlap"),
        cli: ("main", "SPECTRA_HEADER", "MEASURES_HEADER"),
        cf: ("disjoint_spectrum", "adjacent_pt_spectrum", "adjacent_pt_negativity",
             "pure_block_spectrum", "mutual_information", "decay_parameter"),
        er: ("rho_ab_open", "rho_ab_adjacent", "rho_ab_pbc"),
        mc: ("sign_discrimination", "vbs_norm_target", "block_overlap_target",
             "MIN_SAMPLES", "SphereConfig"),
        verify: ("SUITES", "run_suites"),
        er.EffectiveDensityOperator: ("spectrum",),
        mo.StateVector: ("is_ring",),
    }
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, names in entry_points.items()
        for name in names
        if not hasattr(owner, name)
    ]
    assert missing == []
    config = mc.SphereConfig.sample(np.random.default_rng(0), 2, 3)
    for name in ("cos_theta", "phi", "omega", "u", "v"):
        assert getattr(config, name).shape[:2] == (2, 3)


def test_traced_calls_keep_the_parameter_names_their_spans_read():
    # perfbench/spans.py: _build_attrs, _report_attrs, _norm_attrs, _overlap_attrs
    read = {
        mo.build_open_chain: {"n_bulk"},
        mo.build_ring: {"n_bulk"},
        mo.entanglement_report: {"state", "block_a", "block_b"},
        mc.estimate_vbs_norm: {"n_bulk", "ring", "samples"},
        mc.estimate_block_overlap: {"samples", "length"},
    }
    for fn, names in read.items():
        assert names <= set(inspect.signature(fn).parameters), fn.__name__
