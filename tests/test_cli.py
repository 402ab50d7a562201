"""End-to-end tests for the command line interface.

Every test drives ``main(argv)`` directly and inspects stdout/stderr, so the
argument parsing, formatting, and exit-code contract are all exercised the
same way a shell user would hit them.
"""

import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vbsent.cli
from vbsent import effective_rho as er
from vbsent import linalg
from vbsent import mps_oracle as mo
from vbsent import sphere_mc as mc
from vbsent import verify as vf
from vbsent.cli import _fmt, _zeroed, main
from vbsent.geometry import GEOMETRIES


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def csv_tables(text):
    """Split blank-line-separated CSV tables into lists of rows."""
    tables = []
    for chunk in text.strip().split("\n\n"):
        tables.append(list(csv.reader(io.StringIO(chunk))))
    return tables


# ---------------------------------------------------------------- formatting


def test_fmt_scalars():
    assert _fmt(None) == ""
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt("overlap") == "overlap"
    assert _fmt(7) == "7"
    # -0.0 must print identically to 0.0 so reruns are byte-stable
    assert _fmt(-0.0) == "0"
    assert _fmt(1.0 / 3.0) == "0.333333333333"


def test_spectrum_rows_split_only_where_the_printed_cell_changes():
    # an ulp-apart copy prints as its level; round-off zeros of either sign
    # print as one 0; a level apart in the 12th digit is a row of its own
    values = [-1e-15, 0.25, 2e-15, math.nextafter(0.25, 1.0), 0.250000000003, 0.0, -0.1]
    (report,) = linalg.spectrum_reports([values])
    rows = vbsent.cli._spectra_rows("x", report)
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    assert [(_fmt(r["eigenvalue"]), r["multiplicity"]) for r in rows] == [
        ("0.250000000003", 1),
        ("0.25", 2),
        ("0", 3),
        ("-0.1", 1),
    ]
    assert rows[2]["eigenvalue"] == 0.0


@st.composite
def spectrum_queries(draw):
    """A geometry that prints spectra, each flag drawn from its minimum (1,
    or 0 for a ring gap) to 12 and from 40, 679 and 1000, where z underflows."""
    name = draw(st.sampled_from(sorted(n for n, g in GEOMETRIES.items() if g.limit is None)))
    flags = {
        flag: draw(st.sampled_from((*range(low, 13), 40, 679, 1000)))
        for flag, _, low in GEOMETRIES[name].flags
    }
    return name, flags


@settings(max_examples=100, deadline=None)
@given(spectrum_queries(), st.sampled_from(("csv", "json")))
# a singlet at 0.250000000003 and a triplet at 0.249999999999
@example(("adjacent", {"la": 12, "lb": 12}), "csv")
@example(("adjacent", {"la": 12, "lb": 12}), "json")
def test_each_spectrum_row_counts_the_eigenvalues_that_print_as_its_cell(query, fmt):
    name, flags = query
    argv = [name, *itertools.chain(*((f"--{k}", str(v)) for k, v in flags.items()))]
    code, out, err = run_cli(argv + ["--format", fmt])
    assert code == 0 and err == ""
    if fmt == "json":
        spectra = json.loads(out)["results"]["spectra"]
        rows = [(r["geometry"], _fmt(r["eigenvalue"]), r["multiplicity"]) for r in spectra]
    else:
        rows = [(r[0], r[2], int(r[3])) for r in csv_tables(out)[0][1:]]
    geo = GEOMETRIES[name]
    params = geo.params(**flags)
    [(block, pt, _)], _ = geo.reports([params])
    for part, report in (("block", block), ("transpose", pt)):
        mine = [(cell, count) for g, cell, count in rows if g == f"{geo.label(params)} {part}"]
        assert sum(count for _, count in mine) == len(report.eigenvalues)
        members = [_fmt(_zeroed(v)) for v in sorted(report.eigenvalues, reverse=True)]
        assert members == [cell for cell, count in mine for _ in range(count)]
        cells = [cell for cell, _ in mine]
        assert all(a != b for a, b in zip(cells, cells[1:]))


# ------------------------------------------------------- shared definitions


def test_parser_defaults_are_the_library_defaults():
    parse = vbsent.cli.build_parser().parse_args
    verify = parse(["verify"])
    suites = inspect.signature(vf.run_suites).parameters
    for name in ("max_sites", "tol", "samples", "seed"):
        assert getattr(verify, name) == suites[name].default, name
    mc_args = parse(["mc"])
    for estimator in (mc.estimate_vbs_norm, mc.estimate_block_overlap, mc.sign_discrimination):
        params = inspect.signature(estimator).parameters
        for name in ("samples", "seed"):
            assert getattr(mc_args, name) == params[name].default, (estimator.__name__, name)


def test_sigma_bound_is_read_by_every_check(monkeypatch):
    def disc(plus, minus):
        return mc.SignDiscrimination(None, 0.0, 0.5, plus, minus)

    assert not disc(0.0, 2.0).rejects_minus and disc(1.0, math.inf).rejects_minus
    monkeypatch.setattr(mc, "SIGMA_BOUND", 0.5)
    assert disc(0.0, 2.0).rejects_minus and not disc(1.0, math.inf).rejects_minus

    rows = vf.run_suites(["monte-carlo"], samples=1000)
    sigma_rows = [r for r in rows if r.bound != vf.EXACT]
    assert len(sigma_rows) == 5 and all(r.bound == 0.5 for r in sigma_rows)

    code, out, err = run_cli(["mc", "--task", "norm", "--samples", "1000"])
    (table,) = csv_tables(out)
    sigmas = {r[1]: float(r[5]) for r in table[1:]}
    # every estimate passes at four standard errors and fails at 0.5
    assert all(0.5 < s <= 4.0 for s in sigmas.values())
    assert code == 1
    assert [line.split(":")[1].strip() for line in err.splitlines()] == [
        f"norm {parameter}" for parameter in sigmas
    ]


# ------------------------------------------------------------------ pure cut


def test_pure_csv_output():
    code, out, err = run_cli(["pure", "--length", "1"])
    assert code == 0 and err == ""
    spectra, measures = csv_tables(out)
    assert spectra[0] == ["geometry", "index", "eigenvalue", "multiplicity"]
    block = [r for r in spectra if r[0] == "pure length=1 block"]
    assert [r[2:] for r in block] == [["0.333333333333", "3"], ["0", "1"]]
    transpose = [r for r in spectra if r[0] == "pure length=1 transpose"]
    assert [r[2:] for r in transpose] == [
        ["0.333333333333", "6"],
        ["0", "7"],
        ["-0.333333333333", "3"],
    ]
    assert measures[0] == [
        "geometry",
        "negativity",
        "log_negativity",
        "entropy",
        "purity",
        "mutual_information",
    ]
    assert measures[1] == [
        "pure length=1",
        "1",
        "1.58496250072",
        "1.09861228867",
        "0.333333333333",
        "2.19722457734",
    ]


def test_pure_json_envelope():
    code, out, err = run_cli(["pure", "--length", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc) == ["request", "results", "tolerances", "versions"]
    assert doc["request"] == {"length": 2, "subcommand": "pure"}
    assert set(doc["results"]) == {"spectra", "measures"}
    # the closed forms check no matrix, so only the clamp applies
    assert doc["tolerances"] == {"eigenvalue_clamp": linalg.EIG_CLAMP}
    assert {"artifact", "numpy", "python"} <= set(doc["versions"])


def test_output_is_byte_stable_across_reruns():
    first = run_cli(["pure", "--length", "3"])
    second = run_cli(["pure", "--length", "3"])
    assert first == second
    jfirst = run_cli(["disjoint", "--la", "2", "--gap", "1", "--lb", "2", "--format", "json"])
    jsecond = run_cli(["disjoint", "--la", "2", "--gap", "1", "--lb", "2", "--format", "json"])
    assert jfirst == jsecond


def test_bipartition0_values():
    code, out, _ = run_cli(["bipartition0"])
    assert code == 0
    spectra, measures = csv_tables(out)
    transpose = [r for r in spectra if r[0].endswith("transpose")]
    assert [r[2:] for r in transpose] == [["0.5", "3"], ["-0.5", "1"]]
    assert measures[1] == [
        "bipartition0",
        "0.5",
        "1",
        "0.69314718056",
        "0.5",
        "1.38629436112",
    ]


# ------------------------------------------------------------- mixed blocks


def test_disjoint_json_spectrum_groups():
    code, out, _ = run_cli(
        ["disjoint", "--la", "1", "--gap", "1", "--lb", "1", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["request"] == {"gap": 1, "la": 1, "lb": 1, "subcommand": "disjoint"}
    block = [s for s in doc["results"]["spectra"] if s["geometry"].endswith("block")]
    mults = [s["multiplicity"] for s in block]
    values = [s["eigenvalue"] for s in block]
    assert mults == [5, 3, 1, 7]
    assert values[0] == pytest.approx(4 / 27, abs=1e-12)
    assert values[1] == pytest.approx(2 / 27, abs=1e-12)
    assert values[2] == pytest.approx(1 / 27, abs=1e-12)
    assert abs(values[3]) < 1e-15


def test_adjacent_negativity_anchor():
    code, out, _ = run_cli(["adjacent", "--la", "1", "--lb", "1"])
    assert code == 0
    _, measures = csv_tables(out)
    assert measures[1][0] == "adjacent la=1 lb=1"
    assert measures[1][1] == "0.111111111111"


def test_pbc_touching_blocks_have_zero_negativity():
    code, out, _ = run_cli(["pbc", "--la", "1", "--lb", "1", "--lc", "1", "--ld", "1"])
    assert code == 0
    _, measures = csv_tables(out)
    assert measures[1][0] == "pbc la=1 lb=1 lc=1 ld=1"
    assert measures[1][1] == "0"


def test_mutual_info_rows_and_gap():
    code, out, _ = run_cli(["mutual-info", "--gap", "1"])
    assert code == 0
    (measures,) = csv_tables(out)
    geoms = [r[0] for r in measures[1:]]
    assert geoms == ["finite la=6 lb=6 gap=1", "asymptotic gap=1", "difference"]
    asymptotic = float(measures[2][5])
    assert asymptotic == pytest.approx(0.287682072452, abs=1e-11)
    gap = float(measures[3][5])
    assert abs(gap) < 0.01


def test_mutual_info_rejects_unequal_blocks():
    code, _, err = run_cli(["mutual-info", "--gap", "1", "--la", "2", "--lb", "3"])
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------------- monte carlo


def test_mc_norm_passes_at_small_samples():
    code, out, _ = run_cli(["mc", "--task", "norm", "--samples", "2000", "--seed", "3"])
    assert code == 0
    (rows,) = csv_tables(out)
    assert rows[0] == ["task", "parameter", "estimate", "standard_error", "target", "sigmas"]
    assert all(float(r[5]) <= 4.0 for r in rows[1:])


def test_mc_overlap_covers_all_channel_pairs():
    code, out, _ = run_cli(
        ["mc", "--task", "overlap", "--samples", "2000", "--seed", "0", "--length", "1"]
    )
    assert code == 0
    (rows,) = csv_tables(out)
    assert len(rows) - 1 == 16


def test_mc_discriminate_rejects_wrong_sign():
    code, out, _ = run_cli(["mc", "--task", "discriminate", "--samples", "2000", "--seed", "0"])
    assert code == 0
    (rows,) = csv_tables(out)
    plus = [r for r in rows if r[1].startswith("plus")][0]
    minus = [r for r in rows if r[1].startswith("minus")][0]
    # single-site singlet reading is exactly zero, so the wrong sign sits
    # infinitely many standard errors away
    assert plus[5] == "0"
    assert minus[5] == "inf"


def test_mc_names_a_failed_discrimination(monkeypatch):
    real = vbsent.cli.mc.sign_discrimination

    def minus_not_rejected(**kwargs):
        disc = real(**kwargs)
        return dataclasses.replace(disc, sigmas_from_minus=0.5)

    monkeypatch.setattr(vbsent.cli.mc, "sign_discrimination", minus_not_rejected)
    code, _, err = run_cli(["mc", "--task", "discriminate", "--samples", "2000"])
    assert code == 1
    (line,) = err.splitlines()
    assert line.startswith("check failed: discriminate:")


def test_mc_rejects_bad_arguments_before_any_estimate(monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate ran before the arguments were checked")

    for name in ("estimate_vbs_norm", "estimate_block_overlap", "sign_discrimination"):
        monkeypatch.setattr(vbsent.cli.mc, name, no_estimate)
    cases = [
        (["--length", "0"], "block length must be >= 1, got 0"),
        (["--task", "overlap", "--length", "-2", "--samples", "5"], "block length"),
        (["--ring", "1"], "a ring needs at least two sites"),
        (["--ring", "0", "--samples", "5"], "need at least one bulk site, got 0"),
        (["--samples", "999"], "need at least 1000 samples, got 999"),
        (["--task", "all", "--samples", "5", "--length", "0"], "at least 1000 samples"),
        (["--task", "discriminate", "--samples", "10"], "at least 1000 samples"),
    ]
    for flags, message in cases:
        code, out, err = run_cli(["mc", *flags])
        assert (code, out) == (2, ""), flags
        assert err.startswith("error: ") and message in err, (flags, err)


def test_mc_rejects_a_sample_site_budget_before_any_estimate(monkeypatch):
    # exit 2, not a MemoryError's exit 1 after the allocation fails
    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate ran before the budget was checked")

    for name in ("estimate_vbs_norm", "estimate_block_overlap", "sign_discrimination"):
        monkeypatch.setattr(vbsent.cli.mc, name, no_estimate)
    cases = [
        ["--task", "norm", "--samples", "1000000000000"],
        ["--task", "overlap", "--length", "1000000000", "--samples", "1000"],
        ["--task", "norm", "--ring", "1000000000", "--samples", "1000"],
        ["--task", "discriminate", "--samples", "100000001"],
        ["--samples", "1000000000000"],
    ]
    for flags in cases:
        code, out, err = run_cli(["mc", *flags])
        assert (code, out) == (2, ""), flags
        assert err.startswith("error: ") and "sample-sites per estimate" in err, (flags, err)


def test_mc_rejects_negative_seed_by_name(monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate ran before the seed was checked")

    for name in ("estimate_vbs_norm", "estimate_block_overlap", "sign_discrimination"):
        monkeypatch.setattr(vbsent.cli.mc, name, no_estimate)
    code, out, err = run_cli(["mc", "--seed", "-1", "--samples", "1000"])
    assert (code, out) == (2, "")
    assert err == "error: seed must be >= 0, got -1\n"


# ------------------------------------------------------------------- verify


def test_verify_small_battery_passes():
    code, out, err = run_cli(["verify", "--max-sites", "4", "--samples", "1000"])
    assert code == 0 and err == ""
    (rows,) = csv_tables(out)
    assert rows[0] == ["suite", "check", "passed", "worst", "bound"]
    assert len(rows) > 30
    # check names may contain commas; proper quoting keeps rows at 5 fields
    assert all(len(r) == 5 for r in rows)
    assert all(r[2] == "true" for r in rows[1:])


def test_verify_zero_tolerance_reports_failures():
    code, out, err = run_cli(["verify", "--max-sites", "4", "--samples", "1000", "--tol", "0"])
    assert code == 1
    assert "check failed:" in err
    (rows,) = csv_tables(out)
    assert any(r[2] == "false" for r in rows[1:])


def run_with_closed_stdout(argv):
    """Exit code and stderr of a vbsent process whose reader has already gone."""
    src = str(Path(vbsent.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "vbsent.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


def test_verify_keeps_its_exit_code_when_stdout_is_closed():
    code, err = run_with_closed_stdout(["verify", "--max-sites", "4", "--samples", "1000"])
    assert (code, err) == (0, "")
    code, err = run_with_closed_stdout(
        ["verify", "--max-sites", "4", "--samples", "1000", "--tol", "0"]
    )
    assert code == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
    lines = err.splitlines()
    assert lines and all(line.startswith("check failed: ") for line in lines)


def test_sweep_exits_0_when_stdout_is_closed():
    argv = ["sweep", "disjoint", "--la", "1:2000", "--gap", "1", "--lb", "1"]
    code, err = run_with_closed_stdout(argv)
    assert (code, err) == (0, "")


def test_verify_rejects_tiny_site_budget():
    code, out, err = run_cli(["verify", "--max-sites", "3", "--samples", "1000"])
    assert code == 2 and out == ""
    assert "max_sites >= 4" in err


def test_verify_rejects_site_budget_beyond_dense_states(monkeypatch):
    code, out, err = run_cli(["verify", "--max-sites", "13", "--samples", "1000"])
    assert code == 2 and out == ""
    assert "max_sites >= 4" in err and "<= 12" in err
    # the budget is checked before any suite runs
    monkeypatch.setitem(vf.SUITES, "ring-blocks", lambda **_: pytest.fail("suite ran"))
    with pytest.raises(ValueError, match="got 13"):
        vf.run_suites(["ring-blocks"], max_sites=13)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "inf"], "tol must be finite and >= 0, got inf"),
        (["--tol", "nan"], "tol must be finite and >= 0, got nan"),
        (["--tol", "-0.5"], "tol must be finite and >= 0, got -0.5"),
        (["--samples", "10"], "need at least 1000 samples, got 10"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_verify_rejects_bad_values_before_any_suite(monkeypatch, flags, message):
    for name in vf.SUITES:
        monkeypatch.setitem(vf.SUITES, name, lambda **_: pytest.fail("suite ran"))
    code, out, err = run_cli(["verify", "--max-sites", "4", *flags])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_rejects_a_sample_site_budget_before_any_suite(monkeypatch):
    for name in vf.SUITES:
        monkeypatch.setitem(vf.SUITES, name, lambda **_: pytest.fail("suite ran"))
    code, out, err = run_cli(["verify", "--samples", "1000000000000"])
    assert code == 2 and out == ""
    assert err == (
        "error: 1000000000000 samples of 6 sites exceed the budget of "
        "100000000 sample-sites per estimate\n"
    )


def test_ring_suite_passes_at_ten_sites():
    # the cap's suite runs every ring from 4 to 12 bulk sites, 10 among them
    rows = vf.run_suites(["ring-blocks"], max_sites=mo.MAX_BULK_SITES)
    assert rows and all(r.passed for r in rows)


def test_json_tolerances_name_only_the_bounds_the_command_applied(monkeypatch):
    closed = {"eigenvalue_clamp"}
    modes = closed | {"hermiticity"}
    for argv, applied in (
        (["pure", "--length", "2"], closed),
        (["bipartition0"], closed),
        (["sweep", "pure", "--length", "1:2"], closed),
        (["disjoint", "--la", "1", "--gap", "1", "--lb", "1"], modes),
        (["pbc", "--la", "1", "--lb", "1", "--lc", "0", "--ld", "2"], modes),
        (["sweep", "mutual-info", "--gap", "1:2"], modes),
    ):
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        assert set(json.loads(out)["tolerances"]) == applied, argv
    # mc names only the bound its checks read at run time
    monkeypatch.setattr(mc, "SIGMA_BOUND", 0.5)
    _, out, _ = run_cli(["mc", "--task", "discriminate", "--samples", "1000", "--format", "json"])
    assert json.loads(out)["tolerances"] == {"sigma_bound": 0.5}
    code, out, _ = run_cli(["verify", "--max-sites", "4", "--samples", "1000", "--format", "json"])
    assert set(json.loads(out)["tolerances"]) == modes | {"verification"}


def test_verify_reports_the_values_it_used():
    code, out, _ = run_cli(
        ["verify", "--max-sites", "4", "--samples", "1000", "--tol", "0", "--format", "json"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["tolerances"]["verification"] == 0
    code, out, _ = run_cli(["verify", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert all(row["worst"] >= 0 for row in doc["results"]["checks"])


# -------------------------------------------------------------------- sweep


def test_sweep_pure_lengths():
    code, out, _ = run_cli(["sweep", "pure", "--length", "1:4"])
    assert code == 0
    (rows,) = csv_tables(out)
    assert [r[0] for r in rows[1:]] == [f"pure length={n}" for n in range(1, 5)]
    negativities = [float(r[1]) for r in rows[1:]]
    assert negativities == sorted(negativities)


def test_sweep_error_paths():
    for argv, fragment in [
        (["sweep", "disjoint", "--la", "1", "--gap", "1:3"], "--lb"),
        (["sweep", "adjacent", "--la", "1:2", "--lb", "1:2"], "exactly one"),
        (["sweep", "adjacent", "--la", "1", "--lb", "2"], "range"),
        (["sweep", "pure", "--length", "4:1"], "--length range '4:1' is empty"),
        (["sweep", "pure", "--length", "1:2", "--la", "9"], "takes no --la"),
        (["sweep", "mutual-info", "--la", "2", "--lb", "3", "--gap", "1:2"], "equal"),
    ]:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert err.startswith("error:") and fragment in err


@pytest.mark.parametrize("span", ["1:", ":3", "x"])
def test_sweep_range_errors_name_the_flag(span):
    code, out, err = run_cli(["sweep", "disjoint", "--la", span, "--gap", "1", "--lb", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: --la ") and repr(span) in err


def test_sweep_span_is_capped_at_max_sweep_points():
    cap = vbsent.cli.MAX_SWEEP_POINTS
    assert vbsent.cli._parse_span("la", f"1:{cap}") == list(range(1, cap + 1))
    assert len(vbsent.cli._parse_span("gap", f"-5:{cap - 6}")) == cap
    with pytest.raises(ValueError, match=f"--gap range '1:{cap + 1}' has {cap + 1} points; "
                       f"sweep takes at most {cap}"):
        vbsent.cli._parse_span("gap", f"1:{cap + 1}")


def test_sweep_rejects_a_huge_range_before_building_it():
    # a list of a billion points would take minutes and gigabytes
    start = time.perf_counter()
    argv = ["sweep", "disjoint", "--la", "1:1000000000", "--gap", "1", "--lb", "1"]
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: --la ") and f"at most {vbsent.cli.MAX_SWEEP_POINTS}" in err


def test_sweep_mutual_info_honours_block_flags():
    code, out, _ = run_cli(["sweep", "mutual-info", "--la", "2", "--lb", "2", "--gap", "1:2"])
    assert code == 0
    (rows,) = csv_tables(out)
    assert [r[0] for r in rows[1:]] == [
        "mutual-info la=2 lb=2 gap=1",
        "mutual-info la=2 lb=2 gap=2",
    ]


def test_missing_required_flag_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        run_cli(["pure"])
    assert info.value.code == 2


# (command, fixed flags, swept flag, first swept value); the pbc sweep
# starts at touching blocks
SWEEPS = (
    ("disjoint", ["--la", "2", "--lb", "3"], "gap", 1),
    ("adjacent", ["--la", "4"], "lb", 1),
    ("pbc", ["--la", "1", "--lb", "2", "--ld", "1"], "lc", 0),
    ("mutual-info", ["--la", "3", "--lb", "3"], "gap", 1),
)


def measures_lines(out, fmt):
    """The measures rows as CSV lines or as sorted-key JSON texts."""
    if fmt == "json":
        rows = json.loads(out)["results"]["measures"]
        return [json.dumps(row, sort_keys=True) for row in rows]
    return out.strip().split("\n\n")[-1].split("\n")[1:]


_S = er.STACK_POINTS


def _stack_sizes(points: int) -> list[int]:
    """The stacks Geometry.reports cuts a sweep of the given points into."""
    return [min(_S, points - start) for start in range(0, points, _S)]


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("points", (1, _S - 1, _S, _S + 1, 2 * _S + 8))
@pytest.mark.parametrize("command, fixed, swept, first", SWEEPS)
def test_sweep_rows_equal_single_point_measures(command, fixed, swept, first, points, fmt):
    # sweeps evaluate in stacks of er.STACK_POINTS points; the counts end a
    # stack short, exactly, one over and partway through the third
    last = first + points - 1
    tail = fixed + ["--format", fmt]
    code, out, err = run_cli(["sweep", command, f"--{swept}", f"{first}:{last}"] + tail)
    assert (code, err) == (0, "")
    rows = measures_lines(out, fmt)
    assert len(rows) == points
    for value, row in zip(range(first, last + 1), rows):
        code, single, err = run_cli([command, f"--{swept}", str(value)] + tail)
        assert (code, err) == (0, "")
        # mutual-info labels its measures row "finite" and adds the limit
        expected = measures_lines(single, fmt)[0].replace("finite la=", "mutual-info la=")
        assert row == expected


def test_sweep_solves_two_stacks_per_stack_of_points_with_one_parser(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "vbsent":
            built.append(self)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    vbsent.cli.build_parser.cache_clear()
    try:
        code, out, _ = run_cli(["sweep", "disjoint", "--la", "2", "--gap", "1:200", "--lb", "3"])
        assert code == 0 and len(csv_tables(out)[0]) == 201
        # per stack one singlet and one triplet solve, each over the
        # stack's joint and transposed members: stacks of _S, then the rest
        assert shapes == [(2 * size, n, n) for size in _stack_sizes(200) for n in (2, 3)]
        assert run_cli(["pure", "--length", "2"])[0] == 0
    finally:
        vbsent.cli.build_parser.cache_clear()
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["disjoint", "--la", "2", "--gap", "1:200", "--lb", "3"],
        ["adjacent", "--la", "1:200", "--lb", "2"],
        ["pbc", "--la", "1:200", "--lb", "2", "--lc", "0", "--ld", "1"],
        ["mutual-info", "--gap", "1:200"],
    ],
)
def test_sweep_stacks_run_as_arrays_from_build_to_report(monkeypatch, argv):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        solved.append((a.dtype, a.shape))
        return eigvalsh(a, *args, **kwargs)

    builds = []
    sector_measures = er._sector_measures

    def counted_build(sectors, coefficients, block_a, block_b):
        builds.append(len(block_a))
        return sector_measures(sectors, coefficients, block_a, block_b)

    matrices = []
    assemble = er._assemble

    def counted_assemble(*args, **kwargs):
        matrices.append(args)
        return assemble(*args, **kwargs)

    reports = []
    spectrum_report = linalg.spectrum_report

    def counted_report(*args, **kwargs):
        reports.append(args)
        return spectrum_report(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(er, "_sector_measures", counted_build)
    monkeypatch.setattr(er, "_assemble", counted_assemble)
    # every binding of spectrum_report in the package, module attribute or import
    for name, module in list(sys.modules.items()):
        if name.startswith("vbsent") and getattr(module, "spectrum_report", None) is spectrum_report:
            monkeypatch.setattr(module, "spectrum_report", counted_report)
    code, out, _ = run_cli(["sweep"] + argv)
    assert code == 0 and len(csv_tables(out)[0]) == 201
    # one sector-form build per stack, and no 16x16 operator built
    assert builds == _stack_sizes(200)
    assert matrices == []
    assert reports == []
    # one real singlet and one real triplet solve per stack, each over the
    # stack's joint and transposed members; no 16x16 matrix is solved
    assert solved == [
        (np.dtype(float), (2 * size, n, n)) for size in _stack_sizes(200) for n in (2, 3)
    ]


def test_cached_parser_carries_no_flags_between_calls():
    with pytest.raises(SystemExit) as info:
        run_cli(["sweep", "pbc", "--la", "1", "--lb", "1", "--lc", "1", "--ld", "1:2", "--no"])
    assert info.value.code == 2
    code, out, _ = run_cli(["sweep", "pure", "--length", "1:3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["request"] == {
        "command": "pure", "length": "1:3", "subcommand": "sweep"
    }
    argv = ["sweep", "disjoint", "--la", "2", "--gap", "1:3", "--lb", "4", "--format", "json"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert json.loads(out)["request"] == {
        "command": "disjoint", "gap": "1:3", "la": "2", "lb": "4", "subcommand": "sweep"
    }
