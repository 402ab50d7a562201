"""Command-line front end.

One subcommand per entry of the geometry table (`pure`,
`bipartition0`, `disjoint`, `adjacent`, `pbc`, `mutual-info`) prints
its spectra and measures; the others run the Monte Carlo battery
(`mc`), run the verification battery (`verify`), or sweep one flag of a
geometry (`sweep`).  Output is CSV or JSON; reruns with the
same arguments and seed are byte identical.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import platform
import sys

import numpy as np

from . import __version__
from . import sphere_mc as mc
from . import verify as vf
from .geometry import GEOMETRIES
from .linalg import EIG_CLAMP, HERMITICITY_TOL

GROUP_DISPLAY_TOL = 1e-9

# points per sweep: from length 679 on z = (-1/3)^L is a signed zero, so
# a longer sweep only repeats rows
MAX_SWEEP_POINTS = 10_000

SPECTRA_HEADER = ("geometry", "index", "eigenvalue", "multiplicity")
MEASURES_HEADER = (
    "geometry",
    "negativity",
    "log_negativity",
    "entropy",
    "purity",
    "mutual_information",
)
MC_HEADER = ("task", "parameter", "estimate", "standard_error", "target", "sigmas")
VERIFY_HEADER = ("suite", "check", "passed", "worst", "bound")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # adding 0.0 normalizes -0.0 so reruns cannot differ in sign bits
    return f"{float(value) + 0.0:.12g}"


def _rounded(value):
    """The JSON mirror of a CSV cell: a float cell is its printed digits."""
    if value is None or isinstance(value, (bool, str, int)):
        return value
    return float(_fmt(value))


def group_spectrum(values):
    """Collapse a descending spectrum into (mean, multiplicity) groups.

    Grouping affects display only; adjacent values are merged while they
    stay within GROUP_DISPLAY_TOL of the previous member.
    """
    ordered = sorted(float(v) for v in values)[::-1]
    groups: list[list[float]] = []
    for v in ordered:
        if groups and abs(groups[-1][-1] - v) <= GROUP_DISPLAY_TOL:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(math.fsum(g) / len(g), len(g)) for g in groups]


def _zeroed(value):
    """0.0 for a value within EIG_CLAMP of 0, the value otherwise.

    Zero eigenvalue groups and zero measures come out of LAPACK as
    round-off, whose digits differ from one numeric stack to the next.
    """
    if value is None or abs(value) > EIG_CLAMP:
        return value
    return 0.0


def _spectra_rows(label: str, report) -> list[dict]:
    rows = []
    for index, (value, mult) in enumerate(group_spectrum(report.eigenvalues)):
        rows.append(
            {
                "geometry": label,
                "index": index,
                "eigenvalue": _zeroed(value),
                "multiplicity": mult,
            }
        )
    return rows


def _measures_row(label: str, *, negativity=None, log_negativity=None,
                  entropy=None, purity=None, mutual_information=None) -> dict:
    return {
        "geometry": label,
        "negativity": _zeroed(negativity),
        "log_negativity": _zeroed(log_negativity),
        "entropy": _zeroed(entropy),
        "purity": _zeroed(purity),
        "mutual_information": _zeroed(mutual_information),
    }


def _emit_tables(args, tables: list[tuple[tuple, list[dict]]]) -> None:
    """Print the run as CSV tables or as one JSON object mirroring them."""
    if args.format == "json":
        results = {}
        for header, rows in tables:
            key = {
                SPECTRA_HEADER: "spectra",
                MEASURES_HEADER: "measures",
                MC_HEADER: "estimates",
                VERIFY_HEADER: "checks",
            }[header]
            results.setdefault(key, []).extend(
                {k: _rounded(row[k]) for k in header} for row in rows
            )
        text = json.dumps(_json_envelope(args, results), indent=2, sort_keys=True)
    else:
        blocks = []
        for header, rows in tables:
            if not rows:
                continue
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(row[k]) for k in header] for row in rows)
            blocks.append(buf.getvalue().rstrip("\n"))
        text = "\n\n".join(blocks)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: drop the rest, and keep the command's exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _json_envelope(args, results) -> dict:
    skip = {"func", "format"}
    request = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    tolerances = {
        "hermiticity": HERMITICITY_TOL,
        "eigenvalue_clamp": EIG_CLAMP,
        "display_grouping": GROUP_DISPLAY_TOL,
    }
    # each command's own bound, and only where that command applied it
    if args.subcommand == "verify":
        tolerances["verification"] = args.tol
    elif args.subcommand == "mc":
        tolerances["sigma_bound"] = mc.SIGMA_BOUND
    return {
        "request": request,
        "results": results,
        "tolerances": tolerances,
        "versions": {
            "artifact": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


# ------------------------------------------------------------ geometry runs


def _reports_row(label: str, block, pt, mutual: float) -> dict:
    return _measures_row(
        label,
        negativity=pt.negativity,
        log_negativity=pt.log_negativity,
        entropy=block.entropy,
        purity=block.purity,
        mutual_information=mutual,
    )


def cmd_geometry(args) -> int:
    geo = GEOMETRIES[args.subcommand]
    params = geo.params(**{name: getattr(args, name) for name in geo.names})
    [(block, pt, mutual)] = geo.reports([params])
    if geo.limit is None:
        label = geo.label(params)
        spectra = _spectra_rows(f"{label} block", block)
        spectra += _spectra_rows(f"{label} transpose", pt)
        measures = [_reports_row(label, block, pt, mutual)]
        _emit_tables(args, [(SPECTRA_HEADER, spectra), (MEASURES_HEADER, measures)])
        return 0
    limit = geo.limit(**params)
    rows = [
        _reports_row(geo.label(params, "finite"), block, pt, mutual),
        _measures_row(f"asymptotic gap={params['gap']}", mutual_information=limit),
        _measures_row("difference", mutual_information=mutual - limit),
    ]
    _emit_tables(args, [(MEASURES_HEADER, rows)])
    return 0


# --------------------------------------------------------------- mc battery


def _mc_norm_cases(args) -> list[tuple[int, bool]]:
    if args.ring is not None:
        return [(args.ring, True)]
    return [(n, False) for n in range(1, 5)]


def _check_mc_args(args) -> None:
    """Raise the error of the first estimate that would fail, before any runs."""
    if args.task in ("norm", "all"):
        for n, ring in _mc_norm_cases(args):
            mc.check_norm_args(n, args.samples, ring)
    if args.task in ("overlap", "all"):
        mc.check_overlap_args(0, 0, args.length, args.samples)
    mc.check_samples(args.samples, 1)  # sign_discrimination samples a single site
    mc.check_seed(args.seed)


def _mc_row(task: str, parameter: str, est, target: float) -> dict:
    return {
        "task": task,
        "parameter": parameter,
        "estimate": est.mean,
        "standard_error": est.standard_error,
        "target": target,
        "sigmas": est.sigmas_from(target),
    }


def cmd_mc(args) -> int:
    _check_mc_args(args)
    rows = []
    failures = []
    if args.task in ("norm", "all"):
        for n, ring in _mc_norm_cases(args):
            est = mc.estimate_vbs_norm(n, samples=args.samples, seed=args.seed, ring=ring)
            target = mc.vbs_norm_target(n, ring=ring)
            rows.append(_mc_row("norm", f"{'ring' if ring else 'open'} N={n}", est, target))
    if args.task in ("overlap", "all"):
        for mu in range(4):
            for nu in range(4):
                est = mc.estimate_block_overlap(
                    mu, nu, args.length, samples=args.samples, seed=args.seed
                )
                target = mc.block_overlap_target(mu, nu, args.length)
                parameter = f"mu={mu} nu={nu} L={args.length}"
                rows.append(_mc_row("overlap", parameter, est, target))
    for row in rows:
        if row["sigmas"] > mc.SIGMA_BOUND:
            failures.append(
                f"{row['task']} {row['parameter']}: "
                f"estimate {_fmt(row['estimate'])} vs target "
                f"{_fmt(row['target'])} ({_fmt(row['sigmas'])} sigmas)"
            )
    if args.task in ("discriminate", "all"):
        disc = mc.sign_discrimination(samples=args.samples, seed=args.seed)
        for reading, target in (("plus", disc.plus_target), ("minus", disc.minus_target)):
            parameter = f"{reading} reading mu=2 L=1"
            rows.append(_mc_row("discriminate", parameter, disc.estimate, target))
        # the check passes when the data sit on the plus reading only
        if not disc.rejects_minus:
            failures.append(
                "discriminate: the data do not single out the plus reading "
                f"mu=2 L=1 ({_fmt(disc.sigmas_from_plus)} sigmas from plus, "
                f"{_fmt(disc.sigmas_from_minus)} from minus)"
            )
    _emit_tables(args, [(MC_HEADER, rows)])
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    results = vf.run_suites(
        max_sites=args.max_sites,
        tol=args.tol,
        samples=args.samples,
        seed=args.seed,
    )
    rows = [
        {
            "suite": r.suite,
            "check": r.name,
            "passed": r.passed,
            "worst": r.worst,
            "bound": r.bound,
        }
        for r in results
    ]
    _emit_tables(args, [(VERIFY_HEADER, rows)])
    bad = [r for r in results if not r.passed]
    for r in bad:
        print(
            f"check failed: {r.suite}: {r.name}: worst {_fmt(r.worst)} "
            f"exceeds bound {_fmt(r.bound)}",
            file=sys.stderr,
        )
    return 1 if bad else 0


# -------------------------------------------------------------------- sweep


SWEEP_FLAGS = tuple(dict.fromkeys(n for geo in GEOMETRIES.values() for n in geo.names))


def _parse_span(flag: str, text: str):
    lo, colon, hi = text.partition(":")
    try:
        if not colon:
            return int(text)
        start, stop = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--{flag} takes an integer or a range lo:hi, got {text!r}") from None
    if start > stop:
        raise ValueError(f"--{flag} range {text!r} is empty")
    if stop - start >= MAX_SWEEP_POINTS:
        raise ValueError(
            f"--{flag} range {text!r} has {stop - start + 1} points; "
            f"sweep takes at most {MAX_SWEEP_POINTS}"
        )
    return list(range(start, stop + 1))


def cmd_sweep(args) -> int:
    geo = GEOMETRIES[args.command]
    given = {
        name: _parse_span(name, getattr(args, name))
        for name in SWEEP_FLAGS
        if getattr(args, name) is not None
    }
    spans = [name for name, value in given.items() if isinstance(value, list)]
    if len(spans) != 1:
        raise ValueError("sweep takes a range (lo:hi) on exactly one flag")
    (swept,) = spans
    points = [geo.params(**{**given, swept: point}) for point in given[swept]]
    rows = [
        _reports_row(geo.label(params), *reports)
        for params, reports in zip(points, geo.reports(points))
    ]
    _emit_tables(args, [(MEASURES_HEADER, rows)])
    return 0


# ------------------------------------------------------------------- parser


def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The vbsent parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="vbsent",
        description="Closed-form entanglement data for the spin-1 valence-bond chain.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    for name, geo in GEOMETRIES.items():
        p = subs.add_parser(name, help=geo.help)
        for flag, default, _ in geo.flags:
            p.add_argument(f"--{flag}", type=int, default=default, required=default is None)
        _add_common(p)
        p.set_defaults(func=cmd_geometry)

    p = subs.add_parser("mc", help="Monte Carlo battery on the sphere sampler")
    p.add_argument(
        "--task", choices=("norm", "overlap", "discriminate", "all"), default="all"
    )
    p.add_argument("--samples", type=int, default=mc.SAMPLES)
    p.add_argument("--seed", type=int, default=mc.SEED)
    p.add_argument("--length", type=int, default=1)
    p.add_argument("--ring", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_mc)

    p = subs.add_parser(
        "verify",
        help="check the closed forms against the mode operator and the transfer "
        "oracle, the identities, and the Monte Carlo sampler",
    )
    p.add_argument("--max-sites", type=int, default=vf.MAX_SITES)
    p.add_argument("--tol", type=float, default=vf.TOL)
    p.add_argument("--samples", type=int, default=vf.SAMPLES)
    p.add_argument("--seed", type=int, default=vf.SEED)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sweep", help="one measures row per swept parameter value")
    p.add_argument(
        "command", choices=sorted(n for n, geo in GEOMETRIES.items() if geo.flags)
    )
    for flag in SWEEP_FLAGS:
        p.add_argument(f"--{flag}")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
