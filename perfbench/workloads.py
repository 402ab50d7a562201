"""The four workloads: op generators, op execution and correctness checks.

Every workload yields its ops in rounds.  A round has a fixed composition
(how many ops of each kind and cost class) and the seed only picks the
parameters inside each slot, so the latency distribution of a run barely
depends on the seed.  The runner stops at round boundaries, so a run never
ends on a partial round that would skew the mix.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import vbsent.cli
from vbsent import closed_forms as cf
from vbsent import effective_rho as er
from vbsent import sphere_mc as mc

from prepare import prepare

# CLI output is rounded to 12 significant digits and eigenvalues within
# cli.GROUP_DISPLAY_TOL = 1e-9 of each other are printed as one group mean,
# so printed values can sit a few 1e-9 from the routes that produced them.
DISPLAY_TOL = 1e-8
# verify's own bounds for dense-vs-mode spectra and transpose positivity
SPECTRUM_TOL = 1e-10
POSITIVITY_TOL = 1e-12
SIGMA_BOUND = 4.0
# Where the closed forms are known to be wrong (README.md, "Known
# defect"): disjoint_spectrum once any length reaches 10, and
# adjacent_pt_spectrum once a block reaches 17.  A disagreement there, or
# a closed form that raises, is counted; anywhere else it fails the op.
DISJOINT_DEFECT_LENGTH = 10
ADJACENT_DEFECT_LENGTH = 17
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    kind: str
    params: dict
    label: str = ""


@dataclass
class Outcome:
    ok: bool
    note: str = ""
    # closed-form referee comparisons, and the disagreements that fall in
    # the closed forms' known-defect region, which are counted, not failed
    referee_checked: int = 0
    referee_mismatches: list = field(default_factory=list)


def _length(rng) -> int:
    """A block or gap length, mostly 1..12 with a tail up to ~1000, where
    z = (-1/3)^L underflows.  The tail's share is not measured anywhere;
    one draw in ten, log-uniform over 13..1000, is assumed."""
    if rng.random() < 0.9:
        return rng.randint(1, 12)
    return int(round(10 ** rng.uniform(math.log10(13), 3)))


def _spectrum_gap(a, b) -> float:
    """Worst gap between two spectra as multisets, shorter one zero-padded."""
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    size = max(x.size, y.size)
    x = np.sort(np.concatenate([x, np.zeros(size - x.size)]))
    y = np.sort(np.concatenate([y, np.zeros(size - y.size)]))
    return float(np.max(np.abs(x - y))) if size else 0.0


# ------------------------------------------------------- geometry-queries

# The benchmark's specification lists seven query kinds and no traffic
# shares, so each kind is assumed to be equally common: a round is every
# kind twice, once as CSV and once as JSON.
GEOMETRY_KINDS = ("pure", "bipartition0", "disjoint", "adjacent", "pbc", "mutual-info", "sweep")
FORMATS = ("csv", "json")
SWEEP_FLAGS = {
    "pure": ("length",),
    "disjoint": ("la", "gap", "lb"),
    "adjacent": ("la", "lb"),
    "pbc": ("la", "lb", "lc", "ld"),
    "mutual-info": ("gap",),
}
SWEEP_POINTS = (10, 200)


class GeometryQueries:
    name = "geometry-queries"

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self):
        prepare(self.name)

    def round(self, rng) -> list[Op]:
        ops = []
        for kind in GEOMETRY_KINDS:
            for i, fmt in enumerate(FORMATS):
                if kind == "sweep":
                    ops.append(self._sweep(rng, i, len(FORMATS), fmt))
                else:
                    ops.append(self._single(rng, kind, fmt))
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, rng) -> list[Op]:
        return self.round(rng)

    def _single(self, rng, kind: str, fmt: str) -> Op:
        params = {}
        if kind == "pure":
            params = {"length": _length(rng)}
        elif kind == "disjoint":
            params = {"la": _length(rng), "gap": _length(rng), "lb": _length(rng)}
        elif kind == "adjacent":
            params = {"la": _length(rng), "lb": _length(rng)}
        elif kind == "pbc":
            params = {f: _length(rng) for f in ("la", "lb", "lc", "ld")}
        elif kind == "mutual-info":
            side = _length(rng)
            params = {"la": side, "lb": side, "gap": _length(rng)}
        argv = [kind] + [x for k, v in params.items() for x in (f"--{k}", str(v))]
        argv += ["--format", fmt]
        return Op(kind, {"argv": argv, "values": params, "format": fmt})

    def _sweep(self, rng, slot: int, slots: int, fmt: str) -> Op:
        # point counts are uniform over 10..200, stratified across the
        # round's sweeps so that each round's sweep work is near-constant
        lo_pts, hi_pts = SWEEP_POINTS
        points = lo_pts + int((slot + rng.random()) / slots * (hi_pts - lo_pts + 1))
        points = min(points, hi_pts)
        command = rng.choice(sorted(SWEEP_FLAGS))
        flags = SWEEP_FLAGS[command]
        swept = rng.choice(flags)
        values = {f: _length(rng) for f in flags}
        start = rng.randint(1, 12)
        argv = ["sweep", command]
        for f in flags:
            text = f"{start}:{start + points - 1}" if f == swept else str(values[f])
            argv += [f"--{f}", text]
        argv += ["--format", fmt]
        params = {"argv": argv, "values": values, "format": fmt, "command": command,
                  "swept": swept, "points": list(range(start, start + points))}
        return Op("sweep", params)

    def execute(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = vbsent.cli.main(op.params["argv"])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    # ------------------------------------------------------------ checks

    def check(self, op: Op, result) -> Outcome:
        code, out, err = result
        if code != 0 or err:
            return Outcome(False, f"exit {code}: {err.strip()[:200]}")
        try:
            spectra, measures = _parse_tables(out, op.params["format"])
        except (ValueError, KeyError) as exc:
            return Outcome(False, f"unparsable output: {exc}")
        if op.kind == "sweep":
            return self._check_sweep(op, measures)
        if op.kind == "mutual-info":
            return self._check_mutual_info(op, measures)
        return self._check_spectra(op, spectra, measures)

    def _check_spectra(self, op, spectra, measures) -> Outcome:
        groups: dict[str, list] = {}
        for row in spectra:
            groups.setdefault(row["geometry"].rsplit(" ", 1)[1], []).extend(
                [row["eigenvalue"]] * int(row["multiplicity"])
            )
        if set(groups) != {"block", "transpose"} or len(measures) != 1:
            return Outcome(False, f"unexpected tables: {sorted(groups)}, {len(measures)} rows")
        block, pt = groups["block"], groups["transpose"]
        for name, vals in (("block", block), ("transpose", pt)):
            if abs(math.fsum(vals) - 1.0) > DISPLAY_TOL:
                return Outcome(False, f"{name} spectrum traces to {math.fsum(vals)!r}")
        row = measures[0]
        negativity = -math.fsum(v for v in pt if v < -POSITIVITY_TOL)
        purity = math.fsum(v * v for v in block)
        for name, printed, derived in (
            ("negativity", row["negativity"], negativity),
            ("purity", row["purity"], purity),
        ):
            if abs(printed - derived) > DISPLAY_TOL:
                return Outcome(False, f"{name} row {printed!r} != spectrum {derived!r}")
        outcome = Outcome(True)
        vals = op.params["values"]
        where = " ".join(op.params["argv"][:-2])
        if op.kind == "disjoint":
            _referee(outcome, where, lambda: cf.disjoint_spectrum(
                vals["la"], vals["gap"], vals["lb"]).eigenvalues, block, _disjoint_defect(vals))
        elif op.kind == "adjacent":
            _referee(outcome, where, lambda: cf.adjacent_pt_spectrum(
                vals["la"], vals["lb"]).eigenvalues, pt,
                max(vals["la"], vals["lb"]) >= ADJACENT_DEFECT_LENGTH)
            _referee(outcome, where, lambda: [cf.adjacent_pt_negativity(
                vals["la"], vals["lb"]).negativity], [negativity], False)
        # pbc has no closed form; the dense oracle referees rho_ab_pbc on
        # every ring report of oracle-referee
        return outcome

    def _check_mutual_info(self, op, measures) -> Outcome:
        if len(measures) != 3:
            return Outcome(False, f"expected 3 measures rows, got {len(measures)}")
        vals = op.params["values"]
        finite, asym, diff = (r["mutual_information"] for r in measures)
        expected = cf.mutual_information(cf.decay_parameter(vals["gap"]))
        if abs(asym - expected) > DISPLAY_TOL or abs(finite - asym - diff) > DISPLAY_TOL:
            return Outcome(False, f"mutual-info rows inconsistent: {finite}, {asym}, {diff}")
        outcome = Outcome(True)
        where = " ".join(op.params["argv"][:-2])
        _referee_finite(outcome, where, vals["la"], vals["gap"], measures[0])
        return outcome

    def _check_sweep(self, op, measures) -> Outcome:
        points = op.params["points"]
        if len(measures) != len(points):
            return Outcome(False, f"{len(measures)} rows for {len(points)} points")
        for row in measures:
            if not 0.0 < row["purity"] <= 1.0 + DISPLAY_TOL or row["entropy"] < -DISPLAY_TOL:
                return Outcome(False, f"row out of range: {row}")
        outcome = Outcome(True)
        command, swept = op.params["command"], op.params["swept"]
        for point, row in zip(points, measures):
            vals = dict(op.params["values"], **{swept: point})
            where = f"{' '.join(op.params['argv'][:-2])} at {point}"
            if command == "disjoint":
                _referee(outcome, where, lambda v=vals: [cf.disjoint_spectrum(
                    v["la"], v["gap"], v["lb"]).entropy], [row["entropy"]], _disjoint_defect(vals))
            elif command == "adjacent":
                _referee(outcome, where, lambda v=vals: [cf.adjacent_pt_negativity(
                    v["la"], v["lb"]).negativity], [row["negativity"]], False)
            elif command == "mutual-info":
                # the CLI sweeps the gap at fixed blocks la = lb = 6
                _referee_finite(outcome, where, 6, vals["gap"], row)
        return outcome


def _disjoint_defect(vals: dict) -> bool:
    return max(vals["la"], vals["gap"], vals["lb"]) >= DISJOINT_DEFECT_LENGTH


def _referee_finite(outcome: Outcome, where: str, side: int, gap: int, row: dict) -> None:
    """Entropy, purity and I(A:B) of two equal blocks from the closed forms:
    I = 2 S(pure block) - S(disjoint pair)."""
    def closed_form():
        pair = cf.disjoint_spectrum(side, gap, side)
        mutual = 2.0 * cf.pure_block_spectrum(side).entropy - pair.entropy
        return [pair.entropy, pair.purity, mutual]

    defect = _disjoint_defect({"la": side, "gap": gap, "lb": side})
    _referee(outcome, where, closed_form,
             [row["entropy"], row["purity"], row["mutual_information"]], defect)


def _referee(outcome: Outcome, where: str, closed_form, printed, known_defect: bool) -> None:
    """Compare printed mode-operator values with the closed-form route.

    A disagreement fails the op unless it lies in the known-defect region
    or the closed form raises, in which case it is only counted.
    """
    outcome.referee_checked += 1
    try:
        gap = _spectrum_gap(closed_form(), printed)
    except ValueError as exc:
        gap, detail, known_defect = math.inf, f"closed form raised: {exc}", True
    else:
        detail = f"gap {gap:.3e}"
    if gap <= DISPLAY_TOL:
        return
    note = f"{where}: closed form disagrees, {detail}"
    if known_defect:
        outcome.referee_mismatches.append(note)
    elif outcome.ok:
        outcome.ok, outcome.note = False, note


def _parse_tables(text: str, fmt: str):
    if fmt == "json":
        results = json.loads(text)["results"]
        return results.get("spectra", []), results.get("measures", [])
    spectra, measures = [], []
    for block in text.strip().split("\n\n"):
        rows = list(csv.reader(block.splitlines()))
        header, body = tuple(rows[0]), rows[1:]
        if header == vbsent.cli.SPECTRA_HEADER:
            target = spectra
        elif header == vbsent.cli.MEASURES_HEADER:
            target = measures
        else:
            raise ValueError(f"unknown table header {header}")
        for cells in body:
            row = {"geometry": cells[0]}
            for key, cell in zip(header[1:], cells[1:]):
                row[key] = float(cell) if cell else None
            target.append(row)
    return spectra, measures


# --------------------------------------------------------- oracle-referee

# The specification names the geometries (open chains and rings of 4..9
# bulk sites, 2..7 kept sites) but no traffic shares, so every (kept
# sites, boundary, N) class that fits is assumed equally common: a round
# is each class once, 51 reports.  Rings keep both gaps >= 1.  The seed picks the block split
# and the placement inside each class.  Draws stop at 7 kept sites: an
# 8-kept-site report at N=9 took 142 s and 3.3 GB (README.md).
MAX_KEPT = 7
ORACLE_ROUND = tuple(
    (kept, boundary, n)
    for n in range(4, 10)
    for boundary, most in (("open", n), ("ring", n - 2))
    for kept in range(2, min(most, MAX_KEPT) + 1)
)
TINY_MAX_KEPT = 4


class OracleReferee:
    name = "oracle-referee"

    def __init__(self, tiny: bool = False):
        self.slots = [s for s in ORACLE_ROUND if not tiny or s[0] <= TINY_MAX_KEPT]
        self.states = {}

    def setup(self):
        self.states = prepare(self.name)

    def round(self, rng) -> list[Op]:
        ops = [self._geometry(rng, *slot) for slot in self.slots]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, rng) -> list[Op]:
        return [op for op in self.round(rng) if op.params["kept"] <= 5]

    def _geometry(self, rng, kept: int, boundary: str, n: int) -> Op:
        la = rng.randint(1, kept - 1)
        lb = kept - la
        if boundary == "open":
            gap = rng.randint(0, n - kept)
            offset = rng.randint(0, n - kept - gap)
            # site 0 is the left boundary spin-1/2, bulk sites are 1..n
            a = [1 + offset + j for j in range(la)]
            b = [1 + offset + la + gap + j for j in range(lb)]
            geom = {"la": la, "gap": gap, "lb": lb}
        else:
            lc = rng.randint(1, n - kept - 1)
            ld = n - kept - lc
            rot = rng.randrange(n)
            a = [(rot + lc + j) % n for j in range(la)]
            b = [(rot + lc + la + ld + j) % n for j in range(lb)]
            geom = {"la": la, "lb": lb, "lc": lc, "ld": ld}
        label = f"{boundary} N={n} " + " ".join(f"{k}={v}" for k, v in geom.items())
        return Op(boundary, {"n": n, "a": a, "b": b, "geom": geom, "kept": kept}, label)

    def execute(self, op: Op):
        state = self.states[(op.kind, op.params["n"])]
        return vbsent.entanglement_report(state, op.params["a"], op.params["b"])

    def check(self, op: Op, result) -> Outcome:
        ed, ed_pt = result
        g = op.params["geom"]
        if op.kind == "ring":
            mode = er.rho_ab_pbc(g["la"], g["lb"], g["lc"], g["ld"])
            gaps_apart = g["lc"] >= 1 and g["ld"] >= 1
        elif g["gap"] >= 1:
            mode = er.rho_ab_open(g["la"], g["gap"], g["lb"])
            gaps_apart = True
        else:
            mode = er.rho_ab_adjacent(g["la"], g["lb"])
            gaps_apart = False
        gap = _spectrum_gap(ed.eigenvalues, mode.spectrum().eigenvalues)
        if gap > SPECTRUM_TOL:
            return Outcome(False, f"{op.label}: dense vs mode spectrum gap {gap:.3e}")
        low = min(ed_pt.eigenvalues)
        if gaps_apart and low < -POSITIVITY_TOL:
            return Outcome(False, f"{op.label}: transpose eigenvalue {low:.3e} < 0")
        return Outcome(True)


# ------------------------------------------------------------ mc-sampling

# Samples times sites per norm estimate.  Fixing the product keeps norm
# ops at one cost class for every N and caps memory: SphereConfig stores
# 72 B per sample-site, so 2.4e6 sample-sites hold ~170 MiB of arrays.
NORM_SAMPLE_SITES = 2_400_000
OVERLAP_SAMPLES = 1_000_000
TINY_SCALE = 100
# The specification lists the cases and no traffic shares, so every case
# is assumed equally common: a round is each case once, 63 estimates.  The seed picks
# only the sample seeds.
OPEN_NORM_SITES = range(1, 9)
RING_NORM_SITES = range(3, 9)
OVERLAP_LENGTHS = (1, 2, 3)


class McSampling:
    name = "mc-sampling"

    def __init__(self, tiny: bool = False):
        self.scale = TINY_SCALE if tiny else 1

    def setup(self):
        prepare(self.name)

    def round(self, rng) -> list[Op]:
        seed = lambda: rng.randrange(2**31)  # noqa: E731
        ops = []
        for n, ring in [(n, False) for n in OPEN_NORM_SITES] + [(n, True) for n in RING_NORM_SITES]:
            sites = n if ring else n + 2  # an open chain adds two boundary spins
            ops.append(Op("norm", {"n": n, "ring": ring, "seed": seed(),
                                   "samples": NORM_SAMPLE_SITES // self.scale // sites}))
        for mu, nu, length in itertools.product(range(4), range(4), OVERLAP_LENGTHS):
            ops.append(Op("overlap", {"mu": mu, "nu": nu, "length": length, "seed": seed(),
                                      "samples": OVERLAP_SAMPLES // self.scale // length}))
        ops.append(Op("sign", {"seed": seed(), "samples": OVERLAP_SAMPLES // self.scale}))
        for op in ops:
            op.label = f"{op.kind} " + " ".join(f"{k}={v}" for k, v in op.params.items())
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, rng) -> list[Op]:
        ops = self.round(rng)
        for op in ops:
            op.params["samples"] = max(mc.MIN_SAMPLES, op.params["samples"] // 100)
        return ops

    def execute(self, op: Op):
        p = op.params
        if op.kind == "norm":
            return vbsent.estimate_vbs_norm(p["n"], samples=p["samples"], seed=p["seed"], ring=p["ring"])
        if op.kind == "overlap":
            return vbsent.estimate_block_overlap(
                p["mu"], p["nu"], p["length"], samples=p["samples"], seed=p["seed"])
        return mc.sign_discrimination(samples=p["samples"], seed=p["seed"])

    def check(self, op: Op, result) -> Outcome:
        p = op.params
        if op.kind == "sign":
            ok = result.rejects_minus
            sigmas = result.sigmas_from_plus
        else:
            if op.kind == "norm":
                target = mc.vbs_norm_target(p["n"], ring=p["ring"])
            else:
                target = mc.block_overlap_target(p["mu"], p["nu"], p["length"])
            sigmas = result.sigmas_from(target)
            ok = sigmas <= SIGMA_BOUND
        return Outcome(ok, "" if ok else f"{op.label}: {sigmas:.2f} sigmas from target")


# --------------------------------------------------------- verify-battery


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], src: str, cwd: str, timeout: float = CHILD_TIMEOUT_S):
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(argv, capture_output=True, text=True, env=child_env(src),
                          cwd=cwd, timeout=timeout, check=False)


class VerifyBattery:
    name = "verify-battery"

    def __init__(self, tiny: bool, src: str, root: str, seed: int):
        self.tiny = tiny
        self.src, self.root, self.seed = src, root, seed
        self.trace_file = None  # set by the runner for traced ops

    def setup(self):
        prepare(self.name)

    def round(self, rng) -> list[Op]:
        argv = ["verify", "--format", "json", "--seed", str(self.seed)]
        if self.tiny:
            argv += ["--max-sites", "4"]
        return [Op("verify", {"argv": argv}, " ".join(argv))]

    def warmup_ops(self, rng) -> list[Op]:
        return []

    def execute(self, op: Op):
        if self.trace_file is None:
            argv = [sys.executable, "-m", "vbsent.cli", *op.params["argv"]]
        else:
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
            argv = [sys.executable, child, "traced-cli", self.trace_file, *op.params["argv"]]
        return run_child(argv, self.src, self.root)

    def check(self, op: Op, proc) -> Outcome:
        if proc.returncode != 0:
            return Outcome(False, f"exit {proc.returncode}: {proc.stderr.strip()[:300]}")
        try:
            rows = json.loads(proc.stdout)["results"]["checks"]
        except (ValueError, KeyError) as exc:
            return Outcome(False, f"unparsable verify output: {exc}")
        bad = [f"{r['suite']}: {r['check']}" for r in rows if not r["passed"]]
        if not rows or bad:
            return Outcome(False, f"{len(rows)} rows, failed: {bad[:5]}")
        return Outcome(True)


WORKLOADS = {
    w.name: w for w in (GeometryQueries, OracleReferee, VerifyBattery, McSampling)
}
