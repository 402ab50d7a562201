"""Golden output of the command line for a fixed corpus of command lines.

Each line of the corpus is run through ``main(argv)``; its exit code and
stdout must equal the recorded ones byte for byte.  The JSON ``versions``
object names the local numpy and Python, so it is cut from the output
before recording and before comparing; nothing else is.

A spectrum row is one printed eigenvalue with the count of eigenvalues
that print as it.  Eigenvalues and measures within EIG_CLAMP of 0 print
as 0, so the LAPACK round-off of zero eigenvalues is one `0` row and
leaves no trace in the output.  The data is re-recorded with

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate

only when a change of output is intended, or the numeric stack moves a
nonzero digit, never to absorb a defect.
"""

import contextlib
import functools
import io
import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from vbsent import effective_rho
from vbsent.cli import main
from vbsent.linalg import EIG_CLAMP

GOLDEN = Path(__file__).with_name("cli_golden.json")
LENGTHS = (1, 2, 3, 12, 40, 1000)  # z underflows to zero at 1000
VERSIONS = re.compile(r',\n  "versions": \{[^{}]*\}')

SWEEP_FLAGS = {
    "pure": ("length",),
    "disjoint": ("la", "gap", "lb"),
    "adjacent": ("la", "lb"),
    "pbc": ("la", "lb", "lc", "ld"),
    "mutual-info": ("gap",),
}

INVALID = (
    "pure --length 0",
    "pure --length -1",
    "pure",
    "disjoint --la 1 --gap 0 --lb 1",
    "disjoint --la 0 --gap 1 --lb 1",
    "disjoint --la 1 --gap 1",
    "adjacent --la 0 --lb 1",
    "pbc --la 1 --lb 0 --lc 1 --ld 1",
    "pbc --la 1 --lb 1 --lc -1 --ld 1",
    "mutual-info --la 2 --lb 3 --gap 1",
    "mutual-info --gap 0",
    "sweep disjoint --la 1 --gap 1:3",
    "sweep pbc --la 1 --lb 1 --lc 1:2",
    "sweep adjacent --la 1 --lb 2",
    "sweep adjacent --la 1:2 --lb 1:2",
    "sweep pure --length 4:1",
    "sweep pure --length 0:2",
    "sweep disjoint --la 1 --gap 0:2 --lb 1",
    "mc --samples 999",
    "mc --length 0",
    "mc --ring 1",
    "mc --seed -1",
    "verify --max-sites 3",
    "verify --tol -1",
)
MC_SEEDS = (0, 1)
MC_TASKS = (
    "--task norm",
    "--task overlap",
    "--task discriminate",
    "--task all",
    "--task norm --ring 3",
    "--task norm --ring 6",
    "--task overlap --length 2",
    "--task overlap --length 3",
)


def corpus() -> list[str]:
    lines = []
    for fmt in ("csv", "json"):
        tail = f" --format {fmt}"
        lines.append("bipartition0" + tail)
        for n in LENGTHS:
            lines += [
                f"pure --length {n}" + tail,
                f"disjoint --la {n} --gap {n} --lb {n}" + tail,
                f"adjacent --la {n} --lb {n}" + tail,
                f"pbc --la {n} --lb {n} --lc {n} --ld {n}" + tail,
                f"mutual-info --la {n} --lb {n} --gap {n}" + tail,
            ]
        lines += [f"mutual-info --gap {gap}" + tail for gap in (1, 2)]
        lines.append("pbc --la 2 --lb 1 --lc 0 --ld 1" + tail)
        for command, flags in SWEEP_FLAGS.items():
            for swept in flags:
                spans = " ".join(
                    f"--{f} {'1:3' if f == swept else 2}" for f in flags
                )
                lines.append(f"sweep {command} {spans}" + tail)
        lines.append("sweep pure --length 999:1001" + tail)
        for task, seed in itertools.product(MC_TASKS, MC_SEEDS):
            lines.append(f"mc {task} --samples 1000 --seed {seed}" + tail)
        lines.append("verify" + tail)
    # several sampler row blocks and a partial last one
    lines.append("mc --task norm --samples 50007 --seed 3")
    # round-off checks fail at zero tolerance, so verify exits 1
    lines.append("verify --max-sites 4 --samples 1000 --tol 0")
    # the ring suite's grid past the default site budget
    lines.append("verify --max-sites 10")
    return lines + list(INVALID)


def run_line(line: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(line.split())
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    text, cuts = VERSIONS.subn("", out.getvalue())
    if cuts != ("--format json" in line and code == 0):
        raise AssertionError(f"{line}: {cuts} versions objects cut")
    return {"code": code, "stdout": text}


@functools.cache
def _recorded() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus():
    assert sorted(_recorded()) == sorted(corpus())


@pytest.mark.parametrize("line", corpus())
def test_cli_output_matches_golden(line):
    expected = _recorded()[line]
    got = run_line(line)
    assert got["code"] == expected["code"]
    assert got["stdout"] == expected["stdout"]
    if line in INVALID:
        assert got["code"] == 2 and got["stdout"] == ""


def test_round_off_on_zero_mode_eigenvalues_leaves_the_output_unchanged(monkeypatch):
    # another numeric stack prints other round-off for the zero eigenvalues
    # of the mode spectra; +-1e-15 on each must not move a byte.  The noise
    # goes on the sector solve's 16 values per operator, singlet, triplet
    # and quintet levels alike, each copy of a level on its own.  Nonzero
    # eigenvalues stay exact: their round-off moves the trailing digits of
    # measures that cancel, as a mutual information of 5e-12, whatever the
    # display does.  verify is left out, as its rows print round-off.  The
    # noise goes in where the sector route hands its values to the report
    # pass.
    rng = np.random.default_rng(0)
    read = effective_rho._triples

    perturbed = []

    def noisy(values, diagonals):
        zeros = np.abs(values) <= EIG_CLAMP
        perturbed.append(int(zeros.sum()))
        noise = np.where(zeros, rng.choice([-1e-15, 1e-15], size=values.shape), 0.0)
        return read(values + noise, diagonals)

    monkeypatch.setattr(effective_rho, "_triples", noisy)
    lines = [line for line in corpus() if not line.startswith("verify")]
    changed = [line for line in lines if run_line(line) != _recorded()[line]]
    assert changed == []
    assert sum(perturbed) > 0

if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: python tests/test_cli_golden.py --regenerate")
    data = {line: run_line(line) for line in corpus()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} lines to {GOLDEN}")
