"""The block geometries of the paper, as one table.

Every case is one construction, two blocks A and B of the chain set by a
few lengths: a block cut from the open chain (`pure`), the cut between
the boundary spin and the chain (`bipartition0`), two blocks at a
distance (`disjoint`) or touching (`adjacent`) on the open chain, two
blocks on a ring (`pbc`), and two equal blocks whose mutual information
is set against its limit (`mutual-info`).  `GEOMETRIES` is keyed by
subcommand name; the CLI subcommands, `sweep` and the verify suites all
read it.

A route points at one derivation: the closed forms, the 16x16 mode
operator or the transfer contraction of `mps_oracle`.  The table never
merges routes: verify's cross-check between them is the point.  The
oracle route reads only the blocks' layout and builds no state, so, like
the mode route, it answers at any length (`MAX_BULK_SITES` does not
bound it) and reports at most 16 eigenvalues per spectrum.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import closed_forms as cf
from . import effective_rho as er
from . import mps_oracle as mo
from .linalg import SpectrumReport, spectrum_reports

Reports = tuple[SpectrumReport, SpectrumReport, float]
Spectra = tuple[SpectrumReport, SpectrumReport]
# the block and partial-transpose eigenvalues of one point
Rows = tuple[list[float], list[float]]


class Geometry(NamedTuple):
    """One geometry: its flags, help, validator and routes.

    `flags` holds (name, default, minimum) in label order; a default of
    None makes the flag required.  Each callable takes the validated
    params as keywords.  A geometry has one of two routes to its Reports,
    the block spectrum, the partial-transpose spectrum and I(A:B), which
    `reports` reads: `closed` returns a point's block and
    partial-transpose eigenvalues from the closed forms, and `sectors`
    returns the Reports of a stack of points and their checked off-sector
    residuals from the mode route's sector form; it takes each flag as the
    list of its values over the points.  A
    two-block geometry has a third route, `oracle`, which returns the
    block and partial-transpose spectra of mps_oracle.layout_spectra on
    the blocks' runs in its chain or ring.  `limit` is the closed-form
    asymptotic I(A:B) that the finite pair is set against.
    """

    name: str
    help: str
    flags: tuple[tuple[str, int | None, int], ...]
    closed: Callable[..., Rows] | None = None
    sectors: Callable[..., tuple[list[Reports], np.ndarray]] | None = None
    oracle: Callable[..., Spectra] | None = None
    limit: Callable[..., float] | None = None
    equal_blocks: bool = False

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.flags)

    def params(self, **given) -> dict:
        """Fill defaults into the given flag values and validate them."""
        extra = sorted(set(given) - set(self.names))
        if extra:
            raise ValueError(f"{self.name} takes no --{extra[0]}")
        params = {}
        for name, default, low in self.flags:
            value = given.get(name, default)
            if value is None:
                raise ValueError(f"{self.name} needs --{name}")
            if value < low:
                raise ValueError(f"{self.name} needs --{name} >= {low}, got {value}")
            params[name] = value
        if self.equal_blocks and params["la"] != params["lb"]:
            raise ValueError(
                f"{self.name} compares equal blocks; pass --la equal to --lb"
            )
        return params

    def label(self, params: dict, head: str | None = None) -> str:
        return " ".join([head or self.name] + [f"{k}={params[k]}" for k in self.names])

    def reports(self, points: list[dict]) -> tuple[list[Reports], list[float]]:
        """One Reports per point of validated params, in order, and the residuals.

        A closed-form geometry reads every point's block eigenvalues in
        one report pass and every point's transpose eigenvalues in
        another, and has no residuals.  A mode geometry takes its points
        in stacks of at most er.STACK_POINTS and evaluates each stack as
        arrays from its lengths to its reports, in sector form (see
        effective_rho), and hands on the checked residuals in stack order.
        Every float equals the one a single-point call gives.
        """
        if self.sectors is not None:
            reports, residuals = [], []
            for start in range(0, len(points), er.STACK_POINTS):
                stack = points[start : start + er.STACK_POINTS]
                columns = {name: [p[name] for p in stack] for name in self.names}
                measured, checked = self.sectors(**columns)
                reports += measured
                residuals += checked.tolist()
            return reports, residuals
        if not points:
            return [], []
        blocks, transposes = zip(*[self.closed(**params) for params in points])
        # the chain as a whole stays pure, so I(A:rest) = 2 S(A)
        pure = [
            (block, pt, 2.0 * block.entropy)
            for block, pt in zip(spectrum_reports(blocks), spectrum_reports(transposes))
        ]
        return pure, []


def _open_oracle(la: int, gap: int, lb: int) -> Spectra:
    """Bulk sites start at 1, after the boundary spin at site 0."""
    return mo.layout_spectra(la + gap + lb, False, [(True, 1, la), (False, 1 + la + gap, lb)])


def _ring_oracle(la: int, lb: int, lc: int, ld: int) -> Spectra:
    """The arcs run C, A, D, B from site 0."""
    runs = [(True, lc, la), (False, lc + la + ld, lb)]
    return mo.layout_spectra(lc + la + ld + lb, True, runs)


GEOMETRIES = {
    g.name: g
    for g in (
        Geometry(
            "pure",
            "single-block bipartition closed forms",
            (("length", None, 1),),
            closed=lambda length: (cf.pure_block_values(length), cf.pure_pt_values(length)),
        ),
        Geometry(
            "bipartition0",
            "single-bond cut (L=0)",
            (),
            closed=lambda: ([0.5, 0.5], cf.bipartition_L0_pt_values()),
        ),
        Geometry(
            "disjoint",
            "two separated blocks on the open chain",
            (("la", None, 1), ("gap", None, 1), ("lb", None, 1)),
            sectors=lambda la, gap, lb: er.open_measures(la, gap, lb),
            oracle=_open_oracle,
        ),
        Geometry(
            "adjacent",
            "two touching blocks on the open chain",
            (("la", None, 1), ("lb", None, 1)),
            sectors=lambda la, lb: er.open_measures(la, [0] * len(la), lb),
            oracle=lambda la, lb: _open_oracle(la, 0, lb),
        ),
        Geometry(
            "pbc",
            "two blocks on a ring",
            (("la", None, 1), ("lb", None, 1), ("lc", None, 0), ("ld", None, 0)),
            sectors=lambda la, lb, lc, ld: er.ring_measures(la, lb, lc, ld),
            oracle=_ring_oracle,
        ),
        Geometry(
            "mutual-info",
            "finite-size vs asymptotic mutual information",
            (("la", 6, 1), ("lb", 6, 1), ("gap", None, 1)),
            sectors=lambda la, lb, gap: er.open_measures(la, gap, lb),
            oracle=_open_oracle,
            limit=lambda la, lb, gap: cf.mutual_information(cf.decay_parameter(gap)),
            equal_blocks=True,
        ),
    )
}
