"""Every route's SpectrumReport reads its own eigenvalues as the reference does.

The closed forms, the transfer oracle, the Schmidt and end-block forms,
the mode operator and the geometry table all hand their eigenvalues to
one statistics body in `linalg`.  Each report must equal the plain
per-spectrum reading of its own eigenvalues: nothing a route does after
that body, and no row it shares a pass with, may move a statistic.  The
statistics are compared by repr, which tells every float (and -0.0)
apart.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vbsent import closed_forms as cf
from vbsent import effective_rho as er
from vbsent import mps_oracle as mo
from vbsent.geometry import GEOMETRIES
from spectrum_reference import reference_report

# short blocks give clamped zeros (w_singlet(1) = 0) and negative transpose
# eigenvalues; from 679 on, z underflows to a signed zero
_LENGTHS = st.one_of(st.integers(1, 4), st.integers(1, 1000), st.integers(679, 1000))
_GAPS = st.one_of(st.integers(0, 2), st.integers(0, 1000), st.integers(679, 1000))


def _assert_read_as_reference(reports):
    for report in reports:
        want = reference_report(report.eigenvalues)
        # numpy's sort may flip the sign of a zero it moves, so sorting
        # sorted values again keeps them only up to signed zeros; every
        # statistic is compared bitwise
        assert report.eigenvalues == want.eigenvalues
        assert repr(replace(want, eigenvalues=report.eigenvalues)) == repr(report)


def _closed_forms(la: int, gap: int, lb: int) -> list:
    reports = [
        cf.pure_block_spectrum(la),
        cf.pure_pt_spectrum(la),
        cf.bipartition_L0_pt_spectrum(),
        cf.adjacent_pt_spectrum(la, lb),
        cf.asymptotic_disjoint_spectrum(
            cf.decay_parameter(la), cf.decay_parameter(lb), cf.decay_parameter(gap)
        ).report(),
    ]
    try:
        reports.append(cf.disjoint_spectrum(la, gap, lb))
    except ValueError as exc:
        # the cubic's roots are lost at some lengths, a defect of the
        # roots that leaves no report to read here
        assert "arccos argument" in str(exc)
    return reports


def _oracle(la: int, lc: int, lb: int, ld: int) -> list:
    reports = []
    for ring in (False, True):
        # on the chain, C's arc starts after the boundary spin at site 0
        first = lc if ring else 1 + lc
        n_bulk = lc + la + ld + lb
        two = mo.layout_spectra(n_bulk, ring, [(True, first, la), (False, first + la + ld, lb)])
        one = mo.layout_spectra(n_bulk, ring, [(True, first, la)])
        reports += [*two, *one, mo.schmidt_pt_spectrum(one[0].eigenvalues)]
    return reports


def _mode_operators(la: int, gap: int, lb: int, lc: int, ld: int) -> list:
    ops = [er.rho_ab_open(la, gap, lb), er.rho_ab_adjacent(la, lb), er.rho_ab_pbc(la, lb, lc, ld)]
    reports = [op.spectrum() for op in ops]
    reports += [er.mode_partial_transpose(op).spectrum() for op in ops]
    return reports + list(er.rho_ce_spectra(gap))


def _geometry_tables(la: int, gap: int, lb: int, lc: int, ld: int) -> list:
    given = dict(length=la, la=la, gap=gap, lb=lb, lc=lc, ld=ld)
    reports = []
    for geo in GEOMETRIES.values():
        values = {name: given[name] for name in geo.names}
        if geo.equal_blocks:
            values["lb"] = values["la"]
        [(block, transpose, _)] = geo.reports([geo.params(**values)])
        reports += [block, transpose]
    return reports


@settings(max_examples=60, deadline=None)
@given(la=_LENGTHS, gap=_LENGTHS, lb=_LENGTHS, lc=_GAPS, ld=_GAPS)
@example(la=1, gap=1, lb=1, lc=0, ld=0)
@example(la=679, gap=1000, lb=2, lc=679, ld=1)
@example(la=12, gap=12, lb=12, lc=1, ld=1)  # disjoint_spectrum raises here
def test_every_route_reports_its_eigenvalues_as_the_reference(la, gap, lb, lc, ld):
    _assert_read_as_reference(_closed_forms(la, gap, lb))
    _assert_read_as_reference(_oracle(la, lc, lb, ld))
    _assert_read_as_reference(_mode_operators(la, gap, lb, lc, ld))
    _assert_read_as_reference(_geometry_tables(la, gap, lb, lc, ld))
