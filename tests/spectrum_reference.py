"""The one-spectrum statistics, written out on a 1-D array.

`linalg.spectrum_reports` reads every row of an eigenvalue array in one
pass, grouping rows by their counts of clamped values.  This is the
plain per-spectrum reading it must agree with bitwise, kept apart from
the package so that the two are never one code path.
"""

import math

import numpy as np

from vbsent.linalg import EIG_CLAMP, SpectrumReport


def reference_report(values) -> SpectrumReport:
    """The SpectrumReport of one list of real eigenvalues."""
    vals = np.sort(np.asarray(values, dtype=float))
    trace = float(vals.sum())
    neg = float(-vals[vals < -EIG_CLAMP].sum())
    trace_norm = trace + 2.0 * neg
    positive = vals[vals > EIG_CLAMP]
    entropy = float(-(positive * np.log(positive)).sum())
    return SpectrumReport(
        eigenvalues=tuple(vals.tolist()),
        trace=trace,
        negativity=neg,
        log_negativity=math.log2(trace_norm),
        entropy=entropy,
        purity=float((vals**2).sum()),
    )
