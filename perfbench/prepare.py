"""Lazy set-up each workload needs before its first op.

Kept free of benchmark imports so that ``child.py setup`` times only
``import vbsent`` and this set-up in a fresh interpreter.
"""

# The oracle workload reads states of 4..9 bulk sites.  verify caches its
# states the same way, one per N, so building them is set-up, not op time.
ORACLE_BULK_SITES = range(4, 10)


def prepare(workload: str) -> dict:
    """Import what the workload's ops call and build its cached inputs."""
    import vbsent

    states = {}
    if workload in ("geometry-queries", "verify-battery"):
        import vbsent.cli  # noqa: F401  (the op imports it; `-m vbsent.cli` too)
    elif workload == "oracle-referee":
        for n in ORACLE_BULK_SITES:
            states[("open", n)] = vbsent.build_open_chain(n)
            states[("ring", n)] = vbsent.build_ring(n)
    return states
