"""Child-process entry points of the benchmark.

    child.py setup <workload>
        Time `import vbsent` plus the workload's lazy set-up in this fresh
        interpreter; prints the seconds.
    child.py suite <name> <max_sites>
        Time verify.run_suites(names=[name]) with cold caches; prints JSON.
    child.py traced-cli <spans.json> <vbsent argv...>
        Run the vbsent CLI with spans around every layer and write the spans.

PYTHONPATH must hold the repository's src directory.
"""
import sys
import time


def _setup(workload: str) -> None:
    start = time.perf_counter()
    from prepare import prepare

    prepare(workload)
    print(repr(time.perf_counter() - start))


def _suite(name: str, max_sites: str) -> None:
    import json

    from vbsent.verify import run_suites

    start = time.perf_counter()
    rows = run_suites(names=[name], max_sites=int(max_sites))
    elapsed = time.perf_counter() - start
    failed = sum(1 for r in rows if not r.passed)
    print(json.dumps({"ms": elapsed * 1e3, "checks": len(rows), "failed": failed}))


def _traced_cli(out_path: str, argv: list[str]) -> int:
    import json

    root_start = time.perf_counter_ns()
    import vbsent.cli

    import_end = time.perf_counter_ns()
    from spans import Tracer

    tracer = Tracer().install()
    root = tracer.begin_op(0, "child", layer="process")
    tracer.spans.append(["import vbsent.cli", "import", root_start, import_end, root, 0, None])
    tracer.spans[root][2] = root_start
    try:
        code = vbsent.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.end_op(root)
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        _setup(*rest)
    elif mode == "suite":
        _suite(*rest)
    elif mode == "traced-cli":
        return _traced_cli(rest[0], rest[1:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
