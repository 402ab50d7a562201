"""Smoke run of the benchmark at its tiny size (about half a minute).

    python3 perfbench/smoke.py

Asserts, for every workload in BENCHMARK.json, that an untraced run prints
all six end-to-end metrics by name and unit (four in the result line, plus
op_tail_ms and failed_frac in the report) with no failed op; that a traced
run prints exactly the per-layer metrics of BENCHMARK.json with their units;
and that in a directory holding only BENCHMARK.json and perfbench/ the
benchmark exits non-zero without printing a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_ONLY = ("op_tail_ms", "failed_frac")


def run(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"ops failed: {proc.stdout[-2000:]}")
    return result


def expect_metrics(result: dict, spec: list, where: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise AssertionError(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} is not a number: {m['value']!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        proc = run(workload, 0)
        result = result_of(proc)
        expect_metrics(result, bench["end_to_end"], workload)
        if any(m["value"] <= 0 for m in result["metrics"].values()):
            raise AssertionError(f"{workload}: an end-to-end metric is not positive")
        for name in REPORT_ONLY:
            if not any(line.startswith(name) for line in proc.stdout.splitlines()):
                raise AssertionError(f"{workload}: report lacks {name}")
        print(f"ok  {workload}: end-to-end metrics and report lines present")

    first = bench["workloads"][0]["name"]
    expect_metrics(result_of(run(first, 1)), bench["per_layer"], f"{first} traced")
    print(f"ok  {first} traced: {len(bench['per_layer'])} per-layer metrics present")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(first, 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        raise AssertionError(f"bare directory run did not fail cleanly: {proc.stdout[-500:]}")
    print("ok  bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
