"""vbsent benchmark: one closed-loop client, one process, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a repository checkout; the package is imported from
./src the way the tier-1 tests do (PYTHONPATH=src).  Workloads:
geometry-queries, oracle-referee, verify-battery, mc-sampling (see
perfbench/README.md for why each exists and what it measures).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs the fixed layer battery (one traced round of every workload at seed
0) and reports the per-layer metrics; it first replays the workload's
battery round untraced, so that traced minus untraced is the tracing
overhead.  Every op's answer is checked;
the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Details go to .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 9
IMPORT_REPS = 3
BATTERY_SEED = 0
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
MIB = 2**20
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


# ------------------------------------------------------------- measuring


@dataclass
class Window:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    wall: float = 0.0
    checking: float = 0.0  # time in correctness checks, kept out of `wall`
    referee_checked: int = 0
    referee_mismatches: list = field(default_factory=list)

    def add(self, other: "Window") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failures += other.failures
        self.referee_checked += other.referee_checked
        self.referee_mismatches += other.referee_mismatches


class Runner:
    """Executes ops closed loop: the next op starts when the previous ends."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_id = 0
        self.op_slice: dict[int, str] = {}

    def run_op(self, workload, op, window: Window) -> None:
        self.op_id += 1
        window.attempted += 1
        tracer = self.tracer
        traced_child = tracer is not None and hasattr(workload, "trace_file")
        if hasattr(workload, "trace_file"):
            workload.trace_file = (str(OUT / "tmp" / f"child-spans-{os.getpid()}.json")
                                   if traced_child else None)
        if tracer is not None:
            self.op_slice[self.op_id] = workload.name
            idx = tracer.begin_op(self.op_id, op.label or op.kind)
        error = None
        start = time.perf_counter()
        try:
            result = workload.execute(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = "".join(traceback.format_exception_only(exc)).strip()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(idx)
            if traced_child and error is None:
                with open(workload.trace_file) as fh:
                    tracer.adopt(json.load(fh), idx)
        if error is None:
            check_start = time.perf_counter()
            outcome = workload.check(op, result)
            window.checking += time.perf_counter() - check_start
            window.referee_checked += outcome.referee_checked
            window.referee_mismatches += outcome.referee_mismatches
            if outcome.ok:
                window.latencies.append(elapsed)
                return
            error = outcome.note
        window.failures.append(f"{op.label or ' '.join(op.params.get('argv', []))}: {error}")

    def window(self, workload, rng, seconds: float, probes=None) -> Window:
        """Whole rounds until `seconds` of op time have passed.

        Set-up probes, if given, run between ops spread over the window, so
        they see the same machine conditions as the ops.  Their time and the
        time of the correctness checks are excluded from the window's wall
        time.
        """
        window = Window()
        start = time.perf_counter()
        paused = 0.0

        def busy() -> float:
            return time.perf_counter() - start - paused - window.checking

        while busy() < seconds:
            for op in workload.round(rng):
                self.run_op(workload, op, window)
                if probes is not None:
                    paused += probes.maybe_run(busy() / seconds)
        window.wall = busy()
        return window


def percentile_tail(latencies: list) -> tuple[float, float] | None:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def make_workload(wl, name: str, seed: int, tiny: bool):
    if name == "verify-battery":
        return wl.VerifyBattery(tiny, src=str(SRC), root=str(ROOT), seed=seed)
    return wl.WORKLOADS[name](tiny)


def start_workload(wl, name: str, seed: int, tiny: bool):
    """Fresh workload with its lazy set-up done and first-call costs paid."""
    workload = make_workload(wl, name, seed, tiny)
    workload.setup()
    warm = Runner()
    scratch = Window()
    for op in workload.warmup_ops(random.Random(seed ^ 0x5EED)):
        warm.run_op(workload, op, scratch)
    return workload


# ------------------------------------------------------------ child probes


class SetupProbes:
    """SETUP_REPS fresh-interpreter set-up timings, spread over a window."""

    def __init__(self, wl, name: str):
        self.wl = wl
        self.argv = [sys.executable, str(HERE / "child.py"), "setup", name]
        self.times: list[float] = []
        self._probe()  # compiles bytecode, which users pay once; not kept
        self.times.clear()

    def _probe(self) -> None:
        proc = self.wl.run_child(self.argv, str(SRC), str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))

    def maybe_run(self, fraction_done: float) -> float:
        """Run the next probe once its share of the window has passed."""
        if len(self.times) >= SETUP_REPS or fraction_done < len(self.times) / SETUP_REPS:
            return 0.0
        start = time.perf_counter()
        self._probe()
        return time.perf_counter() - start

    def median(self) -> float:
        while len(self.times) < SETUP_REPS:
            self._probe()
        return statistics.median(self.times)


def import_ms(wl) -> dict[str, float]:
    """Self import time of each vbsent module, median over IMPORT_REPS."""
    samples: dict[str, list] = {}
    argv = [sys.executable, "-X", "importtime", "-c", "import vbsent.cli"]
    for _ in range(IMPORT_REPS):
        proc = wl.run_child(argv, str(SRC), str(ROOT))
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("vbsent"):
                self_us = float(parts[0].rsplit(":", 1)[1])
                module = parts[2].split(".")[-1]
                samples.setdefault(module, []).append(self_us / 1e3)
    return {m: statistics.median(v) for m, v in samples.items()}


def suite_probes(wl, tiny: bool) -> dict[str, dict]:
    from vbsent.verify import SUITES

    max_sites = "4" if tiny else "8"
    out = {}
    for name in SUITES:
        argv = [sys.executable, str(HERE / "child.py"), "suite", name, max_sites]
        proc = wl.run_child(argv, str(SRC), str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"suite probe {name} failed: {proc.stderr.strip()}")
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


# ------------------------------------------------------------- environment


def blas_threads():
    """Threads OpenBLAS will use, read from the loaded library itself."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "commit": git_commit(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------ end to end


def end_to_end(wl, name: str, seed: int, seconds: float, tiny: bool):
    probes = SetupProbes(wl, name)
    workload = start_workload(wl, name, seed, tiny)
    window = Runner().window(workload, random.Random(seed), seconds, probes)
    setup_s = probes.median()
    usage = resource.RUSAGE_CHILDREN if name == "verify-battery" else resource.RUSAGE_SELF
    peak_mib = resource.getrusage(usage).ru_maxrss * 1024 / MIB
    report = {"setup_s": setup_s, "peak_rss_mb": peak_mib}
    if window.latencies:
        report["op_p50_ms"] = statistics.median(window.latencies) * 1e3
        report["ops_per_s"] = len(window.latencies) / window.wall
    tail = percentile_tail(window.latencies)
    lines = [
        f"setup_s      {setup_s:.4f} s (median of {SETUP_REPS} fresh interpreters, "
        f"spread over the window)",
        f"op_p50_ms    {report.get('op_p50_ms', float('nan')):.4f} ms "
        f"({len(window.latencies)} ops, {window.wall:.1f} s wall)",
        f"op_tail_ms   p{tail[0]:g} = {tail[1] * 1e3:.4f} ms" if tail else
        f"op_tail_ms   omitted: {len(window.latencies)} ops leave no percentile "
        f"with {TAIL_BEYOND} samples beyond it",
        f"ops_per_s    {report.get('ops_per_s', float('nan')):.4f} 1/s",
        f"failed_frac  {len(window.failures) / max(window.attempted, 1):.6f} "
        f"({len(window.failures)} of {window.attempted})",
        f"peak_rss_mb  {peak_mib:.2f} MiB "
        f"({'largest child' if usage == resource.RUSAGE_CHILDREN else 'this process'})",
    ]
    if tail:
        report["op_tail"] = {"percentile": tail[0], "ms": tail[1] * 1e3}
    metrics = {m: report[m] for m, _ in END_TO_END if m in report}
    return window, metrics, lines, report


# -------------------------------------------------------------- traced run


def _bucket(dim: int) -> str:
    for edge in (81, 243, 729):
        if dim <= edge:
            return f"d{edge}"
    return "d2187"


BUCKETS = ("d81", "d243", "d729", "d2187")
CF_FUNCS = ("disjoint_spectrum", "adjacent_pt_negativity", "adjacent_pt_spectrum",
            "pure_block_spectrum", "pure_pt_spectrum", "mutual_information")
ER_BUILDS = ("rho_ab_open", "rho_ab_adjacent", "rho_ab_pbc")
MODULES = ("vbsent", "cli", "closed_forms", "effective_rho", "linalg", "mps_oracle",
           "pauli_algebra", "sphere_mc", "verify")
KEPT = range(2, 8)


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    from vbsent.verify import SUITES

    spec = [("cli.parse_ms", "ms"), ("cli.render_ms", "ms")]
    for fn in CF_FUNCS:
        spec += [(f"closed_forms.call_us.{fn}", "us"), (f"closed_forms.calls.{fn}", "count")]
    spec += [(f"effective_rho.build_us.{fn}", "us") for fn in ER_BUILDS]
    spec += [("effective_rho.spectrum_us", "us"), ("effective_rho.transpose_us", "us"),
             ("effective_rho.measures_us", "us")]
    for op in ("reduced_density", "partial_transpose", "hermitian_check", "eigvalsh"):
        spec += [(f"linalg.{op}_ms.{b}", "ms") for b in BUCKETS]
    spec += [(f"linalg.eigvalsh_calls.{b}", "count") for b in BUCKETS]
    spec += [("linalg.eig_work", "count"), ("linalg.eig_useful_ratio", "ratio"),
             ("linalg.peak_operator_mb", "MiB")]
    spec += [(f"mps_oracle.build_ms.{kind}_n{n}", "ms")
             for kind in ("open", "ring") for n in range(4, 10)]
    spec += [(f"mps_oracle.report_ms.k{k}", "ms") for k in KEPT]
    spec += [("mps_oracle.dense_hamiltonian_ms", "ms"), ("mps_oracle.residual_ms", "ms"),
             ("pauli_algebra.identities_ms", "ms")]
    spec += [(f"{m}.import_ms", "ms") for m in MODULES]
    spec += [("sphere_mc.estimate_ms", "ms"), ("sphere_mc.site_samples_per_s", "1/s"),
             ("sphere_mc.bytes_per_site_sample", "B")]
    spec += [(f"verify.suite_ms.{s}", "ms") for s in SUITES]
    spec += [("verify.checks", "count"), ("verify.checks_failed", "count"),
             ("closed_forms.referee_mismatches", "count"),
             ("trace.overhead_ms", "ms"), ("trace.traced_op_p50_ms", "ms"),
             ("trace.unattributed_frac", "ratio")]
    return spec


def _ops_of(spans, runner: Runner, slice_name: str) -> list:
    ids = {i for i, s in runner.op_slice.items() if s == slice_name}
    return [s for s in spans if s[5] in ids]


def battery(wl, tiny: bool):
    """One traced round of every workload at the fixed seed BATTERY_SEED.

    Returns the spans, the runner (which maps op ids to workloads) and one
    window per workload.
    """
    from spans import Tracer

    tracer = Tracer().install()
    runner = Runner(tracer)
    windows = {}
    try:
        for name in ("geometry-queries", "oracle-referee", "mc-sampling", "verify-battery"):
            workload = make_workload(wl, name, BATTERY_SEED, tiny)
            runner.op_id += 1
            runner.op_slice[runner.op_id] = f"{name} setup"
            idx = tracer.begin_op(runner.op_id, f"{name} setup")
            workload.setup()  # traced, so state builds leave spans
            tracer.end_op(idx)
            windows[name] = Window()
            for op in workload.round(random.Random(BATTERY_SEED)):
                runner.run_op(workload, op, windows[name])
    finally:
        tracer.uninstall()
    return tracer.spans, runner, windows


def layer_metrics(spans, runner: Runner, suites: dict, imports: dict, mismatches: int) -> dict:
    import numpy as np

    from spans import durations_ms, self_times
    from vbsent.sphere_mc import SphereConfig

    own = self_times(spans)
    m: dict[str, float] = {}

    per_op: dict[int, dict[str, float]] = {}
    for s, t in zip(spans, own):
        if runner.op_slice.get(s[5]) == "geometry-queries" and s[1] in ("cli", "cli.parse"):
            per_op.setdefault(s[5], {}).setdefault(s[1], 0.0)
            per_op[s[5]][s[1]] += t / 1e6
    queries = [v for v in per_op.values() if "cli" in v]
    m["cli.parse_ms"] = statistics.median(v.get("cli.parse", 0.0) for v in queries)
    m["cli.render_ms"] = statistics.median(v["cli"] for v in queries)

    def med_us(name):
        d = durations_ms(spans, name)
        return statistics.median(d) * 1e3 if d else 0.0

    for fn in CF_FUNCS:
        m[f"closed_forms.call_us.{fn}"] = med_us(f"closed_forms.{fn}")
        m[f"closed_forms.calls.{fn}"] = len(durations_ms(spans, f"closed_forms.{fn}"))
    for fn in ER_BUILDS:
        m[f"effective_rho.build_us.{fn}"] = med_us(f"effective_rho.{fn}")
    m["effective_rho.spectrum_us"] = med_us("effective_rho.spectrum")
    m["effective_rho.transpose_us"] = med_us("effective_rho.mode_partial_transpose")
    m["effective_rho.measures_us"] = med_us("effective_rho.measures")

    names = {"reduced_density": "linalg.reduced_density",
             "partial_transpose": "linalg.partial_transpose",
             "hermitian_check": "linalg.__post_init__", "eigvalsh": "linalg.hermitian_eigvals"}
    busy = {(op, b): 0.0 for op in names for b in BUCKETS}
    calls = {b: 0 for b in BUCKETS}
    work = useful = computed = 0
    peak_dim = 0
    for s in spans:
        for op, span_name in names.items():
            if s[0] == span_name:
                dim = s[6]["dim"]
                busy[(op, _bucket(dim))] += (s[3] - s[2]) / 1e6
                peak_dim = max(peak_dim, dim)
                if op == "eigvalsh":
                    calls[_bucket(dim)] += 1
                    work += dim**3
                    useful += s[6]["useful"]
                    computed += dim
    for (op, b), ms in busy.items():
        m[f"linalg.{op}_ms.{b}"] = ms
    for b in BUCKETS:
        m[f"linalg.eigvalsh_calls.{b}"] = calls[b]
    m["linalg.eig_work"] = work
    m["linalg.eig_useful_ratio"] = useful / computed if computed else 0.0
    m["linalg.peak_operator_mb"] = 16 * peak_dim**2 / MIB

    oracle = _ops_of(spans, runner, "oracle-referee")
    builds = _ops_of(spans, runner, "oracle-referee setup")
    for kind in ("open", "ring"):
        for n in range(4, 10):
            d = durations_ms(builds, f"mps_oracle.build_{'ring' if kind == 'ring' else 'open_chain'}", n=n)
            m[f"mps_oracle.build_ms.{kind}_n{n}"] = statistics.median(d) if d else 0.0
    for k in KEPT:
        d = durations_ms(oracle, "mps_oracle.entanglement_report", kept=k)
        m[f"mps_oracle.report_ms.k{k}"] = statistics.median(d) if d else 0.0
    m["mps_oracle.dense_hamiltonian_ms"] = sum(durations_ms(spans, "mps_oracle.dense_hamiltonian"))
    m["mps_oracle.residual_ms"] = sum(durations_ms(spans, "mps_oracle.hamiltonian_residual"))
    m["pauli_algebra.identities_ms"] = sum(
        sum(durations_ms(spans, f"pauli_algebra.{fn}"))
        for fn in ("verify_bilinear_completeness", "verify_boundary_identity",
                   "decide_epsilon_orientation"))
    for mod in MODULES:
        m[f"{mod}.import_ms"] = imports.get(mod, 0.0)

    mc_spans = _ops_of(spans, runner, "mc-sampling")
    per_est, work_ss, busy_ss = [], 0, 0.0
    for s in mc_spans:
        if s[1] == "sphere_mc" and spans[s[4]][1] == "bench":
            per_est.append((s[3] - s[2]) / 1e6)
        if s[0] in ("sphere_mc.estimate_vbs_norm", "sphere_mc.estimate_block_overlap"):
            work_ss += s[6]["samples"] * s[6]["sites"]
            busy_ss += (s[3] - s[2]) / 1e9
    m["sphere_mc.estimate_ms"] = statistics.median(per_est) if per_est else 0.0
    m["sphere_mc.site_samples_per_s"] = work_ss / busy_ss if busy_ss else 0.0
    config = SphereConfig.sample(np.random.default_rng(0), 1000, 3)
    nbytes = sum(getattr(config, f).nbytes for f in ("cos_theta", "phi", "omega", "u", "v"))
    m["sphere_mc.bytes_per_site_sample"] = nbytes / 3000

    for name, probe in suites.items():
        m[f"verify.suite_ms.{name}"] = probe["ms"]
    m["verify.checks"] = sum(p["checks"] for p in suites.values())
    m["verify.checks_failed"] = sum(p["failed"] for p in suites.values())
    m["closed_forms.referee_mismatches"] = mismatches
    return m


def traced(wl, name: str, seed: int, seconds: float, tiny: bool):
    """Untraced replays of the workload's battery round, then the battery.

    Both sides of the tracing overhead see the same ops: the battery round
    of the workload, untraced for at least half of --seconds (at least
    once), then traced once inside the battery.
    """
    from spans import layer_self_ms_per_op

    workload = start_workload(wl, name, BATTERY_SEED, tiny)
    ops = workload.round(random.Random(BATTERY_SEED))
    plain, runner = Window(), Runner()
    start = time.perf_counter()
    while not plain.attempted or time.perf_counter() - start < seconds / 2:
        for op in ops:
            runner.run_op(workload, op, plain)

    spans, bat_runner, windows = battery(wl, tiny)
    traced_window = windows[name]
    own_ops = {i for i, w in bat_runner.op_slice.items() if w == name}
    layers, n_ops = layer_self_ms_per_op(spans, own_ops)
    op_ms = sum(layers.values())

    suites = suite_probes(wl, tiny)
    imports = import_ms(wl)
    total = Window()
    for w in windows.values():
        total.add(w)
    metrics = layer_metrics(spans, bat_runner, suites, imports, len(total.referee_mismatches))
    p50 = lambda w: statistics.median(w.latencies) * 1e3 if w.latencies else float("nan")  # noqa: E731
    metrics["trace.traced_op_p50_ms"] = p50(traced_window)
    metrics["trace.overhead_ms"] = p50(traced_window) - p50(plain)
    metrics["trace.unattributed_frac"] = layers.get("bench", 0.0) / op_ms if op_ms else 0.0

    mean = lambda w: statistics.fmean(w.latencies) * 1e3 if w.latencies else float("nan")  # noqa: E731
    lines = [f"battery round of {len(ops)} ops at seed {BATTERY_SEED}: untraced op_p50 "
             f"{p50(plain):.4f} ms over {len(plain.latencies)} ops; traced {p50(traced_window):.4f} ms",
             f"self time per op by layer, mean over {n_ops} traced ops: the layers sum to "
             f"{op_ms:.4f} ms, the traced mean op time; the untraced mean is "
             f"{mean(plain):.4f} ms, so tracing adds {op_ms - mean(plain):.4f} ms per op"]
    lines += [f"  {layer:<14} {ms:10.4f} ms  {ms / op_ms:6.1%}" for layer, ms in layers.items()]
    total.add(plain)
    detail = {"self_ms_per_op": layers, "traced_ops": n_ops, "battery_spans": len(spans)}
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    with open(OUT / "trace" / f"{name}-seed{seed}.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return total, metrics, lines, detail


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes of every workload, for smoke runs")
    args = parser.parse_args(argv)

    if not (SRC / "vbsent" / "__init__.py").is_file():
        print(f"error: {SRC}/vbsent not found; run from the root of a vbsent checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = environment(args.seed, args.workload)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        window, metrics, lines, detail = traced(wl, args.workload, args.seed, args.seconds, args.tiny)
        spec = per_layer_spec()
    else:
        window, metrics, lines, detail = end_to_end(wl, args.workload, args.seed, args.seconds, args.tiny)
        spec = list(END_TO_END)
    for line in lines:
        print(line)
    if window.referee_checked:
        print(f"closed-form referee: {len(window.referee_mismatches)} of "
              f"{window.referee_checked} comparisons disagree with the CLI output "
              f"(known closed_forms defect, see perfbench/README.md)")
        for note in window.referee_mismatches[:3]:
            print(f"  {note}")
    for note in window.failures[:10]:
        print(f"FAILED {note}")

    record = {"env": env, "lines": lines, "detail": detail, "metrics": metrics,
              "attempted": window.attempted, "failures": window.failures[:50],
              "referee_checked": window.referee_checked,
              "referee_mismatches": window.referee_mismatches[:50],
              "referee_mismatch_count": len(window.referee_mismatches)}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    if not window.latencies:
        print(f"error: {args.workload} completed no ops in {args.seconds:g} s "
              f"({window.attempted} attempted); no rate to report", file=sys.stderr)
        return 1
    correct = not window.failures
    result = {
        "correct": correct,
        "attempted": window.attempted,
        "failed": len(window.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
