#!/usr/bin/env python3
"""Benchmark of the kecsm solver through its public API.

Three workloads: cold certified solves, and the seeded rounding loop in its
large-k and small-k regimes.  One process, one caller, closed loop: the next
operation starts when the previous one has returned and been checked.

    python3 perfbench/run.py --workload solve-cold --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-references 1 2 3

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric with its unit and sample count.  ``perfbench/README.md``
explains the workloads, the metrics and how seeds are handled.
"""

import argparse
import bisect
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import STAGES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCES = HERE / "references.json"

DEFAULT_INSTANCE_SEED = 1
SETUP_REPS = 3
# Relative distance allowed between an LP objective and its recorded
# reference: far below any wrong optimum, far above the disagreement of two
# exact solvers.
LP_RTOL = 1e-7
# A k-edge-connected multigraph costs at least the LP optimum.
COST_RTOL = 1e-9

# The shared machines this runs on switch between speeds up to 1.7x apart
# every few seconds, which no run length averages away.  A fixed kernel, run
# from a timer every CALIBRATE_EVERY_S of wall time, also inside operations,
# slows down with the machine.  End-to-end times are in reference seconds:
# each operation's time, less the kernels run inside it, scaled by
# REF_KERNEL_S / (median of the kernel times inside it and of the
# LOCAL_KERNELS just before and as many just after it).  Measured times are
# printed too.
CALIBRATE_EVERY_S = 0.05
LOCAL_KERNELS = 3
# The kernel imitates the code it calibrates, because a slow spell slows
# Python loops over numpy scalars (Stoer-Wagner, Wilson sampling) by about
# twice as much as whole-array numpy updates (the simplex).  Kernel kind ->
# reference time, near the kernel's median on a fast spell of a 2-core
# test machine.
REF_KERNEL_S = {"loop": 0.6e-3, "vector": 1.2e-3}
# Import time is the median over fresh interpreters, each calibrated by
# kernels run just before and after it.
IMPORT_REPS = 5

# workload -> (operation, cells); a cell is (family, n, k).  README.md says
# why each workload is there.
WORKLOADS = {
    "solve-cold": ("solve", (
        ("euclidean", 32, 8), ("random-closure", 32, 8),
        ("euclidean", 48, 8), ("random-closure", 48, 8),
    )),
    "round-bigk": ("round", (
        ("random-closure", 32, 64), ("random-closure", 32, 256), ("euclidean", 32, 64),
    )),
    "round-smallk": ("round", (
        ("random-closure", 48, 4), ("random-closure", 48, 6),
        ("euclidean", 40, 4), ("euclidean", 40, 6),
    )),
}
# Calibration kernel kind per operation (see Calibrator): a cold solve is
# mostly simplex, a rounding trial mostly Python loops.  Set-ups, mostly
# ``prepare``, use ``vector``.
KERNEL_KIND = {"solve": "vector", "round": "loop"}
GENERATORS = {"euclidean": "euclidean_instance", "random-closure": "random_closure_instance"}

# The layer each workload is built to stress, and the least share of the
# traced operation time it must take (checked by --self-check).
DOMINANT = {"solve-cold": ("lp", 0.90), "round-bigk": ("sample", 0.50), "round-smallk": ("cert", 0.50)}


def load_kecsm():
    """Import kecsm from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kecsm
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import kecsm from {src}: {exc}")
    if Path(kecsm.__file__).resolve().parent != src / "kecsm":
        raise SystemExit(f"perfbench: imported kecsm from {kecsm.__file__}, not from {src}")
    return kecsm


def cell_key(cell) -> str:
    family, n, k = cell
    return f"{family}-n{n}-k{k}"


def make_instance(kecsm, cell, instance_seed):
    family, n, k = cell
    return getattr(kecsm, GENERATORS[family])(n, k, instance_seed)


def trial_seed(seed: int, pass_index: int, item: int) -> int:
    return (seed * 1_000_003 + pass_index) * 64 + item


def lp_problem(objective: float, reference):
    if reference is None:
        return "no LP reference: the LP failed when references were recorded"
    if abs(objective - reference) > LP_RTOL * abs(reference):
        return f"LP objective {objective!r} is off its reference {reference!r}"
    return None


def result_problem(result, reference=None):
    """Why a PipelineResult is wrong, or None when every check holds."""
    if not (result.certificate.passes and result.record.connected):
        return "certificate failed"
    if result.record.ratio_lp < 1.0 - COST_RTOL:
        return f"cost below the LP bound (ratio {result.record.ratio_lp!r})"
    if reference is not None:
        return lp_problem(result.record.lp_cost, reference)
    return None


class Calibrator:
    """Times a fixed kernel every CALIBRATE_EVERY_S while it is entered.

    The kernel runs from a SIGALRM handler, so between two bytecodes of
    whatever the process is running.  Kind ``loop`` is a Python loop reading
    numpy scalars, as in Stoer-Wagner and Wilson sampling; kind ``vector`` is
    whole-array numpy row updates, as in the simplex.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.ref_s = REF_KERNEL_S[kind]
        self._dense = rng.random((60, 200))
        self._weights = rng.random((48, 48))
        self._previous_handler = None
        self.starts: list[float] = []
        self.samples: list[float] = []

    def run_kernel(self):
        start = time.perf_counter()
        if self.kind == "vector":
            t = self._dense.copy()
            for r in range(40):
                t -= 1e-3 * np.outer(t[:, r], t[r])
        else:
            w = self._weights
            for _ in range(2):
                conn = w[0].copy()
                used = np.zeros(len(w), dtype=bool)
                used[0] = True
                for _ in range(len(w) - 1):
                    best, last = -1.0, -1
                    for v in range(len(w)):
                        if not used[v] and conn[v] > best:
                            best, last = conn[v], v
                    used[last] = True
                    conn += w[last]
        self.starts.append(start)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.run_kernel())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def reference(self, start: float, seconds: float) -> tuple[float, float]:
        """(measured, reference) seconds of an operation timed from ``start``
        for ``seconds``, without the kernels run inside it.  Call after exit."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + seconds)
        while len(self.samples) < hi + LOCAL_KERNELS:
            self.run_kernel()
        measured = seconds - sum(self.samples[lo:hi])
        local = statistics.median(self.samples[max(0, lo - LOCAL_KERNELS):hi + LOCAL_KERNELS])
        return measured, measured * self.ref_s / local


class Ledger:
    """Attempted and failed operations.  A failure is counted, never fatal."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.tracebacks: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def call(self, label, fn, check):
        """Return (result, start, seconds) of fn(), or Nones if it raised or failed check."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # any error of the program is a counted failure
            name = f"{label}: {type(exc).__name__}"
            self.failures[name] += 1
            self.tracebacks.setdefault(name, traceback.format_exc())
            return None, None, None
        seconds = time.perf_counter() - start
        problem = check(result)
        if problem:
            self.failures[f"{label}: {problem}"] += 1
            return None, None, None
        return result, start, seconds


def set_up(kecsm, workload, instance_seed, references, ledger, tracer):
    """Generate the instances, and on the round-* workloads prepare every cell."""
    kind, cells = WORKLOADS[workload]
    items = []
    for cell in cells:
        inst = make_instance(kecsm, cell, instance_seed)
        if kind == "solve":
            items.append((cell, inst))
            continue
        reference = references[cell_key(cell)]
        prep, _, seconds = ledger.call(f"{cell_key(cell)} prepare", lambda: kecsm.prepare(inst),
                                       lambda p: lp_problem(p.fractional.objective, reference))
        if prep is not None:
            items.append((cell, prep))
            if tracer is not None:
                tracer.record("prepare", seconds)
    return items


def run_pass(kecsm, kind, items, seed, pass_index, references, ledger, samples):
    """Run every item once, appending (pass index, cell key, seconds, ratio_lp,
    start) of each operation that passed its checks to ``samples``."""
    for i, (cell, obj) in enumerate(items):
        s = trial_seed(seed, pass_index, i)
        if kind == "solve":
            reference = references[cell_key(cell)]
            fn = lambda: kecsm.run_pipeline(obj, seed=s)
        else:
            reference = None
            fn = lambda: kecsm.round_prepared(obj, seed=s)
        result, start, elapsed = ledger.call(cell_key(cell), fn, lambda r: result_problem(r, reference))
        if result is not None:
            samples.append((pass_index, cell_key(cell), elapsed, result.record.ratio_lp, start))


@dataclass
class Report:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, note)
    lines: list = field(default_factory=list)
    shares: dict = field(default_factory=dict)
    ledger: Ledger = field(default_factory=Ledger)


def ratio(a, b):
    return a / b if b else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_and_cell_stats(samples, times):
    """(median over passes of a pass's operations per second, geometric mean
    over cells of each cell's median latency in ms) of ``times``, which are
    the samples' durations in one unit."""
    by_pass, by_cell = {}, {}
    for (pass_index, key, *_), t in zip(samples, times):
        by_pass.setdefault(pass_index, []).append(t)
        by_cell.setdefault(key, []).append(t)
    if not samples:
        return 0.0, 0.0
    return (statistics.median(len(ts) / sum(ts) for ts in by_pass.values()),
            1000.0 * statistics.geometric_mean(statistics.median(ts) for ts in by_cell.values()))


def end_to_end(report, samples, passes, setup, calibrator):
    """Medians, not means, so that a slow spell of the machine moves them less.

    ``ops_per_s`` is the median over passes of a pass's operations per second.
    ``op_ms_p50`` is the geometric mean over cells of each cell's median
    latency: a pooled median of cells that differ in size would jump between
    cells from run to run.  Times are in reference seconds (see REF_KERNEL_S);
    ``setup`` is (reference seconds, measured seconds, note).
    """
    pairs = [calibrator.reference(start, t) for _, _, t, _, start in samples]
    measured = [m for m, _ in pairs]
    times = [r for _, r in pairs]
    scales = [r / m for m, r in pairs]
    ops_per_s, op_ms_p50 = pass_and_cell_stats(samples, times)
    raw_ops_per_s, raw_op_ms_p50 = pass_and_cell_stats(samples, measured)
    n = f"n={len(times)} operations in {passes} passes"
    setup_s, raw_setup_s, setup_note = setup
    report.metrics["setup_s"] = (setup_s, "s", f"{setup_note}; measured {raw_setup_s!r} s")
    report.metrics["ops_per_s"] = (ops_per_s, "1/s", f"{n}; measured {raw_ops_per_s!r} 1/s")
    report.metrics["op_ms_p50"] = (op_ms_p50, "ms", f"{n}; measured {raw_op_ms_p50!r} ms")
    report.metrics["ratio_lp_mean"] = (
        statistics.fmean(r for _, _, _, r, _ in samples) if samples else 0.0, "ratio", n)
    report.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", "n=1")
    if samples:
        report.lines.append(
            f"calibration kernel ({calibrator.kind}, reference {1000.0 * calibrator.ref_s:g} ms): "
            f"n={len(calibrator.samples)}, median {1000.0 * statistics.median(calibrator.samples):.4f} ms; "
            f"reference time / measured time per operation from {min(scales):.4f} "
            f"to {max(scales):.4f}, median {statistics.median(scales):.4f}")
    if len(times) >= 100:
        report.lines.append(f"op_ms_p90 {1000.0 * statistics.quantiles(times, n=10)[-1]!r} ms "
                            f"(reference; pooled over cells; {n})")
    else:
        report.lines.append(f"op_ms_p90 not reported: {len(times)} operations, fewer than 100")
    by_cell = {}
    for (_, key, *_), t, r in zip(samples, measured, times):
        by_cell.setdefault(key, []).append((t, r))
    for key, cell_pairs in by_cell.items():
        report.lines.append(f"{key}: median {1000.0 * statistics.median(t for t, _ in cell_pairs):.3f} ms "
                            f"measured, {1000.0 * statistics.median(r for _, r in cell_pairs):.3f} ms "
                            f"reference (n={len(cell_pairs)})")


def per_layer(report, setup, setup_reps, loop, passes, untraced_pass_s, traced_pass_s):
    """Per-pass layer metrics: set-up spans per set-up, loop spans per pass."""
    phases = [(setup, setup_reps), (loop, passes)]

    def total(table, key):
        return sum(getattr(state, table).get(key, 0) / div for state, div in phases if div)

    def s(span):
        return total("seconds", span)

    def calls(span):
        return total("calls", span)

    def count(key):
        return total("counts", key)

    stage_pass_s = sum(loop.seconds.get(span, 0.0) for span in STAGES) / max(passes, 1)
    values = {
        "lp.solve_s": (s("lp"), "s"),
        "lp.simplex_s": (s("lp.simplex"), "s"),
        "lp.simplex_calls": (calls("lp.simplex"), "count"),
        "lp.mincut_s": (s("lp.mincut"), "s"),
        "lp.mincut_calls": (calls("lp.mincut"), "count"),
        "lp.iterations": (count("lp.iterations"), "count"),
        "lp.cuts": (count("lp.cuts"), "count"),
        "lp.mincut_per_iter": (ratio(calls("lp.mincut"), count("lp.iterations")), "ratio"),
        "split.s": (s("split"), "s"),
        "split.edges": (count("split.edges"), "count"),
        "fit.s": (s("fit"), "s"),
        "fit.sweeps": (count("fit.sweeps"), "count"),
        "fit.pieces": (count("fit.pieces"), "count"),
        "fit.forced": (count("fit.forced"), "count"),
        "fit.max_ratio": (max(state.counts.get("fit.max_ratio", 0.0) for state, _ in phases), "ratio"),
        "sample.s": (s("sample"), "s"),
        "sample.trees": (count("sample.trees"), "count"),
        "sample.ms_per_tree": (1000.0 * ratio(s("sample"), count("sample.trees")), "ms"),
        "round.s": (s("round"), "s"),
        "round.self_s": (s("round") - s("sample"), "s"),
        "round.fcut_s": (s("round.fcut"), "s"),
        "round.mst_s": (s("round.mst"), "s"),
        "round.augments": (count("round.augments"), "count"),
        "round.aug_frac": (ratio(count("round.augments"), count("round.tree_edges")), "ratio"),
        "cert.s": (s("cert"), "s"),
        "cert.calls": (calls("cert"), "count"),
        "prepare.s": (s("prepare"), "s"),
        "trace.coverage": (ratio(stage_pass_s, untraced_pass_s), "ratio"),
        "trace.overhead": (ratio(traced_pass_s - untraced_pass_s, untraced_pass_s), "ratio"),
    }
    note = f"per pass: {passes} traced passes, {setup_reps} traced set-ups"
    for name, (value, unit) in values.items():
        report.metrics[name] = (value, unit, note)
    report.shares = {span: ratio(loop.seconds.get(span, 0.0) / max(passes, 1), traced_pass_s)
                     for span in (*STAGES, "sample")}
    report.lines.append("share of traced operation time: "
                        + ", ".join(f"{k} {v:.3f}" for k, v in report.shares.items()))


def import_seconds(calibrator) -> tuple[float, float]:
    """(measured, reference) seconds to import kecsm from src/, medians over
    IMPORT_REPS fresh interpreters run one after another."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
            "import kecsm; print(time.perf_counter() - start)")
    runs = []
    for _ in range(IMPORT_REPS):
        for _ in range(LOCAL_KERNELS):
            calibrator.run_kernel()
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                             capture_output=True, text=True, timeout=120, check=True)
        runs.append(calibrator.reference(start, float(out.stdout)))
    return statistics.median(m for m, _ in runs), statistics.median(r for _, r in runs)


def run_workload(kecsm, workload, seed, seconds, trace, references,
                 instance_seed=DEFAULT_INSTANCE_SEED, setup_reps=SETUP_REPS):
    kind, _ = WORKLOADS[workload]
    report = Report()
    ledger = report.ledger
    tracer = Tracer() if trace else None
    # The traced run is not calibrated: kernels inside spans would count in them.
    setup_calibrator = Calibrator("vector")
    setup_runs = []  # (start, seconds) of each set-up
    try:
        if tracer is not None:
            tracer.install()
        with setup_calibrator if tracer is None else contextlib.nullcontext():
            for _ in range(setup_reps):
                start = time.perf_counter()
                items = set_up(kecsm, workload, instance_seed, references, ledger, tracer)
                setup_runs.append((start, time.perf_counter() - start))
        passes = 0
        if tracer is None:
            setup_pairs = [setup_calibrator.reference(start, t) for start, t in setup_runs]
            import_s, import_ref_s = import_seconds(setup_calibrator)
            calibrator = Calibrator(KERNEL_KIND[kind])
            samples = []
            deadline = time.perf_counter() + seconds
            with calibrator:
                while items and (passes == 0 or time.perf_counter() < deadline):
                    run_pass(kecsm, kind, items, seed, passes, references, ledger, samples)
                    passes += 1
            setup = (import_ref_s + statistics.median(r for _, r in setup_pairs),
                     import_s + statistics.median(m for m, _ in setup_pairs),
                     f"import {import_ref_s:.3f} s reference (median of n={IMPORT_REPS} "
                     f"interpreters) + median of n={setup_reps} set-ups")
            end_to_end(report, samples, passes, setup, calibrator)
        else:
            # Untraced and traced passes alternate on the same trial seeds, so
            # both see the same work and the same machine state.
            setup_state = tracer.snapshot()
            plain, traced = [], []
            deadline = time.perf_counter() + seconds
            while items and (passes == 0 or time.perf_counter() < deadline):
                tracer.uninstall()
                run_pass(kecsm, kind, items, seed, passes, references, ledger, plain)
                tracer.install()
                run_pass(kecsm, kind, items, seed, passes, references, ledger, traced)
                passes += 1
            per_layer(report, setup_state, setup_reps, tracer.snapshot(), passes,
                      ratio(sum(t for _, _, t, *_ in plain), passes),
                      ratio(sum(t for _, _, t, *_ in traced), passes))
            if tracer.absent:
                report.lines.append("absent (reported as 0): " + ", ".join(tracer.absent))
            if tracer.broken_counters:
                report.lines.append("counters unreadable for spans: " + ", ".join(sorted(tracer.broken_counters)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    report.lines.append(f"fail_frac {ratio(ledger.failed, ledger.attempted)!r} "
                        f"({ledger.failed} failed of {ledger.attempted} attempted)")
    for name, times in sorted(ledger.failures.items()):
        report.lines.append(f"failure x{times}: {name}")
    return report


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def blas_threads(package: str):
    """Thread count of the OpenBLAS bundled with ``package``, or None."""
    module = __import__(package)
    pattern = os.path.join(os.path.dirname(module.__file__), os.pardir, f"{package}.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def metadata() -> str:
    import numpy
    import scipy

    src_lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "kecsm").glob("*.py"))
    return (f"revision {git_revision()}; src/kecsm/*.py {src_lines} lines; "
            f"nproc {len(os.sched_getaffinity(0))}; python {platform.python_version()}; "
            f"numpy {numpy.__version__}; scipy {scipy.__version__}; "
            f"blas threads numpy {blas_threads('numpy')} scipy {blas_threads('scipy')}")


def load_references(instance_seed: int) -> dict:
    table = json.loads(REFERENCES.read_text())["instance_seeds"].get(str(instance_seed))
    if table is None:
        raise SystemExit(f"perfbench: no LP references for instance seed {instance_seed}; "
                         f"record them at a trusted commit with --record-references {instance_seed}")
    return table["objectives"]


def record_references(kecsm, instance_seeds):
    """Solve the LP of every cell of every workload and store the objectives.

    A cell whose LP raises is stored as null; runs on it then count a failure.
    """
    data = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {"instance_seeds": {}}
    cells = sorted({cell for _, cells in WORKLOADS.values() for cell in cells})
    revision = git_revision()
    for instance_seed in instance_seeds:
        objectives = {}
        for cell in cells:
            try:
                frac, _ = kecsm.solve_lp(make_instance(kecsm, cell, instance_seed))
            except Exception as exc:  # recorded as missing, reported, not fatal
                print(f"instance seed {instance_seed} {cell_key(cell)}: {type(exc).__name__}: {exc}")
                objectives[cell_key(cell)] = None
                continue
            objectives[cell_key(cell)] = frac.objective
        data["instance_seeds"][str(instance_seed)] = {"revision": revision, "objectives": objectives}
        REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"recorded LP objectives for instance seed {instance_seed}", flush=True)


def self_check(kecsm) -> int:
    """Smoke mode: one set-up and one pass per phase of every workload."""
    spec = json.loads(SPEC.read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    references = load_references(DEFAULT_INSTANCE_SEED)
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's own")
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run_workload(kecsm, workload, seed=0, seconds=0, trace=trace,
                                  references=references, setup_reps=1)
            emitted = {name: unit for name, (_, unit, _) in report.metrics.items()}
            if emitted != expected[trace]:
                problems.append(f"{workload} trace {trace}: emitted {emitted}, expected {expected[trace]}")
            if report.ledger.failed:
                problems.append(f"{workload} trace {trace}: {dict(report.ledger.failures)}")
            if trace:
                span, least = DOMINANT[workload]
                share = report.shares[span]
                print(f"{workload}: {span} takes {share:.3f} of traced operation time (needs >= {least})")
                if share < least:
                    problems.append(f"{workload}: {span} share {share:.3f} < {least}")
    wrong = {key: value * (1 + 1e-4) for key, value in references.items()}
    report = run_workload(kecsm, "round-bigk", seed=0, seconds=0, trace=0, references=wrong, setup_reps=1)
    print(f"wrong references: {report.ledger.failed} failed of {report.ledger.attempted} attempted")
    if report.ledger.failed == 0:
        problems.append("a wrong LP reference raised no failure")
    for problem in problems:
        print("SELF-CHECK FAIL:", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="seed of the rounding trials")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--instance-seed", type=int, default=DEFAULT_INSTANCE_SEED,
                        help="seed of the generated instances (needs recorded LP references)")
    parser.add_argument("--self-check", action="store_true", help="run the smoke checks")
    parser.add_argument("--record-references", type=int, nargs="+", metavar="INSTANCE_SEED",
                        help="record LP reference objectives for these instance seeds")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check or args.record_references):
        parser.error("give --workload, --self-check or --record-references")

    kecsm = load_kecsm()
    if args.record_references:
        record_references(kecsm, args.record_references)
        return 0
    if args.self_check:
        return self_check(kecsm)

    references = load_references(args.instance_seed)
    report = run_workload(kecsm, args.workload, args.seed, args.seconds, args.trace, references,
                          instance_seed=args.instance_seed)
    print(f"perfbench workload {args.workload}, seed {args.seed}, instance seed "
          f"{args.instance_seed}, seconds {args.seconds:g}, trace {args.trace}")
    print(metadata())
    for name, (value, unit, note) in report.metrics.items():
        print(f"{name} {value!r} {unit} ({note})")
    for line in report.lines:
        print(line)
    for name, text in report.ledger.tracebacks.items():
        print(f"first traceback of {name}:\n{text}", file=sys.stderr)
    result = {
        "correct": report.ledger.failed == 0,
        "attempted": report.ledger.attempted,
        "failed": report.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
