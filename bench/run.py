"""modaldyn benchmark: end-to-end and per-layer measurements of the pipeline.

Run from the repository root:

    python3 bench/run.py --workload builtins-report --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload in turn

With ``--trace 0`` each workload reports, measured with no hooks installed:

* ``setup_s``: median over fresh processes of importing modaldyn and
  building and validating the workload's scenarios;
* ``wall_s``: time of all the workload's ``modaldyn.pipeline.run`` calls,
  each call's time the median over its repetitions in ``--seconds``;
* ``peak_rss_mb``: peak resident memory of the benchmark process over one
  run of every call.

Both times are seconds at nominal machine speed: a fixed reference kernel is
timed between the probes and calls, and times are scaled by
``REF_NOMINAL_S`` over its median.  The raw seconds are printed as well.

It also prints the fail ratio (failed over attempted run calls), the
largest continuity residual, and every generic draw whose built kernels
miss the scenario's thresholds: a known accuracy defect at the default
grid step (see ``workloads.Op``), reported but not counted as a failure.  With ``--trace 1`` one untraced pass, one pass
with timing spans and one with tracemalloc peaks on the array-heavy stages
give the per-layer metrics of ``layers.py``; the spans are written to
``.bench_trace/``.

Every run call's output is checked (``checks.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``bench/spread.py`` repeats runs over seeds and
reports each metric's spread; ``python3 -m pytest bench/test_bench.py``
tests the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACE_DIR = ROOT / ".bench_trace"
WORKLOAD_NAMES = ("builtins-report", "generic16-report", "export-mixed")
SETUP_PROBES = 5
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# Time the reference kernel takes at nominal machine speed.  On a shared
# machine the same work can take twice as long from one minute to the next;
# a fixed kernel timed between the calls slows down with it, so times are
# reported scaled to the speed at which it takes this long.
REF_NOMINAL_S = 0.020


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a probe failed)."""


@dataclass
class Outcome:
    """What one run call left behind once its result was checked and dropped."""

    label: str
    failures: list = field(default_factory=list)
    continuity: float | None = None
    pole_nodes: int = 0
    honesty: float | None = None
    cross_check: float | None = None
    kernel_over: list = field(default_factory=list)


def cap_blas_threads() -> int:
    """BLAS threads = usable cores; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def import_program():
    if not (SRC / "modaldyn" / "__init__.py").is_file():
        raise BenchError(f"no modaldyn source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import modaldyn
    if Path(modaldyn.__file__).resolve().parent != (SRC / "modaldyn").resolve():
        raise BenchError(f"imported modaldyn from {modaldyn.__file__}, not {SRC}")
    return modaldyn


def machine_info(blas_threads: int) -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def probe_setup(workload: str, seed: int) -> float:
    start = time.perf_counter()
    import_program()
    from workloads import build_ops
    build_ops(workload, seed)
    return time.perf_counter() - start


class Reference:
    """A fixed kernel, sharing no code with modaldyn, timed between calls.

    Roughly equal parts of what the pipeline spends its time on: an
    interpreter loop, formatting floats as text, small LAPACK calls and
    passes over a 16 MB array.  The array is allocated once, so sampling
    adds a fixed amount to the process's memory.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._sym = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
        self._big = np.linspace(0.0, 1.0, 2_000_000)
        self.samples: list[float] = []

    def _kernel(self):
        np = self._np
        total = 0
        for i in range(40_000):
            total += i * i
        total += len(",".join(repr(i * 0.1) for i in range(6_000)))
        for _ in range(10):
            np.linalg.eigh(self._sym + self._sym.T)
        for _ in range(4):
            np.multiply(self._big, 1.0, out=self._big)
        return total

    def sample(self, k: int = 3):
        for _ in range(k):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)

    def median(self) -> float:
        return statistics.median(self.samples)


def measure_setup(workload: str, seed: int, ref: Reference) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        ref.sample()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_op(op, out_dir: Path, tracer=None):
    """One run call, checked; returns its time and what it left behind.

    The result is dropped before returning, so the process never holds
    more than one result.
    """
    from contextlib import nullcontext

    import checks
    from modaldyn import pipeline
    from workloads import DETERMINISTIC

    outcome = Outcome(op.label)
    start = time.perf_counter()
    try:
        with tracer.span("pipeline.run") if tracer else nullcontext():
            result = pipeline.run(op.scenario, out_dir=out_dir if op.export else None,
                                  report_only=not op.export)
    except Exception as exc:  # a failed run call; the benchmark goes on
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        outcome.failures.append(type(exc).__name__)
        return seconds, outcome
    seconds = time.perf_counter() - start
    outcome.failures += checks.result_failures(result, op.label in DETERMINISTIC,
                                               op.kernel_thresholds)
    if op.export:
        outcome.failures += checks.export_failures(result, out_dir)
    outcome.continuity = result.report.continuity_residual
    outcome.pole_nodes = result.report.pole_nodes
    if result.report.honesty_deficit_max is not None:
        outcome.honesty = abs(result.report.honesty_deficit_max)
    outcome.cross_check = result.report.kernel_cross_check
    if not op.kernel_thresholds:
        outcome.kernel_over = checks.kernel_over_threshold(result)
    return seconds, outcome


def run_pass(ops, pass_dir: Path, tracer=None):
    """Every op once; returns the summed run-call time and the outcomes."""
    wall, outcomes = 0.0, []
    for op in ops:
        seconds, outcome = run_op(op, pass_dir / op.label, tracer)
        wall += seconds
        outcomes.append(outcome)
    return wall, outcomes


def check_identical(op, outcome, first: Path, again: Path):
    """A second export of the same scenario and seed is byte-identical."""
    import checks
    if op.export and not checks.identical_dirs(first, again):
        outcome.failures.append("export_not_byte_identical")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_untraced(workload: str, seed: int, seconds: float):
    """Cycle through the ops until ``seconds`` have passed.

    ``wall_s`` sums each op's median time, so a slow spell of the machine
    during one repetition moves it less than it would a whole-pass median.
    Peak memory is read once every op has run once.
    """
    import_program()
    ref = Reference()
    setup_s = measure_setup(workload, seed, ref)
    from workloads import build_ops
    ops = build_ops(workload, seed)
    times = {op.label: [] for op in ops}
    outcomes = []
    start = time.perf_counter()
    n = 0
    while n < len(ops) or time.perf_counter() - start < seconds:
        op, rep = ops[n % len(ops)], n // len(ops)
        out_dir = OUT / f"rep{rep}" / op.label
        elapsed, outcome = run_op(op, out_dir)
        if rep and op.export:
            check_identical(op, outcome, OUT / "rep0" / op.label, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
        times[op.label].append(elapsed)
        outcomes.append(outcome)
        ref.sample()
        n += 1
        if n == len(ops):
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op in ops:
        if op.export and len(times[op.label]) == 1:     # untimed re-export
            _, outcome = run_op(op, OUT / "again" / op.label)
            check_identical(op, outcome, OUT / "rep0" / op.label, OUT / "again" / op.label)
            outcomes.append(outcome)
    wall_s = sum(statistics.median(t) for t in times.values())
    ref_s = ref.median()
    scale = REF_NOMINAL_S / ref_s
    metrics = {"setup_s": setup_s * scale, "wall_s": wall_s * scale,
               "peak_rss_mb": peak_rss_mb}
    reps = sorted(len(t) for t in times.values())
    notes = [f"repetitions per op  {reps[0]}..{reps[-1]} over "
             f"{time.perf_counter() - start:.1f} s",
             f"raw seconds         setup {setup_s:.4f}, wall {wall_s:.4f}; reference "
             f"kernel {ref_s * 1e3:.3f} ms (nominal {REF_NOMINAL_S * 1e3:.0f} ms)",
             f"continuity_residual_max {max_continuity(outcomes):.6e}"]
    notes += [f"  {label:28s} {len(t)} x, median {statistics.median(t):.3f} s raw"
              for label, t in times.items()]
    notes += kernel_notes(outcomes)
    return metrics, E2E_UNITS, outcomes, notes


def max_continuity(outcomes) -> float:
    return max((o.continuity for o in outcomes if o.continuity is not None), default=0.0)


def kernel_notes(outcomes) -> list[str]:
    """One line per generic op whose kernels miss the scenario's thresholds."""
    over = {}
    for o in outcomes:
        if o.kernel_over:
            over.setdefault(o.label, (o.kernel_over, o.continuity))
    return [f"KNOWN DEFECT {label}: {', '.join(names)} over the scenario thresholds "
            f"on a grid too coarse for it (continuity residual {cont:.3e}); "
            f"reported, not counted as failed" for label, (names, cont) in over.items()]


def traced_pass(ops, pass_dir: Path, memory: bool):
    from layers import HOOKS, MEMORY_SPANS, PAUSED_SPANS
    from tracer import Tracer, summarize
    tracer = Tracer(MEMORY_SPANS, PAUSED_SPANS) if memory else Tracer()
    tracer.install(HOOKS)
    try:
        wall, outcomes = run_pass(ops, pass_dir, tracer)
    finally:
        tracer.uninstall()
    return wall, outcomes, tracer, summarize(tracer.spans)


def run_traced(workload: str, seed: int):
    import_program()
    from layers import UNITS, layer_metrics
    from workloads import build_ops
    start = time.perf_counter()
    ops = build_ops(workload, seed)
    load_s = time.perf_counter() - start

    ref = Reference()
    ref.sample()
    untraced_wall, outcomes = run_pass(ops, OUT / "plain")
    wall, outs, timing, timing_rows = traced_pass(ops, OUT / "timing", memory=False)
    ref.sample()
    _, mem_outs, memory, memory_rows = traced_pass(ops, OUT / "memory", memory=True)
    for op, out, mem_out in zip(ops, outs, mem_outs):
        check_identical(op, out, OUT / "plain" / op.label, OUT / "timing" / op.label)
        check_identical(op, mem_out, OUT / "plain" / op.label, OUT / "memory" / op.label)
    outcomes += outs + mem_outs
    io_bytes = sum(dir_bytes(OUT / "timing" / op.label) for op in ops if op.export)
    missing = list(dict.fromkeys(timing.missing + memory.missing))

    metrics = layer_metrics(timing_rows, memory_rows, outs, io_bytes, load_s,
                            untraced_wall, wall, missing)
    metrics["machine.ref_ms"] = ref.median() * 1e3
    write_spans(workload, seed, timing, memory, missing)
    notes = span_table(timing_rows, memory_rows, wall)
    notes.append(f"untraced wall {untraced_wall:.3f} s, traced wall {wall:.3f} s")
    built = metrics["feller.built_ratio"] * metrics["feller.series_calls"]
    notes.append(f"feller kernels built {built:.0f}/{metrics['feller.series_calls']}")
    notes += [f"MISSING hook: {m}" for m in missing]
    notes += kernel_notes(outcomes)
    return metrics, {k: u for k, (u, _) in UNITS.items()}, outcomes, notes


def span_table(timing: dict, memory: dict, wall: float) -> list[str]:
    lines = [f"{'span':28s} {'total_s':>9s} {'self_s':>9s} {'share':>6s} "
             f"{'calls':>7s} {'peak_MiB':>9s}"]
    for name, row in sorted(timing.items(), key=lambda kv: -kv[1]["total"]):
        peak = memory.get(name, {}).get("peak")
        lines.append(f"{name:28s} {row['total']:9.3f} {row['self']:9.3f} "
                     f"{row['total'] / wall:6.1%} {row['calls']:7d} "
                     f"{'-' if peak is None else f'{peak / 2 ** 20:.1f}':>9s}")
    return lines


def write_spans(workload, seed, timing, memory, missing):
    from tracer import self_times
    TRACE_DIR.mkdir(exist_ok=True)

    def rows(tracer):
        selfs = self_times(tracer.spans)
        return [{"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                 "end": s.end, "self": selfs[s.id], "peak": s.peak, "error": s.error,
                 "counts": s.counts} for s in tracer.spans]

    data = {"workload": workload, "seed": seed, "missing": missing,
            "timing": rows(timing), "memory": rows(memory)}
    path = TRACE_DIR / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n", encoding="utf-8")


def run_workload(args) -> dict:
    blas = cap_blas_threads()
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        if args.trace:
            metrics, units, outcomes, notes = run_traced(args.workload, args.seed)
        else:
            metrics, units, outcomes, notes = run_untraced(args.workload, args.seed,
                                                           args.seconds)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    failed = [o for o in outcomes if o.failures]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine  {json.dumps(machine_info(blas), sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6g} {units[name]}")
    print(f"fail_ratio                       {len(failed)}/{len(outcomes)} = "
          f"{len(failed) / len(outcomes):.4g}")
    for (label, checks), count in Counter((o.label, tuple(o.failures))
                                          for o in failed).items():
        print(f"FAILED {label}: {', '.join(checks)} (x{count})")
    for line in notes:
        print(line)
    return {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process; metrics are keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]) + "\n")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
        summary.append((name, res))
    if not args.trace:
        print(f"{'workload':18s} " + " ".join(f"{m:>12s}" for m in E2E_UNITS)
              + f" {'fail_ratio':>12s}")
        for name, res in summary:
            vals = " ".join(f"{res['metrics'][m]['value']:12.4g}" for m in E2E_UNITS)
            print(f"{name:18s} {vals} {res['failed']:>7d}/{res['attempted']:<4d}")
    return combined


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    try:
        if args.probe_setup:
            cap_blas_threads()
            print(repr(probe_setup(args.workload, args.seed)))
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
