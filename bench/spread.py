"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload generic16-report --seeds 1-10
    python3 bench/spread.py --workload export-mixed --seeds 1 --trace 1 \\
        --label b9a4150 --out bench/baseline.json

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  With ``--out`` the
per-seed values and these statistics are merged into a JSON record under
``<workload>/trace<0|1>``, with the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread_stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="", help="what was measured, e.g. a commit")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: benchmark exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        machine = json.loads(next(l for l in lines if l.startswith("machine"))[8:])
        values = {k: v["value"] for k, v in res["metrics"].items()}
        runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                     "failed": res["failed"], "metrics": values})
        print(f"seed {seed}: failed {res['failed']}/{res['attempted']}  " + "  ".join(
            f"{k}={v:.4g}" for k, v in values.items() if k in bounds), flush=True)

    stats = {k: spread_stats([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, st in stats.items():
        spread = "-" if st["spread"] is None else f"{st['spread']:.3f}"
        print(f"{name:32s} {st['median']:12.5g} {st['q1']:12.5g} {st['q3']:12.5g} "
              f"{spread:>8s} {bounds.get(name, '-')!s:>6s}")
    if args.out:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        record[f"{args.workload}/trace{args.trace}"] = {
            "label": args.label, "machine": machine, "run_seconds": spec["run_seconds"],
            "stats": stats, "runs": runs}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
