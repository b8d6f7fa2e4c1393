"""Command line interface.

Exit codes: 0 success, 2 validation failure, 3 numerical-diagnostic
failure, 1 other stage errors.  The output directory may also be set
through the MODALDYN_OUT environment variable; the --out flag wins.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ModalDynError, ScenarioValidationError
from .scenario import builtin_scenarios, load_scenario


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="modaldyn")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario end to end")
    runp.add_argument("scenario", help="builtin name or scenario JSON path")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="master seed override")
    runp.add_argument("--paths", type=int, default=None, help="ensemble size override")
    runp.add_argument("--current", default=None,
                      help="current constructor override")
    runp.add_argument("--report-only", action="store_true",
                      help="compute diagnostics without writing exports")

    valp = sub.add_parser("validate", help="validate a scenario file or builtin")
    valp.add_argument("scenario")

    sub.add_parser("list-builtins", help="list builtin scenario names")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-builtins":
        for name in builtin_scenarios():
            print(name)
        return 0

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"OK: {scenario.name}")
        return 0

    from .pipeline import run

    out_dir = args.out or os.environ.get("MODALDYN_OUT")
    try:
        result = run(scenario, out_dir=out_dir, report_only=args.report_only,
                     n_paths=args.paths, master_seed=args.seed,
                     current=args.current)
    except ScenarioValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (ModalDynError, ValueError, ArithmeticError) as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 1

    report = result.report
    print(f"scenario            {report.scenario_name} "
          f"[{report.current} / {report.rate_choice}]")
    print(f"continuity residual {report.continuity_residual:.3e}")
    print(f"master residual     {report.master_residual:.3e} "
          f"(rows masked: {report.master_rows_masked})")
    if report.chapman_residual is not None:
        print(f"chapman residual    {report.chapman_residual:.3e}")
        print(f"honesty deficit     {report.honesty_deficit_max:.3e}")
    elif report.kernel_note:
        print(f"kernels             {report.kernel_note}")
    if report.max_total_variation is not None:
        print(f"max total variation {report.max_total_variation:.4f} "
              f"({report.n_paths} paths)")
    print(f"deterministic       {report.deterministic}")
    print(f"max jumps           {report.max_jumps} (forced {report.forced_jumps}, "
          f"pole crossings {report.pole_crossings}, relays {report.relays})")
    print(f"crossings/poles     {len(report.crossings)} / {report.pole_nodes}")

    failures = report.failures(result.scenario.thresholds)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 3 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
