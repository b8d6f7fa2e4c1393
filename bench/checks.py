"""Correctness checks on pipeline results and run directories.

Every check returns the names of the checks that failed (empty when the
output is correct).  Statistical bands are fixed in advance from the sample
size and the predicted value alone; nothing here is tuned to a seed.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import trapezoid

# Band half-width in standard deviations.  Two-sided tail about 2e-9 per
# comparison, so thousands of comparisons per benchmark run still give a
# false alarm far less than once per thousand runs.
Z = 6.0


def frequency_band(p, n: int, z: float = Z):
    """Half-width of the band an n-sample frequency keeps around probability p.

    The CLT band z*sqrt(p(1-p)/n), widened by the Bernstein small-count term
    so that a state of probability near zero is not failed by one visit:
    Bernstein's inequality puts |f - p| beyond this width with probability at
    most 2*exp(-z^2/2).
    """
    p = np.asarray(p, dtype=float)
    var = np.clip(p * (1.0 - p), 0.0, None)
    return (z * z / 3.0 + np.sqrt(z ** 4 / 9.0 + 4.0 * n * z * z * var)) / (2.0 * n)


def born_failures(result) -> list[str]:
    """Every query-time frequency lies in its band around the Born weight."""
    stats = result.stats
    if stats is None:
        return []
    grid = result.family.grid
    for q, t in enumerate(stats.times):
        p = result.family.probabilities[int(np.argmin(np.abs(grid - t)))]
        if np.any(np.abs(stats.frequencies[q] - p) > frequency_band(p, stats.n_paths)):
            return ["born_band"]
    return []


def predicted_mean_jumps(result) -> float:
    """Integral over the grid of sum_i p_i(t) * exit_i(t)."""
    mats = np.stack([rm.matrix for rm in result.rate_matrices])
    exit_rates = np.clip(-np.einsum("nii->ni", mats), 0.0, None)
    probs = result.family.probabilities
    return float(trapezoid((probs * exit_rates).sum(axis=1), result.family.grid))


def jump_count_failures(result, z: float = Z) -> list[str]:
    """The sampled mean jump count matches its exact prediction.

    The band is z standard errors of the sample mean plus 1/n, the
    resolution of a mean of n integer counts.
    """
    counts = np.array([p.jump_count for p in result.paths], dtype=float)
    n = len(counts)
    if n == 0:
        return []
    se = counts.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    if abs(counts.mean() - predicted_mean_jumps(result)) > z * se + 1.0 / n:
        return ["jump_count"]
    return []


def kernel_over_threshold(result) -> list[str]:
    """The built kernels' diagnostics that miss the scenario's thresholds.

    Series-vs-ODE agreement is held to the Chapman-Kolmogorov threshold,
    the scenario's bound on max-entry kernel residuals.
    """
    rep, th = result.report, result.scenario.thresholds
    out = []
    if rep.kernel_cross_check is not None and rep.kernel_cross_check > th.chapman:
        out.append("kernel_series_vs_ode")
    if rep.honesty_deficit_max is not None and abs(rep.honesty_deficit_max) > th.honesty:
        out.append("kernel_honesty")
    return out


def result_failures(result, deterministic: bool, kernel_thresholds: bool) -> list[str]:
    out = born_failures(result) + jump_count_failures(result)
    if kernel_thresholds:
        out += kernel_over_threshold(result)
    if deterministic and result.report.deterministic is not True:
        out.append("not_deterministic")
    return out


def expected_files(result) -> set[str]:
    names = {"manifest.json", "scenario.json", "state_space.json", "currents.csv",
             "rates.csv", "report.json"}
    for k in range(len(result.scenario.factor_dims)):
        names |= {f"trajectory_factor{k}.csv", f"trajectory_factor{k}_projectors.json"}
    if result.kernels is not None:
        names.add("kernel.json")
    if result.paths:
        names.add("paths.jsonl")
    if result.stats is not None:
        names.add("stats.csv")
    return names


def export_failures(result, out_dir: Path) -> list[str]:
    """The run directory holds what the result says it should."""
    out = []
    present = {p.name for p in out_dir.iterdir()}
    if present != expected_files(result):
        return ["export_file_set"]
    with open(out_dir / "paths.jsonl", "rb") as fh:
        if sum(1 for _ in fh) != result.scenario.ensemble.n_paths:
            out.append("export_paths_lines")
    with open(out_dir / "stats.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    freqs = np.array([float(r["frequency"]) for r in rows])
    born = np.array([float(r["quantum_probability"]) for r in rows])
    if not np.array_equal(freqs, result.stats.frequencies.reshape(-1)):
        out.append("export_stats_frequencies")
    n_times = len(result.stats.times)
    tv_csv = 0.5 * np.abs(freqs - born).reshape(n_times, -1).sum(axis=1)
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    tv_report = report["total_variation"]
    keys = [repr(float(t)) for t in result.stats.times]
    if set(keys) != set(tv_report) or max(
            abs(tv_report[k] - tv) for k, tv in zip(keys, tv_csv)) > 1e-12:
        out.append("export_stats_vs_report")
    return out


def identical_dirs(a: Path, b: Path) -> bool:
    """Both run directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors
