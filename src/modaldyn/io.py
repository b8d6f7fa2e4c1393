"""Serialization: complex JSON arrays, CSV and JSONL exports.

Complex scalars serialize as ``[re, im]`` pairs; matrices as row-major
nested lists of pairs.  Floats are written with ``repr`` so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = [
    "matrix_from_json",
    "matrix_to_json",
    "vector_from_json",
    "vector_to_json",
    "scenario_hash",
    "write_currents_csv",
    "write_kernel_json",
    "write_manifest",
    "write_paths_jsonl",
    "write_rates_csv",
    "write_report_json",
    "write_state_space_json",
    "write_stats_csv",
    "write_trajectory_csv",
]


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(p[0], p[1]) for p in row] for row in data])


def vector_to_json(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in v]


def vector_from_json(data) -> np.ndarray:
    return np.array([complex(p[0], p[1]) for p in data])


def scenario_hash(scenario_dict: dict) -> str:
    canon = json.dumps(scenario_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _dump(path, obj):
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_state_space_json(path, states, probabilities):
    rows = [
        {"joint_index": k, "factor_labels": list(s), "probability": float(p)}
        for k, (s, p) in enumerate(zip(states, probabilities))
    ]
    _dump(path, rows)


def write_trajectory_csv(csv_path, projector_json_path, traj, factor_name: str):
    """Tracked weights as CSV rows referencing projectors in a side JSON file."""
    projectors = {}
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "label", "weight", "projector_ref"])
        for k, (t, pk) in enumerate(zip(traj.grid, traj.projectors)):
            for i in range(traj.n_labels):
                ref = f"{factor_name}_t{k}_l{i}"
                projectors[ref] = matrix_to_json(pk[i])
                w.writerow([repr(float(t)), i, repr(float(traj.weights[k, i])), ref])
    _dump(projector_json_path, projectors)


def write_currents_csv(path, grid, currents):
    """One row per node and pair i > j of the stacked ``CurrentMatrix``."""
    j, i = np.triu_indices(currents.size, 1)
    flows = currents.upper[:, j, i].tolist()
    pairs = list(zip(i.tolist(), j.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "i", "j", "j_ji"])
        for t, row in zip(np.asarray(grid, dtype=float).tolist(), flows):
            w.writerows([repr(t), a, b, repr(x)] for (a, b), x in zip(pairs, row))


def write_rates_csv(path, grid, rates):
    """One row per node and ordered pair i != j of the stacked ``RateMatrix``."""
    i, j = np.nonzero(~np.eye(rates.size, dtype=bool))
    values = rates.matrix[:, j, i].tolist()
    flags = rates.pole_mask[:, j, i].astype(int).tolist()
    pairs = list(zip(i.tolist(), j.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "i", "j", "rate", "pole_flag"])
        for t, vals, fl in zip(np.asarray(grid, dtype=float).tolist(), values, flags):
            w.writerows([repr(t), a, b, repr(x), f]
                        for (a, b), x, f in zip(pairs, vals, fl))


def write_kernel_json(path, kernel, deficit):
    _dump(path, {
        "s": float(kernel.s),
        "t": float(kernel.t),
        "matrix": [[float(x) for x in row] for row in kernel.matrix],
        "n_max": kernel.n_terms,
        "method": kernel.method,
        "deficit": [float(x) for x in deficit],
    })


def write_paths_jsonl(path, paths):
    """One JSON line per path of a ``PathEnsemble``; events are ``[t, label]``."""
    labels = [list(s) for s in paths.states]
    events = [[t, labels[j]] for t, j in zip(paths.times.tolist(), paths.dest.tolist())]
    bounds = paths.offsets.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for seed, first, lo, hi in zip(paths.seeds.tolist(), paths.initial.tolist(),
                                       bounds, bounds[1:]):
            rec = {"seed": seed, "initial": labels[first], "events": events[lo:hi]}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def write_stats_csv(path, stats, quantum_probs):
    """Empirical frequencies next to their quantum probabilities.

    ``quantum_probs`` maps (time index, label index) to the Born value.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "label", "frequency", "quantum_probability"])
        freqs = stats.frequencies
        for q, t in enumerate(stats.times):
            for k, lab in enumerate(stats.labels):
                lab_txt = "|".join(str(x) for x in lab) if isinstance(lab, tuple) else lab
                w.writerow([
                    repr(float(t)), lab_txt, repr(float(freqs[q, k])),
                    repr(float(quantum_probs[q, k])),
                ])


def write_report_json(path, report_dict: dict):
    _dump(path, report_dict)


def write_manifest(path, scenario_dict: dict, master_seed: int):
    from . import __version__

    _dump(path, {
        "scenario_hash": scenario_hash(scenario_dict),
        "master_seed": int(master_seed),
        "tool_version": __version__,
    })
