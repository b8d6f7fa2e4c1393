"""On-disk formats: the complex codec, JSON documents and CSV tables.

This is the only module that knows a file format, and it keeps one copy of
each.  Complex arrays of any rank serialize as nested lists whose innermost
entries are ``[re, im]`` pairs.  JSON documents are written with indent 1,
sorted keys and a trailing newline.  CSV tables share one dialect: commas,
CRLF line ends and ``repr`` floats.  Identical runs produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
from itertools import repeat
from pathlib import Path

import numpy as np

__all__ = [
    "complex_from_json",
    "complex_to_json",
    "write_currents_csv",
    "write_json",
    "write_kernel_json",
    "write_manifest",
    "write_paths_jsonl",
    "write_rates_csv",
    "write_report_json",
    "write_state_space_json",
    "write_stats_csv",
    "write_trajectory_csv",
]


def complex_to_json(a) -> list:
    """Nested lists of ``[re, im]`` pairs, one level per axis of ``a``."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def complex_from_json(data) -> np.ndarray:
    """Inverse of :func:`complex_to_json`; every entry must be a finite pair."""
    try:
        pairs = np.asarray(data)
    except ValueError:
        pairs = None                      # ragged nesting
    if (pairs is None or pairs.dtype.kind not in "iuf" or pairs.shape[-1:] != (2,)
            or not np.isfinite(pairs).all()):
        raise ValueError("complex entries must be finite [re, im] pairs")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def write_json(path, obj):
    """The one JSON document writer."""
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")


def _write_csv(path, header, times, blocks):
    """Write one block of rows per time in the CSV dialect: commas, CRLF line
    ends (as ``csv.writer`` writes them) and ``format(cell)``, the ``repr`` of
    a float; no cell needs quoting.

    Each block is a tuple of columns with one cell per row; the writer puts
    the time, formatted once per block, in front of every row.
    """
    row = ",".join(["{}"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(row.format(*header))
        for t, columns in zip(np.asarray(times, dtype=float).tolist(), blocks):
            fh.write("".join(map(row.format, repeat(repr(t)), *columns)))


def write_state_space_json(path, states, probabilities):
    write_json(path, [
        {"joint_index": k, "factor_labels": list(s), "probability": float(p)}
        for k, (s, p) in enumerate(zip(states, probabilities))
    ])


def write_trajectory_csv(csv_path, projector_json_path, traj, factor_name: str):
    """Tracked weights as CSV rows referencing directions in a side JSON file.

    The side file maps each ``projector_ref`` to the label's unit direction
    ``v`` as ``[re, im]`` pairs; its projector is ``|v><v|``.
    """
    labels = [str(i) for i in range(traj.n_labels)]
    refs = [[f"{factor_name}_t{k}_l{i}" for i in labels] for k in range(len(traj.grid))]
    _write_csv(csv_path, ["time", "label", "weight", "projector_ref"], traj.grid,
               zip(repeat(labels), traj.weights.tolist(), refs))
    write_json(projector_json_path, {
        ref: v for node_refs, node in zip(refs, complex_to_json(traj.vectors))
        for ref, v in zip(node_refs, node)})


def write_currents_csv(path, grid, currents):
    """One row per node and pair i > j of the stacked ``CurrentMatrix``."""
    j, i = np.triu_indices(currents.size, 1)
    _write_csv(path, ["time", "i", "j", "j_ji"], grid, zip(
        repeat(i.astype(str).tolist()), repeat(j.astype(str).tolist()),
        currents.upper[:, j, i].tolist()))


def write_rates_csv(path, grid, rates):
    """One row per node and ordered pair i != j of the stacked ``RateMatrix``."""
    i, j = np.nonzero(~np.eye(rates.size, dtype=bool))
    _write_csv(path, ["time", "i", "j", "rate", "pole_flag"], grid, zip(
        repeat(i.astype(str).tolist()), repeat(j.astype(str).tolist()),
        rates.matrix[:, j, i].tolist(), rates.pole_mask[:, j, i].astype(int).tolist()))


def write_kernel_json(path, kernel, deficit):
    write_json(path, {
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
    labels = ["|".join(map(str, lab)) if isinstance(lab, tuple) else str(lab)
              for lab in stats.labels]
    _write_csv(path, ["time", "label", "frequency", "quantum_probability"], stats.times,
               zip(repeat(labels), np.asarray(stats.frequencies, dtype=float).tolist(),
                   np.asarray(quantum_probs, dtype=float).tolist()))


def write_report_json(path, report_dict: dict):
    write_json(path, report_dict)


def write_manifest(path, scenario_dict: dict, master_seed: int):
    from . import __version__

    canon = json.dumps(scenario_dict, sort_keys=True, separators=(",", ":"))
    write_json(path, {
        "scenario_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
        "master_seed": int(master_seed),
        "tool_version": __version__,
    })
