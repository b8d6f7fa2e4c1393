"""On-disk formats: the complex codec, JSON documents and CSV tables.

This is the only module that knows a file format, and it keeps one copy of
each.  Complex arrays of any rank serialize as nested lists whose innermost
entries are ``[re, im]`` pairs.  JSON documents are written with indent 1,
sorted keys and a trailing newline.  CSV tables share one dialect: commas,
CRLF line ends and ``repr`` floats.  Identical runs produce byte-identical
files, the same on every OS: nothing is written with newline translation.

The large files are written from templates, so the only Python work per
value is its ``repr``.  A CSV table lays out one block of rows, the fixed
cells and separators included, once per file and fills in each node's time
and values by slice assignment before one join.  A direction side file
fills one template per ref, and each ``paths.jsonl`` line is one f-string
over label strings encoded once.  Their bytes are those of ``csv.writer``
and ``json.dumps`` for the same rows and objects.
"""

from __future__ import annotations

import hashlib
import json
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
                          encoding="utf-8", newline="")


def _write_csv(path, header, times, columns, blocks):
    """Write one block of rows per time in the CSV dialect: commas, CRLF line
    ends (as ``csv.writer`` writes them) and the ``repr`` of every float; no
    cell needs quoting.

    Each row starts with the time.  ``columns`` gives every later column
    either as its cells, the same in every block, or as None for a column
    that each block of ``blocks`` supplies, in order, as an iterable of cell
    strings; at least one column is fixed.  A block's cells and separators
    are laid out once in one list; per time, the time and the supplied cells
    fill their slots by slice assignment, and the block is written with one
    join.
    """
    n = len(next(col for col in columns if col is not None))
    width = 2 * len(header)
    pieces = [","] * (width * n)
    pieces[width - 1::width] = ["\r\n"] * n
    for k, col in enumerate(columns, 1):
        if col is not None:
            pieces[2 * k::width] = col
    slots = [2 * k for k, col in enumerate(columns, 1) if col is None]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, block in zip(np.asarray(times, dtype=float).tolist(), blocks):
            pieces[0::width] = [repr(t)] * n
            for k, cells in zip(slots, block):
                pieces[k::width] = cells
            fh.write("".join(pieces))


def write_state_space_json(path, states, probabilities):
    write_json(path, [
        {"joint_index": k, "factor_labels": list(s), "probability": float(p)}
        for k, (s, p) in enumerate(zip(states, probabilities))
    ])


def write_trajectory_csv(csv_path, projector_json_path, traj, factor_name: str):
    """Tracked weights as CSV rows referencing directions in a side JSON file.

    The side file maps each ``projector_ref`` to the label's unit direction
    ``v`` as ``[re, im]`` pairs; its projector is ``|v><v|``.  It holds the
    bytes ``write_json`` would write for that mapping, of finite directions,
    from one template per ref filled with the ``repr`` of each value.
    """
    n, d = traj.weights.shape
    labels = [str(i) for i in range(d)]
    refs = [f"{factor_name}_t{k}_l{i}" for k in range(n) for i in labels]
    _write_csv(csv_path, ["time", "label", "weight", "projector_ref"], traj.grid,
               [labels, None, None],
               ((map(repr, w.tolist()), refs[k * d:(k + 1) * d])
                for k, w in enumerate(traj.weights)))
    order = sorted(range(len(refs)), key=refs.__getitem__)
    pairs = np.stack([traj.vectors.real, traj.vectors.imag], -1).reshape(n * d, -1)
    entry = ' "{}": [\n' + ",\n".join(["  [\n   {},\n   {}\n  ]"] * traj.dim) + "\n ]"
    body = ",\n".join(map(entry.format, map(refs.__getitem__, order),
                          *pairs[order].T.tolist()))
    Path(projector_json_path).write_text("{\n" + body + "\n}\n", encoding="utf-8",
                                         newline="")


def write_currents_csv(path, grid, currents):
    """One row per node and pair i > j of the stacked ``CurrentMatrix``."""
    j, i = np.triu_indices(currents.size, 1)
    _write_csv(path, ["time", "i", "j", "j_ji"], grid,
               [i.astype(str).tolist(), j.astype(str).tolist(), None],
               ((map(repr, row.tolist()),) for row in currents.matrix[:, j, i]))


def write_rates_csv(path, grid, rates):
    """One row per node and ordered pair i != j of the stacked ``RateMatrix``."""
    i, j = np.nonzero(~np.eye(rates.size, dtype=bool))
    flag = ("0", "1").__getitem__
    _write_csv(path, ["time", "i", "j", "rate", "pole_flag"], grid,
               [i.astype(str).tolist(), j.astype(str).tolist(), None, None],
               ((map(repr, r.tolist()), map(flag, f.tolist()))
                for r, f in zip(rates.matrix[:, j, i], rates.pole_mask[:, j, i])))


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
    """One JSON line per path of a ``PathEnsemble``: ``"seed"`` is the path's
    position, and events are ``[t, label]``.

    Each line holds the bytes of ``json.dumps(rec, separators=(",", ":"))``
    for finite event times, built from label strings encoded once.
    """
    labels = [json.dumps(list(s), separators=(",", ":")) for s in paths.states]
    events = [f"[{t!r},{labels[j]}]" for t, j in zip(paths.times.tolist(), paths.dest.tolist())]
    bounds = paths.offsets.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for seed, (first, lo, hi) in enumerate(zip(paths.initial.tolist(),
                                                   bounds, bounds[1:])):
            fh.write(f'{{"seed":{seed},"initial":{labels[first]},'
                     f'"events":[{",".join(events[lo:hi])}]}}\n')


def write_stats_csv(path, stats, quantum_probs):
    """Empirical frequencies next to their quantum probabilities.

    ``quantum_probs`` maps (time index, label index) to the Born value.
    """
    labels = ["|".join(map(str, lab)) if isinstance(lab, tuple) else str(lab)
              for lab in stats.labels]
    _write_csv(path, ["time", "label", "frequency", "quantum_probability"], stats.times,
               [labels, None, None],
               ((map(repr, f.tolist()), map(repr, q.tolist())) for f, q in zip(
                   np.asarray(stats.frequencies, dtype=float),
                   np.asarray(quantum_probs, dtype=float))))


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
