"""Empirically equivalent dynamics: one Born law, different two-time laws.

Four dynamics run on measured-possessed-property: Bell's rates on the
generalized current (c = 0), the rate family that adds the symmetric flux
c p_i p_j each way at c = 1 and c = 5, and Bell's rates on the least-norm
current of the exact Born derivative.  Every one reproduces the Born weights
at each single time, within sampling noise.  The joint law of the pair of
states at the grid's 1/4 and 3/4 nodes differs between them: the quantum
state fixes the single-time statistics, not the trajectories.
"""

from dataclasses import replace

import numpy as np

from modaldyn import load_scenario, total_variation
from modaldyn.pipeline import run

N = 20_000   # single-time TVs of a few 1e-3: sampling noise alone

base = load_scenario("measured-possessed-property")
dynamics = {
    "Bell (c = 0)": base,
    "family c = 1": replace(base, rate_choice="general", general_rate_offset=1.0),
    "family c = 5": replace(base, rate_choice="general", general_rate_offset=5.0),
    "minimal flow": replace(base, current="minimal_flow"),
}

laws = {}
for name, scenario in dynamics.items():
    result = run(scenario, report_only=True, n_paths=N)
    grid, p = result.family.grid, result.family.probabilities
    d = p.shape[1]
    nodes = [k * (len(grid) - 1) // 4 for k in (1, 3)]
    first, last = (result.paths.states_at(grid[k]) for k in nodes)
    born_tv = max(total_variation(np.bincount(s, minlength=d) / N, p[k])
                  for s, k in zip((first, last), nodes))
    laws[name] = (np.bincount(first * d + last, minlength=d * d) / N,
                  born_tv, result.report.mean_jumps)

print(f"measured-possessed-property, {N} paths; times "
      f"{grid[nodes[0]]:.3f} and {grid[nodes[1]]:.3f}")
print(f"{'dynamics':14s} {'single-time TV':>15s} {'pair-law TV vs Bell':>20s} "
      f"{'mean jumps':>11s}")
bell_pairs = laws["Bell (c = 0)"][0]
for name, (pairs, born_tv, jumps) in laws.items():
    print(f"{name:14s} {born_tv:15.4f} {total_variation(pairs, bell_pairs):20.4f} "
          f"{jumps:11.3f}")
print("the same Born law at each time; the pair laws and jump counts differ.")
