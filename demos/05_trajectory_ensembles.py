"""Monte Carlo property trajectories and their ensemble statistics.

Every pipeline below converts a scenario into joint-state rates and
samples path ensembles whose single-time distributions must reproduce the
Born weights.  The runs also exhibit the structural results: free systems
never jump, an ideal measurement of an already-possessed property leaves
it untouched while correlating the pointer with it, and empirically
equivalent dynamics can differ path by path.
"""

import numpy as np

from modaldyn import ensemble_marginals, load_scenario
from modaldyn.pipeline import run

N = 20_000   # enough for tight bands while keeping the demo quick

# --- Born reproduction on the crossing scenario -------------------------------

result = run(load_scenario("easyexample"), report_only=True, n_paths=N)
print("easyexample: empirical vs Born marginals on factor 0")
stats = ensemble_marginals(result.paths, [0.2, 0.5], factor=0)
for q, t in enumerate(stats.times):
    print(f"  t={t:.1f}: freq(label 0) = {stats.frequencies[q, 0]:.4f}, "
          f"cos^2(t) = {np.cos(t) ** 2:.4f}")
print(f"  joint total variation (worst query): "
      f"{result.report.max_total_variation:.4f}; mean jumps/path "
      f"{result.report.mean_jumps:.3f}")

# --- determinism for free systems ---------------------------------------------

free = run(load_scenario("albert-free"), report_only=True, n_paths=5_000)
print(f"\nalbert-free: deterministic = {free.report.deterministic} "
      f"(every path follows its rotating projector, zero jumps)")

# --- measurement of an already-possessed property -------------------------------

meas = run(load_scenario("measured-possessed-property"), report_only=True, n_paths=N)
fam = meas.family
t_end = fam.grid[-1]
final = ensemble_marginals(meas.paths, [t_end])
freqs = final.frequencies[0]
# Each event leaves the previous event's destination, or, for a path's
# first event, the path's initial state.
paths = meas.paths
started = paths.jump_counts > 0
before = np.roll(paths.dest, 1)
before[paths.offsets[:-1][started]] = paths.initial[started]
labels = np.array(fam.states)
changed = labels[before] != labels[paths.dest]      # (events, factors)
system_jumps, pointer_jumps = changed.sum(axis=0)[:2]
# Joint (system label, pointer label) mass; association = share sitting on
# the modal pairing, 1.0 when the pointer determines the property exactly.
pair_mass = {}
for k, s in enumerate(fam.states):
    pair_mass[(s[0], s[1])] = pair_mass.get((s[0], s[1]), 0.0) + freqs[k]
association = sum(
    max(v for (i, _), v in pair_mass.items() if i == sys_label)
    for sys_label in (0, 1)
)
print(f"\nmeasured-possessed-property at completion t = {t_end:.3f}:")
print(f"  measured-factor jumps across the ensemble: {system_jumps} "
      f"(the possessed property is undisturbed)")
print(f"  pointer-factor jumps: {pointer_jumps} (the record forms stochastically)")
print(f"  pointer-property association at completion: {association:.4f}")

# --- empirically equivalent but distinct dynamics -------------------------------

mini = run(load_scenario("easyexample"), report_only=True, n_paths=N,
           current="minimal_flow")
print(f"\nempirical equivalence on easyexample:")
print(f"  generalized current: mean jumps {result.report.mean_jumps:.3f}, "
      f"TV {result.report.max_total_variation:.4f}")
print(f"  least-norm current:  mean jumps {mini.report.mean_jumps:.3f}, "
      f"TV {mini.report.max_total_variation:.4f}")
print("  same single-time statistics, different trajectories.")
