"""Probability currents and the transition rates they induce.

Currents are antisymmetric solutions of the continuity equation
pdot_j = sum_i j_ji.  Infinitely many solutions exist; this demo compares
the least-norm choice with the Schrodinger-type choices on one node of the
crossing scenario, then converts a current into one-directional rates
and a jump decomposition.
"""

import numpy as np

from modaldyn import (bell_rates, continuity_residual, jump_decomposition,
                      load_scenario)
from modaldyn.currents import minimal_flow_current
from modaldyn.kinetics import general_rates
from modaldyn.pipeline import compute_currents, compute_joint_family, pdot_target

scenario = load_scenario("easyexample")
family = compute_joint_family(scenario)
node = 300
t = family.grid[node]
print(f"scenario {scenario.name!r} at t = {t:.3f}")
print(f"joint probabilities: {np.round(family.probabilities[node], 4)}")

for kind in ("minimal_flow", "static_schrodinger", "generalized_schrodinger"):
    cm = compute_currents(family, kind=kind)[node]
    target = pdot_target(family, kind)[node]
    res = continuity_residual(cm, target)
    flow = cm.full()[3, 0]
    print(f"{kind:24s} j[(1,1)<-(0,0)] = {flow:+.5f}   continuity residual {res:.1e}")
print(f"exact flow for this family: sin(2t) = {np.sin(2 * t):+.5f}")

# --- rates: one-directional choice ------------------------------------------

cm = compute_currents(family, kind="generalized_schrodinger")[node]
p = family.probabilities[node]
rates = bell_rates(cm, p)
print(f"\none-directional rates at t = {t:.3f}:")
print(f"  t[(1,1)<-(0,0)] = {rates.matrix[3, 0]:.5f} "
      f"(= j / p = {np.sin(2 * t) / np.cos(t) ** 2:.5f})")
print(f"  t[(0,0)<-(1,1)] = {rates.matrix[0, 3]:.5f} (flow is one-way here)")
print(f"  poles: {rates.has_poles}")

dec = jump_decomposition(rates)
print(f"  exit rate of (0,0): {dec.exit_rates[0]:.5f}; destination law "
      f"{np.round(dec.jump_matrix[:, 0], 3)}")

# --- the general solution family ---------------------------------------------
# The offset construction divides by every probability, so it lives on
# state spaces with full support; here, the two occupied states alone.

p2 = np.array([np.cos(t) ** 2, np.sin(t) ** 2])
cm2 = minimal_flow_current(np.array([-np.sin(2 * t), np.sin(2 * t)]) / 1.0)
for c in (0.0, 0.5, 2.0):
    loose = general_rates(cm2, p2, free_choice=c)
    recon = loose.matrix * p2[None, :] - (loose.matrix * p2[None, :]).T
    print(f"offset c = {c}: rates t10 = {loose.matrix[1, 0]:.4f}, "
          f"t01 = {loose.matrix[0, 1]:.4f}; current reconstructed within "
          f"{np.abs(recon - cm2.full()).max():.1e}")
print("different rate choices, identical single-time statistics: the")
print("dynamics is underdetermined by the quantum state alone.")
