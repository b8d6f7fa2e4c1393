"""Probability currents and the transition rates they induce.

Currents are antisymmetric solutions of the continuity equation
pdot_j = sum_i j_ji.  Infinitely many solutions exist; this demo compares
the least-norm choice with the Schrodinger-type choices on one node of the
crossing scenario, then converts a current into one-directional rates
and into the family of rates that adds a symmetric flux to them.  A
state's exit rate is minus the diagonal entry of its column, and a jump
lands in proportion to the off-diagonal entries of that column.
"""

import numpy as np

from modaldyn import CurrentMatrix, continuity_residual, load_scenario, rate_matrix
from modaldyn.pipeline import compute_currents, compute_joint_family, pdot_target

scenario = load_scenario("easyexample")
family = compute_joint_family(scenario)
node = 300
t = family.grid[node]
print(f"scenario {scenario.name!r} at t = {t:.3f}")
print(f"joint probabilities: {np.round(family.probabilities[node], 4)}")

# Every current is checked against the one Born derivative of the grid, a
# 3-point stencil.  The least-norm current spreads the exact derivative (the
# generalized current's row sums), so both read the stencil's error.  Here the
# tracked projectors barely move, so the static current passes too; where
# they rotate (measured-possessed-property) its residual reaches 0.34.
target = pdot_target(family)[node]
for kind in ("minimal_flow", "static_schrodinger", "generalized_schrodinger",
             "minimal_flow_like"):
    cm = CurrentMatrix(compute_currents(family, kind=kind).matrix[node])
    res = continuity_residual(cm, target)
    flow = cm.matrix[3, 0]
    print(f"{kind:24s} j[(1,1)<-(0,0)] = {flow:+.5f}   continuity residual {res:.1e}")
print(f"exact flow for this family: sin(2t) = {np.sin(2 * t):+.5f}")

# --- rates: one-directional choice ------------------------------------------

cm = CurrentMatrix(compute_currents(family, kind="generalized_schrodinger").matrix[node])
p = family.probabilities[node]
rates = rate_matrix(cm, p)
print(f"\none-directional rates at t = {t:.3f}:")
print(f"  t[(1,1)<-(0,0)] = {rates.matrix[3, 0]:.5f} "
      f"(= j / p = {np.sin(2 * t) / np.cos(t) ** 2:.5f})")
print(f"  t[(0,0)<-(1,1)] = {rates.matrix[0, 3]:.5f} (flow is one-way here)")
print(f"  poles: {rates.pole_mask.any()}")

exit_rate = -rates.matrix[0, 0]
law = np.where(np.arange(len(p)) == 0, 0.0, rates.matrix[:, 0]) / exit_rate
print(f"  exit rate of (0,0): {exit_rate:.5f}; destination law {np.round(law, 3)}")

# --- the general solution family ---------------------------------------------
# Any rates that reproduce the current add a symmetric flux s_ji = s_ij on
# top of Bell's: t_ji = (max{0, j_ji} + s_ji) / p_i.  The family here takes
# s_ji = c p_i p_j, so t_ji = bell_ji + c p_j: nothing is divided, and it runs
# on the full four-state space, zero-probability states included.  Each
# member reproduces the same current, so the same Born law, while its
# intensity (the expected jump rate under the Born weights) grows by
# c (1 - sum_i p_i^2).

for c in (0.0, 0.5, 2.0):
    loose = rate_matrix(cm, p, free_choice=c)
    flow = loose.matrix * p[None, :]
    recon = flow - flow.T
    intensity = (np.where(np.eye(len(p), dtype=bool), 0.0, loose.matrix) * p[None, :]).sum()
    print(f"offset c = {c}: current reconstructed within "
          f"{np.abs(recon - cm.matrix).max():.1e}; intensity {intensity:.4f} "
          f"(Bell + c (1 - sum p^2) = "
          f"{np.abs(cm.matrix).sum() / 2 + c * (1 - (p * p).sum()):.4f})")
print("different offsets c, identical single-time statistics: the")
print("dynamics is underdetermined by the quantum state alone.")
