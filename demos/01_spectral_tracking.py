"""Tracking eigenprojections of a reduced state through a weight crossing.

The reduced state W(t) = cos^2(t) P1 + sin^2(t) P2 has eigenvalues that
cross at t = pi/4 and 3pi/4.  The instantaneous spectral resolution merges
at the crossing, but the tracked (continuously continued) projectors stay
perfectly constant, so the label set never changes.
"""

import numpy as np
from scipy.linalg import expm

from modaldyn import detect_crossings, track
from modaldyn.spectral import derivative_family

# --- a crossing family with constant eigenprojections ---------------------

grid = np.arange(0.0, np.pi + 1e-12, 1e-3)
p1 = np.diag([1.0, 0.0]).astype(complex)
p2 = np.diag([0.0, 1.0]).astype(complex)
states = [np.cos(t) ** 2 * p1 + np.sin(t) ** 2 * p2 for t in grid]

traj = track(states, grid)
drift = np.abs(traj.projectors - traj.projectors[0]).max()
print(f"max projector drift over [0, pi]: {drift:.2e}  (constant through crossings)")

for ev in detect_crossings(traj):
    print(f"weights of labels {ev.labels} cross near t = {ev.t_min:.4f} "
          f"(min gap {ev.min_gap:.2e})")
print(f"exact crossings sit at pi/4 = {np.pi/4:.4f} and 3pi/4 = {3*np.pi/4:.4f}")

# --- a rotating family tracked against its closed form --------------------

rng = np.random.default_rng(1)
h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
h = (h + h.conj().T) / 2
w0 = np.diag([0.5, 0.3, 0.2]).astype(complex)

grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
rotated = []
for t in grid:
    u = expm(-1j * h * t)
    rotated.append(u @ w0 @ u.conj().T)
traj = track(rotated, grid)

k = 700
u = expm(-1j * h * grid[k])
err = max(
    np.abs(traj.projectors[k, i] - u @ np.diag([float(j == i) for j in range(3)])
           @ u.conj().T).max()
    for i in range(3)
)
print(f"\nrotating family: tracked vs closed-form projectors at t={grid[k]:.2f}: "
      f"max error {err:.2e}")

derivs = derivative_family(traj.projectors, grid)[k]
balance = np.abs(sum(derivs)).max()
comm = np.abs(derivs[0] - (-1j) * (h @ traj.projectors[k, 0]
                                   - traj.projectors[k, 0] @ h)).max()
print(f"derivative family sums to zero within {balance:.2e}; "
      f"matches -i[H, P] within {comm:.2e}")
