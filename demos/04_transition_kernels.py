"""Finite-time transition kernels from time-dependent rates.

The minimal-solution series sums the probabilities of making exactly n
jumps; for a finite state space with bounded rates it converges to an
honest kernel (columns summing to one) and agrees with direct integration
of the forward equation.  For constant rates both must reproduce the
matrix exponential.
"""

import numpy as np
from scipy.linalg import expm

from modaldyn import (chapman_kolmogorov_residual, feller_minimal,
                      forward_ode_kernel, honesty_deficit, load_scenario)
from modaldyn.pipeline import run

# --- constant rates: the exactly solvable check ------------------------------

off = np.array([[0.0, 2.0], [1.0, 0.0]])
t_mat = off.copy()
np.fill_diagonal(t_mat, -t_mat.sum(axis=0))
rates = lambda u: t_mat

series = feller_minimal(rates, 0.0, 1.0, n_max=25, quad_step=1e-3)
ode = forward_ode_kernel(rates, 0.0, 1.0, ode_step=1e-3)
exact = expm(t_mat).real

print("constant 2-state rates over one time unit:")
print(f"  series kernel ({series.n_terms} jump terms) vs exp(T): "
      f"{np.abs(series.matrix - exact).max():.2e}")
print(f"  forward solver vs exp(T): {np.abs(ode.matrix - exact).max():.2e}")
print(f"  honesty deficit: {np.abs(honesty_deficit(series)).max():.2e}")

deficits = [honesty_deficit(
    feller_minimal(rates, 0.0, 1.0, n_max=n, quad_step=2e-3,
                   check_convergence=False)).max() for n in (0, 1, 2, 4, 8)]
print("  truncated deficits (n_max = 0,1,2,4,8):",
      " ".join(f"{d:.1e}" for d in deficits))
print("  each term adds nonnegative probability, so truncations are monotone.")

# --- time-dependent rates from the crossing scenario -------------------------

result = run(load_scenario("easyexample"), report_only=True, n_paths=1)
rt = result.rate_trajectory

series = feller_minimal(rt, 0.1, 0.5, quad_step=1e-3)
ode = forward_ode_kernel(rt, 0.1, 0.5, ode_step=1e-3)
print(f"\ncrossing scenario on [0.1, 0.5]: series vs solver "
      f"{np.abs(series.matrix - ode.matrix).max():.2e}")

factory = lambda a, b: forward_ode_kernel(rt, a, b, ode_step=1e-3)
ck = chapman_kolmogorov_residual(factory, 0.1, 0.2, 0.5)
print(f"Chapman-Kolmogorov residual through the midpoint: {ck:.2e}")
print(f"column sums: {np.round(ode.column_sums(), 9)} (honest on pole-free windows)")
