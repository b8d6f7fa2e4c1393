"""Finite-time transition kernels from time-dependent rates.

Two independent constructions are provided and cross-checked in the test
suite: the minimal-solution series (summing probabilities of exactly n
jumps) and a fixed-step fourth-order integration of the forward equation
d/dt p(t, s) = T(t) p(t, s).

The series term of order n is

    p^(n)_ji(t, s) = sum_k int_s^t exp(-int_u^t t_j) t_jk(u) p^(n-1)_ki(u, s) du

with p^(0) the diagonal no-jump survival kernel.  Every term is
nonnegative, so truncated kernels increase monotonically toward the
minimal solution; for a finite state space with bounded rates the column
sums converge to one ("honest" kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_simpson

from .config import DEFAULT
from .errors import PoleInInterval, TruncationNotConverged
from .kinetics import RateTrajectory

__all__ = [
    "TransitionKernel",
    "chapman_kolmogorov_residual",
    "feller_minimal",
    "forward_ode_kernel",
    "honesty_deficit",
]

RatesLike = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class TransitionKernel:
    """Transition probabilities p_ji(t, s); column i is the law started in i."""

    s: float
    t: float
    matrix: np.ndarray
    method: str
    n_terms: int | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel matrix must be square")
        if m.min() < -1e-8 or m.max() > 1 + 1e-8:
            raise ValueError("kernel entries leave [0, 1] beyond tolerance")
        m = np.clip(m, 0.0, 1.0)
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def column_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


def _rate_batch(rates, times: np.ndarray) -> np.ndarray:
    if isinstance(rates, RateTrajectory):
        return rates.matrix_batch(times)
    return np.stack([np.asarray(rates(float(u)), dtype=float) for u in times])


def _check_poles(rates, s: float, t: float):
    if isinstance(rates, RateTrajectory):
        hits = rates.pole_node_times(s, t)
        if hits.size:
            raise PoleInInterval(
                f"rates have poles at nodes {hits[:4].tolist()} inside [{s}, {t}]"
            )


def feller_minimal(rates, s: float, t: float, n_max: int = 25,
                   quad_step: float = 1e-3, check_convergence: bool = True
                   ) -> TransitionKernel:
    """Truncated minimal-solution series kernel on [s, t].

    Integrals use composite Simpson quadrature at ``quad_step``.  Raises
    :class:`TruncationNotConverged` when the last retained term still has an
    entry above the series-tail tolerance (pass ``check_convergence=False`` to
    inspect deliberately truncated kernels), and :class:`PoleInInterval`
    when the rate trajectory carries pole flags inside the window.
    """
    if t < s:
        raise ValueError("need s <= t")
    _check_poles(rates, s, t)
    probe = _rate_batch(rates, np.array([s]))[0]
    d = probe.shape[0]
    if t == s:
        return TransitionKernel(s=s, t=t, matrix=np.eye(d), method="series", n_terms=0)

    m = max(2, ceil((t - s) / quad_step))
    u = np.linspace(s, t, m + 1)
    du = (t - s) / m                                 # u is uniform: Simpson takes dx
    tm = _rate_batch(rates, u)                       # (m+1, D, D)
    exit_rates = -np.einsum("mii->mi", tm)           # (m+1, D)
    if exit_rates.min() < -1e-12:
        raise ValueError("negative exit rate encountered")
    lam = cumulative_simpson(np.clip(exit_rates, 0.0, None), dx=du, axis=0, initial=0)
    if lam.max() > 600.0:
        raise ValueError("cumulative hazard too large for stable series evaluation")

    surv = np.exp(-lam)                              # (m+1, D)
    prev = np.einsum("mi,ij->mij", surv, np.eye(d))  # level 0, all endpoints
    total = prev.copy()
    toff = tm.copy()
    idx = np.arange(d)
    toff[:, idx, idx] = 0.0

    grow = np.exp(lam)
    last_max = 0.0           # n_max = 0 is an explicitly requested truncation
    n_used = 0
    for n in range(1, n_max + 1):
        g = np.einsum("mjk,mki->mji", toff, prev)
        integrand = grow[:, :, None] * g
        acc = cumulative_simpson(integrand, dx=du, axis=0, initial=0)
        prev = surv[:, :, None] * acc
        np.clip(prev, 0.0, None, out=prev)
        total += prev
        n_used = n
        last_max = float(prev[-1].max())
        if last_max <= DEFAULT.series_tail:
            break
    if check_convergence and last_max > DEFAULT.series_tail:
        raise TruncationNotConverged(f"series term {n_used} still has max entry "
                                     f"{last_max:.3e} > {DEFAULT.series_tail}")
    return TransitionKernel(s=s, t=t, matrix=total[-1], method="series", n_terms=n_used)


def forward_ode_kernel(rates, s: float, t: float, ode_step: float = 1e-3
                       ) -> TransitionKernel:
    """Forward-equation kernel by classic fixed-step fourth-order stepping."""
    if t < s:
        raise ValueError("need s <= t")
    _check_poles(rates, s, t)
    probe = _rate_batch(rates, np.array([s]))[0]
    d = probe.shape[0]
    if t == s:
        return TransitionKernel(s=s, t=t, matrix=np.eye(d), method="ode")

    m = max(1, ceil((t - s) / ode_step))
    h = (t - s) / m
    ts = s + 0.5 * h * np.arange(2 * m + 1)
    a = _rate_batch(rates, ts)                       # nodes and midpoints
    p = np.eye(d)
    for k in range(m):
        a0, am, a1 = a[2 * k], a[2 * k + 1], a[2 * k + 2]
        k1 = a0 @ p
        k2 = am @ (p + 0.5 * h * k1)
        k3 = am @ (p + 0.5 * h * k2)
        k4 = a1 @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return TransitionKernel(s=s, t=t, matrix=p, method="ode")


def chapman_kolmogorov_residual(direct: TransitionKernel, first: TransitionKernel,
                                second: TransitionKernel) -> float:
    """max-entry norm of p(t, s) - p(t, r) p(r, s).

    ``direct`` is p(t, s), ``first`` p(r, s) and ``second`` p(t, r): the
    windows must chain from ``direct.s`` through ``first.t`` to ``direct.t``.
    """
    if first.s != direct.s or first.t != second.s or second.t != direct.t:
        raise ValueError(f"kernel windows do not chain: [{first.s}, {first.t}] then "
                         f"[{second.s}, {second.t}] for [{direct.s}, {direct.t}]")
    return float(np.abs(direct.matrix - second.matrix @ first.matrix).max())


def honesty_deficit(kernel: TransitionKernel) -> np.ndarray:
    """Per-column probability missing from the kernel (1 - column sum)."""
    return 1.0 - kernel.column_sums()
