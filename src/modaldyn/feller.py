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

Both kernels take a :class:`RateTrajectory` and run on its own grid
nodes: the window [s, t] must start and end on nodes, with equal intervals
and no pole flag between, and no rate is ever re-interpolated.  A series
term is one batched matrix product at every node followed by a cumulative
Simpson integral (scipy's equal-interval rule, implemented here once), so
the series needs at least two intervals.  The terms' integrals are
evaluated as blocked matrix products: blocks of 16 nodes share one local
weight matrix, each block starts from the running sum of the blocks before
it, and every weight is read off the one rule applied to a small identity.
The fourth-order integration steps over the grid intervals; its midpoint
rates (A_k + A_(k+1))/2 are the rates taken linear between nodes.  It
forms every step's matrix M_k = I + h/6 (A0 + 2 B2 + 2 B3 + B4) at once and
multiplies the steps pairwise, in a fixed order, into
p(t, s) = M_(m-1) ... M_0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import DEFAULT
from .errors import PoleInInterval, TruncationNotConverged
from .kinetics import RateTrajectory
from .spectral import _nearest_node

__all__ = [
    "TransitionKernel",
    "chapman_kolmogorov_residual",
    "feller_minimal",
    "forward_ode_kernel",
    "honesty_deficit",
]


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
        if not (m.min() >= -1e-8 and m.max() <= 1 + 1e-8):
            raise ValueError("kernel entries leave [0, 1] beyond tolerance")
        m = np.clip(m, 0.0, 1.0)
        object.__setattr__(self, "matrix", m)

    def column_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


def _window(rates: RateTrajectory, s: float, t: float) -> np.ndarray:
    """The rate matrices at the grid nodes of [s, t], shape (m + 1, D, D).

    Both ends must be grid nodes (within 1e-12) and the window's intervals
    equal (within 1e-9 of ``(t - s) / m``); no node may carry a pole flag.
    """
    if t < s:
        raise ValueError("need s <= t")
    g = rates.grid
    a, b = _nearest_node(g, np.array([s, t])).tolist()
    if not (abs(g[a] - s) <= 1e-12 and abs(g[b] - t) <= 1e-12):
        raise ValueError(f"kernel window [{s}, {t}] does not start and end on grid nodes")
    if b > a and np.abs(np.diff(g[a:b + 1]) - (t - s) / (b - a)).max() \
            > 1e-9 * (t - s) / (b - a):
        raise ValueError(f"grid intervals inside [{s}, {t}] are uneven")
    hits = g[a:b + 1][rates.pole_mask[a:b + 1].any(axis=(1, 2))]
    if hits.size:
        raise PoleInInterval(f"rates have poles at nodes {hits[:4].tolist()} inside [{s}, {t}]")
    return rates.matrices[a:b + 1]


def feller_minimal(rates: RateTrajectory, s: float, t: float, n_max: int = 25,
                   check_convergence: bool = True) -> TransitionKernel:
    """Truncated minimal-solution series kernel on [s, t].

    Integrals use composite Simpson quadrature on the grid nodes of the
    window, which needs at least two intervals.  Raises
    :class:`TruncationNotConverged` when the last retained term still has an
    entry above the series-tail tolerance (pass ``check_convergence=False`` to
    inspect deliberately truncated kernels), and :class:`PoleInInterval`
    when a node of the window carries a pole flag.
    """
    tm = _window(rates, s, t)                        # (m+1, D, D)
    m, d = len(tm) - 1, rates.size
    if m == 0:
        return TransitionKernel(s=s, t=t, matrix=np.eye(d), method="series", n_terms=0)
    if m < 2:
        raise ValueError(f"series window [{s}, {t}] spans one grid interval; "
                         "Simpson quadrature needs at least 3 nodes")
    du = (t - s) / m
    exit_rates = -np.einsum("mii->mi", tm)           # (m+1, D)
    if exit_rates.min() < -1e-12:
        raise ValueError("negative exit rate encountered")
    lam = _cumulative_simpson(np.clip(exit_rates, 0.0, None), du)
    if lam.max() > 600.0:
        raise ValueError("cumulative hazard too large for stable series evaluation")

    # With p^(n) = exp(-lam_j) a^(n), each term is a^(n) = int w a^(n-1) du
    # with the weighted off-diagonal rates w_jk = t_jk exp(lam_j - lam_k)
    # and a^(0) = I; only the last node of the sum is kept.
    weighted = tm * np.exp(lam[:, :, None] - lam[:, None, :])
    idx = np.arange(d)
    weighted[:, idx, idx] = 0.0
    surv = np.exp(-lam[-1])[:, None]                 # (D, 1) at t
    integrate = _blocked_simpson(m + 1, du)
    # Two buffers serve every term: fresh (m+1, D, D) arrays per term fault
    # their pages in again whenever the allocator has returned them.
    acc = np.broadcast_to(np.eye(d), tm.shape).copy()
    term = np.empty_like(acc)
    total = np.eye(d)
    last_max = 0.0           # n_max = 0 is an explicitly requested truncation
    n_used = 0
    for n in range(1, n_max + 1):
        integrate(np.matmul(weighted, acc, out=term), out=acc)
        np.clip(acc, 0.0, None, out=acc)
        total += acc[-1]
        n_used = n
        last_max = float((surv * acc[-1]).max())
        if last_max <= DEFAULT.series_tail:
            break
    if check_convergence and last_max > DEFAULT.series_tail:
        raise TruncationNotConverged(f"series term {n_used} still has max entry "
                                     f"{last_max:.3e} > {DEFAULT.series_tail}")
    return TransitionKernel(s=s, t=t, matrix=surv * total, method="series",
                            n_terms=n_used)


def forward_ode_kernel(rates: RateTrajectory, s: float, t: float) -> TransitionKernel:
    """Forward-equation kernel by classic fourth-order steps over the grid intervals."""
    a = _window(rates, s, t)
    m = len(a) - 1
    if m == 0:
        return TransitionKernel(s=s, t=t, matrix=np.eye(rates.size), method="ode")

    h = (t - s) / m
    # Between nodes the rates are linear, so an interval's midpoint value is
    # the mean of its end nodes.
    a0, a1 = a[:-1], a[1:]
    am = a0 + a1
    am *= 0.5
    # One RK4 step is p -> M_k p with k_i = B_i p: B2 = am (I + h/2 a0),
    # B3 = am (I + h/2 B2), B4 = a1 (I + h B3).  The stacks are updated in
    # place: at D = 64 each one holds 32 MiB.
    b2 = am @ a0
    b2 *= 0.5 * h
    b2 += am
    b3 = am @ b2
    b3 *= 0.5 * h
    b3 += am
    b4 = a1 @ b3
    b4 *= h
    b4 += a1
    steps = b2
    steps += b3
    steps *= 2.0
    steps += a0
    steps += b4
    steps *= h / 6.0
    steps += np.eye(rates.size)                      # M_k, one per step
    return TransitionKernel(s=s, t=t, matrix=_ordered_product(steps), method="ode")


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """``mats[-1] @ ... @ mats[0]`` of an ``(L, D, D)`` stack, multiplied pairwise."""
    while len(mats) > 1:
        pairs = mats[1::2] @ mats[:-1:2]
        mats = np.concatenate([pairs, mats[2 * len(pairs):]])
    return mats[0]


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative Simpson integral along axis 0 of uniform nodes ``dx`` apart.

    The equal-interval rule of scipy's ``cumulative_simpson(y, dx=dx,
    initial=0)``: each pair of intervals takes the h1 and h2 sub-interval
    formulas on its three nodes, and the last interval always takes h2.
    """
    f1, f2, f3 = y[:-2:2], y[1:-1:2], y[2::2]
    out = np.empty_like(y)
    out[0] = 0.0
    sub = out[1:]                                    # interval integrals, then their sums
    sub[:-1:2] = dx / 3 * (5 * f1 / 4 + 2 * f2 - f3 / 4)
    sub[1::2] = dx / 3 * (5 * f3 / 4 + 2 * f2 - f1 / 4)
    sub[-1] = dx / 3 * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    np.cumsum(sub, axis=0, out=sub)
    return out


# Nodes per block of ``_blocked_simpson``; even, so every block starts a pair.
_BLOCK = 16


def _blocked_simpson(n: int, dx: float):
    """``_cumulative_simpson`` on ``n`` nodes as blocked matrix products.

    Returns ``integrate(y, out)`` for arrays of leading length ``n``, which
    writes into ``out`` (``y``'s shape, not ``y`` itself).  The integral is
    linear in ``y``, and inside a block of ``_BLOCK`` nodes it reads only
    the block's nodes and the next one, so one matmul applies a shared local
    weight matrix to every block's overlapping window; each block then adds
    the running sum of the blocks before it.  The rows after the last full
    block take their own weight rows, from two nodes before them so that a
    lone last interval sees its three nodes.  Every weight is read off
    ``_cumulative_simpson`` of a small identity, and no ``(n, n)`` operator
    is formed.
    """
    nb = (n - 1) // _BLOCK                           # full blocks
    head = nb * _BLOCK                               # first row after them
    w = _cumulative_simpson(np.eye(_BLOCK + 1), dx)
    local, step = w[:_BLOCK], w[_BLOCK]
    c = max(head - 2, 0)
    wt = _cumulative_simpson(np.eye(n - c), dx)
    tail = wt[head - c:] - wt[head - c]              # integrals from node ``head``

    def integrate(y: np.ndarray, out: np.ndarray) -> np.ndarray:
        flat, sums = y.reshape(n, -1), out.reshape(n, -1)
        np.matmul(tail, flat[c:], out=sums[head:])
        if nb:
            win = sliding_window_view(flat, _BLOCK + 1, axis=0)[::_BLOCK].swapaxes(1, 2)
            blocks = sums[:head].reshape(nb, _BLOCK, -1)
            np.matmul(local, win, out=blocks)
            start = step @ win                       # each block's increment
            np.cumsum(start, axis=0, out=start)
            blocks[1:] += start[:-1, None]
            sums[head:] += start[-1]
        return out

    return integrate


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
