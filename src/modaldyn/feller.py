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
A term runs over chunks of nodes, so the series holds two window-sized
stacks, the weighted rates and the running term, and one chunk beside them.
The fourth-order integration steps over the grid intervals; its midpoint
rates (A_k + A_(k+1))/2 are the rates taken linear between nodes.  It
forms the step matrices M_k = I + h/6 (A0 + 2 B2 + 2 B3 + B4) one chunk
of intervals at a time and multiplies them pairwise, in a fixed order, into
p(t, s) = M_(m-1) ... M_0; chunk products join the same pairwise tree.
Both kernels size a chunk by D (``_chunk``): the largest power of two, at
least 64, whose (D, D) float stack fits the 256 KiB node-block budget, so
2048 at D = 4, 512 at D = 8, 128 at D = 16 and 64 from D = 23 on.
Chunks only regroup the same matrix products, so no bit depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import currents
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
    diagonal = np.einsum("mii->mi", tm)              # minus the exit rates, a view
    if diagonal.max() > 1e-12:
        raise ValueError("negative exit rate encountered")
    lam = _cumulative_simpson(np.clip(-diagonal, 0.0, None), du)
    if lam.max() > 600.0:
        raise ValueError("cumulative hazard too large for stable series evaluation")

    # With p^(n) = exp(-lam_j) a^(n), each term is a^(n) = int w a^(n-1) du
    # with the weighted off-diagonal rates w_jk = t_jk exp(lam_j - lam_k)
    # and a^(0) = I; only the last node of the sum is kept.  ``weighted``
    # and ``acc`` are the only window-sized stacks.
    weighted = lam[:, :, None] - lam[:, None, :]
    np.exp(weighted, out=weighted)
    weighted *= tm
    idx = np.arange(d)
    weighted[:, idx, idx] = 0.0
    surv = np.exp(-lam[-1])[:, None]                 # (D, 1) at t
    advance = _series_term(weighted, du)
    acc = np.broadcast_to(np.eye(d), tm.shape).copy()
    total = np.eye(d)
    last_max = 0.0           # n_max = 0 is an explicitly requested truncation
    n_used = 0
    for n in range(1, n_max + 1):
        advance(acc)
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
    c = _chunk(rates.size)
    products = np.stack([_ordered_product(_rk4_steps(a[lo:lo + c + 1], h))
                         for lo in range(0, m, c)])
    return TransitionKernel(s=s, t=t, matrix=_ordered_product(products), method="ode")


def _rk4_steps(a: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step matrices M_k over the intervals of the nodes ``a (L + 1, D, D)``."""
    # Between nodes the rates are linear, so an interval's midpoint value is
    # the mean of its end nodes.
    a0, a1 = a[:-1], a[1:]
    am = a0 + a1
    am *= 0.5
    # One RK4 step is p -> M_k p with k_i = B_i p: B2 = am (I + h/2 a0),
    # B3 = am (I + h/2 B2), B4 = a1 (I + h B3), each updated in place.
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
    steps += np.eye(a.shape[-1])
    return steps


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


# Nodes per block of the series term's integral; even, so every block
# starts a pair.
_BLOCK = 16


def _chunk(d: int) -> int:
    """Intervals per chunk of either kernel at D = ``d``: the largest power
    of two, at least 64, whose ``(D, D)`` float stack fits
    ``currents._BLOCK_BYTES``.

    A power of two of at least ``_BLOCK`` nodes makes a chunk whole blocks of
    the series term, and a chunk of RK4 steps (aligned at a multiple of the
    chunk) one subtree of ``_ordered_product``'s pairwise tree.
    """
    nodes = currents._BLOCK_BYTES // (d * d * np.dtype(float).itemsize)
    return max(64, 1 << max(0, nodes.bit_length() - 1))


def _series_term(weighted: np.ndarray, dx: float):
    """``advance(acc)``: one series term in place, ``acc`` becoming the
    integral of ``weighted @ acc`` over the nodes of the ``(n, D, D)`` stacks.

    The integral is ``_cumulative_simpson`` ``dx`` apart, clipped at zero.
    It is linear in its integrand, and inside a block of ``_BLOCK`` nodes it
    reads only the block's nodes and the next one, so one matmul applies a
    shared local weight matrix to every block's overlapping window; each
    block then adds the running sum of the blocks before it.  The blocks go
    through in chunks of ``_chunk(D)`` nodes, each chunk's integrand in one
    chunk-sized buffer, and the running sum is carried from chunk to chunk:
    the carry joins a chunk's first block increment before ``np.cumsum``
    adds the rest, so the sums are added in the order of one cumsum over
    all blocks.  The rows after the last full block take their own weight
    rows, from two nodes before them so that a lone last interval sees its
    three nodes; their integrand is formed first, before the chunks
    overwrite those nodes.  Every weight is read off ``_cumulative_simpson``
    of a small identity, and no ``(n, n)`` operator is formed.
    """
    n, size = len(weighted), _chunk(weighted.shape[-1])
    head = (n - 1) // _BLOCK * _BLOCK                # first row after the full blocks
    w = _cumulative_simpson(np.eye(_BLOCK + 1), dx)
    local, step = w[:_BLOCK], w[_BLOCK]
    c = max(head - 2, 0)
    wt = _cumulative_simpson(np.eye(n - c), dx)
    tail = wt[head - c:] - wt[head - c]              # integrals from node ``head``
    chunk = np.empty((size + 1,) + weighted.shape[1:])
    # Block k of a chunk integrates the chunk's nodes 16 k .. 16 k + 16.
    windows = sliding_window_view(chunk.reshape(size + 1, -1), _BLOCK + 1,
                                  axis=0)[::_BLOCK].swapaxes(1, 2)

    def advance(acc: np.ndarray) -> None:
        sums = acc.reshape(n, -1)
        tail_term = np.matmul(weighted[c:], acc[c:]).reshape(n - c, -1)
        carry = None
        for lo in range(0, head, size):
            hi = min(lo + size, head)
            np.matmul(weighted[lo:hi + 1], acc[lo:hi + 1], out=chunk[:hi + 1 - lo])
            win = windows[:(hi - lo) // _BLOCK]
            blocks = sums[lo:hi].reshape(len(win), _BLOCK, -1)
            np.matmul(local, win, out=blocks)
            start = step @ win                       # each block's increment
            if carry is not None:
                start[0] += carry
                blocks[0] += carry
            np.cumsum(start, axis=0, out=start)
            blocks[1:] += start[:-1, None]
            np.maximum(blocks, 0.0, out=blocks)
            carry = start[-1]
        np.matmul(tail, tail_term, out=sums[head:])
        if carry is not None:
            sums[head:] += carry
        np.maximum(sums[head:], 0.0, out=sums[head:])

    return advance


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
