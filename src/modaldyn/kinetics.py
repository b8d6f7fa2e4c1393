"""Infinitesimal parameters (jump rates) built from currents and probabilities.

The off-diagonal entry ``t[j, i]`` is the instantaneous rate of transitions
from state ``i`` to state ``j``; diagonals are set so every column sums to
zero.  Where a probability vanishes under a nonzero incoming current the
rate diverges; such entries are stored as explicit pole flags rather than
numbers, and downstream consumers decide how to handle them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .currents import CurrentMatrix
from .spectral import _runs

__all__ = [
    "JumpDecomposition",
    "RateMatrix",
    "RateTrajectory",
    "SingularityEvent",
    "bell_rates",
    "classify_singularities",
    "general_rates",
    "jump_decomposition",
    "master_residual",
    "pole_free_rows",
]


@dataclass(frozen=True)
class RateMatrix:
    """Finite rate entries plus a mask of diverging (pole) positions.

    ``matrix`` stores zero at flagged positions; with the convention
    ``inf * 0 = 0`` this is exactly how poles enter every balance below.
    Both arrays have shape ``(..., D, D)``; ``x[k]`` is node ``k``'s record.
    """

    matrix: np.ndarray
    pole_mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        mask = np.asarray(self.pole_mask, dtype=bool)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1] or mask.shape != m.shape:
            raise ValueError("rate matrix and pole mask must be square and congruent")
        diag = np.eye(m.shape[-1], dtype=bool)
        off = np.where(diag, 0.0, m)
        if off.min() < 0:
            raise ValueError(f"off-diagonal rates must be nonnegative (min {off.min():.3e})")
        if (mask & diag).any():
            raise ValueError("diagonal entries cannot be poles")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "pole_mask", mask)

    @property
    def size(self) -> int:
        return self.matrix.shape[-1]

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, k) -> RateMatrix:
        return RateMatrix(matrix=self.matrix[k], pole_mask=self.pole_mask[k])

    @property
    def has_poles(self) -> bool:
        return bool(self.pole_mask.any())


def _with_diagonal(off: np.ndarray, pole_mask: np.ndarray) -> RateMatrix:
    d = off.shape[-1]
    t = np.where(np.eye(d, dtype=bool), 0.0, off)
    i = np.arange(d)
    t[..., i, i] = -t.sum(axis=-2)
    return RateMatrix(matrix=t, pole_mask=pole_mask)


def _node_probabilities(current: CurrentMatrix, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != current.upper.shape[:-1]:
        raise ValueError("probability vector length does not match current size")
    return p


def bell_rates(current: CurrentMatrix, p) -> RateMatrix:
    """One-directional rate choice t_ji = max{0, j_ji / p_i}.

    ``p`` has shape ``(..., D)`` matching the current's node axes.
    Probabilities at or below the zero-probability tolerance count as
    exactly zero there: entries whose current is at most the pole-current
    tolerance get rate 0 (the continuous convention), entries with a
    larger incoming current are flagged as poles.  A negative current out
    of a zero-probability state still gives rate 0, which is the
    continuous limit of the max form.
    """
    p = _node_probabilities(current, p)
    if p.min() < -DEFAULT.probability_sum or \
            np.abs(p.sum(axis=-1) - 1.0).max() > DEFAULT.probability_sum:
        raise ValueError("p must be a probability vector summing to 1")
    j = current.full()
    pos = (p > DEFAULT.zero_probability)[..., None, :]    # column i: p_i > 0
    # Divide only where p_i counts as positive, so no inf or NaN is formed.
    off = np.where(pos, np.maximum(0.0, j / np.where(pos, p[..., None, :], 1.0)), 0.0)
    pole = ~pos & (j > DEFAULT.pole_current) & ~np.eye(current.size, dtype=bool)
    return _with_diagonal(off, pole)


def general_rates(current: CurrentMatrix, p, free_choice=0.0) -> RateMatrix:
    """General solution of j_ji = t_ji p_i - t_ij p_j with a free offset.

    For each pair j < i the rate t_ji is the one-directional choice plus a
    nonnegative offset c_ji (scalar, matrix, or callable of (j, i)); the
    opposite rate is then fixed by the current identity.  All probabilities
    must be strictly positive.
    """
    p = _node_probabilities(current, p)
    d = current.size
    if p.min() <= DEFAULT.zero_probability:
        raise ValueError("division at p_j = 0: general rates need p > 0 everywhere")
    if callable(free_choice):
        c = np.array([[free_choice(a, b) for b in range(d)] for a in range(d)], dtype=float)
    else:
        c = np.broadcast_to(np.asarray(free_choice, dtype=float), (d, d))
    if c.min() < 0:
        raise ValueError("free choice offsets must be nonnegative")
    j = current.full()
    # Entry [a, b] of ``up`` is t_ab for a < b; ``down`` holds the opposite
    # rate t_ba = (t_ab p_b - j_ab) / p_a at the same position.
    up = np.maximum(0.0, j / p[..., None, :]) + c
    down = (up * p[..., None, :] - j) / p[..., :, None]
    t = np.where(np.triu(np.ones((d, d), dtype=bool), 1), up,
                 np.swapaxes(down, -1, -2))
    t = np.where(np.eye(d, dtype=bool), 0.0, t)
    if t.min() < -1e-12:
        raise ValueError("derived rates became negative; offsets inconsistent")
    return _with_diagonal(np.maximum(t, 0.0), np.zeros(t.shape, dtype=bool))


@dataclass(frozen=True)
class JumpDecomposition:
    """Exit rates and conditional jump distribution of a rate matrix."""

    exit_rates: np.ndarray      # (D,)
    jump_matrix: np.ndarray     # (D, D); column i is the destination law from i
    defined: np.ndarray         # (D,) bool; False where the exit rate is zero

    @property
    def size(self) -> int:
        return len(self.exit_rates)


def jump_decomposition(rates: RateMatrix) -> JumpDecomposition:
    if rates.has_poles:
        raise ValueError("pole present: jump decomposition needs finite rates")
    t = rates.matrix
    exit_rates = -np.diag(t).copy()
    d = rates.size
    pi = np.full((d, d), np.nan)
    defined = exit_rates > 0.0
    off = t - np.diag(np.diag(t))
    pi[:, defined] = off[:, defined] / exit_rates[defined]
    return JumpDecomposition(exit_rates=exit_rates, jump_matrix=pi, defined=defined)


def master_residual(rates: RateMatrix, p, pdot, rows=None) -> float:
    """max_j |pdot_j - sum_i (t_ji p_i - t_ij p_j)| with inf * 0 = 0.

    Pole positions carry probability zero by construction, so they drop out
    of the balance; that is the stored-zero convention.  ``p`` and ``pdot``
    have shape ``(..., D)``, and the maximum runs over every node.  ``rows``
    restricts it to a subset of states: a boolean mask shaped like ``p``
    (see :func:`pole_free_rows`) or state indices.
    """
    p = np.asarray(p, dtype=float)
    pdot = np.asarray(pdot, dtype=float)
    t = rates.matrix
    net = (t @ p[..., None])[..., 0] - t.sum(axis=-2) * p
    res = np.abs(pdot - net)
    if rows is not None:
        rows = np.asarray(rows)
        res = res[rows] if rows.dtype == bool else res[..., rows.astype(int)]
        if res.size == 0:
            return 0.0
    return float(res.max())


def pole_free_rows(rates: RateMatrix) -> np.ndarray:
    """States whose master-equation row is untouched by pole conventions.

    A row is excluded when a pole feeds it (its true inflow is not
    representable) or when the state itself has diverging exit rates (its
    outflow is not representable).
    """
    fed = rates.pole_mask.any(axis=-1)
    exits = rates.pole_mask.any(axis=-2)
    return ~(fed | exits)


class RateTrajectory:
    """Rates sampled on a time grid, with linear interpolation between nodes."""

    def __init__(self, grid, rates: RateMatrix):
        self.grid = np.asarray(grid, dtype=float)
        if rates.matrix.ndim != 3 or len(rates) != len(self.grid) or len(self.grid) < 2:
            raise ValueError("need one rate matrix per node and at least two nodes")
        self.matrices = rates.matrix            # (n, D, D)
        self.pole_mask = rates.pole_mask        # (n, D, D)
        self.size = rates.size

    def matrix_batch(self, times, columns) -> np.ndarray:
        """Column ``columns[i]`` of the interpolated matrix at ``times[i]``, (m, D)."""
        times = np.asarray(times, dtype=float)
        g = self.grid
        idx = np.clip(np.searchsorted(g, times, side="right"), 1, len(g) - 1)
        t0 = g[idx - 1]
        t1 = g[idx]
        w = np.clip((times - t0) / (t1 - t0), 0.0, 1.0)
        return (1.0 - w)[:, None] * self.matrices[idx - 1, :, columns] \
            + w[:, None] * self.matrices[idx, :, columns]


@dataclass(frozen=True)
class SingularityEvent:
    time: float
    state: int
    kind: str                 # "isolated-zero" or "interval-zero"
    divergent: bool | None    # exit-rate integral diverges approaching the zero
    t_start: float
    t_end: float


def classify_singularities(p_trajectory, grid, rates: RateMatrix | None = None
                           ) -> tuple[SingularityEvent, ...]:
    """Locate and classify probability zeros along a trajectory.

    A run of nodes with p_i at or below 1e-4 is an isolated zero when the
    probability genuinely lifts off within the run (an analytic
    touch-zero), and an interval zero when it stays at numerical zero
    throughout.  When rates are supplied, each event is also flagged if the
    exit rate blows up approaching the zero (a pole flag in the run, or an
    exit rate near it above 100 times its median), which makes the
    waiting-time integral divergent there; ``rates`` is the stacked record
    of the grid.  Events are ordered by state, then time.
    """
    p = np.asarray(p_trajectory, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n, d = p.shape
    if len(grid) != n:
        raise ValueError("grid length does not match trajectory")
    exits = None if rates is None else -np.diagonal(rates.matrix, axis1=-2, axis2=-1)
    events = []
    for i in range(d):
        for start, end in _runs(p[:, i] <= 1e-4):
            run = slice(start, end + 1)
            seg = p[run, i]
            kind = "interval-zero" if seg.max() <= 10 * DEFAULT.zero_probability \
                else "isolated-zero"
            arg = start + int(np.argmin(seg))
            divergent = None
            if exits is not None:
                near = exits[max(0, start - 2):min(n, end + 3), i]
                typical = float(np.median(exits[:, i])) if exits[:, i].max() > 0 else 0.0
                divergent = bool(
                    rates.pole_mask[run, :, i].any()
                    or (typical > 0 and near.max() > 100.0 * typical)
                )
            events.append(SingularityEvent(
                time=float(grid[arg]), state=i, kind=kind, divergent=divergent,
                t_start=float(grid[start]), t_end=float(grid[end]),
            ))
    return tuple(events)
