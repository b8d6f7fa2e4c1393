"""Infinitesimal parameters (jump rates) built from currents and probabilities.

One constructor, :func:`rate_matrix`, builds the rate solution of the
family member the scenario key ``general_rate_offset`` names; its value 0
is Bell's rates.  The off-diagonal entry ``t[j, i]`` is the instantaneous
rate of transitions from state ``i`` to state ``j``; diagonals are set so
every column sums to zero.  Like the currents, it checks its inputs once
and fills the record over node blocks (``currents._blockwise``).  Where a
probability vanishes under a nonzero incoming current the rate diverges;
such entries are stored as explicit pole flags rather than numbers, and
downstream consumers decide how to handle them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .currents import CurrentMatrix, _blockwise
from .spectral import _increasing, _runs

__all__ = [
    "RateMatrix",
    "RateTrajectory",
    "SingularityEvent",
    "classify_singularities",
    "master_residual",
    "pole_free_rows",
    "rate_matrix",
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
        if np.isnan(m).any():
            raise ValueError("rate matrix has NaN entries")
        d, lead = m.shape[-1], m.shape[:-2]       # views, so no check copies the record
        off = m.reshape(lead + (d * d,))[..., 1:].reshape(lead + (d - 1, d + 1))[..., :-1]
        if off.min(initial=0.0) < 0:
            raise ValueError(f"off-diagonal rates must be nonnegative (min {off.min():.3e})")
        if np.diagonal(mask, axis1=-2, axis2=-1).any():
            raise ValueError("diagonal entries cannot be poles")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "pole_mask", mask)

    @property
    def size(self) -> int:
        return self.matrix.shape[-1]

    def __getitem__(self, k) -> RateMatrix:
        return RateMatrix(matrix=self.matrix[k], pole_mask=self.pole_mask[k])


def _with_diagonal(off: np.ndarray) -> np.ndarray:
    """``off`` with its diagonal set so every column sums to zero."""
    d = off.shape[-1]
    t = np.where(np.eye(d, dtype=bool), 0.0, off)
    i = np.arange(d)
    t[..., i, i] = -t.sum(axis=-2)
    return t


def _rates(j: np.ndarray, p: np.ndarray, c: float):
    """Rate matrix and pole mask of the family member ``c`` on a full current ``j``."""
    pos = (p > DEFAULT.zero_probability)[..., None, :]    # column i: p_i > 0
    # Divide only where p_i counts as positive, so no inf or NaN is formed.
    off = np.where(pos, np.maximum(0.0, j / np.where(pos, p[..., None, :], 1.0)), 0.0)
    pole = ~pos & (j > DEFAULT.pole_current) & ~np.eye(j.shape[-1], dtype=bool)
    # The symmetric flux c p_i p_j each way between i and j, as the rate c p_j.
    off += c * np.clip(p, 0.0, None)[..., :, None]
    off[pole] = 0.0
    return _with_diagonal(off), pole


def rate_matrix(current: CurrentMatrix, p, free_choice=0.0) -> RateMatrix:
    """The rates of family member ``free_choice`` for ``current`` and
    ``p (..., D)``, one stacked record over the current's node axes.

    Every rate solution of j_ji = t_ji p_i - t_ij p_j is
    t_ji = (max{0, j_ji} + s_ji) / p_i for a symmetric, nonnegative flux s.
    The family takes s_ji = c p_i p_j, so t_ji = max{0, j_ji / p_i} + c p_j,
    which divides by nothing new and does not depend on the label order.
    Its member c = 0 is Bell's one-directional choice; ``free_choice`` is c.

    Probabilities at or below the zero-probability tolerance count as exactly
    zero in the division: entries whose current is at most the pole-current
    tolerance get Bell's rate 0 (the continuous convention), entries with a
    larger incoming current are flagged as poles and store 0.  A negative
    current out of a zero-probability state still gives Bell's rate 0, which
    is the continuous limit of the max form.  ``p`` must be finite and sum to
    1, and ``free_choice`` must be one finite nonnegative scalar.
    """
    c = float(free_choice)
    if not 0 <= c < np.inf:
        raise ValueError(f"free choice offset must be finite and nonnegative, got {c}")
    p = np.asarray(p, dtype=float)
    if p.shape != current.matrix.shape[:-1]:
        raise ValueError("probability vector length does not match current size")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if not (p.min() >= -DEFAULT.probability_sum
            and np.abs(p.sum(axis=-1) - 1.0).max() <= DEFAULT.probability_sum):
        raise ValueError("p must be a probability vector summing to 1")
    shape, d = current.matrix.shape, current.size
    j, p = current.matrix.reshape(-1, d, d), p.reshape(-1, d)
    matrix, pole_mask = _blockwise(lambda nodes: _rates(j[nodes], p[nodes], c), len(p), d)
    return RateMatrix(matrix.reshape(shape), pole_mask.reshape(shape))


def master_residual(rates: RateMatrix, p, pdot, rows=None) -> float:
    """max_j |pdot_j - sum_i (t_ji p_i - t_ij p_j)| with inf * 0 = 0.

    Pole positions carry probability zero by construction, so they drop out
    of the balance; that is the stored-zero convention.  ``p`` and ``pdot``
    have shape ``(..., D)``, and the maximum runs over every node.  ``rows``
    restricts it to a subset of states: a boolean mask shaped like ``p``
    (see :func:`pole_free_rows`); anything else raises ``ValueError``.
    """
    p = np.asarray(p, dtype=float)
    pdot = np.asarray(pdot, dtype=float)
    t = rates.matrix
    net = (t @ p[..., None])[..., 0] - t.sum(axis=-2) * p
    res = np.abs(pdot - net)
    if rows is not None:
        rows = np.asarray(rows)
        if rows.dtype != bool or rows.shape != p.shape:
            raise ValueError(f"rows must be a boolean mask of shape {p.shape}")
        res = res[rows]
    return float(res.max(initial=0.0))


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
    """Rates and pole flags on a strictly increasing time grid, one stacked
    record per node; consumers take the rates as linear between nodes."""

    def __init__(self, grid, rates: RateMatrix):
        self.grid = np.asarray(grid, dtype=float)
        if (rates.matrix.ndim != 3 or rates.matrix.shape[0] != len(self.grid)
                or len(self.grid) < 2):
            raise ValueError("need one rate matrix per node and at least two nodes")
        _increasing(self.grid)
        self.matrices = rates.matrix            # (n, D, D)
        self.pole_mask = rates.pole_mask        # (n, D, D)
        self.size = rates.size


@dataclass(frozen=True)
class SingularityEvent:
    time: float
    state: int
    kind: str                 # "isolated-zero" or "interval-zero"
    divergent: bool           # exit-rate integral diverges approaching the zero
    t_start: float
    t_end: float


def _median(x: np.ndarray) -> np.ndarray:
    """``np.median(x, axis=0)`` bit for bit: the middle entry of each sorted
    column, or the mean of its two middle entries.  (np.median imports
    numpy.ma on its first call.)"""
    x = np.sort(x, axis=0)
    m = len(x) // 2
    return x[m] if len(x) % 2 else (x[m - 1] + x[m]) / 2


def classify_singularities(p_trajectory, grid, rates: RateMatrix
                           ) -> tuple[SingularityEvent, ...]:
    """Locate and classify probability zeros along a trajectory.

    A run of nodes with p_i at or below 1e-4 is an isolated zero when the
    probability genuinely lifts off within the run (an analytic
    touch-zero), and an interval zero when it stays at numerical zero
    throughout.  An isolated zero's time is the node of the run's least
    probability; an interval zero's is the run's first node, since its
    least probability is rounding noise.  Each event is flagged divergent
    if the exit rate blows up approaching the zero (a pole flag in the
    run, or an exit rate near it above 100 times its median), which makes
    the waiting-time integral divergent there; ``rates`` is the stacked
    record of the grid.  Events are ordered by state, then time.
    """
    p = np.asarray(p_trajectory, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n, d = p.shape
    if len(grid) != n or rates.matrix.shape != (n, d, d):
        raise ValueError("grid and rates do not match the trajectory")
    exits = -np.diagonal(rates.matrix, axis1=-2, axis2=-1)
    typical = np.where(exits.max(axis=0) > 0, _median(exits), 0.0)
    events = []
    for i in range(d):
        for start, end in _runs(p[:, i] <= 1e-4):
            run = slice(start, end + 1)
            seg = p[run, i]
            if seg.max() <= 10 * DEFAULT.zero_probability:
                kind, arg = "interval-zero", start
            else:
                kind, arg = "isolated-zero", start + int(np.argmin(seg))
            near = exits[max(0, start - 2):min(n, end + 3), i]
            divergent = bool(
                rates.pole_mask[run, :, i].any()
                or (typical[i] > 0 and near.max() > 100.0 * typical[i])
            )
            events.append(SingularityEvent(
                time=float(grid[arg]), state=i, kind=kind, divergent=divergent,
                t_start=float(grid[start]), t_end=float(grid[end]),
            ))
    return tuple(events)
