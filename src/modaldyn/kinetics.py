"""Infinitesimal parameters (jump rates) built from currents and probabilities.

The off-diagonal entry ``t[j, i]`` is the instantaneous rate of transitions
from state ``i`` to state ``j``; diagonals are set so every column sums to
zero.  Where a probability vanishes under a nonzero incoming current the
rate diverges; such entries are stored as explicit pole flags rather than
numbers, and downstream consumers decide how to handle them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .currents import CurrentMatrix
from .spectral import _runs

__all__ = [
    "JumpDecomposition",
    "RateMatrix",
    "RateTrajectory",
    "SingularityEvent",
    "SingularityReport",
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
    """

    matrix: np.ndarray
    pole_mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        mask = np.asarray(self.pole_mask, dtype=bool)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or mask.shape != m.shape:
            raise ValueError("rate matrix and pole mask must be square and congruent")
        off = m - np.diag(np.diag(m))
        if off.min() < 0:
            raise ValueError(f"off-diagonal rates must be nonnegative (min {off.min():.3e})")
        if np.diag(mask).any():
            raise ValueError("diagonal entries cannot be poles")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "pole_mask", mask)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def has_poles(self) -> bool:
        return bool(self.pole_mask.any())

    def exit_rates(self) -> np.ndarray:
        """Total escape rate per state; +inf where the column holds a pole."""
        out = -np.diag(self.matrix).copy()
        out[self.pole_mask.any(axis=0)] = np.inf
        return out

    def pole_columns(self) -> np.ndarray:
        return self.pole_mask.any(axis=0)


def _with_diagonal(off: np.ndarray, pole_mask: np.ndarray) -> RateMatrix:
    t = off.copy()
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, -t.sum(axis=0))
    return RateMatrix(matrix=t, pole_mask=pole_mask)


def bell_rates(current: CurrentMatrix, p, zero_threshold: float | None = None,
               pole_current: float | None = None,
               tol: Tolerances = DEFAULT) -> RateMatrix:
    """One-directional rate choice t_ji = max{0, j_ji / p_i}.

    Probabilities at or below ``zero_threshold`` count as exactly zero
    there: entries whose current also vanishes get rate 0 (the continuous
    convention), entries with positive incoming current are flagged as
    poles.  A negative current out of a zero-probability state still gives
    rate 0, which is the continuous limit of the max form.
    """
    if zero_threshold is None:
        zero_threshold = tol.zero_probability
    if pole_current is None:
        pole_current = tol.pole_current
    p = np.asarray(p, dtype=float).reshape(-1)
    d = current.size
    if p.size != d:
        raise ValueError("probability vector length does not match current size")
    if p.min() < -tol.probability_sum or abs(p.sum() - 1.0) > tol.probability_sum:
        raise ValueError("p must be a probability vector summing to 1")
    j = current.full()
    off = np.zeros((d, d))
    pole = np.zeros((d, d), dtype=bool)
    pos = p > zero_threshold
    off[:, pos] = np.maximum(0.0, j[:, pos] / p[pos])
    for i in np.nonzero(~pos)[0]:
        pole[:, i] = j[:, i] > pole_current
    np.fill_diagonal(pole, False)
    return _with_diagonal(off, pole)


def general_rates(current: CurrentMatrix, p, free_choice=0.0,
                  tol: Tolerances = DEFAULT) -> RateMatrix:
    """General solution of j_ji = t_ji p_i - t_ij p_j with a free offset.

    For each pair j < i the rate t_ji is the one-directional choice plus a
    nonnegative offset c_ji (scalar, matrix, or callable of (j, i)); the
    opposite rate is then fixed by the current identity.  All probabilities
    must be strictly positive.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    d = current.size
    if p.size != d:
        raise ValueError("probability vector length does not match current size")
    if p.min() <= tol.zero_probability:
        raise ValueError("division at p_j = 0: general rates need p > 0 everywhere")
    if callable(free_choice):
        c = np.array([[free_choice(a, b) for b in range(d)] for a in range(d)], dtype=float)
    else:
        c = np.asarray(free_choice, dtype=float)
        if c.ndim == 0:
            c = np.full((d, d), float(c))
    if c.min() < 0:
        raise ValueError("free choice offsets must be nonnegative")
    j = current.full()
    t = np.zeros((d, d))
    for a in range(d):
        for b in range(a + 1, d):
            t[a, b] = max(0.0, j[a, b] / p[b]) + c[a, b]
            t[b, a] = (t[a, b] * p[b] - j[a, b]) / p[a]
    if t.min() < -1e-12:
        raise ValueError("derived rates became negative; offsets inconsistent")
    t[t < 0] = 0.0
    return _with_diagonal(t, np.zeros((d, d), dtype=bool))


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
    of the balance; that is the stored-zero convention.  ``rows`` restricts
    the maximum to a subset of states (see :func:`pole_free_rows`).
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    pdot = np.asarray(pdot, dtype=float).reshape(-1)
    t = rates.matrix
    net = t @ p - t.sum(axis=0) * p
    res = np.abs(pdot - net)
    if rows is not None:
        rows = np.asarray(rows)
        if rows.dtype == bool:
            res = res[rows]
        else:
            res = res[np.asarray(rows, dtype=int)]
        if res.size == 0:
            return 0.0
    return float(res.max())


def pole_free_rows(rates: RateMatrix) -> np.ndarray:
    """States whose master-equation row is untouched by pole conventions.

    A row is excluded when a pole feeds it (its true inflow is not
    representable) or when the state itself has diverging exit rates (its
    outflow is not representable).
    """
    fed = rates.pole_mask.any(axis=1)
    exits = rates.pole_mask.any(axis=0)
    return ~(fed | exits)


class RateTrajectory:
    """Rates sampled on a time grid, with linear interpolation between nodes."""

    def __init__(self, grid, rate_matrices):
        self.grid = np.asarray(grid, dtype=float)
        mats = [rm.matrix for rm in rate_matrices]
        masks = [rm.pole_mask for rm in rate_matrices]
        if len(mats) != len(self.grid) or len(self.grid) < 2:
            raise ValueError("need one rate matrix per node and at least two nodes")
        self.matrices = np.stack(mats)          # (n, D, D)
        self.pole_mask = np.stack(masks)        # (n, D, D)
        self.size = self.matrices.shape[1]

    def __call__(self, t: float) -> np.ndarray:
        return self.matrix_batch(np.array([t]))[0]

    def matrix_batch(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        g = self.grid
        idx = np.clip(np.searchsorted(g, times, side="right"), 1, len(g) - 1)
        t0 = g[idx - 1]
        t1 = g[idx]
        w = np.clip((times - t0) / (t1 - t0), 0.0, 1.0)
        return (1.0 - w)[:, None, None] * self.matrices[idx - 1] \
            + w[:, None, None] * self.matrices[idx]

    def pole_node_times(self, s: float, t: float) -> np.ndarray:
        """Grid nodes inside [s, t] carrying any pole flag."""
        inside = (self.grid >= s - 1e-12) & (self.grid <= t + 1e-12)
        flagged = self.pole_mask.any(axis=(1, 2))
        return self.grid[inside & flagged]


@dataclass(frozen=True)
class SingularityEvent:
    time: float
    state: int
    kind: str                 # "isolated-zero" or "interval-zero"
    divergent: bool | None    # exit-rate integral diverges approaching the zero
    t_start: float
    t_end: float


@dataclass(frozen=True)
class SingularityReport:
    events: tuple[SingularityEvent, ...] = field(default_factory=tuple)

    @property
    def empty(self) -> bool:
        return len(self.events) == 0

    def for_state(self, i: int) -> tuple[SingularityEvent, ...]:
        return tuple(e for e in self.events if e.state == i)


def classify_singularities(p_trajectory, grid, rate_matrices=None,
                           detect_tol: float = 1e-4,
                           divergence_factor: float = 100.0,
                           tol: Tolerances = DEFAULT) -> SingularityReport:
    """Locate and classify probability zeros along a trajectory.

    A run of nodes with p_i below ``detect_tol`` is an isolated zero when
    the probability genuinely lifts off within the run (an analytic
    touch-zero), and an interval zero when it stays at numerical zero
    throughout.  When rates are supplied, each event is also flagged if the
    exit rate blows up approaching the zero, which makes the waiting-time
    integral divergent there.
    """
    p = np.asarray(p_trajectory, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n, d = p.shape
    if len(grid) != n:
        raise ValueError("grid length does not match trajectory")
    exits = None
    any_pole = None
    if rate_matrices is not None:
        exits = np.stack([-np.diag(rm.matrix) for rm in rate_matrices])
        any_pole = np.stack([rm.pole_mask.any(axis=0) for rm in rate_matrices])
    events = []
    for i in range(d):
        for start, end in _runs(p[:, i] <= detect_tol):
            run = slice(start, end + 1)
            seg = p[run, i]
            kind = "interval-zero" if seg.max() <= 10 * tol.zero_probability \
                else "isolated-zero"
            arg = start + int(np.argmin(seg))
            divergent = None
            if exits is not None:
                near = exits[max(0, start - 2):min(n, end + 3), i]
                typical = float(np.median(exits[:, i])) if exits[:, i].max() > 0 else 0.0
                divergent = bool(
                    any_pole[run, i].any()
                    or (typical > 0 and near.max() > divergence_factor * typical)
                )
            events.append(SingularityEvent(
                time=float(grid[arg]), state=i, kind=kind, divergent=divergent,
                t_start=float(grid[start]), t_end=float(grid[end]),
            ))
    return SingularityReport(events=tuple(events))
