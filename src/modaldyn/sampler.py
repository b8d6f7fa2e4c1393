"""Monte Carlo realization of the property jump process.

Paths alternate inverse-hazard waiting times with destination draws from
the conditional jump distribution.  Each path owns an independent
counter-based random stream derived from (master seed, path index), so
ensembles are reproducible regardless of scheduling.

Pole handling (probability zeros with diverging exit rates) follows two
documented conventions selected by ``pole_policy``:

* ``"resample"`` (default): a path occupying a state whose exit rate
  diverges at an upcoming grid node is forced to jump at the last node
  before the pole, drawing the destination there.  A path that lands in a
  state whose exit rate is already flagged (an interval of zero
  probability) leaves again instantly, with the destination drawn
  proportionally to the positive outgoing currents, which is the limit of
  the jump distribution as the probability goes to zero.  The relay event
  is recorded at the next representable time, keeping event times strictly
  increasing and the sojourn in the zero state at measure zero.
* ``"abort"``: any such situation raises :class:`PoleEncountered`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import ModalDynError, PoleEncountered
from .kinetics import RateTrajectory
from .spectral import _nearest_node

__all__ = [
    "EnsembleStats",
    "JumpProcess",
    "PathEnsemble",
    "SamplePath",
    "ensemble_marginals",
    "low_probability_occupancy",
    "total_variation",
]

JointIndex = tuple[int, ...]


@dataclass(frozen=True)
class SamplePath:
    """One realization: a seed, an initial joint state and its jump events."""

    seed: int
    initial: JointIndex
    events: tuple[tuple[float, JointIndex], ...] = ()

    @property
    def jump_count(self) -> int:
        return len(self.events)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Paths as flat arrays; path k's events are ``offsets[k]:offsets[k+1]``.

    States are integer indices into ``states``.  ``len(x)`` is the path
    count, and ``x[k]`` (also in iteration) is path k as a
    :class:`SamplePath` with joint labels.
    """

    states: tuple                    # joint labels, flat order
    seeds: np.ndarray                # (N,) path indices of the random streams
    initial: np.ndarray              # (N,) states at the first node
    offsets: np.ndarray              # (N+1,) int
    times: np.ndarray                # (E,) event times
    dest: np.ndarray                 # (E,) states entered

    def __post_init__(self):
        owner = np.repeat(np.arange(len(self)), self.jump_counts)
        if np.any((np.diff(self.times) <= 0.0) & (owner[1:] == owner[:-1])):
            raise ValueError("event times must be strictly increasing")

    @property
    def jump_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.initial)

    def __getitem__(self, k: int) -> SamplePath:
        k = range(len(self))[k]
        lo, hi = self.offsets[k], self.offsets[k + 1]
        events = zip(self.times[lo:hi].tolist(), (self.states[j] for j in self.dest[lo:hi]))
        return SamplePath(seed=int(self.seeds[k]), initial=self.states[self.initial[k]],
                          events=tuple(events))

    def _visits(self) -> np.ndarray:
        """States each path occupies in turn; path k's start at ``offsets[k] + k``."""
        return np.insert(self.dest, self.offsets[:-1], self.initial)

    def states_at(self, t: float) -> np.ndarray:
        """State of every path at time ``t``, after its events at or before t."""
        passed = np.concatenate(([0], np.cumsum(self.times <= t)))
        done = passed[self.offsets[1:]] - passed[self.offsets[:-1]]
        return self._visits()[self.offsets[:-1] + np.arange(len(self)) + done]


@dataclass(frozen=True)
class EnsembleStats:
    """Empirical single-time distributions of an ensemble of paths."""

    times: np.ndarray
    labels: tuple
    counts: np.ndarray          # (n_times, n_labels) integers
    n_paths: int

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n_paths


def _draw(column: np.ndarray, state: int, rng):
    """Inverse-CDF draw out of ``state``, weighted by ``column``'s other positive entries.

    Returns None, without consuming a uniform, when no such weight exists.
    Dividing by the last cumulative sum makes it exactly 1, so a uniform in
    [0, 1) never selects past the last positive weight.
    """
    weights = np.clip(column, 0.0, None)
    weights[state] = 0.0
    cum = np.cumsum(weights)
    if cum[-1] <= 0.0:
        return None
    cum /= cum[-1]
    return int(np.searchsorted(cum, rng.random(), side="right"))


class JumpProcess:
    """Grid-sampled dynamics prepared for repeated path sampling.

    Parameters
    ----------
    rate_trajectory : RateTrajectory
        Rates (with pole flags) on the scenario grid.
    p0 : array
        Initial joint distribution at the first grid node.
    states : sequence of JointIndex
        Flat-order labels of the joint state space.
    currents : array, optional
        Full antisymmetric current matrices per node, used for relay
        destination draws out of zero-probability states.
    """

    def __init__(self, rate_trajectory: RateTrajectory, p0, states,
                 currents=None, pole_policy: str = "resample",
                 master_seed: int = 0):
        if pole_policy not in ("resample", "abort"):
            raise ValueError(f"unknown pole policy {pole_policy!r}")
        self.rates = rate_trajectory
        self.grid = rate_trajectory.grid
        self.states = tuple(tuple(s) for s in states)
        self.p0 = np.asarray(p0, dtype=float).reshape(-1)
        self.currents = None if currents is None else np.asarray(currents, dtype=float)
        self.pole_policy = pole_policy
        self.master_seed = int(master_seed)
        d = rate_trajectory.size
        if len(self.states) != d or self.p0.size != d:
            raise ValueError("states/p0 size does not match the rate trajectory")
        if abs(self.p0.sum() - 1.0) > 1e-9 or self.p0.min() < -1e-12:
            raise ValueError("initial distribution must be nonnegative and sum to 1")
        self._p0_cum = np.cumsum(np.clip(self.p0, 0.0, None))
        self._p0_cum /= self._p0_cum[-1]
        mats = rate_trajectory.matrices
        self._exit = np.clip(-np.einsum("nii->ni", mats), 0.0, None)   # (n, D)
        self._cumhaz = cumulative_trapezoid(self._exit, self.grid, axis=0, initial=0.0)
        self._pole_col = rate_trajectory.pole_mask.any(axis=1)          # (n, D)
        self._pole_times = [self.grid[self._pole_col[:, i]] for i in range(d)]

    # -- helpers ---------------------------------------------------------

    def _invert_hazard(self, state: int, t_from: float, t_to: float, target: float):
        """Jump time in (t_from, t_to] with given extra hazard, or None."""
        base, end = np.interp([t_from, t_to], self.grid, self._cumhaz[:, state])
        if end - base < target:
            return None
        goal = base + target
        h = self._cumhaz[:, state]
        idx = int(np.searchsorted(h, goal, side="left"))
        idx = min(max(idx, 1), len(h) - 1)
        h0, h1 = h[idx - 1], h[idx]
        if h1 <= h0:
            tau = float(self.grid[idx])
        else:
            frac = (goal - h0) / (h1 - h0)
            tau = float(self.grid[idx - 1] + frac * (self.grid[idx] - self.grid[idx - 1]))
        return min(max(tau, np.nextafter(t_from, np.inf)), t_to)

    def _destination(self, state: int, tau: float, rng):
        return _draw(self.rates.matrix_batch(np.array([tau]))[0][:, state], state, rng)

    def _next_pole(self, state: int, t: float):
        times = self._pole_times[state]
        idx = int(np.searchsorted(times, t, side="right"))
        return float(times[idx]) if idx < len(times) else None

    # -- sampling --------------------------------------------------------

    def _sample(self, path_index: int):
        """One path's initial state and ``(time, state)`` events, every draw
        from its own Philox stream keyed by (master seed, path index)."""
        rng = np.random.Generator(np.random.Philox([self.master_seed, int(path_index)]))
        initial = int(np.searchsorted(self._p0_cum, rng.random(), side="right"))
        grid = self.grid
        t_end = float(grid[-1])
        t_cur = float(grid[0])
        events: list[tuple[float, int]] = []
        d = len(self.states)
        # A fresh arrival into an already-flagged column is relayed out at once.
        state, t_cur = self._maybe_relay(initial, t_cur, rng, events, arrival=False)
        while True:
            target = -np.log1p(-rng.random())
            pole_t = self._next_pole(state, t_cur)
            horizon = t_end if pole_t is None else self._last_node_before(pole_t)
            tau = None
            if horizon > t_cur:
                tau = self._invert_hazard(state, t_cur, horizon, target)
            if tau is None:
                if pole_t is None:
                    break
                if self.pole_policy == "abort":
                    raise PoleEncountered(
                        f"state {state} meets a rate pole at t={pole_t!r}"
                    )
                tau = max(horizon, np.nextafter(t_cur, np.inf))
                dest = self._destination(state, tau, rng)
                if dest is None:
                    # No outgoing rate at the pre-pole node; cross the pole.
                    t_cur = np.nextafter(pole_t, np.inf)
                    continue
            else:
                dest = self._destination(state, tau, rng)
                if dest is None:
                    break
            events.append((tau, dest))
            state, t_cur = self._maybe_relay(dest, tau, rng, events, arrival=True)
            if t_cur >= t_end:
                break
            if len(events) > 64 * d * max(8, int(self._exit.max() * (t_end - grid[0]) + 1)):
                raise ModalDynError("runaway path: too many events")
        return initial, events

    def _last_node_before(self, pole_time: float) -> float:
        idx = int(np.searchsorted(self.grid, pole_time, side="left"))
        return float(self.grid[max(idx - 1, 0)])

    def _maybe_relay(self, state: int, tau: float, rng, events, arrival: bool):
        d = len(self.states)
        depth = 0
        k = _nearest_node(self.grid, tau)
        while self._pole_col[k, state]:
            if self.pole_policy == "abort":
                raise PoleEncountered(
                    f"path occupies state {state} with diverging exit rate at t={float(tau)}"
                )
            if self.currents is None:
                break
            dest = _draw(self.currents[_nearest_node(self.grid, tau)][:, state], state, rng)
            if dest is None:
                break
            tau = float(np.nextafter(tau, np.inf)) if arrival or events else tau
            events.append((tau, dest))
            state = dest
            arrival = True
            depth += 1
            if depth > 4 * d:
                raise ModalDynError("relay cycle among zero-probability states")
        return state, tau

    def _batch(self, path_indices) -> PathEnsemble:
        sampled = [self._sample(k) for k in path_indices]
        events = [ev for _, path_events in sampled for ev in path_events]
        return PathEnsemble(
            states=self.states, seeds=np.array(path_indices, dtype=int),
            initial=np.array([first for first, _ in sampled], dtype=int),
            offsets=np.cumsum([0] + [len(evs) for _, evs in sampled]),
            times=np.array([t for t, _ in events], dtype=float),
            dest=np.array([j for _, j in events], dtype=int))

    def ensemble(self, n_paths: int) -> PathEnsemble:
        return self._batch(range(int(n_paths)))

    def path(self, path_index: int) -> SamplePath:
        return self._batch([int(path_index)])[0]


def ensemble_marginals(paths: PathEnsemble, query_times, states,
                       factor: int | None = None) -> EnsembleStats:
    """Empirical distribution of the ensemble at each query time.

    Counts are over ``states`` in their order.  With ``factor`` given, joint
    states are first marginalized onto that factor's label.
    """
    query_times = np.asarray(query_times, dtype=float)
    if len(paths) == 0:
        raise ValueError("need at least one path")
    states = [tuple(s) for s in states]
    labels = states if factor is None else sorted({s[factor] for s in states})
    column = np.array([labels.index(s if factor is None else s[factor])
                       for s in paths.states], dtype=int)
    counts = np.zeros((len(query_times), len(labels)), dtype=int)
    for q, t in enumerate(query_times):
        counts[q] = np.bincount(column[paths.states_at(t)], minlength=len(labels))
    return EnsembleStats(times=query_times, labels=tuple(labels),
                         counts=counts, n_paths=len(paths))


def total_variation(freqs, probs) -> float:
    freqs = np.asarray(freqs, dtype=float)
    probs = np.asarray(probs, dtype=float)
    return float(0.5 * np.abs(freqs - probs).sum())


def low_probability_occupancy(paths: PathEnsemble, grid, p_trajectory, states,
                              threshold: float = 1e-6) -> float:
    """Fraction of total path-time spent in states of probability < threshold."""
    grid = np.asarray(grid, dtype=float)
    if len(paths) == 0:
        raise ValueError("need at least one path")
    low = (np.asarray(p_trajectory, dtype=float) < threshold).astype(float)
    cum_low = cumulative_trapezoid(low, grid, axis=0, initial=0.0)
    t0, t_end = float(grid[0]), float(grid[-1])
    states = [tuple(s) for s in states]
    column = np.array([states.index(s) for s in paths.states], dtype=int)
    # Segment j of the visits runs from start[j] to stop[j].
    start = np.insert(paths.times, paths.offsets[:-1], t0)
    stop = np.insert(paths.times, paths.offsets[1:], t_end)
    occupant = column[paths._visits()]
    keep = stop > start
    start, stop, occupant = start[keep], stop[keep], occupant[keep]
    share = np.empty(len(start))
    for c in np.unique(occupant):
        on = occupant == c
        share[on] = (np.interp(np.minimum(stop[on], t_end), grid, cum_low[:, c])
                     - np.interp(np.maximum(start[on], t0), grid, cum_low[:, c]))
    # Summed one segment at a time in path order, as a per-path loop adds them.
    return np.cumsum(share)[-1] / (len(paths) * (t_end - t0))
