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

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import ModalDynError, PoleEncountered
from .kinetics import RateTrajectory

__all__ = [
    "EnsembleStats",
    "JumpProcess",
    "SamplePath",
    "ensemble_marginals",
    "low_probability_occupancy",
    "sample_initial",
    "total_variation",
]

JointIndex = tuple[int, ...]


@dataclass(frozen=True)
class SamplePath:
    """One realization: a seed, an initial joint state and its jump events."""

    seed: int
    initial: JointIndex
    events: tuple[tuple[float, JointIndex], ...] = field(default_factory=tuple)

    def __post_init__(self):
        times = [t for t, _ in self.events]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")

    @property
    def jump_count(self) -> int:
        return len(self.events)

    def state_at(self, t: float) -> JointIndex:
        state = self.initial
        for et, dest in self.events:
            if et <= t:
                state = dest
            else:
                break
        return state


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


def _draw(weights: np.ndarray, rng):
    """Inverse-CDF index draw proportional to nonnegative ``weights``.

    Returns None, without consuming a uniform, when the weights sum to zero.
    Dividing by the last cumulative sum makes it exactly 1, so a uniform in
    [0, 1) never selects past the last positive weight.
    """
    cum = np.cumsum(weights)
    if cum[-1] <= 0.0:
        return None
    cum /= cum[-1]
    return int(np.searchsorted(cum, rng.random(), side="right"))


def sample_initial(p0, rng, states=None):
    """Inverse-CDF draw from an initial distribution with fixed ordering."""
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    if abs(p0.sum() - 1.0) > 1e-9 or p0.min() < -1e-12:
        raise ValueError("initial distribution must be nonnegative and sum to 1")
    k = _draw(np.clip(p0, 0.0, None), rng)
    return states[k] if states is not None else k


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
        self.states = [tuple(s) for s in states]
        self.p0 = np.asarray(p0, dtype=float).reshape(-1)
        self.currents = None if currents is None else np.asarray(currents, dtype=float)
        self.pole_policy = pole_policy
        self.master_seed = int(master_seed)
        d = rate_trajectory.size
        if len(self.states) != d or self.p0.size != d:
            raise ValueError("states/p0 size does not match the rate trajectory")
        mats = rate_trajectory.matrices
        self._exit = np.clip(-np.einsum("nii->ni", mats), 0.0, None)   # (n, D)
        self._cumhaz = cumulative_trapezoid(self._exit, self.grid, axis=0, initial=0.0)
        self._pole_col = rate_trajectory.pole_mask.any(axis=1)          # (n, D)
        self._pole_times = [self.grid[self._pole_col[:, i]] for i in range(d)]

    # -- helpers ---------------------------------------------------------

    def _cumhaz_at(self, state: int, t: float) -> float:
        return float(np.interp(t, self.grid, self._cumhaz[:, state]))

    def _invert_hazard(self, state: int, t_from: float, t_to: float, target: float):
        """Jump time in (t_from, t_to] with given extra hazard, or None."""
        base = self._cumhaz_at(state, t_from)
        end = self._cumhaz_at(state, t_to)
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
        col = np.clip(self.rates.matrix_batch(np.array([tau]))[0][:, state], 0.0, None)
        col[state] = 0.0
        return _draw(col, rng)

    def _relay_destination(self, state: int, tau: float, rng):
        if self.currents is None:
            return None
        k = int(np.argmin(np.abs(self.grid - tau)))
        w = np.clip(self.currents[k][:, state], 0.0, None)
        w[state] = 0.0
        return _draw(w, rng)

    def _next_pole(self, state: int, t: float):
        times = self._pole_times[state]
        idx = int(np.searchsorted(times, t, side="right"))
        return float(times[idx]) if idx < len(times) else None

    # -- sampling --------------------------------------------------------

    def rng_for(self, path_index: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox([self.master_seed, int(path_index)]))

    def path(self, path_index: int) -> SamplePath:
        rng = self.rng_for(path_index)
        flat = sample_initial(self.p0, rng)
        return self.path_from(flat, rng, seed=path_index)

    def path_from(self, initial_flat: int, rng, seed: int = -1) -> SamplePath:
        grid = self.grid
        t_end = float(grid[-1])
        state = int(initial_flat)
        t_cur = float(grid[0])
        events: list[tuple[float, JointIndex]] = []
        d = len(self.states)
        # A fresh arrival into an already-flagged column is relayed out at once.
        state, t_cur = self._maybe_relay(state, t_cur, rng, events, arrival=False)
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
            events.append((tau, self.states[dest]))
            state, t_cur = self._maybe_relay(dest, tau, rng, events, arrival=True)
            if t_cur >= t_end:
                break
            if len(events) > 64 * d * max(8, int(self._exit.max() * (t_end - grid[0]) + 1)):
                raise ModalDynError("runaway path: too many events")
        return SamplePath(seed=seed, initial=self.states[int(initial_flat)],
                          events=tuple(events))

    def _last_node_before(self, pole_time: float) -> float:
        idx = int(np.searchsorted(self.grid, pole_time, side="left"))
        return float(self.grid[max(idx - 1, 0)])

    def _maybe_relay(self, state: int, tau: float, rng, events, arrival: bool):
        d = len(self.states)
        depth = 0
        k = int(np.argmin(np.abs(self.grid - tau)))
        while self._pole_col[k, state]:
            if self.pole_policy == "abort":
                raise PoleEncountered(
                    f"path occupies state {state} with diverging exit rate at t={float(tau)}"
                )
            dest = self._relay_destination(state, tau, rng)
            if dest is None:
                break
            tau = float(np.nextafter(tau, np.inf)) if arrival or events else tau
            events.append((tau, self.states[dest]))
            state = dest
            arrival = True
            depth += 1
            if depth > 4 * d:
                raise ModalDynError("relay cycle among zero-probability states")
        return state, tau

    def ensemble(self, n_paths: int) -> list[SamplePath]:
        return [self.path(k) for k in range(int(n_paths))]


def ensemble_marginals(paths, query_times, states, factor: int | None = None
                       ) -> EnsembleStats:
    """Empirical distribution of the ensemble at each query time.

    With ``factor`` given, joint states are first marginalized onto that
    factor's label.
    """
    query_times = np.asarray(query_times, dtype=float)
    states = [tuple(s) for s in states]
    if factor is None:
        labels = states
        label_of = {s: k for k, s in enumerate(states)}
        proj = lambda s: label_of[s]
    else:
        labels = sorted({s[factor] for s in states})
        pos = {l: k for k, l in enumerate(labels)}
        proj = lambda s: pos[s[factor]]
    counts = np.zeros((len(query_times), len(labels)), dtype=int)
    n = 0
    for path in paths:
        n += 1
        ev_times = np.array([t for t, _ in path.events])
        seq = [path.initial] + [dest for _, dest in path.events]
        idx = np.searchsorted(ev_times, query_times, side="right")
        for q, j in enumerate(idx):
            counts[q, proj(seq[j])] += 1
    if n == 0:
        raise ValueError("need at least one path")
    return EnsembleStats(times=query_times, labels=tuple(labels),
                         counts=counts, n_paths=n)


def total_variation(freqs, probs) -> float:
    freqs = np.asarray(freqs, dtype=float)
    probs = np.asarray(probs, dtype=float)
    return float(0.5 * np.abs(freqs - probs).sum())


def low_probability_occupancy(paths, grid, p_trajectory, states,
                              threshold: float = 1e-6) -> float:
    """Fraction of total path-time spent in states of probability < threshold."""
    grid = np.asarray(grid, dtype=float)
    p = np.asarray(p_trajectory, dtype=float)
    low = (p < threshold).astype(float)
    cum_low = cumulative_trapezoid(low, grid, axis=0, initial=0.0)
    t0, t_end = float(grid[0]), float(grid[-1])
    flat = {tuple(s): k for k, s in enumerate(states)}
    total = 0.0
    n = 0
    for path in paths:
        n += 1
        marks = [t0] + [t for t, _ in path.events] + [t_end]
        occupants = [path.initial] + [dest for _, dest in path.events]
        for (a, b), s in zip(zip(marks, marks[1:]), occupants):
            if b <= a:
                continue
            col = cum_low[:, flat[tuple(s)]]
            total += np.interp(min(b, t_end), grid, col) - np.interp(max(a, t0), grid, col)
    if n == 0:
        raise ValueError("need at least one path")
    return total / (n * (t_end - t0))
