"""Monte Carlo realization of the property jump process.

Paths alternate inverse-hazard waiting times with destination draws from
the conditional jump distribution.  All paths of a batch advance in
lockstep, one event per round.  Each path owns an independent
counter-based random stream derived from (master seed, path index), so
ensembles are reproducible regardless of batching.

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

from .config import DEFAULT
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


# -- random streams ------------------------------------------------------
#
# Path i draws from Generator(Philox([master_seed, i])).random(), computed
# here for many paths at once: numpy's SeedSequence key derivation, then
# Philox4x64-10 blocks (Salmon et al., SC'11).

_MASK32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)       # SeedSequence pool hash: init, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)       # SeedSequence output hash
_MIX = (0xCA01F9DD, 0x4973F715)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of ``n``, as SeedSequence splits an integer."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _mix(x, y):
    r = x * _MIX[0] - y * _MIX[1]
    return r ^ (r >> 16)


def _seed_keys(entropy: list[np.ndarray]) -> np.ndarray:
    """Philox keys (m, 2) of SeedSequence over rows of uint32 ``entropy`` words."""
    const = _HASH_A[0]

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * _HASH_A[1]) & _MASK32
        value = value * const
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    const = _HASH_B[0]
    state = []
    for word in pool:
        word = word ^ const
        const = (const * _HASH_B[1]) & _MASK32
        word = word * const
        state.append((word ^ (word >> 16)).astype(np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _mulhilo(a: int, b: np.ndarray):
    """High and low 64-bit words of ``a * b``, from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), a * b


def _philox(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the blocks ``(counter, 0, 0, 0)`` under ``key``: (m, 4)."""
    c0 = counter.astype(np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = key[:, 0], key[:, 1]
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=1)


class _Streams:
    """The random streams of a batch of paths, one per path index.

    ``random(rows)`` gives the next uniform of each path at positions
    ``rows``.  Draw k of path i is lane ``k % 4`` of Philox block
    ``k // 4 + 1``, so it is a pure function of (master seed, i, k).
    """

    def __init__(self, master_seed: int, path_indices: np.ndarray):
        if master_seed < 0 or np.any(path_indices < 0):
            raise ValueError("seeds and path indices must be non-negative")
        indices = path_indices.astype(np.uint64)
        head = _words(master_seed)
        self.key = np.empty((len(indices), 2), dtype=np.uint64)
        wide = indices > _MASK32
        for rows, width in ((~wide, 1), (wide, 2)):
            if rows.any():
                entropy = [np.full(rows.sum(), w, dtype=np.uint32) for w in head]
                entropy += [(indices[rows] >> (32 * j) & _MASK32).astype(np.uint32)
                            for j in range(width)]
                self.key[rows] = _seed_keys(entropy)
        self.drawn = np.zeros(len(indices), dtype=np.int64)
        self.block = np.empty((len(indices), 4), dtype=np.uint64)

    def random(self, rows: np.ndarray) -> np.ndarray:
        lane = self.drawn[rows] % 4
        fresh = rows[lane == 0]
        if fresh.size:
            self.block[fresh] = _philox(self.drawn[fresh] // 4 + 1, self.key[fresh])
        self.drawn[rows] += 1
        return (self.block[rows, lane] >> 11) * 2.0 ** -53


def _draw(columns: np.ndarray, states: np.ndarray, rows: np.ndarray,
          rng: _Streams) -> np.ndarray:
    """Inverse-CDF draw per row out of ``states[i]``, weighted by the other
    positive entries of ``columns[i]``.

    Gives -1, without consuming a uniform, where no such weight exists.
    Dividing by the last cumulative sum makes it exactly 1, so a uniform in
    [0, 1) never selects past the last positive weight.
    """
    weights = np.clip(columns, 0.0, None)
    weights[np.arange(len(states)), states] = 0.0
    cum = np.cumsum(weights, axis=1)
    some = ~(cum[:, -1] <= 0.0)
    dest = np.full(len(states), -1)
    cum = cum[some] / cum[some, -1:]
    # searchsorted(cum, u, side="right") of each row.
    dest[some] = (cum <= rng.random(rows[some])[:, None]).sum(axis=1)
    return dest


class _Batch:
    """Lockstep state of a batch of paths, indexed by position in the batch."""

    def __init__(self, rng: _Streams, initial: np.ndarray, t0: float):
        self.rng = rng
        self.state = initial.copy()
        self.t = np.full(len(initial), t0)
        self.count = np.zeros(len(initial), dtype=int)
        self.live = np.ones(len(initial), dtype=bool)
        self.log: list[tuple] = []      # (positions, times, states) as events happen
        self.error = None               # (position, exception) of the first failing path

    def record(self, rows, times, dest):
        self.log.append((rows, times, dest))
        self.count[rows] += 1
        self.state[rows] = dest
        self.t[rows] = times

    def fail(self, rows, error):
        """Stop paths ``rows``; ``error(i)`` is the exception of ``rows[i]``.

        The batch raises the error of its lowest failing position, as a
        path-by-path loop would, so later paths no longer matter.
        """
        i = int(np.argmin(rows))
        if self.error is None or rows[i] < self.error[0]:
            self.error = (int(rows[i]), error(i))
        self.live[rows] = False
        self.live[self.error[0]:] = False


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
        if abs(self.p0.sum() - 1.0) > DEFAULT.probability_sum \
                or self.p0.min() < -DEFAULT.zero_probability:
            raise ValueError("initial distribution must be nonnegative and sum to 1")
        self._p0_cum = np.cumsum(np.clip(self.p0, 0.0, None))
        self._p0_cum /= self._p0_cum[-1]
        mats = rate_trajectory.matrices
        self._exit = np.clip(-np.einsum("nii->ni", mats), 0.0, None)   # (n, D)
        self._cumhaz = cumulative_trapezoid(self._exit, self.grid, axis=0, initial=0.0)
        self._pole_col = rate_trajectory.pole_mask.any(axis=1)          # (n, D)
        # _pole_after[j, i]: first node >= j flagged in column i, n if none.
        n = len(self.grid)
        flagged = np.where(self._pole_col, np.arange(n)[:, None], n)
        self._pole_after = np.vstack([np.minimum.accumulate(flagged[::-1])[::-1],
                                      np.full((1, d), n)])
        self._max_events = 64 * d * max(8, int(self._exit.max()
                                               * (self.grid[-1] - self.grid[0]) + 1))

    # -- lockstep steps ----------------------------------------------------

    def _invert_hazard(self, states, t_from, t_to, target) -> np.ndarray:
        """Jump times in (t_from, t_to] at the given extra hazards; NaN where
        the hazard left in the interval falls short."""
        grid = self.grid
        tau = np.full(len(states), np.nan)
        for state in np.unique(states):
            on = states == state
            h = self._cumhaz[:, state]
            base = np.interp(t_from[on], grid, h)
            end = np.interp(t_to[on], grid, h)
            goal = base + target[on]
            idx = np.clip(np.searchsorted(h, goal, side="left"), 1, len(h) - 1)
            h0, h1 = h[idx - 1], h[idx]
            flat = h1 <= h0
            frac = (goal - h0) / np.where(flat, 1.0, h1 - h0)
            t = np.where(flat, grid[idx], grid[idx - 1] + frac * (grid[idx] - grid[idx - 1]))
            t = np.minimum(np.maximum(t, np.nextafter(t_from[on], np.inf)), t_to[on])
            tau[on] = np.where(end - base < target[on], np.nan, t)
        return tau

    def _maybe_relay(self, batch: _Batch, rows: np.ndarray, arrival: bool):
        """Relay paths that sit in a flagged column straight out of it.

        The flag is read at the node nearest each path's arrival.  A relay
        event is recorded one representable time after the event before it,
        or at the start time when a path's initial state is relayed.
        """
        node = _nearest_node(self.grid, batch.t[rows])
        depth = 0
        while True:
            flagged = self._pole_col[node, batch.state[rows]]
            rows, node = rows[flagged], node[flagged]
            if not rows.size:
                return
            state, tau = batch.state[rows], batch.t[rows]
            if self.pole_policy == "abort":
                batch.fail(rows, lambda i: PoleEncountered(
                    f"path occupies state {state[i]} with diverging exit rate "
                    f"at t={float(tau[i])}"))
                return
            if self.currents is None:
                return
            dest = _draw(self.currents[_nearest_node(self.grid, tau), :, state],
                         state, rows, batch.rng)
            out = dest >= 0
            rows, node, dest, tau = rows[out], node[out], dest[out], tau[out]
            if arrival or depth:
                tau = np.nextafter(tau, np.inf)
            batch.record(rows, tau, dest)
            depth += 1
            if depth > 4 * len(self.states) and rows.size:
                batch.fail(rows, lambda i: ModalDynError(
                    "relay cycle among zero-probability states"))
                return

    def _sample(self, batch: _Batch, rows: np.ndarray):
        """Advance every path at ``rows`` by one waiting time and its jump."""
        grid = self.grid
        t_end = grid[-1]
        target = -np.log1p(-batch.rng.random(rows))
        state, t = batch.state[rows], batch.t[rows]
        # The first flagged node of the state's column after t; the path
        # must jump by the node before it.
        pole = self._pole_after[np.searchsorted(grid, t, side="right"), state]
        has_pole = pole < len(grid)
        pole_t = grid[np.minimum(pole, len(grid) - 1)]
        before = np.maximum(np.searchsorted(grid, pole_t, side="left") - 1, 0)
        horizon = np.where(has_pole, grid[before], t_end)
        tau = np.full(len(rows), np.nan)
        open_ = horizon > t
        tau[open_] = self._invert_hazard(state[open_], t[open_], horizon[open_],
                                         target[open_])
        jumps = ~np.isnan(tau)
        stuck = ~jumps & has_pole
        if self.pole_policy == "abort" and stuck.any():
            s, p = state[stuck], pole_t[stuck]
            batch.fail(rows[stuck], lambda i: PoleEncountered(
                f"state {s[i]} meets a rate pole at t={float(p[i])!r}"))
            stuck[:] = False
        tau[stuck] = np.maximum(horizon[stuck], np.nextafter(t[stuck], np.inf))
        moving = jumps | stuck
        dest = np.full(len(rows), -1)
        dest[moving] = _draw(self.rates.matrix_batch(tau[moving], columns=state[moving]),
                             state[moving], rows[moving], batch.rng)
        # No outgoing rate at the pre-pole node: cross the pole.
        cross = stuck & (dest < 0)
        batch.t[rows[cross]] = np.nextafter(pole_t[cross], np.inf)
        batch.live[rows[(~jumps & ~has_pole) | (jumps & (dest < 0))]] = False
        went = dest >= 0
        rows = rows[went]
        batch.record(rows, tau[went], dest[went])
        self._maybe_relay(batch, rows, arrival=True)
        rows = rows[batch.live[rows]]
        ended = batch.t[rows] >= t_end
        batch.live[rows[ended]] = False
        runaway = rows[~ended][batch.count[rows[~ended]] > self._max_events]
        if runaway.size:
            batch.fail(runaway, lambda i: ModalDynError("runaway path: too many events"))

    # -- sampling --------------------------------------------------------

    def _batch(self, path_indices) -> PathEnsemble:
        """Sample the paths with these stream indices in lockstep, one event
        per path per round; raises the error of the first failing path."""
        seeds = np.array(path_indices, dtype=int)
        rng = _Streams(self.master_seed, seeds)
        everyone = np.arange(len(seeds))
        initial = np.searchsorted(self._p0_cum, rng.random(everyone), side="right")
        batch = _Batch(rng, initial, self.grid[0])
        # A fresh arrival into an already-flagged column is relayed out at once.
        self._maybe_relay(batch, everyone, arrival=False)
        while (rows := np.flatnonzero(batch.live)).size:
            self._sample(batch, rows)
        if batch.error is not None:
            raise batch.error[1]
        owner = np.concatenate([rows for rows, _, _ in batch.log] + [np.zeros(0, int)])
        order = np.argsort(owner, kind="stable")
        return PathEnsemble(
            states=self.states, seeds=seeds, initial=initial,
            offsets=np.concatenate(([0], np.cumsum(batch.count))),
            times=np.concatenate([t for _, t, _ in batch.log] + [np.zeros(0)])[order],
            dest=np.concatenate([d for _, _, d in batch.log] + [np.zeros(0, int)])[order])

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


def low_probability_occupancy(paths: PathEnsemble, grid, p_trajectory, states) -> float:
    """Fraction of total path-time spent in states of probability below 1e-6."""
    grid = np.asarray(grid, dtype=float)
    if len(paths) == 0:
        raise ValueError("need at least one path")
    low = (np.asarray(p_trajectory, dtype=float) < 1e-6).astype(float)
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
