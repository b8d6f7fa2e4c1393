"""Monte Carlo realization of the property jump process.

Paths alternate inverse-hazard waiting times with destination draws from
the conditional jump distribution, all in lockstep, one event per round.
Rounds, the initial draw and the seed keys run over slices of ``_ROWS``
paths: only the per-path state (about 100 bytes a path) spans the ensemble
(``TestSamplerMemory``).  Path k owns a counter-based random stream derived
from (master seed, k), so the first k paths of every ensemble are the
same, and so is the ensemble at any slice size (``TestChunkedRounds``).

Two rules skip work the hazard table already decides, so no bit moves, and
no option selects them (``TestDecidedRounds``).  A column with no rate at
any node and no pole flag is absorbing: a path that starts there or lands
there ends at once, after the runaway check has seen its event, where a
further round would find its hazard short (or, at a zero draw, no
destination).  A flagged column is never absorbing.  And a draw larger
than all the hazard its column has left after the path's grid interval
starts, ``h[-1] - h[right - 1]``, skips the inversion: the hazard
interpolated at the path's time is at least ``h[right - 1]``, the one at
its horizon node at most ``h[-1]``, and rounded subtraction is monotone,
so the hazard left by the horizon falls short of the draw as well.

At probability zeros exit rates can diverge (poles), and there the process
follows conventions of its own (Bacciagaluppi and Dickson, Found. Phys. 29
(1999) 1165).  A path occupying a state whose exit rate diverges at an
upcoming grid node is forced to jump at the last node before the pole,
drawing the destination there; with no outgoing rate at that node it
crosses the pole instead.  A path that lands in a state whose exit rate is
already flagged (an interval of zero probability) leaves again instantly,
with the destination drawn proportionally to the positive outgoing
currents, which is the limit of the jump distribution as the probability
goes to zero.  The relay event is recorded at the next representable time,
keeping event times strictly increasing and the sojourn in the zero state
at measure zero.  The ensemble counts forced jumps, crossings and relays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT
from .currents import CurrentMatrix
from .errors import ModalDynError
from .kinetics import RateTrajectory
from .spectral import _increasing, _nearest_node

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
    """One realization: its position ``seed``, initial joint state and jump events."""

    seed: int
    initial: JointIndex
    events: tuple[tuple[float, JointIndex], ...] = ()

    @property
    def jump_count(self) -> int:
        return len(self.events)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Paths as flat arrays; path k's events are ``offsets[k]:offsets[k+1]``.

    ``initial``, ``offsets`` and ``dest`` are integer columns, stored as
    int64; states are indices into ``states``.  ``len(x)`` is the path
    count, and ``x[k]`` (also in iteration) is path k as a
    :class:`SamplePath` with joint labels and ``seed=k``.
    """

    states: tuple                    # joint labels, flat order
    initial: np.ndarray              # (N,) states at the first node
    offsets: np.ndarray              # (N+1,) int
    times: np.ndarray                # (E,) event times
    dest: np.ndarray                 # (E,) states entered
    forced_jumps: int = 0            # jumps forced at the node before a pole
    pole_crossings: int = 0          # poles crossed without a jump
    relays: int = 0                  # instant exits from zero-probability states

    def __post_init__(self):
        # Array-likes, once; the index columns as int64, an empty list too.
        for name in ("initial", "offsets", "dest"):
            index = np.asarray(getattr(self, name))
            if index.dtype == bool or (index.size and index.dtype.kind not in "iu"):
                raise ValueError(f"{name} must be an integer column, got {index.dtype}")
            object.__setattr__(self, name, index.astype(np.int64, copy=False))
        object.__setattr__(self, "times", np.asarray(self.times))
        offsets, e = self.offsets, len(self.times)
        if len(offsets) != len(self) + 1:
            raise ValueError(f"offsets must have one entry per path and one more, "
                             f"got {len(offsets)} for {len(self)} paths")
        if offsets[0] != 0 or offsets[-1] != e:
            raise ValueError(f"offsets must run from 0 to the event count {e}, "
                             f"got {offsets[0]} to {offsets[-1]}")
        counts = np.diff(offsets)
        if (counts < 0).any():
            raise ValueError("offsets must not decrease")
        if len(self.dest) != e:
            raise ValueError(f"dest must have one state per event time, got {len(self.dest)} "
                             f"for {e} events")
        for name in ("initial", "dest"):
            index = getattr(self, name)
            if index.size and not (index.min() >= 0 and index.max() < len(self.states)):
                raise ValueError(f"{name} must index states in range({len(self.states)})")
        if not np.isfinite(self.times).all():
            raise ValueError("event times must be finite")
        owner = np.repeat(np.arange(len(self)), counts)
        if np.any(~(np.diff(self.times) > 0.0) & (owner[1:] == owner[:-1])):
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
        return SamplePath(seed=k, initial=self.states[self.initial[k]],
                          events=tuple(events))

    @cached_property
    def _visits(self) -> np.ndarray:
        """States each path occupies in turn; path k's start at ``offsets[k] + k``."""
        return np.insert(self.dest, self.offsets[:-1], self.initial)

    def states_at(self, t: float) -> np.ndarray:
        """State of every path at time ``t``, after its events at or before t."""
        passed = np.concatenate(([0], np.cumsum(self.times <= t)))
        done = passed[self.offsets[1:]] - passed[self.offsets[:-1]]
        return self._visits[self.offsets[:-1] + np.arange(len(self)) + done]


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
# Path k draws from Generator(Philox([master_seed, k])).random(), computed
# here for many paths at once: numpy's SeedSequence key derivation, then
# Philox4x64-10 blocks (Salmon et al., SC'11).

_MASK32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)       # SeedSequence pool hash: init, multiplier
_HASH_B = (0x8B51F9DD, 0x58F38DED)       # SeedSequence output hash
_MIX = (0xCA01F9DD, 0x4973F715)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

# Paths per slice of the rounds, the seed keys and the occupancy segments.
_ROWS = 4096


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
    """High and low 64-bit words of ``a * b``.

    The high word is formed from 32-bit halves as in Hacker's Delight (2nd
    ed., 8-2), where no sum overflows: t = a_hi b_lo + (a_lo b_lo >> 32),
    w = a_lo b_hi + (t & M) and hi = a_hi b_hi + (t >> 32) + (w >> 32),
    in place on the halves' arrays.
    """
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    t = a_lo * b_lo
    t >>= 32
    b_lo *= a_hi
    t += b_lo
    w = b_hi * a_lo
    w += t & _MASK32
    b_hi *= a_hi
    t >>= 32
    b_hi += t
    w >>= 32
    b_hi += w
    return b_hi, a * b


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
    """The random streams of paths ``0 .. n-1``, one per path (n <= 2**32).

    ``random(rows)`` gives the next uniform of each path at positions
    ``rows``.  Draw j of path k is lane ``j % 4`` of Philox block
    ``j // 4 + 1``, so it is a pure function of (master seed, k, j).
    """

    def __init__(self, master_seed: int, n: int):
        if master_seed < 0:
            raise ValueError("master seed must be non-negative")
        self.key = np.empty((n, 2), dtype=np.uint64)
        for lo in range(0, n, _ROWS):
            # SeedSequence entropy: the master seed's words, then k as one word.
            k = np.arange(lo, min(lo + _ROWS, n), dtype=np.uint32)
            entropy = [np.full(len(k), w, dtype=np.uint32) for w in _words(master_seed)]
            self.key[lo:lo + _ROWS] = _seed_keys(entropy + [k])
        self.drawn = np.zeros(n, dtype=np.int64)
        self.block = np.empty((n, 4), dtype=np.uint64)

    def random(self, rows: np.ndarray) -> np.ndarray:
        drawn = self.drawn[rows]            # rows are distinct positions
        self.drawn[rows] = drawn + 1
        lane = drawn % 4
        if (fresh := lane == 0).any():
            self.block[rows[fresh]] = _philox(drawn[fresh] // 4 + 1, self.key[rows[fresh]])
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
        self.initial = initial
        self.state = initial.copy()
        self.t = np.full(len(initial), t0)
        self.count = np.zeros(len(initial), dtype=int)
        self.live = np.ones(len(initial), dtype=bool)
        self.log: list[tuple] = []      # (positions, times, states) as events happen
        self.forced = self.crossed = self.relays = 0
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


def _interp_rows(grid, table, rows, t, right=None) -> np.ndarray:
    """``np.interp(t, grid, table[row])`` per row for t >= grid[0], in the same
    arithmetic: the value at and past the last node is returned as it is, and
    inside interval j it is ``slope_j * (t - grid[j]) + table[row, j]``.
    ``right`` is ``searchsorted(grid, t, side="right")`` where the caller has
    it already."""
    last = len(grid) - 1
    if right is None:
        right = np.searchsorted(grid, t, side="right")
    j = right - 1
    past = j >= last
    j[past] = last - 1
    h0, h1 = table[rows, j], table[rows, j + 1]
    # A (rows, nodes, D) table interpolates each row's D entries: the per-row
    # terms get a trailing axis, as (m, D) / (m,) pairs wrong axes if m == D.
    g0, lift = grid[j], (-1,) + (1,) * (h0.ndim - 1)
    value = (h1 - h0) / (grid[j + 1] - g0).reshape(lift) * (t - g0).reshape(lift) + h0
    value[past] = h1[past]
    return value


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of ``y`` along axis 0 from ``x[0]`` to each node.

    The expression is scipy's ``cumulative_trapezoid(y, x, axis=0,
    initial=0)``, operation for operation, so the results agree bitwise.
    """
    d = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    res = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate((np.zeros((1,) + res.shape[1:], dtype=res.dtype), res))


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
    currents : CurrentMatrix
        The currents at every node, ``matrix`` of shape ``(n, D, D)``, used
        for relay destination draws out of zero-probability states.
    """

    def __init__(self, rate_trajectory: RateTrajectory, p0, states,
                 currents, master_seed: int = 0):
        self.grid = rate_trajectory.grid
        self.states = tuple(tuple(s) for s in states)
        self.p0 = np.asarray(p0, dtype=float).reshape(-1)
        self.currents = currents
        self.master_seed = int(master_seed)
        d, n = rate_trajectory.size, len(self.grid)
        if len(self.states) != d or self.p0.size != d:
            raise ValueError("states/p0 size does not match the rate trajectory")
        if not isinstance(currents, CurrentMatrix):
            raise TypeError(f"currents must be a CurrentMatrix, not {type(currents).__name__}")
        if currents.matrix.shape != (n, d, d):
            raise ValueError(f"currents of shape {currents.matrix.shape}, rates of {(n, d, d)}")
        if not (abs(self.p0.sum() - 1.0) <= DEFAULT.probability_sum
                and self.p0.min() >= -DEFAULT.zero_probability):
            raise ValueError("initial distribution must be nonnegative and sum to 1")
        self._p0_cum = np.cumsum(np.clip(self.p0, 0.0, None))
        self._p0_cum /= self._p0_cum[-1]
        mats = rate_trajectory.matrices
        self._cols = mats.transpose(2, 0, 1)        # [i, k]: column i at node k, a view
        exit_rate = np.clip(-np.einsum("nii->ni", mats), 0.0, None)    # (n, D)
        # Column i's cumulative hazard as the keys i + 1j*cumhaz, in one flat
        # array: complex numbers sort by real part first and cumhaz does not
        # decrease, so the keys are sorted and a search for i + 1j*goal stays
        # in column i.  _cumhaz[i] is column i, a view of the keys.
        cumhaz = _cumulative_trapezoid(exit_rate, self.grid)             # (n, D)
        self._keys = (np.arange(d) + 1j * cumhaz).T.ravel()
        self._cumhaz = self._keys.imag.reshape(d, n)
        self._pole_col = rate_trajectory.pole_mask.any(axis=1)          # (n, D)
        self._flagged = bool(self._pole_col.any())
        # Absorbing columns: every rate zero at every node, and no flag.  A
        # path there would find its hazard short, or (at a zero draw) no
        # destination, in its next round, so it ends on arrival instead.
        self._absorbing = ~mats.any(axis=(0, 1)) & ~self._pole_col.any(axis=0)
        # _pole_after[j, i]: first node >= j flagged in column i, n if none.
        flagged = np.where(self._pole_col, np.arange(n)[:, None], n)
        self._pole_after = np.vstack([np.minimum.accumulate(flagged[::-1])[::-1],
                                      np.full((1, d), n)])
        self._max_events = 64 * d * max(8, int(exit_rate.max()
                                               * (self.grid[-1] - self.grid[0]) + 1))

    # -- lockstep steps ----------------------------------------------------

    def _invert_hazard(self, states, t_from, right, horizon, target) -> np.ndarray:
        """Jump times in (t_from, grid[horizon]] at the given extra hazards;
        NaN where the horizon node is not after t_from or the hazard left by
        it falls short.

        The cumulative hazard of each row's state is interpolated by
        ``_interp_rows`` at t_from in the interval ``right`` gives, and read
        off the table at the horizon node, where the interpolation returns
        the node's own value.  One search over ``_keys`` finds each goal as
        its column's ``searchsorted(side="left")`` would.  Rows whose target
        exceeds all the hazard their column has left after interval
        ``right`` starts are short without either step.
        """
        grid, h, n = self.grid, self._cumhaz, len(self.grid)
        tau = np.full(len(states), np.nan)
        # The interpolated base is at least h[state, right - 1] (a
        # nonnegative slope times a nonnegative width added to it, or the
        # last entry past the end), and h[state, node] <= h[state, -1]: the
        # table does not decrease.  Rounded subtraction is monotone, so
        # h[state, node] - base <= h[state, -1] - h[state, right - 1]
        # < target, and the row is short.  A NaN bound decides nothing.
        decided = target > h[states, -1] - h[states, right - 1]
        at = np.flatnonzero((grid[horizon] > t_from) & ~decided)
        state, t0, node, extra = states[at], t_from[at], horizon[at], target[at]
        base = _interp_rows(grid, h, state, t0, right[at])
        goal = base + extra
        idx = np.searchsorted(self._keys, state + 1j * goal, side="left") - state * n
        np.clip(idx, 1, n - 1, out=idx)
        h0, h1 = h[state, idx - 1], h[state, idx]
        flat = h1 <= h0
        frac = (goal - h0) / np.where(flat, 1.0, h1 - h0)
        g0, g1 = grid[idx - 1], grid[idx]
        t = np.where(flat, g1, g0 + frac * (g1 - g0))
        t = np.minimum(np.maximum(t, np.nextafter(t0, np.inf)), grid[node])
        short = h[state, node] - base < extra
        tau[at] = np.where(short, np.nan, t)
        return tau

    def _maybe_relay(self, batch: _Batch, rows: np.ndarray, arrival: bool):
        """Relay paths that sit in a flagged column straight out of it.

        The flag and the current column of the destination draw are read at
        the node nearest each path's arrival.  A relay event is recorded one
        representable time after the event before it, or at the start time
        for a relayed initial state; a process without flags relays nothing.
        """
        if not self._flagged:
            return
        node = _nearest_node(self.grid, batch.t[rows])
        depth = 0
        while True:
            flagged = self._pole_col[node, batch.state[rows]]
            rows, node = rows[flagged], node[flagged]
            if not rows.size:
                return
            state, tau = batch.state[rows], batch.t[rows]
            dest = _draw(self.currents.matrix[node, :, state], state, rows, batch.rng)
            out = dest >= 0
            rows, node, dest, tau = rows[out], node[out], dest[out], tau[out]
            if arrival or depth:
                tau = np.nextafter(tau, np.inf)
            batch.record(rows, tau, dest)
            batch.relays += rows.size
            depth += 1
            if depth > 4 * len(self.states) and rows.size:
                batch.fail(rows, lambda i: ModalDynError(
                    "relay cycle among zero-probability states"))
                return

    def _sample(self, batch: _Batch, rows: np.ndarray):
        """Advance every path at ``rows`` by one waiting time and its jump."""
        grid, n = self.grid, len(self.grid)
        target = -np.log1p(-batch.rng.random(rows))
        state, t = batch.state[rows], batch.t[rows]
        # The first flagged node of the state's column after t; the path
        # must jump by the node before it, its horizon node (the last node
        # if there is no pole).
        right = np.searchsorted(grid, t, side="right")
        pole = self._pole_after[right, state]
        has_pole = pole < n
        horizon = np.where(has_pole, np.maximum(pole - 1, 0), n - 1)
        tau = self._invert_hazard(state, t, right, horizon, target)
        jumps = ~np.isnan(tau)
        stuck = ~jumps & has_pole
        tau[stuck] = np.maximum(grid[horizon[stuck]], np.nextafter(t[stuck], np.inf))
        moving = jumps | stuck
        dest = np.full(len(rows), -1)
        dest[moving] = _draw(_interp_rows(grid, self._cols, state[moving], tau[moving]),
                             state[moving], rows[moving], batch.rng)
        # No outgoing rate at the pre-pole node: cross the pole.
        cross = stuck & (dest < 0)
        batch.forced += np.count_nonzero(stuck) - np.count_nonzero(cross)
        batch.crossed += np.count_nonzero(cross)
        batch.t[rows[cross]] = np.nextafter(grid[pole[cross]], np.inf)
        batch.live[rows[(~jumps & ~has_pole) | (jumps & (dest < 0))]] = False
        went = dest >= 0
        rows = rows[went]
        batch.record(rows, tau[went], dest[went])
        self._maybe_relay(batch, rows, arrival=True)
        rows = rows[batch.live[rows]]
        ended = batch.t[rows] >= grid[-1]
        runaway = rows[~ended][batch.count[rows[~ended]] > self._max_events]
        if runaway.size:
            batch.fail(runaway, lambda i: ModalDynError("runaway path: too many events"))
        # Arrivals in absorbing columns end after the runaway check has seen them.
        batch.live[rows[ended | self._absorbing[batch.state[rows]]]] = False

    def _start(self, batch: _Batch, rows: np.ndarray):
        """Round 0: initial states at ``rows``, relayed out of flagged columns;
        paths that then sit in an absorbing column end."""
        batch.initial[rows] = batch.state[rows] = np.searchsorted(
            self._p0_cum, batch.rng.random(rows), side="right")
        self._maybe_relay(batch, rows, arrival=False)
        batch.live[rows[self._absorbing[batch.state[rows]]]] = False

    # -- sampling --------------------------------------------------------

    def ensemble(self, n_paths: int) -> PathEnsemble:
        """Paths 0 .. n_paths-1 in lockstep, one event per path per round; path k
        draws from stream k (at most 2**32 of them), so ``ensemble(k + 1)[k]``
        is path k of every larger ensemble.  Raises the first failing path's error."""
        n = int(n_paths)
        if not 0 <= n <= 2 ** 32:
            raise ValueError(f"path count must lie in [0, 2**32], got {n}")
        batch = _Batch(_Streams(self.master_seed, n), np.zeros(n, dtype=int), self.grid[0])
        rows, step = np.arange(n), self._start
        while rows.size:
            for lo in range(0, len(rows), _ROWS):
                step(batch, rows[lo:lo + _ROWS])
            rows, step = np.flatnonzero(batch.live), self._sample
        if batch.error is not None:
            raise batch.error[1]
        owner = np.concatenate([rows for rows, _, _ in batch.log] + [np.zeros(0, int)])
        order = np.argsort(owner, kind="stable")
        return PathEnsemble(
            states=self.states, initial=batch.initial,
            offsets=np.concatenate(([0], np.cumsum(batch.count))),
            times=np.concatenate([t for _, t, _ in batch.log] + [np.zeros(0)])[order],
            dest=np.concatenate([d for _, _, d in batch.log] + [np.zeros(0, int)])[order],
            forced_jumps=int(batch.forced), pole_crossings=int(batch.crossed), relays=batch.relays)


def ensemble_marginals(paths: PathEnsemble, query_times,
                       factor: int | None = None) -> EnsembleStats:
    """Empirical distribution of the ensemble at each query time.

    Counts are over ``paths.states`` in their order.  With ``factor`` given
    (an integer below the factor count), joint states are first marginalized
    onto that factor's sorted labels.
    """
    query_times = np.asarray(query_times, dtype=float)
    if len(paths) == 0:
        raise ValueError("need at least one path")
    if not np.isfinite(query_times).all():
        raise ValueError("query times must be finite")
    if factor is None:
        labels, column = paths.states, None
    else:
        n = len(paths.states[0])
        if isinstance(factor, bool) or not hasattr(factor, "__index__") or factor not in range(n):
            raise ValueError(f"factor must be an integer in range({n}), got {factor!r}")
        labels = sorted({s[factor] for s in paths.states})
        column = np.array([labels.index(s[factor]) for s in paths.states], dtype=int)
    counts = np.zeros((len(query_times), len(labels)), dtype=int)
    for q, t in enumerate(query_times):
        at = paths.states_at(t)
        counts[q] = np.bincount(at if column is None else column[at], minlength=len(labels))
    return EnsembleStats(times=query_times, labels=tuple(labels),
                         counts=counts, n_paths=len(paths))


def total_variation(freqs, probs) -> float:
    freqs = np.asarray(freqs, dtype=float)
    probs = np.asarray(probs, dtype=float)
    return float(0.5 * np.abs(freqs - probs).sum())


def low_probability_occupancy(paths: PathEnsemble, grid, p_trajectory) -> float:
    """Fraction of total path-time spent in states of probability below 1e-6;
    column i of ``p_trajectory`` is the probability of ``paths.states[i]``."""
    grid = np.asarray(grid, dtype=float)
    if len(paths) == 0:
        raise ValueError("need at least one path")
    low = (np.asarray(p_trajectory, dtype=float) < 1e-6).astype(float)
    if low.shape != (len(grid), len(paths.states)):
        raise ValueError("p_trajectory needs one row per grid node and one column per state")
    _increasing(grid)
    cum_low = _cumulative_trapezoid(low, grid).T      # (D, n): row i is state i
    t0, t_end = float(grid[0]), float(grid[-1])
    # Segment j of the visits runs from start[j] to stop[j].  A state that is
    # never low has a zero row, so its segments would add exactly +0.0.
    start = np.insert(paths.times, paths.offsets[:-1], t0)
    stop = np.insert(paths.times, paths.offsets[1:], t_end)
    occupant = paths._visits
    keep = (stop > start) & low.any(axis=0)[occupant]
    if not keep.any():
        return 0.0
    start, stop, occupant = start[keep], stop[keep], occupant[keep]
    share = np.empty(len(start))
    for lo in range(0, len(start), _ROWS):
        part = slice(lo, lo + _ROWS)
        c, a, b = occupant[part], np.maximum(start[part], t0), np.minimum(stop[part], t_end)
        share[part] = _interp_rows(grid, cum_low, c, b) - _interp_rows(grid, cum_low, c, a)
    # Summed one segment at a time in path order, as a per-path loop adds them.
    return np.cumsum(share)[-1] / (len(paths) * (t_end - t0))
