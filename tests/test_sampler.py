import hashlib
import itertools
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from modaldyn import pipeline, sampler
from modaldyn.currents import CurrentMatrix
from modaldyn.errors import ModalDynError
from modaldyn.kinetics import RateMatrix, RateTrajectory, rate_matrix
from modaldyn.pipeline import run
from modaldyn.sampler import (JumpProcess, PathEnsemble, SamplePath, _Batch,
                              _cumulative_trapezoid, _draw, _interp_rows, _mulhilo, _seed_keys,
                              _Streams, _words, ensemble_marginals, low_probability_occupancy,
                              total_variation)
from modaldyn.scenario import (BUILTINS, EnsembleSpec, Scenario, TimeSpec, load_scenario,
                               scenario_to_dict)
from modaldyn.spectral import _nearest_node

from conftest import mixed_scenario, random_hermitian, random_ket, relay_scenario, traced_peak


def stacked(full):
    """The current record whose strict upper triangles are those of ``full``."""
    u = np.triu(full, 1)
    return CurrentMatrix(u - np.swapaxes(u, -1, -2))


def rate_trajectory_from(grid, full_of_t, p_of_t):
    full = np.stack([full_of_t(t) for t in grid])
    p = np.stack([p_of_t(t) for t in grid])
    return RateTrajectory(grid, rate_matrix("bell", stacked(full), p))


def zero_process(d=2, t1=1.0, seed=7, n_nodes=101, p0=None):
    grid = np.linspace(0.0, t1, n_nodes)
    rt = rate_trajectory_from(grid, lambda t: np.zeros((d, d)),
                              lambda t: np.full(d, 1.0 / d))
    states = [(k,) for k in range(d)]
    p0 = np.full(d, 1.0 / d) if p0 is None else np.asarray(p0)
    return JumpProcess(rt, p0, states, stacked(np.zeros((n_nodes, d, d))), master_seed=seed)


def ensemble_of(states, *paths):
    """A PathEnsemble of paths given as (initial label, ((time, label), ...))."""
    flat = {s: k for k, s in enumerate(states)}
    events = [ev for _, evs in paths for ev in evs]
    return PathEnsemble(states=states, initial=np.array([flat[s] for s, _ in paths]),
                        offsets=np.cumsum([0] + [len(evs) for _, evs in paths]),
                        times=np.array([t for t, _ in events], dtype=float),
                        dest=np.array([flat[s] for _, s in events], dtype=int))


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 4)])
    def test_bitwise_equal_to_scipy(self, rng, jitter, trailing):
        grid = np.linspace(0.0, 1.3, 257)
        grid[1:-1] += jitter * (grid[1] - grid[0]) * rng.uniform(-1, 1, size=255)
        y = rng.normal(size=(257, *trailing))
        ref = cumulative_trapezoid(y, grid, axis=0, initial=0)
        got = _cumulative_trapezoid(y, grid)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


class TestSampleInitial:
    """Initial states drawn by ``JumpProcess`` from its ``p0``."""

    def test_point_mass(self):
        paths = zero_process(d=3, n_nodes=3, p0=[1.0, 0.0, 0.0]).ensemble(50)
        assert np.all(paths.initial == 0)

    def test_uniform_frequencies(self):
        n = 100_000
        paths = zero_process(d=4, n_nodes=3, seed=4242).ensemble(n)
        counts = np.bincount(paths.initial, minlength=4)
        assert np.abs(counts / n - 0.25).max() <= 0.006

    def test_zero_probability_states_never_drawn(self):
        proc = zero_process(d=4, n_nodes=3, seed=11, p0=[0.0, 0.5, 0.5, 0.0])
        assert set(proc.ensemble(2000).initial.tolist()) == {1, 2}

    def test_invalid_distribution(self):
        with pytest.raises(ValueError, match="initial distribution"):
            zero_process(p0=[0.5, 0.4])


def first_jump_times(rate_of_t, t1, step, n, seed):
    """First-event times of ``n`` paths of a chain leaving state 0 at rate_of_t.

    The chain has no way back, so the first event is the only one; paths
    that do not jump by ``t1`` report ``t1``.
    """
    grid = np.arange(0.0, t1 + step / 2, step)
    m = np.zeros((len(grid), 2, 2))
    m[:, 1, 0] = rate_of_t(grid)
    m[:, 0, 0] = -m[:, 1, 0]
    rates = RateMatrix(m, np.zeros(m.shape, dtype=bool))
    proc = JumpProcess(RateTrajectory(grid, rates), np.array([1.0, 0.0]),
                       [(0,), (1,)], stacked(np.zeros(m.shape)), master_seed=seed)
    return np.array([p.events[0][0] if p.events else t1 for p in proc.ensemble(n)])


class TestSampleWaitingTime:
    """Waiting times drawn by the sampler's hazard inversion."""

    def test_constant_rate_exponential_law(self):
        lam, horizon, n = 2.0, 1.5, 20_000
        times = first_jump_times(lambda g: np.full_like(g, lam), horizon, 5e-3, n, 5150)
        for t in (0.2, 0.5, 1.0):
            surv = float((times > t).mean())
            expect = np.exp(-lam * t)
            band = 4 * np.sqrt(expect * (1 - expect) / n)
            assert abs(surv - expect) <= band

    def test_step_hazard(self):
        lam, t_on, step, n = 3.0, 0.5, 1e-3, 4000
        times = first_jump_times(lambda g: np.where(g < t_on, 0.0, lam), 4.0, step, n, 99)
        # Hazard is linearly interpolated between nodes: one step of slack.
        assert times.min() >= t_on - step
        # Beyond the step the law is exponential with rate lam.
        surv = float((times - t_on > 0.3).mean())
        expect = np.exp(-lam * 0.3)
        assert abs(surv - expect) <= 3 * np.sqrt(expect * (1 - expect) / n) + 1e-3

    def test_negative_rate_rejected(self):
        # A negative hazard cannot reach the sampler: rates are checked on entry.
        with pytest.raises(ValueError, match="nonnegative"):
            RateMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros((2, 2), dtype=bool))


def hazard_process(seed=3, n=60, d=5):
    """A process on a jittered grid whose exit rates vanish on stretches:
    column 0 from the start, column 1 up to the end, column 2 everywhere and
    the others somewhere inside, so cumhaz has repeated values."""
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.5, 1.5, n)) / n
    off = rng.exponential(size=(n, d, d))
    off[:8, :, 0] = 0.0
    off[-9:, :, 1] = 0.0
    off[:, :, 2] = 0.0
    for col in range(3, d):
        lo = rng.integers(1, n - 12)
        off[lo:lo + rng.integers(3, 10), :, col] = 0.0
    i = np.arange(d)
    off[:, i, i] = 0.0
    mats = off.copy()
    mats[:, i, i] = -off.sum(axis=1)
    rates = RateTrajectory(grid, RateMatrix(mats, np.zeros(mats.shape, dtype=bool)))
    process = JumpProcess(rates, np.full(d, 1.0 / d), [(k,) for k in range(d)],
                          currents=stacked(np.zeros((n, d, d))))
    return process, _cumulative_trapezoid(off.sum(axis=1), grid)


def invert_hazard_per_state(grid, cumhaz, states, t_from, t_to, target):
    """The sampler's earlier hazard inversion: one pass per occupied state."""
    tau = np.full(len(states), np.nan)
    for state in np.unique(states):
        on = states == state
        h = cumhaz[:, state]
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


class TestHazardInversion:
    """The one-pass hazard inversion equals np.interp and each column's
    searchsorted bit for bit, ties in flat stretches included."""

    def test_interpolation_is_np_interp(self):
        process, cumhaz = hazard_process()
        grid = process.grid
        rng = np.random.default_rng(8)
        t = np.concatenate([grid, grid[-1:], grid[-1] + np.array([1e-9, 0.5, 3.0]),
                            (grid[1:] + grid[:-1]) / 2, rng.uniform(grid[0], grid[-1], 500)])
        for state in range(cumhaz.shape[1]):
            got = _interp_rows(grid, process._cumhaz, np.full(len(t), state), t)
            want = np.interp(t, grid, cumhaz[:, state])
            assert got.tobytes() == want.tobytes(), state

    def test_key_search_is_searchsorted_per_column(self):
        process, cumhaz = hazard_process()
        n, d = cumhaz.shape
        rng = np.random.default_rng(9)
        for state in range(d):
            h = cumhaz[:, state]
            goal = np.concatenate([h, np.unique(h)[1:] - 1e-9, [0.0, h[-1] + 1.0, 1e300],
                                   rng.uniform(0.0, h[-1] + 0.1, 200)])
            got = np.searchsorted(process._keys, state + 1j * goal, side="left") - state * n
            assert np.array_equal(got, np.searchsorted(h, goal, side="left")), state

    def test_matches_per_state_loop(self):
        process, cumhaz = hazard_process()
        grid, d = process.grid, cumhaz.shape[1]
        rng = np.random.default_rng(10)
        m = 3000
        states = rng.integers(0, d, m)
        t_from = np.where(rng.random(m) < 0.3, grid[rng.integers(0, len(grid) - 1, m)],
                          rng.uniform(grid[0], grid[-2], m))
        # The round's horizon is a node: the last one, any after t_from, or
        # the one at or before it, where no time is left.
        right = np.searchsorted(grid, t_from, side="right")
        horizon = np.where(rng.random(m) < 0.3, len(grid) - 1,
                           rng.integers(right, len(grid)))
        horizon = np.where(rng.random(m) < 0.1, right - 1, horizon)
        t_to = grid[horizon]
        # Some targets land on table values: exact ties with the search.
        base = np.array([np.interp(t, grid, cumhaz[:, s]) for s, t in zip(states, t_from)])
        on_node = cumhaz[rng.integers(0, len(grid), m), states] - base
        target = np.where((rng.random(m) < 0.3) & (on_node > 0), on_node, rng.exponential(size=m))
        want = invert_hazard_per_state(grid, cumhaz, states, t_from, t_to, target)
        assert np.isnan(want).any() and not np.isnan(want).all()
        got = process._invert_hazard(states, t_from, right, horizon, target)
        assert got.tobytes() == want.tobytes()


class TestRoundParts:
    """Each shortcut of the lockstep round against the computation it replaces."""

    @pytest.mark.parametrize("a", sampler._PHILOX_M)
    def test_mulhilo_is_the_integer_product(self, a):
        edges = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
        words = np.random.default_rng(12).integers(0, 2**64, size=2000, dtype=np.uint64)
        b = np.concatenate([edges, words])
        hi, lo = _mulhilo(a, b)
        product = [a * x for x in b.tolist()]
        assert hi.dtype == lo.dtype == np.uint64
        assert hi.tolist() == [x >> 64 for x in product]
        assert lo.tolist() == [x & (2**64 - 1) for x in product]

    def test_interp_rows_with_interval_is_searched(self):
        # At nodes, between them, at the last node and past it.
        process, _ = hazard_process()
        grid, h = process.grid, process._cumhaz
        rng = np.random.default_rng(13)
        t = np.concatenate([grid, (grid[1:] + grid[:-1]) / 2, grid[-1:],
                            grid[-1] + np.array([1e-9, 0.5]), rng.uniform(grid[0], grid[-1], 300)])
        rows = rng.integers(0, len(h), len(t))
        right = np.searchsorted(grid, t, side="right")
        assert _interp_rows(grid, h, rows, t, right).tobytes() == \
            _interp_rows(grid, h, rows, t).tobytes()

    def test_hazard_at_a_node_is_its_table_entry(self):
        # The round reads the cumulative hazard at its horizon node off the
        # table; every node of every column, the last one included.
        process, _ = hazard_process()
        grid, h = process.grid, process._cumhaz
        d, n = h.shape
        rows, node = np.repeat(np.arange(d), n), np.tile(np.arange(n), d)
        assert h[rows, node].tobytes() == _interp_rows(grid, h, rows, grid[node]).tobytes()

    def test_relay_pass_without_flags_changes_no_bit(self, monkeypatch):
        process, _ = hazard_process()
        assert not process._flagged
        skipped = process.ensemble(500)
        assert skipped.jump_counts.sum() > 500
        monkeypatch.setattr(process, "_flagged", True)
        assert digests(process.ensemble(500)) == digests(skipped)


class TestSamplePathStructure:
    def test_zero_rates_no_events(self):
        for path in zero_process().ensemble(20):
            assert path.events == ()

    def test_reproducible_ensembles(self):
        a = zero_process(seed=123).ensemble(50)
        b = zero_process(seed=123).ensemble(50)
        assert a.states == b.states
        for name in ("initial", "offsets", "times", "dest"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_seed_changes_ensemble(self):
        a = [p.initial for p in zero_process(seed=1).ensemble(200)]
        b = [p.initial for p in zero_process(seed=2).ensemble(200)]
        assert a != b

    def test_event_times_strictly_increasing(self):
        states = [(0,), (1,)]
        for second in (0.5, 0.4):
            with pytest.raises(ValueError, match="increasing"):
                ensemble_of(states, ((0,), ((0.5, (1,)), (second, (0,)))))
        # Only events of one path are compared: the next path may start earlier.
        paths = ensemble_of(states, ((0,), ((0.5, (1,)), (0.8, (0,)))),
                            ((0,), ((0.2, (1,)),)))
        assert paths.jump_counts.tolist() == [2, 1]

    def test_state_at(self):
        paths = ensemble_of([(0,), (1,)], ((0,), ((0.3, (1,)), (0.7, (0,)))),
                            ((1,), ()), ((1,), ((0.05, (0,)),)))
        assert paths.states_at(0.1).tolist() == [0, 1, 0]
        assert paths.states_at(0.3).tolist() == [1, 1, 0]
        assert paths.states_at(0.9).tolist() == [0, 1, 0]
        assert paths[0].events == ((0.3, (1,)), (0.7, (0,)))
        assert paths[-1].initial == (1,) and paths[-1].jump_count == 1


def make_relay_process(currents=None):
    # State 1 has probability zero with balanced through-current
    # 0 -> 1 -> 2: any arrival must relay out instantly.  ``currents``
    # replaces the record handed to the process.
    grid = np.linspace(0.0, 1.0, 201)
    full = np.array([
        [0.0, -0.4, 0.0],
        [0.4, 0.0, -0.4],
        [0.0, 0.4, 0.0],
    ])
    p = np.array([0.7, 0.0, 0.3])
    record = stacked(np.broadcast_to(full, (len(grid), 3, 3)))
    rates = rate_matrix("bell", record, np.broadcast_to(p, (len(grid), 3)))
    return JumpProcess(RateTrajectory(grid, rates), p, [(0,), (1,), (2,)],
                       currents=record if currents is None else currents,
                       master_seed=31)


class TestPolePolicies:
    def test_relay_resamples_out_instantly(self):
        proc = make_relay_process()
        paths = proc.ensemble(400)
        visited = [ev for p in paths for ev in p.events]
        assert any(dest == (1,) for _, dest in visited)
        # Nobody dwells in the zero state: every visit relays out at once.
        for p in paths:
            for k, (t, dest) in enumerate(p.events):
                if dest == (1,):
                    t_next, dest_next = p.events[k + 1]
                    assert dest_next == (2,)        # along the positive current
                    assert t_next == np.nextafter(t, np.inf)

    def test_single_pole_node_counts(self):
        # Columns 0 and 2 are flagged at t=0.5 only.  States 0 and 1 trade at
        # rate 1, so a path in state 0 between t=0.4 and the pole is forced
        # to jump to 1; state 2 has no rates and crosses the pole.
        grid = np.linspace(0.0, 1.0, 11)
        m = np.zeros((11, 3, 3))
        m[:, 1, 0] = m[:, 0, 1] = 1.0
        m[:, 0, 0] = m[:, 1, 1] = -1.0
        pole = np.zeros(m.shape, dtype=bool)
        pole[5, 1, 0] = pole[5, 0, 2] = True
        proc = JumpProcess(RateTrajectory(grid, RateMatrix(m, pole)), [0.4, 0.4, 0.2],
                           [(0,), (1,), (2,)], stacked(np.zeros(m.shape)), master_seed=7)
        paths = proc.ensemble(400)
        forced = sum(1 for p in paths for (t, dest) in p.events
                     if dest == (1,) and 0.4 <= t < 0.5)
        assert paths.forced_jumps == forced > 0
        assert paths.pole_crossings == np.count_nonzero(paths.initial == 2)
        assert paths.relays == 0
        assert paths.jump_counts.max() < 10

    def test_currents_are_required(self):
        # Without currents a relay would have no destination to draw, and a
        # path would stay in a state whose exit rate diverges.
        grid = np.linspace(0.0, 1.0, 11)
        rates = RateMatrix(np.zeros((11, 2, 2)), np.zeros((11, 2, 2), dtype=bool))
        with pytest.raises(TypeError, match="currents"):
            JumpProcess(RateTrajectory(grid, rates), [0.5, 0.5], [(0,), (1,)])

    @pytest.mark.parametrize("currents, error, match", [
        (np.zeros((201, 3, 3)), TypeError, "CurrentMatrix, not ndarray"),
        (np.zeros(3), TypeError, "CurrentMatrix, not ndarray"),
        (CurrentMatrix(np.zeros((11, 3, 3))), ValueError, r"\(11, 3, 3\).*\(201, 3, 3\)"),
        (CurrentMatrix(np.zeros((201, 2, 2))), ValueError, r"\(201, 2, 2\).*\(201, 3, 3\)"),
    ], ids=["plain-stack", "1-d-array", "11-nodes", "2-states"])
    def test_current_record_is_checked(self, currents, error, match):
        # A plain array, or a record of another node count or state count,
        # is refused before any path draws from it.
        with pytest.raises(error, match=match):
            make_relay_process(currents)

    def test_relay_columns_are_the_full_current(self, monkeypatch):
        # A relay out of state s at node k draws the stored column
        # matrix[k, :, s] itself: the same bits, signs of zeros included.  Every state is put at every node and halfway
        # between; the draw is stubbed to relay nothing and keep its columns.
        rng = np.random.default_rng(14)
        upper = np.triu(rng.normal(size=(11, 4, 4)), 1)
        upper[rng.random(upper.shape) < 0.3] = 0.0
        upper[rng.random(upper.shape) < 0.3] *= -0.0          # -0.0 on and above the diagonal
        records = [run(relay_scenario((2, 2)), n_paths=1, report_only=True).currents,
                   CurrentMatrix(upper - np.swapaxes(upper, 1, 2))]
        for record in records:
            n, d, _ = record.matrix.shape
            grid = np.linspace(0.0, 1.0, n)
            pole = np.zeros((n, d, d), dtype=bool)
            pole[:, 0, 1:] = pole[:, 1, 0] = True               # every column flagged
            proc = JumpProcess(RateTrajectory(grid, RateMatrix(np.zeros(pole.shape), pole)),
                               np.full(d, 1.0 / d), [(k,) for k in range(d)], record)
            times = np.concatenate([grid, (grid[1:] + grid[:-1]) / 2])
            state = np.repeat(np.arange(d), len(times))
            batch = _Batch(_Streams(0, len(state)), state, 0.0)
            batch.t = np.tile(times, d)
            seen = []
            monkeypatch.setattr(sampler, "_draw", lambda columns, states, rows, rng:
                                seen.append((columns, states, rows)) or np.full(len(rows), -1))
            proc._maybe_relay(batch, np.arange(len(state)), arrival=True)
            (columns, states, rows), = seen
            assert len(rows) == len(state)
            want = record.matrix[_nearest_node(grid, batch.t[rows]), :, states]
            assert np.array_equal(columns, want)
            assert np.array_equal(np.signbit(columns), np.signbit(want))
        # The synthetic record, checked last, has zeros of both signs.
        zeros = want == 0.0
        assert np.signbit(want[zeros]).any() and not np.signbit(want[zeros]).all()

    def test_relay_cycle_is_named_error(self):
        # Every column flagged and a cyclic current 0 -> 1 -> 2 -> 0: relays
        # never reach a state with finite exit rate.
        grid = np.linspace(0.0, 1.0, 11)
        pole = np.zeros((len(grid), 3, 3), dtype=bool)
        pole[:, 1, 0] = pole[:, 2, 1] = pole[:, 0, 2] = True
        rates = RateMatrix(np.zeros(pole.shape), pole)
        full = np.array([
            [0.0, 0.0, 0.5],
            [0.5, 0.0, 0.0],
            [0.0, 0.5, 0.0],
        ])
        full = full - full.T
        proc = JumpProcess(RateTrajectory(grid, rates), np.array([1.0, 0.0, 0.0]),
                           [(0,), (1,), (2,)],
                           currents=stacked(np.broadcast_to(full, (len(grid), 3, 3))))
        with pytest.raises(ModalDynError,
                           match="^relay cycle among zero-probability states$"):
            proc.ensemble(1)

    def test_initial_relay_chain(self):
        # Columns 0 and 1 flagged throughout, current 0 -> 1 -> 2: a path
        # starting in 0 relays at t0 itself, then on one representable step.
        grid = np.linspace(0.0, 1.0, 11)
        pole = np.zeros((len(grid), 3, 3), dtype=bool)
        pole[:, 1, 0] = pole[:, 2, 1] = True
        full = np.array([[0.0, -0.4, 0.0], [0.4, 0.0, -0.4], [0.0, 0.4, 0.0]])
        proc = JumpProcess(RateTrajectory(grid, RateMatrix(np.zeros(pole.shape), pole)),
                           np.array([1.0, 0.0, 0.0]), [(0,), (1,), (2,)],
                           currents=stacked(np.broadcast_to(full, (len(grid), 3, 3))))
        assert proc.ensemble(1)[0].events == ((0.0, (1,)), (np.nextafter(0.0, 1.0), (2,)))


class TestDraw:
    def test_matches_searchsorted(self):
        # Each row against the scalar inverse-CDF draw, with every other
        # uniform set to hit a cumulative weight exactly.
        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self, rows):
                return self.u[rows]

        pick = np.random.default_rng(3)
        columns = np.round(pick.normal(size=(500, 5)), 1)
        columns[:50] = -1.0                                   # no positive weight
        states = pick.integers(0, 5, size=500)
        u = pick.random(500)
        cums = []
        for k in range(500):
            w = np.clip(columns[k], 0.0, None)
            w[states[k]] = 0.0
            cums.append(np.cumsum(w))
            if k % 2 and cums[k][-1] > 0.0:
                u[k] = (cums[k] / cums[k][-1])[pick.integers(0, 4)]
        dest = _draw(columns.copy(), states, np.arange(500), Fixed(u))
        for k, cum in enumerate(cums):
            expect = -1 if cum[-1] <= 0.0 else \
                np.searchsorted(cum / cum[-1], u[k], side="right")
            assert dest[k] == expect, k


def frequency_band(p, n, z=6.0):
    """The Bernstein-widened CLT band of ``bench/checks.py``: an n-sample
    frequency leaves it around p with probability at most 2 exp(-z^2/2)."""
    p = np.asarray(p, dtype=float)
    return (z * z / 3.0 + np.sqrt(z ** 4 / 9.0 + 4.0 * n * z * z * p * (1.0 - p))) / (2.0 * n)


class TestJumpLaw:
    """The sampler's jump law against the embedded jump chain of its rates:
    a state with exit rate q = -T_ii jumps by t with probability
    1 - exp(-q t), to j with probability T_ji / q."""

    @staticmethod
    def process(p0):
        grid = np.linspace(0.0, 1.0, 101)
        m = np.zeros((101, 4, 4))
        m[:, 1:, 0] = (0.5, 1.5, 3.0)
        m[:, 0, 0] = -5.0
        rates = RateTrajectory(grid, RateMatrix(m, np.zeros(m.shape, dtype=bool)))
        return JumpProcess(rates, p0, [(k,) for k in range(4)], stacked(np.zeros(m.shape)),
                           master_seed=0)

    def test_jump_share_and_destinations(self):
        n = 20_000
        paths = self.process(np.eye(4)[0]).ensemble(n)
        jumped = paths.jump_counts > 0
        share = jumped.mean()
        expect = 1.0 - np.exp(-5.0)
        assert abs(share - expect) <= frequency_band(expect, n)
        first = paths.dest[paths.offsets[:-1][jumped]]
        law = np.array([0.1, 0.3, 0.6])
        freq = np.bincount(first, minlength=4)[1:] / jumped.sum()
        assert np.all(np.abs(freq - law) <= frequency_band(law, jumped.sum()))

    def test_absorbing_state_never_jumps(self):
        paths = self.process(np.eye(4)[1]).ensemble(2000)
        assert np.all(paths.initial == 1) and len(paths.times) == 0


class TestEnsembleMarginals:
    def test_single_path_before_first_jump(self):
        paths = ensemble_of([(0,), (1,)], ((1,), ((0.6, (0,)),)))
        stats = ensemble_marginals(paths, [0.2])
        assert stats.frequencies[0].tolist() == [0.0, 1.0]

    def test_static_ensemble_keeps_initial_distribution(self):
        proc = zero_process(d=4, seed=5)
        paths = proc.ensemble(2000)
        stats = ensemble_marginals(paths, [0.0, 0.5, 1.0])
        for q in range(3):
            assert np.array_equal(stats.frequencies[q], stats.frequencies[0])
        assert np.abs(stats.frequencies[0] - 0.25).max() <= 0.04

    def test_factor_marginalization(self):
        states = [(0, 0), (0, 1), (1, 0), (1, 1)]
        paths = ensemble_of(states, *[(states[k % 4], ()) for k in range(8)])
        stats = ensemble_marginals(paths, [0.1], factor=1)
        assert stats.labels == (0, 1)
        assert np.allclose(stats.frequencies[0], [0.5, 0.5])

    @pytest.mark.parametrize("factor", [2, -1, True, 1.0, "0"])
    def test_factor_must_name_a_factor(self, factor):
        # A two-factor ensemble has factors 0 and 1 only: no wrap-around, and
        # no booleans, floats or strings that stand for an index.
        states = [(0, 0), (0, 1), (1, 0), (1, 1)]
        paths = ensemble_of(states, ((0, 1), ()))
        with pytest.raises(ValueError, match=r"integer in range\(2\)"):
            ensemble_marginals(paths, [0.1], factor=factor)
        assert ensemble_marginals(paths, [0.1], factor=np.int64(1)).labels == (0, 1)

    def test_counts_sum_to_paths(self):
        proc = zero_process(d=3)
        paths = proc.ensemble(77)
        stats = ensemble_marginals(paths, [0.3, 0.9])
        assert np.all(stats.counts.sum(axis=1) == 77)


class TestIsolatedZeroCrossing:
    def test_ensemble_drains_and_refills_through_touch_zero(self):
        # Window holds the touch-zero of the leading weight at t = pi/2:
        # the exit hazard diverges there, every occupant escapes before it,
        # and occupation builds up again on the far side, all Born-correct.
        from dataclasses import replace
        from modaldyn.pipeline import run
        from modaldyn.scenario import BUILTINS

        sc = BUILTINS["easyexample"](t1=2.0, n_paths=20_000)
        sc = replace(sc, ensemble=replace(sc.ensemble,
                                          query_times=(1.5, 1.6, 2.0)))
        result = run(sc, report_only=True)
        rep = result.report
        assert rep.max_total_variation <= 0.01
        events = [e for e in rep.singularities
                  if e["kind"] == "isolated-zero" and e["divergent"]]
        assert any(abs(e["time"] - np.pi / 2) < 5e-3 for e in events)
        # Kernels clip to the window before the divergence.
        assert rep.kernel_window is not None
        assert rep.kernel_window[1] < np.pi / 2
        # State (0,0) is nearly empty just past the zero and refills later.
        grid = result.family.grid
        for q, tq in enumerate(result.stats.times):
            node = int(np.argmin(np.abs(grid - tq)))
            born = result.family.probabilities[node, 0]
            assert abs(result.stats.frequencies[q, 0] - born) <= \
                3 * np.sqrt(max(born * (1 - born), 1e-7) / sc.ensemble.n_paths) + 1e-3


def test_total_variation():
    assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert abs(total_variation([1.0, 0.0], [0.0, 1.0]) - 1.0) < 1e-15


def test_low_probability_occupancy():
    grid = np.linspace(0.0, 1.0, 11)
    p_traj = np.column_stack([np.full(11, 0.0), np.full(11, 1.0)])
    states = [(0,), (1,)]
    paths = ensemble_of(states, ((1,), ((0.5, (0,)),)), ((1,), ()))
    frac = low_probability_occupancy(paths, grid, p_traj)
    assert abs(frac - 0.25) < 1e-12
    with pytest.raises(ValueError, match="one column per state"):
        low_probability_occupancy(paths, grid, p_traj[:, :1])


class TestPathEnsemble:
    """The columnar ensemble against smaller ensembles and per-path loops."""

    @pytest.fixture(scope="class")
    def relay(self):
        proc = make_relay_process()
        return proc, proc.ensemble(400)

    def test_prefix_matches_smaller_ensemble(self, relay):
        # Path k's stream index is its position, so the first 37 paths of
        # 400 are the 37-path ensemble, field for field.
        proc, paths = relay
        head = proc.ensemble(37)
        end = head.offsets[-1]
        assert end > 0
        assert head.states == paths.states
        assert np.array_equal(head.initial, paths.initial[:37])
        assert np.array_equal(head.offsets, paths.offsets[:38])
        assert np.array_equal(head.times, paths.times[:end])
        assert np.array_equal(head.dest, paths.dest[:end])
        assert list(head) == [paths[k] for k in range(37)]
        assert [p.seed for p in head] == list(range(37))

    @pytest.mark.parametrize("factor", [None, 0, 1])
    def test_marginals_match_per_path_loop(self, relay, factor):
        # Two-factor labels for the three states, so a factor marginal
        # merges states.
        states = [(0, 0), (0, 1), (1, 1)]
        paths = replace(relay[1], states=states)
        query = [0.0, 0.1, 0.37, 0.5, 1.0]
        labels = states if factor is None else sorted({s[factor] for s in states})
        expect = np.zeros((len(query), len(labels)), dtype=int)
        for path in paths:
            for q, t in enumerate(query):
                state = path.initial
                for et, dest in path.events:
                    if et <= t:
                        state = dest
                key = state if factor is None else state[factor]
                expect[q, labels.index(key)] += 1
        stats = ensemble_marginals(paths, query, factor=factor)
        assert stats.labels == tuple(labels)
        assert np.array_equal(stats.counts, expect)

    @staticmethod
    def occupancy_per_path(paths, grid, p):
        states = list(paths.states)
        cum = cumulative_trapezoid((p < 1e-6).astype(float), grid, axis=0, initial=0.0)
        t0, t1 = grid[0], grid[-1]
        total = 0.0
        for path in paths:
            marks = [t0] + [t for t, _ in path.events] + [t1]
            occupants = [path.initial] + [dest for _, dest in path.events]
            for a, b, s in zip(marks, marks[1:], occupants):
                if b > a:
                    col = cum[:, states.index(s)]
                    total += (np.interp(min(b, t1), grid, col)
                              - np.interp(max(a, t0), grid, col))
        return total / (len(paths) * (t1 - t0))

    def test_occupancy_matches_per_path_loop(self, relay):
        proc, paths = relay
        grid = proc.grid
        # Each state is below the threshold on a different stretch of the grid.
        p = np.column_stack([np.where(grid < 0.3, 0.0, 0.5),
                             np.where(grid > 0.6, 1e-9, 0.2),
                             np.full(len(grid), 1e-7)])
        expect = self.occupancy_per_path(paths, grid, p)
        assert 0.0 < expect < 1.0
        assert low_probability_occupancy(paths, grid, p) == expect

    def test_occupancy_skips_states_never_low(self, relay):
        # Only state 0 is ever low; states 1 and 2 are occupied and never are.
        proc, paths = relay
        grid = proc.grid
        p = np.column_stack([np.where(grid < 0.3, 0.0, 0.5), np.full(len(grid), 0.2),
                             np.full(len(grid), 0.3)])
        expect = self.occupancy_per_path(paths, grid, p)
        assert 0.0 < expect < 1.0
        assert low_probability_occupancy(paths, grid, p) == expect

    def test_occupancy_without_an_occupied_low_state_is_zero(self):
        # State 2 is always low and never occupied.
        grid = np.linspace(0.0, 1.0, 11)
        states = [(0,), (1,), (2,)]
        p = np.column_stack([np.full(11, 0.5), np.full(11, 0.5), np.zeros(11)])
        paths = ensemble_of(states, ((0,), ((0.4, (1,)), (0.45, (0,)))), ((1,), ()))
        assert self.occupancy_per_path(paths, grid, p) == 0.0
        assert low_probability_occupancy(paths, grid, p) == 0.0

    def test_list_columns_read_like_array_columns(self):
        states = ((0,), (1,))
        lists = PathEnsemble(states=states, initial=[0], offsets=[0, 1], times=[0.5], dest=[1])
        arrays = PathEnsemble(states=states, initial=np.array([0]), offsets=np.array([0, 1]),
                              times=np.array([0.5]), dest=np.array([1]))
        assert lists[0] == arrays[0] == SamplePath(seed=0, initial=(0,), events=((0.5, (1,)),))
        for t in (0.3, 0.5, 0.7):
            assert np.array_equal(lists.states_at(t), arrays.states_at(t))
        assert np.array_equal(lists.jump_counts, arrays.jump_counts)

    @pytest.mark.parametrize("column", [[], [1], np.array([1], dtype=np.int32),
                                        np.array([1], dtype=np.uint8)],
                             ids=["empty-list", "list", "int32", "uint8"])
    def test_index_columns_are_int64(self, column):
        # An empty event list is an integer column too, so the states it
        # gives index like any other.
        states = ((0,), (1,))
        times = [0.5] * len(column)
        paths = PathEnsemble(states=states, initial=[1 - len(column)],
                             offsets=[0, len(column)], times=times, dest=column)
        for name in ("initial", "offsets", "dest"):
            assert getattr(paths, name).dtype == np.int64, name
        assert paths.states_at(0.7).dtype == np.int64
        assert ensemble_marginals(paths, [0.7]).counts.tolist() == [[0, 1]]

    def test_occupancy_passes_change_no_bit(self, relay, monkeypatch):
        proc, paths = relay
        grid = proc.grid
        # State i is below the threshold before time (i + 1) / 4.
        p = np.where(grid[:, None] < np.array([0.25, 0.5, 0.75]), 0.0, 1.0 / 3)
        whole = low_probability_occupancy(paths, grid, p)
        assert len(paths.times) + len(paths) > 7 and 0.0 < whole < 1.0
        monkeypatch.setattr(sampler, "_ROWS", 7)      # many passes, a short last one
        assert low_probability_occupancy(paths, grid, p).tobytes() == whole.tobytes()


def test_run_paths_read_interface():
    # The read interface that code outside the package uses on run results:
    # length, truth value and iteration over per-path records.
    from modaldyn.pipeline import run
    from modaldyn.scenario import BUILTINS

    result = run(BUILTINS["easyexample"](t1=1.0, n_paths=300), report_only=True)
    paths = result.paths
    assert len(paths) == 300
    assert bool(paths)
    assert paths.jump_counts.sum() > 0
    assert sum(p.jump_count for p in paths) == paths.jump_counts.sum()


class TestStreams:
    """The batch streams against numpy's per-path generators, bit for bit."""

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**70])
    def test_draws_match_numpy_philox(self, master):
        # Master seeds from 2**32 take several entropy words; nine draws
        # cross two four-lane block boundaries.
        streams = _Streams(master, 2001)
        rows = np.arange(2001)
        draws = np.column_stack([streams.random(rows) for _ in range(9)])
        for k in rows:
            expect = np.random.Generator(np.random.Philox([master, int(k)])).random(9)
            assert np.array_equal(draws[k], expect), (master, k)

    @pytest.mark.parametrize("master", [0, 2**32, 2**70])
    def test_last_stream_indices_take_one_word(self, master):
        # The keys of the highest positions an ensemble can hold, built as
        # _Streams builds them: the master seed's words, then k as one word.
        top = np.arange(2**32 - 3, 2**32, dtype=np.uint32)
        entropy = [np.full(len(top), w, dtype=np.uint32) for w in _words(master)]
        keys = _seed_keys(entropy + [top])
        for k, key in zip(top.tolist(), keys):
            expect = np.random.Philox([master, k]).state["state"]["key"]
            assert key.tolist() == expect.tolist(), (master, k)

    def test_paths_drawn_unevenly(self):
        # Paths at different positions in their blocks in one call.
        streams = _Streams(7, 40)
        got = [[] for _ in range(40)]
        pick = np.random.default_rng(0)
        for _ in range(40):
            rows = np.flatnonzero(pick.random(40) < 0.5)
            for r, u in zip(rows, streams.random(rows)):
                got[r].append(u)
        for k in range(40):
            expect = np.random.Generator(np.random.Philox([7, k])).random(len(got[k]))
            assert np.array_equal(got[k], expect)

    def test_too_many_paths_rejected_before_allocating(self):
        # One path more than there are 32-bit stream indices would reuse a
        # stream; the count is refused before any per-path array exists.
        proc = zero_process()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2\\*\\*32"):
                proc.ensemble(2**32 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            zero_process(seed=-1).ensemble(3)


def generic_2222(n_paths):
    rng = np.random.default_rng(2222)
    return Scenario(name="generic-2x2x2x2", factor_dims=(2, 2, 2, 2),
                    hamiltonian=random_hermitian(rng, 16), initial_state=random_ket(rng, 16),
                    time=TimeSpec(0.0, 0.5, 1e-3),
                    ensemble=EnsembleSpec(n_paths, 9, (0.25, 0.5))).validate()


DATA = Path(__file__).parent / "data"


def digests(paths):
    ints = {name: getattr(paths, name).astype("<i8") for name in ("initial", "offsets", "dest")}
    return {**{name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in ints.items()},
            "times": hashlib.sha256(paths.times.astype("<f8").tobytes()).hexdigest()}


# SHA-256 of each ensemble array (integers as little-endian int64, times as
# float64), recorded from the path-by-path sampler at commit f2be0bf, which
# built one Generator(Philox([master_seed, i])) per path.  The lockstep
# sampler must reproduce its ensembles byte for byte.  The generic draw's
# "times" digest was re-recorded once batched spectral tracking moved its
# event times by at most 2.2e-15; its other digests are the originals.  The
# eight-state measured-possessed-property ensemble, whose grid runs over seven
# node blocks, and its report (``to_dict()`` as sorted-key JSON) were
# recorded from the lockstep sampler at commit 31d0a4e.  The two relaying
# random systems were recorded at commit 2aee407, while relays still drew
# from a full copy of the currents and destinations from
# ``RateTrajectory.matrix_batch``.  The generic draw's "offsets", "dest" and "times"
# and measured-possessed-property's "times" and report were re-recorded when
# the generalized current took exact factor connections in place of the
# 3-point stencil rotation (its largest change 2.35e-6 on
# measured-possessed-property); their "initial" digests are unchanged.
# measured-possessed-property's report was re-recorded once more when it
# gained the sampler's counters and its master residual was measured against
# the current's divergence; every path digest kept its bits.  The two
# relaying systems' "times" were re-recorded when the minimal-flow current
# took the exact Born derivative in place of the 3-point stencil (its largest
# change 9.4e-7 on relay-2x2 and 1.1e-5 on relay-4x2, event times by at most
# 3.6e-7 and 8.6e-6); their other digests are unchanged.
GOLDEN = {
    "easyexample-5000": {
        "initial": "e7e2dcff542de95352682dc186432e98f0188084896773f1973276b0577d5305",
        "offsets": "6d640e2d2df829a9b5e3e7ceded7bb9667925c52c6a4cceacf95f5204799a5b8",
        "dest": "9c59f55a834626c883fbfc2d78b947350ea6bb8c249e0b424a41ed660237a870",
        "times": "8a6c0599fd656063a47929a61667fd136b12955d9eeb59d3dee31a5362b1801a",
    },
    "relay-400": {
        "initial": "abf5adca65ccc652888d91f8dc4cf7b74468a2bab64af9fc93e059bb0d6c225a",
        "offsets": "00966a65010eb7e9bb84f1c6cb07b848a1ff9c5b4644ac643a727b5829aedc21",
        "dest": "ef8d164f2f18c7777256f33ca04d7d7cc2c73fe937843b9f3daff31d4e136a7c",
        "times": "a361ef125b57209735566addd4d1032e7ff1fbcd76e34781e3448f4293c66025",
    },
    "generic-2x2x2x2-200": {
        "initial": "d2c569b6e49feb80d0b8ccbc2362cf98811be31b72c1e6e6f03169ab93caf361",
        "offsets": "7098d2e0b60d9b925a3ac8ce6bd74d4b006276af9c3927eefd946a6092990151",
        "dest": "9cead4caae30740115f196efadda97cf456bda64ce163cb6d3b3fefb0f2478b2",
        "times": "4bae6ecb7f9e3df9e49783f4d48e3ba99d3225525bb5804d8f3b7cbbc4a25cf8",
    },
    "measured-possessed-property-2000": {
        "initial": "a6b7114625b09ae23b2f054abf8f6cfe125a44ee57648d196a14cbcd8856f6b9",
        "offsets": "b0e1391b69666300fdf363308b4db81b25cbeb19a83256cd38602a715593a1a8",
        "dest": "719969502a8eec651132aeef1184b700351800cdc7a2d7c500cdba773ede6d01",
        "times": "c48addc6354dfa01066ce1f74060ec1f4fdc2da53828620ff232d18de11022e2",
        "report": "98c2116baa99b95d08d8e6267da4cf0f6d68cb018376e9718cbdb4635adee102",
    },
    "relay-2x2-2000": {
        "initial": "9c84f5a95028483222d14d71b2faa62c595925407ff1089a10cfc4cd73003239",
        "offsets": "2f08326be798ffa8919f2f4a7c2e602db5134fbae0853b8594693af9f45bcc20",
        "dest": "c8d0e4890a6d2801ab9fe00dd7fff4e2cb102484d37882dccaf2e453dcf6db3f",
        "times": "957ac1d137785a862a5566527c6b0c6572ea2053af642fa84c888012c7a7b0e0",
    },
    "relay-4x2-2000": {
        "initial": "e790138664968f292e58bf94093845f0ecc8308d6f1c84d3fdd9e4cc2657ee23",
        "offsets": "6fe6e4a8d5efc435c043175ca52b7f5f005f9392453ab39691895ade4ded7251",
        "dest": "4f7b883b8f2f391d5236bb47dee20f3115755bd86577998fbaed4b0ff7c5f17f",
        "times": "9811a622f2333c51b20ab887c87627c9ded87f27242baa59bb6aee2e3c77efe6",
    },
}


class TestGoldenEnsembles:
    """Lockstep ensembles and errors against the path-by-path sampler."""

    def test_easyexample(self):
        paths = run(BUILTINS["easyexample"](n_paths=5000), report_only=True).paths
        assert digests(paths) == GOLDEN["easyexample-5000"]

    def test_relays(self):
        paths = make_relay_process().ensemble(400)
        assert digests(paths) == GOLDEN["relay-400"]

    @pytest.mark.parametrize("dims, relays", [((2, 2), 48), ((4, 2), 101)], ids=["2x2", "4x2"])
    def test_pipeline_relays(self, dims, relays):
        # Currents and rates built by the pipeline, flagged at all 201 nodes;
        # a relay follows the event before it by one representable step.
        result = run(relay_scenario(dims), report_only=True)
        paths = result.paths
        owner = np.repeat(np.arange(len(paths)), paths.jump_counts)
        step = paths.times[1:] == np.nextafter(paths.times[:-1], np.inf)
        assert result.report.pole_nodes == 201
        assert result.report.relays == (step & (owner[1:] == owner[:-1])).sum() == relays
        assert result.report.forced_jumps == result.report.pole_crossings == 0
        assert digests(paths) == GOLDEN["relay-{}x{}-2000".format(*dims)]

    def test_relay_file_is_the_recipe(self):
        loaded = scenario_to_dict(load_scenario(str(DATA / "relay-2x2.json")))
        assert json.dumps(loaded) == json.dumps(scenario_to_dict(relay_scenario((2, 2))))

    def test_mixed_file_is_the_recipe(self):
        loaded = scenario_to_dict(load_scenario(str(DATA / "mixed-2x4.json")))
        assert json.dumps(loaded) == json.dumps(scenario_to_dict(mixed_scenario()))

    def test_generic_2222(self):
        paths = run(generic_2222(200), report_only=True).paths
        assert digests(paths) == GOLDEN["generic-2x2x2x2-200"]

    def test_measured_possessed_property(self):
        result = run(BUILTINS["measured-possessed-property"](n_paths=2000), report_only=True)
        assert len(result.paths.states) == 8
        report = json.dumps(result.report.to_dict(), sort_keys=True).encode()
        assert {**digests(result.paths), "report": hashlib.sha256(report).hexdigest()} == \
            GOLDEN["measured-possessed-property-2000"]

    @staticmethod
    def ping_pong():
        # Both columns flagged at t=0.5 with rate 1 between the states: a
        # resampled path is forced back and forth one step before the pole.
        grid = np.linspace(0.0, 1.0, 11)
        m = np.zeros((11, 2, 2))
        m[:, 1, 0] = m[:, 0, 1] = 1.0
        m[:, 0, 0] = m[:, 1, 1] = -1.0
        pole = np.zeros(m.shape, dtype=bool)
        pole[5, 1, 0] = pole[5, 0, 1] = True
        return JumpProcess(RateTrajectory(grid, RateMatrix(m, pole)), [0.5, 0.5],
                           [(0,), (1,)], stacked(np.zeros(m.shape)), master_seed=3)

    def test_runaway_message(self):
        with pytest.raises(ModalDynError) as err:
            self.ping_pong().ensemble(5)
        assert type(err.value) is ModalDynError
        assert str(err.value) == "runaway path: too many events"

    @staticmethod
    def two_failures():
        # States 0 and 1 ping-pong before a pole until the path runs away,
        # states 2 -> 3 -> 4 -> 2 relay in a cycle and state 5 is inert.
        grid = np.linspace(0.0, 1.0, 11)
        m = np.zeros((11, 6, 6))
        m[:, 1, 0] = m[:, 0, 1] = 1.0
        m[:, 0, 0] = m[:, 1, 1] = -1.0
        pole = np.zeros(m.shape, dtype=bool)
        pole[5, 1, 0] = pole[5, 0, 1] = True
        pole[:, 3, 2] = pole[:, 4, 3] = pole[:, 2, 4] = True
        cycle = np.zeros((6, 6))
        cycle[3, 2] = cycle[4, 3] = cycle[2, 4] = 0.5
        return JumpProcess(RateTrajectory(grid, RateMatrix(m, pole)),
                           [0.25, 0.25, 0.2, 0.0, 0.0, 0.3], [(k,) for k in range(6)],
                           stacked(np.broadcast_to(cycle - cycle.T, m.shape)), master_seed=5)

    def test_first_failing_path_raises(self):
        # Path 0 starts in 5, path 1 in 1 and path 2 in 2: path 2's relay
        # cycle fails at the start, path 1 runs away thousands of rounds
        # later, and the ensemble raises path 1's error.
        proc = self.two_failures()
        initial = np.searchsorted(proc._p0_cum, _Streams(5, 3).random(np.arange(3)),
                                  side="right")
        assert initial.tolist() == [5, 1, 2]
        assert proc.ensemble(1)[0].events == ()
        for n in (2, 3):
            with pytest.raises(ModalDynError, match="^runaway path: too many events$"):
                proc.ensemble(n)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_fail_keeps_lowest_position(self, order):
        # Paths fail in rounds, so a later position can fail first in time;
        # whatever the order of the calls, the lowest failing position's
        # error is kept and every path from it on stops.
        calls = [np.array([9, 7]), np.array([4]), np.array([12, 5])]
        batch = _Batch(_Streams(0, 16), np.zeros(16, dtype=int), 0.0)
        for c in order:
            rows = calls[c]
            batch.fail(rows, lambda i, rows=rows: ModalDynError(f"path {rows[i]}"))
        position, error = batch.error
        assert position == 4 and str(error) == "path 4"
        assert batch.live.tolist() == [True] * 4 + [False] * 12


def pipeline_process(scenario):
    """The JumpProcess that ``run`` builds for ``scenario``, and its ensemble."""
    made = []

    class Kept(JumpProcess):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "JumpProcess", Kept)
        paths = run(scenario, report_only=True).paths
    return made[0], paths


class TestChunkedRounds:
    """Every round, the initial draw and the seed keys run over slices of
    ``_ROWS`` paths; any slice size gives the default slices' ensemble, bit
    for bit, because a path's draws depend on (master seed, position, draw
    index) alone, its events are logged in order and the lowest failing
    position's error is kept."""

    FIELDS = ("initial", "offsets", "times", "dest", "forced_jumps", "pole_crossings", "relays")

    @pytest.fixture(scope="class", params=["relay-400", "relay-4x2-2000", "easyexample-5000"])
    def system(self, request):
        if request.param == "relay-400":
            proc = make_relay_process()
            return proc, proc.ensemble(400)
        if request.param == "relay-4x2-2000":
            proc, paths = pipeline_process(relay_scenario((4, 2)))
            assert paths.relays == 101
            return proc, paths
        return pipeline_process(BUILTINS["easyexample"](n_paths=5000))

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_slices_change_no_bit(self, system, rows, monkeypatch):
        proc, whole = system
        assert len(whole.times) > 100
        monkeypatch.setattr(sampler, "_ROWS", rows)
        sliced = proc.ensemble(len(whole))
        for name in self.FIELDS:
            want, got = getattr(whole, name), getattr(sliced, name)
            assert type(got) is type(want) and np.asarray(got).tobytes() == \
                np.asarray(want).tobytes(), name

    def test_first_failing_path_raises_across_slices(self, monkeypatch):
        # One path per slice: path 2's relay cycle fails in round 0, and
        # path 1 runs away thousands of rounds later; path 1's error wins.
        monkeypatch.setattr(sampler, "_ROWS", 1)
        proc = TestGoldenEnsembles.two_failures()
        assert proc.ensemble(1)[0].events == ()
        with pytest.raises(ModalDynError, match="^runaway path: too many events$"):
            proc.ensemble(3)


class TestDecidedRounds:
    """Work whose outcome the hazard table already decides is skipped: paths
    in an absorbing column (no rate at any node, no flag) end on arrival,
    and a draw past all the hazard left in its column skips the inversion.
    The skipped work had one outcome, so the ensembles keep every bit."""

    def test_singlet_runs_no_round(self, monkeypatch):
        # Every singlet column is absorbing: round 0 ends every path.
        proc, _ = pipeline_process(BUILTINS["singlet"](n_paths=10))
        rounds, sample = [], proc._sample
        monkeypatch.setattr(proc, "_sample",
                            lambda batch, rows: rounds.append(len(rows)) or sample(batch, rows))
        paths = proc.ensemble(20000)
        assert len(paths.times) == 0
        assert rounds == []

    def test_albert_free_searches_no_hazard(self, monkeypatch):
        # albert-free's hazards are rounding-sized: every draw exceeds them.
        proc, _ = pipeline_process(BUILTINS["albert-free"](n_paths=10))
        searched, interp = [], sampler._interp_rows

        def spy(grid, table, rows, t, right=None):
            if table is proc._cumhaz:
                searched.append(len(rows))
            return interp(grid, table, rows, t, right)

        monkeypatch.setattr(sampler, "_interp_rows", spy)
        paths = proc.ensemble(20000)
        assert len(paths.times) == 0
        assert searched and sum(searched) == 0

    @staticmethod
    def flagged_zero_column(out_of_3=0.0):
        # States 0 and 1 trade at rate 1 and column 0 is flagged at t=0.5;
        # column 2 has no rate at any node but is flagged there too, and
        # column 3 has neither, unless a rate ``out_of_3`` to state 2 sits
        # beside its zero diagonal.
        grid = np.linspace(0.0, 1.0, 11)
        m = np.zeros((11, 4, 4))
        m[:, 1, 0] = m[:, 0, 1] = 1.0
        m[:, 0, 0] = m[:, 1, 1] = -1.0
        m[:, 2, 3] = out_of_3
        pole = np.zeros(m.shape, dtype=bool)
        pole[5, 1, 0] = pole[5, 0, 2] = True
        return JumpProcess(RateTrajectory(grid, RateMatrix(m, pole)), [0.3, 0.3, 0.2, 0.2],
                           [(k,) for k in range(4)], stacked(np.zeros(m.shape)), master_seed=11)

    def test_flagged_zero_column_still_crosses(self):
        # A path in column 2 reaches the node before the pole with no rate
        # out and crosses it; column 0's paths are forced there.  Skipping
        # decided rounds must not move the counts.
        paths = self.flagged_zero_column().ensemble(400)
        forced = sum(1 for p in paths for (t, dest) in p.events
                     if dest == (1,) and 0.4 <= t < 0.5)
        assert (paths.forced_jumps, paths.pole_crossings) == (152, 87)
        assert paths.forced_jumps == forced > 0
        assert paths.pole_crossings == np.count_nonzero(paths.initial == 2) > 0
        assert paths.jump_counts[paths.initial == 3].max(initial=0) == 0

    def test_absorbing_mask(self):
        # A flag keeps column 2 out; a rate out of column 3 beside a zero
        # diagonal keeps it out too, as a zero draw would follow that rate.
        assert self.flagged_zero_column()._absorbing.tolist() == [False, False, False, True]
        assert not self.flagged_zero_column(0.5)._absorbing.any()

    def test_runaway_check_sees_absorbing_arrivals(self):
        # easyexample's jumpers land in its absorbing column; with no event
        # allowed, each such arrival is a runaway before its path ends.
        proc, _ = pipeline_process(BUILTINS["easyexample"](n_paths=10))
        proc._max_events = 0
        with pytest.raises(ModalDynError, match="^runaway path: too many events$"):
            proc.ensemble(2000)


class TestSamplerMemory:
    """Peak allocation of ``ensemble(20000)`` on easyexample (D = 4), bounded
    from the sampler's design.  While the rounds run, each path holds 97
    bytes: its stream (Philox key 16, draw counter 8, block 32), its batch
    entries (initial and current state, time and event count at 8 each,
    live flag 1) and its entry in the round's live positions (8); each event
    logged so far holds 24 (position, time, state).  One slice of at most
    ``_ROWS`` paths is in flight, and its temporaries take at most 48
    values of 8 bytes per row: the round's dozen per-row vectors, the
    Philox state of a fresh block (about 20) and the destination draw's
    four (rows, D) tables.  Once the rounds end, assembling the columns
    holds 122 bytes per path (the 89 of stream and batch, the offsets and
    their cumulative sum 16, and the column checks' jump counts, path
    indices and mask 17) and 84 per event (the log 24, owners and sort
    order 16, sorted times and states 16, one unsorted concatenation 8, and
    the order check's owners, differences and masks 20).  The bound is the
    larger of the two phases; the bounds follow from that design, not from
    a measurement."""

    def test_rounds_hold_one_slice_beside_the_paths(self):
        proc, _ = pipeline_process(BUILTINS["easyexample"](n_paths=100))
        n = 20000
        paths, peak = traced_peak(proc.ensemble, n)
        e = len(paths.times)
        rounds = 97 * n + 24 * e + 48 * 8 * sampler._ROWS
        assembly = 122 * n + 84 * e
        assert peak <= max(rounds, assembly), (peak, rounds, assembly)
