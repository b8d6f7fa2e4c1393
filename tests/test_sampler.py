from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from modaldyn.currents import CurrentMatrix
from modaldyn.errors import ModalDynError, PoleEncountered
from modaldyn.kinetics import RateMatrix, RateTrajectory, bell_rates
from modaldyn.sampler import (JumpProcess, PathEnsemble, ensemble_marginals,
                              low_probability_occupancy, total_variation)


def rate_trajectory_from(grid, full_of_t, p_of_t):
    full = np.stack([full_of_t(t) for t in grid])
    p = np.stack([p_of_t(t) for t in grid])
    return RateTrajectory(grid, bell_rates(CurrentMatrix(upper=np.triu(full, 1)), p))


def zero_process(d=2, t1=1.0, seed=7, n_nodes=101, p0=None):
    grid = np.linspace(0.0, t1, n_nodes)
    rt = rate_trajectory_from(grid, lambda t: np.zeros((d, d)),
                              lambda t: np.full(d, 1.0 / d))
    states = [(k,) for k in range(d)]
    p0 = np.full(d, 1.0 / d) if p0 is None else np.asarray(p0)
    return JumpProcess(rt, p0, states, master_seed=seed)


def ensemble_of(states, *paths):
    """A PathEnsemble of paths given as (initial label, ((time, label), ...))."""
    flat = {s: k for k, s in enumerate(states)}
    events = [ev for _, evs in paths for ev in evs]
    return PathEnsemble(states=states, seeds=np.arange(len(paths)),
                        initial=np.array([flat[s] for s, _ in paths]),
                        offsets=np.cumsum([0] + [len(evs) for _, evs in paths]),
                        times=np.array([t for t, _ in events], dtype=float),
                        dest=np.array([flat[s] for _, s in events], dtype=int))


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
                       [(0,), (1,)], master_seed=seed)
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


class TestSamplePathStructure:
    def test_zero_rates_no_events(self):
        proc = zero_process()
        for k in range(20):
            assert proc.path(k).events == ()

    def test_reproducible_ensembles(self):
        a = zero_process(seed=123).ensemble(50)
        b = zero_process(seed=123).ensemble(50)
        assert a.states == b.states
        for name in ("seeds", "initial", "offsets", "times", "dest"):
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


def make_relay_process(policy):
    # State 1 has probability zero with balanced through-current
    # 0 -> 1 -> 2: any arrival must relay out instantly.
    grid = np.linspace(0.0, 1.0, 201)
    full = np.array([
        [0.0, -0.4, 0.0],
        [0.4, 0.0, -0.4],
        [0.0, 0.4, 0.0],
    ])
    p = np.array([0.7, 0.0, 0.3])
    currents = np.broadcast_to(full, (len(grid), 3, 3))
    rates = bell_rates(CurrentMatrix(upper=np.triu(currents, 1)),
                       np.broadcast_to(p, (len(grid), 3)))
    return JumpProcess(RateTrajectory(grid, rates), p, [(0,), (1,), (2,)],
                       currents=currents, pole_policy=policy, master_seed=31)


class TestPolePolicies:
    def test_relay_resamples_out_instantly(self):
        proc = make_relay_process("resample")
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

    def test_abort_policy_raises(self):
        proc = make_relay_process("abort")
        with pytest.raises(PoleEncountered):
            proc.ensemble(400)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            make_relay_process("bogus")

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
                           currents=np.broadcast_to(full, (len(grid), 3, 3)))
        with pytest.raises(ModalDynError, match="relay cycle"):
            proc.path(0)


class TestEnsembleMarginals:
    def test_single_path_before_first_jump(self):
        paths = ensemble_of([(0,), (1,)], ((1,), ((0.6, (0,)),)))
        stats = ensemble_marginals(paths, [0.2], [(0,), (1,)])
        assert stats.frequencies[0].tolist() == [0.0, 1.0]

    def test_static_ensemble_keeps_initial_distribution(self):
        proc = zero_process(d=4, seed=5)
        paths = proc.ensemble(2000)
        stats = ensemble_marginals(paths, [0.0, 0.5, 1.0],
                                   [(k,) for k in range(4)])
        for q in range(3):
            assert np.array_equal(stats.frequencies[q], stats.frequencies[0])
        assert np.abs(stats.frequencies[0] - 0.25).max() <= 0.04

    def test_factor_marginalization(self):
        states = [(0, 0), (0, 1), (1, 0), (1, 1)]
        paths = ensemble_of(states, *[(states[k % 4], ()) for k in range(8)])
        stats = ensemble_marginals(paths, [0.1], states, factor=1)
        assert stats.labels == (0, 1)
        assert np.allclose(stats.frequencies[0], [0.5, 0.5])

    def test_counts_sum_to_paths(self):
        proc = zero_process(d=3)
        paths = proc.ensemble(77)
        stats = ensemble_marginals(paths, [0.3, 0.9], [(k,) for k in range(3)])
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
    frac = low_probability_occupancy(paths, grid, p_traj, states)
    assert abs(frac - 0.25) < 1e-12


class TestPathEnsemble:
    """The columnar ensemble against per-path calls and per-path loops."""

    @pytest.fixture(scope="class")
    def relay(self):
        proc = make_relay_process("resample")
        return proc, proc.ensemble(400)

    def test_paths_match_single_path_calls(self, relay):
        proc, paths = relay
        assert paths.jump_counts.sum() > 0
        for k in range(len(paths)):
            assert paths[k] == proc.path(k)

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
        stats = ensemble_marginals(paths, query, states, factor=factor)
        assert stats.labels == tuple(labels)
        assert np.array_equal(stats.counts, expect)

    def test_occupancy_matches_per_path_loop(self, relay):
        proc, paths = relay
        grid = proc.grid
        # Each state is below the threshold on a different stretch of the grid.
        p = np.column_stack([np.where(grid < 0.3, 0.0, 0.5),
                             np.where(grid > 0.6, 1e-9, 0.2),
                             np.full(len(grid), 1e-7)])
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
        expect = total / (len(paths) * (t1 - t0))
        assert 0.0 < expect < 1.0
        assert low_probability_occupancy(paths, grid, p, states) == expect


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
