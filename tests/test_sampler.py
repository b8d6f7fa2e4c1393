import numpy as np
import pytest

from modaldyn.currents import CurrentMatrix
from modaldyn.errors import PoleEncountered
from modaldyn.kinetics import RateMatrix, RateTrajectory, bell_rates
from modaldyn.sampler import (JumpProcess, SamplePath, ensemble_marginals,
                              low_probability_occupancy, sample_initial,
                              total_variation)


def rate_trajectory_from(grid, full_of_t, p_of_t):
    rms = []
    for t in grid:
        cm = CurrentMatrix(upper=np.triu(full_of_t(t), 1))
        rms.append(bell_rates(cm, p_of_t(t)))
    return RateTrajectory(grid, rms)


def zero_process(d=2, t1=1.0, seed=7, n_nodes=101):
    grid = np.linspace(0.0, t1, n_nodes)
    rt = rate_trajectory_from(grid, lambda t: np.zeros((d, d)),
                              lambda t: np.full(d, 1.0 / d))
    states = [(k,) for k in range(d)]
    return JumpProcess(rt, np.full(d, 1.0 / d), states, master_seed=seed)


class TestSampleInitial:
    def test_point_mass(self, rng):
        p0 = np.array([1.0, 0.0, 0.0])
        assert all(sample_initial(p0, rng) == 0 for _ in range(50))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(4242)
        p0 = np.full(4, 0.25)
        n = 100_000
        counts = np.bincount([sample_initial(p0, rng) for _ in range(n)], minlength=4)
        assert np.abs(counts / n - 0.25).max() <= 0.006

    def test_zero_probability_states_never_drawn(self):
        rng = np.random.default_rng(11)
        p0 = np.array([0.0, 0.5, 0.5, 0.0])
        draws = {sample_initial(p0, rng) for _ in range(2000)}
        assert draws == {1, 2}

    def test_invalid_distribution(self, rng):
        with pytest.raises(ValueError):
            sample_initial(np.array([0.5, 0.4]), rng)


def first_jump_times(rate_of_t, t1, step, n, seed):
    """First-event times of ``n`` paths of a chain leaving state 0 at rate_of_t.

    The chain has no way back, so the first event is the only one; paths
    that do not jump by ``t1`` report ``t1``.
    """
    grid = np.arange(0.0, t1 + step / 2, step)
    rms = [RateMatrix(np.array([[-r, 0.0], [r, 0.0]]), np.zeros((2, 2), dtype=bool))
           for r in rate_of_t(grid)]
    proc = JumpProcess(RateTrajectory(grid, rms), np.array([1.0, 0.0]),
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
        assert a == b

    def test_seed_changes_ensemble(self):
        a = [p.initial for p in zero_process(seed=1).ensemble(200)]
        b = [p.initial for p in zero_process(seed=2).ensemble(200)]
        assert a != b

    def test_event_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            SamplePath(seed=0, initial=(0,), events=((0.5, (1,)), (0.5, (0,))))

    def test_state_at(self):
        path = SamplePath(seed=0, initial=(0,), events=((0.3, (1,)), (0.7, (0,))))
        assert path.state_at(0.1) == (0,)
        assert path.state_at(0.3) == (1,)
        assert path.state_at(0.9) == (0,)


class TestPolePolicies:
    def make_relay_process(self, policy):
        # State 1 has probability zero with balanced through-current
        # 0 -> 1 -> 2: any arrival must relay out instantly.
        grid = np.linspace(0.0, 1.0, 201)
        full = np.array([
            [0.0, -0.4, 0.0],
            [0.4, 0.0, -0.4],
            [0.0, 0.4, 0.0],
        ])
        p = np.array([0.7, 0.0, 0.3])
        rms = [bell_rates(CurrentMatrix(upper=np.triu(full, 1)), p) for _ in grid]
        rt = RateTrajectory(grid, rms)
        currents = np.stack([full for _ in grid])
        return JumpProcess(rt, p, [(0,), (1,), (2,)], currents=currents,
                           pole_policy=policy, master_seed=31)

    def test_relay_resamples_out_instantly(self):
        proc = self.make_relay_process("resample")
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
        proc = self.make_relay_process("abort")
        with pytest.raises(PoleEncountered):
            proc.ensemble(400)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            self.make_relay_process("bogus")


class TestEnsembleMarginals:
    def test_single_path_before_first_jump(self):
        path = SamplePath(seed=0, initial=(1,), events=((0.6, (0,)),))
        stats = ensemble_marginals([path], [0.2], [(0,), (1,)])
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
        paths = [SamplePath(seed=k, initial=states[k % 4]) for k in range(8)]
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
    inside = SamplePath(seed=0, initial=(1,), events=((0.5, (0,)),))
    clean = SamplePath(seed=1, initial=(1,))
    frac = low_probability_occupancy([inside, clean], grid, p_traj, states)
    assert abs(frac - 0.25) < 1e-12
