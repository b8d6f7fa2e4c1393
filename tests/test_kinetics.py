from dataclasses import replace

import numpy as np
import pytest

from modaldyn.currents import CurrentMatrix
from modaldyn.kinetics import (RateMatrix, RateTrajectory, bell_rates,
                               classify_singularities, general_rates,
                               jump_decomposition, master_residual, pole_free_rows)
from modaldyn.pipeline import _kernel_windows, run
from modaldyn.scenario import BUILTINS


def current_from_full(full):
    return CurrentMatrix(upper=np.triu(full, 1))


def crossing_current(theta, t):
    """Two-state current j_21 = theta sin(2 theta t) with p = (cos^2, sin^2)."""
    x = theta * np.sin(2 * theta * t)
    full = np.array([[0.0, -x], [x, 0.0]])
    p = np.array([np.cos(theta * t) ** 2, np.sin(theta * t) ** 2])
    return current_from_full(full), p


class TestBellRates:
    def test_crossing_family_values(self):
        theta, t = 1.0, 0.4
        cm, p = crossing_current(theta, t)
        rates = bell_rates(cm, p)
        expected = theta * np.sin(2 * theta * t) / np.cos(theta * t) ** 2
        assert abs(rates.matrix[1, 0] - expected) < 1e-12
        assert rates.matrix[0, 1] == 0.0
        assert not rates.has_poles

    def test_zero_current(self):
        cm = current_from_full(np.zeros((3, 3)))
        rates = bell_rates(cm, np.array([0.2, 0.3, 0.5]))
        assert np.all(rates.matrix == 0)

    def test_zero_probability_zero_current_is_regular(self):
        cm = current_from_full(np.zeros((2, 2)))
        rates = bell_rates(cm, np.array([1.0, 0.0]))
        assert not rates.has_poles
        assert np.all(rates.matrix == 0)

    def test_zero_probability_nonzero_current_is_pole(self):
        # Positive flow out of the zero-probability state 1 cannot be finite.
        full = np.array([[0.0, 0.3], [-0.3, 0.0]])
        rates = bell_rates(current_from_full(full), np.array([1.0, 0.0]))
        assert rates.pole_mask[0, 1]
        assert rates.matrix[0, 1] == 0.0

    def test_negative_current_at_zero_probability_is_zero(self):
        # max{0, j/p} -> 0 as p -> 0+ when j < 0: continuous, not a pole.
        full = np.array([[0.0, -0.3], [0.3, 0.0]])
        rates = bell_rates(current_from_full(full), np.array([1.0, 0.0]))
        assert not rates.has_poles
        assert rates.matrix[0, 1] == 0.0
        # Flow into the zero-probability state is a plain finite rate.
        assert abs(rates.matrix[1, 0] - 0.3) < 1e-14

    def test_note9_variant_agrees(self):
        # "bell_note9" is a scenario-level alias of "bell".
        sc = BUILTINS["easyexample"](t1=0.3)
        a = run(sc, n_paths=1)
        b = run(replace(sc, rate_choice="bell_note9"), n_paths=1)
        assert b.report.rate_choice == "bell_note9"
        assert np.array_equal(a.rate_trajectory.matrices, b.rate_trajectory.matrices)
        assert np.array_equal(a.rate_trajectory.pole_mask, b.rate_trajectory.pole_mask)

    def test_node_axis_matches_single_nodes(self, rng):
        # Stacked records give node k's single-node results at index k.
        full = np.triu(rng.normal(size=(6, 3, 3)), 1)
        full[2, :, 1] = np.abs(full[2, :, 1])         # inflow at p_1 = 0: poles
        p = rng.dirichlet(np.ones(3), size=6)
        p[2] = [0.5, 0.0, 0.5]
        stack = CurrentMatrix(upper=full)
        rates = bell_rates(stack, p)
        assert len(rates) == 6 and rates[2].has_poles
        pdot = stack.full().sum(axis=-1)
        for k in range(6):
            node = bell_rates(stack[k], p[k])
            assert np.array_equal(rates[k].matrix, node.matrix)
            assert np.array_equal(rates[k].pole_mask, node.pole_mask)
            assert np.array_equal(pole_free_rows(rates)[k], pole_free_rows(node))
        worst = max(master_residual(rates[k], p[k], pdot[k], rows=pole_free_rows(rates[k]))
                    for k in range(6))
        assert master_residual(rates, p, pdot, rows=pole_free_rows(rates)) == worst
        keep = [0, 1, 3, 4, 5]
        general = general_rates(stack[keep], p[keep], 0.3)
        for n, k in enumerate(keep):
            assert np.abs(general[n].matrix
                          - general_rates(stack[k], p[k], 0.3).matrix).max() <= 1e-15

    def test_one_directional_choice(self, rng):
        full = np.triu(rng.normal(size=(5, 5)), 1)
        rates = bell_rates(CurrentMatrix(upper=full), rng.dirichlet(np.ones(5)))
        off = rates.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all((off * off.T) == 0)    # at most one direction per pair

    def test_column_sums_zero(self, rng):
        full = np.triu(rng.normal(size=(4, 4)), 1)
        rates = bell_rates(CurrentMatrix(upper=full), rng.dirichlet(np.ones(4)))
        assert np.abs(rates.matrix.sum(axis=0)).max() <= 1e-15

    def test_round_trip_reconstructs_current(self, rng):
        full = np.triu(rng.normal(size=(4, 4)), 1)
        cm = CurrentMatrix(upper=full)
        p = rng.dirichlet(np.ones(4)) + 0.05
        p /= p.sum()
        t = bell_rates(cm, p).matrix
        recon = t * p[None, :] - (t * p[None, :]).T
        assert np.abs(recon - cm.full()).max() <= 1e-10


class TestGeneralRates:
    def test_zero_offset_reduces_to_bell(self, rng):
        full = np.triu(rng.normal(size=(4, 4)), 1)
        cm = CurrentMatrix(upper=full)
        p = rng.dirichlet(np.ones(4)) + 0.05
        p /= p.sum()
        a = general_rates(cm, p, 0.0)
        b = bell_rates(cm, p)
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12

    def test_reconstruction_identity(self, rng):
        full = np.triu(rng.normal(size=(3, 3)), 1)
        cm = CurrentMatrix(upper=full)
        p = np.array([0.5, 0.3, 0.2])
        for c in (0.0, 0.7, lambda j, i: 0.1 * (j + i)):
            t = general_rates(cm, p, c).matrix
            recon = t * p[None, :] - (t * p[None, :]).T
            assert np.abs(recon - cm.full()).max() <= 1e-10

    def test_uniform_offset_closed_form(self):
        d = 4
        cm = current_from_full(np.zeros((d, d)))
        p = np.full(d, 1.0 / d)
        rates = general_rates(cm, p, 1.0)
        off = rates.matrix - np.diag(np.diag(rates.matrix))
        assert np.allclose(off + np.eye(d), np.ones((d, d)))
        assert np.allclose(np.diag(rates.matrix), -(d - 1))

    def test_zero_probability_rejected(self):
        cm = current_from_full(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="p_j = 0"):
            general_rates(cm, np.array([1.0, 0.0]), 0.0)

    def test_negative_offset_rejected(self):
        cm = current_from_full(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            general_rates(cm, np.array([0.5, 0.5]), -1.0)


class TestJumpDecomposition:
    def test_two_state_forced(self):
        full = np.array([[0.0, -1.0], [1.0, 0.0]])
        rates = general_rates(current_from_full(full), np.array([0.5, 0.5]),
                              free_choice=2.0)
        dec = jump_decomposition(rates)
        assert np.allclose(dec.jump_matrix[1, 0], 1.0)
        assert np.allclose(dec.jump_matrix[0, 1], 1.0)

    def test_zero_exit_rate_column_undefined(self):
        cm = current_from_full(np.zeros((2, 2)))
        rates = bell_rates(cm, np.array([0.4, 0.6]))
        dec = jump_decomposition(rates)
        assert not dec.defined.any()
        assert np.isnan(dec.jump_matrix).all()
        assert np.all(dec.exit_rates == 0)

    def test_columns_sum_to_one(self, rng):
        full = np.triu(rng.normal(size=(5, 5)) + 1.0, 1)
        p = rng.dirichlet(np.ones(5)) + 0.01
        rates = bell_rates(CurrentMatrix(upper=full), p / p.sum())
        dec = jump_decomposition(rates)
        sums = dec.jump_matrix[:, dec.defined].sum(axis=0)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_pole_rejected(self):
        full = np.array([[0.0, 0.3], [-0.3, 0.0]])
        rates = bell_rates(current_from_full(full), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="pole"):
            jump_decomposition(rates)


class TestMasterResidual:
    def test_bell_from_balanced_current(self, rng):
        full = np.triu(rng.normal(size=(4, 4)), 1)
        cm = CurrentMatrix(upper=full)
        p = rng.dirichlet(np.ones(4)) + 0.05
        p /= p.sum()
        pdot = cm.full().sum(axis=1)
        rates = bell_rates(cm, p)
        assert master_residual(rates, p, pdot) <= 1e-9

    def test_zero_rates(self):
        cm = current_from_full(np.zeros((3, 3)))
        rates = bell_rates(cm, np.array([0.2, 0.5, 0.3]))
        pdot = np.array([0.1, -0.4, 0.3])
        assert master_residual(rates, np.array([0.2, 0.5, 0.3]), pdot) == 0.4

    def test_crossing_family_over_grid(self):
        theta = 1.0
        grid = np.arange(0.0, 0.7, 1e-3)
        worst = 0.0
        for t in grid:
            cm, p = crossing_current(theta, t)
            rates = bell_rates(cm, p)
            h = 1e-3
            pdot = np.array([
                (np.cos(theta * (t + h)) ** 2 - np.cos(theta * (t - h)) ** 2),
                (np.sin(theta * (t + h)) ** 2 - np.sin(theta * (t - h)) ** 2),
            ]) / (2 * h)
            worst = max(worst, master_residual(rates, p, pdot))
        assert worst <= 1e-5

    def test_pole_free_rows_masking(self):
        # Flow through a zero-probability relay state is not representable
        # with finite rates; rows the relay touches are excluded.
        full = np.array([
            [0.0, -0.2, -0.1],
            [0.2, 0.0, 0.3],
            [0.1, -0.3, 0.0],
        ])
        p = np.array([0.6, 0.4, 0.0])
        rates = bell_rates(current_from_full(full), p)
        assert rates.has_poles and rates.pole_mask[1, 2]
        rows = pole_free_rows(rates)
        assert rows.tolist() == [True, False, False]
        pdot = current_from_full(full).full().sum(axis=1)
        assert master_residual(rates, p, pdot, rows=rows) <= 1e-12
        # Unmasked, the relay flux is genuinely missing from the balance.
        assert master_residual(rates, p, pdot) > 0.1


class TestClassifySingularities:
    def test_bounded_probabilities_empty(self):
        grid = np.linspace(0, 1, 100)
        p = np.column_stack([np.full(100, 0.4), np.full(100, 0.6)])
        assert not classify_singularities(p, grid)

    def test_crossing_family_isolated_zeros(self):
        theta = 1.0
        grid = np.arange(0.0, 2.0 + 1e-9, 1e-3)
        p = np.column_stack([np.cos(theta * grid) ** 2, np.sin(theta * grid) ** 2])
        events = classify_singularities(p, grid)
        mine = [e for e in events if e.state == 0]
        assert len(mine) == 1
        assert mine[0].kind == "isolated-zero"
        assert abs(mine[0].time - np.pi / 2) <= 2e-3

    def test_interval_zero(self):
        grid = np.linspace(0, 1, 200)
        p = np.column_stack([np.ones(200), np.zeros(200)])
        events = classify_singularities(p, grid)
        assert [e for e in events if e.state == 1][0].kind == "interval-zero"

    def test_divergent_exit_flagged(self):
        theta = 1.0
        grid = np.arange(1.0, 2.0, 1e-3)
        p = np.column_stack([np.cos(theta * grid) ** 2, np.sin(theta * grid) ** 2])
        full = np.zeros((len(grid), 2, 2))
        full[:, 1, 0] = theta * np.sin(2 * theta * grid)
        full[:, 0, 1] = -full[:, 1, 0]
        rates = bell_rates(current_from_full(full), p / p.sum(axis=1, keepdims=True))
        events = classify_singularities(p, grid, rates)
        ev = [e for e in events if e.state == 0][0]
        assert ev.divergent is True


class TestRateTrajectory:
    def make(self):
        grid = np.linspace(0, 1, 11)
        full = np.zeros((11, 2, 2))
        full[:, 1, 0] = grid
        full[:, 0, 1] = -grid
        return RateTrajectory(grid, bell_rates(current_from_full(full),
                                               np.full((11, 2), 0.5)))

    def test_linear_interpolation(self):
        rt = self.make()
        # rate = 2 t between nodes
        assert abs(rt.matrix_batch([0.55], columns=[0])[0, 1] - 1.1) < 1e-12

    def test_pole_free_windows(self):
        rt = self.make()
        assert _kernel_windows(rt, ()) == [(0, 10)]
        # Flagged nodes split the window; a one-node run is no window.
        pole = np.zeros((11, 2, 2), dtype=bool)
        pole[[1, 5], 0, 1] = True
        flagged = RateTrajectory(rt.grid, RateMatrix(np.zeros((11, 2, 2)), pole))
        assert _kernel_windows(flagged, ()) == [(2, 4), (6, 10)]
