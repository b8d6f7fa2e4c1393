import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import modaldyn
from modaldyn.config import DEFAULT
from modaldyn.currents import KINDS, CurrentMatrix
from modaldyn.kinetics import (RateMatrix, RateTrajectory, _median, classify_singularities,
                               master_residual, pole_free_rows, rate_matrix)
from modaldyn import kinetics, pipeline
from modaldyn.pipeline import (_kernel_windows, compute_currents, compute_joint_family,
                               compute_rates, run)
from modaldyn.sampler import _interp_rows
from modaldyn.scenario import BUILTINS

from conftest import random_system


def current_from_full(full):
    """The current whose strict upper triangle is that of ``full``."""
    u = np.triu(full, 1)
    return CurrentMatrix(u - np.swapaxes(u, -1, -2))


def bell_closed_form(j, p):
    """Bell's rates max(0, j_ji / p_i) and their pole flags, entry by entry.

    A probability at or below the zero-probability tolerance divides
    nothing: its column gets rate 0, flagged as a pole where the incoming
    current exceeds the pole-current tolerance.  Diagonals make every column
    sum to zero.
    """
    zero = np.broadcast_to((p <= DEFAULT.zero_probability)[..., None, :], j.shape)
    off = np.maximum(0.0, np.divide(j, p[..., None, :], out=np.zeros_like(j), where=~zero))
    diagonal = np.eye(j.shape[-1], dtype=bool)
    off[..., diagonal] = 0.0
    off[..., diagonal] = -off.sum(axis=-2)
    return off, zero & (j > DEFAULT.pole_current) & ~diagonal


def crossing_current(theta, t):
    """Two-state current j_21 = theta sin(2 theta t) with p = (cos^2, sin^2)."""
    x = theta * np.sin(2 * theta * t)
    full = np.array([[0.0, -x], [x, 0.0]])
    p = np.array([np.cos(theta * t) ** 2, np.sin(theta * t) ** 2])
    return current_from_full(full), p


class TestRateMatrix:
    """The record checks read the off-diagonal entries and the diagonal in
    place; each position is seen at the last node of a stack."""

    @pytest.mark.parametrize("d", [2, 4])
    def test_every_negative_off_diagonal_entry_is_rejected(self, d):
        for j, i in zip(*np.nonzero(~np.eye(d, dtype=bool))):
            m = np.ones((3, d, d))
            m[-1, j, i] = -0.5
            with pytest.raises(ValueError, match=r"nonnegative \(min -5\.000e-01\)"):
                RateMatrix(m, np.zeros(m.shape, bool))

    def test_negative_diagonal_and_one_state_pass(self):
        m = np.ones((3, 4, 4)) - 5.0 * np.eye(4)
        assert RateMatrix(m, np.zeros(m.shape, bool)).size == 4
        assert RateMatrix(-np.ones((3, 1, 1)), np.zeros((3, 1, 1), bool)).size == 1

    @pytest.mark.parametrize("k", range(4))
    def test_diagonal_pole_is_rejected(self, k):
        mask = np.zeros((3, 4, 4), bool)
        mask[-1, k, k] = True
        with pytest.raises(ValueError, match="diagonal entries cannot be poles"):
            RateMatrix(np.zeros((3, 4, 4)), mask)


class TestBellRates:
    def test_crossing_family_values(self):
        theta, t = 1.0, 0.4
        cm, p = crossing_current(theta, t)
        rates = rate_matrix(cm, p)
        expected = theta * np.sin(2 * theta * t) / np.cos(theta * t) ** 2
        assert abs(rates.matrix[1, 0] - expected) < 1e-12
        assert rates.matrix[0, 1] == 0.0
        assert not rates.pole_mask.any()

    def test_zero_current(self):
        cm = current_from_full(np.zeros((3, 3)))
        rates = rate_matrix(cm, np.array([0.2, 0.3, 0.5]))
        assert np.all(rates.matrix == 0)

    def test_zero_probability_zero_current_is_regular(self):
        cm = current_from_full(np.zeros((2, 2)))
        rates = rate_matrix(cm, np.array([1.0, 0.0]))
        assert not rates.pole_mask.any()
        assert np.all(rates.matrix == 0)

    def test_zero_probability_nonzero_current_is_pole(self):
        # Positive flow out of the zero-probability state 1 cannot be finite.
        full = np.array([[0.0, 0.3], [-0.3, 0.0]])
        rates = rate_matrix(current_from_full(full), np.array([1.0, 0.0]))
        assert rates.pole_mask[0, 1]
        assert rates.matrix[0, 1] == 0.0

    def test_negative_current_at_zero_probability_is_zero(self):
        # max{0, j/p} -> 0 as p -> 0+ when j < 0: continuous, not a pole.
        full = np.array([[0.0, -0.3], [0.3, 0.0]])
        rates = rate_matrix(current_from_full(full), np.array([1.0, 0.0]))
        assert not rates.pole_mask.any()
        assert rates.matrix[0, 1] == 0.0
        # Flow into the zero-probability state is a plain finite rate.
        assert abs(rates.matrix[1, 0] - 0.3) < 1e-14

    def test_node_axis_matches_single_nodes(self, rng):
        # Stacked records give node k's single-node results at index k.
        full = np.triu(rng.normal(size=(6, 3, 3)), 1)
        full[2, :, 1] = np.abs(full[2, :, 1])         # inflow at p_1 = 0: poles
        p = rng.dirichlet(np.ones(3), size=6)
        p[2] = [0.5, 0.0, 0.5]
        stack = current_from_full(full)
        rates = rate_matrix(stack, p)
        assert rates.matrix.shape[0] == 6 and rates[2].pole_mask.any()
        pdot = stack.matrix.sum(axis=-1)
        for k in range(6):
            node = rate_matrix(current_from_full(full[k]), p[k])
            assert np.array_equal(rates[k].matrix, node.matrix)
            assert np.array_equal(rates[k].pole_mask, node.pole_mask)
            assert np.array_equal(pole_free_rows(rates)[k], pole_free_rows(node))
        worst = max(master_residual(rates[k], p[k], pdot[k], rows=pole_free_rows(rates[k]))
                    for k in range(6))
        assert master_residual(rates, p, pdot, rows=pole_free_rows(rates)) == worst
        general = rate_matrix(stack, p, 0.3)
        for k in range(6):
            node = rate_matrix(current_from_full(full[k]), p[k], 0.3)
            assert np.array_equal(general[k].matrix, node.matrix)
            assert np.array_equal(general[k].pole_mask, node.pole_mask)

    def test_one_directional_choice(self, rng):
        full = np.triu(rng.normal(size=(5, 5)), 1)
        rates = rate_matrix(current_from_full(full), rng.dirichlet(np.ones(5)))
        off = rates.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert np.all((off * off.T) == 0)    # at most one direction per pair

    def test_column_sums_zero(self, rng):
        full = np.triu(rng.normal(size=(4, 4)), 1)
        rates = rate_matrix(current_from_full(full), rng.dirichlet(np.ones(4)))
        assert np.abs(rates.matrix.sum(axis=0)).max() <= 1e-15

    def test_round_trip_reconstructs_current(self, rng):
        full = np.triu(rng.normal(size=(4, 4)), 1)
        cm = current_from_full(full)
        p = rng.dirichlet(np.ones(4)) + 0.05
        p /= p.sum()
        t = rate_matrix(cm, p).matrix
        recon = t * p[None, :] - (t * p[None, :]).T
        assert np.abs(recon - cm.matrix).max() <= 1e-10


class TestGeneralRates:
    """The family t_ji = max{0, j_ji / p_i} + c p_j: Bell's rates plus the
    symmetric flux c p_i p_j each way between every two states."""

    def test_zero_offset_reduces_to_bell(self, rng):
        full = np.triu(rng.normal(size=(4, 4)), 1)
        full[:, 2] = np.abs(full[:, 2])                 # inflow at p_2 = 0: poles
        cm = current_from_full(full)
        p = rng.dirichlet(np.ones(4))
        p[2] = 0.0
        p /= p.sum()
        rates, (t, pole) = rate_matrix(cm, p, 0.0), bell_closed_form(cm.matrix, p)
        assert pole.any()
        assert np.array_equal(rates.matrix, t) and np.array_equal(rates.pole_mask, pole)

    def test_reconstruction_identity(self, rng):
        full = np.triu(rng.normal(size=(3, 3)), 1)
        cm = current_from_full(full)
        p = np.array([0.5, 0.3, 0.2])
        for c in (0.0, 0.7):
            t = rate_matrix(cm, p, c).matrix
            recon = t * p[None, :] - (t * p[None, :]).T
            assert np.abs(recon - cm.matrix).max() <= 1e-10

    def test_uniform_offset_closed_form(self):
        d = 4
        cm = current_from_full(np.zeros((d, d)))
        p = np.full(d, 1.0 / d)
        rates = rate_matrix(cm, p, 1.0)
        off = rates.matrix - np.diag(np.diag(rates.matrix))
        assert np.allclose(off + np.eye(d) / d, np.full((d, d), 1.0 / d))
        assert np.allclose(np.diag(rates.matrix), -(d - 1) / d)

    def test_zero_probability_gives_finite_rates(self):
        # Nothing is divided by p, so a zero probability gives finite rates,
        # and the only poles are Bell's: inflow at a zero probability.
        cases = [
            (np.zeros((2, 2)), [1.0, 0.0]),
            (np.array([[0.0, 0.3], [-0.3, 0.0]]), [1.0, 0.0]),      # a pole at [0, 1]
            (np.array([[0.0, -0.3], [0.3, 0.0]]), [1.0, 0.0]),
            (np.array([[0.0, -0.2, -0.1], [0.2, 0.0, 0.3], [0.1, -0.3, 0.0]]),
             [0.6, 0.4, 0.0]),
        ]
        for (full, p), c in itertools.product(cases, (0.0, 0.5, 5.0)):
            cm, p = current_from_full(full), np.array(p)
            bell, general = rate_matrix(cm, p), rate_matrix(cm, p, c)
            assert np.isfinite(general.matrix).all()
            assert np.array_equal(general.pole_mask, bell.pole_mask)
            # Out of the zero-probability state: Bell's rate plus c p_j.
            assert np.array_equal(general.matrix[:-1, -1],
                                  np.where(bell.pole_mask[:-1, -1], 0.0,
                                           bell.matrix[:-1, -1] + c * p[:-1]))

    def test_relabelling_moves_no_rate(self, rng):
        # Relabelling the states permutes the rates.  Every off-diagonal entry
        # is computed from its own pair alone, so it must match exactly; the
        # diagonal sums a column in another order, so within rounding:
        # 1e-14 (1 + the column's off-diagonal sum), fixed before the first
        # run.
        d = 6
        full = np.triu(rng.normal(size=(5, d, d)), 1)
        p = rng.dirichlet(np.ones(d), size=5)
        p[1] = [0.3, 0.0, 0.2, 0.0, 0.4, 0.1]          # zero weights, and poles
        full[1, :, 1] = np.abs(full[1, :, 1])
        cm = current_from_full(full)
        for c in (0.0, 1.0, 5.0):
            rates = rate_matrix(cm, p, c)
            for _ in range(4):
                perm = rng.permutation(d)
                moved = rate_matrix(CurrentMatrix(cm.matrix[:, perm][:, :, perm]),
                                    p[:, perm], c)
                want = rates.matrix[:, perm][:, :, perm]
                off = ~np.eye(d, dtype=bool)
                assert np.array_equal(moved.matrix[:, off], want[:, off])
                assert np.array_equal(moved.pole_mask, rates.pole_mask[:, perm][:, :, perm])
                diag = np.abs(np.diagonal(moved.matrix - want, axis1=1, axis2=2))
                assert (diag <= 1e-14 * (1.0 - np.diagonal(want, axis1=1, axis2=2))).all()

    def test_probabilities_checked_whatever_the_choice(self):
        cm = current_from_full(np.zeros((2, 2)))
        for c in (0.0, 1.0):
            with pytest.raises(ValueError, match="summing to 1"):
                rate_matrix(cm, np.array([0.5, 0.4]), c)

    def test_negative_offset_rejected(self):
        cm = current_from_full(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="nonnegative"):
            rate_matrix(cm, np.array([0.5, 0.5]), -1.0)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected(self, offset):
        # A NaN offset used to give an all-NaN rate matrix, inf one of +-inf rates.
        cm = current_from_full(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            rate_matrix(cm, np.array([0.5, 0.5]), offset)


class TestMasterResidual:
    def test_bell_from_balanced_current(self, rng):
        full = np.triu(rng.normal(size=(4, 4)), 1)
        cm = current_from_full(full)
        p = rng.dirichlet(np.ones(4)) + 0.05
        p /= p.sum()
        pdot = cm.matrix.sum(axis=1)
        rates = rate_matrix(cm, p)
        assert master_residual(rates, p, pdot) <= 1e-9

    def test_zero_rates(self):
        cm = current_from_full(np.zeros((3, 3)))
        rates = rate_matrix(cm, np.array([0.2, 0.5, 0.3]))
        pdot = np.array([0.1, -0.4, 0.3])
        assert master_residual(rates, np.array([0.2, 0.5, 0.3]), pdot) == 0.4

    def test_crossing_family_over_grid(self):
        theta = 1.0
        grid = np.arange(0.0, 0.7, 1e-3)
        worst = 0.0
        for t in grid:
            cm, p = crossing_current(theta, t)
            rates = rate_matrix(cm, p)
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
        rates = rate_matrix(current_from_full(full), p)
        assert rates.pole_mask[1, 2]
        rows = pole_free_rows(rates)
        assert rows.tolist() == [True, False, False]
        pdot = current_from_full(full).matrix.sum(axis=1)
        assert master_residual(rates, p, pdot, rows=rows) <= 1e-12
        # Unmasked, the relay flux is genuinely missing from the balance.
        assert master_residual(rates, p, pdot) > 0.1
        # Rows are a boolean mask shaped like p, nothing else.
        for bad in ([0], np.array([1, 0, 0]), np.array([[True, False, False]])):
            with pytest.raises(ValueError, match="boolean mask"):
                master_residual(rates, p, pdot, rows=bad)


def generic_2222(seed):
    """A random (2, 2, 2, 2) system over t in [0, 0.5]; p > 0 at every node."""
    return random_system(seed, (2, 2, 2, 2), t1=0.5)


def intensity(rates, p):
    """Expected jump rate under the Born weights, sum_(i != j) t_ij p_j, per node."""
    off = np.where(np.eye(rates.size, dtype=bool), 0.0, rates.matrix)
    return (off * p[..., None, :]).sum(axis=(-2, -1))


class TestFluxMinimality:
    """For a fixed current, Bell's rates have the least intensity any rates
    reproducing it can have: sum_(i<j) |j_ij|, the total flux (Bell,
    "Beables for quantum field theory", 1984).  The family member c adds the
    flux c p_i p_j each way between every two states, c (1 - sum_i p_i^2) in
    all, whatever the labels, so its expected jump count is never lower."""

    # The builtins run their own current.  Under the minimal-flow current a
    # builtin routes up to 8e-10 through zero-probability states, below the
    # pole tolerance, where Bell's rule sets the rate to 0 without a flag;
    # the generic draws have p > 0 everywhere and take every current.
    @pytest.mark.parametrize("system, kind", [(name, None) for name in BUILTINS] + [
        (seed, kind) for seed in (1, 2)
        for kind in ("minimal_flow", "static_schrodinger", "generalized_schrodinger")])
    def test_bell_intensity_is_the_flux(self, system, kind):
        sc = BUILTINS[system]() if system in BUILTINS else generic_2222(system)
        family = compute_joint_family(sc.validate())
        current = compute_currents(family, kind)
        p = family.probabilities
        rates = compute_rates(current, p)
        flux = np.abs(current.matrix).sum(axis=(-2, -1)) / 2
        free = ~rates.pole_mask.any(axis=(-2, -1))
        assert free.any()
        gap = np.abs(intensity(rates, p) - flux)[free]
        assert (gap <= 1e-12 * np.maximum(1.0, flux[free])).all()

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("c", [0.1, 0.5, 2.0])
    def test_general_adds_twice_the_offset_flow(self, seed, c):
        family = compute_joint_family(generic_2222(seed))
        current = compute_currents(family)
        p = family.probabilities
        bell = intensity(compute_rates(current, p), p)
        general = intensity(compute_rates(current, p, c), p)
        # c p_i p_j over every ordered pair i != j: no label order enters.
        extra = c * (1.0 - (p * p).sum(axis=-1))
        flux = np.abs(current.matrix).sum(axis=(-2, -1)) / 2
        assert (np.abs(general - bell - extra) <= 1e-12 * np.maximum(1.0, flux + extra)).all()
        assert (general >= bell).all()


class TestFamilyAtZeroIsBell:
    """The family member c = 0 is Bell's closed form max(0, j_ji / p_i) with
    Bell's pole flags, bit for bit, on every builtin and a (2, 2, 2, 2) draw,
    under each current.  Both sides divide the same current entry by entry,
    so it holds on any BLAS kernel."""

    @pytest.mark.parametrize("system", [*BUILTINS, "generic-2x2x2x2"])
    def test_general_at_zero_equals_bell(self, system):
        sc = BUILTINS[system]() if system in BUILTINS else generic_2222(1)
        family = compute_joint_family(sc.validate())
        p = family.probabilities
        for kind in KINDS:
            current = compute_currents(family, kind)
            rates, (t, pole) = rate_matrix(current, p, 0.0), bell_closed_form(current.matrix, p)
            assert np.array_equal(rates.matrix, t), kind
            assert np.array_equal(rates.pole_mask, pole), kind


class TestFamilyOnBuiltins:
    """Every builtin runs under the family at c = 1 and c = 5, 20000 paths,
    and passes every acceptance check at its unchanged thresholds.  The
    symmetric flux cancels in the master balance, so master reads rounding:
    at most 1e-13, fixed before the first run."""

    @pytest.mark.parametrize("c", [1.0, 5.0])
    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_every_check_passes(self, name, c):
        sc = replace(BUILTINS[name](n_paths=20_000), general_rate_offset=c)
        report = run(sc, report_only=True).report
        assert report.failures(sc.thresholds) == [], report
        assert report.master_residual <= 1e-13


class TestTwoTimeLaw:
    """Empirical equivalence on measured-possessed-property: c = 0 and c = 5
    give the same law at each of the grid's 1/4 and 3/4 nodes, and different
    joint laws of the pair.  Bands fixed before the first run, per cell of a
    law, on the difference of two independent 20000-path frequencies over its
    standard error: every single-time cell within 5, and some two-time cell
    beyond 10."""

    @staticmethod
    def laws(c):
        sc = replace(BUILTINS["measured-possessed-property"](n_paths=20_000),
                     general_rate_offset=c)
        result = run(sc, report_only=True)
        grid, d = result.family.grid, len(result.family.states)
        a, b = (result.paths.states_at(grid[k * (len(grid) - 1) // 4]) for k in (1, 3))
        n = len(a)
        return (np.bincount(a, minlength=d) / n, np.bincount(b, minlength=d) / n,
                np.bincount(a * d + b, minlength=d * d) / n), n

    def test_same_marginals_different_pair_law(self):
        (bell, n), (loose, _) = self.laws(0.0), self.laws(5.0)

        def z(f, g):
            var = np.maximum(f * (1 - f) + g * (1 - g), 1.0 / n) / n
            return np.abs(f - g) / np.sqrt(var)

        assert z(bell[0], loose[0]).max() <= 5.0 and z(bell[1], loose[1]).max() <= 5.0
        assert z(bell[2], loose[2]).max() > 10.0


class TestRateLayerMutation:
    """Rates scaled by 1.01 (one defect, in the rate layer alone) must fail
    the master check of a run while its continuity check keeps every bit."""

    @pytest.mark.parametrize("name", ["easyexample", "interacting-two-spin",
                                      "measured-possessed-property"])
    def test_scaled_bell_rates_fail_the_master_check(self, monkeypatch, name):
        sc = BUILTINS[name](n_paths=200)
        honest = run(sc, report_only=True).report
        rule = kinetics._rates

        def scaled(j, p, c):
            matrix, pole_mask = rule(j, p, c)     # the diagonal is already set
            return 1.01 * matrix, pole_mask

        monkeypatch.setattr(kinetics, "_rates", scaled)
        mutant = run(sc, report_only=True).report
        assert honest.master_residual <= 1e-5 < mutant.master_residual
        assert mutant.continuity_residual == honest.continuity_residual
        assert any(f.startswith("master residual") for f in mutant.failures(sc.thresholds))


def zero_rates(n, d):
    return RateMatrix(np.zeros((n, d, d)), np.zeros((n, d, d), dtype=bool))


class TestClassifySingularities:
    def test_bounded_probabilities_empty(self):
        grid = np.linspace(0, 1, 100)
        p = np.column_stack([np.full(100, 0.4), np.full(100, 0.6)])
        assert not classify_singularities(p, grid, zero_rates(100, 2))

    def test_crossing_family_isolated_zeros(self):
        theta = 1.0
        grid = np.arange(0.0, 2.0 + 1e-9, 1e-3)
        p = np.column_stack([np.cos(theta * grid) ** 2, np.sin(theta * grid) ** 2])
        events = classify_singularities(p, grid, zero_rates(len(grid), 2))
        mine = [e for e in events if e.state == 0]
        assert len(mine) == 1
        assert mine[0].kind == "isolated-zero"
        assert abs(mine[0].time - np.pi / 2) <= 2e-3
        # Zero rates have no exit rate to blow up.
        assert mine[0].divergent is False

    def test_interval_zero(self):
        grid = np.linspace(0, 1, 200)
        p = np.column_stack([np.ones(200), np.zeros(200)])
        events = classify_singularities(p, grid, zero_rates(200, 2))
        assert [e for e in events if e.state == 1][0].kind == "interval-zero"

    def test_interval_zero_time_is_its_first_node(self, rng):
        # Rounding noise below 10 * zero_probability over nodes 50-149: the
        # least value lies inside the run, and the time stays at its start.
        grid = np.linspace(0, 1, 200)
        zero = np.ones(200)
        zero[50:150] = rng.uniform(0, 10 * DEFAULT.zero_probability, 100)
        p = np.column_stack([1 - zero, zero])
        event, = [e for e in classify_singularities(p, grid, zero_rates(200, 2))
                  if e.state == 1]
        assert event.kind == "interval-zero" and np.argmin(zero) > 50
        assert event.time == event.t_start == grid[50]

    def test_rates_must_match_trajectory(self):
        grid = np.linspace(0, 1, 50)
        p = np.column_stack([np.ones(50), np.zeros(50)])
        for rates in (zero_rates(49, 2), zero_rates(50, 3)):
            with pytest.raises(ValueError, match="do not match"):
                classify_singularities(p, grid, rates)

    def test_divergent_exit_flagged(self):
        theta = 1.0
        grid = np.arange(1.0, 2.0, 1e-3)
        p = np.column_stack([np.cos(theta * grid) ** 2, np.sin(theta * grid) ** 2])
        full = np.zeros((len(grid), 2, 2))
        full[:, 1, 0] = theta * np.sin(2 * theta * grid)
        full[:, 0, 1] = -full[:, 1, 0]
        rates = rate_matrix(current_from_full(full), p / p.sum(axis=1, keepdims=True))
        events = classify_singularities(p, grid, rates)
        ev = [e for e in events if e.state == 0][0]
        assert ev.divergent is True


NO_MASKED_ARRAYS = """
import sys
import numpy
loaded = "numpy.ma" in sys.modules
from modaldyn import load_scenario, run
run(load_scenario("measured-possessed-property"), report_only=True)
print(loaded, "numpy.ma" in sys.modules)
"""


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 1001, 1572])
    def test_is_np_median(self, rng, n):
        # Normal draws, and small integers for ties.
        for x in (rng.normal(size=(n, 5)), rng.integers(0, 4, (n, 5)).astype(float)):
            assert _median(x).tobytes() == np.median(x, axis=0).tobytes()

    def test_singularities_load_no_masked_arrays(self):
        # np.median imports numpy.ma on its first call; a report-only run of
        # an eight-state builtin with zero runs needs no masked arrays.
        src = str(Path(modaldyn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        loaded_by_numpy, loaded = done.stdout.split()
        assert loaded == loaded_by_numpy, "the run imported numpy.ma"


class TestRateTrajectory:
    def make(self):
        grid = np.linspace(0, 1, 11)
        full = np.zeros((11, 2, 2))
        full[:, 1, 0] = grid
        full[:, 0, 1] = -grid
        return RateTrajectory(grid, rate_matrix(current_from_full(full),
                                                np.full((11, 2), 0.5)))

    def test_linear_interpolation(self):
        # The sampler takes a state's rate column at a time from the column
        # view [i, k] = matrices[k, :, i], row by row: every entry is np.interp
        # of that entry over the nodes, bit for bit, at nodes, between them
        # and at the last node, in calls of as many rows as states and more.
        rng = np.random.default_rng(5)
        grid = np.cumsum(rng.uniform(0.5, 1.5, 11))
        mats = rng.exponential(size=(11, 3, 3))
        mats[:, [0, 1, 2], [0, 1, 2]] = 0.0
        mats[:, [0, 1, 2], [0, 1, 2]] = -mats.sum(axis=1)
        rt = RateTrajectory(grid, RateMatrix(mats, np.zeros(mats.shape, dtype=bool)))
        cols = rt.matrices.transpose(2, 0, 1)
        assert np.shares_memory(cols, rt.matrices)
        t = np.concatenate([grid, (grid[1:] + grid[:-1]) / 2, grid[-1:],
                            rng.uniform(grid[0], grid[-1], 40)])
        for m in (3, 40):
            for lo in range(0, len(t), m):
                times = t[lo:lo + m]
                state = rng.integers(0, 3, len(times))
                got = _interp_rows(grid, cols, state, times)
                assert got.shape == (len(times), 3)
                want = [[np.interp(tk, grid, mats[:, j, i]) for j in range(3)]
                        for tk, i in zip(times, state)]
                assert got.tobytes() == np.array(want).tobytes()

    def test_grid_must_increase(self):
        # A repeated node would make the linear rule divide 0 by 0 there.
        rt = self.make()
        for node in (1.0, 1.5, np.nan):          # repeated, decreasing, NaN
            grid = rt.grid.copy()
            grid[9] = node
            with pytest.raises(ValueError, match="strictly increasing"):
                RateTrajectory(grid, RateMatrix(rt.matrices, rt.pole_mask))

    def test_pole_free_windows(self):
        rt = self.make()
        assert _kernel_windows(rt, ()) == [(0, 10)]
        # Flagged nodes split the window; a one-node run is no window.
        pole = np.zeros((11, 2, 2), dtype=bool)
        pole[[1, 5], 0, 1] = True
        flagged = RateTrajectory(rt.grid, RateMatrix(np.zeros((11, 2, 2)), pole))
        assert _kernel_windows(flagged, ()) == [(2, 4), (6, 10)]

    def test_stiff_nodes_end_windows(self):
        # Classic RK4 is stable on the negative real axis down to -2.785, so a
        # node where h times the largest exit rate passes it is excluded like
        # a flagged node; 2.7 / h stays in.
        grid = np.linspace(0.0, 1.0, 11)
        m = np.zeros((11, 2, 2))
        m[:, 1, 0] = 1.0
        m[3, 1, 0], m[7, 1, 0] = 27.0, 28.0
        m[:, 0, 0] = -m[:, 1, 0]
        rt = RateTrajectory(grid, RateMatrix(m, np.zeros(m.shape, dtype=bool)))
        assert _kernel_windows(rt, ()) == [(0, 6), (8, 10)]

    def test_static_current_window_builds_both_kernels(self):
        # The static current on measured-possessed-property reaches an exit
        # rate of 1.31e4 at its last node (h times it about 13), where RK4
        # left [0, 1]; the window now ends one node before it.
        result = run(BUILTINS["measured-possessed-property"](n_paths=50), report_only=True,
                     current="static_schrodinger")
        report, grid = result.report, result.family.grid
        assert report.kernel_window == (0.0, float(grid[-2]))
        assert report.kernel_note is None and report.kernel_terms == 2
        assert abs(report.honesty_deficit_max) <= 1e-13
        assert report.kernel_cross_check <= 1e-6

    def test_unconverged_series_skips_the_kernel_stage(self):
        # At c = 6 the series on measured-possessed-property's window has not
        # converged after its 25 terms: the run names why in its note, keeps
        # the window, and leaves every kernel diagnostic unset, so no kernel
        # check can fail.
        sc = replace(BUILTINS["measured-possessed-property"](n_paths=2000),
                     general_rate_offset=6.0)
        report = run(sc, report_only=True).report
        assert report.kernel_note == ("kernel stage skipped: series term 25 still has "
                                      "max entry 3.915e-10 > 1e-10")
        assert (report.kernel_terms, report.chapman_residual, report.honesty_deficit_max,
                report.kernel_cross_check) == (None, None, None, None)
        assert report.kernel_window is not None
        assert not [f for f in report.failures(sc.thresholds)
                    if f.startswith(("chapman", "honesty"))]
