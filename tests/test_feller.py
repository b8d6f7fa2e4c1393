import numpy as np
import pytest
from scipy.linalg import expm

from modaldyn.currents import CurrentMatrix
from modaldyn.errors import PoleInInterval, TruncationNotConverged
from modaldyn.feller import (chapman_kolmogorov_residual, feller_minimal,
                             forward_ode_kernel, honesty_deficit)
from modaldyn.kinetics import RateTrajectory, bell_rates


def constant_rates(off):
    """Callable rates with fixed off-diagonal matrix ``off``."""
    t = np.asarray(off, dtype=float).copy()
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, -t.sum(axis=0))
    return lambda u: t, t


def crossing_rate_trajectory(theta=1.0, t0=0.0, t1=0.7, step=1e-3):
    grid = np.arange(t0, t1 + 1e-12, step)
    full = np.zeros((len(grid), 2, 2))
    full[:, 1, 0] = theta * np.sin(2 * theta * grid)
    full[:, 0, 1] = -full[:, 1, 0]
    p = np.column_stack([np.cos(theta * grid) ** 2, np.sin(theta * grid) ** 2])
    return RateTrajectory(grid, bell_rates(CurrentMatrix(upper=np.triu(full, 1)), p))


class TestFellerMinimal:
    def test_zero_rates_identity(self):
        fn, _ = constant_rates(np.zeros((3, 3)))
        k = feller_minimal(fn, 0.0, 1.3)
        assert np.abs(k.matrix - np.eye(3)).max() <= 1e-12

    def test_no_jump_term_survival(self):
        lam = 0.8
        fn, _ = constant_rates(np.array([[0.0, 0.0], [lam, 0.0]]))
        k = feller_minimal(fn, 0.0, 1.0, n_max=0)
        assert abs(k.matrix[0, 0] - np.exp(-lam)) <= 1e-9
        assert k.matrix[1, 1] == 1.0
        assert k.matrix[1, 0] == 0.0

    def test_constant_two_state_matches_exponential(self):
        fn, t = constant_rates(np.array([[0.0, 2.0], [1.0, 0.0]]))
        k = feller_minimal(fn, 0.0, 1.0, n_max=20, quad_step=1e-3)
        assert np.abs(k.matrix - expm(t).real).max() <= 1e-6

    def test_monotone_in_truncation(self):
        fn, _ = constant_rates(np.array([[0.0, 2.0], [1.0, 0.0]]))
        prev = None
        for n in (0, 1, 2, 4, 8):
            k = feller_minimal(fn, 0.0, 1.0, n_max=n, quad_step=2e-3,
                               check_convergence=False)
            if prev is not None:
                assert np.all(k.matrix >= prev - 1e-12)
            prev = k.matrix
        assert np.all(honesty_deficit(
            feller_minimal(fn, 0.0, 1.0, n_max=1, quad_step=2e-3,
                           check_convergence=False)) >= -1e-12)

    def test_truncation_not_converged(self):
        fn, _ = constant_rates(np.array([[0.0, 6.0], [6.0, 0.0]]))
        with pytest.raises(TruncationNotConverged):
            feller_minimal(fn, 0.0, 1.0, n_max=2)

    def test_pole_in_interval(self):
        rt = crossing_rate_trajectory()
        rt.pole_mask[350, 1, 0] = True
        with pytest.raises(PoleInInterval):
            feller_minimal(rt, 0.0, 0.7)
        # Windows that avoid the flagged node still work.
        feller_minimal(rt, 0.0, 0.3)

    def test_degenerate_interval(self):
        fn, _ = constant_rates(np.array([[0.0, 1.0], [1.0, 0.0]]))
        k = feller_minimal(fn, 0.5, 0.5)
        assert np.array_equal(k.matrix, np.eye(2))


class TestForwardOdeKernel:
    def test_zero_rates_identity(self):
        fn, _ = constant_rates(np.zeros((2, 2)))
        k = forward_ode_kernel(fn, 0.0, 2.0)
        assert np.abs(k.matrix - np.eye(2)).max() <= 1e-12

    def test_agrees_with_series_constant_case(self):
        fn, _ = constant_rates(np.array([[0.0, 2.0], [1.0, 0.0]]))
        series = feller_minimal(fn, 0.0, 1.0, quad_step=1e-3)
        ode = forward_ode_kernel(fn, 0.0, 1.0, ode_step=1e-3)
        assert np.abs(series.matrix - ode.matrix).max() <= 1e-6

    def test_time_dependent_columns_sum_to_one(self):
        rt = crossing_rate_trajectory()
        k = forward_ode_kernel(rt, 0.0, 0.7, ode_step=1e-3)
        assert np.abs(k.column_sums() - 1.0).max() <= 1e-6

    def test_series_below_ode_kernel(self):
        rt = crossing_rate_trajectory()
        series = feller_minimal(rt, 0.1, 0.5, quad_step=1e-3)
        ode = forward_ode_kernel(rt, 0.1, 0.5, ode_step=1e-3)
        assert np.all(series.matrix <= ode.matrix + 1e-6)


class TestKolmogorovResiduals:
    def test_forward_residual(self):
        rt = crossing_rate_trajectory()
        s, t, h = 0.1, 0.5, 1e-3
        plus = forward_ode_kernel(rt, s, t + h, ode_step=h).matrix
        minus = forward_ode_kernel(rt, s, t - h, ode_step=h).matrix
        here = forward_ode_kernel(rt, s, t, ode_step=h).matrix
        lhs = (plus - minus) / (2 * h)
        assert np.abs(lhs - rt(t) @ here).max() <= 1e-4

    def test_backward_residual(self):
        rt = crossing_rate_trajectory()
        s, t, h = 0.1, 0.5, 1e-3
        plus = forward_ode_kernel(rt, s + h, t, ode_step=h).matrix
        minus = forward_ode_kernel(rt, s - h, t, ode_step=h).matrix
        here = forward_ode_kernel(rt, s, t, ode_step=h).matrix
        lhs = (plus - minus) / (2 * h)
        assert np.abs(lhs + here @ rt(s)).max() <= 1e-4


class TestChapmanKolmogorov:
    def test_zero_offset(self):
        fn, _ = constant_rates(np.array([[0.0, 1.0], [2.0, 0.0]]))
        kernel = lambda a, b: forward_ode_kernel(fn, a, b, ode_step=1e-3)
        direct = kernel(0.2, 0.6)
        assert chapman_kolmogorov_residual(direct, kernel(0.2, 0.2), direct) <= 1e-9

    def test_constant_rate_semigroup(self):
        fn, _ = constant_rates(np.array([[0.0, 1.0], [2.0, 0.0]]))
        kernel = lambda a, b: forward_ode_kernel(fn, a, b, ode_step=1e-3)
        assert chapman_kolmogorov_residual(
            kernel(0.0, 1.0), kernel(0.0, 0.4), kernel(0.4, 1.0)) <= 1e-8

    def test_crossing_scenario_kernels(self):
        rt = crossing_rate_trajectory()
        kernel = lambda a, b: feller_minimal(rt, a, b, quad_step=1e-3)
        assert chapman_kolmogorov_residual(
            kernel(0.1, 0.5), kernel(0.1, 0.3), kernel(0.3, 0.5)) <= 1e-5

    def test_invalid_ordering(self):
        # Kernels for [0.1, 0.6] whose windows break the chain at its start,
        # in its middle and at its end.
        fn, _ = constant_rates(np.zeros((2, 2)))
        kernel = lambda a, b: forward_ode_kernel(fn, a, b)
        direct = kernel(0.1, 0.6)
        for first, second in (((0.0, 0.3), (0.3, 0.6)), ((0.1, 0.3), (0.4, 0.6)),
                              ((0.1, 0.3), (0.3, 0.5))):
            with pytest.raises(ValueError, match="do not chain"):
                chapman_kolmogorov_residual(direct, kernel(*first), kernel(*second))


class TestHonestyDeficit:
    def test_identity_kernel(self):
        fn, _ = constant_rates(np.zeros((3, 3)))
        k = feller_minimal(fn, 0.0, 1.0)
        assert np.abs(honesty_deficit(k)).max() <= 1e-12

    def test_truncated_deficit_decreases(self):
        fn, _ = constant_rates(np.array([[0.0, 2.0], [2.0, 0.0]]))
        deficits = []
        for n in (1, 3, 6, 12):
            k = feller_minimal(fn, 0.0, 1.0, n_max=n, quad_step=2e-3,
                               check_convergence=False)
            deficits.append(honesty_deficit(k).max())
        assert all(a >= b - 1e-12 for a, b in zip(deficits, deficits[1:]))
        assert deficits[0] > 1e-3

    def test_converged_kernel_honest(self):
        fn, _ = constant_rates(np.array([[0.0, 1.0], [2.0, 0.0]]))
        k = feller_minimal(fn, 0.0, 1.0, n_max=25, quad_step=1e-3)
        assert np.abs(honesty_deficit(k)).max() <= 1e-8
