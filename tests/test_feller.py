from math import ceil

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.linalg import expm

from modaldyn.config import DEFAULT
from modaldyn.currents import CurrentMatrix
from modaldyn.errors import PoleInInterval, TruncationNotConverged
from modaldyn.feller import (_cumulative_simpson, chapman_kolmogorov_residual,
                             feller_minimal, forward_ode_kernel, honesty_deficit)
from modaldyn.kinetics import RateMatrix, RateTrajectory, bell_rates


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


def random_rate_trajectory(d=16, seed=3, step=1e-3):
    """Smoothly varying random rates on [0, 1], exit rates up to about 3."""
    rng = np.random.default_rng(seed)
    grid = np.arange(0.0, 1.0 + 1e-12, step)
    base = rng.uniform(0.0, 3.0 / d, size=(d, d))
    phase = rng.uniform(0.0, 2 * np.pi, size=(d, d))
    off = base * (1 + 0.5 * np.sin(4 * grid[:, None, None] + phase))
    idx = np.arange(d)
    off[:, idx, idx] = 0.0
    off[:, idx, idx] = -off.sum(axis=1)
    return RateTrajectory(grid, RateMatrix(off, np.zeros(off.shape, dtype=bool)))


def reference_series(rates, s, t, n_max=25, quad_step=1e-3):
    """The series as a per-term einsum with scipy's cumulative Simpson."""
    m = max(2, ceil((t - s) / quad_step))
    u = np.linspace(s, t, m + 1)
    du = (t - s) / m
    tm = rates.matrix_batch(u)
    d = tm.shape[1]
    lam = cumulative_simpson(np.clip(-np.einsum("mii->mi", tm), 0.0, None),
                             dx=du, axis=0, initial=0)
    surv = np.exp(-lam)
    prev = np.einsum("mi,ij->mij", surv, np.eye(d))
    total = prev.copy()
    toff = tm.copy()
    toff[:, np.arange(d), np.arange(d)] = 0.0
    last_max, n_used = 0.0, 0
    for n in range(1, n_max + 1):
        g = np.einsum("mjk,mki->mji", toff, prev)
        acc = cumulative_simpson(np.exp(lam)[:, :, None] * g, dx=du, axis=0, initial=0)
        prev = np.clip(surv[:, :, None] * acc, 0.0, None)
        total += prev
        n_used, last_max = n, float(prev[-1].max())
        if last_max <= DEFAULT.series_tail:
            break
    return total[-1], n_used, last_max


def reference_rk4(rates, s, t, ode_step=1e-3):
    """Classic RK4 on the forward equation, one step at a time."""
    m = max(1, ceil((t - s) / ode_step))
    h = (t - s) / m
    a = rates.matrix_batch(s + 0.5 * h * np.arange(2 * m + 1))
    p = np.eye(a.shape[1])
    for k in range(m):
        a0, am, a1 = a[2 * k], a[2 * k + 1], a[2 * k + 2]
        k1 = a0 @ p
        k2 = am @ (p + 0.5 * h * k1)
        k3 = am @ (p + 0.5 * h * k2)
        k4 = a1 @ (p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


class TestArrayKernels:
    @pytest.mark.parametrize("n", list(range(3, 13)) + [1001, 1002])
    def test_simpson_matches_scipy(self, n):
        y = np.random.default_rng(n).normal(size=(n, 3, 3))
        ref = cumulative_simpson(y, dx=0.01, axis=0, initial=0)
        out = _cumulative_simpson(y, 0.01)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-15 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("rates, s, t", [
        (crossing_rate_trajectory(), 0.0, 0.7),
        (crossing_rate_trajectory(), 0.1, 0.45),
        (random_rate_trajectory(), 0.0, 1.0),
        (random_rate_trajectory(), 0.2, 0.7013),
    ])
    def test_rk4_matches_step_loop(self, rates, s, t):
        ref = reference_rk4(rates, s, t)
        assert np.abs(forward_ode_kernel(rates, s, t).matrix - ref).max() <= 1e-13

    @pytest.mark.parametrize("rates, s, t", [
        (crossing_rate_trajectory(), 0.1, 0.5),
        (random_rate_trajectory(d=4), 0.0, 1.0),
        (random_rate_trajectory(), 0.0, 1.0),
        (random_rate_trajectory(), 0.3, 0.8011),
    ])
    def test_series_matches_einsum_reference(self, rates, s, t):
        ref, n_used, _ = reference_series(rates, s, t)
        k = feller_minimal(rates, s, t)
        assert k.n_terms == n_used
        assert np.abs(k.matrix - ref).max() <= 1e-13

    def test_truncation_message_matches_reference(self):
        rates = random_rate_trajectory()
        _, n_used, last_max = reference_series(rates, 0.0, 1.0, n_max=6)
        with pytest.raises(TruncationNotConverged) as info:
            feller_minimal(rates, 0.0, 1.0, n_max=6)
        assert str(info.value) == (f"series term {n_used} still has max entry "
                                   f"{last_max:.3e} > {DEFAULT.series_tail}")


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
