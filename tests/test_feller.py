import functools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import cumulative_simpson
from scipy.linalg import expm

from modaldyn import feller
from modaldyn.config import DEFAULT
from modaldyn.currents import CurrentMatrix
from modaldyn.errors import PoleInInterval, TruncationNotConverged
from modaldyn.feller import (TransitionKernel, _cumulative_simpson, _ordered_product,
                             _series_term, chapman_kolmogorov_residual, feller_minimal,
                             forward_ode_kernel, honesty_deficit)
from modaldyn.kinetics import RateMatrix, RateTrajectory, rate_matrix
from modaldyn.pipeline import compute_currents, compute_joint_family, compute_rates
from modaldyn.scenario import BUILTINS

from conftest import constant_trajectory, random_system, traced_peak


def constant_rates(off, step=1e-3, t1=2.0):
    """Rates fixed at generator ``t`` (off-diagonal part ``off``) on a uniform
    grid over [0, t1], returned with ``t``."""
    t = np.asarray(off, dtype=float).copy()
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, -t.sum(axis=0))
    return constant_trajectory(t, step, t1), t


def crossing_rate_trajectory(theta=1.0, t0=0.0, t1=0.7, step=1e-3):
    grid = np.arange(t0, t1 + 1e-12, step)
    full = np.zeros((len(grid), 2, 2))
    full[:, 1, 0] = theta * np.sin(2 * theta * grid)
    full[:, 0, 1] = -full[:, 1, 0]
    p = np.column_stack([np.cos(theta * grid) ** 2, np.sin(theta * grid) ** 2])
    return RateTrajectory(grid, rate_matrix("bell", CurrentMatrix(full), p))


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


def node(rates, t):
    """Index of the grid node at time ``t``."""
    return int(np.abs(rates.grid - t).argmin())


def window(rates, s, t):
    return rates.matrices[node(rates, s):node(rates, t) + 1]


def reference_series(rates, s, t, n_max=25):
    """The series as a per-term einsum with scipy's cumulative Simpson."""
    tm = window(rates, s, t)
    m, d = len(tm) - 1, tm.shape[1]
    du = (t - s) / m
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


def reference_rk4(rates, s, t):
    """Classic RK4 on the forward equation, one grid interval at a time."""
    a = window(rates, s, t)
    m = len(a) - 1
    h = (t - s) / m
    p = np.eye(a.shape[1])
    for k in range(m):
        a0, a1 = a[k], a[k + 1]
        am = 0.5 * (a0 + a1)
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

    # Blocks of 16 nodes in chunks of 64, so n in 3..80 covers no full
    # block, one to four full blocks, and every tail length on both interval
    # parities; the longer windows end in a partial chunk.
    @pytest.mark.parametrize("n", list(range(3, 81)) + [501, 701, 1001, 1002, 1572])
    def test_blocked_simpson_matches_rule(self, n):
        rng = np.random.default_rng(n)
        for d in (1, 3, 16):
            weighted = rng.normal(size=(n, d, d))
            acc = rng.normal(size=(n, d, d))
            ref = np.clip(_cumulative_simpson(weighted @ acc, 0.01), 0.0, None)
            _series_term(weighted, 0.01)(acc)
            assert np.abs(acc - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    def test_blocked_simpson_forms_no_dense_operator(self):
        # A dense (n, n) operator on 200 001 nodes would take 320 GB; the
        # term holds one chunk of 65 nodes and the tail's 18.
        n = 200_001
        rng = np.random.default_rng(0)
        weighted = rng.normal(size=(n, 2, 2))
        acc = rng.normal(size=(n, 2, 2))
        ref = np.clip(_cumulative_simpson(weighted @ acc, 1e-5), 0.0, None)
        _, peak = traced_peak(lambda: _series_term(weighted, 1e-5)(acc))
        assert peak < 2**20
        assert np.abs(acc - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("rates, s, t", [
        (crossing_rate_trajectory(), 0.0, 0.7),
        (crossing_rate_trajectory(), 0.1, 0.45),
        (random_rate_trajectory(), 0.0, 1.0),
        (random_rate_trajectory(), 0.2, 0.701),
    ])
    def test_rk4_matches_step_loop(self, rates, s, t):
        ref = reference_rk4(rates, s, t)
        assert np.abs(forward_ode_kernel(rates, s, t).matrix - ref).max() <= 1e-13

    @pytest.mark.parametrize("rates, s, t", [
        (crossing_rate_trajectory(), 0.1, 0.5),
        (random_rate_trajectory(d=4), 0.0, 1.0),
        (random_rate_trajectory(), 0.0, 1.0),
        (random_rate_trajectory(), 0.3, 0.801),
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


def whole_stack_simpson(n, dx):
    """The series term's blocked Simpson integral over whole-window stacks.

    ``integrate(y, out)`` writes the integral of ``y (n, ...)`` into ``out``:
    one matmul applies the local weights to every block of 16 nodes, one
    cumsum runs over all the blocks' increments, and the tail rows take
    their own weights from two nodes before them.
    """
    nb = (n - 1) // 16
    head = nb * 16
    w = _cumulative_simpson(np.eye(17), dx)
    local, step = w[:16], w[16]
    c = max(head - 2, 0)
    wt = _cumulative_simpson(np.eye(n - c), dx)
    tail = wt[head - c:] - wt[head - c]

    def integrate(y, out):
        flat, sums = y.reshape(n, -1), out.reshape(n, -1)
        np.matmul(tail, flat[c:], out=sums[head:])
        if nb:
            win = sliding_window_view(flat, 17, axis=0)[::16].swapaxes(1, 2)
            blocks = sums[:head].reshape(nb, 16, -1)
            np.matmul(local, win, out=blocks)
            start = step @ win
            np.cumsum(start, axis=0, out=start)
            blocks[1:] += start[:-1, None]
            sums[head:] += start[-1]
        return out

    return integrate


def whole_stack_series(rates, s, t, n_max=25):
    """The series kernel with every term formed over the whole window at once."""
    tm = window(rates, s, t)
    m, d = len(tm) - 1, tm.shape[1]
    du = (t - s) / m
    lam = _cumulative_simpson(np.clip(-np.einsum("mii->mi", tm), 0.0, None), du)
    weighted = tm * np.exp(lam[:, :, None] - lam[:, None, :])
    weighted[:, np.arange(d), np.arange(d)] = 0.0
    surv = np.exp(-lam[-1])[:, None]
    integrate = whole_stack_simpson(m + 1, du)
    acc = np.broadcast_to(np.eye(d), tm.shape).copy()
    term = np.empty_like(acc)
    total = np.eye(d)
    n_used = 0
    for n in range(1, n_max + 1):
        integrate(np.matmul(weighted, acc, out=term), out=acc)
        np.clip(acc, 0.0, None, out=acc)
        total += acc[-1]
        n_used = n
        if (surv * acc[-1]).max() <= DEFAULT.series_tail:
            break
    return TransitionKernel(s=s, t=t, matrix=surv * total, method="series", n_terms=n_used)


def whole_stack_rk4(rates, s, t):
    """The RK4 kernel with every step matrix formed at once and one pairwise product."""
    a = window(rates, s, t)
    h = (t - s) / (len(a) - 1)
    a0, a1 = a[:-1], a[1:]
    am = 0.5 * (a0 + a1)
    b2 = am + 0.5 * h * (am @ a0)
    b3 = am + 0.5 * h * (am @ b2)
    b4 = a1 + h * (a1 @ b3)
    steps = h / 6.0 * (2.0 * (b2 + b3) + a0 + b4) + np.eye(a.shape[-1])
    return TransitionKernel(s=s, t=t, matrix=_ordered_product(steps), method="ode")


@functools.cache
def pipeline_rates(name):
    """The rates of a builtin, or of the seeded (2, 2, 2, 2) draw over [0, 1]."""
    sc = (random_system(2222, (2, 2, 2, 2), t1=1.0) if name == "generic-2x2x2x2"
          else BUILTINS[name]().validate())
    family = compute_joint_family(sc)
    current = compute_currents(family)
    return RateTrajectory(family.grid, compute_rates(
        current, family.probabilities, sc.rate_choice, sc.general_rate_offset))


class TestChunkedKernels:
    """Both kernels run over chunks of 64 intervals, and the chunks change no
    bit: windows shorter than one chunk, on either side of one and two chunk
    edges, and a long window that ends in a partial chunk, each equal to the
    kernel formed on whole-window stacks.  The series blocks of 16 nodes make
    15, 16 and 17 intervals a block edge of their own."""

    @pytest.mark.parametrize("m", [2, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000])
    @pytest.mark.parametrize("name", ["generic-2x2x2x2", "measured-possessed-property"])
    def test_equal_to_whole_stacks(self, name, m):
        rates = pipeline_rates(name)
        a = len(rates.grid) - 1 - m if name == "generic-2x2x2x2" else 7
        s, t = float(rates.grid[a]), float(rates.grid[a + m])
        series = feller_minimal(rates, s, t, check_convergence=False)
        ref = whole_stack_series(rates, s, t)
        assert series.n_terms == ref.n_terms
        assert np.array_equal(series.matrix, ref.matrix)
        assert np.array_equal(forward_ode_kernel(rates, s, t).matrix,
                              whole_stack_rk4(rates, s, t).matrix)


@pytest.mark.parametrize("d, step", [(16, 1e-3), (64, 5e-3)], ids=["dim16", "dim64"])
class TestKernelMemory:
    """Peak allocations of the kernels, in units of one (m + 1, D, D) float
    table, on random rates at dim 16 over 1001 nodes and at dim 64 over 201.
    The series holds two tables, the weighted rates and the running term,
    and the window's cumulative hazards, one (m + 1, D) vector.  A term
    forms its integrand over one chunk of 65 nodes at a time; the tail's
    integrand (at most 18 nodes), the chunk's block increments and the
    weights take less than a second chunk.  The ODE kernel forms the
    step matrices of one chunk of 64 intervals: the midpoint rates and
    three stage stacks, four chunks of step stacks, of which the pairwise
    product keeps one and its halves; the chunk products are one matrix per
    chunk, stacked once, and the kernel adds two matrices.  Both kernels
    add a vector to every row of a stack in place (a block's running sum,
    the identity to every step), and numpy broadcasts that through its
    ufunc buffer of ``np.getbufsize()`` values.  The bounds follow from
    that design, not from a measurement."""

    @staticmethod
    def units(d, step):
        rates = random_rate_trajectory(d=d, step=step)
        n, node = len(rates.grid), d * d * np.dtype(float).itemsize
        buffer = np.getbufsize() * np.dtype(float).itemsize
        return rates, n * node, node, buffer

    def test_series_holds_two_tables_beside_a_chunk(self, d, step):
        rates, table, node, buffer = self.units(d, step)
        hazards = table // d
        chunk = (feller._CHUNK + 1) * node
        kernel, peak = traced_peak(feller_minimal, rates, 0.0, 1.0, 25, False)
        assert kernel.n_terms >= 2
        assert peak <= 2 * table + hazards + 2 * chunk + buffer, peak / table

    def test_ode_holds_one_chunk_of_steps(self, d, step):
        rates, table, node, buffer = self.units(d, step)
        n_chunks = -(-(len(rates.grid) - 1) // feller._CHUNK)
        _kernel, peak = traced_peak(forward_ode_kernel, rates, 0.0, 1.0)
        assert peak <= (4 * feller._CHUNK + 2 * n_chunks + 2) * node + buffer, peak / table


class TestWindow:
    """Both kernels run on the grid's own nodes of a pole-free, even window."""

    @pytest.mark.parametrize("kernel", [feller_minimal, forward_ode_kernel])
    def test_off_grid_endpoint_rejected(self, kernel):
        rt = crossing_rate_trajectory()
        for s, t in ((0.1, 0.5005), (0.1003, 0.5), (-0.1, 0.5), (0.1, 0.8)):
            with pytest.raises(ValueError, match="grid nodes"):
                kernel(rt, s, t)

    def test_one_interval_series_rejected(self):
        rt = crossing_rate_trajectory()
        with pytest.raises(ValueError, match="at least 3 nodes"):
            feller_minimal(rt, 0.1, 0.101)
        # The fourth-order step needs no interior node.
        assert forward_ode_kernel(rt, 0.1, 0.101).method == "ode"
        assert feller_minimal(rt, 0.1, 0.102).n_terms >= 1

    @pytest.mark.parametrize("kernel", [feller_minimal, forward_ode_kernel])
    def test_uneven_window_rejected(self, kernel):
        grid = np.array([0.0, 0.1, 0.2, 0.35, 0.4, 0.5])
        stack = np.zeros((len(grid), 2, 2))
        rt = RateTrajectory(grid, RateMatrix(stack, np.zeros(stack.shape, dtype=bool)))
        with pytest.raises(ValueError, match="uneven"):
            kernel(rt, 0.0, 0.5)
        # An even stretch of the same grid is accepted.
        assert np.array_equal(kernel(rt, 0.0, 0.2).matrix, np.eye(2))


class TestFellerMinimal:
    def test_zero_rates_identity(self):
        rates, _ = constant_rates(np.zeros((3, 3)))
        k = feller_minimal(rates, 0.0, 1.3)
        assert np.abs(k.matrix - np.eye(3)).max() <= 1e-12

    def test_no_jump_term_survival(self):
        lam = 0.8
        rates, _ = constant_rates(np.array([[0.0, 0.0], [lam, 0.0]]))
        k = feller_minimal(rates, 0.0, 1.0, n_max=0)
        assert abs(k.matrix[0, 0] - np.exp(-lam)) <= 1e-9
        assert k.matrix[1, 1] == 1.0
        assert k.matrix[1, 0] == 0.0

    def test_constant_two_state_matches_exponential(self):
        rates, t = constant_rates(np.array([[0.0, 2.0], [1.0, 0.0]]))
        k = feller_minimal(rates, 0.0, 1.0, n_max=20)
        assert np.abs(k.matrix - expm(t).real).max() <= 1e-6

    def test_monotone_in_truncation(self):
        rates, _ = constant_rates(np.array([[0.0, 2.0], [1.0, 0.0]]), step=2e-3)
        prev = None
        for n in (0, 1, 2, 4, 8):
            k = feller_minimal(rates, 0.0, 1.0, n_max=n, check_convergence=False)
            if prev is not None:
                assert np.all(k.matrix >= prev - 1e-12)
            prev = k.matrix
        assert np.all(honesty_deficit(
            feller_minimal(rates, 0.0, 1.0, n_max=1, check_convergence=False)) >= -1e-12)

    def test_truncation_not_converged(self):
        rates, _ = constant_rates(np.array([[0.0, 6.0], [6.0, 0.0]]))
        with pytest.raises(TruncationNotConverged):
            feller_minimal(rates, 0.0, 1.0, n_max=2)

    def test_pole_in_interval(self):
        rt = crossing_rate_trajectory()
        rt.pole_mask[350, 1, 0] = True
        for kernel in (feller_minimal, forward_ode_kernel):
            with pytest.raises(PoleInInterval) as info:
                kernel(rt, 0.0, 0.7)
            assert str(info.value) == (f"rates have poles at nodes "
                                       f"{[float(rt.grid[350])]} inside [0.0, 0.7]")
            # Windows that avoid the flagged node still work.
            kernel(rt, 0.0, 0.3)

    def test_degenerate_interval(self):
        rates, _ = constant_rates(np.array([[0.0, 1.0], [1.0, 0.0]]))
        k = feller_minimal(rates, 0.5, 0.5)
        assert np.array_equal(k.matrix, np.eye(2))


class TestForwardOdeKernel:
    def test_zero_rates_identity(self):
        rates, _ = constant_rates(np.zeros((2, 2)))
        k = forward_ode_kernel(rates, 0.0, 2.0)
        assert np.abs(k.matrix - np.eye(2)).max() <= 1e-12

    def test_agrees_with_series_constant_case(self):
        rates, _ = constant_rates(np.array([[0.0, 2.0], [1.0, 0.0]]))
        series = feller_minimal(rates, 0.0, 1.0)
        ode = forward_ode_kernel(rates, 0.0, 1.0)
        assert np.abs(series.matrix - ode.matrix).max() <= 1e-6

    def test_time_dependent_columns_sum_to_one(self):
        rt = crossing_rate_trajectory()
        k = forward_ode_kernel(rt, 0.0, 0.7)
        assert np.abs(k.column_sums() - 1.0).max() <= 1e-6

    def test_series_below_ode_kernel(self):
        rt = crossing_rate_trajectory()
        series = feller_minimal(rt, 0.1, 0.5)
        ode = forward_ode_kernel(rt, 0.1, 0.5)
        assert np.all(series.matrix <= ode.matrix + 1e-6)


class TestKolmogorovResiduals:
    def test_forward_residual(self):
        rt = crossing_rate_trajectory()
        s, t, h = 0.1, 0.5, 1e-3
        plus = forward_ode_kernel(rt, s, t + h).matrix
        minus = forward_ode_kernel(rt, s, t - h).matrix
        here = forward_ode_kernel(rt, s, t).matrix
        lhs = (plus - minus) / (2 * h)
        assert np.abs(lhs - rt.matrices[node(rt, t)] @ here).max() <= 1e-4

    def test_backward_residual(self):
        rt = crossing_rate_trajectory()
        s, t, h = 0.1, 0.5, 1e-3
        plus = forward_ode_kernel(rt, s + h, t).matrix
        minus = forward_ode_kernel(rt, s - h, t).matrix
        here = forward_ode_kernel(rt, s, t).matrix
        lhs = (plus - minus) / (2 * h)
        assert np.abs(lhs + here @ rt.matrices[node(rt, s)]).max() <= 1e-4


class TestChapmanKolmogorov:
    def test_zero_offset(self):
        rates, _ = constant_rates(np.array([[0.0, 1.0], [2.0, 0.0]]))
        kernel = lambda a, b: forward_ode_kernel(rates, a, b)
        direct = kernel(0.2, 0.6)
        assert chapman_kolmogorov_residual(direct, kernel(0.2, 0.2), direct) <= 1e-9

    def test_constant_rate_semigroup(self):
        rates, _ = constant_rates(np.array([[0.0, 1.0], [2.0, 0.0]]))
        kernel = lambda a, b: forward_ode_kernel(rates, a, b)
        assert chapman_kolmogorov_residual(
            kernel(0.0, 1.0), kernel(0.0, 0.4), kernel(0.4, 1.0)) <= 1e-8

    def test_crossing_scenario_kernels(self):
        rt = crossing_rate_trajectory()
        kernel = lambda a, b: feller_minimal(rt, a, b)
        assert chapman_kolmogorov_residual(
            kernel(0.1, 0.5), kernel(0.1, 0.3), kernel(0.3, 0.5)) <= 1e-5

    def test_invalid_ordering(self):
        # Kernels for [0.1, 0.6] whose windows break the chain at its start,
        # in its middle and at its end.
        rates, _ = constant_rates(np.zeros((2, 2)))
        kernel = lambda a, b: forward_ode_kernel(rates, a, b)
        direct = kernel(0.1, 0.6)
        for first, second in (((0.0, 0.3), (0.3, 0.6)), ((0.1, 0.3), (0.4, 0.6)),
                              ((0.1, 0.3), (0.3, 0.5))):
            with pytest.raises(ValueError, match="do not chain"):
                chapman_kolmogorov_residual(direct, kernel(*first), kernel(*second))


class TestHonestyDeficit:
    def test_identity_kernel(self):
        rates, _ = constant_rates(np.zeros((3, 3)))
        k = feller_minimal(rates, 0.0, 1.0)
        assert np.abs(honesty_deficit(k)).max() <= 1e-12

    def test_truncated_deficit_decreases(self):
        rates, _ = constant_rates(np.array([[0.0, 2.0], [2.0, 0.0]]), step=2e-3)
        deficits = []
        for n in (1, 3, 6, 12):
            k = feller_minimal(rates, 0.0, 1.0, n_max=n, check_convergence=False)
            deficits.append(honesty_deficit(k).max())
        assert all(a >= b - 1e-12 for a, b in zip(deficits, deficits[1:]))
        assert deficits[0] > 1e-3

    def test_converged_kernel_honest(self):
        rates, _ = constant_rates(np.array([[0.0, 1.0], [2.0, 0.0]]))
        k = feller_minimal(rates, 0.0, 1.0, n_max=25)
        assert np.abs(honesty_deficit(k)).max() <= 1e-8
