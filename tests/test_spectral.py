import numpy as np
import pytest

from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from modaldyn import spectral
from modaldyn.errors import AmbiguousContinuation
from modaldyn.hilbert import (FactorSpace, evolve_on_grid,
                              hermitian_eig, partial_trace, projector_from_vector)
from modaldyn.spectral import (_nearest_node, _runs, detect_crossings,
                               derivative_family, track)

from conftest import random_hermitian, random_ket


def crossing_family(theta, grid):
    """W(t) = cos^2(theta t) P1 + sin^2(theta t) P2 with fixed projectors."""
    p1 = np.diag([1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0]).astype(complex)
    return [np.cos(theta * t) ** 2 * p1 + np.sin(theta * t) ** 2 * p2 for t in grid]


def rotation_family(h, w0, grid):
    states = []
    for t in grid:
        u = expm(-1j * h * t)
        states.append(u @ w0 @ u.conj().T)
    return states


def per_node_track(states, grid):
    """Reference: one eigendecomposition and one Hungarian solve per node."""
    grid = np.asarray(grid, dtype=float)
    states = [np.asarray(s, dtype=complex) for s in states]
    n, dim = len(grid), states[0].shape[0]
    weights = np.empty((n, dim))
    vectors = np.empty((n, dim, dim), dtype=complex)
    dec = hermitian_eig(states[0])
    vecs0 = dec.vectors.copy()
    for cluster in dec.clusters:
        if len(cluster) > 1:
            cols = list(cluster)
            vecs0[:, cols] = spectral._refine_block(
                vecs0[:, cols], spectral._reference_operator(dim))
    weights[0] = dec.values
    vectors[0] = vecs0.T
    for k in range(1, n):
        dec = hermitian_eig(states[k])
        prev = vectors[k - 1]
        overlap = np.abs(prev.conj() @ dec.vectors) ** 2
        _, col_of_label = linear_sum_assignment(-overlap)
        new_vecs = np.empty_like(prev)
        for cluster in dec.clusters:
            cols = list(cluster)
            labels = [l for l in range(dim) if col_of_label[l] in cluster]
            if len(cols) == 1:
                lab = labels[0]
                v = dec.vectors[:, cols[0]]
                z = np.vdot(prev[lab], v)
                if abs(z) > 0:
                    v = v * (z.conjugate() / abs(z))
                new_vecs[lab] = v
            else:
                aligned = spectral._polar_align(dec.vectors[:, cols], prev[labels].T)
                for j, lab in enumerate(labels):
                    new_vecs[lab] = aligned[:, j]
        for lab in range(dim):
            o = abs(np.vdot(prev[lab], new_vecs[lab])) ** 2
            if o < 0.5:
                raise AmbiguousContinuation(
                    f"label {lab} overlap {o:.3f} < 0.5 at "
                    f"t={float(grid[k])}; refine the grid"
                )
        vectors[k] = new_vecs
        weights[k] = dec.values[col_of_label]
    return weights, vectors


@pytest.fixture
def fallback_nodes(monkeypatch):
    """The node indices ``track`` hands to its per-node step, in call order."""
    nodes = []
    step = spectral._continue

    def counted(prev, vals, basis, split, k):
        nodes.append(k)
        return step(prev, vals, basis, split, k)

    monkeypatch.setattr(spectral, "_continue", counted)
    return nodes


def assert_matches_per_node(states, grid, **kwargs):
    states = np.asarray(states, dtype=complex)
    try:
        weights, vectors = per_node_track(states, grid, **kwargs)
    except AmbiguousContinuation as err:
        with pytest.raises(AmbiguousContinuation) as got:
            track(states, grid, **kwargs)
        assert str(got.value) == str(err)
        return None
    traj = track(states, grid, **kwargs)
    assert np.abs(traj.weights - weights).max() <= 1e-14
    assert np.abs(traj.vectors - vectors).max() <= 1e-12
    return traj


def degenerate_stretch_family(h, grid):
    """Rotating weights (0.4 + s, 0.4 - s, 0.2) with s = 0 on [0.4, 0.6]."""
    s = 0.25 * np.clip(np.abs(grid - 0.5) - 0.1, 0.0, None)
    out = []
    for t, st in zip(grid, s):
        u = expm(-1j * h * t)
        out.append(u @ np.diag([0.4 + st, 0.4 - st, 0.2]) @ u.conj().T)
    return out


class TestBatchedTracking:
    """The batched ``track`` against the per-node reference loop."""

    def test_crossing_family(self, fallback_nodes):
        # pi/4 and 3pi/4 are grid nodes: the weights meet exactly there, so
        # those nodes and their successors take the per-node step; the
        # swaps between other nodes compose on the fast path.
        grid = np.linspace(0, np.pi, 2001)
        states = np.asarray(crossing_family(1.0, grid), dtype=complex)
        assert_matches_per_node(states, grid)
        assert fallback_nodes == [500, 501, 1500, 1501]

    @pytest.mark.parametrize("dim", [3, 4])
    def test_rotation_family(self, rng, fallback_nodes, dim):
        h = random_hermitian(rng, dim)
        w0 = np.diag(np.linspace(0.4, 0.1, dim) / np.linspace(0.4, 0.1, dim).sum())
        grid = np.arange(0, 1.0 + 1e-9, 1e-3)
        assert_matches_per_node(rotation_family(h, w0.astype(complex), grid), grid)
        assert fallback_nodes == []

    def test_stationary_degenerate(self, fallback_nodes):
        grid = np.linspace(0, 1, 30)
        w = np.diag([0.5, 0.25, 0.25]).astype(complex)
        traj = assert_matches_per_node([w] * 30, grid)
        assert len(fallback_nodes) == 29
        assert traj.min_gap == 0.0

    def test_degenerate_stretch_mid_grid(self, rng, fallback_nodes):
        h = random_hermitian(rng, 3)
        grid = np.arange(0, 1.0 + 1e-9, 1e-3)
        states = np.asarray(degenerate_stretch_family(h, grid))
        assert_matches_per_node(states, grid)
        # Per-node work covers the stretch (nodes 400-600) and the node
        # after it, no more.
        assert fallback_nodes == list(range(400, 602))

    def test_random_pure_states(self, fallback_nodes):
        # On (4, 2) the first factor's reduced state has rank 2, a zero
        # cluster at every node, so the per-node step runs there throughout.
        rng = np.random.default_rng(7)
        draws = [(4, 2)] + [tuple(int(d) for d in rng.choice([2, 3, 4], size=n_factors))
                            for n_factors in (2, 2, 3, 3)]
        for dims in draws:
            space = FactorSpace(dims)
            grid = np.arange(0, 0.3 + 1e-9, 1e-3)
            psi = evolve_on_grid(random_ket(rng, space.dim),
                                 random_hermitian(rng, space.dim), grid)
            pure = psi[:, :, None] * psi[:, None, :].conj()
            for keep in range(len(dims)):
                assert_matches_per_node(partial_trace(pure, space, keep), grid)
        assert fallback_nodes

    def test_coarse_grid_same_message(self):
        # Stationary nodes ride the fast path; the Fourier jump at node 5
        # leaves every overlap at 1/3 and raises as the per-node loop does.
        f = np.exp(2j * np.pi / 3 * np.outer(np.arange(3), np.arange(3))) / np.sqrt(3)
        w0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        states = [w0] * 5 + [f @ w0 @ f.conj().T] * 3
        grid = np.arange(8.0)
        with pytest.raises(AmbiguousContinuation) as ref:
            per_node_track(states, grid)
        with pytest.raises(AmbiguousContinuation) as got:
            track(states, grid)
        assert str(got.value) == str(ref.value)
        assert "at t=5.0;" in str(got.value)


class TestTrackingMargins:
    def test_uniform_rotation(self):
        # Directions turn by omega*h per step: overlap cos^2(omega h).
        omega, grid = 2.0, np.linspace(0.0, 1.0, 101)
        states = []
        for t in grid:
            r = np.array([[np.cos(omega * t), -np.sin(omega * t)],
                          [np.sin(omega * t), np.cos(omega * t)]])
            states.append(r @ np.diag([0.7, 0.3]) @ r.T)
        traj = track(states, grid)
        assert abs(traj.min_overlap - np.cos(omega * 0.01) ** 2) <= 1e-12
        assert abs(traj.min_gap - 0.4) <= 1e-12

    def test_crossing_gap(self):
        grid = np.linspace(0, np.pi, 1000)
        traj = track(crossing_family(1.0, grid), grid)
        assert traj.min_gap == pytest.approx(np.abs(np.cos(2 * grid)).min(), abs=1e-12)
        assert abs(traj.min_overlap - 1.0) <= 1e-12

    def test_single_node_and_label(self):
        traj = track([np.eye(1, dtype=complex)], [0.0])
        assert traj.min_overlap == 1.0 and traj.min_gap is None


class TestTrack:
    def test_crossing_family_projectors_stay_constant(self):
        grid = np.linspace(0, np.pi, 3142)
        traj = track(crossing_family(1.0, grid), grid)
        proj = traj.projectors
        # Tracked projectors are constant through both weight crossings.
        assert np.abs(proj - proj[0]).max() <= 1e-10
        assert np.allclose(traj.weights[:, 0], np.cos(grid) ** 2, atol=1e-12)

    def test_stationary_state(self, rng):
        w = np.diag([0.5, 0.3, 0.2]).astype(complex)
        grid = np.linspace(0, 1, 50)
        traj = track([w] * 50, grid)
        assert np.abs(traj.projectors - traj.projectors[0]).max() <= 1e-12
        assert not detect_crossings(traj, 1e-3)

    def test_rotation_family_matches_closed_form(self, rng):
        h = random_hermitian(rng, 3)
        w0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        grid = np.arange(0, 1.0 + 1e-9, 1e-3)
        traj = track(rotation_family(h, w0, grid), grid)
        for k in (0, 250, 500, 999):
            u = expm(-1j * h * grid[k])
            for i in range(3):
                expected = u @ np.diag([1.0 * (j == i) for j in range(3)]) @ u.conj().T
                assert np.abs(traj.projectors[k, i] - expected).max() <= 1e-6

    def test_label_permanence(self, rng):
        h = random_hermitian(rng, 3)
        w0 = np.diag([0.6, 0.3, 0.1]).astype(complex)
        grid = np.linspace(0, 0.5, 100)
        states = rotation_family(h, w0, grid)
        t1 = track(states, grid)
        t2 = track([s.copy() for s in states], grid)
        assert np.array_equal(t1.weights, t2.weights)
        assert np.array_equal(t1.vectors, t2.vectors)

    def test_orthogonality_invariant(self, rng):
        h = random_hermitian(rng, 4)
        w0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        grid = np.linspace(0, 1, 200)
        traj = track(rotation_family(h, w0, grid), grid)
        for k in (0, 99, 199):
            pk = traj.projectors[k]
            for i in range(4):
                for j in range(i + 1, 4):
                    assert np.abs(pk[i] @ pk[j]).max() <= 1e-8

    def test_identity_resolution(self, rng):
        h = random_hermitian(rng, 3)
        w0 = np.diag([0.5, 0.5, 0.0]).astype(complex)   # degenerate pair tracked too
        grid = np.linspace(0, 0.3, 40)
        traj = track(rotation_family(h, w0, grid), grid)
        for k in (0, 20, 39):
            total = traj.projectors[k].sum(axis=0)
            assert np.abs(total - np.eye(3)).max() <= 1e-8
            assert abs(traj.weights[k].sum() - 1.0) <= 1e-8

    def test_grid_refinement_convergence(self, rng):
        h = random_hermitian(rng, 3)
        w0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        errs = []
        for step in (2e-3, 1e-3):
            grid = np.arange(0, 0.5 + 1e-9, step)
            traj = track(rotation_family(h, w0, grid), grid)
            u = expm(-1j * h * grid[-1])
            p0 = u @ np.diag([1.0, 0, 0]) @ u.conj().T
            errs.append(np.abs(traj.projectors[-1, 0] - p0).max())
        # Both fine grids track essentially exactly; no blowup on refinement.
        assert errs[1] <= errs[0] + 1e-9

    def test_ambiguous_continuation_on_coarse_grid(self):
        # A Fourier rotation in one step leaves every assignment overlap at 1/3.
        f = np.exp(2j * np.pi / 3 * np.outer(np.arange(3), np.arange(3))) / np.sqrt(3)
        w0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        states = [w0, f @ w0 @ f.conj().T]
        with pytest.raises(AmbiguousContinuation, match="refine"):
            track(states, np.array([0.0, 1.0]))

    def test_input_validation(self):
        w = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="increasing"):
            track([w, w], np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="equal length"):
            track([w], np.array([0.0, 1.0]))


class TestProjectorDerivative:
    def test_constant_trajectory_zero(self):
        grid = np.linspace(0, 1, 20)
        w = np.diag([0.7, 0.3]).astype(complex)
        traj = track([w] * 20, grid)
        for d in derivative_family(traj.projectors, grid)[7]:
            assert np.abs(d).max() <= 1e-12

    def test_rotation_matches_commutator(self, rng):
        h = random_hermitian(rng, 3)
        w0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        step = 1e-3
        grid = np.arange(0, 0.2 + 1e-9, step)
        traj = track(rotation_family(h, w0, grid), grid)
        k = 100
        derivs = derivative_family(traj.projectors, grid)[k]
        for i, d in enumerate(derivs):
            p = traj.projectors[k, i]
            expected = -1j * (h @ p - p @ h)
            assert np.abs(d - expected).max() <= 10 * step ** 2 * np.abs(h).max() ** 3

    def test_derivatives_sum_to_zero(self, rng):
        h = random_hermitian(rng, 4)
        w0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        grid = np.arange(0, 0.1 + 1e-9, 1e-3)
        traj = track(rotation_family(h, w0, grid), grid)
        fam = derivative_family(traj.projectors, grid)
        for k in (0, 50, len(grid) - 1):
            assert np.abs(fam[k].sum(axis=0)).max() <= 1e-6

    def test_derivative_family_exact_on_quadratics(self, rng):
        # On a uniform and on a jittered grid the stencil differentiates
        # quadratics exactly, at interior nodes and at both endpoints, for
        # any value shape; it maps a constant family to exactly zero.
        uniform = 0.3 + 1e-3 * np.arange(40)
        jittered = uniform + rng.uniform(-3e-4, 3e-4, size=40)
        for grid in (uniform, jittered):
            for shape in ((), (3,), (2, 3, 3)):
                t = grid.reshape((-1,) + (1,) * len(shape))
                a, b, c = (rng.normal(size=shape) for _ in range(3))
                exact = b + 2 * c * t
                assert np.abs(derivative_family(a + b * t + c * t ** 2, grid)
                              - exact).max() <= 1e-8
        constant = np.broadcast_to(rng.normal(size=(2, 3)), (40, 2, 3))
        assert np.all(derivative_family(constant, uniform) == 0.0)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="three nodes"):
            derivative_family(np.zeros((2, 4)), np.array([0.0, 1e-3]))

    def test_hermitian_estimates(self, rng):
        h = random_hermitian(rng, 3)
        w0 = np.diag([0.6, 0.3, 0.1]).astype(complex)
        grid = np.arange(0, 0.02 + 1e-9, 1e-3)
        traj = track(rotation_family(h, w0, grid), grid)
        for d in derivative_family(traj.projectors, grid)[10]:
            assert np.abs(d - d.conj().T).max() <= 1e-8


class TestRuns:
    def test_empty_mask(self):
        assert _runs(np.zeros(0, dtype=bool)) == []
        assert _runs(np.zeros(5, dtype=bool)) == []

    def test_all_true(self):
        assert _runs(np.ones(5, dtype=bool)) == [(0, 4)]

    def test_single_node_runs(self):
        assert _runs(np.array([True, False, True, False, False, True, False])) \
            == [(0, 0), (2, 2), (5, 5)]

    def test_run_touching_last_node(self):
        assert _runs(np.array([False, True, True, False, True, True, True])) \
            == [(1, 2), (4, 6)]


class TestNearestNode:
    """The nearest-node lookup agrees with ``argmin(abs(grid - t))``."""

    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_matches_argmin(self, rng, jitter):
        grid = np.linspace(0.0, 2.0, 201)
        grid[1:-1] += jitter * 0.01 * rng.uniform(-1, 1, 199)
        times = np.concatenate([
            rng.uniform(-0.1, 2.1, 2000),          # random, some off the grid
            grid,                                   # exact nodes
            0.5 * (grid[:-1] + grid[1:]),           # midpoints: ties go low
        ])
        expect = [int(np.argmin(np.abs(grid - t))) for t in times]
        assert _nearest_node(grid, times).tolist() == expect
        assert [int(_nearest_node(grid, t)) for t in times] == expect

    def test_exact_tie_takes_lower_index(self):
        grid = np.array([0.0, 0.5, 1.0, 1.5])
        assert _nearest_node(grid, np.array([0.25, 0.75, 1.25])).tolist() == [0, 1, 2]


class TestDetectCrossings:
    def test_crossing_family_localization(self):
        step = 1e-3
        grid = np.arange(0, np.pi + 1e-9, step)
        traj = track(crossing_family(1.0, grid), grid)
        events = detect_crossings(traj, 0.01)
        assert len(events) == 2
        mins = sorted(ev.t_min for ev in events)
        assert abs(mins[0] - np.pi / 4) <= step
        assert abs(mins[1] - 3 * np.pi / 4) <= step

    def test_separated_weights_empty(self):
        grid = np.linspace(0, 1, 30)
        w = np.diag([0.8, 0.2]).astype(complex)
        traj = track([w] * 30, grid)
        assert not detect_crossings(traj, 0.1)

    def test_infinite_threshold_reports_everything(self):
        grid = np.linspace(0, 1, 30)
        w = np.diag([0.8, 0.2]).astype(complex)
        traj = track([w] * 30, grid)
        events = detect_crossings(traj, np.inf)
        assert len(events) == 1
        ev = events[0]
        assert ev.t_start == grid[0] and ev.t_end == grid[-1]

    def test_gap_nonnegative(self):
        grid = np.linspace(0, np.pi, 500)
        traj = track(crossing_family(1.0, grid), grid)
        for ev in detect_crossings(traj, 0.05):
            assert ev.min_gap >= 0


def refined_projectors(block):
    """Rank-1 projectors of the reference splitting of the block's span."""
    dim = block.shape[0]
    out = spectral._refine_block(block, spectral._reference_operator(dim))
    return [projector_from_vector(out[:, k]) for k in range(out.shape[1])]


class TestFiduciaryRefine:
    """The reference splitting of degenerate blocks that ``track`` applies at node 0."""

    def test_identity_three_dim(self):
        out = refined_projectors(np.eye(3, dtype=complex))
        assert len(out) == 3
        total = sum(out)
        assert np.abs(total - np.eye(3)).max() <= 1e-8
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(out[i] @ out[j]).max() <= 1e-8

    def test_rank_three_gives_three_parts(self, rng):
        basis = np.linalg.qr(rng.normal(size=(5, 5))
                             + 1j * rng.normal(size=(5, 5)))[0][:, :3]
        p = basis @ basis.conj().T
        out = refined_projectors(basis)
        assert len(out) == 3
        assert np.abs(sum(out) - p).max() <= 1e-8
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(out[i] @ out[j]).max() <= 1e-8

    def test_deterministic(self, rng):
        basis = np.linalg.qr(rng.normal(size=(4, 4)))[0][:, :2].astype(complex)
        a = refined_projectors(basis)
        b = refined_projectors(basis.copy())
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        # Another basis of the same plane splits it the same way.
        turn = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        for x, y in zip(a, refined_projectors(basis @ turn)):
            assert np.abs(x - y).max() <= 1e-10
