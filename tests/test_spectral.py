import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from modaldyn import spectral
from modaldyn.config import DEFAULT
from modaldyn.errors import AmbiguousContinuation
from modaldyn.hilbert import FactorSpace, evolve_on_grid, partial_trace, projector_from_vector
from modaldyn.pipeline import compute_joint_family
from modaldyn.scenario import BUILTINS, TimeSpec
from modaldyn.spectral import (_nearest_node, _runs, connections, detect_crossings,
                               derivative_family, track)

from conftest import SINGLET, five_point, random_hermitian, random_ket, random_system

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


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


def hungarian_step(prev, vecs, clusters):
    """Reference step: the Hungarian method on the overlaps picks each label's
    column, then each cluster is polar-aligned to its labels."""
    dim = len(prev)
    overlap = np.abs(prev.conj() @ vecs) ** 2
    _, col_of_label = linear_sum_assignment(-overlap)
    new_vecs = np.empty_like(prev)
    for cluster in clusters:
        cols = list(cluster)
        labels = [l for l in range(dim) if col_of_label[l] in cluster]
        if len(cols) == 1:
            lab = labels[0]
            v = vecs[:, cols[0]]
            z = np.vdot(prev[lab], v)
            if abs(z) > 0:
                v = v * (z.conjugate() / abs(z))
            new_vecs[lab] = v
        else:
            aligned = spectral._polar_align(vecs[:, cols], prev[labels].T)
            for j, lab in enumerate(labels):
                new_vecs[lab] = aligned[:, j]
    return new_vecs, col_of_label


def descending_eig(state):
    """Descending eigenpairs of ``state`` and its clusters by the degeneracy gap."""
    vals, vecs = np.linalg.eigh(state)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    ends = [k + 1 for k in range(len(vals) - 1) if vals[k] - vals[k + 1] > DEFAULT.degeneracy]
    bounds = [0, *ends, len(vals)]
    return vals, vecs, [tuple(range(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


def per_node_track(states, grid):
    """Reference: one eigendecomposition and one Hungarian solve per node."""
    grid = np.asarray(grid, dtype=float)
    states = [np.asarray(s, dtype=complex) for s in states]
    n, dim = len(grid), states[0].shape[0]
    weights = np.empty((n, dim))
    vectors = np.empty((n, dim, dim), dtype=complex)
    vals, vecs0, clusters = descending_eig(states[0])
    vecs0 = vecs0.copy()
    for cluster in clusters:
        cols = list(cluster)
        if len(cols) == 1:
            vecs0[:, cols] = spectral._fix_phase(vecs0[:, cols])
        else:
            vecs0[:, cols] = spectral._refine_block(vecs0[:, cols])
    weights[0] = vals
    vectors[0] = vecs0.T
    for k in range(1, n):
        vals, vecs, clusters = descending_eig(states[k])
        prev = vectors[k - 1]
        new_vecs, col_of_label = hungarian_step(prev, vecs, clusters)
        for lab in range(dim):
            o = abs(np.vdot(prev[lab], new_vecs[lab])) ** 2
            if o < 0.5:
                raise AmbiguousContinuation(
                    f"label {lab} overlap {o:.3f} < 0.5 at "
                    f"t={float(grid[k])}; refine the grid"
                )
        vectors[k] = new_vecs
        weights[k] = vals[col_of_label]
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
        # those nodes are maximally mixed 2x2 states that keep the previous
        # frame, and their successors take the per-node step; the swaps
        # between other nodes compose on the fast path.
        grid = np.linspace(0, np.pi, 2001)
        states = np.asarray(crossing_family(1.0, grid), dtype=complex)
        assert_matches_per_node(states, grid)
        assert fallback_nodes == [501, 1501]

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

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_maximally_mixed_keeps_frame(self, rng, fallback_nodes, dim):
        # A fresh random unitary per node makes the eigh bases jump; every
        # direction is an eigendirection, so the frame of node 0 is kept.
        grid = np.linspace(0, 1, 40)
        states = [u @ (np.eye(dim) / dim) @ u.conj().T
                  for u in (random_unitary(rng, dim) for _ in grid)]
        traj = assert_matches_per_node(states, grid)
        assert fallback_nodes == []
        assert all(np.array_equal(v, traj.vectors[0]) for v in traj.vectors)

    def test_singlet_keeps_frame(self, fallback_nodes):
        space = FactorSpace((2, 2))
        grid = np.arange(0, 0.5 + 1e-9, 1e-3)
        pure = np.repeat(np.outer(SINGLET, SINGLET.conj())[None], len(grid), axis=0)
        for keep in (0, 1):
            traj = assert_matches_per_node(partial_trace(pure, space, keep), grid)
            assert all(np.array_equal(v, traj.vectors[0]) for v in traj.vectors)
        assert fallback_nodes == []

    def test_mixed_stretches_between_rotations(self, rng, fallback_nodes):
        # Weights (0.5, 0.3, 0.2) on a rotating frame, replaced by I/3 in a
        # random basis on three stretches.  The frame stands still over a
        # stretch, so the node after it continues the node before it; only
        # that node takes the per-node step.
        grid = np.arange(0, 1.0 + 1e-9, 1e-3)
        mixed = np.zeros(len(grid), dtype=bool)
        mixed[200:300] = mixed[500] = mixed[700:850] = True
        h = random_hermitian(rng, 3)
        angle = 1e-3 * np.cumsum(~mixed)
        w0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        states = []
        for is_mixed, a in zip(mixed, angle):
            u = random_unitary(rng, 3) if is_mixed else expm(-1j * h * a)
            states.append(u @ (np.eye(3) / 3 if is_mixed else w0) @ u.conj().T)
        assert_matches_per_node(states, grid)
        assert fallback_nodes == [300, 501, 850]

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


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def clustered_nodes(draw):
    """One per-node step's inputs: descending values in 1-3-column clusters,
    a random unitary eigenbasis, the previous node's labeled rows (the
    columns moved by exp(i eps H), then shuffled), and four copies of the
    eigenbasis with each cluster's columns rotated by a random unitary."""
    dim = draw(st.integers(3, 5))
    sizes = []
    while sum(sizes) < dim:
        sizes.append(draw(st.integers(1, min(3, dim - sum(sizes)))))
    eps = draw(st.floats(0.3, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.repeat(np.sort(rng.uniform(0.0, 1.0, len(sizes)))[::-1], sizes)
    basis = random_unitary(rng, dim)
    w, v = np.linalg.eigh(random_hermitian(rng, dim))
    prev = (basis @ (v * np.exp(1j * eps * w)) @ v.conj().T).T[rng.permutation(dim)]
    starts = np.cumsum([0] + sizes[:-1])
    rotated = []
    for _ in range(4):
        other = basis.copy()
        for a, m in zip(starts, sizes):
            other[:, a:a + m] = other[:, a:a + m] @ random_unitary(rng, m)
        rotated.append(other)
    return prev, values, basis, rotated


def largest_share(prev, values, basis):
    split = values[:-1] - values[1:] > DEFAULT.degeneracy
    return spectral._continue(prev, values[None], basis[None], split[None], 0)[1]


def hungarian(prev, values, basis):
    split = values[:-1] - values[1:] > DEFAULT.degeneracy
    return hungarian_step(prev, basis, np.split(np.arange(len(values)),
                                                np.flatnonzero(split) + 1))[0]


def accepted(step, prev, values, basis):
    """The step's vectors if every label passes ``track``'s overlap check."""
    new = step(prev, values, basis)
    o = np.abs(np.einsum("lx,lx->l", prev.conj(), new)) ** 2
    return None if (o < DEFAULT.overlap_threshold).any() else new


class TestLargestShare:
    """The per-node step on random clustered nodes, one step at a time."""

    @PROPERTY
    @given(clustered_nodes())
    def test_accepts_every_step_hungarian_accepts(self, node):
        prev, values, basis, _ = node
        ref = accepted(hungarian, prev, values, basis)
        if ref is not None:
            got = accepted(largest_share, prev, values, basis)
            assert got is not None and np.array_equal(got, ref)

    @PROPERTY
    @given(clustered_nodes())
    def test_cluster_basis_does_not_change_outcome(self, node):
        # Only a cluster's projection is defined; the eigensolver's basis
        # inside it is arbitrary and must not decide acceptance.
        prev, values, basis, rotated = node
        got = accepted(largest_share, prev, values, basis)
        for other in rotated:
            alt = accepted(largest_share, prev, values, other)
            assert (alt is None) == (got is None)
            if got is not None:
                assert np.abs(alt - got).max() <= 1e-12


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
        assert not detect_crossings(traj)

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


def stencil_miss(traj, conn, step):
    """Per node from node 2 to n-3, the largest gap between the connection
    and U^dag times the 5-point stencil of the tracked U, over label pairs
    whose weights stay apart by more than the degeneracy gap.
    The diagonal and pairs inside a cluster are gauge: the tracker's
    discrete alignment moves them at O(step^2), where the connection reads 0.
    """
    v = traj.vectors
    stencil = v[2:-2].conj() @ five_point(v, step).swapaxes(1, 2)
    w = traj.weights
    apart = (np.abs(w[:, :, None] - w[:, None, :]) > DEFAULT.degeneracy).all(axis=0)
    return np.abs(stencil - conn[2:-2])[:, apart].max(axis=1)


def miss_ratio(coarse, fine):
    """The coarse grid's largest miss over the fine grid's at the same times:
    coarse node j is fine node 2j."""
    return coarse.max() / fine[2::2][: len(coarse)].max()


def avoided_crossing(step, gap=1e-3, t0=0.2, half=0.02):
    """rho = (1 + r.sigma) / 2 on [t0 - half, t0 + half] with r = (gap cos 3t,
    gap sin 3t, t - t0): the two weights pass within ``gap`` at t0."""
    grid = t0 + step * np.arange(-round(half / step), round(half / step) + 1)
    sigma = np.stack([np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                      np.diag([1.0, -1.0])]).astype(complex)
    r = np.stack([gap * np.cos(3 * grid), gap * np.sin(3 * grid), grid - t0], axis=1)
    dr = np.stack([-3 * gap * np.sin(3 * grid), 3 * gap * np.cos(3 * grid),
                   np.ones_like(grid)], axis=1)
    rho = 0.5 * (np.eye(2) + np.einsum("ni,ixy->nxy", r, sigma))
    return grid, rho, 0.5 * np.einsum("ni,ixy->nxy", dr, sigma)


class TestConnections:
    """``connections`` against U^dag dU/dt of the tracked U by a 5-point
    stencil at steps h and h/2: on times both grids share, the miss must
    fall by a factor in [12, 20], the stencil's 16 within its own
    higher-order terms."""

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 4)])
    def test_random_systems_match_stencil(self, dims):
        misses = []
        for step in (0.01, 0.005):
            sc = random_system(0, dims)
            family = compute_joint_family(replace(sc, time=TimeSpec(0.0, 0.4, step)))
            misses.append([stencil_miss(traj, conn, step) for traj, conn
                           in zip(family.factor_trajectories, family.connections)])
        for coarse, fine in zip(*misses):
            assert 12 <= miss_ratio(coarse, fine) <= 20

    def test_avoided_crossing_matches_stencil(self):
        misses = []
        for step in (1e-4, 5e-5):
            grid, rho, rho_dot = avoided_crossing(step)
            traj = track(rho, grid)
            assert abs(traj.min_gap - 1e-3) <= 1e-9
            misses.append(stencil_miss(traj, connections(traj, rho_dot), step))
        assert 12 <= miss_ratio(*misses) <= 20

    def test_zero_where_weights_degenerate(self):
        # At crossing_family's crossing node, in the singlet (every node
        # maximally mixed) and on the zero-weight pair of a (2, 4) system.
        cases = []
        grid = np.linspace(0.0, np.pi / 2, 201)
        rho = np.asarray(crossing_family(1.0, grid), dtype=complex)
        rho_dot = -np.sin(2 * grid)[:, None, None] * np.diag([1.0, -1.0])
        traj = track(rho, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cases.append((traj, connections(traj, rho_dot), [(100, 0, 1)]))
            singlet = compute_joint_family(BUILTINS["singlet"]().validate())
            mixed = compute_joint_family(random_system(0, (2, 4)))
        n = len(singlet.grid)
        for traj, conn in zip(singlet.factor_trajectories, singlet.connections):
            cases.append((traj, conn, [(k, 0, 1) for k in range(n)]))
        traj, conn = mixed.factor_trajectories[1], mixed.connections[1]
        cases.append((traj, conn, [(k, 2, 3) for k in range(len(mixed.grid))]))
        for traj, conn, pairs in cases:
            for k, a, b in pairs:
                assert abs(traj.weights[k, a] - traj.weights[k, b]) <= DEFAULT.degeneracy
                assert conn[k, a, b] == 0 and conn[k, b, a] == 0
            assert not np.einsum("nii->ni", conn).any()
            skew = np.abs(conn + conn.conj().swapaxes(1, 2)).max()
            assert skew <= 1e-14 * max(1.0, np.abs(conn).max())

    def test_shape_mismatch_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        traj = track(np.asarray(crossing_family(1.0, grid), dtype=complex), grid)
        with pytest.raises(ValueError, match="rho_dot has shape"):
            connections(traj, np.zeros((5, 3, 3)))


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
        events = detect_crossings(traj)
        assert len(events) == 2
        mins = sorted(ev.t_min for ev in events)
        assert abs(mins[0] - np.pi / 4) <= step
        assert abs(mins[1] - 3 * np.pi / 4) <= step

    def test_separated_weights_empty(self):
        grid = np.linspace(0, 1, 30)
        w = np.diag([0.8, 0.2]).astype(complex)
        traj = track([w] * 30, grid)
        assert not detect_crossings(traj)

    def test_weights_within_the_gap_report_everything(self):
        grid = np.linspace(0, 1, 30)
        w = np.diag([0.504, 0.496]).astype(complex)
        traj = track([w] * 30, grid)
        events = detect_crossings(traj)
        assert len(events) == 1
        ev = events[0]
        assert ev.t_start == grid[0] and ev.t_end == grid[-1]

    def test_gap_nonnegative(self):
        grid = np.linspace(0, np.pi, 500)
        traj = track(crossing_family(1.0, grid), grid)
        events = detect_crossings(traj)
        assert len(events) == 2
        for ev in events:
            assert ev.min_gap >= 0


def refined_projectors(block):
    """Rank-1 projectors of the reference splitting of the block's span."""
    out = spectral._refine_block(block)
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


class TestNodeZeroFrame:
    """Node 0 of ``track``: descending weights, phase-fixed directions, and
    degenerate clusters split along diag(d-1, ..., 1, 0)."""

    def test_diagonal_case(self):
        traj = track([np.diag([3.0, 1.0, 2.0]).astype(complex)], [0.0])
        assert np.array_equal(traj.weights[0], [3, 2, 1])
        assert np.array_equal(traj.vectors[0], [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_reconstruction_and_orthonormality(self, rng):
        for dim in (2, 3, 5, 8):
            a = random_hermitian(rng, dim)
            traj = track([a], [0.0])
            w, v = traj.weights[0], traj.vectors[0]          # row i: label i
            assert np.abs((v.T * w) @ v.conj() - a).max() <= 1e-9
            assert np.abs(v.conj() @ v.T - np.eye(dim)).max() <= 1e-10

    def test_descending_order(self, rng):
        traj = track([random_hermitian(rng, 6)], [0.0])
        assert np.all(np.diff(traj.weights[0]) <= 0)

    def test_degenerate_cluster_split(self, rng):
        # The (0.5, 0.5) cluster splits into eigenvectors of diag(2, 1, 0)
        # compressed to the cluster, by descending compressed eigenvalue.
        u = random_unitary(rng, 3)
        traj = track([u @ np.diag([0.5, 0.5, 0.1]) @ u.conj().T], [0.0])
        assert np.abs(traj.weights[0] - [0.5, 0.5, 0.1]).max() <= 1e-12
        p = u[:, :2] @ u[:, :2].conj().T
        compressed = p @ np.diag([2.0, 1.0, 0.0]) @ p
        mu = [np.vdot(v, compressed @ v).real for v in traj.vectors[0, :2]]
        assert mu[0] > mu[1]
        for v, m in zip(traj.vectors[0, :2], mu):
            assert np.abs(compressed @ v - m * v).max() <= 1e-10

    def test_deterministic_rerun(self, rng):
        a = random_hermitian(rng, 5)
        t1, t2 = track([a], [0.0]), track([a.copy()], [0.0])
        assert np.array_equal(t1.weights, t2.weights)
        assert np.array_equal(t1.vectors, t2.vectors)


def drifting_family(weights, n=50):
    """``U diag(weights) U^dag`` on ``n`` nodes of [0, 1], with ``U = exp(-iHt) U0``
    for one random Hermitian ``H`` and one random unitary ``U0``."""
    rng = np.random.default_rng(7)
    dim = len(weights)
    e, v = np.linalg.eigh(random_hermitian(rng, dim))
    u0 = random_unitary(rng, dim)
    grid = np.linspace(0.0, 1.0, n)
    u = (v * np.exp(-1j * np.outer(grid, e))[:, None, :]) @ v.conj().T @ u0
    return (u * np.asarray(weights)) @ u.conj().swapaxes(1, 2), grid


def node0_fixtures():
    space = FactorSpace((2, 2))
    grid = np.arange(0, 0.5 + 1e-9, 1e-3)
    pure = np.repeat(np.outer(SINGLET, SINGLET.conj())[None], len(grid), axis=0)
    for keep in (0, 1):
        yield f"singlet/{keep}", partial_trace(pure, space, keep), grid
    for w in ([0.4, 0.4, 0.2], [0.3, 0.3, 0.2, 0.2], [0.25] * 4, [0.5, 0.5]):
        yield f"drift{w}", *drifting_family(w)


# SHA-256 of ``track(...).vectors`` and ``.weights`` on fixtures that are
# degenerate at node 0, recorded while the node-0 split still went through a
# general eigendecomposition with an exact-tie sort (commit ffe3dc6).
NODE0_GOLDEN = {
    "singlet/0": (
        "1806810b1a8bc6051bf1b0fe9c9450c130bab3dcbf939c23370d3eaf996ba691",
        "dc61d738ccbd6eed38b4a1007f26ada71fbdf5dc8ce7adc70f0abb1d7bad5da0"),
    "singlet/1": (
        "1806810b1a8bc6051bf1b0fe9c9450c130bab3dcbf939c23370d3eaf996ba691",
        "dc61d738ccbd6eed38b4a1007f26ada71fbdf5dc8ce7adc70f0abb1d7bad5da0"),
    "drift[0.4, 0.4, 0.2]": (
        "1f7b4bf52284cb6a25362230e6592d8bf19a4c95635a4b069730f872a5a6bff2",
        "2c7b3c36a1f7ff636875554734ff55b4b751da4de0ae9184bd2b0aec5eac727a"),
    "drift[0.3, 0.3, 0.2, 0.2]": (
        "fa34518b235bbe5772bab22c8505136270ab7495435079444a187e5bbc0ad1b5",
        "82a3ecda1d610e67d6ecc6f055aff9f98e154494302f5752b79173842db8830a"),
    "drift[0.25, 0.25, 0.25, 0.25]": (
        "47e2ccec1625e516ba723fc148fb3ada513031809e3e6ba8a17bec30ea23f03d",
        "21b3199f06262177f8bcc22669072457ed76690044c9b91f2dc4ab41fa509727"),
    "drift[0.5, 0.5]": (
        "24755b5cda9fb009cdca0a2bc6c881dc2b1821a9cba69eb3dbded99739637dfa",
        "d065affc8cfccfea5cfe06afd301da17a8f5759b596bac017804816d76f55a23"),
}


@pytest.mark.golden
def test_node0_splits_are_pinned():
    got = {}
    for name, states, grid in node0_fixtures():
        traj = track(states, grid)
        got[name] = (hashlib.sha256(traj.vectors.tobytes()).hexdigest(),
                     hashlib.sha256(traj.weights.tobytes()).hexdigest())
    assert got == NODE0_GOLDEN
