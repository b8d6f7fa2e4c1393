"""Continuous tracking of eigenprojection families through weight crossings.

A time-indexed family of density operators is decomposed node by node and
the one-dimensional eigendirections are threaded into continuous labeled
trajectories.  Label assignment between consecutive nodes maximizes the
total squared eigenvector overlap (solved exactly with the Hungarian
method); near-degenerate clusters are continued as a whole and then split
by maximal overlap with the previous node's directions.  Zero-weight
directions are tracked like any other, so the label set never changes
cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import DEFAULT, Tolerances
from .errors import AmbiguousContinuation
from .hilbert import check_hermitian, hermitian_eig, projector_from_vector

__all__ = [
    "CrossingEvent",
    "CrossingReport",
    "SpectralTrajectory",
    "detect_crossings",
    "fiduciary_refine",
    "derivative_family",
    "track",
]


@dataclass(frozen=True)
class SpectralTrajectory:
    """Labeled one-dimensional spectral directions over a time grid.

    ``vectors[k, i]`` is the unit vector of label ``i`` at node ``k``;
    ``weights[k, i]`` the matching eigenvalue.  Projectors are the rank-1
    outer products of the vectors, exposed through :attr:`projectors`.
    """

    grid: np.ndarray                      # (n,)
    weights: np.ndarray                   # (n, d)
    vectors: np.ndarray                   # (n, d, dim)

    @property
    def n_nodes(self) -> int:
        return len(self.grid)

    @property
    def n_labels(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.vectors.shape[2]

    @property
    def projectors(self) -> np.ndarray:
        """Array of shape ``(n, d, dim, dim)`` with the tracked projectors."""
        return np.einsum("kix,kiy->kixy", self.vectors, self.vectors.conj())

    def projectors_at(self, k: int) -> np.ndarray:
        v = self.vectors[k]
        return np.einsum("ix,iy->ixy", v, v.conj())


@dataclass(frozen=True)
class CrossingEvent:
    t_start: float
    t_end: float
    labels: tuple[int, int]
    min_gap: float
    t_min: float


@dataclass(frozen=True)
class CrossingReport:
    events: tuple[CrossingEvent, ...] = field(default_factory=tuple)

    @property
    def empty(self) -> bool:
        return len(self.events) == 0


def _reference_operator(dim: int, reference) -> np.ndarray:
    if reference is None:
        return np.diag(np.arange(dim - 1, -1, -1, dtype=float)).astype(complex)
    return check_hermitian(reference)


def _refine_block(block_vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Split a degenerate block deterministically along a reference operator.

    ``block_vectors`` has the block basis as columns; the returned columns
    are the eigenvectors of the reference restricted to the block, ordered
    by descending restricted eigenvalue with lexicographic tie-breaking.
    """
    restricted = block_vectors.conj().T @ reference @ block_vectors
    sub = hermitian_eig(restricted)
    out = block_vectors @ sub.vectors
    for k in range(out.shape[1]):
        v = out[:, k]
        j = int(np.argmax(np.abs(v)))
        z = v[j]
        if abs(z) > 0:
            out[:, k] = v * (abs(z) / z)
    return out


def _polar_align(block_vectors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rotate a degenerate block to sit closest to the target directions.

    ``targets`` holds the previous node's vectors as columns.  The unitary
    polar factor of the overlap matrix minimizes the total displacement, so
    the returned columns are the in-block frame of maximal overlap, matched
    one-to-one with the target order.
    """
    overlap = block_vectors.conj().T @ targets
    u, _, vh = np.linalg.svd(overlap)
    return block_vectors @ (u @ vh)


def fiduciary_refine(projectors, reference=None, tol: Tolerances = DEFAULT) -> list[np.ndarray]:
    """Split projectors into one-dimensional mutually orthogonal pieces.

    Each rank-r input is replaced by r rank-1 projectors that sum to it.
    The splitting basis comes from a fixed reference operator restricted to
    the subspace, so the refinement is deterministic.  Rank-1 inputs pass
    through unchanged; rank-0 inputs contribute nothing.
    """
    out: list[np.ndarray] = []
    ref = None
    for p in projectors:
        p = check_hermitian(p, tol)
        dev = np.abs(p @ p - p).max()
        if dev > tol.idempotency:
            raise ValueError(f"input is not idempotent (max |P^2 - P| = {dev:.3e})")
        rank = int(round(float(p.trace().real)))
        if rank == 0:
            continue
        if rank == 1:
            out.append(p)
            continue
        if ref is None or ref.shape[0] != p.shape[0]:
            ref = _reference_operator(p.shape[0], reference)
        dec = hermitian_eig(p, tol)
        block = dec.vectors[:, :rank]
        if dec.values[:rank].min() < 1.0 - tol.idempotency:
            raise ValueError("projector eigenvalues are not within tolerance of 0/1")
        refined = _refine_block(block, ref)
        for k in range(rank):
            out.append(projector_from_vector(refined[:, k]))
    return out


def _initial_frame(w0: np.ndarray, reference, tol: Tolerances):
    dec = hermitian_eig(w0, tol)
    dim = dec.dim
    vectors = dec.vectors.copy()
    ref = None
    for cluster in dec.clusters:
        if len(cluster) < 2:
            continue
        if ref is None:
            ref = _reference_operator(dim, reference)
        cols = list(cluster)
        vectors[:, cols] = _refine_block(vectors[:, cols], ref)
    return dec.values.copy(), vectors


def track(states, grid, overlap_threshold: float | None = None,
          reference=None, tol: Tolerances = DEFAULT) -> SpectralTrajectory:
    """Thread the eigendirections of a state family into labeled trajectories.

    Parameters
    ----------
    states : sequence of arrays
        Density operators, one per grid node.
    grid : array
        Strictly increasing times, same length as ``states``.
    overlap_threshold : float, optional
        Minimum per-label squared overlap between consecutive nodes.  Below
        it the continuation is ambiguous and the grid needs refining.

    Raises
    ------
    AmbiguousContinuation
        If any label's continuation overlap falls below the threshold.
    """
    if overlap_threshold is None:
        overlap_threshold = tol.overlap_threshold
    grid = np.asarray(grid, dtype=float)
    states = [np.asarray(s, dtype=complex) for s in states]
    if grid.ndim != 1 or len(states) != len(grid) or len(grid) < 1:
        raise ValueError("states and grid must be nonempty and of equal length")
    if len(grid) > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("grid times must be strictly increasing")
    dim = states[0].shape[0]
    for s in states:
        if s.shape != (dim, dim):
            raise ValueError("all states must share one dimension")

    n = len(grid)
    weights = np.empty((n, dim))
    vectors = np.empty((n, dim, dim), dtype=complex)

    vals0, vecs0 = _initial_frame(check_hermitian(states[0], tol), reference, tol)
    weights[0] = vals0
    vectors[0] = vecs0.T               # row i is the vector of label i

    for k in range(1, n):
        dec = hermitian_eig(states[k], tol)
        prev = vectors[k - 1]
        overlap = np.abs(prev.conj() @ dec.vectors) ** 2   # (label, new column)
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
                aligned = _polar_align(dec.vectors[:, cols], prev[labels].T)
                for j, lab in enumerate(labels):
                    new_vecs[lab] = aligned[:, j]

        for lab in range(dim):
            o = abs(np.vdot(prev[lab], new_vecs[lab])) ** 2
            if o < overlap_threshold:
                raise AmbiguousContinuation(
                    f"label {lab} overlap {o:.3f} < {overlap_threshold} at "
                    f"t={float(grid[k])}; refine the grid"
                )
        vectors[k] = new_vecs
        weights[k] = dec.values[col_of_label]

    return SpectralTrajectory(grid=grid, weights=weights, vectors=vectors)


def _stencil(grid) -> tuple[np.ndarray, np.ndarray]:
    """Neighbours ``idx (n, 2)`` and weights ``w (n, 2)`` of the derivative stencil.

    Node ``k`` uses ``k-1, k+1`` inside, ``1, 2`` first and ``n-2, n-3``
    last; ``w1 (v[i1] - v[k]) + w2 (v[i2] - v[k])`` is exact for quadratics.
    """
    grid = np.asarray(grid, dtype=float)
    n = len(grid)
    if n < 3:
        raise ValueError("need at least three nodes for derivatives")
    k = np.arange(n)
    idx = np.stack([k - 1, k + 1], axis=1)
    idx[0] = (1, 2)
    idx[-1] = (n - 2, n - 3)
    d1, d2 = (grid[idx] - grid[:, None]).T
    w = np.stack([d2 / (d1 * (d2 - d1)), -d1 / (d2 * (d2 - d1))], axis=1)
    return idx, w


def derivative_family(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Time derivatives of a family of grid values at every node.

    ``values`` has shape ``(n, ...)``, one entry per node; the stencil is
    second order on any grid.  Tracked projectors differentiate to a family
    summing to zero, because they resolve the identity at every node.
    """
    idx, w = _stencil(grid)
    values = np.asarray(values)
    return np.einsum("nj,nj...->n...", w, values[idx] - values[:, None])


def _runs(mask) -> list[tuple[int, int]]:
    """Inclusive ``(start, end)`` index pairs of the runs of True in ``mask``."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def detect_crossings(traj: SpectralTrajectory, gap_threshold: float) -> CrossingReport:
    """Grid intervals on which two tracked weights come within ``gap_threshold``."""
    events = []
    w = traj.weights
    grid = traj.grid
    d = traj.n_labels
    for i in range(d):
        for j in range(i + 1, d):
            gaps = np.abs(w[:, i] - w[:, j])
            for start, end in _runs(gaps <= gap_threshold):
                seg = gaps[start:end + 1]
                arg = start + int(np.argmin(seg))
                events.append(CrossingEvent(
                    t_start=float(grid[start]), t_end=float(grid[end]),
                    labels=(i, j), min_gap=float(seg.min()), t_min=float(grid[arg]),
                ))
    return CrossingReport(events=tuple(events))
