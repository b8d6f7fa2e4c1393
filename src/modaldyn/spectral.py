"""Continuous tracking of eigenprojection families through weight crossings.

A time-indexed family of density operators is decomposed and the
one-dimensional eigendirections are threaded into continuous labeled
trajectories.  Label assignment between consecutive nodes maximizes the
total squared eigenvector overlap; near-degenerate clusters are continued
as a whole and then split by maximal overlap with the previous node's
directions.  Zero-weight directions are tracked like any other, so the
label set never changes cardinality.

:func:`track` decomposes the whole ``(n, d, d)`` stack with one stacked
``eigh`` and forms the overlaps ``|<u_r(k-1)|u_c(k)>|^2`` of consecutive
eigenbases as one array.  Two paths then assign labels:

* **Fast path.**  A node whose spectrum and predecessor's spectrum have no
  degenerate cluster, and whose overlap matrix has in every row an entry
  above 1/2 with those entries forming a permutation, needs no assignment
  solve.  The overlap matrix of two orthonormal bases is doubly
  stochastic, so every other entry of such a row is below 1/2: any other
  permutation takes a smaller entry in every row where it differs, and
  that permutation is the unique optimum of the Hungarian objective.
  Its overlaps, all above 1/2, also pass the overlap threshold, which is
  1/2.  Label maps compose along runs of such nodes (only where a column
  actually moves), and phases follow from a cumulative product of the
  unit overlaps, ``phi_k = phi_(k-1) conj(g_k) / |g_k|``.
* **Fallback.**  Every other node (a degenerate cluster at it or its
  predecessor, an overlap row without a dominant entry, or an overlap
  below the overlap threshold) takes the per-node step on the node's
  eigenpairs from the same stacked ``eigh``: the Hungarian method on the
  overlap matrix, then polar alignment of the clusters that the
  degeneracy gaps of the fast-path test delimit.  This covers
  singlet-like fully degenerate families, exact crossings and ambiguous
  continuations, which raise from this step.

The overlap threshold and the degeneracy gap are fixed values in
:mod:`modaldyn.config`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import DEFAULT
from .errors import AmbiguousContinuation
from .hilbert import _fix_phase, check_hermitian, hermitian_eig

__all__ = [
    "CrossingEvent",
    "SpectralTrajectory",
    "detect_crossings",
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
    def n_labels(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.vectors.shape[2]

    @property
    def projectors(self) -> np.ndarray:
        """Array of shape ``(n, d, dim, dim)`` with the tracked projectors."""
        return np.einsum("kix,kiy->kixy", self.vectors, self.vectors.conj())

    @property
    def min_overlap(self) -> float:
        """Smallest squared overlap of a label's direction with its direction
        one node earlier: how close tracking came to the overlap threshold."""
        v = self.vectors
        if len(v) < 2:
            return 1.0
        return float((np.abs(np.einsum("kix,kix->ki", v[:-1].conj(), v[1:])) ** 2).min())

    @property
    def min_gap(self) -> float | None:
        """Smallest gap between two weights at one node; ``None`` for one label."""
        if self.n_labels < 2:
            return None
        return float(np.diff(np.sort(self.weights, axis=1), axis=1).min())


@dataclass(frozen=True)
class CrossingEvent:
    t_start: float
    t_end: float
    labels: tuple[int, int]
    min_gap: float
    t_min: float


def _reference_operator(dim: int) -> np.ndarray:
    """The fixed splitting reference diag(dim-1, ..., 1, 0)."""
    return np.diag(np.arange(dim - 1, -1, -1, dtype=float)).astype(complex)


def _refine_block(block_vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Split a degenerate block deterministically along a reference operator.

    ``block_vectors`` has the block basis as columns; the returned columns
    are the eigenvectors of the reference restricted to the block, ordered
    by descending restricted eigenvalue with lexicographic tie-breaking.
    """
    restricted = block_vectors.conj().T @ reference @ block_vectors
    out = block_vectors @ hermitian_eig(restricted).vectors
    for k in range(out.shape[1]):
        out[:, k] = _fix_phase(out[:, k])
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


def _initial_frame(values: np.ndarray, vecs: np.ndarray, split: np.ndarray) -> np.ndarray:
    """Node 0's eigenvectors as columns, from its descending eigenpairs.

    ``split[c]`` says that a cluster ends after column ``c``.  Singleton
    columns are phase-fixed; clusters are split along the reference.
    """
    vecs = vecs.copy()
    ref = _reference_operator(len(values))
    for cols in np.split(np.arange(len(values)), np.flatnonzero(split) + 1):
        if len(cols) == 1:
            vecs[:, cols[0]] = _fix_phase(vecs[:, cols[0]])
        else:
            vecs[:, cols] = _refine_block(vecs[:, cols], ref)
    return vecs


def _continue(prev: np.ndarray, vals: np.ndarray, basis: np.ndarray,
              split: np.ndarray, k: int):
    """One per-node step from the labeled rows ``prev`` to node ``k``'s eigenbasis.

    ``vals`` and ``basis`` are the descending eigenpairs of the whole stack,
    and ``split[k, c]`` says that a cluster ends after column ``c`` at node
    ``k``.  Returns the weights and vectors in label order and the
    eigencolumn of each label.
    """
    values, vecs = vals[k], basis[k]
    dim = len(values)
    overlap = np.abs(prev.conj() @ vecs) ** 2          # (label, new column)
    _, col_of_label = linear_sum_assignment(-overlap)

    new_vecs = np.empty_like(prev)
    for cols in np.split(np.arange(dim), np.flatnonzero(split[k]) + 1):
        labels = [l for l in range(dim) if col_of_label[l] in cols]
        if len(cols) == 1:
            lab = labels[0]
            v = vecs[:, cols[0]]
            z = np.vdot(prev[lab], v)
            if abs(z) > 0:
                v = v * (z.conjugate() / abs(z))
            new_vecs[lab] = v
        else:
            aligned = _polar_align(vecs[:, cols], prev[labels].T)
            for j, lab in enumerate(labels):
                new_vecs[lab] = aligned[:, j]
    return values[col_of_label], new_vecs, col_of_label


def track(states, grid) -> SpectralTrajectory:
    """Thread the eigendirections of a state family into labeled trajectories.

    Parameters
    ----------
    states : array
        Density operators, one per grid node: an ``(n, d, d)`` stack or a
        sequence of ``(d, d)`` arrays.
    grid : array
        Strictly increasing times, same length as ``states``.

    Raises
    ------
    ValueError
        If a node's state is not finite and Hermitian; the first such node
        is named.
    AmbiguousContinuation
        If any label's squared overlap between consecutive nodes falls below
        the overlap threshold; the grid then needs refining.
    """
    grid = np.asarray(grid, dtype=float)
    try:
        states = np.asarray(states, dtype=complex)
    except ValueError as exc:
        raise ValueError("all states must share one dimension") from exc
    if grid.ndim != 1 or len(grid) < 1 or states.ndim < 1 or len(states) != len(grid):
        raise ValueError("states and grid must be nonempty and of equal length")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid times must be strictly increasing")
    if states.ndim != 3 or states.shape[1] != states.shape[2] or states.shape[1] < 1:
        raise ValueError("all states must share one dimension")
    check_hermitian(states)

    n, dim = states.shape[:2]
    vals, basis = np.linalg.eigh(states)
    vals, basis = vals[:, ::-1], basis[:, :, ::-1]        # descending, as hermitian_eig
    split = vals[:, :-1] - vals[:, 1:] > DEFAULT.degeneracy  # a cluster ends here
    plain = split.all(axis=1)
    # raw[k-1][r, c] = <column r at node k-1 | column c at node k>.
    raw = basis[:-1].conj().swapaxes(1, 2) @ basis[1:]
    overlap = np.abs(raw) ** 2
    step = overlap.argmax(axis=2)                         # column at k of column r at k-1
    best = np.take_along_axis(overlap, step[..., None], axis=2)[..., 0]
    fast = np.zeros(n, dtype=bool)
    fast[1:] = (plain[1:] & plain[:-1] & (best > 0.5).all(axis=1)
                & (np.sort(step, axis=1) == np.arange(dim)).all(axis=1))

    weights = np.empty((n, dim))
    vectors = np.empty((n, dim, dim), dtype=complex)
    weights[0] = vals[0]
    vectors[0] = _initial_frame(vals[0], basis[0], split[0]).T   # row i: label i
    col_of_label = np.arange(dim) if plain[0] else None

    anchor = 0
    for k in [*(np.flatnonzero(~fast[1:]) + 1).tolist(), n]:
        if k > anchor + 1:
            _fast_run(weights, vectors, vals, basis, raw, step, anchor, k, col_of_label)
        if k == n:
            break
        prev = vectors[k - 1]
        weights[k], vectors[k], assigned = _continue(prev, vals, basis, split, k)
        o = np.abs(np.einsum("lx,lx->l", prev.conj(), vectors[k])) ** 2
        low = np.flatnonzero(o < DEFAULT.overlap_threshold)
        if low.size:
            lab = int(low[0])
            raise AmbiguousContinuation(
                f"label {lab} overlap {o[lab]:.3f} < {DEFAULT.overlap_threshold} at "
                f"t={float(grid[k])}; refine the grid"
            )
        col_of_label = assigned if plain[k] else None
        anchor = k

    return SpectralTrajectory(grid=grid, weights=weights, vectors=vectors)


def _fast_run(weights, vectors, vals, basis, raw, step, anchor: int, end: int,
              col_of_label: np.ndarray) -> None:
    """Fill nodes ``anchor+1 .. end-1``, all on the fast path, in place.

    ``col_of_label`` maps each label to its eigencolumn at ``anchor``, where
    the tracked vectors are unit multiples of those columns.  The maps
    compose only at nodes whose step permutation moves a column; phases are
    a cumulative product of the unit overlaps.
    """
    length = end - anchor - 1
    steps = step[anchor:end - 1]                     # steps[i-1] leads to node anchor+i
    cols = np.empty((length + 1, len(col_of_label)), dtype=int)  # [i, label] at anchor+i
    cols[0] = col_of_label
    last = 0
    moved = (steps != np.arange(len(col_of_label))).any(axis=1)
    for i in (np.flatnonzero(moved) + 1).tolist():
        cols[last + 1:i] = cols[last]
        cols[i] = steps[i - 1][cols[i - 1]]
        last = i
    cols[last + 1:] = cols[last]

    g = raw[anchor:end - 1][np.arange(length)[:, None], cols[:-1], cols[1:]]
    phase = np.einsum("xl,lx->l", basis[anchor][:, col_of_label].conj(), vectors[anchor])
    phase = phase * np.cumprod(g.conj() / np.abs(g), axis=0)
    phase /= np.abs(phase)
    picked = np.take_along_axis(basis[anchor + 1:end], cols[1:, None, :], axis=2)
    vectors[anchor + 1:end] = phase[:, :, None] * picked.swapaxes(1, 2)
    weights[anchor + 1:end] = np.take_along_axis(vals[anchor + 1:end], cols[1:], axis=1)


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


def _nearest_node(grid, t):
    """Index of the increasing ``grid``'s node nearest to each ``t``, as
    ``argmin(abs(grid - t))`` gives it: a tie goes to the lower index."""
    i = np.searchsorted(grid[1:-1], t) + 1
    return i - (np.abs(grid[i - 1] - t) <= np.abs(grid[i] - t))


def detect_crossings(traj: SpectralTrajectory,
                     gap_threshold: float) -> tuple[CrossingEvent, ...]:
    """Grid intervals on which two tracked weights come within ``gap_threshold``.

    One event per run of nodes and label pair, ordered by pair, then time.
    """
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
    return tuple(events)
