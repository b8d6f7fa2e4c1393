"""Dense complex linear algebra for factored finite-dimensional Hilbert spaces.

Conventions
-----------
* Operators and kets are plain numpy arrays with complex dtype.
* Tensor products follow the ``numpy.kron`` convention: the index of the
  left factor varies slowest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT

__all__ = [
    "FactorSpace",
    "check_hermitian",
    "check_ket",
    "evolve_on_grid",
    "partial_trace",
    "projector_from_vector",
    "tensor_product",
]


@dataclass(frozen=True)
class FactorSpace:
    """Ordered factor dimensions of a preferred tensor factorization."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("factor dimensions must be positive integers")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.factor_dims:
            out *= d
        return out

    def joint_indices(self) -> list[tuple[int, ...]]:
        """All joint labels in lexicographic order (left factor slowest)."""
        return list(itertools.product(*[range(d) for d in self.factor_dims]))


def _as_square_stack(a) -> np.ndarray:
    """``a`` as a complex ``(..., d, d)`` array with finite entries.

    For a stack, the first node with a non-finite entry is named.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    finite = np.isfinite(a).all(axis=(-2, -1)).reshape(-1)
    if not finite.all():
        where = "" if a.ndim == 2 else f"state at node {int(np.argmin(finite))}: "
        raise ValueError(f"{where}matrix entries must be finite")
    return a


def _as_square(a) -> np.ndarray:
    a = _as_square_stack(a)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_hermitian(a) -> np.ndarray:
    """Validate and return ``a`` as a Hermitian matrix or a stack ``(..., d, d)``
    of them; for a stack, the first bad node (in flat order) is named."""
    a = _as_square_stack(a)
    dev = np.abs(a - np.swapaxes(a, -1, -2).conj()).max(axis=(-2, -1)).reshape(-1)
    bad = np.flatnonzero(dev > DEFAULT.hermiticity)
    if bad.size:
        k = int(bad[0])
        what = "matrix" if a.ndim == 2 else f"state at node {k}"
        raise ValueError(f"{what} is not Hermitian (max deviation {dev[k]:.3e})")
    return a


def check_ket(psi) -> np.ndarray:
    """Validate and return ``psi`` as a normalized ket or a stack ``(..., dim)`` of them."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi.reshape(-1) if psi.ndim < 2 else psi
    if psi.size < 1 or not np.all(np.isfinite(psi)):
        raise ValueError("ket must have at least one entry, and entries must be finite")
    nrm = np.linalg.norm(psi, axis=-1)
    worst = float(nrm.flat[np.argmax(np.abs(nrm - 1.0))])
    if abs(worst - 1.0) > DEFAULT.unit_norm:
        raise ValueError(f"ket is not normalized (norm {worst!r})")
    return psi


def _check_projector(p) -> np.ndarray:
    """Validate and return ``p`` as a Hermitian idempotent matrix."""
    p = check_hermitian(p)
    dev = np.abs(p @ p - p).max()
    if dev > DEFAULT.idempotency:
        raise ValueError(f"projector is not idempotent (max |P^2 - P| = {dev:.3e})")
    return p


def projector_from_vector(v) -> np.ndarray:
    """Rank-1 projector ``|v><v|`` for a normalized vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def tensor_product(*ops) -> np.ndarray:
    """Kronecker product of one or more square operators, left factor slowest."""
    if not ops:
        raise ValueError("need at least one factor")
    out = _as_square(ops[0])
    for m in ops[1:]:
        out = np.kron(out, _as_square(m))
    return out


def partial_trace(w, space: FactorSpace, keep: int) -> np.ndarray:
    """Reduce ``w`` to the ``keep``-th factor by tracing out all others.

    Parameters
    ----------
    w : array
        Operator on the full product space, or a stack ``(..., dim, dim)``
        of them; the leading axes broadcast through to the result
        ``(..., d_keep, d_keep)``.
    space : FactorSpace
        Factor dimensions; their product must equal ``w``'s dimension.
    keep : int
        Index of the factor to keep.
    """
    w = _as_square_stack(w)
    dims = space.factor_dims
    n = len(dims)
    if w.shape[-1] != space.dim:
        raise ValueError(
            f"dimension mismatch: operator dim {w.shape[-1]}, factors give {space.dim}"
        )
    if not 0 <= keep < n:
        raise ValueError(f"keep index {keep} out of range for {n} factors")
    # Split each side into (L, d_keep, R), the factors before, at and after
    # ``keep``; shared L and R letters sum the traced factors out.
    left, d = int(np.prod(dims[:keep])), dims[keep]
    split = (left, d, space.dim // (left * d))
    return np.einsum("...lyrlzr->...yz", w.reshape(w.shape[:-2] + split * 2))


def evolve_on_grid(psi0, hamiltonian, times) -> np.ndarray:
    """States at each time of ``times``; one eigendecomposition, many phases.

    Returns an array of shape ``(len(times), dim)``.
    """
    h = _as_square(check_hermitian(hamiltonian))
    psi0 = check_ket(psi0)
    times = np.asarray(times, dtype=float)
    vals, vecs = np.linalg.eigh(h)
    coeff = vecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, vals))
    return (phases * coeff[None, :]) @ vecs.T
