"""Antisymmetric probability currents satisfying a continuity equation.

One constructor, :func:`current_matrix`, builds each kind the scenario
keys name (``scenario.CHOICES["current"]``):

* "minimal_flow": j_ji = (pdot_j - pdot_i) / D, the least-norm solution of
  the continuity system, with pdot the exact Born derivative: the row sums
  of the paired generalized current.
* "static_schrodinger": j_ji = 2 Im <psi| P_j H P_i |psi> for a
  time-independent projector family.
* "generalized_schrodinger": the same with an extra antisymmetric term
  accounting for rotating projectors, either the paired form
  <psi| Pdot_j P_i - Pdot_i P_j |psi> or a least-norm-style alternative.

Projectors enter as rank-1 directions per factor, whose kron gives the joint
directions, and their motion as per-factor connections.  The constructor
checks its inputs once over all nodes, then fills the antisymmetric matrix
``u - u^T`` (``u`` its strict upper triangle) over node blocks, the leading
node axes flattened and shaped back.  ``CurrentMatrix`` checks that record
once; consumers read it in place.  The block rule (``_BLOCK_BYTES``,
``_blockwise``) lives here, the lowest module that builds a record by
blocks; the rates and the pipeline's joint family use it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .hilbert import check_hermitian, check_ket

__all__ = [
    "CurrentMatrix",
    "continuity_residual",
    "current_matrix",
]


# Bytes of one complex (..., D, dim) stack over a node block of the per-node
# stages: small enough that a block's temporaries stay in cache.
_BLOCK_BYTES = 256 * 1024


def _blockwise(stage, n: int, dim: int):
    """``stage(nodes)`` over consecutive node slices covering ``0 .. n``.

    A complex ``(D, dim)`` stack (D = dim) over one slice takes at most
    ``_BLOCK_BYTES``; a slice holds at least one node.  ``stage`` returns a
    tuple of arrays with the slice's nodes on axis 0; they are written into
    outputs allocated once for the whole grid.
    """
    step = max(1, _BLOCK_BYTES // (dim * dim * np.dtype(complex).itemsize))
    out = None
    for lo in range(0, n, step):
        nodes = slice(lo, min(lo + step, n))
        parts = stage(nodes)
        if out is None:
            out = tuple(np.empty((n,) + p.shape[1:], dtype=p.dtype) for p in parts)
        for whole, part in zip(out, parts):
            whole[nodes] = part
    return out


def _pieces(x: np.ndarray):
    """``x (..., a, b)`` as node slices ``(m, a, b)`` of at most ``_BLOCK_BYTES``
    (one node at least), so a check run slice by slice forms no copy of ``x``."""
    flat = x.reshape((-1,) + x.shape[-2:])
    step = max(1, _BLOCK_BYTES // max(1, x.itemsize * x.shape[-2] * x.shape[-1]))
    return (flat[lo:lo + step] for lo in range(0, len(flat), step))


@dataclass(frozen=True)
class CurrentMatrix:
    """Antisymmetric net flows ``(..., D, D)``; entry [..., j, i] is the net flow i -> j."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
            raise ValueError("current matrix must be square")
        if np.isnan(m).any():
            raise ValueError("current matrix has NaN entries")
        if not all(np.array_equal(s, -s.swapaxes(1, 2)) for s in _pieces(m)):
            raise ValueError("current matrix must be exactly antisymmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[-1]


def _from_upper(f: np.ndarray) -> np.ndarray:
    """The antisymmetric array whose strict upper triangle is that of ``f``."""
    u = np.triu(f, 1)
    return u - np.swapaxes(u, -1, -2)


def joint_directions(factors) -> np.ndarray:
    """The joint directions ``(..., D, dim)``, kron of ``(..., d_k, d_k)`` factors."""
    joint = factors[0]
    for f in factors[1:]:
        joint = np.einsum("...ax,...by->...abxy", joint, f)
        *lead, a, b, x, y = joint.shape
        joint = joint.reshape(*lead, a * b, x * y)
    return joint


def current_matrix(kind: str, psi=None, hamiltonian=None, factors=(), connections=(),
                   extra_term: str = "paired") -> CurrentMatrix:
    """The current of kind ``kind``, one stacked record over the leading axes.

    * "static_schrodinger" reads ``psi (..., dim)``, ``hamiltonian (dim, dim)``
      and ``factors``, one ``(..., d_k, d_k)`` stack of orthonormal direction
      rows per factor (a single factor is any basis), whose kron gives the
      frozen projectors.
    * "generalized_schrodinger" reads the same plus ``connections``, one
      anti-Hermitian ``(..., d_k, d_k)`` stack ``A_k[b, a] = <u_b|d/dt u_a>``
      per factor.  With ``c_a = <v_a|psi>`` and ``Gamma = sum_k 1 (x) A_k (x)
      1``, the rotation term ``-2 Re(conj(c_a) Gamma_ab c_b)`` lives on labels
      that differ in one factor.  ``extra_term`` "paired" adds it pair by
      pair, giving ``2 Im <psi| P_a (H - i V^dag Vdot) P_b |psi>``, which
      vanishes exactly at zero amplitudes; "minimal_flow_like" spreads its
      row sums the way the least-norm current would.  Both restore
      continuity against the full time derivative of the Born weights.
    * "minimal_flow" reads the same as "generalized_schrodinger" and forms
      its paired current whatever ``extra_term``; that current's row sums
      ``r`` are the exact derivative, and it returns their least-norm
      spread ``(r_j - r_i) / D``.

    ``kind`` and ``extra_term`` are checked whatever the kind.  Every check
    on the inputs that kind reads runs once over all nodes; the record is
    then filled over node blocks (see ``_blockwise``) of the inputs with
    their leading axes flattened, so no temporary spans the whole stack.
    """
    if kind not in ("minimal_flow", "static_schrodinger", "generalized_schrodinger"):
        raise ValueError(f"unknown current kind {kind!r}")
    if extra_term not in ("paired", "minimal_flow_like"):
        raise ValueError(f"unknown extra_term {extra_term!r}")
    if kind == "static_schrodinger":
        extra_term = None              # frozen projectors: no connections, no rotation term
    elif kind == "minimal_flow":
        extra_term = "paired"          # the exact Born derivative, spread below
    psi, h = check_ket(psi), check_hermitian(hamiltonian)
    factors = [np.asarray(f, dtype=complex) for f in factors]
    dims = [f.shape[-1] for f in factors]
    if any(f.shape != psi.shape[:-1] + (d, d) for f, d in zip(factors, dims)) \
            or np.prod(dims) != psi.shape[-1]:
        raise ValueError(f"factor directions of shapes {[f.shape for f in factors]} are not "
                         f"square (..., d_k, d_k) stacks over a {psi.shape[-1]}-dim psi")
    # |<u_a|u_b>|^2 equals tr(P_a P_b) for each factor's rank-1 projectors.
    worst = max((np.abs(np.einsum("max,mbx->mab", s.conj(), s)[
        :, ~np.eye(s.shape[-1], dtype=bool)]).max(initial=0.0) ** 2
        for f in factors for s in _pieces(f)), default=0.0)
    if worst > DEFAULT.projector_orthogonality:
        raise ValueError(f"projectors are not mutually orthogonal (max overlap {worst:.3e})")
    conns = [np.asarray(c, dtype=complex) for c in connections] if extra_term else []
    if extra_term and [c.shape for c in conns] != [psi.shape[:-1] + (d, d) for d in dims]:
        raise ValueError(f"connections of shapes {[c.shape for c in conns]} do not "
                         "match the factor directions")
    skew = max((np.abs(s + s.conj().swapaxes(1, 2)).max() / max(1.0, np.abs(s).max())
                for c in conns for s in _pieces(c)), default=0.0)
    if not skew <= DEFAULT.hermiticity:
        raise ValueError(f"connections are not anti-Hermitian (relative |A + A^dag| {skew:.3e})")
    lead, dim = psi.shape[:-1], psi.shape[-1]
    psi = psi.reshape(-1, dim)
    factors, conns = ([x.reshape((-1,) + x.shape[-2:]) for x in xs] for xs in (factors, conns))

    def block(nodes):
        v = joint_directions([f[nodes] for f in factors])
        amps = np.einsum("...ax,...x->...a", v.conj(), psi[nodes])
        a = v * amps[..., None]
        # 2 Im <psi| P_a H P_b |psi>, the static part of the current.
        f = 2.0 * (a.conj() @ h @ np.swapaxes(a, -1, -2)).imag
        rotation = np.zeros_like(f) if extra_term == "minimal_flow_like" else f
        for k, conn in enumerate(conns):
            c = amps.reshape(amps.shape[:-1] + (int(np.prod(dims[:k])), dims[k], -1))
            # The table's (..., L, R, d_k, d_k) view on label pairs that agree
            # outside factor k, with L and R labels before and after it.
            pairs = np.einsum("...larlbr->...lrab",
                              rotation.reshape(f.shape[:-2] + c.shape[-3:] * 2))
            pairs -= 2.0 * np.einsum("...lar,...ab,...lbr->...lrab", c.conj(), conn[nodes], c).real
        if extra_term == "minimal_flow_like":
            dexp = rotation.sum(axis=-1)
            f += (dexp[..., :, None] - dexp[..., None, :]) / amps.shape[-1]
        if kind == "minimal_flow":
            r = _from_upper(f).sum(axis=-1)
            f = (r[..., :, None] - r[..., None, :]) / amps.shape[-1]
        return (_from_upper(f),)

    (matrix,) = _blockwise(block, len(psi), dim)
    return CurrentMatrix(matrix.reshape(lead + (dim, dim)))


def continuity_residual(current: CurrentMatrix, pdot) -> float:
    """max over nodes and j of |pdot_j - sum_i j_ji| for a candidate current."""
    pdot = np.asarray(pdot, dtype=float)
    if pdot.shape != current.matrix.shape[:-1]:
        raise ValueError("pdot length does not match current size")
    return float(np.abs(pdot - current.matrix.sum(axis=-1)).max())
