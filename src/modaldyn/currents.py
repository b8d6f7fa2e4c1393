"""Antisymmetric probability currents satisfying a continuity equation.

Three constructors are provided:

* ``minimal_flow_current``: j_ji = (pdot_j - pdot_i) / D, the least-norm
  solution of the continuity system.
* ``static_schrodinger_current``: j_ji = 2 Im <psi| P_j H P_i |psi> for a
  time-independent projector family.
* ``generalized_schrodinger_current``: the same with an extra antisymmetric
  term accounting for rotating projectors, either the paired form
  <psi| Pdot_j P_i - Pdot_i P_j |psi> or a least-norm-style alternative.

Projectors enter as rank-1 directions, and every constructor broadcasts
over leading node axes.  Antisymmetry is structural: only the strict upper
triangle is stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT
from .hilbert import check_hermitian, check_ket

__all__ = [
    "CurrentMatrix",
    "continuity_residual",
    "generalized_schrodinger_current",
    "minimal_flow_current",
    "static_schrodinger_current",
]


@dataclass(frozen=True)
class CurrentMatrix:
    """Net flows j_ji as a strict upper triangle ``(..., D, D)``; ``x[k]`` is node k."""

    upper: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.upper, dtype=float)
        if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
            raise ValueError("upper triangle storage must be square")
        if np.count_nonzero(np.tril(u)) != 0:
            raise ValueError("storage must be strictly upper triangular")
        object.__setattr__(self, "upper", u)

    @property
    def size(self) -> int:
        return self.upper.shape[-1]

    def __len__(self) -> int:
        return len(self.upper)

    def __getitem__(self, k) -> CurrentMatrix:
        return CurrentMatrix(upper=self.upper[k])

    def full(self) -> np.ndarray:
        """Full antisymmetric matrix; entry [..., j, i] is the net flow i -> j."""
        return self.upper - np.swapaxes(self.upper, -1, -2)


def _upper(f: np.ndarray) -> CurrentMatrix:
    return CurrentMatrix(upper=np.triu(f, 1))


def minimal_flow_current(pdot) -> CurrentMatrix:
    """Least-norm current (pdot_j - pdot_i) / D for balanced pdot vectors (..., D)."""
    pdot = np.asarray(pdot, dtype=float)
    d = pdot.shape[-1]
    bal = np.abs(pdot.sum(axis=-1)).max()
    if bal > DEFAULT.pdot_balance:
        raise ValueError(f"pdot must sum to zero (got {bal:.3e})")
    return _upper((pdot[..., :, None] - pdot[..., None, :]) / d)


def _projected(psi, hamiltonian, vectors):
    """Checked ``psi``, ``H`` and the rows ``a_a = v_a <v_a|psi>``, shape (..., D, dim)."""
    psi = check_ket(psi)
    h = check_hermitian(hamiltonian)
    v = np.asarray(vectors, dtype=complex)
    if v.ndim != psi.ndim + 1 or v.shape[-1] != psi.shape[-1]:
        raise ValueError(f"vector stack has shape {v.shape}, "
                         f"expected (..., D, {psi.shape[-1]})")
    # |<v_a|v_b>|^2 equals tr(P_a P_b) for the rank-1 projectors.
    overlap = np.abs(v.conj() @ np.swapaxes(v, -1, -2)) ** 2
    off = overlap * ~np.eye(v.shape[-2], dtype=bool)
    if off.max() > DEFAULT.projector_orthogonality:
        raise ValueError(
            f"projectors are not mutually orthogonal (max overlap {off.max():.3e})"
        )
    a = v * np.einsum("...ax,...x->...a", v.conj(), psi)[..., None]
    return psi, h, a


def _schrodinger(a, h) -> np.ndarray:
    """2 Im <psi| P_a H P_b |psi>, the static part of the current."""
    g = a.conj() @ h @ np.swapaxes(a, -1, -2)
    return 2.0 * g.imag


def static_schrodinger_current(psi, hamiltonian, vectors) -> CurrentMatrix:
    """Textbook current for frozen projectors with orthonormal directions ``vectors``.

    ``psi`` has shape ``(..., dim)`` and ``vectors`` ``(..., D, dim)``.
    """
    _psi, h, a = _projected(psi, hamiltonian, vectors)
    return _upper(_schrodinger(a, h))


def generalized_schrodinger_current(psi, hamiltonian, vectors, rotation,
                                    extra_term: str = "paired") -> CurrentMatrix:
    """Schrodinger current extended to a rotating projector family.

    ``rotation`` holds the rows ``b_a = Pdot_a |psi>``, shape ``(..., D, dim)``.
    ``extra_term`` selects how the rotation enters: "paired" adds the
    conjugate-pair term <psi| Pdot_j P_i - Pdot_i P_j |psi> (computed in
    the algebraically equal arrangement that keeps it exactly zero at
    zero-probability states); "minimal_flow_like" spreads the rotational
    part of pdot the way the least-norm current would.  Both choices
    restore continuity against the full time derivative of the Born
    weights.
    """
    if extra_term not in ("paired", "minimal_flow_like"):
        raise ValueError(f"unknown extra_term {extra_term!r}")
    psi, h, a = _projected(psi, hamiltonian, vectors)
    b = np.asarray(rotation, dtype=complex)
    if b.shape != a.shape:
        raise ValueError("vector and rotation stacks must have equal shape")
    bal = np.abs(b.sum(axis=-2)).max()
    if bal > DEFAULT.derivative_balance:
        raise ValueError(f"projector derivatives do not sum to zero (max {bal:.3e})")

    f = _schrodinger(a, h)
    if extra_term == "paired":
        m = 2.0 * (b.conj() @ np.swapaxes(a, -1, -2)).real   # 2 Re <psi| Pdot_a P_b |psi>
        mt = np.swapaxes(m, -1, -2)
        # Where a state's probability vanishes, P_i |psi> = 0 kills every
        # term with P_i adjacent to the state; picking that arrangement per
        # pair keeps the zero-current-at-zero-probability property exact
        # instead of leaving finite-difference remainders of order h^2.
        zero = np.einsum("...ax,...ax->...a", a.conj(), a).real <= DEFAULT.zero_probability
        extra = np.where(zero[..., None, :], m, 0.5 * (m - mt))
        extra = np.where(zero[..., :, None], -mt, extra)
    else:
        dexp = np.einsum("...x,...ax->...a", psi.conj(), b).real
        extra = (dexp[..., :, None] - dexp[..., None, :]) / b.shape[-2]
    return _upper(f + extra)


def continuity_residual(current: CurrentMatrix, pdot) -> float:
    """max over nodes and j of |pdot_j - sum_i j_ji| for a candidate current."""
    pdot = np.asarray(pdot, dtype=float)
    if pdot.shape != current.upper.shape[:-1]:
        raise ValueError("pdot length does not match current size")
    return float(np.abs(pdot - current.full().sum(axis=-1)).max())
